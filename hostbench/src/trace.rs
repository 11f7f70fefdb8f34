//! The traced run's span recorder and its per-layer analysis.
//!
//! Spans are recorded from the benchmark's side of each layer boundary:
//! a traced operation calls the same public functions its untraced twin
//! reaches through one entry point, wrapping each call in a [`Cx::span`].
//! Every span carries its name (`layer.call`), start and end on one
//! monotonic clock, the span that caused it and the operation id. Spans
//! stay in memory until the run ends; [`write_jsonl`] then writes them out.

use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::io::Write;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// One recorded span.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Unique within the run.
    pub id: u32,
    /// The enclosing span (`None` for an operation's root and for the
    /// checks run after it).
    pub parent: Option<u32>,
    /// The operation this span belongs to.
    pub op: u64,
    /// `layer.call`; the operation root is `op`.
    pub name: &'static str,
    /// Nanoseconds since the tracer started.
    pub start_ns: u64,
    /// Nanoseconds since the tracer started.
    pub end_ns: u64,
}

/// Name of the span around a whole traced operation.
pub const ROOT: &str = "op";

/// An in-memory span sink shared by every thread of a run.
#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    next_id: AtomicU32,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    /// A tracer whose clock starts now.
    pub fn new() -> Arc<Tracer> {
        Arc::new(Tracer {
            epoch: Instant::now(),
            next_id: AtomicU32::new(0),
            spans: Mutex::default(),
        })
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// The top-level context of operation `op`: spans opened on it have
    /// no parent.
    pub fn op(self: &Arc<Self>, op: u64) -> Cx {
        Cx { tracer: Arc::clone(self), op, parent: None }
    }

    /// Every span recorded so far, in completion order.
    pub fn spans(&self) -> Vec<Span> {
        self.spans.lock().expect("a thread panicked while recording a span").clone()
    }
}

/// Where new spans attach: an operation and the enclosing span. Cheap to
/// clone and `Send`, so member payloads on node threads can carry one.
#[derive(Debug, Clone)]
pub struct Cx {
    tracer: Arc<Tracer>,
    op: u64,
    parent: Option<u32>,
}

impl Cx {
    /// Run `f` inside a span called `name`; spans `f` opens on the context
    /// it receives become this span's children.
    pub fn span<R>(&self, name: &'static str, f: impl FnOnce(&Cx) -> R) -> R {
        // Relaxed: the id only has to be unique; it publishes no data.
        let id = self.tracer.next_id.fetch_add(1, Ordering::Relaxed);
        let child = Cx { tracer: Arc::clone(&self.tracer), op: self.op, parent: Some(id) };
        let start_ns = self.tracer.now_ns();
        let out = f(&child);
        let end_ns = self.tracer.now_ns();
        let span = Span { id, parent: self.parent, op: self.op, name, start_ns, end_ns };
        self.tracer.spans.lock().expect("a thread panicked while recording a span").push(span);
        out
    }
}

/// The layer a span's *self* time is booked to: the prefix of its name,
/// except that `Sweep::run`'s self time is the machine park's (everything
/// outside the member runs is `MachinePark::run`'s admit, lease, wipe,
/// retire and audit; the ensemble's own bookkeeping is microseconds).
pub fn self_layer(name: &str) -> &str {
    match name {
        "ensemble.run" => "park",
        _ => name.split('.').next().unwrap_or(name),
    }
}

/// Totals over a run's spans, in seconds.
#[derive(Debug, Default, Clone)]
pub struct Analysis {
    /// Traced operations (root spans).
    pub ops: usize,
    /// Total duration per span name.
    pub total: BTreeMap<&'static str, f64>,
    /// Total self time per span name: its duration minus the part of it
    /// its children cover.
    pub self_time: BTreeMap<&'static str, f64>,
    /// Names of the spans that run after an operation (its checks)
    /// rather than inside it.
    pub after_names: BTreeSet<&'static str>,
    /// Total duration of the operation roots.
    pub op_wall: f64,
    /// Total time the roots' direct children cover.
    pub covered: f64,
}

impl Analysis {
    /// Self time per layer ([`self_layer`]), inside and after the
    /// operations; the roots excluded.
    pub fn layers(&self) -> BTreeMap<&str, f64> {
        let mut out = BTreeMap::new();
        for (name, t) in &self.self_time {
            if *name != ROOT {
                *out.entry(self_layer(name)).or_insert(0.0) += t;
            }
        }
        out
    }

    /// Self time per layer of the spans in [`Analysis::after_names`].
    pub fn after_layers(&self) -> BTreeMap<&str, f64> {
        let mut out = BTreeMap::new();
        for name in &self.after_names {
            *out.entry(self_layer(name)).or_insert(0.0) += self.self_time[name];
        }
        out
    }

    /// Share of operation wall-clock covered by layer spans.
    pub fn coverage(&self) -> f64 {
        if self.op_wall > 0.0 {
            self.covered / self.op_wall
        } else {
            0.0
        }
    }
}

/// Length of the union of `intervals` clipped to `[lo, hi]`.
fn union_len(mut intervals: Vec<(u64, u64)>, lo: u64, hi: u64) -> u64 {
    intervals.sort_unstable();
    let mut total = 0;
    let mut cur: Option<(u64, u64)> = None;
    for (s, e) in intervals {
        let (s, e) = (s.max(lo), e.min(hi));
        if s >= e {
            continue;
        }
        cur = match cur {
            Some((cs, ce)) if s <= ce => Some((cs, ce.max(e))),
            Some((cs, ce)) => {
                total += ce - cs;
                Some((s, e))
            }
            None => Some((s, e)),
        };
    }
    total + cur.map_or(0, |(s, e)| e - s)
}

/// Self times, coverage and per-name totals of `spans`.
pub fn analyze(spans: &[Span]) -> Analysis {
    let mut children: HashMap<u32, Vec<(u64, u64)>> = HashMap::new();
    for s in spans {
        if let Some(p) = s.parent {
            children.entry(p).or_default().push((s.start_ns, s.end_ns));
        }
    }
    let mut a = Analysis::default();
    for s in spans {
        let dur = s.end_ns.saturating_sub(s.start_ns);
        let kids = children.remove(&s.id).unwrap_or_default();
        let covered = union_len(kids, s.start_ns, s.end_ns);
        *a.total.entry(s.name).or_insert(0.0) += dur as f64 * 1e-9;
        *a.self_time.entry(s.name).or_insert(0.0) += (dur - covered) as f64 * 1e-9;
        if s.parent.is_none() && s.name != ROOT {
            a.after_names.insert(s.name);
        }
        if s.name == ROOT {
            a.ops += 1;
            a.op_wall += dur as f64 * 1e-9;
            a.covered += covered as f64 * 1e-9;
        }
    }
    a
}

/// Write at most `limit` spans as JSON lines; returns how many were
/// left out.
pub fn write_jsonl(out: &mut impl Write, spans: &[Span], limit: usize) -> std::io::Result<usize> {
    for s in spans.iter().take(limit) {
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        writeln!(
            out,
            "{{\"id\":{},\"parent\":{parent},\"op\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
            s.id, s.op, s.name, s.start_ns, s.end_ns
        )?;
    }
    Ok(spans.len().saturating_sub(limit))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u32, parent: Option<u32>, name: &'static str, start: u64, end: u64) -> Span {
        Span { id, parent, op: 0, name, start_ns: start, end_ns: end }
    }

    #[test]
    fn union_merges_overlaps_and_clips() {
        assert_eq!(union_len(vec![(0, 10), (5, 15), (20, 30)], 0, 100), 25);
        assert_eq!(union_len(vec![(0, 10), (5, 15)], 8, 12), 4);
        assert_eq!(union_len(vec![], 0, 10), 0);
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        // Two concurrent members inside a run, inside an op.
        let spans = vec![
            span(1, Some(0), "cfd.member", 10, 50),
            span(2, Some(0), "cfd.member", 20, 60),
            span(0, Some(9), "ensemble.run", 0, 100),
            span(9, None, ROOT, 0, 110),
            span(3, None, "cert.verify", 120, 130),
        ];
        let a = analyze(&spans);
        assert_eq!(a.ops, 1);
        let s = |n| a.self_time[n] * 1e9;
        assert!((s("ensemble.run") - 50.0).abs() < 1e-6);
        assert!((s(ROOT) - 10.0).abs() < 1e-6);
        assert!((a.coverage() - 100.0 / 110.0).abs() < 1e-12);
        let layers = a.layers();
        assert!((layers["park"] * 1e9 - 50.0).abs() < 1e-6);
        assert!((layers["cfd"] * 1e9 - 80.0).abs() < 1e-6);
        assert!((layers["cert"] * 1e9 - 10.0).abs() < 1e-6);
        assert_eq!(a.after_layers().keys().collect::<Vec<_>>(), vec![&"cert"]);
    }

    #[test]
    fn nested_spans_record_parent_and_op() {
        let t = Tracer::new();
        let cx = t.op(7);
        cx.span(ROOT, |root| {
            root.span("core.compile", |c| c.span("diagram.digest", |_| ()));
        });
        let spans = t.spans();
        assert_eq!(spans.len(), 3);
        assert!(spans.iter().all(|s| s.op == 7 && s.end_ns >= s.start_ns));
        let by = |n: &str| spans.iter().find(|s| s.name == n).unwrap().clone();
        assert_eq!(by("diagram.digest").parent, Some(by("core.compile").id));
        assert_eq!(by("core.compile").parent, Some(by(ROOT).id));
        assert_eq!(by(ROOT).parent, None);
        let mut buf = Vec::new();
        assert_eq!(write_jsonl(&mut buf, &spans, 2).unwrap(), 1);
        assert_eq!(String::from_utf8(buf).unwrap().lines().count(), 2);
    }
}
