//! The closed-loop runner every workload shares: repeated set-up, a
//! timed loop of operations with output checks, and (traced mode) a
//! traced twin of every operation. Yardstick samples taken between
//! operations rescale every set-up and untraced operation to the
//! reference host speed (see [`crate::yardstick`]).

use crate::stats::Series;
use crate::system::{peak_rss_mb, ProcSample};
use crate::trace::{Cx, Span, Tracer, ROOT};
use crate::yardstick::{Interval, Yardstick};
use std::time::{Duration, Instant};

/// Set-ups per run: as many as fit in `SETUP_SHARE` of the measured loop,
/// judged by the first, within `SETUP_MIN_REPS..=SETUP_MAX_REPS`.
/// `setup_s` is their median. The first runs before the loop; the rest
/// are spaced evenly through it (each built, timed and dropped between
/// two operations), because the host's speed drifts in phases of seconds
/// and set-ups done back to back would all land in one phase.
const SETUP_MIN_REPS: usize = 9;
const SETUP_MAX_REPS: usize = 35;
const SETUP_SHARE: f64 = 0.1;

/// Errors kept verbatim for the report (the count is always exact).
const KEPT_ERRORS: usize = 5;

/// One benchmark workload: closed loop, one client.
pub trait Workload: Sized {
    /// What one operation's output is, until it is checked.
    type Out;
    /// Unit of `throughput` (the work item one operation completes
    /// `items()` of).
    const ITEM: &'static str;
    /// The spans predicted to dominate operation wall-clock.
    const PREDICTED: &'static [&'static str];
    /// Threads one operation keeps busy at once; the yardstick runs on
    /// as many.
    const THREADS: usize;

    /// Build sessions, inputs and state from `seed`, then run one warm-up
    /// operation. Timed as `setup_s`.
    fn setup(seed: u64) -> Result<Self, String>;

    /// Compute the reference outputs checks compare against. Runs once,
    /// after the last set-up, outside every timed region.
    fn oracle(&mut self) -> Result<(), String> {
        Ok(())
    }

    /// Work items one operation completes.
    fn items(&self) -> f64;

    /// Stage the next operation's inputs outside the timed region;
    /// `traced` asks for the traced twin of the operation just run.
    fn prepare(&mut self, _traced: bool) {}

    /// One untraced operation: the library's public entry point.
    fn op(&mut self) -> Result<Self::Out, String>;

    /// The same operation, decomposed into the public calls of each layer
    /// with a span around each.
    fn traced_op(&mut self, cx: &Cx) -> Result<Self::Out, String>;

    /// Check an operation's output against the reference and record its
    /// per-operation values. `cx` is the operation's top-level context in
    /// traced mode (checks that exercise a layer get spans there).
    fn check(
        &mut self,
        out: Self::Out,
        latency: f64,
        cx: Option<&Cx>,
        series: &mut Series,
    ) -> Result<(), String>;

    /// End-of-run checks and counts, outside every timed region.
    fn finish(&mut self, _series: &mut Series) -> Result<(), String> {
        Ok(())
    }
}

/// Everything one run measured.
#[derive(Debug, Default)]
pub struct RunData {
    /// Seconds per set-up (each including its warm-up operation), at the
    /// yardstick's reference speed.
    pub setup_s: Vec<f64>,
    /// The same set-ups in wall-clock seconds.
    pub wall_setup_s: Vec<f64>,
    /// Latency of each successful untraced operation, seconds at the
    /// yardstick's reference speed.
    pub latencies: Vec<f64>,
    /// The same latencies in wall-clock seconds.
    pub wall_latencies: Vec<f64>,
    /// Wall-clock latency of each successful traced operation, seconds.
    pub traced: Vec<f64>,
    /// Median seconds per yardstick pass over the run.
    pub yardstick_pass_s: f64,
    /// Yardstick samples taken.
    pub yardstick_samples: usize,
    /// Operations attempted (traced ones included).
    pub attempted: u64,
    /// Operations that errored or produced a wrong output.
    pub failed: u64,
    /// The first few failure messages.
    pub errors: Vec<String>,
    /// Work items per operation.
    pub items_per_op: f64,
    /// Per-operation values the checks recorded.
    pub series: Series,
    /// Process CPU time and faults summed over the traced operations.
    pub proc: ProcSample,
    /// Every span of the traced run.
    pub spans: Vec<Span>,
    /// Peak resident set size of the whole process, MiB.
    pub peak_rss_mb: f64,
    /// Wall-clock of the measured loop, seconds.
    pub loop_s: f64,
}

impl RunData {
    fn fail(&mut self, e: String) {
        self.failed += 1;
        if self.errors.len() < KEPT_ERRORS {
            self.errors.push(e);
        }
    }
}

/// Run workload `W` for `seconds` of measured loop.
pub fn run<W: Workload>(seed: u64, seconds: f64, traced: bool) -> Result<RunData, String> {
    let mut data = RunData::default();
    let mut yard = Yardstick::new(W::THREADS);
    let (mut setups, mut ops): (Vec<Interval>, Vec<Interval>) = (Vec::new(), Vec::new());
    yard.sample();
    let t = Instant::now();
    let mut w = W::setup(seed)?;
    setups.push(yard.interval(t));
    w.oracle()?;
    data.items_per_op = w.items();
    let reps = ((SETUP_SHARE * seconds / setups[0].wall).round() as usize)
        .clamp(SETUP_MIN_REPS, SETUP_MAX_REPS);

    let tracer = Tracer::new();
    let budget = Duration::from_secs_f64(seconds);
    let start = Instant::now();
    let mut op_id = 0u64;
    while start.elapsed() < budget {
        if yard.due() {
            yard.sample();
        }
        if start.elapsed() >= budget.mul_f64(setups.len() as f64 / reps as f64) {
            let t = Instant::now();
            let again = W::setup(seed)?;
            setups.push(yard.interval(t));
            drop(again);
        }
        data.attempted += 1;
        w.prepare(false);
        let t = Instant::now();
        let out = w.op();
        let span = yard.interval(t);
        match out.and_then(|o| w.check(o, span.wall, None, &mut data.series)) {
            Ok(()) => ops.push(span),
            Err(e) => data.fail(e),
        }

        if traced {
            data.attempted += 1;
            w.prepare(true);
            let top = tracer.op(op_id);
            op_id += 1;
            let before = ProcSample::now();
            let t = Instant::now();
            let out = top.span(ROOT, |cx| w.traced_op(cx));
            let latency = t.elapsed().as_secs_f64();
            let after = ProcSample::now();
            let d = after.since(&before);
            data.proc.user_s += d.user_s;
            data.proc.sys_s += d.sys_s;
            data.proc.minor_faults += d.minor_faults;
            match out.and_then(|o| w.check(o, latency, Some(&top), &mut data.series)) {
                Ok(()) => data.traced.push(latency),
                Err(e) => data.fail(e),
            }
        }
    }
    data.loop_s = start.elapsed().as_secs_f64();
    yard.sample();
    data.setup_s = setups.iter().map(|&i| yard.normalize(i)).collect();
    data.wall_setup_s = setups.iter().map(|i| i.wall).collect();
    data.latencies = ops.iter().map(|&i| yard.normalize(i)).collect();
    data.wall_latencies = ops.iter().map(|i| i.wall).collect();
    data.yardstick_pass_s = yard.median_pass();
    data.yardstick_samples = yard.samples();
    if let Err(e) = w.finish(&mut data.series) {
        data.fail(format!("end-of-run check: {e}"));
    }
    data.spans = tracer.spans();
    data.peak_rss_mb = peak_rss_mb().unwrap_or(0.0);
    Ok(data)
}
