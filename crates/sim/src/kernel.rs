//! Compile-time specialization of microinstructions into native sweep
//! kernels — the host fast path.
//!
//! The lockstep interpreter in [`crate::exec`] walks every pipeline one
//! clock at a time, re-dispatching every component per cycle. That is the
//! right model for the machine but a poor use of the host: a Jacobi sweep
//! re-interprets the same instruction thousands of times.
//!
//! The key observation is that *data validity is value-independent*: every
//! switch source carries `Some` on a contiguous cycle window determined
//! entirely by instruction structure — DMA counts, shift/delay tap depths,
//! compensation-queue depths and functional-unit pipeline latencies.
//! [`CompiledKernel::compile`] therefore performs the whole cycle-level
//! analysis once per instruction: it computes each source's validity
//! window, the completion-interrupt cycle, and every counter except the
//! exception count analytically, then lowers the datapath to a plan of
//! flat element loops (strided bulk reads, one vectorizable loop per
//! functional unit, strided bulk writes). Executing the plan produces
//! **bit-identical** memory effects, counters and source traces to the
//! interpreter — including the simulated clock-cycle charge — at a small
//! fraction of the host cost.
//!
//! Instructions whose behaviour cannot be proven equivalent statically
//! (wire cycles, DMA ranges that overlap within the instruction,
//! under-supplied stream writes that would hang, malformed programs) are
//! simply not specialized; [`crate::NodeSim::run_program_with_kernel`]
//! falls back to the interpreter for those, so the fast path is always
//! safe to enable.
//!
//! A kernel holds only the plan; the element buffers a plan streams
//! through live on the executing [`crate::NodeSim`], which keeps them
//! across instructions and runs so that a node's steady state allocates
//! nothing. They carry no simulated state: every buffer an instruction
//! uses is emptied before it runs, and a cloned node starts without them.

use crate::counters::PerfCounters;
use crate::exec::{SourceTrace, SETUP_CYCLES};
use crate::memory::NodeMemory;
use nsc_arch::{FuOp, KnowledgeBase, SinkRef, SourceRef};
use nsc_microcode::{FuInputSel, MicroInstruction, MicroProgram, WriteMode};
use std::collections::HashMap;

// ---------------------------------------------------------------------
// plan data model
// ---------------------------------------------------------------------

/// A half-open validity window in instruction-local cycles; `end == None`
/// means valid forever (constant- or feedback-fed sources).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Win {
    start: u64,
    end: Option<u64>,
}

impl Win {
    fn shifted(self, by: u64) -> Win {
        Win { start: self.start + by, end: self.end.map(|e| e + by) }
    }

    /// Number of valid cycles once execution stops after `executed` cycles.
    fn clipped_len(self, executed: u64) -> u64 {
        let end = self.end.map_or(executed, |e| e.min(executed));
        end.saturating_sub(self.start)
    }
}

/// Intersection of two windows (empty becomes `None`).
fn intersect(a: Win, b: Win) -> Option<Win> {
    let start = a.start.max(b.start);
    let end = match (a.end, b.end) {
        (Some(x), Some(y)) => Some(x.min(y)),
        (Some(x), None) | (None, Some(x)) => Some(x),
        (None, None) => None,
    };
    match end {
        Some(e) if e <= start => None,
        _ => Some(Win { start, end }),
    }
}

/// Storage target of a DMA transfer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Store {
    Plane(usize),
    Cache(usize, u8),
}

#[derive(Debug, Clone)]
struct ReadPlan {
    slot: usize,
    store: Store,
    base: i64,
    stride: i64,
    count: usize,
}

/// Where a functional-unit operand's element `k` comes from.
#[derive(Debug, Clone)]
enum Arg {
    /// `streams[slot][k + offset]`.
    Stream { slot: usize, offset: usize },
    /// A register-file constant.
    Lit(f64),
    /// The feedback accumulator (previous result).
    Acc,
}

#[derive(Debug, Clone)]
struct StagePlan {
    out_slot: usize,
    op: FuOp,
    const_val: f64,
    preload: f64,
    n: usize,
    a: Arg,
    b: Arg,
    uses_acc: bool,
}

#[derive(Debug, Clone)]
enum WritePlan {
    /// A stream-mode DMA: store `streams[slot][skip .. skip + count]`.
    Stream { store: Store, base: i64, stride: i64, slot: usize, skip: usize, count: usize },
    /// A `LastOnly` scalar capture: store `streams[slot][idx]` at `base`.
    Last { store: Store, base: i64, slot: usize, idx: usize },
}

#[derive(Debug, Clone)]
struct TracePlan {
    code: u16,
    slot: usize,
    idx: usize,
}

#[derive(Debug, Clone)]
struct PipelinePlan {
    slots: usize,
    reads: Vec<ReadPlan>,
    stages: Vec<StagePlan>,
    writes: Vec<WritePlan>,
    trace: Vec<TracePlan>,
    /// Cycles the lockstep loop would execute (completion cycle + 1).
    executed_cycles: u64,
    flops: u64,
    elements_streamed: u64,
    elements_stored: u64,
}

#[derive(Debug, Clone)]
enum PlanBody {
    /// No reads, writes or functional units: costs setup only.
    Idle,
    Pipeline(Box<PipelinePlan>),
}

/// One specialized instruction.
#[derive(Debug, Clone)]
pub(crate) struct InstrPlan {
    n_sources: usize,
    body: PlanBody,
}

// ---------------------------------------------------------------------
// the compiled kernel
// ---------------------------------------------------------------------

/// A program specialized for host-speed execution.
///
/// Built once per [`MicroProgram`] (typically at `Session::compile` time
/// and cached by document digest); safe to share across threads — one
/// kernel can drive every node of a pool concurrently. Instructions the
/// analysis cannot specialize keep `None` plans and execute through the
/// interpreter, with identical results either way.
#[derive(Debug, Clone)]
pub struct CompiledKernel {
    plans: Vec<Option<InstrPlan>>,
}

impl CompiledKernel {
    /// Analyze every instruction of `prog` against machine `kb`.
    ///
    /// The kernel is only meaningful for the knowledge base it was
    /// compiled against (source codes and latencies are baked in), which
    /// must also be the executing node's machine — the same contract the
    /// generated program itself already carries.
    pub fn compile(kb: &KnowledgeBase, prog: &MicroProgram) -> CompiledKernel {
        CompiledKernel { plans: prog.instrs.iter().map(|ins| plan_instruction(kb, ins)).collect() }
    }

    /// Number of instructions the kernel covers.
    pub fn instructions(&self) -> usize {
        self.plans.len()
    }

    /// How many instructions were specialized (the rest fall back to the
    /// interpreter).
    pub fn specialized(&self) -> usize {
        self.plans.iter().filter(|p| p.is_some()).count()
    }

    pub(crate) fn plan(&self, pc: usize) -> Option<&InstrPlan> {
        self.plans.get(pc).and_then(|p| p.as_ref())
    }

    /// The kernel calculus's per-instruction claim, for certificate
    /// emission: the validity window in cycles and the work budget
    /// inside it. `None` for instructions the analysis could not
    /// specialize (they execute through the interpreter) and for idle
    /// instructions, which stream nothing.
    pub fn plan_summary(&self, pc: usize) -> Option<KernelPlanSummary> {
        match &self.plan(pc)?.body {
            PlanBody::Idle => None,
            PlanBody::Pipeline(p) => Some(KernelPlanSummary {
                executed_cycles: p.executed_cycles,
                flops: p.flops,
                elements_streamed: p.elements_streamed,
                elements_stored: p.elements_stored,
            }),
        }
    }
}

/// The public face of one specialized instruction's plan — what the
/// compile pipeline copies into a run certificate so an independent
/// verifier can bound the claimed work (see `nsc-cert`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct KernelPlanSummary {
    /// Cycles the lockstep loop executes (completion cycle + 1).
    pub executed_cycles: u64,
    /// Floating-point operations performed inside the window.
    pub flops: u64,
    /// Elements streamed in from planes and caches.
    pub elements_streamed: u64,
    /// Elements stored back to planes and caches.
    pub elements_stored: u64,
}

// ---------------------------------------------------------------------
// planning
// ---------------------------------------------------------------------

/// What an enabled switch source is, for window resolution.
#[derive(Debug, Clone, Copy)]
enum Kind {
    Read(usize),
    Tap { sdu: usize, eff: u64 },
    Fu(usize),
}

struct FuSpec {
    src_code: u16,
    op: FuOp,
    lat: u64,
    in_a: FuInputSel,
    in_b: FuInputSel,
    a_driver: Option<u16>,
    b_driver: Option<u16>,
    const_val: f64,
}

struct WriteSpec {
    driver: Option<u16>,
    store: Store,
    base: i64,
    stride: i64,
    count: u64,
    skip: u64,
    mode: WriteMode,
}

/// A source's resolved validity window and backing value stream.
type Resolved = Option<(Win, usize)>;

struct Planner<'a> {
    kinds: HashMap<u16, Kind>,
    read_counts: Vec<u64>,
    sdu_drivers: Vec<Option<u16>>,
    fus: &'a [FuSpec],
    /// Lazily planned per-FU result window (pre-latency) and arg metadata.
    fu_result: Vec<Option<(Option<Win>, ArgMeta, ArgMeta)>>,
    /// FU indices in dependency (post-) order.
    stage_order: Vec<usize>,
    memo: HashMap<u16, Resolved>,
    resolving: Vec<u16>,
    n_reads: usize,
}

#[derive(Debug, Clone)]
enum ArgMeta {
    Stream { slot: usize, win_start: u64 },
    Lit(f64),
    Acc,
    Dead,
}

/// Structurally unsupported: fall back to the interpreter.
struct Unsupported;

impl Planner<'_> {
    fn resolve(&mut self, code: u16) -> Result<Resolved, Unsupported> {
        if let Some(r) = self.memo.get(&code) {
            return Ok(*r);
        }
        let r = match self.kinds.get(&code).copied() {
            None => None,
            Some(Kind::Read(i)) => {
                let count = self.read_counts[i];
                (count > 0).then_some((Win { start: 0, end: Some(count) }, i))
            }
            Some(Kind::Tap { sdu, eff }) => {
                if self.resolving.contains(&code) {
                    return Err(Unsupported); // wire cycle through an SDU
                }
                self.resolving.push(code);
                let r = match self.sdu_drivers[sdu] {
                    None => None,
                    Some(d) => self.resolve(d)?.map(|(w, slot)| (w.shifted(eff), slot)),
                };
                self.resolving.pop();
                r
            }
            Some(Kind::Fu(j)) => {
                // Cycle detection for FUs lives inside `ensure_fu`, which
                // is also entered directly by the planning loop.
                self.ensure_fu(j)?;
                let (rw, _, _) = self.fu_result[j].as_ref().expect("planned");
                rw.map(|w| (w.shifted(self.fus[j].lat), self.n_reads + j))
            }
        };
        self.memo.insert(code, r);
        Ok(r)
    }

    fn operand(
        &mut self,
        sel: FuInputSel,
        driver: Option<u16>,
        cv: f64,
    ) -> Result<(Option<Win>, ArgMeta), Unsupported> {
        Ok(match sel {
            FuInputSel::Switch | FuInputSel::Queue(_) => {
                let shift = match sel {
                    FuInputSel::Queue(d) => d as u64,
                    _ => 0,
                };
                match driver.map(|d| self.resolve(d)).transpose()?.flatten() {
                    None => (None, ArgMeta::Dead),
                    Some((w, slot)) => {
                        let w = w.shifted(shift);
                        (Some(w), ArgMeta::Stream { slot, win_start: w.start })
                    }
                }
            }
            FuInputSel::Constant(_) => (Some(Win { start: 0, end: None }), ArgMeta::Lit(cv)),
            FuInputSel::Feedback(_) => (Some(Win { start: 0, end: None }), ArgMeta::Acc),
        })
    }

    fn ensure_fu(&mut self, j: usize) -> Result<(), Unsupported> {
        if self.fu_result[j].is_some() {
            return Ok(());
        }
        let code = self.fus[j].src_code;
        if self.resolving.contains(&code) {
            return Err(Unsupported);
        }
        self.resolving.push(code);
        let spec = &self.fus[j];
        let (op, cv, in_a, in_b, ad, bd) =
            (spec.op, spec.const_val, spec.in_a, spec.in_b, spec.a_driver, spec.b_driver);
        let (wa, ma) = self.operand(in_a, ad, cv)?;
        let (wb, mb) = self.operand(in_b, bd, cv)?;
        let rw = if op.arity() == 2 {
            match (wa, wb) {
                (Some(a), Some(b)) => intersect(a, b),
                _ => None,
            }
        } else {
            wa
        };
        self.resolving.pop();
        self.fu_result[j] = Some((rw, ma, mb));
        self.stage_order.push(j);
        Ok(())
    }
}

/// Analyze one instruction; `None` means "leave it to the interpreter".
fn plan_instruction(kb: &KnowledgeBase, ins: &MicroInstruction) -> Option<InstrPlan> {
    let n_sources = kb.sources().len();
    let latency = kb.config().latency;
    let transit = latency.sdu_transit as u64;
    let driver_code = |sink: SinkRef| -> Option<u16> {
        ins.switch.driver(kb, sink).and_then(|s| kb.source_code(s))
    };

    // --- enabled components, mirroring the interpreter's construction ---
    let mut fus: Vec<FuSpec> = Vec::new();
    for (i, f) in ins.fus.iter().enumerate() {
        if !f.enabled {
            continue;
        }
        let fu = nsc_arch::FuId(i as u8);
        // A missing source code is a BadProgram in the interpreter: fall
        // back so the error surfaces identically.
        let src_code = kb.source_code(SourceRef::Fu(fu))?;
        fus.push(FuSpec {
            src_code,
            op: f.op,
            lat: (latency.latency(f.op) as u64).max(1),
            in_a: f.in_a,
            in_b: f.in_b,
            a_driver: driver_code(SinkRef::FuIn(fu, nsc_arch::InPort::A)),
            b_driver: driver_code(SinkRef::FuIn(fu, nsc_arch::InPort::B)),
            const_val: f.preload.unwrap_or(0.0),
        });
    }

    // (driver, ring_len, taps as (code, eff))
    let mut sdu_drivers: Vec<Option<u16>> = Vec::new();
    let mut sdu_rings: Vec<u64> = Vec::new();
    let mut taps: Vec<(u16, usize, u64)> = Vec::new(); // (code, sdu index, eff)
    for (i, s) in ins.sdus.iter().enumerate() {
        if !s.enabled {
            continue;
        }
        let sid = nsc_arch::SduId(i as u8);
        let idx = sdu_drivers.len();
        let mut max_eff = transit;
        for (t, tap) in s.taps.iter().enumerate() {
            if !tap.enabled {
                continue;
            }
            if let Some(code) = kb.source_code(SourceRef::SduTap(sid, t as u8)) {
                let eff = tap.delay as u64 + transit;
                max_eff = max_eff.max(eff);
                taps.push((code, idx, eff));
            }
        }
        sdu_drivers.push(driver_code(SinkRef::SduIn(sid)));
        sdu_rings.push(max_eff + 1);
    }

    let mut reads: Vec<(u16, Store, i64, i64, u64)> = Vec::new();
    for (i, d) in ins.plane_rd.iter().enumerate() {
        if d.enabled {
            let code = kb.source_code(SourceRef::PlaneRead(nsc_arch::PlaneId(i as u8)))?;
            reads.push((code, Store::Plane(i), d.base as i64, d.stride as i64, d.count as u64));
        }
    }
    for (i, d) in ins.cache_rd.iter().enumerate() {
        if d.enabled {
            let code = kb.source_code(SourceRef::CacheRead(nsc_arch::CacheId(i as u8)))?;
            reads.push((
                code,
                Store::Cache(i, d.buffer),
                d.offset as i64,
                d.stride as i64,
                d.count as u64,
            ));
        }
    }

    let mut writes: Vec<WriteSpec> = Vec::new();
    for (i, d) in ins.plane_wr.iter().enumerate() {
        if d.enabled {
            writes.push(WriteSpec {
                driver: driver_code(SinkRef::PlaneWrite(nsc_arch::PlaneId(i as u8))),
                store: Store::Plane(i),
                base: d.base as i64,
                stride: d.stride as i64,
                count: d.count as u64,
                skip: d.skip as u64,
                mode: d.mode,
            });
        }
    }
    for (i, d) in ins.cache_wr.iter().enumerate() {
        if d.enabled {
            writes.push(WriteSpec {
                driver: driver_code(SinkRef::CacheWrite(nsc_arch::CacheId(i as u8))),
                store: Store::Cache(i, d.buffer),
                base: d.offset as i64,
                stride: d.stride as i64,
                count: d.count as u64,
                skip: d.skip as u64,
                mode: d.mode,
            });
        }
    }

    if writes.is_empty() && reads.is_empty() && fus.is_empty() {
        return Some(InstrPlan { n_sources, body: PlanBody::Idle });
    }

    // --- memory hazards the flat plan cannot reproduce ---
    // The interpreter interleaves reads and stream writes cycle by cycle;
    // the plan reads everything first and writes afterwards. That is only
    // equivalent when the address ranges are disjoint. (`LastOnly`
    // captures finalize after the loop in both models, so they need no
    // check against reads or stream writes.)
    let range = |base: i64, stride: i64, count: u64| -> (i64, i64) {
        let last = base + (count as i64 - 1) * stride;
        (base.min(last), base.max(last))
    };
    let stream_writes: Vec<(Store, i64, i64)> = writes
        .iter()
        .filter(|w| w.mode == WriteMode::Stream && w.count > 0)
        .map(|w| {
            let (lo, hi) = range(w.base, w.stride, w.count);
            (w.store, lo, hi)
        })
        .collect();
    for (wi, &(ws, wlo, whi)) in stream_writes.iter().enumerate() {
        for &(rs, rbase, rstride, rcount) in
            reads.iter().map(|r| (r.1, r.2, r.3, r.4)).collect::<Vec<_>>().iter()
        {
            if rcount == 0 || rs != ws {
                continue;
            }
            let (rlo, rhi) = range(rbase, rstride, rcount);
            if rlo <= whi && wlo <= rhi {
                return None;
            }
        }
        for &(os, olo, ohi) in stream_writes.iter().skip(wi + 1) {
            if os == ws && olo <= whi && wlo <= ohi {
                return None;
            }
        }
    }

    // --- resolve every source window ---
    let mut kinds: HashMap<u16, Kind> = HashMap::new();
    for (i, r) in reads.iter().enumerate() {
        kinds.insert(r.0, Kind::Read(i));
    }
    for &(code, sdu, eff) in &taps {
        kinds.insert(code, Kind::Tap { sdu, eff });
    }
    for (j, f) in fus.iter().enumerate() {
        kinds.insert(f.src_code, Kind::Fu(j));
    }

    let n_reads = reads.len();
    let mut planner = Planner {
        kinds,
        read_counts: reads.iter().map(|r| r.4).collect(),
        sdu_drivers,
        fus: &fus,
        fu_result: vec![None; fus.len()],
        stage_order: Vec::new(),
        memo: HashMap::new(),
        resolving: Vec::new(),
        n_reads,
    };
    for j in 0..fus.len() {
        planner.ensure_fu(j).ok()?;
    }

    // --- the completion cycle ---
    let max_count = reads.iter().map(|r| r.4).max().unwrap_or(0);
    let drain_bound: u64 =
        sdu_rings.iter().sum::<u64>() + fus.iter().map(|f| f.lat + 70).sum::<u64>() + 16;
    let hard_cap = max_count + drain_bound + 1024;

    let mut term = max_count.saturating_sub(1);
    let mut lastonly_present = false;
    let mut lastonly_drain: u64 = 0; // cycle all captures have drained (MAX = never)
    let mut write_windows: Vec<Resolved> = Vec::with_capacity(writes.len());
    for w in &writes {
        let dw = match w.driver {
            Some(d) => planner.resolve(d).ok()?,
            None => None,
        };
        write_windows.push(dw);
        match w.mode {
            WriteMode::Stream => {
                if w.count == 0 {
                    continue;
                }
                let win = dw.map(|(win, _)| win)?; // no driver data: would hang
                if let Some(end) = win.end {
                    if end - win.start < w.skip + w.count {
                        return None; // under-supplied: would hang
                    }
                }
                term = term.max(win.start + w.skip + w.count - 1);
            }
            WriteMode::LastOnly => {
                lastonly_present = true;
                let drain = match dw {
                    Some((Win { end: Some(e), .. }, _)) => e,
                    _ => u64::MAX, // never-dropping data line: conservative bound
                };
                lastonly_drain = lastonly_drain.max(drain);
            }
        }
    }
    if lastonly_present {
        let t_drain = drain_bound + max_count.saturating_sub(1);
        term = term.max(lastonly_drain.min(t_drain));
    }
    if term >= hard_cap {
        return None; // the interpreter would hang at its hard cap
    }
    let executed = term + 1;

    // --- lower to the flat plan ---
    let read_plans: Vec<ReadPlan> = reads
        .iter()
        .enumerate()
        .map(|(i, r)| ReadPlan { slot: i, store: r.1, base: r.2, stride: r.3, count: r.4 as usize })
        .collect();

    let mut stages: Vec<StagePlan> = Vec::new();
    let mut flops: u64 = 0;
    for &j in &planner.stage_order {
        let (rw, ma, mb) = planner.fu_result[j].clone().expect("planned");
        let Some(rw) = rw else { continue };
        let n = rw.clipped_len(executed);
        if n == 0 {
            continue;
        }
        let spec = &fus[j];
        if spec.op.is_flop() {
            flops += n;
        }
        let lower = |m: &ArgMeta| -> Arg {
            match m {
                ArgMeta::Stream { slot, win_start } => {
                    Arg::Stream { slot: *slot, offset: (rw.start - win_start) as usize }
                }
                ArgMeta::Lit(v) => Arg::Lit(*v),
                ArgMeta::Acc => Arg::Acc,
                ArgMeta::Dead => Arg::Lit(0.0), // only reachable for unary ops
            }
        };
        let a = lower(&ma);
        let b = if spec.op.arity() == 2 { lower(&mb) } else { Arg::Lit(0.0) };
        let uses_acc = matches!(a, Arg::Acc) || (spec.op.arity() == 2 && matches!(b, Arg::Acc));
        stages.push(StagePlan {
            out_slot: n_reads + j,
            op: spec.op,
            const_val: spec.const_val,
            preload: spec.const_val,
            n: n as usize,
            a,
            b,
            uses_acc,
        });
    }

    let mut write_plans: Vec<WritePlan> = Vec::new();
    let mut elements_stored: u64 = 0;
    for (w, dw) in writes.iter().zip(&write_windows) {
        match w.mode {
            WriteMode::Stream => {
                if w.count == 0 {
                    continue;
                }
                let (_, slot) = dw.expect("checked above");
                write_plans.push(WritePlan::Stream {
                    store: w.store,
                    base: w.base,
                    stride: w.stride,
                    slot,
                    skip: w.skip as usize,
                    count: w.count as usize,
                });
                elements_stored += w.count;
            }
            WriteMode::LastOnly => {
                let Some((win, slot)) = *dw else { continue };
                let n = win.clipped_len(executed);
                if n == 0 {
                    continue;
                }
                write_plans.push(WritePlan::Last {
                    store: w.store,
                    base: w.base,
                    slot,
                    idx: n as usize - 1,
                });
                elements_stored += 1;
            }
        }
    }

    // --- the debugger trace: last valid value per source ---
    let mut trace: Vec<TracePlan> = Vec::new();
    {
        let codes: Vec<u16> = reads
            .iter()
            .map(|r| r.0)
            .chain(taps.iter().map(|t| t.0))
            .chain(fus.iter().map(|f| f.src_code))
            .collect();
        for code in codes {
            if let Some((win, slot)) = planner.resolve(code).ok()? {
                let n = win.clipped_len(executed);
                if n > 0 {
                    trace.push(TracePlan { code, slot, idx: n as usize - 1 });
                }
            }
        }
    }

    Some(InstrPlan {
        n_sources,
        body: PlanBody::Pipeline(Box::new(PipelinePlan {
            slots: n_reads + fus.len(),
            reads: read_plans,
            stages,
            writes: write_plans,
            trace,
            executed_cycles: executed,
            flops,
            elements_streamed: reads.iter().map(|r| r.4).sum(),
            elements_stored,
        })),
    })
}

// ---------------------------------------------------------------------
// execution
// ---------------------------------------------------------------------

impl Store {
    fn read_into(self, mem: &NodeMemory, base: i64, stride: i64, count: usize, out: &mut Vec<f64>) {
        match self {
            Store::Plane(p) => mem.planes[p].read_strided_into(base, stride, count, out),
            Store::Cache(c, buf) => {
                let cache = &mem.caches[c];
                out.extend((0..count).map(|k| cache.read(buf, (base + k as i64 * stride) as u64)));
            }
        }
    }

    fn write_from(self, mem: &mut NodeMemory, base: i64, stride: i64, vals: &[f64]) {
        match self {
            Store::Plane(p) => mem.planes[p].write_strided(base, stride, vals),
            Store::Cache(c, buf) => {
                let cache = &mut mem.caches[c];
                for (k, &v) in vals.iter().enumerate() {
                    cache.write(buf, (base + k as i64 * stride) as u64, v);
                }
            }
        }
    }

    fn write_one(self, mem: &mut NodeMemory, addr: i64, v: f64) {
        match self {
            Store::Plane(p) => mem.planes[p].write(addr as u64, v),
            Store::Cache(c, buf) => mem.caches[c].write(buf, addr as u64, v),
        }
    }
}

/// The element buffers a node lends its kernel runs: one per plan slot,
/// kept across instructions and runs. They hold no simulated state — each
/// instruction empties the slots it uses before reading any — so a clone
/// starts empty instead of copying them.
#[derive(Debug, Default)]
pub(crate) struct StreamBuffers(Vec<Vec<f64>>);

impl Clone for StreamBuffers {
    fn clone(&self) -> Self {
        StreamBuffers::default()
    }
}

impl StreamBuffers {
    /// The first `slots` buffers, emptied (capacity kept).
    fn cleared(&mut self, slots: usize) -> &mut [Vec<f64>] {
        if self.0.len() < slots {
            self.0.resize_with(slots, Vec::new);
        }
        let streams = &mut self.0[..slots];
        streams.iter_mut().for_each(Vec::clear);
        streams
    }
}

/// One vectorizable element loop: the operation dispatch is hoisted out of
/// the loop, the buffer is filled by one exact-size `extend`, and the hot
/// arithmetic is expressed exactly as [`FuOp::apply`] does it so results
/// stay bit-identical.
#[inline]
fn run_loop(
    op: FuOp,
    cv: f64,
    n: usize,
    a: impl Fn(usize) -> f64,
    b: impl Fn(usize) -> f64,
    out: &mut Vec<f64>,
) {
    macro_rules! go {
        ($f:expr) => {{
            let f = $f;
            out.extend((0..n).map(|k| f(a(k), b(k))));
        }};
    }
    match op {
        FuOp::Add => go!(|x: f64, y: f64| x + y),
        FuOp::Sub => go!(|x: f64, y: f64| x - y),
        FuOp::Mul => go!(|x: f64, y: f64| x * y),
        FuOp::Div => go!(|x: f64, y: f64| x / y),
        FuOp::Neg => go!(|x: f64, _y: f64| -x),
        FuOp::Abs => go!(|x: f64, _y: f64| x.abs()),
        FuOp::Sqrt => go!(|x: f64, _y: f64| x.sqrt()),
        FuOp::Recip => go!(|x: f64, _y: f64| 1.0 / x),
        FuOp::Copy => go!(|x: f64, _y: f64| x),
        FuOp::MulAddConst => go!(|x: f64, y: f64| x * y + cv),
        FuOp::Max => go!(|x: f64, y: f64| x.max(y)),
        FuOp::Min => go!(|x: f64, y: f64| x.min(y)),
        FuOp::MaxAbs => go!(|x: f64, y: f64| x.abs().max(y)),
        other => go!(|x: f64, y: f64| other.apply(x, y, cv)),
    }
}

fn eval_stage(stage: &StagePlan, streams: &mut [Vec<f64>], exceptions: &mut u64) {
    let mut out = std::mem::take(&mut streams[stage.out_slot]);
    out.clear();
    out.reserve(stage.n);
    if stage.uses_acc {
        // Feedback reductions are inherently sequential: fold with the
        // accumulator, updating it on every result like the interpreter.
        let fetch = |arg: &Arg, k: usize, acc: f64, streams: &[Vec<f64>]| -> f64 {
            match arg {
                Arg::Stream { slot, offset } => streams[*slot][k + offset],
                Arg::Lit(v) => *v,
                Arg::Acc => acc,
            }
        };
        let mut acc = stage.preload;
        for k in 0..stage.n {
            let x = fetch(&stage.a, k, acc, streams);
            let y = fetch(&stage.b, k, acc, streams);
            let r = stage.op.apply(x, y, stage.const_val);
            if !r.is_finite() {
                *exceptions += 1;
            }
            acc = r;
            out.push(r);
        }
    } else {
        enum Side<'s> {
            S(&'s [f64]),
            C(f64),
        }
        let side = |arg: &Arg| -> Side<'_> {
            match arg {
                Arg::Stream { slot, offset } => {
                    Side::S(&streams[*slot][*offset..*offset + stage.n])
                }
                Arg::Lit(v) => Side::C(*v),
                Arg::Acc => unreachable!("acc handled above"),
            }
        };
        let (op, cv, n) = (stage.op, stage.const_val, stage.n);
        match (side(&stage.a), side(&stage.b)) {
            (Side::S(a), Side::S(b)) => run_loop(op, cv, n, |k| a[k], |k| b[k], &mut out),
            (Side::S(a), Side::C(b)) => run_loop(op, cv, n, |k| a[k], |_| b, &mut out),
            (Side::C(a), Side::S(b)) => run_loop(op, cv, n, |_| a, |k| b[k], &mut out),
            (Side::C(a), Side::C(b)) => run_loop(op, cv, n, |_| a, |_| b, &mut out),
        }
        *exceptions += out.iter().filter(|r| !r.is_finite()).count() as u64;
    }
    streams[stage.out_slot] = out;
}

/// Execute a specialized instruction: bit-identical memory effects,
/// counters and (when requested) trace to `execute_instruction`. The
/// element streams run through `buffers`, the executing node's own.
pub(crate) fn run_plan(
    plan: &InstrPlan,
    mem: &mut NodeMemory,
    counters: &mut PerfCounters,
    buffers: &mut StreamBuffers,
    want_trace: bool,
) -> SourceTrace {
    counters.cycles += SETUP_CYCLES;
    counters.instructions += 1;
    counters.completion_interrupts += 1;
    let p = match &plan.body {
        PlanBody::Idle => {
            return SourceTrace {
                last: if want_trace { vec![None; plan.n_sources] } else { Vec::new() },
            }
        }
        PlanBody::Pipeline(p) => p,
    };

    let streams = buffers.cleared(p.slots);
    for r in &p.reads {
        r.store.read_into(mem, r.base, r.stride, r.count, &mut streams[r.slot]);
    }

    let mut exceptions: u64 = 0;
    for stage in &p.stages {
        eval_stage(stage, streams, &mut exceptions);
    }

    for w in &p.writes {
        if let WritePlan::Stream { store, base, stride, slot, skip, count } = *w {
            store.write_from(mem, base, stride, &streams[slot][skip..skip + count]);
        }
    }
    for w in &p.writes {
        if let WritePlan::Last { store, base, slot, idx } = *w {
            store.write_one(mem, base, streams[slot][idx]);
        }
    }

    counters.cycles += p.executed_cycles;
    counters.flops += p.flops;
    counters.elements_streamed += p.elements_streamed;
    counters.elements_stored += p.elements_stored;
    counters.exceptions += exceptions;

    let last = if want_trace {
        let mut last = vec![None; plan.n_sources];
        for t in &p.trace {
            last[t.code as usize] = Some(streams[t.slot][t.idx]);
        }
        last
    } else {
        Vec::new()
    };
    SourceTrace { last }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::execute_instruction;
    use nsc_arch::{CacheId, FuId, InPort, MachineConfig, PlaneId, SduId};
    use nsc_microcode::{CacheDmaField, FuField, PlaneDmaField, SduField};

    fn kb() -> KnowledgeBase {
        KnowledgeBase::nsc_1988()
    }

    /// Run `ins` through both paths on identical memory; assert the plan
    /// exists and that counters, traces and the probed ranges agree to the
    /// bit.
    fn assert_identical(
        kb: &KnowledgeBase,
        ins: &MicroInstruction,
        init: impl Fn(&mut NodeMemory),
        probes: &[(Store, i64, usize)],
    ) {
        let mut mem_i = NodeMemory::new(kb.config());
        let mut mem_k = NodeMemory::new(kb.config());
        init(&mut mem_i);
        init(&mut mem_k);
        let mut c_i = PerfCounters::default();
        let mut c_k = PerfCounters::default();

        let trace_i = execute_instruction(kb, ins, &mut mem_i, &mut c_i).expect("interpreter runs");
        let plan = plan_instruction(kb, ins).expect("instruction specializes");
        let trace_k = run_plan(&plan, &mut mem_k, &mut c_k, &mut StreamBuffers::default(), true);

        assert_eq!(c_i, c_k, "counters must match exactly");
        let bits = |t: &SourceTrace| -> Vec<Option<u64>> {
            t.last.iter().map(|v| v.map(f64::to_bits)).collect()
        };
        assert_eq!(bits(&trace_i), bits(&trace_k), "traces must match");
        for &(store, base, len) in probes {
            for k in 0..len {
                let addr = base + k as i64;
                let (vi, vk) = match store {
                    Store::Plane(p) => {
                        (mem_i.planes[p].read(addr as u64), mem_k.planes[p].read(addr as u64))
                    }
                    Store::Cache(c, b) => {
                        (mem_i.caches[c].read(b, addr as u64), mem_k.caches[c].read(b, addr as u64))
                    }
                };
                assert_eq!(vi.to_bits(), vk.to_bits(), "{store:?} @ {addr}");
            }
        }
    }

    fn copy_instr(kb: &KnowledgeBase, count: u32) -> MicroInstruction {
        let mut ins = MicroInstruction::empty(kb);
        *ins.fu_mut(FuId(0)) = FuField::active(FuOp::Copy);
        *ins.plane_rd_mut(PlaneId(0)) = PlaneDmaField::contiguous(0, count);
        *ins.plane_wr_mut(PlaneId(1)) = PlaneDmaField::contiguous(500, count);
        ins.switch.route(kb, SourceRef::PlaneRead(PlaneId(0)), SinkRef::FuIn(FuId(0), InPort::A));
        ins.switch.route(kb, SourceRef::Fu(FuId(0)), SinkRef::PlaneWrite(PlaneId(1)));
        ins
    }

    #[test]
    fn copy_pipeline_is_identical() {
        let kb = kb();
        let ins = copy_instr(&kb, 100);
        assert_identical(
            &kb,
            &ins,
            |m| m.planes[0].write_slice(0, &(0..100).map(|i| i as f64).collect::<Vec<_>>()),
            &[(Store::Plane(1), 500, 100)],
        );
    }

    #[test]
    fn two_stream_add_is_identical() {
        let kb = kb();
        let mut ins = MicroInstruction::empty(&kb);
        *ins.fu_mut(FuId(0)) = FuField::active(FuOp::Add);
        *ins.plane_rd_mut(PlaneId(0)) = PlaneDmaField::contiguous(0, 50);
        *ins.cache_rd_mut(CacheId(0)) = CacheDmaField {
            enabled: true,
            offset: 0,
            stride: 1,
            count: 50,
            skip: 0,
            buffer: 0,
            mode: WriteMode::Stream,
        };
        *ins.plane_wr_mut(PlaneId(1)) = PlaneDmaField::contiguous(0, 50);
        ins.switch.route(&kb, SourceRef::PlaneRead(PlaneId(0)), SinkRef::FuIn(FuId(0), InPort::A));
        ins.switch.route(&kb, SourceRef::CacheRead(CacheId(0)), SinkRef::FuIn(FuId(0), InPort::B));
        ins.switch.route(&kb, SourceRef::Fu(FuId(0)), SinkRef::PlaneWrite(PlaneId(1)));
        assert_identical(
            &kb,
            &ins,
            |m| {
                m.planes[0].write_slice(0, &(0..50).map(|i| i as f64).collect::<Vec<_>>());
                for i in 0..50 {
                    m.caches[0].write(0, i, 2.0 * i as f64);
                }
            },
            &[(Store::Plane(1), 0, 50)],
        );
    }

    #[test]
    fn feedback_reduction_and_scalar_capture_are_identical() {
        let kb = kb();
        let mut ins = MicroInstruction::empty(&kb);
        *ins.fu_mut(FuId(2)) = FuField {
            enabled: true,
            op: FuOp::MaxAbs,
            in_a: FuInputSel::Switch,
            in_b: FuInputSel::Feedback(0),
            const_slot: 0,
            preload: Some(0.0),
        };
        *ins.plane_rd_mut(PlaneId(0)) = PlaneDmaField::contiguous(0, 128);
        *ins.cache_wr_mut(CacheId(0)) = CacheDmaField::scalar_capture(7);
        ins.switch.route(&kb, SourceRef::PlaneRead(PlaneId(0)), SinkRef::FuIn(FuId(2), InPort::A));
        ins.switch.route(&kb, SourceRef::Fu(FuId(2)), SinkRef::CacheWrite(CacheId(0)));
        assert_identical(
            &kb,
            &ins,
            |m| {
                m.planes[0].write_slice(0, &(0..128).map(|i| (i as f64) - 64.0).collect::<Vec<_>>())
            },
            &[(Store::Cache(0, 0), 7, 1)],
        );
    }

    #[test]
    fn sdu_taps_and_write_skip_are_identical() {
        let kb = kb();
        let mut ins = MicroInstruction::empty(&kb);
        *ins.fu_mut(FuId(0)) = FuField::active(FuOp::Sub);
        *ins.plane_rd_mut(PlaneId(0)) = PlaneDmaField::contiguous(0, 10);
        *ins.sdu_mut(SduId(0)) = SduField::with_delays(&[0, 3]);
        *ins.plane_wr_mut(PlaneId(1)) = PlaneDmaField::contiguous(0, 7);
        ins.switch.route(&kb, SourceRef::PlaneRead(PlaneId(0)), SinkRef::SduIn(SduId(0)));
        ins.switch.route(&kb, SourceRef::SduTap(SduId(0), 0), SinkRef::FuIn(FuId(0), InPort::A));
        ins.switch.route(&kb, SourceRef::SduTap(SduId(0), 1), SinkRef::FuIn(FuId(0), InPort::B));
        ins.switch.route(&kb, SourceRef::Fu(FuId(0)), SinkRef::PlaneWrite(PlaneId(1)));
        assert_identical(
            &kb,
            &ins,
            |m| m.planes[0].write_slice(0, &(0..10).map(|i| (i * i) as f64).collect::<Vec<_>>()),
            &[(Store::Plane(1), 0, 7)],
        );
    }

    #[test]
    fn fu_chain_with_queue_delay_is_identical() {
        let kb = kb();
        let mut ins = MicroInstruction::empty(&kb);
        *ins.fu_mut(FuId(0)) = FuField::active(FuOp::Abs);
        *ins.fu_mut(FuId(3)) = FuField {
            enabled: true,
            op: FuOp::Add,
            in_a: FuInputSel::Switch,
            in_b: FuInputSel::Queue(3),
            const_slot: 0,
            preload: None,
        };
        *ins.plane_rd_mut(PlaneId(0)) = PlaneDmaField::contiguous(0, 5);
        *ins.plane_wr_mut(PlaneId(1)) = PlaneDmaField::contiguous(0, 5);
        ins.switch.route(&kb, SourceRef::PlaneRead(PlaneId(0)), SinkRef::FuIn(FuId(0), InPort::A));
        ins.switch.route(&kb, SourceRef::Fu(FuId(0)), SinkRef::FuIn(FuId(3), InPort::A));
        ins.switch.route(&kb, SourceRef::PlaneRead(PlaneId(0)), SinkRef::FuIn(FuId(3), InPort::B));
        ins.switch.route(&kb, SourceRef::Fu(FuId(3)), SinkRef::PlaneWrite(PlaneId(1)));
        assert_identical(
            &kb,
            &ins,
            |m| m.planes[0].write_slice(0, &[-1.0, 2.0, -3.0, 4.0, -5.0]),
            &[(Store::Plane(1), 0, 5)],
        );
    }

    #[test]
    fn exceptions_are_identical() {
        let kb = kb();
        let mut ins = MicroInstruction::empty(&kb);
        *ins.fu_mut(FuId(0)) = FuField::active(FuOp::Recip);
        *ins.plane_rd_mut(PlaneId(0)) = PlaneDmaField::contiguous(0, 3);
        *ins.plane_wr_mut(PlaneId(1)) = PlaneDmaField::contiguous(0, 3);
        ins.switch.route(&kb, SourceRef::PlaneRead(PlaneId(0)), SinkRef::FuIn(FuId(0), InPort::A));
        ins.switch.route(&kb, SourceRef::Fu(FuId(0)), SinkRef::PlaneWrite(PlaneId(1)));
        assert_identical(
            &kb,
            &ins,
            |m| m.planes[0].write_slice(0, &[1.0, 0.0, 4.0]),
            &[(Store::Plane(1), 0, 3)],
        );
    }

    #[test]
    fn constant_fed_capture_uses_the_drain_bound_identically() {
        // A LastOnly capture fed by a constant-operand FU never drops its
        // data-valid line; both paths must charge the conservative drain.
        let kb = kb();
        let mut ins = MicroInstruction::empty(&kb);
        *ins.fu_mut(FuId(0)) = FuField {
            enabled: true,
            op: FuOp::Copy,
            in_a: FuInputSel::Constant(0),
            in_b: FuInputSel::Constant(0),
            const_slot: 0,
            preload: Some(42.0),
        };
        *ins.cache_wr_mut(CacheId(0)) = CacheDmaField::scalar_capture(3);
        ins.switch.route(&kb, SourceRef::Fu(FuId(0)), SinkRef::CacheWrite(CacheId(0)));
        assert_identical(&kb, &ins, |_| {}, &[(Store::Cache(0, 0), 3, 1)]);
    }

    #[test]
    fn backwards_and_strided_streams_are_identical() {
        let kb = kb();
        let mut ins = MicroInstruction::empty(&kb);
        *ins.fu_mut(FuId(0)) = FuField {
            enabled: true,
            op: FuOp::Mul,
            in_a: FuInputSel::Switch,
            in_b: FuInputSel::Constant(0),
            const_slot: 0,
            preload: Some(3.0),
        };
        // Read every second word from 20 downward; write with stride 2.
        *ins.plane_rd_mut(PlaneId(0)) = PlaneDmaField {
            enabled: true,
            base: 20,
            stride: -2,
            count: 8,
            skip: 0,
            mode: WriteMode::Stream,
        };
        *ins.plane_wr_mut(PlaneId(1)) = PlaneDmaField {
            enabled: true,
            base: 100,
            stride: 2,
            count: 8,
            skip: 0,
            mode: WriteMode::Stream,
        };
        ins.switch.route(&kb, SourceRef::PlaneRead(PlaneId(0)), SinkRef::FuIn(FuId(0), InPort::A));
        ins.switch.route(&kb, SourceRef::Fu(FuId(0)), SinkRef::PlaneWrite(PlaneId(1)));
        assert_identical(
            &kb,
            &ins,
            |m| m.planes[0].write_slice(0, &(0..32).map(|i| i as f64 + 0.5).collect::<Vec<_>>()),
            &[(Store::Plane(1), 100, 16)],
        );
    }

    #[test]
    fn idle_instruction_is_identical() {
        let kb = kb();
        let ins = MicroInstruction::empty(&kb);
        assert_identical(&kb, &ins, |_| {}, &[]);
    }

    #[test]
    fn small_machine_configs_also_specialize() {
        let kb = KnowledgeBase::new(MachineConfig::test_small());
        let mut ins = MicroInstruction::empty(&kb);
        *ins.fu_mut(FuId(0)) = FuField::active(FuOp::Neg);
        *ins.plane_rd_mut(PlaneId(0)) = PlaneDmaField::contiguous(0, 8);
        *ins.plane_wr_mut(PlaneId(1)) = PlaneDmaField::contiguous(0, 8);
        ins.switch.route(&kb, SourceRef::PlaneRead(PlaneId(0)), SinkRef::FuIn(FuId(0), InPort::A));
        ins.switch.route(&kb, SourceRef::Fu(FuId(0)), SinkRef::PlaneWrite(PlaneId(1)));
        assert_identical(
            &kb,
            &ins,
            |m| m.planes[0].write_slice(0, &[5.0; 8]),
            &[(Store::Plane(1), 0, 8)],
        );
    }

    #[test]
    fn starving_write_falls_back_to_the_interpreter() {
        let kb = kb();
        let mut ins = MicroInstruction::empty(&kb);
        *ins.plane_rd_mut(PlaneId(0)) = PlaneDmaField::contiguous(0, 4);
        *ins.plane_wr_mut(PlaneId(1)) = PlaneDmaField::contiguous(0, 4);
        // No routes: the interpreter hangs, so the planner must refuse.
        assert!(plan_instruction(&kb, &ins).is_none());
    }

    #[test]
    fn overlapping_read_and_write_ranges_fall_back() {
        let kb = kb();
        let mut ins = copy_instr(&kb, 16);
        // Write on top of the read range in the same plane.
        *ins.plane_wr_mut(PlaneId(1)) = PlaneDmaField::idle();
        *ins.plane_wr_mut(PlaneId(0)) = PlaneDmaField::contiguous(8, 16);
        ins.switch.route(&kb, SourceRef::Fu(FuId(0)), SinkRef::PlaneWrite(PlaneId(0)));
        assert!(plan_instruction(&kb, &ins).is_none());
    }

    #[test]
    fn specialization_covers_disjoint_in_place_updates() {
        let kb = kb();
        let mut ins = copy_instr(&kb, 16);
        // Same plane, disjoint ranges: stays specialized.
        *ins.plane_wr_mut(PlaneId(1)) = PlaneDmaField::idle();
        *ins.plane_wr_mut(PlaneId(0)) = PlaneDmaField::contiguous(100, 16);
        ins.switch.route(&kb, SourceRef::Fu(FuId(0)), SinkRef::PlaneWrite(PlaneId(0)));
        assert_identical(
            &kb,
            &ins,
            |m| m.planes[0].write_slice(0, &(0..16).map(|i| i as f64).collect::<Vec<_>>()),
            &[(Store::Plane(0), 100, 16)],
        );
    }

    /// A five-slot, 300-element pipeline: `p1[1000..] = (p0 + c0) * 0.5`,
    /// with the running `max |.|` of that product captured at `c1[5]`.
    fn long_window_program(kb: &KnowledgeBase) -> MicroProgram {
        let mut ins = MicroInstruction::empty(kb);
        *ins.plane_rd_mut(PlaneId(0)) = PlaneDmaField::contiguous(0, 300);
        *ins.cache_rd_mut(CacheId(0)) = CacheDmaField {
            enabled: true,
            offset: 0,
            stride: 1,
            count: 300,
            skip: 0,
            buffer: 0,
            mode: WriteMode::Stream,
        };
        *ins.fu_mut(FuId(0)) = FuField::active(FuOp::Add);
        *ins.fu_mut(FuId(1)) = FuField {
            enabled: true,
            op: FuOp::Mul,
            in_a: FuInputSel::Switch,
            in_b: FuInputSel::Constant(0),
            const_slot: 0,
            preload: Some(0.5),
        };
        *ins.fu_mut(FuId(2)) = FuField {
            enabled: true,
            op: FuOp::MaxAbs,
            in_a: FuInputSel::Switch,
            in_b: FuInputSel::Feedback(0),
            const_slot: 0,
            preload: Some(0.0),
        };
        *ins.plane_wr_mut(PlaneId(1)) = PlaneDmaField::contiguous(1000, 300);
        *ins.cache_wr_mut(CacheId(1)) = CacheDmaField::scalar_capture(5);
        ins.switch.route(kb, SourceRef::PlaneRead(PlaneId(0)), SinkRef::FuIn(FuId(0), InPort::A));
        ins.switch.route(kb, SourceRef::CacheRead(CacheId(0)), SinkRef::FuIn(FuId(0), InPort::B));
        ins.switch.route(kb, SourceRef::Fu(FuId(0)), SinkRef::FuIn(FuId(1), InPort::A));
        ins.switch.route(kb, SourceRef::Fu(FuId(1)), SinkRef::FuIn(FuId(2), InPort::A));
        ins.switch.route(kb, SourceRef::Fu(FuId(1)), SinkRef::PlaneWrite(PlaneId(1)));
        ins.switch.route(kb, SourceRef::Fu(FuId(2)), SinkRef::CacheWrite(CacheId(1)));
        let mut b = nsc_microcode::ProgramBuilder::new(kb, "long");
        b.push(ins);
        b.finish()
    }

    /// A two-slot, 7-element pipeline that rewrites the long program's
    /// input: `p0[0..7] = -p1[1000..1007]`.
    fn short_window_program(kb: &KnowledgeBase) -> MicroProgram {
        let mut ins = MicroInstruction::empty(kb);
        *ins.fu_mut(FuId(0)) = FuField::active(FuOp::Neg);
        *ins.plane_rd_mut(PlaneId(1)) = PlaneDmaField::contiguous(1000, 7);
        *ins.plane_wr_mut(PlaneId(0)) = PlaneDmaField::contiguous(0, 7);
        ins.switch.route(kb, SourceRef::PlaneRead(PlaneId(1)), SinkRef::FuIn(FuId(0), InPort::A));
        ins.switch.route(kb, SourceRef::Fu(FuId(0)), SinkRef::PlaneWrite(PlaneId(0)));
        let mut b = nsc_microcode::ProgramBuilder::new(kb, "short");
        b.push(ins);
        b.finish()
    }

    #[test]
    fn node_buffers_carry_nothing_between_programs() {
        // One node runs a long window, then a shorter program with fewer
        // slots, then the long window again over the input the short one
        // rewrote. Each run must match a clone that starts with fresh
        // buffers and the interpreter, to the bit.
        use crate::node::{NodeSim, RunOptions};
        let kb = kb();
        let mut reused = NodeSim::new(kb.clone());
        reused.mem.planes[0]
            .write_slice(0, &(0..300).map(|i| i as f64 - 150.0).collect::<Vec<_>>());
        for i in 0..300 {
            reused.mem.caches[0].write(0, i, 0.25 * i as f64);
        }
        let mut interp = reused.clone();
        let snapshot = |node: &NodeSim| -> Vec<u64> {
            let planes = (0..3).flat_map(|p| node.mem.planes[p].read_vec(0, 1400));
            let caches =
                (0..2).flat_map(|c| (0..2).flat_map(move |b| (0..400).map(move |o| (c, b, o))));
            planes
                .chain(caches.map(|(c, b, o)| node.mem.caches[c].read(b, o)))
                .map(f64::to_bits)
                .collect()
        };
        let traces = |stats: &crate::node::RunStats| -> Vec<Vec<Option<u64>>> {
            stats
                .traces
                .iter()
                .map(|(_, t)| t.last.iter().map(|v| v.map(f64::to_bits)).collect())
                .collect()
        };
        let opts = RunOptions { trace: true, ..Default::default() };
        let (long, short) = (long_window_program(&kb), short_window_program(&kb));
        let mut long_outputs = Vec::new();
        for prog in [&long, &short, &long] {
            let kernel = CompiledKernel::compile(&kb, prog);
            assert_eq!(kernel.specialized(), kernel.instructions(), "{} specializes", prog.name);
            let mut fresh = reused.clone();
            let want = interp.run_program(prog, &opts).expect("interprets");
            for node in [&mut reused, &mut fresh] {
                let got = node.run_program_with_kernel(prog, Some(&kernel), &opts).expect("runs");
                assert_eq!(node.counters, interp.counters, "{}: counters", prog.name);
                assert_eq!(traces(&got), traces(&want), "{}: traces", prog.name);
                assert_eq!(snapshot(node), snapshot(&interp), "{}: memory", prog.name);
            }
            if prog.name == "long" {
                long_outputs.push(reused.mem.planes[1].read_vec(1000, 300));
            }
        }
        assert_ne!(long_outputs[0], long_outputs[1], "the second long run saw new input");
    }

    #[test]
    fn kernel_compiles_whole_programs() {
        let kb = kb();
        let mut b = nsc_microcode::ProgramBuilder::new(&kb, "two");
        b.push(copy_instr(&kb, 8));
        b.push(MicroInstruction::empty(&kb));
        let prog = b.finish();
        let kernel = CompiledKernel::compile(&kb, &prog);
        assert_eq!(kernel.instructions(), 2);
        assert_eq!(kernel.specialized(), 2);
    }
}
