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
//! element streams ("slots": one per DMA read and one per functional
//! unit) joined by flat loops — strided bulk reads, one vectorizable loop
//! per functional unit, strided bulk writes. Executing the plan produces
//! **bit-identical** memory effects, counters and source traces to the
//! interpreter — including the simulated clock-cycle charge — at a small
//! fraction of the host cost.
//!
//! Like the machine's pipelines, a plan streams: it runs every read,
//! stage and write one *chunk* of elements at a time, so an instruction's
//! intermediate streams stay in the host's cache instead of each filling
//! a whole-window buffer before the next stage reads it. A consumer reads
//! its operand at a fixed offset ahead (a shift/delay tap reaches up to
//! two grid planes ahead; a write may `skip` warm-up elements), so each
//! slot's producer runs a precomputed *lead* ahead of the chunk position,
//! and each slot keeps only the elements some consumer still has to read.
//! The chunk is a fixed live-word budget divided among the plan's slots,
//! so an instruction's live set stays near `slots × chunk` plus the
//! leads, whatever its window length; an instruction shorter than one
//! chunk runs as a single step.
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
use std::ops::Range;

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

/// Storage target of a DMA transfer. A cache's buffer is the low bit of
/// the field, as [`crate::memory::DataCache`] addresses it, so two
/// transfers into one buffer always compare equal.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Store {
    Plane(usize),
    Cache(usize, u8),
}

/// Live words a chunk step aims to keep in the host's cache, all of a
/// plan's slots together (512 KiB of `f64`, comfortably inside a per-core
/// L2). A plan's chunk is this budget divided among its streaming slots.
const CHUNK_LIVE_WORDS: usize = 1 << 16;

/// The smallest chunk, however many slots share the budget: below about
/// this many elements the per-step dispatch of every read, stage and
/// write costs more than the cache saves.
const MIN_CHUNK: usize = 2048;

/// One element stream of a plan: a DMA read's or a functional unit's.
#[derive(Debug, Clone, Copy)]
struct SlotPlan {
    /// Elements the stream holds once the instruction completes.
    len: usize,
    /// How far the producer runs ahead of the chunk position: the deepest
    /// reach of any consumer, where a stage reading the slot at `offset`
    /// reaches `offset` plus its own lead, and a stream write reaches its
    /// `skip`. Zero for a slot nothing reads.
    lead: usize,
    /// The shallowest such reach: once the chunk position is `pos`, no
    /// consumer reads an element before `pos + tail` again. `usize::MAX`
    /// for a slot nothing reads.
    tail: usize,
}

impl SlotPlan {
    /// The chunk step that produces element `idx`, as its position: the
    /// step from `pos` to `next` is the one with `pos <= due < next`.
    fn due(&self, idx: usize) -> usize {
        idx.saturating_sub(self.lead)
    }
}

#[derive(Debug, Clone)]
struct ReadPlan {
    slot: usize,
    store: Store,
    base: i64,
    stride: i64,
}

/// Where a functional-unit operand's element `k` comes from.
#[derive(Debug, Clone)]
enum Arg {
    /// Element `k + offset` of stream `slot`.
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
    /// The unit's register-file constant: `MulAddConst`'s addend and a
    /// feedback accumulator's preload.
    const_val: f64,
    a: Arg,
    b: Arg,
    uses_acc: bool,
}

/// A stream-mode DMA: store elements `skip .. skip + count` of `slot`.
#[derive(Debug, Clone)]
struct WritePlan {
    store: Store,
    base: i64,
    stride: i64,
    slot: usize,
    skip: usize,
    count: usize,
}

/// A `LastOnly` scalar capture: store `streams[slot][idx]` at `base`.
#[derive(Debug, Clone)]
struct LastPlan {
    store: Store,
    base: i64,
    slot: usize,
    idx: usize,
}

#[derive(Debug, Clone)]
struct TracePlan {
    code: u16,
    slot: usize,
    idx: usize,
}

#[derive(Debug, Clone)]
struct PipelinePlan {
    slots: Vec<SlotPlan>,
    reads: Vec<ReadPlan>,
    stages: Vec<StagePlan>,
    writes: Vec<WritePlan>,
    lasts: Vec<LastPlan>,
    trace: Vec<TracePlan>,
    /// Elements each chunk step advances the position by.
    chunk: usize,
    /// The chunk position at which every slot and write is complete.
    span: usize,
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
                Store::Cache(i, d.buffer & 1),
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
                store: Store::Cache(i, d.buffer & 1),
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

    // --- memory hazards the chunked plan cannot reproduce ---
    // The interpreter interleaves reads and stream writes cycle by cycle;
    // the plan interleaves them a chunk at a time, with a producer running
    // its lead ahead of the writes. The two orders only agree because
    // these refusals keep every stream write's range disjoint from each
    // read of the same store and from every other stream write: keep
    // them. (`LastOnly` captures are stored after the last stream write in
    // both models, so they need no check against reads or stream writes.)
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
    let mut slots = vec![SlotPlan { len: 0, lead: 0, tail: usize::MAX }; n_reads + fus.len()];
    let read_plans: Vec<ReadPlan> = reads
        .iter()
        .enumerate()
        .map(|(i, r)| {
            slots[i].len = r.4 as usize;
            ReadPlan { slot: i, store: r.1, base: r.2, stride: r.3 }
        })
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
        slots[n_reads + j].len = n as usize;
        stages.push(StagePlan {
            out_slot: n_reads + j,
            op: spec.op,
            const_val: spec.const_val,
            a,
            b,
            uses_acc,
        });
    }

    let mut write_plans: Vec<WritePlan> = Vec::new();
    let mut lasts: Vec<LastPlan> = Vec::new();
    let mut elements_stored: u64 = 0;
    for (w, dw) in writes.iter().zip(&write_windows) {
        match w.mode {
            WriteMode::Stream => {
                if w.count == 0 {
                    continue;
                }
                let (_, slot) = dw.expect("checked above");
                write_plans.push(WritePlan {
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
                lasts.push(LastPlan { store: w.store, base: w.base, slot, idx: n as usize - 1 });
                elements_stored += 1;
            }
        }
    }

    // --- leads: how far each producer runs ahead of the chunk position ---
    // Consumers come after their producers in stage order, so walking the
    // writes and then the stages backwards settles each stage's own lead
    // before it is passed on to the slots it reads.
    let reach = |slot: &mut SlotPlan, by: usize| {
        slot.lead = slot.lead.max(by);
        slot.tail = slot.tail.min(by);
    };
    for w in &write_plans {
        reach(&mut slots[w.slot], w.skip);
    }
    for st in stages.iter().rev() {
        let lead = slots[st.out_slot].lead;
        for arg in [&st.a, &st.b] {
            if let Arg::Stream { slot, offset } = *arg {
                reach(&mut slots[slot], lead + offset);
            }
        }
    }
    let streaming = slots.iter().filter(|s| s.len > 0).count().max(1);
    let chunk = (CHUNK_LIVE_WORDS / streaming).max(MIN_CHUNK);
    let span = slots
        .iter()
        .map(|s| s.len.saturating_sub(s.lead))
        .chain(write_plans.iter().map(|w| w.count))
        .max()
        .unwrap_or(0);

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
            slots,
            reads: read_plans,
            stages,
            writes: write_plans,
            lasts,
            trace,
            chunk,
            span,
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

/// One slot's stream while an instruction runs: elements `base .. end`,
/// held in `buf`.
#[derive(Debug, Default)]
struct Slot {
    buf: Vec<f64>,
    /// Stream index of `buf[0]`.
    base: usize,
    /// Elements produced so far.
    end: usize,
    /// A feedback stage's accumulator, carried from one chunk to the next.
    acc: f64,
}

impl Slot {
    /// Stream elements `from .. to`.
    fn get(&self, from: usize, to: usize) -> &[f64] {
        &self.buf[from - self.base..to - self.base]
    }

    /// Stream element `idx`.
    fn at(&self, idx: usize) -> f64 {
        self.buf[idx - self.base]
    }

    /// Start the slot's share of the chunk step from `pos` to `next`: the
    /// range of elements the caller must now append. First the slot drops
    /// the elements no consumer reads again, but only once they are at
    /// least as many as the live ones after them: moving the live part
    /// down that rarely costs at most one copy per element, and holds the
    /// buffer below twice the slot's lead plus a chunk.
    fn advance(&mut self, plan: &SlotPlan, pos: usize, next: usize) -> Range<usize> {
        let to = plan.len.min(next + plan.lead);
        if to <= self.end {
            return self.end..self.end;
        }
        let keep = self.end.min(pos.saturating_add(plan.tail));
        let (dead, live) = (keep - self.base, self.end - keep);
        if dead > 0 && dead >= live {
            self.buf.copy_within(dead.., 0);
            self.buf.truncate(live);
            self.base = keep;
        }
        let from = self.end;
        self.end = to;
        from..to
    }
}

/// The element buffers a node lends its kernel runs — one per plan slot —
/// and the `LastOnly` values an instruction captures, kept across
/// instructions and runs. They hold no simulated state: each instruction
/// empties the slots it uses before reading any, so a clone starts empty
/// instead of copying them.
#[derive(Debug, Default)]
pub(crate) struct StreamBuffers {
    slots: Vec<Slot>,
    lasts: Vec<f64>,
}

impl Clone for StreamBuffers {
    fn clone(&self) -> Self {
        StreamBuffers::default()
    }
}

/// The first `p.slots.len()` slots, emptied, each with room for the most
/// it ever holds: its whole stream, or twice its lead plus a chunk (see
/// [`Slot::advance`]). A chunk step therefore never reallocates.
fn prepare<'b>(slots: &'b mut Vec<Slot>, p: &PipelinePlan) -> &'b mut [Slot] {
    if slots.len() < p.slots.len() {
        slots.resize_with(p.slots.len(), Slot::default);
    }
    let slots = &mut slots[..p.slots.len()];
    for (slot, plan) in slots.iter_mut().zip(&p.slots) {
        slot.buf.clear();
        slot.buf.reserve_exact(plan.len.min(2 * plan.lead + p.chunk));
        slot.base = 0;
        slot.end = 0;
    }
    slots
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

/// Stage `st`'s share of the chunk step from `pos` to `next`: the
/// elements its slot gains, computed from operand slots that earlier
/// reads and stages have already run far enough ahead. Non-finite results
/// are counted while the chunk is still in cache.
fn eval_chunk(
    st: &StagePlan,
    plan: &SlotPlan,
    slots: &mut [Slot],
    pos: usize,
    next: usize,
    exceptions: &mut u64,
) {
    enum Side<'s> {
        S(&'s [f64]),
        C(f64),
        Acc,
    }
    let range = slots[st.out_slot].advance(plan, pos, next);
    let (from, n) = (range.start, range.len());
    if n == 0 {
        return;
    }
    // A stage never reads its own slot (that would be a wire cycle, which
    // the planner refuses), so it can be lifted out while the operands
    // are borrowed.
    let mut out = std::mem::take(&mut slots[st.out_slot]);
    let operands = &*slots;
    let side = |arg: &Arg| -> Side<'_> {
        match arg {
            Arg::Stream { slot, offset } => {
                Side::S(operands[*slot].get(from + offset, from + offset + n))
            }
            Arg::Lit(v) => Side::C(*v),
            Arg::Acc => Side::Acc,
        }
    };
    let (a, b) = (side(&st.a), side(&st.b));
    let (op, cv, buf) = (st.op, st.const_val, &mut out.buf);
    if st.uses_acc {
        // Feedback reductions are inherently sequential: fold with the
        // accumulator, updating it on every result like the interpreter,
        // and carry it to the next chunk.
        let fetch = |s: &Side, k: usize, acc: f64| -> f64 {
            match s {
                Side::S(v) => v[k],
                Side::C(c) => *c,
                Side::Acc => acc,
            }
        };
        let mut acc = if from == 0 { cv } else { out.acc };
        for k in 0..n {
            let r = op.apply(fetch(&a, k, acc), fetch(&b, k, acc), cv);
            if !r.is_finite() {
                *exceptions += 1;
            }
            acc = r;
            buf.push(r);
        }
        out.acc = acc;
    } else {
        match (a, b) {
            (Side::S(a), Side::S(b)) => run_loop(op, cv, n, |k| a[k], |k| b[k], buf),
            (Side::S(a), Side::C(b)) => run_loop(op, cv, n, |k| a[k], |_| b, buf),
            (Side::C(a), Side::S(b)) => run_loop(op, cv, n, |_| a, |k| b[k], buf),
            (Side::C(a), Side::C(b)) => run_loop(op, cv, n, |_| a, |_| b, buf),
            (Side::Acc, _) | (_, Side::Acc) => unreachable!("feedback stages fold above"),
        }
        *exceptions += buf[buf.len() - n..].iter().filter(|r| !r.is_finite()).count() as u64;
    }
    slots[st.out_slot] = out;
}

/// Execute a specialized instruction: bit-identical memory effects,
/// counters and (when requested) trace to `execute_instruction`.
///
/// The plan runs in chunk steps: each step advances the chunk position by
/// the plan's chunk and brings every read and stage slot up to that
/// position plus its lead, in dependency order, then stores what the
/// stream writes can now take. Elements the trace or a `LastOnly` capture
/// wants are taken in the step that produces them; the captures are
/// stored after the last step, behind every stream write, as the
/// interpreter stores them. The element streams run through `buffers`,
/// the executing node's own.
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
    let mut last = if want_trace { vec![None; plan.n_sources] } else { Vec::new() };
    let p = match &plan.body {
        PlanBody::Idle => return SourceTrace { last },
        PlanBody::Pipeline(p) => p,
    };

    let slots = prepare(&mut buffers.slots, p);
    let lasts = &mut buffers.lasts;
    lasts.clear();
    lasts.resize(p.lasts.len(), 0.0);
    let mut exceptions: u64 = 0;
    let mut pos = 0;
    loop {
        let next = pos + p.chunk;
        for r in &p.reads {
            let slot = &mut slots[r.slot];
            let range = slot.advance(&p.slots[r.slot], pos, next);
            if !range.is_empty() {
                let base = r.base + range.start as i64 * r.stride;
                r.store.read_into(mem, base, r.stride, range.len(), &mut slot.buf);
            }
        }
        for st in &p.stages {
            eval_chunk(st, &p.slots[st.out_slot], slots, pos, next, &mut exceptions);
        }
        for w in &p.writes {
            let (from, to) = (w.count.min(pos), w.count.min(next));
            if from < to {
                let vals = slots[w.slot].get(w.skip + from, w.skip + to);
                w.store.write_from(mem, w.base + from as i64 * w.stride, w.stride, vals);
            }
        }
        let taken = |slot: usize, idx: usize| {
            (pos..next).contains(&p.slots[slot].due(idx)).then(|| slots[slot].at(idx))
        };
        for (l, v) in p.lasts.iter().zip(lasts.iter_mut()) {
            if let Some(x) = taken(l.slot, l.idx) {
                *v = x;
            }
        }
        if want_trace {
            for t in &p.trace {
                if let Some(x) = taken(t.slot, t.idx) {
                    last[t.code as usize] = Some(x);
                }
            }
        }
        pos = next;
        if pos >= p.span {
            break;
        }
    }
    for (l, &v) in p.lasts.iter().zip(lasts.iter()) {
        l.store.write_one(mem, l.base, v);
    }

    counters.cycles += p.executed_cycles;
    counters.flops += p.flops;
    counters.elements_streamed += p.elements_streamed;
    counters.elements_stored += p.elements_stored;
    counters.exceptions += exceptions;
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

    /// The chunk sizes every identity case runs at besides the plan's
    /// own: one element per step, and small sizes that put chunk
    /// boundaries at every offset of a short stream.
    const FORCED_CHUNKS: [usize; 4] = [1, 2, 3, 7];

    fn pipeline(plan: &InstrPlan) -> Option<&PipelinePlan> {
        match &plan.body {
            PlanBody::Idle => None,
            PlanBody::Pipeline(p) => Some(p),
        }
    }

    /// `plan` with its chunk forced to `chunk` elements.
    fn with_chunk(plan: &InstrPlan, chunk: usize) -> InstrPlan {
        let mut plan = plan.clone();
        if let PlanBody::Pipeline(p) = &mut plan.body {
            p.chunk = chunk;
        }
        plan
    }

    /// Run `ins` through the interpreter and, at the plan's own chunk and
    /// at every forced one, through the kernel, each on identical fresh
    /// memory; assert the plan exists and that counters, traces and the
    /// probed ranges agree to the bit.
    fn assert_identical(
        kb: &KnowledgeBase,
        ins: &MicroInstruction,
        init: impl Fn(&mut NodeMemory),
        probes: &[(Store, i64, usize)],
    ) {
        let mut mem_i = NodeMemory::new(kb.config());
        init(&mut mem_i);
        let mut c_i = PerfCounters::default();
        let trace_i = execute_instruction(kb, ins, &mut mem_i, &mut c_i).expect("interpreter runs");
        let plan = plan_instruction(kb, ins).expect("instruction specializes");
        let own = pipeline(&plan).map_or(1, |p| p.chunk);
        let bits = |t: &SourceTrace| -> Vec<Option<u64>> {
            t.last.iter().map(|v| v.map(f64::to_bits)).collect()
        };
        for chunk in std::iter::once(own).chain(FORCED_CHUNKS) {
            let mut mem_k = NodeMemory::new(kb.config());
            init(&mut mem_k);
            let mut c_k = PerfCounters::default();
            let plan = with_chunk(&plan, chunk);
            let trace_k =
                run_plan(&plan, &mut mem_k, &mut c_k, &mut StreamBuffers::default(), true);

            assert_eq!(c_i, c_k, "chunk {chunk}: counters must match exactly");
            assert_eq!(bits(&trace_i), bits(&trace_k), "chunk {chunk}: traces must match");
            for &(store, base, len) in probes {
                for k in 0..len {
                    let addr = base + k as i64;
                    let (vi, vk) = match store {
                        Store::Plane(p) => {
                            (mem_i.planes[p].read(addr as u64), mem_k.planes[p].read(addr as u64))
                        }
                        Store::Cache(c, b) => (
                            mem_i.caches[c].read(b, addr as u64),
                            mem_k.caches[c].read(b, addr as u64),
                        ),
                    };
                    assert_eq!(vi.to_bits(), vk.to_bits(), "chunk {chunk}: {store:?} @ {addr}");
                }
            }
        }
    }

    fn copy_instr(kb: &KnowledgeBase, count: u32) -> MicroInstruction {
        let mut ins = MicroInstruction::empty(kb);
        *ins.fu_mut(FuId(0)) = FuField::active(FuOp::Copy);
        *ins.plane_rd_mut(PlaneId(0)) = PlaneDmaField::contiguous(0, count);
        *ins.plane_wr_mut(PlaneId(1)) = PlaneDmaField::contiguous(500, count);
        ins.switch
            .route(kb, SourceRef::PlaneRead(PlaneId(0)), SinkRef::FuIn(FuId(0), InPort::A))
            .unwrap();
        ins.switch.route(kb, SourceRef::Fu(FuId(0)), SinkRef::PlaneWrite(PlaneId(1))).unwrap();
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
        ins.switch
            .route(&kb, SourceRef::PlaneRead(PlaneId(0)), SinkRef::FuIn(FuId(0), InPort::A))
            .unwrap();
        ins.switch
            .route(&kb, SourceRef::CacheRead(CacheId(0)), SinkRef::FuIn(FuId(0), InPort::B))
            .unwrap();
        ins.switch.route(&kb, SourceRef::Fu(FuId(0)), SinkRef::PlaneWrite(PlaneId(1))).unwrap();
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
        ins.switch
            .route(&kb, SourceRef::PlaneRead(PlaneId(0)), SinkRef::FuIn(FuId(2), InPort::A))
            .unwrap();
        ins.switch.route(&kb, SourceRef::Fu(FuId(2)), SinkRef::CacheWrite(CacheId(0))).unwrap();
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
        *ins.sdu_mut(SduId(0)) = SduField::with_delays(&[0, 3]).unwrap();
        *ins.plane_wr_mut(PlaneId(1)) = PlaneDmaField::contiguous(0, 7);
        ins.switch.route(&kb, SourceRef::PlaneRead(PlaneId(0)), SinkRef::SduIn(SduId(0))).unwrap();
        ins.switch
            .route(&kb, SourceRef::SduTap(SduId(0), 0), SinkRef::FuIn(FuId(0), InPort::A))
            .unwrap();
        ins.switch
            .route(&kb, SourceRef::SduTap(SduId(0), 1), SinkRef::FuIn(FuId(0), InPort::B))
            .unwrap();
        ins.switch.route(&kb, SourceRef::Fu(FuId(0)), SinkRef::PlaneWrite(PlaneId(1))).unwrap();
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
        ins.switch
            .route(&kb, SourceRef::PlaneRead(PlaneId(0)), SinkRef::FuIn(FuId(0), InPort::A))
            .unwrap();
        ins.switch.route(&kb, SourceRef::Fu(FuId(0)), SinkRef::FuIn(FuId(3), InPort::A)).unwrap();
        ins.switch
            .route(&kb, SourceRef::PlaneRead(PlaneId(0)), SinkRef::FuIn(FuId(3), InPort::B))
            .unwrap();
        ins.switch.route(&kb, SourceRef::Fu(FuId(3)), SinkRef::PlaneWrite(PlaneId(1))).unwrap();
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
        ins.switch
            .route(&kb, SourceRef::PlaneRead(PlaneId(0)), SinkRef::FuIn(FuId(0), InPort::A))
            .unwrap();
        ins.switch.route(&kb, SourceRef::Fu(FuId(0)), SinkRef::PlaneWrite(PlaneId(1))).unwrap();
        assert_identical(
            &kb,
            &ins,
            |m| m.planes[0].write_slice(0, &[1.0, 0.0, 4.0]),
            &[(Store::Plane(1), 0, 3)],
        );
    }

    /// Words of one grid plane (32 × 32) in the long instruction.
    const PLANE: usize = 1024;
    /// Elements the long instruction streams: more than four default
    /// chunks of its nine streaming slots.
    const LONG: usize = 4 * (CHUNK_LIVE_WORDS / 9) + 1500;

    /// One instruction spanning several default chunks, with everything a
    /// chunk boundary can cut through. `u = p0[0 .. LONG + 2 PLANE]` enters
    /// SDU0, whose taps lag it by nothing, one plane and two planes:
    /// - `s = (u[k] + u[k + 2P]) - u[k + P + 3]` (F0, F1) goes to `p1`,
    ///   skipping its first 3 elements;
    /// - `s × c0[..]` (F2; the cache read is the shorter stream) goes to
    ///   `p3`, skipping 5;
    /// - `r = 1 / d` (F3), with `d` read backwards from every second word
    ///   of `p2`, goes to `p4`, and `r[k + 3] - r[k]` (F5, through a
    ///   register-file queue) to `p5`, so `r` keeps a three-element tail
    ///   from one chunk step to the next;
    /// - `max |s|`, a feedback fold (F4), is captured at `c1[5]`.
    fn long_instruction(kb: &KnowledgeBase) -> MicroInstruction {
        let (n, p) = (LONG as u32, PLANE as u16);
        let mut ins = MicroInstruction::empty(kb);
        *ins.plane_rd_mut(PlaneId(0)) = PlaneDmaField::contiguous(0, n + 2 * p as u32);
        *ins.plane_rd_mut(PlaneId(2)) =
            PlaneDmaField { base: 2 * n - 1, stride: -2, ..PlaneDmaField::contiguous(0, n) };
        *ins.cache_rd_mut(CacheId(0)) = CacheDmaField {
            enabled: true,
            offset: 0,
            stride: 1,
            count: 8192,
            skip: 0,
            buffer: 0,
            mode: WriteMode::Stream,
        };
        *ins.sdu_mut(SduId(0)) = SduField::with_delays(&[0, p, 2 * p]).unwrap();
        *ins.fu_mut(FuId(0)) = FuField::active(FuOp::Add);
        *ins.fu_mut(FuId(1)) = FuField::active(FuOp::Sub);
        *ins.fu_mut(FuId(2)) = FuField::active(FuOp::Mul);
        *ins.fu_mut(FuId(3)) = FuField::active(FuOp::Recip);
        *ins.fu_mut(FuId(4)) = FuField {
            enabled: true,
            op: FuOp::MaxAbs,
            in_a: FuInputSel::Switch,
            in_b: FuInputSel::Feedback(0),
            const_slot: 0,
            preload: Some(0.0),
        };
        *ins.fu_mut(FuId(5)) = FuField {
            enabled: true,
            op: FuOp::Sub,
            in_a: FuInputSel::Switch,
            in_b: FuInputSel::Queue(3),
            const_slot: 0,
            preload: None,
        };
        *ins.plane_wr_mut(PlaneId(1)) =
            PlaneDmaField { skip: 3, ..PlaneDmaField::contiguous(0, n - 3) };
        *ins.plane_wr_mut(PlaneId(3)) =
            PlaneDmaField { skip: 5, ..PlaneDmaField::contiguous(0, 4000) };
        *ins.plane_wr_mut(PlaneId(4)) = PlaneDmaField::contiguous(0, n);
        *ins.plane_wr_mut(PlaneId(5)) = PlaneDmaField::contiguous(0, n - 10);
        *ins.cache_wr_mut(CacheId(1)) = CacheDmaField::scalar_capture(5);
        let routes = [
            (SourceRef::PlaneRead(PlaneId(0)), SinkRef::SduIn(SduId(0))),
            (SourceRef::SduTap(SduId(0), 0), SinkRef::FuIn(FuId(0), InPort::A)),
            (SourceRef::SduTap(SduId(0), 2), SinkRef::FuIn(FuId(0), InPort::B)),
            (SourceRef::Fu(FuId(0)), SinkRef::FuIn(FuId(1), InPort::A)),
            (SourceRef::SduTap(SduId(0), 1), SinkRef::FuIn(FuId(1), InPort::B)),
            (SourceRef::Fu(FuId(1)), SinkRef::FuIn(FuId(2), InPort::A)),
            (SourceRef::CacheRead(CacheId(0)), SinkRef::FuIn(FuId(2), InPort::B)),
            (SourceRef::PlaneRead(PlaneId(2)), SinkRef::FuIn(FuId(3), InPort::A)),
            (SourceRef::Fu(FuId(1)), SinkRef::FuIn(FuId(4), InPort::A)),
            (SourceRef::Fu(FuId(1)), SinkRef::PlaneWrite(PlaneId(1))),
            (SourceRef::Fu(FuId(2)), SinkRef::PlaneWrite(PlaneId(3))),
            (SourceRef::Fu(FuId(3)), SinkRef::PlaneWrite(PlaneId(4))),
            (SourceRef::Fu(FuId(3)), SinkRef::FuIn(FuId(5), InPort::A)),
            (SourceRef::Fu(FuId(3)), SinkRef::FuIn(FuId(5), InPort::B)),
            (SourceRef::Fu(FuId(5)), SinkRef::PlaneWrite(PlaneId(5))),
            (SourceRef::Fu(FuId(4)), SinkRef::CacheWrite(CacheId(1))),
        ];
        for (from, to) in routes {
            ins.switch.route(kb, from, to).unwrap();
        }
        ins
    }

    /// The long instruction's inputs. `d` is zero on the last element
    /// each default chunk step gives `r` and NaN on the first of the next
    /// (a step ends `r`'s lead past a multiple of the chunk), so `1 / d`
    /// raises its infinities and NaNs exactly on the chunk boundaries.
    fn long_inputs(mem: &mut NodeMemory, chunk: usize, lead: usize) {
        let u: Vec<f64> =
            (0..LONG + 2 * PLANE).map(|i| (i * 7919 % 1000) as f64 / 8.0 - 60.0).collect();
        mem.planes[0].write_slice(0, &u);
        for k in 0..LONG {
            let d = match (k + chunk - lead) % chunk {
                0 if k > lead => f64::NAN,
                r if r == chunk - 1 && k >= lead => 0.0,
                _ => (k % 97) as f64 - 48.5,
            };
            mem.planes[2].write((2 * LONG - 1 - 2 * k) as u64, d);
        }
        for i in 0..8192 {
            mem.caches[0].write(0, i, 1.0 + (i % 13) as f64 / 4.0);
        }
    }

    #[test]
    fn a_long_instruction_is_identical_across_chunk_boundaries() {
        let kb = kb();
        let ins = long_instruction(&kb);
        let plan = plan_instruction(&kb, &ins).expect("instruction specializes");
        let p = pipeline(&plan).expect("a pipeline");
        assert!(LONG >= 3 * p.chunk, "{LONG} elements span three chunks of {}", p.chunk);
        let recip = p.slots[p.reads.len() + 3];
        assert_eq!((recip.lead, recip.tail), (3, 0), "r keeps a three-element tail");
        assert_eq!(p.slots[0].lead, 2 * PLANE + 5, "u leads by two planes plus the write skip");
        let chunk = p.chunk;
        assert_identical(
            &kb,
            &ins,
            |m| long_inputs(m, chunk, recip.lead),
            &[
                (Store::Plane(1), 0, LONG),
                (Store::Plane(3), 0, 4000),
                (Store::Plane(4), 0, LONG),
                (Store::Plane(5), 0, LONG - 10),
                (Store::Cache(1, 0), 5, 1),
            ],
        );
    }

    #[test]
    fn a_long_instruction_streams_through_a_bounded_live_set() {
        // Run the long instruction on a node, then hold the node's stream
        // buffers to the chunked live bound: slots × chunk plus each slot's
        // lead, times two for the slack a slot's dead prefix may reach
        // before its live part moves down. Whole-window evaluation would
        // need every stream's full length, far past the bound.
        use crate::node::{NodeSim, RunOptions};
        let kb = kb();
        let ins = long_instruction(&kb);
        let plan = plan_instruction(&kb, &ins).expect("instruction specializes");
        let p = pipeline(&plan).expect("a pipeline");
        let mut b = nsc_microcode::ProgramBuilder::new(&kb, "long");
        b.push(ins);
        let prog = b.finish();
        let kernel = CompiledKernel::compile(&kb, &prog);

        let mut node = NodeSim::new(kb.clone());
        long_inputs(&mut node.mem, p.chunk, p.slots[p.reads.len() + 3].lead);
        let mut interp = node.clone();
        let opts = RunOptions { trace: true, ..Default::default() };
        let got = node.run_program_with_kernel(&prog, Some(&kernel), &opts).expect("runs");
        let want = interp.run_program(&prog, &opts).expect("interprets");
        assert_eq!(node.counters, interp.counters);
        assert!(node.counters.exceptions >= 8, "1 / d raised its boundary exceptions");
        let bits = |s: &crate::node::RunStats| -> Vec<Vec<Option<u64>>> {
            s.traces
                .iter()
                .map(|(_, t)| t.last.iter().map(|v| v.map(f64::to_bits)).collect())
                .collect()
        };
        assert_eq!(bits(&got), bits(&want));

        let streaming: Vec<&SlotPlan> = p.slots.iter().filter(|s| s.len > 0).collect();
        let leads: usize = streaming.iter().map(|s| s.lead).sum();
        let bound = 2 * (streaming.len() * p.chunk + leads);
        let whole: usize = streaming.iter().map(|s| s.len).sum();
        assert!(bound < whole, "bound {bound} must be tighter than whole windows ({whole})");
        let held: usize = node.streams.slots.iter().map(|s| s.buf.capacity()).sum();
        assert!(held <= bound, "stream buffers hold {held} words; the chunked bound is {bound}");
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
        ins.switch.route(&kb, SourceRef::Fu(FuId(0)), SinkRef::CacheWrite(CacheId(0))).unwrap();
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
        ins.switch
            .route(&kb, SourceRef::PlaneRead(PlaneId(0)), SinkRef::FuIn(FuId(0), InPort::A))
            .unwrap();
        ins.switch.route(&kb, SourceRef::Fu(FuId(0)), SinkRef::PlaneWrite(PlaneId(1))).unwrap();
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
        ins.switch
            .route(&kb, SourceRef::PlaneRead(PlaneId(0)), SinkRef::FuIn(FuId(0), InPort::A))
            .unwrap();
        ins.switch.route(&kb, SourceRef::Fu(FuId(0)), SinkRef::PlaneWrite(PlaneId(1))).unwrap();
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
        ins.switch.route(&kb, SourceRef::Fu(FuId(0)), SinkRef::PlaneWrite(PlaneId(0))).unwrap();
        assert!(plan_instruction(&kb, &ins).is_none());
    }

    #[test]
    fn overlapping_ranges_in_one_cache_buffer_fall_back() {
        // Buffer fields 0 and 2 both address a cache's first buffer, so a
        // write through one over a read through the other is a hazard.
        let kb = kb();
        let mut ins = MicroInstruction::empty(&kb);
        *ins.fu_mut(FuId(0)) = FuField::active(FuOp::Copy);
        let dma = |offset, buffer| CacheDmaField {
            enabled: true,
            offset,
            stride: 1,
            count: 16,
            skip: 0,
            buffer,
            mode: WriteMode::Stream,
        };
        *ins.cache_rd_mut(CacheId(0)) = dma(0, 0);
        *ins.cache_wr_mut(CacheId(0)) = dma(8, 2);
        ins.switch
            .route(&kb, SourceRef::CacheRead(CacheId(0)), SinkRef::FuIn(FuId(0), InPort::A))
            .unwrap();
        ins.switch.route(&kb, SourceRef::Fu(FuId(0)), SinkRef::CacheWrite(CacheId(0))).unwrap();
        assert!(plan_instruction(&kb, &ins).is_none());
    }

    #[test]
    fn specialization_covers_disjoint_in_place_updates() {
        let kb = kb();
        let mut ins = copy_instr(&kb, 16);
        // Same plane, disjoint ranges: stays specialized.
        *ins.plane_wr_mut(PlaneId(1)) = PlaneDmaField::idle();
        *ins.plane_wr_mut(PlaneId(0)) = PlaneDmaField::contiguous(100, 16);
        ins.switch.route(&kb, SourceRef::Fu(FuId(0)), SinkRef::PlaneWrite(PlaneId(0))).unwrap();
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
        ins.switch
            .route(kb, SourceRef::PlaneRead(PlaneId(0)), SinkRef::FuIn(FuId(0), InPort::A))
            .unwrap();
        ins.switch
            .route(kb, SourceRef::CacheRead(CacheId(0)), SinkRef::FuIn(FuId(0), InPort::B))
            .unwrap();
        ins.switch.route(kb, SourceRef::Fu(FuId(0)), SinkRef::FuIn(FuId(1), InPort::A)).unwrap();
        ins.switch.route(kb, SourceRef::Fu(FuId(1)), SinkRef::FuIn(FuId(2), InPort::A)).unwrap();
        ins.switch.route(kb, SourceRef::Fu(FuId(1)), SinkRef::PlaneWrite(PlaneId(1))).unwrap();
        ins.switch.route(kb, SourceRef::Fu(FuId(2)), SinkRef::CacheWrite(CacheId(1))).unwrap();
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
        ins.switch
            .route(kb, SourceRef::PlaneRead(PlaneId(1)), SinkRef::FuIn(FuId(0), InPort::A))
            .unwrap();
        ins.switch.route(kb, SourceRef::Fu(FuId(0)), SinkRef::PlaneWrite(PlaneId(0))).unwrap();
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
