//! The instruction executor: a lockstep, cycle-level dataflow engine.
//!
//! An instruction configures the node into pipelines; execution then
//! proceeds in lockstep, one potential element per component per clock:
//!
//! * phase 1 (*sample*): every switch source presents its value for this
//!   cycle — plane/cache DMA reads present the next word, shift/delay taps
//!   present their delayed history, functional units present the result
//!   that entered their pipeline `latency` cycles ago;
//! * phase 2 (*commit*): write DMAs store, functional units latch operands
//!   and push results, delay queues and SDU rings advance, read DMAs move
//!   on.
//!
//! Every word on the datapath carries a *data-valid* line (modelled as
//! `Option<f64>`): slots are invalid before DMA start-up, during
//! shift/delay and queue warm-up, and after stream exhaustion. Write DMAs
//! store only valid elements, which is what keeps stencil outputs aligned
//! without explicit skip programming, and keeps warm-up garbage out of
//! feedback reductions. The instruction completes when every stream-mode
//! write has stored its quota and reductions have drained — the event the
//! paper's completion interrupt signals. Drain detection is precise: a
//! scalar capture is done the first cycle its data-valid line goes low
//! again after having carried data (source validity windows are contiguous
//! once streaming starts, so quiet means drained), with a conservative
//! ring-plus-pipeline bound kept only as a fallback for pipelines whose
//! capture is fed by always-valid (constant or feedback) operands.

use crate::counters::PerfCounters;
use crate::memory::NodeMemory;
use nsc_arch::{FuId, FuOp, InPort, KnowledgeBase, SinkRef, SourceRef};
use nsc_microcode::{FuInputSel, MicroInstruction, WriteMode};
use std::collections::VecDeque;
use std::fmt;

/// Fixed per-instruction overhead: decode, switch programming, DMA setup.
pub const SETUP_CYCLES: u64 = 32;

/// Execution failures.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ExecError {
    /// The instruction never completed (an unrouted input starved a write).
    Hang {
        /// Human-readable description of what was still pending.
        detail: String,
    },
    /// The instruction is malformed (references outside the machine).
    BadProgram(String),
}

impl fmt::Display for ExecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ExecError::Hang { detail } => write!(f, "instruction hang: {detail}"),
            ExecError::BadProgram(msg) => write!(f, "bad program: {msg}"),
        }
    }
}

impl std::error::Error for ExecError {}

/// The last valid value observed on every switch source during an
/// instruction — the visual debugger's data feed (paper §6: "annotated to
/// show data values flowing through the pipeline").
#[derive(Debug, Clone, PartialEq)]
pub struct SourceTrace {
    /// Indexed by the knowledge base's source codes.
    pub last: Vec<Option<f64>>,
}

impl SourceTrace {
    /// Last value seen on a given source port.
    pub fn value_of(&self, kb: &KnowledgeBase, source: SourceRef) -> Option<f64> {
        self.last.get(kb.source_code(source)? as usize).copied().flatten()
    }
}

enum Operand {
    /// Value from the switch sink, optionally through a delay queue.
    Wire { queue: Option<VecDeque<Option<f64>>>, driver: Option<u16> },
    /// Register-file constant.
    Const(f64),
    /// Feedback accumulator.
    Feedback,
}

struct FuSim {
    src_code: u16,
    op: FuOp,
    pipe: VecDeque<Option<f64>>,
    a: Operand,
    b: Operand,
    const_val: f64,
    acc: f64,
}

struct SduSim {
    driver: Option<u16>,
    ring: Vec<Option<f64>>,
    pos: usize,
    transit: u16,
    taps: Vec<(u16, u16)>, // (source code, programmed delay)
}

struct ReadDma {
    src_code: u16,
    storage: Storage,
    base: i64,
    stride: i64,
    count: u64,
    emitted: u64,
}

struct WriteDma {
    driver: Option<u16>,
    storage: Storage,
    base: i64,
    stride: i64,
    count: u64,
    skip: u64,
    mode: WriteMode,
    skipped: u64,
    written: u64,
    last_val: Option<f64>,
    /// Whether the driving source presented a valid word *this* cycle
    /// (scalar captures complete when this goes low after data flowed).
    live: bool,
    label: String,
}

#[derive(Clone, Copy)]
enum Storage {
    Plane(usize),
    Cache(usize, u8),
}

impl Storage {
    fn read(self, mem: &NodeMemory, addr: i64) -> f64 {
        match self {
            Storage::Plane(p) => mem.planes[p].read(addr as u64),
            Storage::Cache(c, buf) => mem.caches[c].read(buf, addr as u64),
        }
    }

    fn write(self, mem: &mut NodeMemory, addr: i64, v: f64) {
        match self {
            Storage::Plane(p) => mem.planes[p].write(addr as u64, v),
            Storage::Cache(c, buf) => mem.caches[c].write(buf, addr as u64, v),
        }
    }
}

/// Execute one instruction against node memory, updating counters.
pub fn execute_instruction(
    kb: &KnowledgeBase,
    ins: &MicroInstruction,
    mem: &mut NodeMemory,
    counters: &mut PerfCounters,
) -> Result<SourceTrace, ExecError> {
    let n_sources = kb.sources().len();
    let mut trace = vec![None; n_sources];

    // ------------------------------------------------------------------
    // build the component network
    // ------------------------------------------------------------------
    let driver_code = |sink: SinkRef| -> Option<u16> {
        ins.switch.driver(kb, sink).and_then(|s| kb.source_code(s))
    };

    let mut fus: Vec<FuSim> = Vec::new();
    for (i, f) in ins.fus.iter().enumerate() {
        if !f.enabled {
            continue;
        }
        let fu = FuId(i as u8);
        let latency = kb.config().latency.latency(f.op) as usize;
        let mk_operand = |sel: FuInputSel, port: InPort| -> Operand {
            match sel {
                FuInputSel::Switch => {
                    Operand::Wire { queue: None, driver: driver_code(SinkRef::FuIn(fu, port)) }
                }
                FuInputSel::Queue(d) => Operand::Wire {
                    queue: Some(VecDeque::from(vec![None; d as usize])),
                    driver: driver_code(SinkRef::FuIn(fu, port)),
                },
                FuInputSel::Constant(_) => Operand::Const(f.preload.unwrap_or(0.0)),
                FuInputSel::Feedback(_) => Operand::Feedback,
            }
        };
        fus.push(FuSim {
            src_code: kb
                .source_code(SourceRef::Fu(fu))
                .ok_or_else(|| ExecError::BadProgram(format!("{fu} not on this machine")))?,
            op: f.op,
            pipe: VecDeque::from(vec![None; latency.max(1)]),
            a: mk_operand(f.in_a, InPort::A),
            b: mk_operand(f.in_b, InPort::B),
            const_val: f.preload.unwrap_or(0.0),
            acc: f.preload.unwrap_or(0.0),
        });
    }

    let transit = kb.config().latency.sdu_transit as u16;
    let mut sdus: Vec<SduSim> = Vec::new();
    for (i, s) in ins.sdus.iter().enumerate() {
        if !s.enabled {
            continue;
        }
        let sid = nsc_arch::SduId(i as u8);
        let taps: Vec<(u16, u16)> = s
            .taps
            .iter()
            .enumerate()
            .filter(|(_, t)| t.enabled)
            .filter_map(|(t, tap)| {
                kb.source_code(SourceRef::SduTap(sid, t as u8)).map(|c| (c, tap.delay))
            })
            .collect();
        let max_eff = taps.iter().map(|&(_, d)| d + transit).max().unwrap_or(transit) as usize;
        sdus.push(SduSim {
            driver: driver_code(SinkRef::SduIn(sid)),
            ring: vec![None; max_eff + 1],
            pos: 0,
            transit,
            taps,
        });
    }

    let mut reads: Vec<ReadDma> = Vec::new();
    let mut writes: Vec<WriteDma> = Vec::new();
    for (i, d) in ins.plane_rd.iter().enumerate() {
        if d.enabled {
            reads.push(ReadDma {
                src_code: kb
                    .source_code(SourceRef::PlaneRead(nsc_arch::PlaneId(i as u8)))
                    .ok_or_else(|| ExecError::BadProgram(format!("MP{i} read not on machine")))?,
                storage: Storage::Plane(i),
                base: d.base as i64,
                stride: d.stride as i64,
                count: d.count as u64,
                emitted: 0,
            });
        }
    }
    for (i, d) in ins.cache_rd.iter().enumerate() {
        if d.enabled {
            reads.push(ReadDma {
                src_code: kb
                    .source_code(SourceRef::CacheRead(nsc_arch::CacheId(i as u8)))
                    .ok_or_else(|| ExecError::BadProgram(format!("DC{i} read not on machine")))?,
                storage: Storage::Cache(i, d.buffer),
                base: d.offset as i64,
                stride: d.stride as i64,
                count: d.count as u64,
                emitted: 0,
            });
        }
    }
    for (i, d) in ins.plane_wr.iter().enumerate() {
        if d.enabled {
            writes.push(WriteDma {
                driver: driver_code(SinkRef::PlaneWrite(nsc_arch::PlaneId(i as u8))),
                storage: Storage::Plane(i),
                base: d.base as i64,
                stride: d.stride as i64,
                count: d.count as u64,
                skip: d.skip as u64,
                mode: d.mode,
                skipped: 0,
                written: 0,
                last_val: None,
                live: false,
                label: format!("MP{i}.wr"),
            });
        }
    }
    for (i, d) in ins.cache_wr.iter().enumerate() {
        if d.enabled {
            writes.push(WriteDma {
                driver: driver_code(SinkRef::CacheWrite(nsc_arch::CacheId(i as u8))),
                storage: Storage::Cache(i, d.buffer),
                base: d.offset as i64,
                stride: d.stride as i64,
                count: d.count as u64,
                skip: d.skip as u64,
                mode: d.mode,
                skipped: 0,
                written: 0,
                last_val: None,
                live: false,
                label: format!("DC{i}.wr"),
            });
        }
    }

    counters.cycles += SETUP_CYCLES;
    counters.instructions += 1;

    // Idle instructions (loop headers) finish after setup.
    if writes.is_empty() && reads.is_empty() && fus.is_empty() {
        counters.completion_interrupts += 1;
        return Ok(SourceTrace { last: trace });
    }

    // ------------------------------------------------------------------
    // the lockstep loop
    // ------------------------------------------------------------------
    let max_count = reads.iter().map(|r| r.count).max().unwrap_or(0);
    let drain_bound: u64 = sdus.iter().map(|s| s.ring.len() as u64).sum::<u64>()
        + fus.iter().map(|f| f.pipe.len() as u64 + 70).sum::<u64>()
        + 16;
    let hard_cap = max_count + drain_bound + 1024;

    let mut source_vals: Vec<Option<f64>> = vec![None; n_sources];
    let mut cycles_after_reads: u64 = 0;
    let mut completed = false;

    for _cycle in 0..hard_cap {
        // --- phase 1: sample ---
        source_vals.iter_mut().for_each(|v| *v = None);
        for r in &reads {
            if r.emitted < r.count {
                let addr = r.base + r.emitted as i64 * r.stride;
                source_vals[r.src_code as usize] = Some(r.storage.read(mem, addr));
            }
        }
        for s in &sdus {
            let len = s.ring.len();
            // Tap with programmed delay d presents the input from
            // (d + transit) cycles ago. `ring[pos]` holds the input of the
            // previous cycle (one cycle of transit is the ring write
            // itself), so the lookback is eff - 1 slots.
            for &(code, d) in &s.taps {
                let eff = (d + s.transit) as usize;
                debug_assert!(eff >= 1, "sdu_transit must be at least 1");
                let idx = (s.pos + len - (eff - 1)) % len;
                source_vals[code as usize] = s.ring[idx];
            }
        }
        for f in &fus {
            source_vals[f.src_code as usize] = *f.pipe.front().unwrap();
        }
        for (code, v) in source_vals.iter().enumerate() {
            if v.is_some() {
                trace[code] = *v;
            }
        }

        // --- phase 2: commit ---
        for w in &mut writes {
            let val = w.driver.and_then(|d| source_vals[d as usize]);
            w.live = val.is_some();
            if let Some(v) = val {
                match w.mode {
                    WriteMode::Stream => {
                        if w.skipped < w.skip {
                            w.skipped += 1;
                        } else if w.written < w.count {
                            let addr = w.base + w.written as i64 * w.stride;
                            w.storage.write(mem, addr, v);
                            w.written += 1;
                            counters.elements_stored += 1;
                        }
                    }
                    WriteMode::LastOnly => {
                        w.last_val = Some(v);
                    }
                }
            }
        }
        for s in &mut sdus {
            let input = s.driver.and_then(|d| source_vals[d as usize]);
            s.pos = (s.pos + 1) % s.ring.len();
            s.ring[s.pos] = input;
        }
        for f in &mut fus {
            let sample = |op: &mut Operand, acc: f64| -> Option<f64> {
                match op {
                    Operand::Wire { queue, driver } => {
                        let raw = driver.and_then(|d| source_vals[d as usize]);
                        match queue {
                            None => raw,
                            Some(q) => {
                                q.push_back(raw);
                                q.pop_front().flatten()
                            }
                        }
                    }
                    Operand::Const(v) => Some(*v),
                    Operand::Feedback => Some(acc),
                }
            };
            let acc = f.acc;
            let va = sample(&mut f.a, acc);
            let vb = sample(&mut f.b, acc);
            let needed_b = f.op.arity() == 2;
            let result = match (va, vb) {
                (Some(a), Some(b)) => Some(f.op.apply(a, b, f.const_val)),
                (Some(a), None) if !needed_b => Some(f.op.apply(a, 0.0, f.const_val)),
                _ => None,
            };
            if let Some(r) = result {
                if f.op.is_flop() {
                    counters.flops += 1;
                }
                if !r.is_finite() {
                    counters.exceptions += 1;
                }
                f.acc = r;
            }
            f.pipe.push_back(result);
            f.pipe.pop_front();
        }
        for r in &mut reads {
            if r.emitted < r.count {
                r.emitted += 1;
                counters.elements_streamed += 1;
            }
        }
        counters.cycles += 1;

        // --- completion ---
        let reads_done = reads.iter().all(|r| r.emitted >= r.count);
        if reads_done {
            cycles_after_reads += 1;
        }
        let streams_done =
            writes.iter().all(|w| w.mode != WriteMode::Stream || w.written >= w.count);
        let lastonly_present = writes.iter().any(|w| w.mode == WriteMode::LastOnly);
        // A scalar capture has drained once its data-valid line drops after
        // having carried data: source validity windows are contiguous, so
        // quiet can never be followed by more data. Captures that never saw
        // data (or are fed by always-valid constants) fall back to the
        // conservative ring-plus-pipeline drain bound.
        let lastonly_drained = writes
            .iter()
            .all(|w| w.mode != WriteMode::LastOnly || (w.last_val.is_some() && !w.live));
        if streams_done
            && reads_done
            && (!lastonly_present || lastonly_drained || cycles_after_reads > drain_bound)
        {
            completed = true;
            break;
        }
    }

    if !completed {
        let pending: Vec<String> = writes
            .iter()
            .filter(|w| w.mode == WriteMode::Stream && w.written < w.count)
            .map(|w| format!("{} stored {}/{}", w.label, w.written, w.count))
            .collect();
        return Err(ExecError::Hang {
            detail: if pending.is_empty() {
                "reductions never drained".to_string()
            } else {
                pending.join(", ")
            },
        });
    }

    // Finalize scalar captures.
    for w in &mut writes {
        if w.mode == WriteMode::LastOnly {
            if let Some(v) = w.last_val {
                w.storage.write(mem, w.base, v);
                counters.elements_stored += 1;
            }
        }
    }
    counters.completion_interrupts += 1;
    Ok(SourceTrace { last: trace })
}

#[cfg(test)]
mod tests {
    use super::*;
    use nsc_arch::{CacheId, MachineConfig, PlaneId};
    use nsc_microcode::{CacheDmaField, FuField, PlaneDmaField, SduField};

    fn kb() -> KnowledgeBase {
        KnowledgeBase::nsc_1988()
    }

    fn setup(kb: &KnowledgeBase) -> (NodeMemory, PerfCounters) {
        (NodeMemory::new(kb.config()), PerfCounters::default())
    }

    #[test]
    fn copy_pipeline_moves_data() {
        let kb = kb();
        let (mut mem, mut counters) = setup(&kb);
        let data: Vec<f64> = (0..100).map(|i| i as f64).collect();
        mem.planes[0].write_slice(0, &data);

        let mut ins = MicroInstruction::empty(&kb);
        *ins.fu_mut(FuId(0)) = FuField::active(FuOp::Copy);
        *ins.plane_rd_mut(PlaneId(0)) = PlaneDmaField::contiguous(0, 100);
        *ins.plane_wr_mut(PlaneId(1)) = PlaneDmaField::contiguous(500, 100);
        ins.switch
            .route(&kb, SourceRef::PlaneRead(PlaneId(0)), SinkRef::FuIn(FuId(0), InPort::A))
            .unwrap();
        ins.switch.route(&kb, SourceRef::Fu(FuId(0)), SinkRef::PlaneWrite(PlaneId(1))).unwrap();

        execute_instruction(&kb, &ins, &mut mem, &mut counters).expect("runs");
        assert_eq!(mem.planes[1].read_vec(500, 100), data);
        assert_eq!(counters.elements_streamed, 100);
        assert_eq!(counters.elements_stored, 100);
        assert_eq!(counters.completion_interrupts, 1);
        // copy is not a flop
        assert_eq!(counters.flops, 0);
    }

    #[test]
    fn add_pipeline_with_two_streams() {
        let kb = kb();
        let (mut mem, mut counters) = setup(&kb);
        let a: Vec<f64> = (0..50).map(|i| i as f64).collect();
        let b: Vec<f64> = (0..50).map(|i| 2.0 * i as f64).collect();
        mem.planes[0].write_slice(0, &a);
        mem.caches[0].write(0, 0, 0.0);
        for (i, v) in b.iter().enumerate() {
            mem.caches[0].write(0, i as u64, *v);
        }

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

        execute_instruction(&kb, &ins, &mut mem, &mut counters).expect("runs");
        let out = mem.planes[1].read_vec(0, 50);
        for (i, &v) in out.iter().enumerate() {
            assert_eq!(v, 3.0 * i as f64);
        }
        assert_eq!(counters.flops, 50);
    }

    #[test]
    fn constant_operand_and_preload() {
        let kb = kb();
        let (mut mem, mut counters) = setup(&kb);
        mem.planes[0].write_slice(0, &[6.0, 12.0, 18.0]);
        let mut ins = MicroInstruction::empty(&kb);
        *ins.fu_mut(FuId(0)) = FuField {
            enabled: true,
            op: FuOp::Mul,
            in_a: FuInputSel::Switch,
            in_b: FuInputSel::Constant(0),
            const_slot: 0,
            preload: Some(1.0 / 6.0),
        };
        *ins.plane_rd_mut(PlaneId(0)) = PlaneDmaField::contiguous(0, 3);
        *ins.plane_wr_mut(PlaneId(1)) = PlaneDmaField::contiguous(0, 3);
        ins.switch
            .route(&kb, SourceRef::PlaneRead(PlaneId(0)), SinkRef::FuIn(FuId(0), InPort::A))
            .unwrap();
        ins.switch.route(&kb, SourceRef::Fu(FuId(0)), SinkRef::PlaneWrite(PlaneId(1))).unwrap();
        execute_instruction(&kb, &ins, &mut mem, &mut counters).expect("runs");
        assert_eq!(mem.planes[1].read_vec(0, 3), vec![1.0, 2.0, 3.0]);
    }

    #[test]
    fn feedback_reduction_captures_running_max() {
        let kb = kb();
        let (mut mem, mut counters) = setup(&kb);
        mem.planes[0].write_slice(0, &[1.0, -7.0, 3.0, 5.0, -2.0]);
        let mut ins = MicroInstruction::empty(&kb);
        *ins.fu_mut(FuId(2)) = FuField {
            enabled: true,
            op: FuOp::MaxAbs,
            in_a: FuInputSel::Switch,
            in_b: FuInputSel::Feedback(0),
            const_slot: 0,
            preload: Some(0.0),
        };
        *ins.plane_rd_mut(PlaneId(0)) = PlaneDmaField::contiguous(0, 5);
        *ins.cache_wr_mut(CacheId(0)) = CacheDmaField::scalar_capture(7);
        ins.switch
            .route(&kb, SourceRef::PlaneRead(PlaneId(0)), SinkRef::FuIn(FuId(2), InPort::A))
            .unwrap();
        ins.switch.route(&kb, SourceRef::Fu(FuId(2)), SinkRef::CacheWrite(CacheId(0))).unwrap();
        execute_instruction(&kb, &ins, &mut mem, &mut counters).expect("runs");
        assert_eq!(mem.caches[0].read(0, 7), 7.0, "max |x| of the stream");
    }

    #[test]
    fn reductions_complete_when_the_datapath_quiesces() {
        // The completion interrupt follows the last element through the
        // pipeline (a handful of transport cycles), not the conservative
        // ring-plus-pipeline drain bound.
        let kb = kb();
        let (mut mem, mut counters) = setup(&kb);
        let data: Vec<f64> = (0..128).map(|i| (i as f64) - 64.0).collect();
        mem.planes[0].write_slice(0, &data);
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
        *ins.cache_wr_mut(CacheId(0)) = CacheDmaField::scalar_capture(0);
        ins.switch
            .route(&kb, SourceRef::PlaneRead(PlaneId(0)), SinkRef::FuIn(FuId(2), InPort::A))
            .unwrap();
        ins.switch.route(&kb, SourceRef::Fu(FuId(2)), SinkRef::CacheWrite(CacheId(0))).unwrap();
        execute_instruction(&kb, &ins, &mut mem, &mut counters).expect("runs");
        assert_eq!(mem.caches[0].read(0, 0), 64.0);
        assert!(
            counters.cycles < SETUP_CYCLES + 128 + 16,
            "drain should cost transport cycles, not a bound: {}",
            counters.cycles
        );
    }

    #[test]
    fn sdu_taps_give_shifted_streams() {
        // out[i] = u[i+3] - u[i] via taps {0, 3} and write skip 3.
        let kb = kb();
        let (mut mem, mut counters) = setup(&kb);
        let u: Vec<f64> = (0..10).map(|i| (i * i) as f64).collect();
        mem.planes[0].write_slice(0, &u);
        let mut ins = MicroInstruction::empty(&kb);
        *ins.fu_mut(FuId(0)) = FuField::active(FuOp::Sub);
        *ins.plane_rd_mut(PlaneId(0)) = PlaneDmaField::contiguous(0, 10);
        *ins.sdu_mut(nsc_arch::SduId(0)) = SduField::with_delays(&[0, 3]).unwrap();
        // Warm-up slots carry an invalid data line; the write stores the
        // 7 valid elements with no explicit skip.
        *ins.plane_wr_mut(PlaneId(1)) = PlaneDmaField::contiguous(0, 7);
        ins.switch
            .route(&kb, SourceRef::PlaneRead(PlaneId(0)), SinkRef::SduIn(nsc_arch::SduId(0)))
            .unwrap();
        ins.switch
            .route(&kb, SourceRef::SduTap(nsc_arch::SduId(0), 0), SinkRef::FuIn(FuId(0), InPort::A))
            .unwrap();
        ins.switch
            .route(&kb, SourceRef::SduTap(nsc_arch::SduId(0), 1), SinkRef::FuIn(FuId(0), InPort::B))
            .unwrap();
        ins.switch.route(&kb, SourceRef::Fu(FuId(0)), SinkRef::PlaneWrite(PlaneId(1))).unwrap();
        execute_instruction(&kb, &ins, &mut mem, &mut counters).expect("runs");
        let out = mem.planes[1].read_vec(0, 7);
        for i in 0..7usize {
            let expect = u[i + 3] - u[i];
            assert_eq!(out[i], expect, "at {i}");
        }
    }

    #[test]
    fn queue_delay_aligns_two_paths() {
        // out[i] = |u[i]| + u[i]: one path through an ABS unit (3 cycles),
        // one direct with a 3-deep compensation queue.
        let kb = kb();
        let (mut mem, mut counters) = setup(&kb);
        let u = [-1.0, 2.0, -3.0, 4.0, -5.0];
        mem.planes[0].write_slice(0, &u);
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
        execute_instruction(&kb, &ins, &mut mem, &mut counters).expect("runs");
        let out = mem.planes[1].read_vec(0, 5);
        for i in 0..5usize {
            assert_eq!(out[i], u[i].abs() + u[i], "at {i}");
        }
    }

    #[test]
    fn unrouted_write_hangs_with_diagnosis() {
        let kb = kb();
        let (mut mem, mut counters) = setup(&kb);
        let mut ins = MicroInstruction::empty(&kb);
        *ins.plane_rd_mut(PlaneId(0)) = PlaneDmaField::contiguous(0, 4);
        *ins.plane_wr_mut(PlaneId(1)) = PlaneDmaField::contiguous(0, 4);
        // no switch routes at all: the write starves
        match execute_instruction(&kb, &ins, &mut mem, &mut counters) {
            Err(ExecError::Hang { detail }) => assert!(detail.contains("MP1.wr")),
            other => panic!("expected hang, got {other:?}"),
        }
    }

    #[test]
    fn idle_instruction_costs_only_setup() {
        let kb = kb();
        let (mut mem, mut counters) = setup(&kb);
        let ins = MicroInstruction::empty(&kb);
        execute_instruction(&kb, &ins, &mut mem, &mut counters).expect("runs");
        assert_eq!(counters.cycles, SETUP_CYCLES);
        assert_eq!(counters.instructions, 1);
    }

    #[test]
    fn exceptions_counted_for_nonfinite_results() {
        let kb = kb();
        let (mut mem, mut counters) = setup(&kb);
        mem.planes[0].write_slice(0, &[1.0, 0.0, 4.0]);
        let mut ins = MicroInstruction::empty(&kb);
        *ins.fu_mut(FuId(0)) = FuField::active(FuOp::Recip);
        *ins.plane_rd_mut(PlaneId(0)) = PlaneDmaField::contiguous(0, 3);
        *ins.plane_wr_mut(PlaneId(1)) = PlaneDmaField::contiguous(0, 3);
        ins.switch
            .route(&kb, SourceRef::PlaneRead(PlaneId(0)), SinkRef::FuIn(FuId(0), InPort::A))
            .unwrap();
        ins.switch.route(&kb, SourceRef::Fu(FuId(0)), SinkRef::PlaneWrite(PlaneId(1))).unwrap();
        execute_instruction(&kb, &ins, &mut mem, &mut counters).expect("runs");
        assert_eq!(counters.exceptions, 1, "1/0 trapped");
        assert_eq!(mem.planes[1].read(2), 0.25);
    }

    #[test]
    fn trace_records_last_source_values() {
        let kb = kb();
        let (mut mem, mut counters) = setup(&kb);
        mem.planes[0].write_slice(0, &[1.0, 2.0, 9.0]);
        let mut ins = MicroInstruction::empty(&kb);
        *ins.fu_mut(FuId(0)) = FuField::active(FuOp::Copy);
        *ins.plane_rd_mut(PlaneId(0)) = PlaneDmaField::contiguous(0, 3);
        *ins.plane_wr_mut(PlaneId(1)) = PlaneDmaField::contiguous(0, 3);
        ins.switch
            .route(&kb, SourceRef::PlaneRead(PlaneId(0)), SinkRef::FuIn(FuId(0), InPort::A))
            .unwrap();
        ins.switch.route(&kb, SourceRef::Fu(FuId(0)), SinkRef::PlaneWrite(PlaneId(1))).unwrap();
        let trace = execute_instruction(&kb, &ins, &mut mem, &mut counters).expect("runs");
        assert_eq!(trace.value_of(&kb, SourceRef::PlaneRead(PlaneId(0))), Some(9.0));
        assert_eq!(trace.value_of(&kb, SourceRef::Fu(FuId(0))), Some(9.0));
        assert_eq!(trace.value_of(&kb, SourceRef::Fu(FuId(5))), None);
    }

    #[test]
    fn small_machine_configs_also_execute() {
        let kb = KnowledgeBase::new(MachineConfig::test_small());
        let (mut mem, mut counters) = setup(&kb);
        mem.planes[0].write_slice(0, &[5.0; 8]);
        let mut ins = MicroInstruction::empty(&kb);
        *ins.fu_mut(FuId(0)) = FuField::active(FuOp::Neg);
        *ins.plane_rd_mut(PlaneId(0)) = PlaneDmaField::contiguous(0, 8);
        *ins.plane_wr_mut(PlaneId(1)) = PlaneDmaField::contiguous(0, 8);
        ins.switch
            .route(&kb, SourceRef::PlaneRead(PlaneId(0)), SinkRef::FuIn(FuId(0), InPort::A))
            .unwrap();
        ins.switch.route(&kb, SourceRef::Fu(FuId(0)), SinkRef::PlaneWrite(PlaneId(1))).unwrap();
        execute_instruction(&kb, &ins, &mut mem, &mut counters).expect("runs");
        assert_eq!(mem.planes[1].read_vec(0, 8), vec![-5.0; 8]);
    }
}
