//! One simulated NSC node: sequencer + executor + storage + counters.
//!
//! Paper §2: "A central sequencer provides high-level control flow."
//! [`NodeSim::run_program`] walks a [`MicroProgram`]: each instruction runs
//! to its completion interrupt, then the sequencer field is honoured —
//! loop-counter presets, the interrupt-evaluated conditional branch
//! (reading a scalar from a data cache, e.g. the Jacobi residual), and the
//! unconditional control (fall through / jump / counted loop / halt).

use crate::counters::PerfCounters;
use crate::exec::{execute_instruction, ExecError, SourceTrace};
use crate::kernel::{CompiledKernel, StreamBuffers};
use crate::memory::NodeMemory;
use nsc_arch::KnowledgeBase;
use nsc_microcode::{MicroProgram, SeqCtl};

/// Why a program stopped.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HaltReason {
    /// An explicit HALT sequencer control.
    Halt,
    /// Control fell off the end of the instruction list.
    EndOfProgram,
    /// The safety limit on executed instructions was reached.
    MaxInstructions,
}

/// Options for a program run.
#[derive(Debug, Clone)]
pub struct RunOptions {
    /// Safety cap on executed instructions (loops!).
    pub max_instructions: u64,
    /// Keep per-instruction source traces (visual debugger feed); capped
    /// at `trace_cap` entries.
    pub trace: bool,
    /// Maximum retained traces.
    pub trace_cap: usize,
}

impl Default for RunOptions {
    fn default() -> Self {
        RunOptions { max_instructions: 1_000_000, trace: false, trace_cap: 1024 }
    }
}

/// Result of a program run.
#[derive(Debug, Clone)]
pub struct RunStats {
    /// Why execution stopped.
    pub halted: HaltReason,
    /// Instructions executed (counting loop iterations).
    pub executed: u64,
    /// Per-instruction traces `(pc, trace)` when requested.
    pub traces: Vec<(usize, SourceTrace)>,
}

/// One simulated node.
#[derive(Debug, Clone)]
pub struct NodeSim {
    /// Machine description this node simulates.
    pub kb: KnowledgeBase,
    /// Planes and caches.
    pub mem: NodeMemory,
    /// Cumulative performance counters.
    pub counters: PerfCounters,
    loop_counters: [u32; 16],
    /// The kernel's element buffers, reused by every specialized
    /// instruction this node runs; not copied by `clone`.
    pub(crate) streams: StreamBuffers,
}

impl NodeSim {
    /// A fresh node for the given machine.
    pub fn new(kb: KnowledgeBase) -> Self {
        let mem = NodeMemory::new(kb.config());
        NodeSim {
            kb,
            mem,
            counters: PerfCounters::default(),
            loop_counters: [0; 16],
            streams: StreamBuffers::default(),
        }
    }

    /// A fresh 1988 node.
    pub fn nsc_1988() -> Self {
        Self::new(KnowledgeBase::nsc_1988())
    }

    /// Reset counters (memory is kept).
    pub fn reset_counters(&mut self) {
        self.counters = PerfCounters::default();
    }

    /// Run a program from instruction 0 through the interpreter.
    pub fn run_program(
        &mut self,
        prog: &MicroProgram,
        opts: &RunOptions,
    ) -> Result<RunStats, ExecError> {
        self.run_program_with_kernel(prog, None, opts)
    }

    /// Run a program, executing instructions through a pre-compiled
    /// [`CompiledKernel`] where one is supplied and covers them.
    ///
    /// Specialized instructions produce bit-identical memory effects,
    /// counters and traces to the interpreter; unspecialized ones (and any
    /// program the kernel was not built for) interpret as usual.
    pub fn run_program_with_kernel(
        &mut self,
        prog: &MicroProgram,
        kernel: Option<&CompiledKernel>,
        opts: &RunOptions,
    ) -> Result<RunStats, ExecError> {
        // A kernel for a different program would index the wrong plans.
        let kernel = kernel.filter(|k| k.instructions() == prog.instrs.len());
        let mut pc: usize = 0;
        let mut executed: u64 = 0;
        let mut traces = Vec::new();
        loop {
            if pc >= prog.instrs.len() {
                return Ok(RunStats { halted: HaltReason::EndOfProgram, executed, traces });
            }
            if executed >= opts.max_instructions {
                return Ok(RunStats { halted: HaltReason::MaxInstructions, executed, traces });
            }
            let ins = &prog.instrs[pc];
            // Loop-counter preset happens at instruction start (headers).
            if let Some((ctr, val)) = ins.seq.set_counter {
                self.loop_counters[ctr as usize & 15] = val;
            }
            let trace = match kernel.and_then(|k| k.plan(pc)) {
                Some(plan) => crate::kernel::run_plan(
                    plan,
                    &mut self.mem,
                    &mut self.counters,
                    &mut self.streams,
                    opts.trace,
                ),
                None => execute_instruction(&self.kb, ins, &mut self.mem, &mut self.counters)?,
            };
            executed += 1;
            if opts.trace && traces.len() < opts.trace_cap {
                traces.push((pc, trace));
            }
            // Conditional branch first (the interrupt scheme evaluates the
            // condition at pipeline completion)...
            let mut next = None;
            if let Some(c) = &ins.seq.cond {
                let v = self.mem.cache(c.cache).read(0, c.offset as u64);
                if c.cmp.eval(v, c.threshold) {
                    next = Some(c.target as usize);
                }
            }
            // ...then the unconditional control.
            pc = match next {
                Some(t) => t,
                None => match ins.seq.ctl {
                    SeqCtl::Next => pc + 1,
                    SeqCtl::Jump(t) => t as usize,
                    SeqCtl::Halt => {
                        return Ok(RunStats { halted: HaltReason::Halt, executed, traces })
                    }
                    SeqCtl::DecJnz { ctr, target } => {
                        let c = &mut self.loop_counters[ctr as usize & 15];
                        *c = c.saturating_sub(1);
                        if *c > 0 {
                            target as usize
                        } else {
                            pc + 1
                        }
                    }
                },
            };
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nsc_arch::{CacheId, FuId, FuOp, InPort, PlaneId, SinkRef, SourceRef};
    use nsc_microcode::{
        CacheDmaField, CmpKind, CondBranch, FuField, FuInputSel, MicroInstruction, PlaneDmaField,
        ProgramBuilder,
    };

    fn kb() -> KnowledgeBase {
        KnowledgeBase::nsc_1988()
    }

    /// An instruction that doubles `count` words from plane 0 into plane 0
    /// (reads plane 0, writes plane 1, then a second instruction copies
    /// back — or simpler: ping-pongs by parameterization).
    fn scale_instr(kb: &KnowledgeBase, from: u8, to: u8, count: u32, k: f64) -> MicroInstruction {
        let mut ins = MicroInstruction::empty(kb);
        *ins.fu_mut(FuId(0)) = FuField {
            enabled: true,
            op: FuOp::Mul,
            in_a: FuInputSel::Switch,
            in_b: FuInputSel::Constant(0),
            const_slot: 0,
            preload: Some(k),
        };
        *ins.plane_rd_mut(PlaneId(from)) = PlaneDmaField::contiguous(0, count);
        *ins.plane_wr_mut(PlaneId(to)) = PlaneDmaField::contiguous(0, count);
        ins.switch
            .route(kb, SourceRef::PlaneRead(PlaneId(from)), SinkRef::FuIn(FuId(0), InPort::A))
            .unwrap();
        ins.switch.route(kb, SourceRef::Fu(FuId(0)), SinkRef::PlaneWrite(PlaneId(to))).unwrap();
        ins
    }

    #[test]
    fn straight_line_program_halts_at_end() {
        let kb = kb();
        let mut node = NodeSim::new(kb.clone());
        node.mem.planes[0].write_slice(0, &[1.0, 2.0, 3.0]);
        let mut b = ProgramBuilder::new(&kb, "scale-twice");
        b.push(scale_instr(&kb, 0, 1, 3, 2.0));
        b.push(scale_instr(&kb, 1, 2, 3, 10.0));
        let prog = b.finish();
        let stats = node.run_program(&prog, &RunOptions::default()).expect("runs");
        assert_eq!(stats.halted, HaltReason::EndOfProgram);
        assert_eq!(stats.executed, 2);
        assert_eq!(node.mem.planes[2].read_vec(0, 3), vec![20.0, 40.0, 60.0]);
    }

    #[test]
    fn counted_loop_executes_exactly_n_times() {
        let kb = kb();
        let mut node = NodeSim::new(kb.clone());
        node.mem.planes[0].write_slice(0, &[1.0]);
        // header presets ctr0=5; body doubles plane0[0] in place via plane1.
        let mut b = ProgramBuilder::new(&kb, "loop");
        let mut header = MicroInstruction::empty(&kb);
        header.seq.set_counter = Some((0, 5));
        b.push(header);
        b.push(scale_instr(&kb, 0, 1, 1, 2.0));
        let i2 = b.push(scale_instr(&kb, 1, 0, 1, 1.0));
        b.instr_mut(i2).seq.ctl = nsc_microcode::SeqCtl::DecJnz { ctr: 0, target: 1 };
        let prog = b.finish();
        let stats = node.run_program(&prog, &RunOptions::default()).expect("runs");
        // 5 iterations of x2 => 32.
        assert_eq!(node.mem.planes[0].read(0), 32.0);
        assert_eq!(stats.executed, 1 + 5 * 2);
    }

    #[test]
    fn conditional_branch_reads_cache_scalar() {
        let kb = kb();
        let mut node = NodeSim::new(kb.clone());
        node.mem.planes[0].write_slice(0, &[100.0]);
        // Loop: halve plane0[0] (through plane1 and back), write the value
        // into cache0[0]; repeat until < 1.0.
        let mut b = ProgramBuilder::new(&kb, "halve-until");
        let mut header = MicroInstruction::empty(&kb);
        header.seq.set_counter = Some((0, 100));
        b.push(header);
        let mut halve = scale_instr(&kb, 0, 1, 1, 0.5);
        // Also capture the halved value into cache 0.
        *halve.cache_wr_mut(CacheId(0)) = CacheDmaField::scalar_capture(0);
        halve.switch.route(&kb, SourceRef::Fu(FuId(0)), SinkRef::CacheWrite(CacheId(0))).unwrap();
        b.push(halve);
        let back = b.push(scale_instr(&kb, 1, 0, 1, 1.0));
        b.instr_mut(back).seq.cond = Some(CondBranch {
            cache: CacheId(0),
            offset: 0,
            cmp: CmpKind::Lt,
            threshold: 1.0,
            target: 4, // past the end -> halts
        });
        b.instr_mut(back).seq.ctl = nsc_microcode::SeqCtl::DecJnz { ctr: 0, target: 1 };
        let prog = b.finish();
        let stats = node.run_program(&prog, &RunOptions::default()).expect("runs");
        // 100 -> 50 -> ... -> 0.78125 after 7 halvings.
        assert!((node.mem.planes[0].read(0) - 0.78125).abs() < 1e-12);
        assert_eq!(stats.executed, 1 + 7 * 2, "stopped by convergence, not the counter");
    }

    #[test]
    fn max_instruction_guard_stops_infinite_loops() {
        let kb = kb();
        let mut node = NodeSim::new(kb.clone());
        let mut b = ProgramBuilder::new(&kb, "forever");
        let i0 = b.push(MicroInstruction::empty(&kb));
        b.instr_mut(i0).seq.ctl = nsc_microcode::SeqCtl::Jump(0);
        let prog = b.finish();
        let stats = node
            .run_program(&prog, &RunOptions { max_instructions: 50, ..Default::default() })
            .expect("guard trips cleanly");
        assert_eq!(stats.halted, HaltReason::MaxInstructions);
        assert_eq!(stats.executed, 50);
    }

    #[test]
    fn traces_capture_per_instruction_values() {
        let kb = kb();
        let mut node = NodeSim::new(kb.clone());
        node.mem.planes[0].write_slice(0, &[4.0, 9.0]);
        let mut b = ProgramBuilder::new(&kb, "probe");
        b.push(scale_instr(&kb, 0, 1, 2, 3.0));
        let prog = b.finish();
        let stats = node
            .run_program(&prog, &RunOptions { trace: true, ..Default::default() })
            .expect("runs");
        assert_eq!(stats.traces.len(), 1);
        let (pc, trace) = &stats.traces[0];
        assert_eq!(*pc, 0);
        assert_eq!(trace.value_of(&kb, SourceRef::Fu(FuId(0))), Some(27.0));
    }
}
