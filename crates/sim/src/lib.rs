//! # nsc-sim — a cycle-level simulator for the Navier-Stokes Computer
//!
//! The machine the paper targets was never completed — "there is no means
//! of running actual NSC programs" (§4) — so this crate provides the
//! substitute substrate: a functional, cycle-level model of one NSC node
//! that executes the microcode emitted by `nsc-codegen`, plus the
//! hypercube system of nodes connected by the hyperspace router.
//!
//! The node model follows §2 exactly:
//!
//! * per-plane and per-cache **DMA controllers** "pump data through the
//!   pipelines" at one word per clock;
//! * **functional units** consume one element per clock once full, with the
//!   pipeline depths of [`nsc_arch::LatencyTable`];
//! * **register files** provide constants, feedback accumulators and the
//!   circular delay queues that align vector streams;
//! * **shift/delay units** re-emit one input stream on delayed taps;
//! * the **sequencer** walks the instruction list, presetting loop
//!   counters, and the **interrupt scheme** signals pipeline completion,
//!   evaluates convergence conditions against cache scalars, and counts
//!   arithmetic exceptions;
//! * performance counters report cycles and FLOPs so that a saturated node
//!   measurably approaches the published 640 MFLOPS peak (experiment T1).
//!
//! Two execution paths share these semantics: the lockstep interpreter in
//! [`exec`] (the reference model) and the host fast path in [`kernel`],
//! which specializes instructions into flat element loops at compile time
//! while charging identical simulated cycles. See `ARCHITECTURE.md` at the
//! repository root for how the paths fit into the wider pipeline.

#![warn(missing_docs)]

pub mod counters;
pub mod exec;
pub mod kernel;
pub mod memory;
pub mod node;
pub mod system;

pub use self::counters::PerfCounters;
pub use self::exec::{ExecError, SourceTrace};
pub use self::kernel::{CompiledKernel, KernelPlanSummary};
pub use self::memory::{DataCache, MemoryPlane, NodeMemory};
pub use self::node::{HaltReason, NodeSim, RunOptions, RunStats};
pub use self::system::{NscSystem, SystemRunMetrics};
