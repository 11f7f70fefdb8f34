//! # nsc-core — the integrated visual programming environment
//!
//! Paper Figure 3 shows the system's three components — graphical editor,
//! checker with its machine-specific knowledge base, and microcode
//! generator — and how the user's diagrams flow through them into an
//! executable program. [`VisualEnvironment`] is that integration: one
//! object owning the knowledge base, handing out checker-connected
//! editors, validating documents, generating microcode and executing it on
//! the simulated machine.
//!
//! It also implements the two §6 extensions the paper proposes:
//!
//! * **visual debugging** — "During execution, each new instruction would
//!   display the corresponding pipeline diagram, annotated to show data
//!   values flowing through the pipeline." [`VisualEnvironment::debug_run`]
//!   captures per-instruction source traces from the simulator and renders
//!   each pipeline diagram with its live pad values attached;
//! * **compiler back end** — "The visual environment might also be useful
//!   as a back end to a compiler, displaying the results of the
//!   compilation process." [`VisualEnvironment::display_document`] renders
//!   any generated document (e.g. from `nsc-expr`'s mapper) as diagrams.
//!
//! ## Quickstart: the typed stage pipeline
//!
//! Compiling and running a document is a [`Session`] producing a
//! [`CompiledProgram`]; every stage (auto-bind, global check, codegen,
//! execution) reports through the one workspace error type, [`NscError`]:
//!
//! ```
//! use nsc_arch::{AlsKind, FuOp, InPort, MachineConfig, PlaneId};
//! use nsc_core::Session;
//! use nsc_diagram::{DmaAttrs, Document, FuAssign, IconKind, PadLoc, PadRef};
//! use nsc_sim::RunOptions;
//!
//! # fn main() -> Result<(), nsc_core::NscError> {
//! // Draw: plane 0 -> (x * 2) -> plane 1.
//! let mut doc = Document::new("double");
//! let pid = doc.add_pipeline("double");
//! let d = doc.pipeline_mut(pid).unwrap();
//! d.stream_len = 4;
//! let src = d.add_icon(IconKind::Memory { plane: Some(PlaneId(0)) });
//! let als = d.add_icon(IconKind::als(AlsKind::Singlet));
//! let dst = d.add_icon(IconKind::Memory { plane: Some(PlaneId(1)) });
//! d.connect(
//!     PadLoc::new(src, PadRef::Io),
//!     PadLoc::new(als, PadRef::FuIn { pos: 0, port: InPort::A }),
//!     Some(DmaAttrs::at_address(0)),
//! )?;
//! d.assign_fu(als, 0, FuAssign::with_const(FuOp::Mul, 2.0))?;
//! d.connect(
//!     PadLoc::new(als, PadRef::FuOut { pos: 0 }),
//!     PadLoc::new(dst, PadRef::Io),
//!     Some(DmaAttrs::at_address(0)),
//! )?;
//!
//! // Compile (bind + check + generate) and run through the typed stages.
//! let session = Session::new(MachineConfig::nsc_1988());
//! let compiled = session.compile(&mut doc)?;
//! let mut node = session.node();
//! node.mem.plane_mut(PlaneId(0)).write_slice(0, &[1.0, 2.0, 3.0, 4.0]);
//! let report = compiled.run(&mut node, &RunOptions::default())?;
//! assert_eq!(node.mem.plane(PlaneId(1)).read_vec(0, 4), vec![2.0, 4.0, 6.0, 8.0]);
//! assert!(report.counters.flops >= 4);
//! # Ok(())
//! # }
//! ```
//!
//! [`run_lanes`] runs compiled programs on many nodes at once, one
//! (node, program) lane per node — the one node-run driver, which the
//! distributed solvers build on; the [`Workload`] trait packages whole
//! solver problems on a simulated hypercube (see `nsc-cfd`'s distributed
//! Jacobi, SOR and multigrid workloads and its cavity) behind the session.

#![warn(missing_docs)]

pub mod certify;
pub mod debugger;
pub mod environment;
pub mod error;
pub mod session;

pub use self::debugger::{DebugFrame, DebugReport};
pub use self::environment::VisualEnvironment;
pub use self::error::{DiagnosticSet, NscError};
pub use self::session::{
    run_lanes, CacheStats, CertificateLog, CompiledProgram, RunReport, Session, Workload,
};
