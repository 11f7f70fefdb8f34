//! # A Visual Programming Environment for the Navier-Stokes Computer
//!
//! A full Rust reproduction of S. Tomboulian, T. W. Crockett and
//! D. Middleton, *"A Visual Programming Environment for the Navier-Stokes
//! Computer"* (ICASE Report 88-6 / NASA CR-181615, ICPP 1988).
//!
//! This umbrella crate re-exports the whole workspace:
//!
//! | module | crate | contents |
//! |---|---|---|
//! | [`arch`] | `nsc-arch` | NSC machine description and knowledge base |
//! | [`microcode`] | `nsc-microcode` | the few-thousand-bit instruction word |
//! | [`diagram`] | `nsc-diagram` | pipeline diagrams (the semantic data structures) |
//! | [`checker`] | `nsc-checker` | the architecture rule engine |
//! | [`cert`] | `nsc-cert` | compile certificates + the independent fail-closed verifier |
//! | [`editor`] | `nsc-editor` | the event-driven graphical editor core |
//! | [`codegen`] | `nsc-codegen` | diagrams to microcode, with stream alignment |
//! | [`sim`] | `nsc-sim` | cycle-level node simulator + hypercube system |
//! | [`expr`] | `nsc-expr` | the §3 compilation/allocation problem |
//! | [`cfd`] | `nsc-cfd` | 3-D Poisson Jacobi (Equation 1), SOR, multigrid |
//! | [`mod@env`] | `nsc-core` | the integrated environment, the `Session` compile-and-run pipeline + visual debugger |
//! | [`park`] | `nsc-park` | machine-park job service: queue, schedule, and serve many workloads on one machine |
//! | [`ensemble`] | `nsc-ensemble` | compile-once parameter sweeps over the machine park |
//!
//! See `README.md` for the quickstart and `ARCHITECTURE.md` for the crate
//! map, the compile pipeline and the two timing domains.

pub use nsc_arch as arch;
pub use nsc_cert as cert;
pub use nsc_cfd as cfd;
pub use nsc_checker as checker;
pub use nsc_codegen as codegen;
pub use nsc_core as env;
pub use nsc_diagram as diagram;
pub use nsc_editor as editor;
pub use nsc_ensemble as ensemble;
pub use nsc_expr as expr;
pub use nsc_microcode as microcode;
pub use nsc_park as park;
pub use nsc_sim as sim;
