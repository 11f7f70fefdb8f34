//! # nsc-cfd — the paper's computational fluid dynamics workloads
//!
//! The NSC exists "to solve large computational fluid dynamics problems"
//! (§1), and the paper's running example (§4, Equation 1, Figures 2 and 11)
//! is "a point Jacobi update for the 3-D Poisson equation on a uniform grid
//! with a residual convergence check", drawn from the multigrid work of
//! Nosenchuck, Krist & Zang (paper ref. \[6\]).
//!
//! This crate provides:
//!
//! * [`grid`] — flat 3-D grids with the padded memory layout the NSC
//!   stencil streams require (front/back halos of one xy-plane);
//! * [`host`] — host reference solvers: a point-Jacobi sweep that mirrors
//!   the NSC pipeline's operation tree *exactly* (so simulator output can
//!   be compared bit-for-bit), plus an SOR sweep — test oracles and bench
//!   baselines;
//! * [`multigrid`] — the ref-\[6\] V-cycle (full-weighting restriction,
//!   trilinear prolongation, Jacobi smoothing) on the host: the serial
//!   oracle the distributed V-cycle matches bit for bit, and the point
//!   kernels it shares with it;
//! * [`diagrams`] — builders that construct the paper's pipeline diagrams
//!   programmatically: the Figure 2/11 Jacobi document (shift/delay-unit
//!   stencil streams, masked update, feedback residual reduction), the
//!   no-SDU variant (array copies in extra planes, §3's "multiple copies
//!   of arrays"), the subset-model variant, and a compute-bound Chebyshev
//!   kernel for the T4 ablation;
//! * [`nsc_run`] — the paper's Figure 2/11 Jacobi document on one
//!   simulated node ([`run_jacobi`]): it loads the problem, compiles the
//!   document through `nsc_core::Session`, runs the generated microcode
//!   with its convergence loop, and returns `nsc_core::NscError` at every
//!   fallible stage;
//! * [`partition`] — topology-aware domain decomposition behind the
//!   [`Partition`] trait: one decomposition, [`BlockPartition`] (2-D
//!   blocks on a Gray-embedded torus; strips of planes on the Gray ring
//!   are its one-column torus), with one-layer ghost faces refreshed
//!   through the hyperspace router on the axes a [`HaloSpec`] names, by
//!   one walk over the partition's boundary list that the route
//!   certificate walks too;
//! * [`distributed`] — the decomposed solvers, one `nsc_core::Workload`
//!   per method whose cube of dimension 0 is the serial case: Jacobi
//!   compiled per node slab and run concurrently across the cube
//!   (bit-identical to the serial sweeps), and block SOR with
//!   router-charged halos — both decomposition-agnostic over the
//!   [`Partition`] trait;
//! * [`mg_distributed`] — the ref-\[6\] V-cycle machine-resident on 2-D
//!   blocks, bit-identical to the serial [`vcycle`] at every cube size;
//! * [`overlap`] — the **sweep engine** every distributed workload runs
//!   through, with one choreography: each sweep splits into an interior
//!   pipeline (no ghost dependency) and boundary-shell pipelines per halo
//!   face, and the halo sendrecvs travel concurrently with the interior
//!   phase, charging each node only the non-overlapped remainder —
//!   bit-identical to a whole-slab sweep on every owned point;
//! * [`cavity`] — the lid-driven cavity (vorticity–stream-function, after
//!   Matyka physics/0407002), whose per-step stream-function Poisson
//!   solve *and* vorticity transport run through the distributed 2-D
//!   pipelines end-to-end.

pub mod cavity;
pub mod certify;
pub mod diagrams;
pub mod distributed;
pub mod grid;
pub mod host;
pub mod mg_distributed;
pub mod multigrid;
pub mod nsc_run;
pub mod overlap;
pub mod partition;

pub use self::cavity::{CavityRun, CavityWorkload, Poisson2dSolver, VorticityTransport};
pub use self::certify::{halo_routes, window_coverage};
pub use self::diagrams::{
    build_chebyshev_document, build_damped_jacobi_sweep_document_windows,
    build_jacobi2d_sweep_document_windows, build_jacobi_document,
    build_jacobi_sweep_document_windows, JacobiVariant,
};
pub use self::distributed::{
    DistributedJacobiRun, DistributedJacobiWorkload, DistributedSorRun, DistributedSorWorkload,
};
pub use self::grid::{Grid2, Grid3, PaddedField};
pub use self::host::{jacobi_sweep_host, residual_linf, sor_sweep_host, JacobiHostState};
pub use self::mg_distributed::{DistributedMultigridRun, DistributedMultigridWorkload};
pub use self::multigrid::{vcycle, MgOptions, MgStats};
pub use self::nsc_run::{load_problem, run_jacobi, run_jacobi_on_node, JacobiRun};
pub use self::overlap::{CompiledSweep, SweepEngine, SweepIo};
pub use self::partition::{
    host_halo_exchange, read_slabs, AxisSpan, BlockPartition, GridShape, HaloSpec, Part, Partition,
    PartitionSpec, StripPartition, SweepSplit, SweepWindow,
};
