//! The kernel fast path must be invisible. Every distributed workload, at
//! every cube size from 1 to 8 nodes, must produce bit-identical grids,
//! residuals, counters and simulated time whether the session specializes
//! native kernels (the default) or forces the cycle-accurate interpreter
//! (`Session::with_fast_path(false)`).
//!
//! These are the acceptance tests for the fast-path executor: the kernels
//! may only change *host* wall-clock, never a single simulated bit.

use nsc_arch::HypercubeConfig;
use nsc_cfd::grid::manufactured_problem;
use nsc_cfd::{
    CavityWorkload, DistributedJacobiWorkload, DistributedMultigridWorkload,
    DistributedSorWorkload, PartitionSpec,
};
use nsc_core::{Session, Workload};
use nsc_sim::{NscSystem, SystemRunMetrics};

/// A kernel-compiling session and its interpreter-only reference twin.
fn session_pair() -> (Session, Session) {
    let fast = Session::nsc_1988();
    let interp = Session::nsc_1988().with_fast_path(false);
    assert!(fast.fast_path());
    assert!(!interp.fast_path());
    (fast, interp)
}

fn system(dim: u32, session: &Session) -> NscSystem {
    NscSystem::new(HypercubeConfig::new(dim), session.kb())
}

fn assert_grids_bit_equal(a: &[f64], b: &[f64], what: &str) {
    assert_eq!(a.len(), b.len(), "{what}: grid sizes differ");
    for (i, (x, y)) in a.iter().zip(b).enumerate() {
        assert_eq!(x.to_bits(), y.to_bits(), "{what}: word {i} differs ({x} vs {y})");
    }
}

/// Every counter, and the simulated time and rate to the bit.
fn assert_metrics_bit_equal(a: &SystemRunMetrics, b: &SystemRunMetrics, tag: &str) {
    assert_eq!(a.per_node, b.per_node, "{tag}: per-node counters");
    assert_eq!(a.total, b.total, "{tag}: aggregate counters");
    assert_eq!(
        a.simulated_seconds.to_bits(),
        b.simulated_seconds.to_bits(),
        "{tag}: simulated time"
    );
    assert_eq!(a.aggregate_mflops.to_bits(), b.aggregate_mflops.to_bits(), "{tag}: MFLOPS");
}

#[test]
fn distributed_jacobi_is_bit_identical_with_and_without_kernels() {
    let (fast, interp) = session_pair();
    for dim in 0..=3u32 {
        let (u0, f, _) = manufactured_problem(12);
        let w = DistributedJacobiWorkload::new(u0, f, 0.0, 2, PartitionSpec::Auto);
        let a = w.execute(&fast, &mut system(dim, &fast)).expect("kernel run");
        let b = w.execute(&interp, &mut system(dim, &interp)).expect("interpreted run");
        let tag = format!("jacobi dim {dim}");
        assert_grids_bit_equal(&a.u.data, &b.u.data, &tag);
        assert_eq!(a.residual.to_bits(), b.residual.to_bits(), "{tag}: residual");
        assert_eq!(a.sweeps, b.sweeps, "{tag}: sweeps");
        assert_eq!(a.converged, b.converged, "{tag}: converged");
        assert_metrics_bit_equal(&a.metrics, &b.metrics, &tag);
    }
    // The fast twin really compiled kernels; the reference twin never did.
    assert!(fast.cache_stats().misses > 0, "the fast session must have built kernels");
    assert!(fast.cache_stats().entries > 0);
    assert!(interp.cache_stats().entries == 0, "the interpreter session must stay kernel-free");
}

#[test]
fn distributed_sor_is_bit_identical_with_and_without_kernels() {
    let (fast, interp) = session_pair();
    for dim in 0..=3u32 {
        let (u0, f, _) = manufactured_problem(12);
        let w = DistributedSorWorkload {
            u0,
            f,
            omega: 1.5,
            tol: 0.0,
            max_sweeps: 3,
            partition: PartitionSpec::Auto,
        };
        let a = w.execute(&fast, &mut system(dim, &fast)).expect("kernel run");
        let b = w.execute(&interp, &mut system(dim, &interp)).expect("interpreted run");
        let tag = format!("sor dim {dim}");
        assert_grids_bit_equal(&a.u.data, &b.u.data, &tag);
        assert_eq!(a.residual.to_bits(), b.residual.to_bits(), "{tag}: residual");
        assert_eq!(a.sweeps, b.sweeps, "{tag}: sweeps");
        assert_eq!(a.converged, b.converged, "{tag}: converged");
        assert_eq!(a.comm_ns, b.comm_ns, "{tag}: router time");
    }
}

#[test]
fn distributed_multigrid_is_bit_identical_with_and_without_kernels() {
    let (fast, interp) = session_pair();
    for dim in 0..=3u32 {
        // Multigrid wants a cubic 2^m + 1 grid; 9^3 descends 9 -> 5 -> 3.
        let w = DistributedMultigridWorkload::manufactured(9, 0.8, 0.0, 2);
        let a = w.execute(&fast, &mut system(dim, &fast)).expect("kernel run");
        let b = w.execute(&interp, &mut system(dim, &interp)).expect("interpreted run");
        let tag = format!("multigrid dim {dim}");
        assert_grids_bit_equal(&a.u.data, &b.u.data, &tag);
        assert_eq!(a.residual.to_bits(), b.residual.to_bits(), "{tag}: residual");
        assert_eq!(a.stats.cycles, b.stats.cycles, "{tag}: cycles");
        for (x, y) in a.stats.residual_history.iter().zip(&b.stats.residual_history) {
            assert_eq!(x.to_bits(), y.to_bits(), "{tag}: residual history");
        }
        assert_metrics_bit_equal(&a.metrics, &b.metrics, &tag);
    }
    assert!(fast.cache_stats().misses > 0);
}

#[test]
fn cavity_is_bit_identical_with_and_without_kernels() {
    let (fast, interp) = session_pair();
    for dim in 0..=3u32 {
        let mut w = CavityWorkload::new(9, 10.0, 2);
        w.psi_tol = 1e-6;
        let a = w.execute(&fast, &mut system(dim, &fast)).expect("kernel run");
        let b = w.execute(&interp, &mut system(dim, &interp)).expect("interpreted run");
        let tag = format!("cavity dim {dim}");
        assert_grids_bit_equal(&a.psi.data, &b.psi.data, &format!("{tag}: psi"));
        assert_grids_bit_equal(&a.omega.data, &b.omega.data, &format!("{tag}: omega"));
        assert_grids_bit_equal(&a.u.data, &b.u.data, &format!("{tag}: u"));
        assert_grids_bit_equal(&a.v.data, &b.v.data, &format!("{tag}: v"));
        assert_eq!(a.psi_pairs, b.psi_pairs, "{tag}: solve pairs");
        assert_eq!(a.last_residual.to_bits(), b.last_residual.to_bits(), "{tag}: residual");
        assert_metrics_bit_equal(&a.metrics, &b.metrics, &tag);
    }
    assert!(fast.cache_stats().misses > 0);
}
