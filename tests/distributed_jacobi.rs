//! The distributed-solver acceptance bar: on an 8-node hypercube the
//! strip-decomposed Jacobi workload must converge to the *same* solution
//! as the paper's serial Jacobi document on one node — and it does better
//! than the 1e-9 max-norm requirement: the bits agree exactly, because
//! halo exchange feeds every sweep the same neighbour values the serial
//! stencil sees.

use nsc::arch::HypercubeConfig;
use nsc::cfd::{run_jacobi, DistributedJacobiWorkload, JacobiVariant};
use nsc::env::{Session, Workload};
use nsc::sim::NscSystem;

#[test]
fn eight_node_distributed_jacobi_matches_the_serial_solution() {
    let n = 11;
    let (u0, f, exact) = nsc::cfd::grid::manufactured_problem(n);
    let tol = 1e-9;
    let session = Session::nsc_1988();

    let mut node = session.node();
    let sref = run_jacobi(&session, &mut node, &u0, &f, tol, 2000, JacobiVariant::Full)
        .expect("serial solve");
    assert!(sref.converged);

    let mut sys = NscSystem::new(HypercubeConfig::new(3), session.kb()); // 8 nodes
    let dist = DistributedJacobiWorkload::new(u0, f, tol, 2000, nsc::cfd::PartitionSpec::Auto);
    let run = dist.execute(&session, &mut sys).expect("distributed solve");
    assert!(run.converged, "residual {}", run.residual);

    // The acceptance criterion: within 1e-9 max-norm of the serial
    // solution. The implementation guarantees more — identical bits and an
    // identical sweep count — so assert that too.
    assert!(run.u.linf_diff(&sref.u) < 1e-9, "diff {}", run.u.linf_diff(&sref.u));
    assert_eq!(run.sweeps, sref.sweeps, "same convergence history");
    for (a, b) in run.u.data.iter().zip(&sref.u.data) {
        assert_eq!(a.to_bits(), b.to_bits(), "distributed bits diverged from serial");
    }
    assert_eq!(run.residual.to_bits(), sref.residual.to_bits());

    // And both solved the PDE.
    assert!(run.u.linf_diff(&exact) < 0.05, "err {}", run.u.linf_diff(&exact));

    // Every node carried real work and real communication.
    assert!(run.metrics.per_node.iter().all(|c| c.flops > 0 && c.comm_ns > 0));
    assert!(run.metrics.aggregate_mflops > 0.0);
}
