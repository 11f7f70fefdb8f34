//! Experiment T6 — the ref-[6] context: multigrid vs point Jacobi.
//!
//! The paper's Jacobi example comes from Nosenchuck, Krist & Zang's
//! multigrid work for the NSC. This example measures both methods on the
//! same manufactured Poisson problem: the work comparison
//! (fine-grid-equivalent sweeps, the V-cycles run as a workload on a
//! one-node cube) and an estimate of simulated-NSC time to tolerance that
//! prices every sweep at the measured cost of the Jacobi smoothing kernel
//! that dominates multigrid's machine time.
//!
//! Run with: `cargo run --release --example multigrid`

use nsc::arch::HypercubeConfig;
use nsc::cfd::{
    grid::manufactured_problem, host::jacobi_sweep_host, host::JacobiHostState, run_jacobi_on_node,
    DistributedMultigridWorkload, JacobiVariant,
};
use nsc::env::{NscError, Session, Workload};
use nsc::sim::NscSystem;

fn main() -> Result<(), NscError> {
    let n = 17; // 2^4 + 1 for clean coarsening
    let tol = 1e-7;
    println!("-lap(u) = f on a {n}^3 grid, residual tolerance {tol:e}\n");

    // Host: plain Jacobi sweep count.
    let (u0, f, _) = manufactured_problem(n);
    let mut host = JacobiHostState::new(&u0, &f);
    let mut jacobi_sweeps = 0usize;
    for _ in 0..100_000 {
        jacobi_sweeps += 1;
        if jacobi_sweep_host(&mut host) < tol {
            break;
        }
    }

    // Multigrid as a Workload on a one-node cube (dimension 0, the serial
    // case), driven through the typed Session pipeline.
    let session = Session::nsc_1988();
    let mut system = NscSystem::new(HypercubeConfig::new(0), session.kb());
    let workload = DistributedMultigridWorkload::manufactured(n, 0.8, tol, 50);
    println!("workload: {}", workload.name());
    let run = workload.execute(&session, &mut system)?;
    let stats = &run.stats;

    println!("method                    iterations   fine-grid-equivalent sweeps");
    println!("point Jacobi              {jacobi_sweeps:>10}   {jacobi_sweeps:>10}");
    println!(
        "multigrid V(2,2)          {:>10}   {:>10.1}",
        stats.cycles, stats.fine_equivalent_sweeps
    );
    let speedup = jacobi_sweeps as f64 / stats.fine_equivalent_sweeps;
    println!("multigrid work advantage: {speedup:.0}x fewer fine-grid sweeps\n");

    // NSC-simulated: the cost of one fine-grid Jacobi sweep, measured as
    // one ping-pong pair of the paper's document on a node, prices every
    // fine-grid-equivalent sweep of either method.
    let mut node = session.node();
    let smoothing = run_jacobi_on_node(&mut node, &u0, &f, 0.0, 1, JacobiVariant::Full)?;
    let clock_hz = node.kb.config().clock_hz;
    let per_sweep = smoothing.counters.seconds(clock_hz) / smoothing.sweeps.max(1) as f64;
    println!(
        "simulated NSC smoothing cost ({n}^3): {:.3} ms/sweep at {:.0} MFLOPS",
        per_sweep * 1e3,
        smoothing.mflops
    );
    println!(
        "=> estimated time to tolerance: Jacobi {:.1} ms vs multigrid ~{:.1} ms",
        jacobi_sweeps as f64 * per_sweep * 1e3,
        stats.fine_equivalent_sweeps * per_sweep * 1e3
    );
    assert!(speedup > 5.0, "multigrid must win decisively");
    assert!(run.converged, "V-cycles reach the tolerance");
    Ok(())
}
