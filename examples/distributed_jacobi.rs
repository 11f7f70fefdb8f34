//! The paper's running example, scaled out: the 3-D Poisson Jacobi solver
//! strip-decomposed across the hypercube with halo exchange.
//!
//! Each node compiles the sweep pipeline on its own slab, the sweeps run
//! concurrently on real threads, ghost planes move through the hyperspace
//! router between sweeps (full-duplex sendrecv per strip boundary), and
//! the convergence test is a butterfly max-reduction of the per-node
//! residuals. Each sweep splits into interior and boundary-shell
//! pipelines and the halo exchange hides under the interior phase, so
//! only its non-overlapped remainder shows up as communication time. The
//! distributed iterate is bit-identical to the serial one in every row.
//!
//! Run with: `cargo run --release --example distributed_jacobi`

use nsc::arch::HypercubeConfig;
use nsc::cfd::{grid::manufactured_problem, DistributedJacobiWorkload, PartitionSpec};
use nsc::env::{Session, Workload};
use nsc::sim::NscSystem;

fn main() {
    let n = 16;
    let (u0, f, exact) = manufactured_problem(n);
    let session = Session::nsc_1988();
    let clock = session.kb().config().clock_hz;

    println!("distributed Jacobi, {n}^3 Poisson, tol 1e-9:\n");
    println!("nodes   part    sweeps   aggregate MFLOPS   simulated s   comm share   error");
    let mut serial_u: Option<Vec<u64>> = None;
    for (dim, spec) in [
        (0, PartitionSpec::Strip),
        (1, PartitionSpec::Strip),
        (2, PartitionSpec::Strip),
        (2, PartitionSpec::Block),
        (3, PartitionSpec::Strip),
        (3, PartitionSpec::Block),
    ] {
        let mut sys = NscSystem::new(HypercubeConfig::new(dim), session.kb());
        let w = DistributedJacobiWorkload::new(u0.clone(), f.clone(), 1e-9, 2000, spec);
        let run = w.execute(&session, &mut sys).expect("distributed solve");
        assert!(run.converged, "did not converge at {} nodes", sys.node_count());
        let m = &run.metrics;
        let comm_s: f64 = m
            .per_node
            .iter()
            .map(|c| c.seconds_with_comm(clock) - c.seconds(clock))
            .fold(0.0, f64::max);
        println!(
            "{:>5}   {:<5}   {:>6}   {:>16.1}   {:>11.4}   {:>9.1}%   {:.3e}",
            sys.node_count(),
            format!("{spec:?}").to_lowercase(),
            run.sweeps,
            m.aggregate_mflops,
            m.simulated_seconds,
            100.0 * comm_s / m.simulated_seconds,
            run.u.linf_diff(&exact)
        );

        // The decomposition must not change the arithmetic: every cube
        // size and every partition shape produces the same bits.
        let bits: Vec<u64> = run.u.data.iter().map(|v| v.to_bits()).collect();
        match &serial_u {
            None => serial_u = Some(bits),
            Some(reference) => {
                assert_eq!(reference, &bits, "distributed solution diverged from the serial bits")
            }
        }
    }
    println!("\nall cube sizes and partitions agree bit-for-bit with the single-node solve.");
}
