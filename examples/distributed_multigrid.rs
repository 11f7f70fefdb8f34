//! The multigrid V-cycle running machine-resident across the hypercube —
//! the solver family the Navier-Stokes Computer was built for (paper ref.
//! [6]), distributed at last.
//!
//! Strips could never carry multigrid: the coarse grids go thinner than
//! one plane per node long before the fine grid does. On the 2-D block
//! decomposition (Gray-embedded torus) the two split axes shrink
//! together, each coarse level's partition is derived from the finer
//! one, and only the sub-`5^3` tail agglomerates to the host. Damped
//! Jacobi smoothing runs as compiled pipelines on the nodes with face
//! exchanges through the hyperspace router; restriction and prolongation
//! cross block boundaries through one ghost layer.
//!
//! The distributed solve is **bit-identical** to the serial host V-cycle
//! (`vcycle`) — iterate and residual history — at every cube size, which
//! this example asserts. The smoother hides each face
//! exchange under its interior pipelines.
//!
//! Run with: `cargo run --release --example distributed_multigrid`

use nsc::arch::HypercubeConfig;
use nsc::cfd::{grid::manufactured_problem, vcycle, DistributedMultigridWorkload};
use nsc::env::{Session, Workload};
use nsc::sim::NscSystem;

fn main() {
    let n = 17;
    let tol = 1e-8;
    let session = Session::nsc_1988();

    // The serial reference: V-cycles on the host.
    let (u0, f, exact) = manufactured_problem(n);
    let mut serial_u = u0.clone();
    let serial = vcycle(&mut serial_u, &f, tol, 25, 0.8).expect("a 2^m + 1 grid");
    assert!(serial.residual_history.last().is_some_and(|&r| r < tol));
    println!(
        "serial multigrid V(2,2), {n}^3 Poisson, tol {tol:e}: {} cycles, \
         {:.1} fine-grid-equivalent sweeps, err {:.3e}\n",
        serial.cycles,
        serial.fine_equivalent_sweeps,
        serial_u.linf_diff(&exact)
    );

    println!("nodes   torus   dist levels   cycles   aggregate MFLOPS   simulated ms");
    for dim in 0..=3u32 {
        let mut sys = NscSystem::new(HypercubeConfig::new(dim), session.kb());
        let torus = sys.cube.torus2d_near_square();
        let w = DistributedMultigridWorkload::manufactured(n, 0.8, tol, 25);
        let run = w.execute(&session, &mut sys).expect("distributed multigrid");
        assert!(run.converged, "did not converge at {} nodes", sys.node_count());
        println!(
            "{:>5}   {:>2}x{:<2}   {:>11}   {:>6}   {:>16.1}   {:>12.3}",
            sys.node_count(),
            torus.rows(),
            torus.cols(),
            run.distributed_levels,
            run.stats.cycles,
            run.metrics.aggregate_mflops,
            run.metrics.simulated_seconds * 1e3,
        );

        // The acceptance bar: bit-identical to the serial V-cycle, down to
        // the residual history.
        assert_eq!(run.stats.cycles, serial.cycles);
        for (a, b) in run.u.data.iter().zip(&serial_u.data) {
            assert_eq!(a.to_bits(), b.to_bits(), "iterate diverged from serial");
        }
        for (a, b) in run.stats.residual_history.iter().zip(&serial.residual_history) {
            assert_eq!(a.to_bits(), b.to_bits(), "residual history diverged");
        }
    }
    println!("\nall cube sizes agree bit-for-bit with the serial V-cycle.");
}
