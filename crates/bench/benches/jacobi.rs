//! E10 — the paper's running example end-to-end: time one ping-pong sweep
//! pair of the generated Jacobi microcode on the simulated node, and
//! record the residual convergence series.
//!
//! `psi_solve_pair/17` times the lid-driven cavity's 17² ψ-solve on one
//! node, the step every `cavity-ensemble` member repeats, and its report
//! line splits a pair's host time into the two bare sweep runs and the
//! solve's bookkeeping around them.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use nsc_arch::HypercubeConfig;
use nsc_bench::sample_size;
use nsc_cfd::diagrams::Jacobi2dGeometry;
use nsc_cfd::{
    build_jacobi2d_sweep_document_windows, grid::manufactured_problem, nsc_run::run_jacobi_on_node,
    Grid2, HaloSpec, JacobiVariant, Poisson2dSolver,
};
use nsc_core::Session;
use nsc_sim::{NodeSim, NscSystem, RunOptions};
use std::time::Instant;

/// ψ-solve pairs per `psi_solve_pair` iteration.
const PSI_PAIRS: u32 = 500;

/// Timed repetitions per figure of the ψ-solve report; it keeps the
/// fastest.
const PSI_REPS: usize = 20;

fn report_convergence() {
    let (u0, f, _) = manufactured_problem(12);
    let mut node = NodeSim::nsc_1988();
    let run = run_jacobi_on_node(&mut node, &u0, &f, 1e-7, 3000, JacobiVariant::Full)
        .expect("jacobi runs");
    eprintln!(
        "jacobi 12^3: converged={} sweeps={} residual={:.3e} achieved={:.1} MFLOPS",
        run.converged, run.sweeps, run.residual, run.mflops
    );
}

/// A one-node `n x n` ψ-solver and a problem for it: a zero iterate and
/// a right-hand side of small integers, which keeps every sweep finite.
fn psi_setup(n: usize) -> (Session, NscSystem, Poisson2dSolver, Grid2, Grid2) {
    let session = Session::nsc_1988();
    let mut system = NscSystem::new(HypercubeConfig::new(0), session.kb());
    let solver = Poisson2dSolver::new(&session, &mut system, n, n).expect("compiles");
    let mut f = Grid2::new(n, n);
    for (k, v) in f.data.iter_mut().enumerate() {
        *v = (k % 7) as f64 - 3.0;
    }
    (session, system, solver, Grid2::new(n, n), f)
}

/// Print host µs per ψ-solve pair through `Poisson2dSolver::solve` beside
/// the same pair as two bare `CompiledProgram::run` calls of the sweep
/// documents the solver compiled for its one part. The difference is the
/// solve's bookkeeping per pair: lanes, the sweep step and the residual
/// read. Each figure is the fastest of [`PSI_REPS`] runs of [`PSI_PAIRS`]
/// pairs.
fn report_psi_solve_split(n: usize) {
    let (session, mut system, solver, u0, f) = psi_setup(n);
    let partition = solver.partition();
    let part = &partition.parts()[0];
    let split = part.overlap_split(partition.shape().overlap_axis(), &HaloSpec::stencil());
    assert!(split.shell_windows().is_empty(), "one part has no ghost face");
    let window = split.interior.expect("one part sweeps one interior window");
    let (lnx, lny, _) = part.local_shape();
    // The session's cache hands back the programs the solver runs.
    let [even, odd] = [true, false].map(|even| {
        let geometry = Jacobi2dGeometry::new(lnx, lny);
        let mut doc = build_jacobi2d_sweep_document_windows(geometry, even, &[window]);
        session.compile(&mut doc).expect("compiles")
    });
    let opts = RunOptions::default();
    let (mut solve_s, mut runs_s) = (f64::INFINITY, f64::INFINITY);
    for _ in 0..PSI_REPS {
        let mut u = u0.clone();
        let start = Instant::now();
        solver.solve(&mut system, &mut u, &f, 0.0, PSI_PAIRS).expect("solves");
        solve_s = solve_s.min(start.elapsed().as_secs_f64());

        let node = &mut system.nodes_mut()[0];
        let start = Instant::now();
        for _ in 0..PSI_PAIRS {
            even.run(node, &opts).expect("even sweep runs");
            odd.run(node, &opts).expect("odd sweep runs");
        }
        runs_s = runs_s.min(start.elapsed().as_secs_f64());
    }
    let per_pair = |s: f64| s * 1e6 / f64::from(PSI_PAIRS);
    let (solve_us, runs_us) = (per_pair(solve_s), per_pair(runs_s));
    eprintln!(
        "psi_solve_pair {n}^2 on one node: solve {solve_us:.2} us/pair, two bare runs \
         {runs_us:.2} us/pair, bookkeeping {:.2} us/pair ({:.0}%)",
        solve_us - runs_us,
        100.0 * (solve_us - runs_us) / solve_us
    );
}

fn bench(c: &mut Criterion) {
    report_convergence();
    report_psi_solve_split(17);
    for n in [8usize, 12] {
        let (u0, f, _) = manufactured_problem(n);
        c.bench_with_input(BenchmarkId::new("jacobi_sweep_pair", n), &n, |b, _| {
            b.iter(|| {
                let mut node = NodeSim::nsc_1988();
                run_jacobi_on_node(&mut node, &u0, &f, 0.0, 1, JacobiVariant::Full).unwrap()
            })
        });
    }
    let (_, mut system, solver, u0, f) = psi_setup(17);
    c.bench_with_input(BenchmarkId::new("psi_solve_pair", 17), &17, |b, _| {
        b.iter(|| {
            let mut u = u0.clone();
            solver.solve(&mut system, &mut u, &f, 0.0, PSI_PAIRS).unwrap()
        })
    });
}

criterion_group! {
    name = jacobi;
    config = Criterion::default().sample_size(sample_size(10));
    targets = bench
}
criterion_main!(jacobi);
