//! T6 — ref [6]'s motivation: multigrid vs point Jacobi work to a fixed
//! tolerance, with simulated-NSC smoothing cost.

use criterion::{criterion_group, criterion_main, Criterion};
use nsc_cfd::{grid::manufactured_problem, host::jacobi_sweep_host, host::JacobiHostState, vcycle};

fn report() {
    let n = 17;
    let tol = 1e-7;
    let (u0, f, _) = manufactured_problem(n);
    let mut host = JacobiHostState::new(&u0, &f);
    let mut jacobi_sweeps = 0usize;
    for _ in 0..100_000 {
        jacobi_sweeps += 1;
        if jacobi_sweep_host(&mut host) < tol {
            break;
        }
    }
    let (mut u, f2, _) = manufactured_problem(n);
    let stats = vcycle(&mut u, &f2, tol, 50, 0.8).expect("17^3 cycles");
    eprintln!("{n}^3 Poisson to {tol:e}:");
    eprintln!("  point Jacobi : {jacobi_sweeps} sweeps");
    eprintln!(
        "  multigrid    : {} cycles = {:.1} fine-equivalent sweeps ({:.0}x less work)",
        stats.cycles,
        stats.fine_equivalent_sweeps,
        jacobi_sweeps as f64 / stats.fine_equivalent_sweeps
    );
}

fn bench(c: &mut Criterion) {
    report();
    let (u0, f, _) = manufactured_problem(17);
    c.bench_function("host_jacobi_sweep_17", |b| {
        let mut state = JacobiHostState::new(&u0, &f);
        b.iter(|| jacobi_sweep_host(&mut state))
    });
    c.bench_function("host_vcycle_17", |b| {
        b.iter(|| {
            let (mut u, f2, _) = manufactured_problem(17);
            vcycle(&mut u, &f2, 0.0, 1, 0.8).expect("17^3 cycles").cycles
        })
    });
}

criterion_group! {
    name = mg;
    config = Criterion::default().sample_size(10);
    targets = bench
}
criterion_main!(mg);
