//! Strong scaling of the distributed Jacobi solver: the same global
//! problem spread across 1/2/4/8 nodes with halo exchange, reporting both
//! wall-clock time of the simulation and the *simulated* aggregate MFLOPS
//! (compute plus router time — the figure the CI perf gate tracks, and
//! the acceptance bar: 8 nodes ≥ 4x the 1-node rate).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use nsc_bench::{sample_size, strong_scaling_point};

fn report_scaling() {
    // The gate-sized problem: big enough that compute dominates the
    // 10 us/hop + 100 ns/word router charges.
    let n = 64;
    let points: Vec<_> = (0..=3u32).map(|dim| strong_scaling_point(dim, n, 1)).collect();
    eprintln!("strong scaling, jacobi {n}^3, 1 ping-pong pair:");
    eprintln!("  nodes   aggregate MFLOPS   simulated ms   speedup");
    let base = points[0].aggregate_mflops;
    for p in &points {
        eprintln!(
            "  {:>5}   {:>16.1}   {:>12.3}   {:>6.2}x",
            p.nodes,
            p.aggregate_mflops,
            p.simulated_seconds * 1e3,
            p.aggregate_mflops / base
        );
    }
    let eight = points[3].aggregate_mflops;
    assert!(
        eight >= 4.0 * base,
        "8-node aggregate must be >= 4x the 1-node rate: {eight:.1} vs {base:.1}"
    );
}

fn bench(c: &mut Criterion) {
    report_scaling();
    for dim in 0..=3u32 {
        let nodes = 1usize << dim;
        c.bench_with_input(BenchmarkId::new("distributed_jacobi_pair_32", nodes), &dim, |b, &d| {
            b.iter(|| strong_scaling_point(d, 32, 1))
        });
    }
}

criterion_group! {
    name = strong_scaling;
    config = Criterion::default().sample_size(sample_size(10));
    targets = bench
}
criterion_main!(strong_scaling);
