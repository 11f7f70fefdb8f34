//! T4 — §6's "simpler architectural model" tradeoff, measured: the same
//! solvers programmed against restricted machines. Memory-bound Jacobi is
//! nearly free to restrict; losing the shift/delay units costs array
//! copies; compute-bound kernels halve with singlets-only.

use criterion::{criterion_group, criterion_main, Criterion};
use nsc_arch::{KnowledgeBase, MachineConfig, SubsetModel};
use nsc_cfd::{
    build_chebyshev_document, grid::manufactured_problem, nsc_run::run_jacobi_on_node,
    JacobiVariant,
};
use nsc_sim::{NodeSim, RunOptions};

fn report() {
    let n = 8;
    let (u0, f, _) = manufactured_problem(n);
    eprintln!("Jacobi {n}^3, one sweep pair:");
    let mut base = 0u64;
    for (label, subset, variant) in [
        ("full NSC", SubsetModel::Full, JacobiVariant::Full),
        ("singlets-only", SubsetModel::SingletsOnly, JacobiVariant::SingletsOnly),
        ("no shift/delay", SubsetModel::NoSdu, JacobiVariant::NoSdu),
    ] {
        let kb = KnowledgeBase::new(MachineConfig::nsc_1988().subset(subset));
        let mut node = NodeSim::new(kb);
        let run = run_jacobi_on_node(&mut node, &u0, &f, 0.0, 1, variant).expect("runs");
        if base == 0 {
            base = run.counters.cycles;
        }
        eprintln!(
            "  {label:<16} {:>9} cycles  ({:.2}x)  {:>7.1} MFLOPS",
            run.counters.cycles,
            run.counters.cycles as f64 / base as f64,
            run.mflops
        );
    }

    eprintln!("Horner degree-10 kernel, 4096 elements:");
    let coeffs = [0.5, -0.25, 0.125, 1.5, -0.75, 2.0, -1.0, 0.3, 0.7, -0.2, 1.1];
    let mut base = 0u64;
    for (label, stages) in [("full NSC (1 instr)", 10usize), ("singlets-only (2 instr)", 5)] {
        let kb = KnowledgeBase::nsc_1988();
        let mut doc = build_chebyshev_document(4096, &coeffs, stages);
        let out = nsc_core::Session::from_kb(kb.clone()).compile(&mut doc).unwrap().output;
        let mut node = NodeSim::new(kb);
        // x in plane 0
        let xs: Vec<f64> = (0..4096).map(|i| (i % 17) as f64 * 0.1 - 0.8).collect();
        node.mem.plane_mut(nsc_arch::PlaneId(0)).write_slice(0, &xs);
        node.run_program(&out.program, &RunOptions::default()).unwrap();
        if base == 0 {
            base = node.counters.cycles;
        }
        eprintln!(
            "  {label:<24} {:>9} cycles  ({:.2}x)",
            node.counters.cycles,
            node.counters.cycles as f64 / base as f64
        );
        let _ = doc.pipeline_count();
    }
}

fn bench(c: &mut Criterion) {
    report();
    let (u0, f, _) = manufactured_problem(6);
    c.bench_function("jacobi_pair_full_6", |b| {
        b.iter(|| {
            let mut node = NodeSim::nsc_1988();
            run_jacobi_on_node(&mut node, &u0, &f, 0.0, 1, JacobiVariant::Full)
                .unwrap()
                .counters
                .cycles
        })
    });
}

criterion_group! {
    name = ablation;
    config = Criterion::default().sample_size(10);
    targets = bench
}
criterion_main!(ablation);
