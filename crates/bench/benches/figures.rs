//! E1/E2/E4-E10 — regenerate the paper's figures as artifacts and time
//! the renders. Every `cargo bench -p nsc-bench --bench figures` run
//! rewrites `out/` from the live system.

use criterion::{criterion_group, criterion_main, Criterion};
use nsc_cfd::{build_jacobi_document, JacobiVariant};
use nsc_core::Session;
use nsc_microcode::Census;

fn regenerate_artifacts() {
    std::fs::create_dir_all("out").ok();
    let session = Session::nsc_1988();
    // Fig 1: architecture numbers.
    let kb = session.kb();
    let cfg = kb.config();
    let fig1 = format!(
        "Figure 1 numbers: {} FUs ({}T/{}D/{}S), {} planes x {} MB = {} GB, \
         {} caches, {} SDUs, switch {}x{}, peak {} MFLOPS\n",
        cfg.fu_count(),
        cfg.triplets,
        cfg.doublets,
        cfg.singlets,
        cfg.memory.planes,
        cfg.memory.bytes_per_plane() / (1 << 20),
        cfg.memory.total_gigabytes(),
        cfg.cache.caches,
        cfg.sdu.units,
        kb.sources().len(),
        kb.sinks().len(),
        cfg.peak_mflops()
    );
    std::fs::write("out/bench_fig1_numbers.txt", &fig1).ok();
    eprintln!("{fig1}");
    // Fig 11: the Jacobi diagram.
    let doc = build_jacobi_document(8, 1e-6, 100, JacobiVariant::Full);
    let frames = session.display_document(&doc);
    std::fs::write("out/bench_fig11_render.txt", &frames[0].1).ok();
    // T2 companion: the census table.
    std::fs::write("out/bench_t2_census.txt", Census::of_machine(kb).render_table()).ok();
}

fn bench(c: &mut Criterion) {
    regenerate_artifacts();
    let session = Session::nsc_1988();
    let doc = build_jacobi_document(8, 1e-6, 100, JacobiVariant::Full);
    c.bench_function("fig11_render_jacobi_diagram", |b| b.iter(|| session.display_document(&doc)));
}

criterion_group! {
    name = figures;
    config = Criterion::default().sample_size(10);
    targets = bench
}
criterion_main!(figures);
