//! The compile pipeline layer by layer: on each document of the
//! digest-stability corpus (every nsc-cfd document builder and one
//! expression document), time the stages `Session::compile` chains — bind,
//! digest, shape digest, check, `generate_prechecked`, kernel
//! specialization, the certificate seal — and whole compiles on each cache
//! path: a miss, a rebind and a hit.
//!
//! The bind and compile figures include the clone of the document the
//! caller hands over, as a caller pays it. A miss runs on a fresh session
//! and a rebind on a new constant-perturbed twin each time, so neither is
//! served from the cache. The shim reports one call per sample; read the
//! `min` column for a stage's cost.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use nsc_arch::KnowledgeBase;
use nsc_bench::sample_size;
use nsc_cert::{digest_hex, CompilePath};
use nsc_cfd::diagrams::{build_ftcs_transport_document, Jacobi2dGeometry, JacobiGeometry};
use nsc_cfd::host::FtcsCoeffs;
use nsc_cfd::{
    build_chebyshev_document, build_damped_jacobi_sweep_document_windows,
    build_jacobi2d_sweep_document_windows, build_jacobi_document,
    build_jacobi_sweep_document_windows, JacobiVariant, SweepWindow,
};
use nsc_codegen::generate_prechecked;
use nsc_core::certify::build_certificate;
use nsc_core::Session;
use nsc_diagram::{Document, FuAssign, InputSpec};
use nsc_expr::{compile_expr, AllocStrategy, Expr};
use nsc_sim::CompiledKernel;

/// Timed calls per benchmark.
const SAMPLES: usize = 200;

/// The digest-stability corpus, unbound.
fn corpus(kb: &KnowledgeBase) -> Vec<Document> {
    let three = [
        SweepWindow { start: 0, len: 1, slot: SweepWindow::LO_SLOT },
        SweepWindow { start: 1, len: 6, slot: 0 },
        SweepWindow { start: 7, len: 1, slot: SweepWindow::HI_SLOT },
    ];
    let slab = JacobiGeometry::slab(16, 16, 8);
    let tree = Expr::var("a").mul(Expr::var("b")).add(Expr::var("c").mul(Expr::Const(2.5))).abs();
    vec![
        build_jacobi_document(8, 1e-6, 100, JacobiVariant::Full),
        build_jacobi_sweep_document_windows(slab, true, &[SweepWindow::whole(8)]),
        build_jacobi_sweep_document_windows(slab, false, &three),
        build_damped_jacobi_sweep_document_windows(
            JacobiGeometry::slab(12, 10, 6),
            true,
            0.8,
            &[SweepWindow::whole(6)],
        ),
        build_jacobi2d_sweep_document_windows(
            Jacobi2dGeometry::new(32, 16),
            true,
            &[SweepWindow::whole(16)],
        ),
        build_ftcs_transport_document(
            Jacobi2dGeometry::new(24, 24),
            FtcsCoeffs::new(1.0 / 23.0, 100.0, 1e-3),
        ),
        build_chebyshev_document(256, &[0.5, -0.25, 0.125, 1.0], 2),
        compile_expr(&tree, "y", 128, AllocStrategy::RoundRobin, kb).0,
    ]
}

/// The document with the bits of every preload (constant or feedback
/// seed) xor-ed with `flip`: the same shape, and for each `flip` a new
/// digest.
fn nudged(doc: &Document, flip: u64) -> Document {
    let nudge = |spec: InputSpec| match spec {
        InputSpec::Constant(v) => InputSpec::Constant(f64::from_bits(v.to_bits() ^ flip)),
        InputSpec::Feedback { init } => {
            InputSpec::Feedback { init: f64::from_bits(init.to_bits() ^ flip) }
        }
        other => other,
    };
    let mut twin = doc.clone();
    let ids: Vec<_> = twin.pipelines().iter().map(|p| p.id).collect();
    for id in ids {
        let d = twin.pipeline_mut(id).expect("listed id");
        let assigns: Vec<_> = d.fu_assigns().map(|(icon, pos, a)| (icon, pos, *a)).collect();
        for (icon, pos, a) in assigns {
            let moved = FuAssign { op: a.op, in_a: nudge(a.in_a), in_b: nudge(a.in_b) };
            d.assign_fu(icon, pos, moved).expect("an assigned unit");
        }
    }
    twin
}

fn bench(c: &mut Criterion) {
    let kb = KnowledgeBase::nsc_1988();
    let cfg = kb.config();
    let samples = sample_size(SAMPLES);
    for unbound in corpus(&kb) {
        let name = unbound.name.clone();
        let session = Session::from_kb(kb.clone());
        let mut doc = unbound.clone();
        session.auto_bind(&mut doc).expect("corpus documents bind");
        let output = generate_prechecked(&kb, &doc).expect("corpus documents generate");
        let kernel = CompiledKernel::compile(&kb, &output.program);
        let (digest, shape) = (doc.digest(), doc.shape_digest());
        let cert = build_certificate(cfg, digest, shape, CompilePath::Full, &output, Some(&kernel));
        let id = |stage: &str| BenchmarkId::new(stage, &name);

        c.bench_with_input(id("bind"), &unbound, |b, d| {
            b.iter(|| session.auto_bind(&mut d.clone()))
        });
        c.bench_with_input(id("digest"), &doc, |b, d| b.iter(|| d.digest()));
        c.bench_with_input(id("shape_digest"), &doc, |b, d| b.iter(|| d.shape_digest()));
        c.bench_with_input(id("check"), &doc, |b, d| b.iter(|| session.check(d)));
        c.bench_with_input(id("generate_prechecked"), &doc, |b, d| {
            b.iter(|| generate_prechecked(&kb, d))
        });
        c.bench_with_input(id("kernel"), &output, |b, o| {
            b.iter(|| CompiledKernel::compile(&kb, &o.program))
        });
        c.bench_with_input(id("seal"), &cert, |b, cert| {
            b.iter(|| cert.with_path(CompilePath::CacheHit, digest_hex(digest)))
        });

        // Sessions are made, and dropped, outside the timed calls.
        let mut fresh: Vec<Session> = (0..=samples).map(|_| Session::from_kb(kb.clone())).collect();
        let mut used = Vec::with_capacity(fresh.len());
        c.bench_with_input(id("compile_miss"), &unbound, |b, d| {
            b.iter(|| {
                let s = fresh.pop().unwrap_or_else(|| Session::from_kb(kb.clone()));
                let compiled = s.compile(&mut d.clone());
                used.push(s);
                compiled
            })
        });
        session.compile(&mut unbound.clone()).expect("corpus documents compile");
        let mut flip = samples as u64 + 1;
        let mut twins: Vec<Document> = (1..=flip).map(|k| nudged(&unbound, k)).collect();
        if twins[0].digest() != unbound.digest() {
            c.bench_function(&format!("compile_rebind/{name}"), |b| {
                b.iter(|| {
                    let mut twin = twins.pop().unwrap_or_else(|| {
                        flip += 1;
                        nudged(&unbound, flip)
                    });
                    session.compile(&mut twin)
                })
            });
        }
        c.bench_with_input(id("compile_hit"), &unbound, |b, d| {
            b.iter(|| session.compile(&mut d.clone()))
        });
    }
}

criterion_group! {
    name = compile_paths;
    config = Criterion::default().sample_size(sample_size(SAMPLES));
    targets = bench
}
criterion_main!(compile_paths);
