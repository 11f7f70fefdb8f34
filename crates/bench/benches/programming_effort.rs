//! T3 — "more convenient and faster to use than hand-written microcode":
//! elementary user actions in the visual environment vs. the raw bits and
//! fields a hand microprogrammer must specify for the same program.

use criterion::{criterion_group, criterion_main, Criterion};
use nsc_cfd::{build_jacobi_document, JacobiVariant};
use nsc_editor::{Event, Session, WIN_W};
use nsc_microcode::Census;

/// Semantic decisions in a document: one per icon placement, wire, unit
/// programming, tap table and DMA form — the action count an interactive
/// session would incur (each decision is one gesture + at most one menu
/// pick or short form).
fn decision_count(doc: &nsc_diagram::Document) -> usize {
    doc.pipelines()
        .iter()
        .map(|p| {
            p.icon_count()
                + p.connection_count()
                + p.fu_assigns().count()
                + p.connections().filter(|c| c.dma.is_some()).count()
        })
        .sum()
}

fn report() {
    let session = nsc_core::Session::nsc_1988();
    let kb = session.kb();
    let census = Census::of_machine(kb);
    let mut doc = build_jacobi_document(16, 1e-6, 1000, JacobiVariant::Full);
    let out = session.compile(&mut doc).expect("compiles").output;
    let decisions = decision_count(&doc);
    let bits = out.program.total_bits(kb);
    let leaves = census.total_leaves() * out.program.len();
    eprintln!("Jacobi 16^3 program ({} instructions):", out.program.len());
    eprintln!("  visual environment : {decisions} user decisions (icons+wires+menus+forms)");
    eprintln!("  hand microcode     : {bits} bits across {leaves} leaf fields");
    eprintln!(
        "  ratio              : {:.0} bits per decision / {:.1} fields per decision",
        bits as f64 / decisions as f64,
        leaves as f64 / decisions as f64
    );

    // A measured mini-session for calibration: one placed icon + one wire
    // + one menu pick + the DMA form.
    let mut s = Session::new(session.editor("calibration"));
    let py = 2 + 1 + 2 * 4; // MEMORY palette row
    s.feed([
        Event::MouseDown { x: WIN_W - 8, y: py },
        Event::MouseUp { x: 25, y: 8 },
        Event::MouseDown { x: WIN_W - 8, y: 2 + 1 },
        Event::MouseUp { x: 50, y: 8 },
        Event::MouseDown { x: 25, y: 9 },
        Event::MouseUp { x: 50, y: 8 },
        Event::Text("0".into()),
        Event::SubmitForm,
    ]);
    eprintln!(
        "  measured mini-session: {} elementary actions for 2 icons + 1 wire + DMA form",
        s.editor.effort.total_actions()
    );
}

fn bench(c: &mut Criterion) {
    report();
    let kb = nsc_arch::KnowledgeBase::nsc_1988();
    c.bench_function("build_and_generate_jacobi_8", |b| {
        b.iter(|| {
            let mut doc = build_jacobi_document(8, 1e-6, 100, JacobiVariant::Full);
            // A fresh session (empty cache) each time, so every iteration
            // generates.
            nsc_core::Session::from_kb(kb.clone()).compile(&mut doc).unwrap().program().len()
        })
    });
}

criterion_group! {
    name = effort;
    config = Criterion::default().sample_size(10);
    targets = bench
}
criterion_main!(effort);
