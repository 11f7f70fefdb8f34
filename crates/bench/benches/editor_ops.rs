//! Editor interactivity: the paper's usability claims need the editor's
//! per-gesture work (hit-testing + incremental checking + redraw) to be
//! instantaneous. These benches measure the core gesture costs.

use criterion::{criterion_group, criterion_main, Criterion};
use nsc_arch::{AlsKind, InPort, PlaneId};
use nsc_core::Session;
use nsc_diagram::{DmaAttrs, IconKind, PadLoc, PadRef, Point};

fn busy_editor() -> nsc_editor::Editor {
    let mut ed = Session::nsc_1988().editor("bench");
    ed.set_stream_len(64);
    for i in 0..4 {
        ed.place_icon(
            IconKind::als(AlsKind::Triplet),
            Point::new(34 + 12 * (i % 3), 4 + 13 * (i / 3)),
        );
    }
    for i in 0..4u8 {
        ed.place_icon(
            IconKind::Memory { plane: Some(PlaneId(i)) },
            Point::new(20, 4 + 6 * i as i32),
        );
    }
    ed
}

fn bench(c: &mut Criterion) {
    let ed = busy_editor();
    let d = ed.doc.pipeline(ed.current).unwrap();
    let mem0 = d.icons().find(|i| matches!(i.kind, IconKind::Memory { .. })).unwrap().id;
    let from = PadLoc::new(mem0, PadRef::Io);

    c.bench_function("legal_targets_menu", |b| b.iter(|| ed.legal_targets(from)));
    c.bench_function("incremental_check", |b| {
        b.iter(|| {
            ed.checker().check_pipeline(
                ed.doc.pipeline(ed.current).unwrap(),
                nsc_checker::Stage::Incremental,
            )
        })
    });
    c.bench_function("render_ascii", |b| b.iter(|| nsc_editor::render_ascii(&ed)));
    c.bench_function("connect_and_undo", |b| {
        b.iter(|| {
            let mut e = ed.clone();
            let als = e
                .doc
                .pipeline(e.current)
                .unwrap()
                .icons()
                .find(|i| matches!(i.kind, IconKind::Als { .. }))
                .unwrap()
                .id;
            let c = e.connect(from, PadLoc::new(als, PadRef::FuIn { pos: 0, port: InPort::A }));
            if let Some(c) = c {
                e.set_dma(c, DmaAttrs::at_address(0));
            }
            e.undo();
            e.undo()
        })
    });
}

criterion_group! {
    name = editor;
    config = Criterion::default().sample_size(20);
    targets = bench
}
criterion_main!(editor);
