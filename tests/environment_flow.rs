//! E3 (paper Figure 3): the full component flow across crates — editor
//! input, checker validation, microcode generation, execution — through
//! the public umbrella API only.

use nsc::arch::{AlsKind, FuOp, InPort, PlaneId};
use nsc::checker::diag::has_errors;
use nsc::diagram::{DmaAttrs, FuAssign, IconKind, PadLoc, PadRef, Point};
use nsc::env::Session;
use nsc::sim::{HaltReason, RunOptions};

#[test]
fn edit_check_generate_execute() {
    let session = Session::nsc_1988();
    let mut ed = session.editor("flow");
    ed.set_stream_len(10);
    let src = ed.place_icon(IconKind::Memory { plane: Some(PlaneId(0)) }, Point::new(22, 6));
    let als = ed.place_icon(IconKind::als(AlsKind::Singlet), Point::new(45, 6));
    let dst = ed.place_icon(IconKind::Memory { plane: Some(PlaneId(1)) }, Point::new(70, 6));
    let c1 = ed
        .connect(
            PadLoc::new(src, PadRef::Io),
            PadLoc::new(als, PadRef::FuIn { pos: 0, port: InPort::A }),
        )
        .expect("wire 1");
    ed.set_dma(c1, DmaAttrs::at_address(0));
    ed.assign_fu(als, 0, FuAssign::unary(FuOp::Sqrt));
    let c2 = ed
        .connect(PadLoc::new(als, PadRef::FuOut { pos: 0 }), PadLoc::new(dst, PadRef::Io))
        .expect("wire 2");
    ed.set_dma(c2, DmaAttrs::at_address(0));

    // The editor's live check is clean of errors.
    assert!(!has_errors(&ed.check_now()));

    let mut doc = ed.doc.clone();
    let mut node = session.node();
    node.mem.plane_mut(PlaneId(0)).write_slice(0, &[4.0, 9.0, 16.0, 25.0]);
    let compiled = session.compile(&mut doc).expect("compiles");
    let report = compiled.run(&mut node, &RunOptions::default()).expect("runs");
    let out = &compiled.output;
    assert_eq!(report.stats.halted, HaltReason::Halt);
    assert_eq!(node.mem.plane(PlaneId(1)).read_vec(0, 4), vec![2.0, 3.0, 4.0, 5.0]);

    // Both output representations exist: microcode and pseudo-code.
    assert!(out.program.disassemble(session.kb()).contains("SQRT"));
    assert!(nsc::codegen::emit_pseudocode(&doc).contains("SQRT"));
}

#[test]
fn errors_found_while_editing_also_block_generation() {
    let session = Session::nsc_1988();
    let mut ed = session.editor("blocked");
    // Two writers into one plane — the paper's canonical refusal.
    let a = ed.place_icon(IconKind::als(AlsKind::Singlet), Point::new(25, 4));
    let b = ed.place_icon(IconKind::als(AlsKind::Singlet), Point::new(25, 14));
    let m = ed.place_icon(IconKind::Memory { plane: Some(PlaneId(5)) }, Point::new(60, 8));
    ed.assign_fu(a, 0, FuAssign::with_const(FuOp::Mul, 1.0));
    ed.assign_fu(b, 0, FuAssign::with_const(FuOp::Mul, 2.0));
    let w1 = ed.connect(PadLoc::new(a, PadRef::FuOut { pos: 0 }), PadLoc::new(m, PadRef::Io));
    assert!(w1.is_some());
    let w2 = ed.connect(PadLoc::new(b, PadRef::FuOut { pos: 0 }), PadLoc::new(m, PadRef::Io));
    assert!(w2.is_none(), "the editor refuses the second writer");
    assert!(ed.message.contains("refused"));
    // And the menu never offered it either.
    let targets = ed.legal_targets(PadLoc::new(b, PadRef::FuOut { pos: 0 }));
    assert!(!targets.contains(&PadLoc::new(m, PadRef::Io)));
}

#[test]
fn saved_documents_reload_and_regenerate_identically() {
    let mut doc = nsc::cfd::build_jacobi_document(6, 1e-6, 50, nsc::cfd::JacobiVariant::Full);
    let out1 = Session::nsc_1988().compile(&mut doc).expect("compiles").output;
    // Round-trip through the SAVE format; a fresh session regenerates
    // rather than serving the first compile from its cache.
    let json = doc.to_json();
    let mut reloaded = nsc::diagram::Document::from_json(&json).expect("parses");
    let out2 = Session::nsc_1988().compile(&mut reloaded).expect("recompiles").output;
    assert_eq!(out1.program.instrs, out2.program.instrs, "identical microcode after reload");
}
