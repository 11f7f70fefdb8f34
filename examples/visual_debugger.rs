//! Experiment T7 — the §6 visual-debugging extension: "each new
//! instruction would display the corresponding pipeline diagram, annotated
//! to show data values flowing through the pipeline."
//!
//! Runs a two-instruction program with tracing and prints each executed
//! instruction's diagram with its live pad values.
//!
//! Run with: `cargo run --example visual_debugger`

use nsc::arch::{AlsKind, FuOp, InPort, PlaneId};
use nsc::diagram::{DmaAttrs, FuAssign, IconKind, PadLoc, PadRef, Point};
use nsc::env::{NscError, Session};

fn main() -> Result<(), NscError> {
    let session = Session::nsc_1988();

    // Pipeline 1: t = x^2 ; pipeline 2: y = sqrt(t) + 1
    let mut ed = session.editor("debug demo");
    ed.set_stream_len(8);
    let mem_x = ed.place_icon(IconKind::Memory { plane: Some(PlaneId(0)) }, Point::new(20, 6));
    let sq = ed.place_icon(IconKind::als(AlsKind::Singlet), Point::new(42, 6));
    let mem_t = ed.place_icon(IconKind::Memory { plane: Some(PlaneId(1)) }, Point::new(66, 6));
    let c = ed
        .connect(
            PadLoc::new(mem_x, PadRef::Io),
            PadLoc::new(sq, PadRef::FuIn { pos: 0, port: InPort::A }),
        )
        .unwrap();
    ed.set_dma(c, DmaAttrs::at_address(0));
    // x^2 as x*x: both operands the same stream (one plane, fanned out).
    let c2 = ed
        .connect(
            PadLoc::new(mem_x, PadRef::Io),
            PadLoc::new(sq, PadRef::FuIn { pos: 0, port: InPort::B }),
        )
        .unwrap();
    ed.set_dma(c2, DmaAttrs::at_address(0));
    ed.assign_fu(sq, 0, FuAssign::binary(FuOp::Mul));
    let c3 = ed
        .connect(PadLoc::new(sq, PadRef::FuOut { pos: 0 }), PadLoc::new(mem_t, PadRef::Io))
        .unwrap();
    ed.set_dma(c3, DmaAttrs::at_address(0));

    // Second pipeline through the editor's pipeline controls.
    let mut doc = ed.doc.clone();
    let p2 = doc.add_pipeline("sqrt plus one");
    {
        let d = doc.pipeline_mut(p2).unwrap();
        d.stream_len = 8;
        let mem_t2 = d.add_icon(IconKind::Memory { plane: Some(PlaneId(1)) });
        let unit = d.add_icon(IconKind::als(AlsKind::Doublet));
        let mem_y = d.add_icon(IconKind::Memory { plane: Some(PlaneId(2)) });
        d.connect(
            PadLoc::new(mem_t2, PadRef::Io),
            PadLoc::new(unit, PadRef::FuIn { pos: 0, port: InPort::A }),
            Some(DmaAttrs::at_address(0)),
        )
        .unwrap();
        d.assign_fu(unit, 0, FuAssign::unary(FuOp::Sqrt)).unwrap();
        d.connect(
            PadLoc::new(unit, PadRef::FuOut { pos: 0 }),
            PadLoc::new(unit, PadRef::FuIn { pos: 1, port: InPort::A }),
            None,
        )
        .unwrap();
        d.assign_fu(unit, 1, FuAssign::with_const(FuOp::Add, 1.0)).unwrap();
        d.connect(
            PadLoc::new(unit, PadRef::FuOut { pos: 1 }),
            PadLoc::new(mem_y, PadRef::Io),
            Some(DmaAttrs::at_address(0)),
        )
        .unwrap();
    }

    let mut node = session.node();
    node.mem.plane_mut(PlaneId(0)).write_slice(0, &[1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 3.0]);
    let report = session.debug_run(&mut doc, &mut node, 8)?;
    println!("{}", report.render());
    println!("final y: {:?}", node.mem.plane(PlaneId(2)).read_vec(0, 8));
    println!(
        "{} instruction(s) executed, {} frame(s) captured",
        report.executed,
        report.frames.len()
    );
    // Last observed unit value in pipeline 2: sqrt(3^2)+1 = 4.
    let last = report.frames.last().unwrap();
    assert!(last.values.iter().any(|(_, v)| *v == 4.0), "{:?}", last.values);
    Ok(())
}
