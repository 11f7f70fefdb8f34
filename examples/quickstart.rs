//! Quickstart: the complete Figure 3 flow in fifty lines.
//!
//! Builds a one-instruction program (`y = |x| * 2` over a 16-element
//! vector) through the editor API, checks it, generates microcode, prints
//! the disassembly and the 1988-prototype-style pseudo-code, and executes
//! it on the simulated NSC node.
//!
//! Run with: `cargo run --example quickstart`

use nsc::arch::{AlsKind, FuOp, InPort, PlaneId};
use nsc::codegen::emit_pseudocode;
use nsc::diagram::{DmaAttrs, FuAssign, IconKind, PadLoc, PadRef, Point};
use nsc::env::{NscError, Session};
use nsc::sim::RunOptions;

fn main() -> Result<(), NscError> {
    let session = Session::nsc_1988();
    println!(
        "machine: {} — {} FUs, peak {} MFLOPS",
        session.kb().config().name,
        session.kb().config().fu_count(),
        session.kb().config().peak_mflops()
    );

    // --- edit (paper §5) ---
    let mut ed = session.editor("quickstart");
    ed.set_stream_len(16);
    let src = ed.place_icon(IconKind::Memory { plane: Some(PlaneId(0)) }, Point::new(22, 6));
    let als = ed.place_icon(IconKind::als(AlsKind::Doublet), Point::new(45, 5));
    let dst = ed.place_icon(IconKind::Memory { plane: Some(PlaneId(1)) }, Point::new(72, 6));
    let c1 = ed
        .connect(
            PadLoc::new(src, PadRef::Io),
            PadLoc::new(als, PadRef::FuIn { pos: 0, port: InPort::A }),
        )
        .expect("legal wire");
    ed.set_dma(c1, DmaAttrs::at_address(0));
    ed.assign_fu(als, 0, FuAssign::unary(FuOp::Abs));
    ed.connect(
        PadLoc::new(als, PadRef::FuOut { pos: 0 }),
        PadLoc::new(als, PadRef::FuIn { pos: 1, port: InPort::A }),
    );
    ed.assign_fu(als, 1, FuAssign::with_const(FuOp::Mul, 2.0));
    let c3 = ed
        .connect(PadLoc::new(als, PadRef::FuOut { pos: 1 }), PadLoc::new(dst, PadRef::Io))
        .expect("legal wire");
    ed.set_dma(c3, DmaAttrs::at_address(0));
    println!("\n--- the diagram (what the user sees) ---");
    println!("{}", nsc::editor::render_ascii(&ed));

    // --- compile: bind + check + generate, as one fallible stage (§4) ---
    let mut doc = ed.doc.clone();
    let compiled = session.compile(&mut doc)?;
    println!("--- pseudo-code (the 1988 prototype's output) ---");
    println!("{}", emit_pseudocode(&doc));
    println!("--- microcode disassembly (what the prototype could not yet emit) ---");
    println!("{}", compiled.program().disassemble(session.kb()));

    // --- execute on the simulated NSC ---
    let mut node = session.node();
    let input: Vec<f64> = (0..16).map(|i| (i as f64) - 8.0).collect();
    node.mem.plane_mut(PlaneId(0)).write_slice(0, &input);
    let report = compiled.run(&mut node, &RunOptions::default())?;
    let result = node.mem.plane(PlaneId(1)).read_vec(0, 16);
    println!("input : {input:?}");
    println!("output: {result:?}");
    println!(
        "executed {} instruction(s) in {} cycles ({:.1} us simulated) at {:.1} MFLOPS",
        report.stats.executed,
        report.counters.cycles,
        report.counters.seconds(session.kb().config().clock_hz) * 1e6,
        report.mflops
    );
    assert!(result.iter().zip(&input).all(|(y, x)| *y == 2.0 * x.abs()));
    println!("verified: y = 2*|x| on every element");
    Ok(())
}
