//! Umbrella-crate smoke test: every module re-exported by `nsc` must link,
//! and a representative type from each must be constructible. This guards
//! the workspace wiring itself — a broken re-export or a crate dropped from
//! the dependency graph fails here before anything subtler does.

use nsc::arch::{AlsKind, FuOp, KnowledgeBase, MachineConfig, PlaneId};
use nsc::cfd::{Grid3, JacobiVariant};
use nsc::checker::{Checker, Stage};
use nsc::codegen::emit_pseudocode;
use nsc::diagram::{Document, IconKind, Point};
use nsc::editor::render_ascii;
use nsc::env::Session;
use nsc::expr::{AllocStrategy, Expr};
use nsc::microcode::{BitReader, BitWriter, MicroInstruction};
use nsc::sim::{NodeSim, RunOptions};

#[test]
fn arch_knowledge_base_matches_paper_headline_numbers() {
    let cfg = MachineConfig::nsc_1988();
    assert_eq!(cfg.fu_count(), 32);
    assert_eq!(cfg.peak_mflops(), 640.0);
    let kb = KnowledgeBase::nsc_1988();
    assert!(kb.valid_plane(PlaneId(0)));
}

#[test]
fn microcode_bits_round_trip() {
    let mut w = BitWriter::new();
    w.write(0b1011, 4);
    w.write(7, 3);
    let bytes = w.finish();
    let mut r = BitReader::new(&bytes);
    assert_eq!(r.read(4).unwrap(), 0b1011);
    assert_eq!(r.read(3).unwrap(), 7);

    let kb = KnowledgeBase::nsc_1988();
    let ins = MicroInstruction::empty(&kb);
    let encoded = ins.encode(&kb);
    assert_eq!(MicroInstruction::decode(&kb, &encoded).unwrap(), ins);
}

#[test]
fn diagram_document_and_checker_link() {
    let mut doc = Document::new("smoke");
    let pid = doc.add_pipeline("empty");
    assert!(doc.pipeline(pid).is_some());

    let kb = KnowledgeBase::nsc_1988();
    let checker = Checker::new(kb);
    let diags = checker.check_pipeline(doc.pipeline(pid).unwrap(), Stage::Incremental);
    // An empty pipeline is not an error at the incremental stage.
    assert!(!nsc::checker::diag::has_errors(&diags));
}

#[test]
fn editor_renders_a_placed_icon() {
    let session = Session::nsc_1988();
    let mut ed = session.editor("smoke");
    ed.place_icon(IconKind::als(AlsKind::Singlet), Point::new(40, 8));
    let screen = render_ascii(&ed);
    assert!(!screen.is_empty());
}

#[test]
fn codegen_emits_pseudocode_for_a_generated_document() {
    let session = Session::nsc_1988();
    let mut doc = nsc::cfd::build_jacobi_document(5, 1e-6, 4, JacobiVariant::Full);
    let compiled = session.compile(&mut doc).expect("jacobi document compiles");
    assert!(!compiled.program().instrs.is_empty());
    assert!(emit_pseudocode(&doc).contains("pipeline"));
}

#[test]
fn sim_runs_a_generated_program() {
    let session = Session::nsc_1988();
    let mut doc = nsc::cfd::build_jacobi_document(5, 0.0, 1, JacobiVariant::Full);
    let compiled = session.compile(&mut doc).expect("compiles");
    let mut node: NodeSim = session.node();
    let report = compiled.run(&mut node, &RunOptions::default()).expect("runs");
    assert!(report.stats.executed > 0);
    assert!(report.counters.cycles > 0);
}

#[test]
fn expr_compiles_and_evaluates_on_host() {
    let expr = Expr::var("a").add(Expr::Const(1.0));
    let host = expr.eval_host(4, &|_| vec![1.0, 2.0, 3.0, 4.0]);
    assert_eq!(host, vec![2.0, 3.0, 4.0, 5.0]);
    assert!(!AllocStrategy::ALL.is_empty());
    let _ = FuOp::Add;
}

#[test]
fn cfd_grid_constructs_with_unit_spacing_convention() {
    let g = Grid3::new(5, 5, 5);
    assert_eq!(g.len(), 125);
    assert!((g.h - 0.25).abs() < 1e-12);
}

#[test]
fn env_document_json_round_trips_through_umbrella_reexports() {
    let doc = nsc::cfd::build_jacobi_document(4, 1e-3, 2, JacobiVariant::Full);
    let back = nsc::diagram::Document::from_json(&doc.to_json()).expect("parses");
    assert_eq!(back, doc);
}
