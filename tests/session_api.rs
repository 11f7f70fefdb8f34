//! The typed stage pipeline's error paths: every way a document can fail
//! between the editor and the machine surfaces as a distinct [`NscError`]
//! variant whose `source()` chain reaches the producing crate's error.

use nsc::arch::{AlsKind, PlaneId};
use nsc::checker::ConstraintKind;
use nsc::codegen::GenError;
use nsc::diagram::{Document, IconKind};
use nsc::env::{DiagnosticSet, NscError, Session};
use nsc::sim::RunOptions;
use serde::{Deserialize, Serialize, Value};
use std::error::Error;

mod common;
use common::scale_doc;

#[test]
fn auto_bind_failure_is_its_own_variant_with_the_diagnostics_as_source() {
    let session = Session::nsc_1988();
    // More triplets than the machine owns: unbindable.
    let mut doc = Document::new("too-many");
    let pid = doc.add_pipeline("p");
    for _ in 0..5 {
        doc.pipeline_mut(pid).unwrap().add_icon(IconKind::als(AlsKind::Triplet));
    }
    let err = session.compile(&mut doc).unwrap_err();
    let NscError::BindFailed(ref diags) = err else {
        panic!("expected BindFailed, got {err:?}");
    };
    assert!(!diags.is_empty());
    // The source chain reaches the same diagnostic set.
    let set = err.source().expect("has source").downcast_ref::<DiagnosticSet>().unwrap();
    assert_eq!(set.len(), diags.len());
    assert!(err.to_string().contains("auto-bind failed"));
}

#[test]
fn generation_failure_chains_to_the_generators_error() {
    let session = Session::nsc_1988();
    // A document with no pipelines binds and checks, but has nothing to
    // emit.
    let mut doc = Document::new("empty");
    let err = session.compile(&mut doc).unwrap_err();
    assert!(matches!(err, NscError::Gen(GenError::EmptyProgram)), "{err:?}");
    let gen = err.source().expect("has source").downcast_ref::<GenError>().unwrap();
    assert_eq!(*gen, GenError::EmptyProgram);
}

#[test]
fn instruction_budget_exhaustion_is_an_error_not_a_silent_halt() {
    let session = Session::nsc_1988();
    let mut doc = scale_doc(2.0, 0);
    let compiled = session.compile(&mut doc).expect("compiles");
    let mut node = session.node();
    // Budget of zero: the guard trips before the first instruction.
    let opts = RunOptions { max_instructions: 0, ..Default::default() };
    let err = compiled.run(&mut node, &opts).unwrap_err();
    assert!(matches!(err, NscError::MaxInstructions { executed: 0, limit: 0 }), "{err:?}");
    assert!(err.source().is_none(), "the guard is the root cause");
    // With a sane budget the same program completes.
    let report = compiled.run(&mut node, &RunOptions::default()).expect("runs");
    assert_eq!(report.stats.executed, 1);
}

#[test]
fn stages_are_individually_inspectable() {
    let session = Session::nsc_1988();
    let mut doc = scale_doc(3.0, 0);
    session.auto_bind(&mut doc).expect("binds");
    let warnings = session.check(&doc).expect("no errors");
    let out = session.codegen(&doc).expect("generates");
    assert_eq!(out.program.len(), 1);
    // compile = the same three stages chained.
    let compiled = session.compile(&mut doc.clone()).expect("compiles");
    assert_eq!(compiled.program().instrs, out.program.instrs);
    assert_eq!(compiled.warnings.len(), warnings.len());
}

#[test]
fn the_compiled_program_runs_and_reports_per_run_counters() {
    let session = Session::nsc_1988();
    let mut doc = scale_doc(10.0, 0);
    let compiled = session.compile(&mut doc).expect("compiles");
    let mut node = session.node();
    node.mem.plane_mut(PlaneId(0)).write_slice(0, &[1.0, 2.0, 3.0]);
    let first = compiled.run(&mut node, &RunOptions::default()).expect("runs");
    assert_eq!(node.mem.plane(PlaneId(1)).read_vec(0, 3), vec![10.0, 20.0, 30.0]);
    // Counters are per-run deltas even on a reused node.
    let second = compiled.run(&mut node, &RunOptions::default()).expect("runs again");
    assert_eq!(first.counters.instructions, 1);
    assert_eq!(second.counters.instructions, 1, "delta, not lifetime total");
    assert_eq!(node.counters.instructions, 2, "the node still accumulates");
}

/// The node `path` names in a value tree: object keys, or array indices.
fn node<'v>(v: &'v mut Value, path: &[&str]) -> &'v mut Value {
    path.iter().fold(v, |v, key| match v {
        Value::Object(entries) => {
            &mut entries.iter_mut().find(|(k, _)| k == key).unwrap_or_else(|| panic!("{key}")).1
        }
        Value::Array(items) => &mut items[key.parse::<usize>().expect("an index")],
        other => panic!("{key} in a {}", other.kind()),
    })
}

#[test]
fn a_saved_document_with_a_dangling_wire_is_an_error_not_a_panic() {
    // Loading a saved document parses its JSON into this value tree and
    // deserializes the tree, so editing the tree replays what a corrupted
    // or hand-edited save loads as. Two shapes used to get past the
    // checker: a wire whose end names no icon (the code generator then
    // panicked), and an icon filed under a key other than its own id
    // (which could compile to a program that reads nothing).
    let saved = scale_doc(2.0, 0).to_value();
    let mut shapes = Vec::new();
    for (conn, end, missing) in [("0", "from", 3), ("0", "from", 99), ("1", "to", 7)] {
        let mut v = saved.clone();
        *node(&mut v, &["pipelines", "0", "connections", conn, end, "icon"]) = Value::Int(missing);
        shapes.push((format!("wire {conn} {end} missing icon{missing}"), v));
    }
    for (key, id) in [("0", 3), ("0", 1), ("1", 7), ("2", 0)] {
        let mut v = saved.clone();
        *node(&mut v, &["pipelines", "0", "icons", key, "id"]) = Value::Int(id);
        shapes.push((format!("icon filed under {key} claims id {id}"), v));
    }
    let session = Session::nsc_1988();
    for (shape, v) in shapes {
        let mut doc = Document::from_value(&v).unwrap_or_else(|e| panic!("{shape}: loads: {e}"));
        let err = session.compile(&mut doc).expect_err(&shape);
        let NscError::CheckFailed(ref diags) = err else {
            panic!("{shape}: expected CheckFailed, got {err:?}");
        };
        assert!(
            diags.diagnostics().iter().any(|d| d.rule == ConstraintKind::DanglingWire),
            "{shape}: {err}"
        );
    }
}
