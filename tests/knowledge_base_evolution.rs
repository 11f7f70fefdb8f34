//! T9 (paper §4): "it helps to make the whole visual environment more
//! robust in the face of changes to the machine design. Some changes can
//! be handled merely by updating the knowledge base, with minimal impact
//! on the graphical editor and microcode generator."
//!
//! The same Jacobi document is checked, generated and *executed to
//! identical numerics* against revised machine configurations, with no
//! change to the document or any editor/generator code.

use nsc::arch::MachineConfig;
use nsc::cfd::{build_jacobi_document, grid::manufactured_problem, nsc_run, JacobiVariant};
use nsc::env::Session;
use nsc::sim::{NodeSim, RunOptions};

fn run_on(cfg: MachineConfig) -> Vec<f64> {
    let session = Session::new(cfg);
    let (u0, f, _) = manufactured_problem(6);
    let state = nsc::cfd::JacobiHostState::new(&u0, &f);
    let mut node = NodeSim::new(session.kb().clone());
    nsc_run::load_problem(&mut node, &state, JacobiVariant::Full);
    let mut doc = build_jacobi_document(6, 0.0, 2, JacobiVariant::Full);
    let compiled = session.compile(&mut doc).expect("compiles");
    compiled.run(&mut node, &RunOptions::default()).expect("runs");
    node.mem.plane(nsc::cfd::diagrams::PLANE_U0).read_vec(0, 6 * 6 * 6 + 2 * 36)
}

#[test]
fn revised_machines_absorb_the_same_program() {
    let baseline = run_on(MachineConfig::nsc_1988());

    // Revision 1: larger register files, six-tap SDUs, deeper fan-out.
    let mut rev1 = MachineConfig::nsc_1988();
    rev1.name = "NSC rev-B".into();
    rev1.rf_words = 128;
    rev1.sdu.taps_per_unit = 6;
    rev1.switch.max_fanout = 8;
    assert_eq!(run_on(rev1), baseline, "knowledge-base growth is invisible");

    // Revision 2: slower FP pipelines (deeper latencies) — the automatic
    // stream alignment re-derives different queue depths, but numerics
    // are untouched.
    let mut rev2 = MachineConfig::nsc_1988();
    rev2.name = "NSC rev-C".into();
    rev2.latency.short_ops = 5;
    rev2.latency.multiply = 7;
    assert_eq!(run_on(rev2), baseline, "latency changes alter timing, not values");
}

#[test]
fn shrinking_the_machine_is_caught_not_miscompiled() {
    // Removing the SDUs invalidates the document; the environment reports
    // rather than emitting wrong code.
    let mut small = MachineConfig::nsc_1988();
    small.sdu.units = 0;
    let session = Session::new(small);
    let mut doc = build_jacobi_document(6, 1e-6, 10, JacobiVariant::Full);
    assert!(session.compile(&mut doc).is_err());
}

#[test]
fn instruction_width_tracks_the_machine() {
    use nsc::microcode::Census;
    let kb88 = nsc::arch::KnowledgeBase::nsc_1988();
    let mut bigger = MachineConfig::nsc_1988();
    bigger.memory.planes = 16; // same
    bigger.cache.caches = 16; // same
    bigger.sdu.units = 4; // two more SDUs
    let kb_big = nsc::arch::KnowledgeBase::new(bigger);
    assert!(
        Census::of_machine(&kb_big).total_bits() > Census::of_machine(&kb88).total_bits(),
        "more hardware, wider instruction word"
    );
}
