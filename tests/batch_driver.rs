//! `run_lanes`, the one driver that runs compiled programs on nodes: lane
//! placement, per-lane reports, failure attribution and panics.

use nsc::arch::{MachineConfig, NodeId, PlaneId};
use nsc::env::{run_lanes, NscError, Session};
use nsc::sim::{ExecError, RunOptions};
use std::error::Error;

mod common;
use common::scale_doc;

#[test]
fn empty_inputs_are_handled_without_threads() {
    let session = Session::nsc_1988();
    let prog = session.compile(&mut scale_doc(2.0, 0)).expect("compiles");
    // No lanes, no work: nothing runs.
    let mut nodes = vec![session.node()];
    let runs = run_lanes(&mut nodes, &[], &RunOptions::default()).expect("no lanes");
    assert!(runs.is_empty());
    assert_eq!(nodes[0].counters.instructions, 0);

    // A lane but no nodes to run it on.
    let err = run_lanes(&mut [], &[(0, &prog)], &RunOptions::default()).unwrap_err();
    assert_eq!(err, NscError::BadLane { lane: 0, node: 0 });
}

#[test]
fn an_explicit_pool_drives_only_its_own_nodes() {
    // The per-embedding shape: four nodes, lanes naming nodes 2 and 1 (in
    // that order) — lane i's program runs on its node, the others stay idle.
    let session = Session::nsc_1988();
    let compiled: Vec<_> = (0..2)
        .map(|i| {
            let mut doc = scale_doc((i + 2) as f64, 0);
            session.compile(&mut doc).expect("compiles")
        })
        .collect();
    let mut nodes: Vec<_> = (0..4).map(|_| session.node()).collect();
    for node in &mut nodes {
        node.mem.plane_mut(PlaneId(0)).write_slice(0, &[1.0, 1.0, 1.0]);
    }
    let lanes = [(2, &compiled[0]), (1, &compiled[1])];
    let runs = run_lanes(&mut nodes, &lanes, &RunOptions::default()).expect("lanes");
    assert_eq!(runs.len(), 2);
    assert_eq!(nodes[2].mem.plane(PlaneId(1)).read_vec(0, 3), vec![2.0, 2.0, 2.0]);
    assert_eq!(nodes[1].mem.plane(PlaneId(1)).read_vec(0, 3), vec![3.0, 3.0, 3.0]);
    assert_eq!(nodes[0].counters.instructions, 0, "outside the pool");
    assert_eq!(nodes[3].counters.instructions, 0, "outside the pool");
}

#[test]
fn each_lane_runs_its_own_program_and_reports_its_own_counters() {
    let session = Session::nsc_1988();
    let double = session.compile(&mut scale_doc(2.0, 0)).expect("compiles");
    let triple = session.compile(&mut scale_doc(3.0, 8)).expect("compiles");
    let mut nodes = vec![session.node(), session.node()];
    for node in &mut nodes {
        node.mem.plane_mut(PlaneId(0)).write_slice(0, &[1.0, 2.0, 3.0]);
    }
    let lanes = [(0, &double), (1, &triple)];
    let runs = run_lanes(&mut nodes, &lanes, &RunOptions::default()).expect("both run");
    assert_eq!(nodes[0].mem.plane(PlaneId(1)).read_vec(0, 3), vec![2.0, 4.0, 6.0]);
    assert_eq!(nodes[1].mem.plane(PlaneId(1)).read_vec(8, 3), vec![3.0, 6.0, 9.0]);
    assert_eq!(nodes[0].mem.plane(PlaneId(1)).read_vec(8, 3), vec![0.0; 3], "node 0 ran x2 only");
    assert_eq!(nodes[1].mem.plane(PlaneId(1)).read_vec(0, 3), vec![0.0; 3], "node 1 ran x3 only");
    for (run, node) in runs.iter().zip(&nodes) {
        assert_eq!(run.counters, node.counters, "a lane reports what its own node ran");
    }
}

#[test]
fn the_lowest_failing_lane_is_named_and_chains_to_the_executor_error() {
    // An interpreting session, and lanes 2 and 3 on a smaller machine that
    // lacks the functional unit the program was bound to: both fail at
    // run time, the others complete.
    let session = Session::nsc_1988().with_fast_path(false);
    let prog = session.compile(&mut scale_doc(2.0, 0)).expect("compiles");
    let small = Session::new(MachineConfig::test_small());
    let mut nodes = vec![session.node(), session.node(), small.node(), small.node()];
    let lanes: Vec<_> = (0..4).map(|i| (i, &prog)).collect();
    let err = run_lanes(&mut nodes, &lanes, &RunOptions::default()).unwrap_err();
    let NscError::NodeFailed { node, ref source } = err else {
        panic!("expected NodeFailed, got {err:?}");
    };
    assert_eq!(node, NodeId(2), "the lowest failing lane reports its node");
    assert!(matches!(**source, NscError::Exec(ExecError::BadProgram(_))), "{source:?}");
    let level1 = err.source().unwrap().downcast_ref::<NscError>().expect("lane error");
    assert!(level1.source().unwrap().downcast_ref::<ExecError>().is_some());
    assert!(nodes[0].counters.instructions > 0 && nodes[1].counters.instructions > 0);

    // The same failure on every lane: lane 0 reports, naming its node.
    let mut small_nodes = vec![small.node(), small.node()];
    let lanes = [(1, &prog), (0, &prog)];
    let err = run_lanes(&mut small_nodes, &lanes, &RunOptions::default()).unwrap_err();
    assert!(matches!(err, NscError::NodeFailed { node: NodeId(1), .. }), "{err:?}");
}

#[test]
fn a_single_lane_runs_exactly_like_compiled_program_run() {
    // The one-lane call runs on the calling thread: same report, same
    // node state as running the program directly.
    let session = Session::nsc_1988();
    let prog = session.compile(&mut scale_doc(2.0, 0)).expect("compiles");
    let mut nodes = vec![session.node()];
    nodes[0].mem.plane_mut(PlaneId(0)).write_slice(0, &[1.0, 2.0, 3.0]);
    let mut direct = nodes[0].clone();
    let opts = RunOptions { trace: true, ..Default::default() };
    let want = prog.run(&mut direct, &opts).expect("runs");
    let runs = run_lanes(&mut nodes, &[(0, &prog)], &opts).expect("one lane");
    assert_eq!(runs.len(), 1);
    let got = &runs[0];
    assert_eq!(got.counters, want.counters);
    assert_eq!((got.stats.halted, got.stats.executed), (want.stats.halted, want.stats.executed));
    let bits = |r: &nsc::env::RunReport| -> Vec<Vec<Option<u64>>> {
        r.stats
            .traces
            .iter()
            .map(|(_, t)| t.last.iter().map(|v| v.map(f64::to_bits)).collect())
            .collect()
    };
    assert_eq!(bits(got), bits(&want));
    assert_eq!(got.mflops.to_bits(), want.mflops.to_bits());
    assert_eq!(nodes[0].counters, direct.counters);
    for plane in [PlaneId(0), PlaneId(1)] {
        assert_eq!(
            nodes[0].mem.plane(plane).read_vec(0, 8),
            direct.mem.plane(plane).read_vec(0, 8)
        );
    }

    // A failing single lane still names its node, with nothing run.
    let mut fresh = vec![session.node()];
    let budgetless = RunOptions { max_instructions: 0, ..Default::default() };
    let err = run_lanes(&mut fresh, &[(0, &prog)], &budgetless).unwrap_err();
    let NscError::NodeFailed { node: NodeId(0), ref source } = err else {
        panic!("expected NodeFailed {{ node: N0, .. }}, got {err:?}");
    };
    assert!(matches!(**source, NscError::MaxInstructions { .. }), "{source:?}");
    assert_eq!(fresh[0].counters.instructions, 0);
}

#[test]
fn a_panicking_lane_panics_the_call_once_every_lane_has_finished() {
    // The program writes past a small machine's 4096-word planes, so it
    // panics on a small node: first in the caller's own lane, then in a
    // spawned one. Either way the other lane completes its run.
    let session = Session::nsc_1988();
    let prog = session.compile(&mut scale_doc(2.0, 5000)).expect("compiles");
    let small = Session::new(MachineConfig::test_small());
    for panicking in 0..2 {
        let mut nodes = vec![session.node(), session.node()];
        nodes[panicking] = small.node();
        let lanes = [(0, &prog), (1, &prog)];
        let run = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            run_lanes(&mut nodes, &lanes, &RunOptions::default())
        }));
        assert!(run.is_err(), "lane {panicking}'s panic propagates");
        let mut reference = session.node();
        let want = prog.run(&mut reference, &RunOptions::default()).expect("runs");
        assert_eq!(nodes[1 - panicking].counters, want.counters, "the other lane finished");
    }
}

#[test]
fn a_lane_naming_a_node_out_of_range_is_an_error() {
    let session = Session::nsc_1988();
    let prog = session.compile(&mut scale_doc(2.0, 0)).expect("compiles");
    let mut nodes = vec![session.node(), session.node()];
    let err = run_lanes(&mut nodes, &[(0, &prog), (2, &prog)], &RunOptions::default())
        .expect_err("node 2 does not exist");
    assert_eq!(err, NscError::BadLane { lane: 1, node: 2 });
    assert_eq!(nodes[0].counters.instructions, 0, "nothing ran");

    // A single lane, which runs on the calling thread, is refused alike.
    let err = run_lanes(&mut nodes, &[(2, &prog)], &RunOptions::default())
        .expect_err("node 2 does not exist");
    assert_eq!(err, NscError::BadLane { lane: 0, node: 2 });
    assert!(nodes.iter().all(|n| n.counters.instructions == 0), "nothing ran");
}

#[test]
fn a_lane_repeating_a_node_is_an_error() {
    let session = Session::nsc_1988();
    let prog = session.compile(&mut scale_doc(2.0, 0)).expect("compiles");
    let mut nodes = vec![session.node(), session.node()];
    let err = run_lanes(&mut nodes, &[(1, &prog), (0, &prog), (1, &prog)], &RunOptions::default())
        .expect_err("node 1 is named twice");
    assert_eq!(err, NscError::BadLane { lane: 2, node: 1 });
    assert!(nodes.iter().all(|n| n.counters.instructions == 0), "nothing ran");
}
