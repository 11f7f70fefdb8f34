//! A grid whose `data` length disagrees with its dimensions is caller
//! input, not a library invariant: every solver entry point refuses it
//! with `NscError::Workload` before it writes a plane, runs an
//! instruction or charges a message — it neither panics nor computes over
//! a zero-filled tail.

use nsc_arch::HypercubeConfig;
use nsc_cfd::diagrams::PLANE_U0;
use nsc_cfd::grid::manufactured_problem;
use nsc_cfd::host::FtcsCoeffs;
use nsc_cfd::{
    DistributedJacobiWorkload, DistributedMultigridWorkload, DistributedSorWorkload, Grid2, Grid3,
    GridShape, JacobiVariant, JacobiWorkload, MgOptions, MultigridWorkload, Partition,
    PartitionSpec, Poisson2dSolver, SorWorkload, StripPartition, SweepEngine, VorticityTransport,
};
use nsc_core::{NscError, Session, Workload};
use nsc_sim::{NodeSim, NscSystem, PerfCounters};

/// A node's counters and resident plane pages: what a refused call must
/// leave as it found it.
fn node_footprint(node: &NodeSim) -> (PerfCounters, Vec<usize>) {
    (node.counters, node.mem.planes.iter().map(|p| p.resident_pages()).collect())
}

fn footprint(sys: &NscSystem) -> (u64, Vec<(PerfCounters, Vec<usize>)>) {
    (sys.comm_ns, sys.nodes().iter().map(node_footprint).collect())
}

fn assert_workload_error<T: std::fmt::Debug>(result: Result<T, NscError>) {
    let err = result.expect_err("a malformed grid must be refused");
    assert!(matches!(err, NscError::Workload(_)), "{err:?}");
}

/// The manufactured `n³` problem with the iterate one word short.
fn short_problem(n: usize) -> (Grid3, Grid3) {
    let (mut u0, f, _) = manufactured_problem(n);
    u0.data.pop();
    (u0, f)
}

#[test]
fn distributed_jacobi_refuses_a_short_grid_untouched() {
    let session = Session::nsc_1988();
    let mut sys = NscSystem::new(HypercubeConfig::new(1), session.kb());
    let before = footprint(&sys);
    let (u0, f) = short_problem(8);
    let w = DistributedJacobiWorkload::new(u0, f, 0.0, 1, PartitionSpec::Auto);
    assert_workload_error(w.execute(&session, &mut sys));
    assert_eq!(footprint(&sys), before);
}

#[test]
fn distributed_sor_refuses_a_short_grid_untouched() {
    let session = Session::nsc_1988();
    let mut sys = NscSystem::new(HypercubeConfig::new(1), session.kb());
    let before = footprint(&sys);
    let (u0, mut f, _) = manufactured_problem(8);
    f.data.push(0.0); // a long grid is refused just like a short one
    let w = DistributedSorWorkload {
        u0,
        f,
        omega: 1.5,
        tol: 0.0,
        max_sweeps: 2,
        partition: PartitionSpec::Auto,
    };
    assert_workload_error(w.execute(&session, &mut sys));
    assert_eq!(footprint(&sys), before);
}

#[test]
fn distributed_multigrid_refuses_a_short_grid_untouched() {
    let session = Session::nsc_1988();
    let mut sys = NscSystem::new(HypercubeConfig::new(2), session.kb());
    let before = footprint(&sys);
    let (u0, f) = short_problem(9);
    let w =
        DistributedMultigridWorkload { u0, f, tol: 0.0, max_cycles: 1, opts: MgOptions::default() };
    assert_workload_error(w.execute(&session, &mut sys));
    assert_eq!(footprint(&sys), before);
}

#[test]
fn vorticity_transport_refuses_a_foreign_or_short_field_untouched() {
    let session = Session::nsc_1988();
    let mut sys = NscSystem::new(HypercubeConfig::new(2), session.kb());
    let solver = Poisson2dSolver::new(&session, &mut sys, 9, 9).expect("compiles");
    let coeffs = FtcsCoeffs::new(1.0 / 8.0, 10.0, 1e-4);
    let transport =
        VorticityTransport::new(&session, solver.partition(), coeffs).expect("compiles");
    let before = footprint(&sys);
    let mut omega = Grid2::new(9, 9);
    *omega.at_mut(4, 4) = 1.0;
    let kept = omega.clone();

    // A 9x8 ψ for the 9x9 plane the partition cuts.
    let foreign = Grid2::new(9, 8);
    assert_workload_error(transport.step(&mut sys, solver.partition(), &foreign, &mut omega));
    // A 9x9 ψ one word short, then a short ω.
    let mut short = Grid2::new(9, 9);
    short.data.pop();
    assert_workload_error(transport.step(&mut sys, solver.partition(), &short, &mut omega));
    let mut short_omega = omega.clone();
    short_omega.data.pop();
    let psi = Grid2::new(9, 9);
    assert_workload_error(transport.step(&mut sys, solver.partition(), &psi, &mut short_omega));
    assert_eq!(omega, kept, "a refused step leaves ω alone");
    assert_eq!(footprint(&sys), before);
    transport.step(&mut sys, solver.partition(), &psi, &mut omega).expect("a well-formed step");
}

#[test]
fn host_sweep_refuses_slabs_that_are_not_one_per_part_untouched() {
    let session = Session::nsc_1988();
    let mut sys = NscSystem::new(HypercubeConfig::new(1), session.kb());
    let strips = StripPartition::new(GridShape::volume3d(8, 8, 8), sys.cube).expect("decomposes");
    let engine = SweepEngine::stencil(&strips);
    let before = footprint(&sys);
    let whole = strips.scatter(&[0.5; 512]);
    let relax = |_: usize, _: std::ops::Range<usize>, slab: &mut Vec<f64>| {
        slab.iter_mut().for_each(|v| *v = 9.0);
        1.0
    };

    // One slab for a two-part partition.
    let mut one = whole[..1].to_vec();
    assert_workload_error(engine.host_sweep(&mut sys, PLANE_U0, &mut one, false, relax));
    assert_eq!(one, whole[..1], "no slab written");
    // Two slabs, the second one word short.
    let mut short = whole.clone();
    short[1].pop();
    let kept = short.clone();
    assert_workload_error(engine.host_sweep(&mut sys, PLANE_U0, &mut short, false, relax));
    assert_eq!(short, kept, "no slab written");
    assert_eq!(footprint(&sys), before);

    let mut slabs = whole.clone();
    let res = engine.host_sweep(&mut sys, PLANE_U0, &mut slabs, false, relax).expect("sweeps");
    assert_eq!(res, vec![1.0, 1.0]);
}

#[test]
fn serial_jacobi_refuses_a_short_grid_untouched() {
    let session = Session::nsc_1988();
    let mut node = session.node();
    let before = node_footprint(&node);
    let (u0, f) = short_problem(6);
    let w = JacobiWorkload { u0, f, tol: 0.0, max_pairs: 1, variant: JacobiVariant::Full };
    assert_workload_error(w.execute(&session, &mut node));
    assert_eq!(node_footprint(&node), before);
}

#[test]
fn serial_sor_refuses_a_short_grid_untouched() {
    let session = Session::nsc_1988();
    let mut node = session.node();
    let before = node_footprint(&node);
    let (u0, f) = short_problem(6);
    let w = SorWorkload { u0, f, omega: 1.5, tol: 0.0, max_sweeps: 2 };
    assert_workload_error(w.execute(&session, &mut node));
    assert_eq!(node_footprint(&node), before);
}

#[test]
fn serial_multigrid_refuses_a_short_grid_untouched() {
    let session = Session::nsc_1988();
    let mut node = session.node();
    let before = node_footprint(&node);
    let (u0, f) = short_problem(9);
    let w = MultigridWorkload { u0, f, tol: 0.0, max_cycles: 1, opts: MgOptions::default() };
    assert_workload_error(w.execute(&session, &mut node));
    assert_eq!(node_footprint(&node), before);
}
