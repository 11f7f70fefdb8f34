//! A grid whose `data` length disagrees with its dimensions is caller
//! input, not a library invariant: every solver entry point refuses it
//! with `NscError::Workload` before it writes a plane, runs an
//! instruction or charges a message — it neither panics nor computes over
//! a zero-filled tail. So is a grid with a side below the three points a
//! stencil needs, a grid the V-cycle cannot coarsen, a node whose machine
//! differs from the session's, a system lacking one of the partition's
//! nodes, and host slabs that are not one per part, at every halo
//! exchange entry point. So, at every entry point that sweeps through
//! shift/delay units, is a grid whose deepest tap — two planes (3-D) or
//! rows (2-D) back — reaches the SDU buffer.

use nsc_arch::{HypercubeConfig, KnowledgeBase, MachineConfig, SubsetModel};
use nsc_cfd::diagrams::PLANE_U0;
use nsc_cfd::grid::manufactured_problem;
use nsc_cfd::host::FtcsCoeffs;
use nsc_cfd::{
    host_halo_exchange, run_jacobi, vcycle, DistributedJacobiWorkload,
    DistributedMultigridWorkload, DistributedSorWorkload, Grid2, Grid3, GridShape, HaloSpec,
    JacobiVariant, Partition, PartitionSpec, Poisson2dSolver, StripPartition, SweepEngine,
    VorticityTransport,
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
    let w = DistributedMultigridWorkload { u0, f, tol: 0.0, max_cycles: 1, omega: 0.8 };
    assert_workload_error(w.execute(&session, &mut sys));
    assert_eq!(footprint(&sys), before);
}

#[test]
fn serial_vcycle_refuses_a_bad_shape_untouched() {
    // The manufactured 8^3 problem (8 - 1 = 7 is not 2^m), 9^3 grids with
    // one side off, and a 9^3 iterate one word short.
    let (u0, f, _) = manufactured_problem(8);
    let mut cases = vec![(u0, f)];
    for (nx, ny, nz) in [(17, 9, 9), (9, 8, 9), (9, 9, 17)] {
        let grid = Grid3 { nx, ny, nz, h: 0.125, data: vec![0.25; nx * ny * nz] };
        cases.push((grid.clone(), grid));
    }
    cases.push(short_problem(9));
    for (mut u, f) in cases {
        let before = u.clone();
        assert_workload_error(vcycle(&mut u, &f, 0.0, 1, 0.8));
        assert_eq!(u, before, "{}x{}x{}", u.nx, u.ny, u.nz);
    }
}

/// A grid with no interior along some side, whose `data` length matches
/// its sides: `Grid3::new` refuses to build one, but a caller can still
/// hand one over.
fn flat_problem(nx: usize, ny: usize, nz: usize) -> (Grid3, Grid3) {
    let grid = Grid3 { nx, ny, nz, h: 0.5, data: vec![0.25; nx * ny * nz] };
    (grid.clone(), grid)
}

/// The distributed solvers' flat cases, as `((nx, ny, nz), cube dimension,
/// decomposition)`: strips leaving x two points wide, `Auto` leaving y two
/// points wide, and one 1x1 block two planes deep.
const FLAT_DISTRIBUTED: [((usize, usize, usize), u32, PartitionSpec); 3] = [
    ((2, 4, 8), 1, PartitionSpec::Strip),
    ((4, 2, 8), 1, PartitionSpec::Auto),
    ((4, 4, 2), 0, PartitionSpec::Block),
];

#[test]
fn distributed_jacobi_refuses_a_side_below_three_untouched() {
    let session = Session::nsc_1988();
    for ((nx, ny, nz), dim, spec) in FLAT_DISTRIBUTED {
        let mut sys = NscSystem::new(HypercubeConfig::new(dim), session.kb());
        let before = footprint(&sys);
        let (u0, f) = flat_problem(nx, ny, nz);
        let w = DistributedJacobiWorkload::new(u0, f, 0.0, 1, spec);
        assert_workload_error(w.execute(&session, &mut sys));
        assert_eq!(footprint(&sys), before, "{nx}x{ny}x{nz} {spec:?}");
    }
}

#[test]
fn distributed_sor_refuses_a_side_below_three_untouched() {
    let session = Session::nsc_1988();
    for ((nx, ny, nz), dim, partition) in FLAT_DISTRIBUTED {
        let mut sys = NscSystem::new(HypercubeConfig::new(dim), session.kb());
        let before = footprint(&sys);
        let (u0, f) = flat_problem(nx, ny, nz);
        let w = DistributedSorWorkload { u0, f, omega: 1.5, tol: 0.0, max_sweeps: 2, partition };
        assert_workload_error(w.execute(&session, &mut sys));
        assert_eq!(footprint(&sys), before, "{nx}x{ny}x{nz} {partition:?}");
    }
}

/// Grids whose xy-plane puts the deepest shift/delay tap at or past the
/// 16,384-word SDU buffer: a 65,636-word plane (its tap delay wrapped the
/// 16-bit tap field to 200, and the sweep answered wrongly), a
/// 65,538-word plane (its delay arithmetic overflowed), and an 8,281-word
/// plane whose delay fits the field but not the buffer.
const PAST_THE_TAPS: [(usize, usize, usize); 3] = [(4, 16_409, 3), (3, 21_846, 3), (91, 91, 3)];

fn assert_tap_refusal<T: std::fmt::Debug>(result: Result<T, NscError>, layer: &str, delay: usize) {
    let err = result.expect_err("a sweep past the shift/delay buffer must be refused");
    let named = format!("a {layer} puts the deepest shift/delay tap {delay} words back");
    assert!(
        matches!(&err, NscError::Workload(m) if m.contains(&named) && m.contains("16384 words")),
        "{err}"
    );
}

#[test]
fn sweeps_past_the_shift_delay_buffer_are_refused_untouched() {
    let session = Session::nsc_1988();
    for (nx, ny, nz) in PAST_THE_TAPS {
        let mut sys = NscSystem::new(HypercubeConfig::new(0), session.kb());
        let before = footprint(&sys);
        let (u0, f) = flat_problem(nx, ny, nz);
        let w = DistributedJacobiWorkload::new(u0, f, 0.0, 1, PartitionSpec::Auto);
        let plane = nx * ny;
        assert_tap_refusal(
            w.execute(&session, &mut sys),
            &format!("{plane}-word plane"),
            2 * plane,
        );
        assert_eq!(footprint(&sys), before, "{nx}x{ny}x{nz}");
    }

    // The serial loop document, on the full and the singlets-only machine.
    let (u0, f) = flat_problem(91, 91, 91);
    for (variant, model) in [
        (JacobiVariant::Full, SubsetModel::Full),
        (JacobiVariant::SingletsOnly, SubsetModel::SingletsOnly),
    ] {
        let session = Session::new(MachineConfig::nsc_1988().subset(model));
        let mut node = session.node();
        let before = node_footprint(&node);
        let run = run_jacobi(&session, &mut node, &u0, &f, 0.0, 1, variant);
        assert_tap_refusal(run, "8281-word plane", 16_562);
        assert_eq!(node_footprint(&node), before, "{variant:?}");
    }

    // The V-cycle's finest level on one node.
    let mut sys = NscSystem::new(HypercubeConfig::new(0), session.kb());
    let before = footprint(&sys);
    let (u0, f) = flat_problem(129, 129, 129);
    let w = DistributedMultigridWorkload { u0, f, tol: 0.0, max_cycles: 1, omega: 0.8 };
    assert_tap_refusal(w.execute(&session, &mut sys), "16641-word plane", 33_282);
    assert_eq!(footprint(&sys), before);

    // The cavity's 2-D sweep and FTCS step, whose layer is a row: 8,192
    // words put the deepest tap exactly at the buffer; 8,191 fit.
    let mut sys = NscSystem::new(HypercubeConfig::new(0), session.kb());
    let before = footprint(&sys);
    let solver = Poisson2dSolver::new(&session, &mut sys, 8192, 3);
    assert_tap_refusal(solver, "8192-word row", 16_384);
    let rows = PartitionSpec::Auto.build(GridShape::plane2d(8192, 3), sys.cube, true).unwrap();
    let coeffs = FtcsCoeffs::new(1.0 / 8.0, 10.0, 1e-4);
    let transport = VorticityTransport::new(&session, rows.as_ref(), coeffs);
    assert_tap_refusal(transport, "8192-word row", 16_384);
    assert_eq!(footprint(&sys), before);
    Poisson2dSolver::new(&session, &mut sys, 8191, 3).expect("an 8,191-word row fits");
}

#[test]
fn serial_jacobi_refuses_a_side_below_three_untouched() {
    let session = Session::nsc_1988();
    let mut node = session.node();
    let before = node_footprint(&node);
    let (u0, f) = flat_problem(2, 2, 2);
    assert_workload_error(run_jacobi(&session, &mut node, &u0, &f, 0.0, 1, JacobiVariant::Full));
    assert_eq!(node_footprint(&node), before);
}

#[test]
fn run_jacobi_refuses_a_foreign_node_untouched() {
    // The document compiles for the session's machine; a node of another
    // machine — a subset model, a smaller machine, or one that differs
    // only in name — is refused before a plane is written.
    let session = Session::nsc_1988();
    let mut renamed = MachineConfig::nsc_1988();
    renamed.name = "revised".into();
    let foreign = [
        MachineConfig::nsc_1988().subset(SubsetModel::NoSdu),
        MachineConfig::test_small(),
        renamed,
    ];
    let (u0, f, _) = manufactured_problem(6);
    for config in foreign {
        let name = config.name.clone();
        let mut node = NodeSim::new(KnowledgeBase::new(config));
        let before = node_footprint(&node);
        for variant in [JacobiVariant::Full, JacobiVariant::NoSdu] {
            assert_workload_error(run_jacobi(&session, &mut node, &u0, &f, 1e-9, 10, variant));
        }
        assert_eq!(node_footprint(&node), before, "{name}");
    }
}

#[test]
fn poisson_solver_refuses_a_side_below_three_untouched() {
    let session = Session::nsc_1988();
    for (nx, ny, spec) in [(2, 9, PartitionSpec::Auto), (9, 2, PartitionSpec::Block)] {
        let mut sys = NscSystem::new(HypercubeConfig::new(0), session.kb());
        let before = footprint(&sys);
        assert_workload_error(Poisson2dSolver::with_partition(&session, &mut sys, nx, ny, spec));
        assert_eq!(footprint(&sys), before, "{nx}x{ny} {spec:?}");
    }
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
    assert_workload_error(run_jacobi(&session, &mut node, &u0, &f, 0.0, 1, JacobiVariant::Full));
    assert_eq!(node_footprint(&node), before);
}

/// Four strips of a 9³ grid, laid on a 4-node cube, and a 2-node system
/// lacking two of the strips' nodes.
fn strips_on_a_small_system(session: &Session) -> (StripPartition, NscSystem) {
    let strips = StripPartition::new(GridShape::volume3d(9, 9, 9), HypercubeConfig::new(2))
        .expect("decomposes");
    (strips, NscSystem::new(HypercubeConfig::new(1), session.kb()))
}

#[test]
fn refresh_refuses_a_system_lacking_a_partition_node_untouched() {
    let session = Session::nsc_1988();
    let (strips, mut sys) = strips_on_a_small_system(&session);
    let before = footprint(&sys);
    assert_workload_error(SweepEngine::stencil(&strips).refresh(&mut sys, PLANE_U0));
    assert_eq!(footprint(&sys), before);
}

#[test]
fn halo_exchange_refuses_a_system_lacking_a_partition_node_untouched() {
    let session = Session::nsc_1988();
    let (strips, mut sys) = strips_on_a_small_system(&session);
    let before = footprint(&sys);
    assert_workload_error(strips.halo_exchange(&mut sys, PLANE_U0, &HaloSpec::stencil()));
    assert_eq!(footprint(&sys), before);
}

#[test]
fn host_halo_exchange_refuses_a_small_system_or_foreign_slabs_untouched() {
    let session = Session::nsc_1988();
    let (strips, mut small) = strips_on_a_small_system(&session);
    let spec = HaloSpec::stencil();
    let whole = strips.scatter(&[0.5; 729]);
    let before = footprint(&small);
    let mut slabs = whole.clone();
    assert_workload_error(host_halo_exchange(&strips, &mut small, PLANE_U0, &mut slabs, &spec));
    assert_eq!(footprint(&small), before);

    // A system holding every strip, handed three slabs, then a short one.
    let mut sys = NscSystem::new(HypercubeConfig::new(2), session.kb());
    let before = footprint(&sys);
    let mut three = whole[..3].to_vec();
    assert_workload_error(host_halo_exchange(&strips, &mut sys, PLANE_U0, &mut three, &spec));
    let mut short = whole.clone();
    short[2].pop();
    let kept = short.clone();
    assert_workload_error(host_halo_exchange(&strips, &mut sys, PLANE_U0, &mut short, &spec));
    assert_eq!((three.as_slice(), short), (&whole[..3], kept), "no slab written");
    assert_eq!(footprint(&sys), before);

    host_halo_exchange(&strips, &mut sys, PLANE_U0, &mut slabs, &spec).expect("exchanges");
    assert_eq!(slabs, whole, "a uniform field's ghosts already hold their owners' values");
}
