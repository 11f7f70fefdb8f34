//! Domain-decomposed solvers that spread one problem across the cube.
//!
//! [`DistributedJacobiWorkload`] is the paper's running example scaled out:
//! the grid is partitioned onto the cube through the [`Partition`] trait
//! (strips on the Gray ring or 2-D blocks on a Gray torus — the workload
//! is decomposition-agnostic), each node compiles the *same* Jacobi sweep
//! pipeline on its own slab geometry, the sweeps run concurrently on real
//! node threads, and ghost layers are refreshed through the hyperspace
//! router between sweeps. Because ghost cells sit exactly where the serial
//! stencil layout keeps its halo pad, every distributed sweep is
//! **bit-identical** to the serial sweep on the points a node owns; the
//! convergence decision is a max-reduction of the per-node residuals over
//! the partition's node pool, evaluated once per ping-pong pair exactly as
//! the serial document's sequencer does.
//!
//! [`DistributedSorWorkload`] is the block-SOR counterpart of the host
//! baseline: each node relaxes its slab with the updated-in-place sweep,
//! halos still travel through the router (charging the same communication
//! model), and the blocks converge to the same discrete solution.
//!
//! Both workloads execute through the shared [`SweepEngine`]: every
//! sweep runs its interior concurrently with the halo sendrecvs, then its
//! boundary shells against the fresh ghosts.

use crate::diagrams::{
    build_jacobi_sweep_document_windows, JacobiGeometry, JacobiVariant, PLANE_U0, RESIDUAL_CACHE,
};
use crate::grid::{check_problem, Grid3};
use crate::host::{sor_sweep_host_layers, JacobiHostState};
use crate::nsc_run::load_problem;
use crate::overlap::SweepEngine;
use crate::partition::{read_slabs, GridShape, Partition, PartitionSpec};
use nsc_core::{NscError, Session, Workload};
use nsc_sim::{NodeSim, NscSystem, PerfCounters};

/// Wrap each part's slab words (ghosts included) as a [`Grid3`] on the
/// part's local shape, keeping the global mesh spacing.
pub(crate) fn local_grids3(partition: &dyn Partition, global: &Grid3) -> Vec<Grid3> {
    partition
        .scatter(&global.data)
        .into_iter()
        .zip(partition.parts())
        .map(|(data, p)| {
            let (nx, ny, nz) = p.local_shape();
            Grid3 { nx, ny, nz, h: global.h, data }
        })
        .collect()
}

/// Refuse a node whose machine differs from the session's: programs the
/// session compiles would target hardware the node does not have. A
/// system's nodes are alike, so its first node stands for it.
pub(crate) fn check_same_machine(session: &Session, node: &NodeSim) -> Result<(), NscError> {
    let node_cfg = node.kb.config();
    if session.kb().config() != node_cfg {
        return Err(NscError::Workload(format!(
            "session machine '{}' and node machine '{}' differ",
            session.kb().config().name,
            node_cfg.name
        )));
    }
    Ok(())
}

/// Per-run system metrics derived from a counter snapshot taken before
/// the run: per-node deltas, their overlap-aware aggregate, and the
/// achieved rate.
#[derive(Debug, Clone)]
pub(crate) struct SystemRunMetrics {
    pub per_node: Vec<PerfCounters>,
    pub total: PerfCounters,
    pub simulated_seconds: f64,
    pub aggregate_mflops: f64,
}

pub(crate) fn measure_system_run(system: &NscSystem, before: &[PerfCounters]) -> SystemRunMetrics {
    let clock = system.node(nsc_arch::NodeId(0)).kb.config().clock_hz;
    let per_node: Vec<PerfCounters> =
        system.nodes().iter().zip(before).map(|(n, b)| n.counters.since(b)).collect();
    let mut total = PerfCounters::default();
    for c in &per_node {
        total.absorb(c);
    }
    let simulated_seconds = per_node.iter().map(|c| c.seconds_with_comm(clock)).fold(0.0, f64::max);
    let aggregate_mflops =
        if simulated_seconds > 0.0 { total.flops as f64 / simulated_seconds / 1e6 } else { 0.0 };
    SystemRunMetrics { per_node, total, simulated_seconds, aggregate_mflops }
}

/// Outcome of a distributed Jacobi solve.
#[derive(Debug, Clone)]
pub struct DistributedJacobiRun {
    /// The reassembled final iterate.
    pub u: Grid3,
    /// The global residual (max over nodes of `max |masked update|`).
    pub residual: f64,
    /// Full sweeps executed across the system (each sweep touches every
    /// node once).
    pub sweeps: u64,
    /// Whether the tolerance (not the pair cap) ended it.
    pub converged: bool,
    /// The global residual after each sweep pair, in order — the
    /// convergence trace ensemble reports aggregate.
    pub residual_history: Vec<f64>,
    /// Per-node counter deltas for this run, indexed by node.
    pub per_node: Vec<PerfCounters>,
    /// System aggregate of this run: work summed, elapsed overlapped.
    pub total: PerfCounters,
    /// Simulated seconds of this run: the slowest node's compute plus its
    /// own communication time.
    pub simulated_seconds: f64,
    /// Aggregate achieved MFLOPS of this run across the system.
    pub aggregate_mflops: f64,
}

/// Point Jacobi for the 3-D Poisson problem, domain-decomposed across a
/// simulated hypercube with halo exchange.
#[derive(Debug, Clone)]
pub struct DistributedJacobiWorkload {
    /// Initial iterate (also fixes the grid size).
    pub u0: Grid3,
    /// Right-hand side.
    pub f: Grid3,
    /// Residual convergence tolerance.
    pub tol: f64,
    /// Cap on ping-pong sweep pairs (the convergence test runs once per
    /// pair, as in the serial document).
    pub max_pairs: u32,
    /// How to cut the grid (`Auto` resolves to strips: a tall iteration
    /// grid has the lowest surface-to-volume along its slowest axis).
    pub partition: PartitionSpec,
    /// Must be `true`, which [`DistributedJacobiWorkload::new`] sets:
    /// every sweep hides its halo exchange under its interior pipelines
    /// (see [`SweepEngine`]). `execute` refuses `false` before any plane
    /// is written.
    pub overlap: bool,
}

impl DistributedJacobiWorkload {
    /// Solve `u0`/`f` to `tol`, or for at most `max_pairs` sweep pairs,
    /// cut across the cube as `partition` says.
    pub fn new(u0: Grid3, f: Grid3, tol: f64, max_pairs: u32, partition: PartitionSpec) -> Self {
        DistributedJacobiWorkload { u0, f, tol, max_pairs, partition, overlap: true }
    }
}

impl Workload for DistributedJacobiWorkload {
    type Report = DistributedJacobiRun;

    fn name(&self) -> String {
        format!("distributed-jacobi {}x{}x{}", self.u0.nx, self.u0.ny, self.u0.nz)
    }

    fn execute(
        &self,
        session: &Session,
        system: &mut NscSystem,
    ) -> Result<DistributedJacobiRun, NscError> {
        check_same_machine(session, &system.nodes()[0])?;
        check_problem(&self.u0, &self.f)?;
        if !self.overlap {
            return Err(NscError::Workload(
                "distributed Jacobi always overlaps its halo exchange with interior compute; \
                 build it with DistributedJacobiWorkload::new (or overlap: true)"
                    .into(),
            ));
        }
        let shape = GridShape::volume3d(self.u0.nx, self.u0.ny, self.u0.nz);
        let partition = self.partition.build(shape, system.cube, false)?;
        let parts = partition.parts();

        // Load every node's slab problem (ghosts included, so the first
        // sweep needs no exchange) and compile its sweep pair.
        let u_slabs = local_grids3(partition.as_ref(), &self.u0);
        let f_slabs = local_grids3(partition.as_ref(), &self.f);
        for (p, (lu0, lf)) in parts.iter().zip(u_slabs.iter().zip(&f_slabs)) {
            let state = JacobiHostState::new(lu0, lf);
            load_problem(system.node_mut(p.node), &state, JacobiVariant::Full);
        }
        let engine = SweepEngine::stencil(partition.as_ref());
        let pair = engine.compile_pair(session, |p, even, windows| {
            let (lnx, lny, lnz) = p.local_shape();
            build_jacobi_sweep_document_windows(JacobiGeometry::slab(lnx, lny, lnz), even, windows)
        })?;

        let before: Vec<PerfCounters> = system.nodes().iter().map(|n| n.counters).collect();
        let residual_history = engine.ping_pong(system, &pair, self.tol, self.max_pairs)?;
        let residual = residual_history.last().copied().unwrap_or(f64::INFINITY);

        // Reassemble the iterate from the u0 planes (pairs always end on
        // the odd sweep, exactly like the serial document's loop body).
        let locals = read_slabs(partition.as_ref(), system, PLANE_U0);
        let mut u = Grid3::new(self.u0.nx, self.u0.ny, self.u0.nz);
        u.h = self.u0.h;
        u.data = partition.gather(&locals);

        let m = measure_system_run(system, &before);
        Ok(DistributedJacobiRun {
            u,
            residual,
            sweeps: 2 * residual_history.len() as u64,
            converged: residual < self.tol,
            residual_history,
            per_node: m.per_node,
            total: m.total,
            simulated_seconds: m.simulated_seconds,
            aggregate_mflops: m.aggregate_mflops,
        })
    }
}

/// Outcome of a distributed block-SOR solve.
#[derive(Debug, Clone)]
pub struct DistributedSorRun {
    /// The reassembled final iterate.
    pub u: Grid3,
    /// The global residual (max over blocks of `max |update|`).
    pub residual: f64,
    /// Sweeps executed.
    pub sweeps: usize,
    /// Whether the tolerance (not the sweep cap) ended it.
    pub converged: bool,
    /// The global residual after each sweep, in order.
    pub residual_history: Vec<f64>,
    /// Router nanoseconds this run spent on halos and reductions
    /// (system-serialized view).
    pub comm_ns: u64,
}

/// Block successive over-relaxation: each node runs the host SOR sweep on
/// its own slab, halos and the convergence reduction travel through the
/// simulated router. Converges to the same discrete solution as a serial
/// [`crate::sor_sweep_host`] loop (the blocks' fixed point is the global
/// one), with block-boundary values lagging one sweep; on one part (cube
/// dimension 0) it is that loop, bit for bit.
#[derive(Debug, Clone)]
pub struct DistributedSorWorkload {
    /// Initial iterate.
    pub u0: Grid3,
    /// Right-hand side.
    pub f: Grid3,
    /// Relaxation factor, in `(0, 2)` for convergence.
    pub omega: f64,
    /// Residual convergence tolerance.
    pub tol: f64,
    /// Cap on sweeps.
    pub max_sweeps: usize,
    /// How to cut the grid. Each sweep phases through the
    /// [`SweepEngine`] (interior first, then boundary shells against
    /// fresh ghosts; see [`SweepEngine::host_sweep`]).
    pub partition: PartitionSpec,
}

impl DistributedSorWorkload {
    /// The manufactured `sin·sin·sin` Poisson problem on an `n³` grid at a
    /// given relaxation factor — the sweepable constructor an ω-ensemble
    /// fans out over. `omega` is deliberately *not* validated here: a
    /// sweep is allowed to include diverging members and read the verdict
    /// off the stability map.
    pub fn manufactured(n: usize, omega: f64, tol: f64, max_sweeps: usize) -> Self {
        let (u0, f, _) = crate::grid::manufactured_problem(n);
        DistributedSorWorkload { u0, f, omega, tol, max_sweeps, partition: PartitionSpec::Auto }
    }
}

impl Workload for DistributedSorWorkload {
    type Report = DistributedSorRun;

    fn name(&self) -> String {
        format!("distributed-sor {}x{}x{} omega={}", self.u0.nx, self.u0.ny, self.u0.nz, self.omega)
    }

    fn execute(
        &self,
        _session: &Session,
        system: &mut NscSystem,
    ) -> Result<DistributedSorRun, NscError> {
        if !(0.0..2.0).contains(&self.omega) || self.omega == 0.0 {
            return Err(NscError::Workload(format!(
                "SOR diverges outside 0 < omega < 2 (got {})",
                self.omega
            )));
        }
        check_problem(&self.u0, &self.f)?;
        let shape = GridShape::volume3d(self.u0.nx, self.u0.ny, self.u0.nz);
        let partition = self.partition.build(shape, system.cube, false)?;
        let members = partition.member_nodes();
        let parts = partition.parts();
        let fs = local_grids3(partition.as_ref(), &self.f);
        let mut slabs = partition.scatter(&self.u0.data);
        let engine = SweepEngine::stencil(partition.as_ref());

        let comm_before = system.comm_ns;
        let omega = self.omega;
        let h = self.u0.h;
        // Every block relaxes its listed layers in place (host compute;
        // ghost faces hold whatever the last exchange delivered).
        let relax = |pi: usize, layers: std::ops::Range<usize>, slab: &mut Vec<f64>| -> f64 {
            let (lnx, lny, lnz) = parts[pi].local_shape();
            let mut g = Grid3 { nx: lnx, ny: lny, nz: lnz, h, data: std::mem::take(slab) };
            let r = sor_sweep_host_layers(&mut g, &fs[pi], omega, layers);
            *slab = g.data;
            r
        };
        let mut sweeps = 0;
        let mut residual = f64::INFINITY;
        let mut residual_history = Vec::new();
        let mut converged = false;
        while sweeps < self.max_sweeps && !converged {
            // One phased sweep: halos travel through the router between
            // the engine's phases (staged from and pulled back into the
            // host slabs).
            let block_res = engine.host_sweep(system, PLANE_U0, &mut slabs, sweeps == 0, relax)?;
            // Global convergence test through the butterfly reduction.
            for (p, r) in parts.iter().zip(&block_res) {
                system.node_mut(p.node).mem.cache_mut(RESIDUAL_CACHE).write(0, 0, *r);
            }
            let (r, _) = system.pool_max_cache_scalar(&members, RESIDUAL_CACHE, 0);
            residual = r;
            residual_history.push(residual);
            sweeps += 1;
            converged = residual < self.tol;
        }

        let mut u = Grid3::new(self.u0.nx, self.u0.ny, self.u0.nz);
        u.h = self.u0.h;
        u.data = partition.gather(&slabs);
        Ok(DistributedSorRun {
            u,
            residual,
            sweeps,
            converged,
            residual_history,
            comm_ns: system.comm_ns - comm_before,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::grid::manufactured_problem;
    use crate::host::{jacobi_sweep_host, sor_sweep_host};
    use nsc_arch::HypercubeConfig;

    fn system(dim: u32, session: &Session) -> NscSystem {
        NscSystem::new(HypercubeConfig::new(dim), session.kb())
    }

    #[test]
    fn distributed_sweeps_match_the_serial_host_mirror_bit_for_bit() {
        let n = 8;
        let (u0, f, _) = manufactured_problem(n);
        let session = Session::nsc_1988();
        let mut host = JacobiHostState::new(&u0, &f);
        let mut host_res = 0.0;
        for _ in 0..6 {
            host_res = jacobi_sweep_host(&mut host);
        }
        let host_u = host.current();

        // Strips on a 4-node ring AND blocks on a 2x2 torus: both must
        // reproduce the serial bits exactly.
        for spec in [PartitionSpec::Strip, PartitionSpec::Block] {
            let mut sys = system(2, &session);
            let w = DistributedJacobiWorkload::new(u0.clone(), f.clone(), 0.0, 3, spec);
            let run = w.execute(&session, &mut sys).expect("runs");
            assert_eq!(run.sweeps, 6);
            assert!(!run.converged);
            for (a, b) in run.u.data.iter().zip(&host_u.data) {
                assert_eq!(a.to_bits(), b.to_bits(), "{spec:?} and serial sweeps must agree");
            }
            assert_eq!(run.residual.to_bits(), host_res.to_bits(), "global max matches {spec:?}");
            // Communication happened, was charged per node, and some of
            // it hid under the interior pipelines.
            assert!(run.per_node.iter().all(|c| c.comm_ns > 0), "{spec:?}");
            assert!(
                run.per_node.iter().any(|c| c.comm_hidden_ns > 0),
                "{spec:?}: halos must hide some time"
            );
            assert!(run.aggregate_mflops > 0.0);
        }
    }

    #[test]
    fn distributed_jacobi_refuses_overlap_off_before_writing_a_plane() {
        let (u0, f, _) = manufactured_problem(8);
        let session = Session::nsc_1988();
        let mut sys = system(1, &session);
        let mut w = DistributedJacobiWorkload::new(u0, f, 0.0, 1, PartitionSpec::Auto);
        w.overlap = false;
        let err = w.execute(&session, &mut sys).unwrap_err();
        assert!(matches!(err, NscError::Workload(_)), "{err:?}");
        for node in sys.nodes() {
            assert_eq!(node.counters, PerfCounters::default(), "nothing ran");
            assert!(node.mem.planes.iter().all(|p| p.resident_pages() == 0), "no plane written");
        }
        w.overlap = true;
        assert!(w.execute(&session, &mut sys).is_ok());
    }

    #[test]
    fn distributed_jacobi_converges_like_the_serial_solver() {
        let n = 9;
        let (u0, f, exact) = manufactured_problem(n);
        let session = Session::nsc_1988();
        let mut sys = system(1, &session);
        let w = DistributedJacobiWorkload::new(u0, f, 1e-9, 2000, PartitionSpec::Auto);
        let run = w.execute(&session, &mut sys).expect("runs");
        assert!(run.converged, "residual {}", run.residual);
        assert!(run.u.linf_diff(&exact) < 0.1, "err {}", run.u.linf_diff(&exact));
        assert!(w.name().contains("distributed-jacobi"));
    }

    #[test]
    fn distributed_jacobi_rejects_mismatched_machines_and_thin_grids() {
        let (u0, f, _) = manufactured_problem(6);
        let session = Session::nsc_1988();
        let mut revised = nsc_arch::MachineConfig::nsc_1988();
        revised.name = "revised".into();
        let mut alien =
            NscSystem::new(HypercubeConfig::new(1), nsc_core::Session::new(revised).kb());
        let w = DistributedJacobiWorkload::new(u0, f, 0.0, 1, PartitionSpec::Auto);
        assert!(matches!(w.execute(&session, &mut alien), Err(NscError::Workload(_))));

        // 6 planes across 8 nodes cannot give every node 3 local planes.
        let mut small = system(3, &session);
        assert!(matches!(w.execute(&session, &mut small), Err(NscError::Workload(_))));
    }

    /// A serial SOR solve: `sor_sweep_host` until the largest update falls
    /// below `tol` or `max_sweeps` run — the loop a one-part
    /// [`DistributedSorWorkload`] is. Returns the iterate and the largest
    /// update of each sweep.
    fn serial_sor(
        u0: &Grid3,
        f: &Grid3,
        omega: f64,
        tol: f64,
        max_sweeps: usize,
    ) -> (Grid3, Vec<f64>) {
        let mut u = u0.clone();
        let mut history = Vec::new();
        while history.len() < max_sweeps && history.last().is_none_or(|&r| r >= tol) {
            history.push(sor_sweep_host(&mut u, f, omega));
        }
        (u, history)
    }

    #[test]
    fn one_part_sor_is_serial_sor_bit_for_bit() {
        let session = Session::nsc_1988();
        for n in [5, 8, 10, 13] {
            let (u0, f, _) = manufactured_problem(n);
            for sweeps in [1, 2, 7, 40] {
                let (want, history) = serial_sor(&u0, &f, 1.5, 0.0, sweeps);
                for partition in [PartitionSpec::Auto, PartitionSpec::Strip, PartitionSpec::Block] {
                    let mut sys = system(0, &session);
                    let w = DistributedSorWorkload {
                        u0: u0.clone(),
                        f: f.clone(),
                        omega: 1.5,
                        tol: 0.0,
                        max_sweeps: sweeps,
                        partition,
                    };
                    let run = w.execute(&session, &mut sys).expect("runs");
                    let case = format!("{n}^3, {sweeps} sweeps, {partition:?}");
                    assert_eq!(run.sweeps, sweeps, "{case}");
                    let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                    assert_eq!(bits(&run.u.data), bits(&want.data), "{case}: iterate");
                    assert_eq!(bits(&run.residual_history), bits(&history), "{case}: history");
                }
            }
        }
    }

    #[test]
    fn distributed_sor_finds_the_serial_fixed_point() {
        let n = 10;
        let (u0, f, exact) = manufactured_problem(n);
        let session = Session::nsc_1988();
        let (serial_u, history) = serial_sor(&u0, &f, 1.5, 1e-10, 20_000);
        assert!(history.last().is_some_and(|&r| r < 1e-10), "serial SOR converges");

        for spec in [PartitionSpec::Strip, PartitionSpec::Block] {
            let mut sys = system(2, &session);
            let w = DistributedSorWorkload {
                u0: u0.clone(),
                f: f.clone(),
                omega: 1.5,
                tol: 1e-10,
                max_sweeps: 20_000,
                partition: spec,
            };
            let run = w.execute(&session, &mut sys).expect("runs");
            assert!(run.converged, "{spec:?} residual {}", run.residual);
            assert!(run.u.linf_diff(&exact) < 0.1);
            assert!(run.comm_ns > 0, "halos and reductions cost router time");
            assert!(
                run.u.linf_diff(&serial_u) < 1e-6,
                "{spec:?} block and serial SOR disagree by {}",
                run.u.linf_diff(&serial_u)
            );
        }
    }

    #[test]
    fn distributed_sor_rejects_divergent_omega() {
        let (u0, f, _) = manufactured_problem(8);
        let session = Session::nsc_1988();
        let mut sys = system(1, &session);
        let w = DistributedSorWorkload {
            u0,
            f,
            omega: 2.5,
            tol: 1e-8,
            max_sweeps: 5,
            partition: PartitionSpec::Auto,
        };
        assert!(matches!(w.execute(&session, &mut sys), Err(NscError::Workload(_))));
    }
}
