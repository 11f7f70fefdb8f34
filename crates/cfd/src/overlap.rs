//! The sweep engine: one shared driver for every distributed stencil
//! solver, hiding halo latency under interior compute.
//!
//! The Navier-Stokes Computer's premise is keeping 640 MFLOPS of
//! pipelines busy while the hypercube moves data, yet a naive distributed
//! sweep synchronizes: compute everything, then exchange, with the
//! routers idle during compute and the pipelines idle during exchange.
//! The engine performs the classic latency-hiding split instead. Each
//! part's sweep is cut along the *overlap axis* (the stream-outermost
//! axis — xy-planes in 3-D, rows in 2-D) into
//!
//! * an **interior** window whose stencils read no ghost layer, and
//! * **boundary-shell** windows against each ghost face
//!
//! (see [`Part::overlap_split`]); the windowed document builders
//! ([`crate::diagrams::build_jacobi_sweep_document_windows`] and
//! friends) turn each window into its own pipeline instruction over the
//! *same* operation tree, so the split is bit-identical to a whole-slab
//! sweep on every owned point. Every sweep step runs as
//!
//! 1. synchronously exchange the faces the stream layout cannot overlap
//!    (the block decomposition's column axis);
//! 2. launch the interior pipelines on the pool **while** the overlap
//!    axis's halo sendrecvs travel — [`SweepEngine::sweep`] runs the
//!    interior lanes through [`nsc_core::run_lanes`], then opens an
//!    overlappable communication window
//!    ([`nsc_sim::NscSystem::open_comm_window`]) whose per-node budget is
//!    the interior phase's elapsed time, so the exchange charges each
//!    node only the *non-overlapped remainder*;
//! 3. finish the boundary shells, which read the freshly exchanged
//!    ghosts.
//!
//! A step exchanges the ghosts of the plane it *reads*; the plane it
//! writes keeps stale ghosts until the next step that reads it (or
//! [`SweepEngine::refresh`]). A step with nothing to exchange (fresh
//! ghosts, or a partition with no boundary such as a one-node cube's)
//! opens no window and runs its lanes bare. This is the only
//! choreography: Jacobi, block SOR, multigrid smoothing and the cavity's
//! ψ-solve all run it.
//!
//! Host-resident block solvers (block SOR) run the same choreography
//! through [`SweepEngine::host_sweep`], with the compute phases as host
//! closures over the same window split.
//!
//! ```
//! use nsc_arch::HypercubeConfig;
//! use nsc_cfd::diagrams::{build_jacobi_sweep_document_windows, JacobiGeometry, PLANE_U0, PLANE_U1};
//! use nsc_cfd::nsc_run::load_problem;
//! use nsc_cfd::host::JacobiHostState;
//! use nsc_cfd::grid::manufactured_problem;
//! use nsc_cfd::{GridShape, JacobiVariant, PartitionSpec, SweepEngine, SweepIo};
//! use nsc_core::Session;
//! use nsc_sim::{NscSystem, RunOptions};
//!
//! // An 8^3 Poisson problem striped across a 2-node cube.
//! let session = Session::nsc_1988();
//! let mut system = NscSystem::new(HypercubeConfig::new(1), session.kb());
//! let strips = PartitionSpec::Strip.build(GridShape::volume3d(8, 8, 8), system.cube, false)?;
//! let (u0, f, _) = manufactured_problem(8);
//! for (p, (lu, lf)) in strips.parts().iter().zip(
//!     strips.scatter(&u0.data).iter().zip(strips.scatter(&f.data)),
//! ) {
//!     let (nx, ny, nz) = p.local_shape();
//!     let wrap = |d: &[f64]| nsc_cfd::Grid3 { nx, ny, nz, h: u0.h, data: d.to_vec() };
//!     load_problem(
//!         system.node_mut(p.node),
//!         &JacobiHostState::new(&wrap(lu), &wrap(&lf)),
//!         JacobiVariant::Full,
//!     );
//! }
//!
//! // Compile the even sweep split into interior + boundary shells, then
//! // run it with the u1-halo exchange hidden under the interior phase.
//! let engine = SweepEngine::stencil(strips.as_ref());
//! let even = engine.compile(&session, |p, windows| {
//!     let (nx, ny, nz) = p.local_shape();
//!     build_jacobi_sweep_document_windows(JacobiGeometry::slab(nx, ny, nz), true, windows)
//! })?;
//! let opts = RunOptions::default();
//! engine.sweep(&mut system, &even, SweepIo::first(PLANE_U0, PLANE_U1), &opts)?;
//! let odd = engine.compile(&session, |p, windows| {
//!     let (nx, ny, nz) = p.local_shape();
//!     build_jacobi_sweep_document_windows(JacobiGeometry::slab(nx, ny, nz), false, windows)
//! })?;
//! let hidden = engine.sweep(&mut system, &odd, SweepIo::steady(PLANE_U1, PLANE_U0), &opts)?;
//! assert!(hidden > 0, "the odd sweep's halo exchange overlapped its interior");
//! # Ok::<(), nsc_core::NscError>(())
//! ```

use crate::certify::{halo_routes, window_coverage};
use crate::diagrams::{PLANE_U0, PLANE_U1, RESIDUAL_CACHE};
use crate::partition::{
    check_one_slab_per_part, check_partition_fits, host_halo_exchange, HaloSpec, Part, Partition,
    SweepSplit, SweepWindow,
};
use nsc_arch::{NodeId, PlaneId};
use nsc_core::{run_lanes, CompiledProgram, NscError, Session};
use nsc_diagram::Document;
use nsc_sim::{NscSystem, RunOptions};
use std::ops::Range;
use std::sync::Arc;

/// The plane roles of one sweep step: which plane it reads (whose ghosts
/// the step's exchange refreshes while the interior computes) and which
/// it writes (whose ghosts stay stale until the next step reads it).
#[derive(Debug, Clone, Copy)]
pub struct SweepIo {
    /// The plane the sweep reads.
    pub read: PlaneId,
    /// The plane the sweep writes.
    pub write: PlaneId,
    /// Whether the read plane's ghost layers are already fresh (true for
    /// the first sweep after a scatter, which loads ghosts host-side) —
    /// the step then skips the exchange entirely.
    pub fresh_ghosts: bool,
}

impl SweepIo {
    /// The first sweep after a scatter: read ghosts are already fresh.
    pub fn first(read: PlaneId, write: PlaneId) -> Self {
        SweepIo { read, write, fresh_ghosts: true }
    }

    /// A steady-state sweep: the read plane's ghosts are stale remnants
    /// of the sweep-before-last and must be refreshed.
    pub fn steady(read: PlaneId, write: PlaneId) -> Self {
        SweepIo { read, write, fresh_ghosts: false }
    }
}

/// A sweep compiled for one engine: the interior/boundary-shell program
/// pair per part. Build one with [`SweepEngine::compile`]; a sweep only
/// runs on an engine of the part count that compiled it
/// ([`SweepEngine::sweep`] refuses any other with an [`NscError`]).
#[derive(Debug)]
pub struct CompiledSweep {
    /// The interior window program per part (`None` for slabs too thin
    /// to have one).
    interior: Vec<Option<CompiledProgram>>,
    /// The boundary-shell program per part (`None` for parts with no
    /// ghost faces along the overlap axis).
    shell: Vec<Option<CompiledProgram>>,
}

/// The shared sweep engine (see the module docs).
///
/// An engine binds a [`Partition`] and a [`HaloSpec`];
/// [`SweepEngine::compile`] turns a windowed document builder into a
/// [`CompiledSweep`] (every part's documents through the session's
/// compile cache), and [`SweepEngine::sweep`] runs one latency-hidden
/// sweep step.
#[derive(Debug)]
pub struct SweepEngine<'p> {
    partition: &'p dyn Partition,
    halo: HaloSpec,
    /// False only for an engine built with `new(.., false)`, which
    /// refuses every call.
    overlap: bool,
    /// The window split per part.
    splits: Vec<SweepSplit>,
    /// The part nodes, in partition order.
    pool: Vec<NodeId>,
    /// The halo faces the engine can hide (the overlap axis's).
    overlap_spec: HaloSpec,
    /// The faces that must still exchange synchronously.
    sync_spec: HaloSpec,
}

impl<'p> SweepEngine<'p> {
    /// An engine over `partition` refreshing one ghost layer per face —
    /// the reach of every stencil in this crate.
    pub fn stencil(partition: &'p dyn Partition) -> Self {
        Self::new(partition, HaloSpec::stencil(), true)
    }

    /// An engine over `partition` refreshing the ghosts `halo` describes.
    /// `overlap` must be true: `new(p, HaloSpec::stencil(), true)` is
    /// exactly [`SweepEngine::stencil`]. There is no synchronized
    /// choreography, so an engine built with `false` refuses
    /// [`compile`](Self::compile), [`sweep`](Self::sweep) and
    /// [`host_sweep`](Self::host_sweep) with [`NscError::Workload`]
    /// before anything runs.
    pub fn new(partition: &'p dyn Partition, halo: HaloSpec, overlap: bool) -> Self {
        let axis = partition.shape().overlap_axis();
        let splits = partition.parts().iter().map(|p| p.overlap_split(axis, &halo)).collect();
        SweepEngine {
            partition,
            halo,
            overlap,
            splits,
            pool: partition.member_nodes(),
            overlap_spec: halo.only_axis(axis),
            sync_spec: halo.without_axis(axis),
        }
    }

    /// Refuse every call on an engine built with `overlap` false.
    fn check_overlap(&self) -> Result<(), NscError> {
        if self.overlap {
            return Ok(());
        }
        Err(NscError::Workload(
            "a sweep engine always overlaps its halo exchange with interior compute; \
             build it with SweepEngine::stencil (or overlap = true)"
                .into(),
        ))
    }

    /// The partition the engine drives.
    pub fn partition(&self) -> &dyn Partition {
        self.partition
    }

    /// Compile one sweep. `build` constructs the windowed document for a
    /// part — typically one of the `*_document_windows` builders on the
    /// part's local geometry — once for the part's interior window and
    /// once for its boundary shells. Every per-part document compiles
    /// through [`Session::compile`], so the session's `KernelCache`
    /// decides reuse: parts whose builders produce identical documents
    /// (the middle strips of a balanced decomposition) and repeated
    /// `compile` calls on the same engine (the even/odd sweeps of every
    /// V-cycle level, or a re-run) are cache hits that skip codegen
    /// entirely. Compile failures are attributed to the part's node.
    pub fn compile(
        &self,
        session: &Session,
        build: impl Fn(&Part, &[SweepWindow]) -> Document,
    ) -> Result<CompiledSweep, NscError> {
        self.check_overlap()?;
        let compile_windows = |p: &Part, windows: &[SweepWindow]| {
            session.compile(&mut build(p, windows)).map_err(|e| NscError::on_node(p.node, e))
        };

        let mut interior = Vec::new();
        let mut shell = Vec::new();
        for (p, split) in self.partition.parts().iter().zip(&self.splits) {
            interior.push(split.interior.map(|w| compile_windows(p, &[w])).transpose()?);
            let shells = split.shell_windows();
            shell.push((!shells.is_empty()).then(|| compile_windows(p, &shells)).transpose()?);
        }
        // Staple the engine's topology claims — every halo route and the
        // window tiling of each part's owned layers — onto the sweep's
        // base compile certificate and record it for auditing. One
        // certificate per compile call describes the whole sweep: the
        // per-part programs share machine limits and the topology is a
        // property of the partition, not of any one part.
        if let Some(prog) = interior.iter().flatten().chain(shell.iter().flatten()).next() {
            let cert = prog.certificate().with_topology(
                halo_routes(self.partition, &self.halo),
                window_coverage(self.partition, &self.splits),
            );
            session.record_certificate(Arc::new(cert));
        }
        Ok(CompiledSweep { interior, shell })
    }

    /// Compile a ping-pong pair, the even sweep (u0 → u1) and the odd one
    /// (u1 → u0): `build(part, even, windows)` makes each part's windowed
    /// document, as for [`SweepEngine::compile`].
    pub(crate) fn compile_pair(
        &self,
        session: &Session,
        build: impl Fn(&Part, bool, &[SweepWindow]) -> Document,
    ) -> Result<(CompiledSweep, CompiledSweep), NscError> {
        let even = self.compile(session, |p, windows| build(p, true, windows))?;
        let odd = self.compile(session, |p, windows| build(p, false, windows))?;
        Ok((even, odd))
    }

    /// Run one sweep step: exchange the non-overlappable faces of the
    /// *read* plane, launch the interior pipelines while the overlap
    /// axis's faces travel (charging each node only the non-overlapped
    /// remainder), finish the boundary shells against the fresh ghosts,
    /// and fold the per-window residual scalars into cache slot 0 (a
    /// sequencer-local combine; the value is bit-identical to a
    /// whole-slab reduction because `max` is associative). The written
    /// plane's ghosts stay stale until the *next* step's exchange — or
    /// [`SweepEngine::refresh`], for the final sweep of a run whose slabs
    /// are read back with ghosts.
    ///
    /// Returns the message nanoseconds hidden under the interior phase.
    /// A step *exchanges nothing* when its read plane's ghosts are fresh
    /// or the partition lists no boundary (every one-part partition): it
    /// takes no cycle snapshot, opens no comm window, runs its interior
    /// lanes, then its shell lanes if any part has a shell program, and
    /// returns 0. That is exact, since an exchange over no boundary
    /// charges nothing and a window would hide nothing. A sweep compiled
    /// over a different part count, or a system lacking one of the
    /// partition's nodes, is refused with [`NscError::Workload`] before
    /// anything runs.
    pub fn sweep(
        &self,
        system: &mut NscSystem,
        sweep: &CompiledSweep,
        io: SweepIo,
        opts: &RunOptions,
    ) -> Result<u64, NscError> {
        self.check_overlap()?;
        if sweep.interior.len() != self.pool.len() {
            return Err(NscError::Workload(format!(
                "an engine over {} parts cannot run a sweep compiled over {}; compile the \
                 sweep with this engine",
                self.pool.len(),
                sweep.interior.len()
            )));
        }
        check_partition_fits(self.partition, system)?;

        let hidden = if io.fresh_ghosts || self.partition.boundaries().is_empty() {
            run_lanes(system.nodes_mut(), &self.lanes(&sweep.interior), opts)?;
            0
        } else {
            if self.sync_spec.wants_any() {
                self.partition.halo_exchange(system, io.read, &self.sync_spec)?;
            }
            let before: Vec<u64> =
                self.pool.iter().map(|&n| system.node(n).counters.cycles).collect();
            run_lanes(system.nodes_mut(), &self.lanes(&sweep.interior), opts)?;
            // The interior window: what each pool node just spent computing,
            // in ns. Message time the exchange charges a node hides up to it.
            let clock = system.nodes()[0].kb.config().clock_hz;
            let budgets: Vec<(NodeId, u64)> = self
                .pool
                .iter()
                .zip(&before)
                .map(|(&n, &b)| {
                    let cycles = system.node(n).counters.cycles.saturating_sub(b);
                    (n, (cycles as u128 * 1_000_000_000 / clock as u128) as u64)
                })
                .collect();
            system.open_comm_window(&budgets);
            self.partition.halo_exchange(system, io.read, &self.overlap_spec)?;
            system.close_comm_window()
        };
        if sweep.shell.iter().any(Option::is_some) {
            run_lanes(system.nodes_mut(), &self.lanes(&sweep.shell), opts)?;
        }
        self.combine_residuals(system);
        Ok(hidden)
    }

    /// Sweep a [`compile_pair`](Self::compile_pair) pair in ping-pong over
    /// planes a scatter just loaded, ghosts included. After each pair, a
    /// butterfly max-reduction of the odd sweep's per-node residuals over
    /// the partition's nodes decides convergence, once per pair as the
    /// serial document's sequencer does. Stops once a pair's residual
    /// falls below `tol`, or after `max_pairs` pairs, and returns the
    /// residual of every pair run.
    pub(crate) fn ping_pong(
        &self,
        system: &mut NscSystem,
        (even, odd): &(CompiledSweep, CompiledSweep),
        tol: f64,
        max_pairs: u32,
    ) -> Result<Vec<f64>, NscError> {
        let opts = RunOptions::default();
        let mut residuals = Vec::new();
        for pair in 0..max_pairs {
            // The scatter loaded fresh ghosts, so the very first sweep
            // exchanges nothing; later pairs refresh u0's ghosts (written
            // by the previous odd sweep) while the interior computes.
            let even_io = if pair == 0 {
                SweepIo::first(PLANE_U0, PLANE_U1)
            } else {
                SweepIo::steady(PLANE_U0, PLANE_U1)
            };
            self.sweep(system, even, even_io, &opts)?;
            self.sweep(system, odd, SweepIo::steady(PLANE_U1, PLANE_U0), &opts)?;
            let (residual, _) = system.pool_max_cache_scalar(&self.pool, RESIDUAL_CACHE, 0);
            residuals.push(residual);
            if residual < tol {
                break;
            }
        }
        Ok(residuals)
    }

    /// One phase's lanes: every part that has a program runs it on its
    /// node (thin parts fold their whole sweep into one phase).
    fn lanes<'s>(&self, progs: &'s [Option<CompiledProgram>]) -> Vec<(usize, &'s CompiledProgram)> {
        self.pool
            .iter()
            .zip(progs)
            .filter_map(|(node, prog)| Some((node.index(), prog.as_ref()?)))
            .collect()
    }

    /// Synchronously refresh all of `plane`'s halo faces — the tail
    /// exchange a run needs before host code reads slabs back with their
    /// ghost layers (the multigrid smoother's contract). Returns the
    /// slowest per-node communication time in nanoseconds. A system
    /// lacking one of the partition's nodes is refused with
    /// [`NscError::Workload`] before any message is charged.
    pub fn refresh(&self, system: &mut NscSystem, plane: PlaneId) -> Result<u64, NscError> {
        self.partition.halo_exchange(system, plane, &self.halo)
    }

    /// One sweep step whose compute runs on the *host* (block SOR and
    /// other host-resident kernels), phased over the same window split:
    /// `compute(part, layers, slab)` updates the slab's given local
    /// layers in place and returns its residual contribution.
    ///
    /// The phases follow [`SweepEngine::sweep`]: exchange the
    /// non-overlappable faces, compute the interiors, exchange the overlap
    /// axis's faces, then compute the shells. Host compute spends no
    /// simulated node time, so nothing hides; the written faces travel
    /// lazily, with the next step's exchange. The phase split orders a
    /// Gauss-Seidel sweep's updates interior first, so shell cells read
    /// current-sweep interior values: the iterates differ from one
    /// whole-slab sweep's, while the fixed point (the discrete solution)
    /// is the same. Returns the per-part residuals (max over phases).
    ///
    /// `slabs` must hold one slab of [`Part::local_words`] words per part,
    /// in partition order, and `system` every node the partition uses;
    /// otherwise the step is refused with [`NscError::Workload`] before
    /// anything runs.
    pub fn host_sweep(
        &self,
        system: &mut NscSystem,
        plane: PlaneId,
        slabs: &mut [Vec<f64>],
        fresh_ghosts: bool,
        compute: impl Fn(usize, Range<usize>, &mut Vec<f64>) -> f64 + Send + Sync,
    ) -> Result<Vec<f64>, NscError> {
        self.check_overlap()?;
        check_one_slab_per_part(self.partition, slabs)?;
        check_partition_fits(self.partition, system)?;
        let mut res = vec![0.0f64; slabs.len()];
        let splits = &self.splits;
        let compute = &compute;

        // Run one compute phase concurrently across parts; each part
        // covers the listed windows of its split.
        let phase = |slabs: &mut [Vec<f64>], res: &mut [f64], shell: bool| {
            std::thread::scope(|scope| {
                for ((pi, slab), r) in slabs.iter_mut().enumerate().zip(res.iter_mut()) {
                    scope.spawn(move || {
                        let windows: Vec<SweepWindow> = if shell {
                            splits[pi].shell_windows()
                        } else {
                            splits[pi].interior.into_iter().collect()
                        };
                        for w in windows {
                            *r = r.max(compute(pi, w.start..w.start + w.len, slab));
                        }
                    });
                }
            });
        };

        if !fresh_ghosts && self.sync_spec.wants_any() {
            host_halo_exchange(self.partition, system, plane, slabs, &self.sync_spec)?;
        }
        phase(slabs, &mut res, false);
        if !fresh_ghosts {
            host_halo_exchange(self.partition, system, plane, slabs, &self.overlap_spec)?;
        }
        phase(slabs, &mut res, true);
        Ok(res)
    }

    /// Fold each part's per-window residual scalars into cache slot 0 —
    /// what the convergence butterfly reads. A node-local sequencer
    /// combine: no router time is charged. Bit-identical to a whole-slab
    /// reduction (a max of maxes over the same values).
    fn combine_residuals(&self, system: &mut NscSystem) {
        for (p, split) in self.partition.parts().iter().zip(&self.splits) {
            let mut windows = split.windows();
            let single_slot0 = {
                let first = windows.next();
                windows.next().is_none() && first.is_some_and(|w| w.slot == 0)
            };
            if single_slot0 {
                continue; // the one window already wrote slot 0
            }
            let node = system.node_mut(p.node);
            let r = split
                .windows()
                .map(|w| node.mem.cache(RESIDUAL_CACHE).read(0, w.slot))
                .fold(f64::NEG_INFINITY, f64::max);
            node.mem.cache_mut(RESIDUAL_CACHE).write(0, 0, r);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::diagrams::{
        build_jacobi_sweep_document_windows, JacobiGeometry, JacobiVariant, PLANE_U0, PLANE_U1,
    };
    use crate::grid::{manufactured_problem, Grid3};
    use crate::host::{jacobi_sweep_host, JacobiHostState};
    use crate::nsc_run::load_problem;
    use crate::partition::{BlockPartition, GridShape, StripPartition};
    use nsc_arch::HypercubeConfig;
    use nsc_core::Session;
    use std::cell::RefCell;

    fn load_parts(parts: &dyn Partition, system: &mut NscSystem, u0: &Grid3, f: &Grid3) {
        let us = parts.scatter(&u0.data);
        let fs = parts.scatter(&f.data);
        for (p, (lu, lf)) in parts.parts().iter().zip(us.iter().zip(&fs)) {
            let (nx, ny, nz) = p.local_shape();
            let wrap = |d: &[f64]| Grid3 { nx, ny, nz, h: u0.h, data: d.to_vec() };
            let state = JacobiHostState::new(&wrap(lu), &wrap(lf));
            load_problem(system.node_mut(p.node), &state, JacobiVariant::Full);
        }
    }

    fn even_sweep(p: &Part, windows: &[SweepWindow]) -> Document {
        let (nx, ny, nz) = p.local_shape();
        build_jacobi_sweep_document_windows(JacobiGeometry::slab(nx, ny, nz), true, windows)
    }

    #[test]
    fn an_engine_built_without_overlap_refuses_every_call_untouched() {
        let (u0, f, _) = manufactured_problem(8);
        let session = Session::nsc_1988();
        let mut system = NscSystem::new(HypercubeConfig::new(1), session.kb());
        let strips = StripPartition::new(GridShape::volume3d(8, 8, 8), system.cube).unwrap();
        load_parts(&strips, &mut system, &u0, &f);
        let loaded: Vec<_> = system.nodes().iter().map(|n| n.counters).collect();
        let refused = SweepEngine::new(&strips, HaloSpec::stencil(), false);

        let err = refused.compile(&session, even_sweep).unwrap_err();
        assert!(matches!(err, NscError::Workload(_)), "{err:?}");
        let sweep = SweepEngine::stencil(&strips).compile(&session, even_sweep).expect("compiles");
        let io = SweepIo::first(PLANE_U0, PLANE_U1);
        let err = refused.sweep(&mut system, &sweep, io, &RunOptions::default()).unwrap_err();
        assert!(matches!(err, NscError::Workload(_)), "{err:?}");
        let mut slabs = strips.scatter(&u0.data);
        let before = slabs.clone();
        let err = refused
            .host_sweep(&mut system, PLANE_U0, &mut slabs, false, |_, _, _| 1.0)
            .unwrap_err();
        assert!(matches!(err, NscError::Workload(_)), "{err:?}");
        assert_eq!(slabs, before, "no slab written");
        let after: Vec<_> = system.nodes().iter().map(|n| n.counters).collect();
        assert_eq!(after, loaded, "nothing ran and nothing was exchanged");

        let engine = SweepEngine::new(&strips, HaloSpec::stencil(), true);
        assert!(engine.sweep(&mut system, &sweep, io, &RunOptions::default()).is_ok());
    }

    #[test]
    fn a_sweep_certificate_claims_exactly_the_windows_it_compiled() {
        let session = Session::nsc_1988();
        let cube = HypercubeConfig::new(2);
        let shape = GridShape::volume3d(9, 9, 9);
        let strips = StripPartition::new(shape, cube).unwrap();
        let blocks = BlockPartition::new(shape, cube.torus2d_near_square()).unwrap();
        for partition in [&strips as &dyn Partition, &blocks] {
            let (logged, log) = session.with_certificate_log();
            let handed: RefCell<Vec<(u64, SweepWindow)>> = RefCell::default();
            SweepEngine::stencil(partition)
                .compile(&logged, |p, windows| {
                    let node = u64::from(p.node.0);
                    handed.borrow_mut().extend(windows.iter().map(|&w| (node, w)));
                    even_sweep(p, windows)
                })
                .expect("compiles");
            let certs = log.drain();
            let topology: Vec<_> = certs.iter().filter(|c| !c.coverage.is_empty()).collect();
            assert_eq!(topology.len(), 1, "one topology certificate per compile call");
            let coverage = &topology[0].coverage;
            assert_eq!(coverage.len(), partition.parts().len());
            let handed = handed.into_inner();
            for c in coverage {
                let mut claimed: Vec<_> =
                    c.windows.iter().map(|w| (w.start, w.len, u64::from(w.slot))).collect();
                let mut compiled: Vec<_> = handed
                    .iter()
                    .filter(|(node, _)| *node == c.node)
                    .map(|(_, w)| (w.start as u64, w.len as u64, w.slot))
                    .collect();
                claimed.sort_unstable();
                compiled.sort_unstable();
                assert_eq!(claimed, compiled, "part {} on node {}", c.part, c.node);
            }
        }
    }

    #[test]
    fn an_engine_refuses_a_sweep_compiled_over_another_part_count() {
        let session = Session::nsc_1988();
        let system = NscSystem::new(HypercubeConfig::new(1), session.kb());
        let shape = GridShape::volume3d(8, 8, 8);
        let two = StripPartition::new(shape, system.cube).unwrap();
        let mut big = NscSystem::new(HypercubeConfig::new(2), session.kb());
        let four = StripPartition::new(shape, big.cube).unwrap();
        let sweep = SweepEngine::stencil(&two).compile(&session, even_sweep).expect("compiles");
        let engine = SweepEngine::stencil(&four);
        let io = SweepIo::first(PLANE_U0, PLANE_U1);
        let err = engine.sweep(&mut big, &sweep, io, &RunOptions::default()).unwrap_err();
        assert!(matches!(err, NscError::Workload(_)), "{err:?}");
        assert!(big.nodes().iter().all(|n| n.counters.instructions == 0), "nothing ran");
    }

    #[test]
    fn a_system_lacking_a_partition_node_is_refused_untouched() {
        let session = Session::nsc_1988();
        let big = NscSystem::new(HypercubeConfig::new(2), session.kb());
        let four = StripPartition::new(GridShape::volume3d(8, 8, 8), big.cube).unwrap();
        let engine = SweepEngine::stencil(&four);
        let sweep = engine.compile(&session, even_sweep).expect("compiles");
        let mut small = NscSystem::new(HypercubeConfig::new(1), session.kb());
        for io in [SweepIo::first(PLANE_U0, PLANE_U1), SweepIo::steady(PLANE_U1, PLANE_U0)] {
            let err = engine.sweep(&mut small, &sweep, io, &RunOptions::default()).unwrap_err();
            assert!(matches!(err, NscError::Workload(_)), "{err:?}");
        }
        let mut slabs = four.scatter(&[0.0; 512]);
        let err =
            engine.host_sweep(&mut small, PLANE_U0, &mut slabs, false, |_, _, _| 0.0).unwrap_err();
        assert!(matches!(err, NscError::Workload(_)), "{err:?}");
        for node in small.nodes() {
            assert_eq!(node.counters, Default::default(), "nothing ran");
            assert!(node.mem.planes.iter().all(|p| p.resident_pages() == 0), "no plane written");
        }
    }

    #[test]
    fn overlapped_sweeps_match_the_host_mirror_bit_for_bit_and_hide_time() {
        let (u0, f, _) = manufactured_problem(9);
        let session = Session::nsc_1988();
        let opts = RunOptions::default();
        let build = |even: bool| {
            move |p: &Part, windows: &[SweepWindow]| {
                let (nx, ny, nz) = p.local_shape();
                build_jacobi_sweep_document_windows(JacobiGeometry::slab(nx, ny, nz), even, windows)
            }
        };
        let mut host = JacobiHostState::new(&u0, &f);
        jacobi_sweep_host(&mut host);
        let host_r = jacobi_sweep_host(&mut host);
        let host_u = host.current();
        let comm = |system: &NscSystem| -> Vec<(u64, u64)> {
            system.nodes().iter().map(|n| (n.counters.comm_ns, n.counters.comm_hidden_ns)).collect()
        };

        let mut system = NscSystem::new(HypercubeConfig::new(2), session.kb());
        let strips = StripPartition::new(GridShape::volume3d(9, 9, 9), system.cube).unwrap();
        load_parts(&strips, &mut system, &u0, &f);
        let engine = SweepEngine::stencil(&strips);
        let even = engine.compile(&session, build(true)).expect("compiles");
        let odd = engine.compile(&session, build(false)).expect("compiles");
        let loaded = comm(&system);
        let first = engine
            .sweep(&mut system, &even, SweepIo::first(PLANE_U0, PLANE_U1), &opts)
            .expect("even");
        assert_eq!(first, 0, "fresh ghosts: the first sweep exchanges nothing");
        assert_eq!(comm(&system), loaded, "fresh ghosts: the first sweep charges no message");
        let hidden = engine
            .sweep(&mut system, &odd, SweepIo::steady(PLANE_U1, PLANE_U0), &opts)
            .expect("odd");
        assert!(hidden > 0, "the odd sweep's exchange must hide under its interior");
        let slabs = crate::partition::read_slabs(&strips, &system, PLANE_U0);
        for (a, b) in strips.gather(&slabs).iter().zip(&host_u.data) {
            assert_eq!(a.to_bits(), b.to_bits(), "split sweep diverged from the host mirror");
        }
        let (r, _) = system.pool_max_cache_scalar(&strips.member_nodes(), RESIDUAL_CACHE, 0);
        assert_eq!(r.to_bits(), host_r.to_bits(), "combined residual differs");

        // A one-node partition lists no boundary, so even its steady sweeps
        // exchange nothing: they hide and charge no message time, and two
        // pairs still match the host mirror bit for bit.
        jacobi_sweep_host(&mut host);
        let host_r = jacobi_sweep_host(&mut host);
        let host_u = host.current();
        let mut system = NscSystem::new(HypercubeConfig::new(0), session.kb());
        let whole = StripPartition::new(GridShape::volume3d(9, 9, 9), system.cube).unwrap();
        assert!(whole.boundaries().is_empty());
        load_parts(&whole, &mut system, &u0, &f);
        let engine = SweepEngine::stencil(&whole);
        let even = engine.compile(&session, build(true)).expect("compiles");
        let odd = engine.compile(&session, build(false)).expect("compiles");
        for pair in 0..2 {
            let read = if pair == 0 { SweepIo::first } else { SweepIo::steady };
            let io = read(PLANE_U0, PLANE_U1);
            assert_eq!(engine.sweep(&mut system, &even, io, &opts).expect("even"), 0);
            let io = SweepIo::steady(PLANE_U1, PLANE_U0);
            assert_eq!(engine.sweep(&mut system, &odd, io, &opts).expect("odd"), 0);
        }
        assert_eq!(comm(&system), vec![(0, 0)], "one node charges no message time");
        let slabs = crate::partition::read_slabs(&whole, &system, PLANE_U0);
        for (a, b) in whole.gather(&slabs).iter().zip(&host_u.data) {
            assert_eq!(a.to_bits(), b.to_bits(), "one-node sweep diverged from the host mirror");
        }
        let (r, _) = system.pool_max_cache_scalar(&whole.member_nodes(), RESIDUAL_CACHE, 0);
        assert_eq!(r.to_bits(), host_r.to_bits(), "one-node residual differs");
    }
}
