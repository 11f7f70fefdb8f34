//! The overlapped sweep engine: one shared driver for every distributed
//! stencil solver, hiding halo latency under interior compute.
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
//! *same* operation tree, so the split is bit-identical to the fused
//! sweep on every owned point. A sweep step then runs as
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
//! With `overlap` off the engine reproduces the legacy synchronized
//! choreography (fused sweep, then exchange) cycle for cycle, so the two
//! modes are directly comparable — the perf gate asserts the overlapped
//! 8-node figures are strictly faster.
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
//! use nsc_cfd::{GridShape, HaloSpec, JacobiVariant, Partition, StripPartition, SweepEngine, SweepIo};
//! use nsc_core::Session;
//! use nsc_sim::{NscSystem, RunOptions};
//!
//! // An 8^3 Poisson problem striped across a 2-node cube.
//! let session = Session::nsc_1988();
//! let mut system = NscSystem::new(HypercubeConfig::new(1), session.kb());
//! let strips = StripPartition::new(GridShape::volume3d(8, 8, 8), system.cube)?;
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
//! let engine = SweepEngine::new(&strips, HaloSpec::stencil(), true);
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
use crate::diagrams::RESIDUAL_CACHE;
use crate::distributed::check_partition_fits;
use crate::partition::{host_halo_exchange, HaloSpec, Part, Partition, SweepSplit, SweepWindow};
use nsc_arch::{NodeId, PlaneId};
use nsc_core::{run_lanes, CompiledProgram, NscError, Session};
use nsc_diagram::Document;
use nsc_sim::{NscSystem, RunOptions};
use std::ops::Range;
use std::sync::Arc;

/// The plane roles of one sweep step: which plane it reads (whose ghosts
/// the overlapped exchange refreshes mid-step) and which it writes (what
/// the synchronized mode exchanges afterwards).
#[derive(Debug, Clone, Copy)]
pub struct SweepIo {
    /// The plane the sweep reads.
    pub read: PlaneId,
    /// The plane the sweep writes.
    pub write: PlaneId,
    /// Whether the read plane's ghost layers are already fresh (true for
    /// the first sweep after a scatter, which loads ghosts host-side) —
    /// the overlapped mode then skips the exchange entirely.
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

/// A sweep compiled for one engine: either the fused program per part
/// (synchronized mode) or the interior/boundary-shell pair per part
/// (overlapped mode). Build one with [`SweepEngine::compile`]; a sweep
/// only runs on an engine of the mode and part count that compiled it
/// ([`SweepEngine::sweep`] refuses any other with an [`NscError`]).
#[derive(Debug)]
pub struct CompiledSweep {
    /// Synchronized mode: the whole-slab program, one per part.
    fused: Vec<CompiledProgram>,
    /// Overlapped mode: the interior window program per part (`None` for
    /// slabs too thin to have one).
    interior: Vec<Option<CompiledProgram>>,
    /// Overlapped mode: the boundary-shell program per part (`None` for
    /// parts with no ghost faces along the overlap axis).
    shell: Vec<Option<CompiledProgram>>,
}

/// The shared overlapped sweep engine (see the module docs).
///
/// An engine binds a [`Partition`], a [`HaloSpec`] and an `overlap`
/// mode; [`SweepEngine::compile`] turns a windowed document builder into
/// a [`CompiledSweep`] (every part's documents through the session's
/// compile cache), and
/// [`SweepEngine::sweep`] runs one latency-hidden (or legacy
/// synchronized) sweep step.
#[derive(Debug)]
pub struct SweepEngine<'p> {
    partition: &'p dyn Partition,
    halo: HaloSpec,
    overlap: bool,
    /// The window split per part (overlap mode).
    splits: Vec<SweepSplit>,
    /// The part nodes, in partition order.
    pool: Vec<usize>,
    /// The halo faces the engine can hide (the overlap axis's).
    overlap_spec: HaloSpec,
    /// The faces that must still exchange synchronously.
    sync_spec: HaloSpec,
}

impl<'p> SweepEngine<'p> {
    /// An engine over `partition` refreshing the ghosts `halo` describes.
    /// With `overlap` false every sweep runs the legacy synchronized
    /// choreography bit- and cycle-identically.
    pub fn new(partition: &'p dyn Partition, halo: HaloSpec, overlap: bool) -> Self {
        let axis = partition.shape().overlap_axis();
        let splits = partition.parts().iter().map(|p| p.overlap_split(axis, &halo)).collect();
        SweepEngine {
            partition,
            halo,
            overlap,
            splits,
            pool: partition.node_pool(),
            overlap_spec: halo.only_axis(axis),
            sync_spec: halo.without_axis(axis),
        }
    }

    /// Whether this engine overlaps communication with compute.
    pub fn overlap(&self) -> bool {
        self.overlap
    }

    /// The partition the engine drives.
    pub fn partition(&self) -> &dyn Partition {
        self.partition
    }

    /// Compile one sweep for this engine's mode. `build` constructs the
    /// windowed document for a part — typically one of the
    /// `*_document_windows` builders on the part's local geometry. Every
    /// per-part document compiles through [`Session::compile`], so the
    /// session's `KernelCache` decides reuse: parts whose builders produce
    /// identical documents (the middle strips of a balanced decomposition)
    /// and repeated `compile` calls on the same engine (the even/odd
    /// sweeps of every V-cycle level, or a re-run) are cache hits that skip
    /// codegen entirely. Compile failures are attributed to the part's
    /// node.
    pub fn compile(
        &self,
        session: &Session,
        build: impl Fn(&Part, &[SweepWindow]) -> Document,
    ) -> Result<CompiledSweep, NscError> {
        let compile_windows = |p: &Part, windows: &[SweepWindow]| {
            session.compile(&mut build(p, windows)).map_err(|e| NscError::on_node(p.node, e))
        };

        let mut fused = Vec::new();
        let mut interior = Vec::new();
        let mut shell = Vec::new();
        let axis = self.partition.shape().overlap_axis();
        for (p, split) in self.partition.parts().iter().zip(&self.splits) {
            if self.overlap {
                interior.push(split.interior.map(|w| compile_windows(p, &[w])).transpose()?);
                let shells = split.shell_windows();
                shell.push((!shells.is_empty()).then(|| compile_windows(p, &shells)).transpose()?);
            } else {
                let whole = SweepWindow::whole(p.spans[axis].local_len());
                fused.push(compile_windows(p, &[whole])?);
            }
        }
        // Staple the engine's topology claims — every halo route and the
        // window tiling of each part's owned layers — onto the sweep's
        // base compile certificate and record it for auditing. One
        // certificate per compile call describes the whole sweep: the
        // per-part programs share machine limits and the topology is a
        // property of the partition, not of any one part.
        let base = if self.overlap {
            interior.iter().flatten().chain(shell.iter().flatten()).next()
        } else {
            fused.first()
        };
        if let Some(prog) = base {
            let cert = prog.certificate().with_topology(
                halo_routes(self.partition, &self.halo),
                window_coverage(self.partition, &self.splits),
            );
            session.record_certificate(Arc::new(cert));
        }
        Ok(CompiledSweep { fused, interior, shell })
    }

    /// Run one sweep step.
    ///
    /// Synchronized mode: run the fused programs concurrently across the
    /// pool, then exchange the *written* plane's halo faces — exactly the
    /// legacy "run pool, then halo_exchange" loop body.
    ///
    /// Overlapped mode: exchange the non-overlappable faces of the *read*
    /// plane, launch the interior pipelines while the overlap axis's
    /// faces travel (charging each node only the non-overlapped
    /// remainder), finish the boundary shells against the fresh ghosts,
    /// and fold the per-window residual scalars into cache slot 0 (a
    /// sequencer-local combine; the value is bit-identical to the fused
    /// reduction because `max` is associative). The written plane's
    /// ghosts stay stale until the *next* step's overlapped exchange — or
    /// [`SweepEngine::refresh`], for the final sweep of a run whose slabs
    /// are read back with ghosts.
    ///
    /// Returns the message nanoseconds hidden under the interior phase
    /// (always 0 in synchronized mode). A sweep compiled by an engine of
    /// the other mode or over a different part count, or a system lacking
    /// one of the partition's nodes, is refused with
    /// [`NscError::Workload`] before anything runs.
    pub fn sweep(
        &self,
        system: &mut NscSystem,
        sweep: &CompiledSweep,
        io: SweepIo,
        opts: &RunOptions,
    ) -> Result<u64, NscError> {
        let (mode, compiled) = if self.overlap {
            ("overlapped", sweep.interior.len())
        } else {
            ("synchronized", sweep.fused.len())
        };
        if compiled != self.pool.len() {
            return Err(NscError::Workload(format!(
                "a {mode} engine over {} parts cannot run a sweep holding {compiled} {mode} \
                 programs; compile the sweep with this engine",
                self.pool.len()
            )));
        }
        check_partition_fits(self.partition, system)?;
        if !self.overlap {
            let lanes: Vec<_> = self.pool.iter().copied().zip(&sweep.fused).collect();
            run_lanes(system.nodes_mut(), &lanes, opts)?;
            self.partition.halo_exchange(system, io.write, 1, &self.halo);
            return Ok(0);
        }

        if !io.fresh_ghosts && self.sync_spec.wants_any() {
            self.partition.halo_exchange(system, io.read, 1, &self.sync_spec);
        }
        let before: Vec<u64> =
            self.pool.iter().map(|&i| system.nodes()[i].counters.cycles).collect();
        run_lanes(system.nodes_mut(), &self.lanes(&sweep.interior), opts)?;
        // The interior window: what each pool node just spent computing, in
        // ns. Message time the exchange charges a node hides up to it.
        let clock = system.nodes()[0].kb.config().clock_hz;
        let budgets: Vec<(NodeId, u64)> = self
            .pool
            .iter()
            .zip(&before)
            .map(|(&i, &b)| {
                let cycles = system.nodes()[i].counters.cycles.saturating_sub(b);
                (NodeId(i as u16), (cycles as u128 * 1_000_000_000 / clock as u128) as u64)
            })
            .collect();
        system.open_comm_window(&budgets);
        if !io.fresh_ghosts {
            self.partition.halo_exchange(system, io.read, 1, &self.overlap_spec);
        }
        let hidden = system.close_comm_window();
        run_lanes(system.nodes_mut(), &self.lanes(&sweep.shell), opts)?;
        self.combine_residuals(system);
        Ok(hidden)
    }

    /// One phase's lanes: every part that has a program runs it on its
    /// node (thin parts fold their whole sweep into one phase).
    fn lanes<'s>(&self, progs: &'s [Option<CompiledProgram>]) -> Vec<(usize, &'s CompiledProgram)> {
        self.pool
            .iter()
            .zip(progs)
            .filter_map(|(&node, prog)| Some((node, prog.as_ref()?)))
            .collect()
    }

    /// Synchronously refresh all of `plane`'s halo faces — the tail
    /// exchange an overlapped run needs before host code reads slabs back
    /// with their ghost layers (the multigrid smoother's contract).
    /// Returns the slowest per-node communication time in nanoseconds.
    pub fn refresh(&self, system: &mut NscSystem, plane: PlaneId) -> u64 {
        self.partition.halo_exchange(system, plane, 1, &self.halo)
    }

    /// One sweep step whose compute runs on the *host* (block SOR and
    /// other host-resident kernels), phased over the same window split:
    /// `compute(part, layers, slab)` updates the slab's given local
    /// layers in place and returns its residual contribution.
    ///
    /// Synchronized mode sweeps every part's full slab concurrently and
    /// then host-exchanges the halo faces (the legacy choreography, bit
    /// for bit). Overlapped mode exchanges the non-overlappable faces,
    /// computes the interiors, exchanges the overlap axis's faces, then
    /// computes the shells — the same phase order as the compiled path.
    /// Host compute spends no simulated node time, so nothing hides; the
    /// value of the overlapped mode here is the shared choreography (and
    /// one fewer exchange per run, since the written faces travel lazily).
    /// Note the phase split reorders a Gauss-Seidel sweep's updates
    /// (interior before shells), which is a genuinely different update
    /// ordering — shell cells read current-sweep interior values instead
    /// of previous-sweep ones — so iterates and convergence histories
    /// differ between modes; only the fixed point (the discrete
    /// solution) is shared. Returns the per-part residuals (max over
    /// phases — order-independent, so the synchronized value is exact).
    pub fn host_sweep(
        &self,
        system: &mut NscSystem,
        plane: PlaneId,
        slabs: &mut [Vec<f64>],
        fresh_ghosts: bool,
        compute: impl Fn(usize, Range<usize>, &mut Vec<f64>) -> f64 + Send + Sync,
    ) -> Vec<f64> {
        let parts = self.partition.parts();
        assert_eq!(slabs.len(), parts.len(), "one slab per part");
        let mut res = vec![0.0f64; parts.len()];
        let axis = self.partition.shape().overlap_axis();
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

        if !self.overlap {
            // Legacy: full sweeps concurrently, then one full exchange.
            std::thread::scope(|scope| {
                for ((pi, slab), r) in slabs.iter_mut().enumerate().zip(res.iter_mut()) {
                    let layers = 0..parts[pi].spans[axis].local_len();
                    scope.spawn(move || {
                        *r = compute(pi, layers, slab);
                    });
                }
            });
            host_halo_exchange(self.partition, system, plane, slabs, &self.halo);
            return res;
        }

        if !fresh_ghosts && self.sync_spec.wants_any() {
            host_halo_exchange(self.partition, system, plane, slabs, &self.sync_spec);
        }
        phase(slabs, &mut res, false);
        if !fresh_ghosts {
            host_halo_exchange(self.partition, system, plane, slabs, &self.overlap_spec);
        }
        phase(slabs, &mut res, true);
        res
    }

    /// Fold each part's per-window residual scalars into cache slot 0 —
    /// what the convergence butterfly reads. A node-local sequencer
    /// combine: no router time is charged. Bit-identical to the fused
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
    use crate::host::JacobiHostState;
    use crate::nsc_run::load_problem;
    use crate::partition::{GridShape, StripPartition};
    use nsc_arch::HypercubeConfig;
    use nsc_core::Session;

    fn load_strips(strips: &StripPartition, system: &mut NscSystem, u0: &Grid3, f: &Grid3) {
        let us = strips.scatter(&u0.data);
        let fs = strips.scatter(&f.data);
        for (p, (lu, lf)) in strips.parts().iter().zip(us.iter().zip(&fs)) {
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

    /// Compile the even sweep of an 8^3 problem striped over a 2-node
    /// cube with an engine of mode `compiled_overlap`, then hand it to an
    /// engine of mode `run_overlap`.
    fn run_across_modes(compiled_overlap: bool, run_overlap: bool) -> Result<u64, NscError> {
        let (u0, f, _) = manufactured_problem(8);
        let session = Session::nsc_1988();
        let mut system = NscSystem::new(HypercubeConfig::new(1), session.kb());
        let strips = StripPartition::new(GridShape::volume3d(8, 8, 8), system.cube).unwrap();
        load_strips(&strips, &mut system, &u0, &f);
        let sweep = SweepEngine::new(&strips, HaloSpec::stencil(), compiled_overlap)
            .compile(&session, even_sweep)
            .expect("compiles");
        let engine = SweepEngine::new(&strips, HaloSpec::stencil(), run_overlap);
        let io = SweepIo::first(PLANE_U0, PLANE_U1);
        let result = engine.sweep(&mut system, &sweep, io, &RunOptions::default());
        if result.is_err() {
            assert_eq!(system.aggregate_counters().instructions, 0, "refused before running");
        }
        result
    }

    #[test]
    fn a_synchronized_engine_refuses_an_overlapped_sweep() {
        let err = run_across_modes(true, false).expect_err("mode mismatch");
        assert!(matches!(err, NscError::Workload(_)), "{err:?}");
        assert_eq!(run_across_modes(false, false), Ok(0), "its own mode still runs");
    }

    #[test]
    fn an_overlapped_engine_refuses_a_synchronized_sweep() {
        let err = run_across_modes(false, true).expect_err("mode mismatch");
        assert!(matches!(err, NscError::Workload(_)), "{err:?}");
        assert!(run_across_modes(true, true).is_ok(), "its own mode still runs");
    }

    #[test]
    fn an_engine_refuses_a_sweep_compiled_over_another_part_count() {
        let session = Session::nsc_1988();
        let system = NscSystem::new(HypercubeConfig::new(1), session.kb());
        let shape = GridShape::volume3d(8, 8, 8);
        let two = StripPartition::new(shape, system.cube).unwrap();
        let mut big = NscSystem::new(HypercubeConfig::new(2), session.kb());
        let four = StripPartition::new(shape, big.cube).unwrap();
        for overlap in [false, true] {
            let sweep = SweepEngine::new(&two, HaloSpec::stencil(), overlap)
                .compile(&session, even_sweep)
                .expect("compiles");
            let engine = SweepEngine::new(&four, HaloSpec::stencil(), overlap);
            let io = SweepIo::first(PLANE_U0, PLANE_U1);
            let err = engine.sweep(&mut big, &sweep, io, &RunOptions::default()).unwrap_err();
            assert!(matches!(err, NscError::Workload(_)), "{err:?}");
        }
        assert_eq!(big.aggregate_counters().instructions, 0);
    }

    #[test]
    fn a_system_lacking_a_partition_node_is_refused_untouched() {
        let session = Session::nsc_1988();
        let big = NscSystem::new(HypercubeConfig::new(2), session.kb());
        let four = StripPartition::new(GridShape::volume3d(8, 8, 8), big.cube).unwrap();
        for overlap in [false, true] {
            let engine = SweepEngine::new(&four, HaloSpec::stencil(), overlap);
            let sweep = engine.compile(&session, even_sweep).expect("compiles");
            let mut small = NscSystem::new(HypercubeConfig::new(1), session.kb());
            for io in [SweepIo::first(PLANE_U0, PLANE_U1), SweepIo::steady(PLANE_U1, PLANE_U0)] {
                let err = engine.sweep(&mut small, &sweep, io, &RunOptions::default()).unwrap_err();
                assert!(matches!(err, NscError::Workload(_)), "overlap {overlap}: {err:?}");
            }
            for node in small.nodes() {
                assert_eq!(node.counters, Default::default(), "overlap {overlap}: nothing ran");
                assert!(
                    node.mem.planes.iter().all(|p| p.resident_pages() == 0),
                    "no plane written"
                );
            }
        }
    }

    #[test]
    fn overlapped_and_synchronized_sweeps_agree_bit_for_bit_and_hide_time() {
        let (u0, f, _) = manufactured_problem(9);
        let session = Session::nsc_1988();
        let shape = GridShape::volume3d(9, 9, 9);
        let opts = RunOptions::default();
        let build = |even: bool| {
            move |p: &Part, windows: &[SweepWindow]| {
                let (nx, ny, nz) = p.local_shape();
                build_jacobi_sweep_document_windows(JacobiGeometry::slab(nx, ny, nz), even, windows)
            }
        };

        let mut runs = Vec::new();
        for overlap in [false, true] {
            let mut system = NscSystem::new(HypercubeConfig::new(2), session.kb());
            let strips = StripPartition::new(shape, system.cube).expect("decomposes");
            load_strips(&strips, &mut system, &u0, &f);
            let engine = SweepEngine::new(&strips, HaloSpec::stencil(), overlap);
            let even = engine.compile(&session, build(true)).expect("compiles");
            let odd = engine.compile(&session, build(false)).expect("compiles");
            let mut hidden = 0;
            hidden += engine
                .sweep(&mut system, &even, SweepIo::first(PLANE_U0, PLANE_U1), &opts)
                .expect("even");
            hidden += engine
                .sweep(&mut system, &odd, SweepIo::steady(PLANE_U1, PLANE_U0), &opts)
                .expect("odd");
            let residual = system.node(strips.parts()[1].node).mem.cache(RESIDUAL_CACHE).read(0, 0);
            // Gather the owned points and the per-node residual slot 0.
            let slabs = crate::partition::read_slabs(&strips, &system, PLANE_U0);
            runs.push((strips.gather(&slabs), residual, hidden, system.simulated_seconds()));
        }
        let (sync_u, sync_r, sync_hidden, sync_secs) = &runs[0];
        let (over_u, over_r, over_hidden, over_secs) = &runs[1];
        for (a, b) in sync_u.iter().zip(over_u) {
            assert_eq!(a.to_bits(), b.to_bits(), "split sweep diverged from fused");
        }
        assert_eq!(sync_r.to_bits(), over_r.to_bits(), "combined residual differs");
        assert_eq!(*sync_hidden, 0, "synchronized mode hides nothing");
        assert!(*over_hidden > 0, "the odd sweep's exchange must hide under its interior");
        assert!(over_secs < sync_secs, "hidden latency must shorten the simulated run");
    }
}
