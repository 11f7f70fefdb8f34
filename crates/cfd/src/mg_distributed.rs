//! Machine-resident distributed multigrid on a 2-D block decomposition.
//!
//! The top ROADMAP item this layer exists for: multigrid's coarse grids go
//! thinner than one plane per node long before the fine grid does, so the
//! V-cycle could never run distributed on strips. On a
//! [`BlockPartition`] the two slowest axes shrink together, and each
//! coarse level's partition is *derived* from the finer one (coarse index
//! `c` lives where fine index `2c` lives), so restriction and
//! prolongation reach at most one ghost layer across block boundaries.
//!
//! Per V-cycle level:
//!
//! * **smoothing** runs machine-resident: each block compiles the damped
//!   Jacobi sweep pipeline on its local geometry
//!   ([`crate::diagrams::build_damped_jacobi_sweep_document_windows`]) and sweeps
//!   concurrently on real node threads, ghost faces moving through the
//!   hyperspace router between sweeps — bit-identical to the serial
//!   [`crate::multigrid::smooth`] on the points a block owns, because the
//!   serial smoother computes the same operation tree;
//! * **residual, restriction and prolongation** are computed per block
//!   with the exact serial point kernels (the shared `lap_at`,
//!   `full_weight_at` and `prolong_value` functions), reading neighbour
//!   data from ghost faces refreshed through the router;
//! * when the next level would be too thin to sweep (or smaller than
//!   `3^3`), the remaining levels *agglomerate*: the residual is gathered,
//!   the serial V-cycle recursion finishes on the host, and the
//!   correction is interpolated straight back into the blocks.
//!
//! The result is bit-identical to the serial [`crate::vcycle`] at every
//! cube size — asserted down to the residual history in tests — so a cube
//! of dimension 0 is the serial solver.

use crate::diagrams::{
    build_damped_jacobi_sweep_document_windows, check_tap_reach, plane_words, JacobiGeometry,
    PLANE_G, PLANE_MASK, PLANE_U0, PLANE_U1, RESIDUAL_CACHE,
};
use crate::distributed::check_same_machine;
use crate::grid::{check_problem, Grid3, PaddedField};
use crate::multigrid::{
    check_vcycle_grid, full_weight_at, lap_at, prolong_value, restrict, vcycle_level, MgStats, NU1,
    NU2,
};
use crate::overlap::{CompiledSweep, SweepEngine, SweepIo};
use crate::partition::{
    host_halo_exchange, read_slabs, BlockPartition, GridShape, HaloSpec, Partition,
};
use nsc_core::{NscError, Session, Workload};
use nsc_sim::{NscSystem, PerfCounters, RunOptions, SystemRunMetrics};

/// One distributed V-cycle level: its grid, its derived partition, and
/// the compiled damped-sweep pair per block.
#[derive(Debug)]
struct DistLevel {
    /// Grid points per side at this level.
    n: usize,
    /// Mesh spacing at this level.
    h: f64,
    part: BlockPartition,
    even: CompiledSweep,
    odd: CompiledSweep,
    /// Aligned-padded interior masks, one per block (static per level).
    masks: Vec<Vec<f64>>,
}

/// Derive the next-coarser level's partition from a fine one: coarse
/// index `c` goes to the block owning fine index `2c`, so every transfer
/// operator reaches at most one ghost layer. `None` when a block's coarse
/// range would be empty or too thin to sweep.
fn derive_coarse(fine: &BlockPartition, nc: usize) -> Option<BlockPartition> {
    let derive = |sizes: &[usize]| -> Option<Vec<usize>> {
        let mut out = Vec::new();
        let mut start = 0usize;
        for &len in sizes {
            let (fs, fe) = (start, start + len - 1);
            let (cs, ce) = (fs.div_ceil(2), fe / 2);
            if ce < cs {
                return None;
            }
            out.push(ce - cs + 1);
            start += len;
        }
        Some(out)
    };
    let rows = derive(&fine.row_sizes())?;
    let cols = derive(&fine.col_sizes())?;
    BlockPartition::from_sizes(GridShape::volume3d(nc, nc, nc), fine.torus, &rows, &cols).ok()
}

/// Build the distributed level stack: fine to coarse, stopping before a
/// level would be smaller than `5^3` or too thin to partition (the serial
/// host tail takes over from there).
fn build_levels(
    session: &Session,
    system: &NscSystem,
    n0: usize,
    h0: f64,
    omega: f64,
) -> Result<Vec<DistLevel>, NscError> {
    let torus = system.cube.torus2d_near_square();
    let mut part = BlockPartition::new(GridShape::volume3d(n0, n0, n0), torus)?;
    let mut n = n0;
    let mut h = h0;
    let mut levels = Vec::new();
    loop {
        check_tap_reach(session.kb(), part.parts().iter().map(plane_words), "plane")?;
        let (even, odd) =
            SweepEngine::stencil(&part).compile_pair(session, |p, even, windows| {
                let (lnx, lny, lnz) = p.local_shape();
                let geometry = JacobiGeometry::slab(lnx, lny, lnz);
                build_damped_jacobi_sweep_document_windows(geometry, even, omega, windows)
            })?;
        let masks = part
            .parts()
            .iter()
            .map(|p| {
                let (lnx, lny, lnz) = p.local_shape();
                let local = Grid3::new(lnx, lny, lnz);
                PaddedField::aligned(&local.interior_mask()).words
            })
            .collect();
        levels.push(DistLevel { n, h, part: part.clone(), even, odd, masks });
        let nc = n.div_ceil(2);
        if nc <= 3 {
            break;
        }
        match derive_coarse(&part, nc) {
            Some(next) => {
                part = next;
                n = nc;
                h *= 2.0;
            }
            None => break,
        }
    }
    Ok(levels)
}

/// Run `sweeps` machine-resident damped-Jacobi sweeps on a level: stage
/// the block fields into the node planes, ping-pong the compiled sweep
/// pair (each sweep refreshes the ghosts it reads while its interior
/// computes — so sweep 0 also refreshes ghosts left stale by
/// prolongation), refresh the last sweep's faces, and read the smoothed
/// slabs (fresh ghosts included) back.
fn machine_smooth(
    level: &DistLevel,
    system: &mut NscSystem,
    u_slabs: &mut [Vec<f64>],
    f_slabs: &[Vec<f64>],
    sweeps: usize,
) -> Result<(), NscError> {
    let part = &level.part;
    let parts = part.parts();
    if sweeps == 0 {
        // Nothing to smooth, but callers still rely on fresh ghosts.
        host_halo_exchange(part, system, PLANE_U0, u_slabs, &HaloSpec::stencil())?;
        return Ok(());
    }
    let h2 = level.h * level.h;
    for (pi, p) in parts.iter().enumerate() {
        let (lnx, lny, lnz) = p.local_shape();
        let wrap = |data: Vec<f64>| Grid3 { nx: lnx, ny: lny, nz: lnz, h: level.h, data };
        let padded_u = PaddedField::stencil(&wrap(u_slabs[pi].clone()));
        let g: Vec<f64> = f_slabs[pi].iter().map(|&v| -(h2 * v)).collect();
        let padded_g = PaddedField::aligned(&wrap(g));
        let mem = &mut system.node_mut(p.node).mem;
        mem.plane_mut(PLANE_U0).write_slice(0, &padded_u.words);
        // The pong plane's pad regions must hold zeros too.
        mem.plane_mut(PLANE_U1).write_slice(0, &padded_u.words);
        mem.plane_mut(PLANE_G).write_slice(0, &padded_g.words);
        mem.plane_mut(PLANE_MASK).write_slice(0, &level.masks[pi]);
    }
    let engine = SweepEngine::stencil(part);
    let opts = RunOptions::default();
    for s in 0..sweeps {
        let (sweep, io) = if s % 2 == 0 {
            (&level.even, SweepIo::steady(PLANE_U0, PLANE_U1))
        } else {
            (&level.odd, SweepIo::steady(PLANE_U1, PLANE_U0))
        };
        engine.sweep(system, sweep, io, &opts)?;
    }
    let final_plane = if sweeps.is_multiple_of(2) { PLANE_U0 } else { PLANE_U1 };
    // The last sweep's faces never travelled; the slab readback below
    // hands ghosts to the host transfer operators, so refresh now.
    engine.refresh(system, final_plane)?;
    for (dst, src) in u_slabs.iter_mut().zip(read_slabs(part, system, final_plane)) {
        *dst = src;
    }
    Ok(())
}

/// Per-block residual field `r = f + ∇²u` over owned interior points
/// (zero elsewhere). `u` ghosts must be fresh.
fn residual_slabs(level: &DistLevel, u_slabs: &[Vec<f64>], f_slabs: &[Vec<f64>]) -> Vec<Vec<f64>> {
    let n = level.n;
    let h2 = level.h * level.h;
    level
        .part
        .parts()
        .iter()
        .enumerate()
        .map(|(pi, p)| {
            let u = &u_slabs[pi];
            let f = &f_slabs[pi];
            let at = |i: usize, j: usize, k: usize| u[p.local_flat_of_global(i, j, k)];
            let mut r = vec![0.0; p.local_words()];
            for k in p.owned_interior(2, n) {
                for j in p.owned_interior(1, n) {
                    for i in p.owned_interior(0, n) {
                        let lap = lap_at(
                            at(i + 1, j, k),
                            at(i - 1, j, k),
                            at(i, j + 1, k),
                            at(i, j - 1, k),
                            at(i, j, k + 1),
                            at(i, j, k - 1),
                            at(i, j, k),
                            h2,
                        );
                        r[p.local_flat_of_global(i, j, k)] =
                            f[p.local_flat_of_global(i, j, k)] + lap;
                    }
                }
            }
            r
        })
        .collect()
}

/// Full-weighting restriction from a fine level's residual slabs onto the
/// derived coarse partition. Fine ghosts must be fresh (the transfer
/// reaches one layer across block boundaries).
fn restrict_slabs(fine: &DistLevel, coarse: &DistLevel, r_slabs: &[Vec<f64>]) -> Vec<Vec<f64>> {
    let nc = coarse.n;
    coarse
        .part
        .parts()
        .iter()
        .enumerate()
        .map(|(pi, cp)| {
            let fp = &fine.part.parts()[pi];
            let r = &r_slabs[pi];
            let mut rc = vec![0.0; cp.local_words()];
            for kc in cp.owned_interior(2, nc) {
                for jc in cp.owned_interior(1, nc) {
                    for ic in cp.owned_interior(0, nc) {
                        let (i, j, k) = (2 * ic as i32, 2 * jc as i32, 2 * kc as i32);
                        rc[cp.local_flat_of_global(ic, jc, kc)] = full_weight_at(|di, dj, dk| {
                            r[fp.local_flat_of_global(
                                (i + di) as usize,
                                (j + dj) as usize,
                                (k + dk) as usize,
                            )]
                        });
                    }
                }
            }
            rc
        })
        .collect()
}

/// Trilinear prolongation added into each block's owned interior;
/// `coarse_at(block, ic, jc, kc)` reads the coarse correction.
fn prolong_add_slabs(
    fine: &DistLevel,
    u_slabs: &mut [Vec<f64>],
    coarse_at: impl Fn(usize, usize, usize, usize) -> f64,
) {
    let n = fine.n;
    for (pi, p) in fine.part.parts().iter().enumerate() {
        for k in p.owned_interior(2, n) {
            for j in p.owned_interior(1, n) {
                for i in p.owned_interior(0, n) {
                    u_slabs[pi][p.local_flat_of_global(i, j, k)] +=
                        prolong_value(|ic, jc, kc| coarse_at(pi, ic, jc, kc), i, j, k);
                }
            }
        }
    }
}

/// The distributed conventional residual `max |-∇²u - f|`, reduced over
/// the partition's node pool through the butterfly (`u` ghosts fresh).
fn residual_linf_dist(
    level: &DistLevel,
    system: &mut NscSystem,
    u_slabs: &[Vec<f64>],
    f_slabs: &[Vec<f64>],
) -> f64 {
    let n = level.n;
    let h2 = level.h * level.h;
    for (pi, p) in level.part.parts().iter().enumerate() {
        let u = &u_slabs[pi];
        let at = |i: usize, j: usize, k: usize| u[p.local_flat_of_global(i, j, k)];
        let mut r = 0.0f64;
        for k in p.owned_interior(2, n) {
            for j in p.owned_interior(1, n) {
                for i in p.owned_interior(0, n) {
                    let lap = lap_at(
                        at(i + 1, j, k),
                        at(i - 1, j, k),
                        at(i, j + 1, k),
                        at(i, j - 1, k),
                        at(i, j, k + 1),
                        at(i, j, k - 1),
                        at(i, j, k),
                        h2,
                    );
                    r = r.max((-lap - f_slabs[pi][p.local_flat_of_global(i, j, k)]).abs());
                }
            }
        }
        system.node_mut(p.node).mem.cache_mut(RESIDUAL_CACHE).write(0, 0, r);
    }
    let members = level.part.member_nodes();
    system.pool_max_cache_scalar(&members, RESIDUAL_CACHE, 0).0
}

/// One V-cycle from level `li` down: machine-resident smoothing, per-block
/// transfer operators, and the serial host tail below the last
/// distributed level.
#[allow(clippy::too_many_arguments)] // the recursion carries the whole cycle state
fn dist_vcycle(
    levels: &[DistLevel],
    li: usize,
    system: &mut NscSystem,
    u_slabs: &mut [Vec<f64>],
    f_slabs: &[Vec<f64>],
    omega: f64,
    fine_points: f64,
    stats: &mut MgStats,
) -> Result<(), NscError> {
    let level = &levels[li];
    let weight = (level.n * level.n * level.n) as f64 / fine_points;
    machine_smooth(level, system, u_slabs, f_slabs, NU1)?;
    stats.fine_equivalent_sweeps += NU1 as f64 * weight;

    let mut r_slabs = residual_slabs(level, u_slabs, f_slabs);

    if li + 1 < levels.len() {
        // Restriction reads one ghost layer of the residual across block
        // boundaries; the agglomeration branch gathers owned points only,
        // so it skips this exchange.
        host_halo_exchange(&level.part, system, PLANE_U0, &mut r_slabs, &HaloSpec::stencil())?;
        let coarse = &levels[li + 1];
        let rc_slabs = restrict_slabs(level, coarse, &r_slabs);
        let mut ec_slabs: Vec<Vec<f64>> =
            coarse.part.parts().iter().map(|p| vec![0.0; p.local_words()]).collect();
        dist_vcycle(levels, li + 1, system, &mut ec_slabs, &rc_slabs, omega, fine_points, stats)?;
        // Fresh ghosts on the correction before interpolating across
        // block boundaries.
        host_halo_exchange(&coarse.part, system, PLANE_U0, &mut ec_slabs, &HaloSpec::stencil())?;
        let cparts = coarse.part.parts();
        prolong_add_slabs(level, u_slabs, |pi, ic, jc, kc| {
            ec_slabs[pi][cparts[pi].local_flat_of_global(ic, jc, kc)]
        });
    } else {
        // Coarse agglomeration: the rest of the cycle is too small to
        // distribute; gather the residual and finish on the host with the
        // *same* serial recursion the serial workload runs.
        let mut r = Grid3::new(level.n, level.n, level.n);
        r.h = level.h;
        r.data = level.part.gather(&r_slabs);
        let rc = restrict(&r);
        let mut ec = Grid3::new(rc.nx, rc.ny, rc.nz);
        ec.h = rc.h;
        vcycle_level(&mut ec, &rc, omega, fine_points, stats);
        prolong_add_slabs(level, u_slabs, |_, ic, jc, kc| ec.at(ic, jc, kc));
    }

    machine_smooth(level, system, u_slabs, f_slabs, NU2)?;
    stats.fine_equivalent_sweeps += NU2 as f64 * weight;
    Ok(())
}

/// Outcome of a distributed multigrid solve.
#[derive(Debug, Clone)]
pub struct DistributedMultigridRun {
    /// The reassembled final iterate.
    pub u: Grid3,
    /// Work/quality accounting of the V-cycles (identical to the serial
    /// solver's, down to the residual history).
    pub stats: MgStats,
    /// Final L∞ residual.
    pub residual: f64,
    /// Whether the tolerance (not the cycle cap) ended it.
    pub converged: bool,
    /// V-cycle levels that ran distributed (the rest agglomerate).
    pub distributed_levels: usize,
    /// What this run cost the system: per-node counters, their aggregate,
    /// simulated seconds and achieved MFLOPS.
    pub metrics: SystemRunMetrics,
}

/// The ref. \[6\] multigrid V-cycle run machine-resident across the cube
/// on a 2-D block decomposition — bit-identical to the serial
/// [`crate::vcycle`] at every cube size.
#[derive(Debug, Clone)]
pub struct DistributedMultigridWorkload {
    /// Initial iterate; the grid must be cubic with `2^m + 1` points per
    /// side, at least `5^3`.
    pub u0: Grid3,
    /// Right-hand side.
    pub f: Grid3,
    /// Residual convergence tolerance.
    pub tol: f64,
    /// Cap on V-cycles.
    pub max_cycles: usize,
    /// Damped-Jacobi smoothing weight of the V(2,2)-cycle's pipelines.
    pub omega: f64,
}

impl DistributedMultigridWorkload {
    /// The manufactured `sin·sin·sin` Poisson problem on an `n³` grid
    /// (`n = 2^m + 1`) with a given damped-Jacobi smoothing weight — the
    /// sweepable constructor an ω-ensemble fans out over. The weight is a
    /// *document constant* of the smoothing pipelines, so members of the
    /// same grid size rebind the base compile instead of recompiling.
    pub fn manufactured(n: usize, omega: f64, tol: f64, max_cycles: usize) -> Self {
        let (u0, f, _) = crate::grid::manufactured_problem(n);
        DistributedMultigridWorkload { u0, f, tol, max_cycles, omega }
    }
}

impl Workload for DistributedMultigridWorkload {
    type Report = DistributedMultigridRun;

    fn name(&self) -> String {
        format!("distributed-multigrid V({NU1},{NU2}) {}^3", self.u0.nx)
    }

    fn execute(
        &self,
        session: &Session,
        system: &mut NscSystem,
    ) -> Result<DistributedMultigridRun, NscError> {
        check_same_machine(session, &system.nodes()[0])?;
        check_vcycle_grid(&self.u0, 5)?;
        check_problem(&self.u0, &self.f)?;
        let n = self.u0.nx;
        let levels = build_levels(session, system, n, self.u0.h, self.omega)?;
        let before: Vec<PerfCounters> = system.nodes().iter().map(|nd| nd.counters).collect();

        let mut u_slabs = levels[0].part.scatter(&self.u0.data);
        let f_slabs = levels[0].part.scatter(&self.f.data);
        let fine_points = (n * n * n) as f64;
        let mut stats = MgStats::default();
        let mut residual = f64::INFINITY;
        for _ in 0..self.max_cycles {
            dist_vcycle(
                &levels,
                0,
                system,
                &mut u_slabs,
                &f_slabs,
                self.omega,
                fine_points,
                &mut stats,
            )?;
            stats.cycles += 1;
            residual = residual_linf_dist(&levels[0], system, &u_slabs, &f_slabs);
            stats.residual_history.push(residual);
            if residual < self.tol {
                break;
            }
        }
        let converged = residual < self.tol;

        let mut u = Grid3::new(n, n, n);
        u.h = self.u0.h;
        u.data = levels[0].part.gather(&u_slabs);
        Ok(DistributedMultigridRun {
            u,
            stats,
            residual,
            converged,
            distributed_levels: levels.len(),
            metrics: system.metrics_since(&before),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::grid::manufactured_problem;
    use crate::multigrid::vcycle;
    use nsc_arch::HypercubeConfig;

    fn system(dim: u32, session: &Session) -> NscSystem {
        NscSystem::new(HypercubeConfig::new(dim), session.kb())
    }

    #[test]
    fn distributed_multigrid_is_bit_identical_to_serial_at_1_4_8_nodes() {
        let n = 17;
        let tol = 1e-8;
        let (mut serial_u, f, _) = manufactured_problem(n);
        let serial_stats = vcycle(&mut serial_u, &f, tol, 25, 0.8).expect("serial cycles");
        assert!(serial_stats.residual_history.last().is_some_and(|&r| r < tol));
        let session = Session::nsc_1988();
        for dim in [0u32, 2, 3] {
            let mut sys = system(dim, &session);
            let w = DistributedMultigridWorkload::manufactured(n, 0.8, tol, 25);
            let run = w.execute(&session, &mut sys).expect("distributed multigrid runs");
            assert!(run.converged, "{} nodes: residual {}", sys.node_count(), run.residual);
            assert_eq!(run.stats.cycles, serial_stats.cycles, "{} nodes", sys.node_count());
            for (a, b) in run.u.data.iter().zip(&serial_u.data) {
                assert_eq!(
                    a.to_bits(),
                    b.to_bits(),
                    "{} nodes: iterate diverged from serial",
                    sys.node_count()
                );
            }
            for (a, b) in run.stats.residual_history.iter().zip(&serial_stats.residual_history) {
                assert_eq!(a.to_bits(), b.to_bits(), "{} nodes: history", sys.node_count());
            }
            assert_eq!(
                run.stats.fine_equivalent_sweeps.to_bits(),
                serial_stats.fine_equivalent_sweeps.to_bits()
            );
            if dim > 0 {
                assert!(run.metrics.total.comm_ns > 0, "halos cost router time");
                assert!(run.distributed_levels >= 2, "coarse levels stay distributed");
                assert!(
                    run.metrics.per_node.iter().any(|c| c.comm_hidden_ns > 0),
                    "smoothing must hide some halo time"
                );
            }
            assert!(run.metrics.per_node.iter().all(|c| c.flops > 0), "every node smoothed");
            assert!(run.metrics.aggregate_mflops > 0.0);
        }
    }

    #[test]
    fn distributed_multigrid_rejects_bad_grids() {
        let session = Session::nsc_1988();
        // 8 - 1 = 7 is not 2^m; 3 = 2^1 + 1 is below 5^3. Both are refused
        // on one node (the serial case) as on two.
        for (n, dim) in [(8, 1), (8, 0), (3, 0)] {
            let mut sys = system(dim, &session);
            let w = DistributedMultigridWorkload::manufactured(n, 0.8, 1e-8, 5);
            assert!(matches!(w.execute(&session, &mut sys), Err(NscError::Workload(_))), "{n}");
        }
    }

    #[test]
    fn coarse_partitions_derive_down_to_the_agglomeration_point() {
        // 17^3 on a 4x2 torus: the 17- and 9-level stay distributed, the
        // 5-level still fits (1-2 planes per row, 3 with ghosts), 3^3
        // agglomerates.
        let session = Session::nsc_1988();
        let sys = system(3, &session);
        let levels = build_levels(&session, &sys, 17, 1.0 / 16.0, 0.8).expect("levels build");
        assert!(levels.len() >= 2, "only {} distributed levels", levels.len());
        assert_eq!(levels[0].n, 17);
        assert_eq!(levels[1].n, 9);
        for w in levels.windows(2) {
            // Derivation invariant: coarse index c is owned where fine 2c
            // is owned.
            for (cp, fp) in w[1].part.parts().iter().zip(w[0].part.parts()) {
                for axis in [1usize, 2] {
                    let (cs, fs) = (&cp.spans[axis], &fp.spans[axis]);
                    for c in cs.start..cs.start + cs.len {
                        assert!(
                            2 * c >= fs.start && 2 * c < fs.start + fs.len,
                            "axis {axis}: coarse {c} not over fine {}..{}",
                            fs.start,
                            fs.start + fs.len
                        );
                    }
                }
            }
        }
    }
}
