//! Multigrid V-cycle for the 3-D Poisson equation (paper ref. \[6\]:
//! Nosenchuck, Krist & Zang, "On Multigrid Methods for the Navier-Stokes
//! Computer" — the work the paper's Jacobi example is drawn from).
//!
//! Standard components: damped-Jacobi smoothing, full-weighting
//! restriction, trilinear prolongation, recursive V(ν1,ν2) cycles on grids
//! of size `2^m + 1`. Experiment T6 compares this against plain point
//! Jacobi on the simulated NSC: multigrid needs orders of magnitude fewer
//! fine-grid sweeps, exactly the motivation of ref. \[6\].

use crate::grid::{check_problem, Grid3};
use crate::host::{damped_jacobi_update_tree, residual_linf};
use nsc_core::NscError;

/// Pre-smoothing sweeps per level (the ν1 of V(ν1,ν2)).
pub(crate) const NU1: usize = 2;
/// Post-smoothing sweeps per level (the ν2 of V(ν1,ν2)).
pub(crate) const NU2: usize = 2;
/// Sweeps used to "solve" the coarsest (`3^3`) level.
const COARSE_SWEEPS: usize = 50;

/// Work/quality accounting of a multigrid solve.
#[derive(Debug, Clone, Default)]
pub struct MgStats {
    /// V-cycles performed.
    pub cycles: usize,
    /// Smoothing sweeps, weighted by level size relative to the fine grid
    /// (1.0 = one fine-grid-equivalent sweep).
    pub fine_equivalent_sweeps: f64,
    /// Residual after each cycle.
    pub residual_history: Vec<f64>,
}

/// One damped-Jacobi smoothing sweep for `-∇²u = f`, computed point for
/// point as the NSC's damped sweep pipeline computes it
/// ([`damped_jacobi_update_tree`], with `g = -(h² f)` and an interior mask
/// of one) — so a machine-resident smoothing sweep on a decomposed slab is
/// bit-identical to this host sweep on the points a node owns.
pub fn smooth(u: &mut Grid3, f: &Grid3, omega: f64) {
    let h2 = u.h * u.h;
    let mut next = u.clone();
    for k in 1..u.nz - 1 {
        for j in 1..u.ny - 1 {
            for i in 1..u.nx - 1 {
                let g = -(h2 * f.at(i, j, k));
                let (unew, _) = damped_jacobi_update_tree(
                    u.at(i, j, k + 1),
                    u.at(i, j, k - 1),
                    u.at(i, j + 1, k),
                    u.at(i, j - 1, k),
                    u.at(i + 1, j, k),
                    u.at(i - 1, j, k),
                    u.at(i, j, k),
                    g,
                    1.0,
                    omega,
                );
                *next.at_mut(i, j, k) = unew;
            }
        }
    }
    std::mem::swap(u, &mut next);
}

/// The seven-point Laplacian at one point, in the fixed evaluation order
/// every residual computation shares (east, west, north, south, up, down).
#[inline]
#[allow(clippy::too_many_arguments)] // one argument per stencil neighbour
pub(crate) fn lap_at(
    east: f64,
    west: f64,
    north: f64,
    south: f64,
    up: f64,
    down: f64,
    center: f64,
    h2: f64,
) -> f64 {
    (east + west + north + south + up + down - 6.0 * center) / h2
}

/// The 27-point full-weighting sum around one coarse point; `at(di, dj,
/// dk)` reads the fine grid relative to the coarse point's fine-grid
/// image. The fixed loop order makes every caller bit-compatible.
pub(crate) fn full_weight_at(at: impl Fn(i32, i32, i32) -> f64) -> f64 {
    let mut acc = 0.0;
    for (dk, wk) in [(-1i32, 0.25), (0, 0.5), (1, 0.25)] {
        for (dj, wj) in [(-1i32, 0.25), (0, 0.5), (1, 0.25)] {
            for (di, wi) in [(-1i32, 0.25), (0, 0.5), (1, 0.25)] {
                acc += wi * wj * wk * at(di, dj, dk);
            }
        }
    }
    acc
}

/// The trilinear interpolant of the coarse grid at fine point `(i, j,
/// k)`; `coarse_at` reads coarse-grid points. The fixed loop order (and
/// the skip of zero weights) makes every caller bit-compatible.
pub(crate) fn prolong_value(
    coarse_at: impl Fn(usize, usize, usize) -> f64,
    i: usize,
    j: usize,
    k: usize,
) -> f64 {
    let (ic, fi) = (i / 2, (i % 2) as f64 * 0.5);
    let (jc, fj) = (j / 2, (j % 2) as f64 * 0.5);
    let (kc, fk) = (k / 2, (k % 2) as f64 * 0.5);
    let mut acc = 0.0;
    for (dk, wk) in [(0usize, 1.0 - fk), (1, fk)] {
        if wk == 0.0 {
            continue;
        }
        for (dj, wj) in [(0usize, 1.0 - fj), (1, fj)] {
            if wj == 0.0 {
                continue;
            }
            for (di, wi) in [(0usize, 1.0 - fi), (1, fi)] {
                if wi == 0.0 {
                    continue;
                }
                acc += wi * wj * wk * coarse_at(ic + di, jc + dj, kc + dk);
            }
        }
    }
    acc
}

/// Pointwise residual `r = f + ∇²u` (zero on the boundary).
fn residual_field(u: &Grid3, f: &Grid3) -> Grid3 {
    let h2 = u.h * u.h;
    let mut r = Grid3::new(u.nx, u.ny, u.nz);
    r.h = u.h;
    for k in 1..u.nz - 1 {
        for j in 1..u.ny - 1 {
            for i in 1..u.nx - 1 {
                let lap = lap_at(
                    u.at(i + 1, j, k),
                    u.at(i - 1, j, k),
                    u.at(i, j + 1, k),
                    u.at(i, j - 1, k),
                    u.at(i, j, k + 1),
                    u.at(i, j, k - 1),
                    u.at(i, j, k),
                    h2,
                );
                *r.at_mut(i, j, k) = f.at(i, j, k) + lap;
            }
        }
    }
    r
}

/// Full-weighting restriction to the `(n+1)/2` coarse grid.
pub(crate) fn restrict(fine: &Grid3) -> Grid3 {
    let nc = fine.nx.div_ceil(2);
    let mut coarse = Grid3::new(nc, nc, nc);
    coarse.h = fine.h * 2.0;
    for kc in 1..nc - 1 {
        for jc in 1..nc - 1 {
            for ic in 1..nc - 1 {
                let (i, j, k) = (2 * ic as i32, 2 * jc as i32, 2 * kc as i32);
                *coarse.at_mut(ic, jc, kc) = full_weight_at(|di, dj, dk| {
                    fine.at((i + di) as usize, (j + dj) as usize, (k + dk) as usize)
                });
            }
        }
    }
    coarse
}

/// Trilinear prolongation from the coarse grid, added into `fine`.
fn prolong_add(fine: &mut Grid3, coarse: &Grid3) {
    let nf = fine.nx;
    for k in 1..nf - 1 {
        for j in 1..nf - 1 {
            for i in 1..nf - 1 {
                *fine.at_mut(i, j, k) += prolong_value(|ic, jc, kc| coarse.at(ic, jc, kc), i, j, k);
            }
        }
    }
}

pub(crate) fn vcycle_level(
    u: &mut Grid3,
    f: &Grid3,
    omega: f64,
    fine_points: f64,
    stats: &mut MgStats,
) {
    let weight = u.len() as f64 / fine_points;
    if u.nx <= 3 {
        for _ in 0..COARSE_SWEEPS {
            smooth(u, f, 1.0);
        }
        stats.fine_equivalent_sweeps += COARSE_SWEEPS as f64 * weight;
        return;
    }
    for _ in 0..NU1 {
        smooth(u, f, omega);
    }
    stats.fine_equivalent_sweeps += NU1 as f64 * weight;
    let r = residual_field(u, f);
    let rc = restrict(&r);
    let mut ec = Grid3::new(rc.nx, rc.ny, rc.nz);
    ec.h = rc.h;
    vcycle_level(&mut ec, &rc, omega, fine_points, stats);
    prolong_add(u, &ec);
    for _ in 0..NU2 {
        smooth(u, f, omega);
    }
    stats.fine_equivalent_sweeps += NU2 as f64 * weight;
}

/// Refuse a grid the V-cycle cannot coarsen down to its `3^3` level: it
/// must be cubic, with `2^m + 1` points a side and at least `min_side`
/// (3 or more).
pub(crate) fn check_vcycle_grid(u: &Grid3, min_side: usize) -> Result<(), NscError> {
    let n = u.nx;
    if n != u.ny || n != u.nz || n < min_side || !(n - 1).is_power_of_two() {
        return Err(NscError::Workload(format!(
            "multigrid wants a cubic 2^m + 1 grid of at least {min_side}^3, got {}x{}x{}",
            u.nx, u.ny, u.nz
        )));
    }
    Ok(())
}

/// Run V(2,2)-cycles, smoothing with damped-Jacobi weight `omega`
/// (2/3 .. 0.9 smooths well for Poisson), until the residual max-norm
/// drops below `tol` (or `max_cycles`). The grid must be cubic with
/// `2^m + 1` points a side, and `f` must match it: any other shape, or a
/// `data` length that disagrees with the sides, is refused with
/// [`NscError::Workload`] before `u` is touched.
pub fn vcycle(
    u: &mut Grid3,
    f: &Grid3,
    tol: f64,
    max_cycles: usize,
    omega: f64,
) -> Result<MgStats, NscError> {
    check_vcycle_grid(u, 3)?;
    check_problem(u, f)?;
    let mut stats = MgStats::default();
    let fine_points = u.len() as f64;
    for _ in 0..max_cycles {
        vcycle_level(u, f, omega, fine_points, &mut stats);
        stats.cycles += 1;
        let r = residual_linf(u, f);
        stats.residual_history.push(r);
        if r < tol {
            break;
        }
    }
    Ok(stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::grid::manufactured_problem;

    #[test]
    fn restriction_preserves_constants() {
        let mut fine = Grid3::new(9, 9, 9);
        fine.fill_with(|_, _, _| 4.2);
        let coarse = restrict(&fine);
        assert_eq!(coarse.nx, 5);
        assert!((coarse.at(2, 2, 2) - 4.2).abs() < 1e-12, "interior weight sums to one");
        assert!((coarse.h - fine.h * 2.0).abs() < 1e-15);
    }

    #[test]
    fn prolongation_interpolates_linears_exactly() {
        let mut coarse = Grid3::new(5, 5, 5);
        coarse.h = 0.25;
        coarse.fill_with(|x, y, z| x + y + z);
        let mut fine = Grid3::new(9, 9, 9);
        prolong_add(&mut fine, &coarse);
        // At an interior fine point not on the coarse lattice:
        let expect = |i: usize, j: usize, k: usize| {
            // coarse fill used *coarse* coordinates (h=0.25 over index/4):
            // value at coarse (ic,jc,kc) = (ic + jc + kc) * 0.25
            // trilinear interp of a linear function is exact.
            (i as f64 / 2.0 + j as f64 / 2.0 + k as f64 / 2.0) * 0.25
        };
        for (i, j, k) in [(3, 3, 3), (4, 5, 6), (1, 1, 1), (7, 3, 5)] {
            assert!(
                (fine.at(i, j, k) - expect(i, j, k)).abs() < 1e-12,
                "at ({i},{j},{k}): {} vs {}",
                fine.at(i, j, k),
                expect(i, j, k)
            );
        }
    }

    #[test]
    fn vcycles_converge_fast() {
        let (mut u, f, exact) = manufactured_problem(17);
        let stats = vcycle(&mut u, &f, 1e-8, 25, 0.8).expect("17^3 cycles");
        assert!(
            *stats.residual_history.last().unwrap() < 1e-8,
            "history: {:?}",
            stats.residual_history
        );
        assert!(stats.cycles <= 25);
        assert!(u.linf_diff(&exact) < 0.02, "discretization-level error");
    }

    #[test]
    fn each_cycle_contracts_the_residual() {
        let (mut u, f, _) = manufactured_problem(17);
        let stats = vcycle(&mut u, &f, 0.0, 6, 0.8).expect("17^3 cycles");
        for w in stats.residual_history.windows(2) {
            assert!(w[1] < w[0] * 0.7, "weak contraction: {} -> {}", w[0], w[1]);
        }
    }

    #[test]
    fn multigrid_work_is_far_below_jacobi_work() {
        let (mut u, f, _) = manufactured_problem(17);
        let tol = 1e-7;
        let stats = vcycle(&mut u, &f, tol, 40, 0.8).expect("17^3 cycles");
        // Jacobi sweeps to the same tolerance (counted on the host).
        let (u0, f2, _) = manufactured_problem(17);
        let mut state = crate::host::JacobiHostState::new(&u0, &f2);
        let mut jacobi_sweeps = 0usize;
        for _ in 0..60_000 {
            jacobi_sweeps += 1;
            if crate::host::jacobi_sweep_host(&mut state) < tol / 10.0 {
                // update-norm tolerance roughly tracks residual/10 here
                break;
            }
        }
        assert!(
            stats.fine_equivalent_sweeps * 5.0 < jacobi_sweeps as f64,
            "multigrid {} fine-equivalent sweeps vs jacobi {jacobi_sweeps}",
            stats.fine_equivalent_sweeps
        );
    }
}
