//! Host reference solvers.
//!
//! [`jacobi_sweep_host`] mirrors the NSC pipeline *operation for
//! operation*: same addition tree, same constant multiply, same masked
//! update, same running maximum — and works on the same padded arrays with
//! their zero halos. IEEE double arithmetic is deterministic, so simulator
//! output can be compared **bit for bit** against this mirror; any
//! divergence is a bug in the generator or the simulator, not "numerical
//! noise". [`sor_sweep_host`] provides the conventional stronger baseline.

use crate::grid::{Grid2, Grid3, PaddedField};

/// Paper Equation 1, as the pipeline computes it. `center` is the old
/// value, `g = h^2 * f`, neighbours in the fixed pairing order of the
/// diagram's addition tree.
#[inline]
#[allow(clippy::too_many_arguments)] // one argument per stencil stream, mirroring the diagram
pub fn jacobi_update_tree(
    up: f64,
    down: f64,
    north: f64,
    south: f64,
    east: f64,
    west: f64,
    center: f64,
    g: f64,
    mask: f64,
) -> (f64, f64) {
    let s1 = up + down;
    let s2 = north + south;
    let s3 = east + west;
    let s4 = s1 + s2;
    let s5 = s4 + s3;
    let t = s5 - g;
    let uj = t * (1.0 / 6.0);
    let d = uj - center;
    let dm = d * mask;
    let unew = center + dm;
    (unew, dm)
}

/// The *damped* update, as the `build_damped_jacobi_sweep_document_windows`
/// pipeline computes it: the plain tree's update scaled by `omega` before
/// the mask — the multigrid smoothing kernel. Returns `(unew, dm)` where
/// `dm` is the omega-scaled masked update the residual reduction sees.
#[inline]
#[allow(clippy::too_many_arguments)] // one argument per stencil stream, mirroring the diagram
pub fn damped_jacobi_update_tree(
    up: f64,
    down: f64,
    north: f64,
    south: f64,
    east: f64,
    west: f64,
    center: f64,
    g: f64,
    mask: f64,
    omega: f64,
) -> (f64, f64) {
    let s1 = up + down;
    let s2 = north + south;
    let s3 = east + west;
    let s4 = s1 + s2;
    let s5 = s4 + s3;
    let t = s5 - g;
    let uj = t * (1.0 / 6.0);
    let d = uj - center;
    let dw = d * omega;
    let dm = dw * mask;
    let unew = center + dm;
    (unew, dm)
}

/// Ping-pong state of the host Jacobi iteration on padded arrays.
#[derive(Debug, Clone)]
pub struct JacobiHostState {
    /// Grid extents.
    pub nx: usize,
    /// Grid extents.
    pub ny: usize,
    /// Grid extents.
    pub nz: usize,
    /// Current solution, stencil-padded.
    pub u: PaddedField,
    /// Scratch for the next iterate, stencil-padded.
    pub u_next: PaddedField,
    /// `h^2 * f`, aligned-padded.
    pub g: PaddedField,
    /// Interior mask, aligned-padded.
    pub mask: PaddedField,
}

impl JacobiHostState {
    /// Set up from unpadded problem data (`f` is the raw right-hand side;
    /// it is scaled by `h^2` here).
    pub fn new(u0: &Grid3, f: &Grid3) -> Self {
        let mut g_grid = f.clone();
        let h2 = f.h * f.h;
        for v in &mut g_grid.data {
            *v *= h2;
        }
        // Match Poisson sign convention: -∇²u = f  =>
        // u = (sum(neighbours) + h²f)/6; the pipeline computes
        // (sum - g)/6, so store g = -h²f.
        for v in &mut g_grid.data {
            *v = -*v;
        }
        let mask = u0.interior_mask();
        JacobiHostState {
            nx: u0.nx,
            ny: u0.ny,
            nz: u0.nz,
            u: PaddedField::stencil(u0),
            u_next: PaddedField::stencil(u0),
            g: PaddedField::aligned(&g_grid),
            mask: PaddedField::aligned(&mask),
        }
    }

    /// Current iterate as a grid.
    pub fn current(&self) -> Grid3 {
        self.u.to_grid(self.nx, self.ny, self.nz)
    }
}

/// One point-Jacobi sweep in exact NSC stream order. Returns the residual
/// measure the pipeline computes: `max |masked update|`.
pub fn jacobi_sweep_host(state: &mut JacobiHostState) -> f64 {
    let h = state.nx * state.ny; // one xy-plane
    let n = state.nx * state.ny * state.nz;
    let u = &state.u.words;
    let g = &state.g.words;
    let mask = &state.mask.words;
    let out = &mut state.u_next.words;
    let mut res = 0.0f64;
    for q in 0..n {
        // Stream index of output q is q + 2h; taps reference u_pad:
        let up = u[q + 2 * h];
        let down = u[q];
        let north = u[q + h + state.nx];
        let south = u[q + h - state.nx];
        let east = u[q + h + 1];
        let west = u[q + h - 1];
        let center = u[q + h];
        let (unew, dm) = jacobi_update_tree(
            up,
            down,
            north,
            south,
            east,
            west,
            center,
            g[q + 2 * h],
            mask[q + 2 * h],
        );
        out[q + h] = unew;
        res = dm.abs().max(res);
    }
    std::mem::swap(&mut state.u, &mut state.u_next);
    res
}

/// The 2-D five-point update, as the `build_jacobi2d_sweep_document_windows`
/// pipeline computes it: `((n+s) + (e+w) - g)/4`, masked, added back onto
/// the centre. Same fixed pairing order as the diagram's addition tree.
#[inline]
pub fn jacobi2d_update_tree(
    north: f64,
    south: f64,
    east: f64,
    west: f64,
    center: f64,
    g: f64,
    mask: f64,
) -> (f64, f64) {
    let s1 = north + south;
    let s2 = east + west;
    let s3 = s1 + s2;
    let t = s3 - g;
    let uj = t * (1.0 / 4.0);
    let d = uj - center;
    let dm = d * mask;
    let unew = center + dm;
    (unew, dm)
}

/// Ping-pong state of the host 2-D Jacobi iteration on padded arrays.
#[derive(Debug, Clone)]
pub struct Jacobi2dHostState {
    /// Grid extents.
    pub nx: usize,
    /// Grid extents.
    pub ny: usize,
    /// Current solution, stencil-padded (one row each end).
    pub u: PaddedField,
    /// Scratch for the next iterate, stencil-padded.
    pub u_next: PaddedField,
    /// Scaled right-hand side `-h^2 * f`, aligned-padded.
    pub g: PaddedField,
    /// Interior mask, aligned-padded.
    pub mask: PaddedField,
}

impl Jacobi2dHostState {
    /// Set up from unpadded problem data for `∇²u = -f` (the cavity's
    /// stream-function equation with `f = ω`): the pipeline computes
    /// `(sum - g)/4`, so store `g = -h²f`.
    pub fn new(u0: &Grid2, f: &Grid2) -> Self {
        let mut g_grid = f.clone();
        let h2 = f.h * f.h;
        for v in &mut g_grid.data {
            *v *= -h2;
        }
        let mask = u0.interior_mask();
        Jacobi2dHostState {
            nx: u0.nx,
            ny: u0.ny,
            u: PaddedField::stencil2d(u0),
            u_next: PaddedField::stencil2d(u0),
            g: PaddedField::aligned2d(&g_grid),
            mask: PaddedField::aligned2d(&mask),
        }
    }

    /// Current iterate as a grid.
    pub fn current(&self) -> Grid2 {
        self.u.to_grid2(self.nx, self.ny)
    }
}

/// One 2-D point-Jacobi sweep in exact NSC stream order. Returns the
/// residual measure the pipeline computes: `max |masked update|`.
pub fn jacobi2d_sweep_host(state: &mut Jacobi2dHostState) -> f64 {
    let h = state.nx; // one row
    let n = state.nx * state.ny;
    let u = &state.u.words;
    let g = &state.g.words;
    let mask = &state.mask.words;
    let out = &mut state.u_next.words;
    let mut res = 0.0f64;
    for q in 0..n {
        let north = u[q + 2 * h];
        let south = u[q];
        let east = u[q + h + 1];
        let west = u[q + h - 1];
        let center = u[q + h];
        let (unew, dm) =
            jacobi2d_update_tree(north, south, east, west, center, g[q + 2 * h], mask[q + 2 * h]);
        out[q + h] = unew;
        res = dm.abs().max(res);
    }
    std::mem::swap(&mut state.u, &mut state.u_next);
    res
}

/// The constants folded into the cavity's FTCS vorticity-transport
/// pipeline, computed in one place so the host mirror and the document
/// builder share the exact same values (a division folded differently
/// would shift the last ulp).
#[derive(Debug, Clone, Copy)]
pub struct FtcsCoeffs {
    /// Central-difference factor `1 / (2h)`.
    pub c1: f64,
    /// Diffusion factor `1 / (h² Re)`.
    pub c2: f64,
    /// Time step.
    pub dt: f64,
}

impl FtcsCoeffs {
    /// Coefficients for mesh spacing `h`, Reynolds number `re`, step `dt`.
    pub fn new(h: f64, re: f64, dt: f64) -> Self {
        FtcsCoeffs { c1: 1.0 / (2.0 * h), c2: 1.0 / (h * h * re), dt }
    }
}

/// One FTCS vorticity-transport update, as the
/// `build_ftcs_transport_document` pipeline computes it:
/// `ω' = ω + mask · dt · (∇²ω/Re − u ω_x − v ω_y)` with `u = ψ_y`,
/// `v = −ψ_x` by central differences, in the diagram's fixed operation
/// order.
#[inline]
#[allow(clippy::too_many_arguments)] // one argument per stencil stream, mirroring the diagram
pub fn ftcs_update_tree(
    psi_n: f64,
    psi_s: f64,
    psi_e: f64,
    psi_w: f64,
    w_n: f64,
    w_s: f64,
    w_e: f64,
    w_w: f64,
    w_c: f64,
    mask: f64,
    coeffs: &FtcsCoeffs,
) -> f64 {
    let u = (psi_n - psi_s) * coeffs.c1;
    let v = (psi_w - psi_e) * coeffs.c1;
    let wx = (w_e - w_w) * coeffs.c1;
    let wy = (w_n - w_s) * coeffs.c1;
    let s1 = w_e + w_w;
    let s2 = w_n + w_s;
    let s4 = s1 + s2;
    let m4 = w_c * 4.0;
    let ld = s4 - m4;
    let dif = ld * coeffs.c2;
    let a1 = u * wx;
    let a2 = v * wy;
    let adv = a1 + a2;
    let rhs = dif - adv;
    let upd = rhs * coeffs.dt;
    let um = upd * mask;
    w_c + um
}

/// Max-norm residual of `-∇²u - f` over interior points (the conventional
/// measure, for convergence comparisons across methods). Point for point
/// this is the shared `lap_at` kernel, so a decomposed residual check
/// that reduces per-block maxima reproduces the same value exactly (max
/// is order-independent).
pub fn residual_linf(u: &Grid3, f: &Grid3) -> f64 {
    let h2 = u.h * u.h;
    let mut r = 0.0f64;
    for k in 1..u.nz - 1 {
        for j in 1..u.ny - 1 {
            for i in 1..u.nx - 1 {
                let lap = crate::multigrid::lap_at(
                    u.at(i + 1, j, k),
                    u.at(i - 1, j, k),
                    u.at(i, j + 1, k),
                    u.at(i, j - 1, k),
                    u.at(i, j, k + 1),
                    u.at(i, j, k - 1),
                    u.at(i, j, k),
                    h2,
                );
                r = r.max((-lap - f.at(i, j, k)).abs());
            }
        }
    }
    r
}

/// One Gauss-Seidel/SOR sweep (relaxation factor `omega`); the baseline
/// iterative method the NSC example would be compared against. Returns
/// `max |update|`.
pub fn sor_sweep_host(u: &mut Grid3, f: &Grid3, omega: f64) -> f64 {
    sor_sweep_host_layers(u, f, omega, 0..u.nz)
}

/// [`sor_sweep_host`] restricted to a run of z-layers (clipped to the
/// grid interior) — the unit the overlapped sweep engine phases a block
/// relaxation by. Sweeping disjoint layer runs in ascending order is the
/// full sweep, update for update.
pub fn sor_sweep_host_layers(
    u: &mut Grid3,
    f: &Grid3,
    omega: f64,
    layers: std::ops::Range<usize>,
) -> f64 {
    let h2 = u.h * u.h;
    let mut res = 0.0f64;
    for k in layers.start.max(1)..layers.end.min(u.nz - 1) {
        for j in 1..u.ny - 1 {
            for i in 1..u.nx - 1 {
                let sum = u.at(i + 1, j, k)
                    + u.at(i - 1, j, k)
                    + u.at(i, j + 1, k)
                    + u.at(i, j - 1, k)
                    + u.at(i, j, k + 1)
                    + u.at(i, j, k - 1);
                let gs = (sum + h2 * f.at(i, j, k)) / 6.0;
                let old = u.at(i, j, k);
                let new = old + omega * (gs - old);
                *u.at_mut(i, j, k) = new;
                res = res.max((new - old).abs());
            }
        }
    }
    res
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::grid::manufactured_problem;

    #[test]
    fn jacobi_converges_on_the_manufactured_problem() {
        let (u0, f, exact) = manufactured_problem(10);
        let mut state = JacobiHostState::new(&u0, &f);
        let mut res = f64::INFINITY;
        for _ in 0..2000 {
            res = jacobi_sweep_host(&mut state);
            if res < 1e-10 {
                break;
            }
        }
        assert!(res < 1e-10, "did not converge: residual {res}");
        let u = state.current();
        // Discretization error on a 10^3 grid is O(h^2) ~ 1e-2.
        assert!(u.linf_diff(&exact) < 0.05, "error {}", u.linf_diff(&exact));
    }

    #[test]
    fn boundary_stays_fixed_under_jacobi() {
        let (mut u0, f, _) = manufactured_problem(8);
        // Nonzero boundary data to make the test meaningful.
        for k in 0..8 {
            for j in 0..8 {
                for i in 0..8 {
                    if u0.is_boundary(i, j, k) {
                        *u0.at_mut(i, j, k) = 7.0;
                    }
                }
            }
        }
        let mut state = JacobiHostState::new(&u0, &f);
        for _ in 0..5 {
            jacobi_sweep_host(&mut state);
        }
        let u = state.current();
        for k in 0..8 {
            for j in 0..8 {
                for i in 0..8 {
                    if u.is_boundary(i, j, k) {
                        assert_eq!(u.at(i, j, k), 7.0, "boundary moved at ({i},{j},{k})");
                    }
                }
            }
        }
    }

    #[test]
    fn residual_decreases_monotonically_early() {
        let (u0, f, _) = manufactured_problem(8);
        let mut state = JacobiHostState::new(&u0, &f);
        let r1 = jacobi_sweep_host(&mut state);
        let r5 = {
            let mut last = r1;
            for _ in 0..4 {
                last = jacobi_sweep_host(&mut state);
            }
            last
        };
        assert!(r5 < r1, "Jacobi update magnitude should shrink: {r1} -> {r5}");
    }

    #[test]
    fn sor_beats_jacobi_in_sweeps() {
        let (u0, f, _) = manufactured_problem(10);
        let tol = 1e-8;
        let mut state = JacobiHostState::new(&u0, &f);
        let mut jacobi_sweeps = 0;
        for _ in 0..20_000 {
            jacobi_sweeps += 1;
            if jacobi_sweep_host(&mut state) < tol {
                break;
            }
        }
        let mut u = u0.clone();
        let omega = 1.6; // a reasonable SOR factor for this grid
        let mut sor_sweeps = 0;
        for _ in 0..20_000 {
            sor_sweeps += 1;
            if sor_sweep_host(&mut u, &f, omega) < tol {
                break;
            }
        }
        assert!(
            sor_sweeps * 2 < jacobi_sweeps,
            "SOR({omega}) should need far fewer sweeps: {sor_sweeps} vs {jacobi_sweeps}"
        );
    }

    #[test]
    fn conventional_residual_agrees_with_solution_quality() {
        let (u0, f, _) = manufactured_problem(8);
        let r0 = residual_linf(&u0, &f);
        let mut state = JacobiHostState::new(&u0, &f);
        for _ in 0..500 {
            jacobi_sweep_host(&mut state);
        }
        let r_converged = residual_linf(&state.current(), &f);
        assert!(r_converged < r0 / 100.0, "{r0} -> {r_converged}");
    }

    #[test]
    fn jacobi2d_converges_on_a_manufactured_problem() {
        // -∇²u = f with u_exact = sin(πx) sin(πy), f = 2π² u_exact.
        let pi = std::f64::consts::PI;
        let n = 17;
        let u0 = Grid2::new(n, n);
        let mut f = Grid2::new(n, n);
        let mut exact = Grid2::new(n, n);
        for j in 0..n {
            for i in 0..n {
                let (x, y) = (i as f64 * f.h, j as f64 * f.h);
                let e = (pi * x).sin() * (pi * y).sin();
                *exact.at_mut(i, j) = e;
                *f.at_mut(i, j) = 2.0 * pi * pi * e;
            }
        }
        let mut state = Jacobi2dHostState::new(&u0, &f);
        let mut res = f64::INFINITY;
        for _ in 0..4000 {
            res = jacobi2d_sweep_host(&mut state);
            if res < 1e-11 {
                break;
            }
        }
        assert!(res < 1e-11, "did not converge: residual {res}");
        let u = state.current();
        assert!(u.linf_diff(&exact) < 0.01, "error {}", u.linf_diff(&exact));
        // Boundaries never move.
        for i in 0..n {
            assert_eq!(u.at(i, 0), 0.0);
            assert_eq!(u.at(i, n - 1), 0.0);
        }
    }

    #[test]
    fn update_tree_matches_a_naive_formula() {
        // Same values, different association order can differ in the last
        // ulp; the tree itself must match its own definition though.
        let (unew, dm) = jacobi_update_tree(1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 0.5, 0.25, 1.0);
        let s5 = ((1.0 + 2.0) + (3.0 + 4.0)) + (5.0 + 6.0);
        let uj = (s5 - 0.25) * (1.0 / 6.0);
        assert_eq!(dm, uj - 0.5);
        assert_eq!(unew, 0.5 + (uj - 0.5));
        // Masked points never move.
        let (unew0, dm0) = jacobi_update_tree(9.0, 9.0, 9.0, 9.0, 9.0, 9.0, 0.5, 0.25, 0.0);
        assert_eq!(unew0, 0.5);
        assert_eq!(dm0, 0.0);
    }
}
