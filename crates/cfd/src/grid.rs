//! Flat 3-D grids and the NSC padded memory layout.
//!
//! A grid point `(i, j, k)` lives at flat index `i + nx*(j + ny*k)`. The
//! NSC stencil streams an array once, linearly, and synthesizes the six
//! neighbour streams with shift/delay taps; for that to cover the `k ± 1`
//! neighbours the array is stored *padded*: one xy-plane of halo words
//! (`nx*ny` of them) before and after the data. Mask and right-hand-side
//! arrays use the same padded layout so their streams pair with the
//! stencil's centre tap (see `nsc-codegen`'s lag analysis).

use nsc_core::NscError;
use rand::Rng;

/// The shape check every solver entry point runs before it writes
/// anything: refuse a grid (named `what` in the error) whose `data`
/// length disagrees with its dimensions `dims`.
fn check_words(what: &str, dims: &[usize], words: usize) -> Result<(), NscError> {
    let want: usize = dims.iter().product();
    if words == want {
        return Ok(());
    }
    let dims: Vec<String> = dims.iter().map(ToString::to_string).collect();
    Err(NscError::Workload(format!(
        "the {what} is a {} grid but holds {words} words, not {want}",
        dims.join("x")
    )))
}

/// Refuse an iterate and right-hand side of different dimensions, a side
/// below the three points a stencil needs (no interior), or either grid's
/// `data` length disagreeing with its dimensions.
pub(crate) fn check_problem(u0: &Grid3, f: &Grid3) -> Result<(), NscError> {
    if (u0.nx, u0.ny, u0.nz) != (f.nx, f.ny, f.nz) {
        return Err(NscError::Workload(format!(
            "the iterate is {}x{}x{} but the right-hand side is {}x{}x{}",
            u0.nx, u0.ny, u0.nz, f.nx, f.ny, f.nz
        )));
    }
    if u0.nx.min(u0.ny).min(u0.nz) < 3 {
        return Err(NscError::Workload(format!(
            "the {}x{}x{} grid has no interior points: every side needs at least 3",
            u0.nx, u0.ny, u0.nz
        )));
    }
    check_words("iterate", &[u0.nx, u0.ny, u0.nz], u0.data.len())?;
    check_words("right-hand side", &[f.nx, f.ny, f.nz], f.data.len())
}

/// A 3-D scalar field on a uniform grid, unpadded.
#[derive(Debug, Clone, PartialEq)]
pub struct Grid3 {
    /// Points along x.
    pub nx: usize,
    /// Points along y.
    pub ny: usize,
    /// Points along z.
    pub nz: usize,
    /// Mesh spacing (uniform in all directions).
    pub h: f64,
    /// Values in x-fastest order; length `nx*ny*nz`.
    pub data: Vec<f64>,
}

impl Grid3 {
    /// A zero-initialized grid with spacing `h = 1/(nx-1)`.
    pub fn new(nx: usize, ny: usize, nz: usize) -> Self {
        assert!(nx >= 3 && ny >= 3 && nz >= 3, "grids need interior points");
        Grid3 { nx, ny, nz, h: 1.0 / (nx as f64 - 1.0), data: vec![0.0; nx * ny * nz] }
    }

    /// Total points.
    pub fn len(&self) -> usize {
        self.nx * self.ny * self.nz
    }

    /// Whether the grid is empty (it never is; for clippy symmetry).
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Flat index of `(i, j, k)`.
    #[inline]
    pub fn idx(&self, i: usize, j: usize, k: usize) -> usize {
        debug_assert!(i < self.nx && j < self.ny && k < self.nz);
        i + self.nx * (j + self.ny * k)
    }

    /// Value at `(i, j, k)`.
    #[inline]
    pub fn at(&self, i: usize, j: usize, k: usize) -> f64 {
        self.data[self.idx(i, j, k)]
    }

    /// Mutable value at `(i, j, k)`.
    #[inline]
    pub fn at_mut(&mut self, i: usize, j: usize, k: usize) -> &mut f64 {
        let idx = self.idx(i, j, k);
        &mut self.data[idx]
    }

    /// Whether `(i, j, k)` lies on the domain boundary.
    pub fn is_boundary(&self, i: usize, j: usize, k: usize) -> bool {
        i == 0 || j == 0 || k == 0 || i == self.nx - 1 || j == self.ny - 1 || k == self.nz - 1
    }

    /// Fill from a function of physical coordinates `(x, y, z) in [0,1]^3`.
    pub fn fill_with(&mut self, f: impl Fn(f64, f64, f64) -> f64) {
        let (nx, ny, nz, h) = (self.nx, self.ny, self.nz, self.h);
        for k in 0..nz {
            for j in 0..ny {
                for i in 0..nx {
                    self.data[i + nx * (j + ny * k)] = f(i as f64 * h, j as f64 * h, k as f64 * h);
                }
            }
        }
    }

    /// The interior mask: 1 inside, 0 on the boundary.
    pub fn interior_mask(&self) -> Grid3 {
        let mut m = Grid3::new(self.nx, self.ny, self.nz);
        for k in 0..self.nz {
            for j in 0..self.ny {
                for i in 0..self.nx {
                    *m.at_mut(i, j, k) = if self.is_boundary(i, j, k) { 0.0 } else { 1.0 };
                }
            }
        }
        m
    }

    /// Fill the interior with uniform random values (boundary untouched).
    pub fn randomize_interior(&mut self, rng: &mut impl Rng, lo: f64, hi: f64) {
        for k in 1..self.nz - 1 {
            for j in 1..self.ny - 1 {
                for i in 1..self.nx - 1 {
                    *self.at_mut(i, j, k) = rng.random_range(lo..hi);
                }
            }
        }
    }

    /// Max-norm of the difference against another grid.
    pub fn linf_diff(&self, other: &Grid3) -> f64 {
        self.data.iter().zip(&other.data).map(|(a, b)| (a - b).abs()).fold(0.0f64, f64::max)
    }
}

/// A 2-D scalar field on a uniform grid, unpadded — the plane problems
/// (lid-driven cavity vorticity/stream-function fields) live here.
#[derive(Debug, Clone, PartialEq)]
pub struct Grid2 {
    /// Points along x.
    pub nx: usize,
    /// Points along y.
    pub ny: usize,
    /// Mesh spacing (uniform in both directions).
    pub h: f64,
    /// Values in x-fastest order; length `nx*ny`.
    pub data: Vec<f64>,
}

impl Grid2 {
    /// A zero-initialized grid with spacing `h = 1/(nx-1)`.
    pub fn new(nx: usize, ny: usize) -> Self {
        assert!(nx >= 3 && ny >= 3, "grids need interior points");
        Grid2 { nx, ny, h: 1.0 / (nx as f64 - 1.0), data: vec![0.0; nx * ny] }
    }

    /// Total points.
    pub fn len(&self) -> usize {
        self.nx * self.ny
    }

    /// Whether the grid is empty (it never is; for clippy symmetry).
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Flat index of `(i, j)`.
    #[inline]
    pub fn idx(&self, i: usize, j: usize) -> usize {
        debug_assert!(i < self.nx && j < self.ny);
        i + self.nx * j
    }

    /// Value at `(i, j)`.
    #[inline]
    pub fn at(&self, i: usize, j: usize) -> f64 {
        self.data[self.idx(i, j)]
    }

    /// Mutable value at `(i, j)`.
    #[inline]
    pub fn at_mut(&mut self, i: usize, j: usize) -> &mut f64 {
        let idx = self.idx(i, j);
        &mut self.data[idx]
    }

    /// Whether `(i, j)` lies on the domain boundary.
    pub fn is_boundary(&self, i: usize, j: usize) -> bool {
        i == 0 || j == 0 || i == self.nx - 1 || j == self.ny - 1
    }

    /// The interior mask: 1 inside, 0 on the boundary.
    pub fn interior_mask(&self) -> Grid2 {
        let mut m = Grid2::new(self.nx, self.ny);
        m.h = self.h;
        for j in 0..self.ny {
            for i in 0..self.nx {
                *m.at_mut(i, j) = if self.is_boundary(i, j) { 0.0 } else { 1.0 };
            }
        }
        m
    }

    /// Refuse this grid (named `what` in the error) unless it is an
    /// `nx x ny` grid holding `nx·ny` words.
    pub(crate) fn check_shape(&self, what: &str, nx: usize, ny: usize) -> Result<(), NscError> {
        if (self.nx, self.ny) != (nx, ny) {
            return Err(NscError::Workload(format!(
                "the {what} is a {}x{} grid, not {nx}x{ny}",
                self.nx, self.ny
            )));
        }
        check_words(what, &[nx, ny], self.data.len())
    }

    /// Max-norm of the difference against another grid.
    pub fn linf_diff(&self, other: &Grid2) -> f64 {
        self.data.iter().zip(&other.data).map(|(a, b)| (a - b).abs()).fold(0.0f64, f64::max)
    }

    /// Max-norm of the field itself.
    pub fn linf(&self) -> f64 {
        self.data.iter().map(|v| v.abs()).fold(0.0f64, f64::max)
    }
}

/// A field in an NSC padded layout: zero pad words before and after the
/// grid data.
///
/// Two layouts are used by the Jacobi pipeline, both `2*nx*ny` words longer
/// than the grid (so every stream of one instruction has the same length):
///
/// * [`PaddedField::stencil`] — `nx*ny` halo words on *each* end; the
///   array streamed through the shift/delay units (`u`), whose taps reach
///   one xy-plane forward and back;
/// * [`PaddedField::aligned`] — `2*nx*ny` pad words *in front only*; arrays
///   read directly from planes (`mask`, scaled RHS) whose element `q` must
///   arrive when the stencil emits output point `q` (first valid output
///   appears after the deepest tap's `2*nx*ny`-element warm-up).
#[derive(Debug, Clone, PartialEq)]
pub struct PaddedField {
    /// Pad words before the grid data.
    pub front: usize,
    /// Pad words after the grid data.
    pub back: usize,
    /// Padded storage: `front + nx*ny*nz + back` words.
    pub words: Vec<f64>,
}

impl PaddedField {
    fn build(g: &Grid3, front: usize, back: usize) -> Self {
        let mut words = vec![0.0; front];
        words.extend_from_slice(&g.data);
        words.extend(std::iter::repeat_n(0.0, back));
        PaddedField { front, back, words }
    }

    /// The shift/delay layout: one xy-plane of halo on each end.
    pub fn stencil(g: &Grid3) -> Self {
        let h = g.nx * g.ny;
        Self::build(g, h, h)
    }

    /// The direct-stream layout: two xy-planes of pad in front.
    pub fn aligned(g: &Grid3) -> Self {
        let h = g.nx * g.ny;
        Self::build(g, 2 * h, 0)
    }

    fn build2(g: &Grid2, front: usize, back: usize) -> Self {
        let mut words = vec![0.0; front];
        words.extend_from_slice(&g.data);
        words.extend(std::iter::repeat_n(0.0, back));
        PaddedField { front, back, words }
    }

    /// The 2-D shift/delay layout: one row of halo on each end (rows play
    /// the role xy-planes play in 3-D).
    pub fn stencil2d(g: &Grid2) -> Self {
        Self::build2(g, g.nx, g.nx)
    }

    /// The 2-D direct-stream layout: two rows of pad in front.
    pub fn aligned2d(g: &Grid2) -> Self {
        Self::build2(g, 2 * g.nx, 0)
    }

    /// Extract the interior back into a 2-D grid shape.
    pub fn to_grid2(&self, nx: usize, ny: usize) -> Grid2 {
        assert_eq!(nx * ny, self.interior_len());
        let mut g = Grid2::new(nx, ny);
        let n = g.len();
        g.data.copy_from_slice(&self.words[self.front..self.front + n]);
        g
    }

    /// Total padded length (the NSC stream length for this field).
    pub fn padded_len(&self) -> usize {
        self.words.len()
    }

    /// Interior (unpadded) length.
    pub fn interior_len(&self) -> usize {
        self.words.len() - self.front - self.back
    }

    /// Extract the interior back into a grid shape.
    pub fn to_grid(&self, nx: usize, ny: usize, nz: usize) -> Grid3 {
        assert_eq!(nx * ny * nz, self.interior_len());
        let mut g = Grid3::new(nx, ny, nz);
        let n = g.len();
        g.data.copy_from_slice(&self.words[self.front..self.front + n]);
        g
    }
}

/// The manufactured Poisson problem used throughout the experiments:
/// `-∇²u = f` with `u_exact = sin(πx) sin(πy) sin(πz)` (zero on the
/// boundary) and `f = 3π² u_exact`.
pub fn manufactured_problem(n: usize) -> (Grid3, Grid3, Grid3) {
    let pi = std::f64::consts::PI;
    let mut exact = Grid3::new(n, n, n);
    exact.fill_with(|x, y, z| (pi * x).sin() * (pi * y).sin() * (pi * z).sin());
    let mut f = Grid3::new(n, n, n);
    f.fill_with(|x, y, z| 3.0 * pi * pi * (pi * x).sin() * (pi * y).sin() * (pi * z).sin());
    let u0 = Grid3::new(n, n, n); // zero initial guess, zero Dirichlet data
    (u0, f, exact)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn indexing_is_x_fastest() {
        let g = Grid3::new(4, 5, 6);
        assert_eq!(g.idx(0, 0, 0), 0);
        assert_eq!(g.idx(1, 0, 0), 1);
        assert_eq!(g.idx(0, 1, 0), 4);
        assert_eq!(g.idx(0, 0, 1), 20);
        assert_eq!(g.len(), 120);
    }

    #[test]
    fn boundary_detection() {
        let g = Grid3::new(4, 4, 4);
        assert!(g.is_boundary(0, 2, 2));
        assert!(g.is_boundary(3, 2, 2));
        assert!(g.is_boundary(2, 0, 2));
        assert!(g.is_boundary(2, 2, 3));
        assert!(!g.is_boundary(1, 2, 2));
    }

    #[test]
    fn mask_counts_interior_points() {
        let g = Grid3::new(5, 5, 5);
        let m = g.interior_mask();
        let ones = m.data.iter().filter(|&&v| v == 1.0).count();
        assert_eq!(ones, 3 * 3 * 3);
        let zeros = m.data.iter().filter(|&&v| v == 0.0).count();
        assert_eq!(zeros, 125 - 27);
    }

    #[test]
    fn stencil_padding_round_trip() {
        let mut g = Grid3::new(4, 4, 4);
        g.fill_with(|x, y, z| x + 2.0 * y + 4.0 * z);
        let p = PaddedField::stencil(&g);
        assert_eq!((p.front, p.back), (16, 16));
        assert_eq!(p.padded_len(), 64 + 32);
        assert!(p.words[..16].iter().all(|&v| v == 0.0), "front halo is zero");
        assert!(p.words[80..].iter().all(|&v| v == 0.0), "back halo is zero");
        assert_eq!(p.to_grid(4, 4, 4), g);
    }

    #[test]
    fn aligned_padding_round_trip() {
        let mut g = Grid3::new(4, 4, 4);
        g.fill_with(|x, y, z| x * y * z + 1.0);
        let p = PaddedField::aligned(&g);
        assert_eq!((p.front, p.back), (32, 0));
        assert_eq!(p.padded_len(), PaddedField::stencil(&g).padded_len(), "same stream length");
        assert!(p.words[..32].iter().all(|&v| v == 0.0));
        assert_eq!(p.to_grid(4, 4, 4), g);
    }

    #[test]
    fn grid2_indexing_and_padding_round_trip() {
        let mut g = Grid2::new(4, 5);
        for j in 0..5 {
            for i in 0..4 {
                *g.at_mut(i, j) = (i + 10 * j) as f64;
            }
        }
        assert_eq!(g.idx(1, 0), 1);
        assert_eq!(g.idx(0, 1), 4);
        assert!(g.is_boundary(0, 2) && g.is_boundary(2, 4) && !g.is_boundary(2, 2));
        assert_eq!(g.interior_mask().data.iter().filter(|&&v| v == 1.0).count(), 2 * 3);

        let p = PaddedField::stencil2d(&g);
        assert_eq!((p.front, p.back), (4, 4));
        assert_eq!(p.padded_len(), 20 + 8);
        assert_eq!(p.to_grid2(4, 5), g);
        let a = PaddedField::aligned2d(&g);
        assert_eq!((a.front, a.back), (8, 0));
        assert_eq!(a.padded_len(), p.padded_len(), "same stream length");
        assert_eq!(a.to_grid2(4, 5), g);
    }

    #[test]
    fn manufactured_solution_vanishes_on_boundary() {
        let (_, _, exact) = manufactured_problem(8);
        for k in 0..8 {
            for j in 0..8 {
                for i in 0..8 {
                    if exact.is_boundary(i, j, k) {
                        assert!(exact.at(i, j, k).abs() < 1e-12);
                    }
                }
            }
        }
        // And is nontrivial inside.
        assert!(exact.at(4, 4, 4).abs() > 0.5);
    }

    #[test]
    fn fill_uses_physical_coordinates() {
        let mut g = Grid3::new(5, 5, 5);
        g.fill_with(|x, _, _| x);
        assert_eq!(g.at(0, 2, 2), 0.0);
        assert_eq!(g.at(4, 2, 2), 1.0);
        assert!((g.at(2, 0, 0) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn linf_diff() {
        let mut a = Grid3::new(3, 3, 3);
        let b = Grid3::new(3, 3, 3);
        *a.at_mut(1, 1, 1) = 0.25;
        assert_eq!(a.linf_diff(&b), 0.25);
    }
}
