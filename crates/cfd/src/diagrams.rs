//! Builders for the paper's pipeline diagrams.
//!
//! [`build_jacobi_document`] constructs, through the public diagram API,
//! exactly the program of paper Figures 2 and 11: a point-Jacobi update of
//! the 3-D Poisson equation with a residual convergence check. The
//! structure follows the hand-drawn Figure 2: the solution array streams
//! out of a memory plane, shift/delay units fan it into the six stencil
//! neighbour streams plus the centre, a tree of adders forms the neighbour
//! sum, the scaled right-hand side is subtracted, the result is scaled by
//! 1/6, masked against the interior mask (so boundary points hold), added
//! back onto the centre stream, and stored to the ping-pong plane — while
//! a min/max unit with register-file feedback reduces `max |update|` into
//! a data cache for the sequencer's convergence test.
//!
//! The sweeps and the cavity's FTCS step are stencil descriptions: each
//! names the offsets it reads and the operations it applies, and
//! [`PipelineBuilder`] places the units, programs the shift/delay taps
//! and aligns every stream to the output window.
//!
//! Variants (experiments T4/T5):
//!
//! * [`JacobiVariant::Full`] — the full machine, as in the paper;
//! * [`JacobiVariant::SingletsOnly`] — every ALS restricted to one active
//!   unit (§6's "simpler architectural model");
//! * [`JacobiVariant::NoSdu`] — no shift/delay units: the six neighbour
//!   streams come from six extra *copies* of the array in other planes
//!   (§3: "it may be necessary to maintain multiple copies of arrays"),
//!   refreshed by broadcast-copy instructions each sweep.
//!
//! [`build_chebyshev_document`] builds a compute-bound Horner-evaluation
//! kernel used by the subset ablation where functional-unit count, not
//! memory bandwidth, is the binding resource.

#![deny(clippy::cast_possible_truncation)]

use crate::host::FtcsCoeffs;
use crate::partition::{Part, SweepWindow};
use nsc_arch::{AlsKind, CacheId, FuOp, InPort, KnowledgeBase, MachineConfig, PlaneId};
use nsc_core::NscError;
use nsc_diagram::{
    ControlNode, ConvergenceCond, DiagramError, DmaAttrs, Document, FuAssign, IconId, IconKind,
    OutputWindow, PadLoc, PadRef, PipelineBuilder, PipelineDiagram, PipelineId, Placement, Stream,
    Units, VarDecl,
};

/// Memory-plane roles of the Jacobi program.
pub const PLANE_U0: PlaneId = PlaneId(0);
/// Interior mask plane.
pub const PLANE_MASK: PlaneId = PlaneId(1);
/// Scaled right-hand side plane.
pub const PLANE_G: PlaneId = PlaneId(2);
/// Ping-pong partner of [`PLANE_U0`].
pub const PLANE_U1: PlaneId = PlaneId(3);
/// First of the six copy planes used by the no-SDU variant.
pub const PLANE_COPY0: u8 = 4;
/// Cache and offset where the residual scalar lands.
pub const RESIDUAL_CACHE: CacheId = CacheId(0);

/// Which machine restriction the diagram targets.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JacobiVariant {
    /// Full NSC (paper Figures 2/11).
    Full,
    /// One active unit per ALS.
    SingletsOnly,
    /// No shift/delay units; neighbour streams from array copies.
    NoSdu,
}

/// Geometry shared by builders and loaders.
#[derive(Debug, Clone, Copy)]
pub struct JacobiGeometry {
    /// Grid points along x (the fastest axis; sets the north/south tap).
    pub nx: usize,
    /// Grid points along y.
    pub ny: usize,
    /// Grid points along z (the slowest axis — the one a 1-D strip
    /// decomposition splits).
    pub nz: usize,
    /// One xy-plane (`nx*ny`).
    pub plane: usize,
    /// Grid points (`nx*ny*nz`).
    pub points: usize,
    /// Padded stream length (`points + 2*plane`).
    pub padded: usize,
}

impl JacobiGeometry {
    /// Geometry for an `n^3` grid.
    pub fn cube(n: usize) -> Self {
        Self::slab(n, n, n)
    }

    /// Geometry for an `nx * ny * nz` slab — the shape a node owns under a
    /// 1-D strip decomposition along z (its planes plus one ghost plane on
    /// each interior side).
    pub fn slab(nx: usize, ny: usize, nz: usize) -> Self {
        let plane = nx * ny;
        let points = plane * nz;
        JacobiGeometry { nx, ny, nz, plane, points, padded: points + 2 * plane }
    }
}

/// Refuse a grid whose sweeps the machine's shift/delay units cannot
/// serve: the deepest tap of every stencil document runs two layers (a
/// 3-D plane, a 2-D row) behind its stream, and a delay must stay inside
/// the SDU buffer. `layers` are the local layer sizes in words of the
/// parts to be swept; `what` names the layer. Callers refuse before any
/// plane is written.
pub(crate) fn check_tap_reach(
    kb: &KnowledgeBase,
    layers: impl IntoIterator<Item = usize>,
    what: &str,
) -> Result<(), NscError> {
    let buffer = u64::from(kb.config().sdu.buffer_words);
    for layer in layers {
        let delay = (layer as u64).saturating_mul(2);
        if delay >= buffer {
            return Err(NscError::Workload(format!(
                "a {layer}-word {what} puts the deepest shift/delay tap {delay} words back; \
                 the SDU buffer holds {buffer} words"
            )));
        }
    }
    Ok(())
}

/// Words in one xy-plane of a part's slab: the layer a 3-D sweep
/// streams.
pub(crate) fn plane_words(part: &Part) -> usize {
    let (nx, ny, _) = part.local_shape();
    nx * ny
}

/// Words in one row of a part's slab: the layer a 2-D sweep streams.
pub(crate) fn row_words(part: &Part) -> usize {
    part.local_shape().0
}

/// The builder's result, or a panic naming the layer a stencil document
/// could not be built for.
fn swept<T>(built: Result<T, DiagramError>, layer: usize, what: &str) -> T {
    built.unwrap_or_else(|e| panic!("a {layer}-word {what} cannot be swept: {e}"))
}

/// `words` of a grid as a stream offset.
fn offset(words: usize) -> i64 {
    i64::try_from(words).expect("a grid layer fits a signed offset")
}

/// Declare each `(name, plane)` variable, `len` words from the plane's
/// start.
fn declare(doc: &mut Document, vars: &[(&str, PlaneId)], len: usize) {
    for &(name, plane) in vars {
        doc.decls.declare(VarDecl { name: name.into(), plane, base: 0, len: len as u64 });
    }
}

/// Declare the Jacobi working set (the Figure 5 left region).
fn declare_jacobi_vars(doc: &mut Document, len: usize, variant: JacobiVariant) {
    declare(doc, &[("u0", PLANE_U0), ("mask", PLANE_MASK), ("g", PLANE_G), ("u1", PLANE_U1)], len);
    if variant == JacobiVariant::NoSdu {
        for i in 0..6u8 {
            declare(doc, &[(&format!("ucopy{i}"), PlaneId(PLANE_COPY0 + i))], len);
        }
    }
}

/// Build the complete Jacobi document for an `n^3` grid.
///
/// `tol` and `max_iters` program the convergence loop; the loop body is a
/// ping-pong pair of sweeps (u0 -> u1 then u1 -> u0), so iterations are
/// counted in pairs.
///
/// # Panics
///
/// If a plane of `n²` words puts the deepest shift/delay tap (two planes
/// back) past the 16-bit tap field.
pub fn build_jacobi_document(
    n: usize,
    tol: f64,
    max_iters: u32,
    variant: JacobiVariant,
) -> Document {
    let geo = JacobiGeometry::cube(n);
    let mut doc = Document::new(format!("jacobi3d-{}x{}x{}", geo.nx, geo.ny, geo.nz));
    declare_jacobi_vars(&mut doc, geo.padded, variant);

    let whole = SweepWindow::whole(geo.nz);
    let sweep = |doc: &mut Document, tag: &str, src: &str, dst: &str| {
        let name = format!("point Jacobi sweep ({tag})");
        swept(build_sweep(doc, &name, src, dst, geo, variant, None, whole), geo.plane, "plane")
    };
    let sweep_a = sweep(&mut doc, "even", "u0", "u1");
    let sweep_b = sweep(&mut doc, "odd", "u1", "u0");

    let body = match variant {
        JacobiVariant::NoSdu => {
            // After each sweep, re-broadcast the new iterate into the six
            // copy planes (two instructions: fan-out is capped at four).
            let copy_a1 = build_broadcast(&mut doc, "broadcast u1 (1/2)", "u1", 0, 4, geo);
            let copy_a2 = build_broadcast(&mut doc, "broadcast u1 (2/2)", "u1", 4, 2, geo);
            let copy_b1 = build_broadcast(&mut doc, "broadcast u0 (1/2)", "u0", 0, 4, geo);
            let copy_b2 = build_broadcast(&mut doc, "broadcast u0 (2/2)", "u0", 4, 2, geo);
            ControlNode::Seq(vec![
                ControlNode::Pipeline(sweep_a),
                ControlNode::Pipeline(copy_a1),
                ControlNode::Pipeline(copy_a2),
                ControlNode::Pipeline(sweep_b),
                ControlNode::Pipeline(copy_b1),
                ControlNode::Pipeline(copy_b2),
            ])
        }
        _ => ControlNode::Seq(vec![ControlNode::Pipeline(sweep_a), ControlNode::Pipeline(sweep_b)]),
    };
    doc.control = Some(ControlNode::RepeatUntil {
        cond: ConvergenceCond { cache: RESIDUAL_CACHE, offset: 0, threshold: tol, max_iters },
        body: Box::new(body),
    });
    doc
}

/// Build a *single* Jacobi sweep as its own document: `u0 -> u1` when
/// `even`, `u1 -> u0` otherwise, with no convergence loop. This is the
/// unit of work of the distributed solver, which must interleave halo
/// exchanges between sweeps — the convergence decision moves up to the
/// system level (a global max-reduction of the per-node residuals).
///
/// The sweep covers the output *windows* given: one pipeline instruction
/// per window, each streaming only the xy-planes its layers need and
/// landing its own `max |masked update|` in the window's cache slot.
/// `&[SweepWindow::whole(geo.nz)]` is the fused whole-slab sweep. With
/// disjoint windows covering a slab's owned layers, the windowed document
/// is **bit-identical** on those points to the fused sweep (same
/// operation tree over the same inputs), and the maximum of the window
/// residuals equals the fused residual — the split the overlapped sweep
/// engine runs as interior and boundary-shell phases.
///
/// # Panics
///
/// If `windows` is empty or a window is empty or reaches past the slab,
/// or if a plane of `geo.plane` words puts the deepest shift/delay tap
/// (two planes back) past the 16-bit tap field.
pub fn build_jacobi_sweep_document_windows(
    geo: JacobiGeometry,
    even: bool,
    windows: &[SweepWindow],
) -> Document {
    build_sweep_windows_doc(geo, even, None, windows)
}

/// Build a single *damped* Jacobi sweep as its own document: the plain
/// sweep's update is scaled by `omega` before the mask, so the stored
/// iterate is `u + omega * (jacobi(u) - u)` — the smoothing kernel of the
/// ref. \[6\] multigrid V-cycle, as one extra multiply unit. `u0 -> u1`
/// when `even`, `u1 -> u0` otherwise; the residual reduction still lands
/// `max |omega-scaled masked update|` in the cache (the distributed
/// V-cycle ignores it). See [`build_jacobi_sweep_document_windows`] for
/// the windowing contract.
///
/// # Panics
///
/// As [`build_jacobi_sweep_document_windows`].
pub fn build_damped_jacobi_sweep_document_windows(
    geo: JacobiGeometry,
    even: bool,
    omega: f64,
    windows: &[SweepWindow],
) -> Document {
    build_sweep_windows_doc(geo, even, Some(omega), windows)
}

/// Shared body of the windowed single-sweep builders.
fn build_sweep_windows_doc(
    geo: JacobiGeometry,
    even: bool,
    omega: Option<f64>,
    windows: &[SweepWindow],
) -> Document {
    let (src, dst, tag) = if even { ("u0", "u1", "even") } else { ("u1", "u0", "odd") };
    let (kind, what) =
        if omega.is_some() { ("smooth", "damped Jacobi") } else { ("sweep", "point Jacobi") };
    let mut doc = Document::new(format!("jacobi3d-{kind}-{tag}-{}x{}x{}", geo.nx, geo.ny, geo.nz));
    declare_jacobi_vars(&mut doc, geo.padded, JacobiVariant::Full);
    let built = sweep_document(doc, (what, tag), (geo.nz, "planes"), windows, |doc, name, w| {
        build_sweep(doc, name, src, dst, geo, JacobiVariant::Full, omega, w)
    });
    swept(built, geo.plane, "plane")
}

/// One `"{what} sweep"` pipeline per window, run in window order and
/// named by `tag` and the window's run of `unit`s unless it spans all
/// `layers`.
fn sweep_document(
    mut doc: Document,
    (what, tag): (&str, &str),
    (layers, unit): (usize, &str),
    windows: &[SweepWindow],
    mut sweep: impl FnMut(&mut Document, &str, SweepWindow) -> Result<PipelineId, DiagramError>,
) -> Result<Document, DiagramError> {
    assert!(!windows.is_empty(), "a sweep document needs at least one window");
    let pids = windows
        .iter()
        .map(|&w| {
            let name = if w.len == layers {
                format!("{what} sweep ({tag})")
            } else {
                format!("{what} sweep ({tag}, {unit} {}..{})", w.start, w.start + w.len)
            };
            sweep(&mut doc, &name, w)
        })
        .collect::<Result<Vec<_>, _>>()?;
    doc.control = Some(match pids[..] {
        [pid] => ControlNode::Pipeline(pid),
        _ => ControlNode::Seq(pids.into_iter().map(ControlNode::Pipeline).collect()),
    });
    Ok(doc)
}

/// Geometry of a 2-D five-point Jacobi sweep: rows play the role planes
/// play in 3-D (the pad and the halo unit is one row of `nx` words).
#[derive(Debug, Clone, Copy)]
pub struct Jacobi2dGeometry {
    /// Grid points along x (the fast axis).
    pub nx: usize,
    /// Grid points along y (the axis a strip decomposition splits).
    pub ny: usize,
    /// One row (`nx`).
    pub row: usize,
    /// Grid points (`nx*ny`).
    pub points: usize,
    /// Padded stream length (`points + 2*nx`).
    pub padded: usize,
}

impl Jacobi2dGeometry {
    /// Geometry for an `nx * ny` grid (or the row-slab a node owns).
    pub fn new(nx: usize, ny: usize) -> Self {
        Jacobi2dGeometry { nx, ny, row: nx, points: nx * ny, padded: nx * ny + 2 * nx }
    }
}

/// Build a single 2-D five-point Jacobi sweep document: the plane-Poisson
/// update `u' = (sum(4 neighbours) - g)/4` with masked boundaries and the
/// same feedback `max |update|` residual reduction as the 3-D pipeline.
/// `u0 -> u1` when `even`, `u1 -> u0` otherwise. This is the
/// stream-function solve of the lid-driven cavity (Matyka,
/// physics/0407002), built for the full machine only. The windows are
/// runs of *rows* here, since rows play the role xy-planes play in 3-D
/// (`&[SweepWindow::whole(geo.ny)]` is the fused sweep); see
/// [`build_jacobi_sweep_document_windows`] for the windowing contract.
///
/// # Panics
///
/// If `windows` is empty or a window is empty or reaches past the slab,
/// or if a row of `geo.row` words puts the deepest shift/delay tap (two
/// rows back) past the 16-bit tap field.
pub fn build_jacobi2d_sweep_document_windows(
    geo: Jacobi2dGeometry,
    even: bool,
    windows: &[SweepWindow],
) -> Document {
    let (src, dst, tag) = if even { ("u0", "u1", "even") } else { ("u1", "u0", "odd") };
    let mut doc = Document::new(format!("jacobi2d-sweep-{tag}-{}x{}", geo.nx, geo.ny));
    declare_jacobi_vars(&mut doc, geo.padded, JacobiVariant::Full);
    let built =
        sweep_document(doc, ("2-D Jacobi", tag), (geo.ny, "rows"), windows, |doc, name, w| {
            assert!(
                w.len > 0 && w.start + w.len <= geo.ny,
                "window {w:?} is empty or exceeds the slab"
            );
            let h = geo.row as u64;
            let (pid, mut b) = open(doc, name, Placement::Packed, w, h, h);
            let hi = offset(geo.row);
            let [north, east, west, south, centre] = b.read(src, h, [hi, 1, -1, -hi, 0])?;
            let ns = b.binary(FuOp::Add, north, south)?;
            let ew = b.binary(FuOp::Add, east, west)?;
            let sum = b.binary(FuOp::Add, ns, ew)?;
            jacobi_update(&mut b, sum, centre, 1.0 / 4.0, None, dst, h)?;
            Ok(pid)
        });
    swept(built, geo.row, "row")
}

/// Open pipeline `name` over the layers of `window`, `layer` words each,
/// reading through taps that reach `lead` words either way.
fn open<'d>(
    doc: &'d mut Document,
    name: &str,
    placement: Placement,
    window: SweepWindow,
    layer: u64,
    lead: u64,
) -> (PipelineId, PipelineBuilder<'d>) {
    let pid = doc.add_pipeline(name);
    let d = doc.pipeline_mut(pid).expect("the pipeline was just added");
    let (first, len) = (window.start as u64 * layer, window.len as u64 * layer);
    (pid, PipelineBuilder::new(d, placement, OutputWindow { first, len, lead, slot: window.slot }))
}

/// The masked update both Jacobi sweeps end in (paper Equation 1):
/// `(sum − g)·scale − u`, scaled by ω when `damping`, masked, added back
/// onto the centre `u` and stored to `dst`, with `max |masked update|`
/// folded into the window's cache slot. `g` and the mask are stored
/// aligned, two layers of pad in front.
fn jacobi_update(
    b: &mut PipelineBuilder,
    sum: Stream,
    centre: Stream,
    scale: f64,
    damping: Option<f64>,
    dst: &str,
    layer: u64,
) -> Result<(), DiagramError> {
    let [g] = b.read("g", 2 * layer, [0])?;
    let rhs = b.binary(FuOp::Sub, sum, g)?;
    let jacobi = b.constant(FuOp::Mul, rhs, scale)?;
    let mut update = b.binary(FuOp::Sub, jacobi, centre)?;
    if let Some(omega) = damping {
        update = b.constant(FuOp::Mul, update, omega)?;
    }
    let [mask] = b.read("mask", 2 * layer, [0])?;
    let masked = b.binary(FuOp::Mul, update, mask)?;
    let next = b.binary(FuOp::Add, centre, masked)?;
    let residual = b.fold(FuOp::MaxAbs, masked, 0.0)?;
    b.store(dst, layer, next)?;
    b.capture(residual)
}

/// One seven-point sweep pipeline reading `src` and writing `dst` over
/// the planes of `window`; the stencil layout keeps one plane of pad in
/// front. `damping` scales the update by `omega` before the mask (the
/// multigrid smoother; full variant only). The no-SDU variant streams
/// whole slabs only and reads each neighbour from its own copy plane
/// with lead 0 (§3: "multiple copies of arrays").
#[allow(clippy::too_many_arguments)] // one knob per paper experiment axis
fn build_sweep(
    doc: &mut Document,
    name: &str,
    src: &str,
    dst: &str,
    geo: JacobiGeometry,
    variant: JacobiVariant,
    damping: Option<f64>,
    window: SweepWindow,
) -> Result<PipelineId, DiagramError> {
    assert!(
        damping.is_none() || variant == JacobiVariant::Full,
        "the damped smoother is built for the full machine only"
    );
    assert!(
        window.len > 0 && window.start + window.len <= geo.nz,
        "window {window:?} is empty or exceeds the slab"
    );
    let no_sdu = variant == JacobiVariant::NoSdu;
    assert!(!no_sdu || window.len == geo.nz, "the no-SDU variant streams whole slabs only");
    let placement = match variant {
        JacobiVariant::SingletsOnly => Placement::OnePerAls,
        _ => Placement::Packed,
    };
    let h = geo.plane as u64;
    let (pid, mut b) = open(doc, name, placement, window, h, if no_sdu { 0 } else { h });
    let (hi, nx) = (offset(geo.plane), offset(geo.nx));
    // Up, north, east, west, south, down and centre: in this order the
    // taps fill the two shift/delay units as Figure 2 draws them.
    let offsets = [hi, nx, 1, -1, -nx, -hi, 0];
    let [up, north, east, west, south, down, centre] = if no_sdu {
        // Each neighbour streams from its own copy plane (all six hold the
        // source), the centre from the source itself.
        let vars = ["ucopy0", "ucopy2", "ucopy4", "ucopy5", "ucopy3", "ucopy1", src];
        let mut read = |i: usize| b.read(vars[i], h, [offsets[i]]).map(|[s]| s);
        [read(0)?, read(1)?, read(2)?, read(3)?, read(4)?, read(5)?, read(6)?]
    } else {
        b.read(src, h, offsets)?
    };
    let ud = b.binary(FuOp::Add, up, down)?;
    let ns = b.binary(FuOp::Add, north, south)?;
    let ew = b.binary(FuOp::Add, east, west)?;
    let s4 = b.binary(FuOp::Add, ud, ns)?;
    let sum = b.binary(FuOp::Add, s4, ew)?;
    jacobi_update(&mut b, sum, centre, 1.0 / 6.0, damping, dst, h)?;
    Ok(pid)
}

/// Vorticity plane of the cavity's FTCS transport step (stencil layout,
/// streamed through a shift/delay unit).
pub const PLANE_W0: PlaneId = PlaneId(4);
/// Second copy of the vorticity (aligned layout) feeding the centre
/// stream directly — each plane has one read port, so the SDU stream and
/// the centre stream cannot share one plane (§3's "multiple copies of
/// arrays").
pub const PLANE_WC: PlaneId = PlaneId(5);
/// Output plane of the FTCS transport step.
pub const PLANE_W1: PlaneId = PlaneId(6);

/// Build the cavity's vorticity-transport pipeline: one FTCS step of
/// `ω_t + u ω_x + v ω_y = ∇²ω / Re` with `u = ψ_y`, `v = -ψ_x` by central
/// differences — 21 units fed by two shift/delay units (five-point ψ and
/// ω stencils) plus a direct ω-centre stream, masked so walls and ghost
/// cells hold. Reads ψ from [`PLANE_U0`] (stencil layout), ω from
/// [`PLANE_W0`] (stencil) and [`PLANE_WC`] (aligned copy), the interior
/// mask from [`PLANE_MASK`]; writes the advanced vorticity to
/// [`PLANE_W1`]. `coeffs` folds `h`, `Re` and `dt` into the three
/// multiply constants ([`FtcsCoeffs`] keeps the host mirror
/// bit-compatible).
///
/// # Panics
///
/// If a row of `geo.row` words puts the deepest shift/delay tap (two rows
/// back) past the 16-bit tap field.
pub fn build_ftcs_transport_document(geo: Jacobi2dGeometry, coeffs: FtcsCoeffs) -> Document {
    let mut doc = Document::new(format!("cavity-ftcs-{}x{}", geo.nx, geo.ny));
    let vars = [
        ("psi", PLANE_U0),
        ("mask", PLANE_MASK),
        ("w0", PLANE_W0),
        ("wc", PLANE_WC),
        ("w1", PLANE_W1),
    ];
    declare(&mut doc, &vars, geo.padded);
    let pid = swept(ftcs_step(&mut doc, geo, coeffs), geo.row, "row");
    doc.control = Some(ControlNode::Pipeline(pid));
    doc
}

/// The FTCS step's pipeline: the operation tree
/// [`ftcs_update_tree`](crate::host::ftcs_update_tree) mirrors on the host.
fn ftcs_step(
    doc: &mut Document,
    geo: Jacobi2dGeometry,
    c: FtcsCoeffs,
) -> Result<PipelineId, DiagramError> {
    let h = geo.row as u64;
    let whole = SweepWindow::whole(geo.ny);
    let (pid, mut b) = open(doc, "vorticity FTCS step", Placement::Packed, whole, h, h);
    let hi = offset(geo.row);
    // North, south, east and west of ψ and of ω, one shift/delay unit
    // each; the ω centre streams from its aligned copy.
    let [pn, ps, pe, pw] = b.read("psi", h, [hi, -hi, 1, -1])?;
    let [wn, ws, we, ww] = b.read("w0", h, [hi, -hi, 1, -1])?;
    let [wc] = b.read("wc", 2 * h, [0])?;
    let [mask] = b.read("mask", 2 * h, [0])?;
    let psi_y = b.binary(FuOp::Sub, pn, ps)?;
    let u = b.constant(FuOp::Mul, psi_y, c.c1)?;
    let psi_x = b.binary(FuOp::Sub, pw, pe)?;
    let v = b.constant(FuOp::Mul, psi_x, c.c1)?;
    let dwx = b.binary(FuOp::Sub, we, ww)?;
    let w_x = b.constant(FuOp::Mul, dwx, c.c1)?;
    let dwy = b.binary(FuOp::Sub, wn, ws)?;
    let w_y = b.constant(FuOp::Mul, dwy, c.c1)?;
    let ew = b.binary(FuOp::Add, we, ww)?;
    let ns = b.binary(FuOp::Add, wn, ws)?;
    let sum = b.binary(FuOp::Add, ew, ns)?;
    let centre4 = b.constant(FuOp::Mul, wc, 4.0)?;
    let laplacian = b.binary(FuOp::Sub, sum, centre4)?;
    let diffusion = b.constant(FuOp::Mul, laplacian, c.c2)?;
    let a1 = b.binary(FuOp::Mul, u, w_x)?;
    let a2 = b.binary(FuOp::Mul, v, w_y)?;
    let advection = b.binary(FuOp::Add, a1, a2)?;
    let rhs = b.binary(FuOp::Sub, diffusion, advection)?;
    let step = b.constant(FuOp::Mul, rhs, c.dt)?;
    let masked = b.binary(FuOp::Mul, step, mask)?;
    let next = b.binary(FuOp::Add, wc, masked)?;
    b.store("w1", h, next)?;
    Ok(pid)
}

/// A broadcast-copy pipeline: one plane fanned out to `n_dst` copy planes
/// starting at copy slot `first_dst` (no-SDU variant only).
fn build_broadcast(
    doc: &mut Document,
    name: &str,
    src: &str,
    first_dst: u8,
    n_dst: u8,
    geo: JacobiGeometry,
) -> nsc_diagram::PipelineId {
    let pid = doc.add_pipeline(name);
    let d = doc.pipeline_mut(pid).unwrap();
    d.stream_len = geo.padded as u64;
    let mem_src = d.add_icon(IconKind::memory());
    // n_dst copy units across ceil(n_dst/2) doublets.
    let mut units: Vec<(IconId, u8)> = Vec::new();
    for _ in 0..n_dst.div_ceil(2) {
        let icon = d.add_icon(IconKind::als(AlsKind::Doublet));
        units.push((icon, 0));
        units.push((icon, 1));
    }
    units.truncate(n_dst.into());
    for (copy, &(icon, pos)) in (first_dst..).zip(&units) {
        d.assign_fu(icon, pos, FuAssign::unary(FuOp::Copy)).unwrap();
        d.connect(
            PadLoc::new(mem_src, PadRef::Io),
            PadLoc::new(icon, PadRef::FuIn { pos, port: InPort::A }),
            Some(DmaAttrs::variable(src)),
        )
        .unwrap();
        let m = d.add_icon(IconKind::memory());
        d.connect(
            PadLoc::new(icon, PadRef::FuOut { pos }),
            PadLoc::new(m, PadRef::Io),
            Some(DmaAttrs::variable(format!("ucopy{copy}"))),
        )
        .unwrap();
    }
    pid
}

/// A compute-bound kernel for the subset ablation: Horner evaluation of
/// the degree-`coeffs.len()-1` polynomial `y = Σ coeffs[i]·x^i` over a
/// `count`-element stream, split into instructions of at most
/// `stages_per_instr` Horner stages (the full machine fits them all in
/// one; a singlets-only machine cannot).
///
/// Plane 0 holds x; plane 1 receives y; plane 2 stages intermediates.
pub fn build_chebyshev_document(count: u64, coeffs: &[f64], stages_per_instr: usize) -> Document {
    assert!(coeffs.len() >= 2, "need at least a linear polynomial");
    assert!(stages_per_instr >= 1);
    let mut doc = Document::new(format!("horner-deg{}", coeffs.len() - 1));
    doc.decls.declare(VarDecl { name: "x".into(), plane: PlaneId(0), base: 0, len: count });
    doc.decls.declare(VarDecl { name: "y".into(), plane: PlaneId(1), base: 0, len: count });
    doc.decls.declare(VarDecl { name: "t".into(), plane: PlaneId(2), base: 0, len: count });

    // Horner: acc = c[n-1]; for i in (0..n-1).rev(): acc = acc*x + c[i]
    let stages: Vec<f64> = coeffs[..coeffs.len() - 1].iter().rev().copied().collect();
    let chunks: Vec<&[f64]> = stages.chunks(stages_per_instr).collect();
    let n_chunks = chunks.len();
    let mut pids = Vec::new();
    for (ci, chunk) in chunks.into_iter().enumerate() {
        let first = ci == 0;
        let last = ci == n_chunks - 1;
        let pid = doc.add_pipeline(format!("horner chunk {ci}"));
        let d = doc.pipeline_mut(pid).unwrap();
        d.stream_len = count;
        // The first chunk opens with the leading stage, which scales the
        // streamed x by the constant coeffs[n-1] and so reads no x copy.
        let lead = usize::from(first);
        // x fan-out tree: each COPY unit feeds up to 3 Horner muls plus
        // the next copy. A chunk holding only the leading stage has none,
        // and no x memory icon either.
        let n_copies = (chunk.len() - lead).div_ceil(3);
        let mem_x = (n_copies > 0).then(|| d.add_icon(IconKind::memory()));
        let mem_in = d.add_icon(IconKind::memory());
        let mem_out = d.add_icon(IconKind::memory());
        let in_var = if first {
            "x"
        } else if ci % 2 == 1 {
            "t"
        } else {
            "y"
        };
        let out_var = if last || ci % 2 == 1 { "y" } else { "t" };

        let mut units = Units::on(&MachineConfig::nsc_1988(), Placement::Packed);
        let mut place = |d: &mut PipelineDiagram, assign| {
            units.place(d, assign).expect("a Horner chunk fits the node's units")
        };
        // Wire the x distribution: plane -> copy0 -> copy1 -> ...
        let mut x_src: Vec<PadLoc> = Vec::new();
        for _ in 0..n_copies {
            let (icon, pos) = place(d, FuAssign::unary(FuOp::Copy));
            let (from, attrs) = match x_src.last() {
                Some(&prev) => (prev, None),
                None => {
                    let mem_x = mem_x.expect("a chunk with copies reads x");
                    (PadLoc::new(mem_x, PadRef::Io), Some(DmaAttrs::variable("x")))
                }
            };
            d.connect(from, PadLoc::new(icon, PadRef::FuIn { pos, port: InPort::A }), attrs)
                .unwrap();
            x_src.push(PadLoc::new(icon, PadRef::FuOut { pos }));
        }
        // Horner stages: mul(acc, x) then add-const.
        let mut acc_src = PadLoc::new(mem_in, PadRef::Io);
        let mut acc_attrs = Some(DmaAttrs::variable(in_var));
        for (si, &c) in chunk.iter().enumerate() {
            // The leading stage's acc is x itself, so it computes
            // coeffs[n-1]*x + c; every later stage computes acc*x + c.
            let mul = if si < lead {
                FuAssign::with_const(FuOp::Mul, coeffs[coeffs.len() - 1])
            } else {
                FuAssign::binary(FuOp::Mul)
            };
            let (mi, mp) = place(d, mul);
            let (ai, ap) = place(d, FuAssign::with_const(FuOp::Add, c));
            d.connect(
                acc_src,
                PadLoc::new(mi, PadRef::FuIn { pos: mp, port: InPort::A }),
                acc_attrs.take(),
            )
            .unwrap();
            if si >= lead {
                d.connect(
                    x_src[(si - lead) / 3],
                    PadLoc::new(mi, PadRef::FuIn { pos: mp, port: InPort::B }),
                    None,
                )
                .unwrap();
            }
            d.connect(
                PadLoc::new(mi, PadRef::FuOut { pos: mp }),
                PadLoc::new(ai, PadRef::FuIn { pos: ap, port: InPort::A }),
                None,
            )
            .unwrap();
            acc_src = PadLoc::new(ai, PadRef::FuOut { pos: ap });
        }
        d.connect(acc_src, PadLoc::new(mem_out, PadRef::Io), Some(DmaAttrs::variable(out_var)))
            .unwrap();
        pids.push(pid);
    }
    doc.control = Some(ControlNode::Seq(pids.into_iter().map(ControlNode::Pipeline).collect()));
    doc
}

#[cfg(test)]
mod tests {
    use super::*;
    use nsc_arch::{KnowledgeBase, MachineConfig, SubsetModel};
    use nsc_checker::{diag::has_errors, Checker};

    fn check_doc(doc: &mut Document, kb: &KnowledgeBase) -> Vec<nsc_checker::Diagnostic> {
        let checker = Checker::new(kb.clone());
        // Bind all pipelines first.
        let decls = doc.decls.clone();
        let ids: Vec<_> = doc.pipelines().iter().map(|p| p.id).collect();
        for id in ids {
            let p = doc.pipeline_mut(id).unwrap();
            let diags = checker.auto_bind(p, &decls);
            assert!(diags.is_empty(), "binding failed: {diags:?}");
        }
        checker.check_document(doc)
    }

    #[test]
    fn full_variant_passes_the_global_check() {
        let kb = KnowledgeBase::nsc_1988();
        let mut doc = build_jacobi_document(8, 1e-6, 100, JacobiVariant::Full);
        let diags = check_doc(&mut doc, &kb);
        assert!(!has_errors(&diags), "errors: {diags:#?}");
        assert_eq!(doc.pipeline_count(), 2, "ping-pong pair");
    }

    #[test]
    fn singlets_only_variant_passes_on_the_subset_machine() {
        let kb = KnowledgeBase::new(MachineConfig::nsc_1988().subset(SubsetModel::SingletsOnly));
        let mut doc = build_jacobi_document(8, 1e-6, 100, JacobiVariant::SingletsOnly);
        let diags = check_doc(&mut doc, &kb);
        assert!(!has_errors(&diags), "errors: {diags:#?}");
    }

    #[test]
    fn full_variant_fails_on_the_subset_machine() {
        // The packed placement uses 3 units per triplet; the subset model
        // allows one. The checker must catch this.
        let kb = KnowledgeBase::new(MachineConfig::nsc_1988().subset(SubsetModel::SingletsOnly));
        let mut doc = build_jacobi_document(8, 1e-6, 100, JacobiVariant::Full);
        let diags = check_doc(&mut doc, &kb);
        assert!(
            diags.iter().any(|d| d.rule == nsc_checker::ConstraintKind::SubsetViolation),
            "expected subset violations"
        );
    }

    #[test]
    fn no_sdu_variant_passes_on_the_no_sdu_machine() {
        let kb = KnowledgeBase::new(MachineConfig::nsc_1988().subset(SubsetModel::NoSdu));
        let mut doc = build_jacobi_document(8, 1e-6, 100, JacobiVariant::NoSdu);
        let diags = check_doc(&mut doc, &kb);
        assert!(!has_errors(&diags), "errors: {diags:#?}");
        assert_eq!(doc.pipeline_count(), 6, "2 sweeps + 4 broadcast instructions");
    }

    #[test]
    fn full_variant_needs_the_shift_delay_units() {
        // On the no-SDU machine the binder has no shift/delay units to
        // hand out: the SDU icons stay unbound and binding reports it.
        let kb = KnowledgeBase::new(MachineConfig::nsc_1988().subset(SubsetModel::NoSdu));
        let checker = Checker::new(kb.clone());
        let mut doc = build_jacobi_document(8, 1e-6, 100, JacobiVariant::Full);
        let decls = doc.decls.clone();
        let ids: Vec<_> = doc.pipelines().iter().map(|p| p.id).collect();
        let mut bind_errors = Vec::new();
        for id in ids {
            bind_errors.extend(checker.auto_bind(doc.pipeline_mut(id).unwrap(), &decls));
        }
        assert!(!bind_errors.is_empty(), "SDU icons must not bind on a machine without SDUs");
        // And even ignoring binding, the global check flags unbound icons.
        let diags = checker.check_document(&doc);
        assert!(has_errors(&diags));
    }

    #[test]
    fn damped_sweep_document_checks_out_and_fills_the_triplets() {
        let kb = KnowledgeBase::nsc_1988();
        for even in [true, false] {
            let geo = JacobiGeometry::slab(6, 6, 4);
            let whole = [SweepWindow::whole(geo.nz)];
            let mut doc = build_damped_jacobi_sweep_document_windows(geo, even, 0.8, &whole);
            let diags = check_doc(&mut doc, &kb);
            assert!(!has_errors(&diags), "errors: {diags:#?}");
            assert_eq!(doc.pipeline_count(), 1, "one sweep, no convergence loop");
        }
    }

    #[test]
    fn windowed_sweep_documents_check_out() {
        let kb = KnowledgeBase::nsc_1988();
        let geo = JacobiGeometry::slab(5, 4, 8);
        let windows = [
            SweepWindow { start: 1, len: 1, slot: SweepWindow::LO_SLOT },
            SweepWindow { start: 2, len: 5, slot: 0 },
            SweepWindow { start: 7, len: 1, slot: SweepWindow::HI_SLOT },
        ];
        let mut doc = build_jacobi_sweep_document_windows(geo, true, &windows);
        let diags = check_doc(&mut doc, &kb);
        assert!(!has_errors(&diags), "errors: {diags:#?}");
        assert_eq!(doc.pipeline_count(), 3, "one instruction per window");
        let mut damped = build_damped_jacobi_sweep_document_windows(geo, false, 0.8, &windows);
        let diags = check_doc(&mut damped, &kb);
        assert!(!has_errors(&diags), "errors: {diags:#?}");

        let g2 = Jacobi2dGeometry::new(6, 9);
        let rows = [
            SweepWindow { start: 0, len: 4, slot: 0 },
            SweepWindow { start: 4, len: 5, slot: SweepWindow::HI_SLOT },
        ];
        let mut doc2 = build_jacobi2d_sweep_document_windows(g2, false, &rows);
        let diags = check_doc(&mut doc2, &kb);
        assert!(!has_errors(&diags), "errors: {diags:#?}");
        assert_eq!(doc2.pipeline_count(), 2);
    }

    #[test]
    fn ftcs_transport_document_checks_out() {
        let kb = KnowledgeBase::nsc_1988();
        let coeffs = FtcsCoeffs::new(0.125, 50.0, 1e-3);
        let mut doc = build_ftcs_transport_document(Jacobi2dGeometry::new(9, 5), coeffs);
        let diags = check_doc(&mut doc, &kb);
        assert!(!has_errors(&diags), "errors: {diags:#?}");
        assert_eq!(doc.pipeline_count(), 1, "one FTCS step instruction");
    }

    #[test]
    fn horner_document_checks_out() {
        let kb = KnowledgeBase::nsc_1988();
        let coeffs = [1.0, -0.5, 0.25, -0.125, 0.0625, 1.5, -2.5, 3.5, 0.5, 0.75, 1.25];
        let mut doc = build_chebyshev_document(512, &coeffs, 10);
        let diags = check_doc(&mut doc, &kb);
        assert!(!has_errors(&diags), "errors: {diags:#?}");
        assert_eq!(doc.pipeline_count(), 1, "ten stages fit one instruction");
        let mut split = build_chebyshev_document(512, &coeffs, 5);
        let diags = check_doc(&mut split, &kb);
        assert!(!has_errors(&diags), "errors: {diags:#?}");
        assert_eq!(split.pipeline_count(), 2, "five-stage chunks");
    }

    #[test]
    fn horner_document_evaluates_its_polynomial() {
        use nsc_core::Session;
        use nsc_sim::RunOptions;
        // The reference order: acc = c[n-1]; acc = acc*x + c[i] downwards.
        let horner = |coeffs: &[f64], x: f64| {
            let (top, rest) = coeffs.split_last().unwrap();
            rest.iter().rev().fold(*top, |acc, &c| acc * x + c)
        };
        let xs = [0.5, 1.0, 2.0, 3.0];
        let quad = [0.5, -0.25, 3.0];
        let long = [1.0, -0.5, 0.25, -0.125, 0.0625, 1.5, -2.5];
        let cases: [(&[f64], usize); 7] = [
            (&quad, 2),       // one chunk
            (&quad, 1),       // chunk 0 holds only the leading stage
            (&[0.5, 2.0], 1), // a linear polynomial: the leading stage alone
            (&long, 6),
            (&long, 3), // two chunks
            (&long, 2), // three chunks
            (&long, 1),
        ];
        for (coeffs, stages) in cases {
            let doc = build_chebyshev_document(xs.len() as u64, coeffs, stages);
            for fast in [true, false] {
                let session = Session::nsc_1988().with_fast_path(fast);
                let prog = session.compile(&mut doc.clone()).expect("the document compiles");
                let mut node = session.node();
                node.mem.plane_mut(PlaneId(0)).write_slice(0, &xs);
                prog.run(&mut node, &RunOptions::default()).expect("runs");
                let y = node.mem.plane(PlaneId(1)).read_vec(0, xs.len() as u64);
                for (&x, y) in xs.iter().zip(y) {
                    let want = horner(coeffs, x);
                    assert_eq!(
                        y.to_bits(),
                        want.to_bits(),
                        "{coeffs:?} by {stages}, fast {fast}, x {x}"
                    );
                }
            }
        }
        assert_eq!(xs.map(|x| horner(&quad, x)), [1.125, 3.25, 12.0, 26.75]);
    }

    #[test]
    #[should_panic(expected = "a 65636-word plane cannot be swept: tap delay 65632 does not fit")]
    fn a_plane_past_the_tap_field_panics_by_name() {
        let geo = JacobiGeometry::slab(4, 16_409, 3);
        build_jacobi_sweep_document_windows(geo, true, &[SweepWindow::whole(3)]);
    }

    #[test]
    fn geometry_numbers() {
        let g = JacobiGeometry::cube(8);
        assert_eq!(g.plane, 64);
        assert_eq!(g.points, 512);
        assert_eq!(g.padded, 512 + 128);
    }
}
