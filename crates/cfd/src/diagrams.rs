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

use crate::host::FtcsCoeffs;
use crate::partition::SweepWindow;
use nsc_arch::{AlsKind, CacheId, FuOp, InPort, PlaneId};
use nsc_diagram::{
    ControlNode, ConvergenceCond, DmaAttrs, Document, FuAssign, IconId, IconKind, PadLoc, PadRef,
    PipelineDiagram, VarDecl,
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

/// The unit placements for one sweep pipeline: `(icon index, position)`
/// per operation, plus the icon shapes to create.
struct UnitPlan {
    icons: Vec<AlsKind>,
    /// Placement of the 11 compute units (order: add_ud, add_ns, add_ew,
    /// add_s4, add_s5, sub_g, mul16, sub_d, mul_mask, add_unew, maxabs).
    slots: Vec<(usize, u8)>,
}

fn plan(variant: JacobiVariant, damped: bool) -> UnitPlan {
    use AlsKind::*;
    match variant {
        JacobiVariant::Full | JacobiVariant::NoSdu => {
            let mut slots = vec![
                (0, 0),
                (0, 1),
                (0, 2),
                (1, 0),
                (1, 1),
                (1, 2),
                (2, 0),
                (2, 1),
                (2, 2),
                (3, 0),
                (3, 2), // maxabs on the min/max-capable tail unit
            ];
            if damped {
                // The omega multiply takes the last free triplet slot.
                slots.push((3, 1));
            }
            UnitPlan { icons: vec![Triplet, Triplet, Triplet, Triplet], slots }
        }
        JacobiVariant::SingletsOnly => UnitPlan {
            icons: vec![
                Triplet, Triplet, Triplet, Triplet, Doublet, Doublet, Doublet, Doublet, Doublet,
                Doublet, Doublet,
            ],
            slots: vec![
                (0, 0),
                (1, 0),
                (2, 0),
                (3, 0),
                (4, 0),
                (5, 0),
                (6, 0),
                (7, 0),
                (8, 0),
                (9, 0),
                (10, 1), // maxabs on a doublet's min/max-capable unit
            ],
        },
    }
}

/// Declare the Jacobi working set (the Figure 5 left region).
fn declare_jacobi_vars(doc: &mut Document, geo: JacobiGeometry, variant: JacobiVariant) {
    let np = geo.padded as u64;
    for (name, plane) in [("u0", PLANE_U0), ("mask", PLANE_MASK), ("g", PLANE_G), ("u1", PLANE_U1)]
    {
        doc.decls.declare(VarDecl { name: name.into(), plane, base: 0, len: np });
    }
    if variant == JacobiVariant::NoSdu {
        for i in 0..6u8 {
            doc.decls.declare(VarDecl {
                name: format!("ucopy{i}"),
                plane: PlaneId(PLANE_COPY0 + i),
                base: 0,
                len: np,
            });
        }
    }
}

/// Build the complete Jacobi document for an `n^3` grid.
///
/// `tol` and `max_iters` program the convergence loop; the loop body is a
/// ping-pong pair of sweeps (u0 -> u1 then u1 -> u0), so iterations are
/// counted in pairs.
pub fn build_jacobi_document(
    n: usize,
    tol: f64,
    max_iters: u32,
    variant: JacobiVariant,
) -> Document {
    let geo = JacobiGeometry::cube(n);
    let mut doc = Document::new(format!("jacobi3d-{}x{}x{}", geo.nx, geo.ny, geo.nz));
    declare_jacobi_vars(&mut doc, geo, variant);

    let whole = SweepWindow::whole(geo.nz);
    let sweep_a =
        build_sweep(&mut doc, "point Jacobi sweep (even)", "u0", "u1", geo, variant, None, whole);
    let sweep_b =
        build_sweep(&mut doc, "point Jacobi sweep (odd)", "u1", "u0", geo, variant, None, whole);

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
/// ref. \[6\] multigrid V-cycle, as one extra multiply unit on the last
/// free triplet slot. `u0 -> u1` when `even`, `u1 -> u0` otherwise; the
/// residual reduction still lands `max |omega-scaled masked update|` in
/// the cache (the distributed V-cycle ignores it). See
/// [`build_jacobi_sweep_document_windows`] for the windowing contract.
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
    assert!(!windows.is_empty(), "a sweep document needs at least one window");
    let (src, dst, tag) = if even { ("u0", "u1", "even") } else { ("u1", "u0", "odd") };
    let (kind, what) =
        if omega.is_some() { ("smooth", "damped Jacobi") } else { ("sweep", "point Jacobi") };
    let mut doc = Document::new(format!("jacobi3d-{kind}-{tag}-{}x{}x{}", geo.nx, geo.ny, geo.nz));
    declare_jacobi_vars(&mut doc, geo, JacobiVariant::Full);
    let pids: Vec<_> = windows
        .iter()
        .map(|&w| {
            let name = if w.len == geo.nz {
                format!("{what} sweep ({tag})")
            } else {
                format!("{what} sweep ({tag}, planes {}..{})", w.start, w.start + w.len)
            };
            build_sweep(&mut doc, &name, src, dst, geo, JacobiVariant::Full, omega, w)
        })
        .collect();
    doc.control = Some(if pids.len() == 1 {
        ControlNode::Pipeline(pids[0])
    } else {
        ControlNode::Seq(pids.into_iter().map(ControlNode::Pipeline).collect())
    });
    doc
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
pub fn build_jacobi2d_sweep_document_windows(
    geo: Jacobi2dGeometry,
    even: bool,
    windows: &[SweepWindow],
) -> Document {
    assert!(!windows.is_empty(), "a sweep document needs at least one window");
    let (src, dst, tag) = if even { ("u0", "u1", "even") } else { ("u1", "u0", "odd") };
    let mut doc = Document::new(format!("jacobi2d-sweep-{tag}-{}x{}", geo.nx, geo.ny));
    let np = geo.padded as u64;
    for (name, plane) in [("u0", PLANE_U0), ("mask", PLANE_MASK), ("g", PLANE_G), ("u1", PLANE_U1)]
    {
        doc.decls.declare(VarDecl { name: name.into(), plane, base: 0, len: np });
    }
    let pids: Vec<_> = windows
        .iter()
        .map(|&w| {
            let name = if w.len == geo.ny {
                format!("2-D Jacobi sweep ({tag})")
            } else {
                format!("2-D Jacobi sweep ({tag}, rows {}..{})", w.start, w.start + w.len)
            };
            build_sweep2d(&mut doc, &name, src, dst, geo, w)
        })
        .collect();
    doc.control = Some(if pids.len() == 1 {
        ControlNode::Pipeline(pids[0])
    } else {
        ControlNode::Seq(pids.into_iter().map(ControlNode::Pipeline).collect())
    });
    doc
}

/// One windowed 2-D five-point sweep pipeline (see
/// [`build_jacobi2d_sweep_document_windows`]).
fn build_sweep2d(
    doc: &mut Document,
    name: &str,
    src: &str,
    dst: &str,
    geo: Jacobi2dGeometry,
    window: SweepWindow,
) -> nsc_diagram::PipelineId {
    assert!(window.start + window.len <= geo.ny, "window exceeds the slab");
    assert!(window.len > 0, "empty sweep window");
    let pid = doc.add_pipeline(name);
    let h = geo.row as u64;
    let w0 = window.start as u64 * h;
    let wpts = window.len as u64 * h;
    let d = doc.pipeline_mut(pid).unwrap();
    d.stream_len = wpts + 2 * h;

    // Nine compute units on three triplets; the maxabs reduction sits on a
    // min/max-capable tail unit, as in the 3-D placement.
    let icons: Vec<IconId> = (0..3).map(|_| d.add_icon(IconKind::als(AlsKind::Triplet))).collect();
    let slots: [(usize, u8); 9] =
        [(0, 0), (0, 1), (0, 2), (1, 0), (1, 1), (1, 2), (2, 0), (2, 1), (2, 2)];
    let unit = |i: usize| -> (IconId, u8) {
        let (icon, pos) = slots[i];
        (icons[icon], pos)
    };
    const ADD_NS: usize = 0;
    const ADD_EW: usize = 1;
    const ADD_S3: usize = 2;
    const SUB_G: usize = 3;
    const MUL14: usize = 4;
    const SUB_D: usize = 5;
    const MUL_MASK: usize = 6;
    const ADD_UNEW: usize = 7;
    const MAXABS: usize = 8;

    let mem_mask = d.add_icon(IconKind::memory());
    let mem_g = d.add_icon(IconKind::memory());
    let mem_out = d.add_icon(IconKind::memory());
    let cache_res = d.add_icon(IconKind::cache());

    let fu_in = |u: (IconId, u8), port: InPort| PadLoc::new(u.0, PadRef::FuIn { pos: u.1, port });
    let fu_out = |u: (IconId, u8)| PadLoc::new(u.0, PadRef::FuOut { pos: u.1 });

    // Five u-streams from two shift/delay units, delays relative to the
    // leading (j+1) row: north 0, east h-1, west h+1; south 2h, centre h
    // (a delay d taps stream element q+2h-d, as in the 3-D builder).
    let mem_u = d.add_icon(IconKind::memory());
    let sdu0 = d.add_icon(IconKind::sdu());
    let sdu1 = d.add_icon(IconKind::sdu());
    let hh = h as u16;
    d.set_sdu_taps(sdu0, vec![0, hh - 1, hh + 1]).unwrap();
    d.set_sdu_taps(sdu1, vec![2 * hh, hh]).unwrap();
    for sdu in [sdu0, sdu1] {
        d.connect(
            PadLoc::new(mem_u, PadRef::Io),
            PadLoc::new(sdu, PadRef::SduIn),
            Some(DmaAttrs::variable(src).with_offset(w0)),
        )
        .unwrap();
    }
    let tap = |sdu: IconId, t: u8| PadLoc::new(sdu, PadRef::SduTap { tap: t });
    d.connect(tap(sdu0, 0), fu_in(unit(ADD_NS), InPort::A), None).unwrap(); // north
    d.connect(tap(sdu1, 0), fu_in(unit(ADD_NS), InPort::B), None).unwrap(); // south
    d.connect(tap(sdu0, 1), fu_in(unit(ADD_EW), InPort::A), None).unwrap(); // east
    d.connect(tap(sdu0, 2), fu_in(unit(ADD_EW), InPort::B), None).unwrap(); // west
    for sink in [fu_in(unit(SUB_D), InPort::B), fu_in(unit(ADD_UNEW), InPort::A)] {
        d.connect(tap(sdu1, 1), sink, None).unwrap(); // centre
    }

    // The arithmetic tree: ((n+s) + (e+w) - g) / 4, masked update.
    let ops = [
        (ADD_NS, FuAssign::binary(FuOp::Add)),
        (ADD_EW, FuAssign::binary(FuOp::Add)),
        (ADD_S3, FuAssign::binary(FuOp::Add)),
        (SUB_G, FuAssign::binary(FuOp::Sub)),
        (MUL14, FuAssign::with_const(FuOp::Mul, 1.0 / 4.0)),
        (SUB_D, FuAssign::binary(FuOp::Sub)),
        (MUL_MASK, FuAssign::binary(FuOp::Mul)),
        (ADD_UNEW, FuAssign::binary(FuOp::Add)),
        (MAXABS, FuAssign::reduction(FuOp::MaxAbs, 0.0)),
    ];
    for (u, assign) in ops {
        let (icon, pos) = unit(u);
        d.assign_fu(icon, pos, assign).unwrap();
    }
    let wire = |d: &mut PipelineDiagram, from: usize, to: usize, port: InPort| {
        d.connect(fu_out(unit(from)), fu_in(unit(to), port), None).unwrap();
    };
    wire(d, ADD_NS, ADD_S3, InPort::A);
    wire(d, ADD_EW, ADD_S3, InPort::B);
    wire(d, ADD_S3, SUB_G, InPort::A);
    wire(d, SUB_G, MUL14, InPort::A);
    wire(d, MUL14, SUB_D, InPort::A);
    wire(d, SUB_D, MUL_MASK, InPort::A);
    wire(d, MUL_MASK, ADD_UNEW, InPort::B);
    wire(d, MUL_MASK, MAXABS, InPort::A);

    // Mask and scaled-RHS streams, stored `aligned` (front pad 2h).
    d.connect(
        PadLoc::new(mem_g, PadRef::Io),
        fu_in(unit(SUB_G), InPort::B),
        Some(DmaAttrs::variable("g").with_offset(w0)),
    )
    .unwrap();
    d.connect(
        PadLoc::new(mem_mask, PadRef::Io),
        fu_in(unit(MUL_MASK), InPort::B),
        Some(DmaAttrs::variable("mask").with_offset(w0)),
    )
    .unwrap();

    // Stores: the new iterate and the window's residual scalar.
    d.connect(
        fu_out(unit(ADD_UNEW)),
        PadLoc::new(mem_out, PadRef::Io),
        Some(DmaAttrs::variable(dst).with_offset(h + w0).with_count(wpts)),
    )
    .unwrap();
    d.connect(
        fu_out(unit(MAXABS)),
        PadLoc::new(cache_res, PadRef::Io),
        Some(DmaAttrs::at_address(window.slot).last_only()),
    )
    .unwrap();

    pid
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
pub fn build_ftcs_transport_document(geo: Jacobi2dGeometry, coeffs: FtcsCoeffs) -> Document {
    let mut doc = Document::new(format!("cavity-ftcs-{}x{}", geo.nx, geo.ny));
    let np = geo.padded as u64;
    for (name, plane) in [
        ("psi", PLANE_U0),
        ("mask", PLANE_MASK),
        ("w0", PLANE_W0),
        ("wc", PLANE_WC),
        ("w1", PLANE_W1),
    ] {
        doc.decls.declare(VarDecl { name: name.into(), plane, base: 0, len: np });
    }

    let pid = doc.add_pipeline("vorticity FTCS step");
    let h = geo.row as u64;
    let hh = h as u16;
    let d = doc.pipeline_mut(pid).unwrap();
    d.stream_len = geo.padded as u64;

    let units = alloc_unit_slots(d, 21);
    const SUB_PNS: usize = 0; // ψn - ψs
    const MUL_U: usize = 1; // u = (ψn - ψs) · c1
    const SUB_PWE: usize = 2; // ψw - ψe
    const MUL_V: usize = 3; // v = (ψw - ψe) · c1
    const SUB_WEW: usize = 4; // ωe - ωw
    const MUL_WX: usize = 5; // ωx
    const SUB_WNS: usize = 6; // ωn - ωs
    const MUL_WY: usize = 7; // ωy
    const ADD_WEW: usize = 8; // ωe + ωw
    const ADD_WNS: usize = 9; // ωn + ωs
    const ADD_S4: usize = 10; // four-neighbour sum
    const MUL_C4: usize = 11; // 4·ωc
    const SUB_LAP: usize = 12; // sum - 4ωc
    const MUL_C2: usize = 13; // · c2 = ∇²ω / Re
    const MUL_A1: usize = 14; // u·ωx
    const MUL_A2: usize = 15; // v·ωy
    const ADD_ADV: usize = 16; // u·ωx + v·ωy
    const SUB_RHS: usize = 17; // diffusion - advection
    const MUL_DT: usize = 18; // · dt
    const MUL_MASK: usize = 19; // · mask
    const ADD_OUT: usize = 20; // ωc + masked update

    let fu_in =
        |u: usize, port: InPort| PadLoc::new(units[u].0, PadRef::FuIn { pos: units[u].1, port });
    let fu_out = |u: usize| PadLoc::new(units[u].0, PadRef::FuOut { pos: units[u].1 });

    // ψ and ω five-point streams from one shift/delay unit each; delays
    // relative to the leading (j+1) row as in the 2-D Jacobi builder.
    let mem_psi = d.add_icon(IconKind::memory());
    let mem_w = d.add_icon(IconKind::memory());
    let sdu_psi = d.add_icon(IconKind::sdu());
    let sdu_w = d.add_icon(IconKind::sdu());
    d.set_sdu_taps(sdu_psi, vec![0, 2 * hh, hh - 1, hh + 1]).unwrap();
    d.set_sdu_taps(sdu_w, vec![0, 2 * hh, hh - 1, hh + 1]).unwrap();
    d.connect(
        PadLoc::new(mem_psi, PadRef::Io),
        PadLoc::new(sdu_psi, PadRef::SduIn),
        Some(DmaAttrs::variable("psi")),
    )
    .unwrap();
    d.connect(
        PadLoc::new(mem_w, PadRef::Io),
        PadLoc::new(sdu_w, PadRef::SduIn),
        Some(DmaAttrs::variable("w0")),
    )
    .unwrap();
    let tap = |sdu: IconId, t: u8| PadLoc::new(sdu, PadRef::SduTap { tap: t });
    // ψ taps: north, south, east, west.
    d.connect(tap(sdu_psi, 0), fu_in(SUB_PNS, InPort::A), None).unwrap();
    d.connect(tap(sdu_psi, 1), fu_in(SUB_PNS, InPort::B), None).unwrap();
    d.connect(tap(sdu_psi, 2), fu_in(SUB_PWE, InPort::B), None).unwrap(); // east
    d.connect(tap(sdu_psi, 3), fu_in(SUB_PWE, InPort::A), None).unwrap(); // west
                                                                          // ω taps fan out to the derivative subs and the Laplacian adds.
    d.connect(tap(sdu_w, 0), fu_in(SUB_WNS, InPort::A), None).unwrap();
    d.connect(tap(sdu_w, 0), fu_in(ADD_WNS, InPort::A), None).unwrap();
    d.connect(tap(sdu_w, 1), fu_in(SUB_WNS, InPort::B), None).unwrap();
    d.connect(tap(sdu_w, 1), fu_in(ADD_WNS, InPort::B), None).unwrap();
    d.connect(tap(sdu_w, 2), fu_in(SUB_WEW, InPort::A), None).unwrap();
    d.connect(tap(sdu_w, 2), fu_in(ADD_WEW, InPort::A), None).unwrap();
    d.connect(tap(sdu_w, 3), fu_in(SUB_WEW, InPort::B), None).unwrap();
    d.connect(tap(sdu_w, 3), fu_in(ADD_WEW, InPort::B), None).unwrap();
    // The ω centre stream comes straight from the aligned copy plane.
    let mem_wc = d.add_icon(IconKind::memory());
    for sink in [fu_in(MUL_C4, InPort::A), fu_in(ADD_OUT, InPort::A)] {
        d.connect(PadLoc::new(mem_wc, PadRef::Io), sink, Some(DmaAttrs::variable("wc"))).unwrap();
    }
    // Mask stream.
    let mem_mask = d.add_icon(IconKind::memory());
    d.connect(
        PadLoc::new(mem_mask, PadRef::Io),
        fu_in(MUL_MASK, InPort::B),
        Some(DmaAttrs::variable("mask")),
    )
    .unwrap();

    let ops = [
        (SUB_PNS, FuAssign::binary(FuOp::Sub)),
        (MUL_U, FuAssign::with_const(FuOp::Mul, coeffs.c1)),
        (SUB_PWE, FuAssign::binary(FuOp::Sub)),
        (MUL_V, FuAssign::with_const(FuOp::Mul, coeffs.c1)),
        (SUB_WEW, FuAssign::binary(FuOp::Sub)),
        (MUL_WX, FuAssign::with_const(FuOp::Mul, coeffs.c1)),
        (SUB_WNS, FuAssign::binary(FuOp::Sub)),
        (MUL_WY, FuAssign::with_const(FuOp::Mul, coeffs.c1)),
        (ADD_WEW, FuAssign::binary(FuOp::Add)),
        (ADD_WNS, FuAssign::binary(FuOp::Add)),
        (ADD_S4, FuAssign::binary(FuOp::Add)),
        (MUL_C4, FuAssign::with_const(FuOp::Mul, 4.0)),
        (SUB_LAP, FuAssign::binary(FuOp::Sub)),
        (MUL_C2, FuAssign::with_const(FuOp::Mul, coeffs.c2)),
        (MUL_A1, FuAssign::binary(FuOp::Mul)),
        (MUL_A2, FuAssign::binary(FuOp::Mul)),
        (ADD_ADV, FuAssign::binary(FuOp::Add)),
        (SUB_RHS, FuAssign::binary(FuOp::Sub)),
        (MUL_DT, FuAssign::with_const(FuOp::Mul, coeffs.dt)),
        (MUL_MASK, FuAssign::binary(FuOp::Mul)),
        (ADD_OUT, FuAssign::binary(FuOp::Add)),
    ];
    for (u, assign) in ops {
        let (icon, pos) = units[u];
        d.assign_fu(icon, pos, assign).unwrap();
    }
    let wire = |d: &mut PipelineDiagram, from: usize, to: usize, port: InPort| {
        d.connect(fu_out(from), fu_in(to, port), None).unwrap();
    };
    wire(d, SUB_PNS, MUL_U, InPort::A);
    wire(d, SUB_PWE, MUL_V, InPort::A);
    wire(d, SUB_WEW, MUL_WX, InPort::A);
    wire(d, SUB_WNS, MUL_WY, InPort::A);
    wire(d, ADD_WEW, ADD_S4, InPort::A);
    wire(d, ADD_WNS, ADD_S4, InPort::B);
    wire(d, MUL_C4, SUB_LAP, InPort::B);
    wire(d, ADD_S4, SUB_LAP, InPort::A);
    wire(d, SUB_LAP, MUL_C2, InPort::A);
    wire(d, MUL_U, MUL_A1, InPort::A);
    wire(d, MUL_WX, MUL_A1, InPort::B);
    wire(d, MUL_V, MUL_A2, InPort::A);
    wire(d, MUL_WY, MUL_A2, InPort::B);
    wire(d, MUL_A1, ADD_ADV, InPort::A);
    wire(d, MUL_A2, ADD_ADV, InPort::B);
    wire(d, MUL_C2, SUB_RHS, InPort::A);
    wire(d, ADD_ADV, SUB_RHS, InPort::B);
    wire(d, SUB_RHS, MUL_DT, InPort::A);
    wire(d, MUL_DT, MUL_MASK, InPort::A);
    wire(d, MUL_MASK, ADD_OUT, InPort::B);

    // Store the advanced vorticity into the output plane's data region.
    let mem_out = d.add_icon(IconKind::memory());
    d.connect(
        fu_out(ADD_OUT),
        PadLoc::new(mem_out, PadRef::Io),
        Some(DmaAttrs::variable("w1").with_offset(h).with_count(geo.points as u64)),
    )
    .unwrap();

    doc.control = Some(ControlNode::Pipeline(pid));
    doc
}

/// One sweep pipeline reading `src` and writing `dst`. `damping` adds an
/// `omega` multiply between the update and the mask (the multigrid
/// smoother; full variant only). `window` restricts the output to a run
/// of xy-planes: the stream starts `2h` elements before the window's
/// first output point and covers exactly `window.len` planes, so the
/// operation tree sees the same inputs as the fused sweep on those
/// points (the no-SDU variant streams differently and accepts only the
/// whole-slab window).
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
) -> nsc_diagram::PipelineId {
    assert!(
        damping.is_none() || variant == JacobiVariant::Full,
        "the damped smoother is built for the full machine only"
    );
    assert!(window.start + window.len <= geo.nz, "window exceeds the slab");
    assert!(window.len > 0, "empty sweep window");
    let pid = doc.add_pipeline(name);
    let h = geo.plane as u64;
    // Window origin and extent in stream elements.
    let w0 = window.start as u64 * h;
    let wpts = window.len as u64 * h;
    let d = doc.pipeline_mut(pid).unwrap();
    d.stream_len = match variant {
        JacobiVariant::NoSdu => {
            assert!(
                window.start == 0 && window.len == geo.nz,
                "the no-SDU variant streams whole slabs only"
            );
            geo.points as u64
        }
        _ => wpts + 2 * h,
    };

    // Compute units.
    let unit_plan = plan(variant, damping.is_some());
    let als_icons: Vec<IconId> =
        unit_plan.icons.iter().map(|&k| d.add_icon(IconKind::als(k))).collect();
    let unit = |i: usize| -> (IconId, u8) {
        let (icon, pos) = unit_plan.slots[i];
        (als_icons[icon], pos)
    };
    const ADD_UD: usize = 0;
    const ADD_NS: usize = 1;
    const ADD_EW: usize = 2;
    const ADD_S4: usize = 3;
    const ADD_S5: usize = 4;
    const SUB_G: usize = 5;
    const MUL16: usize = 6;
    const SUB_D: usize = 7;
    const MUL_MASK: usize = 8;
    const ADD_UNEW: usize = 9;
    const MAXABS: usize = 10;
    const MUL_OMEGA: usize = 11;

    // Storage icons.
    let mem_mask = d.add_icon(IconKind::memory());
    let mem_g = d.add_icon(IconKind::memory());
    let mem_out = d.add_icon(IconKind::memory());
    let cache_res = d.add_icon(IconKind::cache());

    let fu_in = |u: (IconId, u8), port: InPort| PadLoc::new(u.0, PadRef::FuIn { pos: u.1, port });
    let fu_out = |u: (IconId, u8)| PadLoc::new(u.0, PadRef::FuOut { pos: u.1 });

    // ------------------------------------------------------------------
    // neighbour streams
    // ------------------------------------------------------------------
    // Wires carrying (stream, sink) pairs for the seven u-streams:
    // up, down, north, south, east, west, centre(x2 fan-out).
    let centre_sinks = [fu_in(unit(SUB_D), InPort::B), fu_in(unit(ADD_UNEW), InPort::A)];
    match variant {
        JacobiVariant::Full | JacobiVariant::SingletsOnly => {
            let mem_u = d.add_icon(IconKind::memory());
            let sdu0 = d.add_icon(IconKind::sdu());
            let sdu1 = d.add_icon(IconKind::sdu());
            // Tap programming: delays relative to the leading (k+1) plane.
            let nx = geo.nx as u16;
            let hh = h as u16;
            d.set_sdu_taps(sdu0, vec![0, hh - nx, hh - 1, hh + 1]).unwrap();
            d.set_sdu_taps(sdu1, vec![hh + nx, 2 * hh, hh]).unwrap();
            for sdu in [sdu0, sdu1] {
                d.connect(
                    PadLoc::new(mem_u, PadRef::Io),
                    PadLoc::new(sdu, PadRef::SduIn),
                    Some(DmaAttrs::variable(src).with_offset(w0)),
                )
                .unwrap();
            }
            let tap = |sdu: IconId, t: u8| PadLoc::new(sdu, PadRef::SduTap { tap: t });
            d.connect(tap(sdu0, 0), fu_in(unit(ADD_UD), InPort::A), None).unwrap(); // up
            d.connect(tap(sdu1, 1), fu_in(unit(ADD_UD), InPort::B), None).unwrap(); // down
            d.connect(tap(sdu0, 1), fu_in(unit(ADD_NS), InPort::A), None).unwrap(); // north
            d.connect(tap(sdu1, 0), fu_in(unit(ADD_NS), InPort::B), None).unwrap(); // south
            d.connect(tap(sdu0, 2), fu_in(unit(ADD_EW), InPort::A), None).unwrap(); // east
            d.connect(tap(sdu0, 3), fu_in(unit(ADD_EW), InPort::B), None).unwrap(); // west
            for sink in centre_sinks {
                d.connect(tap(sdu1, 2), sink, None).unwrap(); // centre
            }
        }
        JacobiVariant::NoSdu => {
            // Six copy planes + the source plane for the centre stream.
            // Each binary add would read two planes, which §3 forbids, so
            // one operand of each pair is staged through a COPY unit.
            let stage = [
                d.add_icon(IconKind::als(AlsKind::Doublet)),
                d.add_icon(IconKind::als(AlsKind::Doublet)),
            ];
            let stage_units = [(stage[0], 0u8), (stage[0], 1u8), (stage[1], 0u8)];
            let nx = geo.nx as u64;
            // (variable, base offset, destination)
            let direct = [
                ("ucopy0", 2 * h, fu_in(unit(ADD_UD), InPort::A)), // up
                ("ucopy2", h + nx, fu_in(unit(ADD_NS), InPort::A)), // north
                ("ucopy4", h + 1, fu_in(unit(ADD_EW), InPort::A)), // east
            ];
            let staged = [
                ("ucopy1", 0u64, 0usize, fu_in(unit(ADD_UD), InPort::B)), // down
                ("ucopy3", h - nx, 1, fu_in(unit(ADD_NS), InPort::B)),    // south
                ("ucopy5", h - 1, 2, fu_in(unit(ADD_EW), InPort::B)),     // west
            ];
            for (var, base, sink) in direct {
                let m = d.add_icon(IconKind::memory());
                d.connect(
                    PadLoc::new(m, PadRef::Io),
                    sink,
                    Some(DmaAttrs::variable(var).with_offset(base)),
                )
                .unwrap();
            }
            for (var, base, stage_idx, sink) in staged {
                let m = d.add_icon(IconKind::memory());
                let cu = stage_units[stage_idx];
                d.connect(
                    PadLoc::new(m, PadRef::Io),
                    fu_in(cu, InPort::A),
                    Some(DmaAttrs::variable(var).with_offset(base)),
                )
                .unwrap();
                d.assign_fu(cu.0, cu.1, FuAssign::unary(FuOp::Copy)).unwrap();
                d.connect(fu_out(cu), sink, None).unwrap();
            }
            // Centre stream straight from the source plane.
            let mem_u = d.add_icon(IconKind::memory());
            for sink in centre_sinks {
                d.connect(
                    PadLoc::new(mem_u, PadRef::Io),
                    sink,
                    Some(DmaAttrs::variable(src).with_offset(h)),
                )
                .unwrap();
            }
        }
    }

    // ------------------------------------------------------------------
    // the arithmetic tree (paper Equation 1)
    // ------------------------------------------------------------------
    let mut ops = vec![
        (ADD_UD, FuAssign::binary(FuOp::Add)),
        (ADD_NS, FuAssign::binary(FuOp::Add)),
        (ADD_EW, FuAssign::binary(FuOp::Add)),
        (ADD_S4, FuAssign::binary(FuOp::Add)),
        (ADD_S5, FuAssign::binary(FuOp::Add)),
        (SUB_G, FuAssign::binary(FuOp::Sub)),
        (MUL16, FuAssign::with_const(FuOp::Mul, 1.0 / 6.0)),
        (SUB_D, FuAssign::binary(FuOp::Sub)),
        (MUL_MASK, FuAssign::binary(FuOp::Mul)),
        (ADD_UNEW, FuAssign::binary(FuOp::Add)),
        (MAXABS, FuAssign::reduction(FuOp::MaxAbs, 0.0)),
    ];
    if let Some(omega) = damping {
        ops.push((MUL_OMEGA, FuAssign::with_const(FuOp::Mul, omega)));
    }
    for (u, assign) in ops {
        let (icon, pos) = unit(u);
        d.assign_fu(icon, pos, assign).unwrap();
    }
    let wire = |d: &mut PipelineDiagram, from: usize, to: usize, port: InPort| {
        d.connect(fu_out(unit(from)), fu_in(unit(to), port), None).unwrap();
    };
    wire(d, ADD_UD, ADD_S4, InPort::A);
    wire(d, ADD_NS, ADD_S4, InPort::B);
    wire(d, ADD_S4, ADD_S5, InPort::A);
    wire(d, ADD_EW, ADD_S5, InPort::B);
    wire(d, ADD_S5, SUB_G, InPort::A);
    wire(d, SUB_G, MUL16, InPort::A);
    wire(d, MUL16, SUB_D, InPort::A);
    if damping.is_some() {
        // The damped smoother scales the update by omega before masking.
        wire(d, SUB_D, MUL_OMEGA, InPort::A);
        wire(d, MUL_OMEGA, MUL_MASK, InPort::A);
    } else {
        wire(d, SUB_D, MUL_MASK, InPort::A);
    }
    wire(d, MUL_MASK, ADD_UNEW, InPort::B);
    wire(d, MUL_MASK, MAXABS, InPort::A);

    // Mask and scaled-RHS streams. Under the SDU layout they are stored
    // `aligned` (front pad 2h, offset 0); the no-SDU variant streams the
    // same images starting at the data (offset 2h).
    let storage_base = match variant {
        JacobiVariant::NoSdu => 2 * h,
        _ => w0,
    };
    d.connect(
        PadLoc::new(mem_g, PadRef::Io),
        fu_in(unit(SUB_G), InPort::B),
        Some(DmaAttrs::variable("g").with_offset(storage_base)),
    )
    .unwrap();
    d.connect(
        PadLoc::new(mem_mask, PadRef::Io),
        fu_in(unit(MUL_MASK), InPort::B),
        Some(DmaAttrs::variable("mask").with_offset(storage_base)),
    )
    .unwrap();

    // Stores: the new iterate (into the pong plane's window) and the
    // window's residual scalar.
    d.connect(
        fu_out(unit(ADD_UNEW)),
        PadLoc::new(mem_out, PadRef::Io),
        Some(DmaAttrs::variable(dst).with_offset(h + w0).with_count(wpts)),
    )
    .unwrap();
    d.connect(
        fu_out(unit(MAXABS)),
        PadLoc::new(cache_res, PadRef::Io),
        Some(DmaAttrs::at_address(window.slot).last_only()),
    )
    .unwrap();

    pid
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
    units.truncate(n_dst as usize);
    for (slot, &(icon, pos)) in units.iter().enumerate() {
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
            Some(DmaAttrs::variable(format!("ucopy{}", first_dst + slot as u8))),
        )
        .unwrap();
    }
    pid
}

/// Allocate `needed` unit slots across mixed ALS shapes, triplets first
/// (the 1988 machine offers 32 slots in total).
fn alloc_unit_slots(d: &mut PipelineDiagram, needed: usize) -> Vec<(IconId, u8)> {
    let mut slots = Vec::new();
    let shapes =
        [(AlsKind::Triplet, 4usize, 3u8), (AlsKind::Doublet, 8, 2), (AlsKind::Singlet, 4, 1)];
    'outer: for (kind, max_icons, units) in shapes {
        for _ in 0..max_icons {
            if slots.len() >= needed {
                break 'outer;
            }
            let icon = d.add_icon(IconKind::als(kind));
            for p in 0..units {
                slots.push((icon, p));
            }
        }
    }
    assert!(slots.len() >= needed, "kernel needs {needed} units; the node has 32");
    slots
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

        let n_units = chunk.len() * 2; // mul + add-const per stage
        let needed = n_units + n_copies;
        let als = alloc_unit_slots(d, needed);
        let copies = &als[..n_copies];
        let units = &als[n_copies..needed];
        // Wire the x distribution: plane -> copy0 -> copy1 -> ...
        let mut x_src: Vec<PadLoc> = Vec::new();
        for (i, &(icon, pos)) in copies.iter().enumerate() {
            d.assign_fu(icon, pos, FuAssign::unary(FuOp::Copy)).unwrap();
            let from = if i == 0 {
                PadLoc::new(mem_x.expect("a chunk with copies reads x"), PadRef::Io)
            } else {
                let (pi, pp) = copies[i - 1];
                PadLoc::new(pi, PadRef::FuOut { pos: pp })
            };
            let attrs = (i == 0).then(|| DmaAttrs::variable("x"));
            d.connect(from, PadLoc::new(icon, PadRef::FuIn { pos, port: InPort::A }), attrs)
                .unwrap();
            x_src.push(PadLoc::new(icon, PadRef::FuOut { pos }));
        }
        // Horner stages: mul(acc, x) then add-const.
        let mut acc_src = PadLoc::new(mem_in, PadRef::Io);
        let mut acc_attrs = Some(DmaAttrs::variable(in_var));
        for (si, &c) in chunk.iter().enumerate() {
            let (mi, mp) = units[2 * si];
            let (ai, ap) = units[2 * si + 1];
            // The leading stage's acc is x itself, so it computes
            // coeffs[n-1]*x + c; every later stage computes acc*x + c.
            let mul = if si < lead {
                FuAssign::with_const(FuOp::Mul, coeffs[coeffs.len() - 1])
            } else {
                FuAssign::binary(FuOp::Mul)
            };
            d.assign_fu(mi, mp, mul).unwrap();
            d.assign_fu(ai, ap, FuAssign::with_const(FuOp::Add, c)).unwrap();
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
    fn geometry_numbers() {
        let g = JacobiGeometry::cube(8);
        assert_eq!(g.plane, 64);
        assert_eq!(g.points, 512);
        assert_eq!(g.padded, 512 + 128);
    }
}
