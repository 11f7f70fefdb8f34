//! Topology-aware domain decomposition of solver grids onto the hypercube.
//!
//! A [`Partition`] cuts a [`GridShape`] into one [`Part`] per node and
//! gives every distributed workload the same four-verb surface:
//! [`Partition::scatter`] / [`Partition::gather`] move whole fields
//! between a host array and the per-node slabs, [`Partition::word_offset`]
//! addresses a point inside a node's padded plane layout, and
//! [`Partition::halo_exchange`] refreshes the ghost layers of the axes a
//! [`HaloSpec`] names through the hyperspace router.
//!
//! One decomposition implements the trait: [`BlockPartition`], 2-D blocks
//! over a Gray-embedded [`TorusEmbedding`]. The two slowest axes are split
//! across the torus rows and columns, so every face exchange crosses
//! exactly one link; this is what lets multigrid's coarse levels stay
//! distributed. *Strips* — 1-D slabs of "planes" along the slowest axis
//! (xy-planes of a 3-D grid, rows of a 2-D one), the lowest
//! surface-to-volume for tall grids — are its one-column torus, whose rows
//! lie on the Gray ring: [`PartitionSpec::Strip`] builds them, and
//! [`StripPartition`] names them.
//!
//! A partition lists its interior part boundaries once, when it is built
//! ([`Partition::boundaries`]); the face exchange and the route
//! certificate ([`crate::halo_routes`]) both walk that list.
//!
//! Ghost cells always live *inside* the local slab (its outermost layers),
//! exactly where the NSC's stencil-padded memory layout expects halo data,
//! so a decomposed sweep is the same pipeline diagram as the serial one on
//! local geometry — and bit-identical to the serial sweep on the points a
//! node owns. Every halo is one layer deep, the reach of every stencil in
//! this crate.

use nsc_arch::{HypercubeConfig, NodeId, PlaneId, TorusEmbedding};
use nsc_core::NscError;
use nsc_sim::NscSystem;

/// The global index space a partition decomposes: `nx * ny * nz` points in
/// x-fastest order. Plane problems use `nz = 1`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GridShape {
    /// Points along x (the fastest axis).
    pub nx: usize,
    /// Points along y.
    pub ny: usize,
    /// Points along z (the slowest axis; 1 for 2-D grids).
    pub nz: usize,
}

impl GridShape {
    /// A 2-D plane problem.
    pub fn plane2d(nx: usize, ny: usize) -> Self {
        GridShape { nx, ny, nz: 1 }
    }

    /// A 3-D volume problem.
    pub fn volume3d(nx: usize, ny: usize, nz: usize) -> Self {
        GridShape { nx, ny, nz }
    }

    /// Total points.
    pub fn words(&self) -> usize {
        self.nx * self.ny * self.nz
    }

    /// Whether this is a plane problem.
    pub fn is_2d(&self) -> bool {
        self.nz == 1
    }

    /// Flat global index of `(i, j, k)`.
    pub fn index(&self, i: usize, j: usize, k: usize) -> usize {
        debug_assert!(i < self.nx && j < self.ny && k < self.nz);
        i + self.nx * (j + self.ny * k)
    }

    /// The slowest (stream-outermost) axis — the only axis along which a
    /// sweep pipeline can be *windowed* into contiguous layer ranges, and
    /// therefore the axis whose halo exchange the overlapped sweep engine
    /// can hide under interior compute (2 for volume grids, 1 for plane
    /// grids).
    pub fn overlap_axis(&self) -> usize {
        if self.is_2d() {
            1
        } else {
            2
        }
    }
}

/// One axis of one part: the owned global range plus the ghost layer
/// carried on each side (ghosts are part of the local slab).
#[derive(Debug, Clone, Copy)]
pub struct AxisSpan {
    /// First owned global index.
    pub start: usize,
    /// Owned points.
    pub len: usize,
    /// Ghost layers below `start` (0 on a domain boundary or unsplit axis,
    /// 1 on an interior boundary).
    pub lo_ghost: usize,
    /// Ghost layers above `start + len - 1`.
    pub hi_ghost: usize,
}

impl AxisSpan {
    /// An unsplit axis: the part sees all of it, no ghosts.
    pub fn whole(len: usize) -> Self {
        AxisSpan { start: 0, len, lo_ghost: 0, hi_ghost: 0 }
    }

    /// Local extent: owned plus ghosts.
    pub fn local_len(&self) -> usize {
        self.len + self.lo_ghost + self.hi_ghost
    }

    /// Global index of local position 0.
    pub fn local_start(&self) -> usize {
        self.start - self.lo_ghost
    }

    /// Local position of global index `g`.
    pub fn local_of(&self, g: usize) -> usize {
        debug_assert!(g >= self.local_start() && g < self.local_start() + self.local_len());
        g - self.local_start()
    }
}

/// One node's piece of a partition.
#[derive(Debug, Clone, Copy)]
pub struct Part {
    /// The hypercube node hosting this part.
    pub node: NodeId,
    /// Per-axis spans, in `[x, y, z]` order.
    pub spans: [AxisSpan; 3],
}

impl Part {
    /// Local slab extents `(lnx, lny, lnz)`, ghosts included.
    pub fn local_shape(&self) -> (usize, usize, usize) {
        (self.spans[0].local_len(), self.spans[1].local_len(), self.spans[2].local_len())
    }

    /// Local slab size in words.
    pub fn local_words(&self) -> usize {
        let (a, b, c) = self.local_shape();
        a * b * c
    }

    /// Flat local index of local coordinates `(lx, ly, lz)`.
    pub fn local_index(&self, lx: usize, ly: usize, lz: usize) -> usize {
        let (lnx, lny, _) = self.local_shape();
        debug_assert!(lx < lnx && ly < lny && lz < self.spans[2].local_len());
        lx + lnx * (ly + lny * lz)
    }

    /// Flat local index of *global* coordinates `(i, j, k)` (which must
    /// fall inside the local slab, ghosts included).
    pub fn local_flat_of_global(&self, i: usize, j: usize, k: usize) -> usize {
        self.local_index(
            self.spans[0].local_of(i),
            self.spans[1].local_of(j),
            self.spans[2].local_of(k),
        )
    }

    /// The owned global range along `axis`, clipped to the grid interior
    /// `[1, extent - 1)` — the points a stencil updates.
    pub fn owned_interior(&self, axis: usize, extent: usize) -> std::ops::Range<usize> {
        let sp = &self.spans[axis];
        sp.start.max(1)..(sp.start + sp.len).min(extent - 1)
    }

    /// Iterate the x-contiguous runs covering one layer of this part — the
    /// cells with global index `g` along `axis`, over the part's full
    /// local extent of the other axes — as `(flat local start, run
    /// length)` pairs. This is the shared face walk behind both the
    /// router-resident face exchange and the host-side halo staging.
    pub fn face_runs(&self, axis: usize, g: usize, mut f: impl FnMut(usize, usize)) {
        let (lnx, lny, lnz) = self.local_shape();
        let a = self.spans[axis].local_of(g);
        match axis {
            0 => {
                for lz in 0..lnz {
                    for ly in 0..lny {
                        f(self.local_index(a, ly, lz), 1);
                    }
                }
            }
            1 => {
                for lz in 0..lnz {
                    f(self.local_index(0, a, lz), lnx);
                }
            }
            _ => f(self.local_index(0, 0, a), lnx * lny),
        }
    }

    /// Split this part's sweep along `axis` into latency-hiding phases:
    /// an *interior* window whose stencils read no ghost layer, plus up to
    /// one one-layer *boundary-shell* window per ghost face. Windows cover
    /// exactly the part's **owned** layers, each once — pure ghost layers
    /// are computed by their owning neighbour, and their stale copies are
    /// overwritten by the next halo exchange before anything reads them.
    /// When the shells would overlap (a slab too thin to have an
    /// interior), the whole owned range folds into a single shell-phase
    /// window. The halo argument is unused: every halo is one layer deep.
    pub fn overlap_split(&self, axis: usize, _halo: &HaloSpec) -> SweepSplit {
        let sp = &self.spans[axis];
        let lo_len = usize::from(sp.lo_ghost > 0);
        let hi_len = usize::from(sp.hi_ghost > 0);
        let owned = sp.lo_ghost..sp.lo_ghost + sp.len;
        if lo_len + hi_len == 0 {
            return SweepSplit {
                interior: Some(SweepWindow { start: owned.start, len: sp.len, slot: 0 }),
                lo: None,
                hi: None,
            };
        }
        if lo_len + hi_len >= sp.len {
            // No interior to hide behind: the whole owned range is one
            // merged shell-phase window (it reads ghosts on both sides).
            // One instruction beats two adjacent shells — each window
            // pays its own warm-up and setup.
            return SweepSplit {
                interior: None,
                lo: Some(SweepWindow { start: owned.start, len: sp.len, slot: 0 }),
                hi: None,
            };
        }
        let lo = (lo_len > 0).then_some(SweepWindow {
            start: owned.start,
            len: lo_len,
            slot: SweepWindow::LO_SLOT,
        });
        let hi = (hi_len > 0).then_some(SweepWindow {
            start: owned.end - hi_len,
            len: hi_len,
            slot: SweepWindow::HI_SLOT,
        });
        let interior_len = sp.len - lo_len - hi_len;
        let interior = (interior_len > 0).then_some(SweepWindow {
            start: owned.start + lo_len,
            len: interior_len,
            slot: 0,
        });
        SweepSplit { interior, lo, hi }
    }
}

/// One output window of a split sweep: a contiguous run of *layers* along
/// the overlap axis (xy-planes of a 3-D slab, rows of a 2-D one), in
/// local layer coordinates (ghost layers count in the numbering). The
/// windowed sweep builders turn one of these into one pipeline
/// instruction streaming only the layers the window needs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct SweepWindow {
    /// First local layer of the window.
    pub start: usize,
    /// Layers in the window.
    pub len: usize,
    /// Cache slot receiving this window's residual scalar.
    pub slot: u64,
}

impl SweepWindow {
    /// Residual slot of the low boundary shell.
    pub const LO_SLOT: u64 = 1;
    /// Residual slot of the high boundary shell.
    pub const HI_SLOT: u64 = 2;

    /// The window covering all `layers` of a slab (a single-instruction
    /// sweep, as the serial documents run).
    pub fn whole(layers: usize) -> Self {
        SweepWindow { start: 0, len: layers, slot: 0 }
    }
}

/// How one part's sweep splits into latency-hiding phases along the
/// overlap axis (see [`Part::overlap_split`]). The windows are disjoint
/// and cover the part's owned layers exactly once.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SweepSplit {
    /// The ghost-independent interior (`None` when the slab is too thin).
    pub interior: Option<SweepWindow>,
    /// The shell against the low ghost face — or, when the slab has no
    /// interior, the single merged shell-phase window.
    pub lo: Option<SweepWindow>,
    /// The shell against the high ghost face.
    pub hi: Option<SweepWindow>,
}

impl SweepSplit {
    /// All windows, ascending by start layer.
    pub fn windows(&self) -> impl Iterator<Item = SweepWindow> + '_ {
        [self.lo, self.interior, self.hi].into_iter().flatten()
    }

    /// The shell-phase windows (everything that reads ghost layers).
    pub fn shell_windows(&self) -> Vec<SweepWindow> {
        [self.lo, self.hi].into_iter().flatten().collect()
    }
}

/// Which axes a halo exchange refreshes: one ghost layer on both sides of
/// every interior part boundary along each selected axis.
///
/// An axis a partition does not split has no boundaries, so one spec (the
/// default [`HaloSpec::stencil`]) serves strips and blocks alike.
#[derive(Debug, Clone, Copy)]
pub struct HaloSpec {
    /// `axes[axis]`: refresh the ghosts along that axis.
    pub axes: [bool; 3],
}

impl HaloSpec {
    /// The five/seven-point stencil halo: every axis.
    pub fn stencil() -> Self {
        HaloSpec { axes: [true; 3] }
    }

    /// This spec restricted to a single axis (the portion of an exchange
    /// the overlapped engine hides under interior compute).
    pub fn only_axis(&self, axis: usize) -> Self {
        let mut axes = [false; 3];
        axes[axis] = self.axes[axis];
        HaloSpec { axes }
    }

    /// This spec without `axis` (the portion an overlapped sweep must
    /// still exchange synchronously).
    pub fn without_axis(&self, axis: usize) -> Self {
        let mut axes = self.axes;
        axes[axis] = false;
        HaloSpec { axes }
    }

    /// Whether any axis is selected at all.
    pub fn wants_any(&self) -> bool {
        self.axes.contains(&true)
    }
}

impl Default for HaloSpec {
    fn default() -> Self {
        Self::stencil()
    }
}

/// One interior part boundary: parts `lo` and `hi` (indices in partition
/// order, `lo < hi`) abut along `axis`, `lo` below, and each carries one
/// ghost layer of the other's owned points.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Boundary {
    /// The lower part.
    pub lo: usize,
    /// The upper part.
    pub hi: usize,
    /// The axis the two parts abut along.
    pub axis: usize,
}

/// The uniform surface of a domain decomposition.
///
/// [`BlockPartition`] decides *how* to cut the grid; workloads program
/// against this trait and stay decomposition-agnostic.
pub trait Partition: std::fmt::Debug + Send + Sync {
    /// The global grid.
    fn shape(&self) -> GridShape;

    /// The parts, one per participating node, in partition order (the
    /// order `scatter`/`gather` and compiled-program pools use).
    fn parts(&self) -> &[Part];

    /// Every interior part boundary, once, in (lower, upper) part order —
    /// the list both [`Partition::halo_exchange`] and the route
    /// certificate ([`crate::halo_routes`]) walk.
    fn boundaries(&self) -> &[Boundary];

    /// Refresh the ghost layers of the axes `spec` names on every interior
    /// part boundary: each boundary swaps its faces as one full-duplex
    /// sendrecv through the router, reading and writing the field stored
    /// in `plane` in the stencil layout. Axes go slowest first, and a face
    /// spans the ghost layers of the other axes, so a later axis carries
    /// the ghosts an earlier one just refreshed into the corners (the
    /// 27-point multigrid transfer operators read them). Returns the
    /// slowest per-node communication time of the step in nanoseconds
    /// (messages between disjoint node pairs overlap). A system lacking
    /// one of the partition's nodes is refused with [`NscError::Workload`]
    /// before any message is charged.
    fn halo_exchange(
        &self,
        system: &mut NscSystem,
        plane: PlaneId,
        spec: &HaloSpec,
    ) -> Result<u64, NscError> {
        check_partition_fits(self, system)?;
        let parts = self.parts();
        let mut per_node = vec![0u64; parts.len()];
        for axis in (0..3).rev().filter(|&a| spec.axes[a]) {
            // The word chunks of part `pi`'s layer at global index `g`
            // (extents match across a boundary, so the sender's face and
            // the receiver's ghost face pair up chunk for chunk).
            let chunks = |pi: usize, g: usize| {
                let (mut offs, mut len) = (Vec::new(), 0);
                parts[pi].face_runs(axis, g, |start, run| {
                    offs.push(self.word_offset(pi, start));
                    len = run as u64;
                });
                (offs, len)
            };
            for b in self.boundaries().iter().filter(|b| b.axis == axis) {
                // The lower part's top owned layer fills the upper part's
                // low ghost, and the upper part's bottom owned layer the
                // lower part's high ghost.
                let bottom = parts[b.hi].spans[axis].start;
                let (lo_send, chunk) = chunks(b.lo, bottom - 1);
                let (hi_recv, _) = chunks(b.hi, bottom - 1);
                let (hi_send, _) = chunks(b.hi, bottom);
                let (lo_recv, _) = chunks(b.lo, bottom);
                let ns = system.exchange_face_bidirectional(
                    parts[b.lo].node,
                    plane,
                    &lo_send,
                    &lo_recv,
                    parts[b.hi].node,
                    plane,
                    &hi_send,
                    &hi_recv,
                    chunk,
                );
                per_node[b.lo] += ns;
                per_node[b.hi] += ns;
            }
        }
        Ok(per_node.into_iter().max().unwrap_or(0))
    }

    /// Word offset of flat local index `word` of a part inside a plane in
    /// the stencil layout, which places one *pad unit* before the slab
    /// data: the warm-up block of the part's stencil stream, one local
    /// xy-plane for volume grids and one local row for plane grids.
    fn word_offset(&self, part: usize, word: usize) -> u64 {
        let (lnx, lny, _) = self.parts()[part].local_shape();
        let pad = if self.shape().is_2d() { lnx } else { lnx * lny };
        (pad + word) as u64
    }

    /// Split a flat global field (x-fastest, `shape().words()` words) into
    /// per-part local slabs, ghost cells included.
    fn scatter(&self, words: &[f64]) -> Vec<Vec<f64>> {
        let s = self.shape();
        assert_eq!(words.len(), s.words(), "global field size");
        self.parts()
            .iter()
            .map(|p| {
                let (lnx, lny, lnz) = p.local_shape();
                let mut out = Vec::with_capacity(lnx * lny * lnz);
                let gx0 = p.spans[0].local_start();
                for lz in 0..lnz {
                    let gz = p.spans[2].local_start() + lz;
                    for ly in 0..lny {
                        let gy = p.spans[1].local_start() + ly;
                        let base = s.index(gx0, gy, gz);
                        out.extend_from_slice(&words[base..base + lnx]);
                    }
                }
                out
            })
            .collect()
    }

    /// Reassemble a global field from per-part local slabs, taking only
    /// the points each part owns (ghosts are dropped).
    fn gather(&self, locals: &[Vec<f64>]) -> Vec<f64> {
        let s = self.shape();
        let parts = self.parts();
        assert_eq!(locals.len(), parts.len(), "one slab per part");
        let mut out = vec![0.0; s.words()];
        for (p, local) in parts.iter().zip(locals) {
            assert_eq!(local.len(), p.local_words(), "slab size of part on {}", p.node);
            let [sx, sy, sz] = p.spans;
            for gz in sz.start..sz.start + sz.len {
                for gy in sy.start..sy.start + sy.len {
                    let from =
                        p.local_index(sx.local_of(sx.start), sy.local_of(gy), sz.local_of(gz));
                    let to = s.index(sx.start, gy, gz);
                    out[to..to + sx.len].copy_from_slice(&local[from..from + sx.len]);
                }
            }
        }
        out
    }

    /// The part nodes, in partition order: the member list for pool-wide
    /// reductions, and (through [`NodeId::index`]) the nodes of the lanes
    /// [`nsc_core::run_lanes`] runs, part `i`'s program on part `i`'s node.
    fn member_nodes(&self) -> Vec<NodeId> {
        self.parts().iter().map(|p| p.node).collect()
    }
}

/// Refuse a system that lacks a node the partition places a part on —
/// before any plane is written or any message charged.
pub(crate) fn check_partition_fits(
    partition: &(impl Partition + ?Sized),
    system: &NscSystem,
) -> Result<(), NscError> {
    let nodes = system.node_count();
    match partition.parts().iter().find(|p| p.node.index() >= nodes) {
        Some(p) => Err(NscError::Workload(format!(
            "the partition places a part on node {}, but the system has {nodes} node(s)",
            p.node
        ))),
        None => Ok(()),
    }
}

/// Refuse host slabs that are not one slab of [`Part::local_words`] words
/// per part, in partition order.
pub(crate) fn check_one_slab_per_part(
    partition: &dyn Partition,
    slabs: &[Vec<f64>],
) -> Result<(), NscError> {
    let parts = partition.parts();
    let one_slab_per_part = slabs.len() == parts.len()
        && parts.iter().zip(slabs).all(|(p, s)| s.len() == p.local_words());
    if one_slab_per_part {
        return Ok(());
    }
    Err(NscError::Workload(format!(
        "{} parts want one slab of each part's local words per part, got {} slab(s)",
        parts.len(),
        slabs.len()
    )))
}

/// Read every part's full local slab (ghost layers included) back from
/// `plane`, in partition order — the common readback step of every
/// distributed driver.
pub fn read_slabs(partition: &dyn Partition, system: &NscSystem, plane: PlaneId) -> Vec<Vec<f64>> {
    partition
        .parts()
        .iter()
        .enumerate()
        .map(|(pi, p)| {
            system
                .node(p.node)
                .mem
                .plane(plane)
                .read_vec(partition.word_offset(pi, 0), p.local_words() as u64)
        })
        .collect()
}

/// Host-resident halo exchange: stage each slab's owned boundary faces
/// into `plane`, swap them through the router, and pull the refreshed
/// ghost faces back into the host-side slabs. This is how host-computed
/// block solvers (block SOR, multigrid transfer operators) pay the same
/// communication model as the machine-resident sweeps. Returns the
/// slowest per-node communication time in nanoseconds.
///
/// `slabs` must hold one slab of [`Part::local_words`] words per part, in
/// partition order, and `system` every node the partition uses; otherwise
/// the exchange is refused with [`NscError::Workload`] before any face is
/// staged.
pub fn host_halo_exchange(
    partition: &dyn Partition,
    system: &mut NscSystem,
    plane: PlaneId,
    slabs: &mut [Vec<f64>],
    spec: &HaloSpec,
) -> Result<u64, NscError> {
    check_one_slab_per_part(partition, slabs)?;
    check_partition_fits(partition, system)?;
    // Across each boundary the exchange walks, the lower part's top owned
    // layer (`bottom - 1`) and the upper part's bottom owned layer
    // (`bottom`) travel: stage both, then pull back the ghost copy each
    // part receives.
    let faces = || {
        partition
            .boundaries()
            .iter()
            .filter(|b| spec.axes[b.axis])
            .map(|b| (b, partition.parts()[b.hi].spans[b.axis].start))
    };
    for (b, bottom) in faces() {
        stage_layer(partition, system, plane, slabs, b.lo, b.axis, bottom - 1);
        stage_layer(partition, system, plane, slabs, b.hi, b.axis, bottom);
    }
    let ns = partition.halo_exchange(system, plane, spec)?;
    for (b, bottom) in faces() {
        pull_layer(partition, system, plane, slabs, b.lo, b.axis, bottom);
        pull_layer(partition, system, plane, slabs, b.hi, b.axis, bottom - 1);
    }
    Ok(ns)
}

/// Copy one host-slab layer into the staged plane image.
fn stage_layer(
    partition: &dyn Partition,
    system: &mut NscSystem,
    plane: PlaneId,
    slabs: &[Vec<f64>],
    pi: usize,
    axis: usize,
    g: usize,
) {
    let p = &partition.parts()[pi];
    p.face_runs(axis, g, |start, len| {
        let off = partition.word_offset(pi, start);
        system
            .node_mut(p.node)
            .mem
            .plane_mut(plane)
            .write_slice(off, &slabs[pi][start..start + len]);
    });
}

/// Copy one refreshed plane layer back into the host slab.
fn pull_layer(
    partition: &dyn Partition,
    system: &mut NscSystem,
    plane: PlaneId,
    slabs: &mut [Vec<f64>],
    pi: usize,
    axis: usize,
    g: usize,
) {
    let p = &partition.parts()[pi];
    p.face_runs(axis, g, |start, len| {
        let off = partition.word_offset(pi, start);
        let words = system.node(p.node).mem.plane(plane).read_vec(off, len as u64);
        slabs[pi][start..start + len].copy_from_slice(&words);
    });
}

/// Split `items` points along one axis into `parts` balanced owned
/// ranges, then donate points toward the edges so every part's local slab
/// (owned + ghosts) can hold the three layers a stencil sweep needs: the
/// edge parts carry a ghost on one side only, so they need two owned
/// layers where an interior part gets by with one.
fn split_axis(items: usize, parts: usize) -> Vec<usize> {
    let base = items / parts;
    let rem = items % parts;
    let mut sizes: Vec<usize> = (0..parts).map(|i| base + usize::from(i < rem)).collect();
    let last = parts - 1;
    for edge in [last, 0] {
        if last > 0 && sizes[edge] < 2 {
            let donor = (0..sizes.len())
                .filter(|&i| i != edge)
                .filter(|&i| sizes[i] > if i == 0 || i == last { 2 } else { 1 })
                .max_by_key(|&i| sizes[i]);
            if let Some(d) = donor {
                sizes[d] -= 1;
                sizes[edge] += 1;
            }
        }
    }
    sizes
}

/// Sizes to `(start, len, lo_ghost, hi_ghost)` spans with one ghost layer
/// on every interior side.
fn spans_from_sizes(sizes: &[usize]) -> Vec<AxisSpan> {
    let last = sizes.len() - 1;
    let mut start = 0;
    sizes
        .iter()
        .enumerate()
        .map(|(i, &len)| {
            let s = AxisSpan {
                start,
                len,
                lo_ghost: usize::from(i > 0),
                hi_ghost: usize::from(i < last),
            };
            start += len;
            s
        })
        .collect()
}

/// Refuse a cut that leaves some part (on the node `nodes` names for its
/// span) fewer than the three local layers a stencil sweep needs along
/// `axis`. An unsplit axis is one span over its whole extent.
fn check_sweepable(
    axis: usize,
    spans: &[AxisSpan],
    nodes: impl Fn(usize) -> NodeId,
) -> Result<(), NscError> {
    if let Some((i, thin)) = spans.iter().enumerate().find(|(_, s)| s.local_len() < 3 || s.len == 0)
    {
        return Err(NscError::Workload(format!(
            "grid too thin along {}: cut {} way(s), it leaves node {} a {}-layer slab (a \
             stencil sweep needs 3)",
            ["x", "y", "z"][axis],
            spans.len(),
            nodes(i),
            thin.local_len(),
        )));
    }
    Ok(())
}

/// 1-D strips of planes along the slowest axis: the one-column
/// [`BlockPartition`], whose torus rows lie on the Gray ring, so strip `i`
/// lives on [`HypercubeConfig::ring_node`]`(i)` and every halo message
/// crosses one link. Everything but the constructor forwards to the block
/// partition; [`PartitionSpec::Strip`] builds the same partition unwrapped.
#[derive(Debug, Clone)]
pub struct StripPartition(BlockPartition);

impl StripPartition {
    /// Partition `shape` into one strip per node of `cube`, balanced to
    /// within one plane, with one ghost layer per interior side. Fails
    /// when the grid is too thin for every strip to be sweepable.
    pub fn new(shape: GridShape, cube: HypercubeConfig) -> Result<Self, NscError> {
        BlockPartition::new(shape, cube.torus2d(cube.nodes(), 1)).map(StripPartition)
    }
}

impl Partition for StripPartition {
    fn shape(&self) -> GridShape {
        self.0.shape()
    }

    fn parts(&self) -> &[Part] {
        self.0.parts()
    }

    fn boundaries(&self) -> &[Boundary] {
        self.0.boundaries()
    }
}

/// 2-D blocks over a Gray-embedded torus: the slowest axis is split across
/// the torus *rows*, the second-slowest across its *columns* (`(y, x)` for
/// plane grids, `(z, y)` for volume grids; x stays whole in 3-D so every
/// local row streams contiguously). Torus-adjacent blocks are hypercube
/// neighbours, so every face exchange crosses exactly one link. A
/// one-column torus cuts strips.
///
/// ```
/// use nsc_arch::HypercubeConfig;
/// use nsc_cfd::{BlockPartition, GridShape, HaloSpec, Partition};
///
/// // A 17x17 plane cut into 2x2 blocks on a 4-node cube.
/// let cube = HypercubeConfig::new(2);
/// let blocks = BlockPartition::new(GridShape::plane2d(17, 17), cube.torus2d(2, 2))?;
///
/// // Every part owns a block plus one ghost layer per interior face, and
/// // torus-adjacent blocks sit one router hop apart.
/// assert_eq!(blocks.parts().len(), 4);
/// let p = blocks.part_at(0, 0);
/// assert_eq!((p.spans[0].len, p.spans[1].len), (9, 9));
/// assert_eq!(cube.hops(p.node, blocks.part_at(0, 1).node), 1);
///
/// // scatter splits a global field into local slabs (ghosts included);
/// // gather reassembles it from the owned points.
/// let field: Vec<f64> = (0..17 * 17).map(|w| w as f64).collect();
/// let slabs = blocks.scatter(&field);
/// assert_eq!(slabs[0].len(), p.local_words());
/// assert_eq!(blocks.gather(&slabs), field);
///
/// // Between solver sweeps, HaloSpec::stencil() refreshes one ghost
/// // layer on every interior face through the hyperspace router:
/// // `blocks.halo_exchange(&mut system, plane, &HaloSpec::stencil())`.
/// let _ = HaloSpec::stencil();
/// # Ok::<(), nsc_core::NscError>(())
/// ```
#[derive(Debug, Clone)]
pub struct BlockPartition {
    shape: GridShape,
    /// The torus hosting the blocks.
    pub torus: TorusEmbedding,
    parts: Vec<Part>,
    boundaries: Vec<Boundary>,
    /// The axis split across torus rows (2 for 3-D, 1 for 2-D).
    row_axis: usize,
    /// The axis split across torus columns (1 for 3-D, 0 for 2-D).
    col_axis: usize,
}

impl BlockPartition {
    /// Partition `shape` into one block per torus position, each axis
    /// balanced to within one layer, with one ghost layer per interior
    /// face. Part order is row-major over the torus. Fails when any block
    /// would be too thin to sweep.
    pub fn new(shape: GridShape, torus: TorusEmbedding) -> Result<Self, NscError> {
        let row_sizes = split_axis(if shape.is_2d() { shape.ny } else { shape.nz }, torus.rows());
        let col_sizes = split_axis(if shape.is_2d() { shape.nx } else { shape.ny }, torus.cols());
        Self::from_sizes(shape, torus, &row_sizes, &col_sizes)
    }

    /// Partition with explicit per-axis owned sizes — the hook multigrid
    /// uses to *derive* a coarse level's partition from the fine level's,
    /// so restriction and prolongation reach no further than one ghost
    /// layer across block boundaries. Fails when any block would have
    /// fewer than three local layers along any axis of the grid (z of a
    /// plane grid excepted), split or not.
    pub fn from_sizes(
        shape: GridShape,
        torus: TorusEmbedding,
        row_sizes: &[usize],
        col_sizes: &[usize],
    ) -> Result<Self, NscError> {
        assert_eq!(row_sizes.len(), torus.rows(), "one row size per torus row");
        assert_eq!(col_sizes.len(), torus.cols(), "one column size per torus column");
        let (row_axis, col_axis) = if shape.is_2d() { (1, 0) } else { (2, 1) };
        let row_spans = spans_from_sizes(row_sizes);
        let col_spans = spans_from_sizes(col_sizes);
        check_sweepable(row_axis, &row_spans, |r| torus.node(r, 0))?;
        check_sweepable(col_axis, &col_spans, |c| torus.node(0, c))?;
        if !shape.is_2d() {
            check_sweepable(0, &[AxisSpan::whole(shape.nx)], |_| torus.node(0, 0))?;
        }
        let cols = col_spans.len();
        let mut parts = Vec::with_capacity(torus.len());
        let mut boundaries = Vec::new();
        for (r, &row_span) in row_spans.iter().enumerate() {
            for (c, &col_span) in col_spans.iter().enumerate() {
                let mut spans = [
                    AxisSpan::whole(shape.nx),
                    AxisSpan::whole(shape.ny),
                    AxisSpan::whole(shape.nz),
                ];
                spans[row_axis] = row_span;
                spans[col_axis] = col_span;
                // This block's boundaries with its upper neighbours, the
                // next column's before the next row's: the list comes out
                // in (lower, upper) part order.
                let i = parts.len();
                if c + 1 < cols {
                    boundaries.push(Boundary { lo: i, hi: i + 1, axis: col_axis });
                }
                if r + 1 < row_spans.len() {
                    boundaries.push(Boundary { lo: i, hi: i + cols, axis: row_axis });
                }
                parts.push(Part { node: torus.node(r, c), spans });
            }
        }
        Ok(BlockPartition { shape, torus, parts, boundaries, row_axis, col_axis })
    }

    /// The part at torus position `(r, c)` (row-major order).
    pub fn part_at(&self, r: usize, c: usize) -> &Part {
        &self.parts[r * self.torus.cols() + c]
    }

    /// The owned sizes along the row-split axis, in torus-row order.
    pub fn row_sizes(&self) -> Vec<usize> {
        (0..self.torus.rows()).map(|r| self.part_at(r, 0).spans[self.row_axis].len).collect()
    }

    /// The owned sizes along the column-split axis, in torus-column order.
    pub fn col_sizes(&self) -> Vec<usize> {
        (0..self.torus.cols()).map(|c| self.part_at(0, c).spans[self.col_axis].len).collect()
    }
}

impl Partition for BlockPartition {
    fn shape(&self) -> GridShape {
        self.shape
    }

    fn parts(&self) -> &[Part] {
        &self.parts
    }

    fn boundaries(&self) -> &[Boundary] {
        &self.boundaries
    }
}

/// Which decomposition a distributed workload should use.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum PartitionSpec {
    /// Pick per workload: strips for tall 3-D iteration grids (lowest
    /// surface-to-volume), blocks when the cube has both torus axes to
    /// offer (dimension >= 2) and the grid is plane-shaped or coarsens.
    #[default]
    Auto,
    /// Force strips: the [`BlockPartition`] on a one-column torus.
    Strip,
    /// Force [`BlockPartition`] on the near-square torus of the cube.
    Block,
}

impl PartitionSpec {
    /// Build the partition for `shape` on `cube`. `Auto` resolves to the
    /// workload's preference (`prefer_block`) when the cube can host it.
    pub fn build(
        self,
        shape: GridShape,
        cube: HypercubeConfig,
        prefer_block: bool,
    ) -> Result<Box<dyn Partition>, NscError> {
        let block = self == PartitionSpec::Block
            || (self == PartitionSpec::Auto && prefer_block && cube.dimension >= 2);
        let torus = if block { cube.torus2d_near_square() } else { cube.torus2d(cube.nodes(), 1) };
        Ok(Box::new(BlockPartition::new(shape, torus)?))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nsc_arch::{KnowledgeBase, MachineConfig};

    fn system(dim: u32) -> NscSystem {
        let kb = KnowledgeBase::new(MachineConfig::test_small());
        NscSystem::new(HypercubeConfig::new(dim), &kb)
    }

    #[test]
    fn strips_cover_the_grid_contiguously_on_adjacent_nodes() {
        let cube = HypercubeConfig::new(3);
        let d = StripPartition::new(GridShape::volume3d(5, 5, 21), cube).expect("decomposes");
        assert_eq!(d.parts().len(), 8);
        let strip_boundaries = (0..7).map(|i| Boundary { lo: i, hi: i + 1, axis: 2 });
        assert!(d.boundaries().iter().copied().eq(strip_boundaries), "{:?}", d.boundaries());
        assert_eq!(d.parts().iter().map(|p| p.spans[2].len).sum::<usize>(), 21);
        for w in d.parts().windows(2) {
            assert_eq!(cube.hops(w[0].node, w[1].node), 1, "adjacent strips, adjacent nodes");
        }
        let mut next = 0;
        for (i, p) in d.parts().iter().enumerate() {
            let s = p.spans[2];
            assert_eq!(s.start, next);
            next += s.len;
            assert!(s.local_len() >= 3);
            assert_eq!(s.lo_ghost, usize::from(i > 0));
            assert_eq!(s.hi_ghost, usize::from(i < 7));
            assert_eq!(p.spans[0].local_len(), 5, "x stays whole");
            assert_eq!(p.spans[1].local_len(), 5, "y stays whole");
        }
    }

    #[test]
    fn edge_strips_borrow_planes_to_stay_sweepable() {
        // 11 planes, 8 nodes: the balanced split leaves the last strip one
        // plane; an interior strip donates so both edges own two.
        let cube = HypercubeConfig::new(3);
        for planes in [10, 11, 12] {
            let d = StripPartition::new(GridShape::volume3d(4, 3, planes), cube).expect("splits");
            assert_eq!(d.parts().iter().map(|p| p.spans[2].len).sum::<usize>(), planes);
            assert!(d.parts().iter().all(|p| p.spans[2].local_len() >= 3), "{planes} planes");
        }
    }

    #[test]
    fn too_thin_grids_are_rejected_with_the_node_named() {
        let cube = HypercubeConfig::new(3);
        let err =
            StripPartition::new(GridShape::volume3d(4, 4, 8), cube).expect_err("1-plane edges");
        assert!(matches!(err, NscError::Workload(_)), "{err}");
        assert!(err.to_string().contains("3"), "{err}");

        let torus = HypercubeConfig::new(4).torus2d(4, 4);
        let err = BlockPartition::new(GridShape::plane2d(5, 30), torus)
            .expect_err("5 columns across 4 can't sweep");
        assert!(matches!(err, NscError::Workload(_)), "{err}");
    }

    #[test]
    fn every_axis_needs_three_local_layers_split_or_not() {
        // Unsplit axes are checked too: a one-node strip or a 1x1 block
        // partition refuses a two-layer side, and so do strips whose
        // whole x side is two points wide.
        let one = HypercubeConfig::new(0);
        for (shape, cube, block) in [
            (GridShape::plane2d(2, 9), one, false),
            (GridShape::plane2d(9, 2), one, true),
            (GridShape::volume3d(4, 4, 2), one, true),
            (GridShape::volume3d(2, 4, 8), HypercubeConfig::new(1), false),
            (GridShape::volume3d(4, 2, 8), HypercubeConfig::new(1), false),
        ] {
            let spec = if block { PartitionSpec::Block } else { PartitionSpec::Strip };
            let err = spec.build(shape, cube, block).expect_err("a two-layer side");
            assert!(matches!(err, NscError::Workload(_)), "{shape:?}: {err}");
            assert!(err.to_string().contains("needs 3"), "{err}");
        }
        // A plane grid's single z layer is no side at all.
        assert!(PartitionSpec::Strip.build(GridShape::plane2d(3, 3), one, false).is_ok());
    }

    #[test]
    fn strip_scatter_gather_round_trips_and_overlaps_ghosts() {
        let cube = HypercubeConfig::new(2);
        let d = StripPartition::new(GridShape::plane2d(3, 10), cube).expect("decomposes");
        let global: Vec<f64> = (0..30).map(|x| x as f64).collect();
        let locals = d.scatter(&global);
        // Middle strips see one ghost row on each side.
        let s1 = d.parts()[1].spans[1];
        assert_eq!(locals[1].len(), s1.local_len() * 3);
        assert_eq!(locals[1][0], (s1.local_start() * 3) as f64, "low ghost holds the neighbour");
        assert_eq!(d.gather(&locals), global);
    }

    #[test]
    fn block_scatter_gather_round_trips() {
        let torus = HypercubeConfig::new(2).torus2d(2, 2);
        for shape in [GridShape::plane2d(11, 9), GridShape::volume3d(4, 9, 11)] {
            let d = BlockPartition::new(shape, torus).expect("decomposes");
            let global: Vec<f64> = (0..shape.words()).map(|x| x as f64 * 0.5).collect();
            let locals = d.scatter(&global);
            for (p, local) in d.parts().iter().zip(&locals) {
                assert_eq!(local.len(), p.local_words());
                // Spot-check: the first local word is the global value at
                // the part's local origin (ghosts included).
                let g = shape.index(
                    p.spans[0].local_start(),
                    p.spans[1].local_start(),
                    p.spans[2].local_start(),
                );
                assert_eq!(local[0], global[g]);
            }
            assert_eq!(d.gather(&locals), global, "{shape:?}");
        }
    }

    #[test]
    fn boundaries_list_every_abutting_part_pair_once_in_part_order() {
        // The list against a scan of every ordered part pair: `lo` is
        // `hi`'s lower neighbour along `axis` when their owned ranges abut
        // there and coincide on every other axis.
        let cube = HypercubeConfig::new(3);
        for (shape, torus) in [
            (GridShape::plane2d(17, 13), cube.torus2d(4, 2)),
            (GridShape::volume3d(5, 9, 11), cube.torus2d(2, 4)),
            (GridShape::volume3d(5, 5, 21), cube.torus2d(8, 1)),
        ] {
            let d = BlockPartition::new(shape, torus).expect("decomposes");
            let parts = d.parts();
            let mut scanned = Vec::new();
            for lo in 0..parts.len() {
                for hi in 0..parts.len() {
                    let (a, b) = (&parts[lo].spans, &parts[hi].spans);
                    let abuts = |axis: usize| {
                        a[axis].start + a[axis].len == b[axis].start
                            && (0..3)
                                .filter(|&o| o != axis)
                                .all(|o| (a[o].start, a[o].len) == (b[o].start, b[o].len))
                    };
                    if let Some(axis) = (0..3).find(|&axis| abuts(axis)) {
                        scanned.push(Boundary { lo, hi, axis });
                    }
                }
            }
            assert_eq!(d.boundaries(), scanned.as_slice(), "{shape:?}");
            for b in d.boundaries() {
                assert_eq!(
                    (parts[b.lo].spans[b.axis].hi_ghost, parts[b.hi].spans[b.axis].lo_ghost),
                    (1, 1)
                );
            }
        }
    }

    #[test]
    fn block_parts_sit_on_torus_neighbours() {
        let cube = HypercubeConfig::new(4);
        let torus = cube.torus2d(4, 4);
        let d = BlockPartition::new(GridShape::plane2d(17, 17), torus).expect("decomposes");
        assert_eq!(d.parts().len(), 16);
        let (rows, cols) = (4, 4);
        for r in 0..rows {
            for c in 0..cols {
                let here = d.part_at(r, c).node;
                if r + 1 < rows {
                    assert_eq!(cube.hops(here, d.part_at(r + 1, c).node), 1);
                }
                if c + 1 < cols {
                    assert_eq!(cube.hops(here, d.part_at(r, c + 1).node), 1);
                }
            }
        }
        // Owned ranges tile the grid.
        let mut seen = vec![false; 17 * 17];
        for p in d.parts() {
            for j in p.spans[1].start..p.spans[1].start + p.spans[1].len {
                for i in p.spans[0].start..p.spans[0].start + p.spans[0].len {
                    assert!(!seen[i + 17 * j], "({i},{j}) owned twice");
                    seen[i + 17 * j] = true;
                }
            }
        }
        assert!(seen.iter().all(|&s| s), "every point owned");
    }

    /// Write each part's slab with a function of global coordinates, with
    /// ghosts set to a sentinel; after halo exchange every ghost cell —
    /// corners included — must hold the owner's value.
    fn check_ghosts_after_exchange(d: &dyn Partition, sys: &mut NscSystem, spec: &HaloSpec) {
        let s = d.shape();
        let plane = PlaneId(0);
        let value = |i: usize, j: usize, k: usize| (s.index(i, j, k)) as f64 + 0.25;
        for (pi, p) in d.parts().iter().enumerate() {
            let (lnx, lny, lnz) = p.local_shape();
            for lz in 0..lnz {
                for ly in 0..lny {
                    for lx in 0..lnx {
                        let owned = |a: usize, sp: &AxisSpan| {
                            let g = sp.local_start() + a;
                            g >= sp.start && g < sp.start + sp.len
                        };
                        if owned(lx, &p.spans[0])
                            && owned(ly, &p.spans[1])
                            && owned(lz, &p.spans[2])
                        {
                            let off = d.word_offset(pi, p.local_index(lx, ly, lz));
                            sys.node_mut(p.node).mem.plane_mut(plane).write_slice(
                                off,
                                &[value(
                                    p.spans[0].local_start() + lx,
                                    p.spans[1].local_start() + ly,
                                    p.spans[2].local_start() + lz,
                                )],
                            );
                        }
                    }
                }
            }
        }
        d.halo_exchange(sys, plane, spec).expect("the system holds every part");
        let mut ghosts_checked = 0;
        for (pi, p) in d.parts().iter().enumerate() {
            let (lnx, lny, lnz) = p.local_shape();
            for lz in 0..lnz {
                for ly in 0..lny {
                    for lx in 0..lnx {
                        let (gi, gj, gk) = (
                            p.spans[0].local_start() + lx,
                            p.spans[1].local_start() + ly,
                            p.spans[2].local_start() + lz,
                        );
                        // A ghost cell on any axis (faces and corners) must
                        // now hold its owner's value.
                        let ghost = (0..3).any(|a| {
                            let g = [gi, gj, gk][a];
                            let sp = &p.spans[a];
                            g < sp.start || g >= sp.start + sp.len
                        });
                        if !ghost {
                            continue;
                        }
                        let got = sys
                            .node(p.node)
                            .mem
                            .plane(plane)
                            .read_vec(d.word_offset(pi, p.local_index(lx, ly, lz)), 1)[0];
                        assert_eq!(
                            got.to_bits(),
                            value(gi, gj, gk).to_bits(),
                            "ghost ({gi},{gj},{gk}) of part {pi}"
                        );
                        ghosts_checked += 1;
                    }
                }
            }
        }
        assert!(ghosts_checked > 0, "the partition had interior boundaries");
    }

    #[test]
    fn strip_halo_exchange_fills_ghost_planes_and_charges_the_router() {
        let mut sys = system(2); // 4 nodes
        let d = StripPartition::new(GridShape::volume3d(3, 3, 9), sys.cube).expect("decomposes");
        let before = sys.comm_ns;
        check_ghosts_after_exchange(&d, &mut sys, &HaloSpec::stencil());
        // 3 interior boundaries x 2 messages of one plane over 1 hop each.
        let msg = sys.cube.router.message_ns(1, 9);
        assert_eq!(sys.comm_ns - before, 6 * msg, "serialized view counts every message");
        assert_eq!(sys.node(d.parts()[0].node).counters.comm_ns, msg, "edge strip: one partner");
        assert_eq!(sys.node(d.parts()[1].node).counters.comm_ns, 2 * msg, "middle: two");
    }

    #[test]
    fn block_halo_exchange_fills_row_and_column_ghosts() {
        for shape in [GridShape::plane2d(9, 11), GridShape::volume3d(3, 9, 11)] {
            let mut sys = system(2);
            let d = BlockPartition::new(shape, sys.cube.torus2d(2, 2)).expect("decomposes");
            check_ghosts_after_exchange(&d, &mut sys, &HaloSpec::stencil());
            assert!(sys.comm_ns > 0);
        }
    }

    #[test]
    fn overlap_split_tiles_the_owned_layers_exactly_once() {
        let spec = HaloSpec::stencil();
        // A middle strip: ghosts both sides, room for an interior.
        let p = Part {
            node: NodeId(0),
            spans: [
                AxisSpan::whole(5),
                AxisSpan::whole(5),
                AxisSpan { start: 8, len: 8, lo_ghost: 1, hi_ghost: 1 },
            ],
        };
        let s = p.overlap_split(2, &spec);
        assert_eq!(s.lo, Some(SweepWindow { start: 1, len: 1, slot: SweepWindow::LO_SLOT }));
        assert_eq!(s.interior, Some(SweepWindow { start: 2, len: 6, slot: 0 }));
        assert_eq!(s.hi, Some(SweepWindow { start: 8, len: 1, slot: SweepWindow::HI_SLOT }));
        let covered: Vec<usize> = s.windows().flat_map(|w| w.start..w.start + w.len).collect();
        assert_eq!(covered, (1..9).collect::<Vec<_>>(), "owned layers, each once");

        // An edge strip: one ghost side only, the interior reaches the wall.
        let edge = Part {
            node: NodeId(1),
            spans: [
                AxisSpan::whole(5),
                AxisSpan::whole(5),
                AxisSpan { start: 0, len: 8, lo_ghost: 0, hi_ghost: 1 },
            ],
        };
        let s = edge.overlap_split(2, &spec);
        assert_eq!(s.lo, None);
        assert_eq!(s.interior, Some(SweepWindow { start: 0, len: 7, slot: 0 }));
        assert_eq!(s.hi, Some(SweepWindow { start: 7, len: 1, slot: SweepWindow::HI_SLOT }));

        // Too thin for an interior: one merged shell-phase window.
        let thin = Part {
            node: NodeId(2),
            spans: [
                AxisSpan::whole(5),
                AxisSpan::whole(5),
                AxisSpan { start: 4, len: 1, lo_ghost: 1, hi_ghost: 1 },
            ],
        };
        let s = thin.overlap_split(2, &spec);
        assert_eq!(s.interior, None);
        assert_eq!(s.lo, Some(SweepWindow { start: 1, len: 1, slot: 0 }));
        assert_eq!(s.hi, None);
        assert_eq!(s.shell_windows().len(), 1);

        // An unsplit axis: everything is interior.
        let s = edge.overlap_split(1, &spec);
        assert_eq!(s.interior, Some(SweepWindow { start: 0, len: 5, slot: 0 }));
        assert!(s.lo.is_none() && s.hi.is_none());
    }

    #[test]
    fn halo_spec_axis_filters() {
        let spec = HaloSpec::stencil();
        let only = spec.only_axis(2);
        assert_eq!(only.axes, [false, false, true]);
        let rest = spec.without_axis(2);
        assert_eq!(rest.axes, [true, true, false]);
        assert!(only.wants_any() && rest.wants_any());
        assert!(!spec.without_axis(0).without_axis(1).without_axis(2).wants_any());
    }

    #[test]
    fn partition_spec_builds_the_requested_decomposition() {
        let cube = HypercubeConfig::new(2);
        let shape = GridShape::plane2d(9, 9);
        let strip = PartitionSpec::Strip.build(shape, cube, true).expect("strips");
        assert_eq!(strip.parts().iter().filter(|p| p.spans[0].lo_ghost > 0).count(), 0);
        let block = PartitionSpec::Block.build(shape, cube, false).expect("blocks");
        assert!(block.parts().iter().any(|p| p.spans[0].lo_ghost > 0), "x is split");
        let auto = PartitionSpec::Auto.build(shape, cube, true).expect("auto");
        assert!(auto.parts().iter().any(|p| p.spans[0].lo_ghost > 0), "auto prefers blocks");
        let auto1 = PartitionSpec::Auto.build(shape, HypercubeConfig::new(1), true).expect("auto");
        assert_eq!(auto1.parts().len(), 2);
        assert!(auto1.parts().iter().all(|p| p.spans[0].lo_ghost == 0), "1-D cube: strips");
    }
}
