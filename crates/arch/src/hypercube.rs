//! The hypercube system and hyperspace router.
//!
//! Paper §1: "The architecture consists of multiple processing nodes
//! arranged in a hypercube configuration"; §2: "Communication between nodes
//! is handled by means of a hyperspace router." The published system sizing
//! is 64 nodes (40 GFLOPS, 128 GB).
//!
//! The router is modelled with dimension-ordered (e-cube) routing and a
//! linear latency model — startup per hop plus time per word — with
//! synthetic constants pinned in [`RouterModel::NSC_1988`] (the paper
//! gives none).

use crate::ids::NodeId;
use serde::{Deserialize, Serialize};

/// Latency model of one hyperspace-router link.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct RouterModel {
    /// Fixed cost to launch a message across one hop, in nanoseconds.
    pub hop_startup_ns: u64,
    /// Transfer cost per 64-bit word per hop, in nanoseconds.
    pub ns_per_word: u64,
}

impl RouterModel {
    /// The pinned synthetic model: 10 us startup per hop, 100 ns per word.
    pub const NSC_1988: RouterModel = RouterModel { hop_startup_ns: 10_000, ns_per_word: 100 };

    /// Time for a message of `words` to traverse `hops` links, in ns.
    pub fn message_ns(&self, hops: u32, words: u64) -> u64 {
        if hops == 0 {
            return 0;
        }
        self.hop_startup_ns * hops as u64 + self.ns_per_word * words * hops as u64
    }
}

impl Default for RouterModel {
    fn default() -> Self {
        Self::NSC_1988
    }
}

/// A hypercube of NSC nodes.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct HypercubeConfig {
    /// Hypercube dimension; the system has `2^dimension` nodes.
    pub dimension: u32,
    /// Router latency model.
    pub router: RouterModel,
}

impl HypercubeConfig {
    /// A cube of the given dimension with the default router.
    pub fn new(dimension: u32) -> Self {
        assert!(dimension <= 16, "dimension {dimension} unreasonably large");
        HypercubeConfig { dimension, router: RouterModel::default() }
    }

    /// The published 64-node system.
    pub fn nsc_64() -> Self {
        Self::new(6)
    }

    /// Number of nodes.
    pub fn nodes(&self) -> usize {
        1usize << self.dimension
    }

    /// Hamming distance between two node addresses = e-cube hop count.
    pub fn hops(&self, from: NodeId, to: NodeId) -> u32 {
        (from.0 ^ to.0).count_ones()
    }

    /// Direct neighbours of a node (one per dimension).
    pub fn neighbours(&self, node: NodeId) -> Vec<NodeId> {
        (0..self.dimension).map(|d| NodeId(node.0 ^ (1 << d))).collect()
    }

    /// Dimension-ordered (e-cube) route from `from` to `to`, inclusive of
    /// both endpoints. Deterministic and deadlock-free: the differing
    /// address bits are corrected lowest-first, so the route needs no cube
    /// handle.
    pub fn ecube_route(from: NodeId, to: NodeId) -> Vec<NodeId> {
        let mut route = vec![from];
        let (mut cur, mut diff) = (from.0, from.0 ^ to.0);
        while diff != 0 {
            let bit = diff & diff.wrapping_neg();
            cur ^= bit;
            diff ^= bit;
            route.push(NodeId(cur));
        }
        route
    }

    /// Time for a point-to-point message, in nanoseconds.
    pub fn message_ns(&self, from: NodeId, to: NodeId, words: u64) -> u64 {
        self.router.message_ns(self.hops(from, to), words)
    }

    /// Binary-reflected Gray code of `i`: embeds a ring (or 1-D domain
    /// decomposition chain) into the cube so that successive subdomains are
    /// physical neighbours.
    pub fn gray(i: u16) -> u16 {
        i ^ (i >> 1)
    }

    /// The node hosting ring position `i` under the Gray embedding.
    pub fn ring_node(&self, i: usize) -> NodeId {
        NodeId(Self::gray((i % self.nodes()) as u16))
    }

    /// Inverse of [`HypercubeConfig::gray`]: the index whose Gray code is
    /// `g` (prefix-XOR decode).
    pub fn gray_inverse(g: u16) -> u16 {
        let mut i = g;
        let mut shift = 1;
        while shift < 16 {
            i ^= i >> shift;
            shift <<= 1;
        }
        i
    }

    /// Embed a `rows x cols` 2-D torus into the whole cube (see
    /// [`SubCube::torus2d`] for embedding into an allocated sub-cube).
    ///
    /// `rows * cols` must equal the node count and both must be powers of
    /// two. Torus-adjacent positions — including the wrap-around edges —
    /// land on hypercube neighbours: the row and column indices are each
    /// Gray-coded into their own bit field, and a binary-reflected Gray
    /// ring is cyclically adjacent.
    pub fn torus2d(&self, rows: usize, cols: usize) -> TorusEmbedding {
        self.whole_subcube().torus2d(rows, cols)
    }

    /// The whole cube viewed as one (trivially allocated) sub-cube.
    pub fn whole_subcube(&self) -> SubCube {
        SubCube { base: NodeId(0), dimension: self.dimension }
    }

    /// The most nearly square `rows x cols` factorization of the cube for
    /// [`HypercubeConfig::torus2d`]: rows get the extra dimension when the
    /// dimension is odd.
    pub fn torus2d_near_square(&self) -> TorusEmbedding {
        let row_bits = self.dimension.div_ceil(2);
        self.torus2d(1 << row_bits, 1 << (self.dimension - row_bits))
    }
}

/// An aligned sub-cube of the system: `2^dimension` nodes whose addresses
/// share the high bits of `base` and range over the low `dimension` bits.
///
/// Sub-cubes are the unit of space sharing: several embeddings (rings,
/// tori) can coexist on one system as long as their sub-cubes are
/// disjoint, which [`SubCubeAllocator`] guarantees.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct SubCube {
    /// Lowest node address of the sub-cube (low `dimension` bits zero).
    pub base: NodeId,
    /// Sub-cube dimension; it spans `2^dimension` nodes.
    pub dimension: u32,
}

impl SubCube {
    /// Number of nodes in the sub-cube.
    pub fn nodes(&self) -> usize {
        1usize << self.dimension
    }

    /// The `i`-th node of the sub-cube (local address `i`).
    pub fn node(&self, i: usize) -> NodeId {
        debug_assert!(i < self.nodes());
        NodeId(self.base.0 | i as u16)
    }

    /// Whether a node belongs to this sub-cube.
    pub fn contains(&self, node: NodeId) -> bool {
        node.0 & !(self.nodes() as u16 - 1) == self.base.0
    }

    /// All member nodes, in local-address order.
    pub fn members(&self) -> impl Iterator<Item = NodeId> + '_ {
        (0..self.nodes()).map(|i| self.node(i))
    }

    /// Embed a `rows x cols` 2-D torus into this sub-cube. `rows * cols`
    /// must equal the sub-cube's node count and both must be powers of
    /// two; distinct torus-adjacent positions (wrap-around included) are
    /// always exactly one hop apart.
    pub fn torus2d(&self, rows: usize, cols: usize) -> TorusEmbedding {
        assert!(rows.is_power_of_two() && cols.is_power_of_two(), "torus sides are powers of two");
        assert_eq!(
            rows * cols,
            self.nodes(),
            "a {rows}x{cols} torus does not tile a {}-node sub-cube",
            self.nodes()
        );
        TorusEmbedding { rows, cols, col_bits: cols.trailing_zeros(), subcube: *self }
    }
}

/// Buddy allocator for disjoint, aligned sub-cubes of one system.
///
/// The hosting substrate for running several distributed workloads on one
/// machine at once: each workload allocates the sub-cube its embedding
/// needs, and releases it when done. Allocation splits the smallest free
/// block that fits (so the space stays unfragmented), release re-merges
/// freed buddies.
#[derive(Debug, Clone)]
pub struct SubCubeAllocator {
    dimension: u32,
    /// `free[k]` holds the bases of free sub-cubes of dimension `k`.
    free: Vec<Vec<u16>>,
    /// Sub-cubes handed out and not yet freed, in allocation order.
    outstanding: Vec<SubCube>,
}

impl SubCubeAllocator {
    /// An allocator over the whole of `cube`, initially all free.
    pub fn new(cube: &HypercubeConfig) -> Self {
        let mut free = vec![Vec::new(); cube.dimension as usize + 1];
        free[cube.dimension as usize].push(0);
        SubCubeAllocator { dimension: cube.dimension, free, outstanding: Vec::new() }
    }

    /// Allocate a sub-cube of `2^dim` nodes, or `None` when no aligned
    /// block of that size is free.
    pub fn allocate(&mut self, dim: u32) -> Option<SubCube> {
        if dim > self.dimension {
            return None;
        }
        // Smallest free block that fits, lowest base first (deterministic).
        let from = (dim..=self.dimension).find(|&k| !self.free[k as usize].is_empty())?;
        let list = &mut self.free[from as usize];
        let pos = (0..list.len()).min_by_key(|&i| list[i]).expect("nonempty list");
        let mut base = list.swap_remove(pos);
        // Split down, returning the upper buddy of every level to the pool.
        for k in (dim..from).rev() {
            self.free[k as usize].push(base | (1 << k));
        }
        base &= !((1u16 << dim) - 1);
        let sc = SubCube { base: NodeId(base), dimension: dim };
        self.outstanding.push(sc);
        Some(sc)
    }

    /// Return a sub-cube to the pool, merging it with its free buddy at
    /// every level it can — so once everything is freed, the whole cube
    /// re-coalesces into one block of the allocator's own dimension.
    ///
    /// # Panics
    ///
    /// Panics when `sc` is not an outstanding allocation of this
    /// allocator (a double free, or a sub-cube it never handed out):
    /// silently accepting one would inflate capacity and let later
    /// allocations overlap.
    pub fn free(&mut self, sc: SubCube) {
        let pos =
            self.outstanding.iter().position(|o| *o == sc).unwrap_or_else(|| {
                panic!("freeing {sc:?}, which is not an outstanding allocation")
            });
        self.outstanding.swap_remove(pos);
        let mut base = sc.base.0;
        let mut dim = sc.dimension;
        while dim < self.dimension {
            let buddy = base ^ (1 << dim);
            let Some(pos) = self.free[dim as usize].iter().position(|&b| b == buddy) else {
                break;
            };
            self.free[dim as usize].swap_remove(pos);
            base &= !(1 << dim);
            dim += 1;
        }
        self.free[dim as usize].push(base);
    }

    /// Nodes currently unallocated.
    pub fn free_nodes(&self) -> usize {
        self.free.iter().enumerate().map(|(k, list)| list.len() << k).sum()
    }

    /// Total nodes the allocator manages (free or not).
    pub fn capacity_nodes(&self) -> usize {
        1usize << self.dimension
    }

    /// Nodes currently handed out.
    pub fn allocated_nodes(&self) -> usize {
        self.outstanding.iter().map(|sc| sc.nodes()).sum()
    }

    /// Sub-cubes handed out and not yet freed, in allocation order.
    pub fn outstanding(&self) -> &[SubCube] {
        &self.outstanding
    }

    /// Largest sub-cube dimension an [`SubCubeAllocator::allocate`] call
    /// would currently succeed for, or `None` when nothing is free. The
    /// scheduler's admission test: a job of dimension `d` fits iff
    /// `largest_free_dim() >= Some(d)`.
    pub fn largest_free_dim(&self) -> Option<u32> {
        (0..=self.dimension).rev().find(|&k| !self.free[k as usize].is_empty())
    }

    /// Whether an aligned block of `2^dim` nodes is free right now.
    pub fn can_allocate(&self, dim: u32) -> bool {
        dim <= self.dimension && self.largest_free_dim().is_some_and(|k| k >= dim)
    }
}

/// A `rows x cols` 2-D torus Gray-embedded in a sub-cube.
///
/// Position `(r, c)` lives on node
/// `base | gray(r) << col_bits | gray(c)`; because a binary-reflected
/// Gray ring is cyclically adjacent, torus neighbours — wrap-around edges
/// included — are hypercube neighbours, so every halo message of a 2-D
/// block decomposition crosses exactly one link.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct TorusEmbedding {
    rows: usize,
    cols: usize,
    col_bits: u32,
    subcube: SubCube,
}

impl TorusEmbedding {
    /// Torus rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Torus columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Total torus positions (= sub-cube nodes).
    pub fn len(&self) -> usize {
        self.rows * self.cols
    }

    /// Whether the torus is empty (it never is; for clippy symmetry).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The sub-cube hosting the embedding.
    pub fn subcube(&self) -> SubCube {
        self.subcube
    }

    /// The node hosting torus position `(r, c)`.
    pub fn node(&self, r: usize, c: usize) -> NodeId {
        debug_assert!(r < self.rows && c < self.cols);
        let local =
            (HypercubeConfig::gray(r as u16) << self.col_bits) | HypercubeConfig::gray(c as u16);
        NodeId(self.subcube.base.0 | local)
    }

    /// The torus position a node hosts, or `None` when the node is outside
    /// the embedding's sub-cube — the inverse of [`TorusEmbedding::node`].
    pub fn coords(&self, node: NodeId) -> Option<(usize, usize)> {
        if !self.subcube.contains(node) {
            return None;
        }
        let local = node.0 & (self.subcube.nodes() as u16 - 1);
        let r = HypercubeConfig::gray_inverse(local >> self.col_bits) as usize;
        let c = HypercubeConfig::gray_inverse(local & ((1 << self.col_bits) - 1)) as usize;
        Some((r, c))
    }

    /// Torus neighbour of `(r, c)` one step along the row axis
    /// (`dr = ±1`), wrapping at the edges.
    pub fn row_neighbour(&self, r: usize, c: usize, dr: isize) -> NodeId {
        let nr = (r as isize + dr).rem_euclid(self.rows as isize) as usize;
        self.node(nr, c)
    }

    /// Torus neighbour of `(r, c)` one step along the column axis
    /// (`dc = ±1`), wrapping at the edges.
    pub fn col_neighbour(&self, r: usize, c: usize, dc: isize) -> NodeId {
        let nc = (c as isize + dc).rem_euclid(self.cols as isize) as usize;
        self.node(r, nc)
    }

    /// All member nodes in row-major torus order.
    pub fn members(&self) -> impl Iterator<Item = NodeId> + '_ {
        (0..self.len()).map(|i| self.node(i / self.cols, i % self.cols))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn published_system_size() {
        let sys = HypercubeConfig::nsc_64();
        assert_eq!(sys.nodes(), 64);
        assert_eq!(sys.dimension, 6);
    }

    #[test]
    fn hop_count_is_hamming_distance() {
        let sys = HypercubeConfig::new(4);
        assert_eq!(sys.hops(NodeId(0b0000), NodeId(0b1111)), 4);
        assert_eq!(sys.hops(NodeId(0b1010), NodeId(0b1010)), 0);
        assert_eq!(sys.hops(NodeId(0b1010), NodeId(0b1000)), 1);
    }

    #[test]
    fn neighbours_differ_in_exactly_one_bit() {
        let sys = HypercubeConfig::new(6);
        let n = NodeId(0b101010);
        let nb = sys.neighbours(n);
        assert_eq!(nb.len(), 6);
        for x in nb {
            assert_eq!(sys.hops(n, x), 1);
        }
    }

    #[test]
    fn ecube_route_is_monotone_and_minimal() {
        let sys = HypercubeConfig::new(6);
        let from = NodeId(0b000111);
        let to = NodeId(0b101010);
        let route = HypercubeConfig::ecube_route(from, to);
        assert_eq!(route.first(), Some(&from));
        assert_eq!(route.last(), Some(&to));
        assert_eq!(route.len() as u32 - 1, sys.hops(from, to), "minimal route");
        for w in route.windows(2) {
            assert_eq!(sys.hops(w[0], w[1]), 1, "each step crosses one link");
        }
    }

    #[test]
    fn ecube_route_trivial_when_same_node() {
        assert_eq!(HypercubeConfig::ecube_route(NodeId(5), NodeId(5)), vec![NodeId(5)]);
    }

    #[test]
    fn message_time_model() {
        let r = RouterModel::NSC_1988;
        assert_eq!(r.message_ns(0, 1000), 0, "local messages are free");
        assert_eq!(r.message_ns(1, 0), 10_000);
        assert_eq!(r.message_ns(2, 100), 2 * 10_000 + 2 * 100 * 100);
    }

    #[test]
    fn gray_embedding_keeps_ring_neighbours_adjacent() {
        let sys = HypercubeConfig::new(6);
        for i in 0..sys.nodes() {
            let a = sys.ring_node(i);
            let b = sys.ring_node((i + 1) % sys.nodes());
            assert_eq!(sys.hops(a, b), 1, "ring positions {i},{} not adjacent", i + 1);
        }
    }

    #[test]
    fn gray_codes_are_a_permutation() {
        let n = 64u16;
        let set: std::collections::HashSet<_> = (0..n).map(HypercubeConfig::gray).collect();
        assert_eq!(set.len(), n as usize);
    }

    #[test]
    fn gray_inverse_round_trips() {
        for i in 0..1024u16 {
            assert_eq!(HypercubeConfig::gray_inverse(HypercubeConfig::gray(i)), i);
        }
    }

    #[test]
    fn torus_adjacency_is_one_hop_including_wraps() {
        let sys = HypercubeConfig::new(6);
        for (rows, cols) in [(8, 8), (16, 4), (4, 16), (2, 32), (64, 1), (1, 64)] {
            let t = sys.torus2d(rows, cols);
            assert_eq!((t.rows(), t.cols()), (rows, cols));
            for r in 0..rows {
                for c in 0..cols {
                    let here = t.node(r, c);
                    for n in [
                        t.row_neighbour(r, c, 1),
                        t.row_neighbour(r, c, -1),
                        t.col_neighbour(r, c, 1),
                        t.col_neighbour(r, c, -1),
                    ] {
                        if n != here {
                            assert_eq!(sys.hops(here, n), 1, "{rows}x{cols} at ({r},{c})");
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn torus_is_a_bijection_with_coords_inverse() {
        let sys = HypercubeConfig::new(5);
        let t = sys.torus2d_near_square();
        assert_eq!((t.rows(), t.cols()), (8, 4));
        let seen: std::collections::HashSet<_> = t.members().collect();
        assert_eq!(seen.len(), 32, "every node hosts exactly one position");
        for r in 0..t.rows() {
            for c in 0..t.cols() {
                assert_eq!(t.coords(t.node(r, c)), Some((r, c)));
            }
        }
    }

    #[test]
    fn subcube_allocation_is_disjoint_and_torus_capable() {
        let sys = HypercubeConfig::new(4);
        let mut alloc = SubCubeAllocator::new(&sys);
        let a = alloc.allocate(3).expect("8 nodes");
        let b = alloc.allocate(2).expect("4 nodes");
        let c = alloc.allocate(2).expect("4 more");
        assert!(alloc.allocate(1).is_none(), "the cube is full");
        assert_eq!(alloc.free_nodes(), 0);
        let all: Vec<NodeId> = a.members().chain(b.members()).chain(c.members()).collect();
        let set: std::collections::HashSet<_> = all.iter().collect();
        assert_eq!(set.len(), 16, "allocations are disjoint and cover the cube");

        // Two embeddings coexist on disjoint sub-cubes, each with the
        // one-hop invariant inside its own sub-cube.
        let ta = a.torus2d(4, 2);
        let tb = b.torus2d(2, 2);
        for t in [&ta, &tb] {
            for r in 0..t.rows() {
                for c in 0..t.cols() {
                    for n in [t.row_neighbour(r, c, 1), t.col_neighbour(r, c, 1)] {
                        if n != t.node(r, c) {
                            assert_eq!(sys.hops(t.node(r, c), n), 1);
                        }
                    }
                    assert!(t.subcube().contains(t.node(r, c)));
                }
            }
        }
        assert!(ta.members().all(|n| tb.coords(n).is_none()), "no cross-talk");
    }

    #[test]
    fn subcube_release_remerges_buddies() {
        let sys = HypercubeConfig::new(3);
        let mut alloc = SubCubeAllocator::new(&sys);
        let a = alloc.allocate(1).expect("2 nodes");
        let b = alloc.allocate(1).expect("2 nodes");
        let c = alloc.allocate(2).expect("4 nodes");
        assert_eq!(alloc.free_nodes(), 0);
        alloc.free(a);
        alloc.free(b);
        alloc.free(c);
        assert_eq!(alloc.free_nodes(), 8);
        let whole = alloc.allocate(3).expect("buddies re-merged to the full cube");
        assert_eq!(whole.base, NodeId(0));
        assert_eq!(whole.nodes(), 8);
    }
}
