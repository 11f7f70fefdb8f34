//! Property tests for the hypercube routing invariants the distributed
//! solvers lean on, plus the halo-exchange ghost-cell guarantee: after a
//! distributed run, every ghost plane in node memory holds exactly the
//! bits the serial solver has at that global plane.

use nsc::arch::{HypercubeConfig, NodeId, SubCubeAllocator};
use nsc::cfd::diagrams::PLANE_U0;
use nsc::cfd::host::{jacobi_sweep_host, JacobiHostState};
use nsc::cfd::{
    DistributedJacobiWorkload, Grid3, GridShape, Partition, PartitionSpec, StripPartition,
    SweepEngine,
};
use nsc::env::{Session, Workload};
use nsc::sim::NscSystem;
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig { cases: 64, ..ProptestConfig::default() })]

    #[test]
    fn prop_ecube_route_length_equals_hops_and_flips_one_bit_per_step(
        dim in 1u32..=6,
        a in any::<u16>(),
        b in any::<u16>(),
    ) {
        let cube = HypercubeConfig::new(dim);
        let mask = (cube.nodes() - 1) as u16;
        let from = NodeId(a & mask);
        let to = NodeId(b & mask);
        let route = cube.ecube_route(from, to);
        prop_assert_eq!(route.len() as u32 - 1, cube.hops(from, to), "minimal route");
        prop_assert_eq!(route.first(), Some(&from));
        prop_assert_eq!(route.last(), Some(&to));
        let mut prev_bit = None;
        for w in route.windows(2) {
            let flipped = w[0].0 ^ w[1].0;
            prop_assert_eq!(flipped.count_ones(), 1, "each step flips exactly one bit");
            // Dimension-ordered: corrected dimensions strictly ascend, so
            // the route is deterministic and deadlock-free.
            let bit = flipped.trailing_zeros();
            if let Some(p) = prev_bit {
                prop_assert!(bit > p, "e-cube corrects dimensions lowest-first");
            }
            prev_bit = Some(bit);
        }
    }

    #[test]
    fn prop_gray_ring_keeps_strip_neighbours_one_hop_apart(
        dim in 0u32..=6,
        planes in 1usize..200,
    ) {
        // Strips are the one-column block partition: strip i sits on ring
        // position i, the owned ranges tile the split axis, and adjacent
        // strips sit on adjacent nodes. Shapes too thin to strip are
        // refused, not cut.
        let cube = HypercubeConfig::new(dim);
        if let Ok(strips) = StripPartition::new(GridShape::volume3d(3, 3, planes), cube) {
            let parts = strips.parts();
            prop_assert_eq!(parts.len(), cube.nodes());
            let mut next = 0;
            for (i, p) in parts.iter().enumerate() {
                prop_assert_eq!(p.node, cube.ring_node(i), "strip {} on ring position {}", i, i);
                prop_assert_eq!(p.spans[2].start, next, "contiguous strips");
                next += p.spans[2].len;
                if i + 1 < parts.len() {
                    prop_assert_eq!(
                        cube.hops(p.node, parts[i + 1].node),
                        1,
                        "adjacent strips on adjacent nodes"
                    );
                }
            }
            prop_assert_eq!(next, planes, "the strips tile the grid");
        }
    }

    #[test]
    fn prop_torus_adjacency_is_always_one_hop(
        dim in 0u32..=6,
        row_bits in 0u32..=6,
    ) {
        // Every rows x cols factorization of the cube: distinct
        // torus-adjacent positions, wrap-around included, sit one hop
        // apart.
        let cube = HypercubeConfig::new(dim);
        let row_bits = row_bits.min(dim);
        let t = cube.torus2d(1 << row_bits, 1 << (dim - row_bits));
        for r in 0..t.rows() {
            for c in 0..t.cols() {
                let here = t.node(r, c);
                for n in [
                    t.row_neighbour(r, c, 1),
                    t.row_neighbour(r, c, -1),
                    t.col_neighbour(r, c, 1),
                    t.col_neighbour(r, c, -1),
                ] {
                    if n != here {
                        prop_assert_eq!(cube.hops(here, n), 1, "at ({}, {})", r, c);
                    }
                }
            }
        }
    }

    #[test]
    fn prop_gray_round_trips_on_the_2d_index_map(
        dim in 0u32..=6,
        row_bits in 0u32..=6,
    ) {
        // node() and coords() are inverse bijections built from
        // gray/gray_inverse on each bit field, so every position round
        // trips and every sub-cube node hosts exactly one position.
        let cube = HypercubeConfig::new(dim);
        let row_bits = row_bits.min(dim);
        let t = cube.torus2d(1 << row_bits, 1 << (dim - row_bits));
        let mut seen = std::collections::HashSet::new();
        for r in 0..t.rows() {
            for c in 0..t.cols() {
                let node = t.node(r, c);
                prop_assert_eq!(t.coords(node), Some((r, c)), "round trip at ({}, {})", r, c);
                prop_assert!(seen.insert(node), "{} hosts two positions", node);
            }
        }
        prop_assert_eq!(seen.len(), cube.nodes());
    }

    #[test]
    fn prop_subcube_allocations_are_disjoint(
        dim in 0u32..=6,
        requests in prop::collection::vec(0u32..=6, 1..12),
    ) {
        let cube = HypercubeConfig::new(dim);
        let mut alloc = SubCubeAllocator::new(&cube);
        let mut claimed: Vec<Option<u32>> = vec![None; cube.nodes()];
        let mut granted = 0usize;
        for (gi, &want) in requests.iter().enumerate() {
            let Some(sc) = alloc.allocate(want.min(dim)) else { continue };
            for node in sc.members() {
                prop_assert_eq!(
                    claimed[node.index()].replace(gi as u32),
                    None,
                    "{} handed out twice",
                    node
                );
            }
            granted += sc.nodes();
        }
        prop_assert_eq!(granted + alloc.free_nodes(), cube.nodes(), "no nodes lost");
    }
}

#[test]
fn halo_exchange_ghost_cells_match_the_serial_solver_bit_for_bit() {
    // A known (manufactured + perturbed) grid, two ping-pong pairs on a
    // 4-node cube; then every ghost plane left in node memory must be
    // bit-identical to the serial solver's value of that global plane.
    let n = 9;
    let (mut u0, f, _) = nsc::cfd::grid::manufactured_problem(n);
    for (i, v) in u0.data.iter_mut().enumerate() {
        if !Grid3::new(n, n, n).is_boundary(i % n, (i / n) % n, i / (n * n)) {
            *v = ((i * 37 % 11) as f64 - 5.0) * 0.0625;
        }
    }
    let session = Session::nsc_1988();
    let mut sys = NscSystem::new(HypercubeConfig::new(2), session.kb());
    let w = DistributedJacobiWorkload::new(u0.clone(), f.clone(), 0.0, 2, PartitionSpec::Strip);
    let run = w.execute(&session, &mut sys).expect("distributed run");
    assert_eq!(run.sweeps, 4);

    let mut host = JacobiHostState::new(&u0, &f);
    for _ in 0..4 {
        jacobi_sweep_host(&mut host);
    }
    let serial = host.current();

    let pw = n * n;
    let decomp = StripPartition::new(GridShape::volume3d(n, n, n), sys.cube).expect("decomposes");
    // The last sweep's written faces travel lazily, with the next sweep
    // that would read them; refresh them as a restart would.
    SweepEngine::stencil(&decomp)
        .refresh(&mut sys, PLANE_U0)
        .expect("the system holds every strip");
    let mut ghosts_checked = 0;
    for (pi, p) in decomp.parts().iter().enumerate() {
        let mem = sys.node(p.node).mem.plane(PLANE_U0);
        let s = p.spans[2];
        let mut check = |local_plane: usize, global_plane: usize| {
            let got = mem.read_vec(decomp.word_offset(pi, local_plane * pw), pw as u64);
            let want = &serial.data[global_plane * pw..(global_plane + 1) * pw];
            for (a, b) in got.iter().zip(want) {
                assert_eq!(
                    a.to_bits(),
                    b.to_bits(),
                    "ghost plane {global_plane} of node {} diverged",
                    p.node
                );
            }
            ghosts_checked += 1;
        };
        if s.lo_ghost > 0 {
            check(0, s.start - 1);
        }
        if s.hi_ghost > 0 {
            check(s.local_len() - 1, s.start + s.len);
        }
    }
    assert_eq!(ghosts_checked, 6, "three interior boundaries, two ghosts each");
}
