//! Property tests for the overlapped sweep engine's split: the
//! interior + boundary-shell windows cover every owned point exactly
//! once for arbitrary spans, partitions and halo specs, and every
//! windowed stencil document (plain and damped 3-D, and 2-D) is
//! bit-identical to the fused sweep on every point it covers — including
//! the recombined residual.

use nsc::arch::{HypercubeConfig, NodeId};
use nsc::cfd::diagrams::{Jacobi2dGeometry, JacobiGeometry, PLANE_U0, PLANE_U1, RESIDUAL_CACHE};
use nsc::cfd::{
    build_damped_jacobi_sweep_document_windows, build_jacobi2d_sweep_document_windows,
    build_jacobi_sweep_document_windows, AxisSpan, BlockPartition, GridShape, HaloSpec, Part,
    Partition, StripPartition, SweepWindow,
};
use nsc::env::Session;
use nsc::sim::RunOptions;
use proptest::prelude::*;

/// Assert that a part's split windows tile its owned layers exactly once
/// and that the interior window keeps one layer clear of every ghost face.
fn check_split(p: &Part, axis: usize) {
    let sp = &p.spans[axis];
    let split = p.overlap_split(axis, &HaloSpec::stencil());
    let windows: Vec<SweepWindow> = split.windows().collect();
    assert!(!windows.is_empty(), "every part computes something");
    // Disjoint, ascending, covering exactly the owned layers.
    let mut next = sp.lo_ghost;
    for w in &windows {
        assert_eq!(w.start, next, "windows must tile without gap or overlap");
        assert!(w.len > 0);
        next = w.start + w.len;
    }
    assert_eq!(next, sp.lo_ghost + sp.len, "windows must end at the owned range");
    // The interior window's stencils reach no ghost layer.
    if let Some(i) = split.interior {
        if sp.lo_ghost > 0 {
            assert!(i.start > sp.lo_ghost, "interior reads the low ghosts");
        }
        if sp.hi_ghost > 0 {
            assert!(i.start + i.len < sp.lo_ghost + sp.len, "interior reads the high ghosts");
        }
    }
    // Slots are distinct (each window's residual lands in its own word).
    let mut slots: Vec<u64> = windows.iter().map(|w| w.slot).collect();
    slots.sort_unstable();
    slots.dedup();
    assert_eq!(slots.len(), windows.len(), "residual slots must not collide");
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 64, ..ProptestConfig::default() })]

    #[test]
    fn prop_overlap_split_covers_owned_layers_exactly_once(
        start in 0usize..50,
        len in 1usize..40,
        lo_ghost in 0usize..3,
        hi_ghost in 0usize..3,
    ) {
        let sp = AxisSpan { start: start + lo_ghost, len, lo_ghost, hi_ghost };
        let p = Part { node: NodeId(0), spans: [AxisSpan::whole(5), AxisSpan::whole(5), sp] };
        check_split(&p, 2);
    }

    #[test]
    fn prop_partition_splits_cover_every_grid_point_exactly_once(
        dim in 0u32..=3,
        nx in 3usize..6,
        ny in 5usize..30,
        nz in 5usize..40,
        plane2d in any::<bool>(),
    ) {
        // Real decompositions: strips of a 3-D volume, blocks of a plane.
        // Part owned ranges tile the grid (asserted by the partition
        // tests), so per-part windows tiling each part's owned layers
        // means every grid point is computed by exactly one window.
        let cube = HypercubeConfig::new(dim);
        let shape =
            if plane2d { GridShape::plane2d(ny, nz) } else { GridShape::volume3d(nx, ny, nz) };
        let axis = shape.overlap_axis();
        if let Ok(strips) = StripPartition::new(shape, cube) {
            for p in strips.parts() {
                check_split(p, axis);
            }
        }
        if dim >= 2 {
            if let Ok(blocks) = BlockPartition::new(shape, cube.torus2d_near_square()) {
                for p in blocks.parts() {
                    check_split(p, axis);
                    // The column axis cannot be windowed; its faces stay
                    // in the synchronous part of the spec.
                    prop_assert!(HaloSpec::stencil().without_axis(axis).wants_any());
                }
            }
        }
    }

    #[test]
    fn prop_windowed_sweep_is_bit_identical_to_the_fused_sweep(
        document in 0usize..3,
        nx in 3usize..5,
        ny in 3usize..5,
        nz in 4usize..9,
        cut_a in 1usize..8,
        cut_b in 1usize..8,
        seed in 0u64..1000,
    ) {
        // Split the layers of a plain 3-D, a damped 3-D or a 2-D slab (rows
        // are its layers) at up to two random cuts and run the windowed
        // document against the fused one on identical nodes: the written
        // points and the recombined residual must match bit for bit.
        let layer = if document == 2 { nx } else { nx * ny };
        let build = |w: &[SweepWindow]| {
            let slab = JacobiGeometry::slab(nx, ny, nz);
            match document {
                0 => build_jacobi_sweep_document_windows(slab, true, w),
                1 => build_damped_jacobi_sweep_document_windows(slab, false, 0.8, w),
                _ => build_jacobi2d_sweep_document_windows(Jacobi2dGeometry::new(nx, nz), true, w),
            }
        };
        let mut cuts = vec![cut_a.min(nz - 1), cut_b.min(nz - 1)];
        cuts.sort_unstable();
        cuts.dedup();
        let mut windows = Vec::new();
        let mut start = 0;
        for &c in cuts.iter().chain(std::iter::once(&nz)) {
            if c > start {
                windows.push(SweepWindow { start, len: c - start, slot: windows.len() as u64 });
                start = c;
            }
        }

        let session = Session::nsc_1988();
        let opts = RunOptions::default();
        let run = |windows: &[SweepWindow]| {
            let mut doc = build(windows);
            // Every declared word from one deterministic pseudo-random
            // stream, so both documents start from identical planes.
            let mut node = session.node();
            let mut state = seed.wrapping_mul(6364136223846793005).wrapping_add(1);
            for v in &doc.decls.vars {
                let words: Vec<f64> = (0..v.len)
                    .map(|_| {
                        state = state
                            .wrapping_mul(6364136223846793005)
                            .wrapping_add(1442695040888963407);
                        ((state >> 33) as f64 / (1u64 << 31) as f64) - 1.0
                    })
                    .collect();
                node.mem.plane_mut(v.plane).write_slice(v.base, &words);
            }
            let prog = session.compile(&mut doc).expect("windowed sweep compiles");
            prog.run(&mut node, &opts).expect("windowed sweep runs");
            let dst = if document == 1 { PLANE_U0 } else { PLANE_U1 };
            let out = node.mem.plane(dst).read_vec(layer as u64, (nz * layer) as u64);
            let residual = windows
                .iter()
                .map(|w| node.mem.cache(RESIDUAL_CACHE).read(0, w.slot))
                .fold(f64::NEG_INFINITY, f64::max);
            (out, residual)
        };
        let (fused_out, fused_res) = run(&[SweepWindow::whole(nz)]);
        let (split_out, split_res) = run(&windows);
        for w in &windows {
            let (a, b) = (w.start * layer, (w.start + w.len) * layer);
            for (x, y) in fused_out[a..b].iter().zip(&split_out[a..b]) {
                prop_assert_eq!(x.to_bits(), y.to_bits(), "window {:?} diverged", w);
            }
        }
        prop_assert_eq!(fused_res.to_bits(), split_res.to_bits(), "residual recombination");
    }
}
