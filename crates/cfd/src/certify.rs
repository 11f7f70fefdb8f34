//! Topology certification: the distributed layer's contribution to the
//! compile certificate.
//!
//! A decomposed sweep makes two claims the node-local census cannot
//! carry:
//!
//! * **routing legality** — every halo message between neighbouring
//!   parts travels a minimal dimension-ordered (e-cube) path over the
//!   Gray embedding, one link per hop;
//! * **window coverage** — the overlap split's windows tile each part's
//!   *owned* layers exactly once (no layer skipped, none computed
//!   twice), which is the whole correctness argument for splitting a
//!   sweep into interior and boundary-shell phases.
//!
//! [`halo_routes`] and [`window_coverage`] transcribe those claims from
//! a [`Partition`]; [`SweepEngine::compile`](crate::SweepEngine::compile)
//! staples them onto the sweep's base compile certificate with
//! `CompileCertificate::with_topology` and records the result in the
//! session's certificate log. `nsc_cert::verify` then re-derives the
//! e-cube law and the tiling from scratch — a forged hop or a window gap
//! is rejected even though the emitter transcribed it faithfully.

use crate::partition::{HaloSpec, Part, Partition, SweepSplit};
use nsc_arch::HypercubeConfig;
use nsc_cert::{CoverageCert, RouteCert, WindowSpan};

/// One [`RouteCert`] per directed halo message `spec` makes a partition
/// exchange: on every interior boundary along an axis the spec names
/// ([`Partition::boundaries`], the list the exchange walks), the lower
/// part's top owned layer travels up and the upper part's bottom owned
/// layer travels down. `words` is the face area; the path is the e-cube
/// route between the parts' nodes.
pub fn halo_routes(partition: &dyn Partition, spec: &HaloSpec) -> Vec<RouteCert> {
    let parts = partition.parts();
    let route = |from: &Part, to: &Part, words: u64| RouteCert {
        from: from.node.0 as u64,
        to: to.node.0 as u64,
        words,
        path: HypercubeConfig::ecube_route(from.node, to.node)
            .into_iter()
            .map(|n| n.0 as u64)
            .collect(),
    };
    partition
        .boundaries()
        .iter()
        .filter(|b| spec.axes[b.axis])
        .flat_map(|b| {
            let (lo, hi) = (&parts[b.lo], &parts[b.hi]);
            let words =
                (0..3).filter(|&o| o != b.axis).map(|o| lo.spans[o].local_len() as u64).product();
            [route(lo, hi, words), route(hi, lo, words)]
        })
        .collect()
}

/// One [`CoverageCert`] per part: the owned layer range along the
/// overlap axis (in local layer coordinates, ghosts counted) and the
/// split windows claimed to tile it. `splits` must be in partition
/// order, one per part — exactly what the sweep engine holds.
pub fn window_coverage(partition: &dyn Partition, splits: &[SweepSplit]) -> Vec<CoverageCert> {
    let axis = partition.shape().overlap_axis();
    partition
        .parts()
        .iter()
        .zip(splits)
        .enumerate()
        .map(|(pi, (p, split))| {
            let sp = &p.spans[axis];
            CoverageCert {
                part: pi as u32,
                node: p.node.0 as u64,
                owned_start: sp.lo_ghost as u64,
                owned_len: sp.len as u64,
                windows: split
                    .windows()
                    .map(|w| WindowSpan {
                        start: w.start as u64,
                        len: w.len as u64,
                        slot: w.slot as u32,
                    })
                    .collect(),
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::partition::{BlockPartition, GridShape, StripPartition};
    use nsc_arch::{HypercubeConfig, KnowledgeBase, MachineConfig, NodeId, PlaneId};
    use nsc_sim::NscSystem;

    #[test]
    fn strip_routes_pair_every_interior_boundary_both_ways() {
        let cube = HypercubeConfig::new(2);
        let strips = StripPartition::new(GridShape::volume3d(4, 4, 12), cube).expect("decomposes");
        let routes = halo_routes(&strips, &HaloSpec::stencil());
        // 3 interior boundaries, one message each way.
        assert_eq!(routes.len(), 6);
        for r in &routes {
            assert_eq!(r.path.len(), 2, "Gray-adjacent strips are one hop apart");
            assert_eq!(r.path.first(), Some(&r.from));
            assert_eq!(r.path.last(), Some(&r.to));
            assert_eq!(r.words, 4 * 4, "one xy-face per layer");
        }
    }

    #[test]
    fn block_routes_cover_both_split_axes() {
        let torus = HypercubeConfig::new(2).torus2d(2, 2);
        let blocks = BlockPartition::new(GridShape::plane2d(9, 11), torus).expect("decomposes");
        let routes = halo_routes(&blocks, &HaloSpec::stencil());
        // 2 row boundaries + 2 column boundaries, both directions.
        assert_eq!(routes.len(), 8);
        for r in &routes {
            assert_eq!(r.path.len(), 2, "torus-adjacent blocks are one hop apart");
        }
    }

    #[test]
    fn a_route_certificate_claims_exactly_the_traffic_the_exchange_charges() {
        let kb = KnowledgeBase::new(MachineConfig::test_small());
        let spec = HaloSpec::stencil();
        for shape in [GridShape::plane2d(9, 17), GridShape::volume3d(5, 9, 17)] {
            let mut partitions: Vec<Box<dyn Partition>> = Vec::new();
            for dim in 1..=3 {
                let cube = HypercubeConfig::new(dim);
                partitions.push(Box::new(StripPartition::new(shape, cube).expect("strips")));
            }
            for (dim, rows, cols) in [(2, 2, 2), (3, 4, 2)] {
                let torus = HypercubeConfig::new(dim).torus2d(rows, cols);
                partitions.push(Box::new(BlockPartition::new(shape, torus).expect("blocks")));
            }
            for partition in &partitions {
                let parts = partition.parts().len();
                let mut system = NscSystem::new(HypercubeConfig::new(parts.ilog2()), &kb);
                let claimed: u64 = halo_routes(partition.as_ref(), &spec)
                    .iter()
                    .map(|r| {
                        let (from, to) = (NodeId(r.from as u16), NodeId(r.to as u16));
                        system.cube.message_ns(from, to, r.words)
                    })
                    .sum();
                partition.halo_exchange(&mut system, PlaneId(0), &spec).expect("exchanges");
                assert_eq!(system.comm_ns, claimed, "{shape:?} over {parts} parts");
                assert!(claimed > 0);
            }
        }
    }

    #[test]
    fn coverage_tiles_the_owned_layers() {
        let cube = HypercubeConfig::new(2);
        let strips = StripPartition::new(GridShape::volume3d(4, 4, 12), cube).expect("decomposes");
        let axis = strips.shape().overlap_axis();
        let spec = HaloSpec::stencil();
        let splits: Vec<SweepSplit> =
            strips.parts().iter().map(|p| p.overlap_split(axis, &spec)).collect();
        let coverage = window_coverage(&strips, &splits);
        assert_eq!(coverage.len(), 4);
        for c in &coverage {
            let mut spans: Vec<(u64, u64)> = c.windows.iter().map(|w| (w.start, w.len)).collect();
            spans.sort_unstable();
            let mut next = c.owned_start;
            for (s, l) in spans {
                assert_eq!(s, next, "gapless from the owned start");
                next = s + l;
            }
            assert_eq!(next, c.owned_start + c.owned_len, "ends at the owned end");
        }
    }
}
