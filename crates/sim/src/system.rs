//! The hypercube system: many nodes plus the hyperspace router.
//!
//! Paper §1-2: nodes are "arranged in a hypercube configuration" with
//! inter-node communication "handled by means of a hyperspace router"; the
//! published system sizing is 64 nodes for 40 GFLOPS and 128 GB. The
//! system model holds the nodes (`nsc_core::run_lanes` runs compiled
//! programs on them concurrently, the first on the calling thread and one
//! scoped thread for each other node) and accounts simulated
//! communication time with the e-cube router model.

use crate::counters::PerfCounters;
use crate::node::NodeSim;
use nsc_arch::{HypercubeConfig, KnowledgeBase, NodeId, PlaneId};

/// An open overlappable communication window: per-node budgets of
/// concurrently issued compute that messages may hide under.
#[derive(Debug)]
struct CommWindow {
    /// Remaining hideable nanoseconds, indexed by node.
    budget: Vec<u64>,
    /// Total nanoseconds hidden since the window opened.
    hidden: u64,
}

/// A hypercube of simulated nodes.
#[derive(Debug)]
pub struct NscSystem {
    /// Cube topology and router model.
    pub cube: HypercubeConfig,
    nodes: Vec<NodeSim>,
    /// Simulated communication time accumulated so far across the whole
    /// system, in nanoseconds, counting every message once (the serialized
    /// view; per-node overlap-aware accounting lives in each node's
    /// [`crate::PerfCounters::comm_ns`]).
    pub comm_ns: u64,
    /// The open overlap window, if any.
    comm_window: Option<CommWindow>,
}

impl NscSystem {
    /// A system of `2^dimension` identical nodes.
    pub fn new(cube: HypercubeConfig, kb: &KnowledgeBase) -> Self {
        let nodes = (0..cube.nodes()).map(|_| NodeSim::new(kb.clone())).collect();
        NscSystem { cube, nodes, comm_ns: 0, comm_window: None }
    }

    /// Open an overlappable communication window: until
    /// [`NscSystem::close_comm_window`], each listed node may hide up to
    /// its budget of message nanoseconds under compute it has already
    /// issued concurrently (the phased sweep drivers measure the interior
    /// phase and pass its per-node elapsed time here). Hidden time lands
    /// in [`crate::PerfCounters::comm_hidden_ns`] and does not extend the
    /// node's wall clock; unlisted nodes hide nothing. Windows model one
    /// concurrent compute phase and therefore do not nest.
    ///
    /// # Panics
    ///
    /// Panics if a window is already open.
    pub fn open_comm_window(&mut self, budgets: &[(NodeId, u64)]) {
        assert!(self.comm_window.is_none(), "overlap windows do not nest");
        let mut budget = vec![0u64; self.nodes.len()];
        for &(node, ns) in budgets {
            budget[node.index()] = ns;
        }
        self.comm_window = Some(CommWindow { budget, hidden: 0 });
    }

    /// Close the open overlap window (a no-op when none is open) and
    /// return the total message nanoseconds it hid across all nodes.
    pub fn close_comm_window(&mut self) -> u64 {
        self.comm_window.take().map(|w| w.hidden).unwrap_or(0)
    }

    /// Charge `ns` of message time to a node, hiding whatever fits in the
    /// node's remaining overlap-window budget.
    fn charge_comm(&mut self, node: NodeId, ns: u64) {
        let counters = &mut self.nodes[node.index()].counters;
        counters.comm_ns += ns;
        if let Some(win) = &mut self.comm_window {
            let hide = ns.min(win.budget[node.index()]);
            win.budget[node.index()] -= hide;
            win.hidden += hide;
            counters.comm_hidden_ns += hide;
        }
    }

    /// Number of nodes.
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// One node.
    pub fn node(&self, id: NodeId) -> &NodeSim {
        &self.nodes[id.index()]
    }

    /// One node, mutably.
    pub fn node_mut(&mut self, id: NodeId) -> &mut NodeSim {
        &mut self.nodes[id.index()]
    }

    /// All nodes, in node order.
    pub fn nodes(&self) -> &[NodeSim] {
        &self.nodes
    }

    /// All nodes, mutably — the handle `nsc_core::run_lanes` takes to run
    /// distinct programs across the cube concurrently.
    pub fn nodes_mut(&mut self) -> &mut [NodeSim] {
        &mut self.nodes
    }

    /// Transfer `len` words from a plane of one node to a plane of another,
    /// charging the e-cube route cost. Returns the message time in ns.
    #[allow(clippy::too_many_arguments)] // one argument per route endpoint coordinate
    pub fn exchange(
        &mut self,
        from: NodeId,
        from_plane: PlaneId,
        from_base: u64,
        to: NodeId,
        to_plane: PlaneId,
        to_base: u64,
        len: u64,
    ) -> u64 {
        let data = self.nodes[from.index()].mem.plane(from_plane).read_vec(from_base, len);
        self.nodes[to.index()].mem.plane_mut(to_plane).write_slice(to_base, &data);
        let ns = self.cube.message_ns(from, to, len);
        self.comm_ns += ns;
        // Both endpoints spend the message time (the sender streams it out,
        // the receiver waits for it); messages between *different* node
        // pairs overlap, which is what per-node accounting captures.
        self.charge_comm(from, ns);
        if to != from {
            self.charge_comm(to, ns);
        }
        ns
    }

    /// Swap one *face* — many equal-length word chunks, scattered through
    /// each node's plane — between two nodes as a single full-duplex
    /// sendrecv. The router streams a face as one message (one startup,
    /// total face words), not one message per chunk: the DMA engines
    /// gather and scatter the strided chunks at the endpoints. Chunk `i`
    /// read at `a_send[i]` lands at `b_recv[i]` and vice versa. Returns
    /// the per-endpoint time in ns (the serialized `comm_ns` counts both
    /// directions).
    #[allow(clippy::too_many_arguments)] // one argument per route endpoint coordinate
    pub fn exchange_face_bidirectional(
        &mut self,
        a: NodeId,
        a_plane: PlaneId,
        a_send: &[u64],
        a_recv: &[u64],
        b: NodeId,
        b_plane: PlaneId,
        b_send: &[u64],
        b_recv: &[u64],
        chunk_len: u64,
    ) -> u64 {
        assert!(
            a_send.len() == b_recv.len() && b_send.len() == a_recv.len(),
            "face chunk lists must pair up"
        );
        let gather = |mem: &crate::NodeMemory, plane: PlaneId, offs: &[u64]| -> Vec<f64> {
            let mut out = Vec::with_capacity(offs.len() * chunk_len as usize);
            for &off in offs {
                out.extend(mem.plane(plane).read_vec(off, chunk_len));
            }
            out
        };
        let ab = gather(&self.nodes[a.index()].mem, a_plane, a_send);
        let ba = gather(&self.nodes[b.index()].mem, b_plane, b_send);
        let mut scatter = |node: NodeId, plane: PlaneId, offs: &[u64], data: &[f64]| {
            let mem = &mut self.nodes[node.index()].mem;
            for (i, &off) in offs.iter().enumerate() {
                let lo = i * chunk_len as usize;
                mem.plane_mut(plane).write_slice(off, &data[lo..lo + chunk_len as usize]);
            }
        };
        scatter(b, b_plane, b_recv, &ab);
        scatter(a, a_plane, a_recv, &ba);
        let words = chunk_len * a_send.len().max(b_send.len()) as u64;
        let ns = self.cube.message_ns(a, b, words);
        self.comm_ns += 2 * ns;
        self.charge_comm(a, ns);
        if b != a {
            self.charge_comm(b, ns);
        }
        ns
    }

    /// Max-reduction of a cache scalar across an explicit pool of nodes —
    /// the members of one sub-cube embedding — charged as a butterfly over
    /// the pool (log2(pool) exchange rounds of one word). Nodes outside
    /// the pool neither contribute a value nor pay for the reduction.
    /// Returns `(max value, reduction time in ns)`.
    pub fn pool_max_cache_scalar(
        &mut self,
        members: &[NodeId],
        cache: nsc_arch::CacheId,
        offset: u64,
    ) -> (f64, u64) {
        let value = members
            .iter()
            .map(|&m| self.nodes[m.index()].mem.cache(cache).read(0, offset))
            .fold(f64::NEG_INFINITY, f64::max);
        // Butterfly: every round crosses one cube dimension (distance-1
        // links), one word per message; every member participates in every
        // round, so each member is charged the full butterfly.
        let rounds = members.len().next_power_of_two().trailing_zeros() as u64;
        let ns = self.cube.router.message_ns(1, 1) * rounds;
        self.comm_ns += ns;
        for &m in members {
            self.charge_comm(m, ns);
        }
        (value, ns)
    }

    /// The run meter: what the system's nodes did since `before`, one
    /// counter snapshot per node in node order (a fresh system's nodes
    /// all start from [`PerfCounters::default`]). Per-node deltas, their
    /// aggregate (work summed, elapsed time overlapped), the simulated
    /// duration — the slowest node's compute plus its own unhidden
    /// communication, so messages between disjoint node pairs overlap
    /// instead of serializing system-wide — and the achieved rate.
    ///
    /// # Panics
    ///
    /// Panics unless `before` holds one snapshot per node.
    pub fn metrics_since(&self, before: &[PerfCounters]) -> SystemRunMetrics {
        assert_eq!(before.len(), self.nodes.len(), "one counter snapshot per node");
        let clock = self.nodes[0].kb.config().clock_hz;
        let per_node: Vec<PerfCounters> =
            self.nodes.iter().zip(before).map(|(n, b)| n.counters.since(b)).collect();
        let mut total = PerfCounters::default();
        for c in &per_node {
            total.absorb(c);
        }
        let simulated_seconds =
            per_node.iter().map(|c| c.seconds_with_comm(clock)).fold(0.0, f64::max);
        let aggregate_mflops = if simulated_seconds > 0.0 {
            total.flops as f64 / simulated_seconds / 1e6
        } else {
            0.0
        };
        SystemRunMetrics { per_node, total, simulated_seconds, aggregate_mflops }
    }
}

/// What one run cost a system, as [`NscSystem::metrics_since`] measures
/// it.
#[derive(Debug, Clone, PartialEq)]
pub struct SystemRunMetrics {
    /// Per-node counter deltas, in node order.
    pub per_node: Vec<PerfCounters>,
    /// System aggregate: work summed, elapsed time overlapped.
    pub total: PerfCounters,
    /// Simulated seconds: the slowest node's compute plus its own
    /// unhidden communication.
    pub simulated_seconds: f64,
    /// Aggregate achieved MFLOPS: total flops over the simulated seconds
    /// (zero when no time passed).
    pub aggregate_mflops: f64,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::node::RunOptions;
    use nsc_arch::{FuId, FuOp, InPort, MachineConfig, SinkRef, SourceRef};
    use nsc_microcode::{FuField, MicroInstruction, MicroProgram, PlaneDmaField, ProgramBuilder};

    fn small_system(dim: u32) -> NscSystem {
        let kb = KnowledgeBase::new(MachineConfig::test_small());
        NscSystem::new(HypercubeConfig::new(dim), &kb)
    }

    fn double_program(kb: &KnowledgeBase, count: u32) -> MicroProgram {
        let mut b = ProgramBuilder::new(kb, "double");
        let mut ins = MicroInstruction::empty(kb);
        *ins.fu_mut(FuId(0)) = FuField {
            enabled: true,
            op: FuOp::Mul,
            in_a: nsc_microcode::FuInputSel::Switch,
            in_b: nsc_microcode::FuInputSel::Constant(0),
            const_slot: 0,
            preload: Some(2.0),
        };
        *ins.plane_rd_mut(PlaneId(0)) = PlaneDmaField::contiguous(0, count);
        *ins.plane_wr_mut(PlaneId(1)) = PlaneDmaField::contiguous(0, count);
        ins.switch
            .route(kb, SourceRef::PlaneRead(PlaneId(0)), SinkRef::FuIn(FuId(0), InPort::A))
            .unwrap();
        ins.switch.route(kb, SourceRef::Fu(FuId(0)), SinkRef::PlaneWrite(PlaneId(1))).unwrap();
        b.push(ins);
        b.finish()
    }

    /// Run `prog` on every node, node by node.
    fn run_everywhere(sys: &mut NscSystem, prog: &MicroProgram) {
        for node in sys.nodes_mut() {
            node.run_program(prog, &RunOptions::default()).expect("node runs");
        }
    }

    #[test]
    fn nodes_run_on_private_data() {
        let mut sys = small_system(2); // 4 nodes
        for i in 0..4u16 {
            sys.node_mut(NodeId(i)).mem.planes[0].write_slice(0, &[i as f64 + 1.0; 16]);
        }
        let kb = sys.node(NodeId(0)).kb.clone();
        let prog = double_program(&kb, 16);
        run_everywhere(&mut sys, &prog);
        for i in 0..4u16 {
            assert_eq!(
                sys.node(NodeId(i)).mem.planes[1].read(7),
                2.0 * (i as f64 + 1.0),
                "node {i} doubled its own data"
            );
        }
    }

    #[test]
    fn exchange_moves_data_and_charges_the_router() {
        let mut sys = small_system(3);
        sys.node_mut(NodeId(0)).mem.planes[0].write_slice(100, &[1.0, 2.0, 3.0]);
        // 0 -> 7 is 3 hops in a 3-cube.
        let ns = sys.exchange(NodeId(0), PlaneId(0), 100, NodeId(7), PlaneId(2), 0, 3);
        assert_eq!(sys.node(NodeId(7)).mem.planes[2].read_vec(0, 3), vec![1.0, 2.0, 3.0]);
        let expect = sys.cube.router.message_ns(3, 3);
        assert_eq!(ns, expect);
        assert_eq!(sys.comm_ns, expect);
        assert_eq!(sys.node(NodeId(0)).counters.comm_ns, expect, "sender charged");
        assert_eq!(sys.node(NodeId(7)).counters.comm_ns, expect, "receiver charged");
        assert_eq!(sys.node(NodeId(3)).counters.comm_ns, 0, "bystanders are not");
    }

    #[test]
    fn bidirectional_exchange_swaps_blocks_for_one_message_time() {
        // A one-chunk face is the plain contiguous sendrecv.
        let mut sys = small_system(2);
        sys.node_mut(NodeId(1)).mem.planes[0].write_slice(0, &[1.0, 2.0]);
        sys.node_mut(NodeId(3)).mem.planes[0].write_slice(10, &[7.0, 8.0]);
        let ns = sys.exchange_face_bidirectional(
            NodeId(1),
            PlaneId(0),
            &[0],  // send base
            &[20], // recv base
            NodeId(3),
            PlaneId(0),
            &[10],
            &[30],
            2,
        );
        assert_eq!(sys.node(NodeId(3)).mem.planes[0].read_vec(30, 2), vec![1.0, 2.0]);
        assert_eq!(sys.node(NodeId(1)).mem.planes[0].read_vec(20, 2), vec![7.0, 8.0]);
        let msg = sys.cube.router.message_ns(1, 2);
        assert_eq!(ns, msg);
        assert_eq!(sys.comm_ns, 2 * msg, "both messages count in the serialized view");
        assert_eq!(sys.node(NodeId(1)).counters.comm_ns, msg, "full-duplex overlap per node");
        assert_eq!(sys.node(NodeId(3)).counters.comm_ns, msg);
    }

    #[test]
    fn face_exchange_swaps_strided_chunks_for_one_message_time() {
        let mut sys = small_system(2);
        // Node 1 sends a "column": 3 chunks of 2 words at stride 8.
        sys.node_mut(NodeId(1)).mem.planes[0].write_slice(0, &[1.0, 2.0]);
        sys.node_mut(NodeId(1)).mem.planes[0].write_slice(8, &[3.0, 4.0]);
        sys.node_mut(NodeId(1)).mem.planes[0].write_slice(16, &[5.0, 6.0]);
        sys.node_mut(NodeId(3)).mem.planes[0].write_slice(100, &[9.0, 8.0]);
        sys.node_mut(NodeId(3)).mem.planes[0].write_slice(108, &[7.0, 6.0]);
        sys.node_mut(NodeId(3)).mem.planes[0].write_slice(116, &[5.0, 4.0]);
        let ns = sys.exchange_face_bidirectional(
            NodeId(1),
            PlaneId(0),
            &[0, 8, 16],
            &[40, 48, 56],
            NodeId(3),
            PlaneId(0),
            &[100, 108, 116],
            &[140, 148, 156],
            2,
        );
        assert_eq!(sys.node(NodeId(3)).mem.planes[0].read_vec(140, 2), vec![1.0, 2.0]);
        assert_eq!(sys.node(NodeId(3)).mem.planes[0].read_vec(156, 2), vec![5.0, 6.0]);
        assert_eq!(sys.node(NodeId(1)).mem.planes[0].read_vec(40, 2), vec![9.0, 8.0]);
        assert_eq!(sys.node(NodeId(1)).mem.planes[0].read_vec(56, 2), vec![5.0, 4.0]);
        // One message of the whole 6-word face per direction, not three.
        let msg = sys.cube.router.message_ns(1, 6);
        assert_eq!(ns, msg);
        assert_eq!(sys.comm_ns, 2 * msg);
        assert_eq!(sys.node(NodeId(1)).counters.comm_ns, msg);
        assert_eq!(sys.node(NodeId(3)).counters.comm_ns, msg);
    }

    #[test]
    fn comm_window_hides_message_time_up_to_the_budget() {
        let mut sys = small_system(2);
        let msg = sys.cube.router.message_ns(1, 100);
        // Node 1 can hide 1.5 messages' worth; node 3 nothing.
        sys.open_comm_window(&[(NodeId(1), msg + msg / 2)]);
        sys.exchange(NodeId(1), PlaneId(0), 0, NodeId(3), PlaneId(0), 0, 100);
        sys.exchange(NodeId(1), PlaneId(0), 0, NodeId(3), PlaneId(0), 200, 100);
        let hidden = sys.close_comm_window();
        assert_eq!(hidden, msg + msg / 2, "budget fully consumed");
        let n1 = sys.node(NodeId(1)).counters;
        assert_eq!(n1.comm_ns, 2 * msg);
        assert_eq!(n1.comm_hidden_ns, msg + msg / 2, "second message only half hides");
        assert_eq!(sys.node(NodeId(3)).counters.comm_hidden_ns, 0, "no budget, no hiding");
        // Wall clock: node 1 pays only the remainder, node 3 pays in full.
        let clock = sys.node(NodeId(0)).kb.config().clock_hz;
        let n3 = sys.node(NodeId(3)).counters;
        assert!(n1.seconds_with_comm(clock) < n3.seconds_with_comm(clock));
        // Outside a window nothing hides.
        sys.exchange(NodeId(1), PlaneId(0), 0, NodeId(3), PlaneId(0), 400, 100);
        assert_eq!(sys.node(NodeId(1)).counters.comm_hidden_ns, msg + msg / 2);
        assert_eq!(sys.close_comm_window(), 0, "closing a closed window is a no-op");
    }

    #[test]
    #[should_panic(expected = "do not nest")]
    fn comm_windows_do_not_nest() {
        let mut sys = small_system(1);
        sys.open_comm_window(&[(NodeId(0), 10)]);
        sys.open_comm_window(&[(NodeId(1), 10)]);
    }

    #[test]
    fn global_max_reduces_across_nodes() {
        let mut sys = small_system(2);
        for i in 0..4u16 {
            sys.node_mut(NodeId(i)).mem.caches[0].write(0, 0, i as f64 * 10.0);
        }
        let every: Vec<NodeId> = (0..4).map(NodeId).collect();
        let (v, ns) = sys.pool_max_cache_scalar(&every, nsc_arch::CacheId(0), 0);
        assert_eq!(v, 30.0);
        assert_eq!(ns, 2 * sys.cube.router.message_ns(1, 1), "log2(4) rounds");
    }

    /// The run meter over everything a fresh system has done.
    fn metrics(sys: &NscSystem) -> SystemRunMetrics {
        sys.metrics_since(&vec![PerfCounters::default(); sys.node_count()])
    }

    #[test]
    fn simulated_time_is_max_compute_plus_comm() {
        let mut sys = small_system(1);
        let kb = sys.node(NodeId(0)).kb.clone();
        let prog = double_program(&kb, 64);
        run_everywhere(&mut sys, &prog);
        let compute_only = metrics(&sys).simulated_seconds;
        assert!(compute_only > 0.0);
        sys.exchange(NodeId(0), PlaneId(0), 0, NodeId(1), PlaneId(0), 0, 1000);
        assert!(metrics(&sys).simulated_seconds > compute_only, "comm adds simulated time");
    }

    #[test]
    fn aggregate_mflops_scale_with_nodes() {
        // The same per-node work on 1 vs 4 nodes: ~4x the aggregate rate.
        let kb = KnowledgeBase::new(MachineConfig::test_small());
        let prog = double_program(&kb, 1024);
        let mut sys1 = small_system(0);
        run_everywhere(&mut sys1, &prog);
        let mut sys4 = small_system(2);
        run_everywhere(&mut sys4, &prog);
        let r1 = metrics(&sys1).aggregate_mflops;
        let r4 = metrics(&sys4).aggregate_mflops;
        assert!(r4 > 3.5 * r1, "expected ~4x: {r1} vs {r4}");
    }

    #[test]
    fn metrics_measure_only_the_run_since_the_snapshot() {
        let mut sys = small_system(1);
        let kb = sys.node(NodeId(0)).kb.clone();
        run_everywhere(&mut sys, &double_program(&kb, 64));
        let before: Vec<PerfCounters> = sys.nodes().iter().map(|n| n.counters).collect();
        let prog = double_program(&kb, 32);
        sys.node_mut(NodeId(1)).run_program(&prog, &RunOptions::default()).expect("runs");
        let m = sys.metrics_since(&before);
        assert_eq!(m.per_node[0], PerfCounters::default(), "node 0 stayed idle");
        assert_eq!(m.per_node[1].flops, 32);
        assert_eq!(m.total.flops, 32);
        assert_eq!(m.total.cycles, m.per_node[1].cycles, "elapsed time overlaps");
        let clock = kb.config().clock_hz;
        assert_eq!(m.simulated_seconds, m.per_node[1].seconds_with_comm(clock));
        assert_eq!(m.aggregate_mflops, 32.0 / m.simulated_seconds / 1e6);
        let now: Vec<PerfCounters> = sys.nodes().iter().map(|n| n.counters).collect();
        assert_eq!(sys.metrics_since(&now).aggregate_mflops, 0.0, "no time, no rate");
    }
}
