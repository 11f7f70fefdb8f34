//! Experiment T1 — the published system sizing: 640 MFLOPS per node,
//! 40 GFLOPS and 128 GB at 64 nodes.
//!
//! Sweeps the hypercube dimension 0..6 (1..64 nodes), runs the same
//! saturated-pipeline workload on every node (node by node on the host;
//! the simulated nodes overlap in time, since the figures come from
//! per-node counters), performs a Gray-embedded ring halo exchange, and
//! reports aggregate achieved MFLOPS against the configured peak.
//!
//! Run with: `cargo run --release --example hypercube_scaling`

use nsc::arch::{
    FuId, FuOp, HypercubeConfig, InPort, KnowledgeBase, NodeId, PlaneId, SinkRef, SourceRef,
};
use nsc::microcode::{FuField, FuInputSel, MicroInstruction, ProgramBuilder};
use nsc::sim::{NscSystem, RunOptions};

/// A saturated instruction: four chains of eight multiply-accumulate-style
/// units each, keeping all 32 functional units busy every cycle.
fn saturated_program(kb: &KnowledgeBase, count: u32) -> nsc::microcode::MicroProgram {
    let mut ins = MicroInstruction::empty(kb);
    for chain in 0..4u8 {
        let read = PlaneId(chain);
        let write = PlaneId(4 + chain);
        *ins.plane_rd_mut(read) = nsc::microcode::PlaneDmaField::contiguous(0, count);
        *ins.plane_wr_mut(write) = nsc::microcode::PlaneDmaField::contiguous(0, count);
        let fus: Vec<FuId> = (0..8).map(|i| FuId(chain * 8 + i)).collect();
        for (i, &fu) in fus.iter().enumerate() {
            *ins.fu_mut(fu) = FuField {
                enabled: true,
                op: FuOp::MulAddConst,
                in_a: FuInputSel::Switch,
                in_b: FuInputSel::Constant(0),
                const_slot: 0,
                preload: Some(1.000001),
            };
            let src = if i == 0 { SourceRef::PlaneRead(read) } else { SourceRef::Fu(fus[i - 1]) };
            ins.switch
                .route(kb, src, SinkRef::FuIn(fu, InPort::A))
                .expect("the 1988 machine has this port");
        }
        ins.switch
            .route(kb, SourceRef::Fu(fus[7]), SinkRef::PlaneWrite(write))
            .expect("the 1988 machine has this port");
    }
    ins.seq = nsc::microcode::SequencerField::halt();
    let mut b = ProgramBuilder::new(kb, "saturate");
    b.push(ins);
    b.finish()
}

fn main() {
    let kb = KnowledgeBase::nsc_1988();
    let cfg = kb.config().clone();
    println!(
        "node peak: {} MFLOPS ({} FUs x {} MHz); paper claims 640",
        cfg.peak_mflops(),
        cfg.fu_count(),
        cfg.clock_hz / 1_000_000
    );
    println!(
        "64-node system: {:.2} GFLOPS peak, {} GB memory (paper: 40 GFLOPS, 128 GB)\n",
        cfg.system_peak_gflops(64),
        cfg.system_memory_gb(64)
    );

    let count = 65_536u32;
    let prog = saturated_program(&kb, count);
    println!("nodes   aggregate MFLOPS   % of peak   halo exchange");
    for dim in 0..=6u32 {
        let cube = HypercubeConfig::new(dim);
        let mut sys = NscSystem::new(cube, &kb);
        // Seed every node's input planes.
        for i in 0..sys.node_count() {
            for p in 0..4u8 {
                let data: Vec<f64> = (0..64).map(|x| (x + i) as f64 * 0.5).collect();
                sys.node_mut(NodeId(i as u16)).mem.plane_mut(PlaneId(p)).write_slice(0, &data);
            }
        }
        for node in sys.nodes_mut() {
            node.run_program(&prog, &RunOptions::default()).expect("node runs");
        }
        // Gray-embedded ring halo exchange: each subdomain sends one
        // xy-plane (4096 words) to its ring successor.
        let nodes = sys.node_count();
        // All ring exchanges proceed concurrently (Gray-embedded
        // neighbours use disjoint links): the halo cost is the slowest
        // single exchange, not the sum.
        let mut slowest_ns = 0u64;
        for i in 0..nodes {
            let a = sys.cube.ring_node(i);
            let b = sys.cube.ring_node((i + 1) % nodes);
            if a != b {
                slowest_ns = slowest_ns.max(sys.exchange(a, PlaneId(4), 0, b, PlaneId(5), 0, 4096));
            }
        }
        let clock = cfg.clock_hz;
        let compute_s =
            (0..nodes).map(|i| sys.node(NodeId(i as u16)).counters.cycles).max().unwrap_or(0)
                as f64
                / clock as f64;
        let total_s = compute_s + slowest_ns as f64 * 1e-9;
        let flops: u64 = (0..nodes).map(|i| sys.node(NodeId(i as u16)).counters.flops).sum();
        let mflops = flops as f64 / total_s / 1e6;
        let peak = cfg.peak_mflops() * nodes as f64;
        println!(
            "{nodes:>5}   {mflops:>16.1}   {:>8.1}%   {:.3} ms",
            100.0 * mflops / peak,
            slowest_ns as f64 * 1e-6
        );
    }
    println!("\nnote: efficiency reflects instruction setup and pipeline fill/drain;");
    println!("the streaming body runs at one result per unit per clock, as published.");
}
