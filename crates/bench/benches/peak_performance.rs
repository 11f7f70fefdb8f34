//! T1 — "maximum rate of 640 MFLOPS per node": measure how close a
//! saturated pipeline configuration gets on the simulator, and verify the
//! published system-level numbers.

use criterion::{criterion_group, criterion_main, Criterion};
use nsc_arch::{FuId, FuOp, InPort, KnowledgeBase, PlaneId, SinkRef, SourceRef};
use nsc_microcode::{FuField, FuInputSel, MicroInstruction, PlaneDmaField, ProgramBuilder};
use nsc_sim::{NodeSim, RunOptions};

fn saturated(kb: &KnowledgeBase, count: u32) -> nsc_microcode::MicroProgram {
    let mut ins = MicroInstruction::empty(kb);
    for chain in 0..4u8 {
        *ins.plane_rd_mut(PlaneId(chain)) = PlaneDmaField::contiguous(0, count);
        *ins.plane_wr_mut(PlaneId(4 + chain)) = PlaneDmaField::contiguous(0, count);
        let fus: Vec<FuId> = (0..8).map(|i| FuId(chain * 8 + i)).collect();
        for (i, &fu) in fus.iter().enumerate() {
            *ins.fu_mut(fu) = FuField {
                enabled: true,
                op: FuOp::MulAddConst,
                in_a: FuInputSel::Switch,
                in_b: FuInputSel::Constant(0),
                const_slot: 0,
                preload: Some(1.0),
            };
            let src = if i == 0 {
                SourceRef::PlaneRead(PlaneId(chain))
            } else {
                SourceRef::Fu(fus[i - 1])
            };
            ins.switch.route(kb, src, SinkRef::FuIn(fu, InPort::A)).unwrap();
        }
        ins.switch
            .route(kb, SourceRef::Fu(fus[7]), SinkRef::PlaneWrite(PlaneId(4 + chain)))
            .unwrap();
    }
    ins.seq = nsc_microcode::SequencerField::halt();
    let mut b = ProgramBuilder::new(kb, "saturate");
    b.push(ins);
    b.finish()
}

fn report() {
    let kb = KnowledgeBase::nsc_1988();
    let cfg = kb.config();
    eprintln!(
        "published: 640 MFLOPS/node; configured peak {} MFLOPS; 64 nodes {:.2} GFLOPS / {} GB",
        cfg.peak_mflops(),
        cfg.system_peak_gflops(64),
        cfg.system_memory_gb(64)
    );
    let prog = saturated(&kb, 1 << 16);
    let mut node = NodeSim::new(kb.clone());
    node.run_program(&prog, &RunOptions::default()).unwrap();
    eprintln!(
        "measured saturated node: {:.1} MFLOPS = {:.1}% of peak",
        node.counters.mflops(cfg.clock_hz),
        100.0 * node.counters.efficiency(cfg.clock_hz, cfg.peak_mflops())
    );
    assert!(node.counters.efficiency(cfg.clock_hz, cfg.peak_mflops()) > 0.95);
}

fn bench(c: &mut Criterion) {
    report();
    let kb = KnowledgeBase::nsc_1988();
    let prog = saturated(&kb, 4096);
    c.bench_function("saturated_node_4096", |b| {
        b.iter(|| {
            let mut node = NodeSim::new(kb.clone());
            node.run_program(&prog, &RunOptions::default()).unwrap();
            node.counters.flops
        })
    });
}

criterion_group! {
    name = peak;
    config = Criterion::default().sample_size(10);
    targets = bench
}
criterion_main!(peak);
