//! Pinned behaviour of every stencil document.
//!
//! Each stencil document — the 3-D loop document in its three machine
//! variants, the windowed 3-D sweeps (plain and damped), the windowed
//! 2-D sweep and the cavity's FTCS transport step — runs once from
//! seeded inputs on the kernel fast path and once on the interpreter.
//! Both runs must charge the pinned cycles, flops and instructions and
//! leave the pinned hash of every word the document can write; every
//! instruction must specialize, and every residual fold must reduce
//! without a stream. The documents may be rebuilt by any means, but
//! these numbers may not move. Only the count of editing decisions
//! (icons, wires, unit assignments and DMA forms) may fall.

use nsc_arch::{CacheId, MachineConfig, SubsetModel};
use nsc_cfd::diagrams::{build_ftcs_transport_document, Jacobi2dGeometry, JacobiGeometry};
use nsc_cfd::host::FtcsCoeffs;
use nsc_cfd::{
    build_damped_jacobi_sweep_document_windows, build_jacobi2d_sweep_document_windows,
    build_jacobi_document, build_jacobi_sweep_document_windows, JacobiVariant, SweepWindow,
};
use nsc_core::Session;
use nsc_diagram::Document;
use nsc_sim::{PerfCounters, RunOptions};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// What one document must reproduce.
struct Pin {
    cycles: u64,
    flops: u64,
    instructions: u64,
    /// FNV-1a over every declared word and the residual cache slots.
    words: u64,
    /// Residual folds, each of which the kernel must run reduce-only.
    folds: usize,
    /// The most editing decisions the document may take.
    decisions: usize,
}

/// Icons placed, wires drawn, units programmed and DMA forms filled in.
fn decisions(doc: &Document) -> usize {
    doc.pipelines()
        .iter()
        .map(|p| {
            p.icon_count()
                + p.connection_count()
                + p.fu_assigns().count()
                + p.connections().filter(|c| c.dma.is_some()).count()
        })
        .sum()
}

fn fnv(words: impl IntoIterator<Item = f64>) -> u64 {
    words.into_iter().fold(0xcbf2_9ce4_8422_2325, |h, w| {
        w.to_bits()
            .to_le_bytes()
            .iter()
            .fold(h, |h, &b| (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3))
    })
}

/// Compile `doc` for `machine`, fill every declared variable with seeded
/// words, run it, and return the run's counters and the hash of every
/// declared word plus the first four residual cache slots. On the fast
/// path, also check the kernel covers every instruction and runs `folds`
/// reduce-only folds.
fn run(
    doc: &Document,
    machine: &MachineConfig,
    seed: u64,
    fast: bool,
    folds: usize,
) -> (PerfCounters, u64) {
    let session = Session::new(machine.clone()).with_fast_path(fast);
    let mut doc = doc.clone();
    let prog = session.compile(&mut doc).expect("the document compiles");
    if fast {
        let kernel = prog.kernel().expect("a fast session attaches a kernel");
        assert_eq!(kernel.specialized(), kernel.instructions(), "{}: kernel coverage", doc.name);
        assert_eq!(kernel.reduce_only_folds(), folds, "{}: reduce-only folds", doc.name);
    }
    let mut node = session.node();
    let mut rng = StdRng::seed_from_u64(seed);
    for v in &doc.decls.vars {
        let words: Vec<f64> = (0..v.len).map(|_| rng.random_range(-1.0..1.0)).collect();
        node.mem.plane_mut(v.plane).write_slice(v.base, &words);
    }
    let report = prog.run(&mut node, &RunOptions::default()).expect("the document runs");
    let declared =
        doc.decls.vars.iter().flat_map(|v| node.mem.plane(v.plane).read_vec(v.base, v.len));
    let cache = node.mem.cache(CacheId(0));
    let slots: Vec<f64> = (0..4).map(|s| cache.read(0, s)).collect();
    (report.counters, fnv(declared.chain(slots)))
}

fn check(doc: Document, machine: MachineConfig, seed: u64, pin: Pin) {
    let name = doc.name.clone();
    let (kernel, kernel_words) = run(&doc, &machine, seed, true, pin.folds);
    let (interp, interp_words) = run(&doc, &machine, seed, false, pin.folds);
    assert_eq!(kernel, interp, "{name}: kernel and interpreter counters");
    assert_eq!(kernel_words, interp_words, "{name}: kernel and interpreter words");
    assert_eq!(
        (kernel.cycles, kernel.flops, kernel.instructions, kernel_words),
        (pin.cycles, pin.flops, pin.instructions, pin.words),
        "{name}: (cycles, flops, instructions, word hash)"
    );
    let made = decisions(&doc);
    assert!(made <= pin.decisions, "{name}: {made} decisions, at most {} pinned", pin.decisions);
}

fn three_windows(layers: usize) -> [SweepWindow; 3] {
    [
        SweepWindow { start: 0, len: 1, slot: SweepWindow::LO_SLOT },
        SweepWindow { start: 1, len: layers - 2, slot: 0 },
        SweepWindow { start: layers - 1, len: 1, slot: SweepWindow::HI_SLOT },
    ]
}

#[test]
fn loop_documents_keep_their_numbers() {
    let full = MachineConfig::nsc_1988();
    let cases = [
        (
            JacobiVariant::Full,
            full.clone(),
            Pin {
                cycles: 4226,
                flops: 34806,
                instructions: 7,
                words: 0xb8ef_0b1e_7554_73cd,
                folds: 2,
                decisions: 104,
            },
        ),
        (
            JacobiVariant::SingletsOnly,
            full.subset(SubsetModel::SingletsOnly),
            Pin {
                cycles: 4226,
                flops: 34806,
                instructions: 7,
                words: 0xb5c0_f4a6_cf7b_ce8f,
                folds: 2,
                decisions: 118,
            },
        ),
        (
            JacobiVariant::NoSdu,
            full.subset(SubsetModel::NoSdu),
            Pin {
                cycles: 11564,
                flops: 33792,
                instructions: 19,
                words: 0xf873_8f70_dde0_920c,
                folds: 2,
                decisions: 218,
            },
        ),
    ];
    for (seed, (variant, machine, pin)) in (1..).zip(cases) {
        check(build_jacobi_document(8, 0.0, 3, variant), machine, seed, pin);
    }
}

#[test]
fn windowed_sweeps_keep_their_numbers() {
    let geo = JacobiGeometry::slab(7, 6, 9);
    let windows = three_windows(geo.nz);
    let full = MachineConfig::nsc_1988;
    check(
        build_jacobi_sweep_document_windows(geo, true, &windows),
        full(),
        4,
        Pin {
            cycles: 807,
            flops: 4536,
            instructions: 3,
            words: 0xa859_26d7_be72_698b,
            folds: 3,
            decisions: 156,
        },
    );
    check(
        build_jacobi_sweep_document_windows(geo, false, &windows),
        full(),
        5,
        Pin {
            cycles: 807,
            flops: 4536,
            instructions: 3,
            words: 0xfc64_d127_c3f8_78f5,
            folds: 3,
            decisions: 156,
        },
    );
    let damped = JacobiGeometry::slab(6, 5, 7);
    check(
        build_damped_jacobi_sweep_document_windows(damped, true, 0.8, &three_windows(damped.nz)),
        full(),
        6,
        Pin {
            cycles: 576,
            flops: 2835,
            instructions: 3,
            words: 0x072a_092c_767b_27ce,
            folds: 3,
            decisions: 162,
        },
    );
    let plane = Jacobi2dGeometry::new(9, 7);
    check(
        build_jacobi2d_sweep_document_windows(plane, false, &three_windows(plane.ny)),
        full(),
        7,
        Pin {
            cycles: 285,
            flops: 615,
            instructions: 3,
            words: 0xc2af_f965_6034_cdf7,
            folds: 3,
            decisions: 135,
        },
    );
}

#[test]
fn ftcs_transport_keeps_its_numbers() {
    check(
        build_ftcs_transport_document(
            Jacobi2dGeometry::new(9, 5),
            FtcsCoeffs::new(0.125, 50.0, 1e-3),
        ),
        MachineConfig::nsc_1988(),
        8,
        Pin {
            cycles: 121,
            flops: 1043,
            instructions: 1,
            words: 0x1edf_2f7f_9b34_4a6f,
            folds: 0,
            decisions: 81,
        },
    );
}
