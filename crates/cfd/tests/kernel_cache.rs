//! Behavior of the digest-keyed kernel cache, exercised through the
//! workloads' own sweep documents: recompiles hit, distinct documents
//! never collide, and — property-tested over arbitrary output windows —
//! the specialized kernels agree with the interpreter to the last bit.

use nsc_cfd::diagrams::{JacobiGeometry, PLANE_U0, PLANE_U1, RESIDUAL_CACHE};
use nsc_cfd::{
    build_jacobi_sweep_document_windows, load_problem, Grid3, JacobiHostState, JacobiVariant,
    SweepWindow,
};
use nsc_core::Session;
use nsc_sim::{PerfCounters, RunOptions};
use proptest::prelude::*;
use std::ops::RangeInclusive;

/// A deterministic, interesting test problem (no two words alike, signs
/// and magnitudes mixed) on an `nx * ny * nz` grid.
fn problem(nx: usize, ny: usize, nz: usize) -> JacobiHostState {
    let mut u0 = Grid3::new(nx, ny, nz);
    let mut f = Grid3::new(nx, ny, nz);
    for (i, v) in u0.data.iter_mut().enumerate() {
        *v = ((i.wrapping_mul(2_654_435_761) % 1999) as f64 - 999.0) / 31.0;
    }
    for (i, v) in f.data.iter_mut().enumerate() {
        *v = ((i.wrapping_mul(40_503) % 911) as f64 - 455.0) / 7.0;
    }
    JacobiHostState::new(&u0, &f)
}

/// Everything one sweep run leaves behind, collected for bit-comparison.
struct SweepResult {
    dst: Vec<f64>,
    residuals: Vec<f64>,
    counters: PerfCounters,
}

/// Compile `doc` under `session`, run it on a freshly loaded node, and
/// collect the destination plane, residual slots and counters.
fn run_sweep(
    session: &Session,
    geo: JacobiGeometry,
    even: bool,
    windows: &[SweepWindow],
    state: &JacobiHostState,
    expect_kernel: bool,
) -> SweepResult {
    let mut doc = build_jacobi_sweep_document_windows(geo, even, windows);
    let compiled = session.compile(&mut doc).expect("sweep document compiles");
    match compiled.kernel() {
        Some(k) => {
            assert!(expect_kernel, "interpreter session must not attach kernels");
            assert_eq!(
                k.specialized(),
                k.instructions(),
                "every sweep instruction must specialize (no silent fallback)"
            );
        }
        None => assert!(!expect_kernel, "fast session must attach a kernel"),
    }
    let mut node = session.node();
    load_problem(&mut node, state, JacobiVariant::Full);
    compiled.run(&mut node, &RunOptions::default()).expect("sweep runs");
    let dst = if even { PLANE_U1 } else { PLANE_U0 };
    SweepResult {
        dst: node.mem.plane(dst).read_vec(0, geo.padded as u64),
        residuals: (0..4).map(|s| node.mem.cache(RESIDUAL_CACHE).read(0, s)).collect(),
        counters: node.counters,
    }
}

fn assert_bit_equal(a: &SweepResult, b: &SweepResult, what: &str) {
    for (i, (x, y)) in a.dst.iter().zip(&b.dst).enumerate() {
        assert_eq!(x.to_bits(), y.to_bits(), "{what}: destination word {i} ({x} vs {y})");
    }
    for (s, (x, y)) in a.residuals.iter().zip(&b.residuals).enumerate() {
        assert_eq!(x.to_bits(), y.to_bits(), "{what}: residual slot {s} ({x} vs {y})");
    }
    assert_eq!(a.counters, b.counters, "{what}: counters");
}

#[test]
fn recompiling_an_identical_document_hits_the_cache() {
    let session = Session::nsc_1988();
    let geo = JacobiGeometry::slab(5, 4, 4);
    let state = problem(5, 4, 4);
    let whole = [SweepWindow::whole(4)];
    let first = run_sweep(&session, geo, true, &whole, &state, true);
    assert_eq!(session.cache_stats().misses, 1);
    assert_eq!(session.cache_stats().hits, 0);
    // A second, independently built copy of the same document: same
    // digest, so the cached kernel and generated program are reused —
    // and reproduce the first run exactly.
    let second = run_sweep(&session, geo, true, &whole, &state, true);
    assert_eq!(session.cache_stats().misses, 1, "recompile must not rebuild");
    assert_eq!(session.cache_stats().hits, 1, "recompile must hit");
    assert_eq!(session.cache_stats().entries, 1);
    assert_bit_equal(&first, &second, "cached recompile");
}

#[test]
fn distinct_documents_get_distinct_cache_entries() {
    // Collision safety: semantically different documents — even vs odd
    // sweeps, whole vs windowed — must land in different entries, keyed
    // by different digests, each reproducing its own interpreter result.
    let geo = JacobiGeometry::slab(5, 4, 4);
    let whole = [SweepWindow::whole(4)];
    let split = [
        SweepWindow { start: 0, len: 1, slot: SweepWindow::LO_SLOT },
        SweepWindow { start: 1, len: 2, slot: 0 },
        SweepWindow { start: 3, len: 1, slot: SweepWindow::HI_SLOT },
    ];
    let docs: Vec<_> = [
        build_jacobi_sweep_document_windows(geo, true, &whole),
        build_jacobi_sweep_document_windows(geo, false, &whole),
        build_jacobi_sweep_document_windows(geo, true, &split),
    ]
    .into_iter()
    .collect();
    for (i, a) in docs.iter().enumerate() {
        for b in &docs[i + 1..] {
            assert_ne!(a.digest(), b.digest(), "distinct documents must digest apart");
        }
    }

    let session = Session::nsc_1988();
    let state = problem(5, 4, 4);
    let whole_run = run_sweep(&session, geo, true, &whole, &state, true);
    let odd_run = run_sweep(&session, geo, false, &whole, &state, true);
    let split_run = run_sweep(&session, geo, true, &split, &state, true);
    assert_eq!(session.cache_stats().entries, 3, "three documents, three entries");
    assert_eq!(session.cache_stats().misses, 3);
    assert_eq!(session.cache_stats().hits, 0);

    // The windowed even sweep covers the same layers as the fused one:
    // identical plane bits prove the cache did not cross-serve kernels
    // (a collision would run the wrong plan and corrupt the output).
    for (i, (x, y)) in whole_run.dst.iter().zip(&split_run.dst).enumerate() {
        assert_eq!(x.to_bits(), y.to_bits(), "windowing changed word {i}");
    }
    // The odd sweep reads the other plane, so it must differ from the
    // even run somewhere — they are genuinely different programs.
    assert!(
        whole_run.dst.iter().zip(&odd_run.dst).any(|(x, y)| x.to_bits() != y.to_bits()),
        "even and odd sweeps must not produce identical planes"
    );

    // Recompiling each now hits its own entry.
    run_sweep(&session, geo, true, &whole, &state, true);
    run_sweep(&session, geo, false, &whole, &state, true);
    assert_eq!(session.cache_stats().entries, 3);
    assert_eq!(session.cache_stats().hits, 2);
}

/// An arbitrary slab geometry with a non-empty list of arbitrary (even
/// overlapping) output windows inside it: the raw draws are reduced into
/// the geometry so every window satisfies `start + len <= nz`, `len >= 1`.
/// Half the cases are small slabs. The other half are slabs of 32–40
/// square layers whose windows each leave out at most two layers at
/// either end, so every window streams several kernel chunks and chunk
/// boundaries cut through every stage of the sweep.
fn arb_case() -> impl Strategy<Value = (usize, usize, usize, bool, Vec<SweepWindow>)> {
    prop_oneof![slab_case(3..=6, 3..=5, 3..=7, false), slab_case(32..=40, 32..=40, 9..=12, true)]
}

fn slab_case(
    nx: RangeInclusive<usize>,
    ny: RangeInclusive<usize>,
    nz: RangeInclusive<usize>,
    long: bool,
) -> impl Strategy<Value = (usize, usize, usize, bool, Vec<SweepWindow>)> {
    (nx, ny, (nz, any::<bool>()), prop::collection::vec((0usize..64, 0usize..64, 0u64..4), 1..=3))
        .prop_map(move |(nx, ny, (nz, even), raw)| {
            let windows = raw
                .into_iter()
                .map(|(s, l, slot)| match long {
                    false => {
                        let start = s % nz;
                        SweepWindow { start, len: 1 + l % (nz - start), slot }
                    }
                    true => SweepWindow { start: s % 3, len: nz - s % 3 - l % 3, slot },
                })
                .collect();
            (nx, ny, nz, even, windows)
        })
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 24, ..ProptestConfig::default() })]

    /// The heart of the fast path's contract: for *any* sweep windowing
    /// the partition layer could ask for, the specialized kernel and the
    /// cycle-accurate interpreter agree on every destination word, every
    /// residual slot and every counter — bit for bit.
    #[test]
    fn kernel_and_interpreter_agree_on_arbitrary_sweep_windows(
        (nx, ny, nz, even, windows) in arb_case(),
    ) {
        let geo = JacobiGeometry::slab(nx, ny, nz);
        let state = problem(nx, ny, nz);
        let fast = Session::nsc_1988();
        let interp = Session::nsc_1988().with_fast_path(false);
        let a = run_sweep(&fast, geo, even, &windows, &state, true);
        let b = run_sweep(&interp, geo, even, &windows, &state, false);
        for (x, y) in a.dst.iter().zip(&b.dst) {
            prop_assert_eq!(x.to_bits(), y.to_bits());
        }
        for (x, y) in a.residuals.iter().zip(&b.residuals) {
            prop_assert_eq!(x.to_bits(), y.to_bits());
        }
        prop_assert_eq!(a.counters, b.counters);
    }
}
