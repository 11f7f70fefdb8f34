//! The rebind fast path must be invisible. A document whose *shape*
//! matches a cached compile — same pipelines, same wiring, different
//! constant icons — is served by patching preloads onto the cached
//! program instead of re-running check + codegen. These tests pin the
//! correctness spine of that path: the patched program, and everything
//! it computes, must be bit-identical to a from-scratch compile of the
//! same document.

use nsc_cfd::diagrams::{JacobiGeometry, PLANE_U0, PLANE_U1, RESIDUAL_CACHE};
use nsc_cfd::{
    build_damped_jacobi_sweep_document_windows, build_jacobi_sweep_document_windows, load_problem,
    Grid3, JacobiHostState, JacobiVariant, SweepWindow,
};
use nsc_core::{CompiledProgram, NscError, Session};
use nsc_diagram::Document;
use nsc_sim::{PerfCounters, RunOptions};
use proptest::prelude::*;

/// The whole-slab damped sweep.
fn damped_sweep(geo: JacobiGeometry, even: bool, omega: f64) -> Document {
    build_damped_jacobi_sweep_document_windows(geo, even, omega, &[SweepWindow::whole(geo.nz)])
}

/// A deterministic, interesting test problem (no two words alike).
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

/// Run an already-compiled damped-Jacobi sweep and collect everything
/// it leaves behind for bit-comparison.
fn run_collect(
    session: &Session,
    compiled: &CompiledProgram,
    geo: JacobiGeometry,
    even: bool,
    state: &JacobiHostState,
) -> (Vec<f64>, Vec<f64>, PerfCounters) {
    let mut node = session.node();
    load_problem(&mut node, state, JacobiVariant::Full);
    compiled.run(&mut node, &RunOptions::default()).expect("sweep runs");
    let dst = if even { PLANE_U1 } else { PLANE_U0 };
    (
        node.mem.plane(dst).read_vec(0, geo.padded as u64),
        (0..4).map(|s| node.mem.cache(RESIDUAL_CACHE).read(0, s)).collect(),
        node.counters,
    )
}

fn assert_same_program(a: &CompiledProgram, b: &CompiledProgram, what: &str) {
    assert_eq!(a.program(), b.program(), "{what}: microprograms differ");
    assert_eq!(a.shape_digest(), b.shape_digest(), "{what}: shapes differ");
    assert_eq!(a.kernel().is_some(), b.kernel().is_some(), "{what}: kernel presence differs");
}

/// `Session::compile` with a warm shape cache must hand back the exact
/// program a cold session would build for the same document.
#[test]
fn cached_shape_compile_equals_from_scratch_compile() {
    let geo = JacobiGeometry::slab(5, 4, 4);
    let (omega_base, omega_target) = (0.7, 1.3);

    // Reference: a cold session compiles the target directly.
    let cold = Session::nsc_1988();
    let reference = cold.compile(&mut damped_sweep(geo, true, omega_target)).unwrap();
    assert_eq!(cold.cache_stats().misses, 1);

    // Warm session: the base omega misses, the target omega rebinds.
    let warm = Session::nsc_1988();
    warm.compile(&mut damped_sweep(geo, true, omega_base)).unwrap();
    let patched = warm.compile(&mut damped_sweep(geo, true, omega_target)).unwrap();
    let stats = warm.cache_stats();
    assert_eq!(
        (stats.misses, stats.rebinds, stats.hits),
        (1, 1, 0),
        "the second omega must take the rebind path: {stats:?}"
    );
    assert_eq!((stats.entries, stats.shapes), (2, 1), "two programs, one shape");

    assert_same_program(&patched, &reference, "compile-level rebind");

    // And the programs genuinely differ from the base compile — the
    // patch really rebound the constant.
    let mut base_doc = damped_sweep(geo, true, omega_base);
    let base = warm.compile(&mut base_doc).unwrap();
    assert_ne!(base.program(), patched.program(), "omega must land in the program");
    // That recompile is a hit, which reads its shape from the cache.
    assert_eq!(warm.cache_stats().hits, 1);
    assert_eq!(base.shape_digest(), base_doc.shape_digest());

    // Run-level identity on top of program-level identity.
    let state = problem(5, 4, 4);
    let (dst_a, res_a, ctr_a) = run_collect(&cold, &reference, geo, true, &state);
    let (dst_b, res_b, ctr_b) = run_collect(&warm, &patched, geo, true, &state);
    for (i, (x, y)) in dst_a.iter().zip(&dst_b).enumerate() {
        assert_eq!(x.to_bits(), y.to_bits(), "destination word {i} ({x} vs {y})");
    }
    for (s, (x, y)) in res_a.iter().zip(&res_b).enumerate() {
        assert_eq!(x.to_bits(), y.to_bits(), "residual slot {s}");
    }
    assert_eq!(ctr_a, ctr_b, "counters");
}

/// The explicit rebind API: patch a compiled program to a new
/// document's constants without touching the cache.
#[test]
fn explicit_rebind_equals_from_scratch_compile() {
    let geo = JacobiGeometry::slab(6, 4, 5);
    let session = Session::nsc_1988();
    let base = session.compile(&mut damped_sweep(geo, false, 0.9)).unwrap();

    let mut target = damped_sweep(geo, false, 1.7);
    let rebound = session.rebind(&base, &mut target).expect("same shape rebinds");

    let cold = Session::nsc_1988();
    let reference = cold.compile(&mut damped_sweep(geo, false, 1.7)).unwrap();
    assert_same_program(&rebound, &reference, "explicit rebind");

    // rebind() itself is cache-free: still exactly one entry, no hits.
    let stats = session.cache_stats();
    assert_eq!((stats.misses, stats.rebinds, stats.hits, stats.entries), (1, 0, 0, 1));
}

/// Rebinding against a structurally different document must refuse
/// loudly, not mis-patch.
#[test]
fn rebind_refuses_a_different_shape() {
    let session = Session::nsc_1988();
    let geo = JacobiGeometry::slab(5, 4, 4);
    let base = session.compile(&mut damped_sweep(geo, true, 0.8)).unwrap();

    // Different geometry: different wiring, different shape.
    let other_geo = JacobiGeometry::slab(6, 4, 4);
    let mut other = damped_sweep(other_geo, true, 0.8);
    match session.rebind(&base, &mut other) {
        Err(NscError::ShapeMismatch { expected, got }) => {
            assert_eq!(expected, base.shape_digest());
            assert_ne!(expected, got);
        }
        other => panic!("expected ShapeMismatch, got {other:?}"),
    }

    // An undamped sweep is also a different shape (no omega constant).
    let mut undamped =
        build_jacobi_sweep_document_windows(geo, true, &[SweepWindow::whole(geo.nz)]);
    assert!(matches!(session.rebind(&base, &mut undamped), Err(NscError::ShapeMismatch { .. })));
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 16, ..ProptestConfig::default() })]

    /// The rebind contract over *arbitrary* swept constants: for any
    /// base/target omega pair (any finite sign/magnitude mix, equal
    /// values included) and any slab geometry, compiling the target on
    /// a session warmed with the base produces bit-for-bit the program
    /// and the run results of a cold compile.
    #[test]
    fn rebind_is_bit_identical_for_arbitrary_constants(
        nx in 3usize..=6,
        ny in 3usize..=5,
        nz in 3usize..=6,
        even in any::<bool>(),
        omega_base in prop_oneof![-4.0..4.0f64, Just(0.0), Just(1.0)],
        omega_target in prop_oneof![-4.0..4.0f64, Just(0.0), Just(1.0), Just(-0.0)],
    ) {
        let geo = JacobiGeometry::slab(nx, ny, nz);
        let state = problem(nx, ny, nz);

        let cold = Session::nsc_1988();
        let reference =
            cold.compile(&mut damped_sweep(geo, even, omega_target)).unwrap();

        let warm = Session::nsc_1988();
        let base = warm.compile(&mut damped_sweep(geo, even, omega_base)).unwrap();
        let patched =
            warm.compile(&mut damped_sweep(geo, even, omega_target)).unwrap();
        let stats = warm.cache_stats();
        prop_assert_eq!(stats.misses, 1, "base compile is the only full compile");
        prop_assert_eq!(stats.hits + stats.rebinds, 1, "target is served from the shape cache");

        prop_assert_eq!(patched.program(), reference.program());

        // The explicit API agrees with the implicit path.
        let mut target = damped_sweep(geo, even, omega_target);
        let rebound = warm.rebind(&base, &mut target).expect("same shape rebinds");
        prop_assert_eq!(rebound.program(), reference.program());

        let (dst_a, res_a, ctr_a) = run_collect(&cold, &reference, geo, even, &state);
        let (dst_b, res_b, ctr_b) = run_collect(&warm, &patched, geo, even, &state);
        for (x, y) in dst_a.iter().zip(&dst_b) {
            prop_assert_eq!(x.to_bits(), y.to_bits());
        }
        for (x, y) in res_a.iter().zip(&res_b) {
            prop_assert_eq!(x.to_bits(), y.to_bits());
        }
        prop_assert_eq!(ctr_a, ctr_b);
    }
}
