//! Digest and seal stability.
//!
//! [`Document::digest`] is the compile cache's key, [`Document::shape_digest`]
//! the rebind index's, and a certificate's seal is the format the
//! independent verifier re-checks. None of them may move when the code
//! that computes them is rewritten:
//!
//! * every nsc-cfd document builder, plus one expression document, is
//!   pinned to the digest, shape digest and compiled-certificate seal it
//!   had when the tree-walk hashers were replaced by streamed ones;
//! * a property test compares the streamed digests and canonical bytes
//!   with the tree walkers they replaced, kept here as oracles, over
//!   random expression documents with arbitrary constant bit patterns;
//! * over the corpus and a seeded batch of random expression documents,
//!   every exit of `Session::compile` (miss, hit, rebind, interpreter
//!   only) and `Session::rebind` seal what the public stages — bind,
//!   check, generate, specialize, certify — produce when run by hand.

use nsc::arch::{FuOp, KnowledgeBase};
use nsc::cert::{digest_hex, CompileCertificate, CompilePath};
use nsc::cfd::diagrams::{build_ftcs_transport_document, Jacobi2dGeometry, JacobiGeometry};
use nsc::cfd::host::FtcsCoeffs;
use nsc::cfd::{
    build_chebyshev_document, build_damped_jacobi_sweep_document_windows,
    build_jacobi2d_sweep_document_windows, build_jacobi_document,
    build_jacobi_sweep_document_windows, JacobiVariant, SweepWindow,
};
use nsc::codegen::generate_prechecked;
use nsc::diagram::{Document, FuAssign, InputSpec};
use nsc::env::certify::build_certificate;
use nsc::env::Session;
use nsc::expr::{compile_expr, AllocStrategy, Expr};
use nsc::sim::CompiledKernel;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Serialize, Value};

/// The corpus, unbound: every nsc-cfd document builder and one
/// expression document.
fn corpus(kb: &KnowledgeBase) -> Vec<Document> {
    let three = [
        SweepWindow { start: 0, len: 1, slot: SweepWindow::LO_SLOT },
        SweepWindow { start: 1, len: 6, slot: 0 },
        SweepWindow { start: 7, len: 1, slot: SweepWindow::HI_SLOT },
    ];
    let slab = JacobiGeometry::slab(16, 16, 8);
    let tree = Expr::var("a").mul(Expr::var("b")).add(Expr::var("c").mul(Expr::Const(2.5))).abs();
    vec![
        build_jacobi_document(8, 1e-6, 100, JacobiVariant::Full),
        build_jacobi_sweep_document_windows(slab, true, &[SweepWindow::whole(8)]),
        build_jacobi_sweep_document_windows(slab, false, &three),
        build_damped_jacobi_sweep_document_windows(
            JacobiGeometry::slab(12, 10, 6),
            true,
            0.8,
            &[SweepWindow::whole(6)],
        ),
        build_jacobi2d_sweep_document_windows(
            Jacobi2dGeometry::new(32, 16),
            true,
            &[SweepWindow::whole(16)],
        ),
        build_ftcs_transport_document(
            Jacobi2dGeometry::new(24, 24),
            FtcsCoeffs::new(1.0 / 23.0, 100.0, 1e-3),
        ),
        build_chebyshev_document(256, &[0.5, -0.25, 0.125, 1.0], 2),
        compile_expr(&tree, "y", 128, AllocStrategy::RoundRobin, kb).0,
    ]
}

/// `(document name, digest, shape digest, seal)` of each bound corpus
/// document and its full-compile certificate, recorded from the
/// tree-walk hashers. `horner-deg3` was re-pinned when the Horner builder
/// began feeding its leading coefficient into the first stage (its
/// document, and so all three values, changed; the hashers did not).
const PINNED: [(&str, &str, &str, &str); 8] = [
    (
        "jacobi3d-8x8x8",
        "2be7f4e130d435e91bd396c771e1222d",
        "b7167ff87b04011d9680ff473afdab65",
        "d8903473a0269d158acb88fa1504b219",
    ),
    (
        "jacobi3d-sweep-even-16x16x8",
        "5aa1c3a43d15e872da4ead8baa4aeb6a",
        "6537804750b5f5c31b2202695ea7df20",
        "68c86d9ff38a4e854bfd7ee1be9fb8d7",
    ),
    (
        "jacobi3d-sweep-odd-16x16x8",
        "9a37e7e0070aec290f3f30f3c4480afd",
        "1cc756a9890937a7ddcafaf2a129e5fb",
        "53e55b4191f35ab5ed532dcab295826e",
    ),
    (
        "jacobi3d-smooth-even-12x10x6",
        "7fe8fa16c7edfe315e4056951bae358b",
        "add66e428ebcc3053c96b837b8348de2",
        "7d104992a27beb8509e6f7b4dc4b7b71",
    ),
    (
        "jacobi2d-sweep-even-32x16",
        "bad2943edfc470aa08109383670d9d30",
        "6b061e1be599f930c47e5b05e3b85075",
        "ac6cc2088c805b41c8bc5aecf339df24",
    ),
    (
        "cavity-ftcs-24x24",
        "33f5c980d670fddcf6b5fb26706a4f73",
        "8058e399f3b0446471794c328184c03a",
        "b189749e660a710e7c6a6847996753e2",
    ),
    (
        "horner-deg3",
        "ef7d9db0249deebe2c4a74fda8bd9ef4",
        "8e38c519d20a6bf77629bce55285fb16",
        "faa3f2bfb6c8f8b892ed6f01fac259c4",
    ),
    (
        "expr->y [one-per-plane]",
        "6b4986bb010ef66946dc0638ffb3aad2",
        "ed2d1aa26ebabb5d21f38a9a2a8ca13e",
        "4c70f7f32738178129529d184fbc88d1",
    ),
];

#[test]
fn digests_and_seals_match_the_pinned_values() {
    let session = Session::nsc_1988();
    let docs = corpus(session.kb());
    assert_eq!(docs.len(), PINNED.len());
    for (mut doc, (name, digest, shape, seal)) in docs.into_iter().zip(PINNED) {
        session.auto_bind(&mut doc).expect("corpus documents bind");
        assert_eq!(doc.name, name);
        assert_eq!(digest_hex(doc.digest()), digest, "{name}: digest");
        assert_eq!(digest_hex(doc.shape_digest()), shape, "{name}: shape digest");
        let compiled = session.compile(&mut doc).expect("corpus documents compile");
        assert_eq!(compiled.certificate().seal, seal, "{name}: seal");
    }
}

#[test]
fn non_finite_and_negative_zero_constants_survive_a_save_and_reload() {
    let session = Session::nsc_1988();
    let mut doc = build_chebyshev_document(64, &[0.1, f64::INFINITY, -0.0, f64::NEG_INFINITY], 2);
    let compiled = session.compile(&mut doc).expect("non-finite preloads are legal");
    let back = Document::from_json(&doc.to_json()).expect("the saved document loads");
    assert_eq!(back, doc);
    assert_eq!(back.digest(), doc.digest(), "-0.0 and the infinities keep their bits");
    assert_eq!(back.shape_digest(), doc.shape_digest());
    let mut reloaded = back;
    let again = session.compile(&mut reloaded).expect("the reloaded document compiles");
    assert_eq!(again.certificate().doc_digest, compiled.certificate().doc_digest);
}

/// The document with every register-file value (constants and feedback
/// seeds) moved to its neighbouring bit pattern: the same shape, and a
/// new digest whenever the document holds any value.
fn perturbed(doc: &Document) -> Document {
    let flip = |spec: InputSpec| match spec {
        InputSpec::Constant(v) => InputSpec::Constant(f64::from_bits(v.to_bits() ^ 1)),
        InputSpec::Feedback { init } => {
            InputSpec::Feedback { init: f64::from_bits(init.to_bits() ^ 1) }
        }
        other => other,
    };
    let mut twin = doc.clone();
    let ids: Vec<_> = twin.pipelines().iter().map(|p| p.id).collect();
    for id in ids {
        let d = twin.pipeline_mut(id).expect("listed id");
        let assigns: Vec<_> = d.fu_assigns().map(|(icon, pos, a)| (icon, pos, *a)).collect();
        for (icon, pos, a) in assigns {
            let flipped = FuAssign { op: a.op, in_a: flip(a.in_a), in_b: flip(a.in_b) };
            d.assign_fu(icon, pos, flipped).expect("an assigned unit");
        }
    }
    twin
}

#[test]
fn every_compile_exit_agrees_with_the_staged_pipeline() {
    let kb = KnowledgeBase::nsc_1988();
    let randoms = (0..64).map(|seed| random_document(seed, &kb));
    let mut rebinds = 0;
    for pristine in corpus(&kb).into_iter().chain(randoms) {
        let name = pristine.name.clone();
        let session = Session::nsc_1988();
        let cfg = session.kb().config();

        // The pipeline run stage by stage through its public pieces.
        let mut staged = pristine.clone();
        session.auto_bind(&mut staged).expect("binds");
        session.check(&staged).expect("checks");
        let output = generate_prechecked(&kb, &staged).expect("generates");
        let kernel = CompiledKernel::compile(&kb, &output.program);
        let (digest, shape) = (staged.digest(), staged.shape_digest());
        let want = build_certificate(cfg, digest, shape, CompilePath::Full, &output, Some(&kernel));
        let microcode = output.program.encode(&kb);

        // A first compile misses and seals exactly that certificate.
        let miss = session.compile(&mut pristine.clone()).expect("compiles");
        assert_eq!(miss.certificate().seal, want.seal, "{name}: miss seal");
        assert_eq!(miss.program().encode(&kb), microcode, "{name}: miss microcode");

        // The immediate recompile hits: the same certificate, restamped.
        let hit = session.compile(&mut pristine.clone()).expect("recompiles");
        let restamped = want.with_path(CompilePath::CacheHit, digest_hex(digest));
        assert_eq!(hit.certificate().seal, restamped.seal, "{name}: hit seal");
        assert_eq!(hit.program().encode(&kb), microcode, "{name}: hit microcode");

        // A constant-perturbed twin rebinds, sealing what the manual
        // rebind seals and holding a fresh full compile's microcode.
        let twin = perturbed(&pristine);
        let mut bound_twin = twin.clone();
        let auto = session.compile(&mut bound_twin).expect("the twin compiles");
        if bound_twin.digest() == digest {
            // Nothing to perturb: the twin is the same document.
            assert_eq!(auto.certificate().compile_path, CompilePath::CacheHit, "{name}");
        } else {
            rebinds += 1;
            let path = auto.certificate().compile_path;
            assert_eq!(path, CompilePath::Rebind, "{name}: twin path");
            let manual = session.rebind(&miss, &mut twin.clone()).expect("rebinds");
            assert_eq!(auto.certificate().seal, manual.certificate().seal, "{name}: rebind seal");
            let fresh = Session::nsc_1988().compile(&mut twin.clone()).expect("compiles fresh");
            let got = auto.program().encode(&kb);
            assert_eq!(got, fresh.program().encode(&kb), "{name}: rebound microcode");
            let as_rebind =
                fresh.certificate().with_path(CompilePath::Rebind, digest_hex(bound_twin.digest()));
            assert_eq!(auto.certificate().seal, as_rebind.seal, "{name}: rebind vs fresh seal");
        }

        // The interpreter-only exit: the same microcode and census, no
        // kernel, no windows, the full path, and no cache traffic.
        let interp = Session::nsc_1988().with_fast_path(false);
        let slow = interp.compile(&mut pristine.clone()).expect("compiles");
        let cert = slow.certificate();
        assert_eq!(slow.program().encode(&kb), microcode, "{name}: interpreted microcode");
        assert_eq!(cert.census, want.census, "{name}: census");
        assert!(cert.windows.is_empty() && slow.kernel().is_none(), "{name}: no kernel");
        assert_eq!(cert.compile_path, CompilePath::Full, "{name}: path");
        let unkerneled = build_certificate(cfg, digest, shape, CompilePath::Full, &output, None);
        assert_eq!(cert.seal, unkerneled.seal, "{name}: interpreted seal");
        let stats = interp.cache_stats();
        assert_eq!((stats.hits, stats.rebinds, stats.misses, stats.entries), (0, 0, 0, 0));
    }
    assert!(rebinds > 8, "only {rebinds} documents exercised the rebind exit");
}

// ---------------------------------------------------------------------------
// Oracles: the tree-walk hashers the streamed sinks replaced.
// ---------------------------------------------------------------------------

const FNV_OFFSET: u128 = 0x6c62272e07bb014262b821756295c58d;
const FNV_PRIME: u128 = 0x0000000001000000000000000000013B;

fn fnv128(bytes: &[u8]) -> u128 {
    bytes.iter().fold(FNV_OFFSET, |h, &b| (h ^ b as u128).wrapping_mul(FNV_PRIME))
}

/// The document digest's byte encoding of a value tree: one tag per node,
/// little-endian scalars, u64 length prefixes, object keys untagged.
fn digest_value(v: &Value, out: &mut Vec<u8>) {
    match v {
        Value::Null => out.push(0),
        Value::Bool(b) => out.extend([1, *b as u8]),
        Value::Int(i) => {
            out.push(2);
            out.extend(i.to_le_bytes());
        }
        Value::UInt(u) => {
            out.push(3);
            out.extend(u.to_le_bytes());
        }
        Value::Float(f) => {
            out.push(4);
            out.extend(f.to_bits().to_le_bytes());
        }
        Value::Str(s) => {
            out.push(5);
            out.extend((s.len() as u64).to_le_bytes());
            out.extend(s.as_bytes());
        }
        Value::Array(items) => {
            out.push(6);
            out.extend((items.len() as u64).to_le_bytes());
            items.iter().for_each(|item| digest_value(item, out));
        }
        Value::Object(entries) => {
            out.push(7);
            out.extend((entries.len() as u64).to_le_bytes());
            for (k, val) in entries {
                out.extend((k.len() as u64).to_le_bytes());
                out.extend(k.as_bytes());
                digest_value(val, out);
            }
        }
    }
}

/// The seal's canonical encoding: as [`digest_value`], but object keys
/// carry the string tag `5`.
fn canon_value(v: &Value, out: &mut Vec<u8>) {
    match v {
        Value::Array(items) => {
            out.push(6);
            out.extend((items.len() as u64).to_le_bytes());
            items.iter().for_each(|item| canon_value(item, out));
        }
        Value::Object(entries) => {
            out.push(7);
            out.extend((entries.len() as u64).to_le_bytes());
            for (k, val) in entries {
                out.push(5);
                out.extend((k.len() as u64).to_le_bytes());
                out.extend(k.as_bytes());
                canon_value(val, out);
            }
        }
        scalar => digest_value(scalar, out),
    }
}

/// The tree-walk digest: the document's value tree with the display
/// layouts emptied (and, for the shape, every preload masked).
fn oracle_digest(doc: &Document, shape: bool) -> u128 {
    let mut doc = doc.clone();
    if shape {
        let ids: Vec<_> = doc.pipelines().iter().map(|p| p.id).collect();
        for id in ids {
            doc.pipeline_mut(id).expect("listed id").mask_preload_values();
        }
    }
    let Value::Object(mut fields) = doc.to_value() else { panic!("a document is an object") };
    let layouts = fields.iter_mut().find(|(k, _)| k == "layouts").expect("layouts field");
    layouts.1 = Value::Object(Vec::new());
    let mut bytes = Vec::new();
    digest_value(&Value::Object(fields), &mut bytes);
    fnv128(&bytes)
}

/// The tree-walk canonical bytes: the certificate's value tree with the
/// seal cleared.
fn oracle_canonical_bytes(cert: &CompileCertificate) -> Vec<u8> {
    let mut unsealed = cert.clone();
    unsealed.seal.clear();
    let mut out = Vec::new();
    canon_value(&unsealed.to_value(), &mut out);
    out
}

/// A constant: half the time any bit pattern (NaN payloads, subnormals,
/// signed zeros), otherwise one of the values the JSON writer special-cases.
fn draw_constant(rng: &mut StdRng) -> f64 {
    if rng.random() {
        f64::from_bits(rng.next_u64())
    } else {
        [0.0, -0.0, f64::INFINITY, f64::NEG_INFINITY, f64::NAN, 2.5][rng.random_range(0..6usize)]
    }
}

/// A tree the expression mapper accepts: constants only as the right
/// operand of a binary node, a functional unit at the root, and no
/// variable read by more than four units.
fn draw_tree(rng: &mut StdRng, depth: u32) -> Expr {
    let var = |rng: &mut StdRng| Expr::var(["a", "b", "c", "d", "e"][rng.random_range(0..5usize)]);
    if depth == 0 {
        return var(rng);
    }
    let op = [FuOp::Add, FuOp::Sub, FuOp::Mul][rng.random_range(0..3usize)];
    match rng.random_range(0..10u32) {
        0..=3 => Expr::Binary(
            op,
            Box::new(draw_tree(rng, depth - 1)),
            Box::new(draw_tree(rng, depth - 1)),
        ),
        4..=6 => Expr::Binary(
            op,
            Box::new(draw_tree(rng, depth - 1)),
            Box::new(Expr::Const(draw_constant(rng))),
        ),
        7..=8 => draw_tree(rng, depth - 1).abs(),
        _ => var(rng),
    }
}

fn mappable(tree: &Expr) -> bool {
    fn reads(e: &Expr, name: &str) -> usize {
        match e {
            Expr::Load(v) => usize::from(v == name),
            Expr::Const(_) => 0,
            Expr::Unary(_, a) => reads(a, name),
            Expr::Binary(_, a, b) => reads(a, name) + reads(b, name),
        }
    }
    !matches!(tree, Expr::Load(_)) && tree.variables().iter().all(|v| reads(tree, v) <= 4)
}

/// A random bound expression document. The output name is sometimes
/// non-ASCII, so string lengths are counted in bytes, not characters.
fn random_document(seed: u64, kb: &KnowledgeBase) -> Document {
    let mut rng = StdRng::seed_from_u64(seed);
    let depth = rng.random_range(1..4u32);
    let mut tree = draw_tree(&mut rng, depth);
    while !mappable(&tree) {
        tree = draw_tree(&mut rng, depth);
    }
    let output = ["y", "ψ", "ω₀"][rng.random_range(0..3usize)];
    let strategy = AllocStrategy::ALL[rng.random_range(0..3usize)];
    compile_expr(&tree, output, rng.random_range(1..1025u64), strategy, kb).0
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 256, ..ProptestConfig::default() })]

    #[test]
    fn streamed_digests_and_seals_match_the_tree_walk_oracles(seed in any::<u64>()) {
        let session = Session::nsc_1988();
        let mut doc = random_document(seed, session.kb());
        prop_assert_eq!(doc.digest(), oracle_digest(&doc, false), "digest, seed {}", seed);
        prop_assert_eq!(doc.shape_digest(), oracle_digest(&doc, true), "shape, seed {}", seed);
        let compiled = session.compile(&mut doc).unwrap_or_else(|e| panic!("seed {seed}: {e}"));
        let cert = compiled.certificate();
        let bytes = cert.canonical_bytes();
        prop_assert_eq!(&bytes, &oracle_canonical_bytes(cert), "canonical bytes, seed {}", seed);
        prop_assert_eq!(cert.seal.clone(), digest_hex(fnv128(&bytes)), "seal, seed {}", seed);
    }
}
