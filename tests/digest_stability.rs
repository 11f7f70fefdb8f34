//! Digest and seal stability.
//!
//! [`Document::digest`] is the compile cache's key, [`Document::shape_digest`]
//! the rebind index's, and a certificate's seal is the format the
//! independent verifier re-checks. None of them may move when the code
//! that computes them is rewritten:
//!
//! * every nsc-cfd document builder, plus one expression document, is
//!   pinned to the digest, shape digest and compiled-certificate seal it
//!   has under the word-wise hash (certificate format 2);
//! * a property test compares the streamed digests and seals with an
//!   independent reference kept here: the serialized value tree written
//!   out as a vector of words and folded in one plain loop, over random
//!   expression documents with arbitrary constant bit patterns;
//! * encodings that differ only in padding or tag hash apart, tens of
//!   thousands of generated documents share no digest (nor either 64-bit
//!   half of one), and a one-bit change to a constant flips about half of
//!   the digest's bits;
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
use nsc::diagram::{Document, FuAssign, InputSpec, Point};
use nsc::env::certify::build_certificate;
use nsc::env::Session;
use nsc::expr::{compile_expr, AllocStrategy, Expr};
use nsc::sim::CompiledKernel;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Serialize, Sink, Value, WordHasher};
use std::collections::HashMap;

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
/// document and its full-compile certificate, recorded when the
/// byte-wise FNV-1a-128 digests and seals were replaced by the word-wise
/// hash. The six stencil documents were re-pinned once when they became
/// stencil descriptions lowered through the pipeline builder: their icons
/// and wires changed order, their microcode did not (the 3-D sweeps and
/// the FTCS step) or moved only between units and taps (the damped and
/// 2-D sweeps).
const PINNED: [(&str, &str, &str, &str); 8] = [
    (
        "jacobi3d-8x8x8",
        "ffdf0a8a6b8c80cbc52352238ffab6d4",
        "b29003401e6056c8cf6aff1d0cc4d6fa",
        "85bf6292cefc3591c20f4b061da0d4e0",
    ),
    (
        "jacobi3d-sweep-even-16x16x8",
        "6904f53b3590b76eb43e192ae1036272",
        "9ab4565e018c89bcc2e1b778b1a38106",
        "5c6cdd2e29ba01e712e07e7d58f60835",
    ),
    (
        "jacobi3d-sweep-odd-16x16x8",
        "edfd6f894d97c5602fdf053440e7d74e",
        "cd3f775ad5da1ff1120a68364de46156",
        "476e5d1f113c6b4e7f9ada2e8d017a14",
    ),
    (
        "jacobi3d-smooth-even-12x10x6",
        "c50feb9eb58765bc928a32b50974a750",
        "d9aac4e52ccb917d2b204bb7aeade01d",
        "b0e5c6dbad38b07e0ab012f096f5dfa3",
    ),
    (
        "jacobi2d-sweep-even-32x16",
        "e9e793a1d3c4052504f9e5880e47a5d2",
        "3a93b2c30770ea0ee66712682f80e0b4",
        "179a200fbe4320c69b8e3fc5d984798c",
    ),
    (
        "cavity-ftcs-24x24",
        "e0b2899433b166b191aabe046a279c0f",
        "2acf4259a65ef407a7015771311c75ca",
        "fc53c02bebd0411424acd8b0cca7aa22",
    ),
    (
        "horner-deg3",
        "f92000e13315c0120b223e21ed2cb15f",
        "8ba76f24ebd4853d7714e9d325f181b8",
        "c4b2ae677d1e1d484ea6329e0da88bb2",
    ),
    (
        "expr->y [one-per-plane]",
        "8f17dcb7d92f1e34c0eb00321ba10466",
        "bba8cccdc7cc1e6f76491003ed0162a8",
        "4e3ad938e6f6462654360242bc9d6ebc",
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
/// seeds) passed through `edit`.
fn map_preloads(doc: &Document, edit: impl Fn(f64) -> f64) -> Document {
    let edit = |spec: InputSpec| match spec {
        InputSpec::Constant(v) => InputSpec::Constant(edit(v)),
        InputSpec::Feedback { init } => InputSpec::Feedback { init: edit(init) },
        other => other,
    };
    let mut twin = doc.clone();
    let ids: Vec<_> = twin.pipelines().iter().map(|p| p.id).collect();
    for id in ids {
        let d = twin.pipeline_mut(id).expect("listed id");
        let assigns: Vec<_> = d.fu_assigns().map(|(icon, pos, a)| (icon, pos, *a)).collect();
        for (icon, pos, a) in assigns {
            let edited = FuAssign { op: a.op, in_a: edit(a.in_a), in_b: edit(a.in_b) };
            d.assign_fu(icon, pos, edited).expect("an assigned unit");
        }
    }
    twin
}

/// The document with every register-file value moved to its neighbouring
/// bit pattern: the same shape, and a new digest whenever the document
/// holds any value.
fn perturbed(doc: &Document) -> Document {
    map_preloads(doc, |v| f64::from_bits(v.to_bits() ^ 1))
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
// Oracle: the value tree written out as words and folded in one loop.
// ---------------------------------------------------------------------------

/// A header word: the tag in the low byte, a bool or a length above it.
fn header(tag: u64, above: usize) -> u64 {
    tag | (above as u64) << 8
}

/// A string or key: its header, then its bytes zero-padded to words.
fn text_words(tag: u64, text: &str, out: &mut Vec<u64>) {
    out.push(header(tag, text.len()));
    out.extend(text.as_bytes().chunks(8).map(|chunk| {
        let mut word = [0u8; 8];
        word[..chunk.len()].copy_from_slice(chunk);
        u64::from_le_bytes(word)
    }));
}

/// The hash's word encoding of a value tree: tags 0 null, 1 bool, 2 int,
/// 3 uint, 4 float, 5 string, 6 array, 7 object, 8 key; scalar payloads
/// as one word each.
fn value_words(v: &Value, out: &mut Vec<u64>) {
    match v {
        Value::Null => out.push(header(0, 0)),
        Value::Bool(b) => out.push(header(1, *b as usize)),
        Value::Int(i) => out.extend([header(2, 0), *i as u64]),
        Value::UInt(u) => out.extend([header(3, 0), *u]),
        Value::Float(f) => out.extend([header(4, 0), f.to_bits()]),
        Value::Str(s) => text_words(5, s, out),
        Value::Array(items) => {
            out.push(header(6, items.len()));
            items.iter().for_each(|item| value_words(item, out));
        }
        Value::Object(entries) => {
            out.push(header(7, entries.len()));
            for (k, val) in entries {
                text_words(8, k, out);
                value_words(val, out);
            }
        }
    }
}

fn fold_mul(a: u64, b: u64) -> u64 {
    let p = a as u128 * b as u128;
    p as u64 ^ (p >> 64) as u64
}

/// The hash of a word vector, with no block buffer: in every four words
/// (the last four padded with zeros), lanes 0 and 1 fold the first pair
/// and lanes 2 and 3 the second, each under its own key; then a final
/// mix takes the lanes and the word count.
fn oracle_hash(words: &[u64]) -> u128 {
    let mut lanes = [
        0x243f_6a88_85a3_08d3u64,
        0x1319_8a2e_0370_7344,
        0xa409_3822_299f_31d0,
        0x082e_fa98_ec4e_6c89,
    ];
    let keys = [
        0x4528_21e6_38d0_1377u64,
        0xbe54_66cf_34e9_0c6c,
        0xc0ac_29b7_c97c_50dd,
        0x3f84_d5b5_b547_0917,
    ];
    for quad in words.chunks(4) {
        let word = |i: usize| quad.get(i).copied().unwrap_or(0);
        for (lane, (&key, pair)) in lanes.iter_mut().zip(keys.iter().zip([0, 0, 2, 2])) {
            *lane = fold_mul(word(pair) ^ *lane, word(pair + 1) ^ lane.rotate_left(32) ^ key);
        }
    }
    let [l0, l1, l2, l3] = lanes;
    let n = words.len() as u64;
    let [k0, k1, k2, k3] = [
        0x9216_d5d9_8979_fb1bu64,
        0xd131_0ba6_98df_b5ac,
        0x2ffd_72db_d01a_dfb7,
        0xb8e1_afed_6a26_7e96,
    ];
    let (m0, m1) = (fold_mul(l0 ^ k0, l2 ^ n ^ k1), fold_mul(l1 ^ k2, l3 ^ n ^ k3));
    let (lo, hi) = (fold_mul(m0 ^ k1, m1 ^ k2), fold_mul(m1 ^ k3, m0 ^ k0));
    (hi as u128) << 64 | lo as u128
}

fn oracle_value_hash(v: &Value) -> u128 {
    let mut words = Vec::new();
    value_words(v, &mut words);
    oracle_hash(&words)
}

/// The reference digest: the document's value tree with the display
/// layouts emptied (and, for the shape, every preload set to `0.0`).
fn oracle_digest(doc: &Document, shape: bool) -> u128 {
    let doc = if shape { map_preloads(doc, |_| 0.0) } else { doc.clone() };
    let Value::Object(mut fields) = doc.to_value() else { panic!("a document is an object") };
    let layouts = fields.iter_mut().find(|(k, _)| k == "layouts").expect("layouts field");
    layouts.1 = Value::Object(Vec::new());
    oracle_value_hash(&Value::Object(fields))
}

/// The reference seal: the certificate's value tree with the seal cleared.
fn oracle_seal(cert: &CompileCertificate) -> String {
    let mut unsealed = cert.clone();
    unsealed.seal.clear();
    digest_hex(oracle_value_hash(&unsealed.to_value()))
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

/// Place every icon of `doc` at a position drawn from `seed`: display
/// data, which no digest may see.
fn lay_out(doc: &mut Document, seed: u64) {
    let mut rng = StdRng::seed_from_u64(seed);
    let ids: Vec<_> = doc.pipelines().iter().map(|p| p.id).collect();
    for id in ids {
        let icons: Vec<_> = doc.pipeline(id).expect("listed id").icons().map(|i| i.id).collect();
        let layout = doc.layout_mut(id).expect("every pipeline has a layout");
        for icon in icons {
            layout.place(icon, Point::new(rng.random_range(0..200), rng.random_range(0..60)));
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 256, ..ProptestConfig::default() })]

    #[test]
    fn streamed_digests_and_seals_match_the_tree_walk_oracles(seed in any::<u64>()) {
        let session = Session::nsc_1988();
        let mut doc = random_document(seed, session.kb());
        lay_out(&mut doc, seed);
        prop_assert_eq!(doc.digest(), oracle_digest(&doc, false), "digest, seed {}", seed);
        prop_assert_eq!(doc.shape_digest(), oracle_digest(&doc, true), "shape, seed {}", seed);
        let compiled = session.compile(&mut doc).unwrap_or_else(|e| panic!("seed {seed}: {e}"));
        let cert = compiled.certificate();
        prop_assert_eq!(cert.seal.clone(), oracle_seal(cert), "seal, seed {}", seed);
    }
}

/// Every fill of the hasher's block, and a stream that ends on each: a
/// string and an array of every length up to three blocks.
#[test]
fn streams_of_every_length_match_the_oracle() {
    for len in 0..200usize {
        let text: String = (0..len).map(|i| char::from(b'a' + (i % 26) as u8)).collect();
        let items = Value::Array((0..len as i64).map(Value::Int).collect());
        for v in [Value::Str(text), items] {
            assert_eq!(serde::hash128(&v), oracle_value_hash(&v), "{} of {len}", v.kind());
        }
    }
}

/// The hash of the events `emit` streams.
fn hash_events(emit: impl Fn(&mut WordHasher)) -> u128 {
    let mut hasher = WordHasher::new();
    emit(&mut hasher);
    hasher.finish()
}

fn assert_all_distinct(what: &str, hashes: &[u128]) {
    for (i, a) in hashes.iter().enumerate() {
        for (j, b) in hashes.iter().enumerate().skip(i + 1) {
            assert_ne!(a, b, "{what}: encodings {i} and {j} collide");
        }
    }
}

#[test]
fn encodings_that_differ_only_in_padding_or_tag_hash_apart() {
    let padded = [
        hash_events(|h| h.str("a")),
        hash_events(|h| h.str("a\0")),
        hash_events(|h| h.str("a\0\0\0\0\0\0\0")),
    ];
    assert_all_distinct("zero padding", &padded);
    let empty = [hash_events(|h| h.array(0)), hash_events(|h| h.object(0))];
    assert_all_distinct("empty containers", &empty);
    let zeros = [
        hash_events(|h| h.int(0)),
        hash_events(|h| h.uint(0)),
        hash_events(|h| h.float(0.0)),
        hash_events(|h| h.null()),
    ];
    assert_all_distinct("zero scalars", &zeros);
    let names = [hash_events(|h| h.key("k")), hash_events(|h| h.str("k"))];
    assert_all_distinct("key vs string", &names);
}

/// How one generated document is built: enough to rebuild it when two
/// digests collide, to tell a repeat from a collision.
#[derive(Debug, Clone, Copy)]
enum Generated {
    Sweep {
        nx: usize,
        ny: usize,
        nz: usize,
        even: bool,
        three: bool,
    },
    Horner {
        count: u64,
        degree: usize,
        stages: usize,
    },
    Random {
        seed: u64,
    },
    /// Constant `which` of Horner degree `degree` moved `ulps` ulps up.
    Ulp {
        degree: usize,
        which: usize,
        ulps: u64,
    },
}

fn horner(count: u64, degree: usize, stages: usize) -> Document {
    let coeffs: Vec<f64> = (0..=degree).map(|i| 0.5 + i as f64 * 0.25).collect();
    build_chebyshev_document(count, &coeffs, stages)
}

/// Every preload (constant or feedback seed) of a document, in order.
fn preloads(doc: &Document) -> Vec<(nsc::diagram::PipelineId, nsc::diagram::IconId, u8, FuAssign)> {
    let mut out = Vec::new();
    for p in doc.pipelines() {
        for (icon, pos, a) in p.fu_assigns() {
            if a.preload_value().is_some() {
                out.push((p.id, icon, pos, *a));
            }
        }
    }
    out
}

/// `doc` with the bits of preload `which` passed through `edit`.
fn with_preload(doc: &Document, which: usize, edit: impl Fn(u64) -> u64) -> Document {
    let edit = |spec: InputSpec| match spec {
        InputSpec::Constant(v) => InputSpec::Constant(f64::from_bits(edit(v.to_bits()))),
        InputSpec::Feedback { init } => {
            InputSpec::Feedback { init: f64::from_bits(edit(init.to_bits())) }
        }
        other => other,
    };
    let (pipeline, icon, pos, a) = preloads(doc)[which];
    let mut out = doc.clone();
    let d = out.pipeline_mut(pipeline).expect("listed pipeline");
    d.assign_fu(icon, pos, FuAssign { op: a.op, in_a: edit(a.in_a), in_b: edit(a.in_b) })
        .expect("an assigned unit");
    out
}

impl Generated {
    fn build(self, kb: &KnowledgeBase) -> Document {
        match self {
            Generated::Sweep { nx, ny, nz, even, three } => {
                let windows = if three {
                    vec![
                        SweepWindow { start: 0, len: 1, slot: SweepWindow::LO_SLOT },
                        SweepWindow { start: 1, len: nz - 2, slot: 0 },
                        SweepWindow { start: nz - 1, len: 1, slot: SweepWindow::HI_SLOT },
                    ]
                } else {
                    vec![SweepWindow::whole(nz)]
                };
                build_jacobi_sweep_document_windows(
                    JacobiGeometry::slab(nx, ny, nz),
                    even,
                    &windows,
                )
            }
            Generated::Horner { count, degree, stages } => horner(count, degree, stages),
            Generated::Random { seed } => random_document(seed, kb),
            Generated::Ulp { degree, which, ulps } => {
                with_preload(&horner(64, degree, 1), which, |bits| bits + ulps)
            }
        }
    }
}

#[test]
fn generated_documents_share_no_digest_nor_either_half() {
    let kb = KnowledgeBase::nsc_1988();
    let mut family = Vec::new();
    let sizes = 3..11;
    let geometries = sizes.clone().flat_map(|x| {
        let sizes = sizes.clone();
        sizes.clone().flat_map(move |y| sizes.clone().map(move |z| (x, y, z)))
    });
    for (nx, ny, nz) in geometries {
        for (even, three) in [(true, false), (false, false), (true, true), (false, true)] {
            family.push(Generated::Sweep { nx, ny, nz, even, three });
        }
    }
    for count in [1, 2, 3, 17, 64, 1000] {
        for degree in 1..9 {
            for stages in 1..4 {
                family.push(Generated::Horner { count, degree, stages });
            }
        }
    }
    family.extend((0..2000).map(|seed| Generated::Random { seed }));
    for degree in [2, 5, 8] {
        for which in 0..preloads(&horner(64, degree, 1)).len() {
            family.extend((1..=1000).map(|ulps| Generated::Ulp { degree, which, ulps }));
        }
    }

    let mut digests: HashMap<u128, Generated> = HashMap::new();
    let mut halves: [HashMap<u64, Generated>; 2] = Default::default();
    for generated in family {
        let doc = generated.build(&kb);
        let digest = doc.digest();
        if let Some(&earlier) = digests.get(&digest) {
            assert_eq!(earlier.build(&kb), doc, "{earlier:?} and {generated:?} collide");
            continue; // the generator repeated a document
        }
        for (half, seen) in [digest as u64, (digest >> 64) as u64].into_iter().zip(&mut halves) {
            if let Some(earlier) = seen.insert(half, generated) {
                panic!("{earlier:?} and {generated:?} collide in a 64-bit half");
            }
        }
        digests.insert(digest, generated);
    }
    assert!(digests.len() >= 20_000, "only {} distinct documents", digests.len());
}

#[test]
fn a_one_bit_change_to_a_constant_flips_half_the_digest() {
    let (mut flips, mut moved) = (0u32, 0u32);
    for degree in [3, 6, 9] {
        let doc = horner(64, degree, 1);
        let digest = doc.digest();
        for which in 0..preloads(&doc).len() {
            for bit in 0..64 {
                let flipped = with_preload(&doc, which, |bits| bits ^ 1 << bit);
                let changed = (flipped.digest() ^ digest).count_ones();
                assert!(changed > 0, "degree {degree}, preload {which}, bit {bit}");
                flips += 1;
                moved += changed;
            }
        }
    }
    let mean = moved as f64 / flips as f64;
    assert!(flips >= 1000, "only {flips} flips");
    assert!((60.0..=68.0).contains(&mean), "{flips} flips moved {mean:.2} bits on average");
}
