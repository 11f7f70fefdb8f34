//! Tamper-detection property tests for the certificate verifier: every
//! mutation of a sealed certificate must be rejected. Mutations left
//! unsealed trip the seal check (V001); mutations that cover their
//! tracks by resealing trip the specific obligation they forged.

use nsc_cert::{
    digest_hex, verify, CacheSpan, CompileCertificate, CompilePath, ConstraintKind, CoverageCert,
    Expected, InstrCensus, KernelWindow, LeaseCert, MachineLimits, PlaneSpan, ResourceCensus,
    RouteCert, SduUse, WindowSpan,
};
use proptest::prelude::*;

fn machine() -> MachineLimits {
    MachineLimits {
        fu_count: 32,
        planes: 16,
        words_per_plane: 1 << 24,
        caches: 16,
        cache_buffers: 2,
        cache_words_per_buffer: 8192,
        sdu_units: 2,
        sdu_taps_per_unit: 4,
        sdu_buffer_words: 16384,
        max_sdu_taps: 8,
        rf_words: 64,
        clock_hz: 20_000_000,
    }
}

/// An honest certificate exercising every obligation family: census rows
/// with SDU/plane/cache usage, a kernel window, a multi-hop route under
/// a lease, and a three-window coverage proof.
fn honest() -> CompileCertificate {
    CompileCertificate {
        format: CompileCertificate::FORMAT,
        doc_digest: digest_hex(0xabc),
        shape_digest: digest_hex(0xdef),
        compile_path: CompilePath::Full,
        machine: machine(),
        census: ResourceCensus {
            instructions: vec![InstrCensus {
                index: 0,
                active_fus: 3,
                sdu: vec![SduUse { unit: 0, taps: 2, max_delay: 9 }],
                planes: vec![PlaneSpan { plane: 0, lo: 0, hi: 511, words: 512, write: false }],
                caches: vec![CacheSpan {
                    cache: 0,
                    buffer: 0,
                    lo: 0,
                    hi: 0,
                    words: 1,
                    write: true,
                }],
            }],
            active_fus: 3,
            sdu_taps: 2,
            plane_words: 512,
            cache_words: 1,
        },
        windows: vec![KernelWindow {
            index: 0,
            executed_cycles: 512,
            flops: 1024,
            streamed: 512,
            stored: 512,
        }],
        routes: vec![RouteCert { from: 0, to: 3, words: 64, path: vec![0, 1, 3] }],
        coverage: vec![CoverageCert {
            part: 0,
            node: 0,
            owned_start: 1,
            owned_len: 4,
            windows: vec![
                WindowSpan { start: 1, len: 1, slot: 1 },
                WindowSpan { start: 2, len: 2, slot: 0 },
                WindowSpan { start: 4, len: 1, slot: 2 },
            ],
        }],
        lease: Some(LeaseCert { base: 8, dimension: 2 }),
        seal: String::new(),
    }
    .sealed()
}

/// Apply the `which`-th forgery to the certificate, using `amount` for
/// magnitude variety, and return the obligation a *resealed* copy must
/// trip. Each forgery is crafted to keep every earlier obligation
/// intact, so the verifier's first rejection is the forged one.
fn forge(cert: &mut CompileCertificate, which: usize, amount: u64) -> ConstraintKind {
    let a = amount.max(1);
    match which {
        // Malformed doc digest (decimal string, never 32 hex digits).
        0 => {
            cert.doc_digest = format!("{a}");
            ConstraintKind::DocDigestBinding
        }
        // Malformed shape digest.
        1 => {
            cert.shape_digest = format!("not-a-digest-{a}");
            ConstraintKind::ShapeDigestBinding
        }
        // Census rows out of order: a duplicate index-0 row (empty, so
        // the redundant totals stay consistent).
        2 => {
            cert.census.instructions.push(InstrCensus {
                index: 0,
                active_fus: 0,
                sdu: vec![],
                planes: vec![],
                caches: vec![],
            });
            ConstraintKind::CertWellFormed
        }
        // A kernel window for an instruction that has no census row.
        3 => {
            cert.windows[0].index = 7 + (a % 100) as u32;
            ConstraintKind::CertWellFormed
        }
        // Inflated redundant total (per-row sums untouched).
        4 => {
            cert.census.active_fus += a;
            ConstraintKind::CensusTotals
        }
        // FU overcommit: more active units than the machine has, with
        // the total updated to match so V005 stays green.
        5 => {
            let fus = cert.machine.fu_count + 1 + (a % 100) as u32;
            cert.census.instructions[0].active_fus = fus;
            cert.census.active_fus = fus as u64;
            ConstraintKind::FuCensusBound
        }
        // SDU tap overcommit, total kept consistent.
        6 => {
            let taps = cert.machine.max_sdu_taps + 1 + (a % 100) as u32;
            cert.census.instructions[0].sdu[0].taps = taps;
            cert.census.sdu_taps = taps as u64;
            ConstraintKind::SduTapBound
        }
        // SDU delay overruns the unit's buffer.
        7 => {
            cert.census.instructions[0].sdu[0].max_delay = cert.machine.sdu_buffer_words + a - 1;
            ConstraintKind::SduDelayBound
        }
        // Plane DMA span escapes the plane (words still fit the span).
        8 => {
            cert.census.instructions[0].planes[0].hi = cert.machine.words_per_plane + a - 1;
            ConstraintKind::PlaneDmaBound
        }
        // Cache DMA span escapes the buffer.
        9 => {
            cert.census.instructions[0].caches[0].hi = cert.machine.cache_words_per_buffer + a - 1;
            ConstraintKind::CacheDmaBound
        }
        // Flop overcommit: more work than active_fus x cycles.
        10 => {
            let w = &mut cert.windows[0];
            w.flops = cert.census.instructions[0].active_fus as u64 * w.executed_cycles + a;
            ConstraintKind::FlopWindowBound
        }
        // Route whose path no longer joins its claimed endpoints.
        11 => {
            cert.routes[0].from ^= 1;
            ConstraintKind::RouteEndpoints
        }
        // Detour: more hops than the Hamming distance.
        12 => {
            cert.routes[0].path = vec![0, 1, 0, 1, 3];
            ConstraintKind::RouteMinimal
        }
        // Wrong e-cube order: dimension 1 corrected before dimension 0.
        13 => {
            cert.routes[0].path = vec![0, 2, 3];
            ConstraintKind::RouteEcubeOrder
        }
        // Shrunk lease: node 3 escapes a 2-node sub-cube.
        14 => {
            cert.lease = Some(LeaseCert { base: 8, dimension: 1 });
            ConstraintKind::RouteContainment
        }
        // Coverage gap: the middle window shrinks, leaving layer 3 bare.
        15 => {
            cert.coverage[0].windows[1].len = 1;
            ConstraintKind::CoverageTiling
        }
        // Coverage overlap: the middle window grows over layer 4.
        _ => {
            cert.coverage[0].windows[1].len = 3;
            ConstraintKind::CoverageTiling
        }
    }
}

/// Number of distinct forgeries `forge` implements.
const FORGERIES: usize = 17;

#[test]
fn honest_certificate_is_accepted() {
    let report = verify(&honest(), &Expected::default()).expect("honest certificate verifies");
    assert!(report.obligations > 20);
}

#[test]
fn a_resealed_certificate_of_another_format_trips_the_seal() {
    for format in [1, 3] {
        let mut cert = honest();
        cert.format = format;
        // Resealed by hand: `sealed()` would stamp the current format back.
        cert.seal = cert.compute_seal();
        let v = verify(&cert, &Expected::default()).unwrap_err();
        assert_eq!(v.kind, ConstraintKind::SealIntegrity, "format {format}");
        assert!(v.detail.contains(&format!("format {format} ")), "{}", v.detail);
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 256, ..ProptestConfig::default() })]

    // Any forgery left unsealed is caught by the seal alone: the
    // verifier never even reaches the forged obligation.
    #[test]
    fn prop_unsealed_mutation_trips_the_seal(
        which in 0usize..FORGERIES,
        amount in 1u64..1_000_000,
    ) {
        let mut cert = honest();
        forge(&mut cert, which, amount);
        let v = verify(&cert, &Expected::default()).unwrap_err();
        prop_assert_eq!(v.kind, ConstraintKind::SealIntegrity, "forgery {} unsealed", which);
    }

    // A forger who covers their tracks by resealing still loses: the
    // resealed certificate fails exactly the obligation it forged.
    #[test]
    fn prop_resealed_mutation_trips_its_obligation(
        which in 0usize..FORGERIES,
        amount in 1u64..1_000_000,
    ) {
        let mut cert = honest();
        let expected_kind = forge(&mut cert, which, amount);
        let v = verify(&cert.sealed(), &Expected::default()).unwrap_err();
        prop_assert_eq!(v.kind, expected_kind, "forgery {}", which);
    }

    // Forged digest *values* (well-formed hex, wrong document) are only
    // catchable against what the auditor knows — and they are.
    #[test]
    fn prop_wrong_digest_rejected_when_expected_is_pinned(
        doc in any::<bool>(),
        // A non-zero high half keeps the forged digest strictly above
        // both honest digests (0xabc / 0xdef): always genuinely wrong.
        hi in 1u64..u64::MAX,
        lo in 0u64..u64::MAX,
    ) {
        let mut cert = honest();
        let forged = digest_hex(((hi as u128) << 64) | lo as u128);
        let kind = if doc {
            cert.doc_digest = forged;
            ConstraintKind::DocDigestBinding
        } else {
            cert.shape_digest = forged;
            ConstraintKind::ShapeDigestBinding
        };
        let pinned = Expected {
            doc_digest: Some(digest_hex(0xabc)),
            shape_digest: Some(digest_hex(0xdef)),
            machine: Some(machine()),
        };
        // Pure-self-check still passes (the digests are well-formed)...
        verify(&cert.clone().sealed(), &Expected::default()).expect("self-check passes");
        // ...but the pinned audit rejects.
        let v = verify(&cert.sealed(), &pinned).unwrap_err();
        prop_assert_eq!(v.kind, kind);
    }
}
