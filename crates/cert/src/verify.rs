//! The trusted side of the contract: a small, independent, fail-closed
//! re-check of every certificate obligation.
//!
//! Nothing here touches the engine. The verifier re-implements the
//! little math it needs from first principles — Hamming distance,
//! e-cube dimension order, sub-cube alignment, interval tiling — and
//! checks the certificate against itself (seal, census redundancy,
//! capacity bounds) and against what the auditor independently knows
//! (the document digests, the machine limits, the lease). Any failure
//! is a rejection; there is no warning tier.

use crate::certificate::{digest_from_hex, CompileCertificate, MachineLimits};
use crate::taxonomy::ConstraintKind;
use std::fmt;

/// What the auditor independently knows about the run. Every field is
/// optional — `Expected::default()` checks the certificate purely
/// against itself — but each field supplied becomes a binding
/// obligation.
#[derive(Debug, Clone, Default)]
pub struct Expected {
    /// The document digest the auditor computed (or recorded at
    /// submission time), in [`crate::digest_hex`] form.
    pub doc_digest: Option<String>,
    /// The shape digest the auditor computed.
    pub shape_digest: Option<String>,
    /// The machine limits the run was supposed to use.
    pub machine: Option<MachineLimits>,
}

/// A rejected certificate: which obligation failed and why.
#[derive(Debug, Clone)]
pub struct Violation {
    /// The obligation that failed.
    pub kind: ConstraintKind,
    /// What exactly was wrong.
    pub detail: String,
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "certificate rejected [{}]: {}", self.kind.id(), self.detail)
    }
}

impl std::error::Error for Violation {}

/// An accepted certificate: how many obligations were discharged.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct VerifyReport {
    /// Obligations checked (each census row, window, route and coverage
    /// proof counts individually).
    pub obligations: usize,
}

macro_rules! demand {
    ($count:expr, $cond:expr, $kind:expr, $($arg:tt)*) => {{
        $count += 1;
        if !($cond) {
            return Err(Violation { kind: $kind, detail: format!($($arg)*) });
        }
    }};
}

/// Verify one certificate fail-closed. `Ok` means every obligation
/// held; the first failed obligation aborts with its [`Violation`].
///
/// ```
/// use nsc_cert::{verify, Expected};
/// # use nsc_cert::{CompileCertificate, CompilePath, MachineLimits, ResourceCensus, digest_hex};
/// # let machine = MachineLimits { fu_count: 32, planes: 16, words_per_plane: 1 << 24,
/// #     caches: 16, cache_buffers: 2, cache_words_per_buffer: 8192, sdu_units: 2,
/// #     sdu_taps_per_unit: 4, sdu_buffer_words: 16384, max_sdu_taps: 8, rf_words: 64,
/// #     clock_hz: 20_000_000 };
/// # let cert = CompileCertificate { format: CompileCertificate::FORMAT,
/// #     doc_digest: digest_hex(1), shape_digest: digest_hex(2),
/// #     compile_path: CompilePath::Full, machine, census: ResourceCensus::default(),
/// #     windows: vec![], routes: vec![], coverage: vec![], lease: None,
/// #     seal: String::new() }.sealed();
/// let report = verify(&cert, &Expected::default())?;
/// assert!(report.obligations > 0);
///
/// // Tampering with any field after sealing is caught.
/// let mut forged = cert.clone();
/// forged.census.active_fus += 1;
/// let rejection = verify(&forged, &Expected::default()).unwrap_err();
/// assert_eq!(rejection.kind.id(), "V001"); // seal integrity
/// # Ok::<(), nsc_cert::Violation>(())
/// ```
pub fn verify(cert: &CompileCertificate, expected: &Expected) -> Result<VerifyReport, Violation> {
    let mut n = 0usize;
    use ConstraintKind as K;

    // V001 — the seal covers every other obligation's inputs, under the
    // one format whose hash this verifier recomputes.
    let recomputed = cert.compute_seal();
    demand!(
        n,
        cert.format == CompileCertificate::FORMAT && cert.seal == recomputed,
        K::SealIntegrity,
        "format {} certificate sealed {}: this verifier reads format {}, whose seal is {}",
        cert.format,
        cert.seal,
        CompileCertificate::FORMAT,
        recomputed
    );

    // V002/V003 — digest binding: well-formed, and equal to what the
    // auditor knows when supplied.
    demand!(
        n,
        digest_from_hex(&cert.doc_digest).is_some(),
        K::DocDigestBinding,
        "doc digest '{}' is not a 32-digit hex digest",
        cert.doc_digest
    );
    if let Some(want) = &expected.doc_digest {
        demand!(
            n,
            &cert.doc_digest == want,
            K::DocDigestBinding,
            "certificate binds doc digest {} but the audited document is {want}",
            cert.doc_digest
        );
    }
    demand!(
        n,
        digest_from_hex(&cert.shape_digest).is_some(),
        K::ShapeDigestBinding,
        "shape digest '{}' is not a 32-digit hex digest",
        cert.shape_digest
    );
    if let Some(want) = &expected.shape_digest {
        demand!(
            n,
            &cert.shape_digest == want,
            K::ShapeDigestBinding,
            "certificate binds shape digest {} but the audited document is {want}",
            cert.shape_digest
        );
    }

    // V004 — structural coherence: sane limits, ordered census rows,
    // windows referring to census instructions.
    let m = &cert.machine;
    demand!(
        n,
        m.fu_count > 0 && m.planes > 0 && m.words_per_plane > 0 && m.clock_hz > 0,
        K::CertWellFormed,
        "machine limits are degenerate: {m:?}"
    );
    if let Some(want) = &expected.machine {
        demand!(
            n,
            m == want,
            K::CertWellFormed,
            "certificate claims machine limits {m:?} but the audit expects {want:?}"
        );
    }
    let mut last_index: Option<u32> = None;
    for row in &cert.census.instructions {
        demand!(
            n,
            last_index.is_none_or(|prev| row.index > prev),
            K::CertWellFormed,
            "census rows out of order at instruction {}",
            row.index
        );
        last_index = Some(row.index);
    }
    for w in &cert.windows {
        demand!(
            n,
            cert.census.instructions.iter().any(|r| r.index == w.index),
            K::CertWellFormed,
            "kernel window for instruction {} has no census row",
            w.index
        );
    }

    // V005 — redundant totals must equal the per-row sums.
    let sum_fus: u64 = cert.census.instructions.iter().map(|r| r.active_fus as u64).sum();
    let sum_taps: u64 =
        cert.census.instructions.iter().flat_map(|r| &r.sdu).map(|s| s.taps as u64).sum();
    let sum_plane: u64 =
        cert.census.instructions.iter().flat_map(|r| &r.planes).map(|p| p.words).sum();
    let sum_cache: u64 =
        cert.census.instructions.iter().flat_map(|r| &r.caches).map(|c| c.words).sum();
    demand!(
        n,
        cert.census.active_fus == sum_fus,
        K::CensusTotals,
        "total active FUs {} != per-instruction sum {sum_fus}",
        cert.census.active_fus
    );
    demand!(
        n,
        cert.census.sdu_taps == sum_taps,
        K::CensusTotals,
        "total SDU taps {} != per-instruction sum {sum_taps}",
        cert.census.sdu_taps
    );
    demand!(
        n,
        cert.census.plane_words == sum_plane,
        K::CensusTotals,
        "total plane DMA words {} != per-instruction sum {sum_plane}",
        cert.census.plane_words
    );
    demand!(
        n,
        cert.census.cache_words == sum_cache,
        K::CensusTotals,
        "total cache DMA words {} != per-instruction sum {sum_cache}",
        cert.census.cache_words
    );

    // Per-instruction capacity obligations.
    for row in &cert.census.instructions {
        let at = row.index;
        // V006 — units fit the machine.
        demand!(
            n,
            row.active_fus <= m.fu_count,
            K::FuCensusBound,
            "instruction {at}: {} active FUs exceed the machine's {}",
            row.active_fus,
            m.fu_count
        );
        // V007/V008 — SDU taps and delays.
        let instr_taps: u32 = row.sdu.iter().map(|s| s.taps).sum();
        demand!(
            n,
            instr_taps <= m.max_sdu_taps,
            K::SduTapBound,
            "instruction {at}: {instr_taps} SDU taps exceed the budget of {}",
            m.max_sdu_taps
        );
        for s in &row.sdu {
            demand!(
                n,
                s.unit < m.sdu_units && s.taps <= m.sdu_taps_per_unit,
                K::SduTapBound,
                "instruction {at}: SDU unit {} uses {} taps (limit {} units x {} taps)",
                s.unit,
                s.taps,
                m.sdu_units,
                m.sdu_taps_per_unit
            );
            demand!(
                n,
                s.max_delay < m.sdu_buffer_words,
                K::SduDelayBound,
                "instruction {at}: SDU unit {} delay {} overruns the {}-word buffer",
                s.unit,
                s.max_delay,
                m.sdu_buffer_words
            );
        }
        // V009 — plane DMA spans stay inside the plane.
        for p in &row.planes {
            demand!(
                n,
                (p.plane < m.planes)
                    && p.lo <= p.hi
                    && p.hi < m.words_per_plane
                    && p.words >= 1
                    && p.words <= p.hi - p.lo + 1,
                K::PlaneDmaBound,
                "instruction {at}: plane {} span [{}, {}] x {} words escapes the \
                 {}-word plane",
                p.plane,
                p.lo,
                p.hi,
                p.words,
                m.words_per_plane
            );
        }
        // V010 — cache DMA spans stay inside one buffer.
        for c in &row.caches {
            demand!(
                n,
                (c.cache < m.caches)
                    && (c.buffer < m.cache_buffers)
                    && c.lo <= c.hi
                    && c.hi < m.cache_words_per_buffer
                    && c.words >= 1
                    && c.words <= c.hi - c.lo + 1,
                K::CacheDmaBound,
                "instruction {at}: cache {} buffer {} span [{}, {}] x {} words escapes \
                 the {}-word buffer",
                c.cache,
                c.buffer,
                c.lo,
                c.hi,
                c.words,
                m.cache_words_per_buffer
            );
        }
    }

    // V011 — kernel windows: the claimed work fits the active units over
    // the claimed cycles.
    for w in &cert.windows {
        let row = cert
            .census
            .instructions
            .iter()
            .find(|r| r.index == w.index)
            .expect("checked under V004");
        demand!(
            n,
            w.flops == 0 || w.executed_cycles > 0,
            K::FlopWindowBound,
            "instruction {}: {} flops claimed in a zero-cycle window",
            w.index,
            w.flops
        );
        demand!(
            n,
            w.flops <= row.active_fus as u64 * w.executed_cycles,
            K::FlopWindowBound,
            "instruction {}: {} flops exceed {} units x {} cycles",
            w.index,
            w.flops,
            row.active_fus,
            w.executed_cycles
        );
        // One word per port per cycle: the streams cannot outrun the
        // machine's plane + cache ports over the window.
        let ports = (m.planes + m.caches) as u64;
        demand!(
            n,
            w.stored <= ports * w.executed_cycles && w.streamed <= ports * w.executed_cycles,
            K::FlopWindowBound,
            "instruction {}: streamed {} / stored {} exceed {ports} ports x {} cycles",
            w.index,
            w.streamed,
            w.stored,
            w.executed_cycles
        );
    }

    // Routing obligations, re-deriving the e-cube law independently.
    for r in &cert.routes {
        // V012 — the path starts and ends at the claimed endpoints.
        demand!(
            n,
            r.path.first() == Some(&r.from) && r.path.last() == Some(&r.to),
            K::RouteEndpoints,
            "route {} -> {}: path {:?} does not join its endpoints",
            r.from,
            r.to,
            r.path
        );
        // V013 — exactly Hamming-distance hops, each flipping one bit.
        let hamming = (r.from ^ r.to).count_ones() as usize;
        demand!(
            n,
            r.path.len() == hamming + 1,
            K::RouteMinimal,
            "route {} -> {}: {} hops claimed, Hamming distance is {hamming}",
            r.from,
            r.to,
            r.path.len().saturating_sub(1)
        );
        let mut prev_dim: Option<u32> = None;
        for pair in r.path.windows(2) {
            let diff = pair[0] ^ pair[1];
            demand!(
                n,
                diff.count_ones() == 1,
                K::RouteMinimal,
                "route {} -> {}: step {} -> {} flips {} bits",
                r.from,
                r.to,
                pair[0],
                pair[1],
                diff.count_ones()
            );
            // V014 — e-cube: dimensions corrected lowest-bit-first.
            let dim = diff.trailing_zeros();
            demand!(
                n,
                prev_dim.is_none_or(|p| dim > p),
                K::RouteEcubeOrder,
                "route {} -> {}: dimension {dim} corrected after dimension {:?}",
                r.from,
                r.to,
                prev_dim
            );
            prev_dim = Some(dim);
        }
        // V015 — leased jobs stay inside their sub-cube.
        if let Some(lease) = &cert.lease {
            demand!(
                n,
                lease.dimension < 64 && lease.base.is_multiple_of(1u64 << lease.dimension),
                K::RouteContainment,
                "lease base {} is not aligned to a dimension-{} sub-cube",
                lease.base,
                lease.dimension
            );
            let size = 1u64 << lease.dimension;
            for &node in &r.path {
                demand!(
                    n,
                    node < size,
                    K::RouteContainment,
                    "route {} -> {}: node {node} escapes the {size}-node lease",
                    r.from,
                    r.to
                );
            }
        }
    }

    // V016 — coverage: each part's windows tile its owned layers
    // exactly once.
    for cov in &cert.coverage {
        let mut spans: Vec<(u64, u64)> = cov.windows.iter().map(|w| (w.start, w.len)).collect();
        spans.sort_unstable();
        let mut cursor = cov.owned_start;
        for (start, len) in &spans {
            demand!(
                n,
                *start == cursor && *len > 0,
                K::CoverageTiling,
                "part {}: window [{start}, {}) leaves a gap or overlap at layer {cursor}",
                cov.part,
                start + len
            );
            cursor = start + len;
        }
        demand!(
            n,
            cursor == cov.owned_start + cov.owned_len,
            K::CoverageTiling,
            "part {}: windows cover up to layer {cursor}, owned span ends at {}",
            cov.part,
            cov.owned_start + cov.owned_len
        );
    }

    Ok(VerifyReport { obligations: n })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::certificate::*;

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

    #[test]
    fn honest_certificate_verifies() {
        let report = verify(&honest(), &Expected::default()).expect("honest cert accepted");
        assert!(report.obligations > 20, "many obligations discharged: {report:?}");
    }

    #[test]
    fn expected_digests_bind() {
        let cert = honest();
        let ok = Expected {
            doc_digest: Some(digest_hex(0xabc)),
            shape_digest: Some(digest_hex(0xdef)),
            machine: Some(machine()),
        };
        verify(&cert, &ok).expect("matching expectations accepted");
        let bad = Expected { doc_digest: Some(digest_hex(0x999)), ..Default::default() };
        let v = verify(&cert, &bad).unwrap_err();
        assert_eq!(v.kind, ConstraintKind::DocDigestBinding);
    }

    #[test]
    fn unsealed_mutation_is_rejected() {
        let mut cert = honest();
        cert.windows[0].flops += 1;
        let v = verify(&cert, &Expected::default()).unwrap_err();
        assert_eq!(v.kind, ConstraintKind::SealIntegrity);
    }

    #[test]
    fn resealed_overcommit_is_rejected() {
        let mut cert = honest();
        cert.census.instructions[0].active_fus = 33;
        cert.census.active_fus = 33;
        let v = verify(&cert.sealed(), &Expected::default()).unwrap_err();
        assert_eq!(v.kind, ConstraintKind::FuCensusBound);
    }

    #[test]
    fn resealed_total_mismatch_is_rejected() {
        let mut cert = honest();
        cert.census.sdu_taps = 5;
        let v = verify(&cert.sealed(), &Expected::default()).unwrap_err();
        assert_eq!(v.kind, ConstraintKind::CensusTotals);
    }

    #[test]
    fn non_ecube_route_is_rejected() {
        let mut cert = honest();
        // 0 -> 2 -> 3 corrects dimension 1 before dimension 0.
        cert.routes[0].path = vec![0, 2, 3];
        let v = verify(&cert.sealed(), &Expected::default()).unwrap_err();
        assert_eq!(v.kind, ConstraintKind::RouteEcubeOrder);
    }

    #[test]
    fn detour_route_is_rejected() {
        let mut cert = honest();
        cert.routes[0].path = vec![0, 1, 0, 1, 3];
        let v = verify(&cert.sealed(), &Expected::default()).unwrap_err();
        assert_eq!(v.kind, ConstraintKind::RouteMinimal);
    }

    #[test]
    fn lease_escape_is_rejected() {
        let mut cert = honest();
        cert.lease = Some(LeaseCert { base: 8, dimension: 1 });
        let v = verify(&cert.sealed(), &Expected::default()).unwrap_err();
        assert_eq!(v.kind, ConstraintKind::RouteContainment, "node 3 escapes a 2-node lease");
    }

    #[test]
    fn coverage_gap_and_overlap_are_rejected() {
        let mut cert = honest();
        cert.coverage[0].windows[1].len = 1; // gap at layer 3
        let v = verify(&cert.clone().sealed(), &Expected::default()).unwrap_err();
        assert_eq!(v.kind, ConstraintKind::CoverageTiling);
        cert.coverage[0].windows[1].len = 3; // overlap at layer 4
        let v = verify(&cert.sealed(), &Expected::default()).unwrap_err();
        assert_eq!(v.kind, ConstraintKind::CoverageTiling);
    }
}
