//! The certificate data model: what the untrusted engine claims about
//! one compile, sealed so any later mutation is detectable.
//!
//! A [`CompileCertificate`] is a compact, serializable claim bundle
//! bound to a document by its content digest. It records the machine
//! limits the compile ran against, a per-instruction resource census,
//! the kernel calculus's per-instruction windows, the halo routes the
//! surrounding partition will exercise, and the window-coverage proof of
//! the overlap split — everything [`fn@crate::verify`] needs to re-check
//! legality without touching the engine.
//!
//! The seal is the word-wise 128-bit hash of the certificate's
//! serialized event stream with the seal field cleared
//! ([`serde::WordHasher`], the hash `nsc_diagram::Document::digest` uses),
//! so the certificate can be stored, shipped as JSON, and re-verified
//! later. The sealed `format` field names the seal's hash: format 2 is
//! the word-wise hash; format-1 certificates were sealed with byte-wise
//! FNV-1a-128, and the verifier refuses them. Digests from
//! `nsc_diagram::Document` are `u128`s on the engine side; they travel
//! here as 32-digit lowercase hex strings ([`digest_hex`]), the portable
//! form every serializer in the workspace can carry.

use serde::{Deserialize, Serialize};

/// A `u128` digest in its portable form: 32 lowercase hex digits.
pub fn digest_hex(d: u128) -> String {
    format!("{d:032x}")
}

/// Parse a [`digest_hex`] string back to the `u128` digest. `None` if
/// the string is not exactly 32 lowercase hex digits.
pub fn digest_from_hex(s: &str) -> Option<u128> {
    if s.len() != 32 || !s.bytes().all(|b| b.is_ascii_digit() || (b'a'..=b'f').contains(&b)) {
        return None;
    }
    u128::from_str_radix(s, 16).ok()
}

/// Which path through [`Session::compile`] produced this certificate —
/// surfaced so an audit can tell a full compile from a cache hit or a
/// preload rebind (see `Session::cache_stats`).
///
/// [`Session::compile`]: https://docs.rs/nsc-core
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum CompilePath {
    /// Full pipeline: check, codegen, kernel specialization.
    Full,
    /// Digest-identical document served verbatim from the kernel cache.
    CacheHit,
    /// Shape-identical document: cached program re-patched with new
    /// functional-unit preloads, kernel respecialized, check and codegen
    /// skipped.
    Rebind,
}

impl CompilePath {
    /// Short label for audit tables.
    pub fn label(&self) -> &'static str {
        match self {
            CompilePath::Full => "full",
            CompilePath::CacheHit => "hit",
            CompilePath::Rebind => "rebind",
        }
    }
}

/// The machine limits the compile ran against — the denominators of
/// every capacity obligation. Mirrors `nsc_arch::MachineConfig` without
/// depending on it: the verifier trusts only what the certificate says,
/// and an auditor can pin the limits via `Expected::machine`.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct MachineLimits {
    /// Functional units on a node (triplets*3 + doublets*2 + singlets).
    pub fu_count: u32,
    /// Memory planes per node.
    pub planes: u32,
    /// Words per memory plane.
    pub words_per_plane: u64,
    /// Data caches per node.
    pub caches: u32,
    /// Buffers per cache.
    pub cache_buffers: u32,
    /// Words per cache buffer.
    pub cache_words_per_buffer: u64,
    /// Shift/delay units per node.
    pub sdu_units: u32,
    /// Taps per shift/delay unit.
    pub sdu_taps_per_unit: u32,
    /// Words in a shift/delay unit's buffer (bounds the tap delays).
    pub sdu_buffer_words: u64,
    /// The diagram-level tap budget per delay queue
    /// (`nsc_diagram::MAX_SDU_TAPS`).
    pub max_sdu_taps: u32,
    /// Register-file words (bounds delay-queue depth).
    pub rf_words: u32,
    /// Node clock, Hz.
    pub clock_hz: u64,
}

/// One DMA stream's address span on a memory plane.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct PlaneSpan {
    /// Plane index.
    pub plane: u32,
    /// Lowest word address touched.
    pub lo: u64,
    /// Highest word address touched (inclusive).
    pub hi: u64,
    /// Words transferred.
    pub words: u64,
    /// Whether this is a write stream.
    pub write: bool,
}

/// One DMA stream's address span in a cache buffer.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct CacheSpan {
    /// Cache index.
    pub cache: u32,
    /// Buffer index within the cache.
    pub buffer: u32,
    /// Lowest word offset touched.
    pub lo: u64,
    /// Highest word offset touched (inclusive).
    pub hi: u64,
    /// Words transferred.
    pub words: u64,
    /// Whether this is a write stream.
    pub write: bool,
}

/// One shift/delay unit's tap usage in one instruction.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct SduUse {
    /// Unit index.
    pub unit: u32,
    /// Enabled taps.
    pub taps: u32,
    /// Largest tap delay, cycles.
    pub max_delay: u64,
}

/// The resource census of one microinstruction.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct InstrCensus {
    /// Instruction index in the program.
    pub index: u32,
    /// Functional units with an enabled operation.
    pub active_fus: u32,
    /// Shift/delay units in use.
    pub sdu: Vec<SduUse>,
    /// Plane DMA spans, in plane order.
    pub planes: Vec<PlaneSpan>,
    /// Cache DMA spans, in cache order.
    pub caches: Vec<CacheSpan>,
}

/// The whole program's census: per-instruction detail plus redundant
/// totals the verifier cross-checks (an inconsistent total is a tamper
/// signal even when every per-instruction row is individually legal).
#[derive(Debug, Clone, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct ResourceCensus {
    /// Per-instruction census rows, in instruction order.
    pub instructions: Vec<InstrCensus>,
    /// Σ active functional units over all instructions.
    pub active_fus: u64,
    /// Σ enabled SDU taps over all instructions.
    pub sdu_taps: u64,
    /// Σ plane DMA words over all instructions.
    pub plane_words: u64,
    /// Σ cache DMA words over all instructions.
    pub cache_words: u64,
}

/// The kernel calculus's claim for one specialized instruction: its
/// validity window in cycles and the work budget inside it.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct KernelWindow {
    /// Instruction index the window belongs to.
    pub index: u32,
    /// Cycles the pipeline executes for.
    pub executed_cycles: u64,
    /// Floating-point operations performed inside the window.
    pub flops: u64,
    /// Elements streamed from memory/caches.
    pub streamed: u64,
    /// Elements stored back.
    pub stored: u64,
}

/// One halo message's claimed route over the hypercube. Node ids are in
/// the coordinates the job ran under — lease-local when the certificate
/// carries a [`LeaseCert`].
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct RouteCert {
    /// Sending node.
    pub from: u64,
    /// Receiving node.
    pub to: u64,
    /// Words per exchange on this route.
    pub words: u64,
    /// The claimed e-cube path, inclusive of both endpoints.
    pub path: Vec<u64>,
}

/// One window of an overlap split, in local layer coordinates.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct WindowSpan {
    /// First owned layer the window covers.
    pub start: u64,
    /// Layers covered.
    pub len: u64,
    /// Residual cache slot the window's reduction lands in.
    pub slot: u32,
}

/// The window-coverage proof for one part: the windows must tile the
/// part's owned layers exactly once.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct CoverageCert {
    /// Part index in partition order.
    pub part: u32,
    /// Node the part runs on.
    pub node: u64,
    /// First owned layer, local coordinates.
    pub owned_start: u64,
    /// Owned layers along the overlap axis.
    pub owned_len: u64,
    /// The split's windows: the interior and the boundary shells the
    /// sweep compiled (one merged shell window for a slab too thin to
    /// have an interior).
    pub windows: Vec<WindowSpan>,
}

/// The sub-cube a leased job ran inside, stamped by the park so the
/// verifier can check route containment.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct LeaseCert {
    /// Base node of the sub-cube in machine coordinates.
    pub base: u64,
    /// Sub-cube dimension (2^dimension nodes).
    pub dimension: u32,
}

/// What one compile claims: the engine's side of the "untrusted engine,
/// trusted checker" contract. Build it field by field, then
/// [`CompileCertificate::sealed`]; check it with [`fn@crate::verify`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CompileCertificate {
    /// The certificate format, and so the hash its seal uses:
    /// [`CompileCertificate::FORMAT`] for every certificate this crate
    /// seals. The seal covers it.
    pub format: u32,
    /// [`digest_hex`] of the compiled document's full content digest.
    pub doc_digest: String,
    /// [`digest_hex`] of the document's shape digest (preload values
    /// masked) — what the rebind path keys on.
    pub shape_digest: String,
    /// Which compile path produced the program.
    pub compile_path: CompilePath,
    /// The machine limits the compile ran against.
    pub machine: MachineLimits,
    /// Per-instruction resource census plus redundant totals.
    pub census: ResourceCensus,
    /// Kernel validity windows for the specialized instructions.
    pub windows: Vec<KernelWindow>,
    /// Halo routes the surrounding partition exercises (empty for a
    /// single-node compile).
    pub routes: Vec<RouteCert>,
    /// Window-coverage proofs, one per part (empty for a single-node
    /// compile).
    pub coverage: Vec<CoverageCert>,
    /// The sub-cube lease, when the park stamped one.
    pub lease: Option<LeaseCert>,
    /// [`digest_hex`] of the hash of every other field (this one empty).
    pub seal: String,
}

impl CompileCertificate {
    /// The format this crate seals and [`fn@crate::verify`] accepts: 2,
    /// the word-wise seal. Format 1 was the byte-wise FNV-1a-128 seal.
    pub const FORMAT: u32 = 2;

    /// The seal this certificate's current contents hash to: the
    /// serializer's event stream, with the seal field empty, streamed
    /// straight into the hash. Field order is declaration order (the
    /// derive serializer emits it deterministically), so equal
    /// certificates have equal seals.
    pub fn compute_seal(&self) -> String {
        let mut unsealed = self.clone();
        unsealed.seal.clear();
        digest_hex(serde::hash128(&unsealed))
    }

    /// Consume the certificate, stamp the current [`CompileCertificate::FORMAT`]
    /// and seal it. Call after every mutation — a stale seal is a
    /// verification failure by design.
    pub fn sealed(mut self) -> Self {
        self.format = Self::FORMAT;
        self.seal.clear();
        self.seal = digest_hex(serde::hash128(&self));
        self
    }

    /// A copy with the compile path re-stamped and the seal refreshed —
    /// what the cache-hit and rebind paths emit from the cached base
    /// certificate.
    pub fn with_path(&self, path: CompilePath, doc_digest: String) -> Self {
        let mut c = self.clone();
        c.compile_path = path;
        c.doc_digest = doc_digest;
        c.sealed()
    }

    /// A copy extended with partition topology claims (routes and
    /// window coverage), resealed.
    pub fn with_topology(&self, routes: Vec<RouteCert>, coverage: Vec<CoverageCert>) -> Self {
        let mut c = self.clone();
        c.routes = routes;
        c.coverage = coverage;
        c.sealed()
    }

    /// A copy stamped with the sub-cube lease it ran inside, resealed —
    /// what the park adds when it collects a job's certificates.
    pub fn with_lease(&self, lease: LeaseCert) -> Self {
        let mut c = self.clone();
        c.lease = Some(lease);
        c.sealed()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_cert() -> CompileCertificate {
        CompileCertificate {
            format: CompileCertificate::FORMAT,
            doc_digest: digest_hex(1),
            shape_digest: digest_hex(2),
            compile_path: CompilePath::Full,
            machine: MachineLimits {
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
            },
            census: ResourceCensus::default(),
            windows: Vec::new(),
            routes: Vec::new(),
            coverage: Vec::new(),
            lease: None,
            seal: String::new(),
        }
    }

    #[test]
    fn digest_hex_roundtrip() {
        for d in [0u128, 1, u128::MAX, 0xdead_beef_cafe_babe_0123_4567_89ab_cdef] {
            assert_eq!(digest_from_hex(&digest_hex(d)), Some(d));
        }
        assert_eq!(digest_from_hex("xyz"), None);
        assert_eq!(digest_from_hex(&"F".repeat(32)), None, "uppercase rejected");
        assert_eq!(digest_from_hex(&"0".repeat(31)), None);
    }

    #[test]
    fn seal_is_stable_and_tamper_sensitive() {
        let c = tiny_cert().sealed();
        assert_eq!(c.seal, c.compute_seal(), "sealing is idempotent over contents");
        assert_eq!(c.clone().sealed().seal, c.seal);
        let mut tampered = c.clone();
        tampered.census.active_fus = 7;
        assert_ne!(tampered.compute_seal(), c.seal, "any field change moves the seal");
    }

    #[test]
    fn restamp_helpers_reseal() {
        let base = tiny_cert().sealed();
        let hit = base.with_path(CompilePath::CacheHit, base.doc_digest.clone());
        assert_eq!(hit.compile_path, CompilePath::CacheHit);
        assert_eq!(hit.seal, hit.compute_seal());
        assert_ne!(hit.seal, base.seal);
        let leased = base.with_lease(LeaseCert { base: 8, dimension: 3 });
        assert_eq!(leased.lease, Some(LeaseCert { base: 8, dimension: 3 }));
        assert_eq!(leased.seal, leased.compute_seal());
    }

    #[test]
    fn json_roundtrip_preserves_seal() {
        let c = tiny_cert().sealed();
        let json = serde_json::to_string(&c).expect("serializes");
        let back: CompileCertificate = serde_json::from_str(&json).expect("deserializes");
        assert_eq!(back, c);
        assert_eq!(back.compute_seal(), back.seal);
    }
}
