//! # nsc-cert — run certificates and the independent fail-closed verifier
//!
//! The engine's compile pipeline (`nsc_core::Session::compile`) is a lot
//! of trusted code: binder, 30-rule checker, code generator, kernel
//! specializer. With the park and ensemble layers batching hundreds of
//! jobs per session, a wrong-but-plausible compile silently poisons
//! every member of a sweep — and the members are too numerous to re-run.
//!
//! This crate ports the *untrusted engine, trusted checker* pattern: the
//! engine emits a compact [`CompileCertificate`] for every compile —
//! resource census against the machine limits, kernel validity windows,
//! the e-cube route of every halo message, a window-coverage proof for
//! the overlap split — sealed with a word-wise 128-bit hash and bound to
//! the document's content digest. [`fn@verify`] is the small, auditable
//! other half: it re-checks every obligation from the certificate alone,
//! re-deriving the routing and tiling math independently, and rejects on
//! the first failure. Nothing in this crate links against the checker,
//! the code generator or the simulator; the only shared vocabulary is
//! the [`ConstraintKind`] taxonomy, which also owns the checker's stable
//! rule ids.
//!
//! ## Auditing a run
//!
//! ```
//! use nsc_cert::{
//!     digest_hex, verify, CompileCertificate, CompilePath, Expected, InstrCensus,
//!     KernelWindow, MachineLimits, ResourceCensus, RouteCert,
//! };
//!
//! // What an engine would emit for a tiny one-instruction program that
//! // streams 512 words through 3 units and sends one halo message.
//! let machine = MachineLimits {
//!     fu_count: 32, planes: 16, words_per_plane: 1 << 24,
//!     caches: 16, cache_buffers: 2, cache_words_per_buffer: 8192,
//!     sdu_units: 2, sdu_taps_per_unit: 4, sdu_buffer_words: 16384,
//!     max_sdu_taps: 8, rf_words: 64, clock_hz: 20_000_000,
//! };
//! let cert = CompileCertificate {
//!     format: CompileCertificate::FORMAT,
//!     doc_digest: digest_hex(0x1234),
//!     shape_digest: digest_hex(0x5678),
//!     compile_path: CompilePath::Full,
//!     machine,
//!     census: ResourceCensus {
//!         instructions: vec![InstrCensus {
//!             index: 0, active_fus: 3, sdu: vec![], planes: vec![], caches: vec![],
//!         }],
//!         active_fus: 3, sdu_taps: 0, plane_words: 0, cache_words: 0,
//!     },
//!     windows: vec![KernelWindow {
//!         index: 0, executed_cycles: 520, flops: 1024, streamed: 512, stored: 512,
//!     }],
//!     routes: vec![RouteCert { from: 0, to: 5, words: 81, path: vec![0, 1, 5] }],
//!     coverage: vec![],
//!     lease: None,
//!     seal: String::new(),
//! }
//! .sealed();
//!
//! // The auditor re-checks it against the digest it recorded itself.
//! let expected = Expected { doc_digest: Some(digest_hex(0x1234)), ..Default::default() };
//! let report = verify(&cert, &expected).expect("honest certificate");
//! assert!(report.obligations >= 10);
//!
//! // A forged route (wrong e-cube order) is rejected even after resealing.
//! let mut forged = cert.clone();
//! forged.routes[0].path = vec![0, 4, 5];
//! let violation = verify(&forged.sealed(), &expected).unwrap_err();
//! assert_eq!(violation.kind.id(), "V014");
//! ```

#![warn(missing_docs)]

pub mod certificate;
pub mod taxonomy;
pub mod verify;

pub use self::certificate::{
    digest_from_hex, digest_hex, CacheSpan, CompileCertificate, CompilePath, CoverageCert,
    InstrCensus, KernelWindow, LeaseCert, MachineLimits, PlaneSpan, ResourceCensus, RouteCert,
    SduUse, WindowSpan,
};
pub use self::taxonomy::{ConstraintCategory, ConstraintKind};
pub use self::verify::{verify, Expected, VerifyReport, Violation};
