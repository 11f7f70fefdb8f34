//! The typed stage pipeline: `Session` → `CompiledProgram` → `RunReport`.
//!
//! The paper's Figure 3 loop (editor ↔ checker ↔ generator ↔ machine) is
//! driven here as explicit, inspectable, *fallible* stages:
//!
//! 1. [`Session::auto_bind`] — place every unbound icon on a physical
//!    resource (the checker's binder);
//! 2. [`Session::check`] — the generator-time "thorough check of global
//!    constraints" over the whole document;
//! 3. [`Session::codegen`] — lower the diagrams to microcode.
//!
//! [`Session::compile`] chains all three into a [`CompiledProgram`], and
//! [`CompiledProgram::run`] executes it on a [`NodeSim`], returning a
//! [`RunReport`] with per-run [`PerfCounters`]. Every failure anywhere in
//! the pipeline is an [`NscError`].
//!
//! [`run_lanes`] is the one driver that runs compiled programs on many
//! nodes at once: the first node on the calling thread, every other node
//! on a crossbeam scoped thread of its own; the distributed solvers and
//! [`Session::run_batch`] (compile many documents, run them round-robin
//! across a pool of nodes, aggregate the per-run counters) are built on
//! it.

use crate::certify::build_certificate;
use crate::error::NscError;
use nsc_arch::{KnowledgeBase, MachineConfig};
use nsc_cert::{digest_hex, CompileCertificate, CompilePath};
use nsc_checker::{diag, Checker, Diagnostic};
use nsc_codegen::GenOutput;
use nsc_diagram::Document;
use nsc_microcode::MicroProgram;
use nsc_sim::{CompiledKernel, HaltReason, NodeSim, PerfCounters, RunOptions, RunStats};
use serde::Serialize;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// One cached compilation: the generator output plus the host fast-path
/// kernel specialized from it and the compile certificate the full
/// pipeline emitted (the rebind base for the family's certificates).
#[derive(Debug)]
struct CacheEntry {
    /// The document's shape digest. Equal digests mean equal shapes, so a
    /// hit reads its shape here instead of hashing the document again.
    shape: u128,
    output: GenOutput,
    warnings: Vec<Diagnostic>,
    kernel: Arc<CompiledKernel>,
    certificate: Arc<CompileCertificate>,
}

/// The session's compile cache, keyed by [`Document::digest`] with a
/// secondary index keyed by [`Document::shape_digest`].
///
/// A digest hit returns the cached microcode *and* the pre-specialized
/// [`CompiledKernel`], skipping check, codegen and kernel analysis
/// entirely — the compile-once/run-many shape Jacobi iterations, V-cycle
/// smoothing passes and ensemble re-runs all have. A digest *miss* whose
/// shape digest matches a previous compile takes the rebind fast path
/// instead: the cached program is cloned, its functional-unit preloads are
/// re-patched to the new document's constants, and only kernel
/// specialization re-runs — check and codegen are skipped. Exactly one of
/// [`KernelCache::hits`], [`KernelCache::rebinds`] or
/// [`KernelCache::misses`] ticks per compile. The cache is shared by
/// clones of its [`Session`] (it is an `Arc` internally) and is safe to
/// use from many threads.
///
/// ```
/// use nsc_arch::{AlsKind, FuOp, InPort, MachineConfig, PlaneId};
/// use nsc_core::Session;
/// use nsc_diagram::{DmaAttrs, Document, FuAssign, IconKind, PadLoc, PadRef};
/// use nsc_sim::RunOptions;
///
/// # fn main() -> Result<(), nsc_core::NscError> {
/// // Draw: plane 0 -> (x * 2) -> plane 1.
/// let mut doc = Document::new("double");
/// let pid = doc.add_pipeline("double");
/// let d = doc.pipeline_mut(pid).unwrap();
/// d.stream_len = 4;
/// let src = d.add_icon(IconKind::Memory { plane: Some(PlaneId(0)) });
/// let als = d.add_icon(IconKind::als(AlsKind::Singlet));
/// let dst = d.add_icon(IconKind::Memory { plane: Some(PlaneId(1)) });
/// d.connect(
///     PadLoc::new(src, PadRef::Io),
///     PadLoc::new(als, PadRef::FuIn { pos: 0, port: InPort::A }),
///     Some(DmaAttrs::at_address(0)),
/// )?;
/// d.assign_fu(als, 0, FuAssign::with_const(FuOp::Mul, 2.0))?;
/// d.connect(
///     PadLoc::new(als, PadRef::FuOut { pos: 0 }),
///     PadLoc::new(dst, PadRef::Io),
///     Some(DmaAttrs::at_address(0)),
/// )?;
///
/// // Compile once, run many: iterations 2 and 3 hit the kernel cache.
/// let session = Session::new(MachineConfig::nsc_1988());
/// let mut node = session.node();
/// for _ in 0..3 {
///     let compiled = session.compile(&mut doc)?;
///     compiled.run(&mut node, &RunOptions::default())?;
/// }
/// assert_eq!(session.kernel_cache().misses(), 1, "first compile populates");
/// assert_eq!(session.kernel_cache().hits(), 2, "re-compiles are cache hits");
/// assert_eq!(session.kernel_cache().len(), 1);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Default)]
pub struct KernelCache {
    inner: Arc<CacheInner>,
}

#[derive(Debug, Default)]
struct CacheInner {
    entries: Mutex<HashMap<u128, Arc<CacheEntry>>>,
    shapes: Mutex<HashMap<u128, Arc<CacheEntry>>>,
    hits: AtomicU64,
    rebinds: AtomicU64,
    misses: AtomicU64,
}

impl KernelCache {
    /// Number of distinct documents cached.
    pub fn len(&self) -> usize {
        self.inner.entries.lock().expect("cache lock").len()
    }

    /// Whether the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Number of distinct document *shapes* cached (the rebind index).
    pub fn shape_count(&self) -> usize {
        self.inner.shapes.lock().expect("cache lock").len()
    }

    /// Compiles served whole from the cache (same document digest).
    pub fn hits(&self) -> u64 {
        self.inner.hits.load(Ordering::Relaxed)
    }

    /// Compiles served through the rebind fast path: a new document digest
    /// whose shape matched a cached compile, so only the functional-unit
    /// preloads were re-patched and the kernel re-specialized.
    pub fn rebinds(&self) -> u64 {
        self.inner.rebinds.load(Ordering::Relaxed)
    }

    /// Compiles that ran the full pipeline and populated the cache.
    pub fn misses(&self) -> u64 {
        self.inner.misses.load(Ordering::Relaxed)
    }

    /// Statistics snapshot ([`Session::cache_stats`] re-exports this).
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.hits(),
            rebinds: self.rebinds(),
            misses: self.misses(),
            entries: self.len(),
            shapes: self.shape_count(),
        }
    }

    /// Drop every cached entry, in both indexes (statistics are kept).
    pub fn clear(&self) {
        self.inner.entries.lock().expect("cache lock").clear();
        self.inner.shapes.lock().expect("cache lock").clear();
    }

    fn lookup(&self, digest: u128) -> Option<Arc<CacheEntry>> {
        self.inner.entries.lock().expect("cache lock").get(&digest).cloned()
    }

    fn lookup_shape(&self, shape: u128) -> Option<Arc<CacheEntry>> {
        self.inner.shapes.lock().expect("cache lock").get(&shape).cloned()
    }

    fn note_hit(&self) {
        self.inner.hits.fetch_add(1, Ordering::Relaxed);
    }

    fn note_rebind(&self) {
        self.inner.rebinds.fetch_add(1, Ordering::Relaxed);
    }

    fn note_miss(&self) {
        self.inner.misses.fetch_add(1, Ordering::Relaxed);
    }

    fn insert(&self, digest: u128, entry: Arc<CacheEntry>) {
        self.inner.entries.lock().expect("cache lock").insert(digest, entry.clone());
        // First compile of a shape becomes the rebind base for the whole
        // family; later members keep rebinding from it.
        self.inner.shapes.lock().expect("cache lock").entry(entry.shape).or_insert(entry);
    }
}

/// A serializable snapshot of [`KernelCache`] counters — what ensemble
/// reports and the CI perf gate consume instead of reaching into the
/// cache's internals.
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct CacheStats {
    /// Compiles served whole from the cache.
    pub hits: u64,
    /// Compiles served through the rebind fast path.
    pub rebinds: u64,
    /// Compiles that ran the full pipeline.
    pub misses: u64,
    /// Distinct documents currently cached.
    pub entries: usize,
    /// Distinct document shapes currently cached.
    pub shapes: usize,
}

impl CacheStats {
    /// Fraction of compiles that avoided the full pipeline (whole hits
    /// plus rebinds over all lookups); `1.0` when nothing compiled yet.
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.rebinds + self.misses;
        if total == 0 {
            1.0
        } else {
            (self.hits + self.rebinds) as f64 / total as f64
        }
    }
}

/// A shared log of the certificates a [`Session`] emitted, for auditing.
///
/// [`Session::with_certificate_log`] clones a session with a fresh log
/// attached; every subsequent [`Session::compile`] through that clone
/// appends its sealed [`CompileCertificate`] here (cache hits and rebinds
/// included — each restamped with its own compile path and digest). The
/// machine park drains one log per job to attribute certificates to
/// jobs; the log is an `Arc` internally, so cloning it shares the record.
#[derive(Debug, Clone, Default)]
pub struct CertificateLog {
    inner: Arc<Mutex<Vec<Arc<CompileCertificate>>>>,
}

impl CertificateLog {
    /// Append a certificate to the log.
    pub fn record(&self, cert: Arc<CompileCertificate>) {
        self.inner.lock().expect("certificate log lock").push(cert);
    }

    /// Take every recorded certificate, leaving the log empty.
    pub fn drain(&self) -> Vec<Arc<CompileCertificate>> {
        std::mem::take(&mut *self.inner.lock().expect("certificate log lock"))
    }

    /// Number of certificates currently recorded.
    pub fn len(&self) -> usize {
        self.inner.lock().expect("certificate log lock").len()
    }

    /// Whether the log holds no certificates.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// A compile-and-run session over one machine configuration.
///
/// Cheap to construct (one knowledge-base clone, reused by every stage)
/// and freely cloneable; every stage takes `&self`, so one session can
/// compile documents from many threads. Clones share the [`KernelCache`],
/// so a document compiled through any clone is a cache hit for all.
#[derive(Debug, Clone)]
pub struct Session {
    checker: Checker,
    kernels: KernelCache,
    fast_path: bool,
    cert_log: Option<CertificateLog>,
}

impl Session {
    /// A session for a machine configuration.
    pub fn new(cfg: MachineConfig) -> Self {
        Self::from_kb(KnowledgeBase::new(cfg))
    }

    /// A session over an existing knowledge base.
    pub fn from_kb(kb: KnowledgeBase) -> Self {
        Session {
            checker: Checker::new(kb),
            kernels: KernelCache::default(),
            fast_path: true,
            cert_log: None,
        }
    }

    /// A session for the published 1988 machine.
    pub fn nsc_1988() -> Self {
        Self::from_kb(KnowledgeBase::nsc_1988())
    }

    /// Toggle the host fast path (on by default). With it off,
    /// [`Session::compile`] skips both the kernel cache and kernel
    /// specialization, so every run interprets — the reference mode the
    /// fast path is bit-compared against.
    pub fn with_fast_path(mut self, enabled: bool) -> Self {
        self.fast_path = enabled;
        self
    }

    /// Whether compiles specialize host kernels and use the cache.
    pub fn fast_path(&self) -> bool {
        self.fast_path
    }

    /// The digest-keyed compile cache.
    pub fn kernel_cache(&self) -> &KernelCache {
        &self.kernels
    }

    /// A clone of this session with a fresh [`CertificateLog`] attached,
    /// plus the log itself. Compiles through the clone append their sealed
    /// certificates to the log; the original session keeps whatever log it
    /// had (usually none). The kernel cache stays shared with the original.
    pub fn with_certificate_log(&self) -> (Session, CertificateLog) {
        let log = CertificateLog::default();
        let mut session = self.clone();
        session.cert_log = Some(log.clone());
        (session, log)
    }

    /// Append a certificate to this session's log, if one is attached.
    /// Engines that extend a compile's certificate (the sweep engine's
    /// topology restamp) record the extended version through this.
    pub fn record_certificate(&self, cert: Arc<CompileCertificate>) {
        if let Some(log) = &self.cert_log {
            log.record(cert);
        }
    }

    /// The knowledge base.
    pub fn kb(&self) -> &KnowledgeBase {
        self.checker.kb()
    }

    /// The checker every stage consults.
    pub fn checker(&self) -> &Checker {
        &self.checker
    }

    /// A fresh simulated node for this machine.
    pub fn node(&self) -> NodeSim {
        NodeSim::new(self.kb().clone())
    }

    /// Stage 1: bind every unbound icon in every pipeline to a free
    /// physical resource. Fails with [`NscError::BindFailed`] when the
    /// machine cannot host the document.
    pub fn auto_bind(&self, doc: &mut Document) -> Result<(), NscError> {
        let decls = doc.decls.clone();
        let ids: Vec<_> = doc.pipelines().iter().map(|p| p.id).collect();
        let mut diags = Vec::new();
        for id in ids {
            diags.extend(self.checker.auto_bind(doc.pipeline_mut(id).expect("listed id"), &decls));
        }
        if diags.is_empty() {
            Ok(())
        } else {
            Err(NscError::bind_failed(diags))
        }
    }

    /// Stage 2: the whole-document global check. Returns the surviving
    /// warnings on success; fails with [`NscError::CheckFailed`] when any
    /// finding is an error.
    pub fn check(&self, doc: &Document) -> Result<Vec<Diagnostic>, NscError> {
        let diags = self.checker.check_document(doc);
        if diag::has_errors(&diags) {
            Err(NscError::check_failed(diags))
        } else {
            Ok(diags)
        }
    }

    /// Stage 3: lower the (bound, checked) document to microcode.
    pub fn codegen(&self, doc: &Document) -> Result<GenOutput, NscError> {
        Ok(nsc_codegen::generate(self.kb(), doc)?)
    }

    /// The full front half of the Figure 3 loop: bind, check, generate —
    /// then specialize the host fast-path kernel, all behind the
    /// digest-keyed [`KernelCache`].
    ///
    /// The document is mutated in place by binding (exactly what the
    /// interactive environment does before generation). The digest is
    /// taken *after* binding, so documents that bind identically share a
    /// cache slot. On a hit, the shape digest, check, codegen and kernel
    /// analysis are all skipped and the cached program (with its kernel)
    /// is returned. On a miss whose [`Document::shape_digest`] matches a
    /// previous compile — a parameter-sweep member differing only in
    /// constants — the cached program is rebound instead: its preloads
    /// are re-patched and only the kernel re-specializes, skipping check
    /// and codegen. The global check runs exactly once per distinct
    /// document *shape*: generation reuses this stage's verdict instead of
    /// re-checking internally, and rebinding reuses the base compile's
    /// warnings (constants cannot change the check verdict).
    pub fn compile(&self, doc: &mut Document) -> Result<CompiledProgram, NscError> {
        self.auto_bind(doc)?;
        if !self.fast_path {
            let warnings = self.check(doc)?;
            let output = nsc_codegen::generate_prechecked(self.kb(), doc)?;
            let digest = doc.digest();
            let shape = doc.shape_digest();
            let certificate = Arc::new(build_certificate(
                self.kb().config(),
                digest,
                shape,
                CompilePath::Full,
                &output,
                None,
            ));
            self.record_certificate(certificate.clone());
            return Ok(CompiledProgram { output, warnings, kernel: None, shape, certificate });
        }
        let digest = doc.digest();
        if let Some(hit) = self.kernels.lookup(digest) {
            self.kernels.note_hit();
            // Same document, same microcode: the cached certificate holds,
            // restamped so the audit trail shows this compile was a hit.
            let certificate =
                Arc::new(hit.certificate.with_path(CompilePath::CacheHit, digest_hex(digest)));
            self.record_certificate(certificate.clone());
            return Ok(CompiledProgram {
                output: hit.output.clone(),
                warnings: hit.warnings.clone(),
                kernel: Some(hit.kernel.clone()),
                shape: hit.shape,
                certificate,
            });
        }
        let shape = doc.shape_digest();
        if let Some(base) = self.kernels.lookup_shape(shape) {
            // Same shape, different constants: re-patch the preloads and
            // re-specialize the kernel. Patching only fails on a shape
            // collision (distinct structures, equal 128-bit digest) — fall
            // through to the full pipeline in that case, which is always
            // correct, merely slower.
            let mut output = base.output.clone();
            if rebind_preloads(doc, &mut output).is_ok() {
                let kernel = Arc::new(CompiledKernel::compile(self.kb(), &output.program));
                let warnings = base.warnings.clone();
                // The census is re-read from the *rebound* microcode, so
                // the certificate vouches for what actually runs, not for
                // the base member it was patched from.
                let certificate = Arc::new(build_certificate(
                    self.kb().config(),
                    digest,
                    shape,
                    CompilePath::Rebind,
                    &output,
                    Some(&kernel),
                ));
                self.record_certificate(certificate.clone());
                let entry = Arc::new(CacheEntry {
                    shape,
                    output,
                    warnings,
                    kernel,
                    certificate: certificate.clone(),
                });
                self.kernels.note_rebind();
                self.kernels.insert(digest, entry.clone());
                return Ok(CompiledProgram {
                    output: entry.output.clone(),
                    warnings: entry.warnings.clone(),
                    kernel: Some(entry.kernel.clone()),
                    shape,
                    certificate: entry.certificate.clone(),
                });
            }
        }
        self.kernels.note_miss();
        let warnings = self.check(doc)?;
        let output = nsc_codegen::generate_prechecked(self.kb(), doc)?;
        let kernel = Arc::new(CompiledKernel::compile(self.kb(), &output.program));
        let certificate = Arc::new(build_certificate(
            self.kb().config(),
            digest,
            shape,
            CompilePath::Full,
            &output,
            Some(&kernel),
        ));
        self.record_certificate(certificate.clone());
        let entry = Arc::new(CacheEntry {
            shape,
            output,
            warnings,
            kernel,
            certificate: certificate.clone(),
        });
        self.kernels.insert(digest, entry.clone());
        Ok(CompiledProgram {
            output: entry.output.clone(),
            warnings: entry.warnings.clone(),
            kernel: Some(entry.kernel.clone()),
            shape,
            certificate,
        })
    }

    /// Rebind a compiled program's constant icons to a new document of the
    /// same shape, without consulting or populating the [`KernelCache`].
    ///
    /// `doc` is bound in place, its shape is required to equal `base`'s
    /// ([`NscError::ShapeMismatch`] otherwise), and the result is `base`'s
    /// microcode with every functional-unit preload re-patched to `doc`'s
    /// constants and feedback seeds — bit-identical to what a from-scratch
    /// [`Session::compile`] of `doc` produces, because constants lower
    /// *only* into preloads. The kernel re-specializes when the fast path
    /// is on (preload values are baked into specialized kernels).
    ///
    /// This is the manual counterpart of the rebind fast path `compile`
    /// takes automatically; sweep engines use it to hold a family's base
    /// compile and stamp out members without touching the shared cache.
    pub fn rebind(
        &self,
        base: &CompiledProgram,
        doc: &mut Document,
    ) -> Result<CompiledProgram, NscError> {
        self.auto_bind(doc)?;
        let shape = doc.shape_digest();
        if shape != base.shape {
            return Err(NscError::ShapeMismatch { expected: base.shape, got: shape });
        }
        let mut output = base.output.clone();
        // Equal shape digests with a failing patch means a digest
        // collision between genuinely different structures.
        rebind_preloads(doc, &mut output)
            .map_err(|_| NscError::ShapeMismatch { expected: base.shape, got: shape })?;
        let kernel = if self.fast_path {
            Some(Arc::new(CompiledKernel::compile(self.kb(), &output.program)))
        } else {
            None
        };
        let certificate = Arc::new(build_certificate(
            self.kb().config(),
            doc.digest(),
            shape,
            CompilePath::Rebind,
            &output,
            kernel.as_deref(),
        ));
        Ok(CompiledProgram { output, warnings: base.warnings.clone(), kernel, shape, certificate })
    }

    /// Snapshot of the kernel cache's counters — hit/rebind/miss counts
    /// and sizes — for reports and gates that must not reach into the
    /// cache's internals.
    ///
    /// The three counters partition compiles exactly: every
    /// [`Session::compile`] through the fast path ticks exactly one of
    /// `hits` (same digest, cached program returned whole), `rebinds` (new
    /// digest, known shape — preloads re-patched, check and codegen
    /// skipped) or `misses` (full pipeline). The per-compile view of the
    /// same fact travels in the certificate: `CompileCertificate::
    /// compile_path` is `CacheHit`, `Rebind` or `Full` respectively, so an
    /// audit can tell a rebind-path compile from a full compile for any
    /// single job, while these counters give the aggregate.
    pub fn cache_stats(&self) -> CacheStats {
        self.kernels.stats()
    }

    /// Compile many documents and execute them across a pool of nodes.
    ///
    /// Document `i` runs on node `i % nodes.len()`. The batch runs in
    /// rounds of one document per node through [`run_lanes`], so distinct
    /// nodes run concurrently while each node executes its documents in
    /// submission order, never interleaved.
    ///
    /// A *compile* failure aborts before anything executes, leaving every
    /// node untouched. A *runtime* failure cancels the not-yet-started
    /// remainder of the batch (programs already in flight on other nodes
    /// finish their run), and the lowest-indexed failure is reported as
    /// [`NscError::Batch`]; nodes that completed work before the
    /// cancellation keep their memory and counters, so reuse the pool
    /// after an error only if the documents write disjoint state. On
    /// success the [`BatchReport`] carries one [`RunReport`] per document
    /// plus pool-level aggregate counters.
    pub fn run_batch(
        &self,
        docs: &mut [Document],
        nodes: &mut [NodeSim],
        opts: &RunOptions,
    ) -> Result<BatchReport, NscError> {
        if docs.is_empty() {
            return Ok(BatchReport::default());
        }
        if nodes.is_empty() {
            return Err(NscError::EmptyPool);
        }
        let compiled = docs
            .iter_mut()
            .enumerate()
            .map(|(i, d)| self.compile(d).map_err(|e| NscError::in_batch(i, e)))
            .collect::<Result<Vec<_>, _>>()?;
        let width = nodes.len();
        let mut report = BatchReport::default();
        for (round, progs) in compiled.chunks(width).enumerate() {
            let lanes: Vec<(usize, &CompiledProgram)> = progs.iter().enumerate().collect();
            let runs = run_lanes(nodes, &lanes, opts).map_err(|e| match e {
                NscError::Batch { doc, source } => {
                    NscError::Batch { doc: round * width + doc, source }
                }
                other => other,
            })?;
            report.runs.extend(runs);
        }
        // A node's documents run sequentially (counters accumulate); the
        // nodes themselves overlap in time (counters absorb).
        let mut per_node = vec![PerfCounters::default(); width.min(report.runs.len())];
        for (i, run) in report.runs.iter().enumerate() {
            per_node[i % width].accumulate(&run.counters);
        }
        for node in &per_node {
            report.total.absorb(node);
        }
        report.nodes_used = per_node.len();
        Ok(report)
    }
}

/// Re-patch a generated program's functional-unit preloads to `doc`'s
/// constants and feedback seeds, instruction slot by instruction slot
/// through the generator's diagram back-references.
///
/// Constants lower *only* into `FuField::preload` (the generator rejects
/// units whose operands both carry values, so each unit has at most one),
/// which is what makes this equivalent to recompiling: everything else in
/// the program — routing, compensation, DMA, loop sequencing — is
/// value-independent. Slots without a back-reference (loop headers and
/// tails) carry no units and are skipped. Fails only when `doc` does not
/// actually match the program's structure (a shape-digest collision).
fn rebind_preloads(doc: &Document, output: &mut GenOutput) -> Result<(), ()> {
    for (slot, map) in output.maps.iter().enumerate() {
        let Some(map) = map else { continue };
        let diagram = doc.pipeline(map.pipeline).ok_or(())?;
        for (icon, pos, assign) in diagram.fu_assigns() {
            let Some(value) = assign.preload_value() else { continue };
            let fu = *map.unit_to_fu.get(&(icon, pos)).ok_or(())?;
            output.program.instrs[slot].fu_mut(fu).preload = Some(value);
        }
    }
    Ok(())
}

/// Run compiled programs on nodes: the one driver every caller that
/// executes on more than one node goes through.
///
/// Each lane `(node, program)` runs `program` on `nodes[node]`. Lane 0
/// runs on the calling thread and every further lane on a scoped thread of
/// its own, so the lanes run concurrently, each node executes exactly one
/// program, and a one-lane call starts no thread. Lanes must name
/// distinct, in-range nodes ([`NscError::BadLane`] otherwise, before
/// anything runs); nodes no lane names stay untouched, so embeddings on
/// disjoint sub-cubes of one system can each drive only their own nodes.
/// Returns one [`RunReport`] per lane, in lane order. Every lane runs to
/// completion even when another fails; the lowest failing lane's error is
/// then reported as [`NscError::Batch`] with `doc` equal to the lane
/// index. A panicking lane panics this call once every lane has finished.
pub fn run_lanes(
    nodes: &mut [NodeSim],
    lanes: &[(usize, &CompiledProgram)],
    opts: &RunOptions,
) -> Result<Vec<RunReport>, NscError> {
    // Take disjoint mutable borrows of the lanes' nodes, in lane order.
    let mut free: Vec<Option<&mut NodeSim>> = nodes.iter_mut().map(Some).collect();
    let mut work = Vec::with_capacity(lanes.len());
    for (lane, &(node, prog)) in lanes.iter().enumerate() {
        let sim = free.get_mut(node).and_then(Option::take);
        work.push((sim.ok_or(NscError::BadLane { lane, node })?, prog));
    }
    let mut slots: Vec<Option<Result<RunReport, NscError>>> = lanes.iter().map(|_| None).collect();
    let mut work = work.into_iter().zip(slots.iter_mut());
    if let Some(((node, prog), slot)) = work.next() {
        let _ = crossbeam::thread::scope(|scope| {
            for ((node, prog), slot) in work {
                scope.spawn(move |_| *slot = Some(prog.run(node, opts)));
            }
            *slot = Some(prog.run(node, opts));
        });
    }
    slots
        .into_iter()
        .enumerate()
        .map(|(lane, slot)| match slot {
            Some(run) => run.map_err(|e| NscError::in_batch(lane, e)),
            None => Err(NscError::WorkerPanic),
        })
        .collect()
}

/// A document that made it through bind, check and generate.
#[derive(Debug, Clone)]
pub struct CompiledProgram {
    /// The generator's output: executable microcode plus per-instruction
    /// diagram back-references.
    pub output: GenOutput,
    /// Non-fatal findings from the global check.
    pub warnings: Vec<Diagnostic>,
    /// The host fast-path kernel, when the session compiled one; shared
    /// with the cache entry, so clones are cheap and thread-safe.
    kernel: Option<Arc<CompiledKernel>>,
    /// The source document's shape digest, for [`Session::rebind`]'s
    /// same-shape guard.
    shape: u128,
    /// The sealed compile certificate, bound to the document digest.
    certificate: Arc<CompileCertificate>,
}

impl CompiledProgram {
    /// The executable microcode.
    pub fn program(&self) -> &MicroProgram {
        &self.output.program
    }

    /// The source document's [`Document::shape_digest`] — the key under
    /// which [`Session::rebind`] accepts new constants for this program.
    pub fn shape_digest(&self) -> u128 {
        self.shape
    }

    /// The host fast-path kernel, if this program was compiled with the
    /// fast path enabled. [`CompiledProgram::run`] uses it automatically.
    pub fn kernel(&self) -> Option<&CompiledKernel> {
        self.kernel.as_deref()
    }

    /// The sealed [`CompileCertificate`] this compile emitted: machine
    /// limits, resource census and kernel validity windows, bound to the
    /// source document's digest. Feed it to `nsc_cert::verify` to re-check
    /// every capacity obligation without the engine.
    pub fn certificate(&self) -> &Arc<CompileCertificate> {
        &self.certificate
    }

    /// Execute on a node.
    ///
    /// Tripping the [`RunOptions::max_instructions`] guard is reported as
    /// [`NscError::MaxInstructions`] — a compiled document that exhausts
    /// its budget is a runaway, not a completed run. (The raw
    /// [`NodeSim::run_program`] API still reports the guard as an ordinary
    /// [`HaltReason`] for callers that probe budgets deliberately.)
    pub fn run(&self, node: &mut NodeSim, opts: &RunOptions) -> Result<RunReport, NscError> {
        let before = node.counters;
        let stats =
            node.run_program_with_kernel(&self.output.program, self.kernel.as_deref(), opts)?;
        if stats.halted == HaltReason::MaxInstructions {
            return Err(NscError::MaxInstructions {
                executed: stats.executed,
                limit: opts.max_instructions,
            });
        }
        let counters = node.counters.since(&before);
        let mflops = counters.mflops(node.kb.config().clock_hz);
        Ok(RunReport { stats, counters, mflops })
    }
}

/// Outcome of one program run through the typed pipeline.
#[derive(Debug, Clone)]
pub struct RunReport {
    /// The simulator's halt reason, instruction count and traces.
    pub stats: RunStats,
    /// Counters accumulated by *this* run (not the node's lifetime).
    pub counters: PerfCounters,
    /// Achieved MFLOPS of this run at the node's clock.
    pub mflops: f64,
}

/// Outcome of a [`Session::run_batch`] call.
#[derive(Debug, Clone, Default)]
pub struct BatchReport {
    /// Per-document reports, in submission order.
    pub runs: Vec<RunReport>,
    /// Pool-level aggregate: work sums across all runs; elapsed cycles are
    /// the busiest node's total (nodes overlap in time).
    pub total: PerfCounters,
    /// Nodes that actually received work.
    pub nodes_used: usize,
}

impl BatchReport {
    /// Aggregate achieved MFLOPS of the pool at a clock rate.
    pub fn mflops(&self, clock_hz: u64) -> f64 {
        self.total.mflops(clock_hz)
    }

    /// Per-document counters, in submission order — what document `i`
    /// alone charged its node (already a delta, not a lifetime total).
    pub fn document_counters(&self) -> impl Iterator<Item = &PerfCounters> + '_ {
        self.runs.iter().map(|r| &r.counters)
    }
}

/// A reusable problem that knows how to run itself through a [`Session`].
///
/// Solver front ends (`nsc-cfd`'s Jacobi, SOR and multigrid drivers)
/// implement this so that benchmarks, examples and batch harnesses can
/// treat "a workload" uniformly: build documents, compile them through the
/// session, execute on the target, and report — returning `Err` instead of
/// panicking at every stage.
///
/// `Target` is what the workload executes *on*: a single [`NodeSim`] (the
/// default — the paper's one-node solvers) or a whole
/// [`nsc_sim::NscSystem`] for domain-decomposed solvers that spread one
/// problem across the hypercube with halo exchanges.
pub trait Workload<Target = NodeSim> {
    /// What a completed run reports.
    type Report;

    /// Human-readable name for logs and batch summaries.
    fn name(&self) -> String;

    /// Execute the workload through `session` on `target`.
    fn execute(&self, session: &Session, target: &mut Target) -> Result<Self::Report, NscError>;
}
