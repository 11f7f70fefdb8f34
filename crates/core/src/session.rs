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
//! on a scoped thread of its own (a one-lane call opens no thread scope);
//! the distributed solvers are built on it.

use crate::certify::build_certificate;
use crate::error::NscError;
use nsc_arch::{KnowledgeBase, MachineConfig, NodeId};
use nsc_cert::{digest_hex, CompileCertificate, CompilePath};
use nsc_checker::{diag, Checker, Diagnostic};
use nsc_codegen::GenOutput;
use nsc_diagram::Document;
use nsc_microcode::MicroProgram;
use nsc_sim::{CompiledKernel, HaltReason, NodeSim, NscSystem, PerfCounters, RunOptions, RunStats};
use serde::Serialize;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// The session's compile cache: every fast-path compile keyed by
/// [`Document::digest`], with a secondary index keyed by
/// [`Document::shape_digest`] holding each shape's first compile (the
/// rebind base for the whole family). Exactly one of `hits`, `rebinds` or
/// `misses` ticks per fast-path compile.
#[derive(Debug, Default)]
struct KernelCache {
    entries: Mutex<HashMap<u128, Arc<CompiledProgram>>>,
    shapes: Mutex<HashMap<u128, Arc<CompiledProgram>>>,
    hits: AtomicU64,
    rebinds: AtomicU64,
    misses: AtomicU64,
}

impl KernelCache {
    fn lookup(&self, digest: u128) -> Option<Arc<CompiledProgram>> {
        self.entries.lock().expect("cache lock").get(&digest).cloned()
    }

    fn lookup_shape(&self, shape: u128) -> Option<Arc<CompiledProgram>> {
        self.shapes.lock().expect("cache lock").get(&shape).cloned()
    }

    fn insert(&self, digest: u128, program: Arc<CompiledProgram>) {
        self.entries.lock().expect("cache lock").insert(digest, program.clone());
        // First compile of a shape becomes the rebind base for the whole
        // family; later members keep rebinding from it.
        self.shapes.lock().expect("cache lock").entry(program.shape).or_insert(program);
    }
}

/// A serializable snapshot of a [`Session`]'s compile-cache counters
/// ([`Session::cache_stats`]) — what ensemble reports and the CI perf
/// gate consume.
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

/// The environment for one machine configuration: checker-connected
/// editors and diagram renders ([`Session::editor`],
/// [`Session::display_document`]), the visual debugger
/// ([`Session::debug_run`]) and the compile-and-run stages.
///
/// Cheap to construct (one knowledge-base clone, reused by every stage)
/// and freely cloneable; every stage takes `&self`, so one session can
/// compile documents from many threads. Clones share the compile cache,
/// so a document compiled through any clone is a cache hit for all.
#[derive(Debug, Clone)]
pub struct Session {
    checker: Checker,
    cache: Arc<KernelCache>,
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
            cache: Arc::default(),
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
    /// then specialize the host fast-path kernel, all behind the session's
    /// digest-keyed compile cache.
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
    /// document *shape*: a miss runs [`Session::check`] once and hands its
    /// verdict to `nsc_codegen::generate_prechecked`, which does not
    /// re-check, and rebinding reuses the base compile's warnings
    /// (constants cannot change the check verdict). With the fast path off
    /// the cache is neither read nor filled and every compile runs the
    /// full pipeline.
    pub fn compile(&self, doc: &mut Document) -> Result<CompiledProgram, NscError> {
        self.auto_bind(doc)?;
        let digest = doc.digest();
        let hit = if self.fast_path { self.cache.lookup(digest) } else { None };
        if let Some(hit) = hit {
            self.cache.hits.fetch_add(1, Ordering::Relaxed);
            // Same document, same microcode: the cached certificate holds,
            // restamped so the audit trail shows this compile was a hit.
            let mut program = (*hit).clone();
            program.certificate =
                Arc::new(hit.certificate.with_path(CompilePath::CacheHit, digest_hex(digest)));
            self.record_certificate(program.certificate.clone());
            return Ok(program);
        }
        let shape = doc.shape_digest();
        // Same shape, different constants: re-patch the base's preloads.
        // Patching only fails on a shape collision (distinct structures,
        // equal 128-bit digest) — the full pipeline then runs instead,
        // which is always correct, merely slower.
        let base = if self.fast_path { self.cache.lookup_shape(shape) } else { None };
        let rebound = base
            .and_then(|base| Some((rebind_preloads(doc, &base.output)?, base.warnings.clone())));
        let (path, output, warnings) = match rebound {
            Some((output, warnings)) => {
                self.cache.rebinds.fetch_add(1, Ordering::Relaxed);
                (CompilePath::Rebind, output, warnings)
            }
            None => {
                if self.fast_path {
                    self.cache.misses.fetch_add(1, Ordering::Relaxed);
                }
                let warnings = self.check(doc)?;
                (CompilePath::Full, nsc_codegen::generate_prechecked(self.kb(), doc)?, warnings)
            }
        };
        let program = self.seal(digest, shape, path, output, warnings);
        self.record_certificate(program.certificate.clone());
        if self.fast_path {
            self.cache.insert(digest, Arc::new(program.clone()));
        }
        Ok(program)
    }

    /// Rebind a compiled program's constant icons to a new document of the
    /// same shape, without consulting or populating the compile cache.
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
        let mismatch = NscError::ShapeMismatch { expected: base.shape, got: shape };
        if shape != base.shape {
            return Err(mismatch);
        }
        // Equal shape digests with a failing patch means a digest
        // collision between genuinely different structures.
        let output = rebind_preloads(doc, &base.output).ok_or(mismatch)?;
        Ok(self.seal(doc.digest(), shape, CompilePath::Rebind, output, base.warnings.clone()))
    }

    /// The one place a compile's product is built: specialize the host
    /// kernel (fast path only) and seal the certificate over the microcode
    /// that actually runs — for a rebind, the *re-patched* microcode, not
    /// the base member it was patched from.
    fn seal(
        &self,
        digest: u128,
        shape: u128,
        path: CompilePath,
        output: GenOutput,
        warnings: Vec<Diagnostic>,
    ) -> CompiledProgram {
        let kernel =
            self.fast_path.then(|| Arc::new(CompiledKernel::compile(self.kb(), &output.program)));
        let certificate = Arc::new(build_certificate(
            self.kb().config(),
            digest,
            shape,
            path,
            &output,
            kernel.as_deref(),
        ));
        CompiledProgram { output, warnings, kernel, shape, certificate }
    }

    /// Snapshot of the compile cache's counters — hit/rebind/miss counts
    /// and sizes — for reports and gates.
    ///
    /// The three counters partition compiles exactly: every
    /// [`Session::compile`] through the fast path ticks exactly one of
    /// `hits` (same digest, cached program returned whole), `rebinds` (new
    /// digest, known shape — preloads re-patched, check and codegen
    /// skipped) or `misses` (full pipeline). The per-compile view of the
    /// same fact travels in the certificate: `CompileCertificate::
    /// compile_path` is `CacheHit`, `Rebind` or `Full` respectively, so an
    /// audit can tell a rebind-path compile from a full compile for any
    /// single job, while these counters give the aggregate. The cache is
    /// shared by clones of the session and is safe to use from many
    /// threads.
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
    /// // Compile once, run many: iterations 2 and 3 hit the compile cache.
    /// let session = Session::new(MachineConfig::nsc_1988());
    /// let mut node = session.node();
    /// for _ in 0..3 {
    ///     let compiled = session.compile(&mut doc)?;
    ///     compiled.run(&mut node, &RunOptions::default())?;
    /// }
    /// let stats = session.cache_stats();
    /// assert_eq!(stats.misses, 1, "first compile populates");
    /// assert_eq!(stats.hits, 2, "re-compiles are cache hits");
    /// assert_eq!(stats.entries, 1);
    /// # Ok(())
    /// # }
    /// ```
    pub fn cache_stats(&self) -> CacheStats {
        let c = &self.cache;
        CacheStats {
            hits: c.hits.load(Ordering::Relaxed),
            rebinds: c.rebinds.load(Ordering::Relaxed),
            misses: c.misses.load(Ordering::Relaxed),
            entries: c.entries.lock().expect("cache lock").len(),
            shapes: c.shapes.lock().expect("cache lock").len(),
        }
    }
}

/// Re-patch a generated program's functional-unit preloads to `doc`'s
/// constants and feedback seeds, instruction slot by instruction slot
/// through the generator's diagram back-references, returning the patched
/// copy of `base`.
///
/// Constants lower *only* into `FuField::preload` (the generator rejects
/// units whose operands both carry values, so each unit has at most one),
/// which is what makes this equivalent to recompiling: everything else in
/// the program — routing, compensation, DMA, loop sequencing — is
/// value-independent. Slots without a back-reference (loop headers and
/// tails) carry no units and are skipped. Returns `None` only when `doc`
/// does not actually match the program's structure (a shape-digest
/// collision).
fn rebind_preloads(doc: &Document, base: &GenOutput) -> Option<GenOutput> {
    let mut output = base.clone();
    for (slot, map) in base.maps.iter().enumerate() {
        let Some(map) = map else { continue };
        let diagram = doc.pipeline(map.pipeline)?;
        for (icon, pos, assign) in diagram.fu_assigns() {
            let Some(value) = assign.preload_value() else { continue };
            let fu = *map.unit_to_fu.get(&(icon, pos))?;
            output.program.instrs[slot].fu_mut(fu).preload = Some(value);
        }
    }
    Some(output)
}

/// Run compiled programs on nodes: the one driver every caller that
/// executes on more than one node goes through.
///
/// Each lane `(node, program)` runs `program` on `nodes[node]`. Lane 0
/// runs on the calling thread and every further lane on a scoped thread of
/// its own, so the lanes run concurrently and each node executes exactly
/// one program. Lanes must name distinct, in-range nodes
/// ([`NscError::BadLane`] otherwise, before anything runs); nodes no lane
/// names stay untouched, so embeddings on disjoint sub-cubes of one system
/// can each drive only their own nodes. Returns one [`RunReport`] per
/// lane, in lane order. Every lane runs to completion even when another
/// fails; the lowest failing lane's error is then reported as
/// [`NscError::NodeFailed`] naming that lane's node. A panicking lane
/// panics this call once every lane has finished.
///
/// A zero-lane call returns no reports at once. A one-lane call runs its
/// program on the calling thread and returns, building no thread scope
/// and no per-node borrow table: a small sweep step (a one-node ψ-solve's
/// few hundred elements) then costs its run and nothing more.
pub fn run_lanes(
    nodes: &mut [NodeSim],
    lanes: &[(usize, &CompiledProgram)],
    opts: &RunOptions,
) -> Result<Vec<RunReport>, NscError> {
    let on_node = |node: usize| move |e| NscError::on_node(NodeId(node as u16), e);
    match *lanes {
        [] => return Ok(Vec::new()),
        [(node, prog)] => {
            let sim = nodes.get_mut(node).ok_or(NscError::BadLane { lane: 0, node })?;
            return Ok(vec![prog.run(sim, opts).map_err(on_node(node))?]);
        }
        _ => {}
    }
    // Take disjoint mutable borrows of the lanes' nodes, in lane order.
    let mut free: Vec<Option<&mut NodeSim>> = nodes.iter_mut().map(Some).collect();
    let mut work = Vec::with_capacity(lanes.len());
    for (lane, &(node, prog)) in lanes.iter().enumerate() {
        let sim = free.get_mut(node).and_then(Option::take);
        work.push((sim.ok_or(NscError::BadLane { lane, node })?, prog));
    }
    let (first, first_prog) = work.remove(0);
    let runs = std::thread::scope(|scope| {
        let spawned: Vec<_> = work
            .into_iter()
            .map(|(node, prog)| scope.spawn(move || prog.run(node, opts)))
            .collect();
        let mut runs = vec![first_prog.run(first, opts)];
        // A lane's panic resumes here; the scope still joins every other
        // lane before it leaves the call.
        runs.extend(
            spawned.into_iter().map(|h| h.join().unwrap_or_else(|p| std::panic::resume_unwind(p))),
        );
        runs
    });
    runs.into_iter().zip(lanes).map(|(run, &(node, _))| run.map_err(on_node(node))).collect()
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

/// A reusable problem that knows how to run itself through a [`Session`]
/// on a simulated hypercube.
///
/// Solver front ends (`nsc-cfd`'s distributed Jacobi, SOR and multigrid
/// workloads and the lid-driven cavity) implement this so that the park,
/// ensembles, benchmarks and examples treat "a workload" uniformly: build
/// documents, compile them through the session, execute across the
/// system's nodes, and report — returning `Err` instead of panicking at
/// every stage. A cube of dimension 0 is the one-node (serial) case.
pub trait Workload {
    /// What a completed run reports.
    type Report;

    /// Human-readable name for logs and reports.
    fn name(&self) -> String;

    /// Execute the workload through `session` on `system`.
    fn execute(&self, session: &Session, system: &mut NscSystem) -> Result<Self::Report, NscError>;
}
