//! `compile-stream`: the edit → check → generate loop. One operation is
//! one `Session::compile` of the next document in a seeded stream; nothing
//! executes in the timed operation.
//!
//! The stream mixes five document families — 3-D Jacobi sweeps over
//! random slab geometries and window splits, damped-Jacobi sweeps with a
//! random ω, 2-D five-point sweeps, Horner polynomials with random degree
//! and coefficients, and `nsc_expr` expression trees of random depth — in
//! fixed cache-path proportions: first-seen shapes (full compile),
//! constant-only variants of an earlier shape (rebind) and exact repeats
//! (hit). When the stream runs out, the next pass starts on a fresh
//! session, so every pass sees the same mix.
//!
//! The traced twin replays the compile from the public calls
//! `Session::compile` makes on the path the real compile of the same
//! document took — `auto_bind`, `Document::digest` + `shape_digest`, then
//! `Session::check`, `generate_prechecked`, `CompiledKernel::compile` and
//! `build_certificate` on a miss, one opaque `Session::rebind` from the
//! shape's first compile on a rebind (it re-binds and re-digests
//! internally), and the certificate restamp on a hit. Every traced compile
//! must seal the same certificate as the real compile.

use crate::harness::Workload;
use crate::stats::{shuffle, Series};
use crate::trace::Cx;
use nsc::arch::{FuOp, KnowledgeBase};
use nsc::cert::{digest_hex, verify, CompileCertificate, CompilePath, Expected, MachineLimits};
use nsc::cfd::diagrams::{Jacobi2dGeometry, JacobiGeometry};
use nsc::cfd::{
    build_chebyshev_document, build_damped_jacobi_sweep_document_windows,
    build_jacobi2d_sweep_document_windows, build_jacobi_sweep_document_windows, SweepWindow,
};
use nsc::codegen::generate_prechecked;
use nsc::diagram::Document;
use nsc::env::certify::{build_certificate, machine_limits};
use nsc::env::{CompiledProgram, Session};
use nsc::expr::{compile_expr, AllocStrategy, Expr};
use nsc::sim::{CompiledKernel, NodeSim, RunOptions};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::{BTreeMap, HashMap, HashSet};
use std::sync::Arc;

/// Documents per stream pass.
pub const STREAM_LEN: usize = 4800;
/// Share of first-seen shapes in the stream. The mix is chosen, not
/// measured (no caller in the repository drives an editing stream through
/// `Session::compile`): most edits change a document's structure, so most
/// compiles are misses; the rest split evenly between constant edits and
/// unchanged re-runs.
const P_MISS: f64 = 0.6;
/// Share of constant-only variants of an earlier shape.
const P_REBIND: f64 = 0.2;
/// Sinks one switch output can drive (the checker's fan-out rule).
const MAX_FANOUT: usize = 4;
/// Stream documents run kernel ≡ interpreter at the end of a run, on top
/// of the first document of each family on each cache path.
const SAMPLED: usize = 3;

/// How a sweep document splits its layers into windows.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Split {
    Whole,
    Interior,
    Shells,
    Three,
}

impl Split {
    fn windows(self, layers: usize) -> Vec<SweepWindow> {
        let lo = SweepWindow { start: 0, len: 1, slot: SweepWindow::LO_SLOT };
        let hi = SweepWindow { start: layers - 1, len: 1, slot: SweepWindow::HI_SLOT };
        let interior = SweepWindow { start: 1, len: layers - 2, slot: 0 };
        match self {
            Split::Whole => vec![SweepWindow::whole(layers)],
            Split::Interior => vec![interior],
            Split::Shells => vec![lo, hi],
            Split::Three => vec![lo, interior, hi],
        }
    }

    fn draw(rng: &mut StdRng) -> Split {
        [Split::Whole, Split::Interior, Split::Shells, Split::Three][rng.random_range(0..4usize)]
    }
}

/// One stream document's recipe.
#[derive(Debug, Clone)]
enum Spec {
    Jacobi3d { nx: usize, ny: usize, nz: usize, even: bool, split: Split },
    Damped { nx: usize, ny: usize, nz: usize, even: bool, split: Split, omega: f64 },
    Jacobi2d { nx: usize, ny: usize, even: bool, split: Split },
    Horner { count: u64, coeffs: Vec<f64>, stages: usize },
    Expr { tree: Expr, len: u64, strategy: AllocStrategy },
}

/// Family names, in [`Spec::family`] order.
const FAMILIES: [&str; 5] = ["jacobi3d", "damped", "jacobi2d", "horner", "expr"];

/// The tree with every constant replaced by `c`.
fn recast(e: &Expr, c: &mut impl FnMut() -> f64) -> Expr {
    match e {
        Expr::Load(_) => e.clone(),
        Expr::Const(_) => Expr::Const(c()),
        Expr::Unary(op, a) => Expr::Unary(*op, Box::new(recast(a, c))),
        Expr::Binary(op, a, b) => Expr::Binary(*op, Box::new(recast(a, c)), Box::new(recast(b, c))),
    }
}

/// How often `e` reads each variable.
fn uses(e: &Expr, counts: &mut BTreeMap<String, usize>) {
    match e {
        Expr::Load(v) => *counts.entry(v.clone()).or_insert(0) += 1,
        Expr::Const(_) => {}
        Expr::Unary(_, a) => uses(a, counts),
        Expr::Binary(_, a, b) => {
            uses(a, counts);
            uses(b, counts);
        }
    }
}

fn has_const(e: &Expr) -> bool {
    match e {
        Expr::Load(_) => false,
        Expr::Const(_) => true,
        Expr::Unary(_, a) => has_const(a),
        Expr::Binary(_, a, b) => has_const(a) || has_const(b),
    }
}

/// A random tree the expression mapper accepts: constants only as the
/// right operand of a binary node, at most 2^depth - 1 operations.
fn draw_tree(rng: &mut StdRng, depth: u32) -> Expr {
    let var = |rng: &mut StdRng| Expr::var(["a", "b", "c", "d", "e"][rng.random_range(0..5usize)]);
    if depth == 0 {
        return var(rng);
    }
    let op = |rng: &mut StdRng| [FuOp::Add, FuOp::Sub, FuOp::Mul][rng.random_range(0..3usize)];
    match rng.random_range(0..10u32) {
        0..=3 => {
            let o = op(rng);
            Expr::Binary(
                o,
                Box::new(draw_tree(rng, depth - 1)),
                Box::new(draw_tree(rng, depth - 1)),
            )
        }
        4..=6 => {
            let o = op(rng);
            Expr::Binary(
                o,
                Box::new(draw_tree(rng, depth - 1)),
                Box::new(Expr::Const(rng.random_range(-2.0..2.0))),
            )
        }
        7..=8 => draw_tree(rng, depth - 1).abs(),
        _ => var(rng),
    }
}

impl Spec {
    fn family(&self) -> usize {
        match self {
            Spec::Jacobi3d { .. } => 0,
            Spec::Damped { .. } => 1,
            Spec::Jacobi2d { .. } => 2,
            Spec::Horner { .. } => 3,
            Spec::Expr { .. } => 4,
        }
    }

    /// A first-seen-shape candidate of `family` ([`Spec::family`] order).
    fn draw(rng: &mut StdRng, family: usize) -> Spec {
        let even = rng.random();
        match family {
            0 => Spec::Jacobi3d {
                nx: rng.random_range(6..25),
                ny: rng.random_range(6..25),
                nz: rng.random_range(3..13),
                even,
                split: Split::draw(rng),
            },
            1 => Spec::Damped {
                nx: rng.random_range(6..25),
                ny: rng.random_range(6..25),
                nz: rng.random_range(3..13),
                even,
                split: Split::draw(rng),
                omega: rng.random_range(0.5..1.0),
            },
            2 => Spec::Jacobi2d {
                nx: rng.random_range(8..65),
                ny: rng.random_range(3..33),
                even,
                split: Split::draw(rng),
            },
            3 => {
                let degree = rng.random_range(2..11usize);
                let stages = if rng.random() { degree } else { degree.div_ceil(2) };
                Spec::Horner {
                    count: rng.random_range(256..4097),
                    coeffs: (0..=degree).map(|_| rng.random_range(-1.0..1.0)).collect(),
                    stages,
                }
            }
            _ => {
                // The output must come from a functional unit, not
                // straight from a plane, and a plane read fans out to at
                // most MAX_FANOUT units through the switch.
                let depth = rng.random_range(1..4);
                let mut tree = draw_tree(rng, depth);
                let valid = |t: &Expr| {
                    let mut counts = BTreeMap::new();
                    uses(t, &mut counts);
                    !matches!(t, Expr::Load(_)) && counts.values().all(|&n| n <= MAX_FANOUT)
                };
                while !valid(&tree) {
                    tree = draw_tree(rng, depth);
                }
                Spec::Expr {
                    tree,
                    len: rng.random_range(64..1025),
                    strategy: AllocStrategy::ALL[rng.random_range(0..3usize)],
                }
            }
        }
    }

    /// Everything but the functional-unit constants.
    fn shape_key(&self) -> String {
        match self {
            Spec::Damped { nx, ny, nz, even, split, .. } => {
                format!("damped {nx} {ny} {nz} {even} {split:?}")
            }
            Spec::Horner { count, coeffs, stages } => {
                format!("horner {count} {} {stages}", coeffs.len())
            }
            Spec::Expr { tree, len, strategy } => {
                format!("expr {len} {strategy:?} {:?}", recast(tree, &mut || 0.0))
            }
            other => format!("{other:?}"),
        }
    }

    /// Whether the document has functional-unit constants to vary.
    fn has_constants(&self) -> bool {
        match self {
            Spec::Damped { .. } | Spec::Horner { .. } => true,
            Spec::Expr { tree, .. } => has_const(tree),
            _ => false,
        }
    }

    /// The same shape with fresh constants (a rebind variant).
    fn variant(&self, rng: &mut StdRng) -> Spec {
        let mut s = self.clone();
        match &mut s {
            Spec::Damped { omega, .. } => *omega = rng.random_range(0.5..1.0),
            Spec::Horner { coeffs, .. } => {
                coeffs.iter_mut().for_each(|c| *c = rng.random_range(-1.0..1.0))
            }
            Spec::Expr { tree, .. } => *tree = recast(tree, &mut || rng.random_range(-2.0..2.0)),
            _ => {}
        }
        s
    }

    fn build(&self, kb: &KnowledgeBase) -> Document {
        match self {
            Spec::Jacobi3d { nx, ny, nz, even, split } => build_jacobi_sweep_document_windows(
                JacobiGeometry::slab(*nx, *ny, *nz),
                *even,
                &split.windows(*nz),
            ),
            Spec::Damped { nx, ny, nz, even, split, omega } => {
                build_damped_jacobi_sweep_document_windows(
                    JacobiGeometry::slab(*nx, *ny, *nz),
                    *even,
                    *omega,
                    &split.windows(*nz),
                )
            }
            Spec::Jacobi2d { nx, ny, even, split } => build_jacobi2d_sweep_document_windows(
                Jacobi2dGeometry::new(*nx, *ny),
                *even,
                &split.windows(*ny),
            ),
            Spec::Horner { count, coeffs, stages } => {
                build_chebyshev_document(*count, coeffs, *stages)
            }
            Spec::Expr { tree, len, strategy } => compile_expr(tree, "y", *len, *strategy, kb).0,
        }
    }
}

/// One stream position: the recipe and the pristine (unbound) document.
#[derive(Debug, Clone)]
struct Entry {
    spec: Spec,
    doc: Document,
}

/// The cache path a stream position is drawn for.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Intent {
    /// A first-seen shape (full compile).
    Fresh,
    /// New constants on an earlier shape (rebind).
    Variant,
    /// An earlier document verbatim (hit).
    Repeat,
}

/// The seeded document stream: `len` documents with exactly the target
/// shares of fresh shapes, variants and repeats, in seeded order, and
/// fresh shapes taking the five families in turn. Fixing the composition
/// leaves the seed to choose orders, geometries and constants only, so
/// the work per pass stays close across seeds.
fn generate(seed: u64, len: usize, kb: &KnowledgeBase) -> Vec<Entry> {
    let mut rng = StdRng::seed_from_u64(seed);
    let fresh = (len as f64 * P_MISS).round() as usize;
    let variants = (len as f64 * P_REBIND).round() as usize;
    let mut intents: Vec<Intent> = (0..len)
        .map(|i| match i {
            _ if i < fresh => Intent::Fresh,
            _ if i < fresh + variants => Intent::Variant,
            _ => Intent::Repeat,
        })
        .collect();
    shuffle(&mut intents, &mut rng);
    if let Some(first) = intents.iter().position(|&i| i == Intent::Fresh) {
        intents.swap(0, first);
    }
    let mut rotation: Vec<usize> = (0..FAMILIES.len()).collect();
    shuffle(&mut rotation, &mut rng);

    let mut shapes = HashSet::new();
    let mut specs: Vec<Spec> = Vec::with_capacity(len);
    let mut with_constants: Vec<usize> = Vec::new();
    for (i, intent) in intents.into_iter().enumerate() {
        let spec = match intent {
            Intent::Fresh => {
                let family = rotation[shapes.len() % rotation.len()];
                // Redraw until the shape is new (the space is large; a
                // few tries always suffice).
                let mut s = Spec::draw(&mut rng, family);
                for _ in 0..32 {
                    if !shapes.contains(&s.shape_key()) {
                        break;
                    }
                    s = Spec::draw(&mut rng, family);
                }
                shapes.insert(s.shape_key());
                s
            }
            // Until a shape with constants exists, a variant position
            // repeats an earlier document instead.
            Intent::Variant if !with_constants.is_empty() => {
                specs[with_constants[rng.random_range(0..with_constants.len())]].variant(&mut rng)
            }
            _ => specs[rng.random_range(0..specs.len())].clone(),
        };
        if spec.has_constants() {
            with_constants.push(i);
        }
        specs.push(spec);
    }
    specs.into_iter().map(|spec| Entry { doc: spec.build(kb), spec }).collect()
}

/// Verify a certificate with the machine limits and both digests pinned;
/// returns the obligations discharged.
pub fn verify_certificate(
    cert: &CompileCertificate,
    doc: &Document,
    limits: &MachineLimits,
) -> Result<usize, String> {
    let expected = Expected {
        doc_digest: Some(digest_hex(doc.digest())),
        shape_digest: Some(digest_hex(doc.shape_digest())),
        machine: Some(limits.clone()),
    };
    verify(cert, &expected).map(|r| r.obligations).map_err(|v| format!("'{}': {v}", doc.name))
}

/// Bit-compare two nodes after running the same program: counters, every
/// declared variable and every cache buffer.
pub fn compare_nodes(a: &NodeSim, b: &NodeSim, doc: &Document) -> Result<(), String> {
    if a.counters != b.counters {
        return Err(format!(
            "'{}': counters differ: {:?} vs {:?}",
            doc.name, a.counters, b.counters
        ));
    }
    for v in &doc.decls.vars {
        let (x, y) = (
            a.mem.plane(v.plane).read_vec(v.base, v.len),
            b.mem.plane(v.plane).read_vec(v.base, v.len),
        );
        if let Some(i) = x.iter().zip(&y).position(|(p, q)| p.to_bits() != q.to_bits()) {
            return Err(format!("'{}': {}[{i}] is {:e} vs {:e}", doc.name, v.name, x[i], y[i]));
        }
    }
    for (c, (ca, cb)) in a.mem.caches.iter().zip(&b.mem.caches).enumerate() {
        for buffer in 0..2u8 {
            for off in 0..ca.buffer_words() as u64 {
                if ca.read(buffer, off).to_bits() != cb.read(buffer, off).to_bits() {
                    return Err(format!(
                        "'{}': cache {c} buffer {buffer}[{off}] differs",
                        doc.name
                    ));
                }
            }
        }
    }
    Ok(())
}

/// Bit-compare a machine result with `Expr::eval_host`.
pub fn compare_host(machine: &[f64], host: &[f64]) -> Result<(), String> {
    if machine.len() != host.len() {
        return Err(format!("{} results vs {} on the host", machine.len(), host.len()));
    }
    match machine.iter().zip(host).position(|(m, h)| m.to_bits() != h.to_bits()) {
        Some(i) => Err(format!("element {i}: machine {:e}, host {:e}", machine[i], host[i])),
        None => Ok(()),
    }
}

/// Run a compiled stream document (`doc` as its compile bound it) on two
/// fresh nodes, through its kernel and through the interpreter, from the
/// same seeded inputs; expression documents must also match the host
/// evaluator.
fn kernel_matches_interpreter(
    session: &Session,
    prog: &CompiledProgram,
    doc: &Document,
    spec: &Spec,
    seed: u64,
) -> Result<(), String> {
    let (mut fast, mut slow) = (session.node(), session.node());
    let mut rng = StdRng::seed_from_u64(seed);
    let mut inputs = BTreeMap::new();
    for v in &doc.decls.vars {
        let data: Vec<f64> = (0..v.len).map(|_| rng.random_range(-1.0..1.0)).collect();
        fast.mem.plane_mut(v.plane).write_slice(v.base, &data);
        slow.mem.plane_mut(v.plane).write_slice(v.base, &data);
        inputs.insert(v.name.clone(), data);
    }
    let opts = RunOptions::default();
    prog.run(&mut fast, &opts).map_err(|e| e.to_string())?;
    slow.run_program(prog.program(), &opts).map_err(|e| e.to_string())?;
    compare_nodes(&fast, &slow, doc)?;
    if let Spec::Expr { tree, len, .. } = spec {
        let y = doc.decls.lookup("y").ok_or("expression document declares no output")?;
        let host = tree.eval_host(*len as usize, &|n| inputs[n].clone());
        compare_host(&fast.mem.plane(y.plane).read_vec(y.base, y.len), &host)
            .map_err(|e| format!("'{}': {e}", doc.name))?;
    }
    Ok(())
}

/// A cached compile (rebind or hit) must hold exactly the microcode a full
/// compile of the same pristine document produces; `reference` compiles
/// with the fast path, and so the cache, off.
fn matches_full_compile(
    reference: &Session,
    prog: &CompiledProgram,
    pristine: &Document,
) -> Result<(), String> {
    let mut doc = pristine.clone();
    let full = reference.compile(&mut doc).map_err(|e| e.to_string())?;
    let (got, want) = (&prog.program().instrs, &full.program().instrs);
    if got.len() != want.len() {
        return Err(format!(
            "'{}': {} compile has {} instructions, a full compile {}",
            doc.name,
            prog.certificate().compile_path.label(),
            got.len(),
            want.len()
        ));
    }
    match got.iter().zip(want).position(|(a, b)| a != b) {
        Some(k) => Err(format!(
            "'{}': {} compile differs from a full compile at instruction {k}",
            doc.name,
            prog.certificate().compile_path.label()
        )),
        None => Ok(()),
    }
}

/// What a compile hands to its check.
pub struct Compiled {
    /// The document as bound by the compile.
    doc: Document,
    cert: Arc<CompileCertificate>,
    /// Real compiles: the program (a first-seen shape becomes the traced
    /// twins' rebind base).
    program: Option<CompiledProgram>,
    /// Traced full compiles: (specialized, instructions) of the kernel.
    kernel: Option<(usize, usize)>,
}

/// The workload state.
pub struct CompileStream {
    seed: u64,
    stream: Vec<Entry>,
    session: Session,
    limits: MachineLimits,
    /// Shape → the first compile of the shape: the base a traced rebind
    /// patches, as the session's own rebind does.
    bases: HashMap<u128, CompiledProgram>,
    /// Next stream position.
    pos: usize,
    /// The document the next operation compiles.
    current: Option<Document>,
    /// The last real compile's path and certificate, for the traced twin.
    last_real: Option<(CompilePath, Arc<CompileCertificate>)>,
    /// The last real compile, when it was the first of its shape.
    new_base: Option<CompiledProgram>,
}

impl CompileStream {
    /// A stream of `len` documents from `seed`.
    pub fn with_len(seed: u64, len: usize) -> CompileStream {
        let session = Session::nsc_1988();
        let limits = machine_limits(session.kb().config());
        CompileStream {
            seed,
            stream: generate(seed, len, session.kb()),
            session,
            limits,
            bases: HashMap::new(),
            pos: 0,
            current: None,
            last_real: None,
            new_base: None,
        }
    }

    fn doc(&mut self) -> Result<Document, String> {
        self.current.take().ok_or_else(|| "no document staged".to_string())
    }
}

fn path_metric(path: CompilePath) -> &'static str {
    match path {
        CompilePath::Full => "core.compile_miss_s",
        CompilePath::Rebind => "core.compile_rebind_s",
        CompilePath::CacheHit => "core.compile_hit_s",
    }
}

impl Workload for CompileStream {
    type Out = Compiled;
    const ITEM: &'static str = "compiles";
    const PREDICTED: &'static [&'static str] = &[
        "diagram.digest",
        "checker.bind",
        "checker.check",
        "codegen.generate",
        "sim.kernel_compile",
        "core.certify",
        "core.rebind",
    ];
    const THREADS: usize = 1;

    fn setup(seed: u64) -> Result<Self, String> {
        let w = CompileStream::with_len(seed, STREAM_LEN);
        // Warm-up: one compile on a throwaway session.
        let mut doc = w.stream[0].doc.clone();
        Session::nsc_1988().compile(&mut doc).map_err(|e| e.to_string())?;
        Ok(w)
    }

    fn items(&self) -> f64 {
        1.0
    }

    fn prepare(&mut self, traced: bool) {
        if traced {
            self.current = Some(self.stream[self.pos - 1].doc.clone());
            return;
        }
        if let Some(base) = self.new_base.take() {
            self.bases.entry(base.shape_digest()).or_insert(base);
        }
        if self.pos == self.stream.len() {
            self.pos = 0;
            self.session = Session::nsc_1988();
            self.bases.clear();
        }
        self.current = Some(self.stream[self.pos].doc.clone());
        self.pos += 1;
    }

    fn op(&mut self) -> Result<Compiled, String> {
        let mut doc = self.doc()?;
        let program = self.session.compile(&mut doc).map_err(|e| e.to_string())?;
        let cert = Arc::clone(program.certificate());
        Ok(Compiled { doc, cert, program: Some(program), kernel: None })
    }

    fn traced_op(&mut self, cx: &Cx) -> Result<Compiled, String> {
        let mut doc = self.doc()?;
        let (path, real_cert) =
            self.last_real.clone().ok_or("traced compile without a real twin")?;
        let session = &self.session;
        let kb = session.kb();
        cx.span("checker.bind", |_| session.auto_bind(&mut doc)).map_err(|e| e.to_string())?;
        let (digest, shape) = cx.span("diagram.digest", |_| (doc.digest(), doc.shape_digest()));
        match path {
            CompilePath::CacheHit => {
                let cert = cx.span("core.certify", |_| {
                    Arc::new(real_cert.with_path(CompilePath::CacheHit, digest_hex(digest)))
                });
                return Ok(Compiled { doc, cert, program: None, kernel: None });
            }
            CompilePath::Rebind => {
                let base = self.bases.get(&shape).ok_or("a rebind without a base compile")?;
                let prog = cx
                    .span("core.rebind", |_| session.rebind(base, &mut doc))
                    .map_err(|e| e.to_string())?;
                let cert = Arc::clone(prog.certificate());
                return Ok(Compiled { doc, cert, program: None, kernel: None });
            }
            CompilePath::Full => {}
        }
        cx.span("checker.check", |_| session.check(&doc)).map_err(|e| e.to_string())?;
        let output = cx
            .span("codegen.generate", |_| generate_prechecked(kb, &doc))
            .map_err(|e| e.to_string())?;
        let kernel =
            cx.span("sim.kernel_compile", |_| CompiledKernel::compile(kb, &output.program));
        let cert = cx.span("core.certify", |_| {
            Arc::new(build_certificate(
                kb.config(),
                digest,
                shape,
                CompilePath::Full,
                &output,
                Some(&kernel),
            ))
        });
        let kernel = Some((kernel.specialized(), kernel.instructions()));
        Ok(Compiled { doc, cert, program: None, kernel })
    }

    fn check(
        &mut self,
        out: Compiled,
        latency: f64,
        cx: Option<&Cx>,
        series: &mut Series,
    ) -> Result<(), String> {
        let obligations = match cx {
            Some(cx) => {
                cx.span("cert.verify", |_| verify_certificate(&out.cert, &out.doc, &self.limits))
            }
            None => verify_certificate(&out.cert, &out.doc, &self.limits),
        }?;
        let path = out.cert.compile_path;
        if let Some(program) = out.program {
            // A real compile.
            series.add(path_metric(path), latency);
            series.add("core.cache_hits", (path == CompilePath::CacheHit) as u8 as f64);
            series.add("core.cache_rebinds", (path == CompilePath::Rebind) as u8 as f64);
            series.add("core.cache_misses", (path == CompilePath::Full) as u8 as f64);
            if path == CompilePath::Full {
                series.add("codegen.instructions", program.program().instrs.len() as f64);
                // The new shape's rebind base joins `bases` once this
                // document's traced twin (a miss too) has run.
                self.new_base = Some(program);
            }
            self.last_real = Some((path, out.cert));
            return Ok(());
        }
        // A traced twin: it must have taken the real compile's path and
        // sealed the same certificate.
        series.add("cert.certs", 1.0);
        series.add("cert.obligations", obligations as f64);
        let (real_path, real_cert) =
            self.last_real.take().ok_or("traced compile without a real twin")?;
        if path != real_path || out.cert.seal != real_cert.seal {
            return Err(format!(
                "'{}': traced compile took the {} path (seal {}), the session the {} path (seal {})",
                out.doc.name,
                path.label(),
                out.cert.seal,
                real_path.label(),
                real_cert.seal
            ));
        }
        if let Some((specialized, instructions)) = out.kernel {
            series.add("sim.kernel_specialized", specialized as f64);
            series.add("sim.kernel_instructions", instructions as f64);
        }
        Ok(())
    }

    /// Document sizes, and a seeded sample of the stream replayed in order
    /// through one session, so the sample takes every cache path: the
    /// first document of each family on each path plus a few drawn at
    /// random run kernel ≡ interpreter (≡ host, for expressions), and every
    /// sampled rebind or hit must hold a full compile's microcode.
    fn finish(&mut self, series: &mut Series) -> Result<(), String> {
        for e in &self.stream {
            series.add(
                "diagram.icons",
                e.doc.pipelines().iter().map(|p| p.icon_count()).sum::<usize>() as f64,
            );
        }
        let mut rng = StdRng::seed_from_u64(self.seed ^ 0x6b65_726e_656c);
        let random: HashSet<usize> =
            (0..SAMPLED).map(|_| rng.random_range(0..self.stream.len())).collect();
        let session = Session::nsc_1988();
        let reference = Session::nsc_1988().with_fast_path(false);
        let mut seen = HashSet::new();
        let mut sampled = [0usize; 3];
        for (i, e) in self.stream.iter().enumerate() {
            let mut doc = e.doc.clone();
            let prog = session.compile(&mut doc).map_err(|e| e.to_string())?;
            let path = prog.certificate().compile_path;
            let first = seen.insert((e.spec.family(), path.label()));
            if !first && !random.contains(&i) {
                continue;
            }
            let k = sampled.iter().sum::<usize>() as u64;
            kernel_matches_interpreter(&session, &prog, &doc, &e.spec, self.seed.wrapping_add(k))?;
            let slot = match path {
                CompilePath::Full => 0,
                CompilePath::Rebind => 1,
                CompilePath::CacheHit => 2,
            };
            if slot > 0 {
                matches_full_compile(&reference, &prog, &e.doc)?;
            }
            sampled[slot] += 1;
        }
        if sampled[1] == 0 || sampled[2] == 0 {
            return Err(format!(
                "the replay sampled {} rebinds and {} hits; the stream must reach both paths",
                sampled[1], sampled[2]
            ));
        }
        series.add("compile.sampled_programs", sampled.iter().sum::<usize>() as f64);
        series.add("compile.sampled_rebinds", sampled[1] as f64);
        series.add("compile.sampled_hits", sampled[2] as f64);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_stream_is_seeded_and_mixes_every_family() {
        let kb = KnowledgeBase::nsc_1988();
        let a = generate(11, 200, &kb);
        let b = generate(11, 200, &kb);
        assert!(a.iter().zip(&b).all(|(x, y)| x.doc == y.doc));
        assert!(generate(12, 200, &kb).iter().zip(&a).any(|(x, y)| x.doc != y.doc));
        for (f, name) in FAMILIES.iter().enumerate() {
            assert!(a.iter().any(|e| e.spec.family() == f), "family {name}");
        }
    }

    /// Real and traced compiles over a short stream: every path occurs,
    /// the twins agree on every certificate, and the mix is near target.
    #[test]
    fn traced_compiles_seal_the_same_certificates_as_the_session() {
        let mut w = CompileStream::with_len(5, 150);
        let tracer = crate::trace::Tracer::new();
        let mut series = Series::default();
        for i in 0..150 {
            w.prepare(false);
            let out = w.op().unwrap();
            w.check(out, 1e-4, None, &mut series).unwrap();
            w.prepare(true);
            let cx = tracer.op(i);
            let out = w.traced_op(&cx).unwrap();
            w.check(out, 1e-4, Some(&cx), &mut series).unwrap();
        }
        let share = |n| series.values(n).iter().sum::<f64>() / 150.0;
        let (hit, rebind, miss) =
            (share("core.cache_hits"), share("core.cache_rebinds"), share("core.cache_misses"));
        assert!((0.5..0.7).contains(&miss), "miss share {miss}");
        assert!(rebind > 0.1 && hit > 0.1, "rebind {rebind} hit {hit}");
        assert_eq!(series.values("cert.obligations").len(), 150);
        w.finish(&mut series).unwrap();
        assert!(series.values("compile.sampled_programs")[0] >= FAMILIES.len() as f64);
        assert!(series.values("compile.sampled_rebinds")[0] >= 1.0);
        assert!(series.values("compile.sampled_hits")[0] >= 1.0);
    }

    /// A rebind that patched a wrong constant still seals a consistent
    /// certificate and runs kernel ≡ interpreter; the full-compile
    /// comparison is what catches it.
    #[test]
    fn a_corrupted_rebound_preload_fails_the_full_compile_comparison() {
        let session = Session::nsc_1988();
        let reference = Session::nsc_1988().with_fast_path(false);
        let limits = machine_limits(session.kb().config());
        let stream = generate(4, 200, session.kb());
        let mut rebound = None;
        for e in &stream {
            let mut doc = e.doc.clone();
            let prog = session.compile(&mut doc).unwrap();
            if prog.certificate().compile_path == CompilePath::Rebind {
                rebound = Some((prog, e));
                break;
            }
        }
        let (prog, entry) = rebound.expect("the stream holds a rebind");
        matches_full_compile(&reference, &prog, &entry.doc).unwrap();
        let mut bad = prog.clone();
        let preload = bad
            .output
            .program
            .instrs
            .iter_mut()
            .flat_map(|i| i.fus.iter_mut())
            .find_map(|f| f.preload.as_mut())
            .expect("a rebind patches at least one preload");
        *preload += 0.5;
        assert!(matches_full_compile(&reference, &bad, &entry.doc).is_err());
        // The certificate alone does not see it.
        let mut doc = entry.doc.clone();
        session.auto_bind(&mut doc).unwrap();
        assert!(verify_certificate(bad.certificate(), &doc, &limits).is_ok());
    }

    /// No operation may fail: every document any of these streams holds
    /// passes bind and check.
    #[test]
    fn every_stream_document_compiles() {
        let session = Session::nsc_1988();
        for seed in 1..=40 {
            for e in generate(seed, 400, session.kb()) {
                let mut doc = e.doc;
                session.compile(&mut doc).unwrap_or_else(|err| panic!("seed {seed}: {err}"));
            }
        }
    }

    #[test]
    fn a_corrupted_certificate_fails_verification() {
        let session = Session::nsc_1988();
        let limits = machine_limits(session.kb().config());
        let stream = generate(3, 4, session.kb());
        let mut doc = stream[0].doc.clone();
        let prog = session.compile(&mut doc).unwrap();
        assert!(verify_certificate(prog.certificate(), &doc, &limits).unwrap() > 0);
        let mut forged = (**prog.certificate()).clone();
        forged.census.active_fus += 1;
        assert!(verify_certificate(&forged, &doc, &limits).is_err());
        // A certificate for another document fails the pinned digest.
        let mut other = stream.iter().find(|e| e.doc != stream[0].doc).unwrap().doc.clone();
        session.auto_bind(&mut other).unwrap();
        assert!(verify_certificate(prog.certificate(), &other, &limits).is_err());
    }

    #[test]
    fn corrupted_machine_state_fails_the_comparisons() {
        let session = Session::nsc_1988();
        let entry = generate(7, 40, session.kb())
            .into_iter()
            .find(|e| matches!(e.spec, Spec::Expr { .. }))
            .unwrap();
        let mut doc = entry.doc.clone();
        let prog = session.compile(&mut doc).unwrap();
        kernel_matches_interpreter(&session, &prog, &doc, &entry.spec, 1).unwrap();
        let mut a = session.node();
        prog.run(&mut a, &RunOptions::default()).unwrap();
        let mut b = a.clone();
        compare_nodes(&a, &b, &doc).unwrap();
        let y = doc.decls.lookup("y").unwrap().clone();
        let word = b.mem.plane(y.plane).read(y.base);
        b.mem.plane_mut(y.plane).write(y.base, f64::from_bits(word.to_bits() ^ 1));
        assert!(compare_nodes(&a, &b, &doc).is_err());
        let mut c = a.clone();
        c.counters.flops += 1;
        assert!(compare_nodes(&a, &c, &doc).is_err());
        let mut d = a.clone();
        d.mem.cache_mut(nsc::arch::CacheId(0)).write(1, 3, 9.5);
        assert!(compare_nodes(&a, &d, &doc).is_err());
        assert!(compare_host(&[1.0, 2.0], &[1.0, 2.0]).is_ok());
        assert!(compare_host(&[1.0, 2.0], &[1.0, f64::from_bits(2.0f64.to_bits() ^ 1)]).is_err());
        assert!(compare_host(&[1.0], &[1.0, 2.0]).is_err());
    }
}
