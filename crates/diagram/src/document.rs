//! The saved document: pipelines, layouts, declarations, control flow.
//!
//! A document is the unit the editor's SAVE button writes ("the usual
//! operations found in an editor, such as the ability to enter new input,
//! modify or delete existing data, and save the results", §4) and the unit
//! the microcode generator consumes. Pipeline-list operations mirror §5:
//! "Control panel operations provide the usual editor operations to insert,
//! delete, copy, and renumber pipelines, as well as to scroll forward or
//! backward or jump to a specific pipeline."
//!
//! The left-hand region of the Figure 5 window was "reserved for control
//! flow specifications and variable declarations, which are not implemented
//! in the prototype" — [`Declarations`] and [`ControlNode`] implement them.

use crate::ids::{IconId, PipelineId, Point};
use crate::pipeline::PipelineDiagram;
use nsc_arch::{CacheId, PlaneId};
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// Display-only data for one pipeline: icon positions on the drawing
/// surface. Kept apart from semantics exactly as §4 prescribes.
#[derive(Debug, Clone, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct DiagramLayout {
    /// Top-left position of each icon, in character cells.
    pub positions: BTreeMap<IconId, Point>,
}

impl DiagramLayout {
    /// Position of an icon, if placed.
    pub fn position(&self, icon: IconId) -> Option<Point> {
        self.positions.get(&icon).copied()
    }

    /// Place or move an icon.
    pub fn place(&mut self, icon: IconId, at: Point) {
        self.positions.insert(icon, at);
    }
}

/// A declared variable: a named array bound to a memory plane.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct VarDecl {
    /// Source-level name ("u", "f", "mask", ...).
    pub name: String,
    /// The plane holding it (§3: allocation to planes is the hard part).
    pub plane: PlaneId,
    /// Base word address within the plane.
    pub base: u64,
    /// Extent in words.
    pub len: u64,
}

/// The document's variable declarations.
#[derive(Debug, Clone, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct Declarations {
    /// All declared variables, in declaration order.
    pub vars: Vec<VarDecl>,
}

impl Declarations {
    /// Declare a variable; replaces any previous declaration of the name.
    pub fn declare(&mut self, decl: VarDecl) {
        self.vars.retain(|v| v.name != decl.name);
        self.vars.push(decl);
    }

    /// Resolve a name.
    pub fn lookup(&self, name: &str) -> Option<&VarDecl> {
        self.vars.iter().find(|v| v.name == name)
    }
}

/// A convergence condition on a cache scalar (the residual check).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ConvergenceCond {
    /// Cache holding the scalar.
    pub cache: CacheId,
    /// Word offset within the cache.
    pub offset: u16,
    /// Converged when `scalar < threshold`.
    pub threshold: f64,
    /// Iteration safety cap: stop (unconverged) after this many passes.
    pub max_iters: u32,
}

/// High-level control flow over pipeline instructions.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum ControlNode {
    /// Execute one pipeline diagram (one instruction).
    Pipeline(PipelineId),
    /// Execute children in order.
    Seq(Vec<ControlNode>),
    /// Execute the body a fixed number of times.
    Repeat {
        /// Trip count.
        times: u32,
        /// Loop body.
        body: Box<ControlNode>,
    },
    /// Execute the body until the condition's scalar drops below its
    /// threshold (the Jacobi residual convergence check).
    RepeatUntil {
        /// Convergence condition, tested after each pass.
        cond: ConvergenceCond,
        /// Loop body.
        body: Box<ControlNode>,
    },
}

impl ControlNode {
    /// Every pipeline referenced, in first-appearance order.
    pub fn referenced_pipelines(&self) -> Vec<PipelineId> {
        let mut out = Vec::new();
        self.visit(&mut |id| {
            if !out.contains(&id) {
                out.push(id);
            }
        });
        out
    }

    fn visit(&self, f: &mut impl FnMut(PipelineId)) {
        match self {
            ControlNode::Pipeline(id) => f(*id),
            ControlNode::Seq(children) => children.iter().for_each(|c| c.visit(f)),
            ControlNode::Repeat { body, .. } | ControlNode::RepeatUntil { body, .. } => {
                body.visit(f)
            }
        }
    }
}

/// The complete saved document.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Document {
    /// Document title (program name).
    pub name: String,
    /// Pipelines in program order (the ordinal the RENUM operation edits).
    pipelines: Vec<PipelineDiagram>,
    /// Display layouts, one per pipeline.
    layouts: BTreeMap<PipelineId, DiagramLayout>,
    /// Variable declarations (left window region).
    pub decls: Declarations,
    /// Control-flow specification; `None` means "run pipelines in order,
    /// once".
    pub control: Option<ControlNode>,
    next_pipeline: u32,
}

impl Document {
    /// An empty document.
    pub fn new(name: impl Into<String>) -> Self {
        Document {
            name: name.into(),
            pipelines: Vec::new(),
            layouts: BTreeMap::new(),
            decls: Declarations::default(),
            control: None,
            next_pipeline: 0,
        }
    }

    fn fresh_id(&mut self) -> PipelineId {
        let id = PipelineId(self.next_pipeline);
        self.next_pipeline += 1;
        id
    }

    /// Append a new empty pipeline, returning its id.
    pub fn add_pipeline(&mut self, name: impl Into<String>) -> PipelineId {
        let id = self.fresh_id();
        self.pipelines.push(PipelineDiagram::new(id, name));
        self.layouts.insert(id, DiagramLayout::default());
        id
    }

    /// Insert a new empty pipeline at ordinal `at` (clamped to the end).
    pub fn insert_pipeline(&mut self, at: usize, name: impl Into<String>) -> PipelineId {
        let id = self.fresh_id();
        let at = at.min(self.pipelines.len());
        self.pipelines.insert(at, PipelineDiagram::new(id, name));
        self.layouts.insert(id, DiagramLayout::default());
        id
    }

    /// Deep-copy a pipeline (the COPY control-panel operation); the copy is
    /// appended and gets a fresh id.
    pub fn copy_pipeline(&mut self, src: PipelineId) -> Option<PipelineId> {
        let idx = self.ordinal_of(src)?;
        let mut copy = self.pipelines[idx].clone();
        let id = self.fresh_id();
        copy.id = id;
        copy.name = format!("{} (copy)", copy.name);
        let layout = self.layouts.get(&src).cloned().unwrap_or_default();
        self.pipelines.push(copy);
        self.layouts.insert(id, layout);
        Some(id)
    }

    /// Delete a pipeline.
    pub fn delete_pipeline(&mut self, id: PipelineId) -> Option<PipelineDiagram> {
        let idx = self.ordinal_of(id)?;
        self.layouts.remove(&id);
        Some(self.pipelines.remove(idx))
    }

    /// Move the pipeline at ordinal `from` to ordinal `to` (RENUM).
    pub fn renumber(&mut self, from: usize, to: usize) -> bool {
        if from >= self.pipelines.len() || to >= self.pipelines.len() {
            return false;
        }
        let p = self.pipelines.remove(from);
        self.pipelines.insert(to, p);
        true
    }

    /// Pipelines in program order.
    pub fn pipelines(&self) -> &[PipelineDiagram] {
        &self.pipelines
    }

    /// Number of pipelines.
    pub fn pipeline_count(&self) -> usize {
        self.pipelines.len()
    }

    /// A pipeline by id.
    pub fn pipeline(&self, id: PipelineId) -> Option<&PipelineDiagram> {
        self.pipelines.iter().find(|p| p.id == id)
    }

    /// Mutable pipeline by id.
    pub fn pipeline_mut(&mut self, id: PipelineId) -> Option<&mut PipelineDiagram> {
        self.pipelines.iter_mut().find(|p| p.id == id)
    }

    /// Program-order position of a pipeline.
    pub fn ordinal_of(&self, id: PipelineId) -> Option<usize> {
        self.pipelines.iter().position(|p| p.id == id)
    }

    /// Pipeline at a program-order position.
    pub fn by_ordinal(&self, ordinal: usize) -> Option<&PipelineDiagram> {
        self.pipelines.get(ordinal)
    }

    /// Display layout of a pipeline.
    pub fn layout(&self, id: PipelineId) -> Option<&DiagramLayout> {
        self.layouts.get(&id)
    }

    /// Mutable display layout of a pipeline.
    pub fn layout_mut(&mut self, id: PipelineId) -> Option<&mut DiagramLayout> {
        self.layouts.get_mut(&id)
    }

    /// Serialize the whole document (display data included) to JSON.
    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(self).expect("document serializes")
    }

    /// Load a document from JSON.
    pub fn from_json(s: &str) -> Result<Self, serde_json::Error> {
        serde_json::from_str(s)
    }

    /// Serialize *only the semantic information* — what the microcode
    /// generator needs (§4's distinction). Display layouts are stripped.
    pub fn semantic_json(&self) -> String {
        let mut stripped = self.clone();
        stripped.layouts.clear();
        serde_json::to_string_pretty(&stripped).expect("document serializes")
    }

    /// A 128-bit content digest of the document's *semantic* information —
    /// the same data [`Document::semantic_json`] keeps, so display-only
    /// edits (moving icons around) do not change the digest. Used as the
    /// kernel-cache key: equal digests mean the documents compile to the
    /// same program.
    ///
    /// FNV-1a (128-bit) over the serializer's event stream, hashed as the
    /// events arrive, with no value tree built. Every event is tagged so
    /// differently-shaped documents cannot collide by byte coincidence.
    /// The byte encoding is the tagged, length-prefixed one a walk of the
    /// serialized [`serde::Value`] tree would produce; cache keys depend
    /// on it, so the workspace's `digest_stability` test pins it.
    pub fn digest(&self) -> u128 {
        let mut stripped = self.clone();
        stripped.layouts.clear();
        semantic_digest(&stripped)
    }

    /// A 128-bit digest of the document's *shape*: everything
    /// [`Document::digest`] covers except the register-file values
    /// (functional-unit constants and feedback seeds), which are replaced
    /// by a canonical `0.0` before hashing.
    ///
    /// Two documents with equal shape digests compile to microcode that
    /// differs only in functional-unit preload values, so a compiled
    /// program for one can be *rebound* to the other's constants without
    /// recompiling — the fast path a parameter sweep lives on. Control
    /// structure is deliberately part of the shape: trip counts and
    /// convergence thresholds lower into loop sequencing, so changing them
    /// changes the shape, not just the constants.
    pub fn shape_digest(&self) -> u128 {
        let mut stripped = self.clone();
        stripped.layouts.clear();
        for p in &mut stripped.pipelines {
            p.mask_preload_values();
        }
        semantic_digest(&stripped)
    }
}

/// FNV-1a over an already-stripped document's event stream.
fn semantic_digest(stripped: &Document) -> u128 {
    let mut sink = DigestSink(0x6c62272e07bb014262b821756295c58d);
    stripped.serialize_into(&mut sink);
    sink.0
}

/// The digest's byte encoding, hashed as the events arrive: one tag byte
/// per value (0 null, 1 bool, 2 int, 3 uint, 4 float, 5 string, 6 array,
/// 7 object), little-endian scalars and float bits, `u64` length
/// prefixes on strings and containers. Object keys are length-prefixed
/// but untagged.
struct DigestSink(u128);

impl DigestSink {
    fn bytes(&mut self, bytes: &[u8]) {
        const PRIME: u128 = 0x0000000001000000000000000000013B;
        for &b in bytes {
            self.0 ^= b as u128;
            self.0 = self.0.wrapping_mul(PRIME);
        }
    }

    fn len(&mut self, len: usize) {
        self.bytes(&(len as u64).to_le_bytes());
    }
}

impl serde::Sink for DigestSink {
    fn null(&mut self) {
        self.bytes(&[0]);
    }
    fn bool(&mut self, v: bool) {
        self.bytes(&[1, v as u8]);
    }
    fn int(&mut self, v: i64) {
        self.bytes(&[2]);
        self.bytes(&v.to_le_bytes());
    }
    fn uint(&mut self, v: u64) {
        self.bytes(&[3]);
        self.bytes(&v.to_le_bytes());
    }
    fn float(&mut self, v: f64) {
        self.bytes(&[4]);
        self.bytes(&v.to_bits().to_le_bytes());
    }
    fn str(&mut self, v: &str) {
        self.bytes(&[5]);
        self.len(v.len());
        self.bytes(v.as_bytes());
    }
    fn array(&mut self, len: usize) {
        self.bytes(&[6]);
        self.len(len);
    }
    fn object(&mut self, len: usize) {
        self.bytes(&[7]);
        self.len(len);
    }
    fn key(&mut self, k: &str) {
        self.len(k.len());
        self.bytes(k.as_bytes());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::icon::IconKind;

    #[test]
    fn pipeline_list_operations() {
        let mut doc = Document::new("prog");
        let a = doc.add_pipeline("first");
        let b = doc.add_pipeline("second");
        let c = doc.insert_pipeline(1, "between");
        assert_eq!(doc.pipeline_count(), 3);
        assert_eq!(doc.ordinal_of(a), Some(0));
        assert_eq!(doc.ordinal_of(c), Some(1));
        assert_eq!(doc.ordinal_of(b), Some(2));
        assert!(doc.renumber(2, 0));
        assert_eq!(doc.ordinal_of(b), Some(0));
        let removed = doc.delete_pipeline(c).unwrap();
        assert_eq!(removed.name, "between");
        assert_eq!(doc.pipeline_count(), 2);
        assert!(!doc.renumber(5, 0), "out-of-range renumber refused");
    }

    #[test]
    fn digest_ignores_layout_but_tracks_semantics() {
        let mut doc = Document::new("prog");
        let p = doc.add_pipeline("sweep");
        let icon = doc.pipeline_mut(p).unwrap().add_icon(IconKind::memory());
        let d0 = doc.digest();
        assert_eq!(doc.digest(), d0, "digest is deterministic");

        doc.layout_mut(p).unwrap().place(icon, Point::new(40, 12));
        assert_eq!(doc.digest(), d0, "display-only edits keep the digest");

        doc.pipeline_mut(p).unwrap().add_icon(IconKind::memory());
        assert_ne!(doc.digest(), d0, "semantic edits change the digest");
    }

    #[test]
    fn shape_digest_masks_swept_values_but_tracks_structure() {
        use crate::attrs::FuAssign;
        use nsc_arch::{AlsKind, FuOp};
        let build = |omega: f64, seed: f64| {
            let mut doc = Document::new("sweep");
            let p = doc.add_pipeline("sor");
            let pd = doc.pipeline_mut(p).unwrap();
            let scale = pd.add_icon(IconKind::als(AlsKind::Singlet));
            pd.assign_fu(scale, 0, FuAssign::with_const(FuOp::Mul, omega)).unwrap();
            let reduce = pd.add_icon(IconKind::als(AlsKind::Singlet));
            pd.assign_fu(reduce, 0, FuAssign::reduction(FuOp::MaxAbs, seed)).unwrap();
            doc
        };
        let a = build(0.8, 0.0);
        let b = build(1.6, 3.5);
        assert_ne!(a.digest(), b.digest(), "constants and seeds are semantic");
        assert_eq!(a.shape_digest(), b.shape_digest(), "...but not shape");
        assert_eq!(a.shape_digest(), a.shape_digest(), "shape digest is deterministic");

        // Structural edits (and names, thresholds, stream lengths — anything
        // beyond register-file values) still change the shape.
        let mut c = build(0.8, 0.0);
        let p = c.pipelines()[0].id;
        c.pipeline_mut(p).unwrap().add_icon(IconKind::memory());
        assert_ne!(a.shape_digest(), c.shape_digest(), "structure is shape");
        let mut d = build(0.8, 0.0);
        d.name = "other".into();
        assert_ne!(a.shape_digest(), d.shape_digest(), "the name is shape");
    }

    #[test]
    fn digests_of_distinct_documents_differ() {
        let mut a = Document::new("a");
        a.add_pipeline("one");
        let mut b = a.clone();
        b.name = "b".into();
        assert_ne!(a.digest(), b.digest());
        let mut c = a.clone();
        c.add_pipeline("two");
        assert_ne!(a.digest(), c.digest());
    }

    #[test]
    fn copy_pipeline_is_a_deep_copy_with_fresh_id() {
        let mut doc = Document::new("prog");
        let a = doc.add_pipeline("jacobi");
        let icon = doc.pipeline_mut(a).unwrap().add_icon(IconKind::memory());
        doc.layout_mut(a).unwrap().place(icon, Point::new(5, 5));
        let b = doc.copy_pipeline(a).unwrap();
        assert_ne!(a, b);
        assert_eq!(doc.pipeline(b).unwrap().icon_count(), 1);
        assert!(doc.pipeline(b).unwrap().name.contains("copy"));
        assert_eq!(doc.layout(b).unwrap().position(icon), Some(Point::new(5, 5)));
        // Mutating the copy leaves the original alone.
        doc.pipeline_mut(b).unwrap().add_icon(IconKind::cache());
        assert_eq!(doc.pipeline(a).unwrap().icon_count(), 1);
        assert_eq!(doc.pipeline(b).unwrap().icon_count(), 2);
    }

    #[test]
    fn declarations_replace_by_name() {
        let mut decls = Declarations::default();
        decls.declare(VarDecl { name: "u".into(), plane: PlaneId(0), base: 0, len: 4096 });
        decls.declare(VarDecl { name: "u".into(), plane: PlaneId(3), base: 128, len: 4096 });
        assert_eq!(decls.vars.len(), 1);
        assert_eq!(decls.lookup("u").unwrap().plane, PlaneId(3));
        assert!(decls.lookup("v").is_none());
    }

    #[test]
    fn control_flow_collects_referenced_pipelines() {
        let body = ControlNode::Seq(vec![
            ControlNode::Pipeline(PipelineId(0)),
            ControlNode::Pipeline(PipelineId(1)),
            ControlNode::Pipeline(PipelineId(0)),
        ]);
        let tree = ControlNode::RepeatUntil {
            cond: ConvergenceCond {
                cache: CacheId(0),
                offset: 0,
                threshold: 1e-6,
                max_iters: 10_000,
            },
            body: Box::new(body),
        };
        assert_eq!(tree.referenced_pipelines(), vec![PipelineId(0), PipelineId(1)]);
    }

    #[test]
    fn json_round_trip() {
        let mut doc = Document::new("jacobi3d");
        let p = doc.add_pipeline("sweep");
        let icon = doc.pipeline_mut(p).unwrap().add_icon(IconKind::memory());
        doc.layout_mut(p).unwrap().place(icon, Point::new(10, 3));
        doc.decls.declare(VarDecl { name: "u".into(), plane: PlaneId(0), base: 0, len: 512 });
        doc.control = Some(ControlNode::Pipeline(p));
        let back = Document::from_json(&doc.to_json()).unwrap();
        assert_eq!(back, doc);
    }

    #[test]
    fn semantic_json_strips_display_data() {
        let mut doc = Document::new("prog");
        let p = doc.add_pipeline("sweep");
        let icon = doc.pipeline_mut(p).unwrap().add_icon(IconKind::memory());
        doc.layout_mut(p).unwrap().place(icon, Point::new(42, 17));
        let full = doc.to_json();
        let semantic = doc.semantic_json();
        assert!(full.contains("42"), "layout present in full save");
        assert!(!semantic.contains("\"x\": 42"), "layout stripped from semantic output");
        // Semantic output still loads (layouts default empty).
        let back = Document::from_json(&semantic).unwrap();
        assert_eq!(back.pipeline(p).unwrap().icon_count(), 1);
        assert!(back.layout(p).is_none());
    }
}
