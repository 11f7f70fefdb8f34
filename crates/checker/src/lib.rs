//! # nsc-checker — the knowledge-base rule engine
//!
//! Paper §4: "the checker also knows all of the rules about conflicts,
//! constraints, asymmetries and other restrictions in the NSC architecture.
//! The graphical editor calls on the checker at appropriate points during
//! interaction with the user to validate the information being input. Any
//! errors are flagged as soon as they are detected. In addition, the
//! graphical editor uses the checker's knowledge of the architecture to
//! reduce the possibilities for making errors. For example, if the user has
//! routed the output from one function unit to a particular memory plane,
//! the graphical editor will not let him send the output of a second unit
//! to the same plane."
//!
//! The checker runs at two stages, matching the paper:
//!
//! * [`Stage::Incremental`] — during editing; structural gaps (an input not
//!   yet wired) are warnings so half-built diagrams stay workable;
//! * [`Stage::Global`] — "invoked again at this point \[code generation\]
//!   to perform a thorough check of global constraints"; gaps become
//!   errors, and whole-program rules (cycles, dead stores, control-flow
//!   references) run.
//!
//! [`Checker::legal_targets`] powers the editor's Figure 8 behaviour: the
//! pop-up of connection choices contains only machine-legal destinations.

pub mod binder;
pub mod diag;
pub mod legal;
pub mod rules;

pub use self::binder::auto_bind;
pub use self::diag::{ConstraintKind, Diagnostic, Severity, Subject};

use nsc_arch::KnowledgeBase;
use nsc_diagram::{Document, PadLoc, PipelineDiagram};

/// Which checking pass is running.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Stage {
    /// During editing: incomplete work is tolerated (warnings).
    Incremental,
    /// Before code generation: everything must be complete and consistent.
    Global,
}

/// The checker: a knowledge base plus the rule set.
#[derive(Debug, Clone)]
pub struct Checker {
    kb: KnowledgeBase,
}

impl Checker {
    /// A checker for the given machine.
    pub fn new(kb: KnowledgeBase) -> Self {
        Checker { kb }
    }

    /// A checker for the 1988 machine.
    pub fn nsc_1988() -> Self {
        Self::new(KnowledgeBase::nsc_1988())
    }

    /// The knowledge base consulted by the rules.
    pub fn kb(&self) -> &KnowledgeBase {
        &self.kb
    }

    /// Check one pipeline diagram.
    pub fn check_pipeline(&self, diagram: &PipelineDiagram, stage: Stage) -> Vec<Diagnostic> {
        rules::check_pipeline(&self.kb, diagram, stage)
    }

    /// Check a whole document (per-pipeline global checks plus
    /// document-level rules).
    pub fn check_document(&self, doc: &Document) -> Vec<Diagnostic> {
        rules::check_document(&self.kb, doc)
    }

    /// All pads in the diagram that may legally receive a wire from
    /// `from` — the contents of the Figure 8 connection menu.
    pub fn legal_targets(&self, diagram: &PipelineDiagram, from: PadLoc) -> Vec<PadLoc> {
        legal::legal_targets(&self.kb, diagram, from)
    }

    /// Diagnostics a proposed wire would introduce; empty = legal.
    pub fn validate_connection(
        &self,
        diagram: &PipelineDiagram,
        from: PadLoc,
        to: PadLoc,
    ) -> Vec<Diagnostic> {
        legal::validate_connection(&self.kb, diagram, from, to)
    }

    /// Bind every unbound icon in the diagram to a free physical resource.
    pub fn auto_bind(
        &self,
        diagram: &mut PipelineDiagram,
        decls: &nsc_diagram::Declarations,
    ) -> Vec<Diagnostic> {
        binder::auto_bind(&self.kb, diagram, decls)
    }
}
