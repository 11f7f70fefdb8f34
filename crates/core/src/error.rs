//! The one error type of the compile-and-run pipeline.
//!
//! Every stage of the Figure 3 loop — diagram construction, auto-binding,
//! the whole-document check, microcode generation, and execution on the
//! simulated machine — reports through [`NscError`], so callers chain the
//! stages with `?` and inspect failures through one `match`. Each variant
//! wraps the producing crate's own error type and exposes it through
//! [`std::error::Error::source`], so generic error reporters can walk the
//! chain down to the original diagnostic.
//!
//! The `From` conversions for every producing crate's error type live here
//! rather than in the producing crates: `nsc-diagram`, `nsc-checker`,
//! `nsc-codegen` and `nsc-sim` all sit *below* `nsc-core` in the
//! dependency graph, so the orphan rule places the impls with `NscError`
//! itself.

use nsc_arch::NodeId;
use nsc_checker::Diagnostic;
use nsc_codegen::GenError;
use nsc_diagram::DiagramError;
use nsc_sim::ExecError;
use std::error::Error;
use std::fmt;

/// A batch of checker diagnostics packaged as an error source.
///
/// `Vec<Diagnostic>` cannot itself implement [`std::error::Error`], so the
/// [`NscError::BindFailed`] and [`NscError::CheckFailed`] variants wrap
/// this newtype, which renders every finding and participates in the
/// `source()` chain.
#[derive(Debug, Clone, PartialEq)]
pub struct DiagnosticSet(Vec<Diagnostic>);

impl DiagnosticSet {
    /// Package a batch of diagnostics.
    pub fn new(diags: Vec<Diagnostic>) -> Self {
        DiagnosticSet(diags)
    }

    /// The findings.
    pub fn diagnostics(&self) -> &[Diagnostic] {
        &self.0
    }

    /// Number of findings.
    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// Whether the set is empty.
    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }
}

impl fmt::Display for DiagnosticSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} finding(s)", self.0.len())?;
        for d in &self.0 {
            write!(f, "\n  {d}")?;
        }
        Ok(())
    }
}

impl Error for DiagnosticSet {}

/// Everything that can go wrong between an edited document and a completed
/// run on the simulated machine.
#[derive(Debug, Clone, PartialEq)]
pub enum NscError {
    /// A structural diagram mutation was rejected (`nsc-diagram`).
    Diagram(DiagramError),
    /// Auto-binding could not place every icon on a physical resource.
    BindFailed(DiagnosticSet),
    /// The whole-document global check found rule violations.
    CheckFailed(DiagnosticSet),
    /// The microcode generator refused the document (`nsc-codegen`).
    Gen(GenError),
    /// The simulator reported an execution failure (`nsc-sim`).
    Exec(ExecError),
    /// The instruction-budget guard tripped: the program is a runaway (or
    /// the caller's [`nsc_sim::RunOptions::max_instructions`] is too small
    /// for it).
    MaxInstructions {
        /// Instructions executed before the guard tripped.
        executed: u64,
        /// The configured budget.
        limit: u64,
    },
    /// A failure attributed to one node of a distributed run (the lowest
    /// failing lane of a [`crate::run_lanes`] call, or the part whose
    /// document failed to compile); the underlying error is the `source()`.
    NodeFailed {
        /// The hypercube node that failed.
        node: NodeId,
        /// What went wrong on it.
        source: Box<NscError>,
    },
    /// A lane handed to [`crate::run_lanes`] named a node that is out of
    /// range or already taken by an earlier lane; nothing ran.
    BadLane {
        /// Index of the offending lane.
        lane: usize,
        /// The node it named.
        node: usize,
    },
    /// A workload's own preconditions failed (mismatched grids, bad
    /// parameters) before any document was built.
    Workload(String),
    /// A rebind was asked to bind a document onto a compiled program of a
    /// different shape — the documents differ structurally, not just in
    /// their constants.
    ShapeMismatch {
        /// The compiled program's shape digest.
        expected: u128,
        /// The offered document's shape digest.
        got: u128,
    },
}

impl NscError {
    /// Wrap an error as a per-node distributed-run failure.
    pub fn on_node(node: NodeId, source: NscError) -> Self {
        NscError::NodeFailed { node, source: Box::new(source) }
    }

    /// Auto-bind diagnostics as an error.
    pub fn bind_failed(diags: Vec<Diagnostic>) -> Self {
        NscError::BindFailed(DiagnosticSet::new(diags))
    }

    /// Global-check diagnostics as an error.
    pub fn check_failed(diags: Vec<Diagnostic>) -> Self {
        NscError::CheckFailed(DiagnosticSet::new(diags))
    }
}

impl fmt::Display for NscError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NscError::Diagram(e) => write!(f, "diagram edit rejected: {e}"),
            NscError::BindFailed(d) => write!(f, "auto-bind failed: {d}"),
            NscError::CheckFailed(d) => write!(f, "global check failed: {d}"),
            NscError::Gen(e) => write!(f, "microcode generation failed: {e}"),
            NscError::Exec(e) => write!(f, "execution failed: {e}"),
            NscError::MaxInstructions { executed, limit } => {
                write!(f, "instruction budget exhausted: {executed} executed (limit {limit})")
            }
            NscError::NodeFailed { node, source } => write!(f, "node {node}: {source}"),
            NscError::BadLane { lane, node } => {
                write!(f, "lane {lane} names node {node}, which is out of range or repeated")
            }
            NscError::Workload(msg) => write!(f, "workload rejected: {msg}"),
            NscError::ShapeMismatch { expected, got } => write!(
                f,
                "rebind refused: document shape {got:032x} does not match \
                 the compiled program's shape {expected:032x}"
            ),
        }
    }
}

impl Error for NscError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            NscError::Diagram(e) => Some(e),
            NscError::BindFailed(d) | NscError::CheckFailed(d) => Some(d),
            NscError::Gen(e) => Some(e),
            NscError::Exec(e) => Some(e),
            NscError::NodeFailed { source, .. } => Some(source.as_ref()),
            NscError::MaxInstructions { .. }
            | NscError::BadLane { .. }
            | NscError::Workload(_)
            | NscError::ShapeMismatch { .. } => None,
        }
    }
}

impl From<DiagramError> for NscError {
    fn from(e: DiagramError) -> Self {
        NscError::Diagram(e)
    }
}

impl From<GenError> for NscError {
    fn from(e: GenError) -> Self {
        NscError::Gen(e)
    }
}

impl From<ExecError> for NscError {
    fn from(e: ExecError) -> Self {
        NscError::Exec(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nsc_checker::{ConstraintKind, Subject};
    use nsc_diagram::IconId;

    #[test]
    fn sources_chain_to_the_producing_crates_error() {
        let e: NscError = GenError::EmptyProgram.into();
        let src = e.source().expect("gen errors chain");
        assert!(src.downcast_ref::<GenError>().is_some());

        let e: NscError = DiagramError::NoSuchIcon(IconId(3)).into();
        assert!(e.source().unwrap().downcast_ref::<DiagramError>().is_some());

        let e: NscError = ExecError::BadProgram("x".into()).into();
        assert!(e.source().unwrap().downcast_ref::<ExecError>().is_some());

        let diag = Diagnostic::error(ConstraintKind::UnboundIcon, Subject::Document, "unbound");
        let e = NscError::bind_failed(vec![diag]);
        let set = e.source().unwrap().downcast_ref::<DiagnosticSet>().expect("diagnostic set");
        assert_eq!(set.len(), 1);

        assert!(NscError::MaxInstructions { executed: 7, limit: 7 }.source().is_none());
    }

    #[test]
    fn node_failures_chain_to_the_executor_error() {
        let e = NscError::on_node(NodeId(5), ExecError::BadProgram("x".into()).into());
        assert!(e.to_string().contains("node N5"), "{e}");
        let level1 = e.source().unwrap().downcast_ref::<NscError>().unwrap();
        assert!(matches!(level1, NscError::Exec(_)));
        assert!(level1.source().unwrap().downcast_ref::<ExecError>().is_some());
    }

    #[test]
    fn display_carries_each_finding() {
        let diags = vec![
            Diagnostic::error(ConstraintKind::UnboundIcon, Subject::Document, "icon A unbound"),
            Diagnostic::error(ConstraintKind::UnboundIcon, Subject::Document, "icon B unbound"),
        ];
        let msg = NscError::check_failed(diags).to_string();
        assert!(msg.contains("2 finding(s)"));
        assert!(msg.contains("icon A unbound") && msg.contains("icon B unbound"));
    }
}
