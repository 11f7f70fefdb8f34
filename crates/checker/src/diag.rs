//! Diagnostics: what the checker tells the editor and the user.
//!
//! Paper §4: "Any errors are flagged as soon as they are detected" — the
//! editor shows these in its message strip, attributed to the icon, wire or
//! unit at fault so the display can highlight it.

pub use nsc_cert::ConstraintKind;
use nsc_diagram::{ConnId, IconId, PipelineId};
use std::fmt;

/// How serious a finding is.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Severity {
    /// Advisory; code generation may proceed.
    Warning,
    /// Violation of a machine rule; code generation is refused.
    Error,
}

/// What a diagnostic is about, for display highlighting.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Subject {
    /// A specific icon.
    Icon(IconId),
    /// A specific wire.
    Connection(ConnId),
    /// A functional unit within an ALS icon.
    Unit(IconId, u8),
    /// A whole pipeline.
    Pipeline(PipelineId),
    /// The document (control flow, declarations).
    Document,
}

impl fmt::Display for Subject {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Subject::Icon(i) => write!(f, "{i}"),
            Subject::Connection(c) => write!(f, "{c}"),
            Subject::Unit(i, p) => write!(f, "{i}.u{p}"),
            Subject::Pipeline(p) => write!(f, "{p}"),
            Subject::Document => write!(f, "document"),
        }
    }
}

/// One finding.
#[derive(Debug, Clone, PartialEq)]
pub struct Diagnostic {
    /// The rule that fired: one of the taxonomy's checker rules, whose
    /// stable id (`C001`–`C030`) the message strip and tests show.
    pub rule: ConstraintKind,
    /// Error or warning.
    pub severity: Severity,
    /// Human-readable explanation for the message strip.
    pub message: String,
    /// What it is about.
    pub subject: Subject,
}

impl Diagnostic {
    /// An error finding.
    pub fn error(rule: ConstraintKind, subject: Subject, message: impl Into<String>) -> Self {
        Diagnostic { rule, severity: Severity::Error, message: message.into(), subject }
    }

    /// A warning finding.
    pub fn warning(rule: ConstraintKind, subject: Subject, message: impl Into<String>) -> Self {
        Diagnostic { rule, severity: Severity::Warning, message: message.into(), subject }
    }
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let sev = match self.severity {
            Severity::Error => "error",
            Severity::Warning => "warning",
        };
        write!(f, "{sev}[{}] {}: {}", self.rule.id(), self.subject, self.message)
    }
}

/// Convenience: does a finding list contain any errors?
pub fn has_errors(diags: &[Diagnostic]) -> bool {
    diags.iter().any(|d| d.severity == Severity::Error)
}

/// Convenience: only the errors.
pub fn errors(diags: &[Diagnostic]) -> impl Iterator<Item = &Diagnostic> {
    diags.iter().filter(|d| d.severity == Severity::Error)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn codes_are_unique_and_stable() {
        let rules: Vec<_> = ConstraintKind::ALL.iter().filter(|k| k.is_checker_rule()).collect();
        assert_eq!(rules.len(), 30, "C001..C030");
        let ids: std::collections::HashSet<_> = rules.iter().map(|r| r.id()).collect();
        assert_eq!(ids.len(), rules.len());
        assert_eq!(ConstraintKind::SinkDrivenTwice.id(), "C005");
        assert!(rules.iter().all(|r| !r.describe().is_empty()));
    }

    #[test]
    fn display_format() {
        let d = Diagnostic::error(
            ConstraintKind::PlaneContention,
            Subject::Icon(IconId(3)),
            "plane MP2 write port already driven",
        );
        let s = d.to_string();
        assert!(s.contains("error[C007]"));
        assert!(s.contains("icon3"));
        assert!(s.contains("MP2"));
    }

    #[test]
    fn error_detection_helpers() {
        let diags = vec![
            Diagnostic::warning(ConstraintKind::UnusedIcon, Subject::Icon(IconId(0)), "unused"),
            Diagnostic::error(
                ConstraintKind::NoStore,
                Subject::Pipeline(PipelineId(0)),
                "no store",
            ),
        ];
        assert!(has_errors(&diags));
        assert_eq!(errors(&diags).count(), 1);
        assert!(!has_errors(&diags[..1]));
    }
}
