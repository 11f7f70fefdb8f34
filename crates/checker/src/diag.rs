//! Diagnostics: what the checker tells the editor and the user.
//!
//! Paper §4: "Any errors are flagged as soon as they are detected" — the
//! editor shows these in its message strip, attributed to the icon, wire or
//! unit at fault so the display can highlight it.

use nsc_cert::ConstraintKind;
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

/// The rule that fired. Codes are stable identifiers used in tests and in
/// the editor's message strip.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[allow(missing_docs)] // each variant is documented by its message text
pub enum RuleCode {
    /// C001: icon not yet bound to a physical resource.
    UnboundIcon,
    /// C002: two icons bound to the same physical resource.
    DuplicateBinding,
    /// C003: bound resource does not exist on this machine.
    NoSuchResource,
    /// C004: more ALS icons of a kind than the machine has.
    AlsOvercommit,
    /// C005: two wires drive the same sink pad.
    SinkDrivenTwice,
    /// C006: a source pad drives more sinks than the switch fan-out allows.
    FanoutExceeded,
    /// C007: a memory plane's port used by conflicting streams (the paper's
    /// "will not let him send the output of a second unit to the same
    /// plane").
    PlaneContention,
    /// C008: one functional unit touching more than one memory plane.
    FuMultiPlane,
    /// C009: operation not supported by the unit's capabilities.
    CapabilityViolation,
    /// C010: wires on a unit's pads disagree with its operation's operands.
    ArityMismatch,
    /// C011: register-file delay queue deeper than the register file.
    QueueDepthExceeded,
    /// C012: shift/delay tap index or count beyond the machine's taps.
    SduTapCount,
    /// C013: shift/delay tap delay beyond the unit's buffer.
    SduDelayRange,
    /// C014: memory/cache wire without DMA attributes.
    DmaMissing,
    /// C015: DMA transfer runs outside the plane/cache/variable bounds.
    DmaRange,
    /// C016: DMA names a variable that is not declared.
    UndeclaredVariable,
    /// C017: stream length inconsistent with an explicit DMA count.
    StreamLenMismatch,
    /// C018: more units active in an ALS than the subset model allows.
    SubsetViolation,
    /// C019: dataflow cycle through the switch (feedback must use the
    /// register-file feedback path instead).
    CycleDetected,
    /// C020: an enabled unit's output feeds nothing.
    DeadOutput,
    /// C021: the pipeline stores no result anywhere.
    NoStore,
    /// C022: a wire loops a unit's output directly to its own input.
    SelfLoop,
    /// C023: cache DMA larger than one cache buffer.
    CacheCapacity,
    /// C024: control flow references a pipeline that does not exist.
    DanglingControlRef,
    /// C025: a convergence test reads a scalar nothing writes.
    UnwrittenCondition,
    /// C026: icon participates in no connection.
    UnusedIcon,
    /// C027: ALS icon bound to a physical ALS of a different kind.
    BindingKindMismatch,
    /// C028: shift/delay unit fed by something other than memory or cache.
    SduSourceKind,
    /// C029: a unit is wired or programmed on a pad the checker cannot
    /// attribute to an active unit.
    InactiveUnit,
    /// C030: a wire names an icon the pipeline does not hold, or an icon
    /// is filed under an id other than its own (only a corrupted or
    /// hand-edited saved document can do either).
    DanglingWire,
}

impl RuleCode {
    /// The rule's place in the shared constraint taxonomy
    /// ([`nsc_cert::ConstraintKind`]) — the declarative, enumerable form
    /// the certificate verifier and audit reports also speak. The
    /// taxonomy owns the stable ids; [`RuleCode::code`] delegates here.
    pub fn constraint(&self) -> ConstraintKind {
        use RuleCode::*;
        match self {
            UnboundIcon => ConstraintKind::UnboundIcon,
            DuplicateBinding => ConstraintKind::DuplicateBinding,
            NoSuchResource => ConstraintKind::NoSuchResource,
            AlsOvercommit => ConstraintKind::AlsOvercommit,
            SinkDrivenTwice => ConstraintKind::SinkDrivenTwice,
            FanoutExceeded => ConstraintKind::FanoutExceeded,
            PlaneContention => ConstraintKind::PlaneContention,
            FuMultiPlane => ConstraintKind::FuMultiPlane,
            CapabilityViolation => ConstraintKind::CapabilityViolation,
            ArityMismatch => ConstraintKind::ArityMismatch,
            QueueDepthExceeded => ConstraintKind::QueueDepthExceeded,
            SduTapCount => ConstraintKind::SduTapCount,
            SduDelayRange => ConstraintKind::SduDelayRange,
            DmaMissing => ConstraintKind::DmaMissing,
            DmaRange => ConstraintKind::DmaRange,
            UndeclaredVariable => ConstraintKind::UndeclaredVariable,
            StreamLenMismatch => ConstraintKind::StreamLenMismatch,
            SubsetViolation => ConstraintKind::SubsetViolation,
            CycleDetected => ConstraintKind::CycleDetected,
            DeadOutput => ConstraintKind::DeadOutput,
            NoStore => ConstraintKind::NoStore,
            SelfLoop => ConstraintKind::SelfLoop,
            CacheCapacity => ConstraintKind::CacheCapacity,
            DanglingControlRef => ConstraintKind::DanglingControlRef,
            UnwrittenCondition => ConstraintKind::UnwrittenCondition,
            UnusedIcon => ConstraintKind::UnusedIcon,
            BindingKindMismatch => ConstraintKind::BindingKindMismatch,
            SduSourceKind => ConstraintKind::SduSourceKind,
            InactiveUnit => ConstraintKind::InactiveUnit,
            DanglingWire => ConstraintKind::DanglingWire,
        }
    }

    /// Stable short code ("C005") used in messages and tests — owned by
    /// the shared taxonomy since the certificate layer landed.
    pub fn code(&self) -> &'static str {
        self.constraint().id()
    }
}

/// One finding.
#[derive(Debug, Clone, PartialEq)]
pub struct Diagnostic {
    /// The rule that fired.
    pub rule: RuleCode,
    /// Error or warning.
    pub severity: Severity,
    /// Human-readable explanation for the message strip.
    pub message: String,
    /// What it is about.
    pub subject: Subject,
}

impl Diagnostic {
    /// An error finding.
    pub fn error(rule: RuleCode, subject: Subject, message: impl Into<String>) -> Self {
        Diagnostic { rule, severity: Severity::Error, message: message.into(), subject }
    }

    /// A warning finding.
    pub fn warning(rule: RuleCode, subject: Subject, message: impl Into<String>) -> Self {
        Diagnostic { rule, severity: Severity::Warning, message: message.into(), subject }
    }
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let sev = match self.severity {
            Severity::Error => "error",
            Severity::Warning => "warning",
        };
        write!(f, "{sev}[{}] {}: {}", self.rule.code(), self.subject, self.message)
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
        use RuleCode::*;
        let all = [
            UnboundIcon,
            DuplicateBinding,
            NoSuchResource,
            AlsOvercommit,
            SinkDrivenTwice,
            FanoutExceeded,
            PlaneContention,
            FuMultiPlane,
            CapabilityViolation,
            ArityMismatch,
            QueueDepthExceeded,
            SduTapCount,
            SduDelayRange,
            DmaMissing,
            DmaRange,
            UndeclaredVariable,
            StreamLenMismatch,
            SubsetViolation,
            CycleDetected,
            DeadOutput,
            NoStore,
            SelfLoop,
            CacheCapacity,
            DanglingControlRef,
            UnwrittenCondition,
            UnusedIcon,
            BindingKindMismatch,
            SduSourceKind,
            InactiveUnit,
            DanglingWire,
        ];
        let set: std::collections::HashSet<_> = all.iter().map(|r| r.code()).collect();
        assert_eq!(set.len(), all.len());
        assert_eq!(RuleCode::SinkDrivenTwice.code(), "C005");

        // The rules map bijectively onto the taxonomy's checker half.
        let kinds: std::collections::HashSet<_> = all.iter().map(|r| r.constraint()).collect();
        assert_eq!(kinds.len(), all.len());
        let checker_kinds = ConstraintKind::ALL.iter().filter(|k| k.is_checker_rule()).count();
        assert_eq!(checker_kinds, all.len(), "taxonomy covers exactly the checker rules");
        for r in all {
            assert!(r.constraint().is_checker_rule());
            assert!(!r.constraint().describe().is_empty());
        }
    }

    #[test]
    fn display_format() {
        let d = Diagnostic::error(
            RuleCode::PlaneContention,
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
            Diagnostic::warning(RuleCode::UnusedIcon, Subject::Icon(IconId(0)), "unused"),
            Diagnostic::error(RuleCode::NoStore, Subject::Pipeline(PipelineId(0)), "no store"),
        ];
        assert!(has_errors(&diags));
        assert_eq!(errors(&diags).count(), 1);
        assert!(!has_errors(&diags[..1]));
    }
}
