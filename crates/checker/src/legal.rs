//! Legal-connection queries: the Figure 8 menu contents.
//!
//! Paper §5: "A menu pops up showing the available choices ... The checker
//! is used during this operation to ensure that only legal connections are
//! attempted." The implementation is transactional: a candidate wire is
//! tried on a scratch copy of the diagram, and accepted only if it
//! introduces no *new errors* relative to the diagram as it stands
//! (pre-existing problems elsewhere must not block unrelated wiring).

use crate::diag::{Diagnostic, Severity};
use crate::rules;
use crate::Stage;
use nsc_arch::KnowledgeBase;
use nsc_diagram::{PadLoc, PipelineDiagram};

/// Diagnostics that the proposed wire would *add* to the diagram's
/// incremental findings. Empty result = the wire is legal.
pub fn validate_connection(
    kb: &KnowledgeBase,
    diagram: &PipelineDiagram,
    from: PadLoc,
    to: PadLoc,
) -> Vec<Diagnostic> {
    // Structural refusal first (pads must exist and be oriented correctly).
    let mut scratch = diagram.clone();
    let conn = match scratch.connect(from, to, None) {
        Ok(id) => id,
        Err(e) => {
            return vec![Diagnostic::error(
                crate::diag::ConstraintKind::SinkDrivenTwice, // structural: surfaced as a generic wiring error
                crate::diag::Subject::Icon(from.icon),
                format!("connection refused: {e}"),
            )];
        }
    };
    let before = rules::check_pipeline(kb, diagram, Stage::Incremental);
    let after = rules::check_pipeline(kb, &scratch, Stage::Incremental);
    // New errors only; warnings (like "DMA attributes still needed") are
    // expected mid-gesture. Findings attributed to the new wire are always
    // new.
    after
        .into_iter()
        .filter(|d| d.severity == Severity::Error)
        .filter(|d| d.subject == crate::diag::Subject::Connection(conn) || !before.contains(d))
        .collect()
}

/// Every pad in the diagram that may legally receive a wire from `from` —
/// exactly what the editor's pop-up menu lists.
pub fn legal_targets(kb: &KnowledgeBase, diagram: &PipelineDiagram, from: PadLoc) -> Vec<PadLoc> {
    if !diagram.has_pad(from) || !from.pad.can_source() {
        return Vec::new();
    }
    let taps = kb.config().sdu.taps_per_unit;
    let mut out = Vec::new();
    let icons: Vec<_> = diagram.icons().map(|i| (i.id, i.kind)).collect();
    for (icon_id, kind) in icons {
        for pad in kind.pads(taps) {
            let to = PadLoc::new(icon_id, pad);
            if !pad.can_sink() || to == from {
                continue;
            }
            if validate_connection(kb, diagram, from, to).is_empty() {
                out.push(to);
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use nsc_arch::{AlsKind, DoubletMode, InPort, PlaneId};
    use nsc_diagram::{DmaAttrs, IconKind, PadRef, PipelineId};

    fn kb() -> KnowledgeBase {
        KnowledgeBase::nsc_1988()
    }

    #[test]
    fn fu_inputs_are_legal_targets_for_a_memory_read() {
        let kb = kb();
        let mut d = PipelineDiagram::new(PipelineId(0), "t");
        let m = d.add_icon(IconKind::Memory { plane: Some(PlaneId(0)) });
        let als = d.add_icon(IconKind::als(AlsKind::Triplet));
        let targets = legal_targets(&kb, &d, PadLoc::new(m, PadRef::Io));
        // All six FU inputs of the triplet are available.
        for pos in 0..3u8 {
            for port in [InPort::A, InPort::B] {
                assert!(
                    targets.contains(&PadLoc::new(als, PadRef::FuIn { pos, port })),
                    "missing u{pos}.{port}"
                );
            }
        }
        // FU outputs are not sinks.
        assert!(!targets.iter().any(|t| matches!(t.pad, PadRef::FuOut { .. })));
    }

    #[test]
    fn occupied_sinks_disappear_from_the_menu() {
        let kb = kb();
        let mut d = PipelineDiagram::new(PipelineId(0), "t");
        let m = d.add_icon(IconKind::Memory { plane: Some(PlaneId(0)) });
        let cache = d.add_icon(IconKind::Cache { cache: Some(nsc_arch::CacheId(0)) });
        let als = d.add_icon(IconKind::als(AlsKind::Singlet));
        let sink = PadLoc::new(als, PadRef::FuIn { pos: 0, port: InPort::A });
        d.connect(PadLoc::new(m, PadRef::Io), sink, Some(DmaAttrs::at_address(0))).unwrap();
        let targets = legal_targets(&kb, &d, PadLoc::new(cache, PadRef::Io));
        assert!(!targets.contains(&sink), "already-driven input is not offered");
        assert!(targets.contains(&PadLoc::new(als, PadRef::FuIn { pos: 0, port: InPort::B })));
    }

    #[test]
    fn second_plane_read_not_offered_to_the_same_unit() {
        // §3: one read plane per functional unit per instruction — the menu
        // for a second memory icon must not offer the other input of a unit
        // that already reads a different plane.
        let kb = kb();
        let mut d = PipelineDiagram::new(PipelineId(0), "t");
        let m = d.add_icon(IconKind::Memory { plane: Some(PlaneId(0)) });
        let m2 = d.add_icon(IconKind::Memory { plane: Some(PlaneId(1)) });
        let als = d.add_icon(IconKind::als(AlsKind::Singlet));
        d.connect(
            PadLoc::new(m, PadRef::Io),
            PadLoc::new(als, PadRef::FuIn { pos: 0, port: InPort::A }),
            Some(DmaAttrs::at_address(0)),
        )
        .unwrap();
        let targets = legal_targets(&kb, &d, PadLoc::new(m2, PadRef::Io));
        assert!(
            !targets.contains(&PadLoc::new(als, PadRef::FuIn { pos: 0, port: InPort::B })),
            "two read planes on one unit must be refused"
        );
    }

    #[test]
    fn the_papers_plane_example_via_legal_targets() {
        // Once FU0's output is routed to plane MP2, a second unit's output
        // must not be offered MP2 as a destination.
        let kb = kb();
        let mut d = PipelineDiagram::new(PipelineId(0), "t");
        let a = d.add_icon(IconKind::Als {
            kind: AlsKind::Singlet,
            mode: DoubletMode::Full,
            als: Some(kb.layout().alss_of_kind(AlsKind::Singlet)[0]),
        });
        let b = d.add_icon(IconKind::Als {
            kind: AlsKind::Singlet,
            mode: DoubletMode::Full,
            als: Some(kb.layout().alss_of_kind(AlsKind::Singlet)[1]),
        });
        let plane = d.add_icon(IconKind::Memory { plane: Some(PlaneId(2)) });
        d.connect(
            PadLoc::new(a, PadRef::FuOut { pos: 0 }),
            PadLoc::new(plane, PadRef::Io),
            Some(DmaAttrs::at_address(0)),
        )
        .unwrap();
        let targets = legal_targets(&kb, &d, PadLoc::new(b, PadRef::FuOut { pos: 0 }));
        assert!(
            !targets.contains(&PadLoc::new(plane, PadRef::Io)),
            "the editor must not offer the occupied plane"
        );
    }

    #[test]
    fn sdu_inputs_offered_only_to_storage_sources() {
        let kb = kb();
        let mut d = PipelineDiagram::new(PipelineId(0), "t");
        let m = d.add_icon(IconKind::Memory { plane: Some(PlaneId(0)) });
        let als = d.add_icon(IconKind::als(AlsKind::Singlet));
        let sdu = d.add_icon(IconKind::Sdu { sdu: Some(nsc_arch::SduId(0)) });
        let from_mem = legal_targets(&kb, &d, PadLoc::new(m, PadRef::Io));
        assert!(from_mem.contains(&PadLoc::new(sdu, PadRef::SduIn)));
        let from_fu = legal_targets(&kb, &d, PadLoc::new(als, PadRef::FuOut { pos: 0 }));
        assert!(
            !from_fu.contains(&PadLoc::new(sdu, PadRef::SduIn)),
            "SDUs reformat memory data, not FU results"
        );
    }

    #[test]
    fn validate_rejects_structurally_bad_wires() {
        let kb = kb();
        let mut d = PipelineDiagram::new(PipelineId(0), "t");
        let als = d.add_icon(IconKind::als(AlsKind::Singlet));
        let diags = validate_connection(
            &kb,
            &d,
            PadLoc::new(als, PadRef::FuIn { pos: 0, port: InPort::A }),
            PadLoc::new(als, PadRef::FuOut { pos: 0 }),
        );
        assert!(!diags.is_empty());
    }

    #[test]
    fn preexisting_errors_do_not_block_unrelated_wires() {
        let kb = kb();
        let mut d = PipelineDiagram::new(PipelineId(0), "t");
        // A pre-existing error: icon bound to a nonexistent plane.
        d.add_icon(IconKind::Memory { plane: Some(PlaneId(99)) });
        let m = d.add_icon(IconKind::Memory { plane: Some(PlaneId(0)) });
        let als = d.add_icon(IconKind::als(AlsKind::Singlet));
        let diags = validate_connection(
            &kb,
            &d,
            PadLoc::new(m, PadRef::Io),
            PadLoc::new(als, PadRef::FuIn { pos: 0, port: InPort::A }),
        );
        assert!(diags.is_empty(), "unrelated wire must stay legal: {diags:?}");
    }
}
