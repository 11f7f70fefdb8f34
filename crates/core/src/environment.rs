//! The Figure 3 integration's interactive half: editors wired to the
//! session's checker, and the §6 compiler back-end display.
//!
//! [`Session`] is the one environment object. Besides the compile-and-run
//! stages of [`crate::session`], it hands out checker-connected editors
//! ([`Session::editor`], [`Session::open`]) and renders whole documents as
//! diagrams ([`Session::display_document`]), all over one knowledge base.

use crate::session::Session;
use nsc_diagram::{Document, PipelineId, Point};
use nsc_editor::Editor;

impl Session {
    /// A fresh editor wired to this machine's checker.
    pub fn editor(&self, name: impl Into<String>) -> Editor {
        Editor::new(self.checker().clone(), name)
    }

    /// An editor over an existing document.
    pub fn open(&self, doc: Document) -> Editor {
        Editor::open(self.checker().clone(), doc)
    }

    /// Render every pipeline of a document (the §6 "back end to a
    /// compiler" display mode). Returns `(pipeline name, ascii render)`.
    pub fn display_document(&self, doc: &Document) -> Vec<(String, String)> {
        let mut out = Vec::new();
        for p in doc.pipelines() {
            let mut sub = Document::new(doc.name.clone());
            sub.decls = doc.decls.clone();
            let pid = sub.add_pipeline(p.name.clone());
            *sub.pipeline_mut(pid).unwrap() = {
                let mut clone = p.clone();
                clone.id = pid;
                clone
            };
            // Lay the icons out automatically if the source document had
            // no display data.
            let mut ed = self.open(sub);
            auto_layout(&mut ed, pid);
            out.push((p.name.clone(), nsc_editor::render_ascii(&ed)));
        }
        out
    }
}

/// Grid-place any unpositioned icons so renders are meaningful for
/// documents built programmatically (no display data).
fn auto_layout(ed: &mut Editor, pipeline: PipelineId) {
    let Some(d) = ed.doc.pipeline(pipeline) else { return };
    let ids: Vec<_> = d.icons().map(|i| i.id).collect();
    let placed: Vec<_> = {
        let layout = ed.doc.layout(pipeline);
        ids.iter().filter(|id| layout.is_none_or(|l| l.position(**id).is_none())).copied().collect()
    };
    let (x0, y0) = (nsc_editor::DRAW_X0 + 3, nsc_editor::DRAW_Y0 + 1);
    for (i, id) in placed.into_iter().enumerate() {
        let col = (i % 5) as i32;
        let row = (i / 5) as i32;
        if let Some(layout) = ed.doc.layout_mut(pipeline) {
            layout.place(id, Point::new(x0 + col * 14, y0 + row * 13));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::error::NscError;
    use nsc_arch::{AlsKind, FuOp, InPort, MachineConfig, PlaneId};
    use nsc_diagram::{DmaAttrs, FuAssign, IconKind, PadLoc, PadRef};
    use nsc_sim::{HaltReason, RunOptions};

    /// Build a MP0 -> neg -> MP1 document through the session's editor.
    fn small_doc(session: &Session) -> Document {
        let mut ed = session.editor("negate");
        ed.set_stream_len(32);
        let mem = ed.place_icon(IconKind::Memory { plane: Some(PlaneId(0)) }, Point::new(22, 6));
        let als = ed.place_icon(IconKind::als(AlsKind::Singlet), Point::new(45, 6));
        let out = ed.place_icon(IconKind::Memory { plane: Some(PlaneId(1)) }, Point::new(70, 6));
        let c1 = ed
            .connect(
                PadLoc::new(mem, PadRef::Io),
                PadLoc::new(als, PadRef::FuIn { pos: 0, port: InPort::A }),
            )
            .expect("legal");
        ed.set_dma(c1, DmaAttrs::at_address(0));
        ed.assign_fu(als, 0, FuAssign::unary(FuOp::Neg));
        let c2 = ed
            .connect(PadLoc::new(als, PadRef::FuOut { pos: 0 }), PadLoc::new(out, PadRef::Io))
            .expect("legal");
        ed.set_dma(c2, DmaAttrs::at_address(100));
        ed.doc.clone()
    }

    #[test]
    fn figure_3_flow_end_to_end() {
        let session = Session::nsc_1988();
        let mut doc = small_doc(&session);
        // Compile (binds unbound icons) -> run -> check.
        let mut node = session.node();
        node.mem.plane_mut(PlaneId(0)).write_slice(0, &[1.0, -2.0, 3.0]);
        let compiled = session.compile(&mut doc).expect("compiles");
        let report = compiled.run(&mut node, &RunOptions::default()).expect("runs");
        let diags = session.checker().check_document(&doc);
        assert!(!nsc_checker::diag::has_errors(&diags), "{diags:?}");
        assert_eq!(compiled.program().len(), 1);
        assert_eq!(report.stats.halted, HaltReason::Halt);
        assert!(report.counters.cycles > 0 && report.counters.flops > 0);
        assert_eq!(node.mem.plane(PlaneId(1)).read_vec(100, 3), vec![-1.0, 2.0, -3.0]);
    }

    #[test]
    fn generation_refuses_unbindable_documents() {
        let session = Session::nsc_1988();
        let mut doc = Document::new("too-many");
        let pid = doc.add_pipeline("p");
        for _ in 0..5 {
            doc.pipeline_mut(pid).unwrap().add_icon(IconKind::als(AlsKind::Triplet));
        }
        assert!(matches!(session.compile(&mut doc), Err(NscError::BindFailed(_))));
    }

    #[test]
    fn display_mode_renders_every_pipeline() {
        let session = Session::nsc_1988();
        let doc = small_doc(&session);
        let frames = session.display_document(&doc);
        assert_eq!(frames.len(), 1);
        assert!(frames[0].1.contains("NEG"));
        assert!(frames[0].1.contains("MP0"));
    }

    #[test]
    fn knowledge_base_evolution_absorbs_machine_changes() {
        // Experiment T9: the same document checks and generates against a
        // revised machine (double-size register files, six-tap SDUs) with
        // no editor or document change.
        let session_a = Session::nsc_1988();
        let mut revised = MachineConfig::nsc_1988();
        revised.name = "NSC (1989 revision)".into();
        revised.rf_words = 128;
        revised.sdu.taps_per_unit = 6;
        let session_b = Session::new(revised);
        let mut doc_a = small_doc(&session_a);
        let mut doc_b = doc_a.clone();
        let out_a = session_a.compile(&mut doc_a).expect("1988 compiles");
        let out_b = session_b.compile(&mut doc_b).expect("1989 compiles");
        assert_eq!(out_a.program().len(), out_b.program().len());
        assert_eq!(out_b.program().machine, "NSC (1989 revision)");
    }
}
