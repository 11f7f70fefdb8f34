//! The §6 visual debugger.
//!
//! "The visual environment could potentially be extended to include
//! debugging features. During execution, each new instruction would
//! display the corresponding pipeline diagram, annotated to show data
//! values flowing through the pipeline. This could help to pinpoint timing
//! errors, as well as other bugs in the program."
//!
//! [`Session::debug_run`] compiles a document through the session (its
//! cache and certificate log included), executes it with tracing on, then
//! replays each executed instruction as a rendered diagram plus the last
//! value observed on every live port — plane reads, shift/delay taps, and
//! every functional unit's output, named in *diagram* terms via the
//! generator's instruction maps.

use crate::error::NscError;
use crate::session::Session;
use nsc_arch::SourceRef;
use nsc_diagram::{Document, IconKind, PipelineId};
use nsc_sim::{NodeSim, RunOptions};

/// One executed instruction, annotated.
#[derive(Debug, Clone)]
pub struct DebugFrame {
    /// Program counter of the instruction.
    pub pc: usize,
    /// The pipeline it came from (`None` for loop headers).
    pub pipeline: Option<PipelineId>,
    /// Pipeline name, for display.
    pub title: String,
    /// ASCII rendering of the diagram.
    pub diagram: String,
    /// `(port label, value)` pairs observed during execution.
    pub values: Vec<(String, f64)>,
}

/// A complete annotated run.
#[derive(Debug, Clone)]
pub struct DebugReport {
    /// Frames in execution order (capped by the run options' trace cap).
    pub frames: Vec<DebugFrame>,
    /// Instructions executed in total.
    pub executed: u64,
}

impl DebugReport {
    /// Render the report as text (diagram + value table per frame).
    pub fn render(&self) -> String {
        let mut out = String::new();
        for f in &self.frames {
            out.push_str(&format!("=== I{} {} ===\n", f.pc, f.title));
            out.push_str(&f.diagram);
            out.push_str("-- values flowing --\n");
            for (label, v) in &f.values {
                out.push_str(&format!("  {label:<24} = {v}\n"));
            }
        }
        out
    }
}

impl Session {
    /// Compile through this session, execute with tracing and annotate
    /// every captured instruction. A document compiled before is a cache
    /// hit, and the compile's certificate goes to the session's log like
    /// any other.
    pub fn debug_run(
        &self,
        doc: &mut Document,
        node: &mut NodeSim,
        max_frames: usize,
    ) -> Result<DebugReport, NscError> {
        let compiled = self.compile(doc)?;
        let out = &compiled.output;
        let opts = RunOptions { trace: true, trace_cap: max_frames, ..Default::default() };
        let stats = compiled.run(node, &opts)?.stats;

        let renders: std::collections::BTreeMap<String, String> =
            self.display_document(doc).into_iter().collect();

        let mut frames = Vec::new();
        for (pc, trace) in &stats.traces {
            let map = out.maps.get(*pc).and_then(|m| m.as_ref());
            let (pipeline, title, diagram) = match map {
                Some(m) => {
                    let p = doc.pipeline(m.pipeline);
                    let name = p.map(|p| p.name.clone()).unwrap_or_default();
                    let render = renders.get(&name).cloned().unwrap_or_default();
                    (Some(m.pipeline), name, render)
                }
                None => (None, "(sequencer)".to_string(), String::new()),
            };
            let mut values = Vec::new();
            if let (Some(m), Some(p)) = (map, pipeline.and_then(|id| doc.pipeline(id))) {
                // Functional-unit outputs, in diagram terms.
                for ((icon, pos), fu) in &m.unit_to_fu {
                    if let Some(v) = trace.value_of(self.kb(), SourceRef::Fu(*fu)) {
                        values.push((format!("{icon}.u{pos}.out ({fu})"), v));
                    }
                }
                // Storage and shift/delay ports.
                for icon in p.icons() {
                    match icon.kind {
                        IconKind::Memory { plane: Some(pl) } => {
                            if let Some(v) = trace.value_of(self.kb(), SourceRef::PlaneRead(pl)) {
                                values.push((format!("{}.rd ({pl})", icon.id), v));
                            }
                        }
                        IconKind::Cache { cache: Some(c) } => {
                            if let Some(v) = trace.value_of(self.kb(), SourceRef::CacheRead(c)) {
                                values.push((format!("{}.rd ({c})", icon.id), v));
                            }
                        }
                        IconKind::Sdu { sdu: Some(s) } => {
                            for t in 0..p.sdu_taps(icon.id).len() as u8 {
                                if let Some(v) = trace.value_of(self.kb(), SourceRef::SduTap(s, t))
                                {
                                    values.push((format!("{}.tap{t} ({s})", icon.id), v));
                                }
                            }
                        }
                        _ => {}
                    }
                }
            }
            frames.push(DebugFrame { pc: *pc, pipeline, title, diagram, values });
        }
        Ok(DebugReport { frames, executed: stats.executed })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nsc_arch::{AlsKind, FuOp, InPort, PlaneId};
    use nsc_cert::CompilePath;
    use nsc_diagram::{DmaAttrs, FuAssign, IconKind, PadLoc, PadRef, Point};

    fn scaled_doc(session: &Session) -> Document {
        let mut ed = session.editor("debugged");
        ed.set_stream_len(8);
        let mem = ed.place_icon(IconKind::Memory { plane: Some(PlaneId(0)) }, Point::new(22, 6));
        let als = ed.place_icon(IconKind::als(AlsKind::Singlet), Point::new(45, 6));
        let out = ed.place_icon(IconKind::Memory { plane: Some(PlaneId(1)) }, Point::new(70, 6));
        let c1 = ed
            .connect(
                PadLoc::new(mem, PadRef::Io),
                PadLoc::new(als, PadRef::FuIn { pos: 0, port: InPort::A }),
            )
            .unwrap();
        ed.set_dma(c1, DmaAttrs::at_address(0));
        ed.assign_fu(als, 0, FuAssign::with_const(FuOp::Mul, 10.0));
        let c2 = ed
            .connect(PadLoc::new(als, PadRef::FuOut { pos: 0 }), PadLoc::new(out, PadRef::Io))
            .unwrap();
        ed.set_dma(c2, DmaAttrs::at_address(0));
        ed.doc.clone()
    }

    #[test]
    fn debug_frames_show_live_values() {
        let session = Session::nsc_1988();
        let mut doc = scaled_doc(&session);
        let mut node = session.node();
        node.mem.plane_mut(PlaneId(0)).write_slice(0, &[1.0, 2.0, 7.0]);
        let report = session.debug_run(&mut doc, &mut node, 16).expect("debugs");
        assert_eq!(report.frames.len(), 1);
        let frame = &report.frames[0];
        assert!(frame.diagram.contains("MUL"), "diagram rendered");
        // The unit's last output is the last input x10 — but the stream is
        // 8 long and only 3 words were loaded; the rest are zeros, so the
        // last observed value is 0.0. The plane read shows 0.0 too.
        let fu_val =
            frame.values.iter().find(|(l, _)| l.contains(".u0.out")).expect("unit value present");
        assert_eq!(fu_val.1, 0.0);
        let rendered = report.render();
        assert!(rendered.contains("values flowing"));
    }

    #[test]
    fn debugger_pinpoints_a_data_bug() {
        // The §6 promise: a wrong constant is visible in the annotated
        // diagram without inspecting memory dumps.
        let session = Session::nsc_1988();
        let mut doc = scaled_doc(&session);
        let mut node = session.node();
        node.mem.plane_mut(PlaneId(0)).write_slice(0, &[3.0; 8]);
        let report = session.debug_run(&mut doc, &mut node, 4).expect("debugs");
        let fu_val = report.frames[0].values.iter().find(|(l, _)| l.contains(".u0.out")).unwrap();
        assert_eq!(fu_val.1, 30.0, "3.0 x 10 visible at the unit's output pad");
    }

    #[test]
    fn debug_runs_share_the_sessions_cache_and_certificate_log() {
        let (session, log) = Session::nsc_1988().with_certificate_log();
        let mut doc = scaled_doc(&session);
        let mut debug = || {
            let mut node = session.node();
            node.mem.plane_mut(PlaneId(0)).write_slice(0, &[1.0, 2.0, 7.0]);
            session.debug_run(&mut doc, &mut node, 16).expect("debugs")
        };
        let first = debug();
        let before = session.cache_stats();
        let second = debug();
        let after = session.cache_stats();
        assert_eq!(after.hits, before.hits + 1, "the second debug run is a cache hit");
        assert_eq!(after.misses, before.misses);
        assert_eq!(second.render(), first.render(), "the same frames");
        let paths: Vec<_> = log.drain().iter().map(|c| c.compile_path).collect();
        assert_eq!(paths, [CompilePath::Full, CompilePath::CacheHit], "both compiles logged");
    }
}
