//! Assembling whole programs: control flow to sequencer fields.
//!
//! The document's control tree (fixed-count loops and residual-convergence
//! loops) lowers onto the sequencer model of §2: "A central sequencer
//! provides high-level control flow ... An elaborate interrupt scheme is
//! used to signal pipeline completions \[and\] evaluate conditional
//! expressions." Every loop gets a one-instruction *header* that presets a
//! loop counter; the final body instruction carries the decrement-and-
//! branch (and, for convergence loops, the interrupt-evaluated comparison
//! against the residual scalar in a cache).

#![deny(clippy::cast_possible_truncation)]

use crate::lower::{lower_pipeline, InstrMap, LoweredPipeline};
use crate::GenError;
use nsc_arch::KnowledgeBase;
use nsc_checker::diag::has_errors;
use nsc_diagram::{ControlNode, Document, PipelineId};
use nsc_microcode::{CmpKind, CondBranch, MicroInstruction, MicroProgram, ProgramBuilder, SeqCtl};
use std::collections::BTreeMap;

/// A generated program plus per-instruction diagram back-references.
#[derive(Debug, Clone, PartialEq)]
pub struct GenOutput {
    /// The executable microcode.
    pub program: MicroProgram,
    /// For each instruction index, the diagram it came from (headers get
    /// `None`).
    pub maps: Vec<Option<InstrMap>>,
}

/// Generate microcode for a whole document.
pub fn generate(kb: &KnowledgeBase, doc: &Document) -> Result<GenOutput, GenError> {
    // Whole-document check first (control refs, declarations).
    let diags = nsc_checker::rules::check_document(kb, doc);
    if has_errors(&diags) {
        return Err(GenError::CheckFailed(
            diags.into_iter().filter(|d| d.severity == nsc_checker::Severity::Error).collect(),
        ));
    }
    generate_prechecked(kb, doc)
}

/// Generate microcode for a document the caller has *already* passed
/// through the whole-document global check, which this does not re-run:
/// `Session::compile` checks once, then calls this. On an unchecked
/// document it never panics, but it may return an error that names the
/// symptom rather than the broken rule, or a program the checker would
/// have refused — so only call this with a clean check in hand.
pub fn generate_prechecked(kb: &KnowledgeBase, doc: &Document) -> Result<GenOutput, GenError> {
    // Lower every pipeline that the control flow references (or all, in
    // order, when no control flow is specified).
    let control = match &doc.control {
        Some(c) => c.clone(),
        None => {
            ControlNode::Seq(doc.pipelines().iter().map(|p| ControlNode::Pipeline(p.id)).collect())
        }
    };
    let mut lowered: BTreeMap<PipelineId, LoweredPipeline> = BTreeMap::new();
    for id in control.referenced_pipelines() {
        let d = doc.pipeline(id).ok_or_else(|| {
            GenError::Unsupported(format!("control flow references {id}, which does not exist"))
        })?;
        lowered.insert(id, lower_pipeline(kb, d, &doc.decls)?);
    }

    let mut asm = Assembler {
        kb,
        builder: ProgramBuilder::new(kb, doc.name.clone()),
        maps: Vec::new(),
        lowered: &lowered,
        next_counter: 0,
    };
    asm.emit(&control)?;
    if asm.maps.is_empty() {
        return Err(GenError::EmptyProgram);
    }
    // Explicit halt at the end.
    let last = asm.maps.len() - 1;
    if asm.builder.instr_mut(last).seq.ctl == SeqCtl::Next {
        asm.builder.instr_mut(last).seq.ctl = SeqCtl::Halt;
    }
    Ok(GenOutput { program: asm.builder.finish(), maps: asm.maps })
}

struct Assembler<'a> {
    kb: &'a KnowledgeBase,
    builder: ProgramBuilder,
    maps: Vec<Option<InstrMap>>,
    lowered: &'a BTreeMap<PipelineId, LoweredPipeline>,
    next_counter: u8,
}

impl<'a> Assembler<'a> {
    fn alloc_counter(&mut self) -> Result<u8, GenError> {
        if self.next_counter >= 16 {
            return Err(GenError::Unsupported(
                "more than 16 nested/sequential loops need counter reuse".to_string(),
            ));
        }
        let c = self.next_counter;
        self.next_counter += 1;
        Ok(c)
    }

    /// Index of the instruction that will carry a loop's closing branch.
    /// If the body's final instruction already owns a branch (it closes an
    /// inner loop), an idle *loop tail* is appended to carry this one.
    fn closing_slot(&mut self, needs_cond: bool) -> usize {
        let last = self.builder.next_index() - 1;
        let ins = self.builder.instr_mut(last);
        let free = ins.seq.ctl == SeqCtl::Next && (!needs_cond || ins.seq.cond.is_none());
        if free {
            last
        } else {
            self.builder.label("loop tail");
            self.builder.push(MicroInstruction::empty(self.kb));
            self.maps.push(None);
            self.builder.next_index() - 1
        }
    }

    fn emit(&mut self, node: &ControlNode) -> Result<(), GenError> {
        match node {
            ControlNode::Pipeline(id) => {
                let low = &self.lowered[id];
                self.builder.push(low.instr.clone());
                self.maps.push(Some(low.map.clone()));
                Ok(())
            }
            ControlNode::Seq(children) => {
                for c in children {
                    self.emit(c)?;
                }
                Ok(())
            }
            ControlNode::Repeat { times, body } => {
                if *times == 0 {
                    return Ok(());
                }
                let ctr = self.alloc_counter()?;
                // Loop header: an idle instruction that presets the counter.
                let mut header = MicroInstruction::empty(self.kb);
                header.seq.set_counter = Some((ctr, *times));
                self.builder.label(format!("repeat x{times}"));
                self.builder.push(header);
                self.maps.push(None);
                let start = self.builder.next_index();
                self.emit(body)?;
                if self.builder.next_index() == start {
                    return Err(GenError::EmptyProgram);
                }
                let target = jump_target(start)?;
                let closer = self.closing_slot(false);
                debug_assert_eq!(closer, self.builder.next_index() - 1);
                self.builder.instr_mut(closer).seq.ctl = SeqCtl::DecJnz { ctr, target };
                Ok(())
            }
            ControlNode::RepeatUntil { cond, body } => {
                let ctr = self.alloc_counter()?;
                let mut header = MicroInstruction::empty(self.kb);
                header.seq.set_counter = Some((ctr, cond.max_iters));
                self.builder.label(format!(
                    "repeat until {}[{}] < {:e} (max {})",
                    cond.cache, cond.offset, cond.threshold, cond.max_iters
                ));
                self.builder.push(header);
                self.maps.push(None);
                let start = self.builder.next_index();
                self.emit(body)?;
                if self.builder.next_index() == start {
                    return Err(GenError::EmptyProgram);
                }
                let target = jump_target(start)?;
                let closer = self.closing_slot(true);
                let exit = jump_target(self.builder.next_index())?;
                // Converged? fall out (branch past the loop). Otherwise
                // keep looping while the iteration counter lasts.
                let last = self.builder.instr_mut(closer);
                last.seq.cond = Some(CondBranch {
                    cache: cond.cache,
                    offset: cond.offset,
                    cmp: CmpKind::Lt,
                    threshold: cond.threshold,
                    target: exit,
                });
                last.seq.ctl = SeqCtl::DecJnz { ctr, target };
                Ok(())
            }
        }
    }
}

/// A branch target as the sequencer's 16-bit jump field holds it.
fn jump_target(index: usize) -> Result<u16, GenError> {
    u16::try_from(index).map_err(|_| GenError::JumpTarget { index })
}

#[cfg(test)]
mod tests {
    use super::*;
    use nsc_arch::{AlsKind, FuOp, InPort, PlaneId};
    use nsc_diagram::{
        ConvergenceCond, Declarations, DmaAttrs, FuAssign, IconKind, PadLoc, PadRef,
    };

    fn kb() -> KnowledgeBase {
        KnowledgeBase::nsc_1988()
    }

    /// A document with one trivial pipeline (MP0 -> abs -> MP1).
    fn doc_with_pipeline(kb: &KnowledgeBase) -> (Document, PipelineId) {
        let mut doc = Document::new("prog");
        let pid = doc.add_pipeline("abs");
        let d = doc.pipeline_mut(pid).unwrap();
        d.stream_len = 16;
        let src = d.add_icon(IconKind::Memory { plane: Some(PlaneId(0)) });
        let als = d.add_icon(IconKind::als(AlsKind::Singlet));
        let dst = d.add_icon(IconKind::Memory { plane: Some(PlaneId(1)) });
        d.connect(
            PadLoc::new(src, PadRef::Io),
            PadLoc::new(als, PadRef::FuIn { pos: 0, port: InPort::A }),
            Some(DmaAttrs::at_address(0)),
        )
        .unwrap();
        d.connect(
            PadLoc::new(als, PadRef::FuOut { pos: 0 }),
            PadLoc::new(dst, PadRef::Io),
            Some(DmaAttrs::at_address(0)),
        )
        .unwrap();
        d.assign_fu(als, 0, FuAssign::unary(FuOp::Abs)).unwrap();
        nsc_checker::auto_bind(kb, doc.pipeline_mut(pid).unwrap(), &Declarations::default());
        (doc, pid)
    }

    #[test]
    fn no_control_flow_means_run_in_order_once() {
        let kb = kb();
        let (doc, _) = doc_with_pipeline(&kb);
        let out = generate(&kb, &doc).expect("generates");
        assert_eq!(out.program.len(), 1);
        assert_eq!(out.program.instrs[0].seq.ctl, SeqCtl::Halt);
        assert!(out.maps[0].is_some());
    }

    #[test]
    fn counted_loop_gets_header_and_backedge() {
        let kb = kb();
        let (mut doc, pid) = doc_with_pipeline(&kb);
        doc.control =
            Some(ControlNode::Repeat { times: 10, body: Box::new(ControlNode::Pipeline(pid)) });
        let out = generate(&kb, &doc).expect("generates");
        assert_eq!(out.program.len(), 2, "header + body");
        assert_eq!(out.program.instrs[0].seq.set_counter, Some((0, 10)));
        assert!(out.maps[0].is_none(), "header has no diagram");
        assert_eq!(out.program.instrs[1].seq.ctl, SeqCtl::DecJnz { ctr: 0, target: 1 });
    }

    #[test]
    fn convergence_loop_carries_the_interrupt_comparison() {
        let kb = kb();
        let (mut doc, pid) = doc_with_pipeline(&kb);
        doc.control = Some(ControlNode::RepeatUntil {
            cond: ConvergenceCond {
                cache: nsc_arch::CacheId(0),
                offset: 0,
                threshold: 1e-6,
                max_iters: 500,
            },
            body: Box::new(ControlNode::Pipeline(pid)),
        });
        let out = generate(&kb, &doc).expect("generates");
        assert_eq!(out.program.len(), 2);
        let last = &out.program.instrs[1];
        let cond = last.seq.cond.expect("conditional branch");
        assert_eq!(cond.cmp, CmpKind::Lt);
        assert_eq!(cond.threshold, 1e-6);
        assert_eq!(cond.target, 2, "converged -> fall past the loop");
        assert_eq!(last.seq.ctl, SeqCtl::DecJnz { ctr: 0, target: 1 });
        assert_eq!(out.program.instrs[0].seq.set_counter, Some((0, 500)));
    }

    /// A loop whose first body instruction lies past the sequencer's
    /// 16-bit jump field is refused by name, not wrapped to `start %
    /// 65,536`; so is a convergence loop whose exit lies past it.
    #[test]
    fn loops_past_the_jump_field_are_refused() {
        let kb = kb();
        let (mut doc, pid) = doc_with_pipeline(&kb);
        let body = || Box::new(ControlNode::Pipeline(pid));
        let prefix = |n: usize| vec![ControlNode::Pipeline(pid); n];
        let mut seq = prefix(1 << 16);
        seq.push(ControlNode::Repeat { times: 2, body: body() });
        doc.control = Some(ControlNode::Seq(seq));
        // Header at 65,536, so the loop starts at 65,537.
        assert_eq!(generate(&kb, &doc), Err(GenError::JumpTarget { index: 65_537 }));

        let until = ControlNode::RepeatUntil {
            cond: ConvergenceCond {
                cache: nsc_arch::CacheId(0),
                offset: 0,
                threshold: 1e-6,
                max_iters: 9,
            },
            body: body(),
        };
        let mut seq = prefix((1 << 16) - 2);
        seq.push(until);
        doc.control = Some(ControlNode::Seq(seq));
        // The body is instruction 65,535, so the exit is 65,536.
        let err = generate(&kb, &doc).expect_err("the exit does not fit");
        assert_eq!(err, GenError::JumpTarget { index: 65_536 });
        assert!(err.to_string().contains("16-bit jump target field"), "{err}");
    }

    #[test]
    fn nested_loops_use_distinct_counters() {
        let kb = kb();
        let (mut doc, pid) = doc_with_pipeline(&kb);
        doc.control = Some(ControlNode::Repeat {
            times: 3,
            body: Box::new(ControlNode::Repeat {
                times: 5,
                body: Box::new(ControlNode::Pipeline(pid)),
            }),
        });
        let out = generate(&kb, &doc).expect("generates");
        // outer header, inner header, body, outer loop tail
        assert_eq!(out.program.len(), 4);
        assert_eq!(out.program.instrs[0].seq.set_counter, Some((0, 3)));
        assert_eq!(out.program.instrs[1].seq.set_counter, Some((1, 5)));
        // The body closes the inner loop...
        assert_eq!(out.program.instrs[2].seq.ctl, SeqCtl::DecJnz { ctr: 1, target: 2 });
        // ...and an idle tail closes the outer one, targeting the *inner
        // header* so the inner counter re-arms each outer pass.
        assert_eq!(out.program.instrs[3].seq.ctl, SeqCtl::DecJnz { ctr: 0, target: 1 });
    }

    /// Documents the checker rejects. Lowering does not re-check, so
    /// `generate_prechecked` sees each one unchecked: it must refuse
    /// without panicking. `generate` checks first and names the rule.
    #[test]
    fn unchecked_documents_are_refused_without_panicking() {
        use nsc_checker::ConstraintKind;
        let kb = kb();
        let mut cases = Vec::new();

        let (mut dangling, _) = doc_with_pipeline(&kb);
        dangling.control = Some(ControlNode::Pipeline(PipelineId(404)));
        cases.push((dangling, ConstraintKind::DanglingControlRef));

        let (mut stripped, pid) = doc_with_pipeline(&kb);
        let d = stripped.pipeline_mut(pid).unwrap();
        let wire = d.connections().next().expect("the plane read wire").id;
        d.connection_mut(wire).unwrap().dma = None;
        cases.push((stripped, ConstraintKind::DmaMissing));

        let (mut unbound, pid) = doc_with_pipeline(&kb);
        let d = unbound.pipeline_mut(pid).unwrap();
        let idle = d.add_icon(IconKind::als(AlsKind::Singlet));
        d.assign_fu(idle, 0, FuAssign::unary(FuOp::Abs)).unwrap();
        cases.push((unbound, ConstraintKind::UnboundIcon));

        // A second unit stores into the plane the pipeline already writes.
        let (mut contended, pid) = doc_with_pipeline(&kb);
        let d = contended.pipeline_mut(pid).unwrap();
        let src = d.add_icon(IconKind::Memory { plane: Some(PlaneId(2)) });
        let als = d.add_icon(IconKind::als(AlsKind::Singlet));
        let dst = d.add_icon(IconKind::Memory { plane: Some(PlaneId(1)) });
        nsc_checker::auto_bind(&kb, d, &Declarations::default());
        d.connect(
            PadLoc::new(src, PadRef::Io),
            PadLoc::new(als, PadRef::FuIn { pos: 0, port: InPort::A }),
            Some(DmaAttrs::at_address(0)),
        )
        .unwrap();
        d.connect(
            PadLoc::new(als, PadRef::FuOut { pos: 0 }),
            PadLoc::new(dst, PadRef::Io),
            Some(DmaAttrs::at_address(64)),
        )
        .unwrap();
        d.assign_fu(als, 0, FuAssign::unary(FuOp::Abs)).unwrap();
        cases.push((contended, ConstraintKind::PlaneContention));

        // Bindings and taps lowering indexes the machine by.
        let (mut nowhere, pid) = doc_with_pipeline(&kb);
        let d = nowhere.pipeline_mut(pid).unwrap();
        d.add_icon(IconKind::Memory { plane: Some(PlaneId(99)) });
        cases.push((nowhere, ConstraintKind::NoSuchResource));
        for tap in [0, 5] {
            // Six taps on a four-tap unit, the stream read from one of them.
            let (mut tapped, pid) = doc_with_pipeline(&kb);
            let d = tapped.pipeline_mut(pid).unwrap();
            let src = d.icons().next().expect("the source plane").id;
            let sdu = d.add_icon(IconKind::sdu());
            let dst = d.add_icon(IconKind::memory());
            nsc_checker::auto_bind(&kb, d, &Declarations::default());
            d.set_sdu_taps(sdu, vec![0, 1, 2, 3, 4, 5]).unwrap();
            let into = PadLoc::new(sdu, PadRef::SduIn);
            d.connect(PadLoc::new(src, PadRef::Io), into, Some(DmaAttrs::at_address(0))).unwrap();
            let out = PadLoc::new(sdu, PadRef::SduTap { tap });
            d.connect(out, PadLoc::new(dst, PadRef::Io), Some(DmaAttrs::at_address(0))).unwrap();
            cases.push((tapped, ConstraintKind::SduTapCount));
        }

        for (doc, rule) in cases {
            // The checker speaks only its own half of the taxonomy.
            let found = nsc_checker::rules::check_document(&kb, &doc);
            assert!(found.iter().all(|d| d.rule.is_checker_rule()), "{rule:?}: {found:?}");
            let lowered = generate_prechecked(&kb, &doc);
            assert!(lowered.is_err(), "{rule:?}: lowered to {lowered:?}");
            match generate(&kb, &doc) {
                Err(GenError::CheckFailed(diags)) => {
                    assert!(diags.iter().any(|d| d.rule == rule), "{rule:?}: {diags:?}");
                }
                other => panic!("{rule:?}: expected CheckFailed, got {other:?}"),
            }
        }
    }

    /// The largest tap delay the checker lets through is one that
    /// generates and encodes: one word short of the SDU's buffer, which on
    /// the 1988 machine is also the largest its 14-bit tap field holds.
    #[test]
    fn sdu_delays_the_checker_passes_encode() {
        use nsc_checker::ConstraintKind;
        let kb = kb();
        let buffer = u16::try_from(kb.config().sdu.buffer_words).expect("a 16-bit buffer");
        for delay in [buffer - 1, buffer] {
            let (mut doc, pid) = doc_with_pipeline(&kb);
            let d = doc.pipeline_mut(pid).unwrap();
            d.stream_len = u64::from(buffer) + 16;
            let src = d.icons().next().expect("the source plane").id;
            let sdu = d.add_icon(IconKind::sdu());
            let dst = d.add_icon(IconKind::memory());
            nsc_checker::auto_bind(&kb, d, &Declarations::default());
            d.set_sdu_taps(sdu, vec![delay]).unwrap();
            let into = PadLoc::new(sdu, PadRef::SduIn);
            d.connect(PadLoc::new(src, PadRef::Io), into, Some(DmaAttrs::at_address(0))).unwrap();
            let out = PadLoc::new(sdu, PadRef::SduTap { tap: 0 });
            d.connect(out, PadLoc::new(dst, PadRef::Io), Some(DmaAttrs::at_address(0))).unwrap();
            let generated = generate(&kb, &doc);
            if delay < buffer {
                let gen = generated.expect("the largest legal delay generates");
                assert_eq!(gen.program.instrs[0].sdus[0].taps[0].delay, delay);
                assert_eq!(gen.program.encode(&kb).len(), gen.program.len());
            } else {
                match generated {
                    Err(GenError::CheckFailed(diags)) => assert!(
                        diags.iter().any(|d| d.rule == ConstraintKind::SduDelayRange),
                        "{diags:?}"
                    ),
                    other => panic!("delay {delay}: {:?}", other.map(|_| "generated")),
                }
            }
        }
    }

    #[test]
    fn empty_document_reports() {
        let kb = kb();
        let doc = Document::new("empty");
        match generate(&kb, &doc) {
            Err(GenError::EmptyProgram) => {}
            other => panic!("expected EmptyProgram, got {other:?}"),
        }
    }

    #[test]
    fn zero_trip_loops_vanish() {
        let kb = kb();
        let (mut doc, pid) = doc_with_pipeline(&kb);
        doc.control = Some(ControlNode::Seq(vec![
            ControlNode::Repeat { times: 0, body: Box::new(ControlNode::Pipeline(pid)) },
            ControlNode::Pipeline(pid),
        ]));
        let out = generate(&kb, &doc).expect("generates");
        assert_eq!(out.program.len(), 1, "only the unconditional execution remains");
    }
}
