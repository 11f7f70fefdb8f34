//! Microcode programs: instruction sequences plus a disassembler.
//!
//! A program is what the microcode generator emits and the simulator runs:
//! an ordered list of [`MicroInstruction`]s with optional labels. The
//! disassembler renders the "reams of textual microassembler code" the
//! paper contrasts the visual environment against (§6) — useful both for
//! debugging and for the programming-effort experiment T3.

use crate::fu_field::FuInputSel;
use crate::instr::MicroInstruction;
use crate::seq::SeqCtl;
use nsc_arch::KnowledgeBase;
use serde::{Deserialize, Serialize};
use std::collections::HashMap;

/// An executable microcode program.
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct MicroProgram {
    /// Name of the machine configuration this program was generated for.
    pub machine: String,
    /// Program name (diagram document title).
    pub name: String,
    /// The instructions, executed from index 0.
    pub instrs: Vec<MicroInstruction>,
    /// Optional labels, keyed by instruction index.
    pub labels: HashMap<usize, String>,
}

impl MicroProgram {
    /// Number of instructions.
    pub fn len(&self) -> usize {
        self.instrs.len()
    }

    /// Whether the program is empty.
    pub fn is_empty(&self) -> bool {
        self.instrs.is_empty()
    }

    /// Total encoded size of the program in bits.
    pub fn total_bits(&self, kb: &KnowledgeBase) -> u64 {
        MicroInstruction::encoded_bits(kb) as u64 * self.instrs.len() as u64
    }

    /// Encode every instruction, concatenated (each byte-aligned).
    pub fn encode(&self, kb: &KnowledgeBase) -> Vec<Vec<u8>> {
        self.instrs.iter().map(|i| i.encode(kb)).collect()
    }

    /// Disassemble to text.
    pub fn disassemble(&self, kb: &KnowledgeBase) -> String {
        let mut out = String::new();
        out.push_str(&format!("; program '{}' for {}\n", self.name, self.machine));
        out.push_str(&format!(
            "; {} instruction(s), {} bits each\n",
            self.instrs.len(),
            MicroInstruction::encoded_bits(kb)
        ));
        for (idx, ins) in self.instrs.iter().enumerate() {
            if let Some(label) = self.labels.get(&idx) {
                out.push_str(&format!("{label}:\n"));
            }
            out.push_str(&format!("I{idx}:\n"));
            for fu in ins.enabled_fus() {
                let f = ins.fu(fu);
                out.push_str(&format!(
                    "  {:<5} {:<5} a={:<12} b={:<12}",
                    fu.to_string(),
                    f.op.mnemonic(),
                    sel_str(f.in_a),
                    sel_str(f.in_b)
                ));
                if let Some(v) = f.preload {
                    out.push_str(&format!(" rf[{}]={v}", f.const_slot));
                }
                out.push('\n');
            }
            for (sink, source) in ins.switch.iter_routes(kb) {
                out.push_str(&format!("  SW    {source} -> {sink}\n"));
            }
            for (i, d) in ins.plane_rd.iter().enumerate() {
                if d.enabled {
                    out.push_str(&format!(
                        "  DMA   MP{i}.rd base={} stride={} count={}\n",
                        d.base, d.stride, d.count
                    ));
                }
            }
            for (i, d) in ins.plane_wr.iter().enumerate() {
                if d.enabled {
                    out.push_str(&format!(
                        "  DMA   MP{i}.wr base={} stride={} count={} mode={:?}\n",
                        d.base, d.stride, d.count, d.mode
                    ));
                }
            }
            for (i, d) in ins.cache_rd.iter().enumerate() {
                if d.enabled {
                    out.push_str(&format!(
                        "  DMA   DC{i}.rd off={} stride={} count={} buf={}\n",
                        d.offset, d.stride, d.count, d.buffer
                    ));
                }
            }
            for (i, d) in ins.cache_wr.iter().enumerate() {
                if d.enabled {
                    out.push_str(&format!(
                        "  DMA   DC{i}.wr off={} stride={} count={} buf={} mode={:?}\n",
                        d.offset, d.stride, d.count, d.buffer, d.mode
                    ));
                }
            }
            for (i, s) in ins.sdus.iter().enumerate() {
                if s.enabled {
                    let taps: Vec<String> =
                        s.taps.iter().filter(|t| t.enabled).map(|t| t.delay.to_string()).collect();
                    out.push_str(&format!("  SDU{i}  delays: {}\n", taps.join(",")));
                }
            }
            if let Some(c) = &ins.seq.cond {
                out.push_str(&format!(
                    "  SEQ   if {}[{}] {} {:e} goto I{}\n",
                    c.cache,
                    c.offset,
                    c.cmp.mnemonic(),
                    c.threshold,
                    c.target
                ));
            }
            if let Some((ctr, val)) = ins.seq.set_counter {
                out.push_str(&format!("  SEQ   ctr{ctr} := {val}\n"));
            }
            match ins.seq.ctl {
                SeqCtl::Next => {}
                SeqCtl::Jump(t) => out.push_str(&format!("  SEQ   goto I{t}\n")),
                SeqCtl::DecJnz { ctr, target } => {
                    out.push_str(&format!("  SEQ   dec ctr{ctr}, jnz I{target}\n"))
                }
                SeqCtl::Halt => out.push_str("  SEQ   halt\n"),
            }
        }
        out
    }
}

fn sel_str(sel: FuInputSel) -> String {
    match sel {
        FuInputSel::Switch => "switch".to_string(),
        FuInputSel::Constant(s) => format!("rf[{s}]"),
        FuInputSel::Queue(d) => format!("queue({d})"),
        FuInputSel::Feedback(s) => format!("feedback({s})"),
    }
}

/// Incremental builder used by the microcode generator.
#[derive(Debug, Default)]
pub struct ProgramBuilder {
    machine: String,
    name: String,
    instrs: Vec<MicroInstruction>,
    labels: HashMap<usize, String>,
}

impl ProgramBuilder {
    /// Start a program for the given machine.
    pub fn new(kb: &KnowledgeBase, name: impl Into<String>) -> Self {
        ProgramBuilder {
            machine: kb.config().name.clone(),
            name: name.into(),
            instrs: Vec::new(),
            labels: HashMap::new(),
        }
    }

    /// Index the next pushed instruction will get.
    pub fn next_index(&self) -> usize {
        self.instrs.len()
    }

    /// Attach a label to the next pushed instruction.
    pub fn label(&mut self, text: impl Into<String>) -> &mut Self {
        self.labels.insert(self.instrs.len(), text.into());
        self
    }

    /// Append an instruction, returning its index.
    pub fn push(&mut self, ins: MicroInstruction) -> usize {
        self.instrs.push(ins);
        self.instrs.len() - 1
    }

    /// Access a pushed instruction for patching (e.g. branch targets).
    pub fn instr_mut(&mut self, idx: usize) -> &mut MicroInstruction {
        &mut self.instrs[idx]
    }

    /// Finish the program.
    pub fn finish(self) -> MicroProgram {
        MicroProgram {
            machine: self.machine,
            name: self.name,
            instrs: self.instrs,
            labels: self.labels,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dma::PlaneDmaField;
    use crate::fu_field::FuField;
    use nsc_arch::{FuId, FuOp, InPort, PlaneId, SinkRef, SourceRef};

    fn small_program(kb: &KnowledgeBase) -> MicroProgram {
        let mut b = ProgramBuilder::new(kb, "axpy");
        let mut ins = MicroInstruction::empty(kb);
        *ins.fu_mut(FuId(0)) = FuField::active(FuOp::Mul);
        *ins.plane_rd_mut(PlaneId(0)) = PlaneDmaField::contiguous(0, 16);
        ins.switch
            .route(kb, SourceRef::PlaneRead(PlaneId(0)), SinkRef::FuIn(FuId(0), InPort::A))
            .unwrap();
        ins.switch.route(kb, SourceRef::Fu(FuId(0)), SinkRef::PlaneWrite(PlaneId(1))).unwrap();
        *ins.plane_wr_mut(PlaneId(1)) = PlaneDmaField::contiguous(0, 16);
        ins.seq = crate::seq::SequencerField::halt();
        b.label("main");
        b.push(ins);
        b.finish()
    }

    #[test]
    fn builder_assembles_programs() {
        let kb = KnowledgeBase::nsc_1988();
        let p = small_program(&kb);
        assert_eq!(p.len(), 1);
        assert!(!p.is_empty());
        assert_eq!(p.labels.get(&0).map(String::as_str), Some("main"));
        assert_eq!(p.machine, "NSC (1988 sizing)");
    }

    #[test]
    fn total_bits_scales_with_length() {
        let kb = KnowledgeBase::nsc_1988();
        let p = small_program(&kb);
        assert_eq!(p.total_bits(&kb), MicroInstruction::encoded_bits(&kb) as u64);
    }

    #[test]
    fn encode_emits_one_blob_per_instruction() {
        let kb = KnowledgeBase::nsc_1988();
        let p = small_program(&kb);
        let blobs = p.encode(&kb);
        assert_eq!(blobs.len(), 1);
        let back = MicroInstruction::decode(&kb, &blobs[0]).unwrap();
        assert_eq!(back, p.instrs[0]);
    }

    #[test]
    fn disassembly_mentions_the_moving_parts() {
        let kb = KnowledgeBase::nsc_1988();
        let p = small_program(&kb);
        let asm = p.disassemble(&kb);
        assert!(asm.contains("axpy"));
        assert!(asm.contains("main:"));
        assert!(asm.contains("FU0"));
        assert!(asm.contains("MUL"));
        assert!(asm.contains("MP0.rd"));
        assert!(asm.contains("MP1.wr"));
        assert!(asm.contains("halt"));
    }

    #[test]
    fn builder_patches_branch_targets() {
        let kb = KnowledgeBase::nsc_1988();
        let mut b = ProgramBuilder::new(&kb, "loop");
        let i0 = b.push(MicroInstruction::empty(&kb));
        let i1 = b.push(MicroInstruction::empty(&kb));
        b.instr_mut(i0).seq.ctl = SeqCtl::Jump(i1 as u16);
        b.instr_mut(i1).seq.ctl = SeqCtl::Halt;
        let p = b.finish();
        assert_eq!(p.instrs[0].seq.ctl, SeqCtl::Jump(1));
        assert_eq!(p.instrs[1].seq.ctl, SeqCtl::Halt);
    }
}
