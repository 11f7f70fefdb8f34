//! The complete microinstruction: "the effect of an instruction is to
//! completely specify the pipeline configuration and function unit
//! operations for the entire machine" (paper §3).

use crate::bits::{BitReader, BitUnderflow, BitWriter};
use crate::census::Census;
use crate::dma::{CacheDmaField, PlaneDmaField};
use crate::fu_field::FuField;
use crate::sdu_field::SduField;
use crate::seq::SequencerField;
use crate::switch_table::SwitchTable;
use nsc_arch::{CacheId, FuId, KnowledgeBase, PlaneId, SduId};
use serde::{Deserialize, Serialize};

/// One instruction word, structured. Vectors are indexed by resource id and
/// sized for a particular machine.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MicroInstruction {
    /// Control for every functional unit.
    pub fus: Vec<FuField>,
    /// The switch-network program.
    pub switch: SwitchTable,
    /// Read-side DMA for every memory plane.
    pub plane_rd: Vec<PlaneDmaField>,
    /// Write-side DMA for every memory plane.
    pub plane_wr: Vec<PlaneDmaField>,
    /// Read-side DMA for every cache.
    pub cache_rd: Vec<CacheDmaField>,
    /// Write-side DMA for every cache.
    pub cache_wr: Vec<CacheDmaField>,
    /// Control for every shift/delay unit.
    pub sdus: Vec<SduField>,
    /// Sequencer control.
    pub seq: SequencerField,
}

impl MicroInstruction {
    /// An all-idle instruction sized for the machine.
    pub fn empty(kb: &KnowledgeBase) -> Self {
        let cfg = kb.config();
        MicroInstruction {
            fus: vec![FuField::disabled(); cfg.fu_count()],
            switch: SwitchTable::empty(kb),
            plane_rd: vec![PlaneDmaField::idle(); cfg.memory.planes],
            plane_wr: vec![PlaneDmaField::idle(); cfg.memory.planes],
            cache_rd: vec![CacheDmaField::idle(); cfg.cache.caches],
            cache_wr: vec![CacheDmaField::idle(); cfg.cache.caches],
            sdus: vec![SduField::idle(); cfg.sdu.units],
            seq: SequencerField::next(),
        }
    }

    /// Mutable access to one FU field.
    pub fn fu_mut(&mut self, fu: FuId) -> &mut FuField {
        &mut self.fus[fu.index()]
    }

    /// One FU field.
    pub fn fu(&self, fu: FuId) -> &FuField {
        &self.fus[fu.index()]
    }

    /// Mutable plane read descriptor.
    pub fn plane_rd_mut(&mut self, p: PlaneId) -> &mut PlaneDmaField {
        &mut self.plane_rd[p.index()]
    }

    /// Mutable plane write descriptor.
    pub fn plane_wr_mut(&mut self, p: PlaneId) -> &mut PlaneDmaField {
        &mut self.plane_wr[p.index()]
    }

    /// Mutable cache read descriptor.
    pub fn cache_rd_mut(&mut self, c: CacheId) -> &mut CacheDmaField {
        &mut self.cache_rd[c.index()]
    }

    /// Mutable cache write descriptor.
    pub fn cache_wr_mut(&mut self, c: CacheId) -> &mut CacheDmaField {
        &mut self.cache_wr[c.index()]
    }

    /// Mutable SDU field.
    pub fn sdu_mut(&mut self, s: SduId) -> &mut SduField {
        &mut self.sdus[s.index()]
    }

    /// Functional units enabled in this instruction.
    pub fn enabled_fus(&self) -> impl Iterator<Item = FuId> + '_ {
        self.fus.iter().enumerate().filter(|(_, f)| f.enabled).map(|(i, _)| FuId(i as u8))
    }

    /// Exact encoded width in bits for this machine.
    pub fn encoded_bits(kb: &KnowledgeBase) -> u32 {
        Census::of_machine(kb).total_bits()
    }

    /// Pack the instruction into bytes (MSB-first bit stream).
    pub fn encode(&self, kb: &KnowledgeBase) -> Vec<u8> {
        let mut w = BitWriter::new();
        for f in &self.fus {
            f.encode(&mut w);
        }
        self.switch.encode(kb, &mut w);
        for d in self.plane_rd.iter().chain(&self.plane_wr) {
            d.encode(&mut w);
        }
        for d in self.cache_rd.iter().chain(&self.cache_wr) {
            d.encode(&mut w);
        }
        for s in &self.sdus {
            s.encode(&mut w);
        }
        self.seq.encode(&mut w);
        debug_assert_eq!(w.len_bits() as u32, Self::encoded_bits(kb));
        w.finish()
    }

    /// Unpack an instruction from bytes.
    pub fn decode(kb: &KnowledgeBase, bytes: &[u8]) -> Result<Self, BitUnderflow> {
        let cfg = kb.config();
        let mut r = BitReader::new(bytes);
        let mut fus = Vec::with_capacity(cfg.fu_count());
        for _ in 0..cfg.fu_count() {
            fus.push(FuField::decode(&mut r)?);
        }
        let switch = SwitchTable::decode(kb, &mut r)?;
        let mut plane_rd = Vec::with_capacity(cfg.memory.planes);
        for _ in 0..cfg.memory.planes {
            plane_rd.push(PlaneDmaField::decode(&mut r)?);
        }
        let mut plane_wr = Vec::with_capacity(cfg.memory.planes);
        for _ in 0..cfg.memory.planes {
            plane_wr.push(PlaneDmaField::decode(&mut r)?);
        }
        let mut cache_rd = Vec::with_capacity(cfg.cache.caches);
        for _ in 0..cfg.cache.caches {
            cache_rd.push(CacheDmaField::decode(&mut r)?);
        }
        let mut cache_wr = Vec::with_capacity(cfg.cache.caches);
        for _ in 0..cfg.cache.caches {
            cache_wr.push(CacheDmaField::decode(&mut r)?);
        }
        let mut sdus = Vec::with_capacity(cfg.sdu.units);
        for _ in 0..cfg.sdu.units {
            sdus.push(SduField::decode(&mut r)?);
        }
        let seq = SequencerField::decode(&mut r)?;
        Ok(MicroInstruction { fus, switch, plane_rd, plane_wr, cache_rd, cache_wr, sdus, seq })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dma::WriteMode;
    use crate::fu_field::FuInputSel;
    use crate::seq::{CmpKind, CondBranch, SeqCtl};
    use nsc_arch::{FuOp, InPort, SinkRef, SourceRef};

    fn kb() -> KnowledgeBase {
        KnowledgeBase::nsc_1988()
    }

    fn sample(kb: &KnowledgeBase) -> MicroInstruction {
        let mut ins = MicroInstruction::empty(kb);
        // FU0: add the streams on its two inputs.
        *ins.fu_mut(FuId(0)) = FuField::active(FuOp::Add);
        // FU2: running max with feedback initialized to 0.
        *ins.fu_mut(FuId(2)) = FuField {
            enabled: true,
            op: FuOp::MaxAbs,
            in_a: FuInputSel::Switch,
            in_b: FuInputSel::Feedback(0),
            const_slot: 0,
            preload: Some(0.0),
        };
        // Plane 0 streams 512 words to FU0.a; plane 1 to FU0.b.
        *ins.plane_rd_mut(PlaneId(0)) = PlaneDmaField::contiguous(0, 512);
        *ins.plane_rd_mut(PlaneId(1)) = PlaneDmaField::contiguous(1024, 512);
        ins.switch
            .route(kb, SourceRef::PlaneRead(PlaneId(0)), SinkRef::FuIn(FuId(0), InPort::A))
            .unwrap();
        ins.switch
            .route(kb, SourceRef::PlaneRead(PlaneId(1)), SinkRef::FuIn(FuId(0), InPort::B))
            .unwrap();
        // Result to plane 2; residual to cache 0 as a scalar.
        ins.switch.route(kb, SourceRef::Fu(FuId(0)), SinkRef::PlaneWrite(PlaneId(2))).unwrap();
        ins.switch.route(kb, SourceRef::Fu(FuId(0)), SinkRef::FuIn(FuId(2), InPort::A)).unwrap();
        ins.switch.route(kb, SourceRef::Fu(FuId(2)), SinkRef::CacheWrite(CacheId(0))).unwrap();
        *ins.plane_wr_mut(PlaneId(2)) = PlaneDmaField::contiguous(0, 512);
        *ins.cache_wr_mut(CacheId(0)) = CacheDmaField::scalar_capture(0);
        ins.seq = crate::seq::SequencerField {
            set_counter: None,
            cond: Some(CondBranch {
                cache: CacheId(0),
                offset: 0,
                cmp: CmpKind::Ge,
                threshold: 1e-6,
                target: 0,
            }),
            ctl: SeqCtl::Halt,
        };
        ins
    }

    #[test]
    fn empty_instruction_round_trips() {
        let kb = kb();
        let ins = MicroInstruction::empty(&kb);
        let bytes = ins.encode(&kb);
        assert_eq!(MicroInstruction::decode(&kb, &bytes).unwrap(), ins);
    }

    #[test]
    fn realistic_instruction_round_trips() {
        let kb = kb();
        let ins = sample(&kb);
        let bytes = ins.encode(&kb);
        let back = MicroInstruction::decode(&kb, &bytes).unwrap();
        assert_eq!(back, ins);
        assert_eq!(back.cache_wr[0].mode, WriteMode::LastOnly);
    }

    #[test]
    fn encoded_size_matches_census_exactly() {
        let kb = kb();
        let ins = sample(&kb);
        let bytes = ins.encode(&kb);
        let bits = MicroInstruction::encoded_bits(&kb);
        assert_eq!(bytes.len(), (bits as usize).div_ceil(8));
        // "a few thousand bits"
        assert!(bits > 2000 && bits < 10000, "{bits}");
    }

    #[test]
    fn enabled_fus_lists_active_units() {
        let kb = kb();
        let ins = sample(&kb);
        let active: Vec<_> = ins.enabled_fus().collect();
        assert_eq!(active, vec![FuId(0), FuId(2)]);
    }

    #[test]
    fn truncated_bytes_fail_cleanly() {
        let kb = kb();
        let ins = sample(&kb);
        let bytes = ins.encode(&kb);
        let err = MicroInstruction::decode(&kb, &bytes[..bytes.len() / 2]);
        assert!(err.is_err());
    }

    #[test]
    fn decode_under_a_different_machine_differs_or_fails() {
        let kb_full = kb();
        let kb_sub = KnowledgeBase::new(
            nsc_arch::MachineConfig::nsc_1988().subset(nsc_arch::SubsetModel::NoCaches),
        );
        let ins = sample(&kb_full);
        let bytes = ins.encode(&kb_full);
        // The subset machine's word is shorter; decoding either fails or
        // yields a different instruction — it must never silently equal.
        if let Ok(other) = MicroInstruction::decode(&kb_sub, &bytes) {
            assert_ne!(other, ins);
        }
    }
}
