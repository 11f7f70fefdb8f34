//! Field and bit census of the instruction word (experiment T2).
//!
//! The paper's §3 claim under test: one instruction "requires a few
//! thousand bits of information per instruction, encoded in dozens of
//! separate fields." [`Census::of_machine`] computes the exact encoded
//! width and counts fields at two granularities: *groups* (one per
//! architectural control section — a FU field, a DMA descriptor, the switch
//! table, the sequencer) and *leaf fields* (every individually-set value).

use crate::dma::{CacheDmaField, PlaneDmaField};
use crate::fu_field::FuField;
use crate::sdu_field::SduField;
use crate::seq::SequencerField;
use crate::switch_table::SwitchTable;
use nsc_arch::KnowledgeBase;
use serde::{Deserialize, Serialize};

/// One architectural section of the instruction word.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct FieldGroup {
    /// Section name (e.g. "functional units").
    pub name: String,
    /// How many instances of the section the word contains.
    pub instances: usize,
    /// Encoded bits per instance.
    pub bits_each: u32,
    /// Leaf fields per instance.
    pub leaf_fields_each: usize,
}

impl FieldGroup {
    /// Total bits contributed by this group.
    pub fn total_bits(&self) -> u32 {
        self.instances as u32 * self.bits_each
    }

    /// Total leaf fields contributed by this group.
    pub fn total_leaves(&self) -> usize {
        self.instances * self.leaf_fields_each
    }
}

/// The complete census of one machine's instruction word.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Census {
    /// Per-section breakdown.
    pub groups: Vec<FieldGroup>,
}

impl Census {
    /// Compute the census for a machine.
    pub fn of_machine(kb: &KnowledgeBase) -> Self {
        let cfg = kb.config();
        let groups = vec![
            FieldGroup {
                name: "functional units".into(),
                instances: cfg.fu_count(),
                bits_each: FuField::BITS,
                leaf_fields_each: FuField::LEAF_FIELDS,
            },
            FieldGroup {
                name: "switch network (per-sink source selects)".into(),
                instances: 1,
                bits_each: SwitchTable::bits(kb),
                leaf_fields_each: kb.sinks().len(),
            },
            FieldGroup {
                name: "memory-plane DMA (read+write per plane)".into(),
                instances: cfg.memory.planes * 2,
                bits_each: PlaneDmaField::BITS,
                leaf_fields_each: PlaneDmaField::LEAF_FIELDS,
            },
            FieldGroup {
                name: "cache DMA (read+write per cache)".into(),
                instances: cfg.cache.caches * 2,
                bits_each: CacheDmaField::BITS,
                leaf_fields_each: CacheDmaField::LEAF_FIELDS,
            },
            FieldGroup {
                name: "shift/delay units".into(),
                instances: cfg.sdu.units,
                bits_each: SduField::BITS,
                leaf_fields_each: SduField::LEAF_FIELDS,
            },
            FieldGroup {
                name: "sequencer".into(),
                instances: 1,
                bits_each: SequencerField::BITS,
                leaf_fields_each: SequencerField::LEAF_FIELDS,
            },
        ];
        Census { groups }
    }

    /// Total encoded bits of one instruction.
    pub fn total_bits(&self) -> u32 {
        self.groups.iter().map(FieldGroup::total_bits).sum()
    }

    /// Total architectural field groups ("dozens of separate fields").
    pub fn total_groups(&self) -> usize {
        self.groups.iter().map(|g| g.instances).sum()
    }

    /// Total leaf fields (every individually-encoded value).
    pub fn total_leaves(&self) -> usize {
        self.groups.iter().map(FieldGroup::total_leaves).sum()
    }

    /// Render the census as a text table (the `architecture_tour` example
    /// and the `microcode_width` bench print it).
    pub fn render_table(&self) -> String {
        let mut out = String::new();
        out.push_str("section                                      count  bits/each  bits total\n");
        for g in &self.groups {
            out.push_str(&format!(
                "{:<44} {:>5} {:>10} {:>11}\n",
                g.name,
                g.instances,
                g.bits_each,
                g.total_bits()
            ));
        }
        out.push_str(&format!(
            "TOTAL: {} bits ({} bytes) in {} field groups / {} leaf fields\n",
            self.total_bits(),
            self.total_bits().div_ceil(8),
            self.total_groups(),
            self.total_leaves()
        ));
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_1988_word_is_a_few_thousand_bits() {
        let kb = KnowledgeBase::nsc_1988();
        let census = Census::of_machine(&kb);
        let bits = census.total_bits();
        // "a few thousand bits of information per instruction"
        assert!((2000..10000).contains(&bits), "{bits} bits is not 'a few thousand'");
    }

    #[test]
    fn the_1988_word_has_dozens_of_field_groups() {
        let kb = KnowledgeBase::nsc_1988();
        let census = Census::of_machine(&kb);
        // "encoded in dozens of separate fields": 32 FU + 32 plane DMA +
        // 32 cache DMA + 2 SDU + switch + sequencer = 100 sections.
        let groups = census.total_groups();
        assert!((24..=200).contains(&groups), "{groups} groups");
        assert!(census.total_leaves() > groups);
    }

    #[test]
    fn totals_are_sums_of_groups() {
        let kb = KnowledgeBase::nsc_1988();
        let census = Census::of_machine(&kb);
        let manual: u32 = census.groups.iter().map(|g| g.instances as u32 * g.bits_each).sum();
        assert_eq!(census.total_bits(), manual);
    }

    #[test]
    fn subset_machines_shrink_the_word() {
        let full = Census::of_machine(&KnowledgeBase::nsc_1988());
        let nocache = Census::of_machine(&KnowledgeBase::new(
            nsc_arch::MachineConfig::nsc_1988().subset(nsc_arch::SubsetModel::NoCaches),
        ));
        assert!(nocache.total_bits() < full.total_bits());
    }

    #[test]
    fn render_mentions_every_group() {
        let census = Census::of_machine(&KnowledgeBase::nsc_1988());
        let table = census.render_table();
        for g in &census.groups {
            assert!(table.contains(&g.name), "missing {}", g.name);
        }
        assert!(table.contains("TOTAL"));
    }
}
