//! The machine configuration: every parameter of one NSC node.
//!
//! [`MachineConfig::nsc_1988`] pins the sizing so the paper's published
//! numbers reproduce exactly (§2: 32 functional units, 2 GB in 16 planes,
//! 16 double-buffered caches, 2 shift/delay units, 640 MFLOPS peak per
//! node). [`SubsetModel`] implements the paper's §6 proposal — "to use a
//! simpler architectural model, perhaps a subset of the NSC. The tradeoff
//! here is between performance and programmability" — as explicit restricted
//! configurations for the ablation experiment (T4).

use crate::als::AlsKind;
use crate::memory::{CacheSpec, MemorySpec, SduSpec};
use crate::switch::SwitchSpec;
use crate::timing::LatencyTable;
use serde::{Deserialize, Serialize};

/// Complete description of one NSC node.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MachineConfig {
    /// Human-readable name of this configuration (shown in window titles).
    pub name: String,
    /// Node clock in Hz. 20 MHz x 32 FUs = the published 640 MFLOPS peak.
    pub clock_hz: u64,
    /// Number of triplet ALSs.
    pub triplets: usize,
    /// Number of doublet ALSs.
    pub doublets: usize,
    /// Number of singlet ALSs.
    pub singlets: usize,
    /// Memory-plane subsystem.
    pub memory: MemorySpec,
    /// Data-cache subsystem.
    pub cache: CacheSpec,
    /// Shift/delay units.
    pub sdu: SduSpec,
    /// Switch network limits.
    pub switch: SwitchSpec,
    /// Functional-unit pipeline depths.
    pub latency: LatencyTable,
    /// Words in each functional unit's register file (constants,
    /// intermediates, and circular delay queues share this space).
    pub rf_words: usize,
    /// If set, at most this many functional units per ALS may be active in
    /// one instruction (the "subset" restriction of §6; `None` = full NSC).
    pub max_active_per_als: Option<usize>,
}

impl MachineConfig {
    /// The pinned 1988 configuration: the paper's §2 counts listed in the
    /// crate docs, with the parameters the paper leaves open chosen here.
    ///
    /// ALS mix: 4 triplets + 8 doublets + 4 singlets = 32 functional units.
    pub fn nsc_1988() -> Self {
        MachineConfig {
            name: "NSC (1988 sizing)".to_string(),
            clock_hz: 20_000_000,
            triplets: 4,
            doublets: 8,
            singlets: 4,
            memory: MemorySpec {
                planes: 16,
                words_per_plane: 16 * 1024 * 1024,
                read_ports_per_plane: 1,
                write_ports_per_plane: 1,
            },
            cache: CacheSpec { caches: 16, words_per_buffer: 8192, buffers: 2 },
            sdu: SduSpec { units: 2, taps_per_unit: 4, buffer_words: 16384 },
            switch: SwitchSpec { max_fanout: 4 },
            latency: LatencyTable::NSC_1988,
            rf_words: 64,
            max_active_per_als: None,
        }
    }

    /// A scaled-down configuration for fast unit tests: same shape and
    /// rules as the 1988 machine, tiny capacities.
    pub fn test_small() -> Self {
        MachineConfig {
            name: "NSC (test-small)".to_string(),
            clock_hz: 20_000_000,
            triplets: 1,
            doublets: 2,
            singlets: 1,
            memory: MemorySpec {
                planes: 4,
                words_per_plane: 4096,
                read_ports_per_plane: 1,
                write_ports_per_plane: 1,
            },
            cache: CacheSpec { caches: 4, words_per_buffer: 256, buffers: 2 },
            sdu: SduSpec { units: 1, taps_per_unit: 4, buffer_words: 512 },
            switch: SwitchSpec { max_fanout: 4 },
            latency: LatencyTable::NSC_1988,
            rf_words: 64,
            max_active_per_als: None,
        }
    }

    /// Apply a §6 subset restriction, returning the restricted machine.
    pub fn subset(&self, model: SubsetModel) -> MachineConfig {
        let mut cfg = self.clone();
        match model {
            SubsetModel::Full => {}
            SubsetModel::SingletsOnly => {
                cfg.name = format!("{} [singlets-only subset]", self.name);
                cfg.max_active_per_als = Some(1);
            }
            SubsetModel::NoCaches => {
                cfg.name = format!("{} [no-cache subset]", self.name);
                cfg.cache.caches = 0;
            }
            SubsetModel::NoSdu => {
                cfg.name = format!("{} [no-shift/delay subset]", self.name);
                cfg.sdu.units = 0;
            }
        }
        cfg
    }

    /// The ALS mix in layout order: triplets, then doublets, then singlets.
    pub fn als_kinds(&self) -> impl Iterator<Item = AlsKind> + '_ {
        std::iter::repeat_n(AlsKind::Triplet, self.triplets)
            .chain(std::iter::repeat_n(AlsKind::Doublet, self.doublets))
            .chain(std::iter::repeat_n(AlsKind::Singlet, self.singlets))
    }

    /// Total ALS count.
    pub fn als_count(&self) -> usize {
        self.triplets + self.doublets + self.singlets
    }

    /// Total functional units in the node.
    pub fn fu_count(&self) -> usize {
        self.triplets * 3 + self.doublets * 2 + self.singlets
    }

    /// Functional units usable simultaneously under the subset restriction.
    pub fn usable_fu_count(&self) -> usize {
        match self.max_active_per_als {
            None => self.fu_count(),
            Some(k) => {
                self.triplets * k.min(3) + self.doublets * k.min(2) + self.singlets * k.min(1)
            }
        }
    }

    /// Peak floating-point rate in MFLOPS: one result per usable FU per
    /// clock. For the 1988 sizing this is the paper's 640 MFLOPS.
    pub fn peak_mflops(&self) -> f64 {
        self.usable_fu_count() as f64 * self.clock_hz as f64 / 1.0e6
    }

    /// Peak rate of an `n`-node hypercube system in GFLOPS (the paper's
    /// 64-node figure is 40 GFLOPS).
    pub fn system_peak_gflops(&self, nodes: usize) -> f64 {
        self.peak_mflops() * nodes as f64 / 1.0e3
    }

    /// Total memory of an `n`-node system in gigabytes (128 GB at 64 nodes).
    pub fn system_memory_gb(&self, nodes: usize) -> u64 {
        self.memory.total_gigabytes() * nodes as u64
    }
}

impl Default for MachineConfig {
    fn default() -> Self {
        Self::nsc_1988()
    }
}

/// The §6 "simpler architectural model" variants used by experiment T4.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum SubsetModel {
    /// The full NSC, no restriction.
    Full,
    /// Every ALS restricted to one active unit (doublets/triplets operate
    /// as singlets, the generalization of the Figure 4 bypass form).
    SingletsOnly,
    /// No data caches: all streams to and from memory planes directly.
    NoCaches,
    /// No shift/delay units: stencil neighbour streams must come from
    /// separate plane copies of the array (§3's "multiple copies of
    /// arrays").
    NoSdu,
}

impl SubsetModel {
    /// All variants in presentation order.
    pub const ALL: [SubsetModel; 4] =
        [SubsetModel::Full, SubsetModel::SingletsOnly, SubsetModel::NoCaches, SubsetModel::NoSdu];

    /// Short label for tables.
    pub fn label(self) -> &'static str {
        match self {
            SubsetModel::Full => "full NSC",
            SubsetModel::SingletsOnly => "singlets-only",
            SubsetModel::NoCaches => "no caches",
            SubsetModel::NoSdu => "no shift/delay",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_headline_numbers_reproduce_exactly() {
        let cfg = MachineConfig::nsc_1988();
        assert_eq!(cfg.fu_count(), 32, "32 functional units per node");
        assert_eq!(cfg.peak_mflops(), 640.0, "640 MFLOPS peak per node");
        assert_eq!(cfg.memory.total_gigabytes(), 2, "2 GB per node");
        assert_eq!(cfg.system_peak_gflops(64), 40.96_f64.floor() + 0.96, "~40 GFLOPS at 64 nodes");
        assert!((cfg.system_peak_gflops(64) - 40.96).abs() < 1e-9);
        assert_eq!(cfg.system_memory_gb(64), 128, "128 GB at 64 nodes");
    }

    #[test]
    fn als_mix_adds_up() {
        let cfg = MachineConfig::nsc_1988();
        assert_eq!(cfg.als_count(), 16);
        let kinds: Vec<_> = cfg.als_kinds().collect();
        assert_eq!(kinds.len(), 16);
        assert_eq!(kinds.iter().filter(|k| **k == AlsKind::Triplet).count(), 4);
        assert_eq!(kinds.iter().filter(|k| **k == AlsKind::Doublet).count(), 8);
        assert_eq!(kinds.iter().filter(|k| **k == AlsKind::Singlet).count(), 4);
    }

    #[test]
    fn singlets_only_subset_halves_usable_units() {
        let cfg = MachineConfig::nsc_1988();
        let sub = cfg.subset(SubsetModel::SingletsOnly);
        assert_eq!(sub.usable_fu_count(), 16, "one unit per ALS");
        assert_eq!(sub.fu_count(), 32, "hardware is unchanged");
        assert_eq!(sub.peak_mflops(), 320.0);
    }

    #[test]
    fn no_cache_and_no_sdu_subsets() {
        let cfg = MachineConfig::nsc_1988();
        assert_eq!(cfg.subset(SubsetModel::NoCaches).cache.caches, 0);
        assert_eq!(cfg.subset(SubsetModel::NoSdu).sdu.units, 0);
        assert_eq!(cfg.subset(SubsetModel::Full), cfg);
    }

    #[test]
    fn subset_labels_are_distinct() {
        let labels: std::collections::HashSet<_> =
            SubsetModel::ALL.iter().map(|m| m.label()).collect();
        assert_eq!(labels.len(), SubsetModel::ALL.len());
    }

    #[test]
    fn test_small_is_consistent() {
        let cfg = MachineConfig::test_small();
        assert_eq!(cfg.fu_count(), 3 + 2 * 2 + 1);
        assert_eq!(cfg.als_count(), 4);
        assert!(cfg.peak_mflops() > 0.0);
    }

    #[test]
    fn config_serde_round_trip() {
        let cfg = MachineConfig::nsc_1988();
        let json = serde_json::to_string(&cfg).unwrap();
        let back: MachineConfig = serde_json::from_str(&json).unwrap();
        assert_eq!(back, cfg);
    }
}
