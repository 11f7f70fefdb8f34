//! Memory planes, double-buffered data caches, and shift/delay units.
//!
//! Paper §2: "Memory is arranged in 16 planes of 128 Mbytes each, for a
//! total memory of 2 Gbytes per node. In addition, there are 16
//! double-buffered data caches. Two shift/delay units are provided to aid in
//! reformatting memory data into multiple vector streams."
//!
//! The §3 constraint that dominates compilation — "During an instruction
//! (vector operation), a function unit can read or write in only a single
//! memory plane, and multiple function units working in the same memory
//! plane can cause contention problems" — is recorded here as plane port
//! counts for the checker to enforce.

use serde::{Deserialize, Serialize};

/// Sizing of the memory-plane subsystem.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct MemorySpec {
    /// Number of independent memory planes per node (16 in 1988).
    pub planes: usize,
    /// Capacity of one plane in 64-bit words (128 MB = 16 Mi words in 1988).
    pub words_per_plane: u64,
    /// Read ports per plane exposed to the switch (1: the §3 constraint).
    pub read_ports_per_plane: usize,
    /// Write ports per plane exposed to the switch (1: the §3 constraint).
    pub write_ports_per_plane: usize,
}

impl MemorySpec {
    /// Total node memory in bytes.
    pub fn total_bytes(&self) -> u64 {
        self.planes as u64 * self.words_per_plane * 8
    }

    /// Total node memory in whole gigabytes (2 GB in the published sizing).
    pub fn total_gigabytes(&self) -> u64 {
        self.total_bytes() >> 30
    }

    /// Bytes per plane (128 MB in the published sizing).
    pub fn bytes_per_plane(&self) -> u64 {
        self.words_per_plane * 8
    }
}

/// Sizing of the double-buffered data caches.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct CacheSpec {
    /// Number of caches per node (16 in 1988).
    pub caches: usize,
    /// Words in one buffer of one cache (8 K words here; paper Figure 1's
    /// legend is garbled in the scan — "\[8\]KB x 16 x 2" — so the buffer
    /// size is a model parameter, pinned by `MachineConfig::nsc_1988`).
    pub words_per_buffer: u64,
    /// Buffers per cache; 2 = double-buffered, which is what lets one buffer
    /// stream to the pipelines while DMA refills the other.
    pub buffers: usize,
}

impl CacheSpec {
    /// Total cache capacity of the node in words.
    pub fn total_words(&self) -> u64 {
        self.caches as u64 * self.words_per_buffer * self.buffers as u64
    }
}

/// Sizing of the shift/delay units.
///
/// An SDU accepts one input stream and re-emits it on several taps, each tap
/// delayed by a programmable number of elements (and optionally strided).
/// This is how a single memory-plane stream becomes the six neighbour
/// streams of a 3-D stencil: taps delayed by `0`, `nxny-nx`, `nxny-1`,
/// `nxny+1`, `nxny+nx` and `2*nxny` around the centre stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct SduSpec {
    /// Number of shift/delay units per node (2 in 1988).
    pub units: usize,
    /// Output taps per unit.
    pub taps_per_unit: usize,
    /// Internal buffer length in words; the largest programmable tap delay.
    /// 16 Ki words covers `2*nx*ny` for grids up to 64 x 64 in the plane.
    pub buffer_words: u32,
}

impl SduSpec {
    /// Total delayed streams the node can synthesize at once.
    pub fn total_taps(&self) -> usize {
        self.units * self.taps_per_unit
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn paper_memory() -> MemorySpec {
        MemorySpec {
            planes: 16,
            words_per_plane: 16 * 1024 * 1024,
            read_ports_per_plane: 1,
            write_ports_per_plane: 1,
        }
    }

    #[test]
    fn paper_memory_sizing_reproduces() {
        let m = paper_memory();
        assert_eq!(m.bytes_per_plane(), 128 * 1024 * 1024, "128 MB per plane");
        assert_eq!(m.total_gigabytes(), 2, "2 GB per node");
        assert_eq!(m.total_bytes(), 2 * 1024 * 1024 * 1024);
    }

    #[test]
    fn single_port_planes_encode_the_contention_constraint() {
        let m = paper_memory();
        assert_eq!(m.read_ports_per_plane, 1);
        assert_eq!(m.write_ports_per_plane, 1);
    }

    #[test]
    fn cache_capacity() {
        let c = CacheSpec { caches: 16, words_per_buffer: 8192, buffers: 2 };
        assert_eq!(c.total_words(), 16 * 8192 * 2);
    }

    #[test]
    fn sdu_taps_cover_a_3d_stencil() {
        let s = SduSpec { units: 2, taps_per_unit: 4, buffer_words: 16384 };
        // A 7-point stencil needs 6 neighbour taps plus the centre: two SDUs
        // fed from the same plane stream provide 8 taps.
        assert!(s.total_taps() >= 7);
        // And the buffer must hold two full xy-planes of a 64x64 grid.
        assert!(s.buffer_words >= 2 * 64 * 64);
    }
}
