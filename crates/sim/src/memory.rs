//! Memory planes and double-buffered caches.
//!
//! A plane is 16 Mi words (128 MB) in the published sizing; simulating 16
//! of them per node times 64 nodes eagerly would be 128 GB, so planes
//! allocate lazily in 4 Ki-word (32 KB) pages: a 17² cavity grid costs
//! one page. A cache buffer (8 Ki words in the published sizing)
//! likewise allocates on its first write, so a fresh node holds no
//! storage until a program writes some.
//! Unwritten memory reads as zero (the real machine's ECC-scrubbed
//! initial state is unspecified; zero is the conventional simulator
//! choice).

use nsc_arch::{CacheId, CacheSpec, MachineConfig, MemorySpec, PlaneId};
use std::collections::HashMap;

const PAGE_WORDS: u64 = 4096;

/// One lazily-paged memory plane.
#[derive(Debug, Clone, Default)]
pub struct MemoryPlane {
    words: u64,
    pages: HashMap<u64, Vec<f64>>,
}

impl MemoryPlane {
    /// A plane of the given capacity in words.
    pub fn new(words: u64) -> Self {
        MemoryPlane { words, pages: HashMap::new() }
    }

    /// Capacity in words.
    pub fn words(&self) -> u64 {
        self.words
    }

    /// Read one word (zero if never written).
    ///
    /// # Panics
    /// If `addr` is outside the plane.
    #[inline]
    pub fn read(&self, addr: u64) -> f64 {
        assert!(addr < self.words, "plane read at {addr} beyond {} words", self.words);
        match self.pages.get(&(addr / PAGE_WORDS)) {
            Some(page) => page[(addr % PAGE_WORDS) as usize],
            None => 0.0,
        }
    }

    /// Write one word.
    ///
    /// # Panics
    /// If `addr` is outside the plane.
    #[inline]
    pub fn write(&mut self, addr: u64, value: f64) {
        assert!(addr < self.words, "plane write at {addr} beyond {} words", self.words);
        let page =
            self.pages.entry(addr / PAGE_WORDS).or_insert_with(|| vec![0.0; PAGE_WORDS as usize]);
        page[(addr % PAGE_WORDS) as usize] = value;
    }

    /// Bulk store starting at `base`, a page at a time.
    ///
    /// # Panics
    /// If any addressed word is outside the plane.
    pub fn write_slice(&mut self, base: u64, data: &[f64]) {
        // A base past `i64::MAX` turns negative and takes the per-word
        // path, whose address arithmetic wraps back to the same words.
        self.write_strided(base as i64, 1, data);
    }

    /// Bulk load of `len` words starting at `base`, a page at a time.
    ///
    /// # Panics
    /// If any addressed word is outside the plane.
    pub fn read_vec(&self, base: u64, len: u64) -> Vec<f64> {
        let mut out = Vec::new();
        self.read_strided_into(base as i64, 1, len as usize, &mut out);
        out
    }

    /// Bulk strided load: append `count` words starting at `base` to
    /// `out`. Unit-stride transfers copy page-at-a-time; other strides
    /// fall back to per-word reads. Matches [`MemoryPlane::read`] exactly,
    /// including reading unwritten words as zero.
    ///
    /// # Panics
    /// If any addressed word is outside the plane.
    pub fn read_strided_into(&self, base: i64, stride: i64, count: usize, out: &mut Vec<f64>) {
        out.reserve(count);
        if stride == 1 && base >= 0 && count > 0 {
            let end = base as u64 + count as u64;
            assert!(end <= self.words, "plane read at {} beyond {} words", end - 1, self.words);
            let mut addr = base as u64;
            let mut left = count;
            while left > 0 {
                let off = (addr % PAGE_WORDS) as usize;
                let n = (PAGE_WORDS as usize - off).min(left);
                match self.pages.get(&(addr / PAGE_WORDS)) {
                    Some(page) => out.extend_from_slice(&page[off..off + n]),
                    None => out.resize(out.len() + n, 0.0),
                }
                addr += n as u64;
                left -= n;
            }
        } else {
            for k in 0..count {
                out.push(self.read((base + k as i64 * stride) as u64));
            }
        }
    }

    /// Bulk strided store of `vals` starting at `base`. Unit-stride
    /// transfers copy page-at-a-time; other strides fall back to per-word
    /// writes (stride 0 stores sequentially, so the last value wins, as a
    /// word-at-a-time DMA would behave).
    ///
    /// # Panics
    /// If any addressed word is outside the plane.
    pub fn write_strided(&mut self, base: i64, stride: i64, vals: &[f64]) {
        if stride == 1 && base >= 0 && !vals.is_empty() {
            let end = base as u64 + vals.len() as u64;
            assert!(end <= self.words, "plane write at {} beyond {} words", end - 1, self.words);
            let mut addr = base as u64;
            let mut rest = vals;
            while !rest.is_empty() {
                let page = self
                    .pages
                    .entry(addr / PAGE_WORDS)
                    .or_insert_with(|| vec![0.0; PAGE_WORDS as usize]);
                let off = (addr % PAGE_WORDS) as usize;
                let n = (PAGE_WORDS as usize - off).min(rest.len());
                page[off..off + n].copy_from_slice(&rest[..n]);
                addr += n as u64;
                rest = &rest[n..];
            }
        } else {
            for (k, &v) in vals.iter().enumerate() {
                self.write((base + k as i64 * stride) as u64, v);
            }
        }
    }

    /// Pages currently resident (for memory-footprint assertions).
    pub fn resident_pages(&self) -> usize {
        self.pages.len()
    }
}

/// One double-buffered data cache.
#[derive(Debug, Clone)]
pub struct DataCache {
    words: usize,
    /// Each buffer is empty until its first write, then `words` long.
    buffers: [Vec<f64>; 2],
}

impl DataCache {
    /// A cache with two buffers of `words_per_buffer` words, neither
    /// allocated until it is written.
    pub fn new(words_per_buffer: u64) -> Self {
        DataCache { words: words_per_buffer as usize, buffers: [Vec::new(), Vec::new()] }
    }

    /// Words per buffer.
    pub fn buffer_words(&self) -> usize {
        self.words
    }

    /// Read from one buffer (zero if never written).
    ///
    /// # Panics
    /// If `offset` is outside the buffer.
    #[inline]
    pub fn read(&self, buffer: u8, offset: u64) -> f64 {
        let buf = &self.buffers[buffer as usize & 1];
        if buf.is_empty() {
            self.assert_within(offset);
            0.0
        } else {
            buf[offset as usize]
        }
    }

    /// Write into one buffer, allocating it on its first write.
    ///
    /// # Panics
    /// If `offset` is outside the buffer.
    #[inline]
    pub fn write(&mut self, buffer: u8, offset: u64, value: f64) {
        let b = buffer as usize & 1;
        if self.buffers[b].is_empty() {
            self.assert_within(offset);
            self.buffers[b] = vec![0.0; self.words];
        }
        self.buffers[b][offset as usize] = value;
    }

    /// An allocated buffer's indexing bounds its offsets; this bounds an
    /// unallocated one's.
    fn assert_within(&self, offset: u64) {
        assert!(offset < self.words as u64, "cache offset {offset} beyond {} words", self.words);
    }

    /// Swap the two buffers (the double-buffer flip).
    pub fn swap(&mut self) {
        self.buffers.swap(0, 1);
    }

    /// Buffers written so far (for memory-footprint assertions).
    pub fn resident_buffers(&self) -> usize {
        self.buffers.iter().filter(|b| !b.is_empty()).count()
    }
}

/// All storage of one node.
#[derive(Debug, Clone)]
pub struct NodeMemory {
    /// The memory planes.
    pub planes: Vec<MemoryPlane>,
    /// The data caches.
    pub caches: Vec<DataCache>,
}

impl NodeMemory {
    /// Storage sized for a machine configuration.
    pub fn new(cfg: &MachineConfig) -> Self {
        Self::from_specs(&cfg.memory, &cfg.cache)
    }

    /// Storage from raw specs.
    pub fn from_specs(mem: &MemorySpec, cache: &CacheSpec) -> Self {
        NodeMemory {
            planes: (0..mem.planes).map(|_| MemoryPlane::new(mem.words_per_plane)).collect(),
            caches: (0..cache.caches).map(|_| DataCache::new(cache.words_per_buffer)).collect(),
        }
    }

    /// A plane by id.
    pub fn plane(&self, p: PlaneId) -> &MemoryPlane {
        &self.planes[p.index()]
    }

    /// A mutable plane by id.
    pub fn plane_mut(&mut self, p: PlaneId) -> &mut MemoryPlane {
        &mut self.planes[p.index()]
    }

    /// A cache by id.
    pub fn cache(&self, c: CacheId) -> &DataCache {
        &self.caches[c.index()]
    }

    /// A mutable cache by id.
    pub fn cache_mut(&mut self, c: CacheId) -> &mut DataCache {
        &mut self.caches[c.index()]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn planes_read_zero_until_written() {
        let mut p = MemoryPlane::new(1 << 24);
        assert_eq!(p.read(12345), 0.0);
        p.write(12345, 3.5);
        assert_eq!(p.read(12345), 3.5);
        assert_eq!(p.read(12346), 0.0);
    }

    #[test]
    fn planes_allocate_lazily() {
        let mut p = MemoryPlane::new(16 * 1024 * 1024);
        assert_eq!(p.resident_pages(), 0);
        p.write(0, 1.0);
        p.write(15 * 1024 * 1024, 2.0);
        assert_eq!(p.resident_pages(), 2, "two touched pages, not 16M words");
    }

    #[test]
    fn a_page_is_4_ki_words() {
        let mut p = MemoryPlane::new(1 << 20);
        p.write_slice(0, &[1.0; 4096]);
        assert_eq!(p.resident_pages(), 1, "words 0 .. 4096 share one page");
        p.write(4096, 2.0);
        assert_eq!(p.resident_pages(), 2, "word 4096 starts the next");
    }

    #[test]
    #[should_panic(expected = "beyond")]
    fn plane_bounds_are_enforced() {
        MemoryPlane::new(100).read(100);
    }

    #[test]
    fn bulk_round_trip() {
        let mut p = MemoryPlane::new(1 << 20);
        let data: Vec<f64> = (0..1000).map(|i| i as f64 * 0.5).collect();
        // Crossing a page boundary on purpose.
        p.write_slice(PAGE_WORDS - 500, &data);
        assert_eq!(p.read_vec(PAGE_WORDS - 500, 1000), data);
    }

    #[test]
    fn strided_helpers_match_per_word_access() {
        let mut p = MemoryPlane::new(1 << 20);
        // Unit stride across a page boundary, including unwritten words.
        let data: Vec<f64> = (0..2000).map(|i| i as f64 * 0.25).collect();
        p.write_strided(PAGE_WORDS as i64 - 1000, 1, &data);
        let mut out = Vec::new();
        p.read_strided_into(PAGE_WORDS as i64 - 1200, 1, 2400, &mut out);
        for (k, &v) in out.iter().enumerate() {
            assert_eq!(v, p.read((PAGE_WORDS - 1200) + k as u64));
        }
        // Unit stride over several 4 Ki-word boundaries, an unwritten page
        // between two written ones, starting and ending inside a page.
        let (lo, hi) = (3 * PAGE_WORDS - 7, 5 * PAGE_WORDS + 9);
        let data: Vec<f64> = (0..hi - lo).map(|i| i as f64 + 0.5).collect();
        p.write_strided(lo as i64, 1, &data[..7]);
        p.write_strided((5 * PAGE_WORDS) as i64, 1, &data[data.len() - 9..]);
        assert_eq!(p.resident_pages(), 4, "pages 0, 1, 2 and 5; 3 and 4 stay unwritten");
        let mut out = Vec::new();
        p.read_strided_into(lo as i64 - 1, 1, (hi - lo + 2) as usize, &mut out);
        assert_eq!(out.len() as u64, hi - lo + 2);
        for (addr, &v) in (lo - 1..).zip(&out) {
            assert_eq!(v.to_bits(), p.read(addr).to_bits(), "word {addr}");
        }
        p.write_strided(lo as i64, 1, &data);
        assert_eq!(p.read_vec(lo, hi - lo), data, "a write across four boundaries reads back");
        // Negative and zero strides take the per-word path.
        p.write_strided(100, -2, &[1.0, 2.0, 3.0]);
        assert_eq!((p.read(100), p.read(98), p.read(96)), (1.0, 2.0, 3.0));
        p.write_strided(7, 0, &[4.0, 5.0]);
        assert_eq!(p.read(7), 5.0, "stride 0: last value wins");
        let mut rev = Vec::new();
        p.read_strided_into(100, -2, 3, &mut rev);
        assert_eq!(rev, vec![1.0, 2.0, 3.0]);
    }

    #[test]
    fn caches_allocate_a_buffer_on_its_first_write() {
        let mut c = DataCache::new(64);
        assert_eq!((c.resident_buffers(), c.buffer_words()), (0, 64));
        assert_eq!(c.read(1, 63), 0.0);
        c.write(1, 5, 2.5);
        assert_eq!(c.resident_buffers(), 1);
        assert_eq!((c.read(1, 5), c.read(1, 6), c.read(0, 5)), (2.5, 0.0, 0.0));
        c.swap();
        assert_eq!((c.read(0, 5), c.read(1, 5)), (2.5, 0.0), "the flip moves the written buffer");
    }

    #[test]
    #[should_panic(expected = "beyond")]
    fn unwritten_cache_bounds_are_enforced() {
        DataCache::new(64).read(0, 64);
    }

    #[test]
    #[should_panic(expected = "beyond")]
    fn first_cache_write_bounds_are_enforced() {
        DataCache::new(64).write(0, 64, 1.0);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn written_cache_bounds_are_enforced() {
        let mut c = DataCache::new(64);
        c.write(0, 0, 1.0);
        c.read(0, 64);
    }

    #[test]
    fn cache_double_buffering() {
        let mut c = DataCache::new(64);
        c.write(0, 3, 1.0);
        c.write(1, 3, 2.0);
        assert_eq!(c.read(0, 3), 1.0);
        assert_eq!(c.read(1, 3), 2.0);
        c.swap();
        assert_eq!(c.read(0, 3), 2.0);
        assert_eq!(c.read(1, 3), 1.0);
    }

    #[test]
    fn node_memory_matches_config() {
        let cfg = MachineConfig::test_small();
        let m = NodeMemory::new(&cfg);
        assert_eq!(m.planes.len(), 4);
        assert_eq!(m.caches.len(), 4);
        assert_eq!(m.caches[0].buffer_words(), 256);
    }
}
