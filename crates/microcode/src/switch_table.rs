//! The switch-network program: one source select per sink port.
//!
//! The FLONET crossbar is configured per instruction by giving every sink
//! port (each FU operand input, cache write, plane write and SDU input) the
//! code of the source driving it, or "unrouted". The microcode generator
//! "derive\[s\] switch settings by interrogating the connection tables built
//! by the graphical editor" (paper §5) — the result lands here.

use crate::bits::{BitReader, BitUnderflow, BitWriter};
use nsc_arch::{KnowledgeBase, SinkRef, SourceRef};
use serde::{Deserialize, Serialize};
use std::fmt;

/// A switch port the machine's knowledge base has no code for.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum UnknownPort {
    /// A source this machine does not have.
    Source(SourceRef),
    /// A sink this machine does not have.
    Sink(SinkRef),
}

impl fmt::Display for UnknownPort {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            UnknownPort::Source(s) => write!(f, "unknown source {s}"),
            UnknownPort::Sink(s) => write!(f, "unknown sink {s}"),
        }
    }
}

impl std::error::Error for UnknownPort {}

/// Per-sink source selection, indexed by the knowledge base's sink codes.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct SwitchTable {
    /// `routes[sink_code] = Some(source_code)` when the sink is driven.
    routes: Vec<Option<u16>>,
}

impl SwitchTable {
    /// An empty table sized for the machine.
    pub fn empty(kb: &KnowledgeBase) -> Self {
        SwitchTable { routes: vec![None; kb.sinks().len()] }
    }

    /// Number of sink entries.
    pub fn len(&self) -> usize {
        self.routes.len()
    }

    /// Whether no sink is routed.
    pub fn is_empty(&self) -> bool {
        self.routes.iter().all(|r| r.is_none())
    }

    /// Route `source` to `sink`. Returns the previous driver, if any, or
    /// the port this machine has no code for.
    pub fn route(
        &mut self,
        kb: &KnowledgeBase,
        source: SourceRef,
        sink: SinkRef,
    ) -> Result<Option<u16>, UnknownPort> {
        let sc = kb.source_code(source).ok_or(UnknownPort::Source(source))?;
        let kc = kb.sink_code(sink).ok_or(UnknownPort::Sink(sink))?;
        let slot = self.routes.get_mut(kc as usize).ok_or(UnknownPort::Sink(sink))?;
        Ok(slot.replace(sc))
    }

    /// The source driving `sink`, if routed.
    pub fn driver(&self, kb: &KnowledgeBase, sink: SinkRef) -> Option<SourceRef> {
        let kc = kb.sink_code(sink)?;
        self.routes[kc as usize].and_then(|sc| kb.source_from_code(sc))
    }

    /// All (sink, source) pairs currently routed, in sink-code order.
    pub fn iter_routes<'a>(
        &'a self,
        kb: &'a KnowledgeBase,
    ) -> impl Iterator<Item = (SinkRef, SourceRef)> + 'a {
        self.routes.iter().enumerate().filter_map(move |(i, r)| {
            let src = (*r)?;
            Some((kb.sink_from_code(i as u16)?, kb.source_from_code(src)?))
        })
    }

    /// Number of sinks each source drives (for fan-out checks), indexed by
    /// source code.
    pub fn fanout_counts(&self, kb: &KnowledgeBase) -> Vec<usize> {
        let mut counts = vec![0usize; kb.sources().len()];
        for r in self.routes.iter().flatten() {
            counts[*r as usize] += 1;
        }
        counts
    }

    /// Encoded width for a machine: one source-select field per sink.
    pub fn bits(kb: &KnowledgeBase) -> u32 {
        kb.sinks().len() as u32 * kb.source_select_bits()
    }

    /// Pack into the writer: code 0 = unrouted, code `s+1` = source `s`.
    pub fn encode(&self, kb: &KnowledgeBase, w: &mut BitWriter) {
        let width = kb.source_select_bits();
        for r in &self.routes {
            w.write(r.map_or(0, |s| s as u64 + 1), width);
        }
    }

    /// Unpack from the reader.
    pub fn decode(kb: &KnowledgeBase, r: &mut BitReader) -> Result<Self, BitUnderflow> {
        let width = kb.source_select_bits();
        let mut routes = Vec::with_capacity(kb.sinks().len());
        for _ in 0..kb.sinks().len() {
            let raw = r.read(width)?;
            routes.push(if raw == 0 { None } else { Some((raw - 1) as u16) });
        }
        Ok(SwitchTable { routes })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nsc_arch::{CacheId, FuId, InPort, PlaneId};

    fn kb() -> KnowledgeBase {
        KnowledgeBase::nsc_1988()
    }

    #[test]
    fn route_and_query() {
        let kb = kb();
        let mut t = SwitchTable::empty(&kb);
        assert!(t.is_empty());
        let src = SourceRef::PlaneRead(PlaneId(0));
        let sink = SinkRef::FuIn(FuId(3), InPort::A);
        assert_eq!(t.route(&kb, src, sink), Ok(None));
        assert_eq!(t.driver(&kb, sink), Some(src));
        assert!(!t.is_empty());
        // Re-routing returns the old driver.
        let src2 = SourceRef::CacheRead(CacheId(1));
        assert_eq!(t.route(&kb, src2, sink), Ok(kb.source_code(src)));
        assert_eq!(t.driver(&kb, sink), Some(src2));
    }

    #[test]
    fn fanout_counts() {
        let kb = kb();
        let mut t = SwitchTable::empty(&kb);
        let src = SourceRef::Fu(FuId(0));
        t.route(&kb, src, SinkRef::FuIn(FuId(1), InPort::A)).unwrap();
        t.route(&kb, src, SinkRef::FuIn(FuId(2), InPort::B)).unwrap();
        t.route(&kb, src, SinkRef::PlaneWrite(PlaneId(5))).unwrap();
        let counts = t.fanout_counts(&kb);
        assert_eq!(counts[kb.source_code(src).unwrap() as usize], 3);
        assert_eq!(counts.iter().sum::<usize>(), 3);
    }

    #[test]
    fn encode_decode_round_trips() {
        let kb = kb();
        let mut t = SwitchTable::empty(&kb);
        t.route(&kb, SourceRef::PlaneRead(PlaneId(7)), SinkRef::FuIn(FuId(0), InPort::A)).unwrap();
        t.route(&kb, SourceRef::Fu(FuId(0)), SinkRef::PlaneWrite(PlaneId(8))).unwrap();
        t.route(&kb, SourceRef::Fu(FuId(31)), SinkRef::CacheWrite(CacheId(15))).unwrap();
        let mut w = BitWriter::new();
        t.encode(&kb, &mut w);
        assert_eq!(w.len_bits() as u32, SwitchTable::bits(&kb));
        let bytes = w.finish();
        let back = SwitchTable::decode(&kb, &mut BitReader::new(&bytes)).unwrap();
        assert_eq!(back, t);
    }

    #[test]
    fn table_width_for_the_1988_machine() {
        let kb = kb();
        // 98 sinks x 7 bits = 686 bits of switch program.
        assert_eq!(SwitchTable::bits(&kb), 98 * 7);
    }

    #[test]
    fn iter_routes_reports_all_pairs() {
        let kb = kb();
        let mut t = SwitchTable::empty(&kb);
        t.route(&kb, SourceRef::PlaneRead(PlaneId(1)), SinkRef::FuIn(FuId(4), InPort::B)).unwrap();
        t.route(&kb, SourceRef::Fu(FuId(4)), SinkRef::PlaneWrite(PlaneId(2))).unwrap();
        let pairs: Vec<_> = t.iter_routes(&kb).collect();
        assert_eq!(pairs.len(), 2);
        assert!(
            pairs.contains(&(SinkRef::FuIn(FuId(4), InPort::B), SourceRef::PlaneRead(PlaneId(1))))
        );
        assert!(pairs.contains(&(SinkRef::PlaneWrite(PlaneId(2)), SourceRef::Fu(FuId(4)))));
    }

    #[test]
    fn routing_a_port_the_machine_lacks_is_an_error() {
        // No caches on this machine, and no 99th SDU on any.
        let kb = KnowledgeBase::new(
            nsc_arch::MachineConfig::nsc_1988().subset(nsc_arch::SubsetModel::NoCaches),
        );
        let mut t = SwitchTable::empty(&kb);
        let (cache, sdu) = (SourceRef::CacheRead(CacheId(0)), SinkRef::SduIn(nsc_arch::SduId(99)));
        let fu_in = SinkRef::FuIn(FuId(0), InPort::A);
        assert_eq!(t.route(&kb, cache, fu_in), Err(UnknownPort::Source(cache)));
        let plane = SourceRef::PlaneRead(PlaneId(0));
        assert_eq!(t.route(&kb, plane, sdu), Err(UnknownPort::Sink(sdu)));
        assert_eq!(UnknownPort::Sink(sdu).to_string(), format!("unknown sink {sdu}"));
        assert!(t.is_empty(), "a refused route leaves the table alone");
        // A table sized for a smaller machine refuses a sink it has no
        // slot for.
        let mut small =
            SwitchTable::empty(&KnowledgeBase::new(nsc_arch::MachineConfig::test_small()));
        let last = *kb.sinks().last().expect("sinks");
        assert_eq!(small.route(&kb, plane, last), Err(UnknownPort::Sink(last)));
    }
}
