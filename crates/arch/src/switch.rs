//! The programmable switch network (FLONET) port model.
//!
//! Paper §2: "A complex programmable switching network routes data among
//! ALSs, memory planes, caches, and shift-delay units." Figure 2 labels the
//! switch portions "FLONET". We model it as a single-stage full crossbar
//! over *typed ports*: every data producer in the node is a [`SourceRef`],
//! every data consumer a [`SinkRef`]. Routing rules (single driver per sink,
//! fan-out cap per source) live in [`SwitchSpec`] and are enforced by the
//! checker at edit time and by the microcode generator at emit time.

use crate::ids::{CacheId, FuId, PlaneId, SduId};
use serde::{Deserialize, Serialize};
use std::fmt;

/// Which of a functional unit's two operand inputs a wire lands on.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub enum InPort {
    /// First operand.
    A,
    /// Second operand.
    B,
}

impl InPort {
    /// Both input ports in canonical order.
    pub const BOTH: [InPort; 2] = [InPort::A, InPort::B];

    /// Dense index (A=0, B=1) used in port enumeration and microcode fields.
    pub fn index(self) -> usize {
        match self {
            InPort::A => 0,
            InPort::B => 1,
        }
    }
}

impl fmt::Display for InPort {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            InPort::A => f.write_str("a"),
            InPort::B => f.write_str("b"),
        }
    }
}

/// A data producer attached to the switch network.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub enum SourceRef {
    /// A functional unit's result stream.
    Fu(FuId),
    /// A cache's read stream (from the buffer currently facing the pipes).
    CacheRead(CacheId),
    /// A memory plane's DMA read stream.
    PlaneRead(PlaneId),
    /// One tap of a shift/delay unit.
    SduTap(SduId, u8),
}

impl fmt::Display for SourceRef {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SourceRef::Fu(id) => write!(f, "{id}.out"),
            SourceRef::CacheRead(id) => write!(f, "{id}.rd"),
            SourceRef::PlaneRead(id) => write!(f, "{id}.rd"),
            SourceRef::SduTap(id, t) => write!(f, "{id}.tap{t}"),
        }
    }
}

/// A data consumer attached to the switch network.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub enum SinkRef {
    /// One operand input of a functional unit.
    FuIn(FuId, InPort),
    /// A cache's DMA write stream.
    CacheWrite(CacheId),
    /// A memory plane's DMA write stream.
    PlaneWrite(PlaneId),
    /// The single input stream of a shift/delay unit.
    SduIn(SduId),
}

impl SinkRef {
    /// The functional unit this sink belongs to, if any.
    pub fn fu(&self) -> Option<FuId> {
        match self {
            SinkRef::FuIn(id, _) => Some(*id),
            _ => None,
        }
    }
}

impl fmt::Display for SinkRef {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SinkRef::FuIn(id, p) => write!(f, "{id}.in{p}"),
            SinkRef::CacheWrite(id) => write!(f, "{id}.wr"),
            SinkRef::PlaneWrite(id) => write!(f, "{id}.wr"),
            SinkRef::SduIn(id) => write!(f, "{id}.in"),
        }
    }
}

/// Crossbar sizing and routing limits.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct SwitchSpec {
    /// Maximum number of sinks one source may drive simultaneously.
    /// Physical fan-out of the FLONET drivers; a model parameter, pinned to
    /// 4 by [`MachineConfig::nsc_1988`](crate::MachineConfig::nsc_1988).
    pub max_fanout: usize,
}

impl SwitchSpec {
    /// Enumerate every source port of a node with the given resource counts,
    /// in the canonical order used for microcode source-select codes.
    pub fn enumerate_sources(
        fus: usize,
        caches: usize,
        planes: usize,
        sdus: usize,
        taps_per_sdu: usize,
    ) -> Vec<SourceRef> {
        let mut v = Vec::with_capacity(fus + caches + planes + sdus * taps_per_sdu);
        v.extend((0..fus).map(|i| SourceRef::Fu(FuId(i as u8))));
        v.extend((0..caches).map(|i| SourceRef::CacheRead(CacheId(i as u8))));
        v.extend((0..planes).map(|i| SourceRef::PlaneRead(PlaneId(i as u8))));
        for s in 0..sdus {
            v.extend((0..taps_per_sdu).map(move |t| SourceRef::SduTap(SduId(s as u8), t as u8)));
        }
        v
    }

    /// Enumerate every sink port, in the canonical order used for the
    /// microcode switch table (one source-select field per sink).
    pub fn enumerate_sinks(fus: usize, caches: usize, planes: usize, sdus: usize) -> Vec<SinkRef> {
        let mut v = Vec::with_capacity(fus * 2 + caches + planes + sdus);
        for i in 0..fus {
            v.push(SinkRef::FuIn(FuId(i as u8), InPort::A));
            v.push(SinkRef::FuIn(FuId(i as u8), InPort::B));
        }
        v.extend((0..caches).map(|i| SinkRef::CacheWrite(CacheId(i as u8))));
        v.extend((0..planes).map(|i| SinkRef::PlaneWrite(PlaneId(i as u8))));
        v.extend((0..sdus).map(|i| SinkRef::SduIn(SduId(i as u8))));
        v
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn source_enumeration_order_and_count() {
        let src = SwitchSpec::enumerate_sources(32, 16, 16, 2, 4);
        assert_eq!(src.len(), 32 + 16 + 16 + 8);
        assert_eq!(src[0], SourceRef::Fu(FuId(0)));
        assert_eq!(src[32], SourceRef::CacheRead(CacheId(0)));
        assert_eq!(src[48], SourceRef::PlaneRead(PlaneId(0)));
        assert_eq!(src[64], SourceRef::SduTap(SduId(0), 0));
        assert_eq!(src[71], SourceRef::SduTap(SduId(1), 3));
    }

    #[test]
    fn sink_enumeration_order_and_count() {
        let sk = SwitchSpec::enumerate_sinks(32, 16, 16, 2);
        assert_eq!(sk.len(), 64 + 16 + 16 + 2);
        assert_eq!(sk[0], SinkRef::FuIn(FuId(0), InPort::A));
        assert_eq!(sk[1], SinkRef::FuIn(FuId(0), InPort::B));
        assert_eq!(sk[64], SinkRef::CacheWrite(CacheId(0)));
        assert_eq!(sk[80], SinkRef::PlaneWrite(PlaneId(0)));
        assert_eq!(sk[96], SinkRef::SduIn(SduId(0)));
    }

    #[test]
    fn ports_are_unique() {
        let src = SwitchSpec::enumerate_sources(32, 16, 16, 2, 4);
        let set: std::collections::HashSet<_> = src.iter().collect();
        assert_eq!(set.len(), src.len());
        let sk = SwitchSpec::enumerate_sinks(32, 16, 16, 2);
        let set: std::collections::HashSet<_> = sk.iter().collect();
        assert_eq!(set.len(), sk.len());
    }

    #[test]
    fn display_forms() {
        assert_eq!(SourceRef::Fu(FuId(3)).to_string(), "FU3.out");
        assert_eq!(SinkRef::FuIn(FuId(3), InPort::B).to_string(), "FU3.inb");
        assert_eq!(SourceRef::SduTap(SduId(1), 2).to_string(), "SDU1.tap2");
        assert_eq!(SinkRef::PlaneWrite(PlaneId(9)).to_string(), "MP9.wr");
    }

    #[test]
    fn sink_fu_accessor() {
        assert_eq!(SinkRef::FuIn(FuId(5), InPort::A).fu(), Some(FuId(5)));
        assert_eq!(SinkRef::CacheWrite(CacheId(0)).fu(), None);
    }
}
