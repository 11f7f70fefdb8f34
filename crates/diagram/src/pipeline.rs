//! Pipeline diagrams: one diagram = one machine instruction.
//!
//! Paper §5: "To construct a program, a user defines a series of pipeline
//! diagrams. Each pipeline corresponds to a single instruction, or one line
//! of code, in a more conventional language." A diagram owns its icons,
//! the pad-to-pad connections between them, the per-unit operation
//! assignments, and the shift/delay tap programming.
//!
//! This type enforces only *structural* validity (pads exist, sources feed
//! sinks); everything the paper assigns to the checker — machine limits,
//! conflicts, asymmetries — lives in `nsc-checker` so that the division of
//! labour matches Figure 3.

use crate::attrs::{DmaAttrs, FuAssign};
use crate::icon::{Icon, IconKind, PadRef};
use crate::ids::{ConnId, IconId, PipelineId};
use nsc_arch::{AlsKind, DoubletMode, FuOp};
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::fmt;

/// A pad on a particular icon: where wires attach.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct PadLoc {
    /// The icon.
    pub icon: IconId,
    /// The pad on it.
    pub pad: PadRef,
}

impl PadLoc {
    /// Construct a pad location.
    pub fn new(icon: IconId, pad: PadRef) -> Self {
        PadLoc { icon, pad }
    }
}

impl fmt::Display for PadLoc {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}.{}", self.icon, self.pad)
    }
}

/// A wire between two pads, with optional DMA attributes when one end is a
/// memory or cache icon.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Connection {
    /// Stable identity.
    pub id: ConnId,
    /// Source end (data flows out of this pad).
    pub from: PadLoc,
    /// Sink end (data flows into this pad).
    pub to: PadLoc,
    /// DMA programming for the memory/cache end (Figure 9 pop-up).
    pub dma: Option<DmaAttrs>,
}

/// Structural cap on shift/delay taps per unit. [`PipelineDiagram`] pads
/// and tap programming never exceed it; the checker narrows further to the
/// machine's actual taps-per-unit.
pub const MAX_SDU_TAPS: usize = 8;

/// Structural errors raised by diagram mutations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DiagramError {
    /// Referenced icon does not exist in this diagram.
    NoSuchIcon(IconId),
    /// The pad does not exist on the referenced icon.
    NoSuchPad(PadLoc),
    /// A wire cannot start at this pad (it is sink-only).
    NotASource(PadLoc),
    /// A wire cannot end at this pad (it is source-only).
    NotASink(PadLoc),
    /// Referenced connection does not exist.
    NoSuchConnection(ConnId),
    /// The referenced unit position is not active on this ALS icon.
    NoSuchUnit(IconId, u8),
    /// More shift/delay tap delays than the structural cap of
    /// [`MAX_SDU_TAPS`].
    TooManyTaps {
        /// The SDU icon being programmed.
        icon: IconId,
        /// How many taps the caller asked for.
        requested: usize,
    },
    /// A generated read, tap or store falls outside its pipeline's
    /// output window (see `PipelineBuilder`).
    Window(String),
    /// A shift/delay tap delay that does not fit the 16-bit tap field.
    TapDelay {
        /// The delay asked for, in elements.
        delay: u64,
    },
    /// No free functional unit of the node can execute the operation.
    NoFreeUnit(FuOp),
}

impl fmt::Display for DiagramError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DiagramError::NoSuchIcon(i) => write!(f, "no such icon: {i}"),
            DiagramError::NoSuchPad(p) => write!(f, "no such pad: {p}"),
            DiagramError::NotASource(p) => write!(f, "wires cannot start at {p}"),
            DiagramError::NotASink(p) => write!(f, "wires cannot end at {p}"),
            DiagramError::NoSuchConnection(c) => write!(f, "no such connection: {c}"),
            DiagramError::NoSuchUnit(i, pos) => write!(f, "no active unit {pos} on {i}"),
            DiagramError::TooManyTaps { icon, requested } => {
                write!(f, "{icon} asked for {requested} taps; the structural cap is {MAX_SDU_TAPS}")
            }
            DiagramError::Window(detail) => write!(f, "outside the output window: {detail}"),
            DiagramError::TapDelay { delay } => {
                write!(f, "tap delay {delay} does not fit the {}-bit tap field", u16::BITS)
            }
            DiagramError::NoFreeUnit(op) => write!(f, "no free functional unit can execute {op}"),
        }
    }
}

impl std::error::Error for DiagramError {}

/// One pipeline diagram (= one NSC instruction).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PipelineDiagram {
    /// Stable identity within the document.
    pub id: PipelineId,
    /// Display name ("point Jacobi update", ...).
    pub name: String,
    /// Vector length of this instruction's streams; scalars are vectors of
    /// length one (paper §2).
    pub stream_len: u64,
    icons: BTreeMap<IconId, Icon>,
    connections: BTreeMap<ConnId, Connection>,
    fu_assigns: BTreeMap<IconId, BTreeMap<u8, FuAssign>>,
    sdu_taps: BTreeMap<IconId, Vec<u16>>,
    next_icon: u32,
    next_conn: u32,
}

impl PipelineDiagram {
    /// An empty diagram.
    pub fn new(id: PipelineId, name: impl Into<String>) -> Self {
        PipelineDiagram {
            id,
            name: name.into(),
            stream_len: 1,
            icons: BTreeMap::new(),
            connections: BTreeMap::new(),
            fu_assigns: BTreeMap::new(),
            sdu_taps: BTreeMap::new(),
            next_icon: 0,
            next_conn: 0,
        }
    }

    // ------------------------------------------------------------------
    // icons
    // ------------------------------------------------------------------

    /// Place a new icon, returning its id.
    pub fn add_icon(&mut self, kind: IconKind) -> IconId {
        let id = IconId(self.next_icon);
        self.next_icon += 1;
        self.icons.insert(id, Icon { id, kind });
        id
    }

    /// Look up an icon.
    pub fn icon(&self, id: IconId) -> Option<&Icon> {
        self.icons.get(&id)
    }

    /// Mutate an icon's kind (e.g. bind it to a physical resource).
    pub fn icon_mut(&mut self, id: IconId) -> Option<&mut Icon> {
        self.icons.get_mut(&id)
    }

    /// Delete an icon, cascading to its wires, assignments and taps.
    /// Returns the removed icon, or an error if it does not exist.
    pub fn remove_icon(&mut self, id: IconId) -> Result<Icon, DiagramError> {
        let icon = self.icons.remove(&id).ok_or(DiagramError::NoSuchIcon(id))?;
        self.connections.retain(|_, c| c.from.icon != id && c.to.icon != id);
        self.fu_assigns.remove(&id);
        self.sdu_taps.remove(&id);
        Ok(icon)
    }

    /// All icons in id order.
    pub fn icons(&self) -> impl Iterator<Item = &Icon> {
        self.icons.values()
    }

    /// Number of icons.
    pub fn icon_count(&self) -> usize {
        self.icons.len()
    }

    /// Whether `pad` exists structurally on icon `id`.
    pub fn has_pad(&self, loc: PadLoc) -> bool {
        self.icons.get(&loc.icon).is_some_and(|icon| Self::icon_has_pad(icon, loc.pad))
    }

    fn icon_has_pad(icon: &Icon, pad: PadRef) -> bool {
        match (&icon.kind, pad) {
            (IconKind::Als { kind, mode, .. }, PadRef::FuIn { pos, .. })
            | (IconKind::Als { kind, mode, .. }, PadRef::FuOut { pos }) => {
                Self::position_active(*kind, *mode, pos)
            }
            (IconKind::Memory { .. }, PadRef::Io) | (IconKind::Cache { .. }, PadRef::Io) => true,
            (IconKind::Sdu { .. }, PadRef::SduIn) => true,
            // Structural cap; the checker narrows to the machine's actual
            // taps-per-unit.
            (IconKind::Sdu { .. }, PadRef::SduTap { tap }) => (tap as usize) < MAX_SDU_TAPS,
            _ => false,
        }
    }

    fn position_active(kind: AlsKind, mode: DoubletMode, pos: u8) -> bool {
        match kind {
            AlsKind::Doublet => mode.active_positions().contains(&(pos as usize)),
            k => (pos as usize) < k.unit_count(),
        }
    }

    // ------------------------------------------------------------------
    // connections
    // ------------------------------------------------------------------

    /// Wire `from` to `to` (paper Figure 8's rubber-band operation).
    ///
    /// Only structural validity is enforced here; machine-level legality is
    /// the checker's job and the editor consults it *before* calling this.
    pub fn connect(
        &mut self,
        from: PadLoc,
        to: PadLoc,
        dma: Option<DmaAttrs>,
    ) -> Result<ConnId, DiagramError> {
        let from_icon = self.icons.get(&from.icon).ok_or(DiagramError::NoSuchIcon(from.icon))?;
        let to_icon = self.icons.get(&to.icon).ok_or(DiagramError::NoSuchIcon(to.icon))?;
        if !Self::icon_has_pad(from_icon, from.pad) {
            return Err(DiagramError::NoSuchPad(from));
        }
        if !Self::icon_has_pad(to_icon, to.pad) {
            return Err(DiagramError::NoSuchPad(to));
        }
        if !from.pad.can_source() {
            return Err(DiagramError::NotASource(from));
        }
        if !to.pad.can_sink() {
            return Err(DiagramError::NotASink(to));
        }
        let id = ConnId(self.next_conn);
        self.next_conn += 1;
        self.connections.insert(id, Connection { id, from, to, dma });
        Ok(id)
    }

    /// Remove a wire.
    pub fn disconnect(&mut self, id: ConnId) -> Result<Connection, DiagramError> {
        self.connections.remove(&id).ok_or(DiagramError::NoSuchConnection(id))
    }

    /// Look up a wire.
    pub fn connection(&self, id: ConnId) -> Option<&Connection> {
        self.connections.get(&id)
    }

    /// Mutate a wire (e.g. attach DMA attributes from the Figure 9 pop-up).
    pub fn connection_mut(&mut self, id: ConnId) -> Option<&mut Connection> {
        self.connections.get_mut(&id)
    }

    /// All wires in id order.
    pub fn connections(&self) -> impl Iterator<Item = &Connection> {
        self.connections.values()
    }

    /// Number of wires.
    pub fn connection_count(&self) -> usize {
        self.connections.len()
    }

    /// Wires arriving at a pad.
    pub fn incoming(&self, loc: PadLoc) -> Vec<&Connection> {
        self.connections.values().filter(|c| c.to == loc).collect()
    }

    /// Wires leaving a pad.
    pub fn outgoing(&self, loc: PadLoc) -> Vec<&Connection> {
        self.connections.values().filter(|c| c.from == loc).collect()
    }

    // ------------------------------------------------------------------
    // functional-unit programming
    // ------------------------------------------------------------------

    /// Program the unit at `pos` within ALS icon `icon` (Figure 10 menu).
    pub fn assign_fu(
        &mut self,
        icon: IconId,
        pos: u8,
        assign: FuAssign,
    ) -> Result<(), DiagramError> {
        let ic = self.icons.get(&icon).ok_or(DiagramError::NoSuchIcon(icon))?;
        match ic.kind {
            IconKind::Als { kind, mode, .. } if Self::position_active(kind, mode, pos) => {
                self.fu_assigns.entry(icon).or_default().insert(pos, assign);
                Ok(())
            }
            _ => Err(DiagramError::NoSuchUnit(icon, pos)),
        }
    }

    /// The programming of a unit, if any.
    pub fn fu_assign(&self, icon: IconId, pos: u8) -> Option<&FuAssign> {
        self.fu_assigns.get(&icon)?.get(&pos)
    }

    /// Remove a unit's programming.
    pub fn clear_fu_assign(&mut self, icon: IconId, pos: u8) -> Option<FuAssign> {
        self.fu_assigns.get_mut(&icon)?.remove(&pos)
    }

    /// All (icon, position, assignment) triples.
    pub fn fu_assigns(&self) -> impl Iterator<Item = (IconId, u8, &FuAssign)> {
        self.fu_assigns.iter().flat_map(|(icon, m)| m.iter().map(move |(pos, a)| (*icon, *pos, a)))
    }

    /// Replace every register-file value (constants, feedback seeds) with
    /// the [masked](FuAssign::masked) canonical `0.0` — the normalization
    /// behind `Document::shape_digest`, under which documents differing
    /// only in swept constants compare equal.
    pub fn mask_preload_values(&mut self) {
        for units in self.fu_assigns.values_mut() {
            for assign in units.values_mut() {
                *assign = assign.masked();
            }
        }
    }

    // ------------------------------------------------------------------
    // shift/delay programming
    // ------------------------------------------------------------------

    /// Program the tap delays of an SDU icon. Rejects more than
    /// [`MAX_SDU_TAPS`] delays — the same structural cap [`Self::has_pad`]
    /// enforces on tap pads.
    pub fn set_sdu_taps(&mut self, icon: IconId, delays: Vec<u16>) -> Result<(), DiagramError> {
        if delays.len() > MAX_SDU_TAPS {
            return Err(DiagramError::TooManyTaps { icon, requested: delays.len() });
        }
        match self.icons.get(&icon) {
            Some(ic) if matches!(ic.kind, IconKind::Sdu { .. }) => {
                self.sdu_taps.insert(icon, delays);
                Ok(())
            }
            Some(_) => Err(DiagramError::NoSuchPad(PadLoc::new(icon, PadRef::SduIn))),
            None => Err(DiagramError::NoSuchIcon(icon)),
        }
    }

    /// Tap delays of an SDU icon (empty if unprogrammed).
    pub fn sdu_taps(&self, icon: IconId) -> &[u16] {
        self.sdu_taps.get(&icon).map(Vec::as_slice).unwrap_or(&[])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nsc_arch::InPort;

    fn diagram() -> PipelineDiagram {
        PipelineDiagram::new(PipelineId(0), "test")
    }

    #[test]
    fn icons_get_fresh_ids_never_reused() {
        let mut d = diagram();
        let a = d.add_icon(IconKind::memory());
        let b = d.add_icon(IconKind::cache());
        assert_ne!(a, b);
        d.remove_icon(a).unwrap();
        let c = d.add_icon(IconKind::memory());
        assert_ne!(c, a, "ids are never reused");
        assert_eq!(d.icon_count(), 2);
    }

    #[test]
    fn connect_validates_structure() {
        let mut d = diagram();
        let mem = d.add_icon(IconKind::memory());
        let als = d.add_icon(IconKind::als(AlsKind::Singlet));
        // memory -> FU input is structurally fine
        let ok = d.connect(
            PadLoc::new(mem, PadRef::Io),
            PadLoc::new(als, PadRef::FuIn { pos: 0, port: InPort::A }),
            Some(DmaAttrs::at_address(0)),
        );
        assert!(ok.is_ok());
        // FU input cannot source a wire
        let err = d.connect(
            PadLoc::new(als, PadRef::FuIn { pos: 0, port: InPort::B }),
            PadLoc::new(mem, PadRef::Io),
            None,
        );
        assert_eq!(
            err.unwrap_err(),
            DiagramError::NotASource(PadLoc::new(als, PadRef::FuIn { pos: 0, port: InPort::B }))
        );
        // FU output cannot sink a wire
        let err = d.connect(
            PadLoc::new(mem, PadRef::Io),
            PadLoc::new(als, PadRef::FuOut { pos: 0 }),
            None,
        );
        assert!(matches!(err.unwrap_err(), DiagramError::NotASink(_)));
        // nonexistent unit position on a singlet
        let err = d.connect(
            PadLoc::new(mem, PadRef::Io),
            PadLoc::new(als, PadRef::FuIn { pos: 1, port: InPort::A }),
            None,
        );
        assert!(matches!(err.unwrap_err(), DiagramError::NoSuchPad(_)));
    }

    #[test]
    fn bypassed_doublet_hides_its_inactive_unit() {
        let mut d = diagram();
        let mem = d.add_icon(IconKind::memory());
        let doub = d.add_icon(IconKind::Als {
            kind: AlsKind::Doublet,
            mode: DoubletMode::BypassFirst,
            als: None,
        });
        // position 0 is bypassed
        let err = d.connect(
            PadLoc::new(mem, PadRef::Io),
            PadLoc::new(doub, PadRef::FuIn { pos: 0, port: InPort::A }),
            None,
        );
        assert!(err.is_err());
        // position 1 is live
        let ok = d.connect(
            PadLoc::new(mem, PadRef::Io),
            PadLoc::new(doub, PadRef::FuIn { pos: 1, port: InPort::A }),
            None,
        );
        assert!(ok.is_ok());
    }

    #[test]
    fn removing_an_icon_cascades() {
        let mut d = diagram();
        let mem = d.add_icon(IconKind::memory());
        let als = d.add_icon(IconKind::als(AlsKind::Triplet));
        d.connect(
            PadLoc::new(mem, PadRef::Io),
            PadLoc::new(als, PadRef::FuIn { pos: 0, port: InPort::A }),
            None,
        )
        .unwrap();
        d.assign_fu(als, 0, FuAssign::binary(FuOp::Add)).unwrap();
        assert_eq!(d.connection_count(), 1);
        d.remove_icon(als).unwrap();
        assert_eq!(d.connection_count(), 0, "wires to the icon are gone");
        assert!(d.fu_assign(als, 0).is_none(), "assignments are gone");
        assert!(d.remove_icon(als).is_err(), "double delete reports");
    }

    #[test]
    fn fu_assignment_requires_active_position() {
        let mut d = diagram();
        let t = d.add_icon(IconKind::als(AlsKind::Triplet));
        assert!(d.assign_fu(t, 2, FuAssign::binary(FuOp::Mul)).is_ok());
        assert_eq!(
            d.assign_fu(t, 3, FuAssign::binary(FuOp::Mul)),
            Err(DiagramError::NoSuchUnit(t, 3))
        );
        let m = d.add_icon(IconKind::memory());
        assert!(matches!(
            d.assign_fu(m, 0, FuAssign::binary(FuOp::Mul)),
            Err(DiagramError::NoSuchUnit(..))
        ));
        // clear works
        assert!(d.clear_fu_assign(t, 2).is_some());
        assert!(d.fu_assign(t, 2).is_none());
    }

    #[test]
    fn incoming_outgoing_queries() {
        let mut d = diagram();
        let mem = d.add_icon(IconKind::memory());
        let sdu = d.add_icon(IconKind::sdu());
        let als = d.add_icon(IconKind::als(AlsKind::Singlet));
        d.connect(PadLoc::new(mem, PadRef::Io), PadLoc::new(sdu, PadRef::SduIn), None).unwrap();
        d.connect(
            PadLoc::new(sdu, PadRef::SduTap { tap: 0 }),
            PadLoc::new(als, PadRef::FuIn { pos: 0, port: InPort::A }),
            None,
        )
        .unwrap();
        d.connect(
            PadLoc::new(sdu, PadRef::SduTap { tap: 1 }),
            PadLoc::new(als, PadRef::FuIn { pos: 0, port: InPort::B }),
            None,
        )
        .unwrap();
        assert_eq!(d.incoming(PadLoc::new(sdu, PadRef::SduIn)).len(), 1);
        assert_eq!(d.outgoing(PadLoc::new(sdu, PadRef::SduTap { tap: 0 })).len(), 1);
        assert_eq!(d.incoming(PadLoc::new(als, PadRef::FuIn { pos: 0, port: InPort::B })).len(), 1);
    }

    #[test]
    fn sdu_taps_only_on_sdu_icons() {
        let mut d = diagram();
        let sdu = d.add_icon(IconKind::sdu());
        let mem = d.add_icon(IconKind::memory());
        assert!(d.set_sdu_taps(sdu, vec![0, 63, 4095]).is_ok());
        assert_eq!(d.sdu_taps(sdu), &[0, 63, 4095]);
        assert!(d.set_sdu_taps(mem, vec![1]).is_err());
        assert_eq!(d.sdu_taps(mem), &[] as &[u16]);
    }

    #[test]
    fn tap_count_respects_the_structural_cap() {
        let mut d = diagram();
        let sdu = d.add_icon(IconKind::sdu());
        // Exactly at the cap is fine; one over is rejected, consistent
        // with has_pad's `tap < MAX_SDU_TAPS` rule.
        assert!(d.set_sdu_taps(sdu, (0..MAX_SDU_TAPS as u16).collect()).is_ok());
        let err = d.set_sdu_taps(sdu, (0..=MAX_SDU_TAPS as u16).collect()).unwrap_err();
        assert_eq!(err, DiagramError::TooManyTaps { icon: sdu, requested: MAX_SDU_TAPS + 1 });
        assert_eq!(d.sdu_taps(sdu).len(), MAX_SDU_TAPS, "prior programming survives");
        assert!(!d.has_pad(PadLoc::new(sdu, PadRef::SduTap { tap: MAX_SDU_TAPS as u8 })));
    }

    #[test]
    fn scalars_are_vectors_of_length_one() {
        let d = diagram();
        assert_eq!(d.stream_len, 1);
    }

    #[test]
    fn serde_round_trip_preserves_everything() {
        let mut d = diagram();
        let mem = d.add_icon(IconKind::memory());
        let als = d.add_icon(IconKind::als(AlsKind::Doublet));
        d.connect(
            PadLoc::new(mem, PadRef::Io),
            PadLoc::new(als, PadRef::FuIn { pos: 0, port: InPort::A }),
            Some(DmaAttrs::variable("u").with_stride(2)),
        )
        .unwrap();
        d.assign_fu(als, 0, FuAssign::with_const(FuOp::Mul, 0.25)).unwrap();
        d.stream_len = 4096;
        let json = serde_json::to_string(&d).unwrap();
        let back: PipelineDiagram = serde_json::from_str(&json).unwrap();
        assert_eq!(back, d);
    }
}
