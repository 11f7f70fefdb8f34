//! One pipeline builder: every generated pipeline diagram lowers here.
//!
//! The expression mapper's trees and the stencil sweeps of `nsc-cfd` are
//! described with stream handles — reads of declared variables,
//! operations on streams, stores — and [`PipelineBuilder`] makes each
//! layout decision by one rule:
//!
//! * **Units.** Each operation takes the first free unit, in the node's
//!   ALS order (triplets, doublets, singlets), whose
//!   [`AlsKind::unit_caps`] support it, so a `MaxAbs` fold lands on a
//!   min/max tail. [`Placement::OnePerAls`] (§6's singlets-only subset)
//!   takes one unit per ALS. An ALS icon appears with its first unit.
//! * **Reads.** A variable read at more than one offset streams through
//!   shift/delay taps, four to a unit: offset `o` is the tap of delay
//!   `lead − o`. A variable read at one offset is a direct plane read
//!   that every unit it feeds shares (one read stream per plane, §3).
//!   When two different direct reads meet at one unit, the second is
//!   staged through a COPY unit (one read plane per unit, §3).
//! * **Alignment.** Every stream runs `2·lead` elements ahead of the
//!   output, so the pipeline streams `len + 2·lead` elements. In a
//!   variable stored `pad` words after its base, the window starts at
//!   `origin = pad + first`: a tapped variable streams from
//!   `origin − lead`, a direct read at offset `o` from
//!   `origin + o − 2·lead`, and a store writes `len` words from `origin`.
//!   A stored or folded stream must have passed through the deepest tap
//!   (delay `2·lead`), or its first element would not be the window's.
//! * **Folds.** A fold's last element lands in the window's cache slot.
//!
//! Offsets, delays and addresses are computed in `u64`/`i64` and
//! converted with `try_from`: a delay past the 16-bit tap field is a
//! [`DiagramError::TapDelay`], never a wrapped tap.

#![deny(clippy::cast_possible_truncation)]

use crate::attrs::{DmaAttrs, FuAssign};
use crate::icon::{IconKind, PadRef};
use crate::ids::IconId;
use crate::pipeline::{DiagramError, PadLoc, PipelineDiagram};
use nsc_arch::{AlsKind, CacheId, FuOp, InPort, MachineConfig};

/// How [`Units`] spreads operations over the node's ALSs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Placement {
    /// Fill each ALS before opening the next.
    Packed,
    /// One unit per ALS: the §6 singlets-only subset.
    OnePerAls,
}

/// The functional units of one pipeline: the node's ALSs in the binder's
/// order, each with its icon once a unit on it is placed and a bit per
/// taken position.
#[derive(Debug, Clone)]
pub struct Units {
    placement: Placement,
    als: Vec<(AlsKind, Option<IconId>, u8)>,
    placed: usize,
}

impl Units {
    /// Every unit of `node`, none placed.
    pub fn on(node: &MachineConfig, placement: Placement) -> Self {
        Units { placement, als: node.als_kinds().map(|k| (k, None, 0)).collect(), placed: 0 }
    }

    /// Program `assign` on the first free unit whose capabilities support
    /// its operation, adding the unit's ALS icon to `d` with its first
    /// unit.
    pub fn place(
        &mut self,
        d: &mut PipelineDiagram,
        assign: FuAssign,
    ) -> Result<(IconId, u8), DiagramError> {
        for (kind, icon, taken) in &mut self.als {
            if self.placement == Placement::OnePerAls && *taken != 0 {
                continue;
            }
            let free = (0u8..).take(kind.unit_count()).find(|&p| {
                *taken & (1 << p) == 0 && kind.unit_caps(usize::from(p)).supports(assign.op)
            });
            if let Some(pos) = free {
                let icon = *icon.get_or_insert_with(|| d.add_icon(IconKind::als(*kind)));
                *taken |= 1 << pos;
                self.placed += 1;
                d.assign_fu(icon, pos, assign)?;
                return Ok((icon, pos));
            }
        }
        Err(DiagramError::NoFreeUnit(assign.op))
    }
}

/// The output window of a pipeline, in grid points.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OutputWindow {
    /// The first output point.
    pub first: u64,
    /// Output points.
    pub len: u64,
    /// How far the stencil's taps reach either way; 0 without taps.
    pub lead: u64,
    /// Cache address of the window's fold.
    pub slot: u64,
}

/// A stream of the pipeline being built: where it leaves from, whether
/// that is a memory plane, and the deepest tap delay it has passed
/// through.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Stream {
    pad: PadLoc,
    plane_read: bool,
    lag: u64,
}

/// Builds one pipeline diagram from stream handles; see the module docs.
#[derive(Debug)]
pub struct PipelineBuilder<'a> {
    d: &'a mut PipelineDiagram,
    window: OutputWindow,
    units: Units,
    taps_per_sdu: usize,
    /// Direct plane and cache reads by variable and offset, with the DMA
    /// form every wire from them carries: one read stream each, shared by
    /// every unit it feeds.
    reads: Vec<(String, i64, Stream, DmaAttrs)>,
    copies: usize,
}

impl<'a> PipelineBuilder<'a> {
    /// Build into `d` (an empty diagram) for `window` on the 1988 node,
    /// placing units as `placement` says.
    pub fn new(d: &'a mut PipelineDiagram, placement: Placement, window: OutputWindow) -> Self {
        let node = MachineConfig::nsc_1988();
        d.stream_len = window.len + 2 * window.lead;
        PipelineBuilder {
            d,
            window,
            units: Units::on(&node, placement),
            taps_per_sdu: node.sdu.taps_per_unit,
            reads: Vec::new(),
            copies: 0,
        }
    }

    /// Functional units placed so far, COPY units included.
    pub fn units(&self) -> usize {
        self.units.placed
    }

    /// COPY units inserted so far to keep one read plane per unit.
    pub fn copies(&self) -> usize {
        self.copies
    }

    /// The read of `var` at `offset` this pipeline already streams.
    fn shared(&self, var: &str, offset: i64) -> Option<Stream> {
        self.reads.iter().find(|(v, o, ..)| v == var && *o == offset).map(|&(_, _, s, _)| s)
    }

    /// The DMA form of a storage read, `None` for every other stream.
    fn form(&self, s: Stream) -> Option<&DmaAttrs> {
        self.reads.iter().find(|(_, _, r, _)| r.pad == s.pad).map(|(.., dma)| dma)
    }

    /// Read `var`, stored `pad` words after its declared base, at each
    /// offset (in words from the output point): through shift/delay taps
    /// for more than one offset, directly for one.
    pub fn read<const N: usize>(
        &mut self,
        var: &str,
        pad: u64,
        offsets: [i64; N],
    ) -> Result<[Stream; N], DiagramError> {
        let origin = pad + self.window.first;
        let lead = self.window.lead;
        let outside = |what: String| DiagramError::Window(format!("{var} {what}"));
        if N == 1 {
            let offset = offsets[0];
            if let Some(s) = self.shared(var, offset) {
                return Ok([s; N]);
            }
            let start = origin
                .checked_add_signed(offset)
                .and_then(|a| a.checked_sub(2 * lead))
                .ok_or_else(|| outside(format!("at offset {offset} starts before its storage")))?;
            let mem = self.d.add_icon(IconKind::memory());
            let s = Stream { pad: PadLoc::new(mem, PadRef::Io), plane_read: true, lag: 0 };
            self.reads.push((
                var.to_owned(),
                offset,
                s,
                DmaAttrs::variable(var).with_offset(start),
            ));
            return Ok([s; N]);
        }
        let start =
            origin.checked_sub(lead).ok_or_else(|| outside("streams before its storage".into()))?;
        let mut taps = Vec::with_capacity(N);
        for o in offsets {
            let delay = o
                .checked_neg()
                .and_then(|n| lead.checked_add_signed(n))
                .ok_or_else(|| outside(format!("at offset {o} lies past the lead {lead}")))?;
            taps.push((delay, u16::try_from(delay).map_err(|_| DiagramError::TapDelay { delay })?));
        }
        let mem = self.d.add_icon(IconKind::memory());
        let mut streams =
            [Stream { pad: PadLoc::new(mem, PadRef::Io), plane_read: false, lag: 0 }; N];
        let mut slots = streams.iter_mut();
        for chunk in taps.chunks(self.taps_per_sdu) {
            let sdu = self.d.add_icon(IconKind::sdu());
            self.d.set_sdu_taps(sdu, chunk.iter().map(|&(_, tap)| tap).collect())?;
            let dma = DmaAttrs::variable(var).with_offset(start);
            self.d.connect(
                PadLoc::new(mem, PadRef::Io),
                PadLoc::new(sdu, PadRef::SduIn),
                Some(dma),
            )?;
            for (tap, &(lag, _)) in (0u8..).zip(chunk) {
                let pad = PadLoc::new(sdu, PadRef::SduTap { tap });
                *slots.next().expect("one stream per offset") =
                    Stream { pad, plane_read: false, lag };
            }
        }
        Ok(streams)
    }

    /// Read `var` from the cache it was staged into, from address 0.
    pub fn cache_read(&mut self, var: &str, cache: CacheId) -> Stream {
        if let Some(s) = self.shared(var, 0) {
            return s;
        }
        let icon = self.d.add_icon(IconKind::Cache { cache: Some(cache) });
        let s = Stream { pad: PadLoc::new(icon, PadRef::Io), plane_read: false, lag: 0 };
        self.reads.push((var.to_owned(), 0, s, DmaAttrs::at_address(0)));
        s
    }

    /// `op a`.
    pub fn unary(&mut self, op: FuOp, a: Stream) -> Result<Stream, DiagramError> {
        self.unit(FuAssign::unary(op), a, None)
    }

    /// `a op b`.
    pub fn binary(&mut self, op: FuOp, a: Stream, b: Stream) -> Result<Stream, DiagramError> {
        self.unit(FuAssign::binary(op), a, Some(b))
    }

    /// `a op c` for a register-file constant `c`.
    pub fn constant(&mut self, op: FuOp, a: Stream, c: f64) -> Result<Stream, DiagramError> {
        self.unit(FuAssign::with_const(op, c), a, None)
    }

    /// The running `acc = acc op a` from `acc = init`.
    pub fn fold(&mut self, op: FuOp, a: Stream, init: f64) -> Result<Stream, DiagramError> {
        self.unit(FuAssign::reduction(op, init), a, None)
    }

    fn unit(
        &mut self,
        assign: FuAssign,
        a: Stream,
        mut b: Option<Stream>,
    ) -> Result<Stream, DiagramError> {
        if let Some(s) = b {
            if a.plane_read && s.plane_read && a.pad != s.pad {
                b = Some(self.unit(FuAssign::unary(FuOp::Copy), s, None)?);
                self.copies += 1;
            }
        }
        let (icon, pos) = self.units.place(self.d, assign)?;
        let mut lag = 0;
        for (port, s) in [(InPort::A, Some(a)), (InPort::B, b)] {
            if let Some(s) = s {
                lag = lag.max(s.lag);
                let to = PadLoc::new(icon, PadRef::FuIn { pos, port });
                self.d.connect(s.pad, to, self.form(s).cloned())?;
            }
        }
        Ok(Stream { pad: PadLoc::new(icon, PadRef::FuOut { pos }), plane_read: false, lag })
    }

    /// Wire `s` into a new storage icon of `kind` through `dma`, once `s`
    /// has run the window's full warm-up.
    fn sink(&mut self, s: Stream, kind: IconKind, dma: DmaAttrs) -> Result<(), DiagramError> {
        let warmup = 2 * self.window.lead;
        if s.lag != warmup {
            return Err(DiagramError::Window(format!(
                "a stream lagging its input by {} elements lands a window whose warm-up is \
                 {warmup}",
                s.lag
            )));
        }
        let icon = self.d.add_icon(kind);
        self.d.connect(s.pad, PadLoc::new(icon, PadRef::Io), Some(dma))?;
        Ok(())
    }

    /// Store `s` to the window of `var`, stored `pad` words after its
    /// declared base.
    pub fn store(&mut self, var: &str, pad: u64, s: Stream) -> Result<(), DiagramError> {
        let dma = DmaAttrs::variable(var)
            .with_offset(pad + self.window.first)
            .with_count(self.window.len);
        self.sink(s, IconKind::memory(), dma)
    }

    /// Land the last element of the fold `s` in the window's cache slot.
    pub fn capture(&mut self, s: Stream) -> Result<(), DiagramError> {
        self.sink(s, IconKind::cache(), DmaAttrs::at_address(self.window.slot).last_only())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::PipelineId;

    fn diagram() -> PipelineDiagram {
        PipelineDiagram::new(PipelineId(0), "build")
    }

    fn window(lead: u64) -> OutputWindow {
        OutputWindow { first: 0, len: 16, lead, slot: 3 }
    }

    #[test]
    fn folds_land_on_min_max_units() {
        let mut d = diagram();
        let mut b = PipelineBuilder::new(&mut d, Placement::Packed, window(0));
        let [x] = b.read("x", 0, [0]).unwrap();
        let y = b.constant(FuOp::Mul, x, 2.0).unwrap();
        let z = b.constant(FuOp::Add, y, 1.0).unwrap();
        let m = b.fold(FuOp::MaxAbs, z, 0.0).unwrap();
        b.capture(m).unwrap();
        assert_eq!(b.units(), 3);
        let placed: Vec<(u8, FuOp)> = d.fu_assigns().map(|(_, p, a)| (p, a.op)).collect();
        // A triplet's middle unit lacks min/max: the fold skips it.
        assert_eq!(placed, [(0, FuOp::Mul), (1, FuOp::Add), (2, FuOp::MaxAbs)]);
        let cache = d.connections().last().unwrap().dma.clone().unwrap();
        assert_eq!(cache, DmaAttrs::at_address(3).last_only());
    }

    #[test]
    fn one_per_als_opens_an_als_per_unit() {
        let mut d = diagram();
        let mut b = PipelineBuilder::new(&mut d, Placement::OnePerAls, window(0));
        let [x] = b.read("x", 0, [0]).unwrap();
        let mut s = x;
        for _ in 0..3 {
            s = b.unary(FuOp::Abs, s).unwrap();
        }
        assert_eq!(d.icon_count(), 4, "a memory icon and three ALS icons");
        assert!(d.fu_assigns().all(|(_, pos, _)| pos == 0));
    }

    #[test]
    fn stencil_taps_run_lead_minus_offset_behind() {
        let mut d = diagram();
        let mut b = PipelineBuilder::new(&mut d, Placement::Packed, window(4));
        let [n, e, w, s, c] = b.read("u", 4, [4, 1, -1, -4, 0]).unwrap();
        let [g] = b.read("g", 8, [0]).unwrap();
        let ns = b.binary(FuOp::Add, n, s).unwrap();
        let ew = b.binary(FuOp::Add, e, w).unwrap();
        let sum = b.binary(FuOp::Add, ns, ew).unwrap();
        let r = b.binary(FuOp::Sub, sum, g).unwrap();
        let out = b.binary(FuOp::Add, r, c).unwrap();
        b.store("v", 4, out).unwrap();
        let sdus: Vec<&[u16]> = d
            .icons()
            .filter(|i| matches!(i.kind, IconKind::Sdu { .. }))
            .map(|i| d.sdu_taps(i.id))
            .collect();
        assert_eq!(sdus, [&[0, 3, 5, 8][..], &[4]], "four taps to a unit");
        let dma = |var: &str| {
            d.connections()
                .filter_map(|c| c.dma.as_ref())
                .find(|a| a.variable.as_deref() == Some(var))
                .cloned()
                .unwrap()
        };
        assert_eq!(dma("u").offset, 0, "the tapped stream starts lead before the window");
        assert_eq!(dma("g").offset, 0, "a direct read starts 2·lead before its origin");
        assert_eq!((dma("v").offset, dma("v").count), (4, Some(16)));
        assert_eq!(d.stream_len, 16 + 8);
    }

    #[test]
    fn two_direct_reads_meet_through_a_copy() {
        let mut d = diagram();
        let mut b = PipelineBuilder::new(&mut d, Placement::Packed, window(0));
        let [x] = b.read("x", 0, [0]).unwrap();
        let [y] = b.read("y", 0, [0]).unwrap();
        let sum = b.binary(FuOp::Add, x, y).unwrap();
        let twice = b.binary(FuOp::Add, sum, x).unwrap();
        let same = b.binary(FuOp::Mul, x, x).unwrap();
        b.binary(FuOp::Add, twice, same).unwrap();
        assert_eq!((b.units(), b.copies()), (5, 1), "x and x need no copy");
        assert_eq!(d.icon_count(), 4, "one memory icon per variable, two triplets");
    }

    #[test]
    fn unreachable_taps_and_windows_are_errors_not_wraps() {
        let mut d = diagram();
        let mut b = PipelineBuilder::new(&mut d, Placement::Packed, window(40_000));
        let err = b.read("u", 40_000, [40_000, -40_000]).unwrap_err();
        assert_eq!(err, DiagramError::TapDelay { delay: 80_000 });
        let mut d = diagram();
        let mut b = PipelineBuilder::new(&mut d, Placement::Packed, window(4));
        assert!(matches!(b.read("u", 4, [5, 0]), Err(DiagramError::Window(_))), "past the lead");
        assert!(matches!(b.read("g", 4, [0]), Err(DiagramError::Window(_))), "before storage");
        let [up, c] = b.read("u", 4, [4, 0]).unwrap();
        let s = b.binary(FuOp::Add, up, c).unwrap();
        assert!(matches!(b.store("v", 4, s), Err(DiagramError::Window(_))), "short warm-up");
    }

    #[test]
    fn the_node_runs_out_of_units() {
        let mut d = diagram();
        let mut units = Units::on(&MachineConfig::nsc_1988(), Placement::Packed);
        for _ in 0..32 {
            units.place(&mut d, FuAssign::unary(FuOp::Copy)).unwrap();
        }
        let err = units.place(&mut d, FuAssign::unary(FuOp::Copy)).unwrap_err();
        assert_eq!(err, DiagramError::NoFreeUnit(FuOp::Copy));
    }
}
