//! Lowering one pipeline diagram to one microinstruction.

use crate::GenError;
use nsc_arch::{FuId, InPort, KnowledgeBase, SinkRef, SourceRef};
use nsc_checker::{diag::has_errors, rules, Stage};
use nsc_diagram::{
    CaptureMode, Declarations, DmaAttrs, IconId, IconKind, InputSpec, PadLoc, PadRef,
    PipelineDiagram, PipelineId,
};
use nsc_microcode::{
    CacheDmaField, FuField, FuInputSel, MicroInstruction, PlaneDmaField, SduField, WriteMode,
};
use std::collections::BTreeMap;

/// Metadata tying a generated instruction back to its diagram — consumed
/// by the visual debugger (paper §6's proposed extension) to annotate pads
/// with live values.
#[derive(Debug, Clone, PartialEq)]
pub struct InstrMap {
    /// The diagram this instruction was lowered from.
    pub pipeline: PipelineId,
    /// Physical functional unit of each programmed (icon, position).
    pub unit_to_fu: BTreeMap<(IconId, u8), FuId>,
    /// Elements each write actually stores (stream length minus warm-up).
    pub valid_count: u64,
    /// The automatically-derived warm-up skip applied to plain writes.
    pub write_skip: u64,
}

/// A lowered pipeline: the instruction plus its diagram back-references.
#[derive(Debug, Clone, PartialEq)]
pub struct LoweredPipeline {
    /// The machine instruction.
    pub instr: MicroInstruction,
    /// Back-references for debugging and annotation.
    pub map: InstrMap,
}

/// Lag bookkeeping for one stream edge: `transport` counts pipeline depths
/// crossed (functional-unit latencies, SDU transit), `intended` counts
/// semantic element shifts (SDU tap delays, user-requested queue delays).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
struct Lag {
    transport: u32,
    intended: u32,
}

/// Lower one diagram against the machine and document declarations.
pub fn lower_pipeline(
    kb: &KnowledgeBase,
    d: &PipelineDiagram,
    decls: &Declarations,
) -> Result<LoweredPipeline, GenError> {
    // "The checker is invoked again at this point."
    let diags = rules::check_pipeline_with(kb, d, Stage::Global, Some(decls));
    if has_errors(&diags) {
        return Err(GenError::CheckFailed(
            diags.into_iter().filter(|x| x.severity == nsc_checker::Severity::Error).collect(),
        ));
    }

    let layout = kb.layout();
    let mut ins = MicroInstruction::empty(kb);
    let mut unit_to_fu: BTreeMap<(IconId, u8), FuId> = BTreeMap::new();

    // ------------------------------------------------------------------
    // resolve physical units
    // ------------------------------------------------------------------
    for icon in d.icons() {
        if let IconKind::Als { als: Some(als_id), kind, mode } = icon.kind {
            let positions: Vec<u8> = match kind {
                nsc_arch::AlsKind::Doublet => {
                    mode.active_positions().iter().map(|&p| p as u8).collect()
                }
                k => (0..k.unit_count() as u8).collect(),
            };
            for pos in positions {
                unit_to_fu.insert((icon.id, pos), layout.als(als_id).fus[pos as usize]);
            }
        }
    }

    // ------------------------------------------------------------------
    // timing analysis: lag per icon output
    // ------------------------------------------------------------------
    // out_lags[(icon, pad)] = lag of the stream leaving that pad.
    let mut out_lags: BTreeMap<PadLoc, Lag> = BTreeMap::new();
    // Storage sources have zero lag by definition.
    for icon in d.icons() {
        if matches!(icon.kind, IconKind::Memory { .. } | IconKind::Cache { .. }) {
            out_lags.insert(PadLoc::new(icon.id, PadRef::Io), Lag::default());
        }
    }
    // Per-unit queue compensation chosen by the alignment pass.
    let mut compensation: BTreeMap<(IconId, u8, InPort), u32> = BTreeMap::new();

    // Relaxation over the (acyclic, checker-verified) dataflow graph.
    let assigns: Vec<(IconId, u8, nsc_diagram::FuAssign)> =
        d.fu_assigns().map(|(i, p, a)| (i, p, *a)).collect();
    let sdu_icons: Vec<IconId> =
        d.icons().filter(|i| matches!(i.kind, IconKind::Sdu { .. })).map(|i| i.id).collect();
    let lat = kb.config().latency;
    let max_rounds = assigns.len() + sdu_icons.len() + 2;
    for _ in 0..max_rounds {
        let mut progressed = false;
        // SDUs: input lag + transit, taps add intended delay.
        for &sid in &sdu_icons {
            let in_pad = PadLoc::new(sid, PadRef::SduIn);
            let Some(wire) = d.incoming(in_pad).first().map(|c| c.from) else { continue };
            let Some(&src) = out_lags.get(&wire) else { continue };
            let delays = d.sdu_taps(sid);
            for (t, &delay) in delays.iter().enumerate() {
                let pad = PadLoc::new(sid, PadRef::SduTap { tap: t as u8 });
                let lag = Lag {
                    transport: src.transport + lat.sdu_transit,
                    intended: src.intended + delay as u32,
                };
                if out_lags.insert(pad, lag) != Some(lag) {
                    progressed = true;
                }
            }
        }
        // Units: wired inputs must all be known; align, then publish output.
        for &(icon, pos, assign) in &assigns {
            let mut inputs: Vec<(InPort, Lag, u32)> = Vec::new(); // (port, lag, user delay)
            let mut ready = true;
            for (port, spec) in [(InPort::A, assign.in_a), (InPort::B, assign.in_b)] {
                if !spec.wants_wire() {
                    continue;
                }
                if assign.op.arity() == 1 && port == InPort::B {
                    continue;
                }
                let pad = PadLoc::new(icon, PadRef::FuIn { pos, port });
                let Some(wire) = d.incoming(pad).first().map(|c| c.from) else { continue };
                match out_lags.get(&wire) {
                    Some(&lag) => {
                        let user = match spec {
                            InputSpec::DelayedWire { delay } => delay as u32,
                            _ => 0,
                        };
                        inputs.push((port, lag, user));
                    }
                    None => ready = false,
                }
            }
            if !ready {
                continue;
            }
            // Align transports: every input is padded up to the deepest.
            let max_transport = inputs.iter().map(|(_, l, _)| l.transport).max().unwrap_or(0);
            let mut out_intended = 0;
            for &(port, lag, user) in &inputs {
                let comp = max_transport - lag.transport;
                compensation.insert((icon, pos, port), comp);
                out_intended = out_intended.max(lag.intended + user);
            }
            let out =
                Lag { transport: max_transport + lat.latency(assign.op), intended: out_intended };
            let pad = PadLoc::new(icon, PadRef::FuOut { pos });
            if out_lags.insert(pad, out) != Some(out) {
                progressed = true;
            }
        }
        if !progressed {
            break;
        }
    }

    // ------------------------------------------------------------------
    // functional-unit fields
    // ------------------------------------------------------------------
    for &(icon, pos, assign) in &assigns {
        let Some(&fu) = unit_to_fu.get(&(icon, pos)) else {
            return Err(GenError::Unsupported(format!(
                "{icon}.u{pos} is programmed but its icon is unbound"
            )));
        };
        let mut field = FuField::active(assign.op);
        let mut preload: Option<f64> = None;
        let set_input = |spec: InputSpec,
                         port: InPort,
                         preload: &mut Option<f64>|
         -> Result<FuInputSel, GenError> {
            let comp = compensation.get(&(icon, pos, port)).copied().unwrap_or(0);
            Ok(match spec {
                InputSpec::Wire => {
                    if comp > 0 {
                        FuInputSel::Queue(queue_depth(icon, pos, comp, kb)?)
                    } else {
                        FuInputSel::Switch
                    }
                }
                InputSpec::DelayedWire { delay } => {
                    let total = delay as u32 + comp;
                    FuInputSel::Queue(queue_depth(icon, pos, total, kb)?)
                }
                InputSpec::Constant(v) => {
                    if preload.replace(v).is_some() {
                        return Err(GenError::PreloadConflict { icon, pos });
                    }
                    FuInputSel::Constant(0)
                }
                InputSpec::Feedback { init } => {
                    if preload.replace(init).is_some() {
                        return Err(GenError::PreloadConflict { icon, pos });
                    }
                    FuInputSel::Feedback(0)
                }
                InputSpec::Unused => FuInputSel::Constant(0),
            })
        };
        field.in_a = set_input(assign.in_a, InPort::A, &mut preload)?;
        field.in_b = set_input(assign.in_b, InPort::B, &mut preload)?;
        field.const_slot = 0;
        field.preload = preload;
        *ins.fu_mut(fu) = field;
    }

    // ------------------------------------------------------------------
    // switch program from the connection table
    // ------------------------------------------------------------------
    for c in d.connections() {
        let source = source_ref(d, c.from, &unit_to_fu)?;
        let sink = sink_ref(d, c.to, &unit_to_fu)?;
        ins.switch.route(kb, source, sink);
    }

    // ------------------------------------------------------------------
    // DMA descriptors (+ automatic write skip)
    // ------------------------------------------------------------------
    let stream_len = d.stream_len;
    let mut write_skip_max = 0u64;
    let mut valid_count = stream_len;
    for icon in d.icons() {
        let io = PadLoc::new(icon.id, PadRef::Io);
        match icon.kind {
            IconKind::Memory { plane: Some(p) } => {
                if let Some(wire) = d.outgoing(io).first() {
                    let attrs = wire.dma.as_ref().expect("checked");
                    let (base, stride, count) = resolve(attrs, decls, stream_len);
                    *ins.plane_rd_mut(p) = PlaneDmaField {
                        enabled: true,
                        base: base as u32,
                        stride: stride as i32,
                        count: count as u32,
                        skip: 0,
                        mode: WriteMode::Stream,
                    };
                }
                if let Some(wire) = d.incoming(io).first() {
                    let attrs = wire.dma.as_ref().expect("checked");
                    let lag = out_lags.get(&wire.from).copied().unwrap_or_default();
                    let (base, stride, count, warmup, mode) =
                        write_side(attrs, decls, stream_len, lag);
                    *ins.plane_wr_mut(p) = PlaneDmaField {
                        enabled: true,
                        base: base as u32,
                        stride: stride as i32,
                        count: count as u32,
                        skip: 0,
                        mode,
                    };
                    if mode == WriteMode::Stream {
                        write_skip_max = write_skip_max.max(warmup);
                        valid_count = valid_count.min(count);
                    }
                }
            }
            IconKind::Cache { cache: Some(cid) } => {
                if let Some(wire) = d.outgoing(io).first() {
                    let attrs = wire.dma.as_ref().expect("checked");
                    let (base, stride, count) = resolve(attrs, decls, stream_len);
                    *ins.cache_rd_mut(cid) = CacheDmaField {
                        enabled: true,
                        offset: base as u16,
                        stride: stride as i16,
                        count: count as u16,
                        skip: 0,
                        buffer: 0,
                        mode: WriteMode::Stream,
                    };
                }
                if let Some(wire) = d.incoming(io).first() {
                    let attrs = wire.dma.as_ref().expect("checked");
                    let lag = out_lags.get(&wire.from).copied().unwrap_or_default();
                    let (base, stride, count, warmup, mode) =
                        write_side(attrs, decls, stream_len, lag);
                    *ins.cache_wr_mut(cid) = CacheDmaField {
                        enabled: true,
                        offset: base as u16,
                        stride: stride as i16,
                        count: count as u16,
                        skip: 0,
                        buffer: 0,
                        mode,
                    };
                    if mode == WriteMode::Stream {
                        write_skip_max = write_skip_max.max(warmup);
                        valid_count = valid_count.min(count);
                    }
                }
            }
            IconKind::Sdu { sdu: Some(sid) } => {
                let delays = d.sdu_taps(icon.id);
                if !delays.is_empty() {
                    *ins.sdu_mut(sid) = SduField::with_delays(delays);
                }
            }
            _ => {}
        }
    }

    let map = InstrMap { pipeline: d.id, unit_to_fu, valid_count, write_skip: write_skip_max };
    Ok(LoweredPipeline { instr: ins, map })
}

/// Resolve DMA attributes to (base, stride, default count).
fn resolve(attrs: &DmaAttrs, decls: &Declarations, stream_len: u64) -> (u64, i64, u64) {
    let base = match &attrs.variable {
        Some(name) => decls.lookup(name).map(|v| v.base).unwrap_or(0) + attrs.offset,
        None => attrs.offset,
    };
    (base, attrs.stride, attrs.count.unwrap_or(stream_len))
}

/// Write-side descriptor pieces: base, stride, count, skip, mode.
fn write_side(
    attrs: &DmaAttrs,
    decls: &Declarations,
    stream_len: u64,
    lag: Lag,
) -> (u64, i64, u64, u64, WriteMode) {
    let (base, stride, _) = resolve(attrs, decls, stream_len);
    match attrs.mode {
        CaptureMode::LastOnly => (base, stride, attrs.count.unwrap_or(1), 0, WriteMode::LastOnly),
        CaptureMode::Stream => {
            // The first `intended` elements of the stream pair with
            // pre-stream data (stencil warm-up). The NSC datapath carries a
            // data-valid line with every word — DMA controllers, SDUs and
            // units all know their fill state — so warm-up slots arrive
            // invalid and are never stored; the generator only has to
            // shorten the stored count. (The encoded `skip` field remains
            // available for explicit sub-range stores.)
            let warmup = lag.intended as u64;
            let count = attrs.count.unwrap_or(stream_len.saturating_sub(warmup));
            (base, stride, count, warmup, WriteMode::Stream)
        }
    }
}

fn queue_depth(icon: IconId, pos: u8, depth: u32, kb: &KnowledgeBase) -> Result<u8, GenError> {
    let capacity = kb.config().rf_words;
    if depth as usize >= capacity {
        return Err(GenError::DelayOverflow { icon, pos, needed: depth, capacity });
    }
    Ok(depth as u8)
}

fn source_ref(
    d: &PipelineDiagram,
    loc: PadLoc,
    unit_to_fu: &BTreeMap<(IconId, u8), FuId>,
) -> Result<SourceRef, GenError> {
    let icon =
        d.icon(loc.icon).ok_or_else(|| GenError::Unsupported(format!("{loc} names no icon")))?;
    Ok(match (icon.kind, loc.pad) {
        (IconKind::Als { .. }, PadRef::FuOut { pos }) => {
            let fu = unit_to_fu
                .get(&(loc.icon, pos))
                .ok_or_else(|| GenError::Unsupported(format!("{loc} has no bound unit")))?;
            SourceRef::Fu(*fu)
        }
        (IconKind::Memory { plane: Some(p) }, PadRef::Io) => SourceRef::PlaneRead(p),
        (IconKind::Cache { cache: Some(c) }, PadRef::Io) => SourceRef::CacheRead(c),
        (IconKind::Sdu { sdu: Some(s) }, PadRef::SduTap { tap }) => SourceRef::SduTap(s, tap),
        _ => return Err(GenError::Unsupported(format!("cannot source a stream from {loc}"))),
    })
}

fn sink_ref(
    d: &PipelineDiagram,
    loc: PadLoc,
    unit_to_fu: &BTreeMap<(IconId, u8), FuId>,
) -> Result<SinkRef, GenError> {
    let icon =
        d.icon(loc.icon).ok_or_else(|| GenError::Unsupported(format!("{loc} names no icon")))?;
    Ok(match (icon.kind, loc.pad) {
        (IconKind::Als { .. }, PadRef::FuIn { pos, port }) => {
            let fu = unit_to_fu
                .get(&(loc.icon, pos))
                .ok_or_else(|| GenError::Unsupported(format!("{loc} has no bound unit")))?;
            SinkRef::FuIn(*fu, port)
        }
        (IconKind::Memory { plane: Some(p) }, PadRef::Io) => SinkRef::PlaneWrite(p),
        (IconKind::Cache { cache: Some(c) }, PadRef::Io) => SinkRef::CacheWrite(c),
        (IconKind::Sdu { sdu: Some(s) }, PadRef::SduIn) => SinkRef::SduIn(s),
        _ => return Err(GenError::Unsupported(format!("cannot sink a stream into {loc}"))),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use nsc_arch::{AlsKind, FuOp};
    use nsc_diagram::FuAssign;

    fn kb() -> KnowledgeBase {
        KnowledgeBase::nsc_1988()
    }

    /// MP0 --> [mul x2] --> MP1, 64 elements.
    fn scale_pipeline(kb: &KnowledgeBase) -> (PipelineDiagram, Declarations) {
        let mut d = PipelineDiagram::new(PipelineId(0), "scale");
        d.stream_len = 64;
        let src = d.add_icon(IconKind::Memory { plane: Some(nsc_arch::PlaneId(0)) });
        let als = d.add_icon(IconKind::als(AlsKind::Singlet));
        let dst = d.add_icon(IconKind::Memory { plane: Some(nsc_arch::PlaneId(1)) });
        nsc_checker::auto_bind(kb, &mut d, &Declarations::default());
        d.connect(
            PadLoc::new(src, PadRef::Io),
            PadLoc::new(als, PadRef::FuIn { pos: 0, port: InPort::A }),
            Some(DmaAttrs::at_address(0)),
        )
        .unwrap();
        d.connect(
            PadLoc::new(als, PadRef::FuOut { pos: 0 }),
            PadLoc::new(dst, PadRef::Io),
            Some(DmaAttrs::at_address(128)),
        )
        .unwrap();
        d.assign_fu(als, 0, FuAssign::with_const(FuOp::Mul, 2.0)).unwrap();
        (d, Declarations::default())
    }

    #[test]
    fn lowers_a_simple_scale_pipeline() {
        let kb = kb();
        let (d, decls) = scale_pipeline(&kb);
        let low = lower_pipeline(&kb, &d, &decls).expect("lowering succeeds");
        let ins = &low.instr;
        // One enabled FU with constant operand and preload.
        let active: Vec<FuId> = ins.enabled_fus().collect();
        assert_eq!(active.len(), 1);
        let f = ins.fu(active[0]);
        assert_eq!(f.op, FuOp::Mul);
        assert_eq!(f.in_a, FuInputSel::Switch);
        assert_eq!(f.in_b, FuInputSel::Constant(0));
        assert_eq!(f.preload, Some(2.0));
        // DMA on both sides.
        assert!(ins.plane_rd[0].enabled && ins.plane_rd[0].count == 64);
        assert!(ins.plane_wr[1].enabled && ins.plane_wr[1].count == 64);
        assert_eq!(ins.plane_wr[1].base, 128);
        assert_eq!(ins.plane_wr[1].skip, 0, "no stencil, no warm-up");
        // Switch routes both wires.
        assert_eq!(ins.switch.iter_routes(&kb).count(), 2);
        assert_eq!(low.map.valid_count, 64);
    }

    #[test]
    fn checker_errors_block_lowering() {
        let kb = kb();
        let (mut d, decls) = scale_pipeline(&kb);
        // Sabotage: second writer into the same plane.
        let als2 = d.add_icon(IconKind::als(AlsKind::Singlet));
        nsc_checker::auto_bind(&kb, &mut d, &decls);
        let dst2 = d.add_icon(IconKind::Memory { plane: Some(nsc_arch::PlaneId(1)) });
        d.connect(
            PadLoc::new(als2, PadRef::FuOut { pos: 0 }),
            PadLoc::new(dst2, PadRef::Io),
            Some(DmaAttrs::at_address(999)),
        )
        .unwrap();
        d.assign_fu(als2, 0, FuAssign::unary(FuOp::Abs)).unwrap();
        match lower_pipeline(&kb, &d, &decls) {
            Err(GenError::CheckFailed(diags)) => {
                assert!(diags.iter().any(|x| x.rule == nsc_checker::RuleCode::PlaneContention));
            }
            other => panic!("expected CheckFailed, got {other:?}"),
        }
    }

    #[test]
    fn alignment_inserts_queues_for_unbalanced_paths() {
        // MP0 feeds both a direct path and a two-FU path into a final add:
        //   MP0 -> copy -> sub -+
        //   MP0 ---------------+-> add -> MP1
        // The direct input must receive a queue of (copy+sub latency).
        let kb = kb();
        let mut d = PipelineDiagram::new(PipelineId(0), "balance");
        d.stream_len = 32;
        let src = d.add_icon(IconKind::Memory { plane: Some(nsc_arch::PlaneId(0)) });
        let chain = d.add_icon(IconKind::als(AlsKind::Doublet));
        let last = d.add_icon(IconKind::als(AlsKind::Singlet));
        let dst = d.add_icon(IconKind::Memory { plane: Some(nsc_arch::PlaneId(1)) });
        nsc_checker::auto_bind(&kb, &mut d, &Declarations::default());
        // src -> chain.u0 (copy) -> chain.u1 (abs) -> last.inA
        d.connect(
            PadLoc::new(src, PadRef::Io),
            PadLoc::new(chain, PadRef::FuIn { pos: 0, port: InPort::A }),
            Some(DmaAttrs::at_address(0)),
        )
        .unwrap();
        d.connect(
            PadLoc::new(chain, PadRef::FuOut { pos: 0 }),
            PadLoc::new(chain, PadRef::FuIn { pos: 1, port: InPort::A }),
            None,
        )
        .unwrap();
        d.connect(
            PadLoc::new(chain, PadRef::FuOut { pos: 1 }),
            PadLoc::new(last, PadRef::FuIn { pos: 0, port: InPort::A }),
            None,
        )
        .unwrap();
        // src -> last.inB directly (same plane stream fanned out).
        d.connect(
            PadLoc::new(src, PadRef::Io),
            PadLoc::new(last, PadRef::FuIn { pos: 0, port: InPort::B }),
            Some(DmaAttrs::at_address(0)),
        )
        .unwrap();
        d.connect(
            PadLoc::new(last, PadRef::FuOut { pos: 0 }),
            PadLoc::new(dst, PadRef::Io),
            Some(DmaAttrs::at_address(0)),
        )
        .unwrap();
        d.assign_fu(chain, 0, FuAssign::unary(FuOp::Copy)).unwrap();
        d.assign_fu(chain, 1, FuAssign::unary(FuOp::Abs)).unwrap();
        d.assign_fu(last, 0, FuAssign::binary(FuOp::Add)).unwrap();
        let low = lower_pipeline(&kb, &d, &Declarations::default()).expect("lowers");
        let fu_last = low.map.unit_to_fu[&(last, 0)];
        let f = low.instr.fu(fu_last);
        // copy(3) + abs(3) = 6 cycles of transport on input A; input B is
        // direct and needs a 6-deep queue.
        assert_eq!(f.in_a, FuInputSel::Switch);
        assert_eq!(f.in_b, FuInputSel::Queue(6), "compensation queue");
    }

    #[test]
    fn sdu_taps_shift_streams_and_set_write_skip() {
        // MP0 -> SDU(taps 0, 8) -> sub -> MP1: a first-difference stencil
        // u[i+8] - u[i]; the first 8 outputs are warm-up and must be
        // skipped by the write DMA.
        let kb = kb();
        let mut d = PipelineDiagram::new(PipelineId(0), "diff");
        d.stream_len = 64;
        let src = d.add_icon(IconKind::Memory { plane: Some(nsc_arch::PlaneId(0)) });
        let sdu = d.add_icon(IconKind::sdu());
        let als = d.add_icon(IconKind::als(AlsKind::Singlet));
        let dst = d.add_icon(IconKind::Memory { plane: Some(nsc_arch::PlaneId(1)) });
        nsc_checker::auto_bind(&kb, &mut d, &Declarations::default());
        d.set_sdu_taps(sdu, vec![0, 8]).unwrap();
        d.connect(
            PadLoc::new(src, PadRef::Io),
            PadLoc::new(sdu, PadRef::SduIn),
            Some(DmaAttrs::at_address(0)),
        )
        .unwrap();
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
        d.connect(
            PadLoc::new(als, PadRef::FuOut { pos: 0 }),
            PadLoc::new(dst, PadRef::Io),
            Some(DmaAttrs::at_address(0)),
        )
        .unwrap();
        d.assign_fu(als, 0, FuAssign::binary(FuOp::Sub)).unwrap();
        let low = lower_pipeline(&kb, &d, &Declarations::default()).expect("lowers");
        let ins = &low.instr;
        // Both taps have the same transport lag: no compensation queues.
        let fu = low.map.unit_to_fu[&(als, 0)];
        assert_eq!(ins.fu(fu).in_a, FuInputSel::Switch);
        assert_eq!(ins.fu(fu).in_b, FuInputSel::Switch);
        // The SDU is programmed.
        assert!(ins.sdus[0].enabled);
        assert_eq!(ins.sdus[0].taps[1].delay, 8);
        // Warm-up elements arrive data-invalid; the write stores 56.
        assert_eq!(ins.plane_wr[1].skip, 0, "validity lines filter warm-up");
        assert_eq!(ins.plane_wr[1].count, 56);
        assert_eq!(low.map.valid_count, 56);
        assert_eq!(low.map.write_skip, 8);
    }

    #[test]
    fn variables_resolve_through_declarations() {
        let kb = kb();
        let mut decls = Declarations::default();
        decls.declare(nsc_diagram::VarDecl {
            name: "u".into(),
            plane: nsc_arch::PlaneId(3),
            base: 1000,
            len: 64,
        });
        let mut d = PipelineDiagram::new(PipelineId(0), "var");
        d.stream_len = 64;
        let src = d.add_icon(IconKind::memory());
        let als = d.add_icon(IconKind::als(AlsKind::Singlet));
        let dst = d.add_icon(IconKind::Memory { plane: Some(nsc_arch::PlaneId(1)) });
        d.connect(
            PadLoc::new(src, PadRef::Io),
            PadLoc::new(als, PadRef::FuIn { pos: 0, port: InPort::A }),
            Some(DmaAttrs::variable("u")),
        )
        .unwrap();
        d.connect(
            PadLoc::new(als, PadRef::FuOut { pos: 0 }),
            PadLoc::new(dst, PadRef::Io),
            Some(DmaAttrs::at_address(0)),
        )
        .unwrap();
        d.assign_fu(als, 0, FuAssign::unary(FuOp::Sqrt)).unwrap();
        nsc_checker::auto_bind(&kb, &mut d, &decls);
        let low = lower_pipeline(&kb, &d, &decls).expect("lowers");
        // The binder put the source icon on the variable's plane, and the
        // DMA base resolved to the variable's address.
        assert!(low.instr.plane_rd[3].enabled);
        assert_eq!(low.instr.plane_rd[3].base, 1000);
    }

    #[test]
    fn reduction_feedback_lowered_with_seed() {
        let kb = kb();
        let mut d = PipelineDiagram::new(PipelineId(0), "norm");
        d.stream_len = 128;
        let src = d.add_icon(IconKind::Memory { plane: Some(nsc_arch::PlaneId(0)) });
        let als = d.add_icon(IconKind::als(AlsKind::Singlet));
        let cache = d.add_icon(IconKind::Cache { cache: Some(nsc_arch::CacheId(0)) });
        nsc_checker::auto_bind(&kb, &mut d, &Declarations::default());
        d.connect(
            PadLoc::new(src, PadRef::Io),
            PadLoc::new(als, PadRef::FuIn { pos: 0, port: InPort::A }),
            Some(DmaAttrs::at_address(0)),
        )
        .unwrap();
        d.connect(
            PadLoc::new(als, PadRef::FuOut { pos: 0 }),
            PadLoc::new(cache, PadRef::Io),
            Some(DmaAttrs::at_address(0).last_only()),
        )
        .unwrap();
        d.assign_fu(als, 0, FuAssign::reduction(FuOp::MaxAbs, 0.0)).unwrap();
        let low = lower_pipeline(&kb, &d, &Declarations::default()).expect("lowers");
        let fu = low.map.unit_to_fu[&(als, 0)];
        let f = low.instr.fu(fu);
        assert_eq!(f.in_b, FuInputSel::Feedback(0));
        assert_eq!(f.preload, Some(0.0));
        // Scalar capture on the cache.
        assert!(low.instr.cache_wr[0].enabled);
        assert_eq!(low.instr.cache_wr[0].count, 1);
        assert_eq!(low.instr.cache_wr[0].mode, WriteMode::LastOnly);
    }

    #[test]
    fn preload_conflict_reported() {
        let kb = kb();
        let mut d = PipelineDiagram::new(PipelineId(0), "bad");
        d.stream_len = 8;
        let als = d.add_icon(IconKind::als(AlsKind::Singlet));
        let dst = d.add_icon(IconKind::Memory { plane: Some(nsc_arch::PlaneId(0)) });
        nsc_checker::auto_bind(&kb, &mut d, &Declarations::default());
        d.connect(
            PadLoc::new(als, PadRef::FuOut { pos: 0 }),
            PadLoc::new(dst, PadRef::Io),
            Some(DmaAttrs::at_address(0)),
        )
        .unwrap();
        // Two constants on one unit: the register file preloads one word.
        d.assign_fu(
            als,
            0,
            nsc_diagram::FuAssign {
                op: FuOp::Add,
                in_a: InputSpec::Constant(1.0),
                in_b: InputSpec::Constant(2.0),
            },
        )
        .unwrap();
        match lower_pipeline(&kb, &d, &Declarations::default()) {
            Err(GenError::PreloadConflict { .. }) => {}
            other => panic!("expected PreloadConflict, got {other:?}"),
        }
    }
}
