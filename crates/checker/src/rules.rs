//! The rule set: every conflict, constraint and asymmetry the knowledge
//! base knows about, as executable checks.
//!
//! Each rule is motivated by a specific sentence of the paper and reports
//! as one of the taxonomy's checker rules ([`ConstraintKind`], `C001`–
//! `C030`), whose `describe()` states the constraint. Rules are pure
//! functions over the diagram + knowledge base; the editor decides *when*
//! to run them (after every mutation) and the generator runs them all
//! again globally.

use crate::diag::{ConstraintKind, Diagnostic, Subject};
use crate::Stage;
use nsc_arch::{AlsKind, KnowledgeBase};
use nsc_diagram::{
    CaptureMode, ControlNode, Declarations, DmaAttrs, Document, Icon, IconId, IconKind, InputSpec,
    PadRef, PipelineDiagram,
};
use std::collections::{BTreeMap, BTreeSet};

/// Check one pipeline without document context (variable names are not
/// resolvable; declaration-dependent rules are skipped).
pub fn check_pipeline(kb: &KnowledgeBase, d: &PipelineDiagram, stage: Stage) -> Vec<Diagnostic> {
    check_pipeline_with(kb, d, stage, None)
}

/// Check one pipeline with the document's declarations available.
pub fn check_pipeline_with(
    kb: &KnowledgeBase,
    d: &PipelineDiagram,
    stage: Stage,
    decls: Option<&Declarations>,
) -> Vec<Diagnostic> {
    let mut cx = Ctx { kb, d, stage, decls, diags: Vec::new() };
    cx.rule_wire_endpoints();
    cx.rule_bindings();
    cx.rule_overcommit();
    cx.rule_sink_single_driver();
    cx.rule_fanout();
    cx.rule_storage_ports();
    cx.rule_fu_single_plane();
    cx.rule_capabilities_and_arity();
    cx.rule_register_file();
    cx.rule_sdu();
    cx.rule_dma();
    cx.rule_subset();
    cx.rule_self_loop();
    cx.rule_stream_len();
    cx.rule_unused_icons();
    if stage == Stage::Global {
        cx.rule_cycles();
        cx.rule_store_exists();
    }
    cx.diags
}

/// Check a whole document: every pipeline globally (with declarations),
/// plus document-level control-flow and declaration rules.
pub fn check_document(kb: &KnowledgeBase, doc: &Document) -> Vec<Diagnostic> {
    let mut diags = Vec::new();
    for p in doc.pipelines() {
        diags.extend(check_pipeline_with(kb, p, Stage::Global, Some(&doc.decls)));
    }
    // C024: control-flow references.
    if let Some(control) = &doc.control {
        for id in control.referenced_pipelines() {
            if doc.pipeline(id).is_none() {
                diags.push(Diagnostic::error(
                    ConstraintKind::DanglingControlRef,
                    Subject::Document,
                    format!("control flow references {id}, which does not exist"),
                ));
            }
        }
        // C025: convergence scalars must be written somewhere in the body.
        check_conditions(kb, doc, control, &mut diags);
    }
    // Declarations: plane validity and overlap.
    for v in &doc.decls.vars {
        if !kb.valid_plane(v.plane) {
            diags.push(Diagnostic::error(
                ConstraintKind::NoSuchResource,
                Subject::Document,
                format!("variable '{}' declared in nonexistent plane {}", v.name, v.plane),
            ));
        } else if v.base + v.len > kb.config().memory.words_per_plane {
            diags.push(Diagnostic::error(
                ConstraintKind::DmaRange,
                Subject::Document,
                format!("variable '{}' extends past the end of {}", v.name, v.plane),
            ));
        }
    }
    for (i, a) in doc.decls.vars.iter().enumerate() {
        for b in doc.decls.vars.iter().skip(i + 1) {
            if a.plane == b.plane && a.base < b.base + b.len && b.base < a.base + a.len {
                diags.push(Diagnostic::warning(
                    ConstraintKind::DmaRange,
                    Subject::Document,
                    format!("variables '{}' and '{}' overlap in {}", a.name, b.name, a.plane),
                ));
            }
        }
    }
    diags
}

#[allow(clippy::only_used_in_recursion)] // every rule fn takes the knowledge base uniformly
fn check_conditions(
    kb: &KnowledgeBase,
    doc: &Document,
    node: &ControlNode,
    diags: &mut Vec<Diagnostic>,
) {
    match node {
        ControlNode::Pipeline(_) => {}
        ControlNode::Seq(children) => {
            children.iter().for_each(|c| check_conditions(kb, doc, c, diags))
        }
        ControlNode::Repeat { body, .. } => check_conditions(kb, doc, body, diags),
        ControlNode::RepeatUntil { cond, body } => {
            let written = body.referenced_pipelines().iter().any(|pid| {
                doc.pipeline(*pid).is_some_and(|p| {
                    p.connections().any(|c| {
                        let Some(icon) = p.icon(c.to.icon) else { return false };
                        matches!(icon.kind, IconKind::Cache { cache: Some(cc) } if cc == cond.cache)
                            && c.dma.as_ref().is_some_and(|a| a.offset == cond.offset as u64)
                    })
                })
            });
            if !written {
                diags.push(Diagnostic::warning(
                    ConstraintKind::UnwrittenCondition,
                    Subject::Document,
                    format!(
                        "convergence test reads {}[{}], which no pipeline in the loop writes",
                        cond.cache, cond.offset
                    ),
                ));
            }
            check_conditions(kb, doc, body, diags);
        }
    }
}

// ---------------------------------------------------------------------
// per-pipeline rule context
// ---------------------------------------------------------------------

struct Ctx<'a> {
    kb: &'a KnowledgeBase,
    d: &'a PipelineDiagram,
    stage: Stage,
    decls: Option<&'a Declarations>,
    diags: Vec<Diagnostic>,
}

impl<'a> Ctx<'a> {
    fn err(&mut self, rule: ConstraintKind, subject: Subject, msg: impl Into<String>) {
        self.diags.push(Diagnostic::error(rule, subject, msg));
    }

    fn warn(&mut self, rule: ConstraintKind, subject: Subject, msg: impl Into<String>) {
        self.diags.push(Diagnostic::warning(rule, subject, msg));
    }

    /// Incomplete-work findings: warnings while editing, errors at codegen.
    fn gap(&mut self, rule: ConstraintKind, subject: Subject, msg: impl Into<String>) {
        let d = match self.stage {
            Stage::Incremental => Diagnostic::warning(rule, subject, msg),
            Stage::Global => Diagnostic::error(rule, subject, msg),
        };
        self.diags.push(d);
    }

    fn als_icons(&self) -> impl Iterator<Item = (&'a Icon, AlsKind)> + '_ {
        self.d.icons().filter_map(|i| match i.kind {
            IconKind::Als { kind, .. } => Some((i, kind)),
            _ => None,
        })
    }

    /// Active chain positions of an ALS icon (respecting doublet bypass).
    fn active_positions(kind: AlsKind, mode: nsc_arch::DoubletMode) -> Vec<u8> {
        match kind {
            AlsKind::Doublet => mode.active_positions().iter().map(|&p| p as u8).collect(),
            k => (0..k.unit_count() as u8).collect(),
        }
    }

    /// Positions of an ALS icon that are "in use": programmed or wired.
    fn used_positions(&self, icon: &Icon) -> Vec<u8> {
        let IconKind::Als { kind, mode, .. } = icon.kind else { return vec![] };
        Self::active_positions(kind, mode)
            .into_iter()
            .filter(|&pos| {
                self.d.fu_assign(icon.id, pos).is_some()
                    || self.d.connections().any(|c| {
                        let touches = |loc: nsc_diagram::PadLoc| {
                            loc.icon == icon.id
                                && match loc.pad {
                                    PadRef::FuIn { pos: p, .. } | PadRef::FuOut { pos: p } => {
                                        p == pos
                                    }
                                    _ => false,
                                }
                        };
                        touches(c.from) || touches(c.to)
                    })
            })
            .collect()
    }

    // ------------------------------------------------------------------
    // C030: every wire end and icon entry names a real icon
    // ------------------------------------------------------------------

    fn rule_wire_endpoints(&mut self) {
        // The editor cannot build either shape; a saved document can carry
        // both, and the code generator resolves wire ends by icon id.
        let misfiled: Vec<IconId> = self
            .d
            .icons()
            .filter(|i| !self.d.icon(i.id).is_some_and(|found| std::ptr::eq(found, *i)))
            .map(|i| i.id)
            .collect();
        for id in misfiled {
            self.err(
                ConstraintKind::DanglingWire,
                Subject::Icon(id),
                format!("{id} is filed under another id, so wires naming {id} miss it"),
            );
        }
        let dangling: Vec<(nsc_diagram::ConnId, nsc_diagram::PadLoc)> = self
            .d
            .connections()
            .flat_map(|c| [c.from, c.to].map(|end| (c.id, end)))
            .filter(|(_, end)| self.d.icon(end.icon).is_none())
            .collect();
        for (id, end) in dangling {
            self.err(
                ConstraintKind::DanglingWire,
                Subject::Connection(id),
                format!("{end} names an icon this pipeline does not have"),
            );
        }
    }

    // ------------------------------------------------------------------
    // C001/C002/C003/C027: bindings
    // ------------------------------------------------------------------

    fn rule_bindings(&mut self) {
        let mut als_bound: BTreeMap<nsc_arch::AlsId, IconId> = BTreeMap::new();
        let mut sdu_bound: BTreeMap<nsc_arch::SduId, IconId> = BTreeMap::new();
        let icons: Vec<Icon> = self.d.icons().copied().collect();
        for icon in icons {
            let subject = Subject::Icon(icon.id);
            match icon.kind {
                IconKind::Als { kind, als, .. } => match als {
                    None => self.gap(
                        ConstraintKind::UnboundIcon,
                        subject,
                        format!("{} icon not yet bound to a physical ALS", kind),
                    ),
                    Some(a) if a.index() >= self.kb.layout().alss().len() => self.err(
                        ConstraintKind::NoSuchResource,
                        subject,
                        format!("{a} does not exist on {}", self.kb.config().name),
                    ),
                    Some(a) => {
                        let phys = self.kb.layout().als(a);
                        if phys.kind != kind {
                            self.err(
                                ConstraintKind::BindingKindMismatch,
                                subject,
                                format!("{} icon bound to {a}, which is a {}", kind, phys.kind),
                            );
                        }
                        if let Some(prev) = als_bound.insert(a, icon.id) {
                            self.err(
                                ConstraintKind::DuplicateBinding,
                                subject,
                                format!("{a} already bound by {prev}"),
                            );
                        }
                    }
                },
                IconKind::Memory { plane } => match plane {
                    None => self.gap(
                        ConstraintKind::UnboundIcon,
                        subject,
                        "memory icon has no plane number yet".to_string(),
                    ),
                    Some(p) if !self.kb.valid_plane(p) => self.err(
                        ConstraintKind::NoSuchResource,
                        subject,
                        format!("{p} does not exist on {}", self.kb.config().name),
                    ),
                    Some(_) => {}
                },
                IconKind::Cache { cache } => match cache {
                    None => self.gap(
                        ConstraintKind::UnboundIcon,
                        subject,
                        "cache icon has no cache number yet".to_string(),
                    ),
                    Some(c) if !self.kb.valid_cache(c) => self.err(
                        ConstraintKind::NoSuchResource,
                        subject,
                        format!("{c} does not exist on {}", self.kb.config().name),
                    ),
                    Some(_) => {}
                },
                IconKind::Sdu { sdu } => match sdu {
                    None => self.gap(
                        ConstraintKind::UnboundIcon,
                        subject,
                        "shift/delay icon not yet bound to a unit".to_string(),
                    ),
                    Some(s) if !self.kb.valid_sdu(s) => self.err(
                        ConstraintKind::NoSuchResource,
                        subject,
                        format!("{s} does not exist on {}", self.kb.config().name),
                    ),
                    Some(s) => {
                        if let Some(prev) = sdu_bound.insert(s, icon.id) {
                            self.err(
                                ConstraintKind::DuplicateBinding,
                                subject,
                                format!("{s} already bound by {prev}"),
                            );
                        }
                    }
                },
            }
        }
    }

    // ------------------------------------------------------------------
    // C004: resource overcommit
    // ------------------------------------------------------------------

    fn rule_overcommit(&mut self) {
        let cfg = self.kb.config();
        let mut by_kind: BTreeMap<AlsKind, usize> = BTreeMap::new();
        let (mut mems, mut caches, mut sdus) = (0usize, 0usize, 0usize);
        for icon in self.d.icons() {
            match icon.kind {
                IconKind::Als { kind, .. } => *by_kind.entry(kind).or_default() += 1,
                IconKind::Memory { .. } => mems += 1,
                IconKind::Cache { .. } => caches += 1,
                IconKind::Sdu { .. } => sdus += 1,
            }
        }
        let subject = Subject::Pipeline(self.d.id);
        let avail = |k: AlsKind| self.kb.layout().alss_of_kind(k).len();
        for (kind, n) in by_kind {
            if n > avail(kind) {
                self.err(
                    ConstraintKind::AlsOvercommit,
                    subject,
                    format!("{n} {kind} icons but the machine has {}", avail(kind)),
                );
            }
        }
        // Memory icons may legitimately share planes (read + write side),
        // so they are capped at two per plane.
        if mems > cfg.memory.planes * 2 {
            self.err(
                ConstraintKind::AlsOvercommit,
                subject,
                format!("{mems} memory icons but the machine has {} planes", cfg.memory.planes),
            );
        }
        if caches > cfg.cache.caches * 2 {
            self.err(
                ConstraintKind::AlsOvercommit,
                subject,
                format!("{caches} cache icons but the machine has {}", cfg.cache.caches),
            );
        }
        if sdus > cfg.sdu.units {
            self.err(
                ConstraintKind::AlsOvercommit,
                subject,
                format!("{sdus} shift/delay icons but the machine has {}", cfg.sdu.units),
            );
        }
    }

    // ------------------------------------------------------------------
    // C005: one driver per sink pad
    // ------------------------------------------------------------------

    fn rule_sink_single_driver(&mut self) {
        let mut seen: BTreeMap<nsc_diagram::PadLoc, nsc_diagram::ConnId> = BTreeMap::new();
        let conns: Vec<_> = self.d.connections().cloned().collect();
        for c in conns {
            if let Some(prev) = seen.insert(c.to, c.id) {
                self.err(
                    ConstraintKind::SinkDrivenTwice,
                    Subject::Connection(c.id),
                    format!("{} is already driven by {prev}", c.to),
                );
            }
        }
    }

    // ------------------------------------------------------------------
    // C006: switch fan-out
    // ------------------------------------------------------------------

    fn rule_fanout(&mut self) {
        let max = self.kb.max_fanout();
        let mut counts: BTreeMap<nsc_diagram::PadLoc, usize> = BTreeMap::new();
        for c in self.d.connections() {
            *counts.entry(c.from).or_default() += 1;
        }
        for (pad, n) in counts {
            if n > max {
                self.err(
                    ConstraintKind::FanoutExceeded,
                    Subject::Icon(pad.icon),
                    format!("{pad} drives {n} sinks; the switch fans out at most {max}"),
                );
            }
        }
    }

    // ------------------------------------------------------------------
    // C007: storage port contention (the paper's flagship example)
    // ------------------------------------------------------------------

    fn rule_storage_ports(&mut self) {
        // Group icons by the physical plane/cache they are bound to;
        // unbound icons are judged individually.
        #[derive(PartialEq, Eq, PartialOrd, Ord)]
        enum Key {
            Plane(u8),
            Cache(u8),
            Solo(IconId),
        }
        let mut groups: BTreeMap<Key, Vec<IconId>> = BTreeMap::new();
        for icon in self.d.icons() {
            match icon.kind {
                IconKind::Memory { plane: Some(p) } => {
                    groups.entry(Key::Plane(p.0)).or_default().push(icon.id)
                }
                IconKind::Cache { cache: Some(c) } => {
                    groups.entry(Key::Cache(c.0)).or_default().push(icon.id)
                }
                IconKind::Memory { plane: None } | IconKind::Cache { cache: None } => {
                    groups.entry(Key::Solo(icon.id)).or_default().push(icon.id)
                }
                _ => {}
            }
        }
        for (key, icons) in groups {
            let name = match key {
                Key::Plane(p) => format!("plane MP{p}"),
                Key::Cache(c) => format!("cache DC{c}"),
                Key::Solo(_) => "this storage icon".to_string(),
            };
            let mut reads: Vec<(nsc_diagram::ConnId, Option<DmaAttrs>)> = Vec::new();
            let mut writes = 0usize;
            let mut subject = Subject::Icon(icons[0]);
            for &ic in &icons {
                subject = Subject::Icon(ic);
                let loc = nsc_diagram::PadLoc::new(ic, PadRef::Io);
                for c in self.d.outgoing(loc) {
                    reads.push((c.id, c.dma.clone()));
                }
                writes += self.d.incoming(loc).len();
            }
            // One read *stream*: multiple wires allowed only if they carry
            // identical DMA attributes (one port fanned out by the switch).
            // Wires whose attributes are still pending (None) are tolerated
            // here; C014 catches them at code-generation time.
            let set: Vec<&DmaAttrs> = reads.iter().filter_map(|(_, a)| a.as_ref()).collect();
            if set.len() > 1 && set.iter().any(|a| *a != set[0]) {
                self.err(
                    ConstraintKind::PlaneContention,
                    subject,
                    format!("{name} read port carries one stream; wires request different ones"),
                );
            }
            if writes > 1 {
                self.err(
                    ConstraintKind::PlaneContention,
                    subject,
                    format!("{name} write port already driven; a second unit cannot store there"),
                );
            }
        }
    }

    // ------------------------------------------------------------------
    // C008: one plane per functional unit
    // ------------------------------------------------------------------

    fn rule_fu_single_plane(&mut self) {
        let plane_of = |icon: IconId| -> Option<nsc_arch::PlaneId> {
            match self.d.icon(icon)?.kind {
                IconKind::Memory { plane } => plane,
                _ => None,
            }
        };
        let als_icon_ids: Vec<IconId> = self
            .d
            .icons()
            .filter(|i| matches!(i.kind, IconKind::Als { .. }))
            .map(|i| i.id)
            .collect();
        for icon_id in als_icon_ids {
            // Planes a unit reads from and writes to, per chain position.
            // §3's constraint is per access direction: one read plane and
            // one write plane per unit per instruction (otherwise even a
            // plain MP->FU->MP vector op would be unprogrammable).
            let mut reads: BTreeMap<u8, BTreeSet<u8>> = BTreeMap::new();
            let mut writes: BTreeMap<u8, BTreeSet<u8>> = BTreeMap::new();
            for c in self.d.connections() {
                if c.to.icon == icon_id {
                    if let PadRef::FuIn { pos, .. } = c.to.pad {
                        if let Some(p) = plane_of(c.from.icon) {
                            reads.entry(pos).or_default().insert(p.0);
                        }
                    }
                }
                if c.from.icon == icon_id {
                    if let PadRef::FuOut { pos } = c.from.pad {
                        if let Some(p) = plane_of(c.to.icon) {
                            writes.entry(pos).or_default().insert(p.0);
                        }
                    }
                }
            }
            for (dir, map) in [("read", reads), ("write", writes)] {
                for (pos, planes) in map {
                    if planes.len() > 1 {
                        let list: Vec<String> = planes.iter().map(|p| format!("MP{p}")).collect();
                        self.err(
                            ConstraintKind::FuMultiPlane,
                            Subject::Unit(icon_id, pos),
                            format!(
                                "a function unit can {dir} in only a single memory plane per \
                                 instruction; this one {dir}s {}; stage one operand through a \
                                 cache or a COPY unit",
                                list.join(", ")
                            ),
                        );
                    }
                }
            }
        }
    }

    // ------------------------------------------------------------------
    // C009/C010/C020/C029: capabilities, arity, dead outputs
    // ------------------------------------------------------------------

    fn rule_capabilities_and_arity(&mut self) {
        let icons: Vec<Icon> = self.d.icons().copied().collect();
        for icon in icons {
            let IconKind::Als { kind, mode, .. } = icon.kind else { continue };
            let active = Self::active_positions(kind, mode);
            // C029: assignments on positions that are no longer active
            // (e.g. the doublet was re-configured to bypass after
            // programming).
            for pos in 0..kind.unit_count() as u8 {
                if !active.contains(&pos) && self.d.fu_assign(icon.id, pos).is_some() {
                    self.err(
                        ConstraintKind::InactiveUnit,
                        Subject::Unit(icon.id, pos),
                        "unit is programmed but bypassed by the doublet configuration",
                    );
                }
            }
            for &pos in &active {
                let subject = Subject::Unit(icon.id, pos);
                let in_a = nsc_diagram::PadLoc::new(
                    icon.id,
                    PadRef::FuIn { pos, port: nsc_arch::InPort::A },
                );
                let in_b = nsc_diagram::PadLoc::new(
                    icon.id,
                    PadRef::FuIn { pos, port: nsc_arch::InPort::B },
                );
                let out = nsc_diagram::PadLoc::new(icon.id, PadRef::FuOut { pos });
                let wired_a = !self.d.incoming(in_a).is_empty();
                let wired_b = !self.d.incoming(in_b).is_empty();
                let wired_out = !self.d.outgoing(out).is_empty();
                match self.d.fu_assign(icon.id, pos) {
                    None => {
                        if wired_a || wired_b || wired_out {
                            self.gap(
                                ConstraintKind::ArityMismatch,
                                subject,
                                "unit has wires but no operation assigned yet",
                            );
                        }
                    }
                    Some(assign) => {
                        // C009: capability asymmetry.
                        let caps = kind.unit_caps(pos as usize);
                        if !caps.supports(assign.op) {
                            self.err(
                                ConstraintKind::CapabilityViolation,
                                subject,
                                format!(
                                    "{} requires {:?} circuitry; unit {pos} of a {} has {}",
                                    assign.op.mnemonic(),
                                    assign.op.class(),
                                    kind,
                                    caps
                                ),
                            );
                        }
                        // C010: operand wiring vs. input specs.
                        self.check_operand(subject, "a", assign.in_a, wired_a);
                        let spec_b = if assign.op.arity() == 1 {
                            if assign.in_b.wants_wire() && wired_b {
                                self.warn(
                                    ConstraintKind::ArityMismatch,
                                    subject,
                                    format!(
                                        "{} is unary; the wire on input b is ignored",
                                        assign.op.mnemonic()
                                    ),
                                );
                            }
                            None
                        } else {
                            Some(assign.in_b)
                        };
                        if let Some(spec) = spec_b {
                            self.check_operand(subject, "b", spec, wired_b);
                        }
                        // C020: dead output.
                        if !wired_out {
                            self.gap(
                                ConstraintKind::DeadOutput,
                                subject,
                                "unit is programmed but its output feeds nothing",
                            );
                        }
                    }
                }
            }
        }
    }

    fn check_operand(&mut self, subject: Subject, port: &str, spec: InputSpec, wired: bool) {
        match (spec.wants_wire(), wired) {
            (true, false) => self.gap(
                ConstraintKind::ArityMismatch,
                subject,
                format!("input {port} expects a wire but none is connected"),
            ),
            (false, true) => self.err(
                ConstraintKind::ArityMismatch,
                subject,
                format!("input {port} is internal ({spec:?}) but a wire is connected to it"),
            ),
            _ => {}
        }
    }

    // ------------------------------------------------------------------
    // C011: register-file depth
    // ------------------------------------------------------------------

    fn rule_register_file(&mut self) {
        let rf = self.kb.config().rf_words;
        let assigns: Vec<(IconId, u8, nsc_diagram::FuAssign)> =
            self.d.fu_assigns().map(|(i, p, a)| (i, p, *a)).collect();
        for (icon, pos, assign) in assigns {
            let mut used = 0usize;
            for spec in [assign.in_a, assign.in_b] {
                match spec {
                    InputSpec::DelayedWire { delay } => used += delay as usize,
                    InputSpec::Constant(_) | InputSpec::Feedback { .. } => used += 1,
                    _ => {}
                }
            }
            if used > rf {
                self.err(
                    ConstraintKind::QueueDepthExceeded,
                    Subject::Unit(icon, pos),
                    format!("register file holds {rf} words; this programming needs {used}"),
                );
            }
        }
    }

    // ------------------------------------------------------------------
    // C012/C013/C028: shift/delay units
    // ------------------------------------------------------------------

    fn rule_sdu(&mut self) {
        let cfg = self.kb.config();
        let icons: Vec<Icon> = self.d.icons().copied().collect();
        for icon in icons {
            if !matches!(icon.kind, IconKind::Sdu { .. }) {
                continue;
            }
            let subject = Subject::Icon(icon.id);
            let taps = self.d.sdu_taps(icon.id).to_vec();
            if taps.len() > cfg.sdu.taps_per_unit {
                self.err(
                    ConstraintKind::SduTapCount,
                    subject,
                    format!(
                        "{} delays programmed; the unit has {} taps",
                        taps.len(),
                        cfg.sdu.taps_per_unit
                    ),
                );
            }
            // A tap delays by less than the buffer's length: the bound the
            // certificate verifier holds an SDU field to, and on the 1988
            // machine the largest delay its 14-bit tap field encodes.
            for &delay in &taps {
                if delay as u32 >= cfg.sdu.buffer_words {
                    self.err(
                        ConstraintKind::SduDelayRange,
                        subject,
                        format!(
                            "tap delay {delay} does not fit the {}-word delay buffer",
                            cfg.sdu.buffer_words
                        ),
                    );
                }
            }
            // Wires leaving taps must refer to programmed, existing taps.
            let conns: Vec<_> = self.d.connections().cloned().collect();
            for c in &conns {
                if c.from.icon == icon.id {
                    if let PadRef::SduTap { tap } = c.from.pad {
                        if tap as usize >= cfg.sdu.taps_per_unit {
                            self.err(
                                ConstraintKind::SduTapCount,
                                Subject::Connection(c.id),
                                format!(
                                    "tap {tap} does not exist (unit has {})",
                                    cfg.sdu.taps_per_unit
                                ),
                            );
                        } else if tap as usize >= taps.len() {
                            self.gap(
                                ConstraintKind::SduTapCount,
                                Subject::Connection(c.id),
                                format!("tap {tap} is wired but has no delay programmed"),
                            );
                        }
                    }
                }
                // C028: SDU input must come from memory or cache.
                if c.to.icon == icon.id && c.to.pad == PadRef::SduIn {
                    let ok = self.d.icon(c.from.icon).is_some_and(|src| {
                        matches!(src.kind, IconKind::Memory { .. } | IconKind::Cache { .. })
                    });
                    if !ok {
                        self.err(
                            ConstraintKind::SduSourceKind,
                            Subject::Connection(c.id),
                            "shift/delay units reformat memory data; feed them from a \
                             memory plane or cache",
                        );
                    }
                }
            }
        }
    }

    // ------------------------------------------------------------------
    // C014/C015/C016/C017/C023: DMA attributes
    // ------------------------------------------------------------------

    fn rule_dma(&mut self) {
        let cfg = self.kb.config();
        let conns: Vec<_> = self.d.connections().cloned().collect();
        for c in &conns {
            let from_kind = self.d.icon(c.from.icon).map(|i| i.kind);
            let to_kind = self.d.icon(c.to.icon).map(|i| i.kind);
            let from_storage =
                matches!(from_kind, Some(IconKind::Memory { .. }) | Some(IconKind::Cache { .. }));
            let to_storage =
                matches!(to_kind, Some(IconKind::Memory { .. }) | Some(IconKind::Cache { .. }));
            if from_storage && to_storage {
                self.err(
                    ConstraintKind::DmaMissing,
                    Subject::Connection(c.id),
                    "storage-to-storage wires are not routable; pass the stream through a \
                     function unit (COPY)",
                );
                continue;
            }
            if !(from_storage || to_storage) {
                continue;
            }
            let storage_kind = if from_storage { from_kind } else { to_kind };
            let Some(attrs) = &c.dma else {
                self.gap(
                    ConstraintKind::DmaMissing,
                    Subject::Connection(c.id),
                    "memory/cache connection needs DMA parameters (plane, address, stride)",
                );
                continue;
            };
            let count = match attrs.mode {
                CaptureMode::LastOnly => attrs.count.unwrap_or(1),
                CaptureMode::Stream => attrs.count.unwrap_or(self.d.stream_len),
            };
            // C017: explicit counts should match the pipeline stream.
            if attrs.mode == CaptureMode::Stream {
                if let Some(n) = attrs.count {
                    if n != self.d.stream_len {
                        self.warn(
                            ConstraintKind::StreamLenMismatch,
                            Subject::Connection(c.id),
                            format!(
                                "explicit count {n} differs from the pipeline stream length {}",
                                self.d.stream_len
                            ),
                        );
                    }
                }
            }
            if attrs.stride == 0 && count > 1 {
                self.err(
                    ConstraintKind::DmaRange,
                    Subject::Connection(c.id),
                    "stride 0 with more than one element re-reads one word forever",
                );
            }
            // Resolve variable base if declarations are available.
            let (base, limit) = match (&attrs.variable, self.decls) {
                (Some(name), Some(decls)) => match decls.lookup(name) {
                    None => {
                        self.err(
                            ConstraintKind::UndeclaredVariable,
                            Subject::Connection(c.id),
                            format!("variable '{name}' is not declared"),
                        );
                        continue;
                    }
                    Some(v) => (v.base + attrs.offset, Some(v.base + v.len)),
                },
                (Some(_), None) => continue, // cannot resolve without decls
                (None, _) => (attrs.offset, None),
            };
            let span = base as i128 + (count.max(1) as i128 - 1) * attrs.stride as i128;
            let hard_limit = match storage_kind {
                Some(IconKind::Cache { .. }) => cfg.cache.words_per_buffer,
                _ => cfg.memory.words_per_plane,
            };
            let is_cache = matches!(storage_kind, Some(IconKind::Cache { .. }));
            if span < 0 || span >= hard_limit as i128 || base >= hard_limit {
                let rule =
                    if is_cache { ConstraintKind::CacheCapacity } else { ConstraintKind::DmaRange };
                self.err(
                    rule,
                    Subject::Connection(c.id),
                    format!(
                        "transfer [{base} .. {span}] leaves the {}-word {}",
                        hard_limit,
                        if is_cache { "cache buffer" } else { "plane" }
                    ),
                );
            } else if let Some(lim) = limit {
                if span >= lim as i128 {
                    self.err(
                        ConstraintKind::DmaRange,
                        Subject::Connection(c.id),
                        format!("transfer runs past the end of the variable (limit {lim})"),
                    );
                }
            }
        }
    }

    // ------------------------------------------------------------------
    // C018: subset-model restriction
    // ------------------------------------------------------------------

    fn rule_subset(&mut self) {
        let Some(max) = self.kb.config().max_active_per_als else { return };
        let icons: Vec<Icon> = self.als_icons().map(|(i, _)| *i).collect();
        for icon in icons {
            let used = self.used_positions(&icon);
            if used.len() > max {
                self.err(
                    ConstraintKind::SubsetViolation,
                    Subject::Icon(icon.id),
                    format!(
                        "subset model allows {max} active unit(s) per ALS; this icon uses {}",
                        used.len()
                    ),
                );
            }
        }
    }

    // ------------------------------------------------------------------
    // C022: direct self-loops
    // ------------------------------------------------------------------

    fn rule_self_loop(&mut self) {
        let conns: Vec<_> = self.d.connections().cloned().collect();
        for c in conns {
            if c.from.icon == c.to.icon {
                if let (PadRef::FuOut { pos: a }, PadRef::FuIn { pos: b, .. }) =
                    (c.from.pad, c.to.pad)
                {
                    if a == b {
                        self.err(
                            ConstraintKind::SelfLoop,
                            Subject::Connection(c.id),
                            "use the register-file feedback input for reductions, not a wire \
                             to the unit's own input",
                        );
                    }
                }
            }
        }
    }

    // ------------------------------------------------------------------
    // C017 (pipeline-level): stream length sanity
    // ------------------------------------------------------------------

    fn rule_stream_len(&mut self) {
        if self.d.stream_len == 0 {
            self.err(
                ConstraintKind::StreamLenMismatch,
                Subject::Pipeline(self.d.id),
                "stream length 0; scalars are vectors of length one",
            );
        }
    }

    // ------------------------------------------------------------------
    // C026: unused icons
    // ------------------------------------------------------------------

    fn rule_unused_icons(&mut self) {
        let icons: Vec<Icon> = self.d.icons().copied().collect();
        for icon in icons {
            let touched =
                self.d.connections().any(|c| c.from.icon == icon.id || c.to.icon == icon.id);
            if !touched {
                self.warn(
                    ConstraintKind::UnusedIcon,
                    Subject::Icon(icon.id),
                    "icon participates in no connection",
                );
            }
        }
    }

    // ------------------------------------------------------------------
    // C019 (global): cycles through the switch
    // ------------------------------------------------------------------

    fn rule_cycles(&mut self) {
        // Nodes are *units* — (icon, chain position) for ALS pads, the
        // whole icon for SDUs — so intra-ALS chaining (u0 feeding u1 in
        // one icon) is not mistaken for a loop. Storage icons are
        // excluded: their read and write streams are independent ports and
        // legitimately close loops across iterations, not within an
        // instruction.
        type Node = (IconId, u8);
        const ICON_LEVEL: u8 = u8::MAX;
        let node_of = |loc: nsc_diagram::PadLoc| -> Node {
            match loc.pad {
                PadRef::FuIn { pos, .. } | PadRef::FuOut { pos } => (loc.icon, pos),
                _ => (loc.icon, ICON_LEVEL),
            }
        };
        let mut adj: BTreeMap<Node, Vec<Node>> = BTreeMap::new();
        for c in self.d.connections() {
            let from_storage = self.d.icon(c.from.icon).is_some_and(|i| {
                matches!(i.kind, IconKind::Memory { .. } | IconKind::Cache { .. })
            });
            let to_storage = self.d.icon(c.to.icon).is_some_and(|i| {
                matches!(i.kind, IconKind::Memory { .. } | IconKind::Cache { .. })
            });
            if from_storage || to_storage {
                continue;
            }
            adj.entry(node_of(c.from)).or_default().push(node_of(c.to));
        }
        // Iterative DFS three-colour cycle detection.
        #[derive(Clone, Copy, PartialEq)]
        enum Colour {
            White,
            Grey,
            Black,
        }
        let mut colour: BTreeMap<Node, Colour> = BTreeMap::new();
        let nodes: Vec<Node> = adj.keys().copied().collect();
        for &start in &nodes {
            if colour.get(&start).copied().unwrap_or(Colour::White) != Colour::White {
                continue;
            }
            let mut stack = vec![(start, 0usize)];
            colour.insert(start, Colour::Grey);
            while let Some(&(node, idx)) = stack.last() {
                let next = adj.get(&node).and_then(|v| v.get(idx)).copied();
                match next {
                    Some(succ) => {
                        stack.last_mut().unwrap().1 += 1;
                        match colour.get(&succ).copied().unwrap_or(Colour::White) {
                            Colour::White => {
                                colour.insert(succ, Colour::Grey);
                                stack.push((succ, 0));
                            }
                            Colour::Grey => {
                                self.err(
                                    ConstraintKind::CycleDetected,
                                    Subject::Icon(succ.0),
                                    "dataflow cycle through the switch; streams cannot be \
                                     aligned — use register-file feedback instead",
                                );
                                colour.insert(succ, Colour::Black);
                            }
                            Colour::Black => {}
                        }
                    }
                    None => {
                        colour.insert(node, Colour::Black);
                        stack.pop();
                    }
                }
            }
        }
    }

    // ------------------------------------------------------------------
    // C021 (global): every instruction must store something
    // ------------------------------------------------------------------

    fn rule_store_exists(&mut self) {
        let stores = self.d.connections().any(|c| {
            self.d
                .icon(c.to.icon)
                .is_some_and(|i| matches!(i.kind, IconKind::Memory { .. } | IconKind::Cache { .. }))
        });
        if !stores && self.d.connection_count() > 0 {
            self.err(
                ConstraintKind::NoStore,
                Subject::Pipeline(self.d.id),
                "pipeline stores no result to any memory plane or cache",
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::diag::has_errors;
    use crate::diag::Severity;
    use nsc_arch::{AlsId, CacheId, DoubletMode, FuOp, InPort, MachineConfig, PlaneId, SduId};
    use nsc_diagram::{FuAssign, PadLoc, PipelineId, VarDecl};

    fn kb() -> KnowledgeBase {
        KnowledgeBase::nsc_1988()
    }

    fn diagram() -> PipelineDiagram {
        PipelineDiagram::new(PipelineId(0), "t")
    }

    fn fires(diags: &[Diagnostic], rule: ConstraintKind) -> bool {
        diags.iter().any(|d| d.rule == rule)
    }

    fn fires_err(diags: &[Diagnostic], rule: ConstraintKind) -> bool {
        diags.iter().any(|d| d.rule == rule && d.severity == Severity::Error)
    }

    /// A minimal legal pipeline: MP0 -> FU(add const) -> MP1.
    fn legal_pipeline(kb: &KnowledgeBase) -> PipelineDiagram {
        let mut d = diagram();
        d.stream_len = 64;
        let src = d.add_icon(IconKind::Memory { plane: Some(PlaneId(0)) });
        let als = d.add_icon(IconKind::Als {
            kind: AlsKind::Singlet,
            mode: DoubletMode::Full,
            als: Some(kb.layout().alss_of_kind(AlsKind::Singlet)[0]),
        });
        let dst = d.add_icon(IconKind::Memory { plane: Some(PlaneId(1)) });
        d.connect(
            PadLoc::new(src, PadRef::Io),
            PadLoc::new(als, PadRef::FuIn { pos: 0, port: InPort::A }),
            Some(DmaAttrs::at_address(0)),
        )
        .unwrap();
        d.connect(
            PadLoc::new(als, PadRef::FuOut { pos: 0 }),
            PadLoc::new(dst, PadRef::Io),
            Some(DmaAttrs::at_address(0)),
        )
        .unwrap();
        d.assign_fu(als, 0, FuAssign::with_const(FuOp::Mul, 2.0)).unwrap();
        d
    }

    #[test]
    fn a_legal_pipeline_is_clean_at_both_stages() {
        let kb = kb();
        let d = legal_pipeline(&kb);
        let inc = check_pipeline(&kb, &d, Stage::Incremental);
        assert!(!has_errors(&inc), "incremental errors: {inc:?}");
        let glob = check_pipeline(&kb, &d, Stage::Global);
        assert!(!has_errors(&glob), "global errors: {glob:?}");
    }

    #[test]
    fn incremental_accepts_what_global_accepts() {
        // Monotonicity: a diagram clean at Global must be clean at
        // Incremental (the editor never blocks something codegen allows).
        let kb = kb();
        let d = legal_pipeline(&kb);
        if !has_errors(&check_pipeline(&kb, &d, Stage::Global)) {
            assert!(!has_errors(&check_pipeline(&kb, &d, Stage::Incremental)));
        }
    }

    #[test]
    fn unbound_icons_warn_then_block() {
        let kb = kb();
        let mut d = diagram();
        d.add_icon(IconKind::memory());
        let inc = check_pipeline(&kb, &d, Stage::Incremental);
        assert!(fires(&inc, ConstraintKind::UnboundIcon) && !has_errors(&inc));
        let glob = check_pipeline(&kb, &d, Stage::Global);
        assert!(fires_err(&glob, ConstraintKind::UnboundIcon));
    }

    #[test]
    fn nonexistent_resources_are_errors_immediately() {
        let kb = kb();
        let mut d = diagram();
        d.add_icon(IconKind::Memory { plane: Some(PlaneId(99)) });
        d.add_icon(IconKind::Cache { cache: Some(CacheId(16)) });
        d.add_icon(IconKind::Sdu { sdu: Some(SduId(7)) });
        let diags = check_pipeline(&kb, &d, Stage::Incremental);
        assert_eq!(diags.iter().filter(|x| x.rule == ConstraintKind::NoSuchResource).count(), 3);
    }

    #[test]
    fn binding_kind_mismatch_detected() {
        let kb = kb();
        let mut d = diagram();
        // ALS0 is a triplet; bind a singlet icon to it.
        d.add_icon(IconKind::Als {
            kind: AlsKind::Singlet,
            mode: DoubletMode::Full,
            als: Some(AlsId(0)),
        });
        let diags = check_pipeline(&kb, &d, Stage::Incremental);
        assert!(fires_err(&diags, ConstraintKind::BindingKindMismatch));
    }

    #[test]
    fn duplicate_als_binding_detected() {
        let kb = kb();
        let mut d = diagram();
        for _ in 0..2 {
            d.add_icon(IconKind::Als {
                kind: AlsKind::Triplet,
                mode: DoubletMode::Full,
                als: Some(AlsId(0)),
            });
        }
        let diags = check_pipeline(&kb, &d, Stage::Incremental);
        assert!(fires_err(&diags, ConstraintKind::DuplicateBinding));
    }

    #[test]
    fn als_overcommit_detected() {
        let kb = kb();
        let mut d = diagram();
        for _ in 0..5 {
            d.add_icon(IconKind::als(AlsKind::Triplet)); // machine has 4
        }
        let diags = check_pipeline(&kb, &d, Stage::Incremental);
        assert!(fires_err(&diags, ConstraintKind::AlsOvercommit));
    }

    #[test]
    fn second_unit_to_same_plane_is_refused() {
        // The paper's own example: "if the user has routed the output from
        // one function unit to a particular memory plane, the graphical
        // editor will not let him send the output of a second unit to the
        // same plane."
        let kb = kb();
        let mut d = legal_pipeline(&kb);
        let als2 = d.add_icon(IconKind::Als {
            kind: AlsKind::Singlet,
            mode: DoubletMode::Full,
            als: Some(kb.layout().alss_of_kind(AlsKind::Singlet)[1]),
        });
        // A second memory icon bound to the same plane MP1:
        let dst2 = d.add_icon(IconKind::Memory { plane: Some(PlaneId(1)) });
        d.connect(
            PadLoc::new(als2, PadRef::FuOut { pos: 0 }),
            PadLoc::new(dst2, PadRef::Io),
            Some(DmaAttrs::at_address(512)),
        )
        .unwrap();
        let diags = check_pipeline(&kb, &d, Stage::Incremental);
        assert!(fires_err(&diags, ConstraintKind::PlaneContention), "{diags:?}");
    }

    #[test]
    fn fu_touching_two_planes_is_refused() {
        let kb = kb();
        let mut d = diagram();
        d.stream_len = 16;
        let m0 = d.add_icon(IconKind::Memory { plane: Some(PlaneId(0)) });
        let m1 = d.add_icon(IconKind::Memory { plane: Some(PlaneId(1)) });
        let als = d.add_icon(IconKind::Als {
            kind: AlsKind::Singlet,
            mode: DoubletMode::Full,
            als: Some(kb.layout().alss_of_kind(AlsKind::Singlet)[0]),
        });
        d.connect(
            PadLoc::new(m0, PadRef::Io),
            PadLoc::new(als, PadRef::FuIn { pos: 0, port: InPort::A }),
            Some(DmaAttrs::at_address(0)),
        )
        .unwrap();
        d.connect(
            PadLoc::new(m1, PadRef::Io),
            PadLoc::new(als, PadRef::FuIn { pos: 0, port: InPort::B }),
            Some(DmaAttrs::at_address(0)),
        )
        .unwrap();
        let diags = check_pipeline(&kb, &d, Stage::Incremental);
        assert!(fires_err(&diags, ConstraintKind::FuMultiPlane));
    }

    #[test]
    fn capability_asymmetry_enforced() {
        let kb = kb();
        let mut d = diagram();
        let t = d.add_icon(IconKind::als(AlsKind::Triplet));
        // Position 1 of a triplet is plain float: integer ops refused.
        d.assign_fu(t, 1, FuAssign::binary(FuOp::IAdd)).unwrap();
        let diags = check_pipeline(&kb, &d, Stage::Incremental);
        assert!(fires_err(&diags, ConstraintKind::CapabilityViolation));
        // Min/max on position 0 also refused.
        d.assign_fu(t, 0, FuAssign::binary(FuOp::Max)).unwrap();
        let diags = check_pipeline(&kb, &d, Stage::Incremental);
        assert!(
            diags.iter().filter(|x| x.rule == ConstraintKind::CapabilityViolation).count() >= 2
        );
    }

    #[test]
    fn wire_into_constant_input_is_an_error() {
        let kb = kb();
        let mut d = legal_pipeline(&kb);
        // The singlet's input b is Constant; wire something into it.
        let als_id = d.icons().find(|i| matches!(i.kind, IconKind::Als { .. })).unwrap().id;
        let extra = d.add_icon(IconKind::Memory { plane: Some(PlaneId(2)) });
        d.connect(
            PadLoc::new(extra, PadRef::Io),
            PadLoc::new(als_id, PadRef::FuIn { pos: 0, port: InPort::B }),
            Some(DmaAttrs::at_address(0)),
        )
        .unwrap();
        let diags = check_pipeline(&kb, &d, Stage::Incremental);
        assert!(fires_err(&diags, ConstraintKind::ArityMismatch));
    }

    #[test]
    fn missing_wire_is_gap_not_error_while_editing() {
        let kb = kb();
        let mut d = diagram();
        let als = d.add_icon(IconKind::als(AlsKind::Singlet));
        d.assign_fu(als, 0, FuAssign::binary(FuOp::Add)).unwrap();
        let inc = check_pipeline(&kb, &d, Stage::Incremental);
        assert!(fires(&inc, ConstraintKind::ArityMismatch));
        assert!(!fires_err(&inc, ConstraintKind::ArityMismatch));
        let glob = check_pipeline(&kb, &d, Stage::Global);
        assert!(fires_err(&glob, ConstraintKind::ArityMismatch));
    }

    #[test]
    fn queue_depth_checked_against_register_file() {
        let kb = kb();
        let mut d = diagram();
        let als = d.add_icon(IconKind::als(AlsKind::Singlet));
        d.assign_fu(
            als,
            0,
            FuAssign {
                op: FuOp::Add,
                in_a: InputSpec::DelayedWire { delay: 60 },
                in_b: InputSpec::DelayedWire { delay: 60 },
            },
        )
        .unwrap();
        let diags = check_pipeline(&kb, &d, Stage::Incremental);
        assert!(fires_err(&diags, ConstraintKind::QueueDepthExceeded), "120 > 64 words");
    }

    #[test]
    fn sdu_rules() {
        let kb = kb();
        let mut d = diagram();
        let sdu = d.add_icon(IconKind::Sdu { sdu: Some(SduId(0)) });
        // Too many taps.
        d.set_sdu_taps(sdu, vec![0, 1, 2, 3, 4]).unwrap();
        let diags = check_pipeline(&kb, &d, Stage::Incremental);
        assert!(fires_err(&diags, ConstraintKind::SduTapCount));
        // A delay must stay below the 16384-word buffer.
        for (delay, fires) in [(16383, false), (16384, true), (16385, true)] {
            d.set_sdu_taps(sdu, vec![delay]).unwrap();
            let diags = check_pipeline(&kb, &d, Stage::Incremental);
            assert_eq!(fires_err(&diags, ConstraintKind::SduDelayRange), fires, "delay {delay}");
        }
        // SDU fed from an ALS is refused.
        let als = d.add_icon(IconKind::als(AlsKind::Singlet));
        d.set_sdu_taps(sdu, vec![0]).unwrap();
        d.connect(
            PadLoc::new(als, PadRef::FuOut { pos: 0 }),
            PadLoc::new(sdu, PadRef::SduIn),
            None,
        )
        .unwrap();
        let diags = check_pipeline(&kb, &d, Stage::Incremental);
        assert!(fires_err(&diags, ConstraintKind::SduSourceKind));
    }

    #[test]
    fn dma_rules() {
        let kb = kb();
        let mut d = diagram();
        d.stream_len = 100;
        let m = d.add_icon(IconKind::Memory { plane: Some(PlaneId(0)) });
        let als = d.add_icon(IconKind::als(AlsKind::Singlet));
        // Missing DMA attrs: gap.
        let c1 = d
            .connect(
                PadLoc::new(m, PadRef::Io),
                PadLoc::new(als, PadRef::FuIn { pos: 0, port: InPort::A }),
                None,
            )
            .unwrap();
        let inc = check_pipeline(&kb, &d, Stage::Incremental);
        assert!(
            fires(&inc, ConstraintKind::DmaMissing) && !fires_err(&inc, ConstraintKind::DmaMissing)
        );
        let glob = check_pipeline(&kb, &d, Stage::Global);
        assert!(fires_err(&glob, ConstraintKind::DmaMissing));
        // Out-of-range transfer.
        d.connection_mut(c1).unwrap().dma = Some(DmaAttrs::at_address(16 * 1024 * 1024 - 10));
        let diags = check_pipeline(&kb, &d, Stage::Incremental);
        assert!(fires_err(&diags, ConstraintKind::DmaRange));
        // Zero stride.
        d.connection_mut(c1).unwrap().dma = Some(DmaAttrs::at_address(0).with_stride(0));
        let diags = check_pipeline(&kb, &d, Stage::Incremental);
        assert!(fires_err(&diags, ConstraintKind::DmaRange));
        // Count mismatch warning.
        d.connection_mut(c1).unwrap().dma = Some(DmaAttrs::at_address(0).with_count(50));
        let diags = check_pipeline(&kb, &d, Stage::Incremental);
        assert!(fires(&diags, ConstraintKind::StreamLenMismatch));
    }

    #[test]
    fn storage_to_storage_wires_are_refused() {
        let kb = kb();
        let mut d = diagram();
        let m0 = d.add_icon(IconKind::Memory { plane: Some(PlaneId(0)) });
        let m1 = d.add_icon(IconKind::Memory { plane: Some(PlaneId(1)) });
        d.connect(
            PadLoc::new(m0, PadRef::Io),
            PadLoc::new(m1, PadRef::Io),
            Some(DmaAttrs::at_address(0)),
        )
        .unwrap();
        let diags = check_pipeline(&kb, &d, Stage::Incremental);
        assert!(fires_err(&diags, ConstraintKind::DmaMissing));
    }

    #[test]
    fn variable_rules_need_declarations() {
        let kb = kb();
        let mut d = diagram();
        d.stream_len = 64;
        let m = d.add_icon(IconKind::Memory { plane: Some(PlaneId(0)) });
        let als = d.add_icon(IconKind::als(AlsKind::Singlet));
        d.connect(
            PadLoc::new(m, PadRef::Io),
            PadLoc::new(als, PadRef::FuIn { pos: 0, port: InPort::A }),
            Some(DmaAttrs::variable("ghost")),
        )
        .unwrap();
        // Without declarations: silent on the variable.
        let diags = check_pipeline(&kb, &d, Stage::Incremental);
        assert!(!fires(&diags, ConstraintKind::UndeclaredVariable));
        // With declarations: undeclared variable is an error.
        let decls = Declarations::default();
        let diags = check_pipeline_with(&kb, &d, Stage::Incremental, Some(&decls));
        assert!(fires_err(&diags, ConstraintKind::UndeclaredVariable));
        // Declared but overrun: DmaRange.
        let mut decls = Declarations::default();
        decls.declare(VarDecl { name: "ghost".into(), plane: PlaneId(0), base: 0, len: 32 });
        let diags = check_pipeline_with(&kb, &d, Stage::Incremental, Some(&decls));
        assert!(fires_err(&diags, ConstraintKind::DmaRange), "64-long stream into 32-long var");
    }

    #[test]
    fn subset_model_limits_active_units() {
        let cfg = MachineConfig::nsc_1988().subset(nsc_arch::SubsetModel::SingletsOnly);
        let kb = KnowledgeBase::new(cfg);
        let mut d = diagram();
        let t = d.add_icon(IconKind::als(AlsKind::Triplet));
        d.assign_fu(t, 0, FuAssign::binary(FuOp::Add)).unwrap();
        d.assign_fu(t, 1, FuAssign::binary(FuOp::Mul)).unwrap();
        let diags = check_pipeline(&kb, &d, Stage::Incremental);
        assert!(fires_err(&diags, ConstraintKind::SubsetViolation));
    }

    #[test]
    fn self_loop_refused_with_feedback_hint() {
        let kb = kb();
        let mut d = diagram();
        let als = d.add_icon(IconKind::als(AlsKind::Singlet));
        d.connect(
            PadLoc::new(als, PadRef::FuOut { pos: 0 }),
            PadLoc::new(als, PadRef::FuIn { pos: 0, port: InPort::B }),
            None,
        )
        .unwrap();
        let diags = check_pipeline(&kb, &d, Stage::Incremental);
        let d = diags.iter().find(|x| x.rule == ConstraintKind::SelfLoop).expect("self loop");
        assert!(d.message.contains("feedback"));
    }

    #[test]
    fn cross_unit_cycle_detected_globally() {
        let kb = kb();
        let mut d = diagram();
        let a = d.add_icon(IconKind::als(AlsKind::Singlet));
        let b = d.add_icon(IconKind::als(AlsKind::Singlet));
        d.connect(
            PadLoc::new(a, PadRef::FuOut { pos: 0 }),
            PadLoc::new(b, PadRef::FuIn { pos: 0, port: InPort::A }),
            None,
        )
        .unwrap();
        d.connect(
            PadLoc::new(b, PadRef::FuOut { pos: 0 }),
            PadLoc::new(a, PadRef::FuIn { pos: 0, port: InPort::A }),
            None,
        )
        .unwrap();
        let inc = check_pipeline(&kb, &d, Stage::Incremental);
        assert!(!fires(&inc, ConstraintKind::CycleDetected), "cycle check is global-only");
        let glob = check_pipeline(&kb, &d, Stage::Global);
        assert!(fires_err(&glob, ConstraintKind::CycleDetected));
    }

    #[test]
    fn pipelines_without_stores_are_refused_globally() {
        let kb = kb();
        let mut d = diagram();
        let m = d.add_icon(IconKind::Memory { plane: Some(PlaneId(0)) });
        let als = d.add_icon(IconKind::als(AlsKind::Singlet));
        d.connect(
            PadLoc::new(m, PadRef::Io),
            PadLoc::new(als, PadRef::FuIn { pos: 0, port: InPort::A }),
            Some(DmaAttrs::at_address(0)),
        )
        .unwrap();
        let glob = check_pipeline(&kb, &d, Stage::Global);
        assert!(fires_err(&glob, ConstraintKind::NoStore));
    }

    #[test]
    fn zero_stream_length_is_an_error() {
        let kb = kb();
        let mut d = diagram();
        d.stream_len = 0;
        let diags = check_pipeline(&kb, &d, Stage::Incremental);
        assert!(fires_err(&diags, ConstraintKind::StreamLenMismatch));
    }

    #[test]
    fn document_level_rules() {
        let kb = kb();
        let mut doc = Document::new("t");
        let p = doc.add_pipeline("only");
        doc.control = Some(ControlNode::Seq(vec![
            ControlNode::Pipeline(p),
            ControlNode::Pipeline(nsc_diagram::PipelineId(999)),
        ]));
        doc.decls.declare(VarDecl { name: "u".into(), plane: PlaneId(99), base: 0, len: 1 });
        doc.decls.declare(VarDecl { name: "a".into(), plane: PlaneId(0), base: 0, len: 100 });
        doc.decls.declare(VarDecl { name: "b".into(), plane: PlaneId(0), base: 50, len: 100 });
        let diags = check_document(&kb, &doc);
        assert!(fires_err(&diags, ConstraintKind::DanglingControlRef));
        assert!(fires_err(&diags, ConstraintKind::NoSuchResource), "var in plane 99");
        assert!(fires(&diags, ConstraintKind::DmaRange), "overlapping vars warn");
    }

    #[test]
    fn unwritten_convergence_condition_warns() {
        let kb = kb();
        let mut doc = Document::new("t");
        let p = doc.add_pipeline("body");
        doc.control = Some(ControlNode::RepeatUntil {
            cond: nsc_diagram::ConvergenceCond {
                cache: CacheId(0),
                offset: 0,
                threshold: 1e-6,
                max_iters: 100,
            },
            body: Box::new(ControlNode::Pipeline(p)),
        });
        let diags = check_document(&kb, &doc);
        assert!(fires(&diags, ConstraintKind::UnwrittenCondition));
    }

    #[test]
    fn unused_icon_warns() {
        let kb = kb();
        let mut d = diagram();
        d.add_icon(IconKind::memory());
        let diags = check_pipeline(&kb, &d, Stage::Incremental);
        assert!(fires(&diags, ConstraintKind::UnusedIcon));
    }

    #[test]
    fn inactive_unit_programming_detected_after_mode_change() {
        let kb = kb();
        let mut d = diagram();
        let doub = d.add_icon(IconKind::als(AlsKind::Doublet));
        d.assign_fu(doub, 1, FuAssign::binary(FuOp::Add)).unwrap();
        // Re-configure to bypass the second unit after programming it.
        if let Some(icon) = d.icon_mut(doub) {
            if let IconKind::Als { mode, .. } = &mut icon.kind {
                *mode = DoubletMode::BypassSecond;
            }
        }
        let diags = check_pipeline(&kb, &d, Stage::Incremental);
        assert!(fires_err(&diags, ConstraintKind::InactiveUnit));
    }
}
