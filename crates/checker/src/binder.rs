//! Automatic binding of logical icons to physical resources.
//!
//! The paper's first design goal (§4): "that the representation have a
//! one-to-one correspondence with the functional model of the machine, so
//! that everything could be specified precisely if necessary. However, an
//! effort would be made to choose appropriate defaults wherever possible in
//! order to minimize the amount of detail required. The defaults could be
//! easily overridden when required."
//!
//! The binder is that default-chooser for physical resource numbers: icons
//! the user left unbound are assigned first-fit from the free pool. Icons
//! whose DMA attributes name a declared variable are bound to *that
//! variable's plane* — the declaration already decided the allocation.

use crate::diag::{ConstraintKind, Diagnostic, Subject};
use nsc_arch::{CacheId, KnowledgeBase, PlaneId, SduId};
use nsc_diagram::{Declarations, IconId, IconKind, PadRef, PipelineDiagram};
use std::collections::BTreeSet;

/// Bind every unbound icon to a free physical resource. Returns
/// diagnostics for icons that could not be bound (pool exhausted). Bound
/// icons are never re-bound.
pub fn auto_bind(
    kb: &KnowledgeBase,
    diagram: &mut PipelineDiagram,
    decls: &Declarations,
) -> Vec<Diagnostic> {
    let mut diags = Vec::new();

    // Pools of already-taken physical resources.
    let mut taken_als: BTreeSet<u8> = BTreeSet::new();
    let mut taken_planes: BTreeSet<u8> = BTreeSet::new();
    let mut taken_caches: BTreeSet<u8> = BTreeSet::new();
    let mut taken_sdus: BTreeSet<u8> = BTreeSet::new();
    for icon in diagram.icons() {
        match icon.kind {
            IconKind::Als { als: Some(a), .. } => {
                taken_als.insert(a.0);
            }
            IconKind::Memory { plane: Some(p) } => {
                taken_planes.insert(p.0);
            }
            IconKind::Cache { cache: Some(c) } => {
                taken_caches.insert(c.0);
            }
            IconKind::Sdu { sdu: Some(s) } => {
                taken_sdus.insert(s.0);
            }
            _ => {}
        }
    }
    // Planes already owned by declared variables are only available to the
    // icons that reference those variables.
    let var_planes: BTreeSet<u8> = decls.vars.iter().map(|v| v.plane.0).collect();

    let unbound: Vec<(IconId, IconKind)> =
        diagram.icons().filter(|i| !i.kind.is_bound()).map(|i| (i.id, i.kind)).collect();

    for (id, kind) in unbound {
        match kind {
            IconKind::Als { kind: shape, .. } => {
                let free =
                    kb.layout().alss_of_kind(shape).into_iter().find(|a| !taken_als.contains(&a.0));
                match free {
                    Some(a) => {
                        taken_als.insert(a.0);
                        if let Some(icon) = diagram.icon_mut(id) {
                            if let IconKind::Als { als, .. } = &mut icon.kind {
                                *als = Some(a);
                            }
                        }
                    }
                    None => diags.push(Diagnostic::error(
                        ConstraintKind::AlsOvercommit,
                        Subject::Icon(id),
                        format!("no free {shape} left to bind"),
                    )),
                }
            }
            IconKind::Memory { .. } => {
                // If this icon's wires name a declared variable, bind to the
                // variable's plane.
                let var_plane = variable_plane_of(diagram, id, decls);
                let pick = match var_plane {
                    Some(p) => Some(p),
                    None => (0..kb.config().memory.planes as u8)
                        .find(|p| !taken_planes.contains(p) && !var_planes.contains(p))
                        .map(PlaneId),
                };
                match pick {
                    Some(p) => {
                        // A variable's plane may be shared by a read icon
                        // and a write icon; first-fit planes may not.
                        if var_plane.is_none() {
                            taken_planes.insert(p.0);
                        }
                        if let Some(icon) = diagram.icon_mut(id) {
                            icon.kind = IconKind::Memory { plane: Some(p) };
                        }
                    }
                    None => diags.push(Diagnostic::error(
                        ConstraintKind::AlsOvercommit,
                        Subject::Icon(id),
                        "no free memory plane left to bind",
                    )),
                }
            }
            IconKind::Cache { .. } => {
                let free = (0..kb.config().cache.caches as u8).find(|c| !taken_caches.contains(c));
                match free {
                    Some(c) => {
                        taken_caches.insert(c);
                        if let Some(icon) = diagram.icon_mut(id) {
                            icon.kind = IconKind::Cache { cache: Some(CacheId(c)) };
                        }
                    }
                    None => diags.push(Diagnostic::error(
                        ConstraintKind::AlsOvercommit,
                        Subject::Icon(id),
                        "no free cache left to bind",
                    )),
                }
            }
            IconKind::Sdu { .. } => {
                let free = (0..kb.config().sdu.units as u8).find(|s| !taken_sdus.contains(s));
                match free {
                    Some(s) => {
                        taken_sdus.insert(s);
                        if let Some(icon) = diagram.icon_mut(id) {
                            icon.kind = IconKind::Sdu { sdu: Some(SduId(s)) };
                        }
                    }
                    None => diags.push(Diagnostic::error(
                        ConstraintKind::AlsOvercommit,
                        Subject::Icon(id),
                        "no free shift/delay unit left to bind",
                    )),
                }
            }
        }
    }
    diags
}

/// If any wire touching this storage icon carries DMA attributes naming a
/// declared variable, the variable's plane decides the binding.
fn variable_plane_of(
    diagram: &PipelineDiagram,
    icon: IconId,
    decls: &Declarations,
) -> Option<PlaneId> {
    let loc = nsc_diagram::PadLoc::new(icon, PadRef::Io);
    diagram
        .connections()
        .filter(|c| c.from == loc || c.to == loc)
        .filter_map(|c| c.dma.as_ref()?.variable.as_deref().and_then(|n| decls.lookup(n)))
        .map(|v| v.plane)
        .next()
}

#[cfg(test)]
mod tests {
    use super::*;
    use nsc_arch::{AlsId, AlsKind, InPort};
    use nsc_diagram::{DmaAttrs, PadLoc, PipelineId, VarDecl};

    fn kb() -> KnowledgeBase {
        KnowledgeBase::nsc_1988()
    }

    #[test]
    fn binds_als_icons_first_fit_by_kind() {
        let kb = kb();
        let mut d = PipelineDiagram::new(PipelineId(0), "t");
        let t1 = d.add_icon(IconKind::als(AlsKind::Triplet));
        let t2 = d.add_icon(IconKind::als(AlsKind::Triplet));
        let s1 = d.add_icon(IconKind::als(AlsKind::Singlet));
        let diags = auto_bind(&kb, &mut d, &Declarations::default());
        assert!(diags.is_empty());
        let bound = |id| match d.icon(id).unwrap().kind {
            IconKind::Als { als, .. } => als.unwrap(),
            _ => panic!(),
        };
        assert_eq!(bound(t1), AlsId(0));
        assert_eq!(bound(t2), AlsId(1));
        // Singlets are ALS12..15 on the 1988 machine.
        assert_eq!(bound(s1), AlsId(12));
    }

    #[test]
    fn respects_existing_bindings() {
        let kb = kb();
        let mut d = PipelineDiagram::new(PipelineId(0), "t");
        let pre = d.add_icon(IconKind::Als {
            kind: AlsKind::Triplet,
            mode: nsc_arch::DoubletMode::Full,
            als: Some(AlsId(0)),
        });
        let t = d.add_icon(IconKind::als(AlsKind::Triplet));
        auto_bind(&kb, &mut d, &Declarations::default());
        let bound = |id| match d.icon(id).unwrap().kind {
            IconKind::Als { als, .. } => als.unwrap(),
            _ => panic!(),
        };
        assert_eq!(bound(pre), AlsId(0), "pre-bound icon untouched");
        assert_eq!(bound(t), AlsId(1), "new icon skips the taken ALS");
    }

    #[test]
    fn pool_exhaustion_reports() {
        let kb = kb();
        let mut d = PipelineDiagram::new(PipelineId(0), "t");
        for _ in 0..5 {
            d.add_icon(IconKind::als(AlsKind::Triplet)); // machine has 4
        }
        let diags = auto_bind(&kb, &mut d, &Declarations::default());
        assert_eq!(diags.len(), 1);
        assert_eq!(diags[0].rule, ConstraintKind::AlsOvercommit);
    }

    #[test]
    fn variable_references_decide_memory_bindings() {
        let kb = kb();
        let mut decls = Declarations::default();
        decls.declare(VarDecl { name: "u".into(), plane: PlaneId(7), base: 0, len: 512 });
        let mut d = PipelineDiagram::new(PipelineId(0), "t");
        d.stream_len = 512;
        let m = d.add_icon(IconKind::memory());
        let als = d.add_icon(IconKind::als(AlsKind::Singlet));
        d.connect(
            PadLoc::new(m, PadRef::Io),
            PadLoc::new(als, PadRef::FuIn { pos: 0, port: InPort::A }),
            Some(DmaAttrs::variable("u")),
        )
        .unwrap();
        auto_bind(&kb, &mut d, &decls);
        assert_eq!(d.icon(m).unwrap().kind, IconKind::Memory { plane: Some(PlaneId(7)) });
    }

    #[test]
    fn first_fit_planes_avoid_variable_planes() {
        let kb = kb();
        let mut decls = Declarations::default();
        decls.declare(VarDecl { name: "u".into(), plane: PlaneId(0), base: 0, len: 512 });
        let mut d = PipelineDiagram::new(PipelineId(0), "t");
        let m = d.add_icon(IconKind::memory()); // no variable reference
        auto_bind(&kb, &mut d, &decls);
        assert_eq!(
            d.icon(m).unwrap().kind,
            IconKind::Memory { plane: Some(PlaneId(1)) },
            "plane 0 belongs to variable 'u'"
        );
    }

    #[test]
    fn binds_caches_and_sdus() {
        let kb = kb();
        let mut d = PipelineDiagram::new(PipelineId(0), "t");
        let c = d.add_icon(IconKind::cache());
        let s = d.add_icon(IconKind::sdu());
        let diags = auto_bind(&kb, &mut d, &Declarations::default());
        assert!(diags.is_empty());
        assert_eq!(d.icon(c).unwrap().kind, IconKind::Cache { cache: Some(CacheId(0)) });
        assert_eq!(d.icon(s).unwrap().kind, IconKind::Sdu { sdu: Some(SduId(0)) });
    }
}
