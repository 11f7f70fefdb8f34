//! The expression mapper: trees onto pipeline diagrams, §3-style.
//!
//! Two architecture rules dominate the mapping:
//!
//! * a memory plane supplies **one read stream per instruction** — when two
//!   operand variables share a plane, all but one must be *staged through a
//!   data cache* by an extra preceding instruction;
//! * a functional unit touches **one read plane** — when a binary unit
//!   would combine two direct plane streams, the second is routed through
//!   a COPY unit inside the same instruction (a unit-count cost, not a
//!   time cost).
//!
//! The mapper decides the staging; the evaluating instruction lowers
//! through [`PipelineBuilder`], which places the units and inserts the
//! COPY units.
//!
//! The number of staging instructions is therefore a direct function of
//! the allocation strategy — exactly the §3 claim that "the optimum layout
//! for one pipeline may be unworkable for the next".

use crate::alloc::AllocStrategy;
use crate::expr::Expr;
use nsc_arch::{AlsKind, CacheId, FuOp, InPort, KnowledgeBase};
use nsc_checker::Checker;
use nsc_diagram::{
    ControlNode, DiagramError, DmaAttrs, Document, FuAssign, IconKind, OutputWindow, PadLoc,
    PadRef, PipelineBuilder, Placement, Stream,
};
use std::collections::btree_map::Entry;
use std::collections::BTreeMap;

/// Mapping cost accounting.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CompileStats {
    /// Extra instructions that stage conflicting variables through caches.
    pub staging_instructions: usize,
    /// Functional units used by the main instruction (incl. copies).
    pub units_used: usize,
    /// COPY units inserted for the one-plane-per-unit rule.
    pub copies_inserted: usize,
}

/// Compile an expression into a document: zero or more cache-staging
/// instructions followed by the evaluating instruction storing to
/// `output`. Icons are bound before return; the document is ready for the
/// generator.
///
/// # Panics
///
/// If the tree needs more functional units than the node has, or holds a
/// constant anywhere but as the right operand of a binary node.
pub fn compile_expr(
    expr: &Expr,
    output: &str,
    len: u64,
    strategy: AllocStrategy,
    kb: &KnowledgeBase,
) -> (Document, CompileStats) {
    let vars = expr.variables();
    let decls = strategy.declare(&vars, output, len, kb.config().memory.planes);
    let mut doc = Document::new(format!("expr->{output} [{}]", strategy.label()));
    doc.decls = decls;
    let mut stats = CompileStats::default();

    // Per plane, the first variable keeps the read port; the rest are
    // staged through caches.
    let mut port_owner: BTreeMap<u8, String> = BTreeMap::new();
    let mut staged: BTreeMap<String, CacheId> = BTreeMap::new();
    for name in &vars {
        let plane = doc.decls.lookup(name).expect("declared").plane;
        match port_owner.entry(plane.0) {
            Entry::Occupied(_) => {
                let cache = CacheId(staged.len() as u8);
                assert!(kb.valid_cache(cache), "more conflicting variables than caches");
                staged.insert(name.clone(), cache);
            }
            Entry::Vacant(slot) => {
                slot.insert(name.clone());
            }
        }
    }

    // One staging instruction per conflicted variable.
    for (name, cache) in &staged {
        let pid = doc.add_pipeline(format!("stage {name} via {cache}"));
        let d = doc.pipeline_mut(pid).unwrap();
        d.stream_len = len;
        let mem = d.add_icon(IconKind::memory());
        let unit = d.add_icon(IconKind::als(AlsKind::Singlet));
        let cc = d.add_icon(IconKind::Cache { cache: Some(*cache) });
        d.connect(
            PadLoc::new(mem, PadRef::Io),
            PadLoc::new(unit, PadRef::FuIn { pos: 0, port: InPort::A }),
            Some(DmaAttrs::variable(name)),
        )
        .unwrap();
        d.assign_fu(unit, 0, FuAssign::unary(FuOp::Copy)).unwrap();
        d.connect(
            PadLoc::new(unit, PadRef::FuOut { pos: 0 }),
            PadLoc::new(cc, PadRef::Io),
            Some(DmaAttrs::at_address(0)),
        )
        .unwrap();
        stats.staging_instructions += 1;
    }

    // The main instruction.
    let pid = doc.add_pipeline("evaluate");
    let d = doc.pipeline_mut(pid).expect("the pipeline was just added");
    let window = OutputWindow { first: 0, len, lead: 0, slot: 0 };
    let mut b = PipelineBuilder::new(d, Placement::Packed, window);
    let mapped = lower(&mut b, expr, &staged).and_then(|root| b.store(output, 0, root));
    if let Err(e) = mapped {
        panic!("cannot map the expression ({e}); split it first");
    }
    stats.units_used = b.units();
    stats.copies_inserted = b.copies();

    doc.control = Some(ControlNode::Seq(
        doc.pipelines().iter().map(|p| ControlNode::Pipeline(p.id)).collect(),
    ));
    // Bind everything.
    let checker = Checker::new(kb.clone());
    let decls = doc.decls.clone();
    let ids: Vec<_> = doc.pipelines().iter().map(|p| p.id).collect();
    for id in ids {
        let diags = checker.auto_bind(doc.pipeline_mut(id).unwrap(), &decls);
        assert!(diags.is_empty(), "binding: {diags:?}");
    }
    (doc, stats)
}

/// Lower `e` through the builder: a staged variable streams from its
/// cache, any other from its plane.
fn lower(
    b: &mut PipelineBuilder,
    e: &Expr,
    staged: &BTreeMap<String, CacheId>,
) -> Result<Stream, DiagramError> {
    Ok(match e {
        Expr::Load(name) => match staged.get(name) {
            Some(&cache) => b.cache_read(name, cache),
            None => b.read(name, 0, [0])?[0],
        },
        Expr::Const(_) => panic!("constants only as right operands of binary nodes"),
        Expr::Unary(op, a) => {
            let a = lower(b, a, staged)?;
            b.unary(*op, a)?
        }
        Expr::Binary(op, a, rhs) => {
            let a = lower(b, a, staged)?;
            match **rhs {
                Expr::Const(c) => b.constant(*op, a, c)?,
                _ => {
                    let rhs = lower(b, rhs, staged)?;
                    b.binary(*op, a, rhs)?
                }
            }
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use nsc_codegen::generate;
    use nsc_sim::{NodeSim, RunOptions};
    use rand::{Rng, SeedableRng};

    fn sample_expr() -> Expr {
        // y = (a+b) * (c-d) + |a| * 0.5
        Expr::var("a")
            .add(Expr::var("b"))
            .mul(Expr::var("c").sub(Expr::var("d")))
            .add(Expr::var("a").abs().mul(Expr::Const(0.5)))
    }

    fn run_strategy(strategy: AllocStrategy, len: u64) -> (Vec<f64>, u64, CompileStats) {
        let kb = nsc_arch::KnowledgeBase::nsc_1988();
        let expr = sample_expr();
        let (doc, stats) = compile_expr(&expr, "y", len, strategy, &kb);
        let out = generate(&kb, &doc).expect("generates");
        let mut node = NodeSim::new(kb);
        // Load inputs at their declared addresses.
        let mut rng = rand::rngs::StdRng::seed_from_u64(42);
        let mut data: BTreeMap<String, Vec<f64>> = BTreeMap::new();
        for name in expr.variables() {
            let v: Vec<f64> = (0..len).map(|_| rng.random_range(-4.0..4.0)).collect();
            let decl = doc.decls.lookup(&name).unwrap();
            node.mem.plane_mut(decl.plane).write_slice(decl.base, &v);
            data.insert(name, v);
        }
        node.run_program(&out.program, &RunOptions::default()).expect("runs");
        let ydecl = doc.decls.lookup("y").unwrap();
        let y = node.mem.plane(ydecl.plane).read_vec(ydecl.base, len);
        // Host comparison.
        let host = expr.eval_host(len as usize, &|n| data[n].clone());
        for (s, h) in y.iter().zip(&host) {
            assert_eq!(s.to_bits(), h.to_bits(), "simulated expr must match host exactly");
        }
        (y, node.counters.cycles, stats)
    }

    #[test]
    fn round_robin_needs_no_staging() {
        let (_, _, stats) = run_strategy(AllocStrategy::RoundRobin, 64);
        assert_eq!(stats.staging_instructions, 0);
        assert!(stats.copies_inserted >= 1, "direct plane pairs still need copies");
    }

    #[test]
    fn one_plane_allocation_pays_staging_instructions() {
        let (_, _, stats) = run_strategy(AllocStrategy::AllInOnePlane, 64);
        // Four variables in one plane: three must be staged.
        assert_eq!(stats.staging_instructions, 3);
    }

    #[test]
    fn two_per_plane_is_in_between() {
        let (_, _, stats) = run_strategy(AllocStrategy::TwoPerPlane, 64);
        assert_eq!(stats.staging_instructions, 2, "one conflict per shared plane");
    }

    #[test]
    fn bad_allocation_costs_simulated_time() {
        let (_, t_bad, _) = run_strategy(AllocStrategy::AllInOnePlane, 512);
        let (_, t_good, _) = run_strategy(AllocStrategy::RoundRobin, 512);
        assert!(
            t_bad as f64 > 2.5 * t_good as f64,
            "staging must dominate: {t_bad} vs {t_good} cycles"
        );
    }

    #[test]
    fn all_strategies_agree_on_values() {
        let (a, _, _) = run_strategy(AllocStrategy::AllInOnePlane, 128);
        let (b, _, _) = run_strategy(AllocStrategy::RoundRobin, 128);
        let (c, _, _) = run_strategy(AllocStrategy::TwoPerPlane, 128);
        assert_eq!(a, b);
        assert_eq!(b, c);
    }
}
