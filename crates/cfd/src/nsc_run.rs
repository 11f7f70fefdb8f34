//! Running the Jacobi document on the simulated NSC and checking it
//! against the host mirror.
//!
//! Every entry point is fallible: bind, check, generation and execution
//! failures propagate as [`NscError`] instead of panicking, so solver
//! drivers can be batched, retried and reported on.

use crate::diagrams::{
    build_jacobi_document, JacobiGeometry, JacobiVariant, PLANE_COPY0, PLANE_G, PLANE_MASK,
    PLANE_U0, RESIDUAL_CACHE,
};
use crate::distributed::check_same_machine;
use crate::grid::{check_problem, Grid3};
use crate::host::JacobiHostState;
use nsc_core::{NscError, Session};
use nsc_sim::{NodeSim, PerfCounters, RunOptions};

/// Outcome of a simulated Jacobi solve.
#[derive(Debug, Clone)]
pub struct JacobiRun {
    /// The final iterate (extracted from the node's planes).
    pub u: Grid3,
    /// The final residual scalar from the data cache.
    pub residual: f64,
    /// Full sweeps executed (ping-pong pairs x 2).
    pub sweeps: u64,
    /// Whether the convergence branch (not the iteration cap) ended it.
    pub converged: bool,
    /// The node's performance counters for the run.
    pub counters: PerfCounters,
    /// Achieved MFLOPS at the node clock.
    pub mflops: f64,
}

/// Load a Jacobi problem into the node's planes.
pub fn load_problem(node: &mut NodeSim, state: &JacobiHostState, variant: JacobiVariant) {
    node.mem.plane_mut(PLANE_U0).write_slice(0, &state.u.words);
    node.mem.plane_mut(PLANE_MASK).write_slice(0, &state.mask.words);
    node.mem.plane_mut(PLANE_G).write_slice(0, &state.g.words);
    // The pong plane starts zero; every point is written each sweep.
    if variant == JacobiVariant::NoSdu {
        // §3: "maintain multiple copies of arrays" — the initial copies.
        for i in 0..6u8 {
            node.mem.plane_mut(nsc_arch::PlaneId(PLANE_COPY0 + i)).write_slice(0, &state.u.words);
        }
    }
}

/// Solve the `n^3` manufactured problem on a simulated node, compiling
/// against the node's own machine description.
pub fn run_jacobi_on_node(
    node: &mut NodeSim,
    u0: &Grid3,
    f: &Grid3,
    tol: f64,
    max_pairs: u32,
    variant: JacobiVariant,
) -> Result<JacobiRun, NscError> {
    run_jacobi(&Session::from_kb(node.kb.clone()), node, u0, f, tol, max_pairs, variant)
}

/// Solve the `n^3` manufactured problem: compile the Jacobi document
/// through `session`, execute it on `node`. A node whose machine differs
/// from the session's is refused before anything is written to it.
pub fn run_jacobi(
    session: &Session,
    node: &mut NodeSim,
    u0: &Grid3,
    f: &Grid3,
    tol: f64,
    max_pairs: u32,
    variant: JacobiVariant,
) -> Result<JacobiRun, NscError> {
    check_same_machine(session, node)?;
    if u0.nx != u0.ny || u0.nx != u0.nz {
        return Err(NscError::Workload(format!(
            "the Jacobi document wants a cubic grid, got {}x{}x{}",
            u0.nx, u0.ny, u0.nz
        )));
    }
    check_problem(u0, f)?;
    let n = u0.nx;
    let state = JacobiHostState::new(u0, f);
    load_problem(node, &state, variant);
    let mut doc = build_jacobi_document(n, tol, max_pairs, variant);
    let compiled = session.compile(&mut doc)?;
    // A convergence loop that outruns this budget is a runaway: the
    // document's own max_pairs counter should always halt it first, so
    // CompiledProgram::run reporting NscError::MaxInstructions is the
    // wanted behaviour.
    let opts = RunOptions { max_instructions: 10_000_000, ..Default::default() };
    let report = compiled.run(node, &opts)?;

    let instrs_per_pair = match variant {
        JacobiVariant::NoSdu => 6,
        _ => 2,
    };
    let pairs = (report.stats.executed - 1) / instrs_per_pair; // minus loop header
    let residual = node.mem.cache(RESIDUAL_CACHE).read(0, 0);
    let geo = JacobiGeometry::cube(n);
    // The loop body ends on the odd sweep, so the result is in plane u0.
    let words = node.mem.plane(PLANE_U0).read_vec(0, geo.padded as u64);
    let padded = crate::grid::PaddedField { front: geo.plane, back: geo.plane, words };
    let u = padded.to_grid(n, n, n);
    Ok(JacobiRun {
        u,
        residual,
        sweeps: pairs * 2,
        converged: residual < tol,
        counters: report.counters,
        mflops: report.mflops,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::grid::manufactured_problem;
    use crate::host::jacobi_sweep_host;
    use nsc_arch::{KnowledgeBase, MachineConfig, SubsetModel};

    #[test]
    fn simulated_jacobi_matches_the_host_mirror_bit_for_bit() {
        let n = 6;
        let (u0, f, _) = manufactured_problem(n);
        // Run exactly 3 pairs on the NSC (tolerance 0 never converges).
        let mut node = NodeSim::nsc_1988();
        let run =
            run_jacobi_on_node(&mut node, &u0, &f, 0.0, 3, JacobiVariant::Full).expect("runs");
        assert_eq!(run.sweeps, 6);
        assert!(!run.converged);
        // Host mirror: 6 sweeps.
        let mut host = JacobiHostState::new(&u0, &f);
        let mut host_res = 0.0;
        for _ in 0..6 {
            host_res = jacobi_sweep_host(&mut host);
        }
        let host_u = host.current();
        for (a, b) in run.u.data.iter().zip(&host_u.data) {
            assert_eq!(a.to_bits(), b.to_bits(), "simulator and host mirror must agree exactly");
        }
        assert_eq!(run.residual.to_bits(), host_res.to_bits(), "residual reduction matches");
    }

    #[test]
    fn simulated_jacobi_converges_via_the_interrupt_condition() {
        let n = 6;
        let (u0, f, exact) = manufactured_problem(n);
        let mut node = NodeSim::nsc_1988();
        let run =
            run_jacobi_on_node(&mut node, &u0, &f, 1e-9, 2000, JacobiVariant::Full).expect("runs");
        assert!(run.converged, "residual {}", run.residual);
        assert!(run.residual < 1e-9);
        // Converged answer is within discretization error of the exact
        // solution.
        assert!(run.u.linf_diff(&exact) < 0.1, "err {}", run.u.linf_diff(&exact));
        assert!(run.mflops > 0.0);
    }

    #[test]
    fn no_sdu_variant_computes_the_same_answer_more_slowly() {
        let n = 6;
        let (u0, f, _) = manufactured_problem(n);
        let mut full_node = NodeSim::nsc_1988();
        let full =
            run_jacobi_on_node(&mut full_node, &u0, &f, 0.0, 2, JacobiVariant::Full).expect("runs");
        let kb = KnowledgeBase::new(MachineConfig::nsc_1988().subset(SubsetModel::NoSdu));
        let mut nosdu_node = NodeSim::new(kb);
        let nosdu = run_jacobi_on_node(&mut nosdu_node, &u0, &f, 0.0, 2, JacobiVariant::NoSdu)
            .expect("runs");
        for (a, b) in full.u.data.iter().zip(&nosdu.u.data) {
            assert_eq!(a.to_bits(), b.to_bits(), "same arithmetic, same results");
        }
        assert!(
            nosdu.counters.cycles > full.counters.cycles * 3 / 2,
            "copies must cost cycles: {} vs {}",
            nosdu.counters.cycles,
            full.counters.cycles
        );
    }

    #[test]
    fn singlets_only_variant_matches_too() {
        let n = 6;
        let (u0, f, _) = manufactured_problem(n);
        let kb = KnowledgeBase::new(MachineConfig::nsc_1988().subset(SubsetModel::SingletsOnly));
        let mut node = NodeSim::new(kb);
        let run = run_jacobi_on_node(&mut node, &u0, &f, 0.0, 2, JacobiVariant::SingletsOnly)
            .expect("runs");
        let mut host = JacobiHostState::new(&u0, &f);
        for _ in 0..4 {
            jacobi_sweep_host(&mut host);
        }
        let host_u = host.current();
        for (a, b) in run.u.data.iter().zip(&host_u.data) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
    }

    #[test]
    fn flop_accounting_matches_the_operation_count() {
        // Per point per sweep: 5 adds + 2 subs + 2 muls + 1 add + 1 maxabs
        // = 11 flops (copies are not flops).
        let n = 6;
        let (u0, f, _) = manufactured_problem(n);
        let mut node = NodeSim::nsc_1988();
        let run =
            run_jacobi_on_node(&mut node, &u0, &f, 0.0, 1, JacobiVariant::Full).expect("runs");
        let geo = JacobiGeometry::cube(n);
        // Streams run over the padded length; invalid slots produce no
        // flops for units fed by warm-up, but units fed by always-valid
        // storage streams (mask, g) fire on every slot they see. Bound it:
        let per_sweep_min = 11 * geo.points as u64;
        let per_sweep_max = 11 * geo.padded as u64;
        assert!(
            run.counters.flops >= 2 * per_sweep_min && run.counters.flops <= 2 * per_sweep_max,
            "flops {} outside [{}, {}]",
            run.counters.flops,
            2 * per_sweep_min,
            2 * per_sweep_max
        );
    }
}
