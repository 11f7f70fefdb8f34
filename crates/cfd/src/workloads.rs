//! The solver entry points as reusable [`Workload`] implementations.
//!
//! Each workload owns a complete problem statement and knows how to run
//! itself through a [`Session`] on a [`NodeSim`], returning `Err` instead
//! of panicking at every stage — the shape batch harnesses, benchmarks and
//! examples share:
//!
//! * [`JacobiWorkload`] — the paper's running example on the simulated
//!   NSC (Equation 1, Figures 2 and 11);
//! * [`SorWorkload`] — the host SOR baseline the paper's ref. \[6\]
//!   compares against;
//! * [`MultigridWorkload`] — the ref. \[6\] V-cycle on the host, with the
//!   NSC-simulated smoothing cost measured on the node (the kernel that
//!   dominates multigrid's machine time).

use crate::diagrams::JacobiVariant;
use crate::grid::{check_problem, Grid3};
use crate::host::{residual_linf, sor_sweep_host};
use crate::multigrid::{vcycle, MgOptions, MgStats};
use crate::nsc_run::{run_jacobi, JacobiRun};
use nsc_core::{NscError, Session, Workload};
use nsc_sim::NodeSim;

/// Point Jacobi for the 3-D Poisson problem on the simulated NSC.
#[derive(Debug, Clone)]
pub struct JacobiWorkload {
    /// Initial iterate (also fixes the grid size).
    pub u0: Grid3,
    /// Right-hand side.
    pub f: Grid3,
    /// Residual convergence tolerance.
    pub tol: f64,
    /// Cap on ping-pong sweep pairs.
    pub max_pairs: u32,
    /// Which pipeline construction to use.
    pub variant: JacobiVariant,
}

impl Workload for JacobiWorkload {
    type Report = JacobiRun;

    fn name(&self) -> String {
        format!("jacobi-poisson {}^3 ({:?})", self.u0.nx, self.variant)
    }

    fn execute(&self, session: &Session, node: &mut NodeSim) -> Result<JacobiRun, NscError> {
        // The document is compiled by `session` but executes on `node`:
        // refuse when the two describe different machines, or the program
        // would target hardware the node does not have.
        if session.kb().config() != node.kb.config() {
            return Err(NscError::Workload(format!(
                "session machine '{}' and node machine '{}' differ",
                session.kb().config().name,
                node.kb.config().name
            )));
        }
        run_jacobi(session, node, &self.u0, &self.f, self.tol, self.max_pairs, self.variant)
    }
}

/// Outcome of a host SOR solve.
#[derive(Debug, Clone)]
pub struct SorRun {
    /// The final iterate.
    pub u: Grid3,
    /// Final L∞ residual.
    pub residual: f64,
    /// Sweeps executed.
    pub sweeps: usize,
    /// Whether the tolerance (not the sweep cap) ended it.
    pub converged: bool,
}

/// Successive over-relaxation on the host — the paper-era baseline the
/// NSC runs are compared against. The node is untouched.
#[derive(Debug, Clone)]
pub struct SorWorkload {
    /// Initial iterate.
    pub u0: Grid3,
    /// Right-hand side.
    pub f: Grid3,
    /// Relaxation factor, in `(0, 2)` for convergence.
    pub omega: f64,
    /// Residual convergence tolerance.
    pub tol: f64,
    /// Cap on sweeps.
    pub max_sweeps: usize,
}

impl Workload for SorWorkload {
    type Report = SorRun;

    fn name(&self) -> String {
        format!("sor {}x{}x{} omega={}", self.u0.nx, self.u0.ny, self.u0.nz, self.omega)
    }

    fn execute(&self, _session: &Session, _node: &mut NodeSim) -> Result<SorRun, NscError> {
        if !(0.0..2.0).contains(&self.omega) || self.omega == 0.0 {
            return Err(NscError::Workload(format!(
                "SOR diverges outside 0 < omega < 2 (got {})",
                self.omega
            )));
        }
        check_problem(&self.u0, &self.f)?;
        let mut u = self.u0.clone();
        let mut residual = residual_linf(&u, &self.f);
        let mut sweeps = 0;
        let mut converged = residual < self.tol;
        while !converged && sweeps < self.max_sweeps {
            residual = sor_sweep_host(&mut u, &self.f, self.omega);
            sweeps += 1;
            converged = residual < self.tol;
        }
        Ok(SorRun { u, residual, sweeps, converged })
    }
}

/// Outcome of a multigrid solve with its NSC smoothing-cost measurement.
#[derive(Debug, Clone)]
pub struct MultigridRun {
    /// The final iterate.
    pub u: Grid3,
    /// Work/quality accounting of the V-cycles.
    pub stats: MgStats,
    /// Final L∞ residual.
    pub residual: f64,
    /// Whether the tolerance (not the cycle cap) ended it.
    pub converged: bool,
    /// The NSC-simulated smoothing kernel run used for cost estimation.
    pub smoothing: JacobiRun,
    /// Estimated simulated-NSC seconds to tolerance: fine-grid-equivalent
    /// sweeps times the measured per-sweep cost.
    pub est_seconds: f64,
}

/// The ref. \[6\] multigrid V-cycle, with the Jacobi smoothing kernel that
/// dominates its cost measured on the simulated node.
#[derive(Debug, Clone)]
pub struct MultigridWorkload {
    /// Initial iterate; the grid must be `2^m + 1` points per side.
    pub u0: Grid3,
    /// Right-hand side.
    pub f: Grid3,
    /// Residual convergence tolerance.
    pub tol: f64,
    /// Cap on V-cycles.
    pub max_cycles: usize,
    /// Cycle shape and smoothing parameters.
    pub opts: MgOptions,
}

impl Workload for MultigridWorkload {
    type Report = MultigridRun;

    fn name(&self) -> String {
        format!("multigrid V({},{}) {}^3", self.opts.nu1, self.opts.nu2, self.u0.nx)
    }

    fn execute(&self, session: &Session, node: &mut NodeSim) -> Result<MultigridRun, NscError> {
        let n = self.u0.nx;
        if n != self.u0.ny || n != self.u0.nz || n < 2 || !(n - 1).is_power_of_two() {
            return Err(NscError::Workload(format!(
                "multigrid wants a cubic 2^m + 1 grid, got {}x{}x{}",
                self.u0.nx, self.u0.ny, self.u0.nz
            )));
        }
        check_problem(&self.u0, &self.f)?;
        let mut u = self.u0.clone();
        let stats = vcycle(&mut u, &self.f, self.tol, self.max_cycles, &self.opts);
        let residual = stats.residual_history.last().copied().unwrap_or(f64::INFINITY);
        let converged = residual < self.tol;

        // Measure the smoothing kernel on the simulated machine: one
        // ping-pong pair of fine-grid Jacobi sweeps.
        let smoother = JacobiWorkload {
            u0: self.u0.clone(),
            f: self.f.clone(),
            tol: 0.0,
            max_pairs: 1,
            variant: JacobiVariant::Full,
        };
        let smoothing = smoother.execute(session, node)?;
        let clock_hz = node.kb.config().clock_hz;
        let per_sweep = smoothing.counters.seconds(clock_hz) / smoothing.sweeps.max(1) as f64;
        let est_seconds = stats.fine_equivalent_sweeps * per_sweep;
        Ok(MultigridRun { u, stats, residual, converged, smoothing, est_seconds })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::grid::manufactured_problem;

    #[test]
    fn jacobi_workload_runs_through_a_session() {
        let (u0, f, exact) = manufactured_problem(6);
        let w = JacobiWorkload { u0, f, tol: 1e-9, max_pairs: 2000, variant: JacobiVariant::Full };
        let session = Session::nsc_1988();
        let mut node = session.node();
        let run = w.execute(&session, &mut node).expect("executes");
        assert!(run.converged);
        assert!(run.u.linf_diff(&exact) < 0.1);
        assert!(w.name().contains("jacobi"));
    }

    #[test]
    fn jacobi_workload_rejects_mismatched_machines() {
        let (u0, f, _) = manufactured_problem(6);
        let w = JacobiWorkload { u0, f, tol: 0.0, max_pairs: 1, variant: JacobiVariant::Full };
        let mut revised = nsc_arch::MachineConfig::nsc_1988();
        revised.name = "revised".into();
        let mut node = Session::new(revised).node();
        let err = w.execute(&Session::nsc_1988(), &mut node).unwrap_err();
        assert!(matches!(err, NscError::Workload(_)), "{err}");
    }

    #[test]
    fn sor_workload_converges_without_touching_the_node() {
        let (u0, f, exact) = manufactured_problem(9);
        let w = SorWorkload { u0, f, omega: 1.5, tol: 1e-8, max_sweeps: 10_000 };
        let session = Session::nsc_1988();
        let mut node = session.node();
        let run = w.execute(&session, &mut node).expect("executes");
        assert!(run.converged, "residual {}", run.residual);
        assert!(run.u.linf_diff(&exact) < 0.1);
        assert_eq!(node.counters.cycles, 0, "host baseline leaves the node idle");
    }

    #[test]
    fn sor_workload_rejects_divergent_omega() {
        let (u0, f, _) = manufactured_problem(5);
        let w = SorWorkload { u0, f, omega: 2.5, tol: 1e-8, max_sweeps: 10 };
        let session = Session::nsc_1988();
        let mut node = session.node();
        assert!(matches!(w.execute(&session, &mut node), Err(NscError::Workload(_))));
    }

    #[test]
    fn multigrid_workload_solves_and_prices_the_smoother() {
        let (u0, f, exact) = manufactured_problem(9); // 2^3 + 1
        let w = MultigridWorkload { u0, f, tol: 1e-8, max_cycles: 50, opts: MgOptions::default() };
        let session = Session::nsc_1988();
        let mut node = session.node();
        let run = w.execute(&session, &mut node).expect("executes");
        assert!(run.converged, "residual {}", run.residual);
        assert!(run.u.linf_diff(&exact) < 0.1);
        assert!(run.est_seconds > 0.0);
        assert!(run.smoothing.counters.cycles > 0, "smoother measured on the node");
    }

    #[test]
    fn multigrid_workload_rejects_non_power_of_two_grids() {
        let (u0, f, _) = manufactured_problem(8); // 8 - 1 = 7: not 2^m
        let w = MultigridWorkload { u0, f, tol: 1e-8, max_cycles: 5, opts: MgOptions::default() };
        let session = Session::nsc_1988();
        let mut node = session.node();
        assert!(matches!(w.execute(&session, &mut node), Err(NscError::Workload(_))));
    }
}
