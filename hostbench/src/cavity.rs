//! `cavity-ensemble`: a shared facility serving many short jobs. One
//! operation is one `Sweep::run` of 36 lid-driven-cavity members (Matyka,
//! physics/0407002) on a 17² grid, one node each, over a fresh 2-node
//! `MachinePark` with a fresh session, backfill scheduling and every
//! job's certificates audited at retire.
//!
//! The seed jitters the Reynolds numbers and lid speeds and orders the
//! step counts (see [`draw_sweep`]).

use crate::harness::Workload;
use crate::stats::{shuffle, Series};
use crate::trace::Cx;
use nsc::arch::HypercubeConfig;
use nsc::cert::{verify, Expected, MachineLimits};
use nsc::cfd::{CavityRun, CavityWorkload};
use nsc::ensemble::{EnsembleReport, ParamPoint, Sweep};
use nsc::env::certify::machine_limits;
use nsc::env::{NscError, Session, Workload as _};
use nsc::park::{Job, JobOutcome, MachinePark, SchedPolicy};
use nsc::sim::NscSystem;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Grid points per side.
pub const GRID: usize = 17;
/// Park dimension: 2 nodes.
const PARK_DIM: u32 = 1;
/// Reynolds-number centres; each member value lies within 10% of one.
const RE: [f64; 4] = [15.0, 40.0, 100.0, 250.0];
/// Lid-speed centres; each member value lies within 0.05 of one.
const LID: [f64; 3] = [0.7, 1.0, 1.3];
/// Time steps per member; the seed only orders them.
const STEPS: [f64; 3] = [1.0, 2.0, 3.0];

/// The seeded 4 × 3 × 3 sweep. The seed jitters every Reynolds number
/// and lid speed around a fixed centre and orders the step counts, so
/// members differ per seed while the work per operation stays close.
pub fn draw_sweep(seed: u64) -> Sweep {
    let mut rng = StdRng::seed_from_u64(seed);
    let re: Vec<f64> = RE.iter().map(|c| c * rng.random_range(0.9..1.1)).collect();
    let lid: Vec<f64> = LID.iter().map(|c| c + rng.random_range(-0.05..0.05)).collect();
    let mut steps = STEPS.to_vec();
    shuffle(&mut steps, &mut rng);
    Sweep::new("cavity ensemble").axis("re", re).axis("steps", steps).axis("lid", lid)
}

/// The reference answer of one member.
#[derive(Debug, Clone, PartialEq)]
pub struct MemberResult {
    /// The member's error, if it failed.
    pub error: Option<String>,
    /// Its final ψ-solve residual.
    pub residual: f64,
    /// ψ then ω, flattened.
    pub grid: Vec<f64>,
}

/// The park payload's view of a cavity run: ψ then ω, flattened (the
/// same outcome the park's own cavity payload returns).
fn outcome(r: CavityRun) -> JobOutcome {
    let mut grid = r.psi.data;
    grid.extend_from_slice(&r.omega.data);
    JobOutcome::new(r.last_residual, grid).with_history(r.residual_history)
}

/// Bit-compare every member with its standalone reference, in member
/// order; failed members fail the check.
pub fn check_members(got: &[MemberResult], reference: &[MemberResult]) -> Result<(), String> {
    if got.len() != reference.len() {
        return Err(format!("{} members ran, {} expected", got.len(), reference.len()));
    }
    for (i, (g, r)) in got.iter().zip(reference).enumerate() {
        if let Some(e) = &g.error {
            return Err(format!("member {i} failed: {e}"));
        }
        let same = g.grid.len() == r.grid.len()
            && g.grid.iter().zip(&r.grid).all(|(a, b)| a.to_bits() == b.to_bits());
        if !same || g.residual.to_bits() != r.residual.to_bits() {
            return Err(format!("member {i} differs from its standalone run"));
        }
    }
    Ok(())
}

/// The workload state.
pub struct CavityEnsemble {
    sweep: Sweep,
    grid: usize,
    limits: MachineLimits,
    reference: Vec<MemberResult>,
}

/// What a sweep hands to its check.
pub struct Ran {
    report: EnsembleReport,
    /// Kept until the check (which reads the members' outcomes), so
    /// tearing it down is not timed.
    park: MachinePark,
}

impl CavityEnsemble {
    /// `sweep` over cavities of `grid` points per side.
    pub fn from_sweep(sweep: Sweep, grid: usize) -> CavityEnsemble {
        let limits = machine_limits(Session::nsc_1988().kb().config());
        CavityEnsemble { sweep, grid, limits, reference: Vec::new() }
    }

    fn member(&self, p: &ParamPoint) -> CavityWorkload {
        CavityWorkload::new(self.grid, p.value("re"), p.value("steps") as usize)
            .with_lid(p.value("lid"))
    }
}

impl Workload for CavityEnsemble {
    type Out = Ran;
    const ITEM: &'static str = "members";
    const PREDICTED: &'static [&'static str] = &["cfd.member", "ensemble.run"];
    const THREADS: usize = 2;

    fn setup(seed: u64) -> Result<Self, String> {
        let mut w = CavityEnsemble::from_sweep(draw_sweep(seed), GRID);
        w.op()?;
        Ok(w)
    }

    /// Every member standalone on its own 1-node machine with the fast
    /// path off (the interpreter is the reference the kernels must equal).
    fn oracle(&mut self) -> Result<(), String> {
        let session = Session::nsc_1988().with_fast_path(false);
        self.reference = self
            .sweep
            .points()
            .iter()
            .map(|p| {
                let mut system = NscSystem::new(HypercubeConfig::new(0), session.kb());
                let o = outcome(self.member(p).execute(&session, &mut system)?);
                Ok(MemberResult { error: None, residual: o.residual, grid: o.grid })
            })
            .collect::<Result<_, NscError>>()
            .map_err(|e| format!("standalone reference run failed: {e}"))?;
        Ok(())
    }

    fn items(&self) -> f64 {
        self.sweep.member_count() as f64
    }

    fn op(&mut self) -> Result<Ran, String> {
        let mut park = MachinePark::new(Session::nsc_1988(), PARK_DIM).with_audit_fraction(1.0);
        let report = self
            .sweep
            .run(&mut park, SchedPolicy::Backfill, |p| Ok(Job::new("ensemble", 0, self.member(p))))
            .map_err(|e| e.to_string())?;
        Ok(Ran { report, park })
    }

    fn traced_op(&mut self, cx: &Cx) -> Result<Ran, String> {
        let session = cx.span("core.session_new", |_| Session::nsc_1988());
        let mut park =
            cx.span("park.new", |_| MachinePark::new(session, PARK_DIM).with_audit_fraction(1.0));
        let report = cx
            .span("ensemble.run", |run| {
                self.sweep.run(&mut park, SchedPolicy::Backfill, |p| {
                    run.span("ensemble.make", |_| {
                        let (w, cx) = (self.member(p), run.clone());
                        // The park calls in here, on the lease's thread.
                        let payload = move |session: &Session, system: &mut NscSystem| {
                            cx.span("cfd.member", |_| w.execute(session, system).map(outcome))
                        };
                        Ok(Job::new("ensemble", 0, payload))
                    })
                })
            })
            .map_err(|e| e.to_string())?;
        Ok(Ran { report, park })
    }

    fn check(
        &mut self,
        out: Ran,
        _latency: f64,
        cx: Option<&Cx>,
        series: &mut Series,
    ) -> Result<(), String> {
        let Ran { report, park } = out;
        let got: Vec<MemberResult> = report
            .members
            .iter()
            .map(|m| {
                let grid = park.outcome(m.job).map(|o| o.grid.clone()).unwrap_or_default();
                MemberResult { error: m.error.clone(), residual: m.residual, grid }
            })
            .collect();
        check_members(&got, &self.reference)?;
        if let Some(m) = report.members.iter().find(|m| m.certificates.is_empty()) {
            return Err(format!("member {} carries no certificate", m.index));
        }
        if report.audited_jobs != report.members.len() {
            return Err(format!(
                "the park audited {} of {} jobs",
                report.audited_jobs,
                report.members.len()
            ));
        }
        let expected = Expected { machine: Some(self.limits.clone()), ..Expected::default() };
        let audit = || -> Result<(usize, usize), String> {
            let (mut certs, mut obligations) = (0, 0);
            for cert in report.members.iter().flat_map(|m| &m.certificates) {
                obligations += verify(cert, &expected).map_err(|v| v.to_string())?.obligations;
                certs += 1;
            }
            Ok((certs, obligations))
        };
        let (certs, obligations) = match cx {
            Some(cx) => cx.span("cert.verify", |_| audit()),
            None => audit(),
        }?;
        series.add("cert.certs", certs as f64);
        series.add("cert.obligations", obligations as f64);
        series.add("park.utilization", report.utilization);
        series.add("core.cache_hits", report.cache.hits as f64);
        series.add("core.cache_rebinds", report.cache.rebinds as f64);
        series.add("core.cache_misses", report.cache.misses as f64);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> CavityEnsemble {
        let sweep =
            Sweep::new("t").axis("re", [20.0, 100.0]).axis("steps", [2.0]).axis("lid", [1.0]);
        let mut w = CavityEnsemble::from_sweep(sweep, 9);
        w.oracle().unwrap();
        w
    }

    #[test]
    fn the_sweep_is_seeded_and_has_36_members() {
        let values = |s: &Sweep| -> Vec<(f64, f64, f64)> {
            s.points().iter().map(|p| (p.value("re"), p.value("steps"), p.value("lid"))).collect()
        };
        let a = draw_sweep(1);
        assert_eq!(a.member_count(), 36);
        assert_eq!(values(&a), values(&draw_sweep(1)));
        assert_ne!(values(&a), values(&draw_sweep(2)));
        assert_eq!(values(&a).iter().map(|v| v.1).sum::<f64>(), 12.0 * 6.0);
    }

    #[test]
    fn both_paths_match_the_standalone_runs() {
        let mut w = small();
        let tracer = crate::trace::Tracer::new();
        let mut series = Series::default();
        let out = w.op().unwrap();
        w.check(out, 0.0, None, &mut series).unwrap();
        let cx = tracer.op(0);
        let out = w.traced_op(&cx).unwrap();
        w.check(out, 0.0, Some(&cx), &mut series).unwrap();
        let names: Vec<_> = tracer.spans().iter().map(|s| s.name).collect();
        assert_eq!(names.iter().filter(|&&n| n == "cfd.member").count(), 2);
        assert!(names.contains(&"cert.verify"));
        assert!(series.values("cert.certs").iter().all(|&c| c > 0.0));
    }

    #[test]
    fn corrupted_or_failed_members_fail_the_check() {
        let w = small();
        let good = w.reference.clone();
        check_members(&good, &w.reference).unwrap();
        let mut flipped = good.clone();
        flipped[1].grid[5] = f64::from_bits(flipped[1].grid[5].to_bits() ^ 1);
        assert!(check_members(&flipped, &w.reference).is_err());
        let mut failed = good.clone();
        failed[0].error = Some("diverged".into());
        assert!(check_members(&failed, &w.reference).is_err());
        assert!(check_members(&good[..1], &w.reference).is_err());
        let mut residual = good;
        residual[0].residual += 1.0;
        assert!(check_members(&residual, &w.reference).is_err());
    }
}
