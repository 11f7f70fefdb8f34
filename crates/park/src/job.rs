//! Jobs: whole workloads packaged for the park's queue.
//!
//! A [`Job`] is what a tenant submits: a name, a requested sub-cube
//! dimension, an arrival time on the park's simulated clock, and a
//! [`JobPayload`] — the workload itself, expressed against the leased
//! sub-system exactly as it would run standalone. The four distributed
//! CFD workloads implement [`JobPayload`] directly, so a Jacobi, SOR,
//! multigrid or cavity problem drops into the queue unchanged; any
//! `Fn(&Session, &mut NscSystem)` closure works too.

use nsc_cert::CompileCertificate;
use nsc_core::{NscError, Session};
use nsc_sim::NscSystem;
use std::sync::Arc;

/// Identifies a submitted job within its park (dense, submission-ordered).
pub type JobId = usize;

/// What a payload hands back when it finishes: the solution bits for
/// audits, plus its own convergence figure. Timing and counters are the
/// *park's* job — it reads them off the fresh nodes it ran the payload
/// on, so payloads cannot mis-report their usage.
#[derive(Debug, Clone)]
pub struct JobOutcome {
    /// Final residual (or other convergence figure) of the solve.
    pub residual: f64,
    /// The result field, flattened — bit-compared against a standalone
    /// run of the same workload in the park's identity audits.
    pub grid: Vec<f64>,
    /// The residual after each iteration (sweep pair, sweep, V-cycle or
    /// time step), in order — the convergence trace ensemble reports
    /// aggregate. Empty when the payload keeps no trace.
    pub history: Vec<f64>,
    /// Whether the payload's own convergence criterion (not an iteration
    /// cap) ended the run. Payloads without a criterion report `true` —
    /// their failures surface as errors instead.
    pub converged: bool,
    /// The sealed compile certificates the job's compiles emitted,
    /// stamped with the job's sub-cube lease. Filled in by the *park*
    /// from the job's certificate log — payloads never touch this, so
    /// a payload cannot launder its own certificates.
    pub certificates: Vec<Arc<CompileCertificate>>,
}

impl JobOutcome {
    /// A converged outcome with no iteration trace; attach one with
    /// [`JobOutcome::with_history`] / [`JobOutcome::with_converged`].
    pub fn new(residual: f64, grid: Vec<f64>) -> Self {
        JobOutcome {
            residual,
            grid,
            history: Vec::new(),
            converged: true,
            certificates: Vec::new(),
        }
    }

    /// Attach the per-iteration residual trace (builder style).
    pub fn with_history(mut self, history: Vec<f64>) -> Self {
        self.history = history;
        self
    }

    /// Record whether the run actually converged (builder style).
    pub fn with_converged(mut self, converged: bool) -> Self {
        self.converged = converged;
        self
    }
}

/// A workload the park can run on a leased sub-system.
///
/// The payload sees a plain [`NscSystem`] of its requested dimension —
/// freshly wiped nodes, standard topology — and cannot tell it is a
/// carve-out of a bigger machine; that is what makes park results
/// bit-identical to standalone runs.
pub trait JobPayload: Send + Sync {
    /// Human-readable workload name for queue listings and reports.
    fn name(&self) -> String;

    /// Execute on the leased sub-system. The park calls this from one of
    /// its worker threads; a panic fails this job only.
    fn run(&self, session: &Session, system: &mut NscSystem) -> Result<JobOutcome, NscError>;
}

impl JobPayload for nsc_cfd::DistributedJacobiWorkload {
    fn name(&self) -> String {
        nsc_core::Workload::name(self)
    }

    fn run(&self, session: &Session, system: &mut NscSystem) -> Result<JobOutcome, NscError> {
        let r = nsc_core::Workload::execute(self, session, system)?;
        Ok(JobOutcome::new(r.residual, r.u.data)
            .with_history(r.residual_history)
            .with_converged(r.converged))
    }
}

impl JobPayload for nsc_cfd::DistributedSorWorkload {
    fn name(&self) -> String {
        nsc_core::Workload::name(self)
    }

    fn run(&self, session: &Session, system: &mut NscSystem) -> Result<JobOutcome, NscError> {
        let r = nsc_core::Workload::execute(self, session, system)?;
        Ok(JobOutcome::new(r.residual, r.u.data)
            .with_history(r.residual_history)
            .with_converged(r.converged))
    }
}

impl JobPayload for nsc_cfd::DistributedMultigridWorkload {
    fn name(&self) -> String {
        nsc_core::Workload::name(self)
    }

    fn run(&self, session: &Session, system: &mut NscSystem) -> Result<JobOutcome, NscError> {
        let r = nsc_core::Workload::execute(self, session, system)?;
        Ok(JobOutcome::new(r.residual, r.u.data)
            .with_history(r.stats.residual_history.clone())
            .with_converged(r.converged))
    }
}

impl JobPayload for nsc_cfd::CavityWorkload {
    fn name(&self) -> String {
        nsc_core::Workload::name(self)
    }

    fn run(&self, session: &Session, system: &mut NscSystem) -> Result<JobOutcome, NscError> {
        let r = nsc_core::Workload::execute(self, session, system)?;
        // Both fields matter for identity: ψ drives the velocities, ω the
        // transport.
        let mut grid = r.psi.data;
        grid.extend_from_slice(&r.omega.data);
        // A cavity run that returns at all converged every ψ-solve and
        // kept the vorticity finite; divergence surfaces as an error.
        Ok(JobOutcome::new(r.last_residual, grid).with_history(r.residual_history))
    }
}

impl<F> JobPayload for F
where
    F: Fn(&Session, &mut NscSystem) -> Result<JobOutcome, NscError> + Send + Sync,
{
    fn name(&self) -> String {
        "custom".into()
    }

    fn run(&self, session: &Session, system: &mut NscSystem) -> Result<JobOutcome, NscError> {
        self(session, system)
    }
}

/// One queue entry: who wants what run, on how many nodes, from when.
#[derive(Clone)]
pub struct Job {
    /// The submitting tenant (fair-share and usage accounting key).
    pub tenant: String,
    /// Requested sub-cube dimension: the job runs on `2^dim` nodes.
    pub dim: u32,
    /// Arrival time on the park's simulated clock, in seconds; the park
    /// refuses a non-finite one at submission.
    pub submit_at: f64,
    payload: Arc<dyn JobPayload>,
}

impl Job {
    /// A job arriving at time zero.
    pub fn new(tenant: impl Into<String>, dim: u32, payload: impl JobPayload + 'static) -> Self {
        Job { tenant: tenant.into(), dim, submit_at: 0.0, payload: Arc::new(payload) }
    }

    /// A job over an already-shared payload — for heterogeneous job
    /// lists (`Vec<Arc<dyn JobPayload>>`) where `impl JobPayload` won't
    /// unify.
    pub fn from_shared(tenant: impl Into<String>, dim: u32, payload: Arc<dyn JobPayload>) -> Self {
        Job { tenant: tenant.into(), dim, submit_at: 0.0, payload }
    }

    /// Set the arrival time on the park's simulated clock.
    pub fn arriving_at(mut self, t: f64) -> Self {
        self.submit_at = t;
        self
    }

    /// Nodes the job asks for.
    pub fn nodes(&self) -> usize {
        1usize << self.dim
    }

    /// The payload's workload name.
    pub fn name(&self) -> String {
        self.payload.name()
    }

    pub(crate) fn payload(&self) -> &Arc<dyn JobPayload> {
        &self.payload
    }
}

impl std::fmt::Debug for Job {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Job")
            .field("tenant", &self.tenant)
            .field("dim", &self.dim)
            .field("submit_at", &self.submit_at)
            .field("name", &self.name())
            .finish()
    }
}
