//! The machine park itself: one simulated NSC shared by many jobs.
//!
//! [`MachinePark`] owns the physical machine as a buddy
//! [`SubCubeAllocator`] over its nodes. [`MachinePark::run`] first
//! host-executes every waiting job, then replays the results through a
//! deterministic event loop on a simulated park clock:
//!
//! 1. **Execute** — a small worker pool (one worker per host CPU, never
//!    more than the park has nodes) takes the waiting jobs in submission
//!    order and runs each on a fresh [`NscSystem`] of the job's
//!    dimension: wiped planes and caches, tenant isolation like any
//!    shared facility. Every job compiles through a clone of the park's
//!    [`Session`] — one compiled-kernel cache, so the same sweep document
//!    compiles once no matter how many tenants submit it — that records
//!    into a certificate log of its own. The park reads the job's usage
//!    off its nodes' counters, so payloads cannot mis-report, and a
//!    panicking payload fails its own job, not the run.
//! 2. **Admit** — the [`SchedPolicy`] picks which arrived jobs start on
//!    the free capacity (probed against a clone of the allocator).
//! 3. **Lease** — each admitted job is allocated its sub-cube, and its
//!    certificates are stamped with it.
//! 4. **Advance** — each job's simulated duration is its critical-path
//!    node's compute-plus-unhidden-communication time; the park clock
//!    jumps to the next completion or arrival, completed leases free
//!    their sub-cubes (spot-auditing certificates on the way out), and
//!    admission runs again.
//!
//! Because an aligned sub-cube of a hypercube is itself a hypercube
//! (local address `i` is physical node `base | i`, and XOR distances
//! never touch the shared high bits), a job's sweep schedule, hop
//! counts, and router charges inside its lease are exactly those of a
//! standalone machine of the same size — which is what the job runs on.
//! A job's outcome and counters therefore depend only on its inputs, so
//! executing it ahead of the schedule changes no figure, and park
//! results are bit-identical to standalone runs by construction, which
//! the integration tests assert workload by workload.

use nsc_arch::{HypercubeConfig, SubCube, SubCubeAllocator};
use nsc_cert::{verify, Expected, LeaseCert};
use nsc_core::{certify::machine_limits, NscError, Session};
use nsc_sim::{NscSystem, PerfCounters};
use std::any::Any;
use std::collections::HashMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use crate::job::{Job, JobId, JobOutcome};
use crate::queue::JobQueue;
use crate::report::{JobReport, ParkReport};
use crate::sched::{Candidate, SchedPolicy};

/// One job's host execution, done before the virtual-time loop starts:
/// everything the schedule needs, none of it dependent on when or where
/// the job is leased.
struct Executed {
    /// Merged counters across the job's nodes (parallel `absorb`).
    counters: PerfCounters,
    simulated_seconds: f64,
    /// The payload's result (certificates not yet stamped with a lease)
    /// or its error as the report prints it.
    outcome: Result<JobOutcome, String>,
}

/// One job holding a lease, waiting for the park clock to reach its
/// simulated completion time. Its host execution already happened
/// before the schedule started.
struct RunningJob {
    id: JobId,
    subcube: SubCube,
    started_at: f64,
    end: f64,
    run: Executed,
}

/// A multi-tenant job service over one simulated NSC.
///
/// # Example
///
/// Two tenants share a 2-node machine; each job runs on a leased 1-node
/// sub-cube and the park reports per-job and aggregate figures:
///
/// ```
/// use nsc_core::Session;
/// use nsc_park::{Job, MachinePark, SchedPolicy};
///
/// let (u0, f, _) = nsc_cfd::grid::manufactured_problem(5);
/// let auto = nsc_cfd::PartitionSpec::Auto;
/// let jacobi = nsc_cfd::DistributedJacobiWorkload::new(u0, f, 1e-3, 50, auto);
///
/// let mut park = MachinePark::new(Session::nsc_1988(), 1); // 2 nodes
/// park.submit(Job::new("ada", 0, jacobi.clone()))?;
/// park.submit(Job::new("grace", 0, jacobi))?;
///
/// let report = park.run(SchedPolicy::Fifo)?;
/// assert_eq!(report.jobs.len(), 2);
/// assert_eq!(report.failed, 0);
/// // Both 1-node jobs fit at once, so neither waited in the queue.
/// assert!(report.jobs.iter().all(|j| j.queue_wait == 0.0));
/// assert!(report.utilization > 0.0 && report.utilization <= 1.0);
/// # Ok::<(), nsc_core::NscError>(())
/// ```
pub struct MachinePark {
    session: Session,
    cube: HypercubeConfig,
    alloc: SubCubeAllocator,
    queue: JobQueue,
    clock_hz: u64,
    /// Completed jobs' solution bits, kept for identity audits.
    outcomes: HashMap<JobId, JobOutcome>,
    /// Fraction of retiring jobs whose certificates get re-verified.
    audit_fraction: f64,
}

impl MachinePark {
    /// A park over a fresh dimension-`dim` machine (`2^dim` nodes) for
    /// the session's machine description.
    pub fn new(session: Session, dim: u32) -> Self {
        let cube = HypercubeConfig::new(dim);
        let alloc = SubCubeAllocator::new(&cube);
        let clock_hz = session.kb().config().clock_hz;
        MachinePark {
            session,
            cube,
            alloc,
            queue: JobQueue::new(),
            clock_hz,
            outcomes: HashMap::new(),
            audit_fraction: 0.0,
        }
    }

    /// Spot-audit policy: re-verify the compile certificates of (roughly)
    /// this fraction of retiring jobs through `nsc_cert::verify`, pinned
    /// to this park's machine limits. `0.0` (the default) audits nothing,
    /// `1.0` audits every job. Selection is deterministic — job ids at a
    /// fixed stride of `round(1 / fraction)` — so the same submissions
    /// audit the same jobs on every run. Any rejected certificate fails
    /// the whole [`MachinePark::run`] with the verifier's violation: a
    /// bad certificate in a shared facility is an integrity event, not a
    /// per-job footnote.
    pub fn with_audit_fraction(mut self, fraction: f64) -> Self {
        self.audit_fraction = fraction.clamp(0.0, 1.0);
        self
    }

    /// The configured spot-audit fraction.
    pub fn audit_fraction(&self) -> f64 {
        self.audit_fraction
    }

    /// Whether the deterministic spot-audit policy selects this job.
    fn audits(&self, id: JobId) -> bool {
        if self.audit_fraction <= 0.0 {
            return false;
        }
        let stride = (1.0 / self.audit_fraction).round().max(1.0) as usize;
        id.is_multiple_of(stride)
    }

    /// The machine's node count.
    pub fn capacity_nodes(&self) -> usize {
        self.cube.nodes()
    }

    /// The session every job compiles through (shared kernel cache).
    pub fn session(&self) -> &Session {
        &self.session
    }

    /// Why this park cannot queue `job`, if it cannot: a bigger cube than
    /// the machine has, or an arrival time the park clock never reaches.
    fn refusal(&self, job: &Job) -> Option<String> {
        if job.dim > self.cube.dimension {
            Some(format!(
                "job '{}' wants a dimension-{} sub-cube but the park machine is dimension {}",
                job.name(),
                job.dim,
                self.cube.dimension
            ))
        } else if !job.submit_at.is_finite() {
            Some(format!(
                "job '{}' arrives at t = {}, which the park clock never reaches",
                job.name(),
                job.submit_at
            ))
        } else {
            None
        }
    }

    /// Queue a job. Fails when the job asks for a bigger cube than the
    /// machine has, or arrives at a non-finite time.
    pub fn submit(&mut self, job: Job) -> Result<JobId, NscError> {
        match self.refusal(&job) {
            Some(why) => Err(NscError::Workload(why)),
            None => Ok(self.queue.submit(job)),
        }
    }

    /// Queue a whole batch, in order, returning the ids in submission
    /// order. All-or-nothing: the first job [`MachinePark::submit`] would
    /// refuse rejects the batch and nothing is queued — the batched path
    /// sweep engines use to place an ensemble's members atomically.
    pub fn submit_batch(
        &mut self,
        jobs: impl IntoIterator<Item = Job>,
    ) -> Result<Vec<JobId>, NscError> {
        let jobs: Vec<Job> = jobs.into_iter().collect();
        if let Some(why) = jobs.iter().find_map(|j| self.refusal(j)) {
            return Err(NscError::Workload(format!("batch {why}; nothing was queued")));
        }
        Ok(jobs.into_iter().map(|j| self.queue.submit(j)).collect())
    }

    /// Run every queued job to completion under `policy` and report.
    ///
    /// Deterministic: the same submissions under the same policy produce
    /// bit-identical job results and figures, which is what lets the
    /// perf gate commit scheduler throughput and utilization baselines.
    pub fn run(&mut self, policy: SchedPolicy) -> Result<ParkReport, NscError> {
        // 1. Execute every waiting job on the host before the schedule.
        let mut executed = self.execute_waiting();
        let mut now = 0.0f64;
        let mut running: Vec<RunningJob> = Vec::new();
        // tenant -> node-seconds (the fair-share key).
        let mut share: HashMap<String, f64> = HashMap::new();
        // tenant -> (jobs completed, node-seconds) for the report.
        let mut usage: HashMap<String, (usize, f64)> = HashMap::new();
        let mut reports: Vec<JobReport> = Vec::new();
        // Spot-audit tally: (jobs audited, certificates verified).
        let mut audited = (0usize, 0usize);

        while !self.queue.all_done() {
            // 2. Admit: what starts on the free capacity right now?
            let candidates: Vec<Candidate> = self
                .queue
                .arrived_waiting(now)
                .into_iter()
                .map(|id| {
                    let job = self.queue.job(id);
                    Candidate { id, dim: job.dim, tenant: job.tenant.clone() }
                })
                .collect();
            let admitted = policy.admit(&candidates, &self.alloc, &share);

            if !admitted.is_empty() {
                // 3. Lease each admitted job its sub-cube.
                for id in admitted {
                    let run = executed.remove(&id).expect("every waiting job executed up front");
                    running.push(self.lease(id, run, now));
                }
                // Re-enter admission: the policy saw the full waiting
                // list, so the next pass admits nothing further at this
                // instant and falls through to the clock advance.
                continue;
            }

            // 4. Advance the park clock to the next event.
            let next_end = running.iter().map(|r| r.end).fold(f64::INFINITY, f64::min);
            let next_arrival = self.queue.next_arrival_after(now).unwrap_or(f64::INFINITY);
            let next = next_end.min(next_arrival);
            if !next.is_finite() {
                // Arrived jobs that no policy can ever start (unreachable:
                // `submit` bounds every job by the machine and refuses
                // arrivals the clock never reaches).
                return Err(NscError::Workload(
                    "park wedged: jobs waiting, nothing running, no arrivals".into(),
                ));
            }
            now = next;

            // Retire every lease whose simulated end has been reached.
            let mut i = 0;
            while i < running.len() {
                if running[i].end <= now {
                    let done = running.swap_remove(i);
                    reports.push(self.finish(done, &mut share, &mut usage, &mut audited)?);
                } else {
                    i += 1;
                }
            }
        }

        Ok(ParkReport::assemble(policy.label(), self.cube.nodes(), reports, &usage, audited))
    }

    /// Host-execute every waiting job on a worker pool: each worker,
    /// the calling thread included, takes the next job in submission
    /// order until none are left.
    fn execute_waiting(&self) -> HashMap<JobId, Executed> {
        let waiting = self.queue.arrived_waiting(f64::INFINITY);
        // Never more workers than the park has nodes, so a one-node park
        // stays serial and its compile-cache counters stay exact.
        let workers = std::thread::available_parallelism()
            .map_or(1, |n| n.get())
            .min(self.cube.nodes())
            .min(waiting.len());
        let next = AtomicUsize::new(0);
        let work = || {
            let mut done = Vec::new();
            // Relaxed: the counter only hands out indices; the results
            // travel back through the join.
            while let Some(&id) = waiting.get(next.fetch_add(1, Ordering::Relaxed)) {
                done.push((id, self.execute(id)));
            }
            done
        };
        std::thread::scope(|scope| {
            let helpers: Vec<_> = (1..workers).map(|_| scope.spawn(work)).collect();
            let mut executed: HashMap<JobId, Executed> = work().into_iter().collect();
            for helper in helpers {
                executed.extend(helper.join().expect("payload panics are caught in `execute`"));
            }
            executed
        })
    }

    /// Run one job on a fresh standalone machine of its dimension with
    /// the park's router model — exactly what its lease will be.
    fn execute(&self, id: JobId) -> Executed {
        let job = self.queue.job(id);
        let cube = HypercubeConfig { dimension: job.dim, router: self.cube.router };
        let mut system = NscSystem::new(cube, self.session.kb());
        // One shared kernel cache, one certificate log per job — so
        // certificates attribute to jobs even though concurrent jobs
        // share the compile cache.
        let (session, certs) = self.session.with_certificate_log();
        let ran = catch_unwind(AssertUnwindSafe(|| job.payload().run(&session, &mut system)));
        let outcome = match ran {
            Ok(Ok(mut outcome)) => {
                outcome.certificates = certs.drain();
                Ok(outcome)
            }
            Ok(Err(e)) => Err(e.to_string()),
            Err(panic) => {
                Err(format!("job {id} ('{}') panicked: {}", job.name(), panic_message(&*panic)))
            }
        };
        // The job's usage is what its fresh nodes' counters reached; its
        // simulated duration is the critical-path node (compute +
        // unhidden communication).
        let m = system.metrics_since(&vec![PerfCounters::default(); system.node_count()]);
        Executed { counters: m.total, simulated_seconds: m.simulated_seconds, outcome }
    }

    /// Allocate an admitted job its sub-cube and stamp every certificate
    /// its compiles emitted with that lease, so the verifier can check
    /// route containment against it.
    fn lease(&mut self, id: JobId, mut run: Executed, now: f64) -> RunningJob {
        let dim = self.queue.job(id).dim;
        let subcube =
            self.alloc.allocate(dim).expect("the admission probe guaranteed this allocation fits");
        self.queue.mark_running(id);
        if let Ok(outcome) = &mut run.outcome {
            let stamp = LeaseCert { base: subcube.base.0 as u64, dimension: subcube.dimension };
            for cert in &mut outcome.certificates {
                *cert = Arc::new(cert.with_lease(stamp.clone()));
            }
        }
        RunningJob { id, subcube, started_at: now, end: now + run.simulated_seconds, run }
    }

    /// Free a completed lease's sub-cube, spot-audit its certificates
    /// when the policy selects it, and write its report. A rejected
    /// certificate fails the whole run.
    fn finish(
        &mut self,
        done: RunningJob,
        share: &mut HashMap<String, f64>,
        usage: &mut HashMap<String, (usize, f64)>,
        audited: &mut (usize, usize),
    ) -> Result<JobReport, NscError> {
        self.alloc.free(done.subcube);
        self.queue.mark_done(done.id);

        let job = self.queue.job(done.id);
        let Executed { counters, simulated_seconds, outcome } = done.run;
        let node_seconds = done.subcube.nodes() as f64 * simulated_seconds;
        *share.entry(job.tenant.clone()).or_insert(0.0) += node_seconds;
        let entry = usage.entry(job.tenant.clone()).or_insert((0, 0.0));
        entry.0 += 1;
        entry.1 += node_seconds;

        let (residual, error) = match outcome {
            Ok(outcome) => {
                if self.audits(done.id) {
                    // Independent re-check: only the certificate bytes and
                    // this park's machine limits go in — the engine's
                    // checker and codegen are never consulted.
                    let expected = Expected {
                        machine: Some(machine_limits(self.session.kb().config())),
                        ..Expected::default()
                    };
                    for cert in &outcome.certificates {
                        verify(cert, &expected).map_err(|v| {
                            NscError::Workload(format!(
                                "certificate audit failed for job {} ('{}', tenant {}): {v}",
                                done.id,
                                job.name(),
                                job.tenant,
                            ))
                        })?;
                        audited.1 += 1;
                    }
                    audited.0 += 1;
                }
                let residual = outcome.residual;
                self.outcomes.insert(done.id, outcome);
                (residual, None)
            }
            Err(e) => (f64::NAN, Some(e)),
        };
        Ok(JobReport {
            id: done.id,
            tenant: job.tenant.clone(),
            name: job.name(),
            subcube: done.subcube,
            nodes: done.subcube.nodes(),
            submitted_at: job.submit_at,
            started_at: done.started_at,
            finished_at: done.end,
            queue_wait: done.started_at - job.submit_at,
            simulated_seconds,
            counters,
            mflops: counters.mflops(self.clock_hz),
            residual,
            error,
        })
    }

    /// The solution a completed job produced — the bits the identity
    /// audits compare against a standalone run of the same workload.
    /// `None` before the job completes, and for jobs that failed.
    pub fn outcome(&self, id: JobId) -> Option<&JobOutcome> {
        self.outcomes.get(&id)
    }
}

/// The message a caught panic carried, for the failed job's report.
fn panic_message(panic: &(dyn Any + Send)) -> &str {
    match (panic.downcast_ref::<&str>(), panic.downcast_ref::<String>()) {
        (Some(msg), _) => msg,
        (_, Some(msg)) => msg,
        _ => "a non-string panic payload",
    }
}
