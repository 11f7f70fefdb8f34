//! The park's contract, end to end: a mixed multi-tenant job stream on
//! one machine, every job bit-identical to a standalone run at the same
//! sub-cube size; deterministic reports; backfill demonstrably ahead of
//! FIFO on a mix it can exploit; failures, panics included, confined to
//! their own jobs; host execution spread over every CPU.

use nsc_cfd::grid::manufactured_problem;
use nsc_cfd::{
    CavityWorkload, DistributedJacobiWorkload, DistributedMultigridWorkload,
    DistributedSorWorkload, PartitionSpec,
};
use nsc_core::{NscError, Session};
use nsc_park::{Job, JobOutcome, JobPayload, MachinePark, SchedPolicy};
use nsc_sim::NscSystem;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

fn jacobi(n: usize) -> DistributedJacobiWorkload {
    let (u0, f, _) = manufactured_problem(n);
    DistributedJacobiWorkload::new(u0, f, 1e-3, 200, PartitionSpec::Auto)
}

fn sor(n: usize) -> DistributedSorWorkload {
    let (u0, f, _) = manufactured_problem(n);
    DistributedSorWorkload {
        u0,
        f,
        omega: 1.5,
        tol: 1e-3,
        max_sweeps: 200,
        partition: PartitionSpec::Auto,
    }
}

fn multigrid(n: usize) -> DistributedMultigridWorkload {
    DistributedMultigridWorkload::manufactured(n, 0.8, 1e-8, 25)
}

fn cavity(n: usize) -> CavityWorkload {
    let mut w = CavityWorkload::new(n, 10.0, 5);
    w.psi_tol = 1e-6;
    w
}

/// Run a payload standalone — its own session, its own machine of
/// exactly `2^dim` nodes — the reference the park must reproduce.
fn standalone(payload: &dyn JobPayload, dim: u32) -> nsc_park::JobOutcome {
    let session = Session::nsc_1988();
    let mut system = NscSystem::new(nsc_arch::HypercubeConfig::new(dim), session.kb());
    payload.run(&session, &mut system).expect("standalone run succeeds")
}

/// The tentpole audit: a mixed jacobi/SOR/multigrid/cavity stream from
/// three tenants shares one 8-node machine, jobs running concurrently on
/// disjoint sub-cubes — and every job's solution is bit-identical to a
/// standalone run of the same workload on a dedicated machine of its
/// sub-cube's size.
#[test]
fn mixed_job_stream_is_bit_identical_to_standalone_runs() {
    let mut park = MachinePark::new(Session::nsc_1988(), 3); // 8 nodes
    let jobs: Vec<(&str, u32, std::sync::Arc<dyn JobPayload>)> = vec![
        ("ada", 1, std::sync::Arc::new(jacobi(6))),
        ("grace", 1, std::sync::Arc::new(sor(6))),
        ("mary", 2, std::sync::Arc::new(multigrid(17))),
        ("ada", 1, std::sync::Arc::new(cavity(9))),
        ("grace", 0, std::sync::Arc::new(jacobi(5))),
    ];
    // Standalone references first (each on its own fresh session and
    // dedicated machine), then the same payloads through the park.
    let references: Vec<nsc_park::JobOutcome> =
        jobs.iter().map(|(_, dim, payload)| standalone(payload.as_ref(), *dim)).collect();
    let ids: Vec<_> = jobs
        .into_iter()
        .map(|(tenant, dim, payload)| {
            park.submit(Job::from_shared(tenant, dim, payload)).expect("fits")
        })
        .collect();

    let report = park.run(SchedPolicy::Backfill).expect("park run succeeds");

    assert_eq!(report.jobs.len(), ids.len());
    assert_eq!(report.failed, 0);
    for (id, reference) in ids.iter().zip(&references) {
        let got = park.outcome(*id).expect("job completed");
        assert_eq!(got.residual.to_bits(), reference.residual.to_bits(), "job {id}: residual");
        assert_eq!(got.grid.len(), reference.grid.len(), "job {id}: grid shape");
        for (a, b) in got.grid.iter().zip(&reference.grid) {
            assert_eq!(a.to_bits(), b.to_bits(), "job {id}: solution diverged from standalone");
        }
        let jr = report.job(*id).expect("reported");
        // Distributed SOR relaxes on the host and charges only router
        // time, so "real usage" is flops or communication.
        assert!(
            jr.counters.flops > 0 || jr.counters.comm_ns > 0,
            "job {id}: the park measured real usage"
        );
        assert!(jr.simulated_seconds > 0.0, "job {id}: the run took simulated time");
    }

    // Accounting closes: per-tenant node-seconds sum to the machine's
    // busy time, utilization is a proper fraction, fairness is in range.
    let tenant_sum: f64 = report.per_tenant.iter().map(|t| t.node_seconds).sum();
    assert!((tenant_sum - report.busy_node_seconds).abs() < 1e-9 * report.busy_node_seconds);
    assert_eq!(report.per_tenant.iter().map(|t| t.jobs).sum::<usize>(), report.jobs.len());
    assert!(report.utilization > 0.0 && report.utilization <= 1.0);
    assert!(report.fairness > 0.0 && report.fairness <= 1.0 + 1e-12);
    // 2+2+4+2+1 = 11 node leases on an 8-node machine: some jobs *must*
    // have queued behind others, so the schedule really was concurrent.
    assert!(report.makespan > 0.0);
}

/// Same submissions, same policy ⇒ bit-identical reports: the figures
/// the perf gate commits as baselines are reproducible.
#[test]
fn park_reports_are_deterministic() {
    let build = || {
        let mut park = MachinePark::new(Session::nsc_1988(), 2);
        park.submit(Job::new("ada", 1, jacobi(6))).unwrap();
        park.submit(Job::new("grace", 2, sor(6))).unwrap();
        park.submit(Job::new("ada", 0, jacobi(5))).unwrap();
        park.submit(Job::new("mary", 0, cavity(9)).arriving_at(0.001)).unwrap();
        park
    };
    let a = build().run(SchedPolicy::FairShare).expect("first run");
    let b = build().run(SchedPolicy::FairShare).expect("second run");
    let a_json = serde_json::to_string(&a).expect("serializes");
    let b_json = serde_json::to_string(&b).expect("serializes");
    assert_eq!(a_json, b_json, "identical submissions must reproduce the report bit for bit");
}

/// Backfill beats FIFO on a mix it can exploit — a whole-machine job
/// blocks the queue head while small jobs behind it could run — and
/// scheduling never changes any job's results.
#[test]
fn backfill_beats_fifo_and_scheduling_never_changes_results() {
    let submit_mix = |park: &mut MachinePark| -> Vec<nsc_park::JobId> {
        let mut ids = Vec::new();
        ids.push(park.submit(Job::new("ada", 1, jacobi(6))).unwrap()); // starts at 0
        ids.push(park.submit(Job::new("mary", 2, multigrid(17))).unwrap()); // whole machine: blocks
        for _ in 0..3 {
            ids.push(park.submit(Job::new("grace", 0, jacobi(5))).unwrap()); // backfillable
        }
        ids
    };

    let mut fifo_park = MachinePark::new(Session::nsc_1988(), 2); // 4 nodes
    let fifo_ids = submit_mix(&mut fifo_park);
    let fifo = fifo_park.run(SchedPolicy::Fifo).expect("fifo run");

    let mut bf_park = MachinePark::new(Session::nsc_1988(), 2);
    let bf_ids = submit_mix(&mut bf_park);
    let bf = bf_park.run(SchedPolicy::Backfill).expect("backfill run");

    // Under FIFO the small jobs wait behind the whole-machine job;
    // backfill starts them at t = 0 on the nodes FIFO leaves idle.
    let fifo_small_wait: f64 =
        fifo_ids[2..].iter().map(|id| fifo.job(*id).unwrap().queue_wait).sum();
    let bf_small_wait: f64 = bf_ids[2..].iter().map(|id| bf.job(*id).unwrap().queue_wait).sum();
    assert!(
        bf_small_wait < fifo_small_wait,
        "backfill must cut small-job queueing ({bf_small_wait} vs {fifo_small_wait})"
    );
    assert!(
        bf.utilization > fifo.utilization,
        "backfill must raise utilization ({} vs {})",
        bf.utilization,
        fifo.utilization
    );
    assert!(
        bf.jobs_per_second > fifo.jobs_per_second,
        "backfill must raise throughput ({} vs {})",
        bf.jobs_per_second,
        fifo.jobs_per_second
    );

    // The policy moves jobs in time, never in value.
    for (f_id, b_id) in fifo_ids.iter().zip(&bf_ids) {
        let f = fifo_park.outcome(*f_id).expect("fifo job completed");
        let b = bf_park.outcome(*b_id).expect("backfill job completed");
        assert_eq!(f.residual.to_bits(), b.residual.to_bits());
        for (x, y) in f.grid.iter().zip(&b.grid) {
            assert_eq!(x.to_bits(), y.to_bits(), "scheduling changed a result");
        }
    }
}

/// Failed jobs release their capacity and report their error; the rest
/// of the stream is untouched.
#[test]
fn failed_jobs_release_capacity_and_report_errors() {
    let mut park = MachinePark::new(Session::nsc_1988(), 1);
    let bad = park
        .submit(Job::new(
            "eve",
            1,
            |_: &Session, _: &mut NscSystem| -> Result<nsc_park::JobOutcome, nsc_core::NscError> {
                Err(nsc_core::NscError::Workload("synthetic failure".into()))
            },
        ))
        .unwrap();
    let good = park.submit(Job::new("ada", 1, jacobi(6))).unwrap();
    // A job bigger than the machine is refused at submission.
    assert!(park.submit(Job::new("eve", 5, jacobi(6))).is_err());

    let report = park.run(SchedPolicy::Fifo).expect("park run succeeds");
    assert_eq!(report.failed, 1);
    let bad_report = report.job(bad).expect("failed job still reported");
    assert!(bad_report.error.as_deref().unwrap().contains("synthetic failure"));
    assert!(park.outcome(bad).is_none(), "failed jobs have no outcome");
    // The failed job's whole-machine lease was released: the good job ran.
    let good_report = report.job(good).expect("good job reported");
    assert!(good_report.error.is_none());
    assert!(park.outcome(good).is_some());
}

/// An arrival time the park clock never reaches is refused at
/// submission: queued, it would wedge the run once every other job had
/// executed, discarding all of their reports.
#[test]
fn non_finite_arrivals_are_refused_at_submission() {
    let mut park = MachinePark::new(Session::nsc_1988(), 0);
    let good = park.submit(Job::new("ada", 0, jacobi(5))).unwrap();
    for t in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
        let err = park.submit(Job::new("eve", 0, jacobi(5)).arriving_at(t)).unwrap_err();
        assert!(matches!(&err, NscError::Workload(m) if m.contains("distributed-jacobi")), "{err}");
    }
    // A batch with one such job queues nothing.
    let batch =
        [Job::new("ada", 0, jacobi(5)), Job::new("eve", 0, jacobi(5)).arriving_at(f64::NAN)];
    let err = park.submit_batch(batch).unwrap_err();
    assert!(err.to_string().contains("nothing was queued"), "{err}");

    let report = park.run(SchedPolicy::Fifo).expect("only finite arrivals were queued");
    assert_eq!(report.jobs.len(), 1);
    assert!(report.job(good).unwrap().error.is_none());
}

/// A payload that panics fails its own job with the panic's message and
/// the usage its nodes reached; the run goes on, and a later job on the
/// same session — same compile cache, same certificate machinery — is
/// still bit-identical to its standalone run.
#[test]
fn a_panicking_payload_fails_its_job_not_the_run() {
    let mut park = MachinePark::new(Session::nsc_1988(), 0);
    let bad = park
        .submit(Job::new("eve", 0, |session: &Session, system: &mut NscSystem| {
            jacobi(5).run(session, system)?;
            panic!("synthetic panic")
        }))
        .unwrap();
    let good = park.submit(Job::new("ada", 0, jacobi(5))).unwrap();

    let report = park.run(SchedPolicy::Fifo).expect("a panicking payload fails only its job");
    assert_eq!(report.failed, 1);
    let bad_report = report.job(bad).unwrap();
    assert_eq!(bad_report.error.as_deref(), Some("job 0 ('custom') panicked: synthetic panic"));
    assert!(bad_report.counters.flops > 0, "the work done before the panic is metered");
    assert!(park.outcome(bad).is_none());

    let reference = standalone(&jacobi(5), 0);
    let got = park.outcome(good).expect("the honest job completed");
    assert_eq!(got.residual.to_bits(), reference.residual.to_bits());
    assert!(got.grid.iter().zip(&reference.grid).all(|(a, b)| a.to_bits() == b.to_bits()));
    assert!(!got.certificates.is_empty(), "the honest job still collects its certificates");
}

/// A dimension-`dim` job whose payload records the most payloads ever in
/// flight at once. It holds for 20 ms, and up to 2 s longer until
/// `expected` payloads have overlapped, so a worker thread that starts
/// late cannot hide.
fn probe(dim: u32, in_flight: &Arc<AtomicUsize>, peak: &Arc<AtomicUsize>, expected: usize) -> Job {
    let (in_flight, peak) = (Arc::clone(in_flight), Arc::clone(peak));
    let payload = move |_: &Session, _: &mut NscSystem| -> Result<JobOutcome, NscError> {
        let now = in_flight.fetch_add(1, Ordering::SeqCst) + 1;
        peak.fetch_max(now, Ordering::SeqCst);
        std::thread::sleep(Duration::from_millis(20));
        let deadline = Instant::now() + Duration::from_secs(2);
        while peak.load(Ordering::SeqCst) < expected && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(1));
        }
        in_flight.fetch_sub(1, Ordering::SeqCst);
        Ok(JobOutcome::new(0.0, Vec::new()))
    };
    Job::new("probe", dim, payload)
}

/// Host execution runs ahead of the schedule on one worker per CPU, up
/// to one per park node: four whole-machine jobs on a 2-node park still
/// execute two at a time on a 2-CPU host, while a 1-node park runs its
/// jobs strictly one after another.
#[test]
fn the_pool_uses_every_cpu_and_a_one_node_park_stays_serial() {
    let cpus = std::thread::available_parallelism().map_or(1, |n| n.get());
    for (dim, expected) in [(1, cpus.min(2)), (0, 1)] {
        let in_flight = Arc::new(AtomicUsize::new(0));
        let peak = Arc::new(AtomicUsize::new(0));
        let mut park = MachinePark::new(Session::nsc_1988(), dim);
        for _ in 0..4 {
            park.submit(probe(dim, &in_flight, &peak, expected)).unwrap();
        }
        let report = park.run(SchedPolicy::Fifo).expect("probe jobs succeed");
        assert_eq!(report.failed, 0);
        assert_eq!(peak.load(Ordering::SeqCst), expected, "dimension-{dim} park on {cpus} CPUs");
    }
}
