//! The machine park: one simulated NSC serving a multi-tenant job
//! stream — the repo's "shared facility" story.
//!
//! Three tenants submit a mixed stream of whole workloads (Jacobi, SOR,
//! multigrid, lid-driven cavity) to an 8-node machine. The park queues
//! them, buddy-allocates each job an aligned sub-cube, runs admitted
//! jobs concurrently on scoped threads sharing one compile-once session,
//! and advances a deterministic virtual clock between completions. The
//! same stream runs under all three scheduling policies; backfill and
//! fair-share look past a blocked queue head, so they finish the stream
//! sooner and keep more of the machine busy — while every job's solution
//! stays bit-identical across policies (asserted below).
//!
//! Run with: `cargo run --release --example machine_park`

use nsc::cfd::{
    grid::manufactured_problem, CavityWorkload, DistributedJacobiWorkload,
    DistributedMultigridWorkload, DistributedSorWorkload, PartitionSpec,
};
use nsc::env::Session;
use nsc::park::{Job, MachinePark, ParkReport, SchedPolicy};

fn submit_stream(park: &mut MachinePark) -> Vec<nsc::park::JobId> {
    let jacobi = |n: usize, pairs: u32| {
        let (u0, f, _) = manufactured_problem(n);
        DistributedJacobiWorkload::new(u0, f, 0.0, pairs, PartitionSpec::Auto)
    };
    let (u0, f, _) = manufactured_problem(6);
    let sor = DistributedSorWorkload {
        u0,
        f,
        omega: 1.5,
        tol: 1e-3,
        max_sweeps: 200,
        partition: PartitionSpec::Auto,
    };
    let multigrid = DistributedMultigridWorkload::manufactured(17, 0.8, 1e-8, 25);
    let mut cavity = CavityWorkload::new(9, 10.0, 5);
    cavity.psi_tol = 1e-6;

    // A 4-node job first, then a whole-machine job that must wait for
    // it — everything behind the head is backfill's opportunity.
    let mut ids = vec![
        park.submit(Job::new("ada", 2, jacobi(8, 40))).expect("fits"),
        park.submit(Job::new("mary", 3, multigrid)).expect("fits"),
        park.submit(Job::new("grace", 1, sor)).expect("fits"),
        park.submit(Job::new("grace", 1, cavity)).expect("fits"),
    ];
    for _ in 0..4 {
        ids.push(park.submit(Job::new("ada", 0, jacobi(6, 10))).expect("fits"));
    }
    ids
}

fn print_report(report: &ParkReport) {
    println!(
        "  {:<11} {:>4} jobs   makespan {:>8.5}s   utilization {:>5.1}%   {:>6.1} jobs/s   \
         fairness {:.3}",
        report.policy,
        report.jobs.len(),
        report.makespan,
        100.0 * report.utilization,
        report.jobs_per_second,
        report.fairness,
    );
    for t in &report.per_tenant {
        println!(
            "      tenant {:<6} {:>2} jobs   {:>9.5} node-seconds",
            t.tenant, t.jobs, t.node_seconds
        );
    }
}

fn main() {
    println!("machine park: 8-node NSC, 3 tenants, 8 queued workloads\n");
    println!("job stream (submission order):");
    {
        let mut preview = MachinePark::new(Session::nsc_1988(), 3);
        let ids = submit_stream(&mut preview);
        let report = preview.run(SchedPolicy::Fifo).expect("park runs");
        for id in &ids {
            let j = report.job(*id).expect("reported");
            println!(
                "  #{:<2} {:<10} {:>2} nodes   {:<28} wait {:>8.5}s   ran {:>8.5}s",
                j.id, j.tenant, j.nodes, j.name, j.queue_wait, j.simulated_seconds
            );
        }
    }

    println!("\nthe same stream under each scheduling policy:");
    let mut outcomes: Vec<Vec<Vec<u64>>> = Vec::new();
    for policy in [SchedPolicy::Fifo, SchedPolicy::Backfill, SchedPolicy::FairShare] {
        let mut park = MachinePark::new(Session::nsc_1988(), 3);
        let ids = submit_stream(&mut park);
        let report = park.run(policy).expect("park runs");
        print_report(&report);
        assert_eq!(report.failed, 0, "every job must succeed");
        outcomes.push(
            ids.iter()
                .map(|id| {
                    park.outcome(*id).expect("completed").grid.iter().map(|x| x.to_bits()).collect()
                })
                .collect(),
        );
    }

    // Scheduling moves jobs in time, never in value: every job's solution
    // bits are identical under all three policies (and each lease is
    // bit-identical to a standalone machine of its sub-cube's size — the
    // park integration tests assert that half).
    let (fifo, rest) = outcomes.split_first().expect("three runs");
    for other in rest {
        assert_eq!(fifo, other, "a scheduling policy changed a job's results");
    }
    println!("\nall jobs bit-identical across policies: scheduling moves time, not values");
}
