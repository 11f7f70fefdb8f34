//! Machine-park job service: queue, schedule, and serve many workloads
//! on one simulated Navier-Stokes Computer.
//!
//! The other crates build and run *one* workload well; this crate is the
//! serving layer that turns the simulated machine into a shared
//! facility. Tenants submit whole workloads as [`Job`]s; the park queues
//! them, carves the machine into disjoint sub-cubes, and runs admitted
//! jobs concurrently, each on a lease that is indistinguishable from a
//! standalone machine of the same size.
//!
//! The flow, layer by layer:
//!
//! * **queue** ([`JobQueue`]) — submission-ordered jobs with arrival
//!   times on the park's simulated clock; policy-free lifecycle
//!   (waiting → running → done).
//! * **scheduler** ([`SchedPolicy`]) — decides which arrived jobs start
//!   on the free capacity: strict [`SchedPolicy::Fifo`], gap-filling
//!   [`SchedPolicy::Backfill`], or usage-balancing
//!   [`SchedPolicy::FairShare`]. Admission is probed against a clone of
//!   the allocator so a policy can never oversubscribe the machine.
//! * **allocator** ([`nsc_arch::SubCubeAllocator`]) — buddy-allocates
//!   aligned sub-cubes and re-coalesces them on free; an aligned
//!   sub-cube of a hypercube is itself a hypercube, which is what makes
//!   leases exact.
//! * **pool driver** ([`MachinePark`]) — first host-executes every
//!   waiting job on a worker pool (one worker per CPU, at most one per
//!   park node), each on a fresh machine of its sub-cube's size, all
//!   sharing one compile-once [`nsc_core::Session`], and measures every
//!   job's usage from its nodes' counters; then replays those results
//!   on a deterministic virtual clock, leasing sub-cubes to admitted
//!   jobs and retiring them between completions and arrivals.
//!
//! Every job gets a [`JobReport`] (sub-cube, queue wait, simulated
//! duration, counters, MFLOPS); the run aggregates into a [`ParkReport`]
//! (utilization, throughput, per-tenant usage, Jain fairness). The
//! figures are deterministic, so the perf gate commits scheduler
//! baselines against them.

#![warn(missing_docs)]

mod job;
mod queue;
mod report;
mod sched;
mod service;

pub use self::job::{Job, JobId, JobOutcome, JobPayload};
pub use self::queue::JobQueue;
pub use self::report::{JobReport, ParkReport, TenantUsage};
pub use self::sched::{Candidate, SchedPolicy};
pub use self::service::MachinePark;
