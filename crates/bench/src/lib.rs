//! Shared measurement helpers for the criterion benches and the CI
//! performance gate (`perf_gate`).
//!
//! Everything here reports **simulated** figures (cycle counters and the
//! router model), which are bit-deterministic across host machines — that
//! is what makes the CI regression gate flake-free and exact: any moved
//! simulated figure is a real modelling or codegen change, never a noisy
//! runner.

use nsc_cfd::grid::manufactured_problem;
use nsc_cfd::nsc_run::run_jacobi_on_node;
use nsc_cfd::{
    CavityWorkload, DistributedJacobiWorkload, DistributedMultigridWorkload, JacobiVariant,
};
use nsc_core::{Session, Workload};
use nsc_sim::{NodeSim, NscSystem, SystemRunMetrics};
use serde::{Deserialize, Serialize};

/// One strong-scaling measurement.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct ScalingPoint {
    /// Hypercube size.
    pub nodes: usize,
    /// Aggregate achieved MFLOPS (compute + halo + reduction time).
    pub aggregate_mflops: f64,
    /// Simulated seconds of the run (slowest node).
    pub simulated_seconds: f64,
}

impl ScalingPoint {
    /// The point a run on `nodes` nodes measured.
    fn of(nodes: usize, m: &SystemRunMetrics) -> Self {
        ScalingPoint {
            nodes,
            aggregate_mflops: m.aggregate_mflops,
            simulated_seconds: m.simulated_seconds,
        }
    }
}

/// Run the distributed Jacobi workload for a fixed number of ping-pong
/// pairs on a `2^dim`-node cube and report the simulated aggregate rate.
pub fn strong_scaling_point(dim: u32, n: usize, pairs: u32) -> ScalingPoint {
    let session = Session::nsc_1988();
    let mut sys = NscSystem::new(nsc_arch::HypercubeConfig::new(dim), session.kb());
    let (u0, f, _) = manufactured_problem(n);
    let w = DistributedJacobiWorkload::new(u0, f, 0.0, pairs, nsc_cfd::PartitionSpec::Strip);
    let run = w.execute(&session, &mut sys).expect("distributed jacobi runs");
    ScalingPoint::of(sys.node_count(), &run.metrics)
}

/// Single-node achieved MFLOPS of the serial Jacobi document (one
/// ping-pong pair on an `n^3` grid) — the E10 figure the gate tracks.
pub fn jacobi_node_mflops(n: usize) -> f64 {
    let (u0, f, _) = manufactured_problem(n);
    let mut node = NodeSim::nsc_1988();
    run_jacobi_on_node(&mut node, &u0, &f, 0.0, 1, JacobiVariant::Full).expect("jacobi runs").mflops
}

/// One lid-driven-cavity measurement: simulated time per machine-resident
/// time step (ψ-Poisson solve plus FTCS vorticity transport) at a fixed
/// step count, and the aggregate rate.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct CavityPoint {
    /// Hypercube size.
    pub nodes: usize,
    /// Simulated seconds per time step (slowest node, compute + comm).
    pub seconds_per_step: f64,
    /// Aggregate achieved MFLOPS of the run.
    pub aggregate_mflops: f64,
}

/// Run the cavity for a fixed number of time steps on a `2^dim`-node cube
/// and report the simulated time per step. Deterministic: the per-step
/// ψ-solve sweep counts are fixed by the (simulated) convergence history.
pub fn cavity_point(dim: u32, n: usize, steps: usize) -> CavityPoint {
    let session = Session::nsc_1988();
    let mut sys = NscSystem::new(nsc_arch::HypercubeConfig::new(dim), session.kb());
    let mut w = CavityWorkload::new(n, 50.0, steps);
    w.psi_tol = 1e-6;
    let run = w.execute(&session, &mut sys).expect("cavity runs");
    CavityPoint {
        nodes: sys.node_count(),
        seconds_per_step: run.metrics.simulated_seconds / steps as f64,
        aggregate_mflops: run.metrics.aggregate_mflops,
    }
}

/// Run the distributed multigrid workload for a fixed number of V-cycles
/// on a `2^dim`-node cube and report the simulated aggregate rate.
pub fn multigrid_point(dim: u32, n: usize, cycles: usize) -> ScalingPoint {
    let session = Session::nsc_1988();
    let mut sys = NscSystem::new(nsc_arch::HypercubeConfig::new(dim), session.kb());
    let w = DistributedMultigridWorkload::manufactured(n, 0.8, 0.0, cycles);
    let run = w.execute(&session, &mut sys).expect("distributed multigrid runs");
    ScalingPoint::of(sys.node_count(), &run.metrics)
}

/// Host-side (wall-clock) figures for the compiled-kernel fast path
/// against the interpreter on the same workload. Unlike every other
/// figure in this crate these depend on the machine running them, so the
/// gate never compares them against a committed baseline — it only
/// enforces the freshly measured kernel-vs-interpreter speedup, which is
/// a property of the code, not of the host.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct HostPoint {
    /// Hypercube size.
    pub nodes: usize,
    /// Simulated flops the workload executes (identical on both paths).
    pub flops: u64,
    /// Host wall-clock seconds with kernel specialization (the default).
    pub host_seconds_kernel: f64,
    /// Host wall-clock seconds with the fast path disabled.
    pub host_seconds_interpreted: f64,
    /// Simulated flops per host second through the kernels.
    pub host_mflops_kernel: f64,
    /// Simulated flops per host second through the interpreter.
    pub host_mflops_interpreted: f64,
    /// `host_seconds_interpreted / host_seconds_kernel`.
    pub kernel_speedup: f64,
}

/// Measure the distributed Jacobi workload's host wall-clock on both
/// execution paths (best of `reps` runs each) and cross-check that the
/// two paths simulate identical work: same counters, same residual bits.
pub fn host_comparison_point(dim: u32, n: usize, pairs: u32, reps: usize) -> HostPoint {
    let run_once = |fast: bool| {
        let session =
            if fast { Session::nsc_1988() } else { Session::nsc_1988().with_fast_path(false) };
        let mut sys = NscSystem::new(nsc_arch::HypercubeConfig::new(dim), session.kb());
        let (u0, f, _) = manufactured_problem(n);
        let w = DistributedJacobiWorkload::new(u0, f, 0.0, pairs, nsc_cfd::PartitionSpec::Strip);
        let start = std::time::Instant::now();
        let run = w.execute(&session, &mut sys).expect("distributed jacobi runs");
        (start.elapsed().as_secs_f64(), run)
    };
    let reps = reps.max(1);
    let (mut kernel_secs, kernel_run) = run_once(true);
    let (mut interp_secs, interp_run) = run_once(false);
    for _ in 1..reps {
        kernel_secs = kernel_secs.min(run_once(true).0);
        interp_secs = interp_secs.min(run_once(false).0);
    }
    // The fast path may only change wall-clock: identical simulated work
    // is its contract, and the gate double-checks it on every run.
    assert_eq!(
        kernel_run.metrics.total, interp_run.metrics.total,
        "kernel and interpreter counters diverged"
    );
    assert_eq!(
        kernel_run.residual.to_bits(),
        interp_run.residual.to_bits(),
        "kernel and interpreter residuals diverged"
    );
    let flops = kernel_run.metrics.total.flops;
    HostPoint {
        nodes: 1 << dim,
        flops,
        host_seconds_kernel: kernel_secs,
        host_seconds_interpreted: interp_secs,
        host_mflops_kernel: flops as f64 / kernel_secs / 1.0e6,
        host_mflops_interpreted: flops as f64 / interp_secs / 1.0e6,
        kernel_speedup: interp_secs / kernel_secs,
    }
}

/// One machine-park scheduling measurement: the aggregate figures of a
/// deterministic job stream under one policy.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct ParkPoint {
    /// Machine size in nodes.
    pub nodes: usize,
    /// Jobs completed.
    pub jobs: usize,
    /// Busy node-seconds over capacity node-seconds.
    pub utilization: f64,
    /// Jobs per simulated second (scheduler throughput).
    pub jobs_per_second: f64,
    /// Simulated seconds from first arrival to last completion.
    pub makespan: f64,
}

fn park_point_from(report: &nsc_park::ParkReport) -> ParkPoint {
    ParkPoint {
        nodes: report.capacity_nodes,
        jobs: report.jobs.len(),
        utilization: report.utilization,
        jobs_per_second: report.jobs_per_second,
        makespan: report.makespan,
    }
}

/// A fixed-length distributed Jacobi payload (tolerance zero, exactly
/// `pairs` ping-pong pairs) — deterministic duration for the park mixes.
fn fixed_jacobi(n: usize, pairs: u32) -> DistributedJacobiWorkload {
    let (u0, f, _) = manufactured_problem(n);
    DistributedJacobiWorkload::new(u0, f, 0.0, pairs, nsc_cfd::PartitionSpec::Auto)
}

/// The benchmark job mix the scheduler baselines are committed against,
/// run on a 4-node park under `policy`: a 2-node job starts first, a
/// whole-machine multigrid job blocks the queue behind it, and a stream
/// of 1-node jobs waits behind *that* — runnable immediately on the two
/// idle nodes, but only by a policy willing to look past the blocked
/// head. Deterministic, so the figures gate against a committed
/// baseline.
pub fn park_mixed_point(policy: nsc_park::SchedPolicy) -> ParkPoint {
    use nsc_park::Job;
    let mut park = nsc_park::MachinePark::new(Session::nsc_1988(), 2);
    park.submit(Job::new("ada", 1, fixed_jacobi(8, 40))).expect("fits");
    let mg = DistributedMultigridWorkload::manufactured(17, 0.8, 0.0, 2);
    park.submit(Job::new("mary", 2, mg)).expect("fits");
    for _ in 0..4 {
        park.submit(Job::new("grace", 0, fixed_jacobi(6, 10))).expect("fits");
    }
    park_point_from(&park.run(policy).expect("park mix runs"))
}

/// Saturation throughput of the small-job stream: a 4-node park fed
/// twelve 1-node jobs under backfill, every node busy end to end — the
/// jobs-per-second figure the gate tracks as scheduler throughput.
pub fn park_small_stream_point() -> ParkPoint {
    use nsc_park::Job;
    let mut park = nsc_park::MachinePark::new(Session::nsc_1988(), 2);
    for i in 0..12 {
        let tenant = ["ada", "grace", "mary"][i % 3];
        park.submit(Job::new(tenant, 0, fixed_jacobi(6, 10))).expect("fits");
    }
    park_point_from(&park.run(nsc_park::SchedPolicy::Backfill).expect("park stream runs"))
}

/// One ensemble-engine measurement: a parameter sweep batched over the
/// park, with the compile-cache economics that motivate the layer.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct EnsemblePoint {
    /// Sweep members.
    pub members: usize,
    /// Members per simulated second with the 4-node park saturated by
    /// 1-node members (the ensemble throughput figure the gate tracks).
    pub members_per_second: f64,
    /// Park utilization over the saturated run.
    pub utilization: f64,
    /// Compile-cache hit rate over a serial run of the same sweep —
    /// full hits plus preload rebinds over all compiles. Measured on a
    /// 1-node park so the counters are deterministic (concurrent leases
    /// can race to first-compile a shape, which never changes results
    /// but does perturb the counters).
    pub cache_hit_rate: f64,
    /// Compiles the serial run asked for (hits + rebinds + misses).
    pub compiles: u64,
}

/// The benchmark sweep the ensemble baselines are committed against: a
/// 12-member Reynolds×ω lid-driven-cavity study on the 9^2 grid. The
/// FTCS coefficients are document constants, so every member past the
/// first is served by the session cache — ψ-solver programs as full
/// digest hits, transport programs as preload rebinds per distinct
/// (Re, dt).
fn ensemble_sweep() -> nsc_ensemble::Sweep {
    nsc_ensemble::Sweep::new("bench cavity study")
        .axis("re", [1.0, 5.0, 20.0, 80.0, 200.0, 500.0])
        .axis("steps", [1.0, 2.0])
}

fn ensemble_member(point: &nsc_ensemble::ParamPoint) -> Result<nsc_park::Job, nsc_core::NscError> {
    let w = CavityWorkload::new(9, point.value("re"), point.value("steps") as usize);
    Ok(nsc_park::Job::new("study", 0, w))
}

/// Measure the committed ensemble figures: saturated throughput on the
/// 4-node park, cache economics on a serial park.
pub fn ensemble_point() -> EnsemblePoint {
    let sweep = ensemble_sweep();
    let mut saturated = nsc_park::MachinePark::new(Session::nsc_1988(), 2);
    let fast = sweep
        .run(&mut saturated, nsc_park::SchedPolicy::Backfill, ensemble_member)
        .expect("saturated ensemble runs");
    let mut serial = nsc_park::MachinePark::new(Session::nsc_1988(), 0);
    let counted = sweep
        .run(&mut serial, nsc_park::SchedPolicy::Fifo, ensemble_member)
        .expect("serial ensemble runs");
    let cache = &counted.cache;
    EnsemblePoint {
        members: fast.members.len(),
        members_per_second: fast.members_per_second,
        utilization: fast.utilization,
        cache_hit_rate: cache.hit_rate(),
        compiles: cache.hits + cache.rebinds + cache.misses,
    }
}

/// One certificate-audit measurement: how fast the independent verifier
/// re-checks a run's certificates, against how long the run itself took.
/// Host wall-clock, so the committed copy is informational — the gate
/// enforces the freshly measured `audit_speedup` floor, which is a
/// property of the code (verifying is hashing plus interval arithmetic;
/// re-running is a full simulation), not of the runner.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct CertPoint {
    /// Certificates the gate workload emitted.
    pub certs: usize,
    /// Obligations one full audit pass discharges across those
    /// certificates.
    pub obligations: usize,
    /// Certificates verified per host second.
    pub certs_per_second: f64,
    /// Workload wall-clock over one full audit pass's wall-clock: how
    /// many times cheaper auditing a run is than re-running it.
    pub audit_speedup: f64,
}

/// Measure the certificate verifier's throughput: run the distributed
/// Jacobi gate workload once through the park (wall-clock), then
/// repeatedly verify its full certificate set and time a pass.
pub fn cert_audit_point() -> CertPoint {
    use nsc_park::Job;
    let mut park = nsc_park::MachinePark::new(Session::nsc_1988(), 2);
    park.submit(Job::new("audit", 2, fixed_jacobi(16, 10))).expect("fits");
    let start = std::time::Instant::now();
    park.run(nsc_park::SchedPolicy::Fifo).expect("audit workload runs");
    let run_seconds = start.elapsed().as_secs_f64();
    let certs = park.outcome(0).expect("outcome kept").certificates.clone();
    let expected = nsc_cert::Expected {
        machine: Some(nsc_core::certify::machine_limits(park.session().kb().config())),
        ..Default::default()
    };
    let passes = 50u32;
    let mut obligations = 0usize;
    let start = std::time::Instant::now();
    for _ in 0..passes {
        obligations = certs
            .iter()
            .map(|c| nsc_cert::verify(c, &expected).expect("honest certificates").obligations)
            .sum();
    }
    let pass_seconds = start.elapsed().as_secs_f64() / passes as f64;
    CertPoint {
        certs: certs.len(),
        obligations,
        certs_per_second: certs.len() as f64 / pass_seconds,
        audit_speedup: run_seconds / pass_seconds,
    }
}

/// The benches honour `NSC_BENCH_QUICK` (set by the CI gate job) by
/// cutting the sample count: wall-clock statistics are not what CI
/// checks, the simulated figures are.
pub fn sample_size(full: usize) -> usize {
    if std::env::var_os("NSC_BENCH_QUICK").is_some() {
        2
    } else {
        full
    }
}
