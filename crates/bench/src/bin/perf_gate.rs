//! The CI performance-regression gate.
//!
//! Measures the *simulated* performance figures (bit-deterministic across
//! host machines: cycle counters plus the pinned router model), writes
//! them as JSON, and compares against the committed baseline, failing when
//! any figure drops more than 20%.
//!
//! The one exception to "simulated figures only" is the `host` section:
//! wall-clock measurements of the compiled-kernel fast path against the
//! interpreter. Those are machine-dependent, so the baseline copy is
//! informational; the gate instead enforces the *freshly measured*
//! kernel-vs-interpreter speedup (a property of the code, not the host).
//!
//! ```text
//! perf_gate --write out.json                        # emit current figures
//! perf_gate --check crates/bench/BENCH_baseline.json [--write out.json]
//! perf_gate --write-baseline                        # refresh the committed baseline
//! perf_gate --check ... --summary summary.md        # append a markdown table
//! ```

use nsc_bench::{
    cavity_point, cert_audit_point, ensemble_point, host_comparison_point, jacobi_node_mflops,
    multigrid_point, park_mixed_point, park_small_stream_point, strong_scaling_point, CavityPoint,
    CertPoint, EnsemblePoint, HostPoint, ParkPoint, ScalingPoint,
};
use nsc_park::SchedPolicy;
use serde::{Deserialize, Serialize};
use std::process::ExitCode;

/// Where the committed baseline lives (relative to the repo root, which
/// is where CI and `cargo run` invoke the gate from).
const BASELINE_PATH: &str = "crates/bench/BENCH_baseline.json";

/// The committed-and-compared figure set.
#[derive(Debug, Serialize, Deserialize)]
struct Baseline {
    /// Serial E10 figure: one ping-pong pair on the 12^3 grid.
    jacobi_mflops: f64,
    /// Distributed Jacobi on 64^3, one pair, at 1/2/4/8 nodes.
    strong_scaling: Vec<ScalingPoint>,
    /// Lid-driven cavity, 17^2, two machine-resident time steps, at 1/4
    /// nodes (time per step; the gate tracks the step rate).
    cavity: Vec<CavityPoint>,
    /// Distributed multigrid on 17^3, two V-cycles, at 1/4/8 nodes.
    multigrid: Vec<ScalingPoint>,
    /// Distributed Jacobi 64^3 at 8 nodes through the *overlapped* sweep
    /// engine (halo exchange hidden under interior compute). The gate
    /// asserts this is strictly faster than the synchronized 8-node run.
    jacobi_overlap_8: ScalingPoint,
    /// Distributed multigrid 17^3 at 8 nodes, overlapped smoothing; same
    /// strictly-faster-than-synchronized assertion.
    multigrid_overlap_8: ScalingPoint,
    /// The machine-park benchmark job mix (4-node park: a running 2-node
    /// job, a blocked whole-machine job, a 1-node stream behind it)
    /// under plain FIFO — the reference backfill must beat.
    park_fifo: ParkPoint,
    /// The same mix under backfill. The gate asserts backfill strictly
    /// beats FIFO on utilization AND throughput, and gates both figures
    /// against this baseline.
    park_backfill: ParkPoint,
    /// Twelve 1-node jobs saturating the 4-node park: the scheduler's
    /// small-job-stream throughput (jobs per simulated second) and the
    /// park utilization figure the gate holds at its committed floor.
    park_small_stream: ParkPoint,
    /// The ensemble engine's benchmark sweep (12-member Reynolds×steps
    /// cavity study): members/second with the 4-node park saturated,
    /// plus the compile-cache hit rate of a serial run — the gate holds
    /// the rate at an absolute floor on top of the relative gates.
    ensemble: EnsemblePoint,
    /// Host wall-clock of the kernel fast path vs the interpreter on
    /// Jacobi 64^3 @ 8 nodes. Machine-dependent, so the committed copy is
    /// informational only — the gate enforces the freshly measured
    /// speedup, never a comparison against this snapshot.
    host: HostPoint,
    /// Certificate-audit throughput: the independent verifier re-checking
    /// the Jacobi gate workload's certificates. Host wall-clock like
    /// `host`, so the committed copy is informational — the gate enforces
    /// the freshly measured audit speedup (auditing must be orders of
    /// magnitude cheaper than re-running).
    cert: CertPoint,
}

/// Simulated figures never flake, but they may legitimately improve; only
/// a drop beyond this fraction fails the gate.
const TOLERATED_DROP: f64 = 0.20;

/// The kernel fast path must beat the interpreter's host wall-clock by at
/// least this factor on the gate workload (Jacobi 64^3 @ 8 nodes): the
/// lowest of 26 runs on a 2-vCPU Xeon host with chunked stage evaluation
/// (8.9x; the rest 9.3–14x) less 30%, rounded down to a half.
const REQUIRED_KERNEL_SPEEDUP: f64 = 6.0;

/// On the benchmark ensemble sweep, at least this fraction of compiles
/// must be served from the session cache (full digest hits plus preload
/// rebinds): compile-once is the ensemble layer's contract.
const ENSEMBLE_HIT_RATE_FLOOR: f64 = 0.9;

/// Auditing a run's certificates must be at least this many times
/// cheaper than re-running the workload — the economic premise of the
/// spot-audit policy. Conservative: the measured ratio is typically in
/// the thousands.
const REQUIRED_AUDIT_SPEEDUP: f64 = 10.0;

fn measure() -> Baseline {
    Baseline {
        jacobi_mflops: jacobi_node_mflops(12),
        strong_scaling: (0..=3u32).map(|dim| strong_scaling_point(dim, 64, 1, false)).collect(),
        cavity: [0u32, 2].iter().map(|&dim| cavity_point(dim, 17, 2, false)).collect(),
        multigrid: [0u32, 2, 3].iter().map(|&dim| multigrid_point(dim, 17, 2, false)).collect(),
        jacobi_overlap_8: strong_scaling_point(3, 64, 1, true),
        multigrid_overlap_8: multigrid_point(3, 17, 2, true),
        park_fifo: park_mixed_point(SchedPolicy::Fifo),
        park_backfill: park_mixed_point(SchedPolicy::Backfill),
        park_small_stream: park_small_stream_point(),
        ensemble: ensemble_point(),
        // Four pairs so the streamed sweeps, not compilation and problem
        // scatter (which both paths share), dominate the wall-clock.
        host: host_comparison_point(3, 64, 4, 2),
        cert: cert_audit_point(),
    }
}

fn check(current: &Baseline, baseline: &Baseline) -> Result<(), String> {
    let mut failures = Vec::new();
    let mut gate = |name: String, now: f64, then: f64, unit: &str| {
        let floor = then * (1.0 - TOLERATED_DROP);
        let verdict = if now >= floor { "ok" } else { "REGRESSED" };
        eprintln!(
            "  {name:<32} {now:>12.1} {unit} (baseline {then:>12.1}, floor {floor:>12.1}) {verdict}"
        );
        if now < floor {
            failures.push(name);
        }
    };
    gate("jacobi 12^3 serial".into(), current.jacobi_mflops, baseline.jacobi_mflops, "MFLOPS");
    let same_nodes = |c: &[ScalingPoint], b: &[ScalingPoint]| {
        c.len() == b.len() && c.iter().zip(b).all(|(x, y)| x.nodes == y.nodes)
    };
    if !same_nodes(&current.strong_scaling, &baseline.strong_scaling)
        || !same_nodes(&current.multigrid, &baseline.multigrid)
        || current.cavity.len() != baseline.cavity.len()
        || current.cavity.iter().zip(&baseline.cavity).any(|(c, b)| c.nodes != b.nodes)
    {
        return Err("baseline shape changed: refresh it with perf_gate --write-baseline".into());
    }
    for (c, b) in current.strong_scaling.iter().zip(&baseline.strong_scaling) {
        gate(
            format!("distributed 64^3 @ {} nodes", c.nodes),
            c.aggregate_mflops,
            b.aggregate_mflops,
            "MFLOPS",
        );
    }
    for (c, b) in current.cavity.iter().zip(&baseline.cavity) {
        // Time per step gates as a rate so "bigger is better" holds.
        gate(
            format!("cavity 17^2 @ {} nodes", c.nodes),
            1.0 / c.seconds_per_step,
            1.0 / b.seconds_per_step,
            "steps/s",
        );
    }
    for (c, b) in current.multigrid.iter().zip(&baseline.multigrid) {
        gate(
            format!("multigrid 17^3 @ {} nodes", c.nodes),
            c.aggregate_mflops,
            b.aggregate_mflops,
            "MFLOPS",
        );
    }
    for (name, c, b) in [
        ("jacobi 64^3 @ 8 overlapped", &current.jacobi_overlap_8, &baseline.jacobi_overlap_8),
        (
            "multigrid 17^3 @ 8 overlapped",
            &current.multigrid_overlap_8,
            &baseline.multigrid_overlap_8,
        ),
    ] {
        // Simulated time gates as a rate so "bigger is better" holds.
        gate(name.into(), 1.0 / c.simulated_seconds, 1.0 / b.simulated_seconds, "runs/s");
    }
    // Machine-park scheduler figures: the backfill mix and the
    // small-job stream gate against the committed baseline.
    gate(
        "park mix backfill util".into(),
        100.0 * current.park_backfill.utilization,
        100.0 * baseline.park_backfill.utilization,
        "%",
    );
    gate(
        "park mix backfill throughput".into(),
        current.park_backfill.jobs_per_second,
        baseline.park_backfill.jobs_per_second,
        "jobs/s",
    );
    gate(
        "park small-job stream".into(),
        current.park_small_stream.jobs_per_second,
        baseline.park_small_stream.jobs_per_second,
        "jobs/s",
    );
    gate(
        "park small-job stream util".into(),
        100.0 * current.park_small_stream.utilization,
        100.0 * baseline.park_small_stream.utilization,
        "%",
    );
    // Ensemble figures: throughput and utilization gate against the
    // committed baseline like every simulated figure; the cache hit
    // rate holds an absolute floor further down.
    gate(
        "ensemble saturated throughput".into(),
        current.ensemble.members_per_second,
        baseline.ensemble.members_per_second,
        "mem/s",
    );
    gate(
        "ensemble park utilization".into(),
        100.0 * current.ensemble.utilization,
        100.0 * baseline.ensemble.utilization,
        "%",
    );
    // The acceptance bars are absolute, not relative to the baseline.
    let one = current.strong_scaling.first().map(|p| p.aggregate_mflops).unwrap_or(0.0);
    let eight = current.strong_scaling.last().map(|p| p.aggregate_mflops).unwrap_or(0.0);
    if eight < 4.0 * one {
        failures.push(format!("8-node scaling {eight:.1} < 4x 1-node {one:.1}"));
    }
    // Overlap must *strictly* beat synchronization at 8 nodes: hiding the
    // halo exchange under interior compute is the whole point.
    let sync_jacobi_8 = current.strong_scaling.last().map(|p| p.simulated_seconds).unwrap_or(0.0);
    if current.jacobi_overlap_8.simulated_seconds >= sync_jacobi_8 {
        failures.push(format!(
            "overlapped jacobi 64^3 @ 8 ({:.5}s) not faster than synchronized ({sync_jacobi_8:.5}s)",
            current.jacobi_overlap_8.simulated_seconds
        ));
    }
    let sync_mg_8 = current.multigrid.last().map(|p| p.simulated_seconds).unwrap_or(0.0);
    if current.multigrid_overlap_8.simulated_seconds >= sync_mg_8 {
        failures.push(format!(
            "overlapped multigrid 17^3 @ 8 ({:.5}s) not faster than synchronized ({sync_mg_8:.5}s)",
            current.multigrid_overlap_8.simulated_seconds
        ));
    }
    // Backfill must *strictly* beat FIFO on the mix, on both
    // utilization and throughput: looking past a blocked queue head is
    // the scheduler's whole reason to exist.
    if current.park_backfill.utilization <= current.park_fifo.utilization {
        failures.push(format!(
            "backfill utilization {:.3} not above fifo {:.3}",
            current.park_backfill.utilization, current.park_fifo.utilization
        ));
    }
    if current.park_backfill.jobs_per_second <= current.park_fifo.jobs_per_second {
        failures.push(format!(
            "backfill throughput {:.1} jobs/s not above fifo {:.1}",
            current.park_backfill.jobs_per_second, current.park_fifo.jobs_per_second
        ));
    }
    // The ensemble sweep must be served by rebinds and digest hits,
    // not recompiles: compile-once is the layer's contract.
    eprintln!(
        "  {:<32} {:>12.3}       ({} compiles, floor {ENSEMBLE_HIT_RATE_FLOOR})",
        "ensemble cache hit rate", current.ensemble.cache_hit_rate, current.ensemble.compiles,
    );
    if current.ensemble.cache_hit_rate < ENSEMBLE_HIT_RATE_FLOOR {
        failures.push(format!(
            "ensemble compile-cache hit rate {:.3} below the {ENSEMBLE_HIT_RATE_FLOOR} floor",
            current.ensemble.cache_hit_rate
        ));
    }
    // Host wall-clock never gates against the (machine-dependent)
    // baseline copy; the freshly measured speedup is what must hold.
    eprintln!(
        "  {:<32} {:>12.1}x     (interpreter {:.3}s vs kernels {:.3}s, floor {:.1}x)",
        "kernel speedup 64^3 @ 8",
        current.host.kernel_speedup,
        current.host.host_seconds_interpreted,
        current.host.host_seconds_kernel,
        REQUIRED_KERNEL_SPEEDUP,
    );
    if current.host.kernel_speedup < REQUIRED_KERNEL_SPEEDUP {
        failures.push(format!(
            "kernel fast path only {:.2}x over the interpreter (need {:.1}x)",
            current.host.kernel_speedup, REQUIRED_KERNEL_SPEEDUP
        ));
    }
    // Same rule for the certificate audit: wall-clock, so the committed
    // copy never gates — the freshly measured speedup must hold.
    eprintln!(
        "  {:<32} {:>12.0}x     ({} certs, {} obligations, {:.0} certs/s, floor {:.0}x)",
        "audit speedup vs re-run",
        current.cert.audit_speedup,
        current.cert.certs,
        current.cert.obligations,
        current.cert.certs_per_second,
        REQUIRED_AUDIT_SPEEDUP,
    );
    if current.cert.audit_speedup < REQUIRED_AUDIT_SPEEDUP {
        failures.push(format!(
            "certificate audit only {:.1}x cheaper than re-running (need {:.0}x)",
            current.cert.audit_speedup, REQUIRED_AUDIT_SPEEDUP
        ));
    }
    if failures.is_empty() {
        Ok(())
    } else {
        Err(format!("{} figure(s) regressed: {}", failures.len(), failures.join(", ")))
    }
}

/// The `--summary` markdown: every simulated figure next to the host
/// wall-clock figures, in the shape `$GITHUB_STEP_SUMMARY` renders.
fn summary_markdown(current: &Baseline) -> String {
    let mut md = String::from("## NSC performance gate\n\n");
    md.push_str("### Simulated figures (bit-deterministic)\n\n");
    md.push_str("| figure | nodes | simulated MFLOPS | simulated seconds |\n");
    md.push_str("|---|---:|---:|---:|\n");
    md.push_str(&format!("| jacobi 12^3 serial | 1 | {:.1} | — |\n", current.jacobi_mflops));
    for p in &current.strong_scaling {
        md.push_str(&format!(
            "| jacobi 64^3 | {} | {:.1} | {:.5} |\n",
            p.nodes, p.aggregate_mflops, p.simulated_seconds
        ));
    }
    for p in &current.cavity {
        md.push_str(&format!(
            "| cavity 17^2 | {} | {:.1} | {:.5}/step |\n",
            p.nodes, p.aggregate_mflops, p.seconds_per_step
        ));
    }
    for p in &current.multigrid {
        md.push_str(&format!(
            "| multigrid 17^3 | {} | {:.1} | {:.5} |\n",
            p.nodes, p.aggregate_mflops, p.simulated_seconds
        ));
    }
    let jo = &current.jacobi_overlap_8;
    let mo = &current.multigrid_overlap_8;
    md.push_str(&format!(
        "| jacobi 64^3 overlapped | {} | {:.1} | {:.5} |\n",
        jo.nodes, jo.aggregate_mflops, jo.simulated_seconds
    ));
    md.push_str(&format!(
        "| multigrid 17^3 overlapped | {} | {:.1} | {:.5} |\n",
        mo.nodes, mo.aggregate_mflops, mo.simulated_seconds
    ));
    md.push_str("\n### Machine park (4-node park, simulated scheduler figures)\n\n");
    md.push_str("| stream | policy | jobs | utilization | jobs/s | makespan |\n");
    md.push_str("|---|---|---:|---:|---:|---:|\n");
    for (stream, policy, p) in [
        ("benchmark mix", "fifo", &current.park_fifo),
        ("benchmark mix", "backfill", &current.park_backfill),
        ("small-job stream", "backfill", &current.park_small_stream),
    ] {
        md.push_str(&format!(
            "| {stream} | {policy} | {} | {:.1}% | {:.1} | {:.5}s |\n",
            p.jobs,
            100.0 * p.utilization,
            p.jobs_per_second,
            p.makespan
        ));
    }
    let e = &current.ensemble;
    md.push_str("\n### Ensemble engine (12-member cavity study, simulated figures)\n\n");
    md.push_str("| members | members/s saturated | utilization | compiles | cache hit rate |\n");
    md.push_str("|---:|---:|---:|---:|---:|\n");
    md.push_str(&format!(
        "| {} | {:.1} | {:.1}% | {} | {:.3} (floor {ENSEMBLE_HIT_RATE_FLOOR}) |\n",
        e.members,
        e.members_per_second,
        100.0 * e.utilization,
        e.compiles,
        e.cache_hit_rate
    ));
    let h = &current.host;
    md.push_str("\n### Host wall-clock (this runner; jacobi 64^3 @ 8 nodes)\n\n");
    md.push_str("| path | host seconds | host MFLOPS |\n|---|---:|---:|\n");
    md.push_str(&format!(
        "| compiled kernels | {:.4} | {:.1} |\n",
        h.host_seconds_kernel, h.host_mflops_kernel
    ));
    md.push_str(&format!(
        "| interpreter | {:.4} | {:.1} |\n",
        h.host_seconds_interpreted, h.host_mflops_interpreted
    ));
    md.push_str(&format!(
        "\nKernel speedup: **{:.1}x** (gate floor {REQUIRED_KERNEL_SPEEDUP:.1}x).\n",
        h.kernel_speedup
    ));
    let c = &current.cert;
    md.push_str("\n### Certificate audit (this runner; jacobi 16^3 @ 4 nodes)\n\n");
    md.push_str("| certs | obligations | certs/s | audit speedup vs re-run |\n");
    md.push_str("|---:|---:|---:|---:|\n");
    md.push_str(&format!(
        "| {} | {} | {:.0} | {:.0}x (floor {REQUIRED_AUDIT_SPEEDUP:.0}x) |\n",
        c.certs, c.obligations, c.certs_per_second, c.audit_speedup
    ));
    md
}

/// The `--help` text. Spells out what `--write-baseline` does to the
/// machine-dependent `host` section, because a refreshed baseline is a
/// committed artifact: everything else in it is bit-deterministic, the
/// `host` numbers are whatever machine ran the refresh.
fn usage() -> String {
    format!(
        "perf_gate: the CI performance-regression gate over simulated figures.

usage: perf_gate [--check <baseline.json>] [--write <out.json>]
                 [--write-baseline [path]] [--summary <markdown.md>] [--help]

  --check <baseline.json>   Measure the current figures and compare them
                            against the committed baseline; any simulated
                            figure more than {drop:.0}% below its baseline
                            fails the gate. Also enforces the absolute
                            bars: 8-node scaling, overlap strictly faster
                            than synchronized, backfill strictly above
                            FIFO on park utilization and throughput, an
                            ensemble compile-cache hit rate of at least
                            {hit}, a freshly measured kernel speedup
                            of at least {speedup:.1}x over the
                            interpreter, and a freshly measured
                            certificate-audit speedup of at least
                            {audit:.0}x over re-running the workload.
  --write <out.json>        Write the measured figures as JSON.
  --summary <markdown.md>   Append a markdown figure table (CI passes
                            $GITHUB_STEP_SUMMARY).
  --write-baseline [path]   Refresh the committed baseline in place
                            (default {path}).

refresh semantics of --write-baseline:
  Every figure except the `host` section is simulated and
  bit-deterministic, so a refresh records the same numbers on any
  machine and the {drop:.0}% drop tolerance is meaningful. The `host`
  section is different: it is wall-clock, so a refresh overwrites it
  with measurements of *whatever machine ran the refresh*. That is fine
  — the committed `host` numbers are informational only. The gate never
  compares them against a baseline; the only host-side requirement is
  the freshly measured kernel-vs-interpreter speedup (at least
  {speedup:.1}x), which is a property of the code, not of the runner.
  There is no need to refresh the baseline from any particular machine.",
        drop = TOLERATED_DROP * 100.0,
        speedup = REQUIRED_KERNEL_SPEEDUP,
        hit = ENSEMBLE_HIT_RATE_FLOOR,
        audit = REQUIRED_AUDIT_SPEEDUP,
        path = BASELINE_PATH,
    )
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut write_path = None;
    let mut check_path = None;
    let mut summary_path = None;
    let mut it = args.iter().peekable();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--help" | "-h" => {
                eprintln!("{}", usage());
                return ExitCode::SUCCESS;
            }
            "--write" => write_path = it.next().cloned(),
            "--check" => check_path = it.next().cloned(),
            // CI passes $GITHUB_STEP_SUMMARY here; any writable path works.
            "--summary" => summary_path = it.next().cloned(),
            // Refreshing the committed baseline is one command instead of
            // hand-edited JSON; an optional path overrides the default.
            "--write-baseline" => {
                write_path = match it.peek() {
                    Some(p) if !p.starts_with("--") => it.next().cloned(),
                    _ => Some(BASELINE_PATH.to_string()),
                }
            }
            other => {
                eprintln!("unknown argument '{other}'\n\n{}", usage());
                return ExitCode::FAILURE;
            }
        }
    }
    if write_path.is_none() && check_path.is_none() {
        eprintln!("{}", usage());
        return ExitCode::FAILURE;
    }

    eprintln!("measuring simulated performance figures...");
    let current = measure();
    let json = serde_json::to_string_pretty(&current).expect("figures serialize");
    if let Some(path) = &write_path {
        std::fs::write(path, format!("{json}\n")).expect("baseline written");
        eprintln!("wrote {path}");
    }
    if let Some(path) = &summary_path {
        use std::io::Write;
        // Append (not truncate): $GITHUB_STEP_SUMMARY accumulates steps.
        let mut f = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(path)
            .unwrap_or_else(|e| panic!("cannot open summary {path}: {e}"));
        f.write_all(summary_markdown(&current).as_bytes()).expect("summary written");
        eprintln!("appended summary to {path}");
    }
    if let Some(path) = &check_path {
        let text = std::fs::read_to_string(path)
            .unwrap_or_else(|e| panic!("cannot read baseline {path}: {e}"));
        let baseline: Baseline = serde_json::from_str(&text).expect("baseline parses");
        eprintln!("checking against {path} (tolerated drop {:.0}%):", TOLERATED_DROP * 100.0);
        if let Err(msg) = check(&current, &baseline) {
            eprintln!("FAIL: {msg}");
            return ExitCode::FAILURE;
        }
        eprintln!("all figures within tolerance");
    }
    ExitCode::SUCCESS
}
