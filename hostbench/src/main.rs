//! Host wall-clock benchmark of the NSC environment.
//!
//! ```text
//! cargo run --release --offline --manifest-path hostbench/Cargo.toml -- \
//!     --workload jacobi-solve --seed 1 --seconds 35 --trace 0
//! ```
//!
//! `--trace 0` measures the end-to-end metrics; `--trace 1` runs every
//! operation twice, untraced and traced, and reports the per-layer split.
//! End-to-end times are rescaled to a reference host speed by a yardstick
//! timed between operations (`yardstick.rs`); per-layer times are
//! wall-clock.
//! The last line of standard output is one JSON object with `correct`,
//! `attempted`, `failed` and `metrics`; the lines before it are the
//! human-readable report, also written to `target/hostbench/`. See
//! `hostbench/README.md`.

mod cavity;
mod compile;
mod harness;
mod jacobi;
mod stats;
mod system;
mod trace;
mod yardstick;

use harness::{RunData, Workload};
use stats::{median, tail, Series};
use std::fmt::Write as _;
use std::path::Path;
use std::process::ExitCode;
use system::Provenance;
use trace::{analyze, Analysis, ROOT};

/// The seed a run uses when none is given.
const DEFAULT_SEED: u64 = 1;
/// Spans written to the trace file at most.
const SPAN_FILE_LIMIT: usize = 200_000;
/// Where reports and span files go, relative to the working directory.
const OUT_DIR: &str = "target/hostbench";

const USAGE: &str = "usage: hostbench --workload <jacobi-solve|compile-stream|cavity-ensemble> \
                     [--seed <u64>] [--seconds <s>] [--trace <0|1>]";

/// The end-to-end metrics (untraced run), with units.
const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("op_p50_s", "s"),
    ("op_tail_s", "s"),
    ("throughput", "1/s"),
    ("ok_frac", "frac"),
];

/// Where a per-layer metric's value comes from.
#[derive(Debug, Clone, Copy)]
enum Source {
    /// Mean time per traced operation inside spans of this name.
    Span(&'static str),
    /// Mean self time per traced operation of spans of this name.
    SelfTime(&'static str),
    /// Mean self time per traced operation booked to this layer.
    Layer(&'static str),
    /// Median of a recorded series.
    Median(&'static str),
    /// Mean of a recorded series.
    Mean(&'static str),
    /// Smallest value of a recorded series.
    Min(&'static str),
    /// Largest value of a recorded series.
    Max(&'static str),
    /// Computed from several sources ([`derived`]).
    Derived,
}

use Source::*;

/// The per-layer metrics (traced run): name, unit, source. Every
/// workload reports all of them; a layer a workload never enters reads 0.
const PER_LAYER: &[(&str, &str, Source)] = &[
    ("sim.system_new_s", "s", Span("sim.system_new")),
    ("cfd.scatter_s", "s", Span("cfd.scatter")),
    ("cfd.load_s", "s", Span("cfd.load")),
    ("core.compile_s", "s", Span("core.compile")),
    ("cfd.sweep_s", "s", Span("cfd.sweep")),
    ("sim.reduce_s", "s", Span("sim.reduce")),
    ("cfd.gather_s", "s", Span("cfd.gather")),
    ("diagram.digest_s", "s", Span("diagram.digest")),
    ("checker.bind_s", "s", Span("checker.bind")),
    ("checker.check_s", "s", Span("checker.check")),
    ("codegen.generate_s", "s", Span("codegen.generate")),
    ("sim.kernel_compile_s", "s", Span("sim.kernel_compile")),
    ("core.certify_s", "s", Span("core.certify")),
    ("core.rebind_s", "s", Span("core.rebind")),
    ("ensemble.run_s", "s", Span("ensemble.run")),
    ("cfd.member_s", "s", Span("cfd.member")),
    ("park.self_s", "s", SelfTime("ensemble.run")),
    ("cert.verify_s", "s", Span("cert.verify")),
    ("core.compile_miss_s", "s", Median("core.compile_miss_s")),
    ("core.compile_rebind_s", "s", Median("core.compile_rebind_s")),
    ("core.compile_hit_s", "s", Median("core.compile_hit_s")),
    ("sim.flops", "count", Mean("sim.flops")),
    ("sim.kernel_coverage", "frac", Derived),
    ("sim.host_mflops", "MFLOP/s", Derived),
    ("sim.simulated_s", "s", Mean("sim.simulated_s")),
    ("sim.comm_hidden_frac", "frac", Mean("sim.comm_hidden_frac")),
    ("cfd.words_staged", "count", Mean("cfd.words_staged")),
    ("core.cache_hits", "count", Mean("core.cache_hits")),
    ("core.cache_rebinds", "count", Mean("core.cache_rebinds")),
    ("core.cache_misses", "count", Mean("core.cache_misses")),
    ("core.cache_hits_min", "count", Min("core.cache_hits")),
    ("core.cache_hits_max", "count", Max("core.cache_hits")),
    ("core.cache_rebinds_min", "count", Min("core.cache_rebinds")),
    ("core.cache_rebinds_max", "count", Max("core.cache_rebinds")),
    ("core.cache_misses_min", "count", Min("core.cache_misses")),
    ("core.cache_misses_max", "count", Max("core.cache_misses")),
    ("core.hit_rate", "frac", Derived),
    ("codegen.instructions", "count", Mean("codegen.instructions")),
    ("diagram.icons", "count", Mean("diagram.icons")),
    ("cert.certs", "count", Mean("cert.certs")),
    ("cert.obligations", "count", Mean("cert.obligations")),
    ("park.utilization", "frac", Mean("park.utilization")),
    ("process.user_cpu_s", "s", Derived),
    ("process.sys_cpu_s", "s", Derived),
    ("process.minor_faults", "count", Derived),
    ("process.peak_rss_mb", "MB", Derived),
    ("self.diagram_s", "s", Layer("diagram")),
    ("self.checker_s", "s", Layer("checker")),
    ("self.codegen_s", "s", Layer("codegen")),
    ("self.sim_s", "s", Layer("sim")),
    ("self.core_s", "s", Layer("core")),
    ("self.cfd_s", "s", Layer("cfd")),
    ("self.park_s", "s", Layer("park")),
    ("self.ensemble_s", "s", Layer("ensemble")),
    ("self.cert_s", "s", Layer("cert")),
    ("trace.coverage", "frac", Derived),
    ("trace.uncovered_s", "s", SelfTime(ROOT)),
    ("trace.overhead_s", "s", Derived),
    ("trace.op_traced_s", "s", Derived),
    ("trace.op_untraced_s", "s", Derived),
    ("host.yardstick_pass_s", "s", Derived),
];

/// Parsed command line.
#[derive(Debug, Clone, PartialEq)]
struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

impl Args {
    fn parse(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
        let mut a =
            Args { workload: String::new(), seed: DEFAULT_SEED, seconds: 10.0, trace: false };
        while let Some(flag) = it.next() {
            let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
            let bad = |what: &str| format!("{flag}: '{value}' is not {what}");
            match flag.as_str() {
                "--workload" => a.workload = value,
                "--seed" => a.seed = value.parse().map_err(|_| bad("an unsigned integer"))?,
                "--seconds" => {
                    a.seconds = value.parse().map_err(|_| bad("a number"))?;
                    if !(a.seconds > 0.0 && a.seconds.is_finite()) {
                        return Err(bad("a positive number of seconds"));
                    }
                }
                "--trace" => {
                    a.trace = match value.as_str() {
                        "0" => false,
                        "1" => true,
                        _ => return Err(bad("0 or 1")),
                    }
                }
                _ => return Err(format!("unknown flag {flag}")),
            }
        }
        if a.workload.is_empty() {
            return Err("--workload is required".into());
        }
        Ok(a)
    }
}

/// What the run produced, independent of the workload type.
struct Finished {
    data: RunData,
    item: &'static str,
    predicted: &'static [&'static str],
}

fn run<W: Workload>(args: &Args) -> Result<Finished, String> {
    let data = harness::run::<W>(args.seed, args.seconds, args.trace)?;
    Ok(Finished { data, item: W::ITEM, predicted: W::PREDICTED })
}

fn sum(series: &Series, name: &str) -> f64 {
    series.values(name).iter().sum()
}

fn derived(name: &str, d: &RunData, a: &Analysis) -> f64 {
    let per_op = |t: f64| if a.ops > 0 { t / a.ops as f64 } else { 0.0 };
    let traced_ops = d.traced.len().max(1) as f64;
    let s = &d.series;
    match name {
        "sim.kernel_coverage" => {
            let instructions = sum(s, "sim.kernel_instructions");
            if instructions > 0.0 {
                sum(s, "sim.kernel_specialized") / instructions
            } else {
                0.0
            }
        }
        "sim.host_mflops" => {
            let sweep = per_op(a.total.get("cfd.sweep").copied().unwrap_or(0.0));
            let flops = s.summary("sim.flops").map_or(0.0, |x| x.mean);
            if sweep > 0.0 {
                flops / sweep / 1e6
            } else {
                0.0
            }
        }
        "core.hit_rate" => {
            let (h, r, m) = (
                sum(s, "core.cache_hits"),
                sum(s, "core.cache_rebinds"),
                sum(s, "core.cache_misses"),
            );
            if h + r + m > 0.0 {
                (h + r) / (h + r + m)
            } else {
                0.0
            }
        }
        "process.user_cpu_s" => d.proc.user_s / traced_ops,
        "process.sys_cpu_s" => d.proc.sys_s / traced_ops,
        "process.minor_faults" => d.proc.minor_faults / traced_ops,
        "process.peak_rss_mb" => d.peak_rss_mb,
        "trace.coverage" => a.coverage(),
        "trace.overhead_s" => median(&d.traced) - median(&d.wall_latencies),
        "trace.op_traced_s" => median(&d.traced),
        "trace.op_untraced_s" => median(&d.wall_latencies),
        "host.yardstick_pass_s" => d.yardstick_pass_s,
        other => unreachable!("no derivation for {other}"),
    }
}

fn per_layer_value(
    source: Source,
    name: &str,
    d: &RunData,
    a: &Analysis,
    layers: &[(&str, f64)],
) -> f64 {
    let per_op =
        |t: Option<&f64>| if a.ops > 0 { t.copied().unwrap_or(0.0) / a.ops as f64 } else { 0.0 };
    let summary = |n: &str| d.series.summary(n);
    match source {
        Span(n) => per_op(a.total.get(n)),
        SelfTime(n) => per_op(a.self_time.get(n)),
        Layer(l) => per_op(layers.iter().find(|(x, _)| *x == l).map(|(_, t)| t)),
        Median(n) => summary(n).map_or(0.0, |s| s.median),
        Mean(n) => summary(n).map_or(0.0, |s| s.mean),
        Min(n) => summary(n).map_or(0.0, |s| s.min),
        Max(n) => summary(n).map_or(0.0, |s| s.max),
        Derived => derived(name, d, a),
    }
}

/// A metric ready to print: name, value, unit.
type Metric = (&'static str, f64, &'static str);

fn end_to_end(d: &RunData) -> Vec<Metric> {
    let busy: f64 = d.latencies.iter().sum();
    let value = |name: &str| match name {
        "setup_s" => median(&d.setup_s),
        "op_p50_s" => median(&d.latencies),
        "op_tail_s" => tail(&d.latencies).value,
        "throughput" => {
            if busy > 0.0 {
                d.latencies.len() as f64 * d.items_per_op / busy
            } else {
                0.0
            }
        }
        "ok_frac" => (d.attempted.saturating_sub(d.failed)) as f64 / d.attempted.max(1) as f64,
        other => unreachable!("no end-to-end metric {other}"),
    };
    END_TO_END.iter().map(|&(n, u)| (n, value(n), u)).collect()
}

fn per_layer(d: &RunData, a: &Analysis) -> Vec<Metric> {
    let layers: Vec<(&str, f64)> = a.layers().into_iter().collect();
    PER_LAYER.iter().map(|&(n, u, src)| (n, per_layer_value(src, n, d, a, &layers), u)).collect()
}

/// A JSON number; non-finite values (which JSON cannot hold) become 0.
fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".into()
    }
}

fn result_json(correct: bool, d: &RunData, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|(n, v, u)| format!("\"{n}\": {{\"value\": {}, \"unit\": \"{u}\"}}", json_number(*v)))
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        d.attempted,
        d.failed,
        body.join(", ")
    )
}

/// The human-readable report.
fn report(
    args: &Args,
    prov: &Provenance,
    f: &Finished,
    a: &Analysis,
    metrics: &[Metric],
) -> String {
    let d = &f.data;
    let mut r = String::new();
    let mode = if args.trace { "traced" } else { "timed" };
    let _ = writeln!(r, "hostbench {} ({mode}), {:.3} s measured loop", args.workload, d.loop_s);
    let _ = writeln!(
        r,
        "provenance: seed={} nproc={} cpu=\"{}\" rustc=\"{}\" commit={}",
        prov.seed, prov.nproc, prov.cpu, prov.rustc, prov.commit
    );
    let _ = writeln!(
        r,
        "host speed: {} yardstick samples, median {:.4e} s per pass against {:.4e} s at the \
         reference speed; end-to-end times are rescaled to it",
        d.yardstick_samples,
        d.yardstick_pass_s,
        yardstick::NOMINAL_PASS_S
    );
    let _ = writeln!(
        r,
        "set-up: {} runs, {:.4} s to {:.4} s wall-clock, median {:.4} s wall-clock",
        d.wall_setup_s.len(),
        d.wall_setup_s.iter().copied().fold(f64::INFINITY, f64::min),
        d.wall_setup_s.iter().copied().fold(0.0, f64::max),
        median(&d.wall_setup_s)
    );
    let t = tail(&d.latencies);
    let _ = writeln!(
        r,
        "operations: {} attempted, {} failed; {} untraced latency samples, tail = p{:.2} \
         with {} samples beyond it; throughput counts {} ({} per operation); wall-clock \
         median {:.6e} s, tail {:.6e} s",
        d.attempted,
        d.failed,
        d.latencies.len(),
        t.percentile,
        t.beyond,
        f.item,
        d.items_per_op,
        median(&d.wall_latencies),
        tail(&d.wall_latencies).value
    );
    let _ = writeln!(r, "memory: peak resident {:.2} MB (VmHWM, whole run)", d.peak_rss_mb);
    for e in &d.errors {
        let _ = writeln!(r, "FAILED: {e}");
    }
    let _ = writeln!(r, "metrics:");
    for (n, v, u) in metrics {
        let _ = writeln!(r, "  {n:<24} {v:>16.6e} {u}");
    }
    let names: Vec<&str> = d.series.names().collect();
    if !names.is_empty() {
        let _ = writeln!(r, "per-operation values (exact = equal on every operation):");
        for n in names {
            let s = d.series.summary(n).expect("listed names have values");
            let spread = if s.exact() {
                "exact".to_string()
            } else {
                format!("range {:.6e} - {:.6e}", s.min, s.max)
            };
            let _ = writeln!(r, "  {n:<26} n={:<7} mean={:.6e} {spread}", s.n, s.mean);
        }
    }
    if args.trace {
        let ops = a.ops.max(1) as f64;
        let wall = a.op_wall / ops;
        let _ = writeln!(
            r,
            "per-layer self time per traced operation ({} operations, {wall:.6e} s wall-clock; \
             rows sum past 100% where node threads run spans concurrently):",
            a.ops
        );
        let after = a.after_layers();
        for (layer, t) in a.layers() {
            let inside = (t - after.get(layer).copied().unwrap_or(0.0)) / ops;
            if inside > 0.0 {
                let share = if wall > 0.0 { 100.0 * inside / wall } else { 0.0 };
                let _ = writeln!(r, "  {layer:<10} {inside:>12.6e} s  {share:>6.2}%");
            }
        }
        let uncovered = a.self_time.get(ROOT).copied().unwrap_or(0.0) / a.ops.max(1) as f64;
        let _ =
            writeln!(r, "  {:<10} {uncovered:>12.6e} s  (not covered by any span)", "remainder");
        for (layer, t) in &after {
            let _ = writeln!(
                r,
                "  {layer:<10} {:>12.6e} s  (after the operation: its checks)",
                t / ops
            );
        }
        let met = if a.coverage() >= 0.95 { "met" } else { "NOT met" };
        let _ = writeln!(
            r,
            "span coverage of operation wall-clock: {:.2}% (gate >= 95%: {met})",
            100.0 * a.coverage()
        );
        let _ = writeln!(
            r,
            "tracing overhead: traced median {:.6e} s - untraced median {:.6e} s = {:.6e} s \
             (wall-clock)",
            median(&d.traced),
            median(&d.wall_latencies),
            median(&d.traced) - median(&d.wall_latencies)
        );
        let predicted: f64 = f.predicted.iter().filter_map(|n| a.self_time.get(n)).sum();
        let share = if a.op_wall > 0.0 { predicted / a.op_wall } else { 0.0 };
        let top = a
            .self_time
            .iter()
            .filter(|(n, _)| **n != ROOT && !a.after_names.contains(*n))
            .max_by(|x, y| x.1.total_cmp(y.1))
            .map_or("none", |(n, _)| n);
        let verdict = if share >= 0.5 { "confirmed" } else { "refuted" };
        let _ = writeln!(
            r,
            "prediction: {} dominate; they hold {:.1}% of operation wall-clock in self time \
             ({verdict}); largest single span: {top}",
            f.predicted.join(" + "),
            100.0 * share
        );
    }
    r
}

fn write_outputs(args: &Args, report: &str, f: &Finished) -> std::io::Result<()> {
    let dir = Path::new(OUT_DIR);
    std::fs::create_dir_all(dir)?;
    let stem = format!("{}-seed{}-trace{}", args.workload, args.seed, u8::from(args.trace));
    std::fs::write(dir.join(format!("{stem}.txt")), report)?;
    if args.trace {
        let file = std::fs::File::create(dir.join(format!("{stem}.spans.jsonl")))?;
        let mut out = std::io::BufWriter::new(file);
        let dropped = trace::write_jsonl(&mut out, &f.data.spans, SPAN_FILE_LIMIT)?;
        std::io::Write::flush(&mut out)?;
        if dropped > 0 {
            println!("span file holds the first {SPAN_FILE_LIMIT} spans; {dropped} more were analysed but not written");
        }
    }
    Ok(())
}

fn main() -> ExitCode {
    let args = match Args::parse(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("hostbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let finished = match args.workload.as_str() {
        "jacobi-solve" => run::<jacobi::JacobiSolve>(&args),
        "compile-stream" => run::<compile::CompileStream>(&args),
        "cavity-ensemble" => run::<cavity::CavityEnsemble>(&args),
        other => Err(format!("unknown workload '{other}'\n{USAGE}")),
    };
    let f = match finished {
        Ok(f) => f,
        Err(e) => {
            eprintln!("hostbench: {e}");
            return ExitCode::FAILURE;
        }
    };
    let prov = Provenance::gather(args.seed, Path::new("."));
    let analysis = analyze(&f.data.spans);
    let metrics = if args.trace { per_layer(&f.data, &analysis) } else { end_to_end(&f.data) };
    let text = report(&args, &prov, &f, &analysis, &metrics);
    print!("{text}");
    if let Err(e) = write_outputs(&args, &text, &f) {
        eprintln!("hostbench: could not write {OUT_DIR}: {e}");
    }
    let correct = f.data.failed == 0 && f.data.attempted > 0;
    println!("{}", result_json(correct, &f.data, &metrics));
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(v: &[&str]) -> Result<Args, String> {
        Args::parse(v.iter().map(|s| s.to_string()))
    }

    #[test]
    fn parses_the_command_line() {
        let a =
            args(&["--workload", "jacobi-solve", "--seed", "7", "--seconds", "20", "--trace", "1"])
                .unwrap();
        assert_eq!(
            a,
            Args { workload: "jacobi-solve".into(), seed: 7, seconds: 20.0, trace: true }
        );
        assert_eq!(args(&["--workload", "x"]).unwrap().seed, DEFAULT_SEED);
        assert!(args(&["--seed", "1"]).is_err());
        assert!(args(&["--workload", "x", "--trace", "2"]).is_err());
        assert!(args(&["--workload", "x", "--seconds", "0"]).is_err());
        assert!(args(&["--workload"]).is_err());
    }

    #[test]
    fn the_result_line_has_exactly_four_keys() {
        let d = RunData { attempted: 3, failed: 1, ..RunData::default() };
        let line = result_json(false, &d, &[("op_p50_s", 0.25, "s"), ("x", f64::NAN, "count")]);
        assert_eq!(
            line,
            "{\"correct\": false, \"attempted\": 3, \"failed\": 1, \"metrics\": {\"op_p50_s\": \
             {\"value\": 0.25, \"unit\": \"s\"}, \"x\": {\"value\": 0, \"unit\": \"count\"}}}"
        );
    }

    /// The metric lists here and in `BENCHMARK.json` must not drift apart.
    #[test]
    fn every_metric_is_declared_in_benchmark_json() {
        let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
        let Ok(json) = std::fs::read_to_string(path) else { return };
        let declared =
            |n: &str, u: &str| json.contains(&format!("\"name\": \"{n}\", \"unit\": \"{u}\""));
        for (n, u) in END_TO_END {
            assert!(declared(n, u), "{n} ({u}) missing from BENCHMARK.json");
        }
        for (n, u, _) in PER_LAYER {
            assert!(declared(n, u), "{n} ({u}) missing from BENCHMARK.json");
        }
        let (names, workloads) =
            (json.matches("\"name\": ").count(), json.matches("\"why\": ").count());
        assert_eq!(names, workloads + END_TO_END.len() + PER_LAYER.len(), "undeclared extras");
    }
}
