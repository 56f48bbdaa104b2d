//! `mtc_benchmark`: the repository's wall-clock benchmark.
//!
//! Four closed-loop workloads against an in-process backend + cache tier,
//! end-to-end metrics from an untraced run, per-layer metrics from a traced
//! run, and an audit of the answers against the backend. See the README of
//! this package.

mod audit;
mod corpus;
mod deck;
mod deploy;
mod driver;
mod json;
mod layers;
mod metrics;
mod stats;
#[cfg(test)]
mod tests;
mod trace;
mod workloads;
mod zipf;

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::{Command, ExitCode};
use std::time::{Duration, Instant};

use mtc_tpcw::{Interaction, Scale};

use driver::{Limit, Phase};
use json::Json;
use metrics::{END_TO_END, PER_LAYER};
use trace::Tracer;
use workloads::{Runner, Spec, SCALE, SPECS};

/// Seconds one run measures unless `--seconds` says otherwise.
const DEFAULT_SECONDS: u64 = 30;
/// Fresh deployments set up (and warmed) per untraced run; `setup_s` is
/// their median and the last one is measured.
const SETUP_REPEATS: usize = 3;
/// Bound instances per statement shape the layer stepper walks.
const STEPPER_REPS: usize = 200;
/// Spans the traced phase may keep (one per sampled operation and three
/// per pump).
const RUN_SPANS: usize = 1 << 18;
/// Where the traced run writes its spans, relative to the working directory.
const SPANS_DIR: &str = ".bench_trace";

/// Everything that sizes one run; tests shrink it.
pub struct RunConfig {
    pub scale: Scale,
    pub seed: u64,
    /// Length of the measured phase.
    pub limit: Limit,
    pub warmup_ops: u64,
    pub setup_repeats: usize,
    pub stepper_reps: usize,
    pub spans_dir: Option<PathBuf>,
}

/// What one run reports: the result line plus the lines a person reads.
#[derive(Default)]
pub struct Report {
    pub attempted: u64,
    pub failed: u64,
    /// `(name, value, unit)` in the order of the metric tables.
    pub metrics: Vec<(&'static str, f64, &'static str)>,
    pub text: Vec<String>,
}

impl Report {
    pub fn correct(&self) -> bool {
        self.failed == 0
    }

    /// The one-line JSON object the benchmark ends its output with.
    pub fn result_line(&self) -> Json {
        Json::obj([
            ("correct", Json::Bool(self.correct())),
            ("attempted", Json::Num(self.attempted as f64)),
            ("failed", Json::Num(self.failed as f64)),
            (
                "metrics",
                Json::Obj(
                    self.metrics
                        .iter()
                        .map(|(name, value, unit)| {
                            (
                                name.to_string(),
                                Json::obj([
                                    ("value", Json::Num(*value)),
                                    ("unit", Json::Str(unit.to_string())),
                                ]),
                            )
                        })
                        .collect(),
                ),
            ),
        ])
    }
}

/// Peak resident set of this process in MiB (`VmHWM`).
fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("peak_rss_mb needs /proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "no VmHWM line in /proc/self/status".to_string())
}

/// A fresh deployment, warmed up. Returns the runner, the warm-up phase and
/// how long both took.
fn set_up(spec: &'static Spec, cfg: &RunConfig) -> Result<(Runner, Phase, f64), String> {
    let begin = Instant::now();
    let mut runner = Runner::new(spec, cfg.scale, cfg.seed)
        .map_err(|e| format!("setting up `{}`: {e}", spec.name))?;
    let phase = driver::run(&mut runner, Limit::ops(cfg.warmup_ops), false, None);
    Ok((runner, phase, begin.elapsed().as_secs_f64()))
}

/// Adds a phase's operations to the report's attempted/failed counts.
fn count_ops(report: &mut Report, what: &str, phase: &Phase) {
    report.attempted += phase.ops;
    report.failed += phase.failed;
    if let Some(e) = &phase.first_error {
        report.text.push(format!(
            "  FAILED {what}: {} of {} operations returned Err, first: {e}",
            phase.failed, phase.ops
        ));
    }
    if phase.pump_errors > 0 {
        report.text.push(format!(
            "  {what}: {} of {} pumps returned Err and were retried on the next tick",
            phase.pump_errors, phase.pumps
        ));
    }
}

fn count_audit(report: &mut Report, audit: &audit::Audit) {
    report.attempted += audit.probes;
    report.failed += audit.failed;
    for line in &audit.failures {
        report.text.push(format!("  FAILED audit: {line}"));
    }
    report.text.push(format!(
        "  audit: {} probes against the backend, {} failed",
        audit.probes, audit.failed
    ));
}

fn sorted_us(samples_ns: &[u32]) -> Vec<f64> {
    let mut us: Vec<f64> = samples_ns.iter().map(|&n| n as f64 / 1000.0).collect();
    us.sort_by(f64::total_cmp);
    us
}

/// The untraced run: the end-to-end metrics.
pub fn run_end_to_end(spec: &'static Spec, cfg: &RunConfig) -> Result<Report, String> {
    let mut report = Report::default();
    let mut setups = Vec::new();
    let mut runner = None;
    for _ in 0..cfg.setup_repeats.max(1) {
        // The previous deployment goes before the next one is built, so
        // peak memory is one deployment's.
        drop(runner.take());
        let (r, warmup, seconds) = set_up(spec, cfg)?;
        count_ops(&mut report, "warm-up", &warmup);
        setups.push(seconds);
        runner = Some(r);
    }
    let mut runner = runner.expect("at least one set-up");
    let phase = driver::run(&mut runner, cfg.limit, true, None);
    let rss = peak_rss_mb()?;
    count_ops(&mut report, "measured phase", &phase);
    let audit = audit::run(&runner, cfg.seed);

    let setup_text: Vec<String> = setups.iter().map(|s| format!("{s:.3}")).collect();
    let latencies = sorted_us(&phase.samples_ns);
    let n = latencies.len();
    let wall = phase.wall.as_secs_f64();
    // The median is taken per slice and the lower quartile of the slices is
    // reported: the host slows down for seconds at a time, which can only
    // raise a slice's median, and a median taken over the whole run jumps
    // when it lies between two kinds of operation.
    let mut slice_p50: Vec<f64> = phase
        .slice_samples()
        .map(|samples| stats::percentile(&sorted_us(samples), 50.0))
        .collect();
    slice_p50.sort_by(f64::total_cmp);
    let mut slice_rate: Vec<f64> = phase
        .slices
        .iter()
        .map(|s| cfg.limit.slice_ops as f64 / s.wall.as_secs_f64())
        .collect();
    slice_rate.sort_by(f64::total_cmp);
    let values = [
        (
            stats::median(&mut setups),
            format!("median of {}: {}", setup_text.len(), setup_text.join(" ")),
        ),
        (
            phase.ops as f64 / wall,
            format!(
                "{} ops in {wall:.2} s, {} inline pumps taking {:.0} % of it; \
                 the slices ran at {:.4} to {:.4}, median {:.4}",
                phase.ops,
                phase.pumps,
                100.0 * phase.pump_wall.as_secs_f64() / wall,
                stats::percentile(&slice_rate, 0.0),
                stats::percentile(&slice_rate, 100.0),
                stats::percentile(&slice_rate, 50.0)
            ),
        ),
        (
            stats::percentile(&slice_p50, 25.0),
            format!(
                "lower quartile of the medians of {} slices of {} ops, which span {:.4} to {:.4}; \
                 {:.4} over all {n} samples; pumps excluded",
                slice_p50.len(),
                cfg.limit.slice_ops,
                stats::percentile(&slice_p50, 0.0),
                stats::percentile(&slice_p50, 100.0),
                stats::percentile(&latencies, 50.0)
            ),
        ),
        (
            stats::percentile(&latencies, 99.0),
            format!(
                "{n} samples, {} beyond it; highest supported percentile is p{}",
                n / 100,
                stats::highest_supported_percentile(n)
            ),
        ),
        (
            phase.backend_rtts_per_op(),
            format!(
                "{} backend round trips in the first {} operations; repeats exactly for a seed",
                phase.backend_rtts(),
                phase.counted_ops
            ),
        ),
        (rss, "VmHWM of this process".to_string()),
    ];
    for (def, (value, note)) in END_TO_END.iter().zip(values) {
        report.text.push(format!(
            "  {:<22} {value:>14.4} {:<6} ({note})",
            def.name, def.unit
        ));
        report.metrics.push((def.name, value, def.unit));
    }
    count_audit(&mut report, &audit);
    Ok(report)
}

/// The traced run: the per-layer metrics.
pub fn run_traced(spec: &'static Spec, cfg: &RunConfig) -> Result<Report, String> {
    let mut report = Report::default();
    // The traced phase gets half the run's length; the untraced phase it is
    // compared with only feeds `trace.overhead_pct` and gets a quarter.
    let part = |divisor: u32| Limit {
        time: cfg.limit.time / divisor,
        ops: cfg.limit.ops / u64::from(divisor),
        ..cfg.limit
    };
    // The first deployment of a process pays for growing the heap; both
    // phases compared below run on a later one.
    let (_, warmup, _) = set_up(spec, cfg)?;
    count_ops(&mut report, "warm-up", &warmup);
    let (mut runner, warmup, _) = set_up(spec, cfg)?;
    count_ops(&mut report, "warm-up", &warmup);
    let untraced = driver::run(&mut runner, part(4), true, None);
    count_ops(&mut report, "untraced phase", &untraced);
    drop(runner);

    let (mut runner, warmup, _) = set_up(spec, cfg)?;
    count_ops(&mut report, "warm-up", &warmup);
    let mut tracer = Tracer::with_capacity(RUN_SPANS);
    let before = layers::Counters::read(&runner.dep);
    let phase = driver::run(&mut runner, part(2), true, Some(&mut tracer));
    let after = layers::Counters::read(&runner.dep);
    count_ops(&mut report, "traced phase", &phase);

    let mut values: BTreeMap<String, f64> = BTreeMap::new();
    layers::counter_metrics(&runner.dep, &phase, &before, &after, &mut values);
    for (metric, span) in [
        (
            "replication.hub.log_reader_us",
            "replication.hub.log_reader",
        ),
        (
            "replication.hub.distribute_us",
            "replication.hub.distribute",
        ),
    ] {
        values.insert(
            metric.to_string(),
            stats::median_us(&tracer.durations(span)),
        );
    }
    for interaction in Interaction::ALL {
        values.insert(
            format!("tpcw.{}.p50_us", interaction.name()),
            stats::median_us(&tracer.durations(interaction.name())),
        );
    }
    let rate = |p: &Phase| p.ops as f64 / p.wall.as_secs_f64();
    values.insert(
        "trace.overhead_pct".to_string(),
        100.0 * (rate(&untraced) - rate(&phase)) / rate(&untraced),
    );

    let stepped = layers::step(&runner, cfg.seed, cfg.stepper_reps, &mut values);
    report.attempted += stepped.attempted;
    report.failed += stepped.failed;
    if let Some(e) = &stepped.first_error {
        report.text.push(format!(
            "  FAILED stepper: {} of {} statements returned Err, first: {e}",
            stepped.failed, stepped.attempted
        ));
    }
    values.insert(
        "trace.spans_dropped".to_string(),
        (tracer.dropped + stepped.tracer.dropped) as f64,
    );
    let audit = audit::run(&runner, cfg.seed);

    if let Some(dir) = &cfg.spans_dir {
        for (part, t) in [("run", &tracer), ("stepper", &stepped.tracer)] {
            let path = dir.join(format!("{}.{part}.spans.tsv", spec.name));
            t.write_tsv(&path)
                .map_err(|e| format!("writing {}: {e}", path.display()))?;
            report.text.push(format!(
                "  {} spans written to {}",
                t.spans().len(),
                path.display()
            ));
        }
    }

    report.text.push(format!(
        "  traced phase: {} ops in {:.2} s; stepper: {} statements, {} per shape",
        phase.ops,
        phase.wall.as_secs_f64(),
        stepped.attempted,
        cfg.stepper_reps
    ));
    for (name, unit, _) in PER_LAYER {
        let value = values
            .remove(name)
            .ok_or_else(|| format!("per-layer metric `{name}` was not measured"))?;
        if metrics::measured_on(name, spec.kind) {
            report
                .text
                .push(format!("  {name:<42} {value:>14.4} {unit}"));
            report.metrics.push((name, value, unit));
        } else {
            // The result line must carry every per-layer metric; one that is
            // no part of this workload reads 0 there and n/a here.
            report
                .text
                .push(format!("  {name:<42} {:>14} {unit}", "n/a"));
            report.metrics.push((name, 0.0, unit));
        }
    }
    if let Some(extra) = values.keys().next() {
        return Err(format!("measured `{extra}`, which PER_LAYER does not list"));
    }
    report.text.extend(on_path_shares(&report.metrics));
    count_audit(&mut report, &audit);
    Ok(report)
}

/// Where one statement's time goes, estimated from the per-layer metrics:
/// binding, optimizing and compiling are only on the path of a plan-cache
/// miss, so they count in proportion to the miss rate.
fn on_path_shares(metrics: &[(&'static str, f64, &'static str)]) -> Vec<String> {
    let get = |name: &str| {
        metrics
            .iter()
            .find(|(n, _, _)| *n == name)
            .map_or(0.0, |(_, v, _)| *v)
    };
    let miss = 1.0 - get("core.plan_cache.hit_rate");
    let parts = [
        ("sql.parse", get("sql.parse_us")),
        ("core.plan_cache.lookup", get("core.plan_cache.lookup_us")),
        ("engine.binder.bind", miss * get("engine.binder.bind_us")),
        (
            "engine.optimizer.optimize",
            miss * get("engine.optimizer.optimize_us"),
        ),
        (
            "engine.compile.compile",
            miss * get("engine.compile.compile_us"),
        ),
        ("engine.stream.execute", get("engine.stream.execute_us")),
        ("core.cache (self)", get("core.cache.overhead_us").max(0.0)),
    ];
    let total: f64 = parts.iter().map(|(_, us)| us).sum();
    let mut lines = vec![format!(
        "  estimated local time of one statement, by layer ({total:.1} us; plan-cache miss rate {miss:.3}; \
         replication takes {:.0} % of the wall on top):",
        100.0 * get("replication.hub.pump_share")
    )];
    for (name, us) in parts {
        lines.push(format!(
            "    {name:<28} {us:>10.2} us {:>5.1} %",
            if total > 0.0 { 100.0 * us / total } else { 0.0 }
        ));
    }
    lines
}

struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: u64,
    trace: bool,
    check_repeat: bool,
}

const USAGE: &str = "usage: mtc_benchmark [--workload browse|order|hotpoint|fleet_adhoc] \
[--seed <u64>] [--seconds <1..=60>] [--trace 0|1] [--check-repeat]";

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut out = Args {
        workload: None,
        seed: 42,
        seconds: DEFAULT_SECONDS,
        trace: false,
        check_repeat: false,
    };
    let mut at = 0;
    let value = |at: &mut usize, flag: &str| -> Result<String, String> {
        *at += 1;
        args.get(*at)
            .cloned()
            .ok_or_else(|| format!("{flag} needs a value"))
    };
    while at < args.len() {
        match args[at].as_str() {
            "--workload" => {
                let name = value(&mut at, "--workload")?;
                if workloads::spec(&name).is_none() {
                    return Err(format!("unknown workload `{name}`"));
                }
                out.workload = Some(name);
            }
            "--seed" => {
                let v = value(&mut at, "--seed")?;
                out.seed = v.parse().map_err(|_| format!("bad --seed `{v}`"))?;
            }
            "--seconds" => {
                let v = value(&mut at, "--seconds")?;
                out.seconds = v
                    .parse()
                    .ok()
                    .filter(|s| (1..=60).contains(s))
                    .ok_or_else(|| format!("bad --seconds `{v}`"))?;
            }
            "--trace" => {
                out.trace = match value(&mut at, "--trace")?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("bad --trace `{v}`")),
                };
            }
            "--check-repeat" => out.check_repeat = true,
            other => return Err(format!("unknown argument `{other}`")),
        }
        at += 1;
    }
    Ok(out)
}

/// Runs one workload in this process and prints its report; the result line
/// goes last.
fn run_here(spec: &'static Spec, args: &Args) -> ExitCode {
    let cfg = RunConfig {
        scale: SCALE,
        seed: args.seed,
        limit: Limit {
            time: Duration::from_secs(args.seconds),
            ops: spec.counted_ops,
            slice_ops: spec.slice_ops,
        },
        warmup_ops: spec.warmup_ops,
        setup_repeats: SETUP_REPEATS,
        stepper_reps: STEPPER_REPS,
        spans_dir: Some(PathBuf::from(SPANS_DIR)),
    };
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    println!(
        "mtc_benchmark workload={} seed={} seconds={} trace={} nproc={nproc} \
         (one driver thread, closed loop; {} items x {} browsers; pump every {} ops; {})",
        spec.name,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        SCALE.items,
        SCALE.emulated_browsers,
        spec.pump_every,
        spec.why
    );
    let report = if args.trace {
        run_traced(spec, &cfg)
    } else {
        run_end_to_end(spec, &cfg)
    };
    match report {
        Ok(report) => {
            for line in &report.text {
                println!("{line}");
            }
            // Not a key of the result line's `metrics`, where nothing may
            // read 0: there the same two counts are `failed` and `attempted`.
            println!(
                "  {:<22} {:>14.4} {:<6} ({} failed of {} operations and probes)",
                "failed_ops_share",
                report.failed as f64 / report.attempted as f64,
                "ratio",
                report.failed,
                report.attempted
            );
            println!("{}", report.result_line());
            if report.correct() {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        Err(e) => {
            eprintln!("mtc_benchmark: {e}");
            ExitCode::from(2)
        }
    }
}

/// Runs one workload in a child process (so its peak memory is its own),
/// echoes the child's output and returns its parsed result line.
fn run_child(spec: &Spec, seed: u64, seconds: u64, trace: bool) -> Result<Json, String> {
    let exe = std::env::current_exe().map_err(|e| format!("locating this executable: {e}"))?;
    let output = Command::new(exe)
        .args(["--workload", spec.name])
        .args(["--seed", &seed.to_string()])
        .args(["--seconds", &seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .output()
        .map_err(|e| format!("starting the `{}` run: {e}", spec.name))?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    print!("{stdout}");
    eprint!("{}", String::from_utf8_lossy(&output.stderr));
    let last = stdout.lines().last().unwrap_or("");
    let result = Json::parse(last)
        .map_err(|e| format!("the `{}` run printed no result line: {e}", spec.name))?;
    if !output.status.success() || result.get("correct").and_then(Json::as_bool) != Some(true) {
        return Err(format!(
            "the `{}` run failed ({})",
            spec.name, output.status
        ));
    }
    Ok(result)
}

fn metric_of(result: &Json, name: &str) -> f64 {
    result
        .get("metrics")
        .and_then(|m| m.get(name))
        .and_then(|m| m.get("value"))
        .and_then(Json::as_f64)
        .unwrap_or(f64::NAN)
}

/// `--check-repeat`: every workload twice on seed 42 and once on seed 43;
/// each end-to-end metric must repeat within its bound, and an exact count
/// to the last bit when the seed is the same.
fn check_repeat(seconds: u64) -> Result<bool, String> {
    let mut all_pass = true;
    let mut table = vec![format!(
        "{:<12} {:<20} {:>12} {:>12} {:>8} {:>12} {:>8}  bound",
        "workload", "metric", "seed 42", "seed 42 again", "diff", "seed 43", "diff"
    )];
    for spec in &SPECS {
        let first = run_child(spec, 42, seconds, false)?;
        let again = run_child(spec, 42, seconds, false)?;
        let unseen = run_child(spec, 43, seconds, false)?;
        for def in &END_TO_END {
            let (a, b, c) = (
                metric_of(&first, def.name),
                metric_of(&again, def.name),
                metric_of(&unseen, def.name),
            );
            let repeats = if def.exact {
                a.to_bits() == b.to_bits()
            } else {
                stats::within_bound(a, b, def.better, def.bound)
                    && stats::within_bound(b, a, def.better, def.bound)
            };
            let pass = repeats
                && stats::within_bound(a, c, def.better, def.bound)
                && stats::within_bound(c, a, def.better, def.bound);
            all_pass &= pass;
            table.push(format!(
                "{:<12} {:<20} {a:>12.4} {b:>12.4} {:>+7.1}% {c:>12.4} {:>+7.1}%  {} {}",
                spec.name,
                def.name,
                100.0 * stats::worsening(a, b, def.better),
                100.0 * stats::worsening(a, c, def.better),
                if def.exact {
                    format!("same bits, {:.0}% on seed 43", 100.0 * def.bound)
                } else {
                    format!("{:.0}%", 100.0 * def.bound)
                },
                if pass { "PASS" } else { "FAIL" }
            ));
        }
    }
    println!("\ncheck-repeat (diff = how much worse than the first run; negative is better)");
    for line in table {
        println!("{line}");
    }
    Ok(all_pass)
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("mtc_benchmark: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    if args.check_repeat {
        return match check_repeat(args.seconds) {
            Ok(true) => ExitCode::SUCCESS,
            Ok(false) => ExitCode::FAILURE,
            Err(e) => {
                eprintln!("mtc_benchmark: {e}");
                ExitCode::from(2)
            }
        };
    }
    if let Some(spec) = args.workload.as_deref().and_then(workloads::spec) {
        return run_here(spec, &args);
    }
    // No workload named: all four, each in its own process.
    for spec in &SPECS {
        if let Err(e) = run_child(spec, args.seed, args.seconds, args.trace) {
            eprintln!("mtc_benchmark: {e}");
            return ExitCode::FAILURE;
        }
    }
    ExitCode::SUCCESS
}
