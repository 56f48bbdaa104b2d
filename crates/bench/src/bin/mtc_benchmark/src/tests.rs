//! Whole-benchmark tests: a small run of every workload, the command line,
//! and the agreement between the metric tables and `BENCHMARK.json`.

use std::path::Path;
use std::time::Duration;

use mtc_tpcw::Scale;

use mtc_replication::{FaultPlan, FaultSpec};

use crate::driver::{self, Limit};
use crate::json::Json;
use crate::metrics::{END_TO_END, PER_LAYER};
use crate::stats::Better;
use crate::workloads::{self, Runner, SPECS};
use crate::{audit, parse_args, run_end_to_end, run_traced, Report, RunConfig, DEFAULT_SECONDS};

/// Per-layer metrics that are no part of each workload, in `SPECS` order:
/// the four fleet metrics on one node, the fourteen TPC-W interactions on the
/// statement workloads.
const NOT_APPLICABLE: [usize; 4] = [4, 4, 18, 14];

fn tiny_run() -> RunConfig {
    RunConfig {
        scale: Scale::tiny(),
        seed: 7,
        limit: Limit::ops(100),
        warmup_ops: 20,
        setup_repeats: 1,
        stepper_reps: 3,
        spans_dir: None,
    }
}

/// A failing report, printed the way the command prints it.
fn explain(report: &Report) -> String {
    report.text.join("\n")
}

fn assert_names(report: &Report, expected: Vec<&str>) {
    let got: Vec<&str> = report.metrics.iter().map(|(name, _, _)| *name).collect();
    assert_eq!(got, expected, "every metric exactly once, in table order");
    for (name, value, unit) in &report.metrics {
        let well_formed = |s: &str, extra: &str| {
            !s.is_empty()
                && s.chars()
                    .all(|c| c.is_ascii_alphanumeric() || extra.contains(c))
        };
        assert!(well_formed(name, "_.-") && name.len() <= 64, "{name}");
        assert!(well_formed(unit, "_/%.-") && unit.len() <= 16, "{unit}");
        assert!(value.is_finite(), "{name} = {value}");
    }
}

/// A small run of one workload, untraced and traced: no operation, stepper
/// statement or audit probe may fail, and every metric must be reported
/// exactly once under a well-formed name.
fn smoke(name: &str) {
    let spec = workloads::spec(name).expect(name);
    let report = run_end_to_end(spec, &tiny_run()).expect(name);
    assert_eq!(report.failed, 0, "{name}:\n{}", explain(&report));
    assert!(report.attempted > 100, "{name}");
    assert_names(&report, END_TO_END.iter().map(|m| m.name).collect());
    for (metric, value, _) in &report.metrics {
        // `hotpoint` is sized so that its backend round trips are few.
        assert!(
            *value > 0.0 || *metric == "backend_rtts_per_op",
            "{name}: {metric} must never be 0"
        );
    }

    let report = run_traced(spec, &tiny_run()).expect(name);
    assert_eq!(report.failed, 0, "{name}:\n{}", explain(&report));
    assert_names(&report, PER_LAYER.iter().map(|m| m.0).collect());
    let workload = SPECS.iter().position(|s| s.name == name).expect(name);
    assert_eq!(
        explain(&report).matches(" n/a ").count(),
        NOT_APPLICABLE[workload],
        "{name}"
    );
    let line = report.result_line().to_string();
    let parsed = Json::parse(&line).expect("the result line is JSON");
    assert_eq!(parsed.get("correct"), Some(&Json::Bool(true)));
    assert_eq!(parsed.get("failed"), Some(&Json::Num(0.0)));
    assert!(!line.contains('\n'));
}

#[test]
fn browse_runs_clean_and_reports_every_metric() {
    smoke("browse");
}

#[test]
fn order_runs_clean_and_reports_every_metric() {
    smoke("order");
}

#[test]
fn hotpoint_runs_clean_and_reports_every_metric() {
    smoke("hotpoint");
}

#[test]
fn fleet_adhoc_runs_clean_and_reports_every_metric() {
    smoke("fleet_adhoc");
}

/// A pump that fails (an injected distributor crash) is counted and its work
/// is redelivered by a later pump: no operation fails and the audit, which
/// drains first, still finds every node equal to the backend.
#[test]
fn faulted_pumps_are_counted_and_retried() {
    let spec = workloads::spec("order").expect("order");
    let mut runner = Runner::new(spec, Scale::tiny(), 11).expect("set-up");
    runner
        .dep
        .hub
        .lock()
        .set_fault_plan(FaultPlan::new(11, FaultSpec::crash_every(5)));
    let phase = driver::run(&mut runner, Limit::ops(160), true, None);
    assert_eq!(phase.failed, 0, "{:?}", phase.first_error);
    assert!(phase.pump_errors > 0, "the fault plan never fired");
    assert_eq!(phase.pumps, 10);
    assert_eq!(phase.samples_ns.len(), 160);
    let audit = audit::run(&runner, 11);
    assert_eq!(audit.failed, 0, "{:?}", audit.failures);
}

/// A phase ends on a slice boundary, and the slices split its samples and
/// its wall time between them.
#[test]
fn a_phase_is_cut_into_whole_slices() {
    let spec = workloads::spec("hotpoint").expect("hotpoint");
    let mut runner = Runner::new(spec, Scale::tiny(), 3).expect("set-up");
    let limit = Limit {
        time: Duration::ZERO,
        ops: 100,
        slice_ops: 64,
    };
    let phase = driver::run(&mut runner, limit, true, None);
    assert_eq!((phase.ops, phase.slices.len()), (128, 2));
    let per_slice: Vec<usize> = phase.slice_samples().map(<[u32]>::len).collect();
    let sampled = 64 / spec.sample_stride;
    assert_eq!(per_slice, [sampled, sampled]);
    assert_eq!(phase.samples_ns.len(), 2 * sampled);
    let in_slices: Duration = phase.slices.iter().map(|s| s.wall).sum();
    assert_eq!(in_slices, phase.wall);
}

#[test]
fn command_line_accepts_the_drivers_form_and_rejects_nonsense() {
    let args = |line: &str| -> Vec<String> { line.split_whitespace().map(String::from).collect() };
    let a = parse_args(&args("--workload order --seed 9 --seconds 5 --trace 0")).unwrap();
    assert_eq!(
        (a.workload.as_deref(), a.seed, a.seconds, a.trace),
        (Some("order"), 9, 5, false)
    );
    let a = parse_args(&args("--trace 1 --seed 3")).unwrap();
    assert!(a.trace && a.seed == 3 && a.workload.is_none());
    assert_eq!(parse_args(&[]).unwrap().seconds, DEFAULT_SECONDS);
    for bad in [
        "--workload nosuch",
        "--seed x",
        "--seconds 0",
        "--seconds 61",
        "--seed",
        "--trace",
        "--trace 2",
        "--frobnicate",
    ] {
        assert!(parse_args(&args(bad)).is_err(), "{bad}");
    }
}

/// `BENCHMARK.json` sits at the root of the repository, above this crate.
fn benchmark_json() -> Json {
    let mut dir = Path::new(env!("CARGO_MANIFEST_DIR"));
    loop {
        let candidate = dir.join("BENCHMARK.json");
        if candidate.is_file() {
            let text = std::fs::read_to_string(&candidate).expect("readable BENCHMARK.json");
            return Json::parse(&text).expect("BENCHMARK.json is JSON");
        }
        dir = dir
            .parent()
            .expect("BENCHMARK.json above the benchmark's directory");
    }
}

fn field<'a>(entry: &'a Json, key: &str) -> &'a Json {
    entry
        .get(key)
        .unwrap_or_else(|| panic!("`{key}` in {entry}"))
}

fn entries<'a>(doc: &'a Json, key: &str) -> &'a [Json] {
    match field(doc, key) {
        Json::Arr(items) => items,
        other => panic!("`{key}` is not a list: {other}"),
    }
}

#[test]
fn benchmark_json_lists_what_the_code_measures() {
    let doc = benchmark_json();
    let text = |s: &str| Json::Str(s.to_string());
    let direction = |better: Better| match better {
        Better::Lower => text("lower"),
        Better::Higher => text("higher"),
    };

    let workloads: Vec<Json> = SPECS
        .iter()
        .filter(|s| s.gated)
        .map(|s| Json::obj([("name", text(s.name)), ("why", text(s.why))]))
        .collect();
    assert_eq!(entries(&doc, "workloads"), workloads);

    let end_to_end: Vec<Json> = END_TO_END
        .iter()
        .map(|m| {
            Json::obj([
                ("name", text(m.name)),
                ("unit", text(m.unit)),
                ("better", direction(m.better)),
                ("bound", Json::Num(m.bound)),
            ])
        })
        .collect();
    assert_eq!(entries(&doc, "end_to_end"), end_to_end);

    let per_layer: Vec<Json> = PER_LAYER
        .iter()
        .map(|(name, unit, better)| {
            Json::obj([
                ("name", text(name)),
                ("unit", text(unit)),
                ("better", direction(*better)),
            ])
        })
        .collect();
    assert_eq!(entries(&doc, "per_layer"), per_layer);

    assert_eq!(
        field(&doc, "run_seconds"),
        &Json::Num(DEFAULT_SECONDS as f64)
    );
    let paths = entries(&doc, "paths");
    assert_eq!(paths, [text("crates/bench/src/bin/mtc_benchmark")]);
    let manifest = text("crates/bench/src/bin/mtc_benchmark/Cargo.toml");
    assert!(entries(&doc, "command").contains(&manifest));
    for s in &SPECS {
        assert!(s.why.len() <= 200 && !s.why.contains('\n'), "{}", s.name);
    }
}
