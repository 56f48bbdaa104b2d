//! Smoke guard for the result-cache experiment (DESIGN.md §10).
//!
//! Two layers, like the other `*_smoke.rs` guards: a live mini-run
//! of `run_resultcache` pinning the experiment's structural invariants
//! (identical seeded streams, round trips eliminated, zero equivalence
//! failures), and a validation of the committed `BENCH_resultcache.json`
//! artifact so a stale or regressed report fails the build rather than
//! going unnoticed. The committed floors are the ISSUE's acceptance
//! targets: ≥ 60% of Browsing round trips eliminated, ≥ 40% warm hit
//! rate, zero equivalence failures.

use mtc_bench::{field_at, run_resultcache};

#[test]
fn resultcache_mini_run_invariants() {
    let r = run_resultcache(160, 7);
    assert_eq!(r.workloads.len(), 2);
    for w in &r.workloads {
        assert_eq!(w.baseline.errors, 0, "{}: baseline stream must run clean", w.workload);
        assert_eq!(w.cached.errors, 0, "{}: cached stream must run clean", w.workload);
        assert_eq!(
            w.baseline.interactions, w.cached.interactions,
            "{}: the two phases replay one identical seeded stream",
            w.workload
        );
        assert_eq!(
            w.baseline.metrics.remote_calls, w.cached.metrics.remote_calls,
            "{}: the cache changes where answers come from, not how many \
             remote statements the plans consume",
            w.workload
        );
        assert!(
            w.cached.metrics.remote_rtts < w.baseline.metrics.remote_rtts,
            "{}: the cache must eliminate wire round trips ({} vs {})",
            w.workload,
            w.cached.metrics.remote_rtts,
            w.baseline.metrics.remote_rtts
        );
        assert_eq!(
            w.equivalence_failures, 0,
            "{}: cache-on must answer exactly what cache-off answers",
            w.workload
        );
        assert!(w.equivalence_checked > 0);
        assert!(w.cached.p50_ms <= w.baseline.p50_ms + 1e-9, "{}", w.workload);
    }
}

fn count_of(json: &str, key: &str) -> usize {
    let pat = format!("\"{key}\":");
    json.match_indices(&pat).count()
}

#[test]
fn committed_bench_report_meets_floors() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/BENCH_resultcache.json");
    let json = std::fs::read_to_string(path).expect(
        "BENCH_resultcache.json missing — regenerate with \
         `cargo run --release -p mtc-bench --bin exp_resultcache`",
    );
    assert!(json.contains("\"experiment\": \"resultcache\""));
    assert!(json.contains("\"workload\": \"Browsing\""));
    assert!(json.contains("\"workload\": \"Shopping\""));
    assert!(json.contains("\"budget_sweep\""));
    assert!(
        field_at(&json, "interactions_per_phase", 0) >= 1_000.0,
        "the committed artifact must come from a full-size run"
    );
    // Workloads are emitted Browsing first: occurrence 0 of the per-workload
    // fields is the Browsing point the ISSUE targets.
    assert!(
        field_at(&json, "rtt_reduction", 0) >= 0.60,
        "committed report must show >= 60% of Browsing round trips eliminated"
    );
    assert!(
        field_at(&json, "warm_hit_rate", 0) >= 0.40,
        "committed report must show >= 40% warm hit rate on Browsing"
    );
    // Zero equivalence failures, in every workload.
    let failures = count_of(&json, "failures");
    assert!(failures >= 2, "a failures field per workload");
    for i in 0..failures {
        assert_eq!(
            field_at(&json, "failures", i),
            0.0,
            "committed report must show zero equivalence failures"
        );
    }
    // Sanity: cached round trips below baseline on both workloads.
    for w in 0..2 {
        let base = field_at(&json, "remote_rtts", w * 2);
        let cached = field_at(&json, "remote_rtts", w * 2 + 1);
        assert!(
            cached < base,
            "workload {w}: cached rtts {cached} must be below baseline {base}"
        );
    }
}
