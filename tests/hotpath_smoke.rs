//! Smoke guard for the hot-path experiment (DESIGN.md §8.4).
//!
//! Two layers, in the spirit of `tests/hermetic.rs`: a live mini-run of the
//! measurement pinning the counter-level invariants (warm stream is
//! hit-only, the plan cache speeds it up, streaming never clones more than
//! the seed interpreter), and a validation of the committed
//! `BENCH_hotpath.json` artifact so a stale or regressed report fails the
//! build rather than going unnoticed.

use mtc_bench::{field, run_hotpath};
use mtc_types::{row, Row, RowBatch};

/// Committed streaming latency for the full-size run (µs per warm suite
/// execution, from `BENCH_hotpath.json`). The tier-2 release gate
/// ([`full_size_run_meets_streaming_floor`]) and the committed-report
/// check both fail on a >20% regression against this floor. Regenerate
/// with `cargo run --release -p mtc-bench --bin exp_hotpath` and update
/// the constant when the executor legitimately changes speed.
const STREAMING_US_FLOOR: f64 = 428.0;

#[test]
fn hotpath_mini_run_invariants() {
    let r = run_hotpath(900, 60);
    assert_eq!(r.misses, 0, "warm stream must be hit-only, got {r:?}");
    assert_eq!(r.hits, 60, "every warm statement must hit, got {r:?}");
    assert_eq!(r.invalidations, 0, "nothing changed the catalog mid-stream");
    assert!(
        r.plan_cache_speedup > 1.0,
        "plan-cache hits must beat re-optimizing every statement, got {:.2}x",
        r.plan_cache_speedup
    );
    assert_eq!(
        r.rows_cloned_streaming, 0,
        "zero-copy contract: the streaming executor must not clone rows on \
         the read-only suite"
    );
    assert!(r.rows_cloned_materialized > 0, "instrumentation must observe clones");
}

/// Micro-pins for the zero-copy fast paths the hot path leans on:
/// `TOP n` narrows a batch by sharing its columns, and `Row::join` with an
/// empty side allocates exactly once at the surviving side's width.
#[test]
fn narrowing_and_join_fast_paths_are_zero_copy() {
    let batch = RowBatch::from_rows(
        vec![row![1, "a"], row![2, "b"], row![3, "c"]],
        2,
    );
    let top = batch.clone().take_first(2);
    assert_eq!(top.len(), 2);
    for c in 0..batch.width() {
        assert!(
            std::sync::Arc::ptr_eq(&batch.col_arc(c), &top.col_arc(c)),
            "take_first must share column {c}, not copy it"
        );
    }

    let left = Row::new(vec![]);
    let right = row![7, "x"];
    let joined = left.join(&right);
    assert_eq!(joined, right, "empty-left join returns the right side");
    assert_eq!(
        joined.0.capacity(),
        joined.len(),
        "empty-side join must allocate capacity-exact"
    );
}

/// Tier-2 release gate (ignored under plain `cargo test`; `scripts/verify.sh`
/// runs it with `--release --ignored`): the full-size hot-path run must stay
/// within 20% of the committed streaming floor. Debug builds are an order of
/// magnitude slower, so this only means anything under `--release`.
#[test]
#[ignore = "perf gate; run in release via scripts/verify.sh"]
fn full_size_run_meets_streaming_floor() {
    let r = run_hotpath(9000, 2000);
    assert!(
        r.streaming_us <= STREAMING_US_FLOOR * 1.2,
        "streaming hot path regressed >20%: {:.1} us vs {:.1} us floor",
        r.streaming_us,
        STREAMING_US_FLOOR
    );
    assert_eq!(r.rows_cloned_streaming, 0, "zero-copy contract broken: {r:?}");
}

#[test]
fn committed_bench_report_meets_floors() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/BENCH_hotpath.json");
    let json = std::fs::read_to_string(path).expect(
        "BENCH_hotpath.json missing — regenerate with \
         `cargo run --release -p mtc-bench --bin exp_hotpath`",
    );
    assert!(json.contains("\"experiment\": \"hotpath\""));
    assert!(
        field(&json, "plan_cache_speedup") >= 2.0,
        "committed report must show >= 2x warm plan-cache throughput"
    );
    assert!(
        field(&json, "executor_speedup") > 1.0,
        "committed report must show a streaming-executor speedup"
    );
    assert_eq!(
        field(&json, "rows_cloned_streaming"),
        0.0,
        "committed report must show zero streaming clones"
    );
    assert!(
        field(&json, "streaming_us_per_query") <= STREAMING_US_FLOOR * 1.2,
        "committed report regressed >20% vs the streaming floor"
    );
    assert_eq!(field(&json, "misses"), 0.0, "warm stream in the report must be hit-only");
}
