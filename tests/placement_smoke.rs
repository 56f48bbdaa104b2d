//! Smoke guard for the multi-site placement experiment (DESIGN.md §13).
//!
//! Same two-layer shape as `tests/fleet_smoke.rs`: a live mini-run of
//! `run_placement` pinning the experiment's structural invariants (clean
//! streams, peer placements actually happen, zero equivalence failures,
//! floors hold even at mini scale), and a validation of the committed
//! `BENCH_placement.json` artifact so a stale or regressed report fails
//! the build. The committed floors are the ISSUE's acceptance targets:
//! p50 speedup ≥ 1.3×, backend-RTT reduction ≥ 25%, zero equivalence
//! failures.

use mtc_bench::{field_at, run_placement};

#[test]
fn placement_mini_run_invariants() {
    let r = run_placement(300, 11);
    assert_eq!(r.nodes, 4, "one node per region slice");
    assert_eq!(r.twosite.stream.errors, 0, "two-site stream must run clean");
    assert_eq!(r.multisite.stream.errors, 0, "multi-site stream must run clean");
    assert_eq!(
        r.twosite.stream.interactions, r.multisite.stream.interactions,
        "both phases replay one identical seeded stream"
    );
    assert_eq!(r.twosite.stream.metrics.peer_rtts, 0, "two-site planning never hops to a peer");
    assert!(
        r.multisite.stream.metrics.peer_rtts > 0,
        "partitioned views must trigger peer placements"
    );
    assert!(
        r.multisite.backend_rtts() < r.twosite.backend_rtts(),
        "peer placement must shed backend round trips \
         ({} -> {})",
        r.twosite.backend_rtts(),
        r.multisite.backend_rtts()
    );
    assert_eq!(
        r.equivalence_failures, 0,
        "placement is a pure performance decision — answers must not change"
    );
    assert!(r.equivalence_checked > 0);
    // The JSON report round-trips the headline fields.
    let json = r.to_json();
    for key in [
        "\"experiment\": \"placement\"",
        "\"p50_speedup\"",
        "\"backend_rtt_reduction\"",
        "\"backend_rtts\"",
        "\"peer_rtts\"",
        "\"failures\"",
    ] {
        assert!(json.contains(key), "report lacks {key}");
    }
}

#[test]
fn committed_placement_report_meets_floors() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/BENCH_placement.json");
    let json = std::fs::read_to_string(path).expect(
        "BENCH_placement.json missing — regenerate with \
         `cargo run --release -p mtc-bench --bin exp_placement`",
    );
    assert!(json.contains("\"experiment\": \"placement\""));
    assert_eq!(field_at(&json, "nodes", 0) as usize, 4, "the ISSUE's fleet size");
    assert!(
        field_at(&json, "queries_per_phase", 0) >= 1_000.0,
        "the committed artifact must come from a full-size run"
    );
    // The tentpole floors: p50 speedup >= 1.3x and backend-RTT reduction
    // >= 25% from cost-DP placement alone (result caching disabled).
    let speedup = field_at(&json, "p50_speedup", 0);
    assert!(
        speedup >= 1.3,
        "committed p50 speedup must be >= 1.3x, got {speedup:.2}x"
    );
    let reduction = field_at(&json, "backend_rtt_reduction", 0);
    assert!(
        reduction >= 0.25,
        "committed backend-RTT reduction must be >= 25%, got {:.1}%",
        reduction * 100.0
    );
    // Both phases ran clean (errors occurrence 0 = twosite, 1 = multisite),
    // and the multi-site phase really placed fragments on peers.
    assert_eq!(field_at(&json, "errors", 0), 0.0);
    assert_eq!(field_at(&json, "errors", 1), 0.0);
    assert_eq!(field_at(&json, "peer_rtts", 0), 0.0, "two-site never peers");
    assert!(field_at(&json, "peer_rtts", 1) > 0.0, "multi-site must peer");
    // Zero equivalence failures over a non-empty probe sweep.
    assert!(field_at(&json, "checked", 0) > 0.0);
    assert_eq!(
        field_at(&json, "failures", 0),
        0.0,
        "committed report must show zero equivalence failures"
    );
}
