//! Smoke guard for the fleet experiment (DESIGN.md §11).
//!
//! Same two-layer shape as `tests/resultcache_smoke.rs`: a live mini-run
//! of `run_fleet` pinning the experiment's structural invariants (clean
//! streams, no interaction lost or duplicated across the mid-stream crash
//! and rejoin, fleet beats single-node, zero equivalence failures), and a
//! validation of the committed `BENCH_fleet.json` artifact so a stale or
//! regressed report fails the build. The committed floors are the ISSUE's
//! acceptance targets: 4 nodes × 8 sessions, aggregate throughput ≥ 2× the
//! single-node baseline on both workloads, a reported backend-offload
//! ratio, zero equivalence failures.

use mtc_bench::{field_at, run_fleet};

#[test]
fn fleet_mini_run_invariants() {
    let nodes = 4;
    let interactions = 200;
    let r = run_fleet(interactions, 7, nodes);
    assert_eq!(r.nodes, nodes);
    assert_eq!(r.sessions, nodes * 8);
    assert_eq!(r.workloads.len(), 2, "Browsing and Shopping");
    for w in &r.workloads {
        assert_eq!(w.single.stream.errors, 0, "{}: single stream must run clean", w.workload);
        assert_eq!(w.fleet.stream.errors, 0, "{}: fleet stream must run clean", w.workload);
        assert_eq!(
            w.fleet.stream.interactions, interactions,
            "{}: the crash + rejoin must not lose or duplicate interactions",
            w.workload
        );
        assert_eq!(
            w.single.stream.interactions, w.fleet.stream.interactions,
            "{}: both phases replay one identical seeded stream",
            w.workload
        );
        assert_eq!(
            w.fleet.per_node_interactions.iter().sum::<usize>(),
            w.fleet.stream.interactions,
            "{}: per-node counts partition the stream",
            w.workload
        );
        assert!(
            w.fleet.per_node_interactions.iter().all(|&c| c > 0),
            "{}: the router must spread sessions over every node: {:?}",
            w.workload,
            w.fleet.per_node_interactions
        );
        assert!(
            w.fleet.sessions_rerouted > 0,
            "{}: the mid-stream crash must evict and reroute sessions",
            w.workload
        );
        assert!(
            w.speedup > 1.0,
            "{}: {} parallel nodes must beat one ({:.2}x)",
            w.workload,
            nodes,
            w.speedup
        );
        assert_eq!(
            w.equivalence_failures, 0,
            "{}: every live node must answer exactly what the backend answers",
            w.workload
        );
        assert!(w.equivalence_checked > 0, "{}", w.workload);
        assert!(
            w.fleet.offload_ratio >= 0.0 && w.fleet.offload_ratio <= 1.0,
            "{}: offload ratio is a fraction",
            w.workload
        );
    }
    // The JSON report round-trips the headline fields.
    let json = r.to_json();
    for key in [
        "\"experiment\": \"fleet\"",
        "\"speedup_vs_single\"",
        "\"offload_ratio\"",
        "\"l2_hits\"",
        "\"sessions_rerouted\"",
        "\"fault_plan\"",
    ] {
        assert!(json.contains(key), "report lacks {key}");
    }
}

fn count_of(json: &str, key: &str) -> usize {
    json.match_indices(&format!("\"{key}\":")).count()
}

#[test]
fn committed_fleet_report_meets_floors() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/BENCH_fleet.json");
    let json = std::fs::read_to_string(path).expect(
        "BENCH_fleet.json missing — regenerate with \
         `cargo run --release -p mtc-bench --bin exp_fleet`",
    );
    assert!(json.contains("\"experiment\": \"fleet\""));
    assert!(json.contains("\"workload\": \"Browsing\""));
    assert!(json.contains("\"workload\": \"Shopping\""));
    assert_eq!(field_at(&json, "nodes", 0) as usize, 4, "the ISSUE's fleet size");
    assert_eq!(
        field_at(&json, "sessions", 0) as usize,
        32,
        "4 nodes x 8 sessions"
    );
    assert!(
        field_at(&json, "interactions_per_phase", 0) >= 1_000.0,
        "the committed artifact must come from a full-size run"
    );
    // The tentpole floor: aggregate fleet throughput >= 2x single-node, on
    // both workloads (speedup_vs_single appears once per workload).
    let speedups = count_of(&json, "speedup_vs_single");
    assert_eq!(speedups, 2);
    for i in 0..speedups {
        let s = field_at(&json, "speedup_vs_single", i);
        assert!(
            s >= 2.0,
            "workload {i}: committed aggregate throughput must be >= 2x \
             single-node, got {s:.2}x"
        );
    }
    // A backend-offload ratio is reported for every phase, and the fleet's
    // L1/L2 hierarchy keeps Browsing's offload meaningfully high
    // (occurrence 1 = Browsing fleet phase; single is emitted first).
    assert_eq!(count_of(&json, "offload_ratio"), 4);
    assert!(
        field_at(&json, "offload_ratio", 1) >= 0.30,
        "Browsing fleet phase must offload >= 30% of remote statements"
    );
    // The committed run crashed a node mid-stream and rerouted its
    // sessions (occurrences 1 and 3 are the fleet phases).
    assert!(field_at(&json, "sessions_rerouted", 1) > 0.0);
    assert!(field_at(&json, "sessions_rerouted", 3) > 0.0);
    // Zero equivalence failures, in every workload.
    let failures = count_of(&json, "failures");
    assert_eq!(failures, 2, "a failures field per workload");
    for i in 0..failures {
        assert_eq!(
            field_at(&json, "failures", i),
            0.0,
            "committed report must show zero equivalence failures"
        );
    }
    // The fault plan and the mid-stream crash are part of the claim.
    assert!(json.contains("\"drop_p\": 0.10"));
    assert!(json.contains("\"duplicate_p\": 0.05"));
    assert!(json.contains("\"crash_every\": 200"));
}
