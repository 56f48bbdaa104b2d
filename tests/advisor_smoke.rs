//! Smoke guard for the adaptive-advisor experiment (DESIGN.md §14).
//!
//! Same two-layer shape as `tests/fleet_smoke.rs`: a live mini-run of
//! `run_advisor` pinning the experiment's structural invariants (clean
//! streams, the advisor actually creates views and supporting indexes at
//! runtime, adaptation beats the frozen static configuration post-shift,
//! the fragment memo hits, zero equivalence failures), and a validation of
//! the committed `BENCH_advisor.json` artifact so a stale or regressed
//! report fails the build. The committed floors are the ISSUE's acceptance
//! targets: post-shift adaptive ≥ 1.3× better than static (backend RTTs or
//! p50), fragment hits > 0, zero equivalence failures.

use mtc_bench::{field_at, run_advisor};

#[test]
fn advisor_mini_run_invariants() {
    let r = run_advisor(150, 11);
    assert_eq!(r.static_run.phases.len(), 2, "browse-items + account-shift");
    assert_eq!(r.adaptive_run.phases.len(), 2);
    for run in [&r.static_run, &r.adaptive_run] {
        for p in &run.phases {
            assert_eq!(p.errors, 0, "{}/{} must run clean", run.config, p.phase);
            assert_eq!(p.interactions, 150, "{}/{}", run.config, p.phase);
        }
    }
    // The static config never changes; the advisor demonstrably acts.
    assert!(r.static_run.advisor.is_none());
    let a = r.adaptive_run.advisor.expect("advisor attached");
    assert!(a.epochs >= 4, "ticks every 50 of 300 interactions: {a:?}");
    assert!(a.views_created >= 1, "{a:?}");
    assert!(a.indexes_created >= 1, "supporting index for c_uname: {a:?}");
    assert!(
        r.adaptive_run.views_end.len() > r.static_run.views_end.len(),
        "runtime-created views outlive the stream: {:?} vs {:?}",
        r.adaptive_run.views_end,
        r.static_run.views_end
    );
    // Post-shift, adaptation must clear the ISSUE floor even in a mini-run.
    assert!(
        r.post_shift_rtt_ratio >= 1.3 || r.post_shift_p50_ratio >= 1.3,
        "adaptive must beat static >=1.3x post-shift: rtts {:.2}x, p50 {:.2}x",
        r.post_shift_rtt_ratio,
        r.post_shift_p50_ratio
    );
    // Intermediate-result caching is live: probes and hits both nonzero.
    assert!(r.fragment_probes > 0, "fragment memo never probed");
    assert!(r.fragment_hits > 0, "fragment memo never hit");
    // Transparency: caches on vs off is bit-identical after drain.
    assert!(r.equivalence_checked > 0);
    assert_eq!(r.equivalence_failures, 0);
    // The decision log narrates the adaptation.
    assert!(
        r.advisor_log.iter().any(|l| l.starts_with("advisor: create ")),
        "{:?}",
        r.advisor_log
    );
}

#[test]
fn committed_advisor_report_meets_floors() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/BENCH_advisor.json");
    let json = std::fs::read_to_string(path).expect(
        "BENCH_advisor.json missing — regenerate with \
         `cargo run --release -p mtc-bench --bin exp_advisor`",
    );
    assert!(json.contains("\"experiment\": \"advisor\""));
    assert!(json.contains("\"config\": \"static\""));
    assert!(json.contains("\"config\": \"adaptive\""));
    assert!(json.contains("\"phase\": \"browse-items\""));
    assert!(json.contains("\"phase\": \"account-shift\""));
    assert!(
        field_at(&json, "interactions_per_phase", 0) >= 1_000.0,
        "the committed artifact must come from a full-size run"
    );
    // The tentpole floor: post-shift, adaptive >= 1.3x better than the
    // frozen static configuration on backend RTTs or modeled p50.
    let rtt_ratio = field_at(&json, "rtt_ratio", 0);
    let p50_ratio = field_at(&json, "p50_ratio", 0);
    assert!(
        rtt_ratio >= 1.3 || p50_ratio >= 1.3,
        "committed post-shift ratios below the 1.3x floor: \
         rtts {rtt_ratio:.2}x, p50 {p50_ratio:.2}x"
    );
    // Intermediate-result caching contributed: fragment hits > 0 (the
    // summary block's "hits" key; per-phase counters are `fragment_hits`).
    assert!(field_at(&json, "hits", 0) > 0.0, "no fragment hits on record");
    // The advisor acted at runtime: views and supporting indexes created.
    assert!(field_at(&json, "views_created", 0) >= 1.0);
    assert!(field_at(&json, "indexes_created", 0) >= 1.0);
    // Zero equivalence failures.
    assert_eq!(field_at(&json, "failures", 0), 0.0);
    // The adversarial replication conditions are part of the claim.
    assert!(json.contains("\"drop_p\": 0.10"));
    assert!(json.contains("\"duplicate_p\": 0.05"));
}
