//! Regenerates `BENCH_advisor.json`: frozen-static vs adaptive cache
//! configuration under the shifting-working-set TPC-W phase schedule
//! (Zipf-skewed Browsing, then an abrupt shift to account-heavy traffic).
//! The adaptive config runs the online advisor — runtime cached-view
//! create/widen/drop — and intermediate-result
//! (fragment) caching; the headline is the post-shift static ÷ adaptive
//! ratio of backend round trips and modeled p50 (DESIGN.md §14).
//!
//! Usage: `cargo run --release -p mtc-bench --bin exp_advisor [per_phase] [seed]`

use mtc_bench::{arg, run_advisor, write_artifact};

fn main() {
    let mut args = std::env::args().skip(1);
    let per_phase: usize = arg(&mut args, 1_000);
    let seed: u64 = arg(&mut args, 42);

    let r = run_advisor(per_phase, seed);

    println!(
        "advisor experiment, {} interactions per phase, seed {}, faults: 10% drop / 5% dup / crash every 200",
        r.per_phase, r.seed
    );
    for run in [&r.static_run, &r.adaptive_run] {
        println!("  {} config:", run.config);
        for p in &run.phases {
            println!(
                "    {:>13}: rtts {:>6}  rows {:>7}  p50 {:>7.3} ms  p95 {:>7.3} ms  \
fragments {}/{} hit  errors {}",
                p.phase,
                p.metrics.remote_rtts,
                p.metrics.remote_rows,
                p.p50_ms,
                p.p95_ms,
                p.metrics.fragment_hits,
                p.metrics.fragment_probes,
                p.errors,
            );
        }
        println!(
            "    views at end: [{}]  budgets l1 {} B / fragment {} B",
            run.views_end.join(", "),
            run.l1_budget_end,
            run.fragment_budget_end,
        );
        if let Some(a) = &run.advisor {
            println!(
                "    advisor: {} epochs, {} created ({} widened, {} indexes) / {} dropped, \
{} creates + {} drops suppressed",
                a.epochs,
                a.views_created,
                a.views_widened,
                a.indexes_created,
                a.views_dropped,
                a.creates_suppressed,
                a.drops_suppressed,
            );
        }
    }
    println!(
        "  post-shift static/adaptive: rtts {:.2}x  p50 {:.2}x",
        r.post_shift_rtt_ratio, r.post_shift_p50_ratio
    );
    println!(
        "  fragment memo: {} hits / {} probes  equivalence {}/{} ok",
        r.fragment_hits,
        r.fragment_probes,
        r.equivalence_checked - r.equivalence_failures,
        r.equivalence_checked,
    );
    for line in &r.advisor_log {
        println!("    {line}");
    }

    write_artifact("advisor", &r.to_json());
}
