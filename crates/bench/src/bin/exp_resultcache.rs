//! Regenerates `BENCH_resultcache.json`: mid-tier result-cache hit rates,
//! backend round trips eliminated, and modeled latency for the TPC-W
//! Browsing and Shopping mixes, baseline (cache off) vs cached, under the
//! standard fault-injected replication plan, plus a byte-budget sweep
//! (DESIGN.md §10).
//!
//! Usage: `cargo run --release -p mtc-bench --bin exp_resultcache [interactions] [seed]`

use mtc_bench::{arg, run_resultcache, write_artifact};

fn main() {
    let mut args = std::env::args().skip(1);
    let interactions: usize = arg(&mut args, 1_200);
    let seed: u64 = arg(&mut args, 42);

    let r = run_resultcache(interactions, seed);

    println!(
        "result-cache experiment, {} interactions per phase, seed {}, faults: 10% drop / 5% dup / crash every 200",
        r.interactions, r.seed
    );
    for w in &r.workloads {
        println!(
            "  {:>9}: rtts {} -> {} ({:.1}% eliminated)  hit rate {:.1}% (warm {:.1}%)  \
p50 {:.3} -> {:.3} ms  p95 {:.3} -> {:.3} ms  equivalence {}/{} ok",
            w.workload,
            w.baseline.metrics.remote_rtts,
            w.cached.metrics.remote_rtts,
            w.rtt_reduction * 100.0,
            w.hit_rate * 100.0,
            w.warm_hit_rate * 100.0,
            w.baseline.p50_ms,
            w.cached.p50_ms,
            w.baseline.p95_ms,
            w.cached.p95_ms,
            w.equivalence_checked - w.equivalence_failures,
            w.equivalence_checked,
        );
    }
    println!("  budget sweep (Browsing):");
    for b in &r.budget_sweep {
        println!(
            "    {:>9} B: hit rate {:.1}%  rtts {} ({:.1}% eliminated)  \
{} entries / {} bytes resident, {} evictions, {} admission rejects",
            b.budget_bytes,
            b.hit_rate * 100.0,
            b.remote_rtts,
            b.rtt_reduction * 100.0,
            b.cache.entries,
            b.cache.bytes,
            b.cache.evictions,
            b.cache.admission_rejects,
        );
    }

    write_artifact("resultcache", &r.to_json());
}
