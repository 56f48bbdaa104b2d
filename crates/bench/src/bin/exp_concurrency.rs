//! Regenerates `BENCH_concurrency.json`: TPC-W Shopping-mix throughput and
//! latency at 1/2/4/8 workers, every point under the same seed and the same
//! fault-injected replication plan (DESIGN.md §9.4).
//!
//! Usage: `cargo run --release -p mtc-bench --bin exp_concurrency [interactions] [seed]`

use mtc_bench::{arg, run_concurrency, write_artifact};

fn main() {
    let mut args = std::env::args().skip(1);
    let interactions: usize = arg(&mut args, 1_200);
    let seed: u64 = arg(&mut args, 42);

    let r = run_concurrency(interactions, seed, &[1, 2, 4, 8]);

    println!(
        "concurrency sweep, {} interactions per point, seed {}, faults: 10% drop / 5% dup / crash every 200",
        r.interactions, r.seed
    );
    for p in &r.points {
        println!(
            "  {} worker(s): {:>8.1} ips modeled ({:.2}x)  p50 {:>7.2} ms  p95 {:>7.2} ms  p99 {:>7.2} ms  \
[{} ok / {} err, wall {:.2}s, epoch {} | applied {} txns, {} dropped, {} dup, {} crashes, {} retries]",
            p.workers,
            p.modeled_throughput,
            p.speedup_vs_1,
            p.p50_ms,
            p.p95_ms,
            p.p99_ms,
            p.interactions,
            p.errors,
            p.wall_s,
            p.max_epoch,
            p.replication.txns_applied,
            p.replication.deliveries_dropped,
            p.replication.duplicates_delivered,
            p.replication.crashes_injected,
            p.replication.retries,
        );
    }

    write_artifact("concurrency", &r.to_json());
}
