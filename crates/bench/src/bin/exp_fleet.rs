//! Regenerates `BENCH_fleet.json`: cache-tier fleet throughput (4 nodes ×
//! 8 sessions) vs a single-node baseline for the TPC-W Browsing and
//! Shopping mixes, under the standard fault-injected replication plan with
//! a mid-stream node crash and cold rejoin, plus the backend-offload ratio
//! of the L1/L2 result-cache hierarchy (DESIGN.md §11).
//!
//! Usage: `cargo run --release -p mtc-bench --bin exp_fleet [interactions] [seed] [nodes]`

use mtc_bench::{arg, run_fleet, write_artifact};

fn main() {
    let mut args = std::env::args().skip(1);
    let interactions: usize = arg(&mut args, 1_200);
    let seed: u64 = arg(&mut args, 42);
    let nodes: usize = arg(&mut args, 4).max(1);

    let r = run_fleet(interactions, seed, nodes);

    println!(
        "fleet experiment, {} interactions per phase, {} nodes x {} sessions, seed {}, \
faults: 10% drop / 5% dup / crash every 200, mid-stream node crash + cold rejoin",
        r.interactions,
        r.nodes,
        r.sessions / r.nodes,
        r.seed
    );
    for w in &r.workloads {
        println!(
            "  {:>9}: throughput {:.1} -> {:.1} ips ({:.2}x)  offload {:.1}% -> {:.1}%  \
p95 {:.3} -> {:.3} ms  rerouted {}  equivalence {}/{} ok",
            w.workload,
            w.single.throughput_ips,
            w.fleet.throughput_ips,
            w.speedup,
            w.single.offload_ratio * 100.0,
            w.fleet.offload_ratio * 100.0,
            w.single.stream.p95_ms,
            w.fleet.stream.p95_ms,
            w.fleet.sessions_rerouted,
            w.equivalence_checked - w.equivalence_failures,
            w.equivalence_checked,
        );
        println!(
            "             L1 {} hits / {} misses   L2 {} hits / {} misses / {} invalidations   \
per-node interactions {:?}",
            w.fleet.l1.hits,
            w.fleet.l1.misses,
            w.fleet.l2.hits,
            w.fleet.l2.misses,
            w.fleet.l2.invalidations,
            w.fleet.per_node_interactions,
        );
    }

    write_artifact("fleet", &r.to_json());
}
