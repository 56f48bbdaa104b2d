//! Regenerates `BENCH_placement.json`: cost-DP multi-site query placement
//! vs strict two-site planning on a 4-node fleet whose cached views are
//! partitioned one region per node (DESIGN.md §13). The same seeded read
//! stream runs under both planners; the report splits wire traffic per
//! link (backend vs peer RTTs and bytes) and models per-query latency as
//! CPU work plus the FleetLinks wire charge.
//!
//! Usage: `cargo run --release -p mtc-bench --bin exp_placement [queries] [seed]`

use mtc_bench::{arg, run_placement, write_artifact};

fn main() {
    let mut args = std::env::args().skip(1);
    let queries: usize = arg(&mut args, 2_000);
    let seed: u64 = arg(&mut args, 42);

    let r = run_placement(queries, seed);

    println!(
        "placement experiment, {} queries per phase, {} nodes (one region slice each), seed {}",
        r.queries, r.nodes, r.seed
    );
    for (label, p) in [("two-site", &r.twosite), ("multi-site", &r.multisite)] {
        println!(
            "  {:>10}: p50 {:.4} ms  p95 {:.4} ms  mean {:.4} ms  backend {} rtts / {} B  \
peer {} rtts / {} B  ({} queries, {} errors)",
            label,
            p.stream.p50_ms,
            p.stream.p95_ms,
            p.mean_ms(),
            p.backend_rtts(),
            p.backend_bytes(),
            p.stream.metrics.peer_rtts,
            p.stream.metrics.peer_bytes,
            p.stream.interactions,
            p.stream.errors,
        );
    }
    println!(
        "  p50 speedup {:.2}x (floor 1.3x)  backend-RTT reduction {:.1}% (floor 25%)  \
equivalence {}/{} ok",
        r.p50_speedup,
        r.backend_rtt_reduction * 100.0,
        r.equivalence_checked - r.equivalence_failures,
        r.equivalence_checked,
    );

    write_artifact("placement", &r.to_json());
}
