//! Regenerates `BENCH_hotpath.json`: warm vs cold plan-cache throughput,
//! streaming vs materialized executor latency, and the row-clone reduction
//! (DESIGN.md §8.4).
//!
//! Usage: `cargo run --release -p mtc-bench --bin exp_hotpath [rows] [queries]`

use mtc_bench::{arg, run_hotpath, write_artifact};

fn main() {
    let mut args = std::env::args().skip(1);
    let rows: i64 = arg(&mut args, 9_000);
    let queries: usize = arg(&mut args, 2_000);

    let r = run_hotpath(rows, queries);

    println!("hot path, {} rows, {} queries per stream", r.table_rows, r.queries);
    println!(
        "  plan cache   : warm {:.0} q/s vs cold {:.0} q/s  ({:.2}x, {} hits / {} misses)",
        r.warm_qps, r.cold_qps, r.plan_cache_speedup, r.hits, r.misses
    );
    println!(
        "  executor     : streaming {:.1} us vs materialized {:.1} us  ({:.2}x)",
        r.streaming_us, r.materialized_us, r.executor_speedup
    );
    println!(
        "  rows cloned  : {} vs {}  (-{:.1}%)",
        r.rows_cloned_streaming,
        r.rows_cloned_materialized,
        100.0 * r.rows_cloned_reduction()
    );

    write_artifact("hotpath", &r.to_json());
}
