//! Runs the paper's §6 evaluation once and writes it twice into the current
//! directory: `BENCH_paper.json` (every paper value beside ours, every claim
//! with its verdict) and `EXPERIMENTS.md`, generated from the same tables.
//!
//! Usage: `cargo run --release -p mtc-bench --bin exp_paper`

use mtc_bench::{paper, report, run_all, write_artifact};
use mtc_tpcw::datagen::Scale;

fn main() {
    let r = run_all(Scale::default(), 400);
    for c in &paper::CLAIMS {
        println!("  {} {}", if (c.holds)(&r) { "✓" } else { "✗" }, c.text);
    }
    write_artifact("paper", &report::to_json(&r));
    std::fs::write("EXPERIMENTS.md", report::to_markdown(&r)).expect("write EXPERIMENTS.md");
    println!("wrote EXPERIMENTS.md");
}
