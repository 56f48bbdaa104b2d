//! Runs the complete §6 evaluation and prints the paper-vs-measured report.
//!
//! Usage: `exp_all [items] [emulated_browsers] [samples]`

use mtc_bench::{arg, render_experiments, run_all};
use mtc_tpcw::datagen::Scale;

fn main() {
    let mut args = std::env::args().skip(1);
    let items = arg(&mut args, 1000);
    let ebs = arg(&mut args, 100);
    let samples = arg(&mut args, 400);
    let scale = Scale {
        items,
        emulated_browsers: ebs,
        seed: 42,
    };
    eprintln!(
        "running full evaluation: {items} items, {ebs} EBs, {samples} samples per config..."
    );
    let results = run_all(scale, samples);
    println!("{}", render_experiments(&results));
}
