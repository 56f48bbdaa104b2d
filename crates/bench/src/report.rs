//! The §6 report: one list of tables built from a run, written once as
//! `BENCH_paper.json` and once as EXPERIMENTS.md. Every number in either
//! comes from the run or from [`crate::paper`].

use std::fmt::Write as _;

use mtc_tpcw::mix::Workload;

use crate::experiments::{ExperimentResults, ScaleoutRow};
use crate::json::Json;
use crate::paper::{self, CLAIMS};

/// One table of §6: a section of `BENCH_paper.json` and of EXPERIMENTS.md.
pub struct Table {
    /// The section's key in `BENCH_paper.json`, and its title.
    pub key: &'static str,
    pub title: &'static str,
    /// (JSON key, header, decimals) of every column.
    pub columns: Vec<(&'static str, &'static str, usize)>,
    /// A label and one cell per column.
    pub rows: Vec<(String, Vec<Cell>)>,
}

/// The paper's value, `None` where it reports none, and ours.
pub type Cell = (Option<f64>, f64);

/// Every table of §6, in report order.
pub fn tables(r: &ExperimentResults) -> Vec<Table> {
    let per_workload = |cells: &dyn Fn(usize, Workload) -> Vec<Cell>| {
        let rows = Workload::ALL.iter().enumerate();
        rows.map(|(i, &w)| (w.name().into(), cells(i, w))).collect()
    };
    // A Figure 6 series: the paper's value at five servers is its summary's.
    let series = |w, ours: fn(&ScaleoutRow) -> f64, paper_at_five: f64| {
        let cell = |p: &ScaleoutRow| ((p.servers == 5).then_some(paper_at_five), ours(p));
        r.series(w).map(cell).collect()
    };
    let servers = |decimals| ["1", "2", "3", "4", "5"].map(|n| (n, n, decimals)).to_vec();
    let paper_overhead_pct =
        (1.0 - paper::EXP2_READER_ON_WIPS / paper::EXP2_READER_OFF_WIPS) * 100.0;
    let replication = vec![
        (
            Some(paper::EXP2_MIDTIER_APPLY_CPU),
            r.exp2.midtier_apply_cpu_pct,
        ),
        (Some(paper::EXP2_READER_ON_WIPS), r.exp2.reader_on_wips),
        (Some(paper::EXP2_READER_OFF_WIPS), r.exp2.reader_off_wips),
        (Some(paper_overhead_pct), r.exp2.overhead_pct),
        (Some(paper::EXP3_LIGHT_S), r.exp3.light_avg_s),
        (Some(paper::EXP3_HEAVY_S), r.exp3.heavy_avg_s),
    ];
    vec![
        Table {
            key: "workload_mix",
            title: "§6.1.1 — workload mixes",
            columns: vec![("browse_pct", "Browse %", 1), ("order_pct", "Order %", 1)],
            rows: per_workload(&|i, w| {
                let (_, browse, order) = paper::MIX[i];
                let ours = w.mix().browse_fraction() * 100.0;
                vec![(Some(browse), ours), (Some(order), 100.0 - ours)]
            }),
        },
        Table {
            key: "fig6a",
            title: "Figure 6(a) — WIPS vs. web/cache servers",
            columns: servers(0),
            rows: per_workload(&|i, w| series(w, |p| p.wips, paper::FIVE_SERVER[i].1)),
        },
        Table {
            key: "fig6b",
            title: "Figure 6(b) — backend CPU load (%) vs. web/cache servers",
            columns: servers(1),
            rows: per_workload(&|i, w| series(w, |p| p.backend_load_pct, paper::FIVE_SERVER[i].2)),
        },
        Table {
            key: "summary",
            title: "§6.2.1 — baseline (no cache) vs. five web/cache servers, and the \
                    speculative scale-out until the backend saturates",
            columns: vec![
                ("no_cache_wips", "No-cache WIPS", 0),
                ("five_server_wips", "5-server WIPS", 0),
                ("gain", "Gain ×", 2),
                ("backend_load_pct", "5-server backend load %", 1),
                ("saturating_servers", "Servers to saturate", 0),
                ("saturated_wips", "WIPS there", 0),
            ],
            rows: per_workload(&|i, w| {
                let (s, base) = (r.summary_of(w), paper::BASELINE_WIPS[i].1);
                let (_, wips, load) = paper::FIVE_SERVER[i];
                let (_, servers, saturated) = paper::EXTRAPOLATION[i];
                vec![
                    (Some(base), s.no_cache_wips),
                    (Some(wips), s.five_server_wips),
                    (Some(wips / base), s.gain()),
                    (Some(load), s.five_server_backend_load_pct),
                    (Some(servers), s.saturating_servers),
                    (Some(saturated), s.saturated_wips),
                ]
            }),
        },
        Table {
            key: "replication",
            title: "Experiments 2 and 3 — replication overhead with the backend saturated \
                    (§6.2.2) and propagation latency (§6.2.3)",
            columns: vec![
                ("midtier_apply_cpu_pct", "Idle mid-tier apply CPU %", 1),
                ("reader_on_wips", "WIPS, log reader on", 0),
                ("reader_off_wips", "WIPS, log reader off", 0),
                ("overhead_pct", "Backend overhead %", 1),
                ("light_latency_s", "Latency, light load (s)", 2),
                ("heavy_latency_s", "Latency, heavy load (s)", 2),
            ],
            rows: vec![("Ordering".into(), replication)],
        },
        Table {
            key: "demands",
            title: "Measured per-interaction demands (work units)",
            columns: vec![
                ("backend_query", "Backend query", 1),
                ("cache_query", "Cache query", 1),
                ("log_reader", "Log reader", 2),
                ("apply", "Apply", 2),
                ("fully_local_pct", "Fully local %", 0),
            ],
            rows: r
                .demands
                .iter()
                .map(|d| {
                    let config = if d.cached { "cached" } else { "baseline" };
                    let (query, cache) = (d.backend_query_work, d.cache_query_work);
                    let local = d.fully_local_fraction * 100.0;
                    let cells = [query, cache, d.reader_work, d.apply_work, local];
                    let label = format!("{}, {config}", d.workload.name());
                    (label, cells.map(|v| (None, v)).to_vec())
                })
                .collect(),
        },
    ]
}

/// `BENCH_paper.json`: the run's configuration, every table (each cell
/// `{ "paper", "ours" }`, `paper` null where the paper gives no value) and
/// every claim with its verdict.
pub fn to_json(r: &ExperimentResults) -> String {
    let scale = (Json::inline().put("items", r.scale.items))
        .put("emulated_browsers", r.scale.emulated_browsers)
        .put("seed", r.scale.seed);
    let mut root =
        (Json::root().put("experiment", "paper").put("scale", scale)).put("samples", r.samples);
    for t in tables(r) {
        let rows = t.rows.iter().map(|(label, cells)| {
            let mut record = Json::record().put("row", label);
            for (&(key, _, d), &(paper, ours)) in t.columns.iter().zip(cells) {
                let paper = Json::Scalar(paper.map_or("null".into(), |p| format!("{p:.d$}")));
                record = record.put(key, Json::inline().put("paper", paper).num("ours", ours, d));
            }
            record
        });
        root = root.put(t.key, Json::rows(rows));
    }
    let claims = CLAIMS.iter().map(|c| {
        let holds = Json::Scalar((c.holds)(r).to_string());
        (Json::record().put("claim", c.key).put("holds", holds)).put("text", c.text)
    });
    root.put("claims", Json::rows(claims)).render()
}

/// How §6 is reproduced; the numbers it rests on are named, not typed.
const METHODOLOGY: &str = "Per-interaction service demands are measured by executing the real \
TPC-W workload through the real engine, with replication pumped throughout. A closed \
queueing-network model (`mtc_sim::CapacityModel`) turns them into throughput and CPU loads under \
the benchmark's admission rule. The baseline and the cached deployment replay the same seeded \
interactions; the cached deployment is the paper's configuration (shadow database, cached views, \
dynamic plans and replication, with the mid-tier result cache off). One constant pins absolute \
throughput: no-cache Browsing is calibrated to the paper's value. Page generation \
(`PAGE_WORK_FRACTION`), forwarded writes (`mtcache::dml`) and replication (`ReplicationCosts`) \
are priced by fixed constants in the engine's work unit.";

/// EXPERIMENTS.md: the methodology, then the claims with their verdicts
/// and every table, each number printed from the run.
pub fn to_markdown(r: &ExperimentResults) -> String {
    let mut out = format!(
        "# EXPERIMENTS — paper vs. measured\n\n\
         Every table and claim of the paper's §6 evaluation, generated by `exp_paper` from the \
         run it writes to `BENCH_paper.json`: regenerate both with `cargo run --release -p \
         mtc-bench --bin exp_paper` from the repository root, never by hand. \
         `scripts/bench_all.sh --check` fails when either differs from what the code generates.\n\n\
         Configuration: {} items, {} emulated browsers ({} customers), {} sampled interactions \
         per measurement. A cell reads *paper / ours* where the paper reports a value.\n\n\
         ## Methodology\n\n{METHODOLOGY}\n\n## Claims\n\n| Claim | Holds |\n|---|---|\n",
        r.scale.items,
        r.scale.emulated_browsers,
        r.scale.customers(),
        r.samples,
    );
    for c in &CLAIMS {
        let verdict = if (c.holds)(r) { "✓" } else { "✗" };
        let _ = writeln!(out, "| {} | {verdict} |", c.text);
    }
    for t in tables(r) {
        let headers: Vec<&str> = t.columns.iter().map(|c| c.1).collect();
        let (headers, rule) = (headers.join(" | "), "---|".repeat(headers.len()));
        let _ = writeln!(out, "\n## {}\n", t.title);
        let _ = writeln!(out, "| Workload | {headers} |\n|---|{rule}");
        for (label, cells) in &t.rows {
            let _ = write!(out, "| {label} |");
            for (&(_, _, d), &(paper, ours)) in t.columns.iter().zip(cells) {
                let paper = paper.map_or(String::new(), |p| format!("{p:.d$} / "));
                let _ = write!(out, " {paper}{ours:.d$} |");
            }
            out.push('\n');
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::field;
    use mtc_tpcw::datagen::Scale;

    #[test]
    fn report_renders_all_sections() {
        let r = crate::experiments::run_all(Scale::tiny(), 60);
        let (json, text) = (to_json(&r), to_markdown(&r));
        for t in tables(&r) {
            assert!(
                text.contains(&format!("## {}", t.title)),
                "missing section {}",
                t.title
            );
            assert!(
                json.contains(&format!("\"{}\": [", t.key)),
                "missing key {}",
                t.key
            );
            for (label, cells) in &t.rows {
                assert_eq!(cells.len(), t.columns.len(), "{} / {label}", t.key);
            }
        }
        for c in &CLAIMS {
            assert!(
                text.contains(&format!("| {} |", c.text)),
                "missing claim {}",
                c.key
            );
        }
        let keys: Vec<&str> = tables(&r).iter().map(|t| t.key).collect();
        assert_eq!(
            keys,
            ["workload_mix", "fig6a", "fig6b", "summary", "replication", "demands"]
        );
        assert_eq!(CLAIMS.len(), 7);
        assert!(text.contains("| Browsing |"));
        assert_eq!(field(&json, "items"), 100.0);
    }

    #[test]
    fn paper_tables_list_the_workloads_in_run_order() {
        let names: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
        assert_eq!(paper::MIX.map(|m| m.0), *names);
        assert_eq!(paper::BASELINE_WIPS.map(|m| m.0), *names);
        assert_eq!(paper::FIVE_SERVER.map(|m| m.0), *names);
        assert_eq!(paper::EXTRAPOLATION.map(|m| m.0), *names);
    }
}
