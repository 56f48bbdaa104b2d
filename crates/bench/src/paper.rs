//! The paper's §6: every number it reports, and each of its qualitative
//! claims as one predicate over [`ExperimentResults`]. The report's ✓/✗
//! column and the shape test both judge a run through [`CLAIMS`].

use mtc_tpcw::mix::Workload::{self, Browsing, Ordering, Shopping};

use crate::experiments::ExperimentResults;

/// §6.1.1 mix table: (workload, browse %, order %), in `Workload::ALL`
/// order like every per-workload table here.
pub const MIX: [(&str, f64, f64); 3] = [
    ("Browsing", 95.0, 5.0),
    ("Shopping", 80.0, 20.0),
    ("Ordering", 50.0, 50.0),
];

/// §6.2.1 baseline table: WIPS without caching.
pub const BASELINE_WIPS: [(&str, f64); 3] =
    [("Browsing", 50.0), ("Shopping", 82.0), ("Ordering", 283.0)];

/// §6.2.1 summary: five web/cache servers (WIPS, backend load %).
pub const FIVE_SERVER: [(&str, f64, f64); 3] = [
    ("Browsing", 129.0, 7.5),
    ("Shopping", 199.0, 15.9),
    ("Ordering", 271.0, 55.4),
];

/// §6.2.1 speculative extrapolation: the web/cache servers that saturate
/// the backend, and the WIPS there. For Ordering the paper gives ranges,
/// "3–4 more" servers than five and 300–310 WIPS; the midpoints stand in.
pub const EXTRAPOLATION: [(&str, f64, f64); 3] = [
    ("Browsing", 50.0, 1250.0),
    ("Shopping", 25.0, 1000.0),
    ("Ordering", 8.5, 305.0),
];

/// §6.2.2: mid-tier CPU% applying changes on an idle subscriber.
pub const EXP2_MIDTIER_APPLY_CPU: f64 = 15.0;
/// §6.2.2: Ordering WIPS with the log reader on / off.
pub const EXP2_READER_ON_WIPS: f64 = 283.0;
pub const EXP2_READER_OFF_WIPS: f64 = 311.0;

/// §6.2.3: the distribution agent's polling interval (seconds).
pub const EXP3_POLL_INTERVAL_S: f64 = 1.0;
/// §6.2.3: average propagation latency (seconds), light / heavy load.
pub const EXP3_LIGHT_S: f64 = 0.55;
pub const EXP3_HEAVY_S: f64 = 1.67;

/// A qualitative claim of §6 and the predicate that judges it.
pub struct Claim {
    pub key: &'static str,
    pub text: &'static str,
    pub holds: fn(&ExperimentResults) -> bool,
}

const READ_MIXES: [Workload; 2] = [Browsing, Shopping];

/// Whether `f` orders the mixes Browsing < Shopping < Ordering.
fn increasing(f: impl Fn(Workload) -> f64) -> bool {
    f(Browsing) < f(Shopping) && f(Shopping) < f(Ordering)
}

/// Every qualitative claim of §6.
pub const CLAIMS: [Claim; 7] = [
    Claim {
        key: "baseline_order",
        text: "Without caching, Browsing < Shopping < Ordering in WIPS",
        holds: |r| increasing(|w| r.summary_of(w).no_cache_wips),
    },
    Claim {
        key: "linear_scaleout",
        text: "Browsing and Shopping WIPS rise with each web/cache server; five give > 3.5× one",
        holds: |r| {
            READ_MIXES.into_iter().all(|w| {
                let wips: Vec<f64> = r.series(w).map(|p| p.wips).collect();
                wips.windows(2).all(|p| p[1] > p[0]) && wips[4] > 3.5 * wips[0]
            })
        },
    },
    Claim {
        key: "backend_load_order",
        text: "With five web/cache servers, backend load is Browsing < Shopping < Ordering",
        holds: |r| increasing(|w| r.summary_of(w).five_server_backend_load_pct),
    },
    Claim {
        key: "read_mix_gain",
        text: "Five web/cache servers give Browsing and Shopping ≥ 1.5× their no-cache WIPS",
        holds: |r| READ_MIXES.iter().all(|&w| r.summary_of(w).gain() >= 1.5),
    },
    Claim {
        key: "ordering_no_gain",
        text: "Five web/cache servers give Ordering at most 10 % more than its no-cache WIPS",
        holds: |r| r.summary_of(Ordering).gain() <= 1.10,
    },
    Claim {
        key: "replication_overhead",
        text: "Replication costs the backend and an idle mid-tier server < 15 % each (Exp. 2)",
        holds: |r| r.exp2.overhead_pct < 15.0 && r.exp2.midtier_apply_cpu_pct < 15.0,
    },
    Claim {
        key: "light_load_latency",
        text: "Light-load propagation latency is 0.4–0.7 polling intervals (Exp. 3)",
        holds: |r| (0.4..=0.7).contains(&(r.exp3.light_avg_s / EXP3_POLL_INTERVAL_S)),
    },
];
