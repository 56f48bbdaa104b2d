//! Experiment harness for the paper's evaluation (§6).
//!
//! The pipeline is: build a deployment (backend + replication distributor +
//! cache servers, loaded with TPC-W data) → run the real workload through
//! the real engine, measuring per-interaction service demands → feed the
//! demands to the multi-tier capacity simulator, which applies the
//! benchmark's admission rule to produce WIPS and CPU loads.
//!
//! One calibration constant pins absolute numbers: the no-cache Browsing
//! baseline is set to the paper's 50 WIPS (the paper's absolute numbers
//! come from 500 MHz Pentiums). Every other number — the other baselines,
//! all scale-out curves, backend loads and overheads — follows from
//! *measured relative demands* and is a genuine prediction of the model.

pub mod advisor;
pub mod concurrency;
pub mod deployment;
pub mod experiments;
pub mod fleet;
pub mod json;
pub mod measure;
pub mod placement;
pub mod replay;
pub mod report;
pub mod resultcache;

pub use advisor::{run_advisor, AdvisorResults, AdvisorRun};
pub use concurrency::{run_concurrency, ConcurrencyResults, WorkerPoint};
pub use deployment::Deployment;
pub use experiments::{run_all, ExperimentResults};
pub use fleet::{run_fleet, FleetResults, FleetWorkloadPoint};
pub use json::{arg, field, field_at, write_artifact, Json};
pub use measure::{measure_demands, MeasuredDemands};
pub use placement::{run_placement, PlacementPhase, PlacementResults};
pub use replay::{PhaseStats, Replay};
pub use report::render_experiments;
pub use resultcache::{run_resultcache, ResultCacheResults, WorkloadPoint};

/// Paper values used for side-by-side comparison in the reports.
pub mod paper {
    /// §6.2.1 baseline table: WIPS without caching.
    pub const BASELINE_WIPS: [(&str, f64); 3] =
        [("Browsing", 50.0), ("Shopping", 82.0), ("Ordering", 283.0)];

    /// §6.2.1 summary: five web/cache servers (WIPS, backend load %).
    pub const FIVE_SERVER: [(&str, f64, f64); 3] = [
        ("Browsing", 129.0, 7.5),
        ("Shopping", 199.0, 15.9),
        ("Ordering", 271.0, 55.4),
    ];

    /// §6.2.2: mid-tier CPU% applying changes on an idle subscriber.
    pub const EXP2_MIDTIER_APPLY_CPU: f64 = 15.0;
    /// §6.2.2: Ordering WIPS with the log reader on / off.
    pub const EXP2_READER_ON_WIPS: f64 = 283.0;
    pub const EXP2_READER_OFF_WIPS: f64 = 311.0;

    /// §6.2.3: average propagation latency (seconds), light / heavy load.
    pub const EXP3_LIGHT_S: f64 = 0.55;
    pub const EXP3_HEAVY_S: f64 = 1.67;
}
