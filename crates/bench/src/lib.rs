//! Experiment harness for the paper's evaluation (§6).
//!
//! The pipeline is: build a deployment (backend + replication distributor +
//! cache servers, loaded with TPC-W data) → run the real workload through
//! the real engine, measuring per-interaction service demands → feed the
//! demands to the multi-tier capacity simulator, which applies the
//! benchmark's admission rule to produce WIPS and CPU loads. One
//! calibration constant pins absolute numbers; every other number follows
//! from measured relative demands.

pub mod advisor;
pub mod concurrency;
pub mod deployment;
pub mod experiments;
pub mod fleet;
pub mod json;
pub mod measure;
pub mod paper;
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
pub use resultcache::{run_resultcache, ResultCacheResults, WorkloadPoint};
