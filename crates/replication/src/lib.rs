//! Transactional replication, modeled on SQL Server's publish–subscribe
//! pipeline (§2.2 of the paper):
//!
//! * A **publisher** makes data available as **publications** consisting of
//!   **articles** — select-project expressions over a table or materialized
//!   view.
//! * A **log reader** collects committed changes from the publisher's
//!   transaction log and inserts them into a **distribution database**.
//! * The **distributor** propagates changes to **subscribers**, one
//!   complete committed transaction at a time, *in commit order*, through
//!   one cursor per subscriber database — so a subscriber always sees a
//!   transactionally consistent (possibly stale) state across all its
//!   cached views.
//! * Once changes have been propagated to all subscribers they are deleted
//!   from the distribution database.
//!
//! The pipeline can be driven deterministically ([`ReplicationHub::pump`],
//! used by the experiments and tests) or by background **agent** threads
//! ([`agent::spawn_agent`]), mirroring SQL Server's periodic distribution
//! agents.

pub mod agent;
pub mod article;
pub mod clock;
pub mod hub;
pub mod metrics;
pub mod wire;

pub use agent::{spawn_agent, spawn_agent_with, AgentHandle, AgentOptions, StopReport};
pub use article::{Article, ResolvedArticle};
pub use clock::{Clock, ManualClock, WallClock};
pub use hub::{apply_idempotent, resolve_idempotent, InvalidationSink, NodeInfo, ReplicationHub};
pub use metrics::{LatencyStats, ReplicationMetrics, SharedReplicationMetrics};
pub use mtc_util::fault::{FaultCounts, FaultDecision, FaultKind, FaultPlan, FaultSpec, RetryPolicy};
pub use wire::{decode_frame, encode_frame};
