//! Query optimization and execution with the MTCache optimizer extensions.
//!
//! The pipeline is: bind (AST → logical plan) → optimize → execute.
//!
//! The optimizer implements the paper's §5 machinery:
//!
//! * a **`DataLocation`** physical property (`Local` on the cache server,
//!   `Remote` for anything that must come from the backend),
//! * a **`DataTransfer`** enforcer whose cost is proportional to the volume
//!   shipped plus a constant startup cost,
//! * a remote-cost multiplier (> 1.0) that penalizes running work on the
//!   (presumably loaded) backend,
//! * **view matching** of select-project materialized views, and
//! * **ChoosePlan dynamic plans** for parameterized queries, implemented —
//!   exactly as Figure 2(b) — as a `UnionAll` of two branches carrying
//!   *startup predicates* (the guard and its negation).
//!
//! Remote subtrees are decompiled back to SQL text and shipped through a
//! [`exec::RemoteExecutor`], mirroring the prototype's "queries can only be
//! shipped as textual SQL" limitation.

pub mod binder;
pub mod compile;
pub mod eval;
pub mod exec;
pub mod logical;
pub mod optimizer;
pub mod physical;
pub mod sqlgen;
pub mod stream;
pub mod vector;

pub use binder::{bind_select, Binder};
pub use compile::{compile, CompiledExpr, CompiledPlan, CompiledQuery, EvalEnv, ParamSlots};
pub use eval::{eval, eval_predicate, Bindings};
pub use exec::{
    execute, execute_compiled, Answer, Collect, ExecContext, ExecMetrics, QueryResult,
    RemoteExecutor, RemoteOutcome,
};
pub use logical::{AggCall, AggFunc, DataLocation, LogicalPlan};
pub use stream::{execute_compiled_with_memo, FragmentMemo};
pub use optimizer::{
    optimize, optimize_with_placement, CostModel, LinkCost, Optimized, OptimizerOptions, PeerSite,
    PlacementEnv,
};
pub use physical::{PhysicalPlan, RemoteSite};
