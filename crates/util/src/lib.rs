//! # mtc-util — the workspace's hermetic substrate
//!
//! The MTCache reproduction models a cache tier whose defining property is
//! *self-sufficiency*: it keeps serving when the backend is unreachable.
//! The build embodies the same idea — this crate replaces every external
//! dependency the workspace used to declare, so a clean checkout compiles
//! and tests with an empty cargo registry and no network at all.
//!
//! | external crate | in-tree replacement |
//! |----------------|---------------------|
//! | `parking_lot`  | [`sync`] — poison-free `Mutex`/`RwLock` over `std::sync` |
//! | `rand`         | [`rng`] — SplitMix64-seeded PCG32, `gen_range`/`gen_bool`/`shuffle` |
//! | `proptest`     | [`check`] — seeded generators + N-case runner with failing-seed replay |
//! | `serde`        | `mtc_types::codec` — compact binary `to_bytes`/`from_bytes` |
//!
//! Beyond the replacements, [`fault`] provides the workspace's deterministic
//! failure substrate: seeded [`fault::FaultPlan`] decisions (drop /
//! duplicate / delay / corrupt / crash) and the jittered-exponential
//! [`fault::RetryPolicy`] the replication agents recover with. [`lru`] is
//! the one recency-ordered map behind the statement, plan and result caches.
//!
//! The invariant is enforced by the root `tests/hermetic.rs` guard, which
//! fails if any `Cargo.toml` in the workspace declares a non-`path`
//! dependency.

pub mod atomic;
pub mod check;
pub mod fault;
pub mod lru;
pub mod rng;
pub mod sync;
