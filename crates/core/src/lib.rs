//! MTCache: transparent mid-tier database caching.
//!
//! This crate assembles the substrates (storage, SQL, engine, replication)
//! into the paper's system:
//!
//! * [`BackendServer`] — the backend database server. Owns the database of
//!   record; executes every statement locally; maintains materialized views
//!   eagerly inside each transaction; publishes its commit log.
//! * [`CacheServer`] — an MTCache server. Its database is a **shadow** of
//!   the backend's (catalog + statistics, empty tables) plus the backing
//!   tables of **cached views** kept up to date by transactional
//!   replication. Queries are optimized locally and run local, remote or
//!   part-and-part on cost; stored procedures the node holds a copy of run
//!   locally. Everything but a SELECT or an `EXEC` of a held procedure —
//!   INSERT/UPDATE/DELETE, DDL, `GRANT`, a call to a procedure it does not
//!   hold — is transparently forwarded to the backend, which authorizes and
//!   executes it; a catalog statement then re-shadows the object it names.
//! * [`Connection`] — the application-facing handle. Applications are
//!   oblivious to which server they talk to; re-pointing a connection from
//!   backend to cache (the "ODBC re-route" of §4) requires no application
//!   change.
//!
//! Extensions from the paper's §7 future work are included: statement-level
//! `WITH FRESHNESS n SECONDS` bounds, a prunable shadow catalog, and a small
//! cache-design [`advisor`].
//!
//! # Example
//!
//! ```
//! use std::sync::Arc;
//! use mtc_util::sync::Mutex;
//! use mtcache::{BackendServer, CacheServer, Connection};
//! use mtc_replication::ReplicationHub;
//!
//! // A backend with data.
//! let backend = BackendServer::new("backend");
//! backend.run_script(
//!     "CREATE TABLE customer (cid INT NOT NULL PRIMARY KEY, cname VARCHAR);
//!      INSERT INTO customer VALUES (1, 'alice'), (2, 'bob');",
//! )?;
//! backend.analyze();
//!
//! // A cache server: shadow database + one cached view, populated and
//! // kept fresh by replication.
//! let hub = Arc::new(Mutex::new(ReplicationHub::new(backend.db.clone())));
//! let cache = CacheServer::create("cache1", backend.clone(), hub.clone());
//! cache.create_cached_view("cust1", "SELECT cid, cname FROM customer WHERE cid <= 1")?;
//!
//! // The application is oblivious: same code, either handle.
//! let conn = Connection::connect(cache);
//! let result = conn.query("SELECT cname FROM customer WHERE cid = 1")?;
//! assert_eq!(result.rows.len(), 1);
//! assert_eq!(result.metrics.remote_calls, 0); // answered from the cached view
//! # Ok::<(), mtc_types::Error>(())
//! ```

pub mod advisor;
pub mod backend;
pub mod cache;
pub mod connection;
pub mod dml;
pub mod fleet;
pub mod fragment;
mod key;
pub mod plan_cache;
pub mod procs;
pub mod result_cache;
pub mod scripting;
pub mod statements;
pub mod stats;

pub use advisor::{AdaptiveAdvisor, AdvisorStats};
pub use backend::BackendServer;
pub use cache::{CacheServer, Wiring};
pub use fragment::FragmentGateway;
pub use connection::{Connection, ServerHandle};
pub use fleet::{fnv1a64, Fleet, FleetConfig, Router};
pub use plan_cache::{param_signature, CachedPlan, CacheStats, Compiled, PlanCache};
pub use result_cache::{
    param_values_signature, referenced_values_signature, Lineage, RemoteGateway, ResultCache,
    ResultCacheConfig, ResultCacheStats,
};
pub use scripting::script_shadow_database;
pub use statements::{Resolved, StatementCache, STATEMENT_CACHE_CAPACITY};
pub use stats::ServerStats;

pub use mtc_engine::{Bindings, QueryResult};
