//! Parameterized plan cache.
//!
//! SQL Server answers the TPC-W mix almost entirely from its procedure /
//! plan cache: a parameterized statement is compiled once — including the
//! ChoosePlan dynamic plans of §5.1 — and re-executed with fresh parameter
//! values. This module gives our servers the same hot path:
//!
//! * **Key** — the normalized statement text (`Prepared::key`, the
//!   statement's canonical rendering, made once when the text is prepared)
//!   plus a *parameter signature*: the sorted `name=type` list of the bound
//!   parameters. The same text bound with `@x` as an `INT` and as a
//!   `VARCHAR` occupies two entries, exactly like SQL Server's cache keyed
//!   on parameter types. A probe hashes the statement's fingerprint (made
//!   when it was prepared) and the signature streamed from the bindings
//!   once, and builds no string (see [`crate::key`]).
//! * **Value** — for a SELECT the [`CompiledQuery`] (ordinals resolved,
//!   constants folded, parameters slotted) produced by
//!   `mtc_engine::compile`; on the backend, for an INSERT/UPDATE/DELETE the
//!   [`CompiledDml`] of `crate::dml`. Either is stamped with the catalog
//!   version it was optimized under. Dynamic ChoosePlan plans cache as-is:
//!   their startup predicates re-evaluate on every execution, so one cached
//!   entry serves all parameter values.
//! * **Invalidation** — versioned. Every plan-relevant metadata change
//!   (CREATE/DROP TABLE, CREATE INDEX, view creation/removal, statistics
//!   refresh) bumps [`mtc_storage::Catalog::version`]; a lookup that finds
//!   a plan stamped with an older version discards it, counts an
//!   invalidation, and forces re-optimization. Stale plans are therefore
//!   never executed.
//!
//! # Concurrency
//!
//! The cache is **sharded**: keys hash to one of several independently
//! locked shards (large caches get eight; tiny caches collapse to one so
//! the LRU bound stays exact), and concurrent sessions probing different
//! statements take different locks. Counters are relaxed atomics shared by
//! all shards, so bumping a hit count never serializes two sessions. LRU
//! eviction is per shard — each shard is an [`LruMap`] bounding its own
//! slice of the capacity, which bounds the whole — and a hit allocates
//! nothing.
//!
//! Statements carrying a `WITH FRESHNESS` bound are cached like any other:
//! no plan depends on replication staleness. The bound stays in the
//! statement's text (so each shape-and-bound pair is one entry), and
//! `CacheServer::select_impl` compares it with the node's watermark on every
//! execution, before the probe: a node past it forwards the statement
//! without probing.
//!
//! Permission checks still run on every execution, cached or not — the
//! cache stores *plans*, not authorization decisions — and they run
//! **before** the shard lock is taken (see `CacheServer::select_impl` and
//! `BackendServer::execute_select`), so a slow authorization path can
//! never stall other sessions' cache probes, and a denied principal never
//! touches LRU state.

use std::sync::Arc;

use mtc_util::lru::{LruMap, PreHashedBuild};
use mtc_util::sync::Mutex;

use mtc_engine::{Bindings, CompiledQuery, Optimized};
use mtc_sql::Prepared;
use mtc_types::{Error, Result};

use crate::dml::CompiledDml;
use crate::key::{Key, Probe, Sig};
use crate::statements::Resolved;

mtc_util::counter_set! {
    /// Observable plan-cache counters, surfaced through `CacheStats`
    /// consumers (server stats APIs and `EXPLAIN` output).
    #[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
    pub struct CacheStats {
        /// Lookups answered from the cache.
        pub hits: u64,
        /// Lookups that found nothing usable (includes invalidations).
        pub misses: u64,
        /// Entries discarded because the catalog version moved past them.
        pub invalidations: u64,
        /// Plans inserted.
        pub insertions: u64,
        /// Entries evicted to respect the capacity bound.
        pub evictions: u64,
        /// Entries currently resident (a gauge [`PlanCache::stats`]
        /// computes; the live counter of this name stays zero).
        pub entries: u64,
    }
    /// Shared relaxed counters — no shard lock needed to bump or read them.
    #[derive(Default)]
    live struct SharedStats;
}

/// What a cached plan executes.
#[derive(Debug)]
pub enum Compiled {
    /// A SELECT: execute via `mtc_engine::execute_compiled`.
    Query(CompiledQuery),
    /// An INSERT/UPDATE/DELETE (backend only).
    Dml(CompiledDml),
}

/// One cached, compiled, ready-to-execute plan.
pub struct CachedPlan {
    pub compiled: Compiled,
    /// Optimizer cost estimate at compile time (for EXPLAIN).
    pub est_cost: f64,
    /// Optimizer cardinality estimate at compile time (for EXPLAIN).
    pub est_rows: f64,
    /// Catalog version this plan was optimized under.
    pub catalog_version: u64,
    /// Fleet placement-topology version this plan was optimized under.
    /// Multi-site placements reference specific peers; a node crash or
    /// rejoin bumps the fleet topology version, so plans that might route
    /// fragments to a vanished (or newly-returned) peer are discarded
    /// exactly like catalog-stale plans. Single-node servers pin this at 0.
    pub topology_version: u64,
}

impl CachedPlan {
    /// The compiled query of a SELECT's plan. A statement's kind is part of
    /// its text and so of its key: a SELECT never finds a DML plan.
    pub fn query(&self) -> Result<&CompiledQuery> {
        match &self.compiled {
            Compiled::Query(query) => Ok(query),
            Compiled::Dml(_) => Err(Error::plan("cached plan is not a query plan")),
        }
    }

    /// The compiled form of an INSERT/UPDATE/DELETE's plan.
    pub fn dml(&self) -> Result<&CompiledDml> {
        match &self.compiled {
            Compiled::Dml(dml) => Ok(dml),
            Compiled::Query(_) => Err(Error::plan("cached plan is not a DML plan")),
        }
    }
}

/// A resident plan and the key it is stored under.
struct Entry {
    key: Key,
    plan: Arc<CachedPlan>,
}

/// One shard: its plans by key hash, least recently used first.
type Shard = LruMap<u64, Entry, PreHashedBuild>;

/// A bounded, versioned, sharded cache of compiled plans keyed by
/// `(statement text, parameter signature)`.
pub struct PlanCache {
    shards: Vec<Mutex<Shard>>,
    /// Capacity bound of each shard (total capacity / shard count).
    shard_capacity: usize,
    stats: SharedStats,
}

impl Default for PlanCache {
    fn default() -> PlanCache {
        PlanCache::new(512)
    }
}

impl PlanCache {
    /// A cache bounded to ~`capacity` resident plans. Caches big enough to
    /// see concurrency get eight shards; tiny (test-sized) caches collapse
    /// to one shard so the LRU bound is exact.
    pub fn new(capacity: usize) -> PlanCache {
        let capacity = capacity.max(1);
        let n_shards = if capacity < 64 { 1 } else { 8 };
        PlanCache {
            shards: (0..n_shards)
                .map(|_| Mutex::new(Shard::default()))
                .collect(),
            shard_capacity: (capacity / n_shards).max(1),
            stats: SharedStats::default(),
        }
    }

    fn shard_of(&self, probe: &Probe) -> &Mutex<Shard> {
        &self.shards[probe.shard(self.shards.len())]
    }

    /// Looks up a plan for `(sql, sig)` valid at `current_version` and
    /// placement-topology version `topology` (see [`PlanCache::probe`]).
    pub fn lookup(
        &self,
        sql: &str,
        sig: &str,
        current_version: u64,
        topology: u64,
    ) -> Option<Arc<CachedPlan>> {
        self.probe(&Probe::of_text(sql, sig), current_version, topology)
    }

    /// [`lookup`](Self::lookup) for `stmt` bound with `params`: the entry
    /// `(stmt.key, param_signature(params))` names, found without hashing
    /// the text or rendering the signature.
    pub fn lookup_prepared(
        &self,
        stmt: &Prepared,
        params: &Bindings,
        current_version: u64,
        topology: u64,
    ) -> Option<Arc<CachedPlan>> {
        self.probe(
            &Probe::of(stmt, Sig::Types(params)),
            current_version,
            topology,
        )
    }

    /// A resident plan stamped with an older catalog *or topology* version
    /// is discarded (counted as an invalidation *and* a miss) so a stale
    /// plan can never be executed. Only the key's shard is locked.
    fn probe(&self, probe: &Probe, current_version: u64, topology: u64) -> Option<Arc<CachedPlan>> {
        let mut shard = self.shard_of(probe).lock();
        let at = shard
            .find(&probe.hash)
            .filter(|&at| probe.is(&shard.at_mut(at).key));
        let Some(at) = at else {
            drop(shard);
            self.stats.misses.inc();
            return None;
        };
        let plan = &shard.at_mut(at).plan;
        if plan.catalog_version == current_version && plan.topology_version == topology {
            let plan = plan.clone();
            // A hit moves the plan to the recently-used end.
            shard.touch(at);
            drop(shard);
            self.stats.hits.inc();
            return Some(plan);
        }
        shard.remove_at(at);
        drop(shard);
        self.stats.invalidations.inc();
        self.stats.misses.inc();
        None
    }

    /// Inserts a freshly compiled plan, evicting the least-recently-used
    /// entry of the key's shard if that shard is full.
    pub fn insert(&self, sql: &str, sig: &str, plan: CachedPlan) -> Arc<CachedPlan> {
        let probe = Probe::of_text(sql, sig);
        let plan = Arc::new(plan);
        let entry = Entry {
            key: probe.key(),
            plan: plan.clone(),
        };
        let mut shard = self.shard_of(&probe).lock();
        let replaced = shard.insert(probe.hash, entry).is_some();
        let evicted = !replaced && shard.len() > self.shard_capacity && shard.pop_lru().is_some();
        drop(shard);
        if evicted {
            self.stats.evictions.inc();
        }
        self.stats.insertions.inc();
        plan
    }

    /// The plan of `stmt` bound with `params`: the resident one valid at
    /// `catalog_version` and `topology_version`, else the one `compile`
    /// builds (with the optimizer's estimates, if it ran the optimizer),
    /// stamped with both versions and cached. When `compile` fails, nothing
    /// is cached and its error is returned.
    pub(crate) fn get_or_compile(
        &self,
        stmt: &Prepared,
        params: &Bindings,
        catalog_version: u64,
        topology_version: u64,
        compile: impl FnOnce() -> Result<(Compiled, Option<Optimized>)>,
    ) -> Result<Arc<CachedPlan>> {
        if let Some(hit) = self.lookup_prepared(stmt, params, catalog_version, topology_version) {
            return Ok(hit);
        }
        let (compiled, opt) = compile()?;
        let plan = CachedPlan {
            compiled,
            est_cost: opt.as_ref().map_or(0.0, |o| o.est_cost),
            est_rows: opt.as_ref().map_or(0.0, |o| o.est_rows),
            catalog_version,
            topology_version,
        };
        Ok(self.insert(&stmt.key, &param_signature(params), plan))
    }

    /// EXPLAIN's header for `resolved`, planned as `opt`: how its text was
    /// prepared, the optimizer's estimates, and whether a plan for it is
    /// resident at these versions, with this cache's counters.
    pub(crate) fn explain_header(
        &self,
        resolved: &Resolved,
        opt: &Optimized,
        catalog_version: u64,
        topology_version: u64,
    ) -> String {
        let cached = self.contains_sql(&resolved.stmt.key, catalog_version, topology_version);
        let s = self.stats();
        format!(
            "{}estimated cost: {:.1}\nestimated rows: {:.0}\nplan cache: {} (hits {}, misses {}, invalidations {})\n",
            resolved.describe(),
            opt.est_cost,
            opt.est_rows,
            if cached { "cached" } else { "cold" },
            s.hits,
            s.misses,
            s.invalidations,
        )
    }

    /// Non-counting peek used by EXPLAIN: is *any* plan for this statement
    /// text resident and valid at `current_version` (regardless of which
    /// parameter signature it was compiled for)?
    pub fn contains_sql(&self, sql: &str, current_version: u64, topology: u64) -> bool {
        self.shards.iter().any(|shard| {
            shard.lock().iter().any(|(_, e)| {
                &*e.key.text == sql
                    && e.plan.catalog_version == current_version
                    && e.plan.topology_version == topology
            })
        })
    }

    /// Counter snapshot.
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            entries: self.len() as u64,
            ..self.stats.snapshot()
        }
    }

    /// Drops every cached plan (counters are preserved).
    pub fn clear(&self) {
        for shard in &self.shards {
            shard.lock().clear();
        }
    }

    pub fn len(&self) -> usize {
        self.shards.iter().map(|s| s.lock().len()).sum()
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// The parameter signature of a binding set: sorted `name=type` pairs.
/// `Bindings` is a `BTreeMap`, so iteration order is already canonical.
pub fn param_signature(params: &Bindings) -> String {
    Sig::Types(params).render()
}

#[cfg(test)]
mod tests {
    use super::*;
    use mtc_engine::{bind_select, compile, optimize, OptimizerOptions};
    use mtc_sql::{parse_statement, Statement};
    use mtc_storage::Database;
    use mtc_types::{row, Column, DataType, Schema, Value};

    fn db() -> Database {
        let mut db = Database::new("t");
        db.create_table(
            "item",
            Schema::new(vec![
                Column::not_null("i_id", DataType::Int),
                Column::new("i_cost", DataType::Float),
            ]),
            &["i_id".into()],
        )
        .unwrap();
        db.apply(
            0,
            (1..=10)
                .map(|i| mtc_storage::RowChange::Insert {
                    table: "item".into(),
                    row: row![i, i as f64],
                })
                .collect(),
        )
        .unwrap();
        db.analyze();
        db
    }

    fn plan_for(db: &Database, sql: &str) -> CachedPlan {
        let Statement::Select(sel) = parse_statement(sql).unwrap() else {
            panic!()
        };
        let plan = bind_select(&sel, db).unwrap();
        let opt = optimize(plan, db, &OptimizerOptions::default()).unwrap();
        CachedPlan {
            compiled: Compiled::Query(compile(&opt.physical).unwrap()),
            est_cost: opt.est_cost,
            est_rows: opt.est_rows,
            catalog_version: db.catalog.version(),
            topology_version: 0,
        }
    }

    #[test]
    fn hit_miss_and_signature_separation() {
        let db = db();
        let cache = PlanCache::new(8);
        let sql = "SELECT i_id FROM item WHERE i_id <= @n";
        let v = db.catalog.version();
        assert!(cache.lookup(sql, "n=int", v, 0).is_none());
        cache.insert(sql, "n=int", plan_for(&db, sql));
        assert!(cache.lookup(sql, "n=int", v, 0).is_some());
        // A different parameter signature is a different entry.
        assert!(cache.lookup(sql, "n=str", v, 0).is_none());
        let s = cache.stats();
        assert_eq!(s.hits, 1);
        assert_eq!(s.misses, 2);
        assert_eq!(s.entries, 1);
    }

    #[test]
    fn prepared_and_text_probes_reach_the_same_entries() {
        let db = db();
        let cache = PlanCache::new(512);
        let stmt = Prepared::new("select I_ID from item where i_id <= @n").unwrap();
        let v = db.catalog.version();
        let mut params = Bindings::new();
        params.insert("n".into(), Value::Int(3));
        cache.insert(
            &stmt.key,
            &param_signature(&params),
            plan_for(&db, &stmt.key),
        );
        assert!(cache.lookup(&stmt.key, "n=int", v, 0).is_some());
        assert!(
            cache.lookup(&stmt.text, "n=int", v, 0).is_none(),
            "keyed on the key"
        );
        params.insert("n".into(), Value::str("x"));
        assert!(cache.lookup_prepared(&stmt, &params, v, 0).is_none());
        cache.insert(&stmt.key, "n=str", plan_for(&db, &stmt.key));
        assert!(cache.lookup_prepared(&stmt, &params, v, 0).is_some());
        assert_eq!(cache.len(), 2);
    }

    #[test]
    fn version_mismatch_invalidates() {
        let mut db = db();
        let cache = PlanCache::new(8);
        let sql = "SELECT i_id FROM item WHERE i_id <= 5";
        cache.insert(sql, "", plan_for(&db, sql));
        let v0 = db.catalog.version();
        assert!(cache.lookup(sql, "", v0, 0).is_some());
        // Metadata changes; the cached plan must not survive.
        db.create_index("ix_cost", "item", &["i_cost".into()], false)
            .unwrap();
        let v1 = db.catalog.version();
        assert!(v1 > v0);
        assert!(cache.lookup(sql, "", v1, 0).is_none());
        let s = cache.stats();
        assert_eq!(s.invalidations, 1);
        assert_eq!(s.entries, 0);
    }

    #[test]
    fn topology_mismatch_invalidates() {
        let db = db();
        let cache = PlanCache::new(8);
        let sql = "SELECT i_id FROM item WHERE i_id <= 5";
        cache.insert(sql, "", plan_for(&db, sql));
        let v = db.catalog.version();
        assert!(cache.lookup(sql, "", v, 0).is_some());
        assert!(cache.contains_sql(sql, v, 0));
        // A fleet topology change (crash/rejoin) must discard the plan even
        // though the catalog version is unchanged: its placement may route
        // fragments to a peer that no longer exists.
        assert!(!cache.contains_sql(sql, v, 1));
        assert!(cache.lookup(sql, "", v, 1).is_none());
        let s = cache.stats();
        assert_eq!(s.invalidations, 1);
        assert_eq!(s.entries, 0);
    }

    #[test]
    fn lru_eviction_respects_capacity() {
        let db = db();
        let cache = PlanCache::new(2);
        assert_eq!(cache.shards.len(), 1, "tiny caches collapse to one shard");
        let v = db.catalog.version();
        let sql = "SELECT i_id FROM item";
        cache.insert("a", "", plan_for(&db, sql));
        cache.insert("b", "", plan_for(&db, sql));
        // Touch "a" so "b" is the LRU victim.
        assert!(cache.lookup("a", "", v, 0).is_some());
        cache.insert("c", "", plan_for(&db, sql));
        assert_eq!(cache.len(), 2);
        assert!(cache.lookup("a", "", v, 0).is_some());
        assert!(cache.lookup("b", "", v, 0).is_none(), "LRU entry evicted");
        assert_eq!(cache.stats().evictions, 1);
    }

    #[test]
    fn signature_is_canonical() {
        let mut p = Bindings::new();
        p.insert("b".into(), Value::Int(1));
        p.insert("a".into(), Value::str("x"));
        assert_eq!(param_signature(&p), "a=str,b=int");
        assert_eq!(param_signature(&Bindings::new()), "");
    }

    #[test]
    fn sharded_cache_bounds_and_counts() {
        let db = db();
        let cache = PlanCache::new(512);
        assert_eq!(cache.shards.len(), 8);
        let v = db.catalog.version();
        let sql = "SELECT i_id FROM item";
        let plan = plan_for(&db, sql);
        for i in 0..100 {
            cache.insert(&format!("q{i}"), "", plan_for(&db, sql));
        }
        drop(plan);
        assert_eq!(cache.len(), 100, "well under capacity, nothing evicted");
        assert_eq!(cache.stats().insertions, 100);
        for i in 0..100 {
            assert!(cache.lookup(&format!("q{i}"), "", v, 0).is_some(), "q{i}");
        }
        assert_eq!(cache.stats().hits, 100);
        cache.clear();
        assert!(cache.is_empty());
        assert_eq!(cache.stats().hits, 100, "clear preserves counters");
    }

    #[test]
    fn concurrent_probes_agree_with_serial_totals() {
        use std::sync::Arc as StdArc;
        let db = StdArc::new(db());
        let cache = StdArc::new(PlanCache::new(512));
        let v = db.catalog.version();
        let sql = "SELECT i_id FROM item";
        let threads: Vec<_> = (0..4)
            .map(|t| {
                let cache = cache.clone();
                let db = db.clone();
                std::thread::spawn(move || {
                    for i in 0..50 {
                        let key = format!("t{t}-q{i}");
                        assert!(cache.lookup(&key, "", v, 0).is_none());
                        cache.insert(&key, "", plan_for(&db, sql));
                        assert!(cache.lookup(&key, "", v, 0).is_some());
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        let s = cache.stats();
        assert_eq!(s.insertions, 200);
        assert_eq!(s.hits, 200);
        assert_eq!(s.misses, 200);
        assert_eq!(s.entries, 200);
    }
}
