//! Hot-path experiment: how much the compiled streaming executor and the
//! parameterized plan cache buy on the mid-tier (DESIGN.md §8.4).
//!
//! Three measurements over a cache server answering parameterized range
//! probes from a cached view:
//!
//! 1. **Warm vs cold plan-cache throughput** — the same query stream with
//!    the plan cache in steady state (every execution a hit) against the
//!    same stream with the cache cleared before every statement (every
//!    execution re-binds, re-optimizes, re-compiles). This isolates the
//!    per-statement optimizer overhead the cache removes.
//! 2. **Streaming vs materialized executor** — one optimized physical plan
//!    run through `execute` (compile + stream) and through
//!    `execute_materialized` (the seed interpreter, instrumented).
//! 3. **Row-clone accounting** — `ExecMetrics::rows_cloned` under both
//!    executors for the same plan, showing the copy traffic the batch
//!    iterators eliminate.
//!
//! The binary `exp_hotpath` renders [`HotpathResults`] as
//! `BENCH_hotpath.json`; the root smoke test re-runs a small configuration
//! and enforces the invariants (warm ≥ cold, fewer clones) without relying
//! on wall-clock thresholds beyond a sanity floor.

use std::sync::Arc;
use std::time::Instant;

use mtc_engine::{
    bind_select, execute, execute_materialized, ExecContext, OptimizerOptions,
};
use mtc_sql::{parse_statement, Statement};
use mtc_util::sync::Mutex;
use mtcache::{BackendServer, CacheServer, Connection};
use mtc_replication::ReplicationHub;
use mtc_types::Value;

use crate::json::Json;

/// Everything `exp_hotpath` reports.
#[derive(Debug, Clone)]
pub struct HotpathResults {
    /// Rows in the backing table.
    pub table_rows: i64,
    /// Statements per measured stream.
    pub queries: usize,
    /// Queries/second with the plan cache warm (steady-state hits).
    pub warm_qps: f64,
    /// Queries/second with the plan cache cleared before every statement.
    pub cold_qps: f64,
    /// `warm_qps / cold_qps`.
    pub plan_cache_speedup: f64,
    /// Plan-cache counters after the warm stream.
    pub hits: u64,
    pub misses: u64,
    pub invalidations: u64,
    /// Mean microseconds per execution, compiled streaming executor.
    pub streaming_us: f64,
    /// Mean microseconds per execution, seed materializing interpreter.
    pub materialized_us: f64,
    /// `materialized_us / streaming_us`.
    pub executor_speedup: f64,
    /// Rows cloned per execution of the reference plan, both executors.
    pub rows_cloned_streaming: u64,
    pub rows_cloned_materialized: u64,
}

impl HotpathResults {
    /// Fraction of the seed's row clones the streaming executor avoided.
    pub fn rows_cloned_reduction(&self) -> f64 {
        if self.rows_cloned_materialized == 0 {
            0.0
        } else {
            1.0 - self.rows_cloned_streaming as f64 / self.rows_cloned_materialized as f64
        }
    }

    /// Renders the results as the `BENCH_hotpath.json` report.
    pub fn to_json(&self) -> String {
        let plan_cache = Json::inline()
            .put("hits", self.hits)
            .put("misses", self.misses)
            .put("invalidations", self.invalidations);
        Json::root()
            .put("experiment", "hotpath")
            .put("table_rows", self.table_rows)
            .put("queries", self.queries)
            .num("warm_qps", self.warm_qps, 1)
            .num("cold_qps", self.cold_qps, 1)
            .num("plan_cache_speedup", self.plan_cache_speedup, 2)
            .put("plan_cache", plan_cache)
            .num("streaming_us_per_query", self.streaming_us, 2)
            .num("materialized_us_per_query", self.materialized_us, 2)
            .num("executor_speedup", self.executor_speedup, 2)
            .put("rows_cloned_streaming", self.rows_cloned_streaming)
            .put("rows_cloned_materialized", self.rows_cloned_materialized)
            .num("rows_cloned_reduction", self.rows_cloned_reduction(), 3)
            .render()
    }
}

fn fixture(rows: i64, view_bound: i64) -> (Arc<BackendServer>, Arc<CacheServer>) {
    let backend = BackendServer::new("backend");
    backend
        .run_script(
            "CREATE TABLE t (id INT NOT NULL PRIMARY KEY, grp INT, val FLOAT, name VARCHAR);
             CREATE INDEX ix_t_grp ON t (grp);",
        )
        .expect("create schema");
    let mut batch = Vec::with_capacity(512);
    for i in 1..=rows {
        batch.push(format!(
            "INSERT INTO t VALUES ({i}, {}, {}.5, 'name{}')",
            i % 17,
            i % 83,
            i % 29
        ));
        if batch.len() == 512 {
            backend.run_script(&batch.join(";")).expect("load");
            batch.clear();
        }
    }
    if !batch.is_empty() {
        backend.run_script(&batch.join(";")).expect("load");
    }
    backend.analyze();
    let hub = Arc::new(Mutex::new(ReplicationHub::new(backend.db.clone())));
    let cache = CacheServer::create("cache", backend.clone(), hub);
    cache
        .create_cached_view(
            "t_head",
            &format!("SELECT id, grp, val, name FROM t WHERE id <= {view_bound}"),
        )
        .expect("create cached view");
    (backend, cache)
}

/// Runs the hot-path experiment.
///
/// `rows` is the backing-table size, `queries` the length of each measured
/// statement stream. The parameterized probe always lands inside the cached
/// view's guard, so every execution is local — the measurement isolates
/// mid-tier CPU, not network round trips.
pub fn run_hotpath(rows: i64, queries: usize) -> HotpathResults {
    let view_bound = rows / 3;
    let (_backend, cache) = fixture(rows, view_bound);
    let conn = Connection::connect(cache.clone());
    // The paper's hot path: a parameterized point probe, answered locally
    // through the cached view's dynamic plan. Execution is a PK seek, so
    // the stream isolates per-statement plumbing (parse + route + plan).
    let sql = "SELECT id, grp, val, name FROM t WHERE id = @v";
    let param_at =
        |i: usize| Connection::params(&[("v", Value::Int(1 + (i as i64 * 37) % view_bound))]);

    // Warm the cache, then measure the steady-state (hit-only) stream.
    conn.query_with(sql, &param_at(0)).expect("warmup");
    let before = cache.plan_cache.stats();
    let start = Instant::now();
    for i in 0..queries {
        conn.query_with(sql, &param_at(i)).expect("warm query");
    }
    let warm_s = start.elapsed().as_secs_f64();
    let after = cache.plan_cache.stats();

    // Cold stream: clearing before each statement forces the full
    // bind → optimize → compile pipeline every time.
    let start = Instant::now();
    for i in 0..queries {
        cache.plan_cache.clear();
        conn.query_with(sql, &param_at(i)).expect("cold query");
    }
    let cold_s = start.elapsed().as_secs_f64();

    // Executor comparison: three representative local plans (a range+group
    // aggregate, a DISTINCT, and a TOP-n probe) optimized once each and run
    // through both executors. Summed per-suite times and clone counts.
    let exec_sqls = [
        format!(
            "SELECT grp, COUNT(*) AS n, SUM(val) AS s FROM t WHERE id <= {view_bound} GROUP BY grp"
        ),
        format!("SELECT DISTINCT grp, name FROM t WHERE id <= {view_bound}"),
        format!("SELECT TOP 10 id, val FROM t WHERE id <= {view_bound}"),
    ];
    let db = cache.db.read();
    let options = OptimizerOptions::default();
    let params = mtc_engine::Bindings::new();
    let ctx = ExecContext {
        db: &db,
        remote: None,
        params: &params,
        work: &options.cost,
        parallel: None,
    };
    let plans: Vec<_> = exec_sqls
        .iter()
        .map(|exec_sql| {
            let Statement::Select(sel) = parse_statement(exec_sql).expect("parse") else {
                unreachable!("exec_sql is a SELECT");
            };
            let plan = bind_select(&sel, &db).expect("bind");
            mtc_engine::optimize(plan, &db, &options).expect("optimize")
        })
        .collect();
    let reps = (queries / 4).max(8);
    let start = Instant::now();
    let mut cloned_s = 0;
    for _ in 0..reps {
        cloned_s = 0;
        for opt in &plans {
            let r = execute(&opt.physical, &ctx).expect("stream exec");
            cloned_s += r.metrics.rows_cloned;
        }
    }
    let streaming_us = start.elapsed().as_secs_f64() * 1e6 / reps as f64;
    let start = Instant::now();
    let mut cloned_m = 0;
    for _ in 0..reps {
        cloned_m = 0;
        for opt in &plans {
            let r = execute_materialized(&opt.physical, &ctx).expect("seed exec");
            cloned_m += r.metrics.rows_cloned;
        }
    }
    let materialized_us = start.elapsed().as_secs_f64() * 1e6 / reps as f64;

    let warm_qps = queries as f64 / warm_s.max(1e-9);
    let cold_qps = queries as f64 / cold_s.max(1e-9);
    HotpathResults {
        table_rows: rows,
        queries,
        warm_qps,
        cold_qps,
        plan_cache_speedup: warm_qps / cold_qps.max(1e-9),
        hits: after.hits - before.hits,
        misses: after.misses - before.misses,
        invalidations: after.invalidations - before.invalidations,
        streaming_us,
        materialized_us,
        executor_speedup: materialized_us / streaming_us.max(1e-9),
        rows_cloned_streaming: cloned_s,
        rows_cloned_materialized: cloned_m,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hotpath_smoke() {
        let r = run_hotpath(600, 40);
        assert_eq!(r.misses, 0, "warm stream must be hit-only");
        assert_eq!(r.hits, 40);
        assert!(r.rows_cloned_streaming <= r.rows_cloned_materialized);
        let json = r.to_json();
        assert!(json.contains("\"experiment\": \"hotpath\""));
        assert!(json.contains("plan_cache_speedup"));
    }
}
