//! Observable semantics of the parameterized plan cache.
//!
//! The cache must be invisible except in the counters: hits and misses are
//! counted, parameter signatures separate plans, any catalog change (new
//! index, new cached view, refreshed statistics) invalidates stale entries
//! so an outdated plan is never executed, permission checks still run on
//! every execution, and a freshness-bounded statement is planned once while
//! its node is current and never probed while the node is past the bound.
//! A property test pins that cached-plan results are identical to freshly
//! optimized plans across random parameters.

use std::sync::Arc;

use mtc_util::check::{self, Config};
use mtc_util::rng::Rng;
use mtc_util::sync::Mutex;

use mtcache_repro::cache::{BackendServer, CacheServer, Connection};
use mtcache_repro::replication::{Clock, ManualClock, ReplicationHub};
use mtcache_repro::types::{Row, Value};

const N_ROWS: i64 = 400;
const VIEW_BOUND: i64 = 200;

fn backend_only() -> Arc<BackendServer> {
    seeded(BackendServer::new("backend"))
}

/// Creates and fills `t` on `backend`.
fn seeded(backend: Arc<BackendServer>) -> Arc<BackendServer> {
    backend
        .run_script(
            "CREATE TABLE t (id INT NOT NULL PRIMARY KEY, grp INT, val FLOAT, name VARCHAR);
             GRANT SELECT ON t TO app;",
        )
        .unwrap();
    let rows: Vec<String> = (1..=N_ROWS)
        .map(|i| format!("INSERT INTO t VALUES ({i}, {}, {}.5, 'n{}')", i % 7, i % 13, i % 5))
        .collect();
    backend.run_script(&rows.join(";")).unwrap();
    backend.analyze();
    backend
}

fn backend_and_cache() -> (Arc<BackendServer>, Arc<CacheServer>) {
    let backend = backend_only();
    let hub = Arc::new(Mutex::new(ReplicationHub::new(backend.db.clone())));
    let cache = CacheServer::create("cache", backend.clone(), hub);
    (backend, cache)
}

fn sorted(mut rows: Vec<Row>) -> Vec<Row> {
    rows.sort();
    rows
}

#[test]
fn backend_counts_hits_and_misses() {
    let backend = backend_only();
    let conn = Connection::connect(backend.clone());
    let sql = "SELECT id, val FROM t WHERE grp = 3";

    let before = backend.plan_cache.stats();
    let first = conn.query(sql).unwrap();
    let mid = backend.plan_cache.stats();
    assert_eq!(mid.misses, before.misses + 1, "first execution is a miss");
    assert_eq!(mid.insertions, before.insertions + 1);
    assert_eq!(mid.hits, before.hits);

    let second = conn.query(sql).unwrap();
    let after = backend.plan_cache.stats();
    assert_eq!(after.hits, mid.hits + 1, "second execution is a hit");
    assert_eq!(after.misses, mid.misses, "no new miss on repeat");
    assert_eq!(first.rows, second.rows, "hit returns identical rows");
}

#[test]
fn parameter_signatures_separate_plans() {
    let backend = backend_only();
    let conn = Connection::connect(backend.clone());
    let sql = "SELECT id FROM t WHERE val <= @v";

    // Same SQL text, different parameter types: distinct cache entries.
    let int_params = Connection::params(&[("v", Value::Int(5))]);
    let float_params = Connection::params(&[("v", Value::Float(5.0))]);

    conn.query_with(sql, &int_params).unwrap();
    let s1 = backend.plan_cache.stats();
    conn.query_with(sql, &float_params).unwrap();
    let s2 = backend.plan_cache.stats();
    assert_eq!(
        s2.misses,
        s1.misses + 1,
        "a float binding must not reuse the int-signature plan"
    );

    // Re-running each signature now hits its own entry.
    conn.query_with(sql, &int_params).unwrap();
    conn.query_with(sql, &float_params).unwrap();
    let s3 = backend.plan_cache.stats();
    assert_eq!(s3.hits, s2.hits + 2);
    assert_eq!(s3.misses, s2.misses);
}

#[test]
fn create_index_invalidates_cached_plans() {
    let backend = backend_only();
    let conn = Connection::connect(backend.clone());
    let sql = "SELECT id, val FROM t WHERE grp = 2";

    let cold = conn.query(sql).unwrap();
    conn.query(sql).unwrap(); // warm: cached plan in use
    let before = backend.plan_cache.stats();

    backend.run_script("CREATE INDEX ix_t_grp ON t (grp)").unwrap();

    let warm = conn.query(sql).unwrap();
    let after = backend.plan_cache.stats();
    assert_eq!(
        after.invalidations,
        before.invalidations + 1,
        "catalog change must invalidate the stale plan"
    );
    assert_eq!(after.misses, before.misses + 1, "re-optimized after invalidation");
    assert_eq!(sorted(cold.rows), sorted(warm.rows), "results unchanged");
}

#[test]
fn stats_refresh_invalidates_cached_plans() {
    let backend = backend_only();
    let conn = Connection::connect(backend.clone());
    let sql = "SELECT COUNT(*) AS n FROM t WHERE grp = 1";

    conn.query(sql).unwrap();
    let before = backend.plan_cache.stats();
    backend.analyze(); // refreshed statistics => new catalog version
    conn.query(sql).unwrap();
    let after = backend.plan_cache.stats();
    assert_eq!(after.invalidations, before.invalidations + 1);
    assert_eq!(after.misses, before.misses + 1);
}

#[test]
fn cached_view_creation_invalidates_and_reroutes() {
    // The strongest form of "stale plans are never executed": a plan that
    // was compiled to go remote must be thrown away the moment a cached
    // view can answer it locally.
    let (_backend, cache) = backend_and_cache();
    let conn = Connection::connect(cache.clone());
    let sql = &format!("SELECT id, grp, val FROM t WHERE id <= {VIEW_BOUND}");

    let remote_res = conn.query(sql).unwrap();
    assert!(
        remote_res.metrics.remote_calls > 0,
        "no cached view yet: the query must go remote"
    );
    // The remote-routed plan is now cached.
    let before = cache.plan_cache.stats();
    assert!(before.entries > 0);

    cache
        .create_cached_view("t_head", &format!("SELECT id, grp, val, name FROM t WHERE id <= {VIEW_BOUND}"))
        .unwrap();

    let local_res = conn.query(sql).unwrap();
    let after = cache.plan_cache.stats();
    assert_eq!(
        local_res.metrics.remote_calls, 0,
        "stale remote plan must not be executed after the view exists"
    );
    assert!(after.invalidations > before.invalidations);
    assert_eq!(sorted(remote_res.rows), sorted(local_res.rows));
}

#[test]
fn explain_reports_cold_then_cached() {
    let backend = backend_only();
    let conn = Connection::connect(backend.clone());
    let sql = "SELECT id FROM t WHERE grp = 4";

    let cold = conn.explain(sql).unwrap();
    assert!(cold.contains("plan cache: cold"), "explain before execution:\n{cold}");

    conn.query(sql).unwrap();
    let warm = conn.explain(sql).unwrap();
    assert!(warm.contains("plan cache: cached"), "explain after execution:\n{warm}");
}

#[test]
fn permissions_are_checked_on_cache_hits() {
    let backend = backend_only();
    let admin = Connection::connect(backend.clone());
    let sql = "SELECT id FROM t WHERE grp = 0";

    admin.query(sql).unwrap();
    admin.query(sql).unwrap(); // plan is hot in the cache
    let before = backend.plan_cache.stats();

    let intruder = Connection::connect_as(backend.clone(), "intruder");
    let err = intruder.query(sql);
    assert!(err.is_err(), "cached plan must not bypass permission checks");
    let after = backend.plan_cache.stats();
    assert_eq!(after.hits, before.hits, "denied statement never touches the cache");

    // The grantee still rides the cached plan.
    let app = Connection::connect_as(backend.clone(), "app");
    app.query(sql).unwrap();
    assert_eq!(backend.plan_cache.stats().hits, before.hits + 1);
}

#[test]
fn freshness_bounded_statements_plan_once_and_forward_while_stale() {
    // A currency bound is checked per execution against the node's
    // watermark, before the plan-cache probe: it is not part of the plan.
    const N: u64 = 5;
    let clock = ManualClock::new(0);
    let backend = seeded(BackendServer::with_clock("backend", Arc::new(clock.clone())));
    let hub = Arc::new(Mutex::new(ReplicationHub::new(backend.db.clone())));
    let cache = CacheServer::create("cache", backend.clone(), hub.clone());
    cache
        .create_cached_view("t_head", &format!("SELECT id, grp, val, name FROM t WHERE id <= {VIEW_BOUND}"))
        .unwrap();
    let conn = Connection::connect(cache.clone());
    let sql = "SELECT id, name FROM t WHERE id <= 10 ORDER BY id ASC WITH FRESHNESS 5 SECONDS";

    // A current node: one insertion, then hits, all served locally.
    let before = cache.plan_cache.stats();
    for _ in 0..N {
        assert_eq!(conn.query(sql).unwrap().metrics.remote_calls, 0);
    }
    let planned = cache.plan_cache.stats();
    assert_eq!(planned.insertions - before.insertions, 1, "planned once");
    assert_eq!(planned.hits - before.hits, N - 1);

    // Past the bound: every execution forwards, without a probe.
    hub.lock().log_reader_enabled = false;
    backend
        .run_script("UPDATE t SET name = 'fresh' WHERE id = 3")
        .unwrap();
    clock.advance(60_000);
    let want = Connection::connect(backend.clone()).query(sql).unwrap().rows;
    let fallbacks = cache.stats.freshness_fallbacks.get();
    for _ in 0..N {
        assert_eq!(conn.query(sql).unwrap().rows, want, "the backend's answer");
    }
    assert_eq!(cache.plan_cache.stats(), planned, "no probe, no insertion");
    assert_eq!(cache.stats.freshness_fallbacks.get(), fallbacks + N);

    // Caught up: the entry planned before the lag hits again.
    hub.lock().log_reader_enabled = true;
    for _ in 0..2 {
        hub.lock().pump(clock.now_ms()).unwrap();
    }
    let r = conn.query(sql).unwrap();
    assert_eq!((r.rows, r.metrics.remote_calls), (want, 0));
    let s = cache.plan_cache.stats();
    assert_eq!((s.insertions, s.hits), (planned.insertions, planned.hits + 1));
}

#[test]
fn cached_plans_agree_with_fresh_plans() {
    let (backend, cache) = backend_and_cache();
    cache
        .create_cached_view("t_head", &format!("SELECT id, grp, val, name FROM t WHERE id <= {VIEW_BOUND}"))
        .unwrap();
    let sql = "SELECT id, grp, val FROM t WHERE id <= @v";

    check::run(
        &Config::cases(32),
        "cached_plans_agree_with_fresh_plans",
        |rng| rng.gen_range(0i64..(N_ROWS + 100)),
        |&v| {
            let params = Connection::params(&[("v", Value::Int(v))]);
            let truth = Connection::connect(backend.clone())
                .query_with(sql, &params)
                .unwrap();
            // First call per process is a miss (fresh optimization); every
            // subsequent call is a cache hit. Both must match the backend.
            let before = cache.plan_cache.stats();
            let c1 = Connection::connect(cache.clone()).query_with(sql, &params).unwrap();
            let c2 = Connection::connect(cache.clone()).query_with(sql, &params).unwrap();
            let after = cache.plan_cache.stats();
            assert!(after.hits > before.hits, "@v = {v}: second run must hit");
            assert_eq!(sorted(c1.rows.clone()), sorted(truth.rows.clone()), "@v = {v}");
            assert_eq!(sorted(c1.rows), sorted(c2.rows), "@v = {v}");
            // The cached ChoosePlan must still route per-parameter.
            if v <= VIEW_BOUND {
                assert_eq!(c2.metrics.remote_calls, 0, "@v = {v} should stay local");
            } else {
                assert!(c2.metrics.remote_calls > 0, "@v = {v} must go remote");
            }
        },
    );
}

/// BETWEEN is its definition, `id >= lo AND id <= hi`: over a cached range
/// view it is answered locally like that spelling, and an ad-hoc BETWEEN and
/// the `>=`/`<=` spelling of another range are one plan-cache entry.
#[test]
fn between_and_its_comparisons_share_one_plan_and_the_cached_view() {
    let (backend, cache) = backend_and_cache();
    cache
        .create_cached_view("t_tail", &format!("SELECT id, grp, val, name FROM t WHERE id >= {VIEW_BOUND}"))
        .unwrap();
    let conn = Connection::connect(cache.clone());
    let before = cache.plan_cache.stats();
    for sql in [
        "SELECT id, name FROM t WHERE id BETWEEN 250 AND 270 ORDER BY id ASC",
        "SELECT id, name FROM t WHERE id >= 300 AND id <= 330 ORDER BY id ASC",
    ] {
        let want = Connection::connect(backend.clone()).query(sql).unwrap().rows;
        let r = conn.query(sql).unwrap();
        assert_eq!(r.rows, want, "{sql}");
        assert_eq!(
            (r.metrics.remote_calls, r.metrics.remote_rtts),
            (0, 0),
            "{sql}: answered from t_tail"
        );
    }
    let after = cache.plan_cache.stats();
    assert_eq!(
        (after.insertions - before.insertions, after.hits - before.hits),
        (1, 1),
        "one template for both spellings"
    );
}
