//! Warm reads build only the columns they return — pinned by a counter,
//! not a clock.
//!
//! `ExecMetrics::cells_built` counts the cells (touched rows × built
//! columns) the access-path leaves build from storage. On TPC-W with the
//! paper's §6.1.2 cache, the `hotpoint` templates read `cv_item` (11
//! columns) through a view-matched `Project(Project(ClusteredSeek))`; the
//! compiled plan folds the two projections and prunes the seek to the
//! columns the statement returns plus those its residual re-checks (a
//! clustered point seek's key equality is not re-checked).

use std::sync::Arc;

use mtc_util::sync::Mutex;

use mtcache_repro::cache::{BackendServer, Bindings, CacheServer, Connection};
use mtcache_repro::engine::QueryResult;
use mtcache_repro::replication::ReplicationHub;
use mtcache_repro::tpcw::datagen::{generate, Scale};
use mtcache_repro::tpcw::deploy::configure_cache;
use mtcache_repro::tpcw::procs::{register_all, PROCEDURES};
use mtcache_repro::types::Value;

const ITEM_POINT: &str = "SELECT i_title, i_cost, i_stock FROM item WHERE i_id = @id";
const ITEM_RANGE: &str = "SELECT TOP 10 i_id, i_title FROM item WHERE i_id >= @lo AND i_id < @hi";
const CUSTOMER_POINT: &str = "SELECT c_fname, c_lname, c_balance FROM customer WHERE c_id = @id";

/// TPC-W tiny (100 items) on the backend, one cache with the §6.1.2
/// configuration.
fn tpcw() -> (Arc<BackendServer>, Arc<CacheServer>) {
    let backend = BackendServer::new("backend");
    generate(&backend, Scale::tiny()).unwrap();
    register_all(&backend).unwrap();
    let hub = Arc::new(Mutex::new(ReplicationHub::new(backend.db.clone())));
    let cache = CacheServer::create("cache", backend.clone(), hub);
    configure_cache(&cache).unwrap();
    (backend, cache)
}

fn params(pairs: &[(&str, i64)]) -> Bindings {
    let pairs: Vec<(&str, Value)> = pairs.iter().map(|&(n, v)| (n, Value::Int(v))).collect();
    Connection::params(&pairs)
}

/// Runs `sql` twice on `conn` and returns the second (warm) execution.
fn warm(conn: &Connection, sql: &str, params: &Bindings) -> QueryResult {
    conn.query_with(sql, params).unwrap();
    conn.query_with(sql, params).unwrap()
}

/// `doSubjectSearch`'s body: a TOP 50 join whose item side is an
/// `IndexSeek` on `cv_item.cx_item_subject` under a four-column projection.
fn subject_search() -> &'static str {
    PROCEDURES
        .iter()
        .find(|(name, _, _)| *name == "doSubjectSearch")
        .map(|(_, _, body)| *body)
        .unwrap()
}

#[test]
fn a_warm_item_point_builds_three_of_eleven_columns() {
    let (_backend, cache) = tpcw();
    let conn = Connection::connect(cache);
    for id in [1, 17, 100] {
        let r = warm(&conn, ITEM_POINT, &params(&[("id", id)]));
        assert_eq!(r.rows.len(), 1, "i_id = {id}");
        assert_eq!(
            r.metrics.remote_calls, 0,
            "answered from cv_item: i_id = {id}"
        );
        // One touched row × (i_title, i_cost, i_stock projected); all 11
        // before pruning. `i_id = @id` is not re-checked: the clustered
        // point seek enforces it, so i_id is not built.
        assert_eq!(r.metrics.cells_built, 3, "i_id = {id}");
        // One batch from the seek, one from the projection: the view
        // match's Project(Project(seek)) runs as one operator.
        assert_eq!(r.metrics.batches, 2, "i_id = {id}");
    }
}

#[test]
fn the_top_10_range_builds_two_of_eleven_columns() {
    let (_backend, cache) = tpcw();
    let conn = Connection::connect(cache);
    let r = warm(&conn, ITEM_RANGE, &params(&[("lo", 5), ("hi", 25)]));
    let ids: Vec<Value> = r.rows.iter().map(|row| row[0].clone()).collect();
    assert_eq!(ids, (5..15).map(Value::Int).collect::<Vec<_>>());
    assert_eq!(r.metrics.remote_calls, 0);
    // Bounds are sought inclusively: the first batch touches i_id 5..=25
    // (21 rows, the residual drops 25), and builds i_id and i_title only.
    assert_eq!(r.metrics.cells_built, 21 * 2);
}

#[test]
fn the_customer_point_is_an_l1_hit_and_builds_nothing_locally() {
    let (_backend, cache) = tpcw();
    let conn = Connection::connect(cache.clone());
    let hits = cache.result_cache.stats().hits;
    let r = warm(&conn, CUSTOMER_POINT, &params(&[("id", 42)]));
    assert_eq!(r.rows.len(), 1);
    assert_eq!(cache.result_cache.stats().hits, hits + 1, "served from L1");
    assert_eq!((r.metrics.remote_calls, r.metrics.remote_rtts), (1, 0));
    assert_eq!(r.metrics.cells_built, 0);
}

#[test]
fn a_subject_search_index_seek_builds_its_projected_and_residual_columns() {
    let (backend, cache) = tpcw();
    let conn = Connection::connect(cache);
    let subject = Connection::params(&[("subject", Value::str("HISTORY"))]);
    let matching = Connection::connect(backend)
        .query("SELECT COUNT(*) AS n FROM item WHERE i_subject = 'HISTORY'")
        .unwrap()
        .rows[0][0]
        .as_i64()
        .unwrap() as u64;
    assert!(matching > 0);
    let r = warm(&conn, subject_search(), &subject);
    assert_eq!(r.rows.len() as u64, matching.min(50));
    assert_eq!(
        r.metrics.remote_calls, 0,
        "answered from cv_item and cv_author"
    );
    // Every touched index entry builds i_a_id, i_cost, i_id, i_title
    // (projected) and i_subject (re-checked), not cv_item's 11 columns.
    assert_eq!(r.metrics.cells_built, matching * 5);
}
