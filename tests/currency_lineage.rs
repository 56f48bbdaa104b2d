//! One currency rule for every tier, pinned by a manual clock and counters:
//! a cached answer keeps the lineage it was fetched with when it is
//! promoted from the fleet's L2 into a node's L1 (it ages from its fetch
//! instant and is released by the first write past its LSN), and a
//! `WITH FRESHNESS` bound admits data exactly as stale as the bound — a
//! node's cached views and a cached answer alike — and refuses one
//! millisecond more. `scripts/verify.sh` runs this test by name.

use std::sync::Arc;

use mtc_util::sync::Mutex;

use mtcache_repro::cache::{
    referenced_values_signature, BackendServer, CacheServer, RemoteGateway, ResultCache,
};
use mtcache_repro::engine::{Answer, Bindings, RemoteExecutor, RemoteOutcome, RemoteSite};
use mtcache_repro::replication::{Clock, ManualClock, ReplicationHub};
use mtcache_repro::types::Value;

/// `customer` (300 rows) and an unrelated `noise` table.
fn backend(clock: &ManualClock) -> Arc<BackendServer> {
    let backend = BackendServer::with_clock("backend", Arc::new(clock.clone()));
    backend
        .run_script(
            "CREATE TABLE customer (cid INT NOT NULL PRIMARY KEY, cname VARCHAR);
             CREATE TABLE noise (nid INT NOT NULL PRIMARY KEY, nval VARCHAR)",
        )
        .unwrap();
    let rows: Vec<String> = (1..=300)
        .map(|i| format!("INSERT INTO customer VALUES ({i}, 'c{i}')"))
        .collect();
    backend.run_script(&rows.join(";")).unwrap();
    backend.analyze();
    backend
}

fn ship(
    gateway: &RemoteGateway<'_>,
    stmt: &Arc<mtcache_repro::sql::Prepared>,
    params: &Bindings,
) -> RemoteOutcome<Answer> {
    gateway
        .execute_shipped(&RemoteSite::Backend, stmt, params)
        .unwrap()
}

#[test]
fn a_promoted_answer_keeps_its_l2_lineage() {
    let clock = ManualClock::new(0);
    let backend = backend(&clock);
    let stmt = backend
        .prepare("SELECT cid, cname FROM customer WHERE cid <= @n")
        .unwrap()
        .stmt;
    let mut params = Bindings::new();
    params.insert("n".into(), Value::Int(50));
    let psig = referenced_values_signature(&stmt, &params);
    let (l1_a, l1_b, l2) = (
        ResultCache::default(),
        ResultCache::default(),
        ResultCache::default(),
    );

    // Node A fetches at instant t0 and head x, writing through to L2.
    let (t0, x) = (1_000, backend.commit_lsn().0);
    let fetched = ship(
        &RemoteGateway::new(&l1_a, &backend, 0, None, t0).with_l2(&l2),
        &stmt,
        &params,
    );
    assert_eq!((fetched.rtts, fetched.cached), (1, false));
    assert_eq!(l2.stats().inserts, 1, "written through to L2");

    // The head moves past x on a table the answer never read.
    backend
        .run_script("INSERT INTO noise VALUES (1, 'n1')")
        .unwrap();
    assert!(backend.commit_lsn().0 > x);

    // Node B promotes it 30 s later with an unbounded read.
    let now = t0 + 30_000;
    let promoted = ship(
        &RemoteGateway::new(&l1_b, &backend, 0, None, now).with_l2(&l2),
        &stmt,
        &params,
    );
    assert_eq!((promoted.rtts, promoted.cached), (0, true));
    assert_eq!(l1_b.stats().inserts, 1, "promoted into B's L1");

    // B's copy ages from t0, not from the promotion.
    assert!(l1_b
        .lookup(&stmt.text, &psig, 0, Some(now - t0 - 1), now)
        .is_none());
    assert_eq!(l1_b.stats().currency_rejects, 1);
    assert!(l1_b
        .lookup(&stmt.text, &psig, 0, Some(now - t0), now)
        .is_some());

    // And it reflects head x, not the head at promotion: the first write
    // past x releases it.
    l1_b.note_write("customer", x + 1);
    let s = l1_b.stats();
    assert_eq!((s.entries, s.invalidations), (0, 1));
}

/// A node whose one cached view holds `cid <= 200`: `cid = 10` reads it,
/// `cid = 250` ships to the backend through the result cache.
const LOCAL: &str = "SELECT cname FROM customer WHERE cid = 10 WITH FRESHNESS 10 SECONDS";
const REMOTE: &str = "SELECT cname FROM customer WHERE cid = 250 WITH FRESHNESS 10 SECONDS";
const BOUND_MS: i64 = 10_000;

#[test]
fn a_bound_is_inclusive_for_a_node_and_for_a_cached_answer() {
    let clock = ManualClock::new(0);
    let backend = backend(&clock);
    let hub = Arc::new(Mutex::new(ReplicationHub::new(backend.db.clone())));
    let cache = CacheServer::create("cache", backend.clone(), hub.clone());
    cache
        .create_cached_view("cust_v", "SELECT cid, cname FROM customer WHERE cid <= 200")
        .unwrap();
    let run = |sql: &str| cache.execute(sql, &Default::default(), "dbo").unwrap();

    // The answer is fetched at t = 0; the node then syncs through the bound
    // and replication pauses, so the answer is older than the node.
    assert_eq!(run(REMOTE).metrics.remote_rtts, 1);
    clock.advance(BOUND_MS);
    hub.lock().pump(clock.now_ms()).unwrap();
    hub.lock().pump(clock.now_ms()).unwrap();
    hub.lock().log_reader_enabled = false;
    assert_eq!(cache.staleness_of_view("cust_v"), Some(0));

    // The answer, exactly as stale as the bound: served from L1.
    let before = cache.result_cache.stats();
    let r = run(REMOTE);
    let after = cache.result_cache.stats();
    assert_eq!((r.metrics.remote_calls, r.metrics.remote_rtts), (1, 0));
    assert_eq!(after.hits, before.hits + 1, "served at staleness == bound");
    assert_eq!(after.currency_rejects, before.currency_rejects);

    // One millisecond more: rejected and refetched.
    clock.advance(1);
    let r = run(REMOTE);
    assert_eq!(r.metrics.remote_rtts, 1);
    assert_eq!(
        cache.result_cache.stats().currency_rejects,
        after.currency_rejects + 1
    );

    // The node, exactly as stale as the bound: served from its view.
    clock.advance(BOUND_MS - 1);
    assert_eq!(cache.staleness_of_view("cust_v"), Some(BOUND_MS));
    let r = run(LOCAL);
    assert_eq!(r.rows[0][0], Value::str("c10"));
    assert_eq!(r.metrics.remote_calls, 0, "served at staleness == bound");
    assert_eq!(cache.stats.freshness_fallbacks.get(), 0);

    // One millisecond more: the node falls back to the backend.
    clock.advance(1);
    let r = run(LOCAL);
    assert_eq!(r.rows[0][0], Value::str("c10"));
    assert_eq!(r.metrics.remote_calls, 1);
    assert_eq!(cache.stats.freshness_fallbacks.get(), 1);
}
