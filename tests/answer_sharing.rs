//! What an answer costs to reuse, pinned by pointer identity rather than by
//! a clock: a shipped statement's answer crosses the tiers as `Arc`-shared
//! columns. Two L1 hits share the admitted entry's columns, an L2 hit
//! promoted into L1 shares the L2 entry's, a single-flight follower gets
//! the leader's, and the copy the caches keep is one dense batch sized
//! exactly to its rows. A change that brings back a row copy on a hit, a
//! promotion or a follower — or that stores an executor batch with its
//! spare capacity — fails here whatever the machine's speed.
//! `scripts/verify.sh` runs this test by name.

use std::sync::Arc;
use std::time::Duration;

use mtcache_repro::cache::result_cache::FlightRole;
use mtcache_repro::cache::{
    referenced_values_signature, BackendServer, RemoteGateway, ResultCache,
};
use mtcache_repro::engine::{Answer, Bindings, RemoteExecutor, RemoteOutcome, RemoteSite};
use mtcache_repro::sql::Prepared;
use mtcache_repro::types::{ColumnVec, Value};

/// 250 rows: the backend's scan builds them in several growing batches.
const RANGE: &str = "SELECT cid, cname, cbal FROM customer WHERE cid <= @n";
/// One row, the shape `hotpoint` keeps thousands of.
const POINT: &str = "SELECT cname, cbal FROM customer WHERE cid = @id";

fn backend() -> Arc<BackendServer> {
    let backend = BackendServer::new("backend");
    backend
        .run_script(
            "CREATE TABLE customer (cid INT NOT NULL PRIMARY KEY, cname VARCHAR, cbal FLOAT)",
        )
        .unwrap();
    let rows: Vec<String> = (1..=300)
        .map(|i| format!("INSERT INTO customer VALUES ({i}, 'c{i}', {i}.5)"))
        .collect();
    backend.run_script(&rows.join(";")).unwrap();
    backend.analyze();
    backend
}

fn statement(
    backend: &BackendServer,
    sql: &str,
    name: &str,
    value: i64,
) -> (Arc<Prepared>, Bindings) {
    let stmt = backend.prepare(sql).unwrap().stmt;
    let mut params = Bindings::new();
    params.insert(name.into(), Value::Int(value));
    (stmt, params)
}

fn ship(
    gateway: &RemoteGateway<'_>,
    (stmt, params): &(Arc<Prepared>, Bindings),
) -> RemoteOutcome<Answer> {
    gateway
        .execute_shipped(&RemoteSite::Backend, stmt, params)
        .unwrap()
}

/// What `cache` holds for the statement (a counted probe).
fn entry(cache: &ResultCache, (stmt, params): &(Arc<Prepared>, Bindings)) -> Answer {
    let psig = referenced_values_signature(stmt, params);
    cache
        .lookup(&stmt.text, &psig, 0, None, 0)
        .expect("resident")
        .0
}

fn columns(answer: &Answer) -> Vec<Arc<ColumnVec>> {
    answer
        .batches()
        .iter()
        .flat_map(|b| (0..b.width()).map(move |c| b.col_arc(c)))
        .collect()
}

/// Every column of `a` is the very allocation of the same column of `b`.
fn shared(a: &Answer, b: &Answer) -> bool {
    let (a, b) = (columns(a), columns(b));
    !a.is_empty() && a.len() == b.len() && a.iter().zip(&b).all(|(x, y)| Arc::ptr_eq(x, y))
}

#[test]
fn two_l1_hits_share_the_admitted_entry_columns() {
    let backend = backend();
    let l1 = ResultCache::default();
    let gateway = RemoteGateway::new(&l1, &backend, 0, None, 0);
    let range = statement(&backend, RANGE, "n", 250);
    let fetched = ship(&gateway, &range);
    assert_eq!((fetched.rtts, fetched.cached), (1, false));
    let first = ship(&gateway, &range);
    let second = ship(&gateway, &range);
    assert!(first.cached && second.cached, "both served from L1");
    assert_eq!(second.result.len(), 250);
    let stored = entry(&l1, &range);
    assert!(shared(&first.result, &stored), "a hit shares the entry");
    assert!(shared(&second.result, &stored), "so does the next one");
    assert!(
        shared(&fetched.result, &stored),
        "the fetch kept what it admitted"
    );
}

#[test]
fn an_l2_hit_promoted_into_l1_shares_the_l2_entry_columns() {
    let backend = backend();
    let (l1_here, l1_there, l2) = (
        ResultCache::default(),
        ResultCache::default(),
        ResultCache::default(),
    );
    let range = statement(&backend, RANGE, "n", 250);
    let fetched = ship(
        &RemoteGateway::new(&l1_here, &backend, 0, None, 0).with_l2(&l2),
        &range,
    );
    assert_eq!(fetched.rtts, 1);
    assert!(
        shared(&entry(&l1_here, &range), &entry(&l2, &range)),
        "the leader's L1 and the L2 write-through share one copy"
    );
    let promoted = ship(
        &RemoteGateway::new(&l1_there, &backend, 0, None, 0).with_l2(&l2),
        &range,
    );
    assert_eq!((promoted.rtts, promoted.cached), (0, true));
    assert_eq!(l1_there.stats().inserts, 1, "promoted into this node's L1");
    let in_l2 = entry(&l2, &range);
    assert!(
        shared(&entry(&l1_there, &range), &in_l2),
        "promotion shares"
    );
    assert!(
        shared(&promoted.result, &in_l2),
        "and so does the promoting hit"
    );
}

#[test]
fn a_single_flight_follower_gets_the_leader_columns() {
    let backend = backend();
    let l1 = ResultCache::default();
    let range = statement(&backend, RANGE, "n", 250);
    let psig = referenced_values_signature(&range.0, &range.1);
    let FlightRole::Leader(flight) = l1.begin_flight(&range.0.text, &psig) else {
        panic!("the first caller leads");
    };
    let leader = backend
        .execute_prepared_as::<Answer>(&range.0, &range.1, "dbo")
        .unwrap()
        .compacted();
    let follower = std::thread::scope(|s| {
        let follower = s.spawn(|| ship(&RemoteGateway::new(&l1, &backend, 0, None, 0), &range));
        // Publish only once the gateway has joined the open flight.
        while l1.stats().single_flight_waits == 0 {
            std::thread::sleep(Duration::from_millis(1));
        }
        l1.finish_flight(&range.0.text, &psig, &flight, Ok(leader.clone()));
        follower.join().unwrap()
    });
    assert_eq!((follower.rtts, follower.coalesced), (0, 1));
    assert_eq!(
        follower.result.metrics.remote_work, 0.0,
        "the backend work is the leader's"
    );
    assert!(
        shared(&follower.result, &leader),
        "the follower shares the leader's answer"
    );
}

#[test]
fn the_cached_copy_is_one_dense_exactly_sized_batch() {
    let backend = backend();
    let range = statement(&backend, RANGE, "n", 250);
    // What the backend's root hands over: several batches, with room to
    // spare — the copy a cache must not keep.
    let raw = backend
        .execute_prepared_as::<Answer>(&range.0, &range.1, "dbo")
        .unwrap();
    assert!(raw.batches().len() > 1, "{} batches", raw.batches().len());
    assert!(columns(&raw).iter().any(|c| c.capacity() > c.len()));
    for (shipped, rows) in [(range, 250), (statement(&backend, POINT, "id", 7), 1)] {
        let l1 = ResultCache::default();
        let l2 = ResultCache::default();
        ship(
            &RemoteGateway::new(&l1, &backend, 0, None, 0).with_l2(&l2),
            &shipped,
        );
        for stored in [entry(&l1, &shipped), entry(&l2, &shipped)] {
            let [batch] = stored.batches() else {
                panic!("{} batches stored", stored.batches().len());
            };
            assert!(batch.sel().is_none(), "dense");
            assert_eq!(batch.len(), rows);
            assert_eq!(stored.len(), rows);
            for c in 0..batch.width() {
                let col = batch.col(c);
                assert_eq!((col.len(), col.capacity()), (rows, rows), "column {c}");
            }
        }
    }
}
