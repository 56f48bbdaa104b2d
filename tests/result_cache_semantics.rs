//! End-to-end semantics of the currency-aware remote result cache
//! (`mtcache::result_cache`): hit/miss accounting, synchronous DML
//! invalidation, invalidation through the fault-injected replication
//! stream, catalog-version safety, currency (freshness-bound) rejects,
//! LRU eviction under a byte budget, and single-flight round-trip
//! coalescing — all observed through the public server API, the way an
//! application (or the EXPLAIN output) sees them.

use std::sync::{Arc, Barrier};

use mtc_util::sync::Mutex;

use mtcache_repro::cache::result_cache::FlightRole;
use mtcache_repro::cache::{
    BackendServer, CacheServer, ResultCache, ResultCacheConfig,
};
use mtcache_repro::replication::{
    Clock, FaultPlan, FaultSpec, InvalidationSink, ManualClock, ReplicationHub,
};
use mtcache_repro::storage::Lsn;
use mtcache_repro::types::Value;

#[allow(clippy::type_complexity)]
fn setup() -> (
    Arc<BackendServer>,
    Arc<CacheServer>,
    Arc<Mutex<ReplicationHub>>,
    ManualClock,
) {
    let clock = ManualClock::new(0);
    let backend = BackendServer::with_clock("backend", Arc::new(clock.clone()));
    backend
        .run_script(
            "CREATE TABLE customer (cid INT NOT NULL PRIMARY KEY, cname VARCHAR);
             CREATE TABLE noise (nid INT NOT NULL PRIMARY KEY, nval VARCHAR)",
        )
        .unwrap();
    let mut rows: Vec<String> = (1..=300)
        .map(|i| format!("INSERT INTO customer VALUES ({i}, 'c{i}')"))
        .collect();
    rows.extend((1..=20).map(|i| format!("INSERT INTO noise VALUES ({i}, 'n{i}')")));
    backend.run_script(&rows.join(";")).unwrap();
    backend.analyze();
    let hub = Arc::new(Mutex::new(ReplicationHub::new(backend.db.clone())));
    let cache = CacheServer::create("cache", backend.clone(), hub.clone());
    (backend, cache, hub, clock)
}

const Q: &str = "SELECT cname FROM customer WHERE cid = 7";

/// Pumps `hub` until it holds no undelivered work.
fn drain(hub: &Mutex<ReplicationHub>, clock: &ManualClock) {
    for _ in 0..100_000 {
        clock.advance(50);
        let mut h = hub.lock();
        let _ = h.pump(clock.now_ms());
        if h.drained() {
            return;
        }
    }
    panic!("replication stream must drain");
}

fn cname(cache: &CacheServer, sql: &str) -> Value {
    cache.execute(sql, &Default::default(), "dbo").unwrap().rows[0][0].clone()
}

#[test]
fn repeated_remote_query_hits_and_explain_shows_the_routing() {
    let (backend, cache, _hub, _clock) = setup();

    // Cold: EXPLAIN predicts a paid fetch.
    let plan = cache.explain(Q).unwrap();
    assert!(
        plan.contains("remote(fetched)"),
        "cold explain must route remote(fetched):\n{plan}"
    );
    assert!(plan.contains("result cache:"), "summary line:\n{plan}");

    let r1 = cache.execute(Q, &Default::default(), "dbo").unwrap();
    assert_eq!(r1.rows[0][0], Value::str("c7"));
    assert_eq!(r1.metrics.remote_calls, 1);
    assert_eq!(r1.metrics.remote_rtts, 1, "cold read pays the round trip");

    // Warm: same rows, one logical remote statement, zero wire exchanges.
    let backend_before = backend.stats.queries.get();
    let r2 = cache.execute(Q, &Default::default(), "dbo").unwrap();
    assert_eq!(r2.rows, r1.rows, "cache-served rows must be identical");
    assert_eq!(r2.metrics.remote_calls, 1, "still one remote statement consumed");
    assert_eq!(r2.metrics.remote_rtts, 0, "served from mid-tier memory");
    assert_eq!(
        backend.stats.queries.get(),
        backend_before,
        "the backend must not see the warm read"
    );
    let s = cache.result_cache.stats();
    assert_eq!(s.hits, 1);
    assert_eq!(s.inserts, 1);

    // Warm EXPLAIN flips the routing line.
    let plan = cache.explain(Q).unwrap();
    assert!(
        plan.contains("remote(cached)"),
        "warm explain must route remote(cached):\n{plan}"
    );
}

#[test]
fn cached_result_respects_catalog_version() {
    let (backend, cache, _hub, _clock) = setup();

    let r1 = cache.execute(Q, &Default::default(), "dbo").unwrap();
    assert_eq!(r1.metrics.remote_rtts, 1);
    let r2 = cache.execute(Q, &Default::default(), "dbo").unwrap();
    assert_eq!(r2.metrics.remote_rtts, 0, "warm before any DDL");

    // A shipped answer is the backend's: a new cached view on this node
    // (over an unrelated table) bumps only the node's shadow-catalog
    // version, and the entry keeps serving.
    cache
        .create_cached_view("noise_v", "SELECT nid, nval FROM noise")
        .unwrap();
    let before = cache.result_cache.stats();
    let r3 = cache.execute(Q, &Default::default(), "dbo").unwrap();
    assert_eq!(r3.metrics.remote_rtts, 0, "node-local DDL flushes no backend answer");
    assert_eq!(r3.rows, r1.rows);
    assert_eq!(cache.result_cache.stats().invalidations, before.invalidations);

    // DDL on the backend bumps the catalog the answer was computed under:
    // entries stamped with the old version must not be served.
    backend
        .run_script("CREATE INDEX ix_customer_cname ON customer (cname)")
        .unwrap();
    let before = cache.result_cache.stats();
    let r4 = cache.execute(Q, &Default::default(), "dbo").unwrap();
    assert_eq!(
        r4.metrics.remote_rtts, 1,
        "stale-catalog entry must be dropped and refetched"
    );
    assert_eq!(r4.rows, r1.rows);
    assert_eq!(
        cache.result_cache.stats().invalidations,
        before.invalidations + 1,
        "the version mismatch is counted as an invalidation"
    );

    // And the refreshed entry (new version stamp) serves again.
    let r5 = cache.execute(Q, &Default::default(), "dbo").unwrap();
    assert_eq!(r5.metrics.remote_rtts, 0);
}

#[test]
fn a_backend_drop_table_reaches_a_warm_cached_read() {
    let (backend, cache, _hub, _clock) = setup();
    assert_eq!(cname(&cache, Q), Value::str("c7"));
    assert_eq!(cache.execute(Q, &Default::default(), "dbo").unwrap().metrics.remote_rtts, 0);

    // Dropped on the backend directly: the cache answers as the backend does.
    backend.run_script("DROP TABLE customer").unwrap();
    let on_backend = backend.execute(Q, &Default::default(), "dbo").unwrap_err();
    let on_cache = cache.execute(Q, &Default::default(), "dbo").unwrap_err();
    assert_eq!(on_backend.kind(), "catalog");
    assert_eq!(on_cache.kind(), "catalog", "{on_cache}");

    // Re-created empty: the old rows are gone on every tier.
    backend
        .run_script("CREATE TABLE customer (cid INT NOT NULL PRIMARY KEY, cname VARCHAR)")
        .unwrap();
    assert!(backend.execute(Q, &Default::default(), "dbo").unwrap().rows.is_empty());
    assert!(cache.execute(Q, &Default::default(), "dbo").unwrap().rows.is_empty());
}

#[test]
fn node_local_ddl_keeps_explain_and_execution_on_the_cached_answer() {
    let (_backend, cache, _hub, _clock) = setup();
    cache.execute(Q, &Default::default(), "dbo").unwrap();
    cache
        .create_cached_view("noise_v", "SELECT nid, nval FROM noise")
        .unwrap();
    let plan = cache.explain(Q).unwrap();
    assert!(plan.contains("remote(cached)"), "{plan}");
    let r = cache.execute(Q, &Default::default(), "dbo").unwrap();
    assert_eq!(r.metrics.remote_rtts, 0, "EXPLAIN and execution agree");
}

#[test]
fn dml_through_the_cache_invalidates_synchronously() {
    let (_backend, cache, _hub, _clock) = setup();

    let r1 = cache.execute(Q, &Default::default(), "dbo").unwrap();
    assert_eq!(r1.rows[0][0], Value::str("c7"));
    assert_eq!(cache.execute(Q, &Default::default(), "dbo").unwrap().metrics.remote_rtts, 0);

    // Forwarded DML raises the invalidation watermark before it returns:
    // the very next read must see the write — no replication pump needed.
    cache
        .execute(
            "UPDATE customer SET cname = 'renamed' WHERE cid = 7",
            &Default::default(),
            "dbo",
        )
        .unwrap();
    let r = cache.execute(Q, &Default::default(), "dbo").unwrap();
    assert_eq!(
        r.rows[0][0],
        Value::str("renamed"),
        "read-your-own-writes through the result cache"
    );
    assert_eq!(r.metrics.remote_rtts, 1, "the stale entry was not served");
    assert!(cache.result_cache.stats().invalidations >= 1);
}

#[test]
fn replicated_writes_invalidate_through_the_faulted_stream() {
    // The pinned interleaving: backend DML, fault-injected replication
    // pumping, and cached reads, all overlapping. Served values must be
    // monotone in write order while deliveries are in flight, and after the
    // stream drains the cache must not serve anything stale.
    let (backend, cache, hub, clock) = setup();
    // A cached view gives this server a replication subscription — the
    // delivery stream that doubles as the invalidation stream. Its guard
    // excludes cid 250, so the probe query itself still ships remote.
    cache
        .create_cached_view("cust_v", "SELECT cid, cname FROM customer WHERE cid <= 200")
        .unwrap();
    // A node without views hears the same stream: nothing is delivered to
    // it, so no fault is drawn for it, and its cursor passes every
    // transaction. (Before the hub served view-less nodes, its sinks heard
    // nothing: it answered `g0` after the drain.)
    let bare = CacheServer::create("bare", backend.clone(), hub.clone());
    let nodes = [&cache, &bare];
    hub.lock().set_fault_plan(FaultPlan::new(
        99,
        FaultSpec {
            drop_p: 0.20,
            duplicate_p: 0.10,
            crash_every: 7,
            ..FaultSpec::NONE
        },
    ));

    let q = "SELECT cname FROM customer WHERE cid = 250";
    let gen_of = |v: &Value| -> i64 {
        let Value::Str(s) = v else { panic!("string cname, got {v:?}") };
        s.trim_start_matches('g').parse().unwrap_or(-1)
    };
    let mut last_seen = [-1i64; 2];
    for round in 0..20i64 {
        backend
            .run_script(&format!(
                "UPDATE customer SET cname = 'g{round}' WHERE cid = 250"
            ))
            .unwrap();
        // Partial, faulted pumping: drops, duplicates and injected crashes
        // (pump errors) interleave with the reads below.
        for _ in 0..3 {
            clock.advance(5);
            let _ = hub.lock().pump(clock.now_ms());
        }
        for (node, last_seen) in nodes.iter().zip(&mut last_seen) {
            let seen = gen_of(&cname(node, q));
            assert!(
                seen >= *last_seen,
                "{}: served values must be monotone in write order: g{seen} after g{last_seen}",
                node.name()
            );
            *last_seen = seen;
        }
    }

    // Drain every faulted delivery, then every node must answer fresh.
    drain(&hub, &clock);
    for node in nodes {
        assert_eq!(
            cname(node, q),
            Value::str("g19"),
            "{}: post-drain reads must reflect every replicated write",
            node.name()
        );
        assert!(
            node.result_cache.stats().invalidations >= 1,
            "{}: the replication stream must have invalidated at least one entry",
            node.name()
        );
    }
}

#[test]
fn a_node_without_views_hears_a_backend_write() {
    // The node caches no view, so the hub delivers it no rows; its result
    // cache still hears every committed transaction. (The hub used to skip
    // view-less nodes: after the drain this node answered `c7`.)
    let (backend, cache, hub, clock) = setup();
    assert_eq!(cname(&cache, Q), Value::str("c7"));
    backend
        .run_script("UPDATE customer SET cname = 'NEW' WHERE cid = 7")
        .unwrap();
    drain(&hub, &clock);
    assert_eq!(cname(&cache, Q), Value::str("NEW"), "a drained node serves no pre-write entry");
}

#[test]
fn a_forwarded_write_invalidates_the_backend_views_it_maintains() {
    // `cust_mv` is the backend's materialized view: a node ships reads of
    // it, and the backend maintains it inside the transaction of every
    // write to `customer`. The node invalidates by what the write committed,
    // the view included. (Invalidating by the statement's target table, the
    // node answered `c7` while the backend returned `NEW`.)
    let (backend, _, hub, _clock) = setup();
    backend
        .run_script("CREATE MATERIALIZED VIEW cust_mv AS SELECT cid, cname FROM customer")
        .unwrap();
    let cache = CacheServer::create("mv_reader", backend.clone(), hub);
    let q = "SELECT cname FROM cust_mv WHERE cid = 7";
    assert_eq!(cname(&cache, q), Value::str("c7"));
    cache
        .execute("UPDATE customer SET cname = 'NEW' WHERE cid = 7", &Default::default(), "dbo")
        .unwrap();
    let r = backend.execute(q, &Default::default(), "dbo").unwrap();
    assert_eq!(r.rows[0][0], Value::str("NEW"));
    assert_eq!(cname(&cache, q), Value::str("NEW"), "read-your-own-writes through a backend view");
}

#[test]
fn a_forwarded_procedure_invalidates_what_its_nested_procedure_wrote() {
    // The write sits one EXEC down: `renameOuter`'s body is an EXEC of
    // `renameInner`, whose body is the UPDATE. (Scanning the forwarded
    // procedure's own body for DML found none, and the node answered `c7`.)
    let (backend, cache, _hub, _clock) = setup();
    backend
        .create_procedure(
            "renameInner",
            &["id", "name"],
            "UPDATE customer SET cname = @name WHERE cid = @id",
        )
        .unwrap();
    backend
        .create_procedure(
            "renameOuter",
            &["id", "name"],
            "EXEC renameInner @id = @id, @name = @name",
        )
        .unwrap();
    assert_eq!(cname(&cache, Q), Value::str("c7"));
    cache
        .execute("EXEC renameOuter @id = 7, @name = 'NEW'", &Default::default(), "dbo")
        .unwrap();
    assert_eq!(cname(&cache, Q), Value::str("NEW"), "read-your-own-writes through a nested EXEC");
}

#[test]
fn a_forwarded_write_that_changes_no_row_releases_nothing() {
    // Another table's write moves the log head past the entry's fetch LSN;
    // then a forwarded UPDATE matches no row and commits nothing. (Raising
    // `customer`'s watermark to the log head, it released the entry:
    // `invalidations` rose 0 → 1 and the next read missed.)
    let (backend, cache, _hub, _clock) = setup();
    assert_eq!(cname(&cache, Q), Value::str("c7"));
    backend
        .run_script("UPDATE noise SET nval = 'x' WHERE nid = 1")
        .unwrap();
    let r = cache
        .execute("UPDATE customer SET cname = 'zzz' WHERE cid = -1", &Default::default(), "dbo")
        .unwrap();
    assert_eq!(r.metrics.local_rows, 0, "the update matched no row");
    assert_eq!(cache.result_cache.stats().invalidations, 0);
    let r = cache.execute(Q, &Default::default(), "dbo").unwrap();
    assert_eq!(r.rows[0][0], Value::str("c7"));
    assert_eq!(r.metrics.remote_rtts, 0, "the entry is still served");
}

/// Records every transaction an invalidation sink is told about.
#[derive(Default)]
struct Heard(std::sync::Mutex<Vec<(u64, Vec<String>)>>);

impl InvalidationSink for Heard {
    fn note_applied(&self, tables: &[String], lsn: Lsn) {
        self.0.lock().unwrap().push((lsn.0, tables.to_vec()));
    }
}

#[test]
fn a_first_view_on_a_node_with_sinks_makes_no_sink_miss_a_transaction() {
    // Two writes commit after the node's sinks registered and before its
    // first view is created; one more commits after. The sink hears all
    // three, in commit order, once each. (Creating the first view moved
    // the node's cursor to the view's snapshot: the sink heard only the
    // third.)
    let (backend, cache, hub, clock) = setup();
    let heard = Arc::new(Heard::default());
    hub.lock().register_invalidation_sink(&cache.db, heard.clone());
    let first = backend.commit_lsn().0;
    backend
        .run_script(
            "UPDATE customer SET cname = 'a' WHERE cid = 7;
             UPDATE noise SET nval = 'b' WHERE nid = 1",
        )
        .unwrap();
    cache
        .create_cached_view("noise_v", "SELECT nid, nval FROM noise")
        .unwrap();
    backend
        .run_script("UPDATE customer SET cname = 'c' WHERE cid = 8")
        .unwrap();
    drain(&hub, &clock);
    let tables = |t: &str| vec![t.to_string()];
    assert_eq!(
        *heard.0.lock().unwrap(),
        vec![
            (first, tables("customer")),
            (first + 1, tables("noise")),
            (first + 2, tables("customer")),
        ]
    );
}

#[test]
fn currency_bound_rejects_aged_entries() {
    let (_backend, cache, _hub, clock) = setup();
    let bounded = "SELECT cname FROM customer WHERE cid = 10 WITH FRESHNESS 5 SECONDS";
    let unbounded = "SELECT cname FROM customer WHERE cid = 10";

    // Prime via the unbounded statement (the freshness clause is stripped
    // from shipped SQL, so both statements share one cache entry).
    assert_eq!(
        cache
            .execute(unbounded, &Default::default(), "dbo")
            .unwrap()
            .metrics
            .remote_rtts,
        1
    );
    clock.advance(10_000); // entry is now 10 s old

    // Too old for a 5-second bound: rejected, refetched.
    let r = cache.execute(bounded, &Default::default(), "dbo").unwrap();
    assert_eq!(r.metrics.remote_rtts, 1, "aged entry must not satisfy the bound");
    assert_eq!(cache.result_cache.stats().currency_rejects, 1);

    // The refetch refreshed the entry: the same bound now hits.
    let r = cache.execute(bounded, &Default::default(), "dbo").unwrap();
    assert_eq!(r.metrics.remote_rtts, 0, "refreshed entry satisfies the bound");

    // Unbounded statements are never rejected on age.
    let r = cache.execute(unbounded, &Default::default(), "dbo").unwrap();
    assert_eq!(r.metrics.remote_rtts, 0);
}

#[test]
fn byte_budget_evicts_lru_entries() {
    let clock = ManualClock::new(0);
    let backend = BackendServer::with_clock("backend", Arc::new(clock.clone()));
    backend
        .run_script("CREATE TABLE t (id INT NOT NULL PRIMARY KEY, val FLOAT)")
        .unwrap();
    let rows: Vec<String> = (1..=400)
        .map(|i| format!("INSERT INTO t VALUES ({i}, {i}.5)"))
        .collect();
    backend.run_script(&rows.join(";")).unwrap();
    backend.analyze();
    let hub = Arc::new(Mutex::new(ReplicationHub::new(backend.db.clone())));
    const BUDGET: u64 = 8 * 1024;
    let cache = CacheServer::create_with_result_cache(
        "cache",
        backend,
        hub,
        ResultCache::new(ResultCacheConfig::with_budget(BUDGET)),
    );

    // Point lookups: 60 distinct keys with identical (small) result sizes,
    // so every candidate passes the per-entry cap and eviction order is
    // purely LRU.
    for i in 1..=60 {
        cache
            .execute(
                &format!("SELECT val FROM t WHERE id = {i}"),
                &Default::default(),
                "dbo",
            )
            .unwrap();
    }
    let s = cache.result_cache.stats();
    assert!(s.evictions > 0, "60 distinct results must overflow 8 KiB: {s:?}");
    assert!(s.bytes <= BUDGET, "resident bytes respect the budget: {s:?}");
    assert_eq!(s.admission_rejects, 0, "uniform entries all pass admission: {s:?}");

    // LRU: the most recent probe is resident, the oldest was evicted.
    let r = cache
        .execute("SELECT val FROM t WHERE id = 60", &Default::default(), "dbo")
        .unwrap();
    assert_eq!(r.metrics.remote_rtts, 0, "most recent entry must be resident");
    let r = cache
        .execute("SELECT val FROM t WHERE id = 1", &Default::default(), "dbo")
        .unwrap();
    assert_eq!(r.metrics.remote_rtts, 1, "oldest entry must have been evicted");
}

#[test]
fn single_flight_has_one_leader_and_publishing_followers() {
    // Deterministic at the API level: while a leader's flight is open,
    // every other caller for the same key must become a follower and
    // receive the leader's published result.
    let cache = Arc::new(ResultCache::default());
    let FlightRole::Leader(flight) = cache.begin_flight("SELECT 1", "") else {
        panic!("first caller must lead the flight");
    };
    let (joined_tx, joined_rx) = std::sync::mpsc::channel();
    let follower = {
        let cache = cache.clone();
        std::thread::spawn(move || {
            let role = cache.begin_flight("SELECT 1", "");
            joined_tx.send(()).unwrap();
            match role {
                FlightRole::Follower(f) => f.wait().unwrap().len(),
                FlightRole::Leader(_) => panic!("second concurrent caller must follow"),
            }
        })
    };
    // Only publish once the second caller has actually joined the flight.
    joined_rx.recv().unwrap();
    // Publish a three-row result; the follower must observe exactly it.
    let result = mtcache_repro::engine::QueryResult {
        schema: mtcache_repro::types::Schema::new(vec![mtcache_repro::types::Column::not_null(
            "x",
            mtcache_repro::types::DataType::Int,
        )]),
        rows: (0..3)
            .map(|i| mtcache_repro::types::Row::new(vec![Value::Int(i)]))
            .collect(),
        metrics: Default::default(),
    };
    let answer = mtcache_repro::engine::Answer::from_result(result).unwrap();
    cache.finish_flight("SELECT 1", "", &flight, Ok(answer));
    assert_eq!(follower.join().unwrap(), 3);
    assert_eq!(cache.stats().single_flight_waits, 1);
}

#[test]
fn concurrent_identical_queries_partition_into_hits_followers_and_leaders() {
    let (_backend, cache, _hub, _clock) = setup();
    const THREADS: usize = 8;
    let barrier = Arc::new(Barrier::new(THREADS));
    let handles: Vec<_> = (0..THREADS)
        .map(|_| {
            let cache = cache.clone();
            let barrier = barrier.clone();
            std::thread::spawn(move || {
                barrier.wait();
                cache.execute(Q, &Default::default(), "dbo").unwrap().rows
            })
        })
        .collect();
    let results: Vec<_> = handles.into_iter().map(|h| h.join().unwrap()).collect();
    for rows in &results {
        assert_eq!(rows, &results[0], "every thread sees identical rows");
    }
    // Exactly one terminal state per thread: cache hit, single-flight
    // follower, or leader (a leader is precisely a paid round trip).
    let st = cache.stats.snapshot();
    let rc = cache.result_cache.stats();
    assert_eq!(st.remote_calls, THREADS as u64, "one logical call per thread");
    assert!(st.remote_rtts >= 1, "someone had to fetch");
    assert_eq!(
        rc.hits + rc.single_flight_waits + st.remote_rtts,
        THREADS as u64,
        "hits + followers + leaders must cover all threads: {rc:?} {st:?}"
    );
}

#[test]
fn runtime_budget_resize_shrinks_evicts_and_grows_lazily() {
    let clock = ManualClock::new(0);
    let backend = BackendServer::with_clock("backend", Arc::new(clock.clone()));
    backend
        .run_script("CREATE TABLE t (id INT NOT NULL PRIMARY KEY, val FLOAT)")
        .unwrap();
    let rows: Vec<String> = (1..=400)
        .map(|i| format!("INSERT INTO t VALUES ({i}, {i}.5)"))
        .collect();
    backend.run_script(&rows.join(";")).unwrap();
    backend.analyze();
    let hub = Arc::new(Mutex::new(ReplicationHub::new(backend.db.clone())));
    const BUDGET: u64 = 64 * 1024;
    let cache = CacheServer::create_with_result_cache(
        "cache",
        backend,
        hub,
        ResultCache::new(ResultCacheConfig::with_budget(BUDGET)),
    );
    assert_eq!(cache.result_cache.budget(), BUDGET);

    // Fill: 30 uniform point results fit comfortably in 64 KiB.
    for i in 1..=30 {
        cache
            .execute(
                &format!("SELECT val FROM t WHERE id = {i}"),
                &Default::default(),
                "dbo",
            )
            .unwrap();
    }
    let before = cache.result_cache.stats();
    assert_eq!(before.inserts, 30);
    assert_eq!(before.evictions, 0, "{before:?}");

    // Shrink at runtime: the advisor's resize hook evicts from the cold
    // end until resident bytes fit, WITHOUT flushing counters or entries
    // that still fit.
    const SMALL: u64 = 4 * 1024;
    cache.result_cache.set_budget(SMALL);
    assert_eq!(cache.result_cache.budget(), SMALL);
    let s = cache.result_cache.stats();
    assert!(s.bytes <= SMALL, "resident bytes fit the new budget: {s:?}");
    assert!(s.evictions > 0, "shrinking must evict: {s:?}");
    assert!(s.entries > 0, "the hot end survives the shrink: {s:?}");
    assert_eq!(s.inserts, before.inserts, "counters survive the resize: {s:?}");

    // Coldest-first: the most recent key is still resident, the oldest is
    // not.
    let r = cache
        .execute("SELECT val FROM t WHERE id = 30", &Default::default(), "dbo")
        .unwrap();
    assert_eq!(r.metrics.remote_rtts, 0, "hottest entry survives the shrink");
    let r = cache
        .execute("SELECT val FROM t WHERE id = 1", &Default::default(), "dbo")
        .unwrap();
    assert_eq!(r.metrics.remote_rtts, 1, "coldest entry was evicted");

    // Grow back: takes effect lazily — no eviction churn, and the cache
    // re-admits a working set larger than the small budget allowed.
    let evictions_at_small = cache.result_cache.stats().evictions;
    cache.result_cache.set_budget(BUDGET);
    assert_eq!(cache.result_cache.budget(), BUDGET);
    for i in 100..=140 {
        cache
            .execute(
                &format!("SELECT val FROM t WHERE id = {i}"),
                &Default::default(),
                "dbo",
            )
            .unwrap();
    }
    let s = cache.result_cache.stats();
    assert_eq!(
        s.evictions, evictions_at_small,
        "growing must not evict anything: {s:?}"
    );
    let r = cache
        .execute("SELECT val FROM t WHERE id = 100", &Default::default(), "dbo")
        .unwrap();
    assert_eq!(r.metrics.remote_rtts, 0, "the grown cache holds the new set");
}
