//! Prepare once, run many — pinned by counters, not clocks.
//!
//! A statement text is parsed, keyed and planned the first time a server
//! sees it; every later execution reuses the prepared statement and the
//! compiled plan. These tests count: preparations (`ServerStats::prepares`,
//! the statement cache's misses), plan-cache insertions and hits, and
//! pointer identity of what is shared. They also pin what preparation must
//! *not* capture — permissions, catalog and topology versions, currency
//! bounds — and that a result the cache can no longer serve leaves it when
//! the write that killed it is observed.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use mtc_util::check::{self, Config};
use mtc_util::rng::Rng;
use mtc_util::sync::Mutex;

use mtcache_repro::cache::{
    BackendServer, CacheServer, Connection, Lineage, ResultCache, ResultCacheConfig,
    STATEMENT_CACHE_CAPACITY,
};
use mtcache_repro::engine::{Answer, QueryResult, RemoteExecutor};
use mtcache_repro::replication::{Clock, ManualClock, ReplicationHub};
use mtcache_repro::storage::{Lsn, Watermark};
use mtcache_repro::tpcw::datagen::{generate, Scale};
use mtcache_repro::tpcw::deploy::configure_cache;
use mtcache_repro::tpcw::procs::register_all;
use mtcache_repro::types::{Column, DataType, Row, Schema, Value};

/// `customer` (2 000 rows) on the backend, the first 1 000 cached.
fn customers() -> (Arc<BackendServer>, Arc<CacheServer>) {
    let (backend, cache, _hub) = customers_on(BackendServer::new("backend"));
    (backend, cache)
}

/// [`customers`] on `backend`, with the hub that keeps the view current.
fn customers_on(
    backend: Arc<BackendServer>,
) -> (Arc<BackendServer>, Arc<CacheServer>, Arc<Mutex<ReplicationHub>>) {
    backend
        .run_script(
            "CREATE TABLE customer (cid INT NOT NULL PRIMARY KEY, cname VARCHAR, region INT);
             GRANT SELECT ON customer TO app;
             GRANT UPDATE ON customer TO app;",
        )
        .unwrap();
    let rows: Vec<String> = (1..=2000)
        .map(|i| format!("INSERT INTO customer VALUES ({i}, 'c{i}', {})", i % 10))
        .collect();
    backend.run_script(&rows.join(";")).unwrap();
    backend.analyze();
    let hub = Arc::new(Mutex::new(ReplicationHub::new(backend.db.clone())));
    let cache = CacheServer::create("cache", backend.clone(), hub.clone());
    cache
        .create_cached_view(
            "cust1000",
            "SELECT cid, cname, region FROM customer WHERE cid <= 1000",
        )
        .unwrap();
    (backend, cache, hub)
}

/// The TPC-W deployment of the benchmark: backend, one configured cache.
fn tpcw() -> (Arc<BackendServer>, Arc<CacheServer>) {
    let backend = BackendServer::new("backend");
    generate(&backend, Scale::tiny()).unwrap();
    register_all(&backend).unwrap();
    let hub = Arc::new(Mutex::new(ReplicationHub::new(backend.db.clone())));
    let cache = CacheServer::create("cache", backend.clone(), hub);
    configure_cache(&cache).unwrap();
    (backend, cache)
}

fn id(v: i64) -> mtcache_repro::cache::Bindings {
    Connection::params(&[("id", Value::Int(v))])
}

#[test]
fn a_recurring_text_is_prepared_once_on_either_server() {
    let (backend, cache) = customers();
    let conn = Connection::connect_as(cache.clone(), "app");
    // Beyond the cached range: every execution ships a fragment.
    let sql = "SELECT cname FROM customer WHERE cid = @id";
    let backend_before = backend.stats.snapshot().prepares;
    let plans_before = backend.plan_cache.stats();
    for i in 0..100 {
        let r = conn.query_with(sql, &id(1001 + i)).unwrap();
        assert_eq!(r.rows[0][0], Value::str(format!("c{}", 1001 + i)));
        assert_eq!(r.metrics.remote_calls, 1);
    }
    assert_eq!(
        cache.stats.snapshot().prepares,
        1,
        "100 executions, one parse"
    );
    let cp = cache.plan_cache.stats();
    assert_eq!((cp.insertions, cp.hits), (1, 99));
    // The compiled plan carries the prepared fragment: the backend runs it
    // without ever seeing its text, and plans it once.
    assert_eq!(backend.stats.snapshot().prepares, backend_before);
    let bp = backend.plan_cache.stats();
    assert_eq!(bp.insertions - plans_before.insertions, 1);
    assert_eq!(bp.hits - plans_before.hits, 99);

    // A caller that ships text has it prepared once, too.
    let shipped = "SELECT cname FROM customer WHERE cid = @id";
    for i in 0..100 {
        let r = backend.execute_remote(shipped, &id(1 + i)).unwrap();
        assert_eq!(r.rows.len(), 1);
    }
    assert_eq!(backend.stats.snapshot().prepares, backend_before + 1);
}

#[test]
fn a_procedure_body_is_prepared_at_creation_and_planned_once() {
    let (backend, cache) = tpcw();
    let conn = Connection::connect_as(cache.clone(), "app");
    conn.query_with(
        "EXEC createEmptyCart @sc_id = @id, @now = @now",
        &Connection::params(&[("id", Value::Int(77)), ("now", Value::Timestamp(1))]),
    )
    .unwrap();
    let before = backend.plan_cache.stats();
    let prepares = (
        cache.stats.snapshot().prepares,
        backend.stats.snapshot().prepares,
    );
    for i in 0..100 {
        conn.query_with(
            "EXEC refreshCart @sc_id = @id, @now = @now, @total = @t",
            &Connection::params(&[
                ("id", Value::Int(77)),
                ("now", Value::Timestamp(2 + i)),
                ("t", Value::Float(i as f64)),
            ]),
        )
        .unwrap();
    }
    let after = backend.plan_cache.stats();
    assert_eq!(after.insertions - before.insertions, 1, "planned once");
    assert_eq!(after.hits - before.hits, 99);
    // One parse of the EXEC text on the cache; the body was prepared when
    // the procedure was created, so the backend parses nothing.
    assert_eq!(cache.stats.snapshot().prepares, prepares.0 + 1);
    assert_eq!(backend.stats.snapshot().prepares, prepares.1);
    let total = backend
        .execute(
            "SELECT sc_total FROM shopping_cart WHERE sc_id = 77",
            &id(0),
            "dbo",
        )
        .unwrap();
    assert_eq!(total.rows[0][0], Value::Float(99.0));

    // The copy on the cache *is* the backend's definition, and two calls
    // see the same prepared body.
    let on_cache = cache
        .db
        .read()
        .catalog
        .procedure("refreshCart")
        .cloned()
        .unwrap();
    let on_backend = backend
        .db
        .read()
        .catalog
        .procedure("refreshCart")
        .cloned()
        .unwrap();
    assert!(Arc::ptr_eq(&on_cache, &on_backend));
    let again = cache
        .db
        .read()
        .catalog
        .procedure("refreshCart")
        .cloned()
        .unwrap();
    assert!(Arc::ptr_eq(&on_cache.body[0], &again.body[0]));
}

#[test]
fn a_prepared_statement_still_checks_permissions_every_time() {
    let (backend, cache) = tpcw();
    let update = "UPDATE customer SET c_last_login = @now WHERE c_id = @id";
    let exec = "EXEC updateCustomerLogin @c_id = @id, @now = @now";
    let params = Connection::params(&[("id", Value::Int(3)), ("now", Value::Timestamp(9))]);
    for server in ["cache", "backend"] {
        let connect = |principal: &str| match server {
            "cache" => Connection::connect_as(cache.clone(), principal),
            _ => Connection::connect_as(backend.clone(), principal),
        };
        for sql in [update, exec] {
            // Prepared and planned by an authorized principal ...
            connect("app").query_with(sql, &params).unwrap();
            let hits = backend.plan_cache.stats().hits;
            // ... and still refused to the next one, before any plan probe.
            let err = connect("nobody").query_with(sql, &params).unwrap_err();
            assert_eq!(err.kind(), "permission", "{server}: {sql}");
            assert_eq!(backend.plan_cache.stats().hits, hits, "{server}: {sql}");
            connect("app").query_with(sql, &params).unwrap();
            assert_eq!(backend.plan_cache.stats().hits, hits + 1, "{server}: {sql}");
        }
    }
}

#[test]
fn ddl_and_topology_rebuild_the_plan_not_the_prepared_statement() {
    let (backend, cache) = customers();
    let topology = Arc::new(AtomicU64::new(0));
    cache.set_topology(topology.clone());
    let conn = Connection::connect_as(cache.clone(), "app");
    let sql = "SELECT cname FROM customer WHERE cid = @id";
    let run = || conn.query_with(sql, &id(7)).unwrap();
    run();
    run();
    let planned = |cache: &CacheServer| {
        let s = cache.plan_cache.stats();
        (s.insertions, s.invalidations)
    };
    assert_eq!(planned(&cache), (1, 0));

    // A new index on the cached view bumps the catalog version.
    cache
        .create_index_on_view("cx_region", "cust1000", &["region".into()])
        .unwrap();
    run();
    assert_eq!(planned(&cache), (2, 1), "plan rebuilt after CREATE INDEX");
    // A fleet membership change bumps the topology version.
    topology.fetch_add(1, Ordering::AcqRel);
    run();
    assert_eq!(
        planned(&cache),
        (3, 2),
        "plan rebuilt after a topology bump"
    );
    assert_eq!(
        cache.stats.snapshot().prepares,
        1,
        "the text was parsed once"
    );

    // DROP TABLE on the backend: the prepared text survives, the plan does
    // not, and the statement now fails the way it would unprepared.
    let direct = Connection::connect(backend.clone());
    direct.query_with(sql, &id(7)).unwrap();
    let prepares = backend.stats.snapshot().prepares;
    backend.run_script("DROP TABLE customer").unwrap();
    let err = direct.query_with(sql, &id(7)).unwrap_err();
    assert_eq!(err.kind(), "catalog");
    assert_eq!(backend.stats.snapshot().prepares, prepares);
}

#[test]
fn freshness_bounded_statements_are_prepared_and_planned_once() {
    // The currency bound is checked per execution, not captured in the
    // plan: a current node plans the bounded text once, a node past the
    // bound forwards it without a probe, and the plan outlives the lag.
    const N: u64 = 3;
    let clock = ManualClock::new(0);
    let (backend, cache, hub) =
        customers_on(BackendServer::with_clock("backend", Arc::new(clock.clone())));
    let conn = Connection::connect_as(cache.clone(), "app");
    let sql = "SELECT cname FROM customer WHERE cid = @id WITH FRESHNESS 30 SECONDS";
    for _ in 0..N {
        let r = conn.query_with(sql, &id(5)).unwrap();
        assert_eq!((r.rows[0][0].clone(), r.metrics.remote_calls), (Value::str("c5"), 0));
    }
    let planned = cache.plan_cache.stats();
    assert_eq!((planned.insertions, planned.hits), (1, N - 1));

    hub.lock().log_reader_enabled = false;
    backend
        .run_script("UPDATE customer SET cname = 'moved' WHERE cid = 5")
        .unwrap();
    clock.advance(60_000);
    for _ in 0..N {
        let r = conn.query_with(sql, &id(5)).unwrap();
        assert_eq!(r.rows[0][0], Value::str("moved"), "the backend's answer");
    }
    assert_eq!(cache.plan_cache.stats(), planned, "no probe, no insertion");
    let s = cache.stats.snapshot();
    assert_eq!((s.prepares, s.freshness_fallbacks), (1, N));

    hub.lock().log_reader_enabled = true;
    for _ in 0..2 {
        hub.lock().pump(clock.now_ms()).unwrap();
    }
    let r = conn.query_with(sql, &id(5)).unwrap();
    assert_eq!((r.rows[0][0].clone(), r.metrics.remote_calls), (Value::str("moved"), 0));
    let s = cache.plan_cache.stats();
    assert_eq!((s.insertions, s.hits), (1, N));
    assert_eq!(cache.stats.snapshot().prepares, 1, "parsed once throughout");
}

#[test]
fn a_text_that_does_not_parse_is_not_cached() {
    let (backend, cache) = customers();
    for conn in [
        Connection::connect(cache.clone()),
        Connection::connect(backend.clone()),
    ] {
        let first = conn.query("SELECT FROM WHERE").unwrap_err();
        let second = conn.query("SELECT FROM WHERE").unwrap_err();
        assert_eq!(first.kind(), "parse");
        assert_eq!(first.to_string(), second.to_string());
    }
    assert!(cache.statements.is_empty());
    assert_eq!(cache.stats.snapshot().prepares, 2, "each attempt is a miss");
}

#[test]
fn the_statement_cache_is_bounded_and_keeps_what_recurs() {
    let (_backend, cache) = customers();
    let conn = Connection::connect_as(cache.clone(), "app");
    let hot = "SELECT cname FROM customer WHERE cid = @id";
    // Distinct *shapes*: a select-list literal stays in the template, so
    // each of these is a text of its own (texts that differ only in a
    // predicate literal share one — tests/auto_parameterization.rs).
    let adhoc = |i: usize| format!("SELECT cname, {i} FROM customer WHERE cid = {}", 1 + i);
    for i in 0..3 * STATEMENT_CACHE_CAPACITY {
        conn.query_with(hot, &id(1)).unwrap();
        conn.query(&adhoc(i)).unwrap();
    }
    assert_eq!(cache.statements.len(), STATEMENT_CACHE_CAPACITY);
    let prepares = cache.stats.snapshot().prepares;
    assert_eq!(prepares as usize, 1 + 3 * STATEMENT_CACHE_CAPACITY);
    // The recurring text was never evicted; the first ad-hoc one was.
    conn.query_with(hot, &id(2)).unwrap();
    assert_eq!(cache.stats.snapshot().prepares, prepares);
    conn.query(&adhoc(0)).unwrap();
    assert_eq!(cache.stats.snapshot().prepares, prepares + 1);
    assert_eq!(cache.statements.len(), STATEMENT_CACHE_CAPACITY);
}

/// The access path of a cached DML plan: a table analyzed empty and grown
/// since is still updated by key through a seek, and the plan is compiled
/// once.
#[test]
fn update_by_key_seeks_however_stale_the_statistics() {
    let backend = BackendServer::new("backend");
    backend
        .run_script("CREATE TABLE cart (sc_id INT NOT NULL PRIMARY KEY, sc_total FLOAT)")
        .unwrap();
    backend.analyze(); // statistics say: zero rows
    let rows: Vec<String> = (1..=10_000).map(|i| format!("({i}, 0.0)")).collect();
    backend
        .run_script(&format!("INSERT INTO cart VALUES {}", rows.join(", ")))
        .unwrap();
    let sql = "UPDATE cart SET sc_total = sc_total + @t WHERE sc_id = @id";
    let plan = backend.explain(sql).unwrap();
    assert!(plan.contains("ClusteredSeek cart"), "{plan}");
    assert!(!plan.contains("SeqScan"), "{plan}");

    let params = |id: i64| Connection::params(&[("id", Value::Int(id)), ("t", Value::Float(1.5))]);
    let before = backend.plan_cache.stats();
    let first = backend.execute(sql, &params(4242), "dbo").unwrap();
    let mid = backend.plan_cache.stats();
    assert_eq!(mid.insertions - before.insertions, 1);
    let second = backend.execute(sql, &params(4242), "dbo").unwrap();
    let after = backend.plan_cache.stats();
    assert_eq!(after.insertions, mid.insertions, "the same plan object");
    assert_eq!(after.hits, mid.hits + 1);
    for r in [&first, &second] {
        assert_eq!(r.metrics.local_rows, 1, "one row changed");
        // Statement overhead 100 + a seek touching one row + one write:
        // nowhere near the 10 000 rows a scan reads.
        assert!(r.metrics.local_work < 150.0, "{}", r.metrics.local_work);
    }
    let total = backend
        .execute(
            "SELECT sc_total FROM cart WHERE sc_id = 4242",
            &params(0),
            "dbo",
        )
        .unwrap();
    assert_eq!(total.rows[0][0], Value::Float(3.0));
    // A table that was empty when it was planned is sought by key as well.
    backend
        .run_script("CREATE TABLE cart2 (sc_id INT NOT NULL PRIMARY KEY, sc_total FLOAT)")
        .unwrap();
    let plan = backend
        .explain("DELETE FROM cart2 WHERE sc_id = @id")
        .unwrap();
    assert!(plan.contains("ClusteredSeek cart2"), "{plan}");
}

// ---------------------------------------------------------------------------
// Dead results leave when they die: the purge against a lazy model
// ---------------------------------------------------------------------------

#[derive(Debug, Clone)]
enum Op {
    /// Admit result `key` over `tables`, computed at `lsn`.
    Admit {
        key: u8,
        tables: Vec<u8>,
        lsn: u64,
    },
    /// A write to `table` requiring `lsn`.
    Write {
        table: u8,
        lsn: u64,
    },
    Lookup {
        key: u8,
    },
}

fn table_name(t: u8) -> String {
    format!("t{t}")
}

/// What a fetch at head `lsn` over `tables` stamps (instant, catalog
/// version and work zero).
fn lineage(tables: Vec<String>, lsn: u64) -> Lineage {
    Lineage {
        watermark: Watermark {
            lsn: Lsn(lsn),
            synced_through_ms: 0,
        },
        tables: tables.into(),
        catalog_version: 0,
        backend_work: 0.0,
    }
}

fn result_for(key: u8, lsn: u64) -> QueryResult {
    QueryResult {
        schema: Schema::new(vec![Column::not_null("x", DataType::Int)]),
        rows: vec![Row::new(vec![
            Value::Int(key as i64),
            Value::Int(lsn as i64),
        ])],
        metrics: Default::default(),
    }
}

/// Validation at the probe instead of at the write: an entry stays until its
/// own key is probed, and the probe checks it against the watermarks then.
#[derive(Default)]
struct LazyModel {
    entries: HashMap<u8, (Vec<u8>, u64)>,
    watermarks: HashMap<u8, u64>,
}

impl LazyModel {
    fn valid(&self, tables: &[u8], lsn: u64) -> bool {
        tables
            .iter()
            .all(|t| self.watermarks.get(t).copied().unwrap_or(0) <= lsn)
    }

    fn lookup(&mut self, key: u8) -> Option<u64> {
        let (tables, lsn) = self.entries.get(&key)?.clone();
        if self.valid(&tables, lsn) {
            Some(lsn)
        } else {
            self.entries.remove(&key);
            None
        }
    }
}

#[test]
fn purge_at_the_write_serves_exactly_what_lazy_validation_served() {
    check::run(
        &Config::cases(200),
        "purge_at_the_write_serves_exactly_what_lazy_validation_served",
        |rng| {
            // LSNs wander upwards, with admissions sometimes behind a write
            // that has already been observed.
            let mut head = 1u64;
            check::vec_of(rng, 1..120, |r| {
                head += r.gen_range(0u64..3);
                match r.gen_range(0u32..10) {
                    0..=3 => Op::Admit {
                        key: r.gen_range(0u8..12),
                        tables: check::vec_of(r, 0..3, |r| r.gen_range(0u8..4)),
                        lsn: head.saturating_sub(r.gen_range(0u64..4)),
                    },
                    4..=5 => Op::Write {
                        table: r.gen_range(0u8..4),
                        lsn: head.saturating_sub(r.gen_range(0u64..3)),
                    },
                    _ => Op::Lookup {
                        key: r.gen_range(0u8..12),
                    },
                }
            })
        },
        |ops| {
            // A budget nothing here fills: eviction is not under test.
            let cache = ResultCache::new(ResultCacheConfig::with_budget(64 << 20));
            let mut model = LazyModel::default();
            let (mut hits, mut model_hits) = (0u64, 0u64);
            let one_entry = {
                let probe = ResultCache::default();
                let answer = Answer::from_result(result_for(0, 0)).unwrap();
                probe.admit("k", "", &answer, lineage(Vec::new(), 0));
                probe.stats().bytes
            };
            for op in ops {
                match op {
                    Op::Admit { key, tables, lsn } => {
                        let names: Vec<String> = tables.iter().map(|t| table_name(*t)).collect();
                        let admitted = cache.admit(
                            &format!("q{key}"),
                            "",
                            &Answer::from_result(result_for(*key, *lsn)).unwrap(),
                            lineage(names, *lsn),
                        );
                        // A result a write has already overtaken is turned
                        // away; whatever the key held stays as it was.
                        assert_eq!(admitted, model.valid(tables, *lsn), "{op:?}");
                        if admitted {
                            model.entries.insert(*key, (tables.clone(), *lsn));
                        }
                    }
                    Op::Write { table, lsn } => {
                        cache.note_write(&table_name(*table), *lsn);
                        let mark = model.watermarks.entry(*table).or_insert(0);
                        *mark = (*mark).max(*lsn);
                    }
                    Op::Lookup { key } => {
                        let got = cache.lookup(&format!("q{key}"), "", 0, None, 0);
                        let want = model.lookup(*key);
                        assert_eq!(
                            got.as_ref().map(|(answer, _)| answer.to_result().rows),
                            want.map(|lsn| result_for(*key, lsn).rows),
                            "{op:?}"
                        );
                        hits += u64::from(got.is_some());
                        model_hits += u64::from(want.is_some());
                    }
                }
                let stats = cache.stats();
                // Everything resident is servable, so never more than the
                // model holds (which keeps its corpses until probed).
                assert!(stats.entries <= model.entries.len() as u64, "{op:?}");
                assert_eq!(stats.bytes, stats.entries * one_entry, "{op:?}");
                let live = model
                    .entries
                    .values()
                    .filter(|(tables, lsn)| model.valid(tables, *lsn))
                    .count();
                assert_eq!(stats.entries, live as u64, "only the dead are gone: {op:?}");
            }
            assert_eq!(hits, model_hits);
            assert_eq!(cache.stats().hits, hits);
        },
    );
}
