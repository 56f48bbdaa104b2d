//! Plan a shape once — pinned by counters, not clocks.
//!
//! An ad-hoc statement's predicate literals are lifted into bindings at the
//! statement cache (`mtc_sql::lift_literals`), so statements that differ
//! only in those values are one *template*: prepared once, planned once,
//! and — the template being what fragments are cut from — shipped, prepared
//! and planned once on the peer and on the backend too. These tests count
//! preparations (`ServerStats::prepares`), lifts
//! (`ServerStats::auto_parameterized`) and plan-cache insertions and hits on
//! every tier of the benchmark's two-node fleet, pin what must *not* be
//! lifted by the number of templates it leaves, and compare every answer
//! with the backend's.

use std::sync::Arc;

use mtc_util::sync::Mutex;

use mtcache_repro::cache::{
    BackendServer, CacheServer, CacheStats, Connection, Fleet, FleetConfig, ServerStats,
    STATEMENT_CACHE_CAPACITY,
};
use mtcache_repro::replication::ReplicationHub;
use mtcache_repro::tpcw::datagen::{generate, Scale};
use mtcache_repro::types::{Row, Value};

const ITEMS: i64 = 400;
const MID: i64 = ITEMS / 2;

/// `mtc_benchmark`'s `fleet_adhoc` deployment in small: `cache0` owns
/// `item` ids up to the midpoint and `author`, `cache1` the ids above.
fn fleet() -> (Arc<BackendServer>, Arc<Fleet>) {
    let backend = BackendServer::new("backend");
    let scale = Scale {
        items: ITEMS as usize,
        emulated_browsers: 2,
        seed: 42,
    };
    generate(&backend, scale).unwrap();
    let hub = Arc::new(Mutex::new(ReplicationHub::new(backend.db.clone())));
    let item_cols = "i_id, i_title, i_a_id, i_pub_date, i_publisher, i_subject, i_desc, \
                     i_srp, i_cost, i_stock, i_related1";
    let fleet = Fleet::create(
        backend.clone(),
        hub,
        FleetConfig {
            nodes: 2,
            ..FleetConfig::default()
        },
        Box::new(move |cache: &CacheServer| {
            if cache.name() == "cache0" {
                cache.create_cached_view(
                    "cv_item_lo",
                    &format!("SELECT {item_cols} FROM item WHERE i_id <= {MID}"),
                )?;
                cache.create_cached_view("cv_author", "SELECT a_id, a_fname, a_lname FROM author")
            } else {
                cache.create_cached_view(
                    "cv_item_hi",
                    &format!("SELECT {item_cols} FROM item WHERE i_id > {MID}"),
                )
            }
        }),
    )
    .unwrap();
    (backend, fleet)
}

/// The `n`-th instance of each `fleet_adhoc` template, as the benchmark's
/// generator spells them: every literal inlined, a fresh always-true
/// residual on the `item` reads. Keys sweep both partitions and straddle
/// the midpoint.
fn adhoc_instance(n: i64) -> [String; 5] {
    let floor = format!("{:.6}", 0.001 * n as f64 + 0.000_5);
    let point = 1 + (n * 7) % ITEMS;
    let window = 1 + (n * 4) % (ITEMS - 16);
    let join = 1 + (n * 4 + 2) % (ITEMS - 20);
    let customer = 1 + n * 3;
    [
        format!(
            "SELECT i_id, i_title, i_cost, i_stock FROM item WHERE i_id = {point} AND i_srp >= {floor}"
        ),
        format!(
            "SELECT i_id, i_title, i_srp FROM item \
             WHERE i_id >= {window} AND i_id < {} AND i_srp >= {floor}",
            window + 16
        ),
        format!(
            "SELECT TOP 20 i_id, i_title, a_lname FROM item, author \
             WHERE i_a_id = a_id AND i_id >= {join} AND i_id < {} \
             AND i_srp >= {floor} ORDER BY i_id ASC",
            join + 20
        ),
        format!(
            "SELECT c_id, c_uname, c_balance FROM customer WHERE c_id >= {customer} AND c_id < {}",
            customer + 16
        ),
        format!("UPDATE item SET i_stock = {} WHERE i_id = {point}", 10 + n),
    ]
}

fn sorted(mut rows: Vec<Row>) -> Vec<Row> {
    rows.sort();
    rows
}

/// One tier's `[prepares, lifts, plan insertions, plan hits, statements
/// executed]` so far.
fn counters(server: ServerStats, plans: CacheStats) -> [u64; 5] {
    [
        server.prepares,
        server.auto_parameterized,
        plans.insertions,
        plans.hits,
        server.queries + server.dml,
    ]
}

/// What a phase added to a tier's [`counters`].
fn since(before: [u64; 5], now: [u64; 5]) -> [u64; 5] {
    std::array::from_fn(|i| now[i] - before[i])
}

#[test]
fn a_hundred_instances_of_a_template_are_one_shape_on_every_tier() {
    const INSTANCES: i64 = 100;
    let (backend, fleet) = fleet();
    let nodes = fleet.nodes();
    let truth = Connection::connect(backend.clone());
    // What the fleet ships per node: `cache0` sends the three `item`
    // fragments to `cache1` (keys above the midpoint) and to the backend
    // (the straddling window and join; a point never straddles), the
    // `customer` fragment and the UPDATE to the backend. `cache1` has no
    // `author` view: it sends the same three `item` fragments the other way,
    // and to the backend one fragment more (`SELECT * FROM author`) — of
    // which the backend has planned all but that one for `cache0` already.
    let shipped_shapes = [(3, 4), (3, 1)];
    for (here, (to_peer, to_backend)) in shipped_shapes.into_iter().enumerate() {
        // The other phase's UPDATEs reach every cached view first.
        while !fleet.hub().lock().drained() {
            fleet.hub().lock().pump(backend.clock.now_ms()).unwrap();
        }
        let node = &nodes[here];
        let peer = &nodes[1 - here];
        let conn = Connection::connect(node.clone());
        let before_here = counters(node.stats.snapshot(), node.plan_cache.stats());
        let before_peer = counters(peer.stats.snapshot(), peer.plan_cache.stats());
        let before_backend = counters(backend.stats.snapshot(), backend.plan_cache.stats());
        for n in 0..INSTANCES {
            for sql in adhoc_instance(n) {
                let got = conn.query(&sql).unwrap_or_else(|e| panic!("{sql}: {e}"));
                if sql.starts_with("SELECT") {
                    let want = truth.query(&sql).unwrap();
                    assert_eq!(got.rows.len(), want.rows.len(), "{}: {sql}", node.name());
                    assert_eq!(
                        sorted(got.rows),
                        sorted(want.rows),
                        "{}: {sql}",
                        node.name()
                    );
                }
            }
        }
        // Here: five texts per instance, five templates in all; the four
        // reads are planned once each (the UPDATE is forwarded prepared and
        // planned where it runs).
        let [prepares, lifted, planned, plan_hits, _] = since(
            before_here,
            counters(node.stats.snapshot(), node.plan_cache.stats()),
        );
        assert_eq!(prepares, 5, "{}: one parse per shape", node.name());
        assert_eq!(lifted, 5 * INSTANCES as u64);
        assert_eq!(
            (planned, plan_hits),
            (4, 4 * (INSTANCES as u64 - 1)),
            "{}: one plan per read shape",
            node.name()
        );
        // The peer and the backend are handed prepared fragments — nothing
        // to parse — and plan one per shape, however many values arrive.
        let [prepares, _, planned, plan_hits, ran] = since(
            before_peer,
            counters(peer.stats.snapshot(), peer.plan_cache.stats()),
        );
        assert_eq!((prepares, planned), (0, to_peer), "{} as peer", peer.name());
        assert_eq!(planned + plan_hits, ran);
        assert!(ran >= 100, "{ran} fragments reached {}", peer.name());
        // (The truth queries above went to the backend as client texts: they
        // are what it prepared, one template per read shape, once.)
        let [prepares, _, planned, plan_hits, ran] = since(
            before_backend,
            counters(backend.stats.snapshot(), backend.plan_cache.stats()),
        );
        let truth_shapes = if here == 0 { 4 } else { 0 };
        assert_eq!(
            (prepares, planned),
            (truth_shapes, truth_shapes + to_backend),
            "backend, serving {}",
            node.name()
        );
        assert_eq!(planned + plan_hits, ran);
        assert!(
            ran >= 5 * INSTANCES as u64,
            "{ran} statements reached the backend"
        );
    }
}

/// A fragment's cached result is keyed by the parameters the fragment
/// references: `SELECT * FROM author`, shipped by `cache1` for every
/// instance of the three-parameter join, is fetched once.
#[test]
fn a_shipped_fragment_is_cached_under_the_parameters_it_references() {
    let (backend, fleet) = fleet();
    let node = fleet.node(1).unwrap();
    let conn = Connection::connect(node.clone());
    let queries_before = backend.stats.snapshot().queries;
    for n in 0..50 {
        // Keys on this node's side: the `item` half is local.
        let lo = MID + 1 + n;
        let sql = format!(
            "SELECT TOP 20 i_id, i_title, a_lname FROM item, author \
             WHERE i_a_id = a_id AND i_id >= {lo} AND i_id < {} AND i_srp >= 0.{n:06} \
             ORDER BY i_id ASC",
            lo + 20
        );
        let got = conn.query(&sql).unwrap();
        assert_eq!(
            got.metrics.remote_calls, 1,
            "author is the one remote fragment"
        );
        assert_eq!(
            got.metrics.remote_rtts,
            u64::from(n == 0),
            "fetched once: {sql}"
        );
    }
    let l1 = node.result_cache.stats();
    assert_eq!((l1.misses, l1.hits), (1, 49));
    assert_eq!(backend.stats.snapshot().queries - queries_before, 1);
}

/// How many templates (statement-cache entries) `texts` leave on a fresh
/// node, each answered like the backend answers it.
fn templates_of(texts: &[&str]) -> usize {
    let (backend, fleet) = fleet();
    let node = fleet.node(0).unwrap();
    let conn = Connection::connect(node.clone());
    let truth = Connection::connect(backend);
    for sql in texts {
        let got = conn.query(sql).unwrap_or_else(|e| panic!("{sql}: {e}"));
        assert_eq!(
            sorted(got.rows),
            sorted(truth.query(sql).unwrap().rows),
            "{sql}"
        );
    }
    assert_eq!(
        node.stats.snapshot().prepares as usize,
        node.statements.len()
    );
    node.statements.len()
}

#[test]
fn what_shapes_the_plan_or_the_answer_stays_in_the_template() {
    // Two values of a lifted literal: one template.
    assert_eq!(
        templates_of(&[
            "SELECT i_id FROM item WHERE i_id = 7",
            "SELECT i_id FROM item WHERE i_id = 307",
        ]),
        1
    );
    // Each of these pairs differs in something that is not lifted.
    for pair in [
        [
            "SELECT TOP 10 i_id FROM item WHERE i_id >= 5 ORDER BY i_id ASC",
            "SELECT TOP 20 i_id FROM item WHERE i_id >= 5 ORDER BY i_id ASC",
        ],
        [
            "SELECT i_id FROM item WHERE i_title LIKE '%vol 1%' AND i_id <= 50",
            "SELECT i_id FROM item WHERE i_title LIKE '%vol 2%' AND i_id <= 50",
        ],
        [
            "SELECT i_id, 1 AS tier FROM item WHERE i_id = 7",
            "SELECT i_id, 2 AS tier FROM item WHERE i_id = 7",
        ],
        [
            "SELECT i_id FROM item WHERE i_id = 7 WITH FRESHNESS 30 SECONDS",
            "SELECT i_id FROM item WHERE i_id = 7 WITH FRESHNESS 60 SECONDS",
        ],
        [
            "SELECT i_id FROM item WHERE i_id IN (3, 4)",
            "SELECT i_id FROM item WHERE i_id IN (3, 4, 5)",
        ],
    ] {
        assert_eq!(templates_of(&pair), 2, "{pair:?}");
    }
}

#[test]
fn every_lifted_form_answers_like_the_backend() {
    let (backend, fleet) = fleet();
    let truth = Connection::connect(backend.clone());
    let user = Connection::params(&[("lo", Value::Int(MID - 3)), ("__p0", Value::Int(MID + 2))]);
    let texts = [
        // `''`-escaped strings, negative numbers.
        "SELECT a_id FROM author WHERE a_lname <> 'O''Neil' AND a_id <= 5",
        "SELECT i_id FROM item WHERE i_id > -5 AND i_id < 4 AND i_cost >= -0.5",
        // IN lists and BETWEEN, on both sides of the partition.
        "SELECT i_id, i_stock FROM item WHERE i_id IN (2, 399, 200, 201)",
        "SELECT i_id FROM item WHERE i_id NOT IN (1, 2) AND i_id BETWEEN 1 AND 6",
        "SELECT i_id FROM item WHERE i_id BETWEEN 195 AND 205",
        // Literals mixed with the client's own parameters.
        "SELECT i_id FROM item WHERE i_id >= @lo AND i_id < 210 AND i_srp >= 0.5",
        // The reserved names are taken: this text runs as it is.
        "SELECT i_id FROM item WHERE i_id = @__p0 AND i_srp >= 0.5",
        // Aggregates over a lifted HAVING bound.
        "SELECT i_a_id, COUNT(*) AS n FROM item WHERE i_id <= 300 GROUP BY i_a_id HAVING COUNT(*) > 1",
    ];
    for node in fleet.nodes() {
        let conn = Connection::connect(node.clone());
        for sql in texts {
            let got = conn
                .query_with(sql, &user)
                .unwrap_or_else(|e| panic!("{sql}: {e}"));
            let want = truth.query_with(sql, &user).unwrap();
            assert!(!want.rows.is_empty(), "a probe that selects nothing: {sql}");
            assert_eq!(
                sorted(got.rows),
                sorted(want.rows),
                "{}: {sql}",
                node.name()
            );
        }
        // All but the `@__p0` text were rewritten.
        assert_eq!(
            node.stats.snapshot().auto_parameterized as usize,
            texts.len() - 1
        );
        let explain = node.explain(texts[5]).unwrap();
        assert!(
            explain.starts_with(
                "parameterized: SELECT i_id FROM item WHERE i_id >= @lo AND i_id < @__p0 AND i_srp >= @__p1\n\
                 bindings: @__p0 = Int(210), @__p1 = Float(0.5)\n"
            ),
            "{explain}"
        );
        assert!(!node.explain(texts[6]).unwrap().contains("parameterized:"));
    }
}

#[test]
fn a_text_that_does_not_parse_fails_as_it_always_did() {
    let (backend, fleet) = fleet();
    let node = fleet.node(0).unwrap();
    for sql in [
        "SELECT i_id FROM item WHERE i_id = 5 5",
        "SELECT i_id FROM item WHERE i_id = 'open",
        "SELECT i_id FROM WHERE i_id = 5",
        // A token touching the literal is still its own token, not the tail
        // of the parameter's name.
        "SELECT i_id FROM item WHERE i_id = 5x",
        "SELECT i_id FROM item WHERE i_srp = 1.5e3",
        "SELECT i_id FROM item WHERE i_title = 'a'b",
    ] {
        let want = mtcache_repro::sql::parse_statement(sql)
            .unwrap_err()
            .to_string();
        for conn in [
            Connection::connect(node.clone()),
            Connection::connect(backend.clone()),
        ] {
            let first = conn.query(sql).unwrap_err();
            assert_eq!(first.kind(), "parse");
            assert_eq!(first.to_string(), want, "{sql}");
            assert_eq!(conn.query(sql).unwrap_err().to_string(), want);
        }
    }
    assert!(node.statements.is_empty() && backend.statements.is_empty());
    assert_eq!(node.stats.snapshot().prepares, 12, "each attempt is a miss");
    assert_eq!(node.plan_cache.stats().insertions, 0);
}

#[test]
fn a_thousand_ad_hoc_texts_leave_only_their_templates_resident() {
    let (_backend, fleet) = fleet();
    let node = fleet.node(0).unwrap();
    let conn = Connection::connect(node.clone());
    for n in 0..200 {
        for sql in adhoc_instance(n) {
            conn.query(&sql).unwrap();
        }
    }
    assert_eq!(node.statements.len(), 5);
    assert_eq!(node.stats.snapshot().prepares, 5);
    // The one text that keeps coming back joins them at its second sighting
    // and is a raw-text hit from the third: no lift, same template, same
    // answer.
    let recurring = "SELECT i_id, i_title, i_cost, i_stock FROM item WHERE i_id = 33 AND i_srp >= 0.0";
    let answers: Vec<_> = (0..4).map(|_| conn.query(recurring).unwrap().rows).collect();
    assert!(answers.iter().all(|rows| *rows == answers[0] && rows.len() == 1));
    assert_eq!(node.statements.len(), 6);
    assert_eq!(node.stats.snapshot().auto_parameterized, 1002);
    assert_eq!(node.stats.snapshot().prepares, 5);
    // Distinct shapes still fill the cache, and it still stops at capacity.
    for n in 0..2 * STATEMENT_CACHE_CAPACITY {
        conn.query(&format!(
            "SELECT i_id, {n} AS shape FROM item WHERE i_id = {}",
            1 + n
        ))
        .unwrap();
    }
    assert_eq!(node.statements.len(), STATEMENT_CACHE_CAPACITY);
    assert_eq!(
        node.stats.snapshot().auto_parameterized,
        1002 + 2 * STATEMENT_CACHE_CAPACITY as u64
    );
}

/// The lift must not cost a plan: a literal that sat statically inside a
/// cached view still reads it when the view's bound is the column's minimum,
/// where the uniform estimate over `[min, max]` prices the guard at 0 — the
/// guarded branch is costed at one distinct value's worth at least.
#[test]
fn a_read_inside_a_view_bounded_at_the_columns_minimum_stays_local() {
    let backend = BackendServer::new("backend");
    backend
        .run_script(
            "CREATE TABLE customer (cid INT NOT NULL PRIMARY KEY, cname VARCHAR);
             INSERT INTO customer VALUES (1, 'alice'), (2, 'bob');",
        )
        .unwrap();
    backend.analyze();
    let hub = Arc::new(Mutex::new(ReplicationHub::new(backend.db.clone())));
    let cache = CacheServer::create("cache1", backend.clone(), hub);
    cache
        .create_cached_view("cust1", "SELECT cid, cname FROM customer WHERE cid <= 1")
        .unwrap();
    let conn = Connection::connect(cache.clone());
    let inside = conn.query("SELECT cname FROM customer WHERE cid = 1").unwrap();
    assert_eq!(inside.rows.len(), 1);
    assert_eq!(inside.metrics.remote_calls, 0);
    // The same plan serves the value outside the view.
    let outside = conn.query("SELECT cname FROM customer WHERE cid = 2").unwrap();
    assert_eq!((outside.rows.len(), outside.metrics.remote_calls), (1, 1));
    assert_eq!(cache.plan_cache.stats().insertions, 1);
}
