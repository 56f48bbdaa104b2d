//! The paper's core claim: caching is *transparent*. The same application
//! code, run against the backend and against a cache server, produces the
//! same answers — queries, parameterized queries, stored procedures and
//! updates included.

use std::sync::Arc;

use mtc_util::sync::Mutex;

use mtcache_repro::cache::{
    BackendServer, CacheServer, Connection, Fleet, FleetConfig, QueryResult, ServerHandle,
};
use mtcache_repro::replication::ReplicationHub;
use mtcache_repro::sql::{parse_statement, Statement};
use mtcache_repro::tpcw::datagen::{generate, Scale};
use mtcache_repro::types::{Result, Row, Value};

fn setup() -> (Arc<BackendServer>, Arc<CacheServer>, Arc<Mutex<ReplicationHub>>) {
    let backend = BackendServer::new("backend");
    backend
        .run_script(
            "CREATE TABLE product (p_id INT NOT NULL PRIMARY KEY, p_name VARCHAR, p_price FLOAT, p_category VARCHAR);
             CREATE INDEX ix_product_cat ON product (p_category);
             GRANT SELECT ON product TO app;
             GRANT UPDATE ON product TO app;
             GRANT INSERT ON product TO app;",
        )
        .unwrap();
    let rows: Vec<String> = (1..=5000)
        .map(|i| {
            format!(
                "INSERT INTO product VALUES ({i}, 'product{i}', {}.25, 'cat{}')",
                i % 90,
                i % 12
            )
        })
        .collect();
    backend.run_script(&rows.join(";")).unwrap();
    backend
        .create_procedure(
            "priceBand",
            &["lo", "hi"],
            "SELECT p_id, p_name, p_price FROM product WHERE p_price BETWEEN @lo AND @hi ORDER BY p_id ASC",
        )
        .unwrap();
    backend.analyze();

    let hub = Arc::new(Mutex::new(ReplicationHub::new(backend.db.clone())));
    let cache = CacheServer::create("cache", backend.clone(), hub.clone());
    cache
        .create_cached_view(
            "hot_products",
            "SELECT p_id, p_name, p_price, p_category FROM product WHERE p_id <= 2000",
        )
        .unwrap();
    cache.copy_procedure("priceBand").unwrap();
    (backend, cache, hub)
}

fn sorted(mut rows: Vec<Row>) -> Vec<Row> {
    rows.sort();
    rows
}

#[test]
fn identical_results_for_every_query_shape() {
    let (backend, cache, _hub) = setup();
    let queries = [
        "SELECT p_name FROM product WHERE p_id = 77",
        "SELECT p_id, p_price FROM product WHERE p_id <= 150 ORDER BY p_price DESC, p_id ASC",
        "SELECT p_category, COUNT(*) AS n, AVG(p_price) AS avg_price FROM product GROUP BY p_category ORDER BY p_category ASC",
        "SELECT TOP 7 p_id FROM product WHERE p_category = 'cat3' ORDER BY p_id ASC",
        "SELECT DISTINCT p_category FROM product WHERE p_id <= 1200 ORDER BY p_category ASC",
        "SELECT COUNT(*) AS n FROM product WHERE p_name LIKE '%duct12%'",
        "SELECT p_id FROM product WHERE p_id BETWEEN 1990 AND 2010 ORDER BY p_id ASC",
    ];
    let bconn = Connection::connect_as(backend.clone(), "app");
    let cconn = Connection::connect_as(cache.clone(), "app");
    for q in queries {
        let b = bconn.query(q).unwrap_or_else(|e| panic!("backend `{q}`: {e}"));
        let c = cconn.query(q).unwrap_or_else(|e| panic!("cache `{q}`: {e}"));
        assert_eq!(b.rows, c.rows, "result mismatch for `{q}`");
    }
}

#[test]
fn parameterized_queries_agree_across_the_guard_boundary() {
    let (backend, cache, _hub) = setup();
    let bconn = Connection::connect_as(backend.clone(), "app");
    let cconn = Connection::connect_as(cache.clone(), "app");
    let sql = "SELECT p_id, p_name, p_price, p_category FROM product WHERE p_id <= @v";
    // Values straddling the view boundary (2000), including the exact edge.
    for v in [1i64, 500, 1999, 2000, 2001, 3500, 5000, 9999] {
        let params = Connection::params(&[("v", Value::Int(v))]);
        let b = bconn.query_with(sql, &params).unwrap();
        let c = cconn.query_with(sql, &params).unwrap();
        assert_eq!(
            sorted(b.rows),
            sorted(c.rows),
            "mismatch at @v = {v}"
        );
    }
}

#[test]
fn stored_procedures_agree() {
    let (backend, cache, _hub) = setup();
    let bconn = Connection::connect_as(backend.clone(), "app");
    let cconn = Connection::connect_as(cache.clone(), "app");
    let call = "EXEC priceBand @lo = 10.0, @hi = 30.0";
    let b = bconn.query(call).unwrap();
    let c = cconn.query(call).unwrap();
    assert!(!b.rows.is_empty());
    assert_eq!(b.rows, c.rows);
}

#[test]
fn updates_through_the_cache_are_visible_everywhere_after_sync() {
    let (backend, cache, hub) = setup();
    let cconn = Connection::connect_as(cache.clone(), "app");
    cconn
        .query("UPDATE product SET p_price = 999.5 WHERE p_id = 123")
        .unwrap();
    // Immediately visible on the backend...
    let b = Connection::connect_as(backend.clone(), "app")
        .query("SELECT p_price FROM product WHERE p_id = 123")
        .unwrap();
    assert_eq!(b.rows[0][0], Value::Float(999.5));
    // ...and on the cache after replication catches up.
    hub.lock().pump(1_000_000).unwrap();
    let c = cconn
        .query("SELECT p_price FROM product WHERE p_id = 123")
        .unwrap();
    assert_eq!(c.rows[0][0], Value::Float(999.5));
    assert_eq!(c.metrics.remote_calls, 0, "read served from the cached view");
}

#[test]
fn permission_model_is_shadowed() {
    let (_backend, cache, _hub) = setup();
    let conn = Connection::connect_as(cache, "intruder");
    let err = conn.query("SELECT p_name FROM product WHERE p_id = 1").unwrap_err();
    assert_eq!(err.kind(), "permission");
}

#[test]
fn empty_key_ranges_return_no_rows_on_either_tier() {
    // A range whose low end lies above its high end selects nothing; it
    // used to panic inside `BTreeMap::range`. Covered: clustered seek and
    // secondary-index range seek, each on the cache's view, and on the
    // backend (the range lies outside the view, so the cache forwards it).
    let (backend, _, hub) = setup();
    let cache = CacheServer::create("cache-ranges", backend.clone(), hub);
    cache
        .create_cached_view(
            "most_products",
            "SELECT p_id, p_name, p_price, p_category FROM product WHERE p_id <= 4000",
        )
        .unwrap();
    cache
        .create_index_on_view("cx_most_cat", "most_products", &["p_category".into()])
        .unwrap();
    let queries = [
        ("clustered seek", "SELECT p_id FROM product WHERE p_id >= 10 AND p_id <= 5", 0),
        (
            "index range seek",
            "SELECT p_id FROM product WHERE p_id <= 4000 AND p_category >= 'cat7' AND p_category <= 'cat10'",
            0,
        ),
        ("clustered seek outside the view", "SELECT p_id FROM product WHERE p_id >= 4800 AND p_id <= 4700", 1),
    ];
    let bconn = Connection::connect_as(backend.clone(), "app");
    let cconn = Connection::connect_as(cache, "app");
    for (what, sql, remote_calls) in queries {
        let b = bconn.query(sql).unwrap_or_else(|e| panic!("backend, {what}: {e}"));
        let c = cconn.query(sql).unwrap_or_else(|e| panic!("cache, {what}: {e}"));
        assert!(b.rows.is_empty(), "backend, {what}: {:?}", b.rows);
        assert!(c.rows.is_empty(), "cache, {what}: {:?}", c.rows);
        assert_eq!(c.metrics.remote_calls, remote_calls, "cache, {what}");
    }
}

/// A string literal means the same text on every tier. `t` is a shadow
/// table on the cache (no cached view), so the cache node ships the
/// statement's text to the backend, which lexes it again: a non-ASCII
/// pattern must select on the cache what it selects on the backend.
#[test]
fn a_non_ascii_literal_selects_the_same_rows_on_every_tier() {
    let backend = BackendServer::new("backend");
    backend
        .run_script(
            "CREATE TABLE t (id INT NOT NULL PRIMARY KEY, name VARCHAR);
             INSERT INTO t VALUES (1, 'café au lait');
             INSERT INTO t VALUES (2, 'cafe noir')",
        )
        .unwrap();
    let hub = Arc::new(Mutex::new(ReplicationHub::new(backend.db.clone())));
    let cache = CacheServer::create("cache", backend.clone(), hub);
    let sql = "SELECT id, name FROM t WHERE name LIKE 'café%'";
    let b = Connection::connect(backend).query(sql).unwrap();
    let c = Connection::connect(cache).query(sql).unwrap();
    let expected = Row::new(vec![Value::Int(1), Value::Str("café au lait".into())]);
    assert_eq!(b.rows, vec![expected]);
    assert_eq!(c.rows, b.rows);
    assert_eq!(c.metrics.remote_calls, 1, "the cache ships the text to the backend");
}

/// Only `dbo` grants, on every tier. A principal that grants itself access
/// is refused with the same error kind by the backend and by a cache server,
/// and the refused grant gives it nothing; `dbo` still grants on both.
#[test]
fn only_dbo_grants_on_the_backend_and_on_a_cache() {
    let backend = BackendServer::new("backend");
    backend
        .run_script(
            "CREATE TABLE t (id INT NOT NULL PRIMARY KEY, name VARCHAR);
             INSERT INTO t VALUES (1, 'a')",
        )
        .unwrap();
    let hub = Arc::new(Mutex::new(ReplicationHub::new(backend.db.clone())));
    let cache = CacheServer::create("cache", backend.clone(), hub);
    let (grant, read) = ("GRANT SELECT ON t TO app", "SELECT id FROM t WHERE id = 1");
    let app_on = |tier: &str| match tier {
        "backend" => Connection::connect_as(backend.clone(), "app"),
        _ => Connection::connect_as(cache.clone(), "app"),
    };
    for tier in ["backend", "cache"] {
        let err = app_on(tier).query(grant).expect_err(tier);
        assert_eq!(err.kind(), "permission", "{tier}: {err}");
        let err = app_on(tier).query(read).expect_err(tier);
        assert_eq!(err.kind(), "permission", "{tier}: the refused grant took effect");
    }
    backend.run_script(grant).unwrap();
    Connection::connect(cache.clone()).query(grant).unwrap();
    for tier in ["backend", "cache"] {
        let r = app_on(tier).query(read).unwrap_or_else(|e| panic!("{tier}: {e}"));
        assert_eq!(r.rows, vec![Row::new(vec![Value::Int(1)])], "{tier}");
    }
}

/// A grant made through a cache is made on the backend: the cache forwards
/// it, so what `app` may read through the cache it may read on the backend
/// too, and the grant reaches every other cache the way the backend's
/// permissions do.
#[test]
fn a_grant_through_a_cache_is_the_backend_s_grant() {
    let backend = BackendServer::new("backend");
    backend
        .run_script(
            "CREATE TABLE t (id INT NOT NULL PRIMARY KEY, name VARCHAR);
             INSERT INTO t VALUES (1, 'a')",
        )
        .unwrap();
    let hub = Arc::new(Mutex::new(ReplicationHub::new(backend.db.clone())));
    let cache = CacheServer::create("cache", backend.clone(), hub);
    let read = "SELECT id FROM t WHERE id = 1";
    let app_backend = Connection::connect_as(backend.clone(), "app");
    assert_eq!(app_backend.query(read).unwrap_err().kind(), "permission");
    Connection::connect(cache.clone()).query("GRANT SELECT ON t TO app").unwrap();
    let expected = vec![Row::new(vec![Value::Int(1)])];
    let r = app_backend.query(read).expect("the backend serves the grant made through the cache");
    assert_eq!(r.rows, expected);
    let r = Connection::connect_as(cache, "app").query(read).unwrap();
    assert_eq!(r.rows, expected);
}

/// A dropped object's grants go with it: a table or a view re-created
/// under the old name starts with none, on the backend and on a cache whose
/// shadow copies the backend's grants.
#[test]
fn a_dropped_object_takes_its_grants_with_it() {
    let backend = BackendServer::new("backend");
    backend
        .run_script(
            "CREATE TABLE t (id INT NOT NULL PRIMARY KEY, name VARCHAR);
             INSERT INTO t VALUES (1, 'a');
             CREATE VIEW v AS SELECT id FROM t",
        )
        .unwrap();
    let hub = Arc::new(Mutex::new(ReplicationHub::new(backend.db.clone())));
    let cache = CacheServer::create("cache", backend.clone(), hub);
    let dbo = Connection::connect(cache.clone());
    for script in [
        "GRANT SELECT ON t TO app",
        "GRANT SELECT ON v TO app",
        "DROP VIEW v",
        "DROP TABLE t",
        "CREATE TABLE t (id INT NOT NULL PRIMARY KEY, secret VARCHAR)",
        "INSERT INTO t VALUES (1, 's')",
        "CREATE VIEW v AS SELECT secret FROM t",
    ] {
        dbo.query(script).unwrap();
    }
    for read in ["SELECT secret FROM t WHERE id = 1", "SELECT secret FROM v"] {
        for tier in [ServerHandle::from(backend.clone()), ServerHandle::from(cache.clone())] {
            let err = Connection::connect_as(tier, "app").query(read).unwrap_err();
            assert_eq!(err.kind(), "permission", "{read}: {err}");
        }
    }
}

/// Unary minus overflows like the binary operators: `-@x` with `@x` the
/// smallest integer is an execution error — not a panic, not a wrapped
/// value — and the same one on the backend and on a cache that answers from
/// its own cached view.
#[test]
fn negating_the_smallest_integer_is_the_same_overflow_error_on_every_tier() {
    let backend = BackendServer::new("backend");
    backend
        .run_script(
            "CREATE TABLE t (id INT NOT NULL PRIMARY KEY, name VARCHAR);
             INSERT INTO t VALUES (1, 'a')",
        )
        .unwrap();
    let hub = Arc::new(Mutex::new(ReplicationHub::new(backend.db.clone())));
    let cache = CacheServer::create("cache", backend.clone(), hub);
    cache.create_cached_view("cv_t", "SELECT id, name FROM t").unwrap();
    let sql = "SELECT -@x AS n FROM t WHERE id = 1";
    let min = Connection::params(&[("x", Value::Int(i64::MIN))]);
    let cache_conn = Connection::connect(cache);
    let b = Connection::connect(backend).query_with(sql, &min).expect_err("backend");
    let c = cache_conn.query_with(sql, &min).expect_err("cache");
    assert_eq!(b.kind(), "execution", "{b}");
    assert_eq!((c.kind(), c.to_string()), (b.kind(), b.to_string()));
    // The cache evaluated it itself: a negatable value is answered locally.
    let five = Connection::params(&[("x", Value::Int(5))]);
    let r = cache_conn.query_with(sql, &five).unwrap();
    assert_eq!(r.rows, vec![Row::new(vec![Value::Int(-5)])]);
    assert_eq!(r.metrics.remote_calls, 0);
}

/// BETWEEN means the SQL standard's definition on every tier, NULL bounds
/// included: `id NOT BETWEEN @a AND @b` is `id < @a OR id > @b`, so with
/// `@b` NULL it selects the rows below `@a`; and `id BETWEEN 10 AND NULL`
/// is `id >= 10 AND id <= NULL`, FALSE wherever `id >= 10` is FALSE. The
/// cache answers both from its own cached view.
#[test]
fn between_with_a_null_bound_means_its_comparisons_on_every_tier() {
    let backend = BackendServer::new("backend");
    let inserts: Vec<String> = (0..20).map(|i| format!("INSERT INTO t VALUES ({i}, 'n{i}')")).collect();
    backend
        .run_script(&format!(
            "CREATE TABLE t (id INT NOT NULL PRIMARY KEY, name VARCHAR); {}",
            inserts.join(";")
        ))
        .unwrap();
    let hub = Arc::new(Mutex::new(ReplicationHub::new(backend.db.clone())));
    let cache = CacheServer::create("cache", backend.clone(), hub);
    cache.create_cached_view("cv_t", "SELECT id, name FROM t").unwrap();
    let outside = "SELECT id FROM t WHERE id NOT BETWEEN @a AND @b ORDER BY id ASC";
    let bounds = Connection::params(&[("a", Value::Int(10)), ("b", Value::Null)]);
    let below: Vec<Row> = (0..10).map(|i| Row::new(vec![Value::Int(i)])).collect();
    let inside = "SELECT id, id BETWEEN 10 AND NULL AS inside FROM t WHERE id <= 1 ORDER BY id ASC";
    let falses: Vec<Row> = (0..2)
        .map(|i| Row::new(vec![Value::Int(i), Value::Bool(false)]))
        .collect();
    for tier in [ServerHandle::from(backend), ServerHandle::from(cache)] {
        let conn = Connection::connect(tier);
        let r = conn.query_with(outside, &bounds).unwrap();
        assert_eq!((r.rows, r.metrics.remote_calls), (below.clone(), 0), "{outside}");
        let r = conn.query(inside).unwrap();
        assert_eq!((r.rows, r.metrics.remote_calls), (falses.clone(), 0), "{inside}");
    }
}

/// A ChoosePlan's branches may be built differently — here the guarded
/// branch is an index nested-loop join (item columns first) and the fallback
/// a hash join with its sides swapped (author columns first) — but they feed
/// one `Project`/`Sort`/`Top`, so every branch must deliver the union's
/// column order. The fleet is the benchmark's: `cache0` owns `item` ids up
/// to 500 and `author`, `cache1` the ids above.
#[test]
fn choose_plan_branches_agree_on_column_order() {
    let backend = BackendServer::new("backend");
    let scale = Scale {
        items: 1000,
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
                    &format!("SELECT {item_cols} FROM item WHERE i_id <= 500"),
                )?;
                cache.create_cached_view("cv_author", "SELECT a_id, a_fname, a_lname FROM author")
            } else {
                cache.create_cached_view(
                    "cv_item_hi",
                    &format!("SELECT {item_cols} FROM item WHERE i_id > 500"),
                )
            }
        }),
    )
    .unwrap();
    let join = "SELECT TOP 20 i_id, i_title, a_lname FROM item, author \
                WHERE i_a_id = a_id AND i_id >= @p0 AND i_id < @p1 AND i_srp >= @p2 \
                ORDER BY i_id ASC";
    let bconn = Connection::connect(backend.clone());
    for lo in [100, 480, 600, 882] {
        let params = Connection::params(&[
            ("p0", Value::Int(lo)),
            ("p1", Value::Int(lo + 50)),
            ("p2", Value::Float(0.25)),
        ]);
        let want = bconn.query_with(join, &params).unwrap();
        assert_eq!(want.rows.len(), 20);
        assert_eq!(want.rows[0][0], Value::Int(lo), "sorted by i_id");
        for node in fleet.nodes() {
            let got = Connection::connect(node.clone())
                .query_with(join, &params)
                .unwrap();
            assert_eq!(got.rows, want.rows, "{} at @p0 = {lo}", node.name());
            assert_eq!(got.schema, want.schema, "{} at @p0 = {lo}", node.name());
        }
    }
}

/// The dialect census: one statement of every kind, each with a read that
/// shows its effect. [`census_kind`] lists the kinds.
const CENSUS: [(&str, &str); 12] = [
    ("SELECT cname FROM customer WHERE cid = 7", "SELECT COUNT(*) AS n FROM customer"),
    ("INSERT INTO customer VALUES (100, 'c100')", "SELECT cname FROM customer WHERE cid = 100"),
    ("UPDATE customer SET cname = 'new' WHERE cid = 7", "SELECT cname FROM customer WHERE cid = 7"),
    ("DELETE FROM customer WHERE cid = 8", "SELECT COUNT(*) AS n FROM customer"),
    (
        "CREATE TABLE audit (id INT NOT NULL PRIMARY KEY, note VARCHAR)",
        "SELECT COUNT(*) AS n FROM audit",
    ),
    (
        "CREATE INDEX ix_customer_cname ON customer (cname)",
        "SELECT cid FROM customer WHERE cname = 'c5'",
    ),
    (
        "CREATE VIEW low AS SELECT cid, cname FROM customer WHERE cid <= 5",
        "SELECT cname FROM low WHERE cid = 3",
    ),
    (
        "CREATE MATERIALIZED VIEW cust_mv AS SELECT cid, cname FROM customer WHERE cid <= 10",
        "SELECT cname FROM cust_mv WHERE cid = 3",
    ),
    ("DROP TABLE customer", "SELECT COUNT(*) AS n FROM customer"),
    ("DROP VIEW cust_v", "SELECT cname FROM cust_v WHERE cid = 3"),
    ("GRANT INSERT ON customer TO app", "INSERT INTO customer VALUES (101, 'c101')"),
    ("EXEC rename @id = 7", "SELECT cname FROM customer WHERE cid = 7"),
];

/// The kind a census statement stands for: the keywords it starts with.
/// The match has no wildcard, so a new `Statement` variant does not compile
/// until it is listed here — and then needs its line in [`CENSUS`].
fn census_kind(stmt: &Statement) -> &'static str {
    match stmt {
        Statement::Select(_) => "SELECT",
        Statement::Insert { .. } => "INSERT",
        Statement::Update { .. } => "UPDATE",
        Statement::Delete { .. } => "DELETE",
        Statement::CreateTable { .. } => "CREATE TABLE",
        Statement::CreateIndex { .. } => "CREATE INDEX",
        Statement::CreateView {
            materialized: false,
            ..
        } => "CREATE VIEW",
        Statement::CreateView {
            materialized: true,
            ..
        } => "CREATE MATERIALIZED VIEW",
        Statement::DropTable { .. } => "DROP TABLE",
        Statement::DropView { .. } => "DROP VIEW",
        Statement::Grant { .. } => "GRANT",
        Statement::Exec { .. } => "EXEC",
    }
}

/// One census fixture: a backend holding `customer` (20 rows), the virtual
/// view `cust_v` over it, the procedure `rename` that writes it, and `app`'s
/// SELECT and UPDATE grants on it — reached through `tier`: the backend
/// itself, a cache server that holds a copy of `rename`, or node `cache0`
/// of a two-node fleet, which holds none. Each cache node has a cached view
/// of `customer`'s first ten rows.
struct CensusTier {
    backend: Arc<BackendServer>,
    hub: Arc<Mutex<ReplicationHub>>,
    server: ServerHandle,
    _fleet: Option<Arc<Fleet>>,
}

impl CensusTier {
    fn new(tier: &str) -> CensusTier {
        let backend = BackendServer::new("backend");
        backend
            .run_script(
                "CREATE TABLE customer (cid INT NOT NULL PRIMARY KEY, cname VARCHAR);
                 CREATE VIEW cust_v AS SELECT cid, cname FROM customer;
                 GRANT SELECT ON customer TO app;
                 GRANT UPDATE ON customer TO app;",
            )
            .unwrap();
        let rows: Vec<String> = (1..=20)
            .map(|i| format!("INSERT INTO customer VALUES ({i}, 'c{i}')"))
            .collect();
        backend.run_script(&rows.join(";")).unwrap();
        backend
            .create_procedure("rename", &["id"], "UPDATE customer SET cname = 'new' WHERE cid = @id")
            .unwrap();
        backend.analyze();
        let hub = Arc::new(Mutex::new(ReplicationHub::new(backend.db.clone())));
        let provision = |cache: &CacheServer| {
            cache.create_cached_view("cv_customer", "SELECT cid, cname FROM customer WHERE cid <= 10")
        };
        let (server, fleet): (ServerHandle, _) = match tier {
            "backend" => (backend.clone().into(), None),
            "cache" => {
                let cache = CacheServer::create("cache", backend.clone(), hub.clone());
                provision(&cache).unwrap();
                cache.copy_procedure("rename").unwrap();
                (cache.into(), None)
            }
            _ => {
                let config = FleetConfig {
                    nodes: 2,
                    ..FleetConfig::default()
                };
                let fleet = Fleet::create(backend.clone(), hub.clone(), config, Box::new(provision))
                    .unwrap();
                (fleet.nodes()[0].clone().into(), Some(fleet))
            }
        };
        CensusTier {
            backend,
            hub,
            server,
            _fleet: fleet,
        }
    }

    /// Replicates every committed transaction to every cache node.
    fn drain(&self) {
        while !self.hub.lock().drained() {
            self.hub.lock().pump(self.backend.clock.now_ms()).unwrap();
        }
    }

    /// What the backend holds: each table with its rows and indexes, each
    /// view, each grant.
    fn backend_state(&self) -> String {
        let db = self.backend.db.read();
        let tables: Vec<(&str, usize)> = db.tables().map(|t| (t.name(), t.row_count())).collect();
        let views: Vec<(&str, bool)> = db
            .catalog
            .views()
            .map(|v| (v.name.as_str(), v.materialized))
            .collect();
        let grants: Vec<String> = db
            .catalog
            .grants()
            .map(|(principal, object, p)| format!("{} ON {object} TO {principal}", p.sql()))
            .collect();
        format!("{tables:?}\n{:?}\n{views:?}\n{grants:?}", db.index_metas())
    }
}

/// A statement's rows, or the kind of its error.
fn outcome(result: Result<QueryResult>) -> std::result::Result<Vec<Row>, &'static str> {
    result.map(|r| r.rows).map_err(|e| e.kind())
}

/// Transparency, statement kind by statement kind: every kind the dialect
/// has, run as `dbo` and as `app` on a fresh fixture through the backend, a
/// cache server and a fleet node, answers with the same rows or the same
/// error kind, leaves the backend in the same state, and is followed by a
/// read that answers the same — so a catalog statement a cache forwards is
/// one its node then plans against.
#[test]
fn every_statement_kind_means_the_same_on_every_tier() {
    let kinds: std::collections::BTreeSet<&str> = CENSUS
        .iter()
        .map(|(sql, _)| {
            let kind = census_kind(&parse_statement(sql).unwrap());
            assert!(sql.starts_with(kind), "`{sql}` stands for {kind}");
            kind
        })
        .collect();
    assert_eq!(kinds.len(), CENSUS.len(), "one statement per kind");
    let mut disagreements = Vec::new();
    for (sql, then) in CENSUS {
        for principal in ["dbo", "app"] {
            let mut backend_saw = None;
            for tier in ["backend", "cache", "fleet"] {
                let fixture = CensusTier::new(tier);
                let conn = Connection::connect_as(fixture.server.clone(), principal);
                let first = outcome(conn.query(sql));
                fixture.drain();
                let seen = (first, outcome(conn.query(then)), fixture.backend_state());
                match &backend_saw {
                    None => backend_saw = Some(seen),
                    Some(want) if &seen != want => disagreements.push(format!(
                        "{tier} as {principal}: `{sql}`\n  backend: {want:?}\n  {tier}: {seen:?}"
                    )),
                    Some(_) => {}
                }
            }
        }
    }
    assert!(disagreements.is_empty(), "{}", disagreements.join("\n"));
}

/// A grant made on the backend after a cache was created reaches the
/// writes `app` sends through the cache: the backend authorizes them.
#[test]
fn a_backend_grant_made_after_the_cache_reaches_its_forwarded_writes() {
    let fixture = CensusTier::new("cache");
    let insert = "INSERT INTO customer VALUES (100, 'c100')";
    let app = Connection::connect_as(fixture.server.clone(), "app");
    assert_eq!(app.query(insert).unwrap_err().kind(), "permission");
    fixture.backend.run_script("GRANT INSERT ON customer TO app").unwrap();
    let r = app.query(insert).expect("the backend's grant decides");
    assert_eq!(r.metrics.local_rows, 1);
    let r = Connection::connect_as(fixture.backend.clone(), "app")
        .query("SELECT cname FROM customer WHERE cid = 100")
        .unwrap();
    assert_eq!(r.rows, vec![Row::new(vec![Value::str("c100")])]);
}

/// `EXPLAIN UPDATE` through a cache is the backend's: the cache forwards
/// the statement whole, so the backend's plan is the one that runs.
#[test]
fn explain_of_a_forwarded_update_is_the_backend_s() {
    let (backend, cache, _hub) = setup();
    for sql in [
        "UPDATE product SET p_price = 1.5 WHERE p_category = 'cat3'",
        "DELETE FROM product WHERE p_id = 17",
    ] {
        let want = backend.explain(sql).unwrap();
        assert!(want.contains("estimated cost"), "{want}");
        assert_eq!(cache.explain(sql).unwrap(), want, "{sql}");
    }
}

/// `CREATE INDEX` through a cache is made on the backend and re-shadowed on
/// the node: its shadow lists the index, and a plan cached before it is
/// rebuilt.
#[test]
fn create_index_through_a_cache_reaches_its_shadow_and_its_plans() {
    let (backend, cache, _hub) = setup();
    let conn = Connection::connect(cache.clone());
    let read = "SELECT p_id FROM product WHERE p_name = 'product4321'";
    let want = vec![Row::new(vec![Value::Int(4321)])];
    for _ in 0..2 {
        assert_eq!(conn.query(read).unwrap().rows, want);
    }
    let planned = |cache: &CacheServer| {
        let s = cache.plan_cache.stats();
        (s.insertions, s.invalidations)
    };
    assert_eq!(planned(&cache), (1, 0));
    conn.query("CREATE INDEX ix_product_name ON product (p_name)").unwrap();
    assert!(backend.db.read().index("ix_product_name").is_some());
    let shadow = cache.db.read();
    let indexes: Vec<&str> = shadow.indexes_of("product").map(|ix| ix.name()).collect();
    assert_eq!(indexes, ["ix_product_cat", "ix_product_name"]);
    assert!(shadow.table_ref("product").unwrap().is_shadow());
    drop(shadow);
    assert_eq!(conn.query(read).unwrap().rows, want);
    assert_eq!(planned(&cache), (2, 1), "the plan is rebuilt after CREATE INDEX");
}
