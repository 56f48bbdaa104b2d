//! The paper's core claim: caching is *transparent*. The same application
//! code, run against the backend and against a cache server, produces the
//! same answers — queries, parameterized queries, stored procedures and
//! updates included.

use std::sync::Arc;

use mtc_util::sync::Mutex;

use mtcache_repro::cache::{BackendServer, CacheServer, Connection, Fleet, FleetConfig};
use mtcache_repro::replication::ReplicationHub;
use mtcache_repro::tpcw::datagen::{generate, Scale};
use mtcache_repro::types::{Row, Value};

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
