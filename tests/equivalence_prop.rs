//! Property-based equivalence: for randomized queries and parameter values,
//! the cache server answers exactly what the backend answers — the
//! observable definition of transparency.
//!
//! It also pins the executor itself: the compiled streaming executor
//! (`execute`) returns exactly what the naive reference in `oracle/`
//! returns from the same physical plan — same rows, same order — across
//! every query shape (joins, outer joins, GROUP BY, TOP, DISTINCT, scalar
//! functions/CASE, and ChoosePlan dynamic plans on both branches).
//! Access-path leaves pruned to the columns a read needs, and projection
//! chains folded into one operator, are held to the same answers.

mod oracle;

use std::ops::Bound;
use std::sync::Arc;

use mtc_util::check::{self, Config};
use mtc_util::rng::{Rng, StdRng};
use mtc_util::sync::Mutex;

use mtcache_repro::cache::{BackendServer, CacheServer, Connection};
use mtcache_repro::engine::{
    bind_select, execute, optimize, Bindings, ExecContext, OptimizerOptions, QueryResult,
    RemoteExecutor,
};
use mtcache_repro::replication::ReplicationHub;
use mtcache_repro::sql::{parse_statement, Prepared, Statement};
use mtcache_repro::storage::{Database, DbSnapshot, Index, SnapshotDb, Table};
use mtcache_repro::types::{Column, DataType, Row, Schema, Value};

const N_ROWS: i64 = 3000;
const VIEW_BOUND: i64 = 1000;

fn setup() -> (Arc<BackendServer>, Arc<CacheServer>) {
    let backend = BackendServer::new("backend");
    backend
        .run_script(
            "CREATE TABLE t (id INT NOT NULL PRIMARY KEY, grp INT, val FLOAT, name VARCHAR);
             CREATE INDEX ix_t_grp ON t (grp);",
        )
        .unwrap();
    let rows: Vec<String> = (1..=N_ROWS)
        .map(|i| {
            format!(
                "INSERT INTO t VALUES ({i}, {}, {}.5, 'name{}')",
                i % 17,
                i % 83,
                i % 29
            )
        })
        .collect();
    backend.run_script(&rows.join(";")).unwrap();
    backend.analyze();
    let hub = Arc::new(Mutex::new(ReplicationHub::new(backend.db.clone())));
    let cache = CacheServer::create("cache", backend.clone(), hub);
    cache
        .create_cached_view(
            "t_head",
            &format!("SELECT id, grp, val, name FROM t WHERE id <= {VIEW_BOUND}"),
        )
        .unwrap();
    (backend, cache)
}

fn sorted(mut rows: Vec<Row>) -> Vec<Row> {
    rows.sort();
    rows
}

/// `sql` answered three ways: by the cache as a client sends it (predicate
/// literals lifted into bindings, the template's dynamic plan), by the
/// cache under the literal plan (`Prepared::new` keeps the text as it is)
/// and by the backend. Returns `[lifted, literal, backend]`, rows sorted.
fn three_ways(backend: &Arc<BackendServer>, cache: &Arc<CacheServer>, sql: &str) -> [Vec<Row>; 3] {
    let lifted = Connection::connect(cache.clone())
        .query(sql)
        .unwrap_or_else(|e| panic!("lifted `{sql}`: {e}"));
    let literal = cache
        .execute_prepared(&Prepared::new(sql).unwrap(), &Bindings::new(), "dbo")
        .unwrap_or_else(|e| panic!("literal `{sql}`: {e}"));
    let truth = Connection::connect(backend.clone())
        .query(sql)
        .unwrap_or_else(|e| panic!("backend `{sql}`: {e}"));
    [lifted, literal, truth].map(|r| sorted(r.rows))
}

fn assert_three_ways_agree(backend: &Arc<BackendServer>, cache: &Arc<CacheServer>, sql: &str) {
    let [lifted, literal, truth] = three_ways(backend, cache, sql);
    assert_eq!(lifted, truth, "lifted form differs from the backend: {sql}");
    assert_eq!(
        literal, truth,
        "literal plan differs from the backend: {sql}"
    );
}

/// A randomized single-table query over the fixture schema (old
/// `query_strategy`).
fn gen_query(rng: &mut StdRng) -> String {
    let col = *rng.choose(&["id", "grp", "val"]).unwrap();
    let op = *rng.choose(&["<=", "<", "=", ">=", ">", "<>"]).unwrap();
    let bound = rng.gen_range(0i64..(N_ROWS + 500));
    format!("SELECT id, grp, val FROM t WHERE {col} {op} {bound}")
}

#[test]
fn random_range_queries_agree() {
    check::run(
        // Each case runs two full queries over 3000 rows.
        &Config::cases(24),
        "random_range_queries_agree",
        gen_query,
        |sql| {
            let (backend, cache) = setup();
            assert_three_ways_agree(&backend, &cache, sql);
            assert_eq!(cache.stats.snapshot().auto_parameterized, 1, "{sql}");
        },
    );
}

#[test]
fn random_parameters_agree_across_guard() {
    check::run(
        &Config::cases(24),
        "random_parameters_agree_across_guard",
        |rng| rng.gen_range(0i64..(N_ROWS + 500)),
        |&v| {
            let (backend, cache) = setup();
            let sql = "SELECT id, grp, val, name FROM t WHERE id <= @v";
            let params = Connection::params(&[("v", Value::Int(v))]);
            let b = Connection::connect(backend).query_with(sql, &params).unwrap();
            let c_res = Connection::connect(cache.clone())
                .query_with(sql, &params)
                .unwrap();
            assert_eq!(sorted(b.rows), sorted(c_res.rows), "@v = {v}");
            // The routing decision itself must respect the guard.
            if v <= VIEW_BOUND {
                assert_eq!(c_res.metrics.remote_calls, 0, "@v = {v} should stay local");
            } else {
                assert!(c_res.metrics.remote_calls > 0, "@v = {v} must go remote");
            }
        },
    );
}

#[test]
fn random_conjunctions_agree() {
    check::run(
        &Config::cases(24),
        "random_conjunctions_agree",
        |rng| {
            (
                rng.gen_range(0i64..N_ROWS),
                rng.gen_range(1i64..800),
                rng.gen_range(0i64..17),
            )
        },
        |&(lo, width, grp)| {
            let (backend, cache) = setup();
            let sql = format!(
                "SELECT id, val FROM t WHERE id >= {lo} AND id <= {} AND grp = {grp}",
                lo + width
            );
            assert_three_ways_agree(&backend, &cache, &sql);
        },
    );
}

/// The typed fixture of [`lifted_and_literal_comparisons_agree_across_types`]:
/// a timestamp, a float, an int and a string column (with quotes and NULLs
/// in it), the first 400 ids cached.
fn typed_setup() -> (Arc<BackendServer>, Arc<CacheServer>) {
    let backend = BackendServer::new("backend");
    backend
        .run_script(
            "CREATE TABLE ev (id INT NOT NULL PRIMARY KEY, at TIMESTAMP, score FLOAT, qty INT, tag VARCHAR);
             CREATE INDEX ix_ev_qty ON ev (qty);",
        )
        .unwrap();
    let rows: Vec<String> = (1..=800i64)
        .map(|i| {
            let tag = match i % 7 {
                0 => "NULL".to_string(),
                1 => "'it''s'".to_string(),
                k => format!("'tag{k}'"),
            };
            format!(
                "INSERT INTO ev VALUES ({i}, {}, {}.25, {}, {tag})",
                1_000 * (i % 50),
                (i % 40) - 20,
                (i % 11) - 5
            )
        })
        .collect();
    backend.run_script(&rows.join(";")).unwrap();
    backend.analyze();
    let hub = Arc::new(Mutex::new(ReplicationHub::new(backend.db.clone())));
    let cache = CacheServer::create("cache", backend.clone(), hub);
    cache
        .create_cached_view(
            "ev_head",
            "SELECT id, at, score, qty, tag FROM ev WHERE id <= 400",
        )
        .unwrap();
    (backend, cache)
}

/// One comparison of a random column with a literal of a random type —
/// int against float and back, string against timestamp, negative numbers,
/// quoted strings — in every predicate form whose operands are lifted.
fn gen_typed_predicate(rng: &mut StdRng) -> String {
    let col = *rng.choose(&["id", "at", "score", "qty", "tag"]).unwrap();
    let literal = |rng: &mut StdRng| match rng.gen_range(0..6) {
        0 => rng.gen_range(-8i64..900).to_string(),
        1 => format!("{}.25", rng.gen_range(-20i64..20)),
        2 => format!("{}.0", rng.gen_range(-5i64..400)),
        3 => format!("{}", 1_000 * rng.gen_range(0i64..50)),
        4 => "'it''s'".to_string(),
        _ => format!("'tag{}'", rng.gen_range(0..8)),
    };
    let (a, b, c) = (literal(rng), literal(rng), literal(rng));
    match rng.gen_range(0..4) {
        0 => {
            let op = *rng
                .choose(&["=", "<>", "!=", "<", "<=", ">", ">="])
                .unwrap();
            format!("{col} {op} {a}")
        }
        1 => format!("{col} BETWEEN {a} AND {b}"),
        2 => format!("{col} NOT IN ({a}, {b}, {c})"),
        _ => format!("{col} IN ({a}, {b})"),
    }
}

#[test]
fn lifted_and_literal_comparisons_agree_across_types() {
    let (backend, cache) = typed_setup();
    check::run(
        &Config::cases(96),
        "lifted_and_literal_comparisons_agree_across_types",
        |rng| {
            let bound = rng.gen_range(0i64..900);
            let op = *rng.choose(&["<=", "<", "=", ">", ">="]).unwrap();
            format!(
                "SELECT id, at, score, qty, tag FROM ev WHERE id {op} {bound} AND {}",
                gen_typed_predicate(rng)
            )
        },
        |sql| assert_three_ways_agree(&backend, &cache, sql),
    );
    // Every case was a raw-text miss that resolved to a template, and there
    // are far fewer templates than cases.
    let stats = cache.stats.snapshot();
    assert_eq!(stats.auto_parameterized, 96);
    assert!(stats.prepares < 96, "{} prepares", stats.prepares);
    // DML: the lifted and the literal form of an UPDATE write the same value
    // (coerced to the column's type either way).
    let written = |column: &str, id: usize| {
        let sql = format!("SELECT {column} FROM ev WHERE id = {id}");
        Connection::connect(backend.clone())
            .query(&sql)
            .unwrap()
            .rows
    };
    for (i, (column, value)) in [
        ("qty", "-3"),
        ("score", "7"),
        ("tag", "'o''k'"),
        ("at", "5"),
    ]
    .into_iter()
    .enumerate()
    {
        let (lifted_row, literal_row) = (10 + i, 110 + i);
        Connection::connect(cache.clone())
            .query(&format!(
                "UPDATE ev SET {column} = {value} WHERE id = {lifted_row}"
            ))
            .unwrap();
        let literal = Prepared::new(&format!(
            "UPDATE ev SET {column} = {value} WHERE id = {literal_row}"
        ));
        cache
            .execute_prepared(&literal.unwrap(), &Bindings::new(), "dbo")
            .unwrap();
        assert_eq!(
            written(column, lifted_row),
            written(column, literal_row),
            "SET {column} = {value}"
        );
    }
}

#[test]
fn aggregates_agree() {
    check::run(
        &Config::cases(17),
        "aggregates_agree",
        |rng| rng.gen_range(0i64..17),
        |&grp| {
            let (backend, cache) = setup();
            let sql = format!(
                "SELECT COUNT(*) AS n, SUM(val) AS s, MIN(id) AS lo, MAX(id) AS hi FROM t WHERE grp = {grp}"
            );
            assert_three_ways_agree(&backend, &cache, &sql);
        },
    );
}

// ---------------------------------------------------------------------------
// Internal equivalence: compiled streaming executor vs the naive oracle.
//
// `execute` (compile + stream) must produce exactly the rows `oracle::run`
// produces — same rows, same order — from the *same* physical plan. The
// order is the executor's contract: first-appearance groups and DISTINCT,
// index order for index seeks, right-unmatched rows last.
// ---------------------------------------------------------------------------

/// Smaller two-table database for executor-level shape tests: `t` as in
/// [`setup`] but 600 rows, plus `u (uid PK, t_grp, label)` whose `t_grp`
/// values cover only some of `t.grp` (and include values `t` lacks), so
/// outer joins exercise null extension in both directions.
fn join_db() -> Arc<BackendServer> {
    let backend = BackendServer::new("exec");
    backend
        .run_script(
            "CREATE TABLE t (id INT NOT NULL PRIMARY KEY, grp INT, val FLOAT, name VARCHAR);
             CREATE INDEX ix_t_grp ON t (grp);
             CREATE TABLE u (uid INT NOT NULL PRIMARY KEY, t_grp INT, label VARCHAR);",
        )
        .unwrap();
    let rows: Vec<String> = (1..=600i64)
        .map(|i| {
            format!(
                "INSERT INTO t VALUES ({i}, {}, {}.5, 'name{}')",
                i % 17,
                i % 83,
                i % 29
            )
        })
        .collect();
    backend.run_script(&rows.join(";")).unwrap();
    let urows: Vec<String> = (0..40i64)
        .map(|i| format!("INSERT INTO u VALUES ({i}, {}, 'label{}')", i % 23, i % 7))
        .collect();
    backend.run_script(&urows.join(";")).unwrap();
    backend.analyze();
    backend
}

/// Parses, binds, and optimizes `sql` against `db`, then runs the single
/// resulting physical plan through the executor and the oracle.
fn both_ways(
    db: &Database,
    sql: &str,
    params: &Bindings,
    remote: Option<&dyn RemoteExecutor>,
) -> (QueryResult, QueryResult) {
    let Statement::Select(sel) = parse_statement(sql).unwrap() else {
        panic!("not a SELECT: {sql}");
    };
    let options = OptimizerOptions::default();
    let plan = bind_select(&sel, db).unwrap();
    let opt = optimize(plan, db, &options).unwrap();
    let ctx = ExecContext {
        db,
        remote,
        params,
        work: &options.cost,
        parallel: None,
    };
    let streamed = execute(&opt.physical, &ctx).unwrap();
    let reference = oracle::run(&opt.physical, &ctx).unwrap();
    (streamed, reference)
}

fn assert_equivalent(sql: &str, streamed: &QueryResult, reference: &QueryResult) {
    assert_eq!(streamed.schema, reference.schema, "schema differs: {sql}");
    assert_eq!(streamed.rows, reference.rows, "rows differ: {sql}");
    // The executor materializes the final rows exactly once, at the client
    // boundary: the volume it charges is the result's.
    assert_eq!(
        streamed.metrics.bytes_materialized,
        streamed.rows.iter().map(Row::estimated_width).sum::<u64>(),
        "boundary materialization volume differs: {sql}"
    );
}

/// A randomized query spanning every shape the executor supports: inner and
/// outer joins, GROUP BY aggregates with HAVING, TOP, DISTINCT, and
/// CASE/scalar-function projections.
fn gen_shape(rng: &mut StdRng) -> String {
    let bound = rng.gen_range(0i64..700);
    let grp = rng.gen_range(0i64..17);
    let top = rng.gen_range(1i64..40);
    match rng.gen_range(0u64..8) {
        0 => format!(
            "SELECT t.id, t.grp, u.label FROM t INNER JOIN u ON t.grp = u.t_grp \
             WHERE t.id <= {bound} ORDER BY t.id ASC, u.label ASC"
        ),
        1 => format!(
            "SELECT t.id, u.uid FROM t LEFT JOIN u ON t.grp = u.t_grp \
             WHERE t.id <= {bound} ORDER BY t.id ASC, u.uid ASC"
        ),
        2 => format!(
            "SELECT u.uid, t.id FROM t RIGHT JOIN u ON t.grp = u.t_grp \
             WHERE u.uid <= {top} ORDER BY u.uid ASC, t.id ASC"
        ),
        3 => format!(
            "SELECT t.id, u.uid FROM t FULL JOIN u ON t.grp = u.t_grp \
             ORDER BY t.id ASC, u.uid ASC"
        ),
        4 => format!(
            "SELECT grp, COUNT(*) AS n, SUM(val) AS s, MIN(id) AS lo FROM t \
             WHERE id <= {bound} GROUP BY grp HAVING COUNT(*) > 1 ORDER BY grp ASC"
        ),
        5 => format!("SELECT TOP {top} id, val FROM t WHERE grp = {grp} ORDER BY id DESC"),
        6 => format!("SELECT DISTINCT grp, name FROM t WHERE id <= {bound} ORDER BY grp ASC, name ASC"),
        _ => format!(
            "SELECT id, CASE WHEN grp < {grp} THEN UPPER(name) ELSE name END AS tag \
             FROM t WHERE id <= {bound} ORDER BY id ASC"
        ),
    }
}

#[test]
fn streaming_matches_seed_across_shapes() {
    let backend = join_db();
    let params = Bindings::new();
    check::run(
        &Config::cases(40),
        "streaming_matches_seed_across_shapes",
        gen_shape,
        |sql| {
            let db = backend.db.read();
            let (streamed, reference) = both_ways(&db, sql, &params, None);
            assert_equivalent(sql, &streamed, &reference);
        },
    );
}

/// Shapes without ORDER BY, so the order the operators themselves produce
/// — groups and DISTINCT rows in order of first appearance, index order
/// for a secondary-index seek, the probe side's order for a join and its
/// unmatched build rows last — reaches the comparison with the oracle.
fn gen_unordered_shape(rng: &mut StdRng) -> String {
    let bound = rng.gen_range(2i64..700);
    let grp = rng.gen_range(0i64..17);
    let top = rng.gen_range(1i64..40);
    match rng.gen_range(0u64..6) {
        0 => format!(
            "SELECT grp, COUNT(*) AS n, SUM(val) AS s, MAX(name) AS hi FROM t \
             WHERE id <= {bound} GROUP BY grp"
        ),
        1 => format!("SELECT DISTINCT name FROM t WHERE id <= {bound}"),
        2 => format!(
            "SELECT name, COUNT(DISTINCT grp) AS g, MIN(val) AS lo FROM t \
             WHERE grp >= {grp} GROUP BY name"
        ),
        3 => format!(
            "SELECT TOP {top} id, name FROM t WHERE grp >= {grp} AND grp <= {}",
            grp + 2
        ),
        4 => format!(
            "SELECT u.label, COUNT(*) AS n FROM t INNER JOIN u ON t.grp = u.t_grp \
             WHERE t.id <= {bound} GROUP BY u.label"
        ),
        _ => "SELECT t.id, u.uid FROM t FULL JOIN u ON t.grp = u.t_grp".to_string(),
    }
}

#[test]
fn streaming_matches_oracle_row_order_without_order_by() {
    let backend = join_db();
    let params = Bindings::new();
    check::run(
        &Config::cases(24),
        "streaming_matches_oracle_row_order_without_order_by",
        gen_unordered_shape,
        |sql| {
            let db = backend.db.read();
            let (streamed, reference) = both_ways(&db, sql, &params, None);
            assert_equivalent(sql, &streamed, &reference);
        },
    );
}

#[test]
fn result_cache_is_invisible_across_shapes() {
    // The mid-tier result cache is a pure optimization: for every query
    // shape, the cache server must return bit-identical rows with the cache
    // off, with it cold, and with it warm (served from memory) — all equal
    // to the backend's own answer.
    let backend = join_db();
    check::run(
        &Config::cases(16),
        "result_cache_is_invisible_across_shapes",
        gen_shape,
        |sql| {
            let reference = Connection::connect(backend.clone()).query(sql).unwrap();
            let hub = Arc::new(Mutex::new(ReplicationHub::new(backend.db.clone())));
            let cache = CacheServer::create("cache-eq", backend.clone(), hub);
            let conn = Connection::connect(cache.clone());
            cache.result_cache.set_enabled(false);
            let off = conn.query(sql).unwrap();
            assert_eq!(off.rows, reference.rows, "cache off: {sql}");
            cache.result_cache.set_enabled(true);
            let cold = conn.query(sql).unwrap();
            assert_eq!(cold.rows, reference.rows, "cache cold: {sql}");
            let warm = conn.query(sql).unwrap();
            assert_eq!(warm.schema, cold.schema, "warm schema: {sql}");
            assert_eq!(
                warm.rows, reference.rows,
                "a warm result-cache serve changed the answer: {sql}"
            );
        },
    );
}

#[test]
fn streaming_clone_budget_is_zero_on_read_paths() {
    // The zero-copy contract, pinned: a read-only query through the
    // streaming executor clones **zero** rows. Scans columnize
    // borrowed storage rows in place, filters narrow selection vectors,
    // joins/aggregates/sorts reference retained batches through
    // `(batch, row)` handles, and the only owned copy is the final result —
    // tracked separately in `bytes_materialized`, which must be charged
    // whenever rows came back.
    let backend = join_db();
    let snap = Arc::new(SnapshotDb::new(backend.db.read().clone())).read();
    let params = Bindings::new();
    check::run(
        &Config::cases(24),
        "streaming_clone_budget_is_zero_on_read_paths",
        gen_shape,
        |sql| {
            let (streamed, _) = both_ways(&snap, sql, &params, None);
            assert_eq!(streamed.metrics.rows_cloned, 0, "streaming cloned rows: {sql}");
            assert!(
                streamed.rows.is_empty() || streamed.metrics.bytes_materialized > 0,
                "result rows came back but no boundary volume was charged: {sql}"
            );
        },
    );
}

#[test]
fn streaming_matches_seed_on_choose_plan_branches() {
    // The cache database holds `t_head` with guard `id <= 1000`, so a
    // parameterized probe optimizes to a ChoosePlan whose branches are a
    // local view scan and a remote fallback. Both branches must agree
    // between the executor and the oracle — including the remote-call count.
    let (backend, cache) = setup();
    for v in [500i64, 1_500i64] {
        let db = cache.db.read();
        let params = Connection::params(&[("v", Value::Int(v))]);
        let remote: &dyn RemoteExecutor = &*backend;
        let sql = "SELECT id, grp, val, name FROM t WHERE id <= @v";
        let (streamed, reference) = both_ways(&db, sql, &params, Some(remote));
        assert_equivalent(sql, &streamed, &reference);
        assert_eq!(
            streamed.metrics.remote_calls, reference.metrics.remote_calls,
            "@v = {v}: executor and oracle disagree on routing"
        );
        if v <= VIEW_BOUND {
            assert_eq!(streamed.metrics.remote_calls, 0, "@v = {v} should stay local");
        } else {
            assert!(streamed.metrics.remote_calls > 0, "@v = {v} must go remote");
        }
        assert_eq!(streamed.rows.len() as i64, v.min(N_ROWS), "@v = {v}");
    }
}

// ---------------------------------------------------------------------------
// Fleet equivalence: node count and the L1/L2 hierarchy must be invisible
// in the answers.
// ---------------------------------------------------------------------------

#[test]
fn fleet_size_and_cache_state_are_invisible_across_shapes() {
    // For every query shape, a fleet of N ∈ {1, 2, 4} nodes — cache off,
    // cache cold, cache warm (L1 or promoted-from-L2) — answers
    // bit-identically to the single-node baseline and the backend.
    // This is the tentpole's transparency claim: adding cache servers
    // changes where answers come from, never what they are.
    use mtcache_repro::cache::{Fleet, FleetConfig};
    let backend = join_db();
    let make_fleet = |nodes: usize| {
        let hub = Arc::new(Mutex::new(ReplicationHub::new(backend.db.clone())));
        Fleet::create(
            backend.clone(),
            hub,
            FleetConfig {
                nodes,
                ..FleetConfig::default()
            },
            Box::new(|cache: &CacheServer| {
                cache.create_cached_view(
                    "t_head",
                    "SELECT id, grp, val, name FROM t WHERE id <= 400",
                )
            }),
        )
        .unwrap()
    };
    check::run(
        &Config::cases(6),
        "fleet_size_and_cache_state_are_invisible_across_shapes",
        |rng| (gen_shape(rng), rng.gen_range(0u64..64)),
        |(sql, session)| {
            let reference = Connection::connect(backend.clone()).query(sql).unwrap();
            let baseline = {
                let fleet = make_fleet(1);
                let conn = Connection::connect(fleet.route(*session).unwrap().1);
                conn.query(sql).unwrap()
            };
            assert_eq!(baseline.rows, reference.rows, "single-node fleet: {sql}");
            for nodes in [2usize, 4] {
                let fleet = make_fleet(nodes);
                let (slot, routed) = fleet.route(*session).unwrap();
                let conn = Connection::connect(routed.clone());
                routed.result_cache.set_enabled(false);
                let off = conn.query(sql).unwrap();
                assert_eq!(off.rows, reference.rows, "N={nodes} cache off: {sql}");
                routed.result_cache.set_enabled(true);
                let cold = conn.query(sql).unwrap();
                assert_eq!(cold.rows, reference.rows, "N={nodes} cache cold: {sql}");
                let warm = conn.query(sql).unwrap();
                assert_eq!(warm.schema, reference.schema, "{sql}");
                assert_eq!(
                    warm.rows, reference.rows,
                    "N={nodes} warm serve changed the answer: {sql}"
                );
                // A peer node answers identically too — remote shapes
                // may promote the first node's fetch from the shared
                // L2, which must preserve the bytes exactly.
                let peer_slot = (slot + 1) % nodes;
                let peer = Connection::connect(fleet.node(peer_slot).unwrap());
                let via_peer = peer.query(sql).unwrap();
                assert_eq!(
                    via_peer.rows, reference.rows,
                    "N={nodes} peer node (L2 path): {sql}"
                );
            }
        },
    );
}

// ---------------------------------------------------------------------------
// Multi-site placement (DESIGN.md §13).
// ---------------------------------------------------------------------------

/// A partitioned fleet over this file's `t` fixture: `cache0` is viewless
/// (in-view reads hop to its peer), only `cache1` caches `t_head`.
fn placement_fleet() -> (Arc<BackendServer>, Arc<mtcache_repro::cache::Fleet>) {
    let backend = BackendServer::new("backend");
    backend
        .run_script(
            "CREATE TABLE t (id INT NOT NULL PRIMARY KEY, grp INT, val FLOAT, name VARCHAR);
             CREATE INDEX ix_t_grp ON t (grp);",
        )
        .unwrap();
    let rows: Vec<String> = (1..=N_ROWS)
        .map(|i| {
            format!(
                "INSERT INTO t VALUES ({i}, {}, {}.5, 'name{}')",
                i % 17,
                i % 83,
                i % 29
            )
        })
        .collect();
    backend.run_script(&rows.join(";")).unwrap();
    backend.analyze();
    let hub = Arc::new(Mutex::new(ReplicationHub::new(backend.db.clone())));
    let fleet = mtcache_repro::cache::Fleet::create(
        backend.clone(),
        hub,
        mtcache_repro::cache::FleetConfig {
            nodes: 2,
            ..mtcache_repro::cache::FleetConfig::default()
        },
        Box::new(|cache: &CacheServer| {
            if cache.name() == "cache1" {
                cache.create_cached_view(
                    "t_head",
                    &format!("SELECT id, grp, val, name FROM t WHERE id <= {VIEW_BOUND}"),
                )?;
            }
            Ok(())
        }),
    )
    .unwrap();
    (backend, fleet)
}

#[test]
fn fleet_placement_agrees_with_the_backend() {
    // Transparency through the placement layer: for randomized queries, a
    // viewless node whose fragments may be peer-placed answers exactly what
    // the backend answers, through every node. The chosen site is a pure
    // performance decision, never a semantic one.
    let (backend, fleet) = placement_fleet();
    let reference = Connection::connect(backend);
    check::run(
        &Config::cases(24),
        "fleet_placement_agrees_with_the_backend",
        gen_query,
        |sql| {
            let want = sorted(reference.query(sql).unwrap().rows);
            for slot in 0..2 {
                let got = Connection::connect(fleet.node(slot).unwrap())
                    .query(sql)
                    .unwrap();
                assert_eq!(sorted(got.rows), want, "node {slot}: {sql}");
            }
        },
    );
}

// ---------------------------------------------------------------------------
// Adaptive advisor + intermediate-result caching: runtime cache-design
// changes and fragment memoization must be invisible in the results.
// ---------------------------------------------------------------------------

#[test]
fn advisor_and_fragment_cache_are_invisible_across_shapes() {
    // The online advisor creates cached views and supporting indexes in the
    // middle of a workload, and the fragment memo replays join/aggregate
    // subtrees from cache memory. Both are pure optimizations: for every
    // query shape, with every combination of advisor on/off × fragment
    // cache on/off, the cache server must return bit-identical
    // rows before a tick, after a tick (when the advisor may have deployed
    // new views), and on the memo-served repeat — all equal to the
    // backend's own answer.
    use mtcache_repro::cache::AdaptiveAdvisor;

    let backend = join_db();
    let make_cache = || {
        let hub = Arc::new(Mutex::new(ReplicationHub::new(backend.db.clone())));
        CacheServer::create("cache-adv", backend.clone(), hub)
    };
    check::run(
        &Config::cases(10),
        "advisor_and_fragment_cache_are_invisible_across_shapes",
        gen_shape,
        |sql| {
            let reference = Connection::connect(backend.clone()).query(sql).unwrap();
            for fragment in [false, true] {
                for advisor in [false, true] {
                    let label = format!("fragment={fragment} advisor={advisor}");
                    let cache = make_cache();
                    cache.set_fragment_caching(fragment);
                    if advisor {
                        cache.set_advisor(Some(Arc::new(AdaptiveAdvisor::default())));
                    }
                    let conn = Connection::connect(cache.clone());
                    let cold = conn.query(sql).unwrap();
                    assert_eq!(cold.rows, reference.rows, "cold, {label}: {sql}");
                    // Close an epoch: the advisor may create cached
                    // views and indexes at runtime. The answer must
                    // not move.
                    let decisions = cache.advisor_tick();
                    let after = conn.query(sql).unwrap();
                    assert_eq!(
                        after.rows, reference.rows,
                        "after tick {decisions:?}, {label}: {sql}"
                    );
                    // Served repeat: result cache and fragment memo now
                    // both have a shot at answering from memory.
                    let served = conn.query(sql).unwrap();
                    assert_eq!(served.schema, after.schema, "served schema, {label}: {sql}");
                    assert_eq!(served.rows, reference.rows, "served, {label}: {sql}");
                }
            }
        },
    );
}

// ---------------------------------------------------------------------------
// Pruned leaves: a projection over an access path makes the leaf build only
// the columns the projection and the leaf's residual read, and a
// view-matched Project(Project(seek)) compiles to one projection. Neither
// may be visible in an answer.
// ---------------------------------------------------------------------------

/// Rows of the pruned-leaf fixture: NULLs in every nullable column, on
/// different strides, so a pruned-away column and a residual column both
/// hold some.
const P_ROWS: i64 = 3000;
/// `p_head` caches `id <= P_VIEW_BOUND`, indexed on `grp`.
const P_VIEW_BOUND: i64 = 2500;

/// `p` on the backend and a cache caching `p_head` with the secondary
/// index `px_grp`.
fn pruned_fixture() -> (Arc<BackendServer>, Arc<CacheServer>) {
    let backend = BackendServer::new("backend");
    backend
        .run_script(
            "CREATE TABLE p (id INT NOT NULL PRIMARY KEY, grp INT, val FLOAT, name VARCHAR, note VARCHAR, qty INT);
             CREATE INDEX ix_p_grp ON p (grp);",
        )
        .unwrap();
    let or_null = |null: bool, v: String| if null { "NULL".to_string() } else { v };
    let rows: Vec<String> = (1..=P_ROWS)
        .map(|i| {
            format!(
                "INSERT INTO p VALUES ({i}, {}, {}, {}, {}, {})",
                or_null(i % 11 == 0, (i % 17).to_string()),
                or_null(i % 13 == 0, format!("{}.5", i % 83)),
                or_null(i % 7 == 0, format!("'name{}'", i % 29)),
                or_null(i % 5 == 0, format!("'n{}'", i % 13)),
                or_null(i % 3 == 0, (i % 50).to_string()),
            )
        })
        .collect();
    backend.run_script(&rows.join(";")).unwrap();
    backend.analyze();
    let hub = Arc::new(Mutex::new(ReplicationHub::new(backend.db.clone())));
    let cache = CacheServer::create("cache-p", backend.clone(), hub);
    cache
        .create_cached_view(
            "p_head",
            &format!("SELECT id, grp, val, name, note, qty FROM p WHERE id <= {P_VIEW_BOUND}"),
        )
        .unwrap();
    cache
        .create_index_on_view("px_grp", "p_head", &["grp".to_string()])
        .unwrap();
    (backend, cache)
}

/// One statement over `p`: `id` plus bare and computed select items, an
/// access-path predicate (clustered range or point, secondary-index key or
/// range under a key bound), an optional residual conjunct on any column —
/// projected or not — and an optional TOP.
#[derive(Debug)]
struct PrunedCase {
    list: Vec<&'static str>,
    access: String,
    residual: Option<String>,
    top: Option<u32>,
}

impl PrunedCase {
    /// `ordered` appends `ORDER BY id`, which makes a TOP's rows the same
    /// on every tier; without it a TOP takes the first rows its plan's
    /// leaf yields, which only the same plan reproduces.
    fn sql(&self, ordered: bool) -> String {
        let top = self.top.map(|n| format!("TOP {n} ")).unwrap_or_default();
        let mut sql = format!(
            "SELECT {top}id, {} FROM p WHERE {}",
            self.list.join(", "),
            self.access
        );
        if let Some(r) = &self.residual {
            sql += &format!(" AND {r}");
        }
        if ordered {
            sql += " ORDER BY id ASC";
        }
        sql
    }
}

/// Select items after `id`: bare columns, and computed ones that read
/// NULL-bearing columns (an outer list over the view match's inner one).
const P_ITEMS: [&str; 10] = [
    "grp",
    "val",
    "name",
    "note",
    "qty",
    "val * 2 AS v2",
    "COALESCE(name, 'none') AS nm",
    "qty + id AS s",
    "CASE WHEN note IS NULL THEN 'x' ELSE note END AS nt",
    "UPPER(name) AS un",
];

fn gen_pruned(rng: &mut StdRng) -> PrunedCase {
    let mut list: Vec<&'static str> = Vec::new();
    for _ in 0..rng.gen_range(1..4usize) {
        let item = *rng.choose(&P_ITEMS).unwrap();
        if !list.contains(&item) {
            list.push(item);
        }
    }
    let lo = rng.gen_range(1..P_ROWS);
    let grp = rng.gen_range(0i64..17);
    let access = match rng.gen_range(0..4) {
        0 => format!("id >= {lo} AND id < {}", lo + rng.gen_range(1i64..600)),
        1 => format!("id = {lo}"),
        // The view caches a key range, so a read it can answer bounds the
        // key too; the index on `grp` is still the cheaper path.
        2 => format!("grp = {grp} AND id <= {lo}"),
        _ => format!(
            "grp >= {grp} AND grp <= {} AND id <= {lo}",
            grp + rng.gen_range(0i64..3)
        ),
    };
    let residual = match rng.gen_range(0..8) {
        0 => Some(format!("qty > {}", rng.gen_range(0i64..50))),
        1 => Some("name IS NULL".to_string()),
        2 => Some("note IS NOT NULL".to_string()),
        3 => Some(format!("val < {}.0", rng.gen_range(0i64..83))),
        4 => Some("qty IS NULL".to_string()),
        5 => Some(format!("note LIKE 'n{}%'", rng.gen_range(0..13))),
        6 => Some(format!("COALESCE(qty, 0) <> {}", rng.gen_range(0i64..50))),
        _ => None,
    };
    let top = rng.gen_bool(0.5).then(|| rng.gen_range(1u32..30));
    PrunedCase {
        list,
        access,
        residual,
        top,
    }
}

/// The cache answers the ordered form exactly as the backend does; on the
/// cache's snapshot the streaming executor answers the unordered form
/// exactly as the oracle does on the same plan.
fn assert_pruned_agrees(backend: &Arc<BackendServer>, cache: &Arc<CacheServer>, case: &PrunedCase) {
    let ordered = case.sql(true);
    let truth = Connection::connect(backend.clone())
        .query(&ordered)
        .unwrap();
    let conn = Connection::connect(cache.clone());
    for pass in ["cold", "warm"] {
        let got = conn.query(&ordered).unwrap();
        assert_eq!(got.schema, truth.schema, "{pass}: {ordered}");
        assert_eq!(got.rows, truth.rows, "{pass}: {ordered}");
    }
    let sql = case.sql(false);
    let snap = cache.db.read();
    let remote: &dyn RemoteExecutor = &**backend;
    let params = Bindings::new();
    let (streamed, reference) = both_ways(&snap, &sql, &params, Some(remote));
    assert_equivalent(&sql, &streamed, &reference);
}

#[test]
fn pruned_leaves_agree_on_the_required_shapes() {
    let (backend, cache) = pruned_fixture();
    let case = |list: &[&'static str], access: &str, residual: Option<&str>, top: Option<u32>| {
        PrunedCase {
            list: list.to_vec(),
            access: access.to_string(),
            residual: residual.map(str::to_string),
            top,
        }
    };
    for c in [
        // The residual reads a column the projection drops.
        case(&["name"], "id >= 100 AND id < 300", Some("qty > 20"), None),
        case(
            &["val"],
            "grp = 3 AND id <= 2000",
            Some("name LIKE 'name1%'"),
            None,
        ),
        // NULLs in pruned-away columns (name, note, qty) and in the
        // residual's column.
        case(
            &["val"],
            "grp = 3 AND id <= 2000",
            Some("note IS NULL"),
            None,
        ),
        case(&["qty"], "id >= 1 AND id < 200", Some("name IS NULL"), None),
        // TOP n over a pruned clustered range and a pruned index range.
        case(
            &["name"],
            "id >= 40 AND id < 400",
            Some("qty IS NOT NULL"),
            Some(7),
        ),
        case(
            &["note"],
            "grp >= 4 AND grp <= 6 AND id <= 2400",
            Some("val < 40.0"),
            Some(5),
        ),
        case(&["note"], "grp = 4 AND id <= 2500", None, Some(12)),
        // Project(Project(...)) whose outer list is computed.
        case(
            &["COALESCE(name, 'none') AS nm", "qty + id AS s"],
            "id >= 10 AND id < 90",
            Some("val <> 3.5"),
            None,
        ),
        case(
            &["CASE WHEN note IS NULL THEN 'x' ELSE note END AS nt"],
            "grp = 9 AND id <= 1800",
            None,
            Some(9),
        ),
        // Beyond the cached range: the remote branch answers.
        case(
            &["UPPER(name) AS un"],
            "id >= 2400 AND id < 2700",
            Some("qty IS NULL"),
            Some(30),
        ),
    ] {
        assert_pruned_agrees(&backend, &cache, &c);
    }
}

#[test]
fn pruned_leaves_agree_across_random_shapes() {
    let (backend, cache) = pruned_fixture();
    check::run(
        &Config::cases(48),
        "pruned_leaves_agree_across_random_shapes",
        gen_pruned,
        |case| assert_pruned_agrees(&backend, &cache, case),
    );
}

// ---------------------------------------------------------------------------
// Exact seeks: a seek returns exactly the rows its bounds select, found by
// one descent and a gallop to the high end, and a clustered point seek's
// key equality is not re-checked. Held against filtered full scans.
// ---------------------------------------------------------------------------

/// `s (id PK, k, v)` with an index on `k`: ids are the even numbers 2..=600
/// (odd bounds fall between keys), `k` repeats 23 values and is NULL on
/// every eleventh row.
fn seek_db() -> Arc<DbSnapshot> {
    let backend = BackendServer::new("seeks");
    backend
        .run_script(
            "CREATE TABLE s (id INT NOT NULL PRIMARY KEY, k INT, v VARCHAR);
             CREATE INDEX ix_s_k ON s (k);",
        )
        .unwrap();
    let rows: Vec<String> = (1..=300i64)
        .map(|i| {
            let k = if i % 11 == 0 { "NULL".to_string() } else { (i % 23).to_string() };
            format!("INSERT INTO s VALUES ({}, {k}, 'v{}')", 2 * i, i % 7)
        })
        .collect();
    backend.run_script(&rows.join(";")).unwrap();
    backend.analyze();
    let snap = Arc::new(SnapshotDb::new(backend.db.read().clone())).read();
    snap
}

/// `c (a, b, v)` clustered on `(a, b)`, with an index on `(v, a)`: the
/// composite keys a seek may be given a prefix of.
fn composite_table() -> (Table, Index) {
    let schema = Schema::new(vec![
        Column::not_null("a", DataType::Int),
        Column::not_null("b", DataType::Int),
        Column::new("v", DataType::Int),
    ]);
    let mut table = Table::new("c", schema, vec![0, 1]);
    let mut index = Index::new("ix_c_va", "c", vec![2, 0], false);
    for a in 0..40i64 {
        for b in 0..(a % 5) {
            let v = if (a + b) % 9 == 0 { Value::Null } else { Value::Int((a * 7 + b) % 13) };
            let stored = table.insert(&Row::new(vec![Value::Int(a), Value::Int(b), v])).unwrap();
            index.insert(stored).unwrap();
        }
    }
    (table, index)
}

#[derive(Debug)]
struct SeekCase {
    sql: String,
    /// `@a`, `@b`; `None` binds NULL.
    a: Option<i64>,
    b: Option<i64>,
    /// A storage-level range over `c`: bounds as `(kind, key)`, kind 0
    /// unbounded, 1 inclusive, 2 exclusive; a key of one value is a prefix.
    clustered: [(u8, Vec<Value>); 2],
    indexed: [(u8, Vec<Value>); 2],
}

fn gen_seek(rng: &mut StdRng) -> SeekCase {
    let col = *rng.choose(&["id", "k"]).unwrap();
    let hi = if col == "id" { 610 } else { 26 };
    let value = |rng: &mut StdRng| (rng.gen_range(0u32..8) != 0).then(|| rng.gen_range(-4i64..hi));
    let (a, b) = (value(rng), value(rng));
    let lit = rng.gen_range(-4i64..hi);
    let pred = match rng.gen_range(0u32..10) {
        0 => format!("{col} = @a"),
        1 => format!("{col} >= @a AND {col} <= @b"),
        2 => format!("{col} > @a AND {col} < @b"),
        3 => format!("{col} >= @a AND {col} < @b"),
        4 => format!("{col} BETWEEN @a AND @b"),
        5 => format!("{col} = @a AND v <> 'v3'"),
        6 => format!("{col} = @a AND {col} >= @b"),
        7 => format!("{col} = {lit} AND {col} <= @b"),
        // Two conjuncts bound by @a: the seek's cannot be told apart, so
        // both stay in the residual.
        8 => "id = @a AND k = @a".to_string(),
        _ => format!("{col} < @a OR {col} = @b"),
    };
    let bound = |rng: &mut StdRng| {
        let kind = rng.gen_range(0u8..3);
        let len = rng.gen_range(1usize..3);
        let key = (0..len)
            .map(|_| match rng.gen_range(0u32..10) {
                0 => Value::Null,
                _ => Value::Int(rng.gen_range(-2i64..42)),
            })
            .collect();
        (kind, key)
    };
    SeekCase {
        sql: format!("SELECT id, k, v FROM s WHERE {pred}"),
        a,
        b,
        clustered: [bound(rng), bound(rng)],
        indexed: [bound(rng), bound(rng)],
    }
}

fn as_bound((kind, key): &(u8, Vec<Value>)) -> Bound<&[Value]> {
    match kind {
        0 => Bound::Unbounded,
        1 => Bound::Included(key),
        _ => Bound::Excluded(key),
    }
}

#[test]
fn seeks_return_exactly_the_rows_their_bounds_select() {
    let snap = seek_db();
    let (table, index) = composite_table();
    let options = OptimizerOptions::default();
    let mut seeks = [0u32; 2];
    check::run(
        &Config::cases(160),
        "seeks_return_exactly_the_rows_their_bounds_select",
        gen_seek,
        |case| {
            let sql = &case.sql;
            let Statement::Select(sel) = parse_statement(sql).unwrap() else {
                panic!("not a SELECT: {sql}");
            };
            let opt = optimize(bind_select(&sel, &snap).unwrap(), &snap, &options).unwrap();
            let explain = opt.physical.explain();
            seeks[0] += u32::from(explain.contains("ClusteredSeek"));
            seeks[1] += u32::from(explain.contains("IndexSeek"));
            let bind = |v: Option<i64>| v.map_or(Value::Null, Value::Int);
            let params = Connection::params(&[("a", bind(case.a)), ("b", bind(case.b))]);
            let ctx = ExecContext {
                db: &snap,
                remote: None,
                params: &params,
                work: &options.cost,
                parallel: None,
            };
            let reference = oracle::run(&opt.physical, &ctx).unwrap();
            let streamed = execute(&opt.physical, &ctx).unwrap();
            assert_eq!(streamed.rows, reference.rows, "{sql} {case:?}\n{explain}");

            // Composite keys, at the storage level: a clustered range over
            // inclusive bounds, an index range over any.
            fn key((kind, key): &(u8, Vec<Value>)) -> Option<&[Value]> {
                (*kind != 0).then_some(key.as_slice())
            }
            let [low, high] = &case.clustered;
            let got: Vec<Row> = table.scan_range(key(low), key(high)).map(|r| Row::clone(r)).collect();
            let inclusive = |b| key(b).map_or(Bound::Unbounded, Bound::Included);
            let want = oracle::key_range(table.scan(), &[0, 1], (inclusive(low), inclusive(high)));
            assert_eq!(got, want, "clustered range {:?}", case.clustered);
            let [low, high] = &case.indexed;
            let got: Vec<Row> = index.range(as_bound(low), as_bound(high)).map(|r| Row::clone(r)).collect();
            let all = index.range(Bound::Unbounded, Bound::Unbounded).map(|r| &**r);
            let want = oracle::key_range(all, &[2, 0], (as_bound(low), as_bound(high)));
            assert_eq!(got, want, "index range {:?}", case.indexed);
        },
    );
    // Both access paths were exercised, not just the scans around them.
    assert!(seeks.iter().all(|&n| n >= 20), "seeks planned: {seeks:?}");
}
