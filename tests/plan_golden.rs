//! Golden plan corpus: pins the *shape* of every plan the optimizer picks
//! for the statements this repo actually runs — `Optimized.physical`'s
//! EXPLAIN text plus the exact bits of `est_cost` / `est_rows` — against
//! `tests/golden/plans.txt`. The other suites pin answers; this one pins
//! plans, so an optimizer refactor that claims "same plans" is checked
//! byte for byte.
//!
//! Corpus: every SELECT in `mtc_tpcw::procs::PROCEDURES`, the `hotpoint`
//! and `fleet_adhoc` read templates of `mtc_benchmark`, the query shapes of
//! `tests/placement_fleet.rs` / `tests/placement_prop.rs`, and LEFT JOINs
//! over each fixture (no workload issues one, yet every rewrite pass has to
//! carry an outer join through unchanged).
//! Each is planned two-site and under a 3-peer partitioned
//! `PlacementEnv`, with default options and with `enable_dynamic_plans` /
//! `enable_choose_plan_pullup` switched off in turn.
//!
//! Regenerate (only when a plan change is intended and reviewed):
//! `cargo test --test plan_golden -- --ignored regenerate`.

use std::fmt::Write as _;
use std::sync::Arc;

use mtc_util::sync::Mutex;

use mtcache_repro::cache::{BackendServer, CacheServer};
use mtcache_repro::engine::{
    bind_select, optimize_with_placement, OptimizerOptions, PeerSite, PlacementEnv,
};
use mtcache_repro::replication::ReplicationHub;
use mtcache_repro::sql::{parse_statements, Statement};
use mtcache_repro::storage::Database;
use mtcache_repro::tpcw::datagen::{generate, Scale};
use mtcache_repro::tpcw::deploy::configure_cache;
use mtcache_repro::tpcw::procs::{register_all, PROCEDURES};

const GOLDEN: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/golden/plans.txt");

/// `mtc_benchmark`'s `hotpoint` templates and one literal instance of each
/// `fleet_adhoc` read template (literals picked on both sides of the item
/// partition below).
const BENCH_TEMPLATES: &[&str] = &[
    "SELECT i_title, i_cost, i_stock FROM item WHERE i_id = @id",
    "SELECT TOP 10 i_id, i_title FROM item WHERE i_id >= @lo AND i_id < @hi",
    "SELECT c_fname, c_lname, c_balance FROM customer WHERE c_id = @id",
    "SELECT i_id, i_title, i_cost, i_stock FROM item WHERE i_id = 17 AND i_srp >= 0.250000",
    "SELECT i_id, i_title, i_cost, i_stock FROM item WHERE i_id = 83 AND i_srp >= 0.250000",
    "SELECT i_id, i_title, i_srp FROM item WHERE i_id >= 21 AND i_id < 25 AND i_srp >= 0.500000",
    "SELECT i_id, i_title, i_srp FROM item WHERE i_id >= 48 AND i_id < 52 AND i_srp >= 0.500000",
    "SELECT TOP 20 i_id, i_title, a_lname FROM item, author WHERE i_a_id = a_id \
     AND i_id >= 11 AND i_id < 16 AND i_srp >= 0.125000 ORDER BY i_id ASC",
    "SELECT TOP 20 i_id, i_title, a_lname FROM item, author WHERE i_a_id = a_id \
     AND i_id >= 71 AND i_id < 76 AND i_srp >= 0.125000 ORDER BY i_id ASC",
    "SELECT c_id, c_uname, c_balance FROM customer WHERE c_id >= 129 AND c_id < 193",
];

/// LEFT JOINs over the TPC-W schema: a parameterized predicate over a
/// cached table above the outer join, an outer join whose preserved input
/// is an inner-join region, and an outer join under an inner join whose
/// other input a parameter guards (the guarded union is pulled above the
/// inner join and carries the outer join into each branch).
const OUTER_JOINS: &[&str] = &[
    "SELECT i_id, i_title, a_lname FROM item LEFT JOIN author ON i_a_id = a_id WHERE i_id = @id",
    "SELECT i_id, a_lname, ol_qty FROM item INNER JOIN author ON i_a_id = a_id \
     LEFT JOIN order_line ON ol_i_id = i_id WHERE i_subject = @subject",
    "SELECT i_title, o_id, ol_qty FROM item, order_line LEFT JOIN orders ON ol_o_id = o_id \
     WHERE ol_i_id = i_id AND i_id = @id",
];

/// `tests/placement_fleet.rs`'s probes.
const FLEET_PROBES: &[&str] = &[
    "SELECT i_id, i_qty FROM item WHERE i_id < 100 ORDER BY i_id ASC",
    "SELECT i_qty FROM item WHERE i_id = 180",
    "SELECT COUNT(*) AS n FROM item WHERE i_id < 100",
    "SELECT i_id FROM item WHERE i_id < 100 AND i_qty > 25 ORDER BY i_id ASC",
    "SELECT i_id, i_qty FROM item WHERE i_id < @v",
];

/// `tests/placement_prop.rs`'s seven generator shapes, at keys on both
/// sides of its peers' view bounds (t_head < 1500, t_wide < 800,
/// u_head < 1200).
fn prop_shapes() -> Vec<String> {
    let mut out = Vec::new();
    for k in [5i64, 700, 1100, 1900] {
        let ku = k.min(1500);
        out.push(format!("SELECT id, grp FROM t WHERE id < {k}"));
        out.push(format!("SELECT id, grp, val FROM t WHERE id < {k}"));
        out.push(format!("SELECT id, grp FROM t WHERE id < {k} ORDER BY id ASC"));
        out.push(format!("SELECT COUNT(*) AS n FROM t WHERE id < {k}"));
        out.push(format!("SELECT id, grp FROM t WHERE id < {k} AND grp = 3"));
        out.push(format!(
            "SELECT t.id, u.tag FROM t JOIN u ON t.id = u.id WHERE t.id < {ku}"
        ));
        out.push(format!("SELECT id FROM u WHERE id < {ku} AND tag > 10"));
    }
    out.push("SELECT id, grp FROM t WHERE id < @k".into());
    out.push("SELECT t.id, u.tag FROM t JOIN u ON t.id = u.id WHERE t.id < @k".into());
    out.push("SELECT t.id, u.tag FROM t LEFT JOIN u ON t.id = u.id WHERE t.id < @k".into());
    out.push("SELECT t.id, u.tag FROM u, t LEFT JOIN u AS w ON t.id = w.id WHERE u.id = t.grp AND u.id < @k".into());
    out
}

fn hub_of(backend: &Arc<BackendServer>) -> Arc<Mutex<ReplicationHub>> {
    Arc::new(Mutex::new(ReplicationHub::new(backend.db.clone())))
}

/// A cache node carrying exactly `views`.
fn node(
    name: &str,
    backend: &Arc<BackendServer>,
    hub: &Arc<Mutex<ReplicationHub>>,
    views: &[(&str, String)],
) -> Arc<CacheServer> {
    let cache = CacheServer::create(name, backend.clone(), hub.clone());
    for (view, sql) in views {
        cache.create_cached_view(view, sql).unwrap();
    }
    cache
}

/// The option sets every statement is planned under.
fn option_sets() -> Vec<(&'static str, OptimizerOptions)> {
    vec![
        ("default", OptimizerOptions::default()),
        (
            "no_dynamic_plans",
            OptimizerOptions {
                enable_dynamic_plans: false,
                ..Default::default()
            },
        ),
        (
            "no_pullup",
            OptimizerOptions {
                enable_choose_plan_pullup: false,
                ..Default::default()
            },
        ),
    ]
}

/// Plans every SELECT of `statements` on `db` (with `peers` as the
/// placement environment) under every option set, appending one record per
/// (statement, option set) to `out`.
fn plan_all(
    out: &mut String,
    site: &str,
    db: &Database,
    peers: &[(&str, &Database)],
    statements: &[String],
) {
    for sql in statements {
        for stmt in parse_statements(sql).unwrap() {
            let Statement::Select(sel) = stmt else {
                continue;
            };
            for (label, options) in option_sets() {
                let mut env = PlacementEnv::two_site(&options.cost);
                for (name, peer_db) in peers {
                    env.peers.push(PeerSite {
                        name: name.to_string(),
                        db: peer_db,
                        link: options.cost.peer_link(),
                    });
                }
                writeln!(out, "== {site} / {label} :: {sel}").unwrap();
                let planned = bind_select(&sel, db)
                    .and_then(|plan| optimize_with_placement(plan, db, &options, &env));
                match planned {
                    Ok(opt) => {
                        writeln!(
                            out,
                            "est_cost bits {:?} ({:.3})  est_rows bits {:?} ({:.3})",
                            opt.est_cost.to_bits(),
                            opt.est_cost,
                            opt.est_rows.to_bits(),
                            opt.est_rows
                        )
                        .unwrap();
                        out.push_str(opt.physical.explain().trim_end());
                        out.push('\n');
                    }
                    Err(e) => writeln!(out, "error: {e}").unwrap(),
                }
                out.push('\n');
            }
        }
    }
}

/// The whole corpus, rendered.
fn render() -> String {
    let mut out = String::new();

    // ---- TPC-W: procedures + benchmark templates -------------------------
    let backend = BackendServer::new("backend");
    generate(&backend, Scale::tiny()).unwrap();
    register_all(&backend).unwrap();
    let hub = hub_of(&backend);
    let mut tpcw: Vec<String> = PROCEDURES.iter().map(|(_, _, body)| body.to_string()).collect();
    tpcw.extend(BENCH_TEMPLATES.iter().map(|s| s.to_string()));
    tpcw.extend(OUTER_JOINS.iter().map(|s| s.to_string()));

    // The backend itself (every table local): the plans DML `WHERE`
    // clauses and backend-executed fragments get.
    plan_all(&mut out, "tpcw.backend", &backend.db.read(), &[], &tpcw);

    // One cache node, paper §6.1.2 configuration, two-site.
    let single = CacheServer::create("cache1", backend.clone(), hub.clone());
    configure_cache(&single).unwrap();
    plan_all(&mut out, "tpcw.cache", &single.db.read(), &[], &tpcw);

    // A fleet with the cached views partitioned over three peers, planned
    // from a node that owns `author` only (so local, peer and backend
    // sites all compete) and from a node with no views at all.
    let item_cols = "i_id, i_title, i_a_id, i_pub_date, i_publisher, i_subject, i_desc, \
                     i_srp, i_cost, i_stock, i_related1";
    let author = ("cv_author", "SELECT a_id, a_fname, a_lname FROM author".to_string());
    let here = node("here", &backend, &hub, &[author.clone()]);
    let viewless = node("viewless", &backend, &hub, &[]);
    let peers = [
        node(
            "peer0",
            &backend,
            &hub,
            &[
                ("cv_item_lo", format!("SELECT {item_cols} FROM item WHERE i_id <= 50")),
                author,
            ],
        ),
        node(
            "peer1",
            &backend,
            &hub,
            &[
                ("cv_item_hi", format!("SELECT {item_cols} FROM item WHERE i_id > 50")),
                (
                    "cv_orders",
                    "SELECT o_id, o_c_id, o_date, o_sub_total, o_tax, o_total, o_ship_type, \
                     o_status FROM orders"
                        .to_string(),
                ),
            ],
        ),
        node(
            "peer2",
            &backend,
            &hub,
            &[(
                "cv_order_line",
                "SELECT ol_id, ol_o_id, ol_i_id, ol_qty, ol_discount FROM order_line".to_string(),
            )],
        ),
    ];
    let snaps: Vec<_> = peers.iter().map(|p| p.db.read()).collect();
    let env: Vec<(&str, &Database)> = peers
        .iter()
        .zip(&snaps)
        .map(|(p, s)| (p.name(), &***s))
        .collect();
    plan_all(&mut out, "tpcw.fleet3.here", &here.db.read(), &env, &tpcw);
    plan_all(&mut out, "tpcw.fleet3.viewless", &viewless.db.read(), &env, &tpcw);

    // ---- tests/placement_fleet.rs fixture ---------------------------------
    let backend = BackendServer::new("backend");
    backend
        .run_script("CREATE TABLE item (i_id INT NOT NULL PRIMARY KEY, i_qty INT, i_note VARCHAR)")
        .unwrap();
    let rows: Vec<String> = (0..200)
        .map(|i| format!("INSERT INTO item VALUES ({i}, {}, 'n{i}')", i % 50))
        .collect();
    backend.run_script(&rows.join(";")).unwrap();
    backend.analyze();
    let hub = hub_of(&backend);
    let viewless = node("cache0", &backend, &hub, &[]);
    let owner = node(
        "cache1",
        &backend,
        &hub,
        &[("item_head", "SELECT i_id, i_qty FROM item WHERE i_id < 150".to_string())],
    );
    let probes: Vec<String> = FLEET_PROBES.iter().map(|s| s.to_string()).collect();
    let owner_snap = owner.db.read();
    plan_all(&mut out, "fleet.viewless.two_site", &viewless.db.read(), &[], &probes);
    plan_all(
        &mut out,
        "fleet.viewless.peer",
        &viewless.db.read(),
        &[("cache1", &**owner_snap)],
        &probes,
    );
    plan_all(&mut out, "fleet.owner", &owner_snap, &[], &probes);

    // ---- tests/placement_prop.rs fixture ----------------------------------
    let backend = BackendServer::new("backend");
    backend
        .run_script(
            "CREATE TABLE t (id INT NOT NULL PRIMARY KEY, grp INT, val FLOAT, name VARCHAR);
             CREATE TABLE u (id INT NOT NULL PRIMARY KEY, tag INT)",
        )
        .unwrap();
    let t_rows: Vec<String> = (1..=2000)
        .map(|i| format!("INSERT INTO t VALUES ({i}, {}, {}.5, 'n{}')", i % 17, i % 83, i % 29))
        .collect();
    backend.run_script(&t_rows.join(";")).unwrap();
    let u_rows: Vec<String> = (1..=1500)
        .map(|i| format!("INSERT INTO u VALUES ({i}, {})", i % 41))
        .collect();
    backend.run_script(&u_rows.join(";")).unwrap();
    backend.analyze();
    let hub = hub_of(&backend);
    let here = node("here", &backend, &hub, &[]);
    let peers = [
        node("peer0", &backend, &hub, &[("t_head", "SELECT id, grp FROM t WHERE id < 1500".into())]),
        node(
            "peer1",
            &backend,
            &hub,
            &[("t_wide", "SELECT id, grp, val, name FROM t WHERE id < 800".into())],
        ),
        node("peer2", &backend, &hub, &[("u_head", "SELECT id, tag FROM u WHERE id < 1200".into())]),
    ];
    let snaps: Vec<_> = peers.iter().map(|p| p.db.read()).collect();
    let env: Vec<(&str, &Database)> = peers
        .iter()
        .zip(&snaps)
        .map(|(p, s)| (p.name(), &***s))
        .collect();
    let shapes = prop_shapes();
    plan_all(&mut out, "prop.two_site", &here.db.read(), &[], &shapes);
    plan_all(&mut out, "prop.peers3", &here.db.read(), &env, &shapes);
    plan_all(&mut out, "prop.at_peer1", &snaps[1], &[env[0], env[2]], &shapes);
    out
}

#[test]
fn plans_match_the_golden_corpus() {
    let want = std::fs::read_to_string(GOLDEN).expect("tests/golden/plans.txt is committed");
    let got = render();
    if got == want {
        return;
    }
    // Report the first differing record rather than two 10 000-line blobs.
    let (g, w): (Vec<&str>, Vec<&str>) = (got.split("\n\n").collect(), want.split("\n\n").collect());
    for (i, (a, b)) in g.iter().zip(&w).enumerate() {
        assert_eq!(a, b, "plan record #{i} differs from tests/golden/plans.txt");
    }
    panic!("record count differs: rendered {}, golden {}", g.len(), w.len());
}

/// Rewrites the golden file from the current optimizer. Ignored: run it
/// deliberately, and review the diff.
#[test]
#[ignore]
fn regenerate() {
    std::fs::create_dir_all(std::path::Path::new(GOLDEN).parent().unwrap()).unwrap();
    std::fs::write(GOLDEN, render()).unwrap();
}
