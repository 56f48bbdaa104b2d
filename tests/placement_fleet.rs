//! Multi-site query placement at the `Fleet` API level (DESIGN.md §13):
//! the cost DP routes plan fragments to whichever site is cheapest —
//! this node, a peer carrying a relevant cached view, or the backend —
//! and the fleet's topology version invalidates cached placements on any
//! membership change.
//!
//! Invariants pinned here:
//!
//! * a node with no usable local view serves an in-view read from a peer's
//!   cached view over the cheap peer link, not from the backend, and the
//!   answer is bit-identical to the backend's;
//! * EXPLAIN names the chosen site per remote fragment
//!   (`placed: cache1 (view item_head)` / `placed: backend`), and those
//!   are exactly the sites executing the statement then contacts;
//! * `multisite: false` restores strict two-site planning on every node;
//! * crash AND rejoin bump the fleet-wide topology version, and the plan
//!   cache treats it exactly like `Catalog::version()` — a cached
//!   peer-placed plan never executes against a changed membership;
//! * a currency-bounded fragment placed on a peer past the bound is refused
//!   by that peer and served from backend truth instead.

use std::sync::Arc;

use mtc_util::sync::Mutex;

use mtcache_repro::cache::{BackendServer, CacheServer, Connection, Fleet, FleetConfig};
use mtcache_repro::replication::{ManualClock, ReplicationHub};
use mtcache_repro::types::{Row, Value};

const VIEW_BOUND: i64 = 150;
const ROWS: i64 = 200;

/// A read inside the cached view's range (only `cache1` carries the view).
const IN_VIEW_READ: &str = "SELECT i_id, i_qty FROM item WHERE i_id < 100 ORDER BY i_id ASC";
/// A read outside every cached view: backend is the only feasible site.
const OUT_OF_VIEW_READ: &str = "SELECT i_qty FROM item WHERE i_id = 180";

/// Backend + hub + a fleet where the cached view is *partitioned*: only
/// `cache1` caches `item_head`; every other node has a bare shadow catalog
/// and must either hop to `cache1` or fall back to the backend.
fn setup_partitioned_fleet(
    cfg: FleetConfig,
) -> (Arc<BackendServer>, Arc<Fleet>, Arc<Mutex<ReplicationHub>>) {
    partitioned_fleet_on(BackendServer::new("backend"), cfg)
}

/// [`setup_partitioned_fleet`] over `backend`, which has the clock the test
/// needs.
fn partitioned_fleet_on(
    backend: Arc<BackendServer>,
    cfg: FleetConfig,
) -> (Arc<BackendServer>, Arc<Fleet>, Arc<Mutex<ReplicationHub>>) {
    backend
        .run_script("CREATE TABLE item (i_id INT NOT NULL PRIMARY KEY, i_qty INT, i_note VARCHAR)")
        .unwrap();
    let rows: Vec<String> = (0..ROWS)
        .map(|i| format!("INSERT INTO item VALUES ({i}, {}, 'n{i}')", i % 50))
        .collect();
    backend.run_script(&rows.join(";")).unwrap();
    backend.analyze();
    let hub = Arc::new(Mutex::new(ReplicationHub::new(backend.db.clone())));
    let fleet = Fleet::create(
        backend.clone(),
        hub.clone(),
        cfg,
        Box::new(|cache: &CacheServer| {
            if cache.name() == "cache1" {
                cache.create_cached_view(
                    "item_head",
                    &format!("SELECT i_id, i_qty FROM item WHERE i_id < {VIEW_BOUND}"),
                )?;
            }
            Ok(())
        }),
    )
    .unwrap();
    (backend, fleet, hub)
}

fn ground_truth(backend: &Arc<BackendServer>, sql: &str) -> Vec<Row> {
    Connection::connect(backend.clone()).query(sql).unwrap().rows
}

#[test]
fn peer_placement_serves_from_a_peers_cached_view() {
    let (backend, fleet, _hub) = setup_partitioned_fleet(FleetConfig {
        nodes: 2,
        ..FleetConfig::default()
    });
    let want = ground_truth(&backend, IN_VIEW_READ);
    let viewless = Connection::connect(fleet.node(0).unwrap());
    let r = viewless.query(IN_VIEW_READ).unwrap();
    assert_eq!(r.rows, want, "peer-placed answer must equal backend truth");
    assert!(
        r.metrics.peer_rtts > 0,
        "the fragment must travel the peer link, not stay local"
    );
    assert_eq!(
        r.metrics.remote_rtts - r.metrics.peer_rtts,
        0,
        "no backend round trips: the peer's cached view covers the read"
    );
    // The cached (compiled) plan keeps the peer boundary: a second run
    // pays the peer link again, still zero backend trips.
    let again = viewless.query(IN_VIEW_READ).unwrap();
    assert_eq!(again.rows, want);
    assert!(again.metrics.peer_rtts > 0);
    assert_eq!(again.metrics.remote_rtts - again.metrics.peer_rtts, 0);
}

#[test]
fn explain_names_the_chosen_site_per_fragment() {
    let (_backend, fleet, _hub) = setup_partitioned_fleet(FleetConfig {
        nodes: 2,
        ..FleetConfig::default()
    });
    let viewless = fleet.node(0).unwrap();
    let peer_placed = viewless.explain(IN_VIEW_READ).unwrap();
    assert!(
        peer_placed.contains("placed: cache1 (view item_head)"),
        "EXPLAIN must name the winning peer and its view:\n{peer_placed}"
    );
    let backend_placed = viewless.explain(OUT_OF_VIEW_READ).unwrap();
    assert!(
        backend_placed.contains("placed: backend"),
        "out-of-view reads place on the backend:\n{backend_placed}"
    );
    assert!(
        !backend_placed.contains("placed: cache1"),
        "no peer covers i_id = 180:\n{backend_placed}"
    );
    // The node that owns the view answers locally: no remote fragment, no
    // placement line at all.
    let owner = fleet.node(1).unwrap();
    let local = owner.explain(IN_VIEW_READ).unwrap();
    assert!(
        !local.contains("placed:"),
        "the view owner's plan has no remote fragments:\n{local}"
    );
}

#[test]
fn explain_names_exactly_the_sites_execution_contacts() {
    // EXPLAIN and execution plan through the same path, so the `placed:`
    // lines must be the sites the statement then ships fragments to: as
    // many peer-placed lines as peer calls, as many backend-placed lines
    // as the remaining remote calls — for plan-cached reads, for a
    // currency-bounded one, and for a bounded read on the view owner while
    // it is past the bound, which forwards the whole statement.
    let clock = ManualClock::new(0);
    let (backend, fleet, hub) = partitioned_fleet_on(
        BackendServer::with_clock("backend", Arc::new(clock.clone())),
        FleetConfig {
            nodes: 2,
            ..FleetConfig::default()
        },
    );
    let bounded = format!("{IN_VIEW_READ} WITH FRESHNESS 60 SECONDS");
    let sites_match = |slot: usize, sql: &str| {
        let node = fleet.node(slot).unwrap();
        let explain = node.explain(sql).unwrap();
        let placed: Vec<&str> = explain
            .lines()
            .filter_map(|l| l.strip_prefix("placed: "))
            .collect();
        let on_backend = placed.iter().filter(|site| **site == "backend").count() as u64;
        let on_peers = placed.len() as u64 - on_backend;
        let m = Connection::connect(node).query(sql).unwrap().metrics;
        assert_eq!(m.peer_calls, on_peers, "node {slot}: {sql}\n{explain}");
        assert_eq!(
            m.remote_calls - m.peer_calls,
            on_backend,
            "node {slot}: {sql}\n{explain}"
        );
        explain
    };
    for (slot, sql) in [
        (0, IN_VIEW_READ),
        (0, OUT_OF_VIEW_READ),
        (0, bounded.as_str()),
        (1, bounded.as_str()),
    ] {
        sites_match(slot, sql);
    }
    hub.lock().log_reader_enabled = false;
    backend
        .run_script("UPDATE item SET i_qty = 999 WHERE i_id = 7")
        .unwrap();
    clock.advance(120_000);
    let explain = sites_match(1, &bounded);
    assert!(
        explain.starts_with("routing: backend fallback — node stale 120000ms > bound 60000ms"),
        "{explain}"
    );
}

#[test]
fn a_bounded_read_placed_on_a_stale_peer_is_served_by_the_backend() {
    // Only `cache1` holds `item_head`, and it misses a write for a minute.
    // `cache0` holds no view, so it is never past a bound itself; it places
    // the bounded read's fragment on `cache1`, which must refuse it rather
    // than answer from its stale view.
    let clock = ManualClock::new(0);
    let (backend, fleet, hub) = partitioned_fleet_on(
        BackendServer::with_clock("backend", Arc::new(clock.clone())),
        FleetConfig {
            nodes: 2,
            ..FleetConfig::default()
        },
    );
    hub.lock().log_reader_enabled = false;
    backend
        .run_script("UPDATE item SET i_qty = 999 WHERE i_id = 7")
        .unwrap();
    clock.advance(60_000);
    let sql = "SELECT i_id, i_qty FROM item WHERE i_id < 10 AND i_id > 5 ORDER BY i_id ASC WITH FRESHNESS 5 SECONDS";
    let want = ground_truth(&backend, sql);
    assert!(want.iter().any(|r| r[1] == Value::Int(999)), "{want:?}");
    let owner = fleet.node(1).unwrap();
    let fallbacks = owner.stats.freshness_fallbacks.get();
    let placer = fleet.node(0).unwrap();
    let misses = placer.result_cache.stats().misses;

    let r = Connection::connect(placer.clone()).query(sql).unwrap();
    assert_eq!(r.rows, want, "the answer is the backend's, not the stale view's");
    assert_eq!(
        owner.stats.freshness_fallbacks.get(),
        fallbacks + 1,
        "the stale peer refused the fragment"
    );
    assert_eq!(r.metrics.peer_calls, 0, "no peer served any of it");
    assert_eq!(
        placer.result_cache.stats().misses,
        misses + 1,
        "the backend fallback reuses the L1 probe made before the peer hop"
    );
}

#[test]
fn multisite_off_restores_two_site_planning() {
    let (backend, fleet, _hub) = setup_partitioned_fleet(FleetConfig {
        nodes: 2,
        multisite: false,
        ..FleetConfig::default()
    });
    let want = ground_truth(&backend, IN_VIEW_READ);
    let viewless = Connection::connect(fleet.node(0).unwrap());
    let r = viewless.query(IN_VIEW_READ).unwrap();
    assert_eq!(r.rows, want, "two-site answer must equal backend truth");
    assert_eq!(r.metrics.peer_rtts, 0, "no peer hops with multisite off");
    assert!(
        r.metrics.remote_rtts > 0,
        "the viewless node pays the backend trip instead"
    );
    let explain = fleet.node(0).unwrap().explain(IN_VIEW_READ).unwrap();
    assert!(
        explain.contains("placed: backend") && !explain.contains("placed: cache1"),
        "two-site EXPLAIN only ever places on the backend:\n{explain}"
    );
}

#[test]
fn crash_and_rejoin_bump_topology_and_invalidate_cached_placements() {
    let (backend, fleet, _hub) = setup_partitioned_fleet(FleetConfig {
        nodes: 2,
        ..FleetConfig::default()
    });
    let want = ground_truth(&backend, IN_VIEW_READ);
    assert_eq!(fleet.topology_version(), 0);
    let viewless = Connection::connect(fleet.node(0).unwrap());

    // Warm: the peer-placed plan lands in cache0's plan cache.
    let warm = viewless.query(IN_VIEW_READ).unwrap();
    assert_eq!(warm.rows, want);
    assert!(warm.metrics.peer_rtts > 0);

    // Crash the view owner: topology bumps, and the cached plan — whose
    // Remote boundary names the dead peer — must never execute again.
    fleet.crash_node(1).unwrap();
    assert_eq!(fleet.topology_version(), 1);
    let invalidations_before = fleet.node(0).unwrap().plan_cache.stats().invalidations;
    let after_crash = viewless.query(IN_VIEW_READ).unwrap();
    assert_eq!(after_crash.rows, want, "reroute must not change the answer");
    assert_eq!(
        after_crash.metrics.peer_rtts, 0,
        "the dead peer cannot serve the fragment"
    );
    assert!(
        after_crash.metrics.remote_rtts > 0,
        "the replanned fragment goes to the backend"
    );
    assert!(
        fleet.node(0).unwrap().plan_cache.stats().invalidations > invalidations_before,
        "the topology bump must invalidate the cached peer-placed plan"
    );

    // Rejoin bumps again (the peer's views are back and plannable), and
    // placement resumes.
    fleet.rejoin_node(1).unwrap();
    assert_eq!(fleet.topology_version(), 2);
    let explain = fleet.node(0).unwrap().explain(IN_VIEW_READ).unwrap();
    assert!(
        explain.contains("placed: cache1 (view item_head)"),
        "after rejoin the DP places on the peer again:\n{explain}"
    );
    assert_eq!(viewless.query(IN_VIEW_READ).unwrap().rows, want);
}

#[test]
fn a_crash_and_a_dropped_fleet_release_the_nodes_their_peers_held() {
    // Placement peers hold each other strongly in their published wiring;
    // every membership change republishes it and a dropped fleet clears it.
    let (_backend, fleet, _hub) = setup_partitioned_fleet(FleetConfig {
        nodes: 3,
        ..FleetConfig::default()
    });
    let nodes: Vec<_> = fleet.nodes().iter().map(Arc::downgrade).collect();
    assert!(nodes.iter().all(|n| n.upgrade().is_some()));

    fleet.crash_node(1).unwrap();
    assert!(
        nodes[1].upgrade().is_none(),
        "the survivors' new wiring no longer names the victim"
    );
    let explain = fleet.node(0).unwrap().explain(IN_VIEW_READ).unwrap();
    assert!(!explain.contains("placed: cache1"), "{explain}");

    drop(fleet);
    assert!(
        nodes.iter().all(|n| n.upgrade().is_none()),
        "a dropped fleet unwires its nodes"
    );
}

#[test]
fn peer_placement_is_bit_identical_across_fleet_shapes() {
    // The same probes through a viewless node (peer-placed), the view
    // owner (local), and a multisite-off fleet (backend) must all equal
    // the backend's answer — placement is a pure performance decision.
    let probes = [
        IN_VIEW_READ,
        OUT_OF_VIEW_READ,
        "SELECT COUNT(*) AS n FROM item WHERE i_id < 100",
        "SELECT i_id FROM item WHERE i_id < 100 AND i_qty > 25 ORDER BY i_id ASC",
    ];
    let (backend, multi, _h1) = setup_partitioned_fleet(FleetConfig {
        nodes: 3,
        ..FleetConfig::default()
    });
    let (backend2, two_site, _h2) = setup_partitioned_fleet(FleetConfig {
        nodes: 3,
        multisite: false,
        ..FleetConfig::default()
    });
    for sql in probes {
        let want = ground_truth(&backend, sql);
        assert_eq!(ground_truth(&backend2, sql), want, "fixtures diverged: {sql}");
        for slot in 0..3 {
            let via_multi = Connection::connect(multi.node(slot).unwrap())
                .query(sql)
                .unwrap();
            let via_two = Connection::connect(two_site.node(slot).unwrap())
                .query(sql)
                .unwrap();
            assert_eq!(via_multi.rows, want, "multisite node {slot}: {sql}");
            assert_eq!(via_two.rows, want, "two-site node {slot}: {sql}");
            assert_eq!(via_multi.schema, via_two.schema, "{sql}");
        }
    }
}
