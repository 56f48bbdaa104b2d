//! Fleet-tier semantics (DESIGN.md §11): the front-door router, multi-node
//! replication fan-out, the L1/L2 result-cache hierarchy, and the failure
//! path — crash, reroute, cold rejoin — all at the `Fleet` API level.
//!
//! The invariants pinned here are the ones the fleet exists to provide:
//!
//! * routing is deterministic, total over live nodes, and session-sticky;
//!   a crash remaps only the victim's sessions;
//! * a crashed node stops consuming the replication stream without
//!   wedging hub truncation or `drained()`; a cold rejoin converges to the
//!   bit-exact view subset, including when it joins mid-stream under the
//!   standard fault plan;
//! * a forwarded write through *any* node synchronously invalidates every
//!   L1 and the shared L2, so no node can serve a pre-write result to a
//!   post-write reader (the cross-node invalidation race, exercised
//!   property-style over seeded interleavings);
//! * the shared L2 converts a peer's backend fetch into a zero-round-trip
//!   serve, preserving currency lineage.

use std::sync::Arc;

use mtc_util::check::{self, Config};
use mtc_util::rng::{Rng, SeedableRng, StdRng};
use mtc_util::sync::Mutex;

use mtcache_repro::cache::{BackendServer, CacheServer, Connection, Fleet, FleetConfig};
use mtcache_repro::replication::{FaultPlan, FaultSpec, ReplicationHub};
use mtcache_repro::types::{Row, Value};

const VIEW_BOUND: i64 = 150;
const ROWS: i64 = 200;

/// Backend with one table, a hub, and an `nodes`-node fleet where every
/// node caches `item_head` = `i_id < 150` (two of three columns).
fn setup_fleet(
    nodes: usize,
) -> (Arc<BackendServer>, Arc<Fleet>, Arc<Mutex<ReplicationHub>>) {
    setup_fleet_cfg(FleetConfig {
        nodes,
        ..FleetConfig::default()
    })
}

fn setup_fleet_cfg(
    cfg: FleetConfig,
) -> (Arc<BackendServer>, Arc<Fleet>, Arc<Mutex<ReplicationHub>>) {
    let backend = BackendServer::new("backend");
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
            cache.create_cached_view(
                "item_head",
                &format!("SELECT i_id, i_qty FROM item WHERE i_id < {VIEW_BOUND}"),
            )
        }),
    )
    .unwrap();
    (backend, fleet, hub)
}

fn sorted(mut rows: Vec<Row>) -> Vec<Row> {
    rows.sort();
    rows
}

/// The view's backing table on one node, read directly from storage.
fn view_rows(node: &CacheServer) -> Vec<Row> {
    node.db
        .read()
        .table_ref("item_head")
        .unwrap()
        .scan()
        .cloned()
        .collect()
}

/// Ground truth for the view subset, recomputed on the backend.
fn expected_view_rows(backend: &Arc<BackendServer>) -> Vec<Row> {
    Connection::connect(backend.clone())
        .query(&format!(
            "SELECT i_id, i_qty FROM item WHERE i_id < {VIEW_BOUND}"
        ))
        .unwrap()
        .rows
}

fn drain(hub: &Arc<Mutex<ReplicationHub>>) {
    for t in 0..100_000i64 {
        let mut h = hub.lock();
        h.pump(1_000_000 + t * 50).unwrap();
        if h.drained() {
            return;
        }
    }
    panic!("hub failed to drain");
}

// ---------------------------------------------------------------------------
// Routing: deterministic, total, sticky, minimally disrupted.
// ---------------------------------------------------------------------------

#[test]
fn routing_is_deterministic_total_and_sticky() {
    let (_backend, fleet, _hub) = setup_fleet(4);
    let first: Vec<usize> = (0..128u64)
        .map(|s| fleet.route(s).unwrap().0)
        .collect();
    // Same session, same node — on the repeat pass and interleaved.
    for s in (0..128u64).rev() {
        let (slot, server) = fleet.route(s).unwrap();
        assert_eq!(slot, first[s as usize], "session {s} moved with no failure");
        assert_eq!(server.name(), format!("cache{slot}"));
    }
    // Total: every session placed, every node used at this scale.
    for slot in 0..4 {
        assert!(
            first.iter().filter(|&&n| n == slot).count() > 0,
            "node {slot} received no sessions out of 128"
        );
    }
}

#[test]
fn crash_remaps_only_the_victims_sessions() {
    let (_backend, fleet, _hub) = setup_fleet(4);
    let before: Vec<usize> = (0..96u64).map(|s| fleet.route(s).unwrap().0).collect();
    let victim = before[0];
    let victim_sessions: Vec<u64> =
        (0..96u64).filter(|&s| before[s as usize] == victim).collect();
    let evicted = fleet.crash_node(victim).unwrap();
    assert_eq!(
        evicted,
        victim_sessions.len(),
        "eviction must cover exactly the victim's pinned sessions"
    );
    for s in 0..96u64 {
        let (slot, _) = fleet.route(s).unwrap();
        if before[s as usize] == victim {
            assert_ne!(slot, victim, "session {s} still routed to the dead node");
        } else {
            assert_eq!(
                slot, before[s as usize],
                "session {s} was not on the crashed node and must not move"
            );
        }
    }
    assert_eq!(fleet.alive_count(), 3);
    assert!(fleet.reroutes() >= evicted as u64);
}

#[test]
fn routing_a_one_node_fleet_after_its_crash_errors() {
    let (_backend, fleet, _hub) = setup_fleet(1);
    fleet.crash_node(0).unwrap();
    assert_eq!(fleet.alive_count(), 0);
    assert!(fleet.route(7).is_err(), "no live node can serve");
    assert!(fleet.crash_node(0).is_err(), "node is already down");
    let revived = fleet.rejoin_node(0).unwrap();
    assert!(fleet.rejoin_node(0).is_err(), "node is already up");
    assert_eq!(fleet.route(7).unwrap().1.name(), revived.name());
}

// ---------------------------------------------------------------------------
// Crash: replication detach without wedging the hub.
// ---------------------------------------------------------------------------

#[test]
fn crashed_node_detaches_from_replication_without_wedging_the_hub() {
    let (backend, fleet, hub) = setup_fleet(2);
    backend
        .run_script("UPDATE item SET i_qty = 999 WHERE i_id = 10")
        .unwrap();
    fleet.crash_node(1).unwrap();
    assert_eq!(
        fleet.applied_lsn(1),
        None,
        "a crashed slot reports no applied LSN"
    );
    drain(&hub);
    // The hub drained and truncated even though slot 1 never applied the
    // write: a detached node is excluded from both.
    assert!(hub.lock().drained());
    assert_eq!(fleet.lag_txns(0), Some(0), "the live node caught up fully");
    let nodes = hub.lock().subscriptions();
    assert_eq!(nodes.len(), 1, "the crashed node's views are gone from the hub");
    assert_eq!(nodes[0].views, fleet.node(0).unwrap().cached_views());
    assert_eq!(
        view_rows(&fleet.node(0).unwrap())
            .iter()
            .find(|r| r[0] == Value::Int(10))
            .map(|r| r[1].clone()),
        Some(Value::Int(999)),
        "the live node saw the write"
    );
}

#[test]
fn per_node_applied_lsn_tracks_each_nodes_progress() {
    let (backend, fleet, hub) = setup_fleet(2);
    drain(&hub);
    let caught_up = fleet.applied_lsn(0).unwrap();
    assert_eq!(fleet.applied_lsn(1), Some(caught_up), "both nodes level");
    backend
        .run_script("UPDATE item SET i_qty = 1 WHERE i_id = 1; UPDATE item SET i_qty = 2 WHERE i_id = 2")
        .unwrap();
    // Make the backlog observable: the log reader ingests the writes but
    // every delivery drops, so both nodes show distribution lag.
    hub.lock()
        .set_fault_plan(FaultPlan::new(3, FaultSpec::drop(1.0)));
    hub.lock().pump(1).unwrap();
    assert!(fleet.lag_txns(0).unwrap() > 0, "undelivered writes show as lag");
    assert_eq!(fleet.lag_txns(0), fleet.lag_txns(1));
    hub.lock().set_fault_plan(FaultPlan::new(3, FaultSpec::NONE));
    drain(&hub);
    assert_eq!(fleet.lag_txns(0), Some(0));
    assert_eq!(fleet.lag_txns(1), Some(0));
    assert!(fleet.applied_lsn(0).unwrap() > caught_up);
}

// ---------------------------------------------------------------------------
// Cold rejoin: bit-exact convergence, including mid-stream under faults.
// ---------------------------------------------------------------------------

#[test]
fn cold_rejoin_converges_bit_exact_under_the_standard_fault_plan() {
    let (backend, fleet, hub) = setup_fleet(3);
    hub.lock().set_fault_plan(FaultPlan::new(
        42,
        FaultSpec {
            drop_p: 0.10,
            duplicate_p: 0.05,
            crash_every: 200,
            ..FaultSpec::NONE
        },
    ));
    let mut rng = StdRng::seed_from_u64(9);
    for i in 0..120i64 {
        let id = rng.gen_range(0i64..ROWS);
        backend
            .run_script(&format!("UPDATE item SET i_qty = {i} WHERE i_id = {id}"))
            .unwrap();
        if i == 40 {
            fleet.crash_node(1).unwrap();
        }
        if i == 80 {
            fleet.rejoin_node(1).unwrap();
        }
        if i % 5 == 4 {
            let _ = hub.lock().pump(i);
        }
    }
    drain(&hub);
    let expected = sorted(expected_view_rows(&backend));
    for slot in 0..3 {
        let node = fleet.node(slot).unwrap();
        assert_eq!(
            sorted(view_rows(&node)),
            expected,
            "node {slot} diverged from the backend subset"
        );
    }
    // The rejoined node is bit-identical to the node that never crashed.
    assert_eq!(
        sorted(view_rows(&fleet.node(1).unwrap())),
        sorted(view_rows(&fleet.node(0).unwrap()))
    );
}

#[test]
fn node_joining_mid_apply_batch_sees_a_consistent_snapshot() {
    // Satellite regression: a node that (re)joins while the hub still holds
    // undelivered transactions must bulk-populate from a consistent
    // snapshot at subscribe time — no missing rows, no duplicates, no
    // half-applied batches — and then converge with everyone else.
    let (backend, fleet, hub) = setup_fleet(2);
    fleet.crash_node(1).unwrap();
    for i in 0..30i64 {
        backend
            .run_script(&format!(
                "UPDATE item SET i_qty = {} WHERE i_id = {}",
                1_000 + i,
                i
            ))
            .unwrap();
    }
    // Deliver part of the backlog to the surviving node — half the
    // deliveries drop and stay queued — then rejoin with the hub genuinely
    // mid-stream (some transactions distributed, some pending).
    hub.lock()
        .set_fault_plan(FaultPlan::new(5, FaultSpec::drop(0.5)));
    hub.lock().pump(1).unwrap();
    assert!(!hub.lock().drained(), "fixture needs a genuine backlog");
    let rejoined = fleet.rejoin_node(1).unwrap();
    hub.lock().set_fault_plan(FaultPlan::new(5, FaultSpec::NONE));
    // Immediately at join — before any further pump — the bulk snapshot
    // must already equal the backend subset (subscribe reads committed
    // state, so the pending deliveries are already in the snapshot).
    assert_eq!(
        sorted(view_rows(&rejoined)),
        sorted(expected_view_rows(&backend)),
        "join-time bulk population must be a consistent committed snapshot"
    );
    // And the pending deliveries must not be applied twice.
    drain(&hub);
    assert_eq!(
        sorted(view_rows(&rejoined)),
        sorted(expected_view_rows(&backend)),
        "draining the backlog after the join must be idempotent"
    );
    assert_eq!(
        sorted(view_rows(&fleet.node(0).unwrap())),
        sorted(view_rows(&rejoined))
    );
}

#[test]
fn rejoined_node_serves_view_queries_locally() {
    let (backend, fleet, hub) = setup_fleet(2);
    backend
        .run_script("UPDATE item SET i_qty = 777 WHERE i_id = 5")
        .unwrap();
    fleet.crash_node(0).unwrap();
    let node = fleet.rejoin_node(0).unwrap();
    drain(&hub);
    let r = Connection::connect(node)
        .query("SELECT i_qty FROM item WHERE i_id = 5")
        .unwrap();
    assert_eq!(r.rows, vec![Row::new(vec![Value::Int(777)])]);
    assert_eq!(
        r.metrics.remote_calls, 0,
        "an in-view read on a rejoined node stays local"
    );
}

// ---------------------------------------------------------------------------
// L1/L2 hierarchy.
// ---------------------------------------------------------------------------

/// A read that must go remote (outside the cached view's guard).
const REMOTE_READ: &str = "SELECT i_qty FROM item WHERE i_id = 180";

#[test]
fn l2_serves_a_peers_backend_fetch_without_round_trips() {
    let (_backend, fleet, _hub) = setup_fleet(2);
    let a = Connection::connect(fleet.node(0).unwrap());
    let b = Connection::connect(fleet.node(1).unwrap());
    let first = a.query(REMOTE_READ).unwrap();
    assert!(first.metrics.remote_rtts > 0, "cold fetch pays the wire");
    let via_l2 = b.query(REMOTE_READ).unwrap();
    assert_eq!(via_l2.rows, first.rows);
    assert_eq!(
        via_l2.metrics.remote_rtts, 0,
        "node B must serve node A's fetch from the shared L2, not the backend"
    );
    assert!(fleet.l2().unwrap().stats().hits >= 1);
    // The promotion landed in B's own L1: a third read is a pure L1 hit.
    let l1_hits_before = fleet.node(1).unwrap().result_cache.stats().hits;
    let warm = b.query(REMOTE_READ).unwrap();
    assert_eq!(warm.rows, first.rows);
    assert_eq!(
        fleet.node(1).unwrap().result_cache.stats().hits,
        l1_hits_before + 1,
        "the L2 promotion must have seeded node B's L1"
    );
}

#[test]
fn l2_serves_nodes_that_hold_different_cached_views() {
    let (backend, fleet, _hub) = setup_fleet(2);
    let (a, b) = (fleet.node(0).unwrap(), fleet.node(1).unwrap());
    // Node B alone caches a second view, so the two shadow catalogs differ.
    b.create_cached_view("item_low", "SELECT i_id, i_note FROM item WHERE i_id < 10")
        .unwrap();
    assert_ne!(a.db.read().catalog.version(), b.db.read().catalog.version());
    let first = Connection::connect(a).query(REMOTE_READ).unwrap();
    assert!(first.metrics.remote_rtts > 0, "cold fetch pays the wire");
    let l2_hits = fleet.l2().unwrap().stats().hits;
    let backend_queries = backend.stats.queries.get();
    let via_l2 = Connection::connect(b).query(REMOTE_READ).unwrap();
    assert_eq!(via_l2.rows, first.rows);
    assert_eq!(
        via_l2.metrics.remote_rtts, 0,
        "node B must serve node A's fetch from the shared L2 whatever views it holds"
    );
    assert_eq!(backend.stats.queries.get(), backend_queries);
    assert_eq!(fleet.l2().unwrap().stats().hits, l2_hits + 1);
}

#[test]
fn disabling_the_l2_budget_removes_the_shared_tier() {
    let (_backend, fleet, _hub) = setup_fleet_cfg(FleetConfig {
        nodes: 2,
        l2_budget: 0,
        ..FleetConfig::default()
    });
    assert!(fleet.l2().is_none());
    let a = Connection::connect(fleet.node(0).unwrap());
    let b = Connection::connect(fleet.node(1).unwrap());
    let first = a.query(REMOTE_READ).unwrap();
    let second = b.query(REMOTE_READ).unwrap();
    assert_eq!(first.rows, second.rows);
    assert!(
        second.metrics.remote_rtts > 0,
        "without an L2, node B pays its own backend trip"
    );
}

#[test]
fn write_through_one_node_invalidates_every_l1_and_the_l2() {
    let (_backend, fleet, _hub) = setup_fleet(3);
    let conns: Vec<Connection> = (0..3)
        .map(|i| Connection::connect(fleet.node(i).unwrap()))
        .collect();
    // Warm every node's L1 (and the L2) with the pre-write value.
    for c in &conns {
        assert_eq!(
            c.query(REMOTE_READ).unwrap().rows,
            vec![Row::new(vec![Value::Int(180 % 50)])]
        );
    }
    // Forward a write through node 2 only.
    conns[2]
        .query("UPDATE item SET i_qty = 4242 WHERE i_id = 180")
        .unwrap();
    // Every node — including the ones that never saw the write — must now
    // refetch: serving the warm pre-write entry would violate currency.
    for (i, c) in conns.iter().enumerate() {
        let r = c.query(REMOTE_READ).unwrap();
        assert_eq!(
            r.rows,
            vec![Row::new(vec![Value::Int(4242)])],
            "node {i} served a stale result after a peer's write"
        );
    }
}

#[test]
fn cross_node_invalidation_has_no_stale_window_across_interleavings() {
    // The race the ISSUE names: writer DML lands on node A; a read at a
    // currency point at-or-after that write must not hit a stale L1 on
    // B or C, whatever the interleaving. Forwarded writes synchronously
    // raise every tier's watermark before returning, so for *any* seeded
    // schedule of reads/writes/nodes, a remote read always reflects every
    // completed write.
    #[derive(Debug, Clone)]
    enum Op {
        Write { node: usize, qty: i64 },
        Read { node: usize },
    }
    let gen_ops = |rng: &mut StdRng| {
        check::vec_of(rng, 4..40, |rng| match rng.gen_range(0u32..3) {
            0 => Op::Write {
                node: rng.gen_range(0usize..3),
                qty: rng.gen_range(0i64..10_000),
            },
            _ => Op::Read {
                node: rng.gen_range(0usize..3),
            },
        })
    };
    check::run(
        &Config::cases(12),
        "cross_node_invalidation_has_no_stale_window_across_interleavings",
        gen_ops,
        |ops| {
            let (_backend, fleet, _hub) = setup_fleet(3);
            let conns: Vec<Connection> = (0..3)
                .map(|i| Connection::connect(fleet.node(i).unwrap()))
                .collect();
            let mut committed: i64 = 180 % 50; // seed value of row 180
            for (step, op) in ops.iter().enumerate() {
                match op {
                    Op::Write { node, qty } => {
                        conns[*node]
                            .query(&format!(
                                "UPDATE item SET i_qty = {qty} WHERE i_id = 180"
                            ))
                            .unwrap();
                        committed = *qty;
                    }
                    Op::Read { node } => {
                        let r = conns[*node].query(REMOTE_READ).unwrap();
                        assert_eq!(
                            r.rows,
                            vec![Row::new(vec![Value::Int(committed)])],
                            "step {step}: node {node} read a value older than \
                             the last committed write"
                        );
                    }
                }
            }
        },
    );
}

#[test]
fn fleet_of_n_answers_exactly_what_one_node_answers() {
    // Bit-identical serving across fleet sizes, through the front door:
    // for a spread of sessions and probes, every routed answer equals the
    // single-node fleet's answer equals the backend's.
    let probes = [
        "SELECT i_id, i_qty FROM item WHERE i_id < 20 ORDER BY i_id ASC",
        "SELECT COUNT(*) AS n, SUM(i_qty) AS s FROM item",
        "SELECT i_qty FROM item WHERE i_id = 180",
        "SELECT i_id FROM item WHERE i_qty > 40 ORDER BY i_id ASC",
    ];
    let (backend_1, single, _h1) = setup_fleet(1);
    let (_backend_4, quad, _h4) = setup_fleet(4);
    let reference = Connection::connect(backend_1);
    for (s, sql) in (0..8u64).zip(probes.iter().cycle()) {
        let want = reference.query(sql).unwrap();
        let via_single = Connection::connect(single.route(s).unwrap().1)
            .query(sql)
            .unwrap();
        let via_quad = Connection::connect(quad.route(s).unwrap().1)
            .query(sql)
            .unwrap();
        assert_eq!(via_single.rows, want.rows, "single-node fleet: {sql}");
        assert_eq!(via_quad.rows, want.rows, "4-node fleet: {sql}");
        assert_eq!(via_quad.schema, want.schema, "{sql}");
    }
}
