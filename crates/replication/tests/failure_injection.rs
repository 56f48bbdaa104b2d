//! Failure injection for the replication pipeline: apply errors must not
//! lose or duplicate transactions, and the pipeline must resume cleanly
//! once the fault clears.

use std::sync::Arc;

use mtc_util::sync::RwLock;

use mtc_replication::{Article, ReplicationHub};
use mtc_sql::{parse_statement, Statement};
use mtc_storage::{Database, RowChange, SnapshotDb};
use mtc_types::{row, Column, DataType, Schema, Value};

fn schema() -> Schema {
    Schema::new(vec![
        Column::not_null("id", DataType::Int),
        Column::new("v", DataType::Str),
    ])
}

fn setup() -> (Arc<RwLock<Database>>, Arc<SnapshotDb>, ReplicationHub) {
    let mut publisher = Database::new("pub");
    publisher.create_table("t", schema(), &["id".into()]).unwrap();
    publisher
        .apply(
            0,
            (1..=20)
                .map(|i| RowChange::Insert {
                    table: "t".into(),
                    row: row![i, format!("v{i}")],
                })
                .collect(),
        )
        .unwrap();
    let mut subscriber = Database::new("sub");
    subscriber.create_table("t_cache", schema(), &["id".into()]).unwrap();

    let publisher = Arc::new(RwLock::new(publisher));
    let subscriber = Arc::new(SnapshotDb::new(subscriber));
    let mut hub = ReplicationHub::new(publisher.clone());
    let Statement::Select(def) = parse_statement("SELECT id, v FROM t").unwrap() else {
        unreachable!()
    };
    let article = Article::from_select("t_all", &def, &schema()).unwrap();
    hub.subscribe(article, &subscriber, &mut subscriber.write(), "t_cache", 0).unwrap();
    (publisher, subscriber, hub)
}

#[test]
fn apply_conflict_self_heals_by_converging_to_publisher_image() {
    // Pre-idempotent-apply, a foreign row squatting on a replicated key
    // blocked the whole pipeline with a constraint error. Idempotent apply
    // resolves the insert against current state instead: the squatter is
    // overwritten with the publisher's image and the pipeline keeps
    // draining in order — divergence is repaired, not fatal.
    let (publisher, subscriber, mut hub) = setup();

    // Sabotage: a foreign row squats on the key the next change will use.
    subscriber
        .write()
        .apply_unlogged(&[RowChange::Insert {
            table: "t_cache".into(),
            row: row![100, "squatter"],
        }])
        .unwrap();

    publisher
        .write()
        .apply(
            10,
            vec![RowChange::Insert {
                table: "t".into(),
                row: row![100, "legit"],
            }],
        )
        .unwrap();
    // A second transaction queued behind the formerly-poisoned one.
    publisher
        .write()
        .apply(
            20,
            vec![RowChange::Insert {
                table: "t".into(),
                row: row![101, "after"],
            }],
        )
        .unwrap();

    hub.pump(30).unwrap();
    let sub = subscriber.read();
    let t = sub.table_ref("t_cache").unwrap();
    assert_eq!(t.get(&row![100]).unwrap()[1], Value::str("legit"), "squatter overwritten");
    assert_eq!(t.get(&row![101]).unwrap()[1], Value::str("after"), "pipeline not blocked");
    assert_eq!(t.row_count(), 22);
    assert!(hub.drained());
}

#[test]
fn crash_restart_resumes_from_last_applied_lsn() {
    use mtc_util::fault::{FaultPlan, FaultSpec};
    let (publisher, subscriber, mut hub) = setup();
    // Crash on every second delivery: the agent dies after applying but
    // before recording progress, and a restarted pump must replay from the
    // last applied LSN without double-applying.
    hub.set_fault_plan(FaultPlan::new(41, FaultSpec::crash_every(2)));
    for i in 0..6 {
        publisher
            .write()
            .apply(
                (i + 1) * 10,
                vec![RowChange::Update {
                    table: "t".into(),
                    before: row![i + 1, format!("v{}", i + 1)],
                    after: row![i + 1, format!("w{}", i + 1)],
                }],
            )
            .unwrap();
    }
    // Pump until drained; each Err is one injected crash + restart.
    let mut crashes = 0;
    for attempt in 0..64 {
        match hub.pump(1_000 + attempt) {
            Ok(()) if hub.drained() => break,
            Ok(()) => {}
            Err(e) => {
                assert_eq!(e.kind(), "replication", "{e}");
                crashes += 1;
            }
        }
    }
    assert!(hub.drained(), "pipeline drained despite crashes");
    assert!(crashes >= 3, "crash cadence hit repeatedly: {crashes}");
    assert_eq!(hub.metrics.crashes_injected.get(), crashes);
    assert_eq!(hub.metrics.redeliveries.get(), crashes, "every crash forced a replay");
    let sub = subscriber.read();
    let t = sub.table_ref("t_cache").unwrap();
    assert_eq!(t.row_count(), 20, "no duplicates from replays");
    for i in 1..=6i64 {
        assert_eq!(t.get(&row![i]).unwrap()[1], Value::str(format!("w{i}")));
    }
}

#[test]
fn repeated_pump_is_idempotent() {
    let (publisher, subscriber, mut hub) = setup();
    publisher
        .write()
        .apply(
            5,
            vec![RowChange::Insert {
                table: "t".into(),
                row: row![50, "once"],
            }],
        )
        .unwrap();
    for ts in [10, 20, 30, 40] {
        hub.pump(ts).unwrap();
    }
    assert_eq!(subscriber.read().table_ref("t_cache").unwrap().row_count(), 21);
    assert_eq!(hub.metrics.txns_applied.get(), 1, "no double-apply");
}

#[test]
fn dropped_subscriber_table_surfaces_catalog_error() {
    let (publisher, subscriber, mut hub) = setup();
    subscriber.write().drop_table("t_cache").unwrap();
    publisher
        .write()
        .apply(
            5,
            vec![RowChange::Delete {
                table: "t".into(),
                row: row![1, "v1"],
            }],
        )
        .unwrap();
    let err = hub.pump(10).unwrap_err();
    assert_eq!(err.kind(), "catalog");
}

#[test]
fn subscription_snapshot_is_consistent_under_concurrent_log_position() {
    // Subscribing *after* some post-setup transactions must not replay
    // pre-snapshot changes (which would double-apply).
    let (publisher, _subscriber, mut hub) = setup();
    publisher
        .write()
        .apply(
            5,
            vec![RowChange::Insert {
                table: "t".into(),
                row: row![77, "pre-subscribe"],
            }],
        )
        .unwrap();
    // New subscriber arrives late.
    let mut sub2 = Database::new("sub2");
    sub2.create_table("t_cache", schema(), &["id".into()]).unwrap();
    let sub2 = Arc::new(SnapshotDb::new(sub2));
    let Statement::Select(def) = parse_statement("SELECT id, v FROM t").unwrap() else {
        unreachable!()
    };
    let article = Article::from_select("t_all2", &def, &schema()).unwrap();
    hub.subscribe(article, &sub2, &mut sub2.write(), "t_cache", 6).unwrap();
    // The snapshot already contains row 77; pumping must not re-insert it.
    hub.pump(10).unwrap();
    hub.pump(20).unwrap();
    assert_eq!(sub2.read().table_ref("t_cache").unwrap().row_count(), 21);
}
