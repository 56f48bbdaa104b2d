//! Property tests on the storage engine: after an arbitrary stream of
//! transactions (some of which fail and roll back), tables and their
//! secondary indexes must agree exactly, statistics must bound reality,
//! and the commit log must replay to the same state.
//!
//! Ported from `proptest` to the in-tree `mtc_util::check` harness.

use mtc_util::check::{self, Config};
use mtc_util::rng::{Rng, StdRng};

use mtc_storage::{Database, RowChange};
use mtc_types::{row, Column, DataType, Row, Schema, Value};

#[derive(Debug, Clone)]
enum Op {
    Insert { id: i64, cat: i64 },
    Update { id: i64, cat: i64 },
    Delete { id: i64 },
}

fn gen_op(rng: &mut StdRng) -> Op {
    match rng.gen_range(0u32..3) {
        0 => Op::Insert {
            id: rng.gen_range(0i64..60),
            cat: rng.gen_range(0i64..6),
        },
        1 => Op::Update {
            id: rng.gen_range(0i64..60),
            cat: rng.gen_range(0i64..6),
        },
        _ => Op::Delete {
            id: rng.gen_range(0i64..60),
        },
    }
}

fn gen_ops(rng: &mut StdRng, max: usize) -> Vec<Op> {
    check::vec_of(rng, 1..max, gen_op)
}

fn new_db(name: &str) -> Database {
    let mut db = Database::new(name);
    db.create_table(
        "t",
        Schema::new(vec![
            Column::not_null("id", DataType::Int),
            Column::new("cat", DataType::Int),
        ]),
        &["id".into()],
    )
    .unwrap();
    db.create_index("ix_cat", "t", &["cat".into()], false)
        .unwrap();
    db
}

/// Applies an op as a transaction; failures (missing/duplicate keys) are
/// expected and must leave the database untouched.
fn apply_op(db: &mut Database, op: &Op, ts: i64) {
    let change = match op {
        Op::Insert { id, cat } => RowChange::Insert {
            table: "t".into(),
            row: row![*id, *cat],
        },
        Op::Update { id, cat } => {
            let Some(before) = db.table_ref("t").unwrap().get(&row![*id]).cloned() else {
                return;
            };
            RowChange::Update {
                table: "t".into(),
                before,
                after: row![*id, *cat],
            }
        }
        Op::Delete { id } => {
            let Some(before) = db.table_ref("t").unwrap().get(&row![*id]).cloned() else {
                return;
            };
            RowChange::Delete {
                table: "t".into(),
                row: before,
            }
        }
    };
    let _ = db.apply(ts, vec![change]);
}

/// The invariant: every row is indexed under exactly its current key, and
/// the index holds nothing else.
fn check_index_consistency(db: &Database) {
    let t = db.table_ref("t").unwrap();
    let ix = db.index("ix_cat").unwrap();
    assert_eq!(ix.len(), t.row_count(), "index entry count");
    for r in t.scan() {
        // The entry is the table's own allocation of the row, not a copy.
        let mut rows = ix.seek(&Row::new(vec![r[1].clone()]));
        assert!(
            rows.any(|indexed| std::ptr::eq(&**indexed, r)),
            "row {r} missing from index"
        );
    }
}

#[test]
fn indexes_stay_consistent_under_random_ops() {
    check::run(
        &Config::cases(64),
        "indexes_stay_consistent_under_random_ops",
        |rng| gen_ops(rng, 120),
        |ops| {
            let mut db = new_db("p");
            for (i, op) in ops.iter().enumerate() {
                apply_op(&mut db, op, i as i64);
            }
            check_index_consistency(&db);
        },
    );
}

#[test]
fn commit_log_replays_to_identical_state() {
    check::run(
        &Config::cases(64),
        "commit_log_replays_to_identical_state",
        |rng| gen_ops(rng, 100),
        |ops| {
            let mut db = new_db("orig");
            for (i, op) in ops.iter().enumerate() {
                apply_op(&mut db, op, i as i64);
            }
            // Replay the log on a fresh database.
            let mut replica = new_db("replica");
            for txn in db.log().read_from(mtc_storage::Lsn::ZERO) {
                replica.apply_unlogged(&txn.changes).unwrap();
            }
            let orig: Vec<Row> = db.table_ref("t").unwrap().scan().cloned().collect();
            let rep: Vec<Row> = replica.table_ref("t").unwrap().scan().cloned().collect();
            assert_eq!(orig, rep);
            check_index_consistency(&replica);
        },
    );
}

#[test]
fn failed_multi_change_transactions_roll_back_completely() {
    check::run(
        &Config::cases(64),
        "failed_multi_change_transactions_roll_back_completely",
        |rng| (gen_ops(rng, 40), rng.gen_range(0i64..60)),
        |(ops, dup)| {
            let dup = *dup;
            let mut db = new_db("rb");
            for (i, op) in ops.iter().enumerate() {
                apply_op(&mut db, op, i as i64);
            }
            let rows_before: Vec<Row> = db.table_ref("t").unwrap().scan().cloned().collect();
            let log_before = db.log().len();
            // A transaction whose second change must fail: insert a fresh id,
            // then insert a duplicate of something present (or of itself).
            let fresh = 1000i64;
            let result = db.apply(
                9_999,
                vec![
                    RowChange::Insert {
                        table: "t".into(),
                        row: row![fresh, 0],
                    },
                    RowChange::Insert {
                        table: "t".into(),
                        row: if rows_before.iter().any(|r| r[0] == Value::Int(dup)) {
                            row![dup, 0]
                        } else {
                            row![fresh, 1]
                        },
                    },
                ],
            );
            assert!(result.is_err(), "duplicate insert must fail");
            let rows_after: Vec<Row> = db.table_ref("t").unwrap().scan().cloned().collect();
            assert_eq!(rows_before, rows_after, "rollback must be complete");
            assert_eq!(db.log().len(), log_before, "failed txn must not log");
            check_index_consistency(&db);
        },
    );
}

#[test]
fn statistics_bound_reality() {
    check::run(
        &Config::cases(64),
        "statistics_bound_reality",
        |rng| gen_ops(rng, 100),
        |ops| {
            let mut db = new_db("st");
            for (i, op) in ops.iter().enumerate() {
                apply_op(&mut db, op, i as i64);
            }
            db.analyze();
            let stats = db.catalog.stats("t").unwrap();
            let t = db.table_ref("t").unwrap();
            assert_eq!(stats.row_count as usize, t.row_count());
            if t.row_count() > 0 {
                let ids: Vec<i64> = t.scan().map(|r| r[0].as_i64().unwrap()).collect();
                let s = stats.column("id").unwrap();
                assert_eq!(s.min.clone(), Some(Value::Int(*ids.iter().min().unwrap())));
                assert_eq!(s.max.clone(), Some(Value::Int(*ids.iter().max().unwrap())));
                // Selectivity of `id <= max` must be 1, of `id < min` must be 0.
                let max = Value::Int(*ids.iter().max().unwrap());
                assert!((s.selectivity_le(&max) - 1.0).abs() < 1e-9);
            }
        },
    );
}
