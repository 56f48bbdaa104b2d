//! Greedy join-order selection for inner-join regions.
//!
//! The binder builds joins in syntactic order; for chains of inner/cross
//! joins (the bestseller query's `order_line × item × author`, for example)
//! this pass flattens each maximal inner-join region into (inputs,
//! conjuncts) and rebuilds a left-deep tree greedily: start from the
//! smallest input, repeatedly adjoin the input that minimizes the estimated
//! intermediate result, preferring connected (predicate-joined) inputs over
//! Cartesian products. Outer joins delimit regions and keep their order.

use mtc_sql::{Expr, JoinKind};
use mtc_storage::Database;

use crate::logical::LogicalPlan;
use crate::optimizer::cardinality::estimate_rows;
use crate::optimizer::pushdown::covered;

/// Reorders every maximal inner-join region in the plan.
pub fn reorder_joins(plan: LogicalPlan, db: &Database) -> LogicalPlan {
    match plan {
        LogicalPlan::Join { kind, .. } if matches!(kind, JoinKind::Inner | JoinKind::Cross) => {
            let mut inputs = Vec::new();
            let mut conjuncts = Vec::new();
            flatten(plan, &mut inputs, &mut conjuncts);
            // Recurse into the region's inputs first.
            let inputs: Vec<LogicalPlan> =
                inputs.into_iter().map(|i| reorder_joins(i, db)).collect();
            rebuild_greedy(inputs, conjuncts, db)
        }
        other => other.map_children(|c| reorder_joins(c, db)),
    }
}

/// Flattens a maximal inner/cross join region into inputs + conjuncts.
/// Filters sitting directly on join inputs stay attached to the input (they
/// were already pushed down).
fn flatten(plan: LogicalPlan, inputs: &mut Vec<LogicalPlan>, conjuncts: &mut Vec<Expr>) {
    match plan {
        LogicalPlan::Join {
            left,
            right,
            kind: JoinKind::Inner | JoinKind::Cross,
            on,
            ..
        } => {
            if let Some(on) = on {
                conjuncts.extend(on.split_conjuncts().into_iter().cloned());
            }
            flatten(*left, inputs, conjuncts);
            flatten(*right, inputs, conjuncts);
        }
        other => inputs.push(other),
    }
}

/// Greedy left-deep rebuild.
fn rebuild_greedy(
    mut inputs: Vec<LogicalPlan>,
    mut conjuncts: Vec<Expr>,
    db: &Database,
) -> LogicalPlan {
    debug_assert!(!inputs.is_empty());
    if inputs.len() == 1 {
        let only = inputs.pop().expect("one input");
        return match Expr::conjunction(conjuncts) {
            Some(pred) => LogicalPlan::Filter {
                input: Box::new(only),
                predicate: pred,
            },
            None => only,
        };
    }

    // Start from the smallest input.
    let start = inputs
        .iter()
        .enumerate()
        .min_by(|(_, a), (_, b)| {
            estimate_rows(a, db).total_cmp(&estimate_rows(b, db))
        })
        .map(|(i, _)| i)
        .expect("nonempty");
    let mut current = inputs.swap_remove(start);

    while !inputs.is_empty() {
        // Candidate scoring: the estimated rows of current ⋈ candidate with
        // every now-applicable conjunct attached. Prefer connected joins
        // (at least one applicable conjunct) over Cartesian products.
        let mut best: Option<(usize, bool, f64)> = None;
        for (i, cand) in inputs.iter().enumerate() {
            let joined_schema = current.schema().join(cand.schema());
            let applicable: Vec<Expr> = conjuncts
                .iter()
                .filter(|c| {
                    covered(c, &joined_schema)
                        && !covered(c, current.schema())
                        && !covered(c, cand.schema())
                })
                .cloned()
                .collect();
            let connected = !applicable.is_empty();
            let trial = make_join(current.clone(), cand.clone(), applicable);
            let rows = estimate_rows(&trial, db);
            let better = match &best {
                None => true,
                Some((_, best_conn, best_rows)) => {
                    (connected && !best_conn) || (connected == *best_conn && rows < *best_rows)
                }
            };
            if better {
                best = Some((i, connected, rows));
            }
        }
        let (idx, _, _) = best.expect("candidates exist");
        let next = inputs.swap_remove(idx);
        let joined_schema = current.schema().join(next.schema());
        // Consume the conjuncts this join can evaluate.
        let (applicable, rest): (Vec<Expr>, Vec<Expr>) = conjuncts
            .into_iter()
            .partition(|c| covered(c, &joined_schema));
        conjuncts = rest;
        current = make_join(current, next, applicable);
    }

    // Any conjunct left over (shouldn't happen: the full schema covers all)
    // becomes a residual filter.
    match Expr::conjunction(conjuncts) {
        Some(pred) => LogicalPlan::Filter {
            input: Box::new(current),
            predicate: pred,
        },
        None => current,
    }
}

fn make_join(left: LogicalPlan, right: LogicalPlan, on: Vec<Expr>) -> LogicalPlan {
    let schema = left.schema().join(right.schema());
    let (kind, on) = if on.is_empty() {
        (JoinKind::Cross, None)
    } else {
        (JoinKind::Inner, Expr::conjunction(on))
    };
    LogicalPlan::Join {
        left: Box::new(left),
        right: Box::new(right),
        kind,
        on,
        schema,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::binder::bind_select;
    use crate::optimizer::pushdown::push_filters;
    use mtc_sql::{parse_statement, Statement};
    use mtc_types::{row, Column, DataType, Schema};

    /// big (100k) ⋈ mid (10k) ⋈ tiny (10): the greedy order should start
    /// from `tiny`.
    fn db() -> Database {
        let mut db = Database::new("j");
        for (name, rows) in [("big", 5000i64), ("mid", 500), ("tiny", 10)] {
            db.create_table(
                name,
                Schema::new(vec![
                    Column::not_null(&format!("{name}_id"), DataType::Int),
                    Column::new("k", DataType::Int),
                ]),
                &[format!("{name}_id")],
            )
            .unwrap();
            let changes: Vec<_> = (1..=rows)
                .map(|i| mtc_storage::RowChange::Insert {
                    table: name.into(),
                    row: row![i, i % 10],
                })
                .collect();
            db.apply(0, changes).unwrap();
        }
        db.analyze();
        db
    }

    fn plan(db: &Database, sql: &str) -> LogicalPlan {
        let Statement::Select(sel) = parse_statement(sql).unwrap() else {
            panic!()
        };
        push_filters(bind_select(&sel, db).unwrap())
    }

    #[test]
    fn greedy_order_starts_from_the_smallest_input() {
        let db = db();
        let p = plan(
            &db,
            "SELECT big.big_id FROM big, mid, tiny \
             WHERE big.k = mid.k AND mid.k = tiny.k",
        );
        let reordered = reorder_joins(p, &db);
        let text = reordered.explain();
        // The deepest (first-built) join must involve `tiny`.
        let tiny_pos = text.find("Get tiny").unwrap();
        let big_pos = text.find("Get big").unwrap();
        assert!(
            tiny_pos > big_pos || text.matches("Join").count() == 2,
            "left-deep with tiny at the bottom: {text}"
        );
        // All three conjuncts survive somewhere in the tree.
        assert!(text.contains("mid.k = tiny.k") || text.contains("tiny.k"), "{text}");
    }

    #[test]
    fn reorder_preserves_results() {
        use crate::eval::Bindings;
        use crate::exec::{execute, ExecContext};
        use crate::optimizer::cost::CostModel;
        use crate::optimizer::location::build;

        let db = db();
        let original = plan(
            &db,
            "SELECT big.big_id, tiny.tiny_id FROM big, mid, tiny \
             WHERE big.k = mid.k AND mid.k = tiny.k AND big.big_id <= 50",
        );
        let reordered =
            crate::optimizer::view_match::recompute_schemas(reorder_joins(original.clone(), &db));
        let cm = CostModel::default();
        let params = Bindings::new();
        let mut results = Vec::new();
        for p in [original, reordered] {
            let phys = build(&p, &db, &cm).unwrap();
            let ctx = ExecContext {
                db: &db,
                remote: None,
                params: &params,
                work: &cm,
                parallel: None,
            };
            let mut rows = execute(&phys, &ctx).unwrap().rows;
            rows.sort();
            results.push(rows);
        }
        let reordered_rows = results.pop().unwrap();
        let original_rows = results.pop().unwrap();
        assert_eq!(original_rows, reordered_rows);
        assert!(!original_rows.is_empty());
    }

    #[test]
    fn outer_joins_are_left_alone() {
        let db = db();
        let p = plan(
            &db,
            "SELECT big.big_id FROM big LEFT JOIN mid ON big.k = mid.k",
        );
        let reordered = reorder_joins(p.clone(), &db);
        assert_eq!(p, reordered, "outer joins must not be reordered");
    }

    #[test]
    fn cross_products_are_deferred() {
        let db = db();
        // tiny–mid are connected; big is only reachable by cross product.
        let p = plan(
            &db,
            "SELECT big.big_id FROM big, mid, tiny WHERE mid.k = tiny.k",
        );
        let reordered = reorder_joins(p, &db);
        let text = reordered.explain();
        // The cross join must be the LAST (topmost) join.
        let first_join_line = text.lines().find(|l| l.contains("Join")).unwrap();
        assert!(
            first_join_line.contains("CROSS"),
            "cross product deferred to the top: {text}"
        );
    }
}
