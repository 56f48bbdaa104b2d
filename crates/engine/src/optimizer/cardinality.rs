//! Cardinality estimation from (shadowed) statistics.
//!
//! On the cache server these estimates run against statistics imported from
//! the backend (§3) — which is exactly why the shadow database carries them.

use mtc_sql::{BinOp, Expr};
use mtc_storage::{ColumnStats, Database, TableStats};
use mtc_types::Value;

use crate::logical::LogicalPlan;

/// Default selectivities when no statistics apply (SQL Server-style magic
/// numbers).
const DEFAULT_EQ: f64 = 0.1;
const DEFAULT_RANGE: f64 = 0.3;
const DEFAULT_LIKE: f64 = 0.1;

/// Estimates the number of output rows of a logical plan node: the fold of
/// [`node_rows`] over the plan.
pub fn estimate_rows(plan: &LogicalPlan, db: &Database) -> f64 {
    let child_rows: Vec<f64> = plan
        .children()
        .into_iter()
        .map(|c| estimate_rows(c, db))
        .collect();
    node_rows(plan, &child_rows, db)
}

/// Output rows of one node given its children's output rows (`child_rows`
/// parallel to [`LogicalPlan::children`]) — the per-node formula, so a pass
/// that already holds the children's estimates does not recurse again.
pub fn node_rows(plan: &LogicalPlan, child_rows: &[f64], db: &Database) -> f64 {
    match plan {
        LogicalPlan::Get { object, .. } => {
            if object.is_empty() {
                return 1.0; // SELECT without FROM
            }
            db.catalog
                .stats(object)
                .map(|s| s.row_count as f64)
                .unwrap_or(1000.0)
        }
        LogicalPlan::Filter { input, predicate } => {
            child_rows[0] * selectivity(predicate, input, db)
        }
        LogicalPlan::Project { .. } | LogicalPlan::Sort { .. } => child_rows[0],
        LogicalPlan::Join {
            left, right, on, ..
        } => {
            let (l, r) = (child_rows[0], child_rows[1]);
            match on {
                None => l * r,
                Some(pred) => {
                    let sel = join_selectivity(pred, left, right, db);
                    (l * r * sel).max(1.0)
                }
            }
        }
        LogicalPlan::Aggregate {
            input, group_by, ..
        } => {
            if group_by.is_empty() {
                1.0
            } else {
                let mut groups = 1.0f64;
                for g in group_by {
                    groups *= distinct_of(g, input, db).unwrap_or(10.0);
                }
                groups.min(child_rows[0]).max(1.0)
            }
        }
        LogicalPlan::Top { n, .. } => child_rows[0].min(*n as f64),
        LogicalPlan::Distinct { .. } => (child_rows[0] * 0.9).max(1.0),
        LogicalPlan::UnionAll { weights, .. } => {
            child_rows.iter().zip(weights).map(|(r, w)| r * w).sum()
        }
    }
}

/// Estimated average output row width in bytes (for transfer costing).
pub fn estimate_width(plan: &LogicalPlan) -> f64 {
    plan.schema().estimated_row_width().max(8) as f64
}

/// Selectivity of `predicate` over the output of `input`.
pub fn selectivity(predicate: &Expr, input: &LogicalPlan, db: &Database) -> f64 {
    let mut sel = 1.0;
    for conjunct in predicate.split_conjuncts() {
        sel *= atom_selectivity(conjunct, input, db);
    }
    sel.clamp(0.0, 1.0)
}

fn atom_selectivity(atom: &Expr, input: &LogicalPlan, db: &Database) -> f64 {
    match atom {
        Expr::Binary { left, op, right } if op.is_comparison() => {
            // Normalize to column OP value.
            let (col, op, val) = match (&**left, &**right) {
                (Expr::Column(c), v) => (c, *op, v),
                (v, Expr::Column(c)) => (c, op.flip(), v),
                _ => return DEFAULT_RANGE,
            };
            let stats = column_stats(col, input, db);
            match (stats, literal_of(val)) {
                (Some((col_stats, table_stats)), Some(lit)) => match op {
                    BinOp::Eq => col_stats.selectivity_eq(table_stats.row_count),
                    BinOp::Neq => 1.0 - col_stats.selectivity_eq(table_stats.row_count),
                    BinOp::Le => col_stats.selectivity_le(&lit),
                    BinOp::Lt => col_stats.selectivity_lt(&lit),
                    BinOp::Ge => 1.0 - col_stats.selectivity_lt(&lit),
                    BinOp::Gt => 1.0 - col_stats.selectivity_le(&lit),
                    _ => DEFAULT_RANGE,
                },
                (Some((col_stats, table_stats)), None) => {
                    // Parameterized comparison: expected selectivity under
                    // the paper's uniform-parameter assumption is the mean
                    // over the parameter range, i.e. ~0.5 for ranges and the
                    // equality default for `=`.
                    match op {
                        BinOp::Eq => col_stats.selectivity_eq(table_stats.row_count),
                        BinOp::Neq => 1.0 - col_stats.selectivity_eq(table_stats.row_count),
                        _ => 0.5,
                    }
                }
                _ => match op {
                    BinOp::Eq => DEFAULT_EQ,
                    _ => DEFAULT_RANGE,
                },
            }
        }
        Expr::InList { expr, list, negated } => {
            let sel = match &**expr {
                Expr::Column(c) => {
                    let per = column_stats(c, input, db)
                        .map(|(s, t)| s.selectivity_eq(t.row_count))
                        .unwrap_or(DEFAULT_EQ);
                    (per * list.len() as f64).min(1.0)
                }
                _ => DEFAULT_RANGE,
            };
            if *negated {
                1.0 - sel
            } else {
                sel
            }
        }
        Expr::Like { negated, .. } => {
            if *negated {
                1.0 - DEFAULT_LIKE
            } else {
                DEFAULT_LIKE
            }
        }
        Expr::IsNull { expr, negated } => {
            let frac = match &**expr {
                Expr::Column(c) => column_stats(c, input, db)
                    .map(|(s, t)| {
                        if t.row_count == 0 {
                            0.0
                        } else {
                            s.null_count as f64 / t.row_count as f64
                        }
                    })
                    .unwrap_or(0.05),
                _ => 0.05,
            };
            if *negated {
                1.0 - frac
            } else {
                frac
            }
        }
        Expr::Binary {
            left,
            op: BinOp::Or,
            right,
        } => {
            let a = atom_selectivity(left, input, db);
            let b = atom_selectivity(right, input, db);
            (a + b - a * b).clamp(0.0, 1.0)
        }
        Expr::Unary {
            op: mtc_sql::UnaryOp::Not,
            expr,
        } => 1.0 - atom_selectivity(expr, input, db),
        Expr::Literal(Value::Bool(true)) => 1.0,
        Expr::Literal(Value::Bool(false)) => 0.0,
        _ => DEFAULT_RANGE,
    }
}

/// Selectivity of a join predicate (product of per-conjunct estimates; the
/// equi-join rule is `1 / max(distinct(left key), distinct(right key))`).
fn join_selectivity(
    pred: &Expr,
    left: &LogicalPlan,
    right: &LogicalPlan,
    db: &Database,
) -> f64 {
    let mut sel = 1.0;
    for conjunct in pred.split_conjuncts() {
        if let Expr::Binary {
            left: a,
            op: BinOp::Eq,
            right: b,
        } = conjunct
        {
            if let (Expr::Column(ca), Expr::Column(cb)) = (&**a, &**b) {
                let da = distinct_of(&Expr::Column(ca.clone()), left, db)
                    .or_else(|| distinct_of(&Expr::Column(ca.clone()), right, db));
                let dbv = distinct_of(&Expr::Column(cb.clone()), right, db)
                    .or_else(|| distinct_of(&Expr::Column(cb.clone()), left, db));
                let d = da.unwrap_or(10.0).max(dbv.unwrap_or(10.0)).max(1.0);
                sel *= 1.0 / d;
                continue;
            }
        }
        // Non-equi conjunct: reuse single-table machinery against the join
        // input that holds the column(s).
        sel *= atom_selectivity(conjunct, left, db).max(0.01);
    }
    sel.clamp(0.0, 1.0)
}

/// Distinct-value count of an expression (columns only).
fn distinct_of(expr: &Expr, input: &LogicalPlan, db: &Database) -> Option<f64> {
    if let Expr::Column(c) = expr {
        column_stats(c, input, db).map(|(s, t)| {
            if s.distinct_count > 0 {
                s.distinct_count as f64
            } else {
                (t.row_count as f64).max(1.0)
            }
        })
    } else {
        None
    }
}

/// Finds the statistics object for a (possibly qualified) column name by
/// searching the `Get` leaves under `input`.
pub fn column_stats<'a>(
    name: &str,
    input: &LogicalPlan,
    db: &'a Database,
) -> Option<(&'a ColumnStats, &'a TableStats)> {
    let suffix = name.rsplit('.').next().unwrap_or(name);
    for leaf in input.leaves() {
        let LogicalPlan::Get { object, schema, .. } = leaf else {
            continue;
        };
        if object.is_empty() || schema.index_of(name).is_err() {
            continue;
        }
        if let Some(table_stats) = db.catalog.stats(object) {
            if let Some(col_stats) = table_stats.column(suffix) {
                return Some((col_stats, table_stats));
            }
        }
    }
    None
}

/// Looks up a literal value (no columns, no parameters).
fn literal_of(expr: &Expr) -> Option<Value> {
    match expr {
        Expr::Literal(v) => Some(v.clone()),
        Expr::Unary {
            op: mtc_sql::UnaryOp::Neg,
            expr,
        } => match literal_of(expr)? {
            Value::Int(i) => Some(Value::Int(-i)),
            Value::Float(f) => Some(Value::Float(-f)),
            _ => None,
        },
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::binder::bind_select;
    use mtc_sql::{parse_statement, Statement};
    use mtc_types::{row, Column, DataType};

    fn db_with_data() -> Database {
        let mut db = Database::new("t");
        db.create_table(
            "customer",
            mtc_types::Schema::new(vec![
                Column::not_null("cid", DataType::Int),
                Column::new("cname", DataType::Str),
                Column::new("segment", DataType::Str),
            ]),
            &["cid".into()],
        )
        .unwrap();
        let changes: Vec<_> = (1..=1000)
            .map(|i| mtc_storage::RowChange::Insert {
                table: "customer".into(),
                row: row![i, format!("c{i}"), if i % 4 == 0 { "GOLD" } else { "BASE" }],
            })
            .collect();
        db.apply(0, changes).unwrap();
        db.analyze();
        db
    }

    fn plan_of(db: &Database, sql: &str) -> LogicalPlan {
        let Statement::Select(sel) = parse_statement(sql).unwrap() else {
            panic!()
        };
        bind_select(&sel, db).unwrap()
    }

    #[test]
    fn base_table_estimate_uses_stats() {
        let db = db_with_data();
        let plan = plan_of(&db, "SELECT * FROM customer");
        assert_eq!(estimate_rows(&plan, &db), 1000.0);
    }

    #[test]
    fn range_filter_estimate() {
        let db = db_with_data();
        let plan = plan_of(&db, "SELECT * FROM customer WHERE cid <= 250");
        let est = estimate_rows(&plan, &db);
        assert!((est - 250.0).abs() < 60.0, "estimate {est} should be ~250");
    }

    #[test]
    fn equality_estimate() {
        let db = db_with_data();
        let plan = plan_of(&db, "SELECT * FROM customer WHERE segment = 'GOLD'");
        let est = estimate_rows(&plan, &db);
        assert!((est - 500.0).abs() < 5.0, "2 distinct values → half: {est}");
    }

    #[test]
    fn conjunction_multiplies() {
        let db = db_with_data();
        let plan = plan_of(
            &db,
            "SELECT * FROM customer WHERE cid <= 500 AND segment = 'GOLD'",
        );
        let est = estimate_rows(&plan, &db);
        assert!(est < 300.0, "both filters should compound: {est}");
    }

    #[test]
    fn shadow_stats_still_estimate() {
        // The whole point of the shadow database: estimates without data.
        let db = db_with_data().shadow_clone();
        let plan = plan_of(&db, "SELECT * FROM customer WHERE cid <= 250");
        let est = estimate_rows(&plan, &db);
        assert!((est - 250.0).abs() < 60.0, "shadow estimate {est}");
    }

    #[test]
    fn top_caps_estimate() {
        let db = db_with_data();
        let plan = plan_of(&db, "SELECT TOP 10 * FROM customer");
        assert_eq!(estimate_rows(&plan, &db), 10.0);
    }

    #[test]
    fn group_by_estimates_groups() {
        let db = db_with_data();
        let plan = plan_of(
            &db,
            "SELECT segment, COUNT(*) FROM customer GROUP BY segment",
        );
        let est = estimate_rows(&plan, &db);
        assert!((est - 2.0).abs() < 0.5, "2 segments: {est}");
    }
}
