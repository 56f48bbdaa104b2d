//! Predicate pushdown normalization.
//!
//! Splits filters into conjuncts and pushes each as deep as possible: below
//! the side of a join that covers its columns, merged into inner-join
//! predicates, or down to sit directly above the `Get` it constrains. This
//! runs before view matching so each `Get` sees the full set of conjuncts
//! that apply to it.

use mtc_sql::{BinOp, Expr, JoinKind};
use mtc_types::Schema;

use crate::logical::{DataLocation, LogicalPlan};

/// Normalizes a plan by pushing filter conjuncts down.
pub fn push_filters(plan: LogicalPlan) -> LogicalPlan {
    match plan {
        LogicalPlan::Filter { input, predicate } => {
            let input = push_filters(*input);
            let conjuncts: Vec<Expr> =
                predicate.split_conjuncts().into_iter().cloned().collect();
            push_conjuncts(input, conjuncts)
        }
        other => other.map_children(push_filters),
    }
}

/// Pushes a list of conjuncts into `plan`, leaving what cannot sink as a
/// Filter on top.
fn push_conjuncts(plan: LogicalPlan, conjuncts: Vec<Expr>) -> LogicalPlan {
    if conjuncts.is_empty() {
        return plan;
    }
    match plan {
        LogicalPlan::Join {
            left,
            right,
            kind,
            on,
            schema,
        } if matches!(kind, JoinKind::Inner | JoinKind::Cross) => {
            let mut conjuncts = conjuncts;
            let implied = implied_equalities(&conjuncts, on.as_ref(), &left, &right);
            conjuncts.extend(implied);
            let mut to_left = Vec::new();
            let mut to_right = Vec::new();
            let mut to_join = Vec::new();
            for c in conjuncts {
                if covered(&c, left.schema()) {
                    to_left.push(c);
                } else if covered(&c, right.schema()) {
                    to_right.push(c);
                } else {
                    to_join.push(c);
                }
            }
            let left = push_conjuncts(*left, to_left);
            let right = push_conjuncts(*right, to_right);
            // Cross joins that gain an equi-conjunct become inner joins.
            let (kind, on) = if to_join.is_empty() {
                (kind, on)
            } else {
                let mut all: Vec<Expr> = on.iter().cloned().collect();
                all.extend(to_join);
                (JoinKind::Inner, Expr::conjunction(all))
            };
            LogicalPlan::Join {
                left: Box::new(left),
                right: Box::new(right),
                kind,
                on,
                schema,
            }
        }
        LogicalPlan::Filter { input, predicate } => {
            // Merge stacked filters, then retry.
            let mut all: Vec<Expr> = predicate.split_conjuncts().into_iter().cloned().collect();
            all.extend(conjuncts);
            push_conjuncts(*input, all)
        }
        // Anything else: leave the filter directly above.
        other => LogicalPlan::Filter {
            input: Box::new(other),
            predicate: Expr::conjunction(conjuncts).expect("nonempty"),
        },
    }
}

/// The equality closure over an inner join: from `a = b` (a conjunct or
/// part of the join's own predicate) and `a = E` with `E` parameter-only
/// follows `b = E`, which restricts `b`'s side of the join before the join
/// instead of after it. Without it a side that is fetched on its own — a
/// table the cache does not hold, joined to a cached one — is fetched whole.
///
/// A side that is a local `Get` no conjunct filters gets no derived conjunct
/// either: the join can already look such a side up by `b` (an index
/// nested-loop join), and a filter on top of it would take that plan away.
fn implied_equalities(
    conjuncts: &[Expr],
    on: Option<&Expr>,
    left: &LogicalPlan,
    right: &LogicalPlan,
) -> Vec<Expr> {
    let mut pairs: Vec<(&str, &str)> = Vec::new();
    // `column = E` facts: the ones written down first, derived ones after.
    let mut bound: Vec<(&str, &Expr)> = Vec::new();
    let joined = on.map(Expr::split_conjuncts).unwrap_or_default();
    for c in conjuncts.iter().chain(joined) {
        let Expr::Binary {
            left: l,
            op: BinOp::Eq,
            right: r,
        } = c
        else {
            continue;
        };
        match (&**l, &**r) {
            (Expr::Column(a), Expr::Column(b)) => pairs.push((a, b)),
            (Expr::Column(a), e) | (e, Expr::Column(a)) if e.is_parameter_only() => {
                bound.push((a, e))
            }
            _ => {}
        }
    }
    let written = bound.len();
    // To a fixpoint, so `a = b AND b = c AND a = E` reaches `c`.
    let mut at = 0;
    while at < bound.len() {
        let (col, e) = bound[at];
        at += 1;
        for &(a, b) in &pairs {
            let other = if a == col {
                b
            } else if b == col {
                a
            } else {
                continue;
            };
            if !bound.iter().any(|&(c, known)| c == other && known == e) {
                bound.push((other, e));
            }
        }
    }
    bound[written..]
        .iter()
        .map(|&(col, e)| (Expr::Column(col.to_string()), e))
        .filter(|(col, _)| {
            ![left, right].into_iter().any(|side| {
                matches!(
                    input_holding(side, col),
                    Some(get @ LogicalPlan::Get {
                        location: DataLocation::Local,
                        ..
                    }) if !conjuncts.iter().any(|c| covered(c, get.schema()))
                )
            })
        })
        .map(|(col, e)| Expr::binary(col, BinOp::Eq, e.clone()))
        .collect()
}

/// The join input under `plan` that `col` comes from: `plan` itself, or —
/// through nested inner joins, which conjuncts sink through — the input of
/// the innermost join that covers it.
fn input_holding<'a>(plan: &'a LogicalPlan, col: &Expr) -> Option<&'a LogicalPlan> {
    if !covered(col, plan.schema()) {
        return None;
    }
    if let LogicalPlan::Join {
        left,
        right,
        kind: JoinKind::Inner | JoinKind::Cross,
        ..
    } = plan
    {
        return input_holding(left, col).or_else(|| input_holding(right, col));
    }
    Some(plan)
}

/// Does `schema` cover every column referenced by `expr`?
pub fn covered(expr: &Expr, schema: &Schema) -> bool {
    expr.columns().iter().all(|c| schema.index_of(c).is_ok())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::binder::bind_select;
    use mtc_sql::{parse_statement, Statement};
    use mtc_storage::Database;
    use mtc_types::{Column, DataType};

    fn db() -> Database {
        let mut db = Database::new("t");
        db.create_table(
            "a",
            Schema::new(vec![
                Column::not_null("x", DataType::Int),
                Column::new("y", DataType::Int),
            ]),
            &["x".into()],
        )
        .unwrap();
        db.create_table(
            "b",
            Schema::new(vec![
                Column::not_null("x", DataType::Int),
                Column::new("z", DataType::Int),
            ]),
            &["x".into()],
        )
        .unwrap();
        db
    }

    fn normalized(sql: &str) -> LogicalPlan {
        normalized_on(&db(), sql)
    }

    fn normalized_on(db: &Database, sql: &str) -> LogicalPlan {
        let Statement::Select(sel) = parse_statement(sql).unwrap() else {
            panic!()
        };
        push_filters(bind_select(&sel, db).unwrap())
    }

    #[test]
    fn pushes_single_side_conjuncts_below_join() {
        let plan = normalized(
            "SELECT * FROM a AS l, b AS r WHERE l.x = r.x AND l.y > 5 AND r.z = 2",
        );
        let text = plan.explain();
        // The join predicate stays at the join; the single-side conjuncts
        // sit directly above their Gets.
        let join_line = text.lines().find(|l| l.contains("Join")).unwrap();
        assert!(join_line.contains("l.x = r.x"), "{text}");
        assert!(!join_line.contains("l.y > 5"), "{text}");
        assert!(text.contains("Filter l.y > 5"), "{text}");
        assert!(text.contains("Filter r.z = 2"), "{text}");
    }

    #[test]
    fn cross_join_becomes_inner_join() {
        let plan = normalized("SELECT * FROM a AS l, b AS r WHERE l.x = r.x");
        assert!(plan.explain().contains("INNER JOIN"), "{}", plan.explain());
    }

    #[test]
    fn filter_stays_on_single_table() {
        let plan = normalized("SELECT x FROM a WHERE x <= 10 AND y > 2");
        let text = plan.explain();
        assert!(text.contains("Filter"), "{text}");
        assert!(text.contains("Get a"), "{text}");
    }

    #[test]
    fn no_pushdown_through_outer_join() {
        let plan = normalized(
            "SELECT * FROM a AS l LEFT JOIN b AS r ON l.x = r.x WHERE r.z = 1",
        );
        let text = plan.explain();
        // Predicate must remain above the outer join.
        let filter_pos = text.find("Filter r.z = 1").unwrap();
        let join_pos = text.find("Join").unwrap();
        assert!(filter_pos < join_pos, "{text}");
    }

    #[test]
    fn equality_closure_restricts_a_side_fetched_on_its_own() {
        // On a cache every base table is a shadow: each side of the join is
        // fetched from the backend unless a view covers it.
        let shadow = db().shadow_clone();
        for sql in [
            "SELECT * FROM a AS l, b AS r WHERE l.x = @p AND r.x = l.x",
            "SELECT * FROM a AS l INNER JOIN b AS r ON l.x = r.x WHERE @p = l.x",
        ] {
            let text = normalized_on(&shadow, sql).explain();
            assert!(text.contains("Filter r.x = @p"), "{sql}\n{text}");
            assert_eq!(text.matches("@p").count(), 2, "derived once: {text}");
        }
        // Only equality carries over, and only to a parameter-only value.
        let text = normalized_on(
            &shadow,
            "SELECT * FROM a AS l, b AS r WHERE l.x < @p AND l.y = r.z AND r.x = l.x",
        )
        .explain();
        assert_eq!(text.matches("@p").count(), 1, "{text}");
    }

    #[test]
    fn equality_closure_leaves_a_side_the_join_can_look_up() {
        // Both tables local (the backend): the join seeks `b` by `x` per
        // outer row, which a filter on top of `Get b` would rule out.
        let text =
            normalized("SELECT * FROM a AS l, b AS r WHERE l.x = @p AND r.x = l.x").explain();
        assert!(!text.contains("r.x = @p"), "{text}");
        // A side that is filtered anyway takes the derived conjunct too.
        let text = normalized(
            "SELECT * FROM a AS l, b AS r WHERE l.x = @p AND r.x = l.x AND r.z > 1",
        )
        .explain();
        assert!(text.contains("r.x = @p"), "{text}");
    }

    #[test]
    fn equality_closure_is_transitive_across_nested_joins() {
        let mut three = db();
        three
            .create_table(
                "c",
                Schema::new(vec![Column::not_null("x", DataType::Int)]),
                &["x".into()],
            )
            .unwrap();
        let text = normalized_on(
            &three.shadow_clone(),
            "SELECT * FROM a AS l, b AS r, c AS m WHERE l.x = 7 AND r.x = l.x AND m.x = r.x",
        )
        .explain();
        assert!(text.contains("Filter r.x = 7"), "{text}");
        assert!(text.contains("Filter m.x = 7"), "{text}");
    }
}
