//! Access-path and local join-strategy selection: which index (if any)
//! serves a filtered scan, which side of a join can be an index
//! nested-loop lookup, and the `MIN/MAX(pk)` one-seek pattern. Pure
//! functions of the catalog and statistics; the placement pass in
//! [`super::location`] prices and records their choices.

use mtc_sql::{BinOp, Expr};
use mtc_storage::Database;
use mtc_types::Schema;

use crate::logical::{DataLocation, LogicalPlan};
use crate::optimizer::cardinality::selectivity;
use crate::optimizer::cost::CostModel;
use crate::physical::{KeyBound, PhysicalPlan};

const INF: f64 = f64::INFINITY;

/// A qualifying inner side for an index nested-loop join.
pub(super) struct InljInner {
    pub(super) object: String,
    /// Secondary index to seek; `None` = clustered key.
    pub(super) index: Option<String>,
    /// Projection applied per fetched row (from a Project over the Get).
    pub(super) exprs: Option<Vec<(Expr, String)>>,
    /// Schema of fetched rows (the Get's schema).
    pub(super) row_schema: Schema,
    /// Output schema of this side (post projection).
    pub(super) out_schema: Schema,
    /// Expected matching rows per seek.
    avg_matches: f64,
}

/// Does `side` qualify as the lookup side of an index nested-loop join on
/// `key_name`? It must be a bare local `Get` (or a plain-column `Project`
/// over one) whose join key is the table's single-column clustering key or
/// a single-column secondary index.
fn inlj_inner(side: &LogicalPlan, key_name: &str, db: &Database) -> Option<InljInner> {
    let (get, exprs, out_schema) = match side {
        LogicalPlan::Get { .. } => (side, None, side.schema().clone()),
        LogicalPlan::Project {
            input,
            exprs,
            schema,
        } if matches!(**input, LogicalPlan::Get { .. })
            && exprs.iter().all(|(e, _)| matches!(e, Expr::Column(_))) =>
        {
            (&**input, Some(exprs.clone()), schema.clone())
        }
        _ => return None,
    };
    let LogicalPlan::Get {
        object,
        schema: get_schema,
        location: DataLocation::Local,
        ..
    } = get
    else {
        return None;
    };
    if object.is_empty() {
        return None;
    }
    // Resolve the join key through the optional projection to the Get.
    let underlying = match &exprs {
        Some(list) => {
            let idx = out_schema.index_of(key_name).ok()?;
            let (e, _) = list.get(idx)?;
            let Expr::Column(c) = e else { return None };
            c.clone()
        }
        None => key_name.to_string(),
    };
    let col_idx = get_schema.index_of(&underlying).ok()?;
    let table = db.table_ref(object).ok()?;
    let stats = db.catalog.stats(object);
    let col_name = &table.schema().column(col_idx).name;
    let avg_matches = stats
        .and_then(|t| t.column(col_name).map(|c| (t, c)))
        .map(|(t, c)| {
            if c.distinct_count > 0 {
                (t.row_count as f64 / c.distinct_count as f64).max(1.0)
            } else {
                10.0
            }
        })
        .unwrap_or(10.0);
    // The clustering key itself, else a secondary index on exactly the key.
    let index = if table.primary_key() == [col_idx] {
        None
    } else {
        let ix = db.indexes_of(object).find(|ix| ix.columns() == [col_idx])?;
        Some(ix.name().to_string())
    };
    Some(InljInner {
        object: object.clone(),
        index,
        exprs,
        row_schema: get_schema.clone(),
        out_schema,
        avg_matches,
    })
}

/// Per-operator cost of an index nested-loop join.
pub(super) fn inlj_op_cost(cm: &CostModel, outer_rows: f64, inner: &InljInner, out_rows: f64) -> f64 {
    // Secondary-index seeks pay an extra base-table lookup per match.
    let lookups = if inner.index.is_some() { 2.0 } else { 1.0 };
    let per_seek = cm.seek_cost + cm.cpu_per_row * inner.avg_matches * lookups;
    outer_rows.max(0.0) * per_seek + cm.cpu_per_row * out_rows.max(0.0)
}

/// The INLJ alternatives for a join: (outer side is left?, inner, key pair).
/// Only the first equi pair is used for the seek; the rest stay residual.
pub(super) fn inlj_options<'a>(
    on: &Option<Expr>,
    left: &'a LogicalPlan,
    right: &'a LogicalPlan,
    kind: mtc_sql::JoinKind,
    db: &Database,
) -> Vec<(bool, InljInner, Expr, Expr)> {
    let mut out = Vec::new();
    let Some((lk, rk, _)) = extract_equi_keys(on, left.schema(), right.schema()) else {
        return out;
    };
    let (Some(Expr::Column(lc)), Some(Expr::Column(rc))) = (lk.first(), rk.first()) else {
        return out;
    };
    // Inner on the right: works for Inner/Cross and LEFT outer joins.
    if matches!(
        kind,
        mtc_sql::JoinKind::Inner | mtc_sql::JoinKind::Cross | mtc_sql::JoinKind::Left
    ) {
        if let Some(inner) = inlj_inner(right, rc, db) {
            out.push((true, inner, Expr::Column(lc.clone()), Expr::Column(rc.clone())));
        }
    }
    // Inner on the left: only for Inner/Cross (sides swap).
    if matches!(kind, mtc_sql::JoinKind::Inner | mtc_sql::JoinKind::Cross) {
        if let Some(inner) = inlj_inner(left, lc, db) {
            out.push((false, inner, Expr::Column(rc.clone()), Expr::Column(lc.clone())));
        }
    }
    out
}

/// Detects the `SELECT MIN/MAX(pk) FROM t` pattern over a *local* table
/// with a single-column clustering key: answerable by one B-tree descent.
/// Returns `(object, key_index, is_max)`.
pub(super) fn extreme_seek_pattern<'a>(
    plan: &'a LogicalPlan,
    db: &Database,
) -> Option<(&'a str, usize, bool)> {
    let LogicalPlan::Aggregate {
        input,
        group_by,
        aggs,
        ..
    } = plan
    else {
        return None;
    };
    if !group_by.is_empty() || aggs.len() != 1 {
        return None;
    }
    let call = &aggs[0];
    if call.distinct {
        return None;
    }
    let is_max = match call.func {
        crate::logical::AggFunc::Max => true,
        crate::logical::AggFunc::Min => false,
        _ => return None,
    };
    let Some(Expr::Column(col)) = &call.arg else {
        return None;
    };
    // Tolerate a plain column-renaming Project between the Aggregate and
    // the Get (view substitution inserts one): map the aggregate's column
    // through it.
    let (source, col) = match &**input {
        LogicalPlan::Project {
            input: proj_input,
            exprs,
            schema: proj_schema,
        } => {
            let idx = proj_schema.index_of(col).ok()?;
            let (expr, _name) = exprs.get(idx)?;
            let Expr::Column(underlying) = expr else {
                return None;
            };
            (&**proj_input, underlying.clone())
        }
        other => (other, col.clone()),
    };
    let LogicalPlan::Get {
        object,
        schema,
        location: DataLocation::Local,
        ..
    } = source
    else {
        return None;
    };
    if object.is_empty() {
        return None;
    }
    let table = db.table_ref(object).ok()?;
    let [pk] = table.primary_key() else {
        return None;
    };
    let idx = schema.index_of(&col).ok()?;
    if idx != *pk {
        return None;
    }
    Some((object.as_str(), *pk, is_max))
}

// ---------------------------------------------------------------------------
// Access paths
// ---------------------------------------------------------------------------

/// A chosen access path for a filtered scan.
pub struct Access {
    pub kind: AccessKind,
    pub cost: f64,
}

pub enum AccessKind {
    Seq,
    Clustered {
        low: Option<KeyBound>,
        high: Option<KeyBound>,
    },
    Index {
        name: String,
        low: Option<KeyBound>,
        high: Option<KeyBound>,
    },
}

impl Access {
    pub(super) fn to_physical(&self, object: &str, schema: &Schema, predicate: &Expr) -> PhysicalPlan {
        // The full predicate is re-checked as a residual: seeks narrow the
        // range, the residual guarantees exactness (incl. NULL semantics).
        match &self.kind {
            AccessKind::Seq => PhysicalPlan::SeqScan {
                object: object.to_string(),
                schema: schema.clone(),
                predicate: Some(predicate.clone()),
            },
            AccessKind::Clustered { low, high } => PhysicalPlan::ClusteredSeek {
                object: object.to_string(),
                schema: schema.clone(),
                low: low.clone(),
                high: high.clone(),
                predicate: Some(predicate.clone()),
            },
            AccessKind::Index { name, low, high } => PhysicalPlan::IndexSeek {
                object: object.to_string(),
                index: name.clone(),
                schema: schema.clone(),
                low: low.clone(),
                high: high.clone(),
                predicate: Some(predicate.clone()),
            },
        }
    }
}

/// Chooses the cheapest access path for scanning `object` under `predicate`.
pub fn best_access(
    db: &Database,
    object: &str,
    predicate: &Expr,
    cm: &CostModel,
    input_for_stats: &LogicalPlan,
) -> Access {
    let table = match db.table_ref(object) {
        Ok(t) => t,
        Err(_) => {
            return Access {
                kind: AccessKind::Seq,
                cost: INF,
            }
        }
    };
    let mut total_rows = db
        .catalog
        .stats(object)
        .map(|s| s.row_count as f64)
        .unwrap_or(1000.0);
    // Statistics date from the last ANALYZE; a table that holds its rows
    // here may have grown since (a shadow table has only the statistics).
    if !table.is_shadow() {
        total_rows = total_rows.max(table.row_count() as f64);
    }
    let conjuncts: Vec<&Expr> = predicate.split_conjuncts();

    let mut best = Access {
        kind: AccessKind::Seq,
        cost: cm.scan(total_rows) + cm.filter(total_rows),
    };

    // Clustered (primary key) seek — single-column keys only.
    if let [pk_idx] = table.primary_key() {
        let pk_name = &table.schema().column(*pk_idx).name;
        if let Some((low, high, consumed)) = bounds_for(pk_name, &conjuncts) {
            let matching = total_rows
                * consumed_selectivity(&consumed, input_for_stats, db);
            let cost = cm.seek(matching) + cm.filter(matching);
            // Equality on the whole clustering key finds at most one row
            // however large the table grows: taken outright, because a
            // cached plan outlives the row count it was costed with.
            let point = is_point(&low, &high);
            if point || cost < best.cost {
                best = Access {
                    kind: AccessKind::Clustered { low, high },
                    cost,
                };
            }
            if point {
                return best;
            }
        }
    }

    // Secondary single-column indexes.
    for ix in db.indexes_of(object) {
        let [col_idx] = ix.columns() else { continue };
        let col_name = &table.schema().column(*col_idx).name;
        if let Some((low, high, consumed)) = bounds_for(col_name, &conjuncts) {
            let matching =
                total_rows * consumed_selectivity(&consumed, input_for_stats, db);
            // Secondary seeks pay an extra lookup per matching row.
            let cost = cm.seek(matching) + cm.seek_cost * matching.min(1000.0) * 0.1
                + cm.filter(matching);
            if cost < best.cost {
                best = Access {
                    kind: AccessKind::Index {
                        name: ix.name().to_string(),
                        low,
                        high,
                    },
                    cost,
                };
            }
        }
    }

    best
}

/// Do the bounds pin the key to one value (`key = E`)?
fn is_point(low: &Option<KeyBound>, high: &Option<KeyBound>) -> bool {
    matches!((low, high), (Some(l), Some(h)) if l.inclusive && h.inclusive && l.expr == h.expr)
}

fn consumed_selectivity(consumed: &[Expr], input: &LogicalPlan, db: &Database) -> f64 {
    match Expr::conjunction(consumed.iter().cloned()) {
        Some(pred) => selectivity(&pred, input, db),
        None => 1.0,
    }
}

/// Extracts seek bounds for `column` from sargable conjuncts. Returns
/// `(low, high, consumed_atoms)`; `None` when no conjunct constrains the
/// column.
fn bounds_for(column: &str, conjuncts: &[&Expr]) -> Option<(Option<KeyBound>, Option<KeyBound>, Vec<Expr>)> {
    let mut low: Option<KeyBound> = None;
    let mut high: Option<KeyBound> = None;
    let mut consumed = Vec::new();
    for c in conjuncts {
        let Some((col, op, bound)) = sarg_atom(c) else {
            continue;
        };
        if col.rsplit('.').next() != Some(column) && col != column {
            continue;
        }
        match op {
            BinOp::Eq => {
                low = Some(KeyBound {
                    expr: bound.clone(),
                    inclusive: true,
                });
                high = Some(KeyBound {
                    expr: bound,
                    inclusive: true,
                });
            }
            BinOp::Le => {
                high = tighten(high, bound, true, false);
            }
            BinOp::Lt => {
                high = tighten(high, bound, false, false);
            }
            BinOp::Ge => {
                low = tighten(low, bound, true, true);
            }
            BinOp::Gt => {
                low = tighten(low, bound, false, true);
            }
            _ => continue,
        }
        consumed.push((*c).clone());
    }
    if low.is_none() && high.is_none() {
        None
    } else {
        Some((low, high, consumed))
    }
}

/// Replaces a bound when the new literal is tighter (runtime params always
/// replace, conservatively).
fn tighten(
    current: Option<KeyBound>,
    bound: Expr,
    inclusive: bool,
    is_low: bool,
) -> Option<KeyBound> {
    match (&current, &bound) {
        (Some(cur), Expr::Literal(new)) => {
            if let Expr::Literal(old) = &cur.expr {
                let tighter = if is_low { new > old } else { new < old };
                if tighter {
                    return Some(KeyBound {
                        expr: bound,
                        inclusive,
                    });
                }
                return current;
            }
            current
        }
        _ => Some(KeyBound {
            expr: bound,
            inclusive,
        }),
    }
}

/// `col OP bound` where bound is parameter-only (literal or `@param`).
fn sarg_atom(atom: &Expr) -> Option<(String, BinOp, Expr)> {
    match atom {
        Expr::Binary { left, op, right } if op.is_comparison() => match (&**left, &**right) {
            (Expr::Column(c), b) if b.is_parameter_only() => {
                Some((c.clone(), *op, b.clone()))
            }
            (b, Expr::Column(c)) if b.is_parameter_only() => {
                Some((c.clone(), op.flip(), b.clone()))
            }
            _ => None,
        },
        _ => None,
    }
}

/// Splits an equi-join predicate into hash keys and a residual.
pub fn extract_equi_keys(
    on: &Option<Expr>,
    left: &Schema,
    right: &Schema,
) -> Option<(Vec<Expr>, Vec<Expr>, Option<Expr>)> {
    let on = on.as_ref()?;
    let mut lk = Vec::new();
    let mut rk = Vec::new();
    let mut residual = Vec::new();
    for c in on.split_conjuncts() {
        if let Expr::Binary {
            left: a,
            op: BinOp::Eq,
            right: b,
        } = c
        {
            if let (Expr::Column(ca), Expr::Column(cb)) = (&**a, &**b) {
                if left.index_of(ca).is_ok() && right.index_of(cb).is_ok() {
                    lk.push(Expr::Column(ca.clone()));
                    rk.push(Expr::Column(cb.clone()));
                    continue;
                }
                if left.index_of(cb).is_ok() && right.index_of(ca).is_ok() {
                    lk.push(Expr::Column(cb.clone()));
                    rk.push(Expr::Column(ca.clone()));
                    continue;
                }
            }
        }
        residual.push(c.clone());
    }
    if lk.is_empty() {
        None
    } else {
        Some((lk, rk, Expr::conjunction(residual)))
    }
}
