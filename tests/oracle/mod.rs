//! A naive reference evaluator for physical plans: each operator builds a
//! `Vec<Row>` with the tree-walking `eval`, sharing no code with `compile`,
//! `stream` or `parallel`. Its row order is the executor's: clustered-key
//! order (index order for index seeks and probes), groups and `DISTINCT`
//! rows in order of first appearance, a stable sort, right-unmatched last.

use std::cell::Cell;
use std::cmp::Ordering;
use std::collections::HashSet;
use std::ops::Bound;

use mtcache_repro::engine::physical::{PhysicalPlan, RemoteSite};
use mtcache_repro::engine::{
    eval, eval_predicate, AggCall, AggFunc, Bindings, ExecContext, ExecMetrics, QueryResult,
    RemoteExecutor,
};
use mtcache_repro::sql::{BinOp, Expr, JoinKind};
use mtcache_repro::storage::{Database, Index};
use mtcache_repro::types::{Error, Result, Row, Schema, Value};

/// Runs `plan` on `ctx`'s database, bindings and remote server. It charges
/// no work; the only counter it keeps is `remote_calls`.
pub fn run(plan: &PhysicalPlan, ctx: &ExecContext<'_>) -> Result<QueryResult> {
    let oracle = Oracle { db: ctx.db, params: ctx.params, remote: ctx.remote, calls: Cell::new(0) };
    let rows = oracle.rows(plan)?;
    let metrics = ExecMetrics { remote_calls: oracle.calls.get(), ..ExecMetrics::default() };
    Ok(QueryResult { schema: plan.schema().clone(), rows, metrics })
}

/// The rows, in their order, whose key (the `key` columns) lies between
/// `low` and `high` — each a key or a prefix of one, ordered value by value
/// with the shorter first — found by filtering every row: what a seek of
/// those bounds must return.
pub fn key_range<'r>(
    rows: impl Iterator<Item = &'r Row>,
    key: &[usize],
    (low, high): (Bound<&[Value]>, Bound<&[Value]>),
) -> Vec<Row> {
    let within = |k: &[Value]| {
        let above = match low { Bound::Included(b) => k >= b, Bound::Excluded(b) => k > b, _ => true };
        above && match high { Bound::Included(b) => k <= b, Bound::Excluded(b) => k < b, _ => true }
    };
    rows.filter(|r| within(&key.iter().map(|&c| r[c].clone()).collect::<Vec<_>>())).cloned().collect()
}

struct Oracle<'a> {
    db: &'a Database,
    params: &'a Bindings,
    remote: Option<&'a dyn RemoteExecutor>,
    calls: Cell<u64>,
}

impl<'a> Oracle<'a> {
    fn rows(&self, plan: &PhysicalPlan) -> Result<Vec<Row>> {
        use PhysicalPlan as P;
        Ok(match plan {
            P::Nothing { .. } => vec![Row::new(vec![])],
            // A seek yields its predicate's rows in key order: the table or index, filtered.
            P::SeqScan { object, schema, predicate }
            | P::ClusteredSeek { object, schema, predicate, .. } => {
                self.check_bounds(plan)?;
                let rows = self.db.table_ref(object)?.scan().cloned().collect();
                self.filter(rows, schema, predicate.as_ref())?
            }
            P::IndexSeek { index, schema, predicate, .. } => {
                self.check_bounds(plan)?;
                let entries = self.index(index)?.range(Bound::Unbounded, Bound::Unbounded);
                self.filter(entries.map(|r| Row::clone(r)).collect(), schema, predicate.as_ref())?
            }
            P::Filter { input, predicate } => {
                self.filter(self.rows(input)?, input.schema(), Some(predicate))?
            }
            P::Project { input, exprs, .. } => {
                let rows = self.rows(input)?;
                rows.iter().map(|r| self.project(exprs, r, input.schema())).collect::<Result<_>>()?
            }
            P::NestedLoopJoin { left, right, kind, on, schema } => {
                self.join(left, right, *kind, on.as_ref(), schema)?
            }
            // A nested loop over key equalities and residual; NULL keys match nothing.
            P::HashJoin { left, right, left_keys, right_keys, kind, residual, schema } => {
                let eq = |(l, r): (&Expr, &Expr)| Expr::binary(l.clone(), BinOp::Eq, r.clone());
                let keys = left_keys.iter().zip(right_keys).map(eq);
                let on = Expr::conjunction(keys.chain(residual.clone()));
                self.join(left, right, *kind, on.as_ref(), schema)?
            }
            P::HashAggregate { input, group_by, aggs, .. } => {
                // Per group in order of first appearance: its key and each aggregate's
                // non-NULL values (`COUNT(*)` sees 1s); no GROUP BY is one group, even empty.
                let schema = input.schema();
                let mut groups: Vec<(Vec<Value>, Vec<Vec<Value>>)> = Vec::new();
                if group_by.is_empty() {
                    groups.push((Vec::new(), vec![Vec::new(); aggs.len()]));
                }
                for row in self.rows(input)? {
                    let key = group_by.iter().map(|g| eval(g, &row, schema, self.params));
                    let key = key.collect::<Result<Vec<_>>>()?;
                    let g = groups.iter().position(|(k, _)| *k == key).unwrap_or(groups.len());
                    if g == groups.len() {
                        groups.push((key, vec![Vec::new(); aggs.len()]));
                    }
                    for (call, seen) in aggs.iter().zip(&mut groups[g].1) {
                        let arg = call.arg.as_ref().map(|a| eval(a, &row, schema, self.params));
                        let v = arg.unwrap_or(Ok(Value::Int(1)))?;
                        seen.extend((!v.is_null()).then_some(v));
                    }
                }
                let finished = groups.into_iter().map(|(key, seen)| {
                    let values = aggs.iter().zip(seen).map(|(call, seen)| finish(call, seen));
                    Row::new(key.into_iter().chain(values).collect())
                });
                finished.collect()
            }
            P::Sort { input, keys } => {
                let (schema, mut keyed) = (input.schema(), Vec::new());
                for row in self.rows(input)? {
                    let key = keys.iter().map(|k| eval(&k.expr, &row, schema, self.params));
                    keyed.push((key.collect::<Result<Vec<_>>>()?, row));
                }
                keyed.sort_by(|(a, _), (b, _)| {
                    let by_key = keys.iter().zip(a.iter().zip(b));
                    let by_key = by_key.map(|(k, (a, b))| if k.asc { a.cmp(b) } else { b.cmp(a) });
                    by_key.fold(Ordering::Equal, Ordering::then)
                });
                keyed.into_iter().map(|(_, row)| row).collect()
            }
            P::Top { input, n } => self.rows(input)?.into_iter().take(*n as usize).collect(),
            P::Distinct { input } => {
                let mut seen = HashSet::new();
                self.rows(input)?.into_iter().filter(|r| seen.insert(r.clone())).collect()
            }
            P::UnionAll { inputs, startup_predicates, .. } => {
                let mut out = Vec::new();
                for (branch, guard) in inputs.iter().zip(startup_predicates) {
                    let open = self.holds(guard.as_ref(), &Row::new(vec![]), &Schema::empty())?;
                    out.extend(if open { self.rows(branch)? } else { Vec::new() });
                }
                out
            }
            P::IndexNlJoin {
                outer, inner_object, inner_index, outer_key, inner_exprs,
                inner_row_schema, inner_schema, kind, residual, schema,
            } => {
                let table = self.db.table_ref(inner_object)?;
                let mut out = Vec::new();
                for orow in self.rows(outer)? {
                    let key = Row::new(vec![eval(outer_key, &orow, outer.schema(), self.params)?]);
                    let inner: Vec<&Row> = match inner_index {
                        _ if key[0].is_null() => Vec::new(),
                        Some(ix) => self.index(ix)?.seek(&key).map(|r| &**r).collect(),
                        None => table.get(&key).into_iter().collect(),
                    };
                    let before = out.len();
                    for irow in inner {
                        let project = |e: &Vec<_>| self.project(e, irow, inner_row_schema);
                        let irow = inner_exprs.as_ref().map_or(Ok(irow.clone()), project)?;
                        let joined = orow.join(&irow);
                        if self.holds(residual.as_ref(), &joined, schema)? {
                            out.push(joined);
                        }
                    }
                    if out.len() == before && *kind == JoinKind::Left {
                        out.push(orow.join(&Row::new(vec![Value::Null; inner_schema.len()])));
                    }
                }
                out
            }
            P::ExtremeSeek { object, key_index, is_max, .. } => {
                let table = self.db.table_ref(object)?;
                let row = if *is_max { table.last_row() } else { table.first_row() };
                vec![Row::new(vec![row.map_or(Value::Null, |r| r[*key_index].clone())])]
            }
            P::Remote { sql, site, .. } => {
                let remote = self.remote.ok_or_else(|| Error::execution("no remote server"))?;
                self.calls.set(self.calls.get() + 1);
                let outcome = match site {
                    RemoteSite::Backend => remote.execute_remote_outcome(sql, self.params)?,
                    RemoteSite::Peer { node, .. } => remote.execute_peer(node, sql, self.params)?,
                };
                outcome.result.rows
            }
        })
    }

    fn project(&self, exprs: &[(Expr, String)], row: &Row, schema: &Schema) -> Result<Row> {
        let values = exprs.iter().map(|(e, _)| eval(e, row, schema, self.params));
        values.collect::<Result<_>>().map(Row::new)
    }

    /// An absent predicate holds; a present one holds only when TRUE.
    fn holds(&self, p: Option<&Expr>, row: &Row, schema: &Schema) -> Result<bool> {
        p.map_or(Ok(true), |p| Ok(eval_predicate(p, row, schema, self.params)? == Some(true)))
    }

    fn filter(&self, rows: Vec<Row>, schema: &Schema, p: Option<&Expr>) -> Result<Vec<Row>> {
        let keep = rows.iter().map(|r| self.holds(p, r, schema)).collect::<Result<Vec<_>>>()?;
        Ok(rows.into_iter().zip(keep).filter(|(_, k)| *k).map(|(r, _)| r).collect())
    }

    /// A seek bound as an inclusive one-column key; the leaf's predicate re-checks it.
    /// Evaluates a seek's bounds for the errors they raise; nothing else.
    fn check_bounds(&self, seek: &PhysicalPlan) -> Result<()> {
        if let PhysicalPlan::ClusteredSeek { low, high, .. } | PhysicalPlan::IndexSeek { low, high, .. } = seek {
            for b in [low, high].into_iter().flatten() {
                eval(&b.expr, &Row::new(vec![]), &Schema::empty(), self.params)?;
            }
        }
        Ok(())
    }

    fn index(&self, name: &str) -> Result<&'a Index> {
        (self.db.index(name)).ok_or_else(|| Error::catalog(format!("index `{name}` not found")))
    }

    /// Every (left, right) pair on which `on` holds, left-major, the right
    /// side in its own order; then the outer join's unmatched rows.
    fn join(
        &self,
        left: &PhysicalPlan,
        right: &PhysicalPlan,
        kind: JoinKind,
        on: Option<&Expr>,
        schema: &Schema,
    ) -> Result<Vec<Row>> {
        let (lrows, rrows) = (self.rows(left)?, self.rows(right)?);
        let mut right_matched = vec![false; rrows.len()];
        let mut out = Vec::new();
        for l in &lrows {
            let before = out.len();
            for (r, matched) in rrows.iter().zip(&mut right_matched) {
                let joined = l.join(r);
                if self.holds(on, &joined, schema)? {
                    *matched = true;
                    out.push(joined);
                }
            }
            if out.len() == before && matches!(kind, JoinKind::Left | JoinKind::Full) {
                out.push(l.join(&Row::new(vec![Value::Null; right.schema().len()])));
            }
        }
        if matches!(kind, JoinKind::Right | JoinKind::Full) {
            let unmatched = rrows.iter().zip(right_matched).filter(|(_, m)| !m);
            let nulls = Row::new(vec![Value::Null; left.schema().len()]);
            out.extend(unmatched.map(|(r, _)| nulls.join(r)));
        }
        Ok(out)
    }
}

/// One aggregate over the non-NULL values its group saw. Of equal extremes
/// the first wins (`min` keeps the first, `max` the last, hence `rev`).
fn finish(call: &AggCall, mut seen: Vec<Value>) -> Value {
    let mut once = HashSet::new();
    seen.retain(|v| !call.distinct || once.insert(v.clone()));
    let nums: Vec<f64> = seen.iter().filter_map(Value::as_f64).collect();
    let sum = nums.iter().fold(0.0, |a, b| a + b);
    let exact = !seen.iter().any(|v| matches!(v, Value::Float(_) | Value::Timestamp(_)));
    match call.func {
        AggFunc::Count => Value::Int(seen.len() as i64),
        AggFunc::Sum | AggFunc::Avg if nums.is_empty() => Value::Null,
        AggFunc::Sum if exact && sum.fract() == 0.0 => Value::Int(sum as i64),
        AggFunc::Sum => Value::Float(sum),
        AggFunc::Avg => Value::Float(sum / nums.len() as f64),
        AggFunc::Min => seen.iter().min().cloned().unwrap_or(Value::Null),
        AggFunc::Max => seen.iter().rev().max().cloned().unwrap_or(Value::Null),
    }
}
