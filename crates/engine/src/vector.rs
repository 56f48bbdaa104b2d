//! Vectorized expression evaluation over [`RowBatch`]es.
//!
//! The streaming operators in [`crate::stream`] flow column batches, not
//! rows. This module supplies the batch-aware evaluation kernels:
//!
//! * [`eval_filter_sel`] — evaluates a predicate over a batch and returns
//!   the surviving *physical* row indices (a selection vector). Conjunction
//!   and disjunction recurse over shrinking candidate lists, and the common
//!   `col <op> constant` / `col IS NULL` shapes run as tight typed loops
//!   over the column storage — no `Value` is materialized for fixed-width
//!   cells. Anything else falls back to per-row evaluation through
//!   [`BatchRowSrc`].
//! * [`eval_project_col`] — evaluates one projection expression into a
//!   dense output column aligned with the batch's live rows. A plain
//!   column reference on an unfiltered batch is a pure `Arc` share.
//! * [`BatchRowSrc`] / [`JoinSrc`] — [`ValueSource`] adapters that let the
//!   compiled evaluator read cells straight out of batches (and
//!   batch-pairs, for join predicates) without building a `Row`.
//! * [`KeyIndex`] — the one keyed table of the hash join, hash aggregation
//!   and DISTINCT, keyed by `u64` cell hashes computed column-at-a-time by
//!   [`mtc_types::batch`]'s `fold_hash_*` kernels (a full FNV-style mix
//!   per cell, so its `PreHashedBuild` identity hasher does not hash
//!   again). Only same-key → same-chain matters; a chain keeps insertion
//!   order, so the hasher never affects output.
//!
//! Semantics match the row-at-a-time path bit-for-bit on results. Two
//! deliberate divergences exist for *error/evaluation order* only (pinned
//! in DESIGN.md §12): `AND` does not evaluate its right operand on rows
//! where the left was UNKNOWN (three-valued logic makes the outcome
//! identical), and errors inside a batch may surface from a different row
//! than strict row-major order would pick.

use std::cmp::Ordering;
use std::collections::HashMap;
use std::sync::Arc;

use mtc_sql::BinOp;
use mtc_util::lru::PreHashedBuild;

use mtc_types::{ColBuilder, ColData, ColumnVec, Result, Row, RowBatch, Text, Value};

use crate::compile::{CompiledExpr, EvalEnv, ValueSource};
use crate::eval::truth;

// ---------------------------------------------------------------------------
// Keyed table
// ---------------------------------------------------------------------------

/// The executor's one keyed table (hash join build side, GROUP BY groups,
/// DISTINCT first occurrences): a folded key hash → the chain of ids
/// inserted under it, in insertion order, linked through one vector
/// indexed by id, so nothing is allocated per key. A chain holds every id
/// whose key *hashes* alike: the caller confirms each candidate.
#[derive(Default)]
pub(crate) struct KeyIndex {
    /// hash → (first, last) id of its chain.
    ends: HashMap<u64, (u32, u32), PreHashedBuild>,
    /// `next[id]`: the id after `id` in its chain, or `u32::MAX`.
    next: Vec<u32>,
}

impl KeyIndex {
    pub(crate) fn with_capacity(n: usize) -> KeyIndex {
        let ends = HashMap::with_capacity_and_hasher(n, PreHashedBuild::default());
        KeyIndex { ends, next: Vec::with_capacity(n) }
    }

    /// Appends `id`, inserted once, to `hash`'s chain.
    pub(crate) fn insert(&mut self, hash: u64, id: u32) {
        self.next.resize(self.next.len().max(id as usize + 1), u32::MAX);
        let (_, last) = self.ends.entry(hash).or_insert((id, id));
        if *last != id {
            self.next[*last as usize] = id;
            *last = id;
        }
    }

    /// The ids inserted under `hash`, in insertion order.
    pub(crate) fn chain(&self, hash: u64) -> impl Iterator<Item = u32> + '_ {
        let first = self.ends.get(&hash).map(|&(first, _)| first);
        std::iter::successors(first, |&id| Some(self.next[id as usize]).filter(|&n| n != u32::MAX))
    }
}

// ---------------------------------------------------------------------------
// ValueSource adapters
// ---------------------------------------------------------------------------

/// Reads one physical row of a batch as a [`ValueSource`].
pub(crate) struct BatchRowSrc<'a> {
    pub batch: &'a RowBatch,
    /// Physical row index (pre-selection).
    pub row: usize,
}

impl ValueSource for BatchRowSrc<'_> {
    #[inline]
    fn value_at(&self, i: usize) -> Value {
        self.batch.value_at(self.row, i)
    }
}

/// One side of a join row: a batch cell, a borrowed row, or a slice of
/// already-evaluated values (index-seek inner projections).
pub(crate) enum Side<'a> {
    Batch(&'a RowBatch, usize),
    Row(&'a Row),
    Values(&'a [Value]),
}

impl Side<'_> {
    #[inline]
    fn value_at(&self, i: usize) -> Value {
        match self {
            Side::Batch(b, phys) => b.value_at(*phys, i),
            Side::Row(r) => r[i].clone(),
            Side::Values(v) => v[i].clone(),
        }
    }
}

/// A logical concatenation of two sides, for evaluating join predicates
/// over the combined schema without materializing the joined row.
pub(crate) struct JoinSrc<'a> {
    pub left: Side<'a>,
    pub left_width: usize,
    pub right: Side<'a>,
}

impl ValueSource for JoinSrc<'_> {
    #[inline]
    fn value_at(&self, i: usize) -> Value {
        if i < self.left_width {
            self.left.value_at(i)
        } else {
            self.right.value_at(i - self.left_width)
        }
    }
}

// ---------------------------------------------------------------------------
// Vectorized filter
// ---------------------------------------------------------------------------

/// Evaluates `pred` over the live rows of `batch`, returning the surviving
/// physical indices in order. Result rows are exactly those where the
/// predicate is TRUE (UNKNOWN and FALSE both drop the row).
pub(crate) fn eval_filter_sel(
    pred: &CompiledExpr,
    batch: &RowBatch,
    env: EvalEnv<'_>,
) -> Result<Vec<u32>> {
    let cands: Vec<u32> = match batch.sel() {
        Some(s) => s.to_vec(),
        None => (0..batch.phys_rows() as u32).collect(),
    };
    filter_cands(pred, batch, env, cands)
}

/// Recursive core: narrows `cands` (ascending physical indices) to the rows
/// where `pred` is TRUE.
fn filter_cands(
    pred: &CompiledExpr,
    batch: &RowBatch,
    env: EvalEnv<'_>,
    cands: Vec<u32>,
) -> Result<Vec<u32>> {
    // No candidates → nothing is evaluated (matches the row path, where a
    // predicate over zero rows can never raise, e.g. an unbound parameter).
    if cands.is_empty() {
        return Ok(cands);
    }
    match pred {
        CompiledExpr::Const(v) => Ok(if truth(v) == Some(true) {
            cands
        } else {
            Vec::new()
        }),
        CompiledExpr::Binary {
            left,
            op: BinOp::And,
            right,
        } => {
            let l = filter_cands(left, batch, env, cands)?;
            filter_cands(right, batch, env, l)
        }
        CompiledExpr::Binary {
            left,
            op: BinOp::Or,
            right,
        } => {
            let l = filter_cands(left, batch, env, cands.clone())?;
            let rest = sorted_diff(&cands, &l);
            let r = filter_cands(right, batch, env, rest)?;
            Ok(sorted_merge(l, r))
        }
        CompiledExpr::Binary { left, op, right } if op.is_comparison() => {
            if let CompiledExpr::Col(c) = &**left {
                if let Some(k) = scalar_operand(right, env)? {
                    return Ok(cmp_filter(batch.col(*c), *op, &k, cands));
                }
            }
            if let CompiledExpr::Col(c) = &**right {
                if let Some(k) = scalar_operand(left, env)? {
                    return Ok(cmp_filter(batch.col(*c), flip(*op), &k, cands));
                }
            }
            row_fallback(pred, batch, env, cands)
        }
        CompiledExpr::IsNull { expr, negated } => {
            if let CompiledExpr::Col(c) = &**expr {
                let col = batch.col(*c);
                return Ok(cands
                    .into_iter()
                    .filter(|&i| col.is_null(i as usize) != *negated)
                    .collect());
            }
            row_fallback(pred, batch, env, cands)
        }
        _ => row_fallback(pred, batch, env, cands),
    }
}

/// A predicate operand usable by the typed comparison loops: a constant or
/// a bound parameter. `Ok(None)` means "not scalar, take the fallback".
fn scalar_operand(e: &CompiledExpr, env: EvalEnv<'_>) -> Result<Option<Value>> {
    match e {
        CompiledExpr::Const(v) => Ok(Some(v.clone())),
        // Candidates are non-empty here, so the row path would also have
        // resolved (and possibly failed on) the parameter.
        CompiledExpr::Param(slot) => env.param(*slot).map(Some),
        _ => Ok(None),
    }
}

/// Mirror image of a comparison for operand swap (`k < col` → `col > k`).
fn flip(op: BinOp) -> BinOp {
    match op {
        BinOp::Lt => BinOp::Gt,
        BinOp::Le => BinOp::Ge,
        BinOp::Gt => BinOp::Lt,
        BinOp::Ge => BinOp::Le,
        other => other,
    }
}

/// Ordering → boolean mapping, identical to `apply_cmp_arith`.
#[inline]
fn cmp_matches(op: BinOp, ord: Ordering) -> bool {
    match op {
        BinOp::Eq => ord == Ordering::Equal,
        BinOp::Neq => ord != Ordering::Equal,
        BinOp::Lt => ord == Ordering::Less,
        BinOp::Le => ord != Ordering::Greater,
        BinOp::Gt => ord == Ordering::Greater,
        BinOp::Ge => ord != Ordering::Less,
        _ => unreachable!("cmp_matches on non-comparison operator"),
    }
}

/// Typed `col <op> constant` filter. NULL cells and NULL constants yield
/// UNKNOWN and drop the row, exactly like `Value::sql_cmp`. Each typed arm
/// reproduces `Value`'s `Ord` for that family (`Int`/`Int` compares as
/// integers; `Int`↔`Float` through `f64::total_cmp`).
fn cmp_filter(col: &ColumnVec, op: BinOp, k: &Value, cands: Vec<u32>) -> Vec<u32> {
    if k.is_null() {
        return Vec::new();
    }
    let nulls = col.null_mask();
    macro_rules! typed {
        ($v:ident, $cmp:expr) => {
            cands
                .into_iter()
                .filter(|&i| {
                    let i = i as usize;
                    nulls.map(|m| !m[i]).unwrap_or(true) && cmp_matches(op, $cmp(&$v[i]))
                })
                .collect()
        };
    }
    match (col.data(), k) {
        (ColData::Int(v), Value::Int(k)) => typed!(v, |x: &i64| x.cmp(k)),
        (ColData::Int(v), Value::Float(k)) => typed!(v, |x: &i64| (*x as f64).total_cmp(k)),
        (ColData::Float(v), Value::Float(k)) => typed!(v, |x: &f64| x.total_cmp(k)),
        (ColData::Float(v), Value::Int(k)) => {
            let kf = *k as f64;
            typed!(v, |x: &f64| x.total_cmp(&kf))
        }
        (ColData::Bool(v), Value::Bool(k)) => typed!(v, |x: &bool| x.cmp(k)),
        (ColData::Str(v), Value::Str(k)) => typed!(v, |x: &Text| (**x).cmp(&**k)),
        (ColData::Timestamp(v), Value::Timestamp(k)) => typed!(v, |x: &i64| x.cmp(k)),
        // Mixed storage or a cross-family comparison: go through sql_cmp,
        // which encodes the type-rank ordering.
        _ => cands
            .into_iter()
            .filter(|&i| {
                col.value(i as usize)
                    .sql_cmp(k)
                    .map(|ord| cmp_matches(op, ord))
                    .unwrap_or(false)
            })
            .collect(),
    }
}

/// Per-row fallback through the compiled evaluator.
fn row_fallback(
    pred: &CompiledExpr,
    batch: &RowBatch,
    env: EvalEnv<'_>,
    cands: Vec<u32>,
) -> Result<Vec<u32>> {
    let mut out = Vec::with_capacity(cands.len());
    for i in cands {
        let src = BatchRowSrc {
            batch,
            row: i as usize,
        };
        if pred.eval_predicate_src(&src, env)? == Some(true) {
            out.push(i);
        }
    }
    Ok(out)
}

/// `all \ remove`, both ascending; preserves order.
fn sorted_diff(all: &[u32], remove: &[u32]) -> Vec<u32> {
    let mut out = Vec::with_capacity(all.len().saturating_sub(remove.len()));
    let mut r = remove.iter().peekable();
    for &i in all {
        while let Some(&&x) = r.peek() {
            if x < i {
                r.next();
            } else {
                break;
            }
        }
        if r.peek() == Some(&&i) {
            r.next();
        } else {
            out.push(i);
        }
    }
    out
}

/// Merge of two disjoint ascending lists.
fn sorted_merge(a: Vec<u32>, b: Vec<u32>) -> Vec<u32> {
    if a.is_empty() {
        return b;
    }
    if b.is_empty() {
        return a;
    }
    let mut out = Vec::with_capacity(a.len() + b.len());
    let (mut ai, mut bi) = (0, 0);
    while ai < a.len() && bi < b.len() {
        if a[ai] < b[bi] {
            out.push(a[ai]);
            ai += 1;
        } else {
            out.push(b[bi]);
            bi += 1;
        }
    }
    out.extend_from_slice(&a[ai..]);
    out.extend_from_slice(&b[bi..]);
    out
}

// ---------------------------------------------------------------------------
// Vectorized projection
// ---------------------------------------------------------------------------

/// Evaluates one projection expression into a dense column aligned with the
/// batch's live rows (output length == `batch.len()`). A bare column
/// reference on an unfiltered batch shares the input column (`Arc` bump);
/// on a filtered batch it gathers the live cells; everything else
/// evaluates per live row.
pub(crate) fn eval_project_col(
    expr: &CompiledExpr,
    batch: &RowBatch,
    env: EvalEnv<'_>,
) -> Result<Arc<ColumnVec>> {
    match expr {
        CompiledExpr::Col(c) => match batch.sel() {
            None => Ok(batch.col_arc(*c)),
            Some(sel) => Ok(Arc::new(batch.col(*c).gather(sel))),
        },
        CompiledExpr::Const(v) => {
            let mut b = ColBuilder::with_capacity(batch.len());
            for _ in 0..batch.len() {
                b.push_ref(v);
            }
            Ok(Arc::new(b.finish()))
        }
        _ => {
            let mut b = ColBuilder::with_capacity(batch.len());
            for phys in batch.live() {
                b.push(expr.eval_src(&BatchRowSrc { batch, row: phys }, env)?);
            }
            Ok(Arc::new(b.finish()))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compile::{compile_expr, ParamSlots};
    use mtc_sql::parse_expression;
    use mtc_types::{row, Column, DataType, Schema};

    fn schema() -> Schema {
        Schema::new(vec![
            Column::not_null("id", DataType::Int),
            Column::new("val", DataType::Float),
            Column::new("name", DataType::Str),
            Column::new("flag", DataType::Bool),
        ])
    }

    fn rows() -> Vec<Row> {
        vec![
            row![1, 1.5, "aa", true],
            row![2, Value::Null, "bb", false],
            row![3, 3.0, "aa", Value::Null],
            row![4, 0.5, Value::Null, true],
            row![5, 5.5, "cc", false],
            row![6, 2.0, "bb", true],
        ]
    }

    fn batch() -> RowBatch {
        RowBatch::from_rows(rows(), 4)
    }

    fn pred(sql: &str) -> CompiledExpr {
        let mut slots = ParamSlots::default();
        compile_expr(&parse_expression(sql).unwrap(), &schema(), &mut slots).unwrap()
    }

    /// Vectorized selection must match per-row predicate evaluation.
    fn check(sql: &str, b: &RowBatch) {
        let p = pred(sql);
        let got = eval_filter_sel(&p, b, EvalEnv::EMPTY).unwrap();
        let want: Vec<u32> = b
            .live()
            .filter(|&i| {
                p.eval_predicate_src(&BatchRowSrc { batch: b, row: i }, EvalEnv::EMPTY)
                    .unwrap()
                    == Some(true)
            })
            .map(|i| i as u32)
            .collect();
        assert_eq!(got, want, "predicate {sql}");
    }

    #[test]
    fn filter_matches_row_evaluation() {
        let b = batch();
        for sql in [
            "id > 2",
            "2 < id",
            "id >= 2 AND id <= 5",
            "val < 2.0",
            "val >= 1.5 OR name = 'bb'",
            "name = 'aa'",
            "name <> 'aa'",
            "id BETWEEN 2 AND 4",
            "val IS NULL",
            "name IS NOT NULL",
            "flag",
            "id % 2 = 0",
            "id = 3.0",
            "val > 1",
            "1 = 1",
            "NULL",
            "id IN (1, 3, 6)",
            "id NOT BETWEEN 2 AND 4",
        ] {
            check(sql, &b);
        }
    }

    #[test]
    fn filter_composes_with_existing_selection() {
        let b = batch().with_sel(vec![0, 2, 4, 5]);
        for sql in ["id > 2", "name = 'aa' OR val > 2.0", "val IS NOT NULL"] {
            check(sql, &b);
        }
    }

    #[test]
    fn unbound_param_errors_only_with_candidates() {
        let p = pred("id > @lim");
        // Non-empty batch: the parameter must resolve → error.
        let err = eval_filter_sel(&p, &batch(), EvalEnv::EMPTY).unwrap_err();
        assert!(err.to_string().contains("unbound parameter"));
        // Empty candidate set: never evaluated, like the row path.
        let empty = batch().with_sel(vec![]);
        assert_eq!(eval_filter_sel(&p, &empty, EvalEnv::EMPTY).unwrap(), vec![] as Vec<u32>);
    }

    #[test]
    fn bound_param_takes_typed_path() {
        let p = pred("id >= @lo");
        let params = [Some(Value::Int(4))];
        let names = ["lo".to_string()];
        let env = EvalEnv {
            params: &params,
            names: &names,
        };
        assert_eq!(eval_filter_sel(&p, &batch(), env).unwrap(), vec![3, 4, 5]);
    }

    #[test]
    fn project_shares_plain_columns() {
        let b = batch();
        let col = eval_project_col(&pred("id"), &b, EvalEnv::EMPTY).unwrap();
        assert!(Arc::ptr_eq(&col, &b.col_arc(0)), "unfiltered Col is an Arc share");

        // Filtered batch gathers instead.
        let narrowed = b.with_sel(vec![1, 3]);
        let g = eval_project_col(&pred("id"), &narrowed, EvalEnv::EMPTY).unwrap();
        assert_eq!(g.len(), 2);
        assert_eq!(g.value(0), Value::Int(2));
        assert_eq!(g.value(1), Value::Int(4));
    }

    #[test]
    fn project_matches_row_evaluation() {
        let b = batch().with_sel(vec![0, 2, 3, 5]);
        for sql in ["id * 2 + 1", "UPPER(name)", "val", "7", "id = 3"] {
            let e = pred(sql);
            let col = eval_project_col(&e, &b, EvalEnv::EMPTY).unwrap();
            let want: Vec<Value> = b
                .live()
                .map(|i| {
                    e.eval_src(&BatchRowSrc { batch: &b, row: i }, EvalEnv::EMPTY)
                        .unwrap()
                })
                .collect();
            assert_eq!(col.len(), want.len(), "projection {sql}");
            for (d, w) in want.iter().enumerate() {
                assert_eq!(col.value(d), *w, "projection {sql} row {d}");
            }
        }
    }

    #[test]
    fn join_src_concatenates_sides() {
        let b = batch();
        let extra = row![9, "z"];
        let src = JoinSrc {
            left: Side::Batch(&b, 2),
            left_width: 4,
            right: Side::Row(&extra),
        };
        assert_eq!(src.value_at(0), Value::Int(3));
        assert_eq!(src.value_at(4), Value::Int(9));
        assert_eq!(src.value_at(5), Value::str("z"));
        let vals = [Value::Bool(true)];
        let src2 = JoinSrc {
            left: Side::Row(&extra),
            left_width: 2,
            right: Side::Values(&vals),
        };
        assert_eq!(src2.value_at(2), Value::Bool(true));
    }

    #[test]
    fn key_index_chains_colliding_ids_in_order_and_equality_decides() {
        // Two different keys forced onto one hash: the chain keeps both, in
        // insertion order, and the cell comparison picks the match.
        let build = RowBatch::from_rows(vec![row![7], row![9], row![7]], 1);
        let mut index = KeyIndex::default();
        for id in [1, 0] {
            index.insert(42, id);
        }
        index.insert(5, 2);
        assert_eq!(index.chain(42).collect::<Vec<_>>(), [1, 0]);
        assert_eq!(index.chain(5).collect::<Vec<_>>(), [2]);
        assert_eq!(index.chain(6).count(), 0);
        let probe = RowBatch::from_rows(vec![row![7.0], row![9]], 1);
        let matching = |d: usize| {
            index
                .chain(42)
                .filter(|&id| probe.col(0).cell_eq(d, build.col(0), id as usize))
                .collect::<Vec<_>>()
        };
        assert_eq!(matching(0), [0], "7.0 = 7");
        assert_eq!(matching(1), [1]);
    }

    #[test]
    fn sorted_set_helpers() {
        assert_eq!(sorted_diff(&[1, 2, 3, 5], &[2, 5]), vec![1, 3]);
        assert_eq!(sorted_diff(&[1, 2], &[]), vec![1, 2]);
        assert_eq!(sorted_merge(vec![1, 4], vec![2, 3, 9]), vec![1, 2, 3, 4, 9]);
        assert_eq!(sorted_merge(vec![], vec![7]), vec![7]);
    }
}
