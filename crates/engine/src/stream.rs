//! Pull-based streaming execution of compiled plans (Volcano with
//! zero-copy column batches).
//!
//! This is the one executor ([`crate::exec::execute`] compiles a plan and
//! runs it here), single-threaded: one query, one operator tree, one core.
//! Each operator implements [`BatchStream::next_batch`] and pulls
//! [`BATCH_SIZE`]-row [`RowBatch`]es from its children on demand. Batches
//! are **columnar** and `Arc`-shared (see [`mtc_types::batch`]):
//!
//! * the three access paths — sequential scan, clustered seek and
//!   secondary-index seek — are one leaf ([`ScanStream`]) that builds each
//!   batch column-wise straight from the borrowed storage rows —
//!   fixed-width cells are copied into typed vectors, strings are
//!   `Arc`-bumped, and no `Row` is ever cloned — and only the columns the
//!   compiled plan kept (see [`crate::compile`]'s leaf pruning),
//! * `Filter` emits the same columns plus a **selection vector** of
//!   surviving physical indices ([`crate::vector::eval_filter_sel`]), so
//!   survivors are never moved,
//! * `Project` of a bare column reference shares the input column (an
//!   `Arc` bump), and `Top` narrows the selection in place,
//! * blocking operators (DISTINCT, hash-agg, hash-join builds, sort)
//!   retain whole input batches and reference rows as `(batch, row)`
//!   handles instead of cloning them,
//! * owned `Row`s are materialized exactly once, at the root of a client
//!   statement's execution, where the volume is tallied into
//!   [`ExecMetrics::bytes_materialized`]; an execution whose answer
//!   crosses a tier keeps the root's batches instead
//!   ([`crate::exec::Answer`]).
//!
//! `Top` still stops pulling — and its whole subtree stops scanning — as
//! soon as the limit is reached, and UnionAll branches are only *built*
//! after their startup predicate passes, preserving the ChoosePlan "a
//! closed branch is never opened" contract (§5.1) down to the table-lookup
//! level.
//!
//! Work units are the optimizer's [`crate::optimizer::cost::CostModel`]
//! formulas, charged incrementally as rows flow, so `local_work` and
//! `remote_work` count the rows an execution actually touched.
//! [`crate::exec::ExecMetrics::rows_cloned`]
//! makes the zero-copy contract observable: read-only plans report **zero**
//! cloned rows on this path (pinned by the clone-budget tests).

use std::ops::Bound;
use std::sync::Arc;

use mtc_sql::{JoinKind, Prepared};
use mtc_storage::{Database, Index, Rows, Table};
use mtc_types::batch::HASH_SEED;
use mtc_types::{ColumnVec, Error, Result, Row, RowBatch, RowBatchBuilder, Value};

use crate::compile::{
    CompiledAgg, CompiledBound, CompiledExpr, CompiledPlan, CompiledQuery, CompiledSortKey,
    EvalEnv,
};
use crate::eval::Bindings;
use crate::exec::{
    AggState, Answer, Collect, ExecContext, ExecMetrics, QueryResult, RemoteExecutor,
};
use crate::optimizer::cost::CostModel;
use crate::vector::{
    eval_filter_sel, eval_project_col, BatchRowSrc, JoinSrc, KeyIndex, Side,
};

/// Rows per batch. Large enough to amortize per-batch dispatch to nothing,
/// small enough that a pipeline's working set stays cache-resident
/// (1024 rows × a few dozen bytes ≈ tens of KiB per operator).
pub const BATCH_SIZE: usize = 1024;

/// First-batch row target for scans. Starting small and growing
/// geometrically to [`BATCH_SIZE`] means a `TOP n` pipeline never pays to
/// build ~1000 rows it will discard, while full scans amortize the extra
/// batch boundaries to noise within three pulls.
const FIRST_BATCH: usize = 64;

/// Everything the streaming operators need at run time.
pub(crate) struct StreamCtx<'e> {
    pub db: &'e Database,
    pub remote: Option<&'e dyn RemoteExecutor>,
    /// Original name→value bindings, for SQL shipped to the backend.
    pub params: &'e Bindings,
    pub work: &'e CostModel,
    /// Resolved parameter slots for compiled-expression evaluation.
    pub env: EvalEnv<'e>,
    /// Intermediate-result memo probed for fully local join/aggregate
    /// subtrees (see [`FragmentMemo`]); `None` executes every fragment.
    pub memo: Option<&'e dyn FragmentMemo>,
}

/// A memo for intermediate (subplan) results: the caller-provided cache the
/// executor probes before computing a fully local join or aggregate subtree
/// and offers the computed rows to afterwards.
///
/// The `key` is a canonical fingerprint of the *compiled* subtree — operator
/// shapes, objects, indexes and expressions with parameters abstracted to
/// slots (the plan-cache normalization) — concatenated with the resolved
/// parameter values, so two statements sharing a subplan shape and bindings
/// share an entry. `objects` names every table/view the subtree scanned;
/// the implementation owns currency: it decides validity (invalidation
/// watermarks, catalog versions) and may decline admission entirely. `work`
/// is the local work units computing the fragment cost — the entry's
/// benefit in a cost-aware admission rule.
pub trait FragmentMemo {
    /// Returns the memoized rows for `key`, if a currently valid entry
    /// exists.
    fn lookup(&self, key: &str) -> Option<Vec<Row>>;
    /// Offers a freshly computed fragment for admission.
    fn admit(&self, key: &str, objects: &[String], rows: &[Row], work: f64);
}

/// A pull-based operator: yields `Some(batch)` until exhausted.
pub(crate) trait BatchStream<'e> {
    fn next_batch(&mut self, cx: &StreamCtx<'e>, m: &mut ExecMetrics)
        -> Result<Option<RowBatch>>;
}

type BoxStream<'e> = Box<dyn BatchStream<'e> + 'e>;

/// Executes a compiled query by streaming batches from the root. A
/// [`CompiledPlan::Remote`] ships its statement when it is first pulled, so
/// a closed UnionAll branch or a satisfied `TOP n` never ships one.
pub fn execute_compiled(query: &CompiledQuery, ctx: &ExecContext<'_>) -> Result<QueryResult> {
    execute_compiled_with_memo(query, ctx, None)
}

/// [`execute_compiled`] with an intermediate-result memo attached: fully
/// local join/aggregate subtrees are probed against (and admitted to)
/// `memo` — see [`FragmentMemo`]. `None` is exactly `execute_compiled`.
pub fn execute_compiled_with_memo(
    query: &CompiledQuery,
    ctx: &ExecContext<'_>,
    memo: Option<&dyn FragmentMemo>,
) -> Result<QueryResult> {
    QueryResult::execute(query, ctx, memo)
}

/// The one execution loop: pulls the root's batches into `collect` —
/// appended as owned rows for a client ([`QueryResult`]), kept as they are
/// for another tier ([`crate::exec::Answer`]) — and returns what the
/// execution cost.
pub(crate) fn run_compiled(
    query: &CompiledQuery,
    ctx: &ExecContext<'_>,
    memo: Option<&dyn FragmentMemo>,
    mut collect: impl FnMut(RowBatch, &mut ExecMetrics),
) -> Result<ExecMetrics> {
    // Parameter slots live on the stack unless there are more of them than
    // a hand-written statement has.
    let mut inline: [Option<Value>; 8] = Default::default();
    let spilled: Vec<Option<Value>>;
    let n = query.slots.len();
    let resolved: &[Option<Value>] = if n <= inline.len() {
        query.slots.resolve_into(ctx.params, &mut inline[..n]);
        &inline[..n]
    } else {
        spilled = query.slots.resolve(ctx.params);
        &spilled
    };
    let env = EvalEnv {
        params: resolved,
        names: query.slots.names(),
    };
    let cx = StreamCtx {
        db: ctx.db,
        remote: ctx.remote,
        params: ctx.params,
        work: ctx.work,
        env,
        memo,
    };
    let mut metrics = ExecMetrics::default();
    let mut root = build(&query.root, &cx, &mut metrics)?;
    while let Some(batch) = root.next_batch(&cx, &mut metrics)? {
        collect(batch, &mut metrics);
    }
    Ok(metrics)
}

/// Builds the stream for `plan`, first consulting the attached
/// [`FragmentMemo`] (if any) for join/aggregate subtrees that are fully
/// local: a memo hit replays the memoized rows instead of building (or
/// pulling) the subtree at all; a miss computes the fragment eagerly under
/// its own metrics, offers it for admission, and replays the computed rows.
/// Everything non-memoizable falls straight through to [`build_op`].
fn build<'e>(
    plan: &'e CompiledPlan,
    cx: &StreamCtx<'e>,
    m: &mut ExecMetrics,
) -> Result<BoxStream<'e>> {
    if let Some(memo) = cx.memo {
        if matches!(
            plan,
            CompiledPlan::HashJoin { .. } | CompiledPlan::HashAggregate { .. }
        ) && plan.is_local()
        {
            let key = fragment_key(plan, cx);
            m.fragment_probes += 1;
            if let Some(rows) = memo.lookup(&key) {
                m.fragment_hits += 1;
                m.local_rows += rows.len() as u64;
                return Ok(replay(rows));
            }
            // Miss: compute the fragment eagerly under its own metrics so
            // its cost can ride into the memo as the entry's benefit.
            let mut fm = ExecMetrics::default();
            let mut stream = build_op(plan, cx, &mut fm)?;
            let mut rows: Vec<Row> = Vec::new();
            while let Some(batch) = stream.next_batch(cx, &mut fm)? {
                batch.append_rows(&mut rows);
            }
            drop(stream);
            let mut objects = Vec::new();
            fragment_objects(plan, &mut objects);
            objects.sort();
            objects.dedup();
            memo.admit(&key, &objects, &rows, fm.local_work);
            m.absorb(&fm);
            return Ok(replay(rows));
        }
    }
    build_op(plan, cx, m)
}

/// Canonical fingerprint of a compiled subtree plus the statement's
/// resolved parameter values. The `Debug` rendering of [`CompiledPlan`] is
/// deterministic and parameter-abstracted (slots, not values) — the same
/// normalization the plan cache keys on — so two statements sharing the
/// subplan shape produce the same prefix; appending every resolved slot
/// value is a conservative superset of the slots the subtree actually
/// reads (never a false hit, possibly a missed share).
fn fragment_key(plan: &CompiledPlan, cx: &StreamCtx<'_>) -> String {
    format!("{plan:?}|{:?}", cx.env.params)
}

/// Collects every table/view a local subtree scans — the objects whose
/// replication watermarks govern a memoized fragment's validity.
fn fragment_objects(plan: &CompiledPlan, out: &mut Vec<String>) {
    match plan {
        CompiledPlan::SeqScan { object, .. }
        | CompiledPlan::ClusteredSeek { object, .. }
        | CompiledPlan::IndexSeek { object, .. }
        | CompiledPlan::ExtremeSeek { object, .. } => out.push(object.clone()),
        CompiledPlan::Filter { input, .. }
        | CompiledPlan::Project { input, .. }
        | CompiledPlan::HashAggregate { input, .. }
        | CompiledPlan::Sort { input, .. }
        | CompiledPlan::Top { input, .. }
        | CompiledPlan::Distinct { input } => fragment_objects(input, out),
        CompiledPlan::NestedLoopJoin { left, right, .. }
        | CompiledPlan::HashJoin { left, right, .. } => {
            fragment_objects(left, out);
            fragment_objects(right, out);
        }
        CompiledPlan::IndexNlJoin {
            outer,
            inner_object,
            ..
        } => {
            out.push(inner_object.clone());
            fragment_objects(outer, out);
        }
        CompiledPlan::UnionAll { inputs, .. } => {
            for input in inputs {
                fragment_objects(input, out);
            }
        }
        CompiledPlan::Nothing | CompiledPlan::Remote { .. } => {}
    }
}

/// Wraps owned rows as a one-batch stream (empty rows ⇒ empty stream).
fn replay<'e>(rows: Vec<Row>) -> BoxStream<'e> {
    let batches = if rows.is_empty() {
        Vec::new()
    } else {
        let width = rows[0].len();
        vec![RowBatch::from_rows(rows, width)]
    };
    Box::new(BuiltStream {
        batches: batches.into_iter(),
    })
}

/// Builds the operator tree for `plan`. Table/index resolution (and the
/// shadow-table refusal) happens here, so a UnionAll branch whose guard is
/// closed never touches the catalog — `build` for branches runs lazily.
fn build_op<'e>(
    plan: &'e CompiledPlan,
    cx: &StreamCtx<'e>,
    m: &mut ExecMetrics,
) -> Result<BoxStream<'e>> {
    Ok(match plan {
        CompiledPlan::Nothing => Box::new(NothingStream { done: false }),

        CompiledPlan::SeqScan {
            object,
            cols,
            predicate,
        }
        | CompiledPlan::ClusteredSeek {
            object,
            cols,
            predicate,
            ..
        }
        | CompiledPlan::IndexSeek {
            object,
            cols,
            predicate,
            ..
        } => build_leaf(plan, object, cols.as_deref(), predicate.as_ref(), cx, m)?,

        CompiledPlan::Filter { input, predicate } => Box::new(FilterStream {
            input: build(input, cx, m)?,
            predicate,
        }),

        CompiledPlan::Project {
            input,
            exprs,
            stages,
        } => Box::new(ProjectStream {
            input: build(input, cx, m)?,
            exprs,
            // An all-column-reference projection (the planner's usual
            // output shape) reduces to sharing input columns + selection.
            shares_cols: !exprs.is_empty()
                && exprs.iter().all(|e| matches!(e, CompiledExpr::Col(_))),
            stages: *stages,
        }),

        CompiledPlan::NestedLoopJoin {
            left,
            right,
            kind,
            on,
            left_width,
            right_width,
        } => Box::new(NlJoinStream {
            left: build(left, cx, m)?,
            right: build(right, cx, m)?,
            on: on.as_ref(),
            kind: *kind,
            left_width: *left_width,
            right_width: *right_width,
            right_side: None,
            right_matched: Vec::new(),
            left_seen: 0,
            done: false,
        }),

        CompiledPlan::HashJoin {
            left,
            right,
            left_keys,
            right_keys,
            kind,
            residual,
            left_width,
            right_width,
        } => Box::new(HashJoinStream {
            left: build(left, cx, m)?,
            right: build(right, cx, m)?,
            left_keys,
            right_keys,
            kind: *kind,
            residual: residual.as_ref(),
            left_width: *left_width,
            right_width: *right_width,
            built: None,
            right_matched: Vec::new(),
            done: false,
        }),

        CompiledPlan::HashAggregate {
            input,
            group_by,
            aggs,
        } => Box::new(HashAggStream {
            input: build(input, cx, m)?,
            group_by,
            aggs,
            output: None,
        }),

        CompiledPlan::Sort { input, keys } => Box::new(SortStream {
            input: build(input, cx, m)?,
            keys,
            output: None,
        }),

        CompiledPlan::Top { input, n } => Box::new(TopStream {
            input: build(input, cx, m)?,
            remaining: *n,
        }),

        CompiledPlan::Distinct { input } => Box::new(DistinctStream {
            input: build(input, cx, m)?,
            kept: Vec::new(),
            seen: Vec::new(),
            lookup: KeyIndex::default(),
        }),

        CompiledPlan::UnionAll { inputs, guards } => Box::new(UnionAllStream {
            inputs,
            guards,
            idx: 0,
            current: None,
        }),

        CompiledPlan::IndexNlJoin {
            outer,
            inner_object,
            inner_index,
            outer_key,
            inner_exprs,
            inner_width,
            kind,
            residual,
        } => {
            let table = cx.db.table_ref(inner_object)?;
            if table.is_shadow() {
                return Err(Error::execution(format!(
                    "attempted local seek on shadow table `{inner_object}`"
                )));
            }
            let index = match inner_index {
                Some(name) => Some(cx.db.index(name).ok_or_else(|| {
                    Error::catalog(format!("index `{name}` not found"))
                })?),
                None => None,
            };
            Box::new(IndexNlJoinStream {
                outer: build(outer, cx, m)?,
                table,
                index,
                outer_key,
                inner_exprs: inner_exprs.as_deref(),
                inner_width: *inner_width,
                kind: *kind,
                residual: residual.as_ref(),
            })
        }

        CompiledPlan::ExtremeSeek {
            object,
            key_index,
            is_max,
        } => {
            let table = cx.db.table_ref(object)?;
            if table.is_shadow() {
                return Err(Error::execution(format!(
                    "attempted local seek on shadow table `{object}`"
                )));
            }
            Box::new(ExtremeSeekStream {
                table,
                key_index: *key_index,
                is_max: *is_max,
                done: false,
            })
        }

        CompiledPlan::Remote {
            sql,
            arity,
            row_width,
            site,
        } => Box::new(RemoteStream {
            sql,
            arity: *arity,
            row_width: *row_width,
            site,
            answer: None,
        }),
    })
}

// ---------------------------------------------------------------------------
// Helpers
// ---------------------------------------------------------------------------

/// Builds an access-path leaf — `SeqScan`, `ClusteredSeek` or `IndexSeek`
/// — as one [`ScanStream`] over the borrowed rows its range covers: the
/// whole table, a clustered key range, or a secondary index's range (whose
/// entries are the table's rows). The leaf builds only `cols` (every column
/// when `None`) and re-checks `predicate` over them.
fn build_leaf<'e>(
    plan: &'e CompiledPlan,
    object: &str,
    cols: Option<&'e [usize]>,
    predicate: Option<&'e CompiledExpr>,
    cx: &StreamCtx<'e>,
    m: &mut ExecMetrics,
) -> Result<BoxStream<'e>> {
    let table = cx.db.table_ref(object)?;
    if table.is_shadow() {
        return Err(Error::execution(format!(
            "attempted local read of shadow table `{object}`"
        )));
    }
    let rows = match plan {
        CompiledPlan::ClusteredSeek { low, high, .. } => {
            seek_rows(cx.db, table, None, low, high, cx.env)?
        }
        CompiledPlan::IndexSeek {
            index, low, high, ..
        } => seek_rows(cx.db, table, Some(index), low, high, cx.env)?,
        _ => table.scan_range(None, None),
    };
    if !matches!(plan, CompiledPlan::SeqScan { .. }) {
        // One B-tree descent; the linear part is charged per row.
        m.local_work += cx.work.seek_cost;
    }
    Ok(Box::new(ScanStream {
        rows,
        predicate,
        cols,
        width: cols.map_or(table.schema().len(), <[usize]>::len),
        target: FIRST_BATCH,
    }))
}

/// Opens the rows a seek's inclusive bounds select, in the table's
/// clustering-key order or, through `index`, in the index's. A NULL bound
/// compares with no key: its range is empty.
fn seek_rows<'e>(
    db: &'e Database,
    table: &'e Table,
    index: Option<&str>,
    low: &Option<CompiledBound>,
    high: &Option<CompiledBound>,
    env: EvalEnv<'_>,
) -> Result<Rows<'e>> {
    let (low, high) = (bound_value(low, env)?, bound_value(high, env)?);
    if [&low, &high].iter().any(|b| matches!(b, Some(Value::Null))) {
        return Ok(Rows::default());
    }
    let (low, high) = (
        low.as_ref().map(std::slice::from_ref),
        high.as_ref().map(std::slice::from_ref),
    );
    let Some(index) = index else {
        return Ok(table.scan_range(low, high));
    };
    let ix = db
        .index(index)
        .ok_or_else(|| Error::catalog(format!("index `{index}` not found")))?;
    let bound = |k: Option<_>| k.map_or(Bound::Unbounded, Bound::Included);
    Ok(ix.range(bound(low), bound(high)))
}

/// Emits already-built batches one at a time.
struct BuiltStream {
    batches: std::vec::IntoIter<RowBatch>,
}

impl<'e> BatchStream<'e> for BuiltStream {
    fn next_batch(
        &mut self,
        _cx: &StreamCtx<'e>,
        m: &mut ExecMetrics,
    ) -> Result<Option<RowBatch>> {
        let Some(batch) = self.batches.next() else {
            return Ok(None);
        };
        m.batches += 1;
        Ok(Some(batch))
    }
}

/// Applies a scan's residual predicate **vectorized**: every touched row is
/// built into the batch, survivors become a selection vector over the same
/// columns ([`eval_filter_sel`]'s typed loops). A predicate that passes all
/// rows leaves the batch dense — the common "residual subsumed by the seek
/// range / view bound" shape costs one comparison sweep and leaves no
/// selection indirection for downstream operators.
fn filter_scan(
    batch: RowBatch,
    predicate: Option<&CompiledExpr>,
    env: EvalEnv<'_>,
) -> Result<RowBatch> {
    let Some(p) = predicate else { return Ok(batch) };
    let sel = eval_filter_sel(p, &batch, env)?;
    if sel.len() == batch.len() {
        Ok(batch)
    } else {
        Ok(batch.with_sel(sel))
    }
}

/// Evaluates a compiled seek bound: the key value the seek starts or
/// stops at.
fn bound_value(bound: &Option<CompiledBound>, env: EvalEnv<'_>) -> Result<Option<Value>> {
    bound
        .as_ref()
        .map(|b| b.expr.eval(&Row::new(Vec::new()), env))
        .transpose()
}

/// Evaluates `keys` over `batch` column-at-a-time into dense key columns
/// aligned with its live rows, and folds them into one hash per row: what
/// a [`KeyIndex`] is keyed by.
fn hash_keys(
    keys: &[CompiledExpr],
    batch: &RowBatch,
    env: EvalEnv<'_>,
) -> Result<(Vec<Arc<ColumnVec>>, Vec<u64>)> {
    let mut cols = Vec::with_capacity(keys.len());
    let mut hs = vec![HASH_SEED; batch.len()];
    for k in keys {
        let col = eval_project_col(k, batch, env)?;
        col.fold_hash_dense(&mut hs);
        cols.push(col);
    }
    Ok((cols, hs))
}

/// Drains a child into retained batches plus `(batch, physical row)`
/// handles for every live row, in stream order. The blocking operators
/// (joins, sort) reference build-side rows through these handles instead
/// of cloning them.
fn drain_batches<'e>(
    input: &mut BoxStream<'e>,
    cx: &StreamCtx<'e>,
    m: &mut ExecMetrics,
) -> Result<(Vec<RowBatch>, Vec<(u32, u32)>)> {
    let mut batches = Vec::new();
    let mut handles = Vec::new();
    while let Some(b) = input.next_batch(cx, m)? {
        if b.is_empty() {
            continue;
        }
        let bi = batches.len() as u32;
        for phys in b.live() {
            handles.push((bi, phys as u32));
        }
        batches.push(b);
    }
    Ok((batches, handles))
}

/// NULLs for the missing side of an outer join.
fn nulls(n: usize) -> impl Iterator<Item = Value> {
    std::iter::repeat(Value::Null).take(n)
}

/// Emits a join's output batch, charging `cpu_per_row` per output row.
fn join_out(out: RowBatchBuilder, cx: &StreamCtx<'_>, m: &mut ExecMetrics) -> Option<RowBatch> {
    m.local_work += cx.work.cpu_per_row * out.len() as f64;
    m.local_rows += out.len() as u64;
    m.batches += 1;
    Some(out.finish())
}

/// A RIGHT or FULL join's last batch: the build rows no probe row matched,
/// in build order, NULL-extended on the left.
fn unmatched_build_rows(
    (left_width, width): (usize, usize),
    batches: &[RowBatch],
    handles: &[(u32, u32)],
    matched: &[bool],
) -> RowBatchBuilder {
    let mut out = RowBatchBuilder::with_capacity(width, 0);
    for (&(bi, rphys), _) in handles.iter().zip(matched).filter(|(_, &m)| !m) {
        out.push_values(nulls(left_width).chain(batches[bi as usize].values_iter(rphys as usize)));
    }
    out
}

// ---------------------------------------------------------------------------
// Leaf streams
// ---------------------------------------------------------------------------

struct NothingStream {
    done: bool,
}

impl<'e> BatchStream<'e> for NothingStream {
    fn next_batch(
        &mut self,
        _cx: &StreamCtx<'e>,
        m: &mut ExecMetrics,
    ) -> Result<Option<RowBatch>> {
        if self.done {
            return Ok(None);
        }
        self.done = true;
        m.batches += 1;
        Ok(Some(RowBatch::empty_rows(1)))
    }
}

/// The one serial access-path leaf (see [`build_leaf`]): walks a borrowed
/// row iterator, charging `cpu_per_row` per touched row. Touched rows go
/// straight into a column batch — fixed-width cells copied, strings
/// `Arc`-bumped, zero `Row` clones, and only the columns the plan kept —
/// and the residual predicate (if any) runs vectorized over the built
/// columns ([`filter_scan`]).
struct ScanStream<'e> {
    rows: Rows<'e>,
    /// Reads the built layout: `cols` when pruned, the full row otherwise.
    predicate: Option<&'e CompiledExpr>,
    /// `Some` when pruned: only these source columns are built, in this
    /// order.
    cols: Option<&'e [usize]>,
    width: usize,
    /// Row target for the next batch (adaptive, [`FIRST_BATCH`] →
    /// [`BATCH_SIZE`]).
    target: usize,
}

impl<'e> BatchStream<'e> for ScanStream<'e> {
    fn next_batch(
        &mut self,
        cx: &StreamCtx<'e>,
        m: &mut ExecMetrics,
    ) -> Result<Option<RowBatch>> {
        // A drained range ends the stream before a batch is set up.
        let Some(first) = self.rows.next() else {
            return Ok(None);
        };
        let target = self.target;
        self.target = (target * 4).min(BATCH_SIZE);
        let mut out = RowBatchBuilder::with_capacity(self.width, target);
        let mut touched = 0usize;
        let mut next = Some(first);
        while let Some(row) = next {
            touched += 1;
            match self.cols {
                Some(cols) => out.push_row_cols(row, cols),
                None => out.push_row_ref(row),
            }
            next = if touched < target {
                self.rows.next()
            } else {
                None
            };
        }
        m.local_work += cx.work.cpu_per_row * touched as f64;
        m.cells_built += (touched * self.width) as u64;
        let batch = filter_scan(out.finish(), self.predicate, cx.env)?;
        m.local_rows += batch.len() as u64;
        m.batches += 1;
        Ok(Some(batch))
    }
}

struct ExtremeSeekStream<'e> {
    table: &'e Table,
    key_index: usize,
    is_max: bool,
    done: bool,
}

impl<'e> BatchStream<'e> for ExtremeSeekStream<'e> {
    fn next_batch(
        &mut self,
        cx: &StreamCtx<'e>,
        m: &mut ExecMetrics,
    ) -> Result<Option<RowBatch>> {
        if self.done {
            return Ok(None);
        }
        self.done = true;
        let row = if self.is_max {
            self.table.last_row()
        } else {
            self.table.first_row()
        };
        // MIN/MAX over an empty table is NULL (one output row).
        let v = row.map(|r| r[self.key_index].clone()).unwrap_or(Value::Null);
        m.local_work += cx.work.seek(1.0);
        m.cells_built += 1;
        m.local_rows += 1;
        m.batches += 1;
        let mut out = RowBatchBuilder::with_capacity(1, 1);
        out.push_values(std::iter::once(v));
        Ok(Some(out.finish()))
    }
}

struct RemoteStream<'e> {
    sql: &'e Arc<Prepared>,
    arity: usize,
    row_width: f64,
    site: &'e crate::physical::RemoteSite,
    /// The shipped statement's answer once fetched, and how many of its
    /// batches have been emitted.
    answer: Option<(Answer, usize)>,
}

impl<'e> BatchStream<'e> for RemoteStream<'e> {
    fn next_batch(
        &mut self,
        cx: &StreamCtx<'e>,
        m: &mut ExecMetrics,
    ) -> Result<Option<RowBatch>> {
        let (answer, emitted) = match &mut self.answer {
            Some(shipped) => shipped,
            None => self.answer.insert((self.fetch(cx, m)?, 0)),
        };
        // Emitting a batch shares its columns: one refcount each.
        let Some(batch) = answer.batches().get(*emitted) else {
            return Ok(None);
        };
        *emitted += 1;
        m.batches += 1;
        Ok(Some(batch.clone()))
    }
}

impl RemoteStream<'_> {
    /// Ships the statement and charges the transfer.
    fn fetch(&self, cx: &StreamCtx<'_>, m: &mut ExecMetrics) -> Result<Answer> {
        let remote = cx.remote.ok_or_else(|| {
            Error::execution("plan requires a backend connection but none is configured")
        })?;
        let outcome = remote.execute_shipped(self.site, self.sql, cx.params)?;
        let answer = outcome.result;
        // Positional contract: the shipped SELECT list matches our schema
        // column-for-column.
        if let Some(bad) = answer.batches().iter().find(|b| b.width() != self.arity) {
            return Err(Error::execution(format!(
                "remote result arity mismatch: expected {} columns, got {}",
                self.arity,
                bad.width(),
            )));
        }
        let rows = answer.len() as u64;
        let bytes = answer.estimated_bytes();
        m.remote_calls += outcome.calls;
        m.remote_rtts += outcome.rtts;
        m.coalesced_calls += outcome.coalesced;
        m.remote_rows += rows;
        m.bytes_transferred += bytes;
        if outcome.peer {
            m.peer_calls += outcome.calls;
            m.peer_rtts += outcome.rtts;
            m.peer_rows += rows;
            m.peer_bytes += bytes;
        }
        // Work the remote site spent executing the shipped statement.
        m.remote_work += answer.metrics.local_work + answer.metrics.remote_work;
        // Local cost of receiving the transfer.
        m.local_work += cx.work.transfer(rows as f64, self.row_width) * 0.01;
        Ok(answer)
    }
}

// ---------------------------------------------------------------------------
// Pipeline streams (filter, project, top, distinct)
// ---------------------------------------------------------------------------

struct FilterStream<'e> {
    input: BoxStream<'e>,
    predicate: &'e CompiledExpr,
}

impl<'e> BatchStream<'e> for FilterStream<'e> {
    fn next_batch(
        &mut self,
        cx: &StreamCtx<'e>,
        m: &mut ExecMetrics,
    ) -> Result<Option<RowBatch>> {
        let Some(batch) = self.input.next_batch(cx, m)? else {
            return Ok(None);
        };
        m.local_work += cx.work.filter(batch.len() as f64);
        // Vectorized evaluation; survivors become a selection vector over
        // the same shared columns — no cell moves. When nothing was dropped
        // the input batch passes through untouched (a dense batch stays
        // dense, so downstream column shares stay `Arc` bumps).
        let sel = eval_filter_sel(self.predicate, &batch, cx.env)?;
        let out = if sel.len() == batch.len() {
            batch
        } else {
            batch.with_sel(sel)
        };
        m.local_rows += out.len() as u64;
        m.batches += 1;
        Ok(Some(out))
    }
}

struct ProjectStream<'e> {
    input: BoxStream<'e>,
    exprs: &'e [CompiledExpr],
    /// Every projection is a bare column reference: the output batch then
    /// *shares* the input's columns and selection vector
    /// ([`RowBatch::project`]) — zero evaluation, zero gathers.
    shares_cols: bool,
    /// The physical projections folded into this one, each charged.
    stages: u32,
}

impl<'e> BatchStream<'e> for ProjectStream<'e> {
    fn next_batch(
        &mut self,
        cx: &StreamCtx<'e>,
        m: &mut ExecMetrics,
    ) -> Result<Option<RowBatch>> {
        let Some(batch) = self.input.next_batch(cx, m)? else {
            return Ok(None);
        };
        // Added once per stage, in the chain's order, so the total is
        // bit-identical to the unfolded chain's.
        let w = cx.work.project(batch.len() as f64);
        for _ in 0..self.stages {
            m.local_work += w;
        }
        let out = if self.shares_cols {
            batch.project(self.exprs.iter().map(|e| match e {
                CompiledExpr::Col(c) => *c,
                _ => unreachable!("a column-sharing projection holds column references only"),
            }))
        } else {
            let mut cols = Vec::with_capacity(self.exprs.len());
            for e in self.exprs {
                // Bare column references on unfiltered batches are Arc
                // shares even on the general path.
                cols.push(eval_project_col(e, &batch, cx.env)?);
            }
            if cols.is_empty() {
                RowBatch::empty_rows(batch.len())
            } else {
                RowBatch::from_cols(cols)
            }
        };
        m.local_rows += out.len() as u64;
        m.batches += 1;
        Ok(Some(out))
    }
}

struct TopStream<'e> {
    input: BoxStream<'e>,
    remaining: u64,
}

impl<'e> BatchStream<'e> for TopStream<'e> {
    fn next_batch(
        &mut self,
        cx: &StreamCtx<'e>,
        m: &mut ExecMetrics,
    ) -> Result<Option<RowBatch>> {
        // Early termination: once the limit is reached the whole subtree
        // below stops being pulled (and stops scanning).
        if self.remaining == 0 {
            return Ok(None);
        }
        let Some(batch) = self.input.next_batch(cx, m)? else {
            return Ok(None);
        };
        // Narrow in place: the truncated batch shares the input's columns.
        let n = (batch.len() as u64).min(self.remaining) as usize;
        let batch = batch.take_first(n);
        self.remaining -= batch.len() as u64;
        m.batches += 1;
        Ok(Some(batch))
    }
}

/// DISTINCT over batches: seen rows are referenced as `(batch, row)`
/// handles inside retained input batches — first occurrences survive via a
/// selection vector, and nothing is cloned.
struct DistinctStream<'e> {
    input: BoxStream<'e>,
    /// Batches retained because they contain at least one first occurrence
    /// (pushed *before* dedup so intra-batch duplicates resolve against
    /// the current batch too).
    kept: Vec<RowBatch>,
    /// First occurrences as `(batch, row)` handles into `kept`, in order;
    /// `lookup` maps a row's cell hash to indices into this.
    seen: Vec<(u32, u32)>,
    lookup: KeyIndex,
}

impl<'e> BatchStream<'e> for DistinctStream<'e> {
    fn next_batch(
        &mut self,
        cx: &StreamCtx<'e>,
        m: &mut ExecMetrics,
    ) -> Result<Option<RowBatch>> {
        let Some(batch) = self.input.next_batch(cx, m)? else {
            return Ok(None);
        };
        m.local_work += cx.work.aggregate(batch.len() as f64, batch.len() as f64);
        let mut firsts: Vec<u32> = Vec::new();
        if !batch.is_empty() {
            let bi = self.kept.len() as u32;
            self.kept.push(batch.clone());
            // Row hashes fold column-at-a-time: one storage-variant dispatch
            // per column, not one per cell.
            let idx: Vec<u32> = batch.live().map(|p| p as u32).collect();
            let mut hs = vec![HASH_SEED; idx.len()];
            for c in 0..batch.width() {
                batch.col(c).fold_hash_at(&idx, &mut hs);
            }
            for (k, &phys) in idx.iter().enumerate() {
                let dup = self.lookup.chain(hs[k]).any(|id| {
                    let (obi, ophys) = self.seen[id as usize];
                    let ob = &self.kept[obi as usize];
                    (0..batch.width())
                        .all(|c| batch.col(c).cell_eq(phys as usize, ob.col(c), ophys as usize))
                });
                if !dup {
                    self.lookup.insert(hs[k], self.seen.len() as u32);
                    self.seen.push((bi, phys));
                    firsts.push(phys);
                }
            }
        }
        m.batches += 1;
        Ok(Some(batch.with_sel(firsts)))
    }
}

struct UnionAllStream<'e> {
    inputs: &'e [CompiledPlan],
    guards: &'e [Option<CompiledExpr>],
    idx: usize,
    current: Option<BoxStream<'e>>,
}

impl<'e> BatchStream<'e> for UnionAllStream<'e> {
    fn next_batch(
        &mut self,
        cx: &StreamCtx<'e>,
        m: &mut ExecMetrics,
    ) -> Result<Option<RowBatch>> {
        loop {
            if let Some(stream) = self.current.as_mut() {
                if let Some(batch) = stream.next_batch(cx, m)? {
                    return Ok(Some(batch));
                }
                self.current = None;
                self.idx += 1;
                continue;
            }
            if self.idx >= self.inputs.len() {
                return Ok(None);
            }
            // Startup predicate: parameter-only, evaluated once before the
            // branch opens. False or UNKNOWN ⇒ branch never opens — not
            // even its table lookups run.
            if let Some(guard) = &self.guards[self.idx] {
                let open = guard.eval_predicate(&Row::new(vec![]), cx.env)? == Some(true);
                if !open {
                    self.idx += 1;
                    continue;
                }
            }
            self.current = Some(build(&self.inputs[self.idx], cx, m)?);
        }
    }
}

// ---------------------------------------------------------------------------
// Join streams
// ---------------------------------------------------------------------------

struct NlJoinStream<'e> {
    left: BoxStream<'e>,
    right: BoxStream<'e>,
    on: Option<&'e CompiledExpr>,
    kind: JoinKind,
    left_width: usize,
    right_width: usize,
    /// Materialized build side (the right input) as retained batches plus
    /// row handles, filled on first pull.
    right_side: Option<(Vec<RowBatch>, Vec<(u32, u32)>)>,
    right_matched: Vec<bool>,
    left_seen: u64,
    done: bool,
}

impl<'e> BatchStream<'e> for NlJoinStream<'e> {
    fn next_batch(
        &mut self,
        cx: &StreamCtx<'e>,
        m: &mut ExecMetrics,
    ) -> Result<Option<RowBatch>> {
        if self.done {
            return Ok(None);
        }
        if self.right_side.is_none() {
            let side = drain_batches(&mut self.right, cx, m)?;
            self.right_matched = vec![false; side.1.len()];
            self.right_side = Some(side);
        }
        let width = self.left_width + self.right_width;
        if let Some(lbatch) = self.left.next_batch(cx, m)? {
            let (rbatches, rhandles) = self.right_side.as_ref().expect("build side materialized");
            self.left_seen += lbatch.len() as u64;
            m.local_work += cx.work.cpu_per_row * lbatch.len() as f64 * rhandles.len() as f64;
            let mut out = RowBatchBuilder::with_capacity(width, lbatch.len());
            for lphys in lbatch.live() {
                let mut matched = false;
                for (ri, &(bi, rphys)) in rhandles.iter().enumerate() {
                    let rbatch = &rbatches[bi as usize];
                    let ok = match self.on {
                        None => true,
                        Some(p) => {
                            let src = JoinSrc {
                                left: Side::Batch(&lbatch, lphys),
                                left_width: self.left_width,
                                right: Side::Batch(rbatch, rphys as usize),
                            };
                            p.eval_predicate_src(&src, cx.env)? == Some(true)
                        }
                    };
                    if ok {
                        matched = true;
                        self.right_matched[ri] = true;
                        out.push_values(
                            lbatch
                                .values_iter(lphys)
                                .chain(rbatch.values_iter(rphys as usize)),
                        );
                    }
                }
                if !matched && matches!(self.kind, JoinKind::Left | JoinKind::Full) {
                    out.push_values(lbatch.values_iter(lphys).chain(nulls(self.right_width)));
                }
            }
            return Ok(join_out(out, cx, m));
        }
        // Left side exhausted.
        self.done = true;
        let (rbatches, rhandles) = self.right_side.as_ref().expect("build side materialized");
        if self.left_seen == 0 {
            // The cost model floors the outer side at one row.
            m.local_work += cx.work.cpu_per_row * rhandles.len() as f64;
        }
        if matches!(self.kind, JoinKind::Right | JoinKind::Full) {
            let widths = (self.left_width, width);
            let out = unmatched_build_rows(widths, rbatches, rhandles, &self.right_matched);
            return Ok(join_out(out, cx, m));
        }
        Ok(None)
    }
}

/// Hash-join build side: retained batches and row handles. A build row's
/// id is its index in `handles`; `index` chains the ids of the rows whose
/// key holds no NULL (a NULL key never matches) in ascending order, so
/// probe output follows build-side order within a key.
struct BuiltSide {
    batches: Vec<RowBatch>,
    handles: Vec<(u32, u32)>,
    /// Per batch: its key columns (dense over its live rows) and the id of
    /// its first live row.
    keys: Vec<(Vec<Arc<ColumnVec>>, u32)>,
    index: KeyIndex,
}

struct HashJoinStream<'e> {
    left: BoxStream<'e>,
    right: BoxStream<'e>,
    left_keys: &'e [CompiledExpr],
    right_keys: &'e [CompiledExpr],
    kind: JoinKind,
    residual: Option<&'e CompiledExpr>,
    left_width: usize,
    right_width: usize,
    built: Option<BuiltSide>,
    right_matched: Vec<bool>,
    done: bool,
}

impl<'e> BatchStream<'e> for HashJoinStream<'e> {
    fn next_batch(
        &mut self,
        cx: &StreamCtx<'e>,
        m: &mut ExecMetrics,
    ) -> Result<Option<RowBatch>> {
        if self.done {
            return Ok(None);
        }
        if self.built.is_none() {
            let (batches, handles) = drain_batches(&mut self.right, cx, m)?;
            m.local_work += cx.work.hash_per_row * handles.len() as f64;
            self.right_matched = vec![false; handles.len()];
            let mut index = KeyIndex::with_capacity(handles.len());
            let mut keys = Vec::with_capacity(batches.len());
            let mut first = 0u32;
            for batch in &batches {
                let (cols, hs) = hash_keys(self.right_keys, batch, cx.env)?;
                for (d, &h) in hs.iter().enumerate() {
                    if !cols.iter().any(|c| c.is_null(d)) {
                        index.insert(h, first + d as u32);
                    }
                }
                keys.push((cols, first));
                first += batch.len() as u32;
            }
            self.built = Some(BuiltSide {
                batches,
                handles,
                keys,
                index,
            });
        }
        let width = self.left_width + self.right_width;
        if let Some(lbatch) = self.left.next_batch(cx, m)? {
            let built = self.built.as_ref().expect("build side materialized");
            m.local_work += cx.work.hash_per_row * lbatch.len() as f64;
            let mut out = RowBatchBuilder::with_capacity(width, lbatch.len());
            let (lkeys, hs) = hash_keys(self.left_keys, &lbatch, cx.env)?;
            for (d, lphys) in lbatch.live().enumerate() {
                let mut matched = false;
                // No build key is NULL, so a NULL probe key equals none.
                for ri in built.index.chain(hs[d]) {
                    let (bi, rphys) = built.handles[ri as usize];
                    let (rkeys, first) = &built.keys[bi as usize];
                    let rd = (ri - first) as usize;
                    let rbatch = &built.batches[bi as usize];
                    let ok = lkeys.iter().zip(rkeys).all(|(l, r)| l.cell_eq(d, r, rd))
                        && match self.residual {
                            None => true,
                            Some(p) => {
                                let src = JoinSrc {
                                    left: Side::Batch(&lbatch, lphys),
                                    left_width: self.left_width,
                                    right: Side::Batch(rbatch, rphys as usize),
                                };
                                p.eval_predicate_src(&src, cx.env)? == Some(true)
                            }
                        };
                    if ok {
                        matched = true;
                        self.right_matched[ri as usize] = true;
                        out.push_values(
                            lbatch
                                .values_iter(lphys)
                                .chain(rbatch.values_iter(rphys as usize)),
                        );
                    }
                }
                if !matched && matches!(self.kind, JoinKind::Left | JoinKind::Full) {
                    out.push_values(lbatch.values_iter(lphys).chain(nulls(self.right_width)));
                }
            }
            return Ok(join_out(out, cx, m));
        }
        // Probe side exhausted.
        self.done = true;
        if matches!(self.kind, JoinKind::Right | JoinKind::Full) {
            let built = self.built.as_ref().expect("build side materialized");
            let widths = (self.left_width, width);
            let out = unmatched_build_rows(widths, &built.batches, &built.handles, &self.right_matched);
            return Ok(join_out(out, cx, m));
        }
        Ok(None)
    }
}

struct IndexNlJoinStream<'e> {
    outer: BoxStream<'e>,
    table: &'e Table,
    index: Option<&'e Index>,
    outer_key: &'e CompiledExpr,
    inner_exprs: Option<&'e [CompiledExpr]>,
    inner_width: usize,
    kind: JoinKind,
    residual: Option<&'e CompiledExpr>,
}

impl<'e> BatchStream<'e> for IndexNlJoinStream<'e> {
    fn next_batch(
        &mut self,
        cx: &StreamCtx<'e>,
        m: &mut ExecMetrics,
    ) -> Result<Option<RowBatch>> {
        let Some(obatch) = self.outer.next_batch(cx, m)? else {
            return Ok(None);
        };
        let owidth = obatch.width();
        let mut out = RowBatchBuilder::with_capacity(owidth + self.inner_width, obatch.len());
        let mut seeks = 0u64;
        let mut fetched = 0u64;
        for ophys in obatch.live() {
            let osrc = BatchRowSrc {
                batch: &obatch,
                row: ophys,
            };
            let key = self.outer_key.eval_src(&osrc, cx.env)?;
            let mut matched = false;
            if !key.is_null() {
                seeks += 1;
                let key_row = Row::new(vec![key]);
                let inner_matches: Vec<&Row> = match self.index {
                    Some(ix) => ix.seek(&key_row).map(|r| &**r).collect(),
                    None => self.table.get(&key_row).into_iter().collect(),
                };
                for irow in inner_matches {
                    fetched += 1;
                    match self.inner_exprs {
                        Some(exprs) => {
                            let mut vals = Vec::with_capacity(exprs.len());
                            for e in exprs {
                                vals.push(e.eval(irow, cx.env)?);
                            }
                            let ok = match self.residual {
                                None => true,
                                Some(p) => {
                                    let src = JoinSrc {
                                        left: Side::Batch(&obatch, ophys),
                                        left_width: owidth,
                                        right: Side::Values(&vals),
                                    };
                                    p.eval_predicate_src(&src, cx.env)? == Some(true)
                                }
                            };
                            if ok {
                                matched = true;
                                out.push_values(obatch.values_iter(ophys).chain(vals));
                            }
                        }
                        None => {
                            // Full inner row, referenced in place — cells
                            // are copied/`Arc`-bumped into the output
                            // batch, the `Row` itself is never cloned.
                            let ok = match self.residual {
                                None => true,
                                Some(p) => {
                                    let src = JoinSrc {
                                        left: Side::Batch(&obatch, ophys),
                                        left_width: owidth,
                                        right: Side::Row(irow),
                                    };
                                    p.eval_predicate_src(&src, cx.env)? == Some(true)
                                }
                            };
                            if ok {
                                matched = true;
                                out.push_values(
                                    obatch
                                        .values_iter(ophys)
                                        .chain(irow.values().iter().cloned()),
                                );
                            }
                        }
                    }
                }
            }
            if !matched && self.kind == JoinKind::Left {
                out.push_values(obatch.values_iter(ophys).chain(nulls(self.inner_width)));
            }
        }
        m.local_work += cx.work.seek_cost * seeks as f64
            + cx.work.cpu_per_row * fetched as f64
            + cx.work.cpu_per_row * out.len() as f64;
        m.local_rows += out.len() as u64;
        m.batches += 1;
        Ok(Some(out.finish()))
    }
}

// ---------------------------------------------------------------------------
// Blocking streams (aggregate, sort)
// ---------------------------------------------------------------------------

/// Incremental group-by state shared by the serial aggregation paths.
///
/// Groups live in insertion-order vectors (`keys[g]`/`states[g]`); the
/// lookup side is a [`KeyIndex`] from key hash (folded column-at-a-time)
/// to group ids, so the common per-row path allocates nothing — a key
/// `Vec<Value>` is materialized only when a *new* group appears.
struct GroupBuild<'e> {
    group_by: &'e [CompiledExpr],
    aggs: &'e [CompiledAgg],
    /// Group keys in first-seen order.
    keys: Vec<Vec<Value>>,
    /// Aggregate states, parallel to `keys`.
    states: Vec<Vec<AggState>>,
    /// key-hash → group ids with that hash.
    lookup: KeyIndex,
    n_in: u64,
}

impl<'e> GroupBuild<'e> {
    fn new(group_by: &'e [CompiledExpr], aggs: &'e [CompiledAgg]) -> GroupBuild<'e> {
        GroupBuild {
            group_by,
            aggs,
            keys: Vec::new(),
            states: Vec::new(),
            lookup: KeyIndex::default(),
            n_in: 0,
        }
    }

    /// Absorbs one batch: group keys and aggregate arguments are evaluated
    /// column-at-a-time (dense, aligned with the batch's live rows), then
    /// each row updates its group's states.
    fn absorb_batch(&mut self, batch: &RowBatch, env: EvalEnv<'_>) -> Result<()> {
        let n = batch.len();
        if n == 0 {
            return Ok(());
        }
        self.n_in += n as u64;
        let (kcols, hs) = hash_keys(self.group_by, batch, env)?;
        let mut acols = Vec::with_capacity(self.aggs.len());
        for a in self.aggs {
            acols.push(match &a.arg {
                Some(e) => Some(eval_project_col(e, batch, env)?),
                None => None,
            });
        }
        for d in 0..n {
            let found = self.lookup.chain(hs[d]).find(|&g| {
                kcols
                    .iter()
                    .zip(&self.keys[g as usize])
                    .all(|(kc, kv)| kc.value_eq(d, kv))
            });
            let gid = match found {
                Some(g) => g as usize,
                None => {
                    let g = self.keys.len();
                    self.keys.push(kcols.iter().map(|kc| kc.value(d)).collect());
                    self.states.push(
                        self.aggs
                            .iter()
                            .map(|a| AggState::from_parts(a.func, a.distinct))
                            .collect(),
                    );
                    self.lookup.insert(hs[d], g as u32);
                    g
                }
            };
            let states = &mut self.states[gid];
            for (state, ac) in states.iter_mut().zip(&acols) {
                state.update(ac.as_ref().map(|c| c.value(d)));
            }
        }
        Ok(())
    }

    fn finish(mut self, cx: &StreamCtx<'_>, m: &mut ExecMetrics) -> Vec<Row> {
        // Global aggregate over an empty input still yields one row.
        if self.keys.is_empty() && self.group_by.is_empty() {
            self.keys.push(vec![]);
            self.states.push(
                self.aggs
                    .iter()
                    .map(|a| AggState::from_parts(a.func, a.distinct))
                    .collect(),
            );
        }
        // `keys`/`states` are already in first-seen order.
        let mut rows = Vec::with_capacity(self.keys.len());
        for (key, states) in self.keys.into_iter().zip(self.states) {
            let mut vals = key;
            vals.reserve(states.len());
            for s in &states {
                vals.push(s.finish());
            }
            rows.push(Row::new(vals));
        }
        m.local_work += cx.work.aggregate(self.n_in as f64, rows.len() as f64);
        m.local_rows += rows.len() as u64;
        rows
    }
}

struct HashAggStream<'e> {
    input: BoxStream<'e>,
    group_by: &'e [CompiledExpr],
    aggs: &'e [CompiledAgg],
    output: Option<std::vec::IntoIter<Row>>,
}

impl<'e> BatchStream<'e> for HashAggStream<'e> {
    fn next_batch(
        &mut self,
        cx: &StreamCtx<'e>,
        m: &mut ExecMetrics,
    ) -> Result<Option<RowBatch>> {
        if self.output.is_none() {
            // Aggregation is blocking: consume the whole input batch at a
            // time; a group key is materialized exactly once, when its
            // group first appears.
            let mut gb = GroupBuild::new(self.group_by, self.aggs);
            while let Some(batch) = self.input.next_batch(cx, m)? {
                gb.absorb_batch(&batch, cx.env)?;
            }
            self.output = Some(gb.finish(cx, m).into_iter());
        }
        let output = self.output.as_mut().expect("aggregate output built");
        let chunk: Vec<Row> = output.by_ref().take(BATCH_SIZE).collect();
        if chunk.is_empty() {
            return Ok(None);
        }
        m.batches += 1;
        let width = self.group_by.len() + self.aggs.len();
        Ok(Some(RowBatch::from_rows(chunk, width)))
    }
}

struct SortStream<'e> {
    input: BoxStream<'e>,
    keys: &'e [CompiledSortKey],
    /// Retained input batches plus sorted row handles, built on first pull.
    output: Option<(Vec<RowBatch>, Vec<(u32, u32)>, usize)>,
}

impl<'e> BatchStream<'e> for SortStream<'e> {
    fn next_batch(
        &mut self,
        cx: &StreamCtx<'e>,
        m: &mut ExecMetrics,
    ) -> Result<Option<RowBatch>> {
        if self.output.is_none() {
            let (batches, handles) = drain_batches(&mut self.input, cx, m)?;
            m.local_work += cx.work.sort(handles.len() as f64);
            // Precompute sort keys column-at-a-time to keep the comparator
            // infallible; rows are referenced by handle, never moved.
            let mut keyed: Vec<(Vec<Value>, u32, u32)> = Vec::with_capacity(handles.len());
            for (bi, batch) in batches.iter().enumerate() {
                let mut kcols = Vec::with_capacity(self.keys.len());
                for key in self.keys {
                    kcols.push(eval_project_col(&key.expr, batch, cx.env)?);
                }
                for (d, phys) in batch.live().enumerate() {
                    let k: Vec<Value> = kcols.iter().map(|kc| kc.value(d)).collect();
                    keyed.push((k, bi as u32, phys as u32));
                }
            }
            keyed.sort_by(|(a, _, _), (b, _, _)| {
                for (i, key) in self.keys.iter().enumerate() {
                    let ord = a[i].cmp(&b[i]);
                    let ord = if key.asc { ord } else { ord.reverse() };
                    if ord != std::cmp::Ordering::Equal {
                        return ord;
                    }
                }
                std::cmp::Ordering::Equal
            });
            let sorted: Vec<(u32, u32)> = keyed.into_iter().map(|(_, bi, p)| (bi, p)).collect();
            self.output = Some((batches, sorted, 0));
        }
        let (batches, sorted, pos) = self.output.as_mut().expect("sort output built");
        if *pos >= sorted.len() {
            return Ok(None);
        }
        let end = (*pos + BATCH_SIZE).min(sorted.len());
        let width = batches.first().map(|b| b.width()).unwrap_or(0);
        let mut out = RowBatchBuilder::with_capacity(width, end - *pos);
        for &(bi, phys) in &sorted[*pos..end] {
            out.push_values(batches[bi as usize].values_iter(phys as usize));
        }
        *pos = end;
        m.batches += 1;
        Ok(Some(out.finish()))
    }
}
