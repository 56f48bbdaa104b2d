//! Morsel-driven parallel execution for the streaming operators.
//!
//! The streaming executor in [`crate::stream`] is single-threaded: one
//! session, one operator tree, one core. This module adds intra-query
//! parallelism in the style of morsel-driven scheduling: a scan (or the
//! build side of a hash operator) is cut into fixed-size *morsels* that a
//! spawn-once [`WorkerPool`] executes concurrently, and the results are
//! merged back **in morsel order**, so the parallel operators produce
//! byte-identical output to their serial counterparts — ORDER BY, TOP and
//! DISTINCT above them are untouched.
//!
//! Parallel workers run against an [`Arc<DbSnapshot>`] — the immutable
//! epoch-published image the whole query executes on — never against live
//! mutable state, so no locks are taken inside a morsel and a concurrent
//! replication apply cannot tear a partially scanned table.
//!
//! Like the serial streams, workers traffic in columnar [`RowBatch`]es:
//! a scan morsel builds one dense batch straight from the borrowed
//! snapshot rows (fixed-width cells copied, strings `Arc`-bumped, zero
//! `Row` clones), and the blocking operators hand workers `Arc`-shared
//! batches plus `(batch, row)` handles instead of owned row vectors.
//!
//! What gets parallelized (all gated on `dop > 1` and an input-size
//! threshold so small queries keep their serial fast path):
//!
//! * **SeqScan / ClusteredSeek / IndexSeek** — the leaf's row range (the
//!   table, a clustered key range or a secondary index's range) is counted
//!   once, then cut positionally; each worker walks its slice, applies the
//!   residual predicate and builds the columns the leaf kept.
//! * **HashAggregate** — rows are hash-partitioned by group key across
//!   workers (phase 1), each partition is aggregated to completion
//!   independently (phase 2; no partial-state merge, which keeps
//!   `DISTINCT` aggregates exact), and groups are emitted in global
//!   first-seen order.
//! * **HashJoin build side** — join-key evaluation for the build rows is
//!   morselized; the hash table itself is assembled serially in row order
//!   so probe output order is unchanged.
//!
//! Work accounting: the work units a morsel performs are charged to
//! [`ExecMetrics::local_work`] exactly as the serial operator would charge
//! them, *and* mirrored into [`ExecMetrics::parallel_work`] — the share of
//! the query's work that overlapped across workers: with `dop` workers the
//! critical path is `local_work - parallel_work + parallel_work / dop`, a
//! machine-independent bound on the speedup.
//!
//! [`WorkerPool`]: mtc_util::pool::WorkerPool
//! [`ExecMetrics::local_work`]: crate::exec::ExecMetrics
//! [`ExecMetrics::parallel_work`]: crate::exec::ExecMetrics

use std::collections::hash_map::DefaultHasher;
use std::collections::HashMap;
use std::hash::{Hash, Hasher};
use std::ops::Bound;
use std::sync::Arc;

use mtc_storage::{Database, DbSnapshot, Rows, Table};
use mtc_types::{Error, Result, Row, RowBatch, RowBatchBuilder, Value};
use mtc_util::pool::WorkerPool;

use crate::compile::{CompiledAgg, CompiledExpr, EvalEnv, ValueSource};
use crate::exec::AggState;
use crate::vector::BatchRowSrc;

/// Inputs smaller than this stay on the serial path: below a couple of
/// batches the morsel dispatch overhead outweighs any overlap.
pub const PARALLEL_THRESHOLD: usize = 2048;

/// Everything a query needs to run its eligible operators in parallel.
///
/// `snapshot` MUST be the same image `ExecContext::db` points at — workers
/// re-resolve tables/indexes through it, and resolving against a different
/// (newer) snapshot would let one query read two epochs at once.
#[derive(Clone)]
pub struct ParallelCtx {
    /// The immutable snapshot this query executes against.
    pub snapshot: Arc<DbSnapshot>,
    /// The shared spawn-once worker pool morsels run on.
    pub pool: Arc<WorkerPool>,
    /// Degree of parallelism: how many ways eligible operators split their
    /// work. `dop == 1` disables this module entirely.
    pub dop: usize,
    /// Minimum input rows before an operator goes parallel. Tests lower
    /// this to force the parallel paths onto tiny inputs.
    pub min_rows: usize,
}

impl ParallelCtx {
    /// A context with the production threshold.
    pub fn new(snapshot: Arc<DbSnapshot>, pool: Arc<WorkerPool>, dop: usize) -> ParallelCtx {
        ParallelCtx {
            snapshot,
            pool,
            dop,
            min_rows: PARALLEL_THRESHOLD,
        }
    }

    /// True when `n` input rows are worth splitting `dop` ways.
    pub(crate) fn eligible(&self, n: usize) -> bool {
        self.dop > 1 && n >= self.min_rows.max(1)
    }
}

/// Owned copy of an [`EvalEnv`], so worker closures can be `'static`.
struct OwnedEnv {
    params: Vec<Option<Value>>,
    names: Vec<String>,
}

impl OwnedEnv {
    fn capture(env: EvalEnv<'_>) -> Arc<OwnedEnv> {
        Arc::new(OwnedEnv {
            params: env.params.to_vec(),
            names: env.names.to_vec(),
        })
    }

    fn env(&self) -> EvalEnv<'_> {
        EvalEnv {
            params: &self.params,
            names: &self.names,
        }
    }
}

/// Cuts `n` items into contiguous `(start, len)` morsels: `dop * 4` cuts,
/// floored at one batch per morsel so tiny inputs don't shatter.
fn morsel_ranges(n: usize, dop: usize, min_rows: usize) -> Vec<(usize, usize)> {
    let target = (dop * 4).max(1);
    let chunk = n.div_ceil(target).max((min_rows / 4).max(1));
    let mut out = Vec::new();
    let mut start = 0;
    while start < n {
        let len = chunk.min(n - start);
        out.push((start, len));
        start += len;
    }
    out
}

/// The rows an access-path leaf walks.
#[derive(Clone)]
pub(crate) enum LeafRange {
    /// The table in clustering-key order between optional inclusive key
    /// values; a SeqScan is the unbounded range.
    Clustered(Option<Value>, Option<Value>),
    /// A secondary index's range between optional inclusive key values;
    /// its entries are the table's rows.
    Index(Arc<str>, Option<Value>, Option<Value>),
}

impl LeafRange {
    /// Opens the range over `table`, resolving an index through `db`. A
    /// NULL bound compares with no key: its range is empty.
    pub(crate) fn rows<'d>(&self, db: &'d Database, table: &'d Table) -> Result<Rows<'d>> {
        fn key(v: &Option<Value>) -> Option<&[Value]> {
            v.as_ref().map(std::slice::from_ref)
        }
        let (LeafRange::Clustered(low, high) | LeafRange::Index(_, low, high)) = self;
        if [low, high].iter().any(|b| matches!(b, Some(Value::Null))) {
            return Ok(Rows::default());
        }
        Ok(match self {
            LeafRange::Clustered(low, high) => table.scan_range(key(low), key(high)),
            LeafRange::Index(index, low, high) => {
                let ix = db
                    .index(index)
                    .ok_or_else(|| Error::catalog(format!("index `{index}` not found")))?;
                let bound = |v| key(v).map_or(Bound::Unbounded, Bound::Included);
                ix.range(bound(low), bound(high))
            }
        })
    }
}

/// A storage row read through a pruned leaf's layout: ordinal `i` is
/// source column `cols[i]`.
struct LeafRow<'a> {
    row: &'a Row,
    cols: Option<&'a [usize]>,
}

impl ValueSource for LeafRow<'_> {
    #[inline]
    fn value_at(&self, i: usize) -> Value {
        self.row[self.cols.map_or(i, |c| c[i])].clone()
    }
}

/// Collects per-morsel scan batches in morsel order, propagating the first
/// error by position (matching what the serial operator would hit first).
/// Empty batches (morsels where nothing survived) are dropped.
fn merge_scan_results(
    results: Vec<Result<(usize, RowBatch)>>,
) -> Result<(Vec<RowBatch>, usize)> {
    let mut batches = Vec::new();
    let mut touched = 0usize;
    for r in results {
        let (t, batch) = r?;
        touched += t;
        if !batch.is_empty() {
            batches.push(batch);
        }
    }
    Ok((batches, touched))
}

/// Parallel access-path leaf: `range` (`n_rows` long, pre-counted) is walked
/// in positional slices, each worker re-opening it on the shared snapshot.
/// Returns one dense column batch per non-empty morsel, in range order, plus
/// the number of rows touched (for work accounting). Survivors of the
/// residual `predicate` are columnized in place from the borrowed snapshot
/// rows — only `cols` when the leaf is pruned, and no `Row` is cloned.
pub(crate) fn parallel_leaf(
    p: &ParallelCtx,
    object: &str,
    range: LeafRange,
    cols: Option<&[usize]>,
    predicate: Option<&CompiledExpr>,
    env: EvalEnv<'_>,
    n_rows: usize,
) -> Result<(Vec<RowBatch>, usize)> {
    let ranges = morsel_ranges(n_rows, p.dop, p.min_rows);
    let snap = p.snapshot.clone();
    let object = object.to_string();
    let cols = cols.map(<[usize]>::to_vec);
    let pred = predicate.cloned();
    let oenv = OwnedEnv::capture(env);
    let results = p.pool.run(ranges, move |_, (start, len)| {
        let table = snap.table_ref(&object)?;
        let env = oenv.env();
        let cols = cols.as_deref();
        let width = cols.map_or(table.schema().len(), <[usize]>::len);
        let mut touched = 0usize;
        let mut out = RowBatchBuilder::with_capacity(width, len);
        for row in range.rows(&snap, table)?.skip(start).take(len) {
            touched += 1;
            let passes = match &pred {
                None => true,
                Some(p) => p.eval_predicate_src(&LeafRow { row, cols }, env)? == Some(true),
            };
            if passes {
                match cols {
                    Some(cols) => out.push_row_cols(row, cols),
                    None => out.push_row_ref(row),
                }
            }
        }
        Ok((touched, out.finish()))
    });
    merge_scan_results(results)
}

fn bucket_of(key: &[Value], nparts: usize) -> usize {
    let mut h = DefaultHasher::new();
    key.hash(&mut h);
    (h.finish() as usize) % nparts
}

/// Parallel hash aggregation over a fully drained batch input.
///
/// The input arrives as retained batches plus `(batch, row)` handles for
/// every live row (stream order); both sides are `Arc`-shared with the
/// workers, so no row is copied into the phases — a handle's row is read
/// through [`BatchRowSrc`] wherever an expression needs it.
///
/// Phase 1 (parallel): each morsel evaluates group keys for its handle
/// slice and scatters `(key, global index)` into `dop` hash partitions.
/// Phase 2 (parallel): each partition aggregates its groups to completion
/// — a group lives in exactly one partition, so `DISTINCT` aggregates need
/// no cross-worker merge. Groups come back tagged with the index of the
/// first input row that created them; the final sort on that tag restores
/// the serial operator's first-seen emission order exactly.
pub(crate) fn parallel_hash_aggregate(
    p: &ParallelCtx,
    batches: Vec<RowBatch>,
    handles: Vec<(u32, u32)>,
    group_by: &[CompiledExpr],
    aggs: &[CompiledAgg],
    env: EvalEnv<'_>,
) -> Result<Vec<Row>> {
    let nparts = p.dop.max(1);
    let oenv = OwnedEnv::capture(env);
    let batches = Arc::new(batches);
    let handles = Arc::new(handles);

    // Phase 1: key evaluation + scatter, morselized over handle ranges.
    let ranges = morsel_ranges(handles.len(), p.dop, p.min_rows);
    let gb = group_by.to_vec();
    let env1 = oenv.clone();
    let batches1 = batches.clone();
    let handles1 = handles.clone();
    let scattered = p.pool.run(ranges, move |_, (start, len)| {
        let env = env1.env();
        let mut parts: Vec<Vec<(Vec<Value>, usize)>> = vec![Vec::new(); nparts];
        for (i, &(bi, phys)) in handles1[start..start + len].iter().enumerate() {
            let src = BatchRowSrc {
                batch: &batches1[bi as usize],
                row: phys as usize,
            };
            let mut key = Vec::with_capacity(gb.len());
            for g in &gb {
                key.push(g.eval_src(&src, env)?);
            }
            let b = bucket_of(&key, nparts);
            parts[b].push((key, start + i));
        }
        Ok::<_, mtc_types::Error>(parts)
    });

    // Gather per-partition inputs in morsel order (global index ascending
    // within every partition).
    let mut partitions: Vec<Vec<(Vec<Value>, usize)>> = vec![Vec::new(); nparts];
    for morsel in scattered {
        for (b, mut chunk) in morsel?.into_iter().enumerate() {
            partitions[b].append(&mut chunk);
        }
    }

    // Phase 2: aggregate each partition to completion.
    let aggs_owned = aggs.to_vec();
    let env2 = oenv;
    let finished = p.pool.run(partitions, move |_, part| {
        let env = env2.env();
        let mut groups: HashMap<Vec<Value>, (usize, Vec<AggState>)> = HashMap::new();
        for (key, idx) in part {
            let states = match groups.get_mut(&key) {
                Some((_, s)) => s,
                None => {
                    let states = aggs_owned
                        .iter()
                        .map(|a| AggState::from_parts(a.func, a.distinct))
                        .collect();
                    &mut groups.entry(key).or_insert((idx, states)).1
                }
            };
            let (bi, phys) = handles[idx];
            let src = BatchRowSrc {
                batch: &batches[bi as usize],
                row: phys as usize,
            };
            for (state, call) in states.iter_mut().zip(&aggs_owned) {
                let v = match &call.arg {
                    Some(e) => Some(e.eval_src(&src, env)?),
                    None => None,
                };
                state.update(v);
            }
        }
        let mut out: Vec<(usize, Row)> = Vec::with_capacity(groups.len());
        for (key, (first, states)) in groups {
            let mut vals = key;
            for s in &states {
                vals.push(s.finish());
            }
            out.push((first, Row::new(vals)));
        }
        Ok::<_, mtc_types::Error>(out)
    });

    // Merge: global first-seen order.
    let mut tagged: Vec<(usize, Row)> = Vec::new();
    for part in finished {
        tagged.extend(part?);
    }
    tagged.sort_by_key(|(first, _)| *first);
    Ok(tagged.into_iter().map(|(_, r)| r).collect())
}

/// Parallel join-key evaluation for a hash-join build side. The batches
/// stay shared (the probe phase reads rows through the same handles);
/// workers compute `(index, key)` pairs per morsel and the hash table is
/// assembled serially in handle order, so every key's index list is
/// ascending — identical to the serial build.
pub(crate) fn parallel_build_hash_table(
    p: &ParallelCtx,
    batches: &Arc<Vec<RowBatch>>,
    handles: &Arc<Vec<(u32, u32)>>,
    keys: &[CompiledExpr],
    env: EvalEnv<'_>,
) -> Result<HashMap<Vec<Value>, Vec<usize>>> {
    let ranges = morsel_ranges(handles.len(), p.dop, p.min_rows);
    let batches_shared = batches.clone();
    let handles_shared = handles.clone();
    let keys_owned = keys.to_vec();
    let oenv = OwnedEnv::capture(env);
    let results = p.pool.run(ranges, move |_, (start, len)| {
        let env = oenv.env();
        let mut out: Vec<(usize, Option<Vec<Value>>)> = Vec::with_capacity(len);
        for (i, &(bi, phys)) in handles_shared[start..start + len].iter().enumerate() {
            let src = BatchRowSrc {
                batch: &batches_shared[bi as usize],
                row: phys as usize,
            };
            let mut key = Vec::with_capacity(keys_owned.len());
            let mut null = false;
            for k in &keys_owned {
                let v = k.eval_src(&src, env)?;
                if v.is_null() {
                    null = true;
                    break;
                }
                key.push(v);
            }
            out.push((start + i, (!null).then_some(key)));
        }
        Ok::<_, mtc_types::Error>(out)
    });
    let mut table: HashMap<Vec<Value>, Vec<usize>> = HashMap::new();
    for morsel in results {
        for (i, key) in morsel? {
            if let Some(key) = key {
                table.entry(key).or_default().push(i);
            }
        }
    }
    Ok(table)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn morsel_ranges_cover_exactly() {
        for n in [0usize, 1, 7, 1024, 4096, 100_000] {
            for dop in [1usize, 2, 4, 8] {
                let ranges = morsel_ranges(n, dop, PARALLEL_THRESHOLD);
                let mut next = 0;
                for (start, len) in &ranges {
                    assert_eq!(*start, next, "contiguous");
                    assert!(*len > 0);
                    next = start + len;
                }
                assert_eq!(next, n, "n={n} dop={dop}");
            }
        }
    }

    #[test]
    fn bucket_is_stable() {
        let key = vec![Value::Int(42), Value::str("x")];
        assert_eq!(bucket_of(&key, 4), bucket_of(&key, 4));
        assert!(bucket_of(&key, 4) < 4);
    }
}
