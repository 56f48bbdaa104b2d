//! Columnar row batches: the zero-copy unit of data flow in the streaming
//! executor.
//!
//! A [`RowBatch`] holds up to a pipeline batch of rows *column-wise*:
//! fixed-width `Value` variants (`Int`, `Float`, `Bool`, `Timestamp`) live
//! in dense typed vectors, strings as [`Text`] handles (cloning a string
//! cell bumps a refcount, never copies bytes), and heterogeneous columns
//! degrade to a `Mixed` vector of `Value`s with identical semantics.
//! Columns sit behind `Arc`s, so
//!
//! * projecting a plain column reference shares the column (no copy),
//! * blocking operators (DISTINCT, hash-agg/join builds) retain whole
//!   batches by `Arc` and reference rows as `(batch, row)` handles instead
//!   of cloning `Row`s, and
//! * a **selection vector** (`sel`) narrows a batch to its surviving rows
//!   without moving a byte — filters emit the same columns plus a list of
//!   live physical indices.
//!
//! Null handling: every column carries an optional null mask; a typed
//! column with nulls keeps placeholder slots so the dense vector stays
//! index-aligned. [`ColumnVec::value`] reconstructs the exact `Value` that
//! was stored — batches are bit-transparent, which the equivalence suite
//! (streaming ≡ materialized) depends on.
//!
//! Hashing and equality against column cells mirror [`Value`]'s `Hash` and
//! `Eq` exactly (numerics hash through their `f64` bit pattern so
//! `1 == 1.0` lands in the same bucket); unit tests below pin the parity.

use std::hash::{Hash, Hasher};
use std::sync::Arc;

use crate::row::Row;
use crate::text::Text;
use crate::value::Value;

/// Initial accumulator for the column-major cell hashing below
/// (FNV-1a offset basis). Seed one `u64` per row with this, then fold each
/// key column in with [`ColumnVec::fold_hash_dense`] /
/// [`ColumnVec::fold_hash_at`].
pub const HASH_SEED: u64 = 0xcbf2_9ce4_8422_2325;

const FNV_PRIME: u64 = 0x100_0000_01b3;

#[inline]
fn fnv_u8(h: u64, b: u8) -> u64 {
    (h ^ b as u64).wrapping_mul(FNV_PRIME)
}

/// Folds 8 bytes in one multiply instead of eight. These hashes only feed
/// *internal* lookup tables (DISTINCT / group-by), where the sole contract
/// is equal cells → equal hash; they are not FNV-1a byte-stream compatible
/// and never escape the process.
#[inline]
fn fnv_u64(h: u64, x: u64) -> u64 {
    (h ^ x).wrapping_mul(FNV_PRIME)
}

/// Single source of truth for how one cell value folds into a row hash.
/// The typed column loops below must agree with this exactly — a `Mixed`
/// column holding `Int(5)` has to hash like an `Int` column cell, because
/// one group key may arrive typed in one batch and degraded in the next.
#[inline]
fn fold_value(h: u64, v: &Value) -> u64 {
    match v {
        Value::Null => fnv_u8(h, 0),
        Value::Bool(b) => fnv_u8(fnv_u8(h, 1), *b as u8),
        // Int folds through its f64 bit pattern so `1` and `1.0` land in
        // the same bucket, mirroring `Value::hash`.
        Value::Int(i) => fnv_u64(fnv_u8(h, 2), (*i as f64).to_bits()),
        Value::Float(f) => fnv_u64(fnv_u8(h, 2), f.to_bits()),
        Value::Str(s) => fold_str(h, s),
        Value::Timestamp(t) => fnv_u64(fnv_u8(h, 4), *t as u64),
    }
}

#[inline]
fn fold_str(h: u64, s: &str) -> u64 {
    let mut h = fnv_u8(h, 3);
    for &b in s.as_bytes() {
        h = fnv_u8(h, b);
    }
    // Length terminator so "ab","c" ≠ "a","bc" across adjacent columns.
    fnv_u64(h, s.len() as u64)
}

/// Typed column storage. `Mixed` is the fallback for columns whose cells do
/// not share one `Value` variant (e.g. a CASE expression producing strings
/// and ints); it preserves exact values.
#[derive(Debug, Clone)]
pub enum ColData {
    Int(Vec<i64>),
    Float(Vec<f64>),
    Bool(Vec<bool>),
    Str(Vec<Text>),
    Timestamp(Vec<i64>),
    Mixed(Vec<Value>),
}

impl ColData {
    fn len(&self) -> usize {
        match self {
            ColData::Int(v) | ColData::Timestamp(v) => v.len(),
            ColData::Float(v) => v.len(),
            ColData::Bool(v) => v.len(),
            ColData::Str(v) => v.len(),
            ColData::Mixed(v) => v.len(),
        }
    }
}

/// One column of a [`RowBatch`]: typed data plus an optional null mask.
/// `nulls == None` means no cell is NULL.
#[derive(Debug, Clone)]
pub struct ColumnVec {
    data: ColData,
    nulls: Option<Vec<bool>>,
}

impl ColumnVec {
    pub fn new(data: ColData, nulls: Option<Vec<bool>>) -> ColumnVec {
        if let Some(n) = &nulls {
            debug_assert_eq!(n.len(), data.len());
        }
        ColumnVec { data, nulls }
    }

    pub fn len(&self) -> usize {
        self.data.len()
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    pub fn data(&self) -> &ColData {
        &self.data
    }

    /// Cells the typed storage has room for: `len()` plus whatever spare
    /// capacity the builder that made the column reserved.
    pub fn capacity(&self) -> usize {
        match &self.data {
            ColData::Int(v) | ColData::Timestamp(v) => v.capacity(),
            ColData::Float(v) => v.capacity(),
            ColData::Bool(v) => v.capacity(),
            ColData::Str(v) => v.capacity(),
            ColData::Mixed(v) => v.capacity(),
        }
    }

    /// The null mask, if any cell is NULL.
    pub fn null_mask(&self) -> Option<&[bool]> {
        self.nulls.as_deref()
    }

    #[inline]
    pub fn is_null(&self, i: usize) -> bool {
        match &self.nulls {
            Some(mask) => mask[i],
            None => false,
        }
    }

    /// Reconstructs the exact `Value` stored at `i`.
    #[inline]
    pub fn value(&self, i: usize) -> Value {
        if self.is_null(i) {
            return Value::Null;
        }
        match &self.data {
            ColData::Int(v) => Value::Int(v[i]),
            ColData::Float(v) => Value::Float(v[i]),
            ColData::Bool(v) => Value::Bool(v[i]),
            ColData::Str(v) => Value::Str(v[i].clone()),
            ColData::Timestamp(v) => Value::Timestamp(v[i]),
            ColData::Mixed(v) => v[i].clone(),
        }
    }

    /// Hashes cell `i` exactly as `Value::hash` would hash the
    /// reconstructed value — without reconstructing it. Pinned against
    /// `Value`'s impl by a unit test.
    #[inline]
    pub fn write_hash<H: Hasher>(&self, i: usize, state: &mut H) {
        if self.is_null(i) {
            0u8.hash(state);
            return;
        }
        match &self.data {
            ColData::Int(v) => (2u8, (v[i] as f64).to_bits()).hash(state),
            ColData::Float(v) => (2u8, v[i].to_bits()).hash(state),
            ColData::Bool(v) => (1u8, v[i]).hash(state),
            ColData::Str(v) => (3u8, &v[i]).hash(state),
            ColData::Timestamp(v) => (4u8, v[i]).hash(state),
            ColData::Mixed(v) => v[i].hash(state),
        }
    }

    /// `true` iff the cell at `i` equals `other` under `Value` equality
    /// (Int/Float compare numerically, everything else by variant).
    #[inline]
    pub fn value_eq(&self, i: usize, other: &Value) -> bool {
        if self.is_null(i) {
            return other.is_null();
        }
        match (&self.data, other) {
            (ColData::Int(v), Value::Int(o)) => v[i] == *o,
            (ColData::Int(v), Value::Float(o)) => {
                (v[i] as f64).total_cmp(o) == std::cmp::Ordering::Equal
            }
            (ColData::Float(v), Value::Float(o)) => {
                v[i].total_cmp(o) == std::cmp::Ordering::Equal
            }
            (ColData::Float(v), Value::Int(o)) => {
                v[i].total_cmp(&(*o as f64)) == std::cmp::Ordering::Equal
            }
            (ColData::Bool(v), Value::Bool(o)) => v[i] == *o,
            (ColData::Str(v), Value::Str(o)) => *v[i] == **o,
            (ColData::Timestamp(v), Value::Timestamp(o)) => v[i] == *o,
            (ColData::Mixed(v), o) => v[i] == *o,
            _ => false,
        }
    }

    /// Compares two cells of (possibly different) columns under `Value`
    /// ordering semantics, without reconstructing either side when both are
    /// cells of the same typed column family.
    #[inline]
    pub fn cell_eq(&self, i: usize, other: &ColumnVec, j: usize) -> bool {
        match (self.is_null(i), other.is_null(j)) {
            (true, true) => return true,
            (false, false) => {}
            _ => return false,
        }
        match (&self.data, &other.data) {
            (ColData::Int(a), ColData::Int(b)) => a[i] == b[j],
            (ColData::Str(a), ColData::Str(b)) => a[i] == b[j],
            (ColData::Bool(a), ColData::Bool(b)) => a[i] == b[j],
            (ColData::Timestamp(a), ColData::Timestamp(b)) => a[i] == b[j],
            (ColData::Float(a), ColData::Float(b)) => {
                a[i].total_cmp(&b[j]) == std::cmp::Ordering::Equal
            }
            _ => other.value_eq(j, &self.value(i)),
        }
    }

    /// Folds every cell of this column into its row's hash accumulator,
    /// column-major: `hs[k]` absorbs cell `k`. Seed accumulators with
    /// [`HASH_SEED`]; equal cells (including `Int` vs numerically-equal
    /// `Float`, and typed vs `Mixed` storage) fold identically. One
    /// variant dispatch per *column*, not per cell.
    pub fn fold_hash_dense(&self, hs: &mut [u64]) {
        debug_assert_eq!(hs.len(), self.len());
        self.fold_rows(hs, |k| k)
    }

    /// As [`Self::fold_hash_dense`], but `hs[k]` absorbs the cell at
    /// physical index `idx[k]` — for batches narrowed by a selection
    /// vector.
    pub fn fold_hash_at(&self, idx: &[u32], hs: &mut [u64]) {
        debug_assert_eq!(hs.len(), idx.len());
        self.fold_rows(hs, |k| idx[k] as usize)
    }

    fn fold_rows(&self, hs: &mut [u64], phys: impl Fn(usize) -> usize) {
        let nulls = self.nulls.as_deref();
        macro_rules! fold {
            ($col:expr, $body:expr) => {{
                let col = $col;
                let f = $body;
                for (k, h) in hs.iter_mut().enumerate() {
                    let i = phys(k);
                    if nulls.is_some_and(|m| m[i]) {
                        *h = fnv_u8(*h, 0);
                    } else {
                        *h = f(*h, &col[i]);
                    }
                }
            }};
        }
        match &self.data {
            ColData::Int(v) => fold!(v, |h, x: &i64| fnv_u64(fnv_u8(h, 2), (*x as f64).to_bits())),
            ColData::Float(v) => fold!(v, |h, x: &f64| fnv_u64(fnv_u8(h, 2), x.to_bits())),
            ColData::Bool(v) => fold!(v, |h, x: &bool| fnv_u8(fnv_u8(h, 1), *x as u8)),
            ColData::Str(v) => fold!(v, |h, x: &Text| fold_str(h, x)),
            ColData::Timestamp(v) => fold!(v, |h, x: &i64| fnv_u64(fnv_u8(h, 4), *x as u64)),
            ColData::Mixed(v) => fold!(v, |h, x: &Value| fold_value(h, x)),
        }
    }

    /// Σ `Value::estimated_width` over the cells at `live`, read off the
    /// typed storage: no `Value` is built.
    fn estimated_bytes(&self, live: LiveIndices<'_>) -> u64 {
        let width = |i: usize, w: u64| if self.is_null(i) { 1 } else { w };
        match &self.data {
            ColData::Int(_) | ColData::Float(_) | ColData::Timestamp(_) => match self.nulls {
                None => 8 * live.len() as u64,
                Some(_) => live.map(|i| width(i, 8)).sum(),
            },
            ColData::Bool(_) => live.len() as u64,
            ColData::Str(v) => live.map(|i| width(i, v[i].len() as u64)).sum(),
            ColData::Mixed(v) => live.map(|i| width(i, v[i].estimated_width())).sum(),
        }
    }

    /// One dense column holding the live cells of `parts`, in order, in
    /// storage sized exactly to them — so the copy pins none of the spare
    /// capacity its source batches were built with. Parts stored alike
    /// concatenate typed; a mix degrades to `Mixed`, which holds the same
    /// values.
    pub fn concat<'a, I>(parts: I) -> ColumnVec
    where
        I: Iterator<Item = (&'a ColumnVec, LiveIndices<'a>)> + Clone,
    {
        let len = parts.clone().map(|(_, live)| live.len()).sum();
        let nulls = parts.clone().any(|(c, _)| c.nulls.is_some()).then(|| {
            let mut mask = Vec::with_capacity(len);
            for (c, live) in parts.clone() {
                mask.extend(live.map(|i| c.is_null(i)));
            }
            mask
        });
        let mut kinds = parts.clone().map(|(c, _)| std::mem::discriminant(&c.data));
        let first = kinds.next();
        let alike = kinds.all(|k| Some(k) == first);
        macro_rules! typed {
            ($variant:ident) => {{
                let mut out = Vec::with_capacity(len);
                for (c, live) in parts {
                    let ColData::$variant(v) = &c.data else {
                        unreachable!("parts are stored alike")
                    };
                    out.extend(live.map(|i| v[i].clone()));
                }
                ColData::$variant(out)
            }};
        }
        let data = match parts.clone().next().map(|(c, _)| &c.data) {
            Some(ColData::Int(_)) if alike => typed!(Int),
            Some(ColData::Float(_)) if alike => typed!(Float),
            Some(ColData::Bool(_)) if alike => typed!(Bool),
            Some(ColData::Str(_)) if alike => typed!(Str),
            Some(ColData::Timestamp(_)) if alike => typed!(Timestamp),
            _ => {
                let mut out = Vec::with_capacity(len);
                for (c, live) in parts {
                    out.extend(live.map(|i| c.value(i)));
                }
                ColData::Mixed(out)
            }
        };
        ColumnVec { data, nulls }
    }

    /// Copies the cells at `idx` (physical indices) into a new dense
    /// column, in order.
    pub fn gather(&self, idx: &[u32]) -> ColumnVec {
        let nulls = self
            .nulls
            .as_ref()
            .map(|mask| idx.iter().map(|&i| mask[i as usize]).collect());
        let data = match &self.data {
            ColData::Int(v) => ColData::Int(idx.iter().map(|&i| v[i as usize]).collect()),
            ColData::Float(v) => ColData::Float(idx.iter().map(|&i| v[i as usize]).collect()),
            ColData::Bool(v) => ColData::Bool(idx.iter().map(|&i| v[i as usize]).collect()),
            ColData::Str(v) => {
                ColData::Str(idx.iter().map(|&i| v[i as usize].clone()).collect())
            }
            ColData::Timestamp(v) => {
                ColData::Timestamp(idx.iter().map(|&i| v[i as usize]).collect())
            }
            ColData::Mixed(v) => {
                ColData::Mixed(idx.iter().map(|&i| v[i as usize].clone()).collect())
            }
        };
        ColumnVec { data, nulls }
    }
}

// ---------------------------------------------------------------------------
// Column builder
// ---------------------------------------------------------------------------

enum BuilderData {
    /// No non-null value seen yet; `usize` counts pushed (all-null) cells.
    Empty(usize),
    Int(Vec<i64>),
    Float(Vec<f64>),
    Bool(Vec<bool>),
    Str(Vec<Text>),
    Timestamp(Vec<i64>),
    Mixed(Vec<Value>),
}

/// Incremental builder for one [`ColumnVec`]. Starts untyped; the first
/// non-null value picks the storage, and a later mismatching variant
/// degrades the whole column to `Mixed` (preserving every value exactly).
pub struct ColBuilder {
    data: BuilderData,
    nulls: Option<Vec<bool>>,
    len: usize,
    cap: usize,
}

impl ColBuilder {
    pub fn with_capacity(cap: usize) -> ColBuilder {
        ColBuilder {
            data: BuilderData::Empty(0),
            nulls: None,
            len: 0,
            cap,
        }
    }

    fn mark_null(&mut self, is_null: bool) {
        if is_null {
            match &mut self.nulls {
                Some(mask) => mask.push(true),
                None => {
                    let mut mask = vec![false; self.len];
                    mask.push(true);
                    self.nulls = Some(mask);
                }
            }
        } else if let Some(mask) = &mut self.nulls {
            mask.push(false);
        }
        self.len += 1;
    }

    /// Converts the current typed storage to `Mixed`, preserving values
    /// (null slots become `Value::Null`).
    fn degrade(&mut self) -> &mut Vec<Value> {
        let nulls = self.nulls.as_deref();
        let is_null = |i: usize| nulls.map(|m| m[i]).unwrap_or(false);
        let mixed: Vec<Value> = match &self.data {
            BuilderData::Empty(n) => vec![Value::Null; *n],
            BuilderData::Int(v) => v
                .iter()
                .enumerate()
                .map(|(i, x)| if is_null(i) { Value::Null } else { Value::Int(*x) })
                .collect(),
            BuilderData::Float(v) => v
                .iter()
                .enumerate()
                .map(|(i, x)| if is_null(i) { Value::Null } else { Value::Float(*x) })
                .collect(),
            BuilderData::Bool(v) => v
                .iter()
                .enumerate()
                .map(|(i, x)| if is_null(i) { Value::Null } else { Value::Bool(*x) })
                .collect(),
            BuilderData::Str(v) => v
                .iter()
                .enumerate()
                .map(|(i, x)| {
                    if is_null(i) {
                        Value::Null
                    } else {
                        Value::Str(x.clone())
                    }
                })
                .collect(),
            BuilderData::Timestamp(v) => v
                .iter()
                .enumerate()
                .map(|(i, x)| {
                    if is_null(i) {
                        Value::Null
                    } else {
                        Value::Timestamp(*x)
                    }
                })
                .collect(),
            BuilderData::Mixed(_) => unreachable!("degrade called on Mixed"),
        };
        self.data = BuilderData::Mixed(mixed);
        match &mut self.data {
            BuilderData::Mixed(v) => v,
            _ => unreachable!(),
        }
    }

    /// Pushes a borrowed value (string payloads are `Arc`-bumped, never
    /// copied).
    #[inline]
    pub fn push_ref(&mut self, v: &Value) {
        match (&mut self.data, v) {
            (_, Value::Null) => {
                match &mut self.data {
                    BuilderData::Empty(n) => *n += 1,
                    BuilderData::Int(v) | BuilderData::Timestamp(v) => v.push(0),
                    BuilderData::Float(v) => v.push(0.0),
                    BuilderData::Bool(v) => v.push(false),
                    BuilderData::Str(v) => v.push(Text::new("")),
                    BuilderData::Mixed(v) => v.push(Value::Null),
                }
                self.mark_null(true);
                return;
            }
            (BuilderData::Int(col), Value::Int(x)) => col.push(*x),
            (BuilderData::Float(col), Value::Float(x)) => col.push(*x),
            (BuilderData::Bool(col), Value::Bool(x)) => col.push(*x),
            (BuilderData::Str(col), Value::Str(x)) => col.push(x.clone()),
            (BuilderData::Timestamp(col), Value::Timestamp(x)) => col.push(*x),
            (BuilderData::Mixed(col), x) => col.push(x.clone()),
            (BuilderData::Empty(0), x) => {
                let cap = self.cap;
                self.data = match x {
                    Value::Int(i) => {
                        let mut c = Vec::with_capacity(cap);
                        c.push(*i);
                        BuilderData::Int(c)
                    }
                    Value::Float(f) => {
                        let mut c = Vec::with_capacity(cap);
                        c.push(*f);
                        BuilderData::Float(c)
                    }
                    Value::Bool(b) => {
                        let mut c = Vec::with_capacity(cap);
                        c.push(*b);
                        BuilderData::Bool(c)
                    }
                    Value::Str(s) => {
                        let mut c: Vec<Text> = Vec::with_capacity(cap);
                        c.push(s.clone());
                        BuilderData::Str(c)
                    }
                    Value::Timestamp(t) => {
                        let mut c = Vec::with_capacity(cap);
                        c.push(*t);
                        BuilderData::Timestamp(c)
                    }
                    Value::Null => unreachable!("null handled above"),
                };
            }
            // Variant mismatch (or a leading run of nulls): degrade.
            (_, x) => self.degrade().push(x.clone()),
        }
        self.mark_null(false);
    }

    /// Pushes an owned value (moves string handles).
    #[inline]
    pub fn push(&mut self, v: Value) {
        match (&mut self.data, v) {
            (BuilderData::Str(col), Value::Str(x)) => {
                col.push(x);
                self.mark_null(false);
            }
            (BuilderData::Mixed(col), x) => {
                let null = x.is_null();
                col.push(x);
                self.mark_null(null);
            }
            (_, v) => self.push_ref(&v),
        }
    }

    pub fn finish(self) -> ColumnVec {
        let data = match self.data {
            BuilderData::Empty(n) => ColData::Mixed(vec![Value::Null; n]),
            BuilderData::Int(v) => ColData::Int(v),
            BuilderData::Float(v) => ColData::Float(v),
            BuilderData::Bool(v) => ColData::Bool(v),
            BuilderData::Str(v) => ColData::Str(v),
            BuilderData::Timestamp(v) => ColData::Timestamp(v),
            BuilderData::Mixed(v) => ColData::Mixed(v),
        };
        ColumnVec {
            data,
            nulls: self.nulls,
        }
    }
}

// ---------------------------------------------------------------------------
// RowBatch
// ---------------------------------------------------------------------------

/// A batch of rows stored column-wise with `Arc`-shared columns and an
/// optional selection vector (`sel`: live *physical* row indices, in
/// order). `Clone` is cheap: per-column refcount bumps plus the sel copy.
///
/// Width-0 batches (e.g. the `Nothing` leaf's single empty row) carry their
/// row count explicitly.
#[derive(Debug, Clone)]
pub struct RowBatch {
    cols: Vec<Arc<ColumnVec>>,
    rows: usize,
    sel: Option<Vec<u32>>,
}

impl RowBatch {
    pub fn from_cols(cols: Vec<Arc<ColumnVec>>) -> RowBatch {
        let rows = cols.first().map(|c| c.len()).unwrap_or(0);
        debug_assert!(cols.iter().all(|c| c.len() == rows), "ragged batch");
        RowBatch {
            cols,
            rows,
            sel: None,
        }
    }

    /// A width-0 batch of `n` (empty) rows.
    pub fn empty_rows(n: usize) -> RowBatch {
        RowBatch {
            cols: Vec::new(),
            rows: n,
            sel: None,
        }
    }

    pub fn width(&self) -> usize {
        self.cols.len()
    }

    /// Live row count (after selection).
    pub fn len(&self) -> usize {
        match &self.sel {
            Some(s) => s.len(),
            None => self.rows,
        }
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Physical row count (before selection).
    pub fn phys_rows(&self) -> usize {
        self.rows
    }

    pub fn sel(&self) -> Option<&[u32]> {
        self.sel.as_deref()
    }

    pub fn col(&self, c: usize) -> &ColumnVec {
        &self.cols[c]
    }

    pub fn col_arc(&self, c: usize) -> Arc<ColumnVec> {
        self.cols[c].clone()
    }

    /// Value at a *physical* row index.
    #[inline]
    pub fn value_at(&self, phys: usize, c: usize) -> Value {
        self.cols[c].value(phys)
    }

    /// Iterates live physical row indices in order.
    pub fn live(&self) -> LiveIndices<'_> {
        match &self.sel {
            Some(s) => LiveIndices::Sel(s.iter()),
            None => LiveIndices::Range(0..self.rows),
        }
    }

    /// Narrows to `sel` (physical indices, ascending subset of the current
    /// live set). Columns are shared, nothing is copied.
    pub fn with_sel(&self, sel: Vec<u32>) -> RowBatch {
        RowBatch {
            cols: self.cols.clone(),
            rows: self.rows,
            sel: Some(sel),
        }
    }

    /// Projects onto the given column indices: the output shares the
    /// selected columns (`Arc` bumps) and the selection vector — a pure
    /// metadata operation, no cell moves.
    pub fn project(&self, indices: impl IntoIterator<Item = usize>) -> RowBatch {
        RowBatch {
            cols: indices.into_iter().map(|i| self.cols[i].clone()).collect(),
            rows: self.rows,
            sel: self.sel.clone(),
        }
    }

    /// Keeps only the first `n` live rows (TOP). Shares columns.
    pub fn take_first(self, n: usize) -> RowBatch {
        if n >= self.len() {
            return self;
        }
        let sel = match self.sel {
            Some(mut s) => {
                s.truncate(n);
                Some(s)
            }
            None if self.cols.is_empty() => {
                return RowBatch {
                    cols: self.cols,
                    rows: n,
                    sel: None,
                }
            }
            None => Some((0..n as u32).collect()),
        };
        RowBatch {
            cols: self.cols,
            rows: self.rows,
            sel,
        }
    }

    /// The values of one physical row, in column order.
    pub fn values_iter(&self, phys: usize) -> impl Iterator<Item = Value> + '_ {
        self.cols.iter().map(move |c| c.value(phys))
    }

    /// Materializes the live rows as owned [`Row`]s, appending to `out`.
    /// Returns the estimated byte volume materialized.
    pub fn append_rows(&self, out: &mut Vec<Row>) -> u64 {
        let mut bytes = 0u64;
        out.reserve(self.len());
        for phys in self.live() {
            let row = Row::new(self.values_iter(phys).collect());
            bytes += row.estimated_width();
            out.push(row);
        }
        bytes
    }

    pub fn to_rows(&self) -> Vec<Row> {
        let mut out = Vec::with_capacity(self.len());
        self.append_rows(&mut out);
        out
    }

    /// Builds a dense batch by *moving* owned rows in (no value clones).
    /// `width` governs the column count when `rows` is empty.
    pub fn from_rows(rows: Vec<Row>, width: usize) -> RowBatch {
        let mut b = RowBatchBuilder::with_capacity(width, rows.len());
        for row in rows {
            b.push_row(row);
        }
        b.finish()
    }

    /// Estimated wire size of the live rows: Σ `Row::estimated_width` of
    /// the rows [`append_rows`](Self::append_rows) would build, summed per
    /// typed column without building them.
    pub fn estimated_bytes(&self) -> u64 {
        self.cols.iter().map(|c| c.estimated_bytes(self.live())).sum()
    }

    /// One dense batch of `width` columns holding the live rows of
    /// `batches`, in order, each column exactly sized
    /// ([`ColumnVec::concat`]).
    pub fn concat(batches: &[RowBatch], width: usize) -> RowBatch {
        let cols = (0..width)
            .map(|c| Arc::new(ColumnVec::concat(batches.iter().map(|b| (b.col(c), b.live())))))
            .collect();
        RowBatch {
            cols,
            rows: batches.iter().map(RowBatch::len).sum(),
            sel: None,
        }
    }
}

/// Iterator over a batch's live physical row indices.
#[derive(Clone)]
pub enum LiveIndices<'a> {
    Sel(std::slice::Iter<'a, u32>),
    Range(std::ops::Range<usize>),
}

impl Iterator for LiveIndices<'_> {
    type Item = usize;

    #[inline]
    fn next(&mut self) -> Option<usize> {
        match self {
            LiveIndices::Sel(it) => it.next().map(|&i| i as usize),
            LiveIndices::Range(r) => r.next(),
        }
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        match self {
            LiveIndices::Sel(it) => it.size_hint(),
            LiveIndices::Range(r) => r.size_hint(),
        }
    }
}

impl ExactSizeIterator for LiveIndices<'_> {}

/// Builds a dense [`RowBatch`] row-at-a-time.
pub struct RowBatchBuilder {
    cols: Vec<ColBuilder>,
    rows: usize,
}

impl RowBatchBuilder {
    pub fn with_capacity(width: usize, cap: usize) -> RowBatchBuilder {
        RowBatchBuilder {
            cols: (0..width).map(|_| ColBuilder::with_capacity(cap)).collect(),
            rows: 0,
        }
    }

    pub fn len(&self) -> usize {
        self.rows
    }

    pub fn is_empty(&self) -> bool {
        self.rows == 0
    }

    /// Appends a borrowed row (fixed-width cells copied, strings
    /// `Arc`-bumped — never a `Row` clone).
    #[inline]
    pub fn push_row_ref(&mut self, row: &Row) {
        debug_assert_eq!(row.len(), self.cols.len());
        for (b, v) in self.cols.iter_mut().zip(row.values()) {
            b.push_ref(v);
        }
        self.rows += 1;
    }

    /// Appends a projection of a borrowed row: cell `cols[k]` of `row`
    /// feeds builder column `k`. Lets pruned scans build only the columns
    /// a query actually reads.
    #[inline]
    pub fn push_row_cols(&mut self, row: &Row, cols: &[usize]) {
        debug_assert_eq!(cols.len(), self.cols.len());
        for (b, &c) in self.cols.iter_mut().zip(cols) {
            b.push_ref(&row[c]);
        }
        self.rows += 1;
    }

    /// Appends an owned row, moving its values in.
    #[inline]
    pub fn push_row(&mut self, row: Row) {
        debug_assert_eq!(row.len(), self.cols.len());
        for (b, v) in self.cols.iter_mut().zip(row.0) {
            b.push(v);
        }
        self.rows += 1;
    }

    /// Appends a row given as an iterator of owned values. The iterator
    /// must yield exactly `width` values.
    #[inline]
    pub fn push_values(&mut self, values: impl IntoIterator<Item = Value>) {
        let mut n = 0;
        let mut it = values.into_iter();
        for b in self.cols.iter_mut() {
            b.push(it.next().expect("row narrower than batch"));
            n += 1;
        }
        debug_assert!(it.next().is_none(), "row wider than batch");
        debug_assert_eq!(n, self.cols.len());
        self.rows += 1;
    }

    pub fn finish(self) -> RowBatch {
        let rows = self.rows;
        let cols: Vec<Arc<ColumnVec>> =
            self.cols.into_iter().map(|b| Arc::new(b.finish())).collect();
        debug_assert!(cols.iter().all(|c| c.len() == rows));
        RowBatch {
            cols,
            rows,
            sel: None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::row;
    use std::collections::hash_map::DefaultHasher;

    fn value_battery() -> Vec<Value> {
        vec![
            Value::Null,
            Value::Bool(true),
            Value::Bool(false),
            Value::Int(0),
            Value::Int(-7),
            Value::Int(i64::MAX / 2),
            Value::Float(0.0),
            Value::Float(-0.0),
            Value::Float(7.0),
            Value::Float(2.5),
            Value::str(""),
            Value::str("abc"),
            Value::Timestamp(42),
        ]
    }

    fn hash_value(v: &Value) -> u64 {
        let mut h = DefaultHasher::new();
        v.hash(&mut h);
        h.finish()
    }

    fn hash_cell(c: &ColumnVec, i: usize) -> u64 {
        let mut h = DefaultHasher::new();
        c.write_hash(i, &mut h);
        h.finish()
    }

    /// Column-cell hashing must agree with `Value::hash` for every variant
    /// and every storage layout (typed and Mixed).
    #[test]
    fn cell_hash_matches_value_hash() {
        let battery = value_battery();
        // One column per value → typed storage.
        for v in &battery {
            let mut b = ColBuilder::with_capacity(1);
            b.push_ref(v);
            let c = b.finish();
            assert_eq!(hash_cell(&c, 0), hash_value(v), "typed {v:?}");
            assert!(c.value_eq(0, v), "typed eq {v:?}");
            assert_eq!(c.value(0), *v, "typed roundtrip {v:?}");
        }
        // All values in one column → Mixed storage.
        let mut b = ColBuilder::with_capacity(battery.len());
        for v in &battery {
            b.push_ref(v);
        }
        let c = b.finish();
        for (i, v) in battery.iter().enumerate() {
            assert_eq!(hash_cell(&c, i), hash_value(v), "mixed {v:?}");
            assert!(c.value_eq(i, v), "mixed eq {v:?}");
            assert_eq!(c.value(i), *v, "mixed roundtrip {v:?}");
        }
    }

    #[test]
    fn int_and_float_cells_hash_and_compare_numerically() {
        let mut bi = ColBuilder::with_capacity(1);
        bi.push(Value::Int(7));
        let ci = bi.finish();
        let mut bf = ColBuilder::with_capacity(1);
        bf.push(Value::Float(7.0));
        let cf = bf.finish();
        assert_eq!(hash_cell(&ci, 0), hash_cell(&cf, 0));
        assert!(ci.value_eq(0, &Value::Float(7.0)));
        assert!(cf.value_eq(0, &Value::Int(7)));
        assert!(ci.cell_eq(0, &cf, 0));
        assert!(!ci.value_eq(0, &Value::str("7")));
    }

    #[test]
    fn nulls_in_typed_columns_round_trip() {
        let mut b = ColBuilder::with_capacity(4);
        b.push(Value::Int(1));
        b.push(Value::Null);
        b.push(Value::Int(3));
        let c = b.finish();
        assert!(matches!(c.data(), ColData::Int(_)));
        assert_eq!(c.value(0), Value::Int(1));
        assert_eq!(c.value(1), Value::Null);
        assert_eq!(c.value(2), Value::Int(3));
        assert!(c.value_eq(1, &Value::Null));
        assert!(!c.value_eq(1, &Value::Int(0)));
        assert_eq!(hash_cell(&c, 1), hash_value(&Value::Null));
    }

    #[test]
    fn leading_nulls_then_typed_degrades_exactly() {
        let mut b = ColBuilder::with_capacity(3);
        b.push(Value::Null);
        b.push(Value::Int(2));
        b.push(Value::str("x"));
        let c = b.finish();
        assert_eq!(c.value(0), Value::Null);
        assert_eq!(c.value(1), Value::Int(2));
        assert_eq!(c.value(2), Value::str("x"));
    }

    #[test]
    fn mixed_degradation_preserves_exact_variants() {
        // Int then Float must not silently coerce either side.
        let mut b = ColBuilder::with_capacity(2);
        b.push(Value::Int(1));
        b.push(Value::Float(2.5));
        b.push(Value::Timestamp(9));
        let c = b.finish();
        assert_eq!(c.value(0), Value::Int(1));
        assert!(matches!(c.value(0), Value::Int(_)));
        assert!(matches!(c.value(1), Value::Float(_)));
        assert!(matches!(c.value(2), Value::Timestamp(_)));
    }

    #[test]
    fn batch_roundtrip_and_selection() {
        let rows = vec![row![1, "a", 1.5], row![2, "b", 2.5], row![3, "c", 3.5]];
        let mut b = RowBatchBuilder::with_capacity(3, rows.len());
        for r in &rows {
            b.push_row_ref(r);
        }
        let batch = b.finish();
        assert_eq!(batch.len(), 3);
        assert_eq!(batch.to_rows(), rows);

        let narrowed = batch.with_sel(vec![0, 2]);
        assert_eq!(narrowed.len(), 2);
        assert_eq!(narrowed.to_rows(), vec![rows[0].clone(), rows[2].clone()]);

        let compact = RowBatch::concat(std::slice::from_ref(&narrowed), 3);
        assert!(compact.sel().is_none());
        assert_eq!(compact.to_rows(), vec![rows[0].clone(), rows[2].clone()]);

        let top = batch.clone().take_first(1);
        assert_eq!(top.to_rows(), vec![rows[0].clone()]);
        // TOP narrows by selection: every column is shared, none copied.
        for c in 0..batch.width() {
            assert!(
                Arc::ptr_eq(&batch.col_arc(c), &top.col_arc(c)),
                "take_first must share column {c}, not copy it"
            );
        }
    }

    #[test]
    fn take_first_composes_with_selection() {
        let rows = vec![row![1], row![2], row![3], row![4]];
        let batch = RowBatch::from_rows(rows, 1).with_sel(vec![1, 2, 3]);
        let top = batch.take_first(2);
        assert_eq!(top.to_rows(), vec![row![2], row![3]]);
    }

    #[test]
    fn width_zero_batches_carry_row_counts() {
        let b = RowBatch::empty_rows(1);
        assert_eq!(b.width(), 0);
        assert_eq!(b.len(), 1);
        assert_eq!(b.to_rows(), vec![Row::new(vec![])]);
        let t = b.take_first(0);
        assert_eq!(t.len(), 0);
    }

    #[test]
    fn from_rows_moves_values() {
        let rows = vec![row![1, "x"], row![2, "y"]];
        let batch = RowBatch::from_rows(rows.clone(), 2);
        assert_eq!(batch.to_rows(), rows);
        assert!(matches!(batch.col(0).data(), ColData::Int(_)));
        assert!(matches!(batch.col(1).data(), ColData::Str(_)));
    }

    #[test]
    fn append_rows_reports_bytes() {
        let batch = RowBatch::from_rows(vec![row![1, "abcd"]], 2);
        let mut out = Vec::new();
        let bytes = batch.append_rows(&mut out);
        assert_eq!(out.len(), 1);
        assert_eq!(bytes, out[0].estimated_width());
        assert_eq!(bytes, 8 + 4);
    }

    #[test]
    fn fold_hash_is_storage_agnostic() {
        // Equal cells fold identically whether stored typed, as a
        // numerically equal other type, or degraded to Mixed — and via the
        // dense or indexed entry point.
        let vals = value_battery();
        let typed: Vec<ColumnVec> = vals
            .iter()
            .map(|v| {
                let mut b = ColBuilder::with_capacity(1);
                b.push_ref(v);
                b.finish()
            })
            .collect();
        let mixed = ColumnVec::new(ColData::Mixed(vals.clone()), None);
        for (i, col) in typed.iter().enumerate() {
            let mut a = [HASH_SEED];
            col.fold_hash_dense(&mut a);
            let mut b = [HASH_SEED; 1];
            mixed.fold_hash_at(&[i as u32], &mut b);
            assert_eq!(a[0], b[0], "typed vs mixed fold for {:?}", vals[i]);
            assert_eq!(a[0], fold_value(HASH_SEED, &vals[i]), "{:?}", vals[i]);
        }
        // Int 1 and Float 1.0 must land in the same bucket.
        assert_eq!(
            fold_value(HASH_SEED, &Value::Int(1)),
            fold_value(HASH_SEED, &Value::Float(1.0))
        );
    }

    #[test]
    fn fold_hash_handles_nulls_in_typed_columns() {
        let mut b = ColBuilder::with_capacity(3);
        b.push(Value::Int(7));
        b.push(Value::Null);
        b.push(Value::Int(7));
        let col = b.finish();
        let mut hs = [HASH_SEED; 3];
        col.fold_hash_dense(&mut hs);
        assert_eq!(hs[0], hs[2]);
        assert_eq!(hs[1], fold_value(HASH_SEED, &Value::Null));
        assert_ne!(hs[0], hs[1]);
    }

    fn column(values: Vec<Value>) -> Arc<ColumnVec> {
        let mut b = ColBuilder::with_capacity(values.len());
        for v in values {
            b.push(v);
        }
        Arc::new(b.finish())
    }

    #[test]
    fn estimated_bytes_is_the_rows_estimated_width() {
        // Typed columns with and without NULLs, strings with a NULL and an
        // empty one, a Mixed column, then a selection over all of them.
        let (i, f, b) = (Value::Int, Value::Float, Value::Bool);
        let batch = RowBatch::from_cols(vec![
            column(vec![i(1), i(2), i(3), i(4)]),
            column(vec![f(1.5), Value::Null, f(2.5), Value::Null]),
            column(["hello", "", "xy"].map(Value::str).into_iter().chain([Value::Null]).collect()),
            column(vec![i(1), Value::str("abc"), Value::Null, b(true)]),
            column(vec![b(true), b(false), b(true), b(false)]),
        ]);
        assert!(matches!(batch.col(2).data(), ColData::Str(_)));
        assert!(matches!(batch.col(3).data(), ColData::Mixed(_)));
        let width = |b: &RowBatch| b.to_rows().iter().map(Row::estimated_width).sum::<u64>();
        assert_eq!(batch.estimated_bytes(), width(&batch));
        let narrowed = batch.with_sel(vec![1, 3]);
        assert_eq!(narrowed.estimated_bytes(), width(&narrowed));
        assert_eq!(RowBatch::empty_rows(3).estimated_bytes(), 0);
    }

    #[test]
    fn concat_is_dense_exactly_sized_and_exact() {
        // A typed part with spare capacity, a narrowed part, and a part of
        // another storage type (forcing Mixed) in the second column.
        let mut wide = RowBatchBuilder::with_capacity(2, 64);
        wide.push_row(row![1, "a"]);
        wide.push_row(row![2, "b"]);
        let a = wide.finish();
        assert!(a.col(0).capacity() > a.col(0).len());
        let b = RowBatch::from_rows(vec![row![3, "c"], row![4, "d"], row![5, "e"]], 2)
            .with_sel(vec![0, 2]);
        let c = RowBatch::from_rows(vec![row![6, 7]], 2);
        let all = RowBatch::concat(&[a.clone(), b.clone(), c.clone()], 2);
        let mut rows = a.to_rows();
        rows.extend(b.to_rows());
        rows.extend(c.to_rows());
        assert_eq!(all.to_rows(), rows);
        assert!(all.sel().is_none());
        assert!(matches!(all.col(0).data(), ColData::Int(_)));
        assert!(matches!(all.col(1).data(), ColData::Mixed(_)));
        for i in 0..2 {
            assert_eq!(all.col(i).len(), all.col(i).capacity());
        }
        // Nulls survive, and an empty input is an empty dense batch.
        let nulls = vec![row![1], Row::new(vec![Value::Null])];
        let n = RowBatch::concat(&[RowBatch::from_rows(nulls.clone(), 1)], 1);
        assert_eq!(n.to_rows(), nulls);
        assert_eq!(RowBatch::concat(&[], 3).len(), 0);
    }

    #[test]
    fn project_shares_columns_and_selection() {
        let batch = RowBatch::from_rows(vec![row![1, "a", 10], row![2, "b", 20]], 3)
            .with_sel(vec![1]);
        let p = batch.project([2, 0]);
        assert_eq!(p.width(), 2);
        assert_eq!(p.to_rows(), vec![row![20, 2]]);
        assert!(Arc::ptr_eq(&p.col_arc(0), &batch.col_arc(2)));
        assert!(Arc::ptr_eq(&p.col_arc(1), &batch.col_arc(0)));
    }
}
