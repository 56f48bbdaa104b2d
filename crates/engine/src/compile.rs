//! Expression and plan compilation: the hot-path half of query execution.
//!
//! The tree-walking interpreter in [`crate::eval`] resolves every column
//! reference by *string lookup* (`Schema::index_of`) on every row — fine for
//! correctness work, hopeless for a mid-tier cache whose whole reason to
//! exist is answering queries cheaper than the backend. This module lowers a
//! bound [`PhysicalPlan`] into a [`CompiledQuery`] in which
//!
//! * column references are **ordinals** ([`CompiledExpr::Col`]), resolved
//!   once at plan-build time through the exact same resolution rules as
//!   `Schema::index_of` (exact match, then unambiguous suffix match);
//! * parameters are **slots** ([`CompiledExpr::Param`]) into a flat array
//!   resolved once per execution from the [`Bindings`] map — the unbound-
//!   parameter error is raised lazily at evaluation time with the original
//!   parameter name, exactly as the interpreter does;
//! * **constant subexpressions are folded** — but only when they evaluate
//!   without error, so `1/0` still fails at run time (and only if it is
//!   actually evaluated), never at compile time;
//! * scalar function names are resolved to a [`FuncKind`] once instead of
//!   per-row `to_ascii_uppercase` dispatch;
//! * a projection absorbs the all-column projections below it, and prunes
//!   an access-path leaf beneath it to the columns it and the leaf's
//!   residual read, so a warm read builds only the columns it returns.
//!
//! Evaluation semantics are shared with the interpreter: three-valued
//! logic, comparison and arithmetic all route through the same
//! `eval::truth` / `eval::apply_cmp_arith` helpers, and scalar functions
//! run through [`FuncKind::apply`] from both paths. A property test in
//! `tests/equivalence_prop.rs` holds the two evaluators bit-identical.
//!
//! Compiled plans are immutable and self-contained, which is what makes the
//! parameterized plan cache (mtcache's `plan_cache`) safe: one compiled
//! plan, many concurrent executions, each with its own parameter slots.

use std::sync::Arc;

use mtc_sql::{BinOp, Expr, JoinKind, Prepared, UnaryOp};
use mtc_types::{Error, Result, Row, Schema, Value};

use crate::eval::{apply_cmp_arith, like_match, negate, truth, Bindings};
use crate::logical::AggFunc;
use crate::physical::{KeyBound, PhysicalPlan, RemoteSite};

// ---------------------------------------------------------------------------
// Parameter slots
// ---------------------------------------------------------------------------

/// The parameters a compiled query references, in first-use order. Each
/// [`CompiledExpr::Param`] holds an index into this table.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ParamSlots {
    names: Vec<String>,
}

impl ParamSlots {
    /// Interns `name`, returning its slot.
    fn slot(&mut self, name: &str) -> usize {
        match self.names.iter().position(|n| n == name) {
            Some(i) => i,
            None => {
                self.names.push(name.to_string());
                self.names.len() - 1
            }
        }
    }

    /// Parameter names in slot order.
    pub fn names(&self) -> &[String] {
        &self.names
    }

    pub fn len(&self) -> usize {
        self.names.len()
    }

    pub fn is_empty(&self) -> bool {
        self.names.is_empty()
    }

    /// Resolves bindings into a slot array. Missing parameters become
    /// `None`; the error is raised lazily if and when the slot is actually
    /// evaluated — an `AND` short-circuit may legitimately never touch it.
    pub fn resolve(&self, params: &Bindings) -> Vec<Option<Value>> {
        self.names.iter().map(|n| params.get(n).cloned()).collect()
    }

    /// [`resolve`](Self::resolve) into `out`, slot by slot: a statement
    /// with few parameters resolves them on the stack.
    pub fn resolve_into(&self, params: &Bindings, out: &mut [Option<Value>]) {
        for (slot, name) in out.iter_mut().zip(&self.names) {
            *slot = params.get(name).cloned();
        }
    }
}

/// Per-execution evaluation environment: resolved parameter slots plus the
/// slot names (for the lazy unbound-parameter error).
#[derive(Debug, Clone, Copy)]
pub struct EvalEnv<'e> {
    pub params: &'e [Option<Value>],
    pub names: &'e [String],
}

impl<'e> EvalEnv<'e> {
    /// An environment with no parameters (constant folding, tests).
    pub const EMPTY: EvalEnv<'static> = EvalEnv {
        params: &[],
        names: &[],
    };

    pub(crate) fn param(&self, slot: usize) -> Result<Value> {
        match self.params.get(slot) {
            Some(Some(v)) => Ok(v.clone()),
            _ => {
                let name = self.names.get(slot).map(String::as_str).unwrap_or("?");
                Err(Error::execution(format!("unbound parameter `@{name}`")))
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Scalar functions
// ---------------------------------------------------------------------------

/// A scalar function, resolved from its name once at compile time. The
/// interpreter resolves per call through [`FuncKind::parse`]; both paths
/// share [`FuncKind::apply`].
#[derive(Debug, Clone, PartialEq)]
pub enum FuncKind {
    Lower,
    Upper,
    Len,
    Abs,
    Round,
    Substring,
    Coalesce,
    /// Unresolvable name (kept so the error surfaces at evaluation time,
    /// matching the interpreter). Holds the uppercased name.
    Unknown(String),
}

impl FuncKind {
    pub fn parse(name: &str) -> FuncKind {
        match name.to_ascii_uppercase().as_str() {
            "LOWER" => FuncKind::Lower,
            "UPPER" => FuncKind::Upper,
            "LEN" | "LENGTH" => FuncKind::Len,
            "ABS" => FuncKind::Abs,
            "ROUND" => FuncKind::Round,
            "SUBSTRING" => FuncKind::Substring,
            "COALESCE" => FuncKind::Coalesce,
            other => FuncKind::Unknown(other.to_string()),
        }
    }

    /// Applies the function to already-evaluated arguments.
    pub fn apply(&self, argv: &[Value]) -> Result<Value> {
        match self {
            FuncKind::Lower => str_fn(argv, |s| s.to_ascii_lowercase()),
            FuncKind::Upper => str_fn(argv, |s| s.to_ascii_uppercase()),
            FuncKind::Len => match argv.first() {
                Some(Value::Str(s)) => Ok(Value::Int(s.len() as i64)),
                Some(Value::Null) | None => Ok(Value::Null),
                Some(other) => Err(Error::type_error(format!("LEN of non-string {other}"))),
            },
            FuncKind::Abs => match argv.first() {
                Some(Value::Int(i)) => Ok(Value::Int(i.abs())),
                Some(Value::Float(f)) => Ok(Value::Float(f.abs())),
                Some(Value::Null) | None => Ok(Value::Null),
                Some(other) => Err(Error::type_error(format!("ABS of {other}"))),
            },
            FuncKind::Round => match argv.first() {
                Some(Value::Float(f)) => {
                    let digits = argv.get(1).and_then(Value::as_i64).unwrap_or(0);
                    let scale = 10f64.powi(digits as i32);
                    Ok(Value::Float((f * scale).round() / scale))
                }
                Some(Value::Int(i)) => Ok(Value::Int(*i)),
                Some(Value::Null) | None => Ok(Value::Null),
                Some(other) => Err(Error::type_error(format!("ROUND of {other}"))),
            },
            FuncKind::Substring => {
                // SUBSTRING(s, start, len) — 1-based, like T-SQL.
                match (argv.first(), argv.get(1), argv.get(2)) {
                    (Some(Value::Str(s)), Some(start), Some(len)) => {
                        let start = (start.as_i64().unwrap_or(1).max(1) - 1) as usize;
                        let len = len.as_i64().unwrap_or(0).max(0) as usize;
                        let out: String = s.chars().skip(start).take(len).collect();
                        Ok(Value::str(out))
                    }
                    (Some(Value::Null), _, _) => Ok(Value::Null),
                    _ => Err(Error::type_error("SUBSTRING(s, start, len) expected")),
                }
            }
            FuncKind::Coalesce => {
                for v in argv {
                    if !v.is_null() {
                        return Ok(v.clone());
                    }
                }
                Ok(Value::Null)
            }
            FuncKind::Unknown(name) => {
                Err(Error::execution(format!("unknown function `{name}`")))
            }
        }
    }
}

fn str_fn(argv: &[Value], f: impl Fn(&str) -> String) -> Result<Value> {
    match argv.first() {
        Some(Value::Str(s)) => Ok(Value::str(f(s))),
        Some(Value::Null) | None => Ok(Value::Null),
        Some(other) => Err(Error::type_error(format!(
            "string function applied to {other}"
        ))),
    }
}

// ---------------------------------------------------------------------------
// Compiled expressions
// ---------------------------------------------------------------------------

/// A bound scalar expression with all name resolution done up front.
#[derive(Debug, Clone, PartialEq)]
pub enum CompiledExpr {
    /// Column ordinal in the input row.
    Col(usize),
    /// Literal or folded constant.
    Const(Value),
    /// Parameter slot (see [`ParamSlots`]).
    Param(usize),
    Unary {
        op: UnaryOp,
        expr: Box<CompiledExpr>,
    },
    Binary {
        left: Box<CompiledExpr>,
        op: BinOp,
        right: Box<CompiledExpr>,
    },
    Func {
        kind: FuncKind,
        args: Vec<CompiledExpr>,
    },
    Like {
        expr: Box<CompiledExpr>,
        pattern: Box<CompiledExpr>,
        negated: bool,
    },
    InList {
        expr: Box<CompiledExpr>,
        list: Vec<CompiledExpr>,
        negated: bool,
    },
    IsNull {
        expr: Box<CompiledExpr>,
        negated: bool,
    },
    Case {
        branches: Vec<(CompiledExpr, CompiledExpr)>,
        else_expr: Option<Box<CompiledExpr>>,
    },
}

/// Anything a compiled expression can read column values out of: an owned
/// [`Row`], or a (batch, row-index) cell handle in the vectorized executor
/// (see `crate::vector`). `value_at` reconstructs the `Value` at ordinal
/// `i`; string payloads are `Arc`-bumped, never copied.
pub trait ValueSource {
    fn value_at(&self, i: usize) -> Value;
}

impl ValueSource for Row {
    #[inline]
    fn value_at(&self, i: usize) -> Value {
        self[i].clone()
    }
}

impl CompiledExpr {
    /// Collects every column ordinal the expression reads into `out`
    /// (duplicates possible; callers sort/dedup). Drives scan column
    /// pruning: a scan only builds the columns its residual predicate or
    /// the projection above actually touch.
    pub fn collect_cols(&self, out: &mut Vec<usize>) {
        match self {
            CompiledExpr::Col(i) => out.push(*i),
            CompiledExpr::Const(_) | CompiledExpr::Param(_) => {}
            CompiledExpr::Unary { expr, .. } | CompiledExpr::IsNull { expr, .. } => {
                expr.collect_cols(out)
            }
            CompiledExpr::Binary { left, right, .. } => {
                left.collect_cols(out);
                right.collect_cols(out);
            }
            CompiledExpr::Func { args, .. } => {
                for a in args {
                    a.collect_cols(out);
                }
            }
            CompiledExpr::Like { expr, pattern, .. } => {
                expr.collect_cols(out);
                pattern.collect_cols(out);
            }
            CompiledExpr::InList { expr, list, .. } => {
                expr.collect_cols(out);
                for e in list {
                    e.collect_cols(out);
                }
            }
            CompiledExpr::Case {
                branches,
                else_expr,
            } => {
                for (c, r) in branches {
                    c.collect_cols(out);
                    r.collect_cols(out);
                }
                if let Some(e) = else_expr {
                    e.collect_cols(out);
                }
            }
        }
    }

    /// Returns a copy with every `Col(c)` rewritten to `Col(map[c])`. Every
    /// referenced ordinal must have an entry in `map` (callers build `map`
    /// from [`CompiledExpr::collect_cols`], so it is total by construction).
    pub fn remap_cols(&self, map: &[usize]) -> CompiledExpr {
        let remap_box = |e: &CompiledExpr| Box::new(e.remap_cols(map));
        match self {
            CompiledExpr::Col(i) => CompiledExpr::Col(map[*i]),
            CompiledExpr::Const(v) => CompiledExpr::Const(v.clone()),
            CompiledExpr::Param(slot) => CompiledExpr::Param(*slot),
            CompiledExpr::Unary { op, expr } => CompiledExpr::Unary {
                op: *op,
                expr: remap_box(expr),
            },
            CompiledExpr::Binary { left, op, right } => CompiledExpr::Binary {
                left: remap_box(left),
                op: *op,
                right: remap_box(right),
            },
            CompiledExpr::Func { kind, args } => CompiledExpr::Func {
                kind: kind.clone(),
                args: args.iter().map(|a| a.remap_cols(map)).collect(),
            },
            CompiledExpr::Like {
                expr,
                pattern,
                negated,
            } => CompiledExpr::Like {
                expr: remap_box(expr),
                pattern: remap_box(pattern),
                negated: *negated,
            },
            CompiledExpr::InList {
                expr,
                list,
                negated,
            } => CompiledExpr::InList {
                expr: remap_box(expr),
                list: list.iter().map(|e| e.remap_cols(map)).collect(),
                negated: *negated,
            },
            CompiledExpr::IsNull { expr, negated } => CompiledExpr::IsNull {
                expr: remap_box(expr),
                negated: *negated,
            },
            CompiledExpr::Case {
                branches,
                else_expr,
            } => CompiledExpr::Case {
                branches: branches
                    .iter()
                    .map(|(c, r)| (c.remap_cols(map), r.remap_cols(map)))
                    .collect(),
                else_expr: else_expr.as_ref().map(|e| remap_box(e)),
            },
        }
    }

    /// Evaluates against a row. Mirrors `eval::eval` exactly — three-valued
    /// logic, NULL propagation, short-circuit AND/OR, T-SQL `+` concat.
    pub fn eval(&self, row: &Row, env: EvalEnv<'_>) -> Result<Value> {
        self.eval_src(row, env)
    }

    /// Evaluates against any [`ValueSource`] — the generic core shared by
    /// the row-at-a-time and vectorized paths. Semantics are identical to
    /// [`CompiledExpr::eval`]; monomorphization keeps the `Row` wrapper
    /// zero-cost.
    pub fn eval_src<S: ValueSource + ?Sized>(&self, row: &S, env: EvalEnv<'_>) -> Result<Value> {
        match self {
            CompiledExpr::Col(i) => Ok(row.value_at(*i)),
            CompiledExpr::Const(v) => Ok(v.clone()),
            CompiledExpr::Param(slot) => env.param(*slot),
            CompiledExpr::Unary { op, expr } => {
                let v = expr.eval_src(row, env)?;
                match op {
                    UnaryOp::Neg => negate(v),
                    UnaryOp::Not => match truth(&v) {
                        Some(b) => Ok(Value::Bool(!b)),
                        None => Ok(Value::Null),
                    },
                }
            }
            CompiledExpr::Binary { left, op, right } => {
                // AND/OR need lazy three-valued logic.
                if *op == BinOp::And || *op == BinOp::Or {
                    let l = truth(&left.eval_src(row, env)?);
                    match (op, l) {
                        (BinOp::And, Some(false)) => return Ok(Value::Bool(false)),
                        (BinOp::Or, Some(true)) => return Ok(Value::Bool(true)),
                        _ => {}
                    }
                    let r = truth(&right.eval_src(row, env)?);
                    let out = match op {
                        BinOp::And => match (l, r) {
                            (Some(false), _) | (_, Some(false)) => Some(false),
                            (Some(true), Some(true)) => Some(true),
                            _ => None,
                        },
                        BinOp::Or => match (l, r) {
                            (Some(true), _) | (_, Some(true)) => Some(true),
                            (Some(false), Some(false)) => Some(false),
                            _ => None,
                        },
                        _ => unreachable!(),
                    };
                    return Ok(out.map(Value::Bool).unwrap_or(Value::Null));
                }
                let l = left.eval_src(row, env)?;
                let r = right.eval_src(row, env)?;
                apply_cmp_arith(l, *op, r)
            }
            CompiledExpr::Func { kind, args } => {
                let argv: Vec<Value> = args
                    .iter()
                    .map(|a| a.eval_src(row, env))
                    .collect::<Result<_>>()?;
                kind.apply(&argv)
            }
            CompiledExpr::Like {
                expr,
                pattern,
                negated,
            } => {
                let v = expr.eval_src(row, env)?;
                let p = pattern.eval_src(row, env)?;
                match (v.as_str(), p.as_str()) {
                    (Some(s), Some(pat)) => {
                        let m = like_match(s, pat);
                        Ok(Value::Bool(m != *negated))
                    }
                    _ if v.is_null() || p.is_null() => Ok(Value::Null),
                    _ => Err(Error::type_error("LIKE requires string operands")),
                }
            }
            CompiledExpr::InList {
                expr,
                list,
                negated,
            } => {
                let v = expr.eval_src(row, env)?;
                if v.is_null() {
                    return Ok(Value::Null);
                }
                let mut saw_null = false;
                for item in list {
                    let w = item.eval_src(row, env)?;
                    if w.is_null() {
                        saw_null = true;
                    } else if v == w {
                        return Ok(Value::Bool(!*negated));
                    }
                }
                if saw_null {
                    // `x IN (…, NULL)` with no match is UNKNOWN, per SQL.
                    Ok(Value::Null)
                } else {
                    Ok(Value::Bool(*negated))
                }
            }
            CompiledExpr::IsNull { expr, negated } => {
                let v = expr.eval_src(row, env)?;
                Ok(Value::Bool(v.is_null() != *negated))
            }
            CompiledExpr::Case {
                branches,
                else_expr,
            } => {
                for (cond, val) in branches {
                    if cond.eval_predicate_src(row, env)? == Some(true) {
                        return val.eval_src(row, env);
                    }
                }
                match else_expr {
                    Some(e) => e.eval_src(row, env),
                    None => Ok(Value::Null),
                }
            }
        }
    }

    /// Evaluates to SQL three-valued logic:
    /// `Some(true)` / `Some(false)` / `None` (UNKNOWN).
    pub fn eval_predicate(&self, row: &Row, env: EvalEnv<'_>) -> Result<Option<bool>> {
        self.eval_predicate_src(row, env)
    }

    /// [`CompiledExpr::eval_predicate`] over any [`ValueSource`].
    pub fn eval_predicate_src<S: ValueSource + ?Sized>(
        &self,
        row: &S,
        env: EvalEnv<'_>,
    ) -> Result<Option<bool>> {
        Ok(truth(&self.eval_src(row, env)?))
    }
}

// ---------------------------------------------------------------------------
// Expression compilation
// ---------------------------------------------------------------------------

/// Compiles one expression against `schema`, interning parameters into
/// `slots`. Column resolution happens here, once, through
/// `Schema::index_of` — never again per row.
pub fn compile_expr(
    expr: &Expr,
    schema: &Schema,
    slots: &mut ParamSlots,
) -> Result<CompiledExpr> {
    Ok(compile_rec(expr, schema, slots)?.0)
}

/// Returns the compiled node plus whether it is constant (no columns, no
/// parameters). Constant nodes that evaluate cleanly are folded to
/// [`CompiledExpr::Const`]; ones that error (`1/0`) are kept so the error
/// surfaces at run time, and only if actually evaluated.
fn compile_rec(
    expr: &Expr,
    schema: &Schema,
    slots: &mut ParamSlots,
) -> Result<(CompiledExpr, bool)> {
    let (node, is_const) = match expr {
        Expr::Column(name) => (CompiledExpr::Col(schema.index_of(name)?), false),
        Expr::Literal(v) => (CompiledExpr::Const(v.clone()), true),
        Expr::Param(p) => (CompiledExpr::Param(slots.slot(p)), false),
        Expr::Unary { op, expr } => {
            let (e, c) = compile_rec(expr, schema, slots)?;
            (
                CompiledExpr::Unary {
                    op: *op,
                    expr: Box::new(e),
                },
                c,
            )
        }
        Expr::Binary { left, op, right } => {
            let (l, cl) = compile_rec(left, schema, slots)?;
            let (r, cr) = compile_rec(right, schema, slots)?;
            (
                CompiledExpr::Binary {
                    left: Box::new(l),
                    op: *op,
                    right: Box::new(r),
                },
                cl && cr,
            )
        }
        Expr::Function {
            name,
            args,
            distinct: _,
        } => {
            let mut cargs = Vec::with_capacity(args.len());
            let mut all_const = true;
            for a in args {
                let (e, c) = compile_rec(a, schema, slots)?;
                all_const &= c;
                cargs.push(e);
            }
            (
                CompiledExpr::Func {
                    kind: FuncKind::parse(name),
                    args: cargs,
                },
                all_const,
            )
        }
        Expr::Like {
            expr,
            pattern,
            negated,
        } => {
            let (e, ce) = compile_rec(expr, schema, slots)?;
            let (p, cp) = compile_rec(pattern, schema, slots)?;
            (
                CompiledExpr::Like {
                    expr: Box::new(e),
                    pattern: Box::new(p),
                    negated: *negated,
                },
                ce && cp,
            )
        }
        Expr::InList {
            expr,
            list,
            negated,
        } => {
            let (e, mut all_const) = compile_rec(expr, schema, slots)?;
            let mut clist = Vec::with_capacity(list.len());
            for item in list {
                let (i, c) = compile_rec(item, schema, slots)?;
                all_const &= c;
                clist.push(i);
            }
            (
                CompiledExpr::InList {
                    expr: Box::new(e),
                    list: clist,
                    negated: *negated,
                },
                all_const,
            )
        }
        Expr::IsNull { expr, negated } => {
            let (e, c) = compile_rec(expr, schema, slots)?;
            (
                CompiledExpr::IsNull {
                    expr: Box::new(e),
                    negated: *negated,
                },
                c,
            )
        }
        Expr::Case {
            branches,
            else_expr,
        } => {
            let mut cbranches = Vec::with_capacity(branches.len());
            let mut all_const = true;
            for (cond, val) in branches {
                let (c, cc) = compile_rec(cond, schema, slots)?;
                let (v, cv) = compile_rec(val, schema, slots)?;
                all_const &= cc && cv;
                cbranches.push((c, v));
            }
            let celse = match else_expr {
                Some(e) => {
                    let (v, c) = compile_rec(e, schema, slots)?;
                    all_const &= c;
                    Some(Box::new(v))
                }
                None => None,
            };
            (
                CompiledExpr::Case {
                    branches: cbranches,
                    else_expr: celse,
                },
                all_const,
            )
        }
    };
    // Constant folding: fold only when evaluation succeeds. Errors stay in
    // the tree so they surface at run time (and only if evaluated — an
    // `AND FALSE` above may short-circuit around them).
    if is_const && !matches!(node, CompiledExpr::Const(_)) {
        if let Ok(v) = node.eval(&Row::new(vec![]), EvalEnv::EMPTY) {
            return Ok((CompiledExpr::Const(v), true));
        }
    }
    Ok((node, is_const))
}

// ---------------------------------------------------------------------------
// Compiled plans
// ---------------------------------------------------------------------------

/// A compiled seek bound. `inclusive` is carried for explain parity: both
/// executors seek every bound inclusively, so a `>` or `<` bound touches
/// its boundary key too, and the seek's residual — the predicate, less the
/// comparisons a clustered seek's inclusive bounds enforce themselves (see
/// `seek_residual`) — drops it, which makes the result exact.
#[derive(Debug, Clone, PartialEq)]
pub struct CompiledBound {
    pub expr: CompiledExpr,
    pub inclusive: bool,
}

/// A compiled aggregate call.
#[derive(Debug, Clone, PartialEq)]
pub struct CompiledAgg {
    pub func: AggFunc,
    pub arg: Option<CompiledExpr>,
    pub distinct: bool,
}

/// A compiled sort key.
#[derive(Debug, Clone, PartialEq)]
pub struct CompiledSortKey {
    pub expr: CompiledExpr,
    pub asc: bool,
}

/// The compiled mirror of [`PhysicalPlan`]: every expression lowered to
/// [`CompiledExpr`], every schema reduced to the widths the executor
/// actually needs.
///
/// The three access paths (`SeqScan`, `ClusteredSeek`, `IndexSeek`) carry
/// `cols`: `Some` when the projection above prunes them (see
/// `prune_leaf`), in which case the leaf builds only those source columns,
/// in that order, and its `predicate` reads that pruned layout.
#[derive(Debug, Clone, PartialEq)]
pub enum CompiledPlan {
    Nothing,
    SeqScan {
        object: String,
        cols: Option<Vec<usize>>,
        predicate: Option<CompiledExpr>,
    },
    ClusteredSeek {
        object: String,
        cols: Option<Vec<usize>>,
        low: Option<CompiledBound>,
        high: Option<CompiledBound>,
        predicate: Option<CompiledExpr>,
    },
    IndexSeek {
        object: String,
        index: Arc<str>,
        cols: Option<Vec<usize>>,
        low: Option<CompiledBound>,
        high: Option<CompiledBound>,
        predicate: Option<CompiledExpr>,
    },
    Filter {
        input: Box<CompiledPlan>,
        predicate: CompiledExpr,
    },
    Project {
        input: Box<CompiledPlan>,
        exprs: Vec<CompiledExpr>,
        /// The physical projections this one stands for: 1, plus one per
        /// all-column projection it absorbed at compile time. Each
        /// charges its per-row cost, so folding keeps the cost model's work
        /// units.
        stages: u32,
    },
    NestedLoopJoin {
        left: Box<CompiledPlan>,
        right: Box<CompiledPlan>,
        kind: JoinKind,
        on: Option<CompiledExpr>,
        left_width: usize,
        right_width: usize,
    },
    HashJoin {
        left: Box<CompiledPlan>,
        right: Box<CompiledPlan>,
        left_keys: Vec<CompiledExpr>,
        right_keys: Vec<CompiledExpr>,
        kind: JoinKind,
        residual: Option<CompiledExpr>,
        left_width: usize,
        right_width: usize,
    },
    HashAggregate {
        input: Box<CompiledPlan>,
        group_by: Vec<CompiledExpr>,
        aggs: Vec<CompiledAgg>,
    },
    Sort {
        input: Box<CompiledPlan>,
        keys: Vec<CompiledSortKey>,
    },
    Top {
        input: Box<CompiledPlan>,
        n: u64,
    },
    Distinct {
        input: Box<CompiledPlan>,
    },
    UnionAll {
        inputs: Vec<CompiledPlan>,
        guards: Vec<Option<CompiledExpr>>,
    },
    IndexNlJoin {
        outer: Box<CompiledPlan>,
        inner_object: String,
        inner_index: Option<String>,
        outer_key: CompiledExpr,
        inner_exprs: Option<Vec<CompiledExpr>>,
        inner_width: usize,
        kind: JoinKind,
        residual: Option<CompiledExpr>,
    },
    ExtremeSeek {
        object: String,
        key_index: usize,
        is_max: bool,
    },
    Remote {
        /// The shipped statement, prepared when the plan was compiled: its
        /// text keys the result cache, its AST and canonical key are what
        /// the remote site executes — nobody parses the text again.
        sql: Arc<Prepared>,
        /// Expected column count of shipped results (positional contract).
        arity: usize,
        /// Estimated row width in bytes, for transfer-cost accounting.
        row_width: f64,
        /// Site the SQL ships to: backend or a placed cache peer.
        site: RemoteSite,
    },
}

impl CompiledPlan {
    /// True when the subtree contains no [`CompiledPlan::Remote`] node: it
    /// executes entirely against the local snapshot, never reaching a
    /// remote executor, and replaying it is governed by the snapshot's
    /// replication watermarks alone.
    pub fn is_local(&self) -> bool {
        match self {
            CompiledPlan::Remote { .. } => false,
            CompiledPlan::Nothing
            | CompiledPlan::SeqScan { .. }
            | CompiledPlan::ClusteredSeek { .. }
            | CompiledPlan::IndexSeek { .. }
            | CompiledPlan::ExtremeSeek { .. } => true,
            CompiledPlan::Filter { input, .. }
            | CompiledPlan::Project { input, .. }
            | CompiledPlan::HashAggregate { input, .. }
            | CompiledPlan::Sort { input, .. }
            | CompiledPlan::Top { input, .. }
            | CompiledPlan::Distinct { input } => input.is_local(),
            CompiledPlan::NestedLoopJoin { left, right, .. }
            | CompiledPlan::HashJoin { left, right, .. } => left.is_local() && right.is_local(),
            CompiledPlan::IndexNlJoin { outer, .. } => outer.is_local(),
            CompiledPlan::UnionAll { inputs, .. } => inputs.iter().all(CompiledPlan::is_local),
        }
    }
}

/// A fully compiled, immutable, re-executable query: the artifact the plan
/// cache stores and hands out.
#[derive(Debug, Clone, PartialEq)]
pub struct CompiledQuery {
    pub root: CompiledPlan,
    pub slots: ParamSlots,
    pub schema: Schema,
}

/// Compiles a physical plan into its streaming-executable form. All column
/// resolution, parameter slotting, function resolution and constant folding
/// happen here — once per plan, not once per row.
pub fn compile(plan: &PhysicalPlan) -> Result<CompiledQuery> {
    let mut slots = ParamSlots::default();
    let root = compile_plan(plan, &mut slots)?;
    Ok(CompiledQuery {
        root,
        slots,
        schema: plan.schema().clone(),
    })
}

fn compile_bound(
    bound: &Option<KeyBound>,
    slots: &mut ParamSlots,
) -> Result<Option<CompiledBound>> {
    // Bounds are parameter-only expressions, evaluated against no row —
    // compile against the empty schema, exactly as the interpreter
    // evaluates them.
    match bound {
        None => Ok(None),
        Some(kb) => Ok(Some(CompiledBound {
            expr: compile_expr(&kb.expr, &Schema::empty(), slots)?,
            inclusive: kb.inclusive,
        })),
    }
}

/// A clustered seek's residual: its predicate less the conjuncts the seek
/// enforces. Seeks are inclusive: a low bound `L` yields exactly the rows
/// where `key >= L` holds, a high `H` those where `key <= H`, `[E, E]` those
/// where `key = E` (none for a NULL bound); `>` and `<` are re-checked. A
/// NULL key ranks first, so only a seek with no low bound reads it: its
/// `key <= H` is dropped only on a NOT NULL key. The plan does not name the
/// key, so a conjunct is found by its bound's expression: it is dropped only
/// when it is the one bounding a column by it, with the enforced operator.
fn seek_residual(
    pred: &Option<Expr>,
    schema: &Schema,
    low: &Option<KeyBound>,
    high: &Option<KeyBound>,
) -> Option<Expr> {
    let conjuncts = pred.as_ref()?.split_conjuncts();
    let point = matches!((low, high), (Some(l), Some(h)) if l.expr == h.expr);
    let enforced = |bound: &Option<KeyBound>, want: BinOp| {
        let e = &bound.as_ref()?.expr;
        // Conjuncts bounding a column by `e`, operators read column-first.
        let mut bounding = conjuncts.iter().filter_map(|&c| match c {
            Expr::Binary { left, op, right } if op.is_comparison() => match (&**left, &**right) {
                (Expr::Column(col), r) if r == e => Some((c, col, *op)),
                (l, Expr::Column(col)) if l == e => Some((c, col, op.flip())),
                _ => None,
            },
            _ => None,
        });
        let (Some((c, col, op)), None) = (bounding.next(), bounding.next()) else { return None };
        let reads_null = low.is_none() && schema.index_of(col).map_or(true, |i| schema.column(i).nullable);
        (op == if point { BinOp::Eq } else { want } && !reads_null).then_some(c)
    };
    let dropped = [enforced(low, BinOp::Ge), enforced(high, BinOp::Le)];
    if dropped == [None, None] {
        return pred.clone();
    }
    let kept = conjuncts.iter().filter(|&&c| !dropped.iter().flatten().any(|&d| std::ptr::eq(c, d)));
    Expr::conjunction(kept.map(|&c| c.clone()))
}

fn compile_opt(
    expr: &Option<Expr>,
    schema: &Schema,
    slots: &mut ParamSlots,
) -> Result<Option<CompiledExpr>> {
    match expr {
        None => Ok(None),
        Some(e) => Ok(Some(compile_expr(e, schema, slots)?)),
    }
}

fn compile_plan(plan: &PhysicalPlan, slots: &mut ParamSlots) -> Result<CompiledPlan> {
    Ok(match plan {
        PhysicalPlan::Nothing { .. } => CompiledPlan::Nothing,

        PhysicalPlan::SeqScan {
            object,
            schema,
            predicate,
        } => CompiledPlan::SeqScan {
            object: object.clone(),
            cols: None,
            predicate: compile_opt(predicate, schema, slots)?,
        },

        PhysicalPlan::ClusteredSeek {
            object,
            schema,
            low,
            high,
            predicate,
        } => CompiledPlan::ClusteredSeek {
            object: object.clone(),
            cols: None,
            low: compile_bound(low, slots)?,
            high: compile_bound(high, slots)?,
            predicate: compile_opt(&seek_residual(predicate, schema, low, high), schema, slots)?,
        },

        PhysicalPlan::IndexSeek {
            object,
            index,
            schema,
            low,
            high,
            predicate,
        } => CompiledPlan::IndexSeek {
            object: object.clone(),
            index: index.as_str().into(),
            cols: None,
            low: compile_bound(low, slots)?,
            high: compile_bound(high, slots)?,
            predicate: compile_opt(predicate, schema, slots)?,
        },

        PhysicalPlan::Filter { input, predicate } => CompiledPlan::Filter {
            predicate: compile_expr(predicate, input.schema(), slots)?,
            input: Box::new(compile_plan(input, slots)?),
        },

        PhysicalPlan::Project {
            input,
            exprs,
            schema: _,
        } => {
            let mut exprs: Vec<CompiledExpr> = exprs
                .iter()
                .map(|(e, _)| compile_expr(e, input.schema(), slots))
                .collect::<Result<_>>()?;
            // One projection per chain: an all-column projection below is
            // absorbed by reading its input through its ordinals.
            let mut input: &PhysicalPlan = input;
            let mut stages = 1;
            while let Some((inner, ordinals)) = column_projection(input)? {
                exprs = exprs.iter().map(|e| e.remap_cols(&ordinals)).collect();
                input = inner;
                stages += 1;
            }
            let width = input.schema().len();
            let mut input = compile_plan(input, slots)?;
            prune_leaf(&mut input, &mut exprs, width);
            CompiledPlan::Project {
                input: Box::new(input),
                exprs,
                stages,
            }
        }

        PhysicalPlan::NestedLoopJoin {
            left,
            right,
            kind,
            on,
            schema,
        } => CompiledPlan::NestedLoopJoin {
            on: compile_opt(on, schema, slots)?,
            left_width: left.schema().len(),
            right_width: right.schema().len(),
            left: Box::new(compile_plan(left, slots)?),
            right: Box::new(compile_plan(right, slots)?),
            kind: *kind,
        },

        PhysicalPlan::HashJoin {
            left,
            right,
            left_keys,
            right_keys,
            kind,
            residual,
            schema,
        } => CompiledPlan::HashJoin {
            left_keys: left_keys
                .iter()
                .map(|k| compile_expr(k, left.schema(), slots))
                .collect::<Result<_>>()?,
            right_keys: right_keys
                .iter()
                .map(|k| compile_expr(k, right.schema(), slots))
                .collect::<Result<_>>()?,
            residual: compile_opt(residual, schema, slots)?,
            left_width: left.schema().len(),
            right_width: right.schema().len(),
            left: Box::new(compile_plan(left, slots)?),
            right: Box::new(compile_plan(right, slots)?),
            kind: *kind,
        },

        PhysicalPlan::HashAggregate {
            input,
            group_by,
            aggs,
            schema: _,
        } => CompiledPlan::HashAggregate {
            group_by: group_by
                .iter()
                .map(|g| compile_expr(g, input.schema(), slots))
                .collect::<Result<_>>()?,
            aggs: aggs
                .iter()
                .map(|a| {
                    Ok(CompiledAgg {
                        func: a.func,
                        arg: compile_opt(&a.arg, input.schema(), slots)?,
                        distinct: a.distinct,
                    })
                })
                .collect::<Result<_>>()?,
            input: Box::new(compile_plan(input, slots)?),
        },

        PhysicalPlan::Sort { input, keys } => CompiledPlan::Sort {
            keys: keys
                .iter()
                .map(|k| {
                    Ok(CompiledSortKey {
                        expr: compile_expr(&k.expr, input.schema(), slots)?,
                        asc: k.asc,
                    })
                })
                .collect::<Result<_>>()?,
            input: Box::new(compile_plan(input, slots)?),
        },

        PhysicalPlan::Top { input, n } => CompiledPlan::Top {
            input: Box::new(compile_plan(input, slots)?),
            n: *n,
        },

        PhysicalPlan::Distinct { input } => CompiledPlan::Distinct {
            input: Box::new(compile_plan(input, slots)?),
        },

        PhysicalPlan::UnionAll {
            inputs,
            startup_predicates,
            schema: _,
        } => CompiledPlan::UnionAll {
            inputs: inputs
                .iter()
                .map(|p| compile_plan(p, slots))
                .collect::<Result<_>>()?,
            guards: startup_predicates
                .iter()
                .map(|g| compile_opt(g, &Schema::empty(), slots))
                .collect::<Result<_>>()?,
        },

        PhysicalPlan::IndexNlJoin {
            outer,
            inner_object,
            inner_index,
            outer_key,
            inner_exprs,
            inner_row_schema,
            inner_schema,
            kind,
            residual,
            schema,
        } => CompiledPlan::IndexNlJoin {
            outer_key: compile_expr(outer_key, outer.schema(), slots)?,
            inner_exprs: match inner_exprs {
                None => None,
                Some(exprs) => Some(
                    exprs
                        .iter()
                        .map(|(e, _)| compile_expr(e, inner_row_schema, slots))
                        .collect::<Result<_>>()?,
                ),
            },
            residual: compile_opt(residual, schema, slots)?,
            inner_width: inner_schema.len(),
            outer: Box::new(compile_plan(outer, slots)?),
            inner_object: inner_object.clone(),
            inner_index: inner_index.clone(),
            kind: *kind,
        },

        PhysicalPlan::ExtremeSeek {
            object,
            key_index,
            is_max,
            schema: _,
        } => CompiledPlan::ExtremeSeek {
            object: object.clone(),
            key_index: *key_index,
            is_max: *is_max,
        },

        PhysicalPlan::Remote {
            sql,
            schema,
            est_rows: _,
            site,
        } => CompiledPlan::Remote {
            sql: Arc::new(Prepared::new(sql)?),
            arity: schema.len(),
            row_width: schema.estimated_row_width() as f64,
            site: site.clone(),
        },
    })
}

/// `Some((input, ordinals))` when `plan` is a non-empty projection of bare
/// columns: output column `k` is column `ordinals[k]` of `input`.
fn column_projection(plan: &PhysicalPlan) -> Result<Option<(&PhysicalPlan, Vec<usize>)>> {
    let PhysicalPlan::Project { input, exprs, .. } = plan else {
        return Ok(None);
    };
    let mut ordinals = Vec::with_capacity(exprs.len());
    for (e, _) in exprs {
        let Expr::Column(name) = e else {
            return Ok(None);
        };
        ordinals.push(input.schema().index_of(name)?);
    }
    Ok((!ordinals.is_empty()).then_some((input, ordinals)))
}

/// Prunes an access-path leaf under a projection to the columns the
/// projection reads plus those its residual re-checks: the leaf then builds
/// only those `width`-wide source columns, in source order, and both the
/// residual and `exprs` are remapped onto that layout. Any other input, or
/// a projection that reads every column, is left as it is.
fn prune_leaf(leaf: &mut CompiledPlan, exprs: &mut [CompiledExpr], width: usize) {
    let (CompiledPlan::SeqScan {
        cols, predicate, ..
    }
    | CompiledPlan::ClusteredSeek {
        cols, predicate, ..
    }
    | CompiledPlan::IndexSeek {
        cols, predicate, ..
    }) = leaf
    else {
        return;
    };
    let mut needed = Vec::new();
    for e in exprs.iter().chain(predicate.as_ref()) {
        e.collect_cols(&mut needed);
    }
    needed.sort_unstable();
    needed.dedup();
    if needed.is_empty() || needed.len() >= width {
        return;
    }
    let mut map = vec![usize::MAX; width];
    for (pos, &c) in needed.iter().enumerate() {
        map[c] = pos;
    }
    for e in exprs.iter_mut() {
        *e = e.remap_cols(&map);
    }
    if let Some(p) = predicate {
        *p = p.remap_cols(&map);
    }
    *cols = Some(needed);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::eval::eval;
    use mtc_sql::parse_expression;
    use mtc_types::{row, Column, DataType};

    fn schema() -> Schema {
        Schema::new(vec![
            Column::not_null("id", DataType::Int),
            Column::new("name", DataType::Str),
            Column::new("price", DataType::Float),
        ])
    }

    fn compile_one(src: &str) -> (CompiledExpr, ParamSlots) {
        let mut slots = ParamSlots::default();
        let e = compile_expr(&parse_expression(src).unwrap(), &schema(), &mut slots).unwrap();
        (e, slots)
    }

    /// Compiled and interpreted evaluation agree on a battery of shapes.
    #[test]
    fn compiled_matches_interpreter() {
        let exprs = [
            "id + 1",
            "price * 2 > 10",
            "name + 's'",
            "LOWER(name)",
            "LEN(name) + ABS(0 - id)",
            "id IN (1, 2, 3)",
            "id IN (1, NULL)",
            "id BETWEEN 1 AND 10",
            "name LIKE '%rust%'",
            "name IS NULL",
            "CASE WHEN id > 3 THEN 'big' ELSE 'small' END",
            "NOT name = 'x'",
            "name = 'x' AND id = 0",
            "name = 'x' OR id = 1",
            "7 / 2",
            "7 % 2",
            "COALESCE(NULL, name)",
            "SUBSTRING(name, 2, 2)",
        ];
        let rows = [
            row![3, "The Rust Book", 9.5],
            Row::new(vec![Value::Int(1), Value::Null, Value::Float(1.0)]),
            row![0, "x", 0.0],
        ];
        let s = schema();
        let b = Bindings::new();
        for src in exprs {
            let parsed = parse_expression(src).unwrap();
            let (compiled, slots) = compile_one(src);
            let resolved = slots.resolve(&b);
            let env = EvalEnv {
                params: &resolved,
                names: slots.names(),
            };
            for r in &rows {
                let want = eval(&parsed, r, &s, &b);
                let got = compiled.eval(r, env);
                match (want, got) {
                    (Ok(w), Ok(g)) => assert_eq!(w, g, "{src} on {r}"),
                    (Err(_), Err(_)) => {}
                    (w, g) => panic!("{src} on {r}: interp {w:?} vs compiled {g:?}"),
                }
            }
        }
    }

    #[test]
    fn columns_resolve_to_ordinals() {
        let (e, _) = compile_one("price");
        assert_eq!(e, CompiledExpr::Col(2));
        // Suffix resolution on qualified names, like Schema::index_of.
        let s = Schema::new(vec![
            Column::not_null("o.id", DataType::Int),
            Column::new("i.name", DataType::Str),
        ]);
        let mut slots = ParamSlots::default();
        let e = compile_expr(&parse_expression("name").unwrap(), &s, &mut slots).unwrap();
        assert_eq!(e, CompiledExpr::Col(1));
        // Unknown column errors at compile time with the binder's message.
        let err = compile_expr(&parse_expression("missing").unwrap(), &s, &mut slots)
            .unwrap_err();
        assert_eq!(err.kind(), "catalog");
    }

    #[test]
    fn constants_fold_but_errors_defer() {
        let (e, _) = compile_one("1 + 2 * 3");
        assert_eq!(e, CompiledExpr::Const(Value::Int(7)));
        let (e, _) = compile_one("LOWER('ABC')");
        assert_eq!(e, CompiledExpr::Const(Value::str("abc")));
        // 1/0 must NOT fold — and must still error when evaluated.
        let (e, _) = compile_one("1 / 0");
        assert!(!matches!(e, CompiledExpr::Const(_)));
        assert!(e.eval(&row![1, "x", 0.0], EvalEnv::EMPTY).is_err());
        // ...but a short-circuit above it folds right past the error.
        let (e, _) = compile_one("0 AND 1 / 0");
        assert_eq!(e, CompiledExpr::Const(Value::Bool(false)));
    }

    #[test]
    fn param_slots_dedup_and_resolve_lazily() {
        let (e, slots) = compile_one("id <= @cid AND @cid > 0 AND name = @who");
        assert_eq!(slots.names(), &["cid".to_string(), "who".to_string()]);
        let mut b = Bindings::new();
        b.insert("cid".into(), Value::Int(500));
        b.insert("who".into(), Value::str("x"));
        let resolved = slots.resolve(&b);
        let env = EvalEnv {
            params: &resolved,
            names: slots.names(),
        };
        assert_eq!(
            e.eval(&row![3, "x", 0.0], env).unwrap(),
            Value::Bool(true)
        );
        // Unbound slot errors lazily, with the interpreter's message.
        let resolved = slots.resolve(&Bindings::new());
        let env = EvalEnv {
            params: &resolved,
            names: slots.names(),
        };
        let err = e.eval(&row![3, "x", 0.0], env).unwrap_err();
        assert!(err.to_string().contains("unbound parameter `@cid`"), "{err}");
    }

    #[test]
    fn unknown_function_errors_at_eval_not_compile() {
        let (e, _) = compile_one("FROBNICATE(id)");
        let err = e.eval(&row![1, "x", 0.0], EvalEnv::EMPTY).unwrap_err();
        assert!(err.to_string().contains("unknown function `FROBNICATE`"));
    }
}
