//! View matching for select-project materialized views, including the
//! paper's §5.1 *dynamic plans* (ChoosePlan) for parameterized queries and
//! §5.1.1 *mixed-result* plans for transactionally fresh views.
//!
//! Given a `Get` of a (remote) base table plus the conjuncts that apply to
//! it, this module searches the catalog for materialized views whose
//! definition subsumes the required rows and columns:
//!
//! * If the query predicate **implies** the view predicate for every
//!   parameter value, the view substitutes unconditionally.
//! * If the implication holds **only under a parameter-dependent guard**
//!   (e.g. view `cid <= 1000`, query `cid <= @v` ⇒ guard `@v <= 1000`), a
//!   *ChoosePlan* is built: a UnionAll of a guarded local branch over the
//!   view and a negated-guard remote branch over the base table (Fig. 2(b)).
//! * For *non-cached* (fresh) views, a **mixed-result** plan (Fig. 3) may
//!   fetch the missing remainder from the base table instead. Cached views
//!   never produce mixed results, because the view may be slightly stale and
//!   the combined result would not be transactionally consistent.

use std::collections::BTreeMap;

use mtc_sql::{BinOp, Expr, SelectItem, TableRef};
use mtc_storage::{Database, ViewMeta};
use mtc_types::{normalize_ident, Schema, Value};

use crate::logical::{DataLocation, LogicalPlan};

/// The result of matching one view against one `Get` + conjuncts.
#[derive(Debug, Clone)]
pub struct ViewMatch {
    /// Replacement subtree (includes residual filters and output project).
    pub plan: LogicalPlan,
    /// Guard predicate for dynamic plans; `None` = unconditional match.
    pub guard: Option<Expr>,
    /// Estimated probability the guard holds (`Fl` of §5.1); 1.0 when
    /// unconditional.
    pub guard_probability: f64,
    /// True when the plan may produce rows from both the view and the base
    /// table (Fig. 3) — only legal for non-cached views.
    pub mixed: bool,
    pub view_name: String,
}

/// Options controlling matching behaviour (ablation knobs).
#[derive(Debug, Clone, Copy)]
pub struct MatchOptions {
    pub enable_dynamic_plans: bool,
    pub allow_mixed_results: bool,
}

/// Attempts to match materialized views against a scan of `object` (aliased
/// `alias`, scanning `get_schema`) filtered by `conjuncts`. `required`
/// lists the qualified column names the rest of the query needs from this
/// scan. Returns every view that matches.
pub fn match_views(
    db: &Database,
    object: &str,
    alias: &str,
    get_schema: &Schema,
    conjuncts: &[Expr],
    required: &[String],
    options: MatchOptions,
) -> Vec<ViewMatch> {
    let mut out = Vec::new();
    for view in db.catalog.materialized_views() {
        // The view must exist as a local, populated (non-shadow) table.
        let Ok(backing) = db.table_ref(&view.name) else {
            continue;
        };
        if backing.is_shadow() {
            continue;
        }
        if let Some(m) = match_one(
            db, view, object, alias, get_schema, conjuncts, required, options,
        ) {
            out.push(m);
        }
    }
    out
}

#[allow(clippy::too_many_arguments)]
fn match_one(
    db: &Database,
    view: &ViewMeta,
    object: &str,
    alias: &str,
    get_schema: &Schema,
    conjuncts: &[Expr],
    required: &[String],
    options: MatchOptions,
) -> Option<ViewMatch> {
    // 1. Same base object, select-project shape only.
    let base = view.base_object()?;
    if normalize_ident(base) != normalize_ident(object) {
        return None;
    }
    if view.definition.distinct
        || view.definition.top.is_some()
        || !view.definition.group_by.is_empty()
        || view.definition.having.is_some()
    {
        return None;
    }
    // Base reference must be unaliased or self-aliased single table.
    let base_alias = match view.definition.from.as_slice() {
        [TableRef::Table { name, alias }] => alias.clone().unwrap_or_else(|| name.clone()),
        _ => return None,
    };

    // 2. Column coverage: view projection must be plain (possibly renamed)
    //    base columns covering every required column and every column used
    //    in the query conjuncts.
    let mapping = projection_mapping(view, db, object)?;
    let mut needed: Vec<String> = Vec::new();
    for r in required {
        needed.push(suffix(r).to_string());
    }
    for c in conjuncts {
        for col in c.columns() {
            // Only columns that resolve in this Get's schema concern us.
            if get_schema.index_of(col).is_ok() {
                needed.push(suffix(col).to_string());
            }
        }
    }
    needed.sort();
    needed.dedup();
    for col in &needed {
        if !mapping.contains_key(col.as_str()) {
            return None;
        }
    }

    // 3. Predicate subsumption: every view conjunct must be implied by the
    //    query conjuncts, possibly under a parameter guard.
    let view_pred = view.definition.selection.clone();
    let view_conjuncts: Vec<Expr> = view_pred
        .as_ref()
        .map(|p| {
            p.split_conjuncts()
                .into_iter()
                .map(|c| strip_alias(c, &base_alias))
                .collect()
        })
        .unwrap_or_default();
    let query_atoms: Vec<Expr> = conjuncts.iter().map(strip_qualifiers).collect();

    let mut guard_atoms: Vec<Expr> = Vec::new();
    let mut guard_probability = 1.0f64;
    for vc in &view_conjuncts {
        match implied_by(vc, &query_atoms) {
            Implication::Always => {}
            Implication::Never => return None,
            Implication::Under(guard, prob_hint) => {
                if !options.enable_dynamic_plans {
                    return None;
                }
                guard_probability *= prob_hint
                    .or_else(|| guard_prob(db, view, &guard))
                    .unwrap_or(0.5);
                guard_atoms.push(guard);
            }
        }
    }
    let guard = Expr::conjunction(guard_atoms.clone());

    // 4. Build the replacement plan.
    //    Output schema: the required columns under their original qualified
    //    names, so upstream operators are unaffected.
    let out_schema = Schema::new(
        needed
            .iter()
            .filter(|c| required.iter().any(|r| suffix(r) == c.as_str()))
            .map(|c| {
                let idx = get_schema
                    .index_of(c)
                    .expect("needed column resolves in get schema");
                get_schema.column(idx).clone()
            })
            .collect(),
    );

    // Local branch: view scan + all query conjuncts (rewritten to the view's
    // output column names) + project back to qualified base names.
    let backing = db.table_ref(&view.name).expect("checked above");
    let view_get = LogicalPlan::Get {
        object: view.name.clone(),
        alias: view.name.clone(),
        schema: backing.schema().clone(),
        location: DataLocation::Local,
    };
    let rewrite_to_view = |e: &Expr| -> Expr {
        strip_qualifiers(e).rewrite(&mut |node| {
            if let Expr::Column(c) = &node {
                if let Some(view_col) = mapping.get(c.as_str()) {
                    return Expr::Column(view_col.clone());
                }
            }
            node
        })
    };
    let mut local = view_get;
    if let Some(pred) = Expr::conjunction(conjuncts.iter().map(rewrite_to_view)) {
        local = LogicalPlan::Filter {
            input: Box::new(local),
            predicate: pred,
        };
    }
    let local = LogicalPlan::Project {
        input: Box::new(local),
        exprs: out_schema
            .columns()
            .iter()
            .map(|c| {
                let base_col = suffix(&c.name);
                (
                    Expr::Column(mapping[base_col].clone()),
                    c.name.clone(),
                )
            })
            .collect(),
        schema: out_schema.clone(),
    };

    let Some(guard) = guard else {
        // Unconditional substitution.
        return Some(ViewMatch {
            plan: local,
            guard: None,
            guard_probability: 1.0,
            mixed: false,
            view_name: view.name.clone(),
        });
    };

    // Dynamic plan. The fallback branch scans the base table — Remote on a
    // cache server (shadow table), Local when the optimizer runs on the
    // backend itself (where regular materialized views also get dynamic
    // plans, §5.1: "the implementation is general and applies to all
    // materialized views").
    let remote_branch = |extra: Option<Expr>| -> LogicalPlan {
        let base_table = db.table_ref(object).expect("base exists");
        let base_location = if base_table.is_shadow() {
            DataLocation::Remote
        } else {
            DataLocation::Local
        };
        let get = LogicalPlan::Get {
            object: object.to_string(),
            alias: alias.to_string(),
            schema: base_table.schema().qualified(alias),
            location: base_location,
        };
        let mut conj: Vec<Expr> = conjuncts.to_vec();
        conj.extend(extra);
        let mut plan = get;
        if let Some(pred) = Expr::conjunction(conj) {
            plan = LogicalPlan::Filter {
                input: Box::new(plan),
                predicate: pred,
            };
        }
        LogicalPlan::Project {
            input: Box::new(plan),
            exprs: out_schema
                .columns()
                .iter()
                .map(|c| (Expr::Column(c.name.clone()), c.name.clone()))
                .collect(),
            schema: out_schema.clone(),
        }
    };

    if options.allow_mixed_results && !view.is_cached && view_pred.is_some() {
        // Fig. 3: local branch always opens; the remote branch opens only
        // when the guard fails and fetches rows *outside* the view.
        let anti_view = Expr::not(strip_qualifiers(
            &Expr::conjunction(view_conjuncts.clone()).expect("guarded ⇒ nonempty"),
        ));
        let remote = remote_branch(Some(requalify(&anti_view, alias)));
        let fl = guard_probability;
        return Some(ViewMatch {
            plan: LogicalPlan::UnionAll {
                inputs: vec![local, remote],
                startup_predicates: vec![None, Some(Expr::not(guard.clone()))],
                weights: vec![1.0, 1.0 - fl],
                schema: out_schema,
            },
            guard: Some(guard),
            guard_probability: fl,
            mixed: true,
            view_name: view.name.clone(),
        });
    }

    // Fig. 2(b): exactly one branch opens.
    let remote = remote_branch(None);
    let fl = guard_probability;
    Some(ViewMatch {
        plan: LogicalPlan::UnionAll {
            inputs: vec![local, remote],
            startup_predicates: vec![Some(guard.clone()), Some(Expr::not(guard.clone()))],
            weights: vec![fl, 1.0 - fl],
            schema: out_schema,
        },
        guard: Some(guard),
        guard_probability: fl,
        mixed: false,
        view_name: view.name.clone(),
    })
}

/// Maps base-table column name → view output column name, if the view's
/// projection consists solely of plain column references.
fn projection_mapping(
    view: &ViewMeta,
    db: &Database,
    base: &str,
) -> Option<BTreeMap<String, String>> {
    let mut map = BTreeMap::new();
    for item in &view.definition.projection {
        match item {
            SelectItem::Wildcard => {
                let t = db.table_ref(base).ok()?;
                for c in t.schema().columns() {
                    map.insert(c.name.clone(), c.name.clone());
                }
            }
            SelectItem::QualifiedWildcard(_) => {
                let t = db.table_ref(base).ok()?;
                for c in t.schema().columns() {
                    map.insert(c.name.clone(), c.name.clone());
                }
            }
            SelectItem::Expr {
                expr: Expr::Column(c),
                alias,
            } => {
                let base_col = suffix(c).to_string();
                let out = alias.clone().unwrap_or_else(|| base_col.clone());
                map.insert(base_col, out);
            }
            _ => return None,
        }
    }
    Some(map)
}

/// Result of testing whether query atoms imply one view conjunct.
enum Implication {
    Always,
    Never,
    /// Implied iff `guard` (parameter-only) holds at run time; optional
    /// probability hint when computable during analysis.
    Under(Expr, Option<f64>),
}

/// Tests `query_atoms ⇒ view_conjunct`.
fn implied_by(view_conjunct: &Expr, query_atoms: &[Expr]) -> Implication {
    // Syntactic equality with any atom is the easy win (covers LIKE, IN, …).
    if query_atoms.iter().any(|a| a == view_conjunct) {
        return Implication::Always;
    }
    // Interval reasoning on a single column.
    let Some((col, v_iv)) = atom_interval(view_conjunct) else {
        return Implication::Never;
    };
    // Literal interval from the query's literal atoms on this column.
    let mut q_iv = Interval::unbounded();
    let mut param_atoms: Vec<(BinOp, String)> = Vec::new();
    for a in query_atoms {
        if let Some((c, iv)) = atom_interval(a) {
            if c == col {
                q_iv = q_iv.intersect(&iv);
            }
            continue;
        }
        if let Some((c, op, p)) = param_atom(a) {
            if c == col {
                param_atoms.push((op, p));
            }
        }
    }
    if v_iv.contains_interval(&q_iv) {
        return Implication::Always;
    }
    // Build a guard from parameter atoms. Each unsatisfied bound of the view
    // interval must be enforced by some parameter atom.
    let mut guards: Vec<Expr> = Vec::new();
    // Upper bound needed?
    if let Some((hi, hi_incl)) = &v_iv.high {
        let satisfied = q_iv
            .high
            .as_ref()
            .map(|(qh, q_incl)| qh < hi || (qh == hi && (*hi_incl || !q_incl)))
            .unwrap_or(false);
        if !satisfied {
            // Look for `col <= @p`, `col < @p` or `col = @p`.
            let found = param_atoms.iter().find_map(|(op, p)| match op {
                BinOp::Le | BinOp::Lt | BinOp::Eq => Some(Expr::binary(
                    Expr::Param(p.clone()),
                    if *hi_incl { BinOp::Le } else { BinOp::Lt },
                    Expr::Literal(hi.clone()),
                )),
                _ => None,
            });
            match found {
                Some(g) => guards.push(g),
                None => return Implication::Never,
            }
        }
    }
    // Lower bound needed?
    if let Some((lo, lo_incl)) = &v_iv.low {
        let satisfied = q_iv
            .low
            .as_ref()
            .map(|(ql, q_incl)| ql > lo || (ql == lo && (*lo_incl || !q_incl)))
            .unwrap_or(false);
        if !satisfied {
            let found = param_atoms.iter().find_map(|(op, p)| match op {
                BinOp::Ge | BinOp::Gt | BinOp::Eq => Some(Expr::binary(
                    Expr::Param(p.clone()),
                    if *lo_incl { BinOp::Ge } else { BinOp::Gt },
                    Expr::Literal(lo.clone()),
                )),
                _ => None,
            });
            match found {
                Some(g) => guards.push(g),
                None => return Implication::Never,
            }
        }
    }
    match Expr::conjunction(guards) {
        Some(g) => Implication::Under(g, None),
        // Both bounds satisfied statically after all.
        None => Implication::Always,
    }
}

/// A (possibly half-open) interval with inclusivity flags.
#[derive(Debug, Clone, PartialEq)]
struct Interval {
    low: Option<(Value, bool)>,
    high: Option<(Value, bool)>,
}

impl Interval {
    fn unbounded() -> Interval {
        Interval {
            low: None,
            high: None,
        }
    }

    fn intersect(&self, other: &Interval) -> Interval {
        let low = match (&self.low, &other.low) {
            (None, b) => b.clone(),
            (a, None) => a.clone(),
            (Some((a, ai)), Some((b, bi))) => {
                if a > b || (a == b && !ai) {
                    Some((a.clone(), *ai))
                } else {
                    Some((b.clone(), *bi))
                }
            }
        };
        let high = match (&self.high, &other.high) {
            (None, b) => b.clone(),
            (a, None) => a.clone(),
            (Some((a, ai)), Some((b, bi))) => {
                if a < b || (a == b && !ai) {
                    Some((a.clone(), *ai))
                } else {
                    Some((b.clone(), *bi))
                }
            }
        };
        Interval { low, high }
    }

    /// Does `self` contain every point of `other`?
    fn contains_interval(&self, other: &Interval) -> bool {
        let low_ok = match (&self.low, &other.low) {
            (None, _) => true,
            (Some(_), None) => false,
            (Some((a, ai)), Some((b, bi))) => b > a || (b == a && (*ai || !bi)),
        };
        let high_ok = match (&self.high, &other.high) {
            (None, _) => true,
            (Some(_), None) => false,
            (Some((a, ai)), Some((b, bi))) => b < a || (b == a && (*ai || !bi)),
        };
        low_ok && high_ok
    }
}

/// Extracts `(column, interval)` from a literal range atom.
fn atom_interval(atom: &Expr) -> Option<(String, Interval)> {
    match atom {
        Expr::Binary { left, op, right } if op.is_comparison() => {
            let (col, op, val) = match (&**left, &**right) {
                (Expr::Column(c), Expr::Literal(v)) => (c, *op, v),
                (Expr::Literal(v), Expr::Column(c)) => (c, op.flip(), v),
                _ => return None,
            };
            let col = suffix(col).to_string();
            let iv = match op {
                BinOp::Eq => Interval {
                    low: Some((val.clone(), true)),
                    high: Some((val.clone(), true)),
                },
                BinOp::Le => Interval {
                    low: None,
                    high: Some((val.clone(), true)),
                },
                BinOp::Lt => Interval {
                    low: None,
                    high: Some((val.clone(), false)),
                },
                BinOp::Ge => Interval {
                    low: Some((val.clone(), true)),
                    high: None,
                },
                BinOp::Gt => Interval {
                    low: Some((val.clone(), false)),
                    high: None,
                },
                _ => return None,
            };
            Some((col, iv))
        }
        _ => None,
    }
}

/// Extracts `(column, op, param)` from a parameterized comparison atom.
fn param_atom(atom: &Expr) -> Option<(String, BinOp, String)> {
    if let Expr::Binary { left, op, right } = atom {
        if op.is_comparison() {
            match (&**left, &**right) {
                (Expr::Column(c), Expr::Param(p)) => {
                    return Some((suffix(c).to_string(), *op, p.clone()))
                }
                (Expr::Param(p), Expr::Column(c)) => {
                    return Some((suffix(c).to_string(), op.flip(), p.clone()))
                }
                _ => {}
            }
        }
    }
    None
}

/// Estimates P(guard) via the base column's min/max — §5.1's uniform
/// assumption. We find the column through the *view definition*'s base
/// object statistics.
fn guard_prob(db: &Database, view: &ViewMeta, guard: &Expr) -> Option<f64> {
    // Guard shape: @p OP literal (conjunctions handled by caller calls).
    let base = view.base_object()?;
    let stats = db.catalog.stats(base)?;
    let mut prob = 1.0f64;
    for atom in guard.split_conjuncts() {
        let Expr::Binary { left, op, right } = atom else {
            return None;
        };
        let (Expr::Param(p), Expr::Literal(bound)) = (&**left, &**right) else {
            return None;
        };
        let _ = p;
        // Which column? The view predicate's single range column — take the
        // first column of the view's selection.
        let col = view
            .definition
            .selection
            .as_ref()
            .and_then(|s| s.columns().first().map(|c| suffix(c).to_string()))?;
        let col_stats = stats.column(&col)?;
        let p_le = col_stats.guard_probability_le(bound);
        let p = match op {
            BinOp::Le | BinOp::Lt => p_le,
            BinOp::Ge | BinOp::Gt => 1.0 - p_le,
            _ => 0.5,
        };
        // The column holds `distinct_count` values, not a continuum: a
        // bound at its minimum (`cid <= 1` over cid ∈ {1, 2}) still admits
        // one of them, where the uniform fraction of the *range* says 0. A
        // branch priced at 0 can never win, so one value's worth is the floor.
        prob *= match col_stats.distinct_count {
            0 => p,
            ndv => p.max(1.0 / ndv as f64),
        };
    }
    Some(prob.clamp(0.0, 1.0))
}

/// Strips the leading `alias.` qualifier from every column in `expr`.
fn strip_qualifiers(expr: &Expr) -> Expr {
    expr.rewrite(&mut |node| {
        if let Expr::Column(c) = &node {
            return Expr::Column(suffix(c).to_string());
        }
        node
    })
}

/// Strips only a specific alias qualifier.
fn strip_alias(expr: &Expr, alias: &str) -> Expr {
    let prefix = format!("{alias}.");
    expr.rewrite(&mut |node| {
        if let Expr::Column(c) = &node {
            if let Some(rest) = c.strip_prefix(&prefix) {
                return Expr::Column(rest.to_string());
            }
        }
        node
    })
}

/// Prefixes every unqualified column with `alias.`.
fn requalify(expr: &Expr, alias: &str) -> Expr {
    expr.rewrite(&mut |node| {
        if let Expr::Column(c) = &node {
            if !c.contains('.') {
                return Expr::Column(format!("{alias}.{c}"));
            }
        }
        node
    })
}

fn suffix(name: &str) -> &str {
    name.rsplit('.').next().unwrap_or(name)
}

/// Recomputes join schemas bottom-up after a rewrite that changed a join
/// input's layout (a view substitution, a reordered region). Every other
/// node keeps its schema: a union's is the one its branches deliver.
pub fn recompute_schemas(plan: LogicalPlan) -> LogicalPlan {
    match plan.map_children(recompute_schemas) {
        LogicalPlan::Join {
            left,
            right,
            kind,
            on,
            ..
        } => LogicalPlan::Join {
            schema: left.schema().join(right.schema()),
            left,
            right,
            kind,
            on,
        },
        other => other,
    }
}

/// Estimated output rows of a dynamic plan's branches, used by the §5.1
/// weighted cost formula — exposed for tests.
pub fn weighted_cost(fl: f64, cl: f64, cr: f64) -> f64 {
    fl * cl + (1.0 - fl) * cr
}

#[cfg(test)]
mod tests {
    use super::*;
    use mtc_sql::{parse_expression, parse_statement, Statement};
    use mtc_types::{row, Column, DataType};

    /// Backend-style database: customer table + Cust1000 view (the paper's
    /// running example).
    fn db_with_view(cached: bool) -> Database {
        let mut db = Database::new("d");
        db.create_table(
            "customer",
            Schema::new(vec![
                Column::not_null("cid", DataType::Int),
                Column::new("cname", DataType::Str),
                Column::new("caddress", DataType::Str),
            ]),
            &["cid".into()],
        )
        .unwrap();
        let rows: Vec<_> = (1..=10_000)
            .map(|i| mtc_storage::RowChange::Insert {
                table: "customer".into(),
                row: row![i, format!("c{i}"), format!("addr{i}")],
            })
            .collect();
        db.apply(0, rows).unwrap();
        db.analyze();
        // Backing table for the view, populated with the matching subset.
        db.create_table(
            "cust1000",
            Schema::new(vec![
                Column::not_null("cid", DataType::Int),
                Column::new("cname", DataType::Str),
                Column::new("caddress", DataType::Str),
            ]),
            &["cid".into()],
        )
        .unwrap();
        let rows: Vec<_> = (1..=1000)
            .map(|i| mtc_storage::RowChange::Insert {
                table: "cust1000".into(),
                row: row![i, format!("c{i}"), format!("addr{i}")],
            })
            .collect();
        db.apply(1, rows).unwrap();
        db.analyze_table("cust1000");
        let Statement::Select(def) = parse_statement(
            "SELECT cid, cname, caddress FROM customer WHERE cid <= 1000",
        )
        .unwrap() else {
            panic!()
        };
        db.catalog_mut()
            .create_view(ViewMeta {
                name: "cust1000".into(),
                definition: def,
                materialized: true,
                is_cached: cached,
            })
            .unwrap();
        db
    }

    fn opts() -> MatchOptions {
        MatchOptions {
            enable_dynamic_plans: true,
            allow_mixed_results: false,
        }
    }

    fn get_schema(db: &Database) -> Schema {
        db.table_ref("customer").unwrap().schema().qualified("customer")
    }

    #[test]
    fn unconditional_match_when_query_narrower() {
        let db = db_with_view(true);
        let conj = vec![parse_expression("cid <= 500").unwrap()];
        let req = vec!["customer.cid".to_string(), "customer.cname".to_string()];
        let ms = match_views(&db, "customer", "customer", &get_schema(&db), &conj, &req, opts());
        assert_eq!(ms.len(), 1);
        assert!(ms[0].guard.is_none());
        assert!(ms[0].plan.explain().contains("Get cust1000 [Local]"));
    }

    #[test]
    fn no_match_when_query_wider() {
        let db = db_with_view(true);
        let conj = vec![parse_expression("cid <= 5000").unwrap()];
        let req = vec!["customer.cid".to_string()];
        let ms = match_views(&db, "customer", "customer", &get_schema(&db), &conj, &req, opts());
        assert!(ms.is_empty(), "cid <= 5000 is not contained in cid <= 1000");
    }

    #[test]
    fn equality_inside_view_range_matches() {
        let db = db_with_view(true);
        let conj = vec![parse_expression("cid = 77").unwrap()];
        let req = vec!["customer.cname".to_string()];
        let ms = match_views(&db, "customer", "customer", &get_schema(&db), &conj, &req, opts());
        assert_eq!(ms.len(), 1);
        assert!(ms[0].guard.is_none());
    }

    #[test]
    fn parameterized_query_builds_dynamic_plan_with_fl() {
        // The paper's exact example: SELECT ... WHERE cid <= @cid against
        // Cust1000 ⇒ guard @cid <= 1000, Fl ≈ 0.1 (cid uniform 1..10000).
        let db = db_with_view(true);
        let conj = vec![parse_expression("cid <= @cid").unwrap()];
        let req = vec![
            "customer.cid".to_string(),
            "customer.cname".to_string(),
            "customer.caddress".to_string(),
        ];
        let ms = match_views(&db, "customer", "customer", &get_schema(&db), &conj, &req, opts());
        assert_eq!(ms.len(), 1);
        let m = &ms[0];
        assert_eq!(m.guard.as_ref().unwrap().to_string(), "@cid <= 1000");
        assert!(
            (m.guard_probability - 0.1).abs() < 0.02,
            "Fl should be ~0.1, got {}",
            m.guard_probability
        );
        let text = m.plan.explain();
        assert!(text.contains("UnionAll"), "{text}");
        assert!(text.contains("[startup: @cid <= 1000]"), "{text}");
        assert!(text.contains("[startup: NOT (@cid <= 1000)]"), "{text}");
        assert!(text.contains("Get cust1000 [Local]"), "{text}");
        // This fixture is backend-like (customer is a real local table), so
        // the fallback branch is Local; on a cache server the shadow table
        // makes it Remote (covered by the optimizer-level tests).
        assert!(text.contains("Get customer [Local]"), "{text}");
        assert!(!m.mixed);
    }

    #[test]
    fn dynamic_plans_can_be_disabled() {
        let db = db_with_view(true);
        let conj = vec![parse_expression("cid <= @cid").unwrap()];
        let req = vec!["customer.cid".to_string()];
        let ms = match_views(
            &db,
            "customer",
            "customer",
            &get_schema(&db),
            &conj,
            &req,
            MatchOptions {
                enable_dynamic_plans: false,
                allow_mixed_results: false,
            },
        );
        assert!(ms.is_empty());
    }

    #[test]
    fn cached_views_never_produce_mixed_plans() {
        let db = db_with_view(true); // cached
        let conj = vec![parse_expression("cid <= @cid").unwrap()];
        let req = vec!["customer.cid".to_string()];
        let ms = match_views(
            &db,
            "customer",
            "customer",
            &get_schema(&db),
            &conj,
            &req,
            MatchOptions {
                enable_dynamic_plans: true,
                allow_mixed_results: true,
            },
        );
        assert_eq!(ms.len(), 1);
        assert!(!ms[0].mixed, "§5.1.1: stale views must not mix results");
    }

    #[test]
    fn fresh_views_may_produce_mixed_plans() {
        let db = db_with_view(false); // not cached ⇒ transactionally fresh
        let conj = vec![parse_expression("cid <= @cid").unwrap()];
        let req = vec!["customer.cid".to_string()];
        let ms = match_views(
            &db,
            "customer",
            "customer",
            &get_schema(&db),
            &conj,
            &req,
            MatchOptions {
                enable_dynamic_plans: true,
                allow_mixed_results: true,
            },
        );
        assert_eq!(ms.len(), 1);
        let m = &ms[0];
        assert!(m.mixed);
        let text = m.plan.explain();
        // Local branch always opens; remote branch guarded by ¬guard and
        // restricted to rows outside the view.
        assert!(text.contains("[always]"), "{text}");
        assert!(text.contains("NOT"), "{text}");
    }

    #[test]
    fn missing_column_prevents_match() {
        let db = db_with_view(true);
        // View lacks a column the query needs? Create narrower view.
        let mut db2 = db;
        db2.catalog_mut().drop_view("cust1000").unwrap();
        let Statement::Select(def) =
            parse_statement("SELECT cid, cname FROM customer WHERE cid <= 1000").unwrap()
        else {
            panic!()
        };
        db2.catalog_mut()
            .create_view(ViewMeta {
                name: "cust1000".into(),
                definition: def,
                materialized: true,
                is_cached: true,
            })
            .unwrap();
        let conj = vec![parse_expression("cid <= 500").unwrap()];
        let req = vec!["customer.caddress".to_string()];
        let ms = match_views(&db2, "customer", "customer", &get_schema(&db2), &conj, &req, opts());
        assert!(ms.is_empty(), "caddress is not in the view");
    }

    #[test]
    fn weighted_cost_formula() {
        // Fl*Cl + (1-Fl)*Cr, §5.1.
        assert_eq!(weighted_cost(0.1, 100.0, 1000.0), 0.1 * 100.0 + 0.9 * 1000.0);
    }

    #[test]
    fn between_query_against_range_view() {
        let db = db_with_view(true);
        let pred = parse_expression("cid BETWEEN 10 AND 900").unwrap();
        let conj: Vec<Expr> = pred.split_conjuncts().into_iter().cloned().collect();
        let req = vec!["customer.cid".to_string()];
        let ms = match_views(&db, "customer", "customer", &get_schema(&db), &conj, &req, opts());
        assert_eq!(ms.len(), 1);
        assert!(ms[0].guard.is_none());
    }
}
