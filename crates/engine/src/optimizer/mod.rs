//! The optimizer pipeline: predicate pushdown → view matching (with dynamic
//! plans) → ChoosePlan pull-up → location assignment → physical build.

pub mod access;
pub mod cardinality;
pub mod cost;
pub mod join_order;
pub mod location;
pub mod pushdown;
pub mod view_match;

use mtc_sql::{Expr, JoinKind};
use mtc_storage::Database;
use mtc_types::Result;

use crate::logical::LogicalPlan;
use crate::physical::PhysicalPlan;

pub use cost::{CostModel, LinkCost};
pub use location::{PeerSite, PlacementEnv};
pub use view_match::MatchOptions;

/// Optimizer configuration, including ablation switches for every MTCache
/// mechanism DESIGN.md calls out.
#[derive(Debug, Clone)]
pub struct OptimizerOptions {
    pub cost: CostModel,
    /// Use materialized (cached) views via view matching (§5).
    pub enable_view_matching: bool,
    /// Build ChoosePlan dynamic plans for parameterized queries (§5.1).
    pub enable_dynamic_plans: bool,
    /// Pull ChoosePlan above joins (§5.1.2, Fig. 4).
    pub enable_choose_plan_pullup: bool,
    /// Allow mixed-result plans over *fresh* materialized views (§5.1.1).
    pub allow_mixed_results: bool,
}

impl Default for OptimizerOptions {
    fn default() -> OptimizerOptions {
        OptimizerOptions {
            cost: CostModel::default(),
            enable_view_matching: true,
            enable_dynamic_plans: true,
            enable_choose_plan_pullup: true,
            allow_mixed_results: false,
        }
    }
}

/// An optimized query.
#[derive(Debug, Clone)]
pub struct Optimized {
    /// Final logical plan (after all rewrites).
    pub logical: LogicalPlan,
    /// Executable physical plan, with Remote nodes at DataTransfer
    /// boundaries.
    pub physical: PhysicalPlan,
    /// Estimated total cost in work units.
    pub est_cost: f64,
    /// Estimated output rows.
    pub est_rows: f64,
}

/// Runs the full optimization pipeline over a bound logical plan with the
/// classic two-site (here / backend) placement space.
pub fn optimize(
    plan: LogicalPlan,
    db: &Database,
    options: &OptimizerOptions,
) -> Result<Optimized> {
    optimize_with_placement(plan, db, options, &PlacementEnv::two_site(&options.cost))
}

/// Runs the full optimization pipeline with an explicit placement
/// environment: every DataTransfer boundary is costed per candidate site
/// (here, each peer carrying a relevant cached view, backend) over its own
/// link, and physical `Remote` boundaries are threaded to whichever site
/// the dynamic program picked.
pub fn optimize_with_placement(
    plan: LogicalPlan,
    db: &Database,
    options: &OptimizerOptions,
    env: &PlacementEnv<'_>,
) -> Result<Optimized> {
    let plan = pushdown::push_filters(plan);

    let plan = if options.enable_view_matching {
        let required = collect_column_refs(&plan);
        let matched = apply_view_matching(plan, db, options, &required);
        view_match::recompute_schemas(matched)
    } else {
        plan
    };

    // Candidate set: the matched plan, a greedily join-reordered variant,
    // and (optionally) versions with every ChoosePlan pulled to the top.
    // Pick the cheapest — the paper notes pull-up can win (bigger remote
    // subqueries) or lose (larger plans). Each distinct candidate gets
    // exactly one placement pass; `consider` keeps the cheapest one's
    // annotation, which is all the physical build needs.
    fn consider(
        cand: LogicalPlan,
        seen: &mut Vec<LogicalPlan>,
        best: &mut Option<(location::Placed, usize)>,
        db: &Database,
        options: &OptimizerOptions,
        env: &PlacementEnv<'_>,
    ) {
        if seen.contains(&cand) {
            return;
        }
        let placed = location::place(&cand, db, &options.cost, env, &[]);
        if best
            .as_ref()
            .is_none_or(|(b, _)| placed.costs.local < b.costs.local)
        {
            *best = Some((placed, seen.len()));
        }
        seen.push(cand);
    }
    let mut best: Option<(location::Placed, usize)> = None;
    let mut seen: Vec<LogicalPlan> = Vec::new();
    consider(plan.clone(), &mut seen, &mut best, db, options, env);
    consider(
        view_match::recompute_schemas(join_order::reorder_joins(plan, db)),
        &mut seen,
        &mut best,
        db,
        options,
        env,
    );
    // Placement ChoosePlans: when a *peer* (not this node) carries a view
    // that matches a parameterized leaf only under a guard, build a dynamic
    // plan whose startup predicate selects among placements — guard open:
    // ship the fragment over the cheap peer link; guard closed: backend.
    // Synthesized from the cheapest base only: deriving placement variants
    // of every base would double the DP passes (and the planning time)
    // without changing which base structure wins.
    if options.enable_dynamic_plans && !env.peers.is_empty() {
        let base = seen[best.as_ref().expect("at least one candidate").1].clone();
        let placed =
            view_match::recompute_schemas(synthesize_placement_choices(base, env, &options.cost));
        consider(placed, &mut seen, &mut best, db, options, env);
    }
    if options.enable_choose_plan_pullup {
        for base in seen.clone() {
            consider(pull_up_choose_plans(base), &mut seen, &mut best, db, options, env);
        }
    }
    let (placed, winner) = best.expect("at least one candidate");
    let logical = seen.swap_remove(winner);
    let physical = placed.build(&logical)?;
    Ok(Optimized {
        logical,
        physical,
        est_cost: placed.costs.local,
        est_rows: placed.costs.rows,
    })
}

/// Gathers the column references of the plan's expressions *above its scan
/// leaves* — what a substituted view, and each branch of a dynamic plan, must
/// deliver. A leaf's own filter is evaluated inside whatever replaces the
/// leaf (the view scan, the shipped fragment), so a column only it names
/// (`region` in `SELECT o_id, total … WHERE region = @r`) is not delivered,
/// and not shipped.
fn collect_column_refs(plan: &LogicalPlan) -> Vec<String> {
    let mut out: Vec<String> = Vec::new();
    fn exprs_of(plan: &LogicalPlan, out: &mut Vec<String>) {
        let mut push = |e: &Expr| {
            for c in e.columns() {
                out.push(c.to_string());
            }
        };
        match plan {
            LogicalPlan::Filter { input, predicate } => {
                if !matches!(**input, LogicalPlan::Get { .. }) {
                    push(predicate);
                }
            }
            LogicalPlan::Project { exprs, .. } => {
                for (e, _) in exprs {
                    push(e);
                }
            }
            LogicalPlan::Join { on, .. } => {
                if let Some(on) = on {
                    push(on);
                }
            }
            LogicalPlan::Aggregate {
                group_by, aggs, ..
            } => {
                for g in group_by {
                    push(g);
                }
                for a in aggs {
                    if let Some(arg) = &a.arg {
                        push(arg);
                    }
                }
            }
            LogicalPlan::Sort { keys, .. } => {
                for k in keys {
                    push(&k.expr);
                }
            }
            LogicalPlan::UnionAll {
                startup_predicates, ..
            } => {
                for p in startup_predicates.iter().flatten() {
                    push(p);
                }
            }
            LogicalPlan::Get { .. } | LogicalPlan::Top { .. } | LogicalPlan::Distinct { .. } => {}
        }
        for c in plan.children() {
            exprs_of(c, out);
        }
    }
    exprs_of(plan, &mut out);
    out.sort();
    out.dedup();
    out
}

/// Walks the plan and substitutes matched views for `Filter(Get)` / `Get`
/// patterns over remote base tables, keeping the cost-optimal choice.
fn apply_view_matching(
    plan: LogicalPlan,
    db: &Database,
    options: &OptimizerOptions,
    required: &[String],
) -> LogicalPlan {
    let match_opts = MatchOptions {
        enable_dynamic_plans: options.enable_dynamic_plans,
        allow_mixed_results: options.allow_mixed_results,
    };
    let rewrite = |node: LogicalPlan| -> LogicalPlan {
        // Pattern: Filter(Get) or bare Get of a catalog object.
        let Some(leaf) = location::scan_leaf(&node) else {
            return node;
        };
        // Which required columns belong to this Get?
        let of_leaf = |c: &str| {
            let idx = leaf.schema.index_of(c).ok()?;
            Some(leaf.schema.column(idx).name.clone())
        };
        let mut my_required: Vec<String> = required.iter().filter_map(|c| of_leaf(c)).collect();
        if my_required.is_empty() {
            // `SELECT COUNT(*) … WHERE region = @r`: nothing above names a
            // column, but a branch must deliver rows to count, and a
            // fragment must select something — the filter's columns then.
            let conjuncts = leaf.conjuncts();
            my_required = (conjuncts.iter().flat_map(|c| c.columns()))
                .filter_map(of_leaf)
                .collect();
        }
        let matches = view_match::match_views(
            db,
            leaf.object,
            leaf.alias,
            leaf.schema,
            &leaf.conjuncts(),
            &my_required,
            match_opts,
        );
        if matches.is_empty() {
            return node;
        }
        // Cost-based choice among the original and every match.
        let mut best_cost = location::cost(&node, db, &options.cost).local;
        let mut best = node;
        for m in matches {
            let c = location::cost(&m.plan, db, &options.cost).local;
            if c < best_cost {
                best_cost = c;
                best = m.plan;
            }
        }
        best
    };
    rewrite_plan(plan, &rewrite)
}

/// Builds *placement ChoosePlans*: for every remote leaf that no local view
/// rewrote (or column-pruning Project over one — the unit the placement pass
/// prices against a peer's narrower view), but that a peer's cached view
/// matches **under a parameter guard**, chain one guarded branch per such
/// view: `UnionAll[g₁: node | UnionAll[g₂: node | node]]`. Every branch is
/// textually the same fragment — what differs is *placement*: under an open
/// guard the placement DP can route the fragment to that peer's view over
/// the cheap peer link; with every guard closed no peer match is usable and
/// the fragment ships to the backend. At run time exactly one leaf of the
/// chain opens, so a partitioned fleet degrades local → owning peer →
/// backend.
fn synthesize_placement_choices(
    plan: LogicalPlan,
    env: &PlacementEnv<'_>,
    cm: &CostModel,
) -> LogicalPlan {
    // Top-down, so a pruning Project is asked before the leaf under it: the
    // Project needs fewer columns than the leaf delivers, and more views
    // can supply them. A local match would have rewritten the leaf already;
    // only a *guarded* peer match creates a genuine placement choice.
    let guards = location::guarded_peer_matches(&plan, env, cm);
    if guards.is_empty() {
        if location::scan_leaf(&plan).is_some() {
            return plan;
        }
        return plan.map_children(|c| synthesize_placement_choices(c, env, cm));
    }
    let schema = plan.schema().clone();
    guards
        .into_iter()
        .rev()
        .fold(plan.clone(), |otherwise, (guard, fl)| {
            LogicalPlan::UnionAll {
                schema: schema.clone(),
                inputs: vec![plan.clone(), otherwise],
                startup_predicates: vec![Some(guard.clone()), Some(Expr::not(guard))],
                weights: vec![fl, 1.0 - fl],
            }
        })
}

/// Bottom-up plan rewriting. A `Filter(Get)` pair is the match unit: `f`
/// sees it whole, never the bare `Get` under the filter.
fn rewrite_plan(plan: LogicalPlan, f: &impl Fn(LogicalPlan) -> LogicalPlan) -> LogicalPlan {
    let leaf_pair = matches!(&plan, LogicalPlan::Filter { input, .. }
        if matches!(**input, LogicalPlan::Get { .. }));
    if leaf_pair {
        return f(plan);
    }
    f(plan.map_children(|c| rewrite_plan(c, f)))
}

/// Pulls guarded UnionAlls (ChoosePlans) above inner/cross joins — the
/// §5.1.2 transformation, valid because exactly one branch is active for
/// any parameter value. Applied to fixpoint.
pub fn pull_up_choose_plans(plan: LogicalPlan) -> LogicalPlan {
    let mut plan = plan;
    for _ in 0..8 {
        let (next, changed) = pull_once(plan);
        plan = view_match::recompute_schemas(next);
        if !changed {
            break;
        }
    }
    plan
}

fn pull_once(plan: LogicalPlan) -> (LogicalPlan, bool) {
    fn is_guarded_union(p: &LogicalPlan) -> bool {
        matches!(p, LogicalPlan::UnionAll { startup_predicates, .. }
            if startup_predicates.iter().any(Option::is_some))
    }
    // Only inner and cross joins commute with a ChoosePlan: an outer join
    // is returned as it is, and nothing under it is pulled either.
    if matches!(&plan, LogicalPlan::Join { kind, .. }
        if !matches!(kind, JoinKind::Inner | JoinKind::Cross))
    {
        return (plan, false);
    }
    let mut changed = false;
    let plan = plan.map_children(|c| {
        let (c, pulled) = pull_once(c);
        changed |= pulled;
        c
    });
    match plan {
        LogicalPlan::Join {
            left,
            right,
            kind,
            on,
            ..
        } if is_guarded_union(&left) => {
            let join = |b: LogicalPlan| LogicalPlan::Join {
                schema: b.schema().join(right.schema()),
                left: Box::new(b),
                right: right.clone(),
                kind,
                on: on.clone(),
            };
            (distribute(*left, join), true)
        }
        LogicalPlan::Join {
            left,
            right,
            kind,
            on,
            ..
        } if is_guarded_union(&right) => {
            let join = |b: LogicalPlan| LogicalPlan::Join {
                schema: left.schema().join(b.schema()),
                left: left.clone(),
                right: Box::new(b),
                kind,
                on: on.clone(),
            };
            (distribute(*right, join), true)
        }
        // Filters also commute with guarded unions (same proof shape).
        LogicalPlan::Filter { input, predicate } if is_guarded_union(&input) => {
            let filter = |b: LogicalPlan| LogicalPlan::Filter {
                input: Box::new(b),
                predicate: predicate.clone(),
            };
            (distribute(*input, filter), true)
        }
        other => (other, changed),
    }
}

/// Rebuilds a guarded union with `wrap` around each of its branches,
/// keeping its guards and weights. A join adds columns, so the new union
/// takes its first branch's schema; a filter keeps the union's own.
fn distribute(union: LogicalPlan, wrap: impl FnMut(LogicalPlan) -> LogicalPlan) -> LogicalPlan {
    let LogicalPlan::UnionAll {
        inputs,
        startup_predicates,
        weights,
        schema,
    } = union
    else {
        unreachable!("only a guarded union is distributed")
    };
    let inputs: Vec<LogicalPlan> = inputs.into_iter().map(wrap).collect();
    let schema = match &inputs[0] {
        LogicalPlan::Join { schema, .. } => schema.clone(),
        _ => schema,
    };
    LogicalPlan::UnionAll {
        inputs,
        startup_predicates,
        weights,
        schema,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::binder::bind_select;
    use mtc_sql::{parse_statement, Statement};
    use mtc_storage::ViewMeta;
    use mtc_types::{row, Column, DataType, Schema};

    /// Cache server with shadow customer/orders tables and a cached
    /// Cust1000 view.
    fn cache_db() -> Database {
        let mut backend = Database::new("d");
        backend
            .create_table(
                "customer",
                Schema::new(vec![
                    Column::not_null("ckey", DataType::Int),
                    Column::new("name", DataType::Str),
                ]),
                &["ckey".into()],
            )
            .unwrap();
        backend
            .create_table(
                "orders",
                Schema::new(vec![
                    Column::not_null("okey", DataType::Int),
                    Column::not_null("ckey", DataType::Int),
                    Column::new("total", DataType::Float),
                ]),
                &["okey".into()],
            )
            .unwrap();
        let mut changes = Vec::new();
        for i in 1..=10_000i64 {
            changes.push(mtc_storage::RowChange::Insert {
                table: "customer".into(),
                row: row![i, format!("c{i}")],
            });
        }
        for i in 1..=20_000i64 {
            changes.push(mtc_storage::RowChange::Insert {
                table: "orders".into(),
                row: row![i, (i % 10_000) + 1, (i % 97) as f64],
            });
        }
        backend.apply(0, changes).unwrap();
        backend.analyze();

        let mut cache = backend.shadow_clone();
        cache
            .create_table(
                "cust1000",
                Schema::new(vec![
                    Column::not_null("ckey", DataType::Int),
                    Column::new("name", DataType::Str),
                ]),
                &["ckey".into()],
            )
            .unwrap();
        let rows: Vec<_> = (1..=1000)
            .map(|i| mtc_storage::RowChange::Insert {
                table: "cust1000".into(),
                row: row![i, format!("c{i}")],
            })
            .collect();
        cache.apply(0, rows).unwrap();
        cache.analyze_table("cust1000");
        let Statement::Select(def) =
            parse_statement("SELECT ckey, name FROM customer WHERE ckey <= 1000").unwrap()
        else {
            panic!()
        };
        cache
            .catalog_mut()
            .create_view(ViewMeta {
                name: "cust1000".into(),
                definition: def,
                materialized: true,
                is_cached: true,
            })
            .unwrap();
        cache
    }

    fn optimize_sql(db: &Database, sql: &str, options: &OptimizerOptions) -> Optimized {
        let Statement::Select(sel) = parse_statement(sql).unwrap() else {
            panic!()
        };
        let plan = bind_select(&sel, db).unwrap();
        optimize(plan, db, options).unwrap()
    }

    #[test]
    fn literal_query_uses_cached_view_locally() {
        let db = cache_db();
        let opt = optimize_sql(
            &db,
            "SELECT ckey, name FROM customer WHERE ckey <= 500",
            &OptimizerOptions::default(),
        );
        let text = opt.physical.explain();
        assert!(!opt.physical.uses_remote(), "{text}");
        assert!(text.contains("cust1000"), "{text}");
    }

    #[test]
    fn view_matching_can_be_disabled() {
        let db = cache_db();
        let options = OptimizerOptions {
            enable_view_matching: false,
            ..Default::default()
        };
        let opt = optimize_sql(
            &db,
            "SELECT ckey, name FROM customer WHERE ckey <= 500",
            &options,
        );
        assert!(opt.physical.uses_remote(), "{}", opt.physical.explain());
    }

    #[test]
    fn parameterized_query_gets_dynamic_plan() {
        let db = cache_db();
        let opt = optimize_sql(
            &db,
            "SELECT ckey, name FROM customer WHERE ckey <= @v",
            &OptimizerOptions::default(),
        );
        let text = opt.physical.explain();
        assert!(text.contains("UnionAll"), "{text}");
        assert!(text.contains("[startup: @v <= 1000]"), "{text}");
        assert!(opt.physical.uses_remote(), "remote branch exists: {text}");
        assert!(opt.physical.uses_local_data(), "local branch exists: {text}");
    }

    #[test]
    fn out_of_range_literal_goes_remote() {
        let db = cache_db();
        let opt = optimize_sql(
            &db,
            "SELECT ckey, name FROM customer WHERE ckey <= 5000",
            &OptimizerOptions::default(),
        );
        assert!(opt.physical.uses_remote(), "{}", opt.physical.explain());
        assert!(!opt.physical.uses_local_data());
    }

    #[test]
    fn join_query_with_dynamic_plan_pullup() {
        let db = cache_db();
        let with_pullup = optimize_sql(
            &db,
            "SELECT c.name, o.total FROM customer AS c, orders AS o WHERE c.ckey = o.ckey AND c.ckey <= @v",
            &OptimizerOptions::default(),
        );
        let no_pullup_opts = OptimizerOptions {
            enable_choose_plan_pullup: false,
            ..Default::default()
        };
        let without = optimize_sql(
            &db,
            "SELECT c.name, o.total FROM customer AS c, orders AS o WHERE c.ckey = o.ckey AND c.ckey <= @v",
            &no_pullup_opts,
        );
        // Pull-up should win here: its remote branch ships the whole join.
        assert!(
            with_pullup.est_cost <= without.est_cost,
            "pullup {} vs {}",
            with_pullup.est_cost,
            without.est_cost
        );
        let text = with_pullup.physical.explain();
        assert!(text.contains("UnionAll"), "{text}");
    }

    fn get(name: &str) -> LogicalPlan {
        LogicalPlan::Get {
            object: name.into(),
            alias: name.into(),
            schema: Schema::new(vec![Column::new(&format!("{name}.k"), DataType::Int)]),
            location: crate::logical::DataLocation::Remote,
        }
    }

    /// `Filter(ChoosePlan[@v <= 10: a | a]) ⋈ b`, the join of `kind`.
    fn choose_plan_under_join(kind: JoinKind) -> LogicalPlan {
        let guard = Expr::binary(Expr::param("v"), mtc_sql::BinOp::Le, Expr::lit(10));
        let union = LogicalPlan::UnionAll {
            inputs: vec![get("a"), get("a")],
            startup_predicates: vec![Some(guard.clone()), Some(Expr::not(guard))],
            weights: vec![0.5, 0.5],
            schema: get("a").schema().clone(),
        };
        LogicalPlan::Join {
            left: Box::new(LogicalPlan::Filter {
                input: Box::new(union),
                predicate: Expr::binary(Expr::col("a.k"), mtc_sql::BinOp::Gt, Expr::lit(0)),
            }),
            right: Box::new(get("b")),
            kind,
            on: None,
            schema: get("a").schema().join(get("b").schema()),
        }
    }

    #[test]
    fn pull_up_crosses_filters_and_inner_joins() {
        let pulled = pull_up_choose_plans(choose_plan_under_join(JoinKind::Cross));
        let LogicalPlan::UnionAll { inputs, schema, .. } = &pulled else {
            panic!("ChoosePlan on top: {}", pulled.explain())
        };
        assert_eq!(schema, inputs[0].schema(), "a join takes its branch's schema");
        assert_eq!(schema.len(), 2);
        for branch in inputs {
            let LogicalPlan::Join { left, .. } = branch else {
                panic!("{}", pulled.explain())
            };
            assert!(matches!(**left, LogicalPlan::Filter { .. }), "{}", pulled.explain());
        }
    }

    #[test]
    fn pull_up_leaves_an_outer_join_and_everything_under_it_alone() {
        // Not even the filter inside, which on its own would be crossed.
        let outer = choose_plan_under_join(JoinKind::Left);
        assert_eq!(pull_up_choose_plans(outer.clone()), outer);
    }

    #[test]
    fn estimates_are_populated() {
        let db = cache_db();
        let opt = optimize_sql(
            &db,
            "SELECT ckey FROM customer WHERE ckey <= 100",
            &OptimizerOptions::default(),
        );
        assert!(opt.est_cost.is_finite() && opt.est_cost > 0.0);
        assert!(opt.est_rows > 0.0);
    }
}
