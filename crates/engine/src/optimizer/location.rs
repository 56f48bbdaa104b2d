//! Multi-site DataLocation assignment and physical plan construction.
//!
//! For every logical node we compute a **per-site cost vector** over
//! `site ∈ {this node, each cache peer with relevant cached views, backend}`:
//!
//! * `local`  — cheapest way to *deliver the result on this server*, either
//!   by executing the operator locally over local children, or by executing
//!   the whole subtree at another site and inserting a **DataTransfer**
//!   costed per-link (startup + volume, §5);
//! * `remote` — cheapest way to produce the result *natively on the
//!   backend*, i.e. every leaf is a backend object and the subtree can be
//!   decompiled to a single SQL statement. Remote operator costs carry the
//!   `remote_cost_factor` penalty.
//! * `peers[p]` — cheapest way to produce the result *natively on cache
//!   peer p*: shadow leaves must be covered by one of p's cached views
//!   (checked via view matching against p's catalog, honoring any
//!   ChoosePlan guard currently pinned true), and uncovered subfragments
//!   may be pulled from the backend over p's own backend link — the
//!   transparent recursion the paper's mid-tier caching implies.
//!
//! Data only ever flows *toward* this node: textual SQL cannot reference
//! another node's cache-only objects, so there is no Local→Remote or
//! Peer→Peer enforcer. The feasible links are `backend→here`, `peer→here`
//! and `backend→peer`, each with its own [`LinkCost`].
//!
//! The root demands `local`; wherever the minimum flips from native-local
//! to elsewhere-plus-transfer, the built physical plan gets a
//! [`PhysicalPlan::Remote`] boundary holding the shipped SQL text and the
//! backtracked [`RemoteSite`] that won the placement.

use mtc_sql::Expr;
use mtc_storage::Database;
use mtc_types::{Error, Result, Schema};

use crate::logical::{DataLocation, LogicalPlan};
use crate::optimizer::access::{extreme_seek_pattern, inlj_op_cost, inlj_options, InljInner};
use crate::optimizer::cardinality::{estimate_rows, estimate_width};
use crate::optimizer::cost::{CostModel, LinkCost};
use crate::optimizer::view_match::{self, MatchOptions};
use crate::physical::{PhysicalPlan, RemoteSite};
use crate::sqlgen;

pub use crate::optimizer::access::{best_access, extract_equi_keys, Access, AccessKind};

const INF: f64 = f64::INFINITY;

/// One cache peer the placement DP may route plan fragments to.
pub struct PeerSite<'a> {
    /// Node name (e.g. `cache2`) — recorded in the Remote boundary so the
    /// executor can dispatch to the right peer.
    pub name: String,
    /// The peer's catalog + data snapshot, used for view-matching
    /// feasibility and cost estimation.
    pub db: &'a Database,
    /// Link cost of shipping a fragment result from this peer to us.
    pub link: LinkCost,
}

/// The placement environment: which sites exist and what their links cost.
/// An empty environment reproduces the paper's two-site (local/backend)
/// optimization exactly.
pub struct PlacementEnv<'a> {
    pub peers: Vec<PeerSite<'a>>,
    /// Link cost of shipping a result from the backend to us (and, fleet
    /// links being symmetric, from the backend to any peer).
    pub backend_link: LinkCost,
    /// Memoized `(peer, leaf, guards)` view-match outcomes. One planning
    /// pass costs every candidate and then rebuilds the winner, touching
    /// each shadow leaf many times; the underlying match is pure for the
    /// life of the env (peer snapshots are pinned), so caching it keeps
    /// multi-site planning within the two-site time budget.
    memo: std::cell::RefCell<std::collections::HashMap<String, Option<(f64, String)>>>,
    /// Memoized *guarded* peer-match probes for placement ChoosePlan
    /// synthesis — same purity argument as `memo`.
    guard_memo: std::cell::RefCell<std::collections::HashMap<String, Option<(Expr, f64)>>>,
    /// Memoized per-leaf peer cost vectors (parallel to `peers`): the DP
    /// touches leaves once per candidate per pass, so folding all peers
    /// under one key amortizes the key construction itself.
    vec_memo: std::cell::RefCell<std::collections::HashMap<String, Vec<f64>>>,
}

impl PlacementEnv<'_> {
    /// The classic two-site environment: no peers, backend link straight
    /// from the cost model's DataTransfer knobs.
    pub fn two_site(cm: &CostModel) -> PlacementEnv<'static> {
        PlacementEnv {
            peers: Vec::new(),
            backend_link: cm.backend_link(),
            memo: std::cell::RefCell::new(std::collections::HashMap::new()),
            guard_memo: std::cell::RefCell::new(std::collections::HashMap::new()),
            vec_memo: std::cell::RefCell::new(std::collections::HashMap::new()),
        }
    }
}

/// Cheapest native evaluation of a shadow leaf on every peer at once —
/// [`leaf_peer_match`] folded across `env.peers` (`INF` where no view
/// covers the leaf), memoized as one vector.
fn peer_leaf_costs(
    object: &str,
    alias: &str,
    get_schema: &Schema,
    conjuncts: &[Expr],
    required: &[String],
    env: &PlacementEnv,
    cm: &CostModel,
    guards: &[Expr],
) -> Vec<f64> {
    if env.peers.is_empty() {
        return Vec::new();
    }
    // `peers` is a pub Vec callers may grow between planning passes, so the
    // cached vector is only valid for the exact peer list it was built for.
    let key = format!(
        "{}\u{1}{object}\u{1}{alias}\u{1}{}\u{1}{}\u{1}{}",
        env.peers
            .iter()
            .map(|p| p.name.as_str())
            .collect::<Vec<_>>()
            .join("\u{2}"),
        conjuncts
            .iter()
            .map(|c| c.to_string())
            .collect::<Vec<_>>()
            .join("\u{2}"),
        required.join("\u{2}"),
        guards
            .iter()
            .map(|g| g.to_string())
            .collect::<Vec<_>>()
            .join("\u{2}"),
    );
    if let Some(hit) = env.vec_memo.borrow().get(&key) {
        return hit.clone();
    }
    let costs: Vec<f64> = env
        .peers
        .iter()
        .map(|p| {
            leaf_peer_match(object, alias, get_schema, conjuncts, required, p, env, cm, guards)
                .map(|(c, _)| c)
                .unwrap_or(INF)
        })
        .collect();
    env.vec_memo.borrow_mut().insert(key, costs.clone());
    costs
}

/// The first *guarded* match of `site`'s cached views against a shadow
/// leaf — the probe placement ChoosePlan synthesis runs per (leaf, peer).
/// Memoized on the env for the same reason as [`leaf_peer_match`].
pub(crate) fn guarded_peer_match(
    object: &str,
    alias: &str,
    get_schema: &Schema,
    conjuncts: &[Expr],
    required: &[String],
    site: &PeerSite,
    env: &PlacementEnv,
) -> Option<(Expr, f64)> {
    let key = format!(
        "{}\u{1}{object}\u{1}{alias}\u{1}{}\u{1}{}",
        site.name,
        conjuncts
            .iter()
            .map(|c| c.to_string())
            .collect::<Vec<_>>()
            .join("\u{2}"),
        required.join("\u{2}"),
    );
    if let Some(hit) = env.guard_memo.borrow().get(&key) {
        return hit.clone();
    }
    let opts = MatchOptions {
        enable_dynamic_plans: true,
        allow_mixed_results: false,
    };
    let found = view_match::match_views(
        site.db, object, alias, get_schema, conjuncts, required, opts,
    )
    .into_iter()
    .find_map(|m| m.guard.clone().map(|g| (g, m.guard_probability)));
    env.guard_memo.borrow_mut().insert(key, found.clone());
    found
}

/// Cost summary for one logical node: cheapest *native* evaluation at each
/// site, plus the cheapest delivery here (`local`).
#[derive(Debug, Clone)]
pub struct Costs {
    /// Cheapest cost to have the result on this (cache) server.
    pub local: f64,
    /// Cheapest cost to produce the result natively on the backend.
    pub remote: f64,
    /// Cheapest cost to produce the result natively on each peer of the
    /// placement environment (parallel to `PlacementEnv::peers`; `INF`
    /// where the peer's cached views cannot cover the fragment).
    pub peers: Vec<f64>,
    /// Estimated output rows.
    pub rows: f64,
    /// Estimated output row width (bytes).
    pub width: f64,
}

/// Computes the two-site (local/backend) cost of a subtree — the classic
/// MTCache lattice, used everywhere a single node plans for itself.
pub fn cost(plan: &LogicalPlan, db: &Database, cm: &CostModel) -> Costs {
    cost_placed(plan, db, cm, &PlacementEnv::two_site(cm), &[])
}

/// Computes the per-site cost vector of a subtree under a placement
/// environment. `guards` is the conjunction of ChoosePlan startup
/// predicates pinned true on the path from the root — a peer's *guarded*
/// view match is only usable inside the branch that guarantees its guard.
pub fn cost_placed(
    plan: &LogicalPlan,
    db: &Database,
    cm: &CostModel,
    env: &PlacementEnv,
    guards: &[Expr],
) -> Costs {
    let rows = estimate_rows(plan, db);
    let width = estimate_width(plan);
    let n_peers = env.peers.len();
    // Per-node native costs: (here, backend, peer 0.., )
    let (native_local, native_remote, mut peers) = match plan {
        LogicalPlan::Get {
            object,
            alias,
            schema,
            location,
        } => {
            if object.is_empty() {
                (0.1, INF, vec![INF; n_peers])
            } else {
                let scan = cm.scan(rows);
                match location {
                    DataLocation::Local => (scan, INF, vec![INF; n_peers]),
                    DataLocation::Remote => {
                        let required = full_required(schema);
                        let peers =
                            peer_leaf_costs(object, alias, schema, &[], &required, env, cm, guards);
                        (INF, scan * cm.remote_cost_factor, peers)
                    }
                }
            }
        }
        LogicalPlan::Filter { input, predicate } => {
            // Fuse access-path selection with a Filter directly over a Get.
            if let LogicalPlan::Get {
                object,
                alias,
                schema,
                location,
            } = &**input
            {
                if !object.is_empty() {
                    let access = best_access(db, object, schema, predicate, cm, input);
                    match location {
                        DataLocation::Local => (access.cost, INF, vec![INF; n_peers]),
                        DataLocation::Remote => {
                            let conjuncts: Vec<Expr> =
                                predicate.split_conjuncts().into_iter().cloned().collect();
                            let required = full_required(schema);
                            let peers = peer_leaf_costs(
                                object, alias, schema, &conjuncts, &required, env, cm, guards,
                            );
                            (INF, access.cost * cm.remote_cost_factor, peers)
                        }
                    }
                } else {
                    let c = cost_placed(input, db, cm, env, guards);
                    let op = cm.filter(c.rows);
                    (
                        c.local + op,
                        c.remote + op * cm.remote_cost_factor,
                        peer_compose(&c, op, cm, env),
                    )
                }
            } else {
                let c = cost_placed(input, db, cm, env, guards);
                let op = cm.filter(c.rows);
                (
                    c.local + op,
                    c.remote + op * cm.remote_cost_factor,
                    peer_compose(&c, op, cm, env),
                )
            }
        }
        LogicalPlan::Project { input, exprs, .. } => {
            let c = cost_placed(input, db, cm, env, guards);
            let op = cm.project(c.rows);
            let mut peers = peer_compose(&c, op, cm, env);
            // A column-pruning Project over a shadow leaf narrows what a
            // peer's view must provide: `SELECT a, b FROM t WHERE p` can
            // match a view that lacks t's other columns, even though the
            // bare leaf (which outputs every column) cannot.
            if let Some((object, alias, schema, conjuncts)) = shadow_leaf(input) {
                let required = project_required(exprs, &conjuncts, schema);
                let leaf_costs =
                    peer_leaf_costs(object, alias, schema, &conjuncts, &required, env, cm, guards);
                for (i, leaf) in leaf_costs.into_iter().enumerate() {
                    peers[i] = peers[i].min(leaf + op * cm.peer_cost_factor);
                }
            }
            (c.local + op, c.remote + op * cm.remote_cost_factor, peers)
        }
        LogicalPlan::Join {
            left,
            right,
            kind,
            on,
            ..
        } => {
            let l = cost_placed(left, db, cm, env, guards);
            let r = cost_placed(right, db, cm, env, guards);
            let op = if extract_equi_keys(on, left.schema(), right.schema()).is_some() {
                // The executor builds on the smaller input (see build_local).
                cm.hash_join(l.rows.min(r.rows), l.rows.max(r.rows), rows)
            } else {
                cm.nl_join(l.rows, r.rows, rows)
            };
            let mut local = l.local + r.local + op;
            // Index nested-loop alternatives skip the inner side's scan
            // entirely: cost = outer subtree + per-outer-row seeks.
            for (outer_is_left, inner, _, _) in inlj_options(on, left, right, *kind, db) {
                let (outer_cost, outer_rows) = if outer_is_left {
                    (l.local, l.rows)
                } else {
                    (r.local, r.rows)
                };
                local = local.min(outer_cost + inlj_op_cost(cm, outer_rows, &inner, rows));
            }
            let peers = (0..n_peers)
                .map(|p| {
                    op * cm.peer_cost_factor
                        + delivered_at_peer(&l, p, env)
                        + delivered_at_peer(&r, p, env)
                })
                .collect();
            (local, l.remote + r.remote + op * cm.remote_cost_factor, peers)
        }
        LogicalPlan::Aggregate { input, .. } => {
            if extreme_seek_pattern(plan, db).is_some() {
                // MIN/MAX of the clustering key: one B-tree descent.
                (cm.seek_cost, INF, vec![INF; n_peers])
            } else {
                let c = cost_placed(input, db, cm, env, guards);
                let op = cm.aggregate(c.rows, rows);
                (
                    c.local + op,
                    c.remote + op * cm.remote_cost_factor,
                    peer_compose(&c, op, cm, env),
                )
            }
        }
        LogicalPlan::Sort { input, .. } => {
            let c = cost_placed(input, db, cm, env, guards);
            let op = cm.sort(c.rows);
            (
                c.local + op,
                c.remote + op * cm.remote_cost_factor,
                peer_compose(&c, op, cm, env),
            )
        }
        LogicalPlan::Top { input, .. } => {
            let c = cost_placed(input, db, cm, env, guards);
            let op = cm.filter(c.rows);
            (
                c.local + op,
                c.remote + op * cm.remote_cost_factor,
                peer_compose(&c, op, cm, env),
            )
        }
        LogicalPlan::Distinct { input } => {
            let c = cost_placed(input, db, cm, env, guards);
            let op = cm.aggregate(c.rows, rows);
            (
                c.local + op,
                c.remote + op * cm.remote_cost_factor,
                peer_compose(&c, op, cm, env),
            )
        }
        LogicalPlan::UnionAll {
            inputs,
            startup_predicates,
            weights,
            ..
        } => {
            // §5.1 weighted costing: Σ wᵢ·Cᵢ over guarded branches. Each
            // branch's startup predicate is pinned true inside it, which
            // may unlock guarded peer-view matches there.
            let mut total = 0.0;
            for ((i, w), sp) in inputs.iter().zip(weights).zip(startup_predicates) {
                let branch_guards = extend_guards(guards, sp);
                total += w * cost_placed(i, db, cm, env, &branch_guards).local;
            }
            (total, INF, vec![INF; n_peers])
        }
    };

    // A site other than here is only usable if the subtree can ship as SQL.
    let ship = sqlgen::shippable(plan);
    let native_remote = if native_remote.is_finite() && ship {
        native_remote
    } else {
        INF
    };
    if !ship {
        for p in peers.iter_mut() {
            *p = INF;
        }
    }
    // DataTransfer enforcers: cheapest delivery here over all sites.
    let mut local = native_local.min(native_remote + env.backend_link.transfer(rows, width));
    for (i, p) in env.peers.iter().enumerate() {
        local = local.min(peers[i] + p.link.transfer(rows, width));
    }
    Costs {
        local,
        remote: native_remote,
        peers,
        rows,
        width,
    }
}

/// Composes a unary operator's cost at every peer: the operator (with the
/// peer penalty) over the child delivered at that peer.
fn peer_compose(child: &Costs, op: f64, cm: &CostModel, env: &PlacementEnv) -> Vec<f64> {
    (0..env.peers.len())
        .map(|p| op * cm.peer_cost_factor + delivered_at_peer(child, p, env))
        .collect()
}

/// Cheapest way to have `child`'s result present at peer `p`: produced
/// natively there, or produced on the backend and pulled over the peer's
/// own backend link (the peer recursively forwards uncovered fragments —
/// transparently, exactly as we do).
fn delivered_at_peer(child: &Costs, p: usize, env: &PlacementEnv) -> f64 {
    child.peers[p].min(child.remote + env.backend_link.transfer(child.rows, child.width))
}

/// Extends the pinned-guard set with a branch's startup predicate.
fn extend_guards(guards: &[Expr], sp: &Option<Expr>) -> Vec<Expr> {
    let mut out = guards.to_vec();
    if let Some(p) = sp {
        out.extend(p.split_conjuncts().into_iter().cloned());
    }
    out
}

/// Is `guard` guaranteed by the pinned-guard set? Purely syntactic: every
/// conjunct must appear verbatim among the active guards.
fn guard_active(guard: &Expr, guards: &[Expr]) -> bool {
    guard
        .split_conjuncts()
        .iter()
        .all(|g| guards.iter().any(|a| a == *g))
}

/// Every column of a `Get` leaf's schema — the default `required` set when
/// nothing above the leaf prunes columns.
fn full_required(schema: &Schema) -> Vec<String> {
    schema.columns().iter().map(|c| c.name.clone()).collect()
}

/// The columns a pruning Project (plus the leaf's filter conjuncts)
/// actually needs from a shadow leaf, resolved to the leaf schema's own
/// column names (references may arrive alias-qualified).
fn project_required(
    exprs: &[(Expr, String)],
    conjuncts: &[Expr],
    schema: &Schema,
) -> Vec<String> {
    let mut out: Vec<String> = Vec::new();
    let mut push = |e: &Expr| {
        for c in e.columns() {
            if let Ok(idx) = schema.index_of(c) {
                let name = schema.column(idx).name.clone();
                if !out.contains(&name) {
                    out.push(name);
                }
            }
        }
    };
    for (e, _) in exprs {
        push(e);
    }
    for c in conjuncts {
        push(c);
    }
    out
}

/// Recognizes a shadow leaf a peer could serve whole: a bare remote `Get`
/// or the fused `Filter(Get)`, returning its filter conjuncts.
fn shadow_leaf(plan: &LogicalPlan) -> Option<(&str, &str, &Schema, Vec<Expr>)> {
    match plan {
        LogicalPlan::Get {
            object,
            alias,
            schema,
            location: DataLocation::Remote,
        } if !object.is_empty() => Some((object, alias, schema, Vec::new())),
        LogicalPlan::Filter { input, predicate } => match &**input {
            LogicalPlan::Get {
                object,
                alias,
                schema,
                location: DataLocation::Remote,
            } if !object.is_empty() => Some((
                object,
                alias,
                schema,
                predicate.split_conjuncts().into_iter().cloned().collect(),
            )),
            _ => None,
        },
        _ => None,
    }
}

/// The peer's cheapest usable view rewrite for a shadow leaf (a bare `Get`
/// or the fused `Filter(Get)`), if any: unconditional matches always
/// qualify; guarded matches only inside a ChoosePlan branch that pins the
/// guard true. `required` is the set of leaf columns the fragment above
/// actually consumes. Returns `(native cost at the peer, view name)`.
fn leaf_peer_match(
    object: &str,
    alias: &str,
    get_schema: &Schema,
    conjuncts: &[Expr],
    required: &[String],
    site: &PeerSite,
    env: &PlacementEnv,
    cm: &CostModel,
    guards: &[Expr],
) -> Option<(f64, String)> {
    let key = format!(
        "{}\u{1}{object}\u{1}{alias}\u{1}{}\u{1}{}\u{1}{}",
        site.name,
        conjuncts
            .iter()
            .map(|c| c.to_string())
            .collect::<Vec<_>>()
            .join("\u{2}"),
        required.join("\u{2}"),
        guards
            .iter()
            .map(|g| g.to_string())
            .collect::<Vec<_>>()
            .join("\u{2}"),
    );
    if let Some(hit) = env.memo.borrow().get(&key) {
        return hit.clone();
    }
    let opts = MatchOptions {
        enable_dynamic_plans: true,
        allow_mixed_results: false,
    };
    let mut best: Option<(f64, String)> = None;
    for m in view_match::match_views(site.db, object, alias, get_schema, conjuncts, required, opts)
    {
        // Guarded matches expose the view-backed branch as inputs[0] of
        // their ChoosePlan; it is only sound where the guard is pinned.
        let branch = match (&m.guard, &m.plan) {
            (None, plan) => plan,
            (Some(g), LogicalPlan::UnionAll { inputs, .. }) if guard_active(g, guards) => {
                &inputs[0]
            }
            _ => continue,
        };
        let c = cost(branch, site.db, cm).local * cm.peer_cost_factor;
        if best.as_ref().map(|(b, _)| c < *b).unwrap_or(true) {
            best = Some((c, m.view_name.clone()));
        }
    }
    env.memo.borrow_mut().insert(key, best.clone());
    best
}

/// The peer views a fragment placed on `site` would be served from — for
/// EXPLAIN observability on Remote boundaries.
fn peer_view_names(
    plan: &LogicalPlan,
    site: &PeerSite,
    env: &PlacementEnv,
    cm: &CostModel,
    guards: &[Expr],
) -> String {
    fn walk(
        plan: &LogicalPlan,
        site: &PeerSite,
        env: &PlacementEnv,
        cm: &CostModel,
        guards: &[Expr],
        out: &mut Vec<String>,
    ) {
        // A pruning Project over a shadow leaf matches with the narrowed
        // column requirement, exactly as the cost DP does.
        if let LogicalPlan::Project { input, exprs, .. } = plan {
            if let Some((object, alias, schema, conjuncts)) = shadow_leaf(input) {
                let required = project_required(exprs, &conjuncts, schema);
                if let Some((_, view)) = leaf_peer_match(
                    object, alias, schema, &conjuncts, &required, site, env, cm, guards,
                ) {
                    out.push(view);
                    return;
                }
            }
        }
        if let Some((object, alias, schema, conjuncts)) = shadow_leaf(plan) {
            let required = full_required(schema);
            if let Some((_, view)) = leaf_peer_match(
                object, alias, schema, &conjuncts, &required, site, env, cm, guards,
            ) {
                out.push(view);
            }
            return;
        }
        for child in plan.children() {
            walk(child, site, env, cm, guards, out);
        }
    }
    let mut views = Vec::new();
    walk(plan, site, env, cm, guards, &mut views);
    views.sort();
    views.dedup();
    if views.is_empty() {
        "-".to_string()
    } else {
        views.join("+")
    }
}

/// Builds the physical plan delivering the result locally, two-site.
pub fn build(plan: &LogicalPlan, db: &Database, cm: &CostModel) -> Result<PhysicalPlan> {
    build_placed(plan, db, cm, &PlacementEnv::two_site(cm), &[])
}

/// Builds the physical plan delivering the result locally under a
/// placement environment, threading Remote boundaries to whichever site
/// won the cost DP.
pub fn build_placed(
    plan: &LogicalPlan,
    db: &Database,
    cm: &CostModel,
    env: &PlacementEnv,
    guards: &[Expr],
) -> Result<PhysicalPlan> {
    let c = cost_placed(plan, db, cm, env, guards);
    if !c.local.is_finite() {
        return Err(Error::plan(
            "no local execution strategy exists for this query",
        ));
    }
    build_local(plan, db, cm, &c, env, guards)
}

fn build_local(
    plan: &LogicalPlan,
    db: &Database,
    cm: &CostModel,
    c: &Costs,
    env: &PlacementEnv,
    guards: &[Expr],
) -> Result<PhysicalPlan> {
    // Prefer shipping the whole subtree when another site delivers it here
    // cheaper (ties break toward local execution, as the paper's cost
    // tweak intends). Backtrack the winning site into the boundary.
    let via_backend = c.remote + env.backend_link.transfer(c.rows, c.width);
    let mut best_site = RemoteSite::Backend;
    let mut best_shipped = via_backend;
    for (i, p) in env.peers.iter().enumerate() {
        let total = c.peers[i] + p.link.transfer(c.rows, c.width);
        if total < best_shipped {
            best_shipped = total;
            best_site = RemoteSite::Peer {
                node: p.name.clone(),
                view: peer_view_names(plan, p, env, cm, guards),
            };
        }
    }
    let native_local = recompute_native_local(plan, db, cm, env, guards);
    if best_shipped < native_local {
        let select = sqlgen::to_select(plan)?;
        return Ok(PhysicalPlan::Remote {
            sql: select.to_string(),
            schema: plan.schema().clone(),
            est_rows: c.rows,
            site: best_site,
        });
    }

    match plan {
        LogicalPlan::Get { object, schema, .. } => {
            if object.is_empty() {
                Ok(PhysicalPlan::Nothing {
                    schema: Schema::empty(),
                })
            } else {
                Ok(PhysicalPlan::SeqScan {
                    object: object.clone(),
                    schema: schema.clone(),
                    predicate: None,
                })
            }
        }
        LogicalPlan::Filter { input, predicate } => {
            if let LogicalPlan::Get { object, schema, .. } = &**input {
                if !object.is_empty() {
                    let access = best_access(db, object, schema, predicate, cm, input);
                    return Ok(access.to_physical(object, schema, predicate));
                }
            }
            let child_costs = cost_placed(input, db, cm, env, guards);
            Ok(PhysicalPlan::Filter {
                input: Box::new(build_local(input, db, cm, &child_costs, env, guards)?),
                predicate: predicate.clone(),
            })
        }
        LogicalPlan::Project {
            input,
            exprs,
            schema,
        } => {
            let cc = cost_placed(input, db, cm, env, guards);
            Ok(PhysicalPlan::Project {
                input: Box::new(build_local(input, db, cm, &cc, env, guards)?),
                exprs: exprs.clone(),
                schema: schema.clone(),
            })
        }
        LogicalPlan::Join {
            left,
            right,
            kind,
            on,
            schema,
        } => {
            let lc = cost_placed(left, db, cm, env, guards);
            let rc = cost_placed(right, db, cm, env, guards);
            let rows = estimate_rows(plan, db);
            // Pick the cheapest local join strategy, mirroring cost().
            let standard_op = if extract_equi_keys(on, left.schema(), right.schema()).is_some() {
                cm.hash_join(lc.rows.min(rc.rows), lc.rows.max(rc.rows), rows)
            } else {
                cm.nl_join(lc.rows, rc.rows, rows)
            };
            let mut best_inlj: Option<(f64, bool, InljInner, Expr, Expr)> = None;
            for (outer_is_left, inner, outer_key, inner_key) in
                inlj_options(on, left, right, *kind, db)
            {
                let (outer_cost, outer_rows) = if outer_is_left {
                    (lc.local, lc.rows)
                } else {
                    (rc.local, rc.rows)
                };
                let total = outer_cost + inlj_op_cost(cm, outer_rows, &inner, rows);
                if best_inlj.as_ref().map(|(c, ..)| total < *c).unwrap_or(true) {
                    best_inlj = Some((total, outer_is_left, inner, outer_key, inner_key));
                }
            }
            let standard_total = lc.local + rc.local + standard_op;
            if let Some((inlj_total, outer_is_left, inner, outer_key, inner_key)) = best_inlj {
                if inlj_total < standard_total {
                    let (outer_plan, outer_costs) = if outer_is_left {
                        (&**left, &lc)
                    } else {
                        (&**right, &rc)
                    };
                    let outer = build_local(outer_plan, db, cm, outer_costs, env, guards)?;
                    // Residual: every ON conjunct except the seek equality.
                    let seek_eq = Expr::binary(
                        outer_key.clone(),
                        mtc_sql::BinOp::Eq,
                        inner_key.clone(),
                    );
                    let seek_eq_flipped = Expr::binary(
                        inner_key.clone(),
                        mtc_sql::BinOp::Eq,
                        outer_key.clone(),
                    );
                    let residual = Expr::conjunction(
                        on.iter()
                            .flat_map(|p| p.split_conjuncts())
                            .filter(|c| **c != seek_eq && **c != seek_eq_flipped)
                            .cloned(),
                    );
                    let schema = outer.schema().join(&inner.out_schema);
                    return Ok(PhysicalPlan::IndexNlJoin {
                        outer: Box::new(outer),
                        inner_object: inner.object,
                        inner_index: inner.index,
                        outer_key,
                        inner_exprs: inner.exprs,
                        inner_row_schema: inner.row_schema,
                        inner_schema: inner.out_schema,
                        kind: if *kind == mtc_sql::JoinKind::Left && outer_is_left {
                            mtc_sql::JoinKind::Left
                        } else {
                            mtc_sql::JoinKind::Inner
                        },
                        residual,
                        schema,
                    });
                }
            }
            let l = build_local(left, db, cm, &lc, env, guards)?;
            let r = build_local(right, db, cm, &rc, env, guards)?;
            if let Some((lk, rk, residual)) =
                extract_equi_keys(on, left.schema(), right.schema())
            {
                // The executor builds its hash table on the RIGHT input:
                // put the smaller (estimated) side there. Swapping an
                // inner/cross join flips the output column order, which is
                // fine — everything upstream resolves columns by name
                // against the node's schema.
                let swap = lc.rows < rc.rows
                    && matches!(kind, mtc_sql::JoinKind::Inner | mtc_sql::JoinKind::Cross);
                // Physical join schemas are derived from the *built*
                // children: a child join may itself have swapped its
                // sides, so the logical schema can be stale.
                let _ = schema;
                if swap {
                    let schema = r.schema().join(l.schema());
                    Ok(PhysicalPlan::HashJoin {
                        left: Box::new(r),
                        right: Box::new(l),
                        left_keys: rk,
                        right_keys: lk,
                        kind: *kind,
                        residual,
                        schema,
                    })
                } else {
                    let schema = l.schema().join(r.schema());
                    Ok(PhysicalPlan::HashJoin {
                        left: Box::new(l),
                        right: Box::new(r),
                        left_keys: lk,
                        right_keys: rk,
                        kind: *kind,
                        residual,
                        schema,
                    })
                }
            } else {
                let schema = l.schema().join(r.schema());
                Ok(PhysicalPlan::NestedLoopJoin {
                    left: Box::new(l),
                    right: Box::new(r),
                    kind: *kind,
                    on: on.clone(),
                    schema,
                })
            }
        }
        LogicalPlan::Aggregate {
            input,
            group_by,
            aggs,
            schema,
        } => {
            if let Some((object, key_index, is_max)) = extreme_seek_pattern(plan, db) {
                return Ok(PhysicalPlan::ExtremeSeek {
                    object: object.to_string(),
                    key_index,
                    is_max,
                    schema: schema.clone(),
                });
            }
            let cc = cost_placed(input, db, cm, env, guards);
            Ok(PhysicalPlan::HashAggregate {
                input: Box::new(build_local(input, db, cm, &cc, env, guards)?),
                group_by: group_by.clone(),
                aggs: aggs.clone(),
                schema: schema.clone(),
            })
        }
        LogicalPlan::Sort { input, keys } => {
            let cc = cost_placed(input, db, cm, env, guards);
            Ok(PhysicalPlan::Sort {
                input: Box::new(build_local(input, db, cm, &cc, env, guards)?),
                keys: keys.clone(),
            })
        }
        LogicalPlan::Top { input, n } => {
            let cc = cost_placed(input, db, cm, env, guards);
            Ok(PhysicalPlan::Top {
                input: Box::new(build_local(input, db, cm, &cc, env, guards)?),
                n: *n,
            })
        }
        LogicalPlan::Distinct { input } => {
            let cc = cost_placed(input, db, cm, env, guards);
            Ok(PhysicalPlan::Distinct {
                input: Box::new(build_local(input, db, cm, &cc, env, guards)?),
            })
        }
        LogicalPlan::UnionAll {
            inputs,
            startup_predicates,
            schema,
            ..
        } => {
            let built: Vec<PhysicalPlan> = inputs
                .iter()
                .zip(startup_predicates)
                .map(|(i, sp)| {
                    // Inside a branch its startup predicate is pinned true:
                    // guarded peer placements become available there.
                    let branch_guards = extend_guards(guards, sp);
                    let cc = cost_placed(i, db, cm, env, &branch_guards);
                    build_local(i, db, cm, &cc, env, &branch_guards)
                })
                .collect::<Result<_>>()?;
            Ok(PhysicalPlan::UnionAll {
                inputs: built,
                startup_predicates: startup_predicates.clone(),
                schema: schema.clone(),
            })
        }
    }
}

/// Native-local cost (children delivered here, operator here) — the
/// alternative the Remote boundary competes against in [`build_local`].
fn recompute_native_local(
    plan: &LogicalPlan,
    db: &Database,
    cm: &CostModel,
    env: &PlacementEnv,
    guards: &[Expr],
) -> f64 {
    let rows = estimate_rows(plan, db);
    match plan {
        LogicalPlan::Get { object, location, .. } => {
            if object.is_empty() {
                0.1
            } else if *location == DataLocation::Local {
                cm.scan(rows)
            } else {
                INF
            }
        }
        LogicalPlan::Filter { input, predicate } => {
            if let LogicalPlan::Get {
                object,
                schema,
                location,
                ..
            } = &**input
            {
                if !object.is_empty() {
                    return if *location == DataLocation::Local {
                        best_access(db, object, schema, predicate, cm, input).cost
                    } else {
                        INF
                    };
                }
            }
            let c = cost_placed(input, db, cm, env, guards);
            c.local + cm.filter(c.rows)
        }
        LogicalPlan::Project { input, .. } => {
            let c = cost_placed(input, db, cm, env, guards);
            c.local + cm.project(c.rows)
        }
        LogicalPlan::Join {
            left,
            right,
            kind,
            on,
            ..
        } => {
            let l = cost_placed(left, db, cm, env, guards);
            let r = cost_placed(right, db, cm, env, guards);
            let op = if extract_equi_keys(on, left.schema(), right.schema()).is_some() {
                cm.hash_join(l.rows.min(r.rows), l.rows.max(r.rows), rows)
            } else {
                cm.nl_join(l.rows, r.rows, rows)
            };
            let mut local = l.local + r.local + op;
            for (outer_is_left, inner, _, _) in inlj_options(on, left, right, *kind, db) {
                let (outer_cost, outer_rows) = if outer_is_left {
                    (l.local, l.rows)
                } else {
                    (r.local, r.rows)
                };
                local = local.min(outer_cost + inlj_op_cost(cm, outer_rows, &inner, rows));
            }
            local
        }
        LogicalPlan::Aggregate { input, .. } => {
            if extreme_seek_pattern(plan, db).is_some() {
                cm.seek_cost
            } else {
                let c = cost_placed(input, db, cm, env, guards);
                c.local + cm.aggregate(c.rows, rows)
            }
        }
        LogicalPlan::Sort { input, .. } => {
            let c = cost_placed(input, db, cm, env, guards);
            c.local + cm.sort(c.rows)
        }
        LogicalPlan::Top { input, .. } => {
            let c = cost_placed(input, db, cm, env, guards);
            c.local + cm.filter(c.rows)
        }
        LogicalPlan::Distinct { input } => {
            let c = cost_placed(input, db, cm, env, guards);
            c.local + cm.aggregate(c.rows, rows)
        }
        LogicalPlan::UnionAll {
            inputs,
            startup_predicates,
            weights,
            ..
        } => inputs
            .iter()
            .zip(weights)
            .zip(startup_predicates)
            .map(|((i, w), sp)| {
                let branch_guards = extend_guards(guards, sp);
                w * cost_placed(i, db, cm, env, &branch_guards).local
            })
            .sum(),
    }
}

// ---------------------------------------------------------------------------
// Brute-force placement enumeration (test oracle)
// ---------------------------------------------------------------------------

/// Exhaustively enumerates every feasible (plan node → site) assignment —
/// including the index-nested-loop and extreme-seek strategy choices the DP
/// folds into its native-local arm — and returns the cheapest total cost of
/// delivering the root result here. `tests/placement_prop.rs` pins
/// `brute_force_local == cost_placed(..).local` on small plans, proving the
/// DP optimal over the assignment space it claims to search.
pub fn brute_force_local(
    plan: &LogicalPlan,
    db: &Database,
    cm: &CostModel,
    env: &PlacementEnv,
    guards: &[Expr],
) -> f64 {
    let rows = estimate_rows(plan, db);
    let width = estimate_width(plan);
    let mut best = INF;
    for (site, c) in bf_options(plan, db, cm, env, guards) {
        let total = c + bf_link(site, BF_HERE, rows, width, env);
        if total < best {
            best = total;
        }
    }
    best
}

/// Site encoding for the brute-force enumerator: 0 = here, `1..=P` = peer
/// `i-1`, `P+1` = backend.
const BF_HERE: usize = 0;

fn bf_backend(env: &PlacementEnv) -> usize {
    env.peers.len() + 1
}

/// DataTransfer cost of moving a result `from → to`, `INF` where no such
/// link exists (local data cannot leave this node; peers cannot talk to
/// each other; the backend pulls from nobody).
fn bf_link(from: usize, to: usize, rows: f64, width: f64, env: &PlacementEnv) -> f64 {
    if from == to {
        return 0.0;
    }
    let backend = bf_backend(env);
    if to == BF_HERE {
        if from == backend {
            return env.backend_link.transfer(rows, width);
        }
        return env.peers[from - 1].link.transfer(rows, width);
    }
    // Backend → peer: the peer pulls uncovered fragments itself.
    if from == backend && to != BF_HERE {
        return env.backend_link.transfer(rows, width);
    }
    INF
}

/// Every (site, cost) strategy for producing `plan`'s result *natively at
/// that site*, unminimized: one entry per combination of child strategies
/// and per local strategy alternative (standard vs INLJ vs extreme seek).
fn bf_options(
    plan: &LogicalPlan,
    db: &Database,
    cm: &CostModel,
    env: &PlacementEnv,
    guards: &[Expr],
) -> Vec<(usize, f64)> {
    let rows = estimate_rows(plan, db);
    let backend = bf_backend(env);
    let mut out: Vec<(usize, f64)> = Vec::new();

    // Shadow-table leaves (bare or with their fused Filter).
    let leaf = |object: &str, alias: &str, schema: &Schema, conjuncts: &[Expr],
                required: &[String], access_cost: f64, location: &DataLocation,
                out: &mut Vec<(usize, f64)>| {
        match location {
            DataLocation::Local => out.push((BF_HERE, access_cost)),
            DataLocation::Remote => {
                out.push((backend, access_cost * cm.remote_cost_factor));
                let costs = peer_leaf_costs(object, alias, schema, conjuncts, required, env, cm, guards);
                for (i, c) in costs.into_iter().enumerate() {
                    if c.is_finite() {
                        out.push((1 + i, c));
                    }
                }
            }
        }
    };

    match plan {
        LogicalPlan::Get {
            object,
            alias,
            schema,
            location,
        } => {
            if object.is_empty() {
                out.push((BF_HERE, 0.1));
            } else {
                leaf(
                    object,
                    alias,
                    schema,
                    &[],
                    &full_required(schema),
                    cm.scan(rows),
                    location,
                    &mut out,
                );
            }
        }
        LogicalPlan::Filter { input, predicate } => {
            if let LogicalPlan::Get {
                object,
                alias,
                schema,
                location,
            } = &**input
            {
                if !object.is_empty() {
                    let access = best_access(db, object, schema, predicate, cm, input);
                    let conjuncts: Vec<Expr> =
                        predicate.split_conjuncts().into_iter().cloned().collect();
                    leaf(
                        object,
                        alias,
                        schema,
                        &conjuncts,
                        &full_required(schema),
                        access.cost,
                        location,
                        &mut out,
                    );
                    return bf_gate(plan, out);
                }
            }
            let c = cost_placed(input, db, cm, env, guards);
            bf_unary(input, cm.filter(c.rows), db, cm, env, guards, &mut out);
        }
        LogicalPlan::Project { input, exprs, .. } => {
            let c = cost_placed(input, db, cm, env, guards);
            let op = cm.project(c.rows);
            bf_unary(input, op, db, cm, env, guards, &mut out);
            // Mirror the DP's pruning-Project fusion: the narrowed column
            // requirement may unlock peer matches the bare leaf lacks.
            if let Some((object, alias, schema, conjuncts)) = shadow_leaf(input) {
                let required = project_required(exprs, &conjuncts, schema);
                let costs =
                    peer_leaf_costs(object, alias, schema, &conjuncts, &required, env, cm, guards);
                for (i, leaf_cost) in costs.into_iter().enumerate() {
                    if leaf_cost.is_finite() {
                        out.push((1 + i, leaf_cost + op * cm.peer_cost_factor));
                    }
                }
            }
        }
        LogicalPlan::Join {
            left,
            right,
            kind,
            on,
            ..
        } => {
            let l = cost_placed(left, db, cm, env, guards);
            let r = cost_placed(right, db, cm, env, guards);
            let op = if extract_equi_keys(on, left.schema(), right.schema()).is_some() {
                cm.hash_join(l.rows.min(r.rows), l.rows.max(r.rows), rows)
            } else {
                cm.nl_join(l.rows, r.rows, rows)
            };
            let lo = bf_options(left, db, cm, env, guards);
            let ro = bf_options(right, db, cm, env, guards);
            for s in 0..=backend {
                let factor = bf_factor(s, backend, cm);
                for (ls, lcost) in &lo {
                    let ldel = lcost + bf_link(*ls, s, l.rows, l.width, env);
                    for (rs, rcost) in &ro {
                        let rdel = rcost + bf_link(*rs, s, r.rows, r.width, env);
                        out.push((s, op * factor + ldel + rdel));
                    }
                }
            }
            // INLJ alternatives exist here only: the inner side is replaced
            // by index seeks against a local table (never executed as an
            // assigned fragment).
            for (outer_is_left, inner, _, _) in inlj_options(on, left, right, *kind, db) {
                let (opts, oc) = if outer_is_left { (&lo, &l) } else { (&ro, &r) };
                for (os, ocost) in opts {
                    let delivered = ocost + bf_link(*os, BF_HERE, oc.rows, oc.width, env);
                    out.push((BF_HERE, delivered + inlj_op_cost(cm, oc.rows, &inner, rows)));
                }
            }
        }
        LogicalPlan::Aggregate { input, .. } => {
            if extreme_seek_pattern(plan, db).is_some() {
                out.push((BF_HERE, cm.seek_cost));
            } else {
                let c = cost_placed(input, db, cm, env, guards);
                bf_unary(input, cm.aggregate(c.rows, rows), db, cm, env, guards, &mut out);
            }
        }
        LogicalPlan::Sort { input, .. } => {
            let c = cost_placed(input, db, cm, env, guards);
            bf_unary(input, cm.sort(c.rows), db, cm, env, guards, &mut out);
        }
        LogicalPlan::Top { input, .. } => {
            let c = cost_placed(input, db, cm, env, guards);
            bf_unary(input, cm.filter(c.rows), db, cm, env, guards, &mut out);
        }
        LogicalPlan::Distinct { input } => {
            let c = cost_placed(input, db, cm, env, guards);
            bf_unary(input, cm.aggregate(c.rows, rows), db, cm, env, guards, &mut out);
        }
        LogicalPlan::UnionAll {
            inputs,
            startup_predicates,
            weights,
            ..
        } => {
            // Branch costs are independent (exactly one opens at run time):
            // enumerate each branch separately and sum the weighted minima
            // of delivered-here costs.
            let mut total = 0.0;
            for ((i, w), sp) in inputs.iter().zip(weights).zip(startup_predicates) {
                let branch_guards = extend_guards(guards, sp);
                let brows = estimate_rows(i, db);
                let bwidth = estimate_width(i);
                let mut best = INF;
                for (s, c) in bf_options(i, db, cm, env, &branch_guards) {
                    best = best.min(c + bf_link(s, BF_HERE, brows, bwidth, env));
                }
                total += w * best;
            }
            out.push((BF_HERE, total));
        }
    }
    bf_gate(plan, out)
}

/// Operator cost multiplier at a site.
fn bf_factor(site: usize, backend: usize, cm: &CostModel) -> f64 {
    if site == BF_HERE {
        1.0
    } else if site == backend {
        cm.remote_cost_factor
    } else {
        cm.peer_cost_factor
    }
}

/// Unary-operator strategy fan-out: each child strategy delivered to each
/// evaluation site.
#[allow(clippy::too_many_arguments)]
fn bf_unary(
    input: &LogicalPlan,
    op: f64,
    db: &Database,
    cm: &CostModel,
    env: &PlacementEnv,
    guards: &[Expr],
    out: &mut Vec<(usize, f64)>,
) {
    let c = cost_placed(input, db, cm, env, guards);
    let backend = bf_backend(env);
    let child = bf_options(input, db, cm, env, guards);
    for s in 0..=backend {
        let factor = bf_factor(s, backend, cm);
        for (cs, ccost) in &child {
            let delivered = ccost + bf_link(*cs, s, c.rows, c.width, env);
            out.push((s, op * factor + delivered));
        }
    }
}

/// Applies the DP's shippability gate: a strategy evaluated off this node
/// requires the subtree to decompile to one SQL statement.
fn bf_gate(plan: &LogicalPlan, mut out: Vec<(usize, f64)>) -> Vec<(usize, f64)> {
    if !sqlgen::shippable(plan) {
        out.retain(|(s, _)| *s == BF_HERE);
    }
    out.retain(|(_, c)| c.is_finite());
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::binder::bind_select;
    use crate::optimizer::pushdown::push_filters;
    use mtc_sql::{parse_statement, Statement};
    use mtc_types::{row, Column, DataType};

    /// Cache-server-style database: shadow `customer`, local `cust1000`.
    fn cache_db() -> Database {
        let mut backend = Database::new("d");
        backend
            .create_table(
                "customer",
                Schema::new(vec![
                    Column::not_null("cid", DataType::Int),
                    Column::new("cname", DataType::Str),
                ]),
                &["cid".into()],
            )
            .unwrap();
        let rows: Vec<_> = (1..=10_000)
            .map(|i| mtc_storage::RowChange::Insert {
                table: "customer".into(),
                row: row![i, format!("c{i}")],
            })
            .collect();
        backend.apply(0, rows).unwrap();
        backend.analyze();
        let mut cache = backend.shadow_clone();
        // Local cached view backing table.
        cache
            .create_table(
                "cust1000",
                Schema::new(vec![
                    Column::not_null("cid", DataType::Int),
                    Column::new("cname", DataType::Str),
                ]),
                &["cid".into()],
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
        cache
    }

    fn logical(db: &Database, sql: &str) -> LogicalPlan {
        let Statement::Select(sel) = parse_statement(sql).unwrap() else {
            panic!()
        };
        push_filters(bind_select(&sel, db).unwrap())
    }

    #[test]
    fn shadow_scan_goes_remote() {
        let db = cache_db();
        let cm = CostModel::default();
        let plan = logical(&db, "SELECT cid FROM customer WHERE cid <= 10");
        let phys = build(&plan, &db, &cm).unwrap();
        assert!(phys.uses_remote(), "{}", phys.explain());
        assert!(!phys.uses_local_data());
        // The whole query ships as one SQL statement.
        let PhysicalPlan::Remote { sql, .. } = &phys else {
            panic!("expected full remote plan: {}", phys.explain());
        };
        assert!(sql.contains("WHERE"), "{sql}");
    }

    #[test]
    fn local_table_stays_local() {
        let db = cache_db();
        let cm = CostModel::default();
        let plan = logical(&db, "SELECT cid FROM cust1000 WHERE cid <= 10");
        let phys = build(&plan, &db, &cm).unwrap();
        assert!(!phys.uses_remote(), "{}", phys.explain());
        // Clustered seek chosen for the PK range.
        assert!(
            phys.explain().contains("ClusteredSeek"),
            "{}",
            phys.explain()
        );
    }

    #[test]
    fn secondary_index_seek_chosen_when_cheaper() {
        let mut db = cache_db();
        db.create_index("ix_cname", "cust1000", &["cname".into()], false)
            .unwrap();
        db.analyze_table("cust1000");
        let cm = CostModel::default();
        let plan = logical(&db, "SELECT cid FROM cust1000 WHERE cname = 'c5'");
        let phys = build(&plan, &db, &cm).unwrap();
        assert!(
            phys.explain().contains("IndexSeek cust1000.ix_cname"),
            "{}",
            phys.explain()
        );
    }

    #[test]
    fn cost_prefers_local_view_over_remote_table() {
        let db = cache_db();
        let cm = CostModel::default();
        let local = logical(&db, "SELECT cid FROM cust1000 WHERE cid <= 100");
        let remote = logical(&db, "SELECT cid FROM customer WHERE cid <= 100");
        let cl = cost(&local, &db, &cm);
        let cr = cost(&remote, &db, &cm);
        assert!(
            cl.local < cr.local,
            "local view ({}) should beat remote table ({})",
            cl.local,
            cr.local
        );
    }

    #[test]
    fn transfer_cost_grows_with_volume() {
        let db = cache_db();
        let cm = CostModel::default();
        let narrow = logical(&db, "SELECT cid FROM customer WHERE cid <= 10");
        let wide = logical(&db, "SELECT cid FROM customer");
        let cn = cost(&narrow, &db, &cm);
        let cw = cost(&wide, &db, &cm);
        assert!(cn.local < cw.local);
    }

    #[test]
    fn cartesian_product_ships_tables_and_joins_locally() {
        // The paper's extreme example (§5): shipping two tables and joining
        // locally beats shipping the much larger cross product.
        let mut db = cache_db();
        db.create_table(
            "small",
            Schema::new(vec![Column::not_null("k", DataType::Int)]),
            &["k".into()],
        )
        .unwrap();
        let rows: Vec<_> = (1..=2000)
            .map(|i| mtc_storage::RowChange::Insert {
                table: "small".into(),
                row: row![i],
            })
            .collect();
        db.apply(0, rows).unwrap();
        db.analyze_table("small");
        // Make `small` a shadow too so both sides are remote.
        let db = {
            let mut b = Database::new("d2");
            b.create_table(
                "a",
                Schema::new(vec![Column::not_null("x", DataType::Int)]),
                &["x".into()],
            )
            .unwrap();
            b.create_table(
                "b",
                Schema::new(vec![Column::not_null("y", DataType::Int)]),
                &["y".into()],
            )
            .unwrap();
            let rows: Vec<_> = (1..=3000)
                .flat_map(|i| {
                    vec![
                        mtc_storage::RowChange::Insert {
                            table: "a".into(),
                            row: row![i],
                        },
                        mtc_storage::RowChange::Insert {
                            table: "b".into(),
                            row: row![i],
                        },
                    ]
                })
                .collect();
            b.apply(0, rows).unwrap();
            b.analyze();
            b.shadow_clone()
        };
        let cm = CostModel::default();
        let plan = logical(&db, "SELECT a.x, b.y FROM a, b");
        let phys = build(&plan, &db, &cm).unwrap();
        let text = phys.explain();
        // Two Remote leaves (one per table), join executed locally.
        let remote_count = text.matches("Remote").count();
        assert_eq!(remote_count, 2, "{text}");
    }

    #[test]
    fn tiny_outer_join_uses_index_nested_loops() {
        // A 3-row local "cart" joined with the 1000-row local cust1000 on
        // its clustering key must become an IndexNlJoin, not a hash join
        // over a full scan.
        let mut db = cache_db();
        db.create_table(
            "cart",
            Schema::new(vec![
                Column::not_null("line", DataType::Int),
                Column::not_null("ckey", DataType::Int),
            ]),
            &["line".into()],
        )
        .unwrap();
        db.apply(
            0,
            (1..=3)
                .map(|i| mtc_storage::RowChange::Insert {
                    table: "cart".into(),
                    row: row![i, i * 100],
                })
                .collect(),
        )
        .unwrap();
        db.analyze_table("cart");
        let cm = CostModel::default();
        let plan = logical(
            &db,
            "SELECT c.line, v.cname FROM cart AS c, cust1000 AS v WHERE c.ckey = v.cid",
        );
        let phys = build(&plan, &db, &cm).unwrap();
        let text = phys.explain();
        assert!(text.contains("IndexNlJoin"), "{text}");
        // Execute and verify correctness against expected matches.
        let params = crate::eval::Bindings::new();
        let ctx = crate::exec::ExecContext {
            db: &db,
            remote: None,
            params: &params,
            work: &cm,
            parallel: None,
        };
        let r = crate::exec::execute(&phys, &ctx).unwrap();
        assert_eq!(r.rows.len(), 3);
        assert_eq!(r.rows[0][1], mtc_types::Value::str("c100"));
    }

    #[test]
    fn inlj_left_join_null_extends() {
        let mut db = cache_db();
        db.create_table(
            "cart",
            Schema::new(vec![Column::not_null("ckey", DataType::Int)]),
            &["ckey".into()],
        )
        .unwrap();
        db.apply(
            0,
            vec![
                mtc_storage::RowChange::Insert {
                    table: "cart".into(),
                    row: row![5],
                },
                mtc_storage::RowChange::Insert {
                    table: "cart".into(),
                    row: row![999_999], // no matching cust1000 row
                },
            ],
        )
        .unwrap();
        db.analyze_table("cart");
        let cm = CostModel::default();
        let plan = logical(
            &db,
            "SELECT c.ckey, v.cname FROM cart AS c LEFT JOIN cust1000 AS v ON c.ckey = v.cid",
        );
        let phys = build(&plan, &db, &cm).unwrap();
        assert!(phys.explain().contains("IndexNlJoin"), "{}", phys.explain());
        let params = crate::eval::Bindings::new();
        let ctx = crate::exec::ExecContext {
            db: &db,
            remote: None,
            params: &params,
            work: &cm,
            parallel: None,
        };
        let mut rows = crate::exec::execute(&phys, &ctx).unwrap().rows;
        rows.sort();
        assert_eq!(rows.len(), 2);
        assert_eq!(rows[0][1], mtc_types::Value::str("c5"));
        assert_eq!(rows[1][1], mtc_types::Value::Null);
    }

    #[test]
    fn large_outer_still_prefers_hash_join() {
        let db = cache_db();
        let cm = CostModel::default();
        // Joining two large sides: per-row seeks would cost more than one
        // hash build.
        let plan = logical(
            &db,
            "SELECT a.cname FROM cust1000 AS a, cust1000 AS b WHERE a.cid = b.cid",
        );
        let phys = build(&plan, &db, &cm).unwrap();
        assert!(
            phys.explain().contains("HashJoin"),
            "{}",
            phys.explain()
        );
    }

    #[test]
    fn min_max_of_clustering_key_uses_extreme_seek() {
        let db = cache_db();
        let cm = CostModel::default();
        // cust1000 is local with a single-column PK.
        let plan = logical(&db, "SELECT MAX(cid) AS m FROM cust1000");
        let phys = build(&plan, &db, &cm).unwrap();
        assert!(
            phys.explain().contains("ExtremeSeek cust1000 (MAX)"),
            "{}",
            phys.explain()
        );
        let plan = logical(&db, "SELECT MIN(cid) AS m FROM cust1000");
        let phys = build(&plan, &db, &cm).unwrap();
        assert!(phys.explain().contains("(MIN)"), "{}", phys.explain());
        // Non-key column: no fast path.
        let plan = logical(&db, "SELECT MAX(cname) AS m FROM cust1000");
        let phys = build(&plan, &db, &cm).unwrap();
        assert!(
            phys.explain().contains("HashAggregate"),
            "{}",
            phys.explain()
        );
        // Filtered input: no fast path (bounds change the extreme).
        let plan = logical(&db, "SELECT MAX(cid) AS m FROM cust1000 WHERE cname = 'c5'");
        let phys = build(&plan, &db, &cm).unwrap();
        assert!(!phys.explain().contains("ExtremeSeek"), "{}", phys.explain());
    }

    #[test]
    fn extreme_seek_is_much_cheaper_than_scan_aggregate() {
        let db = cache_db();
        let cm = CostModel::default();
        let fast = cost(&logical(&db, "SELECT MAX(cid) AS m FROM cust1000"), &db, &cm);
        let slow = cost(
            &logical(&db, "SELECT MAX(cname) AS m FROM cust1000"),
            &db,
            &cm,
        );
        assert!(fast.local * 20.0 < slow.local, "{} vs {}", fast.local, slow.local);
    }

    #[test]
    fn equi_key_extraction() {
        let left = Schema::new(vec![Column::new("a.x", DataType::Int)]);
        let right = Schema::new(vec![Column::new("b.y", DataType::Int)]);
        let on = Some(mtc_sql::parse_expression("a.x = b.y").unwrap());
        let (lk, rk, residual) = extract_equi_keys(&on, &left, &right).unwrap();
        assert_eq!(lk[0].to_string(), "a.x");
        assert_eq!(rk[0].to_string(), "b.y");
        assert!(residual.is_none());

        let on = Some(mtc_sql::parse_expression("a.x = b.y AND a.x > 5").unwrap());
        let (_, _, residual) = extract_equi_keys(&on, &left, &right).unwrap();
        assert_eq!(residual.unwrap().to_string(), "a.x > 5");
    }
}
