//! Multi-site DataLocation assignment: one placement pass, one backtrack.
//!
//! [`place`] visits every logical node once, bottom-up, and returns a
//! [`Placed`] tree: per node a **per-site cost vector** over
//! `site ∈ {this node, each cache peer with relevant cached views, backend}`
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
//! — plus the decisions that produced it: the native-local strategy the
//! pass priced (access path, join algorithm, extreme seek) and, where
//! shipping the whole subtree beats it, the winning site.
//!
//! Data only ever flows *toward* this node: textual SQL cannot reference
//! another node's cache-only objects, so there is no Local→Remote or
//! Peer→Peer enforcer. The feasible links are `backend→here`, `peer→here`
//! and `backend→peer`, each with its own [`LinkCost`].
//!
//! The root demands `local`. [`Placed::build`] then reads the physical plan
//! out of the annotation: wherever the pass recorded a winning ship site the
//! plan gets a [`PhysicalPlan::Remote`] boundary holding the shipped SQL
//! text and that [`RemoteSite`]; everywhere else the recorded strategy over
//! the built children. It takes no catalog, cost model or environment, so
//! it cannot re-derive a decision — the pass is the only place one is made.

use std::cell::{Cell, RefCell};
use std::rc::Rc;

use mtc_sql::{BinOp, Expr, JoinKind};
use mtc_storage::Database;
use mtc_types::{Error, Result, Schema};

use crate::logical::{DataLocation, LogicalPlan};
use crate::optimizer::access::{extreme_seek_pattern, inlj_op_cost, inlj_options, InljInner};
use crate::optimizer::cardinality::{estimate_rows, estimate_width, node_rows};
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
    /// Memoized shadow-leaf probes. One `optimize` places several candidate
    /// plans (reordered, pulled-up, placement ChoosePlans) that share their
    /// leaves; a probe is pure for the life of the env (peer snapshots are
    /// pinned), so each distinct leaf is matched against the peers' views
    /// once. A handful of entries per statement: a linear scan, no key to
    /// build.
    probes: RefCell<Vec<Rc<LeafProbe>>>,
    /// Logical nodes [`place`] has visited under this env: what a planning
    /// change costs, counted instead of timed.
    visits: Cell<u64>,
}

/// Every view of every peer that can answer one shadow leaf (a bare `Get`
/// or the fused `Filter(Get)`), with the arguments it was probed for.
struct LeafProbe {
    /// `peers` is a pub Vec callers may grow between planning passes, so a
    /// probe is only valid for the exact peer list it was run against.
    peer_names: Vec<String>,
    object: String,
    alias: String,
    conjuncts: Vec<Expr>,
    required: Vec<String>,
    /// Parallel to `peer_names`, in `match_views` order.
    views: Vec<Vec<PeerView>>,
}

/// One peer view matching a shadow leaf.
struct PeerView {
    name: Rc<str>,
    /// The parameter guard the match holds under and its estimated
    /// probability; `None` = unconditional.
    guard: Option<(Expr, f64)>,
    /// Native cost of answering the leaf from the view at the peer.
    cost: f64,
}

impl PlacementEnv<'_> {
    /// The classic two-site environment: no peers, backend link straight
    /// from the cost model's DataTransfer knobs.
    pub fn two_site(cm: &CostModel) -> PlacementEnv<'static> {
        PlacementEnv {
            peers: Vec::new(),
            backend_link: cm.backend_link(),
            probes: Default::default(),
            visits: Default::default(),
        }
    }
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

/// The placement pass's record for one logical node; `children` mirror the
/// logical children the pass descended into.
pub(crate) struct Placed {
    pub(crate) costs: Costs,
    /// The site the whole subtree ships from, when that beats executing the
    /// node here (ties break toward local execution, as the paper's cost
    /// tweak intends).
    shipped: Option<RemoteSite>,
    /// How the node executes here otherwise.
    strategy: Strategy,
    /// Per peer, the cached view a shadow leaf (or a pruning Project over
    /// one) matched there — what EXPLAIN names on a peer boundary. Empty on
    /// every other node.
    leaf_views: Vec<Option<Rc<str>>>,
    /// Empty where the node was priced whole (a fused `Filter(Get)`, an
    /// extreme seek).
    children: Vec<Placed>,
}

/// The native-local strategy the pass priced for a node.
enum Strategy {
    /// The node's own operator over its built children: a bare scan,
    /// Filter, Project, HashAggregate, Sort, Top, Distinct, UnionAll — and
    /// the nested-loop join of a Join without equi keys.
    Operator,
    /// `Filter(Get)` fused into one access path.
    Access(Access),
    /// MIN/MAX of the clustering key: one B-tree descent.
    ExtremeSeek {
        object: String,
        key_index: usize,
        is_max: bool,
    },
    HashJoin {
        left_keys: Vec<Expr>,
        right_keys: Vec<Expr>,
        residual: Option<Expr>,
        /// Build on the logical LEFT input (it is the smaller side).
        swap: bool,
    },
    /// Index nested loops: per-outer-row seeks replace the inner scan.
    IndexNlJoin {
        outer_is_left: bool,
        inner: InljInner,
        outer_key: Expr,
        inner_key: Expr,
    },
}

/// Computes the two-site (local/backend) cost of a subtree — the classic
/// MTCache lattice, used everywhere a single node plans for itself.
pub fn cost(plan: &LogicalPlan, db: &Database, cm: &CostModel) -> Costs {
    cost_placed(plan, db, cm, &PlacementEnv::two_site(cm), &[])
}

/// Computes the per-site cost vector of a subtree under a placement
/// environment (see [`place`] for `guards`).
pub fn cost_placed(
    plan: &LogicalPlan,
    db: &Database,
    cm: &CostModel,
    env: &PlacementEnv,
    guards: &[Expr],
) -> Costs {
    place(plan, db, cm, env, guards).costs
}

/// The placement pass: one bottom-up visit per logical node, recording its
/// per-site costs and the decisions behind them. `guards` is the
/// conjunction of ChoosePlan startup predicates pinned true on the path
/// from the root — a peer's *guarded* view match is only usable inside the
/// branch that guarantees its guard.
pub(crate) fn place(
    plan: &LogicalPlan,
    db: &Database,
    cm: &CostModel,
    env: &PlacementEnv,
    guards: &[Expr],
) -> Placed {
    env.visits.set(env.visits.get() + 1);
    let n_peers = env.peers.len();
    let here_only = |cost: f64| (cost, INF, vec![INF; n_peers]);
    let mut strategy = Strategy::Operator;
    let mut leaf_views = Vec::new();
    let mut children = Vec::new();
    let rows;
    // Native costs: (here, backend, peer 0..).
    let (native_local, native_remote, mut peers) = if let Some(leaf) = scan_leaf(plan) {
        rows = estimate_rows(plan, db);
        let cost = match leaf.predicate {
            None => cm.scan(rows),
            // Fuse access-path selection with a Filter directly over a Get.
            Some(predicate) => {
                let access = best_access(db, leaf.object, predicate, cm, leaf.get);
                let cost = access.cost;
                strategy = Strategy::Access(access);
                cost
            }
        };
        match leaf.location {
            DataLocation::Local => here_only(cost),
            DataLocation::Remote => {
                let required = full_required(leaf.schema);
                let (peers, views) = peer_leaf_matches(&leaf, &required, env, cm, guards);
                leaf_views = views;
                (INF, cost * cm.remote_cost_factor, peers)
            }
        }
    } else if let Some((object, key_index, is_max)) = extreme_seek_pattern(plan, db) {
        rows = estimate_rows(plan, db);
        strategy = Strategy::ExtremeSeek {
            object: object.to_string(),
            key_index,
            is_max,
        };
        here_only(cm.seek_cost)
    } else {
        children = match plan {
            // Each branch's startup predicate is pinned true inside it,
            // which may unlock guarded peer-view matches there.
            LogicalPlan::UnionAll {
                inputs,
                startup_predicates,
                ..
            } => inputs
                .iter()
                .zip(startup_predicates)
                .map(|(i, sp)| place(i, db, cm, env, &extend_guards(guards, sp)))
                .collect(),
            _ => plan
                .children()
                .into_iter()
                .map(|c| place(c, db, cm, env, guards))
                .collect(),
        };
        let child_rows: Vec<f64> = children.iter().map(|c: &Placed| c.costs.rows).collect();
        rows = node_rows(plan, &child_rows, db);
        match plan {
            // Only the FROM-less `SELECT`: every other Get is a scan leaf.
            LogicalPlan::Get { .. } => here_only(0.1),
            LogicalPlan::UnionAll { weights, .. } => {
                // §5.1 weighted costing: Σ wᵢ·Cᵢ over guarded branches.
                let mut total = 0.0;
                for (branch, w) in children.iter().zip(weights) {
                    total += w * branch.costs.local;
                }
                here_only(total)
            }
            // Every other operator runs at one site over its children
            // delivered there; the operators differ in their cost alone.
            _ => {
                let op = match plan {
                    LogicalPlan::Project { .. } => cm.project(child_rows[0]),
                    LogicalPlan::Sort { .. } => cm.sort(child_rows[0]),
                    LogicalPlan::Aggregate { .. } | LogicalPlan::Distinct { .. } => {
                        cm.aggregate(child_rows[0], rows)
                    }
                    LogicalPlan::Join {
                        left,
                        right,
                        kind,
                        on,
                        ..
                    } => {
                        let (l, r) = (child_rows[0], child_rows[1]);
                        match extract_equi_keys(on, left.schema(), right.schema()) {
                            // The executor builds its hash table on the RIGHT
                            // input: put the smaller (estimated) side there.
                            // Swapping an inner/cross join flips the output
                            // column order, which is fine — everything
                            // upstream resolves columns by name against the
                            // node's schema.
                            Some((left_keys, right_keys, residual)) => {
                                strategy = Strategy::HashJoin {
                                    left_keys,
                                    right_keys,
                                    residual,
                                    swap: l < r
                                        && matches!(kind, JoinKind::Inner | JoinKind::Cross),
                                };
                                cm.hash_join(l.min(r), l.max(r), rows)
                            }
                            None => cm.nl_join(l, r, rows),
                        }
                    }
                    LogicalPlan::Filter { .. } | LogicalPlan::Top { .. } => {
                        cm.filter(child_rows[0])
                    }
                    LogicalPlan::Get { .. } | LogicalPlan::UnionAll { .. } => {
                        unreachable!("priced by the arms above")
                    }
                };
                let kids = || children.iter().map(|c: &Placed| &c.costs);
                let mut local = kids().map(|c| c.local).sum::<f64>() + op;
                let remote = kids().map(|c| c.remote).sum::<f64>() + op * cm.remote_cost_factor;
                let mut peers: Vec<f64> = (0..n_peers)
                    .map(|p| {
                        kids().fold(op * cm.peer_cost_factor, |at_peer, c| {
                            at_peer + delivered_at_peer(c, p, env)
                        })
                    })
                    .collect();
                match plan {
                    // Index nested-loop alternatives skip the inner side's
                    // scan entirely: cost = outer subtree + per-outer-row
                    // seeks.
                    LogicalPlan::Join {
                        left,
                        right,
                        kind,
                        on,
                        ..
                    } => {
                        for (outer_is_left, inner, outer_key, inner_key) in
                            inlj_options(on, left, right, *kind, db)
                        {
                            let outer = &children[if outer_is_left { 0 } else { 1 }].costs;
                            let total = outer.local + inlj_op_cost(cm, outer.rows, &inner, rows);
                            if total < local {
                                local = total;
                                strategy = Strategy::IndexNlJoin {
                                    outer_is_left,
                                    inner,
                                    outer_key,
                                    inner_key,
                                };
                            }
                        }
                    }
                    // A column-pruning Project over a shadow leaf narrows
                    // what a peer's view must provide.
                    LogicalPlan::Project { .. } => {
                        if let Some((leaf, required)) = pruned_shadow_leaf(plan) {
                            let (leaf_costs, views) =
                                peer_leaf_matches(&leaf, &required, env, cm, guards);
                            for (i, leaf_cost) in leaf_costs.into_iter().enumerate() {
                                peers[i] = peers[i].min(leaf_cost + op * cm.peer_cost_factor);
                            }
                            leaf_views = views;
                        }
                    }
                    _ => {}
                }
                (local, remote, peers)
            }
        }
    };

    // A site other than here is only usable if the subtree can ship as SQL
    // (not worth decompiling it when no other site is feasible anyway).
    let elsewhere = native_remote.is_finite() || peers.iter().any(|p| p.is_finite());
    let ship = elsewhere && sqlgen::shippable(plan);
    let native_remote = if ship { native_remote } else { INF };
    if !ship {
        peers.fill(INF);
    }
    // DataTransfer enforcers: cheapest delivery here over all sites,
    // remembering which site it was.
    let width = estimate_width(plan);
    let mut best_shipped = native_remote + env.backend_link.transfer(rows, width);
    let mut best_peer = None;
    for (i, p) in env.peers.iter().enumerate() {
        let total = peers[i] + p.link.transfer(rows, width);
        if total < best_shipped {
            best_shipped = total;
            best_peer = Some(i);
        }
    }
    let shipped = (best_shipped < native_local).then(|| match best_peer {
        None => RemoteSite::Backend,
        Some(i) => RemoteSite::Peer {
            node: env.peers[i].name.clone(),
            view: views_at_peer(&leaf_views, &children, i),
        },
    });
    Placed {
        costs: Costs {
            local: native_local.min(best_shipped),
            remote: native_remote,
            peers,
            rows,
            width,
        },
        shipped,
        strategy,
        leaf_views,
        children,
    }
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
fn project_required(exprs: &[(Expr, String)], conjuncts: &[Expr], schema: &Schema) -> Vec<String> {
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

/// A base-object scan the pass prices whole: a bare `Get` of a catalog
/// object, or the fused `Filter(Get)`.
pub(crate) struct ScanLeaf<'a> {
    get: &'a LogicalPlan,
    pub(crate) object: &'a str,
    pub(crate) alias: &'a str,
    pub(crate) schema: &'a Schema,
    location: DataLocation,
    predicate: Option<&'a Expr>,
}

impl ScanLeaf<'_> {
    /// A shadow table: data on the backend, possibly in a peer's view.
    fn is_shadow(&self) -> bool {
        self.location == DataLocation::Remote
    }

    pub(crate) fn conjuncts(&self) -> Vec<Expr> {
        self.predicate
            .map(|p| p.split_conjuncts().into_iter().cloned().collect())
            .unwrap_or_default()
    }
}

pub(crate) fn scan_leaf(plan: &LogicalPlan) -> Option<ScanLeaf<'_>> {
    let (get, predicate) = match plan {
        LogicalPlan::Filter { input, predicate } => (&**input, Some(predicate)),
        other => (other, None),
    };
    match get {
        LogicalPlan::Get {
            object,
            alias,
            schema,
            location,
        } if !object.is_empty() => Some(ScanLeaf {
            get,
            object,
            alias,
            schema,
            location: *location,
            predicate,
        }),
        _ => None,
    }
}

/// Probes every peer's cached views for rewrites of a shadow leaf.
/// `required` is the set of leaf columns the fragment above consumes.
fn probe_leaf(
    leaf: &ScanLeaf,
    required: &[String],
    env: &PlacementEnv,
    cm: &CostModel,
) -> Rc<LeafProbe> {
    let (object, alias) = (leaf.object, leaf.alias);
    let conjuncts = leaf.predicate.map_or(Vec::new(), Expr::split_conjuncts);
    if let Some(hit) = env.probes.borrow().iter().find(|m| {
        m.object == object
            && m.alias == alias
            && m.conjuncts.iter().eq(conjuncts.iter().copied())
            && m.required == required
            && m.peer_names.iter().eq(env.peers.iter().map(|p| &p.name))
    }) {
        return hit.clone();
    }
    let conjuncts: Vec<Expr> = conjuncts.into_iter().cloned().collect();
    let opts = MatchOptions {
        enable_dynamic_plans: true,
        allow_mixed_results: false,
    };
    let views = env
        .peers
        .iter()
        .map(|site| {
            view_match::match_views(
                site.db,
                object,
                alias,
                leaf.schema,
                &conjuncts,
                required,
                opts,
            )
            .into_iter()
            .filter_map(|m| {
                // Guarded matches expose the view-backed branch as
                // inputs[0] of their ChoosePlan.
                let branch = match (&m.guard, &m.plan) {
                    (None, plan) => plan,
                    (Some(_), LogicalPlan::UnionAll { inputs, .. }) => &inputs[0],
                    _ => return None,
                };
                Some(PeerView {
                    cost: cost(branch, site.db, cm).local * cm.peer_cost_factor,
                    guard: m.guard.map(|g| (g, m.guard_probability)),
                    name: m.view_name.into(),
                })
            })
            .collect()
        })
        .collect();
    let probe = Rc::new(LeafProbe {
        peer_names: env.peers.iter().map(|p| p.name.clone()).collect(),
        object: object.to_string(),
        alias: alias.to_string(),
        conjuncts,
        required: required.to_vec(),
        views,
    });
    env.probes.borrow_mut().push(probe.clone());
    probe
}

/// Each peer's cheapest usable view rewrite for a shadow leaf (parallel to
/// `env.peers`; empty without peers): unconditional matches always qualify;
/// guarded matches only inside a ChoosePlan branch that pins the guard
/// true. Returns the cost vector (`INF` where no view covers the leaf) and
/// the matched view names.
fn peer_leaf_matches(
    leaf: &ScanLeaf,
    required: &[String],
    env: &PlacementEnv,
    cm: &CostModel,
    guards: &[Expr],
) -> (Vec<f64>, Vec<Option<Rc<str>>>) {
    if env.peers.is_empty() {
        return (Vec::new(), Vec::new());
    }
    probe_leaf(leaf, required, env, cm)
        .views
        .iter()
        .map(|views| {
            let mut best: Option<&PeerView> = None;
            for v in views {
                let usable = v
                    .guard
                    .as_ref()
                    .is_none_or(|(g, _)| guard_active(g, guards));
                if usable && best.is_none_or(|b| v.cost < b.cost) {
                    best = Some(v);
                }
            }
            match best {
                Some(v) => (v.cost, Some(v.name.clone())),
                None => (INF, None),
            }
        })
        .unzip()
}

/// The shadow leaf under a column-pruning Project, with the leaf columns the
/// Project (and the leaf's own filter) consumes: `SELECT a, b FROM t WHERE p`
/// can be answered from a peer's view that lacks t's other columns, though
/// the bare leaf (which outputs every column) cannot.
fn pruned_shadow_leaf(plan: &LogicalPlan) -> Option<(ScanLeaf<'_>, Vec<String>)> {
    let LogicalPlan::Project { input, exprs, .. } = plan else {
        return None;
    };
    let leaf = scan_leaf(input).filter(ScanLeaf::is_shadow)?;
    let required = project_required(exprs, &leaf.conjuncts(), leaf.schema);
    Some((leaf, required))
}

/// Every distinct parameter guard under which some peer's cached view
/// answers `plan` — a shadow leaf, or a column-pruning Project over one,
/// probed for the columns [`place`] prices the same node with — and the
/// guard's estimated probability, in peer order. What placement ChoosePlan
/// synthesis asks per node.
pub(crate) fn guarded_peer_matches(
    plan: &LogicalPlan,
    env: &PlacementEnv,
    cm: &CostModel,
) -> Vec<(Expr, f64)> {
    let Some((leaf, required)) = pruned_shadow_leaf(plan).or_else(|| {
        let leaf = scan_leaf(plan).filter(ScanLeaf::is_shadow)?;
        let required = full_required(leaf.schema);
        Some((leaf, required))
    }) else {
        return Vec::new();
    };
    let mut guards: Vec<(Expr, f64)> = Vec::new();
    for view in probe_leaf(&leaf, &required, env, cm).views.iter().flatten() {
        if let Some(guard) = &view.guard {
            if !guards.iter().any(|(seen, _)| *seen == guard.0) {
                guards.push(guard.clone());
            }
        }
    }
    guards
}

/// The views of peer `p` a fragment placed there would be served from — for
/// EXPLAIN observability on Remote boundaries. A pruning Project's own
/// (narrowed) match stands for the leaf beneath it.
fn views_at_peer(leaf_views: &[Option<Rc<str>>], children: &[Placed], p: usize) -> String {
    fn walk<'a>(
        leaf_views: &'a [Option<Rc<str>>],
        children: &'a [Placed],
        p: usize,
        out: &mut Vec<&'a str>,
    ) {
        if let Some(Some(view)) = leaf_views.get(p) {
            out.push(view);
            return;
        }
        for child in children {
            walk(&child.leaf_views, &child.children, p, out);
        }
    }
    let mut views = Vec::new();
    walk(leaf_views, children, p, &mut views);
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
    place(plan, db, cm, env, guards).build(plan)
}

impl Placed {
    /// Reads the physical plan out of the annotation of `plan` (the plan
    /// [`place`] annotated). A pure backtrack: every decision was made —
    /// and recorded — by the pass.
    pub(crate) fn build(&self, plan: &LogicalPlan) -> Result<PhysicalPlan> {
        if !self.costs.local.is_finite() {
            return Err(Error::plan(
                "no local execution strategy exists for this query",
            ));
        }
        backtrack(plan, self)
    }
}

fn backtrack(plan: &LogicalPlan, placed: &Placed) -> Result<PhysicalPlan> {
    if let Some(site) = &placed.shipped {
        return Ok(PhysicalPlan::Remote {
            sql: sqlgen::to_select(plan)?.to_string(),
            schema: plan.schema().clone(),
            est_rows: placed.costs.rows,
            site: site.clone(),
        });
    }
    let child = |i: usize, input: &LogicalPlan| match placed.children.get(i) {
        Some(c) => backtrack(input, c).map(Box::new),
        None => Err(Error::plan("placement annotation does not match the plan")),
    };
    Ok(match plan {
        LogicalPlan::Get { object, .. } if object.is_empty() => PhysicalPlan::Nothing {
            schema: Schema::empty(),
        },
        LogicalPlan::Get { object, schema, .. } => PhysicalPlan::SeqScan {
            object: object.clone(),
            schema: schema.clone(),
            predicate: None,
        },
        LogicalPlan::Filter { input, predicate } => match (&placed.strategy, &**input) {
            (Strategy::Access(access), LogicalPlan::Get { object, schema, .. }) => {
                access.to_physical(object, schema, predicate)
            }
            _ => PhysicalPlan::Filter {
                input: child(0, input)?,
                predicate: predicate.clone(),
            },
        },
        LogicalPlan::Project {
            input,
            exprs,
            schema,
        } => PhysicalPlan::Project {
            input: child(0, input)?,
            exprs: exprs.clone(),
            schema: schema.clone(),
        },
        LogicalPlan::Join {
            left,
            right,
            kind,
            on,
            ..
        } => match &placed.strategy {
            Strategy::IndexNlJoin {
                outer_is_left,
                inner,
                outer_key,
                inner_key,
            } => {
                let outer = if *outer_is_left {
                    child(0, left)?
                } else {
                    child(1, right)?
                };
                // Residual: every ON conjunct except the seek equality.
                let eq = |a: &Expr, b: &Expr| Expr::binary(a.clone(), BinOp::Eq, b.clone());
                let (seek_eq, seek_eq_flipped) =
                    (eq(outer_key, inner_key), eq(inner_key, outer_key));
                let residual = Expr::conjunction(
                    on.iter()
                        .flat_map(|p| p.split_conjuncts())
                        .filter(|c| **c != seek_eq && **c != seek_eq_flipped)
                        .cloned(),
                );
                PhysicalPlan::IndexNlJoin {
                    schema: outer.schema().join(&inner.out_schema),
                    outer,
                    inner_object: inner.object.clone(),
                    inner_index: inner.index.clone(),
                    outer_key: outer_key.clone(),
                    inner_exprs: inner.exprs.clone(),
                    inner_row_schema: inner.row_schema.clone(),
                    inner_schema: inner.out_schema.clone(),
                    kind: if *kind == JoinKind::Left && *outer_is_left {
                        JoinKind::Left
                    } else {
                        JoinKind::Inner
                    },
                    residual,
                }
            }
            // Physical join schemas are derived from the *built* children: a
            // child join may itself have swapped its sides, so the logical
            // schema can be stale.
            Strategy::HashJoin {
                left_keys,
                right_keys,
                residual,
                swap,
            } => {
                let (mut l, mut r) = ((child(0, left)?, left_keys), (child(1, right)?, right_keys));
                if *swap {
                    std::mem::swap(&mut l, &mut r);
                }
                PhysicalPlan::HashJoin {
                    schema: l.0.schema().join(r.0.schema()),
                    left: l.0,
                    right: r.0,
                    left_keys: l.1.clone(),
                    right_keys: r.1.clone(),
                    kind: *kind,
                    residual: residual.clone(),
                }
            }
            _ => {
                let (l, r) = (child(0, left)?, child(1, right)?);
                PhysicalPlan::NestedLoopJoin {
                    schema: l.schema().join(r.schema()),
                    left: l,
                    right: r,
                    kind: *kind,
                    on: on.clone(),
                }
            }
        },
        LogicalPlan::Aggregate {
            input,
            group_by,
            aggs,
            schema,
        } => match &placed.strategy {
            Strategy::ExtremeSeek {
                object,
                key_index,
                is_max,
            } => PhysicalPlan::ExtremeSeek {
                object: object.clone(),
                key_index: *key_index,
                is_max: *is_max,
                schema: schema.clone(),
            },
            _ => PhysicalPlan::HashAggregate {
                input: child(0, input)?,
                group_by: group_by.clone(),
                aggs: aggs.clone(),
                schema: schema.clone(),
            },
        },
        LogicalPlan::Sort { input, keys } => PhysicalPlan::Sort {
            input: child(0, input)?,
            keys: keys.clone(),
        },
        LogicalPlan::Top { input, n } => PhysicalPlan::Top {
            input: child(0, input)?,
            n: *n,
        },
        LogicalPlan::Distinct { input } => PhysicalPlan::Distinct {
            input: child(0, input)?,
        },
        LogicalPlan::UnionAll {
            inputs,
            startup_predicates,
            schema,
            ..
        } => PhysicalPlan::UnionAll {
            inputs: (inputs.iter().enumerate())
                .map(|(i, input)| child(i, input).map(|built| in_schema_order(*built, schema)))
                .collect::<Result<_>>()?,
            startup_predicates: startup_predicates.clone(),
            schema: schema.clone(),
        },
    })
}

/// A UnionAll hands its branches' rows on as they come, and everything above
/// it resolves columns against the union's one schema. A branch that
/// delivers the same columns in another order — its join was built with the
/// sides swapped, which its siblings' need not be — is projected back into
/// the union's order.
fn in_schema_order(branch: PhysicalPlan, schema: &Schema) -> PhysicalPlan {
    let (have, want) = (full_required(branch.schema()), full_required(schema));
    // Only a permutation is reordered: anything else is not this rule's
    // case, and stays as it was built.
    let sorted = |names: &[String]| {
        let mut names = names.to_vec();
        names.sort();
        names
    };
    if have == want || sorted(&have) != sorted(&want) {
        return branch;
    }
    PhysicalPlan::Project {
        input: Box::new(branch),
        exprs: want.iter().map(|c| (Expr::col(c), c.clone())).collect(),
        schema: schema.clone(),
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

    // Scan leaves (bare or with their fused Filter).
    if let Some(leaf) = scan_leaf(plan) {
        let access_cost = match leaf.predicate {
            None => cm.scan(rows),
            Some(p) => best_access(db, leaf.object, p, cm, leaf.get).cost,
        };
        match leaf.location {
            DataLocation::Local => out.push((BF_HERE, access_cost)),
            DataLocation::Remote => {
                out.push((backend, access_cost * cm.remote_cost_factor));
                let required = full_required(leaf.schema);
                let (costs, _) = peer_leaf_matches(&leaf, &required, env, cm, guards);
                out.extend(costs.into_iter().enumerate().map(|(i, c)| (1 + i, c)));
            }
        }
        return bf_gate(plan, out);
    }

    if extreme_seek_pattern(plan, db).is_some() {
        // MIN/MAX of a local clustering key: one seek, here only.
        return vec![(BF_HERE, cm.seek_cost)];
    }
    match plan {
        // Only the FROM-less `SELECT`: every other Get is a scan leaf.
        LogicalPlan::Get { .. } => out.push((BF_HERE, 0.1)),
        LogicalPlan::Join {
            left,
            right,
            kind,
            on,
            ..
        } => {
            let (l_rows, l_width) = (estimate_rows(left, db), estimate_width(left));
            let (r_rows, r_width) = (estimate_rows(right, db), estimate_width(right));
            let op = if extract_equi_keys(on, left.schema(), right.schema()).is_some() {
                cm.hash_join(l_rows.min(r_rows), l_rows.max(r_rows), rows)
            } else {
                cm.nl_join(l_rows, r_rows, rows)
            };
            let lo = bf_options(left, db, cm, env, guards);
            let ro = bf_options(right, db, cm, env, guards);
            for s in 0..=backend {
                let factor = bf_factor(s, backend, cm);
                for (ls, lcost) in &lo {
                    let ldel = lcost + bf_link(*ls, s, l_rows, l_width, env);
                    for (rs, rcost) in &ro {
                        let rdel = rcost + bf_link(*rs, s, r_rows, r_width, env);
                        out.push((s, op * factor + ldel + rdel));
                    }
                }
            }
            // INLJ alternatives exist here only: the inner side is replaced
            // by index seeks against a local table (never executed as an
            // assigned fragment).
            for (outer_is_left, inner, _, _) in inlj_options(on, left, right, *kind, db) {
                let (opts, o_rows, o_width) = if outer_is_left {
                    (&lo, l_rows, l_width)
                } else {
                    (&ro, r_rows, r_width)
                };
                for (os, ocost) in opts {
                    let delivered = ocost + bf_link(*os, BF_HERE, o_rows, o_width, env);
                    out.push((BF_HERE, delivered + inlj_op_cost(cm, o_rows, &inner, rows)));
                }
            }
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
        // Unary operators: each child strategy delivered to each evaluation
        // site.
        _ => {
            let input = plan.children()[0];
            let (in_rows, in_width) = (estimate_rows(input, db), estimate_width(input));
            let op = match plan {
                LogicalPlan::Project { .. } => cm.project(in_rows),
                LogicalPlan::Sort { .. } => cm.sort(in_rows),
                LogicalPlan::Aggregate { .. } | LogicalPlan::Distinct { .. } => {
                    cm.aggregate(in_rows, rows)
                }
                _ => cm.filter(in_rows),
            };
            let child = bf_options(input, db, cm, env, guards);
            for s in 0..=backend {
                let factor = bf_factor(s, backend, cm);
                for (cs, ccost) in &child {
                    let delivered = ccost + bf_link(*cs, s, in_rows, in_width, env);
                    out.push((s, op * factor + delivered));
                }
            }
            // The pruning-Project fusion: the narrowed column requirement
            // may unlock peer matches the bare leaf lacks.
            if let LogicalPlan::Project { exprs, .. } = plan {
                if let Some(leaf) = scan_leaf(input).filter(ScanLeaf::is_shadow) {
                    let required = project_required(exprs, &leaf.conjuncts(), leaf.schema);
                    let (costs, _) = peer_leaf_matches(&leaf, &required, env, cm, guards);
                    out.extend(
                        costs
                            .into_iter()
                            .enumerate()
                            .map(|(i, c)| (1 + i, c + op * cm.peer_cost_factor)),
                    );
                }
            }
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

    /// Multi-site planning overhead, counted rather than timed: the join a
    /// cache node plans for `customer ⋈ orders WHERE c.cid <= @v` (it caches
    /// `cid <= 400` itself), with three peers caching `cid <= 1000·(i+1)`.
    /// Each shadow leaf is matched against the peers' views once per env,
    /// however many candidates share it, and the placement pass visits a
    /// pinned number of nodes per `optimize`.
    #[test]
    fn multi_site_planning_probes_each_leaf_once_and_visits_a_pinned_count() {
        use crate::optimizer::{optimize_with_placement, OptimizerOptions};
        use mtc_storage::{RowChange, ViewMeta};
        use mtc_types::Value;

        let customer = Schema::new(vec![
            Column::not_null("cid", DataType::Int),
            Column::new("cname", DataType::Str),
            Column::new("caddress", DataType::Str),
        ]);
        let mut backend = Database::new("d");
        backend
            .create_table("customer", customer.clone(), &["cid".into()])
            .unwrap();
        backend
            .create_table(
                "orders",
                Schema::new(vec![
                    Column::not_null("oid", DataType::Int),
                    Column::new("ckey", DataType::Int),
                    Column::new("total", DataType::Float),
                ]),
                &["oid".into()],
            )
            .unwrap();
        backend
            .create_index("ix_orders_ckey", "orders", &["ckey".into()], false)
            .unwrap();
        let rows = 4_000;
        let changes = (1..=rows)
            .flat_map(|i| {
                [
                    RowChange::Insert {
                        table: "customer".into(),
                        row: row![i, format!("c{i}"), format!("addr{i}")],
                    },
                    RowChange::Insert {
                        table: "orders".into(),
                        row: row![i, i % rows + 1, (i % 97) as f64],
                    },
                ]
            })
            .collect();
        backend.apply(0, changes).unwrap();
        backend.analyze();
        // A node's shadow of the backend plus one cached view of `customer`.
        let node = |view: &str, bound: i64| {
            let mut db = backend.shadow_clone();
            db.create_table(view, customer.clone(), &["cid".into()])
                .unwrap();
            let slice = (backend.table_ref("customer").unwrap().scan())
                .filter(|r| r[0] <= Value::Int(bound))
                .map(|r| RowChange::Insert {
                    table: view.into(),
                    row: r.clone(),
                })
                .collect();
            db.apply(0, slice).unwrap();
            db.analyze_table(view);
            let sql = format!("SELECT cid, cname, caddress FROM customer WHERE cid <= {bound}");
            let Statement::Select(definition) = parse_statement(&sql).unwrap() else {
                panic!()
            };
            db.catalog_mut()
                .create_view(ViewMeta {
                    name: view.into(),
                    definition,
                    materialized: true,
                    is_cached: true,
                })
                .unwrap();
            db
        };
        let cache = node("cust400", 400);
        let peers: Vec<Database> = (0..3)
            .map(|i| node(&format!("cust_slice{i}"), 1000 * (i + 1)))
            .collect();

        let options = OptimizerOptions::default();
        let Statement::Select(sel) = parse_statement(
            "SELECT c.cname, o.total FROM customer AS c, orders AS o \
             WHERE c.cid = o.ckey AND c.cid <= @v",
        )
        .unwrap() else {
            panic!()
        };
        // Visits one optimize adds to `env`.
        let optimize = |env: &PlacementEnv| {
            let before = env.visits.get();
            let plan = bind_select(&sel, &cache).unwrap();
            optimize_with_placement(plan, &cache, &options, env).unwrap();
            env.visits.get() - before
        };
        let two_site = PlacementEnv::two_site(&options.cost);
        let mut env = PlacementEnv::two_site(&options.cost);
        for (i, db) in peers.iter().enumerate() {
            env.peers.push(PeerSite {
                name: format!("peer{i}"),
                db,
                link: options.cost.peer_link(),
            });
        }

        // (a) One probe per distinct shadow leaf: `customer` whole and
        // pruned to what the join's Project reads, and `orders` whole.
        let first = optimize(&env);
        let probes: Vec<Rc<LeafProbe>> = env.probes.borrow().clone();
        let leaves: Vec<String> = probes
            .iter()
            .map(|p| format!("{} {}", p.object, p.required.join(",")))
            .collect();
        assert_eq!(
            leaves,
            [
                "customer c.cid,c.cname,c.caddress",
                "customer c.cid,c.cname",
                "orders o.oid,o.ckey,o.total",
            ]
        );
        // (b) Planning the statement again on the same env probes nothing.
        let second = optimize(&env);
        assert!(
            (env.probes.borrow().iter().map(Rc::as_ptr)).eq(probes.iter().map(Rc::as_ptr)),
            "a second optimize built new probes"
        );
        // (c) Nodes placed per optimize. Two-site places two candidates (the
        // matched plan and its pulled-up form, 9 visits each); three peers
        // add a placement ChoosePlan and its pulled-up form. Each candidate
        // is placed exactly once.
        assert_eq!((optimize(&two_site), first, second), (18, 60, 60));
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
