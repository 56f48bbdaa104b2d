//! Per-layer numbers, taken from outside the product crates: counter deltas
//! over the traced phase, and a stepper that walks the workload's statement
//! corpus through each public pipeline call with a span around it.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Instant;

use mtc_engine::{
    bind_select, compile, execute_compiled_with_memo, optimize_with_placement, Bindings,
    ExecContext, ExecMetrics, PeerSite, PlacementEnv, QueryResult, RemoteExecutor, RemoteOutcome,
};
use mtc_replication::{decode_frame, encode_frame, ReplicationMetrics};
use mtc_sql::{parse_statement, Statement};
use mtc_storage::Lsn;
use mtc_tpcw::{Scale, Workload};
use mtc_types::{Error, Result};
use mtc_util::rng::{SeedableRng, StdRng};
use mtcache::{param_signature, param_values_signature, CacheServer, RemoteGateway, ResultCache};

use crate::corpus;
use crate::deploy::Deployment;
use crate::driver::Phase;
use crate::stats::{median, median_us};
use crate::trace::{self_times_ns, SpanId, Tracer};
use crate::workloads::{AdhocWindows, HotKeys, Kind, Runner, Stmt, ADHOC_MIX, HOTPOINT_MIX};

/// Times an empty write batch is published to take
/// `storage.snapshot.publish_us`.
const PUBLISH_REPS: usize = 15;

/// Cumulative counters of the whole deployment, read from the public stats
/// of each layer. Two of them bracket the traced phase.
#[derive(Default)]
pub struct Counters {
    plan_hits: u64,
    plan_misses: u64,
    l1_hits: u64,
    l1_misses: u64,
    l1_invalidations: u64,
    l1_evictions: u64,
    fragment_hits: u64,
    fragment_misses: u64,
    l2_hits: u64,
    l2_misses: u64,
    remote_calls: u64,
    coalesced_calls: u64,
    reroutes: u64,
    /// Snapshot publications, summed over the nodes.
    epochs: u64,
    replication: ReplicationMetrics,
    /// Head of the backend's commit log.
    log_head: u64,
}

impl Counters {
    pub fn read(dep: &Deployment) -> Counters {
        let mut c = Counters {
            reroutes: dep.fleet.as_ref().map_or(0, |f| f.reroutes()),
            replication: dep.hub.lock().metrics.snapshot(),
            log_head: dep.backend.db.read().log().head().0,
            ..Counters::default()
        };
        for node in &dep.nodes {
            let plans = node.plan_cache.stats();
            c.plan_hits += plans.hits;
            c.plan_misses += plans.misses;
            let l1 = node.result_cache.stats();
            c.l1_hits += l1.hits;
            c.l1_misses += l1.misses;
            c.l1_invalidations += l1.invalidations;
            c.l1_evictions += l1.evictions;
            let fragments = node.fragment_cache.stats();
            c.fragment_hits += fragments.hits;
            c.fragment_misses += fragments.misses;
            let server = node.stats.snapshot();
            c.remote_calls += server.remote_calls;
            c.coalesced_calls += server.coalesced_calls;
            c.epochs += node.db.epoch();
        }
        if let Some(l2) = dep.fleet.as_ref().and_then(|f| f.l2()) {
            let stats = l2.stats();
            c.l2_hits = stats.hits;
            c.l2_misses = stats.misses;
        }
        c
    }
}

fn rate(hits: u64, misses: u64) -> f64 {
    if hits + misses == 0 {
        0.0
    } else {
        hits as f64 / (hits + misses) as f64
    }
}

/// The counter-based per-layer metrics of the traced `phase`, bracketed by
/// `before` and `after`.
pub fn counter_metrics(
    dep: &Deployment,
    phase: &Phase,
    before: &Counters,
    after: &Counters,
    out: &mut BTreeMap<String, f64>,
) {
    let mut put = |name: &str, value: f64| {
        out.insert(name.to_string(), value);
    };
    put(
        "core.plan_cache.hit_rate",
        rate(
            after.plan_hits - before.plan_hits,
            after.plan_misses - before.plan_misses,
        ),
    );
    put(
        "core.result_cache.hit_rate",
        rate(
            after.l1_hits - before.l1_hits,
            after.l1_misses - before.l1_misses,
        ),
    );
    put(
        "core.result_cache.invalidations_per_op",
        phase.per_op(after.l1_invalidations - before.l1_invalidations),
    );
    put(
        "core.result_cache.evictions",
        (after.l1_evictions - before.l1_evictions) as f64,
    );
    put(
        "core.fragment.hit_rate",
        rate(
            after.fragment_hits - before.fragment_hits,
            after.fragment_misses - before.fragment_misses,
        ),
    );
    put(
        "core.cache.remote_calls_per_op",
        phase.per_op(after.remote_calls - before.remote_calls),
    );
    put(
        "core.cache.coalesced_calls_per_op",
        phase.per_op(after.coalesced_calls - before.coalesced_calls),
    );
    put(
        "core.fleet.peer_calls_per_op",
        phase.per_op(phase.metrics.peer_calls),
    );
    put(
        "core.fleet.l2_hit_rate",
        rate(
            after.l2_hits - before.l2_hits,
            after.l2_misses - before.l2_misses,
        ),
    );
    put(
        "core.fleet.reroutes",
        (after.reroutes - before.reroutes) as f64,
    );
    let wall = phase.wall.as_secs_f64();
    put(
        "replication.hub.pump_share",
        if wall > 0.0 {
            phase.pump_wall.as_secs_f64() / wall
        } else {
            0.0
        },
    );
    let (r0, r1) = (&before.replication, &after.replication);
    put(
        "replication.hub.txns_applied",
        (r1.txns_applied - r0.txns_applied) as f64,
    );
    put(
        "replication.hub.changes_applied",
        (r1.changes_applied - r0.changes_applied) as f64,
    );
    put(
        "replication.hub.wire_bytes",
        (r1.wire_bytes - r0.wire_bytes) as f64,
    );
    put("replication.hub.max_lag_txns", r1.max_lag_txns as f64);
    put(
        "storage.snapshot.publishes_per_op",
        phase.per_op(after.epochs - before.epochs),
    );
    let resident: usize = dep
        .nodes
        .iter()
        .map(|n| n.db.read().tables().map(|t| t.row_count()).sum::<usize>())
        .sum();
    put("storage.rows_resident", resident as f64);

    // Wire codec over the transactions the phase committed.
    let txns = dep
        .backend
        .db
        .read()
        .log()
        .read_from(Lsn(before.log_head))
        .to_vec();
    let t0 = Instant::now();
    let frames: Vec<Vec<u8>> = txns.iter().map(encode_frame).collect();
    let t1 = Instant::now();
    let decoded = frames.iter().filter(|f| decode_frame(f).is_ok()).count();
    let t2 = Instant::now();
    let per_txn = |d: std::time::Duration| {
        if txns.is_empty() {
            0.0
        } else {
            d.as_secs_f64() * 1e6 / txns.len() as f64
        }
    };
    assert_eq!(decoded, txns.len(), "a frame we just encoded must decode");
    put("replication.wire.encode_us_per_txn", per_txn(t1 - t0));
    put("replication.wire.decode_us_per_txn", per_txn(t2 - t1));
}

/// One statement shape of the corpus with its share of the workload.
struct Shape {
    label: &'static str,
    weight: f64,
    stmts: Vec<Stmt>,
}

impl Shape {
    fn new(label: &'static str, weight: f64, reps: usize, make: impl FnMut() -> Stmt) -> Shape {
        Shape {
            label,
            weight,
            stmts: std::iter::repeat_with(make).take(reps).collect(),
        }
    }
}

/// The workload's statement corpus, `reps` bound instances per shape: the
/// bodies of the procedures a TPC-W mix calls, weighed by calls per
/// operation, or the workload's own templates at their shares.
fn corpus_of(kind: Kind, scale: &Scale, seed: u64, reps: usize) -> Vec<Shape> {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x5eed_c0de);
    match kind {
        Kind::Browse | Kind::Order => {
            let workload = if kind == Kind::Browse {
                Workload::Browsing
            } else {
                Workload::Ordering
            };
            corpus::weighted_procs(&workload.mix())
                .into_iter()
                .map(|(proc, weight)| {
                    Shape::new(proc.0, weight, reps, || Stmt {
                        label: proc.0,
                        session: 0,
                        sql: proc.2.into(),
                        params: corpus::bind(proc, scale, &mut rng),
                    })
                })
                .collect()
        }
        Kind::Hotpoint => {
            let keys = HotKeys::new(scale, &mut rng);
            HOTPOINT_MIX
                .iter()
                .map(|&(label, weight)| {
                    Shape::new(label, weight, reps, || keys.stmt(label, scale, &mut rng))
                })
                .collect()
        }
        Kind::FleetAdhoc => {
            let mut windows = AdhocWindows::new(scale, &mut rng);
            ADHOC_MIX
                .iter()
                .map(|&(label, weight)| {
                    Shape::new(label, weight, reps, || windows.stmt(label, scale, &mut rng))
                })
                .collect()
        }
    }
}

/// Runs `f` inside a span; `f` gets the span's id to parent its own spans.
fn span<T>(
    tracer: &RefCell<Tracer>,
    name: &'static str,
    op: u64,
    parent: Option<SpanId>,
    f: impl FnOnce(Option<SpanId>) -> T,
) -> T {
    let start = Instant::now();
    let id = tracer.borrow_mut().open(name, op, parent, start);
    let out = f(id);
    let end = Instant::now();
    tracer.borrow_mut().close(id, end);
    out
}

/// The cache server's remote gateway with a span around each call, and the
/// L1 probe the gateway starts with timed on its own.
struct TimingGateway<'a> {
    inner: RemoteGateway<'a>,
    l1: &'a ResultCache,
    catalog_version: u64,
    now_ms: i64,
    tracer: &'a RefCell<Tracer>,
    op: u64,
    parent: Option<SpanId>,
}

impl RemoteExecutor for TimingGateway<'_> {
    fn execute_remote(&self, sql: &str, params: &Bindings) -> Result<QueryResult> {
        self.execute_remote_outcome(sql, params).map(|o| o.result)
    }

    fn execute_remote_outcome(&self, sql: &str, params: &Bindings) -> Result<RemoteOutcome> {
        let psig = param_values_signature(params);
        span(
            self.tracer,
            "core.result_cache.lookup",
            self.op,
            self.parent,
            |_| {
                self.l1
                    .lookup(sql, &psig, self.catalog_version, None, self.now_ms)
            },
        );
        span(
            self.tracer,
            "core.gateway.fetch",
            self.op,
            self.parent,
            |_| self.inner.execute_remote_outcome(sql, params),
        )
    }

    fn execute_peer(&self, node: &str, sql: &str, params: &Bindings) -> Result<RemoteOutcome> {
        span(
            self.tracer,
            "core.fleet.peer_fetch",
            self.op,
            self.parent,
            |_| self.inner.execute_peer(node, sql, params),
        )
    }
}

/// Walks one read statement through the pipeline the cache server runs,
/// one public call at a time. Returns the staged execution's metrics.
fn step_read(
    node: &Arc<CacheServer>,
    peers: &[(String, Arc<CacheServer>)],
    stmt: &Stmt,
    op: u64,
    tracer: &RefCell<Tracer>,
) -> Result<ExecMetrics> {
    let (sql, params) = (stmt.sql.as_ref(), &stmt.params);
    span(tracer, "stmt", op, None, |root| {
        // Once untimed, so the timed whole-path call and the staged calls
        // below all see a plan cache and a result cache that know the
        // statement: `core.cache.execute` is the warm path.
        node.execute(sql, params, "app")?;
        span(tracer, "core.cache.execute", op, root, |_| {
            node.execute(sql, params, "app")
        })?;

        let parsed = span(tracer, "sql.parse", op, root, |_| parse_statement(sql))?;
        let Statement::Select(select) = parsed else {
            return Err(Error::plan(format!("corpus read is not a SELECT: {sql}")));
        };
        let db = node.db.read();
        let plan = span(tracer, "engine.binder.bind", op, root, |_| {
            bind_select(&select, &db)
        })?;
        let peer_snaps: Vec<_> = peers.iter().map(|(n, s)| (n, s.db.read())).collect();
        let mut env = PlacementEnv::two_site(&node.options.cost);
        for (name, snap) in &peer_snaps {
            env.peers.push(PeerSite {
                name: (*name).clone(),
                db: snap,
                link: node.options.cost.peer_link(),
            });
        }
        let optimized = span(tracer, "engine.optimizer.optimize", op, root, |_| {
            optimize_with_placement(plan, &db, &node.options, &env)
        })?;
        let compiled = span(tracer, "engine.compile.compile", op, root, |_| {
            compile(&optimized.physical)
        })?;

        let catalog_version = db.catalog.version();
        let now_ms = node.clock.now_ms();
        let l2 = node.l2();
        let mut gateway = RemoteGateway::new(
            &node.result_cache,
            node.backend(),
            catalog_version,
            None,
            now_ms,
        );
        if let Some(l2) = l2.as_deref() {
            gateway = gateway.with_l2(l2);
        }
        if !peers.is_empty() {
            gateway = gateway.with_peers(peers);
        }
        let result = span(tracer, "engine.stream.execute", op, root, |execute| {
            let remote = TimingGateway {
                inner: gateway,
                l1: &node.result_cache,
                catalog_version,
                now_ms,
                tracer,
                op,
                parent: execute,
            };
            let ctx = ExecContext {
                db: &db,
                remote: Some(&remote),
                params,
                work: &node.options.cost,
                parallel: None,
            };
            execute_compiled_with_memo(&compiled, &ctx, None)
        })?;

        let key = select.to_string();
        let signature = param_signature(params);
        span(tracer, "core.plan_cache.lookup", op, root, |_| {
            node.plan_cache
                .lookup(&key, &signature, catalog_version, node.topology_version())
        });
        span(tracer, "core.backend.execute", op, root, |_| {
            node.backend().execute(sql, params, "app")
        })?;
        Ok(result.metrics)
    })
}

/// What the stepper measured.
pub struct Stepped {
    pub tracer: Tracer,
    /// Statements stepped, and how many of them returned `Err`.
    pub attempted: u64,
    pub failed: u64,
    pub first_error: Option<String>,
}

/// Steps the corpus of `runner`'s workload (`reps` instances per shape) and
/// adds the span-based per-layer metrics to `out`: for each stage the
/// per-shape median, averaged over the shapes by their share of the
/// workload.
pub fn step(runner: &Runner, seed: u64, reps: usize, out: &mut BTreeMap<String, f64>) -> Stepped {
    let dep = &runner.dep;
    let shapes = corpus_of(runner.spec.kind, &dep.scale, seed, reps);
    let spans_needed = shapes.len() * reps * 16 + 8 * reps + PUBLISH_REPS;
    let tracer = RefCell::new(Tracer::with_capacity(spans_needed));
    let (mut attempted, mut failed, mut first_error) = (0u64, 0u64, None);

    // Statement `i` of shape `s` is operation `s * reps + i`.
    let mut exec_metrics: Vec<ExecMetrics> = Vec::new();
    for (s, shape) in shapes.iter().enumerate() {
        let mut sum = ExecMetrics::default();
        for (i, stmt) in shape.stmts.iter().enumerate() {
            let op = (s * reps + i) as u64;
            let at = match &dep.fleet {
                Some(fleet) => fleet.route(stmt.session).map(|(at, _)| at),
                None => Ok(0),
            };
            let result = at.and_then(|at| {
                let node = &dep.nodes[at];
                if stmt.sql.starts_with("SELECT") {
                    let peers: Vec<_> = dep
                        .nodes
                        .iter()
                        .filter(|p| !Arc::ptr_eq(p, node))
                        .map(|p| (p.name().to_string(), p.clone()))
                        .collect();
                    step_read(node, &peers, stmt, op, &tracer)
                } else {
                    span(&tracer, "core.dml.forward", op, None, |_| {
                        node.execute(&stmt.sql, &stmt.params, "app")
                    })
                    .map(|r| r.metrics)
                }
            });
            attempted += 1;
            match result {
                Ok(m) => sum.absorb(&m),
                Err(e) => {
                    failed += 1;
                    first_error.get_or_insert_with(|| format!("{}: {e}", shape.label));
                }
            }
        }
        exec_metrics.push(sum);
    }

    // Calls that belong to no statement shape.
    let layer_op = (shapes.len() * reps) as u64;
    if let Some(fleet) = &dep.fleet {
        for i in 0..8 * reps as u64 {
            // A routing failure would already have failed the workload.
            let _ = span(&tracer, "core.fleet.route", layer_op, None, |_| {
                fleet.route(i % 8)
            });
        }
    }
    for _ in 0..PUBLISH_REPS {
        span(&tracer, "storage.snapshot.publish", layer_op, None, |_| {
            drop(dep.nodes[0].db.write())
        });
    }

    let tracer = tracer.into_inner();
    let self_ns = self_times_ns(tracer.spans());
    // (shape, span name) -> durations. The executor's self time goes under
    // its own key: what the gateway spent below it is not executor time.
    const EXECUTE: &str = "engine.stream.execute";
    const EXECUTE_SELF: &str = "engine.stream.execute (self)";
    let mut by_shape: BTreeMap<(usize, &'static str), Vec<u64>> = BTreeMap::new();
    for (span, self_ns) in tracer.spans().iter().zip(&self_ns) {
        let shape = span.op as usize / reps;
        by_shape
            .entry((shape, span.name))
            .or_default()
            .push(span.duration_ns());
        if span.name == EXECUTE {
            by_shape
                .entry((shape, EXECUTE_SELF))
                .or_default()
                .push(*self_ns);
        }
    }
    let median_of = |shape: usize, name: &'static str| -> Option<f64> {
        by_shape.get(&(shape, name)).map(|ns| median_us(ns))
    };
    // Average over the shapes that have a value, by their workload share.
    let weighted = |per_shape: &dyn Fn(usize) -> Option<f64>| -> f64 {
        let (mut sum, mut weight) = (0.0, 0.0);
        for s in 0..=shapes.len() {
            if let Some(v) = per_shape(s) {
                let w = shapes.get(s).map_or(1.0, |shape| shape.weight);
                sum += w * v;
                weight += w;
            }
        }
        if weight > 0.0 {
            sum / weight
        } else {
            0.0
        }
    };
    for (metric, span_name) in [
        ("sql.parse_us", "sql.parse"),
        ("engine.binder.bind_us", "engine.binder.bind"),
        ("engine.optimizer.optimize_us", "engine.optimizer.optimize"),
        ("engine.compile.compile_us", "engine.compile.compile"),
        ("engine.stream.execute_us", EXECUTE_SELF),
        ("core.plan_cache.lookup_us", "core.plan_cache.lookup"),
        ("core.result_cache.lookup_us", "core.result_cache.lookup"),
        ("core.cache.execute_us", "core.cache.execute"),
        ("core.backend.execute_us", "core.backend.execute"),
        ("core.dml.forward_us", "core.dml.forward"),
        ("core.fleet.route_us", "core.fleet.route"),
        ("storage.snapshot.publish_us", "storage.snapshot.publish"),
    ] {
        out.insert(metric.to_string(), weighted(&|s| median_of(s, span_name)));
    }
    // The cache server's own share of a warm statement, paired per
    // statement instance: the whole call minus the calls it delegates to.
    // Remote time is inside both the whole call and the staged execute, so
    // it cancels; the L1 probe `TimingGateway` adds is taken out again.
    let mut own_ns: BTreeMap<u64, i64> = BTreeMap::new();
    for span in tracer.spans() {
        let sign = match span.name {
            "core.cache.execute" | "core.result_cache.lookup" => 1,
            "sql.parse" | "core.plan_cache.lookup" | EXECUTE => -1,
            _ => continue,
        };
        *own_ns.entry(span.op).or_default() += sign * span.duration_ns() as i64;
    }
    let mut own_by_shape: BTreeMap<usize, Vec<f64>> = BTreeMap::new();
    for (op, ns) in own_ns {
        own_by_shape
            .entry(op as usize / reps)
            .or_default()
            .push(ns as f64 / 1000.0);
    }
    out.insert(
        "core.cache.overhead_us".to_string(),
        weighted(&|s| own_by_shape.get(&s).map(|us| median(&mut us.clone()))),
    );

    // Executor counters per read statement, weighed like the stages.
    let reads: Vec<(f64, &ExecMetrics, usize)> = shapes
        .iter()
        .zip(&exec_metrics)
        .filter(|(shape, _)| {
            shape
                .stmts
                .first()
                .is_some_and(|s| s.sql.starts_with("SELECT"))
        })
        .map(|(shape, m)| (shape.weight, m, shape.stmts.len()))
        .collect();
    let read_weight: f64 = reads.iter().map(|(w, _, _)| w).sum();
    let per_read = |field: fn(&ExecMetrics) -> u64| -> f64 {
        if read_weight == 0.0 {
            return 0.0;
        }
        reads
            .iter()
            .map(|(w, m, n)| w * field(m) as f64 / (*n).max(1) as f64)
            .sum::<f64>()
            / read_weight
    };
    out.insert(
        "engine.stream.rows_cloned_per_op".to_string(),
        per_read(|m| m.rows_cloned),
    );
    out.insert(
        "engine.stream.batches_per_op".to_string(),
        per_read(|m| m.batches),
    );
    out.insert(
        "engine.stream.bytes_materialized_per_op".to_string(),
        per_read(|m| m.bytes_materialized),
    );

    Stepped {
        tracer,
        attempted,
        failed,
        first_error,
    }
}
