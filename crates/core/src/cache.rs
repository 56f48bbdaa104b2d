//! The MTCache cache server.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use mtc_util::sync::{ArcSwap, Mutex};

use mtc_engine::compile::compile_expr;
use mtc_engine::eval::Bindings;
use mtc_engine::{
    bind_select, Answer, Collect, EvalEnv, ExecContext, ExecMetrics, OptimizerOptions, ParamSlots,
    PeerSite, PlacementEnv, QueryResult, RemoteExecutor,
};
use mtc_replication::{Article, Clock, InvalidationSink, ReplicationHub};
use mtc_sql::{Prepared, Select, Statement, TableRef};
use mtc_storage::{DbSnapshot, Lsn, ProcedureDef, SnapshotDb, ViewMeta};
use mtc_types::{Column, Error, Result, Schema};

use crate::backend::{check_select_permissions, BackendServer};
use crate::fragment::FragmentGateway;
use crate::plan_cache::{Compiled, PlanCache};
use crate::result_cache::{
    referenced_values_signature, RemoteGateway, ResultCache, ResultCacheConfig,
};
use crate::statements::{Resolved, StatementCache};
use crate::stats::SharedServerStats;

/// An MTCache server: shadow database + cached views + transparent routing.
pub struct CacheServer {
    name: String,
    /// The shadow database: backend catalog/statistics, empty shadow
    /// tables, plus populated backing tables for cached views. Read state
    /// is an epoch-published [`DbSnapshot`]: queries execute against an
    /// immutable LSN-stamped image and never block on (or observe a torn)
    /// replication apply.
    pub db: Arc<SnapshotDb>,
    backend: Arc<BackendServer>,
    hub: Arc<Mutex<ReplicationHub>>,
    pub options: OptimizerOptions,
    pub clock: Arc<dyn Clock>,
    /// Live execution counters (relaxed atomics — no lock on the hot path;
    /// read with `stats.snapshot()`).
    pub stats: SharedServerStats,
    /// Compiled-plan cache keyed by statement text + parameter signature,
    /// invalidated by the shadow catalog's version (see
    /// [`crate::plan_cache`]). Currency-bounded statements are cached like
    /// any other: their bound is checked per execution, before the probe.
    pub plan_cache: PlanCache,
    /// Statement text → prepared statement (see [`crate::statements`]):
    /// client SQL and the fragments peers ship here are parsed once per
    /// text, not once per execution.
    pub statements: StatementCache,
    /// Currency-aware remote **result** cache (see
    /// [`crate::result_cache`]): materialized answers of shipped remote
    /// subqueries, keyed by SQL text + bound parameter values, invalidated
    /// by the replication stream and by the writes this node forwards.
    /// Shared (`Arc`) because the replication hub holds it as an
    /// [`mtc_replication::InvalidationSink`].
    pub result_cache: Arc<ResultCache>,
    /// Intermediate-result (fragment) cache: memoized local join/aggregate
    /// subplan results keyed by compiled-plan fingerprint, with the same
    /// currency lineage as statement results (see [`crate::fragment`]).
    /// Disabled by default — [`CacheServer::set_fragment_caching`] turns it
    /// on. Shared (`Arc`) because the replication hub holds it as a second
    /// [`mtc_replication::InvalidationSink`] on this server's database.
    pub fragment_cache: Arc<ResultCache>,
    /// Fleet wiring: what this node knows of its fleet, published as one
    /// immutable value so a statement reads one consistent membership.
    wiring: ArcSwap<Wiring>,
    /// The attached online advisor, if any: observes this server's
    /// statement stream and, on [`CacheServer::advisor_tick`], adapts the
    /// cached-view set (see [`crate::advisor`]).
    advisor: Mutex<Option<Arc<crate::advisor::AdaptiveAdvisor>>>,
}

/// A cache server's fleet wiring. A membership change (crash, rejoin)
/// publishes a whole new value per node ([`CacheServer::set_wiring`]); a
/// statement loads it once, so it can never pair the new L2 with the old
/// peer list. The default is a server outside any fleet.
#[derive(Clone, Default)]
pub struct Wiring {
    /// The peer-shared L2 result-cache tier, probed on L1 misses and
    /// written through on backend fetches. `None` outside a fleet
    /// (single-node behaviour unchanged).
    pub l2: Option<Arc<ResultCache>>,
    /// Peer nodes' L1 result caches. A write forwarded through THIS node
    /// invalidates them synchronously — before the DML statement returns —
    /// so no peer can serve a pre-write result to a reader that has already
    /// seen the write's LSN.
    pub peer_caches: Vec<Arc<ResultCache>>,
    /// Peer nodes this server may *place plan fragments on* (multi-site
    /// placement), by name. Peers hold each other strongly, so whoever
    /// wires nodes together unwires them when done ([`crate::Fleet`] does
    /// on every membership change and when it is dropped).
    pub peers: Vec<(String, Arc<CacheServer>)>,
    /// Fleet-wide placement-topology version, shared by every node of a
    /// fleet and bumped on crash/rejoin. Plan-cache entries are stamped
    /// with it exactly like the catalog version, so a plan that routes a
    /// fragment to a vanished peer is discarded, never executed.
    /// Single-node servers keep their private counter pinned at 0.
    pub topology: Arc<AtomicU64>,
}

impl CacheServer {
    /// Sets up a cache server against `backend` (the two-script setup of
    /// §4: shadow database now, cached views later). The `hub` is the
    /// replication distributor configured for this backend.
    pub fn create(
        name: &str,
        backend: Arc<BackendServer>,
        hub: Arc<Mutex<ReplicationHub>>,
    ) -> Arc<CacheServer> {
        Self::create_with_result_cache(name, backend, hub, ResultCache::default())
    }

    /// Like [`create`](CacheServer::create), but with an explicitly
    /// configured result cache (budget sweeps, tests).
    pub fn create_with_result_cache(
        name: &str,
        backend: Arc<BackendServer>,
        hub: Arc<Mutex<ReplicationHub>>,
        result_cache: ResultCache,
    ) -> Arc<CacheServer> {
        let result_cache = Arc::new(result_cache);
        // The fragment cache starts with the statement cache's budget but
        // disabled; `set_fragment_caching` turns it on.
        let fragment_cache = Arc::new(ResultCache::new(ResultCacheConfig::with_budget(
            result_cache.budget(),
        )));
        fragment_cache.set_enabled(false);
        let shadow = backend.db.read().shadow_clone();
        let db = Arc::new(SnapshotDb::new(shadow));
        // The replication stream doubles as the invalidation stream: every
        // replicated transaction that reaches this server's database also
        // flushes dependent cached results (see `crate::result_cache`) —
        // statement-level answers and memoized fragments alike.
        hub.lock()
            .register_invalidation_sink(&db, result_cache.clone());
        hub.lock()
            .register_invalidation_sink(&db, fragment_cache.clone());
        Arc::new(CacheServer {
            name: name.to_string(),
            db,
            clock: backend.clock.clone(),
            backend,
            hub,
            options: OptimizerOptions::default(),
            stats: SharedServerStats::default(),
            plan_cache: PlanCache::default(),
            statements: StatementCache::default(),
            result_cache,
            fragment_cache,
            wiring: ArcSwap::from_value(Wiring::default()),
            advisor: Mutex::new(None),
        })
    }

    /// Turns intermediate-result (fragment) caching on or off. Off (the
    /// default), queries execute exactly as before — no memo probes, no
    /// admissions, metrics unchanged.
    pub fn set_fragment_caching(&self, on: bool) {
        self.fragment_cache.set_enabled(on);
    }

    /// Attaches (or detaches, with `None`) an online advisor. The advisor
    /// observes every statement executed through [`CacheServer::execute`]
    /// and adapts on [`CacheServer::advisor_tick`].
    pub fn set_advisor(&self, advisor: Option<Arc<crate::advisor::AdaptiveAdvisor>>) {
        *self.advisor.lock() = advisor;
    }

    /// The attached advisor, if any.
    pub fn advisor(&self) -> Option<Arc<crate::advisor::AdaptiveAdvisor>> {
        self.advisor.lock().clone()
    }

    /// Closes the current advisor epoch: the attached advisor consumes the
    /// observation window, then creates, indexes, widens and drops cached
    /// views. Returns the decision log lines of this epoch (empty without
    /// an advisor).
    pub fn advisor_tick(&self) -> Vec<String> {
        match self.advisor() {
            Some(a) => a.tick(self),
            None => Vec::new(),
        }
    }

    /// Publishes this node's fleet wiring, replacing the previous one.
    pub fn set_wiring(&self, wiring: Wiring) {
        self.wiring.store(Arc::new(wiring));
    }

    /// The attached L2 tier, if any.
    pub fn l2(&self) -> Option<Arc<ResultCache>> {
        self.wiring.load().l2.clone()
    }

    /// Attaches the fleet's shared placement-topology counter; every node
    /// of a fleet shares one, so a crash observed anywhere invalidates
    /// placement-bearing plans everywhere.
    pub fn set_topology(&self, topology: Arc<AtomicU64>) {
        let current = self.wiring.load();
        self.set_wiring(Wiring {
            topology,
            ..(*current).clone()
        });
    }

    /// The placement-topology version plans are currently stamped with.
    pub fn topology_version(&self) -> u64 {
        self.wiring.load().topology.load(Ordering::Acquire)
    }

    /// Sends a statement this node does not run — DML ("converted to remote
    /// ... and forwarded to the backend server", §5), DDL, `GRANT`, a
    /// procedure it has no copy of — to the backend, which authorizes and
    /// executes it. This node's L1, every peer L1 and the shared L2 hear each
    /// transaction it committed as the replication stream would tell them
    /// ([`InvalidationSink`]) before the write returns. A catalog statement
    /// the backend accepted re-shadows the object it names
    /// ([`mtc_storage::Database::shadow_object`]), moving this node's catalog
    /// version past every plan, result and fragment compiled before it.
    fn forward(&self, stmt: &Prepared, params: &Bindings, principal: &str) -> Result<QueryResult> {
        let mut commits = Vec::new();
        let out = self
            .backend
            .execute_reporting(stmt, params, principal, &mut commits);
        let wiring = self.wiring.load();
        let tiers = std::iter::once(&self.result_cache)
            .chain(&wiring.peer_caches)
            .chain(&wiring.l2);
        for tier in tiers {
            for commit in &commits {
                tier.note_applied(&commit.tables, commit.lsn);
            }
        }
        let mut out = out?;
        if let Some(object) = stmt.statement.catalog_object() {
            // Read the backend, release it, then write the shadow.
            let backend = self.backend.db.read().clone();
            self.db.write().shadow_object(&backend, object);
        }
        match &stmt.statement {
            Statement::Insert { .. } | Statement::Update { .. } | Statement::Delete { .. } => {
                self.stats.dml.inc()
            }
            Statement::Exec { .. } => self.stats.procs.inc(),
            _ => {}
        }
        self.book_forwarded(&mut out.metrics);
        Ok(out)
    }

    pub fn name(&self) -> &str {
        &self.name
    }

    pub fn backend(&self) -> &Arc<BackendServer> {
        &self.backend
    }

    /// Creates a cached materialized view from a select-project definition
    /// over a backend table or materialized view, automatically creating
    /// the matching replication subscription and populating the view (§3).
    pub fn create_cached_view(&self, name: &str, definition_sql: &str) -> Result<()> {
        let Statement::Select(definition) = mtc_sql::parse_statement(definition_sql)? else {
            return Err(Error::catalog("cached view definition must be a SELECT"));
        };
        let [TableRef::Table { name: source, .. }] = definition.from.as_slice() else {
            return Err(Error::catalog(
                "cached views must select from exactly one backend object",
            ));
        };
        let source = source.clone();

        // Resolve the source schema and key from the backend.
        let backend_db = self.backend.db.read();
        let source_table = backend_db.table_ref(&source)?;
        let source_schema = source_table.schema().clone();
        let source_pk: Vec<String> = source_table
            .primary_key()
            .iter()
            .map(|&i| source_schema.column(i).name.clone())
            .collect();
        drop(backend_db);

        let article = Article::from_select(name, &definition, &source_schema)?;

        // Backing table: the projected columns with their source types.
        let cols: Vec<Column> = article
            .columns
            .iter()
            .map(|c| {
                let idx = source_schema.index_of(c)?;
                Ok(source_schema.column(idx).clone())
            })
            .collect::<Result<_>>()?;
        let pk: Vec<String> = source_pk
            .iter()
            .filter(|c| article.columns.contains(c))
            .cloned()
            .collect();
        if pk.len() != source_pk.len() {
            return Err(Error::catalog(format!(
                "cached view `{name}` must project the source key columns {source_pk:?}"
            )));
        }
        // One write batch, one publication: no reader plans against an
        // epoch that lists the view before it has its rows, its watermark
        // and its statistics. The hub lock comes first, as in distribution.
        let mut hub = self.hub.lock();
        let mut db = self.db.write();
        db.create_table(name, Schema::new(cols), &pk)?;
        db.catalog_mut().create_view(ViewMeta {
            name: name.to_string(),
            definition: definition.clone(),
            materialized: true,
            is_cached: true,
        })?;
        // "When a cached view is created, we automatically create a
        // replication subscription matching the view" — this also bulk-
        // populates it.
        hub.subscribe(article, &self.db, &mut db, name, self.clock.now_ms())?;
        db.analyze_table(name);
        Ok(())
    }

    /// Drops a cached view at runtime: removes it from this node's
    /// replication, removes the view and its backing table from the shadow
    /// database, and bumps the catalog version so every plan, statement
    /// result and memoized fragment compiled against the old catalog is
    /// discarded. The inverse of [`CacheServer::create_cached_view`] — the
    /// adaptive advisor's eviction path.
    pub fn drop_cached_view(&self, name: &str) -> Result<()> {
        if !self.hub.lock().unsubscribe(&self.db, name) {
            return Err(Error::catalog(format!(
                "`{name}` is not a cached view of this server"
            )));
        }
        let mut db = self.db.write();
        db.catalog_mut().drop_view(name)?; // bumps the catalog version
        db.drop_table(name)?;
        db.catalog_mut().remove_stats(name);
        Ok(())
    }

    /// Copies a secondary index definition from the backend onto a cached
    /// view's backing table ("all indexes on the cache servers were
    /// identical to indexes on the backend server", §6.1).
    pub fn create_index_on_view(&self, index: &str, view: &str, columns: &[String]) -> Result<()> {
        // One write batch, one publication: no reader plans against an
        // epoch that has the index but not yet the statistics.
        let mut db = self.db.write();
        db.create_index(index, view, columns, false)?;
        db.analyze_table(view);
        Ok(())
    }

    /// Copies a stored procedure from the backend so it runs mid-tier
    /// (§5.2: the DBA selectively copies procedures she wants local).
    ///
    /// The copy shares the backend's definition, prepared body included.
    pub fn copy_procedure(&self, name: &str) -> Result<()> {
        let def: Arc<ProcedureDef> = self
            .backend
            .db
            .read()
            .catalog
            .procedure(name)
            .cloned()
            .ok_or_else(|| Error::catalog(format!("backend procedure `{name}` not found")))?;
        self.db.write().catalog_mut().create_procedure(def)
    }

    /// The prepared form of `sql`, from this server's statement cache: a
    /// text — or the template its literals lift into — is parsed the first
    /// time it is seen (counted in `stats.prepares`), not on every
    /// execution.
    pub fn prepare(&self, sql: &str) -> Result<Resolved> {
        self.statements.prepare(sql, &self.stats)
    }

    /// Prepares (once per shape) and executes one statement with full
    /// transparency: queries are optimized here and run local/remote/mixed;
    /// everything but a SELECT and a procedure this node holds is forwarded
    /// to the backend.
    pub fn execute(&self, sql: &str, params: &Bindings, principal: &str) -> Result<QueryResult> {
        let resolved = self.prepare(sql)?;
        // The advisor reads predicate ranges off the text as it was sent.
        if let Some(advisor) = self.advisor.lock().as_ref() {
            advisor.observe(sql);
        }
        self.execute_prepared(&resolved.stmt, &resolved.bindings(params), principal)
    }

    /// Statement dispatch (see [`CacheServer::execute`]): a SELECT runs
    /// here, an `EXEC` of a procedure this node holds runs its body here
    /// (§5.2: its queries go through this node's optimizer, its writes
    /// forward), and every other statement is the backend's
    /// ([`CacheServer::forward`]).
    pub fn execute_prepared(
        &self,
        stmt: &Prepared,
        params: &Bindings,
        principal: &str,
    ) -> Result<QueryResult> {
        match &stmt.statement {
            Statement::Select(sel) => {
                let bound_ms = bound_ms_of(sel);
                return self.select_impl(stmt, sel, params, principal, bound_ms, false);
            }
            Statement::Exec { proc, args } => {
                let catalog = self.db.read().catalog.clone();
                let run = |stmt: &Prepared, bound: &Bindings| {
                    self.execute_prepared(stmt, bound, principal)
                };
                let local = crate::procs::exec(&catalog, proc, args, params, &self.stats, run);
                if let Some(out) = local {
                    return out;
                }
            }
            _ => {}
        }
        self.forward(stmt, params, principal)
    }

    /// Executes a plan fragment that a *peer's* multi-site placement routed
    /// to this node, in the prepared form the peer's compiled plan carries,
    /// under the currency bound of the statement it was cut from. Placement
    /// is disabled for the nested execution — a fragment never hops twice —
    /// so this terminates; everything else (plan cache, L1 result cache)
    /// behaves exactly like a session query, except that a node past
    /// `bound_ms` refuses with a freshness error instead of forwarding: the
    /// sender then serves the fragment its own way. Runs as `dbo`, like
    /// backend-shipped SQL, and answers with its root's batches.
    pub fn execute_for_peer(
        &self,
        stmt: &Prepared,
        params: &Bindings,
        bound_ms: Option<i64>,
    ) -> Result<Answer> {
        let Some(sel) = stmt.select() else {
            return Err(Error::plan("peers only ship SELECT fragments"));
        };
        self.select_impl(stmt, sel, params, "dbo", bound_ms, true)
    }

    /// Executes a SELECT on one path: permission check, currency check,
    /// plan-cache probe, and on a miss plan, compile and insert. The plan
    /// may be fully local, fully remote, or mixed; parameterized queries get
    /// dynamic plans; a session statement (not `for_peer`) may have
    /// fragments placed on peer nodes' cached views. `bound_ms` is the
    /// statement's currency bound. A session collects owned rows, a peer
    /// the root's batches (`O`).
    fn select_impl<O: Collect>(
        &self,
        stmt: &Prepared,
        sel: &Select,
        params: &Bindings,
        principal: &str,
        bound_ms: Option<i64>,
        for_peer: bool,
    ) -> Result<O> {
        let db = self.db.read();
        // Permission checks run on every execution, cached plan or not.
        check_select_permissions(&db, &stmt.objects, principal)?;
        let version = db.catalog.version();
        // One wiring for the whole statement: topology stamp, L2 and peers
        // all belong to the same fleet membership.
        let wiring = self.wiring.load();
        let topology = wiring.topology.load(Ordering::Acquire);
        // Peers pinned for this statement: the placement DP costs their
        // snapshots, and the gateway routes peer-placed fragments to them.
        let peers: &[(String, Arc<CacheServer>)] = if for_peer { &[] } else { &wiring.peers };
        // Currency (§7 extension): every cached view of this node is
        // exactly as current as the watermark stamped on the snapshot this
        // execution pinned, so a bound is one comparison made before any
        // plan is looked up — not a plan property. A bounded statement is
        // plan-cached like any other; its text carries the bound.
        if let Some(staleness_ms) = bound_ms.and_then(|bound| self.staleness_past(&db, bound)) {
            self.stats.freshness_fallbacks.inc();
            if for_peer {
                return Err(Error::freshness(format!(
                    "`{}` is {staleness_ms}ms stale, past the fragment's bound",
                    self.name
                )));
            }
            // Nothing here is current enough: backend data always is.
            return self.forward_select(stmt, params, principal);
        }
        // Compiled once and cached, stamped with the catalog and topology
        // versions this execution pinned.
        let plan = self.plan_cache.get_or_compile(stmt, params, version, topology, || {
            let opt = self.plan_select(&db, sel, peers)?;
            Ok((Compiled::Query(mtc_engine::compile(&opt.physical)?), Some(opt)))
        });
        let plan = match plan {
            Ok(plan) => plan,
            // Blind forwarding (§7's pruned-shadow future work): a query
            // that names what this (possibly pruned) shadow catalog lacks
            // is forwarded whole.
            Err(e) if e.kind() == "catalog" => return self.forward_select(stmt, params, principal),
            Err(e) => return Err(e),
        };
        let query = plan.query()?;
        // The statement's currency bound travels with the remote gateway: a
        // cached remote result is only served if its age satisfies it, and a
        // peer only serves a fragment within it. A shipped answer is the
        // backend's, so it is cached under the backend's catalog version,
        // whatever views this node holds. A plan that ships nothing never
        // reaches a gateway, and gets none (nor the readings one is stamped
        // with).
        let gateway = (!query.root.is_local()).then(|| {
            let now = self.clock.now_ms();
            let catalog = self.backend.catalog_version();
            let mut gateway =
                RemoteGateway::new(&self.result_cache, &self.backend, catalog, bound_ms, now);
            if let Some(l2) = wiring.l2.as_deref() {
                gateway = gateway.with_l2(l2);
            }
            if !peers.is_empty() {
                gateway = gateway.with_peers(peers);
            }
            gateway
        });
        // Fragment memo for this execution, pinned to the same snapshot the
        // query scans. `None` while fragment caching is disabled: the engine
        // then takes the exact pre-memo code path.
        let fragment = self
            .fragment_cache
            .is_enabled()
            .then(|| FragmentGateway::new(&self.fragment_cache, &db, version));
        let memo = fragment
            .as_ref()
            .map(|f| f as &dyn mtc_engine::FragmentMemo);
        let ctx = ExecContext {
            db: &db,
            remote: gateway.as_ref().map(|g| g as &dyn RemoteExecutor),
            params,
            work: &self.options.cost,
            parallel: None,
        };
        let mut result: O = O::execute(query, &ctx, memo)?;
        let rows = result.row_count();
        self.stats.record_query(result.metrics_mut(), rows);
        Ok(result)
    }

    /// A SELECT forwarded whole: the backend parses, authorizes and
    /// executes it.
    fn forward_select<O: Collect>(
        &self,
        stmt: &Prepared,
        params: &Bindings,
        principal: &str,
    ) -> Result<O> {
        let mut out: O = self.backend.execute_prepared_as(stmt, params, principal)?;
        let m = out.metrics_mut();
        self.stats.queries.inc();
        self.book_forwarded(m);
        m.remote_calls += 1;
        Ok(out)
    }

    /// Books a statement forwarded whole to the backend: one remote call,
    /// and the backend's work moved from `local_work` into `remote_work`,
    /// in its metrics and in this server's stats.
    fn book_forwarded(&self, m: &mut ExecMetrics) {
        self.stats.remote_calls.inc();
        self.stats.remote_work.add(m.local_work);
        m.remote_work += m.local_work;
        m.local_work = 0.0;
    }

    /// How stale this node is on `snap`, if that is past `bound_ms`. Every
    /// cached view of a node shares one watermark, so this is the staleness
    /// (publisher clock) of whatever the node would read. `None` within the
    /// bound, and on a node holding no cached view: it reads nothing a bound
    /// could reject.
    fn staleness_past(&self, snap: &DbSnapshot, bound_ms: i64) -> Option<i64> {
        let mark = snap.node_watermark()?;
        let now = self.clock.now_ms();
        (!mark.within(bound_ms, now)).then(|| mark.staleness_ms(now))
    }

    /// Plans a SELECT on this server — the one planning path `select_impl`
    /// executes and `explain` prints. `peers` are the nodes pinned for this
    /// statement (empty = two-site planning). A `catalog` error means the
    /// statement names what this shadow catalog lacks: it is forwarded.
    fn plan_select(
        &self,
        db: &DbSnapshot,
        sel: &Select,
        peers: &[(String, Arc<CacheServer>)],
    ) -> Result<mtc_engine::Optimized> {
        let plan = bind_select(sel, db)?;
        // Multi-site placement: every DataTransfer boundary is costed per
        // candidate site over its own link — here (the classic two-site
        // space over the modeled backend link), each peer carrying a
        // relevant cached view (their published snapshots, pinned for the
        // duration of planning, over the cheap peer link), or the backend.
        let peer_snaps: Vec<(&String, Arc<DbSnapshot>)> =
            peers.iter().map(|(name, s)| (name, s.db.read())).collect();
        let mut env = PlacementEnv::two_site(&self.options.cost);
        for (name, snap) in &peer_snaps {
            env.peers.push(PeerSite {
                name: (*name).clone(),
                db: snap,
                link: self.options.cost.peer_link(),
            });
        }
        mtc_engine::optimize_with_placement(plan, db, &self.options, &env)
    }

    /// Prunes the shadow catalog down to what the cached views need (§7:
    /// "it would also be desirable to reduce the amount of shadowed catalog
    /// information by shadowing only the information relevant to the cached
    /// views \[and\] the tables they depend on"). Shadow tables that no
    /// cached view reads are dropped, along with their statistics; queries
    /// touching them fall back to blind forwarding.
    pub fn prune_shadow_catalog(&self) -> Result<Vec<String>> {
        let keep: std::collections::BTreeSet<String> = {
            let db = self.db.read();
            let mut keep: std::collections::BTreeSet<String> = db
                .catalog
                .views()
                .filter(|v| v.is_cached)
                .filter_map(|v| v.base_object().map(mtc_types::normalize_ident))
                .collect();
            // The cached views' own backing tables stay, of course.
            keep.extend(self.cached_views().into_iter().map(|v| mtc_types::normalize_ident(&v)));
            keep
        };
        let victims: Vec<String> = {
            let db = self.db.read();
            db.tables()
                .filter(|t| t.is_shadow() && !keep.contains(t.name()))
                .map(|t| t.name().to_string())
                .collect()
        };
        let mut db = self.db.write();
        for t in &victims {
            db.drop_table(t)?;
            db.catalog_mut().remove_stats(t);
        }
        Ok(victims)
    }

    /// Optimizes a SELECT on this cache server and returns its physical
    /// plan text (EXPLAIN) — shows local/remote routing, DataTransfer
    /// boundaries and dynamic-plan guards. A SELECT execution would forward
    /// (blind, or past its currency bound) prints the forward instead of a
    /// plan; any other statement is forwarded whole, so the backend
    /// explains it.
    pub fn explain(&self, sql: &str) -> Result<String> {
        let resolved = Resolved::new(sql)?;
        let stmt = &*resolved.stmt;
        let Some(sel) = stmt.select() else {
            return self.backend.explain(sql);
        };
        let db = self.db.read();
        let wiring = self.wiring.load();
        // The same currency check and planning as an execution makes. The
        // backend binds what it is sent: a statement it cannot bind either
        // fails exactly as executing it would.
        let bound_ms = bound_ms_of(sel);
        let stale = bound_ms.and_then(|bound| Some((self.staleness_past(&db, bound)?, bound)));
        let opt = match stale {
            Some((staleness_ms, bound)) => {
                bind_select(sel, &self.backend.db.read())?;
                let applied = db.node_watermark().map_or(0, |m| m.lsn.0);
                let lag = self.backend.db.read().log().head().0.saturating_sub(applied);
                let views: Vec<&str> = db
                    .catalog
                    .views()
                    .filter(|v| v.is_cached)
                    .map(|v| v.name.as_str())
                    .collect();
                return Ok(format!(
                    "routing: backend fallback — node stale {staleness_ms}ms > bound {bound}ms (lag {lag} txns; cached views: {})\nplaced: backend\n",
                    views.join(", ")
                ));
            }
            None => match self.plan_select(&db, sel, &wiring.peers) {
                Err(e) if e.kind() == "catalog" => {
                    bind_select(sel, &self.backend.db.read())?;
                    let what = stmt
                        .objects
                        .iter()
                        .find(|o| !db.has_table(o) && db.catalog.view(o).is_none())
                        .map_or("a column it names", String::as_str);
                    return Ok(format!(
                        "routing: backend (blind forward — {what} not in shadow catalog)\n"
                    ));
                }
                planned => planned?,
            },
        };
        let mut routing = match sel.freshness_seconds {
            Some(bound_s) => format!("routing: local (currency bound {bound_s}s satisfied)\n"),
            None => String::new(),
        };
        let version = db.catalog.version();
        let topology = wiring.topology.load(Ordering::Acquire);
        let header = self
            .plan_cache
            .explain_header(&resolved, &opt, version, topology);
        // Result-cache visibility, mirroring the plan-cache line: per
        // remote subexpression, would the shipped SQL (probed with the
        // lifted bindings; EXPLAIN has no others) be answered from the
        // result cache right now — and under this statement's currency
        // bound? Each fragment also names its chosen site, so multi-site
        // placement decisions are observable (`placed: cache2 (view
        // ord_cache)`). Every ChoosePlan branch is listed: a `placed:` line
        // is a site that executing this text contacts, a `closed:` line the
        // site of a branch the lifted values keep shut.
        let now = self.clock.now_ms();
        let backend_version = self.backend.catalog_version();
        let none = Bindings::new();
        let lifted = resolved.bindings(&none);
        for RemoteFragment { site, sql, open } in remote_fragments(&opt.physical, &lifted) {
            if !open {
                routing.push_str(&format!("closed: {site}: {sql}\n"));
                continue;
            }
            let psig = referenced_values_signature(&Prepared::new(&sql)?, &lifted);
            let served = self
                .result_cache
                .would_hit(&sql, &psig, backend_version, bound_ms, now);
            routing.push_str(&format!(
                "routing: {}: {sql}\nplaced: {site}\n",
                if served { "remote(cached)" } else { "remote(fetched)" }
            ));
        }
        let rs = self.result_cache.stats();
        // Advisor visibility: the decision log of recent epochs, one
        // `advisor:` line per create/widen/drop, plus the live fragment
        // cache counters when intermediate-result caching is on.
        let mut advisor = String::new();
        if self.fragment_cache.is_enabled() {
            let fs = self.fragment_cache.stats();
            advisor.push_str(&format!(
                "fragment cache: {} entries, {} bytes (hits {}, misses {}, invalidations {})\n",
                fs.entries, fs.bytes, fs.hits, fs.misses, fs.invalidations
            ));
        }
        if let Some(a) = self.advisor() {
            for line in a.log_tail(8) {
                advisor.push_str(&line);
                advisor.push('\n');
            }
        }
        Ok(format!(
            "{header}result cache: {} entries, {} bytes (hits {}, misses {}, currency rejects {}, invalidations {})\n{advisor}{routing}{}",
            rs.entries,
            rs.bytes,
            rs.hits,
            rs.misses,
            rs.currency_rejects,
            rs.invalidations,
            opt.physical.explain()
        ))
    }

    /// Replication staleness of one cached view, in milliseconds, as
    /// stamped on the currently published snapshot; `None` if `view` is not
    /// one of this server's cached views.
    pub fn staleness_of_view(&self, view: &str) -> Option<i64> {
        let mark = self.db.read().watermark(view)?;
        Some(mark.staleness_ms(self.clock.now_ms()))
    }

    /// Replication lag of one cached view in *transactions*: backend commit
    /// LSN (log head) minus the applied LSN stamped on the currently
    /// published snapshot. `None` if `view` is not one of this server's
    /// cached views.
    pub fn lag_of_view(&self, view: &str) -> Option<u64> {
        let applied: Lsn = self.db.read().applied_lsn(view)?;
        let head = self.backend.db.read().log().head();
        Some(head.0.saturating_sub(applied.0))
    }

    /// Replication staleness of this server's cached views — one number,
    /// since they share one cursor — as stamped on the currently published
    /// snapshot; 0 before any view was created.
    pub fn max_staleness_ms(&self) -> i64 {
        self.db
            .read()
            .node_watermark()
            .map_or(0, |m| m.staleness_ms(self.clock.now_ms()))
    }

    /// Names of the cached views this server maintains, in creation order.
    pub fn cached_views(&self) -> Vec<String> {
        self.hub
            .lock()
            .node_info(&self.db)
            .map(|n| n.views)
            .unwrap_or_default()
    }
}

/// A statement's `WITH FRESHNESS` bound, in milliseconds.
fn bound_ms_of(sel: &Select) -> Option<i64> {
    sel.freshness_seconds.map(|s| s as i64 * 1000)
}

/// One Remote node of a physical plan, as EXPLAIN reports it.
struct RemoteFragment {
    /// Where placement put it (`backend`, `cache2 (view ord_cache)`).
    site: String,
    sql: String,
    /// False when the fragment sits in a ChoosePlan branch whose startup
    /// predicate is closed under the bindings EXPLAIN knows: execution with
    /// those bindings never ships it.
    open: bool,
}

/// Every Remote node in a physical plan, in plan order — of every ChoosePlan
/// branch, each marked with whether its guards open under `params`. A guard
/// that cannot be evaluated (it names a parameter EXPLAIN has no value for)
/// counts as open.
fn remote_fragments(plan: &mtc_engine::PhysicalPlan, params: &Bindings) -> Vec<RemoteFragment> {
    use mtc_engine::PhysicalPlan as P;
    fn walk(p: &P, params: &Bindings, open: bool, out: &mut Vec<RemoteFragment>) {
        match p {
            P::Remote { sql, site, .. } => out.push(RemoteFragment {
                site: site.describe(),
                sql: sql.clone(),
                open,
            }),
            P::UnionAll {
                inputs,
                startup_predicates,
                ..
            } => {
                for (input, guard) in inputs.iter().zip(startup_predicates) {
                    let closed = guard.as_ref().is_some_and(|g| {
                        matches!(startup_truth(g, params), Ok(Some(false) | None))
                    });
                    walk(input, params, open && !closed, out);
                }
            }
            _ => {
                for c in p.children() {
                    walk(c, params, open, out);
                }
            }
        }
    }
    let mut out = Vec::new();
    walk(plan, params, true, &mut out);
    out
}

/// A ChoosePlan startup predicate's truth under `params`, as the executor
/// evaluates it: compiled against the empty schema (it reads parameters,
/// never a row).
fn startup_truth(guard: &mtc_sql::Expr, params: &Bindings) -> Result<Option<bool>> {
    let mut slots = ParamSlots::default();
    let compiled = compile_expr(guard, &Schema::empty(), &mut slots)?;
    let values = slots.resolve(params);
    let env = EvalEnv {
        params: &values,
        names: slots.names(),
    };
    compiled.eval_predicate(&mtc_types::Row::new(Vec::new()), env)
}

#[cfg(test)]
mod tests {
    use super::*;
    use mtc_replication::ManualClock;
    use mtc_types::Value;

    fn setup() -> (Arc<BackendServer>, Arc<Mutex<ReplicationHub>>, ManualClock) {
        let clock = ManualClock::new(0);
        let backend = BackendServer::with_clock("backend", Arc::new(clock.clone()));
        backend
            .run_script(
                "CREATE TABLE customer (cid INT NOT NULL PRIMARY KEY, cname VARCHAR, caddress VARCHAR);
                 GRANT SELECT ON customer TO app;
                 GRANT UPDATE ON customer TO app;",
            )
            .unwrap();
        let inserts: Vec<String> = (1..=2000)
            .map(|i| format!("INSERT INTO customer VALUES ({i}, 'c{i}', 'addr{i}')"))
            .collect();
        backend.run_script(&inserts.join(";")).unwrap();
        backend.analyze();
        let hub = Arc::new(Mutex::new(ReplicationHub::new(backend.db.clone())));
        (backend, hub, clock)
    }

    fn cache(backend: &Arc<BackendServer>, hub: &Arc<Mutex<ReplicationHub>>) -> Arc<CacheServer> {
        let c = CacheServer::create("cache1", backend.clone(), hub.clone());
        c.create_cached_view(
            "cust1000",
            "SELECT cid, cname, caddress FROM customer WHERE cid <= 1000",
        )
        .unwrap();
        c
    }

    #[test]
    fn shadow_setup_and_view_population() {
        let (backend, hub, _clock) = setup();
        let c = cache(&backend, &hub);
        let db = c.db.read();
        assert!(db.table_ref("customer").unwrap().is_shadow());
        assert_eq!(db.table_ref("cust1000").unwrap().row_count(), 1000);
        assert_eq!(db.catalog.stats("customer").unwrap().row_count, 2000);
    }

    #[test]
    fn index_on_view_is_published_with_its_statistics() {
        let (backend, hub, _clock) = setup();
        let c = cache(&backend, &hub);
        let before = c.db.epoch();
        c.create_index_on_view("cx_cname", "cust1000", &["cname".into()])
            .unwrap();
        assert_eq!(c.db.epoch(), before + 1, "index and statistics in one publication");
        assert!(c.db.read().index("cx_cname").is_some());
    }

    #[test]
    fn query_in_view_range_runs_locally() {
        let (backend, hub, _clock) = setup();
        let c = cache(&backend, &hub);
        let before = backend.stats.queries.get();
        let r = c
            .execute(
                "SELECT cname FROM customer WHERE cid = 42",
                &Bindings::new(),
                "app",
            )
            .unwrap();
        assert_eq!(r.rows[0][0], Value::str("c42"));
        assert_eq!(r.metrics.remote_calls, 0, "fully local");
        assert_eq!(backend.stats.queries.get(), before, "backend untouched");
    }

    #[test]
    fn query_outside_view_range_goes_remote() {
        let (backend, hub, _clock) = setup();
        let c = cache(&backend, &hub);
        let r = c
            .execute(
                "SELECT cname FROM customer WHERE cid = 1500",
                &Bindings::new(),
                "app",
            )
            .unwrap();
        assert_eq!(r.rows[0][0], Value::str("c1500"));
        assert_eq!(r.metrics.remote_calls, 1);
        assert!(r.metrics.remote_work > 0.0);
    }

    #[test]
    fn parameterized_query_switches_at_runtime() {
        let (backend, hub, _clock) = setup();
        let c = cache(&backend, &hub);
        let sql = "SELECT cid, cname, caddress FROM customer WHERE cid <= @cid";
        // In-range parameter: local branch.
        let mut p = Bindings::new();
        p.insert("cid".into(), Value::Int(500));
        let r = c.execute(sql, &p, "app").unwrap();
        assert_eq!(r.rows.len(), 500);
        assert_eq!(r.metrics.remote_calls, 0, "guard true ⇒ local branch");
        // Out-of-range parameter: remote branch of the SAME query text.
        p.insert("cid".into(), Value::Int(1500));
        let r = c.execute(sql, &p, "app").unwrap();
        assert_eq!(r.rows.len(), 1500);
        assert_eq!(r.metrics.remote_calls, 1, "guard false ⇒ remote branch");
    }

    #[test]
    fn dml_transparently_forwards_and_replicates() {
        let (backend, hub, clock) = setup();
        let c = cache(&backend, &hub);
        c.execute(
            "UPDATE customer SET cname = 'renamed' WHERE cid = 7",
            &Bindings::new(),
            "app",
        )
        .unwrap();
        // The backend sees the change immediately.
        let r = backend
            .execute("SELECT cname FROM customer WHERE cid = 7", &Bindings::new(), "dbo")
            .unwrap();
        assert_eq!(r.rows[0][0], Value::str("renamed"));
        // The cache sees it after replication propagates.
        clock.advance(500);
        hub.lock().pump(clock.now_ms()).unwrap();
        let r = c
            .execute("SELECT cname FROM customer WHERE cid = 7", &Bindings::new(), "app")
            .unwrap();
        assert_eq!(r.rows[0][0], Value::str("renamed"));
    }

    #[test]
    fn reads_are_authorized_here_and_forwarded_writes_by_the_backend() {
        let (backend, hub, _clock) = setup();
        let c = cache(&backend, &hub);
        let err = c
            .execute("DELETE FROM customer WHERE cid = 1", &Bindings::new(), "app")
            .unwrap_err();
        assert_eq!(err.kind(), "permission");
        let err = c
            .execute("SELECT cid FROM customer", &Bindings::new(), "nobody")
            .unwrap_err();
        assert_eq!(err.kind(), "permission");
    }

    #[test]
    fn cached_plan_hit_still_checks_permissions() {
        // The plan cache stores plans, not authorization decisions: a
        // resident, valid plan must not let an unauthorized principal
        // through. The check runs *before* the cache shard lock is taken,
        // so a denied probe also leaves the LRU state untouched.
        let (backend, hub, _clock) = setup();
        let c = cache(&backend, &hub);
        let sql = "SELECT cname FROM customer WHERE cid = 42";
        c.execute(sql, &Bindings::new(), "app").unwrap();
        let hits_before = c.plan_cache.stats().hits;
        // Same statement, unauthorized principal: denied despite the
        // resident plan, and the denial never counted as a cache probe.
        let err = c.execute(sql, &Bindings::new(), "nobody").unwrap_err();
        assert_eq!(err.kind(), "permission");
        let s = c.plan_cache.stats();
        assert_eq!(s.hits, hits_before, "denied probe never touched the cache");
        // The authorized principal still hits the cached plan.
        c.execute(sql, &Bindings::new(), "app").unwrap();
        assert_eq!(c.plan_cache.stats().hits, hits_before + 1);

        // Forwarded DML and EXEC are prepared and (on the backend) planned
        // once as well, and checked on every execution just the same.
        backend
            .create_procedure("rename", &["id"], "UPDATE customer SET cname = 'r' WHERE cid = @id")
            .unwrap();
        c.copy_procedure("rename").unwrap();
        for sql in [
            "UPDATE customer SET cname = 'u' WHERE cid = 42",
            "EXEC rename @id = 42",
        ] {
            c.execute(sql, &Bindings::new(), "app").unwrap();
            let planned = backend.plan_cache.stats();
            let err = c.execute(sql, &Bindings::new(), "nobody").unwrap_err();
            assert_eq!(err.kind(), "permission", "{sql}");
            assert_eq!(backend.plan_cache.stats(), planned, "denied before the backend");
            c.execute(sql, &Bindings::new(), "app").unwrap();
            assert_eq!(backend.plan_cache.stats().hits, planned.hits + 1, "{sql}");
        }
    }

    #[test]
    fn procedures_local_vs_forwarded() {
        let (backend, hub, _clock) = setup();
        backend
            .create_procedure("getCustomer", &["id"], "SELECT cname FROM customer WHERE cid = @id")
            .unwrap();
        let c = cache(&backend, &hub);
        // Not copied: forwards.
        let r = c
            .execute("EXEC getCustomer @id = 3", &Bindings::new(), "dbo")
            .unwrap();
        assert_eq!(r.rows[0][0], Value::str("c3"));
        assert_eq!(c.stats.remote_calls.get(), 1);
        // Copied: runs locally (and hits the cached view).
        c.copy_procedure("getCustomer").unwrap();
        let before_remote = c.stats.remote_calls.get();
        let r = c
            .execute("EXEC getCustomer @id = 3", &Bindings::new(), "dbo")
            .unwrap();
        assert_eq!(r.rows[0][0], Value::str("c3"));
        assert_eq!(c.stats.remote_calls.get(), before_remote, "ran locally");
    }

    #[test]
    fn freshness_bound_bypasses_stale_cache() {
        let (backend, hub, clock) = setup();
        let c = cache(&backend, &hub);
        // Make the cache stale: a backend write, not yet replicated.
        backend
            .run_script("UPDATE customer SET cname = 'fresh!' WHERE cid = 5")
            .unwrap();
        clock.advance(60_000); // a minute passes without replication
        // Unbounded query happily reads stale data locally.
        let r = c
            .execute("SELECT cname FROM customer WHERE cid = 5", &Bindings::new(), "app")
            .unwrap();
        assert_eq!(r.rows[0][0], Value::str("c5"), "stale but allowed");
        // A 10-second freshness bound routes to the backend.
        let r = c
            .execute(
                "SELECT cname FROM customer WHERE cid = 5 WITH FRESHNESS 10 SECONDS",
                &Bindings::new(),
                "app",
            )
            .unwrap();
        assert_eq!(r.rows[0][0], Value::str("fresh!"));
        assert_eq!(r.metrics.remote_calls, 1);
        // EXPLAIN makes the same check and names the one site it forwards to.
        assert_eq!(
            c.explain("SELECT cname FROM customer WHERE cid = 5 WITH FRESHNESS 10 SECONDS")
                .unwrap(),
            "routing: backend fallback — node stale 60000ms > bound 10000ms \
             (lag 1 txns; cached views: cust1000)\nplaced: backend\n"
        );
        // After replication catches up, the bound is satisfiable locally.
        hub.lock().pump(clock.now_ms()).unwrap();
        hub.lock().pump(clock.now_ms()).unwrap();
        let r = c
            .execute(
                "SELECT cname FROM customer WHERE cid = 5 WITH FRESHNESS 10 SECONDS",
                &Bindings::new(),
                "app",
            )
            .unwrap();
        assert_eq!(r.rows[0][0], Value::str("fresh!"));
        assert_eq!(r.metrics.remote_calls, 0, "fresh again ⇒ local");
    }

    #[test]
    fn freshness_is_checked_node_wide() {
        let (backend, hub, clock) = setup();
        backend
            .run_script(
                "CREATE TABLE product (p_id INT NOT NULL PRIMARY KEY, p_name VARCHAR);
                 INSERT INTO product VALUES (1, 'widget');
                 GRANT SELECT ON product TO app;",
            )
            .unwrap();
        backend.analyze();
        let c = CacheServer::create("cache_f", backend.clone(), hub.clone());
        c.create_cached_view("cust_v", "SELECT cid, cname FROM customer WHERE cid <= 100")
            .unwrap();
        // The node lags: an unreplicated customer write, then time passes.
        backend
            .run_script("UPDATE customer SET cname = 'x' WHERE cid = 1")
            .unwrap();
        clock.advance(60_000);
        // A view created now holds fresh rows, but it reports its node's
        // watermark until the node's cursor catches up.
        c.create_cached_view("prod_v", "SELECT p_id, p_name FROM product")
            .unwrap();
        let bounded = [
            ("SELECT p_name FROM product WHERE p_id = 1 WITH FRESHNESS 10 SECONDS", "widget"),
            ("SELECT cname FROM customer WHERE cid = 1 WITH FRESHNESS 10 SECONDS", "x"),
        ];
        for (sql, answer) in bounded {
            let r = c.execute(sql, &Bindings::new(), "app").unwrap();
            assert!(r.metrics.remote_calls > 0, "a lagging node is bypassed: {sql}");
            assert_eq!(r.rows[0][0], Value::str(answer), "and the answer is fresh");
        }
        // The first pass applies the write; the second, idle one marks the
        // node in sync through now.
        for _ in 0..2 {
            hub.lock().pump(clock.now_ms()).unwrap();
        }
        for (sql, answer) in bounded {
            let r = c.execute(sql, &Bindings::new(), "app").unwrap();
            assert_eq!(r.metrics.remote_calls, 0, "a current node serves locally: {sql}");
            assert_eq!(r.rows[0][0], Value::str(answer));
        }
    }

    #[test]
    fn a_cached_view_is_created_in_one_publication() {
        let (backend, hub, clock) = setup();
        let c = CacheServer::create("cache_e", backend.clone(), hub.clone());
        clock.advance(5);
        let before = c.db.epoch();
        c.create_cached_view("cust_v", "SELECT cid, cname FROM customer WHERE cid <= 100")
            .unwrap();
        assert_eq!(c.db.epoch(), before + 1, "table, rows, statistics and watermark at once");
        let db = c.db.read();
        assert_eq!(db.table_ref("cust_v").unwrap().row_count(), 100);
        assert_eq!(db.catalog.stats("cust_v").unwrap().row_count, 100);
        let mark = db.watermark("cust_v").expect("the node's watermark");
        assert_eq!(mark.lsn, backend.db.read().log().head());
        assert_eq!(mark.synced_through_ms, 5);
        assert_eq!(c.cached_views(), ["cust_v"]);
    }

    #[test]
    fn cached_view_must_project_source_key() {
        let (backend, hub, _clock) = setup();
        let c = CacheServer::create("cache2", backend.clone(), hub.clone());
        let err = c
            .create_cached_view("bad", "SELECT cname FROM customer WHERE cid <= 10")
            .unwrap_err();
        assert_eq!(err.kind(), "catalog");
    }

    #[test]
    fn pruned_shadow_falls_back_to_blind_forwarding() {
        let (backend, hub, _clock) = setup();
        // A second backend table the cache will NOT cache.
        backend
            .run_script(
                "CREATE TABLE audit_log (al_id INT NOT NULL PRIMARY KEY, al_msg VARCHAR);
                 INSERT INTO audit_log VALUES (1, 'hello');
                 GRANT SELECT ON audit_log TO app;",
            )
            .unwrap();
        backend.analyze();
        let c = CacheServer::create("cache_p", backend.clone(), hub);
        c.create_cached_view(
            "cust1000",
            "SELECT cid, cname, caddress FROM customer WHERE cid <= 1000",
        )
        .unwrap();
        // Before pruning, audit_log is shadowed and queries route normally.
        let r = c
            .execute("SELECT al_msg FROM audit_log WHERE al_id = 1", &Bindings::new(), "app")
            .unwrap();
        assert_eq!(r.rows[0][0], Value::str("hello"));

        let dropped = c.prune_shadow_catalog().unwrap();
        assert!(dropped.contains(&"audit_log".to_string()), "{dropped:?}");
        assert!(
            !c.db.read().has_table("audit_log"),
            "shadow table pruned away"
        );
        // customer stays: a cached view depends on it.
        assert!(c.db.read().has_table("customer"));

        // The same query still answers, via blind forwarding.
        let r = c
            .execute("SELECT al_msg FROM audit_log WHERE al_id = 1", &Bindings::new(), "app")
            .unwrap();
        assert_eq!(r.rows[0][0], Value::str("hello"));
        assert_eq!(r.metrics.remote_calls, 1);
        // ... and EXPLAIN says so instead of failing to bind.
        let plan = c.explain("SELECT al_msg FROM audit_log WHERE al_id = 1").unwrap();
        assert_eq!(
            plan,
            "routing: backend (blind forward — audit_log not in shadow catalog)\n"
        );
        // Cached-view queries are unaffected.
        let r = c
            .execute("SELECT cname FROM customer WHERE cid = 3", &Bindings::new(), "app")
            .unwrap();
        assert_eq!(r.metrics.remote_calls, 0);
        // Backend permissions still apply to forwarded statements.
        let err = c
            .execute("SELECT al_msg FROM audit_log", &Bindings::new(), "nobody")
            .unwrap_err();
        assert_eq!(err.kind(), "permission");
    }

    #[test]
    fn truly_unknown_tables_still_error() {
        let (backend, hub, _clock) = setup();
        let c = CacheServer::create("cache_u", backend, hub);
        let err = c
            .execute("SELECT x FROM no_such_table", &Bindings::new(), "dbo")
            .unwrap_err();
        assert_eq!(err.kind(), "catalog");
        // EXPLAIN does not promise a blind forward the backend would refuse.
        let err = c.explain("SELECT x FROM no_such_table").unwrap_err();
        assert_eq!(err.kind(), "catalog");
    }

    #[test]
    fn two_caches_one_backend() {
        let (backend, hub, clock) = setup();
        let c1 = cache(&backend, &hub);
        let c2 = CacheServer::create("cache2", backend.clone(), hub.clone());
        c2.create_cached_view("cust500", "SELECT cid, cname, caddress FROM customer WHERE cid <= 500")
            .unwrap();
        backend
            .run_script("UPDATE customer SET cname = 'both' WHERE cid = 100")
            .unwrap();
        clock.advance(100);
        hub.lock().pump(clock.now_ms()).unwrap();
        for c in [&c1, &c2] {
            let r = c
                .execute("SELECT cname FROM customer WHERE cid = 100", &Bindings::new(), "dbo")
                .unwrap();
            assert_eq!(r.rows[0][0], Value::str("both"), "{}", c.name());
            assert_eq!(r.metrics.remote_calls, 0);
        }
    }
}
