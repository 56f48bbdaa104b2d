//! The replication hub: log reader + distribution database + distributor.
//!
//! The distributor keeps **one cursor per target database** (cache node),
//! shared by all of that node's cached views: each pending transaction is
//! filtered once for all the views, shipped as one wire frame and applied
//! under one write guard stamped with the node's one watermark, so every
//! snapshot a node publishes is the publisher at one LSN.
//!
//! Delivery is *fault-aware*: an optional seeded [`FaultPlan`] is consulted
//! on every delivery attempt and may drop, duplicate, delay or corrupt the
//! wire frame, or crash the "agent" mid-delivery. Recovery is built on two
//! invariants:
//!
//! 1. **LSN resume** — a node only advances `next_lsn` after a
//!    delivery fully succeeds, so any failed/lost/crashed attempt is
//!    redelivered from the distribution database on the next pass.
//! 2. **Idempotent apply** — changes are resolved against the subscriber's
//!    current state before applying (insert→upsert, delete-if-present,
//!    update-by-key), so duplicates and post-crash replays converge to the
//!    same state instead of double-applying or erroring.

use std::sync::Arc;

use mtc_util::fault::{FaultDecision, FaultPlan};
use mtc_util::sync::RwLock;

use mtc_storage::{
    written_tables, CommittedTransaction, Database, Lsn, RowChange, SnapshotDb, SnapshotWriteGuard,
    Watermark,
};
use mtc_types::{Error, Result};

use crate::article::{Article, ResolvedArticle};
use crate::metrics::{LatencyStats, SharedReplicationMetrics};

/// Work-unit cost knobs for the pipeline (used by Experiment 2).
#[derive(Debug, Clone, Copy)]
pub struct ReplicationCosts {
    /// Publisher work per transaction read from the log.
    pub reader_per_txn: f64,
    /// Publisher work per row change read.
    pub reader_per_change: f64,
    /// Subscriber work per row change applied.
    pub apply_per_change: f64,
}

impl Default for ReplicationCosts {
    fn default() -> ReplicationCosts {
        // Scaled to the engine's row-read work unit: reading a committed
        // transaction out of the log and pushing it through the distribution
        // database costs far more than streaming a row through an operator,
        // and *applying* a change on the subscriber is itself a logged write
        // (cf. the DML cost model in mtcache::dml).
        ReplicationCosts {
            reader_per_txn: 35.0,
            reader_per_change: 12.0,
            apply_per_change: 100.0,
        }
    }
}

/// Receives per-table invalidation notifications as replicated transactions
/// reach a node.
///
/// The hub calls [`note_applied`](InvalidationSink::note_applied) once per
/// node whenever that node's cursor advances past a committed transaction —
/// whether the delivery applied rows, was filtered to nothing by the node's
/// views (the write still happened on the publisher; a node without views
/// filters everything), or applied but then lost its progress record to an
/// injected crash (the data *is* on the node, so dependent cached results
/// are stale either way). `tables` are the *publisher-side* tables the
/// transaction wrote ([`written_tables`]); `lsn` is its commit LSN.
/// Notifications may repeat (duplicate delivery, crash replay):
/// implementations must be idempotent.
pub trait InvalidationSink: Send + Sync {
    fn note_applied(&self, tables: &[String], lsn: Lsn);
}

/// Public snapshot of one node's replication state.
#[derive(Debug, Clone)]
pub struct NodeInfo {
    /// The backing tables of the node's cached views, in subscribe order.
    pub views: Vec<String>,
    /// Commit timestamp (publisher clock) through which the node is known
    /// to be in sync.
    pub synced_through_ms: i64,
}

/// One cached view of a node.
struct View {
    /// The article resolved against the source schema at `subscribe`.
    article: ResolvedArticle,
    /// The view's backing table on the node.
    table: String,
    /// The log head when the view was populated: the rows already hold
    /// every transaction below it, so distribution skips those.
    populated_at: Lsn,
}

/// One target database — a cache node — with the one cursor that every
/// view on it shares. A node without views is served like any other: its
/// cursor passes every transaction, fault-free since nothing is delivered,
/// and its sinks hear each one.
struct Node {
    /// Snapshot-published target: each delivery mutates its master copy
    /// and publishes a fresh immutable snapshot on guard drop, so
    /// concurrent readers never block on (or observe a torn) apply.
    target: Arc<SnapshotDb>,
    views: Vec<View>,
    sinks: Vec<Arc<dyn InvalidationSink>>,
    next_lsn: Lsn,
    synced_through_ms: i64,
    /// Fault-injected hold: no deliveries to this node before this instant
    /// (publisher clock).
    delayed_until_ms: i64,
    /// Failed attempts for the transaction at `next_lsn`; reset on success.
    attempts_at_next: u32,
    /// The watermark last stamped onto the target's snapshots; used to skip
    /// a no-op publication when nothing advanced this pass. `None` until
    /// the node's first view: a node that never held one is not stamped.
    stamped: Option<Watermark>,
}

impl Node {
    fn new(target: Arc<SnapshotDb>, next_lsn: Lsn) -> Node {
        Node {
            target,
            views: Vec::new(),
            sinks: Vec::new(),
            next_lsn,
            synced_through_ms: i64::MIN,
            delayed_until_ms: i64::MIN,
            attempts_at_next: 0,
            stamped: None,
        }
    }

    /// The node's share of `txn`: every change, in commit order, converted
    /// for each view that reads it and was populated before `txn`.
    fn filter(&self, txn: &CommittedTransaction) -> Result<Vec<RowChange>> {
        let mut out = Vec::new();
        for change in &txn.changes {
            for view in &self.views {
                if txn.lsn >= view.populated_at && view.article.reads(change.table()) {
                    view.article.filter_change(&view.table, change, &mut out)?;
                }
            }
        }
        Ok(out)
    }

    /// Moves the cursor past `txn`.
    fn advance_past(&mut self, txn: &CommittedTransaction) {
        self.next_lsn = txn.lsn.next();
        self.synced_through_ms = txn.commit_ts_ms.max(self.synced_through_ms);
    }

    /// Tells the node's sinks that the transaction at `lsn` wrote `tables`.
    fn notify(&self, tables: &[String], lsn: Lsn) {
        for sink in &self.sinks {
            sink.note_applied(tables, lsn);
        }
    }

    fn info(&self) -> NodeInfo {
        NodeInfo {
            views: self.views.iter().map(|v| v.table.clone()).collect(),
            synced_through_ms: self.synced_through_ms,
        }
    }
}

/// The distributor: owns the distribution database, runs the log reader
/// against one publisher, and pushes changes to subscribers.
pub struct ReplicationHub {
    publisher: Arc<RwLock<Database>>,
    /// The distribution database: read-but-undistributed transactions, each
    /// with the tables it wrote, computed once by the log reader.
    distribution: Vec<(CommittedTransaction, Vec<String>)>,
    last_read: Lsn,
    /// Experiment 2 knob: with the log reader off, nothing replicates and
    /// the publisher pays no replication overhead.
    pub log_reader_enabled: bool,
    /// One entry per target database, in registration order.
    nodes: Vec<Node>,
    pub costs: ReplicationCosts,
    /// Live pipeline counters (relaxed atomics). Shared as an `Arc`: clone
    /// it out of the hub once and observe replication progress without
    /// taking the hub lock — readers never queue behind an in-flight apply.
    pub metrics: Arc<SharedReplicationMetrics>,
    pub latency: LatencyStats,
    /// Seeded fault oracle consulted on every delivery attempt; `None`
    /// delivers everything perfectly (the pre-fault-injection behaviour).
    fault_plan: Option<FaultPlan>,
}

impl ReplicationHub {
    pub fn new(publisher: Arc<RwLock<Database>>) -> ReplicationHub {
        // The log reader starts at the current end of the log: data loaded
        // before replication was configured reaches subscribers via their
        // initial snapshots, not the log.
        let head = publisher.read().log().head();
        ReplicationHub {
            publisher,
            distribution: Vec::new(),
            last_read: head,
            log_reader_enabled: true,
            nodes: Vec::new(),
            costs: ReplicationCosts::default(),
            metrics: Arc::new(SharedReplicationMetrics::default()),
            latency: LatencyStats::default(),
            fault_plan: None,
        }
    }

    fn position(&self, target: &Arc<SnapshotDb>) -> Option<usize> {
        self.nodes.iter().position(|n| Arc::ptr_eq(&n.target, target))
    }

    fn node(&self, target: &Arc<SnapshotDb>) -> Option<&Node> {
        self.position(target).map(|i| &self.nodes[i])
    }

    /// The entry for `target`, created on first use with its cursor at
    /// `start`.
    fn node_mut(&mut self, target: &Arc<SnapshotDb>, start: Lsn) -> &mut Node {
        let i = self.position(target).unwrap_or_else(|| {
            self.nodes.push(Node::new(target.clone(), start));
            self.nodes.len() - 1
        });
        &mut self.nodes[i]
    }

    /// Registers an [`InvalidationSink`] to be notified whenever the node
    /// `target` advances past a committed publisher transaction. A node new
    /// to the hub starts its cursor at the publisher's log head: what its
    /// sinks cache from now on is fetched after every earlier commit.
    pub fn register_invalidation_sink(
        &mut self,
        target: &Arc<SnapshotDb>,
        sink: Arc<dyn InvalidationSink>,
    ) {
        let head = self.publisher.read().log().head();
        self.node_mut(target, head).sinks.push(sink);
    }

    /// Installs a seeded fault plan on the delivery path.
    pub fn set_fault_plan(&mut self, plan: FaultPlan) {
        self.fault_plan = Some(plan);
    }

    /// Removes the fault plan; subsequent deliveries are perfect again.
    pub fn clear_fault_plan(&mut self) -> Option<FaultPlan> {
        self.fault_plan.take()
    }

    /// Injection counters of the installed fault plan, if any.
    pub fn fault_counts(&self) -> Option<mtc_util::fault::FaultCounts> {
        self.fault_plan.as_ref().map(|p| p.counts)
    }

    /// Adds a cached view for `article` on node `target`, backed by
    /// `target_table`, and *populates it with a consistent snapshot* ("when
    /// a cached view is created … replication then immediately populates
    /// the cached view and begins collecting and forwarding applicable
    /// changes", §3).
    ///
    /// The rows go in through `guard`, the caller's open write batch on
    /// `target`, together with the node's watermark, so whatever else the
    /// caller does in that batch (catalog entry, statistics) publishes with
    /// them. Take the hub lock before opening the guard, as distribution
    /// does. A known node keeps its cursor, so its sinks miss nothing, and
    /// the view skips what its snapshot holds; a new node starts at the
    /// snapshot. The first view stamps the node with the snapshot's mark.
    pub fn subscribe(
        &mut self,
        article: Article,
        target: &Arc<SnapshotDb>,
        guard: &mut SnapshotWriteGuard<'_>,
        target_table: &str,
        now_ms: i64,
    ) -> Result<()> {
        // Validate the projection covers the target's primary key so
        // deletes/updates can locate rows.
        {
            let ttable = guard.table_ref(target_table)?;
            for &pk in ttable.primary_key() {
                let pk_name = &ttable.schema().column(pk).name;
                if !article.columns.iter().any(|c| c == pk_name) {
                    return Err(Error::replication(format!(
                        "article `{}` does not project target key column `{pk_name}`",
                        article.name
                    )));
                }
            }
        }

        // Consistent snapshot under the publisher read lock. The snapshot
        // LSN is the log head: transactions at or after it will be applied
        // incrementally; everything before is captured by the snapshot.
        let pub_db = self.publisher.read();
        let source = pub_db.table_ref(&article.source)?;
        let resolved = article.resolve(source.schema())?;
        let populated_at = pub_db.log().head();
        let changes: Vec<RowChange> = source
            .scan()
            .filter(|r| resolved.matches(r).unwrap_or(false))
            .map(|r| RowChange::Insert {
                table: target_table.to_string(),
                row: resolved.project(r),
            })
            .collect();
        drop(pub_db);

        guard.table_mut(target_table)?.truncate();
        self.metrics.changes_applied.add(changes.len() as u64);
        self.metrics.apply_work.add(self.costs.apply_per_change * changes.len() as f64);
        guard.apply_unlogged(&changes)?;

        let node = self.node_mut(target, populated_at);
        if node.stamped.is_none() {
            node.synced_through_ms = now_ms;
        }
        let mark = node.stamped.get_or_insert(Watermark {
            lsn: populated_at,
            synced_through_ms: now_ms,
        });
        guard.set_watermark(*mark);
        node.views.push(View {
            article: resolved,
            table: target_table.to_string(),
            populated_at,
        });
        Ok(())
    }

    /// Removes node `target` from replication — the hub-side half of a node
    /// crash or decommission: its views receive no further deliveries, it
    /// no longer holds back distribution truncation or
    /// [`drained`](ReplicationHub::drained), and its invalidation sinks are
    /// dropped. Returns the number of views the node had. A node that
    /// rejoins does so *cold*: fresh target database, fresh `subscribe`
    /// calls, fresh snapshots.
    pub fn detach_target(&mut self, target: &Arc<SnapshotDb>) -> usize {
        self.position(target)
            .map_or(0, |i| self.nodes.remove(i).views.len())
    }

    /// Removes the view backed by `view` from node `target` — the hub-side
    /// half of dropping one cached view while its node stays up. The
    /// node's sinks stay registered. Returns false if the node has no such
    /// view.
    pub fn unsubscribe(&mut self, target: &Arc<SnapshotDb>, view: &str) -> bool {
        let Some(i) = self.position(target) else {
            return false;
        };
        let views = &mut self.nodes[i].views;
        let before = views.len();
        views.retain(|v| v.table != view);
        views.len() < before
    }

    /// The LSN *past* the last transaction applied to node `target` (its
    /// cursor): every publisher transaction below it is reflected on the
    /// node and heard by its sinks. `None` for a node the hub does not know.
    pub fn applied_lsn_for_target(&self, target: &Arc<SnapshotDb>) -> Option<Lsn> {
        self.node(target).map(|n| n.next_lsn)
    }

    /// Read-but-unapplied backlog of node `target`, in transactions. `None`
    /// when the hub does not know the node.
    pub fn lag_txns_for_target(&self, target: &Arc<SnapshotDb>) -> Option<u64> {
        self.applied_lsn_for_target(target)
            .map(|next| self.last_read.0.saturating_sub(next.0))
    }

    /// Read-but-unapplied backlog summed over every node.
    pub fn pending_txns(&self) -> u64 {
        self.nodes
            .iter()
            .map(|n| self.last_read.0.saturating_sub(n.next_lsn.0))
            .sum()
    }

    /// Log-reader pass: moves newly committed transactions out of the
    /// publisher's log into the distribution database and truncates the log
    /// behind itself, so the publisher keeps no transaction this reader has
    /// collected (redelivery is served from the distribution database).
    /// A disabled reader truncates nothing.
    pub fn run_log_reader(&mut self) {
        if !self.log_reader_enabled {
            return;
        }
        let new = {
            let mut pub_db = self.publisher.write();
            let head = pub_db.log().head();
            pub_db.log_mut().truncate_before(head)
        };
        for txn in new {
            if txn.lsn < self.last_read {
                // Committed before this hub existed: subscribers get its
                // effects with their initial snapshots.
                continue;
            }
            self.last_read = txn.lsn.next();
            self.metrics.txns_read.inc();
            self.metrics.changes_read.add(txn.changes.len() as u64);
            self.metrics.reader_work.add(
                self.costs.reader_per_txn
                    + self.costs.reader_per_change * txn.changes.len() as f64,
            );
            let tables = written_tables(&txn.changes);
            self.distribution.push((txn, tables));
        }
    }

    /// Distribution pass: pushes pending transactions to every node the hub
    /// knows, one complete transaction at a time in commit order, then
    /// truncates the distribution database up to the slowest node.
    ///
    /// Each node takes each transaction once: filtered for all its views,
    /// shipped as one frame, applied under one write guard that carries the
    /// node's one watermark. Every delivery consults the installed
    /// [`FaultPlan`] (if any) once, and a fault holds the whole node, so
    /// every snapshot a node publishes is the publisher at one LSN. A
    /// faulted attempt never advances `next_lsn`, so the transaction is
    /// redelivered on a later pass; successful re-apply is idempotent (see
    /// [`apply_idempotent`]), so duplicates and post-crash replays converge.
    pub fn run_distribution(&mut self, now_ms: i64) -> Result<()> {
        let last_read = self.last_read;
        for node in &mut self.nodes {
            // Lag gauge: transactions read by the log reader but not yet
            // applied to this node.
            let lag = last_read.0.saturating_sub(node.next_lsn.0);
            self.metrics.max_lag_txns.raise_to(lag);
            // A fault-injected delay holds the whole node.
            if now_ms < node.delayed_until_ms {
                continue;
            }
            for (txn, tables) in &self.distribution {
                if txn.lsn < node.next_lsn {
                    continue;
                }
                let changes = node.filter(txn)?;
                if changes.is_empty() {
                    // Nothing for this node's views (or it has none):
                    // advance past it fault-free (there is no delivery to
                    // fault). The publisher write still happened, so
                    // invalidation listeners hear about it even though no
                    // rows land here.
                    node.advance_past(txn);
                    node.notify(tables, txn.lsn);
                    continue;
                }
                if node.attempts_at_next > 0 {
                    self.metrics.retries.inc();
                }
                let decision = match self.fault_plan.as_mut() {
                    Some(plan) => plan.next_decision(),
                    None => FaultDecision::Deliver,
                };
                // Ship the filtered transaction through a wire frame: the
                // subscriber applies what it *decodes*, not what the
                // distributor holds in memory, so the codec sits on the real
                // delivery path.
                let framed = CommittedTransaction {
                    lsn: txn.lsn,
                    commit_ts_ms: txn.commit_ts_ms,
                    changes,
                };
                match decision {
                    FaultDecision::Drop => {
                        // Lost in flight: the node blocks here until a later
                        // pass redelivers.
                        self.metrics.deliveries_dropped.inc();
                        node.attempts_at_next += 1;
                        break;
                    }
                    FaultDecision::Delay { ms } => {
                        self.metrics.deliveries_delayed.inc();
                        node.attempts_at_next += 1;
                        node.delayed_until_ms = now_ms + ms;
                        break;
                    }
                    FaultDecision::Corrupt => {
                        // Damage the encoded frame and let the strict wire
                        // decoder reject it; the error is surfaced to the
                        // caller (agent retry loop) and the transaction stays
                        // queued for redelivery.
                        let mut frame = crate::wire::encode_frame(&framed);
                        self.metrics.wire_bytes.add(frame.len() as u64);
                        if let Some(plan) = self.fault_plan.as_mut() {
                            plan.corrupt_frame(&mut frame);
                        }
                        let err = match crate::wire::decode_frame(&frame) {
                            Err(e) => e,
                            Ok(_) => Error::encoding("corrupted frame unexpectedly decoded"),
                        };
                        self.metrics.corrupt_frames.inc();
                        node.attempts_at_next += 1;
                        return Err(err);
                    }
                    FaultDecision::Deliver | FaultDecision::Duplicate | FaultDecision::Crash => {
                        let frame = crate::wire::encode_frame(&framed);
                        self.metrics.wire_bytes.add(frame.len() as u64);
                        let delivered = crate::wire::decode_frame(&frame)?;
                        // The whole delivered transaction lands in the
                        // target's master copy and is published as ONE new
                        // snapshot (stamped with its watermark) when the
                        // guard drops — concurrent readers keep executing
                        // against the previous snapshot throughout and can
                        // never observe a torn apply.
                        let mark = Watermark {
                            lsn: txn.lsn.next(),
                            synced_through_ms: txn.commit_ts_ms.max(node.synced_through_ms),
                        };
                        {
                            let mut tdb = node.target.write();
                            let effective = apply_idempotent(&mut tdb, &delivered.changes)?;
                            tdb.set_watermark(mark);
                            self.metrics.changes_applied.add(effective);
                            self.metrics.apply_work.add(
                                self.costs.apply_per_change * delivered.changes.len() as f64,
                            );
                        }
                        node.stamped = Some(mark);
                        // Data is on the target: invalidate *before* the
                        // crash-injection branch below can abort the pass,
                        // so even applied-but-progress-lost deliveries
                        // flush dependent cached results.
                        node.notify(tables, txn.lsn);
                        self.metrics.txns_applied.inc();
                        if matches!(decision, FaultDecision::Duplicate) {
                            // Redundant second delivery of the same frame;
                            // idempotent apply makes its net effect zero.
                            let dup = crate::wire::decode_frame(&frame)?;
                            self.metrics.wire_bytes.add(frame.len() as u64);
                            let mut tdb = node.target.write();
                            let extra = apply_idempotent(&mut tdb, &dup.changes)?;
                            self.metrics.changes_applied.add(extra);
                            self.metrics.duplicates_delivered.inc();
                        }
                        self.latency.record(now_ms - framed.commit_ts_ms);
                        if matches!(decision, FaultDecision::Crash) {
                            // The delivery applied but the agent died before
                            // persisting its progress record: `next_lsn`
                            // stays put and the restarted agent re-applies
                            // this transaction (idempotently) from the
                            // distribution database.
                            self.metrics.crashes_injected.inc();
                            node.attempts_at_next += 1;
                            return Err(Error::replication(
                                "injected agent crash: delivery applied but progress record lost",
                            ));
                        }
                        if node.attempts_at_next > 0 {
                            self.metrics.redeliveries.inc();
                            node.attempts_at_next = 0;
                        }
                        node.advance_past(txn);
                    }
                }
            }
            // Even with no pending work the node is in sync with everything
            // the reader has seen.
            if self.distribution.is_empty() {
                node.synced_through_ms = node.synced_through_ms.max(now_ms);
            }
            // Skipped transactions (nothing for this node) and idle-sync
            // advances move `next_lsn`/`synced_through_ms` without touching
            // the target; restamp a stamped node (once per pass) so queries
            // routing off the snapshot they scanned see the true currency.
            // Monotone: never regresses a stamp already published (e.g.
            // after an injected crash, where data applied but the hub's
            // progress record was lost).
            if let Some(stamped) = node.stamped {
                let advanced = Watermark {
                    lsn: node.next_lsn.max(stamped.lsn),
                    synced_through_ms: node.synced_through_ms.max(stamped.synced_through_ms),
                };
                if advanced != stamped {
                    node.target.write().set_watermark(advanced);
                    node.stamped = Some(advanced);
                }
            }
        }
        // Truncate the distribution database past the slowest node.
        match self.nodes.iter().map(|n| n.next_lsn).min() {
            Some(min_next) => self.distribution.retain(|(txn, _)| txn.lsn >= min_next),
            None => self.distribution.clear(),
        }
        Ok(())
    }

    /// One full pipeline pass (log reader + distributor).
    pub fn pump(&mut self, now_ms: i64) -> Result<()> {
        self.run_log_reader();
        self.run_distribution(now_ms)
    }

    /// True when the pipeline holds no undelivered work: the log reader has
    /// caught up with the publisher's log, the distribution database is
    /// empty, and every node has applied everything read.
    pub fn drained(&self) -> bool {
        let head = self.publisher.read().log().head();
        self.distribution.is_empty()
            && self.last_read == head
            && self.nodes.iter().all(|n| n.next_lsn >= self.last_read)
    }

    /// Every node's state, in registration order.
    pub fn subscriptions(&self) -> Vec<NodeInfo> {
        self.nodes.iter().map(Node::info).collect()
    }

    /// The state of node `target`, if the hub knows it.
    pub fn node_info(&self, target: &Arc<SnapshotDb>) -> Option<NodeInfo> {
        self.node(target).map(Node::info)
    }

    /// Pending (read-but-undistributed) transactions.
    pub fn distribution_depth(&self) -> usize {
        self.distribution.len()
    }
}

/// Applies a delivered transaction *idempotently*: each change is first
/// resolved against the subscriber's current state (see
/// [`resolve_idempotent`]) and only the net effect is applied. Replaying a
/// transaction that already (fully or partially) applied therefore converges
/// to the same state instead of double-inserting or erroring — the property
/// crash-restart resume and duplicate delivery rely on.
///
/// Returns the number of *effective* changes (a clean duplicate replays as 0).
pub fn apply_idempotent(db: &mut Database, changes: &[RowChange]) -> Result<u64> {
    let mut effective = 0u64;
    for change in changes {
        // Resolve against the state produced by the previous changes of this
        // same transaction, one change at a time.
        let resolved = resolve_idempotent(db, change)?;
        effective += resolved.len() as u64;
        db.apply_unlogged(&resolved)?;
    }
    Ok(effective)
}

/// Rewrites one replicated change into the operations that take the
/// subscriber from its *current* state to the change's after-state:
///
/// * `Insert` — absent ⇒ insert; identical ⇒ no-op; different row under the
///   same key ⇒ update (upsert semantics).
/// * `Delete` — present ⇒ delete the *current* image; absent ⇒ no-op.
/// * `Update` — if the key moved, delete whatever sits at the before-key;
///   then at the after-key: identical ⇒ no-op, different ⇒ update the
///   current image, absent ⇒ insert.
///
/// Keyless (rowid) tables cannot be resolved by key; the raw change is
/// passed through unchanged (replication targets always have keys — the hub
/// rejects subscriptions whose article does not project the target key).
pub fn resolve_idempotent(db: &Database, change: &RowChange) -> Result<Vec<RowChange>> {
    let table = db.table_ref(change.table())?;
    if table.primary_key().is_empty() {
        return Ok(vec![change.clone()]);
    }
    let mut out = Vec::new();
    match change {
        RowChange::Insert { table: name, row } => {
            match table.find(row) {
                Some(existing) if existing == row => {}
                Some(existing) => out.push(RowChange::Update {
                    table: name.clone(),
                    before: existing.clone(),
                    after: row.clone(),
                }),
                None => out.push(change.clone()),
            }
        }
        RowChange::Delete { table: name, row } => {
            if let Some(existing) = table.find(row) {
                out.push(RowChange::Delete {
                    table: name.clone(),
                    row: existing.clone(),
                });
            }
        }
        RowChange::Update {
            table: name,
            before,
            after,
        } => {
            let key_moved = table.primary_key().iter().any(|&c| before[c] != after[c]);
            if key_moved {
                if let Some(existing) = table.find(before) {
                    out.push(RowChange::Delete {
                        table: name.clone(),
                        row: existing.clone(),
                    });
                }
            }
            match table.find(after) {
                Some(existing) if existing == after => {}
                Some(existing) => out.push(RowChange::Update {
                    table: name.clone(),
                    before: existing.clone(),
                    after: after.clone(),
                }),
                None => out.push(RowChange::Insert {
                    table: name.clone(),
                    row: after.clone(),
                }),
            }
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use mtc_sql::{parse_statement, Statement};
    use mtc_types::{row, Column, DataType, Schema, Value};

    fn customer_schema() -> Schema {
        Schema::new(vec![
            Column::not_null("cid", DataType::Int),
            Column::new("cname", DataType::Str),
            Column::new("cbalance", DataType::Float),
        ])
    }

    fn setup() -> (Arc<RwLock<Database>>, Arc<SnapshotDb>, ReplicationHub) {
        let mut backend = Database::new("backend");
        backend
            .create_table("customer", customer_schema(), &["cid".into()])
            .unwrap();
        let rows: Vec<_> = (1..=100)
            .map(|i| RowChange::Insert {
                table: "customer".into(),
                row: row![i, format!("c{i}"), 0.0],
            })
            .collect();
        backend.apply(0, rows).unwrap();

        let mut cache = Database::new("cache");
        cache
            .create_table(
                "cust50",
                Schema::new(vec![
                    Column::not_null("cid", DataType::Int),
                    Column::new("cname", DataType::Str),
                ]),
                &["cid".into()],
            )
            .unwrap();

        let backend = Arc::new(RwLock::new(backend));
        let cache = Arc::new(SnapshotDb::new(cache));
        let hub = ReplicationHub::new(backend.clone());
        (backend, cache, hub)
    }

    fn article() -> Article {
        let Statement::Select(def) =
            parse_statement("SELECT cid, cname FROM customer WHERE cid <= 50").unwrap()
        else {
            panic!()
        };
        Article::from_select("cust50", &def, &customer_schema()).unwrap()
    }

    #[test]
    fn subscription_populates_snapshot() {
        let (_backend, cache, mut hub) = setup();
        hub.subscribe(article(), &cache, &mut cache.write(), "cust50", 0).unwrap();
        assert_eq!(cache.read().table_ref("cust50").unwrap().row_count(), 50);
        // Projection applied: only 2 columns.
        let db = cache.read();
        let t = db.table_ref("cust50").unwrap();
        assert_eq!(t.get(&row![7]).unwrap().len(), 2);
    }

    #[test]
    fn incremental_changes_propagate_in_commit_order() {
        let (backend, cache, mut hub) = setup();
        hub.subscribe(article(), &cache, &mut cache.write(), "cust50", 0).unwrap();
        backend
            .write()
            .apply(
                1000,
                vec![RowChange::Insert {
                    table: "customer".into(),
                    row: row![101, "late", 0.0],
                }],
            )
            .unwrap();
        // cid=101 is outside the article filter: no new row, but LSN moves.
        backend
            .write()
            .apply(
                2000,
                vec![
                    RowChange::Insert {
                        table: "customer".into(),
                        row: row![102, "x", 0.0],
                    },
                    RowChange::Update {
                        table: "customer".into(),
                        before: row![7, "c7", 0.0],
                        after: row![7, "c7-renamed", 0.0],
                    },
                ],
            )
            .unwrap();
        hub.pump(2500).unwrap();
        let db = cache.read();
        let t = db.table_ref("cust50").unwrap();
        assert_eq!(t.row_count(), 50);
        assert_eq!(t.get(&row![7]).unwrap()[1], Value::str("c7-renamed"));
        assert_eq!(hub.metrics.txns_read.get(), 2);
        // Only the second transaction touched the article.
        assert_eq!(hub.metrics.txns_applied.get(), 1);
        assert_eq!(hub.latency.count, 1);
        assert_eq!(hub.latency.max_ms, 500);
    }

    #[test]
    fn update_moves_row_in_and_out_of_filter() {
        let (backend, cache, mut hub) = setup();
        hub.subscribe(article(), &cache, &mut cache.write(), "cust50", 0).unwrap();
        // Move cid=10 out of range (cid becomes 200): delete downstream.
        backend
            .write()
            .apply(
                100,
                vec![RowChange::Update {
                    table: "customer".into(),
                    before: row![10, "c10", 0.0],
                    after: row![200, "c10", 0.0],
                }],
            )
            .unwrap();
        // Then move it back in, which must re-insert downstream.
        hub.pump(200).unwrap();
        {
            let db = cache.read();
            let t = db.table_ref("cust50").unwrap();
            assert_eq!(t.row_count(), 49);
            assert!(t.get(&row![10]).is_none());
        }
        backend
            .write()
            .apply(
                300,
                vec![RowChange::Update {
                    table: "customer".into(),
                    before: row![200, "c10", 0.0],
                    after: row![10, "c10", 0.0],
                }],
            )
            .unwrap();
        hub.pump(400).unwrap();
        let db = cache.read();
        let t = db.table_ref("cust50").unwrap();
        assert_eq!(t.row_count(), 50);
        assert!(t.get(&row![10]).is_some());
    }

    #[test]
    fn log_reader_off_stops_propagation() {
        let (backend, cache, mut hub) = setup();
        hub.subscribe(article(), &cache, &mut cache.write(), "cust50", 0).unwrap();
        hub.log_reader_enabled = false;
        backend
            .write()
            .apply(
                100,
                vec![RowChange::Insert {
                    table: "customer".into(),
                    row: row![45, "new", 0.0],
                }],
            )
            .unwrap_err(); // duplicate key 45 — pick a free one
        backend
            .write()
            .apply(
                100,
                vec![RowChange::Delete {
                    table: "customer".into(),
                    row: row![45, "c45", 0.0],
                }],
            )
            .unwrap();
        hub.pump(200).unwrap();
        assert_eq!(
            cache.read().table_ref("cust50").unwrap().row_count(),
            50,
            "no propagation with reader off"
        );
        assert_eq!(hub.metrics.reader_work.get(), 0.0);
        assert_eq!(backend.read().log().len(), 2, "a disabled reader truncates nothing");
        // Re-enable: change flows.
        hub.log_reader_enabled = true;
        hub.pump(300).unwrap();
        assert_eq!(cache.read().table_ref("cust50").unwrap().row_count(), 49);
    }

    #[test]
    fn log_reader_truncates_the_publisher_log_behind_itself() {
        let (backend, cache, mut hub) = setup();
        hub.subscribe(article(), &cache, &mut cache.write(), "cust50", 0).unwrap();
        let delete = |cid: i64| RowChange::Delete {
            table: "customer".into(),
            row: row![cid, format!("c{cid}"), 0.0],
        };
        for cid in 1..=3 {
            backend.write().apply(cid * 10, vec![delete(cid)]).unwrap();
        }
        let head = backend.read().log().head();
        // The load transaction of `setup` predates the hub: it is dropped
        // with the rest, not redistributed.
        assert_eq!(backend.read().log().len(), 4);
        hub.pump(100).unwrap();
        assert!(backend.read().log().is_empty(), "read transactions leave the publisher");
        assert_eq!(backend.read().log().head(), head, "LSNs keep counting from the head");
        assert_eq!(hub.metrics.txns_read.get(), 3);
        assert_eq!(cache.read().table_ref("cust50").unwrap().row_count(), 47);

        // A view subscribed after the truncation snapshots the publisher's
        // current state and catches up from the log like any other.
        let mut late_db = Database::new("late");
        late_db
            .create_table(
                "cust50",
                cache.read().table_ref("cust50").unwrap().schema().clone(),
                &["cid".into()],
            )
            .unwrap();
        let late = Arc::new(SnapshotDb::new(late_db));
        hub.subscribe(article(), &late, &mut late.write(), "cust50", 100).unwrap();
        assert_eq!(late.read().table_ref("cust50").unwrap().row_count(), 47);
        assert_eq!(backend.write().apply(200, vec![delete(4)]).unwrap(), head);
        hub.pump(300).unwrap();
        assert!(hub.drained());
        assert!(backend.read().log().is_empty());
        for target in [&cache, &late] {
            let db = target.read();
            assert_eq!(db.table_ref("cust50").unwrap().row_count(), 46);
            assert_eq!(db.node_watermark().map(|w| w.lsn), Some(head.next()));
        }
    }

    #[test]
    fn distribution_database_truncates_after_delivery() {
        let (backend, cache, mut hub) = setup();
        hub.subscribe(article(), &cache, &mut cache.write(), "cust50", 0).unwrap();
        for i in 0..5 {
            backend
                .write()
                .apply(
                    i * 10,
                    vec![RowChange::Delete {
                        table: "customer".into(),
                        row: row![i + 1, format!("c{}", i + 1), 0.0],
                    }],
                )
                .unwrap();
        }
        hub.run_log_reader();
        assert_eq!(hub.distribution_depth(), 5);
        hub.run_distribution(100).unwrap();
        assert_eq!(hub.distribution_depth(), 0, "delivered ⇒ truncated");
    }

    #[test]
    fn delivery_goes_through_wire_frames() {
        let (backend, cache, mut hub) = setup();
        hub.subscribe(article(), &cache, &mut cache.write(), "cust50", 0).unwrap();
        assert_eq!(hub.metrics.wire_bytes.get(), 0, "snapshot is not framed");
        backend
            .write()
            .apply(
                10,
                vec![RowChange::Update {
                    table: "customer".into(),
                    before: row![7, "c7", 0.0],
                    after: row![7, "c7x", 0.0],
                }],
            )
            .unwrap();
        hub.pump(20).unwrap();
        // Frame = magic + version + lsn + ts + count + one Update change
        // with projected before/after images; must be non-trivial.
        assert!(
            hub.metrics.wire_bytes.get() > 10,
            "wire bytes: {}",
            hub.metrics.wire_bytes.get()
        );
        let db = cache.read();
        assert_eq!(
            db.table_ref("cust50").unwrap().get(&row![7]).unwrap()[1],
            Value::str("c7x"),
            "decoded frame applied"
        );
    }

    #[test]
    fn subscription_requires_key_columns() {
        let (_backend, cache, mut hub) = setup();
        let Statement::Select(def) =
            parse_statement("SELECT cname FROM customer WHERE cid <= 50").unwrap()
        else {
            panic!()
        };
        let bad = Article::from_select("bad", &def, &customer_schema()).unwrap();
        let err = hub.subscribe(bad, &cache, &mut cache.write(), "cust50", 0).unwrap_err();
        assert_eq!(err.kind(), "replication");
    }

    #[test]
    fn staleness_tracks_sync_point() {
        let (backend, cache, mut hub) = setup();
        hub.subscribe(article(), &cache, &mut cache.write(), "cust50", 0).unwrap();
        let synced = |hub: &ReplicationHub| hub.node_info(&cache).unwrap().synced_through_ms;
        backend
            .write()
            .apply(
                1_000,
                vec![RowChange::Delete {
                    table: "customer".into(),
                    row: row![1, "c1", 0.0],
                }],
            )
            .unwrap();
        // Before pumping, the node is synced through its snapshot instant.
        assert_eq!(synced(&hub), 0);
        hub.pump(6_000).unwrap();
        assert_eq!(synced(&hub), 1_000, "synced through the last commit");
        // The queue is empty now, so the next distribution pass at 6s marks
        // full sync, and the published snapshot carries it.
        hub.run_distribution(6_000).unwrap();
        assert_eq!(synced(&hub), 6_000);
        assert_eq!(cache.read().node_watermark().unwrap().synced_through_ms, 6_000);
    }

    #[test]
    fn duplicate_delivery_is_idempotent() {
        use mtc_util::fault::{FaultPlan, FaultSpec};
        let (backend, cache, mut hub) = setup();
        hub.subscribe(article(), &cache, &mut cache.write(), "cust50", 0).unwrap();
        hub.set_fault_plan(FaultPlan::new(7, FaultSpec::duplicate(1.0)));
        backend
            .write()
            .apply(
                10,
                vec![RowChange::Update {
                    table: "customer".into(),
                    before: row![7, "c7", 0.0],
                    after: row![7, "c7-dup", 0.0],
                }],
            )
            .unwrap();
        hub.pump(20).unwrap();
        let db = cache.read();
        let t = db.table_ref("cust50").unwrap();
        assert_eq!(t.row_count(), 50, "no double-apply");
        assert_eq!(t.get(&row![7]).unwrap()[1], Value::str("c7-dup"));
        assert_eq!(hub.metrics.duplicates_delivered.get(), 1);
        // The second delivery resolved to zero effective changes.
        assert_eq!(hub.metrics.txns_applied.get(), 1);
    }

    #[test]
    fn drop_blocks_then_redelivery_converges() {
        use mtc_util::fault::{FaultPlan, FaultSpec};
        let (backend, cache, mut hub) = setup();
        hub.subscribe(article(), &cache, &mut cache.write(), "cust50", 0).unwrap();
        hub.set_fault_plan(FaultPlan::new(3, FaultSpec::drop(1.0)));
        backend
            .write()
            .apply(
                10,
                vec![RowChange::Delete {
                    table: "customer".into(),
                    row: row![5, "c5", 0.0],
                }],
            )
            .unwrap();
        hub.pump(20).unwrap();
        // Dropped in flight: nothing applied, LSN did not advance.
        assert_eq!(cache.read().table_ref("cust50").unwrap().row_count(), 50);
        assert_eq!(hub.metrics.deliveries_dropped.get(), 1);
        assert_eq!(hub.lag_txns_for_target(&cache), Some(1));
        assert!(!hub.drained());
        // Heal the link: redelivery applies and counters record the retry.
        hub.clear_fault_plan();
        hub.pump(30).unwrap();
        assert_eq!(cache.read().table_ref("cust50").unwrap().row_count(), 49);
        assert_eq!(hub.metrics.retries.get(), 1);
        assert_eq!(hub.metrics.redeliveries.get(), 1);
        assert_eq!(hub.lag_txns_for_target(&cache), Some(0));
        assert!(hub.drained());
    }

    #[test]
    fn corrupt_frame_surfaces_encoding_error_and_retries() {
        use mtc_util::fault::{FaultPlan, FaultSpec};
        let (backend, cache, mut hub) = setup();
        hub.subscribe(article(), &cache, &mut cache.write(), "cust50", 0).unwrap();
        hub.set_fault_plan(FaultPlan::new(11, FaultSpec::corrupt(1.0)));
        backend
            .write()
            .apply(
                10,
                vec![RowChange::Delete {
                    table: "customer".into(),
                    row: row![9, "c9", 0.0],
                }],
            )
            .unwrap();
        let err = hub.pump(20).unwrap_err();
        assert_eq!(err.kind(), "encoding", "strict decode rejects: {err}");
        assert_eq!(hub.metrics.corrupt_frames.get(), 1);
        assert_eq!(cache.read().table_ref("cust50").unwrap().row_count(), 50);
        // Clean link: the queued transaction redelivers.
        hub.clear_fault_plan();
        hub.pump(30).unwrap();
        assert_eq!(cache.read().table_ref("cust50").unwrap().row_count(), 49);
        assert_eq!(hub.metrics.redeliveries.get(), 1);
    }

    #[test]
    fn crash_applies_but_loses_progress_then_replay_converges() {
        use mtc_util::fault::{FaultPlan, FaultSpec};
        let (backend, cache, mut hub) = setup();
        hub.subscribe(article(), &cache, &mut cache.write(), "cust50", 0).unwrap();
        // crash_every=1 ⇒ the very first delivery crashes after applying.
        hub.set_fault_plan(FaultPlan::new(5, FaultSpec::crash_every(1)));
        backend
            .write()
            .apply(
                10,
                vec![RowChange::Update {
                    table: "customer".into(),
                    before: row![2, "c2", 0.0],
                    after: row![2, "c2-crash", 0.0],
                }],
            )
            .unwrap();
        let before_lsn = hub.applied_lsn_for_target(&cache).unwrap();
        let err = hub.pump(20).unwrap_err();
        assert_eq!(err.kind(), "replication");
        // The change *did* land, but the progress record was lost.
        assert_eq!(
            cache.read().table_ref("cust50").unwrap().get(&row![2]).unwrap()[1],
            Value::str("c2-crash")
        );
        assert_eq!(hub.applied_lsn_for_target(&cache), Some(before_lsn), "LSN not advanced");
        assert_eq!(hub.metrics.crashes_injected.get(), 1);
        // Restarted agent replays from the last applied LSN; idempotent
        // apply makes the replay a no-op and progress advances.
        hub.clear_fault_plan();
        hub.pump(30).unwrap();
        assert_eq!(
            cache.read().table_ref("cust50").unwrap().get(&row![2]).unwrap()[1],
            Value::str("c2-crash")
        );
        assert_eq!(hub.metrics.redeliveries.get(), 1);
        assert!(hub.drained());
    }

    #[test]
    fn delay_holds_subscription_until_deadline() {
        use mtc_util::fault::{FaultPlan, FaultSpec};
        let (backend, cache, mut hub) = setup();
        hub.subscribe(article(), &cache, &mut cache.write(), "cust50", 0).unwrap();
        hub.set_fault_plan(FaultPlan::new(2, FaultSpec::delay(1.0, 500)));
        backend
            .write()
            .apply(
                10,
                vec![RowChange::Delete {
                    table: "customer".into(),
                    row: row![4, "c4", 0.0],
                }],
            )
            .unwrap();
        hub.pump(100).unwrap();
        assert_eq!(hub.metrics.deliveries_delayed.get(), 1);
        assert_eq!(cache.read().table_ref("cust50").unwrap().row_count(), 50);
        // Still inside the hold window: nothing moves (and no new decision
        // is drawn because the node is skipped entirely).
        hub.clear_fault_plan();
        hub.pump(400).unwrap();
        assert_eq!(cache.read().table_ref("cust50").unwrap().row_count(), 50);
        // Past the deadline the held transaction delivers.
        hub.pump(700).unwrap();
        assert_eq!(cache.read().table_ref("cust50").unwrap().row_count(), 49);
    }

    #[test]
    fn resolve_idempotent_rewrites_against_current_state() {
        let (_backend, cache, mut hub) = setup();
        hub.subscribe(article(), &cache, &mut cache.write(), "cust50", 0).unwrap();
        let db = cache.read();
        // Insert of an existing identical row ⇒ no-op.
        let r = resolve_idempotent(
            &db,
            &RowChange::Insert {
                table: "cust50".into(),
                row: row![7, "c7"],
            },
        )
        .unwrap();
        assert!(r.is_empty());
        // Insert colliding with a different image ⇒ update.
        let r = resolve_idempotent(
            &db,
            &RowChange::Insert {
                table: "cust50".into(),
                row: row![7, "other"],
            },
        )
        .unwrap();
        assert!(matches!(&r[..], [RowChange::Update { .. }]));
        // Delete of an absent row ⇒ no-op.
        let r = resolve_idempotent(
            &db,
            &RowChange::Delete {
                table: "cust50".into(),
                row: row![999, "ghost"],
            },
        )
        .unwrap();
        assert!(r.is_empty());
        // Update whose target vanished ⇒ insert of the after-image.
        let r = resolve_idempotent(
            &db,
            &RowChange::Update {
                table: "cust50".into(),
                before: row![999, "ghost"],
                after: row![999, "materialized"],
            },
        )
        .unwrap();
        assert!(matches!(&r[..], [RowChange::Insert { .. }]));
    }

    #[test]
    fn multiple_subscribers_same_publication() {
        let (backend, cache1, mut hub) = setup();
        let mut cache2db = Database::new("cache2");
        cache2db
            .create_table(
                "cust50",
                Schema::new(vec![
                    Column::not_null("cid", DataType::Int),
                    Column::new("cname", DataType::Str),
                ]),
                &["cid".into()],
            )
            .unwrap();
        let cache2 = Arc::new(SnapshotDb::new(cache2db));
        hub.subscribe(article(), &cache1, &mut cache1.write(), "cust50", 0).unwrap();
        hub.subscribe(article(), &cache2, &mut cache2.write(), "cust50", 0).unwrap();
        backend
            .write()
            .apply(
                10,
                vec![RowChange::Delete {
                    table: "customer".into(),
                    row: row![3, "c3", 0.0],
                }],
            )
            .unwrap();
        hub.pump(20).unwrap();
        assert_eq!(cache1.read().table_ref("cust50").unwrap().row_count(), 49);
        assert_eq!(cache2.read().table_ref("cust50").unwrap().row_count(), 49);
    }

    #[test]
    fn detached_target_stops_receiving_and_unblocks_truncation() {
        let (backend, cache1, mut hub) = setup();
        let mut cache2db = Database::new("cache2");
        cache2db
            .create_table(
                "cust50",
                Schema::new(vec![
                    Column::not_null("cid", DataType::Int),
                    Column::new("cname", DataType::Str),
                ]),
                &["cid".into()],
            )
            .unwrap();
        let cache2 = Arc::new(SnapshotDb::new(cache2db));
        hub.subscribe(article(), &cache1, &mut cache1.write(), "cust50", 0).unwrap();
        hub.subscribe(article(), &cache2, &mut cache2.write(), "cust50", 0).unwrap();

        assert_eq!(hub.detach_target(&cache2), 1);
        assert_eq!(hub.subscriptions().len(), 1, "the node's entry is gone");
        assert!(hub.applied_lsn_for_target(&cache2).is_none());

        backend
            .write()
            .apply(
                10,
                vec![RowChange::Delete {
                    table: "customer".into(),
                    row: row![3, "c3", 0.0],
                }],
            )
            .unwrap();
        hub.pump(20).unwrap();
        // Live node applied; detached node is frozen at its old state.
        assert_eq!(cache1.read().table_ref("cust50").unwrap().row_count(), 49);
        assert_eq!(cache2.read().table_ref("cust50").unwrap().row_count(), 50);
        // The dead node does not pin the distribution queue or drained().
        assert_eq!(hub.distribution_depth(), 0);
        assert!(hub.drained());
        // Detaching twice is a no-op.
        assert_eq!(hub.detach_target(&cache2), 0);
    }

    #[test]
    fn applied_lsn_for_target_reads_the_nodes_cursor() {
        let (backend, cache, mut hub) = setup();
        hub.subscribe(article(), &cache, &mut cache.write(), "cust50", 0).unwrap();
        backend
            .write()
            .apply(
                10,
                vec![RowChange::Insert {
                    table: "customer".into(),
                    row: row![7_000, "new", 0.0],
                }],
            )
            .unwrap();
        let head = backend.read().log().head();
        assert!(hub.applied_lsn_for_target(&cache).unwrap() < head);
        assert_eq!(hub.lag_txns_for_target(&cache), Some(0)); // reader not run yet
        hub.pump(20).unwrap();
        assert_eq!(hub.applied_lsn_for_target(&cache), Some(head));
        assert_eq!(hub.lag_txns_for_target(&cache), Some(0));
    }

    fn orders_schema() -> Schema {
        Schema::new(vec![
            Column::not_null("oid", DataType::Int),
            Column::new("cid", DataType::Int),
        ])
    }

    /// `setup` plus an `orders` source table, with two views on the one
    /// node: `cust50` over `customer` and `ords` over `orders`.
    fn two_views() -> (Arc<RwLock<Database>>, Arc<SnapshotDb>, ReplicationHub) {
        let (backend, cache, mut hub) = setup();
        backend
            .write()
            .create_table("orders", orders_schema(), &["oid".into()])
            .unwrap();
        cache
            .write()
            .create_table("ords", orders_schema(), &["oid".into()])
            .unwrap();
        let Statement::Select(def) = parse_statement("SELECT oid, cid FROM orders").unwrap()
        else {
            panic!()
        };
        let ords = Article::from_select("ords", &def, &orders_schema()).unwrap();
        hub.subscribe(article(), &cache, &mut cache.write(), "cust50", 0).unwrap();
        hub.subscribe(ords, &cache, &mut cache.write(), "ords", 0).unwrap();
        (backend, cache, hub)
    }

    fn delete_customer(cid: i64) -> RowChange {
        RowChange::Delete {
            table: "customer".into(),
            row: row![cid, format!("c{cid}"), 0.0],
        }
    }

    fn insert_order(oid: i64, cid: i64) -> RowChange {
        RowChange::Insert {
            table: "orders".into(),
            row: row![oid, cid],
        }
    }

    #[test]
    fn one_transaction_over_two_views_is_one_delivery() {
        use mtc_util::fault::{FaultPlan, FaultSpec};
        let (backend, cache, mut hub) = two_views();
        hub.set_fault_plan(FaultPlan::new(1, FaultSpec::NONE));
        backend
            .write()
            .apply(10, vec![delete_customer(3), insert_order(1, 3)])
            .unwrap();
        let epoch = cache.epoch();
        hub.pump(20).unwrap();
        assert_eq!(hub.metrics.txns_applied.get(), 1, "one delivery");
        assert_eq!(hub.fault_counts().unwrap().decisions, 1, "one fault draw");
        assert_eq!(cache.epoch(), epoch + 1, "one publication");
        let db = cache.read();
        assert_eq!(db.table_ref("cust50").unwrap().row_count(), 49);
        assert_eq!(db.table_ref("ords").unwrap().row_count(), 1);
        assert_eq!(
            db.node_watermark().map(|w| w.lsn),
            hub.applied_lsn_for_target(&cache)
        );
    }

    #[test]
    fn a_dropped_transaction_holds_every_view_of_its_node() {
        use mtc_util::fault::{FaultPlan, FaultSpec};
        let (backend, cache, mut hub) = two_views();
        // The first draw drops, the second would deliver.
        let spec = FaultSpec::drop(0.5);
        let seed = (0u64..)
            .find(|&s| {
                let mut plan = FaultPlan::new(s, spec);
                plan.next_decision() == FaultDecision::Drop
                    && plan.next_decision() == FaultDecision::Deliver
            })
            .unwrap();
        hub.set_fault_plan(FaultPlan::new(seed, spec));
        // A reaches only `cust50`, B only `ords`.
        backend.write().apply(10, vec![delete_customer(3)]).unwrap();
        backend.write().apply(20, vec![insert_order(1, 3)]).unwrap();
        let before = cache.read().node_watermark();
        hub.pump(30).unwrap();
        assert_eq!(hub.metrics.deliveries_dropped.get(), 1);
        {
            let db = cache.read();
            assert_eq!(db.table_ref("cust50").unwrap().row_count(), 50, "A was dropped");
            assert_eq!(db.table_ref("ords").unwrap().row_count(), 0, "B must not pass A");
            assert_eq!(db.node_watermark(), before);
        }
        hub.clear_fault_plan();
        hub.pump(40).unwrap();
        let db = cache.read();
        assert_eq!(db.table_ref("cust50").unwrap().row_count(), 49);
        assert_eq!(db.table_ref("ords").unwrap().row_count(), 1);
        assert!(hub.drained());
    }

    /// One randomly generated run of the prefix-consistency property.
    #[derive(Debug)]
    struct Scenario {
        /// Per node, `(source table, v bound)` of each view; the last view
        /// of node `n` subscribes at step `late[n]`, the others up front.
        nodes: Vec<Vec<(usize, i64)>>,
        late: Vec<usize>,
        spec: mtc_util::fault::FaultSpec,
        seed: u64,
        /// One transaction per step: `(table, id, Some(v))` upserts,
        /// `(table, id, None)` deletes if present.
        steps: Vec<Vec<(usize, i64, Option<i64>)>>,
    }

    type Model = Vec<std::collections::BTreeMap<i64, i64>>;

    #[test]
    fn prefix_consistency_under_random_faults() {
        use mtc_util::check::{self, Config};
        use mtc_util::fault::{FaultPlan, FaultSpec};
        use mtc_util::rng::Rng;

        let schema = || {
            Schema::new(vec![
                Column::not_null("id", DataType::Int),
                Column::new("v", DataType::Int),
            ])
        };
        check::run(
            &Config::cases(48),
            "prefix_consistency_under_random_faults",
            |rng| Scenario {
                nodes: (0..2)
                    .map(|_| {
                        let n = rng.gen_range(2..4usize);
                        (0..n).map(|_| (rng.gen_range(0..3usize), rng.gen_range(2..9i64))).collect()
                    })
                    .collect(),
                late: (0..2).map(|_| rng.gen_range(0..30usize)).collect(),
                spec: FaultSpec {
                    drop_p: 0.15 * rng.gen_f64(),
                    duplicate_p: 0.15 * rng.gen_f64(),
                    delay_p: 0.15 * rng.gen_f64(),
                    delay_ms: rng.gen_range(1..40i64),
                    corrupt_p: 0.15 * rng.gen_f64(),
                    crash_every: [0, 3, 5, 7][rng.gen_range(0..4usize)],
                },
                seed: rng.gen_range(0..u64::MAX),
                steps: check::vec_of(rng, 10..40, |r| {
                    check::vec_of(r, 1..4, |r| {
                        let v = (!r.gen_bool(0.25)).then(|| r.gen_range(0..10i64));
                        (r.gen_range(0..3usize), r.gen_range(0..12i64), v)
                    })
                }),
            },
            |sc| {
                let mut publisher = Database::new("pub");
                let mut model: Model = vec![Default::default(); 3];
                for (k, rows) in model.iter_mut().enumerate() {
                    publisher.create_table(&format!("s{k}"), schema(), &["id".into()]).unwrap();
                    rows.extend((0..6).map(|id| (id, id)));
                    let load = rows
                        .iter()
                        .map(|(&id, &v)| RowChange::Insert {
                            table: format!("s{k}"),
                            row: row![id, v],
                        })
                        .collect();
                    publisher.apply(0, load).unwrap();
                }
                let publisher = Arc::new(RwLock::new(publisher));
                let mut hub = ReplicationHub::new(publisher.clone());
                let article = |k: usize, bound: i64, name: &str| {
                    let sql = format!("SELECT id, v FROM s{k} WHERE v < {bound}");
                    let Statement::Select(def) = parse_statement(&sql).unwrap() else {
                        unreachable!()
                    };
                    Article::from_select(name, &def, &schema()).unwrap()
                };
                let targets: Vec<Arc<SnapshotDb>> = sc
                    .nodes
                    .iter()
                    .map(|views| {
                        let mut db = Database::new("node");
                        for j in 0..views.len() {
                            db.create_table(&format!("v{j}"), schema(), &["id".into()]).unwrap();
                        }
                        Arc::new(SnapshotDb::new(db))
                    })
                    .collect();
                let subscribe = |hub: &mut ReplicationHub, n: usize, j: usize, now: i64| {
                    let (k, bound) = sc.nodes[n][j];
                    let target = &targets[n];
                    let name = format!("v{j}");
                    hub.subscribe(article(k, bound, &name), target, &mut target.write(), &name, now)
                        .unwrap();
                };
                for (n, views) in sc.nodes.iter().enumerate() {
                    for j in 0..views.len() - 1 {
                        subscribe(&mut hub, n, j, 0);
                    }
                }
                hub.set_fault_plan(FaultPlan::new(sc.seed, sc.spec));

                // `history[i]` = (LSN past a transaction, publisher state
                // holding every transaction below that LSN).
                let mut history = vec![(publisher.read().log().head(), model.clone())];
                let view_is_exact = |snap: &mtc_storage::DbSnapshot,
                                     history: &[(Lsn, Model)],
                                     n: usize,
                                     j: usize,
                                     at: Lsn| {
                    let (_, state) = history.iter().rev().find(|(l, _)| *l <= at).unwrap();
                    let (k, bound) = sc.nodes[n][j];
                    let want: Vec<_> = state[k]
                        .iter()
                        .filter(|(_, &v)| v < bound)
                        .map(|(&id, &v)| row![id, v])
                        .collect();
                    let mut got: Vec<_> =
                        snap.table_ref(&format!("v{j}")).unwrap().scan().cloned().collect();
                    got.sort();
                    assert_eq!(got, want, "node {n} view v{j} at {at:?}");
                };
                let mut marks: Vec<Option<Watermark>> = vec![None; targets.len()];
                let mut now = 0;
                for (step, ops) in sc.steps.iter().enumerate() {
                    now += 10;
                    let mut changes = Vec::new();
                    for &(k, id, v) in ops {
                        let table = format!("s{k}");
                        match (model[k].get(&id).copied(), v) {
                            (None, Some(v)) => changes.push(RowChange::Insert { table, row: row![id, v] }),
                            (Some(old), Some(v)) => changes.push(RowChange::Update {
                                table,
                                before: row![id, old],
                                after: row![id, v],
                            }),
                            (Some(old), None) => changes.push(RowChange::Delete { table, row: row![id, old] }),
                            (None, None) => continue,
                        }
                        match v {
                            Some(v) => model[k].insert(id, v),
                            None => model[k].remove(&id),
                        };
                    }
                    if !changes.is_empty() {
                        let lsn = publisher.write().apply(now, changes).unwrap();
                        history.push((lsn.next(), model.clone()));
                    }
                    for (n, &late) in sc.late.iter().enumerate() {
                        if late == step {
                            subscribe(&mut hub, n, sc.nodes[n].len() - 1, now);
                        }
                    }
                    let _ = hub.pump(now);
                    for (n, target) in targets.iter().enumerate() {
                        let snap = target.read();
                        let mark = snap.node_watermark().unwrap();
                        if let Some(prev) = marks[n] {
                            assert!(
                                mark.lsn >= prev.lsn && mark.synced_through_ms >= prev.synced_through_ms,
                                "node {n} watermark regressed: {prev:?} -> {mark:?}"
                            );
                        }
                        marks[n] = Some(mark);
                        for (j, view) in hub.nodes[n].views.iter().enumerate() {
                            if view.populated_at <= mark.lsn {
                                view_is_exact(&snap, &history, n, j, mark.lsn);
                            }
                        }
                    }
                }
                // A healed link drains, and every view converges.
                hub.clear_fault_plan();
                for _ in 0..10 {
                    now += 100;
                    let _ = hub.pump(now);
                }
                assert!(hub.drained());
                let head = publisher.read().log().head();
                for (n, target) in targets.iter().enumerate() {
                    let snap = target.read();
                    assert_eq!(snap.node_watermark().unwrap().lsn, head);
                    for j in 0..hub.nodes[n].views.len() {
                        view_is_exact(&snap, &history, n, j, head);
                    }
                }
            },
        );
    }
}
