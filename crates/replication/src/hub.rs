//! The replication hub: log reader + distribution database + distributor.
//!
//! Delivery is *fault-aware*: an optional seeded [`FaultPlan`] is consulted
//! on every delivery attempt and may drop, duplicate, delay or corrupt the
//! wire frame, or crash the "agent" mid-delivery. Recovery is built on two
//! invariants:
//!
//! 1. **LSN resume** — a subscription only advances `next_lsn` after a
//!    delivery fully succeeds, so any failed/lost/crashed attempt is
//!    redelivered from the distribution database on the next pass.
//! 2. **Idempotent apply** — changes are resolved against the subscriber's
//!    current state before applying (insert→upsert, delete-if-present,
//!    update-by-key), so duplicates and post-crash replays converge to the
//!    same state instead of double-applying or erroring.

use std::sync::Arc;

use mtc_util::fault::{FaultDecision, FaultPlan};
use mtc_util::sync::RwLock;

use mtc_storage::{CommittedTransaction, Database, Lsn, RowChange, SnapshotDb, Watermark};
use mtc_types::{Error, Result, Row};

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
/// reach a subscription's target.
///
/// The hub calls [`note_applied`](InvalidationSink::note_applied) whenever a
/// subscription targeting the registered database advances past a committed
/// transaction — whether the delivery applied rows, was filtered to nothing
/// by the article (the write still happened on the publisher), or applied
/// but then lost its progress record to an injected crash (the data *is* on
/// the target, so dependent cached results are stale either way). `tables`
/// are the *publisher-side* tables the transaction wrote; `lsn` is its
/// commit LSN. Notifications may repeat (duplicate delivery, crash replay):
/// implementations must be idempotent.
pub trait InvalidationSink: Send + Sync {
    fn note_applied(&self, tables: &[String], lsn: Lsn);
}

/// Identifies a subscription within a hub.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct SubscriptionId(pub usize);

/// Public snapshot of a subscription's state.
#[derive(Debug, Clone)]
pub struct SubscriptionInfo {
    pub id: SubscriptionId,
    pub article: String,
    pub target_table: String,
    pub next_lsn: Lsn,
    /// Commit timestamp (publisher clock) through which this subscriber is
    /// known to be in sync.
    pub synced_through_ms: i64,
    /// Delivery attempts spent on the transaction currently at `next_lsn`
    /// (0 when the head of the queue has not been attempted yet).
    pub attempts_at_next: u32,
    /// True once the subscription has been detached (its node crashed or was
    /// decommissioned); detached subscriptions receive no further deliveries.
    pub detached: bool,
}

struct Subscription {
    /// The declarative definition, and what distribution evaluates: the
    /// definition resolved against the source schema at `subscribe`.
    article: Article,
    resolved: ResolvedArticle,
    /// Snapshot-published target: deliveries mutate its master copy and
    /// each delivery publishes a fresh immutable snapshot on guard drop, so
    /// concurrent readers never block on (or observe a torn) apply.
    target: Arc<SnapshotDb>,
    target_table: String,
    next_lsn: Lsn,
    synced_through_ms: i64,
    /// Fault-injected hold: no deliveries to this subscription before this
    /// instant (publisher clock).
    delayed_until_ms: i64,
    /// Failed attempts for the transaction at `next_lsn`; reset on success.
    attempts_at_next: u32,
    /// The watermark last stamped onto the target's snapshots; used to skip
    /// a no-op publication when nothing advanced this pass.
    stamped: Watermark,
    /// Tombstone: the subscription's node crashed or was decommissioned.
    /// Detached subscriptions are skipped by distribution, ignored by the
    /// truncation minimum and by [`ReplicationHub::drained`], but stay in
    /// the vector so existing [`SubscriptionId`]s remain stable.
    detached: bool,
}

/// One transaction queued in the distribution database.
struct Pending {
    txn: CommittedTransaction,
}

/// The distributor: owns the distribution database, runs the log reader
/// against one publisher, and pushes changes to subscribers.
pub struct ReplicationHub {
    publisher: Arc<RwLock<Database>>,
    distribution: Vec<Pending>,
    last_read: Lsn,
    /// Experiment 2 knob: with the log reader off, nothing replicates and
    /// the publisher pays no replication overhead.
    pub log_reader_enabled: bool,
    subscriptions: Vec<Subscription>,
    pub costs: ReplicationCosts,
    /// Live pipeline counters (relaxed atomics). Shared as an `Arc`: clone
    /// it out of the hub once and observe replication progress without
    /// taking the hub lock — readers never queue behind an in-flight apply.
    pub metrics: Arc<SharedReplicationMetrics>,
    pub latency: LatencyStats,
    /// Seeded fault oracle consulted on every delivery attempt; `None`
    /// delivers everything perfectly (the pre-fault-injection behaviour).
    fault_plan: Option<FaultPlan>,
    /// Result-cache (or other) invalidation listeners, matched to
    /// subscriptions by target database identity (`Arc::ptr_eq`).
    invalidation_sinks: Vec<(Arc<SnapshotDb>, Arc<dyn InvalidationSink>)>,
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
            subscriptions: Vec::new(),
            costs: ReplicationCosts::default(),
            metrics: Arc::new(SharedReplicationMetrics::default()),
            latency: LatencyStats::default(),
            fault_plan: None,
            invalidation_sinks: Vec::new(),
        }
    }

    /// Registers an [`InvalidationSink`] to be notified whenever any
    /// subscription targeting `target` advances past a committed publisher
    /// transaction.
    pub fn register_invalidation_sink(
        &mut self,
        target: &Arc<SnapshotDb>,
        sink: Arc<dyn InvalidationSink>,
    ) {
        self.invalidation_sinks.push((target.clone(), sink));
    }

    pub fn publisher(&self) -> &Arc<RwLock<Database>> {
        &self.publisher
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

    /// Creates a push subscription for `article` targeting
    /// `target.target_table`, and *populates it with a consistent snapshot*
    /// ("when a cached view is created … replication then immediately
    /// populates the cached view and begins collecting and forwarding
    /// applicable changes", §3).
    pub fn subscribe(
        &mut self,
        article: Article,
        target: Arc<SnapshotDb>,
        target_table: &str,
        now_ms: i64,
    ) -> Result<SubscriptionId> {
        let publisher = self.publisher.clone();
        let pub_db = publisher.read();
        let source = pub_db.table_ref(&article.source)?;
        let resolved = article.resolve(source.schema())?;

        // Validate the projection covers the target's primary key so
        // deletes/updates can locate rows.
        {
            let tdb = target.read();
            let ttable = tdb.table_ref(target_table)?;
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
        let snapshot_lsn = pub_db.log().head();
        let rows: Vec<Row> = source
            .scan()
            .filter(|r| resolved.matches(r).unwrap_or(false))
            .map(|r| resolved.project(r))
            .collect();
        drop(pub_db);

        let mark = Watermark {
            lsn: snapshot_lsn,
            synced_through_ms: now_ms,
        };
        {
            // One write batch = one atomic publication: a concurrent reader
            // sees either no view rows or the complete initial snapshot,
            // already stamped with its watermark.
            let mut tdb = target.write();
            {
                let t = tdb.table_mut(target_table)?;
                t.truncate();
            }
            let changes: Vec<RowChange> = rows
                .into_iter()
                .map(|row| RowChange::Insert {
                    table: target_table.to_string(),
                    row,
                })
                .collect();
            self.metrics.changes_applied.add(changes.len() as u64);
            self.metrics.apply_work.add(self.costs.apply_per_change * changes.len() as f64);
            tdb.apply_unlogged(&changes)?;
            tdb.set_watermark(target_table, mark);
        }

        let id = SubscriptionId(self.subscriptions.len());
        self.subscriptions.push(Subscription {
            article,
            resolved,
            target,
            target_table: target_table.to_string(),
            next_lsn: snapshot_lsn,
            synced_through_ms: now_ms,
            delayed_until_ms: i64::MIN,
            attempts_at_next: 0,
            stamped: mark,
            detached: false,
        });
        Ok(id)
    }

    /// Detaches every subscription (and invalidation sink) whose target is
    /// `target` — the hub-side half of a node crash or decommission. The
    /// subscriptions are tombstoned, not removed, so other nodes'
    /// [`SubscriptionId`]s stay valid; a detached subscription receives no
    /// further deliveries, no longer holds back distribution truncation,
    /// and is ignored by [`drained`](ReplicationHub::drained). Returns the
    /// number of subscriptions detached. A node that rejoins does so *cold*:
    /// fresh target database, fresh `subscribe` calls, fresh snapshots.
    pub fn detach_target(&mut self, target: &Arc<SnapshotDb>) -> usize {
        let mut detached = 0;
        for sub in &mut self.subscriptions {
            if !sub.detached && Arc::ptr_eq(&sub.target, target) {
                sub.detached = true;
                detached += 1;
            }
        }
        self.invalidation_sinks.retain(|(t, _)| !Arc::ptr_eq(t, target));
        detached
    }

    /// Detaches a single subscription — the hub-side half of dropping one
    /// cached view while its node stays up. The subscription is tombstoned
    /// exactly like a crashed node's (no further deliveries, no truncation
    /// pin, ignored by [`drained`](ReplicationHub::drained)) so existing
    /// [`SubscriptionId`]s stay stable; invalidation sinks for the target
    /// remain registered because the node's other views still need them.
    /// Returns false if the id is unknown or already detached.
    pub fn unsubscribe(&mut self, id: SubscriptionId) -> bool {
        match self.subscriptions.get_mut(id.0) {
            Some(sub) if !sub.detached => {
                sub.detached = true;
                true
            }
            _ => false,
        }
    }

    /// The LSN *past* the last transaction applied to every live
    /// subscription targeting `target` — i.e. the node's applied LSN: all
    /// publisher transactions below it are fully reflected on that node.
    /// `None` when the target has no live subscriptions.
    pub fn applied_lsn_for_target(&self, target: &Arc<SnapshotDb>) -> Option<Lsn> {
        self.subscriptions
            .iter()
            .filter(|s| !s.detached && Arc::ptr_eq(&s.target, target))
            .map(|s| s.next_lsn)
            .min()
    }

    /// Read-but-unapplied backlog for the slowest live subscription
    /// targeting `target`, in transactions. `None` when the target has no
    /// live subscriptions.
    pub fn lag_txns_for_target(&self, target: &Arc<SnapshotDb>) -> Option<u64> {
        self.applied_lsn_for_target(target)
            .map(|next| self.last_read.0.saturating_sub(next.0))
    }

    /// Live (non-detached) subscriptions.
    pub fn live_subscription_count(&self) -> usize {
        self.subscriptions.iter().filter(|s| !s.detached).count()
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
            self.distribution.push(Pending { txn });
        }
    }

    /// Distribution pass: pushes pending transactions to every subscriber,
    /// one complete transaction at a time in commit order, then truncates
    /// the distribution database up to the slowest subscriber.
    ///
    /// Every delivery attempt consults the installed [`FaultPlan`] (if any).
    /// A faulted attempt never advances `next_lsn`, so the transaction is
    /// redelivered on a later pass; successful re-apply is idempotent (see
    /// [`apply_idempotent`]), so duplicates and post-crash replays converge.
    pub fn run_distribution(&mut self, now_ms: i64) -> Result<()> {
        let last_read = self.last_read;
        for sub in &mut self.subscriptions {
            // Tombstoned by a node crash/decommission: no deliveries, no
            // lag accounting, no watermark stamps.
            if sub.detached {
                continue;
            }
            // Lag gauge: transactions read by the log reader but not yet
            // applied to this subscription.
            let lag = last_read.0.saturating_sub(sub.next_lsn.0);
            self.metrics.max_lag_txns.raise_to(lag);
            // A fault-injected delay holds the whole subscription.
            if now_ms < sub.delayed_until_ms {
                continue;
            }
            for pending in &self.distribution {
                let txn = &pending.txn;
                if txn.lsn < sub.next_lsn {
                    continue;
                }
                let changes = filter_changes(&sub.resolved, &sub.target_table, &txn.changes)?;
                if changes.is_empty() {
                    // Nothing for this article: advance past it fault-free
                    // (there is no delivery to fault). The publisher write
                    // still happened, so invalidation listeners hear about
                    // it even though no rows land here.
                    sub.next_lsn = txn.lsn.next();
                    sub.synced_through_ms = txn.commit_ts_ms.max(sub.synced_through_ms);
                    notify_sinks(&self.invalidation_sinks, &sub.target, txn);
                    continue;
                }
                if sub.attempts_at_next > 0 {
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
                        // Lost in flight: the subscription blocks here until
                        // a later pass redelivers.
                        self.metrics.deliveries_dropped.inc();
                        sub.attempts_at_next += 1;
                        break;
                    }
                    FaultDecision::Delay { ms } => {
                        self.metrics.deliveries_delayed.inc();
                        sub.attempts_at_next += 1;
                        sub.delayed_until_ms = now_ms + ms;
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
                        sub.attempts_at_next += 1;
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
                            synced_through_ms: txn.commit_ts_ms.max(sub.synced_through_ms),
                        };
                        {
                            let mut tdb = sub.target.write();
                            let effective = apply_idempotent(&mut tdb, &delivered.changes)?;
                            tdb.set_watermark(&sub.target_table, mark);
                            self.metrics.changes_applied.add(effective);
                            self.metrics.apply_work.add(
                                self.costs.apply_per_change * delivered.changes.len() as f64,
                            );
                        }
                        sub.stamped = mark;
                        // Data is on the target: invalidate *before* the
                        // crash-injection branch below can abort the pass,
                        // so even applied-but-progress-lost deliveries
                        // flush dependent cached results.
                        notify_sinks(&self.invalidation_sinks, &sub.target, txn);
                        self.metrics.txns_applied.inc();
                        if matches!(decision, FaultDecision::Duplicate) {
                            // Redundant second delivery of the same frame;
                            // idempotent apply makes its net effect zero.
                            let dup = crate::wire::decode_frame(&frame)?;
                            self.metrics.wire_bytes.add(frame.len() as u64);
                            let mut tdb = sub.target.write();
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
                            sub.attempts_at_next += 1;
                            return Err(Error::replication(
                                "injected agent crash: delivery applied but progress record lost",
                            ));
                        }
                        if sub.attempts_at_next > 0 {
                            self.metrics.redeliveries.inc();
                            sub.attempts_at_next = 0;
                        }
                        sub.next_lsn = txn.lsn.next();
                        sub.synced_through_ms = txn.commit_ts_ms.max(sub.synced_through_ms);
                    }
                }
            }
            // Even with no pending work the subscriber is in sync with
            // everything the reader has seen.
            if self.distribution.is_empty() {
                sub.synced_through_ms = sub.synced_through_ms.max(now_ms);
            }
            // Skipped transactions (nothing for this article) and idle-sync
            // advances move `next_lsn`/`synced_through_ms` without touching
            // the target; restamp so queries routing off the snapshot they
            // scanned see the true currency. Monotone: never regresses a
            // stamp already published (e.g. after an injected crash, where
            // data applied but the hub's progress record was lost).
            let advanced = Watermark {
                lsn: sub.next_lsn.max(sub.stamped.lsn),
                synced_through_ms: sub.synced_through_ms.max(sub.stamped.synced_through_ms),
            };
            if advanced != sub.stamped {
                let mut tdb = sub.target.write();
                tdb.set_watermark(&sub.target_table, advanced);
                drop(tdb);
                sub.stamped = advanced;
            }
        }
        // Truncate the distribution database past the slowest *live*
        // subscriber — a detached (crashed) node must not pin the queue
        // forever.
        if let Some(min_next) = self
            .subscriptions
            .iter()
            .filter(|s| !s.detached)
            .map(|s| s.next_lsn)
            .min()
        {
            self.distribution.retain(|p| p.txn.lsn >= min_next);
        } else {
            self.distribution.clear();
        }
        Ok(())
    }

    /// One full pipeline pass (log reader + distributor).
    pub fn pump(&mut self, now_ms: i64) -> Result<()> {
        self.run_log_reader();
        self.run_distribution(now_ms)
    }

    /// How far behind (ms) the given subscription may be at `now_ms` — used
    /// by the freshness-aware router extension.
    pub fn staleness_ms(&self, id: SubscriptionId, now_ms: i64) -> Option<i64> {
        self.subscriptions
            .get(id.0)
            .map(|s| (now_ms - s.synced_through_ms).max(0))
    }

    /// Read-but-unapplied transaction backlog for one subscription, in
    /// transactions (0 = fully caught up with the log reader).
    pub fn lag_txns(&self, id: SubscriptionId) -> Option<u64> {
        self.subscriptions
            .get(id.0)
            .map(|s| self.last_read.0.saturating_sub(s.next_lsn.0))
    }

    /// The LSN *past* the last transaction durably applied to the given
    /// subscription — the point a crash-restarted agent resumes from.
    pub fn applied_lsn(&self, id: SubscriptionId) -> Option<Lsn> {
        self.subscriptions.get(id.0).map(|s| s.next_lsn)
    }

    /// True when the pipeline holds no undelivered work: the log reader has
    /// caught up with the publisher's log, the distribution database is
    /// empty, and every subscription has applied everything read.
    pub fn drained(&self) -> bool {
        let head = self.publisher.read().log().head();
        self.distribution.is_empty()
            && self.last_read == head
            && self
                .subscriptions
                .iter()
                .filter(|s| !s.detached)
                .all(|s| s.next_lsn >= self.last_read)
    }

    pub fn subscriptions(&self) -> Vec<SubscriptionInfo> {
        self.subscriptions
            .iter()
            .enumerate()
            .map(|(i, s)| SubscriptionInfo {
                id: SubscriptionId(i),
                article: s.article.name.clone(),
                target_table: s.target_table.clone(),
                next_lsn: s.next_lsn,
                synced_through_ms: s.synced_through_ms,
                attempts_at_next: s.attempts_at_next,
                detached: s.detached,
            })
            .collect()
    }

    /// Pending (read-but-undistributed) transactions.
    pub fn distribution_depth(&self) -> usize {
        self.distribution.len()
    }
}

/// Notifies every sink registered for `target` about the publisher-side
/// tables `txn` wrote. Tables are deduplicated; sink implementations are
/// idempotent, so repeat notification (duplicate delivery, crash replay,
/// several subscriptions on the same target) is harmless.
fn notify_sinks(
    sinks: &[(Arc<SnapshotDb>, Arc<dyn InvalidationSink>)],
    target: &Arc<SnapshotDb>,
    txn: &CommittedTransaction,
) {
    if sinks.is_empty() {
        return;
    }
    let mut tables: Vec<String> = txn.changes.iter().map(|c| c.table().to_string()).collect();
    tables.sort();
    tables.dedup();
    for (t, sink) in sinks {
        if Arc::ptr_eq(t, target) {
            sink.note_applied(&tables, txn.lsn);
        }
    }
}

/// Converts publisher row changes into subscriber row changes for one
/// article: filtering rows, projecting columns, and handling rows that move
/// in/out of the article's row filter on update.
fn filter_changes(
    article: &ResolvedArticle,
    target_table: &str,
    changes: &[RowChange],
) -> Result<Vec<RowChange>> {
    let table = || target_table.to_string();
    let mut out = Vec::new();
    for change in changes {
        if !article.reads(change.table()) {
            continue;
        }
        match change {
            RowChange::Insert { row, .. } => {
                if article.matches(row)? {
                    out.push(RowChange::Insert {
                        table: table(),
                        row: article.project(row),
                    });
                }
            }
            RowChange::Delete { row, .. } => {
                if article.matches(row)? {
                    out.push(RowChange::Delete {
                        table: table(),
                        row: article.project(row),
                    });
                }
            }
            RowChange::Update { before, after, .. } => {
                match (article.matches(before)?, article.matches(after)?) {
                    (true, true) => out.push(RowChange::Update {
                        table: table(),
                        before: article.project(before),
                        after: article.project(after),
                    }),
                    (true, false) => out.push(RowChange::Delete {
                        table: table(),
                        row: article.project(before),
                    }),
                    (false, true) => out.push(RowChange::Insert {
                        table: table(),
                        row: article.project(after),
                    }),
                    (false, false) => {}
                }
            }
        }
    }
    Ok(out)
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
        hub.subscribe(article(), cache.clone(), "cust50", 0).unwrap();
        assert_eq!(cache.read().table_ref("cust50").unwrap().row_count(), 50);
        // Projection applied: only 2 columns.
        let db = cache.read();
        let t = db.table_ref("cust50").unwrap();
        assert_eq!(t.get(&row![7]).unwrap().len(), 2);
    }

    #[test]
    fn incremental_changes_propagate_in_commit_order() {
        let (backend, cache, mut hub) = setup();
        hub.subscribe(article(), cache.clone(), "cust50", 0).unwrap();
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
        hub.subscribe(article(), cache.clone(), "cust50", 0).unwrap();
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
        hub.subscribe(article(), cache.clone(), "cust50", 0).unwrap();
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
        hub.subscribe(article(), cache.clone(), "cust50", 0).unwrap();
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
        hub.subscribe(article(), late.clone(), "cust50", 100).unwrap();
        assert_eq!(late.read().table_ref("cust50").unwrap().row_count(), 47);
        assert_eq!(backend.write().apply(200, vec![delete(4)]).unwrap(), head);
        hub.pump(300).unwrap();
        assert!(hub.drained());
        assert!(backend.read().log().is_empty());
        for target in [&cache, &late] {
            let db = target.read();
            assert_eq!(db.table_ref("cust50").unwrap().row_count(), 46);
            assert_eq!(db.applied_lsn("cust50"), Some(head.next()));
        }
    }

    #[test]
    fn distribution_database_truncates_after_delivery() {
        let (backend, cache, mut hub) = setup();
        hub.subscribe(article(), cache.clone(), "cust50", 0).unwrap();
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
        hub.subscribe(article(), cache.clone(), "cust50", 0).unwrap();
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
        let err = hub.subscribe(bad, cache, "cust50", 0).unwrap_err();
        assert_eq!(err.kind(), "replication");
    }

    #[test]
    fn staleness_tracks_sync_point() {
        let (backend, cache, mut hub) = setup();
        let id = hub.subscribe(article(), cache.clone(), "cust50", 0).unwrap();
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
        // Before pumping, staleness grows with now.
        assert_eq!(hub.staleness_ms(id, 5_000), Some(5_000));
        hub.pump(6_000).unwrap();
        // Synced through the last commit (1s) and the queue is empty, so the
        // next distribution pass at 6s marks full sync.
        hub.run_distribution(6_000).unwrap();
        assert_eq!(hub.staleness_ms(id, 6_500), Some(500));
    }

    #[test]
    fn duplicate_delivery_is_idempotent() {
        use mtc_util::fault::{FaultPlan, FaultSpec};
        let (backend, cache, mut hub) = setup();
        hub.subscribe(article(), cache.clone(), "cust50", 0).unwrap();
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
        let id = hub.subscribe(article(), cache.clone(), "cust50", 0).unwrap();
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
        assert_eq!(hub.lag_txns(id), Some(1));
        assert!(!hub.drained());
        // Heal the link: redelivery applies and counters record the retry.
        hub.clear_fault_plan();
        hub.pump(30).unwrap();
        assert_eq!(cache.read().table_ref("cust50").unwrap().row_count(), 49);
        assert_eq!(hub.metrics.retries.get(), 1);
        assert_eq!(hub.metrics.redeliveries.get(), 1);
        assert_eq!(hub.lag_txns(id), Some(0));
        assert!(hub.drained());
    }

    #[test]
    fn corrupt_frame_surfaces_encoding_error_and_retries() {
        use mtc_util::fault::{FaultPlan, FaultSpec};
        let (backend, cache, mut hub) = setup();
        hub.subscribe(article(), cache.clone(), "cust50", 0).unwrap();
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
        let id = hub.subscribe(article(), cache.clone(), "cust50", 0).unwrap();
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
        let before_lsn = hub.applied_lsn(id).unwrap();
        let err = hub.pump(20).unwrap_err();
        assert_eq!(err.kind(), "replication");
        // The change *did* land, but the progress record was lost.
        assert_eq!(
            cache.read().table_ref("cust50").unwrap().get(&row![2]).unwrap()[1],
            Value::str("c2-crash")
        );
        assert_eq!(hub.applied_lsn(id), Some(before_lsn), "LSN not advanced");
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
        hub.subscribe(article(), cache.clone(), "cust50", 0).unwrap();
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
        // is drawn because the subscription is skipped entirely).
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
        hub.subscribe(article(), cache.clone(), "cust50", 0).unwrap();
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
        hub.subscribe(article(), cache1.clone(), "cust50", 0).unwrap();
        hub.subscribe(article(), cache2.clone(), "cust50", 0).unwrap();
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
        hub.subscribe(article(), cache1.clone(), "cust50", 0).unwrap();
        hub.subscribe(article(), cache2.clone(), "cust50", 0).unwrap();

        assert_eq!(hub.detach_target(&cache2), 1);
        assert_eq!(hub.live_subscription_count(), 1);
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
        let infos = hub.subscriptions();
        assert!(!infos[0].detached && infos[1].detached);
        // Detaching twice is a no-op.
        assert_eq!(hub.detach_target(&cache2), 0);
    }

    #[test]
    fn applied_lsn_for_target_is_min_over_that_targets_subscriptions() {
        let (backend, cache, mut hub) = setup();
        hub.subscribe(article(), cache.clone(), "cust50", 0).unwrap();
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
}
