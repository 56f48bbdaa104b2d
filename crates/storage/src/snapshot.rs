//! Epoch-published database snapshots: readers never block on writers.
//!
//! The seed served every query under a coarse `RwLock<Database>` read lock,
//! so each replication `apply` write-locked the world and stalled every
//! concurrent session for the duration of the apply. [`SnapshotDb`]
//! replaces that scheme with *publication*:
//!
//! * The **master** copy of the database lives behind a mutex that only
//!   writers touch. Writers mutate it through [`SnapshotDb::write`], which
//!   batches everything done under one guard — a whole replication
//!   delivery, a whole DML transaction, a whole DDL statement — and, on
//!   guard drop, *publishes* a fresh immutable [`DbSnapshot`] through an
//!   [`ArcSwap`] in a single pointer swap.
//! * Readers call [`SnapshotDb::read`] and get an `Arc<DbSnapshot>`: a
//!   consistent, immutable image stamped with a monotonically increasing
//!   publication **epoch** and the node's one **applied-LSN watermark**. A
//!   reader holds no lock while it executes; a concurrent apply publishes
//!   *around* it and can never tear the image out from under it.
//!
//! The watermark is how the currency router reads its staleness off the
//! snapshot *it actually scanned*: the replication distributor stamps the
//! node's applied LSN on the write guard before publishing, and the router
//! later compares that stamp — not the live cursor, which may have
//! advanced since — against the backend's commit LSN. Replication applies
//! whole transactions to all of a node's cached views at once, so one mark
//! covers them all.
//!
//! # What a publication costs
//!
//! Master and snapshots hold the database as an `Arc<Database>`, and the
//! database holds its tables, indexes, catalog and log behind `Arc`s of
//! their own (table rows and index entries in [`PMap`](crate::pmap::PMap)
//! chunks of shared row pointers). Publishing is a reference-count bump of
//! the master's `Arc` plus a copy of the one watermark; nothing else is
//! copied at that moment. The copying happens in the *next* batch, lazily
//! and only where it writes: the first mutable access unshares the
//! `Database` shell (two name maps of pointers), the first write to a table
//! or index unshares its chunk directory, and each write copies the one
//! chunk of pointers it lands in, once per batch. A batch that only stamps
//! a watermark never takes the database mutably, so the snapshot it
//! publishes carries the very `Arc<Database>` the previous one carried.
//!
//! [`ArcSwap`]: mtc_util::sync::ArcSwap

use std::ops::{Deref, DerefMut};
use std::sync::Arc;

use mtc_util::sync::{ArcSwap, Mutex, MutexGuard};

use crate::database::Database;
use crate::log::Lsn;

/// Replication progress stamped on a node's snapshot: the LSN *past* the
/// last transaction whose effects are contained in the image, and the
/// publisher-clock instant the node is synced through.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Watermark {
    /// Transactions with `lsn < self.lsn` are fully reflected in the image.
    pub lsn: Lsn,
    /// Publisher-clock commit time through which the node is in sync.
    pub synced_through_ms: i64,
}

impl Watermark {
    /// How far behind `now_ms` (publisher clock) the stamped data may be:
    /// `max(0, now − synced_through_ms)`.
    pub fn staleness_ms(&self, now_ms: i64) -> i64 {
        now_ms.saturating_sub(self.synced_through_ms).max(0)
    }

    /// Whether the stamped data may serve a read bounded by `bound_ms` at
    /// `now_ms`: staleness ≤ bound, the one currency test of every tier.
    pub fn within(&self, bound_ms: i64, now_ms: i64) -> bool {
        self.staleness_ms(now_ms) <= bound_ms
    }
}

/// An immutable, consistently published image of a [`Database`].
///
/// Derefs to [`Database`], so everything that reads a database reads a
/// snapshot unchanged. Carries the publication [`epoch`](DbSnapshot::epoch)
/// and the replication [`watermark`](DbSnapshot::watermark) that was
/// current when this image was published.
#[derive(Debug, Clone)]
pub struct DbSnapshot {
    db: Arc<Database>,
    epoch: u64,
    watermark: Option<Watermark>,
}

impl DbSnapshot {
    /// Publication sequence number: strictly increases with every publish.
    /// Two reads observing the same epoch observed the identical image.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// The node's replication watermark as of this snapshot, or `None` if
    /// replication has never stamped it.
    pub fn node_watermark(&self) -> Option<Watermark> {
        self.watermark
    }

    /// The watermark that covers `object` in this snapshot: the node's,
    /// when `object` is a cached view of this snapshot's catalog, and
    /// `None` otherwise.
    pub fn watermark(&self, object: &str) -> Option<Watermark> {
        let view = self.catalog.view(object)?;
        self.watermark.filter(|_| view.is_cached)
    }

    /// The applied-LSN half of [`watermark`](DbSnapshot::watermark).
    pub fn applied_lsn(&self, object: &str) -> Option<Lsn> {
        self.watermark(object).map(|w| w.lsn)
    }
}

impl Deref for DbSnapshot {
    type Target = Database;
    fn deref(&self) -> &Database {
        &self.db
    }
}

/// The writer-side state: the authoritative database plus the watermark
/// and epoch counter the next publication will carry.
#[derive(Debug)]
struct Master {
    db: Arc<Database>,
    watermark: Option<Watermark>,
    epoch: u64,
}

/// A database whose read state is an epoch-published snapshot.
///
/// See the module docs for the publication protocol. The call shape
/// matches the `RwLock<Database>` it replaces — `.read()` for queries,
/// `.write()` for mutation — so call sites migrate without restructuring;
/// the difference is that `read()` returns an owned `Arc<DbSnapshot>`
/// instead of a guard, and `write()` publishes on drop.
#[derive(Debug)]
pub struct SnapshotDb {
    master: Mutex<Master>,
    published: ArcSwap<DbSnapshot>,
}

impl SnapshotDb {
    /// Wraps `db`, publishing it as epoch 0.
    pub fn new(db: Database) -> SnapshotDb {
        let db = Arc::new(db);
        let snapshot = DbSnapshot {
            db: db.clone(),
            epoch: 0,
            watermark: None,
        };
        SnapshotDb {
            master: Mutex::new(Master {
                db,
                watermark: None,
                epoch: 0,
            }),
            published: ArcSwap::from_value(snapshot),
        }
    }

    /// Returns the currently published snapshot. Never blocks on writers
    /// beyond the pointer swap itself; the returned image is immutable and
    /// survives any number of subsequent publications unchanged.
    pub fn read(&self) -> Arc<DbSnapshot> {
        self.published.load()
    }

    /// The epoch of the currently published snapshot.
    pub fn epoch(&self) -> u64 {
        self.published.load().epoch
    }

    /// Opens a write batch against the master copy. Everything mutated
    /// through the returned guard becomes visible to readers *atomically*
    /// when the guard drops and publishes the next snapshot — readers never
    /// observe a torn intermediate state.
    pub fn write(&self) -> SnapshotWriteGuard<'_> {
        SnapshotWriteGuard {
            master: self.master.lock(),
            published: &self.published,
        }
    }
}

impl From<Database> for SnapshotDb {
    fn from(db: Database) -> SnapshotDb {
        SnapshotDb::new(db)
    }
}

/// Exclusive write access to the master database; publishes on drop.
///
/// Derefs to [`Database`] so existing mutation code compiles unchanged.
/// Use [`set_watermark`](SnapshotWriteGuard::set_watermark) to stamp a
/// replication watermark that the published snapshot (and every later one)
/// will carry.
pub struct SnapshotWriteGuard<'a> {
    master: MutexGuard<'a, Master>,
    published: &'a ArcSwap<DbSnapshot>,
}

impl SnapshotWriteGuard<'_> {
    /// Records the node's replication progress. The stamp rides on the
    /// snapshot published when this guard drops (and on every later one,
    /// until restamped).
    pub fn set_watermark(&mut self, mark: Watermark) {
        self.master.watermark = Some(mark);
    }
}

impl Deref for SnapshotWriteGuard<'_> {
    type Target = Database;
    fn deref(&self) -> &Database {
        &self.master.db
    }
}

impl DerefMut for SnapshotWriteGuard<'_> {
    fn deref_mut(&mut self) -> &mut Database {
        Arc::make_mut(&mut self.master.db)
    }
}

impl Drop for SnapshotWriteGuard<'_> {
    fn drop(&mut self) {
        self.master.epoch += 1;
        let snapshot = DbSnapshot {
            db: self.master.db.clone(),
            epoch: self.master.epoch,
            watermark: self.master.watermark,
        };
        self.published.store(Arc::new(snapshot));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mtc_types::{row, Column, DataType, Schema};

    fn db_with_t() -> Database {
        let mut db = Database::new("snap");
        db.create_table(
            "t",
            Schema::new(vec![
                Column::not_null("id", DataType::Int),
                Column::new("v", DataType::Str),
            ]),
            &["id".into()],
        )
        .unwrap();
        db
    }

    fn ins(i: i64, v: &str) -> crate::log::RowChange {
        crate::log::RowChange::Insert {
            table: "t".into(),
            row: row![i, v],
        }
    }

    #[test]
    fn held_snapshot_is_immune_to_later_writes() {
        let sdb = SnapshotDb::new(db_with_t());
        sdb.write().apply_unlogged(&[ins(1, "a")]).unwrap();
        let before = sdb.read();
        sdb.write().apply_unlogged(&[ins(2, "b")]).unwrap();
        assert_eq!(before.table_ref("t").unwrap().row_count(), 1);
        assert_eq!(sdb.read().table_ref("t").unwrap().row_count(), 2);
    }

    #[test]
    fn publication_is_atomic_per_guard() {
        let sdb = SnapshotDb::new(db_with_t());
        let watching = sdb.read();
        {
            let mut g = sdb.write();
            g.apply_unlogged(&[ins(1, "a")]).unwrap();
            // Mid-batch: nothing published yet.
            assert_eq!(sdb.read().epoch(), watching.epoch());
            assert_eq!(sdb.read().table_ref("t").unwrap().row_count(), 0);
            g.apply_unlogged(&[ins(2, "b")]).unwrap();
        }
        // Both changes land in one publication.
        let now = sdb.read();
        assert_eq!(now.epoch(), watching.epoch() + 1);
        assert_eq!(now.table_ref("t").unwrap().row_count(), 2);
    }

    #[test]
    fn epochs_strictly_increase() {
        let sdb = SnapshotDb::new(db_with_t());
        let mut last = sdb.epoch();
        for i in 0..10 {
            sdb.write().apply_unlogged(&[ins(i + 1, "x")]).unwrap();
            let e = sdb.epoch();
            assert!(e > last);
            last = e;
        }
    }

    #[test]
    fn watermarks_ride_on_publication() {
        let sdb = SnapshotDb::new(db_with_t());
        assert_eq!(sdb.read().node_watermark(), None);
        {
            let mut g = sdb.write();
            g.apply_unlogged(&[ins(1, "a")]).unwrap();
            g.set_watermark(Watermark {
                lsn: Lsn(5),
                synced_through_ms: 100,
            });
        }
        let snap = sdb.read();
        assert_eq!(snap.node_watermark().map(|w| w.lsn), Some(Lsn(5)));
        assert_eq!(snap.node_watermark().unwrap().synced_through_ms, 100);
        // A later, unrelated publication keeps the stamp.
        sdb.write().apply_unlogged(&[ins(2, "b")]).unwrap();
        assert_eq!(sdb.read().node_watermark().map(|w| w.lsn), Some(Lsn(5)));
        // But the snapshot captured earlier still shows its own stamp even
        // after the watermark advances.
        sdb.write().set_watermark(Watermark {
            lsn: Lsn(9),
            synced_through_ms: 900,
        });
        assert_eq!(snap.node_watermark().map(|w| w.lsn), Some(Lsn(5)));
        assert_eq!(sdb.read().node_watermark().map(|w| w.lsn), Some(Lsn(9)));
    }

    #[test]
    fn only_cached_views_carry_the_node_watermark() {
        let sdb = SnapshotDb::new(db_with_t());
        let mark = Watermark {
            lsn: Lsn(3),
            synced_through_ms: 30,
        };
        {
            let mut g = sdb.write();
            let mtc_sql::Statement::Select(definition) =
                mtc_sql::parse_statement("SELECT id, v FROM src").unwrap()
            else {
                unreachable!()
            };
            g.catalog_mut()
                .create_view(crate::catalog::ViewMeta {
                    name: "t".into(),
                    definition,
                    materialized: true,
                    is_cached: true,
                })
                .unwrap();
            g.set_watermark(mark);
        }
        let snap = sdb.read();
        assert_eq!(snap.watermark("T"), Some(mark));
        assert_eq!(snap.applied_lsn("t"), Some(Lsn(3)));
        assert_eq!(snap.watermark("src"), None, "not a cached view");
    }

    #[test]
    fn concurrent_readers_see_whole_transactions_only() {
        // Writers insert pairs (2k, 2k+1) under one guard; readers must
        // never observe an odd row count.
        let sdb = Arc::new(SnapshotDb::new(db_with_t()));
        let stop = Arc::new(std::sync::atomic::AtomicBool::new(false));
        let readers: Vec<_> = (0..4)
            .map(|_| {
                let sdb = sdb.clone();
                let stop = stop.clone();
                std::thread::spawn(move || {
                    let mut max_epoch = 0;
                    while !stop.load(std::sync::atomic::Ordering::Relaxed) {
                        let s = sdb.read();
                        let n = s.table_ref("t").unwrap().row_count();
                        assert_eq!(n % 2, 0, "torn publication: {n} rows");
                        assert!(s.epoch() >= max_epoch, "epoch went backwards");
                        max_epoch = s.epoch();
                    }
                })
            })
            .collect();
        for k in 0..200i64 {
            let mut g = sdb.write();
            g.apply_unlogged(&[ins(2 * k, "a"), ins(2 * k + 1, "b")])
                .unwrap();
        }
        stop.store(true, std::sync::atomic::Ordering::Relaxed);
        for r in readers {
            r.join().unwrap();
        }
        assert_eq!(sdb.read().table_ref("t").unwrap().row_count(), 400);
    }
}
