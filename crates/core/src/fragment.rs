//! Intermediate-result (fragment) caching: memoized join/aggregate
//! subplan results with full replication-currency tracking.
//!
//! The engine's [`mtc_engine::FragmentMemo`] hook fires on every local
//! `HashJoin`/`HashAggregate` subtree root during compiled execution. This
//! module supplies the cache-server side of that hook: a gateway that
//! stores drained fragment rows in a dedicated [`ResultCache`] keyed by
//! the *normalized compiled-plan fingerprint* (operator shape with
//! parameter slots abstracted, plus the resolved parameter values), and
//! stamps each entry with the same currency lineage the statement-level
//! result cache uses (a [`Lineage`]):
//!
//! * **watermark** — the node's applied watermark, LSN and instant, taken
//!   from the *same immutable snapshot* the query executed against.
//!   Replication advances all of a node's cached views together, so a
//!   fragment is exactly as fresh as every view it read.
//! * **invalidation tables** — the backend *source* tables behind those
//!   views (via [`ViewMeta::base_object`]), so the replication hub's
//!   publisher-side invalidation stream, the one way a change reaches
//!   those views, raises the watermarks that flush statement results.
//! * **catalog version** — DDL (new views, drops) flushes fragments like
//!   it flushes plans and statement results.
//! * **work** — what recomputing the fragment costs, the admission benefit.
//!
//! A fragment scanning any object that is not a cached view (a shadow
//! table populated by some non-replicated path) is never admitted:
//! we could not invalidate it correctly, so we refuse to remember it.
//!
//! Serving a memoized fragment is *not* a staleness upgrade: the memo
//! answers with rows computed from replicated local data, which lags the
//! backend by design (§4); invalidation keeps the memo no staler than the
//! local views themselves.

use mtc_engine::{Answer, FragmentMemo, QueryResult};
use mtc_storage::DbSnapshot;
use mtc_types::{normalize_ident, Row};

use crate::result_cache::{Lineage, ResultCache};

/// Per-execution fragment-memo gateway: borrows the server's fragment
/// cache and the snapshot the query scans, so admitted entries carry the
/// snapshot's watermark (never the live cursor, which may have advanced
/// past what this execution observed).
pub struct FragmentGateway<'a> {
    cache: &'a ResultCache,
    snap: &'a DbSnapshot,
    catalog_version: u64,
}

impl<'a> FragmentGateway<'a> {
    pub fn new(
        cache: &'a ResultCache,
        snap: &'a DbSnapshot,
        catalog_version: u64,
    ) -> FragmentGateway<'a> {
        FragmentGateway {
            cache,
            snap,
            catalog_version,
        }
    }

    /// Backend source table behind one scanned object: the base table of a
    /// cached view, or the object itself when it is not a view (then it IS
    /// the replicated name the hub publishes invalidations under).
    fn source_table(&self, object: &str) -> String {
        let base = self
            .snap
            .catalog
            .view(object)
            .and_then(|v| v.base_object().map(str::to_string));
        normalize_ident(&base.unwrap_or_else(|| object.to_string()))
    }
}

impl FragmentMemo for FragmentGateway<'_> {
    fn lookup(&self, key: &str) -> Option<Vec<Row>> {
        // No currency bound: the memo may be exactly as stale as the local
        // views themselves (bounded statements bypass the plan cache and
        // re-route before execution, so a bound never reaches a fragment),
        // and so no instant to compare.
        self.cache
            .lookup(key, "", self.catalog_version, None, 0)
            .map(|(answer, _)| answer.to_result().rows)
    }

    fn admit(&self, key: &str, objects: &[String], rows: &[Row], work: f64) {
        // A constant fragment scanning nothing is not worth an entry.
        let Some(mark) = self.snap.node_watermark().filter(|_| !objects.is_empty()) else {
            return;
        };
        let mut tables = Vec::with_capacity(objects.len());
        for obj in objects {
            // Refuse to memoize anything we cannot invalidate: every
            // scanned object must be a cached view.
            if self.snap.watermark(obj).is_none() {
                return;
            }
            tables.push(self.source_table(obj));
        }
        tables.sort();
        tables.dedup();
        let Ok(answer) = Answer::from_result(QueryResult {
            rows: rows.to_vec(),
            ..Default::default()
        }) else {
            return;
        };
        // The recomputation cost is what a future hit saves.
        let lineage = Lineage {
            watermark: mark,
            tables: tables.into(),
            catalog_version: self.catalog_version,
            backend_work: work,
        };
        self.cache.admit(key, "", &answer, lineage);
    }
}
