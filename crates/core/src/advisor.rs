//! Cache-design advisor (§7: "there are currently no tools to help a DBA
//! define a caching strategy by analyzing a workload ... such a design tool
//! would be highly desirable").
//!
//! Given a workload trace (SQL text + relative frequency), the advisor
//! scores each base table by how much *read* work touches it versus how
//! much *write* traffic it receives, and recommends select-project cached
//! views (projecting exactly the referenced columns) for the tables where
//! offloading pays. Stored procedures whose statements are read-only and
//! fully covered by the recommended views are suggested for copying.

use std::collections::{BTreeMap, BTreeSet, VecDeque};

use mtc_util::sync::Mutex;

use mtc_sql::{parse_statement, Select, Statement, TableRef};
use mtc_storage::Database;
use mtc_types::Result;

/// One workload entry: a statement and its relative frequency.
#[derive(Debug, Clone)]
pub struct WorkloadEntry {
    pub sql: String,
    pub frequency: f64,
}

/// A recommended cached view.
#[derive(Debug, Clone, PartialEq)]
pub struct Recommendation {
    pub view_name: String,
    /// The view as `CREATE MATERIALIZED VIEW …` text; its SELECT is what
    /// [`crate::CacheServer::create_cached_view`] takes (the statement
    /// itself, sent to any server, makes a backend materialized view).
    pub create_sql: String,
    /// The projected columns (referenced + primary key), in schema order.
    pub columns: Vec<String>,
    /// Supporting indexes for the view's backing table, as
    /// `(index_name, column)` — one per non-key column the workload
    /// filters on (the paper's "all indexes on the cache servers were
    /// identical to the backend"; without them a point query on a non-key
    /// column costs a full local scan and the optimizer keeps routing it
    /// to the backend).
    pub indexes: Vec<(String, String)>,
    /// Estimated read work units per unit time offloaded by this view.
    pub benefit: f64,
    /// Estimated replication apply work per unit time it costs.
    pub maintenance: f64,
}

/// Advisor configuration.
#[derive(Debug, Clone)]
pub struct AdvisorOptions {
    /// Only recommend views whose benefit exceeds `min_benefit_ratio` times
    /// their maintenance cost.
    pub min_benefit_ratio: f64,
}

impl Default for AdvisorOptions {
    fn default() -> AdvisorOptions {
        AdvisorOptions {
            min_benefit_ratio: 2.0,
        }
    }
}

#[derive(Default)]
struct TableTraffic {
    read_freq: f64,
    write_freq: f64,
    columns: BTreeSet<String>,
    /// Columns appearing in WHERE clauses — candidates for supporting
    /// indexes on the cached view's backing table.
    filter_columns: BTreeSet<String>,
}

/// Per-table read/write traffic of a workload trace, with proc bodies
/// expanded through the catalog. Shared by the offline [`recommend`] pass
/// and the online advisor's cold-view detection.
fn gather_traffic(db: &Database, workload: &[WorkloadEntry]) -> BTreeMap<String, TableTraffic> {
    let mut traffic: BTreeMap<String, TableTraffic> = BTreeMap::new();

    for entry in workload {
        let statements = match mtc_sql::parse_statements(&entry.sql) {
            Ok(s) => s,
            Err(_) => continue, // skip unparseable trace entries
        };
        for stmt in statements {
            match &stmt {
                Statement::Select(sel) => {
                    record_select(db, sel, entry.frequency, &mut traffic);
                }
                Statement::Insert { table, .. }
                | Statement::Update { table, .. }
                | Statement::Delete { table, .. } => {
                    traffic.entry(table.clone()).or_default().write_freq +=
                        entry.frequency;
                }
                Statement::Exec { proc, .. } => {
                    if let Some(def) = db.catalog.procedure(proc) {
                        for s in &def.body {
                            match &s.statement {
                                Statement::Select(sel) => {
                                    record_select(db, sel, entry.frequency, &mut traffic)
                                }
                                Statement::Insert { table, .. }
                                | Statement::Update { table, .. }
                                | Statement::Delete { table, .. } => {
                                    traffic.entry(table.clone()).or_default().write_freq +=
                                        entry.frequency;
                                }
                                _ => {}
                            }
                        }
                    }
                }
                _ => {}
            }
        }
    }
    traffic
}

/// Analyzes a workload against the backend catalog and recommends cached
/// views.
pub fn recommend(
    db: &Database,
    workload: &[WorkloadEntry],
    options: &AdvisorOptions,
) -> Result<Vec<Recommendation>> {
    Ok(recommend_for(db, &gather_traffic(db, workload), options))
}

/// [`recommend`] over a workload's already gathered traffic.
fn recommend_for(
    db: &Database,
    traffic: &BTreeMap<String, TableTraffic>,
    options: &AdvisorOptions,
) -> Vec<Recommendation> {
    let mut recs = Vec::new();
    for (table, t) in traffic {
        if t.read_freq <= 0.0 {
            continue;
        }
        let Ok(base) = db.table_ref(table) else {
            continue;
        };
        let rows = db
            .catalog
            .stats(table)
            .map(|s| s.row_count as f64)
            .unwrap_or(1000.0);
        // Benefit: read frequency × per-query scan work saved.
        let benefit = t.read_freq * rows;
        // Maintenance: write frequency × per-change apply work.
        let maintenance = t.write_freq * 3.0;
        if benefit < options.min_benefit_ratio * maintenance.max(1.0) {
            continue;
        }
        // Project referenced columns plus the primary key (required for
        // replication apply).
        let mut cols: BTreeSet<String> = t
            .columns
            .iter()
            .filter(|c| base.schema().contains(c))
            .cloned()
            .collect();
        for &pk in base.primary_key() {
            cols.insert(base.schema().column(pk).name.clone());
        }
        // Keep schema order.
        let ordered: Vec<String> = base
            .schema()
            .columns()
            .iter()
            .map(|c| c.name.clone())
            .filter(|c| cols.contains(c))
            .collect();
        let view_name = format!("cv_{table}");
        let pk_names: BTreeSet<String> = base
            .primary_key()
            .iter()
            .map(|&i| base.schema().column(i).name.clone())
            .collect();
        let indexes: Vec<(String, String)> = ordered
            .iter()
            .filter(|c| t.filter_columns.contains(*c) && !pk_names.contains(*c))
            .map(|c| (format!("ix_{view_name}_{c}"), c.clone()))
            .collect();
        recs.push(Recommendation {
            create_sql: format!(
                "CREATE MATERIALIZED VIEW {view_name} AS SELECT {} FROM {table}",
                ordered.join(", ")
            ),
            columns: ordered,
            indexes,
            view_name,
            benefit,
            maintenance,
        });
    }
    recs.sort_by(|a, b| b.benefit.total_cmp(&a.benefit));
    recs
}

fn record_select(
    db: &Database,
    sel: &Select,
    freq: f64,
    traffic: &mut BTreeMap<String, TableTraffic>,
) {
    fn tables(t: &TableRef, out: &mut Vec<String>) {
        match t {
            TableRef::Table { name, .. } => out.push(name.clone()),
            TableRef::Join { left, right, .. } => {
                tables(left, out);
                tables(right, out);
            }
        }
    }
    let mut names = Vec::new();
    for t in &sel.from {
        tables(t, &mut names);
    }
    // Column references anywhere in the statement, assigned to whichever
    // table's schema contains them.
    let mut cols: Vec<String> = Vec::new();
    let mut where_cols: Vec<String> = Vec::new();
    if let Some(w) = &sel.selection {
        cols.extend(w.columns().iter().map(|c| c.to_string()));
        where_cols.extend(w.columns().iter().map(|c| c.to_string()));
    }
    for item in &sel.projection {
        if let mtc_sql::SelectItem::Expr { expr, .. } = item {
            cols.extend(expr.columns().iter().map(|c| c.to_string()));
        }
    }
    for g in &sel.group_by {
        cols.extend(g.columns().iter().map(|c| c.to_string()));
    }
    for o in &sel.order_by {
        cols.extend(o.expr.columns().iter().map(|c| c.to_string()));
    }
    for name in names {
        let entry = traffic.entry(name.clone()).or_default();
        entry.read_freq += freq;
        if let Ok(t) = db.table_ref(&name) {
            let wildcard = sel
                .projection
                .iter()
                .any(|i| matches!(i, mtc_sql::SelectItem::Wildcard));
            if wildcard {
                for c in t.schema().columns() {
                    entry.columns.insert(c.name.clone());
                }
            }
            for c in &cols {
                let suffix = c.rsplit('.').next().unwrap_or(c);
                if t.schema().contains(suffix) {
                    entry.columns.insert(suffix.to_string());
                }
            }
            for c in &where_cols {
                let suffix = c.rsplit('.').next().unwrap_or(c);
                if t.schema().contains(suffix) {
                    entry.filter_columns.insert(suffix.to_string());
                }
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Online adaptive advisor
// ---------------------------------------------------------------------------

/// At most this many cached views are created (or widened) per epoch, so
/// one hot phase cannot blow up replication churn in a single tick.
const MAX_CREATES_PER_EPOCH: usize = 2;
/// An advisor-created view must be cold (no reads on its base table) for
/// this many consecutive epochs before it is dropped.
const DROP_PATIENCE: u32 = 3;
/// A freshly created view is immune to dropping for this many epochs, and a
/// freshly dropped view cannot be re-created for the same span — the
/// hysteresis that stops create/drop flapping at a phase boundary.
const GRACE_EPOCHS: u32 = 2;

mtc_util::counter_set! {
    /// Lifetime counters of one advisor instance — every decision class it
    /// can take, plus the suppressions (hysteresis at work is observable,
    /// not silent).
    #[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
    pub struct AdvisorStats {
        /// Epochs closed by [`AdaptiveAdvisor::tick`].
        pub epochs: u64,
        /// Cached views created at runtime.
        pub views_created: u64,
        /// Existing cached views widened (dropped and re-created with extra
        /// columns) because the working set's column footprint grew.
        pub views_widened: u64,
        /// Supporting indexes created on advisor-managed views.
        pub indexes_created: u64,
        /// Advisor-created views dropped again after going cold.
        pub views_dropped: u64,
        /// Creations withheld by hysteresis (recently dropped) or the
        /// per-epoch limit.
        pub creates_suppressed: u64,
        /// Drops withheld by the grace period or remaining patience.
        pub drops_suppressed: u64,
    }
}

/// An advisor-created view under observation.
#[derive(Debug)]
struct TrackedView {
    table: String,
    age: u32,
    cold: u32,
}

#[derive(Default)]
struct AdvisorInner {
    /// Observation window: statement text → occurrences since last tick.
    window: BTreeMap<String, f64>,
    /// Views this advisor created and still owns.
    tracked: BTreeMap<String, TrackedView>,
    /// view name → epochs since the advisor dropped it (re-create
    /// hysteresis).
    recently_dropped: BTreeMap<String, u32>,
    stats: AdvisorStats,
    log: VecDeque<String>,
}

/// Cap on distinct statements per window: beyond it, new texts are
/// ignored until the next tick (the hot set is long since inside).
const WINDOW_CAP: usize = 4096;
/// Decision-log lines retained for `explain` output.
const LOG_CAP: usize = 64;

/// The online cache advisor: attach with [`crate::CacheServer::set_advisor`],
/// then close epochs with [`crate::CacheServer::advisor_tick`] (the bench
/// harness ticks every N interactions; a real deployment would tick on a
/// timer). Each tick re-runs the offline [`recommend`] analysis over the
/// statements observed since the last tick and acts on it: cached views
/// are created (with their supporting indexes) through the ordinary DDL +
/// bulk-populate path, views the workload outgrew are widened, and cold
/// advisor-created views are dropped. Every decision — and every
/// hysteresis suppression — is logged as an `advisor:` line.
#[derive(Default)]
pub struct AdaptiveAdvisor {
    inner: Mutex<AdvisorInner>,
}

impl AdaptiveAdvisor {
    /// Records one executed statement into the current window.
    pub fn observe(&self, sql: &str) {
        let mut inner = self.inner.lock();
        if inner.window.len() >= WINDOW_CAP && !inner.window.contains_key(sql) {
            return;
        }
        *inner.window.entry(sql.to_string()).or_insert(0.0) += 1.0;
    }

    /// Lifetime decision counters.
    pub fn stats(&self) -> AdvisorStats {
        self.inner.lock().stats
    }

    /// The last `n` decision-log lines, oldest first.
    pub fn log_tail(&self, n: usize) -> Vec<String> {
        let inner = self.inner.lock();
        inner
            .log
            .iter()
            .skip(inner.log.len().saturating_sub(n))
            .cloned()
            .collect()
    }

    /// Creates the supporting indexes of a freshly created or widened view
    /// — without them, point queries on non-key columns cost a full local
    /// scan and the optimizer keeps routing them to the backend.
    fn build_indexes(
        &self,
        server: &crate::CacheServer,
        view: &str,
        indexes: &[(String, String)],
        epoch_log: &mut Vec<String>,
    ) {
        for (index, col) in indexes {
            match server.create_index_on_view(index, view, &[col.clone()]) {
                Ok(()) => {
                    self.inner.lock().stats.indexes_created += 1;
                    epoch_log.push(format!("advisor: index {index} on {view}({col})"));
                }
                Err(e) => {
                    epoch_log.push(format!("advisor: index {index} failed: {e}"));
                }
            }
        }
    }

    /// Closes the current epoch against `server`; returns this epoch's
    /// decision lines. See the type-level docs for what a tick does.
    pub fn tick(&self, server: &crate::CacheServer) -> Vec<String> {
        let mut epoch_log: Vec<String> = Vec::new();
        // Drain the window and advance hysteresis clocks under the lock;
        // all server-side actions run with it released (observe() from
        // concurrent sessions must never wait on replication DDL).
        let window = {
            let mut inner = self.inner.lock();
            inner.stats.epochs += 1;
            let window: Vec<WorkloadEntry> = std::mem::take(&mut inner.window)
                .into_iter()
                .map(|(sql, frequency)| WorkloadEntry { sql, frequency })
                .collect();
            for since in inner.recently_dropped.values_mut() {
                *since += 1;
            }
            inner
                .recently_dropped
                .retain(|_, since| *since <= GRACE_EPOCHS);
            window
        };

        let backend = server.backend();
        let (traffic, recs) = {
            let db = backend.db.read();
            let traffic = gather_traffic(&db, &window);
            let recs = recommend_for(&db, &traffic, &AdvisorOptions::default());
            (traffic, recs)
        };

        // Base tables already covered by SOME cached view on this server
        // (static-deployed or advisor-created), with the columns that view
        // actually carries: never create a second view over the same table,
        // but DO widen one whose column footprint the workload outgrew.
        let covered: BTreeMap<String, (String, BTreeSet<String>)> = {
            let db = server.db.read();
            db.catalog
                .views()
                .filter(|v| v.is_cached)
                .filter_map(|v| {
                    let base = v.base_object().map(mtc_types::normalize_ident)?;
                    let cols: BTreeSet<String> = db
                        .table_ref(&v.name)
                        .map(|t| {
                            t.schema().columns().iter().map(|c| c.name.clone()).collect()
                        })
                        .unwrap_or_default();
                    Some((base, (v.name.clone(), cols)))
                })
                .collect()
        };

        // --- Create / widen phase -----------------------------------------
        let mut created = 0usize;
        for rec in &recs {
            let table = mtc_types::normalize_ident(
                rec.view_name.strip_prefix("cv_").unwrap_or(&rec.view_name),
            );
            if let Some((view, existing)) = covered.get(&table) {
                // The table is served locally. If this epoch's statements
                // reference columns the view doesn't carry (the phase shift
                // changed the column footprint, not just the table set),
                // those statements are silently routing remote: widen the
                // view — drop and re-create with the union — under the same
                // per-epoch creation budget.
                let missing: Vec<String> = rec
                    .columns
                    .iter()
                    .filter(|c| !existing.contains(*c))
                    .cloned()
                    .collect();
                if missing.is_empty() {
                    continue; // fully covered — nothing to decide
                }
                if created >= MAX_CREATES_PER_EPOCH {
                    let mut inner = self.inner.lock();
                    inner.stats.creates_suppressed += 1;
                    epoch_log.push(format!(
                        "advisor: suppress widen {view} (epoch limit {MAX_CREATES_PER_EPOCH})"
                    ));
                    continue;
                }
                let merged: BTreeSet<String> =
                    existing.union(&rec.columns.iter().cloned().collect()).cloned().collect();
                let ordered: Vec<String> = {
                    let db = backend.db.read();
                    match db.table_ref(&table) {
                        Ok(t) => t
                            .schema()
                            .columns()
                            .iter()
                            .map(|c| c.name.clone())
                            .filter(|c| merged.contains(c))
                            .collect(),
                        Err(_) => continue,
                    }
                };
                let select = format!("SELECT {} FROM {table}", ordered.join(", "));
                let outcome = server
                    .drop_cached_view(view)
                    .and_then(|()| server.create_cached_view(view, &select));
                match outcome {
                    Ok(()) => {
                        created += 1;
                        {
                            let mut inner = self.inner.lock();
                            inner.stats.views_widened += 1;
                            if let Some(t) = inner.tracked.get_mut(view) {
                                t.cold = 0;
                            }
                        }
                        epoch_log.push(format!(
                            "advisor: widen {view} (+{})",
                            missing.join(", +")
                        ));
                        // The re-created backing table lost its indexes:
                        // rebuild the supporting ones for this window.
                        self.build_indexes(server, view, &rec.indexes, &mut epoch_log);
                    }
                    Err(e) => {
                        epoch_log.push(format!("advisor: widen {view} failed: {e}"));
                    }
                }
                continue;
            }
            let mut inner = self.inner.lock();
            if inner.recently_dropped.contains_key(&rec.view_name) {
                inner.stats.creates_suppressed += 1;
                epoch_log.push(format!(
                    "advisor: suppress create {} (dropped {} epochs ago, hysteresis)",
                    rec.view_name, inner.recently_dropped[&rec.view_name]
                ));
                continue;
            }
            if created >= MAX_CREATES_PER_EPOCH {
                inner.stats.creates_suppressed += 1;
                epoch_log.push(format!(
                    "advisor: suppress create {} (epoch limit {MAX_CREATES_PER_EPOCH})",
                    rec.view_name
                ));
                continue;
            }
            drop(inner);
            let Ok(Statement::CreateView { query, .. }) = parse_statement(&rec.create_sql)
            else {
                continue;
            };
            match server.create_cached_view(&rec.view_name, &query.to_string()) {
                Ok(()) => {
                    created += 1;
                    {
                        let mut inner = self.inner.lock();
                        inner.stats.views_created += 1;
                        inner.tracked.insert(
                            rec.view_name.clone(),
                            TrackedView {
                                table: table.clone(),
                                age: 0,
                                cold: 0,
                            },
                        );
                    }
                    epoch_log.push(format!(
                        "advisor: create {} (benefit {:.0}, maintenance {:.0})",
                        rec.view_name, rec.benefit, rec.maintenance
                    ));
                    self.build_indexes(server, &rec.view_name, &rec.indexes, &mut epoch_log);
                }
                Err(e) => {
                    epoch_log.push(format!(
                        "advisor: create {} failed: {e}",
                        rec.view_name
                    ));
                }
            }
        }

        // --- Drop phase ---------------------------------------------------
        let mut to_drop: Vec<String> = Vec::new();
        {
            let mut inner = self.inner.lock();
            let AdvisorInner { tracked, stats, .. } = &mut *inner;
            let mut suppressed: Vec<String> = Vec::new();
            for (view, t) in tracked.iter_mut() {
                t.age += 1;
                let reads = traffic.get(&t.table).map(|x| x.read_freq).unwrap_or(0.0);
                if reads > 0.0 {
                    t.cold = 0;
                    continue;
                }
                t.cold += 1;
                if t.age <= GRACE_EPOCHS || t.cold < DROP_PATIENCE {
                    stats.drops_suppressed += 1;
                    suppressed.push(format!(
                        "advisor: suppress drop {view} (cold {}/{DROP_PATIENCE} epochs, age {})",
                        t.cold, t.age
                    ));
                } else {
                    to_drop.push(view.clone());
                }
            }
            epoch_log.extend(suppressed);
        }
        for view in to_drop {
            match server.drop_cached_view(&view) {
                Ok(()) => {
                    let mut inner = self.inner.lock();
                    inner.stats.views_dropped += 1;
                    inner.tracked.remove(&view);
                    inner.recently_dropped.insert(view.clone(), 0);
                    epoch_log.push(format!(
                        "advisor: drop {view} (cold {DROP_PATIENCE} epochs)"
                    ));
                }
                Err(e) => {
                    epoch_log.push(format!("advisor: drop {view} failed: {e}"));
                    self.inner.lock().tracked.remove(&view);
                }
            }
        }

        let mut inner = self.inner.lock();
        for line in &epoch_log {
            if inner.log.len() >= LOG_CAP {
                inner.log.pop_front();
            }
            inner.log.push_back(line.clone());
        }
        epoch_log
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mtc_storage::RowChange;
    use mtc_types::{row, Column, DataType, Schema};

    pub(super) fn db() -> Database {
        let mut db = Database::new("d");
        db.create_table(
            "item",
            Schema::new(vec![
                Column::not_null("i_id", DataType::Int),
                Column::new("i_title", DataType::Str),
                Column::new("i_cost", DataType::Float),
                Column::new("i_desc", DataType::Str),
            ]),
            &["i_id".into()],
        )
        .unwrap();
        db.create_table(
            "cart",
            Schema::new(vec![
                Column::not_null("sc_id", DataType::Int),
                Column::new("sc_total", DataType::Float),
            ]),
            &["sc_id".into()],
        )
        .unwrap();
        let changes: Vec<_> = (1..=5000)
            .map(|i| RowChange::Insert {
                table: "item".into(),
                row: row![i, format!("t{i}"), 1.0, "d"],
            })
            .collect();
        db.apply(0, changes).unwrap();
        db.analyze();
        db
    }

    #[test]
    fn read_heavy_table_recommended_write_heavy_not() {
        let db = db();
        let workload = vec![
            WorkloadEntry {
                sql: "SELECT i_title FROM item WHERE i_id = @id".into(),
                frequency: 100.0,
            },
            WorkloadEntry {
                sql: "UPDATE cart SET sc_total = 1 WHERE sc_id = @id".into(),
                frequency: 100.0,
            },
            WorkloadEntry {
                sql: "SELECT sc_total FROM cart WHERE sc_id = @id".into(),
                frequency: 1.0,
            },
        ];
        let recs = recommend(&db, &workload, &AdvisorOptions::default()).unwrap();
        assert_eq!(recs.len(), 1, "{recs:?}");
        assert_eq!(recs[0].view_name, "cv_item");
        assert!(recs[0].create_sql.contains("i_id"), "{}", recs[0].create_sql);
        assert!(recs[0].create_sql.contains("i_title"));
        assert!(
            !recs[0].create_sql.contains("i_desc"),
            "unreferenced column must not be projected: {}",
            recs[0].create_sql
        );
    }

    #[test]
    fn recommended_sql_parses() {
        let db = db();
        let workload = vec![WorkloadEntry {
            sql: "SELECT i_title, i_cost FROM item WHERE i_cost < 10".into(),
            frequency: 50.0,
        }];
        let recs = recommend(&db, &workload, &AdvisorOptions::default()).unwrap();
        assert_eq!(recs.len(), 1);
        assert!(mtc_sql::parse_statement(&recs[0].create_sql).is_ok());
    }

    #[test]
    fn unparseable_entries_are_skipped() {
        let db = db();
        let workload = vec![WorkloadEntry {
            sql: "THIS IS NOT SQL".into(),
            frequency: 1000.0,
        }];
        let recs = recommend(&db, &workload, &AdvisorOptions::default()).unwrap();
        assert!(recs.is_empty());
    }
}

#[cfg(test)]
mod trace_tests {
    use super::*;
    use crate::{BackendServer, Connection};

    /// The §7 workflow end to end: trace the live workload on the backend,
    /// feed the trace to the advisor, get cached-view DDL out.
    #[test]
    fn advisor_consumes_a_live_statement_trace() {
        let backend = BackendServer::new("b");
        backend
            .run_script(
                "CREATE TABLE item (i_id INT NOT NULL PRIMARY KEY, i_title VARCHAR, i_extra VARCHAR);
                 CREATE TABLE scratch (s_id INT NOT NULL PRIMARY KEY, s_v INT);
                 GRANT SELECT ON item TO app;
                 GRANT INSERT ON scratch TO app;
                 GRANT UPDATE ON scratch TO app;",
            )
            .unwrap();
        let rows: Vec<String> = (1..=2000)
            .map(|i| format!("INSERT INTO item VALUES ({i}, 't{i}', 'x')"))
            .collect();
        backend.run_script(&rows.join(";")).unwrap();
        backend.analyze();

        backend.start_statement_trace();
        let conn = Connection::connect_as(backend.clone(), "app");
        for i in 1..=40 {
            conn.query(&format!("SELECT i_title FROM item WHERE i_id = {i}"))
                .unwrap();
        }
        conn.query("INSERT INTO scratch VALUES (1, 0)").unwrap();
        for i in 0..30 {
            // Differently spelled copies are one statement.
            let spelled = [
                "UPDATE scratch SET s_v = s_v + 1 WHERE s_id = 1",
                "update  SCRATCH set s_v = s_v+1 where s_id=1",
            ];
            conn.query(spelled[i % 2]).unwrap();
        }
        let trace = backend.stop_statement_trace();
        // 40 reads with their literals, one insert, one update.
        assert_eq!(trace.len(), 42);
        // Identical statements aggregate by count.
        let update_entry = trace
            .iter()
            .find(|e| e.sql.starts_with("UPDATE scratch"))
            .expect("update traced");
        assert_eq!(update_entry.frequency, 30.0);

        let recs = recommend(&backend.db.read(), &trace, &AdvisorOptions::default()).unwrap();
        assert_eq!(recs.len(), 1, "{recs:?}");
        assert_eq!(recs[0].view_name, "cv_item");
        assert!(!recs[0].create_sql.contains("i_extra"));
        // Tracing is off again: no further growth.
        conn.query("SELECT i_title FROM item WHERE i_id = 1").unwrap();
        assert!(backend.stop_statement_trace().is_empty());
    }
}

#[cfg(test)]
mod scoring_tests {
    use super::*;

    #[test]
    fn scoring_is_reads_times_rows_versus_writes_times_apply_cost() {
        // benefit = read_freq × row_count, maintenance = write_freq × 3:
        // the exact quantities the create/drop threshold compares.
        let db = super::tests::db();
        let workload = vec![
            WorkloadEntry {
                sql: "SELECT i_title FROM item WHERE i_id = @id".into(),
                frequency: 40.0,
            },
            WorkloadEntry {
                sql: "UPDATE item SET i_cost = 1 WHERE i_id = @id".into(),
                frequency: 7.0,
            },
        ];
        let recs = recommend(&db, &workload, &AdvisorOptions::default()).unwrap();
        assert_eq!(recs.len(), 1);
        let rec = &recs[0];
        assert_eq!(rec.benefit, 40.0 * 5000.0, "read_freq x row_count");
        assert_eq!(rec.maintenance, 7.0 * 3.0, "write_freq x apply cost");

        // The threshold is benefit >= ratio × maintenance: push the ratio
        // above benefit/maintenance and the same workload yields nothing.
        let strict = AdvisorOptions {
            min_benefit_ratio: (40.0 * 5000.0) / (7.0 * 3.0) + 1.0,
        };
        assert!(recommend(&db, &workload, &strict).unwrap().is_empty());
    }

    #[test]
    fn filter_columns_become_supporting_indexes_except_the_key() {
        let db = super::tests::db();
        let workload = vec![
            WorkloadEntry {
                sql: "SELECT i_cost FROM item WHERE i_title = 'rust'".into(),
                frequency: 30.0,
            },
            WorkloadEntry {
                sql: "SELECT i_title FROM item WHERE i_id = @id".into(),
                frequency: 30.0,
            },
        ];
        let recs = recommend(&db, &workload, &AdvisorOptions::default()).unwrap();
        assert_eq!(recs.len(), 1);
        // i_title is filtered on and not the key: it gets an index. i_id is
        // the primary key of the backing table: no redundant index.
        assert_eq!(
            recs[0].indexes,
            vec![("ix_cv_item_i_title".to_string(), "i_title".to_string())],
            "{:?}",
            recs[0]
        );
    }
}

#[cfg(test)]
mod deploy_tests {
    use super::*;
    use crate::{BackendServer, CacheServer};
    use mtc_replication::ReplicationHub;
    use mtc_util::sync::Mutex as SyncMutex;
    use std::sync::Arc;

    fn backend() -> Arc<BackendServer> {
        let backend = BackendServer::new("b");
        backend
            .run_script(
                "CREATE TABLE item (i_id INT NOT NULL PRIMARY KEY, i_title VARCHAR, i_cost FLOAT)",
            )
            .unwrap();
        let rows: Vec<String> = (1..=500)
            .map(|i| format!("INSERT INTO item VALUES ({i}, 't{i}', {i}.5)"))
            .collect();
        backend.run_script(&rows.join(";")).unwrap();
        backend.analyze();
        backend
    }

    /// Satellite proof of the §7 loop: recommendations deploy through the
    /// ordinary DDL path and the traced workload is then answered locally —
    /// including point queries on a non-key column, which need the
    /// recommended supporting index to win the local-vs-remote cost race.
    #[test]
    fn recommended_views_deploy_and_answer_the_workload_locally() {
        let backend = backend();
        let workload = vec![
            WorkloadEntry {
                sql: "SELECT i_title FROM item WHERE i_id = @id".into(),
                frequency: 50.0,
            },
            WorkloadEntry {
                sql: "SELECT i_id, i_cost FROM item WHERE i_title = @t".into(),
                frequency: 50.0,
            },
        ];
        let recs = recommend(&backend.db.read(), &workload, &AdvisorOptions::default()).unwrap();
        assert_eq!(recs.len(), 1, "{recs:?}");

        let hub = Arc::new(SyncMutex::new(ReplicationHub::new(backend.db.clone())));
        let cache = CacheServer::create("c", backend, hub);
        for rec in &recs {
            let Ok(Statement::CreateView { query, .. }) = parse_statement(&rec.create_sql)
            else {
                panic!("recommendation must parse: {}", rec.create_sql);
            };
            cache.create_cached_view(&rec.view_name, &query.to_string()).unwrap();
            for (index, col) in &rec.indexes {
                cache
                    .create_index_on_view(index, &rec.view_name, &[col.clone()])
                    .unwrap();
            }
        }

        for (sql, expect) in [
            ("SELECT i_title FROM item WHERE i_id = 7", "t7"),
            ("SELECT i_title FROM item WHERE i_title = 't9'", "t9"),
        ] {
            let r = cache.execute(sql, &Default::default(), "dbo").unwrap();
            assert_eq!(r.rows.len(), 1, "{sql}");
            assert_eq!(r.rows[0][0], mtc_types::Value::str(expect), "{sql}");
            assert_eq!(
                r.metrics.remote_rtts, 0,
                "the deployed view + index must answer `{sql}` locally"
            );
        }
    }

    /// The widen path: a view created for a narrow column footprint is
    /// dropped and re-created with the union when the observed workload
    /// outgrows it, and the widened statement then routes locally.
    #[test]
    fn tick_widens_a_view_when_the_column_footprint_grows() {
        let backend = backend();
        let hub = Arc::new(SyncMutex::new(ReplicationHub::new(backend.db.clone())));
        let cache = CacheServer::create("c", backend, hub);
        cache
            .create_cached_view("cv_item", "SELECT i_id, i_title FROM item")
            .unwrap();

        let advisor = Arc::new(AdaptiveAdvisor::default());
        cache.set_advisor(Some(advisor.clone()));
        // The observed phase needs i_cost, which cv_item doesn't carry.
        for _ in 0..20 {
            cache
                .execute(
                    "SELECT i_cost FROM item WHERE i_id = 3",
                    &Default::default(),
                    "dbo",
                )
                .unwrap();
        }
        let decisions = cache.advisor_tick();
        assert!(
            decisions.iter().any(|l| l.starts_with("advisor: widen cv_item (+i_cost")),
            "{decisions:?}"
        );
        assert_eq!(advisor.stats().views_widened, 1);

        let r = cache
            .execute("SELECT i_cost FROM item WHERE i_id = 3", &Default::default(), "dbo")
            .unwrap();
        assert_eq!(r.metrics.remote_rtts, 0, "widened view must serve locally");
        assert_eq!(r.rows[0][0], mtc_types::Value::Float(3.5));
    }
}
