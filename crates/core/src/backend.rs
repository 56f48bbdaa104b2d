//! The backend database server.

use std::collections::BTreeMap;
use std::sync::Arc;

use mtc_util::sync::{Mutex, RwLock};

use mtc_engine::eval::Bindings;
use mtc_engine::{
    bind_select, execute, Answer, Collect, ExecContext, OptimizerOptions, QueryResult,
    RemoteExecutor, RemoteOutcome, RemoteSite,
};
use mtc_replication::{Clock, WallClock};
use mtc_sql::{parse_statements, Permission, Prepared, Select, Statement, TableRef};
use mtc_storage::{require_dbo, written_tables, Database, Lsn, ProcedureDef, RowChange, ViewMeta};
use mtc_types::{Column, Error, Result, Row, Schema};

use crate::dml::{derive_view_changes, plan_dml, DML_STATEMENT_OVERHEAD, WORK_PER_CHANGE};
use crate::plan_cache::{Compiled, PlanCache};
use crate::procs::prepare_proc_body;
use crate::statements::{Resolved, StatementCache};
use crate::stats::SharedServerStats;

/// One transaction the backend committed: its LSN and the tables it wrote
/// ([`written_tables`]), derived materialized views included.
#[derive(Debug, Clone, PartialEq)]
pub struct Commit {
    pub lsn: Lsn,
    pub tables: Vec<String>,
}

/// The backend server: database of record, local execution of everything,
/// eager materialized-view maintenance, and the replication publisher.
pub struct BackendServer {
    name: String,
    pub db: Arc<RwLock<Database>>,
    pub options: OptimizerOptions,
    pub clock: Arc<dyn Clock>,
    /// Live execution counters (relaxed atomics — no lock on the hot path;
    /// read with `stats.snapshot()`).
    pub stats: SharedServerStats,
    /// Compiled-plan cache keyed by statement text + parameter signature,
    /// invalidated by catalog version (see [`crate::plan_cache`]). Holds the
    /// plans of SELECTs and of INSERT/UPDATE/DELETE statements alike.
    pub plan_cache: PlanCache,
    /// Statement text → prepared statement (see [`crate::statements`]).
    pub statements: StatementCache,
    /// Statement trace for the cache advisor: statement text as sent →
    /// execution count, canonicalized when the trace is taken. `None` when
    /// tracing is off.
    trace: Mutex<Option<BTreeMap<String, u64>>>,
}

impl BackendServer {
    pub fn new(name: &str) -> Arc<BackendServer> {
        BackendServer::with_clock(name, Arc::new(WallClock))
    }

    pub fn with_clock(name: &str, clock: Arc<dyn Clock>) -> Arc<BackendServer> {
        Arc::new(BackendServer {
            name: name.to_string(),
            db: Arc::new(RwLock::new(Database::new(name))),
            options: OptimizerOptions::default(),
            clock,
            stats: SharedServerStats::default(),
            plan_cache: PlanCache::default(),
            statements: StatementCache::default(),
            trace: Mutex::new(None),
        })
    }

    pub fn name(&self) -> &str {
        &self.name
    }

    /// Runs a multi-statement script as `dbo` (setup convenience).
    pub fn run_script(&self, sql: &str) -> Result<()> {
        for stmt in parse_statements(sql)? {
            self.execute_prepared(&Prepared::from_statement(stmt), &Bindings::new(), "dbo")?;
        }
        Ok(())
    }

    /// The prepared form of `sql`, from this server's statement cache: a
    /// text — or the template its literals lift into — is parsed the first
    /// time it is seen (counted in `stats.prepares`), not on every
    /// execution.
    pub fn prepare(&self, sql: &str) -> Result<Resolved> {
        self.statements.prepare(sql, &self.stats)
    }

    /// Prepares (once per shape) and executes one statement.
    pub fn execute(&self, sql: &str, params: &Bindings, principal: &str) -> Result<QueryResult> {
        let resolved = self.prepare(sql)?;
        if let Some(trace) = self.trace.lock().as_mut() {
            *trace.entry(sql.to_string()).or_insert(0) += 1;
        }
        self.execute_prepared(&resolved.stmt, &resolved.bindings(params), principal)
    }

    /// Starts recording a workload trace (statement texts as they were sent,
    /// and counts) for the cache advisor — the paper's §7 workflow: observe
    /// the workload on the backend, then decide what to cache.
    pub fn start_statement_trace(&self) {
        *self.trace.lock() = Some(BTreeMap::new());
    }

    /// Stops tracing and returns the trace as advisor workload entries, one
    /// per statement: differently spelled copies of a statement (case,
    /// spacing) aggregate under its canonical rendering, literals kept.
    /// Canonicalizing costs a parse, so it is done here, once per distinct
    /// text, not per execution.
    pub fn stop_statement_trace(&self) -> Vec<crate::advisor::WorkloadEntry> {
        let mut canonical: BTreeMap<String, u64> = BTreeMap::new();
        for (sql, n) in self.trace.lock().take().unwrap_or_default() {
            let key = Prepared::new(&sql).map_or(sql, |stmt| stmt.key);
            *canonical.entry(key).or_insert(0) += n;
        }
        canonical
            .into_iter()
            .map(|(sql, n)| crate::advisor::WorkloadEntry {
                sql,
                frequency: n as f64,
            })
            .collect()
    }

    /// Executes a prepared statement: a client's, a stored procedure's, a
    /// script's, or one a cache server ships.
    pub fn execute_prepared(
        &self,
        stmt: &Prepared,
        params: &Bindings,
        principal: &str,
    ) -> Result<QueryResult> {
        self.execute_reporting(stmt, params, principal, &mut Vec::new())
    }

    /// [`execute_prepared`](Self::execute_prepared), appending to `commits`
    /// each transaction the statement commits, in commit order: one per
    /// INSERT/UPDATE/DELETE that writes a row (a write that changes none
    /// commits nothing), nested procedures included, and those a failing
    /// procedure committed before its error. A cache server forwards
    /// whatever it does not run itself through here and invalidates by what
    /// it gets back. DDL and `GRANT` are `dbo`'s alone ([`require_dbo`]).
    pub fn execute_reporting(
        &self,
        stmt: &Prepared,
        params: &Bindings,
        principal: &str,
        commits: &mut Vec<Commit>,
    ) -> Result<QueryResult> {
        if stmt.statement.catalog_object().is_some() {
            require_dbo(principal)?;
        }
        let mut dml = |table: &str, permission| {
            self.execute_dml(stmt, table, permission, params, principal, commits)
        };
        match &stmt.statement {
            Statement::Select(sel) => self.execute_select(stmt, sel, params, principal),
            Statement::Insert { table, .. } => dml(table, Permission::Insert),
            Statement::Update { table, .. } => dml(table, Permission::Update),
            Statement::Delete { table, .. } => dml(table, Permission::Delete),
            Statement::CreateTable {
                name,
                columns,
                primary_key,
            } => {
                let cols: Vec<Column> = columns
                    .iter()
                    .map(|c| {
                        if c.not_null {
                            Column::not_null(&c.name, c.dtype)
                        } else {
                            Column::new(&c.name, c.dtype)
                        }
                    })
                    .collect();
                self.db
                    .write()
                    .create_table(name, Schema::new(cols), primary_key)?;
                Ok(QueryResult::default())
            }
            Statement::CreateIndex {
                name,
                table,
                columns,
                unique,
            } => {
                self.db.write().create_index(name, table, columns, *unique)?;
                Ok(QueryResult::default())
            }
            Statement::CreateView {
                name,
                materialized,
                query,
            } => {
                if *materialized {
                    self.create_materialized_view(name, query)?;
                } else {
                    self.db.write().catalog_mut().create_view(ViewMeta {
                        name: name.clone(),
                        definition: query.clone(),
                        materialized: false,
                        is_cached: false,
                    })?;
                }
                Ok(QueryResult::default())
            }
            // A dropped object's grants go with it. (Not in
            // `Database::drop_table`: a pruned shadow table keeps its grants,
            // which authorize the reads it forwards.)
            Statement::DropTable { name } => {
                let mut db = self.db.write();
                db.drop_table(name)?;
                db.catalog_mut().drop_grants(name);
                Ok(QueryResult::default())
            }
            Statement::DropView { name } => {
                let mut db = self.db.write();
                let meta = db.catalog_mut().drop_view(name)?;
                if meta.materialized && db.has_table(name) {
                    db.drop_table(name)?;
                }
                db.catalog_mut().drop_grants(name);
                Ok(QueryResult::default())
            }
            Statement::Grant {
                permission,
                object,
                principal: grantee,
            } => {
                self.db.write().catalog_mut().grant(principal, grantee, object, *permission)?;
                Ok(QueryResult::default())
            }
            Statement::Exec { proc, args } => {
                // The body may write: no lock is held across it.
                let catalog = self.db.read().catalog.clone();
                crate::procs::exec(&catalog, proc, args, params, &self.stats, |stmt, bound| {
                    self.execute_reporting(stmt, bound, principal, commits)
                })
                .unwrap_or_else(|| Err(Error::catalog(format!("procedure `{proc}` not found"))))
            }
        }
    }

    /// [`execute_prepared`](Self::execute_prepared), with a SELECT's answer
    /// collected as `O`: owned rows for a client, the root's batches for a
    /// cache tier. Any other statement's result is rows either way.
    pub fn execute_prepared_as<O: Collect>(
        &self,
        stmt: &Prepared,
        params: &Bindings,
        principal: &str,
    ) -> Result<O> {
        match stmt.select() {
            Some(sel) => self.execute_select(stmt, sel, params, principal),
            None => O::from_result(self.execute_prepared(stmt, params, principal)?),
        }
    }

    /// Runs a SELECT entirely locally (the backend is the data of record).
    ///
    /// Plans come from the parameterized plan cache when a compiled plan
    /// for this statement's canonical key + parameter signature is resident
    /// and still valid at the current catalog version; otherwise the
    /// statement is bound, optimized, compiled and cached. Permission checks
    /// run on every execution, cached or not.
    fn execute_select<O: Collect>(
        &self,
        stmt: &Prepared,
        sel: &Select,
        params: &Bindings,
        principal: &str,
    ) -> Result<O> {
        let db = self.db.read();
        check_select_permissions(&db, &stmt.objects, principal)?;
        let version = db.catalog.version();
        let plan = self.plan_cache.get_or_compile(stmt, params, version, 0, || {
            let opt = mtc_engine::optimize(bind_select(sel, &db)?, &db, &self.options)?;
            Ok((Compiled::Query(mtc_engine::compile(&opt.physical)?), Some(opt)))
        })?;
        let ctx = ExecContext {
            db: &db,
            remote: None,
            params,
            work: &self.options.cost,
            parallel: None,
        };
        let mut result: O = O::execute(plan.query()?, &ctx, None)?;
        let rows = result.row_count();
        self.stats.record_query(result.metrics_mut(), rows);
        Ok(result)
    }

    /// Runs an INSERT/UPDATE/DELETE as one transaction, including eager
    /// maintenance of select-project materialized views, and reports it to
    /// `commits` unless it wrote no row. The statement's compiled form
    /// (target location, assignment and `VALUES` expressions) comes from
    /// the plan cache under the rules a SELECT's plan does; the permission
    /// check runs on every execution.
    fn execute_dml(
        &self,
        stmt: &Prepared,
        table: &str,
        permission: Permission,
        params: &Bindings,
        principal: &str,
        commits: &mut Vec<Commit>,
    ) -> Result<QueryResult> {
        let mut db = self.db.write();
        db.catalog.check_permission(principal, table, permission)?;
        let version = db.catalog.version();
        let plan = self.plan_cache.get_or_compile(stmt, params, version, 0, || {
            let planned = plan_dml(&stmt.statement, &db, &self.options)?;
            Ok((Compiled::Dml(planned.compiled), planned.query))
        })?;
        let (mut changes, locate_work) = plan.dml()?.changes(&db, params, &self.options.cost)?;
        let affected = changes.len();
        changes.extend(derive_view_changes(&db, &changes)?);
        let written = changes.len();
        if written > 0 {
            let tables = written_tables(&changes);
            let lsn = db.apply(self.clock.now_ms(), changes)?;
            commits.push(Commit { lsn, tables });
        }
        drop(db);
        // Statement overhead (parse/lock/log-flush/commit) + target lookup
        // + per-row write and index maintenance.
        let work = DML_STATEMENT_OVERHEAD + locate_work + WORK_PER_CHANGE * written as f64;
        self.stats.record_dml(work);
        let mut result = QueryResult::default();
        result.metrics.local_rows = affected as u64;
        result.metrics.local_work = work;
        Ok(result)
    }

    /// Registers a stored procedure; its body is prepared here, once.
    pub fn create_procedure(&self, name: &str, params: &[&str], body_sql: &str) -> Result<()> {
        let params: Vec<String> = params.iter().map(|p| mtc_types::normalize_ident(p)).collect();
        let body = prepare_proc_body(name, &params, body_sql)?;
        self.db
            .write()
            .catalog_mut()
            .create_procedure(Arc::new(ProcedureDef {
                name: name.to_string(),
                params,
                body,
            }))
    }

    /// Creates a materialized view: backing table + initial population.
    /// Select-project views are maintained eagerly on every transaction;
    /// anything else must be refreshed with
    /// [`BackendServer::refresh_materialized_view`].
    pub fn create_materialized_view(&self, name: &str, definition: &Select) -> Result<()> {
        let QueryResult { schema, rows, .. } = self.evaluate(definition)?;
        // Primary key: the base table's key columns when fully projected.
        let pk = base_pk_if_projected(&self.db.read(), definition, &schema);
        let mut db = self.db.write();
        db.create_table(name, schema, &pk)?;
        let changes: Vec<RowChange> = rows
            .into_iter()
            .map(|row| RowChange::Insert {
                table: name.to_string(),
                row,
            })
            .collect();
        db.apply_unlogged(&changes)?;
        db.catalog_mut().create_view(ViewMeta {
            name: name.to_string(),
            definition: definition.clone(),
            materialized: true,
            is_cached: false,
        })?;
        db.analyze_table(name);
        Ok(())
    }

    /// Recomputes a materialized view and applies (and logs) the diff —
    /// needed for join/aggregate views, which are not maintained eagerly.
    pub fn refresh_materialized_view(&self, name: &str) -> Result<usize> {
        let definition = self
            .db
            .read()
            .catalog
            .view(name)
            .filter(|v| v.materialized)
            .map(|v| v.definition.clone())
            .ok_or_else(|| Error::catalog(format!("materialized view `{name}` not found")))?;
        let fresh = self.evaluate(&definition)?.rows;
        let mut db = self.db.write();
        let current: Vec<Row> = db.table_ref(name)?.scan().cloned().collect();
        let fresh_set: std::collections::HashSet<Row> = fresh.iter().cloned().collect();
        let current_set: std::collections::HashSet<Row> = current.iter().cloned().collect();
        let mut changes = Vec::new();
        for row in &current {
            if !fresh_set.contains(row) {
                changes.push(RowChange::Delete {
                    table: name.to_string(),
                    row: row.clone(),
                });
            }
        }
        for row in &fresh {
            if !current_set.contains(row) {
                changes.push(RowChange::Insert {
                    table: name.to_string(),
                    row: row.clone(),
                });
            }
        }
        let n = changes.len();
        if n > 0 {
            db.apply(self.clock.now_ms(), changes)?;
        }
        Ok(n)
    }

    /// A materialized view's definition, evaluated in full.
    fn evaluate(&self, definition: &Select) -> Result<QueryResult> {
        let db = self.db.read();
        let opt = mtc_engine::optimize(bind_select(definition, &db)?, &db, &self.options)?;
        let ctx = ExecContext {
            db: &db,
            remote: None,
            params: &Bindings::new(),
            work: &self.options.cost,
            parallel: None,
        };
        execute(&opt.physical, &ctx)
    }

    /// Recomputes optimizer statistics for all tables.
    pub fn analyze(&self) {
        self.db.write().analyze();
    }

    /// The backend's current commit LSN (head of its transaction log).
    /// Cache servers compare this against their applied LSNs to measure
    /// replication lag in transactions.
    pub fn commit_lsn(&self) -> mtc_storage::Lsn {
        self.db.read().log().head()
    }

    /// The backend's catalog version. A shipped statement's answer is
    /// computed under it, so every cached copy of one is stamped with it
    /// and validated against it, on whichever node holds the copy.
    pub fn catalog_version(&self) -> u64 {
        self.db.read().catalog.version()
    }

    /// Optimizes a statement and returns its physical plan text (EXPLAIN):
    /// a SELECT's plan, or the plan that locates the rows an UPDATE or
    /// DELETE targets.
    pub fn explain(&self, sql: &str) -> Result<String> {
        let resolved = Resolved::new(sql)?;
        let stmt = &*resolved.stmt;
        let db = self.db.read();
        let opt = match &stmt.statement {
            Statement::Select(sel) => {
                Some(mtc_engine::optimize(bind_select(sel, &db)?, &db, &self.options)?)
            }
            Statement::Update { .. } | Statement::Delete { .. } => {
                plan_dml(&stmt.statement, &db, &self.options)?.query
            }
            _ => None,
        };
        let Some(opt) = opt else {
            return Err(Error::plan(
                "EXPLAIN supports SELECT, UPDATE and DELETE statements",
            ));
        };
        let header = self
            .plan_cache
            .explain_header(&resolved, &opt, db.catalog.version(), 0);
        Ok(format!("{header}{}", opt.physical.explain()))
    }
}

/// The backend is the remote executor of the cache servers. A compiled plan
/// ships the prepared form of its SQL, which runs as it is and answers with
/// its root's batches; text (from an executor that has only text) goes
/// through the statement cache first, so a shipped text is parsed at most
/// once here too.
impl RemoteExecutor for BackendServer {
    fn execute_remote(&self, sql: &str, params: &Bindings) -> Result<QueryResult> {
        let resolved = self.prepare(sql)?;
        self.execute_prepared(&resolved.stmt, &resolved.bindings(params), "dbo")
    }

    fn execute_shipped(
        &self,
        _site: &RemoteSite,
        stmt: &Arc<Prepared>,
        params: &Bindings,
    ) -> Result<RemoteOutcome<Answer>> {
        Ok(RemoteOutcome::fetched(
            self.execute_prepared_as(stmt, params, "dbo")?,
        ))
    }
}

/// Checks SELECT permission on every object a statement's FROM clause names
/// ([`Prepared::objects`]).
pub(crate) fn check_select_permissions(
    db: &Database,
    objects: &[String],
    principal: &str,
) -> Result<()> {
    for object in objects {
        db.catalog
            .check_permission(principal, object, Permission::Select)?;
    }
    Ok(())
}

/// If the view projects the base table's full primary key, reuse it as the
/// backing table's key; otherwise fall back to a hidden rowid.
fn base_pk_if_projected(db: &Database, definition: &Select, out_schema: &Schema) -> Vec<String> {
    let [TableRef::Table { name, .. }] = definition.from.as_slice() else {
        return vec![];
    };
    let Ok(base) = db.table_ref(name) else {
        return vec![];
    };
    let pk_names: Vec<String> = base
        .primary_key()
        .iter()
        .map(|&i| base.schema().column(i).name.clone())
        .collect();
    if !pk_names.is_empty() && pk_names.iter().all(|c| out_schema.contains(c)) {
        pk_names
    } else {
        vec![]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mtc_types::Value;

    fn backend() -> Arc<BackendServer> {
        let b = BackendServer::new("backend");
        b.run_script(
            "CREATE TABLE item (i_id INT NOT NULL PRIMARY KEY, i_title VARCHAR, i_cost FLOAT);
             CREATE INDEX ix_item_cost ON item (i_cost);
             INSERT INTO item VALUES (1, 'rust in action', 30.0), (2, 'the art of sql', 20.0), (3, 'cheap book', 5.0);",
        )
        .unwrap();
        b.analyze();
        b
    }

    #[test]
    fn script_and_select() {
        let b = backend();
        let r = b
            .execute("SELECT i_id FROM item WHERE i_cost < 25 ORDER BY i_id ASC", &Bindings::new(), "dbo")
            .unwrap();
        assert_eq!(r.rows.len(), 2);
    }

    #[test]
    fn dml_roundtrip_and_log() {
        let b = backend();
        let r = b
            .execute("UPDATE item SET i_cost = 50 WHERE i_id = 3", &Bindings::new(), "dbo")
            .unwrap();
        assert_eq!(r.metrics.local_rows, 1);
        let r = b
            .execute("SELECT i_cost FROM item WHERE i_id = 3", &Bindings::new(), "dbo")
            .unwrap();
        assert_eq!(r.rows[0][0], Value::Float(50.0));
        // The DML was logged for replication.
        assert!(b.db.read().log().len() >= 2);
    }

    #[test]
    fn permissions_enforced() {
        let b = backend();
        let err = b
            .execute("SELECT i_id FROM item", &Bindings::new(), "app")
            .unwrap_err();
        assert_eq!(err.kind(), "permission");
        b.run_script("GRANT SELECT ON item TO app").unwrap();
        assert!(b.execute("SELECT i_id FROM item", &Bindings::new(), "app").is_ok());
        let err = b
            .execute("DELETE FROM item WHERE i_id = 1", &Bindings::new(), "app")
            .unwrap_err();
        assert_eq!(err.kind(), "permission");
    }

    #[test]
    fn catalog_statements_are_dbo_s_alone() {
        let b = backend();
        b.run_script("CREATE VIEW cheap AS SELECT i_id FROM item WHERE i_cost <= 10")
            .unwrap();
        let version = b.db.read().catalog.version();
        for sql in [
            "CREATE TABLE t (x INT NOT NULL PRIMARY KEY)",
            "CREATE INDEX ix_item_title ON item (i_title)",
            "CREATE VIEW v AS SELECT i_id FROM item",
            "CREATE MATERIALIZED VIEW mv AS SELECT i_id FROM item",
            "DROP TABLE item",
            "DROP VIEW cheap",
            "GRANT DELETE ON item TO app",
        ] {
            let err = b.execute(sql, &Bindings::new(), "app").unwrap_err();
            assert_eq!(err.kind(), "permission", "{sql}");
        }
        assert_eq!(b.db.read().catalog.version(), version, "refused before any change");
        b.execute("DROP TABLE item", &Bindings::new(), "dbo").unwrap();
        assert!(!b.db.read().has_table("item"));
    }

    #[test]
    fn procedures_execute_with_args() {
        let b = backend();
        b.create_procedure(
            "getItem",
            &["id"],
            "SELECT i_title, i_cost FROM item WHERE i_id = @id",
        )
        .unwrap();
        let r = b
            .execute("EXEC getItem @id = 2", &Bindings::new(), "dbo")
            .unwrap();
        assert_eq!(r.rows.len(), 1);
        assert_eq!(r.rows[0][0], Value::str("the art of sql"));
    }

    #[test]
    fn materialized_view_eagerly_maintained() {
        let b = backend();
        b.run_script("CREATE MATERIALIZED VIEW cheap AS SELECT i_id, i_cost FROM item WHERE i_cost <= 10")
            .unwrap();
        assert_eq!(b.db.read().table_ref("cheap").unwrap().row_count(), 1);
        b.run_script("INSERT INTO item VALUES (4, 'pamphlet', 2.0)").unwrap();
        assert_eq!(b.db.read().table_ref("cheap").unwrap().row_count(), 2);
        b.run_script("UPDATE item SET i_cost = 99 WHERE i_id = 3").unwrap();
        assert_eq!(b.db.read().table_ref("cheap").unwrap().row_count(), 1);
    }

    #[test]
    fn aggregate_view_refreshes_manually() {
        let b = backend();
        b.create_materialized_view(
            "cost_by_title",
            Prepared::new("SELECT i_title, SUM(i_cost) AS total FROM item GROUP BY i_title")
                .unwrap()
                .select()
                .unwrap(),
        )
        .unwrap();
        assert_eq!(b.db.read().table_ref("cost_by_title").unwrap().row_count(), 3);
        b.run_script("INSERT INTO item VALUES (9, 'rust in action', 1.0)").unwrap();
        // Aggregates are not eagerly maintained...
        assert_eq!(b.db.read().table_ref("cost_by_title").unwrap().row_count(), 3);
        // ...until refreshed, which logs the diff for replication.
        let log_before = b.db.read().log().len();
        let changed = b.refresh_materialized_view("cost_by_title").unwrap();
        assert!(changed >= 1);
        assert!(b.db.read().log().len() > log_before);
    }

    #[test]
    fn remote_executor_roundtrip() {
        let b = backend();
        let r = b
            .execute_remote("SELECT COUNT(*) AS n FROM item", &Bindings::new())
            .unwrap();
        assert_eq!(r.rows[0][0], Value::Int(3));
    }

    #[test]
    fn drop_view_removes_backing_table() {
        let b = backend();
        b.run_script("CREATE MATERIALIZED VIEW cheap AS SELECT i_id FROM item WHERE i_cost <= 10")
            .unwrap();
        b.run_script("DROP VIEW cheap").unwrap();
        assert!(b.db.read().table_ref("cheap").is_err());
        assert!(b.db.read().catalog.view("cheap").is_none());
    }
}
