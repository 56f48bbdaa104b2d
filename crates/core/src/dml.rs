//! DML: INSERT/UPDATE/DELETE statements compiled once into a [`CompiledDml`]
//! and run per execution into row-change lists, plus eager maintenance of
//! select-project materialized views on the backend (so cached views defined
//! over backend MVs replicate correctly).
//!
//! Compiling is everything that depends on the statement and the catalog but
//! not on the parameter values: resolving the table and its columns,
//! optimizing and compiling the query that locates an UPDATE's or DELETE's
//! target rows (through the full optimizer, so a point update is an index
//! seek, not a table scan), compiling the assignment and `VALUES`
//! expressions. The backend keeps the result in its plan cache under the
//! rules SELECT plans live by; [`CompiledDml::changes`] is what runs on
//! every execution.

use mtc_engine::compile::{compile_expr, CompiledExpr, EvalEnv, ParamSlots};
use mtc_engine::eval::Bindings;
use mtc_engine::{
    bind_select, compile, execute_compiled, CompiledQuery, CostModel, ExecContext, Optimized,
    OptimizerOptions,
};
use mtc_replication::Article;
use mtc_sql::{Expr, InsertSource, Select, SelectItem, Statement, TableRef};
use mtc_storage::{Database, RowChange};
use mtc_types::{Error, Result, Row, Schema, Value};

/// Work units per changed row: base-table write plus secondary-index
/// maintenance.
pub const WORK_PER_CHANGE: f64 = 10.0;

/// Fixed work units per DML statement executed on the backend: statement
/// parse/optimize, lock acquisition, write-ahead-log flush and commit. A
/// logged durable write costs far more than an in-memory row read — this
/// constant is what keeps the paper's update-dominated Ordering workload
/// backend-bound even when every read is cached (§6.2.1); see
/// EXPERIMENTS.md ("Methodology") for the calibration discussion.
pub const DML_STATEMENT_OVERHEAD: f64 = 100.0;

/// A DML statement compiled against one catalog version.
#[derive(Debug)]
pub enum CompiledDml {
    Insert {
        table: String,
        /// Columns of the target table.
        width: usize,
        /// Target column of each supplied value, in value order.
        columns: Vec<usize>,
        source: InsertRows,
    },
    Update {
        table: String,
        /// Yields the target rows, whole.
        locate: CompiledQuery,
        /// `(column, new value)`; the expressions see the row as it was and
        /// share `locate`'s parameter slots.
        set: Vec<(usize, CompiledExpr)>,
    },
    Delete {
        table: String,
        locate: CompiledQuery,
    },
}

/// Where an INSERT's rows come from.
#[derive(Debug)]
pub enum InsertRows {
    /// `VALUES (…), (…)`: one compiled expression per value.
    Values {
        rows: Vec<Vec<CompiledExpr>>,
        slots: ParamSlots,
    },
    /// `INSERT … SELECT`.
    Query(Box<CompiledQuery>),
}

/// A freshly compiled DML statement, with the optimizer's output for the
/// query inside it (`None` for `INSERT … VALUES`, which has none).
pub struct PlannedDml {
    pub compiled: CompiledDml,
    pub query: Option<Optimized>,
}

/// Optimizes and compiles `select` on `db`.
fn plan_query(
    select: &Select,
    db: &Database,
    options: &OptimizerOptions,
) -> Result<(CompiledQuery, Optimized)> {
    let opt = mtc_engine::optimize(bind_select(select, db)?, db, options)?;
    Ok((compile(&opt.physical)?, opt))
}

/// The query locating the rows an UPDATE or DELETE targets:
/// `SELECT * FROM table [WHERE selection]`.
fn locate_query(
    table: &str,
    selection: Option<&Expr>,
    db: &Database,
    options: &OptimizerOptions,
) -> Result<(CompiledQuery, Optimized)> {
    let select = Select {
        projection: vec![SelectItem::Wildcard],
        from: vec![TableRef::Table {
            name: table.to_string(),
            alias: None,
        }],
        selection: selection.cloned(),
        ..Select::default()
    };
    plan_query(&select, db, options)
}

/// Compiles a DML statement against `db`'s catalog. Evaluates nothing and
/// applies nothing.
pub fn plan_dml(stmt: &Statement, db: &Database, options: &OptimizerOptions) -> Result<PlannedDml> {
    let planned = |compiled, query| PlannedDml { compiled, query };
    match stmt {
        Statement::Insert {
            table,
            columns,
            source,
        } => {
            let t = db.table_ref(table)?;
            let schema = t.schema();
            let columns: Vec<usize> = if columns.is_empty() {
                (0..schema.len()).collect()
            } else {
                columns
                    .iter()
                    .map(|c| schema.index_of(c))
                    .collect::<Result<_>>()?
            };
            let (source, opt) = match source {
                InsertSource::Values(value_rows) => {
                    let mut slots = ParamSlots::default();
                    let mut rows = Vec::with_capacity(value_rows.len());
                    for exprs in value_rows {
                        if exprs.len() != columns.len() {
                            return Err(Error::execution(format!(
                                "INSERT expects {} values, got {}",
                                columns.len(),
                                exprs.len()
                            )));
                        }
                        // Values see no row: compiled against no columns.
                        rows.push(
                            exprs
                                .iter()
                                .map(|e| compile_expr(e, &Schema::empty(), &mut slots))
                                .collect::<Result<_>>()?,
                        );
                    }
                    (InsertRows::Values { rows, slots }, None)
                }
                InsertSource::Query(select) => {
                    let (query, opt) = plan_query(select, db, options)?;
                    if query.schema.len() != columns.len() {
                        return Err(Error::execution(format!(
                            "INSERT ... SELECT arity mismatch: {} vs {}",
                            columns.len(),
                            query.schema.len()
                        )));
                    }
                    (InsertRows::Query(Box::new(query)), Some(opt))
                }
            };
            let compiled = CompiledDml::Insert {
                table: t.name().to_string(),
                width: schema.len(),
                columns,
                source,
            };
            Ok(planned(compiled, opt))
        }
        Statement::Update {
            table,
            assignments,
            selection,
        } => {
            let t = db.table_ref(table)?;
            let (mut locate, opt) = locate_query(table, selection.as_ref(), db, options)?;
            let set = assignments
                .iter()
                .map(|(col, expr)| {
                    Ok((
                        t.schema().index_of(col)?,
                        compile_expr(expr, t.schema(), &mut locate.slots)?,
                    ))
                })
                .collect::<Result<_>>()?;
            let compiled = CompiledDml::Update {
                table: t.name().to_string(),
                locate,
                set,
            };
            Ok(planned(compiled, Some(opt)))
        }
        Statement::Delete { table, selection } => {
            let t = db.table_ref(table)?;
            let (locate, opt) = locate_query(table, selection.as_ref(), db, options)?;
            let compiled = CompiledDml::Delete {
                table: t.name().to_string(),
                locate,
            };
            Ok(planned(compiled, Some(opt)))
        }
        other => Err(Error::execution(format!("not a DML statement: {other}"))),
    }
}

impl CompiledDml {
    /// The row changes this statement performs on `db` under `params`, plus
    /// the *work* spent locating or producing rows. Applies nothing.
    pub fn changes(
        &self,
        db: &Database,
        params: &Bindings,
        work: &CostModel,
    ) -> Result<(Vec<RowChange>, f64)> {
        let run = |query: &CompiledQuery| {
            let ctx = ExecContext {
                db,
                remote: None,
                params,
                work,
                parallel: None,
            };
            execute_compiled(query, &ctx).map(|r| (r.rows, r.metrics.local_work))
        };
        match self {
            CompiledDml::Insert {
                table,
                width,
                columns,
                source,
            } => {
                let insert = |values: Vec<Value>| {
                    let mut full = vec![Value::Null; *width];
                    for (value, &column) in values.into_iter().zip(columns) {
                        full[column] = value;
                    }
                    RowChange::Insert {
                        table: table.clone(),
                        row: Row::new(full),
                    }
                };
                match source {
                    InsertRows::Values { rows, slots } => {
                        let resolved = slots.resolve(params);
                        let env = EvalEnv {
                            params: &resolved,
                            names: slots.names(),
                        };
                        let no_row = Row::new(vec![]);
                        let changes = rows
                            .iter()
                            .map(|exprs| {
                                let values = exprs
                                    .iter()
                                    .map(|e| e.eval(&no_row, env))
                                    .collect::<Result<_>>()?;
                                Ok(insert(values))
                            })
                            .collect::<Result<_>>()?;
                        Ok((changes, 0.0))
                    }
                    InsertRows::Query(query) => {
                        let (rows, work) = run(query)?;
                        Ok((rows.into_iter().map(|r| insert(r.0)).collect(), work))
                    }
                }
            }
            CompiledDml::Update { table, locate, set } => {
                let (targets, work) = run(locate)?;
                let resolved = locate.slots.resolve(params);
                let env = EvalEnv {
                    params: &resolved,
                    names: locate.slots.names(),
                };
                let changes = targets
                    .into_iter()
                    .map(|before| {
                        let mut after = before.clone();
                        for (column, expr) in set {
                            // Assignments see the *before* image, as SQL
                            // requires.
                            after.0[*column] = expr.eval(&before, env)?;
                        }
                        Ok(RowChange::Update {
                            table: table.clone(),
                            before,
                            after,
                        })
                    })
                    .collect::<Result<_>>()?;
                Ok((changes, work))
            }
            CompiledDml::Delete { table, locate } => {
                let (targets, work) = run(locate)?;
                let changes = targets
                    .into_iter()
                    .map(|row| RowChange::Delete {
                        table: table.clone(),
                        row,
                    })
                    .collect();
                Ok((changes, work))
            }
        }
    }
}

/// Derives the maintenance changes for every *select-project* materialized
/// view affected by `changes`, so they commit in the same transaction (the
/// backend maintains its materialized views eagerly).
pub fn derive_view_changes(db: &Database, changes: &[RowChange]) -> Result<Vec<RowChange>> {
    let mut derived = Vec::new();
    for view in db.catalog.materialized_views() {
        // Skip views without a local backing table (shadow copies) and
        // cached views (maintained by replication, not locally).
        if view.is_cached {
            continue;
        }
        let Ok(backing) = db.table_ref(&view.name) else {
            continue;
        };
        if backing.is_shadow() {
            continue;
        }
        let Some(base) = view.base_object() else {
            continue; // join/aggregate views refresh manually
        };
        // Resolved once per statement, and only when a change touches it.
        let touching: Vec<&RowChange> = changes
            .iter()
            .filter(|c| c.table().eq_ignore_ascii_case(base))
            .collect();
        if touching.is_empty() {
            continue;
        }
        let Ok(source) = db.table_ref(base) else {
            continue;
        };
        let Ok(article) = Article::from_select(&view.name, &view.definition, source.schema())
        else {
            continue;
        };
        let article = article.resolve(source.schema())?;
        for change in touching {
            article.filter_change(&view.name, change, &mut derived)?;
        }
    }
    Ok(derived)
}

#[cfg(test)]
mod tests {
    use super::*;
    use mtc_sql::parse_statement;
    use mtc_types::{row, Column, DataType, Schema};

    fn db() -> Database {
        let mut db = Database::new("d");
        db.create_table(
            "item",
            Schema::new(vec![
                Column::not_null("i_id", DataType::Int),
                Column::new("i_title", DataType::Str),
                Column::new("i_cost", DataType::Float),
            ]),
            &["i_id".into()],
        )
        .unwrap();
        db.apply(
            0,
            vec![
                RowChange::Insert {
                    table: "item".into(),
                    row: row![1, "a", 10.0],
                },
                RowChange::Insert {
                    table: "item".into(),
                    row: row![2, "b", 20.0],
                },
            ],
        )
        .unwrap();
        db
    }

    fn compile(db: &Database, sql: &str) -> Vec<RowChange> {
        let stmt = parse_statement(sql).unwrap();
        let options = OptimizerOptions::default();
        let planned = plan_dml(&stmt, db, &options).unwrap();
        let (changes, _work) = planned
            .compiled
            .changes(db, &Bindings::new(), &options.cost)
            .unwrap();
        changes
    }

    #[test]
    fn insert_with_column_list_fills_nulls() {
        let db = db();
        let ch = compile(&db, "INSERT INTO item (i_id, i_title) VALUES (3, 'c')");
        assert_eq!(ch.len(), 1);
        let RowChange::Insert { row, .. } = &ch[0] else {
            panic!()
        };
        assert_eq!(row[2], Value::Null);
    }

    #[test]
    fn update_sees_before_image() {
        let db = db();
        let ch = compile(&db, "UPDATE item SET i_cost = i_cost * 2 WHERE i_id = 2");
        assert_eq!(ch.len(), 1);
        let RowChange::Update { after, .. } = &ch[0] else {
            panic!()
        };
        assert_eq!(after[2], Value::Float(40.0));
    }

    #[test]
    fn delete_matches_predicate() {
        let db = db();
        let ch = compile(&db, "DELETE FROM item WHERE i_cost > 15");
        assert_eq!(ch.len(), 1);
        assert!(matches!(&ch[0], RowChange::Delete { row, .. } if row[0] == Value::Int(2)));
    }

    #[test]
    fn insert_select_copies_rows() {
        let mut db = db();
        db.create_table(
            "item2",
            Schema::new(vec![
                Column::not_null("i_id", DataType::Int),
                Column::new("i_title", DataType::Str),
            ]),
            &["i_id".into()],
        )
        .unwrap();
        db.analyze();
        let ch = compile(&db, "INSERT INTO item2 SELECT i_id, i_title FROM item");
        assert_eq!(ch.len(), 2);
    }

    #[test]
    fn derive_view_changes_select_project() {
        let mut db = db();
        db.create_table(
            "cheap_items",
            Schema::new(vec![
                Column::not_null("i_id", DataType::Int),
                Column::new("i_cost", DataType::Float),
            ]),
            &["i_id".into()],
        )
        .unwrap();
        let mtc_sql::Statement::Select(def) =
            parse_statement("SELECT i_id, i_cost FROM item WHERE i_cost <= 15").unwrap()
        else {
            panic!()
        };
        db.catalog_mut()
            .create_view(mtc_storage::ViewMeta {
                name: "cheap_items".into(),
                definition: def,
                materialized: true,
                is_cached: false,
            })
            .unwrap();
        // An update that moves a row out of the view.
        let base_change = RowChange::Update {
            table: "item".into(),
            before: row![1, "a", 10.0],
            after: row![1, "a", 99.0],
        };
        let derived = derive_view_changes(&db, &[base_change]).unwrap();
        assert_eq!(derived.len(), 1);
        assert!(matches!(&derived[0], RowChange::Delete { table, .. } if table == "cheap_items"));
    }
}
