//! DML compilation: INSERT/UPDATE/DELETE statements → row-change lists,
//! plus eager maintenance of select-project materialized views on the
//! backend (so cached views defined over backend MVs replicate correctly).

use mtc_engine::eval::{eval, Bindings};
use mtc_engine::{bind_select, execute, ExecContext, OptimizerOptions};
use mtc_replication::Article;
use mtc_sql::{Expr, InsertSource, Select, SelectItem, Statement, TableRef};
use mtc_storage::{Database, RowChange};
use mtc_types::{Error, Result, Row, Value};

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

/// Compiles a DML statement into the row changes it performs, evaluating
/// expressions against current data, plus the *work* spent locating target
/// rows (update/delete targets are found through the query engine, so a
/// point update pays an index seek, not a table scan). Does not apply
/// anything.
pub fn compile_dml(
    stmt: &Statement,
    db: &Database,
    params: &Bindings,
    options: &OptimizerOptions,
) -> Result<(Vec<RowChange>, f64)> {
    match stmt {
        Statement::Insert {
            table,
            columns,
            source,
        } => compile_insert(table, columns, source, db, params, options),
        Statement::Update {
            table,
            assignments,
            selection,
        } => compile_update(table, assignments, selection.as_ref(), db, params, options),
        Statement::Delete { table, selection } => {
            compile_delete(table, selection.as_ref(), db, params, options)
        }
        other => Err(Error::execution(format!(
            "not a DML statement: {other}"
        ))),
    }
}

fn compile_insert(
    table: &str,
    columns: &[String],
    source: &InsertSource,
    db: &Database,
    params: &Bindings,
    options: &OptimizerOptions,
) -> Result<(Vec<RowChange>, f64)> {
    let t = db.table_ref(table)?;
    let schema = t.schema().clone();
    let col_indices: Vec<usize> = if columns.is_empty() {
        (0..schema.len()).collect()
    } else {
        columns
            .iter()
            .map(|c| schema.index_of(c))
            .collect::<Result<_>>()?
    };

    let mut locate_work = 0.0f64;
    let value_rows: Vec<Row> = match source {
        InsertSource::Values(rows) => {
            let empty = Row::new(vec![]);
            let empty_schema = mtc_types::Schema::empty();
            let mut out = Vec::with_capacity(rows.len());
            for exprs in rows {
                if exprs.len() != col_indices.len() {
                    return Err(Error::execution(format!(
                        "INSERT expects {} values, got {}",
                        col_indices.len(),
                        exprs.len()
                    )));
                }
                let vals: Vec<Value> = exprs
                    .iter()
                    .map(|e| eval(e, &empty, &empty_schema, params))
                    .collect::<Result<_>>()?;
                out.push(Row::new(vals));
            }
            out
        }
        InsertSource::Query(select) => {
            let plan = bind_select(select, db)?;
            let opt = mtc_engine::optimize(plan, db, options)?;
            let ctx = ExecContext {
                db,
                remote: None,
                params,
                work: &options.cost,
                parallel: None,
            };
            let result = execute(&opt.physical, &ctx)?;
            if result.schema.len() != col_indices.len() {
                return Err(Error::execution(format!(
                    "INSERT ... SELECT arity mismatch: {} vs {}",
                    col_indices.len(),
                    result.schema.len()
                )));
            }
            locate_work += result.metrics.local_work;
            result.rows
        }
    };

    let mut changes = Vec::with_capacity(value_rows.len());
    for vals in value_rows {
        let mut full = vec![Value::Null; schema.len()];
        for (i, &ci) in col_indices.iter().enumerate() {
            full[ci] = vals[i].clone();
        }
        changes.push(RowChange::Insert {
            table: t.name().to_string(),
            row: Row::new(full),
        });
    }
    Ok((changes, locate_work))
}

/// Locates the rows a DML statement targets, through the full query engine
/// (binder → optimizer → executor), so sargable predicates use index seeks.
/// Returns the matched (full) rows and the work spent finding them.
fn matching_rows(
    table: &str,
    selection: Option<&Expr>,
    db: &Database,
    params: &Bindings,
    options: &OptimizerOptions,
) -> Result<(Vec<Row>, f64)> {
    let select = Select {
        projection: vec![SelectItem::Wildcard],
        from: vec![TableRef::Table {
            name: table.to_string(),
            alias: None,
        }],
        selection: selection.cloned(),
        ..Select::default()
    };
    let plan = bind_select(&select, db)?;
    let opt = mtc_engine::optimize(plan, db, options)?;
    let ctx = ExecContext {
        db,
        remote: None,
        params,
        work: &options.cost,
        parallel: None,
    };
    let result = execute(&opt.physical, &ctx)?;
    Ok((result.rows, result.metrics.local_work))
}

fn compile_update(
    table: &str,
    assignments: &[(String, Expr)],
    selection: Option<&Expr>,
    db: &Database,
    params: &Bindings,
    options: &OptimizerOptions,
) -> Result<(Vec<RowChange>, f64)> {
    let t = db.table_ref(table)?;
    let schema = t.schema().clone();
    let (targets, locate_work) = matching_rows(table, selection, db, params, options)?;
    let mut changes = Vec::with_capacity(targets.len());
    for before in targets {
        let mut after = before.clone();
        for (col, expr) in assignments {
            let idx = schema.index_of(col)?;
            // Assignments see the *before* image, as SQL requires.
            after.0[idx] = eval(expr, &before, &schema, params)?;
        }
        changes.push(RowChange::Update {
            table: t.name().to_string(),
            before,
            after,
        });
    }
    Ok((changes, locate_work))
}

fn compile_delete(
    table: &str,
    selection: Option<&Expr>,
    db: &Database,
    params: &Bindings,
    options: &OptimizerOptions,
) -> Result<(Vec<RowChange>, f64)> {
    let t = db.table_ref(table)?;
    let (targets, locate_work) = matching_rows(table, selection, db, params, options)?;
    Ok((
        targets
            .into_iter()
            .map(|row| RowChange::Delete {
                table: t.name().to_string(),
                row,
            })
            .collect(),
        locate_work,
    ))
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
        let Ok(source) = db.table_ref(base) else {
            continue;
        };
        let schema = source.schema();
        let Ok(article) = Article::from_select(&view.name, &view.definition, schema) else {
            continue;
        };
        for change in changes {
            if mtc_types::normalize_ident(change.table()) != mtc_types::normalize_ident(base) {
                continue;
            }
            match change {
                RowChange::Insert { row, .. } => {
                    if article.matches(row, schema)? {
                        derived.push(RowChange::Insert {
                            table: view.name.clone(),
                            row: article.project(row, schema)?,
                        });
                    }
                }
                RowChange::Delete { row, .. } => {
                    if article.matches(row, schema)? {
                        derived.push(RowChange::Delete {
                            table: view.name.clone(),
                            row: article.project(row, schema)?,
                        });
                    }
                }
                RowChange::Update { before, after, .. } => {
                    let was = article.matches(before, schema)?;
                    let is = article.matches(after, schema)?;
                    match (was, is) {
                        (true, true) => derived.push(RowChange::Update {
                            table: view.name.clone(),
                            before: article.project(before, schema)?,
                            after: article.project(after, schema)?,
                        }),
                        (true, false) => derived.push(RowChange::Delete {
                            table: view.name.clone(),
                            row: article.project(before, schema)?,
                        }),
                        (false, true) => derived.push(RowChange::Insert {
                            table: view.name.clone(),
                            row: article.project(after, schema)?,
                        }),
                        (false, false) => {}
                    }
                }
            }
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
        let (changes, _work) = compile_dml(
            &stmt,
            db,
            &Bindings::new(),
            &OptimizerOptions::default(),
        )
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
