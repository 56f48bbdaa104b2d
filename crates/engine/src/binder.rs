//! Binder: AST → logical plan.
//!
//! Binding resolves object and column names against a database, expands
//! wildcards, extracts aggregates, and produces a [`LogicalPlan`] whose
//! `Get` leaves carry the correct [`DataLocation`] (`Remote` for shadow
//! tables, `Local` for anything present on this server).

use mtc_sql::{Expr, JoinKind, Select, SelectItem, TableRef};
use mtc_storage::Database;
use mtc_types::{normalize_ident, Column, DataType, Error, Result, Schema};

use crate::logical::{AggCall, AggFunc, DataLocation, LogicalPlan, SortKey};

/// Binds a SELECT against a database.
pub fn bind_select(select: &Select, db: &Database) -> Result<LogicalPlan> {
    Binder { db }.bind(select)
}

/// The binder. Borrow of the database it resolves names against.
pub struct Binder<'a> {
    pub db: &'a Database,
}

impl<'a> Binder<'a> {
    pub fn bind(&self, select: &Select) -> Result<LogicalPlan> {
        // FROM clause → cross-joined tree of Get/Join nodes.
        let mut plan = match select.from.split_first() {
            None => {
                // SELECT without FROM: single empty row.
                LogicalPlan::Get {
                    object: String::new(),
                    alias: String::new(),
                    schema: Schema::empty(),
                    location: DataLocation::Local,
                }
            }
            Some((first, rest)) => {
                let mut plan = self.bind_table_ref(first)?;
                for t in rest {
                    let right = self.bind_table_ref(t)?;
                    let schema = plan.schema().join(right.schema());
                    plan = LogicalPlan::Join {
                        left: Box::new(plan),
                        right: Box::new(right),
                        kind: JoinKind::Cross,
                        on: None,
                        schema,
                    };
                }
                plan
            }
        };

        // WHERE.
        if let Some(pred) = &select.selection {
            self.check_columns(pred, plan.schema())?;
            plan = LogicalPlan::Filter {
                input: Box::new(plan),
                predicate: pred.clone(),
            };
        }

        // Aggregation: collect aggregate calls from projection, HAVING and
        // ORDER BY; rewrite those clauses to reference aggregate outputs.
        let mut agg_calls: Vec<AggCall> = Vec::new();
        let proj_items = self.expand_projection(select, plan.schema())?;
        let mut bound_proj: Vec<(Expr, String)> = Vec::new();
        for (expr, name) in &proj_items {
            let rewritten = self.extract_aggs(expr, &mut agg_calls, plan.schema())?;
            bound_proj.push((rewritten, name.clone()));
        }
        let having = select
            .having
            .as_ref()
            .map(|h| self.extract_aggs(h, &mut agg_calls, plan.schema()))
            .transpose()?;
        let mut order_keys: Vec<SortKey> = Vec::new();
        for item in &select.order_by {
            let rewritten = self.extract_aggs(&item.expr, &mut agg_calls, plan.schema())?;
            order_keys.push(SortKey {
                expr: rewritten,
                asc: item.asc,
            });
        }

        let has_aggregation = !agg_calls.is_empty() || !select.group_by.is_empty();
        if has_aggregation {
            // Build Aggregate: group-by columns first, aggregates after.
            let input_schema = plan.schema().clone();
            let mut out_cols: Vec<Column> = Vec::new();
            let mut group_names: Vec<(Expr, String)> = Vec::new();
            for (i, g) in select.group_by.iter().enumerate() {
                self.check_columns(g, &input_schema)?;
                let (name, dtype) = match g {
                    Expr::Column(c) => {
                        let idx = input_schema.index_of(c)?;
                        (
                            input_schema.column(idx).name.clone(),
                            input_schema.column(idx).dtype,
                        )
                    }
                    other => (format!("group_{i}"), infer_type(other, &input_schema)),
                };
                out_cols.push(Column::new(&name, dtype));
                group_names.push((g.clone(), name));
            }
            for call in &agg_calls {
                if let Some(arg) = &call.arg {
                    self.check_columns(arg, &input_schema)?;
                }
                out_cols.push(crate::logical::agg_output_column(call, &input_schema));
            }
            let agg_schema = Schema::new(out_cols);
            plan = LogicalPlan::Aggregate {
                input: Box::new(plan),
                group_by: select.group_by.clone(),
                aggs: agg_calls.clone(),
                schema: agg_schema.clone(),
            };
            // Rewrite group-by expressions in projection/having/order-by to
            // reference the aggregate output columns.
            let rewrite_groups = |e: &Expr| -> Expr {
                e.rewrite(&mut |node| {
                    for (g, name) in &group_names {
                        if &node == g {
                            return Expr::Column(name.clone());
                        }
                    }
                    node
                })
            };
            bound_proj = bound_proj
                .iter()
                .map(|(e, n)| (rewrite_groups(e), n.clone()))
                .collect();
            order_keys = order_keys
                .into_iter()
                .map(|k| SortKey {
                    expr: rewrite_groups(&k.expr),
                    asc: k.asc,
                })
                .collect();
            if let Some(h) = having {
                let h = rewrite_groups(&h);
                self.check_columns(&h, plan.schema())?;
                plan = LogicalPlan::Filter {
                    input: Box::new(plan),
                    predicate: h,
                };
            }
        } else if select.having.is_some() {
            return Err(Error::plan("HAVING requires GROUP BY or aggregates"));
        }

        // Projection.
        let proj_schema = Schema::new(
            bound_proj
                .iter()
                .map(|(e, n)| {
                    self.check_columns(e, plan.schema())?;
                    Ok(Column::new(n, infer_type(e, plan.schema())))
                })
                .collect::<Result<Vec<_>>>()?,
        );

        // ORDER BY placement: keys that resolve against the projection
        // output (aliases or whole projected expressions) sort *above* the
        // Project; keys referencing non-projected columns (`SELECT o_id …
        // ORDER BY o_date`) force the Sort *below* the Project, where they
        // still resolve. Project and Distinct preserve row order.
        let post_keys: Vec<SortKey> = order_keys
            .iter()
            .map(|k| SortKey {
                expr: rewrite_against_projection(&k.expr, &bound_proj, &proj_schema),
                asc: k.asc,
            })
            .collect();
        let sort_above = post_keys
            .iter()
            .all(|k| self.check_columns(&k.expr, &proj_schema).is_ok());
        if !order_keys.is_empty() && !sort_above {
            for k in &order_keys {
                self.check_columns(&k.expr, plan.schema())?;
            }
            plan = LogicalPlan::Sort {
                input: Box::new(plan),
                keys: order_keys.clone(),
            };
        }

        plan = LogicalPlan::Project {
            input: Box::new(plan),
            exprs: bound_proj.clone(),
            schema: proj_schema.clone(),
        };

        if select.distinct {
            plan = LogicalPlan::Distinct {
                input: Box::new(plan),
            };
        }

        if !order_keys.is_empty() && sort_above {
            plan = LogicalPlan::Sort {
                input: Box::new(plan),
                keys: post_keys,
            };
        }

        if let Some(n) = select.top {
            plan = LogicalPlan::Top {
                input: Box::new(plan),
                n,
            };
        }
        Ok(plan)
    }

    fn bind_table_ref(&self, t: &TableRef) -> Result<LogicalPlan> {
        match t {
            TableRef::Table { name, alias } => {
                let alias = alias.clone().unwrap_or_else(|| {
                    // Use the last path component of a qualified name.
                    name.rsplit('.').next().unwrap_or(name).to_string()
                });
                self.bind_object(name, &alias)
            }
            TableRef::Join {
                left,
                right,
                kind,
                on,
            } => {
                let l = self.bind_table_ref(left)?;
                let r = self.bind_table_ref(right)?;
                let schema = l.schema().join(r.schema());
                if let Some(on) = on {
                    self.check_columns(on, &schema)?;
                }
                Ok(LogicalPlan::Join {
                    left: Box::new(l),
                    right: Box::new(r),
                    kind: *kind,
                    on: on.clone(),
                    schema,
                })
            }
        }
    }

    /// Resolves a named object to a `Get` (tables, materialized views) or an
    /// inlined subplan (virtual views).
    fn bind_object(&self, name: &str, alias: &str) -> Result<LogicalPlan> {
        let name = normalize_ident(name);
        // Strip linked-server qualification (`server.db.schema.table`): the
        // final component names the object in this catalog.
        let local_name = name.rsplit('.').next().unwrap_or(&name).to_string();

        if let Some(view) = self.db.catalog.view(&local_name) {
            if view.materialized {
                // Materialized view: backed by a table of the same name.
                let t = self.db.table_ref(&local_name)?;
                return Ok(LogicalPlan::Get {
                    object: local_name.clone(),
                    alias: alias.to_string(),
                    schema: t.schema().qualified(alias),
                    location: if t.is_shadow() {
                        DataLocation::Remote
                    } else {
                        DataLocation::Local
                    },
                });
            }
            // Virtual view: inline its definition, then re-qualify.
            let sub = self.bind(&view.definition.clone())?;
            let schema = sub.schema().qualified(alias);
            let exprs = sub
                .schema()
                .columns()
                .iter()
                .zip(schema.columns())
                .map(|(src, dst)| (Expr::Column(src.name.clone()), dst.name.clone()))
                .collect();
            return Ok(LogicalPlan::Project {
                input: Box::new(sub),
                exprs,
                schema,
            });
        }

        let t = self.db.table_ref(&local_name)?;
        Ok(LogicalPlan::Get {
            object: local_name.clone(),
            alias: alias.to_string(),
            schema: t.schema().qualified(alias),
            location: if t.is_shadow() {
                DataLocation::Remote
            } else {
                DataLocation::Local
            },
        })
    }

    /// Expands `*` and `alias.*`, attaches output names.
    fn expand_projection(
        &self,
        select: &Select,
        input: &Schema,
    ) -> Result<Vec<(Expr, String)>> {
        let mut out = Vec::new();
        for item in &select.projection {
            match item {
                SelectItem::Wildcard => {
                    for c in input.columns() {
                        out.push((Expr::Column(c.name.clone()), unqualified(&c.name)));
                    }
                }
                SelectItem::QualifiedWildcard(q) => {
                    let prefix = format!("{}.", normalize_ident(q));
                    let mut found = false;
                    for c in input.columns() {
                        if c.name.starts_with(&prefix) {
                            out.push((Expr::Column(c.name.clone()), unqualified(&c.name)));
                            found = true;
                        }
                    }
                    if !found {
                        return Err(Error::catalog(format!("unknown alias `{q}` in `{q}.*`")));
                    }
                }
                SelectItem::Expr { expr, alias } => {
                    let name = alias.clone().unwrap_or_else(|| default_name(expr, out.len()));
                    out.push((expr.clone(), name));
                }
            }
        }
        Ok(out)
    }

    /// Replaces aggregate calls in `expr` with references to aggregate
    /// output columns, registering them in `calls` (deduplicated).
    fn extract_aggs(
        &self,
        expr: &Expr,
        calls: &mut Vec<AggCall>,
        input: &Schema,
    ) -> Result<Expr> {
        let _ = input;
        Ok(expr.rewrite(&mut |node| {
            if let Expr::Function {
                name,
                args,
                distinct,
            } = &node
            {
                if let Some(func) = AggFunc::parse(name) {
                    let arg = args.first().cloned();
                    // Dedupe identical calls.
                    if let Some(existing) = calls
                        .iter()
                        .find(|c| c.func == func && c.arg == arg && c.distinct == *distinct)
                    {
                        return Expr::Column(existing.output_name.clone());
                    }
                    let output_name = format!("agg_{}", calls.len());
                    calls.push(AggCall {
                        func,
                        arg,
                        distinct: *distinct,
                        output_name: output_name.clone(),
                    });
                    return Expr::Column(output_name);
                }
            }
            node
        }))
    }

    /// Validates that every column in `expr` resolves in `schema`.
    fn check_columns(&self, expr: &Expr, schema: &Schema) -> Result<()> {
        let mut err = None;
        expr.visit(&mut |e| {
            if err.is_some() {
                return;
            }
            if let Expr::Column(c) = e {
                if let Err(e) = schema.index_of(c) {
                    err = Some(e);
                }
            }
        });
        match err {
            Some(e) => Err(e),
            None => Ok(()),
        }
    }
}

/// Uses the projection to rewrite an ORDER BY key: output aliases win, and
/// any key equal to a whole projected expression becomes that output column.
fn rewrite_against_projection(
    key: &Expr,
    proj: &[(Expr, String)],
    proj_schema: &Schema,
) -> Expr {
    // Bare column that names an output column directly?
    if let Expr::Column(c) = key {
        if proj_schema.index_of(c).is_ok() {
            return key.clone();
        }
    }
    // Equal to a projected expression?
    for (e, name) in proj {
        if key == e {
            return Expr::Column(name.clone());
        }
    }
    key.clone()
}

fn unqualified(name: &str) -> String {
    name.rsplit('.').next().unwrap_or(name).to_string()
}

fn default_name(expr: &Expr, position: usize) -> String {
    match expr {
        Expr::Column(c) => unqualified(c),
        _ => format!("col_{position}"),
    }
}

/// Best-effort output type inference.
pub fn infer_type(expr: &Expr, schema: &Schema) -> DataType {
    match expr {
        Expr::Column(c) => schema
            .index_of(c)
            .map(|i| schema.column(i).dtype)
            .unwrap_or(DataType::Str),
        Expr::Literal(v) => v.data_type().unwrap_or(DataType::Str),
        Expr::Param(_) => DataType::Str,
        Expr::Unary { expr, .. } => infer_type(expr, schema),
        Expr::Binary { left, op, right } => {
            if op.is_comparison() || matches!(op, mtc_sql::BinOp::And | mtc_sql::BinOp::Or) {
                DataType::Bool
            } else {
                match (infer_type(left, schema), infer_type(right, schema)) {
                    (DataType::Str, _) | (_, DataType::Str) => DataType::Str,
                    (DataType::Float, _) | (_, DataType::Float) => DataType::Float,
                    _ => DataType::Int,
                }
            }
        }
        Expr::Function { name, args, .. } => match name.to_ascii_uppercase().as_str() {
            "LEN" | "LENGTH" => DataType::Int,
            "LOWER" | "UPPER" | "SUBSTRING" => DataType::Str,
            "ROUND" | "ABS" => args
                .first()
                .map(|a| infer_type(a, schema))
                .unwrap_or(DataType::Float),
            _ => DataType::Float,
        },
        Expr::Like { .. } | Expr::InList { .. } | Expr::IsNull { .. } => DataType::Bool,
        Expr::Case {
            branches,
            else_expr,
        } => branches
            .first()
            .map(|(_, v)| infer_type(v, schema))
            .or_else(|| else_expr.as_ref().map(|e| infer_type(e, schema)))
            .unwrap_or(DataType::Str),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mtc_sql::parse_statement;
    use mtc_types::row;

    fn test_db() -> Database {
        let mut db = Database::new("test");
        db.create_table(
            "customer",
            Schema::new(vec![
                Column::not_null("cid", DataType::Int),
                Column::new("cname", DataType::Str),
            ]),
            &["cid".into()],
        )
        .unwrap();
        db.create_table(
            "orders",
            Schema::new(vec![
                Column::not_null("oid", DataType::Int),
                Column::not_null("ckey", DataType::Int),
                Column::new("total", DataType::Float),
            ]),
            &["oid".into()],
        )
        .unwrap();
        db.apply(
            0,
            vec![
                mtc_storage::RowChange::Insert {
                    table: "customer".into(),
                    row: row![1, "alice"],
                },
            ],
        )
        .unwrap();
        db
    }

    fn bind(db: &Database, sql: &str) -> Result<LogicalPlan> {
        let stmt = parse_statement(sql).unwrap();
        let mtc_sql::Statement::Select(sel) = stmt else {
            panic!("not a select")
        };
        bind_select(&sel, db)
    }

    #[test]
    fn binds_simple_select() {
        let db = test_db();
        let plan = bind(&db, "SELECT cid, cname FROM customer WHERE cid <= 10").unwrap();
        let text = plan.explain();
        assert!(text.contains("Get customer [Local]"), "{text}");
        assert!(text.contains("Filter cid <= 10"), "{text}");
        assert_eq!(plan.schema().column(0).name, "cid");
    }

    #[test]
    fn shadow_tables_bind_remote() {
        let db = test_db().shadow_clone();
        let plan = bind(&db, "SELECT cid FROM customer").unwrap();
        assert!(plan.explain().contains("[Remote]"));
    }

    #[test]
    fn wildcard_expansion() {
        let db = test_db();
        let plan = bind(&db, "SELECT * FROM customer").unwrap();
        assert_eq!(plan.schema().len(), 2);
        let plan = bind(
            &db,
            "SELECT c.* FROM customer AS c INNER JOIN orders AS o ON c.cid = o.ckey",
        )
        .unwrap();
        assert_eq!(plan.schema().len(), 2);
        assert_eq!(plan.schema().column(0).name, "cid");
    }

    #[test]
    fn unknown_column_is_an_error() {
        let db = test_db();
        let err = bind(&db, "SELECT nope FROM customer").unwrap_err();
        assert_eq!(err.kind(), "catalog");
        let err = bind(&db, "SELECT cid FROM customer WHERE nope = 1").unwrap_err();
        assert_eq!(err.kind(), "catalog");
    }

    #[test]
    fn ambiguous_column_is_an_error() {
        let mut db = test_db();
        db.create_table(
            "customer2",
            Schema::new(vec![Column::not_null("cid", DataType::Int)]),
            &["cid".into()],
        )
        .unwrap();
        let err = bind(
            &db,
            "SELECT cid FROM customer AS a, customer2 AS b",
        )
        .unwrap_err();
        assert!(err.to_string().contains("ambiguous"), "{err}");
    }

    #[test]
    fn aggregate_extraction_and_group_by() {
        let db = test_db();
        let plan = bind(
            &db,
            "SELECT ckey, COUNT(*) AS cnt, SUM(total) FROM orders GROUP BY ckey HAVING COUNT(*) > 1 ORDER BY cnt DESC",
        )
        .unwrap();
        let text = plan.explain();
        assert!(text.contains("Aggregate"), "{text}");
        // COUNT(*) deduplicated between projection and HAVING.
        assert!(text.matches("COUNT").count() >= 1);
        assert_eq!(plan.schema().column(0).name, "ckey");
        assert_eq!(plan.schema().column(1).name, "cnt");
    }

    #[test]
    fn order_by_alias_resolves() {
        let db = test_db();
        let plan = bind(
            &db,
            "SELECT cid AS id FROM customer ORDER BY id DESC",
        )
        .unwrap();
        assert!(plan.explain().contains("Sort id DESC"));
    }

    #[test]
    fn top_without_from() {
        let db = test_db();
        let plan = bind(&db, "SELECT TOP 1 1 AS one").unwrap();
        assert!(plan.explain().contains("Top 1"));
    }

    #[test]
    fn having_without_group_rejected() {
        let db = test_db();
        assert!(bind(&db, "SELECT cid FROM customer HAVING cid > 1").is_err());
    }

    #[test]
    fn virtual_view_inlines() {
        let mut db = test_db();
        let mtc_sql::Statement::CreateView { name, query, .. } =
            parse_statement("CREATE VIEW big_customers AS SELECT cid, cname FROM customer WHERE cid > 5").unwrap()
        else {
            panic!()
        };
        db.catalog_mut()
            .create_view(mtc_storage::ViewMeta {
                name,
                definition: query,
                materialized: false,
                is_cached: false,
            })
            .unwrap();
        let plan = bind(&db, "SELECT * FROM big_customers WHERE cid < 100").unwrap();
        let text = plan.explain();
        assert!(text.contains("Get customer"), "view inlined: {text}");
        assert!(text.contains("cid > 5"), "{text}");
    }
}
