//! Articles: select-project replication units.

use mtc_engine::compile::{compile_expr, CompiledExpr, EvalEnv, ParamSlots};
use mtc_sql::{Expr, Select, SelectItem, TableRef};
use mtc_storage::RowChange;
use mtc_types::{normalize_ident, Error, Result, Row, Schema};

/// An article: "a select-project expression over a table or a materialized
/// view. In other words, an article may contain only a subset of the columns
/// and rows of the underlying table or materialized view" (§2.2).
#[derive(Debug, Clone)]
pub struct Article {
    pub name: String,
    /// Source object on the publisher (table or materialized view).
    pub source: String,
    /// Projected column names, in output order.
    pub columns: Vec<String>,
    /// Row filter over the source schema; `None` = all rows.
    pub predicate: Option<Expr>,
}

impl Article {
    /// Builds an article from a select-project query (e.g. a cached view's
    /// definition). Rejects anything beyond select-project over one object.
    pub fn from_select(name: &str, definition: &Select, source_schema: &Schema) -> Result<Article> {
        let source = match definition.from.as_slice() {
            [TableRef::Table { name, .. }] => name.clone(),
            _ => {
                return Err(Error::replication(
                    "articles must select from exactly one object",
                ))
            }
        };
        if definition.distinct
            || definition.top.is_some()
            || !definition.group_by.is_empty()
            || definition.having.is_some()
        {
            return Err(Error::replication(
                "articles must be select-project (no DISTINCT/TOP/GROUP BY)",
            ));
        }
        let mut columns = Vec::new();
        for item in &definition.projection {
            match item {
                SelectItem::Wildcard | SelectItem::QualifiedWildcard(_) => {
                    for c in source_schema.columns() {
                        columns.push(c.name.clone());
                    }
                }
                SelectItem::Expr {
                    expr: Expr::Column(c),
                    ..
                } => {
                    let idx = source_schema.index_of(c)?;
                    columns.push(source_schema.column(idx).name.clone());
                }
                other => {
                    return Err(Error::replication(format!(
                        "article projections must be plain columns, got `{other}`"
                    )))
                }
            }
        }
        Ok(Article {
            name: name.to_string(),
            source,
            columns,
            predicate: definition.selection.clone(),
        })
    }

    /// Resolves the article against its source's schema — once, when a
    /// subscription is created. Distribution runs per view × per row
    /// change, so what it evaluates is the resolved form: no name
    /// lookup, no allocation beyond the projected row.
    pub fn resolve(&self, source_schema: &Schema) -> Result<ResolvedArticle> {
        let mut slots = ParamSlots::default();
        let filter = self
            .predicate
            .as_ref()
            .map(|p| compile_expr(p, source_schema, &mut slots))
            .transpose()?;
        Ok(ResolvedArticle {
            source: normalize_ident(&self.source),
            projection: self.projection_indices(source_schema)?,
            filter,
            slots,
        })
    }

    /// Column indices of the projection within the source schema.
    pub fn projection_indices(&self, source_schema: &Schema) -> Result<Vec<usize>> {
        self.columns
            .iter()
            .map(|c| source_schema.index_of(c))
            .collect()
    }
}

/// An [`Article`] resolved against its source schema (see
/// [`Article::resolve`]): the filter lowered to a compiled expression over
/// column ordinals, the projection as ordinals. The tree-walking `matches`
/// and `project` of this module's tests stay the reference it is tested
/// against.
#[derive(Debug, Clone)]
pub struct ResolvedArticle {
    /// Normalized source object name.
    source: String,
    /// Ordinals of the projected columns within a source row.
    projection: Vec<usize>,
    /// Row filter over source rows; `None` = all rows.
    filter: Option<CompiledExpr>,
    /// Parameters the filter names. An article binds none, so evaluating
    /// one is the same unbound-parameter error the reference raises.
    slots: ParamSlots,
}

impl ResolvedArticle {
    /// Is `table` (any case) this article's source?
    pub fn reads(&self, table: &str) -> bool {
        table.eq_ignore_ascii_case(&self.source)
    }

    /// Does `row` (a full source row) satisfy the article's row filter?
    pub fn matches(&self, row: &Row) -> Result<bool> {
        let env = EvalEnv {
            params: &[],
            names: self.slots.names(),
        };
        match &self.filter {
            None => Ok(true),
            Some(f) => Ok(f.eval_predicate(row, env)? == Some(true)),
        }
    }

    /// Projects a full source row onto the article's columns.
    pub fn project(&self, row: &Row) -> Row {
        row.project(&self.projection)
    }

    /// Converts one source row change into the changes it makes to a copy
    /// of the article named `target_table`, appended to `out`: rows the
    /// filter rejects are dropped, columns are projected, and an update
    /// that moves a row into or out of the filter becomes an insert or a
    /// delete. Replication distribution and the backend's eager
    /// materialized-view maintenance both run it.
    pub fn filter_change(
        &self,
        target_table: &str,
        change: &RowChange,
        out: &mut Vec<RowChange>,
    ) -> Result<()> {
        let table = || target_table.to_string();
        match change {
            RowChange::Insert { row, .. } => {
                if self.matches(row)? {
                    out.push(RowChange::Insert {
                        table: table(),
                        row: self.project(row),
                    });
                }
            }
            RowChange::Delete { row, .. } => {
                if self.matches(row)? {
                    out.push(RowChange::Delete {
                        table: table(),
                        row: self.project(row),
                    });
                }
            }
            RowChange::Update { before, after, .. } => {
                match (self.matches(before)?, self.matches(after)?) {
                    (true, true) => out.push(RowChange::Update {
                        table: table(),
                        before: self.project(before),
                        after: self.project(after),
                    }),
                    (true, false) => out.push(RowChange::Delete {
                        table: table(),
                        row: self.project(before),
                    }),
                    (false, true) => out.push(RowChange::Insert {
                        table: table(),
                        row: self.project(after),
                    }),
                    (false, false) => {}
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mtc_engine::eval::{eval_predicate, Bindings};
    use mtc_sql::{parse_statement, Statement};
    use mtc_types::{row, Column, DataType};

    /// The reference row filter: the tree-walking evaluator over the
    /// unresolved predicate, columns looked up by name.
    fn matches(a: &Article, row: &Row, source_schema: &Schema) -> Result<bool> {
        match &a.predicate {
            None => Ok(true),
            Some(p) => {
                Ok(eval_predicate(p, row, source_schema, &Bindings::new())? == Some(true))
            }
        }
    }

    /// The reference projection, by column name.
    fn project(a: &Article, row: &Row, source_schema: &Schema) -> Result<Row> {
        Ok(row.project(&a.projection_indices(source_schema)?))
    }

    fn schema() -> Schema {
        Schema::new(vec![
            Column::not_null("cid", DataType::Int),
            Column::new("cname", DataType::Str),
            Column::new("cbalance", DataType::Float),
        ])
    }

    fn select(sql: &str) -> Select {
        match parse_statement(sql).unwrap() {
            Statement::Select(s) => s,
            _ => panic!(),
        }
    }

    #[test]
    fn from_select_extracts_shape() {
        let a = Article::from_select(
            "a1",
            &select("SELECT cid, cname FROM customer WHERE cid <= 1000"),
            &schema(),
        )
        .unwrap();
        assert_eq!(a.source, "customer");
        assert_eq!(a.columns, vec!["cid", "cname"]);
        assert!(a.predicate.is_some());
    }

    #[test]
    fn wildcard_expands() {
        let a = Article::from_select("a1", &select("SELECT * FROM customer"), &schema()).unwrap();
        assert_eq!(a.columns.len(), 3);
        assert!(a.predicate.is_none());
    }

    #[test]
    fn rejects_aggregates_and_joins() {
        assert!(Article::from_select(
            "a",
            &select("SELECT COUNT(*) FROM customer"),
            &schema()
        )
        .is_err());
        assert!(Article::from_select(
            "a",
            &select("SELECT a.cid FROM customer AS a, customer AS b"),
            &schema()
        )
        .is_err());
        assert!(Article::from_select(
            "a",
            &select("SELECT DISTINCT cid FROM customer"),
            &schema()
        )
        .is_err());
    }

    /// The resolved form is what distribution and view maintenance run;
    /// `matches` / `project` above (tree-walking evaluator, by-name lookup)
    /// are the reference.
    #[test]
    fn resolved_article_agrees_with_the_reference() {
        use mtc_types::Value;
        use mtc_util::check::{self, Config};
        use mtc_util::rng::Rng;

        const FILTERS: [&str; 10] = [
            "cid <= {k}",
            "cname = 'n{k}' OR cbalance > {k}.5",
            "cbalance IS NULL",
            "cname IS NOT NULL AND cid <> {k}",
            "NOT (cid > {k} AND cbalance < 3.0)",
            "cname LIKE 'n1%'",
            "cid + 1 > {k} - cbalance",
            "cbalance / (cid - {k}) > 0.5",
            "cid BETWEEN {k} AND {k} + 3",
            "cid <= @bound",
        ];
        const COLUMNS: [&str; 3] = ["cid", "cname", "cbalance"];

        #[derive(Debug)]
        struct Case {
            sql: String,
            rows: Vec<Row>,
        }

        let generate = |rng: &mut mtc_util::rng::StdRng| {
            let mut columns: Vec<&str> =
                COLUMNS.into_iter().filter(|_| rng.gen_bool(0.7)).collect();
            if columns.is_empty() {
                columns.push("cid");
            }
            if rng.gen_bool(0.5) {
                columns.reverse();
            }
            let k = rng.gen_range(0i64..12);
            let filter = match rng.gen_range(0..=FILTERS.len()) {
                0 => String::new(),
                i => format!(" WHERE {}", FILTERS[i - 1].replace("{k}", &k.to_string())),
            };
            let rows = (0..12)
                .map(|_| {
                    let name = match rng.gen_range(0u32..4) {
                        0 => Value::Null,
                        _ => Value::Str(format!("n{}", rng.gen_range(0i64..12)).into()),
                    };
                    let balance = match rng.gen_range(0u32..4) {
                        0 => Value::Null,
                        _ => Value::Float(rng.gen_range(0i64..24) as f64 / 2.0),
                    };
                    Row::new(vec![Value::Int(rng.gen_range(0i64..12)), name, balance])
                })
                .collect();
            Case {
                sql: format!("SELECT {} FROM customer{filter}", columns.join(", ")),
                rows,
            }
        };
        check::run(
            &Config::cases(256),
            "resolved_article_agrees_with_the_reference",
            generate,
            |case| {
                let s = schema();
                let a = Article::from_select("a", &select(&case.sql), &s).unwrap();
                let r = a.resolve(&s).unwrap();
                assert!(r.reads("Customer") && !r.reads("customers"));
                for row in &case.rows {
                    match (r.matches(row), matches(&a, row, &s)) {
                        (Ok(got), Ok(want)) => assert_eq!(got, want, "{row:?}"),
                        (Err(got), Err(want)) => assert_eq!(got.to_string(), want.to_string()),
                        (got, want) => panic!("{row:?}: resolved {got:?}, reference {want:?}"),
                    }
                    assert_eq!(r.project(row), project(&a, row, &s).unwrap(), "{row:?}");
                }
            },
        );
    }

    #[test]
    fn resolving_rejects_a_column_the_source_lacks() {
        let mut a =
            Article::from_select("a", &select("SELECT cid FROM customer"), &schema()).unwrap();
        a.predicate = select("SELECT cid FROM customer WHERE nope = 1").selection;
        assert!(a.resolve(&schema()).is_err());
    }

    #[test]
    fn matches_and_projects() {
        let a = Article::from_select(
            "a1",
            &select("SELECT cid, cname FROM customer WHERE cid <= 1000"),
            &schema(),
        )
        .unwrap();
        let s = schema();
        let inside = row![5, "alice", 10.0];
        let outside = row![5000, "bob", 20.0];
        assert!(matches(&a, &inside, &s).unwrap());
        assert!(!matches(&a, &outside, &s).unwrap());
        assert_eq!(project(&a, &inside, &s).unwrap(), row![5, "alice"]);
    }
}
