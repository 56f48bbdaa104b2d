//! A prepared statement: everything that is a function of the text alone.
//!
//! A server that executes the same text again — a parameterized client
//! statement, a stored-procedure body, a fragment the cache ships on every
//! remote miss — needs the AST, the canonical rendering its plan is cached
//! under and the objects its permission check and its cached results depend
//! on. None of that depends on the catalog, the data, the principal or the
//! parameter values, so it is computed once here and shared behind an `Arc`;
//! nothing ever invalidates it.

use std::fmt;
use std::sync::Arc;

use mtc_types::{fingerprint, normalize_ident, Result};

use crate::ast::{Select, Statement, TableRef};
use crate::parser::parse_statement;

/// One parsed statement and what its text determines.
#[derive(Clone, PartialEq)]
pub struct Prepared {
    /// The text as it was received (for a statement prepared from an AST:
    /// its canonical rendering).
    pub text: Arc<str>,
    pub statement: Statement,
    /// The canonical rendering (`Statement::to_string`, which normalizes
    /// identifiers and spacing): the statement half of a plan-cache and a
    /// result-cache key.
    pub key: String,
    /// `key`'s fingerprint ([`mtc_types::fingerprint`]), hashed once here:
    /// the caches keyed on `key` probe with it instead of hashing the text.
    pub fingerprint: u64,
    /// The objects a SELECT names in its FROM clause, in FROM order, schema
    /// prefixes stripped: what the per-execution permission check walks.
    /// Empty for every other statement.
    pub objects: Vec<String>,
    /// `objects`, normalized, sorted and deduplicated: the tables whose
    /// writes invalidate a cached result of this statement.
    pub tables: Arc<[String]>,
    /// The parameters the statement references, sorted and deduplicated:
    /// the bindings its answer can depend on, whatever else is bound.
    pub params: Vec<String>,
}

impl Prepared {
    /// Parses `text`. A text that does not parse prepares nothing.
    pub fn new(text: &str) -> Result<Prepared> {
        let statement = parse_statement(text)?;
        let key = statement.to_string();
        Ok(Prepared::build(text.into(), statement, key))
    }

    /// Prepares an already parsed statement (a script or procedure-body
    /// statement, which has no text of its own).
    pub fn from_statement(statement: Statement) -> Prepared {
        let key = statement.to_string();
        Prepared::build(key.as_str().into(), statement, key)
    }

    fn build(text: Arc<str>, statement: Statement, key: String) -> Prepared {
        let mut objects = Vec::new();
        if let Statement::Select(select) = &statement {
            for from in &select.from {
                from_objects(from, &mut objects);
            }
        }
        let mut tables: Vec<String> = objects.iter().map(|o| normalize_ident(o)).collect();
        tables.sort();
        tables.dedup();
        let mut params: Vec<String> = Vec::new();
        statement.visit_exprs(&mut |e| params.extend(e.params().into_iter().map(String::from)));
        params.sort();
        params.dedup();
        Prepared {
            text,
            statement,
            fingerprint: fingerprint(&key),
            key,
            objects,
            tables: tables.into(),
            params,
        }
    }

    /// The statement, if it is a SELECT.
    pub fn select(&self) -> Option<&Select> {
        match &self.statement {
            Statement::Select(select) => Some(select),
            _ => None,
        }
    }
}

fn from_objects(from: &TableRef, out: &mut Vec<String>) {
    match from {
        TableRef::Table { name, .. } => {
            out.push(name.rsplit('.').next().unwrap_or(name).to_string());
        }
        TableRef::Join { left, right, .. } => {
            from_objects(left, out);
            from_objects(right, out);
        }
    }
}

/// Prints the text only: a `Prepared` sits inside compiled plans, whose
/// `Debug` form is read by people and compared by tests.
impl fmt::Debug for Prepared {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Prepared({:?})", self.text)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn select_derives_key_objects_and_tables() {
        let p = Prepared::new(
            "select  I_ID from dbo.Item, author JOIN item ON a_id = i_a_id where i_id = @id",
        )
        .unwrap();
        assert_eq!(p.key, p.statement.to_string());
        assert_eq!(p.key, p.select().unwrap().to_string());
        assert_eq!(p.fingerprint, mtc_types::fingerprint(&p.key));
        assert_eq!(p.objects, ["item", "author", "item"]);
        assert_eq!(&*p.tables, ["author", "item"]);
        assert_eq!(p.params, ["id"]);
        assert!(
            p.text.starts_with("select  I_ID"),
            "text is kept as received"
        );
    }

    #[test]
    fn other_statements_name_no_objects() {
        let p = Prepared::new("UPDATE item SET i_cost = 1 WHERE i_id = 2").unwrap();
        assert!(p.select().is_none());
        assert!(p.objects.is_empty() && p.tables.is_empty());
        assert_eq!(p.key, "UPDATE item SET i_cost = 1 WHERE i_id = 2");
        assert!(p.params.is_empty());
    }

    #[test]
    fn params_are_whatever_any_clause_references() {
        let params = |sql: &str| Prepared::new(sql).unwrap().params;
        assert_eq!(
            params(
                "SELECT a + @sel FROM t INNER JOIN u ON t.k = u.k AND u.z = @on \
                 WHERE a IN (@w, @W) GROUP BY a HAVING COUNT(*) > @h ORDER BY a + @o ASC"
            ),
            ["h", "o", "on", "sel", "w"]
        );
        assert_eq!(params("UPDATE t SET a = @v WHERE k = @k"), ["k", "v"]);
        assert_eq!(params("INSERT INTO t VALUES (@a, 1), (@b, 2)"), ["a", "b"]);
        assert_eq!(
            params("DELETE FROM t WHERE k BETWEEN @lo AND @hi"),
            ["hi", "lo"]
        );
        assert_eq!(params("EXEC p @x = @y"), ["y"]);
        assert!(params("SELECT * FROM author").is_empty());
    }

    #[test]
    fn from_statement_renders_its_own_text() {
        let stmt = parse_statement("EXEC  getBook @i_id = 3").unwrap();
        let p = Prepared::from_statement(stmt.clone());
        assert_eq!(&*p.text, stmt.to_string());
        assert_eq!(p, Prepared::new(&p.text).unwrap());
    }

    #[test]
    fn unparsable_text_prepares_nothing() {
        assert!(Prepared::new("SELEKT 1").is_err());
    }
}
