//! SQL front end: lexer, AST, recursive-descent parser and SQL printer.
//!
//! The dialect is the T-SQL subset that the MTCache paper's workload needs:
//!
//! * `SELECT [DISTINCT] [TOP n] ... FROM ... [JOIN ... ON ...] [WHERE ...]
//!   [GROUP BY ...] [HAVING ...] [ORDER BY ...] [WITH FRESHNESS n SECONDS]`
//! * `INSERT INTO t [(cols)] VALUES (...), (...)` and `INSERT INTO t SELECT ...`
//! * `UPDATE t SET c = e, ... [WHERE ...]`
//! * `DELETE FROM t [WHERE ...]`
//! * `CREATE TABLE`, `CREATE [UNIQUE] INDEX`, `CREATE [MATERIALIZED] VIEW`,
//!   `DROP TABLE/VIEW`, `GRANT`
//! * `EXEC proc @p1 = v1, ...` stored-procedure calls
//! * run-time parameters written `@name`, as in T-SQL
//!
//! `WITH FRESHNESS n SECONDS` is the paper's §7 future-work extension: an
//! explicit statement-level staleness bound that the cache server's router
//! may use when deciding whether cached (slightly stale) data is acceptable.
//!
//! The printer (`Display` impls) emits SQL text that this parser re-parses to
//! an identical AST. This matters because, exactly like the prototype in the
//! paper, remote subexpressions can only be shipped to the backend as
//! *textual SQL* that is parsed and optimized again over there.

pub mod ast;
pub mod lexer;
pub mod lift;
pub mod parser;
pub mod prepared;
pub mod token;

pub use ast::*;
pub use lift::{lift_literals, lifted_name, Template, LIFTED_PREFIX};
pub use parser::{parse_expression, parse_statement, parse_statements, Parser};
pub use prepared::Prepared;

#[cfg(test)]
mod roundtrip_tests {
    use super::*;

    /// Every statement here must survive print → parse → print unchanged.
    #[test]
    fn print_parse_roundtrip() {
        let cases = [
            "SELECT 1",
            "SELECT * FROM item",
            "SELECT DISTINCT i_id, i_title FROM item WHERE i_subject = 'HISTORY' ORDER BY i_title ASC",
            "SELECT TOP 50 ol_i_id, COUNT(*) AS cnt FROM order_line GROUP BY ol_i_id ORDER BY cnt DESC",
            "SELECT c.name, o.total FROM customer AS c INNER JOIN orders AS o ON c.ckey = o.ckey WHERE c.ckey <= @v",
            "SELECT cid, cname FROM customer WHERE cid <= @cid WITH FRESHNESS 30 SECONDS",
            "INSERT INTO t (a, b) VALUES (1, 'x'), (2, 'y')",
            "UPDATE item SET i_cost = i_cost * 1.1 WHERE i_id = 7",
            "DELETE FROM cart WHERE sc_id = @id",
            "CREATE TABLE t (id INT NOT NULL, name VARCHAR, PRIMARY KEY (id))",
            "CREATE UNIQUE INDEX ix_t_name ON t (name)",
            "CREATE MATERIALIZED VIEW v AS SELECT id, name FROM t WHERE id <= 1000",
            "EXEC getBestSellers @subject = 'ARTS'",
            "SELECT a FROM t WHERE x BETWEEN 1 AND 10 AND y IN (1, 2, 3) AND name LIKE '%rust%' AND z IS NOT NULL",
        ];
        for case in cases {
            let stmt = parse_statement(case).unwrap_or_else(|e| panic!("parse `{case}`: {e}"));
            let printed = stmt.to_string();
            let reparsed = parse_statement(&printed)
                .unwrap_or_else(|e| panic!("reparse `{printed}`: {e}"));
            assert_eq!(
                printed,
                reparsed.to_string(),
                "roundtrip mismatch for `{case}`"
            );
        }
    }
}
