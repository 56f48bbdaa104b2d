//! Auto-parameterization: an ad-hoc statement's predicate literals lifted
//! into bindings, so that statements differing only in those values share
//! one *template* — and with it one prepared statement, one plan, one shipped
//! fragment on every tier.
//!
//! [`lift_literals`] is one pass over the [`Lexer`]'s tokens; it does not
//! parse. A literal is lifted only where a parameter in its place is
//! provably the same statement for every value:
//!
//! | lifted | why the value cannot matter |
//! |---|---|
//! | the right operand of `= <> != < <= > >=` in `WHERE`, `ON`, `HAVING` | compared at run time, `Value` against `Value` |
//! | a `BETWEEN` bound, an `IN (…)` element | likewise |
//! | a `SET col =` value, a `VALUES` element | evaluated, then coerced to the column's type |
//!
//! A leading unary minus is folded into the value, as the parser folds it.
//! Everything else stays in the template, and therefore in every cache key
//! made from it:
//!
//! | kept verbatim | because |
//! |---|---|
//! | `TOP n`, `WITH FRESHNESS n SECONDS` | part of the `Select` node itself: the plan's `Top`, the routing bound |
//! | select-list literals | name and type the output column |
//! | function arguments | a function's result type (and so the plan above it) may depend on them |
//! | `LIKE` patterns | a literal pattern's prefix is what an index range could be cut from |
//! | `ORDER BY` / `GROUP BY` terms | ordinals and expressions matched against the select list |
//! | an operand that is part of a larger expression (`x = 5 + y`) | not the whole operand |
//! | `NULL`, `TRUE`, `FALSE` | keywords, three-valued logic is decided when the plan is built |
//! | DDL, `GRANT`, `EXEC` | definitions must keep their values; procedure arguments are bound by name |
//! | any text that names a parameter `@__p…` | the reserved names are taken |
//!
//! So two texts share a template iff they differ only in lifted values.

use mtc_types::{Result, Value};

use crate::lexer::Lexer;
use crate::parser::{literal_value, negated};
use crate::token::Token;

/// Prefix of the parameter names the pass introduces: `@__p0`, `@__p1`, …
/// in source order.
pub const LIFTED_PREFIX: &str = "__p";

/// The binding name of the `index`-th lifted literal (no `@`).
pub fn lifted_name(index: usize) -> String {
    format!("{LIFTED_PREFIX}{index}")
}

/// A statement text with its eligible literals replaced by `@__pN`.
#[derive(Debug, Clone, PartialEq)]
pub struct Template {
    /// The text, verbatim except for the replaced literals (and a space after
    /// one that an identifier character touched).
    pub text: String,
    /// The lifted values; `values[n]` binds `@__pN`.
    pub values: Vec<Value>,
}

/// Which clause the scan is in; literals are lifted in the last two only.
#[derive(Clone, Copy, PartialEq)]
enum Clause {
    Other,
    /// `WHERE`, `ON`, `HAVING`, `SET`: comparison (assignment) operands.
    Operands,
    Values,
}

/// What an open parenthesis encloses.
#[derive(Clone, Copy, PartialEq)]
enum Paren {
    /// `name(` — a function call (or an INSERT's column list).
    Call,
    /// `IN (`
    InList,
    /// One row of a `VALUES` clause.
    Row,
    Group,
}

fn is_comparison(token: &Token) -> bool {
    matches!(
        token,
        Token::Eq | Token::Neq | Token::Lt | Token::Le | Token::Gt | Token::Ge
    )
}

fn is_arithmetic(token: &Token) -> bool {
    matches!(
        token,
        Token::Plus | Token::Minus | Token::Star | Token::Slash | Token::Percent
    )
}

/// Lifts the eligible literals of `sql` (see the module docs). `None` when
/// there is nothing to lift: the text is then its own template. An `Err` is
/// the lexer's, exactly what parsing the text would report first.
pub fn lift_literals(sql: &str) -> Result<Option<Template>> {
    let mut lexer = Lexer::new(sql);
    let first = lexer.next_spanned()?;
    if !matches!(
        first.0,
        Token::Keyword("SELECT" | "INSERT" | "UPDATE" | "DELETE")
    ) {
        return Ok(None);
    }
    let mut tokens = vec![first];
    while tokens.last().is_some_and(|(token, _)| *token != Token::Eof) {
        tokens.push(lexer.next_spanned()?);
    }
    let reserved = |t: &Token| {
        matches!(t, Token::Param(p) if p.get(..LIFTED_PREFIX.len())
            .is_some_and(|head| head.eq_ignore_ascii_case(LIFTED_PREFIX)))
    };
    if tokens.iter().any(|(t, _)| reserved(t)) {
        return Ok(None);
    }

    let mut template = Template {
        text: String::with_capacity(sql.len()),
        values: Vec::new(),
    };
    let mut copied = 0;
    let mut clause = Clause::Other;
    let mut parens: Vec<Paren> = Vec::new();
    // Paren depth of a BETWEEN whose AND has not been seen yet, and the
    // index of the AND that closed the last one.
    let mut between_at: Option<usize> = None;
    let mut between_and: Option<usize> = None;
    for i in 0..tokens.len() - 1 {
        let token = &tokens[i].0;
        match token {
            Token::Keyword(kw) => match *kw {
                "WHERE" | "ON" | "HAVING" | "SET" => clause = Clause::Operands,
                "VALUES" => clause = Clause::Values,
                "SELECT" | "FROM" | "GROUP" | "ORDER" | "WITH" | "JOIN" | "INNER" | "LEFT"
                | "RIGHT" | "FULL" | "CROSS" => clause = Clause::Other,
                "BETWEEN" => between_at = Some(parens.len()),
                "AND" if between_at == Some(parens.len()) => {
                    between_at = None;
                    between_and = Some(i);
                }
                _ => {}
            },
            Token::LParen => parens.push(match &tokens[i - 1].0 {
                Token::Ident(_) => Paren::Call,
                Token::Keyword("IN") => Paren::InList,
                _ if clause == Clause::Values && parens.is_empty() => Paren::Row,
                _ => Paren::Group,
            }),
            Token::RParen => {
                parens.pop();
            }
            _ => {}
        }
        if clause == Clause::Other || parens.contains(&Paren::Call) {
            continue;
        }
        let Some(value) = literal_value(token) else {
            continue;
        };
        // A unary minus directly in front belongs to a numeric literal.
        // (Token 0 is the statement keyword, so `i - 1` and `first - 1`
        // exist.)
        let (first, value) = match (&tokens[i - 1].0, negated(&value)) {
            (Token::Minus, Some(folded)) => (i - 1, folded),
            (Token::Minus, None) => continue,
            _ => (i, value),
        };
        let (before, after) = (&tokens[first - 1].0, &tokens[i + 1].0);
        let element = matches!(before, Token::LParen | Token::Comma)
            && matches!(after, Token::Comma | Token::RParen)
            && matches!(parens.last(), Some(Paren::InList | Paren::Row));
        let bound = matches!(before, Token::Keyword("BETWEEN")) || between_and == Some(first - 1);
        // The whole operand: nothing after it that binds tighter.
        let operand = if bound {
            !is_arithmetic(after) && !is_comparison(after)
        } else {
            is_comparison(before) && clause != Clause::Values && !is_arithmetic(after)
        };
        if !(element || operand) {
            continue;
        }
        template.text.push_str(&sql[copied..tokens[first].1.start]);
        template.text.push('@');
        template.text.push_str(&lifted_name(template.values.len()));
        copied = tokens[i].1.end;
        // `5x`, `1.5e3`, `'a'b` are two tokens; keep them two, or the tail
        // would read as part of the parameter's name.
        let touching = sql.as_bytes().get(copied);
        if touching.is_some_and(|c| c.is_ascii_alphanumeric() || *c == b'_') {
            template.text.push(' ');
        }
        template.values.push(value);
    }
    if template.values.is_empty() {
        return Ok(None);
    }
    template.text.push_str(&sql[copied..]);
    Ok(Some(template))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parse_statement;

    fn lift(sql: &str) -> (String, Vec<Value>) {
        let t = lift_literals(sql).unwrap().expect("something to lift");
        (t.text, t.values)
    }

    fn untouched(sql: &str) {
        assert_eq!(lift_literals(sql).unwrap(), None, "{sql}");
    }

    #[test]
    fn comparison_operands_are_lifted_with_the_parsers_types() {
        let (text, values) = lift(
            "SELECT i_id, i_title FROM item WHERE i_id = 5 AND i_srp >= 0.25 AND i_title <> 'O''Neil'",
        );
        assert_eq!(
            text,
            "SELECT i_id, i_title FROM item WHERE i_id = @__p0 AND i_srp >= @__p1 AND i_title <> @__p2"
        );
        assert_eq!(
            values,
            [Value::Int(5), Value::Float(0.25), Value::str("O'Neil")]
        );
        // Variant-exact, not just numerically equal.
        assert!(matches!(values[0], Value::Int(5)));
        assert!(matches!(values[1], Value::Float(_)));
    }

    #[test]
    fn texts_differing_only_in_lifted_values_share_a_template() {
        let a = lift("SELECT c FROM t WHERE a >= 10 AND a < 20 AND b != 'x'");
        let b = lift("SELECT c FROM t WHERE a >= 480 AND a < 530 AND b != 'yy'");
        assert_eq!(a.0, b.0);
        assert_ne!(a.1, b.1);
    }

    #[test]
    fn a_leading_minus_is_folded_into_the_value() {
        let (text, values) = lift("SELECT a FROM t WHERE a > -5 AND b <= - 2.5 AND c = b - 1");
        assert_eq!(
            text,
            "SELECT a FROM t WHERE a > @__p0 AND b <= @__p1 AND c = b - 1"
        );
        assert_eq!(values, [Value::Int(-5), Value::Float(-2.5)]);
        // A minus in front of a string is an expression, not a literal.
        untouched("SELECT a FROM t WHERE a = -'x'");
    }

    #[test]
    fn between_bounds_and_in_elements_are_lifted() {
        let (text, values) =
            lift("SELECT a FROM t WHERE a BETWEEN 1 AND 10 AND b NOT IN (1, -2, 'z') AND c = 4");
        assert_eq!(
            text,
            "SELECT a FROM t WHERE a BETWEEN @__p0 AND @__p1 AND b NOT IN (@__p2, @__p3, @__p4) AND c = @__p5"
        );
        assert_eq!(values.len(), 6);
        assert_eq!(values[3], Value::Int(-2));
        // Lists of different lengths are different shapes.
        assert_ne!(
            lift("SELECT a FROM t WHERE b IN (1, 2)").0,
            lift("SELECT a FROM t WHERE b IN (1, 2, 3)").0
        );
        // An element that is an expression stays, the others go.
        assert_eq!(
            lift("SELECT a FROM t WHERE b IN (1 + 1, 2)").0,
            "SELECT a FROM t WHERE b IN (1 + 1, @__p0)"
        );
        // A nested BETWEEN's AND is not taken for the outer one's.
        assert_eq!(
            lift("SELECT a FROM t WHERE a BETWEEN (b + 1) AND 9 AND c = 1").0,
            "SELECT a FROM t WHERE a BETWEEN (b + 1) AND @__p0 AND c = @__p1"
        );
    }

    #[test]
    fn dml_values_are_lifted() {
        assert_eq!(
            lift("UPDATE item SET i_stock = 42, i_title = 'x' WHERE i_id = 7").0,
            "UPDATE item SET i_stock = @__p0, i_title = @__p1 WHERE i_id = @__p2"
        );
        assert_eq!(
            lift("UPDATE item SET i_cost = i_cost * 1.1 WHERE i_id = 7").0,
            "UPDATE item SET i_cost = i_cost * 1.1 WHERE i_id = @__p0"
        );
        assert_eq!(
            lift("INSERT INTO t (a, b) VALUES (1, 'x'), (-2, NULL)").0,
            "INSERT INTO t (a, b) VALUES (@__p0, @__p1), (@__p2, NULL)"
        );
        untouched("INSERT INTO t VALUES (1 + 1, (2))");
        assert_eq!(
            lift("DELETE FROM cart WHERE sc_id = 9").0,
            "DELETE FROM cart WHERE sc_id = @__p0"
        );
    }

    #[test]
    fn what_shapes_the_plan_or_the_result_stays_in_the_template() {
        let (text, values) = lift(
            "SELECT TOP 10 i_id, 7 AS seven, SUBSTRING(i_title, 1, 3) FROM item \
             WHERE i_title LIKE 'a%' AND ROUND(i_cost, 2) = 1.5 AND i_stock IS NOT NULL \
             AND i_id = 3 + 4 AND 5 = i_id \
             GROUP BY 1 HAVING COUNT(*) > 2 ORDER BY 1 WITH FRESHNESS 30 SECONDS",
        );
        assert_eq!(
            text,
            "SELECT TOP 10 i_id, 7 AS seven, SUBSTRING(i_title, 1, 3) FROM item \
             WHERE i_title LIKE 'a%' AND ROUND(i_cost, 2) = @__p0 AND i_stock IS NOT NULL \
             AND i_id = 3 + 4 AND 5 = i_id \
             GROUP BY 1 HAVING COUNT(*) > @__p1 ORDER BY 1 WITH FRESHNESS 30 SECONDS"
        );
        assert_eq!(values, [Value::Float(1.5), Value::Int(2)]);
        for sql in [
            "SELECT TOP 20 a FROM t",
            "SELECT a, 1 FROM t WHERE b IS NULL",
            "SELECT a FROM t WHERE b LIKE '%x%'",
            "SELECT a FROM t WHERE b = @v AND c = NULL",
            "SELECT CASE WHEN a = 1 THEN 2 ELSE 3 END FROM t",
        ] {
            untouched(sql);
        }
    }

    #[test]
    fn join_predicates_are_lifted_and_the_next_table_is_not() {
        assert_eq!(
            lift("SELECT a FROM t INNER JOIN u ON t.k = u.k AND u.z = 5 INNER JOIN v ON v.k = t.k WHERE t.a < 3").0,
            "SELECT a FROM t INNER JOIN u ON t.k = u.k AND u.z = @__p0 INNER JOIN v ON v.k = t.k WHERE t.a < @__p1"
        );
    }

    #[test]
    fn definitions_calls_and_reserved_names_are_not_rewritten() {
        for sql in [
            "CREATE MATERIALIZED VIEW v AS SELECT id FROM t WHERE id <= 1000",
            "CREATE INDEX ix ON t (a)",
            "GRANT SELECT ON t TO app",
            "EXEC getBook @i_id = 3",
            "SELECT a FROM t WHERE a = 1 AND b = @__p0",
            "SELECT a FROM t WHERE a = 1 AND b = @__P7",
            "SELECT a FROM t",
            "",
        ] {
            untouched(sql);
        }
        // User parameters mix with lifted ones.
        assert_eq!(
            lift("SELECT a FROM t WHERE a = 1 AND b = @p0 AND c = 'x'").0,
            "SELECT a FROM t WHERE a = @__p0 AND b = @p0 AND c = @__p1"
        );
    }

    #[test]
    fn spacing_and_comments_are_kept_verbatim() {
        assert_eq!(
            lift("select  a from t /* why */ where a=5 -- tail").0,
            "select  a from t /* why */ where a=@__p0 -- tail"
        );
    }

    #[test]
    fn a_token_touching_the_literal_stays_its_own_token() {
        for (sql, template) in [
            ("SELECT a FROM t WHERE a = 5x", "SELECT a FROM t WHERE a = @__p0 x"),
            ("SELECT a FROM t WHERE a = 1.5e3", "SELECT a FROM t WHERE a = @__p0 e3"),
            ("SELECT a FROM t WHERE a = 'a'5", "SELECT a FROM t WHERE a = @__p0 5"),
            (
                "SELECT a FROM t WHERE a = 5ORDER BY a",
                "SELECT a FROM t WHERE a = @__p0 ORDER BY a",
            ),
        ] {
            assert_eq!(lift(sql).0, template);
            // What did not parse still does not; what did parses alike.
            assert_eq!(
                parse_statement(sql).is_ok(),
                parse_statement(template).is_ok(),
                "{sql}"
            );
        }
    }

    #[test]
    fn lexer_errors_surface_and_templates_parse() {
        assert!(lift_literals("SELECT a FROM t WHERE a = 'oops").is_err());
        for sql in [
            "SELECT a FROM t WHERE a BETWEEN 1 AND 10 AND b IN (1, 2) AND c = -4",
            "UPDATE t SET a = 1 WHERE b = 'x'",
            "INSERT INTO t VALUES (1, 'x', 2.5)",
        ] {
            let (text, values) = lift(sql);
            let parsed = parse_statement(&text).unwrap();
            assert_eq!(parsed.to_string().matches("@__p").count(), values.len());
        }
    }
}
