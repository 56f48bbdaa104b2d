//! Scalar expression evaluation with SQL three-valued logic.

use std::collections::BTreeMap;

use mtc_sql::{BinOp, Expr, UnaryOp};
use mtc_types::{Error, Result, Row, Schema, Value};

/// Run-time parameter bindings: parameter name (without `@`) → value.
pub type Bindings = BTreeMap<String, Value>;

/// Evaluates `expr` against `row` (described by `schema`) and `params`.
///
/// Aggregate function calls are *not* handled here — the binder rewrites
/// them into aggregate-output column references before evaluation.
pub fn eval(expr: &Expr, row: &Row, schema: &Schema, params: &Bindings) -> Result<Value> {
    match expr {
        Expr::Column(name) => {
            let idx = schema.index_of(name)?;
            Ok(row[idx].clone())
        }
        Expr::Literal(v) => Ok(v.clone()),
        Expr::Param(p) => params
            .get(p)
            .cloned()
            .ok_or_else(|| Error::execution(format!("unbound parameter `@{p}`"))),
        Expr::Unary { op, expr } => {
            let v = eval(expr, row, schema, params)?;
            match op {
                UnaryOp::Neg => negate(v),
                UnaryOp::Not => match truth(&v) {
                    Some(b) => Ok(Value::Bool(!b)),
                    None => Ok(Value::Null),
                },
            }
        }
        Expr::Binary { left, op, right } => eval_binary(left, *op, right, row, schema, params),
        Expr::Function {
            name,
            args,
            distinct: _,
        } => eval_scalar_function(name, args, row, schema, params),
        Expr::Like {
            expr,
            pattern,
            negated,
        } => {
            let v = eval(expr, row, schema, params)?;
            let p = eval(pattern, row, schema, params)?;
            match (v.as_str(), p.as_str()) {
                (Some(s), Some(pat)) => {
                    let m = like_match(s, pat);
                    Ok(Value::Bool(m != *negated))
                }
                _ if v.is_null() || p.is_null() => Ok(Value::Null),
                _ => Err(Error::type_error("LIKE requires string operands")),
            }
        }
        Expr::InList {
            expr,
            list,
            negated,
        } => {
            let v = eval(expr, row, schema, params)?;
            if v.is_null() {
                return Ok(Value::Null);
            }
            let mut saw_null = false;
            for item in list {
                let w = eval(item, row, schema, params)?;
                if w.is_null() {
                    saw_null = true;
                } else if v == w {
                    return Ok(Value::Bool(!*negated));
                }
            }
            if saw_null {
                // `x IN (…, NULL)` with no match is UNKNOWN, per SQL.
                Ok(Value::Null)
            } else {
                Ok(Value::Bool(*negated))
            }
        }
        Expr::IsNull { expr, negated } => {
            let v = eval(expr, row, schema, params)?;
            Ok(Value::Bool(v.is_null() != *negated))
        }
        Expr::Case {
            branches,
            else_expr,
        } => {
            for (cond, val) in branches {
                if eval_predicate(cond, row, schema, params)? == Some(true) {
                    return eval(val, row, schema, params);
                }
            }
            match else_expr {
                Some(e) => eval(e, row, schema, params),
                None => Ok(Value::Null),
            }
        }
    }
}

/// Evaluates a predicate to SQL three-valued logic:
/// `Some(true)` / `Some(false)` / `None` (UNKNOWN).
pub fn eval_predicate(
    expr: &Expr,
    row: &Row,
    schema: &Schema,
    params: &Bindings,
) -> Result<Option<bool>> {
    Ok(truth(&eval(expr, row, schema, params)?))
}

/// Truth value of a scalar under SQL semantics. Shared with the compiled
/// evaluator ([`crate::compile`]) so both agree bit-for-bit.
pub(crate) fn truth(v: &Value) -> Option<bool> {
    match v {
        Value::Null => None,
        Value::Bool(b) => Some(*b),
        Value::Int(i) => Some(*i != 0),
        _ => Some(true),
    }
}

fn eval_binary(
    left: &Expr,
    op: BinOp,
    right: &Expr,
    row: &Row,
    schema: &Schema,
    params: &Bindings,
) -> Result<Value> {
    // AND/OR need lazy-ish three-valued logic.
    if op == BinOp::And || op == BinOp::Or {
        let l = truth(&eval(left, row, schema, params)?);
        // Short-circuit where the result is already decided.
        match (op, l) {
            (BinOp::And, Some(false)) => return Ok(Value::Bool(false)),
            (BinOp::Or, Some(true)) => return Ok(Value::Bool(true)),
            _ => {}
        }
        let r = truth(&eval(right, row, schema, params)?);
        let out = match op {
            BinOp::And => match (l, r) {
                (Some(false), _) | (_, Some(false)) => Some(false),
                (Some(true), Some(true)) => Some(true),
                _ => None,
            },
            BinOp::Or => match (l, r) {
                (Some(true), _) | (_, Some(true)) => Some(true),
                (Some(false), Some(false)) => Some(false),
                _ => None,
            },
            _ => unreachable!(),
        };
        return Ok(out.map(Value::Bool).unwrap_or(Value::Null));
    }

    let l = eval(left, row, schema, params)?;
    let r = eval(right, row, schema, params)?;
    apply_cmp_arith(l, op, r)
}

/// Applies a comparison or arithmetic operator to two already-evaluated
/// operands. Shared by the tree-walking interpreter and the compiled
/// evaluator ([`crate::compile`]) so the two paths cannot drift apart.
/// Unary minus, shared by both evaluators. An integer negates checked:
/// `-i64::MIN` does not fit, and is an overflow error like any other.
pub(crate) fn negate(v: Value) -> Result<Value> {
    match v {
        Value::Null => Ok(Value::Null),
        Value::Int(i) => i
            .checked_neg()
            .map(Value::Int)
            .ok_or_else(|| Error::execution(format!("arithmetic overflow (-({i}))"))),
        Value::Float(f) => Ok(Value::Float(-f)),
        other => Err(Error::type_error(format!("cannot negate {other}"))),
    }
}

pub(crate) fn apply_cmp_arith(l: Value, op: BinOp, r: Value) -> Result<Value> {
    if op.is_comparison() {
        return Ok(match l.sql_cmp(&r) {
            None => Value::Null,
            Some(ord) => Value::Bool(match op {
                BinOp::Eq => ord == std::cmp::Ordering::Equal,
                BinOp::Neq => ord != std::cmp::Ordering::Equal,
                BinOp::Lt => ord == std::cmp::Ordering::Less,
                BinOp::Le => ord != std::cmp::Ordering::Greater,
                BinOp::Gt => ord == std::cmp::Ordering::Greater,
                BinOp::Ge => ord != std::cmp::Ordering::Less,
                _ => unreachable!(),
            }),
        });
    }

    // Arithmetic.
    if l.is_null() || r.is_null() {
        return Ok(Value::Null);
    }
    // String concatenation via `+`, as in T-SQL.
    if op == BinOp::Add {
        if let (Some(a), Some(b)) = (l.as_str(), r.as_str()) {
            return Ok(Value::str(format!("{a}{b}")));
        }
    }
    // Two integers stay integers: checked `i64` arithmetic, division
    // truncating toward zero, and an error on overflow, as in T-SQL.
    if let (Value::Int(a) | Value::Timestamp(a), Value::Int(b) | Value::Timestamp(b)) = (&l, &r) {
        let out = match op {
            BinOp::Div | BinOp::Mod if *b == 0 => return Err(Error::execution("division by zero")),
            BinOp::Add => a.checked_add(*b),
            BinOp::Sub => a.checked_sub(*b),
            BinOp::Mul => a.checked_mul(*b),
            BinOp::Div => a.checked_div(*b),
            BinOp::Mod => a.checked_rem(*b),
            _ => unreachable!(),
        };
        return out.map(Value::Int).ok_or_else(|| {
            Error::execution(format!("arithmetic overflow ({l} {} {r})", op.sql()))
        });
    }
    let (a, b) = match (l.as_f64(), r.as_f64()) {
        (Some(a), Some(b)) => (a, b),
        _ => {
            return Err(Error::type_error(format!(
                "arithmetic on non-numeric operands ({l} {} {r})",
                op.sql()
            )))
        }
    };
    if matches!(op, BinOp::Div | BinOp::Mod) && b == 0.0 {
        return Err(Error::execution("division by zero"));
    }
    Ok(Value::Float(match op {
        BinOp::Add => a + b,
        BinOp::Sub => a - b,
        BinOp::Mul => a * b,
        BinOp::Div => a / b,
        BinOp::Mod => a % b,
        _ => unreachable!(),
    }))
}

fn eval_scalar_function(
    name: &str,
    args: &[Expr],
    row: &Row,
    schema: &Schema,
    params: &Bindings,
) -> Result<Value> {
    let argv: Vec<Value> = args
        .iter()
        .map(|a| eval(a, row, schema, params))
        .collect::<Result<_>>()?;
    // Resolve the function name and apply: the interpreter resolves per
    // call, the compiled evaluator resolves once at plan-build time — both
    // run the same implementation in `compile::FuncKind::apply`.
    crate::compile::FuncKind::parse(name).apply(&argv)
}

/// SQL `LIKE` matcher: `%` matches any run, `_` matches one character.
/// Matching is case-insensitive, following SQL Server's default collation.
///
/// Two pointers over the bytes, no allocation and no recursion: on a
/// mismatch the match resumes one byte after where the most recent `%`
/// last took up the subject. Every `%` before that one is settled for
/// good — whatever it matched, the last one can absorb the difference.
pub fn like_match(s: &str, pattern: &str) -> bool {
    let (s, p) = (s.as_bytes(), pattern.as_bytes());
    let (mut si, mut pi) = (0, 0);
    // Pattern position after the most recent `%`, and the subject position
    // it is currently assumed to have matched up to.
    let mut resume: Option<(usize, usize)> = None;
    while si < s.len() {
        match p.get(pi) {
            Some(b'%') => {
                pi += 1;
                resume = Some((pi, si));
            }
            Some(&c) if c == b'_' || c.eq_ignore_ascii_case(&s[si]) => {
                si += 1;
                pi += 1;
            }
            _ => match resume {
                Some((after_percent, taken_to)) => {
                    pi = after_percent;
                    si = taken_to + 1;
                    resume = Some((after_percent, si));
                }
                None => return false,
            },
        }
    }
    p[pi..].iter().all(|&c| c == b'%')
}

#[cfg(test)]
mod tests {
    use super::*;
    use mtc_sql::parse_expression;
    use mtc_types::{row, Column, DataType};

    fn schema() -> Schema {
        Schema::new(vec![
            Column::not_null("id", DataType::Int),
            Column::new("name", DataType::Str),
            Column::new("price", DataType::Float),
        ])
    }

    fn ev(src: &str, row: &Row) -> Value {
        eval(&parse_expression(src).unwrap(), row, &schema(), &Bindings::new()).unwrap()
    }

    #[test]
    fn arithmetic_and_comparison() {
        let r = row![3, "book", 9.5];
        assert_eq!(ev("id + 1", &r), Value::Int(4));
        assert_eq!(ev("price * 2", &r), Value::Float(19.0));
        assert_eq!(ev("id <= 3", &r), Value::Bool(true));
        assert_eq!(ev("price > 10", &r), Value::Bool(false));
        assert_eq!(ev("7 / 2", &r), Value::Int(3));
        assert_eq!(ev("7 % 2", &r), Value::Int(1));
    }

    #[test]
    fn integer_arithmetic_is_exact_past_two_to_the_53() {
        let n = (1i64 << 53) + 1;
        assert_eq!(ev("id + 0", &row![n, "x", 1.0]), Value::Int(n));
        assert_eq!(ev("id - 1", &row![n, "x", 1.0]), Value::Int(n - 1));
    }

    #[test]
    fn integer_division_truncates_toward_zero() {
        let r = row![-7, "x", 2.0];
        assert_eq!(ev("7 / 2", &r), Value::Int(3));
        assert_eq!(ev("id / 2", &r), Value::Int(-3));
        assert_eq!(ev("id % 2", &r), Value::Int(-1));
        assert_eq!(ev("id / price", &r), Value::Float(-3.5), "a float operand stays float");
    }

    #[test]
    fn integer_overflow_is_an_execution_error() {
        let r = row![i64::MAX, "x", 1.0];
        for src in ["id + 1", "id * 2", "0 - id - 2"] {
            let err = eval(&parse_expression(src).unwrap(), &r, &schema(), &Bindings::new())
                .expect_err(src);
            assert_eq!(err.kind(), "execution", "{src}: {err}");
        }
    }

    #[test]
    fn string_concat_and_functions() {
        let r = row![1, "Tire", 1.0];
        assert_eq!(ev("name + 's'", &r), Value::str("Tires"));
        assert_eq!(ev("LOWER(name)", &r), Value::str("tire"));
        assert_eq!(ev("LEN(name)", &r), Value::Int(4));
        assert_eq!(ev("SUBSTRING(name, 2, 2)", &r), Value::str("ir"));
        assert_eq!(ev("COALESCE(NULL, name)", &r), Value::str("Tire"));
    }

    #[test]
    fn three_valued_logic() {
        let r = Row::new(vec![Value::Int(1), Value::Null, Value::Float(1.0)]);
        let s = schema();
        let p = Bindings::new();
        // NULL = NULL is UNKNOWN.
        let e = parse_expression("name = name").unwrap();
        assert_eq!(eval_predicate(&e, &r, &s, &p).unwrap(), None);
        // UNKNOWN AND FALSE = FALSE.
        let e = parse_expression("name = 'x' AND id = 0").unwrap();
        assert_eq!(eval_predicate(&e, &r, &s, &p).unwrap(), Some(false));
        // UNKNOWN OR TRUE = TRUE.
        let e = parse_expression("name = 'x' OR id = 1").unwrap();
        assert_eq!(eval_predicate(&e, &r, &s, &p).unwrap(), Some(true));
        // NOT UNKNOWN = UNKNOWN.
        let e = parse_expression("NOT name = 'x'").unwrap();
        assert_eq!(eval_predicate(&e, &r, &s, &p).unwrap(), None);
        // IS NULL sees through.
        let e = parse_expression("name IS NULL").unwrap();
        assert_eq!(eval_predicate(&e, &r, &s, &p).unwrap(), Some(true));
    }

    #[test]
    fn in_list_with_null_semantics() {
        let r = row![3, "x", 0.0];
        assert_eq!(ev("id IN (1, 2, 3)", &r), Value::Bool(true));
        assert_eq!(ev("id IN (1, 2)", &r), Value::Bool(false));
        assert_eq!(ev("id NOT IN (1, 2)", &r), Value::Bool(true));
        // No match but NULL present → UNKNOWN.
        assert_eq!(ev("id IN (1, NULL)", &r), Value::Null);
    }

    #[test]
    fn between_and_like() {
        let r = row![5, "The Rust Book", 0.0];
        assert_eq!(ev("id BETWEEN 1 AND 10", &r), Value::Bool(true));
        assert_eq!(ev("id NOT BETWEEN 1 AND 4", &r), Value::Bool(true));
        assert_eq!(ev("name LIKE '%rust%'", &r), Value::Bool(true));
        assert_eq!(ev("name LIKE 'The%'", &r), Value::Bool(true));
        assert_eq!(ev("name LIKE '_he%'", &r), Value::Bool(true));
        assert_eq!(ev("name LIKE 'rust'", &r), Value::Bool(false));
    }

    #[test]
    fn params_bind() {
        let mut params = Bindings::new();
        params.insert("cid".into(), Value::Int(500));
        let e = parse_expression("id <= @cid").unwrap();
        let v = eval(&e, &row![3, "x", 0.0], &schema(), &params).unwrap();
        assert_eq!(v, Value::Bool(true));
        // Unbound parameter errors.
        let err = eval(&e, &row![3, "x", 0.0], &schema(), &Bindings::new());
        assert!(err.is_err());
    }

    #[test]
    fn case_expression() {
        let r = row![5, "x", 0.0];
        assert_eq!(
            ev("CASE WHEN id > 3 THEN 'big' ELSE 'small' END", &r),
            Value::str("big")
        );
        assert_eq!(ev("CASE WHEN id > 9 THEN 'big' END", &r), Value::Null);
    }

    #[test]
    fn division_by_zero_is_an_error() {
        let e = parse_expression("1 / 0").unwrap();
        assert!(eval(&e, &row![1, "x", 0.0], &schema(), &Bindings::new()).is_err());
    }

    #[test]
    fn like_edge_cases() {
        assert!(like_match("", ""));
        assert!(like_match("", "%"));
        assert!(!like_match("", "_"));
        assert!(like_match("abc", "%%c"));
        assert!(like_match("ABC", "abc"), "LIKE is case-insensitive");
    }

    /// The matcher this one replaced: lower-case both sides, backtrack
    /// recursively. Kept as the reference the iterative matcher must equal.
    fn like_reference(s: &str, pattern: &str) -> bool {
        fn rec(s: &[u8], p: &[u8]) -> bool {
            match p.first() {
                None => s.is_empty(),
                Some(b'%') => (0..=s.len()).any(|k| rec(&s[k..], &p[1..])),
                Some(b'_') => !s.is_empty() && rec(&s[1..], &p[1..]),
                Some(&c) => !s.is_empty() && s[0] == c && rec(&s[1..], &p[1..]),
            }
        }
        rec(
            s.to_ascii_lowercase().as_bytes(),
            pattern.to_ascii_lowercase().as_bytes(),
        )
    }

    #[test]
    fn like_matches_the_recursive_reference() {
        use mtc_util::check::{self, Config};
        // A small alphabet in both cases, so patterns match often and the
        // backtracking cases (`%a%b`, `%_a`) come up.
        const SUBJECT: &[char] = &['a', 'b', 'A', 'B', 'c'];
        const PATTERN: &[char] = &['a', 'b', 'A', 'c', '%', '%', '_'];
        check::run(
            &Config::cases(2000),
            "like_matches_the_recursive_reference",
            |rng| {
                (
                    check::string_from(rng, SUBJECT, 0..10),
                    check::string_from(rng, PATTERN, 0..8),
                )
            },
            |(s, p)| assert_eq!(like_match(s, p), like_reference(s, p), "{s:?} LIKE {p:?}"),
        );
    }
}
