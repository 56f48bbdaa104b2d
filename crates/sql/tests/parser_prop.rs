//! Property tests for the SQL front end: randomly generated expression
//! trees and statements must survive print → parse → print as a fixpoint.
//!
//! Ported from `proptest` to the in-tree `mtc_util::check` harness. The
//! shapes mirror the old strategies; the regression cases that proptest had
//! shrunk and recorded in `parser_prop.proptest-regressions` now live as
//! explicit `#[test]`s at the bottom so the coverage survives the port.

use mtc_util::check::{self, Config};
use mtc_util::rng::{Rng, StdRng};

use mtc_sql::{parse_expression, parse_statement, BinOp, Expr};
use mtc_types::Value;

/// Random scalar values that print/parse cleanly (old `value_strategy`).
fn gen_value(rng: &mut StdRng) -> Value {
    match rng.gen_range(0u32..6) {
        0 => Value::Int(rng.gen_range(i32::MIN..=i32::MAX) as i64),
        1 => Value::Float(rng.gen_range(-1000i64..1000) as f64 / 4.0),
        2 => Value::Bool(true),
        3 => Value::Bool(false),
        4 => Value::Null,
        _ => {
            // "[a-z][a-z0-9 ']{0,12}"
            const FIRST: &[char] = &[
                'a', 'b', 'c', 'd', 'e', 'f', 'g', 'h', 'i', 'j', 'k', 'l', 'm', 'n', 'o', 'p',
                'q', 'r', 's', 't', 'u', 'v', 'w', 'x', 'y', 'z',
            ];
            const REST: &[char] = &[
                'a', 'b', 'c', 'd', 'e', 'f', 'g', 'h', 'i', 'j', 'k', 'l', 'm', 'n', 'o', 'p',
                'q', 'r', 's', 't', 'u', 'v', 'w', 'x', 'y', 'z', '0', '1', '2', '3', '4', '5',
                '6', '7', '8', '9', ' ', '\'',
            ];
            let mut s = String::new();
            s.push(*rng.choose(FIRST).unwrap());
            s.push_str(&check::string_from(rng, REST, 0..13));
            Value::str(s)
        }
    }
}

fn gen_binop(rng: &mut StdRng) -> BinOp {
    *rng.choose(&[
        BinOp::Eq,
        BinOp::Neq,
        BinOp::Lt,
        BinOp::Le,
        BinOp::Gt,
        BinOp::Ge,
        BinOp::And,
        BinOp::Or,
        BinOp::Add,
        BinOp::Sub,
        BinOp::Mul,
        BinOp::Div,
        BinOp::Mod,
    ])
    .unwrap()
}

fn gen_leaf(rng: &mut StdRng) -> Expr {
    match rng.gen_range(0u32..3) {
        0 => Expr::Literal(gen_value(rng)),
        1 => Expr::col(rng.choose(&["a", "b", "t.c"]).unwrap()),
        _ => Expr::param(rng.choose(&["p", "q"]).unwrap()),
    }
}

/// Random well-formed expression with a recursion budget (old
/// `expr_strategy` with `prop_recursive(4, ..)`).
fn gen_expr(rng: &mut StdRng, depth: u32) -> Expr {
    if depth == 0 {
        return gen_leaf(rng);
    }
    let inner = |rng: &mut StdRng| gen_expr(rng, depth - 1);
    match rng.gen_range(0u32..8) {
        0 => gen_leaf(rng),
        1 => {
            let l = inner(rng);
            let r = inner(rng);
            let op = gen_binop(rng);
            Expr::binary(l, op, r)
        }
        2 => Expr::not(inner(rng)),
        3 => {
            let e = inner(rng);
            let low = inner(rng);
            let high = inner(rng);
            between(e, low, high, rng.gen_bool(0.5))
        }
        4 => Expr::InList {
            expr: Box::new(inner(rng)),
            list: (0..rng.gen_range(1usize..4)).map(|_| inner(rng)).collect(),
            negated: rng.gen_bool(0.5),
        },
        5 => Expr::IsNull {
            expr: Box::new(inner(rng)),
            negated: rng.gen_bool(0.5),
        },
        6 => {
            let branches = (0..rng.gen_range(1usize..3))
                .map(|_| (inner(rng), inner(rng)))
                .collect();
            Expr::Case {
                branches,
                else_expr: Some(Box::new(inner(rng))),
            }
        }
        _ => {
            let args: Vec<Expr> = (0..rng.gen_range(0usize..3)).map(|_| inner(rng)).collect();
            Expr::Function {
                name: if args.is_empty() { "count" } else { "coalesce" }.into(),
                args,
                distinct: false,
            }
        }
    }
}

/// print(e) must parse, and re-printing must be a fixpoint. (The parsed
/// tree may differ structurally from the generated one — parentheses
/// are not represented — but the *text* must stabilize, which pins the
/// printer/parser precedence contract.)
fn assert_expr_fixpoint(e: &Expr) {
    let printed = e.to_string();
    let parsed = parse_expression(&printed)
        .unwrap_or_else(|err| panic!("`{printed}` failed to parse: {err}"));
    let reprinted = parsed.to_string();
    assert_eq!(printed, reprinted, "not a fixpoint");
    // And the fixpoint really is stable.
    let reparsed = parse_expression(&reprinted).unwrap();
    assert_eq!(parsed, reparsed);
}

#[test]
fn expression_print_parse_print_is_fixpoint() {
    check::run(
        &Config::cases(512),
        "expression_print_parse_print_is_fixpoint",
        |rng| gen_expr(rng, 4),
        assert_expr_fixpoint,
    );
}

/// Same property at statement level for generated SELECTs.
fn assert_select_fixpoint(pred: &Expr, top: Option<u64>, distinct: bool, asc: bool) {
    let sql = format!(
        "SELECT {}{}a, b FROM t WHERE {pred} ORDER BY a {}",
        if distinct { "DISTINCT " } else { "" },
        top.map(|n| format!("TOP {n} ")).unwrap_or_default(),
        if asc { "ASC" } else { "DESC" },
    );
    // Some generated predicates are type-nonsense but must still parse;
    // a parse failure here is a real bug.
    let stmt = parse_statement(&sql).unwrap_or_else(|err| panic!("`{sql}` did not parse: {err}"));
    let printed = stmt.to_string();
    let reparsed = parse_statement(&printed)
        .unwrap_or_else(|err| panic!("`{printed}` failed to reparse: {err}"));
    assert_eq!(printed, reparsed.to_string());
}

#[test]
fn select_print_parse_print_is_fixpoint() {
    check::run(
        &Config::cases(512),
        "select_print_parse_print_is_fixpoint",
        |rng| {
            let pred = gen_expr(rng, 4);
            let top = if rng.gen_bool(0.5) {
                Some(rng.gen_range(0u64..500))
            } else {
                None
            };
            (pred, top, rng.gen_bool(0.5), rng.gen_bool(0.5))
        },
        |(pred, top, distinct, asc)| assert_select_fixpoint(pred, *top, *distinct, *asc),
    );
}

/// The lexer never panics on arbitrary input (errors are fine).
#[test]
fn parser_never_panics_on_garbage() {
    check::run(
        &Config::cases(512),
        "parser_never_panics_on_garbage",
        |rng| check::fuzz_string(rng, 60),
        |input| {
            let _ = parse_statement(input);
            let _ = parse_expression(input);
        },
    );
}

// ---------------------------------------------------------------------------
// Regressions recorded by proptest before the port (from the deleted
// `parser_prop.proptest-regressions` file), kept as explicit cases.
// ---------------------------------------------------------------------------

fn int(i: i64) -> Expr {
    Expr::Literal(Value::Int(i))
}

/// `e [NOT] BETWEEN lo AND hi` as the parser builds it: `e >= lo AND
/// e <= hi`, or `e < lo OR e > hi` when negated.
fn between(e: Expr, lo: Expr, hi: Expr, negated: bool) -> Expr {
    if negated {
        Expr::or(
            Expr::binary(e.clone(), BinOp::Lt, lo),
            Expr::binary(e, BinOp::Gt, hi),
        )
    } else {
        Expr::and(
            Expr::binary(e.clone(), BinOp::Ge, lo),
            Expr::binary(e, BinOp::Le, hi),
        )
    }
}

fn is_null(e: Expr) -> Expr {
    Expr::IsNull {
        expr: Box::new(e),
        negated: false,
    }
}

#[test]
fn regression_eq_chain_with_is_null() {
    // cc 546958af: (0 = (−0.25 IS NULL)) = 0
    assert_expr_fixpoint(&Expr::binary(
        Expr::binary(int(0), BinOp::Eq, is_null(Expr::Literal(Value::Float(-0.25)))),
        BinOp::Eq,
        int(0),
    ));
}

#[test]
fn regression_between_with_between_as_low_bound() {
    // cc 092540f8: 0 BETWEEN (0 BETWEEN 0 AND 0) AND 0, as a SELECT predicate
    let pred = between(
        int(0),
        between(int(0), int(0), int(0), false),
        int(0),
        false,
    );
    assert_select_fixpoint(&pred, None, false, false);
}

#[test]
fn regression_between_with_eq_of_between_as_low_bound() {
    // cc 107b6ef2: 0 BETWEEN ((0 BETWEEN 0 AND 0) = 0) AND 0
    let pred = between(
        int(0),
        Expr::binary(between(int(0), int(0), int(0), false), BinOp::Eq, int(0)),
        int(0),
        false,
    );
    assert_select_fixpoint(&pred, None, false, false);
}

#[test]
fn regression_not_of_negative_literal() {
    // cc 2c6f2b9c: NOT (−1)
    assert_expr_fixpoint(&Expr::not(int(-1)));
}

#[test]
fn regression_between_with_not_as_operand() {
    // cc 73407bab: (NOT 0) BETWEEN 0 AND 0
    assert_expr_fixpoint(&between(Expr::not(int(0)), int(0), int(0), false));
}

#[test]
fn regression_case_with_arithmetic_and_param_else() {
    // cc 230a4968: CASE WHEN 0 THEN −1 * 0 ELSE −52 < @p END
    assert_expr_fixpoint(&Expr::Case {
        branches: vec![(int(0), Expr::binary(int(-1), BinOp::Mul, int(0)))],
        else_expr: Some(Box::new(Expr::binary(
            int(-52),
            BinOp::Lt,
            Expr::param("p"),
        ))),
    });
}

#[test]
fn regression_subtraction_of_addition_with_between() {
    // cc 392ee3f9: 0 − (0 + (0 BETWEEN 0 AND 0))
    assert_expr_fixpoint(&Expr::binary(
        int(0),
        BinOp::Sub,
        Expr::binary(int(0), BinOp::Add, between(int(0), int(0), int(0), false)),
    ));
}

#[test]
fn regression_is_null_of_and_with_not() {
    // cc b41e4898: (0 AND NOT 0) IS NULL
    assert_expr_fixpoint(&is_null(Expr::binary(
        int(0),
        BinOp::And,
        Expr::not(int(0)),
    )));
}

#[test]
fn regression_is_null_of_between_with_not_high_bound() {
    // cc 1fbe3de4: (0 BETWEEN 0 AND NOT 0) IS NULL
    assert_expr_fixpoint(&is_null(between(int(0), int(0), Expr::not(int(0)), false)));
}
