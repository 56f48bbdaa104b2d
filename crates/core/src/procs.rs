//! Stored procedure helpers shared by backend and cache servers.

use std::sync::Arc;

use mtc_engine::eval::{eval, Bindings};
use mtc_sql::{Expr, Prepared, Statement};
use mtc_storage::ProcedureDef;
use mtc_types::{Error, Result, Row, Schema, Value};

/// Builds the parameter bindings for one procedure invocation: declared
/// parameters default to NULL, then EXEC arguments (evaluated against the
/// caller's bindings) override by name.
pub fn bind_proc_args(
    proc: &ProcedureDef,
    args: &[(String, Expr)],
    caller_params: &Bindings,
) -> Result<Bindings> {
    let mut bound = Bindings::new();
    for p in &proc.params {
        bound.insert(p.clone(), Value::Null);
    }
    let empty_row = Row::new(vec![]);
    let empty_schema = Schema::empty();
    for (name, expr) in args {
        if !bound.contains_key(name) {
            return Err(Error::execution(format!(
                "procedure `{}` has no parameter `@{name}`",
                proc.name
            )));
        }
        let v = eval(expr, &empty_row, &empty_schema, caller_params)?;
        bound.insert(name.clone(), v);
    }
    Ok(bound)
}

/// Parses a procedure body script and prepares its statements — once, for
/// every later `EXEC` — validating that every referenced parameter is
/// declared.
pub fn prepare_proc_body(
    name: &str,
    params: &[String],
    body_sql: &str,
) -> Result<Vec<Arc<Prepared>>> {
    let body = mtc_sql::parse_statements(body_sql)?;
    for stmt in &body {
        for p in statement_params(stmt) {
            if !params.iter().any(|d| d == &p) {
                return Err(Error::catalog(format!(
                    "procedure `{name}` references undeclared parameter `@{p}`"
                )));
            }
        }
    }
    Ok(body
        .into_iter()
        .map(|stmt| Arc::new(Prepared::from_statement(stmt)))
        .collect())
}

/// All parameter names referenced by a statement.
pub fn statement_params(stmt: &Statement) -> Vec<String> {
    let mut out: Vec<String> = Vec::new();
    let mut push_expr = |e: &Expr| {
        for p in e.params() {
            out.push(p.to_string());
        }
    };
    match stmt {
        Statement::Select(s) => collect_select_params(s, &mut push_expr),
        Statement::Insert { source, .. } => match source {
            mtc_sql::InsertSource::Values(rows) => {
                for row in rows {
                    for e in row {
                        push_expr(e);
                    }
                }
            }
            mtc_sql::InsertSource::Query(s) => collect_select_params(s, &mut push_expr),
        },
        Statement::Update {
            assignments,
            selection,
            ..
        } => {
            for (_, e) in assignments {
                push_expr(e);
            }
            if let Some(s) = selection {
                push_expr(s);
            }
        }
        Statement::Delete { selection, .. } => {
            if let Some(s) = selection {
                push_expr(s);
            }
        }
        Statement::Exec { args, .. } => {
            for (_, e) in args {
                push_expr(e);
            }
        }
        _ => {}
    }
    out.sort();
    out.dedup();
    out
}

fn collect_select_params(s: &mtc_sql::Select, push: &mut impl FnMut(&Expr)) {
    for item in &s.projection {
        if let mtc_sql::SelectItem::Expr { expr, .. } = item {
            push(expr);
        }
    }
    if let Some(w) = &s.selection {
        push(w);
    }
    for g in &s.group_by {
        push(g);
    }
    if let Some(h) = &s.having {
        push(h);
    }
    for o in &s.order_by {
        push(&o.expr);
    }
    for t in &s.from {
        collect_tableref_params(t, push);
    }
}

fn collect_tableref_params(t: &mtc_sql::TableRef, push: &mut impl FnMut(&Expr)) {
    if let mtc_sql::TableRef::Join { left, right, on, .. } = t {
        collect_tableref_params(left, push);
        collect_tableref_params(right, push);
        if let Some(on) = on {
            push(on);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mtc_sql::parse_statement;

    fn proc() -> ProcedureDef {
        ProcedureDef {
            name: "getitem".into(),
            params: vec!["id".into(), "kind".into()],
            body: vec![Arc::new(Prepared::new("SELECT 1").unwrap())],
        }
    }

    #[test]
    fn binds_declared_args_defaults_null() {
        let p = proc();
        let args = vec![("id".to_string(), Expr::lit(7))];
        let b = bind_proc_args(&p, &args, &Bindings::new()).unwrap();
        assert_eq!(b["id"], Value::Int(7));
        assert_eq!(b["kind"], Value::Null);
    }

    #[test]
    fn rejects_unknown_arg() {
        let p = proc();
        let args = vec![("nope".to_string(), Expr::lit(1))];
        assert!(bind_proc_args(&p, &args, &Bindings::new()).is_err());
    }

    #[test]
    fn caller_params_flow_through() {
        let p = proc();
        let mut caller = Bindings::new();
        caller.insert("outer".into(), Value::Int(42));
        let args = vec![("id".to_string(), Expr::param("outer"))];
        let b = bind_proc_args(&p, &args, &caller).unwrap();
        assert_eq!(b["id"], Value::Int(42));
    }

    #[test]
    fn body_validation_catches_undeclared_params() {
        let err = prepare_proc_body(
            "p",
            &["a".into()],
            "SELECT * FROM t WHERE x = @a AND y = @b",
        )
        .unwrap_err();
        assert!(err.to_string().contains("@b"), "{err}");
        assert!(prepare_proc_body("p", &["a".into()], "SELECT 1 WHERE 1 = @a").is_ok());
    }

    #[test]
    fn statement_params_covers_clauses() {
        let s = parse_statement(
            "SELECT a + @x FROM t INNER JOIN u ON t.id = u.id AND u.k = @y WHERE b = @z GROUP BY a HAVING COUNT(*) > @w ORDER BY @v DESC",
        )
        .unwrap();
        let ps = statement_params(&s);
        assert_eq!(ps, vec!["v", "w", "x", "y", "z"]);
    }
}
