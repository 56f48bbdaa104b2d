//! Stored procedure helpers shared by backend and cache servers.

use std::sync::Arc;

use mtc_engine::eval::{eval, Bindings};
use mtc_engine::{ExecMetrics, QueryResult};
use mtc_sql::{Expr, Prepared};
use mtc_storage::{Catalog, ProcedureDef};
use mtc_types::{Error, Result, Row, Schema, Value};

use crate::stats::SharedServerStats;

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
    mtc_sql::parse_statements(body_sql)?
        .into_iter()
        .map(|stmt| {
            let prepared = Prepared::from_statement(stmt);
            match prepared.params.iter().find(|p| !params.contains(p)) {
                Some(p) => Err(Error::catalog(format!(
                    "procedure `{name}` references undeclared parameter `@{p}`"
                ))),
                None => Ok(Arc::new(prepared)),
            }
        })
        .collect()
}

/// `EXEC proc args` on a server whose catalog is `catalog`: looks the
/// procedure up, binds the arguments against the caller's `params`, counts
/// the call in `stats.procs` and runs the body in order, each statement
/// through `execute` with the bound parameters. The answer is the last
/// SELECT's, carrying the metrics of every statement; `None` when `catalog`
/// holds no such procedure. The body may write, so `catalog` must not be
/// borrowed from under a lock.
pub(crate) fn exec(
    catalog: &Catalog,
    proc: &str,
    args: &[(String, Expr)],
    params: &Bindings,
    stats: &SharedServerStats,
    mut execute: impl FnMut(&Prepared, &Bindings) -> Result<QueryResult>,
) -> Option<Result<QueryResult>> {
    let def = catalog.procedure(proc)?;
    Some(bind_proc_args(def, args, params).and_then(|bound| {
        stats.procs.inc();
        let mut last = QueryResult::default();
        let mut accumulated = ExecMetrics::default();
        for stmt in &def.body {
            let r = execute(stmt, &bound)?;
            accumulated.absorb(&r.metrics);
            if stmt.select().is_some() {
                last = r;
            }
        }
        last.metrics = accumulated;
        Ok(last)
    }))
}

#[cfg(test)]
mod tests {
    use super::*;

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
}
