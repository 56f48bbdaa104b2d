//! Correctness audit: once replication has drained, every cache node must
//! answer like the backend, row for row.

use mtc_engine::QueryResult;
use mtc_tpcw::procs::PROCEDURES;
use mtc_types::{Result, Row, Value};
use mtc_util::rng::{SeedableRng, StdRng};
use mtcache::Connection;

use crate::corpus;
use crate::workloads::{AdhocWindows, HotKeys, Runner, Stmt, ADHOC_MIX, HOTPOINT_MIX};

/// Bound instances probed per statement shape.
const PROBES_PER_SHAPE: usize = 3;

#[derive(Default)]
pub struct Audit {
    /// Probe statements compared (one per shape instance and cache node).
    pub probes: u64,
    pub failed: u64,
    /// One line per failed probe, with the offending statement.
    pub failures: Vec<String>,
}

/// The columns of `result` that the `ORDER BY` of `select` sorts on (those
/// of them the statement also returns).
fn order_columns(select: &str, result: &QueryResult) -> Vec<usize> {
    let Some((_, order_by)) = select.split_once("ORDER BY") else {
        return Vec::new();
    };
    order_by
        .split(',')
        .filter_map(|term| term.split_whitespace().next())
        .filter_map(|column| result.schema.index_of(column).ok())
        .collect()
}

fn sorted(mut rows: Vec<Row>) -> Vec<Row> {
    rows.sort();
    rows
}

/// The `n` of a `SELECT TOP n`.
fn top_n(select: &str) -> Option<usize> {
    let mut words = select.split_whitespace().skip_while(|w| *w != "TOP");
    words.nth(1)?.parse().ok()
}

/// True when the two servers gave the same answer to `select`.
///
/// Without an ORDER BY the row order is the server's choice, so the rows
/// are compared as a multiset. With one, the sort keys must agree position
/// by position and the rows must be the same multiset: rows that tie on the
/// keys may come in either order. Only where a `TOP n` returned its full `n`
/// rows may it have cut through the last group of ties, of which either
/// server may keep any members; that group is compared by its keys alone.
fn same_answer(select: &str, cache: &QueryResult, backend: &QueryResult) -> bool {
    if cache.rows == backend.rows {
        return true;
    }
    if cache.rows.len() != backend.rows.len() {
        return false;
    }
    let order = order_columns(select, backend);
    if order.is_empty() {
        return sorted(cache.rows.clone()) == sorted(backend.rows.clone());
    }
    let key = |row: &Row| -> Vec<Value> { order.iter().map(|&c| row[c].clone()).collect() };
    let keys_agree = cache
        .rows
        .iter()
        .zip(&backend.rows)
        .all(|(c, b)| key(c) == key(b));
    let cut = match top_n(select) {
        Some(n) if n == backend.rows.len() => backend.rows.last().map(key),
        _ => None,
    };
    let above_the_cut = |rows: &[Row]| -> Vec<Row> {
        sorted(
            rows.iter()
                .filter(|r| cut.is_none() || Some(key(r)) != cut)
                .cloned()
                .collect(),
        )
    };
    keys_agree && above_the_cut(&cache.rows) == above_the_cut(&backend.rows)
}

fn describe(result: &Result<QueryResult>) -> String {
    match result {
        Ok(r) => format!("{} rows", r.rows.len()),
        Err(e) => format!("error: {e}"),
    }
}

/// One probe: the statement, and the SELECT whose ORDER BY governs its
/// answer (the procedure body for an `EXEC`).
struct Probe {
    stmt: Stmt,
    select: String,
}

/// Drains replication, then sends the probe suite — every read procedure of
/// the TPC-W kit and every read template of `hotpoint` and `fleet_adhoc` —
/// to every cache node and to the backend, and compares the rows.
pub fn run(runner: &Runner, seed: u64) -> Audit {
    let dep = &runner.dep;
    let mut audit = Audit {
        probes: 1,
        ..Audit::default()
    };
    if !dep.drain() {
        audit.failed += 1;
        audit.failures.push("replication did not drain".to_string());
    }

    let scale = &dep.scale;
    let mut rng = StdRng::seed_from_u64(seed ^ 0xa0d1_7000);
    let mut probes: Vec<Probe> = Vec::new();
    for proc in PROCEDURES.iter().filter(|p| corpus::is_read(p)) {
        let args: Vec<String> = proc.1.iter().map(|p| format!("@{p} = @{p}")).collect();
        let call = format!("EXEC {} {}", proc.0, args.join(", "));
        for _ in 0..PROBES_PER_SHAPE {
            probes.push(Probe {
                stmt: Stmt {
                    label: proc.0,
                    session: 0,
                    sql: call.clone().into(),
                    params: corpus::bind(proc, scale, &mut rng),
                },
                select: proc.2.to_string(),
            });
        }
    }
    let hot = HotKeys::new(scale, &mut rng);
    let mut adhoc = AdhocWindows::new(scale, &mut rng);
    for _ in 0..PROBES_PER_SHAPE {
        let mut templates: Vec<Stmt> = Vec::new();
        for (label, _) in HOTPOINT_MIX {
            templates.push(hot.stmt(label, scale, &mut rng));
        }
        for (label, _) in ADHOC_MIX {
            templates.push(adhoc.stmt(label, scale, &mut rng));
        }
        for stmt in templates {
            if stmt.sql.starts_with("SELECT") {
                probes.push(Probe {
                    select: stmt.sql.to_string(),
                    stmt,
                });
            }
        }
    }

    let backend = Connection::connect_as(dep.backend.clone(), "app");
    let caches: Vec<Connection> = dep
        .nodes
        .iter()
        .map(|n| Connection::connect_as(n.clone(), "app"))
        .collect();
    for Probe { stmt, select } in &probes {
        let expected = backend.query_with(&stmt.sql, &stmt.params);
        for (node, cache) in dep.nodes.iter().zip(&caches) {
            let got = cache.query_with(&stmt.sql, &stmt.params);
            audit.probes += 1;
            let ok = match (&got, &expected) {
                (Ok(c), Ok(b)) => same_answer(select, c, b),
                _ => false,
            };
            if !ok {
                audit.failed += 1;
                audit.failures.push(format!(
                    "{}: {} but backend: {} for {} {:?}",
                    node.name(),
                    describe(&got),
                    describe(&expected),
                    stmt.sql,
                    stmt.params
                ));
            }
        }
    }
    audit
}

#[cfg(test)]
mod tests {
    use super::*;
    use mtc_types::{row, Column, DataType, Schema};

    fn result(rows: Vec<Row>) -> QueryResult {
        QueryResult {
            schema: Schema::new(vec![
                Column::new("id", DataType::Int),
                Column::new("qty", DataType::Int),
            ]),
            rows,
            ..QueryResult::default()
        }
    }

    #[test]
    fn unordered_answers_compare_as_multisets() {
        let a = result(vec![row![1, 5], row![2, 7]]);
        let b = result(vec![row![2, 7], row![1, 5]]);
        assert!(same_answer("SELECT id, qty FROM t", &a, &b));
        assert!(!same_answer(
            "SELECT id, qty FROM t ORDER BY id ASC",
            &a,
            &b
        ));
        let c = result(vec![row![2, 7], row![1, 6]]);
        assert!(!same_answer("SELECT id, qty FROM t", &a, &c));
        assert!(!same_answer(
            "SELECT id, qty FROM t",
            &a,
            &result(vec![row![1, 5]])
        ));
    }

    #[test]
    fn ties_on_the_sort_key_may_swap_and_the_cut_tie_group_may_differ() {
        let ordered = "SELECT TOP 3 id, qty FROM t ORDER BY qty DESC";
        let backend = result(vec![row![1, 9], row![2, 9], row![3, 4]]);
        // Ties swapped: same answer.
        let swapped = result(vec![row![2, 9], row![1, 9], row![3, 4]]);
        assert!(same_answer(ordered, &swapped, &backend));
        // TOP cut through the qty = 4 group: either member may be kept.
        let other_cut = result(vec![row![1, 9], row![2, 9], row![8, 4]]);
        assert!(same_answer(ordered, &other_cut, &backend));
        // A different row above the cut is a wrong answer.
        let wrong_row = result(vec![row![1, 9], row![7, 9], row![3, 4]]);
        assert!(!same_answer(ordered, &wrong_row, &backend));
        // Keys out of order are a wrong answer.
        let wrong_order = result(vec![row![3, 4], row![1, 9], row![2, 9]]);
        assert!(!same_answer(ordered, &wrong_order, &backend));
        // Nothing was cut when TOP returned fewer than n rows, or without a
        // TOP: then the last tie group must hold the same rows too.
        for uncut in [
            "SELECT TOP 4 id, qty FROM t ORDER BY qty DESC",
            "SELECT id, qty FROM t ORDER BY qty DESC",
        ] {
            assert!(same_answer(uncut, &swapped, &backend));
            assert!(!same_answer(uncut, &other_cut, &backend));
        }
    }
}
