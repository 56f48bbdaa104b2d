//! Physical plans.
//!
//! A physical plan is what the executor interprets. Remote subtrees appear
//! as [`PhysicalPlan::Remote`] nodes holding the *textual SQL* that will be
//! shipped to the backend server — the DataTransfer boundary of §5.

use mtc_sql::{Expr, JoinKind};
use mtc_types::Schema;

use crate::logical::{AggCall, SortKey};

/// A runtime key bound for an index/clustered seek: the bound expression
/// (parameter-only: literals and `@params`) and whether it is inclusive.
#[derive(Debug, Clone, PartialEq)]
pub struct KeyBound {
    pub expr: Expr,
    pub inclusive: bool,
}

/// Which site a [`PhysicalPlan::Remote`] boundary ships its SQL to: the
/// backend server (the paper's only remote site), or a cache peer whose
/// cached views cover the fragment (multi-site placement).
#[derive(Debug, Clone, PartialEq)]
pub enum RemoteSite {
    Backend,
    Peer {
        /// Fleet node name, e.g. `cache2`.
        node: String,
        /// Cached view(s) the fragment is served from (`+`-joined), for
        /// EXPLAIN observability.
        view: String,
    },
}

impl RemoteSite {
    /// Human-readable placement label used by EXPLAIN.
    pub fn describe(&self) -> String {
        match self {
            RemoteSite::Backend => "backend".to_string(),
            RemoteSite::Peer { node, view } => format!("{node} (view {view})"),
        }
    }
}

/// Physical operators.
#[derive(Debug, Clone, PartialEq)]
pub enum PhysicalPlan {
    /// Produces exactly one empty row (SELECT without FROM).
    Nothing { schema: Schema },
    /// Full scan of a local table or materialized view, with an optional
    /// pushed-down predicate.
    SeqScan {
        object: String,
        schema: Schema,
        predicate: Option<Expr>,
    },
    /// Range/point seek on the clustering (primary) key.
    ClusteredSeek {
        object: String,
        schema: Schema,
        low: Option<KeyBound>,
        high: Option<KeyBound>,
        /// Residual predicate re-checked on each fetched row.
        predicate: Option<Expr>,
    },
    /// Range/point seek on a secondary index (single-column).
    IndexSeek {
        object: String,
        index: String,
        schema: Schema,
        low: Option<KeyBound>,
        high: Option<KeyBound>,
        predicate: Option<Expr>,
    },
    Filter {
        input: Box<PhysicalPlan>,
        predicate: Expr,
    },
    Project {
        input: Box<PhysicalPlan>,
        exprs: Vec<(Expr, String)>,
        schema: Schema,
    },
    NestedLoopJoin {
        left: Box<PhysicalPlan>,
        right: Box<PhysicalPlan>,
        kind: JoinKind,
        on: Option<Expr>,
        schema: Schema,
    },
    /// Hash join on equi-keys; `kind` ∈ {Inner, Left, Right, Full}.
    HashJoin {
        left: Box<PhysicalPlan>,
        right: Box<PhysicalPlan>,
        left_keys: Vec<Expr>,
        right_keys: Vec<Expr>,
        kind: JoinKind,
        /// Extra non-equi conjuncts of the join predicate.
        residual: Option<Expr>,
        schema: Schema,
    },
    HashAggregate {
        input: Box<PhysicalPlan>,
        group_by: Vec<Expr>,
        aggs: Vec<AggCall>,
        schema: Schema,
    },
    Sort {
        input: Box<PhysicalPlan>,
        keys: Vec<SortKey>,
    },
    Top {
        input: Box<PhysicalPlan>,
        n: u64,
    },
    Distinct {
        input: Box<PhysicalPlan>,
    },
    /// Concatenation with per-branch startup predicates — the run-time half
    /// of ChoosePlan (Figure 2(b)): a branch whose startup predicate
    /// evaluates to false is never opened.
    UnionAll {
        inputs: Vec<PhysicalPlan>,
        startup_predicates: Vec<Option<Expr>>,
        schema: Schema,
    },
    /// Index nested-loop join: for each outer row, seek the inner table by
    /// key (clustered or secondary index) — the plan of choice when the
    /// outer side is tiny and the inner side is indexed on the join key.
    IndexNlJoin {
        outer: Box<PhysicalPlan>,
        /// Inner table or materialized-view backing table.
        inner_object: String,
        /// Seek through this secondary index; `None` = clustered key.
        inner_index: Option<String>,
        /// Expression over the *outer* row producing the seek key.
        outer_key: Expr,
        /// Projection applied to each fetched inner row (`None` = all
        /// columns in table order).
        inner_exprs: Option<Vec<(Expr, String)>>,
        /// Schema describing fetched inner rows (the underlying Get's
        /// schema), used to evaluate `inner_exprs` and `residual`.
        inner_row_schema: Schema,
        /// Schema of the inner side's output (post projection).
        inner_schema: Schema,
        /// `Inner` or `Left`.
        kind: JoinKind,
        /// Residual join conjuncts checked on the concatenated row.
        residual: Option<Expr>,
        schema: Schema,
    },
    /// MIN/MAX of the clustering key answered by a single B-tree descent
    /// (the `SELECT MAX(o_id) FROM orders` pattern): O(log n) instead of a
    /// scan-and-aggregate.
    ExtremeSeek {
        object: String,
        /// Index of the key column within the table schema.
        key_index: usize,
        /// True for MAX (last key), false for MIN (first key).
        is_max: bool,
        /// Single-column output schema (the aggregate's output name).
        schema: Schema,
    },
    /// DataTransfer boundary: ship `sql` to `site` — the backend or a cache
    /// peer — which re-parses and re-optimizes it (the prototype's
    /// textual-SQL limitation), and stream the result back.
    Remote {
        sql: String,
        schema: Schema,
        est_rows: f64,
        site: RemoteSite,
    },
}

impl PhysicalPlan {
    pub fn schema(&self) -> &Schema {
        match self {
            PhysicalPlan::Nothing { schema }
            | PhysicalPlan::SeqScan { schema, .. }
            | PhysicalPlan::ClusteredSeek { schema, .. }
            | PhysicalPlan::IndexSeek { schema, .. }
            | PhysicalPlan::Project { schema, .. }
            | PhysicalPlan::NestedLoopJoin { schema, .. }
            | PhysicalPlan::HashJoin { schema, .. }
            | PhysicalPlan::HashAggregate { schema, .. }
            | PhysicalPlan::UnionAll { schema, .. }
            | PhysicalPlan::ExtremeSeek { schema, .. }
            | PhysicalPlan::IndexNlJoin { schema, .. }
            | PhysicalPlan::Remote { schema, .. } => schema,
            PhysicalPlan::Filter { input, .. }
            | PhysicalPlan::Sort { input, .. }
            | PhysicalPlan::Top { input, .. }
            | PhysicalPlan::Distinct { input } => input.schema(),
        }
    }

    /// True if any Remote node appears in the plan.
    pub fn uses_remote(&self) -> bool {
        match self {
            PhysicalPlan::Remote { .. } => true,
            _ => self.children().iter().any(|c| c.uses_remote()),
        }
    }

    /// True if the plan reads any *local* data source.
    pub fn uses_local_data(&self) -> bool {
        match self {
            PhysicalPlan::SeqScan { .. }
            | PhysicalPlan::ClusteredSeek { .. }
            | PhysicalPlan::IndexSeek { .. }
            | PhysicalPlan::ExtremeSeek { .. }
            | PhysicalPlan::IndexNlJoin { .. } => true,
            _ => self.children().iter().any(|c| c.uses_local_data()),
        }
    }

    pub fn children(&self) -> Vec<&PhysicalPlan> {
        match self {
            PhysicalPlan::Nothing { .. }
            | PhysicalPlan::SeqScan { .. }
            | PhysicalPlan::ClusteredSeek { .. }
            | PhysicalPlan::IndexSeek { .. }
            | PhysicalPlan::ExtremeSeek { .. }
            | PhysicalPlan::Remote { .. } => vec![],
            PhysicalPlan::Filter { input, .. }
            | PhysicalPlan::Project { input, .. }
            | PhysicalPlan::HashAggregate { input, .. }
            | PhysicalPlan::Sort { input, .. }
            | PhysicalPlan::Top { input, .. }
            | PhysicalPlan::Distinct { input } => vec![input],
            PhysicalPlan::IndexNlJoin { outer, .. } => vec![outer],
            PhysicalPlan::NestedLoopJoin { left, right, .. }
            | PhysicalPlan::HashJoin { left, right, .. } => vec![left, right],
            PhysicalPlan::UnionAll { inputs, .. } => inputs.iter().collect(),
        }
    }

    /// Pretty-printed operator tree.
    pub fn explain(&self) -> String {
        let mut out = String::new();
        self.explain_into(&mut out, 0);
        out
    }

    fn explain_into(&self, out: &mut String, depth: usize) {
        for _ in 0..depth {
            out.push_str("  ");
        }
        match self {
            PhysicalPlan::Nothing { .. } => out.push_str("Nothing\n"),
            PhysicalPlan::SeqScan {
                object, predicate, ..
            } => out.push_str(&format!("SeqScan {object}{}\n", filter_str(predicate))),
            PhysicalPlan::ClusteredSeek {
                object,
                low,
                high,
                predicate,
                ..
            } => out.push_str(&format!(
                "ClusteredSeek {object} {}{}\n",
                bounds_str(low, high),
                filter_str(predicate)
            )),
            PhysicalPlan::IndexSeek {
                object,
                index,
                low,
                high,
                predicate,
                ..
            } => out.push_str(&format!(
                "IndexSeek {object}.{index} {}{}\n",
                bounds_str(low, high),
                filter_str(predicate)
            )),
            PhysicalPlan::Filter { predicate, .. } => {
                out.push_str(&format!("Filter {predicate}\n"))
            }
            PhysicalPlan::Project { exprs, .. } => {
                let cols: Vec<String> =
                    exprs.iter().map(|(e, n)| format!("{e} AS {n}")).collect();
                out.push_str(&format!("Project {}\n", cols.join(", ")));
            }
            PhysicalPlan::NestedLoopJoin { kind, on, .. } => out.push_str(&format!(
                "NestedLoopJoin {} {}\n",
                kind.sql(),
                on.as_ref().map(|e| e.to_string()).unwrap_or_default()
            )),
            PhysicalPlan::HashJoin {
                kind,
                left_keys,
                right_keys,
                ..
            } => {
                let keys: Vec<String> = left_keys
                    .iter()
                    .zip(right_keys)
                    .map(|(l, r)| format!("{l} = {r}"))
                    .collect();
                out.push_str(&format!("HashJoin {} on {}\n", kind.sql(), keys.join(" AND ")));
            }
            PhysicalPlan::HashAggregate { group_by, aggs, .. } => {
                let gb: Vec<String> = group_by.iter().map(|e| e.to_string()).collect();
                out.push_str(&format!(
                    "HashAggregate group=[{}] aggs={}\n",
                    gb.join(", "),
                    aggs.len()
                ));
            }
            PhysicalPlan::Sort { keys, .. } => {
                let ks: Vec<String> = keys
                    .iter()
                    .map(|k| format!("{} {}", k.expr, if k.asc { "ASC" } else { "DESC" }))
                    .collect();
                out.push_str(&format!("Sort {}\n", ks.join(", ")));
            }
            PhysicalPlan::Top { n, .. } => out.push_str(&format!("Top {n}\n")),
            PhysicalPlan::Distinct { .. } => out.push_str("Distinct\n"),
            PhysicalPlan::UnionAll {
                startup_predicates, ..
            } => {
                let guards: Vec<String> = startup_predicates
                    .iter()
                    .map(|g| match g {
                        Some(e) => format!("[startup: {e}]"),
                        None => "[always]".into(),
                    })
                    .collect();
                out.push_str(&format!("UnionAll {}\n", guards.join(" ")));
            }
            PhysicalPlan::IndexNlJoin {
                inner_object,
                inner_index,
                outer_key,
                kind,
                ..
            } => out.push_str(&format!(
                "IndexNlJoin {} {inner_object}{} on {outer_key}\n",
                kind.sql(),
                inner_index
                    .as_ref()
                    .map(|i| format!(".{i}"))
                    .unwrap_or_default()
            )),
            PhysicalPlan::ExtremeSeek { object, is_max, .. } => out.push_str(&format!(
                "ExtremeSeek {object} ({})\n",
                if *is_max { "MAX" } else { "MIN" }
            )),
            PhysicalPlan::Remote {
                sql,
                est_rows,
                site,
                ..
            } => match site {
                RemoteSite::Backend => {
                    out.push_str(&format!("Remote (~{est_rows:.0} rows): {sql}\n"))
                }
                RemoteSite::Peer { node, view } => out.push_str(&format!(
                    "Remote@{node} (view {view}, ~{est_rows:.0} rows): {sql}\n"
                )),
            },
        }
        for c in self.children() {
            c.explain_into(out, depth + 1);
        }
    }
}

/// The residual an access path re-checks over every row it touches.
fn filter_str(predicate: &Option<Expr>) -> String {
    predicate
        .as_ref()
        .map(|p| format!(" filter: {p}"))
        .unwrap_or_default()
}

fn bounds_str(low: &Option<KeyBound>, high: &Option<KeyBound>) -> String {
    let lo = low
        .as_ref()
        .map(|b| format!("{}{}", if b.inclusive { ">= " } else { "> " }, b.expr))
        .unwrap_or_default();
    let hi = high
        .as_ref()
        .map(|b| format!("{}{}", if b.inclusive { "<= " } else { "< " }, b.expr))
        .unwrap_or_default();
    format!("[{lo} {hi}]")
}

#[cfg(test)]
mod tests {
    use super::*;
    use mtc_types::{Column, DataType};

    #[test]
    fn uses_remote_detects_nested_remote() {
        let schema = Schema::new(vec![Column::new("a", DataType::Int)]);
        let remote = PhysicalPlan::Remote {
            sql: "SELECT a FROM t".into(),
            schema: schema.clone(),
            est_rows: 10.0,
            site: RemoteSite::Backend,
        };
        let plan = PhysicalPlan::Top {
            input: Box::new(PhysicalPlan::Filter {
                input: Box::new(remote),
                predicate: Expr::lit(true),
            }),
            n: 5,
        };
        assert!(plan.uses_remote());
        assert!(!plan.uses_local_data());

        let local = PhysicalPlan::SeqScan {
            object: "t".into(),
            schema,
            predicate: None,
        };
        assert!(!local.uses_remote());
        assert!(local.uses_local_data());
    }

    #[test]
    fn explain_shows_startup_predicates() {
        let schema = Schema::new(vec![Column::new("a", DataType::Int)]);
        let plan = PhysicalPlan::UnionAll {
            inputs: vec![
                PhysicalPlan::Nothing {
                    schema: schema.clone(),
                },
                PhysicalPlan::Nothing {
                    schema: schema.clone(),
                },
            ],
            startup_predicates: vec![
                Some(Expr::binary(
                    Expr::param("cid"),
                    mtc_sql::BinOp::Le,
                    Expr::lit(1000),
                )),
                None,
            ],
            schema,
        };
        let text = plan.explain();
        assert!(text.contains("[startup: @cid <= 1000]"), "{text}");
        assert!(text.contains("[always]"), "{text}");
    }

    #[test]
    fn explain_shows_seek_residuals() {
        let schema = Schema::new(vec![Column::new("a", DataType::Int)]);
        let residual = Expr::binary(Expr::col("a"), mtc_sql::BinOp::Gt, Expr::param("lo"));
        let bound = Some(KeyBound {
            expr: Expr::param("lo"),
            inclusive: false,
        });
        let seeks = [
            PhysicalPlan::ClusteredSeek {
                object: "t".into(),
                schema: schema.clone(),
                low: bound.clone(),
                high: None,
                predicate: Some(residual.clone()),
            },
            PhysicalPlan::IndexSeek {
                object: "t".into(),
                index: "ix".into(),
                schema,
                low: bound,
                high: None,
                predicate: Some(residual),
            },
        ];
        let [clustered, index] = seeks.map(|p| p.explain());
        assert_eq!(clustered, "ClusteredSeek t [> @lo ] filter: a > @lo\n");
        assert_eq!(index, "IndexSeek t.ix [> @lo ] filter: a > @lo\n");
    }
}
