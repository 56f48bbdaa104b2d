//! Logical query plans.

use std::fmt;

use mtc_sql::{Expr, JoinKind};
use mtc_types::{Column, DataType, Schema};

/// The paper's `DataLocation` physical property (§5): where a (sub)result
/// lives. Cached views and their indexes are `Local`; all other data sources
/// on a cache server are `Remote`. The root of every query requires `Local`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DataLocation {
    Local,
    Remote,
}

impl fmt::Display for DataLocation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            DataLocation::Local => "Local",
            DataLocation::Remote => "Remote",
        })
    }
}

/// Aggregate functions.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AggFunc {
    Count,
    Sum,
    Avg,
    Min,
    Max,
}

impl AggFunc {
    pub fn parse(name: &str) -> Option<AggFunc> {
        Some(match name.to_ascii_uppercase().as_str() {
            "COUNT" => AggFunc::Count,
            "SUM" => AggFunc::Sum,
            "AVG" => AggFunc::Avg,
            "MIN" => AggFunc::Min,
            "MAX" => AggFunc::Max,
            _ => return None,
        })
    }

    pub fn sql(self) -> &'static str {
        match self {
            AggFunc::Count => "COUNT",
            AggFunc::Sum => "SUM",
            AggFunc::Avg => "AVG",
            AggFunc::Min => "MIN",
            AggFunc::Max => "MAX",
        }
    }

    /// Output type given the input column type.
    pub fn output_type(self, input: Option<DataType>) -> DataType {
        match self {
            AggFunc::Count => DataType::Int,
            AggFunc::Avg => DataType::Float,
            AggFunc::Sum | AggFunc::Min | AggFunc::Max => input.unwrap_or(DataType::Float),
        }
    }
}

/// One aggregate call in an Aggregate node.
#[derive(Debug, Clone, PartialEq)]
pub struct AggCall {
    pub func: AggFunc,
    /// `None` for `COUNT(*)`.
    pub arg: Option<Expr>,
    pub distinct: bool,
    /// Output column name.
    pub output_name: String,
}

/// A sort key.
#[derive(Debug, Clone, PartialEq)]
pub struct SortKey {
    pub expr: Expr,
    pub asc: bool,
}

/// Logical plan nodes.
///
/// Every node caches its output `Schema`; the binder computes them once.
#[derive(Debug, Clone, PartialEq)]
pub enum LogicalPlan {
    /// Scan of a base table, shadow table or materialized view.
    Get {
        /// Catalog object name.
        object: String,
        /// Alias used for column qualification (defaults to object name).
        alias: String,
        schema: Schema,
        /// Where the object's data lives. Shadow tables are `Remote`;
        /// cached/materialized views present locally are `Local`.
        location: DataLocation,
    },
    Filter {
        input: Box<LogicalPlan>,
        predicate: Expr,
    },
    Project {
        input: Box<LogicalPlan>,
        /// (expression, output name) pairs.
        exprs: Vec<(Expr, String)>,
        schema: Schema,
    },
    Join {
        left: Box<LogicalPlan>,
        right: Box<LogicalPlan>,
        kind: JoinKind,
        /// Join predicate; `None` = cross product.
        on: Option<Expr>,
        schema: Schema,
    },
    Aggregate {
        input: Box<LogicalPlan>,
        group_by: Vec<Expr>,
        aggs: Vec<AggCall>,
        schema: Schema,
    },
    Sort {
        input: Box<LogicalPlan>,
        keys: Vec<SortKey>,
    },
    /// `TOP n` (applied after Sort when both are present).
    Top {
        input: Box<LogicalPlan>,
        n: u64,
    },
    Distinct {
        input: Box<LogicalPlan>,
    },
    /// Concatenation. With the MTCache extension, each input may carry a
    /// *startup predicate* (parameter-only guard evaluated once when the
    /// branch opens). A ChoosePlan is a UnionAll of two guarded branches.
    UnionAll {
        inputs: Vec<LogicalPlan>,
        /// Parallel to `inputs`; `None` = always open this branch.
        startup_predicates: Vec<Option<Expr>>,
        /// Parallel to `inputs`: expected execution frequency of each branch
        /// (the paper's §5.1 weighted costing `Fl·Cl + (1−Fl)·Cr`). Plain
        /// concatenating UnionAlls use weight 1.0 per branch.
        weights: Vec<f64>,
        schema: Schema,
    },
}

impl LogicalPlan {
    /// Output schema of this node.
    pub fn schema(&self) -> &Schema {
        match self {
            LogicalPlan::Get { schema, .. }
            | LogicalPlan::Project { schema, .. }
            | LogicalPlan::Join { schema, .. }
            | LogicalPlan::Aggregate { schema, .. }
            | LogicalPlan::UnionAll { schema, .. } => schema,
            LogicalPlan::Filter { input, .. }
            | LogicalPlan::Sort { input, .. }
            | LogicalPlan::Top { input, .. }
            | LogicalPlan::Distinct { input } => input.schema(),
        }
    }

    /// Children of this node.
    pub fn children(&self) -> Vec<&LogicalPlan> {
        match self {
            LogicalPlan::Get { .. } => vec![],
            LogicalPlan::Filter { input, .. }
            | LogicalPlan::Project { input, .. }
            | LogicalPlan::Aggregate { input, .. }
            | LogicalPlan::Sort { input, .. }
            | LogicalPlan::Top { input, .. }
            | LogicalPlan::Distinct { input } => vec![input],
            LogicalPlan::Join { left, right, .. } => vec![left, right],
            LogicalPlan::UnionAll { inputs, .. } => inputs.iter().collect(),
        }
    }

    /// Rebuilds this node with `f` applied to each of its direct inputs,
    /// left to right, and everything else kept as it is (a cached schema
    /// included). This is the one place that knows each node's children: a
    /// rewrite matches the nodes it changes and hands every other node here.
    pub fn map_children(self, mut f: impl FnMut(LogicalPlan) -> LogicalPlan) -> LogicalPlan {
        match self {
            LogicalPlan::Filter { input, predicate } => LogicalPlan::Filter {
                input: Box::new(f(*input)),
                predicate,
            },
            LogicalPlan::Project {
                input,
                exprs,
                schema,
            } => LogicalPlan::Project {
                input: Box::new(f(*input)),
                exprs,
                schema,
            },
            LogicalPlan::Join {
                left,
                right,
                kind,
                on,
                schema,
            } => LogicalPlan::Join {
                left: Box::new(f(*left)),
                right: Box::new(f(*right)),
                kind,
                on,
                schema,
            },
            LogicalPlan::Aggregate {
                input,
                group_by,
                aggs,
                schema,
            } => LogicalPlan::Aggregate {
                input: Box::new(f(*input)),
                group_by,
                aggs,
                schema,
            },
            LogicalPlan::Sort { input, keys } => LogicalPlan::Sort {
                input: Box::new(f(*input)),
                keys,
            },
            LogicalPlan::Top { input, n } => LogicalPlan::Top {
                input: Box::new(f(*input)),
                n,
            },
            LogicalPlan::Distinct { input } => LogicalPlan::Distinct {
                input: Box::new(f(*input)),
            },
            LogicalPlan::UnionAll {
                inputs,
                startup_predicates,
                weights,
                schema,
            } => LogicalPlan::UnionAll {
                inputs: inputs.into_iter().map(f).collect(),
                startup_predicates,
                weights,
                schema,
            },
            leaf @ LogicalPlan::Get { .. } => leaf,
        }
    }

    /// All `Get` leaves in the plan.
    pub fn leaves(&self) -> Vec<&LogicalPlan> {
        let mut out = Vec::new();
        fn walk<'a>(p: &'a LogicalPlan, out: &mut Vec<&'a LogicalPlan>) {
            if matches!(p, LogicalPlan::Get { .. }) {
                out.push(p);
            }
            for c in p.children() {
                walk(c, out);
            }
        }
        walk(self, &mut out);
        out
    }

    /// Pretty-prints the plan tree (one node per line, indented).
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
            LogicalPlan::Get {
                object, location, ..
            } => out.push_str(&format!("Get {object} [{location}]\n")),
            LogicalPlan::Filter { predicate, .. } => {
                out.push_str(&format!("Filter {predicate}\n"))
            }
            LogicalPlan::Project { exprs, .. } => {
                let cols: Vec<String> = exprs.iter().map(|(e, n)| format!("{e} AS {n}")).collect();
                out.push_str(&format!("Project {}\n", cols.join(", ")));
            }
            LogicalPlan::Join { kind, on, .. } => {
                out.push_str(&format!(
                    "Join {} {}\n",
                    kind.sql(),
                    on.as_ref().map(|e| e.to_string()).unwrap_or_default()
                ));
            }
            LogicalPlan::Aggregate { group_by, aggs, .. } => {
                let gb: Vec<String> = group_by.iter().map(|e| e.to_string()).collect();
                let ag: Vec<String> = aggs
                    .iter()
                    .map(|a| format!("{}(...) AS {}", a.func.sql(), a.output_name))
                    .collect();
                out.push_str(&format!(
                    "Aggregate group=[{}] aggs=[{}]\n",
                    gb.join(", "),
                    ag.join(", ")
                ));
            }
            LogicalPlan::Sort { keys, .. } => {
                let ks: Vec<String> = keys
                    .iter()
                    .map(|k| format!("{} {}", k.expr, if k.asc { "ASC" } else { "DESC" }))
                    .collect();
                out.push_str(&format!("Sort {}\n", ks.join(", ")));
            }
            LogicalPlan::Top { n, .. } => out.push_str(&format!("Top {n}\n")),
            LogicalPlan::Distinct { .. } => out.push_str("Distinct\n"),
            LogicalPlan::UnionAll {
                startup_predicates, ..
            } => {
                let guards: Vec<String> = startup_predicates
                    .iter()
                    .map(|g| {
                        g.as_ref()
                            .map(|e| format!("[startup: {e}]"))
                            .unwrap_or_else(|| "[always]".into())
                    })
                    .collect();
                out.push_str(&format!("UnionAll {}\n", guards.join(" ")));
            }
        }
        for c in self.children() {
            c.explain_into(out, depth + 1);
        }
    }
}

/// Helper: the output column for an aggregate call.
pub fn agg_output_column(call: &AggCall, input_schema: &Schema) -> Column {
    let input_type = call.arg.as_ref().and_then(|e| {
        if let Expr::Column(c) = e {
            input_schema
                .index_of(c)
                .ok()
                .map(|i| input_schema.column(i).dtype)
        } else {
            Some(DataType::Float)
        }
    });
    Column::new(&call.output_name, call.func.output_type(input_type))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn get(name: &str, loc: DataLocation) -> LogicalPlan {
        LogicalPlan::Get {
            object: name.into(),
            alias: name.into(),
            schema: Schema::new(vec![Column::new("a", DataType::Int)]),
            location: loc,
        }
    }

    #[test]
    fn leaves_walks_whole_tree() {
        let plan = LogicalPlan::Join {
            left: Box::new(get("t1", DataLocation::Remote)),
            right: Box::new(LogicalPlan::Filter {
                input: Box::new(get("v1", DataLocation::Local)),
                predicate: Expr::lit(true),
            }),
            kind: JoinKind::Inner,
            on: None,
            schema: Schema::empty(),
        };
        let leaves = plan.leaves();
        assert_eq!(leaves.len(), 2);
    }

    #[test]
    fn explain_is_indented() {
        let plan = LogicalPlan::Filter {
            input: Box::new(get("item", DataLocation::Local)),
            predicate: Expr::binary(Expr::col("a"), mtc_sql::BinOp::Le, Expr::lit(10)),
        };
        let text = plan.explain();
        assert!(text.contains("Filter a <= 10"));
        assert!(text.contains("  Get item [Local]"));
    }

    #[test]
    fn agg_output_types() {
        assert_eq!(AggFunc::Count.output_type(Some(DataType::Str)), DataType::Int);
        assert_eq!(AggFunc::Avg.output_type(Some(DataType::Int)), DataType::Float);
        assert_eq!(AggFunc::Min.output_type(Some(DataType::Str)), DataType::Str);
        assert_eq!(AggFunc::parse("sum"), Some(AggFunc::Sum));
        assert_eq!(AggFunc::parse("nope"), None);
    }
}
