//! Abstract syntax tree and SQL printer.
//!
//! Every node implements `Display`, producing canonical SQL text that the
//! parser accepts back. The cache server relies on this to ship remote
//! subexpressions to the backend as textual SQL (§5 of the paper).

use std::fmt;

use mtc_types::{DataType, Value};

/// Binary operators, in SQL spelling.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BinOp {
    Eq,
    Neq,
    Lt,
    Le,
    Gt,
    Ge,
    And,
    Or,
    Add,
    Sub,
    Mul,
    Div,
    Mod,
}

impl BinOp {
    pub fn sql(self) -> &'static str {
        match self {
            BinOp::Eq => "=",
            BinOp::Neq => "<>",
            BinOp::Lt => "<",
            BinOp::Le => "<=",
            BinOp::Gt => ">",
            BinOp::Ge => ">=",
            BinOp::And => "AND",
            BinOp::Or => "OR",
            BinOp::Add => "+",
            BinOp::Sub => "-",
            BinOp::Mul => "*",
            BinOp::Div => "/",
            BinOp::Mod => "%",
        }
    }

    /// True for `=, <>, <, <=, >, >=`.
    pub fn is_comparison(self) -> bool {
        matches!(
            self,
            BinOp::Eq | BinOp::Neq | BinOp::Lt | BinOp::Le | BinOp::Gt | BinOp::Ge
        )
    }

    /// The comparison with operands swapped: `a < b` ⇔ `b > a`.
    pub fn flip(self) -> BinOp {
        match self {
            BinOp::Lt => BinOp::Gt,
            BinOp::Le => BinOp::Ge,
            BinOp::Gt => BinOp::Lt,
            BinOp::Ge => BinOp::Le,
            other => other,
        }
    }

    /// Logical negation of a comparison: `NOT (a < b)` ⇔ `a >= b`.
    pub fn negate_comparison(self) -> Option<BinOp> {
        Some(match self {
            BinOp::Eq => BinOp::Neq,
            BinOp::Neq => BinOp::Eq,
            BinOp::Lt => BinOp::Ge,
            BinOp::Le => BinOp::Gt,
            BinOp::Gt => BinOp::Le,
            BinOp::Ge => BinOp::Lt,
            _ => return None,
        })
    }
}

/// Unary operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum UnaryOp {
    Not,
    Neg,
}

/// Scalar/aggregate expression.
#[derive(Debug, Clone, PartialEq)]
pub enum Expr {
    /// Column reference, possibly qualified (`alias.column`), lower-cased.
    Column(String),
    /// Literal value.
    Literal(Value),
    /// Run-time parameter `@name` (name lower-cased, no `@`).
    Param(String),
    Unary {
        op: UnaryOp,
        expr: Box<Expr>,
    },
    Binary {
        left: Box<Expr>,
        op: BinOp,
        right: Box<Expr>,
    },
    /// Function call — aggregates (`COUNT`, `SUM`, `AVG`, `MIN`, `MAX`) and
    /// scalar functions (`SUBSTRING`, `LOWER`, ...). `COUNT(*)` is
    /// represented with an empty argument list.
    Function {
        name: String,
        args: Vec<Expr>,
        distinct: bool,
    },
    Like {
        expr: Box<Expr>,
        pattern: Box<Expr>,
        negated: bool,
    },
    InList {
        expr: Box<Expr>,
        list: Vec<Expr>,
        negated: bool,
    },
    IsNull {
        expr: Box<Expr>,
        negated: bool,
    },
    Case {
        /// `CASE WHEN cond THEN val ... [ELSE val] END` (searched form only).
        branches: Vec<(Expr, Expr)>,
        else_expr: Option<Box<Expr>>,
    },
}

impl Expr {
    pub fn col(name: &str) -> Expr {
        Expr::Column(mtc_types::normalize_ident(name))
    }

    pub fn lit(v: impl Into<Value>) -> Expr {
        Expr::Literal(v.into())
    }

    pub fn param(name: &str) -> Expr {
        Expr::Param(mtc_types::normalize_ident(name))
    }

    pub fn binary(left: Expr, op: BinOp, right: Expr) -> Expr {
        Expr::Binary {
            left: Box::new(left),
            op,
            right: Box::new(right),
        }
    }

    pub fn and(left: Expr, right: Expr) -> Expr {
        Expr::binary(left, BinOp::And, right)
    }

    pub fn or(left: Expr, right: Expr) -> Expr {
        Expr::binary(left, BinOp::Or, right)
    }

    pub fn not(expr: Expr) -> Expr {
        Expr::Unary {
            op: UnaryOp::Not,
            expr: Box::new(expr),
        }
    }

    /// ANDs a list of conjuncts together; `None` for an empty list.
    pub fn conjunction(conjuncts: impl IntoIterator<Item = Expr>) -> Option<Expr> {
        conjuncts.into_iter().reduce(Expr::and)
    }

    /// Splits this expression into top-level AND conjuncts.
    pub fn split_conjuncts(&self) -> Vec<&Expr> {
        let mut out = Vec::new();
        fn walk<'a>(e: &'a Expr, out: &mut Vec<&'a Expr>) {
            if let Expr::Binary {
                left,
                op: BinOp::And,
                right,
            } = e
            {
                walk(left, out);
                walk(right, out);
            } else {
                out.push(e);
            }
        }
        walk(self, &mut out);
        out
    }

    /// All column names referenced anywhere in the expression.
    pub fn columns(&self) -> Vec<&str> {
        let mut out = Vec::new();
        self.visit(&mut |e| {
            if let Expr::Column(c) = e {
                out.push(c.as_str());
            }
        });
        out
    }

    /// All parameter names referenced anywhere in the expression.
    pub fn params(&self) -> Vec<&str> {
        let mut out = Vec::new();
        self.visit(&mut |e| {
            if let Expr::Param(p) = e {
                out.push(p.as_str());
            }
        });
        out
    }

    /// True if the expression references no columns (only literals and
    /// parameters) — exactly the condition for a ChoosePlan *guard*
    /// predicate, which must be evaluable at operator startup.
    pub fn is_parameter_only(&self) -> bool {
        self.columns().is_empty()
    }

    /// True if any aggregate function appears at any depth.
    pub fn contains_aggregate(&self) -> bool {
        let mut found = false;
        self.visit(&mut |e| {
            if let Expr::Function { name, .. } = e {
                if is_aggregate_name(name) {
                    found = true;
                }
            }
        });
        found
    }

    /// Depth-first pre-order visit of all subexpressions.
    pub fn visit<'a>(&'a self, f: &mut impl FnMut(&'a Expr)) {
        f(self);
        match self {
            Expr::Column(_) | Expr::Literal(_) | Expr::Param(_) => {}
            Expr::Unary { expr, .. } => expr.visit(f),
            Expr::Binary { left, right, .. } => {
                left.visit(f);
                right.visit(f);
            }
            Expr::Function { args, .. } => {
                for a in args {
                    a.visit(f);
                }
            }
            Expr::Like { expr, pattern, .. } => {
                expr.visit(f);
                pattern.visit(f);
            }
            Expr::InList { expr, list, .. } => {
                expr.visit(f);
                for e in list {
                    e.visit(f);
                }
            }
            Expr::IsNull { expr, .. } => expr.visit(f),
            Expr::Case {
                branches,
                else_expr,
            } => {
                for (c, v) in branches {
                    c.visit(f);
                    v.visit(f);
                }
                if let Some(e) = else_expr {
                    e.visit(f);
                }
            }
        }
    }

    /// Rewrites every subexpression bottom-up with `f`.
    pub fn rewrite(&self, f: &mut impl FnMut(Expr) -> Expr) -> Expr {
        let rebuilt = match self {
            Expr::Column(_) | Expr::Literal(_) | Expr::Param(_) => self.clone(),
            Expr::Unary { op, expr } => Expr::Unary {
                op: *op,
                expr: Box::new(expr.rewrite(f)),
            },
            Expr::Binary { left, op, right } => Expr::Binary {
                left: Box::new(left.rewrite(f)),
                op: *op,
                right: Box::new(right.rewrite(f)),
            },
            Expr::Function {
                name,
                args,
                distinct,
            } => Expr::Function {
                name: name.clone(),
                args: args.iter().map(|a| a.rewrite(f)).collect(),
                distinct: *distinct,
            },
            Expr::Like {
                expr,
                pattern,
                negated,
            } => Expr::Like {
                expr: Box::new(expr.rewrite(f)),
                pattern: Box::new(pattern.rewrite(f)),
                negated: *negated,
            },
            Expr::InList {
                expr,
                list,
                negated,
            } => Expr::InList {
                expr: Box::new(expr.rewrite(f)),
                list: list.iter().map(|e| e.rewrite(f)).collect(),
                negated: *negated,
            },
            Expr::IsNull { expr, negated } => Expr::IsNull {
                expr: Box::new(expr.rewrite(f)),
                negated: *negated,
            },
            Expr::Case {
                branches,
                else_expr,
            } => Expr::Case {
                branches: branches
                    .iter()
                    .map(|(c, v)| (c.rewrite(f), v.rewrite(f)))
                    .collect(),
                else_expr: else_expr.as_ref().map(|e| Box::new(e.rewrite(f))),
            },
        };
        f(rebuilt)
    }
}

/// Is `name` one of the aggregate functions?
pub fn is_aggregate_name(name: &str) -> bool {
    matches!(
        name.to_ascii_uppercase().as_str(),
        "COUNT" | "SUM" | "AVG" | "MIN" | "MAX"
    )
}

/// One item of the SELECT list.
#[derive(Debug, Clone, PartialEq)]
pub enum SelectItem {
    /// `*`
    Wildcard,
    /// `alias.*`
    QualifiedWildcard(String),
    /// `expr [AS alias]`
    Expr { expr: Expr, alias: Option<String> },
}

/// A table reference in FROM.
#[derive(Debug, Clone, PartialEq)]
pub enum TableRef {
    /// Base table or view, with optional alias.
    Table { name: String, alias: Option<String> },
    /// Explicit join.
    Join {
        left: Box<TableRef>,
        right: Box<TableRef>,
        kind: JoinKind,
        on: Option<Expr>,
    },
}

impl TableRef {
    pub fn table(name: &str) -> TableRef {
        TableRef::Table {
            name: mtc_types::normalize_ident(name),
            alias: None,
        }
    }

    /// All base-table names referenced (post-order).
    pub fn base_tables(&self) -> Vec<&str> {
        match self {
            TableRef::Table { name, .. } => vec![name.as_str()],
            TableRef::Join { left, right, .. } => {
                let mut v = left.base_tables();
                v.extend(right.base_tables());
                v
            }
        }
    }
}

/// Join kinds supported by the dialect.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum JoinKind {
    Inner,
    Left,
    Right,
    Full,
    Cross,
}

impl JoinKind {
    pub fn sql(self) -> &'static str {
        match self {
            JoinKind::Inner => "INNER JOIN",
            JoinKind::Left => "LEFT OUTER JOIN",
            JoinKind::Right => "RIGHT OUTER JOIN",
            JoinKind::Full => "FULL OUTER JOIN",
            JoinKind::Cross => "CROSS JOIN",
        }
    }
}

/// ORDER BY item.
#[derive(Debug, Clone, PartialEq)]
pub struct OrderByItem {
    pub expr: Expr,
    pub asc: bool,
}

/// A SELECT statement.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Select {
    pub distinct: bool,
    pub top: Option<u64>,
    pub projection: Vec<SelectItem>,
    pub from: Vec<TableRef>,
    pub selection: Option<Expr>,
    pub group_by: Vec<Expr>,
    pub having: Option<Expr>,
    pub order_by: Vec<OrderByItem>,
    /// `WITH FRESHNESS n SECONDS` bound (extension; see DESIGN.md §6).
    pub freshness_seconds: Option<u64>,
}

/// A column definition in CREATE TABLE.
#[derive(Debug, Clone, PartialEq)]
pub struct ColumnDef {
    pub name: String,
    pub dtype: DataType,
    pub not_null: bool,
}

/// Object-level permissions (simplified GRANT model).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Permission {
    Select,
    Insert,
    Update,
    Delete,
}

impl Permission {
    pub fn sql(self) -> &'static str {
        match self {
            Permission::Select => "SELECT",
            Permission::Insert => "INSERT",
            Permission::Update => "UPDATE",
            Permission::Delete => "DELETE",
        }
    }
}

/// Top-level statement.
#[derive(Debug, Clone, PartialEq)]
pub enum Statement {
    Select(Select),
    Insert {
        table: String,
        columns: Vec<String>,
        source: InsertSource,
    },
    Update {
        table: String,
        assignments: Vec<(String, Expr)>,
        selection: Option<Expr>,
    },
    Delete {
        table: String,
        selection: Option<Expr>,
    },
    CreateTable {
        name: String,
        columns: Vec<ColumnDef>,
        primary_key: Vec<String>,
    },
    CreateIndex {
        name: String,
        table: String,
        columns: Vec<String>,
        unique: bool,
    },
    CreateView {
        name: String,
        materialized: bool,
        query: Select,
    },
    DropTable {
        name: String,
    },
    DropView {
        name: String,
    },
    Grant {
        permission: Permission,
        object: String,
        principal: String,
    },
    /// `EXEC proc @a = 1, @b = 'x'`
    Exec {
        proc: String,
        args: Vec<(String, Expr)>,
    },
}

impl TableRef {
    /// Calls `f` on every join condition under this reference.
    fn visit_exprs<'a>(&'a self, f: &mut impl FnMut(&'a Expr)) {
        if let TableRef::Join {
            left, right, on, ..
        } = self
        {
            left.visit_exprs(f);
            right.visit_exprs(f);
            if let Some(on) = on {
                f(on);
            }
        }
    }
}

impl Select {
    /// Calls `f` on every top-level expression of the statement: select
    /// list, join conditions, WHERE, GROUP BY, HAVING, ORDER BY.
    pub fn visit_exprs<'a>(&'a self, f: &mut impl FnMut(&'a Expr)) {
        for item in &self.projection {
            if let SelectItem::Expr { expr, .. } = item {
                f(expr);
            }
        }
        for from in &self.from {
            from.visit_exprs(f);
        }
        self.selection.iter().for_each(&mut *f);
        self.group_by.iter().for_each(&mut *f);
        self.having.iter().for_each(&mut *f);
        for item in &self.order_by {
            f(&item.expr);
        }
    }
}

impl Statement {
    /// Calls `f` on every top-level expression the statement evaluates.
    pub fn visit_exprs<'a>(&'a self, f: &mut impl FnMut(&'a Expr)) {
        match self {
            Statement::Select(select) | Statement::CreateView { query: select, .. } => {
                select.visit_exprs(f)
            }
            Statement::Insert { source, .. } => match source {
                InsertSource::Values(rows) => rows.iter().flatten().for_each(f),
                InsertSource::Query(select) => select.visit_exprs(f),
            },
            Statement::Update {
                assignments,
                selection,
                ..
            } => {
                assignments.iter().for_each(|(_, value)| f(value));
                selection.iter().for_each(f);
            }
            Statement::Delete { selection, .. } => selection.iter().for_each(f),
            Statement::Exec { args, .. } => args.iter().for_each(|(_, value)| f(value)),
            Statement::CreateTable { .. }
            | Statement::CreateIndex { .. }
            | Statement::DropTable { .. }
            | Statement::DropView { .. }
            | Statement::Grant { .. } => {}
        }
    }

    /// The catalog object a DDL statement or a `GRANT` creates, drops or
    /// changes — for `CREATE INDEX`, the indexed table — and `None` for a
    /// statement that leaves the catalog as it is.
    pub fn catalog_object(&self) -> Option<&str> {
        match self {
            Statement::CreateTable { name, .. }
            | Statement::CreateView { name, .. }
            | Statement::DropTable { name }
            | Statement::DropView { name } => Some(name),
            Statement::CreateIndex { table, .. } => Some(table),
            Statement::Grant { object, .. } => Some(object),
            Statement::Select(_)
            | Statement::Insert { .. }
            | Statement::Update { .. }
            | Statement::Delete { .. }
            | Statement::Exec { .. } => None,
        }
    }
}

// ---------------------------------------------------------------------------
// Printer
// ---------------------------------------------------------------------------

fn fmt_value(v: &Value, f: &mut fmt::Formatter<'_>) -> fmt::Result {
    match v {
        Value::Str(s) => write!(f, "'{}'", s.replace('\'', "''")),
        Value::Timestamp(t) => write!(f, "{t}"),
        other => write!(f, "{other}"),
    }
}

impl fmt::Display for Expr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Expr::Column(c) => write!(f, "{c}"),
            Expr::Literal(v) => fmt_value(v, f),
            Expr::Param(p) => write!(f, "@{p}"),
            Expr::Unary { op, expr } => match op {
                UnaryOp::Not => write!(f, "NOT ({expr})"),
                UnaryOp::Neg => write!(f, "-({expr})"),
            },
            Expr::Binary { left, op, right } => {
                let needs_parens = |e: &Expr| {
                    match e {
                        Expr::Binary { op: inner, .. } => {
                            binding_power(*inner) < binding_power(*op)
                        }
                        // NOT and the postfix predicates bind looser than
                        // comparisons/arithmetic, so as their operands they
                        // must be parenthesized.
                        Expr::Unary {
                            op: UnaryOp::Not, ..
                        }
                        | Expr::InList { .. }
                        | Expr::Like { .. }
                        | Expr::IsNull { .. } => binding_power(*op) > 2,
                        _ => false,
                    }
                };
                if needs_parens(left) {
                    write!(f, "({left})")?;
                } else {
                    write!(f, "{left}")?;
                }
                write!(f, " {} ", op.sql())?;
                if needs_parens(right) || matches!(**right, Expr::Binary { op: r, .. } if binding_power(r) == binding_power(*op) && !is_associative(*op))
                {
                    write!(f, "({right})")
                } else {
                    write!(f, "{right}")
                }
            }
            Expr::Function {
                name,
                args,
                distinct,
            } => {
                write!(f, "{}(", name.to_ascii_uppercase())?;
                if *distinct {
                    f.write_str("DISTINCT ")?;
                }
                if args.is_empty() && is_aggregate_name(name) {
                    f.write_str("*")?;
                } else {
                    for (i, a) in args.iter().enumerate() {
                        if i > 0 {
                            f.write_str(", ")?;
                        }
                        write!(f, "{a}")?;
                    }
                }
                f.write_str(")")
            }
            Expr::Like {
                expr,
                pattern,
                negated,
            } => {
                fmt_postfix_lhs(expr, f)?;
                write!(f, " {}LIKE ", if *negated { "NOT " } else { "" })?;
                fmt_predicate_operand(pattern, f)
            }
            Expr::InList {
                expr,
                list,
                negated,
            } => {
                fmt_postfix_lhs(expr, f)?;
                write!(f, " {}IN (", if *negated { "NOT " } else { "" })?;
                for (i, e) in list.iter().enumerate() {
                    if i > 0 {
                        f.write_str(", ")?;
                    }
                    write!(f, "{e}")?;
                }
                f.write_str(")")
            }
            Expr::IsNull { expr, negated } => {
                fmt_postfix_lhs(expr, f)?;
                write!(f, " IS {}NULL", if *negated { "NOT " } else { "" })
            }
            Expr::Case {
                branches,
                else_expr,
            } => {
                f.write_str("CASE")?;
                for (cond, val) in branches {
                    write!(f, " WHEN {cond} THEN {val}")?;
                }
                if let Some(e) = else_expr {
                    write!(f, " ELSE {e}")?;
                }
                f.write_str(" END")
            }
        }
    }
}

/// Prints the left operand of a postfix predicate (IN/LIKE/IS NULL).
/// `NOT x` must be parenthesized there: NOT parses its operand at a binding
/// power that *includes* postfix predicates, so `NOT (a) LIKE …` would
/// re-associate as `NOT (a LIKE …)`.
fn fmt_postfix_lhs(e: &Expr, f: &mut fmt::Formatter<'_>) -> fmt::Result {
    // AND/OR re-associate into their right operand when a postfix predicate
    // follows, so they need parentheses here too.
    if matches!(
        e,
        Expr::Unary {
            op: UnaryOp::Not,
            ..
        } | Expr::Binary {
            op: BinOp::And | BinOp::Or,
            ..
        }
    ) {
        write!(f, "({e})")
    } else {
        write!(f, "{e}")
    }
}

/// Prints a LIKE pattern, parenthesizing anything the parser would not
/// re-associate into that position (AND/OR chains and other postfix
/// predicates).
fn fmt_predicate_operand(e: &Expr, f: &mut fmt::Formatter<'_>) -> fmt::Result {
    if is_bound_safe(e) {
        write!(f, "{e}")
    } else {
        write!(f, "({e})")
    }
}

/// Can `e` print unparenthesized as a LIKE pattern? A pattern re-parses
/// above AND's precedence with postfix predicates disabled, so any
/// predicate form (or AND/OR) *anywhere outside parentheses* breaks
/// re-association.
fn is_bound_safe(e: &Expr) -> bool {
    match e {
        // Leaves, and forms whose internals sit behind parens/keywords.
        Expr::Column(_)
        | Expr::Literal(_)
        | Expr::Param(_)
        | Expr::Function { .. }
        | Expr::Case { .. } => true,
        // Unary minus parses its operand above postfix precedence; NOT does
        // not — a trailing `NOT (x)` would swallow whatever postfix
        // predicate follows the pattern, so NOT must be parenthesized.
        Expr::Unary {
            op: UnaryOp::Neg, ..
        } => true,
        Expr::Unary {
            op: UnaryOp::Not, ..
        } => false,
        Expr::Binary {
            op: BinOp::And | BinOp::Or,
            ..
        } => false,
        Expr::Binary { left, right, .. } => is_bound_safe(left) && is_bound_safe(right),
        Expr::InList { .. } | Expr::Like { .. } | Expr::IsNull { .. } => false,
    }
}

/// Relative binding power for parenthesization while printing.
fn binding_power(op: BinOp) -> u8 {
    match op {
        BinOp::Or => 1,
        BinOp::And => 2,
        BinOp::Eq | BinOp::Neq | BinOp::Lt | BinOp::Le | BinOp::Gt | BinOp::Ge => 3,
        BinOp::Add | BinOp::Sub => 4,
        BinOp::Mul | BinOp::Div | BinOp::Mod => 5,
    }
}

fn is_associative(op: BinOp) -> bool {
    matches!(op, BinOp::And | BinOp::Or | BinOp::Add | BinOp::Mul)
}

impl fmt::Display for SelectItem {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SelectItem::Wildcard => f.write_str("*"),
            SelectItem::QualifiedWildcard(q) => write!(f, "{q}.*"),
            SelectItem::Expr { expr, alias } => {
                write!(f, "{expr}")?;
                if let Some(a) = alias {
                    write!(f, " AS {a}")?;
                }
                Ok(())
            }
        }
    }
}

impl fmt::Display for TableRef {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TableRef::Table { name, alias } => {
                write!(f, "{name}")?;
                if let Some(a) = alias {
                    write!(f, " AS {a}")?;
                }
                Ok(())
            }
            TableRef::Join {
                left,
                right,
                kind,
                on,
            } => {
                write!(f, "{left} {} {right}", kind.sql())?;
                if let Some(on) = on {
                    write!(f, " ON {on}")?;
                }
                Ok(())
            }
        }
    }
}

impl fmt::Display for Select {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("SELECT ")?;
        if self.distinct {
            f.write_str("DISTINCT ")?;
        }
        if let Some(n) = self.top {
            write!(f, "TOP {n} ")?;
        }
        for (i, item) in self.projection.iter().enumerate() {
            if i > 0 {
                f.write_str(", ")?;
            }
            write!(f, "{item}")?;
        }
        if !self.from.is_empty() {
            f.write_str(" FROM ")?;
            for (i, t) in self.from.iter().enumerate() {
                if i > 0 {
                    f.write_str(", ")?;
                }
                write!(f, "{t}")?;
            }
        }
        if let Some(w) = &self.selection {
            write!(f, " WHERE {w}")?;
        }
        if !self.group_by.is_empty() {
            f.write_str(" GROUP BY ")?;
            for (i, g) in self.group_by.iter().enumerate() {
                if i > 0 {
                    f.write_str(", ")?;
                }
                write!(f, "{g}")?;
            }
        }
        if let Some(h) = &self.having {
            write!(f, " HAVING {h}")?;
        }
        if !self.order_by.is_empty() {
            f.write_str(" ORDER BY ")?;
            for (i, o) in self.order_by.iter().enumerate() {
                if i > 0 {
                    f.write_str(", ")?;
                }
                write!(f, "{} {}", o.expr, if o.asc { "ASC" } else { "DESC" })?;
            }
        }
        if let Some(s) = self.freshness_seconds {
            write!(f, " WITH FRESHNESS {s} SECONDS")?;
        }
        Ok(())
    }
}

impl fmt::Display for Statement {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Statement::Select(s) => write!(f, "{s}"),
            Statement::Insert {
                table,
                columns,
                source,
            } => {
                write!(f, "INSERT INTO {table}")?;
                if !columns.is_empty() {
                    write!(f, " ({})", columns.join(", "))?;
                }
                match source {
                    InsertSource::Values(rows) => {
                        f.write_str(" VALUES ")?;
                        for (i, row) in rows.iter().enumerate() {
                            if i > 0 {
                                f.write_str(", ")?;
                            }
                            f.write_str("(")?;
                            for (j, e) in row.iter().enumerate() {
                                if j > 0 {
                                    f.write_str(", ")?;
                                }
                                write!(f, "{e}")?;
                            }
                            f.write_str(")")?;
                        }
                        Ok(())
                    }
                    InsertSource::Query(q) => write!(f, " {q}"),
                }
            }
            Statement::Update {
                table,
                assignments,
                selection,
            } => {
                write!(f, "UPDATE {table} SET ")?;
                for (i, (c, e)) in assignments.iter().enumerate() {
                    if i > 0 {
                        f.write_str(", ")?;
                    }
                    write!(f, "{c} = {e}")?;
                }
                if let Some(w) = selection {
                    write!(f, " WHERE {w}")?;
                }
                Ok(())
            }
            Statement::Delete { table, selection } => {
                write!(f, "DELETE FROM {table}")?;
                if let Some(w) = selection {
                    write!(f, " WHERE {w}")?;
                }
                Ok(())
            }
            Statement::CreateTable {
                name,
                columns,
                primary_key,
            } => {
                write!(f, "CREATE TABLE {name} (")?;
                for (i, c) in columns.iter().enumerate() {
                    if i > 0 {
                        f.write_str(", ")?;
                    }
                    write!(f, "{} {}", c.name, c.dtype.sql_name())?;
                    if c.not_null {
                        f.write_str(" NOT NULL")?;
                    }
                }
                if !primary_key.is_empty() {
                    write!(f, ", PRIMARY KEY ({})", primary_key.join(", "))?;
                }
                f.write_str(")")
            }
            Statement::CreateIndex {
                name,
                table,
                columns,
                unique,
            } => write!(
                f,
                "CREATE {}INDEX {name} ON {table} ({})",
                if *unique { "UNIQUE " } else { "" },
                columns.join(", ")
            ),
            Statement::CreateView {
                name,
                materialized,
                query,
            } => write!(
                f,
                "CREATE {}VIEW {name} AS {query}",
                if *materialized { "MATERIALIZED " } else { "" }
            ),
            Statement::DropTable { name } => write!(f, "DROP TABLE {name}"),
            Statement::DropView { name } => write!(f, "DROP VIEW {name}"),
            Statement::Grant {
                permission,
                object,
                principal,
            } => write!(f, "GRANT {} ON {object} TO {principal}", permission.sql()),
            Statement::Exec { proc, args } => {
                write!(f, "EXEC {proc}")?;
                for (i, (name, val)) in args.iter().enumerate() {
                    if i > 0 {
                        f.write_str(",")?;
                    }
                    write!(f, " @{name} = {val}")?;
                }
                Ok(())
            }
        }
    }
}

/// Source of INSERT rows.
#[derive(Debug, Clone, PartialEq)]
pub enum InsertSource {
    Values(Vec<Vec<Expr>>),
    Query(Select),
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn split_conjuncts_flattens_nested_ands() {
        let e = Expr::and(
            Expr::and(Expr::col("a"), Expr::col("b")),
            Expr::or(Expr::col("c"), Expr::col("d")),
        );
        let parts = e.split_conjuncts();
        assert_eq!(parts.len(), 3);
    }

    #[test]
    fn parameter_only_detection() {
        let guard = Expr::binary(Expr::param("cid"), BinOp::Le, Expr::lit(1000));
        assert!(guard.is_parameter_only());
        let not_guard = Expr::binary(Expr::col("cid"), BinOp::Le, Expr::param("cid"));
        assert!(!not_guard.is_parameter_only());
    }

    #[test]
    fn aggregate_detection() {
        let e = Expr::Function {
            name: "count".into(),
            args: vec![],
            distinct: false,
        };
        assert!(e.contains_aggregate());
        assert!(!Expr::col("x").contains_aggregate());
    }

    #[test]
    fn printer_parenthesizes_or_under_and() {
        let e = Expr::and(Expr::or(Expr::col("a"), Expr::col("b")), Expr::col("c"));
        assert_eq!(e.to_string(), "(a OR b) AND c");
    }

    #[test]
    fn printer_escapes_strings() {
        let e = Expr::lit("O'Neil");
        assert_eq!(e.to_string(), "'O''Neil'");
    }

    #[test]
    fn binop_negate_and_flip() {
        assert_eq!(BinOp::Lt.negate_comparison(), Some(BinOp::Ge));
        assert_eq!(BinOp::Le.flip(), BinOp::Ge);
        assert_eq!(BinOp::And.negate_comparison(), None);
    }

    #[test]
    fn rewrite_substitutes_params() {
        let e = Expr::binary(Expr::col("cid"), BinOp::Le, Expr::param("v"));
        let out = e.rewrite(&mut |node| match node {
            Expr::Param(_) => Expr::lit(42),
            other => other,
        });
        assert_eq!(out.to_string(), "cid <= 42");
    }

    #[test]
    fn count_star_prints_star() {
        let e = Expr::Function {
            name: "count".into(),
            args: vec![],
            distinct: false,
        };
        assert_eq!(e.to_string(), "COUNT(*)");
    }
}
