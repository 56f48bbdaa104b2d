//! Recursive-descent parser with Pratt-style expression parsing.

use mtc_types::{normalize_ident, DataType, Error, Result, Value};

use crate::ast::*;
use crate::lexer::Lexer;
use crate::token::Token;

/// Parses a single statement (trailing semicolon allowed).
pub fn parse_statement(sql: &str) -> Result<Statement> {
    let mut parser = Parser::new(sql)?;
    let stmt = parser.statement()?;
    parser.eat_if(&Token::Semicolon);
    parser.expect_eof()?;
    Ok(stmt)
}

/// Parses a semicolon-separated script into statements.
pub fn parse_statements(sql: &str) -> Result<Vec<Statement>> {
    let mut parser = Parser::new(sql)?;
    let mut out = Vec::new();
    loop {
        while parser.eat_if(&Token::Semicolon) {}
        if parser.at_eof() {
            return Ok(out);
        }
        out.push(parser.statement()?);
        if !parser.at_eof() && !parser.check(&Token::Semicolon) {
            return Err(parser.unexpected("`;` or end of input"));
        }
    }
}

/// Parses a standalone scalar expression (useful for tests and tools).
pub fn parse_expression(sql: &str) -> Result<Expr> {
    let mut parser = Parser::new(sql)?;
    let expr = parser.expression(0)?;
    parser.expect_eof()?;
    Ok(expr)
}

/// The value a numeric or string literal token denotes; `None` for every
/// other token. The one place a literal's text becomes a typed [`Value`]:
/// the parser builds `Expr::Literal` from it and auto-parameterization
/// ([`crate::lift`]) binds it, so `i_id = 5` compares against an `Int` and
/// `i_srp >= 0.25` against a `Float` whichever way the statement runs.
pub(crate) fn literal_value(token: &Token) -> Option<Value> {
    match token {
        Token::Int(i) => Some(Value::Int(*i)),
        Token::Float(x) => Some(Value::Float(*x)),
        Token::Str(s) => Some(Value::str(s.as_str())),
        _ => None,
    }
}

/// A numeric literal under a unary minus: `-1` is the literal `-1`, not a
/// unary expression. `None` for a value that is not numeric.
pub(crate) fn negated(value: &Value) -> Option<Value> {
    match value {
        Value::Int(i) => Some(Value::Int(-i)),
        Value::Float(x) => Some(Value::Float(-x)),
        _ => None,
    }
}

/// `expr [NOT] BETWEEN low AND high` as the SQL standard defines it:
/// `expr >= low AND expr <= high`, or `expr < low OR expr > high` when
/// negated. BETWEEN has no node of its own, so every layer below the parser
/// sees the comparisons it means (three-valued logic, seek bounds, view
/// matching and estimates included).
fn between(expr: Expr, low: Expr, high: Expr, negated: bool) -> Expr {
    if negated {
        Expr::or(
            Expr::binary(expr.clone(), BinOp::Lt, low),
            Expr::binary(expr, BinOp::Gt, high),
        )
    } else {
        Expr::and(
            Expr::binary(expr.clone(), BinOp::Ge, low),
            Expr::binary(expr, BinOp::Le, high),
        )
    }
}

/// The parser state: a token buffer and a cursor.
pub struct Parser {
    tokens: Vec<Token>,
    pos: usize,
}

impl Parser {
    pub fn new(sql: &str) -> Result<Parser> {
        Ok(Parser {
            tokens: Lexer::tokenize(sql)?,
            pos: 0,
        })
    }

    fn peek(&self) -> &Token {
        &self.tokens[self.pos.min(self.tokens.len() - 1)]
    }

    fn peek_ahead(&self, n: usize) -> &Token {
        &self.tokens[(self.pos + n).min(self.tokens.len() - 1)]
    }

    fn bump(&mut self) -> Token {
        let t = self.peek().clone();
        if self.pos < self.tokens.len() - 1 {
            self.pos += 1;
        }
        t
    }

    fn at_eof(&self) -> bool {
        matches!(self.peek(), Token::Eof)
    }

    fn check(&self, tok: &Token) -> bool {
        self.peek() == tok
    }

    fn check_kw(&self, kw: &str) -> bool {
        self.peek().is_keyword(kw)
    }

    fn eat_if(&mut self, tok: &Token) -> bool {
        if self.check(tok) {
            self.bump();
            true
        } else {
            false
        }
    }

    fn eat_kw(&mut self, kw: &str) -> bool {
        if self.check_kw(kw) {
            self.bump();
            true
        } else {
            false
        }
    }

    fn expect(&mut self, tok: &Token) -> Result<()> {
        if self.eat_if(tok) {
            Ok(())
        } else {
            Err(self.unexpected(&format!("`{tok}`")))
        }
    }

    fn expect_kw(&mut self, kw: &str) -> Result<()> {
        if self.eat_kw(kw) {
            Ok(())
        } else {
            Err(self.unexpected(&format!("`{kw}`")))
        }
    }

    fn expect_eof(&mut self) -> Result<()> {
        if self.at_eof() {
            Ok(())
        } else {
            Err(self.unexpected("end of input"))
        }
    }

    fn unexpected(&self, wanted: &str) -> Error {
        Error::parse(format!("expected {wanted}, found `{}`", self.peek()))
    }

    /// Identifier (plain or keyword-adjacent) normalized to lower case.
    fn ident(&mut self) -> Result<String> {
        match self.bump() {
            Token::Ident(s) => Ok(normalize_ident(&s)),
            // Allow some non-reserved keywords to double as identifiers where
            // they commonly appear as column names (e.g. `key`, `top`).
            Token::Keyword(k @ ("KEY" | "TOP" | "INDEX" | "SET")) => Ok(normalize_ident(k)),
            other => Err(Error::parse(format!(
                "expected identifier, found `{other}`"
            ))),
        }
    }

    /// Possibly-qualified name `a` or `a.b` (joined with a period).
    fn qualified_name(&mut self) -> Result<String> {
        let mut name = self.ident()?;
        while self.eat_if(&Token::Period) {
            name.push('.');
            name.push_str(&self.ident()?);
        }
        Ok(name)
    }

    // -- statements ---------------------------------------------------------

    pub fn statement(&mut self) -> Result<Statement> {
        match self.peek() {
            Token::Keyword("SELECT") => Ok(Statement::Select(self.select()?)),
            Token::Keyword("INSERT") => self.insert(),
            Token::Keyword("UPDATE") => self.update(),
            Token::Keyword("DELETE") => self.delete(),
            Token::Keyword("CREATE") => self.create(),
            Token::Keyword("DROP") => self.drop(),
            Token::Keyword("GRANT") => self.grant(),
            Token::Keyword("EXEC") => self.exec(),
            _ => Err(self.unexpected("a statement")),
        }
    }

    pub fn select(&mut self) -> Result<Select> {
        self.expect_kw("SELECT")?;
        let distinct = if self.eat_kw("DISTINCT") {
            true
        } else {
            self.eat_kw("ALL");
            false
        };
        let top = if self.eat_kw("TOP") {
            match self.bump() {
                Token::Int(n) if n >= 0 => Some(n as u64),
                other => return Err(Error::parse(format!("expected TOP count, found `{other}`"))),
            }
        } else {
            None
        };

        let mut projection = vec![self.select_item()?];
        while self.eat_if(&Token::Comma) {
            projection.push(self.select_item()?);
        }

        let mut from = Vec::new();
        if self.eat_kw("FROM") {
            from.push(self.table_ref()?);
            while self.eat_if(&Token::Comma) {
                from.push(self.table_ref()?);
            }
        }

        let selection = if self.eat_kw("WHERE") {
            Some(self.expression(0)?)
        } else {
            None
        };

        let mut group_by = Vec::new();
        if self.eat_kw("GROUP") {
            self.expect_kw("BY")?;
            group_by.push(self.expression(0)?);
            while self.eat_if(&Token::Comma) {
                group_by.push(self.expression(0)?);
            }
        }

        let having = if self.eat_kw("HAVING") {
            Some(self.expression(0)?)
        } else {
            None
        };

        let mut order_by = Vec::new();
        if self.eat_kw("ORDER") {
            self.expect_kw("BY")?;
            loop {
                let expr = self.expression(0)?;
                let asc = if self.eat_kw("DESC") {
                    false
                } else {
                    self.eat_kw("ASC");
                    true
                };
                order_by.push(OrderByItem { expr, asc });
                if !self.eat_if(&Token::Comma) {
                    break;
                }
            }
        }

        let freshness_seconds = if self.check_kw("WITH") && self.peek_ahead(1).is_keyword("FRESHNESS")
        {
            self.bump();
            self.bump();
            let n = match self.bump() {
                Token::Int(n) if n >= 0 => n as u64,
                other => {
                    return Err(Error::parse(format!(
                        "expected freshness bound, found `{other}`"
                    )))
                }
            };
            self.expect_kw("SECONDS")?;
            Some(n)
        } else {
            None
        };

        Ok(Select {
            distinct,
            top,
            projection,
            from,
            selection,
            group_by,
            having,
            order_by,
            freshness_seconds,
        })
    }

    fn select_item(&mut self) -> Result<SelectItem> {
        if self.eat_if(&Token::Star) {
            return Ok(SelectItem::Wildcard);
        }
        // `alias.*`
        if let (Token::Ident(_), Token::Period, Token::Star) =
            (self.peek(), self.peek_ahead(1), self.peek_ahead(2))
        {
            let q = self.ident()?;
            self.bump(); // .
            self.bump(); // *
            return Ok(SelectItem::QualifiedWildcard(q));
        }
        let expr = self.expression(0)?;
        let alias = if self.eat_kw("AS") {
            Some(self.ident()?)
        } else if let Token::Ident(_) = self.peek() {
            // Implicit alias `SELECT expr name` — only accept plain idents.
            Some(self.ident()?)
        } else {
            None
        };
        Ok(SelectItem::Expr { expr, alias })
    }

    fn table_ref(&mut self) -> Result<TableRef> {
        let mut left = self.table_factor()?;
        loop {
            let kind = if self.eat_kw("CROSS") {
                self.expect_kw("JOIN")?;
                JoinKind::Cross
            } else if self.eat_kw("INNER") {
                self.expect_kw("JOIN")?;
                JoinKind::Inner
            } else if self.eat_kw("LEFT") {
                self.eat_kw("OUTER");
                self.expect_kw("JOIN")?;
                JoinKind::Left
            } else if self.eat_kw("RIGHT") {
                self.eat_kw("OUTER");
                self.expect_kw("JOIN")?;
                JoinKind::Right
            } else if self.eat_kw("FULL") {
                self.eat_kw("OUTER");
                self.expect_kw("JOIN")?;
                JoinKind::Full
            } else if self.eat_kw("JOIN") {
                JoinKind::Inner
            } else {
                return Ok(left);
            };
            let right = self.table_factor()?;
            let on = if kind == JoinKind::Cross {
                None
            } else {
                self.expect_kw("ON")?;
                Some(self.expression(0)?)
            };
            left = TableRef::Join {
                left: Box::new(left),
                right: Box::new(right),
                kind,
                on,
            };
        }
    }

    fn table_factor(&mut self) -> Result<TableRef> {
        let name = self.qualified_name()?;
        let alias = if self.eat_kw("AS") {
            Some(self.ident()?)
        } else if let Token::Ident(_) = self.peek() {
            Some(self.ident()?)
        } else {
            None
        };
        Ok(TableRef::Table { name, alias })
    }

    fn insert(&mut self) -> Result<Statement> {
        self.expect_kw("INSERT")?;
        self.expect_kw("INTO")?;
        let table = self.qualified_name()?;
        let mut columns = Vec::new();
        if self.eat_if(&Token::LParen) {
            columns.push(self.ident()?);
            while self.eat_if(&Token::Comma) {
                columns.push(self.ident()?);
            }
            self.expect(&Token::RParen)?;
        }
        let source = if self.eat_kw("VALUES") {
            let mut rows = Vec::new();
            loop {
                self.expect(&Token::LParen)?;
                let mut row = vec![self.expression(0)?];
                while self.eat_if(&Token::Comma) {
                    row.push(self.expression(0)?);
                }
                self.expect(&Token::RParen)?;
                rows.push(row);
                if !self.eat_if(&Token::Comma) {
                    break;
                }
            }
            InsertSource::Values(rows)
        } else if self.check_kw("SELECT") {
            InsertSource::Query(self.select()?)
        } else {
            return Err(self.unexpected("`VALUES` or `SELECT`"));
        };
        Ok(Statement::Insert {
            table,
            columns,
            source,
        })
    }

    fn update(&mut self) -> Result<Statement> {
        self.expect_kw("UPDATE")?;
        let table = self.qualified_name()?;
        self.expect_kw("SET")?;
        let mut assignments = Vec::new();
        loop {
            let col = self.ident()?;
            self.expect(&Token::Eq)?;
            let val = self.expression(0)?;
            assignments.push((col, val));
            if !self.eat_if(&Token::Comma) {
                break;
            }
        }
        let selection = if self.eat_kw("WHERE") {
            Some(self.expression(0)?)
        } else {
            None
        };
        Ok(Statement::Update {
            table,
            assignments,
            selection,
        })
    }

    fn delete(&mut self) -> Result<Statement> {
        self.expect_kw("DELETE")?;
        self.expect_kw("FROM")?;
        let table = self.qualified_name()?;
        let selection = if self.eat_kw("WHERE") {
            Some(self.expression(0)?)
        } else {
            None
        };
        Ok(Statement::Delete { table, selection })
    }

    fn create(&mut self) -> Result<Statement> {
        self.expect_kw("CREATE")?;
        if self.eat_kw("TABLE") {
            return self.create_table();
        }
        let unique = self.eat_kw("UNIQUE");
        if self.eat_kw("INDEX") {
            let name = self.ident()?;
            self.expect_kw("ON")?;
            let table = self.qualified_name()?;
            self.expect(&Token::LParen)?;
            let mut columns = vec![self.ident()?];
            while self.eat_if(&Token::Comma) {
                columns.push(self.ident()?);
            }
            self.expect(&Token::RParen)?;
            return Ok(Statement::CreateIndex {
                name,
                table,
                columns,
                unique,
            });
        }
        if unique {
            return Err(self.unexpected("`INDEX` after `UNIQUE`"));
        }
        let materialized = self.eat_kw("MATERIALIZED");
        if self.eat_kw("VIEW") {
            let name = self.ident()?;
            self.expect_kw("AS")?;
            let query = self.select()?;
            return Ok(Statement::CreateView {
                name,
                materialized,
                query,
            });
        }
        Err(self.unexpected("`TABLE`, `INDEX` or `VIEW`"))
    }

    fn create_table(&mut self) -> Result<Statement> {
        let name = self.qualified_name()?;
        self.expect(&Token::LParen)?;
        let mut columns = Vec::new();
        let mut primary_key = Vec::new();
        loop {
            if self.eat_kw("PRIMARY") {
                self.expect_kw("KEY")?;
                self.expect(&Token::LParen)?;
                primary_key.push(self.ident()?);
                while self.eat_if(&Token::Comma) {
                    primary_key.push(self.ident()?);
                }
                self.expect(&Token::RParen)?;
            } else {
                let col_name = self.ident()?;
                let type_name = match self.bump() {
                    Token::Ident(s) => s,
                    Token::Keyword(k) => k.to_string(),
                    other => {
                        return Err(Error::parse(format!("expected type, found `{other}`")))
                    }
                };
                let dtype = DataType::parse(&type_name)?;
                // Optional length like VARCHAR(60) — parsed and ignored.
                if self.eat_if(&Token::LParen) {
                    self.bump();
                    self.expect(&Token::RParen)?;
                }
                let not_null = if self.eat_kw("NOT") {
                    self.expect_kw("NULL")?;
                    true
                } else {
                    self.eat_kw("NULL");
                    false
                };
                // `PRIMARY KEY` directly on the column.
                if self.eat_kw("PRIMARY") {
                    self.expect_kw("KEY")?;
                    primary_key.push(col_name.clone());
                }
                columns.push(ColumnDef {
                    name: col_name,
                    dtype,
                    not_null,
                });
            }
            if !self.eat_if(&Token::Comma) {
                break;
            }
        }
        self.expect(&Token::RParen)?;
        Ok(Statement::CreateTable {
            name,
            columns,
            primary_key,
        })
    }

    fn drop(&mut self) -> Result<Statement> {
        self.expect_kw("DROP")?;
        if self.eat_kw("TABLE") {
            Ok(Statement::DropTable {
                name: self.qualified_name()?,
            })
        } else if self.eat_kw("VIEW") {
            Ok(Statement::DropView {
                name: self.qualified_name()?,
            })
        } else {
            Err(self.unexpected("`TABLE` or `VIEW`"))
        }
    }

    fn grant(&mut self) -> Result<Statement> {
        self.expect_kw("GRANT")?;
        let permission = match self.bump() {
            Token::Keyword("SELECT") => Permission::Select,
            Token::Keyword("INSERT") => Permission::Insert,
            Token::Keyword("UPDATE") => Permission::Update,
            Token::Keyword("DELETE") => Permission::Delete,
            other => {
                return Err(Error::parse(format!(
                    "expected permission, found `{other}`"
                )))
            }
        };
        self.expect_kw("ON")?;
        let object = self.qualified_name()?;
        self.expect_kw("TO")?;
        let principal = self.ident()?;
        Ok(Statement::Grant {
            permission,
            object,
            principal,
        })
    }

    fn exec(&mut self) -> Result<Statement> {
        self.expect_kw("EXEC")?;
        let proc = self.qualified_name()?;
        let mut args = Vec::new();
        if let Token::Param(_) = self.peek() {
            loop {
                let name = match self.bump() {
                    Token::Param(p) => normalize_ident(&p),
                    other => {
                        return Err(Error::parse(format!(
                            "expected @parameter, found `{other}`"
                        )))
                    }
                };
                self.expect(&Token::Eq)?;
                let value = self.expression(0)?;
                args.push((name, value));
                if !self.eat_if(&Token::Comma) {
                    break;
                }
            }
        }
        Ok(Statement::Exec { proc, args })
    }

    // -- expressions --------------------------------------------------------

    /// Pratt parser. `min_bp` is the minimum binding power to continue.
    pub fn expression(&mut self, min_bp: u8) -> Result<Expr> {
        let mut lhs = self.prefix()?;
        loop {
            // Postfix-ish predicates first: IS [NOT] NULL, [NOT] BETWEEN/IN/LIKE.
            // They bind tighter than AND/OR but looser than comparisons.
            const PREDICATE_BP: u8 = 5;
            if min_bp <= PREDICATE_BP {
                if self.check_kw("IS") {
                    self.bump();
                    let negated = self.eat_kw("NOT");
                    self.expect_kw("NULL")?;
                    lhs = Expr::IsNull {
                        expr: Box::new(lhs),
                        negated,
                    };
                    continue;
                }
                let negated = if self.check_kw("NOT")
                    && (self.peek_ahead(1).is_keyword("BETWEEN")
                        || self.peek_ahead(1).is_keyword("IN")
                        || self.peek_ahead(1).is_keyword("LIKE"))
                {
                    self.bump();
                    true
                } else {
                    false
                };
                if self.eat_kw("BETWEEN") {
                    // The inner bounds must not consume AND, so parse them
                    // at a binding power above AND's.
                    let low = self.expression(PREDICATE_BP + 1)?;
                    self.expect_kw("AND")?;
                    let high = self.expression(PREDICATE_BP + 1)?;
                    lhs = between(lhs, low, high, negated);
                    continue;
                }
                if self.eat_kw("IN") {
                    self.expect(&Token::LParen)?;
                    let mut list = vec![self.expression(0)?];
                    while self.eat_if(&Token::Comma) {
                        list.push(self.expression(0)?);
                    }
                    self.expect(&Token::RParen)?;
                    lhs = Expr::InList {
                        expr: Box::new(lhs),
                        list,
                        negated,
                    };
                    continue;
                }
                if self.eat_kw("LIKE") {
                    let pattern = self.expression(PREDICATE_BP + 1)?;
                    lhs = Expr::Like {
                        expr: Box::new(lhs),
                        pattern: Box::new(pattern),
                        negated,
                    };
                    continue;
                }
                if negated {
                    return Err(self.unexpected("`BETWEEN`, `IN` or `LIKE` after `NOT`"));
                }
            }

            let Some((op, l_bp, r_bp)) = self.peek_binop() else {
                return Ok(lhs);
            };
            if l_bp < min_bp {
                return Ok(lhs);
            }
            self.bump();
            let rhs = self.expression(r_bp)?;
            lhs = Expr::binary(lhs, op, rhs);
        }
    }

    /// (operator, left bp, right bp) if the next token is a binary operator.
    fn peek_binop(&self) -> Option<(BinOp, u8, u8)> {
        let op = match self.peek() {
            Token::Keyword("OR") => BinOp::Or,
            Token::Keyword("AND") => BinOp::And,
            Token::Eq => BinOp::Eq,
            Token::Neq => BinOp::Neq,
            Token::Lt => BinOp::Lt,
            Token::Le => BinOp::Le,
            Token::Gt => BinOp::Gt,
            Token::Ge => BinOp::Ge,
            Token::Plus => BinOp::Add,
            Token::Minus => BinOp::Sub,
            Token::Star => BinOp::Mul,
            Token::Slash => BinOp::Div,
            Token::Percent => BinOp::Mod,
            _ => return None,
        };
        let (l, r) = match op {
            BinOp::Or => (1, 2),
            BinOp::And => (3, 4),
            BinOp::Eq | BinOp::Neq | BinOp::Lt | BinOp::Le | BinOp::Gt | BinOp::Ge => (7, 8),
            BinOp::Add | BinOp::Sub => (9, 10),
            BinOp::Mul | BinOp::Div | BinOp::Mod => (11, 12),
        };
        Some((op, l, r))
    }

    fn prefix(&mut self) -> Result<Expr> {
        let token = self.bump();
        if let Some(value) = literal_value(&token) {
            return Ok(Expr::Literal(value));
        }
        match token {
            Token::Param(p) => Ok(Expr::Param(normalize_ident(&p))),
            Token::Keyword("NULL") => Ok(Expr::Literal(Value::Null)),
            Token::Keyword("TRUE") => Ok(Expr::Literal(Value::Bool(true))),
            Token::Keyword("FALSE") => Ok(Expr::Literal(Value::Bool(false))),
            Token::Keyword("NOT") => {
                // NOT binds looser than comparisons, tighter than AND.
                let inner = self.expression(5)?;
                Ok(Expr::not(inner))
            }
            Token::Minus => {
                // Unary minus binds tighter than any binary operator.
                let inner = self.expression(12)?;
                // Fold negated numeric literals so `-1` is a literal, not a
                // unary expression (keeps printed trees canonical).
                if let Expr::Literal(value) = &inner {
                    if let Some(folded) = negated(value) {
                        return Ok(Expr::Literal(folded));
                    }
                }
                Ok(Expr::Unary {
                    op: UnaryOp::Neg,
                    expr: Box::new(inner),
                })
            }
            Token::LParen => {
                let inner = self.expression(0)?;
                self.expect(&Token::RParen)?;
                Ok(inner)
            }
            Token::Keyword("CASE") => {
                let mut branches = Vec::new();
                while self.eat_kw("WHEN") {
                    let cond = self.expression(0)?;
                    self.expect_kw("THEN")?;
                    let val = self.expression(0)?;
                    branches.push((cond, val));
                }
                if branches.is_empty() {
                    return Err(self.unexpected("`WHEN`"));
                }
                let else_expr = if self.eat_kw("ELSE") {
                    Some(Box::new(self.expression(0)?))
                } else {
                    None
                };
                self.expect_kw("END")?;
                Ok(Expr::Case {
                    branches,
                    else_expr,
                })
            }
            Token::Ident(name) => {
                // Function call?
                if self.check(&Token::LParen) {
                    self.bump();
                    let distinct = self.eat_kw("DISTINCT");
                    let mut args = Vec::new();
                    if self.eat_if(&Token::Star) {
                        // COUNT(*) — empty argument list by convention.
                    } else if !self.check(&Token::RParen) {
                        args.push(self.expression(0)?);
                        while self.eat_if(&Token::Comma) {
                            args.push(self.expression(0)?);
                        }
                    }
                    self.expect(&Token::RParen)?;
                    return Ok(Expr::Function {
                        name: normalize_ident(&name),
                        args,
                        distinct,
                    });
                }
                // Qualified column `a.b`.
                let mut full = normalize_ident(&name);
                while self.check(&Token::Period) {
                    self.bump();
                    full.push('.');
                    full.push_str(&self.ident()?);
                }
                Ok(Expr::Column(full))
            }
            other => Err(Error::parse(format!(
                "expected expression, found `{other}`"
            ))),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn expr(s: &str) -> Expr {
        parse_expression(s).unwrap()
    }

    #[test]
    fn precedence_and_or() {
        assert_eq!(expr("a = 1 OR b = 2 AND c = 3").to_string(), "a = 1 OR b = 2 AND c = 3");
        // AND binds tighter: the OR is at the root.
        if let Expr::Binary { op, .. } = expr("a = 1 OR b = 2 AND c = 3") {
            assert_eq!(op, BinOp::Or);
        } else {
            panic!("expected binary");
        }
    }

    #[test]
    fn arithmetic_precedence() {
        assert_eq!(expr("1 + 2 * 3").to_string(), "1 + 2 * 3");
        if let Expr::Binary { op, .. } = expr("1 + 2 * 3") {
            assert_eq!(op, BinOp::Add);
        } else {
            panic!();
        }
        assert_eq!(expr("(1 + 2) * 3").to_string(), "(1 + 2) * 3");
    }

    #[test]
    fn between_does_not_eat_outer_and() {
        let e = expr("x BETWEEN 1 AND 10 AND y = 2");
        assert_eq!(e.to_string(), "x >= 1 AND x <= 10 AND y = 2");
        if let Expr::Binary { op: BinOp::And, left, .. } = &e {
            assert_eq!(left.to_string(), "x >= 1 AND x <= 10");
        } else {
            panic!("expected AND at root, got {e:?}");
        }
    }

    #[test]
    fn not_like_in_null() {
        assert!(matches!(expr("a NOT LIKE 'x%'"), Expr::Like { negated: true, .. }));
        assert!(matches!(expr("a NOT IN (1, 2)"), Expr::InList { negated: true, .. }));
        assert!(matches!(expr("a IS NOT NULL"), Expr::IsNull { negated: true, .. }));
        assert!(matches!(expr("a IS NULL"), Expr::IsNull { negated: false, .. }));
    }

    #[test]
    fn not_binds_looser_than_comparison() {
        // NOT a = 1  parses as  NOT (a = 1)
        let e = expr("NOT a = 1");
        assert!(matches!(e, Expr::Unary { op: UnaryOp::Not, .. }));
    }

    #[test]
    fn functions_and_count_star() {
        assert_eq!(expr("COUNT(*)").to_string(), "COUNT(*)");
        assert_eq!(expr("sum(qty * price)").to_string(), "SUM(qty * price)");
        assert_eq!(
            expr("count(DISTINCT ckey)").to_string(),
            "COUNT(DISTINCT ckey)"
        );
    }

    #[test]
    fn qualified_columns() {
        assert_eq!(expr("c.ckey").to_string(), "c.ckey");
        assert!(matches!(expr("C.CKey"), Expr::Column(c) if c == "c.ckey"));
    }

    #[test]
    fn select_full_clause_order() {
        let s = parse_statement(
            "SELECT TOP 5 a, COUNT(*) AS n FROM t WHERE b > 0 GROUP BY a HAVING COUNT(*) > 1 ORDER BY n DESC",
        )
        .unwrap();
        let Statement::Select(sel) = s else { panic!() };
        assert_eq!(sel.top, Some(5));
        assert_eq!(sel.projection.len(), 2);
        assert_eq!(sel.group_by.len(), 1);
        assert!(sel.having.is_some());
        assert_eq!(sel.order_by.len(), 1);
        assert!(!sel.order_by[0].asc);
    }

    #[test]
    fn implicit_and_explicit_joins() {
        let s = parse_statement(
            "SELECT * FROM a, b INNER JOIN c ON b.x = c.x LEFT JOIN d ON c.y = d.y",
        )
        .unwrap();
        let Statement::Select(sel) = s else { panic!() };
        assert_eq!(sel.from.len(), 2);
        assert!(matches!(sel.from[1], TableRef::Join { .. }));
    }

    #[test]
    fn freshness_clause() {
        let s = parse_statement("SELECT a FROM t WITH FRESHNESS 30 SECONDS").unwrap();
        let Statement::Select(sel) = s else { panic!() };
        assert_eq!(sel.freshness_seconds, Some(30));
    }

    #[test]
    fn insert_forms() {
        let s = parse_statement("INSERT INTO t (a, b) VALUES (1, 'x'), (2, 'y')").unwrap();
        let Statement::Insert { columns, source, .. } = s else { panic!() };
        assert_eq!(columns, vec!["a", "b"]);
        assert!(matches!(source, InsertSource::Values(rows) if rows.len() == 2));

        let s = parse_statement("INSERT INTO t SELECT a, b FROM u").unwrap();
        assert!(matches!(
            s,
            Statement::Insert {
                source: InsertSource::Query(_),
                ..
            }
        ));
    }

    #[test]
    fn create_table_with_keys() {
        let s = parse_statement(
            "CREATE TABLE item (i_id INT NOT NULL PRIMARY KEY, i_title VARCHAR(60), i_cost FLOAT)",
        )
        .unwrap();
        let Statement::CreateTable { columns, primary_key, .. } = s else { panic!() };
        assert_eq!(columns.len(), 3);
        assert_eq!(primary_key, vec!["i_id"]);
        assert!(columns[0].not_null);
        assert_eq!(columns[1].dtype, DataType::Str);
    }

    #[test]
    fn exec_with_args() {
        let s = parse_statement("EXEC getName @id = 7, @kind = 'x'").unwrap();
        let Statement::Exec { proc, args } = s else { panic!() };
        assert_eq!(proc, "getname");
        assert_eq!(args.len(), 2);
        assert_eq!(args[0].0, "id");
    }

    #[test]
    fn statements_script() {
        let script = "CREATE TABLE t (a INT); INSERT INTO t VALUES (1); SELECT * FROM t;";
        let stmts = parse_statements(script).unwrap();
        assert_eq!(stmts.len(), 3);
    }

    #[test]
    fn error_messages_name_the_offender() {
        let err = parse_statement("SELECT FROM t").unwrap_err();
        assert!(err.to_string().contains("FROM"), "{err}");
        let err = parse_statement("SELEC 1").unwrap_err();
        assert!(err.to_string().contains("statement"), "{err}");
    }

    #[test]
    fn linked_server_four_part_names() {
        // The paper's example: PartServer.catdb.dbo.part
        let s = parse_statement("SELECT * FROM PartServer.catdb.dbo.part").unwrap();
        let Statement::Select(sel) = s else { panic!() };
        assert!(matches!(
            &sel.from[0],
            TableRef::Table { name, .. } if name == "partserver.catdb.dbo.part"
        ));
    }
}
