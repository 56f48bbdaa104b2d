//! Token definitions for the SQL lexer.

use std::fmt;

/// A lexical token.
///
/// Keywords are recognized case-insensitively by the lexer and carried as
/// `Keyword` with their canonical upper-case spelling; identifiers are
/// normalized to lower case at parse time.
#[derive(Debug, Clone, PartialEq)]
pub enum Token {
    /// Unquoted identifier (table, column, alias...), original spelling.
    Ident(String),
    /// Recognized keyword, canonical upper-case spelling.
    Keyword(&'static str),
    /// Integer literal.
    Int(i64),
    /// Floating-point literal.
    Float(f64),
    /// Single-quoted string literal (quotes stripped, `''` unescaped).
    Str(String),
    /// Run-time parameter `@name` (name without the `@`).
    Param(String),
    Comma,
    Period,
    LParen,
    RParen,
    Plus,
    Minus,
    Star,
    Slash,
    Percent,
    Eq,
    /// `<>` or `!=`
    Neq,
    Lt,
    Le,
    Gt,
    Ge,
    /// Statement separator.
    Semicolon,
    /// End of input sentinel.
    Eof,
}

impl Token {
    pub fn is_keyword(&self, kw: &str) -> bool {
        matches!(self, Token::Keyword(k) if *k == kw)
    }
}

impl fmt::Display for Token {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Token::Ident(s) => write!(f, "{s}"),
            Token::Keyword(k) => write!(f, "{k}"),
            Token::Int(i) => write!(f, "{i}"),
            Token::Float(x) => write!(f, "{x}"),
            Token::Str(s) => write!(f, "'{s}'"),
            Token::Param(p) => write!(f, "@{p}"),
            Token::Comma => f.write_str(","),
            Token::Period => f.write_str("."),
            Token::LParen => f.write_str("("),
            Token::RParen => f.write_str(")"),
            Token::Plus => f.write_str("+"),
            Token::Minus => f.write_str("-"),
            Token::Star => f.write_str("*"),
            Token::Slash => f.write_str("/"),
            Token::Percent => f.write_str("%"),
            Token::Eq => f.write_str("="),
            Token::Neq => f.write_str("<>"),
            Token::Lt => f.write_str("<"),
            Token::Le => f.write_str("<="),
            Token::Gt => f.write_str(">"),
            Token::Ge => f.write_str(">="),
            Token::Semicolon => f.write_str(";"),
            Token::Eof => f.write_str("<eof>"),
        }
    }
}

/// All keywords of the dialect. Sorted, upper case.
pub const KEYWORDS: &[&str] = &[
    "ALL", "AND", "AS", "ASC", "BETWEEN", "BY", "CASE", "CREATE", "CROSS", "DELETE", "DESC",
    "DISTINCT", "DROP", "ELSE", "END", "EXEC", "EXISTS", "FALSE", "FRESHNESS", "FROM", "FULL",
    "GRANT", "GROUP", "HAVING", "IN", "INDEX", "INNER", "INSERT", "INTO", "IS", "JOIN", "KEY",
    "LEFT", "LIKE", "MATERIALIZED", "NOT", "NULL", "ON", "OR", "ORDER", "OUTER", "PRIMARY",
    "RIGHT", "SECONDS", "SELECT", "SET", "TABLE", "THEN", "TO", "TOP", "TRUE", "UNION", "UNIQUE",
    "UPDATE", "VALUES", "VIEW", "WHEN", "WHERE", "WITH",
];

/// Looks up the canonical spelling if `word` is a keyword. Compares against
/// the upper-cased bytes of `word` in place: the lexer asks for every word of
/// every statement, so nothing is allocated.
pub fn keyword_of(word: &str) -> Option<&'static str> {
    let upper = || word.bytes().map(|b| b.to_ascii_uppercase());
    KEYWORDS
        .binary_search_by(|kw| kw.bytes().cmp(upper()))
        .ok()
        .map(|i| KEYWORDS[i])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn keywords_are_sorted_for_binary_search() {
        let mut sorted = KEYWORDS.to_vec();
        sorted.sort_unstable();
        assert_eq!(sorted, KEYWORDS, "KEYWORDS must stay sorted");
    }

    #[test]
    fn keyword_lookup_is_case_insensitive() {
        assert_eq!(keyword_of("select"), Some("SELECT"));
        assert_eq!(keyword_of("Select"), Some("SELECT"));
        assert_eq!(keyword_of("customer"), None);
    }

    #[test]
    fn token_display() {
        assert_eq!(Token::Param("cid".into()).to_string(), "@cid");
        assert_eq!(Token::Str("o'neil".into()).to_string(), "'o'neil'");
        assert_eq!(Token::Neq.to_string(), "<>");
    }
}
