//! Hand-written SQL lexer.

use std::ops::Range;

use mtc_types::{Error, Result};

use crate::token::{keyword_of, Token};

/// Converts SQL text into a token stream (terminated by `Token::Eof`).
///
/// Supports `--` line comments and `/* */` block comments, single-quoted
/// strings with `''` escaping, decimal integer/float literals, and `@name`
/// parameters.
pub struct Lexer<'a> {
    src: &'a [u8],
    pos: usize,
}

impl<'a> Lexer<'a> {
    pub fn new(src: &'a str) -> Lexer<'a> {
        Lexer {
            src: src.as_bytes(),
            pos: 0,
        }
    }

    /// Tokenizes the whole input.
    pub fn tokenize(src: &str) -> Result<Vec<Token>> {
        let mut lexer = Lexer::new(src);
        let mut tokens = Vec::new();
        loop {
            let tok = lexer.next_token()?;
            let done = tok == Token::Eof;
            tokens.push(tok);
            if done {
                return Ok(tokens);
            }
        }
    }

    fn peek(&self) -> Option<u8> {
        self.src.get(self.pos).copied()
    }

    fn peek2(&self) -> Option<u8> {
        self.src.get(self.pos + 1).copied()
    }

    fn bump(&mut self) -> Option<u8> {
        let c = self.peek()?;
        self.pos += 1;
        Some(c)
    }

    fn skip_trivia(&mut self) -> Result<()> {
        loop {
            match self.peek() {
                Some(c) if c.is_ascii_whitespace() => {
                    self.pos += 1;
                }
                Some(b'-') if self.peek2() == Some(b'-') => {
                    while let Some(c) = self.bump() {
                        if c == b'\n' {
                            break;
                        }
                    }
                }
                Some(b'/') if self.peek2() == Some(b'*') => {
                    self.pos += 2;
                    loop {
                        match (self.peek(), self.peek2()) {
                            (Some(b'*'), Some(b'/')) => {
                                self.pos += 2;
                                break;
                            }
                            (Some(_), _) => self.pos += 1,
                            (None, _) => {
                                return Err(Error::parse("unterminated block comment"));
                            }
                        }
                    }
                }
                _ => return Ok(()),
            }
        }
    }

    /// Produces the next token and the byte range of the source it spans
    /// (comments and whitespace before it excluded).
    pub fn next_spanned(&mut self) -> Result<(Token, Range<usize>)> {
        self.skip_trivia()?;
        let start = self.pos;
        let token = self.token()?;
        Ok((token, start..self.pos))
    }

    /// Produces the next token.
    pub fn next_token(&mut self) -> Result<Token> {
        self.skip_trivia()?;
        self.token()
    }

    /// The token starting at the current position (trivia already skipped).
    fn token(&mut self) -> Result<Token> {
        let Some(c) = self.peek() else {
            return Ok(Token::Eof);
        };
        match c {
            b',' => self.single(Token::Comma),
            b'.' => {
                // `.5` style floats are not supported; `.` is always a
                // qualifier separator in this dialect.
                self.single(Token::Period)
            }
            b'(' => self.single(Token::LParen),
            b')' => self.single(Token::RParen),
            b'+' => self.single(Token::Plus),
            b'-' => self.single(Token::Minus),
            b'*' => self.single(Token::Star),
            b'/' => self.single(Token::Slash),
            b'%' => self.single(Token::Percent),
            b';' => self.single(Token::Semicolon),
            b'=' => self.single(Token::Eq),
            b'!' => {
                self.pos += 1;
                if self.peek() == Some(b'=') {
                    self.pos += 1;
                    Ok(Token::Neq)
                } else {
                    Err(Error::parse("unexpected `!`; did you mean `!=`?"))
                }
            }
            b'<' => {
                self.pos += 1;
                match self.peek() {
                    Some(b'=') => {
                        self.pos += 1;
                        Ok(Token::Le)
                    }
                    Some(b'>') => {
                        self.pos += 1;
                        Ok(Token::Neq)
                    }
                    _ => Ok(Token::Lt),
                }
            }
            b'>' => {
                self.pos += 1;
                if self.peek() == Some(b'=') {
                    self.pos += 1;
                    Ok(Token::Ge)
                } else {
                    Ok(Token::Gt)
                }
            }
            b'\'' => self.string_literal(),
            b'@' => {
                self.pos += 1;
                let name = self.ident_chars();
                if name.is_empty() {
                    return Err(Error::parse("expected parameter name after `@`"));
                }
                Ok(Token::Param(name.to_string()))
            }
            b'[' => {
                // T-SQL bracketed identifier: `[Order Details]`.
                self.pos += 1;
                let start = self.pos;
                while let Some(c) = self.peek() {
                    if c == b']' {
                        let name = String::from_utf8_lossy(&self.src[start..self.pos]).into_owned();
                        self.pos += 1;
                        return Ok(Token::Ident(name));
                    }
                    self.pos += 1;
                }
                Err(Error::parse("unterminated bracketed identifier"))
            }
            c if c.is_ascii_digit() => self.number(),
            c if c.is_ascii_alphabetic() || c == b'_' => {
                let word = self.ident_chars();
                match keyword_of(word) {
                    Some(kw) => Ok(Token::Keyword(kw)),
                    None => Ok(Token::Ident(word.to_string())),
                }
            }
            other => Err(Error::parse(format!(
                "unexpected character `{}` at byte {}",
                other as char, self.pos
            ))),
        }
    }

    fn single(&mut self, tok: Token) -> Result<Token> {
        self.pos += 1;
        Ok(tok)
    }

    fn ident_chars(&mut self) -> &'a str {
        let start = self.pos;
        while let Some(c) = self.peek() {
            if c.is_ascii_alphanumeric() || c == b'_' {
                self.pos += 1;
            } else {
                break;
            }
        }
        std::str::from_utf8(&self.src[start..self.pos]).expect("identifier bytes are ASCII")
    }

    fn number(&mut self) -> Result<Token> {
        let start = self.pos;
        let mut is_float = false;
        while let Some(c) = self.peek() {
            if c.is_ascii_digit() {
                self.pos += 1;
            } else if c == b'.' && !is_float && self.peek2().is_some_and(|d| d.is_ascii_digit())
            {
                is_float = true;
                self.pos += 1;
            } else {
                break;
            }
        }
        let text = std::str::from_utf8(&self.src[start..self.pos])
            .map_err(|_| Error::parse("invalid utf-8 in number"))?;
        if is_float {
            text.parse::<f64>()
                .map(Token::Float)
                .map_err(|e| Error::parse(format!("bad float literal `{text}`: {e}")))
        } else {
            text.parse::<i64>()
                .map(Token::Int)
                .map_err(|e| Error::parse(format!("bad integer literal `{text}`: {e}")))
        }
    }

    fn string_literal(&mut self) -> Result<Token> {
        debug_assert_eq!(self.peek(), Some(b'\''));
        self.pos += 1;
        let mut out = String::new();
        loop {
            // Copy the run up to the next quote as one slice: the source is
            // a `str` and `'` is ASCII, so the run is whole UTF-8.
            let start = self.pos;
            let Some(len) = self.src[start..].iter().position(|&c| c == b'\'') else {
                return Err(Error::parse("unterminated string literal"));
            };
            let run = std::str::from_utf8(&self.src[start..start + len])
                .map_err(|_| Error::parse("invalid utf-8 in string literal"))?;
            out.push_str(run);
            self.pos = start + len + 1;
            if self.peek() == Some(b'\'') {
                out.push('\'');
                self.pos += 1;
            } else {
                return Ok(Token::Str(out));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lex(src: &str) -> Vec<Token> {
        Lexer::tokenize(src).unwrap()
    }

    #[test]
    fn lexes_simple_select() {
        let toks = lex("SELECT id FROM t WHERE x <= 10");
        assert_eq!(
            toks,
            vec![
                Token::Keyword("SELECT"),
                Token::Ident("id".into()),
                Token::Keyword("FROM"),
                Token::Ident("t".into()),
                Token::Keyword("WHERE"),
                Token::Ident("x".into()),
                Token::Le,
                Token::Int(10),
                Token::Eof,
            ]
        );
    }

    #[test]
    fn lexes_params_strings_floats() {
        let toks = lex("i_cost = 1.25 AND name = 'O''Neil' AND cid = @cid");
        assert!(toks.contains(&Token::Float(1.25)));
        assert!(toks.contains(&Token::Str("O'Neil".into())));
        assert!(toks.contains(&Token::Param("cid".into())));
    }

    #[test]
    fn comments_are_skipped() {
        let toks = lex("SELECT 1 -- trailing\n/* block\ncomment */ , 2");
        assert_eq!(
            toks,
            vec![
                Token::Keyword("SELECT"),
                Token::Int(1),
                Token::Comma,
                Token::Int(2),
                Token::Eof
            ]
        );
    }

    #[test]
    fn neq_spellings() {
        assert_eq!(lex("a <> b")[1], Token::Neq);
        assert_eq!(lex("a != b")[1], Token::Neq);
    }

    #[test]
    fn bracketed_identifiers() {
        let toks = lex("[Order Details]");
        assert_eq!(toks[0], Token::Ident("Order Details".into()));
    }

    #[test]
    fn qualified_name_splits_on_period() {
        let toks = lex("c.ckey");
        assert_eq!(
            toks,
            vec![
                Token::Ident("c".into()),
                Token::Period,
                Token::Ident("ckey".into()),
                Token::Eof
            ]
        );
    }

    #[test]
    fn string_literals_keep_non_ascii_text() {
        for (src, text) in [
            ("'café'", "café"),
            ("'日本'", "日本"),
            ("'it''s é'", "it's é"),
        ] {
            assert_eq!(lex(src), vec![Token::Str(text.into()), Token::Eof], "{src}");
        }
        assert!(Lexer::tokenize("'café").is_err());
    }

    #[test]
    fn errors_on_unterminated_string() {
        assert!(Lexer::tokenize("'oops").is_err());
        assert!(Lexer::tokenize("/* oops").is_err());
        assert!(Lexer::tokenize("a ! b").is_err());
    }

    #[test]
    fn integer_overflow_is_an_error() {
        assert!(Lexer::tokenize("99999999999999999999999").is_err());
    }
}
