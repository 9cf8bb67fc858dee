//! The SQL lexer.
//!
//! Identifiers and keywords share one token kind — the parser matches
//! keywords case-insensitively by text, which lets names like `users` or
//! `ratings` double as table names (as they do throughout the paper).

use std::fmt;

/// A lexical token kind.
#[derive(Debug, Clone, PartialEq)]
pub enum TokenKind {
    /// Identifier or keyword (`SELECT`, `Ratings`, `uid`, …).
    Ident(String),
    /// Integer literal.
    Int(i64),
    /// Float literal.
    Float(f64),
    /// Single-quoted string literal (quotes stripped, `''` unescaped).
    Str(String),
    /// `,`
    Comma,
    /// `(`
    LParen,
    /// `)`
    RParen,
    /// `.`
    Dot,
    /// `*`
    Star,
    /// `=`
    Eq,
    /// `!=` or `<>`
    Neq,
    /// `<`
    Lt,
    /// `<=`
    Le,
    /// `>`
    Gt,
    /// `>=`
    Ge,
    /// `+`
    Plus,
    /// `-`
    Minus,
    /// `/`
    Slash,
    /// `;`
    Semicolon,
}

impl fmt::Display for TokenKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TokenKind::Ident(s) => write!(f, "{s}"),
            TokenKind::Int(v) => write!(f, "{v}"),
            TokenKind::Float(v) => write!(f, "{v}"),
            TokenKind::Str(s) => write!(f, "'{s}'"),
            TokenKind::Comma => f.write_str(","),
            TokenKind::LParen => f.write_str("("),
            TokenKind::RParen => f.write_str(")"),
            TokenKind::Dot => f.write_str("."),
            TokenKind::Star => f.write_str("*"),
            TokenKind::Eq => f.write_str("="),
            TokenKind::Neq => f.write_str("!="),
            TokenKind::Lt => f.write_str("<"),
            TokenKind::Le => f.write_str("<="),
            TokenKind::Gt => f.write_str(">"),
            TokenKind::Ge => f.write_str(">="),
            TokenKind::Plus => f.write_str("+"),
            TokenKind::Minus => f.write_str("-"),
            TokenKind::Slash => f.write_str("/"),
            TokenKind::Semicolon => f.write_str(";"),
        }
    }
}

/// A token with its byte offset in the source (for error messages).
#[derive(Debug, Clone, PartialEq)]
pub struct Token {
    /// The token kind and payload.
    pub kind: TokenKind,
    /// Byte offset of the token's first character.
    pub offset: usize,
}

impl Token {
    /// True if this token is the given keyword (case-insensitive).
    pub fn is_keyword(&self, kw: &str) -> bool {
        matches!(&self.kind, TokenKind::Ident(s) if s.eq_ignore_ascii_case(kw))
    }
}

/// A lexing failure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LexError {
    /// Human-readable description.
    pub message: String,
    /// Byte offset of the offending character.
    pub offset: usize,
}

impl fmt::Display for LexError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} at offset {}", self.message, self.offset)
    }
}

impl std::error::Error for LexError {}

/// Tokenize SQL source. Supports `--` line comments.
pub fn tokenize(src: &str) -> Result<Vec<Token>, LexError> {
    let mut lexer = Lexer::new(src);
    let mut tokens = Vec::new();
    while let Some(lexeme) = lexer.next_lexeme()? {
        let kind = match lexeme.kind {
            LexemeKind::Ident => TokenKind::Ident(src[lexeme.start..lexeme.end].to_owned()),
            LexemeKind::Int(v) => TokenKind::Int(v),
            LexemeKind::Float(v) => TokenKind::Float(v),
            LexemeKind::Str => TokenKind::Str(lexeme.string_value(src)),
            LexemeKind::Symbol(kind) => kind,
        };
        tokens.push(Token {
            kind,
            offset: lexeme.start,
        });
    }
    Ok(tokens)
}

/// A token as the [`Lexer`] finds it: its kind, a number's value, and
/// where its text lies in the source.
#[derive(Debug)]
pub(crate) struct Lexeme {
    pub(crate) kind: LexemeKind,
    /// Byte offset of the token's first character.
    pub(crate) start: usize,
    /// Byte offset just past its last character.
    pub(crate) end: usize,
}

/// What a [`Lexeme`] is.
#[derive(Debug)]
pub(crate) enum LexemeKind {
    Ident,
    Int(i64),
    Float(f64),
    /// A quoted string, quotes included: [`Lexeme::string_value`] reads it.
    Str,
    /// Punctuation or an operator.
    Symbol(TokenKind),
}

impl Lexeme {
    /// A string literal's value: the source between its quotes, each `''`
    /// read as one quote. Slicing the `&str` keeps every character as
    /// written, multi-byte ones included.
    pub(crate) fn string_value(&self, src: &str) -> String {
        src[self.start + 1..self.end - 1].replace("''", "'")
    }
}

/// The one SQL scanner. [`tokenize`] and [`crate::normalize()`] both take
/// their tokens from it, so they cannot disagree on where a literal starts
/// or ends, or on its value.
pub(crate) struct Lexer<'a> {
    src: &'a str,
    pos: usize,
}

impl<'a> Lexer<'a> {
    pub(crate) fn new(src: &'a str) -> Self {
        Lexer { src, pos: 0 }
    }

    /// The next token, skipping whitespace and `--` comments; `None` at
    /// the end of the source. Inlined into its two callers: as a call it
    /// cost `normalize` about 0.3 µs on the benchmark's Query 1.
    #[inline(always)]
    pub(crate) fn next_lexeme(&mut self) -> Result<Option<Lexeme>, LexError> {
        let bytes = self.src.as_bytes();
        let start = loop {
            let Some(&b) = bytes.get(self.pos) else {
                return Ok(None);
            };
            if b.is_ascii_whitespace() {
                self.pos += 1;
            } else if b == b'-' && bytes.get(self.pos + 1) == Some(&b'-') {
                while self.pos < bytes.len() && bytes[self.pos] != b'\n' {
                    self.pos += 1;
                }
            } else {
                break self.pos;
            }
        };
        let next = bytes.get(start + 1).copied();
        let symbol = |kind: TokenKind, len: usize| (LexemeKind::Symbol(kind), start + len);
        let (kind, end) = match bytes[start] {
            b'0'..=b'9' => self.number(start)?,
            b'.' if next.is_some_and(|c| c.is_ascii_digit()) => self.number(start)?,
            b'\'' => (LexemeKind::Str, self.string_end(start)?),
            b',' => symbol(TokenKind::Comma, 1),
            b'(' => symbol(TokenKind::LParen, 1),
            b')' => symbol(TokenKind::RParen, 1),
            b'.' => symbol(TokenKind::Dot, 1),
            b'*' => symbol(TokenKind::Star, 1),
            b';' => symbol(TokenKind::Semicolon, 1),
            b'+' => symbol(TokenKind::Plus, 1),
            b'-' => symbol(TokenKind::Minus, 1),
            b'/' => symbol(TokenKind::Slash, 1),
            b'=' => symbol(TokenKind::Eq, 1),
            b'!' if next == Some(b'=') => symbol(TokenKind::Neq, 2),
            b'<' => match next {
                Some(b'=') => symbol(TokenKind::Le, 2),
                Some(b'>') => symbol(TokenKind::Neq, 2),
                _ => symbol(TokenKind::Lt, 1),
            },
            b'>' => match next {
                Some(b'=') => symbol(TokenKind::Ge, 2),
                _ => symbol(TokenKind::Gt, 1),
            },
            c if c.is_ascii_alphabetic() || c == b'_' => {
                let len = bytes[start..]
                    .iter()
                    .take_while(|c| c.is_ascii_alphanumeric() || **c == b'_')
                    .count();
                (LexemeKind::Ident, start + len)
            }
            _ => {
                let other = self.src[start..].chars().next().unwrap_or_default();
                return Err(LexError {
                    message: format!("unexpected character `{other}`"),
                    offset: start,
                });
            }
        };
        self.pos = end;
        Ok(Some(Lexeme { kind, start, end }))
    }

    /// Where the quoted string opening at `start` ends: just past the
    /// first quote that is not half of a `''`.
    fn string_end(&self, start: usize) -> Result<usize, LexError> {
        let bytes = self.src.as_bytes();
        let mut i = start + 1;
        loop {
            match bytes.get(i) {
                None => {
                    return Err(LexError {
                        message: "unterminated string literal".into(),
                        offset: start,
                    })
                }
                Some(b'\'') if bytes.get(i + 1) == Some(&b'\'') => i += 2,
                Some(b'\'') => return Ok(i + 1),
                Some(_) => i += 1,
            }
        }
    }

    /// The numeric literal starting at `start` and where it ends: an
    /// `Int`, or a `Float` when it has a `.` or an exponent.
    fn number(&self, start: usize) -> Result<(LexemeKind, usize), LexError> {
        let bytes = self.src.as_bytes();
        let mut i = start;
        let mut saw_dot = false;
        let mut saw_exp = false;
        while i < bytes.len() {
            let b = bytes[i];
            if b.is_ascii_digit() {
                i += 1;
            } else if b == b'.' && !saw_dot && !saw_exp {
                saw_dot = true;
                i += 1;
            } else if (b == b'e' || b == b'E')
                && !saw_exp
                && bytes
                    .get(i + 1)
                    .is_some_and(|&n| n.is_ascii_digit() || n == b'-' || n == b'+')
            {
                saw_exp = true;
                i += 1;
                if bytes[i] == b'-' || bytes[i] == b'+' {
                    i += 1;
                }
            } else {
                break;
            }
        }
        let text = &self.src[start..i];
        let kind = if saw_dot || saw_exp {
            text.parse().map(LexemeKind::Float).map_err(|_| LexError {
                message: format!("invalid float literal `{text}`"),
                offset: start,
            })
        } else {
            text.parse().map(LexemeKind::Int).map_err(|_| LexError {
                message: format!("invalid integer literal `{text}`"),
                offset: start,
            })
        };
        Ok((kind?, i))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn kinds(src: &str) -> Vec<TokenKind> {
        tokenize(src).unwrap().into_iter().map(|t| t.kind).collect()
    }

    #[test]
    fn lex_paper_query1_fragment() {
        let toks = kinds("Select R.uid From Ratings as R Where R.uid=1 Limit 10");
        assert_eq!(toks[0], TokenKind::Ident("Select".into()));
        assert!(toks.contains(&TokenKind::Eq));
        assert_eq!(*toks.last().unwrap(), TokenKind::Int(10));
    }

    #[test]
    fn lex_numbers() {
        assert_eq!(
            kinds("1 2.5 0.001 1e3 2.5E-2"),
            vec![
                TokenKind::Int(1),
                TokenKind::Float(2.5),
                TokenKind::Float(0.001),
                TokenKind::Float(1000.0),
                TokenKind::Float(0.025),
            ]
        );
    }

    #[test]
    fn lex_strings_with_escapes() {
        assert_eq!(
            kinds("'San Diego' 'O''Brien'"),
            vec![
                TokenKind::Str("San Diego".into()),
                TokenKind::Str("O'Brien".into())
            ]
        );
    }

    /// A quoted string is the source's characters, not its bytes one by
    /// one: `é` is two bytes in UTF-8 and one character here.
    #[test]
    fn multibyte_string_literals_keep_their_characters() {
        assert_eq!(
            kinds("'Amélie' '日本''語'"),
            vec![
                TokenKind::Str("Amélie".into()),
                TokenKind::Str("日本'語".into())
            ]
        );
        let err = tokenize("a é").unwrap_err();
        assert_eq!(err.message, "unexpected character `é`");
    }

    #[test]
    fn unterminated_string_errors() {
        let err = tokenize("'open").unwrap_err();
        assert!(err.message.contains("unterminated"));
        assert_eq!(err.offset, 0);
    }

    #[test]
    fn lex_operators() {
        assert_eq!(
            kinds("= != <> < <= > >= + - * /"),
            vec![
                TokenKind::Eq,
                TokenKind::Neq,
                TokenKind::Neq,
                TokenKind::Lt,
                TokenKind::Le,
                TokenKind::Gt,
                TokenKind::Ge,
                TokenKind::Plus,
                TokenKind::Minus,
                TokenKind::Star,
                TokenKind::Slash,
            ]
        );
    }

    #[test]
    fn line_comments_skipped() {
        assert_eq!(
            kinds("SELECT -- the select keyword\n1"),
            vec![TokenKind::Ident("SELECT".into()), TokenKind::Int(1)]
        );
    }

    #[test]
    fn dot_vs_float() {
        assert_eq!(
            kinds("R.uid"),
            vec![
                TokenKind::Ident("R".into()),
                TokenKind::Dot,
                TokenKind::Ident("uid".into())
            ]
        );
    }

    #[test]
    fn keyword_helper_is_case_insensitive() {
        let toks = tokenize("select").unwrap();
        assert!(toks[0].is_keyword("SELECT"));
        assert!(toks[0].is_keyword("select"));
        assert!(!toks[0].is_keyword("from"));
    }

    #[test]
    fn offsets_track_positions() {
        let toks = tokenize("ab  cd").unwrap();
        assert_eq!(toks[0].offset, 0);
        assert_eq!(toks[1].offset, 4);
    }

    #[test]
    fn unexpected_character_errors() {
        assert!(tokenize("a ยง b").is_err());
        assert!(tokenize("a ? b").is_err());
    }

    #[test]
    fn underscored_identifiers() {
        assert_eq!(
            kinds("ST_Contains ST_DWithin _x"),
            vec![
                TokenKind::Ident("ST_Contains".into()),
                TokenKind::Ident("ST_DWithin".into()),
                TokenKind::Ident("_x".into()),
            ]
        );
    }
}
