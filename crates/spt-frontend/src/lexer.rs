//! Lexer for `minic`: one pass over the source bytes, with every
//! identifier token a slice of the source.

use crate::CompileError;
use std::fmt;

/// A token kind with payload.
#[derive(Clone, Copy, Debug, PartialEq)]
pub(crate) enum Tok<'a> {
    /// Integer literal.
    Int(i64),
    /// Float literal.
    Float(f64),
    /// Identifier (never a keyword).
    Ident(&'a str),
    /// `fn`
    Fn,
    /// `global`
    Global,
    /// `let`
    Let,
    /// `if`
    If,
    /// `else`
    Else,
    /// `while`
    While,
    /// `for`
    For,
    /// `return`
    Return,
    /// `break`
    Break,
    /// `continue`
    Continue,
    /// `int`
    KwInt,
    /// `float`
    KwFloat,
    /// `(`
    LParen,
    /// `)`
    RParen,
    /// `{`
    LBrace,
    /// `}`
    RBrace,
    /// `[`
    LBracket,
    /// `]`
    RBracket,
    /// `,`
    Comma,
    /// `;`
    Semi,
    /// `:`
    Colon,
    /// `->`
    Arrow,
    /// `=`
    Assign,
    /// `+`
    Plus,
    /// `-`
    Minus,
    /// `*`
    Star,
    /// `/`
    Slash,
    /// `%`
    Percent,
    /// `&`
    Amp,
    /// `|`
    Pipe,
    /// `^`
    Caret,
    /// `~`
    Tilde,
    /// `<<`
    Shl,
    /// `>>`
    Shr,
    /// `==`
    EqEq,
    /// `!=`
    NotEq,
    /// `<`
    Lt,
    /// `<=`
    Le,
    /// `>`
    Gt,
    /// `>=`
    Ge,
    /// `&&`
    AndAnd,
    /// `||`
    OrOr,
    /// `!`
    Bang,
    /// End of input.
    Eof,
}

impl fmt::Display for Tok<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Tok::Int(v) => write!(f, "{v}"),
            Tok::Float(v) => write!(f, "{v}"),
            Tok::Ident(s) => write!(f, "{s}"),
            other => write!(f, "{}", other.symbol()),
        }
    }
}

impl Tok<'_> {
    fn symbol(&self) -> &'static str {
        match self {
            Tok::Fn => "fn",
            Tok::Global => "global",
            Tok::Let => "let",
            Tok::If => "if",
            Tok::Else => "else",
            Tok::While => "while",
            Tok::For => "for",
            Tok::Return => "return",
            Tok::Break => "break",
            Tok::Continue => "continue",
            Tok::KwInt => "int",
            Tok::KwFloat => "float",
            Tok::LParen => "(",
            Tok::RParen => ")",
            Tok::LBrace => "{",
            Tok::RBrace => "}",
            Tok::LBracket => "[",
            Tok::RBracket => "]",
            Tok::Comma => ",",
            Tok::Semi => ";",
            Tok::Colon => ":",
            Tok::Arrow => "->",
            Tok::Assign => "=",
            Tok::Plus => "+",
            Tok::Minus => "-",
            Tok::Star => "*",
            Tok::Slash => "/",
            Tok::Percent => "%",
            Tok::Amp => "&",
            Tok::Pipe => "|",
            Tok::Caret => "^",
            Tok::Tilde => "~",
            Tok::Shl => "<<",
            Tok::Shr => ">>",
            Tok::EqEq => "==",
            Tok::NotEq => "!=",
            Tok::Lt => "<",
            Tok::Le => "<=",
            Tok::Gt => ">",
            Tok::Ge => ">=",
            Tok::AndAnd => "&&",
            Tok::OrOr => "||",
            Tok::Bang => "!",
            Tok::Int(_) | Tok::Float(_) | Tok::Ident(_) => "<lit>",
            Tok::Eof => "<eof>",
        }
    }
}

/// A token with its source position.
#[derive(Clone, Copy, Debug, PartialEq)]
pub(crate) struct Token<'a> {
    /// The token.
    pub tok: Tok<'a>,
    /// 1-based line.
    pub line: usize,
    /// 1-based column, in characters.
    pub col: usize,
}

/// Tokenizes `source`.
///
/// # Errors
///
/// Returns a [`CompileError`] on unterminated comments, malformed numbers or
/// unexpected characters.
pub(crate) fn lex(source: &str) -> Result<Vec<Token<'_>>, CompileError> {
    let bytes = source.as_bytes();
    let mut tokens = Vec::with_capacity(bytes.len() / 4 + 1);
    let mut i = 0;
    let mut line = 1usize;
    let mut col = 1usize;

    // A column per character: only the first byte of a UTF-8 sequence
    // starts one.
    let starts_char = |b: u8| b & 0xC0 != 0x80;
    // Moves past byte `i`.
    let step = |i: &mut usize, line: &mut usize, col: &mut usize| {
        if bytes[*i] == b'\n' {
            *line += 1;
            *col = 1;
        } else if starts_char(bytes[*i]) {
            *col += 1;
        }
        *i += 1;
    };
    // Moves past an ASCII run that holds no newline.
    let skip = |n: usize, i: &mut usize, col: &mut usize| {
        *i += n;
        *col += n;
    };

    while i < bytes.len() {
        let c = bytes[i];
        let (tl, tc) = (line, col);
        let tok = match c {
            b' ' | b'\t' | b'\r' => {
                let n = bytes[i..]
                    .iter()
                    .take_while(|b| matches!(b, b' ' | b'\t' | b'\r'))
                    .count();
                skip(n, &mut i, &mut col);
                continue;
            }
            b'\n' => {
                step(&mut i, &mut line, &mut col);
                continue;
            }
            b'/' if bytes.get(i + 1) == Some(&b'/') => {
                let n = bytes[i..].iter().take_while(|&&b| b != b'\n').count();
                col += bytes[i..i + n].iter().filter(|&&b| starts_char(b)).count();
                i += n;
                continue;
            }
            b'/' if bytes.get(i + 1) == Some(&b'*') => {
                skip(2, &mut i, &mut col);
                let mut closed = false;
                while i + 1 < bytes.len() {
                    if bytes[i] == b'*' && bytes[i + 1] == b'/' {
                        skip(2, &mut i, &mut col);
                        closed = true;
                        break;
                    }
                    step(&mut i, &mut line, &mut col);
                }
                if !closed {
                    return Err(CompileError::new("unterminated block comment", tl, tc));
                }
                continue;
            }
            b'0'..=b'9' => {
                let start = i;
                let digits = |i: &mut usize, col: &mut usize| {
                    let n = bytes[*i..]
                        .iter()
                        .take_while(|b| b.is_ascii_digit())
                        .count();
                    skip(n, i, col);
                };
                digits(&mut i, &mut col);
                let is_float =
                    i + 1 < bytes.len() && bytes[i] == b'.' && bytes[i + 1].is_ascii_digit();
                if is_float {
                    skip(1, &mut i, &mut col);
                    digits(&mut i, &mut col);
                    let v: f64 = source[start..i]
                        .parse()
                        .map_err(|_| CompileError::new("malformed float literal", tl, tc))?;
                    Tok::Float(v)
                } else if bytes.get(i) == Some(&b'.') {
                    // `1.` style float
                    skip(1, &mut i, &mut col);
                    let v: f64 = source[start..i - 1]
                        .parse()
                        .map_err(|_| CompileError::new("malformed float literal", tl, tc))?;
                    Tok::Float(v)
                } else {
                    let v: i64 = source[start..i]
                        .parse()
                        .map_err(|_| CompileError::new("integer literal overflow", tl, tc))?;
                    Tok::Int(v)
                }
            }
            b'a'..=b'z' | b'A'..=b'Z' | b'_' => {
                let start = i;
                let n = bytes[i..]
                    .iter()
                    .take_while(|b| b.is_ascii_alphanumeric() || **b == b'_')
                    .count();
                skip(n, &mut i, &mut col);
                match &source[start..i] {
                    "fn" => Tok::Fn,
                    "global" => Tok::Global,
                    "let" => Tok::Let,
                    "if" => Tok::If,
                    "else" => Tok::Else,
                    "while" => Tok::While,
                    "for" => Tok::For,
                    "return" => Tok::Return,
                    "break" => Tok::Break,
                    "continue" => Tok::Continue,
                    "int" => Tok::KwInt,
                    "float" => Tok::KwFloat,
                    text => Tok::Ident(text),
                }
            }
            _ => {
                let two = match (c, bytes.get(i + 1)) {
                    (b'-', Some(b'>')) => Some(Tok::Arrow),
                    (b'=', Some(b'=')) => Some(Tok::EqEq),
                    (b'!', Some(b'=')) => Some(Tok::NotEq),
                    (b'<', Some(b'=')) => Some(Tok::Le),
                    (b'>', Some(b'=')) => Some(Tok::Ge),
                    (b'<', Some(b'<')) => Some(Tok::Shl),
                    (b'>', Some(b'>')) => Some(Tok::Shr),
                    (b'&', Some(b'&')) => Some(Tok::AndAnd),
                    (b'|', Some(b'|')) => Some(Tok::OrOr),
                    _ => None,
                };
                if let Some(t) = two {
                    skip(2, &mut i, &mut col);
                    t
                } else {
                    let one = match c {
                        b'(' => Tok::LParen,
                        b')' => Tok::RParen,
                        b'{' => Tok::LBrace,
                        b'}' => Tok::RBrace,
                        b'[' => Tok::LBracket,
                        b']' => Tok::RBracket,
                        b',' => Tok::Comma,
                        b';' => Tok::Semi,
                        b':' => Tok::Colon,
                        b'=' => Tok::Assign,
                        b'+' => Tok::Plus,
                        b'-' => Tok::Minus,
                        b'*' => Tok::Star,
                        b'/' => Tok::Slash,
                        b'%' => Tok::Percent,
                        b'&' => Tok::Amp,
                        b'|' => Tok::Pipe,
                        b'^' => Tok::Caret,
                        b'~' => Tok::Tilde,
                        b'<' => Tok::Lt,
                        b'>' => Tok::Gt,
                        b'!' => Tok::Bang,
                        _ => {
                            let other = source[i..].chars().next().unwrap_or('\u{fffd}');
                            return Err(CompileError::new(
                                format!("unexpected character `{other}`"),
                                tl,
                                tc,
                            ));
                        }
                    };
                    skip(1, &mut i, &mut col);
                    one
                }
            }
        };
        tokens.push(Token {
            tok,
            line: tl,
            col: tc,
        });
    }
    tokens.push(Token {
        tok: Tok::Eof,
        line,
        col,
    });
    Ok(tokens)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn toks(src: &str) -> Vec<Tok<'_>> {
        lex(src).unwrap().into_iter().map(|t| t.tok).collect()
    }

    #[test]
    fn lexes_keywords_and_idents() {
        assert_eq!(
            toks("fn foo while whilex"),
            vec![
                Tok::Fn,
                Tok::Ident("foo"),
                Tok::While,
                Tok::Ident("whilex"),
                Tok::Eof
            ]
        );
    }

    #[test]
    fn lexes_numbers() {
        assert_eq!(
            toks("42 3.5 1. 0"),
            vec![
                Tok::Int(42),
                Tok::Float(3.5),
                Tok::Float(1.0),
                Tok::Int(0),
                Tok::Eof
            ]
        );
    }

    #[test]
    fn lexes_operators() {
        assert_eq!(
            toks("-> == != <= >= << >> && || < > = ! ~"),
            vec![
                Tok::Arrow,
                Tok::EqEq,
                Tok::NotEq,
                Tok::Le,
                Tok::Ge,
                Tok::Shl,
                Tok::Shr,
                Tok::AndAnd,
                Tok::OrOr,
                Tok::Lt,
                Tok::Gt,
                Tok::Assign,
                Tok::Bang,
                Tok::Tilde,
                Tok::Eof
            ]
        );
    }

    #[test]
    fn skips_comments() {
        assert_eq!(
            toks("1 // comment\n 2 /* multi\nline */ 3"),
            vec![Tok::Int(1), Tok::Int(2), Tok::Int(3), Tok::Eof]
        );
    }

    #[test]
    fn tracks_positions() {
        let tokens = lex("a\n  b").unwrap();
        assert_eq!((tokens[0].line, tokens[0].col), (1, 1));
        assert_eq!((tokens[1].line, tokens[1].col), (2, 3));
    }

    #[test]
    fn rejects_unknown_char() {
        let e = lex("a $ b").unwrap_err();
        assert!(e.message.contains("unexpected character"));
        assert_eq!(e.col, 3);
    }

    /// Columns count characters, not bytes, through comments too.
    #[test]
    fn columns_count_characters() {
        let e = lex("/* é */ $").unwrap_err();
        assert_eq!((e.line, e.col), (1, 9));
        let e = lex("// é\n  é").unwrap_err();
        assert_eq!((e.line, e.col), (2, 3));
        assert_eq!(e.message, "unexpected character `é`");
        let tokens = lex("a // ü\n").unwrap();
        assert_eq!((tokens[1].line, tokens[1].col), (2, 1));
        let tokens = lex("a /* ü */").unwrap();
        assert_eq!((tokens[1].line, tokens[1].col), (1, 10));
    }

    #[test]
    fn rejects_unterminated_comment() {
        assert!(lex("/* nope").is_err());
    }

    #[test]
    fn rejects_integer_overflow() {
        assert!(lex("99999999999999999999999").is_err());
    }
}
