//! Hand-written lexer for the grammar text format.

use crate::error::{GrammarError, ParseErrorKind};

/// One lexical token with its source position.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct Token {
    pub kind: TokenKind,
    pub line: u32,
    pub col: u32,
}

/// The kinds of token the format uses.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) enum TokenKind {
    /// An identifier or a quoted literal; the payload is the symbol name.
    Name(String),
    /// A `%directive` keyword, payload without the `%`.
    Directive(String),
    /// `:`
    Colon,
    /// `|`
    Pipe,
    /// `;`
    Semi,
    /// End of input.
    Eof,
}

impl TokenKind {
    /// Human-readable description for error messages.
    pub fn describe(&self) -> String {
        match self {
            TokenKind::Name(n) => format!("symbol {n:?}"),
            TokenKind::Directive(d) => format!("%{d}"),
            TokenKind::Colon => "':'".to_string(),
            TokenKind::Pipe => "'|'".to_string(),
            TokenKind::Semi => "';'".to_string(),
            TokenKind::Eof => "end of input".to_string(),
        }
    }
}

pub(crate) struct Lexer<'a> {
    src: &'a str,
    pos: usize,
    line: u32,
    col: u32,
}

impl<'a> Lexer<'a> {
    pub fn new(src: &'a str) -> Self {
        Lexer {
            src,
            pos: 0,
            line: 1,
            col: 1,
        }
    }

    fn error(&self, kind: ParseErrorKind) -> GrammarError {
        GrammarError::Parse {
            line: self.line,
            col: self.col,
            kind,
        }
    }

    fn peek(&self) -> Option<u8> {
        self.src.as_bytes().get(self.pos).copied()
    }

    /// Advances one byte; columns count characters, so UTF-8
    /// continuation bytes do not move the column.
    fn bump(&mut self) -> Option<u8> {
        let b = self.peek()?;
        self.pos += 1;
        if b == b'\n' {
            self.line += 1;
            self.col = 1;
        } else if b & 0xC0 != 0x80 {
            self.col += 1;
        }
        Some(b)
    }

    /// Consumes bytes while `keep` holds and returns them as a slice of
    /// the source. Every byte that stops the scan is ASCII, so the slice
    /// ends on a character boundary.
    fn take_while(&mut self, keep: impl Fn(u8) -> bool) -> &'a str {
        let start = self.pos;
        while self.peek().is_some_and(&keep) {
            self.bump();
        }
        &self.src[start..self.pos]
    }

    fn skip_trivia(&mut self) -> Result<(), GrammarError> {
        loop {
            match self.peek() {
                Some(b) if b.is_ascii_whitespace() => {
                    self.bump();
                }
                Some(b'/') if self.src.as_bytes().get(self.pos + 1) == Some(&b'/') => {
                    while let Some(b) = self.peek() {
                        if b == b'\n' {
                            break;
                        }
                        self.bump();
                    }
                }
                Some(b'/') if self.src.as_bytes().get(self.pos + 1) == Some(&b'*') => {
                    let (line, col) = (self.line, self.col);
                    self.bump();
                    self.bump();
                    loop {
                        match self.bump() {
                            None => {
                                return Err(GrammarError::Parse {
                                    line,
                                    col,
                                    kind: ParseErrorKind::UnterminatedComment,
                                })
                            }
                            Some(b'*') if self.peek() == Some(b'/') => {
                                self.bump();
                                break;
                            }
                            Some(_) => {}
                        }
                    }
                }
                _ => return Ok(()),
            }
        }
    }

    fn is_ident_byte(b: u8) -> bool {
        b.is_ascii_alphanumeric() || b == b'_' || b == b'\'' || b == b'.'
    }

    /// Produces the next token.
    pub fn next_token(&mut self) -> Result<Token, GrammarError> {
        self.skip_trivia()?;
        let (line, col) = (self.line, self.col);
        let tok = |kind| Token { kind, line, col };

        let Some(b) = self.peek() else {
            return Ok(tok(TokenKind::Eof));
        };
        match b {
            b':' => {
                self.bump();
                Ok(tok(TokenKind::Colon))
            }
            b'|' => {
                self.bump();
                Ok(tok(TokenKind::Pipe))
            }
            b';' => {
                self.bump();
                Ok(tok(TokenKind::Semi))
            }
            b'%' => {
                self.bump();
                let name = self.take_while(Self::is_ident_byte);
                Ok(tok(TokenKind::Directive(name.to_string())))
            }
            b'"' | b'\'' => {
                let quote = b;
                self.bump();
                let name = self.take_while(|b| b != quote && b != b'\n');
                if self.bump() != Some(quote) {
                    return Err(GrammarError::Parse {
                        line,
                        col,
                        kind: ParseErrorKind::UnterminatedLiteral,
                    });
                }
                Ok(tok(TokenKind::Name(name.to_string())))
            }
            b if Self::is_ident_byte(b) || !b.is_ascii() => {
                // Non-ASCII bytes are identifier bytes: UTF-8 names pass
                // through whole.
                let name = self.take_while(|b| Self::is_ident_byte(b) || !b.is_ascii());
                Ok(tok(TokenKind::Name(name.to_string())))
            }
            other => Err(self.error(ParseErrorKind::UnexpectedChar(other as char))),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lex_all(src: &str) -> Vec<TokenKind> {
        let mut lx = Lexer::new(src);
        let mut out = Vec::new();
        loop {
            let t = lx.next_token().expect("lex ok");
            let eof = t.kind == TokenKind::Eof;
            out.push(t.kind);
            if eof {
                return out;
            }
        }
    }

    #[test]
    fn punctuation_and_names() {
        let toks = lex_all("e : e \"+\" t | t ;");
        assert_eq!(
            toks,
            vec![
                TokenKind::Name("e".into()),
                TokenKind::Colon,
                TokenKind::Name("e".into()),
                TokenKind::Name("+".into()),
                TokenKind::Name("t".into()),
                TokenKind::Pipe,
                TokenKind::Name("t".into()),
                TokenKind::Semi,
                TokenKind::Eof,
            ]
        );
    }

    #[test]
    fn directives() {
        let toks = lex_all("%start e %left '+'");
        assert_eq!(
            toks,
            vec![
                TokenKind::Directive("start".into()),
                TokenKind::Name("e".into()),
                TokenKind::Directive("left".into()),
                TokenKind::Name("+".into()),
                TokenKind::Eof,
            ]
        );
    }

    #[test]
    fn comments_are_trivia() {
        let toks = lex_all("a // x\n /* y\n z */ b");
        assert_eq!(
            toks,
            vec![
                TokenKind::Name("a".into()),
                TokenKind::Name("b".into()),
                TokenKind::Eof,
            ]
        );
    }

    #[test]
    fn unterminated_literal_reports_position() {
        let mut lx = Lexer::new("\n  \"abc");
        let err = loop {
            match lx.next_token() {
                Err(e) => break e,
                Ok(t) if t.kind == TokenKind::Eof => panic!("expected error"),
                Ok(_) => {}
            }
        };
        assert_eq!(
            err,
            GrammarError::Parse {
                line: 2,
                col: 3,
                kind: ParseErrorKind::UnterminatedLiteral
            }
        );
    }

    #[test]
    fn unterminated_comment_is_error() {
        let mut lx = Lexer::new("/* never closed");
        assert!(matches!(
            lx.next_token(),
            Err(GrammarError::Parse {
                kind: ParseErrorKind::UnterminatedComment,
                ..
            })
        ));
    }

    #[test]
    fn unexpected_char_is_error() {
        let mut lx = Lexer::new("(");
        assert!(matches!(
            lx.next_token(),
            Err(GrammarError::Parse {
                kind: ParseErrorKind::UnexpectedChar('('),
                ..
            })
        ));
    }

    #[test]
    fn utf8_names_are_taken_whole() {
        let toks = lex_all("s : \"é\" 'ü' naïve ;");
        assert_eq!(
            toks,
            vec![
                TokenKind::Name("s".into()),
                TokenKind::Colon,
                TokenKind::Name("é".into()),
                TokenKind::Name("ü".into()),
                TokenKind::Name("naïve".into()),
                TokenKind::Semi,
                TokenKind::Eof,
            ]
        );
        // Columns count characters, not bytes.
        let mut lx = Lexer::new("é (");
        lx.next_token().unwrap();
        assert_eq!(
            lx.next_token(),
            Err(GrammarError::Parse {
                line: 1,
                col: 3,
                kind: ParseErrorKind::UnexpectedChar('(')
            })
        );
    }

    #[test]
    fn primes_and_dots_in_identifiers() {
        let toks = lex_all("e' stmt.list");
        assert_eq!(
            toks,
            vec![
                TokenKind::Name("e'".into()),
                TokenKind::Name("stmt.list".into()),
                TokenKind::Eof,
            ]
        );
    }
}
