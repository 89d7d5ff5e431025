//! A small hand-rolled Rust lexer.
//!
//! `fedra-lint` analyzes token streams, not syntax trees: the build
//! environment has no registry route, so `syn` is off the table. The lexer
//! therefore has one job — never misclassify the constructs that would make
//! token-level analysis lie:
//!
//! * string literals (plain, raw `r#"…"#`, byte `b"…"`), so `"unwrap"`
//!   inside a message is not an identifier;
//! * line and block comments, including **nested** block comments, so
//!   commented-out code is invisible to lints;
//! * lifetimes vs. char literals (`'a` vs `'a'` vs `'\n'`);
//! * raw identifiers (`r#fn`).
//!
//! Comments are not discarded: `// fedra-lint: allow(<lint>)` directives
//! are collected with their line numbers so findings can be suppressed at
//! the use site (see [`crate::diagnostics`]).

/// What a token is. Only the distinctions the lints need are kept.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TokenKind {
    /// An identifier or keyword (`unwrap`, `fn`, `Response`, …).
    Ident,
    /// A lifetime (`'a`, `'static`). The text excludes the quote.
    Lifetime,
    /// A character literal (`'x'`, `'\n'`).
    CharLit,
    /// A string literal of any flavor (plain, raw, byte). The text is the
    /// raw source slice including quotes.
    StrLit,
    /// A numeric literal.
    Number,
    /// A single punctuation character (`.`, `:`, `{`, `!`, …).
    Punct(char),
}

/// One token with its source position (1-based line and column).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Token {
    /// Classification.
    pub kind: TokenKind,
    /// Source text (identifier name, literal slice, or the punct char).
    pub text: String,
    /// 1-based line.
    pub line: u32,
    /// 1-based column (in characters).
    pub col: u32,
}

impl Token {
    /// Whether this token is the identifier `name`.
    pub fn is_ident(&self, name: &str) -> bool {
        self.kind == TokenKind::Ident && self.text == name
    }

    /// Whether this token is the punctuation `c`.
    pub fn is_punct(&self, c: char) -> bool {
        self.kind == TokenKind::Punct(c)
    }
}

/// An inline suppression directive: `// fedra-lint: allow(<lint>)`.
///
/// The directive suppresses findings of `lint` reported on the same line
/// or on the line directly below it (so it can sit above the offending
/// statement, rustc-attribute style).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AllowDirective {
    /// The lint name inside `allow(…)`.
    pub lint: String,
    /// 1-based line the comment appears on.
    pub line: u32,
}

/// A lexed source file: its token stream plus the allow directives found
/// in its comments.
#[derive(Debug, Clone, Default)]
pub struct Lexed {
    /// Tokens in source order. Comments and whitespace are omitted.
    pub tokens: Vec<Token>,
    /// Suppression directives harvested from comments.
    pub allows: Vec<AllowDirective>,
    /// Lines carrying a `// fedra-lint: deterministic-region` marker.
    ///
    /// The marker is module-level: its presence anywhere in a file
    /// designates the whole file a deterministic region for the
    /// `determinism-discipline` lint, in addition to the lint's built-in
    /// region list (merge/reduce, wire encoding, estimators).
    pub deterministic_markers: Vec<u32>,
}

/// Tokenizes Rust source. Unterminated constructs are tolerated (the rest
/// of the file is swallowed by the open literal/comment) — the linter must
/// never panic on weird input; rustc is the arbiter of validity.
pub fn lex(source: &str) -> Lexed {
    Lexer {
        chars: source.chars().collect(),
        pos: 0,
        line: 1,
        col: 1,
        out: Lexed::default(),
    }
    .run()
}

struct Lexer {
    chars: Vec<char>,
    pos: usize,
    line: u32,
    col: u32,
    out: Lexed,
}

impl Lexer {
    fn peek(&self, ahead: usize) -> Option<char> {
        self.chars.get(self.pos + ahead).copied()
    }

    fn bump(&mut self) -> Option<char> {
        let c = self.peek(0)?;
        self.pos += 1;
        if c == '\n' {
            self.line += 1;
            self.col = 1;
        } else {
            self.col += 1;
        }
        Some(c)
    }

    fn push(&mut self, kind: TokenKind, text: String, line: u32, col: u32) {
        self.out.tokens.push(Token {
            kind,
            text,
            line,
            col,
        });
    }

    fn run(mut self) -> Lexed {
        while let Some(c) = self.peek(0) {
            let (line, col) = (self.line, self.col);
            match c {
                c if c.is_whitespace() => {
                    self.bump();
                }
                '/' if self.peek(1) == Some('/') => self.line_comment(),
                '/' if self.peek(1) == Some('*') => self.block_comment(),
                '"' => self.string(line, col),
                'r' | 'b' if self.raw_or_byte_literal(line, col) => {}
                c if c == '_' || c.is_alphabetic() => self.ident(line, col),
                c if c.is_ascii_digit() => self.number(line, col),
                '\'' => self.quote(line, col),
                _ => {
                    self.bump();
                    self.push(TokenKind::Punct(c), c.to_string(), line, col);
                }
            }
        }
        self.out
    }

    fn line_comment(&mut self) {
        let line = self.line;
        let mut text = String::new();
        while let Some(c) = self.peek(0) {
            if c == '\n' {
                break;
            }
            text.push(c);
            self.bump();
        }
        self.harvest_allow(&text, line);
    }

    fn block_comment(&mut self) {
        let line = self.line;
        let mut text = String::new();
        let mut depth = 0usize;
        while let Some(c) = self.peek(0) {
            if c == '/' && self.peek(1) == Some('*') {
                depth += 1;
                text.push_str("/*");
                self.bump();
                self.bump();
            } else if c == '*' && self.peek(1) == Some('/') {
                depth -= 1;
                text.push_str("*/");
                self.bump();
                self.bump();
                if depth == 0 {
                    break;
                }
            } else {
                text.push(c);
                self.bump();
            }
        }
        self.harvest_allow(&text, line);
    }

    /// Extracts `fedra-lint: allow(<lint>)` and
    /// `fedra-lint: deterministic-region` directives from comment text.
    fn harvest_allow(&mut self, text: &str, line: u32) {
        let mut rest = text;
        while let Some(at) = rest.find("fedra-lint:") {
            rest = &rest[at + "fedra-lint:".len()..];
            let trimmed = rest.trim_start();
            if let Some(args) = trimmed.strip_prefix("allow(") {
                if let Some(end) = args.find(')') {
                    for lint in args[..end].split(',') {
                        self.out.allows.push(AllowDirective {
                            lint: lint.trim().to_string(),
                            line,
                        });
                    }
                }
            } else if trimmed.starts_with("deterministic-region") {
                self.out.deterministic_markers.push(line);
            }
        }
    }

    fn string(&mut self, line: u32, col: u32) {
        let mut text = String::new();
        text.push(self.bump().unwrap_or('"')); // opening quote
        while let Some(c) = self.peek(0) {
            if c == '\\' {
                text.push(c);
                self.bump();
                if let Some(escaped) = self.bump() {
                    text.push(escaped);
                }
            } else {
                text.push(c);
                self.bump();
                if c == '"' {
                    break;
                }
            }
        }
        self.push(TokenKind::StrLit, text, line, col);
    }

    /// Handles `r"…"`, `r#"…"#`, `b"…"`, `br#"…"#` and raw identifiers
    /// (`r#ident`). Returns false when the leading `r`/`b` is just the
    /// start of a plain identifier, leaving the input untouched.
    fn raw_or_byte_literal(&mut self, line: u32, col: u32) -> bool {
        let c0 = self.peek(0);
        let mut ahead = 1;
        if c0 == Some('b') && self.peek(1) == Some('r') {
            ahead = 2;
        }
        // Count `#`s after the prefix.
        let mut hashes = 0;
        while self.peek(ahead + hashes) == Some('#') {
            hashes += 1;
        }
        match self.peek(ahead + hashes) {
            Some('"') if c0 == Some('b') && ahead == 1 && hashes == 0 => {
                // b"…": byte string with escapes, same shape as a plain one.
                self.bump(); // b
                self.string(line, col);
                true
            }
            Some('"') if ahead == 2 || c0 == Some('r') => {
                for _ in 0..ahead + hashes + 1 {
                    self.bump();
                }
                self.raw_string_body(hashes, line, col);
                true
            }
            Some(c) if c0 == Some('r') && hashes == 1 && (c == '_' || c.is_alphabetic()) => {
                // r#ident — a raw identifier; lex the ident part normally.
                self.bump();
                self.bump();
                self.ident(line, col);
                true
            }
            _ => false,
        }
    }

    fn raw_string_body(&mut self, hashes: usize, line: u32, col: u32) {
        let mut text = String::from("r\"");
        while let Some(c) = self.bump() {
            if c == '"' {
                let mut matched = 0;
                while matched < hashes && self.peek(0) == Some('#') {
                    self.bump();
                    matched += 1;
                }
                if matched == hashes {
                    break;
                }
                text.push('"');
                for _ in 0..matched {
                    text.push('#');
                }
            } else {
                text.push(c);
            }
        }
        text.push('"');
        self.push(TokenKind::StrLit, text, line, col);
    }

    fn ident(&mut self, line: u32, col: u32) {
        let mut text = String::new();
        while let Some(c) = self.peek(0) {
            if c == '_' || c.is_alphanumeric() {
                text.push(c);
                self.bump();
            } else {
                break;
            }
        }
        self.push(TokenKind::Ident, text, line, col);
    }

    fn number(&mut self, line: u32, col: u32) {
        let mut text = String::new();
        while let Some(c) = self.peek(0) {
            let take = c.is_ascii_alphanumeric()
                || c == '_'
                // Take a `.` only when a digit follows: `1.5` is one number,
                // `0..10` is a number then a range operator.
                || (c == '.' && self.peek(1).is_some_and(|d| d.is_ascii_digit()));
            if take {
                text.push(c);
                self.bump();
            } else {
                break;
            }
        }
        self.push(TokenKind::Number, text, line, col);
    }

    /// A `'` starts either a lifetime or a char literal.
    fn quote(&mut self, line: u32, col: u32) {
        self.bump(); // consume '
        match self.peek(0) {
            // Escape: definitely a char literal ('\n', '\'', '\u{1F600}').
            Some('\\') => {
                let mut text = String::from("'");
                text.push(self.bump().unwrap_or('\\'));
                // The escaped character itself — consumed unconditionally
                // so '\'' does not mistake it for the closing quote.
                if let Some(escaped) = self.bump() {
                    text.push(escaped);
                }
                while let Some(c) = self.bump() {
                    text.push(c);
                    if c == '\'' {
                        break;
                    }
                }
                self.push(TokenKind::CharLit, text, line, col);
            }
            Some(c) if c == '_' || c.is_alphabetic() => {
                // 'a' is a char literal; 'a (no closing quote) a lifetime.
                // Lifetimes are single words, so scan the ident first.
                let mut name = String::new();
                while let Some(c) = self.peek(0) {
                    if c == '_' || c.is_alphanumeric() {
                        name.push(c);
                        self.bump();
                    } else {
                        break;
                    }
                }
                if self.peek(0) == Some('\'') && name.chars().count() == 1 {
                    self.bump();
                    self.push(TokenKind::CharLit, format!("'{name}'"), line, col);
                } else {
                    self.push(TokenKind::Lifetime, name, line, col);
                }
            }
            // Any other char literal ('.', ' ', '0').
            Some(c) => {
                self.bump();
                if self.peek(0) == Some('\'') {
                    self.bump();
                }
                self.push(TokenKind::CharLit, format!("'{c}'"), line, col);
            }
            None => {}
        }
    }
}
