//! Token-stream scanning utilities shared by the lints.
//!
//! Everything here works on the flat [`Token`] stream of
//! [`crate::lexer::lex`] — no syntax tree. The helpers encode the handful
//! of structural facts the lints need: matching delimiters, `#[cfg(test)]`
//! / `#[test]` regions, and enum bodies.

use std::path::Path;

use crate::lexer::{lex, Lexed, Token, TokenKind};

/// A lexed source file plus the derived facts lints share.
#[derive(Debug, Clone)]
pub struct SourceFile {
    /// Repo-relative path, forward slashes (stable across platforms).
    pub path: String,
    /// Token stream and allow directives.
    pub lexed: Lexed,
    /// Half-open token-index ranges covered by `#[test]` functions or
    /// `#[cfg(test)]` items (typically the `mod tests` block).
    pub test_regions: Vec<(usize, usize)>,
}

impl SourceFile {
    /// Lexes `source` as `path` (repo-relative).
    pub fn new(path: String, source: &str) -> SourceFile {
        let lexed = lex(source);
        let test_regions = test_regions(&lexed.tokens);
        SourceFile {
            path,
            lexed,
            test_regions,
        }
    }

    /// Reads and lexes a file on disk. `root` anchors the repo-relative
    /// path recorded in diagnostics.
    pub fn load(root: &Path, abs: &Path) -> std::io::Result<SourceFile> {
        let source = std::fs::read_to_string(abs)?;
        let rel = abs.strip_prefix(root).unwrap_or(abs);
        let path = rel
            .components()
            .map(|c| c.as_os_str().to_string_lossy())
            .collect::<Vec<_>>()
            .join("/");
        Ok(SourceFile::new(path, &source))
    }

    /// The token stream.
    pub fn tokens(&self) -> &[Token] {
        &self.lexed.tokens
    }

    /// Whether token `idx` falls inside a test region.
    pub fn in_test_code(&self, idx: usize) -> bool {
        self.test_regions
            .iter()
            .any(|&(start, end)| idx >= start && idx < end)
    }
}

/// Index of the delimiter matching the opener at `open` (`{`/`}`, `(`/`)`,
/// `[`/`]`), or the end of the stream if unbalanced.
pub fn matching(tokens: &[Token], open: usize) -> usize {
    let (open_c, close_c) = match tokens[open].kind {
        TokenKind::Punct('{') => ('{', '}'),
        TokenKind::Punct('(') => ('(', ')'),
        TokenKind::Punct('[') => ('[', ']'),
        _ => return open,
    };
    let mut depth = 0usize;
    for (i, t) in tokens.iter().enumerate().skip(open) {
        if t.is_punct(open_c) {
            depth += 1;
        } else if t.is_punct(close_c) {
            depth -= 1;
            if depth == 0 {
                return i;
            }
        }
    }
    tokens.len()
}

/// Computes the token ranges covered by test-only code: any item carrying
/// a `#[…test…]` attribute (`#[test]`, `#[cfg(test)]`). The region spans
/// from the attribute to the matching close brace of the item's body.
fn test_regions(tokens: &[Token]) -> Vec<(usize, usize)> {
    let mut regions = Vec::new();
    let mut i = 0;
    while i < tokens.len() {
        if tokens[i].is_punct('#') && i + 1 < tokens.len() && tokens[i + 1].is_punct('[') {
            let attr_end = matching(tokens, i + 1);
            let is_test_attr = tokens[i + 1..attr_end].iter().any(|t| t.is_ident("test"));
            if is_test_attr {
                // Find the item's body: the first `{` before any `;` (a
                // braceless item like `use …;` has no body to skip).
                let mut j = attr_end + 1;
                let mut body = None;
                while j < tokens.len() {
                    if tokens[j].is_punct('{') {
                        body = Some(j);
                        break;
                    }
                    if tokens[j].is_punct(';') {
                        break;
                    }
                    j += 1;
                }
                if let Some(body) = body {
                    let end = matching(tokens, body);
                    regions.push((i, end + 1));
                    i = end + 1;
                    continue;
                }
            }
            i = attr_end + 1;
            continue;
        }
        i += 1;
    }
    regions
}

/// Finds `enum <name> { … }` and returns the token range of its body
/// (exclusive of the braces), or `None` when absent.
pub fn enum_body(tokens: &[Token], name: &str) -> Option<(usize, usize)> {
    for i in 0..tokens.len() {
        if tokens[i].is_ident("enum") && tokens.get(i + 1).is_some_and(|t| t.is_ident(name)) {
            // Skip generics/where up to the opening brace.
            let mut j = i + 2;
            while j < tokens.len() && !tokens[j].is_punct('{') {
                j += 1;
            }
            if j < tokens.len() {
                return Some((j + 1, matching(tokens, j)));
            }
        }
    }
    None
}
