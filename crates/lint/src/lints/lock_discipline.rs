//! `lock-discipline`: never block on a channel while holding a lock.
//!
//! The pooled reply slots in `transport/mod.rs` are the shape most exposed
//! to this deadlock: a guard bound over `ReplyPool::slots` (or any other
//! mutex) that is still live when the thread parks in `send` / `recv` /
//! `join` serializes every other caller behind a blocked lock — and if
//! the unblocking party needs the same lock, the system stops.
//!
//! The lint flags a lock guard **bound with `let`** (`let g = m.lock();`,
//! also `.read()` / `.write()`, each optionally followed by `.unwrap()`,
//! `.expect(..)` or `.unwrap_or_else(PoisonError::into_inner)`) whose
//! enclosing scope reaches a blocking call (`.send(…)`, `.recv(…)`,
//! `.recv_timeout(…)`, `.join(…)`) before the guard is dropped — either
//! by `drop(g)` or by the scope closing. Temporary guards
//! (`m.lock().push(x);`) drop at the end of their statement and are never
//! flagged.

use crate::diagnostics::Diagnostic;
use crate::lexer::{Token, TokenKind};
use crate::registry::Lint;
use crate::scan::SourceFile;
use crate::workspace::Workspace;

/// Trailing calls that produce a lock guard.
const GUARD_METHODS: &[&str] = &["lock", "read", "write"];

/// Calls that can park the thread indefinitely.
const BLOCKING_METHODS: &[&str] = &["send", "recv", "recv_timeout", "join"];

/// A live guard binding.
struct Guard {
    name: String,
    line: u32,
    /// Brace depth at the `let` — the guard dies when depth drops below.
    depth: usize,
}

/// See the module docs.
pub struct LockDiscipline;

impl Lint for LockDiscipline {
    fn name(&self) -> &'static str {
        "lock-discipline"
    }

    fn description(&self) -> &'static str {
        "no blocking send/recv/join while a lock guard is live in the same scope"
    }

    fn check(&self, ws: &Workspace, diags: &mut Vec<Diagnostic>) {
        let files: &[SourceFile] = &ws.files;
        for file in files {
            check_file(self.name(), file, diags);
        }
    }
}

fn check_file(lint: &'static str, file: &SourceFile, diags: &mut Vec<Diagnostic>) {
    let tokens = file.tokens();
    let mut guards: Vec<Guard> = Vec::new();
    let mut depth = 0usize;
    let mut i = 0;
    while i < tokens.len() {
        if file.in_test_code(i) {
            i += 1;
            continue;
        }
        let t = &tokens[i];
        match t.kind {
            TokenKind::Punct('{') => depth += 1,
            TokenKind::Punct('}') => {
                depth = depth.saturating_sub(1);
                guards.retain(|g| g.depth <= depth);
            }
            TokenKind::Ident if t.text == "let" => {
                if let Some((name, end)) = guard_binding(tokens, i) {
                    guards.push(Guard {
                        name,
                        line: t.line,
                        depth,
                    });
                    i = end + 1;
                    continue;
                }
            }
            // `drop(g)` releases the guard explicitly.
            TokenKind::Ident if t.text == "drop" => {
                let call = tokens.get(i + 1).is_some_and(|t| t.is_punct('('))
                    && tokens.get(i + 3).is_some_and(|t| t.is_punct(')'));
                if let Some(name) = tokens.get(i + 2).filter(|_| call) {
                    guards.retain(|g| g.name != name.text);
                }
            }
            TokenKind::Ident
                if BLOCKING_METHODS.iter().any(|m| t.is_ident(m))
                    && i > 0
                    && tokens[i - 1].is_punct('.')
                    && tokens.get(i + 1).is_some_and(|n| n.is_punct('(')) =>
            {
                if let Some(g) = guards.last() {
                    diags.push(Diagnostic {
                        lint,
                        file: file.path.clone(),
                        line: t.line,
                        col: t.col,
                        message: format!(
                            "blocking `.{}()` while lock guard `{}` (bound on line {}) is \
                             still live; drop the guard before blocking or the channel's \
                             peers deadlock behind the lock",
                            t.text, g.name, g.line
                        ),
                    });
                }
            }
            _ => {}
        }
        i += 1;
    }
}

/// Decides whether the `let` at `start` binds a lock guard. Returns the
/// bound name and the index of the statement's terminating `;`.
///
/// A guard binding is a statement whose right-hand side *ends* in
/// `.lock()` / `.read()` / `.write()`, optionally followed by
/// `.unwrap()`, `.expect("…")` or `.unwrap_or_else(…)` (the poison
/// recovery every lock in the workspace uses) — anything else chained
/// after the guard (`.lock().pop()`) consumes it within the statement.
fn guard_binding(tokens: &[Token], start: usize) -> Option<(String, usize)> {
    // Pattern: `let [mut] <ident> [: ty] = … ;` — tuple/struct patterns
    // are never guard bindings we can track; skip them.
    let mut i = start + 1;
    if tokens.get(i).is_some_and(|t| t.is_ident("mut")) {
        i += 1;
    }
    let name = match tokens.get(i) {
        Some(t) if t.kind == TokenKind::Ident && t.text != "_" => t.text.clone(),
        _ => return None,
    };
    // Find the terminating `;` at bracket depth 0 relative to here.
    let mut j = i + 1;
    let mut nest = 0isize;
    let mut stmt_end = None;
    while j < tokens.len() {
        match tokens[j].kind {
            TokenKind::Punct('(') | TokenKind::Punct('[') | TokenKind::Punct('{') => nest += 1,
            TokenKind::Punct(')') | TokenKind::Punct(']') | TokenKind::Punct('}') => nest -= 1,
            TokenKind::Punct(';') if nest == 0 => {
                stmt_end = Some(j);
                break;
            }
            _ => {}
        }
        j += 1;
    }
    let end = stmt_end?;
    // Strip a trailing `.unwrap()` / `.expect(…)` / `.unwrap_or_else(…)`.
    let mut tail = end;
    if tokens
        .get(tail.wrapping_sub(1))
        .is_some_and(|t| t.is_punct(')'))
    {
        let mut k = tail - 1;
        // Walk back over one `(...)` group.
        let mut close = 1;
        while k > 0 && close > 0 {
            k -= 1;
            match tokens[k].kind {
                TokenKind::Punct(')') => close += 1,
                TokenKind::Punct('(') => close -= 1,
                _ => {}
            }
        }
        if k >= 2
            && matches!(&tokens[k - 1].kind, TokenKind::Ident)
            && ["unwrap", "expect", "unwrap_or_else"]
                .iter()
                .any(|m| tokens[k - 1].is_ident(m))
            && tokens[k - 2].is_punct('.')
        {
            tail = k - 2;
        }
    }
    // The remaining statement must end `… . <guard-method> ( )`.
    let is_guard = tail >= 4
        && tokens[tail - 1].is_punct(')')
        && tokens[tail - 2].is_punct('(')
        && GUARD_METHODS.iter().any(|m| tokens[tail - 3].is_ident(m))
        && tokens[tail - 4].is_punct('.');
    if is_guard {
        Some((name, end))
    } else {
        None
    }
}
