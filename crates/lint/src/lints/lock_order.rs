//! `lock-order`: no cyclic lock-acquisition order across the workspace.
//!
//! `lock-discipline` is purely local — it catches a thread parking on a
//! channel while holding a guard. The classic two-lock deadlock is not
//! local: thread 1 takes `a` then `b`, thread 2 takes `b` then `a`, and
//! neither ever blocks on a channel. This lint builds a per-function
//! **lock-acquisition summary** (which locks a function takes, and which
//! it takes while already holding another), stitches the summaries
//! together one call level deep through a name-resolved workspace call
//! graph, and reports every pair of locks acquired in both orders.
//!
//! Lock identity is the receiver identifier before `.lock()` / `.read()`
//! / `.write()` — `self.pairs.lock()` and `pool.pairs.lock()` are both
//! the lock `pairs`. That conflates same-named fields on different
//! types; for this workspace (a handful of mutexes, uniquely named) the
//! approximation is exact, and a false pairing is easy to `allow` with a
//! comment naming the two distinct types.
//!
//! Call-graph propagation is one level and name-based: a call site
//! `f(…)` / `x.f(…)` made while holding lock `A` contributes edges
//! `A → B` for every lock `B` that `f` acquires — but only when `f`
//! resolves uniquely (exactly one `fn f` in the workspace). Ambiguous
//! names are skipped rather than guessed.

use std::collections::BTreeMap;

use crate::diagnostics::{Diagnostic, Level};
use crate::lexer::{Token, TokenKind};
use crate::registry::Lint;
use crate::scan::{matching, SourceFile};
use crate::workspace::Workspace;

/// Trailing calls that produce a lock guard.
const GUARD_METHODS: &[&str] = &["lock", "read", "write"];

/// Idents that look like calls but are control flow or bindings.
const NOT_CALLS: &[&str] = &[
    "if", "while", "match", "for", "return", "fn", "let", "loop", "move", "in", "as", "else",
    "Some", "Ok", "Err", "None", "Box", "Vec", "String",
];

/// See the module docs.
pub struct LockOrder;

impl Lint for LockOrder {
    fn name(&self) -> &'static str {
        "lock-order"
    }

    fn description(&self) -> &'static str {
        "no pair of locks acquired in both orders (per-function summaries propagated one \
         call level through the workspace call graph)"
    }

    fn check(&self, ws: &Workspace, diags: &mut Vec<Diagnostic>) {
        // Pass 1: summarize every function in the workspace.
        let mut fns: Vec<FnSummary> = Vec::new();
        for file in &ws.files {
            summarize_file(file, &mut fns);
        }

        // Name resolution: how many functions share each name.
        let mut by_name: BTreeMap<&str, Vec<usize>> = BTreeMap::new();
        for (i, f) in fns.iter().enumerate() {
            by_name.entry(&f.name).or_default().push(i);
        }

        // Pass 2: direct edges plus one level of call-graph propagation.
        let mut edges: BTreeMap<(String, String), Vec<Site>> = BTreeMap::new();
        for f in &fns {
            for e in &f.edges {
                edges
                    .entry((e.0.clone(), e.1.clone()))
                    .or_default()
                    .push(e.2.clone());
            }
            for call in &f.calls {
                let Some(targets) = by_name.get(call.callee.as_str()) else {
                    continue;
                };
                if targets.len() != 1 {
                    continue; // ambiguous name: don't guess
                }
                let callee = &fns[targets[0]];
                for held in &call.held {
                    for acquired in &callee.acquires {
                        if held == acquired {
                            continue;
                        }
                        let mut site = call.site.clone();
                        site.note = Some(format!("via call to `{}`", call.callee));
                        edges
                            .entry((held.clone(), acquired.clone()))
                            .or_default()
                            .push(site);
                    }
                }
            }
        }

        // Report each unordered pair acquired in both orders, once, at the
        // lexically-first site of either direction.
        for ((a, b), fwd) in &edges {
            if a >= b {
                continue; // visit each unordered pair once, from (a, b) a < b
            }
            let Some(rev) = edges.get(&(b.clone(), a.clone())) else {
                continue;
            };
            let first_fwd = fwd.iter().min().expect("edge lists are non-empty");
            let first_rev = rev.iter().min().expect("edge lists are non-empty");
            let (site, there, here_order, there_order) = if first_fwd <= first_rev {
                (first_fwd, first_rev, (a, b), (b, a))
            } else {
                (first_rev, first_fwd, (b, a), (a, b))
            };
            let via = site
                .note
                .as_ref()
                .map(|n| format!(" ({n})"))
                .unwrap_or_default();
            let there_via = there
                .note
                .as_ref()
                .map(|n| format!(" ({n})"))
                .unwrap_or_default();
            diags.push(Diagnostic {
                lint: self.name(),
                level: Level::Deny,
                file: site.file.clone(),
                line: site.line,
                col: site.col,
                message: format!(
                    "lock-order cycle: `{}` then `{}` here{}, but `{}` then `{}` at {}:{}{}; \
                     two threads taking these in opposite orders deadlock — pick one order \
                     and use it everywhere",
                    here_order.0,
                    here_order.1,
                    via,
                    there_order.0,
                    there_order.1,
                    there.file,
                    there.line,
                    there_via,
                ),
            });
        }
    }
}

/// Where an edge was observed.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
struct Site {
    file: String,
    line: u32,
    col: u32,
    /// Set when the edge came from call-graph propagation.
    note: Option<String>,
}

/// A call made while holding locks.
#[derive(Debug)]
struct CallSite {
    callee: String,
    held: Vec<String>,
    site: Site,
}

/// What one function does with locks.
#[derive(Debug)]
struct FnSummary {
    name: String,
    /// Every lock this function acquires anywhere in its body (sorted,
    /// deduped) — what a caller holding a lock inherits as edges.
    acquires: Vec<String>,
    /// Direct `held → acquired` edges observed inside the body.
    edges: Vec<(String, String, Site)>,
    /// Calls made while at least one lock was held.
    calls: Vec<CallSite>,
}

/// A live let-bound guard inside one function body.
struct Guard {
    name: String,
    lock: String,
    depth: usize,
}

/// Extracts a [`FnSummary`] for every non-test `fn` in `file`.
fn summarize_file(file: &SourceFile, out: &mut Vec<FnSummary>) {
    let tokens = file.tokens();
    let mut i = 0;
    while i < tokens.len() {
        if !file.in_test_code(i)
            && tokens[i].is_ident("fn")
            && tokens
                .get(i + 1)
                .is_some_and(|t| t.kind == TokenKind::Ident)
        {
            let name = tokens[i + 1].text.clone();
            // Find the body `{` before any `;` (trait method decls have none).
            let mut j = i + 2;
            let mut body_open = None;
            while j < tokens.len() {
                if tokens[j].is_punct('{') {
                    body_open = Some(j);
                    break;
                }
                if tokens[j].is_punct(';') {
                    break;
                }
                j += 1;
            }
            if let Some(open) = body_open {
                let close = matching(tokens, open);
                out.push(summarize_fn(file, name, open + 1, close));
                i = close + 1;
                continue;
            }
        }
        i += 1;
    }
}

/// Summarizes one function body (`tokens[start..end]`).
fn summarize_fn(file: &SourceFile, name: String, start: usize, end: usize) -> FnSummary {
    let tokens = file.tokens();
    let mut summary = FnSummary {
        name,
        acquires: Vec::new(),
        edges: Vec::new(),
        calls: Vec::new(),
    };
    let mut guards: Vec<Guard> = Vec::new();
    let mut depth = 0usize;
    let mut i = start;
    while i < end {
        let t = &tokens[i];
        match t.kind {
            TokenKind::Punct('{') => depth += 1,
            TokenKind::Punct('}') => {
                depth = depth.saturating_sub(1);
                guards.retain(|g| g.depth <= depth);
            }
            TokenKind::Ident if t.text == "drop" => {
                let call = tokens.get(i + 1).is_some_and(|t| t.is_punct('('))
                    && tokens.get(i + 3).is_some_and(|t| t.is_punct(')'));
                if let Some(inner) = tokens.get(i + 2).filter(|_| call) {
                    guards.retain(|g| g.name != inner.text);
                }
            }
            // An acquisition: `<recv> . lock|read|write (`.
            TokenKind::Ident
                if GUARD_METHODS.iter().any(|m| t.is_ident(m))
                    && i >= 2
                    && tokens[i - 1].is_punct('.')
                    && tokens[i - 2].kind == TokenKind::Ident
                    && tokens.get(i + 1).is_some_and(|n| n.is_punct('(')) =>
            {
                let lock = tokens[i - 2].text.clone();
                let site = Site {
                    file: file.path.clone(),
                    line: t.line,
                    col: t.col,
                    note: None,
                };
                for g in &guards {
                    if g.lock != lock {
                        summary
                            .edges
                            .push((g.lock.clone(), lock.clone(), site.clone()));
                    }
                }
                summary.acquires.push(lock.clone());
                // If this acquisition is the tail of a `let` binding, the
                // guard stays live: track it.
                if let Some(bound) = binding_name(tokens, start, i) {
                    guards.push(Guard {
                        name: bound,
                        lock,
                        depth,
                    });
                }
            }
            // A call made while holding locks: `f(` or `.f(`.
            TokenKind::Ident
                if !guards.is_empty()
                    && tokens.get(i + 1).is_some_and(|n| n.is_punct('('))
                    && !GUARD_METHODS.iter().any(|m| t.is_ident(m))
                    && !NOT_CALLS.iter().any(|m| t.is_ident(m)) =>
            {
                summary.calls.push(CallSite {
                    callee: t.text.clone(),
                    held: guards.iter().map(|g| g.lock.clone()).collect(),
                    site: Site {
                        file: file.path.clone(),
                        line: t.line,
                        col: t.col,
                        note: None,
                    },
                });
            }
            _ => {}
        }
        i += 1;
    }
    summary.acquires.sort();
    summary.acquires.dedup();
    summary
}

/// If the guard-method call at `at` is the right-hand side of a
/// `let <name> = …` statement, returns the bound name.
///
/// Walks back from `at` to the start of the statement (the nearest `;`,
/// `{` or `}` at the same nesting) and checks it opens with
/// `let [mut] <ident> [: …] =`. The statement must *end* with the guard
/// call (optionally `.unwrap()` / `.expect(…)`), otherwise the guard is a
/// temporary consumed within the statement (`m.lock().push(x)`).
fn binding_name(tokens: &[Token], body_start: usize, at: usize) -> Option<String> {
    // Statement start: scan back for `;`, `{` or `}` (skipping nothing —
    // nested closing delims before `at` at the same level end statements
    // too rarely to matter for guard bindings, which are simple).
    let mut s = at;
    while s > body_start {
        let t = &tokens[s - 1];
        if t.is_punct(';') || t.is_punct('{') || t.is_punct('}') {
            break;
        }
        s -= 1;
    }
    if !tokens.get(s).is_some_and(|t| t.is_ident("let")) {
        return None;
    }
    let mut i = s + 1;
    if tokens.get(i).is_some_and(|t| t.is_ident("mut")) {
        i += 1;
    }
    let name = match tokens.get(i) {
        Some(t) if t.kind == TokenKind::Ident && t.text != "_" => t.text.clone(),
        _ => return None,
    };
    // The statement must terminate with the guard: after the call's `()`
    // and an optional `.unwrap()`/`.expect(…)`, the next token is `;`.
    let args_close = matching(tokens, at + 1);
    let mut j = args_close + 1;
    if tokens.get(j).is_some_and(|t| t.is_punct('.'))
        && tokens
            .get(j + 1)
            .is_some_and(|t| t.is_ident("unwrap") || t.is_ident("expect"))
        && tokens.get(j + 2).is_some_and(|t| t.is_punct('('))
    {
        j = matching(tokens, j + 2) + 1;
    }
    if tokens.get(j).is_some_and(|t| t.is_punct(';')) {
        Some(name)
    } else {
        None
    }
}
