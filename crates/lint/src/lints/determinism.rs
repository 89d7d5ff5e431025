//! `determinism-discipline`: no order-, clock- or identity-dependent
//! constructs inside designated deterministic regions.
//!
//! The repo's load-bearing guarantee — results bit-identical at every
//! pool size, every seed reproducible bit-for-bit — is enforced
//! dynamically by `tests/parallel_equivalence.rs` and `tests/chaos.rs`,
//! but a dynamic test only covers the paths it exercises. This lint makes
//! the contract static for the regions where nondeterminism could reach
//! a result: the merge/reduce paths, the wire encoding, the answer cache
//! and the RNG-seeded estimators.
//!
//! Inside a deterministic region (the built-in list below, or any module
//! carrying a `// fedra-lint: deterministic-region` marker) four shapes
//! are flagged:
//!
//! 1. **unordered iteration** — `iter`/`into_iter`/`keys`/`values`/
//!    `drain` (and `_mut` variants) on a binding declared as `HashMap`/
//!    `HashSet`, or a `for` loop over one. Hash-map order is an accident
//!    of hasher and history; if it reaches a merge, an export or an
//!    eviction decision, two runs can disagree. Use `BTreeMap`, sorted
//!    iteration, or a total-order reduction, then `allow` with a comment
//!    stating why order cannot escape.
//! 2. **wall-clock reads** — `Instant::now`/`SystemTime::now`. Time is
//!    the canonical nondeterministic input; deadline budgets and TTLs
//!    that are wall-clock *by design* carry an `allow` explaining that
//!    the reading never feeds a result value.
//! 3. **thread identity** — `thread::current().id()`: scheduling order
//!    must never become data.
//! 4. **order-sensitive float comparison/reduction** — `partial_cmp`
//!    inside a `sort_by`/`min_by`/`max_by` comparator (ties and NaN fall
//!    back to input order; use `total_cmp` and a full tie-break), and a
//!    float reduction (`sum`/`fold`/`product`) in the same statement as a
//!    channel drain (`recv`/`try_iter`): float addition is not
//!    associative, so completion order changes the result.

use crate::diagnostics::Diagnostic;
use crate::lexer::{Token, TokenKind};
use crate::registry::Lint;
use crate::scan::{matching, SourceFile};
use crate::workspace::Workspace;

/// Files that are deterministic regions by default: the merge/reduce
/// paths, the answer cache, wire encoding/export, the RNG-seeded
/// estimators and the seeded fault plan (its schedules key on request
/// counters, never the clock), plus the whole index crate (every build
/// there is covered by the pool-size bit-identity contract).
pub(super) const DEFAULT_REGIONS: &[&str] = &[
    "crates/core/src/sampling.rs",
    "crates/core/src/exact.rs",
    "crates/core/src/opta.rs",
    "crates/core/src/algorithm.rs",
    "crates/core/src/framework.rs",
    "crates/core/src/cache.rs",
    "crates/federation/src/fault.rs",
    "crates/federation/src/wire.rs",
    "crates/federation/src/protocol.rs",
    "crates/federation/src/snapshot.rs",
    "crates/geo/src/area.rs",
    "crates/index/src/",
];

/// Iteration methods whose visit order is the container's hash order.
const UNORDERED_ITER_METHODS: &[&str] = &[
    "iter",
    "iter_mut",
    "into_iter",
    "keys",
    "into_keys",
    "values",
    "values_mut",
    "into_values",
    "drain",
];

/// Sort/min/max call sites whose comparator must be a total order.
const ORDERING_SINKS: &[&str] = &[
    "sort_by",
    "sort_unstable_by",
    "sort_by_key",
    "min_by",
    "max_by",
    "binary_search_by",
];

/// Channel-drain calls that yield values in completion order.
const COMPLETION_SOURCES: &[&str] = &[
    "recv",
    "try_recv",
    "recv_timeout",
    "recv_deadline",
    "try_iter",
];

/// Float reductions that are order-sensitive (addition/multiplication of
/// floats is not associative).
const FLOAT_REDUCTIONS: &[&str] = &["sum", "product", "fold"];

/// See the module docs.
pub struct DeterminismDiscipline;

impl Lint for DeterminismDiscipline {
    fn name(&self) -> &'static str {
        "determinism-discipline"
    }

    fn description(&self) -> &'static str {
        "no unordered-map iteration, wall-clock reads, thread identity or order-sensitive \
         float reductions in deterministic regions"
    }

    fn check(&self, ws: &Workspace, diags: &mut Vec<Diagnostic>) {
        for file in &ws.files {
            if !in_region(file) {
                continue;
            }
            check_file(self.name(), file, diags);
        }
    }
}

/// Whether `file` is a designated deterministic region (built-in list or
/// module-level marker).
fn in_region(file: &SourceFile) -> bool {
    !file.lexed.deterministic_markers.is_empty()
        || DEFAULT_REGIONS.iter().any(|r| {
            if r.ends_with('/') {
                file.path.contains(r)
            } else {
                file.path.ends_with(r)
            }
        })
}

fn check_file(lint: &'static str, file: &SourceFile, diags: &mut Vec<Diagnostic>) {
    let tokens = file.tokens();
    let unordered = unordered_names(tokens);
    let mut i = 0;
    while i < tokens.len() {
        if file.in_test_code(i) {
            i += 1;
            continue;
        }
        let t = &tokens[i];
        if t.kind == TokenKind::Ident {
            // (2) Wall-clock reads: `Instant::now(` / `SystemTime::now(`.
            if (t.text == "Instant" || t.text == "SystemTime") && is_path_call(tokens, i, "now") {
                diags.push(diag(
                    lint,
                    file,
                    t,
                    format!(
                        "`{}::now()` in a deterministic region; wall-clock readings are \
                         nondeterministic input — thread a logical clock through, or \
                         `allow` with a comment stating the reading never feeds a result",
                        t.text
                    ),
                ));
            }
            // (3) Thread identity: `thread::current().id()`.
            if t.text == "thread" && is_thread_id_chain(tokens, i) {
                diags.push(diag(
                    lint,
                    file,
                    t,
                    "`thread::current().id()` in a deterministic region; scheduling \
                     identity must never become data"
                        .to_string(),
                ));
            }
            // (1) Unordered iteration: `<name>.<iter-method>(` where
            // `<name>` was declared as a HashMap/HashSet.
            if UNORDERED_ITER_METHODS.iter().any(|m| t.text == *m)
                && i >= 2
                && tokens[i - 1].is_punct('.')
                && tokens.get(i + 1).is_some_and(|n| n.is_punct('('))
                && tokens[i - 2].kind == TokenKind::Ident
                && unordered.contains(&tokens[i - 2].text)
            {
                diags.push(diag(
                    lint,
                    file,
                    t,
                    format!(
                        "`.{}()` on unordered container `{}` in a deterministic region; \
                         hash order is an accident of hasher and history — use a \
                         `BTreeMap`/sorted iteration, or `allow` with a comment stating \
                         why order cannot escape",
                        t.text,
                        tokens[i - 2].text
                    ),
                ));
            }
            // (1b) `for x in [&mut] <name> {` over an unordered container.
            if t.text == "for" {
                if let Some((name_idx, name)) = for_loop_target(tokens, i) {
                    if unordered.contains(&name) {
                        let at = &tokens[name_idx];
                        diags.push(diag(
                            lint,
                            file,
                            at,
                            format!(
                                "`for` loop over unordered container `{name}` in a \
                                 deterministic region; iterate in a total order instead"
                            ),
                        ));
                    }
                }
            }
            // (4a) `partial_cmp` inside a sort/min/max comparator.
            if ORDERING_SINKS.iter().any(|m| t.text == *m)
                && i >= 1
                && tokens[i - 1].is_punct('.')
                && tokens.get(i + 1).is_some_and(|n| n.is_punct('('))
            {
                let close = matching(tokens, i + 1);
                for tok in &tokens[i + 2..close] {
                    if tok.is_ident("partial_cmp") {
                        diags.push(diag(
                            lint,
                            file,
                            tok,
                            format!(
                                "`partial_cmp` inside a `{}` comparator in a deterministic \
                                 region; ties and NaN fall back to input order — use \
                                 `total_cmp` and a full tie-break",
                                t.text
                            ),
                        ));
                    }
                }
            }
            // (4b) Float reduction in the same statement as a
            // completion-order channel drain.
            if FLOAT_REDUCTIONS.iter().any(|m| t.text == *m)
                && i >= 1
                && tokens[i - 1].is_punct('.')
                && tokens.get(i + 1).is_some_and(|n| n.is_punct('('))
                && statement_has_completion_source(tokens, i)
            {
                diags.push(diag(
                    lint,
                    file,
                    t,
                    format!(
                        "float `.{}()` over a completion-order source in a deterministic \
                         region; float reduction is not associative, so completion order \
                         changes the result — collect and reduce in a fixed order",
                        t.text
                    ),
                ));
            }
        }
        i += 1;
    }
}

fn diag(lint: &'static str, file: &SourceFile, at: &Token, message: String) -> Diagnostic {
    Diagnostic {
        lint,
        file: file.path.clone(),
        line: at.line,
        col: at.col,
        message,
    }
}

/// Whether tokens at `i` start `<Ident>::<method>(`.
fn is_path_call(tokens: &[Token], i: usize, method: &str) -> bool {
    tokens.get(i + 1).is_some_and(|t| t.is_punct(':'))
        && tokens.get(i + 2).is_some_and(|t| t.is_punct(':'))
        && tokens.get(i + 3).is_some_and(|t| t.is_ident(method))
        && tokens.get(i + 4).is_some_and(|t| t.is_punct('('))
}

/// Whether tokens at `i` (= `thread`) start `thread::current().id(`.
fn is_thread_id_chain(tokens: &[Token], i: usize) -> bool {
    is_path_call(tokens, i, "current")
        && tokens.get(i + 5).is_some_and(|t| t.is_punct(')'))
        && tokens.get(i + 6).is_some_and(|t| t.is_punct('.'))
        && tokens.get(i + 7).is_some_and(|t| t.is_ident("id"))
}

/// For a `for` token at `i`, finds the loop's iterated identifier when the
/// loop has the shape `for <pat> in [&][mut] <ident> {`.
fn for_loop_target(tokens: &[Token], i: usize) -> Option<(usize, String)> {
    // Find `in` before the body `{` (patterns contain no braces).
    let mut j = i + 1;
    while j < tokens.len() && !tokens[j].is_punct('{') {
        if tokens[j].is_ident("in") {
            let mut k = j + 1;
            while k < tokens.len() && (tokens[k].is_punct('&') || tokens[k].is_ident("mut")) {
                k += 1;
            }
            if tokens.get(k).is_some_and(|t| t.kind == TokenKind::Ident)
                && tokens.get(k + 1).is_some_and(|t| t.is_punct('{'))
            {
                return Some((k, tokens[k].text.clone()));
            }
            return None;
        }
        j += 1;
    }
    None
}

/// Collects the identifiers declared as `HashMap`/`HashSet` in this file:
/// type ascriptions (`name: HashMap<…>`, including struct fields and
/// `std::collections::` paths) and constructor bindings
/// (`name = HashMap::new()` and friends).
fn unordered_names(tokens: &[Token]) -> Vec<String> {
    let mut names = Vec::new();
    for i in 0..tokens.len() {
        let t = &tokens[i];
        if !(t.is_ident("HashMap") || t.is_ident("HashSet")) {
            continue;
        }
        // Walk back over a `std :: collections ::`-style path prefix.
        let mut k = i;
        while k >= 3
            && tokens[k - 1].is_punct(':')
            && tokens[k - 2].is_punct(':')
            && tokens[k - 3].kind == TokenKind::Ident
        {
            k -= 3;
        }
        if k < 2 {
            continue;
        }
        // `name : HashMap` — a type ascription (let, field, or param).
        // The `:` must be single (not `::`, already stripped above).
        if tokens[k - 1].is_punct(':')
            && !tokens
                .get(k.wrapping_sub(2))
                .is_some_and(|t| t.is_punct(':'))
            && tokens[k - 2].kind == TokenKind::Ident
        {
            names.push(tokens[k - 2].text.clone());
            continue;
        }
        // `name = HashMap :: <ctor>` — a constructor binding.
        if tokens[k - 1].is_punct('=') && tokens[k - 2].kind == TokenKind::Ident {
            names.push(tokens[k - 2].text.clone());
        }
    }
    names.sort();
    names.dedup();
    names
}

/// Whether the statement containing the method call at `i` also contains a
/// completion-order channel drain. The statement is bounded by the nearest
/// `;`, `{` or `}` on each side.
fn statement_has_completion_source(tokens: &[Token], i: usize) -> bool {
    let boundary = |t: &Token| t.is_punct(';') || t.is_punct('{') || t.is_punct('}');
    let start = (0..i)
        .rev()
        .find(|&j| boundary(&tokens[j]))
        .map_or(0, |j| j + 1);
    let end = (i..tokens.len())
        .find(|&j| boundary(&tokens[j]))
        .unwrap_or(tokens.len());
    (start..end).any(|j| {
        COMPLETION_SOURCES.iter().any(|m| tokens[j].is_ident(m))
            && j >= 1
            && tokens[j - 1].is_punct('.')
            && tokens.get(j + 1).is_some_and(|n| n.is_punct('('))
    })
}
