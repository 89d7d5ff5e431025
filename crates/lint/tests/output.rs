//! Machine-readable output: stability (byte-identical across runs),
//! well-formedness (a tiny JSON parser — no serde in this crate) and
//! suppression-state round-tripping through the baseline.

use std::path::{Path, PathBuf};

use fedra_lint::diagnostics::Baseline;
use fedra_lint::output::{render_json, render_sarif};
use fedra_lint::registry::Registry;
use fedra_lint::workspace::{run_check, BASELINE_PATH};

/// Builds a scratch workspace with one violation per new pass and
/// returns its root.
fn scratch_tree(tag: &str) -> PathBuf {
    let root = std::env::temp_dir().join(format!("fedra-lint-output-{tag}-{}", std::process::id()));
    let fed = root.join("crates/federation/src");
    let core = root.join("crates/core/src");
    std::fs::create_dir_all(&fed).expect("scratch tree");
    std::fs::create_dir_all(&core).expect("scratch tree");
    std::fs::write(
        fed.join("transport.rs"),
        "fn hot(rx: Receiver<u8>) -> u8 { rx.recv().unwrap() }\n",
    )
    .expect("write fixture");
    std::fs::write(
        core.join("planner.rs"),
        "fn merge(m: HashMap<u64, f64>) -> usize { m.values().count() }\n",
    )
    .expect("write fixture");
    root
}

fn check(root: &Path) -> fedra_lint::workspace::Report {
    run_check(root, &Registry::with_default_lints()).expect("scratch tree is readable")
}

#[test]
fn json_and_sarif_are_byte_identical_across_runs() {
    let root = scratch_tree("stable");
    let registry = Registry::with_default_lints();
    let rules = registry.lints();

    let first = check(&root);
    let second = check(&root);
    assert_eq!(render_json(&first, &rules), render_json(&second, &rules));
    assert_eq!(render_sarif(&first, &rules), render_sarif(&second, &rules));

    std::fs::remove_dir_all(&root).ok();
}

#[test]
fn json_output_parses_and_carries_the_findings() {
    let root = scratch_tree("json");
    let registry = Registry::with_default_lints();
    let json = render_json(&check(&root), &registry.lints());

    parse_json(&json);
    assert!(json.contains("\"rule\": \"panic-discipline\""));
    assert!(json.contains("\"rule\": \"determinism-discipline\""));
    assert!(json.contains("\"file\": \"crates/federation/src/transport.rs\""));
    assert!(json.contains("\"suppressed\": false"));
    // Per-rule totals (what ci.sh diffs) cover every registered rule.
    for (name, _, _) in registry.lints() {
        assert!(json.contains(&format!("\"{name}\":")), "missing {name}");
    }

    std::fs::remove_dir_all(&root).ok();
}

#[test]
fn sarif_output_parses_with_rules_spans_and_suppressions() {
    let root = scratch_tree("sarif");
    let registry = Registry::with_default_lints();
    let rules = registry.lints();

    let report = check(&root);
    let sarif = render_sarif(&report, &rules);
    parse_json(&sarif);
    assert!(sarif.contains("\"version\": \"2.1.0\""));
    assert!(sarif.contains("\"ruleId\": \"panic-discipline\""));
    assert!(sarif.contains("\"startLine\""));
    // Nothing is baselined yet, so no suppressions appear.
    assert!(!sarif.contains("\"suppressions\""));

    // Baseline the findings: the same findings re-render as suppressed,
    // in both formats, and the run goes clean.
    std::fs::create_dir_all(root.join("crates/lint")).expect("baseline dir");
    std::fs::write(root.join(BASELINE_PATH), Baseline::render(&report.failing))
        .expect("write baseline");
    let baselined = check(&root);
    assert!(baselined.is_clean());
    let sarif = render_sarif(&baselined, &rules);
    parse_json(&sarif);
    assert!(sarif.contains("\"suppressions\": [ { \"kind\": \"external\" } ]"));
    let json = render_json(&baselined, &rules);
    parse_json(&json);
    assert!(json.contains("\"suppressed\": true"));
    assert!(!json.contains("\"suppressed\": false"));

    std::fs::remove_dir_all(&root).ok();
}

// ----------------------------------------------------------------- JSON parser
//
// A minimal recursive-descent JSON reader, enough to prove the emitted
// documents are well-formed (balanced structure, legal strings/numbers/
// literals). Panics on malformed input.

fn parse_json(text: &str) {
    let chars: Vec<char> = text.chars().collect();
    let mut pos = 0usize;
    parse_value(&chars, &mut pos);
    skip_ws(&chars, &mut pos);
    assert_eq!(pos, chars.len(), "trailing garbage after JSON document");
}

fn skip_ws(chars: &[char], pos: &mut usize) {
    while chars.get(*pos).is_some_and(|c| c.is_whitespace()) {
        *pos += 1;
    }
}

fn expect(chars: &[char], pos: &mut usize, c: char) {
    skip_ws(chars, pos);
    assert_eq!(chars.get(*pos), Some(&c), "expected `{c}` at {pos}");
    *pos += 1;
}

fn parse_value(chars: &[char], pos: &mut usize) {
    skip_ws(chars, pos);
    match chars.get(*pos) {
        Some('{') => parse_object(chars, pos),
        Some('[') => parse_array(chars, pos),
        Some('"') => parse_string(chars, pos),
        Some(c) if c.is_ascii_digit() || *c == '-' => parse_number(chars, pos),
        Some('t') => parse_literal(chars, pos, "true"),
        Some('f') => parse_literal(chars, pos, "false"),
        Some('n') => parse_literal(chars, pos, "null"),
        other => panic!("unexpected JSON value start {other:?} at {pos}"),
    }
}

fn parse_object(chars: &[char], pos: &mut usize) {
    expect(chars, pos, '{');
    skip_ws(chars, pos);
    if chars.get(*pos) == Some(&'}') {
        *pos += 1;
        return;
    }
    loop {
        skip_ws(chars, pos);
        parse_string(chars, pos);
        expect(chars, pos, ':');
        parse_value(chars, pos);
        skip_ws(chars, pos);
        match chars.get(*pos) {
            Some(',') => *pos += 1,
            Some('}') => {
                *pos += 1;
                return;
            }
            other => panic!("expected `,` or `}}` in object, got {other:?}"),
        }
    }
}

fn parse_array(chars: &[char], pos: &mut usize) {
    expect(chars, pos, '[');
    skip_ws(chars, pos);
    if chars.get(*pos) == Some(&']') {
        *pos += 1;
        return;
    }
    loop {
        parse_value(chars, pos);
        skip_ws(chars, pos);
        match chars.get(*pos) {
            Some(',') => *pos += 1,
            Some(']') => {
                *pos += 1;
                return;
            }
            other => panic!("expected `,` or `]` in array, got {other:?}"),
        }
    }
}

fn parse_string(chars: &[char], pos: &mut usize) {
    expect(chars, pos, '"');
    while let Some(&c) = chars.get(*pos) {
        *pos += 1;
        match c {
            '"' => return,
            '\\' => {
                let escaped = chars.get(*pos).copied().expect("escape at end of input");
                *pos += 1;
                match escaped {
                    '"' | '\\' | '/' | 'b' | 'f' | 'n' | 'r' | 't' => {}
                    'u' => {
                        for _ in 0..4 {
                            let h = chars.get(*pos).copied().expect("short \\u escape");
                            assert!(h.is_ascii_hexdigit(), "bad \\u digit `{h}`");
                            *pos += 1;
                        }
                    }
                    other => panic!("illegal escape `\\{other}`"),
                }
            }
            c => assert!((c as u32) >= 0x20, "raw control character in string"),
        }
    }
    panic!("unterminated string");
}

fn parse_number(chars: &[char], pos: &mut usize) {
    if chars.get(*pos) == Some(&'-') {
        *pos += 1;
    }
    let start = *pos;
    while chars
        .get(*pos)
        .is_some_and(|c| c.is_ascii_digit() || matches!(c, '.' | 'e' | 'E' | '+' | '-'))
    {
        *pos += 1;
    }
    assert!(*pos > start, "empty number");
}

fn parse_literal(chars: &[char], pos: &mut usize, lit: &str) {
    for expected in lit.chars() {
        assert_eq!(chars.get(*pos), Some(&expected), "bad literal `{lit}`");
        *pos += 1;
    }
}
