//! The code anchors in `docs/ARCHITECTURE.md` and `README.md` point at
//! things that exist.
//!
//! An anchor is `crates/<path>.rs::<symbol>`: the file must exist and
//! declare `fn|struct|enum|trait|const|type|mod <symbol>`. Line-number
//! anchors (`<file>.rs:<digits>`, with or without a path) go stale with
//! the next edit above them and are refused outright.

use std::path::Path;

const DOCS: [&str; 2] = ["docs/ARCHITECTURE.md", "README.md"];
const KINDS: [&str; 7] = ["fn", "struct", "enum", "trait", "const", "type", "mod"];

fn is_ident(c: char) -> bool {
    c.is_ascii_alphanumeric() || c == '_'
}

/// Every `(path, symbol)` anchor in `text`.
fn anchors(text: &str) -> Vec<(&str, &str)> {
    let mut found = Vec::new();
    let mut rest = text;
    while let Some(at) = rest.find("crates/") {
        rest = &rest[at..];
        let path_len = rest
            .find(|c: char| !(is_ident(c) || matches!(c, '/' | '.' | '-')))
            .unwrap_or(rest.len());
        let (path, after) = rest.split_at(path_len);
        rest = after;
        if !path.ends_with(".rs") {
            continue;
        }
        let Some(symbol) = after.strip_prefix("::") else {
            continue;
        };
        let symbol_len = symbol.find(|c| !is_ident(c)).unwrap_or(symbol.len());
        found.push((path, &symbol[..symbol_len]));
    }
    found
}

/// Offsets in `text` of each `.rs:<digits>` — a line-number anchor into
/// any Rust file.
fn line_anchors(text: &str) -> Vec<usize> {
    text.match_indices(".rs:")
        .filter(|&(at, m)| text[at + m.len()..].starts_with(|c: char| c.is_ascii_digit()))
        .map(|(at, _)| at)
        .collect()
}

/// Does `source` contain `<kind> <symbol>` as whole words?
fn declares(source: &str, symbol: &str) -> bool {
    KINDS.iter().any(|kind| {
        let decl = format!("{kind} {symbol}");
        source.match_indices(&decl).any(|(at, _)| {
            let before = source[..at].chars().next_back();
            let after = source[at + decl.len()..].chars().next();
            !before.is_some_and(is_ident) && !after.is_some_and(is_ident)
        })
    })
}

#[test]
fn every_code_anchor_names_a_declared_symbol() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut problems = Vec::new();
    let mut checked = 0;
    for doc in DOCS {
        let text = std::fs::read_to_string(root.join(doc)).unwrap();
        for (path, symbol) in anchors(&text) {
            checked += 1;
            match std::fs::read_to_string(root.join(path)) {
                Err(_) => problems.push(format!("{doc}: {path}::{symbol}: no such file")),
                Ok(source) if !declares(&source, symbol) => {
                    problems.push(format!("{doc}: {path} declares no `{symbol}`"))
                }
                Ok(_) => {}
            }
        }
        for at in line_anchors(&text) {
            let line = text[..at].lines().count();
            problems.push(format!("{doc}:{line}: line-number anchor"));
        }
    }
    assert!(problems.is_empty(), "{}", problems.join("\n"));
    assert!(
        checked > 50,
        "only {checked} anchors found: did the format change?"
    );
}

#[test]
fn the_scanner_reads_anchors_and_declarations() {
    let text = "see `crates/a/src/b.rs::settle` and (`crates/a/src/c.rs:12`), crates/x.rs::Y.";
    assert_eq!(
        anchors(text),
        [("crates/a/src/b.rs", "settle"), ("crates/x.rs", "Y")]
    );
    assert!(declares("pub(super) fn settle(", "settle"));
    assert!(declares("struct Y;", "Y"));
    assert!(!declares("fn settle_pass(", "settle"));
    assert!(!declares("// settle", "settle"));
    let text = "(`crates/core/src/app.rs:379`), crates/executors/src/htex.rs:40, \
                crates/core/src/dfk/commit.rs::settle, dfk.rs:7, main.rs:x.";
    // Where the `.rs` of the first mention of `file` starts.
    let at = |file: &str| text.find(file).unwrap() + file.len() - ".rs".len();
    assert_eq!(
        line_anchors(text),
        [at("app.rs"), at("htex.rs"), at("dfk.rs")]
    );
}
