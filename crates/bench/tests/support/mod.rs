//! The source walk and the `docs/PAPER_MAP.md` table parser that
//! `paper_map.rs` and `public_surface.rs` share.

use std::fs;
use std::path::{Path, PathBuf};

const MAP: &str = include_str!("../../../../docs/PAPER_MAP.md");

pub fn workspace_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../..")
}

pub fn rust_files(dir: &Path, out: &mut Vec<PathBuf>) {
    for entry in fs::read_dir(dir).unwrap_or_else(|e| panic!("{}: {e}", dir.display())) {
        let path = entry.expect("directory entry").path();
        if path.is_dir() {
            rust_files(&path, out);
        } else if path.extension().is_some_and(|x| x == "rs") {
            out.push(path);
        }
    }
}

/// Every `.rs` file of the workspace: the crates, the root package, its
/// tests and examples, and the `benchmark/` package.
pub fn all_rust_files() -> Vec<PathBuf> {
    let root = workspace_root();
    let mut files = Vec::new();
    for dir in [
        "src",
        "tests",
        "examples",
        "benchmark/src",
        "benchmark/tests",
    ] {
        if root.join(dir).is_dir() {
            rust_files(&root.join(dir), &mut files);
        }
    }
    for krate in fs::read_dir(root.join("crates")).expect("crates/") {
        let krate = krate.expect("crate dir").path();
        for dir in ["src", "tests", "benches", "examples"] {
            if krate.join(dir).is_dir() {
                rust_files(&krate.join(dir), &mut files);
            }
        }
    }
    files
}

pub fn leading_ident(s: &str) -> &str {
    let end = s
        .find(|ch: char| !(ch.is_ascii_alphanumeric() || ch == '_'))
        .unwrap_or(s.len());
    &s[..end]
}

/// `(kind, name)` of an item declared `pub` on this (left-trimmed) line:
/// `pub fn`, `pub struct`, `pub enum`, `pub trait`, `pub mod`,
/// `pub static`, `pub type` or `pub const`, after any `unsafe`, `async`,
/// `extern "C"` or `const fn` qualifiers. `pub(crate)` is not `pub`.
pub fn pub_item(line: &str) -> Option<(&str, &str)> {
    let mut words = line.strip_prefix("pub ")?.split_whitespace().peekable();
    let mut kind = words.next()?;
    while matches!(kind, "unsafe" | "async" | "extern" | "\"C\"")
        || (kind == "const" && words.peek() == Some(&"fn"))
    {
        kind = words.next()?;
    }
    match kind {
        "fn" | "struct" | "enum" | "trait" | "mod" | "static" | "type" | "const" => {
            Some((kind, leading_ident(words.next()?)))
        }
        _ => None,
    }
}

/// The cells of a table row, split on `|` outside backticks.
fn cells(row: &str) -> Vec<String> {
    let mut out = Vec::new();
    let mut cell = String::new();
    let mut code = false;
    for ch in row.trim().trim_matches('|').chars() {
        match ch {
            '`' => {
                code = !code;
                cell.push(ch);
            }
            '|' if !code => out.push(std::mem::take(&mut cell)),
            _ => cell.push(ch),
        }
    }
    out.push(cell);
    out.into_iter().map(|c| c.trim().to_string()).collect()
}

/// The backticked spans of `text`, each with the text that follows it.
pub fn spans(text: &str) -> Vec<(&str, &str)> {
    let mut out = Vec::new();
    let mut rest = text;
    while let Some(open) = rest.find('`') {
        let Some(len) = rest[open + 1..].find('`') else {
            break;
        };
        let span = &rest[open + 1..open + 1 + len];
        rest = &rest[open + len + 2..];
        out.push((span, rest));
    }
    out
}

/// `(column name, cell)` for every body row of every table in the map.
pub fn table_cells() -> Vec<(String, String)> {
    let lines: Vec<&str> = MAP.lines().collect();
    let mut out = Vec::new();
    let mut header: Option<Vec<String>> = None;
    for (i, line) in lines.iter().enumerate() {
        if !line.starts_with('|') {
            header = None;
            continue;
        }
        let is_rule = |l: &str| l.starts_with("|---");
        if is_rule(line) {
            continue;
        }
        if lines.get(i + 1).is_some_and(|next| is_rule(next)) {
            header = Some(cells(line));
            continue;
        }
        let names = header.as_ref().expect("a table row under a header");
        for (name, cell) in names.iter().zip(cells(line)) {
            out.push((name.clone(), cell));
        }
    }
    out
}

/// The paths a *Code* span stands for, or `None` for a span that is not
/// written as a Rust path (a file name, an expression). `a::{b, c}`
/// stands for `a::b` and `a::c`; a trailing call `(..)` is dropped.
pub fn rust_paths(span: &str) -> Option<Vec<Vec<String>>> {
    let pathlike = |ch: char| ch.is_ascii_alphanumeric() || "_:{}, ()*/".contains(ch);
    if !span.chars().all(pathlike) || !span.starts_with(|ch: char| ch.is_ascii_alphabetic()) {
        return None;
    }
    let span = match span.find('(') {
        Some(at) if span.ends_with(')') => &span[..at],
        _ => span,
    };
    let (stem, group) = match span.find("::{") {
        Some(at) if span.ends_with('}') => (&span[..at], Some(&span[at + 3..span.len() - 1])),
        _ => (span, None),
    };
    let base: Vec<String> = stem.split("::").map(str::to_string).collect();
    Some(match group {
        None => vec![base],
        Some(list) => list
            .split(',')
            .map(|leaf| {
                let mut path = base.clone();
                path.push(leaf.trim().to_string());
                path
            })
            .collect(),
    })
}
