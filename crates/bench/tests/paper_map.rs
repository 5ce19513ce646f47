//! `docs/PAPER_MAP.md` stays true to the tree: every Rust path in a
//! *Code* column names a `pub` item of the workspace, every
//! ``experiment `slug` `` in a *Checked by* column is a slug of
//! `experiments::all()`, and every other identifier there names a `fn`.

mod support;

use std::collections::BTreeSet;
use std::fs;

use support::{
    all_rust_files, leading_ident, pub_item, rust_files, rust_paths, spans, table_cells,
    workspace_root,
};
use syrk_bench::experiments;

/// Crate names a path may start with; they are not items themselves.
const CRATES: [&str; 5] = [
    "syrk_core",
    "syrk_dense",
    "syrk_machine",
    "syrk_server",
    "syrk_telemetry",
];

/// Every name declared `pub` under `crates/*/src` and `src`: items
/// (`pub fn`, `pub struct`, …), fields (`pub name:`) and the variants of
/// `pub enum`s. A name is not tied to its module: the check is that the
/// map names something a reader of the public API can find.
fn pub_names() -> BTreeSet<String> {
    let root = workspace_root();
    let mut files = Vec::new();
    rust_files(&root.join("src"), &mut files);
    for krate in fs::read_dir(root.join("crates")).expect("crates/") {
        rust_files(&krate.expect("crate dir").path().join("src"), &mut files);
    }
    let mut names = BTreeSet::new();
    for file in files {
        let text = fs::read_to_string(&file).expect("source file");
        // Indentation of the `pub enum` whose variants are being read.
        let mut in_enum: Option<usize> = None;
        for line in text.lines() {
            let body = line.trim_start();
            let indent = line.len() - body.len();
            if let Some(at) = in_enum {
                if body.starts_with('}') && indent == at {
                    in_enum = None;
                } else if indent == at + 4 && !body.starts_with("//") {
                    names.insert(leading_ident(body).to_string());
                }
                continue;
            }
            let Some(rest) = body.strip_prefix("pub ") else {
                continue;
            };
            let ident = match pub_item(body) {
                Some((kind, ident)) => {
                    if kind == "enum" && body.ends_with('{') {
                        in_enum = Some(indent);
                    }
                    ident
                }
                // A field: `pub name: Type`.
                None if rest[leading_ident(rest).len()..].starts_with(':') => leading_ident(rest),
                None => continue,
            };
            names.insert(ident.to_string());
        }
    }
    names
}

fn is_ident(s: &str) -> bool {
    !s.is_empty() && leading_ident(s) == s
}

#[test]
fn every_code_path_names_a_pub_item() {
    let names = pub_names();
    let mut checked = 0;
    let mut broken = Vec::new();
    for (column, cell) in table_cells() {
        if column != "Code" {
            continue;
        }
        for (span, _) in spans(&cell) {
            let Some(paths) = rust_paths(span) else {
                continue;
            };
            for path in paths {
                let mut items = path.iter().skip_while(|seg| CRATES.contains(&seg.as_str()));
                let ok = items.all(|seg| match seg.strip_suffix('*') {
                    // A glob: some pub item starts with the prefix.
                    Some(prefix) => is_ident(prefix) && names.iter().any(|n| n.starts_with(prefix)),
                    None => is_ident(seg) && names.contains(seg),
                });
                checked += 1;
                if !ok {
                    broken.push(format!("`{span}` ({})", path.join("::")));
                }
            }
        }
    }
    assert!(
        checked > 30,
        "only {checked} code paths found: is the map parsed?"
    );
    assert!(
        broken.is_empty(),
        "PAPER_MAP.md names no pub item: {broken:?}"
    );
}

/// The name of every `fn` in the tree, tests and private helpers included.
fn fn_names() -> BTreeSet<String> {
    let mut names = BTreeSet::new();
    for file in all_rust_files() {
        let text = fs::read_to_string(&file).expect("source file");
        for line in text.lines() {
            let code = line.trim_start();
            if code.starts_with("//") {
                continue;
            }
            let mut rest = code;
            while let Some(at) = rest.find("fn ") {
                let starts_word = at == 0 || !rest.as_bytes()[at - 1].is_ascii_alphanumeric();
                rest = &rest[at + 3..];
                if starts_word && !leading_ident(rest).is_empty() {
                    names.insert(leading_ident(rest).to_string());
                }
            }
        }
    }
    names
}

#[test]
fn every_named_experiment_exists() {
    let slugs: Vec<&str> = experiments::all().iter().map(|e| e.slug).collect();
    let mut checked = 0;
    let mut unknown = Vec::new();
    for (column, cell) in table_cells() {
        if column != "Checked by" {
            continue;
        }
        for marker in ["experiment `", "experiments `"] {
            let mut rest = cell.as_str();
            while let Some(at) = rest.find(marker) {
                let plural = marker.starts_with("experiments");
                rest = &rest[at + marker.len() - 1..];
                // The first span, and for the plural form every span
                // joined to it by ", " or " and ".
                for (slug, after) in spans(rest) {
                    checked += 1;
                    if !slugs.contains(&slug) {
                        unknown.push(slug.to_string());
                    }
                    let joined = after.starts_with(", `") || after.starts_with(" and `");
                    if !(plural && joined) {
                        break;
                    }
                }
                rest = &rest[1..];
            }
        }
    }
    assert!(
        checked > 15,
        "only {checked} experiments found: is the map parsed?"
    );
    assert!(
        unknown.is_empty(),
        "PAPER_MAP.md names experiments that do not exist: {unknown:?}"
    );
}

/// A backticked identifier in a *Checked by* cell that is not an
/// experiment slug is a test or check: some `fn` of the tree has that
/// name, or, for a `prefix_*` glob, starts with the prefix. File names
/// (`prism.rs`) and formulas are not identifiers and are skipped.
#[test]
fn every_named_check_is_a_fn() {
    let slugs: Vec<&str> = experiments::all().iter().map(|e| e.slug).collect();
    let fns = fn_names();
    let mut checked = 0;
    let mut missing = Vec::new();
    for (column, cell) in table_cells() {
        if column != "Checked by" {
            continue;
        }
        for (span, _) in spans(&cell) {
            let name = span.strip_suffix("()").unwrap_or(span);
            let found = match name.strip_suffix('*') {
                _ if slugs.contains(&name) => continue,
                Some(prefix) if is_ident(prefix) => fns.iter().any(|f| f.starts_with(prefix)),
                None if is_ident(name) => fns.contains(name),
                _ => continue,
            };
            checked += 1;
            if !found {
                missing.push(span.to_string());
            }
        }
    }
    assert!(
        checked > 10,
        "only {checked} check names found: is the map parsed?"
    );
    assert!(
        missing.is_empty(),
        "PAPER_MAP.md names checks that are no fn of the tree: {missing:?}"
    );
}
