//! Every metric name is declared once. A metric is a `static` built from
//! a string literal, and the registry panics when one process touches
//! two metrics of the same name — but only then. This scan finds a
//! clash before any process does: it collects every literal passed to a
//! metric constructor in the production code of `crates/*/src` and
//! `benchmark/src`, each file read up to its first `#[cfg(test)]`.

// Shared with the other scans; this one needs only the file walk.
#[allow(dead_code)]
mod support;

use std::collections::BTreeMap;
use std::fs;

use support::{rust_files, workspace_root};

/// The calls whose string arguments are metric names.
const CONSTRUCTORS: [&str; 5] = [
    "Counter::new(",
    "Gauge::new(",
    "Histogram::new(",
    "LazyCounter::new(",
    "CollMetrics::new(",
];

/// The string literals inside the argument list that opens `code`.
fn literals(code: &str) -> Vec<&str> {
    let args = &code[..code.find(')').unwrap_or(code.len())];
    args.split('"').skip(1).step_by(2).collect()
}

/// `name → files` for every metric name in the production code of `text`.
fn collect(file: &str, text: &str, names: &mut BTreeMap<String, Vec<String>>) {
    let production = text.split("#[cfg(test)]").next().unwrap_or("");
    let code: String = production
        .lines()
        .map(|line| line.split("//").next().unwrap_or(""))
        .collect::<Vec<_>>()
        .join("\n");
    for ctor in CONSTRUCTORS {
        for (at, _) in code.match_indices(ctor) {
            // `LazyCounter::new(` also ends in `Counter::new(`.
            let whole = !code[..at].ends_with(|ch: char| ch.is_ascii_alphanumeric() || ch == '_');
            if whole {
                for name in literals(&code[at + ctor.len()..]) {
                    names
                        .entry(name.to_string())
                        .or_default()
                        .push(file.to_string());
                }
            }
        }
    }
}

#[test]
fn metric_names_are_unique() {
    let root = workspace_root();
    let mut files = Vec::new();
    rust_files(&root.join("benchmark/src"), &mut files);
    for krate in fs::read_dir(root.join("crates")).expect("crates/") {
        let src = krate.expect("crate dir").path().join("src");
        if src.is_dir() {
            rust_files(&src, &mut files);
        }
    }
    let mut names = BTreeMap::new();
    for path in &files {
        let rel = path.strip_prefix(&root).expect("a workspace file");
        let text = fs::read_to_string(path).expect("source file");
        collect(&rel.display().to_string(), &text, &mut names);
    }

    assert!(
        names.len() >= 50,
        "only {} metric names found: is the scan reading the constructors?",
        names.len()
    );
    let twice: Vec<_> = names.iter().filter(|(_, at)| at.len() > 1).collect();
    assert!(twice.is_empty(), "metric names declared twice: {twice:?}");
    let stray: Vec<_> = names.keys().filter(|n| !n.starts_with("syrk")).collect();
    assert!(stray.is_empty(), "metric names outside `syrk*`: {stray:?}");
}
