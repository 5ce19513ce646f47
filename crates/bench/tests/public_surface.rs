//! Every `pub` item of a library crate has a user outside that crate's
//! `src/`: the other crates, a `tests/` dir, the root package, the
//! examples or the `benchmark/` package names it. `pub` switches off
//! rustc's `dead_code` lint, so an item nothing outside uses is
//! `pub(crate)`, where the compiler sees whether anything uses it at all.
//!
//! Items are the `pub fn`, `struct`, `enum`, `trait`, `const`, `type`
//! and `static` declarations; fields and variants are out of scope. A
//! name counts as used when it is an identifier, outside `//` comments,
//! of some other `.rs` file, is named in `docs/PAPER_MAP.md` (whose
//! *Code* paths must be `pub`), or is a type that a used item's
//! signature exposes.

mod support;

use std::collections::BTreeSet;
use std::fs;

use support::{all_rust_files, pub_item, rust_files, workspace_root};

const MAP: &str = include_str!("../../../docs/PAPER_MAP.md");

/// The library crates under `crates/`.
const CRATES: [&str; 6] = [
    "core",
    "dense",
    "geometry",
    "machine",
    "server",
    "telemetry",
];

/// The one reason an allowlist entry may give.
const SIGNATURE: &str = "type in the signature of a used item";

/// `(crate, name, reason)`: items no other file names, kept `pub`
/// because a used item's signature shows them to its callers.
const ALLOWED: [(&str, &str, &str); 22] = [
    ("core", "AttributionReport", SIGNATURE),
    ("core", "RecoveryAttempt", SIGNATURE),
    ("core", "SymmRunResult", SIGNATURE),
    ("core", "SyrkRun", SIGNATURE),
    ("core", "TermAttribution", SIGNATURE),
    ("dense", "Dispatch", SIGNATURE),
    ("dense", "ForcedIsaGuard", SIGNATURE),
    ("dense", "KernelSpec", SIGNATURE),
    ("dense", "KernelStats", SIGNATURE),
    ("dense", "ThreadBudgetGuard", SIGNATURE),
    ("geometry", "Point", SIGNATURE),
    ("machine", "EngineKind", SIGNATURE),
    ("machine", "GridComms", SIGNATURE),
    ("machine", "PhaseCost", SIGNATURE),
    ("machine", "PhaseRow", SIGNATURE),
    ("machine", "PhaseScope", SIGNATURE),
    ("machine", "PhaseTable", SIGNATURE),
    ("machine", "RunOutput", SIGNATURE),
    ("machine", "Wire", SIGNATURE),
    ("server", "AdmitError", SIGNATURE),
    ("server", "RunGate", SIGNATURE),
    ("server", "RunPermit", SIGNATURE),
];

/// Adds every identifier of `text` outside `//` comments (doc comments
/// included: prose that names an item is no use of it) to `out`.
fn idents(text: &str, out: &mut BTreeSet<String>) {
    let word = |ch: char| ch.is_ascii_alphanumeric() || ch == '_';
    for line in text.lines() {
        let code = line.split("//").next().unwrap_or("");
        for token in code.split(|ch: char| !word(ch)) {
            if token.starts_with(|ch: char| ch.is_ascii_alphabetic() || ch == '_') {
                out.insert(token.to_string());
            }
        }
    }
}

/// The names declared by a `pub` item under `crates/<krate>/src`.
fn pub_items(krate: &str) -> BTreeSet<String> {
    let mut files = Vec::new();
    rust_files(
        &workspace_root().join("crates").join(krate).join("src"),
        &mut files,
    );
    let mut names = BTreeSet::new();
    for file in files {
        let text = fs::read_to_string(&file).expect("source file");
        for line in text.lines() {
            match pub_item(line.trim_start()) {
                Some(("mod", _)) | None => {}
                Some((_, name)) => {
                    names.insert(name.to_string());
                }
            }
        }
    }
    names
}

#[test]
fn every_pub_item_has_a_user_outside_its_crate() {
    let root = workspace_root();
    // Each file's identifiers, read once, with the crate whose `src/` holds
    // it. This file is left out: its allowlist names what it exempts.
    let files: Vec<(Option<&str>, BTreeSet<String>)> = all_rust_files()
        .into_iter()
        .filter(|path| !path.ends_with("crates/bench/tests/public_surface.rs"))
        .map(|path| {
            let rel = path
                .strip_prefix(&root)
                .expect("a workspace file")
                .to_path_buf();
            let owner = CRATES
                .into_iter()
                .find(|krate| rel.starts_with(format!("crates/{krate}/src")));
            let mut words = BTreeSet::new();
            idents(&fs::read_to_string(&path).expect("source file"), &mut words);
            (owner, words)
        })
        .collect();
    // The map's code spans: the odd pieces between backticks.
    let mut mapped = BTreeSet::new();
    for span in MAP.split('`').skip(1).step_by(2) {
        idents(span, &mut mapped);
    }

    let mut checked = 0;
    let mut unused = Vec::new();
    let mut stale = Vec::new();
    for krate in CRATES {
        let outside: BTreeSet<&String> = files
            .iter()
            .filter(|(owner, _)| *owner != Some(krate))
            .flat_map(|(_, words)| words)
            .collect();
        let items = pub_items(krate);
        checked += items.len();
        for name in &items {
            let allowed = ALLOWED.iter().any(|&(k, n, _)| k == krate && n == name);
            if !outside.contains(name) && !mapped.contains(name) && !allowed {
                unused.push(format!("{krate}::{name}"));
            }
        }
        for &(k, name, reason) in &ALLOWED {
            let needed = items.contains(name)
                && !outside.contains(&name.to_string())
                && !mapped.contains(name);
            if k == krate && (!needed || reason != SIGNATURE) {
                stale.push(format!("{k}::{name} ({reason})"));
            }
        }
    }
    assert!(
        checked > 200,
        "only {checked} pub items found: are the crates parsed?"
    );
    assert!(
        unused.is_empty(),
        "pub items nothing outside their crate names (make them pub(crate)): {unused:?}"
    );
    assert!(
        stale.is_empty(),
        "allowlist entries that are not a pub item only a signature shows: {stale:?}"
    );
}
