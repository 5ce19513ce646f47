//! Every `pub` item of a library crate has a user outside that crate's
//! `src/`: the other crates, a `tests/` dir, the root package, the
//! examples or the `benchmark/` package names it. `pub` switches off
//! rustc's `dead_code` lint, so an item nothing outside uses is
//! `pub(crate)`, where the compiler sees whether anything uses it at all.
//!
//! Items are the `pub fn`, `struct`, `enum`, `trait`, `const`, `type`
//! and `static` declarations; fields and variants are out of scope. An
//! item counts as used when some other `.rs` file names it outside `//`
//! comments — a `fn` only in call or path position: a free `fn` as
//! `f(` or `::f`, a method (an indented `fn`) as `.f(` or `::f`, so a
//! field read `.f` is no use; any other item as any identifier — when a
//! Rust path in the *Code* column of `docs/PAPER_MAP.md` names it (those
//! paths must be `pub`; prose elsewhere in the map is no use), or when it
//! is a type that a used item's signature exposes.

mod support;

use std::collections::{BTreeMap, BTreeSet};
use std::fs;

use support::{
    all_rust_files, pub_item, rust_files, rust_paths, spans, table_cells, workspace_root,
};

/// The library crates under `crates/`.
const CRATES: [&str; 5] = ["core", "dense", "machine", "server", "telemetry"];

/// The one reason an allowlist entry may give.
const SIGNATURE: &str = "type in the signature of a used item";

/// `(crate, name, reason)`: items no other file names, kept `pub`
/// because a used item's signature shows them to its callers.
const ALLOWED: [(&str, &str, &str); 21] = [
    ("core", "AttributionReport", SIGNATURE),
    ("core", "PlanError", SIGNATURE),
    ("core", "Point", SIGNATURE),
    ("core", "RecoveryAttempt", SIGNATURE),
    ("core", "TermAttribution", SIGNATURE),
    ("dense", "Dispatch", SIGNATURE),
    ("dense", "ForcedIsaGuard", SIGNATURE),
    ("dense", "KernelSpec", SIGNATURE),
    ("dense", "KernelStats", SIGNATURE),
    ("dense", "ThreadBudgetGuard", SIGNATURE),
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

/// Where a declared name must appear to count as used.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum Use {
    /// A type, trait, const or static: anywhere, as an identifier.
    Named,
    /// A free `fn`: called as `f(` or on a path as `::f`.
    Called,
    /// A method: called as `.f(` or on a path as `::f`.
    Method,
}

/// The identifiers of one text outside `//` comments (doc comments
/// included: prose that names an item is no use of it).
#[derive(Default)]
struct Words {
    /// Every identifier.
    all: BTreeSet<String>,
    /// Identifiers right after `::`.
    path: BTreeSet<String>,
    /// Identifiers right before `(` or a turbofish `::<`.
    call: BTreeSet<String>,
    /// Calls right after `.`.
    method: BTreeSet<String>,
}

impl Words {
    fn of(text: &str) -> Words {
        let word = |b: u8| b.is_ascii_alphanumeric() || b == b'_';
        let mut out = Words::default();
        for line in text.lines() {
            let code = line.split("//").next().unwrap_or("");
            let bytes = code.as_bytes();
            let mut end = 0;
            while end < bytes.len() {
                let start = end;
                while end < bytes.len() && word(bytes[end]) {
                    end += 1;
                }
                if start == end {
                    end += 1;
                    continue;
                }
                let token = &code[start..end];
                if !token.starts_with(|ch: char| ch.is_ascii_alphabetic() || ch == '_') {
                    continue;
                }
                let (before, after) = (code[..start].trim_end(), code[end..].trim_start());
                let called = after.starts_with('(') || after.starts_with("::<");
                if before.ends_with("::") {
                    out.path.insert(token.to_string());
                }
                if called {
                    out.call.insert(token.to_string());
                }
                if called && before.ends_with('.') {
                    out.method.insert(token.to_string());
                }
                out.all.insert(token.to_string());
            }
        }
        out
    }

    fn uses(&self, name: &str, how: Use) -> bool {
        match how {
            Use::Named => self.all.contains(name),
            Use::Called => self.path.contains(name) || self.call.contains(name),
            Use::Method => self.path.contains(name) || self.method.contains(name),
        }
    }
}

/// The names declared by a `pub` item under `crates/<krate>/src`, each
/// with the strictest use any of its declarations asks for.
fn pub_items(krate: &str) -> BTreeMap<String, Use> {
    let mut files = Vec::new();
    rust_files(
        &workspace_root().join("crates").join(krate).join("src"),
        &mut files,
    );
    let mut names = BTreeMap::new();
    for file in files {
        let text = fs::read_to_string(&file).expect("source file");
        for line in text.lines() {
            let how = match pub_item(line.trim_start()) {
                Some(("mod", _)) | None => continue,
                Some(("fn", name)) if line.starts_with(char::is_whitespace) => (name, Use::Method),
                Some(("fn", name)) => (name, Use::Called),
                Some((_, name)) => (name, Use::Named),
            };
            let strictest = names.entry(how.0.to_string()).or_insert(how.1);
            *strictest = (*strictest).max(how.1);
        }
    }
    names
}

#[test]
fn every_pub_item_has_a_user_outside_its_crate() {
    let root = workspace_root();
    // Each file's words, read once, with the crate whose `src/` holds it.
    // This file is left out: its allowlist names what it exempts.
    let files: Vec<(Option<&str>, Words)> = all_rust_files()
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
            let words = Words::of(&fs::read_to_string(&path).expect("source file"));
            (owner, words)
        })
        .collect();
    // Every segment of a Rust path in the map's *Code* column.
    let mapped: BTreeSet<String> = table_cells()
        .into_iter()
        .filter(|(column, _)| column == "Code")
        .flat_map(|(_, cell)| {
            spans(&cell)
                .into_iter()
                .filter_map(|(span, _)| rust_paths(span))
                .flatten()
                .flatten()
                .collect::<Vec<_>>()
        })
        .collect();

    let mut checked = 0;
    let mut unused = Vec::new();
    let mut stale = Vec::new();
    for krate in CRATES {
        let items = pub_items(krate);
        checked += items.len();
        let unseen: BTreeSet<&str> = items
            .iter()
            .filter(|&(name, &how)| {
                !mapped.contains(name)
                    && !files
                        .iter()
                        .any(|(owner, words)| *owner != Some(krate) && words.uses(name, how))
            })
            .map(|(name, _)| name.as_str())
            .collect();
        for name in &unseen {
            if !ALLOWED.iter().any(|&(k, n, _)| k == krate && n == *name) {
                unused.push(format!("{krate}::{name}"));
            }
        }
        for &(k, name, reason) in &ALLOWED {
            if k == krate && (!unseen.contains(name) || reason != SIGNATURE) {
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
        "pub items nothing outside their crate uses (make them pub(crate)): {unused:?}"
    );
    assert!(
        stale.is_empty(),
        "allowlist entries that are not a pub item only a signature shows: {stale:?}"
    );
}
