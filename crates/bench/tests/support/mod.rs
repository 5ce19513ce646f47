//! The source walk that `paper_map.rs` and `public_surface.rs` share.

use std::fs;
use std::path::{Path, PathBuf};

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
