//! The one JSON writer of the benchmark. Reading goes through
//! `syrk_server::json::parse`, the strict parser the server already has.

use std::fmt;

/// A JSON value to be written.
#[derive(Debug, Clone, PartialEq)]
pub enum J {
    Null,
    Bool(bool),
    Int(i64),
    /// Written with Rust's shortest round-trip formatting, so a reader
    /// gets back the bits that were measured. Non-finite becomes `null`.
    Num(f64),
    Str(String),
    Arr(Vec<J>),
    Obj(Vec<(String, J)>),
}

impl J {
    pub fn str(s: impl Into<String>) -> J {
        J::Str(s.into())
    }

    pub fn obj<K: Into<String>>(members: impl IntoIterator<Item = (K, J)>) -> J {
        J::Obj(members.into_iter().map(|(k, v)| (k.into(), v)).collect())
    }
}

fn write_str(f: &mut fmt::Formatter<'_>, s: &str) -> fmt::Result {
    f.write_str("\"")?;
    for ch in s.chars() {
        match ch {
            '"' => f.write_str("\\\"")?,
            '\\' => f.write_str("\\\\")?,
            '\n' => f.write_str("\\n")?,
            '\r' => f.write_str("\\r")?,
            '\t' => f.write_str("\\t")?,
            c if (c as u32) < 0x20 => write!(f, "\\u{:04x}", c as u32)?,
            c => write!(f, "{c}")?,
        }
    }
    f.write_str("\"")
}

impl fmt::Display for J {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            J::Null => f.write_str("null"),
            J::Bool(b) => write!(f, "{b}"),
            J::Int(i) => write!(f, "{i}"),
            J::Num(v) if v.is_finite() => write!(f, "{v}"),
            J::Num(_) => f.write_str("null"),
            J::Str(s) => write_str(f, s),
            J::Arr(items) => {
                f.write_str("[")?;
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        f.write_str(", ")?;
                    }
                    write!(f, "{item}")?;
                }
                f.write_str("]")
            }
            J::Obj(members) => {
                f.write_str("{")?;
                for (i, (k, v)) in members.iter().enumerate() {
                    if i > 0 {
                        f.write_str(", ")?;
                    }
                    write_str(f, k)?;
                    write!(f, ": {v}")?;
                }
                f.write_str("}")
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use syrk_server::json::{parse, Json};

    #[test]
    fn output_round_trips_through_the_strict_parser() {
        let doc = J::obj([
            (
                "s",
                J::str("a \"quoted\"\\ line\nwith\ttabs and \u{1} control"),
            ),
            ("n", J::Num(0.1 + 0.2)),
            ("i", J::Int(-7)),
            ("nan", J::Num(f64::NAN)),
            ("a", J::Arr(vec![J::Bool(true), J::Null])),
        ]);
        let back = parse(&doc.to_string()).expect("strict JSON");
        assert_eq!(
            back.get("s").and_then(Json::as_str),
            Some("a \"quoted\"\\ line\nwith\ttabs and \u{1} control")
        );
        assert_eq!(back.get("n").and_then(Json::as_f64), Some(0.1 + 0.2));
        assert_eq!(back.get("i").and_then(Json::as_f64), Some(-7.0));
        assert_eq!(back.get("nan"), Some(&Json::Null));
    }
}
