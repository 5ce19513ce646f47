//! A minimal strict JSON parser — the only one in the repository.
//!
//! The workspace is dependency-free, so the server parses the few
//! fields a `/run` body carries (`recovery`, `faults`) with its own
//! recursive-descent parser instead of pulling in serde, and the tests
//! and `syrkbench` check every document the workspace emits (responses,
//! Chrome traces, metric snapshots, failure dumps) with the same one.
//! It accepts exactly RFC 8259 syntax — no trailing commas, no
//! comments, no bare NaN/Infinity — and bounds nesting depth so a
//! hostile body cannot blow the worker's stack.

/// Maximum nesting depth of arrays/objects.
const MAX_DEPTH: usize = 32;

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any JSON number (parsed as `f64`).
    Num(f64),
    /// A string, unescaped.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object, in source order (duplicate keys are kept; `get`
    /// returns the first).
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Member `key` of an object, `None` for other variants or a
    /// missing key.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(members) => members.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The value as a non-negative integer, if it is a number that is
    /// one (rejects fractions, negatives, and overflow).
    pub fn as_u64(&self) -> Option<u64> {
        match *self {
            Json::Num(n) if n >= 0.0 && n.fract() == 0.0 && n <= u64::MAX as f64 => Some(n as u64),
            _ => None,
        }
    }

    /// The value as a `usize`, via [`Json::as_u64`].
    pub fn as_usize(&self) -> Option<usize> {
        self.as_u64().and_then(|v| usize::try_from(v).ok())
    }

    /// The value as an `f64`, if it is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match *self {
            Json::Num(n) => Some(n),
            _ => None,
        }
    }

    /// The value as a string slice, if it is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The elements of an array, if this is one.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// The value as a bool, if it is one.
    pub fn as_bool(&self) -> Option<bool> {
        match *self {
            Json::Bool(b) => Some(b),
            _ => None,
        }
    }
}

/// Parse one complete JSON document; trailing non-whitespace is an
/// error, as is anything outside RFC 8259.
pub fn parse(input: &str) -> Result<Json, String> {
    let mut p = Parser {
        bytes: input.as_bytes(),
        pos: 0,
    };
    p.skip_ws();
    let value = p.value(0)?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(format!("trailing bytes at offset {}", p.pos));
    }
    Ok(value)
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl Parser<'_> {
    fn skip_ws(&mut self) {
        while matches!(self.bytes.get(self.pos), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn expect(&mut self, b: u8) -> Result<(), String> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(format!("expected {:?} at offset {}", b as char, self.pos))
        }
    }

    fn literal(&mut self, word: &str, value: Json) -> Result<Json, String> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(format!("invalid literal at offset {}", self.pos))
        }
    }

    fn value(&mut self, depth: usize) -> Result<Json, String> {
        if depth > MAX_DEPTH {
            return Err(format!("nesting deeper than {MAX_DEPTH}"));
        }
        match self.peek() {
            Some(b'n') => self.literal("null", Json::Null),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'"') => self.string().map(Json::Str),
            Some(b'[') => self.array(depth),
            Some(b'{') => self.object(depth),
            Some(b'-' | b'0'..=b'9') => self.number(),
            Some(c) => Err(format!("unexpected {:?} at offset {}", c as char, self.pos)),
            None => Err("unexpected end of input".into()),
        }
    }

    fn array(&mut self, depth: usize) -> Result<Json, String> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value(depth + 1)?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Arr(items));
                }
                _ => return Err(format!("expected ',' or ']' at offset {}", self.pos)),
            }
        }
    }

    fn object(&mut self, depth: usize) -> Result<Json, String> {
        self.expect(b'{')?;
        let mut members = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(members));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let value = self.value(depth + 1)?;
            members.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(members));
                }
                _ => return Err(format!("expected ',' or '}}' at offset {}", self.pos)),
            }
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err("unterminated string".into()),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    match self.peek() {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'/') => out.push('/'),
                        Some(b'b') => out.push('\u{8}'),
                        Some(b'f') => out.push('\u{c}'),
                        Some(b'n') => out.push('\n'),
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'u') => {
                            // Four hex digits exactly: `from_str_radix`
                            // alone would take a sign (`\u+041`).
                            let hex = self
                                .bytes
                                .get(self.pos + 1..self.pos + 5)
                                .filter(|h| h.iter().all(u8::is_ascii_hexdigit))
                                .and_then(|h| std::str::from_utf8(h).ok())
                                .and_then(|h| u32::from_str_radix(h, 16).ok())
                                .ok_or_else(|| {
                                    format!("malformed \\u escape at offset {}", self.pos)
                                })?;
                            // Surrogates are rejected rather than paired:
                            // none of this API's fields carry them.
                            let c = char::from_u32(hex).ok_or_else(|| {
                                format!("invalid \\u code point at offset {}", self.pos)
                            })?;
                            out.push(c);
                            self.pos += 4;
                        }
                        _ => return Err(format!("invalid escape at offset {}", self.pos)),
                    }
                    self.pos += 1;
                }
                Some(c) if c < 0x20 => {
                    return Err(format!("raw control byte in string at offset {}", self.pos))
                }
                Some(_) => {
                    // Multi-byte UTF-8 sequences pass through unchanged
                    // (the body was validated as UTF-8 before parsing).
                    let start = self.pos;
                    self.pos += 1;
                    while self.bytes.get(self.pos).is_some_and(|&b| b & 0xC0 == 0x80) {
                        self.pos += 1;
                    }
                    out.push_str(
                        std::str::from_utf8(&self.bytes[start..self.pos])
                            .map_err(|_| format!("invalid UTF-8 at offset {start}"))?,
                    );
                }
            }
        }
    }

    fn number(&mut self) -> Result<Json, String> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        let digits = |p: &mut Self| {
            let from = p.pos;
            while matches!(p.peek(), Some(b'0'..=b'9')) {
                p.pos += 1;
            }
            p.pos > from
        };
        // RFC 8259 integer part: a lone 0, or a nonzero digit then more.
        match self.peek() {
            Some(b'0') => self.pos += 1,
            Some(b'1'..=b'9') => {
                digits(self);
            }
            _ => return Err(format!("malformed number at offset {start}")),
        }
        if self.peek() == Some(b'.') {
            self.pos += 1;
            if !digits(self) {
                return Err(format!("malformed number at offset {start}"));
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            if !digits(self) {
                return Err(format!("malformed number at offset {start}"));
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).expect("ASCII number");
        text.parse::<f64>()
            .map(Json::Num)
            .map_err(|_| format!("unrepresentable number at offset {start}"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_the_run_body_shape() {
        let v = parse(
            r#"{"recovery": {"max_attempts": 4}, "faults": {"seed": 9, "crash_rank": 1, "crash_op": 2}}"#,
        )
        .unwrap();
        assert_eq!(
            v.get("recovery")
                .and_then(|r| r.get("max_attempts"))
                .and_then(Json::as_usize),
            Some(4)
        );
        let faults = v.get("faults").unwrap();
        assert_eq!(faults.get("seed").and_then(Json::as_u64), Some(9));
        assert_eq!(faults.get("crash_rank").and_then(Json::as_usize), Some(1));
        assert_eq!(faults.get("crash_op").and_then(Json::as_u64), Some(2));
    }

    #[test]
    fn scalars_arrays_and_escapes() {
        assert_eq!(parse("null").unwrap(), Json::Null);
        assert_eq!(parse(" true ").unwrap(), Json::Bool(true));
        assert_eq!(parse("-1.5e2").unwrap(), Json::Num(-150.0));
        assert_eq!(
            parse(r#""a\"b\n\u0041""#).unwrap(),
            Json::Str("a\"b\nA".into())
        );
        assert_eq!(
            parse(r#""\b\f\/\r\t\\""#).unwrap(),
            Json::Str("\u{8}\u{c}/\r\t\\".into())
        );
        assert_eq!(
            parse("[1, [2], {}]").unwrap(),
            Json::Arr(vec![
                Json::Num(1.0),
                Json::Arr(vec![Json::Num(2.0)]),
                Json::Obj(vec![])
            ])
        );
        assert_eq!(parse("[ \n]").unwrap(), Json::Arr(vec![]));
        assert_eq!(parse("{ \t}").unwrap(), Json::Obj(vec![]));
        assert_eq!(
            parse("[1, 2]").unwrap().as_arr(),
            Some(&[Json::Num(1.0), Json::Num(2.0)][..])
        );
        assert_eq!(parse("{}").unwrap().as_arr(), None);
        // Non-ASCII passes through.
        assert_eq!(parse("\"é 😀\"").unwrap(), Json::Str("é 😀".into()));
    }

    #[test]
    fn rejects_malformed_documents() {
        for bad in [
            "",
            "{",
            "}",
            "[1,]",
            "{\"a\":}",
            "01",
            "1.",
            "nul",
            "\"\\x\"",
            "\"unterminated",
            "{\"a\":1} extra",
            "NaN",
            "+1",
            "--1",
            "{'a': 1}",
            "{\"a\" 1}",
            "[1, 2}",
            "\"\\u+041\"",
            "\"\\u00g1\"",
            "\"\\u041\"",
            "\"\\ud800 lone\"",
        ] {
            assert!(parse(bad).is_err(), "accepted {bad:?}");
        }
        assert!(parse("[1, x]").unwrap_err().contains("offset 4"));
    }

    #[test]
    fn rejects_pathological_nesting() {
        let deep = "[".repeat(200) + &"]".repeat(200);
        assert!(parse(&deep).unwrap_err().contains("nesting"));
    }

    #[test]
    fn integer_coercions_are_strict() {
        assert_eq!(parse("3").unwrap().as_usize(), Some(3));
        assert_eq!(parse("3.5").unwrap().as_usize(), None);
        assert_eq!(parse("-3").unwrap().as_u64(), None);
        assert_eq!(parse("\"3\"").unwrap().as_u64(), None);
    }
}
