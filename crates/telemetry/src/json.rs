//! Hand-rolled JSON emission (and a small validating parser for tests).
//!
//! The telemetry JSONL schema is flat and fully known at compile time, so a
//! tiny push-based object writer beats dragging a serialization framework
//! into the fuzzing hot path (and keeps this crate dependency-free).

use std::fmt::Write;

/// Appends `text` to `out` as a JSON string literal, escaping as required
/// by RFC 8259.
pub fn push_escaped(out: &mut String, text: &str) {
    out.push('"');
    for c in text.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

/// Incremental writer for one flat JSON object.
///
/// # Examples
///
/// ```
/// use cmfuzz_telemetry::json::ObjectWriter;
///
/// let mut obj = ObjectWriter::new();
/// obj.str_field("kind", "fault_found");
/// obj.u64_field("time", 42);
/// assert_eq!(obj.finish(), r#"{"kind":"fault_found","time":42}"#);
/// ```
#[derive(Debug, Default)]
pub struct ObjectWriter {
    buf: String,
    any: bool,
}

impl ObjectWriter {
    /// Starts an empty object.
    #[must_use]
    pub fn new() -> Self {
        ObjectWriter {
            buf: String::from("{"),
            any: false,
        }
    }

    fn key(&mut self, name: &str) {
        if self.any {
            self.buf.push(',');
        }
        self.any = true;
        push_escaped(&mut self.buf, name);
        self.buf.push(':');
    }

    /// Adds a string field.
    pub fn str_field(&mut self, name: &str, value: &str) {
        self.key(name);
        push_escaped(&mut self.buf, value);
    }

    /// Adds an unsigned integer field.
    pub fn u64_field(&mut self, name: &str, value: u64) {
        self.key(name);
        let _ = write!(self.buf, "{value}");
    }

    /// Adds a field whose value is already-rendered JSON.
    pub fn raw_field(&mut self, name: &str, json: &str) {
        self.key(name);
        self.buf.push_str(json);
    }

    /// Closes the object and returns the JSON text.
    #[must_use]
    pub fn finish(mut self) -> String {
        self.buf.push('}');
        self.buf
    }
}

/// Deepest array/object nesting accepted by [`is_valid`] and by the
/// control plane's JSON parser. Both recurse once per level, so deeper
/// documents are rejected instead of overflowing the stack.
pub const MAX_DEPTH: usize = 128;

/// Validates that `text` is one well-formed JSON value (used by the test
/// suite to keep the JSONL sink honest without a parser dependency).
/// Values nested deeper than [`MAX_DEPTH`] are invalid.
#[must_use]
pub fn is_valid(text: &str) -> bool {
    let bytes = text.as_bytes();
    let mut pos = 0;
    if !parse_value(bytes, &mut pos, 0) {
        return false;
    }
    skip_ws(bytes, &mut pos);
    pos == bytes.len()
}

fn skip_ws(bytes: &[u8], pos: &mut usize) {
    while *pos < bytes.len() && matches!(bytes[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

/// Parses one value nested inside `depth` arrays/objects.
fn parse_value(bytes: &[u8], pos: &mut usize, depth: usize) -> bool {
    skip_ws(bytes, pos);
    match bytes.get(*pos) {
        Some(b'{' | b'[') if depth == MAX_DEPTH => false,
        Some(b'{') => parse_object(bytes, pos, depth + 1),
        Some(b'[') => parse_array(bytes, pos, depth + 1),
        Some(b'"') => parse_string(bytes, pos),
        Some(b't') => parse_literal(bytes, pos, b"true"),
        Some(b'f') => parse_literal(bytes, pos, b"false"),
        Some(b'n') => parse_literal(bytes, pos, b"null"),
        Some(_) => parse_number(bytes, pos),
        None => false,
    }
}

fn parse_literal(bytes: &[u8], pos: &mut usize, lit: &[u8]) -> bool {
    if bytes[*pos..].starts_with(lit) {
        *pos += lit.len();
        true
    } else {
        false
    }
}

fn parse_object(bytes: &[u8], pos: &mut usize, depth: usize) -> bool {
    *pos += 1; // '{'
    skip_ws(bytes, pos);
    if bytes.get(*pos) == Some(&b'}') {
        *pos += 1;
        return true;
    }
    loop {
        skip_ws(bytes, pos);
        if !parse_string(bytes, pos) {
            return false;
        }
        skip_ws(bytes, pos);
        if bytes.get(*pos) != Some(&b':') {
            return false;
        }
        *pos += 1;
        if !parse_value(bytes, pos, depth) {
            return false;
        }
        skip_ws(bytes, pos);
        match bytes.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b'}') => {
                *pos += 1;
                return true;
            }
            _ => return false,
        }
    }
}

fn parse_array(bytes: &[u8], pos: &mut usize, depth: usize) -> bool {
    *pos += 1; // '['
    skip_ws(bytes, pos);
    if bytes.get(*pos) == Some(&b']') {
        *pos += 1;
        return true;
    }
    loop {
        if !parse_value(bytes, pos, depth) {
            return false;
        }
        skip_ws(bytes, pos);
        match bytes.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b']') => {
                *pos += 1;
                return true;
            }
            _ => return false,
        }
    }
}

fn parse_string(bytes: &[u8], pos: &mut usize) -> bool {
    if bytes.get(*pos) != Some(&b'"') {
        return false;
    }
    *pos += 1;
    while let Some(&b) = bytes.get(*pos) {
        match b {
            b'"' => {
                *pos += 1;
                return true;
            }
            b'\\' => {
                *pos += 1;
                match bytes.get(*pos) {
                    Some(b'"' | b'\\' | b'/' | b'b' | b'f' | b'n' | b'r' | b't') => *pos += 1,
                    Some(b'u') => {
                        if bytes.len() < *pos + 5
                            || !bytes[*pos + 1..*pos + 5].iter().all(u8::is_ascii_hexdigit)
                        {
                            return false;
                        }
                        *pos += 5;
                    }
                    _ => return false,
                }
            }
            0x00..=0x1F => return false,
            _ => *pos += 1,
        }
    }
    false
}

fn parse_number(bytes: &[u8], pos: &mut usize) -> bool {
    let start = *pos;
    if bytes.get(*pos) == Some(&b'-') {
        *pos += 1;
    }
    let digits_start = *pos;
    while bytes.get(*pos).is_some_and(u8::is_ascii_digit) {
        *pos += 1;
    }
    if *pos == digits_start {
        return false;
    }
    if bytes.get(*pos) == Some(&b'.') {
        *pos += 1;
        let frac_start = *pos;
        while bytes.get(*pos).is_some_and(u8::is_ascii_digit) {
            *pos += 1;
        }
        if *pos == frac_start {
            return false;
        }
    }
    if matches!(bytes.get(*pos), Some(b'e' | b'E')) {
        *pos += 1;
        if matches!(bytes.get(*pos), Some(b'+' | b'-')) {
            *pos += 1;
        }
        let exp_start = *pos;
        while bytes.get(*pos).is_some_and(u8::is_ascii_digit) {
            *pos += 1;
        }
        if *pos == exp_start {
            return false;
        }
    }
    *pos > start
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn escaping_round_trips_through_validation() {
        let mut obj = ObjectWriter::new();
        obj.str_field("msg", "quote \" backslash \\ newline \n tab \t bell \u{7}");
        obj.u64_field("n", u64::MAX);
        obj.raw_field("arr", "[1,2.5,-3,\"x\",true,null]");
        let json = obj.finish();
        assert!(is_valid(&json), "{json}");
    }

    #[test]
    fn validator_accepts_and_rejects() {
        for good in [
            "{}",
            "[]",
            r#"{"a":1,"b":[{"c":"d"}],"e":-1.5e-3}"#,
            "  true ",
            r#""ÿ""#,
        ] {
            assert!(is_valid(good), "{good}");
        }
        for bad in [
            "",
            "{",
            r#"{"a":}"#,
            r#"{"a":1,}"#,
            "[1,]",
            "01x",
            r#""unterminated"#,
            "{}extra",
            r#""bad \q escape""#,
        ] {
            assert!(!is_valid(bad), "{bad}");
        }
    }

    #[test]
    fn nesting_is_bounded() {
        let at_limit = format!("{}{}", "[".repeat(MAX_DEPTH), "]".repeat(MAX_DEPTH));
        assert!(is_valid(&at_limit));
        let past_limit = format!("[{at_limit}]");
        assert!(!is_valid(&past_limit));
        // Deep enough to overflow the stack without the bound.
        assert!(!is_valid(&"[".repeat(50_000)));
        assert!(!is_valid(&"{\"a\":".repeat(50_000)));
    }

    #[test]
    fn empty_object_is_valid() {
        assert_eq!(ObjectWriter::new().finish(), "{}");
        assert!(is_valid("{}"));
    }
}
