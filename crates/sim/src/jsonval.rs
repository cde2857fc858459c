//! Minimal JSON reader for the workspace's wire and file formats.
//!
//! The workspace links no serialization framework, so every JSON it reads
//! goes through this hand-rolled reader: `iss serve` request
//! lines, result-store entries, JSONL records (the sharded sweep's
//! child→supervisor pipe and `--jsonl` exports), and the checked-in `ci/`
//! files (golden accuracy, perf baseline). It covers the JSON subset those
//! formats emit (objects, arrays, strings with escapes, numbers, booleans,
//! `null`), is strict about everything else, and keeps numbers as their
//! raw source tokens so `u64` quantities (cycle counts) round-trip exactly
//! instead of passing through an `f64`. Nesting is bounded by
//! [`MAX_DEPTH`], so a hostile request cannot overflow a thread's stack.

use std::fmt::Write as _;

/// Deepest array/object nesting [`parse`] accepts. The formats above nest
/// at most a few levels; the bound keeps the recursive descent far inside
/// a default 2 MiB thread stack whatever a client sends.
pub const MAX_DEPTH: usize = 64;

/// One parsed JSON value. Numbers keep their raw token (see
/// [`Json::as_u64`]/[`Json::as_f64`]); objects keep their key order.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true`/`false`.
    Bool(bool),
    /// A number, kept as its raw source token.
    Num(String),
    /// A string, with escapes resolved.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object, in source key order.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// The value of an object's `key`, if this is an object containing it.
    #[must_use]
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The string payload, for string values.
    #[must_use]
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The number token parsed as `u64`, when it is one exactly.
    #[must_use]
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::Num(raw) => raw.parse().ok(),
            _ => None,
        }
    }

    /// The number token parsed as `usize`, when it is one exactly.
    #[must_use]
    pub fn as_usize(&self) -> Option<usize> {
        match self {
            Json::Num(raw) => raw.parse().ok(),
            _ => None,
        }
    }

    /// The number token parsed as `f64` (accepts the `NaN`/`inf` tokens
    /// `f64`'s `Display` produces).
    #[must_use]
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(raw) => raw.parse().ok(),
            _ => None,
        }
    }

    /// The elements, for array values.
    #[must_use]
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// The fields in source order, for object values.
    #[must_use]
    pub fn as_obj(&self) -> Option<&[(String, Json)]> {
        match self {
            Json::Obj(fields) => Some(fields),
            _ => None,
        }
    }
}

/// Parses one complete JSON value; trailing non-whitespace is an error.
///
/// # Errors
///
/// Returns a byte-offset-annotated message on malformed input, including
/// nesting deeper than [`MAX_DEPTH`].
pub fn parse(text: &str) -> Result<Json, String> {
    let bytes = text.as_bytes();
    let mut pos = 0usize;
    let value = parse_value(bytes, &mut pos, 0)?;
    skip_ws(bytes, &mut pos);
    if pos != bytes.len() {
        return Err(format!("trailing data at byte {pos}"));
    }
    Ok(value)
}

fn skip_ws(bytes: &[u8], pos: &mut usize) {
    while *pos < bytes.len() && matches!(bytes[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

/// Parses the value at `pos`, which sits inside `depth` arrays/objects.
fn parse_value(bytes: &[u8], pos: &mut usize, depth: usize) -> Result<Json, String> {
    skip_ws(bytes, pos);
    match bytes.get(*pos) {
        None => Err("unexpected end of input".to_string()),
        Some(b'{' | b'[') if depth == MAX_DEPTH => Err(format!(
            "nesting deeper than {MAX_DEPTH} levels at byte {}",
            *pos
        )),
        Some(b'{') => parse_obj(bytes, pos, depth + 1),
        Some(b'[') => parse_arr(bytes, pos, depth + 1),
        Some(b'"') => Ok(Json::Str(parse_string(bytes, pos)?)),
        Some(b't') => parse_keyword(bytes, pos, "true", Json::Bool(true)),
        Some(b'f') => parse_keyword(bytes, pos, "false", Json::Bool(false)),
        Some(b'n') => parse_keyword(bytes, pos, "null", Json::Null),
        Some(_) => parse_number(bytes, pos),
    }
}

fn parse_keyword(bytes: &[u8], pos: &mut usize, word: &str, value: Json) -> Result<Json, String> {
    if bytes[*pos..].starts_with(word.as_bytes()) {
        *pos += word.len();
        Ok(value)
    } else {
        Err(format!("expected `{word}` at byte {pos}", pos = *pos))
    }
}

fn parse_number(bytes: &[u8], pos: &mut usize) -> Result<Json, String> {
    let start = *pos;
    // `f64::Display` emits `NaN`, `inf` and `-inf`; accept them so any
    // float a record can carry survives a round trip.
    for special in ["NaN", "inf", "-inf"] {
        if bytes[start..].starts_with(special.as_bytes()) {
            *pos += special.len();
            return Ok(Json::Num(special.to_string()));
        }
    }
    while *pos < bytes.len()
        && matches!(bytes[*pos], b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E')
    {
        *pos += 1;
    }
    let raw = std::str::from_utf8(&bytes[start..*pos])
        .map_err(|_| format!("invalid UTF-8 in number at byte {start}"))?;
    if raw.is_empty() || raw.parse::<f64>().is_err() {
        return Err(format!("malformed number `{raw}` at byte {start}"));
    }
    Ok(Json::Num(raw.to_string()))
}

fn parse_string(bytes: &[u8], pos: &mut usize) -> Result<String, String> {
    // Caller guarantees bytes[*pos] == b'"'.
    *pos += 1;
    let mut out = String::new();
    loop {
        match bytes.get(*pos) {
            None => return Err("unterminated string".to_string()),
            Some(b'"') => {
                *pos += 1;
                return Ok(out);
            }
            Some(b'\\') => {
                *pos += 1;
                match bytes.get(*pos) {
                    Some(b'"') => out.push('"'),
                    Some(b'\\') => out.push('\\'),
                    Some(b'/') => out.push('/'),
                    Some(b'b') => out.push('\u{8}'),
                    Some(b'f') => out.push('\u{c}'),
                    Some(b'n') => out.push('\n'),
                    Some(b'r') => out.push('\r'),
                    Some(b't') => out.push('\t'),
                    Some(b'u') => {
                        let hex = bytes
                            .get(*pos + 1..*pos + 5)
                            .and_then(|h| std::str::from_utf8(h).ok())
                            .ok_or_else(|| format!("truncated \\u escape at byte {}", *pos))?;
                        let code = u32::from_str_radix(hex, 16)
                            .map_err(|_| format!("bad \\u escape `{hex}`"))?;
                        // The writer only escapes control characters, which
                        // are never surrogate halves.
                        out.push(
                            char::from_u32(code)
                                .ok_or_else(|| format!("\\u escape `{hex}` is not a scalar"))?,
                        );
                        *pos += 4;
                    }
                    other => return Err(format!("bad escape {other:?}")),
                }
                *pos += 1;
            }
            Some(_) => {
                // Consume one UTF-8 scalar (strings may carry any text).
                let rest = std::str::from_utf8(&bytes[*pos..])
                    .map_err(|_| format!("invalid UTF-8 in string at byte {}", *pos))?;
                let Some(c) = rest.chars().next() else {
                    return Err("unterminated string".to_string());
                };
                out.push(c);
                *pos += c.len_utf8();
            }
        }
    }
}

fn parse_obj(bytes: &[u8], pos: &mut usize, depth: usize) -> Result<Json, String> {
    *pos += 1; // consume '{'
    let mut fields = Vec::new();
    skip_ws(bytes, pos);
    if bytes.get(*pos) == Some(&b'}') {
        *pos += 1;
        return Ok(Json::Obj(fields));
    }
    loop {
        skip_ws(bytes, pos);
        if bytes.get(*pos) != Some(&b'"') {
            return Err(format!("expected object key at byte {}", *pos));
        }
        let key = parse_string(bytes, pos)?;
        skip_ws(bytes, pos);
        if bytes.get(*pos) != Some(&b':') {
            return Err(format!("expected `:` at byte {}", *pos));
        }
        *pos += 1;
        let value = parse_value(bytes, pos, depth)?;
        fields.push((key, value));
        skip_ws(bytes, pos);
        match bytes.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b'}') => {
                *pos += 1;
                return Ok(Json::Obj(fields));
            }
            _ => return Err(format!("expected `,` or `}}` at byte {}", *pos)),
        }
    }
}

fn parse_arr(bytes: &[u8], pos: &mut usize, depth: usize) -> Result<Json, String> {
    *pos += 1; // consume '['
    let mut items = Vec::new();
    skip_ws(bytes, pos);
    if bytes.get(*pos) == Some(&b']') {
        *pos += 1;
        return Ok(Json::Arr(items));
    }
    loop {
        items.push(parse_value(bytes, pos, depth)?);
        skip_ws(bytes, pos);
        match bytes.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b']') => {
                *pos += 1;
                return Ok(Json::Arr(items));
            }
            _ => return Err(format!("expected `,` or `]` at byte {}", *pos)),
        }
    }
}

/// Escapes a string for embedding in a JSON document (quotes, backslashes
/// and control characters).
#[must_use]
pub fn escape(text: &str) -> String {
    let mut out = String::with_capacity(text.len());
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
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_the_wire_shapes() {
        let v = parse(r#"{"a": 1, "b": [true, null, "x"], "c": {"d": -2.5e3}}"#).unwrap();
        assert_eq!(v.get("a").and_then(Json::as_u64), Some(1));
        let b = v.get("b").and_then(Json::as_arr).unwrap();
        assert_eq!(b[0], Json::Bool(true));
        assert_eq!(b[1], Json::Null);
        assert_eq!(b[2].as_str(), Some("x"));
        assert_eq!(
            v.get("c").and_then(|c| c.get("d")).and_then(Json::as_f64),
            Some(-2500.0)
        );
    }

    #[test]
    fn u64_counts_round_trip_exactly() {
        let huge = u64::MAX.to_string();
        let v = parse(&format!("{{\"n\": {huge}}}")).unwrap();
        assert_eq!(v.get("n").and_then(Json::as_u64), Some(u64::MAX));
    }

    #[test]
    fn float_display_tokens_round_trip() {
        for raw in ["0.1", "2.0004", "1e-12", "NaN", "inf", "-inf"] {
            let v = parse(raw).unwrap();
            let parsed = v.as_f64().unwrap();
            let reparsed: f64 = raw.parse().unwrap();
            assert!(parsed == reparsed || (parsed.is_nan() && reparsed.is_nan()));
        }
    }

    #[test]
    fn escapes_round_trip_through_strings() {
        let nasty = "a \"quoted\\path\"\nwith\tcontrol \u{1} bytes and unicode \u{2603}";
        let doc = format!("{{\"s\": \"{}\"}}", escape(nasty));
        let v = parse(&doc).unwrap();
        assert_eq!(v.get("s").and_then(Json::as_str), Some(nasty));
    }

    #[test]
    fn nesting_is_bounded() {
        // Without the bound, either document overflows the test thread's
        // stack and aborts the whole test binary.
        for deep in ["[".repeat(100_000), "{\"a\":".repeat(100_000)] {
            let err = parse(&deep).unwrap_err();
            assert!(err.contains("nesting deeper than"), "{err}");
        }
        let at_bound = format!("{}{}", "[".repeat(MAX_DEPTH), "]".repeat(MAX_DEPTH));
        assert!(parse(&at_bound).is_ok());
        let past_bound = format!("[{at_bound}]");
        assert!(parse(&past_bound).is_err());
    }

    #[test]
    fn malformed_documents_fail_loudly() {
        for bad in [
            "",
            "{",
            "{\"a\" 1}",
            "[1,]",
            "{\"a\": 1} trailing",
            "\"unterminated",
            "nope",
            "12abc",
        ] {
            assert!(parse(bad).is_err(), "`{bad}` must not parse");
        }
    }
}
