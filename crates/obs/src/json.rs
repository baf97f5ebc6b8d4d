//! Minimal hand-rolled JSON support: escaping and member writers used
//! by the report/trace serializers, and a small validating parser so tests and
//! the CI smoke run can check emitted documents without external crates.

/// Append `s` to `out` as a JSON string literal (quotes included).
pub fn push_str(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

/// Append `v` to `out` as a finite JSON number. Non-finite values (which
/// JSON cannot represent) are written as `0`.
pub fn push_f64(out: &mut String, v: f64) {
    if v.is_finite() {
        // Shortest roundtrip formatting; always valid JSON (no NaN/inf).
        out.push_str(&format!("{v}"));
        // `{}` on an integral f64 prints no decimal point; that is still
        // valid JSON, so leave it.
    } else {
        out.push('0');
    }
}

/// Append the comma that separates siblings — nothing right after the
/// `{` or `[` that opened their container.
pub fn push_sep(out: &mut String) {
    if !out.ends_with(['{', '[']) {
        out.push(',');
    }
}

/// Append `"key":` as the next member of the open object; the value is
/// the caller's to append.
pub fn push_key(out: &mut String, key: &str) {
    push_sep(out);
    push_str(out, key);
    out.push(':');
}

/// Append the member `"key":v`, `v` an integer or a bool.
pub fn member(out: &mut String, key: &str, v: impl std::fmt::Display) {
    push_key(out, key);
    out.push_str(&v.to_string());
}

/// Append the member `"key":v` ([`push_f64`] rules).
pub fn member_f64(out: &mut String, key: &str, v: f64) {
    push_key(out, key);
    push_f64(out, v);
}

/// Append the member `"key":"v"`, escaped.
pub fn member_str(out: &mut String, key: &str, v: &str) {
    push_key(out, key);
    push_str(out, v);
}

/// Maximum nesting depth [`validate`] accepts.
const MAX_DEPTH: usize = 64;

/// Validate that `input` is one complete JSON value (RFC 8259 subset:
/// no duplicate-key detection). Returns the byte offset of the first
/// error, with a short description.
pub fn validate(input: &str) -> Result<(), String> {
    let bytes = input.as_bytes();
    let mut pos = 0usize;
    skip_ws(bytes, &mut pos);
    parse_value(bytes, &mut pos, 0)?;
    skip_ws(bytes, &mut pos);
    if pos != bytes.len() {
        return Err(format!("trailing data at byte {pos}"));
    }
    Ok(())
}

fn skip_ws(bytes: &[u8], pos: &mut usize) {
    while *pos < bytes.len() && matches!(bytes[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

fn parse_value(bytes: &[u8], pos: &mut usize, depth: usize) -> Result<(), String> {
    if depth > MAX_DEPTH {
        return Err(format!("nesting deeper than {MAX_DEPTH} at byte {pos}"));
    }
    match bytes.get(*pos) {
        None => Err(format!("unexpected end of input at byte {pos}")),
        Some(b'{') => parse_object(bytes, pos, depth),
        Some(b'[') => parse_array(bytes, pos, depth),
        Some(b'"') => parse_string(bytes, pos),
        Some(b't') => parse_literal(bytes, pos, b"true"),
        Some(b'f') => parse_literal(bytes, pos, b"false"),
        Some(b'n') => parse_literal(bytes, pos, b"null"),
        Some(c) if *c == b'-' || c.is_ascii_digit() => parse_number(bytes, pos),
        Some(c) => Err(format!("unexpected byte {c:#x} at {pos}")),
    }
}

fn parse_object(bytes: &[u8], pos: &mut usize, depth: usize) -> Result<(), String> {
    *pos += 1; // consume '{'
    skip_ws(bytes, pos);
    if bytes.get(*pos) == Some(&b'}') {
        *pos += 1;
        return Ok(());
    }
    loop {
        skip_ws(bytes, pos);
        if bytes.get(*pos) != Some(&b'"') {
            return Err(format!("expected object key at byte {pos}"));
        }
        parse_string(bytes, pos)?;
        skip_ws(bytes, pos);
        if bytes.get(*pos) != Some(&b':') {
            return Err(format!("expected ':' at byte {pos}"));
        }
        *pos += 1;
        skip_ws(bytes, pos);
        parse_value(bytes, pos, depth + 1)?;
        skip_ws(bytes, pos);
        match bytes.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b'}') => {
                *pos += 1;
                return Ok(());
            }
            _ => return Err(format!("expected ',' or '}}' at byte {pos}")),
        }
    }
}

fn parse_array(bytes: &[u8], pos: &mut usize, depth: usize) -> Result<(), String> {
    *pos += 1; // consume '['
    skip_ws(bytes, pos);
    if bytes.get(*pos) == Some(&b']') {
        *pos += 1;
        return Ok(());
    }
    loop {
        skip_ws(bytes, pos);
        parse_value(bytes, pos, depth + 1)?;
        skip_ws(bytes, pos);
        match bytes.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b']') => {
                *pos += 1;
                return Ok(());
            }
            _ => return Err(format!("expected ',' or ']' at byte {pos}")),
        }
    }
}

fn parse_string(bytes: &[u8], pos: &mut usize) -> Result<(), String> {
    *pos += 1; // consume opening quote
    while let Some(&c) = bytes.get(*pos) {
        match c {
            b'"' => {
                *pos += 1;
                return Ok(());
            }
            b'\\' => match bytes.get(*pos + 1) {
                Some(b'"' | b'\\' | b'/' | b'b' | b'f' | b'n' | b'r' | b't') => *pos += 2,
                Some(b'u') => {
                    let hex = bytes
                        .get(*pos + 2..*pos + 6)
                        .ok_or_else(|| format!("truncated \\u escape at byte {pos}"))?;
                    if !hex.iter().all(u8::is_ascii_hexdigit) {
                        return Err(format!("bad \\u escape at byte {pos}"));
                    }
                    *pos += 6;
                }
                _ => return Err(format!("bad escape at byte {pos}")),
            },
            c if c < 0x20 => return Err(format!("raw control byte {c:#x} at {pos}")),
            _ => *pos += 1,
        }
    }
    Err(format!("unterminated string at byte {pos}"))
}

fn parse_literal(bytes: &[u8], pos: &mut usize, lit: &[u8]) -> Result<(), String> {
    if bytes.get(*pos..*pos + lit.len()) == Some(lit) {
        *pos += lit.len();
        Ok(())
    } else {
        Err(format!("bad literal at byte {pos}"))
    }
}

fn parse_number(bytes: &[u8], pos: &mut usize) -> Result<(), String> {
    let start = *pos;
    if bytes.get(*pos) == Some(&b'-') {
        *pos += 1;
    }
    let int_digits = eat_digits(bytes, pos);
    if int_digits == 0 {
        return Err(format!("expected digits at byte {pos}"));
    }
    if bytes.get(*pos) == Some(&b'.') {
        *pos += 1;
        if eat_digits(bytes, pos) == 0 {
            return Err(format!("expected fraction digits at byte {pos}"));
        }
    }
    if matches!(bytes.get(*pos), Some(b'e' | b'E')) {
        *pos += 1;
        if matches!(bytes.get(*pos), Some(b'+' | b'-')) {
            *pos += 1;
        }
        if eat_digits(bytes, pos) == 0 {
            return Err(format!("expected exponent digits at byte {pos}"));
        }
    }
    debug_assert!(*pos > start);
    Ok(())
}

fn eat_digits(bytes: &[u8], pos: &mut usize) -> usize {
    let start = *pos;
    while matches!(bytes.get(*pos), Some(c) if c.is_ascii_digit()) {
        *pos += 1;
    }
    *pos - start
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn writers_escape_and_format() {
        let mut s = String::new();
        push_str(&mut s, "a\"b\\c\nd\u{1}");
        assert_eq!(s, "\"a\\\"b\\\\c\\nd\\u0001\"");
        let mut n = String::new();
        push_f64(&mut n, 1.5);
        push_f64(&mut n, f64::NAN);
        assert_eq!(n, "1.50");
        let mut doc = String::from("[");
        doc.push_str(&s);
        doc.push(',');
        let mut num = String::new();
        push_f64(&mut num, -2.25e-3);
        doc.push_str(&num);
        doc.push(']');
        validate(&doc).unwrap();
    }

    #[test]
    fn accepts_valid_documents() {
        for doc in [
            "null",
            "true",
            "-12.5e3",
            "\"hi\\u00e9\"",
            "[]",
            "{}",
            "{\"a\":[1,2,{\"b\":null}],\"c\":\"x\"}",
            " { \"k\" : [ 1 , 2 ] } ",
        ] {
            validate(doc).unwrap_or_else(|e| panic!("{doc}: {e}"));
        }
    }

    #[test]
    fn rejects_invalid_documents() {
        for doc in [
            "",
            "{",
            "[1,]",
            "{\"a\"}",
            "{\"a\":}",
            "{a:1}",
            "\"unterminated",
            "1 2",
            "01e",
            "nul",
            "[\"\\x\"]",
        ] {
            assert!(validate(doc).is_err(), "{doc:?} should be rejected");
        }
    }

    #[test]
    fn depth_is_bounded() {
        let deep = "[".repeat(200) + &"]".repeat(200);
        assert!(validate(&deep).is_err());
        let ok = "[".repeat(20) + &"]".repeat(20);
        validate(&ok).unwrap();
    }
}
