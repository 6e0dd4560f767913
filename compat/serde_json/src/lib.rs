//! Offline stand-in for the `serde_json` crate.
//!
//! Renders and parses the [`serde::Value`] tree of the offline serde
//! stand-in. The emitted text is standard JSON except for three non-finite
//! number tokens (`Infinity`, `-Infinity`, `NaN`), which this crate both
//! emits and accepts so that metric reports containing empty running
//! statistics (whose min/max are ±∞) still round-trip.

use serde::{Deserialize, Serialize, Value};
use std::fmt;

/// Error produced while parsing or converting JSON.
#[derive(Debug, Clone, PartialEq)]
pub struct Error {
    message: String,
}

impl Error {
    fn new(message: impl Into<String>) -> Self {
        Error {
            message: message.into(),
        }
    }
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.message)
    }
}

impl std::error::Error for Error {}

impl From<serde::Error> for Error {
    fn from(value: serde::Error) -> Self {
        Error::new(value.to_string())
    }
}

/// Serializes a value to compact JSON.
///
/// # Errors
///
/// Infallible for the value model of the stand-in; the `Result` mirrors the
/// real `serde_json` signature.
pub fn to_string<T: Serialize>(value: &T) -> Result<String, Error> {
    let mut out = String::new();
    write_value(&mut out, &value.to_value(), None, 0);
    Ok(out)
}

/// Serializes a value to pretty-printed JSON (two-space indent).
///
/// # Errors
///
/// Infallible for the value model of the stand-in.
pub fn to_string_pretty<T: Serialize>(value: &T) -> Result<String, Error> {
    let mut out = String::new();
    write_value(&mut out, &value.to_value(), Some(2), 0);
    Ok(out)
}

/// Converts a serializable value into the generic value tree.
pub fn to_value<T: Serialize>(value: &T) -> Value {
    value.to_value()
}

/// Parses a type from JSON text.
///
/// # Errors
///
/// Returns [`Error`] on malformed JSON or a shape mismatch.
pub fn from_str<T: Deserialize>(text: &str) -> Result<T, Error> {
    let value = parse_value_str(text)?;
    Ok(T::from_value(&value)?)
}

/// Parses JSON text into the generic value tree.
///
/// # Errors
///
/// Returns [`Error`] on malformed JSON.
pub fn parse_value_str(text: &str) -> Result<Value, Error> {
    let bytes = text.as_bytes();
    let mut pos = 0;
    let value = parse_value(bytes, &mut pos, 0)?;
    skip_ws(bytes, &mut pos);
    if pos != bytes.len() {
        return Err(Error::new(format!("trailing characters at byte {pos}")));
    }
    Ok(value)
}

fn write_value(out: &mut String, value: &Value, indent: Option<usize>, level: usize) {
    match value {
        Value::Unit => out.push_str("null"),
        Value::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
        Value::Int(i) => out.push_str(&i.to_string()),
        Value::UInt(u) => out.push_str(&u.to_string()),
        Value::Float(f) => out.push_str(&format_float(*f)),
        Value::Str(s) => write_string(out, s),
        Value::Seq(items) => {
            if items.is_empty() {
                out.push_str("[]");
                return;
            }
            out.push('[');
            for (i, item) in items.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                newline_indent(out, indent, level + 1);
                write_value(out, item, indent, level + 1);
            }
            newline_indent(out, indent, level);
            out.push(']');
        }
        Value::Map(entries) => {
            if entries.is_empty() {
                out.push_str("{}");
                return;
            }
            out.push('{');
            for (i, (key, item)) in entries.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                newline_indent(out, indent, level + 1);
                write_string(out, key);
                out.push(':');
                if indent.is_some() {
                    out.push(' ');
                }
                write_value(out, item, indent, level + 1);
            }
            newline_indent(out, indent, level);
            out.push('}');
        }
    }
}

fn newline_indent(out: &mut String, indent: Option<usize>, level: usize) {
    if let Some(width) = indent {
        out.push('\n');
        for _ in 0..width * level {
            out.push(' ');
        }
    }
}

fn format_float(f: f64) -> String {
    if f.is_nan() {
        "NaN".to_string()
    } else if f == f64::INFINITY {
        "Infinity".to_string()
    } else if f == f64::NEG_INFINITY {
        "-Infinity".to_string()
    } else {
        // `{:?}` prints the shortest representation that round-trips and
        // always marks the value as a float ("8.0", "1e-10").
        format!("{f:?}")
    }
}

fn write_string(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
}

fn skip_ws(bytes: &[u8], pos: &mut usize) {
    while *pos < bytes.len() && matches!(bytes[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

/// Deepest `[`/`{` nesting the parser accepts. [`parse_value`] recurses
/// once per level, so without a cap a hostile input (a cache entry, a merge
/// file, a network frame) could overflow the stack and abort the process.
/// Every document this workspace writes nests far less deeply.
const MAX_DEPTH: usize = 128;

/// Parses one value; `depth` counts the containers already open around it.
fn parse_value(bytes: &[u8], pos: &mut usize, depth: usize) -> Result<Value, Error> {
    skip_ws(bytes, pos);
    match bytes.get(*pos) {
        None => Err(Error::new("unexpected end of input")),
        Some(b'{' | b'[') if depth == MAX_DEPTH => Err(Error::new(format!(
            "nesting deeper than {MAX_DEPTH} levels at byte {pos}"
        ))),
        Some(b'{') => {
            *pos += 1;
            let mut entries = Vec::new();
            skip_ws(bytes, pos);
            if bytes.get(*pos) == Some(&b'}') {
                *pos += 1;
                return Ok(Value::Map(entries));
            }
            loop {
                skip_ws(bytes, pos);
                let key = parse_string(bytes, pos)?;
                skip_ws(bytes, pos);
                if bytes.get(*pos) != Some(&b':') {
                    return Err(Error::new(format!("expected `:` at byte {pos}")));
                }
                *pos += 1;
                let value = parse_value(bytes, pos, depth + 1)?;
                entries.push((key, value));
                skip_ws(bytes, pos);
                match bytes.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b'}') => {
                        *pos += 1;
                        return Ok(Value::Map(entries));
                    }
                    _ => return Err(Error::new(format!("expected `,` or `}}` at byte {pos}"))),
                }
            }
        }
        Some(b'[') => {
            *pos += 1;
            let mut items = Vec::new();
            skip_ws(bytes, pos);
            if bytes.get(*pos) == Some(&b']') {
                *pos += 1;
                return Ok(Value::Seq(items));
            }
            loop {
                items.push(parse_value(bytes, pos, depth + 1)?);
                skip_ws(bytes, pos);
                match bytes.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b']') => {
                        *pos += 1;
                        return Ok(Value::Seq(items));
                    }
                    _ => return Err(Error::new(format!("expected `,` or `]` at byte {pos}"))),
                }
            }
        }
        Some(b'"') => Ok(Value::Str(parse_string(bytes, pos)?)),
        Some(_) => parse_scalar(bytes, pos),
    }
}

fn parse_string(bytes: &[u8], pos: &mut usize) -> Result<String, Error> {
    if bytes.get(*pos) != Some(&b'"') {
        return Err(Error::new(format!("expected string at byte {pos}")));
    }
    *pos += 1;
    let mut out = String::new();
    loop {
        // Copy everything up to the next `"` or `\` in one piece. Neither
        // byte occurs inside a multi-byte UTF-8 sequence, so the run starts
        // and ends on character boundaries, and each input byte is scanned
        // and validated once.
        let rest = &bytes[*pos..];
        let run = rest
            .iter()
            .position(|&b| matches!(b, b'"' | b'\\'))
            .ok_or_else(|| Error::new("unterminated string"))?;
        let text =
            std::str::from_utf8(&rest[..run]).map_err(|_| Error::new("invalid UTF-8 in string"))?;
        out.push_str(text);
        *pos += run + 1;
        if rest[run] == b'"' {
            return Ok(out);
        }
        match bytes.get(*pos) {
            Some(b'"') => out.push('"'),
            Some(b'\\') => out.push('\\'),
            Some(b'/') => out.push('/'),
            Some(b'n') => out.push('\n'),
            Some(b'r') => out.push('\r'),
            Some(b't') => out.push('\t'),
            Some(b'b') => out.push('\u{8}'),
            Some(b'f') => out.push('\u{c}'),
            Some(b'u') => {
                let (c, len) = unicode_escape(&bytes[*pos + 1..])?;
                out.push(c);
                *pos += len;
            }
            _ => return Err(Error::new("invalid escape sequence")),
        }
        *pos += 1;
    }
}

/// Decodes the hex digits after a `\u`, returning the character and the
/// number of bytes consumed. A high surrogate combines with the `\uXXXX` low
/// surrogate that must follow it; a lone or reversed surrogate is an error.
fn unicode_escape(bytes: &[u8]) -> Result<(char, usize), Error> {
    let unpaired = || Error::new("unpaired surrogate in \\u escape");
    let first = hex4(bytes)?;
    if !(0xD800..0xDC00).contains(&first) {
        // A scalar value, or a lone low surrogate (which `from_u32` rejects).
        return char::from_u32(first.into())
            .map(|c| (c, 4))
            .ok_or_else(unpaired);
    }
    if bytes.get(4..6) != Some(b"\\u") {
        return Err(unpaired());
    }
    match char::decode_utf16([first, hex4(&bytes[6..])?]).next() {
        Some(Ok(c)) => Ok((c, 10)),
        _ => Err(unpaired()),
    }
}

/// The UTF-16 code unit spelled by the first four bytes (hex digits).
fn hex4(bytes: &[u8]) -> Result<u16, Error> {
    let digits = bytes
        .get(..4)
        .ok_or_else(|| Error::new("truncated \\u escape"))?;
    digits.iter().try_fold(0u16, |unit, &b| {
        let digit = char::from(b)
            .to_digit(16)
            .ok_or_else(|| Error::new("invalid \\u escape"))?;
        Ok(unit << 4 | digit as u16)
    })
}

fn parse_scalar(bytes: &[u8], pos: &mut usize) -> Result<Value, Error> {
    let start = *pos;
    while *pos < bytes.len()
        && !matches!(
            bytes[*pos],
            b',' | b']' | b'}' | b' ' | b'\t' | b'\n' | b'\r' | b':'
        )
    {
        *pos += 1;
    }
    let token = std::str::from_utf8(&bytes[start..*pos])
        .map_err(|_| Error::new("invalid UTF-8 in scalar"))?;
    match token {
        "null" => Ok(Value::Unit),
        "true" => Ok(Value::Bool(true)),
        "false" => Ok(Value::Bool(false)),
        "NaN" => Ok(Value::Float(f64::NAN)),
        "Infinity" => Ok(Value::Float(f64::INFINITY)),
        "-Infinity" => Ok(Value::Float(f64::NEG_INFINITY)),
        _ => {
            if token.contains('.') || token.contains('e') || token.contains('E') {
                token
                    .parse::<f64>()
                    .map(Value::Float)
                    .map_err(|_| Error::new(format!("invalid number `{token}`")))
            } else if let Ok(i) = token.parse::<i64>() {
                Ok(Value::Int(i))
            } else if let Ok(u) = token.parse::<u64>() {
                Ok(Value::UInt(u))
            } else {
                Err(Error::new(format!("invalid token `{token}`")))
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn value_round_trips() {
        let value = Value::Map(vec![
            ("a".into(), Value::Int(-3)),
            ("b".into(), Value::Float(2.5)),
            ("c".into(), Value::Seq(vec![Value::Bool(true), Value::Unit])),
            ("d".into(), Value::Str("x \"y\"\nz".into())),
            ("inf".into(), Value::Float(f64::INFINITY)),
            ("ninf".into(), Value::Float(f64::NEG_INFINITY)),
        ]);
        let mut compact = String::new();
        write_value(&mut compact, &value, None, 0);
        assert_eq!(parse_value_str(&compact).unwrap(), value);
        let mut pretty = String::new();
        write_value(&mut pretty, &value, Some(2), 0);
        assert_eq!(parse_value_str(&pretty).unwrap(), value);
    }

    #[test]
    fn nan_round_trips_as_nan() {
        let mut out = String::new();
        write_value(&mut out, &Value::Float(f64::NAN), None, 0);
        assert_eq!(out, "NaN");
        match parse_value_str("NaN").unwrap() {
            Value::Float(f) => assert!(f.is_nan()),
            other => panic!("expected float, got {other:?}"),
        }
    }

    #[test]
    fn typed_round_trip() {
        let v: Vec<f64> = from_str(&to_string(&vec![1.0f64, 2.5]).unwrap()).unwrap();
        assert_eq!(v, vec![1.0, 2.5]);
    }

    #[test]
    fn rejects_garbage() {
        assert!(parse_value_str("{").is_err());
        assert!(parse_value_str("[1,]").is_err());
        assert!(parse_value_str("1 2").is_err());
        assert!(parse_value_str("wibble").is_err());
    }

    fn parse_str(json: &str) -> Result<String, Error> {
        match parse_value_str(json)? {
            Value::Str(s) => Ok(s),
            other => panic!("expected a string, got {other:?}"),
        }
    }

    #[test]
    fn surrogate_pairs_combine_into_one_char() {
        assert_eq!(parse_str(r#""\ud83d\ude00""#).unwrap(), "\u{1F600}");
        assert_eq!(parse_str(r#""a\uD834\uDD1Eb""#).unwrap(), "a\u{1D11E}b");
        assert_eq!(parse_str(r#""\u00e9\u4e2d""#).unwrap(), "é中");
    }

    #[test]
    fn lone_and_reversed_surrogates_are_errors() {
        for bad in [
            r#""\ud83d""#,       // high surrogate at the end
            r#""\ud83dx""#,      // high surrogate followed by text
            r#""\ud83d\u0041""#, // high surrogate followed by a scalar
            r#""\ud83d\ud83d""#, // two high surrogates
            r#""\ude00""#,       // lone low surrogate
            r#""\ude00\ud83d""#, // reversed pair
            r#""\ud83d\ude0""#,  // truncated low half
            r#""\u+041""#,       // sign is not a hex digit
        ] {
            assert!(parse_str(bad).is_err(), "{bad} must be rejected");
        }
    }

    #[test]
    fn nesting_is_capped_with_an_error_not_a_stack_overflow() {
        let nested = |depth: usize| format!("{}{}", "[".repeat(depth), "]".repeat(depth));
        assert!(parse_value_str(&nested(MAX_DEPTH)).is_ok());
        let err = parse_value_str(&nested(MAX_DEPTH + 1)).unwrap_err();
        assert!(err.to_string().contains("nesting"), "{err}");
        // Unbalanced and far deeper than any thread's stack allows.
        assert!(parse_value_str(&"[".repeat(100_000)).is_err());
        assert!(parse_value_str(&r#"{"a":"#.repeat(100_000)).is_err());
    }

    #[test]
    fn string_decoding_is_linear_in_the_input() {
        // ~4 MB of string-heavy JSON mixing multi-byte characters and
        // escapes. A linear decoder needs tens of milliseconds; a quadratic
        // one needs minutes, so the parse runs on a worker and the test
        // fails on a deadline instead of hanging.
        let item = r#""ab\"cd é中😀 \\ \u00e9 lorem ipsum dolor sit amet, consectetur""#;
        let doc = format!("[{}]", vec![item; 4_000_000 / item.len()].join(","));
        let (done, finished) = std::sync::mpsc::channel();
        std::thread::spawn(move || done.send(parse_value_str(&doc).map(|_| ())));
        let outcome = finished
            .recv_timeout(std::time::Duration::from_secs(5))
            .expect("parsing ~4 MB took over 5 s: string decoding is not linear");
        outcome.unwrap();
    }

    /// A character drawn to exercise every branch of the string codec.
    fn test_char(raw: u32) -> char {
        let pick = raw >> 3;
        match raw % 8 {
            0 => char::from(b' ' + (pick % 95) as u8),
            1 => '"',
            2 => '\\',
            3 => char::from((pick % 0x20) as u8),
            4 => ['é', 'ß', 'Ω', 'ж'][pick as usize % 4],
            5 => ['中', '€', '\u{FFFD}', '\u{2028}'][pick as usize % 4],
            6 => ['😀', '𝄞', '\u{10FFFF}', '\u{1F4A9}'][pick as usize % 4],
            _ => char::from_u32(pick % 0x11_0000).unwrap_or('\u{D7FF}'),
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(512))]

        #[test]
        fn strings_round_trip(raw in proptest::collection::vec(proptest::prelude::any::<u32>(), 0..48)) {
            let text: String = raw.into_iter().map(test_char).collect();
            let json = to_string(&text).unwrap();
            proptest::prop_assert_eq!(parse_value_str(&json).unwrap(), Value::Str(text.clone()));
            proptest::prop_assert_eq!(from_str::<String>(&json).unwrap(), text);
        }
    }
}
