//! A minimal JSON tree: parser, writer and accessors. It is the workspace's
//! one JSON writer: daemon replies, the CLI's `--json` output and the Chrome
//! traces of a telemetry [`Recorder`] ([`Json::chrome_trace`]) all go
//! through it.
//!
//! The vendored `serde` stub is a no-op marker trait (the build environment
//! is offline), so the wire format is hand-rolled here. Two properties
//! matter for the analysis service:
//!
//! * **Bit-exact floats.** Numbers are written with Rust's shortest
//!   round-trip formatting (`{:?}`) and read back with [`f64::from_str`], so
//!   every finite `f64` survives a serialize/parse round trip with its exact
//!   bit pattern. This is what lets the daemon's responses be bit-identical
//!   to in-process results.
//! * **Deterministic output.** Objects keep their insertion order; the same
//!   value always serializes to the same byte string.
//!
//! Non-finite numbers have no JSON representation and serialize as `null`
//! (they do not occur in well-posed measures).
//!
//! The parser recurses once per nested array or object and refuses documents
//! nested deeper than 128 levels, so a hostile request line cannot overflow
//! the stack of the connection thread that parses it.

use std::fmt;
use std::str::FromStr;

use arcade_telemetry::Recorder;

/// Deepest array/object nesting [`Json::parse`] accepts. The deepest
/// document the protocol itself produces has 4 levels (envelope → result →
/// curve → point).
const MAX_DEPTH: usize = 128;

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// Any JSON number (always carried as `f64`).
    Number(f64),
    /// A string.
    Str(String),
    /// An array.
    Array(Vec<Json>),
    /// An object, in insertion order.
    Object(Vec<(String, Json)>),
}

impl Json {
    /// Builds an object from `(key, value)` pairs.
    pub fn object(fields: Vec<(&str, Json)>) -> Json {
        Json::Object(
            fields
                .into_iter()
                .map(|(k, v)| (k.to_string(), v))
                .collect(),
        )
    }

    /// The value of `key`, if this is an object that has it.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Object(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// This value as a string slice.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// This value as a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Number(n) => Some(*n),
            _ => None,
        }
    }

    /// This value as a non-negative integer (rejects fractional numbers).
    pub fn as_usize(&self) -> Option<usize> {
        match self {
            Json::Number(n) if n.fract() == 0.0 && *n >= 0.0 && *n <= u64::MAX as f64 => {
                Some(*n as usize)
            }
            _ => None,
        }
    }

    /// This value as a bool.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// This value as an array slice.
    pub fn as_array(&self) -> Option<&[Json]> {
        match self {
            Json::Array(items) => Some(items),
            _ => None,
        }
    }

    /// An array of numbers from an `f64` slice.
    pub fn numbers(values: &[f64]) -> Json {
        Json::Array(values.iter().map(|&v| Json::Number(v)).collect())
    }

    /// A `[[t, v], ...]` array from a curve.
    pub fn curve(points: &[(f64, f64)]) -> Json {
        Json::Array(
            points
                .iter()
                .map(|&(t, v)| Json::Array(vec![Json::Number(t), Json::Number(v)]))
                .collect(),
        )
    }

    /// The Chrome trace-event document of everything `recorder` captured:
    /// one `X` complete event per span (same-thread spans nest by timing in
    /// `chrome://tracing` / Perfetto), and every probe series under a
    /// `probes` key, which trace viewers ignore.
    pub fn chrome_trace(recorder: &Recorder) -> Json {
        let events = recorder.spans().into_iter().map(|span| {
            let args = span
                .counters
                .iter()
                .map(|&(k, v)| (k.to_string(), Json::from(v)));
            Json::object(vec![
                ("name", Json::from(span.name)),
                ("cat", Json::from("arcade")),
                ("ph", Json::from("X")),
                ("ts", Json::from(span.start_us)),
                ("dur", Json::from(span.duration_us)),
                ("pid", Json::from(1u64)),
                ("tid", Json::from(span.thread)),
                ("args", Json::Object(args.collect())),
            ])
        });
        let probes = recorder.series().into_iter().map(|series| {
            Json::object(vec![
                ("kind", Json::from(series.kind)),
                ("tier", Json::from(series.tier)),
                ("values", Json::numbers(&series.values)),
            ])
        });
        Json::object(vec![
            ("displayTimeUnit", Json::from("ms")),
            ("traceEvents", Json::Array(events.collect())),
            ("probes", Json::Array(probes.collect())),
        ])
    }

    /// Reads a `[[t, v], ...]` array back into a curve.
    pub fn to_curve(&self) -> Option<Vec<(f64, f64)>> {
        self.as_array()?
            .iter()
            .map(|point| {
                let pair = point.as_array()?;
                match pair {
                    [t, v] => Some((t.as_f64()?, v.as_f64()?)),
                    _ => None,
                }
            })
            .collect()
    }

    /// Parses a JSON document (the complete string must be one value).
    ///
    /// # Errors
    ///
    /// Returns a human-readable description of the first syntax error, or
    /// of nesting deeper than 128 levels.
    pub fn parse(text: &str) -> Result<Json, String> {
        let mut parser = Parser {
            bytes: text.as_bytes(),
            pos: 0,
            depth: 0,
        };
        parser.skip_whitespace();
        let value = parser.value()?;
        parser.skip_whitespace();
        if parser.pos != parser.bytes.len() {
            return Err(format!("trailing input at byte {}", parser.pos));
        }
        Ok(value)
    }

    fn write(&self, out: &mut String) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(true) => out.push_str("true"),
            Json::Bool(false) => out.push_str("false"),
            Json::Number(n) => write_number(*n, out),
            Json::Str(s) => write_string(s, out),
            Json::Array(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    item.write(out);
                }
                out.push(']');
            }
            Json::Object(fields) => {
                out.push('{');
                for (i, (key, value)) in fields.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    write_string(key, out);
                    out.push(':');
                    value.write(out);
                }
                out.push('}');
            }
        }
    }
}

impl fmt::Display for Json {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut out = String::new();
        self.write(&mut out);
        f.write_str(&out)
    }
}

impl From<f64> for Json {
    fn from(n: f64) -> Json {
        Json::Number(n)
    }
}

impl From<usize> for Json {
    fn from(n: usize) -> Json {
        Json::Number(n as f64)
    }
}

impl From<u64> for Json {
    fn from(n: u64) -> Json {
        Json::Number(n as f64)
    }
}

impl From<bool> for Json {
    fn from(b: bool) -> Json {
        Json::Bool(b)
    }
}

impl From<&str> for Json {
    fn from(s: &str) -> Json {
        Json::Str(s.to_string())
    }
}

impl From<String> for Json {
    fn from(s: String) -> Json {
        Json::Str(s)
    }
}

/// Shortest round-trip float formatting; integral values print without the
/// trailing `.0` (parsing back still recovers the exact bits). Non-finite
/// values become `null`.
fn write_number(n: f64, out: &mut String) {
    use fmt::Write;
    if !n.is_finite() {
        out.push_str("null");
    } else if n == 0.0 && n.is_sign_negative() {
        out.push_str("-0.0");
    } else if n.fract() == 0.0 && n.abs() < 9.0e15 {
        let _ = write!(out, "{}", n as i64);
    } else {
        let _ = write!(out, "{n:?}");
    }
}

fn write_string(s: &str, out: &mut String) {
    use fmt::Write;
    out.push('"');
    for c in s.chars() {
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

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
    /// Arrays and objects currently open around `pos`.
    depth: usize,
}

impl Parser<'_> {
    fn skip_whitespace(&mut self) {
        while let Some(&b) = self.bytes.get(self.pos) {
            if b == b' ' || b == b'\t' || b == b'\n' || b == b'\r' {
                self.pos += 1;
            } else {
                break;
            }
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
            Err(format!("expected `{}` at byte {}", b as char, self.pos))
        }
    }

    fn literal(&mut self, word: &str, value: Json) -> Result<Json, String> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(format!("invalid literal at byte {}", self.pos))
        }
    }

    fn value(&mut self) -> Result<Json, String> {
        self.skip_whitespace();
        match self.peek() {
            Some(b'n') => self.literal("null", Json::Null),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b'[') => self.nested(Self::array),
            Some(b'{') => self.nested(Self::object),
            Some(b'-' | b'0'..=b'9') => self.number(),
            Some(other) => Err(format!(
                "unexpected `{}` at byte {}",
                other as char, self.pos
            )),
            None => Err("unexpected end of input".to_string()),
        }
    }

    /// Parses an array or object one level deeper than the current one.
    fn nested(&mut self, parse: fn(&mut Self) -> Result<Json, String>) -> Result<Json, String> {
        if self.depth == MAX_DEPTH {
            return Err(format!(
                "nesting deeper than {MAX_DEPTH} levels at byte {}",
                self.pos
            ));
        }
        self.depth += 1;
        let value = parse(self);
        self.depth -= 1;
        value
    }

    fn array(&mut self) -> Result<Json, String> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_whitespace();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Array(items));
        }
        loop {
            items.push(self.value()?);
            self.skip_whitespace();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Array(items));
                }
                _ => return Err(format!("expected `,` or `]` at byte {}", self.pos)),
            }
        }
    }

    fn object(&mut self) -> Result<Json, String> {
        self.expect(b'{')?;
        let mut fields = Vec::new();
        self.skip_whitespace();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Object(fields));
        }
        loop {
            self.skip_whitespace();
            let key = self.string()?;
            self.skip_whitespace();
            self.expect(b':')?;
            fields.push((key, self.value()?));
            self.skip_whitespace();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Object(fields));
                }
                _ => return Err(format!("expected `,` or `}}` at byte {}", self.pos)),
            }
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err("unterminated string".to_string()),
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
                            self.pos += 1;
                            let code = self.hex4()?;
                            // Surrogate pairs: a high surrogate must be
                            // followed by an escaped low surrogate.
                            let c = if (0xd800..0xdc00).contains(&code) {
                                if self.peek() != Some(b'\\') {
                                    return Err("lone high surrogate".to_string());
                                }
                                self.pos += 1;
                                self.expect(b'u')?;
                                let low = self.hex4()?;
                                if !(0xdc00..0xe000).contains(&low) {
                                    return Err("invalid low surrogate".to_string());
                                }
                                let combined = 0x10000 + ((code - 0xd800) << 10) + (low - 0xdc00);
                                char::from_u32(combined)
                            } else {
                                char::from_u32(code)
                            };
                            match c {
                                Some(c) => out.push(c),
                                None => return Err("invalid unicode escape".to_string()),
                            }
                            continue;
                        }
                        _ => return Err(format!("invalid escape at byte {}", self.pos)),
                    }
                    self.pos += 1;
                }
                Some(_) => {
                    // Consume one UTF-8 character (the input is a &str, so
                    // the bytes are valid UTF-8).
                    let rest = &self.bytes[self.pos..];
                    let s = std::str::from_utf8(rest).map_err(|_| "invalid utf-8".to_string())?;
                    let c = s.chars().next().unwrap();
                    out.push(c);
                    self.pos += c.len_utf8();
                }
            }
        }
    }

    fn hex4(&mut self) -> Result<u32, String> {
        if self.pos + 4 > self.bytes.len() {
            return Err("truncated unicode escape".to_string());
        }
        let hex = std::str::from_utf8(&self.bytes[self.pos..self.pos + 4])
            .map_err(|_| "invalid unicode escape".to_string())?;
        let code =
            u32::from_str_radix(hex, 16).map_err(|_| "invalid unicode escape".to_string())?;
        self.pos += 4;
        Ok(code)
    }

    fn number(&mut self) -> Result<Json, String> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while let Some(b) = self.peek() {
            match b {
                b'0'..=b'9' | b'.' | b'e' | b'E' | b'+' | b'-' => self.pos += 1,
                _ => break,
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|_| "invalid number".to_string())?;
        f64::from_str(text)
            .map(Json::Number)
            .map_err(|_| format!("invalid number `{text}` at byte {start}"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trips_structures() {
        let value = Json::object(vec![
            ("op", Json::from("availability")),
            ("model", Json::from("line1/ded")),
            ("times", Json::numbers(&[0.0, 0.5, 1e-3])),
            ("flag", Json::Bool(true)),
            ("nothing", Json::Null),
            ("nested", Json::object(vec![("k", Json::from(3usize))])),
        ]);
        let text = value.to_string();
        assert_eq!(Json::parse(&text).unwrap(), value);
    }

    #[test]
    fn floats_round_trip_bit_exactly() {
        for &x in &[
            0.0,
            -0.0,
            1.0,
            0.1,
            2.0 / 3.0,
            0.9536063550212054,
            f64::MIN_POSITIVE,
            f64::EPSILON,
            1.7976931348623157e308,
            -4.9e-324,
            123456789.0,
            9.007199254740991e15,
        ] {
            let text = Json::Number(x).to_string();
            let back = Json::parse(&text).unwrap().as_f64().unwrap();
            assert_eq!(back.to_bits(), x.to_bits(), "{x} -> {text} -> {back}");
        }
    }

    #[test]
    fn integers_print_without_fraction() {
        assert_eq!(Json::from(42usize).to_string(), "42");
        assert_eq!(Json::Number(1.0).to_string(), "1");
        assert_eq!(Json::Number(1.5).to_string(), "1.5");
        assert_eq!(Json::parse("42").unwrap().as_usize(), Some(42));
        assert_eq!(Json::parse("1.5").unwrap().as_usize(), None);
    }

    #[test]
    fn strings_escape_and_parse() {
        let s = "a\"b\\c\nd\te\u{1}f — π 🦀";
        let text = Json::Str(s.to_string()).to_string();
        assert_eq!(Json::parse(&text).unwrap().as_str(), Some(s));
        assert_eq!(Json::from("q\"b\\\u{1}").to_string(), r#""q\"b\\\u0001""#);
        assert_eq!(
            Json::parse(r#""\ud83e\udd80""#).unwrap().as_str(),
            Some("🦀")
        );
    }

    #[test]
    fn malformed_documents_are_rejected() {
        for text in [
            "",
            "{",
            "[1,",
            "tru",
            "\"abc",
            "{\"a\":}",
            "1 2",
            "{\"a\" 1}",
            "[01x]",
            "\"\\ud800\"",
        ] {
            assert!(Json::parse(text).is_err(), "`{text}` must fail");
        }
    }

    #[test]
    fn nesting_is_capped_at_max_depth() {
        let nested = |depth: usize| format!("{}{}", "[".repeat(depth), "]".repeat(depth));
        assert!(Json::parse(&nested(MAX_DEPTH)).is_ok());
        let err = Json::parse(&nested(MAX_DEPTH + 1)).unwrap_err();
        assert!(err.contains("128 levels at byte 128"), "{err}");
        let objects = |depth: usize| format!("{}1{}", r#"{"a":"#.repeat(depth), "}".repeat(depth));
        assert!(Json::parse(&objects(MAX_DEPTH)).is_ok());
        assert!(Json::parse(&objects(MAX_DEPTH + 1)).is_err());
    }

    #[test]
    fn deeply_nested_input_is_an_error_not_a_stack_overflow() {
        let err = Json::parse(&"[".repeat(200_000)).unwrap_err();
        assert!(err.contains("nesting deeper than 128 levels"), "{err}");
    }

    #[test]
    fn chrome_trace_has_the_expected_shape() {
        let recorder = Recorder::with_probes();
        {
            let mut span = recorder.span("solve");
            span.count("iterations", 42);
            let mut probe = recorder.probe("residual", "gauss-seidel");
            probe.record(1e-3);
            probe.record(f64::INFINITY);
        }
        let trace = Json::chrome_trace(&recorder).to_string();
        assert!(trace.starts_with('{') && trace.ends_with('}'));
        assert!(trace.contains("\"traceEvents\":["));
        assert!(trace.contains("\"name\":\"solve\""));
        assert!(trace.contains("\"ph\":\"X\""));
        assert!(trace.contains("\"iterations\":42"));
        assert!(trace.contains("\"kind\":\"residual\""));
        assert!(trace.contains("0.001"));
        assert!(trace.contains("null"), "non-finite values become null");
        assert!(!trace.contains('\n'), "one line, embeddable in NDJSON logs");
    }

    #[test]
    fn curves_round_trip() {
        let curve = vec![(0.0, 1.0), (0.5, 0.25), (2.0, 2.0 / 3.0)];
        let json = Json::curve(&curve);
        assert_eq!(
            Json::parse(&json.to_string()).unwrap().to_curve().unwrap(),
            curve
        );
    }
}
