//! Offline stand-in for `serde_json`: pretty-prints the `serde`
//! stand-in's [`Value`] tree with the same spacing conventions as
//! upstream (`"key": value`, two-space indent), and parses JSON text
//! back into [`Value`].
//!
//! The parser decodes every `POST /extract` and JSON `POST /wrappers`
//! body of the serving tier, so it is on the hostile-input path: strings
//! are copied a run at a time, and nesting is capped at [`MAX_DEPTH`].

use serde::{Serialize, Value};
use std::fmt;

/// Deepest array/object nesting [`from_str`] accepts. The parser
/// recurses once per level, so an unbounded depth lets a request body of
/// `[`s overflow the thread's stack; in-repo artifacts and request bodies
/// nest fewer than 10 levels deep.
pub const MAX_DEPTH: usize = 128;

/// Serialization or parse error.
#[derive(Debug)]
pub struct Error(String);

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

impl std::error::Error for Error {}

/// Pretty JSON with two-space indentation, like upstream serde_json.
pub fn to_string_pretty<T: Serialize + ?Sized>(value: &T) -> Result<String, Error> {
    let mut out = String::new();
    write_value(&value.as_value(), 0, &mut out);
    Ok(out)
}

/// Compact JSON on one line.
pub fn to_string<T: Serialize + ?Sized>(value: &T) -> Result<String, Error> {
    fn compact(v: &Value, out: &mut String) {
        match v {
            Value::Null => out.push_str("null"),
            Value::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Value::Number(n) => push_number(*n, out),
            Value::String(s) => push_json_string(s, out),
            Value::Array(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    compact(item, out);
                }
                out.push(']');
            }
            Value::Object(entries) => {
                out.push('{');
                for (i, (k, item)) in entries.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    push_json_string(k, out);
                    out.push(':');
                    compact(item, out);
                }
                out.push('}');
            }
        }
    }
    let mut out = String::new();
    compact(&value.as_value(), &mut out);
    Ok(out)
}

/// Parses JSON text into a [`Value`] tree.
///
/// Supports the full JSON grammar (objects, arrays, strings with
/// escapes, numbers, booleans, null); numbers land in `Value::Number`'s
/// `f64` like everything else in the stand-in. Trailing non-whitespace
/// and nesting deeper than [`MAX_DEPTH`] are errors.
pub fn from_str(s: &str) -> Result<Value, Error> {
    let mut p = Parser {
        text: s,
        bytes: s.as_bytes(),
        pos: 0,
        depth: 0,
    };
    p.skip_ws();
    let v = p.value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(Error(format!("trailing characters at byte {}", p.pos)));
    }
    Ok(v)
}

struct Parser<'a> {
    text: &'a str,
    bytes: &'a [u8],
    pos: usize,
    /// Arrays and objects currently open around `pos`.
    depth: usize,
}

impl Parser<'_> {
    fn skip_ws(&mut self) {
        while self
            .bytes
            .get(self.pos)
            .is_some_and(|b| matches!(b, b' ' | b'\t' | b'\n' | b'\r'))
        {
            self.pos += 1;
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn expect(&mut self, b: u8) -> Result<(), Error> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(Error(format!(
                "expected '{}' at byte {}",
                b as char, self.pos
            )))
        }
    }

    fn literal(&mut self, lit: &str, v: Value) -> Result<Value, Error> {
        if self.bytes[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            Ok(v)
        } else {
            Err(Error(format!("invalid literal at byte {}", self.pos)))
        }
    }

    fn value(&mut self) -> Result<Value, Error> {
        match self.peek() {
            Some(b'{') => self.nested(Self::object),
            Some(b'[') => self.nested(Self::array),
            Some(b'"') => Ok(Value::String(self.string()?)),
            Some(b't') => self.literal("true", Value::Bool(true)),
            Some(b'f') => self.literal("false", Value::Bool(false)),
            Some(b'n') => self.literal("null", Value::Null),
            Some(b'-' | b'0'..=b'9') => self.number(),
            _ => Err(Error(format!("unexpected input at byte {}", self.pos))),
        }
    }

    /// Parses one array or object one level deeper, refusing to pass
    /// [`MAX_DEPTH`].
    fn nested(&mut self, parse: fn(&mut Self) -> Result<Value, Error>) -> Result<Value, Error> {
        if self.depth == MAX_DEPTH {
            return Err(Error(format!(
                "nesting deeper than {MAX_DEPTH} levels at byte {}",
                self.pos
            )));
        }
        self.depth += 1;
        let v = parse(self);
        self.depth -= 1;
        v
    }

    fn object(&mut self) -> Result<Value, Error> {
        self.expect(b'{')?;
        let mut entries: Vec<(String, Value)> = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Value::Object(entries));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            entries.push((key, self.value()?));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Value::Object(entries));
                }
                _ => return Err(Error(format!("expected ',' or '}}' at byte {}", self.pos))),
            }
        }
    }

    fn array(&mut self) -> Result<Value, Error> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Value::Array(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Value::Array(items));
                }
                _ => return Err(Error(format!("expected ',' or ']' at byte {}", self.pos))),
            }
        }
    }

    /// Decodes a string literal. Both bytes a run of plain text can end
    /// at, `"` and `\\`, are ASCII, so every run ends on a char boundary
    /// of the already-valid input and is copied with one `push_str`. The
    /// output is allocated once, at the raw span up to the closing quote:
    /// escapes only ever shorten the decoded text.
    fn string(&mut self) -> Result<String, Error> {
        self.expect(b'"')?;
        let span = closing_quote(&self.bytes[self.pos..])
            .ok_or_else(|| Error("unterminated string".into()))?;
        let end = self.pos + span;
        let mut out = String::with_capacity(span);
        loop {
            let run = self.bytes[self.pos..end]
                .iter()
                .position(|&b| b == b'\\')
                .unwrap_or(end - self.pos);
            out.push_str(&self.text[self.pos..self.pos + run]);
            self.pos += run;
            if self.pos == end {
                self.pos += 1;
                return Ok(out);
            }
            self.pos += 1;
            self.escape(&mut out)?;
        }
    }

    /// Decodes the escape after a `\\` into `out`.
    fn escape(&mut self, out: &mut String) -> Result<(), Error> {
        let esc = self
            .peek()
            .ok_or_else(|| Error("unterminated escape".into()))?;
        self.pos += 1;
        match esc {
            b'"' => out.push('"'),
            b'\\' => out.push('\\'),
            b'/' => out.push('/'),
            b'b' => out.push('\u{0008}'),
            b'f' => out.push('\u{000c}'),
            b'n' => out.push('\n'),
            b'r' => out.push('\r'),
            b't' => out.push('\t'),
            b'u' => {
                let hex = self
                    .bytes
                    .get(self.pos..self.pos + 4)
                    .and_then(|h| std::str::from_utf8(h).ok())
                    .ok_or_else(|| Error("truncated \\u escape".into()))?;
                let code = u32::from_str_radix(hex, 16)
                    .map_err(|_| Error(format!("bad \\u escape '{hex}'")))?;
                self.pos += 4;
                // Surrogate pairs are not produced by our own writer;
                // map lone surrogates to U+FFFD.
                out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
            }
            _ => return Err(Error(format!("bad escape '\\{}'", esc as char))),
        }
        Ok(())
    }

    fn number(&mut self) -> Result<Value, Error> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while self
            .bytes
            .get(self.pos)
            .is_some_and(|b| b.is_ascii_digit() || matches!(b, b'.' | b'e' | b'E' | b'+' | b'-'))
        {
            self.pos += 1;
        }
        let text =
            std::str::from_utf8(&self.bytes[start..self.pos]).expect("ascii number characters");
        text.parse::<f64>()
            .map(Value::Number)
            .map_err(|_| Error(format!("invalid number '{text}'")))
    }
}

fn write_value(v: &Value, indent: usize, out: &mut String) {
    match v {
        Value::Null => out.push_str("null"),
        Value::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
        Value::Number(n) => push_number(*n, out),
        Value::String(s) => push_json_string(s, out),
        Value::Array(items) if items.is_empty() => out.push_str("[]"),
        Value::Array(items) => {
            out.push_str("[\n");
            for (i, item) in items.iter().enumerate() {
                push_indent(indent + 1, out);
                write_value(item, indent + 1, out);
                if i + 1 < items.len() {
                    out.push(',');
                }
                out.push('\n');
            }
            push_indent(indent, out);
            out.push(']');
        }
        Value::Object(entries) if entries.is_empty() => out.push_str("{}"),
        Value::Object(entries) => {
            out.push_str("{\n");
            for (i, (k, item)) in entries.iter().enumerate() {
                push_indent(indent + 1, out);
                push_json_string(k, out);
                out.push_str(": ");
                write_value(item, indent + 1, out);
                if i + 1 < entries.len() {
                    out.push(',');
                }
                out.push('\n');
            }
            push_indent(indent, out);
            out.push('}');
        }
    }
}

fn push_indent(n: usize, out: &mut String) {
    for _ in 0..n {
        out.push_str("  ");
    }
}

fn push_number(n: f64, out: &mut String) {
    if n.is_finite() && n == n.trunc() && n.abs() < 1e15 {
        // Integers print without a decimal point, except that upstream
        // serde_json prints f64 whole numbers as "1.0"; we cannot tell the
        // source type apart here, so follow the float convention: the only
        // assertion-relevant case in-repo ("precision": 0.5 / 1.0) is float.
        out.push_str(&format!("{n:.1}"));
    } else if n.is_finite() {
        out.push_str(&format!("{n}"));
    } else {
        out.push_str("null"); // upstream refuses NaN/inf; null is close enough
    }
}

/// The offset of the `"` closing a string literal whose opening quote
/// was just consumed, stepping over escaped bytes; `None` if it is
/// unterminated.
fn closing_quote(bytes: &[u8]) -> Option<usize> {
    let mut i = 0;
    loop {
        i += bytes
            .get(i..)?
            .iter()
            .position(|&b| b == b'"' || b == b'\\')?;
        if bytes[i] == b'"' {
            return Some(i);
        }
        i += 2;
    }
}

/// Writes `s` as a JSON string literal, copying the runs between bytes
/// that need escaping in bulk. Those bytes are all ASCII, so every run
/// ends on a char boundary.
fn push_json_string(s: &str, out: &mut String) {
    const HEX: &[u8; 16] = b"0123456789abcdef";
    out.reserve(s.len() + 2);
    out.push('"');
    let mut run = 0;
    for (i, &b) in s.as_bytes().iter().enumerate() {
        let code = match b {
            b'"' | b'\\' => b,
            b'\n' => b'n',
            b'\r' => b'r',
            b'\t' => b't',
            0..=0x1f => b'u',
            _ => continue,
        };
        out.push_str(&s[run..i]);
        out.push('\\');
        out.push(code as char);
        if code == b'u' {
            out.push_str("00");
            out.push(HEX[usize::from(b >> 4)] as char);
            out.push(HEX[usize::from(b & 0xf)] as char);
        }
        run = i + 1;
    }
    out.push_str(&s[run..]);
    out.push('"');
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pretty_object() {
        let v = Value::Object(vec![
            ("precision".into(), Value::Number(0.5)),
            (
                "tags".into(),
                Value::Array(vec![Value::String("a\"b".into())]),
            ),
        ]);
        struct Wrap(Value);
        impl Serialize for Wrap {
            fn to_value(&self) -> Value {
                self.0.clone()
            }
        }
        let s = to_string_pretty(&Wrap(v)).unwrap();
        assert!(s.contains("\"precision\": 0.5"), "{s}");
        assert!(s.contains("\\\""), "{s}");
        let c = to_string(&Wrap(Value::Bool(true))).unwrap();
        assert_eq!(c, "true");
    }

    #[test]
    fn parse_roundtrips_own_output() {
        let v = Value::Object(vec![
            ("schema".into(), Value::Number(1.0)),
            (
                "speedups".into(),
                Value::Object(vec![
                    ("sharded_vs_indexed".into(), Value::Number(2.75)),
                    ("note".into(), Value::String("a\"b\\c\nd".into())),
                ]),
            ),
            (
                "series".into(),
                Value::Array(vec![Value::Number(-1.5e3), Value::Bool(false), Value::Null]),
            ),
            ("empty_obj".into(), Value::Object(vec![])),
            ("empty_arr".into(), Value::Array(vec![])),
        ]);
        for rendered in [to_string_pretty(&v).unwrap(), to_string(&v).unwrap()] {
            assert_eq!(from_str(&rendered).unwrap(), v, "from {rendered}");
        }
    }

    #[test]
    fn parse_accessors() {
        let v =
            from_str(r#"{ "min_speedup": { "sharded_vs_indexed": 1.5 }, "name": "x" }"#).unwrap();
        assert_eq!(
            v.get("min_speedup")
                .and_then(|m| m.get("sharded_vs_indexed"))
                .and_then(Value::as_f64),
            Some(1.5)
        );
        assert_eq!(v.get("name").and_then(Value::as_str), Some("x"));
        assert!(v.get("missing").is_none());
    }

    #[test]
    fn parse_rejects_garbage() {
        assert!(from_str("").is_err());
        assert!(from_str("{").is_err());
        assert!(from_str("[1,]").is_err());
        assert!(from_str("1 2").is_err());
        assert!(from_str("\"unterminated").is_err());
        assert!(from_str("{\"k\" 1}").is_err());
        assert!(from_str("nul").is_err());
    }

    #[test]
    fn parse_unicode_and_escapes() {
        assert_eq!(
            from_str(r#""café – ☕""#).unwrap(),
            Value::String("café – ☕".into())
        );
        assert_eq!(
            from_str(r#""\t\r\n\b\f\/""#).unwrap(),
            Value::String("\t\r\n\u{8}\u{c}/".into())
        );
    }

    /// The string decoder this crate had before run-at-a-time copying:
    /// one `from_utf8` + `push_str` per code point. The oracle for
    /// [`Parser::string`].
    impl Parser<'_> {
        fn string_per_code_point(&mut self) -> Result<String, Error> {
            self.expect(b'"')?;
            let mut out = String::new();
            loop {
                match self.peek() {
                    None => return Err(Error("unterminated string".into())),
                    Some(b'"') => {
                        self.pos += 1;
                        return Ok(out);
                    }
                    Some(b'\\') => {
                        self.pos += 1;
                        self.escape(&mut out)?;
                    }
                    Some(_) => {
                        let start = self.pos;
                        self.pos += 1;
                        while self.bytes.get(self.pos).is_some_and(|b| b & 0xC0 == 0x80) {
                            self.pos += 1;
                        }
                        let chunk = std::str::from_utf8(&self.bytes[start..self.pos])
                            .map_err(|_| Error("invalid utf-8 in string".into()))?;
                        out.push_str(chunk);
                    }
                }
            }
        }
    }

    /// The char-at-a-time encoder: the oracle for [`push_json_string`].
    fn push_json_string_per_char(s: &str, out: &mut String) {
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

    /// A seeded xorshift64* stream (the compat `rand` is not a
    /// dependency of this crate).
    struct Rng(u64);

    impl Rng {
        fn below(&mut self, n: usize) -> usize {
            self.0 ^= self.0 >> 12;
            self.0 ^= self.0 << 25;
            self.0 ^= self.0 >> 27;
            (self.0.wrapping_mul(0x2545_f491_4f6c_dd1d) >> 33) as usize % n
        }

        fn pick<'a>(&mut self, items: &[&'a str]) -> &'a str {
            items[self.below(items.len())]
        }
    }

    /// Raw text of 1-, 2-, 3- and 4-byte UTF-8 chars.
    const WIDE: &[&str] = &[
        "a", "Z", "~", "é", "ß", "Ω", "–", "☕", "中", "\u{fffd}", "😀", "𝄞",
    ];

    /// The body of a random JSON string literal (no quotes): plain runs
    /// of every UTF-8 width, every escape, `\uXXXX` including lone
    /// surrogates, and raw control characters.
    fn random_literal(rng: &mut Rng) -> String {
        const ESCAPES: &[&str] = &["\\\"", "\\\\", "\\/", "\\b", "\\f", "\\n", "\\r", "\\t"];
        let mut body = String::new();
        for _ in 0..rng.below(24) {
            match rng.below(5) {
                0 => body.push_str(rng.pick(ESCAPES)),
                1 => {
                    // Half of them in the surrogate range D800–DFFF.
                    let code = if rng.below(2) == 0 {
                        0xd800 + rng.below(0x800)
                    } else {
                        rng.below(0x10000)
                    };
                    if rng.below(2) == 0 {
                        body.push_str(&format!("\\u{code:04x}"));
                    } else {
                        body.push_str(&format!("\\u{code:04X}"));
                    }
                }
                2 => body.push(char::from(rng.below(0x20) as u8)),
                _ => {
                    for _ in 0..=rng.below(6) {
                        body.push_str(rng.pick(WIDE));
                    }
                }
            }
        }
        body
    }

    fn parser(text: &str) -> Parser<'_> {
        Parser {
            text,
            bytes: text.as_bytes(),
            pos: 0,
            depth: 0,
        }
    }

    /// Decodes `text` with both decoders; they must agree on the value
    /// (or both fail) and on where the literal ended.
    fn decode_both(text: &str) -> Result<String, Error> {
        let (mut new, mut old) = (parser(text), parser(text));
        let (fast, slow) = (new.string(), old.string_per_code_point());
        match (&fast, &slow) {
            (Ok(a), Ok(b)) => {
                assert_eq!(a, b, "decoders disagree on {text:?}");
                assert_eq!(new.pos, old.pos, "decoders stop apart on {text:?}");
            }
            (Err(_), Err(_)) => {}
            _ => panic!("{text:?}: run-at-a-time {fast:?}, per code point {slow:?}"),
        }
        fast
    }

    #[test]
    fn run_decoder_matches_per_code_point_oracle() {
        let mut rng = Rng(0x5eed_1234_abcd_ef01);
        for _ in 0..4000 {
            let body = random_literal(&mut rng);
            let literal = format!("\"{body}\"");
            let decoded = decode_both(&format!("{literal},1")).expect("well-formed literal");
            // One allocation, sized by the raw span up to the quote.
            assert!(decoded.capacity() <= body.len(), "{literal:?}");
            // Truncated anywhere (on a char boundary), both decoders fail
            // or agree on a shorter literal.
            let cut = rng.below(literal.len());
            if literal.is_char_boundary(cut) {
                decode_both(&literal[..cut]).ok();
            }
        }
        // Runs ending exactly at an escape, at the closing quote, and
        // escapes at both ends.
        for literal in [
            r#""""#,
            r#""abc""#,
            r#""abc\n""#,
            r#""\nabc""#,
            r#""é\"""#,
            r#""\\""#,
            r#""\\\"x\\""#,
            r#""é𐏿""#,
            "\"\u{1}\u{1f}\"",
        ] {
            decode_both(literal).expect(literal);
        }
        for bad in [r#""\q""#, r#""\u12""#, r#""\u12g4""#, r#""abc\"#, r#""abc"#] {
            assert!(decode_both(bad).is_err(), "{bad}");
        }
    }

    #[test]
    fn run_encoder_matches_per_char_oracle() {
        let mut rng = Rng(0x0dd_ba11);
        let mut chars: Vec<String> = WIDE.iter().map(|c| c.to_string()).collect();
        chars.extend(
            (0u8..0x20)
                .chain([b'"', b'\\', b'/', 0x7f])
                .map(|b| char::from(b).to_string()),
        );
        for _ in 0..4000 {
            let s: String = (0..rng.below(32))
                .map(|_| chars[rng.below(chars.len())].as_str())
                .collect();
            let (mut fast, mut slow) = (String::new(), String::new());
            push_json_string(&s, &mut fast);
            push_json_string_per_char(&s, &mut slow);
            assert_eq!(fast, slow, "{s:?}");
            assert_eq!(from_str(&fast).unwrap(), Value::String(s));
        }
    }

    #[test]
    fn serializing_a_value_borrows_it() {
        struct Wrap(Value);
        impl Serialize for Wrap {
            fn to_value(&self) -> Value {
                self.0.clone()
            }
        }
        let v = from_str(r#"{"site":"a\"b","pages":[["x","é"],[]],"n":[1.5,null,true]}"#).unwrap();
        let compact = to_string(&v).unwrap();
        assert_eq!(compact, to_string(&v.clone()).unwrap());
        assert_eq!(compact, to_string(&Wrap(v.clone())).unwrap());
        assert_eq!(
            to_string_pretty(&v).unwrap(),
            to_string_pretty(&Wrap(v)).unwrap()
        );
    }

    /// Runs `f` on a thread with a 2 MiB stack, as small as a server
    /// worker's.
    fn on_small_stack<T: Send + 'static>(f: impl FnOnce() -> T + Send + 'static) -> T {
        std::thread::Builder::new()
            .stack_size(2 << 20)
            .spawn(f)
            .unwrap()
            .join()
            .unwrap()
    }

    #[test]
    fn nesting_is_capped_not_a_stack_overflow() {
        let brackets = on_small_stack(|| from_str(&"[".repeat(1 << 20)).map(drop));
        let err = brackets.unwrap_err().to_string();
        assert!(err.contains("nesting deeper than 128"), "{err}");
        let objects = on_small_stack(|| from_str(&"{\"a\":".repeat(100_000)).map(drop));
        assert!(objects.is_err());
        // The cap itself: 128 levels parse, 129 do not.
        let nest = |n: usize| format!("{}{}", "[".repeat(n), "]".repeat(n));
        assert!(from_str(&nest(MAX_DEPTH)).is_ok());
        assert!(from_str(&nest(MAX_DEPTH + 1)).is_err());
        // Depth is nesting, not the count of containers.
        assert!(from_str(&format!("[{}[]]", "[],".repeat(1000))).is_ok());
    }
}
