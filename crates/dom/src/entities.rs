//! HTML character-reference (entity) decoding.
//!
//! Supports the named entities that occur in real-world listing pages plus
//! decimal (`&#38;`) and hexadecimal (`&#x26;`) numeric references. Unknown
//! references are passed through verbatim, which is what lenient parsers
//! like tidy do.

use std::borrow::Cow;

/// Named entities we decode. Deliberately small: extraction only needs
/// text to be *stable*, not exhaustively standards-complete.
const NAMED: &[(&str, &str)] = &[
    ("amp", "&"),
    ("lt", "<"),
    ("gt", ">"),
    ("quot", "\""),
    ("apos", "'"),
    ("nbsp", "\u{a0}"),
    ("copy", "\u{a9}"),
    ("reg", "\u{ae}"),
    ("trade", "\u{2122}"),
    ("mdash", "\u{2014}"),
    ("ndash", "\u{2013}"),
    ("hellip", "\u{2026}"),
    ("lsquo", "\u{2018}"),
    ("rsquo", "\u{2019}"),
    ("ldquo", "\u{201c}"),
    ("rdquo", "\u{201d}"),
    ("bull", "\u{2022}"),
    ("middot", "\u{b7}"),
    ("deg", "\u{b0}"),
    ("frac12", "\u{bd}"),
    ("eacute", "\u{e9}"),
    ("egrave", "\u{e8}"),
    ("agrave", "\u{e0}"),
    ("ccedil", "\u{e7}"),
    ("uuml", "\u{fc}"),
    ("ouml", "\u{f6}"),
    ("auml", "\u{e4}"),
    ("ntilde", "\u{f1}"),
];

fn lookup_named(name: &str) -> Option<&'static str> {
    NAMED.iter().find(|(n, _)| *n == name).map(|(_, v)| *v)
}

/// Decodes all character references in `input`, borrowing it unchanged
/// when it holds no `&`.
///
/// ```
/// use aw_dom::entities::decode;
/// assert_eq!(decode("Tom &amp; Jerry &#38; co &#x26; more"), "Tom & Jerry & co & more");
/// assert_eq!(decode("no entities"), "no entities");
/// assert_eq!(decode("&bogus; stays"), "&bogus; stays");
/// ```
pub fn decode(input: &str) -> Cow<'_, str> {
    if !input.contains('&') {
        return Cow::Borrowed(input);
    }
    let mut out = String::with_capacity(input.len());
    decode_into(input, &mut out);
    Cow::Owned(out)
}

/// Appends `input` to `out` with every character reference decoded.
pub fn decode_into(input: &str, out: &mut String) {
    let mut rest = input;
    while let Some(i) = rest.find('&') {
        out.push_str(&rest[..i]);
        rest = &rest[i..];
        // Find the reference body up to ';' within a reasonable window.
        let consumed = decode_reference(rest, out).unwrap_or_else(|| {
            out.push('&');
            1
        });
        rest = &rest[consumed..];
    }
    out.push_str(rest);
}

/// Attempts to decode a single reference at the start of `s` (which begins
/// with `&`), appending it to `out`. Returns the number of bytes consumed.
fn decode_reference(s: &str, out: &mut String) -> Option<usize> {
    let rest = &s[1..];
    let semi = rest.find(';')?;
    if semi == 0 || semi > 10 {
        return None;
    }
    let body = &rest[..semi];
    let consumed = semi + 2; // '&' + body + ';'
    if let Some(stripped) = body.strip_prefix('#') {
        let code = if let Some(hex) = stripped.strip_prefix(['x', 'X']) {
            u32::from_str_radix(hex, 16).ok()?
        } else {
            stripped.parse::<u32>().ok()?
        };
        out.push(char::from_u32(code)?);
        return Some(consumed);
    }
    out.push_str(lookup_named(body)?);
    Some(consumed)
}

/// Escapes `<`, `>`, `&` and `"` for serialization.
pub fn escape(input: &str) -> String {
    let mut out = String::with_capacity(input.len());
    escape_into(input, &mut out);
    out
}

/// Appends `input` to `out`, escaped as by [`escape`].
pub fn escape_into(input: &str, out: &mut String) {
    let mut rest = input;
    while let Some(i) = rest.find(['&', '<', '>', '"']) {
        out.push_str(&rest[..i]);
        out.push_str(match rest.as_bytes()[i] {
            b'&' => "&amp;",
            b'<' => "&lt;",
            b'>' => "&gt;",
            _ => "&quot;",
        });
        rest = &rest[i + 1..];
    }
    out.push_str(rest);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn named_entities() {
        assert_eq!(decode("a &lt; b &gt; c"), "a < b > c");
        assert_eq!(decode("&nbsp;"), "\u{a0}");
        assert_eq!(decode("caf&eacute;"), "café");
    }

    #[test]
    fn numeric_entities() {
        assert_eq!(decode("&#65;&#66;"), "AB");
        assert_eq!(decode("&#x41;"), "A");
        assert_eq!(decode("&#X41;"), "A");
    }

    #[test]
    fn malformed_references_pass_through() {
        assert_eq!(decode("&;"), "&;");
        assert_eq!(decode("& plain ampersand"), "& plain ampersand");
        assert_eq!(decode("&toolongtobeanentity;"), "&toolongtobeanentity;");
        assert_eq!(decode("&#xZZ;"), "&#xZZ;");
        assert_eq!(decode("&#999999999;"), "&#999999999;");
        assert_eq!(decode("trailing &"), "trailing &");
    }

    #[test]
    fn multibyte_passthrough() {
        assert_eq!(decode("héllo — wörld"), "héllo — wörld");
    }

    #[test]
    fn escape_round_trip() {
        let s = "a < b & c > \"d\"";
        assert_eq!(decode(&escape(s)), s);
    }
}
