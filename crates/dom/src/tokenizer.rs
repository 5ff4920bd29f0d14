//! A lenient HTML tokenizer.
//!
//! Produces a flat stream of [`Token`]s from raw markup. Lenience rules
//! follow what tidy-style cleaners accept in the wild:
//!
//! * tag and attribute names are ASCII-lower-cased;
//! * attribute values may be double-quoted, single-quoted or bare;
//! * `<script>` and `<style>` bodies are consumed as raw text up to the
//!   matching close tag;
//! * comments (`<!-- -->`), doctypes and processing instructions are
//!   recognized and surfaced or skipped;
//! * a stray `<` that does not start a tag is treated as text.

use crate::entities::decode;
use std::collections::VecDeque;

/// One lexical token of an HTML document.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Token {
    /// `<name a="v">`; `self_closing` records a trailing `/`.
    StartTag {
        name: String,
        attrs: Vec<(String, String)>,
        self_closing: bool,
    },
    /// `</name>`.
    EndTag { name: String },
    /// A run of character data, entity-decoded, whitespace preserved.
    Text(String),
    /// `<!-- body -->`.
    Comment(String),
    /// `<!DOCTYPE ...>` — surfaced so callers can skip it knowingly.
    Doctype(String),
}

/// Tokenizes `input` into a vector of [`Token`]s.
///
/// Convenience collector over the pull API ([`Tokenizer::next_token`]);
/// token-for-token identical to driving the tokenizer directly.
pub fn tokenize(input: &str) -> Vec<Token> {
    let mut tk = Tokenizer::new(input);
    let mut out = Vec::new();
    while let Some(token) = tk.next_token() {
        out.push(token);
    }
    out
}

/// A pull-based tokenizer: call [`Tokenizer::next_token`] until `None`.
///
/// Streaming consumers (`crate::stream`) drive this directly so tokens are
/// consumed as they are produced, without materializing the whole token
/// vector that [`tokenize`] returns.
pub struct Tokenizer<'a> {
    input: &'a str,
    bytes: &'a [u8],
    pos: usize,
    /// Tokens already produced but not yet pulled. A single scan step can
    /// yield several tokens (pending text + tag, or a raw-text element's
    /// start tag + body + end tag), so extras queue here.
    pending: VecDeque<Token>,
    /// Find raw-text close tags with [`find_close_tag_lowercased`].
    #[cfg(test)]
    lowercase_oracle: bool,
}

impl<'a> Tokenizer<'a> {
    /// Creates a tokenizer over `input`.
    pub fn new(input: &'a str) -> Self {
        Tokenizer {
            input,
            bytes: input.as_bytes(),
            pos: 0,
            pending: VecDeque::new(),
            #[cfg(test)]
            lowercase_oracle: false,
        }
    }

    /// Produces the next token, or `None` at end of input.
    pub fn next_token(&mut self) -> Option<Token> {
        if let Some(token) = self.pending.pop_front() {
            return Some(token);
        }
        let text_start = self.pos;
        while self.pos < self.bytes.len() {
            if self.bytes[self.pos] == b'<' {
                let tag_start = self.pos;
                if let Some(token) = self.try_tag() {
                    let raw = raw_text_tag(&token);
                    self.pending.push_back(token);
                    if let Some(tag) = raw {
                        self.consume_raw_text(tag);
                    }
                    // Text pending before the tag comes out first.
                    if let Some(text) = self.text_token(text_start, tag_start) {
                        return Some(text);
                    }
                    return self.pending.pop_front();
                } else {
                    // Not a tag; '<' is literal text.
                    self.pos += 1;
                }
            } else {
                self.pos += 1;
            }
        }
        self.text_token(text_start, self.bytes.len())
    }

    fn text_token(&self, from: usize, to: usize) -> Option<Token> {
        (from < to).then(|| Token::Text(decode(&self.input[from..to])))
    }

    /// Attempts to consume a tag starting at `self.pos` (which is `<`).
    /// On success advances `self.pos` past the tag and returns the token.
    /// On failure leaves `self.pos` unchanged and returns `None`.
    fn try_tag(&mut self) -> Option<Token> {
        let start = self.pos;
        debug_assert_eq!(self.bytes[start], b'<');
        let next = *self.bytes.get(start + 1)?;

        if next == b'!' {
            return self.consume_markup_declaration(start);
        }
        if next == b'?' {
            // Processing instruction: skip to '>'.
            let end = self.find_byte(start, b'>')?;
            self.pos = end + 1;
            return Some(Token::Comment(self.input[start + 2..end].to_string()));
        }
        if next == b'/' {
            return self.consume_end_tag(start);
        }
        if !next.is_ascii_alphabetic() {
            return None;
        }
        self.consume_start_tag(start)
    }

    fn consume_markup_declaration(&mut self, start: usize) -> Option<Token> {
        let rest = &self.input[start..];
        if rest.starts_with("<!--") {
            let end = self.input[start + 4..].find("-->").map(|i| start + 4 + i);
            match end {
                Some(e) => {
                    let body = self.input[start + 4..e].to_string();
                    self.pos = e + 3;
                    Some(Token::Comment(body))
                }
                None => {
                    // Unterminated comment swallows the rest of the input.
                    let body = self.input[start + 4..].to_string();
                    self.pos = self.bytes.len();
                    Some(Token::Comment(body))
                }
            }
        } else {
            // <!DOCTYPE ...> or other declaration: up to '>'.
            let end = self.find_byte(start, b'>')?;
            let body = self.input[start + 2..end].to_string();
            self.pos = end + 1;
            Some(Token::Doctype(body))
        }
    }

    fn consume_end_tag(&mut self, start: usize) -> Option<Token> {
        let mut i = start + 2;
        let name_start = i;
        while i < self.bytes.len() && is_name_byte(self.bytes[i]) {
            i += 1;
        }
        if i == name_start {
            return None; // "</>" or "</ ..." — not a tag.
        }
        let name = self.input[name_start..i].to_ascii_lowercase();
        // Skip anything up to '>' (attributes on end tags are ignored).
        let end = self.find_byte(i.saturating_sub(1), b'>')?;
        self.pos = end + 1;
        Some(Token::EndTag { name })
    }

    fn consume_start_tag(&mut self, start: usize) -> Option<Token> {
        let mut i = start + 1;
        let name_start = i;
        while i < self.bytes.len() && is_name_byte(self.bytes[i]) {
            i += 1;
        }
        let name = self.input[name_start..i].to_ascii_lowercase();
        let mut attrs = Vec::new();
        let mut self_closing = false;

        loop {
            i = self.skip_ws(i);
            if i >= self.bytes.len() {
                return None; // Unterminated tag: treat '<' as text.
            }
            match self.bytes[i] {
                b'>' => {
                    self.pos = i + 1;
                    return Some(Token::StartTag {
                        name,
                        attrs,
                        self_closing,
                    });
                }
                b'/' => {
                    self_closing = true;
                    i += 1;
                }
                _ => {
                    let (attr, ni) = self.consume_attribute(i)?;
                    if let Some(a) = attr {
                        attrs.push(a);
                    }
                    i = ni;
                }
            }
        }
    }

    /// Consumes one `name[=value]` attribute starting at non-ws `i`.
    fn consume_attribute(&mut self, mut i: usize) -> Option<(Option<(String, String)>, usize)> {
        let name_start = i;
        while i < self.bytes.len()
            && !matches!(
                self.bytes[i],
                b'=' | b'>' | b'/' | b' ' | b'\t' | b'\n' | b'\r'
            )
        {
            i += 1;
        }
        if i == name_start {
            // Stray byte (e.g. a quote): skip it to guarantee progress.
            return Some((None, i + 1));
        }
        let name = self.input[name_start..i].to_ascii_lowercase();
        let j = self.skip_ws(i);
        if j >= self.bytes.len() || self.bytes[j] != b'=' {
            return Some((Some((name, String::new())), i));
        }
        i = self.skip_ws(j + 1);
        if i >= self.bytes.len() {
            return None;
        }
        let value = match self.bytes[i] {
            q @ (b'"' | b'\'') => {
                let vstart = i + 1;
                let vend = self.find_byte(i, q.to_owned())?;
                i = vend + 1;
                decode(&self.input[vstart..vend])
            }
            _ => {
                let vstart = i;
                while i < self.bytes.len()
                    && !matches!(self.bytes[i], b'>' | b' ' | b'\t' | b'\n' | b'\r')
                {
                    i += 1;
                }
                decode(&self.input[vstart..i])
            }
        };
        Some((Some((name, value)), i))
    }

    /// Consumes raw text for `<script>`/`<style>` up to the matching end tag
    /// (exclusive); emits it as a single Text token *without* entity decoding,
    /// then emits the end tag.
    fn consume_raw_text(&mut self, tag: &str) {
        let hay = &self.input[self.pos..];
        let found = find_close_tag(hay, tag);
        #[cfg(test)]
        let found = if self.lowercase_oracle {
            find_close_tag_lowercased(hay, tag)
        } else {
            found
        };
        match found {
            Some(rel) => {
                if rel > 0 {
                    self.pending.push_back(Token::Text(hay[..rel].to_string()));
                }
                // Skip past "</tag ... >".
                let after = self.pos + rel;
                let end = self.input[after..]
                    .find('>')
                    .map(|i| after + i + 1)
                    .unwrap_or(self.bytes.len());
                self.pos = end;
                self.pending.push_back(Token::EndTag {
                    name: tag.to_string(),
                });
            }
            None => {
                if !hay.is_empty() {
                    self.pending.push_back(Token::Text(hay.to_string()));
                }
                self.pos = self.bytes.len();
            }
        }
    }

    fn skip_ws(&self, mut i: usize) -> usize {
        while i < self.bytes.len() && self.bytes[i].is_ascii_whitespace() {
            i += 1;
        }
        i
    }

    /// Index of the first `b` at or after `from + 1`.
    fn find_byte(&self, from: usize, b: u8) -> Option<usize> {
        self.bytes[from + 1..]
            .iter()
            .position(|&x| x == b)
            .map(|i| from + 1 + i)
    }
}

/// Byte offset of the first `</tag` in `hay`, matching `tag` (lower-case
/// ASCII) case-insensitively. One pass over `hay`, no copy.
fn find_close_tag(hay: &str, tag: &str) -> Option<usize> {
    let (hay, tag) = (hay.as_bytes(), tag.as_bytes());
    let mut from = 0;
    while let Some(i) = hay[from..].iter().position(|&b| b == b'<') {
        let at = from + i;
        let name = at + 2;
        if hay.get(at + 1) == Some(&b'/')
            && hay
                .get(name..name + tag.len())
                .is_some_and(|n| n.eq_ignore_ascii_case(tag))
        {
            return Some(at);
        }
        from = at + 1;
    }
    None
}

/// The original [`find_close_tag`]: lower-cases the whole rest of the
/// input per raw-text element, quadratic over a page of many `<script>`s.
/// Kept as the oracle the linear scan is tested against.
#[cfg(test)]
fn find_close_tag_lowercased(hay: &str, tag: &str) -> Option<usize> {
    hay.to_ascii_lowercase().find(&format!("</{tag}"))
}

fn is_name_byte(b: u8) -> bool {
    b.is_ascii_alphanumeric() || b == b'-' || b == b'_' || b == b':'
}

/// If `token` opens a raw-text element, returns its tag name.
fn raw_text_tag(token: &Token) -> Option<&'static str> {
    match token {
        Token::StartTag {
            name,
            self_closing: false,
            ..
        } => match name.as_str() {
            "script" => Some("script"),
            "style" => Some("style"),
            _ => None,
        },
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn start(name: &str, attrs: &[(&str, &str)]) -> Token {
        Token::StartTag {
            name: name.into(),
            attrs: attrs
                .iter()
                .map(|(a, b)| (a.to_string(), b.to_string()))
                .collect(),
            self_closing: false,
        }
    }

    #[test]
    fn simple_tags_and_text() {
        let t = tokenize("<div>hello</div>");
        assert_eq!(
            t,
            vec![
                start("div", &[]),
                Token::Text("hello".into()),
                Token::EndTag { name: "div".into() }
            ]
        );
    }

    #[test]
    fn attributes_quoted_and_bare() {
        let t = tokenize(r#"<a href="x" CLASS='y' id=z disabled>"#);
        match &t[0] {
            Token::StartTag {
                name,
                attrs,
                self_closing,
            } => {
                assert_eq!(name, "a");
                assert!(!self_closing);
                assert_eq!(
                    attrs,
                    &vec![
                        ("href".to_string(), "x".to_string()),
                        ("class".to_string(), "y".to_string()),
                        ("id".to_string(), "z".to_string()),
                        ("disabled".to_string(), String::new()),
                    ]
                );
            }
            other => panic!("expected start tag, got {other:?}"),
        }
    }

    #[test]
    fn self_closing_and_case_folding() {
        let t = tokenize("<BR/><IMG SRC='a.png' />");
        assert_eq!(
            t[0],
            Token::StartTag {
                name: "br".into(),
                attrs: vec![],
                self_closing: true
            }
        );
        match &t[1] {
            Token::StartTag {
                name,
                attrs,
                self_closing,
            } => {
                assert_eq!(name, "img");
                assert_eq!(attrs[0], ("src".to_string(), "a.png".to_string()));
                assert!(self_closing);
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn comments_and_doctype() {
        let t = tokenize("<!DOCTYPE html><!-- note --><p>x</p>");
        assert_eq!(t[0], Token::Doctype("DOCTYPE html".into()));
        assert_eq!(t[1], Token::Comment(" note ".into()));
        assert_eq!(t[2], start("p", &[]));
    }

    #[test]
    fn unterminated_comment() {
        let t = tokenize("a<!-- oops");
        assert_eq!(t[0], Token::Text("a".into()));
        assert_eq!(t[1], Token::Comment(" oops".into()));
    }

    #[test]
    fn script_raw_text_not_parsed() {
        let t = tokenize("<script>if (a<b) { x(\"<div>\"); }</script><p>y</p>");
        assert_eq!(t[0], start("script", &[]));
        assert_eq!(t[1], Token::Text("if (a<b) { x(\"<div>\"); }".into()));
        assert_eq!(
            t[2],
            Token::EndTag {
                name: "script".into()
            }
        );
        assert_eq!(t[3], start("p", &[]));
    }

    #[test]
    fn style_raw_text() {
        let t = tokenize("<style>a > b { color: red }</style>");
        assert_eq!(t[1], Token::Text("a > b { color: red }".into()));
        assert_eq!(
            t[2],
            Token::EndTag {
                name: "style".into()
            }
        );
    }

    #[test]
    fn stray_lt_is_text() {
        let t = tokenize("2 < 3 and <5> ok");
        // "<5" is not a valid tag name start, so '<' is literal.
        assert_eq!(t.len(), 1);
        assert_eq!(t[0], Token::Text("2 < 3 and <5> ok".into()));
    }

    #[test]
    fn entities_in_text_and_attrs() {
        let t = tokenize(r#"<a title="Tom &amp; Jerry">R&amp;B</a>"#);
        match &t[0] {
            Token::StartTag { attrs, .. } => {
                assert_eq!(attrs[0].1, "Tom & Jerry");
            }
            other => panic!("unexpected {other:?}"),
        }
        assert_eq!(t[1], Token::Text("R&B".into()));
    }

    #[test]
    fn end_tag_with_junk_attrs() {
        let t = tokenize("<div></div class='x'>");
        assert_eq!(t[1], Token::EndTag { name: "div".into() });
    }

    #[test]
    fn unterminated_tag_is_text() {
        let t = tokenize("<div attr");
        assert_eq!(t.len(), 1);
        assert_eq!(t[0], Token::Text("<div attr".into()));
    }

    #[test]
    fn empty_input() {
        assert!(tokenize("").is_empty());
    }

    #[test]
    fn pull_api_matches_collected_stream() {
        let input = "a<!-- c --><script>x<y</script><div id=1>t&amp;u<br/></div><p>tail";
        let mut tk = Tokenizer::new(input);
        let mut pulled = Vec::new();
        while let Some(t) = tk.next_token() {
            pulled.push(t);
        }
        assert_eq!(pulled, tokenize(input));
        assert_eq!(tk.next_token(), None, "exhausted tokenizer stays exhausted");
    }

    /// Tokens from a tokenizer that finds raw-text close tags with the
    /// lower-casing oracle.
    fn tokenize_with_oracle(input: &str) -> Vec<Token> {
        let mut tk = Tokenizer {
            lowercase_oracle: true,
            ..Tokenizer::new(input)
        };
        std::iter::from_fn(|| tk.next_token()).collect()
    }

    #[test]
    fn raw_text_scan_matches_the_lowercasing_oracle() {
        use rand::{Rng, SeedableRng};
        // Mixed-case open and close tags, near misses (`</scrip`, `</`,
        // `<script` inside a style), non-ASCII text whose bytes the
        // scan must step over, and unterminated raw text at the end.
        const PIECES: &[&str] = &[
            "<script>",
            "<SCRIPT type='x'>",
            "<ScRiPt>",
            "<style>",
            "<STYLE>",
            "</script>",
            "</SCRIPT >",
            "</sCrIpT",
            "</style>",
            "</StYlE>",
            "</scrip",
            "</",
            "<",
            "</scriptx>",
            "<p>",
            "</p>",
            "a < b",
            "é",
            "日本",
            "x",
            "&amp;",
            "<!-- c -->",
        ];
        let mut rng = rand::rngs::StdRng::seed_from_u64(0x7a6);
        for _ in 0..3000 {
            let n = rng.gen_range(0..24);
            let input: String = (0..n)
                .map(|_| PIECES[rng.gen_range(0..PIECES.len())])
                .collect();
            assert_eq!(tokenize(&input), tokenize_with_oracle(&input), "{input:?}");
        }
    }

    #[test]
    fn many_raw_text_elements_tokenize_in_linear_time() {
        // 32 000 `<script>` elements (562 KB): lower-casing the rest of
        // the input per element took ≈0.7 s in release builds and ≈28 s
        // in debug builds; the linear scan takes about 10 ms in release.
        let input = "<script>x</script>".repeat(32_000);
        let bound_ms = if cfg!(debug_assertions) { 1000 } else { 50 };
        let start = std::time::Instant::now();
        let tokens = tokenize(&input);
        let elapsed = start.elapsed();
        assert_eq!(tokens.len(), 96_000);
        assert!(
            elapsed.as_millis() < bound_ms,
            "tokenizing 32 000 scripts took {elapsed:?} (bound {bound_ms} ms)"
        );
    }
}
