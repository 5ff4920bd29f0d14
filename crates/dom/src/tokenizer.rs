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
//!
//! Tokens borrow the input. A name or value is [`Cow::Owned`] only where
//! case folding or entity decoding changes its bytes, and a start tag's
//! attributes come through a buffer the tokenizer reuses from tag to tag
//! ([`Tokenizer::attrs`]), so tokenizing allocates nothing per token on
//! lower-case, entity-free markup.

use crate::entities::decode;
use std::borrow::Cow;

/// One `name="value"` attribute: name lower-cased, value entity-decoded.
pub type Attr<'a> = (Cow<'a, str>, Cow<'a, str>);

/// One lexical token of an HTML document, borrowing the input.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Token<'a> {
    /// `<name a="v">`; `self_closing` records a trailing `/`. The
    /// attributes are read from [`Tokenizer::attrs`].
    StartTag {
        name: Cow<'a, str>,
        self_closing: bool,
    },
    /// `</name>`.
    EndTag { name: Cow<'a, str> },
    /// A run of character data, entity-decoded, whitespace preserved.
    Text(Cow<'a, str>),
    /// `<!-- body -->`.
    Comment(&'a str),
    /// `<!DOCTYPE ...>` — surfaced so callers can skip it knowingly.
    Doctype(&'a str),
}

/// Tokenizes `input`, pairing each token with its attributes (empty for
/// everything but start tags).
///
/// Convenience collector over the pull API ([`Tokenizer::next_token`]);
/// token-for-token identical to driving the tokenizer directly.
pub fn tokenize(input: &str) -> Vec<(Token<'_>, Vec<Attr<'_>>)> {
    let mut tk = Tokenizer::new(input);
    let mut out = Vec::new();
    while let Some(token) = tk.next_token() {
        let attrs = match token {
            Token::StartTag { .. } => tk.attrs().to_vec(),
            _ => Vec::new(),
        };
        out.push((token, attrs));
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
    /// Tokens already produced but not yet pulled, in order from
    /// `pending[next]`. One scan step yields at most three: pending text
    /// plus a tag, or a raw-text element's start tag, body and end tag.
    pending: [Option<Token<'a>>; 3],
    next: usize,
    /// Attributes of the most recently scanned start tag.
    attrs: Vec<Attr<'a>>,
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
            pending: [None, None, None],
            next: 0,
            attrs: Vec::new(),
            #[cfg(test)]
            lowercase_oracle: false,
        }
    }

    /// The attributes of the start tag [`Tokenizer::next_token`] returned
    /// last, in document order. Valid until the next call.
    pub fn attrs(&self) -> &[Attr<'a>] {
        &self.attrs
    }

    /// Produces the next token, or `None` at end of input.
    pub fn next_token(&mut self) -> Option<Token<'a>> {
        if let Some(token) = self.pending.get_mut(self.next).and_then(Option::take) {
            self.next += 1;
            return Some(token);
        }
        let text_start = self.pos;
        while let Some(i) = self.bytes[self.pos..].iter().position(|&b| b == b'<') {
            let tag_start = self.pos + i;
            self.pos = tag_start;
            if let Some(token) = self.try_tag() {
                let raw = raw_text_tag(&token);
                let mut queue = [Some(token), None, None];
                if let Some(tag) = raw {
                    let (body, end) = self.consume_raw_text(tag);
                    let mut rest = body.into_iter().chain(end);
                    queue[1] = rest.next();
                    queue[2] = rest.next();
                }
                self.pending = queue;
                self.next = 0;
                // Text pending before the tag comes out first.
                if let Some(text) = self.text_token(text_start, tag_start) {
                    return Some(text);
                }
                self.next = 1;
                return self.pending[0].take();
            }
            // Not a tag; '<' is literal text.
            self.pos += 1;
        }
        self.pos = self.bytes.len();
        self.text_token(text_start, self.bytes.len())
    }

    fn text_token(&self, from: usize, to: usize) -> Option<Token<'a>> {
        (from < to).then(|| Token::Text(decode(&self.input[from..to])))
    }

    /// Attempts to consume a tag starting at `self.pos` (which is `<`).
    /// On success advances `self.pos` past the tag and returns the token.
    /// On failure leaves `self.pos` unchanged and returns `None`.
    fn try_tag(&mut self) -> Option<Token<'a>> {
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
            return Some(Token::Comment(&self.input[start + 2..end]));
        }
        if next == b'/' {
            return self.consume_end_tag(start);
        }
        if !next.is_ascii_alphabetic() {
            return None;
        }
        self.consume_start_tag(start)
    }

    fn consume_markup_declaration(&mut self, start: usize) -> Option<Token<'a>> {
        let rest = &self.input[start..];
        if rest.starts_with("<!--") {
            let end = self.input[start + 4..].find("-->").map(|i| start + 4 + i);
            match end {
                Some(e) => {
                    self.pos = e + 3;
                    Some(Token::Comment(&self.input[start + 4..e]))
                }
                None => {
                    // Unterminated comment swallows the rest of the input.
                    self.pos = self.bytes.len();
                    Some(Token::Comment(&self.input[start + 4..]))
                }
            }
        } else {
            // <!DOCTYPE ...> or other declaration: up to '>'.
            let end = self.find_byte(start, b'>')?;
            self.pos = end + 1;
            Some(Token::Doctype(&self.input[start + 2..end]))
        }
    }

    fn consume_end_tag(&mut self, start: usize) -> Option<Token<'a>> {
        let mut i = start + 2;
        let name_start = i;
        while i < self.bytes.len() && is_name_byte(self.bytes[i]) {
            i += 1;
        }
        if i == name_start {
            return None; // "</>" or "</ ..." — not a tag.
        }
        let name = lowercase(&self.input[name_start..i]);
        // Skip anything up to '>' (attributes on end tags are ignored).
        let end = self.find_byte(i.saturating_sub(1), b'>')?;
        self.pos = end + 1;
        Some(Token::EndTag { name })
    }

    fn consume_start_tag(&mut self, start: usize) -> Option<Token<'a>> {
        let mut i = start + 1;
        let name_start = i;
        while i < self.bytes.len() && is_name_byte(self.bytes[i]) {
            i += 1;
        }
        let name = lowercase(&self.input[name_start..i]);
        self.attrs.clear();
        let mut self_closing = false;

        loop {
            i = self.skip_ws(i);
            if i >= self.bytes.len() {
                return None; // Unterminated tag: treat '<' as text.
            }
            match self.bytes[i] {
                b'>' => {
                    self.pos = i + 1;
                    return Some(Token::StartTag { name, self_closing });
                }
                b'/' => {
                    self_closing = true;
                    i += 1;
                }
                _ => i = self.consume_attribute(i)?,
            }
        }
    }

    /// Consumes one `name[=value]` attribute starting at non-ws `i`,
    /// pushing it onto the attribute buffer; returns the index after it.
    fn consume_attribute(&mut self, mut i: usize) -> Option<usize> {
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
            return Some(i + 1);
        }
        let name = lowercase(&self.input[name_start..i]);
        let j = self.skip_ws(i);
        if j >= self.bytes.len() || self.bytes[j] != b'=' {
            self.attrs.push((name, Cow::Borrowed("")));
            return Some(i);
        }
        i = self.skip_ws(j + 1);
        if i >= self.bytes.len() {
            return None;
        }
        let value = match self.bytes[i] {
            q @ (b'"' | b'\'') => {
                let vstart = i + 1;
                let vend = self.find_byte(i, q)?;
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
        self.attrs.push((name, value));
        Some(i)
    }

    /// Consumes raw text for `<script>`/`<style>` up to the matching end tag
    /// (exclusive); returns it as a single Text token *without* entity
    /// decoding, then the end tag (absent when the input ends first).
    fn consume_raw_text(&mut self, tag: &'static str) -> (Option<Token<'a>>, Option<Token<'a>>) {
        let hay = &self.input[self.pos..];
        let found = find_close_tag(hay, tag);
        #[cfg(test)]
        let found = if self.lowercase_oracle {
            find_close_tag_lowercased(hay, tag)
        } else {
            found
        };
        let body = |len: usize| (len > 0).then(|| Token::Text(Cow::Borrowed(&hay[..len])));
        match found {
            Some(rel) => {
                // Skip past "</tag ... >".
                let after = self.pos + rel;
                self.pos = self.input[after..]
                    .find('>')
                    .map(|i| after + i + 1)
                    .unwrap_or(self.bytes.len());
                (
                    body(rel),
                    Some(Token::EndTag {
                        name: Cow::Borrowed(tag),
                    }),
                )
            }
            None => {
                self.pos = self.bytes.len();
                (body(hay.len()), None)
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

/// `name` ASCII-lower-cased, borrowed when it already is.
fn lowercase(name: &str) -> Cow<'_, str> {
    if name.bytes().any(|b| b.is_ascii_uppercase()) {
        Cow::Owned(name.to_ascii_lowercase())
    } else {
        Cow::Borrowed(name)
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
fn raw_text_tag(token: &Token<'_>) -> Option<&'static str> {
    match token {
        Token::StartTag {
            name,
            self_closing: false,
        } => match &**name {
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

    type Collected = (Token<'static>, Vec<Attr<'static>>);

    fn start(name: &str, attrs: &[(&str, &str)]) -> Collected {
        start_tag(name, attrs, false)
    }

    fn start_tag(name: &str, attrs: &[(&str, &str)], self_closing: bool) -> Collected {
        (
            Token::StartTag {
                name: Cow::Owned(name.into()),
                self_closing,
            },
            attrs
                .iter()
                .map(|(a, b)| (Cow::Owned(a.to_string()), Cow::Owned(b.to_string())))
                .collect(),
        )
    }

    fn end(name: &str) -> Collected {
        (
            Token::EndTag {
                name: Cow::Owned(name.into()),
            },
            Vec::new(),
        )
    }

    fn text(t: &str) -> Collected {
        (Token::Text(Cow::Owned(t.into())), Vec::new())
    }

    fn other(t: Token<'static>) -> Collected {
        (t, Vec::new())
    }

    #[test]
    fn simple_tags_and_text() {
        let t = tokenize("<div>hello</div>");
        assert_eq!(t, vec![start("div", &[]), text("hello"), end("div")]);
    }

    #[test]
    fn attributes_quoted_and_bare() {
        let t = tokenize(r#"<a href="x" CLASS='y' id=z disabled>"#);
        assert_eq!(
            t,
            vec![start(
                "a",
                &[("href", "x"), ("class", "y"), ("id", "z"), ("disabled", "")]
            )]
        );
    }

    #[test]
    fn self_closing_and_case_folding() {
        let t = tokenize("<BR/><IMG SRC='a.png' />");
        assert_eq!(
            t,
            vec![
                start_tag("br", &[], true),
                start_tag("img", &[("src", "a.png")], true)
            ]
        );
    }

    #[test]
    fn comments_and_doctype() {
        let t = tokenize("<!DOCTYPE html><!-- note --><p>x</p>");
        assert_eq!(t[0], other(Token::Doctype("DOCTYPE html")));
        assert_eq!(t[1], other(Token::Comment(" note ")));
        assert_eq!(t[2], start("p", &[]));
    }

    #[test]
    fn unterminated_comment() {
        let t = tokenize("a<!-- oops");
        assert_eq!(t, vec![text("a"), other(Token::Comment(" oops"))]);
    }

    #[test]
    fn script_raw_text_not_parsed() {
        let t = tokenize("<script>if (a<b) { x(\"<div>\"); }</script><p>y</p>");
        assert_eq!(t[0], start("script", &[]));
        assert_eq!(t[1], text("if (a<b) { x(\"<div>\"); }"));
        assert_eq!(t[2], end("script"));
        assert_eq!(t[3], start("p", &[]));
    }

    #[test]
    fn style_raw_text() {
        let t = tokenize("<style>a > b { color: red }</style>");
        assert_eq!(t[1], text("a > b { color: red }"));
        assert_eq!(t[2], end("style"));
    }

    #[test]
    fn stray_lt_is_text() {
        let t = tokenize("2 < 3 and <5> ok");
        // "<5" is not a valid tag name start, so '<' is literal.
        assert_eq!(t, vec![text("2 < 3 and <5> ok")]);
    }

    #[test]
    fn entities_in_text_and_attrs() {
        let t = tokenize(r#"<a title="Tom &amp; Jerry">R&amp;B</a>"#);
        assert_eq!(t[0], start("a", &[("title", "Tom & Jerry")]));
        assert_eq!(t[1], text("R&B"));
    }

    #[test]
    fn end_tag_with_junk_attrs() {
        let t = tokenize("<div></div class='x'>");
        assert_eq!(t[1], end("div"));
    }

    #[test]
    fn unterminated_tag_is_text() {
        let t = tokenize("<div attr");
        assert_eq!(t, vec![text("<div attr")]);
    }

    #[test]
    fn empty_input() {
        assert!(tokenize("").is_empty());
    }

    #[test]
    fn tokens_borrow_the_input_unless_bytes_change() {
        let input = "<div class='row' ID=x>plain<P>a &amp; b</P></div>";
        let mut tk = Tokenizer::new(input);
        let borrowed = |c: &Cow<'_, str>| matches!(c, Cow::Borrowed(_));
        let Some(Token::StartTag { name, .. }) = tk.next_token() else {
            panic!("start tag expected");
        };
        assert!(borrowed(&name));
        let attrs = tk.attrs();
        assert!(borrowed(&attrs[0].0) && borrowed(&attrs[0].1));
        // Case folding rewrites the name; the bare value is untouched.
        assert!(!borrowed(&attrs[1].0) && borrowed(&attrs[1].1));
        assert!(matches!(
            tk.next_token(),
            Some(Token::Text(Cow::Borrowed("plain")))
        ));
        assert!(
            matches!(tk.next_token(), Some(Token::StartTag { name: Cow::Owned(n), .. }) if n == "p")
        );
        assert!(matches!(tk.next_token(), Some(Token::Text(Cow::Owned(t))) if t == "a & b"));
    }

    #[test]
    fn pull_api_matches_collected_stream() {
        let input = "a<!-- c --><script>x<y</script><div id=1>t&amp;u<br/></div><p>tail";
        let mut tk = Tokenizer::new(input);
        let mut pulled = Vec::new();
        while let Some(t) = tk.next_token() {
            let attrs = tk.attrs().to_vec();
            pulled.push((t, attrs));
        }
        let collected = tokenize(input);
        assert_eq!(pulled.len(), collected.len());
        for ((pt, pa), (ct, ca)) in pulled.iter().zip(&collected) {
            assert_eq!(pt, ct);
            if matches!(pt, Token::StartTag { .. }) {
                assert_eq!(pa, ca);
            }
        }
        assert_eq!(tk.next_token(), None, "exhausted tokenizer stays exhausted");
    }

    /// Tokens from a tokenizer that finds raw-text close tags with the
    /// lower-casing oracle.
    fn tokenize_with_oracle(input: &str) -> Vec<Token<'_>> {
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
            let tokens: Vec<Token<'_>> = tokenize(&input).into_iter().map(|(t, _)| t).collect();
            assert_eq!(tokens, tokenize_with_oracle(&input), "{input:?}");
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
