//! Tidy-style tree construction.
//!
//! Turns the token stream into a [`Document`], repairing the malformed
//! nesting that script-generated pages routinely contain. The repair rules
//! are the pragmatic subset of what `tidy`/`jtidy` (the cleaner used in the
//! paper, §7) applies:
//!
//! * void elements (`<br>`, `<img>`, …) never take children;
//! * elements with *implied end tags* (`<li>`, `<p>`, `<td>`, `<tr>`,
//!   `<option>`, `<dd>`/`<dt>`, table sections) are auto-closed when a
//!   sibling of the same group opens;
//! * an end tag closes the nearest matching open element, implicitly closing
//!   anything opened inside it; an end tag with no matching open element is
//!   dropped;
//! * whitespace-only text is discarded and internal whitespace is collapsed,
//!   so text nodes are stable keys for dictionary annotators;
//! * comments are kept, doctypes dropped.
//!
//! Deliberately **no** foster parenting or implicit `<html>/<body>`
//! synthesis: the paper's own examples (Figure 1) nest `<tr>` directly in a
//! `<div>`, and the learned xpaths rely on that verbatim structure.

use std::borrow::Cow;

use crate::arena::{Document, NodeId};
use crate::tokenizer::{Token, Tokenizer};

/// Elements that never have children.
pub const VOID_ELEMENTS: &[&str] = &[
    "area", "base", "br", "col", "embed", "hr", "img", "input", "link", "meta", "param", "source",
    "track", "wbr",
];

/// Returns true if `tag` is a void element.
pub fn is_void(tag: &str) -> bool {
    VOID_ELEMENTS.contains(&tag)
}

/// When `incoming` opens, any open element in the returned set is implicitly
/// closed first (searching upward from the innermost open element, stopping
/// at a scope boundary). Shared with the streaming builder (`crate::stream`)
/// so both parse paths repair markup identically.
pub(crate) fn implied_closes(incoming: &str) -> &'static [&'static str] {
    match incoming {
        "li" => &["li"],
        "p" => &["p"],
        "option" => &["option"],
        "dd" | "dt" => &["dd", "dt"],
        "tr" => &["tr", "td", "th"],
        "td" | "th" => &["td", "th"],
        "thead" | "tbody" | "tfoot" => &["thead", "tbody", "tfoot", "tr", "td", "th"],
        _ => &[],
    }
}

/// Elements that bound the search for implied closes: an open `<li>` inside
/// a nested `<ul>` must not be closed by an `<li>` in the outer list.
pub(crate) fn is_scope_boundary(tag: &str) -> bool {
    matches!(
        tag,
        "table" | "ul" | "ol" | "dl" | "select" | "div" | "body" | "html" | "td" | "th"
    )
}

/// Parses HTML into a [`Document`].
///
/// ```
/// use aw_dom::parse;
/// let doc = parse("<div class='x'><u>PORTER FURNITURE</u><br>201 HWY" );
/// let texts: Vec<_> = doc.ids().filter_map(|id| doc.text(id)).collect();
/// assert_eq!(texts, vec!["PORTER FURNITURE", "201 HWY"]);
/// ```
pub fn parse(input: &str) -> Document {
    let mut doc = Document::default();
    // Stack of currently-open elements; the root is always open.
    let mut open: Vec<(NodeId, Cow<'_, str>)> = Vec::new();

    let current =
        |open: &Vec<(NodeId, Cow<'_, str>)>| open.last().map(|(id, _)| *id).unwrap_or(NodeId::ROOT);

    let mut tokens = Tokenizer::new(input);
    while let Some(token) = tokens.next_token() {
        match token {
            Token::Doctype(_) => {}
            Token::Comment(c) => {
                doc.append_comment(current(&open), c);
            }
            Token::Text(t) => {
                let collapsed = collapse_whitespace(&t);
                if !collapsed.is_empty() {
                    doc.append_text(current(&open), &collapsed);
                }
            }
            Token::StartTag { name, self_closing } => {
                apply_implied_closes(&mut open, &name);
                let attrs = tokens.attrs().iter().map(|(n, v)| (&**n, &**v));
                let id = doc.append_element(current(&open), &name, attrs);
                if !self_closing && !is_void(&name) {
                    open.push((id, name));
                }
            }
            Token::EndTag { name } => {
                if is_void(&name) {
                    continue; // "</br>" and friends are dropped.
                }
                // Find nearest matching open element.
                if let Some(pos) = open.iter().rposition(|(_, t)| *t == name) {
                    open.truncate(pos);
                }
                // Otherwise: unmatched end tag, dropped.
            }
        }
    }
    doc
}

fn apply_implied_closes(open: &mut Vec<(NodeId, Cow<'_, str>)>, incoming: &str) {
    let closes = implied_closes(incoming);
    if closes.is_empty() {
        return;
    }
    // Search upward for a closeable element, stopping at scope boundaries.
    for i in (0..open.len()).rev() {
        let tag = &*open[i].1;
        if closes.contains(&tag) {
            open.truncate(i);
            // A single incoming tag may imply several closes (e.g. `tr`
            // closing both `td` and the enclosing `tr`): recurse.
            apply_implied_closes(open, incoming);
            return;
        }
        if is_scope_boundary(tag) {
            return;
        }
    }
}

/// Collapses runs of whitespace to single spaces and trims; returns an empty
/// string for whitespace-only input. Non-breaking spaces count as whitespace.
pub fn collapse_whitespace(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    collapse_whitespace_into(s, &mut out);
    out
}

/// Appends `s` to `out` as [`collapse_whitespace`] would return it.
pub fn collapse_whitespace_into(s: &str, out: &mut String) {
    let start = out.len();
    let mut in_ws = true; // leading ws is dropped
    for c in s.chars() {
        if c.is_whitespace() || c == '\u{a0}' {
            if !in_ws {
                out.push(' ');
                in_ws = true;
            }
        } else {
            out.push(c);
            in_ws = false;
        }
    }
    if in_ws && out.len() > start {
        out.pop(); // the one trailing space
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::arena::NodeKind;

    /// Renders the tree shape as an s-expression for compact assertions.
    fn shape(doc: &Document) -> String {
        fn rec(doc: &Document, id: NodeId, out: &mut String) {
            match doc.kind(id) {
                NodeKind::Document => {
                    out.push_str("(#doc");
                    for &c in doc.children(id) {
                        out.push(' ');
                        rec(doc, c, out);
                    }
                    out.push(')');
                }
                NodeKind::Element => {
                    let tag = doc.tag(id).expect("element");
                    if doc.children(id).is_empty() {
                        out.push_str(tag);
                    } else {
                        out.push('(');
                        out.push_str(tag);
                        for &c in doc.children(id) {
                            out.push(' ');
                            rec(doc, c, out);
                        }
                        out.push(')');
                    }
                }
                NodeKind::Text => {
                    out.push('\'');
                    out.push_str(doc.text(id).expect("text"));
                    out.push('\'');
                }
                NodeKind::Comment => out.push_str("#c"),
            }
        }
        let mut s = String::new();
        rec(doc, NodeId::ROOT, &mut s);
        s
    }

    #[test]
    fn figure1_snippet_parses() {
        // The paper's Figure 1 (tr directly under div is preserved).
        let html = "<div class='dealerlinks'><tr><td><u>PORTER FURNITURE</u><br>\
                    201 HWY.30 West<br>NEW ALBANY, MS 38652</td></tr>\
                    <tr><td><u>WOODLAND FURNITURE</u><br>123 Main St.<br>\
                    WOODLAND, MS 3977</td></tr></div>";
        let doc = parse(html);
        assert_eq!(
            shape(&doc),
            "(#doc (div (tr (td (u 'PORTER FURNITURE') br '201 HWY.30 West' br \
             'NEW ALBANY, MS 38652')) (tr (td (u 'WOODLAND FURNITURE') br \
             '123 Main St.' br 'WOODLAND, MS 3977'))))"
        );
        let div = doc.children(NodeId::ROOT)[0];
        assert_eq!(doc.tag(div), Some("div"));
        assert_eq!(doc.attr(div, "class"), Some("dealerlinks"));
        let trs: Vec<_> = doc.children(div).to_vec();
        assert_eq!(trs.len(), 2);
        for tr in trs {
            assert_eq!(doc.tag(tr), Some("tr"));
            let td = doc.children(tr)[0];
            assert_eq!(doc.tag(td), Some("td"));
            let u = doc.children(td)[0];
            assert_eq!(doc.tag(u), Some("u"));
            assert!(doc.text(doc.children(u)[0]).unwrap().contains("FURNITURE"));
        }
    }

    #[test]
    fn implied_li_closing() {
        let doc = parse("<ul><li>a<li>b<li>c</ul>");
        assert_eq!(shape(&doc), "(#doc (ul (li 'a') (li 'b') (li 'c')))");
    }

    #[test]
    fn nested_list_scope() {
        let doc = parse("<ul><li>a<ul><li>x<li>y</ul></li><li>b</ul>");
        assert_eq!(
            shape(&doc),
            "(#doc (ul (li 'a' (ul (li 'x') (li 'y'))) (li 'b')))"
        );
    }

    #[test]
    fn implied_td_tr_closing() {
        let doc = parse("<table><tr><td>a<td>b<tr><td>c</table>");
        assert_eq!(
            shape(&doc),
            "(#doc (table (tr (td 'a') (td 'b')) (tr (td 'c'))))"
        );
    }

    #[test]
    fn void_elements_take_no_children() {
        let doc = parse("<p>a<br>b<hr>c</p>");
        assert_eq!(shape(&doc), "(#doc (p 'a' br 'b' hr 'c'))");
    }

    #[test]
    fn end_br_dropped() {
        let doc = parse("<p>a</br>b</p>");
        assert_eq!(shape(&doc), "(#doc (p 'a' 'b'))");
    }

    #[test]
    fn unmatched_end_tag_dropped() {
        let doc = parse("<div>a</span>b</div>");
        assert_eq!(shape(&doc), "(#doc (div 'a' 'b'))");
    }

    #[test]
    fn end_tag_closes_intervening() {
        let doc = parse("<div><b>x<i>y</div>z");
        assert_eq!(shape(&doc), "(#doc (div (b 'x' (i 'y'))) 'z')");
    }

    #[test]
    fn whitespace_only_text_dropped() {
        let doc = parse("<div>\n   <p>  a   b </p>\n</div>");
        assert_eq!(shape(&doc), "(#doc (div (p 'a b')))");
    }

    #[test]
    fn implied_p_closing() {
        let doc = parse("<p>one<p>two");
        assert_eq!(shape(&doc), "(#doc (p 'one') (p 'two'))");
    }

    #[test]
    fn tbody_closes_previous_section() {
        let doc = parse("<table><thead><tr><td>h</td></tr><tbody><tr><td>b</table>");
        assert_eq!(
            shape(&doc),
            "(#doc (table (thead (tr (td 'h'))) (tbody (tr (td 'b')))))"
        );
    }

    #[test]
    fn comments_preserved_doctype_dropped() {
        let doc = parse("<!DOCTYPE html><div><!-- hi -->x</div>");
        assert_eq!(shape(&doc), "(#doc (div #c 'x'))");
    }

    #[test]
    fn options_close_each_other() {
        let doc = parse("<select><option>a<option>b</select>");
        assert_eq!(shape(&doc), "(#doc (select (option 'a') (option 'b')))");
    }

    #[test]
    fn collapse_whitespace_unit() {
        assert_eq!(collapse_whitespace("  a \n\t b  "), "a b");
        assert_eq!(collapse_whitespace("   "), "");
        assert_eq!(collapse_whitespace("a\u{a0}b"), "a b");
        assert_eq!(collapse_whitespace(""), "");
    }
}
