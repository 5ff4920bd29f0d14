//! Deterministic HTML fuzz driver for the two parse paths.
//!
//! Seeded mutators on the compat proptest runner (fixed per-test seed
//! stream, fixed case budget) start from generated pages — DEALERS,
//! DISC and PRODUCTS sites plus markup soup — and damage them the ways
//! crawled and hostile markup does: byte flips, truncations, and
//! entity, upper-case-name, duplicate-attribute, bare-value, raw-text
//! and non-ASCII splices. On every input, classic `parse` (then the
//! lazy index build) and the streaming `parse_indexed` must not panic,
//! must agree on the serialization and on every index table, must each
//! hold the index tables their tree implies, and must each finish within
//! a fixed time bound.

use std::sync::OnceLock;
use std::time::{Duration, Instant};

use aw_dom::{parse, parse_indexed, serialize, Document, NodeId, NodeKind};
use proptest::prelude::*;
use proptest::strategy::Strategy;
use proptest::test_runner::TestRng;
use rand::Rng;

#[path = "../crates/dom/src/tree_oracle.rs"]
mod tree_oracle;

/// Generated pages the mutators start from.
fn seeds() -> &'static [String] {
    static SEEDS: OnceLock<Vec<String>> = OnceLock::new();
    SEEDS.get_or_init(|| {
        let mut sites = Vec::new();
        sites.extend(aw_sitegen::generate_dealers(&aw_sitegen::DealersConfig::small(3, 7)).sites);
        sites.extend(aw_sitegen::generate_disc(&aw_sitegen::DiscConfig::small(2, 7)).sites);
        sites.extend(aw_sitegen::generate_products(&aw_sitegen::ProductsConfig::small(2, 7)).sites);
        sites
            .iter()
            .flat_map(|gs| gs.site.pages().iter().map(serialize))
            .collect()
    })
}

const SOUP: &[&str] = &[
    "<div>",
    "</div>",
    "<td class='x'>",
    "<tr>",
    "<table>",
    "<ul><li>",
    "<p>",
    "</p>",
    "<br/>",
    "<!-- c",
    "-->",
    "<a href=",
    "'",
    "\"",
    "<",
    ">",
    "</",
    "text",
    " spaced  out ",
];

const ENTITIES: &[&str] = &[
    "&amp;",
    "&lt;",
    "&gt;",
    "&nbsp;",
    "&#x41;",
    "&#65;",
    "&#0;",
    "&#xD800;",
    "&#999999999;",
    "&bogus;",
    "&",
    "&amp",
    "&eacute;",
    "&;",
];

const RAW_TEXT: &[&str] = &[
    "<script>if (a<b) { x(\"<div>\"); }</script>",
    "<SCRIPT type='t'>a</ScRiPt >",
    "<style>p > b { }</style>",
    "<script>",
    "</script>",
    "<style>unterminated",
    "<script></scrip",
];

const NON_ASCII: &[&str] = &[
    "é", "漢字", "\u{a0}", "\u{0B}", "\u{0C}", "\u{2028}", "\u{3000}", "\u{feff}", "🦀", "\u{fffd}",
];

const ATTRS: &[&str] = &[
    " class='a' class='b'",
    " id=x id=y ID=z",
    " a=bare b= c",
    " disabled",
    " href=\"/x?a=1&amp;b=2\"",
    " CLASS=\"Row\"",
    " data-x='<tag>'",
    " =v",
];

/// A char-boundary byte offset in `s`.
fn boundary(rng: &mut TestRng, s: &str) -> usize {
    let mut at = rng.gen_range(0..=s.len());
    while !s.is_char_boundary(at) {
        at -= 1;
    }
    at
}

/// Byte offset just past a start tag's name, if `s` has a start tag.
fn after_tag_name(rng: &mut TestRng, s: &str) -> Option<usize> {
    let b = s.as_bytes();
    let starts: Vec<usize> = (0..b.len().saturating_sub(1))
        .filter(|&i| b[i] == b'<' && b[i + 1].is_ascii_alphabetic())
        .collect();
    if starts.is_empty() {
        return None;
    }
    let mut at = starts[rng.gen_range(0..starts.len())] + 1;
    while at < b.len() && b[at].is_ascii_alphanumeric() {
        at += 1;
    }
    Some(at)
}

fn pick<'a>(rng: &mut TestRng, from: &[&'a str]) -> &'a str {
    from[rng.gen_range(0..from.len())]
}

/// Applies one seeded mutation to `s`.
fn mutate(rng: &mut TestRng, s: &mut String) {
    match rng.gen_range(0..8) {
        // Byte flip, re-validated as UTF-8 (broken sequences become
        // U+FFFD, which is itself a non-ASCII splice).
        0 if !s.is_empty() => {
            let mut bytes = std::mem::take(s).into_bytes();
            let at = rng.gen_range(0..bytes.len());
            bytes[at] ^= 1u8 << rng.gen_range(0..8u32);
            *s = String::from_utf8_lossy(&bytes).into_owned();
        }
        1 => {
            let at = boundary(rng, s);
            s.truncate(at);
        }
        2 => {
            let at = boundary(rng, s);
            s.insert_str(at, pick(rng, ENTITIES));
        }
        // Upper-case one tag name (end tags included).
        3 => {
            if let Some(end) = after_tag_name(rng, s) {
                let start = s[..end].rfind('<').expect("tag start") + 1;
                let upper = s[start..end].to_ascii_uppercase();
                s.replace_range(start..end, &upper);
            }
        }
        4 | 5 => {
            if let Some(at) = after_tag_name(rng, s) {
                s.insert_str(at, pick(rng, ATTRS));
            }
        }
        6 => {
            let at = boundary(rng, s);
            s.insert_str(at, pick(rng, RAW_TEXT));
        }
        _ => {
            let at = boundary(rng, s);
            s.insert_str(at, pick(rng, NON_ASCII));
        }
    }
}

/// A generated page or markup soup, then one to six mutations.
struct MutatedHtml;

impl Strategy for MutatedHtml {
    type Value = String;

    fn generate(&self, rng: &mut TestRng) -> String {
        let mut s = if rng.gen_bool(0.7) {
            let seeds = seeds();
            seeds[rng.gen_range(0..seeds.len())].clone()
        } else {
            let n = rng.gen_range(0..40);
            (0..n).map(|_| pick(rng, SOUP)).collect()
        };
        for _ in 0..rng.gen_range(1..=6) {
            mutate(rng, &mut s);
        }
        s
    }
}

/// Per-input bound on each parse path (both builds, index and
/// fingerprint and record layout included). Inputs are a few KB and
/// take about a millisecond unoptimized; the bound catches super-linear
/// blowups, not noise.
const BOUND: Duration = Duration::from_secs(2);

/// Parses `html` one way, building and exercising every lazy table.
fn timed(html: &str, build: fn(&str) -> Document) -> (Document, Duration) {
    let start = Instant::now();
    let doc = build(html);
    let idx = doc.index();
    idx.template_fingerprint();
    idx.record_layout();
    (doc, start.elapsed())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(2048))]

    #[test]
    fn mutated_pages_parse_identically_on_both_paths(html in MutatedHtml) {
        let (oracle, t_classic) = timed(&html, parse);
        let (streamed, t_stream) = timed(&html, |h| parse_indexed(h).into_document());
        prop_assert!(t_classic < BOUND, "classic parse took {:?}", t_classic);
        prop_assert!(t_stream < BOUND, "streaming parse took {:?}", t_stream);
        tree_oracle::assert_index_matches_tree(&oracle);
        tree_oracle::assert_index_matches_tree(&streamed);

        prop_assert_eq!(serialize(&streamed), serialize(&oracle));
        prop_assert_eq!(streamed.len(), oracle.len());
        let (si, oi) = (streamed.index(), oracle.index());
        // Both paths build documents in pre-order: ids are ranks.
        prop_assert!(streamed.preorder_all().eq(streamed.ids()));
        prop_assert!(oracle.preorder_all().eq(oracle.ids()));
        prop_assert_eq!(si.element_postings(), oi.element_postings());
        prop_assert_eq!(si.text_postings(), oi.text_postings());
        for id in streamed.ids() {
            prop_assert_eq!(streamed.kind(id), oracle.kind(id));
            prop_assert_eq!(streamed.parent(id), oracle.parent(id));
            prop_assert_eq!(streamed.children(id), oracle.children(id));
            prop_assert_eq!(si.subtree(id.0), oi.subtree(id.0));
            prop_assert_eq!(si.tag_sym(id), oi.tag_sym(id));
            prop_assert_eq!(si.same_tag_pos(id), oi.same_tag_pos(id));
            prop_assert_eq!(si.elem_pos(id), oi.elem_pos(id));
            prop_assert_eq!(si.text_pos(id), oi.text_pos(id));
            prop_assert_eq!(si.attrs(id), oi.attrs(id));
            if let Some(sym) = si.tag_sym(id) {
                prop_assert_eq!(si.tag_postings(sym), oi.tag_postings(sym));
            }
            for (_, value) in streamed.attributes(id) {
                prop_assert_eq!(si.attr_value_id(value), oi.attr_value_id(value));
            }
        }
        prop_assert_eq!(si.template_fingerprint(), oi.template_fingerprint());
        prop_assert_eq!(si.record_layout(), oi.record_layout());
    }
}
