//! Fuzz-style property tests for the DOM substrate: the paper's pipeline
//! runs on arbitrary crawled markup, so the tokenizer and parser must
//! never panic, and their output must be structurally sound.

use aw_dom::{parse, parse_indexed, serialize, tokenizer::tokenize, NodeId, NodeKind};
use proptest::prelude::*;

/// Strategy producing markup-looking garbage: tags, attributes, entities,
/// comments, raw text sections and random byte salad.
fn html_soup() -> impl Strategy<Value = String> {
    let fragment = prop_oneof![
        "[a-zA-Z0-9 .,!]{0,12}",
        Just("<".to_string()),
        Just(">".to_string()),
        Just("</".to_string()),
        Just("<div>".to_string()),
        Just("</div>".to_string()),
        Just("<td class='x'>".to_string()),
        Just("<br/>".to_string()),
        Just("<!-- c".to_string()),
        Just("-->".to_string()),
        Just("<script>".to_string()),
        Just("</script>".to_string()),
        Just("&amp;".to_string()),
        Just("&#x41;".to_string()),
        Just("&bogus;".to_string()),
        Just("<a href=".to_string()),
        Just("'".to_string()),
        Just("\"".to_string()),
        Just("<ul><li>".to_string()),
        Just("<table><tr>".to_string()),
        Just("é漢字".to_string()),
        // Whitespace the streaming fast path must classify exactly like
        // `collapse_whitespace`: VT (not ASCII-whitespace per `u8`), FF,
        // NBSP, and a Unicode line separator.
        Just("\u{0B}".to_string()),
        Just("\u{0C}".to_string()),
        Just("\u{a0}".to_string()),
        Just("\u{2028}".to_string()),
    ];
    prop::collection::vec(fragment, 0..40).prop_map(|v| v.concat())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Tokenizer and parser accept anything without panicking, and the
    /// resulting tree has consistent parent/child links.
    #[test]
    fn parser_never_panics_and_links_are_sound(input in html_soup()) {
        let _tokens = tokenize(&input);
        let doc = parse(&input);
        for id in doc.ids() {
            if let Some(parent) = doc.parent(id) {
                prop_assert!(doc.children(parent).contains(&id));
            } else {
                prop_assert_eq!(id, NodeId::ROOT);
            }
            for &c in doc.children(id) {
                prop_assert_eq!(doc.parent(c), Some(id));
            }
            // Text nodes are non-empty and whitespace-collapsed.
            if let Some(t) = doc.text(id) {
                prop_assert_eq!(doc.kind(id), NodeKind::Text);
                prop_assert!(!t.is_empty());
                prop_assert!(!t.contains('\n'));
                prop_assert!(!t.starts_with(' ') && !t.ends_with(' '));
            }
        }
    }

    /// serialize ∘ parse is a fixpoint: parsing the serialization and
    /// serializing again yields the same string (idempotent cleanup, the
    /// property tidy provides the paper's pipeline).
    #[test]
    fn serialize_parse_fixpoint(input in html_soup()) {
        let once = serialize(&parse(&input));
        let twice = serialize(&parse(&once));
        prop_assert_eq!(once, twice);
    }

    /// Pre-order traversal visits every node exactly once.
    #[test]
    fn preorder_is_a_permutation(input in html_soup()) {
        let doc = parse(&input);
        let visited: Vec<_> = doc.preorder_all().collect();
        prop_assert_eq!(visited.len(), doc.len());
        let mut sorted = visited.clone();
        sorted.sort_unstable();
        sorted.dedup();
        prop_assert_eq!(sorted.len(), doc.len());
    }

    /// Text spans recorded during serialization always slice to the text
    /// node's exact content.
    #[test]
    fn text_spans_consistent(input in html_soup()) {
        let doc = parse(&input);
        let page = aw_dom::serialize_with_spans(&doc);
        for span in &page.spans {
            let slice = &page.html[span.start..span.end];
            let text = doc.text(span.node).unwrap();
            let raw_parent = matches!(
                doc.parent(span.node).and_then(|p| doc.tag(p)),
                Some("script" | "style")
            );
            let expected = if raw_parent {
                text.to_string()
            } else {
                aw_dom::entities::escape(text)
            };
            prop_assert_eq!(slice, expected.as_str());
        }
        // Spans are in document order and non-overlapping.
        for w in page.spans.windows(2) {
            prop_assert!(w[0].end <= w[1].start);
        }
    }

    /// Entity decoding is idempotent on decoded output when the output
    /// contains no '&', and escape ∘ decode round-trips escaped text.
    #[test]
    fn entity_escape_round_trip(text in "[a-zA-Z<>&\"' é]{0,40}") {
        let escaped = aw_dom::entities::escape(&text);
        prop_assert_eq!(aw_dom::entities::decode(&escaped), text);
    }

    /// The one-pass streaming parse→index (`parse_indexed`, the serving
    /// request path) is byte-identical to its differential oracle —
    /// classic `parse` followed by the lazy index build — on arbitrary
    /// markup: same tree, same serialization, and the same value in
    /// every index table the public API exposes.
    #[test]
    fn streaming_parse_matches_two_pass_oracle(input in html_soup()) {
        let streamed = parse_indexed(&input);
        let oracle = parse(&input);
        prop_assert_eq!(serialize(&streamed), serialize(&oracle));
        prop_assert_eq!(streamed.len(), oracle.len());
        let (si, oi) = (streamed.index(), oracle.index());
        // Both paths build documents in pre-order: ids are ranks.
        prop_assert!(streamed.preorder_all().eq(streamed.ids()));
        prop_assert!(oracle.preorder_all().eq(oracle.ids()));
        prop_assert_eq!(si.element_postings(), oi.element_postings());
        prop_assert_eq!(si.text_postings(), oi.text_postings());
        for id in streamed.ids() {
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

/// `Document::default()` is the root-only document the classic parser
/// starts from: every query on it answers "nothing" instead of
/// panicking, exactly as on the parse of an empty page.
#[test]
fn default_document_is_root_only_and_answers_every_query() {
    let doc = aw_dom::Document::default();
    assert_eq!(doc.len(), 1);
    assert!(doc.is_empty());
    assert_eq!(doc.kind(NodeId::ROOT), NodeKind::Document);
    assert_eq!(serialize(&doc), serialize(&parse("")));
    assert!(serialize(&doc).is_empty());
    assert!(doc.children(NodeId::ROOT).is_empty());
    assert!(doc.preorder_all().eq(doc.ids()));
    assert!(doc.index().record_layout().is_none());
    let paths: Vec<aw_xpath::XPath> = ["//td/text()", "//text()", "/html/body"]
        .iter()
        .map(|p| aw_xpath::parse_xpath(p).expect("valid xpath"))
        .collect();
    for path in &paths {
        assert!(
            aw_xpath::reference::evaluate(path, &doc).is_empty(),
            "{path}"
        );
        assert!(aw_xpath::evaluate(path, &doc).is_empty(), "{path}");
    }
    for cache in [false, true] {
        let batch = aw_xpath::BatchEvaluator::from_xpaths(&paths).with_cache(cache);
        let results = batch.evaluate(&doc);
        assert_eq!(results.len(), paths.len());
        assert!(results.iter().all(Vec::is_empty));
    }
}
