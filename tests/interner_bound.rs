//! Learning from outside pages must not grow the process-global string
//! interner, which leaks every string it sees. Attribute values — the
//! per-record hrefs and ids a rule can name — are resolved per document,
//! both when enumeration scores a candidate rule and when a learned rule
//! is deployed and served.

use autowrappers::aw_dom::interner::lookup;
use autowrappers::prelude::*;

#[test]
fn learning_and_serving_intern_no_attribute_values() {
    // Values no other test uses, so no other test can intern them.
    let stem = "interner-bound-7f3a";
    let pages: Vec<String> = (0..3)
        .map(|p| {
            format!(
                "<div id='{stem}-page{p}' class='dealers'>\
                   <tr><td><a href='/{stem}/{p}/1'>ACME CO</a><br>1 Elm St</td></tr>\
                   <tr><td><a href='/{stem}/{p}/2'>BETA CO</a><br>2 Oak St</td></tr>\
                 </div>"
            )
        })
        .collect();
    let html: Vec<&str> = pages.iter().map(String::as_str).collect();
    let site = Site::from_html(&html);
    let engine = Engine::builder(RankingModel::new(
        AnnotatorModel::new(0.9, 0.3),
        PublicationModel::learn(&[
            ListFeatures {
                schema_size: 2.0,
                alignment: 0.0,
            },
            ListFeatures {
                schema_size: 3.0,
                alignment: 1.0,
            },
        ]),
    ))
    .language(WrapperLanguage::XPath)
    .annotator(DictionaryAnnotator::new(
        ["ACME CO", "BETA CO"],
        MatchMode::Exact,
    ))
    .build();
    let labels = engine.annotate(&site).expect("dictionary hits");
    let ranked = engine.learn(&site, &labels).expect("learns");
    // Enumeration scored rules that name the fresh values...
    assert!(
        ranked.iter().any(|w| w.rule.contains(stem)),
        "no candidate names a fresh value"
    );
    // ...and every candidate deploys and serves.
    for wrapper in ranked.iter() {
        let compiled = wrapper.compile();
        for doc in site.pages() {
            compiled.extract(doc);
        }
    }
    for p in 0..3 {
        for value in [
            format!("{stem}-page{p}"),
            format!("/{stem}/{p}/1"),
            format!("/{stem}/{p}/2"),
        ] {
            assert_eq!(lookup(&value), None, "{value} was interned");
        }
    }
}
