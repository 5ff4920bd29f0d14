//! The portable-artifact deployment contract: a wrapper learned via the
//! [`Engine`], serialized with `CompiledWrapper::to_json` and
//! deserialized "in a fresh process" (nothing shared but the JSON bytes)
//! must produce **byte-identical extractions** to the in-process wrapper
//! — for all four rule languages.

use autowrappers::prelude::*;

/// A training site whose template exercises every language: a table grid
/// (TABLE), stable delimiters (LR/HLRT), and attribute-tagged structure
/// (XPATH).
fn training_site() -> Site {
    let page = |rows: &[(&str, &str)]| {
        let mut s =
            String::from("<div class='nav'>menu</div><h1>Stores</h1><table class='stores'>");
        for (n, a) in rows {
            s.push_str(&format!("<tr><td><b>{n}</b></td><td>{a}</td></tr>"));
        }
        s + "</table><div class='footer'>contact us</div>"
    };
    Site::from_html(&[
        page(&[("ALPHA CO", "1 Elm"), ("BETA LLC", "2 Oak")]),
        page(&[("GAMMA INC", "3 Fir"), ("DELTA LTD", "4 Ash")]),
        page(&[("EPSILON SA", "5 Ivy")]),
    ])
}

fn model() -> RankingModel {
    RankingModel::new(
        AnnotatorModel::new(0.95, 0.5),
        PublicationModel::learn(&[
            ListFeatures {
                schema_size: 2.0,
                alignment: 0.0,
            },
            ListFeatures {
                schema_size: 2.0,
                alignment: 1.0,
            },
        ]),
    )
}

fn labels(site: &Site) -> NodeSet {
    let mut l = NodeSet::new();
    l.extend(site.find_text("ALPHA CO"));
    l.extend(site.find_text("DELTA LTD"));
    l
}

/// Fresh pages of the same script, plus junk the wrapper must ignore.
fn crawl() -> Vec<Document> {
    [
        "<div class='nav'>menu</div><h1>Stores</h1><table class='stores'>\
         <tr><td><b>OMEGA GROUP</b></td><td>9 Elm</td></tr>\
         <tr><td><b>SIGMA BROS</b></td><td>7 Oak</td></tr></table>\
         <div class='footer'>contact us</div>",
        "<div class='nav'>menu</div><h1>Stores</h1><table class='stores'>\
         <tr><td><b>KAPPA SONS</b></td><td>4 Fir</td></tr></table>\
         <div class='footer'>contact us</div>",
        "<p>just a paragraph</p>",
    ]
    .iter()
    .map(|html| parse(html))
    .collect()
}

#[test]
fn engine_wrapper_survives_serialization_for_every_language() {
    let site = training_site();
    let seed = labels(&site);
    let pages = crawl();
    for language in WrapperLanguage::ALL {
        let engine = Engine::builder(model()).language(language).build();
        let ranked = engine.learn(&site, &seed).unwrap();
        let best = ranked
            .best()
            .unwrap_or_else(|| panic!("{language}: no wrapper"));
        let wrapper = best.compile();
        assert_eq!(wrapper.language(), language);

        // "Ship" the artifact: only the JSON string crosses the boundary.
        let payload = wrapper.to_json();
        let shipped =
            CompiledWrapper::from_json(&payload).unwrap_or_else(|e| panic!("{language}: {e}"));

        // Byte-identical extraction on every crawled page, single and
        // batched, plus on the training pages themselves.
        for doc in pages.iter().chain(site.pages()) {
            assert_eq!(
                shipped.extract(doc),
                wrapper.extract(doc),
                "{language}: extraction diverged after round trip"
            );
            assert_eq!(
                shipped.extract_values(doc),
                wrapper.extract_values(doc),
                "{language}"
            );
        }
        assert_eq!(
            shipped.extract_pages_with(&pages, Executor::global()),
            pages.iter().map(|d| wrapper.extract(d)).collect::<Vec<_>>(),
            "{language}: batched extraction diverged"
        );
        // Re-serialization is stable (fixpoint after one round trip).
        assert_eq!(shipped.to_json(), payload, "{language}");
    }
}

#[test]
fn xpath_artifact_extracts_unseen_records() {
    let site = training_site();
    let engine = Engine::builder(model()).build();
    let ranked = engine.learn(&site, &labels(&site)).unwrap();
    let wrapper = ranked.best().unwrap().compile();
    let shipped = CompiledWrapper::from_json(&wrapper.to_json()).unwrap();
    let pages = crawl();
    assert_eq!(
        shipped.extract_values(&pages[0]),
        vec!["OMEGA GROUP", "SIGMA BROS"]
    );
    assert_eq!(shipped.extract_values(&pages[1]), vec!["KAPPA SONS"]);
    assert!(shipped.extract(&pages[2]).is_empty());
}

#[test]
fn artifact_rejects_wrong_version_and_garbage() {
    let site = training_site();
    let engine = Engine::builder(model()).build();
    let wrapper = engine
        .learn(&site, &labels(&site))
        .unwrap()
        .best()
        .unwrap()
        .compile();
    let payload = wrapper.to_json();

    let bumped = payload.replace("\"version\": 1.0", "\"version\": 99.0");
    assert!(matches!(
        CompiledWrapper::from_json(&bumped),
        Err(AwError::UnsupportedVersion {
            found: 99,
            supported: 1
        })
    ));
    for bad in ["", "{]", "{\"format\": \"aw-wrapper\"}", "[1, 2, 3]"] {
        assert!(
            matches!(
                CompiledWrapper::from_json(bad),
                Err(AwError::MalformedArtifact(_))
            ),
            "accepted {bad:?}"
        );
    }
    assert!(matches!(
        CompiledWrapper::from_json(&payload.replace("XPATH", "PROLOG")),
        Err(AwError::UnknownLanguage(_))
    ));
}

#[test]
fn engine_learns_and_runs_naive_in_every_language() {
    let site = training_site();
    let seed = labels(&site);
    for language in WrapperLanguage::ALL {
        let engine = Engine::builder(model()).language(language).build();
        let ranked = engine.learn(&site, &seed).unwrap();
        assert!(!ranked.is_empty(), "{language}");
        assert_eq!(ranked.language(), language);
        // NAIVE runs the inductor once on all labels, so it covers them.
        let naive = engine.naive(&site, &seed).unwrap();
        assert!(
            seed.is_subset(&naive.extraction),
            "{language}: {}",
            naive.rule
        );
    }
}

#[test]
fn staged_pipeline_with_annotator_end_to_end() {
    let site = training_site();
    let engine = Engine::builder(model())
        .annotator(DictionaryAnnotator::new(
            ["ALPHA CO", "DELTA LTD", "1 Elm"],
            MatchMode::Exact,
        ))
        .threads(2)
        .build();
    let found = engine.annotate(&site).unwrap();
    assert_eq!(found.len(), 3); // 2 names + 1 street false positive
    let space = engine.enumerate(&site, &found).unwrap();
    assert!(space.len() >= 2);
    let ranked = engine.rank(space).unwrap();
    let names: Vec<&str> = ranked
        .best()
        .unwrap()
        .extraction
        .iter()
        .map(|&n| site.text_of(n).unwrap())
        .collect();
    assert!(names.contains(&"BETA LLC"), "{names:?}");
    assert!(!names.contains(&"contact us"), "{names:?}");
}
