//! The DEALERS scenario at dataset scale: generate store-locator websites
//! from the web-publication model, annotate with a business-name
//! dictionary, learn the domain model from half the sites, and extract
//! from the rest — the §7 pipeline end to end.
//!
//! Run with: `cargo run --release --example dealer_locator`

use autowrappers::prelude::*;
use aw_eval::{evaluate, learn_model, split_half, Method};
use aw_sitegen::{generate_dealers, DealersConfig};

fn main() {
    // 40 synthetic dealer-locator websites (use DealersConfig::default()
    // for the paper's 330).
    let config = DealersConfig::small(40, 2026);
    let dataset = generate_dealers(&config);
    println!(
        "generated {} websites; dictionary of {} business names",
        dataset.sites.len(),
        dataset.dictionary.len()
    );

    // The automatic annotator: exact-mention dictionary matching.
    let annotator = DictionaryAnnotator::new(dataset.dictionary.iter(), MatchMode::Contains);
    let labels_of = |s: &aw_sitegen::GeneratedSite| annotator.annotate(&s.site);

    // Learn (p, r) and the feature distributions from half the websites.
    let (train, test) = split_half(&dataset.sites);
    let model = learn_model(&train, labels_of);
    println!(
        "learned annotator model: p = {:.3}, r = {:.3}",
        model.annotator.p, model.annotator.r
    );

    // One engine serves the whole dataset: model + language + annotator.
    let engine = Engine::builder(model.clone())
        .language(WrapperLanguage::XPath)
        .annotator(DictionaryAnnotator::new(
            dataset.dictionary.iter(),
            MatchMode::Contains,
        ))
        .build();

    // Show one site in detail, through the staged pipeline.
    let sample = test[0];
    let labels = engine.annotate(&sample.site).expect("dictionary fires");
    let outcome = engine.learn(&sample.site, &labels).expect("nonempty space");
    if let Some(best) = outcome.best() {
        println!(
            "\nsite {}: {} labels → wrapper {}",
            sample.id,
            labels.len(),
            best.rule
        );
        for &n in best.extraction.iter().take(6) {
            println!("   {}", sample.site.text_of(n).unwrap());
        }
        if best.extraction.len() > 6 {
            println!("   … {} more", best.extraction.len() - 6);
        }
    }

    // Batch learning: every test site learned exactly as `engine.learn`
    // would, site-parallel on the engine's executor
    // (`Engine::learn_sites_labeled`).
    let site_labels: Vec<NodeSet> = test.iter().map(|gs| labels_of(gs)).collect();
    let labeled: Vec<(&Site, &NodeSet)> =
        test.iter().map(|gs| &gs.site).zip(&site_labels).collect();
    let batch = engine.learn_sites_labeled(&labeled).expect("batch learn");
    let learned = batch.iter().filter(|r| !r.is_empty()).count();
    println!(
        "\nbatch-learned wrappers for {learned}/{} test sites",
        test.len()
    );

    // Dataset-level evaluation: the Figure 2(d) comparison.
    println!("\ndataset accuracy (test half, XPATH wrappers):");
    for method in [Method::Naive, Method::Ntw] {
        let out = evaluate(&test, labels_of, WrapperLanguage::XPath, method, &model);
        println!(
            "  {:>5}: precision {:.3}  recall {:.3}  F1 {:.3}",
            method.name(),
            out.mean.precision,
            out.mean.recall,
            out.mean.f1
        );
    }
}
