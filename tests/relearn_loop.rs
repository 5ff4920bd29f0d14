//! End-to-end self-healing: site churn → health degradation → shadow
//! relearn → atomic hot swap → recovery.
//!
//! The loop under test crosses three layers that the unit tests only
//! cover in isolation:
//!
//! * `aw_sitegen::TemplateEvolution` scripts the site's churn — a
//!   benign epoch the deployed wrapper must *survive* and a breaking
//!   epoch that must defeat it;
//! * `ExtractionService` health accounting must notice the break from
//!   response shape alone (no gold labels at serving time);
//! * `RelearnController` must relearn from the retained request pages,
//!   win the old-vs-new differential, and swap without ever serving a
//!   torn response.
//!
//! Everything is asserted deterministic across executor thread counts
//! {1, 2, 8}: same journal, same rules, same values.

use autowrappers::prelude::*;
use aw_sitegen::{epoch_html, EvolutionDataset, TemplateEvolution};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

fn publication_model() -> PublicationModel {
    PublicationModel::learn(&[
        ListFeatures {
            schema_size: 3.0,
            alignment: 0.0,
        },
        ListFeatures {
            schema_size: 4.0,
            alignment: 0.0,
        },
        ListFeatures {
            schema_size: 5.0,
            alignment: 1.0,
        },
    ])
}

fn engine_for(dataset: &EvolutionDataset, threads: usize) -> Engine {
    Engine::builder(RankingModel::new(
        AnnotatorModel::new(0.9, 0.3),
        publication_model(),
    ))
    .language(WrapperLanguage::XPath)
    .annotator(DictionaryAnnotator::new(
        dataset.dictionary.iter(),
        MatchMode::Contains,
    ))
    .threads(threads)
    .build()
}

/// Learns the epoch-0 wrapper the way a deployment would.
fn deploy_epoch0(engine: &Engine, dataset: &EvolutionDataset) -> CompiledWrapper {
    let site = &dataset.epochs[0].site.site;
    let labels = engine.annotate(site).expect("dictionary hits epoch 0");
    engine
        .learn(site, &labels)
        .expect("epoch 0 learns")
        .best()
        .expect("nonempty wrapper space")
        .compile()
}

/// Tight thresholds so a 4-page epoch is enough traffic to flip health.
fn thresholds() -> HealthThresholds {
    HealthThresholds {
        window: 8,
        min_window: 4,
        baseline_pages: 4,
        retain_pages: 16,
        ..HealthThresholds::default()
    }
}

/// What one full churn episode produced — compared across thread counts.
#[derive(Debug, PartialEq)]
struct EpisodeTranscript {
    deployed_rule: String,
    benign_values: Vec<Vec<String>>,
    degraded_after_benign: bool,
    degraded_after_breaking: bool,
    journal: Vec<String>,
    healed_rule: String,
    healed_values: Vec<Vec<String>>,
    generations: (u64, u64),
}

fn run_episode(threads: usize) -> EpisodeTranscript {
    let dataset = TemplateEvolution::small(7).run();
    assert!(dataset.epochs[1].survivable && !dataset.epochs[2].survivable);

    let engine = engine_for(&dataset, threads);
    let deployed = deploy_epoch0(&engine, &dataset);
    let deployed_rule = deployed.rule().to_string();

    let registry = Arc::new(WrapperRegistry::new());
    registry.insert("churn", deployed);
    let generation_before = registry.generation();
    let service = ExtractionService::new(Arc::clone(&registry))
        .with_executor(Executor::new(threads))
        .with_thresholds(thresholds());
    let controller = Arc::new(RelearnController::new(&service, engine));
    let service = service.with_relearn(Arc::clone(&controller));

    let drive = |pages: &[String]| -> Vec<Vec<String>> {
        pages
            .iter()
            .map(|html| {
                let response = service
                    .handle(&ExtractRequest::single("churn", html.clone()))
                    .expect("site stays registered");
                assert_eq!(response.errors, vec![None], "generated pages parse");
                response.pages.into_iter().next().unwrap()
            })
            .collect()
    };

    // Epoch 0: the wrapper serves its own training template — healthy,
    // and the shape baseline locks in.
    let epoch0 = epoch_html(&dataset.epochs[0]);
    let epoch0_values = drive(&epoch0);
    assert!(
        epoch0_values.iter().all(|v| !v.is_empty()),
        "epoch 0 must extract: {epoch0_values:?}"
    );
    assert!(!service.site_health("churn").unwrap().degraded);

    // Epoch 1 (benign churn): the wrapper must survive — extraction
    // stays non-empty and health stays green.
    let benign_values = drive(&epoch_html(&dataset.epochs[1]));
    assert!(
        benign_values.iter().all(|v| !v.is_empty()),
        "benign churn must not defeat the wrapper: {benign_values:?}"
    );
    let degraded_after_benign = service.site_health("churn").unwrap().degraded;
    assert!(!degraded_after_benign, "benign churn must not degrade");
    assert_eq!(controller.queue_len(), 0);

    // Epoch 2 (breaking churn): extraction goes empty, the window
    // crosses the empty-rate threshold, the site lands on the relearn
    // queue.
    let breaking = epoch_html(&dataset.epochs[2]);
    let mut breaking_values = drive(&breaking);
    breaking_values.extend(drive(&breaking));
    assert!(
        breaking_values.iter().all(|v| v.is_empty()),
        "the breaking epoch must defeat the epoch-0 wrapper: {breaking_values:?}"
    );
    let degraded_after_breaking = service.site_health("churn").unwrap().degraded;
    assert!(degraded_after_breaking, "breaking churn must degrade");
    assert_eq!(
        controller.queue_len(),
        1,
        "degradation enqueues one relearn"
    );

    // The shadow relearn: retained drifted pages → new wrapper →
    // differential win → swap.
    let outcome = controller.run_pending();
    assert_eq!((outcome.attempted, outcome.swapped), (1, 1), "{outcome:?}");
    let generation_after = registry.generation();
    assert!(
        generation_after > generation_before,
        "swap bumps generation"
    );

    // Post-swap: fresh breaking-epoch traffic extracts again, and the
    // values are exactly the epoch's (hidden) gold record names.
    let healed_values = drive(&breaking);
    let gold: Vec<Vec<String>> = {
        let generated = &dataset.epochs[2].site;
        (0..generated.site.page_count())
            .map(|p| {
                generated
                    .gold()
                    .iter()
                    .filter(|n| n.page as usize == p)
                    .filter_map(|n| {
                        let (doc, id) = generated.site.resolve(*n);
                        doc.text(id).map(str::to_string)
                    })
                    .collect()
            })
            .collect()
    };
    assert_eq!(healed_values, gold, "healed wrapper recovers the gold");
    let healed_rule = registry.get("churn").unwrap().rule().to_string();
    assert_ne!(healed_rule, deployed_rule, "the rule actually changed");

    // Health recovers once the fresh window refills green.
    assert!(!service.site_health("churn").unwrap().degraded);
    let journal: Vec<String> = service
        .health()
        .journal()
        .iter()
        .map(ToString::to_string)
        .collect();
    assert!(
        journal.iter().any(|e| e.contains("degraded")),
        "{journal:?}"
    );
    assert!(
        journal.iter().any(|e| e.contains("relearn started")),
        "{journal:?}"
    );
    assert!(
        journal.iter().any(|e| e.contains("relearn swapped in")),
        "{journal:?}"
    );
    assert!(
        journal.iter().any(|e| e.contains("recovered")),
        "{journal:?}"
    );

    EpisodeTranscript {
        deployed_rule,
        benign_values,
        degraded_after_benign,
        degraded_after_breaking,
        journal,
        healed_rule,
        healed_values,
        generations: (generation_before, generation_after),
    }
}

#[test]
fn churn_degrade_relearn_swap_recover_is_deterministic_across_thread_counts() {
    let baseline = run_episode(1);
    for threads in [2, 8] {
        assert_eq!(run_episode(threads), baseline, "threads {threads}");
    }
}

#[test]
fn rollback_restores_the_displaced_wrapper() {
    let dataset = TemplateEvolution::small(7).run();
    let engine = engine_for(&dataset, 1);
    let deployed = deploy_epoch0(&engine, &dataset);
    let deployed_rule = deployed.rule().to_string();
    let registry = Arc::new(WrapperRegistry::new());
    registry.insert("churn", deployed);
    let service = ExtractionService::new(Arc::clone(&registry)).with_thresholds(thresholds());
    let controller = Arc::new(RelearnController::new(&service, engine));
    let service = service.with_relearn(Arc::clone(&controller));

    for epoch in [0, 1] {
        for html in epoch_html(&dataset.epochs[epoch]) {
            service
                .handle(&ExtractRequest::single("churn", html))
                .unwrap();
        }
    }
    let breaking = epoch_html(&dataset.epochs[2]);
    for _ in 0..2 {
        for html in &breaking {
            service
                .handle(&ExtractRequest::single("churn", html.clone()))
                .unwrap();
        }
    }
    assert_eq!(controller.run_pending().swapped, 1);
    assert_ne!(
        registry.get("churn").unwrap().rule().to_string(),
        deployed_rule
    );

    // Operator veto: rollback re-installs the displaced wrapper through
    // its retained Arc (CompiledWrapper is not Clone), bumping the
    // generation again.
    let generation = controller.rollback("churn").expect("a swap to undo");
    assert_eq!(generation, registry.generation());
    assert_eq!(
        registry.get("churn").unwrap().rule().to_string(),
        deployed_rule
    );
    assert!(
        controller.rollback("churn").is_none(),
        "nothing left to undo"
    );
    let journal = service.health().journal();
    assert!(
        matches!(journal.last(), Some(HealthEvent::RolledBack { site, .. }) if site == "churn"),
        "{journal:?}"
    );
}

#[test]
fn responses_are_never_torn_while_the_relearn_swaps() {
    // Hammer the degraded site from four threads while run_pending()
    // swaps the wrapper underneath them: every response must pair one
    // wrapper's rule with that same wrapper's values — the old one
    // (empty on drifted pages) until the atomic swap, the new one
    // (extracting) after.
    let dataset = TemplateEvolution::small(7).run();
    let engine = engine_for(&dataset, 2);
    let deployed = deploy_epoch0(&engine, &dataset);
    let old_rule = deployed.rule().to_string();
    let registry = Arc::new(WrapperRegistry::new());
    registry.insert("churn", deployed);
    let service = Arc::new(
        ExtractionService::new(Arc::clone(&registry))
            .with_executor(Executor::new(2))
            .with_thresholds(thresholds()),
    );
    let controller = Arc::new(RelearnController::new(&service, engine));

    // Degrade by hand-feeding the breaking epoch, then enqueue.
    let breaking = epoch_html(&dataset.epochs[2]);
    for _ in 0..2 {
        for html in &breaking {
            service
                .handle(&ExtractRequest::single("churn", html.clone()))
                .unwrap();
        }
    }
    assert!(controller.enqueue("churn"));

    let stop = AtomicBool::new(false);
    let progress = AtomicU64::new(0);
    std::thread::scope(|scope| {
        let mut checkers = Vec::new();
        for _ in 0..4 {
            let service = Arc::clone(&service);
            let (stop, progress, old_rule, breaking) = (&stop, &progress, &old_rule, &breaking);
            checkers.push(scope.spawn(move || {
                let mut served = 0u64;
                while !stop.load(Ordering::Relaxed) {
                    let response = service
                        .handle(&ExtractRequest::single("churn", breaking[0].clone()))
                        .expect("site stays registered");
                    let empty = response.pages[0].is_empty();
                    if &response.rule == old_rule {
                        assert!(empty, "old rule must pair with old (empty) extraction");
                    } else {
                        assert!(!empty, "new rule must pair with new extraction");
                    }
                    served += 1;
                    progress.fetch_add(1, Ordering::Relaxed);
                }
                served
            }));
        }
        assert_eq!(controller.run_pending().swapped, 1);
        // Let the hammers observe the post-swap world before stopping: a
        // fast relearn can finish before any checker has been scheduled.
        let at_swap = progress.load(Ordering::Relaxed);
        while progress.load(Ordering::Relaxed) <= at_swap
            && !checkers.iter().all(|c| c.is_finished())
        {
            std::thread::yield_now();
        }
        stop.store(true, Ordering::Relaxed);
        let served: u64 = checkers.into_iter().map(|c| c.join().unwrap()).sum();
        assert!(served > 0);
    });
    assert_ne!(registry.get("churn").unwrap().rule().to_string(), old_rule);
}
