//! `awrap` — command-line interface to the noise-tolerant wrapper
//! framework.
//!
//! ```text
//! awrap demo
//!     Built-in demonstration on a synthetic dealer-locator site.
//!
//! awrap learn --pages DIR --dict FILE [--lang table|lr|hlrt|xpath]
//!             [--match exact|contains] [--p F] [--r F] [--top N]
//!             [--out FILE] [--bundle FILE]
//!     Learn a wrapper from the HTML pages in DIR (*.html, *.htm; one
//!     website, same script) using dictionary FILE (one entry per line)
//!     as the automatic annotator. Prints the ranked rules and the best
//!     wrapper's extraction; with --out, writes the best wrapper as a
//!     portable serialized artifact. With --bundle, every subdirectory
//!     of DIR is one site (key = its name): all sites learn through
//!     `learn_sites`, site-parallel, and the best wrappers are written
//!     as one v2 wrapper bundle.
//!
//! awrap apply --wrapper FILE --pages DIR [--site KEY]
//!     Load a wrapper artifact of any generation (v1 single wrapper,
//!     v2 bundle, or v3 binary bundle) and extract from every page in
//!     DIR — the serving half of the learn-offline / extract-online
//!     deployment. Multi-site artifacts need --site KEY; from a v3
//!     bundle only that site's segment is read.
//!
//! awrap bundle pack --in FILE --out FILE
//! awrap bundle unpack --in FILE --out FILE
//! awrap bundle inspect --in FILE
//!     Convert between bundle generations: `pack` writes a v1/v2 JSON
//!     artifact as a v3 binary bundle (`aw-bundle-bin`: seekable,
//!     per-site segments behind a sorted offset index), `unpack` is the
//!     exact inverse, and `inspect` prints a v3 bundle's header, site
//!     count and per-segment sizes without loading any wrapper.
//!
//! awrap serve --bundle FILE [--lazy [--max-resident N]]
//!             [--addr HOST:PORT] [--threads N] [--workers M]
//!             [--relearn --dict FILE [--lang L] [--window N] [--max-empty-rate F]]
//!     Load a wrapper artifact of any generation into a hot-swappable
//!     registry and serve extraction over HTTP (POST /extract,
//!     GET/POST /wrappers, GET /healthz, GET /health,
//!     GET /health/{site}) through the event-driven reactor
//!     (keep-alive, pipelining, backpressure). With --lazy, FILE must
//!     be a v3 binary bundle: the registry starts empty and faults
//!     wrappers in per site as requests name them, keeping at most
//!     --max-resident resident (CLOCK eviction over a slot table, so
//!     a fault costs the same at any cap). Wrappers
//!     swapped in by --relearn are pinned: never evicted, never
//!     reverted to the bundle's copy.
//!     `--addr 127.0.0.1:0` picks an ephemeral port (printed on
//!     startup). With `--relearn`, a background worker watches
//!     per-site extraction health and shadow-relearns degraded sites
//!     from retained request pages, hot-swapping the winner.
//!
//! awrap evolve --out DIR [--seed N] [--epochs N]
//!     Generate a scripted site evolution (benign and breaking template
//!     churn) as per-epoch page directories — the corpus behind the
//!     churn smoke test and the `churn` experiment.
//!
//! awrap extract --xpath RULE --pages DIR
//!     Apply an xpath rule of the fragment to every page in DIR.
//!
//! awrap experiment NAME [--quick]
//!     Re-run a paper experiment (fig2a…fig3c, table1, b2, churn, or
//!     `all`).
//! ```

use autowrappers::prelude::*;
use std::path::Path;
use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    // Reject a broken AW_THREADS up front with a clean message instead of
    // panicking mid-pipeline (or silently falling back, as older builds
    // did).
    if let Err(e) = env_threads() {
        eprintln!("awrap: {e}");
        return ExitCode::FAILURE;
    }
    let result = match args.first().map(String::as_str) {
        Some("demo") => demo(),
        Some("learn") => learn_cmd(&args[1..]),
        Some("apply") => apply_cmd(&args[1..]),
        Some("bundle") => bundle_cmd(&args[1..]),
        Some("serve") => serve_cmd(&args[1..]),
        Some("evolve") => evolve_cmd(&args[1..]),
        Some("extract") => extract_cmd(&args[1..]),
        Some("experiment") => experiment_cmd(&args[1..]),
        Some("--help" | "-h" | "help") | None => {
            eprintln!("{}", USAGE);
            return ExitCode::SUCCESS;
        }
        Some(other) => Err(format!("unknown command {other:?}; try --help")),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("awrap: {e}");
            ExitCode::FAILURE
        }
    }
}

const USAGE: &str =
    "usage: awrap <demo|learn|apply|bundle|serve|evolve|extract|experiment> [options]
  demo                                      built-in demonstration
  learn --pages DIR --dict FILE             learn a wrapper from noisy labels
        [--lang table|lr|hlrt|xpath] [--match exact|contains]
        [--p FLOAT] [--r FLOAT] [--top N] [--out FILE] [--threads N]
        [--bundle FILE]  (DIR's subdirectories = sites; write a v2 bundle)
  apply --wrapper FILE --pages DIR          extract with a wrapper artifact of
        [--site KEY] [--threads N]          any generation (v1/v2/v3)
  bundle pack --in FILE --out FILE          v1/v2 JSON artifact -> v3 binary
  bundle unpack --in FILE --out FILE        v3 binary -> v2 JSON bundle
  bundle inspect --in FILE                  v3 header, sites, segment sizes
  serve --bundle FILE                       serve extraction over HTTP
        [--lazy [--max-resident N]]         (--lazy: FILE is a v3 binary
        [--addr HOST:PORT] [--threads N]     bundle, wrappers fault in per
        [--workers M]                        site, CLOCK-evicted at the cap)
        [--relearn --dict FILE [--lang L] [--window N] [--max-empty-rate F]]
                                            (self-heal degraded sites by
                                            shadow relearning + hot swap)
  evolve --out DIR [--seed N] [--epochs N]  generate scripted site churn
  extract --xpath RULE --pages DIR          apply an xpath rule
  experiment NAME [--quick]                 rerun a paper experiment
      NAME ∈ fig2a fig2b fig2c fig2d fig2e fig2f fig2g fig2h fig2i
             table1 fig3a fig3b fig3c b2 churn all
  --threads N overrides the parallelism of the learn/apply/serve hot loops
  (default: all cores, or the AW_THREADS environment variable)";

/// Parses the optional `--threads` override into a dedicated executor
/// (a positive integer; 0 and non-numeric values are rejected).
fn threads_flag(args: &[String]) -> Result<Option<Executor>, String> {
    flag(args, "--threads")
        .map(|v| {
            parse_threads(&v)
                .map(Executor::new)
                .map_err(|e| format!("--threads: {e}"))
        })
        .transpose()
}

/// Pulls `--flag value` out of an argument list.
fn flag(args: &[String], name: &str) -> Option<String> {
    args.iter()
        .position(|a| a == name)
        .and_then(|i| args.get(i + 1))
        .cloned()
}

fn has_flag(args: &[String], name: &str) -> bool {
    args.iter().any(|a| a == name)
}

/// Reads every `*.html` / `*.htm` file in `dir`, sorted by name.
fn read_pages(dir: &str) -> Result<Vec<String>, String> {
    let mut files: Vec<_> = std::fs::read_dir(Path::new(dir))
        .map_err(|e| format!("cannot read {dir}: {e}"))?
        .filter_map(|entry| entry.ok().map(|e| e.path()))
        .filter(|p| matches!(p.extension().and_then(|x| x.to_str()), Some("html" | "htm")))
        .collect();
    files.sort();
    if files.is_empty() {
        return Err(format!("no *.html pages found in {dir}"));
    }
    files
        .iter()
        .map(|p| std::fs::read_to_string(p).map_err(|e| format!("{}: {e}", p.display())))
        .collect()
}

/// A generic publication prior for when no gold training lists exist:
/// listing records typically carry 2–6 text fields and align well.
fn default_publication_model() -> PublicationModel {
    PublicationModel::learn(&[
        ListFeatures {
            schema_size: 2.0,
            alignment: 0.0,
        },
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
        ListFeatures {
            schema_size: 3.0,
            alignment: 2.0,
        },
    ])
}

fn demo() -> Result<(), String> {
    use aw_sitegen::{generate_dealers, DealersConfig};
    let ds = generate_dealers(&DealersConfig::small(1, 42));
    let gs = &ds.sites[0];
    let annotator = DictionaryAnnotator::new(ds.dictionary.iter(), MatchMode::Contains);
    let labels = annotator.annotate(&gs.site);
    println!(
        "demo site: {} pages, {} text nodes",
        gs.site.page_count(),
        gs.site.text_nodes().len()
    );
    println!(
        "dictionary annotator produced {} noisy labels",
        labels.len()
    );

    let model = RankingModel::new(AnnotatorModel::new(0.9, 0.3), default_publication_model());
    let engine = Engine::builder(model)
        .language(WrapperLanguage::XPath)
        .build();
    let out = engine.learn(&gs.site, &labels).map_err(|e| e.to_string())?;
    let best = out.best().ok_or("no labels, no wrapper")?;
    println!("\nlearned wrapper: {}", best.rule);
    println!("extraction ({} nodes):", best.extraction.len());
    for &n in best.extraction.iter().take(10) {
        println!("  {}", gs.site.text_of(n).unwrap_or("?"));
    }
    let score = aw_eval::prf1(&best.extraction, gs.gold());
    println!(
        "\nvs (hidden) gold labels: P={:.3} R={:.3} F1={:.3}",
        score.precision, score.recall, score.f1
    );
    Ok(())
}

fn learn_cmd(args: &[String]) -> Result<(), String> {
    let dir = flag(args, "--pages").ok_or("--pages DIR is required")?;
    let dict_path = flag(args, "--dict").ok_or("--dict FILE is required")?;
    let language = match flag(args, "--lang") {
        None => WrapperLanguage::XPath,
        Some(name) => name.parse::<WrapperLanguage>().map_err(|e| e.to_string())?,
    };
    let match_mode = match flag(args, "--match").as_deref() {
        None | Some("contains") => MatchMode::Contains,
        Some("exact") => MatchMode::Exact,
        Some(other) => return Err(format!("unknown match mode {other:?}")),
    };
    let p: f64 = flag(args, "--p")
        .map(|s| s.parse())
        .transpose()
        .map_err(|e| format!("--p: {e}"))?
        .unwrap_or(0.9);
    let r: f64 = flag(args, "--r")
        .map(|s| s.parse())
        .transpose()
        .map_err(|e| format!("--r: {e}"))?
        .unwrap_or(0.3);
    let top: usize = flag(args, "--top")
        .map(|s| s.parse())
        .transpose()
        .map_err(|e| format!("--top: {e}"))?
        .unwrap_or(5);

    let dict = std::fs::read_to_string(&dict_path).map_err(|e| format!("{dict_path}: {e}"))?;
    let annotator =
        DictionaryAnnotator::new(dict.lines().filter(|l| !l.trim().is_empty()), match_mode);
    let entries = annotator.len();

    let model = RankingModel::new(AnnotatorModel::new(p, r), default_publication_model());
    let mut builder = Engine::builder(model)
        .language(language)
        .annotator(annotator);
    if let Some(exec) = threads_flag(args)? {
        builder = builder.executor(exec);
    }
    let engine = builder.build();

    if let Some(bundle_path) = flag(args, "--bundle") {
        if has_flag(args, "--out") {
            // The single-site artifact and the multi-site bundle are
            // different outputs of different learn paths; silently
            // ignoring one would strand the user without a file they
            // asked for.
            return Err("--out and --bundle are mutually exclusive; \
                        use --out for one site's artifact, --bundle for a multi-site bundle"
                .into());
        }
        return learn_bundle(&engine, &dir, &bundle_path);
    }

    let pages = read_pages(&dir)?;
    let site = Site::from_html(&pages);
    let labels = engine.annotate(&site).map_err(|e| match e {
        AwError::NoLabels => "the annotator labeled nothing; check the dictionary".to_string(),
        other => other.to_string(),
    })?;
    println!(
        "{} pages, {} dictionary entries, {} noisy labels",
        site.page_count(),
        entries,
        labels.len()
    );

    let ranked = engine.learn(&site, &labels).map_err(|e| e.to_string())?;
    println!(
        "\nwrapper space: {} candidates ({} inductor calls)",
        ranked.wrapper_space_size(),
        ranked.inductor_calls()
    );
    for (i, w) in ranked.iter().take(top).enumerate() {
        println!(
            "  #{:<2} score {:9.3}  n={:<4} {}",
            i + 1,
            w.score.total,
            w.extraction.len(),
            w.rule
        );
    }
    let best = ranked.best().expect("ranked space is nonempty");
    println!("\nbest wrapper extraction:");
    for &n in &best.extraction {
        println!("  page {} | {}", n.page, site.text_of(n).unwrap_or("?"));
    }
    let wrapper = best.compile();
    println!(
        "\nportable rule (apply to future pages): {}",
        wrapper.rule()
    );
    if let Some(path) = flag(args, "--out") {
        let json = wrapper.to_json();
        std::fs::write(&path, &json)
            .map_err(|e| AwError::Io(format!("{path}: {e}")).to_string())?;
        println!(
            "wrote portable wrapper artifact ({} bytes) to {path}",
            json.len()
        );
    }
    Ok(())
}

/// The multi-site learn path behind `learn --bundle`: every
/// subdirectory of `dir` with HTML pages is one site (key = its name;
/// `dir` itself when it has no such subdirectories), all sites learn
/// through `learn_sites` (each exactly as `learn` would, site-parallel),
/// and the best wrappers ship as one v2 bundle.
fn learn_bundle(engine: &Engine, dir: &str, bundle_path: &str) -> Result<(), String> {
    let mut subdirs: Vec<(String, std::path::PathBuf)> = std::fs::read_dir(Path::new(dir))
        .map_err(|e| format!("cannot read {dir}: {e}"))?
        .filter_map(|entry| entry.ok().map(|e| e.path()))
        .filter(|p| p.is_dir())
        .filter_map(|p| {
            p.file_name()
                .and_then(|n| n.to_str())
                .map(|n| (n.to_string(), p.clone()))
        })
        .collect();
    subdirs.sort();

    // Read each site's pages exactly once; subdirectories without HTML
    // are reported and skipped, not silently dropped.
    let mut keys: Vec<String> = Vec::with_capacity(subdirs.len());
    let mut sites: Vec<Site> = Vec::with_capacity(subdirs.len());
    for (key, path) in &subdirs {
        match read_pages(&path.display().to_string()) {
            Ok(pages) => {
                keys.push(key.clone());
                sites.push(Site::from_html(&pages));
            }
            Err(e) => println!("  skipping {key}: {e}"),
        }
    }
    if sites.is_empty() {
        // No usable per-site subdirectories: DIR itself is the one site.
        let key = Path::new(dir)
            .file_name()
            .and_then(|n| n.to_str())
            .unwrap_or("default")
            .to_string();
        keys.push(key);
        sites.push(Site::from_html(&read_pages(dir)?));
    }

    println!("learning {} site(s): {}", sites.len(), keys.join(", "));

    let ranked = engine.learn_sites(&sites).map_err(|e| e.to_string())?;
    let mut bundle = WrapperBundle::new();
    for (key, site_ranked) in keys.iter().zip(&ranked) {
        match site_ranked.best() {
            None => println!("  {key}: no wrapper (the annotator labeled nothing)"),
            Some(best) => {
                let wrapper = best.compile();
                println!(
                    "  {key}: {} rule {} (n={})",
                    wrapper.language(),
                    wrapper.rule(),
                    best.extraction.len()
                );
                bundle.insert(key.clone(), wrapper);
            }
        }
    }
    if bundle.is_empty() {
        return Err("no site produced a wrapper; nothing to bundle".into());
    }
    let json = bundle.to_json();
    std::fs::write(bundle_path, &json)
        .map_err(|e| AwError::Io(format!("{bundle_path}: {e}")).to_string())?;
    println!(
        "wrote wrapper bundle ({} site(s), {} bytes) to {bundle_path}",
        bundle.len(),
        json.len()
    );
    Ok(())
}

/// `awrap serve`: the learn-offline → bundle → serve-online path's last
/// leg. Loads a bundle into a hot-swappable registry and fronts it with
/// the std-only HTTP server.
fn serve_cmd(args: &[String]) -> Result<(), String> {
    use aw_serve::Server;
    use std::sync::Arc;

    let bundle_path = flag(args, "--bundle").ok_or("--bundle FILE is required")?;
    let addr = flag(args, "--addr").unwrap_or_else(|| "127.0.0.1:8080".to_string());
    let lazy = has_flag(args, "--lazy");
    let max_resident: Option<usize> = flag(args, "--max-resident")
        .map(|v| v.parse())
        .transpose()
        .map_err(|e| format!("--max-resident: {e}"))
        .and_then(|cap| match cap {
            Some(0) => Err("--max-resident: must be positive".into()),
            other => Ok(other),
        })?;
    if max_resident.is_some() && !lazy {
        return Err("--max-resident requires --lazy".into());
    }

    let (registry, banner) = if lazy {
        // Lazy serving needs the seekable v3 format: nothing loads at
        // startup, wrappers fault in per site as requests name them.
        let store = BundleStore::open(&bundle_path).map_err(|e| {
            format!("{e}\n--lazy requires a v3 binary bundle; pack one with `awrap bundle pack`")
        })?;
        let banner = match max_resident {
            Some(cap) => format!(
                "opened v3 bundle lazily: {} site(s) indexed, 0 resident (cap {cap})",
                store.len()
            ),
            None => format!(
                "opened v3 bundle lazily: {} site(s) indexed, 0 resident (no cap)",
                store.len()
            ),
        };
        let registry = WrapperRegistry::from_store(Arc::new(store), max_resident);
        (Arc::new(registry), banner)
    } else {
        // Eager: any artifact generation, fully resident.
        let bundle = ArtifactReader::open(&bundle_path)
            .and_then(LoadedArtifact::into_bundle)
            .map_err(|e| e.to_string())?;
        let keys: Vec<String> = bundle.site_keys().map(str::to_string).collect();
        let banner = format!("loaded {} wrapper(s): {}", keys.len(), keys.join(", "));
        (Arc::new(WrapperRegistry::from_bundle(bundle)), banner)
    };
    let mut service = ExtractionService::new(registry);
    if let Some(exec) = threads_flag(args)? {
        service = service.with_executor(exec);
    }

    // Health thresholds (used with or without --relearn: the /health
    // endpoints always report).
    let mut thresholds = HealthThresholds::default();
    if let Some(window) = flag(args, "--window") {
        thresholds.window = window
            .parse()
            .map_err(|e| format!("--window: {e}"))
            .and_then(|w: usize| {
                if w == 0 {
                    Err("--window: must be positive".into())
                } else {
                    Ok(w)
                }
            })?;
        thresholds.min_window = thresholds.min_window.min(thresholds.window);
    }
    if let Some(rate) = flag(args, "--max-empty-rate") {
        thresholds.max_empty_rate = rate.parse().map_err(|e| format!("--max-empty-rate: {e}"))?;
    }
    service = service.with_thresholds(thresholds);

    // --relearn: a shadow engine (same dictionary-annotator setup as
    // `learn`) plus a background worker that repairs degraded sites.
    let controller = if has_flag(args, "--relearn") {
        let dict_path = flag(args, "--dict").ok_or("--relearn requires --dict FILE")?;
        let language = match flag(args, "--lang") {
            None => WrapperLanguage::XPath,
            Some(name) => name.parse::<WrapperLanguage>().map_err(|e| e.to_string())?,
        };
        let dict = std::fs::read_to_string(&dict_path).map_err(|e| format!("{dict_path}: {e}"))?;
        let annotator = DictionaryAnnotator::new(
            dict.lines().filter(|l| !l.trim().is_empty()),
            MatchMode::Contains,
        );
        let model = RankingModel::new(AnnotatorModel::new(0.9, 0.3), default_publication_model());
        let engine = Engine::builder(model)
            .language(language)
            .annotator(annotator)
            .build();
        let controller = Arc::new(RelearnController::new(&service, engine));
        service = service.with_relearn(Arc::clone(&controller));
        Some(controller)
    } else {
        None
    };

    let threads = service.executor().threads();
    let workers: usize = flag(args, "--workers")
        .map(|v| v.parse())
        .transpose()
        .map_err(|e| format!("--workers: {e}"))?
        .unwrap_or(threads)
        .max(1);
    let server = Server::bind(Arc::new(service), &addr)
        .map_err(|e| format!("bind {addr}: {e}"))?
        .workers(workers);
    let local = server.local_addr().map_err(|e| e.to_string())?;
    println!("{banner}");
    println!(
        "serving on http://{local} (event-driven reactor, keep-alive; \
         {workers} http worker(s), {threads} executor thread(s))"
    );
    println!(
        "endpoints: POST /extract, GET /wrappers, POST /wrappers (hot swap), \
         GET /healthz, GET /health, GET /health/{{site}}"
    );
    let _relearn_worker = controller.as_ref().map(|c| {
        println!("relearn worker: on (shadow relearn + hot swap for degraded sites)");
        c.spawn_worker()
    });
    server.start().map_err(|e| e.to_string())?.join();
    if let Some(c) = &controller {
        c.stop();
    }
    Ok(())
}

/// `awrap evolve`: materialize a scripted [`aw_sitegen::TemplateEvolution`]
/// as per-epoch page directories — each `epoch-N/churn/` is one site's
/// crawl of that epoch (so `epoch-0` feeds `learn --bundle` directly),
/// with the dictionary and a churn manifest alongside.
fn evolve_cmd(args: &[String]) -> Result<(), String> {
    use aw_sitegen::{epoch_html, TemplateEvolution};

    let out = flag(args, "--out").ok_or("--out DIR is required")?;
    let seed: u64 = flag(args, "--seed")
        .map(|s| s.parse())
        .transpose()
        .map_err(|e| format!("--seed: {e}"))?
        .unwrap_or(7);
    let epochs: usize = flag(args, "--epochs")
        .map(|s| s.parse())
        .transpose()
        .map_err(|e| format!("--epochs: {e}"))?
        .unwrap_or(3);
    if epochs == 0 {
        return Err("--epochs: must be positive".into());
    }
    let dataset = TemplateEvolution {
        epochs,
        ..TemplateEvolution::small(seed)
    }
    .run();

    let root = Path::new(&out);
    let io = |e: std::io::Error, what: &str| format!("{what}: {e}");
    let mut manifest = String::new();
    for epoch in &dataset.epochs {
        let dir = root.join(format!("epoch-{}", epoch.index)).join("churn");
        std::fs::create_dir_all(&dir).map_err(|e| io(e, &dir.display().to_string()))?;
        let pages = epoch_html(epoch);
        for (j, html) in pages.iter().enumerate() {
            let path = dir.join(format!("p{j}.html"));
            std::fs::write(&path, html).map_err(|e| io(e, &path.display().to_string()))?;
        }
        let churn = if epoch.index == 0 {
            "base template".to_string()
        } else {
            let kind = if epoch.survivable {
                "benign"
            } else {
                "breaking"
            };
            let what: Vec<String> = epoch.mutations.iter().map(|m| m.describe()).collect();
            format!("{kind}: {}", what.join("; "))
        };
        manifest.push_str(&format!("epoch-{}: {churn}\n", epoch.index));
        println!("epoch-{}: {} page(s) — {churn}", epoch.index, pages.len());
    }
    std::fs::write(root.join("dict.txt"), dataset.dictionary.join("\n"))
        .map_err(|e| io(e, "dict.txt"))?;
    std::fs::write(root.join("manifest.txt"), &manifest).map_err(|e| io(e, "manifest.txt"))?;
    println!(
        "wrote {} epoch(s), {}-entry dictionary and manifest to {out}",
        dataset.epochs.len(),
        dataset.dictionary.len()
    );
    Ok(())
}

fn apply_cmd(args: &[String]) -> Result<(), String> {
    let wrapper_path = flag(args, "--wrapper").ok_or("--wrapper FILE is required")?;
    let dir = flag(args, "--pages").ok_or("--pages DIR is required")?;
    // Any artifact generation: v1 single wrapper, v2 bundle, or v3
    // binary bundle (opened lazily — with --site only that segment is
    // ever read).
    let artifact = ArtifactReader::open(&wrapper_path).map_err(|e| e.to_string())?;
    let keys = artifact.site_keys();
    let key = match flag(args, "--site") {
        Some(key) => key,
        None if keys.len() == 1 => keys[0].clone(),
        None => {
            return Err(format!(
                "the artifact holds {} wrappers; pick one with --site KEY (keys: {})",
                keys.len(),
                keys.join(", ")
            ))
        }
    };
    let missing = || {
        format!(
            "no wrapper for site {key:?} in the artifact (keys: {})",
            keys.join(", ")
        )
    };
    let wrapper = match artifact {
        LoadedArtifact::Resident(mut bundle) => bundle.remove(&key).ok_or_else(missing)?,
        LoadedArtifact::Lazy(store) => store
            .load(&key)
            .map_err(|e| e.to_string())?
            .ok_or_else(missing)?,
    };
    let exec = threads_flag(args)?.unwrap_or_else(|| Executor::global().clone());
    println!("loaded {} wrapper: {}", wrapper.language(), wrapper.rule());
    let docs: Vec<Document> = read_pages(&dir)?.iter().map(|html| parse(html)).collect();
    // One batched page-parallel pass — the serving hot loop.
    let mut total = 0usize;
    for (i, ids) in wrapper
        .extract_pages_with(&docs, &exec)
        .into_iter()
        .enumerate()
    {
        for id in ids {
            if let Some(t) = docs[i].text(id) {
                println!("page {i} | {t}");
                total += 1;
            }
        }
    }
    println!("{total} value(s) extracted from {} page(s)", docs.len());
    Ok(())
}

/// `awrap bundle`: conversions and introspection for the wrapper
/// artifact generations (v1/v2 JSON ↔ v3 binary).
fn bundle_cmd(args: &[String]) -> Result<(), String> {
    match args.first().map(String::as_str) {
        Some("pack") => bundle_pack(&args[1..]),
        Some("unpack") => bundle_unpack(&args[1..]),
        Some("inspect") => bundle_inspect(&args[1..]),
        Some(other) => Err(format!(
            "unknown bundle subcommand {other:?}; try pack, unpack or inspect"
        )),
        None => Err("usage: awrap bundle <pack|unpack|inspect> --in FILE [--out FILE]".into()),
    }
}

fn bundle_io_paths(args: &[String]) -> Result<(String, String), String> {
    Ok((
        flag(args, "--in").ok_or("--in FILE is required")?,
        flag(args, "--out").ok_or("--out FILE is required")?,
    ))
}

/// `bundle pack`: any JSON artifact (v1 single wrapper or v2 bundle) →
/// the v3 binary bundle.
fn bundle_pack(args: &[String]) -> Result<(), String> {
    let (input, output) = bundle_io_paths(args)?;
    let payload = std::fs::read(&input).map_err(|e| format!("{input}: {e}"))?;
    let bundle = ArtifactReader::read_bytes(&payload).map_err(|e| e.to_string())?;
    let binary = bundle.to_binary();
    std::fs::write(&output, &binary).map_err(|e| format!("{output}: {e}"))?;
    println!(
        "packed {} site(s): {} bytes of JSON -> {} bytes of v3 binary ({output})",
        bundle.len(),
        payload.len(),
        binary.len()
    );
    Ok(())
}

/// `bundle unpack`: a v3 binary bundle → the equivalent v2 JSON bundle
/// (the exact inverse of `pack`: pack → unpack round-trips
/// byte-identically).
fn bundle_unpack(args: &[String]) -> Result<(), String> {
    let (input, output) = bundle_io_paths(args)?;
    let bundle = BundleStore::open(&input)
        .and_then(|store| store.load_all())
        .map_err(|e| e.to_string())?;
    let json = bundle.to_json();
    std::fs::write(&output, &json).map_err(|e| format!("{output}: {e}"))?;
    println!(
        "unpacked {} site(s) to {} bytes of v2 JSON ({output})",
        bundle.len(),
        json.len()
    );
    Ok(())
}

/// `bundle inspect`: header + index of a v3 binary bundle — site count
/// and per-segment sizes, without deserializing a single wrapper.
fn bundle_inspect(args: &[String]) -> Result<(), String> {
    let input = flag(args, "--in").ok_or("--in FILE is required")?;
    let total = std::fs::metadata(&input)
        .map(|m| m.len())
        .map_err(|e| format!("{input}: {e}"))?;
    let store = BundleStore::open(&input).map_err(|e| e.to_string())?;
    println!(
        "format: {} v{}",
        aw_core::BUNDLE_BIN_FORMAT,
        aw_core::BUNDLE_BIN_VERSION
    );
    println!("sites: {}", store.len());
    let segment_bytes: u64 = store.segments().map(|(_, len)| len).sum();
    println!(
        "bytes: {total} total ({segment_bytes} in segments, {} header + index)",
        total - segment_bytes
    );
    for (key, len) in store.segments() {
        println!("  {len:>8}  {key}");
    }
    Ok(())
}

fn extract_cmd(args: &[String]) -> Result<(), String> {
    let rule_str = flag(args, "--xpath").ok_or("--xpath RULE is required")?;
    let dir = flag(args, "--pages").ok_or("--pages DIR is required")?;
    let rule = parse_xpath(&rule_str).map_err(|e| e.to_string())?;
    for (i, html) in read_pages(&dir)?.iter().enumerate() {
        let doc = parse(html);
        for id in evaluate(&rule, &doc) {
            if let Some(t) = doc.text(id) {
                println!("page {i} | {t}");
            }
        }
    }
    Ok(())
}

fn experiment_cmd(args: &[String]) -> Result<(), String> {
    let name = args
        .first()
        .ok_or("experiment NAME required; see --help")?
        .as_str();
    if has_flag(args, "--quick") {
        std::env::set_var("AW_SCALE", "quick");
    }
    run_experiments(name)
}

fn run_experiments(name: &str) -> Result<(), String> {
    use aw_eval::experiments::{
        accuracy, calls, multitype, single_entity, table1, timing, variants,
    };
    use aw_eval::Method;

    let dealers = || {
        let cfg = match std::env::var("AW_SCALE").as_deref() {
            Ok("quick") => aw_sitegen::DealersConfig::small(24, 0xDEA1),
            _ => aw_sitegen::DealersConfig::default(),
        };
        let ds = aw_sitegen::generate_dealers(&cfg);
        let annot = DictionaryAnnotator::new(ds.dictionary.iter(), MatchMode::Contains);
        (ds, annot)
    };
    let disc = || {
        let cfg = match std::env::var("AW_SCALE").as_deref() {
            Ok("quick") => aw_sitegen::DiscConfig::small(6, 0xD15C),
            _ => aw_sitegen::DiscConfig::default(),
        };
        let ds = aw_sitegen::generate_disc(&cfg);
        let annot = DictionaryAnnotator::new(ds.track_dictionary.iter(), MatchMode::Exact);
        (ds, annot)
    };

    let known = [
        "fig2a", "fig2b", "fig2c", "fig2d", "fig2e", "fig2f", "fig2g", "fig2h", "fig2i", "table1",
        "fig3a", "fig3b", "fig3c", "b2", "churn",
    ];
    let run_one = |id: &str| -> Result<(), String> {
        println!("── {id} ───────────────────────────────────────────");
        match id {
            "fig2a" => {
                let (ds, a) = dealers();
                println!(
                    "{}",
                    calls::run(&ds.sites, |s| a.annotate(&s.site), WrapperLanguage::Lr)
                );
            }
            "fig2b" => {
                let (ds, a) = dealers();
                println!(
                    "{}",
                    calls::run(&ds.sites, |s| a.annotate(&s.site), WrapperLanguage::XPath)
                );
            }
            "fig2c" => {
                let (ds, a) = dealers();
                println!("{}", timing::run(&ds.sites, |s| a.annotate(&s.site)));
            }
            "fig2d" | "fig2e" => {
                let (ds, a) = dealers();
                let lang = if id == "fig2d" {
                    WrapperLanguage::XPath
                } else {
                    WrapperLanguage::Lr
                };
                println!(
                    "{}",
                    accuracy::run(
                        "DEALERS",
                        &ds.sites,
                        |s| a.annotate(&s.site),
                        lang,
                        &[Method::Naive, Method::Ntw]
                    )
                );
            }
            "fig2f" | "fig2g" => {
                let (ds, a) = disc();
                let lang = if id == "fig2f" {
                    WrapperLanguage::XPath
                } else {
                    WrapperLanguage::Lr
                };
                println!(
                    "{}",
                    accuracy::run(
                        "DISC",
                        &ds.sites,
                        |s| a.annotate(&s.site),
                        lang,
                        &[Method::Naive, Method::Ntw]
                    )
                );
            }
            "fig2h" | "fig2i" => {
                let (ds, a) = dealers();
                let lang = if id == "fig2h" {
                    WrapperLanguage::XPath
                } else {
                    WrapperLanguage::Lr
                };
                println!(
                    "{}",
                    variants::run("DEALERS", &ds.sites, |s| a.annotate(&s.site), lang)
                );
            }
            "table1" => {
                let (ds, _) = dealers();
                println!("{}", table1::run(&ds.sites, 0x7AB1));
            }
            "fig3a" | "fig3b" => {
                let (ds, _) = dealers();
                println!("{}", multitype::run(&ds));
            }
            "fig3c" => {
                let cfg = match std::env::var("AW_SCALE").as_deref() {
                    Ok("quick") => aw_sitegen::ProductsConfig::small(4, 0x9800),
                    _ => aw_sitegen::ProductsConfig::default(),
                };
                let ds = aw_sitegen::generate_products(&cfg);
                let a = DictionaryAnnotator::new(ds.dictionary.iter(), MatchMode::Contains);
                println!(
                    "{}",
                    accuracy::run(
                        "PRODUCTS",
                        &ds.sites,
                        |s| a.annotate(&s.site),
                        WrapperLanguage::XPath,
                        &[Method::Naive, Method::Ntw]
                    )
                );
            }
            "b2" => {
                let (ds, _) = disc();
                println!("{}", single_entity::run(&ds));
            }
            "churn" => {
                use aw_eval::experiments::churn;
                let evolution = match std::env::var("AW_SCALE").as_deref() {
                    Ok("quick") => aw_sitegen::TemplateEvolution::small(0xC0DE),
                    _ => aw_sitegen::TemplateEvolution {
                        epochs: 5,
                        pages_per_epoch: 6,
                        ..aw_sitegen::TemplateEvolution::small(0xC0DE)
                    },
                };
                let model =
                    RankingModel::new(AnnotatorModel::new(0.9, 0.3), default_publication_model());
                println!("{}", churn::run(&evolution, &model));
            }
            other => return Err(format!("unknown experiment {other:?}; see --help")),
        }
        Ok(())
    };

    if name == "all" {
        for id in known {
            run_one(id)?;
        }
        Ok(())
    } else {
        run_one(name)
    }
}
