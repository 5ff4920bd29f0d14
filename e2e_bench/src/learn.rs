//! The learn workload: the paper's offline half. Sites arrive in blocks
//! of [`BLOCK`] and each block is learned with `Engine::learn_sites`,
//! alternately in XPATH and in LR, through an engine whose ranking model
//! was learned from the even half of the corpus (`aw_eval::learn_model`).
//!
//! Untraced runs mirror the serve workloads' rounds (see [`Schedule`]): a
//! closed-loop `sat` slice (blocks back to back) gives throughput, and
//! open-loop `low` and `high` slices (blocks due on a fixed schedule,
//! learned in arrival order by one worker) give latency from each
//! block's due time.

use crate::inputs::{learn_inputs, LearnInputs};
use crate::report::{Outcome, SetupTimes};
use crate::schedule::Schedule;
use crate::stats::{mean, rate, MemoryBaseline, Sample, Slowdown};
use crate::trace::Tracer;
use aw_annotate::{DictionaryAnnotator, MatchMode};
use aw_core::{Engine, WrapperLanguage, WrapperSpace};
use aw_induct::{NodeSet, Site};
use aw_pool::Executor;
use aw_rank::SiteSpace;
use aw_sitegen::{DealersConfig, GeneratedSite};
use std::path::Path;
use std::sync::Mutex;
use std::time::{Duration, Instant};

pub struct LearnSpec {
    pub name: &'static str,
    pub dealers: fn(u64) -> DealersConfig,
    /// Open-loop rates in blocks/s, frozen like the serve rates.
    pub low_rate: f64,
    pub high_rate: f64,
    /// The p99 latency limit, frozen like the serve limits.
    pub p99_limit_ms: f64,
}

/// Sites per learn job.
const BLOCK: usize = 4;
const THREADS: usize = 2;
const LANGUAGES: [WrapperLanguage; 2] = [WrapperLanguage::XPath, WrapperLanguage::Lr];
/// Set-ups of a traced run; the median of each part is reported.
const TRACE_SETUPS: usize = 9;
const SPAN_CAPACITY: usize = 1 << 16;

/// Set-up: learn the ranking model from the training half, start the
/// executor, then build the engines. Returns them with where the time
/// went: the model stands for the artifact a server opens, the engines
/// for its registry, the executor for its start.
fn setup(inputs: &LearnInputs, annotator: &DictionaryAnnotator) -> (Vec<Engine>, SetupTimes) {
    let started = Instant::now();
    let train: Vec<&GeneratedSite> = inputs.train.iter().collect();
    let model = aw_eval::learn_model(&train, |site| annotator.annotate(&site.site));
    let learned = Instant::now();
    let executor = Executor::new(THREADS);
    let spawned = Instant::now();
    let engines = LANGUAGES
        .iter()
        .map(|&language| {
            Engine::builder(model.clone())
                .language(language)
                .annotator(annotator.clone())
                .executor(executor.clone())
                .build()
        })
        .collect();
    let times = SetupTimes {
        open_s: (learned - started).as_secs_f64(),
        registry_s: spawned.elapsed().as_secs_f64(),
        start_s: (spawned - learned).as_secs_f64(),
    };
    (engines, times)
}

/// A job: the sites `start..start + BLOCK` (clamped) in one language.
#[derive(Clone, Copy)]
struct Job {
    start: usize,
    language: usize,
}

impl Job {
    fn sites<'a>(&self, sites: &'a [Site]) -> &'a [Site] {
        &sites[self.start..(self.start + BLOCK).min(sites.len())]
    }
}

/// The best wrapper's extraction per site of a learned block.
fn learn_block(engine: &Engine, sites: &[Site]) -> Result<Vec<NodeSet>, String> {
    let ranked = engine.learn_sites(sites).map_err(|e| e.to_string())?;
    Ok(ranked
        .iter()
        .map(|r| r.best().map(|w| w.extraction.clone()).unwrap_or_default())
        .collect())
}

struct Reference {
    /// `[language][site]`: the extraction the warm-up pass learned.
    extraction: Vec<Vec<NodeSet>>,
}

impl Reference {
    fn matches(&self, job: Job, learned: &[NodeSet]) -> bool {
        learned
            .iter()
            .enumerate()
            .all(|(i, e)| *e == self.extraction[job.language][job.start + i])
    }
}

/// What the measured loops share.
struct Learner<'a> {
    inputs: &'a LearnInputs,
    engines: Vec<Engine>,
    jobs: Vec<Job>,
    reference: Reference,
}

impl Learner<'_> {
    /// Runs the job at `*cursor` (cycling) and checks it against the
    /// reference; returns the pages it learned.
    fn next(&self, cursor: &mut usize, out: &mut Outcome) -> u64 {
        let job = self.jobs[*cursor % self.jobs.len()];
        *cursor += 1;
        self.run(job, out)
    }

    fn run(&self, job: Job, out: &mut Outcome) -> u64 {
        let sites = job.sites(&self.inputs.sites);
        let ok = learn_block(&self.engines[job.language], sites)
            .is_ok_and(|learned| self.reference.matches(job, &learned));
        out.ops(1, u64::from(!ok));
        (sites.len() * self.inputs.pages_per_site) as u64
    }
}

pub fn run(
    spec: &LearnSpec,
    seed: u64,
    seconds: f64,
    trace: bool,
    out: &mut Outcome,
) -> Result<(), String> {
    let generated = Instant::now();
    let inputs = learn_inputs(&(spec.dealers)(seed));
    let annotator = DictionaryAnnotator::new(inputs.dictionary.iter(), MatchMode::Contains);
    out.note("gen_s", generated.elapsed().as_secs_f64(), "s");
    out.note("inputs_digest", inputs.digest.hex(), "fnv64");
    out.note("sites", inputs.sites.len(), "sites");

    let memory = MemoryBaseline::take()?;
    let (engines, first_setup) = setup(&inputs, &annotator);
    let jobs: Vec<Job> = (0..inputs.sites.len())
        .step_by(BLOCK)
        .flat_map(|start| (0..LANGUAGES.len()).map(move |language| Job { start, language }))
        .collect();
    out.note("jobs_per_pass", jobs.len(), "jobs");

    // Warm-up pass: the reference extractions later passes must repeat,
    // and the F1 the learned wrappers reach against gold.
    let mut reference = Reference {
        extraction: vec![Vec::with_capacity(inputs.sites.len()); LANGUAGES.len()],
    };
    for &job in &jobs {
        let learned = learn_block(&engines[job.language], job.sites(&inputs.sites))?;
        out.ops(1, 0);
        reference.extraction[job.language].extend(learned);
    }
    for (language, extraction) in LANGUAGES.iter().zip(&reference.extraction) {
        let scores: Vec<aw_eval::PrF1> = extraction
            .iter()
            .zip(&inputs.gold)
            .map(|(e, gold)| aw_eval::prf1(e, gold))
            .collect();
        let f1 = aw_eval::macro_average(&scores).f1;
        out.note(
            &format!("f1_{}", language.name().to_lowercase()),
            f1,
            "macro-F1",
        );
        // The floor catches a learner that silently stopped learning; the
        // paper's DEALERS numbers sit well above it.
        if f1 < 0.5 {
            out.problems
                .push(format!("{language} macro F1 {f1:.3} below 0.5"));
        }
    }

    let learner = Learner {
        inputs: &inputs,
        engines,
        jobs,
        reference,
    };
    if trace {
        let mut setups = vec![first_setup];
        setups.extend((1..TRACE_SETUPS).map(|_| setup(&inputs, &annotator).1));
        out.setup_parts(&setups);
        traced(spec, &learner, seconds, out)
    } else {
        let schedule = Schedule::new(seconds);
        untraced(spec, &learner, &annotator, &schedule, &memory, out)
    }
}

/// One open-loop slice: jobs due every `1 / rate` seconds over `window`,
/// taken in arrival order by this thread; returns each job's latency (ms)
/// from its due time.
fn open_slice(
    learner: &Learner,
    rate: f64,
    window: Duration,
    cursor: &mut usize,
    out: &mut Outcome,
) -> Vec<f64> {
    let start = Instant::now();
    let mut latencies = Vec::new();
    for k in 0.. {
        let at = Duration::from_secs_f64(k as f64 / rate);
        if at >= window {
            break;
        }
        let due = start + at;
        if let Some(early) = due.checked_duration_since(Instant::now()) {
            std::thread::sleep(early);
        }
        learner.next(cursor, out);
        latencies.push(due.elapsed().as_secs_f64() * 1e3);
    }
    latencies
}

fn untraced(
    spec: &LearnSpec,
    learner: &Learner,
    annotator: &DictionaryAnnotator,
    schedule: &Schedule,
    memory: &MemoryBaseline,
    out: &mut Outcome,
) -> Result<(), String> {
    let mut setups = Vec::with_capacity(schedule.rounds);
    let mut cursors = [0usize; 3];
    let mut rates = Vec::with_capacity(schedule.rounds);
    let (mut low, mut high) = (Vec::new(), Vec::new());
    for _ in 0..schedule.rounds {
        let wall = setup(learner.inputs, annotator).1.total_s();
        let slowdown = Slowdown::measure();
        setups.push((wall, slowdown));
        let start = Instant::now();
        let mut samples = Vec::new();
        while start.elapsed() < schedule.sat {
            let pages = learner.next(&mut cursors[0], out);
            samples.push(Sample {
                at_s: start.elapsed().as_secs_f64(),
                pages,
                latency_ms: 0.0,
            });
        }
        rates.extend(rate(&samples).map(|r| (r, slowdown)));
        low.push((
            slowdown,
            open_slice(learner, spec.low_rate, schedule.low, &mut cursors[1], out),
        ));
        high.push((
            slowdown,
            open_slice(learner, spec.high_rate, schedule.high, &mut cursors[2], out),
        ));
    }
    // Before the report allocates.
    let peak_rss_mb = memory.peak_growth_mb()?;
    out.note("rounds", schedule.rounds, "rounds");
    out.per_round("setup_s", &setups, Slowdown::time);
    out.note("sat.jobs", cursors[0], "jobs");
    let measured: Vec<f64> = rates.iter().map(|r| r.0).collect();
    out.note("sat.round_rates", format!("{measured:.0?}"), "pages/s");
    out.per_round("pages_per_s", &rates, Slowdown::rate);
    for (phase, rate, rounds) in [
        ("low", spec.low_rate, &low),
        ("high", spec.high_rate, &high),
    ] {
        out.note(&format!("{phase}.rate"), rate, "jobs/s");
        let slices: Vec<(Slowdown, &[f64])> = rounds.iter().map(|(s, l)| (*s, &l[..])).collect();
        out.latency(phase, &slices, "jobs", spec.p99_limit_ms);
    }
    out.note("memory.baseline_mb", memory.resident_mb, "MB");
    out.metric("peak_rss_mb", peak_rss_mb);
    Ok(())
}

/// Per-language totals of the traced loop.
#[derive(Default, Clone, Copy)]
struct SpaceTally {
    sites: u64,
    inductor_calls: u64,
    space: u64,
}

/// One job through the calls `Engine::learn_sites` makes, each stage in
/// a span: annotate, enumerate, then rank (`aw_rank::score_xpath_spaces`
/// for XPATH, `Engine::rank` for LR). Returns whether the result agrees
/// with the reference.
fn traced_job(
    t: &mut Tracer,
    id: u32,
    learner: &Learner,
    job: Job,
    tally: &mut [SpaceTally],
) -> bool {
    let sites = job.sites(&learner.inputs.sites);
    let engine = &learner.engines[job.language];
    let exec = engine.executor();
    t.span(id, None, "job", |t, root| {
        let labels: Vec<NodeSet> = t.span(id, Some(root), "annotate", |_, _| {
            exec.map(sites, |site| engine.annotate(site).unwrap_or_default())
        });
        let labeled: Vec<(&Site, &NodeSet)> = sites.iter().zip(&labels).collect();
        let spaces: Vec<Option<WrapperSpace<'_>>> = t.span(id, Some(root), "enumerate", |_, _| {
            exec.map(&labeled, |&(site, labels)| {
                engine.enumerate(site, labels).ok()
            })
        });
        let tally = &mut tally[job.language];
        tally.sites += sites.len() as u64;
        for space in spaces.iter().flatten() {
            tally.inductor_calls += space.inductor_calls() as u64;
            tally.space += space.len() as u64;
        }
        let expected =
            &learner.reference.extraction[job.language][job.start..job.start + sites.len()];
        if LANGUAGES[job.language] == WrapperLanguage::XPath {
            let paths: Vec<Vec<aw_xpath::XPath>> = spaces
                .into_iter()
                .map(|space| {
                    space
                        .map(|s| {
                            s.into_result()
                                .xpath_candidates()
                                .into_iter()
                                .map(|(_, xp)| xp)
                                .collect()
                        })
                        .unwrap_or_default()
                })
                .collect();
            let site_spaces: Vec<SiteSpace<'_>> = labeled
                .iter()
                .zip(&paths)
                .map(|(&(site, labels), paths)| SiteSpace {
                    site,
                    labels,
                    paths,
                })
                .collect();
            let model = engine.model().with_mode(engine.config().mode);
            let scored = t.span(id, Some(root), "rank", |_, _| {
                aw_rank::score_xpath_spaces(
                    &model,
                    &site_spaces,
                    exec,
                    engine.template_cache_enabled(),
                )
            });
            // The reference winner must be among the top-scoring candidates
            // (the engine's tie-breaks are internal).
            scored.iter().zip(expected).all(|(candidates, want)| {
                let best = candidates
                    .iter()
                    .map(|(_, s)| s.total)
                    .fold(f64::NEG_INFINITY, f64::max);
                want.is_empty() || candidates.iter().any(|(e, s)| s.total == best && e == want)
            })
        } else {
            let slots: Vec<Mutex<Option<WrapperSpace<'_>>>> =
                spaces.into_iter().map(Mutex::new).collect();
            let best: Vec<NodeSet> = t.span(id, Some(root), "rank", |_, _| {
                exec.map(&slots, |slot| {
                    let space = slot.lock().expect("slot lock").take();
                    space
                        .and_then(|s| engine.rank(s).ok())
                        .and_then(|r| r.best().map(|w| w.extraction.clone()))
                        .unwrap_or_default()
                })
            });
            best.as_slice() == expected
        }
    })
}

fn traced(
    spec: &LearnSpec,
    learner: &Learner,
    seconds: f64,
    out: &mut Outcome,
) -> Result<(), String> {
    // One stretch of passes over the jobs, alternating site blocks (both
    // languages of a block together) between untraced and traced, with
    // the parity flipped every pass: both halves see every job equally
    // often, and the same host drift.
    let mut untraced_ns = Vec::new();
    let mut tracer = Tracer::with_capacity(SPAN_CAPACITY);
    let mut tally = [SpaceTally::default(); 2];
    let mut languages = Vec::new();
    let until = Instant::now() + Duration::from_secs_f64(seconds * 0.9);
    for (position, &job) in learner.jobs.iter().cycle().enumerate() {
        if Instant::now() >= until || tracer.full(8) {
            break;
        }
        let pass = position / learner.jobs.len();
        if (position / LANGUAGES.len() + pass).is_multiple_of(2) {
            let started = Instant::now();
            learner.run(job, out);
            untraced_ns.push(started.elapsed().as_nanos() as f64);
            continue;
        }
        let id = languages.len() as u32;
        languages.push(job.language);
        let ok = traced_job(&mut tracer, id, learner, job, &mut tally);
        out.ops(1, u64::from(!ok));
    }
    let traced_jobs = languages.len();
    tracer
        .write_json(
            &Path::new("target")
                .join("bench")
                .join(format!("{}.trace.json", spec.name)),
            spec.name,
        )
        .map_err(|e| format!("writing the trace: {e}"))?;

    // Self time per stage and language; the root span's full duration.
    let mut stage_ns = [[0.0; 3]; 2];
    let mut root_ns = vec![0.0; traced_jobs];
    let mut layer_ns = vec![0.0; traced_jobs];
    for (span, own) in tracer.spans().iter().zip(tracer.self_times()) {
        let i = span.request as usize;
        if span.name == "job" {
            root_ns[i] = (span.end_ns - span.start_ns) as f64;
            continue;
        }
        layer_ns[i] += own as f64;
        let language = languages[i];
        let stage = ["annotate", "enumerate", "rank"]
            .iter()
            .position(|s| *s == span.name)
            .expect("a learn stage");
        stage_ns[language][stage] += own as f64;
    }
    let k = traced_jobs.min(untraced_ns.len());
    let untraced_total: f64 = untraced_ns[..k].iter().sum();
    out.note("trace.jobs", traced_jobs, "jobs");
    out.note("trace.compared_jobs", k, "jobs");
    out.metric("trace.us_per_op", mean(&root_ns) / 1e3);
    out.metric(
        "trace.overhead",
        root_ns[..k].iter().sum::<f64>() / untraced_total - 1.0,
    );
    let coverage = layer_ns[..k].iter().sum::<f64>() / untraced_total;
    out.metric("coverage", coverage);
    if coverage < 0.9 {
        out.note(
            "coverage.gap",
            "time inside learn_sites outside the traced stages (sorting, result assembly)",
            "-",
        );
    }
    let total: f64 = root_ns.iter().sum();
    out.metric("annotate.share", (stage_ns[0][0] + stage_ns[1][0]) / total);
    for (language, name) in ["xpath", "lr"].iter().enumerate() {
        let t = tally[language];
        let per_site = |x: u64| x as f64 / t.sites.max(1) as f64;
        out.metric(
            &format!("enumerate.share.{name}"),
            stage_ns[language][1] / total,
        );
        out.metric(&format!("rank.share.{name}"), stage_ns[language][2] / total);
        out.metric(
            &format!("enumerate.inductor_calls_per_site.{name}"),
            per_site(t.inductor_calls),
        );
        out.metric(
            &format!("enumerate.space_per_site.{name}"),
            per_site(t.space),
        );
    }
    // The request path's layers never run while learning.
    for name in [
        "http.wire.share",
        "http.queue.share",
        "http.bytes_in",
        "http.bytes_out",
        "decode.share",
        "decode.bytes_per_req",
        "route.share",
        "route.fault.share",
        "route.faults",
        "route.evictions",
        "route.grace_hits",
        "route.fault_ratio",
        "parse.share",
        "parse.nodes_per_page",
        "parse.bytes_per_page",
        "eval.share",
        "eval.full.share",
        "eval.frame.share",
        "eval.cold.share",
        "eval.full_replays",
        "eval.frame_replays",
        "eval.record_replays",
        "eval.record_fallbacks",
        "eval.misses",
        "eval.replay_ratio",
        "values.share",
        "health.share",
        "encode.share",
        "encode.bytes_per_req",
        "drop.share",
    ] {
        out.metric(name, 0.0);
    }
    Ok(())
}
