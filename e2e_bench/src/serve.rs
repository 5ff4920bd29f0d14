//! The serve workloads: an in-process `aw_serve::Server` on the default
//! reactor, loaded over loopback by the one-thread client.
//!
//! Untraced runs set up, make one untimed warm-up pass over the request
//! sequence, then run the rounds of [`Schedule`]: each round sets the
//! system up once more (timed, then shut down), measures its
//! [`Slowdown`], and runs a closed-loop `sat` slice (throughput) and
//! open-loop `low` and `high` slices at the fixed rates of [`ServeSpec`]
//! (latency). Traced runs replay the sequence in-process instead, see
//! [`traced`].

use crate::client::{healthz, raise_priority, Client, Load, PhaseResult, Wire};
use crate::inputs::{serve_inputs, ServeInputs, ServeShape};
use crate::report::{Outcome, SetupTimes};
use crate::schedule::Schedule;
use crate::stats::{mean, median, percentile, rate, MemoryBaseline, Slowdown};
use crate::trace::Tracer;
use aw_core::{
    ArtifactReader, ExtractionService, LoadedArtifact, PageObservation, WrapperRegistry,
};
use aw_dom::Document;
use aw_pool::Executor;
use aw_serve::{respond, Request, Server, ServerHandle};
use serde::Value;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

pub struct ServeSpec {
    pub name: &'static str,
    pub shape: fn(u64) -> ServeShape,
    /// Residency cap of the lazy registry (v3 bundles only).
    pub max_resident: Option<usize>,
    /// Open-loop rates in requests/s: about 20% and 35% of the `sat`
    /// throughput measured once at seed 1, rounded to two significant
    /// digits and frozen here so every commit is offered the same load.
    pub low_rate: f64,
    pub high_rate: f64,
    /// The p99 latency limit: 4× the `low` p99 of seed 1, frozen.
    pub p99_limit_ms: f64,
}

/// Worker threads of the server and of its executor (the host has 2 cores).
const THREADS: usize = 2;
/// Upper bound on the warm-up pass.
const WARMUP_CAP: Duration = Duration::from_secs(60);
/// Generator lateness above which an open-loop slice is not reported.
const MAX_LATE_P99_MS: f64 = 1.0;
/// Span buffer of the traced run, and the spans one request records.
const SPAN_CAPACITY: usize = 1 << 18;
const SPANS_PER_REQUEST: usize = 9;

struct Running {
    service: Arc<ExtractionService>,
    server: ServerHandle,
    times: SetupTimes,
}

/// Set-up as a deployment does it: open the artifact, build registry and
/// service, start the server, and wait for `GET /healthz` to answer.
fn setup(artifact: &Path, max_resident: Option<usize>) -> Result<Running, String> {
    let started = Instant::now();
    let loaded = ArtifactReader::open(artifact).map_err(|e| e.to_string())?;
    let opened = Instant::now();
    let registry = match loaded {
        LoadedArtifact::Resident(bundle) => WrapperRegistry::from_bundle(bundle),
        LoadedArtifact::Lazy(store) => WrapperRegistry::from_store(Arc::new(store), max_resident),
    };
    let registered = Instant::now();
    // Explicit thread count and parse path: AW_THREADS / AW_STREAM_PARSE
    // in the environment cannot change what is measured.
    let service = Arc::new(
        ExtractionService::new(Arc::new(registry))
            .with_executor(Executor::new(THREADS))
            .with_stream_parse(true),
    );
    let server = Server::bind(Arc::clone(&service), "127.0.0.1:0")
        .and_then(|server| server.workers(THREADS).start())
        .map_err(|e| format!("server start: {e}"))?;
    healthz(server.addr())?;
    Ok(Running {
        service,
        server,
        times: SetupTimes {
            open_s: (opened - started).as_secs_f64(),
            registry_s: (registered - opened).as_secs_f64(),
            start_s: registered.elapsed().as_secs_f64(),
        },
    })
}

/// One more set-up, timed, then shut down again.
fn probe_setup(artifact: &Path, max_resident: Option<usize>) -> Result<SetupTimes, String> {
    let probe = setup(artifact, max_resident)?;
    probe.server.shutdown();
    Ok(probe.times)
}

pub fn run(
    spec: &ServeSpec,
    seed: u64,
    seconds: f64,
    trace: bool,
    out: &mut Outcome,
) -> Result<(), String> {
    let generated = Instant::now();
    let shape = (spec.shape)(seed);
    let inputs = serve_inputs(&shape);
    let artifact = artifact_path(spec.name, shape.binary);
    write_file(&artifact, &inputs.artifact)?;
    out.note("gen_s", generated.elapsed().as_secs_f64(), "s");
    out.note("inputs_digest", inputs.digest.hex(), "fnv64");
    out.note("requests_per_pass", inputs.wire.sequence.len(), "requests");
    let sequence_bytes: usize = inputs
        .wire
        .sequence
        .iter()
        .map(|&i| inputs.wire.body(i).len())
        .sum();
    out.note(
        "request_bytes_mean",
        sequence_bytes as f64 / inputs.wire.sequence.len() as f64,
        "bytes",
    );
    let shapes = &inputs.shapes_per_site;
    out.note(
        "shapes_per_site",
        format!(
            "min {} median {} max {} (template cache: {} per site)",
            shapes.iter().min().unwrap_or(&0),
            median(&shapes.iter().map(|&n| n as f64).collect::<Vec<_>>()),
            shapes.iter().max().unwrap_or(&0),
            aw_xpath::batch::DEFAULT_TEMPLATE_CAPACITY
        ),
        "shapes",
    );

    let schedule = Schedule::new(seconds);
    let phases = (!trace).then(|| {
        (
            OpenPhase::new("low", spec.low_rate, schedule.low, schedule.rounds),
            OpenPhase::new("high", spec.high_rate, schedule.high, schedule.rounds),
        )
    });
    let memory = MemoryBaseline::take()?;
    let running = setup(&artifact, spec.max_resident)?;
    let result = match phases {
        None => traced(spec, &inputs, &artifact, &running, &schedule, seconds, out),
        Some(phases) => untraced(
            spec, &inputs, &artifact, &running, &schedule, phases, &memory, out,
        ),
    };
    running.server.shutdown();
    result
}

fn artifact_path(workload: &str, binary: bool) -> PathBuf {
    let ext = if binary { "bin" } else { "json" };
    Path::new("target")
        .join("bench")
        .join(format!("{workload}.bundle.{ext}"))
}

fn write_file(path: &Path, bytes: &[u8]) -> Result<(), String> {
    let dir = path.parent().expect("artifact path has a directory");
    std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    std::fs::write(path, bytes).map_err(|e| format!("{}: {e}", path.display()))
}

/// Reports a phase's counts and folds them into the run's totals.
fn account(out: &mut Outcome, phase: &str, r: &PhaseResult) {
    out.note(&format!("{phase}.sent"), r.sent, "requests");
    out.note(&format!("{phase}.succeeded"), r.succeeded, "requests");
    out.note(&format!("{phase}.failed"), r.failed, "requests");
    if let Some(error) = &r.first_error {
        out.note(&format!("{phase}.first_error"), format!("{error:?}"), "-");
    }
    out.ops(r.sent, r.failed);
}

/// An open-loop phase run in slices, one per round.
struct OpenPhase {
    name: &'static str,
    rate: f64,
    window: Duration,
    cursor: usize,
    total: PhaseResult,
    /// The latencies (ms) of every slice, back to back. Allocated and
    /// written through when the phase is made, so that keeping them adds
    /// no resident memory later: made before the memory baseline, the
    /// buffer is the benchmark's, not the system's (`peak_rss_mb`).
    latencies: Vec<f64>,
    /// Per slice: its round's slowdown, its latencies in `latencies`, and
    /// whether its generator kept its schedule.
    slices: Vec<(Slowdown, std::ops::Range<usize>, bool)>,
    /// The largest lateness p99 of a slice.
    late_p99_ms: f64,
}

impl OpenPhase {
    fn new(name: &'static str, rate: f64, window: Duration, slices: usize) -> OpenPhase {
        let per_slice = (rate * window.as_secs_f64()).ceil() as usize + 1;
        let mut latencies = vec![f64::NAN; per_slice * slices];
        latencies.clear();
        OpenPhase {
            name,
            rate,
            window,
            cursor: 0,
            total: PhaseResult::default(),
            latencies,
            slices: Vec::with_capacity(slices),
            late_p99_ms: 0.0,
        }
    }

    /// Runs one slice. A slice whose generator ran late (lateness p99
    /// above [`MAX_LATE_P99_MS`]) did not offer the scheduled load, so its
    /// latencies are reported only if no slice was on time; its replies
    /// are still checked and counted.
    fn slice(&mut self, client: &mut Client, wire: &Wire, slowdown: Slowdown) {
        let load = Load::Open {
            rate_per_s: self.rate,
        };
        let r = client.run(wire, load, self.window, None, &mut self.cursor);
        let start = self.latencies.len();
        self.latencies
            .extend(r.samples.iter().map(|s| s.latency_ms));
        let late_p99_ms = percentile(&r.late_ms, 0.99);
        self.late_p99_ms = self.late_p99_ms.max(late_p99_ms);
        let on_time = late_p99_ms <= MAX_LATE_P99_MS;
        self.slices
            .push((slowdown, start..self.latencies.len(), on_time));
        self.total.absorb(r);
    }

    fn any_on_time(&self) -> bool {
        self.slices.iter().any(|&(_, _, on_time)| on_time)
    }

    /// The latencies to report: the on-time slices', or every slice's
    /// when none was on time.
    fn latencies(&self) -> Vec<(Slowdown, &[f64])> {
        let all = !self.any_on_time();
        self.slices
            .iter()
            .filter(|&&(_, _, on_time)| on_time || all)
            .map(|(slowdown, range, _)| (*slowdown, &self.latencies[range.clone()]))
            .collect()
    }

    fn report(&self, out: &mut Outcome, p99_limit_ms: f64) {
        let phase = self.name;
        out.note(&format!("{phase}.rate"), self.rate, "requests/s");
        account(out, phase, &self.total);
        out.note(&format!("{phase}.late_ms_p99"), self.late_p99_ms, "ms");
        let late = self.slices.iter().filter(|&&(_, _, on_time)| !on_time);
        out.note(&format!("{phase}.late_slices"), late.count(), "slices");
        out.note(
            &format!("{phase}.backlog_max"),
            self.total.backlog,
            "requests",
        );
        if !self.any_on_time() {
            // The host starved the generator throughout: the latencies are
            // reported, flagged, rather than none at all.
            out.note(
                &format!("{phase}.warning"),
                format!("generator lateness p99 above {MAX_LATE_P99_MS} ms in every slice"),
                "-",
            );
        }
        out.latency(phase, &self.latencies(), "requests", p99_limit_ms);
    }
}

#[allow(clippy::too_many_arguments)]
fn untraced(
    spec: &ServeSpec,
    inputs: &ServeInputs,
    artifact: &Path,
    running: &Running,
    schedule: &Schedule,
    (mut low, mut high): (OpenPhase, OpenPhase),
    memory: &MemoryBaseline,
    out: &mut Outcome,
) -> Result<(), String> {
    let wire = &inputs.wire;
    let mut client = Client::connect(running.server.addr())?;
    out.note("client.nice", raise_priority(), "-");
    let pass = wire.sequence.len() as u64;
    let warmup = client.run(wire, Load::Closed, WARMUP_CAP, Some(pass), &mut 0);
    account(out, "warmup", &warmup);

    let mut setups = Vec::with_capacity(schedule.rounds);
    let mut sat = PhaseResult::default();
    let mut sat_cursor = 0;
    let mut rates = Vec::with_capacity(schedule.rounds);
    for _ in 0..schedule.rounds {
        let wall = probe_setup(artifact, spec.max_resident)?.total_s();
        let slowdown = Slowdown::measure();
        setups.push((wall, slowdown));
        let slice = client.run(wire, Load::Closed, schedule.sat, None, &mut sat_cursor);
        rates.extend(rate(&slice.samples).map(|r| (r, slowdown)));
        sat.absorb(slice);
        low.slice(&mut client, wire, slowdown);
        high.slice(&mut client, wire, slowdown);
    }
    // Before the report allocates.
    let peak_rss_mb = memory.peak_growth_mb()?;
    out.note("rounds", schedule.rounds, "rounds");
    out.per_round("setup_s", &setups, Slowdown::time);
    account(out, "sat", &sat);
    let measured: Vec<f64> = rates.iter().map(|r| r.0).collect();
    out.note("sat.round_rates", format!("{measured:.0?}"), "pages/s");
    out.per_round("pages_per_s", &rates, Slowdown::rate);
    low.report(out, spec.p99_limit_ms);
    high.report(out, spec.p99_limit_ms);
    out.note("memory.baseline_mb", memory.resident_mb, "MB");
    out.metric("peak_rss_mb", peak_rss_mb);
    Ok(())
}

fn extract_request(body: &str) -> Request {
    Request {
        method: "POST".into(),
        path: "/extract".into(),
        body: body.as_bytes().to_vec(),
    }
}

/// Per-request measurements of the traced loop, besides its spans.
#[derive(Default)]
struct Tally {
    requests: u64,
    pages: u64,
    nodes: u64,
    html_bytes: u64,
    body_bytes: u64,
    reply_bytes: u64,
    replay: aw_xpath::ReplayStats,
    /// `residency_stats()` deltas over the traced requests.
    faults: u64,
    evictions: u64,
    grace_hits: u64,
    /// Per request: whether routing faulted the wrapper in, and how many
    /// of its pages were replayed in full, replayed from a frame, or
    /// evaluated cold.
    faulted: Vec<bool>,
    paths: Vec<[u64; 3]>,
}

fn decode(body: &str) -> Result<(String, Vec<String>), String> {
    // As `aw_serve`'s request decoder does it: JSON, then owned pages.
    let v = serde_json::from_str(body).map_err(|e| e.to_string())?;
    let site = v
        .get("site")
        .and_then(Value::as_str)
        .ok_or("no site")?
        .to_string();
    let pages = match (v.get("html"), v.get("pages")) {
        (Some(html), None) => vec![html.as_str().ok_or("html")?.to_string()],
        (None, Some(Value::Array(items))) => items
            .iter()
            .map(|item| item.as_str().map(str::to_string).ok_or("pages"))
            .collect::<Result<_, _>>()?,
        _ => return Err("neither html nor pages".into()),
    };
    Ok((site, pages))
}

/// One request through the public calls `aw_serve::respond` makes, in
/// its order, each in a span. Returns the response body.
fn traced_request(
    t: &mut Tracer,
    id: u32,
    service: &ExtractionService,
    body: &str,
    tally: &mut Tally,
) -> Result<String, String> {
    let before = service.registry().residency_stats();
    let reply = t.span(id, None, "request", |t, root| {
        let (site, pages) = t.span(id, Some(root), "decode", |_, _| decode(body))?;
        let wrapper = t
            .span(id, Some(root), "route", |_, _| {
                service.registry().get_or_fault(&site)
            })
            .map_err(|e| e.to_string())?
            .ok_or("unknown site")?;
        // Page-parallel on the service's executor, as the service parses.
        let docs: Vec<Document> = t.span(id, Some(root), "parse", |_, _| {
            service
                .executor()
                .map(&pages, |html| aw_dom::parse_indexed(html).into_document())
        });
        if docs.iter().any(|doc| doc.len() <= 1) {
            return Err("a page parsed to nothing".into());
        }
        let replays_before = wrapper.template_replay_stats().unwrap_or_default();
        let ids = t.span(id, Some(root), "eval", |_, _| {
            wrapper.extract_pages_with(&docs, service.executor())
        });
        let replays = wrapper.template_replay_stats().unwrap_or_default();
        let values: Vec<Vec<String>> = t.span(id, Some(root), "values", |_, _| {
            ids.into_iter()
                .zip(&docs)
                .map(|(ids, doc)| {
                    ids.into_iter()
                        .filter_map(|n| doc.text(n).map(str::to_string))
                        .collect()
                })
                .collect()
        });
        t.span(id, Some(root), "health", |_, _| {
            let observations: Vec<PageObservation> = pages
                .iter()
                .zip(&values)
                .map(|(html, values)| PageObservation {
                    html: html.clone(),
                    values: values.len(),
                    chars: values.iter().map(String::len).sum(),
                    error: None,
                })
                .collect();
            service
                .health()
                .observe(&site, &observations, wrapper.template_cache_stats())
        });
        let reply = t.span(id, Some(root), "encode", |_, _| {
            let strings =
                |items: &[String]| Value::Array(items.iter().cloned().map(Value::String).collect());
            let value = Value::Object(vec![
                ("site".into(), Value::String(site.clone())),
                (
                    "language".into(),
                    Value::String(wrapper.language().to_string()),
                ),
                ("rule".into(), Value::String(wrapper.rule().to_string())),
                (
                    "pages".into(),
                    Value::Array(values.iter().map(|v| strings(v)).collect()),
                ),
                ("values".into(), strings(&values.concat())),
                (
                    "errors".into(),
                    Value::Array(vec![Value::Null; pages.len()]),
                ),
            ]);
            serde_json::to_string(&value).expect("response serializes")
        });
        tally.requests += 1;
        tally.pages += docs.len() as u64;
        tally.nodes += docs.iter().map(|d| d.len() as u64).sum::<u64>();
        tally.html_bytes += pages.iter().map(|p| p.len() as u64).sum::<u64>();
        tally.body_bytes += body.len() as u64;
        tally.reply_bytes += reply.len() as u64;
        let delta = aw_xpath::ReplayStats {
            full_replays: replays.full_replays - replays_before.full_replays,
            frame_replays: replays.frame_replays - replays_before.frame_replays,
            record_replays: replays.record_replays - replays_before.record_replays,
            record_fallbacks: replays.record_fallbacks - replays_before.record_fallbacks,
            misses: replays.misses - replays_before.misses,
        };
        let replayed = delta.full_replays + delta.frame_replays;
        tally.paths.push([
            delta.full_replays,
            delta.frame_replays,
            (docs.len() as u64).saturating_sub(replayed),
        ]);
        tally.replay += delta;
        t.span(id, Some(root), "drop", |_, _| drop(docs));
        Ok(reply)
    });
    let after = service.registry().residency_stats();
    tally.faults += after.faults - before.faults;
    tally.evictions += after.evictions - before.evictions;
    tally.grace_hits += after.grace_hits - before.grace_hits;
    tally.faulted.push(after.faults > before.faults);
    reply
}

/// Set-ups of a traced run; the median of each part is reported.
const TRACE_SETUPS: usize = 9;

/// The traced run: set-ups, one in-process warm-up pass, an HTTP phase at
/// the low rate (wire and queueing time), then one pass over the
/// sequence alternating untraced `respond` calls and traced requests.
fn traced(
    spec: &ServeSpec,
    inputs: &ServeInputs,
    artifact: &Path,
    running: &Running,
    schedule: &Schedule,
    seconds: f64,
    out: &mut Outcome,
) -> Result<(), String> {
    let mut setups = vec![running.times];
    for _ in 1..TRACE_SETUPS {
        setups.push(probe_setup(artifact, spec.max_resident)?);
    }
    out.setup_parts(&setups);

    let service = &running.service;
    let wire = &inputs.wire;
    let check = |out: &mut Outcome, index: usize, status: u16, body: &[u8]| {
        out.ops(1, 0);
        if status != 200 || body != wire.expected[index].as_slice() {
            out.failed += 1;
        }
    };
    for &index in &wire.sequence {
        let reply = respond(service, &extract_request(wire.body(index)));
        check(out, index, reply.status, reply.body.as_bytes());
    }

    // Wire and queueing time: the client's p50 at the low rate against
    // the server's own p50 for the same requests.
    let mut client = Client::connect(running.server.addr())?;
    out.note("client.nice", raise_priority(), "-");
    let slices = schedule.rounds.min(4);
    let mut low = OpenPhase::new("low", spec.low_rate, schedule.low, slices);
    // As measured: the server's p50 it is compared with is not scaled.
    for _ in 0..slices {
        low.slice(&mut client, wire, Slowdown(1.0));
    }
    account(out, "low", &low.total);
    let measured: Vec<f64> = low
        .latencies()
        .iter()
        .flat_map(|(_, l)| l.iter().copied())
        .collect();
    let client_us = percentile(&measured, 0.5) * 1e3;
    let server_us = service.latency().snapshot().p50_us as f64;

    // One pass over the sequence from its start, alternating request by
    // request between untraced `respond` and the traced calls: both
    // halves see the same request mix, cache states and host drift, and
    // every position is served once, as in the untraced run.
    let mut respond_ns: Vec<f64> = Vec::new();
    let mut tracer = Tracer::with_capacity(SPAN_CAPACITY);
    let mut tally = Tally::default();
    let until = Instant::now() + Duration::from_secs_f64(seconds * 0.7);
    let mut n = 0;
    for (position, &index) in wire.sequence.iter().cycle().enumerate() {
        if Instant::now() >= until || tracer.full(SPANS_PER_REQUEST) {
            break;
        }
        if position % 2 == 0 {
            let request = extract_request(wire.body(index));
            let started = Instant::now();
            let reply = respond(service, &request);
            respond_ns.push(started.elapsed().as_nanos() as f64);
            check(out, index, reply.status, reply.body.as_bytes());
            continue;
        }
        let id = n as u32;
        n += 1;
        match traced_request(&mut tracer, id, service, wire.body(index), &mut tally) {
            Ok(body) => check(out, index, 200, body.as_bytes()),
            Err(e) => {
                tally.paths.push([0; 3]);
                check(out, index, 0, &[]);
                out.problems.push(format!("traced request {id}: {e}"));
            }
        }
    }
    let respond_us = percentile(&respond_ns, 0.5) / 1e3;
    tracer
        .write_json(
            &Path::new("target")
                .join("bench")
                .join(format!("{}.trace.json", spec.name)),
            spec.name,
        )
        .map_err(|e| format!("writing the trace: {e}"))?;

    // Self time per request and layer; the root span's full duration.
    let mut self_ns: BTreeMap<(u32, &str), f64> = BTreeMap::new();
    let mut root_ns = vec![0.0; n];
    let mut layer_total = 0.0;
    for (span, own) in tracer.spans().iter().zip(tracer.self_times()) {
        if span.name == "request" {
            root_ns[span.request as usize] = (span.end_ns - span.start_ns) as f64;
        } else {
            layer_total += own as f64;
            self_ns.insert((span.request, span.name), own as f64);
        }
    }
    // The untraced half may hold one request more than the traced one.
    let respond_total: f64 = respond_ns[..n].iter().sum();
    out.note("trace.requests", n, "requests");
    out.note("http.client_p50_us", client_us, "us");
    out.note("http.server_p50_us", server_us, "us");
    out.note("respond.p50_us", respond_us, "us");
    out.metric("trace.us_per_op", mean(&root_ns) / 1e3);
    out.metric(
        "trace.overhead",
        root_ns.iter().sum::<f64>() / respond_total - 1.0,
    );
    let coverage = layer_total / respond_total;
    out.metric("coverage", coverage);
    if coverage < 0.9 {
        out.note(
            "coverage.gap",
            "time inside respond outside the traced calls (request glue)",
            "-",
        );
    }

    out.metric("http.wire.share", (client_us - server_us) / client_us);
    out.metric("http.queue.share", (server_us - respond_us) / client_us);
    // Per request, from the server's side: request bytes in, reply bytes out.
    let sent = low.total.sent.max(1) as f64;
    out.metric("http.bytes_in", low.total.bytes_sent as f64 / sent);
    out.metric("http.bytes_out", low.total.bytes_received as f64 / sent);

    // Self time (ns) of a layer's spans over the requests `pick` selects.
    let layer_ns = |name: &str, pick: &dyn Fn(usize) -> bool| -> f64 {
        (0..n)
            .filter(|&i| pick(i))
            .filter_map(|i| self_ns.get(&(i as u32, name)))
            .sum()
    };
    let every = |_: usize| true;
    let total: f64 = root_ns.iter().sum();
    for layer in [
        "decode", "route", "parse", "eval", "values", "health", "encode", "drop",
    ] {
        out.metric(&format!("{layer}.share"), layer_ns(layer, &every) / total);
    }
    let route = layer_ns("route", &every).max(1.0);
    out.metric(
        "route.fault.share",
        layer_ns("route", &|i| tally.faulted[i]) / route,
    );
    // Eval time by replay path, as a share of eval time. A multi-page
    // request's pages take several paths inside one call; its time is
    // apportioned by how many of its pages took each.
    let eval = layer_ns("eval", &every).max(1.0);
    for (path, metric) in ["eval.full.share", "eval.frame.share", "eval.cold.share"]
        .iter()
        .enumerate()
    {
        let ns: f64 = (0..n)
            .filter_map(|i| {
                let own = self_ns.get(&(i as u32, "eval"))?;
                Some(
                    own * tally.paths[i][path] as f64
                        / tally.paths[i].iter().sum::<u64>().max(1) as f64,
                )
            })
            .sum();
        out.metric(metric, ns / eval);
    }
    let requests = tally.requests as f64;
    let pages = tally.pages as f64;
    let per_request = |x: u64| x as f64 / requests.max(1.0);
    let per_page = |x: u64| x as f64 / pages.max(1.0);
    out.metric("decode.bytes_per_req", per_request(tally.body_bytes));
    out.metric("encode.bytes_per_req", per_request(tally.reply_bytes));
    out.metric("parse.nodes_per_page", per_page(tally.nodes));
    out.metric("parse.bytes_per_page", per_page(tally.html_bytes));

    out.metric("route.faults", tally.faults as f64);
    out.metric("route.evictions", tally.evictions as f64);
    out.metric("route.grace_hits", tally.grace_hits as f64);
    out.metric("route.fault_ratio", per_request(tally.faults));

    let r = tally.replay;
    out.metric("eval.full_replays", r.full_replays as f64);
    out.metric("eval.frame_replays", r.frame_replays as f64);
    out.metric("eval.record_replays", r.record_replays as f64);
    out.metric("eval.record_fallbacks", r.record_fallbacks as f64);
    out.metric("eval.misses", r.misses as f64);
    out.metric(
        "eval.replay_ratio",
        per_page(r.full_replays + r.frame_replays),
    );

    // The learn pipeline's layers never run on the request path.
    for name in [
        "annotate.share",
        "enumerate.share.xpath",
        "enumerate.share.lr",
        "enumerate.inductor_calls_per_site.xpath",
        "enumerate.inductor_calls_per_site.lr",
        "enumerate.space_per_site.xpath",
        "enumerate.space_per_site.lr",
        "rank.share.xpath",
        "rank.share.lr",
    ] {
        out.metric(name, 0.0);
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use aw_sitegen::DealersConfig;

    #[test]
    fn the_checker_fails_a_corrupted_expected_body() {
        let mut inputs = serve_inputs(&ServeShape {
            dealers: DealersConfig::small(2, 7),
            pages_per_request: 1,
            zipf_requests: None,
            binary: false,
        });
        let bundle = ArtifactReader::read_bytes(&inputs.artifact).expect("artifact reads");
        let service = Arc::new(ExtractionService::new(Arc::new(
            WrapperRegistry::from_bundle(bundle),
        )));
        let server = Server::bind(service, "127.0.0.1:0")
            .and_then(|server| server.start())
            .expect("server starts");
        let pass = inputs.wire.sequence.len() as u64;
        let run = |wire: &Wire| {
            let mut client = Client::connect(server.addr()).expect("client connects");
            client.run(wire, Load::Closed, WARMUP_CAP, Some(pass), &mut 0)
        };
        let clean = run(&inputs.wire);
        assert_eq!(
            (clean.sent, clean.failed),
            (pass, 0),
            "{:?}",
            clean.first_error
        );

        let victim = inputs.wire.sequence[0];
        let last = inputs.wire.expected[victim].len() - 2;
        inputs.wire.expected[victim][last] ^= 0x01;
        let corrupted = run(&inputs.wire);
        assert_eq!(corrupted.failed, 1);
        assert!(corrupted.first_error.is_some());
        server.shutdown();
    }
}
