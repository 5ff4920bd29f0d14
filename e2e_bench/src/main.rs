//! End-to-end benchmark of the wrapper system: three serving workloads
//! and one learning workload, driven through public APIs only.
//!
//! ```text
//! e2e [--workload <name>] --seed <n> [--seconds <s>] [--trace <0|1>]
//! e2e --compare PARENT.jsonl CHANGE.jsonl
//! ```
//!
//! Without `--workload`, every workload runs in turn, each in a child
//! process of its own (fresh caches, its own peak resident set). A run
//! generates its inputs from `--seed`, sets the system up (several
//! times; the median is reported), measures for `--seconds`, checks every
//! output against the repository's oracles, prints each measurement as
//! `workload name value unit`, and ends with one JSON line:
//! `{"correct", "attempted", "failed", "metrics"}` — the end-to-end
//! metrics with `--trace 0`, the per-layer metrics with `--trace 1`. Each
//! result is also appended to `target/bench/e2e.jsonl`, the input of
//! `--compare`. See `README.md` for the workloads and metrics.

mod client;
mod compare;
mod inputs;
mod learn;
mod report;
mod schedule;
mod serve;
mod stats;
mod trace;

use aw_sitegen::DealersConfig;
use inputs::{derive_seed, ServeShape};
use learn::LearnSpec;
use report::Outcome;
use serve::ServeSpec;
use std::io::Write;
use std::path::Path;

const SERVE: &[ServeSpec] = &[
    // Full-roster pagination: every page of a site shares one template,
    // so replay serves nearly every page verbatim and HTTP, decode and
    // parse dominate.
    ServeSpec {
        name: "serve_replay",
        shape: |seed| ServeShape {
            dealers: DealersConfig {
                sites: 96,
                pages_per_site: 12,
                records_per_page: (6, 6),
                promo_prob: 0.0,
                uniform_records: true,
                seed: derive_seed(seed, 1),
                ..DealersConfig::default()
            },
            pages_per_request: 1,
            zipf_requests: None,
            binary: false,
        },
        max_resident: None,
        low_rate: 3200.0,
        high_rate: 5400.0,
        p99_limit_ms: 1.8,
    },
    // Many sites with Zipf popularity behind a lazy, capped registry: the
    // route layer faults wrappers in and template caches start cold.
    ServeSpec {
        name: "serve_longtail",
        shape: |seed| ServeShape {
            dealers: DealersConfig {
                sites: 2000,
                pages_per_site: 8,
                seed: derive_seed(seed, 2),
                ..DealersConfig::default()
            },
            pages_per_request: 1,
            zipf_requests: Some(20_000),
            binary: true,
        },
        max_resident: Some(128),
        low_rate: 2100.0,
        high_rate: 3400.0,
        p99_limit_ms: 2.1,
    },
    // Large multi-page requests over sites with more shapes than the
    // template cache holds: decode and copies weigh more, evaluation runs
    // page-parallel and partial replay runs continuously.
    ServeSpec {
        name: "serve_batch",
        shape: |seed| ServeShape {
            dealers: DealersConfig {
                sites: 12,
                pages_per_site: 384,
                seed: derive_seed(seed, 3),
                ..DealersConfig::default()
            },
            pages_per_request: 32,
            zipf_requests: None,
            binary: false,
        },
        max_resident: None,
        low_rate: 210.0,
        high_rate: 340.0,
        p99_limit_ms: 12.0,
    },
];

// The paper's scale: 330 DEALERS sites of 5 pages, dictionary labels.
const LEARN: LearnSpec = LearnSpec {
    name: "learn",
    dealers: |seed| DealersConfig {
        seed: derive_seed(seed, 4),
        ..DealersConfig::default()
    },
    low_rate: 54.0,
    high_rate: 90.0,
    p99_limit_ms: 31.0,
};

/// `--seconds` when none is given (`run_seconds` of `BENCHMARK.json`).
const DEFAULT_SECONDS: f64 = 20.0;

struct Args {
    /// `None`: every workload, each in a child process.
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad --seed {value:?}"))?),
            "--seconds" => {
                let s: f64 = value
                    .parse()
                    .map_err(|_| format!("bad --seconds {value:?}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(format!("--seconds {s} outside (0, 600]"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("bad --trace {value:?} (0 or 1)")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload,
        seed: seed.ok_or("missing --seed")?,
        seconds: seconds.unwrap_or(DEFAULT_SECONDS),
        trace: trace.unwrap_or(false),
    })
}

fn workloads() -> impl Iterator<Item = &'static str> {
    SERVE.iter().map(|s| s.name).chain([LEARN.name])
}

fn run(workload: &str, args: &Args) -> Result<Outcome, String> {
    let mut out = Outcome::new(workload);
    if let Some(spec) = SERVE.iter().find(|s| s.name == workload) {
        serve::run(spec, args.seed, args.seconds, args.trace, &mut out)?;
    } else if workload == LEARN.name {
        learn::run(&LEARN, args.seed, args.seconds, args.trace, &mut out)?;
    } else {
        let known: Vec<&str> = workloads().collect();
        return Err(format!(
            "unknown workload {workload:?} (known: {})",
            known.join(", ")
        ));
    }
    for problem in &out.problems {
        out.note("problem", format!("{problem:?}"), "-");
    }
    Ok(out)
}

/// Runs every workload in a child process of its own, one after the
/// other; fails if any of them fails.
fn run_all(args: &Args) -> Result<(), String> {
    let exe = std::env::current_exe().map_err(|e| format!("finding the benchmark: {e}"))?;
    let mut failed = Vec::new();
    for workload in workloads() {
        let status = std::process::Command::new(&exe)
            .args(["--workload", workload, "--seed", &args.seed.to_string()])
            .args(["--seconds", &args.seconds.to_string()])
            .args(["--trace", if args.trace { "1" } else { "0" }])
            .status()
            .map_err(|e| format!("starting {workload}: {e}"))?;
        if !status.success() {
            failed.push(workload);
        }
    }
    match failed.as_slice() {
        [] => Ok(()),
        _ => Err(format!("failed: {}", failed.join(", "))),
    }
}

/// Appends one result to `target/bench/e2e.jsonl`.
fn record(workload: &str, args: &Args, result: &str) -> std::io::Result<()> {
    let dir = Path::new("target").join("bench");
    std::fs::create_dir_all(&dir)?;
    let mut file = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(dir.join("e2e.jsonl"))?;
    writeln!(
        file,
        "{{\"workload\": \"{}\", \"seed\": {}, \"trace\": {}, \"result\": {result}}}",
        workload,
        args.seed,
        u8::from(args.trace)
    )?;
    file.flush()
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.first().map(String::as_str) == Some("--compare") {
        let code = match argv.as_slice() {
            [_, parent, change] => match compare::compare(Path::new(parent), Path::new(change)) {
                Ok(()) => 0,
                Err(e) => {
                    eprintln!("e2e --compare: {e}");
                    1
                }
            },
            _ => {
                eprintln!("usage: e2e --compare PARENT.jsonl CHANGE.jsonl");
                2
            }
        };
        std::process::exit(code);
    }
    let args = match parse_args(&argv) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("e2e: {e}");
            eprintln!("usage: e2e [--workload <name>] --seed <n> [--seconds <s>] [--trace <0|1>]");
            std::process::exit(2);
        }
    };
    let Some(workload) = &args.workload else {
        if let Err(e) = run_all(&args) {
            eprintln!("e2e: {e}");
            std::process::exit(1);
        }
        return;
    };
    match run(workload, &args) {
        Ok(out) => {
            let result = out.json(args.trace);
            if let Err(e) = record(workload, &args, &result) {
                eprintln!("e2e: recording the result: {e}");
                std::process::exit(1);
            }
            println!("{result}");
        }
        Err(e) => {
            eprintln!("e2e {workload}: {e}");
            std::process::exit(1);
        }
    }
}
