//! Offline stand-in for `criterion`.
//!
//! Provides [`criterion_group!`] / [`criterion_main!`], benchmark groups
//! and a wall-clock measurement loop. Statistics are deliberately simple
//! compared to upstream — a warmup phase sizes the iteration batch, then
//! a fixed number of timed samples yields median/mean ns per iteration —
//! but the reporting format (`group/function  time: [..]`) is close
//! enough for eyeballing regressions.
//!
//! Environment knobs:
//! * `CRITERION_SAMPLE_MS` — per-sample time budget (default 100 ms);
//! * `CRITERION_SAMPLES`   — samples per benchmark (default 12).

use std::time::{Duration, Instant};

/// Per-iteration throughput annotation.
#[derive(Clone, Copy, Debug)]
pub enum Throughput {
    /// Bytes processed per iteration.
    Bytes(u64),
    /// Elements processed per iteration.
    Elements(u64),
}

/// How many setup outputs [`Bencher::iter_batched`] holds at once.
#[derive(Clone, Copy, Debug)]
pub enum BatchSize {
    /// Inputs small enough to set up a few hundred at a time.
    SmallInput,
}

/// Top-level benchmark driver.
#[derive(Clone, Debug, Default)]
pub struct Criterion {
    _private: (),
}

impl Criterion {
    /// Opens a named benchmark group.
    pub fn benchmark_group(&mut self, name: impl Into<String>) -> BenchmarkGroup<'_> {
        BenchmarkGroup {
            _criterion: self,
            name: name.into(),
            throughput: None,
        }
    }

    /// Runs a standalone benchmark.
    pub fn bench_function<F>(&mut self, id: impl Into<String>, f: F) -> &mut Self
    where
        F: FnMut(&mut Bencher),
    {
        run_benchmark(&id.into(), None, f);
        self
    }
}

/// A group of related benchmarks sharing a name prefix.
pub struct BenchmarkGroup<'a> {
    _criterion: &'a mut Criterion,
    name: String,
    throughput: Option<Throughput>,
}

impl BenchmarkGroup<'_> {
    /// Sets the throughput annotation for subsequent benchmarks.
    pub fn throughput(&mut self, throughput: Throughput) -> &mut Self {
        self.throughput = Some(throughput);
        self
    }

    /// Runs one benchmark in the group.
    pub fn bench_function<F>(&mut self, id: impl Into<String>, f: F) -> &mut Self
    where
        F: FnMut(&mut Bencher),
    {
        run_benchmark(&format!("{}/{}", self.name, id.into()), self.throughput, f);
        self
    }

    /// Closes the group.
    pub fn finish(self) {}
}

/// Passed to the benchmark closure; call [`Bencher::iter`].
pub struct Bencher {
    iters: u64,
    elapsed: Duration,
}

impl Bencher {
    /// Times `iters` executions of `f`.
    pub fn iter<R, F: FnMut() -> R>(&mut self, mut f: F) {
        let start = Instant::now();
        for _ in 0..self.iters {
            std::hint::black_box(f());
        }
        self.elapsed = start.elapsed();
    }

    /// Times `iters` executions of `f` like [`Bencher::iter`], but keeps
    /// every output alive and drops them after the clock stops, so an
    /// output that is expensive to free does not count.
    pub fn iter_with_large_drop<R, F: FnMut() -> R>(&mut self, mut f: F) {
        let mut outputs = Vec::with_capacity(self.iters as usize);
        let start = Instant::now();
        for _ in 0..self.iters {
            outputs.push(f());
        }
        self.elapsed = start.elapsed();
        drop(outputs);
    }
}

impl Bencher {
    /// Times `iters` executions of `routine`, each on a fresh input from
    /// `setup`. Setting up the inputs and dropping the outputs happen
    /// outside the clock, a batch at a time.
    pub fn iter_batched<I, O, S, R>(&mut self, mut setup: S, mut routine: R, size: BatchSize)
    where
        S: FnMut() -> I,
        R: FnMut(I) -> O,
    {
        let batch = match size {
            BatchSize::SmallInput => 256,
        };
        let mut elapsed = Duration::ZERO;
        let mut left = self.iters;
        while left > 0 {
            let n = left.min(batch);
            left -= n;
            let inputs: Vec<I> = (0..n).map(|_| setup()).collect();
            let mut outputs = Vec::with_capacity(inputs.len());
            let start = Instant::now();
            for input in inputs {
                outputs.push(routine(input));
            }
            elapsed += start.elapsed();
            drop(outputs);
        }
        self.elapsed = elapsed;
    }
}

fn env_u64(name: &str, default: u64) -> u64 {
    std::env::var(name)
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

fn run_benchmark<F: FnMut(&mut Bencher)>(id: &str, throughput: Option<Throughput>, mut f: F) {
    let sample_budget = Duration::from_millis(env_u64("CRITERION_SAMPLE_MS", 100));
    let n_samples = env_u64("CRITERION_SAMPLES", 12).max(3) as usize;

    // Warmup: find an iteration count that fills the sample budget.
    let mut iters: u64 = 1;
    loop {
        let mut b = Bencher {
            iters,
            elapsed: Duration::ZERO,
        };
        f(&mut b);
        if b.elapsed >= sample_budget || iters >= 1 << 40 {
            break;
        }
        let per_iter = b.elapsed.as_nanos().max(1) as u64 / iters.max(1);
        let target = (sample_budget.as_nanos() as u64 / per_iter.max(1)).max(iters * 2);
        iters = target.min(iters.saturating_mul(16)).max(iters + 1);
    }

    let mut per_iter_ns: Vec<f64> = (0..n_samples)
        .map(|_| {
            let mut b = Bencher {
                iters,
                elapsed: Duration::ZERO,
            };
            f(&mut b);
            b.elapsed.as_nanos() as f64 / iters as f64
        })
        .collect();
    per_iter_ns.sort_by(f64::total_cmp);
    let median = per_iter_ns[per_iter_ns.len() / 2];
    let lo = per_iter_ns[0];
    let hi = per_iter_ns[per_iter_ns.len() - 1];

    print!(
        "{id:<44} time: [{} {} {}]",
        fmt_ns(lo),
        fmt_ns(median),
        fmt_ns(hi)
    );
    match throughput {
        Some(Throughput::Bytes(bytes)) => {
            let gib = bytes as f64 / median * 1e9 / (1u64 << 30) as f64;
            print!("  thrpt: {gib:.3} GiB/s");
        }
        Some(Throughput::Elements(n)) => {
            let meps = n as f64 / median * 1e9 / 1e6;
            print!("  thrpt: {meps:.3} Melem/s");
        }
        None => {}
    }
    println!();
}

fn fmt_ns(ns: f64) -> String {
    if ns < 1e3 {
        format!("{ns:.2} ns")
    } else if ns < 1e6 {
        format!("{:.2} µs", ns / 1e3)
    } else if ns < 1e9 {
        format!("{:.2} ms", ns / 1e6)
    } else {
        format!("{:.2} s", ns / 1e9)
    }
}

/// Declares a function running the listed benchmark functions in order.
#[macro_export]
macro_rules! criterion_group {
    ($name:ident, $($target:path),+ $(,)?) => {
        pub fn $name() {
            let mut criterion = $crate::Criterion::default();
            $($target(&mut criterion);)+
        }
    };
}

/// Declares `main` running the listed groups.
#[macro_export]
macro_rules! criterion_main {
    ($($group:path),+ $(,)?) => {
        fn main() {
            $($group();)+
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn measures_something() {
        std::env::set_var("CRITERION_SAMPLE_MS", "1");
        std::env::set_var("CRITERION_SAMPLES", "3");
        let mut c = Criterion::default();
        let mut g = c.benchmark_group("compat");
        g.throughput(Throughput::Elements(64));
        g.bench_function("sum", |b| b.iter(|| (0..64u64).sum::<u64>()));
        g.finish();
        c.bench_function("standalone", |b| b.iter(|| 1 + 1));
        std::env::remove_var("CRITERION_SAMPLE_MS");
        std::env::remove_var("CRITERION_SAMPLES");
    }
}
