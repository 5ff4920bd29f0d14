//! Small numeric helpers: percentiles, quartiles, the inputs digest and
//! the peak resident set above a baseline.

/// The `q`-quantile (0 ≤ q ≤ 1) of `values` by the nearest-rank rule,
/// or 0 for an empty slice. Sorts a copy.
pub fn percentile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// The median by the nearest-rank rule.
pub fn median(values: &[f64]) -> f64 {
    percentile(values, 0.5)
}

/// One completed operation of a measured phase.
#[derive(Clone, Copy, Debug)]
pub struct Sample {
    /// Seconds from the phase start (see the phase runner for which instant).
    pub at_s: f64,
    pub pages: u64,
    pub latency_ms: f64,
}

/// Completed pages per second over a closed-loop slice: the pages
/// completed after its first completion over the time from that
/// completion to its last, so the rate is not quantized by how many
/// operations fit in the slice. `None` below two completions apart in
/// time. Samples must be in time order.
pub fn rate(samples: &[Sample]) -> Option<f64> {
    let [first, .., last] = samples else {
        return None;
    };
    let pages: u64 = samples[1..].iter().map(|s| s.pages).sum();
    (last.at_s > first.at_s).then(|| pages as f64 / (last.at_s - first.at_s))
}

/// Samples a latency quantile is taken over, at the least.
const MIN_GROUP: usize = 200;

/// The `q`-quantile of latencies gathered in rounds spread over a run:
/// consecutive rounds are pooled into as many groups as keep at least
/// [`MIN_GROUP`] samples each (one round per group at most), and the
/// result is the median of the groups' quantiles. A slow spell of the
/// host then moves one group, not the result.
pub fn grouped_percentile(rounds: &[Vec<f64>], q: f64) -> f64 {
    let total: usize = rounds.iter().map(Vec::len).sum();
    let groups = (total / MIN_GROUP).clamp(1, rounds.len().max(1));
    let mut pooled = vec![Vec::new(); groups];
    for (i, round) in rounds.iter().enumerate() {
        pooled[i * groups / rounds.len()].extend_from_slice(round);
    }
    let per_group: Vec<f64> = pooled
        .iter()
        .filter(|group| !group.is_empty())
        .map(|group| percentile(group, q))
        .collect();
    median(&per_group)
}

/// The arithmetic mean, or 0 for an empty slice.
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    values.iter().sum::<f64>() / values.len() as f64
}

/// First quartile, median and third quartile, computed like Python's
/// `statistics.quantiles(values, n=4)` (the "exclusive" method), so the
/// spreads this tool reports match the ones checked from outside.
/// Needs at least two values.
pub fn quartiles(values: &[f64]) -> (f64, f64, f64) {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let len = sorted.len() as i64;
    let m = len + 1;
    let at = |i: i64| {
        // CPython's arithmetic verbatim, including its clamp of j to
        // 1..len-1 (which extrapolates for very short samples).
        let j = (i * m / 4).clamp(1, len - 1);
        let delta = (i * m - j * 4) as f64;
        let (lo, hi) = (sorted[j as usize - 1], sorted[j as usize]);
        (lo * (4.0 - delta) + hi * delta) / 4.0
    };
    (at(1), at(2), at(3))
}

/// FNV-1a over a stream of byte strings, each length-prefixed so that
/// `["ab", "c"]` and `["a", "bc"]` digest differently.
#[derive(Clone, Copy, Debug)]
pub struct Digest(u64);

impl Default for Digest {
    fn default() -> Digest {
        Digest(0xcbf2_9ce4_8422_2325)
    }
}

impl Digest {
    pub fn add(&mut self, bytes: &[u8]) {
        for &b in (bytes.len() as u64).to_le_bytes().iter().chain(bytes) {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }

    pub fn hex(&self) -> String {
        format!("{:016x}", self.0)
    }
}

/// The calibration job's time on the host the benchmark was written on
/// (a shared 2-core VM) when that host ran at its usual speed, in seconds.
const CALIBRATION_REFERENCE_S: f64 = 0.012;

/// Runs the calibration job and returns its time in seconds: a fixed,
/// single-threaded job of the benchmark's own code (formatting, sorting,
/// a B-tree and substring search over 2 000 strings, 20 times; about
/// 12 ms), which no change to the system under test can speed up or slow
/// down. Its working set fits in a core's L2 cache: of the jobs tried, it
/// followed the host's drift most closely.
fn calibration_s() -> f64 {
    let started = std::time::Instant::now();
    for pass in 0..20u64 {
        let mut words: Vec<String> = (0..2_000u64)
            .map(|i| {
                format!(
                    "{:016x}",
                    (i + pass * 7919).wrapping_mul(0x9e37_79b9_7f4a_7c15)
                )
            })
            .collect();
        words.sort();
        let mut prefixes = std::collections::BTreeMap::new();
        for w in &words {
            *prefixes.entry(&w[..3]).or_insert(0u32) += 1;
        }
        let hits = words.iter().filter(|w| w.contains("ab")).count();
        std::hint::black_box((prefixes.len(), hits));
    }
    started.elapsed().as_secs_f64()
}

/// How much slower than the reference speed the host ran in one round:
/// the calibration job's time then over [`CALIBRATION_REFERENCE_S`]
/// (2.0: half speed). The host's speed drifts by up to 2× for minutes at a
/// time, and everything a round measures drifts with it; a time or a rate
/// measured in the round, divided or multiplied by the round's slowdown,
/// reads as it would have at the reference speed. A change to the system
/// moves the measurement and not the job, so it shows in full.
#[derive(Clone, Copy, Debug)]
pub struct Slowdown(pub f64);

impl Slowdown {
    /// Runs the calibration job; call it next to what it will scale.
    pub fn measure() -> Slowdown {
        Slowdown(calibration_s() / CALIBRATION_REFERENCE_S)
    }

    /// A time measured in the round, at the reference speed.
    pub fn time(self, t: f64) -> f64 {
        t / self.0
    }

    /// A rate measured in the round, at the reference speed.
    pub fn rate(self, r: f64) -> f64 {
        r * self.0
    }
}

extern "C" {
    fn malloc_trim(pad: usize) -> std::ffi::c_int;
}

/// A `kB` field of `/proc/self/status`, in MB.
fn status_mb(field: &str) -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("/proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|line| {
            let kb = line.strip_prefix(field)?.strip_prefix(':')?;
            kb.trim().strip_suffix("kB")?.trim().parse::<f64>().ok()
        })
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| format!("/proc/self/status has no {field}"))
}

/// The resident set a workload's process holds before the system under
/// test is set up: the generated inputs, the expected replies and the
/// benchmark's own code. Taking it hands the allocator's free memory back
/// to the kernel (so the system cannot reuse pages the generator freed
/// without them counting) and restarts the kernel's peak (`VmHWM`) from
/// the resident set of that moment.
pub struct MemoryBaseline {
    pub resident_mb: f64,
}

impl MemoryBaseline {
    pub fn take() -> Result<MemoryBaseline, String> {
        // SAFETY: malloc_trim only releases free heap memory; it takes no
        // pointers and leaves live allocations alone.
        unsafe { malloc_trim(0) };
        std::fs::write("/proc/self/clear_refs", "5")
            .map_err(|e| format!("resetting the peak resident set: {e}"))?;
        Ok(MemoryBaseline {
            resident_mb: status_mb("VmRSS")?,
        })
    }

    /// The peak resident set since the baseline was taken, above it, in MB.
    pub fn peak_growth_mb(&self) -> Result<f64, String> {
        Ok(status_mb("VmHWM")? - self.resident_mb)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.5), 50.0);
        assert_eq!(percentile(&v, 0.9), 90.0);
        assert_eq!(percentile(&v, 0.99), 99.0);
        assert_eq!(percentile(&v, 1.0), 100.0);
        assert_eq!(percentile(&[], 0.5), 0.0);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 5.5, 8.25));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), (1.0, 2.0, 3.0));
    }

    #[test]
    fn rates_start_at_the_first_completion() {
        let at = |at_s| Sample {
            at_s,
            pages: 10,
            latency_ms: 1.0,
        };
        // 20 pages completed in the 0.2 s after the first completion.
        let rate = rate(&[at(0.05), at(0.15), at(0.25)]).unwrap();
        assert!((rate - 100.0).abs() < 1e-9);
        assert_eq!(super::rate(&[at(0.05)]), None);
    }

    #[test]
    fn grouped_percentiles_take_the_median_group() {
        // Four rounds of 200 samples; the third is slow throughout and
        // moves one group's median, not the result.
        let rounds: Vec<Vec<f64>> = (0..4)
            .map(|r| vec![if r == 2 { 9.0 } else { 1.0 }; 200])
            .collect();
        assert_eq!(grouped_percentile(&rounds, 0.5), 1.0);
        // Too few samples per round: the rounds pool into one group.
        let sparse: Vec<Vec<f64>> = (1..=4).map(|r| vec![f64::from(r); 10]).collect();
        assert_eq!(grouped_percentile(&sparse, 0.5), 2.0);
    }

    #[test]
    fn peak_growth_counts_memory_touched_after_the_baseline() {
        let garbage = vec![1u8; 64 << 20];
        std::hint::black_box(&garbage);
        drop(garbage);
        let baseline = MemoryBaseline::take().unwrap();
        assert!(baseline.peak_growth_mb().unwrap() < 32.0, "freed before");
        let block = vec![1u8; 64 << 20];
        std::hint::black_box(&block);
        assert!(baseline.peak_growth_mb().unwrap() >= 63.0);
    }

    #[test]
    fn a_slowdown_scales_times_down_and_rates_up() {
        let half_speed = Slowdown(2.0);
        assert_eq!(half_speed.time(0.8), 0.4);
        assert_eq!(half_speed.rate(500.0), 1000.0);
        let measured = Slowdown::measure();
        assert!(measured.0 > 0.0 && measured.0.is_finite());
    }

    #[test]
    fn digest_is_length_prefixed() {
        let (mut a, mut b) = (Digest::default(), Digest::default());
        a.add(b"ab");
        a.add(b"c");
        b.add(b"a");
        b.add(b"bc");
        assert_ne!(a.hex(), b.hex());
    }
}
