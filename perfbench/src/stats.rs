//! Order statistics for latency samples.

/// Percentiles a tail may be reported at, lowest first. Nothing above p99:
/// on a VM whose vCPUs the host preempts, the p99.9 of microsecond ops
/// measures the preemptions rather than the program.
const TAIL_CANDIDATES: [f64; 3] = [50.0, 90.0, 99.0];

/// The minimum number of samples that must lie beyond a reported tail.
pub const TAIL_MIN_BEYOND: usize = 10;

/// A percentile picked from a sample set, with the sample count it rests on.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    /// The percentile (e.g. 99.0).
    pub pct: f64,
    /// The sample at that percentile.
    pub value: f64,
    /// Samples in the set.
    pub n: usize,
}

/// Nearest-rank percentile of `sorted` (ascending, non-empty): the sample at
/// 1-based rank `ceil(pct/100 * n)`.
pub fn percentile_sorted(sorted: &[f64], pct: f64) -> f64 {
    debug_assert!(!sorted.is_empty());
    sorted[rank(sorted.len(), pct) - 1]
}

/// 1-based nearest rank of `pct` among `n` samples, clamped to `1..=n`.
/// Integer arithmetic in tenths of a percent, so p99.9 of 10000 samples is
/// exactly rank 9990.
fn rank(n: usize, pct: f64) -> usize {
    let tenths = (pct * 10.0).round() as u128;
    (tenths * n as u128).div_ceil(1000).clamp(1, n as u128) as usize
}

/// Median of `samples` (the mean of the two middle samples for an even
/// count). `None` for an empty set.
pub fn median(samples: &[f64]) -> Option<f64> {
    let sorted = sorted(samples);
    let n = sorted.len();
    match n {
        0 => None,
        _ if n % 2 == 1 => Some(sorted[n / 2]),
        _ => Some((sorted[n / 2 - 1] + sorted[n / 2]) / 2.0),
    }
}

/// The highest candidate percentile with at least [`TAIL_MIN_BEYOND`]
/// samples beyond it. `None` when even the median has fewer than that many
/// beyond (fewer than 20 samples).
pub fn tail(samples: &[f64]) -> Option<Tail> {
    let sorted = sorted(samples);
    let n = sorted.len();
    TAIL_CANDIDATES
        .iter()
        .rev()
        .find(|&&pct| n > 0 && n - rank(n, pct) >= TAIL_MIN_BEYOND)
        .map(|&pct| Tail {
            pct,
            value: percentile_sorted(&sorted, pct),
            n,
        })
}

/// The `pct` percentile of `samples` if at least [`TAIL_MIN_BEYOND`]
/// samples lie beyond it.
pub fn supported_percentile(samples: &[f64], pct: f64) -> Option<f64> {
    let sorted = sorted(samples);
    let n = sorted.len();
    (n > 0 && n - rank(n, pct) >= TAIL_MIN_BEYOND).then(|| percentile_sorted(&sorted, pct))
}

fn sorted(samples: &[f64]) -> Vec<f64> {
    let mut sorted = samples.to_vec();
    sorted.sort_unstable_by(f64::total_cmp);
    sorted
}

/// A bounded, evenly spaced sample of a long stream of latencies: every
/// `stride`-th value is kept, and when `cap` values are held every other one
/// is dropped and the stride doubles. Memory stays fixed however fast the
/// program runs, so the benchmark's own buffers never move `peak_rss_mib`.
#[derive(Debug, Clone)]
pub struct Sampler {
    kept: Vec<f64>,
    cap: usize,
    stride: u64,
    seen: u64,
}

impl Sampler {
    /// A sampler holding at most `cap` values (`cap >= 2`). Its buffer is
    /// touched up front, so its resident size is the same in every run.
    pub fn new(cap: usize) -> Self {
        assert!(cap >= 2, "sampler capacity");
        let mut kept = vec![0.0; cap];
        kept.clear();
        Sampler {
            kept,
            cap,
            stride: 1,
            seen: 0,
        }
    }

    /// Offers one value.
    pub fn push(&mut self, value: f64) {
        self.seen += 1;
        if !self.seen.is_multiple_of(self.stride) {
            return;
        }
        self.kept.push(value);
        if self.kept.len() == self.cap {
            let mut i = 0;
            self.kept.retain(|_| {
                i += 1;
                i % 2 == 0
            });
            self.stride *= 2;
        }
    }

    /// The kept values.
    pub fn values(&self) -> &[f64] {
        &self.kept
    }

    /// Values offered so far.
    pub fn seen(&self) -> u64 {
        self.seen
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        // Shuffled order: the helpers must sort.
        (0..n).rev().map(|i| (i + 1) as f64).collect()
    }

    #[test]
    fn sampler_keeps_an_evenly_spaced_bounded_sample() {
        let mut s = Sampler::new(8);
        for v in 1..=7 {
            s.push(v as f64);
        }
        assert_eq!(s.values(), &[1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0]);
        // The eighth value fills it: keep every second, stride 2.
        s.push(8.0);
        assert_eq!(s.values(), &[2.0, 4.0, 6.0, 8.0]);
        for v in 9..=1000 {
            s.push(v as f64);
        }
        assert_eq!(s.seen(), 1000);
        assert!(s.values().len() < 8);
        // Every kept value is a multiple of the final stride.
        let stride = s.values()[1] - s.values()[0];
        assert!(
            s.values().iter().all(|v| v % stride == 0.0),
            "{:?}",
            s.values()
        );
    }

    #[test]
    fn median_of_odd_and_even_sets() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn tail_picks_the_highest_percentile_with_ten_beyond() {
        // 100 samples: p90 is rank 90 with exactly 10 beyond; p99 has 1.
        let t = tail(&ramp(100)).unwrap();
        assert_eq!((t.pct, t.value, t.n), (90.0, 90.0, 100));
        // 1000 samples: p99 is rank 990 with 10 beyond; p99.9 has 1.
        let t = tail(&ramp(1000)).unwrap();
        assert_eq!((t.pct, t.value, t.n), (99.0, 990.0, 1000));
        // More samples never go past p99.
        let t = tail(&ramp(100_000)).unwrap();
        assert_eq!((t.pct, t.value, t.n), (99.0, 99_000.0, 100_000));
    }

    #[test]
    fn tail_steps_down_just_below_each_threshold() {
        // 99 samples: p90 is rank 90 with 9 beyond, so the median it is.
        let t = tail(&ramp(99)).unwrap();
        assert_eq!((t.pct, t.n), (50.0, 99));
        // 999 samples: p99 leaves 9 beyond; p90 leaves 99.
        assert_eq!(tail(&ramp(999)).unwrap().pct, 90.0);
    }

    #[test]
    fn tail_needs_enough_samples_for_the_median() {
        assert_eq!(tail(&ramp(19)), None);
        assert_eq!(tail(&ramp(20)).unwrap().pct, 50.0);
        assert_eq!(tail(&[]), None);
    }

    #[test]
    fn ranks_are_exact_at_the_boundaries() {
        // p99.9 of 10000 samples is rank 9990, not 9991 from rounding.
        assert_eq!(rank(10_000, 99.9), 9990);
        assert_eq!(rank(100, 90.0), 90);
        assert_eq!(rank(3, 50.0), 2);
        assert_eq!(rank(1, 99.0), 1);
    }

    #[test]
    fn supported_percentile_respects_the_ten_beyond_rule() {
        assert_eq!(supported_percentile(&ramp(100), 90.0), Some(90.0));
        assert_eq!(supported_percentile(&ramp(100), 99.0), None);
        assert_eq!(supported_percentile(&ramp(1000), 99.0), Some(990.0));
    }
}
