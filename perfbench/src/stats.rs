//! Statistics the report is built from: percentiles, the tail percentile
//! rule, failure shares, peak memory and clamped residuals.

/// Tail percentiles tried from the highest down; the first one with at
/// least [`MIN_BEYOND_TAIL`] samples beyond it is reported.
const TAIL_CANDIDATES: [f64; 5] = [99.9, 99.0, 95.0, 90.0, 50.0];

/// Samples that must lie beyond a reported tail percentile.
pub const MIN_BEYOND_TAIL: usize = 10;

/// Nearest-rank percentile of an ascending slice (`p` in `[0, 100]`).
///
/// # Panics
///
/// Panics on an empty slice: every caller measures at least one op.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of an empty sample");
    sorted[rank(p, sorted.len()).clamp(1, sorted.len()) - 1]
}

/// 1-based nearest rank of percentile `p` in a sample of `n`. The epsilon
/// keeps `p = 99.9, n = 10 000` at rank 9990 despite `99.9` having no exact
/// binary form.
fn rank(p: f64, n: usize) -> usize {
    (p / 100.0 * n as f64 - 1e-9).ceil().max(0.0) as usize
}

/// Median of an unsorted sample.
pub fn median(values: &[f64]) -> f64 {
    percentile(&sorted(values), 50.0)
}

/// An ascending copy of `values` (NaN-free by construction: every value is
/// a measured duration or a count).
pub fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// The tail a sample of `n` supports: the highest candidate percentile with
/// at least [`MIN_BEYOND_TAIL`] samples strictly beyond its rank. `None`
/// when even the median leaves fewer than that.
pub fn tail_percentile(n: usize) -> Option<f64> {
    TAIL_CANDIDATES
        .into_iter()
        .find(|&p| n.saturating_sub(rank(p, n)) >= MIN_BEYOND_TAIL)
}

/// Median and tail of a latency sample.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Latency {
    /// Median, same unit as the sample.
    pub p50: f64,
    /// Value at [`Self::tail_p`].
    pub tail: f64,
    /// The percentile the tail was read at.
    pub tail_p: f64,
    /// Samples the summary was taken over.
    pub samples: usize,
}

impl Latency {
    /// Summarises a sample; `None` when it is too small to carry a tail.
    pub fn of(values: &[f64]) -> Option<Self> {
        let tail_p = tail_percentile(values.len())?;
        let s = sorted(values);
        Some(Self {
            p50: percentile(&s, 50.0),
            tail: percentile(&s, tail_p),
            tail_p,
            samples: s.len(),
        })
    }

    /// Samples strictly beyond the tail percentile.
    pub fn beyond_tail(&self) -> usize {
        self.samples - rank(self.tail_p, self.samples)
    }
}

/// Share of attempted ops that failed, in `[0, 1]` (`0` when nothing was
/// attempted).
pub fn failure_share(failed: u64, attempted: u64) -> f64 {
    if attempted == 0 {
        0.0
    } else {
        failed.min(attempted) as f64 / attempted as f64
    }
}

/// Peak resident set size in MiB from a `/proc/<pid>/status` document
/// (its `VmHWM` line, in kB).
pub fn parse_peak_rss_mb(status: &str) -> Option<f64> {
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let mut fields = line["VmHWM:".len()..].split_whitespace();
    let kb: f64 = fields.next()?.parse().ok()?;
    (fields.next()? == "kB").then_some(kb / 1024.0)
}

/// This process's peak resident set size in MiB.
pub fn peak_rss_mb() -> Option<f64> {
    parse_peak_rss_mb(&std::fs::read_to_string("/proc/self/status").ok()?)
}

/// What is left of `total` after the measured `parts`, clamped at zero: a
/// derived wait can never be negative, even when the parts were timed on a
/// different clock than the total and overlap it slightly.
pub fn residual(total: f64, parts: &[f64]) -> f64 {
    (total - parts.iter().sum::<f64>()).max(0.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_is_p95_at_300_samples() {
        assert_eq!(tail_percentile(300), Some(95.0));
        let values: Vec<f64> = (1..=300).map(f64::from).collect();
        let l = Latency::of(&values).unwrap();
        assert_eq!(l.tail_p, 95.0);
        assert_eq!(l.tail, 285.0);
        assert_eq!(l.p50, 150.0);
        assert_eq!(l.samples, 300);
        assert_eq!(l.beyond_tail(), 15);
    }

    #[test]
    fn tail_is_p99_from_1000_samples() {
        assert_eq!(tail_percentile(999), Some(95.0));
        assert_eq!(tail_percentile(1000), Some(99.0));
        assert_eq!(tail_percentile(9999), Some(99.0));
        assert_eq!(tail_percentile(10_000), Some(99.9));
        let values: Vec<f64> = (1..=1000).map(f64::from).collect();
        let l = Latency::of(&values).unwrap();
        assert_eq!(l.tail, 990.0);
        assert_eq!(values.iter().filter(|&&v| v > l.tail).count(), 10);
    }

    #[test]
    fn small_samples_fall_back_then_refuse() {
        assert_eq!(tail_percentile(100), Some(90.0));
        assert_eq!(tail_percentile(99), Some(50.0));
        assert_eq!(tail_percentile(20), Some(50.0));
        assert_eq!(tail_percentile(19), None);
        assert!(Latency::of(&[1.0; 5]).is_none());
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let s = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(percentile(&s, 0.0), 1.0);
        assert_eq!(percentile(&s, 50.0), 2.0);
        assert_eq!(percentile(&s, 51.0), 3.0);
        assert_eq!(percentile(&s, 100.0), 4.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
    }

    #[test]
    fn failure_share_counts_against_attempted() {
        assert_eq!(failure_share(0, 0), 0.0);
        assert_eq!(failure_share(0, 450), 0.0);
        assert_eq!(failure_share(9, 450), 0.02);
        assert_eq!(failure_share(450, 450), 1.0);
        // A check failing on an op that also errored counts once.
        assert_eq!(failure_share(500, 450), 1.0);
    }

    #[test]
    fn peak_rss_parses_vmhwm() {
        let status =
            "Name:\tperfbench\nVmPeak:\t  999 kB\nVmHWM:\t   51200 kB\nVmRSS:\t 40960 kB\n";
        assert_eq!(parse_peak_rss_mb(status), Some(50.0));
        assert_eq!(parse_peak_rss_mb("VmRSS:\t 1 kB\n"), None);
        assert_eq!(parse_peak_rss_mb("VmHWM:\t lots kB\n"), None);
        assert_eq!(parse_peak_rss_mb("VmHWM:\t 12 MB\n"), None);
        assert!(peak_rss_mb().is_some_and(|mb| mb > 0.0));
    }

    #[test]
    fn residuals_clamp_at_zero() {
        // cloud.wait_ms: op latency minus predict, windows, solve, codec.
        assert!((residual(40.0, &[3.0, 0.5, 30.0, 0.25]) - 6.25).abs() < 1e-12);
        assert_eq!(residual(10.0, &[6.0, 5.0]), 0.0);
        // cloud.coalesce_wait_ms: wave wall time minus the largest solve.
        assert_eq!(residual(41.0, &[41.5]), 0.0);
        assert_eq!(residual(45.0, &[5.0]), 40.0);
        assert_eq!(residual(1.0, &[]), 1.0);
    }
}
