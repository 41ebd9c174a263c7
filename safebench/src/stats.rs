//! Percentiles under the benchmark's reporting rule: a percentile is
//! reported only where at least [`TAIL_SAMPLES`] samples lie beyond it,
//! and every report carries its sample count.

/// Samples that must lie beyond a reported percentile.
pub const TAIL_SAMPLES: usize = 10;

/// One reported percentile.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Percentile {
    /// The sample at the percentile's rank.
    pub value: f64,
    /// The percentile actually reported (lower than asked for when too
    /// few samples lie beyond the one asked for).
    pub q: f64,
    /// Samples behind the figure.
    pub n: usize,
}

/// Nearest-rank percentile `q` of `samples`, capped at the highest
/// percentile with [`TAIL_SAMPLES`] samples beyond it; `None` when there
/// are not more than [`TAIL_SAMPLES`] samples at all.
pub fn percentile(samples: &[f64], q: f64) -> Option<Percentile> {
    let n = samples.len();
    if n <= TAIL_SAMPLES {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = ((q * n as f64).ceil() as usize).clamp(1, n - TAIL_SAMPLES);
    Some(Percentile {
        value: sorted[rank - 1],
        q: rank as f64 / n as f64,
        n,
    })
}

/// The median of `values` (mean of the middle two for an even count);
/// `None` when empty.
pub fn median(values: &[f64]) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    Some(if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    })
}

/// Nanoseconds as milliseconds.
pub fn ms(ns: u64) -> f64 {
    ns as f64 / 1e6
}
