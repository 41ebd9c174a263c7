//! Per-layer readings taken from outside the program: deltas of the
//! deployment's metrics registry over a load window, and gauges sampled
//! while the load runs.

use std::time::{Duration, Instant};

use safeweb_json::Value;
use safeweb_obs::{HistogramSnapshot, MetricsRegistry};

/// Gauges whose peak (and mean) over a window the sampler records.
pub const SAMPLED: [&str; 3] = [
    "frontend.outbox_bytes",
    "sched.queued_messages",
    "replication.lag_seqs",
];

/// The application store's WAL length: it shrinks when a snapshot
/// truncates the log, so bytes appended are summed from its growth
/// between samples (a lower bound).
const WAL_BYTES: &str = "docstore.app.wal_bytes";

/// Samples [`SAMPLED`] every [`Sampler::EVERY`] on a generator thread's
/// idle time.
#[derive(Debug)]
pub struct Sampler {
    registry: MetricsRegistry,
    next: Instant,
    max: [f64; 3],
    sum: [f64; 3],
    samples: usize,
    wal_last: Option<f64>,
    wal_growth: f64,
}

impl Sampler {
    /// Sampling period.
    pub const EVERY: Duration = Duration::from_millis(20);

    /// A sampler over `registry`.
    pub fn new(registry: &MetricsRegistry) -> Sampler {
        Sampler {
            registry: registry.clone(),
            next: Instant::now(),
            max: [0.0; 3],
            sum: [0.0; 3],
            samples: 0,
            wal_last: None,
            wal_growth: 0.0,
        }
    }

    /// Takes a sample if one is due.
    pub fn tick(&mut self, now: Instant) {
        if now >= self.next {
            self.next = now + Self::EVERY;
            self.sample();
        }
    }

    /// Takes a sample now.
    pub fn sample(&mut self) {
        let snap = self.registry.snapshot();
        let wal = number(&snap, WAL_BYTES);
        if let Some(last) = self.wal_last {
            self.wal_growth += (wal - last).max(0.0);
        }
        self.wal_last = Some(wal);
        for (i, name) in SAMPLED.iter().enumerate() {
            let v = number(&snap, name);
            self.max[i] = self.max[i].max(v);
            self.sum[i] += v;
        }
        self.samples += 1;
    }

    /// When the next sample is due.
    pub fn next_due(&self) -> Instant {
        self.next
    }

    /// Peak of a sampled gauge.
    pub fn max(&self, name: &str) -> f64 {
        SAMPLED
            .iter()
            .position(|n| *n == name)
            .map_or(0.0, |i| self.max[i])
    }

    /// Bytes appended to the application store's WAL while sampling.
    pub fn wal_growth(&self) -> f64 {
        self.wal_growth
    }

    /// Mean of a sampled gauge.
    pub fn mean(&self, name: &str) -> f64 {
        match SAMPLED.iter().position(|n| *n == name) {
            Some(i) if self.samples > 0 => self.sum[i] / self.samples as f64,
            _ => 0.0,
        }
    }
}

/// Histograms read bucket by bucket, so that window deltas are exact.
pub const HISTOGRAMS: [&str; 2] = ["sched.activation_ns", "docstore.app.put_ns"];

/// The registry at one instant.
#[derive(Debug)]
pub struct Snapshot {
    values: Value,
    histograms: Vec<HistogramSnapshot>,
}

impl Snapshot {
    /// Reads `registry`.
    pub fn take(registry: &MetricsRegistry) -> Snapshot {
        Snapshot {
            values: registry.snapshot(),
            histograms: HISTOGRAMS
                .iter()
                .map(|n| registry.histogram(n).snapshot())
                .collect(),
        }
    }

    /// A counter or gauge (0 when absent).
    pub fn num(&self, name: &str) -> f64 {
        number(&self.values, name)
    }

    /// `after − self` for a counter.
    pub fn delta(&self, after: &Snapshot, name: &str) -> f64 {
        after.num(name) - self.num(name)
    }

    /// The observations of one of [`HISTOGRAMS`] made between `self` and
    /// `after`.
    pub fn histogram_delta(&self, after: &Snapshot, name: &str) -> HistogramSnapshot {
        let i = HISTOGRAMS
            .iter()
            .position(|n| *n == name)
            .expect("a histogram the snapshot reads");
        let (a, b) = (&self.histograms[i], &after.histograms[i]);
        HistogramSnapshot {
            bounds: b.bounds.clone(),
            counts: b
                .counts
                .iter()
                .zip(&a.counts)
                .map(|(x, y)| x.saturating_sub(*y))
                .collect(),
            sum: b.sum.saturating_sub(a.sum),
        }
    }
}

fn number(snap: &Value, name: &str) -> f64 {
    snap.get(name).and_then(Value::as_f64).unwrap_or(0.0)
}
