//! Spans the benchmark records around its own calls into the program:
//! client requests, STOMP publishes, DMZ polls and the in-process replay.
//! They are kept in memory and written out when the run ends.

use std::collections::BTreeMap;
use std::io::{self, Write};
use std::path::Path;
use std::time::Instant;

/// One timed call.
#[derive(Clone, Debug)]
pub struct Span {
    /// Shared by every span of one request or case.
    pub id: u64,
    /// Index of the parent span in the same log.
    pub parent: Option<usize>,
    /// What was timed, as `<layer>.<call>`.
    pub name: &'static str,
    /// Start on the span clock (`safeweb_obs::now_ns`, the clock the
    /// program's own spans use), ns.
    pub start_ns: u64,
    /// End on the span clock, ns.
    pub end_ns: u64,
}

/// An append-only span log for one thread.
#[derive(Debug)]
pub struct SpanLog {
    enabled: bool,
    base: Instant,
    base_ns: u64,
    next_id: u64,
    spans: Vec<Span>,
}

impl SpanLog {
    /// A log that records only when `enabled`; `tag` keeps ids of
    /// different logs apart.
    pub fn new(enabled: bool, tag: u64) -> SpanLog {
        SpanLog {
            enabled,
            base: Instant::now(),
            base_ns: safeweb_obs::now_ns(),
            next_id: tag << 40,
            spans: Vec::new(),
        }
    }

    /// Whether spans are being recorded.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// `t` on the span clock.
    pub fn clock(&self, t: Instant) -> u64 {
        match t.checked_duration_since(self.base) {
            Some(d) => self.base_ns + d.as_nanos() as u64,
            None => self
                .base_ns
                .saturating_sub((self.base - t).as_nanos() as u64),
        }
    }

    /// Records a span; a child shares its parent's id. Returns the span's
    /// index, or `None` when the log is off.
    pub fn record(
        &mut self,
        name: &'static str,
        start_ns: u64,
        end_ns: u64,
        parent: Option<usize>,
    ) -> Option<usize> {
        if !self.enabled {
            return None;
        }
        let id = match parent {
            Some(p) => self.spans[p].id,
            None => {
                self.next_id += 1;
                self.next_id
            }
        };
        self.spans.push(Span {
            id,
            parent,
            name,
            start_ns,
            end_ns: end_ns.max(start_ns),
        });
        Some(self.spans.len() - 1)
    }

    /// Moves another log's spans into this one.
    pub fn append(&mut self, other: SpanLog) {
        let offset = self.spans.len();
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + offset);
            s
        }));
    }

    /// The recorded spans.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Self time of every span, by name: its duration minus the part of
    /// its interval that its children cover.
    pub fn self_times(&self) -> BTreeMap<&'static str, Vec<u64>> {
        let mut children: Vec<Vec<usize>> = vec![Vec::new(); self.spans.len()];
        for (i, s) in self.spans.iter().enumerate() {
            if let Some(p) = s.parent {
                children[p].push(i);
            }
        }
        let mut out: BTreeMap<&'static str, Vec<u64>> = BTreeMap::new();
        for (i, s) in self.spans.iter().enumerate() {
            let mut covered: Vec<(u64, u64)> = children[i]
                .iter()
                .map(|&c| {
                    let c = &self.spans[c];
                    (c.start_ns.max(s.start_ns), c.end_ns.min(s.end_ns))
                })
                .filter(|(a, b)| a < b)
                .collect();
            covered.sort_unstable();
            let (mut union, mut reach) = (0, s.start_ns);
            for (a, b) in covered {
                let a = a.max(reach);
                if b > a {
                    union += b - a;
                    reach = b;
                }
            }
            out.entry(s.name)
                .or_default()
                .push(s.end_ns - s.start_ns - union);
        }
        out
    }

    /// Writes the spans as JSON lines to `path`.
    ///
    /// # Errors
    ///
    /// Propagates file errors.
    pub fn write_jsonl(&self, path: &Path) -> io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = io::BufWriter::new(std::fs::File::create(path)?);
        for s in &self.spans {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\":{},\"parent\":{parent},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
                s.id, s.name, s.start_ns, s.end_ns
            )?;
        }
        out.flush()
    }
}
