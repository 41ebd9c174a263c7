//! The ingest load generator: one STOMP connection publishing each case's
//! three events as the policy's `data_producer`, on the same thread that
//! polls the DMZ for the cases' completed records.

use std::collections::HashMap;
use std::time::{Duration, Instant};

use safeweb_broker::EventClient;
use safeweb_docstore::DocStore;
use safeweb_events::LabelledEvent;

use crate::layers::Sampler;
use crate::spans::SpanLog;

/// How often the stores' change feeds are polled.
pub const POLL: Duration = Duration::from_millis(1);

/// The principal the generator publishes as: the policy's privileged
/// data producer, as the paper's units log in to the broker.
pub const LOGIN: &str = "data_producer";

/// How events are paced.
#[derive(Clone, Copy, Debug)]
pub enum IngestPace {
    /// Event `i` (case `i / 3`) is due at `start + i × interval`.
    Open {
        /// Schedule origin.
        start: Instant,
        /// Gap between events.
        interval: Duration,
    },
    /// Every event as fast as the connection takes it.
    Burst,
}

/// What one ingest load produced.
#[derive(Debug, Default)]
pub struct IngestOutcome {
    /// Per completed case: from the (scheduled) send of its last event
    /// until the DMZ held its complete record, ns.
    pub fresh_ns: Vec<u64>,
    /// How late each send ran against its schedule (open loop), ns.
    pub lag_ns: Vec<u64>,
    /// Connections opened after the first.
    pub reconnects: usize,
    /// Span-clock time of the first send.
    pub first_send_ns: u64,
    /// Span-clock time the last case was seen complete in the DMZ.
    pub last_done_ns: u64,
}

/// One case in flight.
#[derive(Clone, Copy, Debug, Default)]
struct Flight {
    due_ns: u64,
    publish: (u64, u64),
    app_ns: Option<u64>,
}

/// Publishes `events` (three per case, keyed by the cases' `doc_ids`) to
/// the broker at `addr` and watches `dmz` until every case is complete at
/// generation 3 or `drain` has passed since the last send. With spans on,
/// `app` is watched too, so each case splits into publish, pipeline
/// (broker → scheduler → engine → storage unit) and replication.
#[allow(clippy::too_many_arguments)]
pub fn drive(
    addr: &str,
    doc_ids: &[String],
    events: &[[LabelledEvent; 3]],
    pace: IngestPace,
    dmz: &DocStore,
    app: &DocStore,
    drain: Duration,
    spans: &mut SpanLog,
    mut sampler: Option<&mut Sampler>,
) -> IngestOutcome {
    let mut out = IngestOutcome::default();
    let mut client = connect(addr);
    let total = events.len() * 3;
    let mut flights = vec![Flight::default(); events.len()];
    let mut pending: HashMap<&str, usize> = doc_ids
        .iter()
        .enumerate()
        .map(|(i, id)| (id.as_str(), i))
        .collect();
    let mut app_pending = if spans.enabled() {
        pending.clone()
    } else {
        HashMap::new()
    };
    let (mut dmz_seq, mut app_seq) = (dmz.seq(), app.seq());
    let mut next = 0usize;
    let mut last_poll = Instant::now();
    let mut drain_until: Option<Instant> = None;
    loop {
        let now = Instant::now();
        if let Some(s) = sampler.as_deref_mut() {
            s.tick(now);
        }
        // Publish what is due (a bounded batch in a burst, so polling
        // keeps up).
        let mut batch = 0;
        while next < total && batch < 64 {
            let due = match pace {
                IngestPace::Open { start, interval } => {
                    let due = start + interval * next as u32;
                    if due > now {
                        break;
                    }
                    out.lag_ns
                        .push(now.saturating_duration_since(due).as_nanos() as u64);
                    due
                }
                IngestPace::Burst => Instant::now(),
            };
            let (case, part) = (next / 3, next % 3);
            if next == 0 {
                out.first_send_ns = spans.clock(due);
            }
            next += 1;
            batch += 1;
            let start_ns = spans.clock(Instant::now());
            let sent = match client.as_mut() {
                Some(c) => c.publish(&events[case][part]).map_err(|e| e.to_string()),
                None => Err("not connected".to_string()),
            };
            let end_ns = spans.clock(Instant::now());
            if let Err(e) = sent {
                // The cases this hits fail the DMZ check at the end.
                eprintln!("publish failed, reconnecting: {e}");
                out.reconnects += 1;
                client = connect(addr);
                continue;
            }
            if part == 2 {
                flights[case].due_ns = spans.clock(due);
                flights[case].publish = (start_ns, end_ns);
            } else {
                spans.record("stomp.publish", start_ns, end_ns, None);
            }
        }

        let now = Instant::now();
        if now.duration_since(last_poll) >= POLL || next == total {
            last_poll = now;
            // The application store first: a case seen in both in one
            // round was in the application store first.
            if !app_pending.is_empty() {
                let seen_ns = spans.clock(now);
                for change in app.changes_since(app_seq) {
                    app_seq = app_seq.max(change.seq);
                    if change.rev.as_ref().is_some_and(|r| r.generation() >= 3) {
                        if let Some(i) = app_pending.remove(change.id.as_str()) {
                            flights[i].app_ns = Some(seen_ns);
                        }
                    }
                }
            }
            let start_ns = spans.clock(Instant::now());
            let changes = dmz.changes_since(dmz_seq);
            let done_ns = spans.clock(Instant::now());
            spans.record("docstore.dmz.poll", start_ns, done_ns, None);
            for change in changes {
                dmz_seq = dmz_seq.max(change.seq);
                if change.rev.as_ref().is_some_and(|r| r.generation() >= 3) {
                    if let Some(i) = pending.remove(change.id.as_str()) {
                        complete(&mut out, spans, &flights[i], done_ns);
                    }
                }
            }
        }

        if next == total {
            if pending.is_empty() {
                break;
            }
            let until = *drain_until.get_or_insert(now + drain);
            if now >= until {
                break;
            }
        }
        let mut wake = last_poll + POLL;
        if let IngestPace::Open { start, interval } = pace {
            if next < total {
                wake = wake.min(start + interval * next as u32);
            }
        } else if next < total {
            continue;
        }
        if let Some(s) = sampler.as_deref() {
            wake = wake.min(s.next_due());
        }
        std::thread::sleep(wake.saturating_duration_since(Instant::now()));
    }
    if let Some(c) = client {
        let _ = c.disconnect();
    }
    out
}

fn connect(addr: &str) -> Option<EventClient> {
    match EventClient::connect(addr, LOGIN) {
        Ok(c) => Some(c),
        Err(e) => {
            eprintln!("broker connect failed: {e}");
            None
        }
    }
}

/// Books a case seen complete in the DMZ at `done_ns`, with its span
/// tree: the case from its last event's due time, the publish call, the
/// pipeline up to the application store, and replication to the DMZ.
fn complete(out: &mut IngestOutcome, spans: &mut SpanLog, flight: &Flight, done_ns: u64) {
    out.fresh_ns.push(done_ns.saturating_sub(flight.due_ns));
    out.last_done_ns = out.last_done_ns.max(done_ns);
    let Some(root) = spans.record("ingest.case", flight.due_ns, done_ns, None) else {
        return;
    };
    let (publish_start, publish_end) = flight.publish;
    spans.record("stomp.publish", publish_start, publish_end, Some(root));
    let app_ns = flight.app_ns.unwrap_or(done_ns).min(done_ns);
    spans.record("pipeline.to_app_store", publish_end, app_ns, Some(root));
    spans.record("replication.to_dmz", app_ns, done_ns, Some(root));
}
