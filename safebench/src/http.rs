//! The page load generator: one keep-alive, pipelined HTTP/1.1 connection
//! per thread, driven open-loop on a fixed schedule or closed-loop at a
//! fixed pipeline depth.

use std::collections::VecDeque;
use std::io::{self, ErrorKind, Read, Write};
use std::net::TcpStream;
use std::time::{Duration, Instant};

use crate::inputs::{PageRequest, Route};
use crate::layers::Sampler;
use crate::oracle::{Failure, Oracle};
use crate::spans::SpanLog;

/// Requests the server answers on one connection before it closes it
/// (`MAX_KEEPALIVE_REQUESTS` in `safeweb-http`). The generator stops
/// sending at this count and reconnects once the last answer is in, so
/// it never writes into a connection the server is closing.
pub const KEEPALIVE_BUDGET: usize = 1000;

/// A request unanswered for this long counts as failed.
pub const TIMEOUT: Duration = Duration::from_secs(5);

/// Pause between nonblocking reads while an answer is awaited. A socket
/// read timeout would be simpler, but the kernel rounds it up to its tick
/// (4 ms and more were measured for a 0.5-ms timeout), which would make
/// the generator wake late and charge that lateness to the server.
const READ_POLL: Duration = Duration::from_micros(200);

/// One parsed response.
#[derive(Debug)]
pub struct Response {
    /// Status code.
    pub status: u16,
    /// Whether the server announced it closes the connection.
    pub close: bool,
    /// The `x-safeweb-trace` id the frontend stamped on it.
    pub trace: Option<u64>,
    /// The body.
    pub body: Vec<u8>,
}

/// One client connection with its unparsed input.
struct Wire {
    stream: TcpStream,
    buf: Vec<u8>,
    sent: usize,
}

impl Wire {
    fn connect(addr: &str) -> io::Result<Wire> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.set_nonblocking(true)?;
        Ok(Wire {
            stream,
            buf: Vec::with_capacity(64 * 1024),
            sent: 0,
        })
    }

    fn send(&mut self, bytes: &[u8]) -> io::Result<()> {
        self.sent += 1;
        // Blocking for the write, so a full send buffer waits instead of
        // failing.
        self.stream.set_nonblocking(false)?;
        let sent = self.stream.write_all(bytes);
        self.stream.set_nonblocking(true)?;
        sent
    }

    /// The next response, or `None` once `deadline` passes first.
    fn next_response(&mut self, deadline: Instant) -> io::Result<Option<Response>> {
        let mut chunk = [0u8; 16 * 1024];
        loop {
            if let Some(response) = parse_response(&mut self.buf)? {
                return Ok(Some(response));
            }
            match self.stream.read(&mut chunk) {
                Ok(0) => return Err(io::Error::new(ErrorKind::UnexpectedEof, "server closed")),
                Ok(n) => self.buf.extend_from_slice(&chunk[..n]),
                Err(e) if e.kind() == ErrorKind::WouldBlock => {
                    let now = Instant::now();
                    if now >= deadline {
                        return Ok(None);
                    }
                    std::thread::sleep((deadline - now).min(READ_POLL));
                }
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
    }
}

/// Takes one complete response off the front of `buf`, if there is one.
fn parse_response(buf: &mut Vec<u8>) -> io::Result<Option<Response>> {
    let Some(head_end) = buf.windows(4).position(|w| w == b"\r\n\r\n") else {
        return Ok(None);
    };
    let head = String::from_utf8_lossy(&buf[..head_end]).to_ascii_lowercase();
    let bad = |what: &str| io::Error::new(ErrorKind::InvalidData, what.to_string());
    let status = head
        .split(' ')
        .nth(1)
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| bad("bad status line"))?;
    let header = |name: &str| {
        head.lines()
            .find_map(|l| l.strip_prefix(name)?.strip_prefix(':'))
            .map(str::trim)
    };
    let len: usize = header("content-length")
        .and_then(|v| v.parse().ok())
        .ok_or_else(|| bad("no content-length"))?;
    let total = head_end + 4 + len;
    if buf.len() < total {
        return Ok(None);
    }
    let response = Response {
        status,
        close: header("connection") == Some("close"),
        trace: header("x-safeweb-trace").and_then(|v| u64::from_str_radix(v, 16).ok()),
        body: buf[head_end + 4..total].to_vec(),
    };
    buf.drain(..total);
    Ok(Some(response))
}

/// How requests are paced.
#[derive(Clone, Copy, Debug)]
pub enum Pace {
    /// Request `i` is due at `start + offset + i × interval`, answered or
    /// not.
    Open {
        /// Schedule origin.
        start: Instant,
        /// This connection's phase within the schedule.
        offset: Duration,
        /// Gap between this connection's requests.
        interval: Duration,
    },
    /// Keep `depth` requests in flight until `until`.
    Closed {
        /// Requests in flight.
        depth: usize,
        /// When to stop sending.
        until: Instant,
    },
}

/// One answered request.
#[derive(Clone, Copy, Debug)]
pub struct PageSample {
    /// The route.
    pub route: Route,
    /// When the request was due (open loop) or sent (closed loop), on
    /// the span clock.
    pub due_ns: u64,
    /// When its response was complete, on the span clock.
    pub done_ns: u64,
    /// The frontend's trace id for the request.
    pub trace: Option<u64>,
    /// Index of the request's client span, when spans are on.
    pub span: Option<usize>,
}

impl PageSample {
    /// Latency from the scheduled send.
    pub fn latency_ns(&self) -> u64 {
        self.done_ns.saturating_sub(self.due_ns)
    }
}

/// What one connection's load produced.
#[derive(Debug, Default)]
pub struct PageOutcome {
    /// Validated 200s.
    pub samples: Vec<PageSample>,
    /// Requests sent or due.
    pub attempted: usize,
    /// Failed requests, with why.
    pub failures: Vec<Failure>,
    /// How late each send ran against its schedule (open loop).
    pub lag_ns: Vec<u64>,
    /// Connections opened after the first.
    pub reconnects: usize,
}

impl PageOutcome {
    /// Folds another connection's outcome into this one.
    pub fn merge(&mut self, other: PageOutcome) {
        self.samples.extend(other.samples);
        self.attempted += other.attempted;
        self.failures.extend(other.failures);
        self.lag_ns.extend(other.lag_ns);
        self.reconnects += other.reconnects;
    }
}

/// Drives one connection through `requests` (cycled in closed loop),
/// checking every response with `oracle`. Never panics on I/O: resets
/// and timeouts fail the requests in flight and the connection reopens.
#[allow(clippy::too_many_arguments)]
pub fn drive(
    addr: &str,
    requests: &[PageRequest],
    wire: &[Vec<u8>],
    pace: Pace,
    oracle: &Oracle,
    spans: &mut SpanLog,
    mut sampler: Option<&mut Sampler>,
) -> PageOutcome {
    let mut out = PageOutcome::default();
    let mut conn = Wire::connect(addr).ok();
    let mut inflight: VecDeque<(usize, u64)> = VecDeque::new();
    let mut next = 0usize;
    loop {
        let now = Instant::now();
        if let Some(s) = sampler.as_deref_mut() {
            s.tick(now);
        }
        // Which request may go out now, and when the next one is due.
        let (send_now, wake) = match pace {
            Pace::Open {
                start,
                offset,
                interval,
            } => {
                if next >= requests.len() {
                    (false, now + Duration::from_millis(20))
                } else {
                    let due = start + offset + interval * next as u32;
                    (due <= now, due)
                }
            }
            Pace::Closed { depth, until } => (
                now < until && inflight.len() < depth,
                now + Duration::from_millis(20),
            ),
        };
        let budget_left = conn.as_ref().is_none_or(|c| c.sent < KEEPALIVE_BUDGET);
        if send_now && budget_left {
            let idx = next % requests.len();
            let due_ns = match pace {
                Pace::Open {
                    start,
                    offset,
                    interval,
                } => {
                    let due = start + offset + interval * next as u32;
                    out.lag_ns
                        .push(now.saturating_duration_since(due).as_nanos() as u64);
                    spans.clock(due)
                }
                Pace::Closed { .. } => spans.clock(now),
            };
            next += 1;
            out.attempted += 1;
            if conn.is_none() {
                match Wire::connect(addr) {
                    Ok(c) => conn = Some(c),
                    Err(e) => {
                        out.failures.push(Failure::Transport(e.to_string()));
                        continue;
                    }
                }
            }
            let c = conn.as_mut().expect("connected above");
            if let Err(e) = c.send(&wire[idx]) {
                out.failures.push(Failure::Transport(e.to_string()));
                fail_inflight(&mut out, &mut inflight, &e);
                conn = None;
                out.reconnects += 1;
                continue;
            }
            inflight.push_back((idx, due_ns));
            continue;
        }
        let done_sending = match pace {
            Pace::Open { .. } => next >= requests.len(),
            Pace::Closed { until, .. } => now >= until,
        };
        if done_sending && inflight.is_empty() {
            break;
        }
        let Some(c) = conn.as_mut() else {
            std::thread::sleep(wake.saturating_duration_since(now));
            continue;
        };
        if let Some(&(_, due_ns)) = inflight.front() {
            if spans.clock(now).saturating_sub(due_ns) > TIMEOUT.as_nanos() as u64 {
                let e = io::Error::new(ErrorKind::TimedOut, "no answer within the timeout");
                fail_inflight(&mut out, &mut inflight, &e);
                conn = None;
                out.reconnects += 1;
                continue;
            }
        }
        // Blocked on the keep-alive budget: wait for answers, not the clock.
        let deadline = if send_now {
            now + Duration::from_millis(20)
        } else {
            wake
        };
        let deadline = match sampler.as_deref() {
            Some(s) => deadline.min(s.next_due()),
            None => deadline,
        };
        if inflight.is_empty() {
            if c.sent >= KEEPALIVE_BUDGET {
                // Every budgeted answer is in: the server closes this
                // connection, so open the next one.
                conn = None;
                out.reconnects += 1;
            } else {
                std::thread::sleep(deadline.saturating_duration_since(now));
            }
            continue;
        }
        match c.next_response(deadline) {
            Ok(None) => {}
            Ok(Some(response)) => {
                let done_ns = spans.clock(Instant::now());
                let Some((idx, due_ns)) = inflight.pop_front() else {
                    out.failures
                        .push(Failure::Transport("unsolicited response".into()));
                    conn = None;
                    out.reconnects += 1;
                    continue;
                };
                let req = &requests[idx];
                match oracle.check_page(
                    req.user,
                    req.route,
                    req.mdt,
                    response.status,
                    &response.body,
                    req.deep_check,
                ) {
                    Ok(()) => {
                        let span =
                            spans.record(req.route.names().client_span, due_ns, done_ns, None);
                        out.samples.push(PageSample {
                            route: req.route,
                            due_ns,
                            done_ns,
                            trace: response.trace,
                            span,
                        });
                    }
                    Err(f) => out.failures.push(f),
                }
                if response.close {
                    let e = io::Error::new(
                        ErrorKind::ConnectionAborted,
                        "closed with requests in flight",
                    );
                    fail_inflight(&mut out, &mut inflight, &e);
                    conn = None;
                    out.reconnects += 1;
                }
            }
            Err(e) => {
                fail_inflight(&mut out, &mut inflight, &e);
                conn = None;
                out.reconnects += 1;
            }
        }
    }
    out
}

fn fail_inflight(out: &mut PageOutcome, inflight: &mut VecDeque<(usize, u64)>, e: &io::Error) {
    for _ in inflight.drain(..) {
        out.failures.push(Failure::Transport(e.to_string()));
    }
}
