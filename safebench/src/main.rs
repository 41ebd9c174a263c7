//! `safebench --workload <browse|ingest> --seed <n>
//! --seconds <n> --trace <0|1>`: runs one workload against a fresh MDT
//! portal deployment and prints every metric by name with its unit; the
//! last line is the JSON result. Exits non-zero when the correctness
//! oracle fails.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::thread;
use std::time::{Duration, Instant};

use safeweb_events::LabelledEvent;
use safeweb_http::Method;
use safeweb_json::Value;
use safeweb_mdt::password_for;
use safeweb_obs::{tracer, TraceId};
use safeweb_safebench::deploy::{self, Deployment};
use safeweb_safebench::http::{self, Pace, PageOutcome, PageSample};
use safeweb_safebench::ingest::{self, IngestOutcome, IngestPace};
use safeweb_safebench::inputs::{self, Case, PageRequest, Route};
use safeweb_safebench::layers::{Sampler, Snapshot};
use safeweb_safebench::oracle::Failure;
use safeweb_safebench::spans::{Span, SpanLog};
use safeweb_safebench::stats::{median, ms, percentile, Percentile};

// Fixed absolute loads, never derived from a measurement.
/// Pages per second over two connections, in every page window.
const PAGES_PER_S: u32 = 150;
/// Events per second (three per case), in every ingest window.
const EVENTS_PER_S: u32 = 1500;
/// Length of the ingest window that `browse` adds after its page window.
const INGEST_PROBE: Duration = Duration::from_secs(4);
/// Closed-loop capacity phase: one-second segments (the median segment
/// is reported) and the pipeline depth per connection.
const CAPACITY_SEGMENTS: u32 = 4;
const CAPACITY_DEPTH: usize = 4;
/// Requests queued per capacity connection, more than it can send.
const CAPACITY_PAGES_PER_CONN: usize = 4096;
const ONE_SECOND: Duration = Duration::from_secs(1);
/// The `ingest_eps` burst: cases per burst, each burst from fresh state.
const BURST_CASES: usize = 4500;
const BURSTS: usize = 8;
/// How long published cases may take to show up complete in the DMZ.
const DRAIN: Duration = Duration::from_secs(30);
/// Seeded page requests replayed in-process in the traced run.
const REPLAY_PAGES: usize = 300;

// Seed streams, one per input sequence of a run.
const MAIN_PAGES: u64 = 1;
const MAIN_CASES: u64 = 2;
const PROBE_PAGES: u64 = 3;
const PROBE_CASES: u64 = 4;
const CAPACITY_PAGES: u64 = 5;
const REPLAY: u64 = 6;
const BURST_STREAMS: u64 = 10;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Workload {
    Browse,
    Ingest,
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(match value.as_str() {
                    "browse" => Workload::Browse,
                    "ingest" => Workload::Ingest,
                    other => return Err(format!("unknown workload {other}")),
                })
            }
            "--seed" => seed = Some(value.parse().map_err(|_| "bad --seed")?),
            "--seconds" => seconds = Some(value.parse().map_err(|_| "bad --seconds")?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                })
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    let seconds: u64 = seconds.unwrap_or(16);
    if seconds == 0 {
        return Err("--seconds must be positive".into());
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds,
        trace: trace.unwrap_or(false),
    })
}

/// The page and ingest traffic of one window, with registry readings
/// around it (before, after, and sampled while it ran).
struct Window {
    pages: Option<PageOutcome>,
    ingest: Option<(Vec<Case>, IngestOutcome)>,
    spans: SpanLog,
    readings: (Snapshot, Snapshot, Sampler),
}

/// Everything one pass over a workload measured.
#[derive(Default)]
struct Pass {
    setups: Vec<f64>,
    attempted: usize,
    failures: Vec<Failure>,
    /// The load windows: one per traffic type.
    windows: Vec<Window>,
    page_rps: f64,
    burst_eps: Vec<f64>,
    /// Spans of the in-process replay (traced passes only).
    replay: Option<SpanLog>,
    violations: usize,
    app_docs: f64,
    /// VmHWM once the workload's deployment is done, before the bursts.
    rss_peak_mb: f64,
    /// How much the bursts' fresh deployments raised VmHWM.
    burst_rss_growth_mb: f64,
}

impl Pass {
    /// The window that served pages.
    fn page_window(&self) -> &Window {
        self.windows
            .iter()
            .find(|w| w.pages.is_some())
            .expect("a page window ran")
    }

    /// The window that ingested cases.
    fn ingest_window(&self) -> &Window {
        self.windows
            .iter()
            .find(|w| w.ingest.is_some())
            .expect("an ingest window ran")
    }
}

struct Runner {
    args: Args,
    data_root: PathBuf,
    deployments: usize,
}

impl Runner {
    fn deploy(&mut self, pass: &mut Pass) -> Result<Deployment, String> {
        self.deployments += 1;
        let d = Deployment::start(self.data_root.join(format!("d{}", self.deployments)))?;
        pass.setups.push(d.setup_s);
        Ok(d)
    }

    /// One pass: set-up, the capacity phase, the workload's window and the
    /// window of the traffic it lacks, then the bursts (skipped when not
    /// `full`).
    fn pass(&mut self, traced: bool, full: bool) -> Result<Pass, String> {
        let mut pass = Pass::default();
        let seed = self.args.seed;
        let length = Duration::from_secs(self.args.seconds);
        let mut d = self.deploy(&mut pass)?;
        let mdts = d.oracle.mdts().len();
        let pages = |stream: u64, length: Duration| {
            let per_conn = (u64::from(PAGES_PER_S) * length.as_secs()) as usize / 2;
            (0..2)
                .map(|c| inputs::page_requests(seed, stream * 8 + c, per_conn, mdts))
                .collect::<Vec<_>>()
        };
        let cases = |stream: u64, length: Duration| {
            let n = (u64::from(EVENTS_PER_S / 3) * length.as_secs()) as usize;
            inputs::cases(seed, stream, n, mdts)
        };
        // The workload's traffic runs for the whole `--seconds`; the
        // traffic it lacks is measured alone, on the stores as set up:
        // pages before an ingest window, for as long (with an 8-s page
        // window the ten-seed spread of page_p50_ms reached 0.23), and
        // ingest, shorter, after a page window.
        let (conns, published) = match self.args.workload {
            Workload::Browse => (pages(MAIN_PAGES, length), cases(PROBE_CASES, INGEST_PROBE)),
            Workload::Ingest => (pages(PROBE_PAGES, length), cases(MAIN_CASES, length)),
        };
        // Capacity first: it also warms the caches, and it leaves the
        // stores as set up, since pages never write.
        let capacity_conns: Vec<Vec<PageRequest>> = (0..2)
            .map(|c| {
                inputs::page_requests(seed, CAPACITY_PAGES * 8 + c, CAPACITY_PAGES_PER_CONN, mdts)
            })
            .collect();
        let (rps, outcome) = capacity(&d, &capacity_conns);
        pass.page_rps = rps;
        pass.attempted += outcome.attempted;
        pass.failures.extend(outcome.failures);
        // The page window, then the replay while the stores are as that
        // window saw them, then the ingest window.
        pass.windows.push(window(&d, Traffic::Pages(conns), traced));
        if traced {
            pass.replay = Some(replay(&d, seed));
        }
        pass.windows
            .push(window(&d, Traffic::Cases(published.clone()), traced));
        for p in pass.windows.iter().filter_map(|w| w.pages.as_ref()) {
            pass.attempted += p.attempted;
            pass.failures.extend(p.failures.iter().cloned());
        }
        self.check_ingest(&mut pass, &mut d, &published);
        pass.app_docs = Snapshot::take(d.portal.deployment().metrics()).num("docstore.app.docs");
        drop(d);
        pass.rss_peak_mb = rss_peak_mb();

        if full {
            for b in 0..BURSTS {
                let mut d = self.deploy(&mut pass)?;
                let cases = inputs::cases(seed, BURST_STREAMS + b as u64, BURST_CASES, mdts);
                let (doc_ids, events) = case_inputs(&d, &cases);
                let mut spans = SpanLog::new(false, 0);
                let deployment = d.portal.deployment();
                let out = ingest::drive(
                    &d.broker_addr(),
                    &doc_ids,
                    &events,
                    IngestPace::Burst,
                    deployment.dmz_db(),
                    deployment.app_db(),
                    DRAIN,
                    &mut spans,
                    None,
                );
                let secs = out.last_done_ns.saturating_sub(out.first_send_ns) as f64 / 1e9;
                if out.fresh_ns.len() == cases.len() && secs > 0.0 {
                    pass.burst_eps.push((3 * cases.len()) as f64 / secs);
                }
                self.check_ingest(&mut pass, &mut d, &cases);
            }
            pass.burst_rss_growth_mb = rss_peak_mb() - pass.rss_peak_mb;
        }
        Ok(pass)
    }

    /// Counts `cases` as attempted and checks each one, every MDT's
    /// aggregate and the engine's violation log.
    fn check_ingest(&self, pass: &mut Pass, d: &mut Deployment, cases: &[Case]) {
        let dmz = d.portal.deployment().dmz_db();
        pass.attempted += cases.len();
        // A case's record can reach the DMZ before the aggregate update
        // its first event caused: let the pipeline finish first.
        if let Err(e) = deploy::quiesce(&d.portal, Instant::now() + DRAIN) {
            pass.failures.push(Failure::Aggregate(e));
        }
        pass.failures.extend(d.oracle.check_cases(dmz, cases));
        d.oracle.add_cases(cases);
        pass.failures.extend(d.oracle.check_aggregates(dmz, cases));
        let violations = d.portal.deployment().engine_violations();
        pass.violations += violations.len();
        pass.failures.extend(
            violations
                .iter()
                .map(|v| Failure::Violation(format!("{v:?}"))),
        );
    }
}

fn case_inputs(d: &Deployment, cases: &[Case]) -> (Vec<String>, Vec<[LabelledEvent; 3]>) {
    let mdts = d.oracle.mdts();
    (
        cases.iter().map(|c| c.doc_id(mdts)).collect(),
        cases.iter().map(|c| c.events(mdts)).collect(),
    )
}

/// Runs two generator jobs at once: `a` on this thread, `b` on one more.
fn both<A: Send, B: Send>(a: impl FnOnce() -> A + Send, b: impl FnOnce() -> B + Send) -> (A, B) {
    thread::scope(|s| {
        let handle = s.spawn(b);
        let a = a();
        (a, handle.join().expect("generator thread panicked"))
    })
}

/// The traffic of one open-loop window.
enum Traffic {
    /// Two page connections, one request list each, at [`PAGES_PER_S`]
    /// in total, one generator thread each.
    Pages(Vec<Vec<PageRequest>>),
    /// Cases at [`EVENTS_PER_S`] over one STOMP connection.
    Cases(Vec<Case>),
}

/// One open-loop window of `traffic`.
fn window(d: &Deployment, traffic: Traffic, traced: bool) -> Window {
    let deployment = d.portal.deployment();
    let registry = deployment.metrics();
    let mdts = d.oracle.mdts();
    let mut logs: Vec<SpanLog> = (0..2).map(|t| SpanLog::new(traced, t + 1)).collect();
    let mut sampler = Sampler::new(registry);
    let before = Snapshot::take(registry);
    let start = Instant::now() + Duration::from_millis(50);
    let [log0, log1] = &mut logs[..] else {
        unreachable!("two logs")
    };
    let s = traced.then_some(&mut sampler);

    let (page_outs, ingest) = match traffic {
        Traffic::Pages(conns) => {
            let wires: Vec<Vec<Vec<u8>>> = conns
                .iter()
                .map(|reqs| reqs.iter().map(|r| r.wire(mdts)).collect())
                .collect();
            let http_addr = d.http_addr();
            let page_job = |c: usize, log: &mut SpanLog, sampler: Option<&mut Sampler>| {
                let pace = Pace::Open {
                    start,
                    offset: ONE_SECOND * c as u32 / PAGES_PER_S,
                    interval: ONE_SECOND * 2 / PAGES_PER_S,
                };
                http::drive(
                    &http_addr, &conns[c], &wires[c], pace, &d.oracle, log, sampler,
                )
            };
            // Page outcomes stay per connection (= per log) until the
            // server spans are attached, since a sample's span index is
            // into its own connection's log.
            let (a, b) = both(|| page_job(0, log0, None), || page_job(1, log1, s));
            (vec![a, b], None)
        }
        Traffic::Cases(cases) => {
            let (doc_ids, events) = case_inputs(d, &cases);
            let pace = IngestPace::Open {
                start,
                interval: ONE_SECOND / EVENTS_PER_S,
            };
            let out = ingest::drive(
                &d.broker_addr(),
                &doc_ids,
                &events,
                pace,
                deployment.dmz_db(),
                deployment.app_db(),
                DRAIN,
                log1,
                s,
            );
            (Vec::new(), Some((cases, out)))
        }
    };
    let after = Snapshot::take(registry);
    if traced {
        sampler.sample();
    }
    let mut pages: Option<PageOutcome> = None;
    for (out, log) in page_outs.into_iter().zip(logs.iter_mut()) {
        if traced {
            attach_server_spans(log, &out);
        }
        pages.get_or_insert_with(PageOutcome::default).merge(out);
    }
    let mut spans = SpanLog::new(traced, 0);
    for log in logs {
        spans.append(log);
    }
    Window {
        pages,
        ingest,
        spans,
        readings: (before, after, sampler),
    }
}

/// Adds each answered request's frontend span, read back from the
/// program's tracer by the `x-safeweb-trace` id it returned, as the
/// child `web.route` of the request's client span.
fn attach_server_spans(spans: &mut SpanLog, pages: &PageOutcome) {
    let tracer = tracer();
    for sample in &pages.samples {
        let (Some(trace), Some(client)) = (sample.trace, sample.span) else {
            continue;
        };
        if let Some(server) = tracer
            .trace(TraceId::from_u64(trace))
            .into_iter()
            .find(|s| s.component == "frontend")
        {
            spans.record(
                "web.route",
                server.start_ns,
                server.start_ns + server.dur_ns,
                Some(client),
            );
        }
    }
}

/// Closed-loop capacity: two connections at a fixed pipeline depth for
/// [`CAPACITY_SEGMENTS`] seconds; the median over the seconds of the
/// validated 200s completed in each.
fn capacity(d: &Deployment, conns: &[Vec<PageRequest>]) -> (f64, PageOutcome) {
    let mdts = d.oracle.mdts();
    let wires: Vec<Vec<Vec<u8>>> = conns
        .iter()
        .map(|r| r.iter().map(|q| q.wire(mdts)).collect())
        .collect();
    let addr = d.http_addr();
    let log = SpanLog::new(false, 0);
    let started = Instant::now();
    let pace = Pace::Closed {
        depth: CAPACITY_DEPTH,
        until: started + ONE_SECOND * CAPACITY_SEGMENTS,
    };
    let job = |c: usize| {
        let mut log = SpanLog::new(false, 0);
        http::drive(&addr, &conns[c], &wires[c], pace, &d.oracle, &mut log, None)
    };
    let (mut a, b) = both(|| job(0), || job(1));
    a.merge(b);
    let start_ns = log.clock(started);
    let mut per_second = vec![0.0; CAPACITY_SEGMENTS as usize];
    for s in &a.samples {
        let second = (s.done_ns.saturating_sub(start_ns) / 1_000_000_000) as usize;
        if let Some(n) = per_second.get_mut(second) {
            *n += 1.0;
        }
    }
    (median(&per_second).unwrap_or(0.0), a)
}

/// Replays [`REPLAY_PAGES`] seeded requests in-process through
/// `SafeWebApp::handle` on a second frontend over the same deployment,
/// timing `UserStore::authenticate`, the route's `DocStore::query_view`
/// and the whole `handle` as three children of one replay span.
fn replay(d: &Deployment, seed: u64) -> SpanLog {
    let app = d.replay_app();
    let deployment = d.portal.deployment();
    let (users, dmz) = (deployment.users(), deployment.dmz_db());
    let mdts = d.oracle.mdts();
    let mut spans = SpanLog::new(true, 7);
    for req in inputs::page_requests(seed, REPLAY, REPLAY_PAGES, mdts.len()) {
        let mdt = &mdts[req.mdt];
        let user = &mdts[req.user].name;
        let password = password_for(user);
        let clock = |spans: &SpanLog| spans.clock(Instant::now());
        let start = clock(&spans);
        let t = clock(&spans);
        let authenticated = users.authenticate(user, &password).is_some();
        let auth = (t, clock(&spans));
        let t = clock(&spans);
        let view = match req.route {
            Route::Mdt | Route::Records => {
                Some(dmz.query_view("by_mid", &Value::from(mdt.name.as_str())))
            }
            Route::Compare => Some(dmz.query_view(
                "metrics_by_region",
                &Value::from(mdt.region_id.to_string().as_str()),
            )),
            Route::AggregatesRegional => {
                Some(dmz.query_view("by_kind", &Value::from("regional_metrics")))
            }
            Route::Metrics => None,
        };
        let query = (t, clock(&spans));
        let request = safeweb_http::Request::new(Method::Get, &req.route.target(&mdt.name))
            .with_basic_auth(user, &password);
        let t = clock(&spans);
        let response = app.handle(&request);
        let handle = (t, clock(&spans));
        let ok =
            authenticated && response.status() == 200 && view.as_ref().is_none_or(|v| v.is_ok());
        if !ok {
            continue;
        }
        let root = spans
            .record(req.route.names().replay_span, start, handle.1, None)
            .expect("replay log records");
        spans.record("web.authenticate", auth.0, auth.1, Some(root));
        if view.is_some() {
            spans.record("docstore.dmz.query_view", query.0, query.1, Some(root));
        }
        spans.record(
            req.route.names().handle_span,
            handle.0,
            handle.1,
            Some(root),
        );
    }
    spans
}

// ---------------------------------------------------------------------
// Reporting
// ---------------------------------------------------------------------

/// One printed metric.
struct Metric {
    name: String,
    unit: &'static str,
    value: f64,
    note: String,
}

fn pct_ms(samples_ns: &[u64], q: f64) -> Option<Percentile> {
    let ms_samples: Vec<f64> = samples_ns.iter().map(|&v| ms(v)).collect();
    percentile(&ms_samples, q)
}

fn pct_metric(name: &str, unit: &'static str, p: Option<Percentile>, what: &str) -> Metric {
    match p {
        Some(p) => Metric {
            name: name.to_string(),
            unit,
            value: p.value,
            note: format!("p{:.2} of {} {what}", p.q * 100.0, p.n),
        },
        None => Metric {
            name: name.to_string(),
            unit,
            value: f64::NAN,
            note: format!("too few {what}"),
        },
    }
}

fn page_latencies(p: &PageOutcome) -> Vec<u64> {
    p.samples.iter().map(PageSample::latency_ns).collect()
}

fn end_to_end(pass: &Pass) -> Vec<Metric> {
    let pages = pass.page_window().pages.as_ref();
    let lat = pages.map(page_latencies).unwrap_or_default();
    let fresh = pass
        .ingest_window()
        .ingest
        .as_ref()
        .map(|(_, o)| o.fresh_ns.clone())
        .unwrap_or_default();
    let failed_ratio = pass.failures.len() as f64 / pass.attempted.max(1) as f64;
    vec![
        Metric {
            name: "setup_s".into(),
            unit: "s",
            value: median(&pass.setups).unwrap_or(f64::NAN),
            note: format!("median of {} set-ups", pass.setups.len()),
        },
        pct_metric("page_p50_ms", "ms", pct_ms(&lat, 0.50), "pages"),
        pct_metric("page_p99_ms", "ms", pct_ms(&lat, 0.99), "pages"),
        Metric {
            name: "page_rps".into(),
            unit: "pages/s",
            value: pass.page_rps,
            note: format!(
                "closed loop, 2 connections × depth {CAPACITY_DEPTH}, median of {CAPACITY_SEGMENTS} seconds"
            ),
        },
        pct_metric("fresh_p50_ms", "ms", pct_ms(&fresh, 0.50), "cases"),
        pct_metric("fresh_p99_ms", "ms", pct_ms(&fresh, 0.99), "cases"),
        Metric {
            name: "ingest_eps".into(),
            unit: "events/s",
            value: median(&pass.burst_eps).unwrap_or(f64::NAN),
            note: format!(
                "median of {} bursts of {} events",
                pass.burst_eps.len(),
                3 * BURST_CASES
            ),
        },
        Metric {
            name: "failed_ratio".into(),
            unit: "share",
            value: failed_ratio,
            note: format!("{} of {} operations", pass.failures.len(), pass.attempted),
        },
        Metric {
            name: "rss_peak_mb".into(),
            unit: "MB",
            value: pass.rss_peak_mb,
            note: "VmHWM before the bursts".into(),
        },
    ]
}

/// Metrics that go to the JSON line with `--trace 0` (every one of them
/// must be in `BENCHMARK.json`'s `end_to_end`). `failed_ratio` is printed
/// but carried in the JSON by `failed` / `attempted`; the two p99s are
/// printed here and reported with the per-layer metrics, since their
/// spread from run to run exceeds any bound the benchmark may set
/// (README).
const END_TO_END_JSON: [&str; 6] = [
    "setup_s",
    "page_p50_ms",
    "page_rps",
    "fresh_p50_ms",
    "ingest_eps",
    "rss_peak_mb",
];

fn rss_peak_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

fn per_layer(pass: &Pass) -> Vec<Metric> {
    let mut out = Vec::new();
    let mut put = |name: &str, unit: &'static str, value: f64, note: &str| {
        out.push(Metric {
            name: name.to_string(),
            unit,
            value,
            note: note.to_string(),
        })
    };
    let ratio = |a: f64, b: f64| if b > 0.0 { a / b } else { 0.0 };

    // Frontend layers, over the window that served pages.
    let pw = pass.page_window();
    let (pb, pa, psampler) = &pw.readings;
    let requests = pb.delta(pa, "web.requests");
    for (metric, counter) in [
        ("web.auth_ms_per_req", "web.auth_ns"),
        ("web.privilege_fetch_ms_per_req", "web.privilege_fetch_ns"),
        ("web.handler_ms_per_req", "web.handler_ns"),
        ("web.label_check_ms_per_req", "web.label_check_ns"),
    ] {
        put(
            metric,
            "ms",
            ratio(pb.delta(pa, counter), requests) / 1e6,
            "registry delta",
        );
    }
    let hits = pb.delta(pa, "web.render_cache.hits");
    let lookups = hits + pb.delta(pa, "web.render_cache.misses");
    put(
        "web.render_cache.hit_ratio",
        "share",
        ratio(hits, lookups),
        "hits / lookups",
    );
    let page_spans = &pw.spans;
    let mut routes: BTreeMap<Route, Vec<u64>> = BTreeMap::new();
    for s in page_spans.spans().iter().filter(|s| s.name == "web.route") {
        let route = s
            .parent
            .map(|p| page_spans.spans()[p].name)
            .and_then(|n| Route::ALL.into_iter().find(|r| r.names().client_span == n));
        if let Some(route) = route {
            routes.entry(route).or_default().push(s.end_ns - s.start_ns);
        }
    }
    for r in Route::ALL {
        let samples = routes.get(&r).cloned().unwrap_or_default();
        for (q, label) in [(0.5, "p50"), (0.99, "p99")] {
            let p = pct_ms(&samples, q);
            put(
                &format!("web.route_{label}_ms.{}", r.names().metric),
                "ms",
                p.map_or(0.0, |p| p.value),
                &p.map_or("no samples".into(), |p| {
                    format!("p{:.2} of {}", p.q * 100.0, p.n)
                }),
            );
        }
    }
    let replay_self = pass
        .replay
        .as_ref()
        .map(SpanLog::self_times)
        .unwrap_or_default();
    let p50 = |m: &BTreeMap<&'static str, Vec<u64>>, name: &str| {
        m.get(name)
            .and_then(|v| pct_ms(v, 0.5))
            .map_or(0.0, |p| p.value)
    };
    put(
        "web.authenticate_ms",
        "ms",
        p50(&replay_self, "web.authenticate"),
        "replay p50",
    );
    for r in Route::ALL {
        put(
            &format!("web.handle_ms.{}", r.names().metric),
            "ms",
            p50(&replay_self, r.names().handle_span),
            "replay p50",
        );
    }
    put(
        "docstore.dmz.query_view_ms",
        "ms",
        p50(&replay_self, "docstore.dmz.query_view"),
        "replay p50",
    );
    let queue_wire = queue_wire_ns(page_spans);
    let client_samples = pw.pages.as_ref().map_or(0, |p| p.samples.len());
    if queue_wire.len() < client_samples {
        eprintln!(
            "warning: {} of {client_samples} pages have no frontend span; \
             they are left out of http.queue_wire and web.route",
            client_samples - queue_wire.len()
        );
    }
    for (q, label) in [(0.5, "p50"), (0.99, "p99")] {
        let p = pct_ms(&queue_wire, q);
        put(
            &format!("http.queue_wire_{label}_ms"),
            "ms",
            p.map_or(0.0, |p| p.value),
            &format!(
                "client minus server span, {} of {client_samples} pages matched",
                queue_wire.len()
            ),
        );
    }
    put(
        "frontend.accepted",
        "count",
        pb.delta(pa, "frontend.accepted"),
        "registry delta",
    );
    put(
        "frontend.outbox_bytes_max",
        "bytes",
        psampler.max("frontend.outbox_bytes"),
        "sampled",
    );

    // Backend layers, over the window that ingested.
    let iw = pass.ingest_window();
    let (ib, ia, isampler) = &iw.readings;
    let events = iw.ingest.as_ref().map_or(0, |(c, _)| 3 * c.len()) as f64;
    let ingest_self = iw.spans.self_times();
    let publish_us = ingest_self
        .get("stomp.publish")
        .and_then(|v| pct_ms(v, 0.5))
        .map_or(0.0, |p| p.value * 1e3);
    put(
        "stomp.publish_us",
        "us",
        publish_us,
        "p50 of EventClient::publish",
    );
    let published = ib.delta(ia, "broker.published");
    put("broker.published", "count", published, "registry delta");
    put(
        "broker.delivered_per_published",
        "ratio",
        ratio(ib.delta(ia, "broker.delivered"), published),
        "registry delta",
    );
    put(
        "broker.label_filtered",
        "count",
        ib.delta(ia, "broker.label_filtered"),
        "registry delta",
    );
    put(
        "broker.selector_filtered",
        "count",
        ib.delta(ia, "broker.selector_filtered"),
        "registry delta",
    );
    let activations = ib.histogram_delta(ia, "sched.activation_ns");
    put(
        "sched.activation_p50_us",
        "us",
        activations.quantile(0.5) as f64 / 1e3,
        "histogram delta (bucket bound)",
    );
    put(
        "sched.activation_p99_us",
        "us",
        activations.quantile(0.99) as f64 / 1e3,
        "histogram delta (bucket bound)",
    );
    put(
        "sched.queued_messages_max",
        "count",
        isampler.max("sched.queued_messages"),
        "sampled",
    );
    put(
        "sched.steals_per_event",
        "ratio",
        ratio(ib.delta(ia, "sched.steals"), events),
        "registry delta",
    );
    put(
        "sched.parks_per_event",
        "ratio",
        ratio(ib.delta(ia, "sched.parks"), events),
        "registry delta",
    );
    put(
        "engine.violations",
        "count",
        pass.violations as f64,
        "must be 0",
    );
    put(
        "engine.activations_per_event",
        "ratio",
        ratio(activations.count() as f64, events),
        "registry delta",
    );
    let app_puts = ib.histogram_delta(ia, "docstore.app.put_ns");
    put(
        "docstore.app.put_p50_ms",
        "ms",
        app_puts.quantile(0.5) as f64 / 1e6,
        "histogram delta (bucket bound)",
    );
    put(
        "docstore.app.put_p99_ms",
        "ms",
        app_puts.quantile(0.99) as f64 / 1e6,
        "histogram delta (bucket bound)",
    );
    put(
        "docstore.app.wal_bytes_per_event",
        "bytes",
        ratio(isampler.wal_growth(), events),
        "sampled WAL growth",
    );
    put("docstore.app.docs", "count", pass.app_docs, "at end");
    put(
        "process.burst_rss_growth_mb",
        "MB",
        pass.burst_rss_growth_mb,
        &format!("VmHWM growth over {BURSTS} deployments built and dropped"),
    );
    put(
        "replication.lag_seqs_mean",
        "count",
        isampler.mean("replication.lag_seqs"),
        "sampled",
    );
    put(
        "replication.lag_seqs_max",
        "count",
        isampler.max("replication.lag_seqs"),
        "sampled",
    );

    // Generator validity.
    let mut lag: Vec<u64> = Vec::new();
    let mut reconnects = 0;
    for w in [pw, iw] {
        if let Some(p) = &w.pages {
            lag.extend(&p.lag_ns);
            reconnects += p.reconnects;
        }
        if let Some((_, o)) = &w.ingest {
            lag.extend(&o.lag_ns);
            reconnects += o.reconnects;
        }
    }
    put(
        "gen.lag_p99_ms",
        "ms",
        pct_ms(&lag, 0.99).map_or(0.0, |p| p.value),
        "how late sends ran",
    );
    put(
        "gen.reconnects",
        "count",
        reconnects as f64,
        "keep-alive budget and errors",
    );
    put(
        "gen.page_samples",
        "count",
        pw.pages.as_ref().map_or(0, |p| p.samples.len()) as f64,
        "behind page_p50/p99",
    );
    put(
        "gen.fresh_samples",
        "count",
        iw.ingest.as_ref().map_or(0, |(_, o)| o.fresh_ns.len()) as f64,
        "behind fresh_p50/p99",
    );
    put(
        "failed_ratio",
        "share",
        pass.failures.len() as f64 / pass.attempted.max(1) as f64,
        "failed / attempted",
    );
    let page_p99 = pw.pages.as_ref().map(page_latencies).unwrap_or_default();
    put(
        "page_p99_ms",
        "ms",
        pct_ms(&page_p99, 0.99).map_or(0.0, |p| p.value),
        "open-loop page p99, not gated",
    );
    let fresh_p99 = iw.ingest.as_ref().map_or(&[][..], |(_, o)| &o.fresh_ns[..]);
    put(
        "fresh_p99_ms",
        "ms",
        pct_ms(fresh_p99, 0.99).map_or(0.0, |p| p.value),
        "case freshness p99, not gated",
    );
    let (page_residual, fresh_residual) = closure_residuals(pass);
    put(
        "closure.page_residual_ms",
        "ms",
        page_residual,
        "client p50 minus layer p50s",
    );
    put(
        "closure.fresh_residual_ms",
        "ms",
        fresh_residual,
        "fresh p50 minus layer p50s",
    );
    out
}

/// Client time outside the server's own span — reactor, worker queue,
/// socket and generator: each client span's duration minus its
/// `web.route` child. Client spans whose frontend span was not found
/// (the program's tracer ring had dropped it) are left out.
fn queue_wire_ns(page_spans: &SpanLog) -> Vec<u64> {
    let spans = page_spans.spans();
    spans
        .iter()
        .filter(|s| s.name == "web.route")
        .filter_map(|route| {
            let client = &spans[route.parent?];
            let dur = |s: &Span| s.end_ns - s.start_ns;
            Some(dur(client).saturating_sub(dur(route)))
        })
        .collect()
}

/// Prints the self-time tables and returns their residuals: the client
/// p50 minus the sum of the layer p50s.
fn closure_residuals(pass: &Pass) -> (f64, f64) {
    let p50 = |v: &[u64]| pct_ms(v, 0.5).map_or(0.0, |p| p.value);
    let replay_self = pass
        .replay
        .as_ref()
        .map(SpanLog::self_times)
        .unwrap_or_default();

    // Page: client = queue/wire + route, and the route split by the
    // replay into authenticate, query_view and the rest of handle.
    let client: Vec<u64> = pass
        .page_window()
        .pages
        .as_ref()
        .map(page_latencies)
        .unwrap_or_default();
    let queue_wire = queue_wire_ns(&pass.page_window().spans);
    let replay = pass.replay.as_ref().map(SpanLog::spans).unwrap_or(&[]);
    let mut by_root: BTreeMap<usize, (u64, u64, u64)> = BTreeMap::new();
    for s in replay {
        if let Some(root) = s.parent {
            let e = by_root.entry(root).or_default();
            let dur = s.end_ns - s.start_ns;
            match s.name {
                "web.authenticate" => e.0 = dur,
                "docstore.dmz.query_view" => e.1 = dur,
                _ => e.2 = dur,
            }
        }
    }
    let rest: Vec<u64> = by_root
        .values()
        .map(|(auth, query, handle)| handle.saturating_sub(auth + query))
        .collect();
    let all_queries: Vec<u64> = by_root.values().map(|v| v.1).collect();
    let rows = [
        ("http.queue_wire (client minus web.route)", p50(&queue_wire)),
        (
            "web.authenticate (replay)",
            p50(replay_self.get("web.authenticate").map_or(&[][..], |v| v)),
        ),
        (
            "docstore.dmz.query_view (replay, per page)",
            p50(&all_queries),
        ),
        ("web.handle minus the two above (replay)", p50(&rest)),
    ];
    let page_residual = print_table("page", p50(&client), client.len(), &rows);

    // Case: from the last event's due time to the DMZ.
    let ingest_spans = &pass.ingest_window().spans;
    let ingest_self = ingest_spans.self_times();
    let fresh: Vec<u64> = pass
        .ingest_window()
        .ingest
        .as_ref()
        .map(|(_, o)| o.fresh_ns.clone())
        .unwrap_or_default();
    let in_tree = |name: &str| -> Vec<u64> {
        ingest_spans
            .spans()
            .iter()
            .filter(|s| s.name == name && s.parent.is_some())
            .map(|s| s.end_ns - s.start_ns)
            .collect()
    };
    let rows = [
        (
            "gen.lag + gaps (ingest.case self time)",
            p50(ingest_self.get("ingest.case").map_or(&[][..], |v| v)),
        ),
        ("stomp.publish (last event)", p50(&in_tree("stomp.publish"))),
        (
            "broker → sched → engine → app store",
            p50(&in_tree("pipeline.to_app_store")),
        ),
        (
            "replication to the DMZ",
            p50(&in_tree("replication.to_dmz")),
        ),
    ];
    let fresh_residual = print_table("case", p50(&fresh), fresh.len(), &rows);
    (page_residual, fresh_residual)
}

fn print_table(what: &str, client_p50: f64, n: usize, rows: &[(&str, f64)]) -> f64 {
    println!("self time per layer, {what} (p50 ms over {n} samples):");
    let mut sum = 0.0;
    for (name, v) in rows {
        println!("  {name:<48} {v:>9.3}");
        sum += v;
    }
    let residual = client_p50 - sum;
    println!("  {:<48} {:>9.3}", "sum of layers", sum);
    println!("  {:<48} {:>9.3}", format!("client {what} p50"), client_p50);
    println!(
        "  {:<48} {:>9.3}",
        "residual (client minus layers)", residual
    );
    residual
}

fn json_line(metrics: &[Metric], attempted: usize, failed: usize, correct: bool) -> String {
    let mut out = Value::object();
    for m in metrics {
        let mut v = Value::object();
        v.set("value", if m.value.is_finite() { m.value } else { 0.0 });
        v.set("unit", m.unit);
        out.set(&m.name, v);
    }
    let mut line = Value::object();
    line.set("correct", correct);
    line.set("attempted", attempted as i64);
    line.set("failed", failed as i64);
    line.set("metrics", out);
    line.to_json()
}

fn print_metrics(title: &str, metrics: &[Metric]) {
    println!("{title}:");
    for m in metrics {
        println!(
            "  {:<40} {:>14.4} {:<8} {}",
            m.name, m.value, m.unit, m.note
        );
    }
}

fn run(args: Args) -> Result<bool, String> {
    let data_root = PathBuf::from(".bench_run").join(std::process::id().to_string());
    let trace = args.trace;
    let mut runner = Runner {
        args,
        data_root: data_root.clone(),
        deployments: 0,
    };
    let result = (|| {
        let untraced = if trace {
            Some(runner.pass(false, false)?)
        } else {
            None
        };
        let pass = runner.pass(trace, true)?;
        Ok::<_, String>((untraced, pass))
    })();
    let _ = std::fs::remove_dir_all(&data_root);
    let _ = std::fs::remove_dir(data_root.parent().unwrap_or(Path::new(".")));
    let (mut untraced, mut pass) = result?;
    // The untraced pass is checked like the traced one: its operations
    // and failures count towards the run's.
    if let Some(u) = untraced.as_mut() {
        pass.attempted += u.attempted;
        pass.failures.append(&mut u.failures);
    }

    let e2e = end_to_end(&pass);
    let correct = pass.failures.is_empty() && e2e.iter().all(|m| m.value.is_finite());
    for f in pass.failures.iter().take(10) {
        eprintln!("failure: {f}");
    }
    print_metrics("end-to-end", &e2e);
    let metrics = if trace {
        let layers = per_layer(&pass);
        print_metrics("per layer", &layers);
        let traced = &e2e;
        let untraced = end_to_end(untraced.as_ref().expect("untraced pass ran"));
        println!("tracing overhead (traced vs untraced pass):");
        for name in ["page_p50_ms", "fresh_p50_ms"] {
            let get = |ms: &[Metric]| {
                ms.iter()
                    .find(|m| m.name == name)
                    .map_or(f64::NAN, |m| m.value)
            };
            let (t, u) = (get(traced), get(&untraced));
            println!(
                "  {name:<16} traced {t:.3}  untraced {u:.3}  overhead {:+.1}%",
                (t / u - 1.0) * 100.0
            );
        }
        let path = PathBuf::from(".bench_out").join(format!(
            "spans-{}-seed{}.jsonl",
            workload_name(runner.args.workload),
            runner.args.seed
        ));
        let mut all = SpanLog::new(true, 0);
        for log in pass.windows.into_iter().map(|w| w.spans).chain(pass.replay) {
            all.append(log);
        }
        all.write_jsonl(&path)
            .map_err(|e| format!("writing spans: {e}"))?;
        println!("spans: {} written to {}", all.spans().len(), path.display());
        layers
    } else {
        e2e.into_iter()
            .filter(|m| END_TO_END_JSON.contains(&m.name.as_str()))
            .collect()
    };
    println!(
        "{}",
        json_line(&metrics, pass.attempted, pass.failures.len(), correct)
    );
    Ok(correct)
}

fn workload_name(w: Workload) -> &'static str {
    match w {
        Workload::Browse => "browse",
        Workload::Ingest => "ingest",
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("safebench: {e}");
            return ExitCode::from(2);
        }
    };
    match run(args) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("safebench: {e}");
            ExitCode::from(2)
        }
    }
}
