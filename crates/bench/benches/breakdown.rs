//! **E4/E5 — Figure 5: processing-latency breakdown.**
//!
//! Paper (frontend, 180 ms total): authentication 87 ms, privilege
//! fetching 3 ms, template rendering 63 ms, label propagation 17 ms,
//! other 10 ms. Paper (backend, 84 ms total): event processing 51 ms,
//! data (de)serialisation 20 ms, label management 13 ms.
//!
//! This harness reproduces both stacked bars. The frontend phases come
//! from the middleware's own per-phase counters. The paper verified the
//! password on every request; here only a credential's first presentation
//! runs the KDF. So the Figure-5 rows are the *cold* requests (the first
//! of each of the 20 MDT users), and the cached-credential cost gets rows
//! of its own. The backend phases are measured directly on the same
//! artefacts the paper's pipeline exercises (aggregation callback work,
//! STOMP encode/decode of a labelled event, label parse/combine/check).
//!
//! Not a statistical benchmark — a measured reproduction of a figure.
//! Run with `cargo bench -p safeweb-bench --bench breakdown`.

use std::time::{Duration, Instant};

use safeweb_bench::{bench_portal, report_row};
use safeweb_broker::wire::{event_to_frame, frame_to_event};
use safeweb_events::Event;
use safeweb_http::{Method, Request};
use safeweb_labels::{Label, LabelSet, Privilege, PrivilegeSet};
use safeweb_mdt::password_for;
use safeweb_stomp::codec::{encode, Decoder};
use safeweb_stomp::Command;
use safeweb_web::SafeWebApp;

fn main() {
    frontend_breakdown();
    backend_breakdown();
}

fn frontend_breakdown() {
    eprintln!("=== E4: Figure 5 — frontend latency breakdown ===");
    let (portal, app) = bench_portal(true);
    let requests: Vec<Request> = portal
        .mdts()
        .iter()
        .map(|mdt| {
            Request::new(Method::Get, &format!("/mdt/{}", mdt.name))
                .with_basic_auth(&mdt.name, &password_for(&mdt.name))
        })
        .collect();

    // Cold: the first request from each MDT user. The full KDF verifies
    // its password, as the paper's basic auth did on every request, and
    // its page is rendered and label-checked for the first time.
    let cold = measure(&app, &requests, 1);
    // Warm: the same users again, with their credentials cached.
    const WARM_ROUNDS: usize = 5;
    let warm = measure(&app, &requests, WARM_ROUNDS);

    eprintln!(
        "  [cold: first request of each of {} users]",
        requests.len()
    );
    report_row("authentication", "87 ms", &format!("{:.3} ms", cold.auth));
    report_row(
        "privilege fetching",
        "3 ms",
        &format!("{:.3} ms", cold.fetch),
    );
    report_row(
        "template rendering (handler)",
        "63 ms",
        &format!("{:.3} ms", cold.render),
    );
    report_row(
        "label propagation + check",
        "17 ms",
        &format!("{:.3} ms", cold.label),
    );
    report_row("other", "10 ms", &format!("{:.3} ms", cold.other()));
    report_row(
        "total page generation",
        "180 ms",
        &format!("{:.3} ms", cold.total),
    );
    eprintln!(
        "  [warm: {} requests, credentials cached]",
        WARM_ROUNDS * requests.len()
    );
    report_row(
        "authentication (cached credential)",
        "-",
        &format!("{:.3} ms", warm.auth),
    );
    report_row(
        "total page generation",
        "-",
        &format!("{:.3} ms", warm.total),
    );
    let ordering_ok = cold.auth > cold.render && cold.render > cold.fetch;
    eprintln!(
        "  cold breakdown ordering (auth > render > privilege fetch): {}",
        if ordering_ok {
            "reproduced"
        } else {
            "NOT reproduced"
        }
    );
    eprintln!();
}

/// Mean per-request milliseconds, overall and per Figure-5 phase.
struct Phases {
    total: f64,
    auth: f64,
    fetch: f64,
    render: f64,
    label: f64,
}

impl Phases {
    fn other(&self) -> f64 {
        (self.total - self.auth - self.fetch - self.render - self.label).max(0.0)
    }
}

/// Serves `rounds` passes over `requests` and reads the middleware's own
/// phase counters around them.
fn measure(app: &SafeWebApp, requests: &[Request], rounds: usize) -> Phases {
    let stats = app.stats();
    let counters = || {
        [
            stats.auth_ns(),
            stats.privilege_fetch_ns(),
            stats.handler_ns(),
            stats.label_check_ns(),
        ]
    };
    let before = counters();
    let start = Instant::now();
    for _ in 0..rounds {
        for request in requests {
            assert_eq!(app.handle(request).status(), 200);
        }
    }
    let n = (rounds * requests.len()) as f64;
    let total = duration_ms(start.elapsed()) / n;
    let after = counters();
    let [auth, fetch, render, label] =
        std::array::from_fn(|i| (after[i] - before[i]) as f64 / 1e6 / n);
    Phases {
        total,
        auth,
        fetch,
        render,
        label,
    }
}

fn backend_breakdown() {
    eprintln!("=== E5: Figure 5 — backend latency breakdown ===");
    const N: u32 = 20_000;

    // A representative labelled event: the aggregator's input shape.
    let labels = [
        Label::conf("e", "patient/33812769"),
        Label::conf("e", "mdt/a"),
        Label::conf("e", "hospital/1"),
        Label::int("e", "mdt"),
    ];
    let event = Event::new("/patient_report")
        .unwrap()
        .with_attr("kind", "patient")
        .with_attr("type", "cancer")
        .with_attr("case_id", "33812769")
        .with_attr("mdt", "mdt-a")
        .with_payload("z".repeat(1024))
        .with_labels(labels.clone());

    // Phase 1: event processing — the aggregator's per-event application
    // work: parse the accumulated case record, fold the new piece in,
    // recompute the completeness metric, and re-serialise the record plus
    // the two aggregate states it maintains (the paper's event processing
    // covers the full application callback).
    let mut record = safeweb_json::Value::object();
    for i in 0..60 {
        record.set(
            &format!("field_{i:02}"),
            format!("value-{i}-of-the-case-record"),
        );
    }
    record.set("name", "patient-33812769");
    record.set("birth_year", 1947);
    let record_json = record.to_json();
    let stats_json = safeweb_json::jobject! {"cases" => 41, "completeness_sum" => 3317.0}.to_json();
    let processing = time_per_op(N, || {
        let mut rec = safeweb_json::Value::parse(&record_json).unwrap();
        rec.set("stage", "II");
        let filled = rec
            .as_object()
            .map(|o| o.values().filter(|v| !v.is_null()).count())
            .unwrap_or(0);
        rec.set("completeness", (filled as f64 / 66.0 * 100.0).round());
        let mut stats = safeweb_json::Value::parse(&stats_json).unwrap();
        let cases = stats
            .get("cases")
            .and_then(safeweb_json::Value::as_i64)
            .unwrap_or(0)
            + 1;
        stats.set("cases", cases);
        let out = rec.to_json();
        let stats_out = stats.to_json();
        std::hint::black_box((out, stats_out))
    });

    // Phase 2: data (de)serialisation — STOMP encode + incremental decode
    // of the full labelled event.
    let serialisation = time_per_op(N, || {
        let frame = event_to_frame(&event, Command::Send);
        let bytes = encode(&frame);
        let mut decoder = Decoder::new();
        decoder.feed(&bytes);
        let back = decoder.next_frame().unwrap().unwrap();
        std::hint::black_box(frame_to_event(&back).unwrap())
    });

    // Phase 3: label management — wire-parse, combine, privilege check:
    // what the broker and jail add per event.
    let privileges: PrivilegeSet = labels.iter().cloned().map(Privilege::clearance).collect();
    let wire = event.labels().to_wire();
    let other_set = LabelSet::singleton(Label::conf("e", "patient/other"));
    let label_mgmt = time_per_op(N, || {
        let parsed = LabelSet::from_wire(&wire).unwrap();
        let combined = parsed.combine(&other_set);
        std::hint::black_box(combined.flows_to(&privileges))
    });

    let total = processing + serialisation + label_mgmt;
    report_row(
        "event processing",
        "51 ms",
        &format!("{:.4} ms", processing),
    );
    report_row(
        "data (de)serialisation",
        "20 ms",
        &format!("{:.4} ms", serialisation),
    );
    report_row(
        "label management",
        "13 ms",
        &format!("{:.4} ms", label_mgmt),
    );
    report_row("total per event", "84 ms", &format!("{:.4} ms", total));
    let ordering_ok = processing > serialisation && serialisation > label_mgmt;
    eprintln!(
        "  breakdown ordering (processing > serialisation > labels): {}",
        if ordering_ok {
            "reproduced"
        } else {
            "NOT reproduced"
        }
    );
    let share = label_mgmt / total * 100.0;
    eprintln!("  label management share of event cost: paper 15.5% — measured {share:.1}%");
}

fn time_per_op<R>(n: u32, mut op: impl FnMut() -> R) -> f64 {
    // Warm-up.
    for _ in 0..(n / 10).max(1) {
        op();
    }
    let start = Instant::now();
    for _ in 0..n {
        op();
    }
    duration_ms(start.elapsed()) / n as f64
}

fn duration_ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1000.0
}
