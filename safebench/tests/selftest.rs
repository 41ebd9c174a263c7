//! Self-tests of the benchmark's own machinery: the percentile rule, seed
//! determinism of the inputs, and the correctness oracle against a portal
//! that really leaks.

use std::time::{Duration, Instant};

use safeweb_mdt::registry::{self, RegistryConfig};
use safeweb_mdt::{MdtPortal, PortalConfig, VulnConfig};
use safeweb_safebench::deploy;
use safeweb_safebench::http::{self, Pace};
use safeweb_safebench::inputs::{self, PageRequest, Route, CASE_ID_BASE};
use safeweb_safebench::oracle::{Failure, Oracle};
use safeweb_safebench::spans::SpanLog;
use safeweb_safebench::stats::{percentile, TAIL_SAMPLES};
use safeweb_web::FrontendOptions;

#[test]
fn percentile_keeps_ten_samples_beyond_it() {
    let thousand: Vec<f64> = (1..=1000).map(f64::from).collect();
    let p99 = percentile(&thousand, 0.99).expect("enough samples");
    assert_eq!((p99.value, p99.q, p99.n), (990.0, 0.99, 1000));
    assert_eq!(
        thousand.iter().filter(|&&v| v > p99.value).count(),
        TAIL_SAMPLES
    );

    // One sample short of a p99: the highest percentile with ten beyond.
    let short: Vec<f64> = (1..=999).map(f64::from).collect();
    let capped = percentile(&short, 0.99).expect("enough samples");
    assert!(capped.q < 0.99);
    assert_eq!(
        short.iter().filter(|&&v| v > capped.value).count(),
        TAIL_SAMPLES
    );

    let p50 = percentile(&thousand, 0.5).expect("enough samples");
    assert_eq!(p50.value, 500.0);
    assert!(percentile(&thousand[..TAIL_SAMPLES], 0.5).is_none());
    assert_eq!(
        percentile(&thousand[..TAIL_SAMPLES + 1], 0.99).map(|p| p.value),
        Some(1.0)
    );
}

#[test]
fn same_seed_same_bytes() {
    let mdts = registry::list_mdts(&registry::generate(&deploy::registry()));
    let wire = |seed| {
        inputs::wire_bytes(
            &inputs::page_requests(seed, 1, 500, mdts.len()),
            &inputs::cases(seed, 2, 500, mdts.len()),
            &mdts,
        )
    };
    assert_eq!(wire(7), wire(7));
    assert_ne!(wire(7), wire(8));

    let cases = inputs::cases(7, 2, 5000, mdts.len());
    let mut ids: Vec<i64> = cases.iter().map(|c| c.id).collect();
    ids.sort_unstable();
    ids.dedup();
    assert_eq!(ids.len(), cases.len(), "case ids are distinct");
    assert!(ids[0] > CASE_ID_BASE, "case ids lie outside the registry");

    // The page mix holds its shares (30/20/20/20/10) and every user asks
    // for their own MDT.
    let pages = inputs::page_requests(7, 1, 20_000, mdts.len());
    for (route, share) in Route::ALL.into_iter().zip([30.0, 20.0, 20.0, 20.0, 10.0]) {
        let n = pages.iter().filter(|p| p.route == route).count();
        let got = n as f64 * 100.0 / pages.len() as f64;
        assert!((got - share).abs() < 1.5, "{route:?}: {got:.1}% of pages");
    }
    assert!(pages.iter().all(|p| p.user == p.mdt));
}

/// Builds a small portal and serves it; `vulnerable` drops both the
/// application's access check and the frontend's label check.
fn serve(vulnerable: bool) -> (MdtPortal, safeweb_http::HttpServer, Oracle) {
    let vuln = VulnConfig {
        omitted_access_check: vulnerable,
        ..VulnConfig::default()
    };
    let portal = MdtPortal::build(PortalConfig {
        registry: RegistryConfig::default(),
        vuln,
        auth_iterations: 1_000,
        ..PortalConfig::default()
    });
    portal.wait_for_pipeline(Duration::from_secs(60));
    let app = portal.frontend(&vuln).with_options(FrontendOptions {
        label_checking: !vulnerable,
        ..FrontendOptions::default()
    });
    let server = portal
        .deployment()
        .serve(app, "127.0.0.1:0")
        .expect("bind frontend");
    let oracle = Oracle::new(&portal);
    (portal, server, oracle)
}

/// Each user asks for the records of the next MDT.
fn cross_mdt_records(mdts: usize) -> Vec<PageRequest> {
    (0..mdts)
        .map(|user| PageRequest {
            user,
            mdt: (user + 1) % mdts,
            route: Route::Records,
            deep_check: true,
        })
        .collect()
}

fn run(
    server: &safeweb_http::HttpServer,
    oracle: &Oracle,
    reqs: &[PageRequest],
) -> http::PageOutcome {
    let wire: Vec<Vec<u8>> = reqs.iter().map(|r| r.wire(oracle.mdts())).collect();
    let pace = Pace::Open {
        start: Instant::now(),
        offset: Duration::ZERO,
        interval: Duration::from_millis(1),
    };
    let mut spans = SpanLog::new(false, 0);
    http::drive(
        &server.addr().to_string(),
        reqs,
        &wire,
        pace,
        oracle,
        &mut spans,
        None,
    )
}

#[test]
fn oracle_counts_a_cross_mdt_leak_as_failed() {
    let (_portal, server, oracle) = serve(true);
    let mdts = oracle.mdts().len();

    // Negative control: with both checks gone, another MDT's records are
    // served with status 200, and the oracle must fail every one of them
    // as a leak.
    let out = run(&server, &oracle, &cross_mdt_records(mdts));
    assert_eq!(out.attempted, mdts);
    assert_eq!(out.failures.len(), mdts, "every cross-MDT page fails");
    assert!(
        out.failures.iter().all(|f| matches!(f, Failure::Leak(_))),
        "{:?}",
        out.failures
    );

    // The same portal serving users their own MDT passes the oracle, so
    // the failures above are the leak and nothing else.
    let own: Vec<PageRequest> = (0..mdts)
        .flat_map(|user| {
            Route::ALL.into_iter().map(move |route| PageRequest {
                user,
                mdt: user,
                route,
                deep_check: true,
            })
        })
        .collect();
    let out = run(&server, &oracle, &own);
    assert!(out.failures.is_empty(), "{:?}", out.failures);
    assert_eq!(out.samples.len(), own.len());
}

#[test]
fn shipped_portal_refuses_cross_mdt_records() {
    let (_portal, server, oracle) = serve(false);
    let out = run(&server, &oracle, &cross_mdt_records(oracle.mdts().len()));
    assert!(out.samples.is_empty());
    assert!(
        out.failures
            .iter()
            .all(|f| matches!(f, Failure::Status(403))),
        "{:?}",
        out.failures
    );
}
