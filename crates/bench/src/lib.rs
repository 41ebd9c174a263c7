//! # safeweb-bench
//!
//! Shared scaffolding for the benchmark harness that regenerates the
//! SafeWeb paper's evaluation (experiment index in `DESIGN.md` §4):
//!
//! | bench target | paper artefact |
//! |--------------|----------------|
//! | `frontend`   | §5.3 page generation, 158→180 ms (+14 %) |
//! | `backend`    | §5.3 event latency, 73→84 ms (+15 %) |
//! | `throughput` | §5.3 end-to-end throughput, 4455→3817 ev/s (−17 %) |
//! | `breakdown`  | Figure 5 per-phase latency split |
//! | `tcb`        | §5.2 trusted-codebase line counts |
//! | `microbench` | ablations of the individual mechanisms |
//!
//! Absolute numbers will differ (compiled Rust vs. Ruby on 2011 hardware);
//! the *shape* — relative overheads and breakdown ordering — is the
//! reproduction target. Each bench prints a paper-vs-measured summary that
//! `EXPERIMENTS.md` records.

#![forbid(unsafe_code)]
#![deny(missing_docs)]

use std::time::Duration;

use safeweb_mdt::registry::RegistryConfig;
use safeweb_mdt::units::ProducerConfig;
use safeweb_mdt::{MdtPortal, PortalConfig, VulnConfig};
use safeweb_web::SafeWebApp;

/// The portal sizing used by the macro benches: one front page listing
/// ~100 records, mirroring the paper's MDT front page — but 20 MDTs
/// instead of the seed's 2, so the application database holds 10× the
/// documents while each page stays the same size. With the seed's O(n)
/// view scans this sizing degraded page latency linearly; the indexed
/// store keeps it flat (see the `docstore` bench for the isolated curve).
pub fn bench_registry() -> RegistryConfig {
    RegistryConfig {
        regions: 1,
        hospitals_per_region: 1,
        mdts_per_hospital: 20,
        patients_per_mdt: 100,
        seed: 0xbe1c4,
    }
}

/// Password-hash cost for the benches. Calibrated so that authentication
/// dominates the latency of a *cold* page — a credential's first
/// presentation, which runs the full KDF — as it dominated every page in
/// the paper (87 ms of 180 ms on their Ruby stack; proportionally scaled
/// here). Repeat presentations hit the verified-credential cache and skip
/// the KDF.
pub const BENCH_AUTH_ITERATIONS: u32 = 1_300_000;

/// Builds a settled portal + frontend pair.
///
/// `tracking` toggles the §5.3 baseline: `false` disables label tracking
/// in the engine *and* the frontend's response check.
pub fn bench_portal(tracking: bool) -> (MdtPortal, SafeWebApp) {
    let portal = MdtPortal::build(PortalConfig {
        registry: bench_registry(),
        producer: ProducerConfig {
            interval: Duration::from_millis(5),
            batch: 200,
        },
        vuln: VulnConfig::default(),
        auth_iterations: BENCH_AUTH_ITERATIONS,
        replication_interval: Duration::from_millis(10),
        label_tracking: tracking,
        ..PortalConfig::default()
    });
    portal.wait_for_pipeline(Duration::from_secs(120));
    let mut app = portal.frontend(&VulnConfig::default());
    if !tracking {
        app = app.with_options(safeweb_web::FrontendOptions {
            label_checking: false,
            ..Default::default()
        });
    }
    (portal, app)
}

/// Pretty-prints a paper-vs-measured comparison row.
pub fn report_row(label: &str, paper: &str, measured: &str) {
    eprintln!("  {label:<38} paper: {paper:<22} measured: {measured}");
}

/// Percentage overhead of `with` over `without`.
pub fn overhead_pct(without: f64, with: f64) -> f64 {
    if without <= 0.0 {
        return 0.0;
    }
    (with - without) / without * 100.0
}
