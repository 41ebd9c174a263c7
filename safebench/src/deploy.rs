//! The deployment under test: the MDT portal's full Figure-4 pipeline,
//! built with shipped defaults, served over HTTP and STOMP on loopback.

use std::path::PathBuf;
use std::time::{Duration, Instant};

use safeweb_broker::BrokerServer;
use safeweb_http::{client, HttpServer, Method, Request};
use safeweb_json::Value;
use safeweb_mdt::registry::RegistryConfig;
use safeweb_mdt::{password_for, MdtPortal, PortalConfig, VulnConfig};
use safeweb_web::SafeWebApp;

use crate::inputs::Route;
use crate::oracle::Oracle;

/// The registry: 2 regions × 3 hospitals × 4 MDTs × 100 patients, so 24
/// MDT users, 2,400 cases and front pages of about 100 rows.
pub fn registry() -> RegistryConfig {
    RegistryConfig {
        regions: 2,
        hospitals_per_region: 3,
        mdts_per_hospital: 4,
        patients_per_mdt: 100,
        ..RegistryConfig::default()
    }
}

/// The portal configuration: shipped defaults for every knob but the
/// registry size and a durable data directory.
pub fn portal_config(data_dir: PathBuf) -> PortalConfig {
    PortalConfig {
        registry: registry(),
        data_dir: Some(data_dir),
        ..PortalConfig::default()
    }
}

/// How long the registry pipeline may take to settle.
const SETTLE_TIMEOUT: Duration = Duration::from_secs(60);

/// Removes a deployment's data directory once everything using it is
/// gone (it is the last field of [`Deployment`]).
#[derive(Debug)]
struct DataDir(PathBuf);

impl Drop for DataDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// A running, settled deployment with its frontends bound.
pub struct Deployment {
    /// The HTTP frontend, served by `SafeWebDeployment::serve`.
    pub http: HttpServer,
    /// The STOMP broker frontend on the deployment's broker and policy.
    pub broker: BrokerServer,
    /// The portal.
    pub portal: MdtPortal,
    /// Case ownership for the correctness checks.
    pub oracle: Oracle,
    /// Build, settle and first validated page, in seconds.
    pub setup_s: f64,
    _dir: DataDir,
}

impl Deployment {
    /// Builds the portal under `data_dir`, waits until all 2,400 registry
    /// cases are aggregated and replicated, binds both frontends, and
    /// fetches one page through the oracle.
    ///
    /// # Errors
    ///
    /// Why the deployment did not come up.
    pub fn start(data_dir: PathBuf) -> Result<Deployment, String> {
        let _ = std::fs::remove_dir_all(&data_dir);
        let dir = DataDir(data_dir.clone());
        let started = Instant::now();
        let portal = MdtPortal::build(portal_config(data_dir));
        let oracle = Oracle::new(&portal);
        settle(&portal, &oracle)?;
        let deployment = portal.deployment();
        let http = deployment
            .serve(portal.frontend(&VulnConfig::default()), "127.0.0.1:0")
            .map_err(|e| format!("serve: {e}"))?;
        let broker = BrokerServer::bind(
            "127.0.0.1:0",
            deployment.broker().clone(),
            deployment.policy().clone(),
        )
        .map_err(|e| format!("broker bind: {e}"))?;
        let mdt = &portal.mdts()[0].name;
        let response = client::send(
            &http.addr().to_string(),
            Request::new(Method::Get, &Route::Mdt.target(mdt))
                .with_basic_auth(mdt, &password_for(mdt)),
        )
        .map_err(|e| format!("first page: {e}"))?;
        oracle
            .check_page(0, Route::Mdt, 0, response.status(), response.body(), true)
            .map_err(|f| format!("first page: {f}"))?;
        Ok(Deployment {
            http,
            broker,
            setup_s: started.elapsed().as_secs_f64(),
            portal,
            oracle,
            _dir: dir,
        })
    }

    /// The HTTP frontend address.
    pub fn http_addr(&self) -> String {
        self.http.addr().to_string()
    }

    /// The broker address.
    pub fn broker_addr(&self) -> String {
        self.broker.addr().to_string()
    }

    /// A second frontend over the same deployment, for in-process replay.
    pub fn replay_app(&self) -> SafeWebApp {
        self.portal.frontend(&VulnConfig::default())
    }
}

/// Waits until every MDT's aggregate in the DMZ counts all its registry
/// cases and the pipeline is quiet.
fn settle(portal: &MdtPortal, oracle: &Oracle) -> Result<(), String> {
    let deadline = Instant::now() + SETTLE_TIMEOUT;
    let dmz = portal.deployment().dmz_db();
    loop {
        let counted = oracle.mdts().iter().enumerate().all(|(i, m)| {
            dmz.get(&format!("metrics-{}", m.name))
                .and_then(|d| d.body().get("cases").and_then(Value::as_i64))
                == Some(oracle.registry_cases(i))
        });
        if counted {
            return quiesce(portal, deadline);
        }
        if Instant::now() >= deadline {
            return Err(format!(
                "registry pipeline did not settle within {SETTLE_TIMEOUT:?}"
            ));
        }
        std::thread::sleep(Duration::from_millis(5));
    }
}

/// Waits until no message is queued, the application store has stopped
/// changing and replication has caught up with it.
///
/// # Errors
///
/// When that does not happen by `deadline`.
pub fn quiesce(portal: &MdtPortal, deadline: Instant) -> Result<(), String> {
    let deployment = portal.deployment();
    let mut last_seq = None;
    loop {
        let seq = deployment.app_db().seq();
        let still = last_seq == Some(seq);
        last_seq = Some(seq);
        let caught_up = deployment.replication_checkpoint() == Some(seq);
        let idle = deployment
            .metrics()
            .snapshot()
            .get("sched.queued_messages")
            .and_then(Value::as_f64)
            == Some(0.0);
        if still && caught_up && idle {
            return Ok(());
        }
        if Instant::now() >= deadline {
            return Err("the pipeline did not go quiet".to_string());
        }
        std::thread::sleep(Duration::from_millis(5));
    }
}
