//! The generated inputs: page requests and ingest cases, derived from the
//! seed alone. The deployment never sees the seed, only these inputs.

use safeweb_broker::wire::event_to_frame;
use safeweb_events::{Event, EventId, LabelledEvent};
use safeweb_http::base64;
use safeweb_json::jobject;
use safeweb_labels::LabelSet;
use safeweb_mdt::labels::mdt_label;
use safeweb_mdt::password_for;
use safeweb_mdt::registry::MdtInfo;
use safeweb_mdt::units::PATIENT_REPORT_TOPIC;
use safeweb_stomp::codec::encode;
use safeweb_stomp::Command;

use crate::rng::Rng;

/// The portal routes the page mix requests.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Route {
    /// `/mdt/:mid`, the HTML front page (~100 rows).
    Mdt,
    /// `/records/:mid`, the MDT's records as JSON.
    Records,
    /// `/metrics/:mid`, the MDT's aggregate (render-cached).
    Metrics,
    /// `/compare/:mid`, the region comparison page (render-cached).
    Compare,
    /// `/aggregates/regional`, every region's aggregate (render-cached).
    AggregatesRegional,
}

impl Route {
    /// Every route, in report order.
    pub const ALL: [Route; 5] = [
        Route::Mdt,
        Route::Records,
        Route::Metrics,
        Route::Compare,
        Route::AggregatesRegional,
    ];

    /// The route's static names, all derived from the one in metric
    /// names.
    pub fn names(self) -> RouteNames {
        macro_rules! names {
            ($name:literal) => {
                RouteNames {
                    metric: $name,
                    client_span: concat!("client.", $name),
                    replay_span: concat!("replay.", $name),
                    handle_span: concat!("web.handle.", $name),
                }
            };
        }
        match self {
            Route::Mdt => names!("mdt"),
            Route::Records => names!("records"),
            Route::Metrics => names!("metrics"),
            Route::Compare => names!("compare"),
            Route::AggregatesRegional => names!("aggregates_regional"),
        }
    }

    /// The request target for MDT `mid`.
    pub fn target(self, mid: &str) -> String {
        match self {
            Route::Mdt => format!("/mdt/{mid}"),
            Route::Records => format!("/records/{mid}"),
            Route::Metrics => format!("/metrics/{mid}"),
            Route::Compare => format!("/compare/{mid}"),
            Route::AggregatesRegional => "/aggregates/regional".to_string(),
        }
    }
}

/// The static names of one route.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RouteNames {
    /// In metric names: `web.route_p50_ms.<metric>`.
    pub metric: &'static str,
    /// The benchmark's span around the client request.
    pub client_span: &'static str,
    /// The root span of the request's in-process replay.
    pub replay_span: &'static str,
    /// The replay's span around `SafeWebApp::handle`.
    pub handle_span: &'static str,
}

/// The page mix in percent: the front page most, aggregates least.
const ROUTE_MIX: [(Route, u64); 5] = [
    (Route::Mdt, 30),
    (Route::Records, 20),
    (Route::Metrics, 20),
    (Route::Compare, 20),
    (Route::AggregatesRegional, 10),
];

/// Share of responses, in percent, that the oracle scans in full for
/// case ids of other MDTs.
const DEEP_CHECK_PERCENT: u64 = 10;

/// One page request: MDT user `user` asks for `route` of MDT `mdt`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct PageRequest {
    /// Index of the requesting MDT user in the portal's MDT list.
    pub user: usize,
    /// Index of the MDT the path names (the user's own in every workload;
    /// another one only in the oracle's negative control).
    pub mdt: usize,
    /// The route.
    pub route: Route,
    /// Whether the oracle scans this response for other MDTs' case ids.
    pub deep_check: bool,
}

impl PageRequest {
    /// The request's wire bytes: a keep-alive GET with basic credentials.
    pub fn wire(&self, mdts: &[MdtInfo]) -> Vec<u8> {
        let user = &mdts[self.user].name;
        let token = base64::encode(format!("{user}:{}", password_for(user)).as_bytes());
        format!(
            "GET {} HTTP/1.1\r\nhost: safeweb\r\nauthorization: Basic {token}\r\n\r\n",
            self.route.target(&mdts[self.mdt].name)
        )
        .into_bytes()
    }
}

/// `n` page requests of the mix: each of `users` MDT users asks for
/// their own MDT.
pub fn page_requests(seed: u64, stream: u64, n: usize, users: usize) -> Vec<PageRequest> {
    let mut rng = Rng::new(seed, stream);
    (0..n)
        .map(|_| {
            let user = rng.below(users as u64) as usize;
            let mut roll = rng.below(100);
            let route = ROUTE_MIX
                .iter()
                .find(|(_, share)| {
                    let hit = roll < *share;
                    roll = roll.saturating_sub(*share);
                    hit
                })
                .map_or(Route::Mdt, |(route, _)| *route);
            PageRequest {
                user,
                mdt: user,
                route,
                deep_check: rng.below(100) < DEEP_CHECK_PERCENT,
            }
        })
        .collect()
}

/// The id prefix of every event the generator publishes.
const EVENT_ID_PREFIX: u64 = 0x5afe_be9c;

/// Benchmark case ids start here, far above any registry patient id.
pub const CASE_ID_BASE: i64 = 1_000_000_000;

const STAGES: [&str; 4] = ["I", "II", "III", "IV"];
const TREATMENTS: [&str; 5] = [
    "surgery",
    "chemotherapy",
    "radiotherapy",
    "hormone",
    "watchful",
];

/// One cancer case, published as a patient, a tumour and a treatment
/// event; complete once its record reaches generation 3.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Case {
    /// Unique case id, outside the registry's id range.
    pub id: i64,
    /// Index of the treating MDT.
    pub mdt: usize,
    /// Birth year.
    pub birth_year: i64,
    /// Tumour stage.
    pub stage: &'static str,
    /// Year of diagnosis.
    pub diagnosed: i64,
    /// Treatment kind.
    pub treatment: &'static str,
}

impl Case {
    /// The patient name, in the registry's `patient-<id>` form so that the
    /// oracle's leak scan recognises it.
    pub fn name(&self) -> String {
        format!("patient-{}", self.id)
    }

    /// The id of the case's record document.
    pub fn doc_id(&self, mdts: &[MdtInfo]) -> String {
        format!("record-{}-{}", mdts[self.mdt].name, self.id)
    }

    /// The three events, labelled with the treating MDT's label as the
    /// paper's data producer labels them.
    pub fn events(&self, mdts: &[MdtInfo]) -> [LabelledEvent; 3] {
        let mdt = &mdts[self.mdt];
        let labels = LabelSet::singleton(mdt_label(&mdt.name));
        let case_id = self.id.to_string();
        let hospital = mdt.hospital_id.to_string();
        let region = mdt.region_id.to_string();
        let event = |part: u64, kind: &str, payload: String| {
            let mut event = Event::new(PATIENT_REPORT_TOPIC).expect("static topic is valid");
            // Ids from the case, not the process counter, so that the
            // bytes on the wire depend on the seed alone.
            event.set_id(EventId::from_parts(
                EVENT_ID_PREFIX,
                self.id as u64 * 3 + part,
            ));
            event
                .with_attr("kind", kind)
                .with_attr("type", "cancer")
                .with_attr("case_id", &case_id)
                .with_attr("mdt", &mdt.name)
                .with_attr("hospital_id", &hospital)
                .with_attr("region_id", &region)
                .with_attr("clinic", &mdt.clinic)
                .with_payload(payload)
                .with_label_set(labels)
        };
        [
            event(
                0,
                "patient",
                jobject! {"name" => self.name(), "birth_year" => self.birth_year}.to_json(),
            ),
            event(
                1,
                "tumour",
                jobject! {
                    "site" => mdt.clinic.as_str(),
                    "stage" => self.stage,
                    "diagnosed" => self.diagnosed,
                }
                .to_json(),
            ),
            event(
                2,
                "treatment",
                jobject! {"kind" => self.treatment}.to_json(),
            ),
        ]
    }
}

/// `n` cases spread over `mdts` MDTs, with distinct ids.
pub fn cases(seed: u64, stream: u64, n: usize, mdts: usize) -> Vec<Case> {
    let mut rng = Rng::new(seed, stream);
    // Each stream owns a disjoint id block, so phases of one run never
    // reuse an id.
    let block = CASE_ID_BASE + stream as i64 * 100_000_000;
    (0..n)
        .map(|i| Case {
            id: block + i as i64 * 16 + rng.below(16) as i64,
            mdt: rng.below(mdts as u64) as usize,
            birth_year: 1930 + rng.below(60) as i64,
            stage: rng.pick(&STAGES),
            diagnosed: 2000 + rng.below(11) as i64,
            treatment: rng.pick(&TREATMENTS),
        })
        .collect()
}

/// The exact bytes a seed's inputs put on the wire: page requests, then
/// each case's STOMP `SEND` frames. Equal seeds give equal bytes.
pub fn wire_bytes(pages: &[PageRequest], cases: &[Case], mdts: &[MdtInfo]) -> Vec<u8> {
    let mut bytes = Vec::new();
    for page in pages {
        bytes.extend(page.wire(mdts));
    }
    for case in cases {
        for event in case.events(mdts) {
            bytes.extend(encode(&event_to_frame(&event, Command::Send)));
        }
    }
    bytes
}
