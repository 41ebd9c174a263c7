//! The correctness oracle: what a page must contain, what it must never
//! contain, and what the DMZ must hold once ingest has drained.

use std::collections::HashMap;
use std::fmt;

use safeweb_docstore::DocStore;
use safeweb_json::Value;
use safeweb_labels::LabelSet;
use safeweb_mdt::labels::mdt_label;
use safeweb_mdt::registry::MdtInfo;
use safeweb_mdt::MdtPortal;

use crate::inputs::{Case, Route};

/// Why one operation counts as failed.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Failure {
    /// A page answered with another status than 200.
    Status(u16),
    /// A page lacks its route marker (title, `mdt_id`, or shape).
    Marker(Route),
    /// A page shows a case that belongs to another MDT than the user's.
    Leak(i64),
    /// A reset, a timeout, or a malformed response.
    Transport(String),
    /// A case's record is missing from the DMZ, incomplete, mislabelled
    /// or wrong.
    Case(String),
    /// An MDT's aggregate disagrees with the cases it should count.
    Aggregate(String),
    /// The engine recorded a label violation.
    Violation(String),
}

impl fmt::Display for Failure {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Failure::Status(s) => write!(f, "status {s}"),
            Failure::Marker(r) => write!(f, "route marker missing on /{}", r.names().metric),
            Failure::Leak(id) => write!(f, "case {id} of another MDT disclosed"),
            Failure::Transport(e) => write!(f, "transport: {e}"),
            Failure::Case(e) => write!(f, "case: {e}"),
            Failure::Aggregate(e) => write!(f, "aggregate: {e}"),
            Failure::Violation(e) => write!(f, "engine violation: {e}"),
        }
    }
}

/// Knows which MDT owns every case id, registry patients and published
/// cases alike.
#[derive(Clone, Debug)]
pub struct Oracle {
    mdts: Vec<MdtInfo>,
    owner: HashMap<i64, usize>,
    registry_cases: Vec<i64>,
    regions: usize,
}

impl Oracle {
    /// Reads case ownership from the portal's registry.
    pub fn new(portal: &MdtPortal) -> Oracle {
        let mdts = portal.mdts().to_vec();
        let index: HashMap<i64, usize> = mdts.iter().enumerate().map(|(i, m)| (m.id, i)).collect();
        let mut owner = HashMap::new();
        let mut registry_cases = vec![0i64; mdts.len()];
        for row in portal
            .registry()
            .select("patients", |_| true)
            .expect("registry has a patients table")
        {
            let (Some(id), Some(mdt)) = (row.int("id"), row.int("mdt_id")) else {
                continue;
            };
            if let Some(&m) = index.get(&mdt) {
                owner.insert(id, m);
                registry_cases[m] += 1;
            }
        }
        let mut regions: Vec<i64> = mdts.iter().map(|m| m.region_id).collect();
        regions.sort_unstable();
        regions.dedup();
        Oracle {
            mdts,
            owner,
            registry_cases,
            regions: regions.len(),
        }
    }

    /// The portal's MDTs.
    pub fn mdts(&self) -> &[MdtInfo] {
        &self.mdts
    }

    /// Registers published cases, so pages may show them to their MDT.
    pub fn add_cases(&mut self, cases: &[Case]) {
        for case in cases {
            self.owner.insert(case.id, case.mdt);
        }
    }

    /// Checks one page served to MDT user `user` for `route` of MDT `mdt`.
    /// With `deep`, the body is also scanned for every case id and patient
    /// name it shows, each of which must belong to the user's MDT.
    ///
    /// # Errors
    ///
    /// The first failure found.
    pub fn check_page(
        &self,
        user: usize,
        route: Route,
        mdt: usize,
        status: u16,
        body: &[u8],
        deep: bool,
    ) -> Result<(), Failure> {
        if status != 200 {
            return Err(Failure::Status(status));
        }
        let text = std::str::from_utf8(body).map_err(|_| Failure::Marker(route))?;
        let mid = self.mdts[mdt].name.as_str();
        let marked = match route {
            Route::Mdt => text.contains(&format!("<title>MDT {mid}</title>")),
            Route::Compare => text.contains(&format!("<title>Compare {mid}</title>")),
            // Every record names the MDT (a scan, not a parse: the
            // generator checks every response and shares the cores with
            // the server; the deep check parses).
            Route::Records => {
                let field = "\"mdt_id\":\"";
                text.starts_with('[')
                    && text.ends_with(']')
                    && text.contains(field)
                    && text.match_indices(field).all(|(i, _)| {
                        text[i + field.len()..]
                            .strip_prefix(mid)
                            .is_some_and(|rest| rest.starts_with('"'))
                    })
            }
            Route::Metrics => Value::parse(text).ok().is_some_and(|v| {
                str_field(&v, "kind") == Some("mdt_metrics") && str_field(&v, "mdt_id") == Some(mid)
            }),
            Route::AggregatesRegional => Value::parse(text).ok().is_some_and(|v| {
                v.as_array().is_some_and(|rows| {
                    rows.len() == self.regions
                        && rows
                            .iter()
                            .all(|r| str_field(r, "kind") == Some("regional_metrics"))
                })
            }),
        };
        if !marked {
            return Err(Failure::Marker(route));
        }
        if deep {
            for id in shown_case_ids(route, text) {
                if self.owner.get(&id) != Some(&user) {
                    return Err(Failure::Leak(id));
                }
            }
        }
        Ok(())
    }

    /// Checks that every case in `cases` is complete in the DMZ: its
    /// record at generation 3, labelled exactly with its MDT's label, and
    /// holding exactly the fields the case was published with.
    pub fn check_cases(&self, dmz: &DocStore, cases: &[Case]) -> Vec<Failure> {
        let mut failures = Vec::new();
        for case in cases {
            let id = case.doc_id(&self.mdts);
            let Some(doc) = dmz.get(&id) else {
                failures.push(Failure::Case(format!("{id} missing")));
                continue;
            };
            if doc.rev().generation() != 3 {
                failures.push(Failure::Case(format!(
                    "{id} at generation {}",
                    doc.rev().generation()
                )));
                continue;
            }
            if *doc.labels() != LabelSet::singleton(mdt_label(&self.mdts[case.mdt].name)) {
                failures.push(Failure::Case(format!("{id} labelled {:?}", doc.labels())));
                continue;
            }
            let body = doc.body();
            let text = |k: &str| str_field(body, k);
            let int = |k: &str| body.get(k).and_then(Value::as_i64);
            let mdt = &self.mdts[case.mdt];
            let case_id = case.id.to_string();
            let expected = text("case_id") == Some(case_id.as_str())
                && text("mdt_id") == Some(mdt.name.as_str())
                && text("name") == Some(case.name().as_str())
                && int("birth_year") == Some(case.birth_year)
                && text("site") == Some(mdt.clinic.as_str())
                && text("stage") == Some(case.stage)
                && int("diagnosed") == Some(case.diagnosed)
                && text("treatment") == Some(case.treatment)
                && int("completeness") == Some(100);
            if !expected {
                failures.push(Failure::Case(format!("{id} has wrong fields")));
            }
        }
        failures
    }

    /// Checks every MDT's `metrics-<mdt>` aggregate in the DMZ: its
    /// `cases` count must be the registry's plus every case published for
    /// that MDT.
    pub fn check_aggregates(&self, dmz: &DocStore, published: &[Case]) -> Vec<Failure> {
        let mut expected = self.registry_cases.clone();
        for case in published {
            expected[case.mdt] += 1;
        }
        let mut failures = Vec::new();
        for (mdt, want) in self.mdts.iter().zip(expected) {
            let got = dmz
                .get(&format!("metrics-{}", mdt.name))
                .and_then(|d| d.body().get("cases").and_then(Value::as_i64));
            if got != Some(want) {
                failures.push(Failure::Aggregate(format!(
                    "metrics-{} counts {got:?} cases, expected {want}",
                    mdt.name
                )));
            }
        }
        failures
    }

    /// Registry cases of MDT `mdt`.
    pub fn registry_cases(&self, mdt: usize) -> i64 {
        self.registry_cases[mdt]
    }
}

fn str_field<'a>(value: &'a Value, key: &str) -> Option<&'a str> {
    value.get(key).and_then(Value::as_str)
}

/// Every case id a page shows: `case_id` fields of JSON records, the
/// first cell of front-page rows, and every `patient-<id>` name.
fn shown_case_ids(route: Route, text: &str) -> Vec<i64> {
    let mut ids = Vec::new();
    if route == Route::Records {
        if let Some(rows) = Value::parse(text).ok().as_ref().and_then(Value::as_array) {
            ids.extend(
                rows.iter()
                    .filter_map(|r| str_field(r, "case_id")?.parse::<i64>().ok()),
            );
        }
    }
    // Front-page rows open with the case id; comparison rows open with
    // an MDT name, which does not parse as an id.
    for (i, _) in text.match_indices("<tr><td>") {
        let cell = &text[i + "<tr><td>".len()..];
        if let Some(end) = cell.find("</td>") {
            if let Ok(id) = cell[..end].parse() {
                ids.push(id);
            }
        }
    }
    for (i, _) in text.match_indices("patient-") {
        let digits: String = text[i + "patient-".len()..]
            .chars()
            .take_while(char::is_ascii_digit)
            .collect();
        if let Ok(id) = digits.parse() {
            ids.push(id);
        }
    }
    ids
}
