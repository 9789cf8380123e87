//! The object-prediction module — the Python-script component of the
//! paper's adversary (Section V).
//!
//! Inputs: the captured trace (sizes + timing only). Pipeline: take
//! the server→client TLS records the capture read, segment them into
//! transmission units ([`h2priv_trace::analysis`]), estimate each unit's
//! object size, and match the estimates against a **pre-compiled size →
//! identity map** (the paper: "our adversary has a pre-compiled list of
//! image size to political party mapping").

use h2priv_netsim::packet::Direction;
use h2priv_netsim::time::{SimDuration, SimTime};
use h2priv_trace::analysis::{segment_units, TransmissionUnit, UnitConfig};
use h2priv_trace::capture::Trace;
use h2priv_trace::datagram::{segment_datagram_units, DatagramUnitConfig};
use h2priv_util::impl_to_json;
use h2priv_util::telemetry;
use h2priv_web::isidewith::{PARTY_IMAGE_SIZES, RESULT_HTML_SIZE};
use h2priv_web::Party;

/// The label the isidewith size map uses for the result HTML.
pub const HTML_LABEL: &str = "result-html";

/// A size → identity lookup with relative-tolerance matching.
#[derive(Debug, Clone)]
pub struct SizeMap {
    entries: Vec<(String, u64)>,
    tolerance: f64,
}

impl_to_json!(struct SizeMap { entries, tolerance });

impl SizeMap {
    /// Builds a map with the given relative tolerance (e.g. `0.03` for
    /// ±3 %).
    ///
    /// # Panics
    /// Panics if `tolerance` is negative or entries are empty.
    pub fn new(entries: Vec<(String, u64)>, tolerance: f64) -> SizeMap {
        assert!(tolerance >= 0.0, "negative tolerance");
        assert!(!entries.is_empty(), "empty size map");
        SizeMap { entries, tolerance }
    }

    /// The paper's pre-compiled isidewith map: 8 party emblems plus the
    /// result HTML, ±3 % tolerance.
    pub fn isidewith() -> SizeMap {
        let mut entries: Vec<(String, u64)> = Party::ALL
            .iter()
            .zip(PARTY_IMAGE_SIZES)
            .map(|(p, s)| (p.label().to_string(), s))
            .collect();
        entries.push((HTML_LABEL.to_string(), RESULT_HTML_SIZE));
        SizeMap::new(entries, 0.03)
    }

    /// Identifies an estimated size; `Some` only when exactly one entry
    /// matches within tolerance.
    pub fn identify(&self, estimated: u64) -> Option<&str> {
        let mut hit: Option<&str> = None;
        for (label, size) in &self.entries {
            let lo = *size as f64 * (1.0 - self.tolerance);
            let hi = *size as f64 * (1.0 + self.tolerance);
            if (estimated as f64) >= lo && (estimated as f64) <= hi {
                if hit.is_some() {
                    return None; // ambiguous
                }
                hit = Some(label);
            }
        }
        hit
    }

    /// The known size for a label.
    pub fn size_of(&self, label: &str) -> Option<u64> {
        self.entries
            .iter()
            .find(|(l, _)| l == label)
            .map(|(_, s)| *s)
    }

    /// The (label, size) entries, for subset matching
    /// ([`crate::partial`]).
    pub fn entries(&self) -> &[(String, u64)] {
        &self.entries
    }
}

/// One segmented unit plus the predictor's verdict.
#[derive(Debug, Clone)]
pub struct IdentifiedUnit {
    /// The transmission unit.
    pub unit: TransmissionUnit,
    /// Identified label, if the size matched uniquely.
    pub label: Option<String>,
}

impl_to_json!(struct IdentifiedUnit { unit, label });

/// The predictor's output for one trace.
#[derive(Debug, Clone, Default)]
pub struct Prediction {
    /// Units in time order with identification verdicts.
    pub units: Vec<IdentifiedUnit>,
}

impl_to_json!(struct Prediction { units });

impl Prediction {
    /// Identified labels in time order (repeats possible — duplicate
    /// copies of an object produce repeated matches).
    pub fn labels(&self) -> Vec<&str> {
        self.units
            .iter()
            .filter_map(|u| u.label.as_deref())
            .collect()
    }

    /// `true` if some unit was identified as `label`.
    pub fn contains(&self, label: &str) -> bool {
        self.units.iter().any(|u| u.label.as_deref() == Some(label))
    }

    /// The inferred party ranking: first occurrence of each party label
    /// in time order (the paper's Table II "all objects" inference).
    pub fn party_sequence(&self) -> Vec<Party> {
        let mut seen = Vec::new();
        for party in self.units.iter().filter_map(unit_party) {
            if !seen.contains(&party) {
                seen.push(party);
            }
        }
        seen
    }

    /// A copy of this prediction restricted to units starting at or
    /// after `t` (e.g. the adversary's own post-attack window).
    pub fn after(&self, t: SimTime) -> Prediction {
        Prediction {
            units: self
                .units
                .iter()
                .filter(|u| u.unit.start >= t)
                .cloned()
                .collect(),
        }
    }

    /// The ranking inference the paper's adversary actually performs:
    /// the 8 emblem images arrive as one rapid burst (the adversary set
    /// the request spacing itself), so the predictor looks for the
    /// densest run of party-labelled units — consecutive labelled units
    /// separated by less than `max_gap` — and reads the ranking off it.
    /// Spurious isolated size collisions elsewhere in the trace do not
    /// perturb it.
    pub fn party_burst_sequence(&self, max_gap: SimDuration) -> Vec<Party> {
        densest_party_burst(&self.units, max_gap)
    }
}

/// The party a unit was identified as, if any.
fn unit_party(u: &IdentifiedUnit) -> Option<Party> {
    Party::from_label(u.label.as_deref()?)
}

/// [`Prediction::party_burst_sequence`] over any run of `units` in time
/// order, such as the ones in the adversary's analysis window.
pub(crate) fn densest_party_burst<'a>(
    units: impl IntoIterator<Item = &'a IdentifiedUnit>,
    max_gap: SimDuration,
) -> Vec<Party> {
    let labelled = units
        .into_iter()
        .filter_map(|u| Some((u.unit.start, unit_party(u)?)));
    // Split into bursts by the gap between consecutive labelled units.
    let mut bursts: Vec<Vec<Party>> = Vec::new();
    let mut last_t: Option<SimTime> = None;
    for (t, party) in labelled {
        let new_burst = match last_t {
            Some(prev) => t.saturating_since(prev) > max_gap,
            None => true,
        };
        if new_burst {
            bursts.push(Vec::new());
        }
        let burst = bursts.last_mut().expect("burst exists");
        if !burst.contains(&party) {
            burst.push(party);
        }
        last_t = Some(t);
    }
    // The image burst is the one with the most distinct parties; prefer
    // the later one on ties (the attack serializes the end of the page
    // load).
    bursts
        .into_iter()
        .enumerate()
        .max_by_key(|(i, b)| (b.len(), *i))
        .map(|(_, b)| b)
        .unwrap_or_default()
}

/// Runs the prediction pipeline over a captured trace.
///
/// `from` restricts analysis to units starting at/after the given time
/// (e.g. only post-reset traffic); `None` analyses everything.
pub fn predict_from_trace(
    trace: &Trace,
    map: &SizeMap,
    unit_cfg: &UnitConfig,
    from: Option<SimTime>,
) -> Prediction {
    let records = trace.stream(Direction::ServerToClient).records();
    let units = segment_units(records, unit_cfg);
    let units: Vec<IdentifiedUnit> = units
        .into_iter()
        .filter(|u| from.is_none_or(|t| u.start >= t))
        .map(|unit| IdentifiedUnit {
            label: map.identify(unit.estimated_payload).map(str::to_string),
            unit,
        })
        .collect();
    emit_prediction_telemetry(&units);
    Prediction { units }
}

/// Records each unit-identification decision: how many transmission
/// units the segmenter produced and which of them matched a size-map
/// label — the predictor's entire decision surface.
fn emit_prediction_telemetry(units: &[IdentifiedUnit]) {
    telemetry::count("predictor.units", units.len() as u64);
    telemetry::count(
        "predictor.identified",
        units.iter().filter(|u| u.label.is_some()).count() as u64,
    );
    if telemetry::trace_enabled() {
        for (i, u) in units.iter().enumerate() {
            telemetry::emit("predictor", "unit", |ev| {
                ev.seq = Some(i as u64);
                ev.fields
                    .push(("estimated_payload", u.unit.estimated_payload.into()));
                ev.fields.push((
                    "label",
                    u.label.clone().unwrap_or_else(|| "unmatched".into()).into(),
                ));
            });
        }
    }
}

/// Runs the prediction pipeline over a QUIC trace using the
/// datagram-delimiter segmentation ([`h2priv_trace::datagram`]) — no
/// record reassembly is possible, so units come straight from datagram
/// sizes and timing.
pub fn predict_from_datagram_trace(
    trace: &Trace,
    map: &SizeMap,
    unit_cfg: &DatagramUnitConfig,
    from: Option<SimTime>,
) -> Prediction {
    let units = segment_datagram_units(trace, Direction::ServerToClient, unit_cfg);
    let units: Vec<IdentifiedUnit> = units
        .into_iter()
        .filter(|u| from.is_none_or(|t| u.start >= t))
        .map(|unit| IdentifiedUnit {
            label: map.identify(unit.estimated_payload).map(str::to_string),
            unit,
        })
        .collect();
    emit_prediction_telemetry(&units);
    Prediction { units }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn isidewith_map_identifies_every_party_uniquely() {
        let map = SizeMap::isidewith();
        for (party, size) in Party::ALL.iter().zip(PARTY_IMAGE_SIZES) {
            assert_eq!(map.identify(size), Some(party.to_string().as_str()));
            // 1% off still matches.
            assert_eq!(
                map.identify(size + size / 100),
                Some(party.to_string()).as_deref()
            );
        }
        assert_eq!(map.identify(RESULT_HTML_SIZE), Some(HTML_LABEL));
    }

    #[test]
    fn far_off_sizes_do_not_match() {
        let map = SizeMap::isidewith();
        assert_eq!(map.identify(1_000_000), None);
        assert_eq!(map.identify(100), None);
    }

    #[test]
    fn ambiguous_sizes_are_rejected() {
        let map = SizeMap::new(vec![("a".into(), 1_000), ("b".into(), 1_030)], 0.03);
        // 1015 is within 3% of both.
        assert_eq!(map.identify(1_015), None);
        assert_eq!(map.identify(990), Some("a"));
    }

    #[test]
    fn party_sequence_dedupes_repeats() {
        let mk = |label: &str, at: u64| IdentifiedUnit {
            unit: TransmissionUnit {
                start: SimTime::from_millis(at),
                end: SimTime::from_millis(at + 1),
                estimated_payload: 0,
                records: 1,
            },
            label: Some(label.into()),
        };
        let p = Prediction {
            units: vec![
                mk("green", 1),
                mk(HTML_LABEL, 2),
                mk("democratic", 3),
                mk("green", 4), // duplicate copy
                mk("reform", 5),
            ],
        };
        assert_eq!(
            p.party_sequence(),
            vec![Party::Green, Party::Democratic, Party::Reform]
        );
        assert!(p.contains(HTML_LABEL));
        assert!(!p.contains("socialist"));
    }

    #[test]
    #[should_panic(expected = "empty size map")]
    fn empty_map_rejected() {
        let _ = SizeMap::new(vec![], 0.03);
    }
}
