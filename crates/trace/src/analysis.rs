//! Transmission-unit segmentation: turning the server→client record
//! sequence into candidate object transmissions with size estimates.
//!
//! The paper's Fig. 1 insight: once transmissions are *serialized*, the
//! eavesdropper can find object boundaries (a delimiting sub-MTU packet,
//! an idle gap, or a small response-HEADERS record) and sum the sizes in
//! between. When transmissions are still multiplexed, the same procedure
//! produces units whose sizes match nothing — which is exactly how the
//! attack distinguishes success from failure.

use crate::reassembly::SeenRecord;
use h2priv_netsim::time::{SimDuration, SimTime};
use h2priv_util::impl_to_json;

/// HTTP/2 frame header bytes per DATA record, subtracted from size
/// estimates (known protocol constant).
pub const FRAME_HEADER_OVERHEAD: u64 = 9;

/// Segmentation parameters.
#[derive(Debug, Clone, Copy)]
pub struct UnitConfig {
    /// An idle gap between consecutive data records longer than this
    /// closes the current unit.
    pub idle_gap: SimDuration,
    /// Records with plaintext shorter than this are treated as
    /// control/HEADERS records: they close the current unit instead of
    /// contributing bytes.
    pub min_data_record: u16,
}

impl Default for UnitConfig {
    fn default() -> Self {
        UnitConfig {
            // Above the slowest per-chunk emission pacing of a dynamic
            // response (so one object never splits), below typical
            // request spacing; object boundaries are additionally marked
            // by the small response-HEADERS records.
            idle_gap: SimDuration::from_millis(70),
            min_data_record: 150,
        }
    }
}

/// One contiguous run of data records — a candidate object transmission.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TransmissionUnit {
    /// Completion time of the first record in the unit.
    pub start: SimTime,
    /// Completion time of the last record in the unit.
    pub end: SimTime,
    /// Estimated object payload bytes (record plaintext minus known
    /// frame-header overhead).
    pub estimated_payload: u64,
    /// Number of data records in the unit.
    pub records: usize,
}

impl_to_json!(struct TransmissionUnit { start, end, estimated_payload, records });

/// Segments application-data records into transmission units.
///
/// `records` must be in stream order (as
/// [`crate::reassembly::TlsStream::records`] gives them).
pub fn segment_units(records: &[SeenRecord], cfg: &UnitConfig) -> Vec<TransmissionUnit> {
    let mut units = Vec::new();
    let mut current: Option<TransmissionUnit> = None;
    let mut last_time: Option<SimTime> = None;

    for rec in records.iter().filter(|r| r.is_app_data()) {
        if rec.plaintext_len < cfg.min_data_record {
            // Control or HEADERS record: boundary.
            if let Some(u) = current.take() {
                units.push(u);
            }
            last_time = Some(rec.completed_at);
            continue;
        }
        let gap_exceeded = match (current.as_ref(), last_time) {
            (Some(_), Some(t)) => rec.completed_at.saturating_since(t) > cfg.idle_gap,
            _ => false,
        };
        if gap_exceeded {
            if let Some(u) = current.take() {
                units.push(u);
            }
        }
        let contribution = (rec.plaintext_len as u64).saturating_sub(FRAME_HEADER_OVERHEAD);
        match current.as_mut() {
            Some(u) => {
                u.end = rec.completed_at;
                u.estimated_payload += contribution;
                u.records += 1;
            }
            None => {
                current = Some(TransmissionUnit {
                    start: rec.completed_at,
                    end: rec.completed_at,
                    estimated_payload: contribution,
                    records: 1,
                });
            }
        }
        last_time = Some(rec.completed_at);
    }
    if let Some(u) = current.take() {
        units.push(u);
    }
    units
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(plaintext: u16, at_ms: u64) -> SeenRecord {
        SeenRecord {
            content_type: 23,
            body_len: plaintext + 16,
            plaintext_len: plaintext,
            stream_offset: 0,
            completed_at: SimTime::from_millis(at_ms),
        }
    }

    fn hs(at_ms: u64) -> SeenRecord {
        SeenRecord {
            content_type: 22,
            ..rec(500, at_ms)
        }
    }

    #[test]
    fn single_object_single_unit() {
        // 9500-byte object in 2 KiB chunks: 4x2048 + 1308, each +9 frame hdr.
        let recs = vec![
            rec(2057, 10),
            rec(2057, 20),
            rec(2057, 30),
            rec(2057, 40),
            rec(1317, 50),
        ];
        let units = segment_units(&recs, &UnitConfig::default());
        assert_eq!(units.len(), 1);
        assert_eq!(units[0].estimated_payload, 9_500);
        assert_eq!(units[0].records, 5);
        assert_eq!(units[0].start, SimTime::from_millis(10));
        assert_eq!(units[0].end, SimTime::from_millis(50));
    }

    #[test]
    fn idle_gap_splits_units() {
        let recs = vec![rec(1009, 10), rec(1009, 20), rec(2009, 200), rec(2009, 210)];
        let units = segment_units(&recs, &UnitConfig::default());
        assert_eq!(units.len(), 2);
        assert_eq!(units[0].estimated_payload, 2_000);
        assert_eq!(units[1].estimated_payload, 4_000);
    }

    #[test]
    fn small_records_are_boundaries_not_payload() {
        // HEADERS (~100 B) between two objects closes the first unit even
        // with no time gap.
        let recs = vec![rec(1009, 10), rec(100, 11), rec(1009, 12)];
        let units = segment_units(&recs, &UnitConfig::default());
        assert_eq!(units.len(), 2);
        assert_eq!(units[0].estimated_payload, 1_000);
        assert_eq!(units[1].estimated_payload, 1_000);
    }

    #[test]
    fn non_app_data_ignored() {
        let recs = vec![hs(1), rec(1009, 10), hs(11), rec(509, 12)];
        let units = segment_units(&recs, &UnitConfig::default());
        // Handshake records are invisible to segmentation (not app data).
        assert_eq!(units.len(), 1);
        assert_eq!(units[0].estimated_payload, 1_500);
    }

    #[test]
    fn empty_input_yields_no_units() {
        assert!(segment_units(&[], &UnitConfig::default()).is_empty());
    }
}
