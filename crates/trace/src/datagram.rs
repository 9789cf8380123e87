//! Datagram-delimiter segmentation for the QUIC transport.
//!
//! Against QUIC the eavesdropper loses the cleartext TLS record headers:
//! every datagram is opaque ciphertext and the only on-path observables
//! are datagram *sizes* and *timing*. This module reapplies the paper's
//! Fig. 1 delimiter insight at the datagram layer: a sender draining an
//! object emits a run of full (MTU-sized) datagrams and finishes with a
//! sub-MTU tail, so the tail datagram delimits the object — provided
//! transmissions have been serialized first. Ambient ACK-sized datagrams
//! are too small to carry object data and are ignored entirely.

use crate::analysis::TransmissionUnit;
use crate::capture::Trace;
use h2priv_netsim::packet::Direction;
use h2priv_netsim::time::SimDuration;

/// Segmentation parameters for the datagram-delimiter analysis.
#[derive(Debug, Clone, Copy)]
pub struct DatagramUnitConfig {
    /// An idle gap between consecutive data datagrams longer than this
    /// closes the current unit.
    pub idle_gap: SimDuration,
    /// Datagrams with payload shorter than this are ambient control
    /// traffic (ACK volleys, resets): invisible to the segmentation,
    /// neither contributing bytes nor marking a boundary.
    pub min_data_datagram: u32,
    /// Datagrams at least this large are "full": the run continues. A
    /// data datagram below this size is an object tail and closes the
    /// unit *after* contributing its bytes.
    pub full_datagram: u32,
    /// Framing bytes per stream-carrying datagram (short header, STREAM
    /// frame header, AEAD tag), subtracted from size estimates (known
    /// protocol constant).
    pub per_datagram_overhead: u64,
}

impl Default for DatagramUnitConfig {
    fn default() -> Self {
        DatagramUnitConfig {
            // Same rationale as the TLS-record path: above per-chunk
            // emission pacing, below request spacing.
            idle_gap: SimDuration::from_millis(70),
            min_data_datagram: 150,
            full_datagram: 1_200,
            per_datagram_overhead: 42,
        }
    }
}

/// Segments one direction's datagrams into transmission units using
/// sub-MTU tails and idle gaps as object delimiters.
///
/// Only eavesdropper-visible information is used: datagram sizes and
/// capture timestamps. Datagrams the adversary's own policy dropped are
/// excluded (they never reached the victim).
pub fn segment_datagram_units(
    trace: &Trace,
    dir: Direction,
    cfg: &DatagramUnitConfig,
) -> Vec<TransmissionUnit> {
    let mut units = Vec::new();
    let mut current: Option<TransmissionUnit> = None;

    for rec in trace.data_packets(dir).filter(|r| !r.dropped_by_policy) {
        let len = rec.tcp_len();
        if len < cfg.min_data_datagram {
            // Ambient ACK/control datagram: invisible.
            continue;
        }
        let gap_exceeded = current
            .as_ref()
            .is_some_and(|u| rec.time.saturating_since(u.end) > cfg.idle_gap);
        if gap_exceeded {
            if let Some(u) = current.take() {
                units.push(u);
            }
        }
        let contribution = (len as u64).saturating_sub(cfg.per_datagram_overhead);
        match current.as_mut() {
            Some(u) => {
                u.end = rec.time;
                u.estimated_payload += contribution;
                u.records += 1;
            }
            None => {
                current = Some(TransmissionUnit {
                    start: rec.time,
                    end: rec.time,
                    estimated_payload: contribution,
                    records: 1,
                });
            }
        }
        if len < cfg.full_datagram {
            // Sub-MTU tail: the object just ended.
            if let Some(u) = current.take() {
                units.push(u);
            }
        }
    }
    if let Some(u) = current.take() {
        units.push(u);
    }
    units
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::PacketRecord;
    use h2priv_netsim::packet::{FlowId, HostAddr, Packet, TcpFlags, TcpHeader};
    use h2priv_netsim::time::SimTime;
    use h2priv_util::bytes::Bytes;

    fn dg(len: usize, at_ms: u64, dropped: bool) -> PacketRecord {
        let pkt = Packet::new(
            TcpHeader {
                flow: FlowId {
                    src: HostAddr(2),
                    dst: HostAddr(1),
                    sport: 443,
                    dport: 40_000,
                },
                seq: 0,
                ack: 0,
                flags: TcpFlags::ACK,
                window: 65_535,
                ts_val: 0,
                ts_ecr: 0,
            },
            Bytes::from(vec![0u8; len]),
        );
        PacketRecord::from_packet(
            SimTime::from_millis(at_ms),
            Direction::ServerToClient,
            &pkt,
            dropped,
        )
    }

    fn trace_of(packets: Vec<PacketRecord>) -> Trace {
        let mut trace = Trace::default();
        trace.packets = packets;
        trace
    }

    #[test]
    fn sub_mtu_tail_delimits_objects() {
        let cfg = DatagramUnitConfig::default();
        let t = trace_of(vec![
            dg(1_200, 10, false),
            dg(1_200, 11, false),
            dg(500, 12, false),
            dg(1_200, 20, false),
            dg(300, 21, false),
        ]);
        let units = segment_datagram_units(&t, Direction::ServerToClient, &cfg);
        assert_eq!(units.len(), 2);
        assert_eq!(units[0].records, 3);
        assert_eq!(units[0].estimated_payload, (1_200 - 42) * 2 + (500 - 42));
        assert_eq!(units[1].records, 2);
        assert_eq!(units[1].estimated_payload, (1_200 - 42) + (300 - 42));
    }

    #[test]
    fn ambient_acks_are_invisible() {
        let cfg = DatagramUnitConfig::default();
        let t = trace_of(vec![
            dg(1_200, 10, false),
            dg(43, 11, false),
            dg(59, 12, false),
            dg(1_200, 13, false),
            dg(400, 14, false),
        ]);
        let units = segment_datagram_units(&t, Direction::ServerToClient, &cfg);
        assert_eq!(units.len(), 1);
        assert_eq!(units[0].records, 3);
    }

    #[test]
    fn idle_gap_closes_unit() {
        let cfg = DatagramUnitConfig::default();
        let t = trace_of(vec![
            dg(1_200, 10, false),
            dg(1_200, 20, false),
            dg(1_200, 200, false),
            dg(600, 201, false),
        ]);
        let units = segment_datagram_units(&t, Direction::ServerToClient, &cfg);
        assert_eq!(units.len(), 2);
        assert_eq!(units[0].records, 2);
        assert_eq!(units[1].records, 2);
    }

    #[test]
    fn policy_dropped_datagrams_are_excluded() {
        let cfg = DatagramUnitConfig::default();
        let t = trace_of(vec![
            dg(1_200, 10, false),
            dg(1_200, 11, true),
            dg(500, 12, false),
        ]);
        let units = segment_datagram_units(&t, Direction::ServerToClient, &cfg);
        assert_eq!(units.len(), 1);
        assert_eq!(units[0].records, 2);
        assert_eq!(units[0].estimated_payload, (1_200 - 42) + (500 - 42));
    }

    #[test]
    fn empty_trace_yields_no_units() {
        let cfg = DatagramUnitConfig::default();
        let t = trace_of(Vec::new());
        assert!(segment_datagram_units(&t, Direction::ServerToClient, &cfg).is_empty());
    }
}
