//! Captured packet records.

use h2priv_netsim::packet::{Direction, Packet, TcpHeader};
use h2priv_netsim::time::SimTime;

/// One packet as seen by the monitor at the compromised middlebox.
///
/// Contains only eavesdropper-visible information: the cleartext TCP/IP
/// header, the payload size and the timing. The TLS record headers
/// embedded in the payload are read as the packet passes
/// ([`crate::reassembly::TlsStream`]); no payload byte is kept.
#[derive(Debug, Clone)]
pub struct PacketRecord {
    /// Capture timestamp.
    pub time: SimTime,
    /// Travel direction.
    pub direction: Direction,
    /// Cleartext TCP/IP header.
    pub header: TcpHeader,
    /// TCP payload length in bytes.
    pub len: u32,
    /// Whether the adversary's own policy dropped this packet after
    /// observing it (it still transited the monitor).
    pub dropped_by_policy: bool,
}

impl PacketRecord {
    /// Builds a record from a captured packet.
    pub fn from_packet(
        time: SimTime,
        direction: Direction,
        pkt: &Packet,
        dropped_by_policy: bool,
    ) -> PacketRecord {
        PacketRecord {
            time,
            direction,
            header: pkt.header,
            len: pkt.payload.len() as u32,
            dropped_by_policy,
        }
    }

    /// TCP payload length (`tcp.len` in tshark terms).
    pub fn tcp_len(&self) -> u32 {
        self.len
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use h2priv_netsim::packet::{FlowId, HostAddr, TcpFlags};
    use h2priv_util::bytes::Bytes;

    #[test]
    fn from_packet_copies_visible_fields() {
        let pkt = Packet::new(
            TcpHeader {
                flow: FlowId {
                    src: HostAddr(1),
                    dst: HostAddr(2),
                    sport: 1,
                    dport: 443,
                },
                seq: 42,
                ack: 7,
                flags: TcpFlags::ACK,
                window: 1000,
                ts_val: 0,
                ts_ecr: 0,
            },
            Bytes::from(vec![0u8; 77]),
        );
        let r = PacketRecord::from_packet(
            SimTime::from_millis(5),
            Direction::ClientToServer,
            &pkt,
            true,
        );
        assert_eq!(r.tcp_len(), 77);
        assert_eq!(r.header.seq, 42);
        assert!(r.dropped_by_policy);
    }
}
