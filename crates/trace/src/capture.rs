//! The capture sink attached to the simulator.

use crate::reassembly::TlsStream;
use crate::record::PacketRecord;
use h2priv_netsim::capture::{CaptureEvent, CaptureSink};
use h2priv_netsim::packet::Direction;
use std::cell::RefCell;
use std::rc::Rc;

/// A completed capture: every packet that transited the middlebox, in
/// time order, and the TLS records of each direction.
#[derive(Debug, Default, Clone)]
pub struct Trace {
    /// Captured packets in capture order.
    pub packets: Vec<PacketRecord>,
    /// Each direction's records, indexed by `Direction as usize`.
    streams: [TlsStream; 2],
}

impl Trace {
    /// Packets travelling in `dir`.
    pub fn in_direction(&self, dir: Direction) -> impl Iterator<Item = &PacketRecord> + '_ {
        self.packets.iter().filter(move |p| p.direction == dir)
    }

    /// Packets with a TCP payload in `dir` (tshark: `tcp.len > 0`).
    pub fn data_packets(&self, dir: Direction) -> impl Iterator<Item = &PacketRecord> + '_ {
        self.in_direction(dir).filter(|p| p.tcp_len() > 0)
    }

    /// The TLS records of direction `dir`, read from every packet the
    /// adversary's policy let through (the ones it dropped never reached
    /// the receiver). Empty on a QUIC capture, which has no SYN.
    pub fn stream(&self, dir: Direction) -> &TlsStream {
        &self.streams[dir as usize]
    }

    /// Number of captured packets.
    pub fn len(&self) -> usize {
        self.packets.len()
    }

    /// `true` when nothing was captured.
    pub fn is_empty(&self) -> bool {
        self.packets.is_empty()
    }
}

/// Capture sink collecting middlebox transits into a [`Trace`].
///
/// Each packet leaves a [`PacketRecord`] (header, length, time) and passes
/// its payload through its direction's [`TlsStream`], which keeps only the
/// record headers. No payload byte outlives the capture: the bytes a
/// stream holds ahead of a gap are dropped when the trace is taken.
#[derive(Debug, Default)]
pub struct TraceCollector {
    trace: Trace,
}

impl TraceCollector {
    /// Creates an empty collector.
    pub fn new() -> TraceCollector {
        TraceCollector::default()
    }

    /// Takes the completed trace, leaving the collector empty.
    pub fn take_trace(&mut self) -> Trace {
        let mut trace = std::mem::take(&mut self.trace);
        for stream in &mut trace.streams {
            stream.close();
        }
        trace
    }

    /// Consumes the collector, returning the trace.
    pub fn into_trace(mut self) -> Trace {
        self.take_trace()
    }
}

impl CaptureSink for TraceCollector {
    fn record(&mut self, event: &CaptureEvent<'_>) {
        let pkt = event.packet;
        if !event.dropped_by_policy {
            self.trace.streams[event.direction as usize].push(
                event.time,
                &pkt.header,
                &pkt.payload,
            );
        }
        self.trace.packets.push(PacketRecord::from_packet(
            event.time,
            event.direction,
            pkt,
            event.dropped_by_policy,
        ));
    }
}

/// A shareable trace collector handle: attach one clone to the simulator
/// with [`h2priv_netsim::sim::Simulator::set_capture_sink`] and keep the
/// other to read the trace after the run.
pub type SharedTrace = Rc<RefCell<TraceCollector>>;

/// Creates a [`SharedTrace`].
pub fn shared_trace() -> SharedTrace {
    Rc::new(RefCell::new(TraceCollector::new()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use h2priv_netsim::packet::{FlowId, HostAddr, Packet, TcpFlags, TcpHeader};
    use h2priv_netsim::time::SimTime;
    use h2priv_util::bytes::Bytes;

    fn packet(len: usize) -> Packet {
        Packet::new(
            TcpHeader {
                flow: FlowId {
                    src: HostAddr(1),
                    dst: HostAddr(2),
                    sport: 1,
                    dport: 443,
                },
                seq: 0,
                ack: 0,
                flags: TcpFlags::ACK,
                window: 0,
                ts_val: 0,
                ts_ecr: 0,
            },
            Bytes::from(vec![0u8; len]),
        )
    }

    fn record(c: &mut TraceCollector, dir: Direction, len: usize) {
        c.record(&CaptureEvent {
            time: SimTime::ZERO,
            direction: dir,
            packet: &packet(len),
            dropped_by_policy: false,
        });
    }

    #[test]
    fn collects_every_event_with_its_length() {
        let mut c = TraceCollector::new();
        record(&mut c, Direction::ClientToServer, 10);
        record(&mut c, Direction::ServerToClient, 0);
        let t = c.take_trace();
        assert_eq!(t.len(), 2);
        assert_eq!(t.in_direction(Direction::ClientToServer).count(), 1);
        assert_eq!(t.packets[0].tcp_len(), 10);
        assert_eq!(t.data_packets(Direction::ServerToClient).count(), 0);
    }

    #[test]
    fn take_trace_leaves_collector_reusable() {
        let mut c = TraceCollector::new();
        record(&mut c, Direction::ClientToServer, 5);
        assert_eq!(c.take_trace().len(), 1);
        assert_eq!(c.take_trace().len(), 0);
        record(&mut c, Direction::ServerToClient, 7);
        assert_eq!(c.take_trace().len(), 1);
    }
}
