//! The capture sink attached to the simulator.

use crate::record::PacketRecord;
use h2priv_netsim::capture::{CaptureEvent, CapturePoint, CaptureSink};
use h2priv_netsim::packet::Direction;
use h2priv_util::bytes::Bytes;
use std::cell::RefCell;
use std::rc::Rc;

/// A completed capture: every packet that transited the middlebox, in
/// time order.
#[derive(Debug, Default, Clone)]
pub struct Trace {
    /// Captured packets in capture order.
    pub packets: Vec<PacketRecord>,
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

    /// Number of captured packets.
    pub fn len(&self) -> usize {
        self.packets.len()
    }

    /// `true` when nothing was captured.
    pub fn is_empty(&self) -> bool {
        self.packets.is_empty()
    }
}

/// Payload arena chunk size. Big enough that one chunk holds dozens of
/// MTU-sized payloads (one allocation amortised across all of them).
const ARENA_CHUNK: usize = 64 * 1024;

/// A recorded packet whose payload still lives in the open arena chunk.
#[derive(Debug)]
struct PendingRecord {
    time: h2priv_netsim::time::SimTime,
    direction: Direction,
    header: h2priv_netsim::packet::TcpHeader,
    dropped_by_policy: bool,
    start: usize,
    len: usize,
}

/// Capture sink collecting middlebox transits into a [`Trace`].
///
/// Only [`CapturePoint::Middlebox`] events are recorded — the adversary's
/// vantage point. Link drops and deliveries elsewhere on the path are
/// invisible to it, as in reality.
///
/// Payload bytes are **copied** into a chunked arena instead of holding a
/// reference to the packet's own buffer: retaining the original `Bytes`
/// for the lifetime of the trace would pin every transport-owned payload
/// buffer (the QUIC path pools and reuses them), turning each pooled
/// buffer into a one-shot allocation. The copy costs a memcpy per packet;
/// the arena costs ~one allocation per 64 KiB chunk of traffic.
#[derive(Debug, Default)]
pub struct TraceCollector {
    trace: Trace,
    pending: Vec<PendingRecord>,
    chunk: Vec<u8>,
}

impl TraceCollector {
    /// Creates an empty collector.
    pub fn new() -> TraceCollector {
        TraceCollector::default()
    }

    /// Takes the completed trace, leaving the collector empty.
    pub fn take_trace(&mut self) -> Trace {
        self.flush_chunk();
        std::mem::take(&mut self.trace)
    }

    /// Consumes the collector, returning the trace.
    pub fn into_trace(mut self) -> Trace {
        self.take_trace()
    }

    /// Freezes the open arena chunk and materialises the records whose
    /// payloads live in it.
    fn flush_chunk(&mut self) {
        if self.pending.is_empty() && self.chunk.is_empty() {
            return;
        }
        let bytes = Bytes::from(std::mem::take(&mut self.chunk));
        for p in self.pending.drain(..) {
            self.trace.packets.push(PacketRecord {
                time: p.time,
                direction: p.direction,
                header: p.header,
                payload: bytes.slice(p.start..p.start + p.len),
                dropped_by_policy: p.dropped_by_policy,
            });
        }
    }
}

impl CaptureSink for TraceCollector {
    fn record(&mut self, point: CapturePoint, event: &CaptureEvent) {
        if point != CapturePoint::Middlebox {
            return;
        }
        let dir = event.direction.expect("middlebox events carry a direction");
        let payload = &event.packet.payload;
        if self.chunk.len() + payload.len() > self.chunk.capacity() {
            self.flush_chunk();
            self.chunk.reserve(ARENA_CHUNK.max(payload.len()));
        }
        let start = self.chunk.len();
        self.chunk.extend_from_slice(payload);
        self.pending.push(PendingRecord {
            time: event.time,
            direction: dir,
            header: event.packet.header,
            dropped_by_policy: event.dropped_by_policy,
            start,
            len: payload.len(),
        });
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

    fn ev(dir: Direction, len: usize) -> CaptureEvent {
        CaptureEvent {
            time: SimTime::ZERO,
            direction: Some(dir),
            packet: Packet::new(
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
            ),
            dropped_by_policy: false,
        }
    }

    #[test]
    fn collects_only_middlebox_events() {
        let mut c = TraceCollector::new();
        c.record(CapturePoint::Middlebox, &ev(Direction::ClientToServer, 10));
        c.record(
            CapturePoint::LinkDrop(h2priv_netsim::link::LinkId::from_raw(0)),
            &ev(Direction::ClientToServer, 10),
        );
        c.record(CapturePoint::Middlebox, &ev(Direction::ServerToClient, 0));
        let t = c.take_trace();
        assert_eq!(t.len(), 2);
        assert_eq!(t.in_direction(Direction::ClientToServer).count(), 1);
        assert_eq!(t.data_packets(Direction::ServerToClient).count(), 0);
    }

    #[test]
    fn arena_copy_preserves_payload_bytes_across_chunk_boundaries() {
        let mut c = TraceCollector::new();
        // Payloads large enough to force several arena chunks.
        let n = 200;
        for i in 0..n {
            let mut e = ev(Direction::ClientToServer, 1_200);
            let body = vec![(i % 251) as u8; 1_200];
            e.packet.payload = Bytes::from(body);
            c.record(CapturePoint::Middlebox, &e);
        }
        let t = c.take_trace();
        assert_eq!(t.len(), n);
        for (i, rec) in t.packets.iter().enumerate() {
            assert_eq!(rec.payload.len(), 1_200);
            assert!(rec.payload.iter().all(|&b| b == (i % 251) as u8));
        }
    }

    #[test]
    fn take_trace_leaves_collector_reusable() {
        let mut c = TraceCollector::new();
        c.record(CapturePoint::Middlebox, &ev(Direction::ClientToServer, 5));
        assert_eq!(c.take_trace().len(), 1);
        assert_eq!(c.take_trace().len(), 0);
        c.record(CapturePoint::Middlebox, &ev(Direction::ServerToClient, 7));
        assert_eq!(c.take_trace().len(), 1);
    }
}
