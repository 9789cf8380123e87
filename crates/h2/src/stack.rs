//! Glue between a TCP connection, the TLS record layer, and the netsim
//! event loop. Used by both [`crate::server::ServerNode`] and
//! [`crate::client::ClientNode`].

use crate::frame::{Frame, FRAME_HEADER_LEN, MAX_FRAME_PAYLOAD};
use crate::stream::StreamId;
use h2priv_netsim::link::LinkId;
use h2priv_netsim::node::Ctx;
use h2priv_netsim::packet::Packet;
use h2priv_netsim::time::SimTime;
use h2priv_tcp::{TcpConnection, TcpEvent};
use h2priv_tls::{ContentType, OpenedRecord, RecordOpener, RecordSealer, RecordTag, WireMap};
use h2priv_util::bytes::{with_pool, Bytes, BytesMut};

/// Model sizes of the TLS handshake flights (bytes of handshake records
/// on the wire, typical for TLS 1.2 with a ~2.5 KB certificate chain).
pub mod handshake_sizes {
    /// ClientHello record plaintext size.
    pub const CLIENT_HELLO: usize = 512;
    /// ServerHello + Certificate + ServerKeyExchange + ServerHelloDone.
    pub const SERVER_FLIGHT: usize = 3_050;
    /// ClientKeyExchange + ChangeCipherSpec + Finished.
    pub const CLIENT_FINISHED: usize = 130;
    /// Server ChangeCipherSpec + Finished.
    pub const SERVER_FINISHED: usize = 74;
}

/// Non-data transport notifications surfaced to the endpoint.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TransportEvent {
    /// TCP handshake done.
    Connected,
    /// Peer closed its direction.
    PeerFin,
    /// Connection fully closed.
    Closed,
    /// Connection aborted (the paper's "broken connection").
    Aborted,
}

/// What one packet or TCP timer delivered: complete TLS records and
/// transport events, each in arrival order. Hand it back with
/// [`Stack::recycle`] once handled, so the next delivery reuses its
/// vectors and the record buffers return to the pool.
#[derive(Debug, Default)]
pub struct Inbound {
    /// Records completed by this delivery.
    pub records: Vec<OpenedRecord>,
    /// Transport events raised by this delivery.
    pub events: Vec<TransportEvent>,
}

/// A TCP connection wrapped in TLS record framing, with helpers to pump
/// segments into the simulator.
///
/// Buffers on the record path come from the thread's pool
/// ([`h2priv_util::bytes::with_pool`]): the sealer takes one per record,
/// TCP gives it back once the record is acknowledged, and the receiver
/// gives back each segment copy it has read and each record body after
/// its frames are decoded.
#[derive(Debug)]
pub struct Stack {
    /// The transport connection.
    pub tcp: TcpConnection,
    sealer: RecordSealer,
    opener: RecordOpener,
    egress: Option<LinkId>,
    /// Deadline currently covered by a scheduled TCP tick, if any.
    pub tcp_tick_at: Option<SimTime>,
    /// Scratch every outgoing frame is encoded into before sealing.
    frame_buf: BytesMut,
    /// The vectors of the last [`Inbound`] handed back.
    inbound: Inbound,
}

impl Stack {
    /// Wraps a TCP connection.
    pub fn new(tcp: TcpConnection) -> Stack {
        Stack::with_tls_options(tcp, 0, false)
    }

    /// Wraps a TCP connection with countermeasure TLS options:
    /// `pad_block` > 0 pads outgoing ApplicationData records to that
    /// block multiple; `strip_padding` strips the peer's padding from
    /// incoming records.
    pub fn with_tls_options(tcp: TcpConnection, pad_block: usize, strip_padding: bool) -> Stack {
        Stack {
            tcp,
            sealer: if pad_block > 0 {
                RecordSealer::with_padding(pad_block)
            } else {
                RecordSealer::new()
            },
            opener: if strip_padding {
                RecordOpener::with_padding_strip()
            } else {
                RecordOpener::new()
            },
            egress: None,
            tcp_tick_at: None,
            frame_buf: BytesMut::new(),
            inbound: Inbound::default(),
        }
    }

    /// Padding overhead bytes sealed so far (0 when padding is off).
    pub fn pad_bytes(&self) -> u64 {
        self.sealer.pad_bytes()
    }

    /// Sets the link this endpoint transmits on (discovered in
    /// `on_start`).
    pub fn set_egress(&mut self, link: LinkId) {
        self.egress = Some(link);
    }

    /// Seals `plaintext` as one TLS record (fragmenting if >16 KiB) and
    /// writes it to TCP. Does not pump; call [`Stack::pump`] afterwards.
    pub fn write_record(&mut self, ct: ContentType, plaintext: &[u8], tag: RecordTag) {
        let wire = self.sealer.seal(ct, plaintext, tag);
        self.tcp.write(wire);
    }

    /// Encodes `frame` and writes it to TCP as one ApplicationData
    /// record (fragmenting if >16 KiB), like [`Stack::write_record`] of
    /// [`Frame::encode`]'s bytes but through a reused scratch buffer.
    ///
    /// # Panics
    /// Panics if the frame's payload exceeds the 24-bit length field;
    /// the endpoints never build such a frame.
    pub fn write_frame(&mut self, frame: &Frame, tag: RecordTag) {
        self.frame_buf.clear();
        frame
            .encode_into(&mut self.frame_buf)
            .expect("frame within RFC 7540 payload limit");
        self.seal_frame_buf(tag);
    }

    /// Writes a HEADERS frame like [`Stack::write_frame`], with `block`
    /// appending the HPACK block straight into the frame buffer, so the
    /// block needs no buffer of its own.
    ///
    /// # Panics
    /// Panics if the block exceeds the 24-bit length field.
    pub fn write_headers(
        &mut self,
        stream: StreamId,
        end_stream: bool,
        tag: RecordTag,
        block: impl FnOnce(&mut BytesMut),
    ) {
        self.frame_buf.clear();
        let header = Frame::Headers {
            stream,
            block: Bytes::new(),
            end_stream,
        };
        header
            .encode_into(&mut self.frame_buf)
            .expect("an empty block fits");
        block(&mut self.frame_buf);
        let len = self.frame_buf.len() - FRAME_HEADER_LEN;
        assert!(len <= MAX_FRAME_PAYLOAD, "HPACK block of {len} bytes");
        self.frame_buf[..3].copy_from_slice(&(len as u32).to_be_bytes()[1..]);
        self.seal_frame_buf(tag);
    }

    fn seal_frame_buf(&mut self, tag: RecordTag) {
        let wire = self
            .sealer
            .seal(ContentType::ApplicationData, &self.frame_buf, tag);
        self.tcp.write(wire);
    }

    /// Feeds an arriving packet into TCP; returns complete TLS records
    /// and transport events in arrival order.
    pub fn on_packet(&mut self, now: SimTime, pkt: Packet) -> Inbound {
        self.tcp.on_segment(now, &pkt.header, pkt.payload);
        self.collect()
    }

    /// Drives the TCP timer; returns records/events like
    /// [`Stack::on_packet`].
    pub fn on_tcp_timer(&mut self, now: SimTime) -> Inbound {
        self.tcp.on_timer(now);
        self.collect()
    }

    /// Takes back a handled [`Inbound`]: its record buffers return to
    /// the pool and its vectors serve the next delivery.
    pub fn recycle(&mut self, mut inbound: Inbound) {
        with_pool(|pool| {
            for rec in inbound.records.drain(..) {
                pool.reclaim(rec.plaintext);
            }
        });
        inbound.events.clear();
        self.inbound = inbound;
    }

    fn collect(&mut self) -> Inbound {
        let mut inbound = std::mem::take(&mut self.inbound);
        while let Some(ev) = self.tcp.poll_event() {
            match ev {
                TcpEvent::Data(bytes) => {
                    self.opener.push(&bytes);
                    // A segment copy made across record boundaries is
                    // now read; a slice of the peer's record is not ours
                    // to reclaim and is simply dropped.
                    with_pool(|pool| pool.reclaim(bytes));
                    while let Some(rec) = self.opener.poll_record() {
                        inbound.records.push(rec);
                    }
                }
                TcpEvent::Connected => inbound.events.push(TransportEvent::Connected),
                TcpEvent::PeerFin => inbound.events.push(TransportEvent::PeerFin),
                TcpEvent::Closed => inbound.events.push(TransportEvent::Closed),
                TcpEvent::Aborted(_) => inbound.events.push(TransportEvent::Aborted),
            }
        }
        inbound
    }

    /// Transmits every segment TCP has ready onto the egress link.
    ///
    /// # Panics
    /// Panics if the egress link was never set.
    pub fn pump(&mut self, ctx: &mut Ctx<'_>) {
        let egress = self.egress.expect("stack egress not set");
        while let Some((hdr, payload)) = self.tcp.poll_segment(ctx.now()) {
            ctx.send(egress, Packet::new(hdr, payload));
        }
    }

    /// The next TCP deadline that needs an `on_tcp_timer` call, if the
    /// currently scheduled tick (if any) does not already cover it.
    pub fn timer_needs_rescheduling(&self) -> Option<SimTime> {
        match (self.tcp.next_timeout(), self.tcp_tick_at) {
            (Some(t), Some(s)) if s <= t => None, // an earlier/equal tick is coming
            (Some(t), _) => Some(t),
            (None, _) => None,
        }
    }

    /// Ground truth for everything this endpoint sent.
    pub fn wire_map(&self) -> &WireMap {
        self.sealer.wire_map()
    }

    /// Synthetic plaintext of the given length (zero-filled), used for
    /// handshake flights whose content is irrelevant.
    pub fn opaque(len: usize) -> Bytes {
        Bytes::from(vec![0u8; len])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::frame::ErrorCode;
    use h2priv_netsim::packet::{FlowId, HostAddr};
    use h2priv_tcp::TcpConfig;
    use h2priv_tls::{TrafficClass, WireSpan};
    use h2priv_util::check::{self, Gen};

    fn flows() -> (FlowId, FlowId) {
        let f = FlowId {
            src: HostAddr(1),
            dst: HostAddr(2),
            sport: 40_000,
            dport: 443,
        };
        (f, f.reversed())
    }

    /// Runs two stacks against each other without a network (zero loss,
    /// zero latency), returning records seen by each side.
    #[test]
    fn records_flow_end_to_end_over_tcp() {
        let (cf, sf) = flows();
        let mut c = Stack::new(TcpConnection::client(cf, TcpConfig::default()));
        let mut s = Stack::new(TcpConnection::server(sf, TcpConfig::default()));
        let now = SimTime::ZERO;
        c.tcp.open(now);

        let mut client_got = vec![];
        let mut server_got = vec![];
        // Exchange segments directly (no Ctx needed when we poll by hand).
        let mut wrote = false;
        for _ in 0..64 {
            let mut quiet = true;
            while let Some((h, p)) = c.tcp.poll_segment(now) {
                s.tcp.on_segment(now, &h, p);
                quiet = false;
            }
            while let Some((h, p)) = s.tcp.poll_segment(now) {
                c.tcp.on_segment(now, &h, p);
                quiet = false;
            }
            server_got.extend(s.collect().records);
            client_got.extend(c.collect().records);
            if !wrote && matches!(c.tcp.state(), h2priv_tcp::TcpState::Established) {
                c.write_record(
                    ContentType::Handshake,
                    &Stack::opaque(handshake_sizes::CLIENT_HELLO),
                    RecordTag::NONE,
                );
                s.write_record(
                    ContentType::ApplicationData,
                    &Stack::opaque(2_000),
                    RecordTag::NONE,
                );
                wrote = true;
                quiet = false;
            }
            if quiet && wrote {
                break;
            }
        }
        assert_eq!(server_got.len(), 1);
        assert_eq!(server_got[0].content_type, ContentType::Handshake);
        assert_eq!(server_got[0].plaintext.len(), handshake_sizes::CLIENT_HELLO);
        assert_eq!(client_got.len(), 1);
        assert_eq!(client_got[0].plaintext.len(), 2_000);
        // Ground truth recorded on the sender.
        assert_eq!(c.wire_map().spans().len(), 1);
        assert_eq!(s.wire_map().spans().len(), 1);
    }

    /// Connects a sender stack that seals with `pad_block` to a
    /// receiver, lets `write` write to the sender once established, and
    /// returns every payload byte the sender put on the wire, in order,
    /// with the sender's wire map.
    fn sent_wire(pad_block: usize, write: impl FnOnce(&mut Stack)) -> (Vec<u8>, Vec<WireSpan>) {
        let (cf, sf) = flows();
        let config = TcpConfig::default();
        let mut a =
            Stack::with_tls_options(TcpConnection::client(cf, config.clone()), pad_block, false);
        let mut b = Stack::new(TcpConnection::server(sf, config));
        let now = SimTime::ZERO;
        a.tcp.open(now);
        let mut write = Some(write);
        let mut wire = Vec::new();
        loop {
            let mut quiet = true;
            while let Some((h, p)) = a.tcp.poll_segment(now) {
                wire.extend_from_slice(&p);
                b.tcp.on_segment(now, &h, p);
                quiet = false;
            }
            while let Some((h, p)) = b.tcp.poll_segment(now) {
                a.tcp.on_segment(now, &h, p);
                quiet = false;
            }
            let inbound = b.collect();
            b.recycle(inbound);
            if a.tcp.state() == h2priv_tcp::TcpState::Established {
                if let Some(write) = write.take() {
                    write(&mut a);
                    quiet = false;
                }
            }
            if quiet {
                break;
            }
        }
        assert!(write.is_none(), "connection never established");
        (wire, a.wire_map().spans().to_vec())
    }

    fn gen_frame(g: &mut Gen) -> Frame {
        let stream = StreamId(g.u32(0, 999));
        let end_stream = g.bool(0.5);
        match g.usize(0, 8) {
            // Up to 40 KB: a DATA frame spans up to three 16 KiB records.
            0 => Frame::Data {
                stream,
                len: g.u32(0, 40_000),
                end_stream,
            },
            1 => Frame::Headers {
                stream,
                block: Bytes::from(g.bytes(300)),
                end_stream,
            },
            2 => Frame::Priority {
                stream,
                dependency: g.u32(0, u32::MAX),
                weight: g.u8(0, u8::MAX),
            },
            3 => Frame::RstStream {
                stream,
                error: ErrorCode::Cancel,
            },
            4 => Frame::Settings {
                ack: g.bool(0.5),
                params: (0..g.usize(0, 5))
                    .map(|_| (g.u16(0, u16::MAX), g.u32(0, u32::MAX)))
                    .collect(),
            },
            5 => Frame::Ping { ack: end_stream },
            6 => Frame::GoAway {
                last_stream: stream,
                error: ErrorCode::NoError,
            },
            7 => Frame::WindowUpdate {
                stream,
                increment: g.u32(1, 1 << 30),
            },
            _ => Frame::PushPromise {
                stream,
                promised: StreamId(g.u32(0, 999) * 2),
                block: Bytes::from(g.bytes(300)),
            },
        }
    }

    #[test]
    fn write_frame_matches_encode_then_write_record() {
        check::run(
            "write_frame_matches_encode_then_write_record",
            48,
            |g: &mut Gen| {
                let pad_block = *g.choose(&[0usize, 256, 4_096]);
                let frames: Vec<(Frame, RecordTag)> = (0..g.usize(1, 6))
                    .map(|i| {
                        let tag = RecordTag {
                            stream_id: g.u32(0, 999),
                            object_id: i as u32,
                            copy: g.u16(0, 3),
                            class: TrafficClass::ObjectData,
                        };
                        (gen_frame(g), tag)
                    })
                    .collect();
                let new = sent_wire(pad_block, |s| {
                    for (frame, tag) in &frames {
                        s.write_frame(frame, *tag);
                    }
                });
                let old = sent_wire(pad_block, |s| {
                    for (frame, tag) in &frames {
                        let bytes = frame.encode().expect("generated frames fit");
                        s.write_record(ContentType::ApplicationData, &bytes, *tag);
                    }
                });
                assert!(new.1.len() >= frames.len());
                assert_eq!(new.1, old.1, "wire map spans differ");
                assert_eq!(new.0, old.0, "wire bytes differ");
            },
        );
    }

    #[test]
    fn timer_rescheduling_logic() {
        let (cf, _) = flows();
        let mut c = Stack::new(TcpConnection::client(cf, TcpConfig::default()));
        assert_eq!(c.timer_needs_rescheduling(), None);
        c.tcp.open(SimTime::ZERO);
        let t = c.timer_needs_rescheduling().expect("SYN needs an RTO tick");
        c.tcp_tick_at = Some(t);
        assert_eq!(
            c.timer_needs_rescheduling(),
            None,
            "tick already covers deadline"
        );
        c.tcp_tick_at = Some(t + h2priv_netsim::time::SimDuration::from_secs(5));
        assert_eq!(
            c.timer_needs_rescheduling(),
            Some(t),
            "later tick does not cover"
        );
    }
}
