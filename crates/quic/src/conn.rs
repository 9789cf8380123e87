//! The QUIC-lite connection: datagram I/O, handshake, flow control and
//! event delivery.
//!
//! A [`QuicConnection`] is sans-I/O: the owner feeds it received datagram
//! payloads ([`QuicConnection::on_datagram`]), pumps outgoing datagrams
//! ([`QuicConnection::poll_datagram`]) and drives time
//! ([`QuicConnection::on_timer`] / [`QuicConnection::next_timeout`]).
//! Datagrams ride the simulator's existing [`TcpHeader`]-framed packets —
//! the header stands in for the UDP/IP header an observer would see, with
//! the packet number mirrored into `seq` purely for trace readability.
//!
//! The handshake mirrors the byte counts of the TLS flights used by the
//! H2 stack (`h2priv_h2::stack::handshake_sizes`) carried in CRYPTO
//! frames, with the client's first flight padded to a full datagram as
//! RFC 9000 requires of Initial packets.

use std::collections::VecDeque;

use h2priv_h2::stack::handshake_sizes;
use h2priv_netsim::packet::{FlowId, TcpFlags, TcpHeader};
use h2priv_netsim::time::{SimDuration, SimTime};
use h2priv_tcp::TcpStats;
use h2priv_tls::{RecordTag, TrafficClass, WireMap, WireSpan};
use h2priv_util::bytes::{with_pool, Bytes};
use h2priv_util::{smallvec, telemetry};

use crate::frame::{
    decode_datagram_into, encode_datagram_pooled, FrameVec, QuicFrame, MAX_CRYPTO_CHUNK,
    MAX_DATAGRAM, SHORT_HEADER_LEN, STREAM_DATAGRAM_OVERHEAD, STREAM_FRAME_HEADER_LEN,
};
use crate::recovery::{AckRanges, Recovery, SentFrame, SentVec};
use crate::streams::{RecvStream, SendStream};
use crate::table::{MarkSet, StreamTable};

/// Which end of the connection this is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Role {
    /// Connection initiator.
    Client,
    /// Connection acceptor.
    Server,
}

/// Tunables for a QUIC-lite connection.
#[derive(Debug, Clone)]
pub struct QuicConfig {
    /// RTT estimate used before the first sample (RFC 9002 default-ish).
    pub initial_rtt: SimDuration,
    /// Delayed-ACK interval once established.
    pub max_ack_delay: SimDuration,
    /// Initial connection-level flow-control window (both directions).
    pub initial_max_data: u64,
    /// Initial per-stream flow-control window. Streams are never
    /// re-granted in this model — the window is sized to cover the
    /// largest object outright.
    pub initial_max_stream_data: u64,
    /// Delivered-byte threshold that triggers a MAX_DATA grant.
    pub window_update_threshold: u64,
    /// Consecutive unanswered PTOs before the connection aborts.
    pub max_pto_count: u32,
    /// Pad stream-carrying datagrams up to a multiple of this many wire
    /// bytes (capped at [`MAX_DATAGRAM`]) using PADDING frames. 0 = no
    /// padding. PADDING frames are ignored on receipt, so no peer
    /// configuration is needed.
    pub pad_block: usize,
}

impl Default for QuicConfig {
    fn default() -> Self {
        Self {
            initial_rtt: SimDuration::from_millis(100),
            max_ack_delay: SimDuration::from_millis(25),
            initial_max_data: 12 * 1024 * 1024,
            initial_max_stream_data: 1024 * 1024,
            window_update_threshold: 256 * 1024,
            max_pto_count: 10,
            pad_block: 0,
        }
    }
}

/// Events surfaced to the application layer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum QuicEvent {
    /// Handshake complete; streams may be opened.
    Connected,
    /// Stream data delivered in order (possibly empty when only FIN).
    Stream {
        /// Stream id.
        id: u32,
        /// In-order bytes.
        data: Bytes,
        /// Stream finished.
        fin: bool,
    },
    /// The peer reset the named stream.
    StreamReset {
        /// Stream id.
        id: u32,
    },
    /// The peer asked us to stop sending on the named stream.
    StreamStopped {
        /// Stream id.
        id: u32,
    },
    /// The peer closed the connection.
    Closed,
    /// The connection died (PTO limit exceeded).
    Aborted,
}

/// Connection counters, the datagram analogue of
/// [`TcpStats`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct QuicStats {
    /// Datagrams transmitted (including retransmission carriers).
    pub datagrams_sent: u64,
    /// Datagrams received and decoded.
    pub datagrams_received: u64,
    /// Datagram payload bytes transmitted.
    pub bytes_sent: u64,
    /// Datagram payload bytes received.
    pub bytes_received: u64,
    /// New (first-transmission) stream bytes sent.
    pub stream_bytes_sent: u64,
    /// In-order stream bytes delivered to the application.
    pub stream_bytes_delivered: u64,
    /// ACK-only datagrams sent.
    pub acks_sent: u64,
    /// STREAM/CRYPTO frames retransmitted after packet-threshold loss.
    pub loss_retransmits: u64,
    /// Frames retransmitted after a probe timeout.
    pub pto_retransmits: u64,
    /// Probe-timeout expiry events.
    pub pto_events: u64,
    /// Datagrams discarded as duplicates of an already-seen packet number.
    pub duplicate_datagrams: u64,
    /// PADDING overhead bytes added by [`QuicConfig::pad_block`].
    pub pad_bytes_sent: u64,
}

impl QuicStats {
    /// Maps these counters onto the TCP counter struct so transport-generic
    /// diagnostics (e.g. `core`'s trial reports) work over either stack.
    /// Fields with no datagram analogue are zero.
    pub fn as_tcp_stats(&self) -> TcpStats {
        TcpStats {
            segments_sent: self.datagrams_sent,
            fast_retransmits: self.loss_retransmits,
            timeout_retransmits: self.pto_retransmits,
            acks_sent: self.acks_sent,
            dup_acks_sent: 0,
            dup_acks_received: self.duplicate_datagrams,
            rto_events: self.pto_events,
            bytes_sent: self.stream_bytes_sent,
            bytes_acked: 0,
            bytes_delivered: self.stream_bytes_delivered,
            segments_received: self.datagrams_received,
            out_of_order_segments: 0,
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum ConnState {
    Handshaking,
    Established,
    Dead,
}

/// A deterministic QUIC-lite connection endpoint.
#[derive(Debug)]
pub struct QuicConnection {
    role: Role,
    cfg: QuicConfig,
    flow: FlowId,
    state: ConnState,
    recovery: Recovery,
    /// Packet numbers received from the peer (also the ACK source).
    recv_ranges: AckRanges,
    ack_at: Option<SimTime>,
    ack_rotation: usize,
    /// Crypto send state: total queued, first-transmission frontier,
    /// lost ranges awaiting retransmission.
    crypto_queued: u64,
    crypto_sent: u64,
    crypto_retransmit: VecDeque<(u64, u32)>,
    /// Crypto receive state (byte ranges, cumulative from zero).
    crypto_recv: AckRanges,
    queued_server_flight: bool,
    queued_client_finish: bool,
    queued_server_finish: bool,
    /// Send streams, marked in [`MarkSet::Send`] exactly when
    /// [`SendStream::ready`] and in [`MarkSet::Retransmit`] exactly when
    /// [`SendStream::has_retransmit`]; `remark` keeps both wherever a
    /// stream's readiness can change.
    send_streams: StreamTable<SendStream>,
    recv_streams: StreamTable<RecvStream>,
    /// The round-robin cursor: the last stream sent and its position.
    last_sent: Option<(u32, usize)>,
    control_queue: VecDeque<FrameVec>,
    /// Connection-level flow control, send side.
    peer_max_data: u64,
    conn_data_sent: u64,
    /// Connection-level flow control, receive side.
    conn_bytes_seen: u64,
    granted_marker: u64,
    events: VecDeque<QuicEvent>,
    stats: QuicStats,
    wire_map: WireMap,
    wire_offset: u64,
    /// Reusable frame buffer for datagram decoding.
    decode_scratch: Vec<QuicFrame>,
    /// Reusable tag-run buffer for wire-map bookkeeping.
    runs_scratch: Vec<(u64, u32, RecordTag)>,
}

impl QuicConnection {
    fn new(role: Role, flow: FlowId, cfg: QuicConfig) -> Self {
        Self {
            role,
            flow,
            state: ConnState::Handshaking,
            recovery: Recovery::new(cfg.initial_rtt, cfg.max_ack_delay),
            recv_ranges: AckRanges::new(),
            ack_at: None,
            ack_rotation: 0,
            crypto_queued: 0,
            crypto_sent: 0,
            crypto_retransmit: VecDeque::new(),
            crypto_recv: AckRanges::new(),
            queued_server_flight: false,
            queued_client_finish: false,
            queued_server_finish: false,
            send_streams: StreamTable::new(),
            recv_streams: StreamTable::new(),
            last_sent: None,
            control_queue: VecDeque::new(),
            peer_max_data: cfg.initial_max_data,
            conn_data_sent: 0,
            conn_bytes_seen: 0,
            granted_marker: 0,
            events: VecDeque::new(),
            stats: QuicStats::default(),
            wire_map: WireMap::new(),
            wire_offset: 0,
            decode_scratch: Vec::new(),
            runs_scratch: Vec::new(),
            cfg,
        }
    }

    /// Client endpoint sending on `flow`.
    pub fn client(flow: FlowId, cfg: QuicConfig) -> Self {
        Self::new(Role::Client, flow, cfg)
    }

    /// Server endpoint sending on `flow`.
    pub fn server(flow: FlowId, cfg: QuicConfig) -> Self {
        Self::new(Role::Server, flow, cfg)
    }

    /// Starts the handshake (client queues its Initial crypto flight;
    /// no-op on the server, which reacts to the client's flight).
    pub fn open(&mut self) {
        if self.role == Role::Client && self.crypto_queued == 0 {
            self.crypto_queued = handshake_sizes::CLIENT_HELLO as u64;
        }
    }

    /// `true` once the handshake completed.
    pub fn is_established(&self) -> bool {
        self.state == ConnState::Established
    }

    /// `true` once the connection aborted or was closed.
    pub fn is_dead(&self) -> bool {
        self.state == ConnState::Dead
    }

    /// Connection counters.
    pub fn stats(&self) -> &QuicStats {
        &self.stats
    }

    /// Ground-truth map of first-transmission stream bytes to datagram
    /// payload offsets.
    pub fn wire_map(&self) -> &WireMap {
        &self.wire_map
    }

    /// Current congestion window (diagnostics).
    pub fn cwnd(&self) -> u64 {
        self.recovery.cwnd()
    }

    /// Smoothed RTT estimate, if any (diagnostics).
    pub fn srtt(&self) -> Option<SimDuration> {
        self.recovery.srtt()
    }

    /// Queues application data (and/or FIN) on a stream, tagged for the
    /// wire map.
    pub fn stream_send(&mut self, id: u32, data: Bytes, fin: bool, tag: RecordTag) {
        let max = self.cfg.initial_max_stream_data;
        let pos = self
            .send_streams
            .position_or_insert_with(id, || SendStream::new(max));
        self.send_streams.at_mut(pos).push(data, fin, tag);
        self.remark(pos);
    }

    /// Abandons a stream in both directions: our send side is reset, the
    /// peer is told RESET_STREAM + STOP_SENDING in one immediate datagram
    /// (the reset volley the attack's signature detector watches for).
    pub fn reset_stream(&mut self, id: u32) {
        self.reset_send_stream(id);
        self.recv_streams
            .get_or_insert_with(id, RecvStream::new)
            .stop();
        self.control_queue.push_back(smallvec![
            QuicFrame::ResetStream { id },
            QuicFrame::StopSending { id },
        ]);
    }

    /// Resets our send side of a stream, opening it if need be.
    fn reset_send_stream(&mut self, id: u32) {
        let max = self.cfg.initial_max_stream_data;
        let pos = self
            .send_streams
            .position_or_insert_with(id, || SendStream::new(max));
        self.send_streams.at_mut(pos).reset();
        self.remark(pos);
    }

    /// Re-marks the send stream at `pos` after a change that can move
    /// its readiness: queued data, a reset, a lost frame, a
    /// MAX_STREAM_DATA grant or a send. In debug builds it then checks
    /// every stream's marks, so a change without a re-mark shows at the
    /// next one.
    fn remark(&mut self, pos: usize) {
        let s = self.send_streams.at(pos);
        let (ready, retransmit) = (s.ready(), s.has_retransmit());
        self.send_streams.set_marks(pos, ready, retransmit);
        #[cfg(debug_assertions)]
        for (pos, (id, s)) in self.send_streams.iter().enumerate() {
            let marks = (
                self.send_streams.is_marked(pos, MarkSet::Send),
                self.send_streams.is_marked(pos, MarkSet::Retransmit),
            );
            assert_eq!(
                marks,
                (s.ready(), s.has_retransmit()),
                "stream {id}: (send, retransmit) marks are stale"
            );
        }
    }

    /// Queues a CONNECTION_CLOSE to the peer.
    pub fn close(&mut self) {
        self.control_queue
            .push_back(smallvec![QuicFrame::ConnectionClose]);
    }

    /// Next application event, if any.
    pub fn poll_event(&mut self) -> Option<QuicEvent> {
        self.events.pop_front()
    }

    /// When [`QuicConnection::on_timer`] next needs to run.
    pub fn next_timeout(&self) -> Option<SimTime> {
        if self.state == ConnState::Dead {
            return None;
        }
        match (self.ack_at, self.recovery.pto_deadline()) {
            (Some(a), Some(p)) => Some(a.min(p)),
            (Some(a), None) => Some(a),
            (None, p) => p,
        }
    }

    /// Drives time-based work: PTO expiry (delayed ACKs are picked up by
    /// the next [`QuicConnection::poll_datagram`] call).
    pub fn on_timer(&mut self, now: SimTime) {
        if self.state == ConnState::Dead {
            return;
        }
        while let Some(deadline) = self.recovery.pto_deadline() {
            if deadline > now {
                break;
            }
            self.stats.pto_events += 1;
            let Some(frames) = self.recovery.on_pto() else {
                break;
            };
            let n = self.requeue_frames(frames);
            self.stats.pto_retransmits += n;
            telemetry::emit("quic", "pto", |ev| {
                ev.fields
                    .push(("pto_count", self.recovery.pto_count().into()));
                ev.fields.push(("retransmits", n.into()));
            });
            telemetry::count("quic.pto_events", 1);
            if self.recovery.pto_count() >= self.cfg.max_pto_count {
                telemetry::emit("quic", "abort", |ev| {
                    ev.fields
                        .push(("pto_count", self.recovery.pto_count().into()));
                });
                telemetry::count("quic.aborts", 1);
                self.state = ConnState::Dead;
                self.events.push_back(QuicEvent::Aborted);
                return;
            }
        }
    }

    /// Requeues retransmittable frames (from loss or PTO); returns how
    /// many stream/crypto frames were actually requeued.
    fn requeue_frames(&mut self, frames: impl IntoIterator<Item = SentFrame>) -> u64 {
        let mut n = 0;
        for f in frames {
            match f {
                SentFrame::Stream {
                    id,
                    offset,
                    len,
                    fin,
                } => {
                    let Some(pos) = self.send_streams.position(id) else {
                        continue;
                    };
                    if self
                        .send_streams
                        .at_mut(pos)
                        .on_frame_lost(offset, len, fin)
                    {
                        self.remark(pos);
                        n += 1;
                    }
                }
                SentFrame::Crypto { offset, len } => {
                    self.crypto_retransmit.push_back((offset, len));
                    n += 1;
                }
                SentFrame::Control(frame) => self.control_queue.push_back(smallvec![frame]),
                SentFrame::AckOnly => {}
            }
        }
        n
    }

    /// Ingests one received datagram payload. Stream data in `payload`
    /// is delivered as zero-copy slices of it, so the `Bytes` handle's
    /// buffer stays referenced until the resulting events are consumed.
    pub fn on_datagram(&mut self, now: SimTime, payload: &Bytes) {
        if self.state == ConnState::Dead {
            return;
        }
        let mut frames = std::mem::take(&mut self.decode_scratch);
        frames.clear();
        let decoded = decode_datagram_into(payload, &mut frames);
        let Some(pn) = decoded else {
            debug_assert!(false, "malformed QUIC-lite datagram");
            self.decode_scratch = frames;
            return;
        };
        self.stats.datagrams_received += 1;
        self.stats.bytes_received += payload.len() as u64;
        if !self.recv_ranges.insert(pn) {
            self.stats.duplicate_datagrams += 1;
            self.decode_scratch = frames;
            return;
        }
        let ack_eliciting = frames.iter().any(QuicFrame::is_ack_eliciting);
        if ack_eliciting && self.ack_at.is_none() {
            self.ack_at = Some(if self.state == ConnState::Established {
                now + self.cfg.max_ack_delay
            } else {
                now
            });
        }
        for frame in frames.drain(..) {
            self.on_frame(now, frame);
        }
        self.decode_scratch = frames;
    }

    /// Offers a fully-processed received payload buffer back to the
    /// thread's buffer pool ([`h2priv_util::bytes::with_pool`]). A no-op
    /// (the buffer is simply dropped) when something still references
    /// it — e.g. out-of-order stream data parked in a reassembly buffer.
    pub fn reclaim_payload(&mut self, payload: Bytes) {
        with_pool(|p| p.reclaim(payload));
    }

    fn on_frame(&mut self, now: SimTime, frame: QuicFrame) {
        match frame {
            QuicFrame::Padding { .. } | QuicFrame::Ping => {}
            QuicFrame::Ack { ranges } => {
                let out = self.recovery.on_ack(now, &ranges);
                let n = self.requeue_frames(out.lost);
                self.stats.loss_retransmits += n;
                if n > 0 {
                    telemetry::emit("quic", "loss_retransmit", |ev| {
                        ev.fields.push(("frames", n.into()));
                    });
                    telemetry::count("quic.loss_retransmits", n);
                }
            }
            QuicFrame::Crypto { offset, len } => {
                if len > 0 {
                    self.crypto_recv
                        .insert_range(offset, offset + len as u64 - 1);
                }
                self.advance_handshake();
            }
            QuicFrame::Stream {
                id,
                offset,
                data,
                fin,
            } => self.on_stream_frame(id, offset, data, fin),
            QuicFrame::MaxData { max } => {
                self.peer_max_data = self.peer_max_data.max(max);
            }
            QuicFrame::MaxStreamData { id, max } => {
                if let Some(pos) = self.send_streams.position(id) {
                    self.send_streams.at_mut(pos).on_max_stream_data(max);
                    self.remark(pos);
                }
            }
            QuicFrame::ResetStream { id } => {
                self.recv_streams
                    .get_or_insert_with(id, RecvStream::new)
                    .stop();
                self.events.push_back(QuicEvent::StreamReset { id });
            }
            QuicFrame::StopSending { id } => {
                self.reset_send_stream(id);
                self.events.push_back(QuicEvent::StreamStopped { id });
            }
            QuicFrame::ConnectionClose => {
                self.state = ConnState::Dead;
                self.events.push_back(QuicEvent::Closed);
            }
        }
    }

    fn on_stream_frame(&mut self, id: u32, offset: u64, data: Bytes, fin: bool) {
        let stream = self.recv_streams.get_or_insert_with(id, RecvStream::new);
        let advance = stream.on_frame(offset, data, fin);
        self.conn_bytes_seen += advance;
        if !stream.is_stopped() {
            if let Some((data, fin)) = stream.poll() {
                self.stats.stream_bytes_delivered += data.len() as u64;
                self.events.push_back(QuicEvent::Stream { id, data, fin });
            }
        }
        // Replenish the connection window once enough has arrived.
        if self.conn_bytes_seen - self.granted_marker >= self.cfg.window_update_threshold {
            self.granted_marker = self.conn_bytes_seen;
            let max = self.conn_bytes_seen + self.cfg.initial_max_data;
            self.control_queue
                .push_back(smallvec![QuicFrame::MaxData { max }]);
        }
    }

    /// Walks the handshake state machine after new crypto bytes arrive.
    /// The flights mirror `h2priv_h2::stack::handshake_sizes` byte counts.
    fn advance_handshake(&mut self) {
        let contiguous = self.crypto_recv.contiguous_from_zero();
        match self.role {
            Role::Server => {
                if contiguous >= handshake_sizes::CLIENT_HELLO as u64 && !self.queued_server_flight
                {
                    self.queued_server_flight = true;
                    self.crypto_queued += handshake_sizes::SERVER_FLIGHT as u64;
                }
                let finish_at =
                    (handshake_sizes::CLIENT_HELLO + handshake_sizes::CLIENT_FINISHED) as u64;
                if contiguous >= finish_at && !self.queued_server_finish {
                    self.queued_server_finish = true;
                    self.crypto_queued += handshake_sizes::SERVER_FINISHED as u64;
                    self.become_established();
                }
            }
            Role::Client => {
                if contiguous >= handshake_sizes::SERVER_FLIGHT as u64 && !self.queued_client_finish
                {
                    self.queued_client_finish = true;
                    self.crypto_queued += handshake_sizes::CLIENT_FINISHED as u64;
                    self.become_established();
                }
            }
        }
    }

    fn become_established(&mut self) {
        if self.state == ConnState::Handshaking {
            self.state = ConnState::Established;
            self.events.push_back(QuicEvent::Connected);
        }
    }

    fn header(&self, pn: u64) -> TcpHeader {
        TcpHeader {
            flow: self.flow,
            seq: pn as u32,
            ack: 0,
            flags: TcpFlags::ACK,
            window: 65_535,
            ts_val: 0,
            ts_ecr: 0,
        }
    }

    /// Emits one datagram and does the shared bookkeeping.
    fn emit(
        &mut self,
        now: SimTime,
        frames: &[QuicFrame],
        sent: SentVec,
        ack_eliciting: bool,
        pad_to: Option<usize>,
    ) -> (TcpHeader, Bytes) {
        let pn = self.recovery.peek_pn();
        let payload = with_pool(|p| encode_datagram_pooled(pn, frames, pad_to, p));
        let assigned = self
            .recovery
            .on_packet_sent(now, payload.len() as u64, ack_eliciting, sent);
        debug_assert_eq!(assigned, pn);
        self.stats.datagrams_sent += 1;
        self.stats.bytes_sent += payload.len() as u64;
        self.wire_offset += payload.len() as u64;
        (self.header(pn), payload)
    }

    /// Produces the next outgoing datagram, or `None` when there is
    /// nothing (admissible) to send. Priority: control volleys, due ACKs,
    /// crypto, then application streams in round-robin order. Control and
    /// ACK datagrams bypass the congestion window; crypto and stream data
    /// are admitted only when a full datagram fits.
    pub fn poll_datagram(&mut self, now: SimTime) -> Option<(TcpHeader, Bytes)> {
        if self.state == ConnState::Dead {
            return None;
        }
        // 1. Control frames (reset volleys, flow-control grants, close).
        if let Some(frames) = self.control_queue.pop_front() {
            let sent: SentVec = frames.iter().cloned().map(SentFrame::Control).collect();
            return Some(self.emit(now, &frames, sent, true, None));
        }
        // 2. Due delayed ACK.
        if self.ack_at.is_some_and(|t| t <= now) {
            self.ack_at = None;
            self.stats.acks_sent += 1;
            // Rotate one older range into each ACK so a packet that the
            // path held back for a long time (e.g. an adversarial pacer)
            // is still eventually reported — otherwise it merges into a
            // range that has scrolled out of the capped window and the
            // peer respawns it forever.
            let ranges = self.recv_ranges.encode_rotating(&mut self.ack_rotation);
            return Some(self.emit(
                now,
                &[QuicFrame::Ack { ranges }],
                smallvec![SentFrame::AckOnly],
                false,
                None,
            ));
        }
        // 3. Crypto retransmissions. Retransmitted frames are probe-class
        // and may exceed the congestion window (RFC 9002 §7.5) — after an
        // ACK loss the window can be pinned shut by unacknowledged
        // in-flight bytes, and the retransmission is the only thing that
        // can elicit the ACK that reopens it. Gating probes on the window
        // would deadlock the connection into PTO-abort.
        if let Some((offset, len)) = self.crypto_retransmit.pop_front() {
            let frame = QuicFrame::Crypto { offset, len };
            let sent = smallvec![SentFrame::Crypto { offset, len }];
            return Some(self.emit(now, &[frame], sent, true, None));
        }
        let window_open = self.recovery.can_send(MAX_DATAGRAM as u64);
        if window_open && self.crypto_sent < self.crypto_queued {
            let offset = self.crypto_sent;
            let len = (self.crypto_queued - offset).min(MAX_CRYPTO_CHUNK as u64) as u32;
            self.crypto_sent += len as u64;
            // The client's very first flight is an Initial: padded to a
            // full datagram as RFC 9000 §8.1 requires.
            let pad = (self.role == Role::Client && offset == 0).then_some(MAX_DATAGRAM);
            let frame = QuicFrame::Crypto { offset, len };
            let sent = smallvec![SentFrame::Crypto { offset, len }];
            return Some(self.emit(now, &[frame], sent, true, pad));
        }
        // 4. Application streams, deterministic round-robin.
        self.poll_stream_datagram(now, window_open)
    }

    fn poll_stream_datagram(
        &mut self,
        now: SimTime,
        window_open: bool,
    ) -> Option<(TcpHeader, Bytes)> {
        if self.state != ConnState::Established {
            return None;
        }
        let conn_credit = self.peer_max_data.saturating_sub(self.conn_data_sent);
        // Round-robin: first sendable stream strictly after the cursor,
        // wrapping; deterministic because the table iterates in id order
        // (the same order the former BTreeMap ranges walked).
        // With the window open, the probe visits the streams marked ready,
        // which include every stream sendable at `conn_credit`; only
        // connection flow control can fail one of them. With the window
        // shut only probe-class retransmissions go out (and `next_chunk`
        // serves a stream's retransmissions first), and the retransmit
        // marks name exactly the streams holding one, so the first is
        // the pick and an empty set ends the probe before any search.
        let pick = if window_open {
            self.send_streams
                .next_marked(MarkSet::Send, self.last_sent, |s| {
                    s.has_sendable(conn_credit)
                })
        } else {
            self.send_streams
                .next_marked(MarkSet::Retransmit, self.last_sent, |_| true)
        };
        #[cfg(debug_assertions)]
        self.check_pick(pick, window_open, conn_credit);
        let pos = pick?;
        let id = self.send_streams.id_at(pos);
        let stream = self.send_streams.at_mut(pos);
        let chunk = stream.next_chunk(conn_credit)?;
        self.runs_scratch.clear();
        if !chunk.retransmit {
            stream.tag_runs_into(
                chunk.offset,
                chunk.data.len() as u32,
                &mut self.runs_scratch,
            );
        }
        self.remark(pos);
        self.last_sent = Some((id, pos));
        if !chunk.retransmit {
            self.conn_data_sent += chunk.data.len() as u64;
            self.stats.stream_bytes_sent += chunk.data.len() as u64;
            // Map the chunk's bytes to their datagram payload offsets:
            // short header + STREAM frame header precede the data.
            let base = self.wire_offset + (SHORT_HEADER_LEN + STREAM_FRAME_HEADER_LEN) as u64;
            for &(run_offset, run_len, tag) in &self.runs_scratch {
                let start = base + (run_offset - chunk.offset);
                self.wire_map.push(WireSpan {
                    start,
                    end: start + run_len as u64,
                    tag,
                });
            }
        }
        let sent = smallvec![SentFrame::Stream {
            id,
            offset: chunk.offset,
            len: chunk.data.len() as u32,
            fin: chunk.fin,
        }];
        // Countermeasure padding: round the datagram up to the next
        // pad-block multiple (PADDING frames after the stream frame, so
        // the wire-map spans above stay valid), capped at the MTU.
        let pad = if self.cfg.pad_block > 0 {
            let unpadded = chunk.data.len() + STREAM_DATAGRAM_OVERHEAD;
            let target = unpadded
                .div_ceil(self.cfg.pad_block)
                .saturating_mul(self.cfg.pad_block)
                .min(MAX_DATAGRAM);
            if target > unpadded {
                self.stats.pad_bytes_sent += (target - unpadded) as u64;
                Some(target)
            } else {
                None
            }
        } else {
            None
        };
        let data_handle = chunk.data.clone();
        let frame = QuicFrame::Stream {
            id,
            offset: chunk.offset,
            data: chunk.data,
            fin: chunk.fin,
        };
        let result = self.emit(now, &[frame], sent, true, pad);
        // The chunk's bytes were copied into the datagram above; a
        // segment-spanning copy (whose only other owner was the frame,
        // just dropped) goes back to the pool, while segment-backed
        // slices still have owners in the send queue and are dropped.
        with_pool(|p| p.reclaim(data_handle));
        Some(result)
    }

    /// Checks the probe's pick against a full scan of the table, the
    /// probe as it was before the marks: ids after the cursor, then
    /// wrapping, tested with the same predicate.
    #[cfg(debug_assertions)]
    fn check_pick(&self, pick: Option<usize>, window_open: bool, conn_credit: u64) {
        let from = self.last_sent.map_or(0, |(id, _)| id + 1);
        let streams = || self.send_streams.iter();
        let scan = streams()
            .filter(|&(id, _)| id >= from)
            .chain(streams().filter(|&(id, _)| id < from))
            .find(|(_, s)| {
                if window_open {
                    s.has_sendable(conn_credit)
                } else {
                    s.has_retransmit()
                }
            })
            .map(|(id, _)| id);
        let got = pick.map(|pos| self.send_streams.id_at(pos));
        assert_eq!(got, scan, "the send probe and the full scan disagree");
    }
}

/// Convenience: a tag for handshake-class bytes (used by tests).
pub fn handshake_tag() -> RecordTag {
    RecordTag {
        stream_id: 0,
        object_id: u32::MAX,
        copy: 0,
        class: TrafficClass::Handshake,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::frame::MAX_STREAM_CHUNK;
    use h2priv_netsim::packet::HostAddr;

    fn flows() -> (FlowId, FlowId) {
        let c2s = FlowId {
            src: HostAddr(1),
            dst: HostAddr(2),
            sport: 40_000,
            dport: 443,
        };
        (c2s, c2s.reversed())
    }

    fn t(ms: u64) -> SimTime {
        SimTime::ZERO + SimDuration::from_millis(ms)
    }

    /// Shuttles datagrams both ways until neither side has anything to
    /// send (zero-latency in-memory wire).
    fn shuttle(now: SimTime, a: &mut QuicConnection, b: &mut QuicConnection) {
        loop {
            let mut moved = false;
            while let Some((_, payload)) = a.poll_datagram(now) {
                b.on_datagram(now, &payload);
                moved = true;
            }
            while let Some((_, payload)) = b.poll_datagram(now) {
                a.on_datagram(now, &payload);
                moved = true;
            }
            if !moved {
                break;
            }
        }
    }

    #[test]
    fn handshake_establishes_both_ends() {
        let (c2s, s2c) = flows();
        let mut client = QuicConnection::client(c2s, QuicConfig::default());
        let mut server = QuicConnection::server(s2c, QuicConfig::default());
        client.open();
        shuttle(t(0), &mut client, &mut server);
        assert!(client.is_established());
        assert!(server.is_established());
        assert_eq!(client.poll_event(), Some(QuicEvent::Connected));
        assert_eq!(server.poll_event(), Some(QuicEvent::Connected));
    }

    #[test]
    fn initial_flight_is_padded_to_full_datagram() {
        let (c2s, _) = flows();
        let mut client = QuicConnection::client(c2s, QuicConfig::default());
        client.open();
        let (_, payload) = client.poll_datagram(t(0)).expect("initial");
        assert_eq!(payload.len(), MAX_DATAGRAM);
    }

    #[test]
    fn stream_data_round_trips_with_wire_map() {
        let (c2s, s2c) = flows();
        let mut client = QuicConnection::client(c2s, QuicConfig::default());
        let mut server = QuicConnection::server(s2c, QuicConfig::default());
        client.open();
        shuttle(t(0), &mut client, &mut server);
        let body: Vec<u8> = (0..5_000u32).map(|i| (i % 251) as u8).collect();
        let tag = RecordTag {
            stream_id: 0,
            object_id: 7,
            copy: 0,
            class: TrafficClass::ObjectData,
        };
        server.stream_send(0, Bytes::from(body.clone()), true, tag);
        shuttle(t(1), &mut client, &mut server);
        let mut got = Vec::new();
        let mut finished = false;
        while let Some(ev) = client.poll_event() {
            if let QuicEvent::Stream { id, data, fin } = ev {
                assert_eq!(id, 0);
                got.extend_from_slice(&data.to_vec());
                finished |= fin;
            }
        }
        assert!(finished);
        assert_eq!(got, body);
        assert_eq!(server.wire_map().object_bytes(7), 5_000);
    }

    #[test]
    fn reset_volley_is_one_small_immediate_datagram() {
        let (c2s, s2c) = flows();
        let mut client = QuicConnection::client(c2s, QuicConfig::default());
        let mut server = QuicConnection::server(s2c, QuicConfig::default());
        client.open();
        shuttle(t(0), &mut client, &mut server);
        client.reset_stream(4);
        let (_, payload) = client.poll_datagram(t(1)).expect("volley");
        // 25 overhead + RESET_STREAM(5) + STOP_SENDING(5) = 35 bytes:
        // small enough for the adversary's reset-signature detector.
        assert_eq!(payload.len(), 35);
        server.on_datagram(t(1), &payload);
        let evs: Vec<_> = std::iter::from_fn(|| server.poll_event()).collect();
        assert!(evs.contains(&QuicEvent::StreamReset { id: 4 }));
        assert!(evs.contains(&QuicEvent::StreamStopped { id: 4 }));
    }

    #[test]
    fn duplicate_datagrams_are_dropped() {
        let (c2s, s2c) = flows();
        let mut client = QuicConnection::client(c2s, QuicConfig::default());
        let mut server = QuicConnection::server(s2c, QuicConfig::default());
        client.open();
        let (_, payload) = client.poll_datagram(t(0)).expect("initial");
        server.on_datagram(t(0), &payload);
        server.on_datagram(t(0), &payload);
        assert_eq!(server.stats().duplicate_datagrams, 1);
    }

    #[test]
    fn pto_abort_after_repeated_timeouts() {
        let (c2s, _) = flows();
        let cfg = QuicConfig {
            max_pto_count: 2,
            ..QuicConfig::default()
        };
        let mut client = QuicConnection::client(c2s, cfg);
        client.open();
        let _ = client.poll_datagram(t(0));
        // Nothing ever comes back; drive time far forward repeatedly.
        let mut now = t(0);
        for _ in 0..10 {
            now += SimDuration::from_secs(10);
            client.on_timer(now);
            while client.poll_datagram(now).is_some() {}
            if client.is_dead() {
                break;
            }
        }
        assert!(client.is_dead());
        let evs: Vec<_> = std::iter::from_fn(|| client.poll_event()).collect();
        assert!(evs.contains(&QuicEvent::Aborted));
    }

    #[test]
    fn max_data_grant_replenishes_sender() {
        let (c2s, s2c) = flows();
        let cfg = QuicConfig {
            initial_max_data: 64 * 1024,
            window_update_threshold: 16 * 1024,
            ..QuicConfig::default()
        };
        let mut client = QuicConnection::client(c2s, cfg.clone());
        let mut server = QuicConnection::server(s2c, cfg);
        client.open();
        shuttle(t(0), &mut client, &mut server);
        // Send well past the initial connection window; grants must keep
        // the transfer moving.
        let total = 200 * 1024usize;
        server.stream_send(0, Bytes::from(vec![5u8; total]), true, RecordTag::NONE);
        let mut delivered = 0usize;
        for ms in 1..200 {
            shuttle(t(ms), &mut client, &mut server);
            client.on_timer(t(ms));
            server.on_timer(t(ms));
            while let Some(ev) = client.poll_event() {
                if let QuicEvent::Stream { data, .. } = ev {
                    delivered += data.len();
                }
            }
            if delivered == total {
                break;
            }
        }
        assert_eq!(delivered, total);
    }

    /// Drains the client's events; returns (bytes, fin seen).
    fn delivered(client: &mut QuicConnection) -> (usize, bool) {
        let (mut bytes, mut fin) = (0, false);
        while let Some(ev) = client.poll_event() {
            if let QuicEvent::Stream { data, fin: f, .. } = ev {
                bytes += data.len();
                fin |= f;
            }
        }
        (bytes, fin)
    }

    #[test]
    fn max_stream_data_releases_a_stream_held_at_its_window() {
        let (c2s, s2c) = flows();
        let cfg = QuicConfig {
            initial_max_stream_data: 4 * 1024,
            ..QuicConfig::default()
        };
        let mut client = QuicConnection::client(c2s, cfg.clone());
        let mut server = QuicConnection::server(s2c, cfg);
        client.open();
        shuttle(t(0), &mut client, &mut server);
        // More than the stream's window: three full chunks fit, and the
        // 622 bytes left in the window would strand a partial frame
        // without FIN, so the stream waits, unmarked.
        let total = 10_000;
        server.stream_send(0, Bytes::from(vec![7u8; total]), true, RecordTag::NONE);
        shuttle(t(1), &mut client, &mut server);
        assert_eq!(delivered(&mut client), (3 * MAX_STREAM_CHUNK, false));
        let pos = server.send_streams.position(0).expect("stream 0");
        assert!(!server.send_streams.at(pos).ready());
        assert!(!server.send_streams.is_marked(pos, MarkSet::Send));
        // No endpoint grants stream credit, so the test queues the frame
        // on the client's control queue; its arrival re-marks the stream.
        let grant = QuicFrame::MaxStreamData {
            id: 0,
            max: total as u64,
        };
        client.control_queue.push_back(smallvec![grant]);
        shuttle(t(2), &mut client, &mut server);
        let (bytes, fin) = delivered(&mut client);
        assert_eq!(3 * MAX_STREAM_CHUNK + bytes, total);
        assert!(fin);
        assert!(!server.send_streams.is_marked(pos, MarkSet::Send));
    }
}
