//! The multi-threaded HTTP/2 server: the [`Backend`] worker model
//! behind a TLS handshake and HTTP/2 framing on one TCP connection.
//!
//! Workers' frames are queued per stream in an [`OutputScheduler`] and
//! drained round-robin into TCP — producing the interleaved (multiplexed)
//! wire stream the paper studies. The drain is gated on a shallow TCP
//! send buffer so that a client `RST_STREAM` can still flush queued
//! object segments (paper Section IV-D). The node also implements server
//! push and constant-rate output shaping.

use crate::backend::{Backend, NodeTimer, ResponseTransport};
use crate::config::{ServerConfig, ShapingConfig};
use crate::conn::{OutputScheduler, INITIAL_CONNECTION_WINDOW};
use crate::frame::{ErrorCode, Frame};
use crate::hpack;
use crate::stack::{handshake_sizes, Stack, TransportEvent};
use crate::stream::{StreamId, StreamIdAllocator};
use h2priv_netsim::link::LinkId;
use h2priv_netsim::node::{Ctx, Node, TimerId};
use h2priv_netsim::packet::{FlowId, Packet};
use h2priv_netsim::time::SimTime;
use h2priv_tcp::{TcpConnection, TcpStats};
use h2priv_tls::{ContentType, OpenedRecord, RecordTag, TrafficClass, WireMap};
use h2priv_util::bytes::BytesMut;
use h2priv_util::telemetry;
use h2priv_web::{ObjectId, Site};

pub use crate::backend::ServeRecord;

/// The client's source port in the single-connection model.
pub const CLIENT_PORT: u16 = 40_000;
/// The server's HTTPS port.
pub const SERVER_PORT: u16 = 443;

/// Reserved server-initiated stream carrying shaping dummy cells. The
/// client grants flow-control window for DATA on unknown streams and
/// otherwise discards it, so dummies are stripped at the receiver.
pub const DUMMY_STREAM: StreamId = StreamId(2_000_000_000);

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum TlsPhase {
    AwaitClientHello,
    AwaitFinished,
    Ready,
}

/// The HTTP/2 server as a netsim node. Construct, hand to
/// [`h2priv_netsim::topology::PathTopology::build`], and inspect
/// [`ServerNode::serve_log`] / [`ServerNode::wire_map`] after the run.
#[derive(Debug)]
pub struct ServerNode {
    cfg: ServerConfig,
    backend: Backend,
    stack: Stack,
    tls: TlsPhase,
    settings_sent: bool,
    sched: OutputScheduler,
    conn_send_window: u64,
    push_alloc: StreamIdAllocator,
    /// Deadline of the currently scheduled shaping tick, if any.
    shape_tick_at: Option<SimTime>,
    /// Last real activity (GET arrival or real DATA emission) — the
    /// shaping hangover is measured from here.
    last_activity_at: Option<SimTime>,
    dummy_cells_sent: u64,
}

/// Workers' responses over HTTP/2: frames queued per stream.
impl ResponseTransport for OutputScheduler {
    fn send_headers(&mut self, stream: StreamId, size: u64, media: &str, tag: RecordTag) {
        let mut block = BytesMut::with_capacity(64 + media.len());
        hpack::encode_response_into(&mut block, size, media);
        let block = block.freeze();
        self.enqueue(
            Frame::Headers {
                stream,
                block,
                end_stream: false,
            },
            tag,
        );
    }

    fn send_data(&mut self, stream: StreamId, len: u64, end_stream: bool, tag: RecordTag) {
        self.enqueue(
            Frame::Data {
                stream,
                len: len as u32,
                end_stream,
            },
            tag,
        );
    }

    fn refuse(&mut self, stream: StreamId, error: ErrorCode) {
        self.enqueue(Frame::RstStream { stream, error }, RecordTag::NONE);
    }
}

impl ServerNode {
    /// Creates a server for `site`.
    pub fn new(site: Site, cfg: ServerConfig) -> ServerNode {
        let flow = FlowId {
            src: cfg.addr,
            dst: cfg.client_addr,
            sport: SERVER_PORT,
            dport: CLIENT_PORT,
        };
        let stack = Stack::with_tls_options(
            TcpConnection::server(flow, cfg.tcp.clone()),
            cfg.pad_block,
            false,
        );
        ServerNode {
            backend: Backend::new(site, cfg.mux, cfg.serve_duplicates),
            cfg,
            stack,
            tls: TlsPhase::AwaitClientHello,
            settings_sent: false,
            sched: OutputScheduler::new(),
            conn_send_window: INITIAL_CONNECTION_WINDOW,
            push_alloc: StreamIdAllocator::server_push(),
            shape_tick_at: None,
            last_activity_at: None,
            dummy_cells_sent: 0,
        }
    }

    /// Ground-truth serve log (one entry per GET actually served).
    pub fn serve_log(&self) -> &[ServeRecord] {
        self.backend.serve_log()
    }

    /// Ground-truth wire map of everything this server sent (the
    /// server→client TCP stream offsets).
    pub fn wire_map(&self) -> &WireMap {
        self.stack.wire_map()
    }

    /// Final TCP statistics.
    pub fn tcp_stats(&self) -> &TcpStats {
        self.stack.tcp.stats()
    }

    /// Copies served per object (≥2 indicates the duplicate-serving
    /// pathology fired).
    pub fn copies_served(&self, object: ObjectId) -> u16 {
        self.backend.copies_served(object)
    }

    /// Shaping dummy cells emitted (0 when shaping is off).
    pub fn dummy_cells_sent(&self) -> u64 {
        self.dummy_cells_sent
    }

    /// TLS record-padding overhead bytes sealed (0 when padding is off).
    pub fn pad_overhead_bytes(&self) -> u64 {
        self.stack.pad_bytes()
    }

    fn handle_records(&mut self, ctx: &mut Ctx<'_>, records: &[OpenedRecord]) {
        for rec in records {
            match rec.content_type {
                ContentType::Handshake => match self.tls {
                    TlsPhase::AwaitClientHello => {
                        self.stack.write_record(
                            ContentType::Handshake,
                            &Stack::opaque(handshake_sizes::SERVER_FLIGHT),
                            RecordTag::NONE,
                        );
                        self.tls = TlsPhase::AwaitFinished;
                    }
                    TlsPhase::AwaitFinished => {
                        self.stack.write_record(
                            ContentType::Handshake,
                            &Stack::opaque(handshake_sizes::SERVER_FINISHED),
                            RecordTag::NONE,
                        );
                        self.tls = TlsPhase::Ready;
                    }
                    TlsPhase::Ready => {}
                },
                ContentType::ApplicationData => {
                    let mut buf = &rec.plaintext[..];
                    while let Some((frame, used)) = Frame::decode(buf) {
                        self.handle_frame(ctx, frame);
                        buf = &buf[used..];
                    }
                }
                ContentType::ChangeCipherSpec | ContentType::Alert => {}
            }
        }
    }

    fn handle_frame(&mut self, ctx: &mut Ctx<'_>, frame: Frame) {
        match frame {
            Frame::Settings { ack: false, .. } => {
                if !self.settings_sent {
                    self.settings_sent = true;
                    self.sched.enqueue(
                        Frame::Settings {
                            ack: false,
                            params: vec![(0x3, 128), (0x4, 65_535)],
                        },
                        RecordTag::NONE,
                    );
                }
                self.sched.enqueue(Frame::Settings { ack: true, params: vec![] }, RecordTag::NONE);
            }
            Frame::Settings { ack: true, .. } => {}
            Frame::Headers { stream, block, .. } => {
                self.handle_request(ctx, stream, &block);
            }
            Frame::RstStream { stream, .. } => {
                self.sched.clear_stream(stream);
                self.backend.kill(ctx, stream);
            }
            Frame::WindowUpdate { stream, increment } => {
                if stream == StreamId::CONNECTION {
                    self.conn_send_window = self.conn_send_window.saturating_add(increment as u64);
                }
            }
            Frame::Ping { ack: false } => {
                self.sched.enqueue(Frame::Ping { ack: true }, RecordTag::NONE);
            }
            Frame::Ping { ack: true }
            | Frame::Priority { .. }
            | Frame::GoAway { .. }
            | Frame::PushPromise { .. } // never sent by clients
            | Frame::Data { .. } => {}
        }
    }

    fn handle_request(&mut self, ctx: &mut Ctx<'_>, stream: StreamId, block: &[u8]) {
        self.last_activity_at = Some(ctx.now());
        let Some(object) = self.backend.on_request(ctx, stream, block, &mut self.sched) else {
            return;
        };
        // Server push: announce and serve the manifest children of this
        // object on server-initiated streams (paper Section VII).
        let children: Vec<ObjectId> = self
            .cfg
            .push_manifest
            .iter()
            .find(|(parent, _)| *parent == object)
            .map(|(_, c)| c.clone())
            .unwrap_or_default();
        for child in children {
            if self.backend.next_copy(child) > 0 {
                continue; // already served or being served
            }
            let promised = self.push_alloc.next_id();
            let path = &self.backend.site().object(child).path;
            let mut block = BytesMut::with_capacity(64 + path.len());
            hpack::encode_request_into(&mut block, "pushed", path);
            self.sched.enqueue(
                Frame::PushPromise {
                    stream,
                    promised,
                    block: block.freeze(),
                },
                RecordTag {
                    stream_id: stream.0,
                    object_id: child.0,
                    copy: 0,
                    class: TrafficClass::Control,
                },
            );
            self.backend.spawn_worker(ctx, promised, child, 0);
        }
    }

    fn pump_frames(&mut self) {
        while self.stack.tcp.bytes_unsent() < self.cfg.send_watermark {
            let Some(qf) = self.sched.pop_next(self.conn_send_window) else {
                if self.sched.queued_data_bytes() > 0 {
                    telemetry::count("h2.window_blocked_events", 1);
                }
                break;
            };
            if let Frame::Data { len, .. } = qf.frame {
                self.conn_send_window = self.conn_send_window.saturating_sub(len as u64);
            }
            self.stack.write_frame(&qf.frame, qf.tag);
        }
    }

    /// One shaping tick: drain control frames, emit at most one real
    /// DATA cell, or a dummy cell while within the hangover of real
    /// activity. All sizes and timings are deterministic (no RNG).
    fn shape_tick(&mut self, ctx: &mut Ctx<'_>, sh: ShapingConfig) {
        if self.backend.is_dead() {
            return;
        }
        let mut sent_data = false;
        while self.stack.tcp.bytes_unsent() < self.cfg.send_watermark {
            let Some(qf) = self.sched.pop_next_shaped(self.conn_send_window, sh.cell) else {
                break;
            };
            let is_data = matches!(qf.frame, Frame::Data { .. });
            if let Frame::Data { len, .. } = qf.frame {
                self.conn_send_window = self.conn_send_window.saturating_sub(len as u64);
            }
            self.stack.write_frame(&qf.frame, qf.tag);
            if is_data {
                self.last_activity_at = Some(ctx.now());
                sent_data = true;
                break;
            }
        }
        if !sent_data
            && self.within_hangover(ctx.now(), sh)
            && self.stack.tcp.bytes_unsent() < self.cfg.send_watermark
            && sh.cell as u64 <= self.conn_send_window
        {
            self.conn_send_window -= sh.cell as u64;
            self.dummy_cells_sent += 1;
            self.stack.write_frame(
                &Frame::Data {
                    stream: DUMMY_STREAM,
                    len: sh.cell,
                    end_stream: false,
                },
                RecordTag {
                    stream_id: DUMMY_STREAM.0,
                    object_id: u32::MAX,
                    copy: 0,
                    class: TrafficClass::Control,
                },
            );
        }
    }

    fn within_hangover(&self, now: SimTime, sh: ShapingConfig) -> bool {
        self.last_activity_at
            .is_some_and(|t| now <= t + sh.hangover)
    }

    fn shape_work_pending(&self, now: SimTime, sh: ShapingConfig) -> bool {
        !self.sched.is_empty() || self.backend.has_pending_work() || self.within_hangover(now, sh)
    }

    fn ensure_shape_tick(&mut self, ctx: &mut Ctx<'_>) {
        let Some(sh) = self.cfg.shaping else { return };
        if self.backend.is_dead()
            || self.shape_tick_at.is_some()
            || !self.shape_work_pending(ctx.now(), sh)
        {
            return;
        }
        let timer = ctx.schedule(sh.interval);
        self.shape_tick_at = Some(ctx.now() + sh.interval);
        self.backend.arm(timer, NodeTimer::Shape);
    }

    fn after_activity(&mut self, ctx: &mut Ctx<'_>) {
        if self.cfg.shaping.is_some() {
            // Shaped mode: frames leave only on the shaping tick.
            self.ensure_shape_tick(ctx);
        } else {
            self.pump_frames();
        }
        self.stack.pump(ctx);
        if let Some(t) = self.stack.timer_needs_rescheduling() {
            let timer = ctx.schedule_at(t);
            self.backend.arm(timer, NodeTimer::Tick);
            self.stack.tcp_tick_at = Some(t);
        }
    }

    fn handle_events(&mut self, events: &[TransportEvent]) {
        for ev in events {
            if *ev == TransportEvent::Aborted {
                self.backend.abort();
            }
        }
    }
}

impl Node for ServerNode {
    fn on_start(&mut self, ctx: &mut Ctx<'_>) {
        let egress = ctx.egress_links();
        assert_eq!(egress.len(), 1, "server expects exactly one egress link");
        self.stack.set_egress(egress[0]);
    }

    fn on_packet(&mut self, ctx: &mut Ctx<'_>, _from: LinkId, pkt: Packet) {
        let inbound = self.stack.on_packet(ctx.now(), pkt);
        self.handle_events(&inbound.events);
        self.handle_records(ctx, &inbound.records);
        self.stack.recycle(inbound);
        self.after_activity(ctx);
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_>, timer: TimerId) {
        match self.backend.on_timer(ctx, timer, &mut self.sched) {
            Some(NodeTimer::Tick) => {
                self.stack.tcp_tick_at = None;
                let inbound = self.stack.on_tcp_timer(ctx.now());
                self.handle_events(&inbound.events);
                self.handle_records(ctx, &inbound.records);
                self.stack.recycle(inbound);
            }
            Some(NodeTimer::Shape) => {
                self.shape_tick_at = None;
                if let Some(sh) = self.cfg.shaping {
                    self.shape_tick(ctx, sh);
                }
            }
            None => {}
        }
        self.after_activity(ctx);
    }
}
