//! The multi-threaded HTTP/2 server model.
//!
//! Each GET spawns a simulated worker thread (paper Fig. 3): after a
//! time-to-first-byte drawn from the object's
//! [`h2priv_web::ServiceProfile`], the worker emits DATA chunks on a
//! pacing timer. Chunks from concurrent workers are queued per stream and
//! drained round-robin into TCP — producing the interleaved (multiplexed)
//! wire stream the paper studies. The drain is gated on a shallow TCP
//! send buffer so that a client `RST_STREAM` can still flush queued
//! object segments (paper Section IV-D).
//!
//! Duplicate GETs for an object (the client's re-requests) spawn
//! additional workers serving additional *copies* — the paper's observed
//! "intensified multiplexing" pathology (Fig. 4).

use crate::config::{MuxPolicy, ServerConfig, ShapingConfig};
use crate::conn::{OutputScheduler, INITIAL_CONNECTION_WINDOW};
use crate::frame::{ErrorCode, Frame};
use crate::hpack;
use crate::stack::{handshake_sizes, Stack, TransportEvent};
use crate::stream::{StreamId, StreamIdAllocator};
use h2priv_netsim::link::LinkId;
use h2priv_netsim::node::{Ctx, Node, TimerId};
use h2priv_netsim::packet::{FlowId, Packet};
use h2priv_netsim::time::{SimDuration, SimTime};
use h2priv_tcp::{TcpConnection, TcpStats};
use h2priv_tls::{ContentType, OpenedRecord, RecordTag, TrafficClass, WireMap};
use h2priv_util::bytes::BytesMut;
use h2priv_util::fxhash::FxHashMap;
use h2priv_util::telemetry;
use h2priv_web::{ObjectId, Site};
use std::collections::VecDeque;

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

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum WorkerState {
    /// Waiting for its turn (Serial policy only).
    Queued,
    /// Backend working on the first byte.
    FirstByteWait,
    /// Emitting DATA chunks.
    Streaming,
    /// All bytes enqueued.
    Done,
    /// Killed by RST_STREAM.
    Killed,
}

#[derive(Debug)]
struct Worker {
    stream: StreamId,
    object: ObjectId,
    remaining: u64,
    state: WorkerState,
    /// Per-chunk emission interval (drawn when the worker starts).
    chunk_interval: SimDuration,
}

/// Ground-truth log entry for one served request (one object copy).
#[derive(Debug, Clone, Copy)]
pub struct ServeRecord {
    /// The object served.
    pub object: ObjectId,
    /// Copy index (0 = first request for this object).
    pub copy: u16,
    /// Stream it was served on.
    pub stream: StreamId,
    /// When the GET arrived.
    pub requested_at: SimTime,
    /// When the worker produced its first byte (None if killed first).
    pub first_byte_at: Option<SimTime>,
    /// When the last byte was enqueued (None if killed first).
    pub completed_at: Option<SimTime>,
    /// Whether the client reset the stream before completion.
    pub killed: bool,
}

#[derive(Debug)]
enum TimerPurpose {
    TcpTick,
    Worker(usize),
    Shape,
}

/// The HTTP/2 server as a netsim node. Construct, hand to
/// [`h2priv_netsim::topology::PathTopology::build`], and inspect
/// [`ServerNode::serve_log`] / [`ServerNode::wire_map`] after the run.
#[derive(Debug)]
pub struct ServerNode {
    cfg: ServerConfig,
    site: Site,
    stack: Stack,
    tls: TlsPhase,
    settings_sent: bool,
    sched: OutputScheduler,
    conn_send_window: u64,
    workers: Vec<Worker>,
    serve_log: Vec<ServeRecord>,
    serial_queue: VecDeque<usize>,
    copies: FxHashMap<ObjectId, u16>,
    push_alloc: StreamIdAllocator,
    timers: FxHashMap<TimerId, TimerPurpose>,
    dead: bool,
    /// Deadline of the currently scheduled shaping tick, if any.
    shape_tick_at: Option<SimTime>,
    /// Last real activity (GET arrival or real DATA emission) — the
    /// shaping hangover is measured from here.
    last_activity_at: Option<SimTime>,
    dummy_cells_sent: u64,
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
            cfg,
            site,
            stack,
            tls: TlsPhase::AwaitClientHello,
            settings_sent: false,
            sched: OutputScheduler::new(),
            conn_send_window: INITIAL_CONNECTION_WINDOW,
            workers: Vec::new(),
            serve_log: Vec::new(),
            serial_queue: VecDeque::new(),
            copies: FxHashMap::default(),
            push_alloc: StreamIdAllocator::server_push(),
            timers: FxHashMap::default(),
            dead: false,
            shape_tick_at: None,
            last_activity_at: None,
            dummy_cells_sent: 0,
        }
    }

    /// Ground-truth serve log (one entry per GET actually served).
    pub fn serve_log(&self) -> &[ServeRecord] {
        &self.serve_log
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
        self.copies.get(&object).copied().unwrap_or(0)
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
                let mut killed_any = false;
                for (idx, w) in self.workers.iter_mut().enumerate() {
                    if w.stream == stream && !matches!(w.state, WorkerState::Done | WorkerState::Killed)
                    {
                        w.state = WorkerState::Killed;
                        self.serve_log[idx].killed = true;
                        killed_any = true;
                    }
                }
                if killed_any && self.cfg.mux == MuxPolicy::Serial {
                    self.start_next_serial(ctx);
                }
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
        let Some(req) = hpack::decode_request_ref(block) else {
            self.sched.enqueue(
                Frame::RstStream {
                    stream,
                    error: ErrorCode::ProtocolError,
                },
                RecordTag::NONE,
            );
            return;
        };
        let Some(object) = self.site.by_path(req.path).map(|o| o.id) else {
            self.sched.enqueue(
                Frame::RstStream {
                    stream,
                    error: ErrorCode::RefusedStream,
                },
                RecordTag::NONE,
            );
            return;
        };
        let copy = {
            let c = self.copies.entry(object).or_insert(0);
            let this = *c;
            *c += 1;
            this
        };
        if copy > 0 && !self.cfg.serve_duplicates {
            // Deduplicating server (ablation): the original stream is
            // already serving this object; ignore the duplicate.
            return;
        }
        self.spawn_worker(ctx, stream, object, copy);
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
            let child_copy = {
                let c = self.copies.entry(child).or_insert(0);
                let this = *c;
                *c += 1;
                this
            };
            if child_copy > 0 {
                continue; // already served or being served
            }
            let promised = self.push_alloc.next_id();
            let path = &self.site.object(child).path;
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
            self.spawn_worker(ctx, promised, child, 0);
        }
    }

    fn spawn_worker(&mut self, ctx: &mut Ctx<'_>, stream: StreamId, object: ObjectId, copy: u16) {
        let idx = self.workers.len();
        self.workers.push(Worker {
            stream,
            object,
            remaining: self.site.object(object).size,
            state: WorkerState::Queued,
            chunk_interval: SimDuration::ZERO,
        });
        self.serve_log.push(ServeRecord {
            object,
            copy,
            stream,
            requested_at: ctx.now(),
            first_byte_at: None,
            completed_at: None,
            killed: false,
        });
        let someone_active = self
            .workers
            .iter()
            .any(|w| matches!(w.state, WorkerState::FirstByteWait | WorkerState::Streaming));
        if self.cfg.mux == MuxPolicy::Serial && someone_active {
            self.serial_queue.push_back(idx);
        } else {
            self.start_worker(ctx, idx);
        }
    }

    fn start_worker(&mut self, ctx: &mut Ctx<'_>, idx: usize) {
        let object = self.workers[idx].object;
        let obj = self.site.object(object);
        let fb = obj.service.draw_first_byte(ctx.rng());
        self.workers[idx].chunk_interval = obj.service.draw_chunk_interval(ctx.rng(), obj.size);
        self.workers[idx].state = WorkerState::FirstByteWait;
        let t = ctx.schedule(fb);
        self.timers.insert(t, TimerPurpose::Worker(idx));
    }

    fn start_next_serial(&mut self, ctx: &mut Ctx<'_>) {
        while let Some(next) = self.serial_queue.pop_front() {
            if matches!(self.workers[next].state, WorkerState::Queued) {
                self.start_worker(ctx, next);
                return;
            }
        }
    }

    fn worker_tick(&mut self, ctx: &mut Ctx<'_>, idx: usize) {
        if self.dead {
            return;
        }
        let (stream, object, state) = {
            let w = &self.workers[idx];
            (w.stream, w.object, w.state)
        };
        let obj = self.site.object(object);
        let copy = self.serve_log[idx].copy;
        match state {
            WorkerState::FirstByteWait => {
                self.serve_log[idx].first_byte_at = Some(ctx.now());
                let media = match obj.media {
                    h2priv_web::MediaType::Html => "text/html",
                    h2priv_web::MediaType::Js => "application/javascript",
                    h2priv_web::MediaType::Css => "text/css",
                    h2priv_web::MediaType::Image => "image/png",
                    h2priv_web::MediaType::Json => "application/json",
                    h2priv_web::MediaType::Font => "font/woff2",
                };
                let mut block = BytesMut::with_capacity(64 + media.len());
                hpack::encode_response_into(&mut block, obj.size, media);
                self.sched.enqueue(
                    Frame::Headers {
                        stream,
                        block: block.freeze(),
                        end_stream: false,
                    },
                    RecordTag {
                        stream_id: stream.0,
                        object_id: object.0,
                        copy,
                        class: TrafficClass::ResponseHeaders,
                    },
                );
                self.workers[idx].state = WorkerState::Streaming;
                let interval = self.workers[idx].chunk_interval;
                let t = ctx.schedule(interval);
                self.timers.insert(t, TimerPurpose::Worker(idx));
            }
            WorkerState::Streaming => {
                let chunk = (obj.service.chunk_size as u64).min(self.workers[idx].remaining);
                self.workers[idx].remaining -= chunk;
                let end_stream = self.workers[idx].remaining == 0;
                self.sched.enqueue(
                    Frame::Data {
                        stream,
                        len: chunk as u32,
                        end_stream,
                    },
                    RecordTag {
                        stream_id: stream.0,
                        object_id: object.0,
                        copy,
                        class: TrafficClass::ObjectData,
                    },
                );
                if end_stream {
                    self.workers[idx].state = WorkerState::Done;
                    self.serve_log[idx].completed_at = Some(ctx.now());
                    let requested = self.serve_log[idx].requested_at;
                    telemetry::observe(
                        "h2.serve_ns",
                        ctx.now().as_nanos().saturating_sub(requested.as_nanos()),
                    );
                    if self.cfg.mux == MuxPolicy::Serial {
                        self.start_next_serial(ctx);
                    }
                } else {
                    let interval = self.workers[idx].chunk_interval;
                    let t = ctx.schedule(interval);
                    self.timers.insert(t, TimerPurpose::Worker(idx));
                }
            }
            WorkerState::Queued | WorkerState::Done | WorkerState::Killed => {}
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
        if self.dead {
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
        !self.sched.is_empty()
            || self.workers.iter().any(|w| {
                matches!(
                    w.state,
                    WorkerState::Queued | WorkerState::FirstByteWait | WorkerState::Streaming
                )
            })
            || self.within_hangover(now, sh)
    }

    fn ensure_shape_tick(&mut self, ctx: &mut Ctx<'_>) {
        let Some(sh) = self.cfg.shaping else { return };
        if self.dead || self.shape_tick_at.is_some() || !self.shape_work_pending(ctx.now(), sh) {
            return;
        }
        let timer = ctx.schedule(sh.interval);
        self.shape_tick_at = Some(ctx.now() + sh.interval);
        self.timers.insert(timer, TimerPurpose::Shape);
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
            self.timers.insert(timer, TimerPurpose::TcpTick);
            self.stack.tcp_tick_at = Some(t);
        }
    }

    fn handle_events(&mut self, events: &[TransportEvent]) {
        for ev in events {
            if *ev == TransportEvent::Aborted {
                self.dead = true;
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
        match self.timers.remove(&timer) {
            Some(TimerPurpose::TcpTick) => {
                self.stack.tcp_tick_at = None;
                let inbound = self.stack.on_tcp_timer(ctx.now());
                self.handle_events(&inbound.events);
                self.handle_records(ctx, &inbound.records);
                self.stack.recycle(inbound);
            }
            Some(TimerPurpose::Worker(idx)) => {
                self.worker_tick(ctx, idx);
            }
            Some(TimerPurpose::Shape) => {
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
