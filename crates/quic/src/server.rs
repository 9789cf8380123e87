//! The multi-threaded HTTP/3 server model.
//!
//! Mirrors `h2priv_h2::server::ServerNode` — same worker-per-GET model,
//! the same first-byte and chunk-pacing draws (in the same RNG order),
//! the same serial/concurrent mux policies and duplicate-serving
//! pathology — but responses ride independent QUIC streams. There is no
//! shared output scheduler: the QUIC connection's deterministic
//! round-robin over sendable streams plays that role, and a client
//! STOP_SENDING clears the stream's queued bytes inside the transport
//! (the QUIC analogue of flushing object segments on RST_STREAM).
//!
//! Server push is not modelled for H3-lite (no PUSH_PROMISE analogue):
//! a `push_manifest` in the config is ignored.

use std::collections::VecDeque;

use h2priv_h2::hpack;
use h2priv_h2::server::{CLIENT_PORT, SERVER_PORT};
use h2priv_h2::{MuxPolicy, ServeRecord, ServerConfig, StreamId};
use h2priv_netsim::link::LinkId;
use h2priv_netsim::node::{Ctx, Node, TimerId};
use h2priv_netsim::packet::{FlowId, Packet};
use h2priv_netsim::time::SimDuration;
use h2priv_tcp::TcpStats;
use h2priv_tls::{RecordTag, TrafficClass, WireMap};
use h2priv_util::bytes::Bytes;
use h2priv_util::fxhash::FxHashMap;
use h2priv_web::{ObjectId, Site};

use crate::client::quic_config_from;
use crate::conn::{QuicConnection, QuicEvent, QuicStats};
use crate::h3::{data_frame, headers_frame_with, H3Event, H3FrameReader};
use crate::stack::QuicStack;

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
    /// Killed by a client stream reset.
    Killed,
}

#[derive(Debug)]
struct Worker {
    stream: StreamId,
    object: ObjectId,
    remaining: u64,
    state: WorkerState,
    chunk_interval: SimDuration,
}

#[derive(Debug)]
enum TimerPurpose {
    TransportTick,
    Worker(usize),
}

/// The HTTP/3 server as a netsim node. Construct, hand to
/// [`h2priv_netsim::topology::PathTopology::build`], and inspect
/// [`H3ServerNode::serve_log`] / [`H3ServerNode::wire_map`] after the
/// run.
#[derive(Debug)]
pub struct H3ServerNode {
    cfg: ServerConfig,
    site: Site,
    stack: QuicStack,
    workers: Vec<Worker>,
    serve_log: Vec<ServeRecord>,
    serial_queue: VecDeque<usize>,
    copies: FxHashMap<ObjectId, u16>,
    readers: FxHashMap<u32, H3FrameReader>,
    timers: FxHashMap<TimerId, TimerPurpose>,
    /// DATA-frame wire images keyed by body length. Bodies are opaque
    /// zeros, so every frame of a given length is byte-identical; caching
    /// replaces two allocations per streamed chunk with an `Arc` clone.
    data_frames: FxHashMap<u64, Bytes>,
    /// Reusable transport-event buffer (cleared before each use).
    event_scratch: Vec<QuicEvent>,
    /// Reusable H3-event buffer (cleared before each use).
    h3_scratch: Vec<H3Event>,
    dead: bool,
}

impl H3ServerNode {
    /// Creates a server for `site`. The config is the H2 server config
    /// verbatim; its TCP, send-watermark and push-manifest fields are
    /// ignored (see module docs).
    pub fn new(site: Site, cfg: ServerConfig) -> H3ServerNode {
        let flow = FlowId {
            src: cfg.addr,
            dst: cfg.client_addr,
            sport: SERVER_PORT,
            dport: CLIENT_PORT,
        };
        // Server-side transport tunables mirror the defaults the H2
        // server gets from its peer's grants.
        let mut qcfg = quic_config_from(12 * 1024 * 1024, 256 * 1024);
        qcfg.pad_block = cfg.pad_block;
        let stack = QuicStack::new(QuicConnection::server(flow, qcfg));
        H3ServerNode {
            cfg,
            site,
            stack,
            workers: Vec::new(),
            serve_log: Vec::new(),
            serial_queue: VecDeque::new(),
            copies: FxHashMap::default(),
            readers: FxHashMap::default(),
            timers: FxHashMap::default(),
            data_frames: FxHashMap::default(),
            event_scratch: Vec::new(),
            h3_scratch: Vec::new(),
            dead: false,
        }
    }

    /// Ground-truth serve log (one entry per GET actually served).
    pub fn serve_log(&self) -> &[ServeRecord] {
        &self.serve_log
    }

    /// Ground-truth wire map of everything this server sent (the
    /// server→client datagram payload offsets).
    pub fn wire_map(&self) -> &WireMap {
        self.stack.wire_map()
    }

    /// Final transport statistics.
    pub fn quic_stats(&self) -> &QuicStats {
        self.stack.quic.stats()
    }

    /// Transport statistics mapped onto the TCP counter struct.
    pub fn tcp_stats(&self) -> TcpStats {
        self.stack.quic.stats().as_tcp_stats()
    }

    /// Copies served per object (≥2 indicates the duplicate-serving
    /// pathology fired).
    pub fn copies_served(&self, object: ObjectId) -> u16 {
        self.copies.get(&object).copied().unwrap_or(0)
    }

    /// Datagrams routed via the alternate path when traffic splitting is
    /// enabled (0 otherwise).
    pub fn split_alt_datagrams(&self) -> u64 {
        self.stack.split_alt_datagrams()
    }

    fn handle_quic_events(&mut self, ctx: &mut Ctx<'_>, events: &mut Vec<QuicEvent>) {
        for ev in events.drain(..) {
            match ev {
                QuicEvent::Stream { id, data, fin } => {
                    self.on_stream_data(ctx, id, &data, fin);
                }
                QuicEvent::StreamReset { id } | QuicEvent::StreamStopped { id } => {
                    self.kill_stream_workers(ctx, id);
                }
                QuicEvent::Aborted => {
                    self.dead = true;
                }
                QuicEvent::Connected | QuicEvent::Closed => {}
            }
        }
    }

    fn on_stream_data(&mut self, ctx: &mut Ctx<'_>, id: u32, data: &[u8], _fin: bool) {
        let mut events = std::mem::take(&mut self.h3_scratch);
        events.clear();
        self.readers.entry(id).or_default().push(data, &mut events);
        for ev in events.drain(..) {
            if let H3Event::Headers(block) = ev {
                self.handle_request(ctx, StreamId(id), &block);
                if let Some(reader) = self.readers.get_mut(&id) {
                    reader.recycle(block);
                }
            }
        }
        self.h3_scratch = events;
    }

    /// Kills workers for a stream the client abandoned. The transport
    /// already dropped the stream's queued bytes when STOP_SENDING
    /// arrived; this stops the pacing timers from queuing more.
    fn kill_stream_workers(&mut self, ctx: &mut Ctx<'_>, id: u32) {
        let mut killed_any = false;
        for (idx, w) in self.workers.iter_mut().enumerate() {
            if w.stream.0 == id && !matches!(w.state, WorkerState::Done | WorkerState::Killed) {
                w.state = WorkerState::Killed;
                self.serve_log[idx].killed = true;
                killed_any = true;
            }
        }
        if killed_any && self.cfg.mux == MuxPolicy::Serial {
            self.start_next_serial(ctx);
        }
    }

    fn handle_request(&mut self, ctx: &mut Ctx<'_>, stream: StreamId, block: &[u8]) {
        let Some(req) = hpack::decode_request_ref(block) else {
            self.stack.quic.reset_stream(stream.0);
            return;
        };
        let Some(object) = self.site.by_path(req.path).map(|o| o.id) else {
            self.stack.quic.reset_stream(stream.0);
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
                let frame = headers_frame_with(96 + media.len(), |out| {
                    hpack::encode_response_into(out, obj.size, media)
                });
                self.stack.quic.stream_send(
                    stream.0,
                    frame,
                    false,
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
                let frame = self
                    .data_frames
                    .entry(chunk)
                    .or_insert_with(|| data_frame(chunk as usize))
                    .clone();
                self.stack.quic.stream_send(
                    stream.0,
                    frame,
                    end_stream,
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

    fn after_activity(&mut self, ctx: &mut Ctx<'_>) {
        self.stack.pump(ctx);
        if let Some(t) = self.stack.timer_needs_rescheduling() {
            let timer = ctx.schedule_at(t);
            self.timers.insert(timer, TimerPurpose::TransportTick);
            self.stack.tick_at = Some(t);
        }
    }
}

impl Node for H3ServerNode {
    fn on_start(&mut self, ctx: &mut Ctx<'_>) {
        let egress = ctx.egress_links();
        self.stack.set_egress(egress[0]);
        if self.cfg.split_burst > 0 && egress.len() > 1 {
            // Split topology: responses alternate between the tapped
            // primary path and the untapped second path.
            self.stack.set_split(egress[1], self.cfg.split_burst);
        } else {
            assert_eq!(egress.len(), 1, "server expects exactly one egress link");
        }
    }

    fn on_packet(&mut self, ctx: &mut Ctx<'_>, _from: LinkId, pkt: Packet) {
        let mut events = std::mem::take(&mut self.event_scratch);
        events.clear();
        self.stack.on_packet_into(ctx.now(), &pkt, &mut events);
        self.handle_quic_events(ctx, &mut events);
        self.event_scratch = events;
        // Every slice of this datagram has been consumed (or parked in a
        // reassembly buffer, in which case reclaim is a no-op): offer the
        // buffer to the send path before pumping responses out.
        self.stack.quic.reclaim_payload(pkt.payload);
        self.after_activity(ctx);
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_>, timer: TimerId) {
        match self.timers.remove(&timer) {
            Some(TimerPurpose::TransportTick) => {
                self.stack.tick_at = None;
                let mut events = std::mem::take(&mut self.event_scratch);
                events.clear();
                self.stack.on_transport_timer_into(ctx.now(), &mut events);
                self.handle_quic_events(ctx, &mut events);
                self.event_scratch = events;
            }
            Some(TimerPurpose::Worker(idx)) => {
                self.worker_tick(ctx, idx);
            }
            None => {}
        }
        self.after_activity(ctx);
    }
}
