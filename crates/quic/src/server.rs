//! The multi-threaded HTTP/3 server: the `h2priv_h2::backend::Backend`
//! worker model, the same one the HTTP/2 server runs, over the QUIC-lite
//! transport. Responses ride independent QUIC streams. There is no
//! shared output scheduler: the QUIC connection's deterministic
//! round-robin over sendable streams plays that role, and a client
//! STOP_SENDING clears the stream's queued bytes inside the transport
//! (the QUIC analogue of flushing object segments on RST_STREAM).
//!
//! Server push is not modelled for H3-lite (no PUSH_PROMISE analogue):
//! a `push_manifest` in the config is ignored.

use h2priv_h2::hpack;
use h2priv_h2::server::{CLIENT_PORT, SERVER_PORT};
use h2priv_h2::{
    Backend, ErrorCode, NodeTimer, ResponseTransport, ServeRecord, ServerConfig, StreamId,
};
use h2priv_netsim::link::LinkId;
use h2priv_netsim::node::{Ctx, Node, TimerId};
use h2priv_netsim::packet::{FlowId, Packet};
use h2priv_tcp::TcpStats;
use h2priv_tls::{RecordTag, WireMap};
use h2priv_util::bytes::Bytes;
use h2priv_util::fxhash::FxHashMap;
use h2priv_web::{ObjectId, Site};

use crate::client::quic_config_from;
use crate::conn::{QuicConnection, QuicEvent, QuicStats};
use crate::h3::{data_frame, headers_frame_with, H3Event, H3FrameReader};
use crate::stack::QuicStack;

/// The HTTP/3 server as a netsim node. Construct, hand to
/// [`h2priv_netsim::topology::PathTopology::build`], and inspect
/// [`H3ServerNode::serve_log`] / [`H3ServerNode::wire_map`] after the
/// run.
#[derive(Debug)]
pub struct H3ServerNode {
    cfg: ServerConfig,
    backend: Backend,
    stack: QuicStack,
    readers: FxHashMap<u32, H3FrameReader>,
    /// DATA-frame wire images keyed by body length. Bodies are opaque
    /// zeros, so every frame of a given length is byte-identical; caching
    /// replaces two allocations per streamed chunk with an `Arc` clone.
    data_frames: FxHashMap<u64, Bytes>,
    /// Reusable transport-event buffer (cleared before each use).
    event_scratch: Vec<QuicEvent>,
    /// Reusable H3-event buffer (cleared before each use).
    h3_scratch: Vec<H3Event>,
}

/// Workers' responses over HTTP/3: H3-lite frames on each request's own
/// stream, and RESET_STREAM to refuse one.
struct Responses<'a> {
    quic: &'a mut QuicConnection,
    data_frames: &'a mut FxHashMap<u64, Bytes>,
}

impl ResponseTransport for Responses<'_> {
    fn send_headers(&mut self, stream: StreamId, size: u64, media: &str, tag: RecordTag) {
        let frame = headers_frame_with(96 + media.len(), |out| {
            hpack::encode_response_into(out, size, media)
        });
        self.quic.stream_send(stream.0, frame, false, tag);
    }

    fn send_data(&mut self, stream: StreamId, len: u64, end_stream: bool, tag: RecordTag) {
        let frame = self
            .data_frames
            .entry(len)
            .or_insert_with(|| data_frame(len as usize))
            .clone();
        self.quic.stream_send(stream.0, frame, end_stream, tag);
    }

    fn refuse(&mut self, stream: StreamId, _error: ErrorCode) {
        self.quic.reset_stream(stream.0);
    }
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
        // Server-side transport tunables match the defaults the H2
        // server gets from its peer's grants.
        let mut qcfg = quic_config_from(12 * 1024 * 1024, 256 * 1024);
        qcfg.pad_block = cfg.pad_block;
        let stack = QuicStack::new(QuicConnection::server(flow, qcfg));
        H3ServerNode {
            backend: Backend::new(site, cfg.mux, cfg.serve_duplicates),
            cfg,
            stack,
            readers: FxHashMap::default(),
            data_frames: FxHashMap::default(),
            event_scratch: Vec::new(),
            h3_scratch: Vec::new(),
        }
    }

    /// Ground-truth serve log (one entry per GET actually served).
    pub fn serve_log(&self) -> &[ServeRecord] {
        self.backend.serve_log()
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
        self.backend.copies_served(object)
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
                // The transport already dropped the stream's queued bytes
                // when STOP_SENDING arrived; the workers stop queuing more.
                QuicEvent::StreamReset { id } | QuicEvent::StreamStopped { id } => {
                    self.backend.kill(ctx, StreamId(id));
                }
                QuicEvent::Aborted => self.backend.abort(),
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
                let mut io = Responses {
                    quic: &mut self.stack.quic,
                    data_frames: &mut self.data_frames,
                };
                self.backend.on_request(ctx, StreamId(id), &block, &mut io);
                if let Some(reader) = self.readers.get_mut(&id) {
                    reader.recycle(block);
                }
            }
        }
        self.h3_scratch = events;
    }

    fn after_activity(&mut self, ctx: &mut Ctx<'_>) {
        self.stack.pump(ctx);
        if let Some(t) = self.stack.timer_needs_rescheduling() {
            let timer = ctx.schedule_at(t);
            self.backend.arm(timer, NodeTimer::Tick);
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
        let mut io = Responses {
            quic: &mut self.stack.quic,
            data_frames: &mut self.data_frames,
        };
        if self.backend.on_timer(ctx, timer, &mut io) == Some(NodeTimer::Tick) {
            self.stack.tick_at = None;
            let mut events = std::mem::take(&mut self.event_scratch);
            events.clear();
            self.stack.on_transport_timer_into(ctx.now(), &mut events);
            self.handle_quic_events(ctx, &mut events);
            self.event_scratch = events;
        }
        self.after_activity(ctx);
    }
}
