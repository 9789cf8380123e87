//! The browser over HTTP/3: the `h2priv_h2::browser::Browser` page-load
//! model, the same one the HTTP/2 client runs, over the QUIC-lite
//! transport. Requests ride independent QUIC streams (no cross-stream
//! head-of-line blocking), each response is parsed by its own
//! [`H3FrameReader`], and the browser's reset volley becomes
//! RESET_STREAM + STOP_SENDING control datagrams instead of RST_STREAM
//! frames inside the shared TLS stream. Reports are the H2 report types,
//! so the experiment harness is transport-agnostic.

use h2priv_h2::hpack;
use h2priv_h2::server::{CLIENT_PORT, SERVER_PORT};
use h2priv_h2::{Browser, ClientConfig, ClientReport, GetTransport, StreamId};
use h2priv_netsim::link::LinkId;
use h2priv_netsim::node::{Ctx, Node, TimerId};
use h2priv_netsim::packet::{FlowId, Packet};
use h2priv_tcp::TcpStats;
use h2priv_tls::{RecordTag, TrafficClass, WireMap};
use h2priv_util::fxhash::FxHashMap;
use h2priv_web::{ObjectId, Site};

use crate::conn::{QuicConfig, QuicConnection, QuicEvent, QuicStats};
use crate::h3::{headers_frame_with, H3Event, H3FrameReader};
use crate::stack::QuicStack;

/// Derives transport tunables from the (transport-agnostic parts of the)
/// H2 client config so `TrialOptions` drives either stack unchanged. The
/// TCP section of the config is ignored — QUIC has its own recovery.
pub(crate) fn quic_config_from(conn_window: u64, window_update_threshold: u64) -> QuicConfig {
    QuicConfig {
        initial_max_data: conn_window,
        window_update_threshold,
        ..QuicConfig::default()
    }
}

/// The browser client as a netsim node, HTTP/3 edition.
#[derive(Debug)]
pub struct H3ClientNode {
    page: Browser,
    stack: QuicStack,
    next_stream: u32,
    readers: FxHashMap<u32, H3FrameReader>,
    /// Reusable transport-event buffer (cleared before each use).
    event_scratch: Vec<QuicEvent>,
    /// Reusable H3-event buffer (cleared before each use).
    h3_scratch: Vec<H3Event>,
}

/// The browser's GETs over HTTP/3: one FIN'd HEADERS frame on each new
/// client bidirectional stream, and RESET_STREAM + STOP_SENDING to reset
/// one.
struct Gets<'a> {
    quic: &'a mut QuicConnection,
    next_stream: &'a mut u32,
    readers: &'a mut FxHashMap<u32, H3FrameReader>,
}

impl GetTransport for Gets<'_> {
    fn open_get(
        &mut self,
        authority: &str,
        path: &str,
        object: ObjectId,
        attempt: u32,
    ) -> StreamId {
        let stream = *self.next_stream;
        *self.next_stream += 4; // client-initiated bidirectional: 0, 4, 8, …
        let frame = headers_frame_with(96 + authority.len() + path.len(), |out| {
            hpack::encode_request_into(out, authority, path)
        });
        self.readers.insert(stream, H3FrameReader::new());
        // One HEADERS frame, FIN'd: the whole GET is a single sub-MTU
        // datagram (this is what the adversary's pacer keys on).
        let tag = RecordTag {
            stream_id: stream,
            object_id: object.0,
            copy: attempt as u16,
            class: TrafficClass::Request,
        };
        self.quic.stream_send(stream, frame, true, tag);
        StreamId(stream)
    }

    fn reset(&mut self, stream: StreamId, _object: ObjectId) {
        // Over QUIC each reset is a small RESET_STREAM + STOP_SENDING
        // datagram, the burst the adversary's reset-signature detector
        // watches for.
        self.quic.reset_stream(stream.0);
    }
}

impl H3ClientNode {
    /// Creates a client that will load `site` once the simulation starts.
    pub fn new(site: Site, cfg: ClientConfig) -> H3ClientNode {
        let flow = FlowId {
            src: cfg.addr,
            dst: cfg.server_addr,
            sport: CLIENT_PORT,
            dport: SERVER_PORT,
        };
        let qcfg = quic_config_from(cfg.conn_window, cfg.window_update_threshold);
        let stack = QuicStack::new(QuicConnection::client(flow, qcfg));
        H3ClientNode {
            page: Browser::new(site, cfg),
            stack,
            next_stream: 0,
            readers: FxHashMap::default(),
            event_scratch: Vec::new(),
            h3_scratch: Vec::new(),
        }
    }

    /// Builds the post-run report (same shape as the H2 client's),
    /// taking ownership of the accumulated request records — callers
    /// read the report once, at end of trial, so there is no reason to
    /// clone the records.
    pub fn take_report(&mut self) -> ClientReport {
        let s = self.stack.quic.stats();
        let retransmits = s.loss_retransmits + s.pto_retransmits;
        self.page.take_report(retransmits)
    }

    /// Final transport statistics.
    pub fn quic_stats(&self) -> &QuicStats {
        self.stack.quic.stats()
    }

    /// Transport statistics mapped onto the TCP counter struct.
    pub fn tcp_stats(&self) -> TcpStats {
        self.stack.quic.stats().as_tcp_stats()
    }

    /// A cheap forward-progress fingerprint for stall watchdogs, with the
    /// same shape as the H2 client's probe.
    pub fn progress_probe(&self) -> (u64, u64, bool, bool) {
        self.page.progress_probe()
    }

    /// Ground-truth wire map of everything this client sent.
    pub fn wire_map(&self) -> &WireMap {
        self.stack.wire_map()
    }

    // ------------------------------------------------------------------

    fn handle_quic_events(&mut self, ctx: &mut Ctx<'_>, events: &mut Vec<QuicEvent>) {
        for ev in events.drain(..) {
            match ev {
                QuicEvent::Connected => self.page.start(ctx),
                QuicEvent::Stream { id, data, fin } => {
                    self.on_stream_data(ctx, id, &data, fin);
                }
                QuicEvent::StreamReset { id } => self.page.on_reset(StreamId(id)),
                QuicEvent::Aborted => self.page.abort(),
                QuicEvent::StreamStopped { .. } | QuicEvent::Closed => {}
            }
        }
    }

    fn on_stream_data(&mut self, ctx: &mut Ctx<'_>, id: u32, data: &[u8], fin: bool) {
        let Some(idx) = self.page.live_request(StreamId(id)) else {
            return;
        };
        let mut events = std::mem::take(&mut self.h3_scratch);
        events.clear();
        if let Some(reader) = self.readers.get_mut(&id) {
            reader.push(data, &mut events);
        }
        for ev in events.drain(..) {
            match ev {
                H3Event::Headers(block) => {
                    self.page.on_headers(ctx, idx, &block);
                    if let Some(reader) = self.readers.get_mut(&id) {
                        reader.recycle(block);
                    }
                }
                H3Event::Data { len } => self.page.on_data(ctx, idx, len as u64),
            }
        }
        self.h3_scratch = events;
        if fin {
            self.page.on_end(ctx, idx);
        }
    }

    fn after_activity(&mut self, ctx: &mut Ctx<'_>) {
        self.stack.pump(ctx);
        if let Some(t) = self.stack.timer_needs_rescheduling() {
            let timer = ctx.schedule_at(t);
            self.page.arm_tick(timer);
            self.stack.tick_at = Some(t);
        }
    }
}

impl Node for H3ClientNode {
    fn on_start(&mut self, ctx: &mut Ctx<'_>) {
        let egress = ctx.egress_links();
        // On a split topology (traffic-splitting countermeasure) the
        // client has a second link to the untapped gateway; requests
        // always take the primary path so GET pacing still works.
        assert!(!egress.is_empty(), "client needs an egress link");
        self.stack.set_egress(egress[0]);
        self.stack.quic.open();
        self.after_activity(ctx);
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
        let mut gets = Gets {
            quic: &mut self.stack.quic,
            next_stream: &mut self.next_stream,
            readers: &mut self.readers,
        };
        if self.page.on_timer(ctx, timer, &mut gets) {
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
