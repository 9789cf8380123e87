//! The browser over HTTP/2: the [`Browser`] page-load model behind a
//! TLS handshake, HTTP/2 framing and connection-level window grants on
//! one TCP connection. GETs ride HEADERS frames on odd client streams,
//! and the browser's reset volley becomes `RST_STREAM` frames inside the
//! shared TLS stream.

use crate::browser::{Browser, GetTransport};
use crate::config::ClientConfig;
use crate::frame::{ErrorCode, Frame};
use crate::hpack;
use crate::stack::{handshake_sizes, Stack, TransportEvent};
use crate::stream::{StreamId, StreamIdAllocator};
use h2priv_netsim::link::LinkId;
use h2priv_netsim::node::{Ctx, Node, TimerId};
use h2priv_netsim::packet::{FlowId, Packet};
use h2priv_tcp::{TcpConnection, TcpStats};
use h2priv_tls::{ContentType, OpenedRecord, RecordTag, TrafficClass, WireMap};
use h2priv_web::{ObjectId, Site};

pub use crate::browser::{ClientReport, ObjectOutcome, RequestRecord};
use crate::server::{CLIENT_PORT, SERVER_PORT};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum TlsPhase {
    Idle,
    AwaitServerFlight,
    Ready,
}

/// The browser client as a netsim node.
#[derive(Debug)]
pub struct ClientNode {
    page: Browser,
    stack: Stack,
    tls: TlsPhase,
    alloc: StreamIdAllocator,
    consumed_since_update: u64,
}

/// The browser's GETs over HTTP/2: HEADERS frames on successive client
/// streams, and `RST_STREAM(CANCEL)` to reset one.
struct Gets<'a> {
    stack: &'a mut Stack,
    alloc: &'a mut StreamIdAllocator,
}

impl GetTransport for Gets<'_> {
    fn open_get(
        &mut self,
        authority: &str,
        path: &str,
        object: ObjectId,
        attempt: u32,
    ) -> StreamId {
        let stream = self.alloc.next_id();
        let tag = RecordTag {
            stream_id: stream.0,
            object_id: object.0,
            copy: attempt as u16,
            class: TrafficClass::Request,
        };
        self.stack.write_headers(stream, true, tag, |out| {
            hpack::encode_request_into(out, authority, path)
        });
        stream
    }

    fn reset(&mut self, stream: StreamId, object: ObjectId) {
        let tag = RecordTag {
            stream_id: stream.0,
            object_id: object.0,
            copy: 0,
            class: TrafficClass::Control,
        };
        let error = ErrorCode::Cancel;
        let rst = Frame::RstStream { stream, error };
        self.stack.write_frame(&rst, tag);
    }
}

impl ClientNode {
    /// Creates a client that will load `site` once the simulation starts.
    pub fn new(site: Site, cfg: ClientConfig) -> ClientNode {
        let flow = FlowId {
            src: cfg.addr,
            dst: cfg.server_addr,
            sport: CLIENT_PORT,
            dport: SERVER_PORT,
        };
        let stack = Stack::with_tls_options(
            TcpConnection::client(flow, cfg.tcp.clone()),
            0,
            cfg.strip_padding,
        );
        ClientNode {
            page: Browser::new(site, cfg),
            stack,
            tls: TlsPhase::Idle,
            alloc: StreamIdAllocator::client(),
            consumed_since_update: 0,
        }
    }

    /// Builds the post-run report, taking ownership of the accumulated
    /// request records — callers read the report once, at end of trial,
    /// so there is no reason to clone the records.
    pub fn take_report(&mut self) -> ClientReport {
        let retransmits = self.stack.tcp.stats().retransmits();
        self.page.take_report(retransmits)
    }

    /// Final TCP statistics.
    pub fn tcp_stats(&self) -> &TcpStats {
        self.stack.tcp.stats()
    }

    /// A cheap forward-progress fingerprint for stall watchdogs: the
    /// tuple changes whenever the page load makes any application-level
    /// progress (DATA bytes received, an object or the page completing,
    /// or the connection breaking). Reading it mutates nothing.
    pub fn progress_probe(&self) -> (u64, u64, bool, bool) {
        self.page.progress_probe()
    }

    /// Ground-truth wire map of everything this client sent.
    pub fn wire_map(&self) -> &WireMap {
        self.stack.wire_map()
    }

    // ------------------------------------------------------------------

    fn write_frame(&mut self, frame: Frame, tag: RecordTag) {
        self.stack.write_frame(&frame, tag);
    }

    fn handle_records(&mut self, ctx: &mut Ctx<'_>, records: &[OpenedRecord]) {
        for rec in records {
            match rec.content_type {
                ContentType::Handshake => {
                    if self.tls == TlsPhase::AwaitServerFlight {
                        // Server flight received: send Finished, then the
                        // HTTP/2 connection preface (SETTINGS + window).
                        self.stack.write_record(
                            ContentType::Handshake,
                            &Stack::opaque(handshake_sizes::CLIENT_FINISHED),
                            RecordTag::NONE,
                        );
                        self.tls = TlsPhase::Ready;
                        self.write_frame(
                            Frame::Settings {
                                ack: false,
                                params: vec![(0x4, 65_535), (0x5, 16_384)],
                            },
                            RecordTag::NONE,
                        );
                        let raise = self
                            .page
                            .config()
                            .conn_window
                            .saturating_sub(crate::conn::INITIAL_CONNECTION_WINDOW);
                        if raise > 0 {
                            self.write_frame(
                                Frame::WindowUpdate {
                                    stream: StreamId::CONNECTION,
                                    increment: raise as u32,
                                },
                                RecordTag::NONE,
                            );
                        }
                        self.page.start(ctx);
                    }
                }
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
                self.write_frame(
                    Frame::Settings {
                        ack: true,
                        params: vec![],
                    },
                    RecordTag::NONE,
                );
            }
            Frame::Headers {
                stream,
                block,
                end_stream,
            } => {
                if let Some(idx) = self.page.live_request(stream) {
                    self.page.on_headers(ctx, idx, &block);
                    if end_stream {
                        self.page.on_end(ctx, idx);
                    }
                }
            }
            Frame::Data {
                stream,
                len,
                end_stream,
            } => {
                self.grant_window(len);
                if let Some(idx) = self.page.live_request(stream) {
                    self.page.on_data(ctx, idx, len as u64);
                    if end_stream {
                        self.page.on_end(ctx, idx);
                    }
                }
            }
            Frame::PushPromise {
                promised, block, ..
            } => {
                if let Some(req) = hpack::decode_request_ref(&block) {
                    self.page.on_push_promise(ctx, promised, req.path);
                }
            }
            Frame::RstStream { stream, .. } => self.page.on_reset(stream),
            Frame::Ping { ack: false } => {
                self.write_frame(Frame::Ping { ack: true }, RecordTag::NONE);
            }
            Frame::Settings { ack: true, .. }
            | Frame::Ping { ack: true }
            | Frame::Priority { .. }
            | Frame::GoAway { .. }
            | Frame::WindowUpdate { .. } => {}
        }
    }

    fn grant_window(&mut self, len: u32) {
        self.consumed_since_update += len as u64;
        if self.consumed_since_update >= self.page.config().window_update_threshold {
            let inc = self.consumed_since_update as u32;
            self.consumed_since_update = 0;
            self.write_frame(
                Frame::WindowUpdate {
                    stream: StreamId::CONNECTION,
                    increment: inc,
                },
                RecordTag::NONE,
            );
        }
    }

    fn after_activity(&mut self, ctx: &mut Ctx<'_>) {
        self.stack.pump(ctx);
        if let Some(t) = self.stack.timer_needs_rescheduling() {
            let timer = ctx.schedule_at(t);
            self.page.arm_tick(timer);
            self.stack.tcp_tick_at = Some(t);
        }
    }

    fn handle_events(&mut self, events: &[TransportEvent]) {
        for ev in events {
            match ev {
                TransportEvent::Connected => {
                    if self.tls == TlsPhase::Idle {
                        self.stack.write_record(
                            ContentType::Handshake,
                            &Stack::opaque(handshake_sizes::CLIENT_HELLO),
                            RecordTag::NONE,
                        );
                        self.tls = TlsPhase::AwaitServerFlight;
                    }
                }
                TransportEvent::Aborted => self.page.abort(),
                TransportEvent::PeerFin | TransportEvent::Closed => {}
            }
        }
    }
}

impl Node for ClientNode {
    fn on_start(&mut self, ctx: &mut Ctx<'_>) {
        let egress = ctx.egress_links();
        assert_eq!(egress.len(), 1, "client expects exactly one egress link");
        self.stack.set_egress(egress[0]);
        self.stack.tcp.open(ctx.now());
        self.after_activity(ctx);
    }

    fn on_packet(&mut self, ctx: &mut Ctx<'_>, _from: LinkId, pkt: Packet) {
        let inbound = self.stack.on_packet(ctx.now(), pkt);
        self.handle_events(&inbound.events);
        self.handle_records(ctx, &inbound.records);
        self.stack.recycle(inbound);
        self.after_activity(ctx);
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_>, timer: TimerId) {
        let mut gets = Gets {
            stack: &mut self.stack,
            alloc: &mut self.alloc,
        };
        if self.page.on_timer(ctx, timer, &mut gets) {
            self.stack.tcp_tick_at = None;
            let inbound = self.stack.on_tcp_timer(ctx.now());
            self.handle_events(&inbound.events);
            self.handle_records(ctx, &inbound.records);
            self.stack.recycle(inbound);
        }
        self.after_activity(ctx);
    }
}
