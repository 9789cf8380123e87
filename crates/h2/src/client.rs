//! The browser-like HTTP/2 client model.
//!
//! Walks a [`h2priv_web::Site`] request plan with dependency-triggered
//! GETs, then layers on the two recovery behaviours the paper's attack
//! manipulates:
//!
//! * **Re-requests** (Fig. 4): when a GET has seen neither response
//!   headers nor data within an adaptive timeout, the client re-issues it
//!   on a fresh stream. The server then serves multiple copies, which is
//!   the paper's "intensified multiplexing".
//! * **Stream reset** (Fig. 6): when an object makes no progress for a
//!   long stall window (a very lossy channel), the client sends
//!   `RST_STREAM` for its streams, backs off, scales all its timeouts up,
//!   and re-requests — giving the server a clean, quiet window in which
//!   the adversary observes a serialized transmission.

use crate::config::ClientConfig;
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
use h2priv_util::fxhash::FxHashMap;
use h2priv_web::{ObjectId, Site, Trigger};

use crate::server::{CLIENT_PORT, SERVER_PORT};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum TlsPhase {
    Idle,
    AwaitServerFlight,
    Ready,
}

#[derive(Debug)]
enum TimerPurpose {
    TcpTick,
    IssueStep(usize),
    Rerequest(usize),
    StallCheck(ObjectId),
    ReissueAfterReset(ObjectId),
}

/// Outcome record for one GET attempt.
#[derive(Debug, Clone, Copy)]
pub struct RequestRecord {
    /// Requested object.
    pub object: ObjectId,
    /// Stream the GET used.
    pub stream: StreamId,
    /// 0 = first attempt for the object.
    pub attempt: u32,
    /// When the GET was written.
    pub issued_at: SimTime,
    /// When response HEADERS arrived.
    pub headers_at: Option<SimTime>,
    /// When the first DATA arrived.
    pub first_data_at: Option<SimTime>,
    /// When END_STREAM arrived.
    pub completed_at: Option<SimTime>,
    /// DATA bytes received on this stream.
    pub bytes: u64,
    /// Whether the client reset this stream.
    pub reset: bool,
}

/// Outcome record for one object.
#[derive(Debug, Clone, Copy)]
pub struct ObjectOutcome {
    /// The object.
    pub object: ObjectId,
    /// First GET time.
    pub requested_at: Option<SimTime>,
    /// First DATA byte time (any copy).
    pub first_byte_at: Option<SimTime>,
    /// Completion time (first copy to finish).
    pub completed_at: Option<SimTime>,
    /// GET attempts issued.
    pub attempts: u32,
    /// Stream resets performed for it.
    pub resets: u32,
}

/// Everything the client learned during a page load; the experiment
/// harness's main output on the client side.
#[derive(Debug, Clone)]
pub struct ClientReport {
    /// When the HTTP/2 layer became ready (page-load start).
    pub page_started_at: Option<SimTime>,
    /// When every planned object had completed.
    pub page_completed_at: Option<SimTime>,
    /// Per-GET records in issue order.
    pub requests: Vec<RequestRecord>,
    /// Per-object outcomes in inventory order.
    pub objects: Vec<ObjectOutcome>,
    /// App-layer re-requests issued (paper's "retransmission requests").
    pub h2_rerequests: u64,
    /// Object reset events (RST_STREAM bursts) performed.
    pub resets_sent: u64,
    /// Whether the TCP connection aborted ("broken connection").
    pub connection_broken: bool,
    /// Client-side TCP retransmission count.
    pub tcp_retransmits: u64,
}

#[derive(Debug, Default, Clone, Copy)]
struct ObjState {
    requested_at: Option<SimTime>,
    first_byte_at: Option<SimTime>,
    completed_at: Option<SimTime>,
    last_progress: Option<SimTime>,
    attempts: u32,
    resets: u32,
    stall_armed: bool,
    gave_up: bool,
}

/// The browser client as a netsim node.
#[derive(Debug)]
pub struct ClientNode {
    cfg: ClientConfig,
    site: Site,
    stack: Stack,
    tls: TlsPhase,
    alloc: StreamIdAllocator,
    step_scheduled: Vec<bool>,
    objects: Vec<ObjState>,
    requests: Vec<RequestRecord>,
    stream_map: FxHashMap<StreamId, usize>,
    timers: FxHashMap<TimerId, TimerPurpose>,
    consumed_since_update: u64,
    h2_rerequests: u64,
    resets_sent: u64,
    broken: bool,
    timeout_scale: f64,
    page_started_at: Option<SimTime>,
    page_completed_at: Option<SimTime>,
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
        let n_objects = site.len();
        let n_steps = site.plan.len();
        ClientNode {
            cfg,
            site,
            stack,
            tls: TlsPhase::Idle,
            alloc: StreamIdAllocator::client(),
            step_scheduled: vec![false; n_steps],
            objects: vec![ObjState::default(); n_objects],
            requests: Vec::new(),
            stream_map: FxHashMap::default(),
            timers: FxHashMap::default(),
            consumed_since_update: 0,
            h2_rerequests: 0,
            resets_sent: 0,
            broken: false,
            timeout_scale: 1.0,
            page_started_at: None,
            page_completed_at: None,
        }
    }

    /// Builds the post-run report, taking ownership of the accumulated
    /// request records — callers read the report once, at end of trial,
    /// so there is no reason to clone the records.
    pub fn take_report(&mut self) -> ClientReport {
        ClientReport {
            page_started_at: self.page_started_at,
            page_completed_at: self.page_completed_at,
            requests: std::mem::take(&mut self.requests),
            objects: self
                .objects
                .iter()
                .enumerate()
                .map(|(i, o)| ObjectOutcome {
                    object: ObjectId(i as u32),
                    requested_at: o.requested_at,
                    first_byte_at: o.first_byte_at,
                    completed_at: o.completed_at,
                    attempts: o.attempts,
                    resets: o.resets,
                })
                .collect(),
            h2_rerequests: self.h2_rerequests,
            resets_sent: self.resets_sent,
            connection_broken: self.broken,
            tcp_retransmits: self.stack.tcp.stats().retransmits(),
        }
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
        let objects_done = self
            .objects
            .iter()
            .filter(|o| o.completed_at.is_some())
            .count() as u64;
        let data_bytes: u64 = self.requests.iter().map(|r| r.bytes).sum();
        (
            data_bytes,
            objects_done,
            self.page_completed_at.is_some(),
            self.broken,
        )
    }

    /// Ground-truth wire map of everything this client sent.
    pub fn wire_map(&self) -> &WireMap {
        self.stack.wire_map()
    }

    // ------------------------------------------------------------------

    fn obj(&mut self, id: ObjectId) -> &mut ObjState {
        &mut self.objects[id.0 as usize]
    }

    fn is_document(&self, id: ObjectId) -> bool {
        self.cfg.document_priority && self.site.object(id).media == h2priv_web::MediaType::Html
    }

    fn write_frame(&mut self, frame: Frame, tag: RecordTag) {
        self.stack.write_frame(&frame, tag);
    }

    fn start_plan(&mut self, ctx: &mut Ctx<'_>) {
        self.page_started_at = Some(ctx.now());
        for i in 0..self.site.plan.len() {
            if let Trigger::AtStart { gap } = self.site.plan[i].trigger {
                self.schedule_step(ctx, i, gap);
            }
        }
    }

    fn schedule_step(&mut self, ctx: &mut Ctx<'_>, step: usize, gap: SimDuration) {
        if self.step_scheduled[step] {
            return;
        }
        self.step_scheduled[step] = true;
        // Discovery-triggered steps (parsing, script execution) carry far
        // more natural timing variance than pipelined requests.
        let spread = match self.site.plan[step].trigger {
            Trigger::AfterFirstByte { .. } | Trigger::AfterComplete { .. } => {
                self.cfg.discovery_jitter
            }
            _ => self.cfg.gap_jitter,
        };
        let jf = ctx.rng().jitter_factor(spread);
        let t = ctx.schedule(gap.mul_f64(jf));
        self.timers.insert(t, TimerPurpose::IssueStep(step));
    }

    /// Fires dependency triggers after `object` reached `milestone`.
    fn trigger_deps(&mut self, ctx: &mut Ctx<'_>, object: ObjectId, milestone: Milestone) {
        for i in 0..self.site.plan.len() {
            if self.step_scheduled[i] {
                continue;
            }
            let gap = match (self.site.plan[i].trigger, milestone) {
                (Trigger::AfterRequest { prev, gap }, Milestone::Requested) if prev == object => {
                    Some(gap)
                }
                (Trigger::AfterFirstByte { parent, gap }, Milestone::FirstByte)
                    if parent == object =>
                {
                    Some(gap)
                }
                (Trigger::AfterComplete { parent, gap }, Milestone::Completed)
                    if parent == object =>
                {
                    Some(gap)
                }
                _ => None,
            };
            if let Some(gap) = gap {
                self.schedule_step(ctx, i, gap);
            }
        }
    }

    fn issue_get(&mut self, ctx: &mut Ctx<'_>, object: ObjectId) {
        if self.broken || self.obj(object).gave_up {
            return;
        }
        let attempt = self.obj(object).attempts;
        self.obj(object).attempts += 1;
        let stream = self.alloc.next_id();
        let req_idx = self.requests.len();
        self.requests.push(RequestRecord {
            object,
            stream,
            attempt,
            issued_at: ctx.now(),
            headers_at: None,
            first_data_at: None,
            completed_at: None,
            bytes: 0,
            reset: false,
        });
        self.stream_map.insert(stream, req_idx);
        let (authority, path) = (&self.cfg.authority, &self.site.object(object).path);
        self.stack.write_headers(
            stream,
            true,
            RecordTag {
                stream_id: stream.0,
                object_id: object.0,
                copy: attempt as u16,
                class: TrafficClass::Request,
            },
            |out| hpack::encode_request_into(out, authority, path),
        );
        let first = self.obj(object).requested_at.is_none();
        if first {
            self.obj(object).requested_at = Some(ctx.now());
        }
        // Arm the re-request watchdog (HTML documents retry faster when
        // document priority is on).
        if self.cfg.rerequest.enabled {
            let mut factor = self.cfg.rerequest.backoff.powi(attempt as i32) * self.timeout_scale;
            if self.is_document(object) {
                factor *= 0.5;
            }
            let t = ctx.schedule(self.cfg.rerequest.timeout.mul_f64(factor));
            self.timers.insert(t, TimerPurpose::Rerequest(req_idx));
        }
        // Arm the stall watchdog once per object.
        if !self.obj(object).stall_armed {
            self.obj(object).stall_armed = true;
            let t = ctx.schedule(self.cfg.reset.stall_timeout);
            self.timers.insert(t, TimerPurpose::StallCheck(object));
        }
        if first {
            self.trigger_deps(ctx, object, Milestone::Requested);
        }
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
                            .cfg
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
                        self.start_plan(ctx);
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
                if let Some(&idx) = self.stream_map.get(&stream) {
                    let now = ctx.now();
                    if self.requests[idx].reset {
                        return; // stale response to a reset stream
                    }
                    self.requests[idx].headers_at = Some(now);
                    let object = self.requests[idx].object;
                    self.obj(object).last_progress = Some(now);
                    // Decoding the response is a sanity check only; release
                    // builds skip it and its String allocations.
                    if cfg!(debug_assertions) {
                        if let Some(resp) = hpack::decode_response(&block) {
                            assert_eq!(resp.status, 200);
                        }
                    }
                    if end_stream {
                        self.complete_request(ctx, idx);
                    }
                }
            }
            Frame::Data {
                stream,
                len,
                end_stream,
            } => {
                self.grant_window(len);
                if let Some(&idx) = self.stream_map.get(&stream) {
                    if self.requests[idx].reset {
                        return; // bytes of a cancelled copy still in flight
                    }
                    let now = ctx.now();
                    self.requests[idx].bytes += len as u64;
                    let object = self.requests[idx].object;
                    if self.requests[idx].first_data_at.is_none() {
                        self.requests[idx].first_data_at = Some(now);
                    }
                    self.obj(object).last_progress = Some(now);
                    if self.obj(object).first_byte_at.is_none() {
                        self.obj(object).first_byte_at = Some(now);
                        self.trigger_deps(ctx, object, Milestone::FirstByte);
                    }
                    if end_stream {
                        self.complete_request(ctx, idx);
                    }
                }
            }
            Frame::PushPromise {
                promised, block, ..
            } => {
                self.handle_push_promise(ctx, promised, &block);
            }
            Frame::RstStream { stream, .. } => {
                if let Some(&idx) = self.stream_map.get(&stream) {
                    self.requests[idx].reset = true;
                }
            }
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

    /// A PUSH_PROMISE reserves a server stream for an object the client
    /// would otherwise request: accept it, account its data like a
    /// response, and cancel the object's own pending plan step.
    fn handle_push_promise(&mut self, ctx: &mut Ctx<'_>, promised: StreamId, block: &[u8]) {
        let Some(req) = hpack::decode_request_ref(block) else {
            return;
        };
        let Some(object) = self.site.by_path(req.path).map(|o| o.id) else {
            return;
        };
        if self.obj(object).completed_at.is_some() {
            return; // already have it; a real client would RST the push
        }
        let req_idx = self.requests.len();
        let attempt = self.obj(object).attempts;
        self.requests.push(RequestRecord {
            object,
            stream: promised,
            attempt,
            issued_at: ctx.now(),
            headers_at: None,
            first_data_at: None,
            completed_at: None,
            bytes: 0,
            reset: false,
        });
        self.stream_map.insert(promised, req_idx);
        // Suppress the browser's own GET for this object: cancel unfired
        // plan steps and count the push as the object's first attempt so
        // an already-armed issue timer backs off.
        for (i, step) in self.site.plan.iter().enumerate() {
            if step.object == object {
                self.step_scheduled[i] = true;
            }
        }
        self.obj(object).attempts += 1;
        if self.obj(object).requested_at.is_none() {
            self.obj(object).requested_at = Some(ctx.now());
            self.trigger_deps(ctx, object, Milestone::Requested);
        }
        if !self.obj(object).stall_armed {
            self.obj(object).stall_armed = true;
            let t = ctx.schedule(self.cfg.reset.stall_timeout);
            self.timers.insert(t, TimerPurpose::StallCheck(object));
        }
    }

    fn grant_window(&mut self, len: u32) {
        self.consumed_since_update += len as u64;
        if self.consumed_since_update >= self.cfg.window_update_threshold {
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

    fn complete_request(&mut self, ctx: &mut Ctx<'_>, idx: usize) {
        let now = ctx.now();
        self.requests[idx].completed_at = Some(now);
        let object = self.requests[idx].object;
        if self.obj(object).completed_at.is_none() {
            self.obj(object).completed_at = Some(now);
            self.trigger_deps(ctx, object, Milestone::Completed);
            self.check_page_complete(now);
        }
    }

    fn check_page_complete(&mut self, now: SimTime) {
        if self.page_completed_at.is_some() {
            return;
        }
        let all = self
            .site
            .plan
            .iter()
            .all(|s| self.objects[s.object.0 as usize].completed_at.is_some());
        if all {
            self.page_completed_at = Some(now);
        }
    }

    fn rerequest_check(&mut self, ctx: &mut Ctx<'_>, req_idx: usize) {
        let (object, stale) = {
            let r = &self.requests[req_idx];
            (
                r.object,
                r.headers_at.is_none() && r.first_data_at.is_none() && !r.reset,
            )
        };
        if !stale || self.obj(object).completed_at.is_some() || self.broken {
            return;
        }
        if self.obj(object).attempts < self.cfg.rerequest.max_attempts {
            self.h2_rerequests += 1;
            self.issue_get(ctx, object);
        }
    }

    fn stall_check(&mut self, ctx: &mut Ctx<'_>, object: ObjectId) {
        let now = ctx.now();
        let state = *self.obj(object);
        if state.completed_at.is_some() || state.gave_up || self.broken {
            self.obj(object).stall_armed = false;
            return;
        }
        let last = state.last_progress.or(state.requested_at).unwrap_or(now);
        let idle = now.saturating_since(last);
        if idle >= self.cfg.reset.stall_timeout {
            if state.resets >= self.cfg.reset.max_resets_per_object {
                self.obj(object).gave_up = true;
                self.obj(object).stall_armed = false;
                return;
            }
            // A badly lossy channel: the browser resets *all* ongoing
            // streams (paper Fig. 6 — "the client resets the streams"),
            // which flushes every queued object segment from the server,
            // then re-requests incomplete resources after a backoff. The
            // navigation document goes first (browser priority).
            let streams: Vec<(StreamId, ObjectId)> = self
                .requests
                .iter()
                .filter(|r| r.completed_at.is_none() && !r.reset)
                .map(|r| (r.stream, r.object))
                .collect();
            for (s, o) in &streams {
                self.write_frame(
                    Frame::RstStream {
                        stream: *s,
                        error: ErrorCode::Cancel,
                    },
                    RecordTag {
                        stream_id: s.0,
                        object_id: o.0,
                        copy: 0,
                        class: TrafficClass::Control,
                    },
                );
            }
            for r in self.requests.iter_mut() {
                if r.completed_at.is_none() {
                    r.reset = true;
                }
            }
            self.resets_sent += 1;
            // Paper: after the reset the client waits longer before
            // retrying anything.
            self.timeout_scale = self.cfg.reset.post_reset_timeout_scale;
            let incomplete: Vec<ObjectId> = (0..self.objects.len() as u32)
                .map(ObjectId)
                .filter(|o| {
                    let st = self.objects[o.0 as usize];
                    st.requested_at.is_some() && st.completed_at.is_none() && !st.gave_up
                })
                .collect();
            for o in incomplete {
                self.obj(o).resets += 1;
                self.obj(o).last_progress = Some(now);
                let backoff = if self.is_document(o) {
                    self.cfg.reset.backoff.mul_f64(0.3)
                } else {
                    self.cfg.reset.backoff
                };
                let t = ctx.schedule(backoff);
                self.timers.insert(t, TimerPurpose::ReissueAfterReset(o));
                let t = ctx.schedule(self.cfg.reset.stall_timeout + backoff);
                self.timers.insert(t, TimerPurpose::StallCheck(o));
            }
        } else {
            let t = ctx.schedule_at(last + self.cfg.reset.stall_timeout);
            self.timers.insert(t, TimerPurpose::StallCheck(object));
        }
    }

    fn after_activity(&mut self, ctx: &mut Ctx<'_>) {
        self.stack.pump(ctx);
        if let Some(t) = self.stack.timer_needs_rescheduling() {
            let timer = ctx.schedule_at(t);
            self.timers.insert(timer, TimerPurpose::TcpTick);
            self.stack.tcp_tick_at = Some(t);
        }
    }

    fn handle_events(&mut self, ctx: &mut Ctx<'_>, events: &[TransportEvent]) {
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
                TransportEvent::Aborted => {
                    self.broken = true;
                }
                TransportEvent::PeerFin | TransportEvent::Closed => {}
            }
        }
        let _ = ctx;
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Milestone {
    Requested,
    FirstByte,
    Completed,
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
        self.handle_events(ctx, &inbound.events);
        self.handle_records(ctx, &inbound.records);
        self.stack.recycle(inbound);
        self.after_activity(ctx);
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_>, timer: TimerId) {
        match self.timers.remove(&timer) {
            Some(TimerPurpose::TcpTick) => {
                self.stack.tcp_tick_at = None;
                let inbound = self.stack.on_tcp_timer(ctx.now());
                self.handle_events(ctx, &inbound.events);
                self.handle_records(ctx, &inbound.records);
                self.stack.recycle(inbound);
            }
            Some(TimerPurpose::IssueStep(step)) => {
                let object = self.site.plan[step].object;
                // Only the plan's first GET for an object goes through
                // here; re-requests are issued by the watchdogs.
                if self.obj(object).attempts == 0 {
                    self.issue_get(ctx, object);
                }
            }
            Some(TimerPurpose::Rerequest(req_idx)) => {
                self.rerequest_check(ctx, req_idx);
            }
            Some(TimerPurpose::StallCheck(object)) => {
                self.stall_check(ctx, object);
            }
            Some(TimerPurpose::ReissueAfterReset(object))
                if self.obj(object).completed_at.is_none() && !self.obj(object).gave_up =>
            {
                self.issue_get(ctx, object);
            }
            Some(TimerPurpose::ReissueAfterReset(_)) | None => {}
        }
        self.after_activity(ctx);
    }
}
