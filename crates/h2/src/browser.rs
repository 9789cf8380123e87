//! The browser's page-load model, written once for both transports.
//!
//! [`Browser`] walks a [`h2priv_web::Site`] request plan with
//! dependency-triggered GETs, then layers on the two recovery behaviours
//! the paper's attack manipulates:
//!
//! * **Re-requests** (Fig. 4): when a GET has seen neither response
//!   headers nor data within an adaptive timeout, the browser re-issues it
//!   on a fresh stream. The server then serves multiple copies, which is
//!   the paper's "intensified multiplexing".
//! * **Stream reset** (Fig. 6): when an object makes no progress for a
//!   long stall window (a very lossy channel), the browser resets its
//!   streams, backs off, scales all its timeouts up, and re-requests —
//!   giving the server a clean, quiet window in which the adversary
//!   observes a serialized transmission.
//!
//! The HTTP/2 [`ClientNode`](crate::client::ClientNode) and the HTTP/3
//! `H3ClientNode` of `h2priv-quic` each own one `Browser` and feed it
//! their transport's events; the browser drives the transport back
//! through [`GetTransport`]. Both clients therefore issue the same GETs
//! at the same times and draw the same jitter, whatever carries them.

use crate::config::ClientConfig;
use crate::hpack;
use crate::stream::StreamId;
use h2priv_netsim::node::{Ctx, TimerId};
use h2priv_netsim::time::{SimDuration, SimTime};
use h2priv_util::fxhash::FxHashMap;
use h2priv_web::{MediaType, ObjectId, Site, Trigger};

/// The two things the browser asks of its transport.
pub trait GetTransport {
    /// Opens the next request stream and sends on it, ending the stream,
    /// a GET for `path` at `authority`: attempt `attempt` at `object`,
    /// which the request's wire tag records. Returns the stream.
    fn open_get(&mut self, authority: &str, path: &str, object: ObjectId, attempt: u32)
        -> StreamId;

    /// Resets `stream`, which carries a GET for `object`.
    fn reset(&mut self, stream: StreamId, object: ObjectId);
}

/// What a client timer is for. Each node keeps one timer map, the
/// browser's, and arms its transport's tick there too.
#[derive(Debug, Clone, Copy)]
enum ClientTimer {
    /// The transport's own timer, run by the node.
    Tick,
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
    /// When the HTTP layer became ready (page-load start).
    pub page_started_at: Option<SimTime>,
    /// When every planned object had completed.
    pub page_completed_at: Option<SimTime>,
    /// Per-GET records in issue order.
    pub requests: Vec<RequestRecord>,
    /// Per-object outcomes in inventory order.
    pub objects: Vec<ObjectOutcome>,
    /// App-layer re-requests issued (paper's "retransmission requests").
    pub h2_rerequests: u64,
    /// Object reset events (reset volleys) performed.
    pub resets_sent: u64,
    /// Whether the transport connection aborted ("broken connection").
    pub connection_broken: bool,
    /// Client-side transport retransmission count.
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

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Milestone {
    Requested,
    FirstByte,
    Completed,
}

/// The browser's state for one page load.
#[derive(Debug)]
pub struct Browser {
    cfg: ClientConfig,
    site: Site,
    step_scheduled: Vec<bool>,
    objects: Vec<ObjState>,
    requests: Vec<RequestRecord>,
    stream_map: FxHashMap<StreamId, usize>,
    timers: FxHashMap<TimerId, ClientTimer>,
    h2_rerequests: u64,
    resets_sent: u64,
    broken: bool,
    timeout_scale: f64,
    page_started_at: Option<SimTime>,
    page_completed_at: Option<SimTime>,
}

impl Browser {
    /// A browser that will load `site` once [`Browser::start`] is called.
    pub fn new(site: Site, cfg: ClientConfig) -> Browser {
        let n_objects = site.len();
        let n_steps = site.plan.len();
        Browser {
            cfg,
            site,
            step_scheduled: vec![false; n_steps],
            objects: vec![ObjState::default(); n_objects],
            requests: Vec::new(),
            stream_map: FxHashMap::default(),
            timers: FxHashMap::default(),
            h2_rerequests: 0,
            resets_sent: 0,
            broken: false,
            timeout_scale: 1.0,
            page_started_at: None,
            page_completed_at: None,
        }
    }

    /// The client configuration.
    pub(crate) fn config(&self) -> &ClientConfig {
        &self.cfg
    }

    /// Builds the post-run report, taking ownership of the accumulated
    /// request records — callers read the report once, at end of trial,
    /// so there is no reason to clone the records. `transport_retransmits`
    /// is the transport's own retransmission count.
    pub fn take_report(&mut self, transport_retransmits: u64) -> ClientReport {
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
            tcp_retransmits: transport_retransmits,
        }
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

    /// Starts the page load: schedules the plan's `AtStart` steps. Later
    /// calls do nothing.
    pub fn start(&mut self, ctx: &mut Ctx<'_>) {
        if self.page_started_at.is_some() {
            return;
        }
        self.page_started_at = Some(ctx.now());
        for i in 0..self.site.plan.len() {
            if let Trigger::AtStart { gap } = self.site.plan[i].trigger {
                self.schedule_step(ctx, i, gap);
            }
        }
    }

    /// The transport connection aborted.
    pub fn abort(&mut self) {
        self.broken = true;
    }

    /// Arms `timer`, which the node scheduled, as its transport's tick.
    pub fn arm_tick(&mut self, timer: TimerId) {
        self.timers.insert(timer, ClientTimer::Tick);
    }

    /// Runs a fired timer. Returns `true` when it is the transport's tick,
    /// which the node runs itself.
    pub fn on_timer(
        &mut self,
        ctx: &mut Ctx<'_>,
        timer: TimerId,
        io: &mut impl GetTransport,
    ) -> bool {
        match self.timers.remove(&timer) {
            Some(ClientTimer::Tick) => return true,
            Some(ClientTimer::IssueStep(step)) => {
                let object = self.site.plan[step].object;
                // Only the plan's first GET for an object goes through
                // here; re-requests are issued by the watchdogs.
                if self.obj(object).attempts == 0 {
                    self.issue_get(ctx, object, io);
                }
            }
            Some(ClientTimer::Rerequest(req_idx)) => self.rerequest_check(ctx, req_idx, io),
            Some(ClientTimer::StallCheck(object)) => self.stall_check(ctx, object, io),
            Some(ClientTimer::ReissueAfterReset(object))
                if self.obj(object).completed_at.is_none() && !self.obj(object).gave_up =>
            {
                self.issue_get(ctx, object, io);
            }
            Some(ClientTimer::ReissueAfterReset(_)) | None => {}
        }
        false
    }

    /// The request record open on `stream`, unless the stream is unknown
    /// or was reset: bytes of a cancelled copy still in flight are
    /// ignored.
    pub fn live_request(&self, stream: StreamId) -> Option<usize> {
        self.stream_map
            .get(&stream)
            .copied()
            .filter(|&idx| !self.requests[idx].reset)
    }

    /// Response headers arrived for request record `idx`.
    ///
    /// # Panics
    /// In debug builds, panics unless `block` decodes as a 200 response.
    pub fn on_headers(&mut self, ctx: &mut Ctx<'_>, idx: usize, block: &[u8]) {
        let now = ctx.now();
        self.requests[idx].headers_at = Some(now);
        let object = self.requests[idx].object;
        self.obj(object).last_progress = Some(now);
        // Decoding the response is a sanity check only; release builds
        // skip it and its String allocations.
        if cfg!(debug_assertions) {
            let status = hpack::decode_response(block).map(|r| r.status);
            assert_eq!(status, Some(200), "response HEADERS must decode as a 200");
        }
    }

    /// `len` response body bytes arrived for request record `idx`.
    pub fn on_data(&mut self, ctx: &mut Ctx<'_>, idx: usize, len: u64) {
        let now = ctx.now();
        self.requests[idx].bytes += len;
        let object = self.requests[idx].object;
        if self.requests[idx].first_data_at.is_none() {
            self.requests[idx].first_data_at = Some(now);
        }
        self.obj(object).last_progress = Some(now);
        if self.obj(object).first_byte_at.is_none() {
            self.obj(object).first_byte_at = Some(now);
            self.trigger_deps(ctx, object, Milestone::FirstByte);
        }
    }

    /// The response on request record `idx` ended.
    pub fn on_end(&mut self, ctx: &mut Ctx<'_>, idx: usize) {
        let now = ctx.now();
        self.requests[idx].completed_at = Some(now);
        let object = self.requests[idx].object;
        if self.obj(object).completed_at.is_none() {
            self.obj(object).completed_at = Some(now);
            self.trigger_deps(ctx, object, Milestone::Completed);
            self.check_page_complete(now);
        }
    }

    /// The server reset `stream`.
    pub fn on_reset(&mut self, stream: StreamId) {
        if let Some(&idx) = self.stream_map.get(&stream) {
            self.requests[idx].reset = true;
        }
    }

    /// A server push promised `path` on stream `promised`: the browser
    /// accepts it, accounts its data like a response, and cancels the
    /// object's own pending plan step.
    pub(crate) fn on_push_promise(&mut self, ctx: &mut Ctx<'_>, promised: StreamId, path: &str) {
        let Some(object) = self.site.by_path(path).map(|o| o.id) else {
            return;
        };
        if self.obj(object).completed_at.is_some() {
            return; // already have it; a real client would RST the push
        }
        let attempt = self.obj(object).attempts;
        self.open_record(ctx.now(), object, promised, attempt);
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
        self.arm_stall(ctx, object);
    }

    // ------------------------------------------------------------------

    fn obj(&mut self, id: ObjectId) -> &mut ObjState {
        &mut self.objects[id.0 as usize]
    }

    fn is_document(&self, id: ObjectId) -> bool {
        self.cfg.document_priority && self.site.object(id).media == MediaType::Html
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
        self.timers.insert(t, ClientTimer::IssueStep(step));
    }

    /// Fires dependency triggers after `object` reached `milestone`.
    fn trigger_deps(&mut self, ctx: &mut Ctx<'_>, object: ObjectId, milestone: Milestone) {
        for i in 0..self.site.plan.len() {
            if self.step_scheduled[i] {
                continue;
            }
            match (self.site.plan[i].trigger, milestone) {
                (Trigger::AfterRequest { prev: o, gap }, Milestone::Requested)
                | (Trigger::AfterFirstByte { parent: o, gap }, Milestone::FirstByte)
                | (Trigger::AfterComplete { parent: o, gap }, Milestone::Completed)
                    if o == object =>
                {
                    self.schedule_step(ctx, i, gap);
                }
                _ => {}
            }
        }
    }

    fn issue_get(&mut self, ctx: &mut Ctx<'_>, object: ObjectId, io: &mut impl GetTransport) {
        if self.broken || self.obj(object).gave_up {
            return;
        }
        let attempt = self.obj(object).attempts;
        self.obj(object).attempts += 1;
        let stream = io.open_get(
            &self.cfg.authority,
            &self.site.object(object).path,
            object,
            attempt,
        );
        let req_idx = self.open_record(ctx.now(), object, stream, attempt);
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
            self.timers.insert(t, ClientTimer::Rerequest(req_idx));
        }
        self.arm_stall(ctx, object);
        if first {
            self.trigger_deps(ctx, object, Milestone::Requested);
        }
    }

    /// Records attempt `attempt` at `object` on `stream`; returns the
    /// record's index.
    fn open_record(
        &mut self,
        now: SimTime,
        object: ObjectId,
        stream: StreamId,
        attempt: u32,
    ) -> usize {
        let idx = self.requests.len();
        self.requests.push(RequestRecord {
            object,
            stream,
            attempt,
            issued_at: now,
            headers_at: None,
            first_data_at: None,
            completed_at: None,
            bytes: 0,
            reset: false,
        });
        self.stream_map.insert(stream, idx);
        idx
    }

    /// Arms the stall watchdog, once per object.
    fn arm_stall(&mut self, ctx: &mut Ctx<'_>, object: ObjectId) {
        if !self.obj(object).stall_armed {
            self.obj(object).stall_armed = true;
            let t = ctx.schedule(self.cfg.reset.stall_timeout);
            self.timers.insert(t, ClientTimer::StallCheck(object));
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

    fn rerequest_check(&mut self, ctx: &mut Ctx<'_>, req_idx: usize, io: &mut impl GetTransport) {
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
            self.issue_get(ctx, object, io);
        }
    }

    fn stall_check(&mut self, ctx: &mut Ctx<'_>, object: ObjectId, io: &mut impl GetTransport) {
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
            for r in &mut self.requests {
                if r.completed_at.is_none() {
                    if !r.reset {
                        io.reset(r.stream, r.object);
                    }
                    r.reset = true;
                }
            }
            self.resets_sent += 1;
            // Paper: after the reset the client waits longer before
            // retrying anything.
            self.timeout_scale = self.cfg.reset.post_reset_timeout_scale;
            for idx in 0..self.objects.len() {
                let st = self.objects[idx];
                if st.requested_at.is_none() || st.completed_at.is_some() || st.gave_up {
                    continue;
                }
                let o = ObjectId(idx as u32);
                self.obj(o).resets += 1;
                self.obj(o).last_progress = Some(now);
                let backoff = if self.is_document(o) {
                    self.cfg.reset.backoff.mul_f64(0.3)
                } else {
                    self.cfg.reset.backoff
                };
                let t = ctx.schedule(backoff);
                self.timers.insert(t, ClientTimer::ReissueAfterReset(o));
                let t = ctx.schedule(self.cfg.reset.stall_timeout + backoff);
                self.timers.insert(t, ClientTimer::StallCheck(o));
            }
        } else {
            let t = ctx.schedule_at(last + self.cfg.reset.stall_timeout);
            self.timers.insert(t, ClientTimer::StallCheck(object));
        }
    }
}
