//! The server's worker model, written once for both transports.
//!
//! Each GET spawns a simulated worker thread (paper Fig. 3): after a
//! time-to-first-byte drawn from the object's
//! [`h2priv_web::ServiceProfile`], the worker sends the response headers,
//! then emits DATA chunks on a pacing timer. Duplicate GETs for an object
//! (the client's re-requests) spawn additional workers serving additional
//! *copies* — the paper's observed "intensified multiplexing" pathology
//! (Fig. 4). Under [`MuxPolicy::Serial`] one worker runs at a time, in
//! request order; a client stream reset kills the stream's workers.
//!
//! The HTTP/2 [`ServerNode`](crate::server::ServerNode) and the HTTP/3
//! `H3ServerNode` of `h2priv-quic` each own one `Backend` and hand it the
//! requests their transport decodes; the workers write their responses
//! back through [`ResponseTransport`]. Both servers therefore make the
//! same draws in the same order and serve the same copies.

use crate::config::MuxPolicy;
use crate::frame::ErrorCode;
use crate::hpack;
use crate::stream::StreamId;
use h2priv_netsim::node::{Ctx, TimerId};
use h2priv_netsim::time::{SimDuration, SimTime};
use h2priv_tls::{RecordTag, TrafficClass};
use h2priv_util::fxhash::FxHashMap;
use h2priv_util::telemetry;
use h2priv_web::{MediaType, ObjectId, Site};
use std::collections::VecDeque;

/// The three things a worker asks of its transport.
pub trait ResponseTransport {
    /// Sends the headers of a 200 response carrying `size` bytes of
    /// `media` on `stream`, tagged `tag`.
    fn send_headers(&mut self, stream: StreamId, size: u64, media: &str, tag: RecordTag);

    /// Sends `len` body bytes on `stream`, ending it when `end_stream`,
    /// tagged `tag`.
    fn send_data(&mut self, stream: StreamId, len: u64, end_stream: bool, tag: RecordTag);

    /// Refuses the request on `stream` with `error`.
    fn refuse(&mut self, stream: StreamId, error: ErrorCode);
}

/// A server node's own timers. Each node keeps one timer map, the
/// backend's, and arms these there beside the workers' pacing timers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NodeTimer {
    /// The transport's own timer.
    Tick,
    /// The HTTP/2 shaping tick.
    Shape,
}

#[derive(Debug, Clone, Copy)]
enum ServerTimer {
    Node(NodeTimer),
    /// Worker `usize`'s next step.
    Worker(usize),
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
    /// Per-chunk emission interval (drawn when the worker starts).
    chunk_interval: SimDuration,
}

/// The response content type of each media type.
fn content_type(media: MediaType) -> &'static str {
    match media {
        MediaType::Html => "text/html",
        MediaType::Js => "application/javascript",
        MediaType::Css => "text/css",
        MediaType::Image => "image/png",
        MediaType::Json => "application/json",
        MediaType::Font => "font/woff2",
    }
}

/// The server's workers, their serve log and copy counts.
#[derive(Debug)]
pub struct Backend {
    site: Site,
    mux: MuxPolicy,
    serve_duplicates: bool,
    workers: Vec<Worker>,
    serve_log: Vec<ServeRecord>,
    serial_queue: VecDeque<usize>,
    copies: FxHashMap<ObjectId, u16>,
    timers: FxHashMap<TimerId, ServerTimer>,
    dead: bool,
}

impl Backend {
    /// A backend serving `site` under `mux`; `serve_duplicates` as in
    /// [`crate::ServerConfig::serve_duplicates`].
    pub fn new(site: Site, mux: MuxPolicy, serve_duplicates: bool) -> Backend {
        Backend {
            site,
            mux,
            serve_duplicates,
            workers: Vec::new(),
            serve_log: Vec::new(),
            serial_queue: VecDeque::new(),
            copies: FxHashMap::default(),
            timers: FxHashMap::default(),
            dead: false,
        }
    }

    /// The site served.
    pub(crate) fn site(&self) -> &Site {
        &self.site
    }

    /// Ground-truth serve log (one entry per GET actually served).
    pub fn serve_log(&self) -> &[ServeRecord] {
        &self.serve_log
    }

    /// Copies served per object (≥2 indicates the duplicate-serving
    /// pathology fired).
    pub fn copies_served(&self, object: ObjectId) -> u16 {
        self.copies.get(&object).copied().unwrap_or(0)
    }

    /// Whether any worker is queued or still producing its response.
    pub(crate) fn has_pending_work(&self) -> bool {
        self.workers.iter().any(|w| {
            matches!(
                w.state,
                WorkerState::Queued | WorkerState::FirstByteWait | WorkerState::Streaming
            )
        })
    }

    /// Whether the transport connection aborted.
    pub(crate) fn is_dead(&self) -> bool {
        self.dead
    }

    /// The transport connection aborted: workers stop producing.
    pub fn abort(&mut self) {
        self.dead = true;
    }

    /// Arms `timer`, which the node scheduled, for the node's `purpose`.
    pub fn arm(&mut self, timer: TimerId, purpose: NodeTimer) {
        self.timers.insert(timer, ServerTimer::Node(purpose));
    }

    /// Runs a fired timer: a worker's step here. Returns what the timer
    /// is for when it is one of the node's own, which the node runs
    /// itself.
    pub fn on_timer(
        &mut self,
        ctx: &mut Ctx<'_>,
        timer: TimerId,
        io: &mut impl ResponseTransport,
    ) -> Option<NodeTimer> {
        match self.timers.remove(&timer)? {
            ServerTimer::Node(purpose) => return Some(purpose),
            ServerTimer::Worker(idx) => self.worker_tick(ctx, idx, io),
        }
        None
    }

    /// Serves the GET whose header block `block` arrived on `stream`:
    /// refuses an undecodable request or an unknown path, counts the
    /// object's copy, and spawns a worker unless deduplication drops the
    /// copy. Returns the object when a worker was spawned.
    pub fn on_request(
        &mut self,
        ctx: &mut Ctx<'_>,
        stream: StreamId,
        block: &[u8],
        io: &mut impl ResponseTransport,
    ) -> Option<ObjectId> {
        let Some(req) = hpack::decode_request_ref(block) else {
            io.refuse(stream, ErrorCode::ProtocolError);
            return None;
        };
        let Some(object) = self.site.by_path(req.path).map(|o| o.id) else {
            io.refuse(stream, ErrorCode::RefusedStream);
            return None;
        };
        let copy = self.next_copy(object);
        if copy > 0 && !self.serve_duplicates {
            // Deduplicating server (ablation): the original stream is
            // already serving this object; ignore the duplicate.
            return None;
        }
        self.spawn_worker(ctx, stream, object, copy);
        Some(object)
    }

    /// Counts one more copy of `object`; returns its copy index.
    pub(crate) fn next_copy(&mut self, object: ObjectId) -> u16 {
        let c = self.copies.entry(object).or_insert(0);
        let this = *c;
        *c += 1;
        this
    }

    /// Spawns a worker serving copy `copy` of `object` on `stream`.
    pub(crate) fn spawn_worker(
        &mut self,
        ctx: &mut Ctx<'_>,
        stream: StreamId,
        object: ObjectId,
        copy: u16,
    ) {
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
        if self.mux == MuxPolicy::Serial && someone_active {
            self.serial_queue.push_back(idx);
        } else {
            self.start_worker(ctx, idx);
        }
    }

    /// Kills the workers of a stream the client reset, so their pacing
    /// timers queue nothing more; the node clears what its transport
    /// already queued.
    pub fn kill(&mut self, ctx: &mut Ctx<'_>, stream: StreamId) {
        let mut killed_any = false;
        for (idx, w) in self.workers.iter_mut().enumerate() {
            if w.stream == stream && !matches!(w.state, WorkerState::Done | WorkerState::Killed) {
                w.state = WorkerState::Killed;
                self.serve_log[idx].killed = true;
                killed_any = true;
            }
        }
        if killed_any && self.mux == MuxPolicy::Serial {
            self.start_next_serial(ctx);
        }
    }

    /// Runs worker `idx`'s next step: the response headers after the
    /// first-byte wait, then one DATA chunk per pacing interval.
    fn worker_tick(&mut self, ctx: &mut Ctx<'_>, idx: usize, io: &mut impl ResponseTransport) {
        if self.dead {
            return;
        }
        let (stream, object, state) = {
            let w = &self.workers[idx];
            (w.stream, w.object, w.state)
        };
        let obj = self.site.object(object);
        let copy = self.serve_log[idx].copy;
        let tag = |class| RecordTag {
            stream_id: stream.0,
            object_id: object.0,
            copy,
            class,
        };
        match state {
            WorkerState::FirstByteWait => {
                self.serve_log[idx].first_byte_at = Some(ctx.now());
                io.send_headers(
                    stream,
                    obj.size,
                    content_type(obj.media),
                    tag(TrafficClass::ResponseHeaders),
                );
                self.workers[idx].state = WorkerState::Streaming;
                let interval = self.workers[idx].chunk_interval;
                let t = ctx.schedule(interval);
                self.timers.insert(t, ServerTimer::Worker(idx));
            }
            WorkerState::Streaming => {
                let chunk = (obj.service.chunk_size as u64).min(self.workers[idx].remaining);
                self.workers[idx].remaining -= chunk;
                let end_stream = self.workers[idx].remaining == 0;
                io.send_data(stream, chunk, end_stream, tag(TrafficClass::ObjectData));
                if end_stream {
                    self.workers[idx].state = WorkerState::Done;
                    self.serve_log[idx].completed_at = Some(ctx.now());
                    let requested = self.serve_log[idx].requested_at;
                    telemetry::observe(
                        "h2.serve_ns",
                        ctx.now().as_nanos().saturating_sub(requested.as_nanos()),
                    );
                    if self.mux == MuxPolicy::Serial {
                        self.start_next_serial(ctx);
                    }
                } else {
                    let interval = self.workers[idx].chunk_interval;
                    let t = ctx.schedule(interval);
                    self.timers.insert(t, ServerTimer::Worker(idx));
                }
            }
            WorkerState::Queued | WorkerState::Done | WorkerState::Killed => {}
        }
    }

    fn start_worker(&mut self, ctx: &mut Ctx<'_>, idx: usize) {
        let object = self.workers[idx].object;
        let obj = self.site.object(object);
        let fb = obj.service.draw_first_byte(ctx.rng());
        self.workers[idx].chunk_interval = obj.service.draw_chunk_interval(ctx.rng(), obj.size);
        self.workers[idx].state = WorkerState::FirstByteWait;
        let t = ctx.schedule(fb);
        self.timers.insert(t, ServerTimer::Worker(idx));
    }

    fn start_next_serial(&mut self, ctx: &mut Ctx<'_>) {
        while let Some(next) = self.serial_queue.pop_front() {
            if matches!(self.workers[next].state, WorkerState::Queued) {
                self.start_worker(ctx, next);
                return;
            }
        }
    }
}
