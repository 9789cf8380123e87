//! Connection-level machinery shared by both endpoints: the frame output
//! scheduler (round-robin across streams — the mechanism that interleaves
//! object segments on the wire) and connection-level flow control.

use crate::frame::Frame;
use crate::stream::StreamId;
use h2priv_tls::RecordTag;
use h2priv_util::fxhash::FxHashMap;
use h2priv_util::telemetry;
use std::collections::VecDeque;

/// RFC 7540 initial connection flow-control window.
pub const INITIAL_CONNECTION_WINDOW: u64 = 65_535;

/// A frame queued for transmission, with its ground-truth label.
#[derive(Debug, Clone)]
pub struct QueuedFrame {
    /// The frame.
    pub frame: Frame,
    /// Ground-truth tag recorded in the TLS wire map when sealed.
    pub tag: RecordTag,
}

/// Per-stream frame queues drained round-robin.
///
/// This is where HTTP/2 multiplexing becomes *wire* interleaving: when
/// several worker threads have queued DATA, one frame per stream is
/// released in rotation. It is also where `RST_STREAM` takes effect:
/// [`OutputScheduler::clear_stream`] drops everything still queued for a
/// stream (paper Section IV-D).
#[derive(Debug, Default)]
pub struct OutputScheduler {
    queues: FxHashMap<StreamId, VecDeque<QueuedFrame>>,
    /// Round-robin rotation of streams with queued frames.
    rotation: VecDeque<StreamId>,
    /// Running total of queued DATA payload bytes, maintained on
    /// enqueue/pop/clear so the send watermark check is O(1) — it runs
    /// on every packet and timer dispatch.
    queued_data: u64,
    /// Emptied stream queues kept for reuse: a stream's queue empties
    /// between a worker's chunks, so each burst would otherwise
    /// allocate a fresh one.
    spare: Vec<VecDeque<QueuedFrame>>,
}

impl OutputScheduler {
    /// An empty scheduler.
    pub fn new() -> OutputScheduler {
        OutputScheduler::default()
    }

    /// Queues `frame` on its stream.
    pub fn enqueue(&mut self, frame: Frame, tag: RecordTag) {
        let stream = frame.stream_id();
        if let Frame::Data { len, .. } = frame {
            self.queued_data += len as u64;
        }
        let q = self
            .queues
            .entry(stream)
            .or_insert_with(|| self.spare.pop().unwrap_or_default());
        if q.is_empty() && !self.rotation.contains(&stream) {
            self.rotation.push_back(stream);
        }
        q.push_back(QueuedFrame { frame, tag });
    }

    /// Removes every queued frame of `stream`; returns how many DATA
    /// payload bytes were flushed.
    pub fn clear_stream(&mut self, stream: StreamId) -> u64 {
        let mut flushed = 0;
        if let Some(mut q) = self.queues.remove(&stream) {
            for qf in q.drain(..) {
                if let Frame::Data { len, .. } = qf.frame {
                    flushed += len as u64;
                }
            }
            self.spare.push(q);
        }
        self.queued_data -= flushed;
        self.rotation.retain(|s| *s != stream);
        flushed
    }

    /// Pops the next frame in round-robin order. DATA frames are only
    /// eligible if they fit in `conn_window` bytes of connection-level
    /// send window; control frames always pass. Returns `None` when
    /// nothing is eligible.
    pub fn pop_next(&mut self, conn_window: u64) -> Option<QueuedFrame> {
        let mut tried = 0;
        let total = self.rotation.len();
        let mut first_blocked: Option<(StreamId, u32)> = None;
        while tried < total {
            let stream = *self.rotation.front().expect("rotation non-empty");
            let q = self.queues.get_mut(&stream).expect("queue exists");
            let eligible = match q.front().expect("queue non-empty").frame {
                Frame::Data { len, .. } => {
                    if len as u64 <= conn_window {
                        true
                    } else {
                        if first_blocked.is_none() {
                            first_blocked = Some((stream, len));
                        }
                        false
                    }
                }
                _ => true,
            };
            if eligible {
                let qf = q.pop_front().expect("non-empty");
                if let Frame::Data { len, .. } = qf.frame {
                    self.queued_data -= len as u64;
                }
                self.rotation.pop_front();
                if q.is_empty() {
                    self.retire(stream);
                } else {
                    self.rotation.push_back(stream);
                }
                return Some(qf);
            }
            // Blocked by flow control: rotate and try the next stream.
            self.rotation.rotate_left(1);
            tried += 1;
        }
        if let Some((stream, len)) = first_blocked {
            // The whole rotation is DATA blocked behind the connection
            // window — the flow-control serialization the attack exploits.
            telemetry::emit("h2", "flow_blocked", |ev| {
                ev.stream = Some(stream.0 as u64);
                ev.fields.push(("frame_len", len.into()));
                ev.fields.push(("conn_window", conn_window.into()));
                ev.fields.push(("blocked_streams", total.into()));
            });
            telemetry::count("h2.flow_blocked", 1);
        }
        None
    }

    /// Pops like [`OutputScheduler::pop_next`], but DATA payloads are
    /// additionally capped at `cell` bytes: a larger frame at the front
    /// of its queue is split, the remainder staying at the front (so a
    /// shaping tick emits fixed-size cells regardless of how workers
    /// chunked the object). Control frames pass through unchanged.
    pub fn pop_next_shaped(&mut self, conn_window: u64, cell: u32) -> Option<QueuedFrame> {
        assert!(cell > 0, "shaping cell must be positive");
        let mut tried = 0;
        let total = self.rotation.len();
        while tried < total {
            let stream = *self.rotation.front().expect("rotation non-empty");
            let q = self.queues.get_mut(&stream).expect("queue exists");
            let front = q.front().expect("queue non-empty");
            if let Frame::Data {
                stream: ds,
                len,
                end_stream,
            } = front.frame
            {
                let take = len.min(cell);
                if take as u64 > conn_window {
                    self.rotation.rotate_left(1);
                    tried += 1;
                    continue;
                }
                let tag = front.tag;
                if len > cell {
                    // Split: emit one cell, leave the remainder queued.
                    q.front_mut().expect("queue non-empty").frame = Frame::Data {
                        stream: ds,
                        len: len - cell,
                        end_stream,
                    };
                    self.queued_data -= cell as u64;
                    self.rotation.pop_front();
                    self.rotation.push_back(stream);
                    return Some(QueuedFrame {
                        frame: Frame::Data {
                            stream: ds,
                            len: cell,
                            end_stream: false,
                        },
                        tag,
                    });
                }
            }
            // Whole frame fits in a cell (or is control): normal pop.
            let qf = q.pop_front().expect("non-empty");
            if let Frame::Data { len, .. } = qf.frame {
                self.queued_data -= len as u64;
            }
            self.rotation.pop_front();
            if q.is_empty() {
                self.retire(stream);
            } else {
                self.rotation.push_back(stream);
            }
            return Some(qf);
        }
        None
    }

    /// Drops `stream`'s emptied queue from the map, keeping it for reuse.
    fn retire(&mut self, stream: StreamId) {
        if let Some(q) = self.queues.remove(&stream) {
            self.spare.push(q);
        }
    }

    /// `true` when nothing is queued.
    pub fn is_empty(&self) -> bool {
        self.queues.is_empty()
    }

    /// Total queued DATA payload bytes (for tests and watermarks).
    pub fn queued_data_bytes(&self) -> u64 {
        self.queued_data
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use h2priv_tls::RecordTag;

    fn data(stream: u32, len: u32) -> Frame {
        Frame::Data {
            stream: StreamId(stream),
            len,
            end_stream: false,
        }
    }

    #[test]
    fn round_robin_alternates_streams() {
        let mut s = OutputScheduler::new();
        for i in 0..3 {
            s.enqueue(data(1, 100 + i), RecordTag::NONE);
            s.enqueue(data(3, 200 + i), RecordTag::NONE);
        }
        let order: Vec<u32> = std::iter::from_fn(|| s.pop_next(u64::MAX))
            .map(|qf| qf.frame.stream_id().0)
            .collect();
        assert_eq!(order, vec![1, 3, 1, 3, 1, 3]);
        assert!(s.is_empty());
    }

    #[test]
    fn single_stream_drains_fifo() {
        let mut s = OutputScheduler::new();
        for len in [10, 20, 30] {
            s.enqueue(data(5, len), RecordTag::NONE);
        }
        let lens: Vec<u32> = std::iter::from_fn(|| s.pop_next(u64::MAX))
            .map(|qf| match qf.frame {
                Frame::Data { len, .. } => len,
                _ => unreachable!(),
            })
            .collect();
        assert_eq!(lens, vec![10, 20, 30]);
    }

    #[test]
    fn clear_stream_flushes_only_that_stream() {
        let mut s = OutputScheduler::new();
        s.enqueue(data(1, 1000), RecordTag::NONE);
        s.enqueue(data(3, 500), RecordTag::NONE);
        s.enqueue(data(3, 500), RecordTag::NONE);
        assert_eq!(s.clear_stream(StreamId(3)), 1000);
        let remaining: Vec<u32> = std::iter::from_fn(|| s.pop_next(u64::MAX))
            .map(|qf| qf.frame.stream_id().0)
            .collect();
        assert_eq!(remaining, vec![1]);
    }

    #[test]
    fn flow_control_blocks_data_but_not_control() {
        let mut s = OutputScheduler::new();
        s.enqueue(data(1, 5_000), RecordTag::NONE);
        s.enqueue(
            Frame::WindowUpdate {
                stream: StreamId(0),
                increment: 100,
            },
            RecordTag::NONE,
        );
        // Window too small for the DATA frame: the control frame on
        // stream 0 must still come out.
        let first = s.pop_next(1_000).expect("control frame eligible");
        assert!(matches!(first.frame, Frame::WindowUpdate { .. }));
        assert!(s.pop_next(1_000).is_none(), "DATA must stay blocked");
        let second = s.pop_next(5_000).expect("window now fits");
        assert!(matches!(second.frame, Frame::Data { .. }));
    }

    #[test]
    fn control_frames_mid_rotation_do_not_reset_fairness() {
        // Regression pin for round-robin rotation under connection-window
        // blocking: while DATA on streams 1 and 3 is blocked, control
        // frames (stream 0) passing mid-rotation must neither starve a
        // data stream nor reorder the blocked streams' rotation.
        let mut s = OutputScheduler::new();
        s.enqueue(data(1, 5_000), RecordTag::NONE);
        s.enqueue(data(3, 5_000), RecordTag::NONE);
        s.enqueue(data(1, 5_000), RecordTag::NONE);
        s.enqueue(data(3, 5_000), RecordTag::NONE);
        s.enqueue(Frame::Ping { ack: false }, RecordTag::NONE);
        s.enqueue(
            Frame::WindowUpdate {
                stream: StreamId(0),
                increment: 100,
            },
            RecordTag::NONE,
        );

        // Window too small for any DATA: the two control frames drain
        // first, in FIFO order, with a scan over the blocked streams
        // in between.
        let first = s.pop_next(1_000).expect("ping passes");
        assert!(matches!(first.frame, Frame::Ping { .. }));
        let second = s.pop_next(1_000).expect("window update passes");
        assert!(matches!(second.frame, Frame::WindowUpdate { .. }));
        assert!(s.pop_next(1_000).is_none(), "all DATA still blocked");

        // Window opens: stream 1 queued first, so it must come out
        // first — the control frames must not have rotated it away —
        // and strict alternation resumes.
        let order: Vec<u32> = std::iter::from_fn(|| s.pop_next(u64::MAX))
            .map(|qf| qf.frame.stream_id().0)
            .collect();
        assert_eq!(order, vec![1, 3, 1, 3]);
        assert!(s.is_empty());
    }

    #[test]
    fn partial_window_serves_only_fitting_streams_without_starvation() {
        // A window that fits stream 3's small frames but not stream 1's
        // large ones must keep serving stream 3 while stream 1 stays
        // queued (not dropped), and release stream 1 once it fits.
        let mut s = OutputScheduler::new();
        s.enqueue(data(1, 5_000), RecordTag::NONE);
        s.enqueue(data(3, 100), RecordTag::NONE);
        s.enqueue(data(3, 100), RecordTag::NONE);
        let a = s.pop_next(1_000).expect("small frame fits");
        assert_eq!(a.frame.stream_id().0, 3);
        let b = s.pop_next(1_000).expect("second small frame fits");
        assert_eq!(b.frame.stream_id().0, 3);
        assert!(s.pop_next(1_000).is_none());
        assert_eq!(s.queued_data_bytes(), 5_000, "blocked frame retained");
        let c = s.pop_next(5_000).expect("large frame fits now");
        assert_eq!(c.frame.stream_id().0, 1);
        assert!(s.is_empty());
    }

    #[test]
    fn shaped_pop_splits_large_frames_into_cells() {
        let mut s = OutputScheduler::new();
        s.enqueue(
            Frame::Data {
                stream: StreamId(1),
                len: 5_000,
                end_stream: true,
            },
            RecordTag::NONE,
        );
        let mut lens = Vec::new();
        let mut ends = Vec::new();
        while let Some(qf) = s.pop_next_shaped(u64::MAX, 2_048) {
            match qf.frame {
                Frame::Data {
                    len, end_stream, ..
                } => {
                    lens.push(len);
                    ends.push(end_stream);
                }
                _ => unreachable!(),
            }
        }
        assert_eq!(lens, vec![2_048, 2_048, 904]);
        // end_stream survives only on the final fragment.
        assert_eq!(ends, vec![false, false, true]);
        assert!(s.is_empty());
        assert_eq!(s.queued_data_bytes(), 0);
    }

    #[test]
    fn shaped_pop_respects_window_and_rotation() {
        let mut s = OutputScheduler::new();
        s.enqueue(data(1, 5_000), RecordTag::NONE);
        s.enqueue(data(3, 5_000), RecordTag::NONE);
        // A cell still larger than the window blocks.
        assert!(s.pop_next_shaped(100, 2_048).is_none());
        // Cells alternate across streams like the unshaped rotation.
        let order: Vec<u32> = std::iter::from_fn(|| s.pop_next_shaped(u64::MAX, 2_048))
            .map(|qf| qf.frame.stream_id().0)
            .collect();
        assert_eq!(order, vec![1, 3, 1, 3, 1, 3]);
        // Control frames pass a shaped pop untouched.
        s.enqueue(Frame::Ping { ack: false }, RecordTag::NONE);
        let qf = s.pop_next_shaped(0, 16).expect("control passes");
        assert!(matches!(qf.frame, Frame::Ping { .. }));
    }

    #[test]
    fn queued_data_bytes_counts_only_data() {
        let mut s = OutputScheduler::new();
        s.enqueue(data(1, 100), RecordTag::NONE);
        s.enqueue(Frame::Ping { ack: false }, RecordTag::NONE);
        s.enqueue(data(3, 50), RecordTag::NONE);
        assert_eq!(s.queued_data_bytes(), 150);
    }
}
