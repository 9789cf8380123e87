//! Per-stream send and receive state.
//!
//! QUIC streams deliver independently: a gap on one stream never blocks
//! another. The send side implements a timer-less Nagle policy — a
//! sub-MTU STREAM frame is emitted only when it carries FIN or is a
//! retransmission, otherwise the stream waits until a full
//! [`MAX_STREAM_CHUNK`] is buffered. Because every object's final chunk
//! carries FIN, this never deadlocks, and it keeps mid-object datagrams
//! uniformly full so the datagram-delimiter analysis sees object
//! boundaries rather than scheduler artefacts.

use std::collections::{BTreeMap, VecDeque};

use h2priv_tls::RecordTag;
use h2priv_util::bytes::{with_pool, Bytes, BytesMut};

use crate::frame::{MAX_DATAGRAM, MAX_STREAM_CHUNK};

/// A STREAM frame the send side wants on the wire.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OutgoingChunk {
    /// Stream offset of the chunk.
    pub offset: u64,
    /// The bytes.
    pub data: Bytes,
    /// FIN flag for the frame.
    pub fin: bool,
    /// `true` when this is a retransmission (already counted against
    /// connection flow control and already mapped in the wire map).
    pub retransmit: bool,
}

/// Send half of one stream.
#[derive(Debug, Default)]
pub struct SendStream {
    /// Queued application data: `(start_offset, bytes, tag)`, contiguous.
    segments: Vec<(u64, Bytes, RecordTag)>,
    total_len: u64,
    next_offset: u64,
    fin_queued: bool,
    fin_sent: bool,
    reset: bool,
    peer_max: u64,
    retransmit: VecDeque<(u64, u32, bool)>,
}

impl SendStream {
    /// New send stream with the given initial peer flow-control limit.
    pub fn new(peer_max: u64) -> Self {
        Self {
            peer_max,
            ..Self::default()
        }
    }

    /// Queues `data` (tagged for the wire map) and optionally FIN.
    pub fn push(&mut self, data: Bytes, fin: bool, tag: RecordTag) {
        debug_assert!(!self.fin_queued, "push after fin");
        if !data.is_empty() {
            self.segments.push((self.total_len, data.clone(), tag));
            self.total_len += data.len() as u64;
        }
        self.fin_queued |= fin;
    }

    /// Raises the peer's stream flow-control limit.
    pub fn on_max_stream_data(&mut self, max: u64) {
        self.peer_max = self.peer_max.max(max);
    }

    /// Marks the stream reset: drops all queued and retransmittable data.
    pub fn reset(&mut self) {
        self.reset = true;
        self.segments.clear();
        self.retransmit.clear();
    }

    /// `true` once the stream has been reset.
    pub fn is_reset(&self) -> bool {
        self.reset
    }

    /// `true` once FIN has been emitted.
    pub fn fin_sent(&self) -> bool {
        self.fin_sent
    }

    /// Queues a lost frame for retransmission (no-op after reset).
    pub fn on_frame_lost(&mut self, offset: u64, len: u32, fin: bool) -> bool {
        if self.reset {
            return false;
        }
        self.retransmit.push_back((offset, len, fin));
        true
    }

    /// Whether lost frames await retransmission. Retransmissions are
    /// probe-class: the connection may send them past the congestion
    /// window (RFC 9002 §7.5), so callers check this separately from
    /// [`SendStream::has_sendable`].
    pub fn has_retransmit(&self) -> bool {
        !self.reset && !self.retransmit.is_empty()
    }

    /// Whether [`SendStream::next_chunk`] would yield a frame given
    /// `conn_credit` bytes of connection-level credit for new data.
    pub fn has_sendable(&self, conn_credit: u64) -> bool {
        if self.reset {
            return false;
        }
        if !self.retransmit.is_empty() {
            return true;
        }
        self.new_chunk_params(conn_credit).is_some()
    }

    /// Computes `(offset, len, fin)` for the next new-data frame under the
    /// timer-less Nagle policy, or `None` if the stream should wait.
    fn new_chunk_params(&self, conn_credit: u64) -> Option<(u64, u32, bool)> {
        if self.fin_sent {
            return None;
        }
        let remaining = self.total_len - self.next_offset;
        if remaining == 0 {
            // FIN-only frame once all data is out.
            return if self.fin_queued {
                Some((self.next_offset, 0, true))
            } else {
                None
            };
        }
        let credit = self
            .peer_max
            .saturating_sub(self.next_offset)
            .min(conn_credit);
        let chunk = remaining.min(credit).min(MAX_STREAM_CHUNK as u64);
        if chunk == MAX_STREAM_CHUNK as u64 {
            let fin = self.fin_queued && chunk == remaining;
            Some((self.next_offset, chunk as u32, fin))
        } else if self.fin_queued && chunk == remaining {
            // Sub-MTU tail, but it closes the stream: emit with FIN.
            Some((self.next_offset, chunk as u32, true))
        } else {
            None // wait for more data or more credit
        }
    }

    /// Produces the next STREAM frame payload, retransmissions first.
    /// New data advances the send frontier; the caller is responsible for
    /// connection-level flow-control accounting of `!retransmit` chunks.
    pub fn next_chunk(&mut self, conn_credit: u64) -> Option<OutgoingChunk> {
        if self.reset {
            return None;
        }
        if let Some((offset, len, fin)) = self.retransmit.pop_front() {
            return Some(OutgoingChunk {
                offset,
                data: self.copy_range(offset, len),
                fin,
                retransmit: true,
            });
        }
        let (offset, len, fin) = self.new_chunk_params(conn_credit)?;
        self.next_offset += len as u64;
        self.fin_sent |= fin;
        Some(OutgoingChunk {
            offset,
            data: self.copy_range(offset, len),
            fin,
            retransmit: false,
        })
    }

    /// Copies `[offset, offset + len)` out of the queued segments.
    ///
    /// When the range lies inside a single segment the returned `Bytes`
    /// is a zero-copy slice of the queued buffer; only ranges spanning a
    /// segment boundary assemble a fresh buffer.
    fn copy_range(&self, offset: u64, len: u32) -> Bytes {
        let end = offset + len as u64;
        let i = self
            .segments
            .partition_point(|(start, _, _)| *start <= offset);
        if i > 0 {
            let (start, data, _) = &self.segments[i - 1];
            if start + data.len() as u64 >= end {
                let lo = (offset - start) as usize;
                return data.slice(lo..lo + len as usize);
            }
        }
        // Spanning copies are served from the thread's buffer pool in
        // datagram-sized buffers, like the datagrams themselves (a stream
        // chunk never exceeds MAX_STREAM_CHUNK), and the connection
        // returns the copy to the pool right after encoding it into a
        // datagram.
        let mut pooled = with_pool(|p| p.acquire(MAX_DATAGRAM));
        let out = pooled.buf();
        for (start, data, _) in &self.segments {
            let seg_end = start + data.len() as u64;
            if seg_end <= offset || *start >= end {
                continue;
            }
            let lo = (offset.max(*start) - start) as usize;
            let hi = (end.min(seg_end) - start) as usize;
            out.extend_from_slice(&data[lo..hi]);
        }
        debug_assert_eq!(out.len(), len as usize, "send buffer hole");
        pooled.freeze()
    }

    /// Splits `[offset, offset + len)` into per-tag runs for the wire
    /// map, appending to a caller-provided (reusable) buffer.
    pub fn tag_runs_into(&self, offset: u64, len: u32, runs: &mut Vec<(u64, u32, RecordTag)>) {
        let end = offset + len as u64;
        let first = self
            .segments
            .partition_point(|(start, _, _)| *start <= offset)
            .saturating_sub(1);
        for (start, data, tag) in &self.segments[first..] {
            if *start >= end {
                break; // segments are contiguous ascending
            }
            let seg_end = start + data.len() as u64;
            if seg_end <= offset || *start >= end {
                continue;
            }
            let lo = offset.max(*start);
            let hi = end.min(seg_end);
            runs.push((lo, (hi - lo) as u32, *tag));
        }
    }

    /// Splits `[offset, offset + len)` into per-tag runs for the wire map.
    pub fn tag_runs(&self, offset: u64, len: u32) -> Vec<(u64, u32, RecordTag)> {
        let mut runs = Vec::new();
        self.tag_runs_into(offset, len, &mut runs);
        runs
    }
}

/// Receive half of one stream.
#[derive(Debug, Default)]
pub struct RecvStream {
    buf: BTreeMap<u64, Bytes>,
    /// In-order fast path: a frame that arrived exactly at the delivered
    /// frontier with nothing else buffered is parked here whole, and the
    /// next [`RecvStream::poll`] hands it back without copying. In-order
    /// delivery (the steady state) never touches the reassembly map.
    ready: Option<Bytes>,
    delivered: u64,
    fin_offset: Option<u64>,
    highest: u64,
    stopped: bool,
    fin_delivered: bool,
}

impl RecvStream {
    /// New receive stream.
    pub fn new() -> Self {
        Self::default()
    }

    /// Asks the stream to discard incoming data (STOP_SENDING was issued).
    /// Arrived-but-undelivered bytes are dropped.
    pub fn stop(&mut self) {
        self.stopped = true;
        self.buf.clear();
        self.ready = None;
    }

    /// `true` once [`RecvStream::stop`] was called.
    pub fn is_stopped(&self) -> bool {
        self.stopped
    }

    /// Highest contiguous-or-not byte offset seen, for connection-level
    /// flow-control accounting.
    pub fn highest_seen(&self) -> u64 {
        self.highest
    }

    /// Ingests one STREAM frame. Returns how far the highest-seen offset
    /// advanced (the connection flow-control delta).
    pub fn on_frame(&mut self, offset: u64, data: Bytes, fin: bool) -> u64 {
        let end = offset + data.len() as u64;
        if fin {
            self.fin_offset = Some(end);
        }
        let advance = end.saturating_sub(self.highest);
        self.highest = self.highest.max(end);
        if !self.stopped && end > self.delivered && !data.is_empty() {
            // Trim the already-delivered prefix and buffer the rest;
            // overlapping retransmissions are resolved at poll time.
            let skip = self.delivered.saturating_sub(offset);
            let insert_at = offset + skip;
            if insert_at == self.delivered && self.buf.is_empty() && self.ready.is_none() {
                // In-order fast path: park the frame whole and advance
                // the frontier; `poll` hands it back without a copy.
                self.ready = Some(if skip == 0 {
                    data
                } else {
                    data.slice(skip as usize..)
                });
                self.delivered = end;
            } else {
                self.buf
                    .entry(insert_at)
                    .or_insert_with(|| data.slice(skip as usize..));
            }
        }
        advance
    }

    /// Drains contiguous deliverable bytes. Returns `None` when nothing
    /// new is deliverable; the `bool` is `true` when this delivery
    /// includes the stream's FIN.
    pub fn poll(&mut self) -> Option<(Bytes, bool)> {
        if self.fin_delivered {
            return None;
        }
        let ready = self.ready.take();
        if let Some(data) = &ready {
            // Fast path: one in-order chunk, nothing else contiguous
            // behind it — hand it back as-is (no copy, no allocation).
            if self
                .buf
                .first_key_value()
                .is_none_or(|(&s, _)| s > self.delivered)
            {
                let fin_now = self.fin_offset == Some(self.delivered)
                    || (self.stopped && self.fin_offset.is_some());
                if fin_now {
                    self.fin_delivered = true;
                }
                return Some((data.clone(), fin_now));
            }
        }
        let mut out = BytesMut::with_capacity(0);
        if let Some(data) = ready {
            // A contiguous chunk landed in the reassembly map behind the
            // parked frame: fold both into one delivery, preserving the
            // drain-everything-contiguous granularity.
            out.put_slice(&data);
        }
        while let Some((&start, _)) = self.buf.first_key_value() {
            if start > self.delivered {
                break;
            }
            let (start, data) = self.buf.pop_first().expect("checked non-empty");
            let end = start + data.len() as u64;
            if end <= self.delivered {
                continue; // fully duplicate chunk
            }
            let skip = (self.delivered - start) as usize;
            out.put_slice(&data.slice(skip..));
            self.delivered = end;
        }
        let fin_now =
            self.fin_offset == Some(self.delivered) || (self.stopped && self.fin_offset.is_some());
        if out.is_empty() && !fin_now {
            return None;
        }
        if fin_now {
            self.fin_delivered = true;
        }
        Some((out.freeze(), fin_now))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tag() -> RecordTag {
        RecordTag::NONE
    }

    #[test]
    fn nagle_holds_partial_chunks_until_fin() {
        let mut s = SendStream::new(u64::MAX);
        s.push(Bytes::from(vec![1u8; 500]), false, tag());
        assert!(!s.has_sendable(u64::MAX), "sub-MTU without fin waits");
        s.push(Bytes::from(vec![2u8; MAX_STREAM_CHUNK]), false, tag());
        let c = s.next_chunk(u64::MAX).expect("full chunk");
        assert_eq!(c.data.len(), MAX_STREAM_CHUNK);
        assert!(!c.fin);
        assert!(!s.has_sendable(u64::MAX), "tail waits again");
        s.push(Bytes::new(), true, tag());
        let c = s.next_chunk(u64::MAX).expect("fin tail");
        assert_eq!(c.data.len(), 500);
        assert!(c.fin);
        assert!(s.fin_sent());
        assert!(s.next_chunk(u64::MAX).is_none());
    }

    #[test]
    fn fin_only_frame_when_no_data_pending() {
        let mut s = SendStream::new(u64::MAX);
        s.push(Bytes::new(), true, tag());
        let c = s.next_chunk(u64::MAX).expect("fin-only");
        assert_eq!(c.data.len(), 0);
        assert!(c.fin);
    }

    #[test]
    fn flow_control_blocks_partial_tail() {
        let mut s = SendStream::new(700);
        s.push(Bytes::from(vec![3u8; 1_000]), true, tag());
        // Credit only covers 700 of 1000 bytes: emitting would strand a
        // partial frame without fin, so the stream waits.
        assert!(!s.has_sendable(u64::MAX));
        s.on_max_stream_data(1_000);
        let c = s.next_chunk(u64::MAX).expect("tail after credit");
        assert_eq!(c.data.len(), 1_000);
        assert!(c.fin);
    }

    #[test]
    fn retransmit_reproduces_original_bytes() {
        let mut s = SendStream::new(u64::MAX);
        let payload: Vec<u8> = (0..MAX_STREAM_CHUNK as u32).map(|i| i as u8).collect();
        s.push(Bytes::from(payload.clone()), true, tag());
        let c = s.next_chunk(u64::MAX).expect("chunk");
        assert!(s.on_frame_lost(c.offset, c.data.len() as u32, c.fin));
        let r = s.next_chunk(0).expect("retransmit ignores credit");
        assert!(r.retransmit);
        assert_eq!(r.offset, c.offset);
        assert_eq!(r.data.to_vec(), payload);
        assert_eq!(r.fin, c.fin);
    }

    #[test]
    fn reset_clears_everything() {
        let mut s = SendStream::new(u64::MAX);
        s.push(Bytes::from(vec![9u8; 2 * MAX_STREAM_CHUNK]), false, tag());
        s.reset();
        assert!(s.is_reset());
        assert!(!s.has_sendable(u64::MAX));
        assert!(!s.on_frame_lost(0, 100, false));
    }

    #[test]
    fn tag_runs_split_on_segment_boundaries() {
        let mut s = SendStream::new(u64::MAX);
        let t1 = RecordTag {
            stream_id: 1,
            object_id: 10,
            copy: 0,
            class: h2priv_tls::TrafficClass::ResponseHeaders,
        };
        let t2 = RecordTag {
            class: h2priv_tls::TrafficClass::ObjectData,
            ..t1
        };
        s.push(Bytes::from(vec![0u8; 40]), false, t1);
        s.push(Bytes::from(vec![0u8; 100]), false, t2);
        let runs = s.tag_runs(20, 80);
        assert_eq!(runs, vec![(20, 20, t1), (40, 60, t2)]);
    }

    #[test]
    fn recv_reorders_and_delivers_once() {
        let mut r = RecvStream::new();
        assert_eq!(r.on_frame(100, Bytes::from(vec![2u8; 50]), true), 150);
        assert!(r.poll().is_none(), "gap at 0 blocks delivery");
        assert_eq!(r.on_frame(0, Bytes::from(vec![1u8; 100]), false), 0);
        let (data, fin) = r.poll().expect("delivery");
        assert_eq!(data.len(), 150);
        assert!(fin);
        assert!(r.poll().is_none());
    }

    #[test]
    fn duplicate_frames_do_not_redeliver() {
        let mut r = RecvStream::new();
        r.on_frame(0, Bytes::from(vec![1u8; 100]), false);
        let (d, _) = r.poll().expect("first");
        assert_eq!(d.len(), 100);
        assert_eq!(r.on_frame(0, Bytes::from(vec![1u8; 100]), false), 0);
        assert!(r.poll().is_none());
    }

    #[test]
    fn stopped_stream_accounts_but_discards() {
        let mut r = RecvStream::new();
        r.stop();
        assert_eq!(r.on_frame(0, Bytes::from(vec![1u8; 100]), false), 100);
        assert_eq!(r.highest_seen(), 100);
    }
}
