//! The retransmittable send buffer.
//!
//! Holds written-but-not-yet-acknowledged application bytes, addressed by
//! absolute stream offset, so the sender can (re)read any unacked range.
//! Acknowledged chunks and segment copies go back to the thread's buffer
//! pool ([`h2priv_util::bytes::with_pool`]), which parks a buffer only
//! when nothing else still holds it.

use h2priv_util::bytes::{with_pool, Bytes};
use std::collections::VecDeque;

/// A byte buffer addressed by absolute stream offsets.
#[derive(Debug, Default)]
pub(crate) struct SendBuffer {
    /// Stream offset of the first byte currently held.
    base: u64,
    chunks: VecDeque<Bytes>,
    len: u64,
}

impl SendBuffer {
    pub fn new() -> SendBuffer {
        SendBuffer::default()
    }

    /// Appends application data at the end of the stream.
    pub fn push(&mut self, data: Bytes) {
        if data.is_empty() {
            return;
        }
        self.len += data.len() as u64;
        self.chunks.push_back(data);
    }

    /// One past the last buffered offset (== total bytes ever written).
    pub fn end_offset(&self) -> u64 {
        self.base + self.len
    }

    /// Reads up to `max` bytes starting at absolute `offset`.
    ///
    /// # Panics
    /// Panics if `offset` is below the released watermark or at/past the
    /// end of written data.
    pub fn read(&self, offset: u64, max: usize) -> Bytes {
        assert!(
            offset >= self.base,
            "offset {offset} below buffer base {}",
            self.base
        );
        assert!(
            offset < self.end_offset(),
            "offset {offset} past end {}",
            self.end_offset()
        );
        let mut skip = (offset - self.base) as usize;
        let want = max.min((self.end_offset() - offset) as usize);
        let mut chunks = self.chunks.iter();
        // Fast path: the whole range lies inside one chunk — return a
        // zero-copy slice sharing that chunk's allocation. Segment-sized
        // reads out of record-sized chunks hit this almost always.
        for chunk in chunks.by_ref() {
            if skip >= chunk.len() {
                skip -= chunk.len();
                continue;
            }
            if chunk.len() - skip >= want {
                return chunk.slice(skip..skip + want);
            }
            // Range spans a chunk boundary: assemble a copy in a pooled
            // buffer (the receiver gives it back once read).
            let mut pooled = with_pool(|pool| pool.acquire(want));
            let out = pooled.buf();
            out.extend_from_slice(&chunk[skip..]);
            for chunk in chunks {
                let take = chunk.len().min(want - out.len());
                out.extend_from_slice(&chunk[..take]);
                if out.len() == want {
                    break;
                }
            }
            return pooled.freeze();
        }
        unreachable!("read range verified against end_offset");
    }

    /// Discards all bytes below absolute offset `upto` (clamped to the
    /// written range); they have been acknowledged. Each fully released
    /// chunk is offered back to the pool.
    pub fn release(&mut self, upto: u64) {
        let upto = upto.min(self.end_offset());
        while self.base < upto {
            let Some(front) = self.chunks.front_mut() else {
                break;
            };
            let drop = ((upto - self.base) as usize).min(front.len());
            if drop == front.len() {
                self.base += front.len() as u64;
                self.len -= front.len() as u64;
                if let Some(chunk) = self.chunks.pop_front() {
                    with_pool(|pool| pool.reclaim(chunk));
                }
            } else {
                let _ = front.split_to(drop);
                self.base += drop as u64;
                self.len -= drop as u64;
            }
        }
        self.base = self.base.max(upto.min(self.end_offset()));
    }

    /// Bytes currently held (written minus released).
    #[allow(dead_code)] // used by tests; kept for API completeness
    pub fn buffered(&self) -> u64 {
        self.len
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn b(s: &str) -> Bytes {
        Bytes::copy_from_slice(s.as_bytes())
    }

    #[test]
    fn push_and_read_across_chunks() {
        let mut sb = SendBuffer::new();
        sb.push(b("hello "));
        sb.push(b("world"));
        assert_eq!(sb.end_offset(), 11);
        assert_eq!(sb.read(0, 11), b("hello world"));
        assert_eq!(sb.read(3, 5), b("lo wo"));
        assert_eq!(sb.read(6, 100), b("world"));
    }

    #[test]
    fn release_partial_chunk() {
        let mut sb = SendBuffer::new();
        sb.push(b("abcdef"));
        sb.release(2);
        assert_eq!(sb.buffered(), 4);
        assert_eq!(sb.read(2, 4), b("cdef"));
        sb.release(6);
        assert_eq!(sb.buffered(), 0);
        assert_eq!(sb.end_offset(), 6);
    }

    #[test]
    fn release_whole_chunks_then_push_more() {
        let mut sb = SendBuffer::new();
        sb.push(b("one"));
        sb.push(b("two"));
        sb.release(6);
        sb.push(b("three"));
        assert_eq!(sb.end_offset(), 11);
        assert_eq!(sb.read(6, 5), b("three"));
    }

    #[test]
    fn release_beyond_end_clamps() {
        let mut sb = SendBuffer::new();
        sb.push(b("xy"));
        sb.release(100);
        assert_eq!(sb.buffered(), 0);
        assert_eq!(sb.end_offset(), 2);
    }

    #[test]
    #[should_panic(expected = "below buffer base")]
    fn read_released_panics() {
        let mut sb = SendBuffer::new();
        sb.push(b("abcd"));
        sb.release(2);
        let _ = sb.read(1, 1);
    }

    /// A chunk as the TLS sealer makes one: `len` bytes of `fill` in a
    /// buffer taken from the thread's pool.
    fn sealed(fill: u8, len: usize) -> Bytes {
        let mut pooled = with_pool(|pool| pool.acquire(len));
        pooled.buf().resize(len, fill);
        pooled.freeze()
    }

    #[test]
    fn released_chunks_are_never_reused_under_a_live_slice() {
        let mut sb = SendBuffer::new();
        let first = sealed(1, 2_078);
        let second = sealed(2, 2_078);
        let (first_at, second_at) = (first.as_ptr(), second.as_ptr());
        sb.push(first);
        sb.push(second);
        // A segment inside the first chunk (a slice of it) and one
        // across the chunk boundary (a pooled copy), both still in
        // flight when everything is acknowledged.
        let inside = sb.read(100, 1_448);
        let across = sb.read(1_548, 1_448);
        assert!(std::ptr::eq(inside.as_ptr(), first_at.wrapping_add(100)));
        let (inside_bytes, across_bytes) = (inside.to_vec(), across.to_vec());
        sb.release(4_156);
        let later: Vec<Bytes> = (0..16).map(|i| sealed(0xa0 + i, 2_078)).collect();
        for chunk in &later {
            sb.push(chunk.clone());
        }
        assert_eq!(inside.to_vec(), inside_bytes);
        assert_eq!(across.to_vec(), across_bytes);
        // The second chunk had no other owner, so the next seal reused
        // it; the first one, still read through `inside`, was not.
        assert!(std::ptr::eq(later[0].as_ptr(), second_at));
        for chunk in &later {
            let storage = chunk.as_ptr_range();
            assert!(!storage.contains(&first_at) && !storage.contains(&across.as_ptr()));
        }
    }

    #[test]
    fn empty_push_is_noop() {
        let mut sb = SendBuffer::new();
        sb.push(Bytes::new());
        assert_eq!(sb.end_offset(), 0);
        assert_eq!(sb.buffered(), 0);
    }
}
