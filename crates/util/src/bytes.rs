//! Byte buffers: a cheaply-cloneable immutable [`Bytes`] and a growable
//! [`BytesMut`], replacing the `bytes` crate with `Arc<[u8]>`/`Vec<u8>`
//! under the hood. Only the surface this workspace uses is provided:
//! big-endian `put_*` writers, `freeze`, `slice`, and `split_to`, plus
//! the packet path's recycling pool ([`BytesPool`], one per thread
//! behind [`with_pool`]).

use std::fmt;
use std::ops::{Bound, Deref, RangeBounds};
use std::sync::Arc;

/// The backing storage of a [`Bytes`]: either a shared heap allocation
/// or a borrowed `'static` slice (no allocation, no copy).
///
/// `Shared` wraps `Arc<Vec<u8>>` rather than `Arc<[u8]>` so that
/// `Bytes::from(vec)` / `BytesMut::freeze` adopt the vector's existing
/// allocation instead of copying it into a fresh slice allocation —
/// freezing is the hottest constructor on the simulator's packet path.
#[derive(Clone)]
enum Repr {
    Shared(Arc<Vec<u8>>),
    Static(&'static [u8]),
}

impl Repr {
    fn as_slice(&self) -> &[u8] {
        match self {
            Repr::Shared(data) => data,
            Repr::Static(data) => data,
        }
    }
}

impl Default for Repr {
    fn default() -> Repr {
        Repr::Static(&[])
    }
}

/// An immutable, reference-counted byte buffer. Clones and slices share
/// the same allocation.
#[derive(Clone, Default)]
pub struct Bytes {
    data: Repr,
    start: usize,
    end: usize,
}

impl Bytes {
    /// An empty buffer (no allocation).
    pub fn new() -> Bytes {
        Bytes::default()
    }

    /// A buffer borrowing nothing from `data` — the bytes are copied.
    pub fn copy_from_slice(data: &[u8]) -> Bytes {
        Bytes::from(data.to_vec())
    }

    /// Wraps a static slice. The data is borrowed for the program's
    /// lifetime — never copied and never reference-counted; clones and
    /// slices point at the original storage.
    pub fn from_static(data: &'static [u8]) -> Bytes {
        Bytes {
            data: Repr::Static(data),
            start: 0,
            end: data.len(),
        }
    }

    /// Number of bytes.
    pub fn len(&self) -> usize {
        self.end - self.start
    }

    /// Whether the buffer is empty.
    pub fn is_empty(&self) -> bool {
        self.start == self.end
    }

    /// A sub-slice sharing the same allocation.
    ///
    /// # Panics
    /// Panics if the range is out of bounds.
    pub fn slice(&self, range: impl RangeBounds<usize>) -> Bytes {
        let lo = match range.start_bound() {
            Bound::Included(&n) => n,
            Bound::Excluded(&n) => n + 1,
            Bound::Unbounded => 0,
        };
        let hi = match range.end_bound() {
            Bound::Included(&n) => n + 1,
            Bound::Excluded(&n) => n,
            Bound::Unbounded => self.len(),
        };
        assert!(lo <= hi && hi <= self.len(), "slice out of bounds");
        Bytes {
            data: self.data.clone(),
            start: self.start + lo,
            end: self.start + hi,
        }
    }

    /// Removes and returns the first `at` bytes; `self` keeps the rest.
    ///
    /// # Panics
    /// Panics if `at > len`.
    pub fn split_to(&mut self, at: usize) -> Bytes {
        assert!(at <= self.len(), "split_to out of bounds");
        let head = self.slice(..at);
        self.start += at;
        head
    }

    /// Copies the bytes into a fresh `Vec`.
    pub fn to_vec(&self) -> Vec<u8> {
        self.as_ref().to_vec()
    }

    /// Recovers the backing `Vec` when this handle is the sole owner of a
    /// shared allocation, for buffer pooling. Returns `None` (dropping
    /// the handle) when other clones or slices are still alive, or when
    /// the buffer borrows static storage. The returned `Vec` is the whole
    /// original allocation regardless of how this handle was sliced;
    /// callers clear it before reuse.
    pub fn try_reclaim(self) -> Option<Vec<u8>> {
        match self.data {
            Repr::Shared(arc) => Arc::try_unwrap(arc).ok(),
            Repr::Static(_) => None,
        }
    }
}

/// A bounded pool of uniquely-owned packet buffers.
///
/// `Bytes::from(vec)` costs one `Arc` control-block allocation even when
/// the `Vec` itself is recycled; the pool therefore parks the whole
/// `Arc<Vec<u8>>` — control block and storage together — so a pooled
/// [`acquire`](BytesPool::acquire)/[`freeze`](PooledBuf::freeze) round
/// trip performs **zero** allocations once warm.
/// [`reclaim`](BytesPool::reclaim) accepts a buffer back only when the
/// handle is the allocation's sole owner (no live clones or slices), so a
/// pooled buffer can never be observed mutating under a reader.
#[derive(Debug)]
pub struct BytesPool {
    free: Vec<Arc<Vec<u8>>>,
    max_buffers: usize,
}

impl BytesPool {
    /// A pool keeping at most `max_buffers` buffers.
    pub fn new(max_buffers: usize) -> BytesPool {
        BytesPool {
            free: Vec::new(),
            max_buffers,
        }
    }

    /// Takes a cleared buffer with room for at least `capacity` bytes.
    /// It allocates only when the pool is empty, or grows the parked
    /// buffer when that one is smaller; a grown buffer keeps its
    /// capacity when it comes back, so a warm pool holds buffers big
    /// enough for what its callers write.
    pub fn acquire(&mut self, capacity: usize) -> PooledBuf {
        let Some(mut arc) = self.free.pop() else {
            return PooledBuf {
                arc: Arc::new(Vec::with_capacity(capacity)),
            };
        };
        let buf = Arc::get_mut(&mut arc).expect("pooled buffer is uniquely owned");
        buf.clear();
        buf.reserve(capacity);
        PooledBuf { arc }
    }

    /// Returns a buffer to the pool if `buf` is the sole owner of its
    /// allocation; otherwise the handle is simply dropped.
    pub fn reclaim(&mut self, buf: Bytes) {
        if self.free.len() >= self.max_buffers {
            return;
        }
        if let Repr::Shared(mut arc) = buf.data {
            if Arc::get_mut(&mut arc).is_some() {
                self.free.push(arc);
            }
        }
    }

    /// Number of parked buffers.
    pub fn len(&self) -> usize {
        self.free.len()
    }

    /// Whether the pool holds no parked buffers.
    pub fn is_empty(&self) -> bool {
        self.free.is_empty()
    }
}

/// Buffers the thread's shared pool keeps parked: the largest in-flight
/// window a trial was seen to hold, rounded up to a power of two. A
/// trial keeps in circulation about one window of buffers: TCP's sealed
/// records until they are acknowledged, segment copies and QUIC
/// datagrams until the peer has read them. Over 200 trials each, that
/// peaks at 70 / 111 / 234 buffers (median / 90th percentile / max) in
/// Table II and at 63 / 192 / 398 in the four H3 transfer attacks, whose
/// bandwidth-limited configuration queues the most. A smaller cap frees
/// and reallocates the excess on every such trial; the pool only ever
/// parks buffers a trial already allocated, so the cap does not raise
/// resident memory.
const POOL_BUFFERS: usize = 512;

thread_local! {
    /// The packet path's recycling pool. The simulation runs a trial
    /// on one thread and buffers migrate between its endpoints (a
    /// server's sealed record is reclaimed by the server on ACK, a
    /// segment copy by the client after reading it), so one pool per
    /// thread lets every connection draw from the same stock; it stays
    /// warm across trials on long-lived worker threads.
    static POOL: std::cell::RefCell<BytesPool> =
        std::cell::RefCell::new(BytesPool::new(POOL_BUFFERS));
}

/// Runs `f` with the thread's shared buffer pool.
pub fn with_pool<R>(f: impl FnOnce(&mut BytesPool) -> R) -> R {
    POOL.with(|p| f(&mut p.borrow_mut()))
}

/// A uniquely-owned buffer checked out of a [`BytesPool`]: write into
/// [`buf`](PooledBuf::buf), then [`freeze`](PooledBuf::freeze) into an
/// immutable [`Bytes`] without copying or allocating.
pub struct PooledBuf {
    arc: Arc<Vec<u8>>,
}

impl PooledBuf {
    /// The writable storage (starts empty).
    pub fn buf(&mut self) -> &mut Vec<u8> {
        Arc::get_mut(&mut self.arc).expect("pooled buffer is uniquely owned")
    }

    /// Freezes into an immutable [`Bytes`] reusing this allocation.
    pub fn freeze(self) -> Bytes {
        let end = self.arc.len();
        Bytes {
            data: Repr::Shared(self.arc),
            start: 0,
            end,
        }
    }
}

impl From<Vec<u8>> for Bytes {
    fn from(v: Vec<u8>) -> Bytes {
        let end = v.len();
        Bytes {
            data: Repr::Shared(Arc::new(v)),
            start: 0,
            end,
        }
    }
}

impl From<&[u8]> for Bytes {
    fn from(v: &[u8]) -> Bytes {
        Bytes::copy_from_slice(v)
    }
}

impl Deref for Bytes {
    type Target = [u8];
    fn deref(&self) -> &[u8] {
        &self.data.as_slice()[self.start..self.end]
    }
}

impl AsRef<[u8]> for Bytes {
    fn as_ref(&self) -> &[u8] {
        self
    }
}

impl fmt::Debug for Bytes {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "b\"")?;
        for &b in self.iter() {
            for c in std::ascii::escape_default(b) {
                write!(f, "{}", c as char)?;
            }
        }
        write!(f, "\"")
    }
}

impl PartialEq for Bytes {
    fn eq(&self, other: &Bytes) -> bool {
        self[..] == other[..]
    }
}

impl Eq for Bytes {}

impl std::hash::Hash for Bytes {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        self[..].hash(state);
    }
}

impl PartialEq<[u8]> for Bytes {
    fn eq(&self, other: &[u8]) -> bool {
        self[..] == *other
    }
}

impl PartialEq<&[u8]> for Bytes {
    fn eq(&self, other: &&[u8]) -> bool {
        self[..] == **other
    }
}

impl PartialEq<Vec<u8>> for Bytes {
    fn eq(&self, other: &Vec<u8>) -> bool {
        self[..] == other[..]
    }
}

impl PartialEq<Bytes> for Vec<u8> {
    fn eq(&self, other: &Bytes) -> bool {
        self[..] == other[..]
    }
}

impl<'a> IntoIterator for &'a Bytes {
    type Item = &'a u8;
    type IntoIter = std::slice::Iter<'a, u8>;
    fn into_iter(self) -> Self::IntoIter {
        self.as_ref().iter()
    }
}

/// A growable byte buffer with big-endian `put_*` writers.
#[derive(Clone, Default, PartialEq, Eq)]
pub struct BytesMut {
    vec: Vec<u8>,
}

impl BytesMut {
    /// An empty buffer.
    pub fn new() -> BytesMut {
        BytesMut::default()
    }

    /// An empty buffer with pre-reserved capacity.
    pub fn with_capacity(cap: usize) -> BytesMut {
        BytesMut {
            vec: Vec::with_capacity(cap),
        }
    }

    /// Number of bytes written so far.
    pub fn len(&self) -> usize {
        self.vec.len()
    }

    /// Whether the buffer is empty.
    pub fn is_empty(&self) -> bool {
        self.vec.is_empty()
    }

    /// Bytes the buffer can hold without reallocating.
    pub fn capacity(&self) -> usize {
        self.vec.capacity()
    }

    /// Reserves room for at least `additional` more bytes.
    pub fn reserve(&mut self, additional: usize) {
        self.vec.reserve(additional);
    }

    /// Empties the buffer, keeping its capacity for reuse.
    pub fn clear(&mut self) {
        self.vec.clear();
    }

    /// Appends one byte.
    pub fn put_u8(&mut self, v: u8) {
        self.vec.push(v);
    }

    /// Appends a big-endian `u16`.
    pub fn put_u16(&mut self, v: u16) {
        self.vec.extend_from_slice(&v.to_be_bytes());
    }

    /// Appends a big-endian `u32`.
    pub fn put_u32(&mut self, v: u32) {
        self.vec.extend_from_slice(&v.to_be_bytes());
    }

    /// Appends a big-endian `u64`.
    pub fn put_u64(&mut self, v: u64) {
        self.vec.extend_from_slice(&v.to_be_bytes());
    }

    /// Appends a slice.
    pub fn put_slice(&mut self, s: &[u8]) {
        self.vec.extend_from_slice(s);
    }

    /// Appends a slice (`Vec` idiom).
    pub fn extend_from_slice(&mut self, s: &[u8]) {
        self.vec.extend_from_slice(s);
    }

    /// Appends `n` zero bytes in one resize (no per-byte pushes).
    pub fn put_zeros(&mut self, n: usize) {
        let len = self.vec.len();
        self.vec.resize(len + n, 0);
    }

    /// Removes and returns the first `at` bytes; `self` keeps the rest.
    ///
    /// # Panics
    /// Panics if `at > len`.
    pub fn split_to(&mut self, at: usize) -> BytesMut {
        assert!(at <= self.vec.len(), "split_to out of bounds");
        let rest = self.vec.split_off(at);
        BytesMut {
            vec: std::mem::replace(&mut self.vec, rest),
        }
    }

    /// Converts into an immutable [`Bytes`] without copying.
    pub fn freeze(self) -> Bytes {
        Bytes::from(self.vec)
    }
}

impl Deref for BytesMut {
    type Target = [u8];
    fn deref(&self) -> &[u8] {
        &self.vec
    }
}

impl std::ops::DerefMut for BytesMut {
    fn deref_mut(&mut self) -> &mut [u8] {
        &mut self.vec
    }
}

impl AsRef<[u8]> for BytesMut {
    fn as_ref(&self) -> &[u8] {
        &self.vec
    }
}

impl fmt::Debug for BytesMut {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "b\"")?;
        for &b in self.iter() {
            for c in std::ascii::escape_default(b) {
                write!(f, "{}", c as char)?;
            }
        }
        write!(f, "\"")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn slice_and_split_share_data() {
        let b = Bytes::from(vec![1, 2, 3, 4, 5]);
        let s = b.slice(1..4);
        assert_eq!(&s[..], &[2, 3, 4]);
        let mut m = s.clone();
        let head = m.split_to(2);
        assert_eq!(&head[..], &[2, 3]);
        assert_eq!(&m[..], &[4]);
        assert_eq!(&b[..], &[1, 2, 3, 4, 5]);
    }

    #[test]
    fn open_ended_slices() {
        let b = Bytes::from(vec![9, 8, 7]);
        assert_eq!(&b.slice(..)[..], &[9, 8, 7]);
        assert_eq!(&b.slice(1..)[..], &[8, 7]);
        assert_eq!(&b.slice(..=1)[..], &[9, 8]);
    }

    #[test]
    #[should_panic(expected = "slice out of bounds")]
    fn slice_out_of_bounds_panics() {
        let b = Bytes::from(vec![1]);
        let _ = b.slice(0..2);
    }

    #[test]
    fn bytes_mut_put_writers_are_big_endian() {
        let mut m = BytesMut::with_capacity(16);
        m.put_u8(0x01);
        m.put_u16(0x0203);
        m.put_u32(0x0405_0607);
        m.put_u64(0x1122_3344_5566_7788);
        m.put_slice(&[0xff]);
        let b = m.freeze();
        assert_eq!(
            &b[..],
            &[
                0x01, 0x02, 0x03, 0x04, 0x05, 0x06, 0x07, 0x11, 0x22, 0x33, 0x44, 0x55, 0x66, 0x77,
                0x88, 0xff
            ]
        );
    }

    #[test]
    fn bytes_mut_split_to() {
        let mut m = BytesMut::new();
        m.put_slice(b"hello world");
        let head = m.split_to(5);
        assert_eq!(&head[..], b"hello");
        assert_eq!(&m[..], b" world");
    }

    #[test]
    fn from_static_borrows_without_copying() {
        static DATA: [u8; 5] = [10, 20, 30, 40, 50];
        let b = Bytes::from_static(&DATA);
        // Zero-copy: the buffer points at the static storage itself.
        assert!(std::ptr::eq(b.as_ref().as_ptr(), DATA.as_ptr()));
        // Clones and slices keep pointing at it too.
        let c = b.clone();
        assert!(std::ptr::eq(c.as_ref().as_ptr(), DATA.as_ptr()));
        let s = b.slice(1..4);
        assert_eq!(&s[..], &[20, 30, 40]);
        assert!(std::ptr::eq(
            s.as_ref().as_ptr(),
            DATA.as_ptr().wrapping_add(1)
        ));
    }

    #[test]
    fn freeze_adopts_the_vec_allocation() {
        let mut v = Vec::with_capacity(64);
        v.extend_from_slice(b"payload bytes");
        let p = v.as_ptr();
        let b = Bytes::from(v);
        // Zero-copy: the frozen buffer points at the Vec's storage.
        assert!(std::ptr::eq(b.as_ref().as_ptr(), p));
        let mut m = BytesMut::with_capacity(32);
        m.put_slice(b"abc");
        let p = m.as_ref().as_ptr();
        let b = m.freeze();
        assert!(std::ptr::eq(b.as_ref().as_ptr(), p));
    }

    #[test]
    fn try_reclaim_recovers_sole_ownership_only() {
        let b = Bytes::from(vec![1, 2, 3]);
        let c = b.clone();
        assert!(b.try_reclaim().is_none(), "clone still alive");
        let v = c.try_reclaim().expect("sole owner");
        assert_eq!(v, vec![1, 2, 3]);
        // A slice keeps the whole allocation alive and reclaims it whole.
        let s = Bytes::from(vec![9, 8, 7]).slice(1..2);
        assert_eq!(
            s.try_reclaim().expect("sole owner via slice"),
            vec![9, 8, 7]
        );
        // Static buffers are never reclaimed.
        assert!(Bytes::from_static(b"abc").try_reclaim().is_none());
    }

    #[test]
    fn pool_round_trip_reuses_the_allocation() {
        let mut pool = BytesPool::new(4);
        let mut buf = pool.acquire(64);
        buf.buf().extend_from_slice(b"first packet");
        let frozen = buf.freeze();
        let p = frozen.as_ref().as_ptr();
        assert_eq!(&frozen[..], b"first packet");
        pool.reclaim(frozen);
        assert_eq!(pool.len(), 1);
        let mut buf = pool.acquire(2);
        assert!(buf.buf().is_empty());
        buf.buf().extend_from_slice(b"xy");
        let again = buf.freeze();
        // Same storage, old contents cleared.
        assert!(std::ptr::eq(again.as_ref().as_ptr(), p));
        assert_eq!(&again[..], b"xy");
    }

    #[test]
    fn pool_refuses_shared_and_overflowing_buffers() {
        let mut pool = BytesPool::new(1);
        let a = pool.acquire(16).freeze();
        let a_clone = a.clone();
        pool.reclaim(a); // clone alive -> dropped, not pooled
        assert!(pool.is_empty());
        drop(a_clone);
        let b = pool.acquire(16).freeze();
        let c = pool.acquire(16).freeze();
        pool.reclaim(b);
        pool.reclaim(c); // over capacity -> dropped
        assert_eq!(pool.len(), 1);
        // Static buffers are never pooled.
        pool.reclaim(Bytes::from_static(b"zz"));
        assert_eq!(pool.len(), 1);
    }

    #[test]
    fn put_zeros_extends_with_zero_bytes() {
        let mut m = BytesMut::new();
        m.put_u8(7);
        m.put_zeros(3);
        assert_eq!(&m[..], &[7, 0, 0, 0]);
    }

    #[test]
    fn equality_across_types() {
        let b = Bytes::from(vec![1, 2]);
        assert_eq!(b, vec![1, 2]);
        assert_eq!(b, Bytes::copy_from_slice(&[1, 2]));
        assert!(b == [1u8, 2][..]);
    }
}
