//! HTTP/2 stream identifiers and their allocators.

use core::fmt;
use h2priv_util::impl_to_json;

/// An HTTP/2 stream identifier. Client-initiated streams are odd;
/// stream 0 is the connection itself.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct StreamId(pub u32);

impl_to_json!(newtype StreamId);

impl StreamId {
    /// The connection control stream.
    pub const CONNECTION: StreamId = StreamId(0);

    /// `true` for client-initiated stream ids.
    pub fn is_client_initiated(self) -> bool {
        self.0 % 2 == 1
    }
}

impl fmt::Display for StreamId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "s{}", self.0)
    }
}

/// Allocates successive client stream ids (1, 3, 5, ...).
#[derive(Debug, Clone)]
pub struct StreamIdAllocator {
    next: u32,
}

impl StreamIdAllocator {
    /// A fresh client-side allocator.
    pub fn client() -> StreamIdAllocator {
        StreamIdAllocator { next: 1 }
    }

    /// A fresh server-side allocator (even ids, for pushed streams).
    pub fn server_push() -> StreamIdAllocator {
        StreamIdAllocator { next: 2 }
    }

    /// Returns the next id.
    pub fn next_id(&mut self) -> StreamId {
        let id = StreamId(self.next);
        self.next += 2;
        id
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn allocator_yields_odd_ids() {
        let mut a = StreamIdAllocator::client();
        let ids: Vec<u32> = (0..4).map(|_| a.next_id().0).collect();
        assert_eq!(ids, vec![1, 3, 5, 7]);
        assert!(StreamId(3).is_client_initiated());
        assert!(!StreamId(2).is_client_initiated());
    }

    #[test]
    fn push_allocator_yields_even_ids() {
        let mut a = StreamIdAllocator::server_push();
        let ids: Vec<u32> = (0..3).map(|_| a.next_id().0).collect();
        assert_eq!(ids, vec![2, 4, 6]);
        assert!(ids.iter().all(|i| !StreamId(*i).is_client_initiated()));
    }
}
