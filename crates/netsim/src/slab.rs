//! [`PacketSlab`]: where every packet the network owns waits, from
//! [`Ctx::send`](crate::node::Ctx::send) until it is delivered or dropped.
//!
//! `Ctx::send` parks a packet once it has stamped its id, and the packet
//! leaves the slab once: `Simulator::dispatch` takes it out just before
//! [`Node::on_packet`](crate::node::Node::on_packet), and a packet the
//! link or the fault layer drops is taken out where it is dropped. In
//! between, only its 4-byte [`PacketHandle`] moves, through the link's
//! wire slot and drop-tail queue, the lane's delivery FIFO and the fault
//! heap's `Release` events. Exactly one of those holds a handle at any
//! time; `Simulator::run_until` checks that in debug builds.

use crate::packet::Packet;

/// Names a parked packet. Valid from [`PacketSlab::park`] until the one
/// [`PacketSlab::take`] that ends its stay; the slot is then reused.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct PacketHandle(u32);

impl PacketHandle {
    /// The slot's index in the slab.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// Ends the free list.
const NO_SLOT: u32 = u32::MAX;

enum Slot {
    Parked(Packet),
    /// A free slot and the next free one after it.
    Free {
        next: u32,
    },
}

/// A `Vec` of slots with a free list threaded through the free ones, so
/// parking reuses the slot freed last and allocates only when every slot
/// is taken.
pub(crate) struct PacketSlab {
    slots: Vec<Slot>,
    free: u32,
    parked: usize,
    /// Scratch for [`Self::assert_held_exactly`], sized on first use.
    marks: Vec<bool>,
}

impl PacketSlab {
    /// A slab with room for `cap` parked packets before it grows.
    pub fn with_capacity(cap: usize) -> PacketSlab {
        PacketSlab {
            slots: Vec::with_capacity(cap),
            free: NO_SLOT,
            parked: 0,
            marks: Vec::new(),
        }
    }

    /// Parks `pkt`; the handle names it until [`Self::take`].
    pub fn park(&mut self, pkt: Packet) -> PacketHandle {
        self.parked += 1;
        if self.free == NO_SLOT {
            let at = u32::try_from(self.slots.len()).expect("fewer than 2^32 parked packets");
            self.slots.push(Slot::Parked(pkt));
            return PacketHandle(at);
        }
        let at = self.free;
        let slot = &mut self.slots[at as usize];
        let Slot::Free { next } = *slot else {
            unreachable!("the free list holds only free slots");
        };
        self.free = next;
        *slot = Slot::Parked(pkt);
        PacketHandle(at)
    }

    /// The packet `h` names.
    pub fn get(&self, h: PacketHandle) -> &Packet {
        match &self.slots[h.index()] {
            Slot::Parked(pkt) => pkt,
            Slot::Free { .. } => panic!("{h:?} is not parked"),
        }
    }

    /// Ends the stay of the packet `h` names and returns it.
    pub fn take(&mut self, h: PacketHandle) -> Packet {
        let freed = Slot::Free { next: self.free };
        match std::mem::replace(&mut self.slots[h.index()], freed) {
            Slot::Parked(pkt) => {
                self.free = h.0;
                self.parked -= 1;
                pkt
            }
            Slot::Free { .. } => panic!("{h:?} is not parked"),
        }
    }

    /// Packets parked now.
    #[cfg(test)]
    pub fn len(&self) -> usize {
        self.parked
    }

    /// Asserts that `held` names every parked packet exactly once and
    /// nothing else.
    pub fn assert_held_exactly(&mut self, held: impl IntoIterator<Item = PacketHandle>) {
        self.marks.clear();
        self.marks.resize(self.slots.len(), false);
        let mut count = 0;
        for h in held {
            assert!(
                matches!(self.slots[h.index()], Slot::Parked(_)),
                "{h:?} is held but not parked"
            );
            assert!(
                !std::mem::replace(&mut self.marks[h.index()], true),
                "{h:?} is held twice"
            );
            count += 1;
        }
        assert_eq!(count, self.parked, "a parked packet has no holder");
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::packet::{FlowId, HostAddr, PacketId, TcpFlags, TcpHeader};
    use h2priv_util::bytes::Bytes;

    fn packet(id: u64) -> Packet {
        let header = TcpHeader {
            flow: FlowId {
                src: HostAddr(0),
                dst: HostAddr(1),
                sport: 1,
                dport: 2,
            },
            seq: 0,
            ack: 0,
            flags: TcpFlags::ACK,
            window: 0,
            ts_val: 0,
            ts_ecr: 0,
        };
        let mut pkt = Packet::new(header, Bytes::new());
        pkt.id = PacketId(id);
        pkt
    }

    #[test]
    fn slots_are_reused_last_freed_first() {
        let mut slab = PacketSlab::with_capacity(2);
        let a = slab.park(packet(0));
        let b = slab.park(packet(1));
        let c = slab.park(packet(2));
        assert_eq!((a.index(), b.index(), c.index()), (0, 1, 2));
        assert_eq!(slab.take(b).id, PacketId(1));
        assert_eq!(slab.take(a).id, PacketId(0));
        assert_eq!(slab.len(), 1);
        assert_eq!(slab.park(packet(3)), a);
        assert_eq!(slab.park(packet(4)), b);
        assert_eq!(slab.park(packet(5)).index(), 3);
        assert_eq!(slab.get(b).id, PacketId(4));
        assert_eq!(slab.get(c).id, PacketId(2));
        slab.assert_held_exactly([c, a, PacketHandle(3), b]);
    }

    #[test]
    #[should_panic(expected = "is not parked")]
    fn a_handle_is_taken_once() {
        let mut slab = PacketSlab::with_capacity(1);
        let a = slab.park(packet(0));
        slab.take(a);
        slab.take(a);
    }

    #[test]
    #[should_panic(expected = "held twice")]
    fn a_handle_held_twice_fails_the_check() {
        let mut slab = PacketSlab::with_capacity(2);
        let a = slab.park(packet(0));
        slab.park(packet(1));
        slab.assert_held_exactly([a, a]);
    }

    #[test]
    #[should_panic(expected = "has no holder")]
    fn a_packet_nobody_holds_fails_the_check() {
        let mut slab = PacketSlab::with_capacity(2);
        let a = slab.park(packet(0));
        slab.park(packet(1));
        slab.assert_held_exactly([a]);
    }
}
