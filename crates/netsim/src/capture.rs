//! The capture hook: a tshark-like tap at the adversary's middlebox.
//!
//! The `h2priv-trace` crate implements [`CaptureSink`] to build packet
//! traces; a tapped middlebox feeds it one [`CaptureEvent`] per packet
//! that transits it, the paper's compromised gateway and the only vantage
//! point the attack has. The event lends the packet for the duration of
//! the call, so a sink copies what it keeps. The sink is shared via
//! `Rc<RefCell<..>>` because the simulation is strictly single-threaded.

use crate::packet::{Direction, Packet};
use crate::time::SimTime;
use std::cell::RefCell;
use std::rc::Rc;

/// One packet transiting the middlebox.
#[derive(Debug, Clone, Copy)]
pub struct CaptureEvent<'a> {
    /// When it happened.
    pub time: SimTime,
    /// Travel direction relative to the client-server path.
    pub direction: Direction,
    /// The packet. Payload bytes are ciphertext-equivalent: sinks may
    /// record sizes and the cleartext TLS record headers, nothing else is
    /// meaningful to an eavesdropper.
    pub packet: &'a Packet,
    /// Whether the middlebox's policy dropped this packet after seeing it.
    pub dropped_by_policy: bool,
}

/// A consumer of capture events.
pub trait CaptureSink {
    /// Records one event. Implementations must not assume events arrive in
    /// any order other than non-decreasing time.
    fn record(&mut self, event: &CaptureEvent<'_>);
}

/// A shareable, interiorly-mutable capture sink handle.
pub type SharedSink = Rc<RefCell<dyn CaptureSink>>;

/// A sink that counts events; useful in tests and as a default.
#[derive(Debug, Default, Clone)]
pub struct CountingSink {
    /// Events seen at the middlebox.
    pub middlebox: u64,
}

impl CaptureSink for CountingSink {
    fn record(&mut self, _event: &CaptureEvent<'_>) {
        self.middlebox += 1;
    }
}

/// Wraps a sink for sharing with the simulator.
pub fn shared<S: CaptureSink + 'static>(sink: S) -> Rc<RefCell<S>> {
    Rc::new(RefCell::new(sink))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::packet::{FlowId, HostAddr, TcpFlags, TcpHeader};
    use h2priv_util::bytes::Bytes;

    fn packet() -> Packet {
        Packet::new(
            TcpHeader {
                flow: FlowId {
                    src: HostAddr(0),
                    dst: HostAddr(1),
                    sport: 1,
                    dport: 443,
                },
                seq: 0,
                ack: 0,
                flags: TcpFlags::ACK,
                window: 0,
                ts_val: 0,
                ts_ecr: 0,
            },
            Bytes::new(),
        )
    }

    fn ev(packet: &Packet) -> CaptureEvent<'_> {
        CaptureEvent {
            time: SimTime::ZERO,
            direction: Direction::ClientToServer,
            packet,
            dropped_by_policy: false,
        }
    }

    #[test]
    fn counting_sink_counts_events() {
        let pkt = packet();
        let mut s = CountingSink::default();
        s.record(&ev(&pkt));
        s.record(&ev(&pkt));
        assert_eq!(s.middlebox, 2);
    }

    #[test]
    fn shared_sink_is_usable_through_handle() {
        let pkt = packet();
        let handle = shared(CountingSink::default());
        handle.borrow_mut().record(&ev(&pkt));
        assert_eq!(handle.borrow().middlebox, 1);
    }
}
