//! Glue between a [`QuicConnection`] and the netsim event loop, the
//! datagram analogue of `h2priv_h2::stack::Stack`. Used by both
//! [`crate::server::H3ServerNode`] and [`crate::client::H3ClientNode`].

use h2priv_netsim::link::LinkId;
use h2priv_netsim::node::Ctx;
use h2priv_netsim::packet::Packet;
use h2priv_netsim::time::SimTime;
use h2priv_tls::WireMap;

use crate::conn::{QuicConnection, QuicEvent};

/// A QUIC connection with helpers to pump datagrams into the simulator.
#[derive(Debug)]
pub struct QuicStack {
    /// The transport connection.
    pub quic: QuicConnection,
    egress: Option<LinkId>,
    /// Alternate egress for connection-migration-style traffic
    /// splitting, with the burst length (datagrams per path before
    /// alternating).
    split: Option<(LinkId, u32)>,
    /// Datagrams sent since splitting was enabled.
    split_sent: u64,
    /// Deadline currently covered by a scheduled transport tick, if any.
    pub tick_at: Option<SimTime>,
}

impl QuicStack {
    /// Wraps a QUIC connection.
    pub fn new(quic: QuicConnection) -> QuicStack {
        QuicStack {
            quic,
            egress: None,
            split: None,
            split_sent: 0,
            tick_at: None,
        }
    }

    /// Sets the link this endpoint transmits on (discovered in
    /// `on_start`).
    pub fn set_egress(&mut self, link: LinkId) {
        self.egress = Some(link);
    }

    /// Enables traffic splitting: datagrams alternate between the
    /// primary egress and `alt` in deterministic bursts of `burst`
    /// datagrams per path (connection-migration style — no RNG).
    pub fn set_split(&mut self, alt: LinkId, burst: u32) {
        assert!(burst > 0, "split burst must be positive");
        self.split = Some((alt, burst));
    }

    /// Datagrams routed via the alternate path so far.
    pub fn split_alt_datagrams(&self) -> u64 {
        let Some((_, burst)) = self.split else {
            return 0;
        };
        // Odd-numbered bursts went to the alternate path.
        let full = self.split_sent / burst as u64;
        let rem = self.split_sent % burst as u64;
        full / 2 * burst as u64 + if full % 2 == 1 { rem } else { 0 }
    }

    /// Feeds an arriving datagram into the connection, appending the
    /// application events it produced (in order) to a caller-provided
    /// (reusable) buffer.
    pub fn on_packet_into(&mut self, now: SimTime, pkt: &Packet, events: &mut Vec<QuicEvent>) {
        self.quic.on_datagram(now, &pkt.payload);
        self.collect_into(events);
    }

    /// Drives the transport timer; appends events like
    /// [`QuicStack::on_packet_into`].
    pub fn on_transport_timer_into(&mut self, now: SimTime, events: &mut Vec<QuicEvent>) {
        self.quic.on_timer(now);
        self.collect_into(events);
    }

    fn collect_into(&mut self, events: &mut Vec<QuicEvent>) {
        while let Some(ev) = self.quic.poll_event() {
            events.push(ev);
        }
    }

    /// Transmits every datagram the connection has ready onto the egress
    /// link.
    ///
    /// # Panics
    /// Panics if the egress link was never set.
    pub fn pump(&mut self, ctx: &mut Ctx<'_>) {
        let egress = self.egress.expect("stack egress not set");
        while let Some((hdr, payload)) = self.quic.poll_datagram(ctx.now()) {
            let link = match self.split {
                Some((alt, burst)) => {
                    let path = (self.split_sent / burst as u64) % 2;
                    self.split_sent += 1;
                    if path == 1 {
                        alt
                    } else {
                        egress
                    }
                }
                None => egress,
            };
            ctx.send(link, Packet::new(hdr, payload));
        }
    }

    /// The next transport deadline that needs an `on_transport_timer`
    /// call, if the currently scheduled tick (if any) does not already
    /// cover it.
    pub fn timer_needs_rescheduling(&self) -> Option<SimTime> {
        match (self.quic.next_timeout(), self.tick_at) {
            (Some(t), Some(s)) if s <= t => None, // an earlier/equal tick is coming
            (Some(t), _) => Some(t),
            (None, _) => None,
        }
    }

    /// Ground truth for everything this endpoint sent.
    pub fn wire_map(&self) -> &WireMap {
        self.quic.wire_map()
    }
}
