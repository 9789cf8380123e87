//! # h2priv-netsim
//!
//! A deterministic, single-threaded, discrete-event network simulator.
//!
//! This crate is the bottom substrate of the `h2priv` workspace, which
//! reproduces the DSN 2020 paper *"Depending on HTTP/2 for Privacy? Good
//! Luck!"*. The paper's adversary is a compromised on-path network device
//! that observes encrypted traffic and manipulates network parameters
//! (jitter, bandwidth, targeted drops). Everything the adversary can do is
//! expressed here as a [`middlebox::MiddleboxPolicy`] running on a
//! [`middlebox::Middlebox`] node between a client host and a server host.
//!
//! ## Design
//!
//! * **Virtual time.** [`time::SimTime`] is a nanosecond counter; nothing in
//!   the simulation reads the wall clock, so every run is exactly
//!   reproducible from its RNG seed.
//! * **Event queue.** Events are ordered by `(time, sequence)`; ties are
//!   broken by insertion order so iteration is deterministic. Timers wait
//!   in one `BinaryHeap` ([`queue`]) and fault events in another; each
//!   link's serialization and delivery events wait in that link's lane
//!   ([`event`]), already sorted, and a pop merges the lanes with the
//!   heaps in exact `(time, sequence)` order. A timer's id is its
//!   sequence number. Timers are never cancelled: a node ignores one it
//!   no longer wants when it fires.
//! * **Nodes and links.** [`node::Node`]s exchange [`packet::Packet`]s over
//!   unidirectional links, each set up by a [`link::LinkConfig`], that
//!   model serialization delay (bandwidth), propagation delay, a
//!   drop-tail queue, and random loss. Bandwidth can be changed at
//!   runtime, which is how the adversary throttles the path.
//! * **Capture.** Every packet that transits a tapped middlebox is lent
//!   to a [`capture::CaptureSink`], the hook used by the `h2priv-trace`
//!   crate to implement its tshark-like capture.
//!
//! ## Example
//!
//! ```
//! use h2priv_netsim::prelude::*;
//!
//! /// A node that echoes every packet back on the link it arrived from.
//! struct Echo;
//! impl Node for Echo {
//!     fn on_packet(&mut self, ctx: &mut Ctx<'_>, from: LinkId, pkt: Packet) {
//!         // send it back on the reverse link
//!         if let Some(rev) = ctx.reverse_link(from) {
//!             ctx.send(rev, pkt);
//!         }
//!     }
//!     fn on_timer(&mut self, _ctx: &mut Ctx<'_>, _timer: TimerId) {}
//! }
//!
//! # fn main() {
//! let mut sim = Simulator::new(42);
//! let a = sim.add_node(Echo);
//! let b = sim.add_node(Echo);
//! let (_ab, _ba) = sim.connect(a, b, LinkConfig::lan());
//! sim.run_until(SimTime::from_secs(1));
//! assert!(sim.now() <= SimTime::from_secs(1));
//! # }
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod capture;
pub mod event;
pub mod faults;
pub mod link;
pub mod middlebox;
pub mod node;
pub mod packet;
pub mod queue;
pub mod rng;
pub mod sim;
pub mod stats;
pub mod time;
pub mod topology;
pub mod units;

/// Convenient glob-import of the most commonly used simulator types.
pub mod prelude {
    pub use crate::capture::{CaptureEvent, CaptureSink, SharedSink};
    pub use crate::faults::{
        Duplicate, FaultAction, FaultConfig, FaultStats, GilbertElliott, Reorder,
    };
    pub use crate::link::{LinkConfig, LinkId};
    pub use crate::middlebox::{Middlebox, MiddleboxPolicy, PacketView, PolicyCtx, Verdict};
    pub use crate::node::{Ctx, Node, NodeId, TimerId};
    pub use crate::packet::{Direction, FlowId, HostAddr, Packet, TcpFlags, TcpHeader};
    pub use crate::rng::SimRng;
    pub use crate::sim::Simulator;
    pub use crate::time::{SimDuration, SimTime};
    pub use crate::topology::{PathConfig, PathTopology, SplitPathTopology};
    pub use crate::units::{Bandwidth, ByteCount};
}
