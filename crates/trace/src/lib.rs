//! # h2priv-trace
//!
//! The adversary's measurement toolbox — a functional stand-in for the
//! tshark-based traffic monitor of *"Depending on HTTP/2 for Privacy?
//! Good Luck!"* (DSN 2020).
//!
//! * [`capture::TraceCollector`] taps the simulated wire at the
//!   compromised middlebox (via the `h2priv-netsim` capture hook) and
//!   stores [`record::PacketRecord`]s: timestamps, cleartext TCP/IP
//!   headers and payload sizes — what a real gateway running tshark
//!   shows — but no payload bytes.
//! * [`reassembly::TlsStream`] follows each direction's TCP byte stream
//!   as packets pass (skipping retransmitted bytes, holding segments that
//!   arrive ahead of a gap) and reads the cleartext TLS record headers
//!   out of it.
//! * [`analysis`] segments the server→client record sequence into
//!   transmission units using the paper's delimiter insight (Fig. 1) plus
//!   inter-record idle gaps, producing the size estimates the prediction
//!   module consumes.
//! * [`datagram`] reapplies the same delimiter insight at the datagram
//!   layer for the QUIC transport, where no cleartext record headers
//!   exist and only datagram sizes and timing are observable.
//!
//! Only eavesdropper-visible information is ever used: nothing in this
//! crate touches `h2priv-tls`'s ground-truth wire maps.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod analysis;
pub mod capture;
pub mod datagram;
pub mod reassembly;
pub mod record;

pub use analysis::{TransmissionUnit, UnitConfig};
pub use capture::{SharedTrace, Trace, TraceCollector};
pub use datagram::{segment_datagram_units, DatagramUnitConfig};
pub use reassembly::{SeenRecord, TlsStream};
pub use record::PacketRecord;
