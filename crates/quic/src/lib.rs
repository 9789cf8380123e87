//! # h2priv-quic — QUIC-lite / HTTP-3 transport model
//!
//! A deterministic QUIC-lite transport over `h2priv-netsim` datagrams,
//! plus an HTTP/3-lite layer and client/server nodes that run
//! `h2priv-h2`'s browser and server worker model over it, so the paper's
//! isidewith attack pipeline can run unchanged against either transport
//! and answer the question the related work poses: does the
//! forced-serialization attack survive the migration off TCP? The
//! endpoints behave identically on both transports because the model is
//! the same code; only the transport glue here differs.
//!
//! What is modelled (and what the attack observes):
//!
//! * **Per-datagram framing** — the on-path observable is the UDP-sized
//!   datagram length, not a TLS record header ([`frame`]).
//! * **Packet-number spaces with ACK ranges and loss recovery** — a
//!   packet-threshold fast-retransmit analogue plus PTO backoff
//!   ([`recovery`]).
//! * **Independent stream delivery** — loss on one stream never blocks
//!   another (no cross-stream head-of-line blocking; [`streams`]).
//! * **Per-stream and connection flow control** with MAX_DATA grants
//!   ([`conn`]).
//! * **H3-lite framing** reusing the H2 stack's HPACK-lite as a QPACK
//!   stand-in ([`h3`]).
//!
//! Everything is seeded and deterministic: two runs with the same seed
//! produce byte-identical traces, reports and wire maps.

#![warn(missing_docs)]

pub mod client;
pub mod conn;
pub mod frame;
pub mod h3;
pub mod recovery;
pub mod server;
pub mod stack;
pub mod streams;
pub mod table;

pub use client::H3ClientNode;
pub use conn::{QuicConfig, QuicConnection, QuicEvent, QuicStats, Role};
pub use frame::{QuicFrame, DATAGRAM_OVERHEAD, MAX_DATAGRAM, MAX_STREAM_CHUNK};
pub use h3::{H3Event, H3FrameReader};
pub use recovery::AckRanges;
pub use server::H3ServerNode;
pub use stack::QuicStack;
