//! Zero-dependency substrate for the h2priv workspace.
//!
//! Everything the simulator previously pulled from crates.io lives here in
//! a small, auditable form so the whole reproduction builds and tests
//! offline (`cargo build --offline`) with an empty registry cache:
//!
//! * [`rng`] — a deterministic xoshiro256++ generator that is bit-compatible
//!   with `rand 0.8`'s `SmallRng` on 64-bit platforms, so every hardcoded
//!   experiment seed keeps producing the numbers recorded in EXPERIMENTS.md.
//! * [`json`] — a minimal JSON value type, [`json::ToJson`] trait, writer
//!   (compact and serde_json-style pretty) and parser, replacing the
//!   `serde`/`serde_json` derives (the workspace only ever round-trips its
//!   own output).
//! * [`bytes`] — cheaply-cloneable [`bytes::Bytes`] and growable
//!   [`bytes::BytesMut`] built on `Arc<[u8]>`/`Vec<u8>`.
//! * [`check`] — a seeded, shrink-free property-test harness replacing the
//!   `proptest` dev-dependency.
//! * [`telemetry`] — a deterministic observability layer: structured
//!   trace events timestamped in simulation time, per-trial metric
//!   registries, and sim-time spans, all off by default and folded in
//!   submission order so traces are byte-identical at any `--jobs` level.
//! * [`pool`] — a deterministic `std::thread::scope` work pool that fans
//!   independent seed-keyed jobs across cores and returns results in
//!   submission order, so parallel experiment runs stay byte-identical
//!   to sequential ones.
//! * [`jsonl`] — a jsonl reader that tolerates a truncated final line
//!   (a crashed writer's partial append), reporting it as recoverable
//!   with a byte offset instead of a hard parse error.
//! * [`crc32`] — CRC-32 (IEEE) for the campaign journal's per-record
//!   checksums.
//! * [`smallvec`](mod@smallvec) — an inline-capacity vector for the packet hot path,
//!   so per-datagram frame lists never touch the heap in steady state.
//! * [`alloc`] — a counting global allocator (opt-in per binary) with
//!   per-thread counters, turning "zero allocations in steady state"
//!   into a number a regression test can pin.

pub mod alloc;
pub mod bytes;
pub mod check;
pub mod crc32;
pub mod fxhash;
pub mod json;
pub mod jsonl;
pub mod pool;
pub mod rng;
pub mod smallvec;
pub mod telemetry;
