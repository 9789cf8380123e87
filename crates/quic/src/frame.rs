//! QUIC-lite wire format: frames and datagram encoding.
//!
//! The model keeps real QUIC's *observable* structure — one short-header
//! packet per UDP datagram, an AEAD tag per packet, frames inside — while
//! using fixed-width fields instead of varints (the simulator never needs
//! the byte savings, and fixed widths keep every size computable in
//! closed form, which the datagram-delimiter analysis in `h2priv-trace`
//! relies on).
//!
//! Layout of one datagram payload:
//!
//! ```text
//! [0x40][packet number: u64]  ... frames ...  [16-byte AEAD tag]
//! ```
//!
//! An on-path observer sees only the datagram length — there is no
//! record header to parse, which is exactly the property the H3 arm of
//! the experiments studies.

use h2priv_util::bytes::{Bytes, BytesPool};
use h2priv_util::smallvec::SmallVec;

/// A per-datagram frame list. Steady-state datagrams carry one frame
/// (stream chunk, crypto chunk or ACK) and the largest control volley
/// carries two, so two inline slots keep the packet path off the heap.
pub type FrameVec = SmallVec<QuicFrame, 2>;
/// ACK ranges as they go on the wire, sized to [`MAX_ACK_RANGES`] so a
/// well-formed sender never spills to the heap (hostile input with more
/// ranges still decodes — the vector spills).
pub type RangeVec = SmallVec<(u64, u64), MAX_ACK_RANGES>;

/// Bytes of the short packet header (type byte + 8-byte packet number).
pub const SHORT_HEADER_LEN: usize = 9;
/// Bytes of the per-packet AEAD tag (mirrors the TLS record tag length).
pub const TAG_LEN: usize = h2priv_tls::AEAD_TAG_LEN;
/// Fixed per-datagram overhead (header + tag).
pub const DATAGRAM_OVERHEAD: usize = SHORT_HEADER_LEN + TAG_LEN;
/// Maximum datagram payload the path carries (QUIC's conservative MTU).
pub const MAX_DATAGRAM: usize = 1_200;
/// STREAM frame header: type + stream id (u32) + offset (u64) + len (u32).
pub const STREAM_FRAME_HEADER_LEN: usize = 17;
/// CRYPTO frame header: type + offset (u64) + len (u32).
pub const CRYPTO_FRAME_HEADER_LEN: usize = 13;
/// Fixed overhead of a datagram carrying one STREAM frame.
pub const STREAM_DATAGRAM_OVERHEAD: usize = DATAGRAM_OVERHEAD + STREAM_FRAME_HEADER_LEN;
/// Largest stream-data chunk one datagram can carry.
pub const MAX_STREAM_CHUNK: usize = MAX_DATAGRAM - STREAM_DATAGRAM_OVERHEAD;
/// Largest crypto chunk one datagram can carry.
pub const MAX_CRYPTO_CHUNK: usize = MAX_DATAGRAM - DATAGRAM_OVERHEAD - CRYPTO_FRAME_HEADER_LEN;
/// At most this many ACK ranges are encoded per ACK frame (the newest
/// ones); older unacked ranges are recovered via loss detection. Real
/// receivers bound the ranges they report for the same reason (RFC 9000
/// §13.2.3); the cap here additionally keeps ACK-only datagrams at most
/// 59 bytes, so a drop phase that permanently fragments the received
/// packet-number space (dropped numbers never arrive) cannot inflate the
/// ACK flow into GET-sized datagrams for the rest of the connection.
pub const MAX_ACK_RANGES: usize = 2;

const TYPE_PADDING: u8 = 0x00;
const TYPE_PING: u8 = 0x01;
const TYPE_ACK: u8 = 0x02;
const TYPE_RESET_STREAM: u8 = 0x04;
const TYPE_STOP_SENDING: u8 = 0x05;
const TYPE_CRYPTO: u8 = 0x06;
const TYPE_STREAM: u8 = 0x08; // low bit = FIN
const TYPE_MAX_DATA: u8 = 0x10;
const TYPE_MAX_STREAM_DATA: u8 = 0x11;
const TYPE_CONNECTION_CLOSE: u8 = 0x1c;

/// One QUIC-lite frame.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum QuicFrame {
    /// Zero padding (`len` bytes of 0x00 on the wire).
    Padding {
        /// Number of padding bytes.
        len: u32,
    },
    /// Keep-alive / PTO probe.
    Ping,
    /// Acknowledgement: inclusive packet-number ranges, ascending.
    Ack {
        /// Acknowledged `[start, end]` ranges, ascending and disjoint.
        ranges: RangeVec,
    },
    /// Handshake bytes (content is opaque zeros, only sizes matter).
    Crypto {
        /// Offset in the crypto stream.
        offset: u64,
        /// Number of crypto bytes.
        len: u32,
    },
    /// Application stream data.
    Stream {
        /// Stream id.
        id: u32,
        /// Offset of `data` in the stream.
        offset: u64,
        /// The stream bytes.
        data: Bytes,
        /// Final frame of the stream.
        fin: bool,
    },
    /// Connection-level flow-control credit.
    MaxData {
        /// New absolute connection receive limit.
        max: u64,
    },
    /// Stream-level flow-control credit.
    MaxStreamData {
        /// Stream id.
        id: u32,
        /// New absolute stream receive limit.
        max: u64,
    },
    /// Sender abandons its side of a stream.
    ResetStream {
        /// Stream id.
        id: u32,
    },
    /// Receiver asks the peer to stop sending on a stream.
    StopSending {
        /// Stream id.
        id: u32,
    },
    /// Immediate connection close.
    ConnectionClose,
}

impl QuicFrame {
    /// `true` for frames that require acknowledgement (everything except
    /// ACK and PADDING, per RFC 9002 §2).
    pub fn is_ack_eliciting(&self) -> bool {
        !matches!(self, QuicFrame::Ack { .. } | QuicFrame::Padding { .. })
    }

    /// Encoded size in bytes.
    pub fn encoded_len(&self) -> usize {
        match self {
            QuicFrame::Padding { len } => *len as usize,
            QuicFrame::Ping => 1,
            QuicFrame::Ack { ranges } => 2 + 16 * ranges.len(),
            QuicFrame::Crypto { len, .. } => CRYPTO_FRAME_HEADER_LEN + *len as usize,
            QuicFrame::Stream { data, .. } => STREAM_FRAME_HEADER_LEN + data.len(),
            QuicFrame::MaxData { .. } => 9,
            QuicFrame::MaxStreamData { .. } => 13,
            QuicFrame::ResetStream { .. } | QuicFrame::StopSending { .. } => 5,
            QuicFrame::ConnectionClose => 1,
        }
    }

    /// Appends the wire encoding to `out`.
    pub fn encode_into(&self, out: &mut Vec<u8>) {
        match self {
            QuicFrame::Padding { len } => {
                let at = out.len();
                out.resize(at + *len as usize, TYPE_PADDING);
            }
            QuicFrame::Ping => out.push(TYPE_PING),
            QuicFrame::Ack { ranges } => {
                debug_assert!(ranges.len() <= u8::MAX as usize);
                out.push(TYPE_ACK);
                out.push(ranges.len() as u8);
                for (start, end) in ranges.iter() {
                    out.extend_from_slice(&start.to_be_bytes());
                    out.extend_from_slice(&end.to_be_bytes());
                }
            }
            QuicFrame::Crypto { offset, len } => {
                out.push(TYPE_CRYPTO);
                out.extend_from_slice(&offset.to_be_bytes());
                out.extend_from_slice(&len.to_be_bytes());
                let at = out.len();
                out.resize(at + *len as usize, 0);
            }
            QuicFrame::Stream {
                id,
                offset,
                data,
                fin,
            } => {
                out.push(TYPE_STREAM | u8::from(*fin));
                out.extend_from_slice(&id.to_be_bytes());
                out.extend_from_slice(&offset.to_be_bytes());
                out.extend_from_slice(&(data.len() as u32).to_be_bytes());
                out.extend_from_slice(data);
            }
            QuicFrame::MaxData { max } => {
                out.push(TYPE_MAX_DATA);
                out.extend_from_slice(&max.to_be_bytes());
            }
            QuicFrame::MaxStreamData { id, max } => {
                out.push(TYPE_MAX_STREAM_DATA);
                out.extend_from_slice(&id.to_be_bytes());
                out.extend_from_slice(&max.to_be_bytes());
            }
            QuicFrame::ResetStream { id } => {
                out.push(TYPE_RESET_STREAM);
                out.extend_from_slice(&id.to_be_bytes());
            }
            QuicFrame::StopSending { id } => {
                out.push(TYPE_STOP_SENDING);
                out.extend_from_slice(&id.to_be_bytes());
            }
            QuicFrame::ConnectionClose => out.push(TYPE_CONNECTION_CLOSE),
        }
    }
}

/// Decodes one frame starting at byte `at` of `payload` (frames end at
/// `limit`, which excludes the AEAD tag); returns the frame and bytes
/// consumed. `None` on malformed input. Stream data is a zero-copy
/// slice of `payload` — no per-frame heap allocation.
fn decode_frame(payload: &Bytes, at: usize, limit: usize) -> Option<(QuicFrame, usize)> {
    let buf = &payload[at..limit];
    let ty = *buf.first()?;
    match ty {
        TYPE_PADDING => {
            let len = buf.iter().take_while(|&&b| b == TYPE_PADDING).count();
            Some((QuicFrame::Padding { len: len as u32 }, len))
        }
        TYPE_PING => Some((QuicFrame::Ping, 1)),
        TYPE_ACK => {
            let count = *buf.get(1)? as usize;
            let need = 2 + 16 * count;
            if buf.len() < need {
                return None;
            }
            let mut ranges = RangeVec::new();
            for i in 0..count {
                let off = 2 + 16 * i;
                ranges.push((read_u64(buf, off)?, read_u64(buf, off + 8)?));
            }
            Some((QuicFrame::Ack { ranges }, need))
        }
        TYPE_CRYPTO => {
            let offset = read_u64(buf, 1)?;
            let len = read_u32(buf, 9)?;
            let need = CRYPTO_FRAME_HEADER_LEN + len as usize;
            if buf.len() < need {
                return None;
            }
            Some((QuicFrame::Crypto { offset, len }, need))
        }
        t if t & !0x01 == TYPE_STREAM => {
            let id = read_u32(buf, 1)?;
            let offset = read_u64(buf, 5)?;
            let len = read_u32(buf, 13)?;
            let need = STREAM_FRAME_HEADER_LEN + len as usize;
            if buf.len() < need {
                return None;
            }
            let data = payload.slice(at + STREAM_FRAME_HEADER_LEN..at + need);
            Some((
                QuicFrame::Stream {
                    id,
                    offset,
                    data,
                    fin: t & 0x01 != 0,
                },
                need,
            ))
        }
        TYPE_MAX_DATA => Some((
            QuicFrame::MaxData {
                max: read_u64(buf, 1)?,
            },
            9,
        )),
        TYPE_MAX_STREAM_DATA => Some((
            QuicFrame::MaxStreamData {
                id: read_u32(buf, 1)?,
                max: read_u64(buf, 5)?,
            },
            13,
        )),
        TYPE_RESET_STREAM => Some((
            QuicFrame::ResetStream {
                id: read_u32(buf, 1)?,
            },
            5,
        )),
        TYPE_STOP_SENDING => Some((
            QuicFrame::StopSending {
                id: read_u32(buf, 1)?,
            },
            5,
        )),
        TYPE_CONNECTION_CLOSE => Some((QuicFrame::ConnectionClose, 1)),
        _ => None,
    }
}

fn read_u32(buf: &[u8], at: usize) -> Option<u32> {
    Some(u32::from_be_bytes(buf.get(at..at + 4)?.try_into().ok()?))
}

fn read_u64(buf: &[u8], at: usize) -> Option<u64> {
    Some(u64::from_be_bytes(buf.get(at..at + 8)?.try_into().ok()?))
}

/// Shared encode body: short header, frames, optional padding up to
/// `pad_to` total bytes, then the AEAD tag, appended to `out`.
fn encode_datagram_into(pn: u64, frames: &[QuicFrame], pad_to: Option<usize>, out: &mut Vec<u8>) {
    out.push(0x40);
    out.extend_from_slice(&pn.to_be_bytes());
    for f in frames {
        f.encode_into(out);
    }
    if let Some(target) = pad_to {
        let with_tag = out.len() + TAG_LEN;
        if with_tag < target {
            QuicFrame::Padding {
                len: (target - with_tag) as u32,
            }
            .encode_into(out);
        }
    }
    let at = out.len();
    out.resize(at + TAG_LEN, 0);
    assert!(
        out.len() <= MAX_DATAGRAM,
        "datagram overflow: {}",
        out.len()
    );
}

/// Encodes one datagram into a freshly allocated buffer. The connection
/// hot path uses [`encode_datagram_pooled`] instead.
///
/// # Panics
/// Panics if the encoded datagram would exceed [`MAX_DATAGRAM`].
pub fn encode_datagram(pn: u64, frames: &[QuicFrame], pad_to: Option<usize>) -> Bytes {
    let mut out = Vec::with_capacity(MAX_DATAGRAM);
    encode_datagram_into(pn, frames, pad_to, &mut out);
    Bytes::from(out)
}

/// Encodes one datagram into a buffer drawn from `pool` — zero
/// allocations once the pool is warm (the `Arc` control block is
/// recycled along with the storage).
///
/// # Panics
/// Panics if the encoded datagram would exceed [`MAX_DATAGRAM`].
pub fn encode_datagram_pooled(
    pn: u64,
    frames: &[QuicFrame],
    pad_to: Option<usize>,
    pool: &mut BytesPool,
) -> Bytes {
    let mut buf = pool.acquire(MAX_DATAGRAM);
    encode_datagram_into(pn, frames, pad_to, buf.buf());
    buf.freeze()
}

/// Decodes a datagram, appending its frames to `frames` and returning
/// the packet number. `None` when the payload is not a well-formed
/// QUIC-lite datagram (`frames` may then hold a partial prefix — callers
/// clear their scratch buffer before reuse). Stream frame data borrows
/// `payload` — no copies.
pub fn decode_datagram_into(payload: &Bytes, frames: &mut Vec<QuicFrame>) -> Option<u64> {
    if payload.len() < DATAGRAM_OVERHEAD || payload[0] != 0x40 {
        return None;
    }
    let pn = read_u64(payload, 1)?;
    let limit = payload.len() - TAG_LEN;
    let mut at = SHORT_HEADER_LEN;
    while at < limit {
        let (frame, used) = decode_frame(payload, at, limit)?;
        frames.push(frame);
        at += used;
    }
    Some(pn)
}

/// Decodes a datagram into its packet number and frames (copying the
/// payload; the connection hot path uses [`decode_datagram_into`]).
/// `None` when the payload is not a well-formed QUIC-lite datagram.
pub fn decode_datagram(payload: &[u8]) -> Option<(u64, Vec<QuicFrame>)> {
    let owned = Bytes::copy_from_slice(payload);
    let mut frames = Vec::new();
    let pn = decode_datagram_into(&owned, &mut frames)?;
    Some((pn, frames))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn overheads_are_consistent() {
        assert_eq!(DATAGRAM_OVERHEAD, 25);
        assert_eq!(STREAM_DATAGRAM_OVERHEAD, 42);
        assert_eq!(MAX_STREAM_CHUNK, 1_158);
    }

    #[test]
    fn datagram_roundtrip() {
        let frames = vec![
            QuicFrame::Ack {
                ranges: vec![(0, 3), (7, 9)].into(),
            },
            QuicFrame::Stream {
                id: 4,
                offset: 1_000,
                data: Bytes::from(vec![7u8; 100]),
                fin: true,
            },
            QuicFrame::MaxData { max: 1 << 20 },
        ];
        let wire = encode_datagram(42, &frames, None);
        let (pn, decoded) = decode_datagram(&wire).expect("decodes");
        assert_eq!(pn, 42);
        assert_eq!(decoded, frames);
    }

    #[test]
    fn padded_initial_reaches_target_size() {
        let frames = vec![QuicFrame::Crypto {
            offset: 0,
            len: 512,
        }];
        let wire = encode_datagram(0, &frames, Some(MAX_DATAGRAM));
        assert_eq!(wire.len(), MAX_DATAGRAM);
        let (_, decoded) = decode_datagram(&wire).expect("decodes");
        assert_eq!(decoded.len(), 2, "crypto + padding");
        assert!(matches!(decoded[1], QuicFrame::Padding { .. }));
    }

    #[test]
    fn control_frames_roundtrip() {
        for f in [
            QuicFrame::Ping,
            QuicFrame::ResetStream { id: 8 },
            QuicFrame::StopSending { id: 8 },
            QuicFrame::MaxStreamData { id: 4, max: 77 },
            QuicFrame::ConnectionClose,
        ] {
            let wire = encode_datagram(1, std::slice::from_ref(&f), None);
            let (_, decoded) = decode_datagram(&wire).expect("decodes");
            assert_eq!(decoded, vec![f]);
        }
    }

    #[test]
    fn truncated_datagram_rejected() {
        let wire = encode_datagram(
            3,
            &[QuicFrame::Stream {
                id: 0,
                offset: 0,
                data: Bytes::from(vec![1u8; 50]),
                fin: false,
            }],
            None,
        );
        assert!(decode_datagram(&wire[..wire.len() - TAG_LEN - 10]).is_none());
        assert!(decode_datagram(&[0u8; 4]).is_none());
    }

    #[test]
    fn ack_only_datagram_sizes_match_monitor_assumptions() {
        // 1-range and 2-range ACK-only datagrams must sit at or below the
        // adversary's small-datagram threshold (66 bytes) so the reset
        // signature can be read off the wire; see core::monitor.
        for (n, expect) in [(1usize, 43usize), (2, 59)] {
            let ranges = (0..n as u64).map(|i| (10 * i, 10 * i + 1)).collect();
            let wire = encode_datagram(9, &[QuicFrame::Ack { ranges }], None);
            assert_eq!(wire.len(), expect);
        }
    }

    #[test]
    fn pooled_encode_is_byte_identical_and_reuses_buffers() {
        let mut pool = BytesPool::new(2);
        let frames = [
            QuicFrame::Stream {
                id: 4,
                offset: 7,
                data: Bytes::from(vec![3u8; 64]),
                fin: false,
            },
            QuicFrame::MaxData { max: 99 },
        ];
        let plain = encode_datagram(5, &frames, Some(200));
        let pooled = encode_datagram_pooled(5, &frames, Some(200), &mut pool);
        assert_eq!(&plain[..], &pooled[..]);
        let p = pooled.as_ref().as_ptr();
        pool.reclaim(pooled);
        // A second pooled encode reuses the same storage.
        let again = encode_datagram_pooled(6, &frames, None, &mut pool);
        assert!(std::ptr::eq(again.as_ref().as_ptr(), p));
        assert_eq!(&again[..], &encode_datagram(6, &frames, None)[..]);
    }

    #[test]
    fn zero_copy_decode_borrows_the_payload() {
        let wire = encode_datagram(
            1,
            &[QuicFrame::Stream {
                id: 0,
                offset: 0,
                data: Bytes::from(vec![9u8; 50]),
                fin: true,
            }],
            None,
        );
        let mut frames = Vec::new();
        assert_eq!(decode_datagram_into(&wire, &mut frames), Some(1));
        let QuicFrame::Stream { data, .. } = &frames[0] else {
            panic!("expected stream frame");
        };
        // The decoded data points into the datagram payload itself.
        let expect = wire.as_ref()[SHORT_HEADER_LEN + STREAM_FRAME_HEADER_LEN..].as_ptr();
        assert!(std::ptr::eq(data.as_ref().as_ptr(), expect));
    }
}
