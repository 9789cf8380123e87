//! HTTP/2 frame types and their wire encoding (RFC 7540 §4).
//!
//! Every frame is `9-byte header + payload`. DATA payloads are synthetic
//! (zero bytes of the right length): the simulation cares about *sizes on
//! the wire*, not content. Everything else round-trips exactly.

use crate::stream::StreamId;
use core::fmt;
use h2priv_util::bytes::{Bytes, BytesMut};

/// Length of the fixed frame header.
pub const FRAME_HEADER_LEN: usize = 9;

/// Largest payload the 24-bit frame-header length field can carry
/// (RFC 7540 §4.1 — also the cap on SETTINGS_MAX_FRAME_SIZE, §6.5.2).
pub const MAX_FRAME_PAYLOAD: usize = (1 << 24) - 1;

/// A frame's payload exceeded the 24-bit wire length field.
///
/// Before this error existed the encoder cast `payload.len()` to `u32`
/// and shifted the low 24 bits into the header — a ≥ 16 MiB payload
/// would silently truncate on the wire and desynchronize the peer's
/// framing. Oversized frames are a caller bug here (the model never
/// builds them), but they must fail loudly, not corrupt the stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FrameEncodeError {
    /// The offending payload length in bytes.
    pub payload_len: usize,
}

impl fmt::Display for FrameEncodeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "frame payload of {} bytes exceeds the 24-bit length field (max {MAX_FRAME_PAYLOAD})",
            self.payload_len
        )
    }
}

/// Frame type codes (RFC 7540 §6).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[repr(u8)]
pub enum FrameType {
    /// DATA(0x0)
    Data = 0x0,
    /// HEADERS(0x1)
    Headers = 0x1,
    /// PUSH_PROMISE(0x5)
    PushPromise = 0x5,
    /// PRIORITY(0x2)
    Priority = 0x2,
    /// RST_STREAM(0x3)
    RstStream = 0x3,
    /// SETTINGS(0x4)
    Settings = 0x4,
    /// PING(0x6)
    Ping = 0x6,
    /// GOAWAY(0x7)
    GoAway = 0x7,
    /// WINDOW_UPDATE(0x8)
    WindowUpdate = 0x8,
}

impl FrameType {
    fn from_byte(b: u8) -> Option<FrameType> {
        Some(match b {
            0x0 => FrameType::Data,
            0x1 => FrameType::Headers,
            0x5 => FrameType::PushPromise,
            0x2 => FrameType::Priority,
            0x3 => FrameType::RstStream,
            0x4 => FrameType::Settings,
            0x6 => FrameType::Ping,
            0x7 => FrameType::GoAway,
            0x8 => FrameType::WindowUpdate,
            _ => return None,
        })
    }
}

/// HTTP/2 error codes (subset).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[repr(u32)]
pub enum ErrorCode {
    /// Graceful shutdown.
    NoError = 0x0,
    /// Protocol error detected.
    ProtocolError = 0x1,
    /// The endpoint is no longer interested in the stream — what a
    /// browser sends when it gives up on a stalled resource.
    Cancel = 0x8,
    /// Stream refused before processing.
    RefusedStream = 0x7,
    /// The endpoint detected excessive load.
    EnhanceYourCalm = 0xb,
}

impl ErrorCode {
    fn from_u32(v: u32) -> ErrorCode {
        match v {
            0x1 => ErrorCode::ProtocolError,
            0x7 => ErrorCode::RefusedStream,
            0x8 => ErrorCode::Cancel,
            0xb => ErrorCode::EnhanceYourCalm,
            _ => ErrorCode::NoError,
        }
    }
}

const FLAG_END_STREAM: u8 = 0x1;
const FLAG_ACK: u8 = 0x1;
const FLAG_END_HEADERS: u8 = 0x4;

/// One HTTP/2 frame.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Frame {
    /// DATA: `len` synthetic payload bytes on `stream`.
    Data {
        /// Carrying stream.
        stream: StreamId,
        /// Payload length in bytes.
        len: u32,
        /// END_STREAM flag.
        end_stream: bool,
    },
    /// HEADERS with an HPACK block (always carries END_HEADERS here; no
    /// CONTINUATION in the model).
    Headers {
        /// Carrying stream.
        stream: StreamId,
        /// Encoded header block.
        block: Bytes,
        /// END_STREAM flag.
        end_stream: bool,
    },
    /// PRIORITY (exclusive bit folded into `dependency`'s high bit).
    Priority {
        /// Prioritised stream.
        stream: StreamId,
        /// Stream this one depends on.
        dependency: u32,
        /// Weight (0-255 encoding 1-256).
        weight: u8,
    },
    /// RST_STREAM.
    RstStream {
        /// Stream being reset.
        stream: StreamId,
        /// Reason.
        error: ErrorCode,
    },
    /// SETTINGS (identifier/value pairs) or its ACK.
    Settings {
        /// ACK flag (an ACK carries no parameters).
        ack: bool,
        /// Parameter pairs.
        params: Vec<(u16, u32)>,
    },
    /// PING or its ACK.
    Ping {
        /// ACK flag.
        ack: bool,
    },
    /// GOAWAY.
    GoAway {
        /// Highest processed stream.
        last_stream: StreamId,
        /// Reason.
        error: ErrorCode,
    },
    /// WINDOW_UPDATE.
    WindowUpdate {
        /// Stream (0 = connection window).
        stream: StreamId,
        /// Window increment in bytes.
        increment: u32,
    },
    /// PUSH_PROMISE: the server announces it will push the resource
    /// described by `block` on `promised` (an even, server-initiated
    /// stream), associated with the client's request stream `stream`.
    PushPromise {
        /// The client-initiated stream the promise rides on.
        stream: StreamId,
        /// The reserved server-initiated stream.
        promised: StreamId,
        /// HPACK block of the pushed request's headers.
        block: Bytes,
    },
}

impl Frame {
    /// The frame's stream id (0 for connection-level frames).
    pub fn stream_id(&self) -> StreamId {
        match self {
            Frame::Data { stream, .. }
            | Frame::Headers { stream, .. }
            | Frame::Priority { stream, .. }
            | Frame::RstStream { stream, .. }
            | Frame::PushPromise { stream, .. }
            | Frame::WindowUpdate { stream, .. } => *stream,
            Frame::Settings { .. } | Frame::Ping { .. } | Frame::GoAway { .. } => {
                StreamId::CONNECTION
            }
        }
    }

    /// The frame's type code.
    pub fn frame_type(&self) -> FrameType {
        match self {
            Frame::Data { .. } => FrameType::Data,
            Frame::Headers { .. } => FrameType::Headers,
            Frame::Priority { .. } => FrameType::Priority,
            Frame::RstStream { .. } => FrameType::RstStream,
            Frame::Settings { .. } => FrameType::Settings,
            Frame::Ping { .. } => FrameType::Ping,
            Frame::GoAway { .. } => FrameType::GoAway,
            Frame::WindowUpdate { .. } => FrameType::WindowUpdate,
            Frame::PushPromise { .. } => FrameType::PushPromise,
        }
    }

    /// Serializes the frame (header + payload).
    ///
    /// Fails with [`FrameEncodeError`] when the payload does not fit the
    /// 24-bit length field ([`MAX_FRAME_PAYLOAD`]).
    pub fn encode(&self) -> Result<Bytes, FrameEncodeError> {
        let mut out = BytesMut::new();
        self.encode_into(&mut out)?;
        Ok(out.freeze())
    }

    /// Appends the serialized frame to `out`; a DATA payload is written
    /// as zeros straight into `out`, with no payload buffer of its own.
    ///
    /// Fails with [`FrameEncodeError`] when the payload does not fit the
    /// 24-bit length field ([`MAX_FRAME_PAYLOAD`]); the length is checked
    /// first, so nothing is written or reserved in that case.
    pub fn encode_into(&self, out: &mut BytesMut) -> Result<(), FrameEncodeError> {
        let end_stream_flag = |end: bool| if end { FLAG_END_STREAM } else { 0 };
        let (payload_len, flags) = match self {
            Frame::Data {
                len, end_stream, ..
            } => (*len as usize, end_stream_flag(*end_stream)),
            Frame::Headers {
                block, end_stream, ..
            } => (block.len(), FLAG_END_HEADERS | end_stream_flag(*end_stream)),
            Frame::Priority { .. } => (5, 0),
            Frame::RstStream { .. } | Frame::WindowUpdate { .. } => (4, 0),
            Frame::Settings { ack: true, .. } => (0, FLAG_ACK),
            Frame::Settings { params, .. } => (params.len() * 6, 0),
            Frame::Ping { ack } => (8, if *ack { FLAG_ACK } else { 0 }),
            Frame::GoAway { .. } => (8, 0),
            Frame::PushPromise { block, .. } => (4 + block.len(), FLAG_END_HEADERS),
        };
        if payload_len > MAX_FRAME_PAYLOAD {
            return Err(FrameEncodeError { payload_len });
        }
        out.reserve(FRAME_HEADER_LEN + payload_len);
        let len = payload_len as u32;
        out.put_u8((len >> 16) as u8);
        out.put_u8((len >> 8) as u8);
        out.put_u8(len as u8);
        out.put_u8(self.frame_type() as u8);
        out.put_u8(flags);
        out.put_u32(self.stream_id().0 & 0x7fff_ffff);
        match self {
            Frame::Data { len, .. } => out.put_zeros(*len as usize),
            Frame::Headers { block, .. } => out.extend_from_slice(block),
            Frame::Priority {
                dependency, weight, ..
            } => {
                out.put_u32(*dependency);
                out.put_u8(*weight);
            }
            Frame::RstStream { error, .. } => out.put_u32(*error as u32),
            Frame::Settings { ack, params } => {
                if !ack {
                    for (id, val) in params {
                        out.put_u16(*id);
                        out.put_u32(*val);
                    }
                }
            }
            Frame::Ping { .. } => out.put_zeros(8),
            Frame::GoAway { last_stream, error } => {
                out.put_u32(last_stream.0);
                out.put_u32(*error as u32);
            }
            Frame::WindowUpdate { increment, .. } => out.put_u32(*increment),
            Frame::PushPromise {
                promised, block, ..
            } => {
                out.put_u32(promised.0 & 0x7fff_ffff);
                out.extend_from_slice(block);
            }
        }
        Ok(())
    }

    /// Parses one complete frame from `bytes`.
    ///
    /// Returns the frame and the number of bytes consumed, or `None` if
    /// `bytes` does not hold a complete, well-formed frame.
    pub fn decode(bytes: &[u8]) -> Option<(Frame, usize)> {
        if bytes.len() < FRAME_HEADER_LEN {
            return None;
        }
        let len = ((bytes[0] as usize) << 16) | ((bytes[1] as usize) << 8) | bytes[2] as usize;
        let ty = FrameType::from_byte(bytes[3])?;
        let flags = bytes[4];
        let stream =
            StreamId(u32::from_be_bytes([bytes[5], bytes[6], bytes[7], bytes[8]]) & 0x7fff_ffff);
        let total = FRAME_HEADER_LEN + len;
        if bytes.len() < total {
            return None;
        }
        let payload = &bytes[FRAME_HEADER_LEN..total];
        let frame = match ty {
            FrameType::Data => Frame::Data {
                stream,
                len: len as u32,
                end_stream: flags & FLAG_END_STREAM != 0,
            },
            FrameType::Headers => Frame::Headers {
                stream,
                block: Bytes::copy_from_slice(payload),
                end_stream: flags & FLAG_END_STREAM != 0,
            },
            FrameType::Priority => {
                if payload.len() != 5 {
                    return None;
                }
                Frame::Priority {
                    stream,
                    dependency: u32::from_be_bytes(payload[0..4].try_into().ok()?),
                    weight: payload[4],
                }
            }
            FrameType::RstStream => {
                if payload.len() != 4 {
                    return None;
                }
                Frame::RstStream {
                    stream,
                    error: ErrorCode::from_u32(u32::from_be_bytes(payload.try_into().ok()?)),
                }
            }
            FrameType::Settings => {
                let ack = flags & FLAG_ACK != 0;
                if !payload.len().is_multiple_of(6) {
                    return None;
                }
                let params = payload
                    .chunks_exact(6)
                    .map(|c| {
                        (
                            u16::from_be_bytes([c[0], c[1]]),
                            u32::from_be_bytes([c[2], c[3], c[4], c[5]]),
                        )
                    })
                    .collect();
                Frame::Settings { ack, params }
            }
            FrameType::Ping => Frame::Ping {
                ack: flags & FLAG_ACK != 0,
            },
            FrameType::GoAway => {
                if payload.len() < 8 {
                    return None;
                }
                Frame::GoAway {
                    last_stream: StreamId(
                        u32::from_be_bytes(payload[0..4].try_into().ok()?) & 0x7fff_ffff,
                    ),
                    error: ErrorCode::from_u32(u32::from_be_bytes(payload[4..8].try_into().ok()?)),
                }
            }
            FrameType::WindowUpdate => {
                if payload.len() != 4 {
                    return None;
                }
                Frame::WindowUpdate {
                    stream,
                    increment: u32::from_be_bytes(payload.try_into().ok()?),
                }
            }
            FrameType::PushPromise => {
                if payload.len() < 4 {
                    return None;
                }
                Frame::PushPromise {
                    stream,
                    promised: StreamId(
                        u32::from_be_bytes(payload[0..4].try_into().ok()?) & 0x7fff_ffff,
                    ),
                    block: Bytes::copy_from_slice(&payload[4..]),
                }
            }
        };
        Some((frame, total))
    }
}

impl fmt::Display for Frame {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Frame::Data {
                stream,
                len,
                end_stream,
            } => {
                write!(
                    f,
                    "DATA[{stream} len={len}{}]",
                    if *end_stream { " ES" } else { "" }
                )
            }
            Frame::Headers {
                stream,
                block,
                end_stream,
            } => write!(
                f,
                "HEADERS[{stream} len={}{}]",
                block.len(),
                if *end_stream { " ES" } else { "" }
            ),
            Frame::Priority { stream, .. } => write!(f, "PRIORITY[{stream}]"),
            Frame::RstStream { stream, error } => write!(f, "RST_STREAM[{stream} {error:?}]"),
            Frame::Settings { ack, .. } => write!(f, "SETTINGS[ack={ack}]"),
            Frame::Ping { ack } => write!(f, "PING[ack={ack}]"),
            Frame::GoAway { last_stream, .. } => write!(f, "GOAWAY[last={last_stream}]"),
            Frame::WindowUpdate { stream, increment } => {
                write!(f, "WINDOW_UPDATE[{stream} +{increment}]")
            }
            Frame::PushPromise {
                stream, promised, ..
            } => {
                write!(f, "PUSH_PROMISE[{stream} -> {promised}]")
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use h2priv_util::check::{self, Gen};

    fn roundtrip(f: Frame) {
        let enc = f.encode().expect("encodes");
        let (dec, used) = Frame::decode(&enc).expect("decodes");
        assert_eq!(used, enc.len());
        assert_eq!(dec, f);
    }

    #[test]
    fn roundtrip_all_types() {
        roundtrip(Frame::Data {
            stream: StreamId(5),
            len: 1234,
            end_stream: true,
        });
        roundtrip(Frame::Headers {
            stream: StreamId(1),
            block: Bytes::from_static(b"\x82\x87hello"),
            end_stream: false,
        });
        roundtrip(Frame::Priority {
            stream: StreamId(3),
            dependency: 0x8000_0001,
            weight: 200,
        });
        roundtrip(Frame::RstStream {
            stream: StreamId(7),
            error: ErrorCode::Cancel,
        });
        roundtrip(Frame::Settings {
            ack: false,
            params: vec![(3, 100), (4, 65_535)],
        });
        roundtrip(Frame::Settings {
            ack: true,
            params: vec![],
        });
        roundtrip(Frame::Ping { ack: true });
        roundtrip(Frame::GoAway {
            last_stream: StreamId(9),
            error: ErrorCode::NoError,
        });
        roundtrip(Frame::WindowUpdate {
            stream: StreamId(0),
            increment: 1 << 20,
        });
        roundtrip(Frame::PushPromise {
            stream: StreamId(5),
            promised: StreamId(2),
            block: Bytes::from_static(b"\x82\x87promise"),
        });
    }

    #[test]
    fn decode_partial_returns_none() {
        let enc = Frame::Data {
            stream: StreamId(1),
            len: 100,
            end_stream: false,
        }
        .encode()
        .expect("encodes");
        assert!(Frame::decode(&enc[..enc.len() - 1]).is_none());
        assert!(Frame::decode(&enc[..4]).is_none());
    }

    #[test]
    fn decode_consumes_exact_length_with_trailing_bytes() {
        let enc = Frame::Ping { ack: false }.encode().expect("encodes");
        let mut buf = enc.to_vec();
        buf.extend_from_slice(&[1, 2, 3]);
        let (f, used) = Frame::decode(&buf).unwrap();
        assert_eq!(f, Frame::Ping { ack: false });
        assert_eq!(used, enc.len());
    }

    #[test]
    fn data_wire_size_is_header_plus_len() {
        let enc = Frame::Data {
            stream: StreamId(1),
            len: 2048,
            end_stream: false,
        }
        .encode()
        .expect("encodes");
        assert_eq!(enc.len(), FRAME_HEADER_LEN + 2048);
    }

    #[test]
    fn unknown_type_rejected() {
        let mut enc = Frame::Ping { ack: false }
            .encode()
            .expect("encodes")
            .to_vec();
        enc[3] = 0x9; // CONTINUATION unsupported in the model
        assert!(Frame::decode(&enc).is_none());
    }

    #[test]
    fn data_roundtrip_any_len() {
        check::run("data_roundtrip_any_len", 512, |g: &mut Gen| {
            let len = g.u32(0, 19_999);
            let stream = g.u32(1, 999);
            let es = g.bool(0.5);
            roundtrip(Frame::Data {
                stream: StreamId(stream),
                len,
                end_stream: es,
            });
        });
    }

    #[test]
    fn payload_roundtrips_at_length_field_boundaries() {
        // DATA lengths straddling the u16 boundary and up to the 24-bit
        // maximum must round-trip exactly; one past the maximum must be
        // an encode error, not a silent truncation to `len & 0xffffff`.
        for len in [(1u32 << 16) - 1, 1 << 16, (1 << 24) - 1] {
            roundtrip(Frame::Data {
                stream: StreamId(1),
                len,
                end_stream: false,
            });
        }
        let err = Frame::Data {
            stream: StreamId(1),
            len: 1 << 24,
            end_stream: false,
        }
        .encode()
        .expect_err("2^24-byte payload exceeds the length field");
        assert_eq!(err.payload_len, 1 << 24);
    }

    #[test]
    fn oversized_data_is_rejected_before_anything_is_written() {
        // The length is checked before a payload exists: a 4 GiB DATA
        // frame errors without touching the output buffer, neither its
        // bytes nor its capacity.
        let mut out = BytesMut::with_capacity(64);
        out.put_u8(0xab);
        let cap = out.capacity();
        for len in [1 << 24, u32::MAX] {
            let err = Frame::Data {
                stream: StreamId(1),
                len,
                end_stream: true,
            }
            .encode_into(&mut out)
            .expect_err("payload exceeds the length field");
            assert_eq!(err.payload_len, len as usize);
            assert_eq!(&out[..], &[0xab]);
            assert_eq!(out.capacity(), cap);
        }
    }

    #[test]
    fn oversized_header_block_is_an_encode_error() {
        // A HEADERS block of exactly MAX_FRAME_PAYLOAD encodes; one byte
        // more errors. Before the guard this truncated the length field.
        roundtrip(Frame::Headers {
            stream: StreamId(1),
            block: Bytes::from(vec![0x82u8; MAX_FRAME_PAYLOAD]),
            end_stream: false,
        });
        let err = Frame::Headers {
            stream: StreamId(1),
            block: Bytes::from(vec![0x82u8; MAX_FRAME_PAYLOAD + 1]),
            end_stream: false,
        }
        .encode()
        .expect_err("oversized block must not truncate");
        assert_eq!(err.payload_len, MAX_FRAME_PAYLOAD + 1);
        // PUSH_PROMISE adds 4 bytes of promised-stream id to the block.
        let err = Frame::PushPromise {
            stream: StreamId(1),
            promised: StreamId(2),
            block: Bytes::from(vec![0x82u8; MAX_FRAME_PAYLOAD]),
        }
        .encode()
        .expect_err("promised-id prefix pushes the payload past the cap");
        assert_eq!(err.payload_len, MAX_FRAME_PAYLOAD + 4);
    }

    #[test]
    fn settings_roundtrip() {
        check::run("settings_roundtrip", 512, |g: &mut Gen| {
            let n = g.usize(0, 7);
            let params: Vec<(u16, u32)> = (0..n)
                .map(|_| (g.u16(0, u16::MAX), g.u32(0, u32::MAX)))
                .collect();
            roundtrip(Frame::Settings { ack: false, params });
        });
    }
}
