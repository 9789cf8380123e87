//! Robustness tests for the protocol codecs and the frame scheduler:
//! arbitrary bytes must never panic the decoders, and the scheduler must
//! preserve per-stream order and conserve frames under random workloads.

use h2priv_h2::conn::OutputScheduler;
use h2priv_h2::frame::Frame;
use h2priv_h2::hpack;
use h2priv_h2::stream::StreamId;
use h2priv_tls::RecordTag;
use h2priv_util::bytes::BytesMut;
use h2priv_util::check::{self, Gen};
use h2priv_util::{prop_assert, prop_assert_eq};

/// Frame decoding of arbitrary bytes never panics, and on success
/// reports a consumed length within the buffer.
#[test]
fn frame_decode_never_panics() {
    check::run("frame_decode_never_panics", 256, |g: &mut Gen| {
        let bytes = g.bytes(127);
        if let Some((_, used)) = Frame::decode(&bytes) {
            prop_assert!(used <= bytes.len());
            prop_assert!(used >= 9);
        }
    });
}

/// HPACK decoding of arbitrary bytes never panics.
#[test]
fn hpack_decode_never_panics() {
    check::run("hpack_decode_never_panics", 256, |g: &mut Gen| {
        let bytes = g.bytes(95);
        let _ = hpack::decode(&bytes);
    });
}

/// Any frame that encodes must decode to itself even with trailing
/// garbage appended (streams carry back-to-back frames).
#[test]
fn frame_roundtrip_with_trailing_garbage() {
    check::run(
        "frame_roundtrip_with_trailing_garbage",
        256,
        |g: &mut Gen| {
            let stream = g.u32(1, 99);
            let len = g.u32(0, 1_999);
            let es = g.bool(0.5);
            let garbage = g.bytes(15);
            let f = Frame::Data {
                stream: StreamId(stream),
                len,
                end_stream: es,
            };
            let mut buf = f.encode().expect("encodes").to_vec();
            let framed = buf.len();
            buf.extend_from_slice(&garbage);
            let (decoded, used) = Frame::decode(&buf).expect("well-formed prefix");
            prop_assert_eq!(used, framed);
            prop_assert_eq!(decoded, f);
        },
    );
}

/// The output scheduler conserves frames, preserves per-stream FIFO
/// order, and never emits a DATA frame larger than the window given.
#[test]
fn scheduler_conserves_and_orders() {
    check::run("scheduler_conserves_and_orders", 256, |g: &mut Gen| {
        let n = g.usize(1, 63);
        let ops: Vec<(u32, u32)> = (0..n).map(|_| (g.u32(1, 7), g.u32(1, 4_999))).collect();
        let window = g.u64(1_000, 19_999);
        let mut sched = OutputScheduler::new();
        for (stream, len) in &ops {
            sched.enqueue(
                Frame::Data {
                    stream: StreamId(*stream * 2 + 1),
                    len: *len,
                    end_stream: false,
                },
                RecordTag::NONE,
            );
        }
        let mut popped: Vec<(u32, u32)> = Vec::new();
        // Pop with a fixed window; frames above it must stay queued.
        while let Some(qf) = sched.pop_next(window) {
            match qf.frame {
                Frame::Data { stream, len, .. } => {
                    prop_assert!(len as u64 <= window, "window violated");
                    popped.push((stream.0, len));
                }
                _ => unreachable!("only DATA enqueued"),
            }
        }
        // Everything that fits was popped; the rest is exactly the
        // oversized frames and anything behind them on their stream.
        let fits = |l: u32| l as u64 <= window;
        let mut expected_remaining = 0u64;
        let mut blocked: std::collections::HashSet<u32> = Default::default();
        for (stream, len) in &ops {
            let sid = *stream * 2 + 1;
            if blocked.contains(&sid) || !fits(*len) {
                blocked.insert(sid);
                expected_remaining += *len as u64;
            }
        }
        prop_assert_eq!(sched.queued_data_bytes(), expected_remaining);
        // Per-stream relative order must match enqueue order.
        for sid in popped
            .iter()
            .map(|(s, _)| *s)
            .collect::<std::collections::HashSet<_>>()
        {
            let enq: Vec<u32> = ops
                .iter()
                .filter(|(s, _)| s * 2 + 1 == sid)
                .map(|(_, l)| *l)
                .collect();
            let got: Vec<u32> = popped
                .iter()
                .filter(|(s, _)| *s == sid)
                .map(|(_, l)| *l)
                .collect();
            prop_assert_eq!(&enq[..got.len()], &got[..], "per-stream FIFO violated");
        }
    });
}

fn request_block(authority: &str, path: &str) -> BytesMut {
    let mut block = BytesMut::new();
    hpack::encode_request_into(&mut block, authority, path);
    block
}

/// Request header blocks of arbitrary (printable) paths round-trip.
#[test]
fn request_roundtrip_any_path() {
    check::run("request_roundtrip_any_path", 256, |g: &mut Gen| {
        const PATH_CHARS: &[u8] =
            b"abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789/._-";
        let mut path = String::from("/");
        for _ in 0..g.usize(0, 80) {
            path.push(char::from(*g.choose(PATH_CHARS)));
        }
        let block = request_block("example.org", &path);
        let req = hpack::decode_request_ref(&block).expect("round-trips");
        prop_assert_eq!(req.path, path);
        prop_assert_eq!(req.authority, "example.org");
    });
}

/// Response blocks round-trip any content length.
#[test]
fn response_roundtrip_any_length() {
    check::run("response_roundtrip_any_length", 256, |g: &mut Gen| {
        let len = g.u64(0, u64::MAX);
        let mut block = BytesMut::new();
        hpack::encode_response_into(&mut block, len, "image/png");
        let resp = hpack::decode_response(&block).expect("round-trips");
        prop_assert_eq!(resp.content_length, Some(len));
    });
}

#[test]
fn scheduler_interleaving_is_fair_round_robin() {
    // Three streams with 4 frames each: the drain pattern must cycle
    // a,b,c,a,b,c...
    let mut sched = OutputScheduler::new();
    for i in 0..4u32 {
        for s in [1u32, 3, 5] {
            sched.enqueue(
                Frame::Data {
                    stream: StreamId(s),
                    len: 100 + i,
                    end_stream: false,
                },
                RecordTag::NONE,
            );
        }
    }
    let order: Vec<u32> = std::iter::from_fn(|| sched.pop_next(u64::MAX))
        .map(|qf| qf.frame.stream_id().0)
        .collect();
    assert_eq!(order, vec![1, 3, 5, 1, 3, 5, 1, 3, 5, 1, 3, 5]);
}

#[test]
fn hpack_rejects_truncated_blocks_gracefully() {
    let block = request_block("example.org", "/index.html");
    for cut in 1..block.len() {
        // Truncations must never panic; most are invalid, some may
        // decode to a shorter header list.
        let _ = hpack::decode(&block[..cut]);
    }
}

#[test]
fn settings_frame_with_many_params_roundtrips() {
    let params: Vec<(u16, u32)> = (0..32).map(|i| (i as u16, i as u32 * 1000)).collect();
    let f = Frame::Settings {
        ack: false,
        params: params.clone(),
    };
    let enc = f.encode().expect("encodes");
    let (dec, _) = Frame::decode(&enc).expect("decodes");
    match dec {
        Frame::Settings { ack, params: p } => {
            assert!(!ack);
            assert_eq!(p, params);
        }
        other => panic!("wrong frame {other:?}"),
    }
}

#[test]
fn data_frame_payload_is_zeroed_synthetic_bytes() {
    let f = Frame::Data {
        stream: StreamId(9),
        len: 64,
        end_stream: false,
    };
    let enc = f.encode().expect("encodes");
    assert_eq!(enc.len(), 9 + 64);
    assert!(
        enc[9..].iter().all(|b| *b == 0),
        "synthetic payload must be zeros"
    );
}

#[test]
fn hpack_block_sizes_separate_gets_from_control_frames() {
    // The monitor's GET heuristic depends on this separation: a GET
    // record body must far exceed any control frame's.
    let get = request_block("www.isidewith.com", "/results/2020");
    let get_record_body = get.len() + 9 + 16; // frame hdr + AEAD tag
    let wu = Frame::WindowUpdate {
        stream: StreamId(0),
        increment: 1,
    }
    .encode()
    .expect("encodes");
    let wu_record_body = wu.len() + 16;
    assert!(get_record_body >= 120, "GET body {get_record_body}");
    assert!(wu_record_body <= 40, "control body {wu_record_body}");
}

#[test]
fn clear_stream_then_reenqueue_works() {
    let mut sched = OutputScheduler::new();
    sched.enqueue(
        Frame::Data {
            stream: StreamId(1),
            len: 10,
            end_stream: false,
        },
        RecordTag::NONE,
    );
    assert_eq!(sched.clear_stream(StreamId(1)), 10);
    assert!(sched.is_empty());
    sched.enqueue(
        Frame::Data {
            stream: StreamId(1),
            len: 20,
            end_stream: true,
        },
        RecordTag::NONE,
    );
    let qf = sched.pop_next(u64::MAX).expect("re-enqueued frame");
    assert!(matches!(qf.frame, Frame::Data { len: 20, .. }));
}
