//! Property tests for the adversary's measurement stack: the capture's
//! streaming TLS-record reader must recover the exact record sequence from
//! any packet segmentation (with loss, duplication, reordering, re-cut
//! retransmissions and policy drops), and must read the same records, at
//! the same times, as the batch reassembler it replaced, kept below as
//! the oracle.

use h2priv_netsim::capture::{CaptureEvent, CaptureSink};
use h2priv_netsim::packet::{Direction, FlowId, HostAddr, Packet, TcpFlags, TcpHeader};
use h2priv_netsim::time::SimTime;
use h2priv_tls::{ContentType, RecordSealer, RecordTag};
use h2priv_trace::capture::{Trace, TraceCollector};
use h2priv_trace::reassembly::SeenRecord;
use h2priv_util::bytes::Bytes;
use h2priv_util::check::{self, Gen};
use h2priv_util::{prop_assert, prop_assert_eq};

/// One captured packet with its payload bytes, which the capture itself
/// does not keep.
#[derive(Debug, Clone)]
struct Seg {
    time: SimTime,
    direction: Direction,
    header: TcpHeader,
    payload: Vec<u8>,
    dropped_by_policy: bool,
}

fn tcp(dir: Direction, seq: u32, syn: bool) -> TcpHeader {
    let (src, dst, sport, dport) = match dir {
        Direction::ClientToServer => (1, 2, 40_000, 443),
        Direction::ServerToClient => (2, 1, 443, 40_000),
    };
    TcpHeader {
        flow: FlowId {
            src: HostAddr(src),
            dst: HostAddr(dst),
            sport,
            dport,
        },
        seq,
        ack: 0,
        flags: if syn {
            TcpFlags::SYN_ACK
        } else {
            TcpFlags::ACK
        },
        window: 65_535,
        ts_val: 0,
        ts_ecr: 0,
    }
}

fn seg(seq: u32, payload: &[u8], t_ms: u64, syn: bool) -> Seg {
    Seg {
        time: SimTime::from_millis(t_ms),
        direction: Direction::ServerToClient,
        header: tcp(Direction::ServerToClient, seq, syn),
        payload: payload.to_vec(),
        dropped_by_policy: false,
    }
}

/// Runs `packets` through a [`TraceCollector`], as the middlebox does.
fn capture(packets: &[Seg]) -> Trace {
    let mut c = TraceCollector::new();
    for p in packets {
        let pkt = Packet::new(p.header, Bytes::copy_from_slice(&p.payload));
        c.record(&CaptureEvent {
            time: p.time,
            direction: p.direction,
            packet: &pkt,
            dropped_by_policy: p.dropped_by_policy,
        });
    }
    c.take_trace()
}

/// The batch reassembler the capture's streaming reader replaced, kept as
/// the oracle: it copied every payload into one buffer at its stream
/// offset, tracked the covered byte ranges in an interval map, and parsed
/// records out of the contiguous prefix after each packet with new bytes.
mod batch {
    use super::Seg;
    use h2priv_netsim::packet::Direction;
    use h2priv_tls::record::{RecordHeader, AEAD_TAG_LEN, RECORD_HEADER_LEN};
    use h2priv_trace::reassembly::SeenRecord;
    use std::collections::BTreeMap;

    /// The reassembled view of one direction of the connection.
    #[derive(Debug, Default)]
    pub struct StreamView {
        pub records: Vec<SeenRecord>,
        /// Data segments carrying already-seen bytes.
        pub retransmitted_segments: u64,
        /// Distinct stream bytes observed.
        pub unique_bytes: u64,
        pub desynced: bool,
    }

    pub fn reassemble(packets: &[Seg], dir: Direction, include_policy_dropped: bool) -> StreamView {
        let in_direction = || packets.iter().filter(move |p| p.direction == dir);
        let mut view = StreamView::default();
        // Initial sequence number: from the SYN if captured, else the
        // first data segment.
        let mut base: Option<u32> = None;
        for p in in_direction() {
            if p.header.flags.syn {
                base = Some(p.header.seq.wrapping_add(1));
                break;
            }
        }
        let mut assembled: Vec<u8> = Vec::new();
        // Covered intervals (start -> end), non-overlapping, merged.
        let mut covered: BTreeMap<u64, u64> = BTreeMap::new();
        let mut parse_ptr: u64 = 0;
        let mut desynced = false;
        for p in in_direction() {
            if p.payload.is_empty() {
                continue;
            }
            if p.dropped_by_policy && !include_policy_dropped {
                continue;
            }
            let base = *base.get_or_insert(p.header.seq);
            let off = p.header.seq.wrapping_sub(base) as u64;
            let len = p.payload.len() as u64;
            let new_bytes = insert_interval(&mut covered, off, off + len);
            view.unique_bytes += new_bytes;
            if new_bytes == 0 {
                view.retransmitted_segments += 1;
                continue;
            }
            if new_bytes < len {
                view.retransmitted_segments += 1;
            }
            let end = (off + len) as usize;
            if assembled.len() < end {
                assembled.resize(end, 0);
            }
            assembled[off as usize..end].copy_from_slice(&p.payload);
            let contiguous_end = contiguous_prefix(&covered);
            if desynced {
                continue;
            }
            while parse_ptr + RECORD_HEADER_LEN as u64 <= contiguous_end {
                let hdr_bytes =
                    &assembled[parse_ptr as usize..parse_ptr as usize + RECORD_HEADER_LEN];
                let Some(hdr) = RecordHeader::decode(hdr_bytes) else {
                    desynced = true;
                    break;
                };
                let total = RECORD_HEADER_LEN as u64 + hdr.length as u64;
                if parse_ptr + total > contiguous_end {
                    break;
                }
                view.records.push(SeenRecord {
                    content_type: hdr.content_type.as_byte(),
                    body_len: hdr.length,
                    plaintext_len: hdr.length.saturating_sub(AEAD_TAG_LEN as u16),
                    stream_offset: parse_ptr,
                    completed_at: p.time,
                });
                parse_ptr += total;
            }
        }
        view.desynced = desynced;
        view
    }

    /// Inserts `[start, end)` into the interval map, merging as needed.
    /// Returns the number of newly covered bytes.
    fn insert_interval(map: &mut BTreeMap<u64, u64>, start: u64, end: u64) -> u64 {
        if start >= end {
            return 0;
        }
        let mut new_start = start;
        let mut new_end = end;
        let mut newly = end - start;
        while let Some((&s, &e)) = map.range(..=new_end).next_back() {
            if e < new_start {
                break;
            }
            newly -= overlap_len(new_start.max(s), new_end.min(e), s, e);
            new_start = new_start.min(s);
            new_end = new_end.max(e);
            map.remove(&s);
        }
        map.insert(new_start, new_end);
        newly
    }

    fn overlap_len(a: u64, b: u64, s: u64, e: u64) -> u64 {
        let lo = a.max(s);
        let hi = b.min(e);
        hi.saturating_sub(lo)
    }

    fn contiguous_prefix(map: &BTreeMap<u64, u64>) -> u64 {
        match map.first_key_value() {
            Some((&0, &end)) => end,
            _ => 0,
        }
    }
}

/// Seals records of random types and sizes into one direction's stream.
fn sealed_stream(g: &mut Gen) -> (Vec<u8>, Vec<usize>) {
    const TYPES: [ContentType; 4] = [
        ContentType::ChangeCipherSpec,
        ContentType::Alert,
        ContentType::Handshake,
        ContentType::ApplicationData,
    ];
    let mut sealer = RecordSealer::new();
    let mut stream = Vec::new();
    let mut starts = Vec::new();
    for _ in 0..g.usize(1, 12) {
        let ct = if g.bool(0.7) {
            ContentType::ApplicationData
        } else {
            *g.choose(&TYPES)
        };
        let len = if g.bool(0.1) { 0 } else { g.usize(1, 3_000) };
        starts.push(stream.len());
        stream.extend_from_slice(&sealer.seal(ct, &vec![0u8; len], RecordTag::NONE));
    }
    (stream, starts)
}

/// One direction's capture, in capture order but without times: a SYN,
/// then the stream cut into segments, some lost for good (gaps never
/// filled), some dropped by the adversary's policy, some duplicated, and
/// some retransmitted later, re-cut to a different byte range. One case in
/// three sends a shorter and a longer segment at the same offset while a
/// gap lies before them. Neighbours are then swapped at random.
///
/// No data precedes the SYN and no SYN is policy-dropped: a receiver never
/// sees such bytes, so the streaming reader ignores them, while the batch
/// code read them.
fn direction_capture(g: &mut Gen, dir: Direction) -> Vec<Seg> {
    let isn = if g.bool(0.2) {
        u32::MAX - g.u32(0, 6_000)
    } else {
        g.u32(0, u32::MAX)
    };
    let (mut stream, starts) = sealed_stream(g);
    if g.bool(0.25) {
        // A header whose content type no record has.
        let at = *g.choose(&starts);
        stream[at] = *g.choose(&[0u8, 19, 24, 0xFF]);
    }
    if g.bool(0.1) {
        let at = g.usize(0, stream.len() - 1);
        stream[at] ^= g.u8(1, u8::MAX);
    }
    let end = stream.len();
    let mss = g.usize(1, 1_460);
    let mut cuts = Vec::new();
    let mut off = 0;
    while off < end {
        let len = if g.bool(0.7) { mss } else { g.usize(1, 1_460) };
        cuts.push((off, (off + len).min(end)));
        off += len;
    }

    // (position in send order, start, end, dropped by policy)
    let mut sends: Vec<(usize, usize, usize, bool)> = Vec::new();
    let late = |g: &mut Gen, i: usize| i * 8 + g.usize(9, 70);
    let pair = if g.bool(1.0 / 3.0) && cuts.len() >= 2 {
        Some(g.usize(1, cuts.len() - 1))
    } else {
        None
    };
    for (i, &(s, e)) in cuts.iter().enumerate() {
        let at = i * 8;
        if pair == Some(i) {
            // Shorter and longer at one offset, ahead of the gap the
            // previous segment left (it is retransmitted after both).
            let short = (s + g.usize(1, e - s)).min(e);
            let long = cuts.get(i + 1).map_or(e, |c| g.usize(e, c.1));
            let (first, second) = if g.bool(0.5) {
                (short, long)
            } else {
                (long, short)
            };
            sends.push((at, s, first, false));
            sends.push((at + 1, s, second, false));
            continue;
        }
        let lost = pair == Some(i + 1) || g.bool(0.15);
        let dropped = !lost && g.bool(0.08);
        if !lost {
            sends.push((at, s, e, dropped));
        }
        if pair != Some(i + 1) && g.bool(0.08) {
            sends.push((at + g.usize(1, 30), s, e, false));
        }
        if pair == Some(i + 1) || ((lost || dropped) && g.bool(0.7)) {
            let (rs, re) = match g.usize(0, 3) {
                0 => (s, e),
                1 => (s, cuts.get(i + 1).map_or(e, |c| c.1)),
                2 => (s + (e - s) / 2, e),
                _ => (s, s + (e - s).div_ceil(2)),
            };
            let at = if pair == Some(i + 1) {
                (i + 1) * 8 + 2 + g.usize(0, 20)
            } else {
                late(g, i)
            };
            sends.push((at, rs, re, g.bool(0.05)));
        }
    }
    sends.sort_by_key(|s| s.0);
    let mut out = vec![Seg {
        time: SimTime::ZERO,
        direction: dir,
        header: tcp(dir, isn, true),
        payload: Vec::new(),
        dropped_by_policy: false,
    }];
    for (_, s, e, dropped) in sends {
        out.push(Seg {
            time: SimTime::ZERO,
            direction: dir,
            header: tcp(dir, isn.wrapping_add(1).wrapping_add(s as u32), false),
            payload: stream[s..e].to_vec(),
            dropped_by_policy: dropped,
        });
        if g.bool(0.02) {
            // A retransmitted SYN.
            out.push(Seg {
                payload: Vec::new(),
                header: tcp(dir, isn, true),
                ..out[0].clone()
            });
        }
    }
    for i in 2..out.len() {
        if g.bool(0.1) {
            out.swap(i - 1, i);
        }
    }
    out
}

/// The streaming reader and the batch oracle read the same records, with
/// the same completion times and offsets, and agree on `desynced`, in both
/// directions of a random two-way capture.
#[test]
fn streaming_records_match_the_batch_oracle() {
    check::run(
        "streaming_records_match_the_batch_oracle",
        512,
        |g: &mut Gen| {
            let mut c2s = direction_capture(g, Direction::ClientToServer);
            let mut s2c = direction_capture(g, Direction::ServerToClient);
            c2s.reverse();
            s2c.reverse();
            let mut packets = Vec::new();
            let mut t = 0;
            while let Some(next) = if g.bool(0.5) {
                c2s.pop().or_else(|| s2c.pop())
            } else {
                s2c.pop().or_else(|| c2s.pop())
            } {
                t += g.u64(0, 2);
                packets.push(Seg {
                    time: SimTime::from_millis(t),
                    ..next
                });
            }
            let trace = capture(&packets);
            for dir in [Direction::ClientToServer, Direction::ServerToClient] {
                let want = batch::reassemble(&packets, dir, false);
                let got = trace.stream(dir);
                prop_assert_eq!(got.records(), &want.records[..], "{dir} records");
                prop_assert_eq!(got.desynced(), want.desynced, "{dir} desynced");
            }
        },
    );
}

/// Seal a random sequence of records, chop the stream into random
/// segments, optionally duplicate and shuffle them — reassembly must
/// recover exactly the sealed record sequence.
#[test]
fn reassembly_recovers_records_from_any_segmentation() {
    check::run(
        "reassembly_recovers_records_from_any_segmentation",
        48,
        |g: &mut Gen| {
            let lens: Vec<u16> = (0..g.usize(1, 11)).map(|_| g.u16(1, 2_999)).collect();
            let cuts: Vec<usize> = (0..g.usize(1, 23)).map(|_| g.usize(1, 1_399)).collect();
            let dup_every = g.usize(2, 5);
            let shuffle_seed = g.u64(0, 999);
            let mut sealer = RecordSealer::new();
            let mut stream = Vec::new();
            for (i, len) in lens.iter().enumerate() {
                let ct = if i % 3 == 0 {
                    ContentType::Handshake
                } else {
                    ContentType::ApplicationData
                };
                stream.extend_from_slice(&sealer.seal(
                    ct,
                    &vec![0u8; *len as usize],
                    RecordTag::NONE,
                ));
            }
            // Chop into segments at pseudo-random sizes.
            let mut packets = vec![seg(99, &[], 0, true)];
            let mut off = 0usize;
            let mut ci = 0usize;
            let mut t = 1u64;
            while off < stream.len() {
                let take = cuts[ci % cuts.len()].min(stream.len() - off);
                ci += 1;
                packets.push(seg(100 + off as u32, &stream[off..off + take], t, false));
                // Duplicate some segments (retransmissions).
                if ci.is_multiple_of(dup_every) {
                    packets.push(seg(
                        100 + off as u32,
                        &stream[off..off + take],
                        t + 1,
                        false,
                    ));
                }
                off += take;
                t += 1;
            }
            // Mild deterministic shuffle: swap adjacent pairs by seed parity.
            if shuffle_seed.is_multiple_of(2) && packets.len() > 3 {
                let n = packets.len();
                packets.swap(n - 1, n - 2);
            }
            let trace = capture(&packets);
            let stream_view = trace.stream(Direction::ServerToClient);
            prop_assert_eq!(stream_view.records().len(), lens.len(), "record count");
            let got: Vec<u16> = stream_view
                .records()
                .iter()
                .map(|r| r.plaintext_len)
                .collect();
            prop_assert_eq!(got, lens.clone());
            prop_assert!(!stream_view.desynced());
            prop_assert_eq!(stream_view.contiguous_end(), stream.len() as u64);
        },
    );
}

/// Retransmitted-only segments never inflate the record sequence; the
/// oracle counts them.
#[test]
fn duplicates_counted_not_delivered() {
    check::run("duplicates_counted_not_delivered", 48, |g: &mut Gen| {
        let times = g.usize(1, 5);
        let mut sealer = RecordSealer::new();
        let wire = sealer.seal(ContentType::ApplicationData, &[0u8; 700], RecordTag::NONE);
        let mut packets = vec![seg(99, &[], 0, true)];
        for i in 0..=times {
            packets.push(seg(100, &wire, 1 + i as u64, false));
        }
        let records = capture(&packets)
            .stream(Direction::ServerToClient)
            .records()
            .to_vec();
        prop_assert_eq!(records.len(), 1);
        prop_assert_eq!(records[0].completed_at, SimTime::from_millis(1));
        let oracle = batch::reassemble(&packets, Direction::ServerToClient, false);
        prop_assert_eq!(oracle.retransmitted_segments, times as u64);
        prop_assert_eq!(oracle.unique_bytes, wire.len() as u64);
        prop_assert_eq!(oracle.records, records);
    });
}

#[test]
fn reassembly_is_insensitive_to_out_of_order_bursts() {
    // Segments delivered fully reversed still reassemble (offsets drive
    // everything; timing only affects record completion times).
    let mut sealer = RecordSealer::new();
    let mut stream = Vec::new();
    for len in [400usize, 900, 50] {
        stream.extend_from_slice(&sealer.seal(
            ContentType::ApplicationData,
            &vec![7u8; len],
            RecordTag::NONE,
        ));
    }
    let mut packets = vec![seg(99, &[], 0, true)];
    let chunks: Vec<(usize, &[u8])> = stream.chunks(333).enumerate().collect();
    for (i, c) in chunks.iter().rev() {
        packets.push(seg(100 + (*i as u32) * 333, c, 10 + *i as u64, false));
    }
    let trace = capture(&packets);
    let records: &[SeenRecord] = trace.stream(Direction::ServerToClient).records();
    let lens: Vec<u16> = records.iter().map(|r| r.plaintext_len).collect();
    assert_eq!(lens, vec![400, 900, 50]);
    // The last packet (offset 0) completes every record.
    assert!(records
        .iter()
        .all(|r| r.completed_at == SimTime::from_millis(10)));
}
