//! TLS record extraction from one direction of a captured TCP connection,
//! as packets pass — what tshark's "follow stream" and SSL dissector do
//! for the paper's adversary, without keeping the stream's bytes.

use h2priv_netsim::packet::TcpHeader;
use h2priv_netsim::time::SimTime;
use h2priv_tls::record::{RecordHeader, AEAD_TAG_LEN, RECORD_HEADER_LEN};
use std::collections::BTreeMap;

/// One TLS record observed on the wire.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SeenRecord {
    /// Content type byte (23 = application data).
    pub content_type: u8,
    /// Ciphertext body length from the cleartext header.
    pub body_len: u16,
    /// Plaintext length (body minus AEAD tag) — the adversary knows the
    /// tag size from the negotiated cipher suite.
    pub plaintext_len: u16,
    /// Offset of the record header in the TCP stream.
    pub stream_offset: u64,
    /// When the monitor had seen the record's last byte.
    pub completed_at: SimTime,
}

impl SeenRecord {
    /// `true` for application-data records (the paper's
    /// `ssl.record.content_type == 23`).
    pub fn is_app_data(&self) -> bool {
        self.content_type == 23
    }

    /// Stream offset one past the record's last byte.
    fn end(&self) -> u64 {
        self.stream_offset + (RECORD_HEADER_LEN + usize::from(self.body_len)) as u64
    }
}

/// The TLS records of one direction of the (single) connection, read from
/// its segments in capture order.
///
/// The stream starts at the direction's SYN: stream offset 0 is the byte
/// after it, and bytes captured before it are ignored. A segment whose
/// bytes all passed already (a retransmission) is skipped. One that
/// arrives ahead of a gap is held, keyed by its offset (the longest
/// segment per offset), until the gap fills. Record headers are read from
/// the in-order bytes as they pass, and nothing else of them is kept. A
/// record is stamped with the time of the packet whose bytes finished it.
/// A header that fails to decode means the stream is corrupt: parsing
/// stops there, keeping the records read so far.
#[derive(Debug, Clone, Default)]
pub struct TlsStream {
    /// Sequence number of stream offset 0, once the SYN has passed.
    base: Option<u32>,
    /// End of the in-order bytes: every byte before it has passed.
    next: u64,
    /// Segments that arrived ahead of a gap, by stream offset.
    held: BTreeMap<u64, Vec<u8>>,
    /// Offset of the record header being read.
    header_at: u64,
    /// The bytes of that header read so far.
    header: [u8; RECORD_HEADER_LEN],
    header_len: usize,
    /// The record whose header was read but whose body has not passed.
    open: Option<SeenRecord>,
    records: Vec<SeenRecord>,
    desynced: bool,
}

impl TlsStream {
    /// Records in stream order.
    pub fn records(&self) -> &[SeenRecord] {
        &self.records
    }

    /// Application-data records only.
    pub fn app_records(&self) -> impl Iterator<Item = &SeenRecord> + '_ {
        self.records.iter().filter(|r| r.is_app_data())
    }

    /// Whether record parsing desynchronised (a corrupt header was seen).
    pub fn desynced(&self) -> bool {
        self.desynced
    }

    /// End of the contiguous stream prefix seen so far.
    pub fn contiguous_end(&self) -> u64 {
        self.next
    }

    /// Feeds one segment captured at `time`.
    pub(crate) fn push(&mut self, time: SimTime, tcp: &TcpHeader, payload: &[u8]) {
        if tcp.flags.syn && self.base.is_none() {
            self.base = Some(tcp.seq.wrapping_add(1));
        }
        let Some(base) = self.base else { return };
        if payload.is_empty() || self.desynced {
            return;
        }
        let off = u64::from(tcp.seq.wrapping_sub(base));
        if off + payload.len() as u64 <= self.next {
            return;
        }
        if off > self.next {
            let held = self.held.entry(off).or_default();
            if payload.len() > held.len() {
                held.clear();
                held.extend_from_slice(payload);
            }
            return;
        }
        self.read(&payload[(self.next - off) as usize..], time);
        while let Some(first) = self.held.first_entry() {
            if *first.key() > self.next {
                break;
            }
            let (off, bytes) = first.remove_entry();
            if off + bytes.len() as u64 > self.next {
                self.read(&bytes[(self.next - off) as usize..], time);
            }
        }
    }

    /// Drops the segments still held ahead of a gap: the capture is over.
    pub(crate) fn close(&mut self) {
        self.held = BTreeMap::new();
    }

    /// Reads the bytes starting at `self.next`, which finished passing at
    /// `time`.
    fn read(&mut self, bytes: &[u8], time: SimTime) {
        let start = self.next;
        self.next += bytes.len() as u64;
        while !self.desynced {
            if let Some(open) = self.open {
                if open.end() > self.next {
                    return;
                }
                self.records.push(SeenRecord {
                    completed_at: time,
                    ..open
                });
                self.open = None;
                self.header_at = open.end();
                self.header_len = 0;
            }
            let from = self.header_at + self.header_len as u64;
            if from >= self.next {
                return;
            }
            let at = (from - start) as usize;
            let take = (RECORD_HEADER_LEN - self.header_len).min(bytes.len() - at);
            self.header[self.header_len..self.header_len + take]
                .copy_from_slice(&bytes[at..at + take]);
            self.header_len += take;
            if self.header_len < RECORD_HEADER_LEN {
                return;
            }
            let Some(hdr) = RecordHeader::decode(&self.header) else {
                self.desynced = true;
                return;
            };
            self.open = Some(SeenRecord {
                content_type: hdr.content_type.as_byte(),
                body_len: hdr.length,
                plaintext_len: hdr.length.saturating_sub(AEAD_TAG_LEN as u16),
                stream_offset: self.header_at,
                completed_at: time,
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use h2priv_netsim::packet::{FlowId, HostAddr, TcpFlags, WIRE_OVERHEAD};
    use h2priv_tls::{ContentType, RecordSealer, RecordTag};
    use h2priv_util::check::{self, Gen};

    fn tcp(seq: u32, syn: bool) -> TcpHeader {
        TcpHeader {
            flow: FlowId {
                src: HostAddr(2),
                dst: HostAddr(1),
                sport: 443,
                dport: 40_000,
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

    /// A stream whose SYN-ACK (ISN 99) passed at 0 ms, so stream offset 0
    /// is seq 100.
    fn started() -> TlsStream {
        let mut s = TlsStream::default();
        s.push(SimTime::ZERO, &tcp(99, true), &[]);
        s
    }

    fn push(s: &mut TlsStream, seq: u32, payload: &[u8], t_ms: u64) {
        s.push(SimTime::from_millis(t_ms), &tcp(seq, false), payload);
    }

    fn sealed(sizes: &[usize]) -> Vec<u8> {
        let mut sealer = RecordSealer::new();
        let mut stream = Vec::new();
        for &size in sizes {
            stream.extend_from_slice(&sealer.seal(
                ContentType::ApplicationData,
                &vec![0u8; size],
                RecordTag::NONE,
            ));
        }
        stream
    }

    #[test]
    fn parses_records_split_across_segments() {
        let wire = sealed(&[3_000]);
        let mut s = started();
        for (i, chunk) in wire.chunks(1_460).enumerate() {
            push(&mut s, 100 + (i as u32) * 1_460, chunk, 1 + i as u64);
        }
        assert_eq!(s.records().len(), 1);
        assert_eq!(s.records()[0].plaintext_len, 3_000);
        assert_eq!(s.records()[0].completed_at, SimTime::from_millis(3));
        assert_eq!(s.contiguous_end(), wire.len() as u64);
    }

    #[test]
    fn counts_retransmissions_and_dedupes() {
        let wire = sealed(&[500]);
        let mut s = started();
        push(&mut s, 100, &wire, 1);
        push(&mut s, 100, &wire, 5); // full retransmission
        assert_eq!(s.records().len(), 1);
        assert_eq!(s.records()[0].completed_at, SimTime::from_millis(1));
        assert_eq!(s.contiguous_end(), wire.len() as u64);
    }

    #[test]
    fn out_of_order_segments_still_parse() {
        let wire = sealed(&[2_000]);
        let (a, b) = wire.split_at(1_000);
        let mut s = started();
        push(&mut s, 1_100, b, 1); // arrives first
        push(&mut s, 100, a, 2);
        assert_eq!(s.records().len(), 1);
        assert_eq!(s.records()[0].completed_at, SimTime::from_millis(2));
    }

    #[test]
    fn multiple_records_sequence() {
        let stream = sealed(&[100, 2_000, 50]);
        let mut s = started();
        for (i, c) in stream.chunks(1_460).enumerate() {
            push(&mut s, 100 + (i as u32) * 1_460, c, 1 + i as u64);
        }
        let lens: Vec<u16> = s.records().iter().map(|r| r.plaintext_len).collect();
        assert_eq!(lens, vec![100, 2_000, 50]);
        // Offsets are strictly increasing.
        assert!(s
            .records()
            .windows(2)
            .all(|w| w[0].stream_offset < w[1].stream_offset));
    }

    #[test]
    fn policy_dropped_packets_are_excluded_by_default() {
        use crate::capture::TraceCollector;
        use h2priv_netsim::capture::{CaptureEvent, CaptureSink};
        use h2priv_netsim::packet::{Direction, Packet};
        use h2priv_util::bytes::Bytes;

        let wire = sealed(&[100]);
        let mut c = TraceCollector::new();
        for (seq, syn, payload, dropped) in [
            (99, true, Vec::new(), false),
            (100, false, wire.clone(), true),
        ] {
            let pkt = Packet::new(tcp(seq, syn), Bytes::from(payload));
            c.record(&CaptureEvent {
                time: SimTime::from_millis(1),
                direction: Direction::ServerToClient,
                packet: &pkt,
                dropped_by_policy: dropped,
            });
        }
        let t = c.take_trace();
        assert!(t.stream(Direction::ServerToClient).records().is_empty());
        // The dropped packet is still in the capture.
        assert_eq!(t.packets[1].tcp_len(), wire.len() as u32);
        assert!(t.packets[1].dropped_by_policy);
    }

    #[test]
    fn bytes_before_the_syn_are_ignored() {
        let wire = sealed(&[300]);
        let mut s = TlsStream::default();
        push(&mut s, 100, &wire, 1);
        assert!(s.records().is_empty());
        assert_eq!(s.contiguous_end(), 0);
        s.push(SimTime::from_millis(2), &tcp(99, true), &[]);
        push(&mut s, 100, &wire, 3);
        assert_eq!(s.records().len(), 1);
        assert_eq!(s.records()[0].completed_at, SimTime::from_millis(3));
    }

    #[test]
    fn bad_header_desyncs_without_panicking() {
        let mut wire = sealed(&[200, 200]);
        let second = RECORD_HEADER_LEN + 200 + AEAD_TAG_LEN;
        wire[second] = 0xEE; // not a content type
        let mut s = started();
        push(&mut s, 100, &wire[..second + 2], 1);
        push(&mut s, 100 + second as u32 + 2, &wire[second + 2..], 2);
        assert!(s.desynced());
        assert_eq!(s.records().len(), 1);
        // Parsing stays stopped.
        push(&mut s, 100 + wire.len() as u32, &sealed(&[10]), 3);
        assert_eq!(s.records().len(), 1);
    }

    #[global_allocator]
    static ALLOC: h2priv_util::alloc::CountingAlloc = h2priv_util::alloc::CountingAlloc::new();

    /// Random segments, sequence numbers and SYNs never panic, and what
    /// the stream allocates stays within a fixed multiple of the wire
    /// bytes it was fed: held segments are copies of their payload, and
    /// each record read takes at least its 5 header bytes.
    #[test]
    fn random_segments_never_panic_and_allocate_in_proportion() {
        check::run(
            "random_segments_never_panic_and_allocate_in_proportion",
            256,
            |g: &mut Gen| {
                // Either random bytes or a run of tiny records, which
                // makes as many records per byte as a stream can.
                let tiny = g.bool(0.5);
                let segments: Vec<(u32, bool, Vec<u8>)> = (0..g.usize(1, 60))
                    .map(|_| {
                        let seq = if g.bool(0.8) {
                            g.u32(0, 20_000)
                        } else {
                            g.u32(0, u32::MAX)
                        };
                        let len = g.usize(0, 1_500);
                        let bytes = if tiny {
                            (0..len)
                                .map(|i| [23, 3, 3, 0, 0][i % RECORD_HEADER_LEN])
                                .collect()
                        } else {
                            (0..len).map(|_| g.u8(0, u8::MAX)).collect()
                        };
                        (seq, g.bool(0.1), bytes)
                    })
                    .collect();
                let wire: u64 = segments
                    .iter()
                    .map(|(_, _, b)| b.len() as u64 + u64::from(WIRE_OVERHEAD))
                    .sum();
                let (s, _, bytes) = h2priv_util::alloc::counting(|| {
                    let mut s = TlsStream::default();
                    if g.bool(0.5) {
                        s.push(SimTime::ZERO, &tcp(g.u32(0, 100), true), &[]);
                    }
                    for (i, (seq, syn, payload)) in segments.iter().enumerate() {
                        s.push(SimTime::from_millis(i as u64), &tcp(*seq, *syn), payload);
                    }
                    s
                });
                assert!(s.records().len() as u64 <= wire / RECORD_HEADER_LEN as u64);
                assert!(
                    bytes <= 16 * wire,
                    "allocated {bytes} B for {wire} wire bytes"
                );
            },
        );
    }
}
