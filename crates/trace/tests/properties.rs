//! Property tests for the adversary's measurement stack: TLS-record
//! reassembly must recover the exact record sequence from any packet
//! segmentation (with duplication and reordering).

use h2priv_netsim::packet::{Direction, FlowId, HostAddr, TcpFlags, TcpHeader};
use h2priv_netsim::time::SimTime;
use h2priv_tls::{ContentType, RecordSealer, RecordTag};
use h2priv_trace::capture::Trace;
use h2priv_trace::reassembly::reassemble;
use h2priv_trace::record::PacketRecord;
use h2priv_util::bytes::Bytes;
use h2priv_util::check::{self, Gen};
use h2priv_util::{prop_assert, prop_assert_eq};

fn seg(seq: u32, payload: &[u8], t_ms: u64, syn: bool) -> PacketRecord {
    PacketRecord {
        time: SimTime::from_millis(t_ms),
        direction: Direction::ServerToClient,
        header: TcpHeader {
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
        },
        payload: Bytes::copy_from_slice(payload),
        dropped_by_policy: false,
    }
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
            let view = reassemble(&Trace { packets }, Direction::ServerToClient, false);
            prop_assert_eq!(view.records.len(), lens.len(), "record count");
            let got: Vec<u16> = view.records.iter().map(|r| r.plaintext_len).collect();
            prop_assert_eq!(got, lens.clone());
            prop_assert!(!view.desynced);
            prop_assert_eq!(view.unique_bytes, stream.len() as u64);
        },
    );
}

/// Retransmitted-only segments never inflate the record sequence and
/// are counted.
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
        let view = reassemble(&Trace { packets }, Direction::ServerToClient, false);
        prop_assert_eq!(view.records.len(), 1);
        prop_assert_eq!(view.retransmitted_segments, times as u64);
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
    let view = reassemble(&Trace { packets }, Direction::ServerToClient, false);
    let lens: Vec<u16> = view.records.iter().map(|r| r.plaintext_len).collect();
    assert_eq!(lens, vec![400, 900, 50]);
}
