//! Loss recovery and congestion control (RFC 9002-flavoured).
//!
//! One packet-number space covers the whole connection — a documented
//! simplification versus real QUIC's Initial/Handshake/1-RTT split that
//! keeps the model small without changing the observables the attack
//! pipeline cares about.
//!
//! Detection combines a packet-reordering threshold (the fast-retransmit
//! analogue) with a probe timeout (PTO, the RTO analogue). On PTO the
//! congestion window collapses to its floor — a deliberate deviation from
//! RFC 9002 (which only collapses on persistent congestion) chosen to
//! mirror the TCP timeout dynamics the paper's attack exploits.

use std::collections::VecDeque;

use h2priv_netsim::time::{SimDuration, SimTime};
use h2priv_util::smallvec::SmallVec;

use crate::frame::{QuicFrame, RangeVec, MAX_ACK_RANGES};

/// Inline frame list for one sent packet. Packets carry one stream or
/// crypto frame (occasionally plus a control frame), so two inline slots
/// cover the steady state without a heap allocation per packet.
pub type SentVec = SmallVec<SentFrame, 2>;

/// Packets reordered beyond this threshold are declared lost
/// (RFC 9002 §6.1.1). This is the *initial* threshold: acknowledgements
/// for packets already declared lost prove the "loss" was reordering, and
/// the threshold is raised to the observed reordering distance (§6.2.1
/// sanctions adapting to observed reordering) up to
/// [`MAX_PACKET_THRESHOLD`]. Without this an on-path adversary pacing
/// ack-eliciting packets induces a spurious fast-retransmit feedback loop
/// on a loss-free path.
pub const PACKET_THRESHOLD: u64 = 3;
/// Upper bound for the adaptive reordering threshold. Beyond this, loss
/// recovery falls back to the probe timeout alone.
pub const MAX_PACKET_THRESHOLD: u64 = 256;
/// Initial congestion window in bytes (10 full datagrams).
pub const INIT_CWND: u64 = 12_000;
/// Congestion-window floor (2 full datagrams).
pub const MIN_CWND: u64 = 2_400;
/// Declared-lost packet numbers this far below the largest acknowledged
/// one are forgotten: the peer's capped ACK-range encoding never
/// re-reports them, so they can no longer prove a loss spurious.
const DECLARED_LOST_HORIZON: u64 = 4_096;

/// A set of received/acknowledged packet numbers kept as disjoint
/// inclusive ranges.
///
/// One sorted vector holds the ranges and is merged in place, so an
/// insert allocates only when a new gap grows the vector.
#[derive(Debug, Default, Clone)]
pub struct AckRanges {
    /// `(start, end)` pairs: ascending, disjoint and non-adjacent.
    ranges: Vec<(u64, u64)>,
}

impl AckRanges {
    /// Empty set.
    pub fn new() -> Self {
        Self::default()
    }

    /// Inserts one packet number. Returns `false` if it was already
    /// present (a duplicate datagram).
    pub fn insert(&mut self, pn: u64) -> bool {
        self.insert_range(pn, pn)
    }

    /// Inserts the inclusive range `[start, end]`. Returns `false` when
    /// every number in the range was already present.
    pub fn insert_range(&mut self, start: u64, end: u64) -> bool {
        debug_assert!(start <= end);
        // The ranges overlapping or adjacent to [start, end] are the run
        // `lo..hi`: both ends of sorted disjoint ranges ascend.
        let lo = self
            .ranges
            .partition_point(|&(_, e)| e < start.saturating_sub(1));
        let hi = self
            .ranges
            .partition_point(|&(s, _)| s <= end.saturating_add(1));
        if lo == hi {
            self.ranges.insert(lo, (start, end));
            return true;
        }
        // Nothing is new only when one range covers [start, end] (then
        // no other range can touch it): two absorbed ranges leave a gap
        // inside it, and a merely adjacent range covers none of it.
        let (first_start, first_end) = self.ranges[lo];
        let fresh = !(first_start <= start && first_end >= end);
        self.ranges[lo] = (first_start.min(start), self.ranges[hi - 1].1.max(end));
        self.ranges.drain(lo + 1..hi);
        fresh
    }

    /// `true` if `pn` is in the set.
    pub fn contains(&self, pn: u64) -> bool {
        let i = self.ranges.partition_point(|&(s, _)| s <= pn);
        i > 0 && self.ranges[i - 1].1 >= pn
    }

    /// Number of disjoint ranges.
    pub fn range_count(&self) -> usize {
        self.ranges.len()
    }

    /// All ranges, ascending.
    pub fn iter(&self) -> impl Iterator<Item = (u64, u64)> + '_ {
        self.ranges.iter().copied()
    }

    /// Length of the contiguous run starting at 0 (0 when 0 is absent).
    /// Used for cumulative crypto-byte accounting.
    pub fn contiguous_from_zero(&self) -> u64 {
        match self.ranges.first() {
            Some(&(0, e)) => e + 1,
            _ => 0,
        }
    }

    /// Wire encoding that always reports the newest range and fills the
    /// remaining [`MAX_ACK_RANGES`] slots round-robin over the older
    /// ranges across successive calls, advancing `cursor` each time.
    ///
    /// A receiver that only ever reports its newest ranges silently
    /// un-acknowledges any packet that arrives after a long on-path
    /// delay: the late packet merges into an old range that has already
    /// scrolled out of the capped window, so the sender keeps declaring
    /// it lost and respawning it. Cycling the older ranges guarantees
    /// every range is reported within `range_count - 1` ACKs while the
    /// ACK datagram stays at its fixed two-range size.
    pub fn encode_rotating(&self, cursor: &mut usize) -> RangeVec {
        let n = self.ranges.len();
        if n <= MAX_ACK_RANGES {
            return self.iter().collect();
        }
        let older = n - 1;
        let mut picks: SmallVec<usize, MAX_ACK_RANGES> = (0..MAX_ACK_RANGES - 1)
            .map(|k| (*cursor + k) % older)
            .collect();
        *cursor = (*cursor + MAX_ACK_RANGES - 1) % older;
        picks.sort_unstable();
        let mut out = RangeVec::new();
        let mut last = None;
        for &idx in picks.iter() {
            if last != Some(idx) {
                // Sorted, so duplicate picks are adjacent.
                out.push(self.ranges[idx]);
                last = Some(idx);
            }
        }
        out.push(self.ranges[older]);
        out
    }
}

/// What a sent packet carried, for retransmission on loss.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SentFrame {
    /// Stream data `[offset, offset+len)` on stream `id`.
    Stream {
        /// Stream id.
        id: u32,
        /// Stream offset of the chunk.
        offset: u64,
        /// Chunk length.
        len: u32,
        /// FIN was set on the frame.
        fin: bool,
    },
    /// Crypto bytes `[offset, offset+len)`.
    Crypto {
        /// Crypto-stream offset.
        offset: u64,
        /// Chunk length.
        len: u32,
    },
    /// A control frame retransmitted verbatim.
    Control(QuicFrame),
    /// ACK-only packet: nothing to retransmit.
    AckOnly,
}

/// Book-keeping for one in-flight packet.
#[derive(Debug, Clone)]
pub struct SentPacket {
    /// When it was sent.
    pub sent_at: SimTime,
    /// Datagram payload size in bytes.
    pub size: u64,
    /// Whether it elicits an acknowledgement.
    pub ack_eliciting: bool,
    /// Retransmittable contents.
    pub frames: SentVec,
}

/// Outcome of processing one ACK frame.
#[derive(Debug, Default)]
pub struct AckOutcome {
    /// Frames from packets declared lost, to be requeued by the caller.
    pub lost: Vec<SentFrame>,
    /// Whether any new packet was acknowledged.
    pub newly_acked: bool,
}

/// Sender-side loss recovery and congestion state.
#[derive(Debug)]
pub struct Recovery {
    /// In-flight ack-eliciting packets: slot `i` holds packet number
    /// `sent_base + i`. Numbers are dense and increasing, so a deque
    /// indexes them directly; ACK-only numbers and packets already acked
    /// or declared lost are `None` holes. The front slot is never a hole
    /// (holes there are popped), so the deque is empty exactly when
    /// nothing is in flight.
    sent: VecDeque<Option<SentPacket>>,
    sent_base: u64,
    next_pn: u64,
    largest_acked: Option<u64>,
    bytes_in_flight: u64,
    cwnd: u64,
    ssthresh: u64,
    srtt: Option<SimDuration>,
    rttvar: SimDuration,
    initial_rtt: SimDuration,
    max_ack_delay: SimDuration,
    last_eliciting_sent: Option<SimTime>,
    recovery_start_pn: Option<u64>,
    pto_count: u32,
    packet_threshold: u64,
    /// Packet numbers declared lost and not since acknowledged,
    /// ascending. A packet is declared lost only while it is the oldest
    /// in flight, so every number here is below every in-flight one and
    /// new numbers append at the end.
    declared_lost: Vec<u64>,
}

impl Recovery {
    /// New recovery state with the given RTT seed and peer ack delay.
    pub fn new(initial_rtt: SimDuration, max_ack_delay: SimDuration) -> Self {
        Self {
            sent: VecDeque::new(),
            sent_base: 0,
            next_pn: 0,
            largest_acked: None,
            bytes_in_flight: 0,
            cwnd: INIT_CWND,
            ssthresh: u64::MAX,
            srtt: None,
            rttvar: SimDuration::ZERO,
            initial_rtt,
            max_ack_delay,
            last_eliciting_sent: None,
            recovery_start_pn: None,
            pto_count: 0,
            packet_threshold: PACKET_THRESHOLD,
            declared_lost: Vec::new(),
        }
    }

    /// Next packet number to send (without consuming it).
    pub fn peek_pn(&self) -> u64 {
        self.next_pn
    }

    /// Allocates the next packet number and records the packet.
    pub fn on_packet_sent(
        &mut self,
        now: SimTime,
        size: u64,
        ack_eliciting: bool,
        frames: SentVec,
    ) -> u64 {
        let pn = self.next_pn;
        self.next_pn += 1;
        if ack_eliciting {
            self.bytes_in_flight += size;
            self.last_eliciting_sent = Some(now);
            if self.sent.is_empty() {
                self.sent_base = pn;
            }
            // Holes for the ACK-only numbers sent since the last packet.
            let slot = (pn - self.sent_base) as usize;
            self.sent.resize_with(slot, || None);
            self.sent.push_back(Some(SentPacket {
                sent_at: now,
                size,
                ack_eliciting,
                frames,
            }));
        }
        pn
    }

    /// Whether the congestion window admits another `size`-byte packet.
    pub fn can_send(&self, size: u64) -> bool {
        self.bytes_in_flight + size <= self.cwnd
    }

    /// Current congestion window (bytes).
    pub fn cwnd(&self) -> u64 {
        self.cwnd
    }

    /// Current slow-start threshold (bytes; `u64::MAX` before the first
    /// congestion event).
    pub fn ssthresh(&self) -> u64 {
        self.ssthresh
    }

    /// Smoothed RTT, if a sample exists.
    pub fn srtt(&self) -> Option<SimDuration> {
        self.srtt
    }

    /// Bytes currently counted in flight.
    pub fn bytes_in_flight(&self) -> u64 {
        self.bytes_in_flight
    }

    /// Consecutive unanswered PTO count.
    pub fn pto_count(&self) -> u32 {
        self.pto_count
    }

    /// Current (adaptive) reordering threshold for loss detection.
    pub fn packet_threshold(&self) -> u64 {
        self.packet_threshold
    }

    /// The `sent` slots holding packet numbers `[start, end]` (empty
    /// when the range misses the deque or is inverted).
    fn slots(&self, start: u64, end: u64) -> std::ops::Range<usize> {
        let len = self.sent.len() as u64;
        let lo = start.saturating_sub(self.sent_base).min(len);
        let hi = end
            .checked_sub(self.sent_base)
            .map_or(0, |e| e.saturating_add(1).min(len));
        lo as usize..hi.max(lo) as usize
    }

    /// Pops the holes at the front, restoring the deque's invariant.
    fn trim_front(&mut self) {
        while self.sent.front().is_some_and(Option::is_none) {
            self.sent.pop_front();
            self.sent_base += 1;
        }
    }

    /// Processes ACK ranges from the peer; returns lost frames to requeue.
    pub fn on_ack(&mut self, now: SimTime, ranges: &[(u64, u64)]) -> AckOutcome {
        let mut out = AckOutcome::default();
        let largest = match ranges.iter().map(|&(_, e)| e).max() {
            Some(l) => l,
            None => return out,
        };
        // RTT sample from the largest newly-acked ack-eliciting packet
        // (RFC 9002 §5.1: samples MUST come from ack-eliciting packets).
        // Only eliciting packets are tracked in `sent`, and acked entries
        // are removed below, so each packet is sampled at most once. An
        // on-path delay of eliciting traffic must surface in srtt even
        // while small ACK-only datagrams keep round-tripping promptly —
        // otherwise the PTO clock runs at the unpaced path's speed and
        // spuriously probes everything the pacer is still holding.
        let sample = ranges
            .iter()
            .filter_map(|&(start, end)| {
                self.slots(start, end)
                    .rev()
                    .find(|&i| self.sent[i].is_some())
            })
            .max();
        if let Some(sent_at) = sample.and_then(|i| self.sent[i].as_ref().map(|p| p.sent_at)) {
            self.update_rtt(now.saturating_since(sent_at));
        }
        if self.largest_acked.is_none_or(|la| largest > la) {
            self.largest_acked = Some(largest);
        }
        let largest_acked = self.largest_acked.unwrap_or(0);
        // Spurious-retransmission detection: an ack for a packet we already
        // declared lost proves the path reordered (not dropped) it, so the
        // reordering threshold was too tight. Raise it to the observed
        // reordering distance, bounded above; the oldest such packet in a
        // range is the farthest reordered.
        let mut observed = self.packet_threshold;
        for &(start, end) in ranges {
            let lo = self.declared_lost.partition_point(|&pn| pn < start);
            let hi = self.declared_lost.partition_point(|&pn| pn <= end);
            if lo < hi {
                observed = observed.max((largest_acked - self.declared_lost[lo]).saturating_add(1));
                self.declared_lost.drain(lo..hi);
            }
        }
        self.packet_threshold = observed.min(MAX_PACKET_THRESHOLD);
        // Remove acked packets and credit the congestion window, in the
        // order the ranges list them.
        for &(start, end) in ranges {
            for i in self.slots(start, end) {
                if let Some(pkt) = self.sent[i].take() {
                    out.newly_acked = true;
                    self.bytes_in_flight = self.bytes_in_flight.saturating_sub(pkt.size);
                    if self.cwnd < self.ssthresh {
                        self.cwnd += pkt.size; // slow start
                    } else {
                        self.cwnd += 1_200 * pkt.size / self.cwnd; // congestion avoidance
                    }
                }
            }
        }
        if out.newly_acked {
            self.pto_count = 0;
        }
        // Packet-threshold loss detection: anything more than the current
        // (adaptive) threshold below the largest acked packet is lost.
        if largest_acked >= self.packet_threshold {
            let lost_below = largest_acked - self.packet_threshold;
            let mut loss_event_pn = None;
            for i in self.slots(0, lost_below) {
                if let Some(pkt) = self.sent[i].take() {
                    let pn = self.sent_base + i as u64;
                    self.bytes_in_flight = self.bytes_in_flight.saturating_sub(pkt.size);
                    out.lost.extend(pkt.frames);
                    debug_assert!(self.declared_lost.last().is_none_or(|&l| l < pn));
                    self.declared_lost.push(pn);
                    loss_event_pn = Some(pn);
                }
            }
            if let Some(pn) = loss_event_pn {
                self.on_loss_event(pn);
            }
        }
        self.trim_front();
        let floor = largest_acked.saturating_sub(DECLARED_LOST_HORIZON);
        let stale = self.declared_lost.partition_point(|&pn| pn < floor);
        self.declared_lost.drain(..stale);
        out
    }

    /// Registers a congestion event for a lost packet, deduplicating
    /// events within one recovery period.
    fn on_loss_event(&mut self, lost_pn: u64) {
        if self.recovery_start_pn.is_some_and(|r| lost_pn <= r) {
            return; // still in the same recovery period
        }
        self.recovery_start_pn = Some(self.next_pn.saturating_sub(1));
        self.ssthresh = (self.cwnd / 2).max(MIN_CWND);
        self.cwnd = self.ssthresh;
    }

    /// The PTO expiry deadline, if any ack-eliciting packet is in flight.
    pub fn pto_deadline(&self) -> Option<SimTime> {
        if self.sent.is_empty() {
            return None;
        }
        let base = self.last_eliciting_sent?;
        let srtt = self.srtt.unwrap_or(self.initial_rtt);
        let var = if self.srtt.is_some() {
            self.rttvar
        } else {
            self.initial_rtt / 2
        };
        let pto = srtt + (var * 4).max(SimDuration::from_millis(1)) + self.max_ack_delay;
        Some(base + pto * 2u64.saturating_pow(self.pto_count))
    }

    /// Fires a probe timeout: the oldest ack-eliciting packet is requeued
    /// and the window collapses to its floor (see module docs).
    /// Returns the frames to retransmit, or `None` if nothing is in flight.
    pub fn on_pto(&mut self) -> Option<SentVec> {
        let pkt = self.sent.pop_front()?.expect("front slot is occupied");
        let pn = self.sent_base;
        self.sent_base += 1;
        self.trim_front();
        self.bytes_in_flight = self.bytes_in_flight.saturating_sub(pkt.size);
        debug_assert!(self.declared_lost.last().is_none_or(|&l| l < pn));
        self.declared_lost.push(pn);
        self.pto_count += 1;
        self.ssthresh = (self.cwnd / 2).max(MIN_CWND);
        self.cwnd = MIN_CWND;
        self.recovery_start_pn = Some(self.next_pn.saturating_sub(1));
        Some(pkt.frames)
    }

    fn update_rtt(&mut self, rtt: SimDuration) {
        match self.srtt {
            None => {
                self.srtt = Some(rtt);
                self.rttvar = rtt / 2;
            }
            Some(srtt) => {
                let diff = if srtt > rtt { srtt - rtt } else { rtt - srtt };
                self.rttvar = (self.rttvar * 3 + diff) / 4;
                self.srtt = Some((srtt * 7 + rtt) / 8);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(ms: u64) -> SimTime {
        SimTime::ZERO + SimDuration::from_millis(ms)
    }

    #[test]
    fn ack_ranges_merge_and_query() {
        let mut r = AckRanges::new();
        assert!(r.insert(5));
        assert!(!r.insert(5));
        assert!(r.insert(7));
        assert_eq!(r.range_count(), 2);
        assert!(r.insert(6));
        assert_eq!(r.range_count(), 1);
        assert_eq!(r.iter().collect::<Vec<_>>(), vec![(5, 7)]);
        assert!(r.contains(6));
        assert!(!r.contains(8));
        assert_eq!(r.contiguous_from_zero(), 0);
        assert!(r.insert_range(0, 4));
        assert_eq!(r.contiguous_from_zero(), 8);
    }

    #[test]
    fn insert_range_detects_duplicates() {
        let mut r = AckRanges::new();
        assert!(r.insert_range(10, 20));
        assert!(!r.insert_range(12, 18));
        assert!(r.insert_range(15, 25));
        assert_eq!(r.iter().collect::<Vec<_>>(), vec![(10, 25)]);
    }

    #[test]
    fn encode_rotating_caps_ranges() {
        let mut r = AckRanges::new();
        for i in 0..20u64 {
            r.insert(i * 2); // 20 disjoint ranges
        }
        let enc = r.encode_rotating(&mut 0);
        assert_eq!(enc.len(), MAX_ACK_RANGES);
        assert_eq!(enc.last(), Some(&(38, 38)));
        // The cap keeps ACK-only datagrams below the adversary's pacing
        // floor and small-datagram ceiling (43 or 59 bytes on the wire).
        const { assert!(MAX_ACK_RANGES <= 2) }
    }

    #[test]
    fn packet_threshold_declares_loss() {
        let mut rec = Recovery::new(SimDuration::from_millis(100), SimDuration::from_millis(25));
        for i in 0..5u64 {
            let pn = rec.on_packet_sent(
                t(i),
                1_200,
                true,
                vec![SentFrame::Stream {
                    id: 0,
                    offset: i * 1_158,
                    len: 1_158,
                    fin: false,
                }]
                .into(),
            );
            assert_eq!(pn, i);
        }
        // Ack 4 only: pn 0 and 1 are > PACKET_THRESHOLD below → lost.
        let out = rec.on_ack(t(100), &[(4, 4)]);
        assert!(out.newly_acked);
        assert_eq!(out.lost.len(), 2);
        assert!(rec.cwnd() >= MIN_CWND);
    }

    #[test]
    fn spurious_retransmit_raises_packet_threshold() {
        let mut rec = Recovery::new(SimDuration::from_millis(100), SimDuration::from_millis(25));
        for i in 0..5u64 {
            rec.on_packet_sent(t(i), 1_200, true, vec![SentFrame::AckOnly].into());
        }
        assert_eq!(rec.packet_threshold(), PACKET_THRESHOLD);
        // Ack 2..=4: pn 0 and 1 declared lost (reordering, not loss).
        let out = rec.on_ack(t(100), &[(2, 4)]);
        assert_eq!(out.lost.len(), 2);
        // The "lost" packets are later acked: spurious — the threshold
        // jumps to the observed reordering distance (pn 0 acked with
        // largest_acked 4 → distance 5).
        rec.on_ack(t(110), &[(0, 1), (4, 4)]);
        assert_eq!(rec.packet_threshold(), 5);
        // A repeat of the same reordering pattern no longer declares loss.
        for i in 5..10u64 {
            rec.on_packet_sent(t(i + 100), 1_200, true, vec![SentFrame::AckOnly].into());
        }
        let out = rec.on_ack(t(220), &[(9, 9)]);
        assert!(out.lost.is_empty());
        // Re-acking the same spurious pns must not raise the bar again.
        rec.on_ack(t(230), &[(0, 1)]);
        assert_eq!(rec.packet_threshold(), 5);
    }

    #[test]
    fn packet_threshold_is_capped() {
        let mut rec = Recovery::new(SimDuration::from_millis(100), SimDuration::from_millis(25));
        for i in 0..300u64 {
            rec.on_packet_sent(t(i), 100, true, vec![SentFrame::AckOnly].into());
        }
        // Ack only the newest packet, declaring the rest lost, then ack
        // the "lost" packets to prove the loss spurious.
        rec.on_ack(t(1_000), &[(299, 299)]);
        rec.on_ack(t(1_001), &[(0, 299)]);
        assert_eq!(rec.packet_threshold(), MAX_PACKET_THRESHOLD);
    }

    #[test]
    fn rotating_encoding_eventually_reports_every_range() {
        let mut acks = AckRanges::new();
        // Five disjoint ranges: 0, 10, 20, 30, 40.
        for pn in [0u64, 10, 20, 30, 40] {
            acks.insert(pn);
        }
        let mut cursor = 0usize;
        let mut reported = std::collections::BTreeSet::new();
        for _ in 0..4 {
            let wire = acks.encode_rotating(&mut cursor);
            assert!(wire.len() <= MAX_ACK_RANGES);
            // The newest range is always present.
            assert_eq!(*wire.last().unwrap(), (40, 40));
            for (s, _) in wire {
                reported.insert(s);
            }
        }
        // After range_count - 1 ACKs every older range has been reported.
        assert_eq!(reported, [0u64, 10, 20, 30, 40].into_iter().collect());
        // With few enough ranges the full set goes on the wire.
        let mut small = AckRanges::new();
        small.insert(5);
        small.insert_range(9, 12);
        assert_eq!(small.encode_rotating(&mut cursor), vec![(5, 5), (9, 12)]);
    }

    #[test]
    fn loss_events_dedupe_within_recovery_period() {
        let mut rec = Recovery::new(SimDuration::from_millis(100), SimDuration::from_millis(25));
        for i in 0..10u64 {
            rec.on_packet_sent(t(i), 1_200, true, vec![SentFrame::AckOnly].into());
        }
        let cwnd0 = rec.cwnd();
        rec.on_ack(t(50), &[(8, 8)]);
        let after_first = rec.cwnd();
        assert!(after_first < cwnd0);
        // A second loss from the same flight must not halve again (the
        // newly-acked packet may still grow the window slightly).
        rec.on_ack(t(51), &[(9, 9)]);
        assert!(rec.cwnd() >= after_first);
        assert!(rec.cwnd() < after_first + 1_200);
    }

    #[test]
    fn pto_requeues_oldest_and_collapses_window() {
        let mut rec = Recovery::new(SimDuration::from_millis(100), SimDuration::from_millis(25));
        rec.on_packet_sent(
            t(0),
            500,
            true,
            vec![SentFrame::Crypto {
                offset: 0,
                len: 475,
            }]
            .into(),
        );
        let dl = rec.pto_deadline().expect("deadline");
        // initial srtt 100ms + max(4*50ms,1ms) + 25ms = 325ms
        assert_eq!(dl, t(325));
        let frames = rec.on_pto().expect("frames");
        assert_eq!(frames.len(), 1);
        assert_eq!(rec.cwnd(), MIN_CWND);
        assert_eq!(rec.pto_count(), 1);
        assert_eq!(rec.bytes_in_flight(), 0);
    }

    #[test]
    fn rtt_smoothing_follows_rfc_formula() {
        let mut rec = Recovery::new(SimDuration::from_millis(100), SimDuration::from_millis(25));
        rec.on_packet_sent(t(0), 100, true, vec![SentFrame::AckOnly].into());
        rec.on_ack(t(80), &[(0, 0)]);
        assert_eq!(rec.srtt(), Some(SimDuration::from_millis(80)));
        rec.on_packet_sent(t(100), 100, true, vec![SentFrame::AckOnly].into());
        rec.on_ack(t(260), &[(1, 1)]);
        // srtt = 7/8*80 + 1/8*160 = 90ms
        assert_eq!(rec.srtt(), Some(SimDuration::from_millis(90)));
    }
}
