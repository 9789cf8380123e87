//! Differential oracle for loss recovery: the flat packet-number tables
//! of `Recovery` and `AckRanges` against the `BTreeMap`/`BTreeSet`
//! implementation they replaced, kept here with its logic unchanged as
//! the reference.
//!
//! Recovery state is an observable of the simulation (it decides what is
//! retransmitted, when, and how large the window is), so both
//! implementations are driven through the same seeded schedules —
//! eliciting and ACK-only sends, reordered and overlapping ACKs with
//! more than `MAX_ACK_RANGES` ranges, probe timeouts, and losses that
//! fall below the declared-lost horizon — and must agree after every
//! step on every output and every piece of state a getter exposes.

use std::collections::{BTreeMap, BTreeSet};

use h2priv_netsim::time::{SimDuration, SimTime};
use h2priv_quic::frame::{QuicFrame, RangeVec, MAX_ACK_RANGES};
use h2priv_quic::recovery::{
    AckRanges, Recovery, SentFrame, SentVec, MAX_PACKET_THRESHOLD, MIN_CWND, PACKET_THRESHOLD,
};
use h2priv_util::check::{run, Gen};
use h2priv_util::prop_assert_eq;
use h2priv_util::smallvec::SmallVec;

/// The `BTreeMap` ACK-range set the sorted vector replaced.
#[derive(Debug, Default)]
struct RefAckRanges {
    ranges: BTreeMap<u64, u64>, // start -> end, disjoint, non-adjacent
}

impl RefAckRanges {
    fn insert_range(&mut self, start: u64, end: u64) -> bool {
        let mut new_start = start;
        let mut new_end = end;
        let fresh;
        let low = new_start.saturating_sub(1);
        let mut absorb = Vec::new();
        for (&s, &e) in self.ranges.range(..=new_end.saturating_add(1)) {
            if e >= low {
                absorb.push((s, e));
            }
        }
        if absorb.is_empty() {
            fresh = true;
        } else {
            let span = new_end - new_start + 1;
            let mut overlap = 0u64;
            for &(s, e) in &absorb {
                let lo = s.max(new_start);
                let hi = e.min(new_end);
                if lo <= hi {
                    overlap += hi - lo + 1;
                }
            }
            fresh = overlap < span;
            for (s, e) in absorb {
                self.ranges.remove(&s);
                new_start = new_start.min(s);
                new_end = new_end.max(e);
            }
        }
        self.ranges.insert(new_start, new_end);
        fresh
    }

    fn contains(&self, pn: u64) -> bool {
        self.ranges
            .range(..=pn)
            .next_back()
            .is_some_and(|(_, &e)| e >= pn)
    }

    fn iter(&self) -> impl Iterator<Item = (u64, u64)> + '_ {
        self.ranges.iter().map(|(&s, &e)| (s, e))
    }

    fn contiguous_from_zero(&self) -> u64 {
        match self.ranges.first_key_value() {
            Some((&0, &e)) => e + 1,
            _ => 0,
        }
    }

    fn encode_rotating(&self, cursor: &mut usize) -> RangeVec {
        let n = self.ranges.len();
        if n <= MAX_ACK_RANGES {
            return self.iter().collect();
        }
        let older = n - 1;
        let mut out = RangeVec::new();
        let mut picks: SmallVec<usize, MAX_ACK_RANGES> = (0..MAX_ACK_RANGES - 1)
            .map(|k| (*cursor + k) % older)
            .collect();
        *cursor = (*cursor + MAX_ACK_RANGES - 1) % older;
        picks.sort_unstable();
        let mut it = self.ranges.iter();
        let mut at = 0usize;
        let mut last = None;
        for &idx in picks.iter() {
            if last == Some(idx) {
                continue;
            }
            last = Some(idx);
            if let Some((&s, &e)) = it.nth(idx - at) {
                out.push((s, e));
            }
            at = idx + 1;
        }
        if let Some((&s, &e)) = self.ranges.iter().next_back() {
            out.push((s, e));
        }
        out
    }
}

struct RefSentPacket {
    sent_at: SimTime,
    size: u64,
    frames: SentVec,
}

/// The `BTreeMap`/`BTreeSet` recovery the flat tables replaced.
struct RefRecovery {
    sent: BTreeMap<u64, RefSentPacket>,
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
    declared_lost: BTreeSet<u64>,
}

impl RefRecovery {
    fn new(initial_rtt: SimDuration, max_ack_delay: SimDuration) -> Self {
        Self {
            sent: BTreeMap::new(),
            next_pn: 0,
            largest_acked: None,
            bytes_in_flight: 0,
            cwnd: 12_000,
            ssthresh: u64::MAX,
            srtt: None,
            rttvar: SimDuration::ZERO,
            initial_rtt,
            max_ack_delay,
            last_eliciting_sent: None,
            recovery_start_pn: None,
            pto_count: 0,
            packet_threshold: PACKET_THRESHOLD,
            declared_lost: BTreeSet::new(),
        }
    }

    fn on_packet_sent(&mut self, now: SimTime, size: u64, eliciting: bool, frames: SentVec) -> u64 {
        let pn = self.next_pn;
        self.next_pn += 1;
        if eliciting {
            self.bytes_in_flight += size;
            self.last_eliciting_sent = Some(now);
            self.sent.insert(
                pn,
                RefSentPacket {
                    sent_at: now,
                    size,
                    frames,
                },
            );
        }
        pn
    }

    fn on_ack(&mut self, now: SimTime, ranges: &[(u64, u64)]) -> (Vec<SentFrame>, bool) {
        let mut lost = Vec::new();
        let mut newly_acked = false;
        let Some(largest) = ranges.iter().map(|&(_, e)| e).max() else {
            return (lost, newly_acked);
        };
        let sample_pn = ranges
            .iter()
            .filter_map(|&(start, end)| self.sent.range(start..=end).next_back().map(|(&pn, _)| pn))
            .max();
        if let Some(pn) = sample_pn {
            let rtt = now.saturating_since(self.sent[&pn].sent_at);
            self.update_rtt(rtt);
        }
        if self.largest_acked.is_none_or(|la| largest > la) {
            self.largest_acked = Some(largest);
        }
        let largest_acked = self.largest_acked.unwrap_or(0);
        let mut observed = self.packet_threshold;
        for &(start, end) in ranges {
            let pns: Vec<u64> = self.declared_lost.range(start..=end).copied().collect();
            for pn in pns {
                self.declared_lost.remove(&pn);
                observed = observed.max((largest_acked - pn) + 1);
            }
        }
        self.packet_threshold = observed.min(MAX_PACKET_THRESHOLD);
        for &(start, end) in ranges {
            let pns: Vec<u64> = self.sent.range(start..=end).map(|(&pn, _)| pn).collect();
            for pn in pns {
                if let Some(pkt) = self.sent.remove(&pn) {
                    newly_acked = true;
                    self.bytes_in_flight = self.bytes_in_flight.saturating_sub(pkt.size);
                    if self.cwnd < self.ssthresh {
                        self.cwnd += pkt.size;
                    } else {
                        self.cwnd += 1_200 * pkt.size / self.cwnd;
                    }
                }
            }
        }
        if newly_acked {
            self.pto_count = 0;
        }
        if largest_acked >= self.packet_threshold {
            let lost_below = largest_acked - self.packet_threshold;
            let pns: Vec<u64> = self.sent.range(..=lost_below).map(|(&pn, _)| pn).collect();
            let mut loss_event_pn = None;
            for pn in pns {
                if let Some(pkt) = self.sent.remove(&pn) {
                    self.bytes_in_flight = self.bytes_in_flight.saturating_sub(pkt.size);
                    lost.extend(pkt.frames);
                    self.declared_lost.insert(pn);
                    loss_event_pn = Some(pn);
                }
            }
            if let Some(pn) = loss_event_pn {
                self.on_loss_event(pn);
            }
        }
        let floor = largest_acked.saturating_sub(4_096);
        if self
            .declared_lost
            .first()
            .is_some_and(|&oldest| oldest < floor)
        {
            self.declared_lost = self.declared_lost.split_off(&floor);
        }
        (lost, newly_acked)
    }

    fn on_loss_event(&mut self, lost_pn: u64) {
        if self.recovery_start_pn.is_some_and(|r| lost_pn <= r) {
            return;
        }
        self.recovery_start_pn = Some(self.next_pn.saturating_sub(1));
        self.ssthresh = (self.cwnd / 2).max(MIN_CWND);
        self.cwnd = self.ssthresh;
    }

    fn pto_deadline(&self) -> Option<SimTime> {
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

    fn on_pto(&mut self) -> Option<SentVec> {
        let (&pn, _) = self.sent.first_key_value()?;
        let pkt = self.sent.remove(&pn)?;
        self.bytes_in_flight = self.bytes_in_flight.saturating_sub(pkt.size);
        self.declared_lost.insert(pn);
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

/// One random frame list for a sent packet; the pn goes into the frame
/// so a misattributed loss shows up as a different frame.
fn frames_for(g: &mut Gen, pn: u64) -> SentVec {
    let mut frames = SentVec::new();
    for _ in 0..g.usize(1, 2) {
        frames.push(match g.usize(0, 3) {
            0 => SentFrame::Stream {
                id: g.u32(0, 12) * 4,
                offset: pn * 1_158,
                len: g.u32(0, 1_158),
                fin: g.bool(0.2),
            },
            1 => SentFrame::Crypto {
                offset: pn * 1_000,
                len: g.u32(1, 1_000),
            },
            2 => SentFrame::Control(QuicFrame::MaxData { max: pn }),
            _ => SentFrame::AckOnly,
        });
    }
    frames
}

/// Random ACK ranges over packet numbers `[0, hi]`: `count` ranges in
/// random order, each `start <= end`, free to overlap, repeat or cover
/// numbers never sent (a peer is not trusted to be tidy). `recent`
/// biases them toward the newest numbers, as a live peer's are.
fn random_ranges(g: &mut Gen, hi: u64, count: usize, recent: bool) -> Vec<(u64, u64)> {
    (0..count)
        .map(|_| {
            let start = if recent && hi > 64 {
                g.u64(hi - 64, hi)
            } else {
                g.u64(0, hi)
            };
            let end = (start + g.u64(0, 8)).min(hi.max(start));
            (start, end)
        })
        .collect()
}

/// Both implementations side by side; every call checks that their
/// outputs and exposed state agree.
struct Pair {
    flat: Recovery,
    reference: RefRecovery,
    step: usize,
}

impl Pair {
    fn new(g: &mut Gen) -> Pair {
        let initial_rtt = SimDuration::from_millis(g.u64(10, 200));
        let max_ack_delay = SimDuration::from_millis(g.u64(0, 25));
        Pair {
            flat: Recovery::new(initial_rtt, max_ack_delay),
            reference: RefRecovery::new(initial_rtt, max_ack_delay),
            step: 0,
        }
    }

    fn send(&mut self, now: SimTime, size: u64, eliciting: bool, frames: SentVec) {
        let a = self
            .flat
            .on_packet_sent(now, size, eliciting, frames.clone());
        let b = self.reference.on_packet_sent(now, size, eliciting, frames);
        prop_assert_eq!(a, b, "step {}: assigned pn", self.step);
        self.check();
    }

    fn ack(&mut self, now: SimTime, ranges: &[(u64, u64)]) {
        let out = self.flat.on_ack(now, ranges);
        let (lost, newly_acked) = self.reference.on_ack(now, ranges);
        prop_assert_eq!(
            out.lost,
            lost,
            "step {}: lost frames for {ranges:?}",
            self.step
        );
        prop_assert_eq!(
            out.newly_acked,
            newly_acked,
            "step {}: newly acked",
            self.step
        );
        self.check();
    }

    fn pto(&mut self) {
        let a = self.flat.on_pto();
        let b = self.reference.on_pto();
        prop_assert_eq!(a, b, "step {}: pto frames", self.step);
        self.check();
    }

    /// Everything a getter exposes must agree after every step.
    fn check(&mut self) {
        let (flat, reference, step) = (&self.flat, &self.reference, self.step);
        prop_assert_eq!(flat.peek_pn(), reference.next_pn, "step {step}: next pn");
        prop_assert_eq!(flat.cwnd(), reference.cwnd, "step {step}: cwnd");
        prop_assert_eq!(flat.ssthresh(), reference.ssthresh, "step {step}: ssthresh");
        prop_assert_eq!(
            flat.bytes_in_flight(),
            reference.bytes_in_flight,
            "step {step}: bytes in flight"
        );
        prop_assert_eq!(
            flat.packet_threshold(),
            reference.packet_threshold,
            "step {step}: packet threshold"
        );
        prop_assert_eq!(flat.srtt(), reference.srtt, "step {step}: srtt");
        prop_assert_eq!(
            flat.pto_count(),
            reference.pto_count,
            "step {step}: pto count"
        );
        prop_assert_eq!(
            flat.pto_deadline(),
            reference.pto_deadline(),
            "step {step}: pto deadline"
        );
        self.step += 1;
    }
}

/// Drives both implementations through one random schedule.
fn drive(g: &mut Gen, steps: usize) {
    let mut pair = Pair::new(g);
    let mut now = SimTime::ZERO;
    for _ in 0..steps {
        now += SimDuration::from_micros(g.u64(0, 5_000));
        match g.usize(0, 19) {
            // Ack-eliciting send.
            0..=7 => {
                let pn = pair.flat.peek_pn();
                let frames = frames_for(g, pn);
                pair.send(now, g.u64(40, 1_200), true, frames);
            }
            // ACK-only send: a hole in the packet-number table.
            8..=10 => pair.send(now, g.u64(43, 59), false, SentVec::new()),
            11 => pair.pto(),
            // An ACK from the peer, mostly for recent numbers, sometimes
            // re-reporting or reordering far older ones.
            _ => {
                let hi = pair.flat.peek_pn() + 2;
                let recent = g.bool(0.8);
                let count = g.usize(1, MAX_ACK_RANGES + 4);
                let ranges = random_ranges(g, hi, count, recent);
                pair.ack(now, &ranges);
            }
        }
    }
}

#[test]
fn flat_recovery_matches_btree_reference() {
    run("flat-recovery-vs-btree", 256, |g: &mut Gen| {
        let steps = g.usize(1, 400);
        drive(g, steps);
    });
}

/// Long runs, thousands of packet numbers past the declared-lost horizon.
#[test]
fn flat_recovery_matches_btree_reference_on_long_runs() {
    run("flat-recovery-vs-btree-long", 6, |g: &mut Gen| {
        drive(g, 12_000)
    });
}

/// A late ACK straddling the 4,096-number declared-lost horizon: acked
/// numbers the sender still remembers as lost raise the reordering
/// threshold, forgotten ones must not — in both implementations.
#[test]
fn flat_recovery_matches_btree_reference_at_the_lost_horizon() {
    run("flat-recovery-vs-btree-horizon", 48, |g: &mut Gen| {
        let mut pair = Pair::new(g);
        // A long flight acked one number in thirteen (coprime to the
        // horizon, so numbers at every distance near it were declared
        // lost): everything else is lost while the threshold stays at
        // its floor.
        let n = g.u64(4_200, 5_000);
        let mut largest = 0;
        for pn in 0..n {
            let now = SimTime::from_millis(pn);
            pair.send(now, 1_200, true, frames_for(g, pn));
            if pn % 13 == 12 {
                pair.ack(now, &[(pn, pn)]);
                largest = pn;
            }
        }
        let late = largest - g.u64(4_092, 4_100);
        pair.ack(SimTime::from_millis(n), &[(late, late)]);
    });
}
#[test]
fn flat_ack_ranges_match_btree_reference() {
    let mut most_ranges = 0;
    run("flat-ack-ranges-vs-btree", 64, |g: &mut Gen| {
        let mut flat = AckRanges::new();
        let mut reference = RefAckRanges::default();
        // Numbers arrive mostly in order with gaps that never fill (the
        // dropped packets), plus reordered stragglers and range inserts,
        // so the set grows to hundreds of ranges.
        let mut next = 0u64;
        let (mut flat_cursor, mut ref_cursor) = (0usize, 0usize);
        for step in 0..g.usize(200, 2_000) {
            let (start, end) = match g.usize(0, 19) {
                0..=14 => {
                    next += if g.bool(0.3) { g.u64(2, 4) } else { 1 };
                    (next, next)
                }
                15..=17 => {
                    let pn = g.u64(next.saturating_sub(64), next + 1);
                    (pn, pn)
                }
                _ => {
                    let start = g.u64(0, next + 1);
                    (start, start + g.u64(0, 4))
                }
            };
            prop_assert_eq!(
                flat.insert_range(start, end),
                reference.insert_range(start, end),
                "step {step}: fresh for [{start}, {end}]"
            );
            if g.bool(0.5) {
                prop_assert_eq!(
                    flat.encode_rotating(&mut flat_cursor),
                    reference.encode_rotating(&mut ref_cursor),
                    "step {step}: rotating encoding"
                );
                prop_assert_eq!(flat_cursor, ref_cursor, "step {step}: cursor");
            }
        }
        prop_assert_eq!(
            flat.iter().collect::<Vec<_>>(),
            reference.iter().collect::<Vec<_>>()
        );
        prop_assert_eq!(flat.range_count(), reference.ranges.len());
        prop_assert_eq!(
            flat.contiguous_from_zero(),
            reference.contiguous_from_zero()
        );
        for pn in 0..=next + 20 {
            prop_assert_eq!(flat.contains(pn), reference.contains(pn), "contains {pn}");
        }
        // A long cursor run over the final set reports the same ranges in
        // the same order, wrapping the cursor many times.
        for call in 0..3 * flat.range_count() {
            prop_assert_eq!(
                flat.encode_rotating(&mut flat_cursor),
                reference.encode_rotating(&mut ref_cursor),
                "call {call}: rotating encoding"
            );
        }
        most_ranges = most_ranges.max(flat.range_count());
    });
    assert!(
        most_ranges >= 200,
        "no schedule reached hundreds of ranges: {most_ranges}"
    );
}
