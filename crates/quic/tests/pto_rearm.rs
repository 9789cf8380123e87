//! RFC 9002 §6.2 regression: the probe timeout doubles with each
//! consecutive expiry, and a newly-acked ack-eliciting packet rearms it
//! — resetting the backoff multiplier — instead of leaving the inflated
//! deadline armed. The simulator never cancels a timer: the endpoint
//! schedules a tick for whatever deadline `timer_needs_rescheduling`
//! reports, and `QuicConnection::on_timer` ignores a stale tick that
//! fires before the current deadline. So the rearm lives entirely in the
//! deadline `Recovery` computes, which these tests pin.

use h2priv_netsim::time::{SimDuration, SimTime};
use h2priv_quic::recovery::{Recovery, SentVec};

const INITIAL_RTT: SimDuration = SimDuration::from_millis(100);
const MAX_ACK_DELAY: SimDuration = SimDuration::from_millis(25);

fn recovery_with_three_in_flight() -> Recovery {
    let mut rec = Recovery::new(INITIAL_RTT, MAX_ACK_DELAY);
    for ms in [0u64, 10, 20] {
        rec.on_packet_sent(SimTime::from_millis(ms), 1_200, true, SentVec::new());
    }
    rec
}

/// Before any RTT sample: pto = initial_rtt + 4 * (initial_rtt / 2)
/// + max_ack_delay, anchored at the last ack-eliciting send.
fn initial_pto() -> SimDuration {
    INITIAL_RTT + (INITIAL_RTT / 2) * 4 + MAX_ACK_DELAY
}

#[test]
fn pto_deadline_doubles_per_expiry_and_anchors_at_last_eliciting_send() {
    let mut rec = recovery_with_three_in_flight();
    let base = SimTime::from_millis(20);

    let d0 = rec.pto_deadline().expect("in-flight data arms the PTO");
    assert_eq!(d0, base + initial_pto());

    // First expiry: the oldest packet is probed and the deadline doubles.
    assert!(rec.on_pto().is_some());
    assert_eq!(rec.pto_count(), 1);
    let d1 = rec.pto_deadline().expect("still in flight");
    assert_eq!(d1, base + initial_pto() * 2, "first expiry doubles the PTO");

    // Second expiry: doubles again (2^pto_count).
    assert!(rec.on_pto().is_some());
    assert_eq!(rec.pto_count(), 2);
    let d2 = rec.pto_deadline().expect("still in flight");
    assert_eq!(d2, base + initial_pto() * 4, "second expiry doubles again");
}

#[test]
fn newly_acked_packet_rearms_the_pto_and_resets_the_backoff() {
    let mut rec = recovery_with_three_in_flight();
    let base = SimTime::from_millis(20);

    // Two consecutive probe timeouts inflate the deadline 4x.
    assert!(rec.on_pto().is_some()); // probes pn 0
    assert!(rec.on_pto().is_some()); // probes pn 1
    assert_eq!(rec.pto_count(), 2);
    let inflated = rec.pto_deadline().expect("pn 2 still in flight");
    assert_eq!(inflated, base + initial_pto() * 4);

    // An ACK for pn 2 (sent at t=20ms, acked at t=50ms: a 30ms sample)
    // is newly-acked ack-eliciting data: the backoff must reset...
    let out = rec.on_ack(SimTime::from_millis(50), &[(2, 2)]);
    assert!(out.newly_acked);
    assert_eq!(rec.pto_count(), 0, "newly-acked data resets the backoff");
    // ...and with nothing left in flight the timer is disarmed outright.
    assert_eq!(rec.pto_deadline(), None, "no eliciting data, no PTO");

    // Fresh data re-arms from the *new* send at the un-backed-off PTO,
    // now computed from the measured 30ms sample (srtt = 30ms,
    // rttvar = 15ms) instead of the initial estimate.
    let t_send = SimTime::from_millis(60);
    rec.on_packet_sent(t_send, 1_200, true, SentVec::new());
    let srtt = SimDuration::from_millis(30);
    let expected = srtt + (srtt / 2) * 4 + MAX_ACK_DELAY;
    assert_eq!(
        rec.pto_deadline(),
        Some(t_send + expected),
        "rearm uses 2^0 backoff and the sampled RTT"
    );
}
