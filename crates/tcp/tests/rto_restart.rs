//! RFC 6298 §5.3 regression: every ACK that acknowledges new data must
//! *restart* the retransmission timer from the ACK's arrival time — and
//! clear the exponential backoff — rather than leave the old deadline
//! armed. The simulator never cancels a timer: the host schedules a tick
//! for whatever deadline `timer_needs_rescheduling` reports, and
//! `TcpConnection::on_timer` returns early on a stale tick that fires
//! before the current deadline. So the whole contract lives in the
//! connection's deadline, pinned here with hand-crafted ACKs
//! (`ts_ecr = 0` suppresses RTT samples, so the RTO stays at exactly
//! `rto_initial` and deadlines are exact).

use h2priv_netsim::packet::{FlowId, HostAddr, TcpFlags, TcpHeader};
use h2priv_netsim::time::{SimDuration, SimTime};
use h2priv_tcp::{TcpConfig, TcpConnection};
use h2priv_util::bytes::Bytes;

const ISS: u32 = 7;

fn flow() -> FlowId {
    FlowId {
        src: HostAddr(1),
        dst: HostAddr(2),
        sport: 40_000,
        dport: 443,
    }
}

/// Wire ACK number for a client byte offset (`snd_base = iss + 1`).
fn wire_ack(offset: u64) -> u32 {
    (ISS + 1).wrapping_add(offset as u32)
}

/// A bare ACK from the peer covering everything below `offset`.
/// `ts_ecr = 0` keeps the client's RTT estimator untouched.
fn peer_ack(offset: u64) -> TcpHeader {
    TcpHeader {
        flow: flow().reversed(),
        seq: 5_001,
        ack: wire_ack(offset),
        flags: TcpFlags::ACK,
        window: 1 << 20,
        ts_val: 0,
        ts_ecr: 0,
    }
}

/// Opens the client and walks it to Established with a crafted SYN-ACK.
fn established_client(now: SimTime) -> TcpConnection {
    let mut c = TcpConnection::client(flow(), TcpConfig::default().with_iss(ISS));
    c.open(now);
    let (syn, _) = c.poll_segment(now).expect("client emits SYN");
    assert!(syn.flags.syn);
    let syn_ack = TcpHeader {
        flow: flow().reversed(),
        seq: 5_000,
        ack: wire_ack(0),
        flags: TcpFlags::SYN_ACK,
        window: 1 << 20,
        ts_val: 0,
        ts_ecr: 0,
    };
    c.on_segment(now, &syn_ack, Bytes::new());
    while c.poll_segment(now).is_some() {} // drain the handshake ACK
    assert_eq!(c.next_timeout(), None, "no timer armed while idle");
    c
}

#[test]
fn ack_of_new_data_restarts_the_rto_from_ack_time() {
    let rto = TcpConfig::default().rto_initial;
    let t1 = SimTime::from_millis(10);
    let mut c = established_client(t1);

    // Three segments in flight; the first transmission arms the RTO.
    c.write(Bytes::from(vec![0xAB; 4_096]));
    let t2 = SimTime::from_millis(20);
    let mut sent = 0u64;
    while let Some((_, payload)) = c.poll_segment(t2) {
        sent += payload.len() as u64;
    }
    assert_eq!(sent, 4_096);
    assert_eq!(c.next_timeout(), Some(t2 + rto), "armed at first send");

    // A partial ACK (first segment only) leaves data in flight: the
    // deadline must move to exactly ack-arrival + RTO, not stay put.
    let t3 = SimTime::from_millis(220);
    c.on_segment(t3, &peer_ack(1_460), Bytes::new());
    assert_eq!(c.bytes_in_flight(), 4_096 - 1_460);
    assert_eq!(
        c.next_timeout(),
        Some(t3 + rto),
        "ACK of new data restarts the RTO from the ACK's arrival"
    );

    // Acknowledging everything disarms the timer entirely.
    let t4 = SimTime::from_millis(300);
    c.on_segment(t4, &peer_ack(4_096), Bytes::new());
    assert_eq!(c.bytes_in_flight(), 0);
    assert_eq!(c.next_timeout(), None, "nothing in flight, nothing armed");
}

#[test]
fn rto_expiry_backs_off_and_an_ack_resets_the_backoff() {
    let rto = TcpConfig::default().rto_initial;
    let t1 = SimTime::from_millis(10);
    let mut c = established_client(t1);

    c.write(Bytes::from(vec![0xCD; 1_460]));
    let t2 = SimTime::from_millis(20);
    while c.poll_segment(t2).is_some() {}
    let d0 = c.next_timeout().expect("armed after send");
    assert_eq!(d0, t2 + rto);

    // First expiry: backoff doubles the next interval.
    c.on_timer(d0);
    let d1 = c.next_timeout().expect("re-armed after expiry");
    assert_eq!(d1, d0 + rto * 2, "first backoff doubles the RTO");
    while c.poll_segment(d0).is_some() {} // emit the retransmission

    // Second expiry: doubles again.
    c.on_timer(d1);
    let d2 = c.next_timeout().expect("re-armed after second expiry");
    assert_eq!(d2, d1 + rto * 4, "second backoff doubles again");
    while c.poll_segment(d1).is_some() {}
    assert_eq!(c.stats().rto_events, 2);
    assert!(c.stats().timeout_retransmits >= 2);

    // An ACK for the outstanding byte range clears the timer *and* the
    // backoff state: the next transmission arms at the base RTO again,
    // not at the 4x backed-off interval.
    let t5 = d1 + SimDuration::from_millis(10);
    c.on_segment(t5, &peer_ack(1_460), Bytes::new());
    assert_eq!(c.next_timeout(), None, "fully acked: timer disarmed");

    c.write(Bytes::from(vec![0xEF; 1_460]));
    let t6 = t5 + SimDuration::from_millis(5);
    while c.poll_segment(t6).is_some() {}
    assert_eq!(
        c.next_timeout(),
        Some(t6 + rto),
        "ACK reset the backoff: fresh data arms at the base RTO"
    );
}
