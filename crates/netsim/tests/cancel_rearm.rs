//! Regression tests for the retransmission-timer *rearm* pattern on the
//! event core: a node that repeatedly cancels its pending timeout and
//! schedules a fresh one — the shape of TCP's RTO restart on every new
//! ACK (RFC 6298 §5.3) and QUIC's PTO rearm on every newly-acked packet
//! (RFC 9002 §6.2). Each cancel leaves a tombstone in the event heap
//! until its deadline reaches the top, so churn must keep the dead
//! entries bounded by the timeouts still ahead, and leave none once the
//! node goes idle. These tests count live vs dead events *mid-run*,
//! where the difference is observable, not just after the queue drains.

use h2priv_netsim::prelude::*;
use std::cell::RefCell;
use std::rc::Rc;

/// Shared observation window into the node (the simulator owns it).
#[derive(Default)]
struct RearmStats {
    acks_seen: u32,
    rto_fired: u32,
    rto_cancelled: u32,
}

/// A retransmission-timer caricature: a metronome timer plays the role
/// of the ACK clock; every tick cancels the pending "RTO" and re-arms it
/// a full timeout into the future, so a healthy run never fires it.
struct RearmNode {
    stats: Rc<RefCell<RearmStats>>,
    acks_total: u32,
    ack_interval: SimDuration,
    rto: SimDuration,
    metro_timer: Option<TimerId>,
    rto_timer: Option<TimerId>,
}

impl Node for RearmNode {
    fn on_start(&mut self, ctx: &mut Ctx<'_>) {
        self.metro_timer = Some(ctx.schedule(self.ack_interval));
        self.rto_timer = Some(ctx.schedule(self.rto));
    }
    fn on_packet(&mut self, _c: &mut Ctx<'_>, _f: LinkId, _p: Packet) {}
    fn on_timer(&mut self, ctx: &mut Ctx<'_>, t: TimerId) {
        if Some(t) == self.metro_timer {
            let mut st = self.stats.borrow_mut();
            st.acks_seen += 1;
            // The "ACK" restarts the retransmission timer: O(1) cancel of
            // the armed deadline, then a fresh schedule (RFC 6298 §5.3).
            if let Some(rto) = self.rto_timer.take() {
                ctx.cancel(rto);
                st.rto_cancelled += 1;
            }
            if st.acks_seen < self.acks_total {
                self.rto_timer = Some(ctx.schedule(self.rto));
                self.metro_timer = Some(ctx.schedule(self.ack_interval));
            }
        } else if Some(t) == self.rto_timer {
            self.stats.borrow_mut().rto_fired += 1;
        }
    }
}

fn build(acks_total: u32) -> (Simulator, Rc<RefCell<RearmStats>>) {
    let stats = Rc::new(RefCell::new(RearmStats::default()));
    let mut sim = Simulator::new(7);
    sim.add_node(RearmNode {
        stats: Rc::clone(&stats),
        acks_total,
        ack_interval: SimDuration::from_millis(10),
        rto: SimDuration::from_millis(100),
        metro_timer: None,
        rto_timer: None,
    });
    (sim, stats)
}

/// Steady ACK clock: the RTO is cancelled and re-armed on every tick and
/// never fires. Mid-run, exactly the live timers are pending, and the
/// tombstones are only the cancelled RTOs whose deadlines are still
/// ahead: fewer than rto / ack_interval = 10. None remain once idle.
#[test]
fn rto_rearm_churn_leaves_no_tombstones() {
    let (mut sim, stats) = build(200);
    sim.start();
    for step in 1..=200u64 {
        sim.run_until(SimTime::from_millis(10 * step));
        // Live events only: one metronome + one RTO while rearming
        // continues, nothing once the node stops re-arming.
        let expected_live = if stats.borrow().acks_seen < 200 { 2 } else { 0 };
        assert_eq!(
            sim.pending_events(),
            expected_live,
            "live events at step {step}"
        );
        assert!(
            sim.pending_dead_events() < 10,
            "{} tombstones at step {step}",
            sim.pending_dead_events()
        );
    }
    assert_eq!(sim.pending_dead_events(), 0, "tombstones left once idle");
    let st = stats.borrow();
    assert_eq!(st.acks_seen, 200, "every ACK tick fired");
    assert_eq!(st.rto_cancelled, 200, "every tick restarted the RTO");
    assert_eq!(st.rto_fired, 0, "a restarted RTO never expires");
}

/// When the ACK clock stops (the peer goes silent), the last armed RTO
/// must still fire exactly once at its full deadline — cancel-and-rearm
/// must not eat the timeout that matters.
#[test]
fn rto_fires_once_acks_stop() {
    let stats = Rc::new(RefCell::new(RearmStats::default()));
    let mut sim = Simulator::new(11);
    sim.add_node(RearmNode {
        stats: Rc::clone(&stats),
        acks_total: 5,
        ack_interval: SimDuration::from_millis(10),
        rto: SimDuration::from_millis(100),
        metro_timer: None,
        rto_timer: None,
    });
    sim.start();
    // 5th tick at t=50 ms stops the metronome but leaves no RTO armed
    // (acks_seen reached acks_total), so nothing fires afterwards...
    sim.run_until_idle(SimTime::from_secs(5));
    assert_eq!(stats.borrow().acks_seen, 5);
    assert_eq!(stats.borrow().rto_fired, 0);

    // ...whereas stopping one tick *before* the cancel leaves the RTO
    // armed at t=40+100 ms and it must fire exactly once.
    let stats2 = Rc::new(RefCell::new(RearmStats::default()));
    let mut sim2 = Simulator::new(12);
    sim2.add_node(DropClockNode {
        stats: Rc::clone(&stats2),
        ticks_before_silence: 4,
        ack_interval: SimDuration::from_millis(10),
        rto: SimDuration::from_millis(100),
        metro_timer: None,
        rto_timer: None,
        fired_at: None,
    });
    sim2.start();
    sim2.run_until_idle(SimTime::from_secs(5));
    let st = stats2.borrow();
    assert_eq!(st.acks_seen, 4);
    assert_eq!(st.rto_fired, 1, "silent peer expires the RTO exactly once");
}

/// Variant whose metronome stops *without* cancelling the armed RTO, so
/// the timeout goes off — the peer-went-silent half of the RTO contract.
struct DropClockNode {
    stats: Rc<RefCell<RearmStats>>,
    ticks_before_silence: u32,
    ack_interval: SimDuration,
    rto: SimDuration,
    metro_timer: Option<TimerId>,
    rto_timer: Option<TimerId>,
    fired_at: Option<SimTime>,
}

impl Node for DropClockNode {
    fn on_start(&mut self, ctx: &mut Ctx<'_>) {
        self.metro_timer = Some(ctx.schedule(self.ack_interval));
        self.rto_timer = Some(ctx.schedule(self.rto));
    }
    fn on_packet(&mut self, _c: &mut Ctx<'_>, _f: LinkId, _p: Packet) {}
    fn on_timer(&mut self, ctx: &mut Ctx<'_>, t: TimerId) {
        if Some(t) == self.metro_timer {
            let mut st = self.stats.borrow_mut();
            st.acks_seen += 1;
            if st.acks_seen < self.ticks_before_silence {
                // Restart the RTO and keep the clock running.
                if let Some(rto) = self.rto_timer.take() {
                    ctx.cancel(rto);
                    st.rto_cancelled += 1;
                }
                self.rto_timer = Some(ctx.schedule(self.rto));
                self.metro_timer = Some(ctx.schedule(self.ack_interval));
            }
            // else: go silent, leaving the last RTO armed.
        } else if Some(t) == self.rto_timer {
            self.stats.borrow_mut().rto_fired += 1;
            self.fired_at = Some(ctx.now());
        }
    }
}
