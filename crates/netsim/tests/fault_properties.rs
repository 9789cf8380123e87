//! Property tests for the fault-injection layer: packet conservation
//! across the fault/link accounting, Gilbert–Elliott long-run loss
//! convergence, scripted flap windows, duplication/reordering effects,
//! and determinism with faults attached.

use h2priv_netsim::faults::{Duplicate, FaultConfig, GilbertElliott, Reorder};
use h2priv_netsim::prelude::*;
use h2priv_util::bytes::Bytes;
use h2priv_util::check::{self, Gen};
use h2priv_util::{prop_assert, prop_assert_eq};

/// Sends `count` packets, `spacing_us` apart, on its first egress link,
/// and counts everything it receives.
struct Pulser {
    count: u32,
    spacing_us: u64,
    sent: u32,
    out: Option<LinkId>,
    received: Vec<(u64, u32)>, // (us, seq)
}

impl Pulser {
    fn new(count: u32, spacing_us: u64) -> Pulser {
        Pulser {
            count,
            spacing_us,
            sent: 0,
            out: None,
            received: Vec::new(),
        }
    }
}

fn mk_pkt(seq: u32, len: usize) -> Packet {
    Packet::new(
        TcpHeader {
            flow: FlowId {
                src: HostAddr(1),
                dst: HostAddr(2),
                sport: 1,
                dport: 2,
            },
            seq,
            ack: 0,
            flags: TcpFlags::ACK,
            window: 0,
            ts_val: 0,
            ts_ecr: 0,
        },
        Bytes::from(vec![0u8; len]),
    )
}

impl Node for Pulser {
    fn on_start(&mut self, ctx: &mut Ctx<'_>) {
        self.out = ctx.egress_links().first().copied();
        if self.count > 0 {
            ctx.schedule(SimDuration::ZERO);
        }
    }
    fn on_packet(&mut self, ctx: &mut Ctx<'_>, _from: LinkId, pkt: Packet) {
        self.received.push((ctx.now().as_micros(), pkt.header.seq));
    }
    fn on_timer(&mut self, ctx: &mut Ctx<'_>, _t: TimerId) {
        if let Some(link) = self.out {
            ctx.send(link, mk_pkt(self.sent, 200));
            self.sent += 1;
            if self.sent < self.count {
                ctx.schedule(SimDuration::from_micros(self.spacing_us));
            }
        }
    }
}

struct Built {
    sim: Simulator,
    sink: NodeId,
    link: LinkId,
}

fn build(count: u32, spacing_us: u64, cfg: LinkConfig, faults: FaultConfig, seed: u64) -> Built {
    let mut sim = Simulator::new(seed);
    let a = sim.add_node(Pulser::new(count, spacing_us));
    let b = sim.add_node(Pulser::new(0, 0));
    let (ab, _) = sim.connect(a, b, cfg);
    sim.attach_faults(ab, faults);
    Built {
        sim,
        sink: b,
        link: ab,
    }
}

/// Every packet submitted to a faulty link is accounted for exactly once:
/// fault-evaluated originals plus injected duplicates either reach the
/// link (sent, dropped by loss, dropped by queue) or are removed by the
/// fault layer (burst loss, scripted outage).
#[test]
fn fault_layer_conserves_packets() {
    check::run("fault_layer_conserves_packets", 32, |g: &mut Gen| {
        let count = g.u32(1, 300);
        let mut faults = FaultConfig::none();
        if g.bool(0.7) {
            faults =
                faults.with_burst_loss(GilbertElliott::bursty(g.f64(0.0, 0.5), g.f64(1.0, 8.0)));
        }
        if g.bool(0.7) {
            faults = faults.with_reorder(Reorder {
                probability: g.f64(0.0, 0.5),
                delay_min: SimDuration::from_micros(g.u64(0, 500)),
                delay_max: SimDuration::from_micros(g.u64(500, 5_000)),
            });
        }
        if g.bool(0.7) {
            faults = faults.with_duplicate(Duplicate {
                probability: g.f64(0.0, 0.3),
                delay: SimDuration::from_micros(g.u64(1, 1_000)),
            });
        }
        if g.bool(0.3) {
            let down_at = SimTime::from_micros(g.u64(0, 10_000));
            faults = faults.with_flap(down_at, SimDuration::from_micros(g.u64(1, 10_000)));
        }
        let link_loss = if g.bool(0.5) { g.f64(0.0, 0.3) } else { 0.0 };
        let built = build(
            count,
            g.u64(1, 200),
            LinkConfig::lan().with_loss(link_loss),
            faults,
            g.u64(0, 9_999),
        );
        let mut sim = built.sim;
        sim.run_until(SimTime::from_secs(300));
        assert_eq!(sim.pending_events(), 0, "simulation must drain");

        let fs = sim.fault_stats(built.link).expect("faults attached");
        let ls = sim.link_stats(built.link);
        prop_assert_eq!(fs.evaluated, u64::from(count), "every send evaluated once");
        prop_assert_eq!(
            fs.evaluated + fs.duplicated,
            ls.sent + ls.dropped_loss + ls.dropped_queue + fs.dropped(),
            "conservation: {fs:?} vs {ls:?}"
        );
        // Whatever the link accepted was delivered (nothing in flight).
        prop_assert_eq!(ls.sent, ls.delivered);
        prop_assert_eq!(
            ls.delivered,
            sim.node_ref::<Pulser>(built.sink).received.len() as u64
        );
    });
}

/// The Gilbert–Elliott chain's observed loss rate over a long run matches
/// its configured stationary average within tolerance.
#[test]
fn gilbert_elliott_long_run_loss_converges() {
    check::run(
        "gilbert_elliott_long_run_loss_converges",
        8,
        |g: &mut Gen| {
            let target = g.f64(0.02, 0.4);
            let burst = g.f64(1.0, 6.0);
            let ge = GilbertElliott::bursty(target, burst);
            prop_assert!((ge.long_run_loss() - target).abs() < 1e-9);

            let count = 40_000;
            let built = build(
                count,
                10,
                LinkConfig::lan(),
                FaultConfig::none().with_burst_loss(ge),
                g.u64(0, 9_999),
            );
            let mut sim = built.sim;
            sim.run_until(SimTime::from_secs(600));
            let fs = sim.fault_stats(built.link).expect("faults attached");
            let observed = fs.dropped_burst as f64 / fs.evaluated as f64;
            // Bursty losses are correlated, so the effective sample size is
            // roughly count / burst; 0.03 absolute tolerance is ~4 sigma.
            prop_assert!(
                (observed - target).abs() < 0.03,
                "observed {observed}, target {target}, burst {burst}"
            );
        },
    );
}

/// A scripted flap drops exactly the packets submitted inside the outage
/// window and delivers the rest.
#[test]
fn scripted_flap_window_is_exact() {
    // 100 packets, 1 ms apart (sent at t = 0, 1, ..., 99 ms); link down
    // covering [30 ms, 60 ms).
    let faults =
        FaultConfig::none().with_flap(SimTime::from_millis(30), SimDuration::from_millis(30));
    let built = build(100, 1_000, LinkConfig::lan(), faults, 5);
    let mut sim = built.sim;
    sim.run_until(SimTime::from_secs(10));
    let fs = sim.fault_stats(built.link).unwrap();
    // Sends at 30..59 ms inclusive fall inside the window. The down event
    // at exactly 30 ms is scheduled before the send timer (attach_faults
    // runs first), so the 30 ms send is dropped too.
    assert_eq!(fs.dropped_down, 30, "{fs:?}");
    assert_eq!(fs.actions_applied, 2);
    let received = &sim.node_ref::<Pulser>(built.sink).received;
    assert_eq!(received.len(), 70);
    assert!(received.iter().all(|&(_, seq)| !(30..60).contains(&seq)));
}

/// Duplication delivers extra copies; reordering produces at least one
/// sequence inversion on an otherwise FIFO link.
#[test]
fn duplication_and_reordering_are_observable() {
    let faults = FaultConfig::none()
        .with_duplicate(Duplicate {
            probability: 0.2,
            delay: SimDuration::from_micros(50),
        })
        .with_reorder(Reorder {
            probability: 0.3,
            delay_min: SimDuration::from_millis(1),
            delay_max: SimDuration::from_millis(5),
        });
    let built = build(200, 100, LinkConfig::lan(), faults, 11);
    let mut sim = built.sim;
    sim.run_until(SimTime::from_secs(10));
    let fs = sim.fault_stats(built.link).unwrap();
    assert!(fs.duplicated > 0);
    assert!(fs.reordered > 0);
    let received = &sim.node_ref::<Pulser>(built.sink).received;
    assert_eq!(received.len() as u64, 200 + fs.duplicated);
    let seqs: Vec<u32> = received.iter().map(|&(_, s)| s).collect();
    assert!(
        seqs.windows(2).any(|w| w[0] > w[1]),
        "expected reordering, got FIFO delivery"
    );
}

/// Attaching faults keeps the simulation fully deterministic under a
/// fixed seed.
#[test]
fn faults_preserve_seed_determinism() {
    let run = |seed: u64| {
        let faults = FaultConfig::none()
            .with_burst_loss(GilbertElliott::bursty(0.1, 4.0))
            .with_reorder(Reorder {
                probability: 0.2,
                delay_min: SimDuration::from_micros(100),
                delay_max: SimDuration::from_millis(2),
            })
            .with_duplicate(Duplicate {
                probability: 0.1,
                delay: SimDuration::from_micros(10),
            });
        let built = build(500, 50, LinkConfig::lan().with_loss(0.05), faults, seed);
        let mut sim = built.sim;
        sim.run_until(SimTime::from_secs(60));
        (
            sim.node_ref::<Pulser>(built.sink).received.clone(),
            sim.fault_stats(built.link).unwrap(),
        )
    };
    assert_eq!(run(3), run(3));
    assert_ne!(run(3).0, run(4).0);
}
