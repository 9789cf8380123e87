//! Property tests for the simulator core: determinism, link FIFO
//! ordering, conservation of packets, and middlebox verdict behaviour
//! under randomized workloads.

use h2priv_netsim::middlebox::{MiddleboxPolicy, PacketView, PolicyCtx, Verdict};
use h2priv_netsim::prelude::*;
use h2priv_util::bytes::Bytes;
use h2priv_util::check::{self, Gen};
use h2priv_util::{prop_assert, prop_assert_eq};

/// A node that sends `plan` packets at given times on its first egress
/// link and records everything it receives.
struct Scripted {
    plan: Vec<(u64, u32, usize)>, // (send at ms, seq, payload len)
    sent: Vec<bool>,
    out: Option<LinkId>,
    received: Vec<(u64, u32)>, // (ms, seq)
}

impl Scripted {
    fn new(plan: Vec<(u64, u32, usize)>) -> Scripted {
        let sent = vec![false; plan.len()];
        Scripted {
            plan,
            sent,
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

impl Node for Scripted {
    fn on_start(&mut self, ctx: &mut Ctx<'_>) {
        self.out = ctx.egress_links().first().copied();
        for (at, _, _) in &self.plan {
            ctx.schedule_at(SimTime::from_millis(*at));
        }
    }
    fn on_packet(&mut self, ctx: &mut Ctx<'_>, _from: LinkId, pkt: Packet) {
        self.received.push((ctx.now().as_millis(), pkt.header.seq));
    }
    fn on_timer(&mut self, ctx: &mut Ctx<'_>, _t: TimerId) {
        // Send every plan entry whose time has arrived and not yet sent.
        let now = ctx.now().as_millis();
        let due: Vec<(usize, u32, usize)> = self
            .plan
            .iter()
            .enumerate()
            .filter(|(i, (at, _, _))| *at <= now && !self.sent[*i])
            .map(|(i, (_, s, l))| (i, *s, *l))
            .collect();
        if let Some(link) = self.out {
            for (i, seq, len) in due {
                self.sent[i] = true;
                ctx.send(link, mk_pkt(seq, len));
            }
        }
    }
}

fn run_pair(plan: Vec<(u64, u32, usize)>, cfg: LinkConfig, seed: u64) -> Vec<(u64, u32)> {
    let mut sim = Simulator::new(seed);
    let a = sim.add_node(Scripted::new(plan));
    let b = sim.add_node(Scripted::new(vec![]));
    sim.connect(a, b, cfg);
    sim.run_until(SimTime::from_secs(120));
    sim.node_ref::<Scripted>(b).received.clone()
}

/// On a lossless link, every packet is delivered exactly once and in
/// FIFO order per send instant.
#[test]
fn lossless_link_conserves_and_orders() {
    check::run("lossless_link_conserves_and_orders", 48, |g: &mut Gen| {
        let n = g.usize(1, 39);
        let sends: Vec<(u64, usize)> = (0..n).map(|_| (g.u64(0, 199), g.usize(1, 2_999))).collect();
        let seed = g.u64(0, 999);
        let plan: Vec<(u64, u32, usize)> = sends
            .iter()
            .enumerate()
            .map(|(i, (at, len))| (*at, i as u32, *len))
            .collect();
        let received = run_pair(plan.clone(), LinkConfig::lan(), seed);
        prop_assert_eq!(received.len(), plan.len(), "conservation");
        // Delivery time order must be non-decreasing, and among packets
        // sent at the same instant, seq order is preserved (FIFO link).
        for w in received.windows(2) {
            prop_assert!(w[0].0 <= w[1].0, "delivery times must be ordered");
        }
        let mut by_instant: std::collections::HashMap<u64, Vec<u32>> = Default::default();
        for (at, seq, _) in &plan {
            by_instant.entry(*at).or_default().push(*seq);
        }
        for seqs in by_instant.values() {
            let pos: Vec<usize> = seqs
                .iter()
                .map(|s| {
                    received
                        .iter()
                        .position(|(_, r)| r == s)
                        .expect("delivered")
                })
                .collect();
            for w in pos.windows(2) {
                prop_assert!(w[0] < w[1], "same-instant sends must stay FIFO");
            }
        }
    });
}

/// Loss never duplicates or reorders what does get through, and the
/// delivered set is a subset of the sent set.
#[test]
fn lossy_link_delivers_subset() {
    check::run("lossy_link_delivers_subset", 48, |g: &mut Gen| {
        let n = g.usize(1, 59);
        let loss = g.f64_unit();
        let seed = g.u64(0, 999);
        let plan: Vec<(u64, u32, usize)> = (0..n).map(|i| (i as u64, i as u32, 100)).collect();
        let received = run_pair(plan, LinkConfig::lan().with_loss(loss), seed);
        prop_assert!(received.len() <= n);
        let mut seen = std::collections::HashSet::new();
        for (_, seq) in &received {
            prop_assert!((*seq as usize) < n, "delivered something never sent");
            prop_assert!(seen.insert(*seq), "duplicate delivery");
        }
        // FIFO even under loss.
        for w in received.windows(2) {
            prop_assert!(w[0].1 < w[1].1, "lossy FIFO violated");
        }
    });
}

/// The same seed gives the same trace; a different seed may differ
/// but only in loss outcomes.
#[test]
fn determinism_under_seed() {
    check::run("determinism_under_seed", 48, |g: &mut Gen| {
        let n = g.usize(1, 39);
        let seed = g.u64(0, 999);
        let plan: Vec<(u64, u32, usize)> = (0..n).map(|i| (i as u64 * 3, i as u32, 500)).collect();
        let cfg = LinkConfig::lan().with_loss(0.4);
        let a = run_pair(plan.clone(), cfg, seed);
        let b = run_pair(plan, cfg, seed);
        prop_assert_eq!(a, b);
    });
}

/// A policy that delays even-seq packets and drops seq % 5 == 4.
struct EvenDelayer;
impl MiddleboxPolicy for EvenDelayer {
    fn on_packet(
        &mut self,
        _ctx: &mut PolicyCtx<'_, '_>,
        _dir: Direction,
        pkt: PacketView<'_>,
    ) -> Verdict {
        let seq = pkt.header().seq;
        if seq % 5 == 4 {
            Verdict::Drop
        } else if seq.is_multiple_of(2) {
            Verdict::Delay(SimDuration::from_millis(40))
        } else {
            Verdict::Forward
        }
    }
}

#[test]
fn middlebox_delays_create_reordering_and_drops_remove() {
    let n = 20u32;
    let plan: Vec<(u64, u32, usize)> = (0..n).map(|i| (i as u64, i, 200)).collect();
    let mut sim = Simulator::new(7);
    let topo = PathTopology::build(
        &mut sim,
        Scripted::new(plan),
        Box::new(EvenDelayer),
        Scripted::new(vec![]),
        &PathConfig {
            server_link: LinkConfig::wan(SimDuration::from_millis(5)),
            ..PathConfig::default()
        },
    );
    sim.run_until(SimTime::from_secs(10));
    let received = &sim.node_ref::<Scripted>(topo.server).received;
    let dropped: Vec<u32> = (0..n).filter(|s| s % 5 == 4).collect();
    for d in &dropped {
        assert!(
            !received.iter().any(|(_, s)| s == d),
            "dropped seq {d} was delivered"
        );
    }
    assert_eq!(received.len() as u32, n - dropped.len() as u32);
    // Delayed evens arrive after nearby odds: at least one inversion.
    let seqs: Vec<u32> = received.iter().map(|(_, s)| *s).collect();
    assert!(
        seqs.windows(2).any(|w| w[0] > w[1]),
        "expected reordering from selective delays, got {seqs:?}"
    );
}

#[test]
fn bandwidth_change_applies_to_later_packets() {
    // Two bursts; between them the link is throttled via a policy-less
    // direct call (tested at the simulator API level elsewhere); here we
    // verify the throttle path through the middlebox policy ctx.
    struct ThrottleOnFirst {
        done: bool,
    }
    impl MiddleboxPolicy for ThrottleOnFirst {
        fn on_packet(
            &mut self,
            ctx: &mut PolicyCtx<'_, '_>,
            dir: Direction,
            _pkt: PacketView<'_>,
        ) -> Verdict {
            if !self.done && dir == Direction::ClientToServer {
                self.done = true;
                ctx.set_bandwidth(Direction::ClientToServer, Some(Bandwidth::kbps(80)));
            }
            Verdict::Forward
        }
    }
    // 10 kB payloads: at 1 Gbps they cross instantly; at 80 kbps each
    // takes ~1 s of serialization.
    let plan: Vec<(u64, u32, usize)> = (0..3).map(|i| (i as u64, i as u32, 10_000)).collect();
    let mut sim = Simulator::new(1);
    let topo = PathTopology::build(
        &mut sim,
        Scripted::new(plan),
        Box::new(ThrottleOnFirst { done: false }),
        Scripted::new(vec![]),
        &PathConfig::default(),
    );
    sim.run_until(SimTime::from_secs(60));
    let received = &sim.node_ref::<Scripted>(topo.server).received;
    assert_eq!(received.len(), 3);
    // The throttle applies from the first packet's own egress onwards:
    // each ~10 kB packet serializes for ~1 s at 80 kbps.
    assert!(received[0].0 > 900, "throttle must apply: {received:?}");
    for w in received.windows(2) {
        assert!(
            w[1].0 - w[0].0 > 900,
            "packets must serialize ~1 s apart: {received:?}"
        );
    }
}
