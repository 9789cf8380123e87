//! Property tests for the QUIC-lite transport.
//!
//! Three families, per the subsystem's acceptance bar:
//!
//! 1. **Stream-data conservation under loss** — both a sans-I/O
//!    two-endpoint shuttle with seeded bursty drops and a full `netsim`
//!    page load with Gilbert–Elliott faults on the WAN link must deliver
//!    every stream byte exactly once, in order, despite retransmission.
//! 2. **ACK-range correctness** — [`AckRanges`] must agree with a naive
//!    sorted-set model under arbitrary insert sequences.
//! 3. **Deterministic replay** — identical seeds must reproduce identical
//!    transfers, byte for byte and counter for counter.

use h2priv_h2::{ClientConfig, ServerConfig};
use h2priv_netsim::faults::{FaultConfig, GilbertElliott};
use h2priv_netsim::middlebox::Passthrough;
use h2priv_netsim::packet::{FlowId, HostAddr};
use h2priv_netsim::rng::SimRng;
use h2priv_netsim::sim::Simulator;
use h2priv_netsim::time::{SimDuration, SimTime};
use h2priv_netsim::topology::{PathConfig, PathTopology};
use h2priv_quic::frame::MAX_ACK_RANGES;
use h2priv_quic::{
    AckRanges, H3ClientNode, H3ServerNode, QuicConfig, QuicConnection, QuicEvent, QuicStats,
};
use h2priv_tls::{RecordTag, TrafficClass};
use h2priv_util::bytes::Bytes;
use h2priv_util::check::{run, Gen};
use h2priv_util::{prop_assert, prop_assert_eq};
use h2priv_web::sites::blog_site;
use h2priv_web::{IsideWith, Site};
use std::collections::BTreeSet;

fn flows() -> (FlowId, FlowId) {
    let c2s = FlowId {
        src: HostAddr(1),
        dst: HostAddr(2),
        sport: 40_000,
        dport: 443,
    };
    (c2s, c2s.reversed())
}

/// Contiguous runs of a sorted-set model, ascending — the reference
/// [`AckRanges`] must agree with.
fn model_runs(model: &BTreeSet<u64>) -> Vec<(u64, u64)> {
    let mut runs: Vec<(u64, u64)> = Vec::new();
    for &pn in model {
        match runs.last_mut() {
            Some((_, end)) if *end + 1 == pn => *end = pn,
            _ => runs.push((pn, pn)),
        }
    }
    runs
}

#[test]
fn ack_ranges_match_sorted_set_model() {
    run("ack-ranges-vs-set-model", 256, |g: &mut Gen| {
        let mut ranges = AckRanges::new();
        let mut model: BTreeSet<u64> = BTreeSet::new();
        let ops = g.usize(1, 60);
        for _ in 0..ops {
            if g.bool(0.5) {
                let pn = g.u64(0, 150);
                let fresh = ranges.insert(pn);
                prop_assert_eq!(fresh, model.insert(pn));
            } else {
                let start = g.u64(0, 150);
                let end = start + g.u64(0, 12);
                let fresh = ranges.insert_range(start, end);
                let mut any_new = false;
                for pn in start..=end {
                    any_new |= model.insert(pn);
                }
                prop_assert_eq!(fresh, any_new);
            }
        }
        for pn in 0..=170u64 {
            prop_assert_eq!(ranges.contains(pn), model.contains(&pn));
        }
        let runs = model_runs(&model);
        prop_assert_eq!(ranges.iter().collect::<Vec<_>>(), runs.clone());
        prop_assert_eq!(ranges.range_count(), runs.len());
        let from_zero = match runs.first() {
            Some(&(0, e)) => e + 1,
            _ => 0,
        };
        prop_assert_eq!(ranges.contiguous_from_zero(), from_zero);
        // The wire encoding: the newest run plus older runs picked
        // round-robin from the cursor, or every run when few enough.
        let cursor = g.usize(0, 1_000);
        let wire: Vec<(u64, u64)> = if runs.len() <= MAX_ACK_RANGES {
            runs.clone()
        } else {
            let older = runs.len() - 1;
            let mut picks: Vec<usize> = (0..MAX_ACK_RANGES - 1)
                .map(|k| (cursor + k) % older)
                .collect();
            picks.sort_unstable();
            picks.dedup();
            picks
                .iter()
                .map(|&i| runs[i])
                .chain([runs[older]])
                .collect()
        };
        prop_assert_eq!(ranges.encode_rotating(&mut cursor.clone()).to_vec(), wire);
    });
}

/// One sans-I/O client↔server session: the server sends `bodies` (one
/// stream each, fin-terminated) across a wire that drops datagrams in
/// seeded Gilbert–Elliott-style bursts. Returns the per-stream delivered
/// bytes, per-stream fin flags, and both endpoints' counters.
fn lossy_session(
    seed: u64,
    drop_enter: f64,
    drop_exit: f64,
    bodies: &[Vec<u8>],
) -> (Vec<Vec<u8>>, Vec<bool>, QuicStats, QuicStats) {
    let (c2s, s2c) = flows();
    let mut client = QuicConnection::client(c2s, QuicConfig::default());
    let mut server = QuicConnection::server(s2c, QuicConfig::default());
    client.open();

    let mut wire_rng = SimRng::new(seed);
    let mut bad_state = false;
    let mut lose = move |rng: &mut SimRng| {
        if bad_state {
            if rng.chance(drop_exit) {
                bad_state = false;
            }
            true
        } else {
            bad_state = rng.chance(drop_enter);
            bad_state
        }
    };

    let mut delivered: Vec<Vec<u8>> = vec![Vec::new(); bodies.len()];
    let mut finished: Vec<bool> = vec![false; bodies.len()];
    let mut sent = false;
    let mut now = SimTime::ZERO;
    let deadline = now + SimDuration::from_secs(120);
    while now < deadline {
        loop {
            let mut moved = false;
            while let Some((_, payload)) = client.poll_datagram(now) {
                moved = true;
                if !lose(&mut wire_rng) {
                    server.on_datagram(now, &payload);
                }
            }
            while let Some((_, payload)) = server.poll_datagram(now) {
                moved = true;
                if !lose(&mut wire_rng) {
                    client.on_datagram(now, &payload);
                }
            }
            if !moved {
                break;
            }
        }
        if client.is_established() && server.is_established() && !sent {
            sent = true;
            for (i, body) in bodies.iter().enumerate() {
                let tag = RecordTag {
                    stream_id: i as u32 * 4,
                    object_id: i as u32,
                    copy: 0,
                    class: TrafficClass::ObjectData,
                };
                server.stream_send(i as u32 * 4, Bytes::from(body.clone()), true, tag);
            }
        }
        while let Some(ev) = client.poll_event() {
            if let QuicEvent::Stream { id, data, fin } = ev {
                let i = (id / 4) as usize;
                delivered[i].extend_from_slice(&data.to_vec());
                finished[i] |= fin;
            }
        }
        if sent && finished.iter().all(|f| *f) {
            break;
        }
        now += SimDuration::from_millis(5);
        client.on_timer(now);
        server.on_timer(now);
    }
    (delivered, finished, *client.stats(), *server.stats())
}

#[test]
fn stream_data_is_conserved_under_bursty_loss() {
    run("sans-io-conservation-under-loss", 48, |g: &mut Gen| {
        let n = g.usize(1, 4);
        let bodies: Vec<Vec<u8>> = (0..n)
            .map(|_| {
                let len = g.usize(0, 30_000);
                (0..len).map(|_| g.u8(0, u8::MAX)).collect()
            })
            .collect();
        let drop_enter = g.f64(0.0, 0.22);
        let drop_exit = g.f64(0.5, 0.9);
        let seed = g.u64(0, u64::MAX);
        let (delivered, finished, client, _server) =
            lossy_session(seed, drop_enter, drop_exit, &bodies);
        for (i, body) in bodies.iter().enumerate() {
            // Conservation: whatever the wire dropped or retransmitted,
            // delivery is an exact in-order prefix — never corrupted,
            // duplicated or reordered — and a fin means the whole body.
            prop_assert!(delivered[i].len() <= body.len());
            prop_assert_eq!(&delivered[i][..], &body[..delivered[i].len()]);
            if finished[i] {
                prop_assert_eq!(delivered[i].len(), body.len());
            }
        }
        // Exactly-once delivery: the application-visible count equals the
        // in-order bytes handed up, not the wire's retransmission volume.
        let total: u64 = delivered.iter().map(|d| d.len() as u64).sum();
        prop_assert_eq!(client.stream_bytes_delivered, total);
        // Survivable loss (PTO backoff comfortably inside the deadline)
        // must complete every stream; heavier bursts may legitimately end
        // in the connection's PTO-abort instead.
        if drop_enter < 0.05 {
            for (i, fin) in finished.iter().enumerate() {
                prop_assert!(*fin, "stream {i} unfinished under survivable loss");
            }
        }
    });
}

#[test]
fn sans_io_replay_is_deterministic() {
    let bodies: Vec<Vec<u8>> = vec![vec![7u8; 12_345], vec![9u8; 0], vec![3u8; 30_000]];
    let a = lossy_session(0xDEAD_BEEF, 0.15, 0.5, &bodies);
    let b = lossy_session(0xDEAD_BEEF, 0.15, 0.5, &bodies);
    assert_eq!(a.0, b.0);
    assert_eq!(a.1, b.1);
    assert_eq!(a.2, b.2);
    assert_eq!(a.3, b.3);
    // A different wire seed must still conserve data (the property above)
    // but takes a different retransmission path at this loss rate.
    let c = lossy_session(0xBEEF_DEAD, 0.15, 0.5, &bodies);
    assert_eq!(c.0, a.0);
    assert!(c.2 != a.2 || c.3 != a.3);
}

/// Outcome of one full H3 page load over `netsim` with Gilbert–Elliott
/// burst loss on the WAN half of the path.
struct FaultedTrial {
    client: QuicStats,
    server: QuicStats,
    page_done: bool,
    objects_completed: usize,
    objects_total: usize,
    ended_at: SimTime,
}

/// An H3 client loading `site` from a server holding `server_site` (which
/// may lack objects the client plans) on a default path, not yet run.
fn h3_page_load(seed: u64, site: Site, server_site: Site) -> (Simulator, PathTopology) {
    let mut sim = Simulator::new(seed);
    let path = PathConfig::default();
    let client_cfg = ClientConfig {
        addr: path.client_addr,
        server_addr: path.server_addr,
        ..ClientConfig::default()
    };
    let server_cfg = ServerConfig {
        addr: path.server_addr,
        client_addr: path.client_addr,
        ..ServerConfig::default()
    };
    let client = H3ClientNode::new(site, client_cfg);
    let server = H3ServerNode::new(server_site, server_cfg);
    let topo = PathTopology::build(&mut sim, client, Box::new(Passthrough), server, &path);
    (sim, topo)
}

fn h3_faulted_trial(seed: u64, target_loss: f64, burst: f64) -> FaultedTrial {
    let mut perm_rng = SimRng::new(seed.wrapping_mul(0x9E37_79B9_7F4A_7C15).wrapping_add(1));
    let site = IsideWith::generate(&mut perm_rng).site;
    let (mut sim, topo) = h3_page_load(seed, site.clone(), site);
    let ge = FaultConfig::none().with_burst_loss(GilbertElliott::bursty(target_loss, burst));
    sim.attach_faults(topo.mbox_to_server, ge.clone());
    sim.attach_faults(topo.server_to_mbox, ge);
    sim.run_until(SimTime::ZERO + SimDuration::from_secs(300));
    let report = sim.node_mut::<H3ClientNode>(topo.client).take_report();
    let client_node = sim.node_ref::<H3ClientNode>(topo.client);
    let server_node = sim.node_ref::<H3ServerNode>(topo.server);
    FaultedTrial {
        client: *client_node.quic_stats(),
        server: *server_node.quic_stats(),
        page_done: report.page_completed_at.is_some(),
        objects_completed: report
            .objects
            .iter()
            .filter(|o| o.completed_at.is_some())
            .count(),
        objects_total: report.objects.len(),
        ended_at: sim.now(),
    }
}

#[test]
fn h3_page_load_conserves_objects_under_gilbert_elliott_loss() {
    run("h3-page-load-under-ge-loss", 4, |g: &mut Gen| {
        let seed = g.u64(1, 1 << 40);
        let target_loss = g.f64(0.005, 0.06);
        let burst = g.f64(1.5, 5.0);
        let trial = h3_faulted_trial(seed, target_loss, burst);
        // Conservation through recovery: the page finishes, every planned
        // object's body arrives in full, and the client never delivers
        // more stream bytes than the server originated.
        prop_assert!(
            trial.page_done,
            "page did not complete (loss {target_loss:.3})"
        );
        prop_assert_eq!(trial.objects_completed, trial.objects_total);
        prop_assert!(trial.client.stream_bytes_delivered <= trial.server.stream_bytes_sent);
        prop_assert!(
            trial.server.loss_retransmits + trial.server.pto_retransmits > 0 || target_loss < 0.01
        );
    });
}

#[test]
fn h3_netsim_replay_is_deterministic() {
    let a = h3_faulted_trial(4242, 0.04, 3.0);
    let b = h3_faulted_trial(4242, 0.04, 3.0);
    assert_eq!(a.client, b.client);
    assert_eq!(a.server, b.server);
    assert_eq!(a.page_done, b.page_done);
    assert_eq!(a.objects_completed, b.objects_completed);
    assert_eq!(a.ended_at, b.ended_at);
}

#[test]
fn h3_get_for_an_unknown_path_is_refused() {
    // The server lacks the blog's last planned object, a leaf no other
    // step waits on.
    let site = blog_site();
    let missing = site.by_path("/app.js").expect("blog plans /app.js").id;
    let objects = site
        .objects()
        .iter()
        .filter(|o| o.id != missing)
        .cloned()
        .collect();
    let plan = site
        .plan
        .iter()
        .filter(|s| s.object != missing)
        .cloned()
        .collect();
    let server_site = Site::new("blog-without-app", objects, plan);
    let (mut sim, topo) = h3_page_load(47, site, server_site);
    sim.run_until(SimTime::ZERO + SimDuration::from_secs(90));
    let report = sim.node_mut::<H3ClientNode>(topo.client).take_report();
    let server = sim.node_ref::<H3ServerNode>(topo.server);
    // RESET_STREAM: no worker, no served copy.
    assert_eq!(server.copies_served(missing), 0);
    assert!(server.serve_log().iter().all(|s| s.object != missing));
    let refused: Vec<_> = report
        .requests
        .iter()
        .filter(|r| r.object == missing)
        .collect();
    assert!(!refused.is_empty(), "the client asked for {missing:?}");
    assert!(
        refused.iter().all(|r| r.reset && r.completed_at.is_none()),
        "every GET for the missing object ends reset: {refused:?}"
    );
    for o in report.objects.iter().filter(|o| o.object != missing) {
        assert!(o.completed_at.is_some(), "object {:?} completes", o.object);
    }
    assert!(report.page_completed_at.is_none());
}
