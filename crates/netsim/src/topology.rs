//! Topology builders.
//!
//! The paper's setup is always a three-node path:
//! `client — compromised gateway (middlebox) — server`.
//! [`PathTopology::build`] wires that up and returns all the ids needed to
//! inspect the pieces after a run.

use crate::link::{LinkConfig, LinkId};
use crate::middlebox::{Middlebox, MiddleboxPolicy};
use crate::node::{Node, NodeId};
use crate::packet::HostAddr;
use crate::sim::Simulator;
use crate::time::SimDuration;

/// Link configuration for the two halves of the client—middlebox—server
/// path, plus the host addresses.
#[derive(Debug, Clone)]
pub struct PathConfig {
    /// Client ↔ middlebox (both directions share this config).
    pub client_link: LinkConfig,
    /// Middlebox ↔ server (both directions share this config).
    pub server_link: LinkConfig,
    /// Address assigned to the client host.
    pub client_addr: HostAddr,
    /// Address assigned to the server host.
    pub server_addr: HostAddr,
}

impl Default for PathConfig {
    /// A LAN client behind a 1 Gbps gateway talking to a server ~10 ms
    /// away (≈20 ms RTT) over a WAN with a small natural loss rate,
    /// echoing the paper's lab-gateway setup (their baseline
    /// retransmission count is nonzero, Table I).
    fn default() -> Self {
        PathConfig {
            client_link: LinkConfig::lan(),
            server_link: LinkConfig::wan(SimDuration::from_millis(10)).with_loss(0.003),
            client_addr: HostAddr(1),
            server_addr: HostAddr(2),
        }
    }
}

/// Ids of everything on a built client—middlebox—server path.
#[derive(Debug, Clone, Copy)]
pub struct PathTopology {
    /// The client node.
    pub client: NodeId,
    /// The middlebox node (a [`Middlebox`]).
    pub middlebox: NodeId,
    /// The server node.
    pub server: NodeId,
    /// Link client → middlebox.
    pub client_to_mbox: LinkId,
    /// Link middlebox → client.
    pub mbox_to_client: LinkId,
    /// Link middlebox → server.
    pub mbox_to_server: LinkId,
    /// Link server → middlebox.
    pub server_to_mbox: LinkId,
}

impl PathTopology {
    /// Adds the three nodes and four links to `sim` and wires the
    /// middlebox ports.
    pub fn build<C, S>(
        sim: &mut Simulator,
        client: C,
        policy: Box<dyn MiddleboxPolicy>,
        server: S,
        cfg: &PathConfig,
    ) -> PathTopology
    where
        C: Node + 'static,
        S: Node + 'static,
    {
        let client_id = sim.add_node(client);
        let mbox_id = sim.add_node(Middlebox::new(policy));
        let server_id = sim.add_node(server);
        let (c2m, m2c) = sim.connect(client_id, mbox_id, cfg.client_link);
        let (m2s, s2m) = sim.connect(mbox_id, server_id, cfg.server_link);
        sim.node_mut::<Middlebox>(mbox_id)
            .set_ports(m2c, m2s, c2m, s2m);
        PathTopology {
            client: client_id,
            middlebox: mbox_id,
            server: server_id,
            client_to_mbox: c2m,
            mbox_to_client: m2c,
            mbox_to_server: m2s,
            server_to_mbox: s2m,
        }
    }
}

/// Ids of a split path: the standard tapped path plus a second,
/// *untapped* gateway (connection-migration style traffic splitting —
/// bytes routed via the alternate path never reach the adversary's
/// capture).
#[derive(Debug, Clone, Copy)]
pub struct SplitPathTopology {
    /// The primary (tapped) path.
    pub path: PathTopology,
    /// The alternate middlebox node (untapped, always forwarding).
    pub alt_middlebox: NodeId,
    /// Link client → alternate middlebox.
    pub client_to_alt: LinkId,
    /// Link alternate middlebox → client.
    pub alt_to_client: LinkId,
    /// Link alternate middlebox → server.
    pub alt_to_server: LinkId,
    /// Link server → alternate middlebox.
    pub server_to_alt: LinkId,
}

impl SplitPathTopology {
    /// Like [`PathTopology::build`], plus a second client—gateway—server
    /// path through an untapped [`Middlebox`] running
    /// [`crate::middlebox::Passthrough`]. Endpoint egress link order:
    /// the primary path's link first, the alternate second — endpoints
    /// that only know one link keep working unchanged on `egress[0]`.
    pub fn build<C, S>(
        sim: &mut Simulator,
        client: C,
        policy: Box<dyn MiddleboxPolicy>,
        server: S,
        cfg: &PathConfig,
    ) -> SplitPathTopology
    where
        C: Node + 'static,
        S: Node + 'static,
    {
        let client_id = sim.add_node(client);
        let mbox_id = sim.add_node(Middlebox::new(policy));
        let server_id = sim.add_node(server);
        let (c2m, m2c) = sim.connect(client_id, mbox_id, cfg.client_link);
        let (m2s, s2m) = sim.connect(mbox_id, server_id, cfg.server_link);
        sim.node_mut::<Middlebox>(mbox_id)
            .set_ports(m2c, m2s, c2m, s2m);
        let alt_id = sim.add_node(Middlebox::untapped(Box::new(crate::middlebox::Passthrough)));
        let (c2a, a2c) = sim.connect(client_id, alt_id, cfg.client_link);
        let (a2s, s2a) = sim.connect(alt_id, server_id, cfg.server_link);
        sim.node_mut::<Middlebox>(alt_id)
            .set_ports(a2c, a2s, c2a, s2a);
        SplitPathTopology {
            path: PathTopology {
                client: client_id,
                middlebox: mbox_id,
                server: server_id,
                client_to_mbox: c2m,
                mbox_to_client: m2c,
                mbox_to_server: m2s,
                server_to_mbox: s2m,
            },
            alt_middlebox: alt_id,
            client_to_alt: c2a,
            alt_to_client: a2c,
            alt_to_server: a2s,
            server_to_alt: s2a,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::middlebox::Passthrough;
    use crate::node::Ctx;
    use crate::node::TimerId;
    use crate::packet::Packet;

    struct Dummy;
    impl Node for Dummy {
        fn on_packet(&mut self, _c: &mut Ctx<'_>, _f: LinkId, _p: Packet) {}
        fn on_timer(&mut self, _c: &mut Ctx<'_>, _t: TimerId) {}
    }

    #[test]
    fn build_wires_three_nodes_and_four_links() {
        let mut sim = Simulator::new(0);
        let topo = PathTopology::build(
            &mut sim,
            Dummy,
            Box::new(Passthrough),
            Dummy,
            &PathConfig::default(),
        );
        assert_ne!(topo.client, topo.server);
        assert_ne!(topo.client, topo.middlebox);
        // Links have distinct ids.
        let ids = [
            topo.client_to_mbox,
            topo.mbox_to_client,
            topo.mbox_to_server,
            topo.server_to_mbox,
        ];
        for i in 0..4 {
            for j in (i + 1)..4 {
                assert_ne!(ids[i], ids[j]);
            }
        }
    }

    #[test]
    fn split_path_adds_untapped_second_gateway() {
        use crate::capture::{shared, CountingSink};
        use crate::middlebox::Middlebox;
        use crate::packet::{FlowId, Packet, TcpFlags, TcpHeader};
        use h2priv_util::bytes::Bytes;

        /// Sends one packet down each of its egress links at t=0.
        struct Fan;
        impl Node for Fan {
            fn on_start(&mut self, ctx: &mut Ctx<'_>) {
                ctx.schedule(SimDuration::ZERO);
            }
            fn on_packet(&mut self, _c: &mut Ctx<'_>, _f: LinkId, _p: Packet) {}
            fn on_timer(&mut self, ctx: &mut Ctx<'_>, _t: TimerId) {
                let links = ctx.egress_links();
                for link in links {
                    let pkt = Packet::new(
                        TcpHeader {
                            flow: FlowId {
                                src: HostAddr(1),
                                dst: HostAddr(2),
                                sport: 40_000,
                                dport: 443,
                            },
                            seq: 0,
                            ack: 0,
                            flags: TcpFlags::ACK,
                            window: 0,
                            ts_val: 0,
                            ts_ecr: 0,
                        },
                        Bytes::from(vec![0u8; 64]),
                    );
                    ctx.send(link, pkt);
                }
            }
        }

        let mut sim = Simulator::new(7);
        let sink = shared(CountingSink::default());
        sim.set_capture_sink(sink.clone());
        let topo = SplitPathTopology::build(
            &mut sim,
            Fan,
            Box::new(Passthrough),
            Dummy,
            &PathConfig::default(),
        );
        sim.run_until(crate::time::SimTime::from_secs(5));
        // Both gateways forwarded one packet each…
        assert_eq!(
            sim.node_ref::<Middlebox>(topo.path.middlebox)
                .stats()
                .forwarded,
            1
        );
        assert_eq!(
            sim.node_ref::<Middlebox>(topo.alt_middlebox)
                .stats()
                .forwarded,
            1
        );
        // …but only the tapped one reached the capture sink.
        assert_eq!(sink.borrow().middlebox, 1);
    }

    #[test]
    fn default_config_has_wan_rtt() {
        let cfg = PathConfig::default();
        // Two traversals of each one-way delay ≈ 20.2 ms RTT.
        let rtt = (cfg.client_link.delay + cfg.server_link.delay) * 2;
        assert_eq!(rtt.as_millis(), 20);
    }
}
