//! A dual-NAT topology for peer-to-peer traversal experiments — the STUN /
//! hole-punching measurements the paper schedules as future work (§5).
//!
//! ```text
//!   client A ──(LAN)── gateway A ──(WAN)──┐
//!                                         ├── rendezvous server (routes
//!   client B ──(LAN)── gateway B ──(WAN)──┘    between its two subnets)
//! ```
//!
//! The rendezvous server plays both the STUN server (it reports each
//! client's external endpoint) and "the Internet" (it forwards packets
//! between the two gateway subnets).
//!
//! Since PR 7 this is a preset over
//! [`TopologyBuilder`], not a parallel hand-rolled
//! implementation: the node graph (and therefore every RNG stream and
//! event sequence) is identical to the seed's, but nested-NAT variants are
//! now one `link` call away. Hosts are addressed with
//! [`HostId`] — `Side` converts via `side.into()`.

use std::net::Ipv4Addr;

use hgw_core::{LinkConfig, NodeCtx, NodeId, PortId};
use hgw_gateway::{Gateway, GatewayPolicy, LAN_PORT, WAN_PORT};
use hgw_stack::dhcp::{DhcpServerConfig, DnsServers};
use hgw_stack::host::Host;
use hgw_stack::iface::IfaceConfig;

use crate::topology::{HostId, Topology, TopologyBuilder};

/// Which side of the dual topology.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Side {
    /// Client/gateway A (subnets 192.168.101.0/24 and 10.0.101.0/24).
    A,
    /// Client/gateway B (subnets 192.168.102.0/24 and 10.0.102.0/24).
    B,
}

/// Two clients behind two (possibly different) gateways, joined by a
/// routing rendezvous server. Derefs to [`Topology`] for the generic
/// surface (`sim`, `run_for`, `with_node`, …).
pub struct DualNatTestbed {
    /// The underlying topology.
    pub topo: Topology,
    /// Client behind gateway A.
    pub client_a: NodeId,
    /// Client behind gateway B.
    pub client_b: NodeId,
    /// Gateway A.
    pub gateway_a: NodeId,
    /// Gateway B.
    pub gateway_b: NodeId,
    /// The rendezvous/router node.
    pub server: NodeId,
    /// The server's address on the A side (`10.0.101.1`).
    pub server_addr_a: Ipv4Addr,
    /// The server's address on the B side (`10.0.102.1`).
    pub server_addr_b: Ipv4Addr,
}

impl std::ops::Deref for DualNatTestbed {
    type Target = Topology;
    fn deref(&self) -> &Topology {
        &self.topo
    }
}

impl std::ops::DerefMut for DualNatTestbed {
    fn deref_mut(&mut self) -> &mut Topology {
        &mut self.topo
    }
}

const IDX_A: u8 = 101;
const IDX_B: u8 = 102;

impl DualNatTestbed {
    /// Builds and boots the topology; panics if bring-up fails.
    pub fn new(
        tag_a: &str,
        policy_a: GatewayPolicy,
        tag_b: &str,
        policy_b: GatewayPolicy,
        seed: u64,
    ) -> DualNatTestbed {
        let mut b = TopologyBuilder::new(seed);
        let server_addr_a = Ipv4Addr::new(10, 0, IDX_A, 1);
        let server_addr_b = Ipv4Addr::new(10, 0, IDX_B, 1);

        let mut server = Host::new("rendezvous");
        server.forwarding = true;
        for (port, addr, idx) in
            [(PortId(0), server_addr_a, IDX_A), (PortId(1), server_addr_b, IDX_B)]
        {
            server.add_iface(port, IfaceConfig::new(addr, 24));
            server.enable_dhcp_server(
                port,
                DhcpServerConfig {
                    server_addr: addr,
                    pool_start: Ipv4Addr::new(10, 0, idx, 50),
                    pool_size: 16,
                    subnet_mask: Ipv4Addr::new(255, 255, 255, 0),
                    router: Some(addr),
                    dns_servers: DnsServers::from_slice(&[addr]),
                    lease_secs: 7 * 24 * 3600,
                },
            );
        }

        let mut client_a = Host::new("client-a");
        client_a.enable_dhcp_client(PortId(0), [0x02, 0xAA, 0, 0, 0, IDX_A]);
        let mut client_b = Host::new("client-b");
        client_b.enable_dhcp_client(PortId(0), [0x02, 0xBB, 0, 0, 0, IDX_B]);

        // Node and link order below is the seed repo's (clients, gateways,
        // rendezvous) — part of the reproducibility contract.
        let client_a = b.host("client-a", client_a);
        let client_b = b.host("client-b", client_b);
        let gateway_a = b.gateway("gateway-a", Gateway::new(tag_a, policy_a, IDX_A));
        let gateway_b = b.gateway("gateway-b", Gateway::new(tag_b, policy_b, IDX_B));
        let server = b.host("rendezvous", server);
        b.link(client_a, PortId(0), gateway_a, LAN_PORT, LinkConfig::ethernet_100m());
        b.link(gateway_a, WAN_PORT, server, PortId(0), LinkConfig::ethernet_100m());
        b.link(client_b, PortId(0), gateway_b, LAN_PORT, LinkConfig::ethernet_100m());
        b.link(gateway_b, WAN_PORT, server, PortId(1), LinkConfig::ethernet_100m());
        let topo = b.build();

        DualNatTestbed {
            client_a: topo.node_id("client-a"),
            client_b: topo.node_id("client-b"),
            gateway_a: topo.node_id("gateway-a"),
            gateway_b: topo.node_id("gateway-b"),
            server: topo.node_id("rendezvous"),
            server_addr_a,
            server_addr_b,
            topo,
        }
    }

    /// Resolves a [`HostId`] to the underlying node (`Lan(0)` is client A,
    /// `Lan(1)` client B, `Server` the rendezvous).
    pub fn host_node(&self, host: HostId) -> NodeId {
        match host {
            HostId::Client | HostId::Lan(0) => self.client_a,
            HostId::Lan(1) => self.client_b,
            HostId::Lan(i) => panic!("dual-NAT testbed has 2 LAN hosts, no Lan({i})"),
            HostId::Server => self.server,
        }
    }

    /// Drives the host addressed by `host`; convert a [`Side`] with
    /// `side.into()`.
    pub fn with_host<R>(
        &mut self,
        host: HostId,
        f: impl FnOnce(&mut Host, &mut NodeCtx) -> R,
    ) -> R {
        let id = self.host_node(host);
        self.topo.sim.with_node::<Host, _>(id, f)
    }

    /// Drives the node `id` as a `T` (panics if `id` is not a `T`).
    ///
    /// Also available through the [`Topology`] deref; this inherent copy
    /// lets call sites pass a testbed field as the id
    /// (`tb.with_node::<Gateway, _>(tb.gateway_b, f)`) without tripping
    /// the borrow checker on the deref.
    pub fn with_node<T: hgw_core::Node, R>(
        &mut self,
        id: NodeId,
        f: impl FnOnce(&mut T, &mut NodeCtx) -> R,
    ) -> R {
        self.topo.sim.with_node::<T, _>(id, f)
    }

    /// The rendezvous address a given side should talk to.
    pub fn rendezvous_addr(&self, side: Side) -> Ipv4Addr {
        match side {
            Side::A => self.server_addr_a,
            Side::B => self.server_addr_b,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hgw_core::Duration;
    use std::net::SocketAddrV4;

    #[test]
    fn both_clients_reach_the_rendezvous() {
        let mut tb = DualNatTestbed::new(
            "a",
            GatewayPolicy::well_behaved(),
            "b",
            GatewayPolicy::well_behaved(),
            7,
        );
        let srv = tb.with_host(HostId::Server, |h, _| {
            let s = h.udp_bind(3478);
            h.udp_set_echo(s, true);
            s
        });
        for side in [Side::A, Side::B] {
            let dst = SocketAddrV4::new(tb.rendezvous_addr(side), 3478);
            let sock = tb.with_host(side.into(), |h, ctx| {
                let s = h.udp_bind_ephemeral();
                h.udp_send(ctx, s, dst, b"stun");
                s
            });
            tb.run_for(Duration::from_millis(100));
            assert!(
                tb.with_host(side.into(), |h, _| h.udp_recv(sock)).is_some(),
                "{side:?} echo failed"
            );
        }
        let _ = srv;
    }

    #[test]
    fn server_routes_between_subnets() {
        // A packet from client A to gateway B's WAN address must transit
        // the rendezvous router (even if gateway B then filters it).
        let mut tb = DualNatTestbed::new(
            "a",
            GatewayPolicy::well_behaved(),
            "b",
            GatewayPolicy::well_behaved(),
            9,
        );
        let gw_b_wan =
            tb.with_node::<hgw_gateway::Gateway, _>(tb.gateway_b, |g, _| g.wan_addr().unwrap());
        tb.with_host(Side::A.into(), |h, ctx| {
            let s = h.udp_bind_ephemeral();
            h.udp_send(ctx, s, SocketAddrV4::new(gw_b_wan, 12345), b"x");
        });
        tb.run_for(Duration::from_millis(100));
        // The packet reached gateway B (and was dropped for lack of a
        // binding — visible in its stats).
        let drops = tb
            .with_node::<hgw_gateway::Gateway, _>(tb.gateway_b, |g, _| g.stats.dropped_no_binding);
        assert!(drops > 0, "packet should have transited the router to gateway B");
    }

    #[test]
    fn side_converts_to_host_id() {
        assert_eq!(HostId::from(Side::A), HostId::Lan(0));
        assert_eq!(HostId::from(Side::B), HostId::Lan(1));
    }
}
