//! # hgw-testbed — the experimental testbed of Figure 1, generalized
//!
//! Assembles, per device under test, the paper's topology:
//!
//! ```text
//!   test client ──(LAN, 100 Mb/s)── gateway ──(WAN, 100 Mb/s)── test server
//!        │                             │                            │
//!   DHCP client                 NAT + DHCP both sides        DHCP server,
//!                                + DNS proxy                 DNS (hiit.fi),
//!                                                            echo services
//! ```
//!
//! …and, beyond the paper, *household* variants of it: M DHCP-configured
//! LAN hosts behind one gateway, fanned in through a learning
//! [`Switch`](hgw_stack::switch::Switch):
//!
//! ```text
//!   host 0 ──┐
//!   host 1 ──┼──(LAN switch)── gateway ──(WAN)── test server
//!   host M-1 ┘
//! ```
//!
//! All presets are thin layers over [`TopologyBuilder`], the declarative
//! node-graph API (named nodes, switches, per-node interfaces, DHCP
//! bring-up). [`Testbed`] is the 1-host preset — bit-identical to the seed
//! repo's hand-rolled triple — and [`DualNatTestbed`] is the nested-NAT
//! preset. Hosts are addressed by [`HostId`] (`with_host`), arbitrary
//! nodes by [`NodeId`] (`with_node`).
//!
//! Each gateway gets its own VLAN pair in the paper; here each device gets
//! its own [`Testbed`] (an isolated simulator), which has the same
//! observable semantics and lets the fleet run embarrassingly parallel.
//! The management link of Figure 1 is the experiment driver itself: probes
//! steer both hosts directly through
//! [`SimCore::with_node`](hgw_core::SimCore::with_node), out of band by
//! construction.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod dual;
pub mod kind;
pub mod topology;

pub use dual::{DualNatTestbed, Side};
pub use kind::NodeKind;
pub use topology::{
    HostId, LinkHandle, NodeHandle, Span, Topology, TopologyBuilder, TopologyShell, TopologySim,
};

use std::borrow::Cow;
use std::net::Ipv4Addr;
use std::ops::{Deref, DerefMut};

use hgw_core::{Cleared, LinkConfig, LinkId, NodeCtx, NodeId, PortId};
use hgw_gateway::{Gateway, GatewayPolicy, LAN_PORT, WAN_PORT};
use hgw_stack::dhcp::{DhcpServerConfig, DnsServers};
use hgw_stack::dns::DnsZone;
use hgw_stack::host::Host;
use hgw_stack::iface::IfaceConfig;

/// A single device-under-test testbed: M LAN hosts (1 in the paper's
/// Figure 1), one gateway, one server. Derefs to [`Topology`] for the
/// generic surface (`sim`, `run_for`, `with_node`, `span`, …).
pub struct Testbed {
    /// The underlying topology.
    pub topo: Topology,
    /// The first LAN host — the paper's test client.
    pub client: NodeId,
    /// Test server node (WAN side).
    pub server: NodeId,
    /// The gateway under test.
    pub gateway: NodeId,
    /// All LAN hosts in index order (`hosts[0] == client`).
    pub hosts: Vec<NodeId>,
    /// The LAN uplink into the gateway (the client link in the 1-host
    /// preset, the switch–gateway trunk in household presets).
    pub lan_link: LinkId,
    /// The gateway–server link.
    pub wan_link: LinkId,
    /// The test server's address (`10.0.<index>.1`).
    pub server_addr: Ipv4Addr,
    /// Testbed slot index (selects the address plan).
    pub index: u8,
}

impl Deref for Testbed {
    type Target = Topology;
    fn deref(&self) -> &Topology {
        &self.topo
    }
}

impl DerefMut for Testbed {
    fn deref_mut(&mut self) -> &mut Topology {
        &mut self.topo
    }
}

/// Builder for [`Testbed`] — the one documented place where slot and seed
/// derivation for fleet campaigns lives.
///
/// [`Testbed::new`] takes the slot index and simulator seed positionally;
/// the builder names them and adds [`TestbedBuilder::campaign_slot`], which
/// derives both from a fleet-level `(slot, seed)` pair exactly the way the
/// fleet runner does:
///
/// * **index** — `slot % 255 + 1`, so each device gets its own
///   `10.0.<index>.0/24` address plan, slot 0 never collides with the
///   `10.0.0.0/24` default, and mega-fleet slots beyond 254 wrap instead
///   of overflowing `u8`.
/// * **seed** — `campaign_seed ^ hash(tag)`, where `hash` is a simple
///   31-multiplier fold over the tag bytes. Deriving from the *tag* rather
///   than the slot keeps a device's randomness stable even if the fleet is
///   filtered or reordered, and decorrelates devices within one campaign.
///
/// [`TestbedBuilder::hosts`] widens the LAN side into a household: M
/// DHCP-configured hosts behind a learning switch, all NATed by the one
/// gateway under test.
///
/// ```
/// use hgw_gateway::GatewayPolicy;
/// use hgw_testbed::Testbed;
///
/// let tb = Testbed::builder("owrt", GatewayPolicy::well_behaved())
///     .campaign_slot(0, 42)
///     .build();
/// assert_eq!(tb.tag(), "owrt");
/// assert_eq!(tb.index, 1);
/// ```
#[derive(Debug, Clone)]
pub struct TestbedBuilder<'a> {
    tag: &'a str,
    policy: GatewayPolicy,
    index: u8,
    seed: u64,
    hosts: usize,
}

impl<'a> TestbedBuilder<'a> {
    /// Sets the testbed slot index (selects the `10.0.<index>.0/24` plan).
    pub fn index(mut self, index: u8) -> TestbedBuilder<'a> {
        self.index = index;
        self
    }

    /// Sets the simulator seed directly.
    pub fn seed(mut self, seed: u64) -> TestbedBuilder<'a> {
        self.seed = seed;
        self
    }

    /// Sets the number of LAN hosts (default 1 — the paper's Figure 1).
    ///
    /// With `n > 1` the hosts fan in through a learning LAN switch and
    /// every host runs DHCP with auto-renewal; with `n == 1` the topology
    /// (and its event sequence) is exactly the seed testbed's. Clamped
    /// range: 1–64 (the gateway's DHCP pool holds 100 addresses).
    pub fn hosts(mut self, n: usize) -> TestbedBuilder<'a> {
        assert!((1..=64).contains(&n), "TestbedBuilder::hosts: n must be in 1..=64, got {n}");
        self.hosts = n;
        self
    }

    /// Derives index and seed from a campaign-level slot and seed (see the
    /// type-level docs for the derivation rules).
    ///
    /// The index wraps modulo 255 (`slot % 255 + 1`) so mega-fleet slots
    /// beyond 254 stay inside `u8` without ever colliding with the
    /// `10.0.0.0/24` default plan at index 0. Identical to `slot + 1` for
    /// the 34-device Table 1 fleet. Testbeds are isolated simulators, so
    /// two far-apart slots sharing an address plan never interact.
    pub fn campaign_slot(self, slot: usize, campaign_seed: u64) -> TestbedBuilder<'a> {
        let tag_seed = campaign_seed ^ Self::tag_hash(self.tag);
        self.index((slot % 255 + 1) as u8).seed(tag_seed)
    }

    /// The per-tag hash folded into campaign seeds.
    fn tag_hash(tag: &str) -> u64 {
        tag.bytes().fold(0u64, |acc, b| acc.wrapping_mul(31).wrapping_add(b as u64))
    }

    /// Builds and boots the testbed (see [`Testbed::new`] for panics): a
    /// build into an empty [`TestbedShell`].
    pub fn build(self) -> Testbed {
        self.build_in(TestbedShell::default())
    }

    /// Builds and boots the testbed into `shell`, the remains of a torn-down
    /// testbed ([`Testbed::into_shell`]). The testbed, and every event,
    /// counter and result it produces, is the one [`TestbedBuilder::build`]
    /// returns; only allocations are inherited.
    pub fn build_in(self, shell: TestbedShell) -> Testbed {
        Testbed::assemble(self, shell)
    }
}

/// What a torn-down [`Testbed`] leaves for the next one to be built into
/// with [`TestbedBuilder::build_in`]: its [`TopologyShell`] plus the
/// testbed's own host list. Capacity only, no state — see DESIGN.md §15.
#[derive(Default)]
pub struct TestbedShell {
    topo: TopologyShell,
    hosts: Vec<NodeId>,
}

impl Testbed {
    /// Builds and boots a 1-host testbed for one gateway model, then runs
    /// DHCP on both sides until the client is configured.
    ///
    /// # Panics
    /// Panics if bring-up does not complete — a testbed that cannot even
    /// DHCP is a bug, not a measurement.
    pub fn new(tag: &str, policy: GatewayPolicy, index: u8, seed: u64) -> Testbed {
        // Kept as the positional primitive; prefer [`Testbed::builder`]
        // for named parameters, campaign slot/seed derivation, and
        // household sizing.
        Testbed::builder(tag, policy).index(index).seed(seed).build()
    }

    /// Starts a [`TestbedBuilder`] for `tag` (slot index 1, seed 0, one
    /// LAN host until overridden).
    pub fn builder(tag: &str, policy: GatewayPolicy) -> TestbedBuilder<'_> {
        TestbedBuilder { tag, policy, index: 1, seed: 0, hosts: 1 }
    }

    /// The preset over [`TopologyBuilder`]: M LAN hosts (direct link for
    /// M = 1, learning switch for M > 1), the gateway under test, and the
    /// WAN server. Node and link insertion order is part of the
    /// reproducibility contract — for M = 1 it matches the seed repo's
    /// hand-rolled testbed exactly (client, gateway, server), so per-node
    /// RNG streams and event sequences are bit-identical.
    fn assemble(spec: TestbedBuilder, shell: TestbedShell) -> Testbed {
        let TestbedBuilder { tag, policy, index, seed, hosts: m } = spec;
        assert!((1..=64).contains(&m), "Testbed: host count must be in 1..=64, got {m}");
        let mut b = TopologyBuilder::in_shell(shell.topo, seed);
        let server_addr = Ipv4Addr::new(10, 0, index, 1);
        let ether = LinkConfig::ethernet_100m;

        // LAN hosts: everything via DHCP from the gateway. Host 0 keeps
        // the seed client's name and chaddr.
        let hosts: Vec<NodeHandle> = (0..m)
            .map(|i| {
                let name: Cow<str> =
                    if i == 0 { "test-client".into() } else { format!("test-client-{i}").into() };
                let mut host = b.new_host(&name);
                host.enable_dhcp_client(PortId(0), [0x02, 0xC1, 0x1E, 0x47, i as u8, index]);
                if m > 1 {
                    // Households run long enough in virtual time that
                    // leases can come due; the 1-host preset keeps the
                    // seed's renewal-free behavior.
                    host.dhcp_auto_renew(true);
                }
                b.host(&name, host)
            })
            .collect();
        let switch = (m > 1).then(|| b.switch("lan-switch"));
        let gateway = b.new_gateway(tag, policy, index);
        let gateway = b.gateway("gateway", gateway);

        // Test server: static address, DHCP service for the gateway's WAN
        // side, the hiit.fi DNS zone, and echo responders.
        let mut server = b.new_host("test-server");
        server.add_iface(PortId(0), IfaceConfig::new(server_addr, 24));
        server.enable_dhcp_server(
            PortId(0),
            DhcpServerConfig {
                server_addr,
                pool_start: Ipv4Addr::new(10, 0, index, 50),
                pool_size: 32,
                subnet_mask: Ipv4Addr::new(255, 255, 255, 0),
                router: Some(server_addr),
                dns_servers: DnsServers::from_slice(&[server_addr]),
                lease_secs: 7 * 24 * 3600,
            },
        );
        server.enable_dns_server(DnsZone::testbed_default(server_addr));
        let server = b.host("test-server", server);

        let lan_link = match switch {
            None => b.link(hosts[0], PortId(0), gateway, LAN_PORT, ether()),
            Some(sw) => {
                for &h in &hosts {
                    b.attach(sw, h, PortId(0), ether());
                }
                b.attach(sw, gateway, LAN_PORT, ether())
            }
        };
        let wan_link = b.link(gateway, WAN_PORT, server, PortId(0), ether());

        let topo = b.build();
        let mut host_ids = shell.hosts.cleared();
        host_ids.extend(topo.lan_hosts_iter());
        Testbed {
            client: host_ids[0],
            server: topo.node_id("test-server"),
            gateway: topo.node_id("gateway"),
            hosts: host_ids,
            lan_link: topo.link(lan_link),
            wan_link: topo.link(wan_link),
            server_addr,
            index,
            topo,
        }
    }

    /// Tears the testbed down into a shell the next testbed can be built
    /// into with [`TestbedBuilder::build_in`].
    pub fn into_shell(self) -> TestbedShell {
        TestbedShell { topo: self.topo.into_shell(), hosts: self.hosts }
    }

    /// The device tag.
    pub fn tag(&self) -> String {
        self.topo.sim.node_ref::<Gateway>(self.gateway).tag.clone()
    }

    /// Resolves a [`HostId`] to the underlying node.
    ///
    /// # Panics
    /// Panics if `Lan(i)` is out of range for this testbed's host count.
    pub fn host_node(&self, host: HostId) -> NodeId {
        match host {
            HostId::Client => self.client,
            HostId::Lan(i) => *self
                .hosts
                .get(i)
                .unwrap_or_else(|| panic!("testbed has {} hosts, no Lan({i})", self.hosts.len())),
            HostId::Server => self.server,
        }
    }

    /// Drives the host addressed by `host` (see [`HostId`]).
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
    /// (`tb.with_node::<Gateway, _>(tb.gateway, f)`) without tripping the
    /// borrow checker on the deref.
    pub fn with_node<T: hgw_core::Node, R>(
        &mut self,
        id: NodeId,
        f: impl FnOnce(&mut T, &mut NodeCtx) -> R,
    ) -> R {
        self.topo.sim.with_node::<T, _>(id, f)
    }

    /// Mutable access to a link's configuration (loss, delay, rate).
    ///
    /// Inherent for the same borrow-checker reason as [`Testbed::with_node`]:
    /// `tb.link_config_mut(tb.wan_link)` must compile.
    pub fn link_config_mut(&mut self, link: LinkId) -> &mut LinkConfig {
        self.topo.sim.link_config_mut(link)
    }

    /// The client's DHCP-assigned address.
    pub fn client_addr(&self) -> Ipv4Addr {
        self.lan_addr(0)
    }

    /// The `i`-th LAN host's DHCP-assigned address.
    pub fn lan_addr(&self, i: usize) -> Ipv4Addr {
        self.topo.sim.node_ref::<Host>(self.hosts[i]).dhcp_lease().expect("host bound").addr
    }

    /// The gateway's LAN-side address (the clients' router and DNS proxy).
    pub fn gateway_lan_addr(&self) -> Ipv4Addr {
        self.topo.sim.node_ref::<Gateway>(self.gateway).lan_addr()
    }

    /// The gateway's DHCP-acquired WAN address.
    pub fn gateway_wan_addr(&self) -> Ipv4Addr {
        self.topo.sim.node_ref::<Gateway>(self.gateway).wan_addr().expect("gateway bound")
    }
}
