//! General topology construction — the builder behind every testbed preset.
//!
//! The seed repo hard-coded the paper's Figure-1 triple (client, gateway,
//! server) into [`Testbed`](crate::Testbed) and hand-rolled the dual-NAT
//! variant next to it. [`TopologyBuilder`] replaces both with a declarative
//! module graph in the PetrichorIT/inet style: named nodes are added in a
//! deliberate order (the order fixes [`NodeId`]s and per-node RNG streams,
//! so presets keep it stable for reproducibility), wired with
//! point-to-point links or through learning [`Switch`]es, then built into a
//! booted [`Topology`] whose DHCP clients and gateways are brought up in
//! lock-step.
//!
//! ```
//! use hgw_core::{LinkConfig, PortId};
//! use hgw_gateway::{Gateway, GatewayPolicy, LAN_PORT, WAN_PORT};
//! use hgw_stack::host::Host;
//! use hgw_stack::iface::IfaceConfig;
//! use hgw_testbed::TopologyBuilder;
//! use std::net::Ipv4Addr;
//!
//! let mut b = TopologyBuilder::new(7);
//! let mut laptop = Host::new("laptop");
//! laptop.enable_dhcp_client(PortId(0), [2, 0, 0, 0, 0, 1]);
//! let laptop = b.host("laptop", laptop);
//! let gw = b.gateway("gateway", Gateway::new("dev", GatewayPolicy::well_behaved(), 1));
//! let mut server = Host::new("server");
//! server.add_iface(PortId(0), IfaceConfig::new(Ipv4Addr::new(10, 0, 1, 1), 24));
//! server.enable_dhcp_server(PortId(0), hgw_stack::dhcp::DhcpServerConfig {
//!     server_addr: Ipv4Addr::new(10, 0, 1, 1),
//!     pool_start: Ipv4Addr::new(10, 0, 1, 50),
//!     pool_size: 8,
//!     subnet_mask: Ipv4Addr::new(255, 255, 255, 0),
//!     router: None,
//!     dns_servers: Default::default(),
//!     lease_secs: 3600,
//! });
//! let server = b.host("server", server);
//! b.link(laptop, PortId(0), gw, LAN_PORT, LinkConfig::ethernet_100m());
//! b.link(gw, WAN_PORT, server, PortId(0), LinkConfig::ethernet_100m());
//! let topo = b.build();
//! assert_eq!(topo.node_id("laptop"), topo.lan_hosts()[0]);
//! ```

use hgw_core::Cleared;
use hgw_core::{
    Duration, Instant, LinkConfig, LinkId, Node, NodeCtx, NodeId, PortId, SimCore, SpanId,
};
use hgw_gateway::{Gateway, GatewayPolicy};
use hgw_stack::host::Host;
use hgw_stack::switch::Switch;

use crate::dual::Side;
use crate::kind::NodeKind;

/// The statically dispatched simulator every topology runs on: node slots
/// are [`NodeKind`] values, so the event loop dispatches by match instead
/// of through `Box<dyn Node>` vtables.
pub type TopologySim = SimCore<NodeKind>;

/// How long a topology's bring-up phase (all DHCP clients bound, all
/// gateway WAN sides configured) is allowed to take.
const BRINGUP_LIMIT: Duration = Duration::from_secs(30);

/// Bring-up polls the readiness predicate every half second of virtual
/// time, matching the seed testbed's cadence bit for bit.
const BRINGUP_STEP: Duration = Duration::from_millis(500);

/// Handle to a node added to a [`TopologyBuilder`] (valid only for the
/// builder that returned it).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NodeHandle(usize);

/// Handle to a link added to a [`TopologyBuilder`]; resolve it to the
/// simulator's [`LinkId`] with [`Topology::link`] after building.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LinkHandle(usize);

/// Host-addressed node selector used by the preset accessors
/// (`with_host` on [`Testbed`](crate::Testbed) and
/// [`DualNatTestbed`](crate::DualNatTestbed)).
///
/// Replaces the positional `with_client` / `with_server` closure accessors:
/// the address names *which* host, the preset maps it to the topology's
/// [`NodeId`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HostId {
    /// The first (or only) LAN host — the paper's test client.
    Client,
    /// The `i`-th LAN host behind the gateway; `Lan(0)` is `Client`.
    Lan(usize),
    /// The WAN-side host (test server or rendezvous router).
    Server,
}

impl From<Side> for HostId {
    /// Maps a dual-NAT side to its LAN host (`A` → `Lan(0)`, `B` → `Lan(1)`).
    fn from(side: Side) -> HostId {
        match side {
            Side::A => HostId::Lan(0),
            Side::B => HostId::Lan(1),
        }
    }
}

/// What kind of node a topology slot holds (drives bring-up readiness).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Kind {
    /// A [`Host`] with a DHCP client — bring-up waits for its lease.
    DhcpHost,
    /// A statically configured [`Host`].
    StaticHost,
    /// A [`Gateway`] — bring-up waits for its WAN address.
    Gateway,
    /// A learning [`Switch`].
    Switch,
    /// An ad-hoc [`Node`] added through [`TopologyBuilder::custom`] —
    /// always considered ready during bring-up.
    Custom,
}

// Wide by way of the inline NodeKind variants; build-time only, never hot.
#[allow(clippy::large_enum_variant)]
enum Spec {
    Ready(NodeKind),
    /// Switches are materialized at build time, once their final port
    /// count (one per [`TopologyBuilder::attach`]) is known.
    Switch {
        ports: usize,
    },
}

/// What a torn-down [`Topology`] leaves behind for the next one: the
/// emptied simulator (event wheel, slabs, link queues, frame-pool buffers),
/// the retired hosts and gateways, and the builder's and topology's own
/// tables — capacity only, no state. A fleet worker builds every device
/// into the shell of the one before (DESIGN.md §15); a fresh build is a
/// build into [`TopologyShell::default`].
#[derive(Default)]
pub struct TopologyShell {
    sim: TopologySim,
    names: Vec<String>,
    kinds: Vec<Kind>,
    ids: Vec<NodeId>,
    links: Vec<LinkId>,
    spares: Spares,
}

/// The parts of a topology's build that its running [`Topology`] does not
/// use, kept for the next build.
#[derive(Default)]
struct Spares {
    /// Retired nodes, handed out by [`TopologyBuilder::new_host`] and
    /// [`TopologyBuilder::new_gateway`].
    hosts: Vec<Host>,
    gateways: Vec<Gateway>,
    /// Retired node-name strings.
    names: Vec<String>,
    /// The builder's own lists, empty.
    specs: Vec<Spec>,
    wiring: Vec<Wire>,
}

/// One `link`/`attach` call: `(a, a_port, b, b_port, config)` by builder
/// index.
type Wire = (usize, PortId, usize, PortId, LinkConfig);

/// Declarative builder for a [`Topology`] (see the module docs for the
/// lifecycle and a worked example).
pub struct TopologyBuilder {
    names: Vec<String>,
    kinds: Vec<Kind>,
    specs: Vec<Spec>,
    links: Vec<Wire>,
    /// The simulator, already reset to the builder's seed.
    sim: TopologySim,
    /// Emptied id tables for the built topology.
    ids: Vec<NodeId>,
    link_ids: Vec<LinkId>,
    spares: Spares,
}

impl TopologyBuilder {
    /// A builder whose simulator will be seeded with `seed`.
    pub fn new(seed: u64) -> TopologyBuilder {
        TopologyBuilder::in_shell(TopologyShell::default(), seed)
    }

    /// A builder that builds into `shell`, whose simulator will be seeded
    /// with `seed`. The result is the topology [`TopologyBuilder::new`]
    /// would build; only the allocations are inherited.
    pub fn in_shell(shell: TopologyShell, seed: u64) -> TopologyBuilder {
        let TopologyShell { mut sim, mut names, kinds, ids, links, mut spares } = shell;
        sim.reset(seed, |node| match node {
            NodeKind::Host(h) => spares.hosts.push(h),
            NodeKind::Gateway(g) => spares.gateways.push(g),
            NodeKind::Switch(_) | NodeKind::Custom(_) => {}
        });
        // Hand the retired hosts out in the order they were built, so each
        // role (client, server, …) inherits the tables it grew before.
        spares.hosts.reverse();
        spares.names.append(&mut names);
        TopologyBuilder {
            names,
            kinds: kinds.cleared(),
            specs: std::mem::take(&mut spares.specs),
            links: std::mem::take(&mut spares.wiring),
            sim,
            ids: ids.cleared(),
            link_ids: links.cleared(),
            spares,
        }
    }

    /// A host for this topology: `Host::new(name)`, built on a retired
    /// host's allocations when the shell has one.
    pub fn new_host(&mut self, name: &str) -> Host {
        match self.spares.hosts.pop() {
            Some(mut host) => {
                host.renew(name);
                host
            }
            None => Host::new(name),
        }
    }

    /// A gateway for this topology: `Gateway::new(tag, policy, index)`,
    /// built on a retired gateway's allocations when the shell has one.
    pub fn new_gateway(&mut self, tag: &str, policy: GatewayPolicy, index: u8) -> Gateway {
        match self.spares.gateways.pop() {
            Some(mut gateway) => {
                gateway.renew(tag, policy, index);
                gateway
            }
            None => Gateway::new(tag, policy, index),
        }
    }

    fn push(&mut self, name: &str, kind: Kind, spec: Spec) -> NodeHandle {
        assert!(
            !self.names.iter().any(|n| n == name),
            "TopologyBuilder: duplicate node name {name:?}"
        );
        let mut owned = self.spares.names.pop().unwrap_or_default().cleared();
        owned.push_str(name);
        self.names.push(owned);
        self.kinds.push(kind);
        self.specs.push(spec);
        NodeHandle(self.specs.len() - 1)
    }

    /// Adds a [`Host`] endpoint. If the host has a DHCP client enabled,
    /// [`TopologyBuilder::build`] waits for its lease during bring-up.
    pub fn host(&mut self, name: &str, host: Host) -> NodeHandle {
        let kind = if host.dhcp_client_enabled() { Kind::DhcpHost } else { Kind::StaticHost };
        self.push(name, kind, Spec::Ready(NodeKind::Host(host)))
    }

    /// Adds a [`Gateway`]; bring-up waits for its DHCP-acquired WAN
    /// address.
    pub fn gateway(&mut self, name: &str, gateway: Gateway) -> NodeHandle {
        self.push(name, Kind::Gateway, Spec::Ready(NodeKind::Gateway(gateway)))
    }

    /// Adds a learning LAN [`Switch`]. Its ports are allocated one per
    /// [`TopologyBuilder::attach`] call, in call order.
    pub fn switch(&mut self, name: &str) -> NodeHandle {
        self.push(name, Kind::Switch, Spec::Switch { ports: 0 })
    }

    /// Adds an arbitrary [`Node`] outside the closed testbed universe —
    /// scripted attackers, protocol violators, measurement taps. The node
    /// rides in the [`NodeKind::Custom`] slot (dynamic dispatch for this
    /// node only) and is always considered ready during bring-up. A shell
    /// the topology is torn down into drops it rather than recycling it.
    pub fn custom(&mut self, name: &str, node: Box<dyn Node>) -> NodeHandle {
        self.push(name, Kind::Custom, Spec::Ready(NodeKind::Custom(node)))
    }

    /// Wires `a`'s port `ap` to `b`'s port `bp` (links are bidirectional;
    /// wiring order fixes [`LinkId`] assignment, so keep it stable in
    /// presets).
    pub fn link(
        &mut self,
        a: NodeHandle,
        ap: PortId,
        b: NodeHandle,
        bp: PortId,
        config: LinkConfig,
    ) -> LinkHandle {
        assert!(a.0 < self.specs.len() && b.0 < self.specs.len(), "link: unknown node handle");
        self.links.push((a.0, ap, b.0, bp, config));
        LinkHandle(self.links.len() - 1)
    }

    /// Wires `node`'s port `nport` to the next free port of `switch`.
    pub fn attach(
        &mut self,
        switch: NodeHandle,
        node: NodeHandle,
        nport: PortId,
        config: LinkConfig,
    ) -> LinkHandle {
        let port = match &mut self.specs[switch.0] {
            Spec::Switch { ports } => {
                let p = *ports;
                *ports += 1;
                PortId(p)
            }
            _ => panic!("attach: {} is not a switch", self.names[switch.0]),
        };
        self.link(switch, port, node, nport, config)
    }

    /// Builds the simulator, boots every node, and runs bring-up until all
    /// DHCP clients hold leases and all gateways have WAN addresses.
    ///
    /// # Panics
    /// Panics if bring-up does not complete within 30 s of virtual time —
    /// a topology that cannot even DHCP is a bug, not a measurement.
    pub fn build(self) -> Topology {
        let TopologyBuilder {
            names,
            kinds,
            mut specs,
            links: mut wiring,
            mut sim,
            mut ids,
            link_ids: mut links,
            mut spares,
        } = self;
        for (spec, name) in specs.drain(..).zip(&names) {
            let node = match spec {
                Spec::Ready(node) => node,
                Spec::Switch { ports } => NodeKind::Switch(Switch::new(name, ports)),
            };
            ids.push(sim.add_node(node));
        }
        for (a, ap, b, bp, cfg) in wiring.drain(..) {
            links.push(sim.connect(ids[a], ap, ids[b], bp, cfg));
        }
        sim.boot();
        (spares.specs, spares.wiring) = (specs, wiring);
        let mut topo = Topology { sim, names, kinds, ids, links, spares };
        topo.bring_up();
        topo
    }
}

/// A booted, brought-up node graph: the simulator plus the name and role
/// tables the builder recorded. Presets either embed one (and deref to it)
/// or address nodes through it by name.
pub struct Topology {
    /// The simulator owning every node.
    pub sim: TopologySim,
    names: Vec<String>,
    kinds: Vec<Kind>,
    ids: Vec<NodeId>,
    links: Vec<LinkId>,
    /// The build's spare parts, kept for [`Topology::into_shell`].
    spares: Spares,
}

impl Topology {
    /// Tears the topology down into a shell the next topology can be built
    /// into (see [`TopologyShell`]).
    pub fn into_shell(self) -> TopologyShell {
        let Topology { sim, names, kinds, ids, links, spares } = self;
        TopologyShell { sim, names, kinds, ids, links, spares }
    }

    /// Runs DHCP everywhere until every client/gateway is configured.
    fn bring_up(&mut self) {
        let deadline = self.sim.now() + BRINGUP_LIMIT;
        while self.sim.now() < deadline {
            self.sim.run_for(BRINGUP_STEP);
            if self.unready_node().is_none() {
                return;
            }
        }
        let name = self.unready_node().map(|i| self.names[i].clone()).unwrap_or_default();
        panic!("topology bring-up failed: {name} never configured");
    }

    /// Index of the first node still waiting on DHCP, if any.
    fn unready_node(&mut self) -> Option<usize> {
        (0..self.ids.len()).find(|&i| {
            let id = self.ids[i];
            match self.kinds[i] {
                Kind::DhcpHost => {
                    self.sim.with_node::<Host, _>(id, |h, _| h.dhcp_lease().is_none())
                }
                Kind::Gateway => {
                    self.sim.with_node::<Gateway, _>(id, |g, _| g.wan_addr().is_none())
                }
                Kind::StaticHost | Kind::Switch | Kind::Custom => false,
            }
        })
    }

    /// The [`NodeId`] of the node named `name`.
    ///
    /// # Panics
    /// Panics on an unknown name; use [`Topology::try_node_id`] to probe.
    pub fn node_id(&self, name: &str) -> NodeId {
        self.try_node_id(name).unwrap_or_else(|| panic!("topology: no node named {name:?}"))
    }

    /// The [`NodeId`] of the node named `name`, if it exists.
    pub fn try_node_id(&self, name: &str) -> Option<NodeId> {
        self.names.iter().position(|n| n == name).map(|i| self.ids[i])
    }

    /// Every DHCP-configured [`Host`] in insertion order — the LAN side of
    /// the topology.
    pub fn lan_hosts(&self) -> Vec<NodeId> {
        self.by_kind(&[Kind::DhcpHost])
    }

    /// Every [`Gateway`] node in insertion order.
    pub fn gateway_nodes(&self) -> Vec<NodeId> {
        self.by_kind(&[Kind::Gateway])
    }

    /// Turns on NAT binding-lifecycle tracing on every gateway in the
    /// topology (see [`Gateway::enable_lifecycle_tracing`]). Pure
    /// observability: traced runs stay bit-identical to untraced ones.
    pub fn enable_lifecycle_tracing(&mut self) {
        for id in self.gateway_nodes() {
            self.sim.with_node::<Gateway, _>(id, |g, _| g.enable_lifecycle_tracing());
        }
    }

    fn by_kind(&self, kinds: &[Kind]) -> Vec<NodeId> {
        self.by_kind_iter(kinds).collect()
    }

    fn by_kind_iter<'a>(&'a self, kinds: &'a [Kind]) -> impl Iterator<Item = NodeId> + 'a {
        (0..self.ids.len()).filter(|&i| kinds.contains(&self.kinds[i])).map(|i| self.ids[i])
    }

    /// [`Topology::lan_hosts`] without collecting.
    pub(crate) fn lan_hosts_iter(&self) -> impl Iterator<Item = NodeId> + '_ {
        self.by_kind_iter(&[Kind::DhcpHost])
    }

    /// Resolves a [`LinkHandle`] from the builder to the simulator's
    /// [`LinkId`].
    pub fn link(&self, handle: LinkHandle) -> LinkId {
        self.links[handle.0]
    }

    /// Drives the node `id` as a `T` (panics if `id` is not a `T`).
    pub fn with_node<T: Node, R>(
        &mut self,
        id: NodeId,
        f: impl FnOnce(&mut T, &mut NodeCtx) -> R,
    ) -> R {
        self.sim.with_node::<T, _>(id, f)
    }

    /// Runs the simulation for `d`.
    pub fn run_for(&mut self, d: Duration) {
        self.sim.run_for(d);
    }

    /// Runs the simulation until `t`.
    pub fn run_until(&mut self, t: Instant) {
        self.sim.run_until(t);
    }

    /// Current simulated time.
    pub fn now(&self) -> Instant {
        self.sim.now()
    }

    /// Starts a telemetry span builder for `name`; attach a viewer-visible
    /// argument with [`Span::arg`] and open it with [`Span::begin`]:
    ///
    /// ```no_run
    /// # use hgw_gateway::GatewayPolicy;
    /// # use hgw_testbed::Testbed;
    /// # let mut tb = Testbed::builder("owrt", GatewayPolicy::well_behaved()).build();
    /// let span = tb.span("udp1-trial").arg("sleep=30s").begin();
    /// // ... probe phase ...
    /// tb.span_end(span);
    /// ```
    ///
    /// When telemetry is off, [`Span::begin`] returns [`SpanId::DISABLED`]
    /// and records nothing, so probes mark their phases unconditionally at
    /// zero cost.
    pub fn span<'a>(&'a mut self, name: &'a str) -> Span<'a> {
        Span { sim: &mut self.sim, name, arg: None }
    }

    /// Closes a span opened by [`Topology::span`] at the current simulated
    /// time. A no-op for [`SpanId::DISABLED`].
    pub fn span_end(&mut self, id: SpanId) {
        let now = self.sim.now();
        if let Some(t) = self.sim.telemetry_mut() {
            t.spans.end(id, now);
        }
    }
}

/// In-flight span builder returned by [`Topology::span`].
#[must_use = "a span records nothing until begin() is called"]
pub struct Span<'a> {
    sim: &'a mut TopologySim,
    name: &'a str,
    arg: Option<String>,
}

impl<'a> Span<'a> {
    /// Attaches a viewer-visible argument (shown in the Perfetto detail
    /// pane). Formatted only when telemetry is on, so a probe can pass
    /// `format_args!(..)` unconditionally without allocating.
    pub fn arg(mut self, arg: impl std::fmt::Display) -> Span<'a> {
        if self.sim.telemetry().is_some() {
            self.arg = Some(arg.to_string());
        }
        self
    }

    /// Opens the span at the current simulated time.
    pub fn begin(self) -> SpanId {
        let now = self.sim.now();
        match self.sim.telemetry_mut() {
            Some(t) => match self.arg {
                Some(a) => t.spans.begin_with_arg(self.name, a, now),
                None => t.spans.begin(self.name, now),
            },
            None => SpanId::DISABLED,
        }
    }
}
