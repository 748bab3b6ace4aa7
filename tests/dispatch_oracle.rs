//! Differential oracle for static dispatch: a testbed whose nodes are
//! dispatched by the `NodeKind` match must behave exactly like the same
//! testbed built from boxed [`TopologyBuilder::custom`] nodes
//! (`NodeKind::Custom(Box<dyn Node>)`, dynamic dispatch). Checked on the
//! simulator statistics, per-link counters, every WAN frame's bytes and
//! timestamp, socket payloads, and the throughput and binding-ceiling
//! probes' results and counters; a typed build in the shell of a boxed
//! testbed must also replay a fresh typed build.

use std::net::{Ipv4Addr, SocketAddrV4};

use hgw_core::{Dir, Duration, LinkConfig, LinkDirStats, LinkId, PortId, SimStats};
use hgw_gateway::{Gateway, GatewayPolicy, NatStats, LAN_PORT, WAN_PORT};
use hgw_probe::max_bindings::{measure_max_bindings, MaxBindingsResult};
use hgw_probe::throughput::{run_battery, ThroughputReport};
use hgw_stack::dhcp::{DhcpServerConfig, DnsServers};
use hgw_stack::dns::DnsZone;
use hgw_stack::host::{Host, ListenerApp};
use hgw_stack::iface::IfaceConfig;
use hgw_stack::switch::Switch;
use hgw_testbed::{HostId, Testbed, TestbedBuilder, TopologyBuilder};

const TAG: &str = "oracle";
const INDEX: u8 = 4;
const SEED: u64 = 42;

fn typed(m: usize) -> TestbedBuilder<'static> {
    Testbed::builder(TAG, GatewayPolicy::well_behaved()).index(INDEX).seed(SEED).hosts(m)
}

/// [`typed`]'s testbed with every node boxed: `Testbed::assemble`'s node
/// order, names, MACs, address plan and wiring, so each node draws the
/// same RNG stream.
fn boxed(m: usize) -> Testbed {
    let mut b = TopologyBuilder::new(SEED);
    let server_addr = Ipv4Addr::new(10, 0, INDEX, 1);
    let ether = LinkConfig::ethernet_100m;
    let names: Vec<String> = (0..m)
        .map(|i| if i == 0 { "test-client".into() } else { format!("test-client-{i}") })
        .collect();
    let mut hosts = Vec::new();
    for (i, name) in names.iter().enumerate() {
        let mut host = Host::new(name);
        host.enable_dhcp_client(PortId(0), [0x02, 0xC1, 0x1E, 0x47, i as u8, INDEX]);
        host.dhcp_auto_renew(m > 1);
        hosts.push(b.custom(name, Box::new(host)));
    }
    // `attach` only takes a builder switch: size this one up front and
    // wire it with `link`.
    let switch =
        (m > 1).then(|| b.custom("lan-switch", Box::new(Switch::new("lan-switch", m + 1))));
    let gateway =
        b.custom("gateway", Box::new(Gateway::new(TAG, GatewayPolicy::well_behaved(), INDEX)));
    let mut server = Host::new("test-server");
    server.add_iface(PortId(0), IfaceConfig::new(server_addr, 24));
    server.enable_dhcp_server(
        PortId(0),
        DhcpServerConfig {
            server_addr,
            pool_start: Ipv4Addr::new(10, 0, INDEX, 50),
            pool_size: 32,
            subnet_mask: Ipv4Addr::new(255, 255, 255, 0),
            router: Some(server_addr),
            dns_servers: DnsServers::from_slice(&[server_addr]),
            lease_secs: 7 * 24 * 3600,
        },
    );
    server.enable_dns_server(DnsZone::testbed_default(server_addr));
    let server = b.custom("test-server", Box::new(server));
    let lan_link = match switch {
        None => b.link(hosts[0], PortId(0), gateway, LAN_PORT, ether()),
        Some(sw) => {
            for (port, &h) in hosts.iter().enumerate() {
                b.link(sw, PortId(port), h, PortId(0), ether());
            }
            b.link(sw, PortId(m), gateway, LAN_PORT, ether())
        }
    };
    let wan_link = b.link(gateway, WAN_PORT, server, PortId(0), ether());

    let topo = b.build();
    let mut tb = Testbed {
        client: topo.node_id("test-client"),
        server: topo.node_id("test-server"),
        gateway: topo.node_id("gateway"),
        hosts: names.iter().map(|n| topo.node_id(n)).collect(),
        lan_link: topo.link(lan_link),
        wan_link: topo.link(wan_link),
        server_addr,
        index: INDEX,
        topo,
    };
    // Custom nodes count as ready, so `build` returned after one 500 ms
    // bring-up step. Step on by the typed bring-up's rule: every host
    // leased and the gateway's WAN side configured.
    let deadline = tb.now() + Duration::from_secs(30);
    while !tb.hosts.iter().all(|&h| tb.sim.node_ref::<Host>(h).dhcp_lease().is_some())
        || tb.sim.node_ref::<Gateway>(tb.gateway).wan_addr().is_none()
    {
        assert!(tb.now() < deadline, "boxed testbed bring-up failed");
        tb.run_for(Duration::from_millis(500));
    }
    tb
}

/// What the household drive leaves behind.
struct Drive {
    stats: SimStats,
    /// `(tx_frames, tx_bytes)` of both directions of the LAN and WAN links.
    links: Vec<(u64, u64)>,
    /// Every WAN frame with its timestamp in nanoseconds.
    wire: Vec<(u64, Vec<u8>)>,
    echoed: Vec<u8>,
}

/// A mixed workload: UDP echo bursts from every LAN host, staggered so they
/// interleave on the switch trunk, then a TCP echo transfer through the NAT.
fn drive(tb: &mut Testbed) -> Drive {
    let (lan_link, wan_link, server_addr) = (tb.lan_link, tb.wan_link, tb.server_addr);
    tb.sim.enable_trace(wan_link, Dir::AtoB);
    tb.sim.enable_trace(wan_link, Dir::BtoA);
    tb.with_host(HostId::Server, |h, _| {
        let s = h.udp_bind(7);
        h.udp_set_echo(s, true);
        h.tcp_listen(5001, ListenerApp::Echo);
    });
    let udp_dst = SocketAddrV4::new(server_addr, 7);
    for i in 0..tb.hosts.len() {
        tb.with_host(HostId::Lan(i), move |h, ctx| {
            let s = h.udp_bind(40_000 + i as u16);
            for k in 0..8u8 {
                h.udp_send(ctx, s, udp_dst, &[i as u8, k, 0x55, 0xAA]);
            }
        });
        tb.run_for(Duration::from_millis(5));
    }

    // Pumped in slices as the handshake completes and the window opens.
    let payload: Vec<u8> = (0..20_000u32).map(|i| (i % 251) as u8).collect();
    let conn = tb.with_host(HostId::Client, move |h, ctx| {
        h.tcp_connect(ctx, SocketAddrV4::new(server_addr, 5001))
    });
    let (mut offset, mut echoed) = (0, Vec::new());
    for _ in 0..200 {
        let slice = payload[offset..].to_vec();
        offset += tb.with_host(HostId::Client, move |h, ctx| h.tcp_send(ctx, conn, &slice));
        tb.run_for(Duration::from_millis(20));
        echoed.extend(tb.with_host(HostId::Client, move |h, _| h.tcp_recv(conn, usize::MAX)));
        if echoed.len() == payload.len() {
            break;
        }
    }
    assert_eq!(echoed, payload, "TCP echo must round-trip the payload");

    let links = [lan_link, wan_link]
        .iter()
        .flat_map(|&l| {
            [Dir::AtoB, Dir::BtoA].map(|d| {
                let s = tb.sim.link(l).stats(d);
                (s.tx_frames, s.tx_bytes)
            })
        })
        .collect();
    let wire = [Dir::AtoB, Dir::BtoA]
        .into_iter()
        .flat_map(|d| tb.sim.take_trace(wan_link, d))
        .map(|(t, f)| (t.as_nanos(), f))
        .collect();
    Drive { stats: tb.sim.stats(), links, wire, echoed }
}

fn assert_same_drive(expected: &Drive, got: &Drive, what: &str) {
    assert_eq!(expected.stats, got.stats, "{what}: simulator statistics diverged");
    assert_eq!(expected.links, got.links, "{what}: link transmit counters diverged");
    assert_eq!(expected.wire.len(), got.wire.len(), "{what}: WAN trace lengths diverged");
    for (i, (a, b)) in expected.wire.iter().zip(&got.wire).enumerate() {
        assert_eq!(a, b, "{what}: WAN frame {i} diverged (timestamp or bytes)");
    }
    assert_eq!(expected.echoed, got.echoed, "{what}: application payloads diverged");
}

#[test]
fn typed_and_boxed_households_are_bit_identical() {
    let typed_run = drive(&mut typed(3).build());
    assert_same_drive(&typed_run, &drive(&mut boxed(3)), "boxed household");
    assert!(typed_run.stats.events > 0 && !typed_run.wire.is_empty(), "workload actually ran");
}

/// What the throughput battery and the binding-ceiling probe leave behind.
#[derive(Debug, PartialEq)]
struct Probes {
    battery: ThroughputReport,
    bindings: MaxBindingsResult,
    sim: SimStats,
    nat: NatStats,
    links: Vec<(LinkDirStats, LinkDirStats)>,
}

fn probes(mut tb: Testbed) -> Probes {
    let battery = run_battery(&mut tb, 64 * 1024);
    let bindings = measure_max_bindings(&mut tb, 8, 48);
    let nat = tb.sim.node_ref::<Gateway>(tb.gateway).nat_stats();
    let links = (0..=tb.wan_link.0)
        .map(|id| {
            (tb.sim.link(LinkId(id)).stats(Dir::AtoB), tb.sim.link(LinkId(id)).stats(Dir::BtoA))
        })
        .collect();
    Probes { battery, bindings, sim: tb.sim.stats(), nat, links }
}

#[test]
fn typed_and_boxed_probes_are_bit_identical() {
    assert_eq!(probes(typed(1).build()), probes(boxed(1)));
}

#[test]
fn a_typed_build_in_a_boxed_shell_replays_a_fresh_build() {
    let mut donor = boxed(3);
    drive(&mut donor);
    let mut recycled = drive(&mut typed(3).build_in(donor.into_shell()));
    let mut fresh = drive(&mut typed(3).build());
    // A recycled frame pool starts warm by design: only its hit/miss split
    // may differ.
    for run in [&mut recycled, &mut fresh] {
        run.stats = SimStats { pool_hits: 0, pool_misses: 0, ..run.stats };
    }
    assert_same_drive(&fresh, &recycled, "typed build in a boxed shell");
}

#[test]
fn typed_access_reaches_boxed_nodes() {
    let tb = boxed(1);
    assert_eq!(tb.sim.node_ref::<Host>(tb.client).name, "test-client");
    assert_eq!(tb.tag(), TAG);
    assert!(tb.gateway_wan_addr().is_private());
    assert_eq!(tb.client_addr(), typed(1).build().client_addr());
}
