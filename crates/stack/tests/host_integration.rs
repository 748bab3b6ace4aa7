//! End-to-end tests of two `Host`s talking over a simulated link — every
//! protocol the testbed uses, without a gateway in the middle yet.

use std::net::{Ipv4Addr, SocketAddrV4};

use hgw_core::{Duration, LinkConfig, NodeId, PortId, Simulator};
use hgw_stack::dns::DnsZone;
use hgw_stack::host::{Host, ListenerApp};
use hgw_stack::iface::IfaceConfig;
use hgw_stack::sctp::SctpState;
use hgw_stack::tcp::TcpState;
use hgw_wire::dns::DnsMessage;
use hgw_wire::icmp::IcmpRepr;

const A_ADDR: Ipv4Addr = Ipv4Addr::new(10, 0, 1, 2);
const B_ADDR: Ipv4Addr = Ipv4Addr::new(10, 0, 1, 1);

fn two_hosts() -> (Simulator, NodeId, NodeId) {
    let mut sim = Simulator::new(42);
    let mut a = Host::new("client");
    a.add_iface(PortId(0), IfaceConfig::new(A_ADDR, 24));
    let mut b = Host::new("server");
    b.add_iface(PortId(0), IfaceConfig::new(B_ADDR, 24));
    let a = sim.add_node(Box::new(a));
    let b = sim.add_node(Box::new(b));
    sim.connect(a, PortId(0), b, PortId(0), LinkConfig::ethernet_100m());
    sim.boot();
    (sim, a, b)
}

#[test]
fn udp_round_trip() {
    let (mut sim, a, b) = two_hosts();
    let hb = sim.with_node::<Host, _>(b, |h, _| {
        let hb = h.udp_bind(7000);
        h.udp_set_echo(hb, true);
        hb
    });
    let ha = sim.with_node::<Host, _>(a, |h, ctx| {
        let ha = h.udp_bind_ephemeral();
        h.udp_send(ctx, ha, SocketAddrV4::new(B_ADDR, 7000), b"ping-udp");
        ha
    });
    sim.run_for(Duration::from_millis(10));
    let got = sim.with_node::<Host, _>(a, |h, _| h.udp_recv(ha));
    let (from, data) = got.expect("echo reply");
    assert_eq!(from, SocketAddrV4::new(B_ADDR, 7000));
    assert_eq!(data, b"ping-udp");
    // Server saw it too.
    let seen = sim.with_node::<Host, _>(b, |h, _| h.udp_recv(hb));
    assert_eq!(seen.unwrap().1, b"ping-udp");
}

#[test]
fn an_echo_socket_keeps_only_the_latest_datagram() {
    let (mut sim, a, b) = two_hosts();
    let hb = sim.with_node::<Host, _>(b, |h, _| {
        let hb = h.udp_bind(7000);
        h.udp_set_echo(hb, true);
        hb
    });
    let ha = sim.with_node::<Host, _>(a, |h, _| h.udp_bind_ephemeral());
    for i in 0..1_000u32 {
        sim.with_node::<Host, _>(a, |h, ctx| {
            h.udp_send(ctx, ha, SocketAddrV4::new(B_ADDR, 7000), &i.to_be_bytes());
        });
        sim.run_for(Duration::from_micros(200));
    }
    sim.run_for(Duration::from_millis(10));
    let (from, data) = sim.with_node::<Host, _>(b, |h, _| h.udp_recv(hb)).expect("latest");
    assert_eq!(*from.ip(), A_ADDR);
    assert_eq!(data, 999u32.to_be_bytes());
    assert_eq!(sim.with_node::<Host, _>(b, |h, _| h.udp_recv(hb)), None);
    // Every datagram was still echoed: the sender's queue holds all 1 000.
    let echoed = sim.with_node::<Host, _>(a, |h, _| {
        std::iter::from_fn(|| h.udp_recv(ha)).map(|(_, d)| d).collect::<Vec<_>>()
    });
    assert_eq!(echoed.len(), 1_000);
    assert_eq!(echoed[999], 999u32.to_be_bytes());
}

#[test]
fn udp_echo_replies_from_the_matched_alias_socket() {
    const ALIAS: Ipv4Addr = Ipv4Addr::new(10, 0, 1, 9);
    let (mut sim, a, b) = two_hosts();
    sim.with_node::<Host, _>(b, |h, _| {
        h.add_alias(PortId(0), ALIAS);
        // Slot 0: a wildcard socket on the same port, without echo.
        assert_eq!(h.udp_bind(7000).0, 0);
        let echo = h.udp_bind_at(ALIAS, 7000);
        h.udp_set_echo(echo, true);
    });
    let ha = sim.with_node::<Host, _>(a, |h, ctx| {
        let ha = h.udp_bind_ephemeral();
        h.udp_send(ctx, ha, SocketAddrV4::new(ALIAS, 7000), b"to-alias");
        ha
    });
    sim.run_for(Duration::from_millis(10));
    let (from, data) = sim.with_node::<Host, _>(a, |h, _| h.udp_recv(ha)).expect("echo reply");
    assert_eq!(from, SocketAddrV4::new(ALIAS, 7000));
    assert_eq!(data, b"to-alias");
}

#[test]
fn udp_to_closed_port_generates_port_unreachable() {
    let (mut sim, a, _b) = two_hosts();
    sim.with_node::<Host, _>(a, |h, ctx| {
        let ha = h.udp_bind_ephemeral();
        h.udp_send(ctx, ha, SocketAddrV4::new(B_ADDR, 9999), b"nobody-home");
    });
    sim.run_for(Duration::from_millis(10));
    let events = sim.with_node::<Host, _>(a, |h, _| h.icmp_take_events());
    assert_eq!(events.len(), 1);
    assert!(matches!(
        events[0].message,
        IcmpRepr::DestUnreachable { code: hgw_wire::icmp::UnreachCode::PortUnreachable, .. }
    ));
    let emb = events[0].embedded.as_ref().expect("embedded packet parsed");
    assert_eq!(emb.src, A_ADDR);
    assert_eq!(emb.dst_port, 9999);
    assert!(emb.ip_checksum_ok);
    assert_eq!(emb.l4_checksum_ok, Some(true));
}

#[test]
fn tcp_connect_transfer_close() {
    let (mut sim, a, b) = two_hosts();
    sim.with_node::<Host, _>(b, |h, _| h.tcp_listen(80, ListenerApp::Echo));
    let ha =
        sim.with_node::<Host, _>(a, |h, ctx| h.tcp_connect(ctx, SocketAddrV4::new(B_ADDR, 80)));
    sim.run_for(Duration::from_millis(50));
    assert_eq!(sim.with_node::<Host, _>(a, |h, _| h.tcp(ha).state()), TcpState::Established);
    sim.with_node::<Host, _>(a, |h, ctx| {
        h.tcp_send(ctx, ha, b"GET / HTTP/1.0\r\n\r\n");
    });
    sim.run_for(Duration::from_millis(50));
    let echoed = sim.with_node::<Host, _>(a, |h, _| h.tcp_recv(ha, 1000));
    assert_eq!(echoed, b"GET / HTTP/1.0\r\n\r\n");
    // Orderly close.
    sim.with_node::<Host, _>(a, |h, ctx| h.tcp_close(ctx, ha));
    sim.run_for(Duration::from_millis(50));
    let state = sim.with_node::<Host, _>(a, |h, _| h.tcp(ha).state());
    assert!(matches!(state, TcpState::FinWait2 | TcpState::TimeWait), "got {state:?}");
}

#[test]
fn tcp_bulk_transfer_saturates_link() {
    let (mut sim, a, b) = two_hosts();
    sim.with_node::<Host, _>(b, |h, _| h.tcp_listen(5001, ListenerApp::Manual));
    let ha =
        sim.with_node::<Host, _>(a, |h, ctx| h.tcp_connect(ctx, SocketAddrV4::new(B_ADDR, 5001)));
    sim.run_for(Duration::from_millis(20));
    let hb = sim.with_node::<Host, _>(b, |h, _| {
        let acc = h.tcp_accepted();
        assert_eq!(acc.len(), 1);
        acc[0]
    });
    const TOTAL: u64 = 2 * 1024 * 1024;
    sim.with_node::<Host, _>(b, |h, _| h.tcp_mut(hb).set_sink(2048));
    sim.with_node::<Host, _>(a, |h, ctx| {
        h.tcp_mut(ha).set_bulk_source(TOTAL, 2048);
        h.kick(ctx);
    });
    let start = sim.now();
    // Run up to 10 simulated seconds; the transfer should finish well before.
    for _ in 0..100 {
        sim.run_for(Duration::from_millis(100));
        let done =
            sim.with_node::<Host, _>(b, |h, _| h.tcp(hb).sink_stats().unwrap().bytes >= TOTAL);
        if done {
            break;
        }
    }
    let stats = sim.with_node::<Host, _>(b, |h, _| h.tcp(hb).sink_stats().unwrap().clone());
    assert_eq!(stats.bytes, TOTAL, "transfer incomplete");
    let elapsed = stats.last_arrival.unwrap() - start;
    let throughput_mbps = TOTAL as f64 * 8.0 / elapsed.as_secs_f64() / 1e6;
    // 100 Mb/s link: expect to get close (>70) but not exceed it.
    assert!(
        throughput_mbps > 70.0 && throughput_mbps <= 100.0,
        "throughput {throughput_mbps:.1} Mb/s"
    );
    assert_eq!(stats.stamps.len() as u64, TOTAL / 2048);
}

#[test]
fn ping_round_trip() {
    let (mut sim, a, _b) = two_hosts();
    sim.with_node::<Host, _>(a, |h, ctx| h.ping(ctx, B_ADDR, 77, 1));
    sim.run_for(Duration::from_millis(10));
    let replies = sim.with_node::<Host, _>(a, |h, _| h.ping_take_replies());
    assert_eq!(replies.len(), 1);
    assert_eq!(replies[0].1, B_ADDR);
    assert_eq!((replies[0].2, replies[0].3), (77, 1));
}

#[test]
fn sctp_association_and_echo() {
    let (mut sim, a, b) = two_hosts();
    sim.with_node::<Host, _>(b, |h, _| h.sctp_listen(9899));
    let ha =
        sim.with_node::<Host, _>(a, |h, ctx| h.sctp_connect(ctx, SocketAddrV4::new(B_ADDR, 9899)));
    sim.run_for(Duration::from_millis(50));
    assert_eq!(sim.with_node::<Host, _>(a, |h, _| h.sctp(ha).state()), SctpState::Established);
    sim.with_node::<Host, _>(a, |h, ctx| h.sctp_send(ctx, ha, b"sctp data".to_vec()));
    sim.run_for(Duration::from_millis(50));
    let received = sim.with_node::<Host, _>(a, |h, _| h.sctp(ha).received.clone());
    assert_eq!(received, vec![b"sctp data".to_vec()]);
}

#[test]
fn dccp_connect_and_echo() {
    let (mut sim, a, b) = two_hosts();
    sim.with_node::<Host, _>(b, |h, _| h.dccp_listen(5002));
    let ha = sim.with_node::<Host, _>(a, |h, ctx| {
        h.dccp_connect(ctx, SocketAddrV4::new(B_ADDR, 5002), 0x50524F42)
    });
    sim.run_for(Duration::from_millis(50));
    assert_eq!(
        sim.with_node::<Host, _>(a, |h, _| h.dccp(ha).state()),
        hgw_stack::dccp::DccpState::Established
    );
    sim.with_node::<Host, _>(a, |h, ctx| h.dccp_send(ctx, ha, b"dccp data".to_vec()));
    sim.run_for(Duration::from_millis(50));
    let received = sim.with_node::<Host, _>(a, |h, _| h.dccp(ha).received.clone());
    assert_eq!(received, vec![b"dccp data".to_vec()]);
}

#[test]
fn dns_over_udp_and_tcp() {
    let (mut sim, a, b) = two_hosts();
    sim.with_node::<Host, _>(b, |h, _| {
        h.enable_dns_server(DnsZone::testbed_default(B_ADDR));
    });
    // UDP query.
    let ha = sim.with_node::<Host, _>(a, |h, ctx| {
        let ha = h.udp_bind_ephemeral();
        let q = DnsMessage::query_a(0x5544, "server.hiit.fi");
        h.udp_send(ctx, ha, SocketAddrV4::new(B_ADDR, 53), &q.emit());
        ha
    });
    sim.run_for(Duration::from_millis(10));
    let (_, resp) = sim.with_node::<Host, _>(a, |h, _| h.udp_recv(ha)).expect("udp dns reply");
    let msg = DnsMessage::parse(&resp).unwrap();
    assert_eq!(msg.id, 0x5544);
    assert_eq!(msg.answers.len(), 1);

    // TCP query.
    let ht =
        sim.with_node::<Host, _>(a, |h, ctx| h.tcp_connect(ctx, SocketAddrV4::new(B_ADDR, 53)));
    sim.run_for(Duration::from_millis(20));
    sim.with_node::<Host, _>(a, |h, ctx| {
        let q = DnsMessage::query_a(0x7788, "www.hiit.fi").emit_tcp();
        h.tcp_send(ctx, ht, &q);
    });
    sim.run_for(Duration::from_millis(50));
    let data = sim.with_node::<Host, _>(a, |h, _| h.tcp_recv(ht, 4096));
    let (tmsg, _) = DnsMessage::parse_tcp(&data).expect("framed response");
    assert_eq!(tmsg.id, 0x7788);
    assert_eq!(tmsg.answers.len(), 1);
}

#[test]
fn dhcp_configures_client_iface() {
    let mut sim = Simulator::new(7);
    let mut server = Host::new("dhcp-server");
    server.add_iface(PortId(0), IfaceConfig::new(Ipv4Addr::new(10, 0, 3, 1), 24));
    server.enable_dhcp_server(
        PortId(0),
        hgw_stack::dhcp::DhcpServerConfig {
            server_addr: Ipv4Addr::new(10, 0, 3, 1),
            pool_start: Ipv4Addr::new(10, 0, 3, 100),
            pool_size: 10,
            subnet_mask: Ipv4Addr::new(255, 255, 255, 0),
            router: None,
            dns_servers: hgw_stack::dhcp::DnsServers::from_slice(&[Ipv4Addr::new(10, 0, 3, 1)]),
            lease_secs: 3600,
        },
    );
    let mut client = Host::new("dhcp-client");
    client.enable_dhcp_client(PortId(0), [2, 0, 0, 0, 0, 5]);
    let s = sim.add_node(Box::new(server));
    let c = sim.add_node(Box::new(client));
    sim.connect(c, PortId(0), s, PortId(0), LinkConfig::ethernet_100m());
    sim.boot();
    sim.run_for(Duration::from_secs(2));
    let lease = sim.with_node::<Host, _>(c, |h, _| h.dhcp_lease().cloned()).expect("bound");
    assert_eq!(lease.addr, Ipv4Addr::new(10, 0, 3, 100));
    assert_eq!(lease.router, Some(Ipv4Addr::new(10, 0, 3, 1)));
    // The lease is installed: the client can now ping the server.
    sim.with_node::<Host, _>(c, |h, ctx| h.ping(ctx, Ipv4Addr::new(10, 0, 3, 1), 5, 5));
    sim.run_for(Duration::from_millis(10));
    let replies = sim.with_node::<Host, _>(c, |h, _| h.ping_take_replies());
    assert_eq!(replies.len(), 1);
}

#[test]
fn tcp_syn_to_closed_port_gets_rst() {
    let (mut sim, a, _b) = two_hosts();
    let ha =
        sim.with_node::<Host, _>(a, |h, ctx| h.tcp_connect(ctx, SocketAddrV4::new(B_ADDR, 4444)));
    sim.run_for(Duration::from_millis(20));
    let (state, err) = sim.with_node::<Host, _>(a, |h, _| (h.tcp(ha).state(), h.tcp(ha).error()));
    assert_eq!(state, TcpState::Closed);
    assert_eq!(err, Some(hgw_stack::tcp::TcpError::Reset));
}

#[test]
fn many_parallel_tcp_connections() {
    let (mut sim, a, b) = two_hosts();
    sim.with_node::<Host, _>(b, |h, _| h.tcp_listen(6000, ListenerApp::Echo));
    let mut handles = Vec::new();
    for _ in 0..100 {
        let h = sim
            .with_node::<Host, _>(a, |h, ctx| h.tcp_connect(ctx, SocketAddrV4::new(B_ADDR, 6000)));
        handles.push(h);
        sim.run_for(Duration::from_millis(2));
    }
    sim.run_for(Duration::from_millis(200));
    let established = sim.with_node::<Host, _>(a, |h, _| {
        handles.iter().filter(|&&x| h.tcp(x).state() == TcpState::Established).count()
    });
    assert_eq!(established, 100);
    // Pass a message over each.
    sim.with_node::<Host, _>(a, |h, ctx| {
        for &x in &handles {
            h.tcp_send(ctx, x, b"msg");
        }
    });
    sim.run_for(Duration::from_millis(200));
    let echoed = sim.with_node::<Host, _>(a, |h, _| {
        handles.iter().filter(|&&x| h.tcp_mut(x).recv(10) == b"msg").count()
    });
    assert_eq!(echoed, 100);
}
