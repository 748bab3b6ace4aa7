//! Packet capture: trace both sides of a gateway during a DNS lookup and a
//! short TCP exchange, and write Wireshark-readable pcap files — the
//! smoltcp examples' `--pcap` workflow for this testbed.
//!
//! ```sh
//! cargo run --release --example packet_capture
//! ls target/captures/
//! ```

use std::net::SocketAddrV4;
use std::path::Path;

use hgw_core::{write_pcap, Dir};
use hgw_stack::host::ListenerApp;
use hgw_wire::dns::DnsMessage;
use home_gateway_study::prelude::*;

fn main() {
    let device = devices::device("owrt").unwrap();
    let mut tb = Testbed::new(device.tag, device.policy, 1, 0xCAB);
    // Capture both directions of both links.
    for link in [tb.lan_link, tb.wan_link] {
        tb.sim.enable_trace(link, Dir::AtoB);
        tb.sim.enable_trace(link, Dir::BtoA);
    }

    // Workload: a DNS query through the proxy plus a small TCP exchange.
    let proxy = tb.gateway_lan_addr();
    let server = tb.server_addr;
    tb.with_host(HostId::Client, |h, ctx| {
        let s = h.udp_bind_ephemeral();
        h.udp_send(
            ctx,
            s,
            SocketAddrV4::new(proxy, 53),
            &DnsMessage::query_a(7, "www.hiit.fi").emit(),
        );
    });
    tb.with_host(HostId::Server, |h, _| h.tcp_listen(80, ListenerApp::Echo));
    let conn =
        tb.with_host(HostId::Client, |h, ctx| h.tcp_connect(ctx, SocketAddrV4::new(server, 80)));
    tb.run_for(Duration::from_millis(200));
    tb.with_host(HostId::Client, |h, ctx| {
        h.tcp_send(ctx, conn, b"GET / HTTP/1.0\r\n\r\n");
    });
    tb.run_for(Duration::from_millis(500));
    tb.with_host(HostId::Client, |h, ctx| h.tcp_close(ctx, conn));
    tb.run_for(Duration::from_secs(1));

    // Export. The LAN captures show private addresses; the WAN captures
    // show the gateway's translations — diff them in Wireshark to watch
    // the NAT work.
    let out = Path::new("target/captures");
    for (name, link, dir) in [
        ("lan_c2g", tb.lan_link, Dir::AtoB),
        ("lan_g2c", tb.lan_link, Dir::BtoA),
        ("wan_g2s", tb.wan_link, Dir::AtoB),
        ("wan_s2g", tb.wan_link, Dir::BtoA),
    ] {
        let trace = tb.sim.take_trace(link, dir);
        let path = out.join(format!("{name}.pcap"));
        write_pcap(&path, &trace).expect("write pcap");
        println!("{}: {} frames", path.display(), trace.len());
    }
}
