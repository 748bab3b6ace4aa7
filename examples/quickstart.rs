//! Quickstart: build the paper's testbed around one gateway model and run
//! a few measurements against it.
//!
//! ```sh
//! cargo run --release --example quickstart -- owrt
//! ```

use home_gateway_study::prelude::*;

fn main() {
    let tag = std::env::args().nth(1).unwrap_or_else(|| "owrt".to_string());
    let device = devices::device(&tag).unwrap_or_else(|| {
        eprintln!("unknown device '{tag}'; known tags: {}", devices::all_tags().join(" "));
        std::process::exit(1);
    });
    println!(
        "Device under test: {} — {} {} (fw {})",
        device.tag, device.provenance.vendor, device.provenance.model, device.provenance.firmware
    );

    // Assemble Figure 1: client ── gateway ── server, with DHCP on both
    // sides of the gateway.
    let mut tb = Testbed::new(device.tag, device.policy, 1, 0xC0FFEE);
    println!("client address (leased by the gateway): {}", tb.client_addr());
    println!("gateway WAN address (leased by the test server): {}", tb.gateway_wan_addr());

    // UDP-1: how long does a binding survive after one outbound packet?
    let udp1 = probe::udp_timeout::measure_udp1(&mut tb, 20_000);
    println!(
        "UDP-1 binding timeout: {:.1} s  (paper value for {}: {} s; {} trials)",
        udp1.timeout_secs, device.tag, device.expected.udp1_secs, udp1.trials
    );

    // Does a ping traverse the NAT?
    let server = tb.server_addr;
    tb.with_host(HostId::Client, |h, ctx| h.ping(ctx, server, 0x1234, 1));
    tb.run_for(Duration::from_millis(100));
    let replies = tb.with_host(HostId::Client, |h, _| h.ping_take_replies());
    println!(
        "ICMP echo through the NAT: {}",
        if replies.is_empty() { "no reply" } else { "works" }
    );

    // Is the NAT traversal-friendly?
    let class = probe::classify::classify_nat(&mut tb);
    println!(
        "NAT classification: {} (mapping {:?}, filtering {:?}, hairpinning {})",
        class.rfc3489_label(),
        class.mapping,
        class.filtering,
        class.hairpinning
    );
}
