//! Full §4 scorecard for one device: every measurement of the paper run
//! against a single gateway model, printed as a report.
//!
//! ```sh
//! cargo run --release --example device_report -- ls1
//! ```

use hgw_gateway::IcmpErrorKind;
use hgw_probe::udp_timeout::{measure_refresh, measure_udp1, UdpScenario};
use home_gateway_study::prelude::*;

fn main() {
    let tag = std::env::args().nth(1).unwrap_or_else(|| "ls1".to_string());
    let device = devices::device(&tag).unwrap_or_else(|| {
        eprintln!("unknown device '{tag}'; known tags: {}", devices::all_tags().join(" "));
        std::process::exit(1);
    });
    println!(
        "====== {} — {} {} (firmware {}) ======\n",
        device.tag, device.provenance.vendor, device.provenance.model, device.provenance.firmware
    );
    // Each section gets a fresh testbed: probes leave bindings behind, and
    // on small-table devices (ls1 caps at 32) a saturated table would
    // contaminate the next measurement — the paper serialized its runs for
    // related reasons.
    let mut fresh = {
        let mut slot = 0u8;
        let tag = device.tag;
        let policy = device.policy;
        move || {
            slot += 1;
            Testbed::new(tag, policy, slot, 0xD0C + slot as u64)
        }
    };
    let mut tb = fresh();

    println!("-- NAT binding timeouts --");
    let u1 = measure_udp1(&mut tb, 20_000);
    println!("UDP-1 (solitary outbound):  {:>7.1} s", u1.timeout_secs);
    let u2 = measure_refresh(&mut tb, 21_000, UdpScenario::InboundRefresh, Duration::from_secs(1));
    println!("UDP-2 (inbound refresh):    {:>7.1} s", u2.timeout_secs);
    let u3 = measure_refresh(&mut tb, 22_000, UdpScenario::Bidirectional, Duration::from_secs(1));
    println!("UDP-3 (bidirectional):      {:>7.1} s", u3.timeout_secs);
    let t1 = hgw_probe::tcp_timeout::measure_tcp1(&mut tb);
    match t1.timeout_mins {
        Some(m) => println!("TCP-1 (idle TCP binding):   {:>7.1} min", m),
        None => println!("TCP-1 (idle TCP binding):   beyond the 24 h cutoff"),
    }

    let mut tb = fresh();
    println!("\n-- Port handling (UDP-4) --");
    let hint = Duration::from_secs_f64(u1.timeout_secs)
        + device.policy.timer_granularity
        + Duration::from_secs(20);
    let reuse = hgw_probe::port_reuse::observe_port_reuse(&mut tb, 26_000, 40_111, hint);
    println!("preserves source port:      {}", reuse.preserves_port);
    println!("reuses expired binding:     {}", reuse.reuses_expired_binding);

    let mut tb = fresh();
    println!("\n-- Capacity --");
    let t4 = hgw_probe::max_bindings::measure_max_bindings(&mut tb, 32, 1100);
    println!("max TCP bindings:           {:>7}", t4.max_bindings);
    let rate = hgw_probe::binding_rate::measure_binding_rate(&mut tb, 100);
    println!("new bindings per second:    {:>7.0}", rate.bindings_per_sec);

    let mut tb = fresh();
    println!("\n-- Forwarding (TCP-2/TCP-3, 8 MiB transfers) --");
    let rep = hgw_probe::throughput::run_battery(&mut tb, 8 * 1024 * 1024);
    println!(
        "download / upload:          {:>6.1} / {:.1} Mb/s   (delays {:.1} / {:.1} ms)",
        rep.download.throughput_mbps,
        rep.upload.throughput_mbps,
        rep.download.delay_ms,
        rep.upload.delay_ms
    );
    println!(
        "bidirectional:              {:>6.1} / {:.1} Mb/s   (delays {:.1} / {:.1} ms)",
        rep.download_during_bidir.throughput_mbps,
        rep.upload_during_bidir.throughput_mbps,
        rep.download_during_bidir.delay_ms,
        rep.upload_during_bidir.delay_ms
    );

    let mut tb = fresh();
    println!("\n-- Other protocols --");
    let transports = hgw_probe::transport::measure_transport_support(&mut tb);
    println!(
        "SCTP / DCCP traversal:      {} / {}",
        if transports.sctp_works { "works" } else { "fails" },
        if transports.dccp_works { "works" } else { "fails" }
    );
    let dns = hgw_probe::dns::measure_dns(&mut tb);
    println!(
        "DNS proxy UDP / TCP:        {} / {}",
        if dns.udp_answered { "answers" } else { "fails" },
        if dns.tcp_answered {
            "answers"
        } else if dns.tcp_accepted {
            "accepts, never answers"
        } else {
            "refuses"
        }
    );

    let mut tb = fresh();
    println!("\n-- ICMP translation --");
    let icmp = hgw_probe::icmp::measure_icmp_matrix(&mut tb);
    let list = |rows: &[(IcmpErrorKind, hgw_probe::icmp::IcmpOutcome)]| -> String {
        let ok: Vec<&str> =
            rows.iter().filter(|(_, o)| o.is_translated()).map(|(k, _)| k.label()).collect();
        if ok.is_empty() {
            "(none)".into()
        } else {
            ok.join(", ")
        }
    };
    println!("TCP-flow errors passed:     {}", list(&icmp.tcp));
    println!("UDP-flow errors passed:     {}", list(&icmp.udp));
    println!("ping Host Unreachable:      {}", icmp.icmp_host_unreach);

    let mut tb = fresh();
    println!("\n-- Traversal personality --");
    let class = hgw_probe::classify::classify_nat(&mut tb);
    println!("RFC 3489 type:              {}", class.rfc3489_label());
    println!("hairpinning:                {}", class.hairpinning);
    let quirks = hgw_probe::quirks::probe_ip_quirks(&mut tb);
    println!("decrements TTL:             {}", quirks.decrements_ttl);
    println!("honors Record Route:        {}", quirks.honors_record_route);
}
