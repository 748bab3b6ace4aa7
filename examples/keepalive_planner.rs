//! Keepalive planner: measure the binding timeouts that matter to a
//! long-lived application (VoIP, push notifications, SSH) across a set of
//! gateways and compute the keepalive intervals that survive all of them —
//! §4.4's discussion as a tool.
//!
//! ```sh
//! cargo run --release --example keepalive_planner -- je be1 owrt ls1
//! ```

use hgw_probe::keepalive::{plan_keepalives, DeviceTimeouts};
use hgw_probe::udp_timeout::{measure_refresh, UdpScenario};
use home_gateway_study::prelude::*;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let tags: Vec<String> = if args.is_empty() {
        // A representative spread: short, typical and long timeouts.
        ["je", "be1", "ap", "owrt", "be2", "ls1"].iter().map(|s| s.to_string()).collect()
    } else {
        args
    };

    println!("Measuring bidirectional UDP timeouts and TCP binding timeouts...\n");
    let mut measured = Vec::new();
    for (i, tag) in tags.iter().enumerate() {
        let Some(device) = devices::device(tag) else {
            eprintln!("unknown device '{tag}', skipping");
            continue;
        };
        let mut tb = Testbed::new(device.tag, device.policy, (i + 1) as u8, 99);
        let udp3 =
            measure_refresh(&mut tb, 23_000, UdpScenario::Bidirectional, Duration::from_secs(2));
        let tcp1 = hgw_probe::tcp_timeout::measure_tcp1(&mut tb);
        println!(
            "  {:5}  UDP (bidirectional): {:6.0} s   TCP: {}",
            tag,
            udp3.timeout_secs,
            match tcp1.timeout_mins {
                Some(m) => format!("{m:.1} min"),
                None => "beyond 24 h".to_string(),
            }
        );
        measured.push(DeviceTimeouts {
            tag: tag.clone(),
            udp_bidirectional_secs: udp3.timeout_secs,
            tcp_mins: tcp1.plotted_mins(),
        });
    }

    let plan = plan_keepalives(&measured, 0.5);
    println!("\nKeepalive plan (safety factor {}):", plan.safety_factor);
    println!("  UDP keepalive interval: {:.0} s", plan.udp_interval_secs);
    println!("  TCP keepalive interval: {:.1} min", plan.tcp_interval_mins);
    if !plan.tcp_2h_casualties.is_empty() {
        println!(
            "  RFC 1122's standard 2-hour TCP keepalive would lose connections through: {}",
            plan.tcp_2h_casualties.join(" ")
        );
    }
    if !plan.udp_15s_overkill.is_empty() {
        println!(
            "  A 15-second UDP keepalive (as some applications use) over-services: {}",
            plan.udp_15s_overkill.join(" ")
        );
    }
}
