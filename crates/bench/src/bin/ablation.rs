//! Ablation study of the gateway model's design choices (DESIGN.md §3):
//! which knob produces which published phenomenon.
//!
//! 1. Traffic-pattern-dependent timeouts → the UDP-1/2/3 spread of Fig. 2.
//! 2. Coarse binding timers → the wide IQRs of Fig. 4 (we/al/je/ng5).
//! 3. Forwarding capacity → the queuing delays of Fig. 9.
//! 4. Shared aggregate capacity → the bidirectional collapse of Fig. 8.

use hgw_core::Duration;
use hgw_gateway::{ForwardingModel, GatewayPolicy};
use hgw_probe::throughput::{run_battery, run_transfer, Direction};
use hgw_probe::udp_timeout::{measure_refresh, measure_repeated, measure_udp1, UdpScenario};
use hgw_stats::Summary;
use hgw_testbed::Testbed;

const MB: u64 = 1024 * 1024;

fn section(title: &str) {
    println!("\n=== {title} ===");
}

fn ablate_pattern_timeouts() {
    section("1. Traffic-pattern-dependent timeouts");
    // With the three-timeout model (the design), UDP-1/2/3 differ; with a
    // single timeout (the ablation), they collapse onto one value — which
    // is exactly what Figure 2 shows real devices do NOT do.
    let mut modeled = GatewayPolicy::well_behaved();
    modeled.udp_timeout_solitary = Duration::from_secs(30);
    modeled.udp_timeout_inbound = Duration::from_secs(180);
    modeled.udp_timeout_bidirectional = Duration::from_secs(300);
    let mut flat = modeled;
    flat.udp_timeout_solitary = Duration::from_secs(180);
    flat.udp_timeout_inbound = Duration::from_secs(180);
    flat.udp_timeout_bidirectional = Duration::from_secs(180);
    for (name, policy) in
        [("pattern-dependent (model)", modeled), ("single timeout (ablation)", flat)]
    {
        let mut tb = Testbed::builder("ablate", policy).index(1).seed(3).build();
        let u1 = measure_udp1(&mut tb, 20_000).timeout_secs;
        let u2 =
            measure_refresh(&mut tb, 21_000, UdpScenario::InboundRefresh, Duration::from_secs(2))
                .timeout_secs;
        let u3 =
            measure_refresh(&mut tb, 22_000, UdpScenario::Bidirectional, Duration::from_secs(2))
                .timeout_secs;
        println!("  {name:28} UDP-1 {u1:6.0}  UDP-2 {u2:6.0}  UDP-3 {u3:6.0}");
    }
}

fn ablate_timer_granularity() {
    section("2. Binding-timer granularity vs. measurement spread (UDP-1, 15 searches)");
    for granularity in [1u64, 10, 30, 60] {
        let mut policy = GatewayPolicy::well_behaved();
        policy.udp_timeout_solitary =
            Duration::from_secs(180).saturating_sub(Duration::from_secs(granularity / 2));
        policy.timer_granularity = Duration::from_secs(granularity);
        let mut tb = Testbed::builder("ablate", policy).index(2).seed(5).build();
        let vals =
            measure_repeated(&mut tb, UdpScenario::Solitary, 21_000, 15, Duration::from_secs(1));
        let s = Summary::of(&vals).unwrap();
        println!(
            "  granularity {granularity:>3} s  →  median {:6.1} s, IQR {:5.1} s, span {:5.1} s",
            s.median,
            s.iqr(),
            s.max - s.min
        );
    }
    println!("  (coarse timers reproduce the visible error bars of we/al/je/ng5 in Fig. 4)");
}

fn ablate_forwarding_rate() {
    section("3. Forwarding capacity vs. TCP-3 queuing delay (fixed 96 KB buffers)");
    // The sender's backlog drains at the device's forwarding rate, so the
    // min-normalized stamp delay scales inversely with capacity — the
    // mechanism that orders Figure 9 like an inverted Figure 8.
    for mbps in [100u64, 50, 20, 7] {
        let mut policy = GatewayPolicy::well_behaved();
        policy.forwarding = ForwardingModel {
            up_bps: mbps * 1_000_000,
            down_bps: mbps * 1_000_000,
            aggregate_bps: mbps * 1_200_000,
            buffer_up: 96 * 1024,
            buffer_down: 96 * 1024,
            per_packet_overhead: Duration::from_micros(20),
        };
        let mut tb = Testbed::builder("ablate", policy).index(3).seed(7).build();
        let r = run_transfer(&mut tb, 5001, Direction::Download, 4 * MB);
        println!(
            "  capacity {mbps:>3} Mb/s  →  throughput {:5.1} Mb/s, delay {:6.1} ms",
            r.throughput_mbps, r.delay_ms
        );
    }
}

fn ablate_aggregate_capacity() {
    section("4. Shared aggregate capacity vs. bidirectional throughput (60/60 Mb/s device)");
    for agg in [None, Some(120_000_000u64), Some(70_000_000), Some(40_000_000)] {
        let mut policy = GatewayPolicy::well_behaved();
        policy.forwarding = ForwardingModel {
            up_bps: 60_000_000,
            down_bps: 60_000_000,
            aggregate_bps: agg.unwrap_or(u64::MAX),
            buffer_up: 96 * 1024,
            buffer_down: 96 * 1024,
            per_packet_overhead: Duration::from_micros(20),
        };
        let mut tb = Testbed::builder("ablate", policy).index(4).seed(9).build();
        let rep = run_battery(&mut tb, 2 * MB);
        println!(
            "  aggregate {:>9}  →  uni {:4.1}/{:4.1}  bidir {:4.1}/{:4.1} Mb/s",
            agg.map(|a| format!("{} Mb/s", a / 1_000_000)).unwrap_or_else(|| "unlimited".into()),
            rep.download.throughput_mbps,
            rep.upload.throughput_mbps,
            rep.download_during_bidir.throughput_mbps,
            rep.upload_during_bidir.throughput_mbps,
        );
    }
    println!("  (a shared CPU below 2x the line rate reproduces Fig. 8's bidirectional dip)");
}

fn main() {
    println!("Ablations: one design knob at a time, measured through the full testbed.");
    ablate_pattern_timeouts();
    ablate_timer_granularity();
    ablate_forwarding_rate();
    ablate_aggregate_capacity();
}
