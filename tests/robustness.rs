//! Robustness: determinism across runs, fault injection on the links, and
//! measurement validity under adverse conditions.

use hgw_core::FaultConfig;
use hgw_probe::udp_timeout::measure_udp1;
use hgw_stack::host::{Host, ListenerApp};
use home_gateway_study::prelude::*;

#[test]
fn identical_seeds_give_identical_measurements() {
    let run = |seed: u64| {
        let d = devices::device("owrt").unwrap();
        let mut tb = Testbed::new(d.tag, d.policy, 1, seed);
        let u1 = measure_udp1(&mut tb, 20_000);
        let class = hgw_probe::classify::classify_nat(&mut tb);
        (u1.timeout_secs, u1.trials, class)
    };
    assert_eq!(run(1234), run(1234));
}

#[test]
fn different_seeds_still_measure_the_same_timeout() {
    // Randomness (ISS, idents, ports) must not leak into the measured
    // policy values.
    let d = devices::device("ed").unwrap();
    let mut values = Vec::new();
    for seed in [1, 2, 3] {
        let mut tb = Testbed::new(d.tag, d.policy, 1, seed);
        values.push(measure_udp1(&mut tb, 20_000).timeout_secs);
    }
    for v in &values {
        assert!((v - values[0]).abs() <= 2.0, "seed variance too high: {values:?}");
    }
}

#[test]
fn tcp_bulk_transfer_survives_packet_loss() {
    // smoltcp-style fault injection: 2% loss on the WAN link; the transfer
    // must still complete (retransmissions) at reduced speed.
    let d = devices::device("bu1").unwrap();
    let mut tb = Testbed::new(d.tag, d.policy, 1, 77);
    *tb.link_config_mut(tb.wan_link) = hgw_core::LinkConfig {
        fault: FaultConfig { drop_chance: 0.02, ..FaultConfig::NONE },
        ..hgw_core::LinkConfig::ethernet_100m()
    };
    const MB: u64 = 1024 * 1024;
    let r = hgw_probe::throughput::run_transfer(
        &mut tb,
        5001,
        hgw_probe::throughput::Direction::Upload,
        2 * MB,
    );
    assert!(r.completed, "transfer must complete under 2% loss (got {} bytes)", r.bytes);
    assert!(r.throughput_mbps > 1.0);
}

#[test]
fn tcp_transfer_survives_corruption_and_reordering() {
    let d = devices::device("al").unwrap();
    let mut tb = Testbed::new(d.tag, d.policy, 2, 78);
    *tb.link_config_mut(tb.lan_link) = hgw_core::LinkConfig {
        fault: FaultConfig {
            corrupt_chance: 0.01,
            reorder_chance: 0.05,
            reorder_window: Duration::from_micros(500),
            ..FaultConfig::NONE
        },
        ..hgw_core::LinkConfig::ethernet_100m()
    };
    const MB: u64 = 1024 * 1024;
    let r = hgw_probe::throughput::run_transfer(
        &mut tb,
        5001,
        hgw_probe::throughput::Direction::Download,
        MB,
    );
    assert!(r.completed, "transfer must complete under corruption+reorder (got {} bytes)", r.bytes);
}

#[test]
fn udp_measurement_unaffected_by_background_tcp_noise() {
    // A concurrent TCP connection must not perturb the UDP-1 result.
    let d = devices::device("to").unwrap();
    let mut tb = Testbed::new(d.tag, d.policy, 3, 79);
    let server_addr = tb.server_addr;
    tb.with_host(HostId::Server, |h: &mut Host, _| h.tcp_listen(8080, ListenerApp::Echo));
    let conn = tb.with_host(HostId::Client, |h, ctx| {
        h.tcp_connect(ctx, std::net::SocketAddrV4::new(server_addr, 8080))
    });
    tb.run_for(Duration::from_millis(100));
    tb.with_host(HostId::Client, |h, ctx| {
        h.tcp_send(ctx, conn, b"background chatter");
    });
    let m = measure_udp1(&mut tb, 20_000);
    assert!(
        (m.timeout_secs - d.expected.udp1_secs).abs() <= 2.0,
        "measured {} expected {}",
        m.timeout_secs,
        d.expected.udp1_secs
    );
}

#[test]
fn drop_accounting_sums_match_under_fault_injection() {
    // Every frame the fault injector kills on the WAN link must land in the
    // simulator's per-reason drop counters, and the gateway's own taxonomy
    // counters must agree with the corresponding DropCounts slots.
    use hgw_core::DropReason;
    let d = devices::device("bu1").unwrap();
    let mut tb = Testbed::new(d.tag, d.policy, 1, 91);
    *tb.link_config_mut(tb.wan_link) = hgw_core::LinkConfig {
        fault: FaultConfig { drop_chance: 0.05, ..FaultConfig::NONE },
        ..hgw_core::LinkConfig::ethernet_100m()
    };
    let log = hgw_core::EventLog::new();
    tb.sim.attach_observer(Box::new(log));

    const MB: u64 = 1024 * 1024;
    let r = hgw_probe::throughput::run_transfer(
        &mut tb,
        5001,
        hgw_probe::throughput::Direction::Upload,
        MB,
    );
    assert!(r.completed, "transfer must complete under 5% loss");
    // Restore a clean link (so probes themselves survive), then probe an
    // expired binding so the gateway drops a late inbound packet.
    *tb.link_config_mut(tb.wan_link) = hgw_core::LinkConfig::ethernet_100m();
    let _ = measure_udp1(&mut tb, 20_000);

    let stats = tb.sim.stats();
    assert!(
        stats.frames_dropped.by(DropReason::FaultInjection) > 0,
        "5% loss over 1 MB must kill at least one frame"
    );

    // The observer saw exactly the drops the stats counted (bring-up here
    // happens before attach, but bring-up drops nothing on a clean link).
    let obs = tb.sim.detach_observer().unwrap();
    let log = obs.as_any().downcast_ref::<hgw_core::EventLog>().unwrap();
    let seen = log.drops();
    assert_eq!(seen, stats.frames_dropped, "event log and SimStats disagree");

    // Gateway-level counters mirror the sim-level taxonomy slots they feed.
    let gw = tb.sim.node_ref::<home_gateway_study::gateway::Gateway>(tb.gateway);
    assert_eq!(gw.stats.dropped_no_binding, stats.frames_dropped.by(DropReason::NoBinding));
    assert_eq!(gw.stats.dropped_filtered, stats.frames_dropped.by(DropReason::Filtered));
    assert_eq!(gw.stats.dropped_capacity, stats.frames_dropped.by(DropReason::Capacity));

    // A megabyte of faulted traffic exercises the frame pool heavily: the
    // steady-state hit rate must dominate, and dropped frames' buffers are
    // recycled rather than leaked (misses stay bounded by the working set).
    assert!(stats.pool_hits > 0, "frame pool never recycled a buffer");
    assert!(
        stats.pool_hits > stats.pool_misses,
        "steady-state traffic should mostly reuse pooled buffers (hits {} misses {})",
        stats.pool_hits,
        stats.pool_misses
    );
}

#[test]
fn tracing_does_not_change_measurements() {
    // Bit-for-bit determinism with an observer attached: the full
    // measurement tuple (timeouts, classification, stats, virtual clock)
    // must be identical whether or not a trace sink is watching.
    let run = |attach: bool| {
        let d = devices::device("smc").unwrap();
        let mut tb = Testbed::new(d.tag, d.policy, 1, 4242);
        if attach {
            tb.sim.attach_observer(Box::new(hgw_core::EventLog::new()));
        }
        let u1 = measure_udp1(&mut tb, 20_000);
        let class = hgw_probe::classify::classify_nat(&mut tb);
        let stats = tb.sim.stats();
        (u1.timeout_secs, u1.trials, class, stats, tb.sim.now())
    };
    assert_eq!(run(false), run(true), "tracing perturbed the simulation");
}

#[test]
fn bringup_works_for_every_device_profile() {
    // Double-DHCP bring-up and a UDP round trip for all 34 profiles.
    for (i, d) in devices::all_devices().into_iter().enumerate() {
        let mut tb = Testbed::new(d.tag, d.policy, (i + 1) as u8, 0xB00 + i as u64);
        let server_addr = tb.server_addr;
        let srv = tb.with_host(HostId::Server, |h, _| {
            let s = h.udp_bind(7777);
            h.udp_set_echo(s, true);
            s
        });
        let cli = tb.with_host(HostId::Client, |h, ctx| {
            let s = h.udp_bind_ephemeral();
            h.udp_send(ctx, s, std::net::SocketAddrV4::new(server_addr, 7777), b"hello");
            s
        });
        tb.run_for(Duration::from_millis(100));
        assert!(
            tb.with_host(HostId::Client, |h, _| h.udp_recv(cli)).is_some(),
            "{}: UDP round trip failed",
            d.tag
        );
        let _ = srv;
    }
}
