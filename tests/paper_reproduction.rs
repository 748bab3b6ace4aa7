//! Integration tests asserting the measurement suite reproduces the
//! values the paper states explicitly (§4) — measured end to end through
//! the simulated testbed, never read from gateway internals.

use hgw_probe::max_bindings::measure_max_bindings;
use hgw_probe::port_reuse::observe_port_reuse;
use hgw_probe::tcp_timeout::measure_tcp1;
use hgw_probe::transport::measure_transport_support;
use hgw_probe::udp_timeout::{measure_refresh, measure_udp1, UdpScenario};
use home_gateway_study::prelude::*;

fn testbed(tag: &str, slot: u8) -> Testbed {
    let d = devices::device(tag).unwrap_or_else(|| panic!("unknown device {tag}"));
    Testbed::new(d.tag, d.policy, slot, 0xACE0 ^ slot as u64)
}

#[test]
fn udp1_stated_values() {
    // §4.1: je is among the shortest at 30 s; ls1 longest at 691 s;
    // be2 ≈ 450 s.
    for (tag, expect, slot) in [("je", 30.0, 1), ("ls1", 691.0, 2), ("be2", 450.0, 3)] {
        let mut tb = testbed(tag, slot);
        let m = measure_udp1(&mut tb, 20_000);
        assert!(
            (m.timeout_secs - expect).abs() <= 6.0,
            "{tag}: measured {} expected {expect}",
            m.timeout_secs
        );
    }
}

#[test]
fn udp2_lengthens_the_30s_cluster_to_180() {
    // §4.1: ed/owrt/to/te share 30 s in UDP-1 but 180 s in UDP-2.
    let mut tb = testbed("ed", 4);
    let u1 = measure_udp1(&mut tb, 20_000);
    let u2 = measure_refresh(&mut tb, 21_000, UdpScenario::InboundRefresh, Duration::from_secs(1));
    assert!((u1.timeout_secs - 30.0).abs() <= 2.0, "udp1 {}", u1.timeout_secs);
    assert!((u2.timeout_secs - 180.0).abs() <= 3.0, "udp2 {}", u2.timeout_secs);
}

#[test]
fn be2_shortens_under_inbound_traffic() {
    // §4.1: be2 drops from ~450 s (UDP-1) to ~202 s (UDP-2).
    let mut tb = testbed("be2", 5);
    let u2 = measure_refresh(&mut tb, 21_000, UdpScenario::InboundRefresh, Duration::from_secs(1));
    assert!((u2.timeout_secs - 202.0).abs() <= 4.0, "udp2 {}", u2.timeout_secs);
    // ...and UDP-3 restores the UDP-1 level.
    let u3 = measure_refresh(&mut tb, 22_000, UdpScenario::Bidirectional, Duration::from_secs(2));
    assert!((u3.timeout_secs - 450.0).abs() <= 6.0, "udp3 {}", u3.timeout_secs);
}

#[test]
fn udp5_dl8_uses_shorter_dns_timeout() {
    // §4.1 / Figure 6: dl8's DNS-port bindings expire sooner than its
    // other services.
    let mut tb = testbed("dl8", 6);
    let dns = measure_refresh(&mut tb, 53, UdpScenario::InboundRefresh, Duration::from_secs(2));
    let http = measure_refresh(&mut tb, 80, UdpScenario::InboundRefresh, Duration::from_secs(2));
    assert!(
        dns.timeout_secs + 30.0 < http.timeout_secs,
        "dns {} vs http {}",
        dns.timeout_secs,
        http.timeout_secs
    );
}

#[test]
fn tcp1_be1_times_out_after_239_seconds() {
    // §4.2: "be1 consistently times out TCP bindings after 239 sec".
    let mut tb = testbed("be1", 7);
    let m = measure_tcp1(&mut tb);
    let secs = m.timeout_mins.expect("below cutoff") * 60.0;
    assert!((secs - 239.0).abs() <= 3.0, "measured {secs} s");
}

#[test]
fn tcp1_te_outlives_the_cutoff() {
    let mut tb = testbed("te", 8);
    let m = measure_tcp1(&mut tb);
    assert_eq!(m.timeout_mins, None, "te held its binding beyond 24 h in the paper");
}

#[test]
fn tcp4_extremes() {
    // §4.2: dl9 and smc support only 16 bindings.
    let mut tb = testbed("dl9", 9);
    let r = measure_max_bindings(&mut tb, 8, 64);
    assert_eq!(r.max_bindings, 16);
}

#[test]
fn udp4_behavior_classes() {
    // §4.1: port preservation + binding reuse classes, one device each.
    let cases = [
        ("owrt", true, true),  // preserve + reuse
        ("be1", true, false),  // preserve + quarantine
        ("smc", false, false), // sequential
    ];
    for (i, (tag, preserve, reuse)) in cases.into_iter().enumerate() {
        let d = devices::device(tag).unwrap();
        let mut tb = testbed(tag, 10 + i as u8);
        let hint = Duration::from_secs_f64(d.expected.udp1_secs)
            + d.policy.timer_granularity
            + Duration::from_secs(20);
        let obs = observe_port_reuse(&mut tb, 26_000, 40_321, hint);
        assert_eq!(obs.preserves_port, preserve, "{tag} preservation");
        assert_eq!(obs.reuses_expired_binding, reuse, "{tag} reuse");
    }
}

#[test]
fn sctp_and_dccp_stated_behaviors() {
    // §4.3: SCTP works through IP-rewriting devices; DCCP through none;
    // dl4 passes packets entirely untranslated.
    let mut tb = testbed("owrt", 13);
    let s = measure_transport_support(&mut tb);
    assert!(s.sctp_works, "owrt passes SCTP");
    assert!(!s.dccp_works, "no device passes DCCP");
    assert_eq!(s.sctp_observation, hgw_probe::transport::TranslationObservation::IpRewritten);

    let mut tb = testbed("dl4", 14);
    let s = measure_transport_support(&mut tb);
    assert!(!s.sctp_works);
    assert_eq!(
        s.sctp_observation,
        hgw_probe::transport::TranslationObservation::PassedThrough,
        "dl4 passes unknown transports untranslated"
    );
}

#[test]
fn dns_proxy_stated_behaviors() {
    // §4.3: ap answers TCP queries but forwards upstream over UDP; a
    // refusing device rejects the connection outright.
    let mut tb = testbed("ap", 15);
    let r = hgw_probe::dns::measure_dns(&mut tb);
    assert!(r.udp_answered);
    assert!(r.tcp_accepted && r.tcp_answered);
    assert_eq!(r.tcp_upstream_via_udp, Some(true), "the ap quirk");

    let mut tb = testbed("smc", 16);
    let r = hgw_probe::dns::measure_dns(&mut tb);
    assert!(r.udp_answered);
    assert!(!r.tcp_accepted);
}

#[test]
fn icmp_stated_behaviors() {
    // §4.3: nw1 translates no transport-related ICMP; ls2 fabricates
    // invalid RSTs for TCP errors; zy1 leaves stale embedded IP checksums.
    let mut tb = testbed("nw1", 17);
    let m = hgw_probe::icmp::measure_icmp_matrix(&mut tb);
    assert_eq!(m.translated_count(), 0, "nw1 translates nothing");

    let mut tb = testbed("ls2", 18);
    let m = hgw_probe::icmp::measure_icmp_matrix(&mut tb);
    assert!(m.tcp.iter().all(|(_, o)| *o == hgw_probe::icmp::IcmpOutcome::InvalidRst));

    let mut tb = testbed("zy1", 19);
    let m = hgw_probe::icmp::measure_icmp_matrix(&mut tb);
    let stale = m.udp.iter().any(|(_, o)| {
        matches!(o, hgw_probe::icmp::IcmpOutcome::Forwarded { embedded_ip_checksum_ok: false, .. })
    });
    assert!(stale, "zy1 must leave a stale embedded checksum");
}

#[test]
fn tcp2_battery_completes_scaled_smoke() {
    // Always-on smoke for the TCP-2/TCP-3 battery at 1/25 of the paper's
    // transfer size: the four-series structure (upload, download, both
    // bidirectional legs) must complete and show sane throughputs. The
    // full-fidelity 100 MB run is `tcp2_battery_at_paper_scale_100mb`.
    const MB: u64 = 1024 * 1024;
    let mut tb = Testbed::new("tcp2-smoke", GatewayPolicy::well_behaved(), 21, 0xACE0 ^ 21);
    let rep = hgw_probe::throughput::run_battery(&mut tb, 4 * MB);
    for (name, r) in [
        ("upload", rep.upload),
        ("download", rep.download),
        ("upload_during_bidir", rep.upload_during_bidir),
        ("download_during_bidir", rep.download_during_bidir),
    ] {
        assert!(r.completed, "{name} stalled at {} bytes", r.bytes);
        assert!(r.throughput_mbps > 10.0, "{name} measured {}", r.throughput_mbps);
        assert!(r.throughput_mbps <= 100.0, "{name} exceeded link rate: {}", r.throughput_mbps);
    }
}

#[test]
#[ignore = "paper-fidelity 100 MB battery: ~4x100 MB simulated transfers; run in release"]
fn tcp2_battery_at_paper_scale_100mb() {
    // §3.2.2: "a 100 MB file transfer" per direction, then simultaneously.
    // The budget audit in `run_transfer` guarantees the 510 s / 1020 s
    // simulated-time budgets never truncate a healthy run at this size.
    const MB: u64 = 1024 * 1024;
    let mut tb = Testbed::new("tcp2-100mb", GatewayPolicy::well_behaved(), 22, 0xACE0 ^ 22);
    let rep = hgw_probe::throughput::run_battery(&mut tb, 100 * MB);
    for (name, r) in [
        ("upload", rep.upload),
        ("download", rep.download),
        ("upload_during_bidir", rep.upload_during_bidir),
        ("download_during_bidir", rep.download_during_bidir),
    ] {
        assert!(r.completed, "{name} stalled at {} bytes", r.bytes);
        assert_eq!(r.bytes, 100 * MB, "{name} delivered byte count");
        assert!(r.throughput_mbps > 10.0, "{name} measured {}", r.throughput_mbps);
        assert!(r.throughput_mbps <= 100.0, "{name} exceeded link rate: {}", r.throughput_mbps);
    }
    // A wire-speed device saturates most of the 100 Mb/s link on the
    // unidirectional legs at this scale (slow-start amortized away).
    assert!(rep.upload.throughput_mbps > 70.0, "upload {}", rep.upload.throughput_mbps);
    assert!(rep.download.throughput_mbps > 70.0, "download {}", rep.download.throughput_mbps);
}

#[test]
fn throughput_worst_performers() {
    // §4.2: dl10 and ls1 are the worst performers (~6-8 Mb/s).
    const MB: u64 = 1024 * 1024;
    let mut tb = testbed("dl10", 20);
    let r = hgw_probe::throughput::run_transfer(
        &mut tb,
        5001,
        hgw_probe::throughput::Direction::Download,
        2 * MB,
    );
    assert!(r.completed, "transfer stalled");
    assert!(r.throughput_mbps < 9.0, "dl10 measured {}", r.throughput_mbps);
    // And its queuing delay is among the worst (paper: 74 ms download).
    assert!(r.delay_ms > 40.0, "dl10 delay {}", r.delay_ms);
}
