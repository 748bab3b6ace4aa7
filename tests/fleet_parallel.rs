//! Sequential-vs-parallel equivalence: the determinism guarantee of
//! [`FleetRunner`]. The same campaign, run with `Parallelism::Sequential`
//! and with a worker pool, must produce bit-for-bit identical probe
//! results and identical deterministic metrics counters for all 34
//! devices — only the wall-clock fields may differ.
//!
//! `HGW_FLEET_PARALLELISM` overrides the parallel leg's mode (CI runs the
//! suite a second time with it forced to `4`).

use hgw_core::Duration;
use hgw_probe::binding_rate::measure_binding_rate;
use hgw_probe::classify::classify_nat;
use hgw_probe::dns::measure_dns;
use hgw_probe::icmp::measure_icmp_matrix;
use hgw_probe::max_bindings::measure_max_bindings;
use hgw_probe::port_reuse::observe_port_reuse;
use hgw_probe::quirks::probe_ip_quirks;
use hgw_probe::stun::stun_binding;
use hgw_probe::tcp_timeout::measure_tcp1;
use hgw_probe::throughput::{run_transfer, Direction};
use hgw_probe::transport::measure_transport_support;
use hgw_probe::udp_timeout::measure_udp1;
use home_gateway_study::prelude::*;

/// Every testbed-driven probe family, rotated across the fleet by slot so
/// the full battery stays affordable: each device runs the UDP-1 core
/// probe plus one family, and every family is exercised by at least two
/// devices. Results are rendered to strings so one comparison covers all
/// families' payloads.
fn family_probe(tb: &mut Testbed, d: &devices::DeviceProfile, slot: usize) -> String {
    let udp1 = measure_udp1(tb, 20_000);
    let family = match slot % 11 {
        0 => format!("tcp1={:?}", measure_tcp1(tb)),
        1 => {
            let r = run_transfer(tb, 5001, Direction::Upload, 128 * 1024);
            format!("upload bytes={} delay_bits={}", r.bytes, r.delay_ms.to_bits())
        }
        2 => {
            let m = measure_icmp_matrix(tb);
            format!("icmp={:?}/{:?}/{}", m.tcp, m.udp, m.icmp_host_unreach)
        }
        3 => format!("dns={:?}", measure_dns(tb)),
        4 => format!("transport={:?}", measure_transport_support(tb)),
        5 => format!("classify={:?}", classify_nat(tb)),
        6 => format!("stun={:?}", stun_binding(tb, 0x57)),
        7 => {
            let hint = Duration::from_secs_f64(d.expected.udp1_secs)
                + d.policy.timer_granularity
                + Duration::from_secs(20);
            format!("port_reuse={:?}", observe_port_reuse(tb, 26_000, 40_123, hint))
        }
        8 => format!("quirks={:?}", probe_ip_quirks(tb)),
        9 => format!("max_bindings={:?}", measure_max_bindings(tb, 32, 200)),
        _ => format!("binding_rate={:?}", measure_binding_rate(tb, 50)),
    };
    format!(
        "udp1_bits={} events={} now={:?} {family}",
        udp1.timeout_secs.to_bits(),
        tb.sim.stats().events,
        tb.now()
    )
}

#[test]
fn parallel_fleet_matches_sequential_bit_for_bit() {
    let devices = devices::all_devices();
    let parallel_mode = Parallelism::from_env_or(Parallelism::Fixed(4));
    let runner = FleetRunner::new(&devices).seed(0xE0);

    let sequential = runner
        .parallelism(Parallelism::Sequential)
        .run(|tb, d| family_probe(tb, d, tb.index as usize - 1))
        .unwrap();
    let parallel = runner
        .parallelism(parallel_mode)
        .run(|tb, d| family_probe(tb, d, tb.index as usize - 1))
        .unwrap();

    assert_eq!(parallel.scheduling.workers, parallel_mode.worker_count(devices.len()));
    let scheduled: usize = parallel.scheduling.per_worker.iter().map(|w| w.devices_run).sum();
    assert_eq!(scheduled, devices.len(), "every device attributed to exactly one worker");

    let seq = sequential.into_results_with_metrics().unwrap();
    let par = parallel.into_results_with_metrics().unwrap();
    assert_eq!(seq.len(), 34);
    assert_eq!(par.len(), 34);
    for (slot, ((seq_tag, seq_r, seq_m), (par_tag, par_r, par_m))) in
        seq.iter().zip(par.iter()).enumerate()
    {
        assert_eq!(seq_tag, par_tag, "slot {slot}: order must be Table 1 order in both modes");
        assert_eq!(seq_tag, devices[slot].tag, "slot {slot}: Table 1 order");
        assert_eq!(seq_r, par_r, "{seq_tag}: probe result differs under {parallel_mode}");
        assert_eq!(
            seq_m.deterministic(),
            par_m.deterministic(),
            "{seq_tag}: deterministic metrics counters differ under {parallel_mode}"
        );
    }
}

#[test]
fn repeated_parallel_runs_are_identical() {
    // Scheduling noise (which worker gets which device) must not leak into
    // results even across two parallel runs of the same campaign.
    let devices = devices::all_devices();
    let runner = FleetRunner::new(&devices[..8]).seed(0xAB).parallelism(Parallelism::Fixed(3));
    let probe = |tb: &mut Testbed, _: &devices::DeviceProfile| {
        (measure_udp1(tb, 20_000).timeout_secs.to_bits(), tb.sim.stats().events)
    };
    let a = runner.run(probe).unwrap().into_results().unwrap();
    let b = runner.run(probe).unwrap().into_results().unwrap();
    assert_eq!(a, b);
}
