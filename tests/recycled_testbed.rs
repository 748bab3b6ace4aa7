//! A testbed built into a recycled shell replays a fresh build exactly.
//!
//! A fleet worker tears each finished device's testbed down into a
//! [`TestbedShell`] and builds the next device into it (DESIGN.md §15).
//! Only capacity may carry over: every probe result and every
//! deterministic counter — [`SimStats`] apart from the frame-pool hit/miss
//! split, [`NatStats`], and the [`LinkDirStats`] of every link — must equal
//! what a fresh `Testbed::builder(..).build()` gives. The devices run
//! largest binding cap first, so small devices inherit maps, wheels and
//! socket tables grown by larger ones. Every device uses the same address
//! plan and is torn down with a UDP flow and a TCP connection still open,
//! so any state that survived teardown would meet the same addresses and
//! ports again and show.
//!
//! Lives in its own test binary because it swaps the process panic hook
//! to keep the injected panic out of the test output.

use std::net::SocketAddrV4;

use hgw_core::{Dir, Duration, LinkDirStats, LinkId, SimStats};
use hgw_devices::{all_devices, synthetic_fleet, DeviceProfile};
use hgw_gateway::{Binding, Gateway, NatStats};
use hgw_probe::max_bindings::{measure_max_bindings, MaxBindingsResult};
use hgw_probe::throughput::{run_battery, ThroughputReport};
use hgw_probe::udp_timeout::{measure_udp1, TimeoutMeasurement};
use hgw_stack::host::ListenerApp;
use home_gateway_study::prelude::*;

const SEED: u64 = 23;

/// Everything a device's run produces that must not depend on the shell.
#[derive(Debug, PartialEq)]
struct Observed {
    udp1: TimeoutMeasurement,
    battery: ThroughputReport,
    bindings: MaxBindingsResult,
    sim: SimStats,
    nat: NatStats,
    /// The live bindings at teardown: ports, endpoints, expiries.
    bindings_left: Vec<Binding>,
    links: Vec<(LinkDirStats, LinkDirStats)>,
}

/// Runs the three probes on `tb`, leaves a UDP flow and a TCP connection
/// open through the NAT, and reads back the counters. The pool hit/miss
/// split is zeroed: a recycled pool starts warm by design.
fn observe(tb: &mut Testbed) -> Observed {
    let udp1 = measure_udp1(tb, 20_000);
    let battery = run_battery(tb, 64 * 1024);
    let bindings = measure_max_bindings(tb, 8, 48);
    let server = tb.server_addr;
    tb.with_host(HostId::Server, |h, _| {
        h.udp_bind(7_000);
        h.tcp_listen(7_001, ListenerApp::Echo);
    });
    tb.with_host(HostId::Client, |h, ctx| {
        let s = h.udp_bind_ephemeral();
        h.udp_send(ctx, s, SocketAddrV4::new(server, 7_000), b"left open");
        h.tcp_connect(ctx, SocketAddrV4::new(server, 7_001));
    });
    tb.run_for(Duration::from_millis(200));
    let sim = SimStats { pool_hits: 0, pool_misses: 0, ..tb.sim.stats() };
    let gateway = tb.sim.node_ref::<Gateway>(tb.gateway);
    let (nat, bindings_left) = (gateway.nat_stats(), gateway.nat_table().bindings().to_vec());
    let links = (0..=tb.wan_link.0)
        .map(|id| {
            let link = tb.sim.link(LinkId(id));
            (link.stats(Dir::AtoB), link.stats(Dir::BtoA))
        })
        .collect();
    Observed { udp1, battery, bindings, sim, nat, bindings_left, links }
}

/// All 34 Table-1 profiles and 200 synthetic ones, largest binding cap
/// first (a stable sort, so ties keep their list order).
fn devices() -> Vec<DeviceProfile> {
    let mut devices = all_devices();
    devices.extend(synthetic_fleet(SEED, 200));
    devices.sort_by_key(|d| std::cmp::Reverse(d.policy.max_bindings));
    devices
}

/// Device `slot`'s builder: its campaign seed, and address plan 1.
fn builder(device: &DeviceProfile, slot: usize) -> TestbedBuilder<'_> {
    Testbed::builder(device.tag, device.policy).campaign_slot(slot, SEED).index(1)
}

fn fresh(builder: TestbedBuilder) -> Observed {
    observe(&mut builder.build())
}

#[test]
fn recycled_shells_replay_fresh_builds() {
    let devices = devices();
    // Start the shell on a 4-host household, so the 1-host testbeds that
    // follow are built on a switch, spare hosts and longer slabs.
    let household = &devices[devices.len() / 2];
    let tb = Testbed::builder(household.tag, household.policy).hosts(4).build();
    let mut shell = tb.into_shell();
    for (slot, d) in devices.iter().enumerate() {
        let mut tb = builder(d, slot).build_in(shell);
        let recycled = observe(&mut tb);
        shell = tb.into_shell();
        assert_eq!(recycled, fresh(builder(d, slot)), "{} (slot {slot})", d.tag);
    }
}

#[test]
fn a_fleet_worker_drops_the_shell_of_a_panicked_probe() {
    let devices: Vec<DeviceProfile> = devices().into_iter().step_by(20).collect();
    const VICTIM: usize = 4;
    let hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(|_| {}));
    let report = FleetRunner::new(&devices)
        .seed(SEED)
        .parallelism(Parallelism::Sequential)
        .run(|tb, d| {
            if d.tag == devices[VICTIM].tag {
                // Leave traffic and bindings behind before failing.
                measure_udp1(tb, 20_000);
                panic!("injected fault on {}", d.tag);
            }
            observe(tb)
        })
        .expect("fleet campaign");
    std::panic::set_hook(hook);

    for (slot, d) in report.devices.iter().enumerate() {
        let device = &devices[slot];
        let builder = Testbed::builder(device.tag, device.policy).campaign_slot(slot, SEED);
        match &d.outcome {
            Ok(recycled) => assert_eq!(*recycled, fresh(builder), "{}", d.tag),
            Err(failure) => assert_eq!(failure.slot, VICTIM),
        }
    }
    assert_eq!(report.failures().len(), 1);
    // The first device and the one after the panic start from an empty
    // shell; every other device is built into its predecessor's.
    let worker = &report.scheduling.per_worker[0];
    assert_eq!(worker.pool_reused, devices.len() as u64 - 2);
}
