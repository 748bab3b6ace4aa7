//! UDP binding-timeout measurements: UDP-1, UDP-2, UDP-3 and UDP-5
//! (§3.2.1 of the paper).
//!
//! All methods are *black box*: the prober sends packets from the test
//! client, instructs the test server out-of-band (the management link of
//! Figure 1 — here, direct driver calls), and infers binding state from
//! whether a response traverses the NAT.

use std::net::SocketAddrV4;

use hgw_core::Duration;
use hgw_stack::host::UdpHandle;
use hgw_testbed::{HostId, Testbed};

/// Probe payload for outbound packets.
const PING: &[u8] = b"hgw-probe";
/// Probe payload for server responses.
const PONG: &[u8] = b"hgw-resp";
/// Grace period for a packet to cross the testbed.
const PROPAGATION: Duration = Duration::from_millis(200);
/// Binary search convergence bound (the paper converges "to within one
/// second").
const CONVERGENCE: Duration = Duration::from_secs(1);
/// Upper bound for UDP binding timeouts (beyond any observed device).
const UDP_CAP: Duration = Duration::from_secs(1800);

/// The UDP traffic scenarios of §3.2.1.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum UdpScenario {
    /// UDP-1: a solitary outbound packet.
    Solitary,
    /// UDP-2: solitary outbound packet, inbound response stream.
    InboundRefresh,
    /// UDP-3: every inbound response triggers another outbound packet.
    Bidirectional,
}

/// Result of one complete timeout measurement.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TimeoutMeasurement {
    /// The measured binding timeout, seconds.
    pub timeout_secs: f64,
    /// Number of alive/dead trials performed.
    pub trials: u32,
}

/// Opens a fresh flow through the NAT and returns the handles plus the
/// server's view of the mapping (the external endpoint).
fn open_flow(tb: &mut Testbed, server_port: u16) -> (UdpHandle, UdpHandle, SocketAddrV4) {
    let server_addr = tb.server_addr;
    let srv = tb.with_host(HostId::Server, |h, _| h.udp_bind(server_port));
    let cli = tb.with_host(HostId::Client, |h, ctx| {
        let s = h.udp_bind_ephemeral();
        h.udp_send(ctx, s, SocketAddrV4::new(server_addr, server_port), PING);
        s
    });
    tb.run_for(PROPAGATION);
    let external = tb
        .with_host(HostId::Server, |h, _| h.udp_recv(srv))
        .map(|(from, _)| from)
        .expect("probe packet must traverse a fresh binding");
    (cli, srv, external)
}

fn close_flow(tb: &mut Testbed, cli: UdpHandle, srv: UdpHandle) {
    tb.with_host(HostId::Client, |h, _| h.udp_close(cli));
    tb.with_host(HostId::Server, |h, _| h.udp_close(srv));
}

/// One UDP-1 trial: create a binding, sleep, have the server respond;
/// returns true if the binding was still alive.
fn udp1_trial(tb: &mut Testbed, server_port: u16, sleep: Duration) -> bool {
    let span = tb.span("udp1-trial").arg(format_args!("sleep={}s", sleep.as_secs())).begin();
    let (cli, srv, external) = open_flow(tb, server_port);
    tb.run_for(sleep);
    tb.with_host(HostId::Server, |h, ctx| h.udp_send(ctx, srv, external, PONG));
    tb.run_for(PROPAGATION);
    let alive = tb.with_host(HostId::Client, |h, _| h.udp_recv(cli)).is_some();
    close_flow(tb, cli, srv);
    tb.span_end(span);
    alive
}

/// Deterministic phase stagger between trials: coarse-grained binding
/// timers quantize expiries to a grid, so trials must sample different
/// grid phases or every repetition converges to the same biased point.
fn stagger(tb: &mut Testbed, trial: u32) {
    let ms = (trial as u64).wrapping_mul(7_919) % 60_000;
    tb.run_for(Duration::from_millis(ms));
}

/// UDP-1: the paper's modified binary search. Every trial uses a fresh
/// flow, so each search step starts from the same state as the first.
pub fn measure_udp1(tb: &mut Testbed, server_port: u16) -> TimeoutMeasurement {
    let search_span = tb.span("udp1-search").begin();
    let mut trials = 0;
    // Establish bounds by exponential probing.
    let mut lo = Duration::ZERO; // longest observed lifetime (alive)
    let mut hi = None; // shortest observed expiration (dead)
    let mut t = Duration::from_secs(16);
    while hi.is_none() && t <= UDP_CAP {
        trials += 1;
        stagger(tb, trials);
        if udp1_trial(tb, server_port, t) {
            lo = t;
            t = t * 2;
        } else {
            hi = Some(t);
        }
    }
    let mut hi = hi.unwrap_or(UDP_CAP);
    // Bisect to within one second.
    while hi.saturating_sub(lo) > CONVERGENCE {
        trials += 1;
        stagger(tb, trials);
        let mid = lo + (hi - lo) / 2;
        if udp1_trial(tb, server_port, mid) {
            lo = mid;
        } else {
            hi = mid;
        }
    }
    tb.span_end(search_span);
    TimeoutMeasurement { timeout_secs: (lo + (hi - lo) / 2).as_secs_f64(), trials }
}

/// UDP-2 / UDP-3: one measurement pass. The server streams responses with a
/// growing inter-packet gap (`step` increments) until one fails to arrive;
/// the last surviving gap is the timeout estimate.
pub fn measure_refresh(
    tb: &mut Testbed,
    server_port: u16,
    scenario: UdpScenario,
    step: Duration,
) -> TimeoutMeasurement {
    assert_ne!(scenario, UdpScenario::Solitary, "use measure_udp1 for UDP-1");
    let server_addr = tb.server_addr;
    stagger(tb, server_port as u32);
    let (cli, srv, external) = open_flow(tb, server_port);
    let mut gap = Duration::from_secs(5);
    let mut last_ok = Duration::ZERO;
    let mut trials = 0;
    loop {
        tb.run_for(gap);
        tb.with_host(HostId::Server, |h, ctx| h.udp_send(ctx, srv, external, PONG));
        tb.run_for(PROPAGATION);
        trials += 1;
        let got = tb.with_host(HostId::Client, |h, _| h.udp_recv(cli)).is_some();
        if !got {
            break;
        }
        last_ok = gap;
        if scenario == UdpScenario::Bidirectional {
            // The response triggers another outbound packet (UDP-3).
            tb.with_host(HostId::Client, |h, ctx| {
                h.udp_send(ctx, cli, SocketAddrV4::new(server_addr, server_port), PING);
            });
            tb.run_for(PROPAGATION);
            // Drain the server side so mappings stay observable.
            while tb.with_host(HostId::Server, |h, _| h.udp_recv(srv)).is_some() {}
        }
        gap += step;
        if gap > UDP_CAP {
            last_ok = UDP_CAP;
            break;
        }
    }
    close_flow(tb, cli, srv);
    // The true boundary lies between the last surviving gap and the failed
    // one; the estimate is the midpoint, plus the propagation wait that is
    // part of the effective inter-packet spacing.
    let estimate = last_ok + PROPAGATION + step / 2;
    TimeoutMeasurement { timeout_secs: estimate.as_secs_f64(), trials }
}

/// The five well-known services probed by UDP-5 (Figure 6).
pub const UDP5_SERVICES: [(&str, u16); 5] =
    [("dns", 53), ("http", 80), ("ntp", 123), ("snmp", 161), ("tftp", 69)];

/// Runs a scenario `repeats` times and returns every measurement.
///
/// `base_port` spaces the server ports so repetitions never collide with a
/// lingering binding from the previous run.
pub fn measure_repeated(
    tb: &mut Testbed,
    scenario: UdpScenario,
    base_port: u16,
    repeats: usize,
    step: Duration,
) -> Vec<f64> {
    (0..repeats)
        .map(|i| {
            let port = base_port + i as u16;
            match scenario {
                UdpScenario::Solitary => measure_udp1(tb, port).timeout_secs,
                _ => measure_refresh(tb, port, scenario, step).timeout_secs,
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use hgw_gateway::GatewayPolicy;

    fn tb_with(solitary: u64, inbound: u64, bidir: u64) -> Testbed {
        let mut policy = GatewayPolicy::well_behaved();
        policy.udp_timeout_solitary = Duration::from_secs(solitary);
        policy.udp_timeout_inbound = Duration::from_secs(inbound);
        policy.udp_timeout_bidirectional = Duration::from_secs(bidir);
        Testbed::new("probe-udp", policy, 1, 42)
    }

    #[test]
    fn udp1_recovers_solitary_timeout_within_a_second() {
        let mut tb = tb_with(47, 180, 180);
        let m = measure_udp1(&mut tb, 20_000);
        assert!(
            (m.timeout_secs - 47.0).abs() <= 1.0,
            "measured {} for ground truth 47",
            m.timeout_secs
        );
        assert!(m.trials >= 5);
    }

    #[test]
    fn udp2_recovers_inbound_timeout() {
        let mut tb = tb_with(30, 90, 90);
        let m =
            measure_refresh(&mut tb, 21_000, UdpScenario::InboundRefresh, Duration::from_secs(2));
        assert!(
            (m.timeout_secs - 90.0).abs() <= 3.0,
            "measured {} for ground truth 90",
            m.timeout_secs
        );
    }

    #[test]
    fn udp3_recovers_bidirectional_timeout() {
        // Bidirectional longer than inbound: only UDP-3 sees the long value.
        let mut tb = tb_with(30, 60, 150);
        let m2 =
            measure_refresh(&mut tb, 22_000, UdpScenario::InboundRefresh, Duration::from_secs(2));
        let m3 =
            measure_refresh(&mut tb, 23_000, UdpScenario::Bidirectional, Duration::from_secs(2));
        assert!((m2.timeout_secs - 60.0).abs() <= 3.0, "udp2 got {}", m2.timeout_secs);
        assert!((m3.timeout_secs - 150.0).abs() <= 3.0, "udp3 got {}", m3.timeout_secs);
    }

    #[test]
    fn service_override_visible_on_that_port_only() {
        const DNS_40S: &[(u16, Duration)] = &[(53, Duration::from_secs(40))];
        let mut policy = GatewayPolicy::well_behaved();
        policy.udp_timeout_inbound = Duration::from_secs(120);
        policy.udp_service_overrides = DNS_40S;
        let mut tb = Testbed::new("probe-udp5", policy, 2, 7);
        let dns = measure_refresh(&mut tb, 53, UdpScenario::InboundRefresh, Duration::from_secs(2));
        let http =
            measure_refresh(&mut tb, 80, UdpScenario::InboundRefresh, Duration::from_secs(2));
        assert!((dns.timeout_secs - 40.0).abs() <= 3.0, "dns got {}", dns.timeout_secs);
        assert!((http.timeout_secs - 120.0).abs() <= 3.0, "http got {}", http.timeout_secs);
    }

    #[test]
    fn repeated_measurements_are_stable_for_fine_timers() {
        let mut tb = tb_with(40, 100, 100);
        let vals =
            measure_repeated(&mut tb, UdpScenario::Solitary, 24_000, 3, Duration::from_secs(1));
        assert_eq!(vals.len(), 3);
        for v in &vals {
            assert!((v - 40.0).abs() <= 1.0, "got {v}");
        }
    }
}
