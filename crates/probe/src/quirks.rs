//! IP-level quirk probes for the §4.4 observations: some devices do not
//! decrement the IP TTL when forwarding, and few honor a Record Route
//! option — both of which "can interfere with network diagnostics and
//! other uses of the TTL field".

use hgw_core::Duration;
use hgw_testbed::{HostId, Testbed};
use hgw_wire::ip::{Ipv4Option, Ipv4Repr, Protocol};
use hgw_wire::{Ipv4Packet, UdpRepr};

/// The §4.4 quirk observations for one device.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct IpQuirks {
    /// The gateway decremented the TTL of forwarded packets.
    pub decrements_ttl: bool,
    /// The TTL values observed at the server (sent, received).
    pub ttl_observed: (u8, u8),
    /// The gateway recorded its address into a Record Route option.
    pub honors_record_route: bool,
    /// A packet sent with TTL 1 produced an ICMP Time Exceeded back to the
    /// client (i.e., the gateway behaves like a router for traceroute).
    pub ttl_expiry_reported: bool,
}

/// Probes TTL and Record Route handling.
pub fn probe_ip_quirks(tb: &mut Testbed) -> IpQuirks {
    let server_addr = tb.server_addr;
    let client_addr = tb.client_addr();
    let wan = tb.gateway_wan_addr();
    const SENT_TTL: u8 = 44;

    // --- TTL decrement + Record Route, observed at the server. ---
    tb.with_host(HostId::Server, |h, _| {
        h.sniff_enable();
        h.sniff_take();
        h.udp_bind(30_100);
    });
    let dgram = UdpRepr { src_port: 30_200, dst_port: 30_100 }.emit_with_payload(
        client_addr,
        server_addr,
        b"quirk-probe",
    );
    let mut repr = Ipv4Repr::new(client_addr, server_addr, Protocol::Udp);
    repr.ttl = SENT_TTL;
    repr.options.push(Ipv4Option::RecordRoute { pointer: 4, data: vec![0u8; 12] });
    let pkt = repr.emit_with_payload(&dgram);
    tb.with_host(HostId::Client, |h, ctx| h.raw_send(ctx, pkt));
    tb.run_for(Duration::from_millis(200));

    let mut ttl_observed = (SENT_TTL, 0);
    let mut honors_record_route = false;
    for (_, f) in tb.with_host(HostId::Server, |h, _| h.sniff_take()) {
        let Ok(ip) = Ipv4Packet::new_checked(&f[..]) else { continue };
        if ip.protocol() != Protocol::Udp {
            continue;
        }
        let l4 = ip.payload();
        if l4.len() < 4 || u16::from_be_bytes([l4[2], l4[3]]) != 30_100 {
            continue;
        }
        ttl_observed = (SENT_TTL, ip.ttl());
        if let Ok(options) = ip.options() {
            for opt in options {
                if let Ipv4Option::RecordRoute { pointer, data } = opt {
                    let recorded =
                        pointer > 4 && data.chunks(4).any(|c| c.len() == 4 && c == wan.octets());
                    honors_record_route = recorded;
                }
            }
        }
    }
    let decrements_ttl = ttl_observed.1 != 0 && ttl_observed.1 < SENT_TTL;

    // --- TTL-1 expiry: does the gateway answer like a router? ---
    let sock = tb.with_host(HostId::Client, |h, _| h.udp_bind(30_201));
    let dgram = UdpRepr { src_port: 30_201, dst_port: 30_100 }.emit_with_payload(
        client_addr,
        server_addr,
        b"ttl1",
    );
    let mut repr = Ipv4Repr::new(client_addr, server_addr, Protocol::Udp);
    repr.ttl = 1;
    let pkt = repr.emit_with_payload(&dgram);
    tb.with_host(HostId::Client, |h, ctx| {
        h.icmp_take_events();
        h.raw_send(ctx, pkt);
    });
    tb.run_for(Duration::from_millis(200));
    let ttl_expiry_reported = tb.with_host(HostId::Client, |h, _| {
        h.icmp_take_events().iter().any(|e| {
            matches!(
                e.message,
                hgw_wire::icmp::IcmpRepr::TimeExceeded {
                    code: hgw_wire::icmp::TimeExceededCode::TtlExceeded,
                    ..
                }
            )
        })
    });
    tb.with_host(HostId::Client, |h, _| h.udp_close(sock));

    IpQuirks { decrements_ttl, ttl_observed, honors_record_route, ttl_expiry_reported }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hgw_gateway::GatewayPolicy;

    #[test]
    fn normal_router_decrements_and_reports_expiry() {
        let mut tb = Testbed::new("quirks", GatewayPolicy::well_behaved(), 1, 3);
        let q = probe_ip_quirks(&mut tb);
        assert!(q.decrements_ttl);
        assert_eq!(q.ttl_observed, (44, 43));
        assert!(q.ttl_expiry_reported);
        assert!(!q.honors_record_route, "well_behaved ignores Record Route");
    }

    #[test]
    fn ttl_transparent_device_detected() {
        let mut policy = GatewayPolicy::well_behaved();
        policy.decrement_ttl = false;
        let mut tb = Testbed::new("quirks-ttl", policy, 2, 5);
        let q = probe_ip_quirks(&mut tb);
        assert!(!q.decrements_ttl);
        assert_eq!(q.ttl_observed, (44, 44));
        assert!(!q.ttl_expiry_reported, "no decrement, no expiry");
    }

    #[test]
    fn record_route_honoring_detected() {
        let mut policy = GatewayPolicy::well_behaved();
        policy.honor_record_route = true;
        let mut tb = Testbed::new("quirks-rr", policy, 3, 7);
        let q = probe_ip_quirks(&mut tb);
        assert!(q.honors_record_route);
    }

    #[test]
    fn fleet_quirk_devices() {
        // Calibrated: dl9/smc/dl10 forward without decrementing, owrt
        // honors Record Route.
        for (tag, dec, rr) in [("dl9", false, false), ("owrt", true, true), ("al", true, false)] {
            let d = hgw_devices::device(tag).unwrap();
            let mut tb = Testbed::new(d.tag, d.policy, 4, 9);
            let q = probe_ip_quirks(&mut tb);
            assert_eq!(q.decrements_ttl, dec, "{tag} ttl");
            assert_eq!(q.honors_record_route, rr, "{tag} record route");
        }
    }
}
