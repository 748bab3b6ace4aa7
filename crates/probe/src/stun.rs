//! A real STUN Binding exchange through the NAT (RFC 5389) — §5's "success
//! rates of STUN" made measurable. The test server answers Binding
//! requests; the client learns its server-reflexive (external) endpoint
//! from the XOR-MAPPED-ADDRESS attribute.

use std::net::SocketAddrV4;

use hgw_core::Duration;
use hgw_stack::host::UdpHandle;
use hgw_testbed::{HostId, Testbed};
use hgw_wire::stun::{StunKind, StunMessage};

/// The standard STUN port.
pub const STUN_PORT: u16 = 3478;

/// Outcome of a STUN Binding exchange.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StunResult {
    /// The server-reflexive endpoint from XOR-MAPPED-ADDRESS.
    pub reflexive: SocketAddrV4,
    /// Whether the literal MAPPED-ADDRESS agreed with the XOR form (a NAT
    /// that rewrites payload addresses would break the literal one).
    pub literal_matches: bool,
}

/// Ensures a STUN responder socket exists on the server and answers one
/// queued request, if any. Returns true if a request was answered.
fn server_answer_one(tb: &mut Testbed, srv: UdpHandle) -> bool {
    tb.with_host(HostId::Server, |h, ctx| {
        if let Some((from, data)) = h.udp_recv(srv) {
            if let Ok(req) = StunMessage::parse(&data) {
                if req.kind == StunKind::BindingRequest {
                    let resp = StunMessage::binding_response(req.transaction_id, from);
                    h.udp_send(ctx, srv, from, &resp.emit());
                    return true;
                }
            }
        }
        false
    })
}

/// Performs one Binding exchange from a fresh client socket; returns the
/// result, or `None` if no response arrived (e.g. the NAT dropped it).
pub fn stun_binding(tb: &mut Testbed, seed: u64) -> Option<StunResult> {
    let server_addr = tb.server_addr;
    let srv = tb.with_host(HostId::Server, |h, _| h.udp_bind(STUN_PORT));
    let mut tid = [0u8; 12];
    for (i, b) in tid.iter_mut().enumerate() {
        *b = (seed as u8).wrapping_add(i as u8).wrapping_mul(31);
    }
    let cli = tb.with_host(HostId::Client, |h, ctx| {
        let s = h.udp_bind_ephemeral();
        let req = StunMessage::binding_request(tid);
        h.udp_send(ctx, s, SocketAddrV4::new(server_addr, STUN_PORT), &req.emit());
        s
    });
    tb.run_for(Duration::from_millis(100));
    server_answer_one(tb, srv);
    tb.run_for(Duration::from_millis(100));
    let result = tb.with_host(HostId::Client, |h, _| h.udp_recv(cli)).and_then(|(_, data)| {
        let resp = StunMessage::parse(&data).ok()?;
        if resp.kind != StunKind::BindingResponse || resp.transaction_id != tid {
            return None;
        }
        let reflexive = resp.xor_mapped_address?;
        Some(StunResult { reflexive, literal_matches: resp.mapped_address == Some(reflexive) })
    });
    tb.with_host(HostId::Client, |h, _| h.udp_close(cli));
    tb.with_host(HostId::Server, |h, _| h.udp_close(srv));
    result
}

#[cfg(test)]
mod tests {
    use super::*;
    use hgw_gateway::GatewayPolicy;

    #[test]
    fn stun_reports_the_translated_endpoint() {
        let mut tb = Testbed::new("stun", GatewayPolicy::well_behaved(), 1, 3);
        let wan = tb.gateway_wan_addr();
        let r = stun_binding(&mut tb, 1).expect("binding response");
        assert_eq!(*r.reflexive.ip(), wan, "reflexive address is the gateway's WAN address");
        assert!(r.literal_matches);
    }

    #[test]
    fn stun_succeeds_across_the_whole_fleet() {
        // §5's question ("success rates of STUN"): with a cooperating
        // server, plain Binding works through every device — it is ordinary
        // outbound UDP.
        for (i, d) in hgw_devices::all_devices().into_iter().enumerate() {
            let mut tb = Testbed::new(d.tag, d.policy, (i + 1) as u8, 9);
            assert!(stun_binding(&mut tb, i as u64).is_some(), "{} failed STUN", d.tag);
        }
    }

    #[test]
    fn sequential_nat_visible_in_reflexive_port() {
        let mut policy = GatewayPolicy::well_behaved();
        policy.port_assignment = hgw_gateway::PortAssignment::Sequential;
        policy.mapping = hgw_gateway::EndpointScope::AddressAndPortDependent;
        let mut tb = Testbed::new("stun-seq", policy, 2, 5);
        let r = stun_binding(&mut tb, 2).unwrap();
        assert_eq!(r.reflexive.port(), 61_000, "sequential allocation starts at 61000");
    }
}
