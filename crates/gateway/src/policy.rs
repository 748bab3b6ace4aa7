//! The gateway behavior model: every externally observable policy knob the
//! paper's experiments distinguish.
//!
//! A [`GatewayPolicy`] is the "firmware" of a simulated home gateway. The
//! 34 device profiles of Table 1 are instances of this struct, calibrated
//! in `hgw-devices` so the measurement suite reproduces the published
//! results.

use hgw_core::Duration;

/// How a NAT assigns external ports to new bindings (§4.1, UDP-4).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PortAssignment {
    /// Prefer the internal source port as the external port (27/34 devices);
    /// fall back to sequential allocation on collision.
    Preserve {
        /// Whether an expired binding for the same flow is revived with the
        /// same external port (23 devices) or the port is quarantined and a
        /// fresh one allocated (4 devices).
        reuse_expired: bool,
    },
    /// Always allocate sequentially from a private range (7/34 devices).
    Sequential,
}

/// RFC 4787 terminology for inbound filtering and outbound mapping.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EndpointScope {
    /// Independent of the remote endpoint ("full cone" family).
    EndpointIndependent,
    /// Depends on the remote address ("restricted cone").
    AddressDependent,
    /// Depends on the remote address and port ("port restricted" /
    /// "symmetric").
    AddressAndPortDependent,
}

/// The ten ICMP error kinds Table 2 probes per transport.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum IcmpErrorKind {
    /// Fragment reassembly time exceeded (11/1).
    ReassemblyTimeExceeded,
    /// Fragmentation needed (3/4) — PMTU discovery depends on it.
    FragNeeded,
    /// Parameter problem (12).
    ParamProblem,
    /// Source route failed (3/5).
    SourceRouteFailed,
    /// Source quench (4).
    SourceQuench,
    /// TTL exceeded (11/0).
    TtlExceeded,
    /// Host unreachable (3/1).
    HostUnreachable,
    /// Net unreachable (3/0).
    NetUnreachable,
    /// Port unreachable (3/3).
    PortUnreachable,
    /// Protocol unreachable (3/2).
    ProtoUnreachable,
}

impl IcmpErrorKind {
    /// All ten kinds, in Table 2's column order.
    pub const ALL: [IcmpErrorKind; 10] = [
        IcmpErrorKind::ReassemblyTimeExceeded,
        IcmpErrorKind::FragNeeded,
        IcmpErrorKind::ParamProblem,
        IcmpErrorKind::SourceRouteFailed,
        IcmpErrorKind::SourceQuench,
        IcmpErrorKind::TtlExceeded,
        IcmpErrorKind::HostUnreachable,
        IcmpErrorKind::NetUnreachable,
        IcmpErrorKind::PortUnreachable,
        IcmpErrorKind::ProtoUnreachable,
    ];

    /// The label used in Table 2's column headers.
    pub fn label(self) -> &'static str {
        match self {
            IcmpErrorKind::ReassemblyTimeExceeded => "Reass. Time Ex.",
            IcmpErrorKind::FragNeeded => "Frag. Needed",
            IcmpErrorKind::ParamProblem => "Param. Prob.",
            IcmpErrorKind::SourceRouteFailed => "Src. Route Fail.",
            IcmpErrorKind::SourceQuench => "Source Quench",
            IcmpErrorKind::TtlExceeded => "TTL Exceeded",
            IcmpErrorKind::HostUnreachable => "Host Unreach.",
            IcmpErrorKind::NetUnreachable => "Net Unreach.",
            IcmpErrorKind::PortUnreachable => "Port Unreach.",
            IcmpErrorKind::ProtoUnreachable => "Proto. Unreach.",
        }
    }
}

/// A set of [`IcmpErrorKind`]s (tiny bitset).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct IcmpKindSet(u16);

impl IcmpKindSet {
    /// The empty set.
    pub const NONE: IcmpKindSet = IcmpKindSet(0);
    /// All ten kinds.
    pub const ALL: IcmpKindSet = IcmpKindSet(0x3FF);

    /// The minimal set every device except nw1 supports: Port Unreachable
    /// and TTL Exceeded (§4.3).
    pub const fn baseline() -> IcmpKindSet {
        IcmpKindSet::NONE.with(IcmpErrorKind::PortUnreachable).with(IcmpErrorKind::TtlExceeded)
    }

    /// Adds a kind.
    pub const fn with(self, kind: IcmpErrorKind) -> IcmpKindSet {
        IcmpKindSet(self.0 | 1 << kind as u16)
    }

    /// Removes a kind.
    pub const fn without(self, kind: IcmpErrorKind) -> IcmpKindSet {
        IcmpKindSet(self.0 & !(1 << kind as u16))
    }

    /// Membership test.
    pub const fn contains(self, kind: IcmpErrorKind) -> bool {
        self.0 & (1 << kind as u16) != 0
    }

    /// Number of kinds present.
    pub const fn len(self) -> u32 {
        self.0.count_ones()
    }

    /// True if empty.
    pub const fn is_empty(self) -> bool {
        self.0 == 0
    }
}

/// How the gateway treats ICMP errors arriving for translated flows.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct IcmpPolicy {
    /// Kinds translated for TCP flows.
    pub tcp_kinds: IcmpKindSet,
    /// Kinds translated for UDP flows.
    pub udp_kinds: IcmpKindSet,
    /// Translate Host Unreachable for ICMP-query (ping) flows — Table 2's
    /// "ICMP: Host Unreach." column.
    pub icmp_query_host_unreach: bool,
    /// Rewrite the transport header embedded in the ICMP payload back to
    /// the internal address/port (16/34 devices fail this).
    pub rewrite_embedded: bool,
    /// Fix the embedded IP header checksum after rewriting (zy1 and ls1
    /// fail this).
    pub fix_embedded_ip_checksum: bool,
    /// Fix the embedded transport checksum after rewriting.
    pub fix_embedded_l4_checksum: bool,
    /// Translate TCP-related ICMP errors into (invalid) TCP RST segments
    /// toward the internal host instead of forwarding them — the ls2
    /// behavior.
    pub tcp_errors_as_rst: bool,
}

impl IcmpPolicy {
    /// A fully correct translator (the owrt/ap/… behavior).
    pub fn full() -> IcmpPolicy {
        IcmpPolicy {
            tcp_kinds: IcmpKindSet::ALL,
            udp_kinds: IcmpKindSet::ALL,
            icmp_query_host_unreach: true,
            rewrite_embedded: true,
            fix_embedded_ip_checksum: true,
            fix_embedded_l4_checksum: true,
            tcp_errors_as_rst: false,
        }
    }

    /// The nw1 behavior: nothing is translated.
    pub fn none() -> IcmpPolicy {
        IcmpPolicy {
            tcp_kinds: IcmpKindSet::NONE,
            udp_kinds: IcmpKindSet::NONE,
            icmp_query_host_unreach: false,
            rewrite_embedded: false,
            fix_embedded_ip_checksum: false,
            fix_embedded_l4_checksum: false,
            tcp_errors_as_rst: false,
        }
    }
}

/// What the gateway does with transport protocols its NAT does not know
/// (SCTP, DCCP, …) — §4.3/§4.4's surprising "fallback" observation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum UnknownProtoPolicy {
    /// Drop silently (10/34 devices).
    Drop,
    /// Rewrite only the IP source address, keep an address-level
    /// association so replies can come back (20/34 devices; enables SCTP).
    IpRewrite {
        /// Whether inbound packets of unknown protocols are admitted when
        /// an association exists (the 2 IP-rewriting devices that still
        /// fail SCTP set this to false).
        allow_inbound: bool,
    },
    /// Forward entirely untranslated, private source address and all
    /// (dl4, dl9, dl10, ls1).
    PassThrough,
}

/// Forwarding-plane capacity model (TCP-2/TCP-3).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ForwardingModel {
    /// Upstream (LAN→WAN) path capacity, bits/sec.
    pub up_bps: u64,
    /// Downstream (WAN→LAN) path capacity, bits/sec.
    pub down_bps: u64,
    /// Shared processing capacity across both directions, bits/sec
    /// (`u64::MAX` = never the bottleneck).
    pub aggregate_bps: u64,
    /// Upstream buffer, bytes.
    pub buffer_up: usize,
    /// Downstream buffer, bytes.
    pub buffer_down: usize,
    /// Fixed per-packet processing latency.
    pub per_packet_overhead: Duration,
}

impl ForwardingModel {
    /// A wire-speed device (thirteen devices sustain the full 100 Mb/s).
    pub fn wire_speed() -> ForwardingModel {
        ForwardingModel {
            up_bps: 1_000_000_000,
            down_bps: 1_000_000_000,
            aggregate_bps: u64::MAX,
            buffer_up: 256 * 1024,
            buffer_down: 256 * 1024,
            per_packet_overhead: Duration::from_micros(20),
        }
    }
}

/// DNS-proxy behavior for queries arriving over TCP port 53 (§4.3).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DnsTcpMode {
    /// Refuse the connection (20/34 devices).
    Refuse,
    /// Accept the connection but never answer (4 devices).
    AcceptNoAnswer,
    /// Answer, forwarding upstream over TCP (9 devices).
    AnswerViaTcp,
    /// Answer, forwarding upstream over UDP — the ap behavior.
    AnswerViaUdp,
}

/// DNS proxy policy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DnsProxyPolicy {
    /// Proxy queries arriving over UDP port 53.
    pub udp: bool,
    /// TCP port 53 behavior.
    pub tcp: DnsTcpMode,
}

/// The complete behavioral description of one home gateway. Plain data
/// (`Copy`): a profile's per-service overrides are a `'static` slice, so
/// copying a policy never touches the heap.
#[derive(Debug, Clone, Copy)]
pub struct GatewayPolicy {
    // ---- UDP binding timeouts (UDP-1/2/3/5) ----
    /// Timeout for a binding that has only seen the initial outbound packet.
    pub udp_timeout_solitary: Duration,
    /// Timeout once inbound traffic has arrived on the binding.
    pub udp_timeout_inbound: Duration,
    /// Timeout once traffic has flowed in both directions repeatedly.
    pub udp_timeout_bidirectional: Duration,
    /// Per-service (destination-port) overrides applied to all three
    /// timeouts — UDP-5's dl8 uses a shorter timeout for DNS. Empty for
    /// every other Table 1 device.
    pub udp_service_overrides: &'static [(u16, Duration)],
    /// Binding-timer granularity: expiries are rounded up to a multiple of
    /// this. Coarse timers (we, al, je, ng5) make repeated measurements
    /// spread — the wide inter-quartile ranges of Figure 4.
    pub timer_granularity: Duration,

    // ---- TCP bindings (TCP-1/TCP-4) ----
    /// Idle timeout for established TCP bindings.
    pub tcp_timeout: Duration,
    /// Maximum simultaneous bindings per transport protocol.
    pub max_bindings: usize,

    // ---- NAT behavior ----
    /// External port selection.
    pub port_assignment: PortAssignment,
    /// Inbound filtering behavior.
    pub filtering: EndpointScope,
    /// Outbound mapping behavior.
    pub mapping: EndpointScope,
    /// Whether hairpinning (LAN→external-addr→LAN) works.
    pub hairpinning: bool,

    // ---- ICMP ----
    /// ICMP translation behavior.
    pub icmp: IcmpPolicy,

    // ---- unknown transports ----
    /// SCTP/DCCP/other handling.
    pub unknown_proto: UnknownProtoPolicy,

    // ---- forwarding plane ----
    /// Capacity and buffering.
    pub forwarding: ForwardingModel,

    /// Processing cost of instantiating a *new* binding (the §5 future-work
    /// item "the rate at which NATs are capable of creating new bindings").
    /// The first packet of a flow is delayed by this much extra.
    pub binding_setup_cost: Duration,

    // ---- IP-level quirks (§4.4) ----
    /// Decrement the IP TTL when forwarding (some devices do not).
    pub decrement_ttl: bool,
    /// Honor a Record Route option by appending the gateway address.
    pub honor_record_route: bool,

    // ---- services ----
    /// DNS proxy behavior.
    pub dns_proxy: DnsProxyPolicy,
}

impl GatewayPolicy {
    /// A reasonable, well-behaved gateway (close to the OpenWRT profile):
    /// RFC-compliant timeouts, port preservation with reuse, full ICMP
    /// translation, wire-speed forwarding.
    pub fn well_behaved() -> GatewayPolicy {
        GatewayPolicy {
            udp_timeout_solitary: Duration::from_secs(30),
            udp_timeout_inbound: Duration::from_secs(180),
            udp_timeout_bidirectional: Duration::from_secs(180),
            udp_service_overrides: &[],
            timer_granularity: Duration::from_secs(1),
            tcp_timeout: Duration::from_hours(2),
            max_bindings: 512,
            port_assignment: PortAssignment::Preserve { reuse_expired: true },
            filtering: EndpointScope::AddressAndPortDependent,
            mapping: EndpointScope::EndpointIndependent,
            hairpinning: false,
            icmp: IcmpPolicy::full(),
            unknown_proto: UnknownProtoPolicy::IpRewrite { allow_inbound: true },
            forwarding: ForwardingModel::wire_speed(),
            binding_setup_cost: Duration::from_micros(50),
            decrement_ttl: true,
            honor_record_route: false,
            dns_proxy: DnsProxyPolicy { udp: true, tcp: DnsTcpMode::Refuse },
        }
    }

    /// The timeout for a given traffic pattern and destination service.
    pub fn udp_timeout(&self, pattern: TrafficPattern, dst_port: u16) -> Duration {
        if let Some((_, t)) = self.udp_service_overrides.iter().find(|(p, _)| *p == dst_port) {
            return *t;
        }
        match pattern {
            TrafficPattern::OutboundOnly => self.udp_timeout_solitary,
            TrafficPattern::InboundSeen => self.udp_timeout_inbound,
            TrafficPattern::Bidirectional => self.udp_timeout_bidirectional,
        }
    }
}

/// The traffic pattern a UDP binding has experienced; drives which timeout
/// applies (the key mechanism behind the UDP-1/2/3 differences).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum TrafficPattern {
    /// Only the initial outbound packet(s) have been seen.
    OutboundOnly,
    /// Inbound traffic has arrived.
    InboundSeen,
    /// Outbound traffic followed inbound traffic (conversational flow).
    Bidirectional,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kind_set_operations() {
        let s = IcmpKindSet::baseline();
        assert_eq!(s.len(), 2);
        assert!(s.contains(IcmpErrorKind::PortUnreachable));
        assert!(s.contains(IcmpErrorKind::TtlExceeded));
        assert!(!s.contains(IcmpErrorKind::FragNeeded));
        let s2 = s.with(IcmpErrorKind::FragNeeded).without(IcmpErrorKind::TtlExceeded);
        assert!(s2.contains(IcmpErrorKind::FragNeeded));
        assert!(!s2.contains(IcmpErrorKind::TtlExceeded));
        assert_eq!(IcmpKindSet::ALL.len(), 10);
        assert!(IcmpKindSet::NONE.is_empty());
    }

    #[test]
    fn timeout_selection_by_pattern() {
        let p = GatewayPolicy::well_behaved();
        assert_eq!(p.udp_timeout(TrafficPattern::OutboundOnly, 5000), Duration::from_secs(30));
        assert_eq!(p.udp_timeout(TrafficPattern::InboundSeen, 5000), Duration::from_secs(180));
        assert_eq!(p.udp_timeout(TrafficPattern::Bidirectional, 5000), Duration::from_secs(180));
    }

    #[test]
    fn service_override_wins() {
        const DNS_20S: &[(u16, Duration)] = &[(53, Duration::from_secs(20))];
        let mut p = GatewayPolicy::well_behaved();
        p.udp_service_overrides = DNS_20S;
        assert_eq!(p.udp_timeout(TrafficPattern::InboundSeen, 53), Duration::from_secs(20));
        assert_eq!(p.udp_timeout(TrafficPattern::OutboundOnly, 53), Duration::from_secs(20));
        assert_eq!(p.udp_timeout(TrafficPattern::InboundSeen, 80), Duration::from_secs(180));
    }

    #[test]
    fn all_kinds_have_distinct_labels() {
        let labels: std::collections::HashSet<_> =
            IcmpErrorKind::ALL.iter().map(|k| k.label()).collect();
        assert_eq!(labels.len(), 10);
    }
}
