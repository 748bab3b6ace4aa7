//! Calibrated data for the 34 devices of Table 1.
//!
//! GENERATED by tools/calibrate.py — edit that script, not this file.
//! Values marked `stated` come directly from the paper; the rest are
//! reconstructed to satisfy the published orderings and population
//! statistics (see DESIGN.md §5).

use hgw_core::Duration;
use hgw_gateway::policy::*;

use crate::profile::{DeviceProfile, Expected, Provenance};

/// The full calibrated registry (34 devices, Table 1 order), as plain
/// `'static` data: reading it allocates nothing.
pub(crate) static DEVICES: [DeviceProfile; 34] = [
    DeviceProfile {
        tag: "al",
        provenance: &Provenance { vendor: "A-Link", model: "WNAP", firmware: "e2.0.9A" },
        policy: GatewayPolicy {
            udp_timeout_solitary: Duration::from_secs(26),
            udp_timeout_inbound: Duration::from_millis(200500),
            udp_timeout_bidirectional: Duration::from_millis(200500),
            udp_service_overrides: &[],
            timer_granularity: Duration::from_secs(30),
            tcp_timeout: Duration::from_secs(900),
            max_bindings: 600,
            port_assignment: PortAssignment::Preserve { reuse_expired: true },
            filtering: EndpointScope::AddressDependent,
            mapping: EndpointScope::EndpointIndependent,
            hairpinning: false,
            icmp: IcmpPolicy {
                tcp_kinds: IcmpKindSet::ALL,
                udp_kinds: IcmpKindSet::ALL,
                icmp_query_host_unreach: true,
                rewrite_embedded: true,
                fix_embedded_ip_checksum: true,
                fix_embedded_l4_checksum: true,
                tcp_errors_as_rst: false,
            },
            unknown_proto: UnknownProtoPolicy::IpRewrite { allow_inbound: true },
            binding_setup_cost: Duration::from_micros(25),
            forwarding: ForwardingModel {
                up_bps: 1000000000,
                down_bps: 1000000000,
                aggregate_bps: u64::MAX,
                buffer_up: 48 * 1024,
                buffer_down: 48 * 1024,
                per_packet_overhead: Duration::from_micros(20),
            },
            decrement_ttl: true,
            honor_record_route: false,
            dns_proxy: DnsProxyPolicy { udp: true, tcp: DnsTcpMode::AnswerViaTcp },
        },
        expected: Expected {
            udp1_secs: 35.0,
            udp2_secs: 203.0,
            udp3_secs: 203.0,
            tcp1_mins: 15.0,
            max_bindings: 600,
        },
    },
    DeviceProfile {
        tag: "ap",
        provenance: &Provenance { vendor: "Apple", model: "Airport Express", firmware: "7.4.2" },
        policy: GatewayPolicy {
            udp_timeout_solitary: Duration::from_secs(60),
            udp_timeout_inbound: Duration::from_secs(54),
            udp_timeout_bidirectional: Duration::from_secs(160),
            udp_service_overrides: &[],
            timer_granularity: Duration::from_secs(1),
            tcp_timeout: Duration::from_secs(604800),
            max_bindings: 1024,
            port_assignment: PortAssignment::Preserve { reuse_expired: true },
            filtering: EndpointScope::EndpointIndependent,
            mapping: EndpointScope::EndpointIndependent,
            hairpinning: true,
            icmp: IcmpPolicy {
                tcp_kinds: IcmpKindSet::ALL,
                udp_kinds: IcmpKindSet::ALL,
                icmp_query_host_unreach: true,
                rewrite_embedded: true,
                fix_embedded_ip_checksum: true,
                fix_embedded_l4_checksum: true,
                tcp_errors_as_rst: false,
            },
            unknown_proto: UnknownProtoPolicy::IpRewrite { allow_inbound: true },
            binding_setup_cost: Duration::from_micros(150),
            forwarding: ForwardingModel {
                up_bps: 20000000,
                down_bps: 22000000,
                aggregate_bps: 24000000,
                buffer_up: 96 * 1024,
                buffer_down: 96 * 1024,
                per_packet_overhead: Duration::from_micros(20),
            },
            decrement_ttl: true,
            honor_record_route: false,
            dns_proxy: DnsProxyPolicy { udp: true, tcp: DnsTcpMode::AnswerViaUdp },
        },
        expected: Expected {
            udp1_secs: 60.0,
            udp2_secs: 54.0,
            udp3_secs: 160.0,
            tcp1_mins: 1440.0,
            max_bindings: 1024,
        },
    },
    DeviceProfile {
        tag: "as1",
        provenance: &Provenance { vendor: "Asus", model: "RT-N15", firmware: "2.0.1.1" },
        policy: GatewayPolicy {
            udp_timeout_solitary: Duration::from_secs(88),
            udp_timeout_inbound: Duration::from_secs(175),
            udp_timeout_bidirectional: Duration::from_secs(175),
            udp_service_overrides: &[],
            timer_granularity: Duration::from_secs(1),
            tcp_timeout: Duration::from_secs(1800),
            max_bindings: 450,
            port_assignment: PortAssignment::Preserve { reuse_expired: true },
            filtering: EndpointScope::AddressAndPortDependent,
            mapping: EndpointScope::EndpointIndependent,
            hairpinning: false,
            icmp: IcmpPolicy {
                tcp_kinds: IcmpKindSet::NONE
                    .with(IcmpErrorKind::ReassemblyTimeExceeded)
                    .with(IcmpErrorKind::FragNeeded)
                    .with(IcmpErrorKind::ParamProblem)
                    .with(IcmpErrorKind::SourceRouteFailed)
                    .with(IcmpErrorKind::TtlExceeded)
                    .with(IcmpErrorKind::HostUnreachable)
                    .with(IcmpErrorKind::NetUnreachable)
                    .with(IcmpErrorKind::PortUnreachable)
                    .with(IcmpErrorKind::ProtoUnreachable),
                udp_kinds: IcmpKindSet::ALL,
                icmp_query_host_unreach: true,
                rewrite_embedded: true,
                fix_embedded_ip_checksum: true,
                fix_embedded_l4_checksum: true,
                tcp_errors_as_rst: false,
            },
            unknown_proto: UnknownProtoPolicy::IpRewrite { allow_inbound: true },
            binding_setup_cost: Duration::from_micros(25),
            forwarding: ForwardingModel {
                up_bps: 1000000000,
                down_bps: 1000000000,
                aggregate_bps: 160000000,
                buffer_up: 56 * 1024,
                buffer_down: 56 * 1024,
                per_packet_overhead: Duration::from_micros(20),
            },
            decrement_ttl: true,
            honor_record_route: false,
            dns_proxy: DnsProxyPolicy { udp: true, tcp: DnsTcpMode::AcceptNoAnswer },
        },
        expected: Expected {
            udp1_secs: 88.0,
            udp2_secs: 175.0,
            udp3_secs: 175.0,
            tcp1_mins: 30.0,
            max_bindings: 450,
        },
    },
    DeviceProfile {
        tag: "be1",
        provenance: &Provenance {
            vendor: "Belkin",
            model: "Wireless N Router",
            firmware: "F5D8236-4_WW_3.00.02",
        },
        policy: GatewayPolicy {
            udp_timeout_solitary: Duration::from_secs(185),
            udp_timeout_inbound: Duration::from_secs(120),
            udp_timeout_bidirectional: Duration::from_secs(185),
            udp_service_overrides: &[],
            timer_granularity: Duration::from_secs(1),
            tcp_timeout: Duration::from_secs(239),
            max_bindings: 130,
            port_assignment: PortAssignment::Preserve { reuse_expired: false },
            filtering: EndpointScope::AddressAndPortDependent,
            mapping: EndpointScope::EndpointIndependent,
            hairpinning: false,
            icmp: IcmpPolicy {
                tcp_kinds: IcmpKindSet::NONE
                    .with(IcmpErrorKind::TtlExceeded)
                    .with(IcmpErrorKind::HostUnreachable)
                    .with(IcmpErrorKind::PortUnreachable),
                udp_kinds: IcmpKindSet::NONE
                    .with(IcmpErrorKind::TtlExceeded)
                    .with(IcmpErrorKind::HostUnreachable)
                    .with(IcmpErrorKind::PortUnreachable),
                icmp_query_host_unreach: true,
                rewrite_embedded: false,
                fix_embedded_ip_checksum: true,
                fix_embedded_l4_checksum: false,
                tcp_errors_as_rst: false,
            },
            unknown_proto: UnknownProtoPolicy::Drop,
            binding_setup_cost: Duration::from_micros(25),
            forwarding: ForwardingModel {
                up_bps: 1000000000,
                down_bps: 1000000000,
                aggregate_bps: 190000000,
                buffer_up: 48 * 1024,
                buffer_down: 48 * 1024,
                per_packet_overhead: Duration::from_micros(20),
            },
            decrement_ttl: true,
            honor_record_route: false,
            dns_proxy: DnsProxyPolicy { udp: true, tcp: DnsTcpMode::Refuse },
        },
        expected: Expected {
            udp1_secs: 185.0,
            udp2_secs: 120.0,
            udp3_secs: 185.0,
            tcp1_mins: 3.9833333333333334,
            max_bindings: 130,
        },
    },
    DeviceProfile {
        tag: "be2",
        provenance: &Provenance {
            vendor: "Belkin",
            model: "Enhanced N150",
            firmware: "F6D4230-4_WW_1.00.03",
        },
        policy: GatewayPolicy {
            udp_timeout_solitary: Duration::from_secs(450),
            udp_timeout_inbound: Duration::from_secs(202),
            udp_timeout_bidirectional: Duration::from_secs(450),
            udp_service_overrides: &[],
            timer_granularity: Duration::from_secs(1),
            tcp_timeout: Duration::from_secs(600),
            max_bindings: 134,
            port_assignment: PortAssignment::Preserve { reuse_expired: false },
            filtering: EndpointScope::AddressAndPortDependent,
            mapping: EndpointScope::EndpointIndependent,
            hairpinning: false,
            icmp: IcmpPolicy {
                tcp_kinds: IcmpKindSet::NONE
                    .with(IcmpErrorKind::TtlExceeded)
                    .with(IcmpErrorKind::HostUnreachable)
                    .with(IcmpErrorKind::PortUnreachable),
                udp_kinds: IcmpKindSet::NONE
                    .with(IcmpErrorKind::TtlExceeded)
                    .with(IcmpErrorKind::HostUnreachable)
                    .with(IcmpErrorKind::PortUnreachable),
                icmp_query_host_unreach: true,
                rewrite_embedded: false,
                fix_embedded_ip_checksum: true,
                fix_embedded_l4_checksum: false,
                tcp_errors_as_rst: false,
            },
            unknown_proto: UnknownProtoPolicy::Drop,
            binding_setup_cost: Duration::from_micros(25),
            forwarding: ForwardingModel {
                up_bps: 1000000000,
                down_bps: 1000000000,
                aggregate_bps: 180000000,
                buffer_up: 48 * 1024,
                buffer_down: 48 * 1024,
                per_packet_overhead: Duration::from_micros(20),
            },
            decrement_ttl: true,
            honor_record_route: false,
            dns_proxy: DnsProxyPolicy { udp: true, tcp: DnsTcpMode::Refuse },
        },
        expected: Expected {
            udp1_secs: 450.0,
            udp2_secs: 202.0,
            udp3_secs: 450.0,
            tcp1_mins: 10.0,
            max_bindings: 134,
        },
    },
    DeviceProfile {
        tag: "bu1",
        provenance: &Provenance {
            vendor: "Buffalo",
            model: "WZR-AGL300NH",
            firmware: "R1.06/B1.05",
        },
        policy: GatewayPolicy {
            udp_timeout_solitary: Duration::from_secs(90),
            udp_timeout_inbound: Duration::from_secs(175),
            udp_timeout_bidirectional: Duration::from_secs(175),
            udp_service_overrides: &[],
            timer_granularity: Duration::from_secs(1),
            tcp_timeout: Duration::from_secs(604800),
            max_bindings: 560,
            port_assignment: PortAssignment::Preserve { reuse_expired: true },
            filtering: EndpointScope::AddressAndPortDependent,
            mapping: EndpointScope::EndpointIndependent,
            hairpinning: true,
            icmp: IcmpPolicy {
                tcp_kinds: IcmpKindSet::ALL,
                udp_kinds: IcmpKindSet::ALL,
                icmp_query_host_unreach: true,
                rewrite_embedded: true,
                fix_embedded_ip_checksum: true,
                fix_embedded_l4_checksum: true,
                tcp_errors_as_rst: false,
            },
            unknown_proto: UnknownProtoPolicy::IpRewrite { allow_inbound: true },
            binding_setup_cost: Duration::from_micros(25),
            forwarding: ForwardingModel {
                up_bps: 1000000000,
                down_bps: 1000000000,
                aggregate_bps: u64::MAX,
                buffer_up: 56 * 1024,
                buffer_down: 56 * 1024,
                per_packet_overhead: Duration::from_micros(20),
            },
            decrement_ttl: true,
            honor_record_route: false,
            dns_proxy: DnsProxyPolicy { udp: true, tcp: DnsTcpMode::AnswerViaTcp },
        },
        expected: Expected {
            udp1_secs: 90.0,
            udp2_secs: 175.0,
            udp3_secs: 175.0,
            tcp1_mins: 1440.0,
            max_bindings: 560,
        },
    },
    DeviceProfile {
        tag: "dl1",
        provenance: &Provenance { vendor: "D-Link", model: "DIR-300", firmware: "1.03" },
        policy: GatewayPolicy {
            udp_timeout_solitary: Duration::from_secs(80),
            udp_timeout_inbound: Duration::from_secs(180),
            udp_timeout_bidirectional: Duration::from_secs(180),
            udp_service_overrides: &[],
            timer_granularity: Duration::from_secs(1),
            tcp_timeout: Duration::from_secs(6000),
            max_bindings: 140,
            port_assignment: PortAssignment::Preserve { reuse_expired: true },
            filtering: EndpointScope::AddressAndPortDependent,
            mapping: EndpointScope::EndpointIndependent,
            hairpinning: false,
            icmp: IcmpPolicy {
                tcp_kinds: IcmpKindSet::NONE
                    .with(IcmpErrorKind::ReassemblyTimeExceeded)
                    .with(IcmpErrorKind::FragNeeded)
                    .with(IcmpErrorKind::ParamProblem)
                    .with(IcmpErrorKind::SourceRouteFailed)
                    .with(IcmpErrorKind::TtlExceeded)
                    .with(IcmpErrorKind::HostUnreachable)
                    .with(IcmpErrorKind::NetUnreachable)
                    .with(IcmpErrorKind::PortUnreachable)
                    .with(IcmpErrorKind::ProtoUnreachable),
                udp_kinds: IcmpKindSet::ALL,
                icmp_query_host_unreach: true,
                rewrite_embedded: false,
                fix_embedded_ip_checksum: true,
                fix_embedded_l4_checksum: false,
                tcp_errors_as_rst: false,
            },
            unknown_proto: UnknownProtoPolicy::IpRewrite { allow_inbound: true },
            binding_setup_cost: Duration::from_micros(60),
            forwarding: ForwardingModel {
                up_bps: 74000000,
                down_bps: 76000000,
                aggregate_bps: 82000000,
                buffer_up: 64 * 1024,
                buffer_down: 64 * 1024,
                per_packet_overhead: Duration::from_micros(20),
            },
            decrement_ttl: true,
            honor_record_route: false,
            dns_proxy: DnsProxyPolicy { udp: true, tcp: DnsTcpMode::Refuse },
        },
        expected: Expected {
            udp1_secs: 80.0,
            udp2_secs: 180.0,
            udp3_secs: 180.0,
            tcp1_mins: 100.0,
            max_bindings: 140,
        },
    },
    DeviceProfile {
        tag: "dl10",
        provenance: &Provenance { vendor: "D-Link", model: "DI-713P", firmware: "2.60 build 6a" },
        policy: GatewayPolicy {
            udp_timeout_solitary: Duration::from_secs(203),
            udp_timeout_inbound: Duration::from_secs(150),
            udp_timeout_bidirectional: Duration::from_secs(203),
            udp_service_overrides: &[],
            timer_granularity: Duration::from_secs(1),
            tcp_timeout: Duration::from_secs(3538),
            max_bindings: 24,
            port_assignment: PortAssignment::Sequential,
            filtering: EndpointScope::AddressAndPortDependent,
            mapping: EndpointScope::AddressAndPortDependent,
            hairpinning: false,
            icmp: IcmpPolicy {
                tcp_kinds: IcmpKindSet::NONE
                    .with(IcmpErrorKind::TtlExceeded)
                    .with(IcmpErrorKind::PortUnreachable),
                udp_kinds: IcmpKindSet::NONE
                    .with(IcmpErrorKind::TtlExceeded)
                    .with(IcmpErrorKind::PortUnreachable),
                icmp_query_host_unreach: false,
                rewrite_embedded: false,
                fix_embedded_ip_checksum: true,
                fix_embedded_l4_checksum: false,
                tcp_errors_as_rst: false,
            },
            unknown_proto: UnknownProtoPolicy::PassThrough,
            binding_setup_cost: Duration::from_micros(400),
            forwarding: ForwardingModel {
                up_bps: 6500000,
                down_bps: 6500000,
                aggregate_bps: 7000000,
                buffer_up: 64 * 1024,
                buffer_down: 64 * 1024,
                per_packet_overhead: Duration::from_micros(20),
            },
            decrement_ttl: false,
            honor_record_route: false,
            dns_proxy: DnsProxyPolicy { udp: true, tcp: DnsTcpMode::Refuse },
        },
        expected: Expected {
            udp1_secs: 203.0,
            udp2_secs: 150.0,
            udp3_secs: 203.0,
            tcp1_mins: 58.96,
            max_bindings: 24,
        },
    },
    DeviceProfile {
        tag: "dl2",
        provenance: &Provenance { vendor: "D-Link", model: "DIR-300", firmware: "1.04" },
        policy: GatewayPolicy {
            udp_timeout_solitary: Duration::from_secs(80),
            udp_timeout_inbound: Duration::from_secs(180),
            udp_timeout_bidirectional: Duration::from_secs(180),
            udp_service_overrides: &[],
            timer_granularity: Duration::from_secs(1),
            tcp_timeout: Duration::from_secs(7200),
            max_bindings: 135,
            port_assignment: PortAssignment::Preserve { reuse_expired: true },
            filtering: EndpointScope::AddressAndPortDependent,
            mapping: EndpointScope::EndpointIndependent,
            hairpinning: false,
            icmp: IcmpPolicy {
                tcp_kinds: IcmpKindSet::ALL,
                udp_kinds: IcmpKindSet::ALL,
                icmp_query_host_unreach: true,
                rewrite_embedded: true,
                fix_embedded_ip_checksum: true,
                fix_embedded_l4_checksum: true,
                tcp_errors_as_rst: false,
            },
            unknown_proto: UnknownProtoPolicy::IpRewrite { allow_inbound: true },
            binding_setup_cost: Duration::from_micros(60),
            forwarding: ForwardingModel {
                up_bps: 72000000,
                down_bps: 74000000,
                aggregate_bps: 80000000,
                buffer_up: 64 * 1024,
                buffer_down: 64 * 1024,
                per_packet_overhead: Duration::from_micros(20),
            },
            decrement_ttl: true,
            honor_record_route: false,
            dns_proxy: DnsProxyPolicy { udp: true, tcp: DnsTcpMode::AcceptNoAnswer },
        },
        expected: Expected {
            udp1_secs: 80.0,
            udp2_secs: 180.0,
            udp3_secs: 180.0,
            tcp1_mins: 120.0,
            max_bindings: 135,
        },
    },
    DeviceProfile {
        tag: "dl3",
        provenance: &Provenance { vendor: "D-Link", model: "DI-524up", firmware: "v1.06" },
        policy: GatewayPolicy {
            udp_timeout_solitary: Duration::from_secs(100),
            udp_timeout_inbound: Duration::from_secs(120),
            udp_timeout_bidirectional: Duration::from_secs(145),
            udp_service_overrides: &[],
            timer_granularity: Duration::from_secs(1),
            tcp_timeout: Duration::from_secs(3300),
            max_bindings: 380,
            port_assignment: PortAssignment::Preserve { reuse_expired: true },
            filtering: EndpointScope::AddressAndPortDependent,
            mapping: EndpointScope::EndpointIndependent,
            hairpinning: false,
            icmp: IcmpPolicy {
                tcp_kinds: IcmpKindSet::NONE
                    .with(IcmpErrorKind::ReassemblyTimeExceeded)
                    .with(IcmpErrorKind::FragNeeded)
                    .with(IcmpErrorKind::ParamProblem)
                    .with(IcmpErrorKind::SourceRouteFailed)
                    .with(IcmpErrorKind::TtlExceeded)
                    .with(IcmpErrorKind::HostUnreachable)
                    .with(IcmpErrorKind::NetUnreachable)
                    .with(IcmpErrorKind::PortUnreachable)
                    .with(IcmpErrorKind::ProtoUnreachable),
                udp_kinds: IcmpKindSet::NONE
                    .with(IcmpErrorKind::ReassemblyTimeExceeded)
                    .with(IcmpErrorKind::FragNeeded)
                    .with(IcmpErrorKind::ParamProblem)
                    .with(IcmpErrorKind::SourceRouteFailed)
                    .with(IcmpErrorKind::TtlExceeded)
                    .with(IcmpErrorKind::HostUnreachable)
                    .with(IcmpErrorKind::NetUnreachable)
                    .with(IcmpErrorKind::PortUnreachable)
                    .with(IcmpErrorKind::ProtoUnreachable),
                icmp_query_host_unreach: true,
                rewrite_embedded: false,
                fix_embedded_ip_checksum: true,
                fix_embedded_l4_checksum: false,
                tcp_errors_as_rst: false,
            },
            unknown_proto: UnknownProtoPolicy::IpRewrite { allow_inbound: true },
            binding_setup_cost: Duration::from_micros(25),
            forwarding: ForwardingModel {
                up_bps: 1000000000,
                down_bps: 1000000000,
                aggregate_bps: u64::MAX,
                buffer_up: 40 * 1024,
                buffer_down: 40 * 1024,
                per_packet_overhead: Duration::from_micros(20),
            },
            decrement_ttl: true,
            honor_record_route: false,
            dns_proxy: DnsProxyPolicy { udp: true, tcp: DnsTcpMode::Refuse },
        },
        expected: Expected {
            udp1_secs: 100.0,
            udp2_secs: 120.0,
            udp3_secs: 145.0,
            tcp1_mins: 55.0,
            max_bindings: 380,
        },
    },
    DeviceProfile {
        tag: "dl4",
        provenance: &Provenance { vendor: "D-Link", model: "DI-524", firmware: "v2.0.4" },
        policy: GatewayPolicy {
            udp_timeout_solitary: Duration::from_secs(205),
            udp_timeout_inbound: Duration::from_secs(265),
            udp_timeout_bidirectional: Duration::from_secs(265),
            udp_service_overrides: &[],
            timer_granularity: Duration::from_secs(1),
            tcp_timeout: Duration::from_secs(4800),
            max_bindings: 48,
            port_assignment: PortAssignment::Sequential,
            filtering: EndpointScope::AddressAndPortDependent,
            mapping: EndpointScope::AddressAndPortDependent,
            hairpinning: false,
            icmp: IcmpPolicy {
                tcp_kinds: IcmpKindSet::NONE
                    .with(IcmpErrorKind::TtlExceeded)
                    .with(IcmpErrorKind::PortUnreachable),
                udp_kinds: IcmpKindSet::NONE
                    .with(IcmpErrorKind::TtlExceeded)
                    .with(IcmpErrorKind::PortUnreachable),
                icmp_query_host_unreach: false,
                rewrite_embedded: false,
                fix_embedded_ip_checksum: true,
                fix_embedded_l4_checksum: false,
                tcp_errors_as_rst: false,
            },
            unknown_proto: UnknownProtoPolicy::PassThrough,
            binding_setup_cost: Duration::from_micros(25),
            forwarding: ForwardingModel {
                up_bps: 1000000000,
                down_bps: 1000000000,
                aggregate_bps: u64::MAX,
                buffer_up: 48 * 1024,
                buffer_down: 48 * 1024,
                per_packet_overhead: Duration::from_micros(20),
            },
            decrement_ttl: true,
            honor_record_route: false,
            dns_proxy: DnsProxyPolicy { udp: true, tcp: DnsTcpMode::Refuse },
        },
        expected: Expected {
            udp1_secs: 205.0,
            udp2_secs: 265.0,
            udp3_secs: 265.0,
            tcp1_mins: 80.0,
            max_bindings: 48,
        },
    },
    DeviceProfile {
        tag: "dl5",
        provenance: &Provenance { vendor: "D-Link", model: "DIR-100", firmware: "v1.12" },
        policy: GatewayPolicy {
            udp_timeout_solitary: Duration::from_secs(100),
            udp_timeout_inbound: Duration::from_secs(120),
            udp_timeout_bidirectional: Duration::from_secs(145),
            udp_service_overrides: &[],
            timer_granularity: Duration::from_secs(1),
            tcp_timeout: Duration::from_secs(3300),
            max_bindings: 500,
            port_assignment: PortAssignment::Preserve { reuse_expired: true },
            filtering: EndpointScope::AddressAndPortDependent,
            mapping: EndpointScope::EndpointIndependent,
            hairpinning: false,
            icmp: IcmpPolicy {
                tcp_kinds: IcmpKindSet::NONE
                    .with(IcmpErrorKind::ReassemblyTimeExceeded)
                    .with(IcmpErrorKind::FragNeeded)
                    .with(IcmpErrorKind::ParamProblem)
                    .with(IcmpErrorKind::SourceRouteFailed)
                    .with(IcmpErrorKind::TtlExceeded)
                    .with(IcmpErrorKind::HostUnreachable)
                    .with(IcmpErrorKind::NetUnreachable)
                    .with(IcmpErrorKind::PortUnreachable)
                    .with(IcmpErrorKind::ProtoUnreachable),
                udp_kinds: IcmpKindSet::NONE
                    .with(IcmpErrorKind::ReassemblyTimeExceeded)
                    .with(IcmpErrorKind::FragNeeded)
                    .with(IcmpErrorKind::ParamProblem)
                    .with(IcmpErrorKind::SourceRouteFailed)
                    .with(IcmpErrorKind::TtlExceeded)
                    .with(IcmpErrorKind::HostUnreachable)
                    .with(IcmpErrorKind::NetUnreachable)
                    .with(IcmpErrorKind::PortUnreachable)
                    .with(IcmpErrorKind::ProtoUnreachable),
                icmp_query_host_unreach: true,
                rewrite_embedded: false,
                fix_embedded_ip_checksum: true,
                fix_embedded_l4_checksum: false,
                tcp_errors_as_rst: false,
            },
            unknown_proto: UnknownProtoPolicy::IpRewrite { allow_inbound: true },
            binding_setup_cost: Duration::from_micros(25),
            forwarding: ForwardingModel {
                up_bps: 1000000000,
                down_bps: 1000000000,
                aggregate_bps: u64::MAX,
                buffer_up: 48 * 1024,
                buffer_down: 48 * 1024,
                per_packet_overhead: Duration::from_micros(20),
            },
            decrement_ttl: true,
            honor_record_route: false,
            dns_proxy: DnsProxyPolicy { udp: true, tcp: DnsTcpMode::Refuse },
        },
        expected: Expected {
            udp1_secs: 100.0,
            udp2_secs: 120.0,
            udp3_secs: 145.0,
            tcp1_mins: 55.0,
            max_bindings: 500,
        },
    },
    DeviceProfile {
        tag: "dl6",
        provenance: &Provenance { vendor: "D-Link", model: "DIR-600", firmware: "v2.01" },
        policy: GatewayPolicy {
            udp_timeout_solitary: Duration::from_secs(85),
            udp_timeout_inbound: Duration::from_secs(180),
            udp_timeout_bidirectional: Duration::from_secs(180),
            udp_service_overrides: &[],
            timer_granularity: Duration::from_secs(1),
            tcp_timeout: Duration::from_secs(7440),
            max_bindings: 136,
            port_assignment: PortAssignment::Preserve { reuse_expired: true },
            filtering: EndpointScope::AddressAndPortDependent,
            mapping: EndpointScope::EndpointIndependent,
            hairpinning: false,
            icmp: IcmpPolicy {
                tcp_kinds: IcmpKindSet::ALL,
                udp_kinds: IcmpKindSet::ALL,
                icmp_query_host_unreach: true,
                rewrite_embedded: true,
                fix_embedded_ip_checksum: true,
                fix_embedded_l4_checksum: true,
                tcp_errors_as_rst: false,
            },
            unknown_proto: UnknownProtoPolicy::IpRewrite { allow_inbound: true },
            binding_setup_cost: Duration::from_micros(25),
            forwarding: ForwardingModel {
                up_bps: 1000000000,
                down_bps: 1000000000,
                aggregate_bps: u64::MAX,
                buffer_up: 48 * 1024,
                buffer_down: 48 * 1024,
                per_packet_overhead: Duration::from_micros(20),
            },
            decrement_ttl: true,
            honor_record_route: false,
            dns_proxy: DnsProxyPolicy { udp: true, tcp: DnsTcpMode::AnswerViaTcp },
        },
        expected: Expected {
            udp1_secs: 85.0,
            udp2_secs: 180.0,
            udp3_secs: 180.0,
            tcp1_mins: 124.0,
            max_bindings: 136,
        },
    },
    DeviceProfile {
        tag: "dl7",
        provenance: &Provenance { vendor: "D-Link", model: "DIR-615", firmware: "v4.00" },
        policy: GatewayPolicy {
            udp_timeout_solitary: Duration::from_secs(85),
            udp_timeout_inbound: Duration::from_secs(180),
            udp_timeout_bidirectional: Duration::from_secs(180),
            udp_service_overrides: &[],
            timer_granularity: Duration::from_secs(1),
            tcp_timeout: Duration::from_secs(7440),
            max_bindings: 400,
            port_assignment: PortAssignment::Preserve { reuse_expired: true },
            filtering: EndpointScope::AddressAndPortDependent,
            mapping: EndpointScope::EndpointIndependent,
            hairpinning: false,
            icmp: IcmpPolicy {
                tcp_kinds: IcmpKindSet::ALL,
                udp_kinds: IcmpKindSet::ALL,
                icmp_query_host_unreach: true,
                rewrite_embedded: true,
                fix_embedded_ip_checksum: true,
                fix_embedded_l4_checksum: true,
                tcp_errors_as_rst: false,
            },
            unknown_proto: UnknownProtoPolicy::IpRewrite { allow_inbound: true },
            binding_setup_cost: Duration::from_micros(25),
            forwarding: ForwardingModel {
                up_bps: 1000000000,
                down_bps: 1000000000,
                aggregate_bps: 170000000,
                buffer_up: 56 * 1024,
                buffer_down: 56 * 1024,
                per_packet_overhead: Duration::from_micros(20),
            },
            decrement_ttl: true,
            honor_record_route: false,
            dns_proxy: DnsProxyPolicy { udp: true, tcp: DnsTcpMode::AnswerViaTcp },
        },
        expected: Expected {
            udp1_secs: 85.0,
            udp2_secs: 180.0,
            udp3_secs: 180.0,
            tcp1_mins: 124.0,
            max_bindings: 400,
        },
    },
    DeviceProfile {
        tag: "dl8",
        provenance: &Provenance { vendor: "D-Link", model: "DIR-635", firmware: "v2.33EU" },
        policy: GatewayPolicy {
            udp_timeout_solitary: Duration::from_secs(215),
            udp_timeout_inbound: Duration::from_secs(268),
            udp_timeout_bidirectional: Duration::from_secs(268),
            udp_service_overrides: &[(53, Duration::from_secs(120))],
            timer_granularity: Duration::from_secs(1),
            tcp_timeout: Duration::from_secs(9000),
            max_bindings: 150,
            port_assignment: PortAssignment::Preserve { reuse_expired: true },
            filtering: EndpointScope::AddressAndPortDependent,
            mapping: EndpointScope::EndpointIndependent,
            hairpinning: false,
            icmp: IcmpPolicy {
                tcp_kinds: IcmpKindSet::NONE
                    .with(IcmpErrorKind::ReassemblyTimeExceeded)
                    .with(IcmpErrorKind::FragNeeded)
                    .with(IcmpErrorKind::ParamProblem)
                    .with(IcmpErrorKind::SourceRouteFailed)
                    .with(IcmpErrorKind::TtlExceeded)
                    .with(IcmpErrorKind::HostUnreachable)
                    .with(IcmpErrorKind::NetUnreachable)
                    .with(IcmpErrorKind::PortUnreachable)
                    .with(IcmpErrorKind::ProtoUnreachable),
                udp_kinds: IcmpKindSet::ALL,
                icmp_query_host_unreach: true,
                rewrite_embedded: true,
                fix_embedded_ip_checksum: true,
                fix_embedded_l4_checksum: true,
                tcp_errors_as_rst: false,
            },
            unknown_proto: UnknownProtoPolicy::IpRewrite { allow_inbound: true },
            binding_setup_cost: Duration::from_micros(25),
            forwarding: ForwardingModel {
                up_bps: 1000000000,
                down_bps: 1000000000,
                aggregate_bps: u64::MAX,
                buffer_up: 96 * 1024,
                buffer_down: 96 * 1024,
                per_packet_overhead: Duration::from_micros(20),
            },
            decrement_ttl: true,
            honor_record_route: false,
            dns_proxy: DnsProxyPolicy { udp: true, tcp: DnsTcpMode::Refuse },
        },
        expected: Expected {
            udp1_secs: 215.0,
            udp2_secs: 268.0,
            udp3_secs: 268.0,
            tcp1_mins: 150.0,
            max_bindings: 150,
        },
    },
    DeviceProfile {
        tag: "dl9",
        provenance: &Provenance { vendor: "D-Link", model: "DI-604", firmware: "v3.09" },
        policy: GatewayPolicy {
            udp_timeout_solitary: Duration::from_secs(235),
            udp_timeout_inbound: Duration::from_secs(271),
            udp_timeout_bidirectional: Duration::from_secs(271),
            udp_service_overrides: &[],
            timer_granularity: Duration::from_secs(1),
            tcp_timeout: Duration::from_secs(3480),
            max_bindings: 16,
            port_assignment: PortAssignment::Sequential,
            filtering: EndpointScope::AddressAndPortDependent,
            mapping: EndpointScope::AddressAndPortDependent,
            hairpinning: false,
            icmp: IcmpPolicy {
                tcp_kinds: IcmpKindSet::NONE
                    .with(IcmpErrorKind::TtlExceeded)
                    .with(IcmpErrorKind::PortUnreachable),
                udp_kinds: IcmpKindSet::NONE
                    .with(IcmpErrorKind::TtlExceeded)
                    .with(IcmpErrorKind::PortUnreachable),
                icmp_query_host_unreach: false,
                rewrite_embedded: false,
                fix_embedded_ip_checksum: true,
                fix_embedded_l4_checksum: false,
                tcp_errors_as_rst: false,
            },
            unknown_proto: UnknownProtoPolicy::PassThrough,
            binding_setup_cost: Duration::from_micros(150),
            forwarding: ForwardingModel {
                up_bps: 40000000,
                down_bps: 42000000,
                aggregate_bps: 46000000,
                buffer_up: 80 * 1024,
                buffer_down: 80 * 1024,
                per_packet_overhead: Duration::from_micros(20),
            },
            decrement_ttl: false,
            honor_record_route: false,
            dns_proxy: DnsProxyPolicy { udp: true, tcp: DnsTcpMode::Refuse },
        },
        expected: Expected {
            udp1_secs: 235.0,
            udp2_secs: 271.0,
            udp3_secs: 271.0,
            tcp1_mins: 58.0,
            max_bindings: 16,
        },
    },
    DeviceProfile {
        tag: "ed",
        provenance: &Provenance { vendor: "Edimax", model: "6104WG", firmware: "2.63" },
        policy: GatewayPolicy {
            udp_timeout_solitary: Duration::from_secs(30),
            udp_timeout_inbound: Duration::from_secs(180),
            udp_timeout_bidirectional: Duration::from_secs(180),
            udp_service_overrides: &[],
            timer_granularity: Duration::from_secs(1),
            tcp_timeout: Duration::from_secs(604800),
            max_bindings: 280,
            port_assignment: PortAssignment::Preserve { reuse_expired: true },
            filtering: EndpointScope::AddressAndPortDependent,
            mapping: EndpointScope::EndpointIndependent,
            hairpinning: false,
            icmp: IcmpPolicy {
                tcp_kinds: IcmpKindSet::ALL,
                udp_kinds: IcmpKindSet::ALL,
                icmp_query_host_unreach: true,
                rewrite_embedded: true,
                fix_embedded_ip_checksum: true,
                fix_embedded_l4_checksum: true,
                tcp_errors_as_rst: false,
            },
            unknown_proto: UnknownProtoPolicy::IpRewrite { allow_inbound: true },
            binding_setup_cost: Duration::from_micros(150),
            forwarding: ForwardingModel {
                up_bps: 44000000,
                down_bps: 46000000,
                aggregate_bps: 50000000,
                buffer_up: 96 * 1024,
                buffer_down: 96 * 1024,
                per_packet_overhead: Duration::from_micros(20),
            },
            decrement_ttl: true,
            honor_record_route: false,
            dns_proxy: DnsProxyPolicy { udp: true, tcp: DnsTcpMode::AnswerViaTcp },
        },
        expected: Expected {
            udp1_secs: 30.0,
            udp2_secs: 180.0,
            udp3_secs: 180.0,
            tcp1_mins: 1440.0,
            max_bindings: 280,
        },
    },
    DeviceProfile {
        tag: "je",
        provenance: &Provenance { vendor: "Jensen", model: "Air:Link 59300", firmware: "1.15" },
        policy: GatewayPolicy {
            udp_timeout_solitary: Duration::from_secs(27),
            udp_timeout_inbound: Duration::from_millis(87500),
            udp_timeout_bidirectional: Duration::from_millis(87500),
            udp_service_overrides: &[],
            timer_granularity: Duration::from_secs(10),
            tcp_timeout: Duration::from_secs(2700),
            max_bindings: 300,
            port_assignment: PortAssignment::Preserve { reuse_expired: true },
            filtering: EndpointScope::AddressDependent,
            mapping: EndpointScope::EndpointIndependent,
            hairpinning: false,
            icmp: IcmpPolicy {
                tcp_kinds: IcmpKindSet::ALL,
                udp_kinds: IcmpKindSet::ALL,
                icmp_query_host_unreach: true,
                rewrite_embedded: true,
                fix_embedded_ip_checksum: true,
                fix_embedded_l4_checksum: true,
                tcp_errors_as_rst: false,
            },
            unknown_proto: UnknownProtoPolicy::IpRewrite { allow_inbound: true },
            binding_setup_cost: Duration::from_micros(60),
            forwarding: ForwardingModel {
                up_bps: 68000000,
                down_bps: 70000000,
                aggregate_bps: 76000000,
                buffer_up: 64 * 1024,
                buffer_down: 64 * 1024,
                per_packet_overhead: Duration::from_micros(20),
            },
            decrement_ttl: true,
            honor_record_route: false,
            dns_proxy: DnsProxyPolicy { udp: true, tcp: DnsTcpMode::AnswerViaTcp },
        },
        expected: Expected {
            udp1_secs: 30.0,
            udp2_secs: 90.0,
            udp3_secs: 90.0,
            tcp1_mins: 45.0,
            max_bindings: 300,
        },
    },
    DeviceProfile {
        tag: "ls1",
        provenance: &Provenance { vendor: "Linksys", model: "BEFSR41c2", firmware: "1.45.11" },
        policy: GatewayPolicy {
            udp_timeout_solitary: Duration::from_secs(691),
            udp_timeout_inbound: Duration::from_millis(277780),
            udp_timeout_bidirectional: Duration::from_secs(691),
            udp_service_overrides: &[],
            timer_granularity: Duration::from_secs(1),
            tcp_timeout: Duration::from_secs(1800),
            max_bindings: 32,
            port_assignment: PortAssignment::Sequential,
            filtering: EndpointScope::AddressAndPortDependent,
            mapping: EndpointScope::AddressAndPortDependent,
            hairpinning: false,
            icmp: IcmpPolicy {
                tcp_kinds: IcmpKindSet::NONE
                    .with(IcmpErrorKind::FragNeeded)
                    .with(IcmpErrorKind::TtlExceeded)
                    .with(IcmpErrorKind::HostUnreachable)
                    .with(IcmpErrorKind::NetUnreachable)
                    .with(IcmpErrorKind::PortUnreachable),
                udp_kinds: IcmpKindSet::NONE
                    .with(IcmpErrorKind::TtlExceeded)
                    .with(IcmpErrorKind::HostUnreachable)
                    .with(IcmpErrorKind::NetUnreachable)
                    .with(IcmpErrorKind::PortUnreachable),
                icmp_query_host_unreach: true,
                rewrite_embedded: true,
                fix_embedded_ip_checksum: false,
                fix_embedded_l4_checksum: true,
                tcp_errors_as_rst: false,
            },
            unknown_proto: UnknownProtoPolicy::PassThrough,
            binding_setup_cost: Duration::from_micros(400),
            forwarding: ForwardingModel {
                up_bps: 6500000,
                down_bps: 9000000,
                aggregate_bps: 10000000,
                buffer_up: 96 * 1024,
                buffer_down: 96 * 1024,
                per_packet_overhead: Duration::from_micros(20),
            },
            decrement_ttl: true,
            honor_record_route: false,
            dns_proxy: DnsProxyPolicy { udp: true, tcp: DnsTcpMode::Refuse },
        },
        expected: Expected {
            udp1_secs: 691.0,
            udp2_secs: 277.78,
            udp3_secs: 691.0,
            tcp1_mins: 30.0,
            max_bindings: 32,
        },
    },
    DeviceProfile {
        tag: "ls2",
        provenance: &Provenance { vendor: "Linksys", model: "WR54G", firmware: "v7.00.1" },
        policy: GatewayPolicy {
            udp_timeout_solitary: Duration::from_secs(90),
            udp_timeout_inbound: Duration::from_secs(95),
            udp_timeout_bidirectional: Duration::from_secs(110),
            udp_service_overrides: &[],
            timer_granularity: Duration::from_secs(1),
            tcp_timeout: Duration::from_secs(1200),
            max_bindings: 132,
            port_assignment: PortAssignment::Preserve { reuse_expired: false },
            filtering: EndpointScope::AddressAndPortDependent,
            mapping: EndpointScope::EndpointIndependent,
            hairpinning: false,
            icmp: IcmpPolicy {
                tcp_kinds: IcmpKindSet::NONE,
                udp_kinds: IcmpKindSet::ALL,
                icmp_query_host_unreach: false,
                rewrite_embedded: false,
                fix_embedded_ip_checksum: true,
                fix_embedded_l4_checksum: false,
                tcp_errors_as_rst: true,
            },
            unknown_proto: UnknownProtoPolicy::Drop,
            binding_setup_cost: Duration::from_micros(60),
            forwarding: ForwardingModel {
                up_bps: 64000000,
                down_bps: 66000000,
                aggregate_bps: 72000000,
                buffer_up: 80 * 1024,
                buffer_down: 80 * 1024,
                per_packet_overhead: Duration::from_micros(20),
            },
            decrement_ttl: true,
            honor_record_route: false,
            dns_proxy: DnsProxyPolicy { udp: true, tcp: DnsTcpMode::Refuse },
        },
        expected: Expected {
            udp1_secs: 90.0,
            udp2_secs: 95.0,
            udp3_secs: 110.0,
            tcp1_mins: 20.0,
            max_bindings: 132,
        },
    },
    DeviceProfile {
        tag: "ls3",
        provenance: &Provenance { vendor: "Linksys", model: "WRT54GL v1.1", firmware: "v4.30.7" },
        policy: GatewayPolicy {
            udp_timeout_solitary: Duration::from_secs(75),
            udp_timeout_inbound: Duration::from_secs(180),
            udp_timeout_bidirectional: Duration::from_secs(182),
            udp_service_overrides: &[],
            timer_granularity: Duration::from_secs(1),
            tcp_timeout: Duration::from_secs(604800),
            max_bindings: 112,
            port_assignment: PortAssignment::Preserve { reuse_expired: true },
            filtering: EndpointScope::AddressAndPortDependent,
            mapping: EndpointScope::EndpointIndependent,
            hairpinning: false,
            icmp: IcmpPolicy {
                tcp_kinds: IcmpKindSet::NONE
                    .with(IcmpErrorKind::ReassemblyTimeExceeded)
                    .with(IcmpErrorKind::FragNeeded)
                    .with(IcmpErrorKind::ParamProblem)
                    .with(IcmpErrorKind::SourceRouteFailed)
                    .with(IcmpErrorKind::TtlExceeded)
                    .with(IcmpErrorKind::HostUnreachable)
                    .with(IcmpErrorKind::NetUnreachable)
                    .with(IcmpErrorKind::PortUnreachable)
                    .with(IcmpErrorKind::ProtoUnreachable),
                udp_kinds: IcmpKindSet::ALL,
                icmp_query_host_unreach: true,
                rewrite_embedded: true,
                fix_embedded_ip_checksum: true,
                fix_embedded_l4_checksum: true,
                tcp_errors_as_rst: false,
            },
            unknown_proto: UnknownProtoPolicy::IpRewrite { allow_inbound: true },
            binding_setup_cost: Duration::from_micros(60),
            forwarding: ForwardingModel {
                up_bps: 60000000,
                down_bps: 62000000,
                aggregate_bps: 68000000,
                buffer_up: 64 * 1024,
                buffer_down: 64 * 1024,
                per_packet_overhead: Duration::from_micros(20),
            },
            decrement_ttl: true,
            honor_record_route: false,
            dns_proxy: DnsProxyPolicy { udp: true, tcp: DnsTcpMode::AcceptNoAnswer },
        },
        expected: Expected {
            udp1_secs: 75.0,
            udp2_secs: 180.0,
            udp3_secs: 182.0,
            tcp1_mins: 1440.0,
            max_bindings: 112,
        },
    },
    DeviceProfile {
        tag: "ls5",
        provenance: &Provenance { vendor: "Linksys", model: "WRT54GL-EU", firmware: "v4.30.7" },
        policy: GatewayPolicy {
            udp_timeout_solitary: Duration::from_secs(75),
            udp_timeout_inbound: Duration::from_secs(180),
            udp_timeout_bidirectional: Duration::from_secs(182),
            udp_service_overrides: &[],
            timer_granularity: Duration::from_secs(1),
            tcp_timeout: Duration::from_secs(604800),
            max_bindings: 80,
            port_assignment: PortAssignment::Preserve { reuse_expired: true },
            filtering: EndpointScope::AddressAndPortDependent,
            mapping: EndpointScope::EndpointIndependent,
            hairpinning: false,
            icmp: IcmpPolicy {
                tcp_kinds: IcmpKindSet::NONE
                    .with(IcmpErrorKind::ReassemblyTimeExceeded)
                    .with(IcmpErrorKind::FragNeeded)
                    .with(IcmpErrorKind::ParamProblem)
                    .with(IcmpErrorKind::SourceRouteFailed)
                    .with(IcmpErrorKind::TtlExceeded)
                    .with(IcmpErrorKind::HostUnreachable)
                    .with(IcmpErrorKind::NetUnreachable)
                    .with(IcmpErrorKind::PortUnreachable)
                    .with(IcmpErrorKind::ProtoUnreachable),
                udp_kinds: IcmpKindSet::ALL,
                icmp_query_host_unreach: true,
                rewrite_embedded: true,
                fix_embedded_ip_checksum: true,
                fix_embedded_l4_checksum: true,
                tcp_errors_as_rst: false,
            },
            unknown_proto: UnknownProtoPolicy::IpRewrite { allow_inbound: true },
            binding_setup_cost: Duration::from_micros(60),
            forwarding: ForwardingModel {
                up_bps: 60000000,
                down_bps: 62000000,
                aggregate_bps: 68000000,
                buffer_up: 64 * 1024,
                buffer_down: 64 * 1024,
                per_packet_overhead: Duration::from_micros(20),
            },
            decrement_ttl: true,
            honor_record_route: false,
            dns_proxy: DnsProxyPolicy { udp: true, tcp: DnsTcpMode::AcceptNoAnswer },
        },
        expected: Expected {
            udp1_secs: 75.0,
            udp2_secs: 180.0,
            udp3_secs: 182.0,
            tcp1_mins: 1440.0,
            max_bindings: 80,
        },
    },
    DeviceProfile {
        tag: "ng1",
        provenance: &Provenance { vendor: "Netgear", model: "RP614 v4", firmware: "V1.0.2_06.29" },
        policy: GatewayPolicy {
            udp_timeout_solitary: Duration::from_secs(250),
            udp_timeout_inbound: Duration::from_secs(274),
            udp_timeout_bidirectional: Duration::from_secs(274),
            udp_service_overrides: &[],
            timer_granularity: Duration::from_secs(1),
            tcp_timeout: Duration::from_secs(604800),
            max_bindings: 1024,
            port_assignment: PortAssignment::Preserve { reuse_expired: true },
            filtering: EndpointScope::AddressAndPortDependent,
            mapping: EndpointScope::EndpointIndependent,
            hairpinning: false,
            icmp: IcmpPolicy {
                tcp_kinds: IcmpKindSet::NONE
                    .with(IcmpErrorKind::ReassemblyTimeExceeded)
                    .with(IcmpErrorKind::FragNeeded)
                    .with(IcmpErrorKind::ParamProblem)
                    .with(IcmpErrorKind::SourceRouteFailed)
                    .with(IcmpErrorKind::TtlExceeded)
                    .with(IcmpErrorKind::HostUnreachable)
                    .with(IcmpErrorKind::NetUnreachable)
                    .with(IcmpErrorKind::PortUnreachable)
                    .with(IcmpErrorKind::ProtoUnreachable),
                udp_kinds: IcmpKindSet::NONE
                    .with(IcmpErrorKind::ReassemblyTimeExceeded)
                    .with(IcmpErrorKind::FragNeeded)
                    .with(IcmpErrorKind::ParamProblem)
                    .with(IcmpErrorKind::SourceRouteFailed)
                    .with(IcmpErrorKind::TtlExceeded)
                    .with(IcmpErrorKind::HostUnreachable)
                    .with(IcmpErrorKind::NetUnreachable)
                    .with(IcmpErrorKind::PortUnreachable)
                    .with(IcmpErrorKind::ProtoUnreachable),
                icmp_query_host_unreach: true,
                rewrite_embedded: false,
                fix_embedded_ip_checksum: true,
                fix_embedded_l4_checksum: false,
                tcp_errors_as_rst: false,
            },
            unknown_proto: UnknownProtoPolicy::IpRewrite { allow_inbound: false },
            binding_setup_cost: Duration::from_micros(25),
            forwarding: ForwardingModel {
                up_bps: 1000000000,
                down_bps: 1000000000,
                aggregate_bps: u64::MAX,
                buffer_up: 32 * 1024,
                buffer_down: 32 * 1024,
                per_packet_overhead: Duration::from_micros(20),
            },
            decrement_ttl: true,
            honor_record_route: false,
            dns_proxy: DnsProxyPolicy { udp: true, tcp: DnsTcpMode::Refuse },
        },
        expected: Expected {
            udp1_secs: 250.0,
            udp2_secs: 274.0,
            udp3_secs: 274.0,
            tcp1_mins: 1440.0,
            max_bindings: 1024,
        },
    },
    DeviceProfile {
        tag: "ng2",
        provenance: &Provenance {
            vendor: "Netgear",
            model: "WGR614 v7",
            firmware: "(1.0.13_1.0.13)",
        },
        policy: GatewayPolicy {
            udp_timeout_solitary: Duration::from_secs(45),
            udp_timeout_inbound: Duration::from_secs(55),
            udp_timeout_bidirectional: Duration::from_secs(60),
            udp_service_overrides: &[],
            timer_granularity: Duration::from_secs(1),
            tcp_timeout: Duration::from_secs(2400),
            max_bindings: 64,
            port_assignment: PortAssignment::Preserve { reuse_expired: true },
            filtering: EndpointScope::AddressAndPortDependent,
            mapping: EndpointScope::EndpointIndependent,
            hairpinning: false,
            icmp: IcmpPolicy {
                tcp_kinds: IcmpKindSet::NONE
                    .with(IcmpErrorKind::ReassemblyTimeExceeded)
                    .with(IcmpErrorKind::FragNeeded)
                    .with(IcmpErrorKind::ParamProblem)
                    .with(IcmpErrorKind::SourceRouteFailed)
                    .with(IcmpErrorKind::TtlExceeded)
                    .with(IcmpErrorKind::HostUnreachable)
                    .with(IcmpErrorKind::NetUnreachable)
                    .with(IcmpErrorKind::PortUnreachable)
                    .with(IcmpErrorKind::ProtoUnreachable),
                udp_kinds: IcmpKindSet::NONE
                    .with(IcmpErrorKind::ReassemblyTimeExceeded)
                    .with(IcmpErrorKind::FragNeeded)
                    .with(IcmpErrorKind::ParamProblem)
                    .with(IcmpErrorKind::SourceRouteFailed)
                    .with(IcmpErrorKind::TtlExceeded)
                    .with(IcmpErrorKind::HostUnreachable)
                    .with(IcmpErrorKind::NetUnreachable)
                    .with(IcmpErrorKind::PortUnreachable)
                    .with(IcmpErrorKind::ProtoUnreachable),
                icmp_query_host_unreach: true,
                rewrite_embedded: false,
                fix_embedded_ip_checksum: true,
                fix_embedded_l4_checksum: false,
                tcp_errors_as_rst: false,
            },
            unknown_proto: UnknownProtoPolicy::IpRewrite { allow_inbound: false },
            binding_setup_cost: Duration::from_micros(60),
            forwarding: ForwardingModel {
                up_bps: 66000000,
                down_bps: 68000000,
                aggregate_bps: 74000000,
                buffer_up: 72 * 1024,
                buffer_down: 72 * 1024,
                per_packet_overhead: Duration::from_micros(20),
            },
            decrement_ttl: true,
            honor_record_route: false,
            dns_proxy: DnsProxyPolicy { udp: true, tcp: DnsTcpMode::Refuse },
        },
        expected: Expected {
            udp1_secs: 45.0,
            udp2_secs: 55.0,
            udp3_secs: 60.0,
            tcp1_mins: 40.0,
            max_bindings: 64,
        },
    },
    DeviceProfile {
        tag: "ng3",
        provenance: &Provenance {
            vendor: "Netgear",
            model: "WGR614 v9",
            firmware: "V1.2.6_18.0.17",
        },
        policy: GatewayPolicy {
            udp_timeout_solitary: Duration::from_secs(280),
            udp_timeout_inbound: Duration::from_secs(160),
            udp_timeout_bidirectional: Duration::from_secs(280),
            udp_service_overrides: &[],
            timer_granularity: Duration::from_secs(1),
            tcp_timeout: Duration::from_secs(3000),
            max_bindings: 96,
            port_assignment: PortAssignment::Preserve { reuse_expired: true },
            filtering: EndpointScope::AddressAndPortDependent,
            mapping: EndpointScope::EndpointIndependent,
            hairpinning: false,
            icmp: IcmpPolicy {
                tcp_kinds: IcmpKindSet::NONE
                    .with(IcmpErrorKind::ReassemblyTimeExceeded)
                    .with(IcmpErrorKind::FragNeeded)
                    .with(IcmpErrorKind::ParamProblem)
                    .with(IcmpErrorKind::SourceRouteFailed)
                    .with(IcmpErrorKind::TtlExceeded)
                    .with(IcmpErrorKind::HostUnreachable)
                    .with(IcmpErrorKind::NetUnreachable)
                    .with(IcmpErrorKind::PortUnreachable)
                    .with(IcmpErrorKind::ProtoUnreachable),
                udp_kinds: IcmpKindSet::ALL,
                icmp_query_host_unreach: true,
                rewrite_embedded: false,
                fix_embedded_ip_checksum: true,
                fix_embedded_l4_checksum: false,
                tcp_errors_as_rst: false,
            },
            unknown_proto: UnknownProtoPolicy::Drop,
            binding_setup_cost: Duration::from_micros(60),
            forwarding: ForwardingModel {
                up_bps: 56000000,
                down_bps: 58000000,
                aggregate_bps: 64000000,
                buffer_up: 80 * 1024,
                buffer_down: 80 * 1024,
                per_packet_overhead: Duration::from_micros(20),
            },
            decrement_ttl: true,
            honor_record_route: false,
            dns_proxy: DnsProxyPolicy { udp: true, tcp: DnsTcpMode::Refuse },
        },
        expected: Expected {
            udp1_secs: 280.0,
            udp2_secs: 160.0,
            udp3_secs: 280.0,
            tcp1_mins: 50.0,
            max_bindings: 96,
        },
    },
    DeviceProfile {
        tag: "ng4",
        provenance: &Provenance {
            vendor: "Netgear",
            model: "WNR2000-100PES",
            firmware: "v.1.0.0.34_29.0.45",
        },
        policy: GatewayPolicy {
            udp_timeout_solitary: Duration::from_secs(300),
            udp_timeout_inbound: Duration::from_secs(160),
            udp_timeout_bidirectional: Duration::from_secs(300),
            udp_service_overrides: &[],
            timer_granularity: Duration::from_secs(1),
            tcp_timeout: Duration::from_secs(3000),
            max_bindings: 260,
            port_assignment: PortAssignment::Preserve { reuse_expired: true },
            filtering: EndpointScope::AddressAndPortDependent,
            mapping: EndpointScope::EndpointIndependent,
            hairpinning: false,
            icmp: IcmpPolicy {
                tcp_kinds: IcmpKindSet::NONE
                    .with(IcmpErrorKind::ReassemblyTimeExceeded)
                    .with(IcmpErrorKind::FragNeeded)
                    .with(IcmpErrorKind::ParamProblem)
                    .with(IcmpErrorKind::SourceRouteFailed)
                    .with(IcmpErrorKind::TtlExceeded)
                    .with(IcmpErrorKind::HostUnreachable)
                    .with(IcmpErrorKind::NetUnreachable)
                    .with(IcmpErrorKind::PortUnreachable)
                    .with(IcmpErrorKind::ProtoUnreachable),
                udp_kinds: IcmpKindSet::ALL,
                icmp_query_host_unreach: true,
                rewrite_embedded: false,
                fix_embedded_ip_checksum: true,
                fix_embedded_l4_checksum: false,
                tcp_errors_as_rst: false,
            },
            unknown_proto: UnknownProtoPolicy::Drop,
            binding_setup_cost: Duration::from_micros(60),
            forwarding: ForwardingModel {
                up_bps: 52000000,
                down_bps: 54000000,
                aggregate_bps: 60000000,
                buffer_up: 96 * 1024,
                buffer_down: 96 * 1024,
                per_packet_overhead: Duration::from_micros(20),
            },
            decrement_ttl: true,
            honor_record_route: false,
            dns_proxy: DnsProxyPolicy { udp: true, tcp: DnsTcpMode::Refuse },
        },
        expected: Expected {
            udp1_secs: 300.0,
            udp2_secs: 160.0,
            udp3_secs: 300.0,
            tcp1_mins: 50.0,
            max_bindings: 260,
        },
    },
    DeviceProfile {
        tag: "ng5",
        provenance: &Provenance { vendor: "Netgear", model: "WGR614 v4", firmware: "V5.0_07" },
        policy: GatewayPolicy {
            udp_timeout_solitary: Duration::from_millis(496500),
            udp_timeout_inbound: Duration::from_millis(167500),
            udp_timeout_bidirectional: Duration::from_millis(497500),
            udp_service_overrides: &[],
            timer_granularity: Duration::from_secs(10),
            tcp_timeout: Duration::from_secs(300),
            max_bindings: 120,
            port_assignment: PortAssignment::Preserve { reuse_expired: false },
            filtering: EndpointScope::AddressAndPortDependent,
            mapping: EndpointScope::EndpointIndependent,
            hairpinning: false,
            icmp: IcmpPolicy {
                tcp_kinds: IcmpKindSet::NONE
                    .with(IcmpErrorKind::TtlExceeded)
                    .with(IcmpErrorKind::HostUnreachable)
                    .with(IcmpErrorKind::PortUnreachable),
                udp_kinds: IcmpKindSet::NONE
                    .with(IcmpErrorKind::TtlExceeded)
                    .with(IcmpErrorKind::HostUnreachable)
                    .with(IcmpErrorKind::PortUnreachable),
                icmp_query_host_unreach: true,
                rewrite_embedded: false,
                fix_embedded_ip_checksum: true,
                fix_embedded_l4_checksum: false,
                tcp_errors_as_rst: false,
            },
            unknown_proto: UnknownProtoPolicy::Drop,
            binding_setup_cost: Duration::from_micros(60),
            forwarding: ForwardingModel {
                up_bps: 54000000,
                down_bps: 56000000,
                aggregate_bps: 62000000,
                buffer_up: 72 * 1024,
                buffer_down: 72 * 1024,
                per_packet_overhead: Duration::from_micros(20),
            },
            decrement_ttl: true,
            honor_record_route: false,
            dns_proxy: DnsProxyPolicy { udp: true, tcp: DnsTcpMode::Refuse },
        },
        expected: Expected {
            udp1_secs: 500.0,
            udp2_secs: 170.0,
            udp3_secs: 500.0,
            tcp1_mins: 5.0,
            max_bindings: 120,
        },
    },
    DeviceProfile {
        tag: "nw1",
        provenance: &Provenance { vendor: "Netwjork", model: "54M", firmware: "Ver 1.2.6" },
        policy: GatewayPolicy {
            udp_timeout_solitary: Duration::from_secs(95),
            udp_timeout_inbound: Duration::from_secs(110),
            udp_timeout_bidirectional: Duration::from_secs(130),
            udp_service_overrides: &[],
            timer_granularity: Duration::from_secs(1),
            tcp_timeout: Duration::from_secs(2100),
            max_bindings: 128,
            port_assignment: PortAssignment::Sequential,
            filtering: EndpointScope::AddressAndPortDependent,
            mapping: EndpointScope::AddressAndPortDependent,
            hairpinning: false,
            icmp: IcmpPolicy {
                tcp_kinds: IcmpKindSet::NONE,
                udp_kinds: IcmpKindSet::NONE,
                icmp_query_host_unreach: false,
                rewrite_embedded: true,
                fix_embedded_ip_checksum: true,
                fix_embedded_l4_checksum: true,
                tcp_errors_as_rst: false,
            },
            unknown_proto: UnknownProtoPolicy::Drop,
            binding_setup_cost: Duration::from_micros(60),
            forwarding: ForwardingModel {
                up_bps: 58000000,
                down_bps: 60000000,
                aggregate_bps: 66000000,
                buffer_up: 72 * 1024,
                buffer_down: 72 * 1024,
                per_packet_overhead: Duration::from_micros(20),
            },
            decrement_ttl: true,
            honor_record_route: false,
            dns_proxy: DnsProxyPolicy { udp: true, tcp: DnsTcpMode::Refuse },
        },
        expected: Expected {
            udp1_secs: 95.0,
            udp2_secs: 110.0,
            udp3_secs: 130.0,
            tcp1_mins: 35.0,
            max_bindings: 128,
        },
    },
    DeviceProfile {
        tag: "owrt",
        provenance: &Provenance { vendor: "Linksys", model: "WRT54G", firmware: "OpenWRT RC5" },
        policy: GatewayPolicy {
            udp_timeout_solitary: Duration::from_secs(30),
            udp_timeout_inbound: Duration::from_secs(180),
            udp_timeout_bidirectional: Duration::from_secs(180),
            udp_service_overrides: &[],
            timer_granularity: Duration::from_secs(1),
            tcp_timeout: Duration::from_secs(72000),
            max_bindings: 167,
            port_assignment: PortAssignment::Preserve { reuse_expired: true },
            filtering: EndpointScope::EndpointIndependent,
            mapping: EndpointScope::EndpointIndependent,
            hairpinning: true,
            icmp: IcmpPolicy {
                tcp_kinds: IcmpKindSet::ALL,
                udp_kinds: IcmpKindSet::ALL,
                icmp_query_host_unreach: true,
                rewrite_embedded: true,
                fix_embedded_ip_checksum: true,
                fix_embedded_l4_checksum: true,
                tcp_errors_as_rst: false,
            },
            unknown_proto: UnknownProtoPolicy::IpRewrite { allow_inbound: true },
            binding_setup_cost: Duration::from_micros(150),
            forwarding: ForwardingModel {
                up_bps: 32000000,
                down_bps: 34000000,
                aggregate_bps: 38000000,
                buffer_up: 96 * 1024,
                buffer_down: 96 * 1024,
                per_packet_overhead: Duration::from_micros(20),
            },
            decrement_ttl: true,
            honor_record_route: true,
            dns_proxy: DnsProxyPolicy { udp: true, tcp: DnsTcpMode::AnswerViaTcp },
        },
        expected: Expected {
            udp1_secs: 30.0,
            udp2_secs: 180.0,
            udp3_secs: 180.0,
            tcp1_mins: 1200.0,
            max_bindings: 167,
        },
    },
    DeviceProfile {
        tag: "smc",
        provenance: &Provenance { vendor: "SMC", model: "Barricade SMC7004VBR", firmware: "R1.07" },
        policy: GatewayPolicy {
            udp_timeout_solitary: Duration::from_secs(225),
            udp_timeout_inbound: Duration::from_secs(277),
            udp_timeout_bidirectional: Duration::from_secs(277),
            udp_service_overrides: &[],
            timer_granularity: Duration::from_secs(1),
            tcp_timeout: Duration::from_secs(3660),
            max_bindings: 16,
            port_assignment: PortAssignment::Sequential,
            filtering: EndpointScope::AddressAndPortDependent,
            mapping: EndpointScope::AddressAndPortDependent,
            hairpinning: false,
            icmp: IcmpPolicy {
                tcp_kinds: IcmpKindSet::NONE
                    .with(IcmpErrorKind::TtlExceeded)
                    .with(IcmpErrorKind::PortUnreachable),
                udp_kinds: IcmpKindSet::NONE
                    .with(IcmpErrorKind::TtlExceeded)
                    .with(IcmpErrorKind::PortUnreachable),
                icmp_query_host_unreach: false,
                rewrite_embedded: false,
                fix_embedded_ip_checksum: true,
                fix_embedded_l4_checksum: false,
                tcp_errors_as_rst: false,
            },
            unknown_proto: UnknownProtoPolicy::Drop,
            binding_setup_cost: Duration::from_micros(150),
            forwarding: ForwardingModel {
                up_bps: 41000000,
                down_bps: 27000000,
                aggregate_bps: 45000000,
                buffer_up: 96 * 1024,
                buffer_down: 96 * 1024,
                per_packet_overhead: Duration::from_micros(20),
            },
            decrement_ttl: false,
            honor_record_route: false,
            dns_proxy: DnsProxyPolicy { udp: true, tcp: DnsTcpMode::Refuse },
        },
        expected: Expected {
            udp1_secs: 225.0,
            udp2_secs: 277.0,
            udp3_secs: 277.0,
            tcp1_mins: 61.0,
            max_bindings: 16,
        },
    },
    DeviceProfile {
        tag: "te",
        provenance: &Provenance { vendor: "Telewell", model: "TW-3G", firmware: "V7.04b3" },
        policy: GatewayPolicy {
            udp_timeout_solitary: Duration::from_secs(30),
            udp_timeout_inbound: Duration::from_secs(180),
            udp_timeout_bidirectional: Duration::from_secs(180),
            udp_service_overrides: &[],
            timer_granularity: Duration::from_secs(1),
            tcp_timeout: Duration::from_secs(604800),
            max_bindings: 135,
            port_assignment: PortAssignment::Preserve { reuse_expired: true },
            filtering: EndpointScope::AddressAndPortDependent,
            mapping: EndpointScope::EndpointIndependent,
            hairpinning: false,
            icmp: IcmpPolicy {
                tcp_kinds: IcmpKindSet::NONE
                    .with(IcmpErrorKind::ReassemblyTimeExceeded)
                    .with(IcmpErrorKind::FragNeeded)
                    .with(IcmpErrorKind::ParamProblem)
                    .with(IcmpErrorKind::SourceRouteFailed)
                    .with(IcmpErrorKind::TtlExceeded)
                    .with(IcmpErrorKind::HostUnreachable)
                    .with(IcmpErrorKind::NetUnreachable)
                    .with(IcmpErrorKind::PortUnreachable)
                    .with(IcmpErrorKind::ProtoUnreachable),
                udp_kinds: IcmpKindSet::ALL,
                icmp_query_host_unreach: true,
                rewrite_embedded: false,
                fix_embedded_ip_checksum: true,
                fix_embedded_l4_checksum: false,
                tcp_errors_as_rst: false,
            },
            unknown_proto: UnknownProtoPolicy::Drop,
            binding_setup_cost: Duration::from_micros(150),
            forwarding: ForwardingModel {
                up_bps: 28000000,
                down_bps: 30000000,
                aggregate_bps: 33000000,
                buffer_up: 128 * 1024,
                buffer_down: 128 * 1024,
                per_packet_overhead: Duration::from_micros(20),
            },
            decrement_ttl: true,
            honor_record_route: false,
            dns_proxy: DnsProxyPolicy { udp: true, tcp: DnsTcpMode::Refuse },
        },
        expected: Expected {
            udp1_secs: 30.0,
            udp2_secs: 180.0,
            udp3_secs: 180.0,
            tcp1_mins: 1440.0,
            max_bindings: 135,
        },
    },
    DeviceProfile {
        tag: "to",
        provenance: &Provenance {
            vendor: "Linksys",
            model: "WRT54GL v1.1",
            firmware: "tomato 1.27",
        },
        policy: GatewayPolicy {
            udp_timeout_solitary: Duration::from_secs(30),
            udp_timeout_inbound: Duration::from_secs(180),
            udp_timeout_bidirectional: Duration::from_secs(182),
            udp_service_overrides: &[],
            timer_granularity: Duration::from_secs(1),
            tcp_timeout: Duration::from_secs(19800),
            max_bindings: 100,
            port_assignment: PortAssignment::Preserve { reuse_expired: true },
            filtering: EndpointScope::EndpointIndependent,
            mapping: EndpointScope::EndpointIndependent,
            hairpinning: true,
            icmp: IcmpPolicy {
                tcp_kinds: IcmpKindSet::ALL,
                udp_kinds: IcmpKindSet::ALL,
                icmp_query_host_unreach: true,
                rewrite_embedded: true,
                fix_embedded_ip_checksum: true,
                fix_embedded_l4_checksum: true,
                tcp_errors_as_rst: false,
            },
            unknown_proto: UnknownProtoPolicy::IpRewrite { allow_inbound: true },
            binding_setup_cost: Duration::from_micros(60),
            forwarding: ForwardingModel {
                up_bps: 62000000,
                down_bps: 64000000,
                aggregate_bps: 70000000,
                buffer_up: 72 * 1024,
                buffer_down: 72 * 1024,
                per_packet_overhead: Duration::from_micros(20),
            },
            decrement_ttl: true,
            honor_record_route: false,
            dns_proxy: DnsProxyPolicy { udp: true, tcp: DnsTcpMode::AnswerViaTcp },
        },
        expected: Expected {
            udp1_secs: 30.0,
            udp2_secs: 180.0,
            udp3_secs: 182.0,
            tcp1_mins: 330.0,
            max_bindings: 100,
        },
    },
    DeviceProfile {
        tag: "we",
        provenance: &Provenance {
            vendor: "Webee",
            model: "Wireless N Router",
            firmware: "e2.0.9D",
        },
        policy: GatewayPolicy {
            udp_timeout_solitary: Duration::from_millis(28500),
            udp_timeout_inbound: Duration::from_millis(67500),
            udp_timeout_bidirectional: Duration::from_millis(72500),
            udp_service_overrides: &[],
            timer_granularity: Duration::from_secs(30),
            tcp_timeout: Duration::from_secs(1500),
            max_bindings: 700,
            port_assignment: PortAssignment::Preserve { reuse_expired: true },
            filtering: EndpointScope::AddressDependent,
            mapping: EndpointScope::EndpointIndependent,
            hairpinning: false,
            icmp: IcmpPolicy {
                tcp_kinds: IcmpKindSet::ALL,
                udp_kinds: IcmpKindSet::ALL,
                icmp_query_host_unreach: true,
                rewrite_embedded: true,
                fix_embedded_ip_checksum: true,
                fix_embedded_l4_checksum: true,
                tcp_errors_as_rst: false,
            },
            unknown_proto: UnknownProtoPolicy::IpRewrite { allow_inbound: true },
            binding_setup_cost: Duration::from_micros(25),
            forwarding: ForwardingModel {
                up_bps: 1000000000,
                down_bps: 1000000000,
                aggregate_bps: 150000000,
                buffer_up: 64 * 1024,
                buffer_down: 64 * 1024,
                per_packet_overhead: Duration::from_micros(20),
            },
            decrement_ttl: true,
            honor_record_route: false,
            dns_proxy: DnsProxyPolicy { udp: true, tcp: DnsTcpMode::AnswerViaTcp },
        },
        expected: Expected {
            udp1_secs: 40.0,
            udp2_secs: 70.0,
            udp3_secs: 75.0,
            tcp1_mins: 25.0,
            max_bindings: 700,
        },
    },
    DeviceProfile {
        tag: "zy1",
        provenance: &Provenance { vendor: "ZyXel", model: "P-335U", firmware: "V3.60(AMB.2)C0" },
        policy: GatewayPolicy {
            udp_timeout_solitary: Duration::from_secs(342),
            udp_timeout_inbound: Duration::from_secs(277),
            udp_timeout_bidirectional: Duration::from_millis(443960),
            udp_service_overrides: &[],
            timer_granularity: Duration::from_secs(1),
            tcp_timeout: Duration::from_secs(11082),
            max_bindings: 240,
            port_assignment: PortAssignment::Sequential,
            filtering: EndpointScope::AddressAndPortDependent,
            mapping: EndpointScope::AddressAndPortDependent,
            hairpinning: false,
            icmp: IcmpPolicy {
                tcp_kinds: IcmpKindSet::NONE
                    .with(IcmpErrorKind::ReassemblyTimeExceeded)
                    .with(IcmpErrorKind::FragNeeded)
                    .with(IcmpErrorKind::ParamProblem)
                    .with(IcmpErrorKind::SourceRouteFailed)
                    .with(IcmpErrorKind::TtlExceeded)
                    .with(IcmpErrorKind::HostUnreachable)
                    .with(IcmpErrorKind::NetUnreachable)
                    .with(IcmpErrorKind::PortUnreachable)
                    .with(IcmpErrorKind::ProtoUnreachable),
                udp_kinds: IcmpKindSet::NONE
                    .with(IcmpErrorKind::ReassemblyTimeExceeded)
                    .with(IcmpErrorKind::FragNeeded)
                    .with(IcmpErrorKind::ParamProblem)
                    .with(IcmpErrorKind::SourceRouteFailed)
                    .with(IcmpErrorKind::TtlExceeded)
                    .with(IcmpErrorKind::HostUnreachable)
                    .with(IcmpErrorKind::NetUnreachable)
                    .with(IcmpErrorKind::PortUnreachable)
                    .with(IcmpErrorKind::ProtoUnreachable),
                icmp_query_host_unreach: true,
                rewrite_embedded: true,
                fix_embedded_ip_checksum: false,
                fix_embedded_l4_checksum: true,
                tcp_errors_as_rst: false,
            },
            unknown_proto: UnknownProtoPolicy::Drop,
            binding_setup_cost: Duration::from_micros(60),
            forwarding: ForwardingModel {
                up_bps: 48000000,
                down_bps: 50000000,
                aggregate_bps: 55000000,
                buffer_up: 80 * 1024,
                buffer_down: 80 * 1024,
                per_packet_overhead: Duration::from_micros(20),
            },
            decrement_ttl: true,
            honor_record_route: false,
            dns_proxy: DnsProxyPolicy { udp: true, tcp: DnsTcpMode::Refuse },
        },
        expected: Expected {
            udp1_secs: 342.0,
            udp2_secs: 277.0,
            udp3_secs: 443.96,
            tcp1_mins: 184.7,
            max_bindings: 240,
        },
    },
];
