//! The calibration of the 34 devices of Table 1, as `const` tables, and
//! the `const fn` that evaluates them into the registry.
//!
//! Values marked `stated` come directly from the paper (named device
//! values, population medians, means, minimums, counts). Where only a
//! plot's order is visible, values are reconstructed to rise along the
//! published x-axis order, so each figure's table lists its devices in
//! that order. The tests in `lib.rs` check the orders, the stated values,
//! the population statistics and the counts (see DESIGN.md §5).

use hgw_core::Duration;
use hgw_gateway::policy::*;
use hgw_gateway::IcmpErrorKind::{FragNeeded, HostUnreachable, NetUnreachable, SourceQuench};

use crate::profile::{DeviceProfile, Expected, Provenance};

/// Table 1: every device's identity, in the registry's order.
#[rustfmt::skip]
const TABLE1: [(&str, &Provenance); 34] = [
    ("al", &Provenance { vendor: "A-Link", model: "WNAP", firmware: "e2.0.9A" }),
    ("ap", &Provenance { vendor: "Apple", model: "Airport Express", firmware: "7.4.2" }),
    ("as1", &Provenance { vendor: "Asus", model: "RT-N15", firmware: "2.0.1.1" }),
    ("be1", &Provenance { vendor: "Belkin", model: "Wireless N Router", firmware: "F5D8236-4_WW_3.00.02" }),
    ("be2", &Provenance { vendor: "Belkin", model: "Enhanced N150", firmware: "F6D4230-4_WW_1.00.03" }),
    ("bu1", &Provenance { vendor: "Buffalo", model: "WZR-AGL300NH", firmware: "R1.06/B1.05" }),
    ("dl1", &Provenance { vendor: "D-Link", model: "DIR-300", firmware: "1.03" }),
    ("dl10", &Provenance { vendor: "D-Link", model: "DI-713P", firmware: "2.60 build 6a" }),
    ("dl2", &Provenance { vendor: "D-Link", model: "DIR-300", firmware: "1.04" }),
    ("dl3", &Provenance { vendor: "D-Link", model: "DI-524up", firmware: "v1.06" }),
    ("dl4", &Provenance { vendor: "D-Link", model: "DI-524", firmware: "v2.0.4" }),
    ("dl5", &Provenance { vendor: "D-Link", model: "DIR-100", firmware: "v1.12" }),
    ("dl6", &Provenance { vendor: "D-Link", model: "DIR-600", firmware: "v2.01" }),
    ("dl7", &Provenance { vendor: "D-Link", model: "DIR-615", firmware: "v4.00" }),
    ("dl8", &Provenance { vendor: "D-Link", model: "DIR-635", firmware: "v2.33EU" }),
    ("dl9", &Provenance { vendor: "D-Link", model: "DI-604", firmware: "v3.09" }),
    ("ed", &Provenance { vendor: "Edimax", model: "6104WG", firmware: "2.63" }),
    ("je", &Provenance { vendor: "Jensen", model: "Air:Link 59300", firmware: "1.15" }),
    ("ls1", &Provenance { vendor: "Linksys", model: "BEFSR41c2", firmware: "1.45.11" }),
    ("ls2", &Provenance { vendor: "Linksys", model: "WR54G", firmware: "v7.00.1" }),
    ("ls3", &Provenance { vendor: "Linksys", model: "WRT54GL v1.1", firmware: "v4.30.7" }),
    ("ls5", &Provenance { vendor: "Linksys", model: "WRT54GL-EU", firmware: "v4.30.7" }),
    ("ng1", &Provenance { vendor: "Netgear", model: "RP614 v4", firmware: "V1.0.2_06.29" }),
    ("ng2", &Provenance { vendor: "Netgear", model: "WGR614 v7", firmware: "(1.0.13_1.0.13)" }),
    ("ng3", &Provenance { vendor: "Netgear", model: "WGR614 v9", firmware: "V1.2.6_18.0.17" }),
    ("ng4", &Provenance { vendor: "Netgear", model: "WNR2000-100PES", firmware: "v.1.0.0.34_29.0.45" }),
    ("ng5", &Provenance { vendor: "Netgear", model: "WGR614 v4", firmware: "V5.0_07" }),
    ("nw1", &Provenance { vendor: "Netwjork", model: "54M", firmware: "Ver 1.2.6" }),
    ("owrt", &Provenance { vendor: "Linksys", model: "WRT54G", firmware: "OpenWRT RC5" }),
    ("smc", &Provenance { vendor: "SMC", model: "Barricade SMC7004VBR", firmware: "R1.07" }),
    ("te", &Provenance { vendor: "Telewell", model: "TW-3G", firmware: "V7.04b3" }),
    ("to", &Provenance { vendor: "Linksys", model: "WRT54GL v1.1", firmware: "tomato 1.27" }),
    ("we", &Provenance { vendor: "Webee", model: "Wireless N Router", firmware: "e2.0.9D" }),
    ("zy1", &Provenance { vendor: "ZyXel", model: "P-335U", firmware: "V3.60(AMB.2)C0" }),
];

/// UDP-1 timeouts in seconds, in Figure 3's x order. Stated: the je…ed
/// 30 s cluster, ls1 = 691, be2 ≈ 450, population median 90.00 and mean
/// 160.41.
#[rustfmt::skip]
pub(crate) const UDP1: [(&str, f64); 34] = [
    ("je", 30.0), ("owrt", 30.0), ("te", 30.0), ("to", 30.0), ("ed", 30.0), // stated cluster
    ("al", 35.0), ("we", 40.0), ("ng2", 45.0), ("ap", 60.0), ("ls3", 75.0), ("ls5", 75.0),
    ("dl1", 80.0), ("dl2", 80.0), ("dl6", 85.0), ("dl7", 85.0), ("as1", 88.0),
    ("bu1", 90.0), ("ls2", 90.0), // median pair = 90.00
    ("nw1", 95.0), ("dl3", 100.0), ("dl5", 100.0),
    ("be1", 185.0), ("dl10", 203.0), ("dl4", 205.0), ("dl8", 215.0), ("smc", 225.0),
    ("dl9", 235.0), ("ng1", 250.0), ("ng3", 280.0), ("ng4", 300.0),
    ("zy1", 342.0), // tuned: pop mean 160.41
    ("be2", 450.0), ("ng5", 500.0), ("ls1", 691.0), // be2 stated ~450, ls1 stated 691
];

/// UDP-2 timeouts in seconds, in Figure 4's x order. Stated: minimum 54
/// (ap), 180 for ed/owrt/to/te, be2 ≈ 202, population median 180.00 and
/// mean 174.67.
#[rustfmt::skip]
pub(crate) const UDP2: [(&str, f64); 34] = [
    ("ap", 54.0), ("ng2", 55.0), ("we", 70.0), ("je", 90.0), ("ls2", 95.0), ("nw1", 110.0),
    ("be1", 120.0), ("dl3", 120.0), ("dl5", 120.0), ("dl10", 150.0), ("ng3", 160.0), ("ng4", 160.0),
    ("ng5", 170.0), ("as1", 175.0), ("bu1", 175.0),
    ("dl1", 180.0), ("dl2", 180.0), ("dl6", 180.0), ("dl7", 180.0),
    ("owrt", 180.0), ("te", 180.0), ("ed", 180.0), ("ls3", 180.0), ("ls5", 180.0), ("to", 180.0), // stated 180
    ("be2", 202.0), ("al", 203.0), ("dl4", 265.0), ("dl8", 268.0), ("dl9", 271.0), ("ng1", 274.0), // be2 stated ~202
    ("smc", 277.0), ("zy1", 277.0), ("ls1", 277.78), // tuned: pop mean 174.67
];

/// UDP-3 timeouts in seconds, in Figure 5's x order; `None` is a device
/// whose bidirectional timeout lengthens to its UDP-1 level. Stated:
/// median 181.00, mean 225.94; be1, dl10, ng3, ng4, be2 and ng5 lengthen
/// to their UDP-1 level; no device shortens against UDP-2.
#[rustfmt::skip]
pub(crate) const UDP3: [(&str, Option<f64>); 34] = [
    ("ng2", Some(60.0)), ("we", Some(75.0)), ("je", Some(90.0)), ("ls2", Some(110.0)),
    ("nw1", Some(130.0)), ("dl3", Some(145.0)), ("dl5", Some(145.0)),
    ("ap", Some(160.0)), ("as1", Some(175.0)), ("bu1", Some(175.0)),
    ("dl1", Some(180.0)), ("dl2", Some(180.0)), ("dl6", Some(180.0)), ("dl7", Some(180.0)),
    ("owrt", Some(180.0)), ("te", Some(180.0)), ("ed", Some(180.0)), // median pair 180/182
    ("ls3", Some(182.0)), ("ls5", Some(182.0)), ("to", Some(182.0)),
    ("be1", None), ("al", Some(203.0)), ("dl10", None),
    ("dl4", Some(265.0)), ("dl8", Some(268.0)), ("dl9", Some(271.0)), ("ng1", Some(274.0)),
    ("smc", Some(277.0)), ("ng3", None), ("ng4", None),
    ("zy1", Some(443.96)), // tuned: pop mean 225.94
    ("be2", None), ("ng5", None),
    ("ls1", None), // the long-timeout outlier keeps its 691 s and Figure 5's last place
];

/// Devices with coarse binding timers (the wide IQRs of Figure 4): timer
/// granularity in seconds, and the UDP-1 search bias in seconds. The bias
/// is empirical: the binary search's convergence phase within the expiry
/// grid is device-specific, so it was measured once per device and baked
/// in; the gated `results/fig3.txt` records the UDP-1 medians it yields.
#[rustfmt::skip]
const COARSE_TIMERS: [(&str, (u64, f64)); 4] = [
    ("we", (30, 11.5)), ("al", (30, 9.0)), ("je", (10, 3.0)), ("ng5", (10, 3.5)),
];

/// TCP-1 timeouts in minutes, in Figure 7's x order (log scale). dl10 is
/// absent from the printed order; it sits beside dl9 (a D-Link of the same
/// era). Stated: be1 = 239 s; the seven rightmost are still alive after
/// the 24 h cutoff (1440); population median 59.98 and mean 386.46,
/// counting cutoff devices as 1440.
#[rustfmt::skip]
pub(crate) const TCP1: [(&str, f64); 34] = [
    ("be1", 239.0 / 60.0), // stated 239 s
    ("ng5", 5.0), ("be2", 10.0), ("al", 15.0), ("ls2", 20.0), ("we", 25.0),
    ("ls1", 30.0), ("as1", 30.0), ("nw1", 35.0), ("ng2", 40.0), ("je", 45.0),
    ("ng3", 50.0), ("ng4", 50.0), ("dl3", 55.0), ("dl5", 55.0),
    ("dl9", 58.0), ("dl10", 58.96), ("smc", 61.0), // median pair 58.96/61
    ("dl4", 80.0), ("dl1", 100.0), ("dl2", 120.0), ("dl7", 124.0), ("dl6", 124.0), ("dl8", 150.0),
    ("zy1", 184.7), ("to", 330.0), ("owrt", 1200.0), // tuned: pop mean 386.46
    ("ap", 1440.0), ("bu1", 1440.0), ("ed", 1440.0), ("ls3", 1440.0), // beyond the cutoff
    ("ls5", 1440.0), ("ng1", 1440.0), ("te", 1440.0),
];

/// TCP-4 maximum simultaneous bindings, in Figure 10's x order (log
/// scale). Stated: dl9 = smc = 16, ng1 and ap ≈ 1024, population median
/// 135.5 and mean 259.21.
#[rustfmt::skip]
pub(crate) const TCP4: [(&str, usize); 34] = [
    ("dl9", 16), ("smc", 16), ("dl10", 24), ("ls1", 32), ("dl4", 48), ("ng2", 64), ("ls5", 80),
    ("ng3", 96), ("to", 100), ("ls3", 112), ("ng5", 120), ("nw1", 128), ("be1", 130),
    ("ls2", 132), ("be2", 134), ("te", 135), ("dl2", 135), ("dl6", 136), ("dl1", 140),
    ("dl8", 150), ("owrt", 167), ("zy1", 240), ("ng4", 260), ("ed", 280), ("je", 300),
    ("dl3", 380), ("dl7", 400), ("as1", 450), ("dl5", 500), ("bu1", 560), ("al", 600),
    ("we", 700), ("ng1", 1024), ("ap", 1024), // tuned: pop mean 259.21
];

/// Down Mb/s, up Mb/s, aggregate Mb/s (`None`: unlimited), buffer KiB.
type Forwarding = (f64, f64, Option<f64>, usize);

/// TCP-2/TCP-3 forwarding, in Figure 8's x order. Reconstructed from
/// Figure 8's order and named values: dl10 ≈ 6/6, ls1 ≈ 8/6, smc 41 up and
/// 27 down, thirteen devices at wire speed, bidirectional median ≈ 35
/// against ≈ 68 unidirectional.
#[rustfmt::skip]
const FORWARDING: [(&str, Forwarding); 34] = [
    ("dl10", (6.5, 6.5, Some(7.0), 64)), ("ls1", (9.0, 6.5, Some(10.0), 96)),
    ("ap", (22.0, 20.0, Some(24.0), 96)), ("te", (30.0, 28.0, Some(33.0), 128)),
    ("owrt", (34.0, 32.0, Some(38.0), 96)), ("smc", (27.0, 41.0, Some(45.0), 96)),
    ("dl9", (42.0, 40.0, Some(46.0), 80)), ("ed", (46.0, 44.0, Some(50.0), 96)),
    ("zy1", (50.0, 48.0, Some(55.0), 80)), ("ng4", (54.0, 52.0, Some(60.0), 96)),
    ("ng5", (56.0, 54.0, Some(62.0), 72)), ("ng3", (58.0, 56.0, Some(64.0), 80)),
    ("nw1", (60.0, 58.0, Some(66.0), 72)), ("ls3", (62.0, 60.0, Some(68.0), 64)),
    ("ls5", (62.0, 60.0, Some(68.0), 64)), ("to", (64.0, 62.0, Some(70.0), 72)),
    ("ls2", (66.0, 64.0, Some(72.0), 80)), ("ng2", (68.0, 66.0, Some(74.0), 72)),
    ("je", (70.0, 68.0, Some(76.0), 64)), ("dl2", (74.0, 72.0, Some(80.0), 64)),
    ("dl1", (76.0, 74.0, Some(82.0), 64)),
    // The wire-speed thirteen. A few still have a finite aggregate: not
    // all reach 100 Mb/s in both directions at once (§4.2).
    ("we", (1000.0, 1000.0, Some(150.0), 64)), ("as1", (1000.0, 1000.0, Some(160.0), 56)),
    ("dl7", (1000.0, 1000.0, Some(170.0), 56)), ("be2", (1000.0, 1000.0, Some(180.0), 48)),
    ("be1", (1000.0, 1000.0, Some(190.0), 48)), ("dl5", (1000.0, 1000.0, None, 48)),
    ("ng1", (1000.0, 1000.0, None, 32)), ("dl8", (1000.0, 1000.0, None, 96)),
    ("al", (1000.0, 1000.0, None, 48)), ("dl3", (1000.0, 1000.0, None, 40)),
    ("dl6", (1000.0, 1000.0, None, 48)), ("bu1", (1000.0, 1000.0, None, 56)),
    ("dl4", (1000.0, 1000.0, None, 48)),
];

/// UDP-5 (Figure 6): dl8 times out DNS (port 53) bindings sooner.
const SERVICE_OVERRIDES: [(&str, &[(u16, Duration)]); 1] =
    [("dl8", &[(53, Duration::from_secs(120))])];

/// Per-device policy rules: each listed device takes the value of the
/// first rule that names it; every other device takes the default.
type Rules<T> = [(&'static [&'static str], T)];

/// UDP-4 (§4.1): 27/34 preserve the source port, 23 of which reuse an
/// expired binding and 4 quarantine it; 7 always allocate sequentially.
/// The assignment is reconstructed; the other 23 preserve and reuse.
const PORT_ASSIGNMENT: &Rules<PortAssignment> = &[
    (&["dl10", "dl9", "dl4", "ls1", "smc", "nw1", "zy1"], PortAssignment::Sequential),
    (&["be1", "be2", "ng5", "ls2"], PortAssignment::Preserve { reuse_expired: false }),
];

/// Unknown transports (§4.3): dl4, dl9, dl10 and ls1 pass them
/// untranslated; 20 rewrite the IP address only, 18 of which admit inbound
/// packets, so SCTP works through them; the other 10 drop.
#[rustfmt::skip]
const UNKNOWN_PROTO: &Rules<UnknownProtoPolicy> = &[
    (&["dl4", "dl9", "dl10", "ls1"], UnknownProtoPolicy::PassThrough),
    (&["al", "ap", "bu1", "dl2", "dl6", "dl7", "ed", "je", "owrt", "to", "we", "as1", "dl1",
       "dl3", "dl5", "dl8", "ls3", "ls5"], UnknownProtoPolicy::IpRewrite { allow_inbound: true }),
    (&["ng1", "ng2"], UnknownProtoPolicy::IpRewrite { allow_inbound: false }),
];

/// DNS over TCP (§4.3): 14 accept connections on TCP 53 and 10 of them
/// answer (ap through its UDP upstream); the other 20 refuse.
const DNS_TCP: &Rules<DnsTcpMode> = &[
    (&["owrt", "to", "bu1", "dl6", "dl7", "ed", "je", "we", "al"], DnsTcpMode::AnswerViaTcp),
    (&["ap"], DnsTcpMode::AnswerViaUdp),
    (&["as1", "dl2", "ls3", "ls5"], DnsTcpMode::AcceptNoAnswer),
];

/// Inbound filtering; every other device filters address-and-port
/// dependently.
const FILTERING: &Rules<EndpointScope> = &[
    (&["owrt", "to", "ap"], EndpointScope::EndpointIndependent),
    (&["al", "we", "je"], EndpointScope::AddressDependent),
];

const HAIRPINNING: &[&str] = &["owrt", "to", "ap", "bu1"];
const NO_TTL_DECREMENT: &[&str] = &["dl9", "smc", "dl10"];
const HONORS_RECORD_ROUTE: &[&str] = &["owrt"];

/// Port Unreachable and TTL Exceeded: what every device but nw1 translates.
const BASE: IcmpKindSet = IcmpKindSet::baseline();
const BASE_HOST: IcmpKindSet = BASE.with(HostUnreachable);
const BASE_HOST_NET: IcmpKindSet = BASE_HOST.with(NetUnreachable);
const ALL_BUT_QUENCH: IcmpKindSet = IcmpKindSet::ALL.without(SourceQuench);

/// Table 2, reconstructed: the ICMP error kinds translated for TCP and for
/// UDP flows, and whether a ping to an unreachable host is answered. The
/// other devices translate all ten kinds both ways and answer the ping.
#[rustfmt::skip]
const ICMP_KINDS: &Rules<(IcmpKindSet, IcmpKindSet, bool)> = &[
    // nw1 translates nothing.
    (&["nw1"], (IcmpKindSet::NONE, IcmpKindSet::NONE, false)),
    // The five-bullet devices: the baseline both ways, nothing else.
    (&["dl10", "dl4", "dl9", "smc"], (BASE, BASE, false)),
    // Nine bullets: the baseline and Host Unreachable both ways, and ping.
    (&["be1", "be2", "ng5"], (BASE_HOST, BASE_HOST, true)),
    // ls2 (11): every UDP kind; its TCP errors become invalid RSTs.
    (&["ls2"], (IcmpKindSet::NONE, IcmpKindSet::ALL, false)),
    // ls1 (13): the baseline, Host and Net Unreachable both ways,
    // Fragmentation Needed for TCP, and ping.
    (&["ls1"], (BASE_HOST_NET.with(FragNeeded), BASE_HOST_NET, true)),
    // zy1 (22): everything but Source Quench both ways.
    (&["zy1"], (ALL_BUT_QUENCH, ALL_BUT_QUENCH, true)),
    // 23 bullets: Source Quench missing on the TCP side.
    (&["as1", "dl1", "dl8", "ls3", "ls5", "ng3", "ng4", "te"], (ALL_BUT_QUENCH, IcmpKindSet::ALL, true)),
    // 22 bullets: Source Quench missing on both sides.
    (&["dl3", "dl5", "ng1", "ng2"], (ALL_BUT_QUENCH, ALL_BUT_QUENCH, true)),
];

const TCP_ERRORS_AS_RST: &[&str] = &["ls2"];
/// ls1 and zy1 rewrite embedded headers but forget the embedded IP
/// checksum.
const STALE_EMBEDDED_IP_CHECKSUM: &[&str] = &["ls1", "zy1"];
/// The 16 devices that do not rewrite embedded transport headers (§4.3
/// prose). nw1 is not one (it forwards nothing, so rewriting is
/// unobservable), nor are zy1 and ls1 (they do rewrite; their bug is the
/// stale checksum); three mid-tier devices make up the count.
#[rustfmt::skip]
const NO_REWRITE: &[&str] = &[
    "be1", "be2", "dl10", "dl4", "dl9", "ls2", "ng5", "smc",
    "dl3", "dl5", "ng1", "ng2", "te", "ng3", "ng4", "dl1",
];

/// The full calibrated registry (34 devices, Table 1 order), evaluated at
/// compile time: plain `'static` data whose reading allocates nothing.
pub(crate) static DEVICES: [DeviceProfile; 34] = build_all();

const fn build_all() -> [DeviceProfile; 34] {
    let mut devices = [build(TABLE1[0]); 34];
    let mut i = 1;
    while i < devices.len() {
        devices[i] = build(TABLE1[i]);
        i += 1;
    }
    devices
}

const fn build((tag, provenance): (&'static str, &'static Provenance)) -> DeviceProfile {
    let (udp1, udp2, tcp1_mins) = (value(tag, &UDP1), value(tag, &UDP2), value(tag, &TCP1));
    let udp3 = match value(tag, &UDP3) {
        Some(v) => v,
        None => udp1,
    };
    // An expiry grid of `g` seconds inflates observed lifetimes. UDP-1's
    // modified binary search tracks the shortest observed expiry, so it
    // lands a device-specific bias above the configured value; UDP-2/3's
    // increasing gaps refresh at varying phases and land about 3 s above
    // it. Fine-grained timers need no compensation.
    let (granularity, udp1_bias, compensation) = match lookup(tag, &COARSE_TIMERS) {
        Some((g, bias)) => (g, bias, 2.5),
        None => (1, 0.0, 0.0),
    };
    let port_assignment =
        pick(tag, PORT_ASSIGNMENT, PortAssignment::Preserve { reuse_expired: true });
    let (down, up, aggregate, buffer_kib) = value(tag, &FORWARDING);
    let (tcp_kinds, udp_kinds, icmp_query_host_unreach) =
        pick(tag, ICMP_KINDS, (IcmpKindSet::ALL, IcmpKindSet::ALL, true));
    let rewrite_embedded = !listed(tag, NO_REWRITE);
    let max_bindings = value(tag, &TCP4);
    DeviceProfile {
        tag,
        provenance,
        policy: GatewayPolicy {
            udp_timeout_solitary: secs(udp1 - udp1_bias),
            udp_timeout_inbound: secs(udp2 - compensation),
            udp_timeout_bidirectional: secs(udp3 - compensation),
            udp_service_overrides: match lookup(tag, &SERVICE_OVERRIDES) {
                Some(overrides) => overrides,
                None => &[],
            },
            timer_granularity: Duration::from_secs(granularity),
            // Whole seconds; a device alive after the 24 h cutoff holds
            // bindings a week.
            tcp_timeout: if tcp1_mins < 1440.0 {
                Duration::from_secs((tcp1_mins * 60.0 + 0.5) as u64)
            } else {
                Duration::from_secs(7 * 24 * 3600)
            },
            max_bindings,
            port_assignment,
            filtering: pick(tag, FILTERING, EndpointScope::AddressAndPortDependent),
            // Sequential allocators map symmetrically; the rest are cones.
            mapping: match port_assignment {
                PortAssignment::Sequential => EndpointScope::AddressAndPortDependent,
                PortAssignment::Preserve { .. } => EndpointScope::EndpointIndependent,
            },
            hairpinning: listed(tag, HAIRPINNING),
            icmp: IcmpPolicy {
                tcp_kinds,
                udp_kinds,
                icmp_query_host_unreach,
                rewrite_embedded,
                fix_embedded_ip_checksum: !listed(tag, STALE_EMBEDDED_IP_CHECKSUM),
                fix_embedded_l4_checksum: rewrite_embedded,
                tcp_errors_as_rst: listed(tag, TCP_ERRORS_AS_RST),
            },
            unknown_proto: pick(tag, UNKNOWN_PROTO, UnknownProtoPolicy::Drop),
            // Binding setup slows with forwarding horsepower (reconstructed;
            // §5 lists the binding-creation rate as future work).
            binding_setup_cost: Duration::from_micros(if down < 10.0 {
                400
            } else if down < 50.0 {
                150
            } else if down < 100.0 {
                60
            } else {
                25
            }),
            forwarding: ForwardingModel {
                up_bps: mbps(up),
                down_bps: mbps(down),
                aggregate_bps: match aggregate {
                    Some(mb) => mbps(mb),
                    None => u64::MAX,
                },
                buffer_up: buffer_kib * 1024,
                buffer_down: buffer_kib * 1024,
                per_packet_overhead: Duration::from_micros(20),
            },
            decrement_ttl: !listed(tag, NO_TTL_DECREMENT),
            honor_record_route: listed(tag, HONORS_RECORD_ROUTE),
            dns_proxy: DnsProxyPolicy { udp: true, tcp: pick(tag, DNS_TCP, DnsTcpMode::Refuse) },
        },
        expected: Expected {
            udp1_secs: udp1,
            udp2_secs: udp2,
            udp3_secs: udp3,
            tcp1_mins,
            max_bindings,
        },
    }
}

/// `s` seconds, to the nearest millisecond.
const fn secs(s: f64) -> Duration {
    Duration::from_millis((s * 1000.0 + 0.5) as u64)
}

const fn mbps(mb: f64) -> u64 {
    (mb * 1e6) as u64
}

const fn lookup<T: Copy>(tag: &str, table: &[(&str, T)]) -> Option<T> {
    let mut i = 0;
    while i < table.len() {
        if same(table[i].0, tag) {
            return Some(table[i].1);
        }
        i += 1;
    }
    None
}

/// `tag`'s entry in a table that must list every device: a device
/// missing from it fails the build.
const fn value<T: Copy>(tag: &str, table: &[(&str, T)]) -> T {
    match lookup(tag, table) {
        Some(v) => v,
        None => panic!("a calibration table misses a Table 1 device"),
    }
}

const fn pick<T: Copy>(tag: &str, rules: &Rules<T>, default: T) -> T {
    let mut i = 0;
    while i < rules.len() {
        if listed(tag, rules[i].0) {
            return rules[i].1;
        }
        i += 1;
    }
    default
}

const fn listed(tag: &str, tags: &[&str]) -> bool {
    let mut i = 0;
    while i < tags.len() {
        if same(tags[i], tag) {
            return true;
        }
        i += 1;
    }
    false
}

const fn same(a: &str, b: &str) -> bool {
    let (a, b) = (a.as_bytes(), b.as_bytes());
    if a.len() != b.len() {
        return false;
    }
    let mut i = 0;
    while i < a.len() {
        if a[i] != b[i] {
            return false;
        }
        i += 1;
    }
    true
}
