//! # hgw-devices — the 34 calibrated device profiles of Table 1
//!
//! Each commercial home gateway the paper measured becomes a
//! [`DeviceProfile`]: the Table 1 identity (tag plus a [`Provenance`]
//! record of vendor/model/firmware) and a
//! [`GatewayPolicy`](hgw_gateway::GatewayPolicy) calibrated so the
//! measurement suite reproduces the published per-device and population
//! results. The calibration is a set of `const` tables, one per figure in
//! the figure's x-axis order, evaluated at compile time into a `static`
//! registry; the tests below check every stated value, population
//! statistic, count and figure order against them (see `DESIGN.md` §5 for
//! the calibration policy).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod calibration;
pub mod profile;
pub mod sampler;

pub use profile::{DeviceProfile, Expected, Provenance};
pub use sampler::{synthetic_fleet, ProfileSpace};

/// Returns all 34 device profiles in Table 1 order.
pub fn all_devices() -> Vec<DeviceProfile> {
    calibration::DEVICES.to_vec()
}

/// Looks up a device by its paper tag.
pub fn device(tag: &str) -> Option<DeviceProfile> {
    calibration::DEVICES.iter().find(|d| d.tag == tag).copied()
}

/// The tags in Table 1 order.
pub fn all_tags() -> Vec<&'static str> {
    calibration::DEVICES.iter().map(|d| d.tag).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use hgw_gateway::{DnsTcpMode, PortAssignment, UnknownProtoPolicy};

    #[test]
    fn registry_has_34_unique_devices() {
        let devices = all_devices();
        assert_eq!(devices.len(), 34);
        let tags: std::collections::HashSet<_> = devices.iter().map(|d| d.tag).collect();
        assert_eq!(tags.len(), 34);
    }

    #[test]
    fn lookup_by_tag() {
        let ls1 = device("ls1").expect("ls1 exists");
        assert_eq!(ls1.provenance.vendor, "Linksys");
        assert_eq!(ls1.provenance.model, "BEFSR41c2");
        assert!(device("nonexistent").is_none());
    }

    #[test]
    fn stated_values_are_calibrated() {
        // The values the paper states explicitly.
        assert_eq!(device("je").unwrap().expected.udp1_secs, 30.0);
        assert_eq!(device("ls1").unwrap().expected.udp1_secs, 691.0);
        assert_eq!(device("be2").unwrap().expected.udp1_secs, 450.0);
        assert!((device("be1").unwrap().expected.tcp1_mins - 239.0 / 60.0).abs() < 1e-9);
        assert_eq!(device("dl9").unwrap().expected.max_bindings, 16);
        assert_eq!(device("smc").unwrap().expected.max_bindings, 16);
        assert_eq!(device("ap").unwrap().expected.max_bindings, 1024);
        assert_eq!(device("ng1").unwrap().expected.max_bindings, 1024);
        assert_eq!(device("ap").unwrap().expected.udp2_secs, 54.0, "UDP-2 minimum");
        for tag in ["ed", "owrt", "to", "te"] {
            let d = device(tag).unwrap();
            assert_eq!(d.expected.udp1_secs, 30.0, "{tag} shares the 30 s UDP-1 cluster");
            assert_eq!(d.expected.udp2_secs, 180.0, "{tag} uses 180 s in UDP-2");
        }
    }

    #[test]
    fn population_statistics_match_figures() {
        let devices = all_devices();
        let pop = |f: fn(&DeviceProfile) -> f64| {
            let vals: Vec<f64> = devices.iter().map(f).collect();
            let mut s = vals.clone();
            s.sort_by(|a, b| a.partial_cmp(b).unwrap());
            let median = (s[16] + s[17]) / 2.0;
            let mean = vals.iter().sum::<f64>() / vals.len() as f64;
            (median, mean)
        };
        let (m1, a1) = pop(|d| d.expected.udp1_secs);
        assert_eq!(m1, 90.0, "Figure 3 population median");
        assert!((a1 - 160.41).abs() < 0.01, "Figure 3 population mean, got {a1}");
        let (m2, a2) = pop(|d| d.expected.udp2_secs);
        assert_eq!(m2, 180.0, "Figure 4 population median");
        let min2 = devices.iter().map(|d| d.expected.udp2_secs).fold(f64::INFINITY, f64::min);
        assert_eq!(min2, 54.0, "Figure 4 population minimum");
        assert!((a2 - 174.67).abs() < 0.05, "Figure 4 population mean, got {a2}");
        let (m3, a3) = pop(|d| d.expected.udp3_secs);
        assert_eq!(m3, 181.0, "Figure 5 population median");
        assert!((a3 - 225.94).abs() < 0.01, "Figure 5 population mean, got {a3}");
        let (m7, a7) = pop(|d| d.expected.tcp1_mins);
        assert!((m7 - 59.98).abs() < 0.01, "Figure 7 population median, got {m7}");
        assert!((a7 - 386.46).abs() < 0.01, "Figure 7 population mean, got {a7}");
        let (m10, a10) = pop(|d| d.expected.max_bindings as f64);
        assert_eq!(m10, 135.5, "Figure 10 population median");
        assert!((a10 - 259.21).abs() < 0.01, "Figure 10 population mean, got {a10}");
    }

    #[test]
    fn values_rise_along_each_figure_order() {
        // Reconstructed values must keep the x-axis order the paper plots:
        // walk each figure's table in its order and read what the registry
        // serves for each device.
        fn check(figure: &str, order: &[&str], value: fn(&Expected) -> f64) {
            let values: Vec<f64> =
                order.iter().map(|t| value(&device(t).unwrap().expected)).collect();
            for (i, pair) in values.windows(2).enumerate() {
                assert!(
                    pair[0] <= pair[1],
                    "{figure}: {} ({}) plotted before {} ({})",
                    order[i],
                    pair[0],
                    order[i + 1],
                    pair[1]
                );
            }
        }
        check("Figure 3", &calibration::UDP1.map(|(t, _)| t), |e| e.udp1_secs);
        check("Figure 4", &calibration::UDP2.map(|(t, _)| t), |e| e.udp2_secs);
        check("Figure 5", &calibration::UDP3.map(|(t, _)| t), |e| e.udp3_secs);
        check("Figure 7", &calibration::TCP1.map(|(t, _)| t), |e| e.tcp1_mins);
        check("Figure 10", &calibration::TCP4.map(|(t, _)| t), |e| e.max_bindings as f64);
    }

    #[test]
    fn profiles_match_their_recorded_dump() {
        // Pins every field of all 34 profiles: the length and FNV-1a
        // digest of their `{:?}` dump. A deliberate calibration change
        // must re-record both.
        let dump = format!("{:?}", all_devices());
        let digest = dump.bytes().fold(0xcbf2_9ce4_8422_2325_u64, |h, b| {
            (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
        });
        assert_eq!((dump.len(), digest), (44_533, 0x3ad7_3aa4_9ead_b05c));
    }

    #[test]
    fn udp3_never_shorter_than_udp2() {
        // §4.1: "no devices shorten them" (UDP-3 vs UDP-2).
        for d in all_devices() {
            assert!(
                d.expected.udp3_secs >= d.expected.udp2_secs,
                "{}: {} < {}",
                d.tag,
                d.expected.udp3_secs,
                d.expected.udp2_secs
            );
        }
    }

    #[test]
    fn udp4_population_counts() {
        // §4.1 UDP-4: 27/34 preserve the source port; 23 reuse expired
        // bindings, 4 do not; 7 allocate fresh ports always.
        let devices = all_devices();
        let mut preserve_reuse = 0;
        let mut preserve_quarantine = 0;
        let mut sequential = 0;
        for d in &devices {
            match d.policy.port_assignment {
                PortAssignment::Preserve { reuse_expired: true } => preserve_reuse += 1,
                PortAssignment::Preserve { reuse_expired: false } => preserve_quarantine += 1,
                PortAssignment::Sequential => sequential += 1,
            }
        }
        assert_eq!(preserve_reuse, 23);
        assert_eq!(preserve_quarantine, 4);
        assert_eq!(sequential, 7);
    }

    #[test]
    fn unknown_protocol_population_counts() {
        // §4.3: dl4/dl9/dl10/ls1 pass through; 20 rewrite only the IP
        // address (18 of which let SCTP work); the rest drop.
        let devices = all_devices();
        let mut pass = Vec::new();
        let mut rewrite_in = 0;
        let mut rewrite_noin = 0;
        let mut drop = 0;
        for d in &devices {
            match d.policy.unknown_proto {
                UnknownProtoPolicy::PassThrough => pass.push(d.tag),
                UnknownProtoPolicy::IpRewrite { allow_inbound: true } => rewrite_in += 1,
                UnknownProtoPolicy::IpRewrite { allow_inbound: false } => rewrite_noin += 1,
                UnknownProtoPolicy::Drop => drop += 1,
            }
        }
        pass.sort_unstable();
        assert_eq!(pass, vec!["dl10", "dl4", "dl9", "ls1"]);
        assert_eq!(rewrite_in, 18, "SCTP works through 18 devices");
        assert_eq!(rewrite_noin, 2);
        assert_eq!(drop, 10);
    }

    #[test]
    fn dns_tcp_population_counts() {
        // §4.3: 14 accept TCP/53; 10 answer; ap forwards upstream over UDP.
        let devices = all_devices();
        let mut refuse = 0;
        let mut blackhole = 0;
        let mut via_tcp = 0;
        let mut via_udp = Vec::new();
        for d in &devices {
            match d.policy.dns_proxy.tcp {
                DnsTcpMode::Refuse => refuse += 1,
                DnsTcpMode::AcceptNoAnswer => blackhole += 1,
                DnsTcpMode::AnswerViaTcp => via_tcp += 1,
                DnsTcpMode::AnswerViaUdp => via_udp.push(d.tag),
            }
        }
        assert_eq!(refuse, 20);
        assert_eq!(blackhole, 4);
        assert_eq!(via_tcp, 9);
        assert_eq!(via_udp, vec!["ap"]);
    }

    #[test]
    fn icmp_baseline_and_exceptions() {
        for d in all_devices() {
            let icmp = &d.policy.icmp;
            if d.tag == "nw1" {
                assert!(icmp.udp_kinds.is_empty(), "nw1 translates nothing");
                assert!(icmp.tcp_kinds.is_empty());
            } else if d.tag == "ls2" {
                assert!(icmp.tcp_errors_as_rst, "ls2 fabricates invalid RSTs");
                assert_eq!(icmp.udp_kinds.len(), 10);
            } else {
                use hgw_gateway::IcmpErrorKind::*;
                assert!(
                    icmp.udp_kinds.contains(PortUnreachable)
                        && icmp.udp_kinds.contains(TtlExceeded),
                    "{} must translate at least Port Unreachable and TTL Exceeded",
                    d.tag
                );
            }
        }
        // zy1 and ls1 forget the embedded IP checksum.
        assert!(!device("zy1").unwrap().policy.icmp.fix_embedded_ip_checksum);
        assert!(!device("ls1").unwrap().policy.icmp.fix_embedded_ip_checksum);
        // 16 devices do not rewrite embedded transport headers.
        let no_rewrite = all_devices().iter().filter(|d| !d.policy.icmp.rewrite_embedded).count();
        assert_eq!(no_rewrite, 16);
    }

    #[test]
    fn tcp1_cutoff_devices() {
        // Seven devices outlast the 24 h cutoff (Figure 7).
        let beyond: Vec<&str> =
            all_devices().iter().filter(|d| d.tcp_timeout_beyond_cutoff()).map(|d| d.tag).collect();
        assert_eq!(beyond.len(), 7);
        for tag in ["ap", "bu1", "ed", "ls3", "ls5", "ng1", "te"] {
            assert!(beyond.contains(&tag), "{tag} should outlast the cutoff");
        }
    }

    #[test]
    fn dl8_has_shorter_dns_timeout() {
        // UDP-5 / Figure 6: dl8 times out DNS-port bindings sooner.
        let dl8 = device("dl8").unwrap();
        assert!(!dl8.policy.udp_service_overrides.is_empty());
        let (port, t) = dl8.policy.udp_service_overrides[0];
        assert_eq!(port, 53);
        assert!(t < dl8.policy.udp_timeout_inbound);
        // Everyone else treats services alike.
        let with_overrides =
            all_devices().iter().filter(|d| !d.policy.udp_service_overrides.is_empty()).count();
        assert_eq!(with_overrides, 1);
    }

    #[test]
    fn throughput_ceilings_match_figure8_names() {
        // dl10 ~6/6 Mb/s, ls1 ~8 down / 6 up, smc 41 up / 27 down.
        let dl10 = device("dl10").unwrap().policy.forwarding;
        assert!(dl10.down_bps <= 8_000_000 && dl10.up_bps <= 8_000_000);
        let ls1 = device("ls1").unwrap().policy.forwarding;
        assert!(ls1.down_bps > ls1.up_bps);
        let smc = device("smc").unwrap().policy.forwarding;
        assert!(smc.up_bps > smc.down_bps, "smc uploads faster than it downloads");
        // Thirteen wire-speed devices.
        let wire =
            all_devices().iter().filter(|d| d.policy.forwarding.down_bps >= 100_000_000).count();
        assert_eq!(wire, 13);
    }
}
