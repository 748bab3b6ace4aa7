//! Every frame a gateway puts on the wire carries valid checksums.
//!
//! The gateway rewrites addresses and ports with incremental checksum
//! updates (RFC 1624) instead of recomputing them. This test captures both
//! directions of both gateway links while a sampled profile runs a short
//! TCP-2 battery and the UDP-1 timeout search, then verifies the IPv4
//! header checksum and the TCP/UDP checksum of every captured frame.

use hgw_core::Dir;
use hgw_probe::throughput::run_battery;
use hgw_probe::udp_timeout::measure_udp1;
use hgw_wire::checksum::verify_transport_checksum;
use hgw_wire::ip::{Ipv4Packet, Protocol};
use home_gateway_study::prelude::*;
use proptest::prelude::*;

/// Checks one captured frame; returns whether a transport checksum was
/// verified (`false` for ICMP, other protocols, fragments and UDP frames
/// sent without a checksum).
fn check_frame(frame: &[u8], what: &str) -> bool {
    let ip = Ipv4Packet::new_checked(frame).unwrap_or_else(|e| panic!("{what}: bad IPv4: {e:?}"));
    assert!(ip.verify_checksum(), "{what}: IPv4 header checksum");
    if ip.more_frags() || ip.frag_offset() != 0 {
        return false;
    }
    let segment = ip.payload();
    let udp_zero = |s: &[u8]| s.len() >= 8 && s[6..8] == [0, 0];
    match ip.protocol() {
        Protocol::Udp if udp_zero(segment) => false,
        p @ (Protocol::Tcp | Protocol::Udp) => {
            assert!(
                verify_transport_checksum(ip.src_addr(), ip.dst_addr(), p.number(), segment),
                "{what}: {p:?} checksum"
            );
            true
        }
        _ => false,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn translated_frames_carry_valid_checksums(seed in 0u64..1_000_000, slot in 0usize..64) {
        let profile = devices::synthetic_fleet(seed, slot + 1).pop().expect("one profile");
        let mut tb = Testbed::new(profile.tag, profile.policy, 1, seed);
        let links = [tb.lan_link, tb.wan_link];
        for &link in &links {
            for dir in [Dir::AtoB, Dir::BtoA] {
                tb.sim.enable_trace(link, dir);
            }
        }
        run_battery(&mut tb, 64 * 1024);
        measure_udp1(&mut tb, 20_000);
        let mut verified = 0;
        for &link in &links {
            for dir in [Dir::AtoB, Dir::BtoA] {
                for (at, frame) in tb.sim.take_trace(link, dir) {
                    let what = format!("{} seed {seed} {link:?}/{dir:?} at {at:?}", profile.tag);
                    verified += check_frame(&frame, &what) as usize;
                }
            }
        }
        prop_assert!(verified > 100, "{}: only {verified} transport checksums checked", profile.tag);
    }
}
