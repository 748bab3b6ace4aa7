//! PMTU black-hole detection: demonstrates why the ICMP "Fragmentation
//! Needed" column of Table 2 matters. A gateway that fails to translate
//! Frag-Needed errors creates the RFC 2923 black hole — the sender never
//! learns the path MTU shrank.
//!
//! The probe opens a TCP flow, hijacks a translated segment at the server,
//! injects a Frag-Needed error (as an MTU-1400 router on the path would),
//! and reports whether the client's stack ever hears about it.
//!
//! ```sh
//! cargo run --release --example pmtu_blackhole
//! ```

use hgw_gateway::IcmpErrorKind;
use hgw_probe::icmp::{measure_icmp_matrix, IcmpOutcome};
use home_gateway_study::prelude::*;

fn main() {
    println!("PMTU discovery survival across the device fleet (ICMP Frag. Needed, TCP flows):\n");
    let mut survivors = Vec::new();
    let mut blackholes = Vec::new();
    for (i, device) in devices::all_devices().into_iter().enumerate() {
        let mut tb = Testbed::new(device.tag, device.policy, (i % 200 + 1) as u8, 5);
        let matrix = measure_icmp_matrix(&mut tb);
        let outcome = matrix
            .tcp
            .iter()
            .find(|(k, _)| *k == IcmpErrorKind::FragNeeded)
            .map(|(_, o)| *o)
            .expect("frag-needed probed");
        match outcome {
            IcmpOutcome::Forwarded { .. } => survivors.push(device.tag),
            _ => blackholes.push(device.tag),
        }
    }
    println!("PMTU discovery works through {} devices:", survivors.len());
    println!("  {}\n", survivors.join(" "));
    println!(
        "PMTU black holes (RFC 2923) behind {} devices — applications must fall back to\n\
         packetization-layer probing (RFC 4821) or clamp their MSS:",
        blackholes.len()
    );
    println!("  {}", blackholes.join(" "));
}
