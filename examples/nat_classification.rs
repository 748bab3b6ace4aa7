//! NAT classification and peer-to-peer traversal planning: classify a set
//! of gateways (STUN-style) and predict which pairs can establish direct
//! UDP connections by hole punching — the paper's §5 future work, in the
//! framework of Ford et al. (the paper's reference [10]).
//!
//! ```sh
//! cargo run --release --example nat_classification
//! ```

use hgw_probe::classify::classify_nat;
use home_gateway_study::prelude::*;

fn main() {
    let tags = ["owrt", "ap", "be1", "nw1", "smc", "ls1", "zy1", "je"];
    let mut classified = Vec::new();
    println!(
        "{:6} {:22} {:22} {:10} {:9}",
        "device", "mapping", "filtering", "preserve", "hairpin"
    );
    println!("{}", "-".repeat(75));
    for (i, tag) in tags.iter().enumerate() {
        let device = devices::device(tag).expect("known tag");
        let mut tb = Testbed::new(device.tag, device.policy, (i + 1) as u8, 7);
        let c = classify_nat(&mut tb);
        println!(
            "{:6} {:22} {:22} {:10} {:9}  => {}",
            tag,
            format!("{:?}", c.mapping),
            format!("{:?}", c.filtering),
            c.port_preservation,
            c.hairpinning,
            c.rfc3489_label()
        );
        classified.push((tag.to_string(), c));
    }

    println!("\nUDP hole-punching prognosis between device pairs:");
    print!("{:8}", "");
    for (tag, _) in &classified {
        print!("{tag:>6}");
    }
    println!();
    for (tag_a, a) in &classified {
        print!("{tag_a:8}");
        for (_, b) in &classified {
            print!("{:>6}", if a.hole_punching_works(b) { "ok" } else { "-" });
        }
        println!();
    }
    println!("\n('-' = both sides symmetric: direct traversal needs a relay, e.g. TURN)");
}
