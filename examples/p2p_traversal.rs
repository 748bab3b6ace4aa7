//! Peer-to-peer UDP traversal, actually attempted: pairs of real device
//! models from Table 1 are placed back to back (two clients, two NATs, one
//! rendezvous router) and a full hole punch is performed — the empirical
//! companion to the `nat_classification` example's prediction.
//!
//! ```sh
//! cargo run --release --example p2p_traversal
//! ```

use hgw_gateway::GatewayPolicy;
use hgw_probe::hole_punch::attempt_hole_punch;
use hgw_testbed::DualNatTestbed;
use home_gateway_study::prelude::*;

fn policy(tag: &str) -> GatewayPolicy {
    devices::device(tag).expect("known tag").policy
}

fn main() {
    // A spread of traversal personalities: cone-style preservers, an
    // endpoint-independent filter (owrt), and sequential/symmetric boxes.
    let tags = ["owrt", "ap", "be1", "je", "nw1", "smc", "zy1", "ls1"];
    println!("Actual UDP hole-punching outcomes between device pairs:\n");
    print!("{:8}", "");
    for t in &tags {
        print!("{t:>6}");
    }
    println!();
    let mut attempts = 0;
    let mut successes = 0;
    for a in &tags {
        print!("{a:8}");
        for b in &tags {
            let mut tb = DualNatTestbed::new(a, policy(a), b, policy(b), 0x9E);
            let r = attempt_hole_punch(&mut tb);
            attempts += 1;
            if r.succeeded() {
                successes += 1;
            }
            let mark = match (r.a_to_b, r.b_to_a) {
                (true, true) => "ok",
                (false, false) => "-",
                _ => "half",
            };
            print!("{mark:>6}");
        }
        println!();
    }
    println!("\n{successes}/{attempts} pairs established direct bidirectional UDP connectivity.");
    println!("('half' = one direction only; '-' = punched packets never crossed)");
}
