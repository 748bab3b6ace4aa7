//! Per-device observability scorecard.
//!
//! Attaches a full [`EventLog`] observer to one device's testbed, drives a
//! small workload (a TCP upload, a UDP exchange past its binding timeout,
//! and an unsolicited inbound packet), and prints everything the
//! observability layer can see: drop taxonomy, NAT binding lifecycle, link
//! counters, and the first few raw events.
//!
//! ```text
//! cargo run --release --example device_trace            # default: owrt
//! cargo run --release --example device_trace -- ls1     # pick a device
//! ```

use home_gateway_study::core::{Duration, EventLog, TraceEvent};
use home_gateway_study::gateway::Gateway;
use home_gateway_study::prelude::*;

fn main() {
    let tag = std::env::args().nth(1).unwrap_or_else(|| "owrt".to_string());
    let Some(device) = devices::device(&tag) else {
        eprintln!("unknown device {tag:?}; known tags:");
        for d in devices::all_devices() {
            eprint!(" {}", d.tag);
        }
        eprintln!();
        std::process::exit(1);
    };

    let mut tb = Testbed::builder(device.tag, device.policy).index(1).seed(42).build();
    tb.sim.attach_observer(Box::new(EventLog::new()));

    // Workload: one upload, one UDP flow probed after its timeout (the
    // late probe is dropped for lack of a binding), and idle time so
    // bindings expire.
    probe::throughput::run_transfer(
        &mut tb,
        5001,
        probe::throughput::Direction::Upload,
        256 * 1024,
    );
    let udp1 = probe::udp_timeout::measure_udp1(&mut tb, 20_000);
    tb.run_for(Duration::from_secs(30));

    let stats = tb.sim.stats();
    let log_box = tb.sim.detach_observer().expect("observer attached");
    let log = log_box.as_any().downcast_ref::<EventLog>().expect("EventLog");
    let nat = tb.sim.node_ref::<Gateway>(tb.gateway).nat_stats();
    let gw_stats = tb.sim.node_ref::<Gateway>(tb.gateway).stats;

    println!("=== observability scorecard: {} ===", device.tag);
    println!();
    println!("simulation");
    println!("  virtual time        {:>12.1} s", tb.sim.now().as_secs_f64());
    println!("  events dispatched   {:>12}", stats.events);
    println!("  frames delivered    {:>12}", stats.frames_delivered);
    println!("  unrouted frames     {:>12}", stats.unrouted_frames);
    println!("  peak link queue     {:>12} B", stats.peak_queue_bytes);
    println!();
    println!("drops by reason (simulator totals)");
    for (reason, count) in stats.frames_dropped.iter() {
        println!("  {:<18} {:>12}", reason.name(), count);
    }
    println!("  {:<18} {:>12}", "total", stats.frames_dropped.total());
    println!();
    println!("nat table");
    println!("  bindings created    {:>12}", nat.bindings_created);
    println!("  bindings expired    {:>12}", nat.bindings_expired);
    println!("  capacity refusals   {:>12}", nat.refusals);
    println!("  port preserved      {:>12}", nat.port_preservation_hits);
    println!("  port fallback       {:>12}", nat.port_preservation_misses);
    println!("  peak occupancy      {:>12}", nat.peak_bindings);
    println!();
    println!("gateway counters");
    println!("  dropped no-binding  {:>12}", gw_stats.dropped_no_binding);
    println!("  dropped filtered    {:>12}", gw_stats.dropped_filtered);
    println!("  icmp translated     {:>12}", gw_stats.icmp_translated);
    println!();
    println!(
        "measured UDP-1 timeout: {:.1} s (expected {:.1} s)",
        udp1.timeout_secs, device.expected.udp1_secs
    );
    println!();
    println!("event log: {} events captured during the workload; first 10:", log.len());
    for (at, node, ev) in log.events().iter().take(10) {
        let desc = match ev {
            TraceEvent::FrameDelivered { bytes } => format!("delivered {bytes} B"),
            TraceEvent::FrameDropped { reason, bytes } => {
                format!("DROP {} ({bytes} B)", reason.name())
            }
            TraceEvent::BindingCreated { external_port, port_preserved } => format!(
                "binding created on :{external_port}{}",
                if *port_preserved { " (port preserved)" } else { "" }
            ),
            TraceEvent::Binding { flow, external_port, lifecycle, .. } => format!(
                "binding {} on :{external_port} (flow {:#018x})",
                lifecycle.kind_name(),
                flow.0
            ),
        };
        println!("  {:>12.6}s  node {:>2}  {desc}", at.as_secs_f64(), node.0);
    }
}
