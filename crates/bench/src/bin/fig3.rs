//! Figure 3 — UDP-1: binding timeout after a single outbound packet.
//!
//! `HGW_REPEATS` controls the number of complete binary searches per
//! device (the paper runs 100 iterations; default here 15 for a quick
//! regeneration — the searches are deterministic up to timer phase, so the
//! medians converge fast).

use hgw_bench::report::emit_summary_figure;
use hgw_bench::{env_knob, fleet_results, FIG3_ORDER};
use hgw_core::Duration;
use hgw_probe::udp_timeout::{measure_repeated, UdpScenario};
use hgw_stats::Summary;

fn main() {
    let repeats = env_knob::<usize>("HGW_REPEATS", 15);
    let devices = hgw_devices::all_devices();
    let results = fleet_results(&devices, 0xF163, |tb, _| {
        let vals =
            measure_repeated(tb, UdpScenario::Solitary, 20_000, repeats, Duration::from_secs(1));
        Summary::of(&vals).expect("measurements")
    });
    emit_summary_figure(
        "fig3",
        &format!("Figure 3 / UDP-1: Single packet, outbound only (median of {repeats} iter.)"),
        "Binding Timeout [sec]",
        &FIG3_ORDER,
        &results,
        false,
    );
}
