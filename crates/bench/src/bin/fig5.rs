//! Figure 5 — UDP-3: multiple packets out- and inbound.

use hgw_bench::report::emit_summary_figure;
use hgw_bench::{env_knob, fleet_results, FIG5_ORDER};
use hgw_core::Duration;
use hgw_probe::udp_timeout::{measure_repeated, UdpScenario};
use hgw_stats::Summary;

fn main() {
    let repeats = env_knob::<usize>("HGW_REPEATS", 7);
    let step = Duration::from_secs(env_knob::<u64>("HGW_STEP_SECS", 1));
    let devices = hgw_devices::all_devices();
    let results = fleet_results(&devices, 0xF165, |tb, _| {
        let vals = measure_repeated(tb, UdpScenario::Bidirectional, 22_000, repeats, step);
        Summary::of(&vals).expect("measurements")
    });
    emit_summary_figure(
        "fig5",
        &format!("Figure 5 / UDP-3: Multiple packets out- and inbound (median of {repeats} iter.)"),
        "Binding Timeout [sec]",
        &FIG5_ORDER,
        &results,
        false,
    );
}
