//! Figure 10 — TCP-4: maximum number of TCP bindings to a single server
//! port (log scale).

use hgw_bench::report::emit_summary_figure;
use hgw_bench::{env_knob, fleet_results, FIG10_ORDER};
use hgw_probe::max_bindings::measure_max_bindings;
use hgw_stats::Summary;

fn main() {
    let ceiling = env_knob::<usize>("HGW_CEILING", 1100);
    let devices = hgw_devices::all_devices();
    let results = fleet_results(&devices, 0xF1610, |tb, _| {
        measure_max_bindings(tb, 32, ceiling).max_bindings as f64
    });
    let summaries: Vec<(String, Summary)> =
        results.iter().map(|(t, v)| (t.clone(), Summary::of(&[*v]).unwrap())).collect();
    emit_summary_figure(
        "fig10",
        "Figure 10 / TCP-4: Max. bindings to a single server port",
        "TCP Bindings [Count]",
        &FIG10_ORDER,
        &summaries,
        true,
    );
}
