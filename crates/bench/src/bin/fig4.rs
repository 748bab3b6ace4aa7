//! Figure 4 — UDP-2: single packet out, multiple packets in.
//!
//! `HGW_REPEATS` sets the measurement passes per device (default 7) and
//! `HGW_STEP_SECS` the gap increment (default 1 s, the paper's
//! convergence bound).

use hgw_bench::report::emit_summary_figure;
use hgw_bench::{env_knob, fleet_results, FIG4_ORDER};
use hgw_core::Duration;
use hgw_probe::udp_timeout::{measure_repeated, UdpScenario};
use hgw_stats::Summary;

fn main() {
    let repeats = env_knob::<usize>("HGW_REPEATS", 7);
    let step = Duration::from_secs(env_knob::<u64>("HGW_STEP_SECS", 1));
    let devices = hgw_devices::all_devices();
    let results = fleet_results(&devices, 0xF164, |tb, _| {
        let vals = measure_repeated(tb, UdpScenario::InboundRefresh, 21_000, repeats, step);
        Summary::of(&vals).expect("measurements")
    });
    emit_summary_figure(
        "fig4",
        &format!(
            "Figure 4 / UDP-2: Single packet out, multiple packets in (median of {repeats} iter.)"
        ),
        "Binding Timeout [sec]",
        &FIG4_ORDER,
        &results,
        false,
    );
}
