//! Figure 2 — combined UDP-1/2/3 medians, devices ordered by their UDP-1
//! result (the paper's overview figure).

use hgw_bench::report::emit_multi_series_figure;
use hgw_bench::{env_knob, fleet_results, FIG3_ORDER};
use hgw_core::Duration;
use hgw_probe::udp_timeout::{measure_repeated, UdpScenario};
use hgw_stats::median;

fn main() {
    let repeats = env_knob::<usize>("HGW_REPEATS", 5);
    let step = Duration::from_secs(env_knob::<u64>("HGW_STEP_SECS", 1));
    let devices = hgw_devices::all_devices();
    let results = fleet_results(&devices, 0xF162, |tb, _| {
        let u1 = measure_repeated(tb, UdpScenario::Solitary, 20_000, repeats, step);
        let u2 = measure_repeated(tb, UdpScenario::InboundRefresh, 21_000, repeats, step);
        let u3 = measure_repeated(tb, UdpScenario::Bidirectional, 22_000, repeats, step);
        (
            median(&u1).unwrap_or(f64::NAN),
            median(&u2).unwrap_or(f64::NAN),
            median(&u3).unwrap_or(f64::NAN),
        )
    });
    let series1: Vec<(String, f64)> =
        results.iter().map(|(t, (a, _, _))| (t.clone(), *a)).collect();
    let series2: Vec<(String, f64)> =
        results.iter().map(|(t, (_, b, _))| (t.clone(), *b)).collect();
    let series3: Vec<(String, f64)> =
        results.iter().map(|(t, (_, _, c))| (t.clone(), *c)).collect();
    emit_multi_series_figure(
        "fig2",
        "Figure 2: Median timeout results for UDP-1, 2 and 3 (ordered by UDP-1 result)",
        "Binding Timeout [sec]",
        &FIG3_ORDER,
        &[("UDP-1", '1', series1), ("UDP-2", '2', series2), ("UDP-3", '3', series3)],
        false,
    );
}
