//! Figure 9 — TCP-3: median queuing and processing delays, from the
//! timestamps embedded every 2 KB in the TCP-2 payloads (same four series
//! as Figure 8).

use hgw_bench::report::emit_multi_series_figure;
use hgw_bench::{env_knob, fleet_results, FIG9_ORDER};
use hgw_probe::throughput::run_battery;

fn main() {
    let bytes = env_knob::<u64>("HGW_BYTES", 25 * 1024 * 1024);
    let devices = hgw_devices::all_devices();
    let results = fleet_results(&devices, 0xF169, |tb, _| run_battery(tb, bytes));
    let pick = |f: fn(&hgw_probe::throughput::ThroughputReport) -> f64| -> Vec<(String, f64)> {
        results.iter().map(|(t, r)| (t.clone(), f(r))).collect()
    };
    emit_multi_series_figure(
        "fig9",
        "Figure 9 / TCP-3: Median of measured delays",
        "Queuing Delay [msec]",
        &FIG9_ORDER,
        &[
            ("Download", 'D', pick(|r| r.download.delay_ms)),
            ("Upload", 'U', pick(|r| r.upload.delay_ms)),
            ("Download while Uploading", 'd', pick(|r| r.download_during_bidir.delay_ms)),
            ("Upload while Downloading", 'u', pick(|r| r.upload_during_bidir.delay_ms)),
        ],
        false,
    );
}
