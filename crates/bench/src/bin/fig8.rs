//! Figure 8 — TCP-2: medians of measured throughputs (four series:
//! unidirectional upload/download and each direction during simultaneous
//! transfers).
//!
//! `HGW_BYTES` sets the transfer size (default 25 MB; the paper uses
//! 100 MB — set `HGW_BYTES=104857600` for the faithful run, it just takes
//! proportionally longer).

use hgw_bench::report::emit_multi_series_figure;
use hgw_bench::{env_knob, fleet_results, FIG8_ORDER};
use hgw_probe::throughput::run_battery;

fn main() {
    let bytes = env_knob::<u64>("HGW_BYTES", 25 * 1024 * 1024);
    let devices = hgw_devices::all_devices();
    let results = fleet_results(&devices, 0xF168, |tb, _| run_battery(tb, bytes));
    let pick = |f: fn(&hgw_probe::throughput::ThroughputReport) -> f64| -> Vec<(String, f64)> {
        results.iter().map(|(t, r)| (t.clone(), f(r))).collect()
    };
    emit_multi_series_figure(
        "fig8",
        &format!(
            "Figure 8 / TCP-2: Medians of measured throughputs ({} MB transfers)",
            bytes / (1024 * 1024)
        ),
        "Throughput [Mb/sec]",
        &FIG8_ORDER,
        &[
            ("Download", 'D', pick(|r| r.download.throughput_mbps)),
            ("Upload", 'U', pick(|r| r.upload.throughput_mbps)),
            ("Download while Uploading", 'd', pick(|r| r.download_during_bidir.throughput_mbps)),
            ("Upload while Downloading", 'u', pick(|r| r.upload_during_bidir.throughput_mbps)),
        ],
        false,
    );
    let incomplete: Vec<&str> = results
        .iter()
        .filter(|(_, r)| !(r.upload.completed && r.download.completed))
        .map(|(t, _)| t.as_str())
        .collect();
    if !incomplete.is_empty() {
        println!(
            "\nwarning: transfers did not complete within budget on: {}",
            incomplete.join(" ")
        );
    }
}
