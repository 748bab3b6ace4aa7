//! Figure 6 — UDP-5: binding timeout variations for different well-known
//! services (dns, http, ntp, snmp, tftp), devices ordered by their UDP-1
//! result. Expected outcome: near-identical series for every device except
//! dl8, whose DNS timeout is shorter.

use hgw_bench::report::emit_multi_series_figure;
use hgw_bench::{env_knob, fleet_results, FIG3_ORDER};
use hgw_core::Duration;
use hgw_probe::udp_timeout::{measure_refresh, UdpScenario, UDP5_SERVICES};
use hgw_stats::median;

fn main() {
    let repeats = env_knob::<usize>("HGW_REPEATS", 3);
    let step = Duration::from_secs(env_knob::<u64>("HGW_STEP_SECS", 2));
    let devices = hgw_devices::all_devices();
    let results = fleet_results(&devices, 0xF166, |tb, _| {
        UDP5_SERVICES.map(|(_, port)| {
            let vals: Vec<f64> = (0..repeats)
                .map(|_| measure_refresh(tb, port, UdpScenario::InboundRefresh, step).timeout_secs)
                .collect();
            median(&vals).unwrap_or(f64::NAN)
        })
    });
    let series: Vec<hgw_bench::report::NamedSeries> = UDP5_SERVICES
        .iter()
        .enumerate()
        .map(|(i, (name, _))| {
            let glyph = name.chars().next().unwrap();
            let vals: Vec<(String, f64)> =
                results.iter().map(|(t, row)| (t.clone(), row[i])).collect();
            (*name, glyph, vals)
        })
        .collect();
    emit_multi_series_figure(
        "fig6",
        "Figure 6 / UDP-5: Binding timeout variations for different services",
        "Binding Timeout [sec]",
        &FIG3_ORDER,
        &series,
        false,
    );
}
