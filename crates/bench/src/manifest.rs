//! Machine-readable run manifests.
//!
//! The build environment has no serde, so the JSON is emitted by hand; the
//! schema is small and flat enough that this stays readable. Consumers are
//! dashboards and regression diffs, so key order is deterministic.

use std::io::Write;
use std::path::Path;

use hgw_core::telemetry::Histogram;
use hgw_core::{DropCounts, HistogramSummary};
use hgw_probe::distributions::{cdf_points, FleetDistributions};
use hgw_probe::fleet::{DeviceRunMetrics, LifecycleFleetSummary, SchedulingReport};
use hgw_probe::household::HouseholdFleetSummary;

/// Schema identifier stamped into every manifest.
///
/// `/2` adds the `scheduling` block: parallelism mode, resolved worker
/// count, host parallelism, per-worker scheduling counters, and the
/// measured wall-clock speedup over a sequential run of the same campaign.
///
/// `/3` adds the per-device `delay` block: `one_way`, `queue_residency`,
/// and `nat_processing` latency summaries (`{count, p50_ns, p90_ns,
/// p99_ns, max_ns}`), each `null` when the campaign ran without telemetry.
/// The totals row's `delay` is always `null` — percentiles do not
/// aggregate across devices.
///
/// `/4` adds the mega-fleet scheduling and distribution fields:
/// `scheduling.batch_size` (devices per work-queue handout) and per-worker
/// `batches` / `pool_reused` counters, plus the optional top-level
/// `fleet_distributions` block — population totals, the UDP-1
/// binding-timeout CDF in deciseconds, the binding-cap histogram, and the
/// across-device spread of per-device delay percentiles (`null` when the
/// campaign did not aggregate distributions). Mega-fleet campaigns emit a
/// manifest with `per_device: null` instead of thousands of rows; see
/// [`render_mega_manifest`]. `EXPERIMENTS.md` documents the full lineage.
///
/// `/5` adds the optional top-level `household` block — the multi-host
/// workload campaign's fleet aggregate: flow mix counters, NAT
/// binding-table churn (`created`/`expired`/`refreshed`, mean
/// `churn_per_min`), port-exhaustion onset (`exhausted_devices`,
/// `earliest_onset_secs`), merged per-flow goodput and delay
/// distributions, and the mean Jain fairness index. `null` when the
/// campaign ran without a household leg.
///
/// `/6` adds `scheduling.legs`: one entry per measured leg of the campaign
/// (the sequential baseline first when one was run, then the recorded
/// leg), each with its parallelism mode, resolved worker count, and
/// wall-clock — so per-leg timing is explicit instead of being inferred
/// from the `speedup_vs_sequential` scalar, and a parallel leg that loses
/// to sequential is visible at a glance.
///
/// `/7` adds the optional top-level `binding_lifecycle` block — the
/// household leg's fleet aggregate of the always-on NAT lifecycle
/// counters: per-kind event totals (`created` … `port_preserved_reuse`),
/// the per-device churn-rate distribution in events/minute, the pooled
/// live-binding occupancy distribution, the per-device refusal-onset
/// distribution in seconds, and `exhausted_devices`. `null` when the
/// manifest was rendered without the household leg.
pub const SCHEMA: &str = "hgw-fleet-manifest/7";

/// Escapes a string for embedding in hand-emitted JSON.
pub(crate) fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

fn drop_counts_json(drops: &DropCounts) -> String {
    let fields: Vec<String> =
        drops.iter().map(|(reason, count)| format!("\"{}\": {count}", reason.name())).collect();
    format!("{{{}}}", fields.join(", "))
}

fn drops_json(metrics: &DeviceRunMetrics) -> String {
    drop_counts_json(&metrics.frames_dropped)
}

fn summary_json(s: &Option<HistogramSummary>) -> String {
    match s {
        Some(s) => format!(
            "{{\"count\": {}, \"p50_ns\": {}, \"p90_ns\": {}, \"p99_ns\": {}, \"max_ns\": {}}}",
            s.count, s.p50, s.p90, s.p99, s.max
        ),
        None => "null".to_string(),
    }
}

fn delay_json(metrics: &DeviceRunMetrics) -> String {
    if metrics.delay_one_way.is_none()
        && metrics.delay_queue_residency.is_none()
        && metrics.delay_nat_processing.is_none()
    {
        return "null".to_string();
    }
    format!(
        "{{\"one_way\": {}, \"queue_residency\": {}, \"nat_processing\": {}}}",
        summary_json(&metrics.delay_one_way),
        summary_json(&metrics.delay_queue_residency),
        summary_json(&metrics.delay_nat_processing),
    )
}

fn device_json(tag: &str, metrics: &DeviceRunMetrics) -> String {
    format!(
        concat!(
            "    {{\"device\": \"{}\", \"wall_ms\": {:.3}, \"events\": {}, ",
            "\"events_per_sec\": {:.0}, \"frames_delivered\": {}, ",
            "\"frames_dropped_total\": {}, \"frames_dropped_by_reason\": {}, ",
            "\"trace_events\": {}, \"nat_bindings_created\": {}, ",
            "\"nat_bindings_expired\": {}, \"nat_bindings_peak\": {}, ",
            "\"delay\": {}}}"
        ),
        json_escape(tag),
        metrics.wall_ms,
        metrics.events,
        metrics.events_per_sec,
        metrics.frames_delivered,
        metrics.frames_dropped.total(),
        drops_json(metrics),
        metrics.trace_events,
        metrics.nat_bindings_created,
        metrics.nat_bindings_expired,
        metrics.nat_bindings_peak,
        delay_json(metrics),
    )
}

/// One `scheduling.legs` entry: the leg's mode, the worker count it
/// resolved to, and its measured wall-clock.
fn leg_json(leg: &SchedulingReport) -> String {
    format!(
        "{{\"mode\": \"{}\", \"workers\": {}, \"wall_ms\": {:.3}}}",
        leg.parallelism, leg.workers, leg.wall_ms
    )
}

fn scheduling_json(scheduling: &SchedulingReport, sequential: Option<&SchedulingReport>) -> String {
    let workers: Vec<String> = scheduling
        .per_worker
        .iter()
        .map(|w| {
            format!(
                "{{\"worker\": {}, \"devices_run\": {}, \"batches\": {}, \
                 \"pool_reused\": {}, \"busy_ms\": {:.3}}}",
                w.worker, w.devices_run, w.batches, w.pool_reused, w.busy_ms
            )
        })
        .collect();
    let sequential_wall_ms = sequential.map(|s| s.wall_ms);
    let speedup = sequential_wall_ms
        .filter(|seq| scheduling.wall_ms > 0.0 && *seq > 0.0)
        .map(|seq| format!("{:.2}", seq / scheduling.wall_ms))
        .unwrap_or_else(|| "null".to_string());
    // The baseline leg (when run) comes first, then the recorded leg.
    let legs: Vec<String> =
        sequential.iter().chain(std::iter::once(&scheduling)).map(|s| leg_json(s)).collect();
    format!(
        concat!(
            "{{\"mode\": \"{}\", \"workers\": {}, \"host_parallelism\": {}, ",
            "\"batch_size\": {}, ",
            "\"wall_ms\": {:.3}, \"sequential_wall_ms\": {}, ",
            "\"speedup_vs_sequential\": {}, \"legs\": [{}], \"per_worker\": [{}]}}"
        ),
        scheduling.parallelism,
        scheduling.workers,
        scheduling.host_parallelism,
        scheduling.batch_size,
        scheduling.wall_ms,
        sequential_wall_ms.map(|v| format!("{v:.3}")).unwrap_or_else(|| "null".to_string()),
        speedup,
        legs.join(", "),
        workers.join(", "),
    )
}

/// Renders a [`Histogram`] as a distribution object: sample count,
/// percentile digest, and the per-bucket CDF as `[upper_bound,
/// cumulative_fraction]` pairs. Empty histograms render as `null`.
fn histogram_json(h: &Histogram) -> String {
    if h.is_empty() {
        return "null".to_string();
    }
    let s = h.summary();
    let cdf: Vec<String> =
        cdf_points(h).into_iter().map(|(bound, frac)| format!("[{bound}, {frac:.6}]")).collect();
    format!(
        "{{\"count\": {}, \"p50\": {}, \"p90\": {}, \"p99\": {}, \"max\": {}, \"cdf\": [{}]}}",
        s.count,
        s.p50,
        s.p90,
        s.p99,
        s.max,
        cdf.join(", "),
    )
}

/// Renders the `fleet_distributions` block of a `/4` manifest.
///
/// All fields are deterministic: the block depends only on the campaign
/// seed and fleet composition, never on scheduling, so it is byte-identical
/// between a sequential and a parallel leg of the same campaign.
pub fn distributions_json(dist: &FleetDistributions) -> String {
    format!(
        concat!(
            "{{\"devices\": {}, \"events\": {}, \"frames_delivered\": {}, ",
            "\"frames_dropped_total\": {}, \"frames_dropped_by_reason\": {}, ",
            "\"trace_events\": {}, \"nat_bindings_created\": {}, ",
            "\"nat_bindings_expired\": {}, \"nat_bindings_peak\": {}, ",
            "\"udp1_timeout_ds\": {}, \"max_bindings\": {}, ",
            "\"delay_p50_ns\": {}, \"delay_p99_ns\": {}}}"
        ),
        dist.devices,
        dist.events,
        dist.frames_delivered,
        dist.frames_dropped.total(),
        drop_counts_json(&dist.frames_dropped),
        dist.trace_events,
        dist.nat_bindings_created,
        dist.nat_bindings_expired,
        dist.nat_bindings_peak,
        histogram_json(&dist.udp1_timeout_ds),
        histogram_json(&dist.max_bindings),
        histogram_json(&dist.delay_p50_ns),
        histogram_json(&dist.delay_p99_ns),
    )
}

/// Renders the `household` block of a `/5` manifest.
pub fn household_json(h: &HouseholdFleetSummary) -> String {
    let pair = |(started, done): (u64, u64)| format!("[{started}, {done}]");
    format!(
        concat!(
            "{{\"devices\": {}, \"hosts\": {}, \"flows_per_host\": {}, ",
            "\"web_flows\": {}, \"bulk_flows\": {}, \"keepalive_sessions\": {}, ",
            "\"dns_queries\": {}, \"connect_failures\": {}, ",
            "\"bytes_transferred\": {}, \"bindings_created\": {}, ",
            "\"bindings_expired\": {}, \"bindings_refreshed\": {}, ",
            "\"refusals\": {}, \"churn_per_min_mean\": {:.3}, ",
            "\"exhausted_devices\": {}, \"earliest_onset_secs\": {}, ",
            "\"flow_throughput_kbps\": {}, \"flow_delay_us\": {}, ",
            "\"fairness_jain_mean\": {}}}"
        ),
        h.devices,
        h.hosts,
        h.flows_per_host,
        pair(h.web_flows),
        pair(h.bulk_flows),
        pair(h.keepalive_sessions),
        pair(h.dns_queries),
        h.connect_failures,
        h.bytes_transferred,
        h.bindings_created,
        h.bindings_expired,
        h.bindings_refreshed,
        h.refusals,
        h.churn_per_min_mean(),
        h.exhausted_devices,
        h.earliest_onset_secs.map(|v| format!("{v:.3}")).unwrap_or_else(|| "null".to_string()),
        histogram_json(&h.flow_throughput_kbps),
        histogram_json(&h.flow_delay_us),
        h.fairness_jain_mean().map(|v| format!("{v:.4}")).unwrap_or_else(|| "null".to_string()),
    )
}

/// Renders the `binding_lifecycle` block of a `/7` manifest.
///
/// Deterministic: every field depends only on the campaign seed and fleet
/// composition ([`LifecycleFleetSummary`]'s fold is schedule-independent),
/// so the block is byte-identical across parallelism modes.
pub fn binding_lifecycle_json(s: &LifecycleFleetSummary) -> String {
    let kinds: Vec<String> = s.counts.iter().map(|(name, c)| format!("\"{name}\": {c}")).collect();
    format!(
        concat!(
            "{{\"devices\": {}, \"traced_devices\": {}, \"events_total\": {}, ",
            "\"events_by_kind\": {{{}}}, \"churn_per_min\": {}, ",
            "\"occupancy\": {}, \"refusal_onset_secs\": {}, ",
            "\"exhausted_devices\": {}}}"
        ),
        s.devices,
        s.traced_devices,
        s.counts.total(),
        kinds.join(", "),
        histogram_json(&s.churn_per_min),
        histogram_json(&s.occupancy),
        histogram_json(&s.refusal_onset_secs),
        s.exhausted_devices,
    )
}

/// Renders the full fleet manifest as a JSON string.
///
/// `scheduling` is the parallel (or only) campaign's scheduling metadata;
/// `sequential`, when present, is the full scheduling report of the same
/// campaign under `Parallelism::Sequential` and yields the manifest's
/// `sequential_wall_ms` / `speedup_vs_sequential` fields plus the leading
/// entry of the `/6` `legs` array. `distributions`, when present, becomes
/// the `fleet_distributions` block (rendered as `null` otherwise);
/// `household`, when present, becomes the `/5` `household` block;
/// `binding_lifecycle`, when present, becomes the `/7` `binding_lifecycle`
/// block.
pub fn render_fleet_manifest(
    seed: u64,
    per_device: &[(String, DeviceRunMetrics)],
    scheduling: &SchedulingReport,
    sequential: Option<&SchedulingReport>,
    distributions: Option<&FleetDistributions>,
    household: Option<&HouseholdFleetSummary>,
    binding_lifecycle: Option<&LifecycleFleetSummary>,
) -> String {
    let mut total = DeviceRunMetrics::default();
    for (_, m) in per_device {
        total.wall_ms += m.wall_ms;
        total.events += m.events;
        total.frames_delivered += m.frames_delivered;
        total.frames_dropped.merge(&m.frames_dropped);
        total.trace_events += m.trace_events;
        total.nat_bindings_created += m.nat_bindings_created;
        total.nat_bindings_expired += m.nat_bindings_expired;
        total.nat_bindings_peak = total.nat_bindings_peak.max(m.nat_bindings_peak);
    }
    total.events_per_sec =
        if total.wall_ms > 0.0 { total.events as f64 / (total.wall_ms / 1e3) } else { 0.0 };
    let rows: Vec<String> = per_device.iter().map(|(tag, m)| device_json(tag, m)).collect();
    format!(
        "{{\n  \"schema\": \"{}\",\n  \"seed\": {},\n  \"devices\": {},\n  \"scheduling\": {},\n  \"fleet_distributions\": {},\n  \"household\": {},\n  \"binding_lifecycle\": {},\n  \"totals\": {},\n  \"per_device\": [\n{}\n  ]\n}}\n",
        SCHEMA,
        seed,
        per_device.len(),
        scheduling_json(scheduling, sequential),
        distributions.map(distributions_json).unwrap_or_else(|| "null".to_string()),
        household.map(household_json).unwrap_or_else(|| "null".to_string()),
        binding_lifecycle.map(binding_lifecycle_json).unwrap_or_else(|| "null".to_string()),
        device_json("*", &total).trim_start(),
        rows.join(",\n"),
    )
}

/// Renders the mega-fleet manifest: scheduling plus the population
/// [`FleetDistributions`] block, with `per_device: null` — a 10 000-device
/// campaign is summarized by its distributions, not 10 000 rows.
pub fn render_mega_manifest(
    seed: u64,
    distributions: &FleetDistributions,
    scheduling: &SchedulingReport,
    sequential: Option<&SchedulingReport>,
) -> String {
    format!(
        "{{\n  \"schema\": \"{}\",\n  \"seed\": {},\n  \"devices\": {},\n  \"scheduling\": {},\n  \"fleet_distributions\": {},\n  \"per_device\": null\n}}\n",
        SCHEMA,
        seed,
        distributions.devices,
        scheduling_json(scheduling, sequential),
        distributions_json(distributions),
    )
}

/// Writes `contents` to `path`, creating parent directories as needed.
pub fn write_manifest(path: &Path, contents: &str) -> std::io::Result<()> {
    if let Some(parent) = path.parent() {
        std::fs::create_dir_all(parent)?;
    }
    let mut f = std::fs::File::create(path)?;
    f.write_all(contents.as_bytes())
}

#[cfg(test)]
mod tests {
    use super::*;
    use hgw_core::DropReason;
    use hgw_probe::fleet::{Parallelism, WorkerStats};

    fn test_scheduling() -> SchedulingReport {
        SchedulingReport {
            parallelism: Parallelism::Fixed(4),
            workers: 4,
            host_parallelism: 8,
            batch_size: 2,
            wall_ms: 100.0,
            per_worker: vec![
                WorkerStats {
                    worker: 0,
                    devices_run: 1,
                    busy_ms: 90.0,
                    batches: 1,
                    pool_reused: 0,
                },
                WorkerStats {
                    worker: 1,
                    devices_run: 1,
                    busy_ms: 80.0,
                    batches: 1,
                    pool_reused: 1,
                },
            ],
        }
    }

    #[test]
    fn escape_handles_quotes_and_controls() {
        assert_eq!(json_escape("a\"b\\c\nd"), "a\\\"b\\\\c\\u000ad");
    }

    #[test]
    fn manifest_names_every_drop_reason() {
        let m = DeviceRunMetrics::default();
        let json = render_fleet_manifest(
            7,
            &[("ls1".to_string(), m)],
            &test_scheduling(),
            None,
            None,
            None,
            None,
        );
        for reason in DropReason::ALL {
            assert!(json.contains(reason.name()), "missing key {}", reason.name());
        }
        assert!(json.contains("\"schema\": \"hgw-fleet-manifest/7\""));
        assert!(json.contains("\"device\": \"ls1\""));
        assert!(json.contains("\"nat_bindings_peak\": 0"));
    }

    #[test]
    fn totals_aggregate_across_devices() {
        let a = DeviceRunMetrics { events: 10, nat_bindings_peak: 3, ..Default::default() };
        let b = DeviceRunMetrics { events: 5, nat_bindings_peak: 7, ..Default::default() };
        let json = render_fleet_manifest(
            1,
            &[("a".to_string(), a), ("b".to_string(), b)],
            &test_scheduling(),
            None,
            None,
            None,
            None,
        );
        assert!(json.contains("\"devices\": 2"));
        // The totals row carries the merged event count and max peak.
        assert!(json.contains("\"device\": \"*\", \"wall_ms\": 0.000, \"events\": 15"));
        assert!(json.contains("\"nat_bindings_peak\": 7, \"delay\": null}"));
    }

    #[test]
    fn delay_block_renders_summaries_and_totals_stay_null() {
        let summary = hgw_core::HistogramSummary { count: 4, p50: 10, p90: 20, p99: 30, max: 31 };
        let m = DeviceRunMetrics {
            delay_one_way: Some(summary),
            delay_queue_residency: Some(summary),
            delay_nat_processing: None,
            ..Default::default()
        };
        let json = render_fleet_manifest(
            7,
            &[("ls1".to_string(), m)],
            &test_scheduling(),
            None,
            None,
            None,
            None,
        );
        assert!(
            json.contains(
                "\"delay\": {\"one_way\": {\"count\": 4, \"p50_ns\": 10, \"p90_ns\": 20, \
                 \"p99_ns\": 30, \"max_ns\": 31}"
            ),
            "{json}"
        );
        assert!(json.contains("\"nat_processing\": null"));
        // The totals row never aggregates percentiles.
        assert!(json.contains("\"device\": \"*\""));
        let totals_row = json.lines().find(|l| l.contains("\"device\": \"*\"")).unwrap();
        assert!(totals_row.contains("\"delay\": null"), "{totals_row}");
    }

    /// The sequential-baseline leg paired with [`test_scheduling`].
    fn test_sequential() -> SchedulingReport {
        SchedulingReport {
            parallelism: Parallelism::Sequential,
            workers: 1,
            host_parallelism: 8,
            batch_size: 1,
            wall_ms: 250.0,
            per_worker: vec![],
        }
    }

    #[test]
    fn scheduling_block_reports_speedup() {
        let json = render_fleet_manifest(
            1,
            &[("a".to_string(), DeviceRunMetrics::default())],
            &test_scheduling(),
            Some(&test_sequential()),
            None,
            None,
            None,
        );
        assert!(json.contains("\"mode\": \"fixed(4)\""), "{json}");
        assert!(json.contains("\"workers\": 4"));
        assert!(json.contains("\"host_parallelism\": 8"));
        assert!(json.contains("\"sequential_wall_ms\": 250.000"));
        assert!(json.contains("\"speedup_vs_sequential\": 2.50"));
        assert!(json.contains("\"batch_size\": 2"));
        assert!(json.contains(
            "{\"worker\": 0, \"devices_run\": 1, \"batches\": 1, \"pool_reused\": 0, \
             \"busy_ms\": 90.000}"
        ));
    }

    #[test]
    fn scheduling_block_records_per_leg_wall_clock() {
        let json = render_fleet_manifest(
            1,
            &[("a".to_string(), DeviceRunMetrics::default())],
            &test_scheduling(),
            Some(&test_sequential()),
            None,
            None,
            None,
        );
        // Sequential baseline first, recorded leg second, each with its own
        // mode, worker count, and wall-clock.
        assert!(
            json.contains(
                "\"legs\": [{\"mode\": \"sequential\", \"workers\": 1, \"wall_ms\": 250.000}, \
                 {\"mode\": \"fixed(4)\", \"workers\": 4, \"wall_ms\": 100.000}]"
            ),
            "{json}"
        );
        // Without a baseline the array still names the one measured leg.
        let json = render_fleet_manifest(
            1,
            &[("a".to_string(), DeviceRunMetrics::default())],
            &test_scheduling(),
            None,
            None,
            None,
            None,
        );
        assert!(
            json.contains(
                "\"legs\": [{\"mode\": \"fixed(4)\", \"workers\": 4, \"wall_ms\": 100.000}]"
            ),
            "{json}"
        );
    }

    #[test]
    fn scheduling_block_without_baseline_is_null() {
        let json = render_fleet_manifest(
            1,
            &[("a".to_string(), DeviceRunMetrics::default())],
            &test_scheduling(),
            None,
            None,
            None,
            None,
        );
        assert!(json.contains("\"sequential_wall_ms\": null"));
        assert!(json.contains("\"speedup_vs_sequential\": null"));
        // No aggregate handed in → the block renders as null.
        assert!(json.contains("\"fleet_distributions\": null"));
    }

    #[test]
    fn fleet_distributions_block_renders_cdfs() {
        let owrt = hgw_devices::device("owrt").unwrap();
        let mut dist = FleetDistributions::new();
        dist.record(&owrt, 30.5, Some(&DeviceRunMetrics { events: 9, ..Default::default() }));
        let json = render_fleet_manifest(
            7,
            &[("owrt".to_string(), DeviceRunMetrics::default())],
            &test_scheduling(),
            None,
            Some(&dist),
            None,
            None,
        );
        assert!(json.contains("\"fleet_distributions\": {\"devices\": 1, \"events\": 9"), "{json}");
        // 30.5 s records as 305 ds; the lone sample is every percentile and
        // the single CDF point at fraction 1.
        let b = Histogram::bucket_bound(Histogram::bucket_index(305));
        assert!(json.contains("\"udp1_timeout_ds\": {\"count\": 1, \"p50\": 305"));
        assert!(json.contains(&format!("\"cdf\": [[{b}, 1.000000]]")), "{json}");
        // No telemetry → delay spreads render as null.
        assert!(json.contains("\"delay_p50_ns\": null, \"delay_p99_ns\": null"));
    }

    #[test]
    fn household_block_renders_flow_mix_and_churn() {
        let mut agg = HouseholdFleetSummary::new();
        let mut tb =
            hgw_testbed::Testbed::builder("owrt", hgw_devices::device("owrt").unwrap().policy)
                .seed(3)
                .hosts(2)
                .build();
        let cfg = hgw_probe::household::WorkloadConfig {
            flows_per_host: 2,
            duration: hgw_core::Duration::from_secs(8),
            ..Default::default()
        };
        agg.record(&hgw_probe::household::measure_household(&mut tb, &cfg));
        let json = render_fleet_manifest(
            7,
            &[("owrt".to_string(), DeviceRunMetrics::default())],
            &test_scheduling(),
            None,
            None,
            Some(&agg),
            None,
        );
        assert!(
            json.contains("\"household\": {\"devices\": 1, \"hosts\": 2, \"flows_per_host\": 2"),
            "{json}"
        );
        assert!(json.contains("\"churn_per_min_mean\": "));
        assert!(json.contains("\"bindings_refreshed\": "));
        assert!(json.contains("\"earliest_onset_secs\": null"));
        // Without a household leg the block renders as null.
        let json = render_fleet_manifest(
            7,
            &[("owrt".to_string(), DeviceRunMetrics::default())],
            &test_scheduling(),
            None,
            None,
            None,
            None,
        );
        assert!(json.contains("\"household\": null"), "{json}");
    }

    #[test]
    fn mega_manifest_summarizes_without_per_device_rows() {
        let owrt = hgw_devices::device("owrt").unwrap();
        let mut dist = FleetDistributions::new();
        dist.record(&owrt, 30.5, None);
        dist.record(&owrt, 185.5, None);
        let sequential = SchedulingReport { wall_ms: 400.0, ..test_sequential() };
        let json = render_mega_manifest(11, &dist, &test_scheduling(), Some(&sequential));
        assert!(json.contains("\"schema\": \"hgw-fleet-manifest/7\""));
        assert!(json.contains("\"seed\": 11"));
        assert!(json.contains("\"devices\": 2"));
        assert!(json.contains("\"speedup_vs_sequential\": 4.00"));
        assert!(json.contains("\"per_device\": null"));
        assert!(!json.contains("\"device\": \"owrt\""));
    }
}
