//! Fleet metrics run: drives a fixed workload (one TCP upload plus a
//! UDP-1 binding-timeout search) through every device of Table 1 — once
//! sequentially, once with the configured parallelism — verifies the two
//! campaigns produced identical results and per-device counters,
//! prints a per-device scorecard plus the measured wall-clock speedup, and
//! writes the machine-readable run manifests
//! (`target/figures/manifest.json` and the repo-level `BENCH_fleet.json`).
//! The manifests hold no wall clock, so a run with the default environment
//! rewrites the committed files byte for byte; the timings stay on stdout.
//!
//! `HGW_FLEET_PARALLELISM` picks the parallel leg's mode (default `4`, a
//! fixed pool so the committed manifest is host-independent); `HGW_SEED`
//! and `HGW_FLEET_BYTES` parameterize the workload.
//!
//! Both legs run with telemetry on, so the manifest's per-device `delay`
//! blocks are populated and the parallel leg's span timelines are exported
//! as a Chrome trace-event file (`target/figures/trace.json`) loadable in
//! Perfetto or `chrome://tracing`.
//!
//! # Mega-fleet mode
//!
//! `HGW_FLEET_DEVICES=N` (N > 0) switches to the mega-fleet campaign: `N`
//! synthetic profiles drawn from the Table 1 profile space
//! ([`hgw_devices::synthetic_fleet`]), a UDP-1-only probe, and streaming
//! aggregation through [`FleetRunner::run_fold`] into
//! [`FleetDistributions`] — no per-device rows are kept, so memory stays
//! flat at any fleet size. Both legs (sequential, then the configured
//! parallelism) must produce the bit-identical aggregate; the run prints
//! the binding-timeout CDF and binding-cap histogram and writes
//! `target/figures/megafleet.json`, `results/megafleet.json`, and the
//! human-readable `results/megafleet.txt`.
//!
//! # Household leg
//!
//! The standard (non-mega) run finishes with a household campaign: every
//! device re-runs with `HGW_HOUSEHOLD_HOSTS` DHCP hosts (default 4) behind
//! its gateway, each driving `HGW_HOUSEHOLD_FLOWS` concurrent flows
//! (default 8) of the deterministic web/bulk/keepalive/DNS mixture for
//! `HGW_HOUSEHOLD_SECS` of virtual time (default 30). The leg runs once
//! sequentially and once with the configured parallelism, asserts the
//! per-device [`HouseholdReport`]s are bit-identical, and folds them into
//! the manifest's `household` and `binding_lifecycle` blocks. Set
//! `HGW_HOUSEHOLD_HOSTS=0` to skip the leg (both blocks render as `null`).

use std::path::Path;

use hgw_bench::manifest::{render_fleet_manifest, render_mega_manifest, write_manifest};
use hgw_bench::{env_u64, env_usize, figures_dir};
use hgw_devices::{all_devices, device, synthetic_fleet, DeviceProfile};
use hgw_probe::distributions::{cdf_points, FleetDistributions};
use hgw_probe::fleet::{
    FleetError, FleetRunner, FleetSample, LifecycleFleetSummary, Parallelism, SchedulingReport,
};
use hgw_probe::household::{
    measure_household, HouseholdFleetSummary, HouseholdReport, WorkloadConfig,
};
use hgw_probe::throughput::{run_transfer, Direction};
use hgw_probe::udp_timeout::measure_udp1;
use hgw_stats::TextTable;

fn main() {
    let mega_devices = env_usize("HGW_FLEET_DEVICES", 0);
    let result = if mega_devices > 0 { run_mega(mega_devices) } else { run() };
    if let Err(e) = result {
        eprintln!("fleet run failed: {e}");
        std::process::exit(1);
    }
}

fn run() -> Result<(), FleetError> {
    let seed = env_u64("HGW_SEED", 7);
    let bytes = env_u64("HGW_FLEET_BYTES", 256 * 1024);
    // The parallel leg defaults to a fixed 4-worker pool so the committed
    // BENCH_fleet.json scheduling block is reproducible across hosts with
    // different core counts; `HGW_FLEET_PARALLELISM` still overrides.
    let parallelism = Parallelism::from_env_or(Parallelism::Fixed(4));
    let devices = all_devices();

    let probe = |tb: &mut hgw_testbed::Testbed, _: &DeviceProfile| {
        run_transfer(tb, 5001, Direction::Upload, bytes);
        measure_udp1(tb, 20_000).timeout_secs.to_bits()
    };
    let runner = FleetRunner::new(&devices).seed(seed).telemetry(true);

    let sequential = runner.parallelism(Parallelism::Sequential).run(probe)?;
    let seq_scheduling = sequential.scheduling.clone();
    let parallel = runner.parallelism(parallelism).run(probe)?;
    let scheduling = parallel.scheduling.clone();

    // Span timelines, per device, for the Perfetto export (taken before
    // into_results_with_metrics consumes the report).
    let timelines: Vec<(String, hgw_core::SpanTimeline)> = parallel
        .devices
        .iter()
        .filter_map(|d| d.spans.as_ref().map(|s| (d.tag.clone(), s.clone())))
        .collect();

    // The determinism guarantee, enforced on every metrics run: identical
    // probe results and identical deterministic counters across modes.
    let seq_results = sequential.into_results_with_metrics()?;
    let par_results = parallel.into_results_with_metrics()?;
    for ((seq_tag, seq_r, seq_m), (par_tag, par_r, par_m)) in
        seq_results.iter().zip(par_results.iter())
    {
        assert_eq!(seq_tag, par_tag, "device order must not depend on scheduling");
        assert_eq!(seq_r, par_r, "{seq_tag}: probe result changed under {parallelism}");
        assert_eq!(seq_m, par_m, "{seq_tag}: counters changed under {parallelism}");
    }

    // Population view of the same campaign, for the manifest's
    // fleet_distributions block. Deterministic, so either leg would do.
    let mut dist = FleetDistributions::new();
    for (tag, bits, m) in &par_results {
        let profile = device(tag).expect("fleet tags come from Table 1");
        dist.record(&profile, f64::from_bits(*bits), Some(m));
    }

    let mut table = TextTable::new(&[
        "device",
        "events",
        "delivered",
        "dropped",
        "nat_created",
        "nat_expired",
        "nat_peak",
    ]);
    for (tag, _, m) in &par_results {
        table.row(vec![
            tag.clone(),
            m.events.to_string(),
            m.frames_delivered.to_string(),
            m.frames_dropped.total().to_string(),
            m.nat_bindings_created.to_string(),
            m.nat_bindings_expired.to_string(),
            m.nat_bindings_peak.to_string(),
        ]);
    }
    println!("{}", table.render());
    print_scheduling(&scheduling, &seq_scheduling);

    let (household, lifecycle) = match run_household(&devices, seed, parallelism)? {
        Some((h, l)) => (Some(h), Some(l)),
        None => (None, None),
    };

    let per_device: Vec<_> = par_results.into_iter().map(|(tag, _, m)| (tag, m)).collect();
    let json = render_fleet_manifest(
        seed,
        &per_device,
        &scheduling,
        Some(&dist),
        household.as_ref(),
        lifecycle.as_ref(),
    );
    for path in [figures_dir().join("manifest.json"), Path::new("BENCH_fleet.json").to_path_buf()] {
        match write_manifest(&path, &json) {
            Ok(()) => println!("[manifest written to {}]", path.display()),
            Err(e) => eprintln!("warning: could not write {}: {e}", path.display()),
        }
    }

    let threads: Vec<(String, &hgw_core::SpanTimeline)> =
        timelines.iter().map(|(tag, t)| (tag.clone(), t)).collect();
    let trace = hgw_core::render_chrome_trace(&threads);
    let trace_path = figures_dir().join("trace.json");
    match write_manifest(&trace_path, &trace) {
        Ok(()) => {
            println!("[span timeline written to {} — load in Perfetto]", trace_path.display())
        }
        Err(e) => eprintln!("warning: could not write {}: {e}", trace_path.display()),
    }
    Ok(())
}

/// The household leg: a multi-host mixed workload on every device, run
/// under both parallelism modes, checked for bit-identity, folded into the
/// manifest's `household` and `binding_lifecycle` blocks (the latter from
/// the always-on NAT lifecycle counters). Returns `None` when disabled via
/// `HGW_HOUSEHOLD_HOSTS=0`.
fn run_household(
    devices: &[DeviceProfile],
    seed: u64,
    parallelism: Parallelism,
) -> Result<Option<(HouseholdFleetSummary, LifecycleFleetSummary)>, FleetError> {
    let hosts = env_usize("HGW_HOUSEHOLD_HOSTS", 4);
    if hosts == 0 {
        return Ok(None);
    }
    let cfg = WorkloadConfig {
        flows_per_host: env_usize("HGW_HOUSEHOLD_FLOWS", 8),
        duration: hgw_core::Duration::from_secs(env_u64("HGW_HOUSEHOLD_SECS", 30)),
        ..WorkloadConfig::default()
    };
    println!(
        "household: {hosts} hosts x {} flows x {} s on {} devices...",
        cfg.flows_per_host,
        cfg.duration.as_secs(),
        devices.len()
    );
    let probe = |tb: &mut hgw_testbed::Testbed, _: &DeviceProfile| measure_household(tb, &cfg);
    let runner = FleetRunner::new(devices).seed(seed).hosts(hosts);

    let seq =
        runner.parallelism(Parallelism::Sequential).run(probe)?.into_results_with_metrics()?;
    let par = runner.parallelism(parallelism).run(probe)?.into_results_with_metrics()?;
    for ((seq_tag, seq_r, seq_m), (par_tag, par_r, par_m)) in seq.iter().zip(par.iter()) {
        assert_eq!(seq_tag, par_tag, "household device order must not depend on scheduling");
        assert_eq!(seq_r, par_r, "{seq_tag}: household report changed under {parallelism}");
        assert_eq!(
            seq_m, par_m,
            "{seq_tag}: household lifecycle metrics changed under {parallelism}"
        );
    }

    let mut agg = HouseholdFleetSummary::new();
    let mut lifecycle = LifecycleFleetSummary::default();
    for (_, r, m) in &par {
        agg.record(r);
        lifecycle.record(m, r.churn_per_min);
    }
    let reports: Vec<(String, HouseholdReport)> =
        par.into_iter().map(|(tag, r, _)| (tag, r)).collect();
    print_household(&agg, &lifecycle, &reports);
    Ok(Some((agg, lifecycle)))
}

fn print_household(
    agg: &HouseholdFleetSummary,
    lifecycle: &LifecycleFleetSummary,
    per_device: &[(String, HouseholdReport)],
) {
    let mut table = TextTable::new(&[
        "device",
        "web s/d",
        "bulk s/d",
        "ka s/d",
        "dns s/a",
        "churn/min",
        "exhaust_s",
        "jain",
    ]);
    for (tag, r) in per_device {
        table.row(vec![
            tag.clone(),
            format!("{}/{}", r.web_flows.0, r.web_flows.1),
            format!("{}/{}", r.bulk_flows.0, r.bulk_flows.1),
            format!("{}/{}", r.keepalive_sessions.0, r.keepalive_sessions.1),
            format!("{}/{}", r.dns_queries.0, r.dns_queries.1),
            format!("{:.1}", r.churn_per_min),
            r.port_exhaustion_onset_secs.map(|v| format!("{v:.1}")).unwrap_or_else(|| "-".into()),
            if r.fairness_jain.is_finite() {
                format!("{:.3}", r.fairness_jain)
            } else {
                "-".into()
            },
        ]);
    }
    println!("{}", table.render());
    println!(
        "household totals: {} bytes moved, churn {:.1}/min mean, {} device(s) hit exhaustion{}",
        agg.bytes_transferred,
        agg.churn_per_min_mean(),
        agg.exhausted_devices,
        agg.earliest_onset_secs.map(|v| format!(" (earliest at {v:.1} s)")).unwrap_or_default(),
    );
    println!(
        "binding lifecycle: {} events across {}/{} traced device(s); churn/min p50 {} p90 {}; occupancy p90 {}",
        lifecycle.counts.total(),
        lifecycle.traced_devices,
        lifecycle.devices,
        lifecycle.churn_per_min.quantile(0.50),
        lifecycle.churn_per_min.quantile(0.90),
        lifecycle.occupancy.quantile(0.90),
    );
}

/// Prints the campaign's wall clock against its sequential baseline, with
/// a loud warning when the parallel leg lost, and the per-worker split.
/// Timings vary run to run, so they go to stdout and never into a
/// committed file.
fn print_scheduling(scheduling: &SchedulingReport, sequential: &SchedulingReport) {
    let speedup =
        if scheduling.wall_ms > 0.0 { sequential.wall_ms / scheduling.wall_ms } else { 0.0 };
    println!(
        "scheduling: mode {} → {} worker(s) on a {}-way host; batch {}; wall {:.1} ms vs {:.1} ms sequential (speedup {:.2}x)",
        scheduling.parallelism,
        scheduling.workers,
        scheduling.host_parallelism,
        scheduling.batch_size,
        scheduling.wall_ms,
        sequential.wall_ms,
        speedup,
    );
    if scheduling.workers > 1 && speedup > 0.0 && speedup < 1.0 {
        println!(
            "warning: parallel leg ({} workers) LOST to sequential — speedup {speedup:.2}x < 1; \
             per-device runs may be too short to amortize scheduling overhead",
            scheduling.workers,
        );
    }
    for w in &scheduling.per_worker {
        println!(
            "  worker {}: {} devices in {} batches, {} warm-pool reuses, busy {:.1} ms",
            w.worker, w.devices_run, w.batches, w.pool_reused, w.busy_ms
        );
    }
}

/// The mega-fleet campaign: N sampled profiles, streaming fold, population
/// report. See the module docs for the emitted artifacts.
fn run_mega(n: usize) -> Result<(), FleetError> {
    let seed = env_u64("HGW_SEED", 7);
    let parallelism = Parallelism::from_env_or(Parallelism::Fixed(4));
    let fleet = synthetic_fleet(seed, n);

    // UDP-1 only: the binding-timeout search is the paper's headline
    // measurement and keeps a 10 000-device campaign tractable.
    let probe =
        |tb: &mut hgw_testbed::Testbed, _: &DeviceProfile| measure_udp1(tb, 20_000).timeout_secs;
    let init = FleetDistributions::new;
    let fold = |acc: &mut FleetDistributions, s: FleetSample<'_, f64>| {
        acc.record(s.device, s.result, Some(&s.metrics));
    };
    let merge = |acc: &mut FleetDistributions, part: FleetDistributions| acc.merge(&part);
    let runner = FleetRunner::new(&fleet).seed(seed);

    println!("mega-fleet: {n} synthetic devices (seed {seed}), sequential leg...");
    let seq = runner.parallelism(Parallelism::Sequential).run_fold(probe, init, fold, merge)?;
    println!("mega-fleet: parallel leg ({parallelism})...");
    let par = runner.parallelism(parallelism).run_fold(probe, init, fold, merge)?;

    assert!(seq.failures.is_empty(), "sequential failures: {:?}", seq.failures);
    assert!(par.failures.is_empty(), "parallel failures: {:?}", par.failures);
    assert_eq!(
        seq.aggregate, par.aggregate,
        "mega-fleet aggregate changed under {parallelism} — run_fold determinism broken"
    );
    let dist = &par.aggregate;

    print_scheduling(&par.scheduling, &seq.scheduling);
    let report = render_mega_report(n, seed, dist);
    println!("{report}");

    let json = render_mega_manifest(seed, dist, &par.scheduling);
    for path in
        [figures_dir().join("megafleet.json"), Path::new("results/megafleet.json").to_path_buf()]
    {
        match write_manifest(&path, &json) {
            Ok(()) => println!("[manifest written to {}]", path.display()),
            Err(e) => eprintln!("warning: could not write {}: {e}", path.display()),
        }
    }
    let txt_path = Path::new("results/megafleet.txt");
    match write_manifest(txt_path, &report) {
        Ok(()) => println!("[report written to {}]", txt_path.display()),
        Err(e) => eprintln!("warning: could not write {}: {e}", txt_path.display()),
    }
    Ok(())
}

/// Renders the human-readable mega-fleet report: population summary,
/// UDP-1 binding-timeout CDF, and binding-cap histogram.
fn render_mega_report(n: usize, seed: u64, dist: &FleetDistributions) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "mega-fleet report: {n} devices sampled from the Table 1 profile space (seed {seed})\n"
    ));
    out.push_str(&format!(
        "totals: {} events, {} frames delivered, {} dropped, {} NAT bindings created\n\n",
        dist.events,
        dist.frames_delivered,
        dist.frames_dropped.total(),
        dist.nat_bindings_created,
    ));

    let t = &dist.udp1_timeout_ds;
    out.push_str(&format!(
        "UDP-1 binding timeout (population of {}): p50 {:.1} s, p90 {:.1} s, p99 {:.1} s, max {:.1} s\n",
        t.count(),
        t.quantile(0.50) as f64 / 10.0,
        t.quantile(0.90) as f64 / 10.0,
        t.quantile(0.99) as f64 / 10.0,
        t.max() as f64 / 10.0,
    ));
    let mut cdf = TextTable::new(&["timeout <= (s)", "fraction of fleet"]);
    for (bound, frac) in decimate(cdf_points(t), 16) {
        cdf.row(vec![format!("{:.1}", bound as f64 / 10.0), format!("{frac:.4}")]);
    }
    out.push_str(&cdf.render());
    out.push('\n');

    out.push_str(&format!(
        "binding cap (population of {}): p50 {}, p90 {}, max {}\n",
        dist.max_bindings.count(),
        dist.max_bindings.quantile(0.50),
        dist.max_bindings.quantile(0.90),
        dist.max_bindings.max(),
    ));
    let mut caps = TextTable::new(&["max bindings (bucket <=)", "devices"]);
    for (bound, count) in dist.max_bindings.nonzero_buckets() {
        caps.row(vec![bound.to_string(), count.to_string()]);
    }
    out.push_str(&caps.render());
    out
}

/// Keeps at most `keep` evenly-spaced points (always including the last),
/// so a 10 000-device CDF prints as a readable table.
fn decimate(points: Vec<(u64, f64)>, keep: usize) -> Vec<(u64, f64)> {
    if points.len() <= keep || keep < 2 {
        return points;
    }
    let last = points.len() - 1;
    (0..keep).map(|i| points[i * last / (keep - 1)]).collect()
}
