//! End-to-end benchmark of the home-gateway study.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <udp1_fleet|tcp2_bulk|tcp4_ramp|household> \
//!     --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Each workload is a closed loop: one `FleetRunner` campaign after another
//! over the same seeded device list, one sequential worker, each device
//! starting when the previous one finishes. `--trace 0` times untraced
//! campaigns and prints the end-to-end metrics; `--trace 1` alternates
//! untraced and traced campaigns and prints the per-layer metrics. The last
//! line of standard output is the JSON result. See `README.md` for the
//! metric definitions and the layer predictions.

mod observe;
mod report;
mod workload;

use std::hint::black_box;
use std::process::ExitCode;
use std::time::Instant as Wall;

use hgw_devices::DeviceProfile;
use hgw_probe::distributions::FleetDistributions;
use hgw_probe::fleet::{FleetRunner, FleetSample, Parallelism};
use hgw_testbed::Testbed;

use observe::{observed, Kind, SelfTime};
use report::{median, peak_rss_mb, quantile, result_line, thread_cpu_ns, Metric};
use workload::{digest, Counters, Probed, Workload};

/// End-to-end metrics, printed with `--trace 0` (name, unit).
pub(crate) const E2E: [(&str, &str); 5] = [
    ("setup_s", "s"),
    ("devices_per_s", "1/s"),
    ("device_ms_p50", "ms"),
    ("device_ms_p90", "ms"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics, printed with `--trace 1` (name, unit).
pub(crate) const LAYERS: [(&str, &str); 29] = [
    ("devices.sample_ms", "ms"),
    ("testbed.build_us_p50", "us"),
    ("testbed.build_share", "share"),
    ("fleet.overhead_share", "share"),
    ("fleet.batches", "count"),
    ("fleet.pool_reused", "count"),
    ("probe.call_ms_p50", "ms"),
    ("probe.call_ms_p90", "ms"),
    ("core.events_per_device", "count"),
    ("core.ns_per_event", "ns"),
    ("core.pool_hit_ratio", "ratio"),
    ("core.frames_delivered", "count"),
    ("core.peak_queue_bytes", "bytes"),
    ("core.unattributed_share", "share"),
    ("link.tx_frames", "count"),
    ("link.drops_queue", "count"),
    ("link.queue_peak_bytes", "bytes"),
    ("gateway.self_ns_per_frame", "ns"),
    ("gateway.self_share", "share"),
    ("gateway.bindings_created", "count"),
    ("gateway.bindings_refreshed", "count"),
    ("gateway.bindings_expired", "count"),
    ("gateway.refusals", "count"),
    ("gateway.peak_bindings", "count"),
    ("stack.host_self_ns_per_frame", "ns"),
    ("stack.host_self_share", "share"),
    ("stack.switch_self_share", "share"),
    ("wire.frame_bytes_mean", "bytes"),
    ("trace.overhead_share", "share"),
];

/// Metrics printed only on the human-readable lines, for the workloads
/// they apply to (see `README.md` for why they are not in the JSON).
pub(crate) const EXTRA: [(&str, &str); 5] = [
    ("payload_mb_per_s", "MB/s"),
    ("connections_per_s", "1/s"),
    ("device_ms_p99", "ms"),
    ("failed_ratio", "ratio"),
    ("stack.switch_self_ns_per_frame", "ns"),
];

/// Campaigns of each kind a run makes at least, whatever `--seconds` says:
/// the time metrics take each device's median over campaigns.
const MIN_CAMPAIGNS: usize = 3;

/// Expected whole-campaign digests, one `<workload> <seed> <digest>` line
/// each; regenerate from the `digest` line the benchmark prints.
const EXPECTED: &str = include_str!("../expected_digests.txt");

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut it = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(&value).ok_or_else(|| format!("unknown workload {value}"))?,
                )
            }
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad seed {value}"))?),
            "--seconds" => {
                seconds = Some(value.parse().map_err(|_| format!("bad seconds {value}"))?)
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value}")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

/// One device as the fold sees it.
struct Device {
    probed: Probed,
    counters: Counters,
    /// Traced campaigns only: probe call start/end and self time by kind.
    traced: Option<(Wall, Wall, SelfTime)>,
}

/// Everything one campaign folds, in slot order (one sequential worker).
struct Campaign {
    wall_ns: u64,
    /// Per-device wall time by slot: fold to fold, so build, probe and the
    /// fleet's own per-device work.
    device_ns: Vec<u64>,
    digests: Vec<u64>,
    failed: u64,
    payload_bytes: u64,
    connections: u64,
    counters: Counters,
    self_time: SelfTime,
    /// Probe call wall time by slot, traced only.
    probe_ns: Vec<u64>,
    /// (slot, device start, device end, probe start, probe end), traced only.
    spans: Vec<(usize, Wall, Wall, Wall, Wall)>,
    batches: u64,
    pool_reused: u64,
    dist: FleetDistributions,
}

struct Acc {
    last: Wall,
    c: Campaign,
}

fn campaign(w: Workload, devices: &[DeviceProfile], seed: u64, traced: bool) -> Campaign {
    let runner = FleetRunner::new(devices)
        .seed(seed)
        .parallelism(Parallelism::Sequential)
        .telemetry(false)
        .hosts(w.hosts());
    let probe = |tb: &mut Testbed, device: &DeviceProfile| {
        let (probed, traced) = if traced {
            let (probed, start, end, self_time) = observed(tb, |tb| w.probe(tb, device, seed));
            (probed, Some((start, end, self_time)))
        } else {
            (w.probe(tb, device, seed), None)
        };
        let counters = Counters::read(tb);
        Device { probed, counters, traced }
    };
    let init = || Acc {
        last: Wall::now(),
        c: Campaign {
            wall_ns: 0,
            device_ns: vec![0; devices.len()],
            digests: vec![0; devices.len()],
            failed: 0,
            payload_bytes: 0,
            connections: 0,
            counters: Counters::default(),
            self_time: SelfTime::default(),
            probe_ns: vec![0; devices.len()],
            spans: Vec::new(),
            batches: 0,
            pool_reused: 0,
            dist: FleetDistributions::new(),
        },
    };
    let fold = |acc: &mut Acc, s: FleetSample<'_, Device>| {
        let now = Wall::now();
        let c = &mut acc.c;
        c.device_ns[s.slot] = now.duration_since(acc.last).as_nanos() as u64;
        let d = s.result;
        c.digests[s.slot] = digest(&[s.slot as u64, d.probed.result_digest, d.counters.digest()]);
        c.failed += !d.probed.ok as u64;
        c.payload_bytes += d.probed.payload_bytes;
        c.connections += d.probed.connections;
        c.counters.add(&d.counters);
        if let Some(t) = d.probed.udp1_timeout_secs {
            c.dist.record(s.device, t, None);
        }
        if let Some((p0, p1, st)) = d.traced {
            c.probe_ns[s.slot] = p1.duration_since(p0).as_nanos() as u64;
            c.self_time.add(&st);
            c.spans.push((s.slot, acc.last, now, p0, p1));
        }
        acc.last = now;
    };
    let start = Wall::now();
    let report = runner
        .run_fold(probe, init, fold, |_, _| unreachable!("one sequential worker never merges"))
        .expect("fleet campaign infrastructure");
    let mut c = report.aggregate.c;
    c.wall_ns = start.elapsed().as_nanos() as u64;
    // A panicked device is not folded: it keeps digest 0 and counts failed.
    c.failed += report.failures.len() as u64;
    for w in &report.scheduling.per_worker {
        c.batches += w.batches as u64;
        c.pool_reused += w.pool_reused;
    }
    c
}

/// Campaign seed of the warm-up device, fixed so that set-up does the same
/// work for every `--seed`.
const WARM_UP_SEED: u64 = 0;

/// One set-up: sample the device list, then run one warm-up device (the
/// first Table-1 profile) through a campaign.
fn setup(w: Workload, seed: u64, warm: &[DeviceProfile]) -> (Vec<DeviceProfile>, f64, f64) {
    let t0 = Wall::now();
    let devices = w.devices(seed);
    let sample_s = t0.elapsed().as_secs_f64();
    black_box(campaign(w, warm, WARM_UP_SEED, false));
    (devices, sample_s, t0.elapsed().as_secs_f64())
}

/// Bring-up timed on its own, device by device, outside any campaign: the
/// fleet builds each testbed inside `run_fold`, out of the probe's reach.
fn build_pass(w: Workload, devices: &[DeviceProfile], seed: u64) -> Vec<u64> {
    let mut ns = Vec::with_capacity(devices.len());
    for (slot, d) in devices.iter().enumerate() {
        let t = Wall::now();
        let tb = Testbed::builder(d.tag, d.policy.clone())
            .campaign_slot(slot, seed)
            .hosts(w.hosts())
            .build();
        ns.push(t.elapsed().as_nanos() as u64);
        black_box(tb);
    }
    ns
}

/// The expected digest for `(workload, seed)`, if recorded.
fn expected_digest(w: Workload, seed: u64) -> Option<u64> {
    EXPECTED.lines().find_map(|l| {
        let f: Vec<&str> = l.split_whitespace().collect();
        (f.len() == 3 && f[0] == w.name() && f[1].parse() == Ok(seed))
            .then(|| u64::from_str_radix(f[2].trim_start_matches("0x"), 16).expect("digest hex"))
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let w = args.workload;
    let run_start = Wall::now();
    let cpu_start = thread_cpu_ns();

    // Set-up runs before every campaign, so its median samples the whole
    // run rather than the machine's state in its first second.
    let warm = hgw_devices::all_devices()[..1].to_vec();
    let (mut setups, mut samples) = (Vec::new(), Vec::new());
    let mut devices = None;
    let mut untraced: Vec<Campaign> = Vec::new();
    let mut traced: Vec<Campaign> = Vec::new();
    let mut build_ns: Vec<Vec<u64>> = Vec::new();
    let mut peak_rss = 0.0;
    while untraced.len() < MIN_CAMPAIGNS || run_start.elapsed().as_secs_f64() < args.seconds {
        let (sampled, sample_s, setup_s) = setup(w, args.seed, &warm);
        setups.push(setup_s);
        samples.push(sample_s);
        let devices: &[DeviceProfile] = devices.get_or_insert(sampled);
        untraced.push(campaign(w, devices, args.seed, false));
        // The program's footprint peaks in the first campaign; later
        // growth is this benchmark's own per-campaign bookkeeping.
        if untraced.len() == 1 {
            peak_rss = peak_rss_mb();
        }
        if args.trace {
            build_ns.push(build_pass(w, devices, args.seed));
            traced.push(campaign(w, devices, args.seed, true));
        }
    }
    if let (Some(c0), Some(c1)) = (cpu_start, thread_cpu_ns()) {
        let wall = run_start.elapsed().as_nanos() as f64;
        println!("cpu/wall {:.4}", (c1 - c0) as f64 / wall);
    }
    let devices = devices.expect("at least one campaign ran");
    let n = devices.len();

    // Correctness: every campaign must reproduce the first one device by
    // device, traced or not, and the first must match the recorded digest.
    let reference = untraced[0].digests.clone();
    let total: u64 = reference.iter().fold(0u64, |a, &d| a.wrapping_add(d));
    let mut failed = 0u64;
    let mut attempted = 0u64;
    let mut mismatched = 0u64;
    for c in untraced.iter().chain(&traced) {
        attempted += n as u64;
        let bad = c.digests.iter().zip(&reference).filter(|(a, b)| a != b).count() as u64;
        mismatched += bad;
        failed += c.failed.max(bad);
        if c.dist != untraced[0].dist {
            failed += 1;
        }
    }
    let expected = expected_digest(w, args.seed);
    let golden_ok = expected.is_none_or(|e| e == total);
    let correct = failed == 0 && golden_ok;
    println!(
        "workload {} seed {} devices {n} campaigns {} trace {}",
        w.name(),
        args.seed,
        untraced.len() + traced.len(),
        args.trace as u8
    );
    println!("digest {} {} {total:#018x}", w.name(), args.seed);
    match expected {
        Some(e) if e != total => println!("expected digest {e:#018x}: MISMATCH"),
        Some(_) => println!("expected digest: match"),
        None => println!("expected digest: none recorded for this seed"),
    }
    if mismatched > 0 {
        println!("{mismatched} device runs did not reproduce the first campaign");
    }

    let metrics = if args.trace {
        layer_metrics(w, &devices, &untraced, &traced, &build_ns, &samples)
    } else {
        e2e_metrics(&untraced, &setups, peak_rss, failed, attempted)
    };
    for m in &metrics {
        println!("metric {} {} {}", m.name, m.value, m.unit);
    }
    eprintln!("perfbench: {:.1} s", run_start.elapsed().as_secs_f64());
    println!("{}", result_line(correct, attempted, failed, &metrics));
    ExitCode::SUCCESS
}

fn m(name: &'static str, value: f64) -> Metric {
    let unit = E2E
        .iter()
        .chain(LAYERS.iter())
        .chain(EXTRA.iter())
        .find(|(n, _)| *n == name)
        .unwrap_or_else(|| panic!("undeclared metric {name}"))
        .1;
    Metric { name, unit, value }
}

/// Each slot's median over `rows`, one row per campaign (the lower middle
/// for an even count).
///
/// The machine alternates within seconds between a fast state and a
/// contended one about 1.7x slower, and the share of time in each changes
/// from minute to minute (see `README.md`). Whole-run throughput mixes the
/// states in whatever proportion the run met them; a device's median over
/// the run's campaigns stays in the state that held most of the run.
fn typical<'a>(rows: impl IntoIterator<Item = &'a Vec<u64>>) -> Vec<f64> {
    let rows: Vec<&Vec<u64>> = rows.into_iter().collect();
    let mid = (rows.len() - 1) / 2;
    (0..rows[0].len())
        .map(|slot| {
            let mut xs: Vec<u64> = rows.iter().map(|r| r[slot]).collect();
            xs.sort_unstable();
            xs[mid] as f64
        })
        .collect()
}

fn ms(ns: Vec<f64>) -> Vec<f64> {
    ns.into_iter().map(|v| v / 1e6).collect()
}

fn e2e_metrics(
    runs: &[Campaign],
    setups: &[f64],
    peak_rss: f64,
    failed: u64,
    attempted: u64,
) -> Vec<Metric> {
    let device_ms = ms(typical(runs.iter().map(|c| &c.device_ns)));
    let typical_s = device_ms.iter().sum::<f64>() / 1e3;
    let q = |p| quantile(&device_ms, p).unwrap_or_else(|e| panic!("device_ms: {e}"));
    let metrics = vec![
        m("setup_s", median(setups)),
        m("devices_per_s", device_ms.len() as f64 / typical_s),
        m("device_ms_p50", q(0.5)),
        m("device_ms_p90", q(0.9)),
        m("peak_rss_mb", peak_rss),
    ];
    // Human-readable only: these apply to some workloads.
    let (payload, connections) = (runs[0].payload_bytes, runs[0].connections);
    let mut extra = vec![m("failed_ratio", failed as f64 / attempted as f64)];
    if payload > 0 {
        extra.push(m("payload_mb_per_s", payload as f64 / 1e6 / typical_s));
    }
    if connections > 0 {
        extra.push(m("connections_per_s", connections as f64 / typical_s));
    }
    match quantile(&device_ms, 0.99) {
        Ok(v) => extra.push(m("device_ms_p99", v)),
        Err(e) => println!("device_ms_p99 not reported: {e}"),
    }
    for x in &extra {
        println!("metric {} {} {}", x.name, x.value, x.unit);
    }
    let wall_s: f64 = runs.iter().map(|c| c.wall_ns as f64 / 1e9).sum();
    println!(
        "whole run: {} campaigns, {:.1} devices/s",
        runs.len(),
        (runs.len() * device_ms.len()) as f64 / wall_s
    );
    metrics
}

fn layer_metrics(
    w: Workload,
    devices: &[DeviceProfile],
    untraced: &[Campaign],
    traced: &[Campaign],
    build_ns: &[Vec<u64>],
    samples: &[f64],
) -> Vec<Metric> {
    let n = devices.len() as f64;
    let sum = |cs: &[Campaign], f: fn(&Campaign) -> u64| cs.iter().map(f).sum::<u64>() as f64;
    let traced_wall = sum(traced, |c| c.wall_ns);
    let untraced_ns: f64 = typical(untraced.iter().map(|c| &c.device_ns)).iter().sum();
    let traced_ns: f64 = typical(traced.iter().map(|c| &c.device_ns)).iter().sum();
    // Counts over one campaign: every campaign runs the same devices.
    let one = &traced[0];
    let cnt = &one.counters;
    let mut st = SelfTime::default();
    for c in traced {
        st.add(&c.self_time);
    }
    let k = |kind: Kind| st.ns[kind as usize] as f64;
    let frames = |kind: Kind| st.frames[kind as usize] as f64;
    let probe_ms = ms(typical(traced.iter().map(|c| &c.probe_ns)));
    let probe_total = sum(traced, |c| c.probe_ns.iter().sum());
    // One build pass ran beside each traced campaign, which built the same
    // testbeds again inside the fleet.
    let build_total = build_ns.iter().flatten().sum::<u64>() as f64;
    let build_us: Vec<f64> = typical(build_ns).into_iter().map(|ns| ns / 1e3).collect();
    let q = |xs: &[f64], p, what| quantile(xs, p).unwrap_or_else(|e| panic!("{what}: {e}"));
    let per_frame = |kind: Kind| if frames(kind) > 0.0 { k(kind) / frames(kind) } else { 0.0 };
    let all_frames: f64 = st.frames.iter().sum::<u64>() as f64;
    // Human-readable only: only the household testbed has a switch.
    if frames(Kind::Switch) > 0.0 {
        let x = m("stack.switch_self_ns_per_frame", per_frame(Kind::Switch));
        println!("metric {} {} {}", x.name, x.value, x.unit);
    }
    write_spans(w, traced);
    vec![
        m("devices.sample_ms", median(samples) * 1e3),
        m("testbed.build_us_p50", q(&build_us, 0.5, "build_us")),
        m("testbed.build_share", build_total / traced_wall),
        m("fleet.overhead_share", (traced_wall - probe_total - build_total) / traced_wall),
        m("fleet.batches", one.batches as f64),
        m("fleet.pool_reused", one.pool_reused as f64),
        m("probe.call_ms_p50", q(&probe_ms, 0.5, "probe_ms")),
        m("probe.call_ms_p90", q(&probe_ms, 0.9, "probe_ms")),
        m("core.events_per_device", cnt.events as f64 / n),
        m("core.ns_per_event", untraced_ns / cnt.events as f64),
        m("core.pool_hit_ratio", cnt.pool_hits as f64 / (cnt.pool_hits + cnt.pool_misses) as f64),
        m("core.frames_delivered", cnt.frames_delivered as f64),
        m("core.peak_queue_bytes", cnt.peak_queue_bytes as f64),
        m("core.unattributed_share", k(Kind::Unattributed) / traced_wall),
        m("link.tx_frames", cnt.link_tx_frames as f64),
        m("link.drops_queue", cnt.link_drops_queue as f64),
        m("link.queue_peak_bytes", cnt.link_queue_peak_bytes as f64),
        m("gateway.self_ns_per_frame", per_frame(Kind::Gateway)),
        m("gateway.self_share", k(Kind::Gateway) / traced_wall),
        m("gateway.bindings_created", cnt.bindings_created as f64),
        m("gateway.bindings_refreshed", cnt.bindings_refreshed as f64),
        m("gateway.bindings_expired", cnt.bindings_expired as f64),
        m("gateway.refusals", cnt.refusals as f64),
        m("gateway.peak_bindings", cnt.peak_bindings as f64),
        m("stack.host_self_ns_per_frame", per_frame(Kind::Host)),
        m("stack.host_self_share", k(Kind::Host) / traced_wall),
        m("stack.switch_self_share", k(Kind::Switch) / traced_wall),
        m("wire.frame_bytes_mean", st.frame_bytes as f64 / all_frames),
        // 1 - traced devices_per_s / untraced devices_per_s.
        m("trace.overhead_share", 1.0 - untraced_ns / traced_ns),
    ]
}

/// Writes the first traced campaign's spans as a Chrome trace: one device
/// span per slot (id = slot) with the probe call as its child.
fn write_spans(w: Workload, traced: &[Campaign]) {
    let c = &traced[0];
    let Some(&(_, origin, ..)) = c.spans.first() else { return };
    let us = |t: Wall| t.duration_since(origin).as_secs_f64() * 1e6;
    let mut out = String::from("{\"traceEvents\": [\n");
    for (i, &(slot, d0, d1, p0, p1)) in c.spans.iter().enumerate() {
        let sep = if i + 1 == c.spans.len() { "" } else { "," };
        out += &format!(
            "{{\"name\": \"device\", \"ph\": \"X\", \"pid\": 1, \"tid\": 1, \"id\": {slot}, \
             \"ts\": {:.3}, \"dur\": {:.3}}},\n",
            us(d0),
            us(d1) - us(d0)
        );
        out += &format!(
            "{{\"name\": \"probe\", \"ph\": \"X\", \"pid\": 1, \"tid\": 1, \"id\": {slot}, \
             \"ts\": {:.3}, \"dur\": {:.3}, \"args\": {{\"parent\": \"device\"}}}}{sep}\n",
            us(p0),
            us(p1) - us(p0)
        );
    }
    out += "]}\n";
    let dir = std::path::Path::new("perfbench/out");
    let path = dir.join(format!("spans-{}.json", w.name()));
    match std::fs::create_dir_all(dir).and_then(|()| std::fs::write(&path, out)) {
        Ok(()) => println!("spans {}", path.display()),
        Err(e) => println!("spans not written: {e}"),
    }
}

#[cfg(test)]
mod tests {
    use super::typical;

    #[test]
    fn typical_is_each_slots_median_over_campaigns() {
        let rows = [vec![3, 1, 7], vec![1, 5, 7], vec![2, 9, 7]];
        assert_eq!(typical(rows.iter()), vec![2.0, 5.0, 7.0]);
        let even = [vec![4], vec![1], vec![3], vec![2]];
        assert_eq!(typical(even.iter()), vec![2.0], "lower middle of an even count");
    }
}
