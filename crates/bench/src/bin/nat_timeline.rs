//! NAT binding-lifecycle inspector: records a traced run on one Table 1
//! device and inspects `hgw-nat-timeline/1` JSON dumps.
//!
//! ```text
//! nat_timeline record <device> [--probe udp1|household] [--seed S]
//!                     [--hosts H] [--flows F] [--secs S] [--out PATH]
//! nat_timeline summarize <timeline.json>          # per-kind counts, full lives
//! nat_timeline filter <timeline.json> [--proto P] [--port N] [--flow HEX]
//! nat_timeline diff <a.json> <b.json>             # per-kind count deltas
//! ```
//!
//! `record` always runs the probe twice — traced and untraced — and fails
//! (exit 1) if tracing changed the measurement, so a CI invocation doubles
//! as the bit-identity smoke check. One dump holds one device; cross-device
//! filtering is a matter of recording per device and `diff`-ing the files.
//!
//! Exit codes: `0` success, `1` unreadable dump / identity violation, `2` usage.

use std::collections::BTreeMap;
use std::path::PathBuf;

use hgw_bench::figures_dir;
use hgw_bench::json::{self, Value};
use hgw_bench::manifest::write_manifest;
use hgw_core::{BindingLifecycle, Duration, EventLog};
use hgw_devices::device;
use hgw_probe::household::{
    flow_binding_histories, measure_household, measure_household_traced, FlowBindingHistory,
    WorkloadConfig,
};
use hgw_probe::udp_timeout::measure_udp1;
use hgw_stats::TextTable;
use hgw_testbed::Testbed;

const SCHEMA: &str = "hgw-nat-timeline/1";

// ---------------------------------------------------------------------------
// record: run a traced probe and dump the per-flow timelines
// ---------------------------------------------------------------------------

struct RecordOpts {
    device: String,
    probe: String,
    seed: u64,
    hosts: usize,
    flows: usize,
    secs: u64,
    out: Option<PathBuf>,
}

impl RecordOpts {
    fn new(device: &str) -> RecordOpts {
        RecordOpts {
            device: device.to_string(),
            probe: "udp1".to_string(),
            seed: 7,
            hosts: 3,
            flows: 4,
            secs: 10,
            out: None,
        }
    }
}

/// [`measure_udp1`] under lifecycle tracing: the search traffic itself
/// exercises full binding lives (create, keepalive refreshes, expiry), so
/// the timeline shows one complete life per trial flow.
fn traced_udp1(tb: &mut Testbed, server_port: u16) -> (f64, Vec<FlowBindingHistory>) {
    tb.topo.enable_lifecycle_tracing();
    tb.topo.sim.attach_observer(Box::new(EventLog::new()));
    let m = measure_udp1(tb, server_port);
    let log = tb.topo.sim.detach_observer().expect("udp1 trace observer present");
    let log = log.as_any().downcast_ref::<EventLog>().expect("udp1 observer is an EventLog");
    (m.timeout_secs, flow_binding_histories(log))
}

fn record(opts: &RecordOpts) -> Result<(), String> {
    let dev = device(&opts.device)
        .ok_or_else(|| format!("unknown device tag {:?} (see Table 1 tags)", opts.device))?;
    let build =
        |hosts: usize| Testbed::builder(dev.tag, dev.policy).seed(opts.seed).hosts(hosts).build();
    let histories = match opts.probe.as_str() {
        "udp1" => {
            let (traced, histories) = traced_udp1(&mut build(1), 20_000);
            let plain = measure_udp1(&mut build(1), 20_000).timeout_secs;
            if traced != plain {
                return Err(format!(
                    "tracing changed the UDP-1 measurement on {}: {traced} s traced vs {plain} s plain",
                    dev.tag
                ));
            }
            println!(
                "udp1 timeout {traced:.1} s on {} ({} flows traced)",
                dev.tag,
                histories.len()
            );
            histories
        }
        "household" => {
            let cfg = WorkloadConfig {
                flows_per_host: opts.flows,
                duration: Duration::from_secs(opts.secs),
                ..WorkloadConfig::default()
            };
            let (traced, histories) = measure_household_traced(&mut build(opts.hosts), &cfg);
            let plain = measure_household(&mut build(opts.hosts), &cfg);
            if traced != plain {
                return Err(format!(
                    "tracing changed the household report on {} — lifecycle purity broken",
                    dev.tag
                ));
            }
            println!(
                "household on {}: {} hosts x {} flows x {} s, churn {:.1}/min ({} flows traced)",
                dev.tag,
                opts.hosts,
                opts.flows,
                opts.secs,
                traced.churn_per_min,
                histories.len()
            );
            histories
        }
        other => return Err(format!("usage: unknown probe {other:?} (udp1 or household)")),
    };

    let out = opts.out.clone().unwrap_or_else(|| figures_dir().join("nat_timeline.json"));
    let json = render_timeline(opts, &histories);
    write_manifest(&out, &json).map_err(|e| format!("could not write {}: {e}", out.display()))?;
    println!("[timeline written to {}]", out.display());
    Ok(())
}

fn event_json(at: hgw_core::Instant, lc: BindingLifecycle) -> String {
    let extra = match lc {
        BindingLifecycle::Created { port_preserved } => {
            format!(", \"port_preserved\": {port_preserved}")
        }
        BindingLifecycle::Refused { reason } => format!(", \"reason\": \"{}\"", reason.name()),
        _ => String::new(),
    };
    format!("{{\"t_ns\": {}, \"kind\": \"{}\"{extra}}}", at.as_nanos(), lc.kind_name())
}

fn render_timeline(opts: &RecordOpts, histories: &[FlowBindingHistory]) -> String {
    let mut flows = Vec::with_capacity(histories.len());
    for h in histories {
        let events: Vec<String> = h.events.iter().map(|&(at, lc)| event_json(at, lc)).collect();
        flows.push(format!(
            "    {{\"flow\": \"{:#018x}\", \"proto\": {}, \"external_port\": {}, \"events\": [\n      {}\n    ]}}",
            h.flow.0,
            h.proto,
            h.external_port,
            events.join(",\n      "),
        ));
    }
    format!(
        "{{\n  \"schema\": \"{SCHEMA}\",\n  \"device\": \"{}\",\n  \"probe\": \"{}\",\n  \"seed\": {},\n  \"flows\": [\n{}\n  ]\n}}\n",
        opts.device,
        opts.probe,
        opts.seed,
        flows.join(",\n"),
    )
}

// ---------------------------------------------------------------------------
// summarize / filter / diff: inspect a written dump
// ---------------------------------------------------------------------------

#[derive(Debug)]
struct FlowRow {
    flow: String,
    proto: u64,
    external_port: u64,
    /// `(t_ns, kind)` in emission order.
    events: Vec<(u64, String)>,
}

#[derive(Debug)]
struct Timeline {
    device: String,
    probe: String,
    flows: Vec<FlowRow>,
}

fn load_timeline(path: &str) -> Result<Timeline, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("could not read {path}: {e}"))?;
    let root = json::parse(&text).map_err(|e| format!("{path}: {e}"))?;
    let obj = root.as_obj().ok_or_else(|| format!("{path}: top level is not an object"))?;
    let get_str = |key: &str| -> Result<String, String> {
        Ok(json::field(obj, key)
            .map_err(|e| format!("{path}: {e}"))?
            .as_str()
            .ok_or_else(|| format!("{path}: {key} is not a string"))?
            .to_string())
    };
    let schema = get_str("schema")?;
    if schema != SCHEMA {
        return Err(format!("{path}: unsupported schema {schema:?}"));
    }
    let flows = json::field(obj, "flows")
        .map_err(|e| format!("{path}: {e}"))?
        .as_arr()
        .ok_or_else(|| format!("{path}: flows is not an array"))?
        .iter()
        .map(|row| parse_flow(path, row))
        .collect::<Result<Vec<_>, String>>()?;
    Ok(Timeline { device: get_str("device")?, probe: get_str("probe")?, flows })
}

fn parse_flow(path: &str, row: &Value) -> Result<FlowRow, String> {
    let obj = row.as_obj().ok_or_else(|| format!("{path}: flow is not an object"))?;
    let get_u64 = |key: &str| {
        json::field(obj, key)
            .map_err(|e| format!("{path}: {e}"))?
            .as_u64()
            .ok_or_else(|| format!("{path}: {key} is not integral"))
    };
    let events = json::field(obj, "events")
        .map_err(|e| format!("{path}: {e}"))?
        .as_arr()
        .ok_or_else(|| format!("{path}: events is not an array"))?
        .iter()
        .map(|ev| -> Result<(u64, String), String> {
            let obj = ev.as_obj().ok_or_else(|| format!("{path}: event is not an object"))?;
            let t = json::field(obj, "t_ns")
                .map_err(|e| format!("{path}: {e}"))?
                .as_u64()
                .ok_or_else(|| format!("{path}: t_ns is not integral"))?;
            let kind = json::field(obj, "kind")
                .map_err(|e| format!("{path}: {e}"))?
                .as_str()
                .ok_or_else(|| format!("{path}: kind is not a string"))?
                .to_string();
            Ok((t, kind))
        })
        .collect::<Result<Vec<_>, String>>()?;
    Ok(FlowRow {
        flow: json::field(obj, "flow")
            .map_err(|e| format!("{path}: {e}"))?
            .as_str()
            .ok_or_else(|| format!("{path}: flow is not a string"))?
            .to_string(),
        proto: get_u64("proto")?,
        external_port: get_u64("external_port")?,
        events,
    })
}

fn kind_counts(t: &Timeline) -> BTreeMap<&str, usize> {
    let mut counts: BTreeMap<&str, usize> = BTreeMap::new();
    for f in &t.flows {
        for (_, kind) in &f.events {
            *counts.entry(kind.as_str()).or_default() += 1;
        }
    }
    counts
}

/// A flow whose timeline shows a complete binding life: it was created
/// and it expired (the UDP-1 acceptance shape).
fn is_full_life(f: &FlowRow) -> bool {
    f.events.iter().any(|(_, k)| k == "created") && f.events.iter().any(|(_, k)| k == "expired")
}

fn summarize(path: &str) -> Result<(), String> {
    let t = load_timeline(path)?;
    let events: usize = t.flows.iter().map(|f| f.events.len()).sum();
    println!("nat timeline: {path}");
    println!("device: {} (probe {})", t.device, t.probe);
    println!(
        "flows: {} ({} with a complete created→expired life), events: {}",
        t.flows.len(),
        t.flows.iter().filter(|f| is_full_life(f)).count(),
        events,
    );
    let mut table = TextTable::new(&["lifecycle kind", "count"]);
    for (kind, count) in kind_counts(&t) {
        table.row(vec![kind.to_string(), count.to_string()]);
    }
    println!("{}", table.render());
    Ok(())
}

struct Filter {
    proto: Option<u64>,
    port: Option<u64>,
    flow: Option<String>,
}

fn filter(path: &str, f: &Filter) -> Result<(), String> {
    let t = load_timeline(path)?;
    let mut matched = 0usize;
    for flow in &t.flows {
        if f.proto.is_some_and(|p| p != flow.proto)
            || f.port.is_some_and(|p| p != flow.external_port)
            || f.flow.as_deref().is_some_and(|id| !flow.flow.ends_with(id.trim_start_matches("0x")))
        {
            continue;
        }
        matched += 1;
        let life: Vec<String> = flow
            .events
            .iter()
            .map(|(t_ns, kind)| format!("{kind}@{:.3}s", *t_ns as f64 / 1e9))
            .collect();
        println!(
            "{} proto {} port {}: {}",
            flow.flow,
            flow.proto,
            flow.external_port,
            life.join(" -> ")
        );
    }
    eprintln!("{} of {} flows matched", matched, t.flows.len());
    Ok(())
}

fn diff(path_a: &str, path_b: &str) -> Result<(), String> {
    let a = load_timeline(path_a)?;
    let b = load_timeline(path_b)?;
    let ca = kind_counts(&a);
    let cb = kind_counts(&b);
    let mut table = TextTable::new(&["lifecycle kind", path_a, path_b, "delta"]);
    let kinds: std::collections::BTreeSet<&str> = ca.keys().chain(cb.keys()).copied().collect();
    for kind in kinds {
        let na = *ca.get(kind).unwrap_or(&0) as i64;
        let nb = *cb.get(kind).unwrap_or(&0) as i64;
        table.row(vec![kind.to_string(), na.to_string(), nb.to_string(), format!("{:+}", nb - na)]);
    }
    println!("{}", table.render());
    println!(
        "flows: {} ({}) -> {} ({}), {:+}",
        a.flows.len(),
        a.device,
        b.flows.len(),
        b.device,
        b.flows.len() as i64 - a.flows.len() as i64,
    );
    Ok(())
}

// ---------------------------------------------------------------------------
// dispatch
// ---------------------------------------------------------------------------

const USAGE: &str = "usage:
  nat_timeline record <device> [--probe udp1|household] [--seed S] [--hosts H] [--flows F] [--secs S] [--out PATH]
  nat_timeline summarize <timeline.json>
  nat_timeline filter <timeline.json> [--proto P] [--port N] [--flow HEX]
  nat_timeline diff <a.json> <b.json>";

fn run(args: &[String]) -> Result<(), String> {
    match args {
        [cmd, dev, rest @ ..] if cmd == "record" => {
            let mut opts = RecordOpts::new(dev);
            let mut it = rest.iter();
            while let Some(flag) = it.next() {
                let value = it.next().ok_or_else(|| format!("usage: {flag} requires a value"))?;
                let int =
                    || value.parse::<u64>().map_err(|_| format!("usage: {flag} wants an integer"));
                match flag.as_str() {
                    "--probe" => opts.probe = value.clone(),
                    "--seed" => opts.seed = int()?,
                    "--hosts" => opts.hosts = int()? as usize,
                    "--flows" => opts.flows = int()? as usize,
                    "--secs" => opts.secs = int()?,
                    "--out" => opts.out = Some(PathBuf::from(value)),
                    other => return Err(format!("usage: unknown flag {other:?}")),
                }
            }
            record(&opts)
        }
        [cmd, path] if cmd == "summarize" => summarize(path),
        [cmd, a, b] if cmd == "diff" => diff(a, b),
        [cmd, path, rest @ ..] if cmd == "filter" => {
            let mut f = Filter { proto: None, port: None, flow: None };
            let mut it = rest.iter();
            while let Some(flag) = it.next() {
                let value = it.next().ok_or_else(|| format!("usage: {flag} requires a value"))?;
                let int =
                    || value.parse::<u64>().map_err(|_| format!("usage: {flag} wants an integer"));
                match flag.as_str() {
                    "--proto" => f.proto = Some(int()?),
                    "--port" => f.port = Some(int()?),
                    "--flow" => f.flow = Some(value.clone()),
                    other => return Err(format!("usage: unknown flag {other:?}")),
                }
            }
            filter(path, &f)
        }
        _ => Err(USAGE.to_string()),
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if let Err(e) = run(&args) {
        eprintln!("nat_timeline: {e}");
        std::process::exit(if e.starts_with("usage") { 2 } else { 1 });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp(name: &str) -> String {
        let dir = std::env::temp_dir().join(format!("hgw_nat_timeline_bin_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        dir.join(name).to_string_lossy().into_owned()
    }

    /// The acceptance shape: a UDP-1 record on a Table 1 device captures at
    /// least one binding's complete life (created then expired), proves
    /// traced-vs-plain bit-identity, and the written dump round-trips
    /// through the inspector.
    #[test]
    fn udp1_record_captures_a_full_binding_life() {
        let out = tmp("udp1.json");
        run(&[
            "record".into(),
            "ls1".into(),
            "--probe".into(),
            "udp1".into(),
            "--out".into(),
            out.clone(),
        ])
        .unwrap();
        let t = load_timeline(&out).unwrap();
        assert_eq!(t.device, "ls1");
        assert_eq!(t.probe, "udp1");
        assert!(!t.flows.is_empty(), "udp1 search traced no flows");
        assert!(
            t.flows.iter().any(|f| f.proto == 17 && is_full_life(f)),
            "no UDP flow shows a complete created->expired life"
        );
        for f in &t.flows {
            let times: Vec<u64> = f.events.iter().map(|(t, _)| *t).collect();
            assert!(times.windows(2).all(|w| w[0] <= w[1]), "timeline not monotone");
        }
        assert!(run(&["summarize".into(), out.clone()]).is_ok());
        assert!(run(&["filter".into(), out.clone(), "--proto".into(), "17".into()]).is_ok());
        assert!(run(&["diff".into(), out.clone(), out.clone()]).is_ok());
    }

    #[test]
    fn household_record_round_trips() {
        let out = tmp("household.json");
        run(&[
            "record".into(),
            "owrt".into(),
            "--probe".into(),
            "household".into(),
            "--hosts".into(),
            "2".into(),
            "--flows".into(),
            "2".into(),
            "--secs".into(),
            "8".into(),
            "--out".into(),
            out.clone(),
        ])
        .unwrap();
        let t = load_timeline(&out).unwrap();
        assert_eq!(t.probe, "household");
        assert!(!t.flows.is_empty());
        assert!(kind_counts(&t).contains_key("created"));
    }

    #[test]
    fn rejects_bad_input() {
        assert!(load_timeline("/nonexistent/t.json").unwrap_err().contains("could not read"));
        let bad = tmp("bad.json");
        std::fs::write(
            &bad,
            r#"{"schema": "other/9", "device": "x", "probe": "udp1", "flows": []}"#,
        )
        .unwrap();
        assert!(load_timeline(&bad).unwrap_err().contains("unsupported schema"));
        assert!(run(&["record".into(), "no-such-device".into()])
            .unwrap_err()
            .contains("unknown device"));
        assert!(run(&["record".into(), "ls1".into(), "--probe".into(), "bogus".into()])
            .unwrap_err()
            .starts_with("usage"));
        assert!(run(&["bogus".into()]).unwrap_err().starts_with("usage"));
    }
}
