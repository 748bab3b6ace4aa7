//! Machine-readable micro-benchmark captures (`hgw-microbench/1`).
//!
//! The build environment has no serde (see [`crate::manifest`]), so the
//! JSON is emitted by hand. A *capture* is one full run of the microbench
//! suite; the trajectory file (`BENCH_micro.json` at the repo root) holds a
//! list of captures so before/after numbers for an optimization land in the
//! same machine-readable document.
//!
//! Schema `hgw-microbench/1`:
//!
//! ```json
//! {
//!   "schema": "hgw-microbench/1",
//!   "captures": [
//!     {"label": "pre-optimization", "bench_ms": 300, "results": [
//!       {"group": "nat", "name": "outbound_hit", "ns_per_iter": 141.2,
//!        "mb_per_s": null, "iters": 1000000}
//!     ]}
//!   ]
//! }
//! ```
//!
//! `mb_per_s` is `null` for benchmarks without a meaningful byte count.
//!
//! Captures are records, not baselines: timings taken in different
//! sessions differ with the machine as much as with the code, so nothing
//! here compares one capture with another. The one verdict a run gives,
//! [`TelemetryBudget`](crate::micro::TelemetryBudget), compares legs timed
//! within that same run.

use std::io::Write;
use std::path::Path;

use crate::manifest; // shared json_escape

/// Schema identifier stamped into every capture file.
pub const MICRO_SCHEMA: &str = "hgw-microbench/1";

/// One benchmark measurement.
#[derive(Debug, Clone, PartialEq)]
pub struct MicroResult {
    /// Benchmark group (`checksum`, `wire`, `nat`, `simulation`, ...).
    pub group: String,
    /// Benchmark name within the group.
    pub name: String,
    /// Mean nanoseconds per iteration over the measured batch.
    pub ns_per_iter: f64,
    /// Throughput in MB/s where a per-iteration byte count is meaningful.
    pub mb_per_s: Option<f64>,
    /// Iterations measured.
    pub iters: u64,
}

fn result_json(r: &MicroResult) -> String {
    let mbps = match r.mb_per_s {
        Some(v) => format!("{v:.1}"),
        None => "null".to_string(),
    };
    format!(
        concat!(
            "{{\"group\": \"{}\", \"name\": \"{}\", \"ns_per_iter\": {:.1}, ",
            "\"mb_per_s\": {}, \"iters\": {}}}"
        ),
        manifest::json_escape(&r.group),
        manifest::json_escape(&r.name),
        r.ns_per_iter,
        mbps,
        r.iters,
    )
}

fn capture_json(label: &str, bench_ms: u64, results: &[MicroResult]) -> String {
    let body: Vec<String> = results.iter().map(result_json).collect();
    format!(
        "    {{\"label\": \"{}\", \"bench_ms\": {}, \"results\": [{}]}}",
        manifest::json_escape(label),
        bench_ms,
        body.join(", "),
    )
}

/// Renders a full trajectory document from whole captures.
fn render_document(captures: &[String]) -> String {
    format!(
        "{{\n  \"schema\": \"{}\",\n  \"captures\": [\n{}\n  ]\n}}\n",
        MICRO_SCHEMA,
        captures.join(",\n"),
    )
}

/// Appends a capture to the trajectory file at `path`, creating the file
/// (with the schema header) if it does not exist. The file must have been
/// written by this module; anything else is rewritten from scratch with
/// only the new capture.
pub fn append_capture(
    path: &Path,
    label: &str,
    bench_ms: u64,
    results: &[MicroResult],
) -> std::io::Result<()> {
    let capture = capture_json(label, bench_ms, results);
    let document = match std::fs::read_to_string(path) {
        // `\n  ]` closes the captures array in our own writer; splice there.
        Ok(existing) if existing.contains(MICRO_SCHEMA) => match existing.rfind("\n  ]\n}") {
            Some(idx) => {
                format!("{},\n{}{}", &existing[..idx], capture, &existing[idx..])
            }
            None => render_document(&[capture]),
        },
        _ => render_document(&[capture]),
    };
    if let Some(parent) = path.parent() {
        if !parent.as_os_str().is_empty() {
            std::fs::create_dir_all(parent)?;
        }
    }
    let mut f = std::fs::File::create(path)?;
    f.write_all(document.as_bytes())
}

/// The budget the disabled telemetry path is held to, in percent over the
/// plain engine.
pub const TELEMETRY_BUDGET_PCT: f64 = 2.0;

/// The telemetry dispatch budget verdict of one microbench run.
///
/// It reads the `telemetry/sim_event_dispatch_telemetry_{baseline,off,on}`
/// legs: three identical boxed engines timed in the same interleaved
/// rounds, so a machine-speed shift lands on all three. The disabled
/// path's cost, `off` against `baseline`, is what every untraced run pays
/// for carrying the tracing branches; it is held to
/// [`TELEMETRY_BUDGET_PCT`].
#[derive(Debug, Clone, PartialEq)]
pub struct TelemetryBudget {
    /// ns/iter with telemetry enabled.
    pub on_ns: f64,
    /// ns/iter with telemetry disabled.
    pub off_ns: f64,
    /// ns/iter of the plain engine.
    pub baseline_ns: f64,
    /// `(on - off) / off`, in percent: what enabling telemetry costs.
    pub enabled_overhead_pct: f64,
    /// `(off - baseline) / baseline`, in percent: what the disabled path
    /// costs.
    pub disabled_overhead_pct: f64,
    /// `disabled_overhead_pct <= TELEMETRY_BUDGET_PCT`.
    pub within_budget: bool,
}

impl TelemetryBudget {
    /// Evaluates the budget over one run's results; `None` when any of
    /// the three legs is missing or timed at zero.
    pub fn evaluate(results: &[MicroResult]) -> Option<TelemetryBudget> {
        let ns = |leg: &str| {
            let name = format!("sim_event_dispatch_telemetry_{leg}");
            results
                .iter()
                .find(|r| r.group == "telemetry" && r.name == name)
                .map(|r| r.ns_per_iter)
                .filter(|&v| v > 0.0)
        };
        let (on_ns, off_ns, baseline_ns) = (ns("on")?, ns("off")?, ns("baseline")?);
        let disabled_overhead_pct = (off_ns - baseline_ns) / baseline_ns * 100.0;
        Some(TelemetryBudget {
            on_ns,
            off_ns,
            baseline_ns,
            enabled_overhead_pct: (on_ns - off_ns) / off_ns * 100.0,
            disabled_overhead_pct,
            within_budget: disabled_overhead_pct <= TELEMETRY_BUDGET_PCT,
        })
    }
}

impl std::fmt::Display for TelemetryBudget {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "telemetry dispatch: on {:.1} ns vs off {:.1} ns ({:+.1}%); disabled path {:.1} ns vs \
             baseline {:.1} ns ({:+.1}%, budget ≤{:.0}%) — {}",
            self.on_ns,
            self.off_ns,
            self.enabled_overhead_pct,
            self.off_ns,
            self.baseline_ns,
            self.disabled_overhead_pct,
            TELEMETRY_BUDGET_PCT,
            if self.within_budget { "within budget" } else { "BUDGET EXCEEDED" },
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(name: &str, mbps: Option<f64>) -> MicroResult {
        MicroResult {
            group: "nat".to_string(),
            name: name.to_string(),
            ns_per_iter: 123.45,
            mb_per_s: mbps,
            iters: 1000,
        }
    }

    #[test]
    fn result_json_handles_both_throughput_cases() {
        let with = result_json(&sample("a", Some(99.95)));
        assert!(with.contains("\"mb_per_s\": 100.0") || with.contains("\"mb_per_s\": 99.9"));
        let without = result_json(&sample("b", None));
        assert!(without.contains("\"mb_per_s\": null"));
        assert!(without.contains("\"ns_per_iter\": 123.5") || without.contains("123.4"));
    }

    #[test]
    fn append_creates_then_extends() {
        let dir = std::env::temp_dir().join(format!("hgw_micro_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("BENCH_micro.json");
        let _ = std::fs::remove_file(&path);

        append_capture(&path, "before", 300, &[sample("x", None)]).unwrap();
        let one = std::fs::read_to_string(&path).unwrap();
        assert!(one.contains(MICRO_SCHEMA));
        assert_eq!(one.matches("\"label\"").count(), 1);

        append_capture(&path, "after", 300, &[sample("x", Some(10.0))]).unwrap();
        let two = std::fs::read_to_string(&path).unwrap();
        assert_eq!(two.matches("\"label\"").count(), 2);
        assert!(two.contains("\"before\""));
        assert!(two.contains("\"after\""));
        // Still exactly one schema header and a well-formed tail.
        assert_eq!(two.matches(MICRO_SCHEMA).count(), 1);
        assert!(two.ends_with("  ]\n}\n"));
        std::fs::remove_file(&path).unwrap();
    }

    fn telemetry_legs(baseline: f64, off: f64, on: f64) -> Vec<MicroResult> {
        [("baseline", baseline), ("off", off), ("on", on)]
            .into_iter()
            .map(|(leg, ns)| MicroResult {
                group: "telemetry".to_string(),
                name: format!("sim_event_dispatch_telemetry_{leg}"),
                ns_per_iter: ns,
                mb_per_s: None,
                iters: 1,
            })
            .collect()
    }

    #[test]
    fn telemetry_budget_holds_at_exactly_two_percent() {
        // off = 25.5 vs baseline 25.0 → +2.0%, on the inclusive boundary;
        // on = 26.1 vs off → +2.35% enabled cost.
        let b = TelemetryBudget::evaluate(&telemetry_legs(25.0, 25.5, 26.1)).unwrap();
        assert!((b.disabled_overhead_pct - 2.0).abs() < 1e-9);
        assert!(b.within_budget, "2.0% lands on the inclusive budget boundary");
        assert!((b.enabled_overhead_pct - (26.1 - 25.5) / 25.5 * 100.0).abs() < 1e-9);
        assert!(b.to_string().ends_with("within budget"), "{b}");
    }

    #[test]
    fn telemetry_budget_is_exceeded_just_above_two_percent() {
        let b = TelemetryBudget::evaluate(&telemetry_legs(25.0, 25.51, 26.1)).unwrap();
        assert!(!b.within_budget, "+2.04% must exceed the budget");
        assert!(b.to_string().ends_with("BUDGET EXCEEDED"), "{b}");
    }

    #[test]
    fn telemetry_budget_needs_every_leg() {
        let legs = telemetry_legs(25.0, 25.5, 26.1);
        for missing in 0..legs.len() {
            let mut partial = legs.clone();
            partial.remove(missing);
            assert_eq!(TelemetryBudget::evaluate(&partial), None, "without {}", legs[missing].name);
        }
        // The separately timed boxed dispatch bench is no stand-in.
        let mut boxed = legs[1..].to_vec();
        boxed.push(MicroResult {
            group: "simulation".to_string(),
            name: "sim_event_dispatch_boxed".to_string(),
            ..legs[0].clone()
        });
        assert_eq!(TelemetryBudget::evaluate(&boxed), None);
    }
}
