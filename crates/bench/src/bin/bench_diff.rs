//! Warn-only micro-benchmark drift report for CI.
//!
//! Compares two `hgw-microbench/1` captures and prints a per-benchmark
//! delta table. Shared CI runners make absolute timings meaningless, so
//! this tool NEVER fails the build on drift — it renders the table (with
//! a `DRIFT` marker past the threshold) and exits 0; the output is meant
//! to be captured as a build artifact for humans to read. A non-zero exit
//! means the tool itself could not run (missing file, bad schema).
//!
//! ```text
//! bench_diff                         # last two captures of BENCH_micro.json
//! bench_diff --candidate smoke.json  # smoke's latest vs the committed latest
//! bench_diff --baseline-label pre-fastpath --candidate smoke.json
//! bench_diff --json                  # machine-readable delta table
//! ```
//!
//! `HGW_BENCH_DRIFT_PCT` sets the marker threshold (default 25%).
//! `--json` swaps the human table for a `hgw-bench-diff/1` JSON document so
//! CI tooling can consume the same deltas it archives.

use hgw_bench::micro::{parse_document, MicroCapture};
use hgw_stats::TextTable;

struct Options {
    baseline_path: String,
    candidate_path: Option<String>,
    baseline_label: Option<String>,
    json: bool,
}

fn parse_args() -> Result<Options, String> {
    let mut opts = Options {
        baseline_path: "BENCH_micro.json".to_string(),
        candidate_path: None,
        baseline_label: None,
        json: false,
    };
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut take = |name: &str| args.next().ok_or(format!("{name} requires a value"));
        match arg.as_str() {
            "--baseline" => opts.baseline_path = take("--baseline")?,
            "--candidate" => opts.candidate_path = Some(take("--candidate")?),
            "--baseline-label" => opts.baseline_label = Some(take("--baseline-label")?),
            "--json" => opts.json = true,
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(opts)
}

fn load_captures(path: &str) -> Result<Vec<MicroCapture>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("could not read {path}: {e}"))?;
    parse_document(&text).map_err(|e| format!("{path}: {e}"))
}

/// What [`select`] resolved the options to.
enum Selection {
    /// Both captures found; diff them.
    Ready(Box<(MicroCapture, MicroCapture)>),
    /// A capture is missing for a benign reason — a first run with no
    /// history yet, or a label that has not been recorded. The tool warns
    /// and exits 0: a fresh checkout must not fail CI for lacking history.
    FirstRun(String),
}

/// Picks `(baseline, candidate)` according to the options: an explicit
/// candidate file contributes its newest capture, otherwise the two most
/// recent captures of the baseline trajectory are compared against each
/// other. Unreadable or malformed documents are hard errors; *absent*
/// captures resolve to [`Selection::FirstRun`].
fn select(opts: &Options) -> Result<Selection, String> {
    let mut baseline_doc = load_captures(&opts.baseline_path)?;
    let candidate = match &opts.candidate_path {
        Some(path) => match load_captures(path)?.pop() {
            Some(c) => c,
            None => return Ok(Selection::FirstRun(format!("{path} holds no captures yet"))),
        },
        None => match baseline_doc.pop() {
            Some(c) => c,
            None => {
                return Ok(Selection::FirstRun(format!(
                    "{} holds no captures yet",
                    opts.baseline_path
                )))
            }
        },
    };
    let baseline = match &opts.baseline_label {
        Some(label) => match baseline_doc.into_iter().rev().find(|c| &c.label == label) {
            Some(c) => c,
            None => {
                return Ok(Selection::FirstRun(format!(
                    "no capture labelled {label:?} in {} yet",
                    opts.baseline_path
                )))
            }
        },
        None => match baseline_doc.pop() {
            Some(c) => c,
            None => {
                return Ok(Selection::FirstRun(format!(
                    "{} has a single capture; nothing to self-compare against yet",
                    opts.baseline_path
                )))
            }
        },
    };
    Ok(Selection::Ready(Box::new((baseline, candidate))))
}

fn main() {
    let opts = match parse_args() {
        Ok(o) => o,
        Err(e) => {
            eprintln!("bench_diff: {e}");
            std::process::exit(2);
        }
    };
    match select(&opts) {
        Ok(Selection::Ready(pair)) => {
            if opts.json {
                report_json(&pair.0, &pair.1);
            } else {
                report(&pair.0, &pair.1);
            }
        }
        Ok(Selection::FirstRun(why)) => {
            if opts.json {
                println!(
                    "{{\"schema\": \"{DIFF_SCHEMA}\", \"skipped\": \"{}\", \"rows\": []}}",
                    json_escape(&why)
                );
            } else {
                println!("bench_diff: {why} — skipping drift report (first run is not a failure)");
            }
        }
        Err(e) => {
            eprintln!("bench_diff: {e}");
            std::process::exit(1);
        }
    }
}

/// Schema identifier stamped into `--json` output.
const DIFF_SCHEMA: &str = "hgw-bench-diff/1";

fn json_escape(s: &str) -> String {
    s.replace('\\', "\\\\").replace('"', "\\\"")
}

fn drift_threshold() -> f64 {
    std::env::var("HGW_BENCH_DRIFT_PCT").ok().and_then(|v| v.parse::<f64>().ok()).unwrap_or(25.0)
}

fn telemetry_budget_pct() -> f64 {
    std::env::var("HGW_TELEMETRY_BUDGET_PCT")
        .ok()
        .and_then(|v| v.parse::<f64>().ok())
        .unwrap_or(2.0)
}

/// The telemetry dispatch budget, evaluated inside ONE capture (so both
/// legs ran on the same machine in the same window): the
/// `sim_event_dispatch_telemetry_on`/`_off` pair, plus the disabled-path
/// overhead of `_off` against the plain boxed engine it is configured
/// identically to. That last number is the cost every untraced run pays
/// for carrying the tracing branches — the one the ≤2% budget
/// (`HGW_TELEMETRY_BUDGET_PCT`) applies to. The plain leg is
/// `telemetry/sim_event_dispatch_telemetry_baseline`, timed in the same
/// interleaved rounds as `_off` and `_on` (medians of five); captures
/// from before the rounds existed fall back to the separately timed
/// `simulation/sim_event_dispatch_boxed`.
struct TelemetryBudget {
    on_ns: f64,
    off_ns: f64,
    /// `(on - off) / off` — what enabling telemetry costs.
    enabled_overhead_pct: f64,
    boxed_ns: f64,
    /// `(off - boxed) / boxed` — what the disabled path costs.
    disabled_overhead_pct: f64,
    budget_pct: f64,
    within_budget: bool,
}

fn telemetry_budget(capture: &MicroCapture) -> Option<TelemetryBudget> {
    let ns = |group: &str, name: &str| {
        capture
            .results
            .iter()
            .find(|r| r.group == group && r.name == name)
            .map(|r| r.ns_per_iter)
            .filter(|&v| v > 0.0)
    };
    let on_ns = ns("telemetry", "sim_event_dispatch_telemetry_on")?;
    let off_ns = ns("telemetry", "sim_event_dispatch_telemetry_off")?;
    let boxed_ns = ns("telemetry", "sim_event_dispatch_telemetry_baseline")
        .or_else(|| ns("simulation", "sim_event_dispatch_boxed"))?;
    let budget_pct = telemetry_budget_pct();
    let disabled_overhead_pct = (off_ns - boxed_ns) / boxed_ns * 100.0;
    Some(TelemetryBudget {
        on_ns,
        off_ns,
        enabled_overhead_pct: (on_ns - off_ns) / off_ns * 100.0,
        boxed_ns,
        disabled_overhead_pct,
        budget_pct,
        within_budget: disabled_overhead_pct <= budget_pct,
    })
}

/// One benchmark's delta between two captures.
struct DiffRow {
    /// `group/name`.
    key: String,
    baseline_ns: Option<f64>,
    candidate_ns: Option<f64>,
    /// Percent change relative to the baseline; `None` for new / missing
    /// benchmarks and zero-valued baselines.
    delta_pct: Option<f64>,
    /// `ok`, `new`, `missing`, `DRIFT (slower)` or `DRIFT (faster)`.
    status: &'static str,
}

/// The threshold math shared by the text and JSON reports: a benchmark
/// drifts when `|candidate - baseline| / baseline * 100 >= threshold`
/// (inclusive — a delta landing exactly on the threshold is marked).
fn diff_rows(baseline: &MicroCapture, candidate: &MicroCapture, threshold: f64) -> Vec<DiffRow> {
    let mut rows = Vec::new();
    for r in &candidate.results {
        let prior = baseline.results.iter().find(|b| b.group == r.group && b.name == r.name);
        let (baseline_ns, delta_pct, status) = match prior {
            Some(b) if b.ns_per_iter > 0.0 => {
                let pct = (r.ns_per_iter - b.ns_per_iter) / b.ns_per_iter * 100.0;
                let status = if pct.abs() >= threshold {
                    if pct > 0.0 {
                        "DRIFT (slower)"
                    } else {
                        "DRIFT (faster)"
                    }
                } else {
                    "ok"
                };
                (Some(b.ns_per_iter), Some(pct), status)
            }
            Some(b) => (Some(b.ns_per_iter), None, "ok"),
            None => (None, None, "new"),
        };
        rows.push(DiffRow {
            key: format!("{}/{}", r.group, r.name),
            baseline_ns,
            candidate_ns: Some(r.ns_per_iter),
            delta_pct,
            status,
        });
    }
    for b in &baseline.results {
        if !candidate.results.iter().any(|r| r.group == b.group && r.name == b.name) {
            rows.push(DiffRow {
                key: format!("{}/{}", b.group, b.name),
                baseline_ns: Some(b.ns_per_iter),
                candidate_ns: None,
                delta_pct: None,
                status: "missing",
            });
        }
    }
    rows
}

fn report(baseline: &MicroCapture, candidate: &MicroCapture) {
    let threshold = drift_threshold();

    println!(
        "microbench drift: {:?} (bench_ms {}) -> {:?} (bench_ms {}); warn threshold ±{:.0}%",
        baseline.label, baseline.bench_ms, candidate.label, candidate.bench_ms, threshold
    );
    if baseline.bench_ms != candidate.bench_ms {
        println!(
            "note: captures used different measurement windows; treat deltas as indicative only"
        );
    }

    let rows = diff_rows(baseline, candidate, threshold);
    let mut table =
        TextTable::new(&["benchmark", "baseline ns/iter", "candidate ns/iter", "delta", "status"]);
    let fmt_ns = |v: Option<f64>| v.map(|v| format!("{v:.1}")).unwrap_or_else(|| "-".to_string());
    for row in &rows {
        table.row(vec![
            row.key.clone(),
            fmt_ns(row.baseline_ns),
            fmt_ns(row.candidate_ns),
            row.delta_pct.map(|p| format!("{p:+.1}%")).unwrap_or_else(|| "-".to_string()),
            row.status.to_string(),
        ]);
    }
    println!("{}", table.render());
    println!(
        "{} of {} benchmarks past the ±{:.0}% threshold (warn-only; exit is always 0)",
        rows.iter().filter(|r| r.status.starts_with("DRIFT")).count(),
        candidate.results.len(),
        threshold
    );
    if let Some(b) = telemetry_budget(candidate) {
        println!(
            "telemetry dispatch: on {:.1} ns vs off {:.1} ns ({:+.1}%); disabled path {:.1} ns vs \
             boxed {:.1} ns ({:+.1}%, budget ≤{:.0}%) — {}",
            b.on_ns,
            b.off_ns,
            b.enabled_overhead_pct,
            b.off_ns,
            b.boxed_ns,
            b.disabled_overhead_pct,
            b.budget_pct,
            if b.within_budget { "within budget" } else { "BUDGET EXCEEDED" },
        );
    }
}

/// The machine-readable twin of [`report`]: same rows, same threshold
/// math, rendered as one `hgw-bench-diff/1` document on stdout.
fn report_json(baseline: &MicroCapture, candidate: &MicroCapture) {
    let threshold = drift_threshold();
    let rows = diff_rows(baseline, candidate, threshold);
    let budget = telemetry_budget(candidate)
        .map(|b| {
            format!(
                "{{\"on_ns_per_iter\": {:.3}, \"off_ns_per_iter\": {:.3}, \
                 \"enabled_overhead_pct\": {:.3}, \"boxed_ns_per_iter\": {:.3}, \
                 \"disabled_overhead_pct\": {:.3}, \"budget_pct\": {}, \"within_budget\": {}}}",
                b.on_ns,
                b.off_ns,
                b.enabled_overhead_pct,
                b.boxed_ns,
                b.disabled_overhead_pct,
                b.budget_pct,
                b.within_budget,
            )
        })
        .unwrap_or_else(|| "null".to_string());
    let num = |v: Option<f64>| v.map(|v| format!("{v:.3}")).unwrap_or_else(|| "null".to_string());
    let body: Vec<String> = rows
        .iter()
        .map(|r| {
            format!(
                "    {{\"benchmark\": \"{}\", \"baseline_ns_per_iter\": {}, \
                 \"candidate_ns_per_iter\": {}, \"delta_pct\": {}, \"status\": \"{}\"}}",
                json_escape(&r.key),
                num(r.baseline_ns),
                num(r.candidate_ns),
                num(r.delta_pct),
                r.status,
            )
        })
        .collect();
    println!(
        "{{\n  \"schema\": \"{}\",\n  \"baseline\": \"{}\",\n  \"candidate\": \"{}\",\n  \
         \"baseline_bench_ms\": {},\n  \"candidate_bench_ms\": {},\n  \
         \"threshold_pct\": {},\n  \"drifted\": {},\n  \"telemetry_budget\": {},\n  \
         \"rows\": [\n{}\n  ]\n}}",
        DIFF_SCHEMA,
        json_escape(&baseline.label),
        json_escape(&candidate.label),
        baseline.bench_ms,
        candidate.bench_ms,
        threshold,
        rows.iter().filter(|r| r.status.starts_with("DRIFT")).count(),
        budget,
        body.join(",\n"),
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use hgw_bench::micro::render_document;

    fn write_doc(name: &str, captures: &[String]) -> String {
        let dir = std::env::temp_dir().join(format!("hgw_bench_diff_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join(name);
        std::fs::write(&path, render_document(captures)).unwrap();
        path.to_string_lossy().into_owned()
    }

    fn capture(label: &str) -> String {
        format!("    {{\"label\": \"{label}\", \"bench_ms\": 1, \"results\": []}}")
    }

    fn opts(baseline: &str) -> Options {
        Options {
            baseline_path: baseline.to_string(),
            candidate_path: None,
            baseline_label: None,
            json: false,
        }
    }

    #[test]
    fn missing_captures_resolve_to_first_run_not_error() {
        // Empty trajectory: no candidate at all.
        let empty = write_doc("empty.json", &[]);
        assert!(matches!(select(&opts(&empty)), Ok(Selection::FirstRun(_))));

        // Single capture: nothing to self-compare against.
        let single = write_doc("single.json", &[capture("only")]);
        assert!(matches!(select(&opts(&single)), Ok(Selection::FirstRun(_))));

        // Label never recorded.
        let two = write_doc("two.json", &[capture("a"), capture("b")]);
        let mut o = opts(&two);
        o.baseline_label = Some("never-recorded".to_string());
        match select(&o) {
            Ok(Selection::FirstRun(msg)) => assert!(msg.contains("never-recorded")),
            other => panic!("expected FirstRun, got {:?}", other.map(|_| "selection")),
        }

        // Empty candidate file alongside a populated baseline.
        let mut o = opts(&two);
        o.candidate_path = Some(empty.clone());
        assert!(matches!(select(&o), Ok(Selection::FirstRun(_))));
    }

    #[test]
    fn two_captures_are_ready_and_read_errors_stay_fatal() {
        let two = write_doc("ready.json", &[capture("pre"), capture("post")]);
        match select(&opts(&two)) {
            Ok(Selection::Ready(pair)) => {
                assert_eq!(pair.0.label, "pre");
                assert_eq!(pair.1.label, "post");
            }
            _ => panic!("expected Ready"),
        }
        assert!(select(&opts("/nonexistent/BENCH_micro.json")).is_err());
    }

    fn capture_with(label: &str, results: &[(&str, &str, f64)]) -> MicroCapture {
        MicroCapture {
            label: label.to_string(),
            bench_ms: 1,
            results: results
                .iter()
                .map(|(group, name, ns)| hgw_bench::micro::MicroResult {
                    group: group.to_string(),
                    name: name.to_string(),
                    ns_per_iter: *ns,
                    mb_per_s: None,
                    iters: 1,
                })
                .collect(),
        }
    }

    #[test]
    fn drift_threshold_math_is_inclusive_and_signed() {
        let base = capture_with(
            "pre",
            &[
                ("g", "exactly_at", 100.0),
                ("g", "just_below", 100.0),
                ("g", "faster", 100.0),
                ("g", "zero_base", 0.0),
                ("g", "gone", 10.0),
            ],
        );
        let cand = capture_with(
            "post",
            &[
                ("g", "exactly_at", 125.0), // +25.0% — lands ON the threshold
                ("g", "just_below", 124.9), // +24.9% — under it
                ("g", "faster", 75.0),      // -25.0% — inclusive on the fast side too
                ("g", "zero_base", 5.0),    // undefined delta: never drifts
                ("g", "brand_new", 1.0),
            ],
        );
        let rows = diff_rows(&base, &cand, 25.0);
        let status = |key: &str| {
            rows.iter().find(|r| r.key == format!("g/{key}")).map(|r| r.status).unwrap()
        };
        assert_eq!(status("exactly_at"), "DRIFT (slower)");
        assert_eq!(status("just_below"), "ok");
        assert_eq!(status("faster"), "DRIFT (faster)");
        assert_eq!(status("zero_base"), "ok");
        assert_eq!(status("brand_new"), "new");
        assert_eq!(status("gone"), "missing");
        // The percentages themselves, to a rounding margin.
        let pct =
            |key: &str| rows.iter().find(|r| r.key == format!("g/{key}")).and_then(|r| r.delta_pct);
        assert!((pct("exactly_at").unwrap() - 25.0).abs() < 1e-9);
        assert!((pct("faster").unwrap() + 25.0).abs() < 1e-9);
        assert_eq!(pct("zero_base"), None);
        assert_eq!(pct("gone"), None);
    }

    #[test]
    fn telemetry_budget_pairs_on_off_and_checks_the_disabled_path() {
        // off = 25.5 vs boxed 25.0 → +2.0% disabled overhead, within the
        // (inclusive) 2% budget; on = 26.1 vs off → +2.35% enabled cost.
        let cand = capture_with(
            "post",
            &[
                ("simulation", "sim_event_dispatch_boxed", 25.0),
                ("telemetry", "sim_event_dispatch_telemetry_off", 25.5),
                ("telemetry", "sim_event_dispatch_telemetry_on", 26.1),
            ],
        );
        let b = telemetry_budget(&cand).expect("all three legs present");
        assert!((b.disabled_overhead_pct - 2.0).abs() < 1e-9);
        assert!(b.within_budget, "2.0% lands on the inclusive budget boundary");
        assert!((b.enabled_overhead_pct - (26.1 - 25.5) / 25.5 * 100.0).abs() < 1e-9);

        let over = capture_with(
            "post",
            &[
                ("simulation", "sim_event_dispatch_boxed", 25.0),
                ("telemetry", "sim_event_dispatch_telemetry_off", 26.0),
                ("telemetry", "sim_event_dispatch_telemetry_on", 26.1),
            ],
        );
        assert!(!telemetry_budget(&over).unwrap().within_budget, "+4% must exceed the budget");

        // A capture missing any leg (e.g. a pre-tracing baseline) has no
        // budget verdict rather than a spurious one.
        let old = capture_with("pre", &[("simulation", "sim_event_dispatch_boxed", 25.0)]);
        assert!(telemetry_budget(&old).is_none());
    }

    #[test]
    fn telemetry_budget_prefers_the_interleaved_baseline() {
        // The separately timed boxed leg ran 8% faster than the others, as
        // a machine-speed shift mid-run can make it; the interleaved
        // baseline is what the disabled path is judged against.
        let cand = capture_with(
            "post",
            &[
                ("simulation", "sim_event_dispatch_boxed", 25.0),
                ("telemetry", "sim_event_dispatch_telemetry_baseline", 27.0),
                ("telemetry", "sim_event_dispatch_telemetry_off", 27.2),
                ("telemetry", "sim_event_dispatch_telemetry_on", 28.0),
            ],
        );
        let b = telemetry_budget(&cand).expect("all legs present");
        assert_eq!(b.boxed_ns, 27.0);
        assert!(b.within_budget, "+0.7% against the interleaved baseline");
    }

    #[test]
    fn json_rows_carry_the_same_statuses() {
        // The JSON path shares diff_rows, so a spot check that its cells
        // serialize numeric-or-null is enough.
        let base = capture_with("pre", &[("g", "a", 10.0)]);
        let cand = capture_with("post", &[("g", "a", 20.0)]);
        let rows = diff_rows(&base, &cand, 25.0);
        assert_eq!(rows.len(), 1);
        assert_eq!(rows[0].status, "DRIFT (slower)");
        assert_eq!(rows[0].baseline_ns, Some(10.0));
        assert_eq!(rows[0].candidate_ns, Some(20.0));
        assert!((rows[0].delta_pct.unwrap() - 100.0).abs() < 1e-9);
    }
}
