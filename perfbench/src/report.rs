//! Metric values, the sample-count rule for percentiles, and the result
//! line the benchmark prints last.

/// One reported number with its unit.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub value: f64,
}

/// Samples that must lie strictly beyond a reported quantile: a tail of
/// fewer than ten samples moves with every single outlier, which is how
/// an earlier p90 over 34 devices swung by a third between identical runs.
pub const MIN_BEYOND: usize = 10;

/// The `q`-quantile (nearest rank) of `samples`, or an error when fewer
/// than [`MIN_BEYOND`] samples lie beyond it.
pub fn quantile(samples: &[f64], q: f64) -> Result<f64, String> {
    assert!((0.0..1.0).contains(&q), "quantile {q} outside [0, 1)");
    let n = samples.len();
    let rank = ((q * n as f64).ceil() as usize).max(1);
    let beyond = n.saturating_sub(rank);
    if n == 0 || beyond < MIN_BEYOND {
        return Err(format!(
            "p{} over {n} samples leaves {beyond} beyond it; at least {MIN_BEYOND} are required",
            q * 100.0
        ));
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    Ok(sorted[rank - 1])
}

/// True if `name` is a valid metric name: non-empty, at most 64 characters
/// of `[A-Za-z0-9_.-]`, starting with a letter or digit.
pub fn valid_name(name: &str) -> bool {
    name.len() <= 64
        && name.chars().next().is_some_and(|c| c.is_ascii_alphanumeric())
        && name.chars().all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
}

/// True if `unit` is non-empty and at most 16 characters of
/// `[A-Za-z0-9_/%.-]`.
pub fn valid_unit(unit: &str) -> bool {
    !unit.is_empty()
        && unit.len() <= 16
        && unit.chars().all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
}

/// The one-line JSON result: `correct`, `attempted`, `failed` and every
/// metric by name with its unit.
pub fn result_line(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            assert!(valid_name(m.name) && valid_unit(m.unit), "bad metric {m:?}");
            assert!(m.value.is_finite(), "metric {} is not finite: {}", m.name, m.value);
            format!("\"{}\": {{\"value\": {:?}, \"unit\": \"{}\"}}", m.name, m.value, m.unit)
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}

/// Median of a non-empty sample (the mean of the middle pair for even
/// counts). Used for repeated whole-run quantities such as set-up time,
/// where the sample-count rule for tails does not apply.
pub fn median(samples: &[f64]) -> f64 {
    assert!(!samples.is_empty(), "median of nothing");
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}

/// Peak resident set size of this process (`VmHWM`), in MiB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .expect("VmHWM line in /proc/self/status");
    kb / 1024.0
}

/// CPU time this thread has run, from `/proc/thread-self/schedstat`, in ns.
pub fn thread_cpu_ns() -> Option<u64> {
    std::fs::read_to_string("/proc/thread-self/schedstat")
        .ok()?
        .split_whitespace()
        .next()?
        .parse()
        .ok()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantile_refuses_thin_tails() {
        let xs: Vec<f64> = (1..=99).map(f64::from).collect();
        assert!(quantile(&xs, 0.9).is_err(), "99 samples leave 9 beyond p90");
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(quantile(&xs, 0.9), Ok(90.0));
        assert_eq!(quantile(&xs, 0.5), Ok(50.0));
        assert!(quantile(&xs, 0.99).is_err());
        let xs: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(quantile(&xs, 0.99), Ok(990.0));
        assert!(quantile(&[], 0.5).is_err());
        assert!(quantile(&xs[..19], 0.5).is_err(), "19 samples leave 9 beyond p50");
    }

    #[test]
    fn quantile_ignores_input_order() {
        let xs: Vec<f64> = (0..200).map(|i| ((i * 7919) % 200) as f64).collect();
        assert_eq!(quantile(&xs, 0.5), Ok(99.0));
    }

    #[test]
    fn every_emitted_metric_has_a_valid_name_and_unit() {
        for m in crate::E2E.iter().chain(crate::LAYERS.iter()).chain(crate::EXTRA.iter()) {
            assert!(valid_name(m.0), "bad name {:?}", m.0);
            assert!(valid_unit(m.1), "metric {} has bad unit {:?}", m.0, m.1);
        }
        assert!(!valid_name("a b") && !valid_name("") && !valid_name("_x"));
        assert!(!valid_unit(""));
    }

    #[test]
    fn declared_metrics_match_the_benchmark_manifest() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let manifest = std::fs::read_to_string(path).expect("BENCHMARK.json beside perfbench/");
        for (name, unit) in crate::E2E.iter().chain(crate::LAYERS.iter()) {
            let entry = format!("\"name\": \"{name}\", \"unit\": \"{unit}\"");
            assert!(manifest.contains(&entry), "BENCHMARK.json lacks {entry}");
        }
        let declared = manifest.matches("\"unit\":").count();
        assert_eq!(declared, crate::E2E.len() + crate::LAYERS.len(), "extra metrics declared");
    }

    #[test]
    fn result_line_has_the_contract_keys() {
        let line = result_line(true, 3, 0, &[Metric { name: "setup_s", unit: "s", value: 0.5 }]);
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": \
             {\"setup_s\": {\"value\": 0.5, \"unit\": \"s\"}}}"
        );
    }
}
