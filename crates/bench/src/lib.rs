//! # hgw-bench — figure/table regeneration harness
//!
//! One binary per artifact of the paper's evaluation (`fig2`..`fig10`,
//! `table1`, `table2`, `udp4`, `classify`), plus Criterion micro-benchmarks
//! of the engine. Fleet execution lives in
//! [`hgw_probe::fleet::FleetRunner`]; shared here: the published x-axis
//! orders of every figure and small env/report helpers.
//!
//! Every figure binary honors `HGW_FLEET_PARALLELISM` (`seq`, `auto`, or a
//! worker count; default `auto`) via [`fleet_results`].

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::env::VarError;
use std::fmt::Display;
use std::path::PathBuf;
use std::str::FromStr;

use hgw_devices::DeviceProfile;
use hgw_probe::fleet::{FleetRunner, Parallelism};
use hgw_testbed::Testbed;

/// The x-axis device order of Figure 3 (and Figures 2/6, which reuse it).
pub const FIG3_ORDER: [&str; 34] = [
    "je", "owrt", "te", "to", "ed", "al", "we", "ng2", "ap", "ls3", "ls5", "dl1", "dl2", "dl6",
    "dl7", "as1", "bu1", "ls2", "nw1", "dl3", "dl5", "be1", "dl10", "dl4", "dl8", "smc", "dl9",
    "ng1", "ng3", "ng4", "zy1", "be2", "ng5", "ls1",
];

/// The x-axis device order of Figure 4.
pub const FIG4_ORDER: [&str; 34] = [
    "ap", "ng2", "we", "je", "ls2", "nw1", "be1", "dl3", "dl5", "dl10", "ng3", "ng4", "ng5", "as1",
    "bu1", "dl1", "dl2", "dl6", "dl7", "owrt", "te", "ed", "ls3", "ls5", "to", "be2", "al", "dl4",
    "dl8", "dl9", "ng1", "smc", "zy1", "ls1",
];

/// The x-axis device order of Figure 5.
pub const FIG5_ORDER: [&str; 34] = [
    "ng2", "we", "je", "ls2", "nw1", "dl3", "dl5", "ap", "as1", "bu1", "dl1", "dl2", "dl6", "dl7",
    "owrt", "te", "ed", "ls3", "ls5", "to", "be1", "al", "dl10", "dl4", "dl8", "dl9", "ng1", "smc",
    "ng3", "ng4", "zy1", "be2", "ng5", "ls1",
];

/// The x-axis device order of Figure 7 (dl10 reconstructed beside dl9).
pub const FIG7_ORDER: [&str; 34] = [
    "be1", "ng5", "be2", "al", "ls2", "we", "ls1", "as1", "nw1", "ng2", "je", "ng3", "ng4", "dl3",
    "dl5", "dl9", "dl10", "smc", "dl4", "dl1", "dl2", "dl7", "dl6", "dl8", "zy1", "to", "owrt",
    "ap", "bu1", "ed", "ls3", "ls5", "ng1", "te",
];

/// The x-axis device order of Figure 8.
pub const FIG8_ORDER: [&str; 34] = [
    "dl10", "ls1", "ap", "te", "owrt", "smc", "dl9", "ed", "zy1", "ng4", "ng5", "ng3", "nw1",
    "ls3", "ls5", "to", "ls2", "ng2", "je", "dl2", "dl1", "we", "as1", "dl7", "be2", "be1", "dl5",
    "ng1", "dl8", "al", "dl3", "dl6", "bu1", "dl4",
];

/// The x-axis device order of Figure 9.
pub const FIG9_ORDER: [&str; 34] = [
    "ng1", "dl5", "dl7", "dl3", "we", "al", "be1", "be2", "dl4", "dl6", "as1", "bu1", "je", "dl2",
    "dl1", "nw1", "to", "smc", "dl9", "ls2", "ng2", "ls3", "ls5", "ng3", "ng5", "zy1", "ed",
    "owrt", "te", "dl8", "ap", "ng4", "dl10", "ls1",
];

/// The x-axis device order of Figure 10.
pub const FIG10_ORDER: [&str; 34] = [
    "dl9", "smc", "dl10", "ls1", "dl4", "ng2", "ls5", "ng3", "to", "ls3", "ng5", "nw1", "be1",
    "ls2", "be2", "te", "dl2", "dl6", "dl1", "dl8", "owrt", "zy1", "ng4", "ed", "je", "dl3", "dl7",
    "as1", "dl5", "bu1", "al", "we", "ng1", "ap",
];

/// Parses a configuration knob from what [`std::env::var`] returned for
/// `name`: unset means `default`; a set value that does not parse as a `T`
/// is an error naming the variable and the value.
pub fn parse_knob<T: FromStr<Err: Display>>(
    name: &str,
    value: Result<String, VarError>,
    default: T,
) -> Result<T, String> {
    match value {
        Err(VarError::NotPresent) => Ok(default),
        Err(e) => Err(format!("{name}: {e}")),
        Ok(v) => v.trim().parse().map_err(|e| format!("{name}={v:?}: {e}")),
    }
}

/// Reads a configuration knob from the environment (see [`parse_knob`]),
/// exiting with status 2 on a malformed value rather than running with a
/// setting the user did not ask for.
pub fn env_knob<T: FromStr<Err: Display>>(name: &str, default: T) -> T {
    parse_knob(name, std::env::var(name), default).unwrap_or_else(|e| {
        eprintln!("bad environment knob {e}");
        std::process::exit(2);
    })
}

/// Where figure CSVs land.
pub fn figures_dir() -> PathBuf {
    PathBuf::from("target/figures")
}

/// Runs a figure campaign through [`FleetRunner`] with the
/// environment-selected [`Parallelism`] (the paper runs devices in
/// parallel on the real testbed, too) and collapses the report into
/// `(tag, result)` pairs in Table 1 order. Exits with a readable message
/// on a fleet failure — figure binaries have no use for a partial plot.
pub fn fleet_results<R: Send>(
    devices: &[DeviceProfile],
    seed: u64,
    probe: impl Fn(&mut Testbed, &DeviceProfile) -> R + Sync,
) -> Vec<(String, R)> {
    let outcome = FleetRunner::new(devices)
        .seed(seed)
        .parallelism(env_knob("HGW_FLEET_PARALLELISM", Parallelism::Auto))
        .run(probe)
        .and_then(|report| report.into_results());
    match outcome {
        Ok(results) => results,
        Err(e) => {
            eprintln!("fleet run failed: {e}");
            std::process::exit(1);
        }
    }
}

/// Formats the `Pop. Median = X / Pop. Mean = Y` legend line of the
/// paper's figures.
pub fn population_legend(values: &[f64]) -> String {
    match hgw_stats::Population::of(values) {
        Some(p) => format!("Pop. Median = {:.2}   Pop. Mean = {:.2}", p.median, p.mean),
        None => "(no data)".to_string(),
    }
}

/// Report helpers used by the figure binaries.
pub mod report;

/// Machine-readable run-manifest emission.
pub mod manifest;

/// Machine-readable micro-benchmark captures (`BENCH_micro.json`).
pub mod micro;

/// Hand-rolled JSON reader for the documents the `hgw-*` writers emit.
pub mod json;

#[cfg(test)]
mod tests {
    use super::*;
    use Parallelism::*;

    #[test]
    fn set_knobs_must_parse_and_unset_ones_default() {
        let bytes = |v: Result<String, VarError>| parse_knob::<u64>("HGW_BYTES", v, 7);
        assert_eq!(bytes(Err(VarError::NotPresent)), Ok(7));
        assert_eq!(bytes(Ok(" 1024 ".into())), Ok(1024));
        assert_eq!(
            bytes(Ok("100MB".into())),
            Err("HGW_BYTES=\"100MB\": invalid digit found in string".into())
        );
        assert!(bytes(Ok("".into())).is_err() && bytes(Ok("-1".into())).is_err());
        assert!(bytes(Err(VarError::NotUnicode(Default::default()))).is_err());
        let par = |v: &str| parse_knob("HGW_FLEET_PARALLELISM", Ok(v.into()), Parallelism::Auto);
        let parsed = ["seq", "sequential", "auto", "4"].map(|v| par(v).unwrap());
        assert_eq!(parsed, [Sequential, Sequential, Auto, Fixed(4)]);
        assert!(par("four").unwrap_err().starts_with("HGW_FLEET_PARALLELISM=\"four\": expected"));
    }
}
