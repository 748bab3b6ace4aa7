//! Device profile type and registry access.

use hgw_gateway::GatewayPolicy;

/// Published (or reconstructed) target values a profile is calibrated to;
//  used by integration tests and EXPERIMENTS.md comparisons.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Expected {
    /// UDP-1 median binding timeout, seconds.
    pub udp1_secs: f64,
    /// UDP-2 median binding timeout, seconds.
    pub udp2_secs: f64,
    /// UDP-3 median binding timeout, seconds.
    pub udp3_secs: f64,
    /// TCP-1 binding timeout, minutes (1440 = the 24 h cutoff).
    pub tcp1_mins: f64,
    /// TCP-4 maximum simultaneous bindings.
    pub max_bindings: usize,
}

/// Where a profile comes from: the Table 1 identity of a measured device,
/// or the sampler that synthesized it. Profiles point at one shared
/// `'static` record instead of carrying three string slices each.
#[derive(Debug, PartialEq, Eq)]
pub struct Provenance {
    /// Vendor name (Table 1).
    pub vendor: &'static str,
    /// Model (Table 1).
    pub model: &'static str,
    /// Firmware revision (Table 1).
    pub firmware: &'static str,
}

/// One of the 34 home gateway models of Table 1, with its calibrated
/// behavior policy — or a synthetic profile drawn from their population
/// (see [`crate::sampler`]). Plain data: copying one moves 208 bytes and
/// touches no heap.
#[derive(Debug, Clone, Copy)]
pub struct DeviceProfile {
    /// Shorthand tag used throughout the paper (e.g. `ls1`).
    pub tag: &'static str,
    /// Vendor, model and firmware.
    pub provenance: &'static Provenance,
    /// The calibrated behavior model.
    pub policy: GatewayPolicy,
    /// Calibration targets.
    pub expected: Expected,
}

impl DeviceProfile {
    /// True once the TCP-1 timeout exceeds the paper's 24-hour cutoff.
    pub fn tcp_timeout_beyond_cutoff(&self) -> bool {
        self.expected.tcp1_mins >= 1440.0
    }
}
