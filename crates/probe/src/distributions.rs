//! Fleet-level distribution aggregation — the population view of a
//! mega-fleet campaign.
//!
//! The paper reports per-device results because it has 34 devices; a
//! synthetic 10 000-device campaign (see [`hgw_devices::sampler`]) wants
//! *distributions*: the binding-timeout CDF across the population, the
//! binding-cap histogram, and the spread of per-device latency percentiles.
//! [`FleetDistributions`] is the accumulator those campaigns fold into via
//! [`FleetRunner::run_fold`](crate::fleet::FleetRunner::run_fold): every
//! field is a sum, max, or [`Histogram`] merge, so aggregation is
//! commutative and associative — the run_fold determinism contract — and a
//! parallel campaign produces the bit-identical aggregate a sequential one
//! does.
//!
//! All recorded quantities are simulated-time or event-count values:
//! [`FleetDistributions`] carries no wall-clock state, so two legs of the
//! same campaign can be compared with `==` outright.

use hgw_core::telemetry::Histogram;
use hgw_core::DropCounts;
use hgw_devices::DeviceProfile;

use crate::fleet::DeviceRunMetrics;

/// Deterministic fleet-level aggregate: totals plus population
/// distributions. Build with [`FleetDistributions::record`] per device and
/// combine per-worker partials with [`FleetDistributions::merge`].
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct FleetDistributions {
    /// Devices recorded.
    pub devices: u64,
    /// Simulator events, summed across devices.
    pub events: u64,
    /// Frames delivered, summed across devices.
    pub frames_delivered: u64,
    /// Frames dropped, by reason, summed across devices.
    pub frames_dropped: DropCounts,
    /// Trace events emitted during the probes, summed across devices.
    pub trace_events: u64,
    /// NAT bindings created, summed across devices.
    pub nat_bindings_created: u64,
    /// NAT bindings expired, summed across devices.
    pub nat_bindings_expired: u64,
    /// Largest per-device NAT binding high-water mark.
    pub nat_bindings_peak: u64,
    /// Population distribution of the measured UDP-1 binding timeout, in
    /// **deciseconds** (the measurement's own resolution; 30.5 s → 305).
    pub udp1_timeout_ds: Histogram,
    /// Population distribution of the configured binding cap
    /// (`max_bindings`), one sample per device.
    pub max_bindings: Histogram,
    /// Distribution across devices of each device's **p50** one-way packet
    /// delay (ns). Empty when the campaign ran without telemetry.
    pub delay_p50_ns: Histogram,
    /// Distribution across devices of each device's **p99** one-way packet
    /// delay (ns). Empty when the campaign ran without telemetry.
    pub delay_p99_ns: Histogram,
}

impl FleetDistributions {
    /// An empty aggregate.
    pub fn new() -> FleetDistributions {
        FleetDistributions::default()
    }

    /// Folds one completed device in: its profile (binding cap), its
    /// measured UDP-1 timeout in seconds, and — when given — its
    /// deterministic metrics counters and per-device delay percentiles.
    pub fn record(
        &mut self,
        device: &DeviceProfile,
        udp1_timeout_secs: f64,
        metrics: Option<&DeviceRunMetrics>,
    ) {
        self.devices += 1;
        self.udp1_timeout_ds.record((udp1_timeout_secs * 10.0).round().max(0.0) as u64);
        self.max_bindings.record(device.policy.max_bindings as u64);
        if let Some(m) = metrics {
            self.events += m.events;
            self.frames_delivered += m.frames_delivered;
            self.frames_dropped.merge(&m.frames_dropped);
            self.trace_events += m.trace_events;
            self.nat_bindings_created += m.nat_bindings_created;
            self.nat_bindings_expired += m.nat_bindings_expired;
            self.nat_bindings_peak = self.nat_bindings_peak.max(m.nat_bindings_peak as u64);
            if let Some(d) = m.delay_one_way {
                self.delay_p50_ns.record(d.p50);
                self.delay_p99_ns.record(d.p99);
            }
        }
    }

    /// Merges another aggregate in (element-wise sums/maxes/histogram
    /// merges — associative and commutative).
    pub fn merge(&mut self, other: &FleetDistributions) {
        self.devices += other.devices;
        self.events += other.events;
        self.frames_delivered += other.frames_delivered;
        self.frames_dropped.merge(&other.frames_dropped);
        self.trace_events += other.trace_events;
        self.nat_bindings_created += other.nat_bindings_created;
        self.nat_bindings_expired += other.nat_bindings_expired;
        self.nat_bindings_peak = self.nat_bindings_peak.max(other.nat_bindings_peak);
        self.udp1_timeout_ds.merge(&other.udp1_timeout_ds);
        self.max_bindings.merge(&other.max_bindings);
        self.delay_p50_ns.merge(&other.delay_p50_ns);
        self.delay_p99_ns.merge(&other.delay_p99_ns);
    }
}

/// Renders a histogram as cumulative-distribution points: one
/// `(upper_bound, cumulative_fraction)` pair per non-empty bucket. The
/// last fraction is always 1.0 for a non-empty histogram.
pub fn cdf_points(h: &Histogram) -> Vec<(u64, f64)> {
    let total = h.count();
    if total == 0 {
        return Vec::new();
    }
    let mut cum = 0u64;
    h.nonzero_buckets()
        .map(|(bound, n)| {
            cum += n;
            (bound, cum as f64 / total as f64)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use hgw_devices::device;

    #[test]
    fn record_and_merge_agree_with_one_big_fold() {
        let owrt = device("owrt").unwrap();
        let ls1 = device("ls1").unwrap();
        let m = DeviceRunMetrics { events: 100, frames_delivered: 40, ..Default::default() };

        let mut whole = FleetDistributions::new();
        whole.record(&owrt, 30.5, Some(&m));
        whole.record(&ls1, 691.5, Some(&m));

        let mut left = FleetDistributions::new();
        left.record(&owrt, 30.5, Some(&m));
        let mut right = FleetDistributions::new();
        right.record(&ls1, 691.5, Some(&m));
        left.merge(&right);

        assert_eq!(left, whole);
        assert_eq!(left.devices, 2);
        assert_eq!(left.events, 200);
        assert_eq!(left.udp1_timeout_ds.count(), 2);
        assert_eq!(left.max_bindings.count(), 2);
    }

    #[test]
    fn merge_is_commutative() {
        let owrt = device("owrt").unwrap();
        let mut a = FleetDistributions::new();
        a.record(&owrt, 30.5, None);
        let mut b = FleetDistributions::new();
        b.record(&owrt, 185.5, None);
        let mut ab = a.clone();
        ab.merge(&b);
        let mut ba = b.clone();
        ba.merge(&a);
        assert_eq!(ab, ba);
    }

    #[test]
    fn cdf_is_monotone_and_ends_at_one() {
        let mut h = Histogram::new();
        for v in [10u64, 10, 20, 300, 300, 300, 5000] {
            h.record(v);
        }
        let cdf = cdf_points(&h);
        assert!(!cdf.is_empty());
        let mut prev = 0.0;
        for &(_, frac) in &cdf {
            assert!(frac >= prev);
            prev = frac;
        }
        assert!((cdf.last().unwrap().1 - 1.0).abs() < 1e-12);
        assert!(cdf_points(&Histogram::new()).is_empty());
    }

    #[test]
    fn untelemetered_runs_leave_delay_histograms_empty() {
        let owrt = device("owrt").unwrap();
        let mut d = FleetDistributions::new();
        d.record(&owrt, 30.5, Some(&DeviceRunMetrics::default()));
        assert!(d.delay_p50_ns.is_empty());
        assert!(d.delay_p99_ns.is_empty());
        assert_eq!(d.udp1_timeout_ds.count(), 1);
    }
}
