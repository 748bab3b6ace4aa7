//! Running a measurement across the whole device fleet of Table 1.
//!
//! The paper runs most measurements "in parallel across all home gateways"
//! — except throughput, which is serialized "to avoid overloading the test
//! network". Here every device owns an isolated [`Testbed`], so fleet runs
//! are embarrassingly parallel with identical observable semantics.
//!
//! [`FleetRunner`] is the single entry point for campaigns: a builder that
//! picks the [`Parallelism`] mode, harvests per-device
//! [`DeviceRunMetrics`] from always-on counters, isolates per-device panics
//! as typed [`DeviceFailure`]s, and always assembles results in Table 1
//! order, no matter which worker finished first. Its one observation
//! switch, [`FleetRunner::telemetry`], adds delay histograms, span
//! timelines and the flight recorder:
//!
//! ```
//! use hgw_probe::fleet::{FleetRunner, Parallelism};
//!
//! let devices = hgw_devices::all_devices();
//! let report = FleetRunner::new(&devices[..2])
//!     .seed(7)
//!     .parallelism(Parallelism::Fixed(2))
//!     .run(|tb, _| tb.client_addr().octets()[2])
//!     .unwrap();
//! let results = report.into_results().unwrap();
//! assert_eq!(results.len(), 2);
//! ```
//!
//! Both entry points, [`FleetRunner::run`] and [`FleetRunner::run_fold`],
//! drive the same worker loop: the calling thread is worker 0, further
//! workers are scoped threads, and [`Parallelism::Sequential`] is simply
//! that loop with one worker and nothing spawned.
//!
//! **Determinism guarantee:** each device's simulator seed is derived from
//! the campaign seed and the device *tag* (see
//! [`TestbedBuilder::campaign_slot`](hgw_testbed::TestbedBuilder)), so probe
//! results `R` and every [`DeviceRunMetrics`] counter are
//! bit-for-bit identical across [`Parallelism`] modes. Only the
//! [`SchedulingReport`] depends on the execution schedule.
//!
//! # Mega-fleet scale
//!
//! Three mechanisms keep a 10 000-device synthetic campaign (see
//! [`hgw_devices::sampler`]) scaling near-linearly with cores instead of
//! serializing on the work queue:
//!
//! * **Batched handout** — workers claim devices in contiguous batches
//!   ([`FleetRunner::batch_size`], auto-sized from fleet size and worker
//!   count), so the per-device cost of the shared counter is amortized
//!   across the whole batch.
//! * **A recycled testbed shell per worker** — each worker tears a
//!   finished device's testbed down into a
//!   [`TestbedShell`] and builds the next device into it
//!   ([`TestbedBuilder::build_in`](hgw_testbed::TestbedBuilder::build_in)):
//!   the event wheel and its levels, node and link slabs, link queues, NAT
//!   maps and wheels, host socket tables and frame-pool buffers keep their
//!   allocations, so a device costs almost no heap work. Only capacity
//!   carries over, so results stay bit-identical; only the per-device pool
//!   hit/miss split becomes schedule-dependent. A shell whose probe
//!   panicked is dropped, never reused (DESIGN.md §15).
//! * **Streaming aggregation** — [`FleetRunner::run_fold`] folds each
//!   device's result and metrics into a per-worker accumulator the moment
//!   it completes, then merges the accumulators, so fleet-level
//!   distributions never materialize 10 000 [`DeviceReport`]s.

use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::path::Path;
use std::sync::atomic::{AtomicUsize, Ordering};

use hgw_core::telemetry::{flight_dump_dir, Histogram};
use hgw_core::{DropCounts, HistogramSummary, LifecycleCounts, SpanTimeline};
use hgw_devices::DeviceProfile;
use hgw_gateway::Gateway;
use hgw_testbed::{Testbed, TestbedShell};

/// How many workers a [`FleetRunner`] campaign uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Parallelism {
    /// One worker per available CPU (capped at the fleet size).
    Auto,
    /// Exactly `n` workers (clamped to at least 1, at most the fleet size).
    Fixed(usize),
    /// Everything on the calling thread, in slot order.
    Sequential,
}

/// Parses `seq`, `sequential`, `auto`, or a worker count (the spelling of
/// the `HGW_FLEET_PARALLELISM` knob the bench binaries read).
impl core::str::FromStr for Parallelism {
    type Err = &'static str;

    fn from_str(s: &str) -> Result<Parallelism, &'static str> {
        match s {
            "seq" | "sequential" => Ok(Parallelism::Sequential),
            "auto" => Ok(Parallelism::Auto),
            n => n
                .parse()
                .map(Parallelism::Fixed)
                .map_err(|_| "expected `seq`, `sequential`, `auto` or a worker count"),
        }
    }
}

impl Parallelism {
    /// The number of workers this mode resolves to for a fleet of
    /// `devices` devices on this host.
    pub fn worker_count(&self, devices: usize) -> usize {
        let wanted = match self {
            Parallelism::Sequential => 1,
            Parallelism::Fixed(n) => (*n).max(1),
            Parallelism::Auto => std::thread::available_parallelism().map(|n| n.get()).unwrap_or(4),
        };
        wanted.min(devices.max(1))
    }
}

impl core::fmt::Display for Parallelism {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            Parallelism::Auto => write!(f, "auto"),
            Parallelism::Fixed(n) => write!(f, "fixed({n})"),
            Parallelism::Sequential => write!(f, "sequential"),
        }
    }
}

/// Observability metrics captured around one device's fleet run.
///
/// Every field is deterministic: it depends only on the campaign seed,
/// never on the execution schedule, so two runs compare with `==`.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct DeviceRunMetrics {
    /// Simulator events dispatched during the run.
    pub events: u64,
    /// Frames delivered to nodes.
    pub frames_delivered: u64,
    /// Frames dropped anywhere in the stack, by reason.
    pub frames_dropped: DropCounts,
    /// Trace events the simulator emitted during the probe
    /// ([`SimStats::trace_events`](hgw_core::SimStats::trace_events)
    /// counted from the end of testbed bring-up), while the frame counters
    /// above span the testbed's whole lifetime.
    pub trace_events: u64,
    /// NAT bindings created over the run.
    pub nat_bindings_created: u64,
    /// NAT bindings expired over the run.
    pub nat_bindings_expired: u64,
    /// High-water mark of simultaneously live NAT bindings.
    pub nat_bindings_peak: usize,
    /// Binding-lifecycle events by kind during the probe, counted by the
    /// gateway's NAT table from the end of testbed bring-up. Always on and
    /// independent of lifecycle tracing.
    pub nat_lifecycle: LifecycleCounts,
    /// Distribution of live-binding occupancy samples over the run (the
    /// NAT table logs a sample at every occupancy change). Deterministic
    /// and tracing-independent.
    pub nat_occupancy: Histogram,
    /// Virtual-time seconds until the first capacity refusal, if any.
    pub nat_first_refusal_secs: Option<f64>,
    /// Per-packet one-way delay distribution (link enqueue → delivery), in
    /// nanoseconds. `Some` iff the run had [`FleetRunner::telemetry`] on.
    pub delay_one_way: Option<HistogramSummary>,
    /// Link transmit-queue residency distribution in nanoseconds. `Some`
    /// iff the run had [`FleetRunner::telemetry`] on.
    pub delay_queue_residency: Option<HistogramSummary>,
    /// Gateway NAT/forwarding-engine processing delay distribution in
    /// nanoseconds. `Some` iff the run had [`FleetRunner::telemetry`] on.
    pub delay_nat_processing: Option<HistogramSummary>,
}

/// Streaming fleet-wide aggregate of NAT binding-lifecycle activity — the
/// fold target behind the run manifest's `binding_lifecycle` block.
///
/// Designed for [`FleetRunner::run_fold`]: `record` one device at a time
/// into a per-worker accumulator, then [`LifecycleFleetSummary::merge`] the
/// accumulators. Both are commutative and associative over devices (sums,
/// counts, min, and [`Histogram::merge`]), so the aggregate is bit-identical
/// across [`Parallelism`] modes.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct LifecycleFleetSummary {
    /// Devices folded in.
    pub devices: usize,
    /// Devices that produced at least one lifecycle event.
    pub traced_devices: usize,
    /// Fleet-wide event totals by kind.
    pub counts: LifecycleCounts,
    /// Per-device binding churn in events/minute (created + expired),
    /// rounded to the nearest integer.
    pub churn_per_min: Histogram,
    /// Pooled live-binding occupancy samples across every device.
    pub occupancy: Histogram,
    /// Per-device port-exhaustion onset in whole virtual seconds (devices
    /// that refused at least one flow only).
    pub refusal_onset_secs: Histogram,
    /// Devices that hit at least one capacity refusal.
    pub exhausted_devices: usize,
}

impl LifecycleFleetSummary {
    /// Folds one completed device in. `churn_per_min` is the device's
    /// binding churn rate (the household workload reports it directly;
    /// other probes can derive it from created + expired over duration).
    pub fn record(&mut self, metrics: &DeviceRunMetrics, churn_per_min: f64) {
        self.devices += 1;
        if metrics.nat_lifecycle.total() > 0 {
            self.traced_devices += 1;
        }
        self.counts.merge(&metrics.nat_lifecycle);
        self.churn_per_min.record(churn_per_min.round().max(0.0) as u64);
        self.occupancy.merge(&metrics.nat_occupancy);
        if let Some(onset) = metrics.nat_first_refusal_secs {
            self.exhausted_devices += 1;
            self.refusal_onset_secs.record(onset.max(0.0) as u64);
        }
    }

    /// Merges another accumulator in (order-independent).
    pub fn merge(&mut self, other: &LifecycleFleetSummary) {
        self.devices += other.devices;
        self.traced_devices += other.traced_devices;
        self.counts.merge(&other.counts);
        self.churn_per_min.merge(&other.churn_per_min);
        self.occupancy.merge(&other.occupancy);
        self.refusal_onset_secs.merge(&other.refusal_onset_secs);
        self.exhausted_devices += other.exhausted_devices;
    }
}

/// One device's probe panicked; the rest of the campaign kept running.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DeviceFailure {
    /// Tag of the failed device.
    pub tag: String,
    /// Table 1 slot of the failed device.
    pub slot: usize,
    /// Rendered panic payload.
    pub panic: String,
}

impl core::fmt::Display for DeviceFailure {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "device {} (slot {}) panicked: {}", self.tag, self.slot, self.panic)
    }
}

impl std::error::Error for DeviceFailure {}

/// Error returned by [`order_results`] when a figure's x-axis mentions a
/// device that has no result.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MissingDeviceError {
    /// The tag with no matching result.
    pub tag: String,
}

impl core::fmt::Display for MissingDeviceError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "no result for device {}", self.tag)
    }
}

impl std::error::Error for MissingDeviceError {}

/// Typed failure modes of a fleet campaign.
#[derive(Debug, Clone, PartialEq)]
pub enum FleetError {
    /// A device probe panicked and the caller asked for plain results
    /// (via [`FleetReport::into_results`] or
    /// [`FleetReport::into_results_with_metrics`]) instead of inspecting
    /// per-device outcomes.
    Device(DeviceFailure),
    /// A result ordering referenced a device with no result.
    MissingDevice(MissingDeviceError),
}

impl core::fmt::Display for FleetError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            FleetError::Device(failure) => write!(f, "{failure}"),
            FleetError::MissingDevice(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for FleetError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            FleetError::Device(failure) => Some(failure),
            FleetError::MissingDevice(e) => Some(e),
        }
    }
}

impl From<MissingDeviceError> for FleetError {
    fn from(e: MissingDeviceError) -> FleetError {
        FleetError::MissingDevice(e)
    }
}

impl From<DeviceFailure> for FleetError {
    fn from(e: DeviceFailure) -> FleetError {
        FleetError::Device(e)
    }
}

/// One device's slice of a [`FleetReport`], in Table 1 order.
#[derive(Debug)]
pub struct DeviceReport<R> {
    /// Device tag.
    pub tag: String,
    /// Table 1 slot (index into the campaign's device list).
    pub slot: usize,
    /// Which worker ran this device. **Schedule-dependent** under
    /// parallel modes.
    pub worker: usize,
    /// The probe's result, or the isolated panic that replaced it.
    pub outcome: Result<R, DeviceFailure>,
    /// Observability metrics (`Some` iff the probe completed).
    pub metrics: Option<DeviceRunMetrics>,
    /// Experiment span timeline over simulated time (`Some` iff the run had
    /// [`FleetRunner::telemetry`] on and the probe completed). Render with
    /// [`hgw_core::render_chrome_trace`] for Perfetto.
    pub spans: Option<SpanTimeline>,
}

/// One completed device as seen by a [`FleetRunner::run_fold`] fold
/// callback — everything a fleet-level aggregate can want, borrowed or
/// moved, without the report-sized retention of [`DeviceReport`].
#[derive(Debug)]
pub struct FleetSample<'d, R> {
    /// Slot of the device in the campaign's device list.
    pub slot: usize,
    /// Worker that ran the device. **Schedule-dependent.**
    pub worker: usize,
    /// The device that ran.
    pub device: &'d DeviceProfile,
    /// The probe's result.
    pub result: R,
    /// Observability metrics.
    pub metrics: DeviceRunMetrics,
}

/// The outcome of a [`FleetRunner::run_fold`] campaign.
#[derive(Debug)]
pub struct FoldReport<A> {
    /// The merged accumulator.
    pub aggregate: A,
    /// Devices successfully folded (fleet size minus failures).
    pub folded: usize,
    /// Isolated per-device panics, in slot order.
    pub failures: Vec<DeviceFailure>,
    /// How the campaign was scheduled.
    pub scheduling: SchedulingReport,
}

/// Per-worker scheduling counters. **Schedule-dependent**: which worker
/// picked up which device varies run to run under parallel modes.
#[derive(Debug, Clone, PartialEq)]
pub struct WorkerStats {
    /// Worker index (0-based).
    pub worker: usize,
    /// Devices this worker ran.
    pub devices_run: usize,
    /// Wall-clock milliseconds this worker spent inside device runs.
    pub busy_ms: f64,
    /// Work-queue batches this worker claimed.
    pub batches: usize,
    /// Devices built into the recycled testbed shell of this worker's
    /// previous device (the first device of every worker, and the one
    /// after a panicked device, start from an empty shell).
    pub pool_reused: u64,
}

/// How a campaign was scheduled — the wall-clock-dependent half of a
/// [`FleetReport`]. Run manifests record only its configuration
/// (`parallelism`, `workers`, `batch_size`).
#[derive(Debug, Clone, PartialEq)]
pub struct SchedulingReport {
    /// The requested parallelism mode.
    pub parallelism: Parallelism,
    /// Worker count the mode resolved to.
    pub workers: usize,
    /// The host's available parallelism (what [`Parallelism::Auto`] would
    /// resolve to before the fleet-size cap).
    pub host_parallelism: usize,
    /// Devices per work-queue batch (see [`FleetRunner::batch_size`]).
    pub batch_size: usize,
    /// Whole-campaign wall-clock time in milliseconds.
    pub wall_ms: f64,
    /// Per-worker scheduling counters, ordered by worker index.
    pub per_worker: Vec<WorkerStats>,
}

/// The outcome of one fleet campaign: per-device reports in Table 1 order
/// plus the scheduling metadata.
#[derive(Debug)]
pub struct FleetReport<R> {
    /// Per-device outcomes, in the same order as the device list handed to
    /// [`FleetRunner::new`] — regardless of completion order.
    pub devices: Vec<DeviceReport<R>>,
    /// How the campaign was scheduled.
    pub scheduling: SchedulingReport,
}

impl<R> FleetReport<R> {
    /// The isolated per-device failures, in slot order (empty on a clean
    /// campaign).
    pub fn failures(&self) -> Vec<&DeviceFailure> {
        self.devices.iter().filter_map(|d| d.outcome.as_ref().err()).collect()
    }

    /// Collapses the report into `(tag, result)` pairs in Table 1 order,
    /// failing on the first [`DeviceFailure`].
    pub fn into_results(self) -> Result<Vec<(String, R)>, FleetError> {
        self.devices.into_iter().map(|d| Ok((d.tag, d.outcome?))).collect()
    }

    /// Collapses the report into `(tag, result, metrics)` triples in
    /// Table 1 order, failing on the first [`DeviceFailure`].
    pub fn into_results_with_metrics(
        self,
    ) -> Result<Vec<(String, R, DeviceRunMetrics)>, FleetError> {
        self.devices
            .into_iter()
            .map(|d| {
                let result = d.outcome?;
                let metrics = d.metrics.expect("a completed device always carries metrics");
                Ok((d.tag, result, metrics))
            })
            .collect()
    }
}

/// Builder-style fleet campaign driver — the one way to run a measurement
/// across many devices (see the module docs for an example and the
/// determinism guarantee).
#[derive(Debug, Clone, Copy)]
pub struct FleetRunner<'d> {
    devices: &'d [DeviceProfile],
    seed: u64,
    parallelism: Parallelism,
    batch_size: Option<usize>,
    hosts: usize,
    telemetry: bool,
    dump_dir: Option<&'d Path>,
}

impl<'d> FleetRunner<'d> {
    /// A runner over `devices` with seed 0, [`Parallelism::Auto`],
    /// auto-sized batches, and telemetry off.
    pub fn new(devices: &'d [DeviceProfile]) -> FleetRunner<'d> {
        FleetRunner {
            devices,
            seed: 0,
            parallelism: Parallelism::Auto,
            batch_size: None,
            hosts: 1,
            telemetry: false,
            dump_dir: None,
        }
    }

    /// Sets the campaign seed every per-device seed is derived from.
    pub fn seed(mut self, seed: u64) -> FleetRunner<'d> {
        self.seed = seed;
        self
    }

    /// Sets the execution mode (results are identical across modes).
    pub fn parallelism(mut self, parallelism: Parallelism) -> FleetRunner<'d> {
        self.parallelism = parallelism;
        self
    }

    /// Sets the number of devices a worker claims from the work queue at a
    /// time (clamped to at least 1). The default auto-sizes to
    /// `clamp(devices / (workers × 8), 1, 256)` — one device per claim for
    /// the 34-device Table 1 fleet (preserving its scheduling behavior),
    /// growing toward 256 for mega-fleets so handout overhead amortizes
    /// while each worker still claims ~8 batches for load balance. A
    /// single worker ignores the setting and claims the whole fleet at once.
    /// Batching never affects results, only scheduling.
    pub fn batch_size(mut self, batch: usize) -> FleetRunner<'d> {
        self.batch_size = Some(batch.max(1));
        self
    }

    /// The batch size a campaign with `workers` workers resolves to.
    fn resolve_batch(&self, workers: usize) -> usize {
        match self.batch_size {
            _ if workers <= 1 => self.devices.len().max(1),
            Some(n) => n.max(1),
            None => (self.devices.len() / (workers * 8)).clamp(1, 256),
        }
    }

    /// Puts `n` DHCP LAN hosts behind every device's gateway (default 1 —
    /// the paper's Figure 1 testbed). Household campaigns pair this with
    /// [`measure_household`](crate::household::measure_household); results
    /// stay identical across [`Parallelism`] modes either way.
    pub fn hosts(mut self, n: usize) -> FleetRunner<'d> {
        self.hosts = n.max(1);
        self
    }

    /// The campaign's one observation switch. Enables per-device
    /// [`Telemetry`](hgw_core::Telemetry): the delay histograms folded into
    /// [`DeviceRunMetrics`], the span timeline in each [`DeviceReport`], and
    /// the flight recorder dumped when a probe panics. Telemetry is a pure
    /// sink — probe results and deterministic counters are unchanged. The
    /// counters in [`DeviceRunMetrics`] are always on and need no switch.
    pub fn telemetry(mut self, on: bool) -> FleetRunner<'d> {
        self.telemetry = on;
        self
    }

    /// Overrides the directory flight-recorder dumps are written to
    /// (default: `HGW_TELEMETRY_DUMP_DIR` or `target/flight-recorder`).
    pub fn dump_dir(mut self, dir: &'d Path) -> FleetRunner<'d> {
        self.dump_dir = Some(dir);
        self
    }

    /// Runs `probe` against every device and assembles a [`FleetReport`]
    /// in Table 1 order.
    ///
    /// A panicking probe is isolated to its device and surfaced as a
    /// [`DeviceFailure`] in that device's [`DeviceReport`]. The campaign
    /// itself never fails; the `Result` stays so existing callers keep
    /// compiling.
    pub fn run<R: Send>(
        &self,
        probe: impl Fn(&mut Testbed, &DeviceProfile) -> R + Sync,
    ) -> Result<FleetReport<R>, FleetError> {
        let (reports, scheduling) = self.execute(
            probe,
            Vec::new,
            |reports: &mut Vec<DeviceReport<R>>, slot, worker, out| {
                let tag = self.devices[slot].tag.to_string();
                let (outcome, metrics, spans) = match out {
                    Ok((result, metrics, spans)) => (Ok(result), Some(metrics), spans),
                    Err(failure) => (Err(failure), None, None),
                };
                reports.push(DeviceReport { tag, slot, worker, outcome, metrics, spans });
            },
        );
        let mut devices: Vec<_> = reports.into_iter().flatten().collect();
        devices.sort_unstable_by_key(|d| d.slot);
        Ok(FleetReport { devices, scheduling })
    }

    /// Streaming aggregation: runs `probe` against every device and folds
    /// each completed device straight into an accumulator instead of
    /// collecting per-device reports — the mega-fleet path, where
    /// materializing 10 000 [`DeviceReport`]s (and their span timelines)
    /// would dwarf the aggregate the caller actually wants.
    ///
    /// Each worker builds its own accumulator with `init` just before its
    /// first device and `fold`s its devices into it as they finish; when
    /// the queue drains, the per-worker accumulators are `merge`d in
    /// worker-index order. `merge` is never called when only one
    /// accumulator exists (one worker, or only one worker claimed a
    /// device). Panicked devices are collected as
    /// [`FoldReport::failures`] (slot order), not folded.
    ///
    /// **Determinism contract:** which devices a worker gets is
    /// schedule-dependent, so the aggregate is bit-identical across
    /// [`Parallelism`] modes iff `fold`/`merge` are commutative and
    /// associative over devices — sums, counts, min/max, and
    /// [`Histogram::merge`](hgw_core::telemetry::Histogram::merge) all
    /// qualify. Order-sensitive folds (e.g. "first device that …") are
    /// outside the contract; use [`FleetRunner::run`] for those.
    pub fn run_fold<R, A>(
        &self,
        probe: impl Fn(&mut Testbed, &DeviceProfile) -> R + Sync,
        init: impl Fn() -> A + Sync,
        fold: impl Fn(&mut A, FleetSample<'_, R>) + Sync,
        merge: impl Fn(&mut A, A),
    ) -> Result<FoldReport<A>, FleetError>
    where
        R: Send,
        A: Send,
    {
        let (states, scheduling) = self.execute(
            probe,
            || (init(), Vec::new()),
            |(acc, failures): &mut (A, Vec<DeviceFailure>), slot, worker, out| match out {
                Ok((result, metrics, _)) => {
                    let device = &self.devices[slot];
                    fold(acc, FleetSample { slot, worker, device, result, metrics });
                }
                Err(f) => failures.push(f),
            },
        );
        let mut aggregate = None;
        let mut failures = Vec::new();
        for (acc, mut f) in states {
            failures.append(&mut f);
            match &mut aggregate {
                Some(total) => merge(total, acc),
                None => aggregate = Some(acc),
            }
        }
        failures.sort_unstable_by_key(|f| f.slot);
        Ok(FoldReport {
            aggregate: aggregate.unwrap_or_else(init),
            folded: self.devices.len() - failures.len(),
            failures,
            scheduling,
        })
    }

    /// The one fleet execution loop behind [`FleetRunner::run`] and
    /// [`FleetRunner::run_fold`].
    ///
    /// Each worker claims batches of slots from a shared counter, runs
    /// every claimed device through [`FleetRunner::run_device`] in its own
    /// recycled testbed shell, and hands `(slot, worker, outcome)` to `sink`
    /// together with its private state, which `init` builds just before
    /// the worker's first device. The calling thread is worker 0; only
    /// workers 1.. are spawned, so a single worker runs without spawning.
    /// Returns the states of the workers that ran a device, in
    /// worker-index order.
    fn execute<R, W: Send>(
        &self,
        probe: impl Fn(&mut Testbed, &DeviceProfile) -> R + Sync,
        init: impl Fn() -> W + Sync,
        sink: impl Fn(&mut W, usize, usize, DeviceOutcome<R>) + Sync,
    ) -> (Vec<W>, SchedulingReport) {
        let start = std::time::Instant::now();
        let workers = self.parallelism.worker_count(self.devices.len());
        let batch = self.resolve_batch(workers);
        let next = AtomicUsize::new(0);
        let work = |worker: usize| -> (Option<W>, WorkerStats) {
            let mut shell = None;
            let mut state = None;
            let mut ws =
                WorkerStats { worker, devices_run: 0, busy_ms: 0.0, batches: 0, pool_reused: 0 };
            loop {
                let lo = next.fetch_add(batch, Ordering::Relaxed);
                if lo >= self.devices.len() {
                    return (state, ws);
                }
                let hi = (lo + batch).min(self.devices.len());
                ws.batches += 1;
                let t0 = std::time::Instant::now();
                for slot in lo..hi {
                    let state = state.get_or_insert_with(&init);
                    ws.pool_reused += shell.is_some() as u64;
                    let out = self.run_device(&self.devices[slot], slot, &probe, &mut shell);
                    sink(state, slot, worker, out);
                    ws.devices_run += 1;
                }
                ws.busy_ms += t0.elapsed().as_secs_f64() * 1e3;
            }
        };
        let outs: Vec<_> = std::thread::scope(|scope| {
            let work = &work;
            let spawned: Vec<_> =
                (1..workers).map(|worker| scope.spawn(move || work(worker))).collect();
            let first = work(0);
            let rest = spawned.into_iter().map(|h| h.join().unwrap_or_else(|p| resume_unwind(p)));
            std::iter::once(first).chain(rest).collect()
        });
        let mut states = Vec::with_capacity(workers);
        let mut per_worker = Vec::with_capacity(workers);
        for (state, ws) in outs {
            states.extend(state);
            per_worker.push(ws);
        }
        if self.devices.is_empty() {
            // Nothing was scheduled, so no worker reports.
            per_worker.clear();
        }
        let scheduling = SchedulingReport {
            parallelism: self.parallelism,
            workers,
            host_parallelism: std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1),
            batch_size: batch,
            wall_ms: start.elapsed().as_secs_f64() * 1e3,
            per_worker,
        };
        (states, scheduling)
    }

    /// Builds one device's testbed into the worker's `shell` (an empty one
    /// when `None`), runs the probe with panic isolation, harvests the
    /// counters and telemetry, and leaves the torn-down testbed in `shell`
    /// for the next device.
    ///
    /// Bring-up and probe run under separate `catch_unwind`s: a probe panic
    /// leaves the testbed alive, so its flight recorder can be dumped
    /// alongside the [`DeviceFailure`] before the campaign moves on. A
    /// testbed that panicked, in bring-up or in the probe, is dropped: its
    /// shell is never reused.
    fn run_device<R>(
        &self,
        device: &DeviceProfile,
        slot: usize,
        probe: &dyn Fn(&mut Testbed, &DeviceProfile) -> R,
        shell: &mut Option<TestbedShell>,
    ) -> DeviceOutcome<R> {
        let failure = |payload| DeviceFailure {
            tag: device.tag.to_string(),
            slot,
            panic: panic_message(payload),
        };
        let recycled = shell.take().unwrap_or_default();
        let brought_up = catch_unwind(AssertUnwindSafe(|| {
            let mut tb = Testbed::builder(device.tag, device.policy)
                .campaign_slot(slot, self.seed)
                .hosts(self.hosts)
                .build_in(recycled);
            if self.telemetry {
                tb.sim.enable_telemetry();
            }
            tb
        }));
        let mut tb = match brought_up {
            Ok(tb) => tb,
            // A bring-up panic means no testbed exists — nothing to dump.
            Err(payload) => return Err(failure(payload)),
        };
        // The probe's own counters start here, after bring-up.
        let baseline = ProbeCounters::read(&tb);
        match catch_unwind(AssertUnwindSafe(|| probe(&mut tb, device))) {
            Ok(result) => {
                let mut metrics = harvest_metrics(&tb, &baseline);
                let spans = tb.sim.take_telemetry().map(|mut t| {
                    let d = t.delay_summaries();
                    metrics.delay_one_way = Some(d.one_way);
                    metrics.delay_queue_residency = Some(d.queue_residency);
                    metrics.delay_nat_processing = Some(d.nat_processing);
                    std::mem::take(&mut t.spans)
                });
                *shell = Some(tb.into_shell());
                Ok((result, metrics, spans))
            }
            Err(payload) => {
                let failure = failure(payload);
                self.dump_flight_recorder(&mut tb, &failure);
                Err(failure)
            }
        }
    }

    /// Best-effort crash-scene dump for a panicked probe: writes the
    /// device's flight-recorder rings as pcap + JSON next to the failure.
    /// Dump errors are reported on stderr, never escalated — the campaign's
    /// own outcome must not depend on dump I/O.
    fn dump_flight_recorder(&self, tb: &mut Testbed, failure: &DeviceFailure) {
        let Some(t) = tb.sim.take_telemetry() else { return };
        if t.flight.event_count() == 0 && t.flight.frame_count() == 0 {
            return;
        }
        let dir = match self.dump_dir {
            Some(d) => d.to_path_buf(),
            None => flight_dump_dir(),
        };
        let stem = format!("{}-slot{}", failure.tag, failure.slot);
        match t.flight.dump(&dir, &stem, &failure.panic) {
            Ok(dump) => eprintln!(
                "fleet: {}: flight recorder dumped to {} / {}",
                failure.tag,
                dump.pcap.display(),
                dump.json.display()
            ),
            Err(e) => eprintln!("fleet: {}: flight recorder dump failed: {e}", failure.tag),
        }
    }
}

/// What [`FleetRunner::run_device`] produces for one device: the probe's
/// result with its metrics and telemetry span timeline, or the failure.
type DeviceOutcome<R> = Result<(R, DeviceRunMetrics, Option<SpanTimeline>), DeviceFailure>;

/// The always-on counters that [`DeviceRunMetrics`] reports as deltas over
/// the probe.
struct ProbeCounters {
    trace_events: u64,
    nat_lifecycle: LifecycleCounts,
}

impl ProbeCounters {
    fn read(tb: &Testbed) -> ProbeCounters {
        ProbeCounters {
            trace_events: tb.sim.stats().trace_events,
            nat_lifecycle: tb.sim.node_ref::<Gateway>(tb.gateway).nat_table().lifecycle_counts(),
        }
    }
}

fn harvest_metrics(tb: &Testbed, baseline: &ProbeCounters) -> DeviceRunMetrics {
    let stats = tb.sim.stats();
    let gateway = tb.sim.node_ref::<Gateway>(tb.gateway);
    let nat = gateway.nat_stats();
    let mut nat_occupancy = Histogram::new();
    for &(_, live) in gateway.nat_table().occupancy_log() {
        nat_occupancy.record(live as u64);
    }
    DeviceRunMetrics {
        events: stats.events,
        frames_delivered: stats.frames_delivered,
        frames_dropped: stats.frames_dropped,
        trace_events: stats.trace_events - baseline.trace_events,
        nat_bindings_created: nat.bindings_created,
        nat_bindings_expired: nat.bindings_expired,
        nat_bindings_peak: nat.peak_bindings,
        nat_lifecycle: gateway.nat_table().lifecycle_counts().since(&baseline.nat_lifecycle),
        nat_occupancy,
        nat_first_refusal_secs: nat.first_refusal_at.map(|t| t.as_secs_f64()),
        ..DeviceRunMetrics::default()
    }
}

fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&'static str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// Orders `(tag, value)` results along a published figure's x-axis order.
///
/// Returns an error naming the first tag in `order` that has no result, so
/// figure binaries can report a usable message instead of panicking deep in
/// a plotting helper.
///
/// ```
/// use hgw_probe::fleet::order_results;
///
/// let results = vec![("a".to_string(), 1), ("b".to_string(), 2)];
/// let ordered = order_results(&results, &["b", "a"]).unwrap();
/// assert_eq!(ordered[0], ("b".to_string(), 2));
/// assert!(order_results(&results, &["zz"]).is_err());
/// ```
pub fn order_results<R: Clone>(
    results: &[(String, R)],
    order: &[&str],
) -> Result<Vec<(String, R)>, MissingDeviceError> {
    order
        .iter()
        .map(|tag| {
            results
                .iter()
                .find(|(t, _)| t == tag)
                .cloned()
                .ok_or_else(|| MissingDeviceError { tag: tag.to_string() })
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use hgw_devices::all_devices;

    #[test]
    fn fleet_builds_every_testbed() {
        // Bring-up alone exercises DHCP on both sides of the devices.
        let devices = all_devices();
        let report = FleetRunner::new(&devices[..4])
            .seed(7)
            .parallelism(Parallelism::Sequential)
            .run(|tb, d| {
                assert_eq!(tb.tag(), d.tag);
                tb.client_addr().octets()[2]
            })
            .unwrap();
        let results = report.into_results().unwrap();
        assert_eq!(results.len(), 4);
        // Each device gets its own subnet slot.
        let subnets: std::collections::HashSet<u8> = results.iter().map(|(_, s)| *s).collect();
        assert_eq!(subnets.len(), 4);
    }

    #[test]
    fn order_results_reorders() {
        let results = vec![("a".to_string(), 1), ("b".to_string(), 2), ("c".to_string(), 3)];
        let ordered = order_results(&results, &["c", "a", "b"]).unwrap();
        assert_eq!(ordered, vec![("c".to_string(), 3), ("a".to_string(), 1), ("b".to_string(), 2)]);
    }

    #[test]
    fn order_results_errors_on_missing_tag() {
        let err = order_results(&[("a".to_string(), 1)], &["zz"]).unwrap_err();
        assert_eq!(err.tag, "zz");
        assert_eq!(err.to_string(), "no result for device zz");
        assert_eq!(FleetError::from(err).to_string(), "no result for device zz");
    }

    #[test]
    fn fleet_reports_metrics_without_a_switch() {
        let devices = all_devices();
        let results = FleetRunner::new(&devices[..2])
            .seed(7)
            .parallelism(Parallelism::Sequential)
            .run(|tb, _| {
                tb.run_for(hgw_core::Duration::from_secs(1));
                tb.sim.stats().events
            })
            .unwrap()
            .into_results_with_metrics()
            .unwrap();
        assert_eq!(results.len(), 2);
        for (tag, events, m) in &results {
            assert!(!tag.is_empty());
            assert_eq!(m.events, *events, "stats snapshot matches probe result");
            // Bring-up alone delivers DHCP traffic on both links.
            assert!(m.frames_delivered > 0, "{tag}: no frames delivered");
            // Trace events count from the end of bring-up, so they are at
            // most the lifetime totals.
            assert!(
                m.trace_events
                    <= m.frames_delivered + m.frames_dropped.total() + m.nat_bindings_created
            );
            assert!(m.delay_one_way.is_none(), "{tag}: delay histograms need telemetry");
        }
    }

    /// A probe that pushes real traffic through the NAT so the telemetry
    /// histograms have something to measure.
    fn dns_probe(tb: &mut Testbed, _: &DeviceProfile) -> u64 {
        crate::dns::measure_dns(tb);
        tb.sim.stats().events
    }

    #[test]
    fn telemetry_fleet_reports_delay_histograms_and_spans() {
        let devices = all_devices();
        let report = FleetRunner::new(&devices[..2])
            .seed(7)
            .parallelism(Parallelism::Sequential)
            .telemetry(true)
            .run(dns_probe)
            .unwrap();
        for d in &report.devices {
            assert!(d.outcome.is_ok());
            assert!(d.spans.is_some(), "{}: telemetry runs carry a span timeline", d.tag);
            let m = d.metrics.as_ref().expect("completed devices carry metrics");
            let one_way = m.delay_one_way.expect("telemetry populates one-way delay");
            assert!(one_way.count > 0, "{}: no delay samples", d.tag);
            assert!(one_way.p50 <= one_way.p90 && one_way.p90 <= one_way.p99, "{}", d.tag);
            assert!(one_way.p99 <= one_way.max, "{}", d.tag);
            let residency = m.delay_queue_residency.expect("telemetry populates residency");
            assert!(residency.count >= one_way.count, "{}: residency covers every tx", d.tag);
            assert!(m.delay_nat_processing.is_some());
        }
    }

    #[test]
    fn telemetry_does_not_change_results_or_counters() {
        let devices = all_devices();
        let runner = FleetRunner::new(&devices[..2])
            .seed(42)
            .parallelism(Parallelism::Sequential)
            .telemetry(false);
        let plain = runner.run(dns_probe).unwrap().into_results_with_metrics().unwrap();
        let with_t =
            runner.telemetry(true).run(dns_probe).unwrap().into_results_with_metrics().unwrap();
        let strip =
            |v: Vec<(String, u64, DeviceRunMetrics)>| -> Vec<(String, u64, DeviceRunMetrics)> {
                v.into_iter()
                    .map(|(t, r, mut m)| {
                        m.delay_one_way = None;
                        m.delay_queue_residency = None;
                        m.delay_nat_processing = None;
                        (t, r, m)
                    })
                    .collect()
            };
        assert_eq!(strip(plain), strip(with_t), "telemetry must be a pure sink");
    }

    fn nat_cfg() -> crate::household::WorkloadConfig {
        crate::household::WorkloadConfig {
            flows_per_host: 2,
            duration: hgw_core::Duration::from_secs(10),
            ..Default::default()
        }
    }

    /// A probe that drives NATed flows (the DNS probe terminates at the
    /// gateway's proxy, so it never touches the binding table).
    fn nat_probe(tb: &mut Testbed, _: &DeviceProfile) -> u64 {
        crate::household::measure_household(tb, &nat_cfg()).nat.bindings_created
    }

    #[test]
    fn traced_probe_coexists_with_fleet_metrics() {
        use crate::household::{measure_household, measure_household_traced};
        let devices = all_devices();
        let runner = FleetRunner::new(&devices[..2]).seed(42).parallelism(Parallelism::Sequential);
        let plain = runner
            .run(|tb, _| measure_household(tb, &nat_cfg()))
            .unwrap()
            .into_results_with_metrics()
            .unwrap();
        // The traced probe holds the simulator's observer slot for its
        // whole run; the fleet's counters do not need it.
        let traced = runner
            .run(|tb, _| measure_household_traced(tb, &nat_cfg()))
            .unwrap()
            .into_results_with_metrics()
            .unwrap();
        for ((t0, r0, m0), (t1, (r1, flows), m1)) in plain.iter().zip(&traced) {
            assert_eq!((t0, r0), (t1, r1), "lifecycle tracing must not change probe results");
            assert!(m1.nat_lifecycle.total() > 0, "{t1}: no lifecycle events counted");
            // The always-on counters equal the per-kind tally of the
            // probe's own traced stream.
            let mut tally = LifecycleCounts::ZERO;
            flows.iter().flat_map(|f| &f.events).for_each(|&(_, lc)| tally.add(lc));
            assert_eq!(m1.nat_lifecycle, tally, "{t1}: counters disagree with the trace");
            // Tracing adds exactly its binding events to the emitted total
            // and changes no other deterministic counter.
            assert_eq!(m1.trace_events, m0.trace_events + tally.total(), "{t1}");
            let strip = |m: &DeviceRunMetrics| DeviceRunMetrics { trace_events: 0, ..m.clone() };
            assert_eq!(strip(m0), strip(m1), "{t0}: tracing must be a pure sink");
        }
    }

    #[test]
    fn lifecycle_counts_are_always_on() {
        use hgw_core::BindingLifecycle;
        let devices = all_devices();
        let results = FleetRunner::new(&devices[..2])
            .seed(42)
            .parallelism(Parallelism::Sequential)
            .run(nat_probe)
            .unwrap()
            .into_results_with_metrics()
            .unwrap();
        for (tag, created, m) in &results {
            // Bring-up creates no bindings, so the probe's created count
            // is the NAT's lifetime total.
            let counted = m.nat_lifecycle.by(BindingLifecycle::Created { port_preserved: false });
            assert_eq!(counted, *created, "{tag}");
            assert_eq!(counted, m.nat_bindings_created, "{tag}");
        }
    }

    #[test]
    fn lifecycle_fleet_summary_folds_and_merges() {
        let devices = all_devices();
        let runner = FleetRunner::new(&devices[..4]).seed(7).parallelism(Parallelism::Sequential);
        let fold = |runner: FleetRunner<'_>| {
            runner
                .run_fold(
                    nat_probe,
                    LifecycleFleetSummary::default,
                    |acc, sample| acc.record(&sample.metrics, 0.0),
                    |acc, other| acc.merge(&other),
                )
                .unwrap()
        };
        let folded = fold(runner);
        assert!(folded.failures.is_empty());
        let seq = folded.aggregate;
        assert_eq!(seq.devices, 4);
        assert_eq!(seq.traced_devices, 4);
        assert!(seq.counts.total() > 0);
        assert_eq!(seq.churn_per_min.count(), 4);
        // The same campaign under parallel workers folds to the same
        // aggregate: record/merge are commutative and associative.
        let par = fold(runner.parallelism(Parallelism::Fixed(2)));
        assert_eq!(seq, par.aggregate, "fold aggregate must be schedule-independent");
    }

    #[test]
    fn panicking_probe_dumps_the_flight_recorder() {
        let devices = all_devices();
        let dir = std::env::temp_dir().join(format!("hgw-flight-{}", std::process::id()));
        let report = FleetRunner::new(&devices[..2])
            .seed(3)
            .parallelism(Parallelism::Sequential)
            .telemetry(true)
            .dump_dir(&dir)
            .run(|tb, d| {
                crate::dns::measure_dns(tb);
                if d.tag == devices[1].tag {
                    panic!("induced failure for the flight recorder test");
                }
                0u8
            })
            .unwrap();
        assert!(report.devices[0].outcome.is_ok());
        let failure = report.devices[1].outcome.as_ref().unwrap_err();
        assert!(failure.panic.contains("induced failure"));
        let stem = format!("{}-slot1", devices[1].tag);
        let pcap = dir.join(format!("{stem}.pcap"));
        let json = dir.join(format!("{stem}.json"));
        let pcap_bytes = std::fs::read(&pcap).expect("flight recorder pcap written");
        assert_eq!(&pcap_bytes[..4], &0xA1B2_C3D4u32.to_le_bytes(), "pcap magic");
        let json_text = std::fs::read_to_string(&json).expect("flight recorder json written");
        assert!(json_text.contains("hgw-flight-recorder/1"));
        assert!(json_text.contains("induced failure"));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn parallelism_resolution_and_display() {
        assert_eq!(Parallelism::Sequential.worker_count(34), 1);
        assert_eq!(Parallelism::Fixed(4).worker_count(34), 4);
        assert_eq!(Parallelism::Fixed(0).worker_count(34), 1, "Fixed(0) clamps to 1");
        assert_eq!(Parallelism::Fixed(64).worker_count(34), 34, "capped at fleet size");
        assert!(Parallelism::Auto.worker_count(34) >= 1);
        assert_eq!(Parallelism::Fixed(4).to_string(), "fixed(4)");
        assert_eq!(Parallelism::Auto.to_string(), "auto");
        assert_eq!(Parallelism::Sequential.to_string(), "sequential");
    }

    #[test]
    fn parallel_run_assembles_in_table_order() {
        let devices = all_devices();
        let report = FleetRunner::new(&devices[..6])
            .seed(11)
            .parallelism(Parallelism::Fixed(3))
            .run(|tb, _| tb.index)
            .unwrap();
        assert_eq!(report.scheduling.workers, 3);
        let ran: usize = report.scheduling.per_worker.iter().map(|w| w.devices_run).sum();
        assert_eq!(ran, 6, "every device attributed to exactly one worker");
        for (slot, d) in report.devices.iter().enumerate() {
            assert_eq!(d.slot, slot);
            assert_eq!(d.tag, devices[slot].tag);
            assert!(d.worker < 3);
        }
        let indices: Vec<u8> = report.into_results().unwrap().iter().map(|(_, i)| *i).collect();
        assert_eq!(indices, vec![1, 2, 3, 4, 5, 6]);
    }

    #[test]
    fn empty_fleet_is_a_clean_noop() {
        let report = FleetRunner::new(&[]).run(|_, _| 0u8).unwrap();
        assert!(report.devices.is_empty());
        assert!(report.scheduling.per_worker.is_empty());
        assert!(report.into_results().unwrap().is_empty());
    }

    #[test]
    fn metrics_are_present_exactly_when_the_probe_completed() {
        let devices = all_devices();
        let report = FleetRunner::new(&devices[..2])
            .parallelism(Parallelism::Sequential)
            .run(|_, d| assert_ne!(d.tag, devices[1].tag, "induced failure"))
            .unwrap();
        assert!(report.devices[0].metrics.is_some());
        assert!(report.devices[1].metrics.is_none());
        let err = report.into_results_with_metrics().unwrap_err();
        assert!(matches!(err, FleetError::Device(f) if f.slot == 1));
    }

    #[test]
    fn run_and_run_fold_agree_per_slot_and_on_failures() {
        let devices = all_devices();
        let n = 6;
        // A single worker ignores batch_size and claims the fleet at once.
        for (parallelism, workers, batch) in
            [(Parallelism::Sequential, 1, n), (Parallelism::Fixed(3), 3, 2)]
        {
            // Each device waits until every worker has one in flight, so
            // each worker runs exactly one batch.
            let in_flight = std::sync::Barrier::new(workers);
            let probe = |tb: &mut Testbed, d: &DeviceProfile| {
                in_flight.wait();
                assert_ne!(d.tag, devices[3].tag, "induced failure");
                (tb.index, tb.client_addr())
            };
            let runner =
                FleetRunner::new(&devices[..n]).seed(9).parallelism(parallelism).batch_size(2);
            let report = runner.run(probe).unwrap();
            let folded = runner
                .run_fold(
                    probe,
                    Vec::new,
                    |acc, s| acc.push((s.slot, s.result)),
                    |acc, mut other| acc.append(&mut other),
                )
                .unwrap();
            let ran: Vec<_> = report
                .devices
                .iter()
                .filter_map(|d| Some((d.slot, *d.outcome.as_ref().ok()?)))
                .collect();
            let mut per_slot = folded.aggregate;
            per_slot.sort_unstable_by_key(|&(slot, _)| slot);
            assert_eq!(per_slot, ran, "{parallelism}");
            let failures: Vec<_> = report.failures().into_iter().cloned().collect();
            assert_eq!(folded.failures, failures, "{parallelism}");
            assert_eq!(failures.len(), 1, "{parallelism}");
            assert_eq!(failures[0].slot, 3);
            assert!(failures[0].panic.contains("induced failure"));
            assert_eq!(folded.folded, n - failures.len(), "{parallelism}");
            for s in [&report.scheduling, &folded.scheduling] {
                assert_eq!((s.workers, s.batch_size), (workers, batch), "{parallelism}");
                assert_eq!(s.per_worker.len(), workers, "{parallelism}");
                for w in &s.per_worker {
                    assert_eq!((w.batches, w.devices_run), (1, batch), "{parallelism}: {w:?}");
                }
            }
        }
    }
}
