//! First-class telemetry: HDR-style latency histograms, experiment span
//! timelines, and a crash-scene flight recorder.
//!
//! The paper's TCP-3 experiment reconstructs queuing + processing delay
//! inside the gateway from timestamps embedded in the bulk payload; this
//! module gives the reproduction the same visibility from the white-box
//! side. Everything here is **purely observational**: recording a sample
//! never touches clocks, queues, or RNG streams, so a run with telemetry
//! enabled is bit-for-bit identical to one without (the test suite asserts
//! this, mirroring the `SimObserver` purity guarantee).
//!
//! Pieces:
//!
//! * [`Histogram`] — log-linear (HDR-style) bucketing over the full `u64`
//!   range with 16 sub-buckets per octave (≤ 6.25% relative error), an
//!   exact maximum, and associative merging across per-worker histograms.
//! * [`SpanTimeline`] — named begin/end spans over simulated time,
//!   exportable as Chrome trace-event JSON ([`render_chrome_trace`]) that
//!   loads directly in Perfetto or `chrome://tracing`.
//! * [`FlightRecorder`] — bounded rings of the last N trace events and
//!   delivered frames, dumped to a pcap + JSON pair when a device fails.
//! * [`Telemetry`] — the umbrella the simulator owns when telemetry is
//!   enabled: the three delay histograms, the timeline and the recorder.
//!
//! Per-device counters (frames, drops, trace events, NAT binding
//! lifecycles) are not telemetry: they are always on, in
//! [`SimStats`](crate::SimStats) and the gateway's NAT table.

use std::collections::VecDeque;
use std::io::{self, Write};
use std::path::{Path, PathBuf};

use crate::node::NodeId;
use crate::pcap::PcapWriter;
use crate::time::{Duration, Instant};
use crate::trace::TraceEvent;

// ---------------------------------------------------------------------------
// Histogram
// ---------------------------------------------------------------------------

/// Sub-bucket resolution: each power-of-two octave is split into
/// `2^SUB_BITS` linear sub-buckets, bounding relative error at
/// `2^-SUB_BITS` (6.25%).
const SUB_BITS: u32 = 4;
/// Sub-buckets per octave.
const SUB_BUCKETS: usize = 1 << SUB_BITS;
/// Total buckets: values below `SUB_BUCKETS` get one exact bucket each;
/// octaves `2^4 .. 2^63` get `SUB_BUCKETS` buckets apiece.
const NUM_BUCKETS: usize = SUB_BUCKETS + (64 - SUB_BITS as usize) * SUB_BUCKETS;

/// A log-linear latency histogram over `u64` values (nanoseconds, in this
/// project), in the spirit of HdrHistogram.
///
/// Values below 16 are recorded exactly; larger values land in one of 16
/// linear sub-buckets of their power-of-two octave, so any reported
/// quantile is within 6.25% of the true value (and never above the exact
/// recorded maximum). Recording is an increment of one array slot —
/// no allocation, no branching beyond the bucket computation.
///
/// ```
/// use hgw_core::telemetry::Histogram;
///
/// let mut h = Histogram::new();
/// for v in [100u64, 200, 300, 400] {
///     h.record(v);
/// }
/// assert_eq!(h.count(), 4);
/// assert_eq!(h.max(), 400);
/// assert!(h.quantile(0.5) >= 200);
/// ```
#[derive(Clone, PartialEq, Eq)]
pub struct Histogram {
    buckets: Box<[u64; NUM_BUCKETS]>,
    count: u64,
    sum: u64,
    max: u64,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram::new()
    }
}

impl core::fmt::Debug for Histogram {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.debug_struct("Histogram")
            .field("count", &self.count)
            .field("sum", &self.sum)
            .field("max", &self.max)
            .field("p50", &self.quantile(0.5))
            .field("p99", &self.quantile(0.99))
            .finish()
    }
}

impl Histogram {
    /// An empty histogram.
    pub fn new() -> Histogram {
        Histogram { buckets: Box::new([0u64; NUM_BUCKETS]), count: 0, sum: 0, max: 0 }
    }

    /// The bucket index a value lands in. Monotone in `v`.
    pub fn bucket_index(v: u64) -> usize {
        if v < SUB_BUCKETS as u64 {
            v as usize
        } else {
            let k = 63 - v.leading_zeros(); // highest set bit, >= SUB_BITS
            let sub = ((v >> (k - SUB_BITS)) as usize) & (SUB_BUCKETS - 1);
            SUB_BUCKETS + ((k - SUB_BITS) as usize) * SUB_BUCKETS + sub
        }
    }

    /// The largest value bucket `index` can hold (its inclusive upper
    /// bound). Monotone in `index`; every value maps into a bucket whose
    /// bound is `>=` the value.
    pub fn bucket_bound(index: usize) -> u64 {
        assert!(index < NUM_BUCKETS, "bucket index out of range");
        if index < SUB_BUCKETS {
            index as u64
        } else {
            let octave = (index - SUB_BUCKETS) / SUB_BUCKETS;
            let sub = ((index - SUB_BUCKETS) % SUB_BUCKETS) as u64;
            let k = octave as u32 + SUB_BITS;
            let width = 1u64 << (k - SUB_BITS);
            let low = (1u64 << k) + sub * width;
            low + (width - 1)
        }
    }

    /// Records one value.
    #[inline]
    pub fn record(&mut self, v: u64) {
        self.buckets[Self::bucket_index(v)] += 1;
        self.count += 1;
        self.sum = self.sum.saturating_add(v);
        if v > self.max {
            self.max = v;
        }
    }

    /// Records a [`Duration`] in nanoseconds.
    #[inline]
    pub fn record_duration(&mut self, d: Duration) {
        self.record(d.as_nanos());
    }

    /// Number of recorded values.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of recorded values (saturating).
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// The exact largest recorded value (0 when empty).
    pub fn max(&self) -> u64 {
        self.max
    }

    /// True if nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Mean of recorded values (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// The value at quantile `q` in `[0, 1]`: the upper bound of the bucket
    /// holding the `ceil(q · count)`-th smallest sample, clamped to the
    /// exact maximum. Returns 0 for an empty histogram.
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let q = q.clamp(0.0, 1.0);
        let target = ((q * self.count as f64).ceil() as u64).max(1);
        let mut seen = 0u64;
        for (i, &n) in self.buckets.iter().enumerate() {
            seen += n;
            if seen >= target {
                return Self::bucket_bound(i).min(self.max);
            }
        }
        self.max
    }

    /// Adds every sample of `other` into `self`. Element-wise over buckets,
    /// so merging is associative and commutative — per-worker histograms
    /// can be combined in any order with identical results.
    pub fn merge(&mut self, other: &Histogram) {
        for (slot, v) in self.buckets.iter_mut().zip(other.buckets.iter()) {
            *slot += v;
        }
        self.count += other.count;
        self.sum = self.sum.saturating_add(other.sum);
        self.max = self.max.max(other.max);
    }

    /// The compact summary recorded into manifests.
    pub fn summary(&self) -> HistogramSummary {
        HistogramSummary {
            count: self.count,
            p50: self.quantile(0.50),
            p90: self.quantile(0.90),
            p99: self.quantile(0.99),
            max: self.max,
        }
    }

    /// Iterates non-empty buckets as `(upper_bound, count)` pairs.
    pub fn nonzero_buckets(&self) -> impl Iterator<Item = (u64, u64)> + '_ {
        self.buckets
            .iter()
            .enumerate()
            .filter(|(_, &n)| n > 0)
            .map(|(i, &n)| (Self::bucket_bound(i), n))
    }
}

/// Percentile snapshot of a [`Histogram`] — the deterministic digest that
/// travels through `DeviceRunMetrics` into fleet manifests.
///
/// Empty-histogram contract (pinned by tests): when `count == 0` every
/// field is 0 — [`Histogram::quantile`] returns 0 for *any* `q` (including
/// 0.0 and 1.0) on a zero-count histogram, and `max` is 0 because nothing
/// was recorded. A manifest reader can therefore treat `count == 0` as
/// "no data" without special-casing the percentile fields.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct HistogramSummary {
    /// Number of recorded samples.
    pub count: u64,
    /// 50th-percentile bucket bound, in the histogram's unit (ns).
    pub p50: u64,
    /// 90th-percentile bucket bound.
    pub p90: u64,
    /// 99th-percentile bucket bound.
    pub p99: u64,
    /// Exact maximum recorded value.
    pub max: u64,
}

// ---------------------------------------------------------------------------
// Span timeline
// ---------------------------------------------------------------------------

/// Handle to an open span. [`SpanId::DISABLED`] is a no-op sentinel so
/// probes can open/close spans unconditionally whether or not telemetry is
/// enabled.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpanId(usize);

impl SpanId {
    /// The no-op span handle returned when telemetry is disabled.
    pub const DISABLED: SpanId = SpanId(usize::MAX);
}

/// One recorded span: a named interval of simulated time.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpanRecord {
    /// Phase name, e.g. `"tcp2-upload"` or `"udp1-trial"`.
    pub name: String,
    /// When the span opened (simulated time).
    pub start: Instant,
    /// When the span closed; `None` if it was still open at harvest.
    pub end: Option<Instant>,
    /// Free-form argument shown in the trace viewer (e.g. `"sleep=120s"`).
    pub arg: Option<String>,
}

/// An append-only timeline of experiment phases over simulated time.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SpanTimeline {
    spans: Vec<SpanRecord>,
}

impl SpanTimeline {
    /// An empty timeline.
    pub fn new() -> SpanTimeline {
        SpanTimeline::default()
    }

    /// Opens a span at `now`.
    pub fn begin(&mut self, name: &str, now: Instant) -> SpanId {
        self.spans.push(SpanRecord { name: name.to_string(), start: now, end: None, arg: None });
        SpanId(self.spans.len() - 1)
    }

    /// Opens a span at `now` with a viewer-visible argument.
    pub fn begin_with_arg(&mut self, name: &str, arg: String, now: Instant) -> SpanId {
        self.spans.push(SpanRecord {
            name: name.to_string(),
            start: now,
            end: None,
            arg: Some(arg),
        });
        SpanId(self.spans.len() - 1)
    }

    /// Closes a span at `now`. No-op for [`SpanId::DISABLED`] or an
    /// already-closed span.
    pub fn end(&mut self, id: SpanId, now: Instant) {
        if id == SpanId::DISABLED {
            return;
        }
        if let Some(span) = self.spans.get_mut(id.0) {
            if span.end.is_none() {
                span.end = Some(now);
            }
        }
    }

    /// The recorded spans in open order.
    pub fn spans(&self) -> &[SpanRecord] {
        &self.spans
    }

    /// Number of recorded spans.
    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// True if no spans were recorded.
    pub fn is_empty(&self) -> bool {
        self.spans.is_empty()
    }
}

/// Nanoseconds rendered as fractional microseconds (Chrome trace `ts`/`dur`
/// unit), with deterministic formatting.
fn trace_us(nanos: u64) -> String {
    format!("{}.{:03}", nanos / 1000, nanos % 1000)
}

fn trace_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// Renders one or more per-device span timelines as Chrome trace-event
/// JSON. Each `(label, timeline)` pair becomes one named thread (`tid` =
/// its index) of a single process; spans become `"ph": "X"` complete
/// events with timestamps in simulated microseconds. The output loads
/// directly in Perfetto (<https://ui.perfetto.dev>) or `chrome://tracing`.
pub fn render_chrome_trace(threads: &[(String, &SpanTimeline)]) -> String {
    let mut events = Vec::new();
    for (tid, (label, _)) in threads.iter().enumerate() {
        events.push(format!(
            "{{\"ph\": \"M\", \"pid\": 0, \"tid\": {}, \"name\": \"thread_name\", \
             \"args\": {{\"name\": \"{}\"}}}}",
            tid,
            trace_escape(label)
        ));
    }
    for (tid, (_, timeline)) in threads.iter().enumerate() {
        for span in timeline.spans() {
            let start = span.start.as_nanos();
            let dur = span.end.map(|e| e.as_nanos().saturating_sub(start)).unwrap_or(0);
            let args = match &span.arg {
                Some(a) => format!(", \"args\": {{\"arg\": \"{}\"}}", trace_escape(a)),
                None => String::new(),
            };
            events.push(format!(
                "{{\"ph\": \"X\", \"pid\": 0, \"tid\": {}, \"name\": \"{}\", \
                 \"ts\": {}, \"dur\": {}{}}}",
                tid,
                trace_escape(&span.name),
                trace_us(start),
                trace_us(dur),
                args
            ));
        }
    }
    format!("{{\"traceEvents\": [\n{}\n]}}\n", events.join(",\n"))
}

// ---------------------------------------------------------------------------
// Flight recorder
// ---------------------------------------------------------------------------

/// Paths written by [`FlightRecorder::dump`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FlightDump {
    /// The pcap of the last captured frames.
    pub pcap: PathBuf,
    /// The JSON dump of the last trace events.
    pub json: PathBuf,
}

/// Schema identifier stamped into flight-recorder JSON dumps.
pub const FLIGHT_RECORDER_SCHEMA: &str = "hgw-flight-recorder/1";

/// A bounded ring buffer of the most recent trace events and delivered
/// frames — the crash scene preserved when a device's probe panics.
///
/// Frame copies reuse their own retired ring buffers (never the
/// simulator's [`FramePool`](crate::pool::FramePool)), so enabling the
/// recorder cannot perturb the pool-hit statistics.
#[derive(Debug)]
pub struct FlightRecorder {
    max_events: usize,
    max_frames: usize,
    events: VecDeque<(Instant, NodeId, TraceEvent)>,
    frames: VecDeque<(Instant, Vec<u8>)>,
}

impl FlightRecorder {
    /// A recorder keeping the last `max_events` trace events and
    /// `max_frames` delivered frames.
    pub fn new(max_events: usize, max_frames: usize) -> FlightRecorder {
        FlightRecorder {
            max_events,
            max_frames,
            events: VecDeque::with_capacity(max_events.min(4096)),
            frames: VecDeque::with_capacity(max_frames.min(4096)),
        }
    }

    /// Records one trace event, evicting the oldest past capacity.
    pub fn record_event(&mut self, at: Instant, node: NodeId, event: TraceEvent) {
        if self.max_events == 0 {
            return;
        }
        if self.events.len() >= self.max_events {
            self.events.pop_front();
        }
        self.events.push_back((at, node, event));
    }

    /// Records a copy of a delivered frame, evicting (and reusing the
    /// buffer of) the oldest past capacity.
    pub fn record_frame(&mut self, at: Instant, frame: &[u8]) {
        if self.max_frames == 0 {
            return;
        }
        let mut buf = if self.frames.len() >= self.max_frames {
            let (_, mut old) = self.frames.pop_front().expect("non-empty ring");
            old.clear();
            old
        } else {
            Vec::with_capacity(frame.len())
        };
        buf.extend_from_slice(frame);
        self.frames.push_back((at, buf));
    }

    /// The retained events, oldest first.
    pub fn events(&self) -> impl Iterator<Item = &(Instant, NodeId, TraceEvent)> {
        self.events.iter()
    }

    /// The retained frames, oldest first.
    pub fn frames(&self) -> impl Iterator<Item = &(Instant, Vec<u8>)> {
        self.frames.iter()
    }

    /// Number of retained events.
    pub fn event_count(&self) -> usize {
        self.events.len()
    }

    /// Number of retained frames.
    pub fn frame_count(&self) -> usize {
        self.frames.len()
    }

    /// Writes `<stem>.pcap` (the retained frames) and `<stem>.json` (the
    /// retained events plus `note`, schema [`FLIGHT_RECORDER_SCHEMA`]) into
    /// `dir`, creating it as needed.
    pub fn dump(&self, dir: &Path, stem: &str, note: &str) -> io::Result<FlightDump> {
        std::fs::create_dir_all(dir)?;
        let pcap_path = dir.join(format!("{stem}.pcap"));
        let json_path = dir.join(format!("{stem}.json"));

        let mut pcap = PcapWriter::new(io::BufWriter::new(std::fs::File::create(&pcap_path)?))?;
        for (at, frame) in &self.frames {
            pcap.write_frame(*at, frame)?;
        }
        pcap.finish()?;

        let mut rows = Vec::with_capacity(self.events.len());
        for (at, node, event) in &self.events {
            rows.push(event_json(*at, *node, event));
        }
        let json = format!(
            "{{\n  \"schema\": \"{}\",\n  \"note\": \"{}\",\n  \"frames\": {},\n  \
             \"events\": [\n{}\n  ]\n}}\n",
            FLIGHT_RECORDER_SCHEMA,
            trace_escape(note),
            self.frames.len(),
            rows.join(",\n"),
        );
        let mut f = std::fs::File::create(&json_path)?;
        f.write_all(json.as_bytes())?;
        Ok(FlightDump { pcap: pcap_path, json: json_path })
    }
}

fn event_json(at: Instant, node: NodeId, event: &TraceEvent) -> String {
    let body = match event {
        TraceEvent::FrameDropped { reason, bytes } => {
            format!(
                "\"kind\": \"frame_dropped\", \"reason\": \"{}\", \"bytes\": {bytes}",
                reason.name()
            )
        }
        TraceEvent::FrameDelivered { bytes } => {
            format!("\"kind\": \"frame_delivered\", \"bytes\": {bytes}")
        }
        TraceEvent::BindingCreated { external_port, port_preserved } => format!(
            "\"kind\": \"binding_created\", \"external_port\": {external_port}, \
             \"port_preserved\": {port_preserved}"
        ),
        TraceEvent::Binding { flow, proto, external_port, lifecycle } => format!(
            "\"kind\": \"binding_lifecycle\", \"lifecycle\": \"{}\", \
             \"flow\": \"{:016x}\", \"proto\": {proto}, \"external_port\": {external_port}",
            lifecycle.kind_name(),
            flow.0
        ),
    };
    format!("    {{\"t_ns\": {}, \"node\": {}, {}}}", at.as_nanos(), node.0, body)
}

// ---------------------------------------------------------------------------
// Telemetry umbrella
// ---------------------------------------------------------------------------

/// Trace events the flight recorder of a [`Telemetry`] instance retains.
pub const FLIGHT_EVENTS: usize = 256;
/// Delivered frames the flight recorder of a [`Telemetry`] instance retains.
pub const FLIGHT_FRAMES: usize = 64;

/// The flight-recorder dump directory: `HGW_TELEMETRY_DUMP_DIR`, or
/// `target/flight-recorder` when unset.
pub fn flight_dump_dir() -> PathBuf {
    match std::env::var("HGW_TELEMETRY_DUMP_DIR") {
        Ok(d) if !d.trim().is_empty() => PathBuf::from(d),
        _ => PathBuf::from("target/flight-recorder"),
    }
}

/// Compact per-device delay digest: the three built-in histograms
/// summarized for `DeviceRunMetrics` and the fleet manifest.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DelaySummaries {
    /// Per-packet one-way delay (link enqueue → delivery), ns.
    pub one_way: HistogramSummary,
    /// Per-frame link transmit-queue residency (enqueue → head of line), ns.
    pub queue_residency: HistogramSummary,
    /// Per-packet gateway NAT/forwarding processing delay, ns.
    pub nat_processing: HistogramSummary,
}

/// Everything the simulator owns when telemetry is enabled: the three
/// delay histograms, the span timeline and the flight recorder.
///
/// Boxed behind `Option` in the simulator, so the disabled path costs one
/// pointer-null check per instrumentation site.
#[derive(Debug)]
pub struct Telemetry {
    /// Per-packet one-way delay (link enqueue → delivery), ns.
    pub one_way_delay: Histogram,
    /// Per-frame link transmit-queue residency (enqueue → head of line), ns.
    pub queue_residency: Histogram,
    /// Per-packet gateway NAT/forwarding processing delay, ns.
    pub nat_processing: Histogram,
    /// Experiment phase spans over simulated time.
    pub spans: SpanTimeline,
    /// Bounded crash-scene rings ([`FLIGHT_EVENTS`] events,
    /// [`FLIGHT_FRAMES`] frames).
    pub flight: FlightRecorder,
}

impl Default for Telemetry {
    fn default() -> Self {
        Telemetry::new()
    }
}

impl Telemetry {
    /// A fresh telemetry instance: empty histograms and timeline.
    pub fn new() -> Telemetry {
        Telemetry {
            one_way_delay: Histogram::new(),
            queue_residency: Histogram::new(),
            nat_processing: Histogram::new(),
            spans: SpanTimeline::new(),
            flight: FlightRecorder::new(FLIGHT_EVENTS, FLIGHT_FRAMES),
        }
    }

    /// Summaries of the three delay histograms.
    pub fn delay_summaries(&self) -> DelaySummaries {
        DelaySummaries {
            one_way: self.one_way_delay.summary(),
            queue_residency: self.queue_residency.summary(),
            nat_processing: self.nat_processing.summary(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::{BindingLifecycle, DropReason, FlowId};

    #[test]
    fn small_values_are_exact() {
        for v in 0..16u64 {
            let i = Histogram::bucket_index(v);
            assert_eq!(i, v as usize);
            assert_eq!(Histogram::bucket_bound(i), v);
        }
    }

    #[test]
    fn bucket_index_is_continuous_across_octave_boundaries() {
        // The first bucket of each octave follows directly after the last
        // bucket of the previous one.
        for v in [15u64, 16, 31, 32, 1 << 20, u64::MAX] {
            let i = Histogram::bucket_index(v);
            assert!(Histogram::bucket_bound(i) >= v, "bound below value at {v}");
            if v > 0 {
                assert!(Histogram::bucket_index(v - 1) <= i, "index not monotone at {v}");
            }
        }
        assert_eq!(Histogram::bucket_index(15), 15);
        assert_eq!(Histogram::bucket_index(16), 16);
        assert_eq!(Histogram::bucket_index(31), 31);
        assert_eq!(Histogram::bucket_index(32), 32);
        assert_eq!(Histogram::bucket_bound(Histogram::bucket_index(u64::MAX)), u64::MAX);
    }

    #[test]
    fn relative_error_is_bounded() {
        for shift in 5..60 {
            let v = (1u64 << shift) + (1u64 << (shift - 1)) + 7;
            let bound = Histogram::bucket_bound(Histogram::bucket_index(v));
            assert!(bound >= v);
            let err = (bound - v) as f64 / v as f64;
            assert!(err <= 1.0 / SUB_BUCKETS as f64, "error {err} too large at {v}");
        }
    }

    #[test]
    fn quantiles_never_exceed_exact_max() {
        let mut h = Histogram::new();
        for v in [10u64, 1000, 100_000, 123_456_789] {
            h.record(v);
        }
        assert_eq!(h.max(), 123_456_789);
        assert_eq!(h.quantile(1.0), 123_456_789);
        assert!(h.quantile(0.5) >= 1000);
        assert!(h.quantile(0.25) >= 10);
        assert_eq!(h.count(), 4);
    }

    #[test]
    fn empty_histogram_is_all_zero() {
        let h = Histogram::new();
        assert!(h.is_empty());
        assert_eq!(h.quantile(0.99), 0);
        assert_eq!(h.summary(), HistogramSummary::default());
        assert_eq!(h.mean(), 0.0);
    }

    #[test]
    fn merge_accumulates_both_sides() {
        let mut a = Histogram::new();
        let mut b = Histogram::new();
        a.record(100);
        b.record(1_000_000);
        b.record(50);
        let mut merged = a.clone();
        merged.merge(&b);
        assert_eq!(merged.count(), 3);
        assert_eq!(merged.max(), 1_000_000);
        assert_eq!(merged.sum(), a.sum() + b.sum());
    }

    #[test]
    fn span_timeline_records_intervals() {
        let mut t = SpanTimeline::new();
        let s = t.begin("phase", Instant::from_millis(1));
        t.end(s, Instant::from_millis(5));
        t.end(s, Instant::from_millis(9)); // second end is a no-op
        t.end(SpanId::DISABLED, Instant::from_millis(9)); // sentinel no-op
        let open = t.begin_with_arg("other", "n=3".into(), Instant::from_millis(6));
        assert_eq!(t.len(), 2);
        assert_eq!(t.spans()[0].end, Some(Instant::from_millis(5)));
        assert_eq!(t.spans()[1].arg.as_deref(), Some("n=3"));
        assert!(t.spans()[open.0].end.is_none());
    }

    #[test]
    fn chrome_trace_is_well_formed() {
        let mut t = SpanTimeline::new();
        let s = t.begin_with_arg("tcp2-upload", "2 MB".into(), Instant::from_micros(10));
        t.end(s, Instant::from_micros(2510));
        let json = render_chrome_trace(&[("ls1".to_string(), &t)]);
        assert!(json.contains("\"thread_name\""));
        assert!(json.contains("\"name\": \"ls1\""));
        assert!(json.contains("\"ph\": \"X\""));
        assert!(json.contains("\"ts\": 10.000"));
        assert!(json.contains("\"dur\": 2500.000"));
        assert!(json.contains("\"arg\": \"2 MB\""));
        // Balanced braces/brackets — cheap well-formedness proxy.
        assert_eq!(json.matches('{').count(), json.matches('}').count());
        assert_eq!(json.matches('[').count(), json.matches(']').count());
    }

    #[test]
    fn flight_recorder_rings_are_bounded() {
        let mut fr = FlightRecorder::new(3, 2);
        for i in 0..10u64 {
            fr.record_event(
                Instant::from_micros(i),
                NodeId(0),
                TraceEvent::FrameDelivered { bytes: i as usize },
            );
            fr.record_frame(Instant::from_micros(i), &[i as u8; 8]);
        }
        assert_eq!(fr.event_count(), 3);
        assert_eq!(fr.frame_count(), 2);
        // Oldest evicted: the survivors are the last ones recorded.
        let first = fr.events().next().unwrap();
        assert_eq!(first.0, Instant::from_micros(7));
        let frames: Vec<u8> = fr.frames().map(|(_, f)| f[0]).collect();
        assert_eq!(frames, vec![8, 9]);
    }

    #[test]
    fn flight_recorder_dump_writes_pcap_and_json() {
        let dir = std::env::temp_dir().join("hgw-flight-test");
        let _ = std::fs::remove_dir_all(&dir);
        let mut fr = FlightRecorder::new(8, 8);
        fr.record_event(
            Instant::from_millis(1),
            NodeId(2),
            TraceEvent::FrameDropped { reason: DropReason::Capacity, bytes: 40 },
        );
        fr.record_event(
            Instant::from_millis(2),
            NodeId(1),
            TraceEvent::BindingCreated { external_port: 1024, port_preserved: true },
        );
        fr.record_frame(Instant::from_millis(1), &[0x45, 0, 0, 20]);
        let dump = fr.dump(&dir, "ls1-slot0", "probe panicked: induced").unwrap();
        let pcap = std::fs::read(&dump.pcap).unwrap();
        assert_eq!(&pcap[0..4], &0xA1B2_C3D4u32.to_le_bytes(), "pcap magic");
        assert_eq!(pcap.len(), 24 + 16 + 4);
        let json = std::fs::read_to_string(&dump.json).unwrap();
        assert!(json.contains(FLIGHT_RECORDER_SCHEMA));
        assert!(json.contains("\"kind\": \"frame_dropped\""));
        assert!(json.contains("\"reason\": \"capacity\""));
        assert!(json.contains("\"external_port\": 1024"));
        assert!(json.contains("probe panicked: induced"));
        assert!(json.contains("\"frames\": 1"));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn zero_capacity_recorder_records_nothing() {
        let mut fr = FlightRecorder::new(0, 0);
        fr.record_event(Instant::ZERO, NodeId(0), TraceEvent::FrameDelivered { bytes: 1 });
        fr.record_frame(Instant::ZERO, &[1, 2, 3]);
        assert_eq!(fr.event_count(), 0);
        assert_eq!(fr.frame_count(), 0);
    }

    #[test]
    fn telemetry_umbrella_summarizes_delay_histograms() {
        let mut t = Telemetry::new();
        t.one_way_delay.record_duration(Duration::from_micros(170));
        t.queue_residency.record_duration(Duration::from_micros(30));
        t.nat_processing.record_duration(Duration::from_micros(120));
        let s = t.delay_summaries();
        assert_eq!(s.one_way.count, 1);
        assert_eq!(s.one_way.max, 170_000);
        assert_eq!(s.queue_residency.count, 1);
        assert_eq!(s.nat_processing.count, 1);
    }

    #[test]
    fn empty_histogram_quantile_edges_are_pinned() {
        // Satellite contract: a zero-count histogram answers 0 for every
        // quantile — including the q=0.0 and q=1.0 edges — and its
        // summary is the all-zero `HistogramSummary`. See the
        // `HistogramSummary` docs; manifest readers rely on this.
        let h = Histogram::new();
        assert_eq!(h.count(), 0);
        assert_eq!(h.quantile(0.0), 0);
        assert_eq!(h.quantile(1.0), 0);
        assert_eq!(h.quantile(0.5), 0);
        // Out-of-range q is clamped, so the edges extend past [0, 1].
        assert_eq!(h.quantile(-1.0), 0);
        assert_eq!(h.quantile(2.0), 0);
        assert_eq!(h.max(), 0);
        assert_eq!(h.summary(), HistogramSummary { count: 0, p50: 0, p90: 0, p99: 0, max: 0 });
    }

    #[test]
    fn flight_recorder_dump_wraps_oldest_first() {
        // Record more events than the ring holds (`FLIGHT_EVENTS`) and prove
        // the dump contains exactly the newest `max_events`, oldest-first.
        let dir = std::env::temp_dir().join("hgw-flight-wrap-test");
        let _ = std::fs::remove_dir_all(&dir);
        let cap = FLIGHT_EVENTS;
        let total = cap + 44;
        let mut fr = FlightRecorder::new(cap, 1);
        for i in 0..total {
            fr.record_event(
                Instant::from_micros(i as u64),
                NodeId(0),
                TraceEvent::FrameDelivered { bytes: i },
            );
        }
        assert_eq!(fr.event_count(), cap);
        let dump = fr.dump(&dir, "wrap", "wraparound regression").unwrap();
        let json = std::fs::read_to_string(&dump.json).unwrap();
        let stamps: Vec<u64> = json
            .lines()
            .filter_map(|l| l.trim().strip_prefix("{\"t_ns\": "))
            .filter_map(|l| l.split(',').next()?.parse().ok())
            .collect();
        assert_eq!(stamps.len(), cap, "dump holds exactly the ring capacity");
        // The oldest `total - cap` events were dropped; the survivors are
        // the most recent ones, still in recording order.
        let first_survivor = (total - cap) as u64 * 1000;
        assert_eq!(stamps[0], first_survivor);
        assert_eq!(*stamps.last().unwrap(), (total as u64 - 1) * 1000);
        assert!(stamps.windows(2).all(|w| w[0] < w[1]), "oldest-first ordering");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn event_json_renders_lifecycle_variant() {
        let row = event_json(
            Instant::from_micros(7),
            NodeId(2),
            &TraceEvent::Binding {
                flow: FlowId(0xdead_beef),
                proto: 17,
                external_port: 61_001,
                lifecycle: BindingLifecycle::Refused { reason: DropReason::Capacity },
            },
        );
        assert!(row.contains("\"kind\": \"binding_lifecycle\""));
        assert!(row.contains("\"lifecycle\": \"refused\""));
        assert!(row.contains("\"flow\": \"00000000deadbeef\""));
        assert!(row.contains("\"external_port\": 61001"));
    }
}
