//! Structured observability for the simulator: a drop-reason taxonomy, a
//! typed event stream, and the [`SimObserver`] sink trait.
//!
//! The paper infers every gateway behavior black-box from packet traces;
//! the reproduction can also instrument the white-box side so divergences
//! between measured and calibrated values are explainable. Observers are
//! **pure sinks**: they receive events but cannot influence the simulation,
//! so attaching one never changes any measurement (a property the test
//! suite asserts bit-for-bit).
//!
//! ```
//! use hgw_core::{EventLog, DropReason, Simulator};
//!
//! let mut sim = Simulator::new(42);
//! sim.attach_observer(Box::new(EventLog::new()));
//! // ... build a topology, run traffic ...
//! let log = sim.detach_observer().unwrap();
//! let log = log.as_any().downcast_ref::<EventLog>().unwrap();
//! assert_eq!(log.drops().by(DropReason::QueueOverflow), 0);
//! ```

use core::any::Any;

use crate::node::NodeId;
use crate::time::Instant;

/// Why a frame (or translated packet) was discarded, anywhere in the stack.
///
/// Link-level reasons (`QueueOverflow`, `FaultInjection`, `Unrouted`) are
/// emitted by the simulator itself; the rest are emitted by nodes — in this
/// project, the gateway model — through
/// [`NodeCtx::emit_trace`](crate::node::NodeCtx::emit_trace).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DropReason {
    /// A bounded FIFO (link transmit queue or forwarding-engine buffer) was
    /// full and the frame was tail-dropped.
    QueueOverflow,
    /// Link fault injection discarded the frame.
    FaultInjection,
    /// An inbound packet had no NAT binding on its external port.
    NoBinding,
    /// A NAT binding existed but the filtering policy rejected the remote.
    Filtered,
    /// The TTL reached zero at the gateway.
    TtlExpired,
    /// The NAT binding table was at capacity and refused a new flow.
    Capacity,
    /// A header checksum failed verification.
    Checksum,
    /// An unknown transport protocol was dropped by policy.
    UnknownProto,
    /// A frame was emitted on a port with no link attached.
    Unrouted,
}

impl DropReason {
    /// Every reason, in counter-index order.
    pub const ALL: [DropReason; 9] = [
        DropReason::QueueOverflow,
        DropReason::FaultInjection,
        DropReason::NoBinding,
        DropReason::Filtered,
        DropReason::TtlExpired,
        DropReason::Capacity,
        DropReason::Checksum,
        DropReason::UnknownProto,
        DropReason::Unrouted,
    ];

    /// Stable index of this reason in [`DropCounts`].
    pub fn index(self) -> usize {
        match self {
            DropReason::QueueOverflow => 0,
            DropReason::FaultInjection => 1,
            DropReason::NoBinding => 2,
            DropReason::Filtered => 3,
            DropReason::TtlExpired => 4,
            DropReason::Capacity => 5,
            DropReason::Checksum => 6,
            DropReason::UnknownProto => 7,
            DropReason::Unrouted => 8,
        }
    }

    /// Machine-readable snake_case name (used as the manifest JSON key).
    pub fn name(self) -> &'static str {
        match self {
            DropReason::QueueOverflow => "queue_overflow",
            DropReason::FaultInjection => "fault_injection",
            DropReason::NoBinding => "no_binding",
            DropReason::Filtered => "filtered",
            DropReason::TtlExpired => "ttl_expired",
            DropReason::Capacity => "capacity",
            DropReason::Checksum => "checksum",
            DropReason::UnknownProto => "unknown_proto",
            DropReason::Unrouted => "unrouted",
        }
    }
}

/// Per-reason drop counters (one slot per [`DropReason`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DropCounts([u64; DropReason::ALL.len()]);

impl DropCounts {
    /// All-zero counters.
    pub const ZERO: DropCounts = DropCounts([0; DropReason::ALL.len()]);

    /// The count for one reason.
    pub fn by(&self, reason: DropReason) -> u64 {
        self.0[reason.index()]
    }

    /// Increments the count for one reason.
    pub fn add(&mut self, reason: DropReason) {
        self.0[reason.index()] += 1;
    }

    /// Total drops across all reasons.
    pub fn total(&self) -> u64 {
        self.0.iter().sum()
    }

    /// Iterates `(reason, count)` pairs in stable order.
    pub fn iter(&self) -> impl Iterator<Item = (DropReason, u64)> + '_ {
        DropReason::ALL.iter().map(move |&r| (r, self.by(r)))
    }

    /// Adds every counter of `other` into `self` (fleet aggregation).
    pub fn merge(&mut self, other: &DropCounts) {
        for (slot, v) in self.0.iter_mut().zip(other.0.iter()) {
            *slot += v;
        }
    }
}

/// Deterministic identity of one NAT session (flow).
///
/// A `FlowId` is the FNV-1a 64-bit hash of the canonical session tuple
/// `(proto, internal ip:port, remote ip:port)` — exactly the key the NAT
/// uses to look a binding up. Because it is a pure function of frame
/// bytes, any layer (gateway, oracle, probe, post-hoc inspector) can
/// recompute the same id from the same packet without coordination, which
/// is what lets a flow's segments, NAT verdicts, and drops join into one
/// causal timeline. Two runs with the same traffic produce the same ids.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct FlowId(pub u64);

impl FlowId {
    /// Computes the id from the canonical session tuple. `internal` and
    /// `remote` are `(ipv4 as u32, port)` pairs; `proto` is the IP
    /// protocol number (17 = UDP, 6 = TCP, 1 = ICMP, where the "port" of
    /// an ICMP flow is its query ident and the remote port is 0).
    pub fn from_tuple(proto: u8, internal: (u32, u16), remote: (u32, u16)) -> FlowId {
        // FNV-1a 64: tiny, allocation-free, stable across platforms.
        const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
        const PRIME: u64 = 0x0000_0100_0000_01b3;
        let mut h = OFFSET;
        let mut eat = |b: u8| {
            h ^= u64::from(b);
            h = h.wrapping_mul(PRIME);
        };
        eat(proto);
        for b in internal.0.to_be_bytes() {
            eat(b);
        }
        for b in internal.1.to_be_bytes() {
            eat(b);
        }
        for b in remote.0.to_be_bytes() {
            eat(b);
        }
        for b in remote.1.to_be_bytes() {
            eat(b);
        }
        FlowId(h)
    }
}

/// One step in a NAT binding's life. Every `NatTable` mutation site counts
/// it (always on, in [`LifecycleCounts`]); it is emitted as a
/// [`TraceEvent::Binding`] only when lifecycle tracing is enabled.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BindingLifecycle {
    /// A fresh binding was created for the flow.
    Created {
        /// True if the internal source port was preserved externally.
        port_preserved: bool,
    },
    /// Outbound or accepted-inbound traffic pushed the expiry forward.
    Refreshed,
    /// The idle/FIN timer fired and the binding was removed.
    Expired,
    /// The expired binding's tuple entered quarantine memory (the
    /// port-preservation reuse window).
    Quarantined,
    /// The NAT refused to create a binding for the flow.
    Refused {
        /// Why it was refused (today always [`DropReason::Capacity`]).
        reason: DropReason,
    },
    /// A new binding re-acquired its quarantined external port (the
    /// UDP-4 paper behavior: same tuple, same port, within the window).
    PortPreservedReuse,
}

impl BindingLifecycle {
    /// Number of lifecycle kinds (slots in [`LifecycleCounts`]).
    pub const KINDS: usize = 6;

    /// Stable per-kind index, ignoring payload.
    pub fn kind_index(self) -> usize {
        match self {
            BindingLifecycle::Created { .. } => 0,
            BindingLifecycle::Refreshed => 1,
            BindingLifecycle::Expired => 2,
            BindingLifecycle::Quarantined => 3,
            BindingLifecycle::Refused { .. } => 4,
            BindingLifecycle::PortPreservedReuse => 5,
        }
    }

    /// Machine-readable snake_case kind name (manifest / JSON key).
    pub fn kind_name(self) -> &'static str {
        Self::KIND_NAMES[self.kind_index()]
    }

    /// Kind names in [`BindingLifecycle::kind_index`] order.
    pub const KIND_NAMES: [&'static str; BindingLifecycle::KINDS] =
        ["created", "refreshed", "expired", "quarantined", "refused", "port_preserved_reuse"];
}

/// Per-kind lifecycle event counters (one slot per [`BindingLifecycle`]
/// kind), mirroring [`DropCounts`] for fleet aggregation.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LifecycleCounts([u64; BindingLifecycle::KINDS]);

impl LifecycleCounts {
    /// All-zero counters.
    pub const ZERO: LifecycleCounts = LifecycleCounts([0; BindingLifecycle::KINDS]);

    /// The count for one lifecycle kind.
    pub fn by(&self, lifecycle: BindingLifecycle) -> u64 {
        self.0[lifecycle.kind_index()]
    }

    /// Increments the count for one lifecycle kind.
    pub fn add(&mut self, lifecycle: BindingLifecycle) {
        self.0[lifecycle.kind_index()] += 1;
    }

    /// Total events across all kinds.
    pub fn total(&self) -> u64 {
        self.0.iter().sum()
    }

    /// Iterates `(kind_name, count)` pairs in stable order.
    pub fn iter(&self) -> impl Iterator<Item = (&'static str, u64)> + '_ {
        BindingLifecycle::KIND_NAMES.iter().zip(self.0.iter()).map(|(&n, &c)| (n, c))
    }

    /// Adds every counter of `other` into `self` (fleet aggregation).
    pub fn merge(&mut self, other: &LifecycleCounts) {
        for (slot, v) in self.0.iter_mut().zip(other.0.iter()) {
            *slot += v;
        }
    }

    /// The events counted since `earlier`, a snapshot of the same counters.
    pub fn since(&self, earlier: &LifecycleCounts) -> LifecycleCounts {
        let mut delta = *self;
        for (slot, v) in delta.0.iter_mut().zip(earlier.0.iter()) {
            *slot -= v;
        }
        delta
    }
}

/// One timestamped lifecycle record: the unit the gateway's trace buffer
/// and the `nat_timeline` inspector exchange.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LifecycleEvent {
    /// Virtual time of the mutation.
    pub at: Instant,
    /// Deterministic flow identity (see [`FlowId`]).
    pub flow: FlowId,
    /// IP protocol number of the flow (17/6/1).
    pub proto: u8,
    /// External port (or ICMP ident) of the binding; for a refusal, the
    /// port that would have been translated (0 when none was assigned).
    pub external_port: u16,
    /// What happened.
    pub lifecycle: BindingLifecycle,
}

/// One structured observability event.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TraceEvent {
    /// A frame or packet was discarded.
    FrameDropped {
        /// Why it was discarded.
        reason: DropReason,
        /// Its length in bytes.
        bytes: usize,
    },
    /// A frame was delivered to a node port.
    FrameDelivered {
        /// Its length in bytes.
        bytes: usize,
    },
    /// The NAT created a fresh binding.
    BindingCreated {
        /// The external port (or ICMP ident) assigned.
        external_port: u16,
        /// True if the internal source port was preserved.
        port_preserved: bool,
    },
    /// A NAT binding changed lifecycle state (emitted only when
    /// binding-lifecycle tracing is enabled on the gateway; a pure
    /// observability event that never feeds back into behavior).
    Binding {
        /// Deterministic flow identity.
        flow: FlowId,
        /// IP protocol number of the flow.
        proto: u8,
        /// External port (or ICMP ident) involved.
        external_port: u16,
        /// What happened to the binding.
        lifecycle: BindingLifecycle,
    },
}

/// A sink for [`TraceEvent`]s.
///
/// Implementations must be pure consumers: they see events but have no way
/// to feed information back into the simulation, which is what keeps runs
/// bit-for-bit identical whether or not an observer is attached.
pub trait SimObserver {
    /// Called once per event, in dispatch order.
    fn on_event(&mut self, at: Instant, node: NodeId, event: &TraceEvent);

    /// Downcast support for retrieving a concrete observer after a run.
    fn as_any(&self) -> &dyn Any;
}

/// An in-memory observer that records every event with its timestamp.
///
/// Suitable for tests, per-device scorecards and lifecycle timelines; the
/// always-on counters in [`SimStats`](crate::SimStats) cost nothing and
/// cover multi-hour simulated workloads.
#[derive(Debug, Default)]
pub struct EventLog {
    events: Vec<(Instant, NodeId, TraceEvent)>,
}

impl EventLog {
    /// An empty log, pre-sized so steady recording does not reallocate on
    /// the first few hundred events.
    pub fn new() -> EventLog {
        EventLog { events: Vec::with_capacity(256) }
    }

    /// The recorded events in dispatch order.
    pub fn events(&self) -> &[(Instant, NodeId, TraceEvent)] {
        &self.events
    }

    /// Number of recorded events.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// True if nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Aggregated drop counters over the whole log.
    pub fn drops(&self) -> DropCounts {
        let mut counts = DropCounts::ZERO;
        for (_, _, ev) in &self.events {
            if let TraceEvent::FrameDropped { reason, .. } = ev {
                counts.add(*reason);
            }
        }
        counts
    }
}

impl SimObserver for EventLog {
    fn on_event(&mut self, at: Instant, node: NodeId, event: &TraceEvent) {
        self.events.push((at, node, event.clone()));
    }
    fn as_any(&self) -> &dyn Any {
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn indices_are_a_bijection() {
        let mut seen = [false; DropReason::ALL.len()];
        for r in DropReason::ALL {
            assert!(!seen[r.index()], "duplicate index for {r:?}");
            seen[r.index()] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn names_are_unique_snake_case() {
        let names: std::collections::HashSet<&str> =
            DropReason::ALL.iter().map(|r| r.name()).collect();
        assert_eq!(names.len(), DropReason::ALL.len());
        for n in names {
            assert!(n.chars().all(|c| c.is_ascii_lowercase() || c == '_'));
        }
    }

    #[test]
    fn counts_accumulate_and_merge() {
        let mut a = DropCounts::ZERO;
        a.add(DropReason::NoBinding);
        a.add(DropReason::NoBinding);
        a.add(DropReason::Checksum);
        assert_eq!(a.by(DropReason::NoBinding), 2);
        assert_eq!(a.total(), 3);
        let mut b = DropCounts::ZERO;
        b.add(DropReason::Checksum);
        b.merge(&a);
        assert_eq!(b.by(DropReason::Checksum), 2);
        assert_eq!(b.total(), 4);
    }

    #[test]
    fn event_log_records_and_aggregates() {
        let mut log = EventLog::new();
        log.on_event(
            Instant::from_secs(1),
            NodeId(0),
            &TraceEvent::FrameDropped { reason: DropReason::Filtered, bytes: 40 },
        );
        log.on_event(Instant::from_secs(2), NodeId(1), &TraceEvent::FrameDelivered { bytes: 64 });
        assert_eq!(log.len(), 2);
        assert_eq!(log.drops().by(DropReason::Filtered), 1);
        assert_eq!(log.drops().total(), 1);
    }

    #[test]
    fn flow_id_is_deterministic_and_tuple_sensitive() {
        let a = FlowId::from_tuple(17, (0x0a00_0002, 5000), (0xc0a8_0101, 4500));
        let b = FlowId::from_tuple(17, (0x0a00_0002, 5000), (0xc0a8_0101, 4500));
        assert_eq!(a, b, "same tuple must hash identically");
        for (proto, internal, remote) in [
            (6, (0x0a00_0002, 5000), (0xc0a8_0101, 4500)),
            (17, (0x0a00_0003, 5000), (0xc0a8_0101, 4500)),
            (17, (0x0a00_0002, 5001), (0xc0a8_0101, 4500)),
            (17, (0x0a00_0002, 5000), (0xc0a8_0102, 4500)),
            (17, (0x0a00_0002, 5000), (0xc0a8_0101, 4501)),
        ] {
            assert_ne!(a, FlowId::from_tuple(proto, internal, remote));
        }
    }

    #[test]
    fn lifecycle_kind_indices_and_names_are_stable() {
        let all = [
            BindingLifecycle::Created { port_preserved: false },
            BindingLifecycle::Refreshed,
            BindingLifecycle::Expired,
            BindingLifecycle::Quarantined,
            BindingLifecycle::Refused { reason: DropReason::Capacity },
            BindingLifecycle::PortPreservedReuse,
        ];
        for (i, l) in all.iter().enumerate() {
            assert_eq!(l.kind_index(), i);
            assert_eq!(l.kind_name(), BindingLifecycle::KIND_NAMES[i]);
        }
        let mut c = LifecycleCounts::ZERO;
        c.add(BindingLifecycle::Refreshed);
        c.add(BindingLifecycle::Refreshed);
        c.add(BindingLifecycle::Expired);
        assert_eq!(c.by(BindingLifecycle::Refreshed), 2);
        assert_eq!(c.total(), 3);
        let mut d = LifecycleCounts::ZERO;
        d.add(BindingLifecycle::Expired);
        d.merge(&c);
        assert_eq!(d.by(BindingLifecycle::Expired), 2);
        assert_eq!(d.total(), 4);
        let mut expired = LifecycleCounts::ZERO;
        expired.add(BindingLifecycle::Expired);
        assert_eq!(d.since(&c), expired, "the delta is what was added after the snapshot");
        assert_eq!(c.iter().map(|(_, n)| n).sum::<u64>(), 3);
    }
}
