//! The NAPT binding table: creation, translation, traffic-pattern-dependent
//! timeouts, port assignment, filtering, capacity limits, and expiry — the
//! mechanisms behind UDP-1..5, TCP-1, TCP-4 and the UDP-4 observations.
//!
//! # Internal layout
//!
//! Live bindings sit in a dense `Vec` (the slab) whose order evolves through
//! exactly the same push/`swap_remove` sequence as the original linear-scan
//! implementation, so every "first match in table order" decision — mapping
//! reuse, inbound filtering, embedded-packet lookup, and the diagnostic
//! [`NatTable::bindings`] view — is reproduced bit-for-bit. Layered on top:
//!
//! - hash indices keyed by the exact session 5-tuple, by `(proto, internal)`
//!   (mapping reuse), and by `(proto, external_port)` (inbound, collisions);
//! - per-proto live counters replacing the `count()` filter scan;
//! - a time-ordered expiry queue with lazy cancellation, so
//!   [`NatTable::sweep`] touches only bindings that are actually due,
//!   instead of scanning the whole table. It is a run queue (`runs.rs`,
//!   DESIGN.md §11): every deadline the table hands out is one of a few
//!   non-decreasing functions of the clock, so a refresh, FIN linger or
//!   RST appends to one of a few sorted runs in O(1), however many
//!   bindings are live. Stale entries are filtered out whenever they
//!   outnumber the live ones, so the queue is bounded by live state;
//! - an exact-match quarantine index over recently expired flows with its
//!   own run-queue pruning queue (the UDP-4 reuse-vs-quarantine memory).
//!
//! The pre-index implementation is retained under `reference` (test-only)
//! and driven side-by-side over randomized policy/flow sequences to pin the
//! equivalence.

use std::net::Ipv4Addr;

use hgw_core::{
    BindingLifecycle, Cleared, DropReason, Duration, FixedMap, FlowId, Instant, LifecycleCounts,
    LifecycleEvent,
};

use crate::policy::{EndpointScope, GatewayPolicy, PortAssignment, TrafficPattern};
use crate::runs::RunQueue;

/// The transports the NAT keeps per-flow state for.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum NatProto {
    /// UDP flows.
    Udp,
    /// TCP connections.
    Tcp,
    /// ICMP query flows (echo ident acts as the "port").
    IcmpQuery,
}

impl NatProto {
    /// The IP protocol number (the `proto` field of lifecycle events).
    pub fn number(self) -> u8 {
        match self {
            NatProto::Udp => 17,
            NatProto::Tcp => 6,
            NatProto::IcmpQuery => 1,
        }
    }
}

/// An endpoint (address, port) pair.
pub type Endpoint = (Ipv4Addr, u16);

/// The deterministic [`FlowId`] of a NAT session: a pure function of the
/// canonical tuple `(proto, internal, remote)`, so the gateway, the
/// linear oracle, probes, and post-hoc inspectors all derive the same id
/// from the same packet bytes without coordination.
pub fn flow_id(proto: NatProto, internal: Endpoint, remote: Endpoint) -> FlowId {
    FlowId::from_tuple(
        proto.number(),
        (u32::from(internal.0), internal.1),
        (u32::from(remote.0), remote.1),
    )
}

/// One NAT binding (a translated session).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Binding {
    /// Transport.
    pub proto: NatProto,
    /// Internal (LAN) endpoint.
    pub internal: Endpoint,
    /// Remote (WAN) endpoint of the flow.
    pub remote: Endpoint,
    /// The external port (or ICMP ident) chosen for this binding.
    pub external_port: u16,
    /// Traffic pattern seen so far.
    pub pattern: TrafficPattern,
    /// Absolute expiry time.
    pub expires_at: Instant,
    /// Creation time.
    pub created_at: Instant,
    /// FIN observed from the LAN side (TCP only).
    pub fin_from_lan: bool,
    /// FIN observed from the WAN side (TCP only).
    pub fin_from_wan: bool,
}

/// Result of translating an outbound packet.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OutboundVerdict {
    /// Translate the source to (external address, this port).
    Translated {
        /// External port to use.
        external_port: u16,
        /// True if this packet created a fresh binding.
        created: bool,
    },
    /// The binding table is full; the packet is dropped.
    NoCapacity,
}

/// Result of translating an inbound packet.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum InboundVerdict {
    /// Deliver to this internal endpoint.
    Accept {
        /// The internal endpoint.
        internal: Endpoint,
    },
    /// A binding exists but the filtering policy rejects this remote.
    Filtered,
    /// No binding for this external port.
    NoBinding,
}

/// Aggregate NAT counters (diagnostics; probes observe externally).
///
/// ```
/// use hgw_gateway::{GatewayPolicy, NatProto, NatTable};
/// use hgw_core::Instant;
/// use std::net::Ipv4Addr;
///
/// let mut nat = NatTable::new();
/// let policy = GatewayPolicy::well_behaved();
/// nat.outbound(
///     Instant::ZERO, &policy, NatProto::Udp,
///     (Ipv4Addr::new(192, 168, 1, 100), 5000),
///     (Ipv4Addr::new(10, 0, 1, 1), 80),
///     false, false,
/// );
/// let stats = nat.stats();
/// assert_eq!(stats.bindings_created, 1);
/// assert_eq!(stats.port_preservation_hits, 1);
/// assert_eq!(stats.peak_bindings, 1);
/// ```
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NatStats {
    /// Bindings created over the table's lifetime.
    pub bindings_created: u64,
    /// Bindings that reached their timeout (or teardown) and were swept.
    pub bindings_expired: u64,
    /// Outbound packets that matched an existing session and refreshed its
    /// timer instead of creating a binding. Together with
    /// `bindings_created`/`bindings_expired` this gives the household-level
    /// binding-table churn rate.
    pub bindings_refreshed: u64,
    /// Outbound flows refused because the table was at capacity.
    pub refusals: u64,
    /// Virtual time of the first capacity refusal, if any — the
    /// port-exhaustion onset a household workload measures.
    pub first_refusal_at: Option<Instant>,
    /// New bindings whose external port equals the internal source port.
    pub port_preservation_hits: u64,
    /// New bindings that fell back to another port.
    pub port_preservation_misses: u64,
    /// High-water mark of simultaneously live bindings.
    pub peak_bindings: usize,
}

/// Upper bound on retained occupancy samples; older samples are decimated.
const OCCUPANCY_LOG_CAP: usize = 2048;

/// The flow identity a quarantined (recently expired) binding is remembered
/// by: `(proto, internal, remote, external_port)`. The quarantine check is
/// exact equality on all four fields.
type QuarantineKey = (NatProto, Endpoint, Endpoint, u16);

/// The NAPT table.
#[derive(Debug)]
pub struct NatTable {
    /// Dense slab of live bindings; order evolves by push/`swap_remove`
    /// exactly as in the reference linear implementation.
    bindings: Vec<Binding>,
    // The index maps below are never iterated: every order-bearing walk
    // goes through the slab, so their bucket layout is unobservable.
    /// Stable id of `bindings[i]` (parallel to `bindings`).
    ids: Vec<u64>,
    /// Seq of `bindings[i]`'s live expiry-queue entry (parallel to
    /// `bindings`): every other entry for the binding is stale.
    queued: Vec<u64>,
    /// Current slab position of each live id.
    pos_of: FixedMap<u64, usize>,
    /// Exact session index: `(proto, internal, remote)` → id. Unique —
    /// outbound refreshes an existing session instead of creating a twin.
    by_session: FixedMap<(NatProto, Endpoint, Endpoint), u64>,
    /// Mapping index: `(proto, internal)` → ids sharing that internal
    /// endpoint (the RFC 4787 §4.1 mapping-reuse candidates).
    by_internal: FixedMap<(NatProto, Endpoint), Vec<u64>>,
    /// External index: `(proto, external_port)` → ids sharing the mapping.
    by_external: FixedMap<(NatProto, u16), Vec<u64>>,
    /// Time-ordered expiry queue over live bindings: a run queue of
    /// `(expires_at, binding id)` entries with *lazy cancellation*. A
    /// binding that is removed or re-timed leaves its old entry behind;
    /// [`NatTable::sweep`] filters stale entries when they surface, and
    /// [`NatTable::bound_expiry_queue`] filters them all once they
    /// outnumber the live ones. An entry is live iff its id still exists
    /// and its seq is the binding's `queued` seq. Ids are never reused,
    /// so a stale entry can never impersonate a live one.
    expiry: RunQueue<u64>,
    /// Live binding count per transport (indexed by [`proto_idx`]).
    live: [usize; 3],
    next_id: u64,
    /// Recently expired flows, kept so the same flow can be recognized
    /// (reuse vs. quarantine — the UDP-4 behaviors). Value counts how many
    /// expired bindings share the key.
    quarantine: FixedMap<QuarantineKey, u32>,
    /// Time-ordered pruning queue over quarantine entries, keyed by the
    /// expiry instant of the underlying binding. Entries are never
    /// cancelled, only pruned in order, so no lazy filtering is needed.
    quarantine_by_time: RunQueue<QuarantineKey>,
    /// Monotonic insertion counter shared by both queues (their
    /// deterministic same-instant tie-break).
    queue_seq: u64,
    next_seq_port: u16,
    stats: NatStats,
    /// `(time, live bindings)` samples taken whenever occupancy changes,
    /// decimated (every other sample dropped) beyond the cap so memory
    /// stays bounded on long runs.
    occupancy_log: Vec<(Instant, usize)>,
    /// Record only every `occupancy_stride`-th change once decimation kicks
    /// in; doubles on each decimation pass.
    occupancy_stride: u32,
    occupancy_skipped: u32,
    /// Lifecycle events by kind over the table's lifetime. Always on,
    /// counted at the same sites that feed the trace buffer.
    lifecycle: LifecycleCounts,
    /// Binding-lifecycle trace buffer, `Some` only while tracing is on.
    /// Events are recorded at every mutation site in mutation order and
    /// drained by the owner (the gateway) after each table call; the
    /// disabled path costs one discriminant check per site. Pure
    /// observability: nothing in the table ever reads this buffer.
    trace: Option<Vec<LifecycleEvent>>,
    /// Emptied `by_internal`/`by_external` buckets, kept for the next key
    /// so a binding's two index entries reuse a warm allocation.
    spare_buckets: Vec<Vec<u64>>,
    /// Scratch for [`NatTable::sweep`]: the slab positions due.
    due: Vec<usize>,
}

/// Base of the sequential allocation range.
const SEQ_BASE: u16 = 61_000;
/// How long an expired binding is remembered. A flow that expired exactly
/// this long ago is *no longer* remembered (the boundary is exclusive).
const EXPIRED_MEMORY: Duration = Duration::from_hours(2);
/// Linger time for a TCP binding after both FINs are seen.
const TCP_FIN_LINGER: Duration = Duration::from_secs(10);

fn proto_idx(proto: NatProto) -> usize {
    match proto {
        NatProto::Udp => 0,
        NatProto::Tcp => 1,
        NatProto::IcmpQuery => 2,
    }
}

impl NatTable {
    /// An empty table.
    pub fn new() -> NatTable {
        NatTable {
            bindings: Vec::new(),
            ids: Vec::new(),
            queued: Vec::new(),
            pos_of: FixedMap::default(),
            by_session: FixedMap::default(),
            by_internal: FixedMap::default(),
            by_external: FixedMap::default(),
            expiry: RunQueue::new(),
            live: [0; 3],
            next_id: 0,
            quarantine: FixedMap::default(),
            quarantine_by_time: RunQueue::new(),
            queue_seq: 0,
            next_seq_port: SEQ_BASE,
            stats: NatStats::default(),
            occupancy_log: Vec::new(),
            occupancy_stride: 1,
            occupancy_skipped: 0,
            lifecycle: LifecycleCounts::ZERO,
            trace: None,
            spare_buckets: Vec::new(),
            due: Vec::new(),
        }
    }

    /// Empties the table back to the state [`NatTable::new`] returns,
    /// keeping only the capacity of its containers (maps, slab, queue
    /// runs, buckets) for the next device a fleet worker runs. The index maps
    /// are never iterated, so a cleared map's bucket layout — which
    /// differs from a fresh map's — is unobservable.
    pub fn clear(&mut self) {
        let mut old = std::mem::take(self);
        let mut spare_buckets = old.spare_buckets;
        spare_buckets.extend(old.by_internal.drain().map(|(_, ids)| ids));
        spare_buckets.extend(old.by_external.drain().map(|(_, ids)| ids));
        spare_buckets.iter_mut().for_each(Vec::clear);
        self.spare_buckets = spare_buckets;
        self.by_internal = old.by_internal;
        self.by_external = old.by_external;
        self.bindings = old.bindings.cleared();
        self.ids = old.ids.cleared();
        self.queued = old.queued.cleared();
        self.pos_of = old.pos_of.cleared();
        self.by_session = old.by_session.cleared();
        self.quarantine = old.quarantine.cleared();
        self.occupancy_log = old.occupancy_log.cleared();
        self.due = old.due.cleared();
        self.expiry = old.expiry.cleared();
        self.quarantine_by_time = old.quarantine_by_time.cleared();
    }

    /// Turns binding-lifecycle tracing on: from here every mutation site
    /// records a [`LifecycleEvent`] into an internal buffer the owner
    /// drains with [`NatTable::drain_lifecycle_events`]. Tracing never
    /// changes verdicts, stats, or table state.
    pub fn enable_lifecycle_tracing(&mut self) {
        if self.trace.is_none() {
            self.trace = Some(Vec::new());
        }
    }

    /// True when lifecycle tracing is on.
    pub fn lifecycle_tracing_enabled(&self) -> bool {
        self.trace.is_some()
    }

    /// The buffered lifecycle events, in mutation order (empty when
    /// tracing is off).
    pub fn lifecycle_events(&self) -> &[LifecycleEvent] {
        self.trace.as_deref().unwrap_or(&[])
    }

    /// Takes the buffered lifecycle events, leaving tracing enabled.
    pub fn drain_lifecycle_events(&mut self) -> Vec<LifecycleEvent> {
        match &mut self.trace {
            Some(buf) => std::mem::take(buf),
            None => Vec::new(),
        }
    }

    /// Lifecycle events by kind over the table's lifetime, counted whether
    /// or not tracing is on.
    pub fn lifecycle_counts(&self) -> LifecycleCounts {
        self.lifecycle
    }

    /// Counts one lifecycle event and records it if tracing is on (one
    /// discriminant check on the disabled path; the flow hash is only
    /// computed when enabled).
    #[inline]
    fn trace_push(
        &mut self,
        at: Instant,
        proto: NatProto,
        internal: Endpoint,
        remote: Endpoint,
        external_port: u16,
        lifecycle: BindingLifecycle,
    ) {
        self.lifecycle.add(lifecycle);
        if let Some(buf) = &mut self.trace {
            buf.push(LifecycleEvent {
                at,
                flow: flow_id(proto, internal, remote),
                proto: proto.number(),
                external_port,
                lifecycle,
            });
        }
    }

    /// Live bindings (diagnostics). Order is deterministic: it evolves
    /// through the same push/`swap_remove` sequence regardless of the
    /// index layout.
    pub fn bindings(&self) -> &[Binding] {
        &self.bindings
    }

    /// Aggregate counters over the table's lifetime.
    pub fn stats(&self) -> NatStats {
        self.stats
    }

    /// `(time, live bindings)` samples recorded whenever occupancy changed.
    /// Decimated beyond a fixed cap, so the series is a bounded sketch on
    /// long runs rather than every transition.
    pub fn occupancy_log(&self) -> &[(Instant, usize)] {
        &self.occupancy_log
    }

    fn record_occupancy(&mut self, now: Instant) {
        self.occupancy_skipped += 1;
        if self.occupancy_skipped < self.occupancy_stride {
            return;
        }
        self.occupancy_skipped = 0;
        self.occupancy_log.push((now, self.bindings.len()));
        if self.occupancy_log.len() > OCCUPANCY_LOG_CAP {
            let mut keep = false;
            self.occupancy_log.retain(|_| {
                keep = !keep;
                keep
            });
            self.occupancy_stride *= 2;
        }
    }

    /// Number of live bindings for one transport.
    pub fn count(&self, proto: NatProto) -> usize {
        self.live[proto_idx(proto)]
    }

    /// Next tie-break seq for a queue insert.
    fn next_queue_seq(&mut self) -> u64 {
        let s = self.queue_seq;
        self.queue_seq += 1;
        s
    }

    /// Inserts a new binding at the tail of the slab and indexes it.
    fn push_binding(&mut self, b: Binding) {
        let id = self.next_id;
        self.next_id += 1;
        let pos = self.bindings.len();
        self.pos_of.insert(id, pos);
        self.by_session.insert((b.proto, b.internal, b.remote), id);
        let spares = &mut self.spare_buckets;
        let mut bucket = || spares.pop().unwrap_or_default();
        self.by_internal.entry((b.proto, b.internal)).or_insert_with(&mut bucket).push(id);
        self.by_external.entry((b.proto, b.external_port)).or_insert_with(bucket).push(id);
        let seq = self.next_queue_seq();
        self.expiry.insert(b.expires_at.as_nanos(), seq, id);
        self.live[proto_idx(b.proto)] += 1;
        self.bindings.push(b);
        self.ids.push(id);
        self.queued.push(seq);
    }

    /// `swap_remove`s the binding at `pos` and unindexes it, fixing up the
    /// relocated tail element's position.
    fn remove_at(&mut self, pos: usize) -> Binding {
        let id = self.ids.swap_remove(pos);
        self.queued.swap_remove(pos);
        let b = self.bindings.swap_remove(pos);
        if pos < self.ids.len() {
            self.pos_of.insert(self.ids[pos], pos);
        }
        self.pos_of.remove(&id);
        self.by_session.remove(&(b.proto, b.internal, b.remote));
        let ikey = (b.proto, b.internal);
        if let Some(v) = self.by_internal.get_mut(&ikey) {
            if let Some(i) = v.iter().position(|&x| x == id) {
                v.swap_remove(i);
            }
            if v.is_empty() {
                self.spare_buckets.extend(self.by_internal.remove(&ikey));
            }
        }
        let ekey = (b.proto, b.external_port);
        if let Some(v) = self.by_external.get_mut(&ekey) {
            if let Some(i) = v.iter().position(|&x| x == id) {
                v.swap_remove(i);
            }
            if v.is_empty() {
                self.spare_buckets.extend(self.by_external.remove(&ekey));
            }
        }
        // The binding's expiry-queue entry stays behind; `sweep` discards
        // it as stale (lazy cancellation — the id no longer resolves).
        self.live[proto_idx(b.proto)] -= 1;
        self.bound_expiry_queue();
        b
    }

    /// Moves the binding at `pos` to a new expiry time. The old queue
    /// entry is left behind (stale: its seq is no longer the binding's
    /// `queued` seq); only the new entry is honored by `sweep`.
    fn set_expiry(&mut self, pos: usize, expires_at: Instant) {
        let id = self.ids[pos];
        let old = self.bindings[pos].expires_at;
        if old == expires_at {
            return;
        }
        let seq = self.next_queue_seq();
        self.expiry.insert(expires_at.as_nanos(), seq, id);
        self.bindings[pos].expires_at = expires_at;
        self.queued[pos] = seq;
        self.bound_expiry_queue();
    }

    /// Keeps the expiry queue within `2 · live + 64` entries. Only a
    /// re-time or a removal can break that bound (a new binding adds one
    /// live entry), so those two call this. A re-timed binding's old entry
    /// would otherwise stay until its deadline passed — with a 2 h idle
    /// timeout, thousands per binding refreshed every second.
    #[inline]
    fn bound_expiry_queue(&mut self) {
        if self.expiry.len() > 2 * self.bindings.len() + 64 {
            self.drop_stale_expiry_entries();
        }
    }

    /// Filters the expiry queue down to one entry per live binding. Each
    /// call removes more than half the queue, so its cost is amortized
    /// O(1) per insert; it stays out of line to keep the callers small.
    #[cold]
    #[inline(never)]
    fn drop_stale_expiry_entries(&mut self) {
        let (pos_of, queued) = (&self.pos_of, &self.queued);
        self.expiry.retain(|seq, id| pos_of.get(id).is_some_and(|&pos| queued[pos] == seq));
    }

    /// Moves expired bindings to the quarantine memory. Call with the
    /// current time before any lookup. Cost is proportional to the number
    /// of bindings actually due, not the table size.
    pub fn sweep(&mut self, now: Instant) {
        // Current slab positions of every binding that is due. Stale queue
        // entries (the binding was removed or re-timed since) surface here
        // and are simply discarded; a binding has one live entry, so each
        // position comes up once.
        let mut due = std::mem::take(&mut self.due);
        while let Some((_, seq, id)) = self.expiry.pop_due(now.as_nanos()) {
            if let Some(&pos) = self.pos_of.get(&id) {
                if self.queued[pos] == seq {
                    due.push(pos);
                }
            }
        }
        due.sort_unstable();
        let swept = due.len();
        // Replay the removals exactly as the reference ascending scan with
        // `swap_remove` does: take the smallest due position; the relocated
        // tail element, if itself due, is re-examined at its new position.
        // `due[head..]` is the ascending set still to remove. The tail
        // position is the largest in the slab, so if due it is the set's
        // last element; the position it moves to is smaller than every
        // remaining one, so it goes back in at the head.
        let mut head = 0;
        while head < due.len() {
            let pos = due[head];
            head += 1;
            let last = self.bindings.len() - 1;
            let b = self.remove_at(pos);
            if pos != last && due.last() == Some(&last) && head < due.len() {
                due.pop();
                head -= 1;
                due[head] = pos;
            }
            self.trace_push(
                now,
                b.proto,
                b.internal,
                b.remote,
                b.external_port,
                BindingLifecycle::Expired,
            );
            let key = (b.proto, b.internal, b.remote, b.external_port);
            *self.quarantine.entry(key).or_insert(0) += 1;
            let seq = self.next_queue_seq();
            self.quarantine_by_time.insert(b.expires_at.as_nanos(), seq, key);
            self.trace_push(
                now,
                b.proto,
                b.internal,
                b.remote,
                b.external_port,
                BindingLifecycle::Quarantined,
            );
        }
        due.clear();
        self.due = due;
        if swept > 0 {
            self.stats.bindings_expired += swept as u64;
            self.record_occupancy(now);
        }
        // Prune quarantine entries past the memory horizon. A binding that
        // expired exactly `EXPIRED_MEMORY` ago is dropped — the boundary is
        // exclusive, which the old clamped `duration_since` formulation
        // obscured (see `quarantine_drops_exactly_at_memory_horizon`).
        // Prune everything with `expired_at <= now - EXPIRED_MEMORY`; at
        // `now == FAR_FUTURE` the old saturating comparison dropped every
        // entry, so the bound saturates to match.
        let bound = if now == Instant::FAR_FUTURE {
            u64::MAX
        } else {
            match now.as_nanos().checked_sub(EXPIRED_MEMORY.as_nanos()) {
                Some(b) => b,
                None => return, // the horizon predates the epoch
            }
        };
        while let Some((_, _, key)) = self.quarantine_by_time.pop_due(bound) {
            if let Some(c) = self.quarantine.get_mut(&key) {
                *c -= 1;
                if *c == 0 {
                    self.quarantine.remove(&key);
                }
            }
        }
    }

    fn quantize(now: Instant, timeout: Duration, granularity: Duration) -> Instant {
        let raw = now + timeout;
        let g = granularity.as_nanos().max(1);
        let q = raw.as_nanos().div_ceil(g) * g;
        Instant::from_nanos(q)
    }

    fn port_in_use(&self, proto: NatProto, port: u16) -> bool {
        // Emptied buckets are removed eagerly, so presence means in use.
        self.by_external.contains_key(&(proto, port))
    }

    fn next_sequential(&mut self, proto: NatProto) -> u16 {
        loop {
            let p = self.next_seq_port;
            self.next_seq_port =
                if self.next_seq_port == u16::MAX { SEQ_BASE } else { self.next_seq_port + 1 };
            if !self.port_in_use(proto, p) {
                return p;
            }
        }
    }

    /// Chooses the external port for a new binding.
    fn assign_port(
        &mut self,
        policy: &GatewayPolicy,
        proto: NatProto,
        internal: Endpoint,
        remote: Endpoint,
    ) -> u16 {
        // Mapping behavior (RFC 4787 §4.1): how far an existing mapping for
        // the same internal endpoint is reused for a new remote. Among
        // candidates, the first in table order wins (min slab position),
        // matching the reference scan.
        if policy.mapping != EndpointScope::AddressAndPortDependent {
            if let Some(ids) = self.by_internal.get(&(proto, internal)) {
                let mut best: Option<usize> = None;
                for id in ids {
                    let pos = self.pos_of[id];
                    let reusable = match policy.mapping {
                        EndpointScope::EndpointIndependent => true,
                        EndpointScope::AddressDependent => self.bindings[pos].remote.0 == remote.0,
                        EndpointScope::AddressAndPortDependent => false,
                    };
                    if reusable {
                        best = Some(best.map_or(pos, |b| b.min(pos)));
                    }
                }
                if let Some(pos) = best {
                    return self.bindings[pos].external_port;
                }
            }
        }
        match policy.port_assignment {
            PortAssignment::Preserve { reuse_expired } => {
                let candidate = internal.1;
                let quarantined = !reuse_expired
                    && self.quarantine.contains_key(&(proto, internal, remote, candidate));
                if !self.port_in_use(proto, candidate) && !quarantined {
                    candidate
                } else {
                    self.next_sequential(proto)
                }
            }
            PortAssignment::Sequential => self.next_sequential(proto),
        }
    }

    /// Translates an outbound (LAN→WAN) flow, creating or refreshing a
    /// binding. `tcp_fin`/`tcp_rst` mark teardown segments for TCP flows.
    #[allow(clippy::too_many_arguments)]
    pub fn outbound(
        &mut self,
        now: Instant,
        policy: &GatewayPolicy,
        proto: NatProto,
        internal: Endpoint,
        remote: Endpoint,
        tcp_fin: bool,
        tcp_rst: bool,
    ) -> OutboundVerdict {
        self.sweep(now);
        // Session match: exact 5-tuple.
        if let Some(&id) = self.by_session.get(&(proto, internal, remote)) {
            let pos = self.pos_of[&id];
            let b = &mut self.bindings[pos];
            // Pattern transition on outbound traffic.
            if b.pattern == TrafficPattern::InboundSeen {
                b.pattern = TrafficPattern::Bidirectional;
            }
            let external_port = b.external_port;
            let expires_at = match proto {
                NatProto::Tcp => {
                    if tcp_rst {
                        now // removed on next sweep
                    } else {
                        if tcp_fin {
                            b.fin_from_lan = true;
                        }
                        if b.fin_from_lan && b.fin_from_wan {
                            now + TCP_FIN_LINGER
                        } else {
                            NatTable::quantize(now, policy.tcp_timeout, policy.timer_granularity)
                        }
                    }
                }
                _ => {
                    let t = policy.udp_timeout(b.pattern, remote.1);
                    NatTable::quantize(now, t, policy.timer_granularity)
                }
            };
            self.set_expiry(pos, expires_at);
            self.stats.bindings_refreshed += 1;
            self.trace_push(
                now,
                proto,
                internal,
                remote,
                external_port,
                BindingLifecycle::Refreshed,
            );
            return OutboundVerdict::Translated { external_port, created: false };
        }
        // New binding.
        if self.count(proto) >= policy.max_bindings {
            self.stats.refusals += 1;
            self.stats.first_refusal_at.get_or_insert(now);
            self.trace_push(
                now,
                proto,
                internal,
                remote,
                0,
                BindingLifecycle::Refused { reason: DropReason::Capacity },
            );
            return OutboundVerdict::NoCapacity;
        }
        let external_port = self.assign_port(policy, proto, internal, remote);
        self.stats.bindings_created += 1;
        if external_port == internal.1 {
            self.stats.port_preservation_hits += 1;
        } else {
            self.stats.port_preservation_misses += 1;
        }
        let expires_at = match proto {
            NatProto::Tcp => NatTable::quantize(now, policy.tcp_timeout, policy.timer_granularity),
            _ => NatTable::quantize(
                now,
                policy.udp_timeout(TrafficPattern::OutboundOnly, remote.1),
                policy.timer_granularity,
            ),
        };
        self.push_binding(Binding {
            proto,
            internal,
            remote,
            external_port,
            pattern: TrafficPattern::OutboundOnly,
            expires_at,
            created_at: now,
            fin_from_lan: tcp_fin,
            fin_from_wan: false,
        });
        self.stats.peak_bindings = self.stats.peak_bindings.max(self.bindings.len());
        self.record_occupancy(now);
        self.trace_push(
            now,
            proto,
            internal,
            remote,
            external_port,
            BindingLifecycle::Created { port_preserved: external_port == internal.1 },
        );
        // Same tuple, same port, still inside the quarantine window:
        // the UDP-4 "reuse" observation, made causal.
        if self.quarantine.contains_key(&(proto, internal, remote, external_port)) {
            self.trace_push(
                now,
                proto,
                internal,
                remote,
                external_port,
                BindingLifecycle::PortPreservedReuse,
            );
        }
        OutboundVerdict::Translated { external_port, created: true }
    }

    /// Translates an inbound (WAN→LAN) packet addressed to `external_port`.
    #[allow(clippy::too_many_arguments)]
    pub fn inbound(
        &mut self,
        now: Instant,
        policy: &GatewayPolicy,
        proto: NatProto,
        external_port: u16,
        remote: Endpoint,
        tcp_fin: bool,
        tcp_rst: bool,
    ) -> InboundVerdict {
        self.sweep(now);
        // Candidate bindings on this external port: the sessions sharing one
        // mapping. The exact session is unique (outbound never creates a
        // 5-tuple twin); a filtering pass falls back to the candidate first
        // in table order, matching the reference scan.
        let mut session: Option<usize> = None;
        let mut filter_pass: Option<usize> = None;
        let mut any = false;
        if let Some(ids) = self.by_external.get(&(proto, external_port)) {
            any = !ids.is_empty();
            for id in ids {
                let pos = self.pos_of[id];
                let b = &self.bindings[pos];
                if b.remote == remote {
                    session = Some(pos);
                    break;
                }
                // A mapping exists but this remote has no exact session: the
                // filtering policy decides, judged against every session that
                // shares the mapping (RFC 4787 filtering is per-mapping).
                let pass = match policy.filtering {
                    EndpointScope::EndpointIndependent => true,
                    EndpointScope::AddressDependent => b.remote.0 == remote.0,
                    EndpointScope::AddressAndPortDependent => false,
                };
                if pass {
                    filter_pass = Some(filter_pass.map_or(pos, |f: usize| f.min(pos)));
                }
            }
        }
        let pos = match session.or(filter_pass) {
            Some(p) => p,
            None => {
                return if any { InboundVerdict::Filtered } else { InboundVerdict::NoBinding };
            }
        };
        let b = &mut self.bindings[pos];
        let internal = b.internal;
        let session_remote = b.remote;
        if b.pattern == TrafficPattern::OutboundOnly {
            b.pattern = TrafficPattern::InboundSeen;
        }
        let expires_at = match proto {
            NatProto::Tcp => {
                if tcp_rst {
                    now
                } else {
                    if tcp_fin {
                        b.fin_from_wan = true;
                    }
                    if b.fin_from_lan && b.fin_from_wan {
                        now + TCP_FIN_LINGER
                    } else {
                        NatTable::quantize(now, policy.tcp_timeout, policy.timer_granularity)
                    }
                }
            }
            _ => {
                let t = policy.udp_timeout(b.pattern, b.remote.1);
                NatTable::quantize(now, t, policy.timer_granularity)
            }
        };
        self.set_expiry(pos, expires_at);
        // The refreshed flow is the *binding's* session tuple (a filtering
        // pass may have been matched by a different remote).
        self.trace_push(
            now,
            proto,
            internal,
            session_remote,
            external_port,
            BindingLifecycle::Refreshed,
        );
        InboundVerdict::Accept { internal }
    }

    /// Finds the internal endpoint for an ICMP error whose embedded packet
    /// left the gateway from `external_port` toward `remote` (the remote
    /// match is relaxed, as errors may come from intermediate routers).
    pub fn find_for_embedded(&self, proto: NatProto, external_port: u16) -> Option<&Binding> {
        let ids = self.by_external.get(&(proto, external_port))?;
        let pos = ids.iter().map(|id| self.pos_of[id]).min()?;
        Some(&self.bindings[pos])
    }
}

impl Default for NatTable {
    fn default() -> Self {
        NatTable::new()
    }
}

/// The pre-index, linear-scan NAPT table, retained verbatim as the
/// differential-testing oracle for [`NatTable`]. Every behavior-relevant
/// line matches the implementation this module replaced; the randomized
/// differential tests below drive both tables over identical op sequences
/// and assert identical verdicts, table states, and stats.
#[cfg(test)]
pub(crate) mod reference {
    use super::*;

    #[derive(Debug)]
    pub struct LinearNatTable {
        bindings: Vec<Binding>,
        expired: Vec<Binding>,
        next_seq_port: u16,
        stats: NatStats,
        occupancy_log: Vec<(Instant, usize)>,
        occupancy_stride: u32,
        occupancy_skipped: u32,
        lifecycle: LifecycleCounts,
        trace: Option<Vec<LifecycleEvent>>,
    }

    impl LinearNatTable {
        pub fn new() -> LinearNatTable {
            LinearNatTable {
                bindings: Vec::new(),
                expired: Vec::new(),
                next_seq_port: SEQ_BASE,
                stats: NatStats::default(),
                occupancy_log: Vec::new(),
                occupancy_stride: 1,
                occupancy_skipped: 0,
                lifecycle: LifecycleCounts::ZERO,
                trace: None,
            }
        }

        pub fn enable_lifecycle_tracing(&mut self) {
            if self.trace.is_none() {
                self.trace = Some(Vec::new());
            }
        }

        pub fn lifecycle_events(&self) -> &[LifecycleEvent] {
            self.trace.as_deref().unwrap_or(&[])
        }

        pub fn lifecycle_counts(&self) -> LifecycleCounts {
            self.lifecycle
        }

        fn trace_push(
            &mut self,
            at: Instant,
            proto: NatProto,
            internal: Endpoint,
            remote: Endpoint,
            external_port: u16,
            lifecycle: BindingLifecycle,
        ) {
            self.lifecycle.add(lifecycle);
            if let Some(buf) = &mut self.trace {
                buf.push(LifecycleEvent {
                    at,
                    flow: flow_id(proto, internal, remote),
                    proto: proto.number(),
                    external_port,
                    lifecycle,
                });
            }
        }

        pub fn bindings(&self) -> &[Binding] {
            &self.bindings
        }

        pub fn stats(&self) -> NatStats {
            self.stats
        }

        pub fn occupancy_log(&self) -> &[(Instant, usize)] {
            &self.occupancy_log
        }

        fn record_occupancy(&mut self, now: Instant) {
            self.occupancy_skipped += 1;
            if self.occupancy_skipped < self.occupancy_stride {
                return;
            }
            self.occupancy_skipped = 0;
            self.occupancy_log.push((now, self.bindings.len()));
            if self.occupancy_log.len() > OCCUPANCY_LOG_CAP {
                let mut keep = false;
                self.occupancy_log.retain(|_| {
                    keep = !keep;
                    keep
                });
                self.occupancy_stride *= 2;
            }
        }

        pub fn count(&self, proto: NatProto) -> usize {
            self.bindings.iter().filter(|b| b.proto == proto).count()
        }

        pub fn sweep(&mut self, now: Instant) {
            let before = self.bindings.len();
            let mut i = 0;
            while i < self.bindings.len() {
                if self.bindings[i].expires_at <= now {
                    let b = self.bindings.swap_remove(i);
                    self.trace_push(
                        now,
                        b.proto,
                        b.internal,
                        b.remote,
                        b.external_port,
                        BindingLifecycle::Expired,
                    );
                    self.trace_push(
                        now,
                        b.proto,
                        b.internal,
                        b.remote,
                        b.external_port,
                        BindingLifecycle::Quarantined,
                    );
                    self.expired.push(b);
                } else {
                    i += 1;
                }
            }
            let swept = before - self.bindings.len();
            if swept > 0 {
                self.stats.bindings_expired += swept as u64;
                self.record_occupancy(now);
            }
            self.expired.retain(|b| now.duration_since(b.expires_at.min(now)) < EXPIRED_MEMORY);
        }

        fn port_in_use(&self, proto: NatProto, port: u16) -> bool {
            self.bindings.iter().any(|b| b.proto == proto && b.external_port == port)
        }

        fn next_sequential(&mut self, proto: NatProto) -> u16 {
            loop {
                let p = self.next_seq_port;
                self.next_seq_port =
                    if self.next_seq_port == u16::MAX { SEQ_BASE } else { self.next_seq_port + 1 };
                if !self.port_in_use(proto, p) {
                    return p;
                }
            }
        }

        fn assign_port(
            &mut self,
            policy: &GatewayPolicy,
            proto: NatProto,
            internal: Endpoint,
            remote: Endpoint,
        ) -> u16 {
            let reusable = |b: &&Binding| match policy.mapping {
                EndpointScope::EndpointIndependent => true,
                EndpointScope::AddressDependent => b.remote.0 == remote.0,
                EndpointScope::AddressAndPortDependent => false,
            };
            if policy.mapping != EndpointScope::AddressAndPortDependent {
                if let Some(b) = self
                    .bindings
                    .iter()
                    .filter(|b| b.proto == proto && b.internal == internal)
                    .find(reusable)
                {
                    return b.external_port;
                }
            }
            match policy.port_assignment {
                PortAssignment::Preserve { reuse_expired } => {
                    let candidate = internal.1;
                    let quarantined = !reuse_expired
                        && self.expired.iter().any(|b| {
                            b.proto == proto
                                && b.internal == internal
                                && b.remote == remote
                                && b.external_port == candidate
                        });
                    if !self.port_in_use(proto, candidate) && !quarantined {
                        candidate
                    } else {
                        self.next_sequential(proto)
                    }
                }
                PortAssignment::Sequential => self.next_sequential(proto),
            }
        }

        #[allow(clippy::too_many_arguments)]
        pub fn outbound(
            &mut self,
            now: Instant,
            policy: &GatewayPolicy,
            proto: NatProto,
            internal: Endpoint,
            remote: Endpoint,
            tcp_fin: bool,
            tcp_rst: bool,
        ) -> OutboundVerdict {
            self.sweep(now);
            if let Some(b) = self
                .bindings
                .iter_mut()
                .find(|b| b.proto == proto && b.internal == internal && b.remote == remote)
            {
                if b.pattern == TrafficPattern::InboundSeen {
                    b.pattern = TrafficPattern::Bidirectional;
                }
                let external_port = b.external_port;
                match proto {
                    NatProto::Tcp => {
                        if tcp_rst {
                            b.expires_at = now;
                        } else {
                            if tcp_fin {
                                b.fin_from_lan = true;
                            }
                            b.expires_at = if b.fin_from_lan && b.fin_from_wan {
                                now + TCP_FIN_LINGER
                            } else {
                                NatTable::quantize(
                                    now,
                                    policy.tcp_timeout,
                                    policy.timer_granularity,
                                )
                            };
                        }
                    }
                    _ => {
                        let t = policy.udp_timeout(b.pattern, remote.1);
                        b.expires_at = NatTable::quantize(now, t, policy.timer_granularity);
                    }
                }
                self.stats.bindings_refreshed += 1;
                self.trace_push(
                    now,
                    proto,
                    internal,
                    remote,
                    external_port,
                    BindingLifecycle::Refreshed,
                );
                return OutboundVerdict::Translated { external_port, created: false };
            }
            if self.count(proto) >= policy.max_bindings {
                self.stats.refusals += 1;
                self.stats.first_refusal_at.get_or_insert(now);
                self.trace_push(
                    now,
                    proto,
                    internal,
                    remote,
                    0,
                    BindingLifecycle::Refused { reason: DropReason::Capacity },
                );
                return OutboundVerdict::NoCapacity;
            }
            let external_port = self.assign_port(policy, proto, internal, remote);
            self.stats.bindings_created += 1;
            if external_port == internal.1 {
                self.stats.port_preservation_hits += 1;
            } else {
                self.stats.port_preservation_misses += 1;
            }
            let expires_at = match proto {
                NatProto::Tcp => {
                    NatTable::quantize(now, policy.tcp_timeout, policy.timer_granularity)
                }
                _ => NatTable::quantize(
                    now,
                    policy.udp_timeout(TrafficPattern::OutboundOnly, remote.1),
                    policy.timer_granularity,
                ),
            };
            self.bindings.push(Binding {
                proto,
                internal,
                remote,
                external_port,
                pattern: TrafficPattern::OutboundOnly,
                expires_at,
                created_at: now,
                fin_from_lan: tcp_fin,
                fin_from_wan: false,
            });
            self.stats.peak_bindings = self.stats.peak_bindings.max(self.bindings.len());
            self.record_occupancy(now);
            self.trace_push(
                now,
                proto,
                internal,
                remote,
                external_port,
                BindingLifecycle::Created { port_preserved: external_port == internal.1 },
            );
            let reused = self.expired.iter().any(|b| {
                b.proto == proto
                    && b.internal == internal
                    && b.remote == remote
                    && b.external_port == external_port
            });
            if reused {
                self.trace_push(
                    now,
                    proto,
                    internal,
                    remote,
                    external_port,
                    BindingLifecycle::PortPreservedReuse,
                );
            }
            OutboundVerdict::Translated { external_port, created: true }
        }

        #[allow(clippy::too_many_arguments)]
        pub fn inbound(
            &mut self,
            now: Instant,
            policy: &GatewayPolicy,
            proto: NatProto,
            external_port: u16,
            remote: Endpoint,
            tcp_fin: bool,
            tcp_rst: bool,
        ) -> InboundVerdict {
            self.sweep(now);
            let mut session: Option<usize> = None;
            let mut filter_pass: Option<usize> = None;
            let mut any = false;
            for (i, b) in self.bindings.iter().enumerate() {
                if b.proto != proto || b.external_port != external_port {
                    continue;
                }
                any = true;
                if b.remote == remote {
                    session = Some(i);
                    break;
                }
                let pass = match policy.filtering {
                    EndpointScope::EndpointIndependent => true,
                    EndpointScope::AddressDependent => b.remote.0 == remote.0,
                    EndpointScope::AddressAndPortDependent => false,
                };
                if pass {
                    filter_pass.get_or_insert(i);
                }
            }
            let idx = match session.or(filter_pass) {
                Some(i) => i,
                None => {
                    return if any { InboundVerdict::Filtered } else { InboundVerdict::NoBinding };
                }
            };
            let b = &mut self.bindings[idx];
            let internal = b.internal;
            let session_remote = b.remote;
            if b.pattern == TrafficPattern::OutboundOnly {
                b.pattern = TrafficPattern::InboundSeen;
            }
            match proto {
                NatProto::Tcp => {
                    if tcp_rst {
                        b.expires_at = now;
                    } else {
                        if tcp_fin {
                            b.fin_from_wan = true;
                        }
                        b.expires_at = if b.fin_from_lan && b.fin_from_wan {
                            now + TCP_FIN_LINGER
                        } else {
                            NatTable::quantize(now, policy.tcp_timeout, policy.timer_granularity)
                        };
                    }
                }
                _ => {
                    let t = policy.udp_timeout(b.pattern, b.remote.1);
                    b.expires_at = NatTable::quantize(now, t, policy.timer_granularity);
                }
            }
            self.trace_push(
                now,
                proto,
                internal,
                session_remote,
                external_port,
                BindingLifecycle::Refreshed,
            );
            InboundVerdict::Accept { internal }
        }

        pub fn find_for_embedded(&self, proto: NatProto, external_port: u16) -> Option<&Binding> {
            self.bindings.iter().find(|b| b.proto == proto && b.external_port == external_port)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pol() -> GatewayPolicy {
        GatewayPolicy::well_behaved()
    }

    fn internal() -> Endpoint {
        (Ipv4Addr::new(192, 168, 1, 100), 5000)
    }

    fn remote() -> Endpoint {
        (Ipv4Addr::new(10, 0, 1, 1), 7000)
    }

    fn t(secs: u64) -> Instant {
        Instant::from_secs(secs)
    }

    #[test]
    fn preserves_source_port() {
        let mut nat = NatTable::new();
        let v = nat.outbound(t(0), &pol(), NatProto::Udp, internal(), remote(), false, false);
        assert_eq!(v, OutboundVerdict::Translated { external_port: 5000, created: true });
    }

    #[test]
    fn sequential_assignment_when_configured() {
        let mut nat = NatTable::new();
        let mut p = pol();
        p.port_assignment = PortAssignment::Sequential;
        p.mapping = EndpointScope::AddressAndPortDependent;
        let v = nat.outbound(t(0), &p, NatProto::Udp, internal(), remote(), false, false);
        assert_eq!(v, OutboundVerdict::Translated { external_port: SEQ_BASE, created: true });
        let v2 =
            nat.outbound(t(0), &p, NatProto::Udp, (internal().0, 5001), remote(), false, false);
        assert_eq!(v2, OutboundVerdict::Translated { external_port: SEQ_BASE + 1, created: true });
    }

    #[test]
    fn port_collision_falls_back_to_sequential() {
        let mut nat = NatTable::new();
        let p = pol();
        let other_host = (Ipv4Addr::new(192, 168, 1, 101), 5000);
        nat.outbound(t(0), &p, NatProto::Udp, internal(), remote(), false, false);
        let v = nat.outbound(t(0), &p, NatProto::Udp, other_host, remote(), false, false);
        assert_eq!(v, OutboundVerdict::Translated { external_port: SEQ_BASE, created: true });
    }

    #[test]
    fn solitary_binding_expires_at_solitary_timeout() {
        let mut nat = NatTable::new();
        let p = pol(); // solitary 30s
        nat.outbound(t(0), &p, NatProto::Udp, internal(), remote(), false, false);
        // At t=29 the binding still admits inbound traffic.
        let v = nat.inbound(t(29), &p, NatProto::Udp, 5000, remote(), false, false);
        assert!(matches!(v, InboundVerdict::Accept { .. }));
        // A fresh solitary binding dies at 30s.
        let mut nat = NatTable::new();
        nat.outbound(t(0), &p, NatProto::Udp, internal(), remote(), false, false);
        let v = nat.inbound(t(31), &p, NatProto::Udp, 5000, remote(), false, false);
        assert_eq!(v, InboundVerdict::NoBinding);
    }

    #[test]
    fn inbound_traffic_extends_timeout() {
        let mut nat = NatTable::new();
        let p = pol(); // solitary 30, inbound 180
        nat.outbound(t(0), &p, NatProto::Udp, internal(), remote(), false, false);
        // Inbound at t=10 switches the binding to the inbound timeout.
        assert!(matches!(
            nat.inbound(t(10), &p, NatProto::Udp, 5000, remote(), false, false),
            InboundVerdict::Accept { .. }
        ));
        // Alive at t=10+179, dead at t=10+181.
        assert!(matches!(
            nat.inbound(t(189), &p, NatProto::Udp, 5000, remote(), false, false),
            InboundVerdict::Accept { .. }
        ));
        let mut nat2 = NatTable::new();
        nat2.outbound(t(0), &p, NatProto::Udp, internal(), remote(), false, false);
        nat2.inbound(t(10), &p, NatProto::Udp, 5000, remote(), false, false);
        assert_eq!(
            nat2.inbound(t(192), &p, NatProto::Udp, 5000, remote(), false, false),
            InboundVerdict::NoBinding
        );
    }

    #[test]
    fn bidirectional_pattern_uses_third_timeout() {
        let mut nat = NatTable::new();
        let mut p = pol();
        p.udp_timeout_bidirectional = Duration::from_secs(400);
        nat.outbound(t(0), &p, NatProto::Udp, internal(), remote(), false, false);
        nat.inbound(t(1), &p, NatProto::Udp, 5000, remote(), false, false);
        // Outbound after inbound → Bidirectional, 400 s timeout.
        nat.outbound(t(2), &p, NatProto::Udp, internal(), remote(), false, false);
        assert_eq!(nat.bindings()[0].pattern, TrafficPattern::Bidirectional);
        assert!(matches!(
            nat.inbound(t(2 + 399), &p, NatProto::Udp, 5000, remote(), false, false),
            InboundVerdict::Accept { .. }
        ));
    }

    #[test]
    fn expired_binding_reuse_vs_quarantine() {
        // reuse_expired = true: same flow after expiry gets the same port.
        let mut nat = NatTable::new();
        let p = pol();
        nat.outbound(t(0), &p, NatProto::Udp, internal(), remote(), false, false);
        let v = nat.outbound(t(100), &p, NatProto::Udp, internal(), remote(), false, false);
        assert_eq!(v, OutboundVerdict::Translated { external_port: 5000, created: true });

        // reuse_expired = false: the expired port is quarantined.
        let mut nat = NatTable::new();
        let mut p2 = pol();
        p2.port_assignment = PortAssignment::Preserve { reuse_expired: false };
        nat.outbound(t(0), &p2, NatProto::Udp, internal(), remote(), false, false);
        let v = nat.outbound(t(100), &p2, NatProto::Udp, internal(), remote(), false, false);
        assert_eq!(v, OutboundVerdict::Translated { external_port: SEQ_BASE, created: true });
    }

    #[test]
    fn quarantine_drops_exactly_at_memory_horizon() {
        // A flow that expired exactly EXPIRED_MEMORY ago must be forgotten:
        // the boundary is exclusive. One nanosecond earlier it is still
        // quarantined and the preserve candidate is refused.
        let mut p = pol();
        p.port_assignment = PortAssignment::Preserve { reuse_expired: false };
        let build = |p: &GatewayPolicy| {
            let mut nat = NatTable::new();
            nat.outbound(t(0), p, NatProto::Udp, internal(), remote(), false, false);
            let expires_at = nat.bindings()[0].expires_at;
            (nat, expires_at)
        };

        let (mut nat, expires_at) = build(&p);
        let just_inside =
            Instant::from_nanos(expires_at.as_nanos() + EXPIRED_MEMORY.as_nanos() - 1);
        let v = nat.outbound(just_inside, &p, NatProto::Udp, internal(), remote(), false, false);
        assert_eq!(
            v,
            OutboundVerdict::Translated { external_port: SEQ_BASE, created: true },
            "one nanosecond inside the horizon the port must still be quarantined"
        );

        let (mut nat, expires_at) = build(&p);
        let at_horizon = expires_at + EXPIRED_MEMORY;
        let v = nat.outbound(at_horizon, &p, NatProto::Udp, internal(), remote(), false, false);
        assert_eq!(
            v,
            OutboundVerdict::Translated { external_port: 5000, created: true },
            "exactly at the horizon the quarantine memory must be gone"
        );
    }

    #[test]
    fn filtering_modes() {
        let strange = (Ipv4Addr::new(10, 0, 9, 9), 1234);
        let same_addr = (remote().0, 4321);
        for (mode, from_strange, from_same_addr) in [
            (EndpointScope::EndpointIndependent, true, true),
            (EndpointScope::AddressDependent, false, true),
            (EndpointScope::AddressAndPortDependent, false, false),
        ] {
            let mut p = pol();
            p.filtering = mode;
            let mut nat = NatTable::new();
            nat.outbound(t(0), &p, NatProto::Udp, internal(), remote(), false, false);
            let vs = nat.inbound(t(1), &p, NatProto::Udp, 5000, strange, false, false);
            assert_eq!(matches!(vs, InboundVerdict::Accept { .. }), from_strange, "{mode:?}");
            let va = nat.inbound(t(1), &p, NatProto::Udp, 5000, same_addr, false, false);
            assert_eq!(matches!(va, InboundVerdict::Accept { .. }), from_same_addr, "{mode:?}");
        }
    }

    #[test]
    fn capacity_limit_rejects_new_bindings() {
        let mut p = pol();
        p.max_bindings = 3;
        p.mapping = EndpointScope::AddressAndPortDependent;
        let mut nat = NatTable::new();
        for i in 0..3 {
            let v = nat.outbound(
                t(0),
                &p,
                NatProto::Tcp,
                (internal().0, 6000 + i),
                remote(),
                false,
                false,
            );
            assert!(matches!(v, OutboundVerdict::Translated { .. }));
        }
        let v = nat.outbound(t(0), &p, NatProto::Tcp, (internal().0, 6999), remote(), false, false);
        assert_eq!(v, OutboundVerdict::NoCapacity);
        // Existing sessions still translate.
        let v = nat.outbound(t(1), &p, NatProto::Tcp, (internal().0, 6000), remote(), false, false);
        assert!(matches!(v, OutboundVerdict::Translated { created: false, .. }));
    }

    #[test]
    fn tcp_idle_timeout_applies() {
        let mut p = pol();
        p.tcp_timeout = Duration::from_secs(239); // the be1 value
        let mut nat = NatTable::new();
        nat.outbound(t(0), &p, NatProto::Tcp, internal(), remote(), false, false);
        assert!(matches!(
            nat.inbound(t(238), &p, NatProto::Tcp, 5000, remote(), false, false),
            InboundVerdict::Accept { .. }
        ));
        let mut nat2 = NatTable::new();
        nat2.outbound(t(0), &p, NatProto::Tcp, internal(), remote(), false, false);
        assert_eq!(
            nat2.inbound(t(240), &p, NatProto::Tcp, 5000, remote(), false, false),
            InboundVerdict::NoBinding
        );
    }

    #[test]
    fn tcp_fin_fin_tears_down_quickly() {
        let p = pol();
        let mut nat = NatTable::new();
        nat.outbound(t(0), &p, NatProto::Tcp, internal(), remote(), false, false);
        nat.outbound(t(1), &p, NatProto::Tcp, internal(), remote(), true, false); // FIN out
        nat.inbound(t(2), &p, NatProto::Tcp, 5000, remote(), true, false); // FIN in
                                                                           // Long before the 2 h idle timeout, the binding is gone.
        assert_eq!(
            nat.inbound(t(60), &p, NatProto::Tcp, 5000, remote(), false, false),
            InboundVerdict::NoBinding
        );
    }

    #[test]
    fn tcp_rst_removes_binding() {
        let p = pol();
        let mut nat = NatTable::new();
        nat.outbound(t(0), &p, NatProto::Tcp, internal(), remote(), false, false);
        nat.outbound(t(1), &p, NatProto::Tcp, internal(), remote(), false, true); // RST
        assert_eq!(
            nat.inbound(t(2), &p, NatProto::Tcp, 5000, remote(), false, false),
            InboundVerdict::NoBinding
        );
    }

    #[test]
    fn coarse_timer_quantizes_expiry() {
        let mut p = pol();
        p.timer_granularity = Duration::from_secs(60);
        p.udp_timeout_solitary = Duration::from_secs(90);
        let mut nat = NatTable::new();
        // Created at t=10: raw expiry 100 → quantized up to 120.
        nat.outbound(t(10), &p, NatProto::Udp, internal(), remote(), false, false);
        assert_eq!(nat.bindings()[0].expires_at, t(120));
    }

    #[test]
    fn endpoint_independent_mapping_reuses_external_port() {
        let p = pol(); // mapping: EndpointIndependent
        let mut nat = NatTable::new();
        nat.outbound(t(0), &p, NatProto::Udp, internal(), remote(), false, false);
        let other_remote = (Ipv4Addr::new(10, 0, 2, 2), 9999);
        let v = nat.outbound(t(0), &p, NatProto::Udp, internal(), other_remote, false, false);
        assert_eq!(v, OutboundVerdict::Translated { external_port: 5000, created: true });
        assert_eq!(nat.count(NatProto::Udp), 2);
    }

    #[test]
    fn stats_track_lifecycle() {
        let p = pol();
        let mut nat = NatTable::new();
        nat.outbound(t(0), &p, NatProto::Udp, internal(), remote(), false, false);
        // Second host collides on port 5000 → sequential fallback (a miss).
        let other_host = (Ipv4Addr::new(192, 168, 1, 101), 5000);
        nat.outbound(t(0), &p, NatProto::Udp, other_host, remote(), false, false);
        let s = nat.stats();
        assert_eq!(s.bindings_created, 2);
        assert_eq!(s.port_preservation_hits, 1);
        assert_eq!(s.port_preservation_misses, 1);
        assert_eq!(s.peak_bindings, 2);
        assert_eq!(s.bindings_expired, 0);
        // Both solitary bindings expire by t=100.
        nat.sweep(t(100));
        assert_eq!(nat.stats().bindings_expired, 2);
        // Occupancy log saw the rise and the fall.
        let log = nat.occupancy_log();
        assert_eq!(log.first(), Some(&(t(0), 1)));
        assert_eq!(log.last(), Some(&(t(100), 0)));
    }

    #[test]
    fn stats_count_refusals() {
        let mut p = pol();
        p.max_bindings = 1;
        p.mapping = EndpointScope::AddressAndPortDependent;
        let mut nat = NatTable::new();
        nat.outbound(t(0), &p, NatProto::Tcp, internal(), remote(), false, false);
        nat.outbound(t(3), &p, NatProto::Tcp, (internal().0, 6001), remote(), false, false);
        assert_eq!(nat.stats().refusals, 1);
        // Onset latches on the first refusal and never moves.
        assert_eq!(nat.stats().first_refusal_at, Some(t(3)));
        nat.outbound(t(9), &p, NatProto::Tcp, (internal().0, 6002), remote(), false, false);
        assert_eq!(nat.stats().refusals, 2);
        assert_eq!(nat.stats().first_refusal_at, Some(t(3)));
    }

    #[test]
    fn stats_count_refreshes() {
        let p = pol();
        let mut nat = NatTable::new();
        for i in 0..4 {
            nat.outbound(t(i), &p, NatProto::Udp, internal(), remote(), false, false);
        }
        let s = nat.stats();
        assert_eq!(s.bindings_created, 1);
        assert_eq!(s.bindings_refreshed, 3);
        assert_eq!(s.first_refusal_at, None);
    }

    #[test]
    fn occupancy_log_stays_bounded() {
        let mut p = pol();
        p.max_bindings = usize::MAX;
        p.mapping = EndpointScope::AddressAndPortDependent;
        p.port_assignment = PortAssignment::Sequential;
        let mut nat = NatTable::new();
        for i in 0..4000u16 {
            nat.outbound(
                t(0),
                &p,
                NatProto::Udp,
                (internal().0, 1000 + (i % 4000)),
                (remote().0, 7000 + i),
                false,
                false,
            );
        }
        assert!(nat.occupancy_log().len() <= 2048 + 1);
        assert_eq!(nat.stats().peak_bindings, 4000);
    }

    #[test]
    fn find_for_embedded_locates_binding() {
        let p = pol();
        let mut nat = NatTable::new();
        nat.outbound(t(0), &p, NatProto::Udp, internal(), remote(), false, false);
        let b = nat.find_for_embedded(NatProto::Udp, 5000).unwrap();
        assert_eq!(b.internal, internal());
        assert!(nat.find_for_embedded(NatProto::Udp, 1234).is_none());
    }

    #[test]
    fn lifecycle_tracing_is_off_by_default_and_changes_nothing() {
        let p = pol();
        let run = |traced: bool| {
            let mut nat = NatTable::new();
            if traced {
                nat.enable_lifecycle_tracing();
            }
            let verdicts = vec![
                nat.outbound(t(0), &p, NatProto::Udp, internal(), remote(), false, false),
                nat.outbound(t(5), &p, NatProto::Udp, internal(), remote(), false, false),
            ];
            nat.sweep(t(100));
            let out = (verdicts, nat.bindings().to_vec(), nat.stats(), nat.lifecycle_counts());
            (out, nat.lifecycle_events().len())
        };
        let (off, off_events) = run(false);
        let (on, on_events) = run(true);
        assert_eq!(off, on, "tracing must not change verdicts, table, stats, or counts");
        assert_eq!(off_events, 0, "no events buffered when tracing is off");
        assert_eq!(on_events as u64, on.3.total(), "counts cover every traced event");
    }

    #[test]
    fn udp_full_life_is_traced_causally() {
        // UDP-1 shape: create, keepalive refresh, then idle past the
        // solitary timeout — the whole life shares one FlowId.
        let p = pol(); // solitary 30 s
        let mut nat = NatTable::new();
        nat.enable_lifecycle_tracing();
        nat.outbound(t(0), &p, NatProto::Udp, internal(), remote(), false, false);
        nat.outbound(t(10), &p, NatProto::Udp, internal(), remote(), false, false);
        nat.sweep(t(100));
        let events = nat.drain_lifecycle_events();
        let kinds: Vec<&str> = events.iter().map(|e| e.lifecycle.kind_name()).collect();
        assert_eq!(kinds, ["created", "refreshed", "expired", "quarantined"]);
        let flow = flow_id(NatProto::Udp, internal(), remote());
        assert!(events.iter().all(|e| e.flow == flow), "one flow, one id: {events:?}");
        assert!(events.iter().all(|e| e.proto == 17 && e.external_port == 5000));
        assert_eq!(events[0].lifecycle, BindingLifecycle::Created { port_preserved: true });
        // Expiry lands at the refresh + the 30 s solitary timeout.
        assert_eq!(events[2].at, t(100));
        // Draining leaves tracing on and the buffer empty.
        assert!(nat.lifecycle_tracing_enabled());
        assert!(nat.lifecycle_events().is_empty());
    }

    #[test]
    fn refusal_and_port_reuse_are_traced() {
        // Refusal: 1-entry table, second flow refused with a Capacity
        // reason and a recomputable flow id.
        let mut p = pol();
        p.max_bindings = 1;
        p.mapping = EndpointScope::AddressAndPortDependent;
        let mut nat = NatTable::new();
        nat.enable_lifecycle_tracing();
        nat.outbound(t(0), &p, NatProto::Udp, internal(), remote(), false, false);
        let refused_internal = (internal().0, 6001);
        nat.outbound(t(1), &p, NatProto::Udp, refused_internal, remote(), false, false);
        let events = nat.drain_lifecycle_events();
        assert_eq!(
            events.last().map(|e| e.lifecycle),
            Some(BindingLifecycle::Refused { reason: DropReason::Capacity })
        );
        assert_eq!(events.last().unwrap().flow, flow_id(NatProto::Udp, refused_internal, remote()));
        assert_eq!(events.last().unwrap().external_port, 0);

        // Reuse: same tuple back inside the quarantine window re-acquires
        // its port and the reuse is made explicit.
        let p = pol(); // Preserve { reuse_expired: true }
        let mut nat = NatTable::new();
        nat.enable_lifecycle_tracing();
        nat.outbound(t(0), &p, NatProto::Udp, internal(), remote(), false, false);
        nat.outbound(t(100), &p, NatProto::Udp, internal(), remote(), false, false);
        let kinds: Vec<&str> =
            nat.lifecycle_events().iter().map(|e| e.lifecycle.kind_name()).collect();
        assert_eq!(kinds, ["created", "expired", "quarantined", "created", "port_preserved_reuse"]);
    }
}

/// Randomized differential tests: the indexed [`NatTable`] against the
/// retained linear-scan [`reference::LinearNatTable`], over every
/// mapping × filtering × port-assignment combination. Both tables see the
/// same op stream; verdicts must match op-for-op and the full table state
/// (binding slab order included), stats, per-proto counts, and occupancy
/// logs must match at every checkpoint.
#[cfg(test)]
mod differential {
    use super::reference::LinearNatTable;
    use super::*;
    use hgw_core::SimRng;

    const OPS_PER_COMBO: usize = 10_000;

    const MAPPINGS: [EndpointScope; 3] = [
        EndpointScope::EndpointIndependent,
        EndpointScope::AddressDependent,
        EndpointScope::AddressAndPortDependent,
    ];
    const FILTERINGS: [EndpointScope; 3] = MAPPINGS;
    const ASSIGNMENTS: [PortAssignment; 3] = [
        PortAssignment::Preserve { reuse_expired: true },
        PortAssignment::Preserve { reuse_expired: false },
        PortAssignment::Sequential,
    ];
    const PROTOS: [NatProto; 3] = [NatProto::Udp, NatProto::Tcp, NatProto::IcmpQuery];

    fn pick<T: Copy>(rng: &mut SimRng, xs: &[T]) -> T {
        xs[rng.below(xs.len() as u64) as usize]
    }

    fn internal_endpoint(rng: &mut SimRng) -> Endpoint {
        // Two hosts sharing a small port pool provokes preserve collisions.
        let host = Ipv4Addr::new(192, 168, 1, 100 + rng.below(2) as u8);
        (host, 5000 + rng.below(6) as u16)
    }

    fn remote_endpoint(rng: &mut SimRng) -> Endpoint {
        let addr = Ipv4Addr::new(10, 0, 1, 1 + rng.below(3) as u8);
        (addr, 7000 + rng.below(3) as u16)
    }

    fn external_port(rng: &mut SimRng) -> u16 {
        // Ports that can actually hold bindings: the preserve pool and the
        // head of the sequential range (plus a few guaranteed misses).
        match rng.below(3) {
            0 => 5000 + rng.below(6) as u16,
            1 => SEQ_BASE + rng.below(32) as u16,
            _ => 1 + rng.below(64) as u16,
        }
    }

    fn assert_same_state(new: &NatTable, oracle: &LinearNatTable, ctx: &str) {
        assert_eq!(new.bindings(), oracle.bindings(), "binding slab diverged: {ctx}");
        assert_eq!(new.stats(), oracle.stats(), "stats diverged: {ctx}");
        assert_eq!(new.occupancy_log(), oracle.occupancy_log(), "occupancy diverged: {ctx}");
        for proto in PROTOS {
            assert_eq!(new.count(proto), oracle.count(proto), "count({proto:?}) diverged: {ctx}");
        }
        // The lifecycle event streams must mirror byte-for-byte: same
        // events, same order, same timestamps, same flow ids.
        assert_eq!(
            new.lifecycle_events(),
            oracle.lifecycle_events(),
            "lifecycle event stream diverged: {ctx}"
        );
        assert_eq!(new.lifecycle_counts(), oracle.lifecycle_counts(), "counts diverged: {ctx}");
    }

    fn drive(policy: &GatewayPolicy, seed: u64) {
        let mut rng = SimRng::new(seed);
        let mut new = NatTable::new();
        let mut oracle = LinearNatTable::new();
        new.enable_lifecycle_tracing();
        oracle.enable_lifecycle_tracing();
        let mut now = Instant::ZERO;
        for op in 0..OPS_PER_COMBO {
            // Mostly small steps; occasionally jump past timeouts or the
            // whole quarantine window so expiry and pruning both fire.
            now += match rng.below(100) {
                0..=1 => Duration::from_secs(7200 + rng.below(3600)),
                2..=11 => Duration::from_secs(180 + rng.below(600)),
                _ => Duration::from_millis(rng.below(40_000)),
            };
            let proto = pick(&mut rng, &PROTOS);
            let fin = proto == NatProto::Tcp && rng.chance(0.15);
            let rst = proto == NatProto::Tcp && rng.chance(0.05);
            let ctx = format!("op {op} at {now:?} (seed {seed})");
            match rng.below(10) {
                0..=4 => {
                    let internal = internal_endpoint(&mut rng);
                    let remote = remote_endpoint(&mut rng);
                    let a = new.outbound(now, policy, proto, internal, remote, fin, rst);
                    let b = oracle.outbound(now, policy, proto, internal, remote, fin, rst);
                    assert_eq!(a, b, "outbound verdict diverged: {ctx}");
                }
                5..=8 => {
                    let port = external_port(&mut rng);
                    let remote = remote_endpoint(&mut rng);
                    let a = new.inbound(now, policy, proto, port, remote, fin, rst);
                    let b = oracle.inbound(now, policy, proto, port, remote, fin, rst);
                    assert_eq!(a, b, "inbound verdict diverged: {ctx}");
                }
                _ => {
                    new.sweep(now);
                    oracle.sweep(now);
                    let port = external_port(&mut rng);
                    let a = new.find_for_embedded(proto, port);
                    let b = oracle.find_for_embedded(proto, port);
                    assert_eq!(a, b, "find_for_embedded diverged: {ctx}");
                }
            }
            if op % 64 == 0 {
                assert_same_state(&new, &oracle, &ctx);
            }
        }
        assert_same_state(&new, &oracle, &format!("final state (seed {seed})"));
        assert!(
            oracle.stats().bindings_created > 0 && oracle.stats().bindings_expired > 0,
            "op stream failed to exercise the table (seed {seed})"
        );
        // The streams mirrored throughout; also prove they saw the same
        // mutations the counters did (every create/expire/refresh/refusal
        // has its event).
        let events = new.lifecycle_events();
        let mut tally = LifecycleCounts::ZERO;
        events.iter().for_each(|e| tally.add(e.lifecycle));
        assert_eq!(
            tally,
            new.lifecycle_counts(),
            "always-on counts match the stream (seed {seed})"
        );
        let count = |k: BindingLifecycle| events.iter().filter(|e| e.lifecycle == k).count() as u64;
        let s = oracle.stats();
        assert_eq!(count(BindingLifecycle::Expired), s.bindings_expired, "seed {seed}");
        assert_eq!(count(BindingLifecycle::Quarantined), s.bindings_expired, "seed {seed}");
        assert!(count(BindingLifecycle::Refreshed) >= s.bindings_refreshed, "seed {seed}");
        assert_eq!(
            count(BindingLifecycle::Refused { reason: DropReason::Capacity }),
            s.refusals,
            "seed {seed}"
        );
        assert_eq!(
            events
                .iter()
                .filter(|e| matches!(e.lifecycle, BindingLifecycle::Created { .. }))
                .count() as u64,
            s.bindings_created,
            "seed {seed}"
        );
    }

    /// The TCP-4 shape: a ramp to 256 live TCP bindings, each refreshed by
    /// traffic both ways while the ramp runs, then torn down by FIN/FIN
    /// (the 10 s linger) or by a RST from either side. Every deadline is
    /// the quantized idle timeout, `now + 10 s` or `now`, so the expiry
    /// queue holds at most three runs, and every sweep on the way agrees
    /// with the linear oracle.
    #[test]
    fn tcp4_ramp_keeps_the_expiry_queue_to_a_few_runs() {
        let mut p = GatewayPolicy::well_behaved();
        p.mapping = EndpointScope::AddressAndPortDependent;
        let mut rng = SimRng::new(0x7C94);
        let mut new = NatTable::new();
        let mut oracle = LinearNatTable::new();
        new.enable_lifecycle_tracing();
        oracle.enable_lifecycle_tracing();
        let server = (Ipv4Addr::new(10, 0, 1, 1), 80);
        let mut now = Instant::ZERO;
        let mut ports: Vec<(Endpoint, u16)> = Vec::new();
        let mut peak_runs = 0;
        type Flow = (Endpoint, u16);
        let step =
            |new: &mut NatTable, oracle: &mut LinearNatTable, now, flow: Flow, lan, fin, rst| {
                let (internal, external) = flow;
                if lan {
                    let a = new.outbound(now, &p, NatProto::Tcp, internal, server, fin, rst);
                    let b = oracle.outbound(now, &p, NatProto::Tcp, internal, server, fin, rst);
                    assert_eq!(a, b, "outbound at {now:?}");
                    match a {
                        OutboundVerdict::Translated { external_port, .. } => external_port,
                        OutboundVerdict::NoCapacity => panic!("the ramp stays under the cap"),
                    }
                } else {
                    let a = new.inbound(now, &p, NatProto::Tcp, external, server, fin, rst);
                    let b = oracle.inbound(now, &p, NatProto::Tcp, external, server, fin, rst);
                    assert_eq!(a, b, "inbound at {now:?}");
                    assert_eq!(a, InboundVerdict::Accept { internal });
                    external
                }
            };
        for i in 0..256u16 {
            now += Duration::from_millis(1 + rng.below(8));
            let internal = (Ipv4Addr::new(192, 168, 1, 100), 10_000 + i);
            let external = step(&mut new, &mut oracle, now, (internal, 0), true, false, false);
            ports.push((internal, external));
            step(&mut new, &mut oracle, now, (internal, external), false, false, false);
            for _ in 0..4 {
                let flow = ports[rng.below(ports.len() as u64) as usize];
                step(&mut new, &mut oracle, now, flow, rng.chance(0.5), false, false);
            }
            peak_runs = peak_runs.max(new.expiry.run_count());
        }
        // Teardown in random order: a third by RST, the rest by FIN/FIN.
        while !ports.is_empty() {
            now += Duration::from_millis(1 + rng.below(40));
            let flow = ports.swap_remove(rng.below(ports.len() as u64) as usize);
            if rng.below(3) == 0 {
                step(&mut new, &mut oracle, now, flow, rng.chance(0.5), false, true);
            } else {
                step(&mut new, &mut oracle, now, flow, true, true, false);
                step(&mut new, &mut oracle, now, flow, false, true, false);
                step(&mut new, &mut oracle, now, flow, true, false, false);
            }
            peak_runs = peak_runs.max(new.expiry.run_count());
            if ports.len().is_multiple_of(16) {
                new.sweep(now);
                oracle.sweep(now);
                assert_same_state(&new, &oracle, &format!("teardown at {now:?}"));
            }
        }
        assert!((2..=3).contains(&peak_runs), "the expiry queue peaked at {peak_runs} runs");
        now += TCP_FIN_LINGER;
        new.sweep(now);
        oracle.sweep(now);
        assert_same_state(&new, &oracle, "after the lingers ran out");
        assert!(new.bindings().is_empty());
        assert_eq!(new.stats().bindings_expired, 256);
        // The stale entries of re-timed bindings leave as their deadlines pass.
        new.sweep(now + p.tcp_timeout + Duration::from_secs(1));
        assert_eq!((new.expiry.len(), new.expiry.run_count()), (0, 0));
    }

    /// 1 024 TCP bindings each refreshed into a new deadline (the 2 h idle
    /// timeout on a 1 s timer) every virtual second for 4 virtual hours:
    /// every refresh leaves a stale entry, and the queue must still stay
    /// within `2 · live + 64` entries throughout.
    #[test]
    fn refreshed_bindings_keep_the_expiry_queue_bounded_by_live_state() {
        let p = GatewayPolicy { max_bindings: 1_024, ..GatewayPolicy::well_behaved() };
        let mut nat = NatTable::new();
        let server = (Ipv4Addr::new(10, 0, 1, 1), 80);
        let flows: Vec<Endpoint> =
            (0..1_024u16).map(|i| (Ipv4Addr::new(192, 168, 1, 100), 10_000 + i)).collect();
        let mut peak = 0;
        for second in 1..=4 * 3_600 {
            let now = Instant::from_secs(second);
            nat.sweep(now);
            for &internal in &flows {
                let v = nat.outbound(now, &p, NatProto::Tcp, internal, server, false, false);
                assert!(matches!(v, OutboundVerdict::Translated { .. }));
                let (queued, live) = (nat.expiry.len(), nat.bindings().len());
                assert!(
                    queued <= 2 * live + 64,
                    "{queued} entries for {live} bindings at {second} s"
                );
                peak = peak.max(queued);
            }
        }
        assert_eq!(nat.bindings().len(), 1_024);
        assert_eq!(nat.stats().bindings_expired, 0);
        assert!(peak > 1_024 + 64, "the refreshes never left a stale entry");
    }

    #[test]
    fn indexed_table_matches_linear_reference_across_policies() {
        let mut seed = 0xDA7A_5EED;
        for mapping in MAPPINGS {
            for assignment in ASSIGNMENTS {
                for filtering in FILTERINGS {
                    let mut p = GatewayPolicy::well_behaved();
                    p.mapping = mapping;
                    p.filtering = filtering;
                    p.port_assignment = assignment;
                    p.max_bindings = 24; // small enough to hit capacity
                    seed += 1;
                    drive(&p, seed);
                }
            }
        }
    }

    #[test]
    fn indexed_table_matches_linear_reference_with_coarse_timer() {
        let mut seed = 0xC0A5_0E00;
        for mapping in MAPPINGS {
            for assignment in ASSIGNMENTS {
                let mut p = GatewayPolicy::well_behaved();
                p.mapping = mapping;
                p.filtering = EndpointScope::AddressDependent;
                p.port_assignment = assignment;
                p.timer_granularity = Duration::from_secs(60);
                p.max_bindings = 24;
                seed += 1;
                drive(&p, seed);
            }
        }
    }
}
