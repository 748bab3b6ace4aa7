//! The discrete-event simulator that drives the whole testbed.
//!
//! The design follows the smoltcp philosophy: a single-threaded, poll-style
//! engine with explicit time. All concurrency in the experiments (hosts and
//! gateways acting "simultaneously") is interleaving of events on the
//! virtual clock, which makes every run bit-for-bit reproducible from its
//! seed.
//!
//! The engine is generic over its node slot type ([`SimCore<K>`], bounded by
//! [`SimNode`]): a closed enum slot dispatches
//! statically by match, while the [`Simulator`] alias keeps the historical
//! `Box<dyn Node>` slots (dynamic dispatch). Node bookkeeping is
//! a split slab — the node values in one `Vec`, their per-node engine state
//! (RNG stream, port wiring) in a parallel `Vec` — so a node callback
//! borrows `nodes[i]` while the [`NodeCtx`] borrows disjoint fields, and no
//! take/restore `Option` dance is needed anywhere in the event loop.

use crate::dispatch::SimNode;
use crate::link::{Dir, Link, LinkConfig, LinkId};
use crate::node::{Action, Node, NodeCtx, NodeId, PortId, TimerToken};
use crate::pool::FramePool;
use crate::recycle::Cleared;
use crate::rng::SimRng;
use crate::telemetry::Telemetry;
use crate::time::{Duration, Instant};
use crate::trace::{DropCounts, DropReason, SimObserver, TraceEvent};
use crate::wheel::TimerWheel;

/// What an event does when it is dispatched.
///
/// Frame-carrying events also carry the instant the frame entered its link
/// queue (`enqueued_at`), which is what telemetry uses to attribute
/// one-way delay. The timestamp rides along even when telemetry is off —
/// a `Copy` field is cheaper than a second event shape — and never
/// influences scheduling.
///
/// Node/port/link ids are stored as `u32` (not the public `usize` newtypes)
/// so the enum packs to 48 bytes and a wheel entry — `(at, seq, kind)` —
/// fits exactly one 64-byte cache line. Every insert, pop, and cascade of
/// the event queue moves one line instead of two. Ids are converted at the
/// push/dispatch boundary; simulations with more than 4 billion nodes or
/// links are not a thing this engine supports.
#[derive(Debug)]
enum EventKind {
    /// Deliver a frame to a node port.
    Deliver { node: u32, port: u32, frame: Vec<u8>, enqueued_at: Instant },
    /// The transmitter of a link direction finished clocking out a frame.
    TxComplete { link: u32, dir: Dir, frame: Vec<u8>, enqueued_at: Instant },
    /// A node timer fired.
    Timer { node: u32, token: TimerToken },
}

/// Per-node engine state, stored apart from the node value itself so the
/// event loop can hand a callback `&mut nodes[i]` and a [`NodeCtx`] built
/// from `meta[i]`/`pool`/`telemetry` simultaneously — the borrows are of
/// disjoint struct fields, which the borrow checker accepts by construction.
struct NodeMeta {
    rng: SimRng,
    /// Port → (link, direction frames *leave* on).
    ports: Vec<Option<(LinkId, Dir)>>,
}

/// Aggregate simulator statistics.
///
/// ```
/// use hgw_core::{Simulator, DropReason};
///
/// let sim = Simulator::new(1);
/// let stats = sim.stats();
/// assert_eq!(stats.events, 0);
/// assert_eq!(stats.frames_dropped.by(DropReason::QueueOverflow), 0);
/// ```
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SimStats {
    /// Events dispatched so far.
    pub events: u64,
    /// Frames emitted on ports with no link attached.
    pub unrouted_frames: u64,
    /// Frames delivered to node ports.
    pub frames_delivered: u64,
    /// [`TraceEvent`]s emitted, whether or not an observer is attached.
    pub trace_events: u64,
    /// Frames dropped anywhere in the stack, by reason. Link-level reasons
    /// are counted by the simulator itself; node-level reasons (NAT,
    /// checksum, TTL, …) arrive via [`Action::Trace`](crate::node::Action).
    pub frames_dropped: DropCounts,
    /// High-water mark of bytes queued on any single link direction.
    pub peak_queue_bytes: usize,
    /// Frame-buffer requests served from the recycling pool. Purely an
    /// allocator-pressure metric: it never influences simulation behavior.
    /// Deterministic for a given seed and topology on a fresh pool; when a
    /// fleet worker builds a device into the simulator of a previous one
    /// ([`SimCore::reset`] keeps the pool's buffers), the hit/miss split
    /// also depends on what ran before, so fleet equivalence checks must
    /// compare event-sequence counters, not pool counters.
    pub pool_hits: u64,
    /// Frame-buffer requests that had to allocate because the pool was
    /// empty. `pool_hits + pool_misses` is the total number of pooled
    /// buffer requests.
    pub pool_misses: u64,
}

/// The discrete-event simulator: owns the clock, the event queue, all nodes
/// and all links.
///
/// Generic over the node slot type `K`. A closed enum slot (the testbed's
/// `NodeKind`) makes every callback a static match dispatch; the
/// [`Simulator`] alias (`K = Box<dyn Node>`) keeps the dynamic path. Both
/// produce bit-identical event streams for the same seed and topology — `K`
/// only decides how the three `SimNode` callbacks are reached, never what
/// they observe (the root test `tests/dispatch_oracle.rs` checks it on
/// whole testbeds).
pub struct SimCore<K> {
    now: Instant,
    seq: u64,
    /// Pending events ordered by `(at, seq)`. The hierarchical timing
    /// wheel replaced a `BinaryHeap<Reverse<Event>>` with an identical
    /// pop order (proven against the heap oracle in `wheel::tests`).
    queue: TimerWheel<EventKind>,
    /// Node values, indexed by [`NodeId`]. Split from `meta` so a node
    /// borrow and a [`NodeCtx`] borrow are disjoint by construction.
    nodes: Vec<K>,
    /// Per-node engine state, parallel to `nodes`.
    meta: Vec<NodeMeta>,
    links: Vec<Link>,
    root_rng: SimRng,
    stats: SimStats,
    pool: FramePool,
    booted: bool,
    observer: Option<Box<dyn SimObserver>>,
    /// Present iff telemetry is enabled. Boxed so the disabled path costs
    /// one null check per instrumentation site and the hot `SimCore`
    /// layout stays small.
    telemetry: Option<Box<Telemetry>>,
    /// Reused across every node callback so the steady-state event loop
    /// allocates no action buffers. Taken (leaving an empty `Vec`) while a
    /// callback runs, drained by `apply_actions`, then put back.
    scratch_actions: Vec<Action>,
    /// Port tables and links of a previous topology, emptied by
    /// [`SimCore::reset`] and handed out again by `add_node`/`connect`.
    spare_ports: Vec<Vec<Option<(LinkId, Dir)>>>,
    spare_links: Vec<Link>,
}

/// An empty simulator seeded with 0 — the storage [`SimCore::reset`]
/// builds on when there is no previous simulator to reuse.
impl<K: SimNode> Default for SimCore<K> {
    fn default() -> SimCore<K> {
        SimCore::new(0)
    }
}

/// The boxed-slot simulator: dynamic dispatch through `Box<dyn Node>`,
/// exactly the engine as it was before static dispatch existed. Kept for
/// the core tests, the boxed-dispatch microbench and drivers that box
/// heterogeneous ad-hoc nodes.
pub type Simulator = SimCore<Box<dyn Node>>;

impl<K: SimNode> SimCore<K> {
    /// Creates an empty simulator. `seed` determines every random draw any
    /// node will ever make.
    pub fn new(seed: u64) -> SimCore<K> {
        SimCore {
            now: Instant::ZERO,
            seq: 0,
            queue: TimerWheel::new(),
            nodes: Vec::new(),
            meta: Vec::new(),
            links: Vec::new(),
            root_rng: SimRng::new(seed),
            stats: SimStats::default(),
            pool: FramePool::new(),
            booted: false,
            observer: None,
            telemetry: None,
            scratch_actions: Vec::new(),
            spare_ports: Vec::new(),
            spare_links: Vec::new(),
        }
    }

    /// Empties the simulator into the state `SimCore::new(seed)` returns,
    /// keeping only the capacity of its containers: the event wheel and its
    /// levels, the node and link slabs, the port tables, link queues and
    /// the frame pool's buffers. Every logical field — clock, `seq`, RNG
    /// root, stats, pool counters, observer, telemetry — comes from `new`,
    /// so a topology rebuilt on a reset simulator replays exactly as on a
    /// fresh one. The old nodes are handed to `retire`, in id order, so
    /// the caller can recycle their own containers.
    pub fn reset(&mut self, seed: u64, mut retire: impl FnMut(K)) {
        let mut old = std::mem::replace(self, SimCore::new(seed));
        old.nodes.drain(..).for_each(&mut retire);
        self.nodes = old.nodes;
        self.spare_ports = old.spare_ports;
        self.spare_ports.extend(old.meta.drain(..).map(|mut m| {
            m.ports.clear();
            m.ports
        }));
        self.meta = old.meta;
        self.spare_links = old.spare_links;
        self.spare_links.append(&mut old.links);
        self.links = old.links;
        self.queue = old.queue.cleared();
        self.pool = old.pool.recycled();
        self.scratch_actions = old.scratch_actions.cleared();
    }

    /// The current simulated time.
    pub fn now(&self) -> Instant {
        self.now
    }

    /// Aggregate statistics.
    pub fn stats(&self) -> SimStats {
        let mut stats = self.stats;
        stats.pool_hits = self.pool.hits();
        stats.pool_misses = self.pool.misses();
        stats
    }

    /// Drains the frame pool's retained buffers into `into` (the
    /// allocation tests read what a probe left in the pool this way).
    /// Hit/miss counters stay behind with the simulator.
    pub fn drain_frame_pool(&mut self, into: &mut FramePool) {
        into.absorb(&mut self.pool);
    }

    /// Attaches an observer that receives every [`TraceEvent`]. Replaces any
    /// previously attached observer. Observers are pure sinks: attaching one
    /// never changes simulation behavior or statistics.
    pub fn attach_observer(&mut self, observer: Box<dyn SimObserver>) {
        self.observer = Some(observer);
    }

    /// Detaches and returns the current observer, if any.
    pub fn detach_observer(&mut self) -> Option<Box<dyn SimObserver>> {
        self.observer.take()
    }

    /// Enables telemetry: from here on the simulator records per-packet
    /// one-way delay and link queue residency into histograms, feeds the
    /// flight recorder, and hands nodes access to the
    /// [`Telemetry`] instance through their [`NodeCtx`]. Telemetry is a
    /// pure sink — enabling it never changes behavior or statistics.
    /// Replaces any previous instance.
    pub fn enable_telemetry(&mut self) {
        self.telemetry = Some(Box::new(Telemetry::new()));
    }

    /// Shared access to the telemetry instance, if enabled.
    pub fn telemetry(&self) -> Option<&Telemetry> {
        self.telemetry.as_deref()
    }

    /// Exclusive access to the telemetry instance, if enabled. Drivers use
    /// this to open experiment spans and read histograms mid-run.
    pub fn telemetry_mut(&mut self) -> Option<&mut Telemetry> {
        self.telemetry.as_deref_mut()
    }

    /// Removes and returns the telemetry instance (disabling further
    /// recording), typically at harvest time.
    pub fn take_telemetry(&mut self) -> Option<Box<Telemetry>> {
        self.telemetry.take()
    }

    /// Updates aggregate statistics for `event` and forwards it to the
    /// flight recorder and the attached observer. The stats update happens
    /// whether or not anything observes, so measurements never depend on
    /// observation.
    fn emit(&mut self, node: NodeId, event: TraceEvent) {
        self.stats.trace_events += 1;
        match &event {
            TraceEvent::FrameDropped { reason, .. } => self.stats.frames_dropped.add(*reason),
            TraceEvent::FrameDelivered { .. } => self.stats.frames_delivered += 1,
            // Binding events are counted where they happen, in the NAT table.
            TraceEvent::BindingCreated { .. } | TraceEvent::Binding { .. } => {}
        }
        if let Some(t) = &mut self.telemetry {
            t.flight.record_event(self.now, node, event.clone());
        }
        if let Some(obs) = &mut self.observer {
            obs.on_event(self.now, node, &event);
        }
    }

    /// Adds a node and returns its id. Each node gets an independent RNG
    /// stream forked from the simulator seed.
    pub fn add_node(&mut self, node: K) -> NodeId {
        let id = NodeId(self.nodes.len());
        let rng = self.root_rng.fork(id.0 as u64 + 1);
        self.nodes.push(node);
        let ports = self.spare_ports.pop().unwrap_or_default();
        self.meta.push(NodeMeta { rng, ports });
        id
    }

    /// Connects `a`'s port `ap` to `b`'s port `bp` with a new link.
    ///
    /// # Panics
    /// Panics if either port is already connected or either node id is
    /// unknown — topology errors are programming bugs, not runtime
    /// conditions.
    pub fn connect(
        &mut self,
        a: NodeId,
        ap: PortId,
        b: NodeId,
        bp: PortId,
        config: LinkConfig,
    ) -> LinkId {
        let id = LinkId(self.links.len());
        let link = match self.spare_links.pop() {
            Some(mut link) => {
                link.renew(config, (a, ap), (b, bp));
                link
            }
            None => Link::new(config, (a, ap), (b, bp)),
        };
        self.links.push(link);
        self.bind_port(a, ap, id, Dir::AtoB);
        self.bind_port(b, bp, id, Dir::BtoA);
        id
    }

    fn bind_port(&mut self, node: NodeId, port: PortId, link: LinkId, dir: Dir) {
        let meta = self.meta.get_mut(node.0).expect("connect: unknown node");
        if meta.ports.len() <= port.0 {
            meta.ports.resize(port.0 + 1, None);
        }
        assert!(
            meta.ports[port.0].is_none(),
            "connect: port {:?} of {:?} already wired",
            port,
            node
        );
        meta.ports[port.0] = Some((link, dir));
    }

    /// Read access to a link (for stats and traces).
    pub fn link(&self, id: LinkId) -> &Link {
        &self.links[id.0]
    }

    /// Mutable access to a link; used to reconfigure faults mid-run.
    pub fn link_config_mut(&mut self, id: LinkId) -> &mut LinkConfig {
        &mut self.links[id.0].config
    }

    /// Enables frame capture on one direction of a link.
    pub fn enable_trace(&mut self, id: LinkId, dir: Dir) {
        self.links[id.0].trace[dir.index()].get_or_insert_with(|| Vec::with_capacity(128));
    }

    /// Takes (drains) the captured frames on one direction of a link.
    pub fn take_trace(&mut self, id: LinkId, dir: Dir) -> Vec<(Instant, Vec<u8>)> {
        match &mut self.links[id.0].trace[dir.index()] {
            Some(buf) => std::mem::take(buf),
            None => Vec::new(),
        }
    }

    /// Typed shared access to a node.
    ///
    /// # Panics
    /// Panics if the id is unknown or the node is not a `T`.
    pub fn node_ref<T: Node>(&self, id: NodeId) -> &T {
        self.nodes[id.0].as_any().downcast_ref::<T>().expect("node_ref: wrong node type")
    }

    /// Typed exclusive access to a node. Any actions the caller queues on
    /// the node itself are *not* collected — drivers should instead interact
    /// through node-provided command APIs and let the next event flush state,
    /// or use [`SimCore::with_node`].
    pub fn node_mut<T: Node>(&mut self, id: NodeId) -> &mut T {
        self.nodes[id.0].as_any_mut().downcast_mut::<T>().expect("node_mut: wrong node type")
    }

    /// Runs `f` against a node with a full [`NodeCtx`], applying any actions
    /// the node emits. This is how experiment drivers inject work ("send a
    /// probe packet now") into a node from outside the event loop.
    pub fn with_node<T: Node, R>(
        &mut self,
        id: NodeId,
        f: impl FnOnce(&mut T, &mut NodeCtx) -> R,
    ) -> R {
        let mut actions = std::mem::take(&mut self.scratch_actions);
        let result = {
            let mut ctx = NodeCtx::new(
                self.now,
                id,
                &mut self.meta[id.0].rng,
                &mut self.pool,
                &mut actions,
                self.telemetry.as_deref_mut(),
            );
            let typed = self.nodes[id.0]
                .as_any_mut()
                .downcast_mut::<T>()
                .expect("with_node: wrong node type");
            f(typed, &mut ctx)
        };
        self.apply_actions(id, &mut actions);
        self.scratch_actions = actions;
        result
    }

    /// Calls [`Node::start`] on every node. Must be called exactly once,
    /// after the topology is wired and before the first run.
    pub fn boot(&mut self) {
        assert!(!self.booted, "boot: called twice");
        self.booted = true;
        let mut actions = std::mem::take(&mut self.scratch_actions);
        for i in 0..self.nodes.len() {
            let id = NodeId(i);
            {
                let mut ctx = NodeCtx::new(
                    self.now,
                    id,
                    &mut self.meta[i].rng,
                    &mut self.pool,
                    &mut actions,
                    self.telemetry.as_deref_mut(),
                );
                self.nodes[i].start(&mut ctx);
            }
            self.apply_actions(id, &mut actions);
        }
        self.scratch_actions = actions;
    }

    #[inline]
    fn push_event(&mut self, at: Instant, kind: EventKind) {
        let seq = self.seq;
        self.seq += 1;
        self.queue.insert(at.as_nanos(), seq, kind);
    }

    /// Applies (and drains) the actions a node emitted during a callback.
    #[inline]
    fn apply_actions(&mut self, node: NodeId, actions: &mut Vec<Action>) {
        for action in actions.drain(..) {
            match action {
                Action::SendFrame { port, frame } => self.transmit(node, port, frame),
                Action::SetTimer { at, token } => {
                    let at = at.max(self.now);
                    self.push_event(at, EventKind::Timer { node: node.0 as u32, token });
                }
                Action::Trace(event) => self.emit(node, event),
            }
        }
    }

    /// Entry point of a frame onto a link: fault injection, tail drop,
    /// transmitter scheduling.
    fn transmit(&mut self, node: NodeId, port: PortId, mut frame: Vec<u8>) {
        let Some(&Some((link_id, dir))) = self.meta[node.0].ports.get(port.0) else {
            self.stats.unrouted_frames += 1;
            self.emit(
                node,
                TraceEvent::FrameDropped { reason: DropReason::Unrouted, bytes: frame.len() },
            );
            self.pool.put(frame);
            return;
        };
        let (drop, corrupt, duplicate) = {
            let fault = self.links[link_id.0].config.fault;
            if fault.is_none() {
                (false, false, false)
            } else {
                let rng = &mut self.meta[node.0].rng;
                (
                    rng.chance(fault.drop_chance),
                    rng.chance(fault.corrupt_chance),
                    rng.chance(fault.duplicate_chance),
                )
            }
        };
        let link = &mut self.links[link_id.0];
        if drop {
            link.dirs[dir.index()].stats.drops_fault += 1;
            let bytes = frame.len();
            self.emit(node, TraceEvent::FrameDropped { reason: DropReason::FaultInjection, bytes });
            self.pool.put(frame);
            return;
        }
        if corrupt && !frame.is_empty() {
            let rng = &mut self.meta[node.0].rng;
            let idx = rng.below(frame.len() as u64) as usize;
            let bit = 1u8 << rng.below(8);
            frame[idx] ^= bit;
            link.dirs[dir.index()].stats.corrupted += 1;
        }
        if duplicate {
            link.dirs[dir.index()].stats.duplicated += 1;
            // Build the duplicate in a pooled buffer instead of a fresh clone.
            let mut dup = self.pool.get(frame.len());
            dup.extend_from_slice(&frame);
            self.enqueue_on_link(node, link_id, dir, dup);
        }
        self.enqueue_on_link(node, link_id, dir, frame);
    }

    fn enqueue_on_link(&mut self, src: NodeId, link_id: LinkId, dir: Dir, frame: Vec<u8>) {
        let cap = self.links[link_id.0].config.queue_bytes;
        let bytes = frame.len();
        if let Err(frame) = self.links[link_id.0].dirs[dir.index()].enqueue(frame, cap, self.now) {
            self.emit(src, TraceEvent::FrameDropped { reason: DropReason::QueueOverflow, bytes });
            self.pool.put(frame);
            return;
        }
        let queued = self.links[link_id.0].dirs[dir.index()].queued_bytes();
        self.stats.peak_queue_bytes = self.stats.peak_queue_bytes.max(queued);
        if !self.links[link_id.0].dirs[dir.index()].is_transmitting() {
            self.start_transmitter(link_id, dir);
        }
    }

    /// Pops the head frame and schedules its TxComplete.
    fn start_transmitter(&mut self, link_id: LinkId, dir: Dir) {
        let link = &mut self.links[link_id.0];
        let Some((frame, enqueued_at)) = link.dirs[dir.index()].pop() else {
            link.dirs[dir.index()].set_transmitting(false);
            return;
        };
        if let Some(t) = &mut self.telemetry {
            t.queue_residency.record_duration(self.now - enqueued_at);
        }
        link.dirs[dir.index()].set_transmitting(true);
        let tx_end = self.now + link.tx_time(frame.len());
        self.push_event(
            tx_end,
            EventKind::TxComplete { link: link_id.0 as u32, dir, frame, enqueued_at },
        );
    }

    /// Dispatches the next event — plus, for frame deliveries, every
    /// immediately following event that delivers to the same node at the
    /// same instant (a bulk transfer produces long same-timestamp,
    /// same-link trains; batching amortizes the scratch bookkeeping across
    /// the burst). Every dispatched event still counts individually in
    /// [`SimStats::events`] and emits its own trace and telemetry, so
    /// batching is observationally identical to stepping. Returns the time
    /// the event(s) ran at, or `None` if the queue is empty.
    pub fn step(&mut self) -> Option<Instant> {
        let (at, _seq, kind) = self.queue.pop()?;
        let at = Instant::from_nanos(at);
        debug_assert!(at >= self.now, "event queue went backwards");
        self.now = at;
        self.stats.events += 1;
        // Each arm lives in its own function so every dispatch pays only
        // the frame of the arm it takes; a merged body makes the compiler
        // allocate (and spill across) the union of all three arms' frames
        // on every event, which is measurable at the sub-25 ns scale.
        match kind {
            EventKind::Deliver { node, port, frame, enqueued_at } => {
                self.dispatch_deliver(node, port, frame, enqueued_at);
            }
            EventKind::TxComplete { link, dir, frame, enqueued_at } => {
                self.dispatch_tx_complete(LinkId(link as usize), dir, frame, enqueued_at);
            }
            EventKind::Timer { node, token } => self.dispatch_timer(node, token),
        }
        Some(self.now)
    }

    /// The `Deliver` arm of [`SimCore::step`]: runs the node callback for
    /// this frame plus every immediately following same-instant delivery to
    /// the same node (see the `step` docs for why batching is sound).
    #[inline(never)]
    fn dispatch_deliver(&mut self, node: u32, port: u32, frame: Vec<u8>, enqueued_at: Instant) {
        let id = NodeId(node as usize);
        if node as usize >= self.nodes.len() {
            self.emit(id, TraceEvent::FrameDelivered { bytes: frame.len() });
            return;
        }
        let mut actions = std::mem::take(&mut self.scratch_actions);
        let (mut port, mut frame, mut enqueued_at) = (port, frame, enqueued_at);
        loop {
            if let Some(t) = &mut self.telemetry {
                t.one_way_delay.record_duration(self.now - enqueued_at);
                t.flight.record_frame(self.now, &frame);
            }
            self.emit(id, TraceEvent::FrameDelivered { bytes: frame.len() });
            {
                // `nodes[i]` and the ctx's `meta[i]`/`pool`/
                // `telemetry` are disjoint fields: no take/restore.
                let mut ctx = NodeCtx::new(
                    self.now,
                    id,
                    &mut self.meta[node as usize].rng,
                    &mut self.pool,
                    &mut actions,
                    self.telemetry.as_deref_mut(),
                );
                self.nodes[node as usize].handle_frame(&mut ctx, PortId(port as usize), &mut frame);
            }
            // Whatever the node left in place goes back to the pool.
            self.pool.put(frame);
            self.apply_actions(id, &mut actions);
            // Drain the rest of a same-instant delivery train to
            // this node. Events pushed by `apply_actions` above
            // carry larger seqs than anything already queued, so
            // this cannot overtake an older pending event.
            let next = self.queue.pop_if(|t, _, kind| {
                t == self.now.as_nanos()
                    && matches!(kind, EventKind::Deliver { node: n, .. } if *n == node)
            });
            match next {
                Some((_, _, EventKind::Deliver { port: p, frame: f, enqueued_at: e, .. })) => {
                    self.stats.events += 1;
                    (port, frame, enqueued_at) = (p, f, e);
                }
                Some(_) => unreachable!("pop_if matched a non-Deliver event"),
                None => break,
            }
        }
        self.scratch_actions = actions;
    }

    /// The `TxComplete` arm of [`SimCore::step`]: accounts the transmit,
    /// schedules the delivery after the propagation delay, and starts the
    /// next frame in the link queue.
    #[inline(never)]
    fn dispatch_tx_complete(
        &mut self,
        link: LinkId,
        dir: Dir,
        frame: Vec<u8>,
        enqueued_at: Instant,
    ) {
        let (sink_node, sink_port) = self.links[link.0].sink(dir);
        let (delay, reorder_extra) = {
            let l = &self.links[link.0];
            let fault = l.config.fault;
            let extra = if fault.reorder_chance > 0.0 {
                // Use the sink node's RNG stream for determinism.
                let rng = &mut self.meta[sink_node.0].rng;
                if rng.chance(fault.reorder_chance) {
                    Duration::from_nanos(rng.below(fault.reorder_window.as_nanos().max(1)))
                } else {
                    Duration::ZERO
                }
            } else {
                Duration::ZERO
            };
            (l.config.delay, extra)
        };
        {
            // Trace captures copy into pooled buffers so enabling a
            // trace does not reintroduce per-frame allocations.
            let traced = if self.links[link.0].trace[dir.index()].is_some() {
                let mut copy = self.pool.get(frame.len());
                copy.extend_from_slice(&frame);
                Some(copy)
            } else {
                None
            };
            let l = &mut self.links[link.0];
            let d = &mut l.dirs[dir.index()];
            d.stats.tx_frames += 1;
            d.stats.tx_bytes += frame.len() as u64;
            if let Some(copy) = traced {
                l.trace[dir.index()].as_mut().expect("trace enabled").push((self.now, copy));
            }
        }
        self.push_event(
            self.now + delay + reorder_extra,
            EventKind::Deliver {
                node: sink_node.0 as u32,
                port: sink_port.0 as u32,
                frame,
                enqueued_at,
            },
        );
        self.start_transmitter(link, dir);
    }

    /// The `Timer` arm of [`SimCore::step`]: runs the node's timer callback.
    #[inline(never)]
    fn dispatch_timer(&mut self, node: u32, token: TimerToken) {
        // One bounds check covers both slabs: `nodes` and `meta` grow in
        // lockstep (see `add_node`).
        let (Some(slot), Some(meta)) =
            (self.nodes.get_mut(node as usize), self.meta.get_mut(node as usize))
        else {
            return;
        };
        let id = NodeId(node as usize);
        let mut actions = std::mem::take(&mut self.scratch_actions);
        {
            let mut ctx = NodeCtx::new(
                self.now,
                id,
                &mut meta.rng,
                &mut self.pool,
                &mut actions,
                self.telemetry.as_deref_mut(),
            );
            slot.handle_timer(&mut ctx, token);
        }
        self.apply_actions(id, &mut actions);
        self.scratch_actions = actions;
    }

    /// Runs events until the clock reaches `deadline`. Events at exactly
    /// `deadline` are *not* dispatched; the clock is left at `deadline`.
    pub fn run_until(&mut self, deadline: Instant) {
        while let Some((at, _)) = self.queue.peek() {
            if at >= deadline.as_nanos() {
                break;
            }
            self.step();
        }
        if deadline > self.now {
            self.now = deadline;
        }
    }

    /// Runs for `d` of simulated time from now.
    pub fn run_for(&mut self, d: Duration) {
        let deadline = self.now.saturating_add(d);
        self.run_until(deadline);
    }

    /// Runs until the event queue is empty or at least `max_events` more
    /// events have been dispatched. Returns the number of events
    /// dispatched; a batched delivery train at the limit may overshoot
    /// `max_events` by the length of its tail.
    pub fn run_until_idle(&mut self, max_events: u64) -> u64 {
        let start = self.stats.events;
        while self.stats.events - start < max_events && self.step().is_some() {}
        self.stats.events - start
    }

    /// True if no events are pending.
    pub fn is_idle(&self) -> bool {
        self.queue.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::impl_node_downcast;
    use crate::link::FaultConfig;

    /// Echoes every received frame back out the same port after a fixed
    /// delay, and counts arrivals.
    struct Echo {
        delay: Duration,
        received: Vec<(Instant, Vec<u8>)>,
        echo: bool,
    }

    impl Echo {
        fn new(echo: bool) -> Echo {
            Echo { delay: Duration::from_millis(1), received: Vec::new(), echo }
        }
    }

    impl Node for Echo {
        fn handle_frame(&mut self, ctx: &mut NodeCtx, port: PortId, frame: &mut Vec<u8>) {
            self.received.push((ctx.now(), frame.clone()));
            if self.echo {
                ctx.set_timer_after(self.delay, TimerToken(0));
                // Store frame for echo via timer? Keep it simple: echo now.
                ctx.send_frame(port, std::mem::take(frame));
            }
        }
        fn handle_timer(&mut self, _: &mut NodeCtx, _: TimerToken) {}
        impl_node_downcast!();
    }

    fn two_node_sim(cfg: LinkConfig) -> (Simulator, NodeId, NodeId) {
        let mut sim = Simulator::new(1);
        let a = sim.add_node(Box::new(Echo::new(false)));
        let b = sim.add_node(Box::new(Echo::new(false)));
        sim.connect(a, PortId(0), b, PortId(0), cfg);
        sim.boot();
        (sim, a, b)
    }

    #[test]
    fn frame_arrives_after_serialization_plus_propagation() {
        let cfg = LinkConfig {
            rate_bps: 100_000_000,
            delay: Duration::from_micros(50),
            queue_bytes: usize::MAX,
            fault: FaultConfig::NONE,
        };
        let (mut sim, a, b) = two_node_sim(cfg);
        sim.with_node::<Echo, _>(a, |_, ctx| ctx.send_frame(PortId(0), vec![0u8; 1500]));
        sim.run_until_idle(100);
        let rx = &sim.node_ref::<Echo>(b).received;
        assert_eq!(rx.len(), 1);
        // 120 us serialization + 50 us propagation.
        assert_eq!(rx[0].0, Instant::from_micros(170));
    }

    #[test]
    fn fifo_order_is_preserved() {
        let (mut sim, a, b) = two_node_sim(LinkConfig::ethernet_100m());
        sim.with_node::<Echo, _>(a, |_, ctx| {
            for i in 0..10u8 {
                ctx.send_frame(PortId(0), vec![i; 100]);
            }
        });
        sim.run_until_idle(1000);
        let rx = &sim.node_ref::<Echo>(b).received;
        let order: Vec<u8> = rx.iter().map(|(_, f)| f[0]).collect();
        assert_eq!(order, (0..10).collect::<Vec<u8>>());
    }

    #[test]
    fn queue_overflow_tail_drops() {
        let cfg = LinkConfig {
            rate_bps: 1_000_000, // slow: 1 Mb/s
            delay: Duration::ZERO,
            queue_bytes: 3000,
            fault: FaultConfig::NONE,
        };
        let (mut sim, a, b) = two_node_sim(cfg);
        sim.with_node::<Echo, _>(a, |_, ctx| {
            for _ in 0..10 {
                ctx.send_frame(PortId(0), vec![0u8; 1000]);
            }
        });
        sim.run_until_idle(1000);
        // One frame goes straight to the transmitter; three fit the queue.
        let rx_count = sim.node_ref::<Echo>(b).received.len();
        assert_eq!(rx_count, 4);
        let link = sim.link(LinkId(0));
        assert_eq!(link.stats(Dir::AtoB).drops_queue, 6);
    }

    #[test]
    fn queuing_delay_emerges_from_backlog() {
        // 10 frames of 1250 bytes at 1 Mb/s: each takes 10 ms to serialize.
        let cfg = LinkConfig {
            rate_bps: 1_000_000,
            delay: Duration::ZERO,
            queue_bytes: usize::MAX,
            fault: FaultConfig::NONE,
        };
        let (mut sim, a, b) = two_node_sim(cfg);
        sim.with_node::<Echo, _>(a, |_, ctx| {
            for _ in 0..10 {
                ctx.send_frame(PortId(0), vec![0u8; 1250]);
            }
        });
        sim.run_until_idle(1000);
        let rx = &sim.node_ref::<Echo>(b).received;
        assert_eq!(rx.len(), 10);
        assert_eq!(rx[0].0, Instant::from_millis(10));
        assert_eq!(rx[9].0, Instant::from_millis(100));
    }

    #[test]
    fn timers_fire_in_order_at_exact_times() {
        let mut sim = Simulator::new(1);
        struct TimerLog {
            fired: Vec<(Instant, u64)>,
        }
        impl Node for TimerLog {
            fn start(&mut self, ctx: &mut NodeCtx) {
                ctx.set_timer_at(Instant::from_secs(3), TimerToken(3));
                ctx.set_timer_at(Instant::from_secs(1), TimerToken(1));
                ctx.set_timer_at(Instant::from_secs(2), TimerToken(2));
            }
            fn handle_frame(&mut self, _: &mut NodeCtx, _: PortId, _: &mut Vec<u8>) {}
            fn handle_timer(&mut self, ctx: &mut NodeCtx, token: TimerToken) {
                self.fired.push((ctx.now(), token.0));
            }
            impl_node_downcast!();
        }
        let id = sim.add_node(Box::new(TimerLog { fired: Vec::new() }));
        sim.boot();
        sim.run_until_idle(100);
        let fired = &sim.node_ref::<TimerLog>(id).fired;
        assert_eq!(
            fired,
            &vec![
                (Instant::from_secs(1), 1),
                (Instant::from_secs(2), 2),
                (Instant::from_secs(3), 3)
            ]
        );
    }

    #[test]
    fn drop_fault_drops_everything_at_p1() {
        let cfg = LinkConfig {
            fault: FaultConfig { drop_chance: 1.0, ..FaultConfig::NONE },
            ..LinkConfig::ethernet_100m()
        };
        let (mut sim, a, b) = two_node_sim(cfg);
        sim.with_node::<Echo, _>(a, |_, ctx| ctx.send_frame(PortId(0), vec![1, 2, 3]));
        sim.run_until_idle(100);
        assert!(sim.node_ref::<Echo>(b).received.is_empty());
        assert_eq!(sim.link(LinkId(0)).stats(Dir::AtoB).drops_fault, 1);
    }

    #[test]
    fn corrupt_fault_flips_exactly_one_bit() {
        let cfg = LinkConfig {
            fault: FaultConfig { corrupt_chance: 1.0, ..FaultConfig::NONE },
            ..LinkConfig::ethernet_100m()
        };
        let (mut sim, a, b) = two_node_sim(cfg);
        let original = vec![0u8; 64];
        let sent = original.clone();
        sim.with_node::<Echo, _>(a, move |_, ctx| ctx.send_frame(PortId(0), sent));
        sim.run_until_idle(100);
        let rx = &sim.node_ref::<Echo>(b).received;
        assert_eq!(rx.len(), 1);
        let diff_bits: u32 = rx[0].1.iter().zip(&original).map(|(a, b)| (a ^ b).count_ones()).sum();
        assert_eq!(diff_bits, 1);
    }

    #[test]
    fn run_until_advances_clock_without_events() {
        let mut sim = Simulator::new(1);
        sim.boot();
        sim.run_until(Instant::from_secs(100));
        assert_eq!(sim.now(), Instant::from_secs(100));
        assert!(sim.is_idle());
    }

    #[test]
    fn trace_captures_frames() {
        let (mut sim, a, _b) = two_node_sim(LinkConfig::ethernet_100m());
        sim.enable_trace(LinkId(0), Dir::AtoB);
        sim.with_node::<Echo, _>(a, |_, ctx| ctx.send_frame(PortId(0), vec![9, 9]));
        sim.run_until_idle(100);
        let trace = sim.take_trace(LinkId(0), Dir::AtoB);
        assert_eq!(trace.len(), 1);
        assert_eq!(trace[0].1, vec![9, 9]);
        // Drained.
        assert!(sim.take_trace(LinkId(0), Dir::AtoB).is_empty());
    }

    #[test]
    fn identical_seeds_identical_runs() {
        let run = |_seed: u64| {
            let cfg = LinkConfig {
                fault: FaultConfig { drop_chance: 0.3, corrupt_chance: 0.2, ..FaultConfig::NONE },
                ..LinkConfig::ethernet_100m()
            };
            let (mut sim, a, b) = two_node_sim(cfg);
            sim.with_node::<Echo, _>(a, |_, ctx| {
                for i in 0..100u8 {
                    ctx.send_frame(PortId(0), vec![i; 50]);
                }
            });
            sim.run_until_idle(10_000);
            sim.node_ref::<Echo>(b).received.clone()
        };
        assert_eq!(run(7), run(7));
    }

    #[test]
    fn unrouted_frames_are_counted_not_fatal() {
        let mut sim = Simulator::new(1);
        let a = sim.add_node(Box::new(Echo::new(false)));
        sim.boot();
        sim.with_node::<Echo, _>(a, |_, ctx| ctx.send_frame(PortId(5), vec![1]));
        sim.run_until_idle(10);
        assert_eq!(sim.stats().unrouted_frames, 1);
    }

    #[test]
    fn stats_count_delivered_and_dropped_by_reason() {
        use crate::trace::DropReason;
        let cfg = LinkConfig {
            fault: FaultConfig { drop_chance: 1.0, ..FaultConfig::NONE },
            ..LinkConfig::ethernet_100m()
        };
        let (mut sim, a, _b) = two_node_sim(cfg);
        sim.with_node::<Echo, _>(a, |_, ctx| ctx.send_frame(PortId(0), vec![0u8; 100]));
        sim.run_until_idle(100);
        assert_eq!(sim.stats().frames_dropped.by(DropReason::FaultInjection), 1);
        assert_eq!(sim.stats().frames_delivered, 0);
    }

    #[test]
    fn queue_overflow_counted_in_sim_stats() {
        use crate::trace::DropReason;
        let cfg = LinkConfig {
            rate_bps: 1_000_000,
            delay: Duration::ZERO,
            queue_bytes: 3000,
            fault: FaultConfig::NONE,
        };
        let (mut sim, a, _b) = two_node_sim(cfg);
        sim.with_node::<Echo, _>(a, |_, ctx| {
            for _ in 0..10 {
                ctx.send_frame(PortId(0), vec![0u8; 1000]);
            }
        });
        sim.run_until_idle(1000);
        // Same run as `queue_overflow_tail_drops`: 6 tail drops, and the
        // per-reason aggregate must agree with the per-link counter.
        assert_eq!(
            sim.stats().frames_dropped.by(DropReason::QueueOverflow),
            sim.link(LinkId(0)).stats(Dir::AtoB).drops_queue
        );
        assert_eq!(sim.stats().frames_delivered, 4);
        assert!(sim.stats().peak_queue_bytes >= 3000 - 1000);
    }

    #[test]
    fn observer_sees_events_without_changing_stats() {
        use crate::trace::{DropReason, EventLog, TraceEvent};
        let run = |attach: bool| {
            let cfg = LinkConfig {
                fault: FaultConfig { drop_chance: 0.3, corrupt_chance: 0.2, ..FaultConfig::NONE },
                ..LinkConfig::ethernet_100m()
            };
            let (mut sim, a, _b) = two_node_sim(cfg);
            if attach {
                sim.attach_observer(Box::new(EventLog::new()));
            }
            sim.with_node::<Echo, _>(a, |_, ctx| {
                for i in 0..50u8 {
                    ctx.send_frame(PortId(0), vec![i; 50]);
                }
            });
            sim.run_until_idle(10_000);
            let log = sim.detach_observer().map(|o| {
                let log = o.as_any().downcast_ref::<EventLog>().expect("EventLog observer");
                (log.drops(), log.len() as u64)
            });
            (sim.stats(), log)
        };
        let (plain, none) = run(false);
        let (observed, log) = run(true);
        assert!(none.is_none());
        // Observation is a pure sink: identical stats with and without it.
        assert_eq!(plain, observed);
        // And the log agrees with the always-on counters.
        let (drops, events) = log.expect("observer attached");
        assert_eq!(drops, observed.frames_dropped);
        assert_eq!(events, observed.trace_events);
        assert!(observed.frames_dropped.by(DropReason::FaultInjection) > 0);
        // Node-emitted traces flow through Action::Trace.
        let mut sim = Simulator::new(1);
        let a = sim.add_node(Box::new(Echo::new(false)));
        sim.boot();
        sim.with_node::<Echo, _>(a, |_, ctx| {
            ctx.emit_trace(TraceEvent::FrameDropped { reason: DropReason::Checksum, bytes: 20 });
        });
        assert_eq!(sim.stats().frames_dropped.by(DropReason::Checksum), 1);
    }

    #[test]
    fn telemetry_sees_delays_without_changing_stats() {
        // The analogue of `observer_sees_events_without_changing_stats` for
        // the telemetry layer: identical stats and payload stream with and
        // without telemetry, under the nastiest fault mix.
        let run = |enable: bool| {
            let cfg = LinkConfig {
                fault: FaultConfig {
                    drop_chance: 0.3,
                    corrupt_chance: 0.2,
                    duplicate_chance: 0.2,
                    ..FaultConfig::NONE
                },
                ..LinkConfig::ethernet_100m()
            };
            let (mut sim, a, b) = two_node_sim(cfg);
            if enable {
                sim.enable_telemetry();
            }
            sim.with_node::<Echo, _>(a, |_, ctx| {
                for i in 0..50u8 {
                    ctx.send_frame(PortId(0), vec![i; 50]);
                }
            });
            sim.run_until_idle(10_000);
            let summaries = sim.take_telemetry().map(|t| t.delay_summaries());
            (sim.stats(), sim.node_ref::<Echo>(b).received.clone(), summaries)
        };
        let (plain_stats, plain_rx, none) = run(false);
        let (tele_stats, tele_rx, summaries) = run(true);
        assert!(none.is_none());
        assert_eq!(plain_stats, tele_stats, "telemetry is a pure sink");
        assert_eq!(plain_rx, tele_rx);
        let s = summaries.expect("telemetry enabled");
        assert_eq!(s.one_way.count, tele_stats.frames_delivered);
        assert!(s.one_way.max > 0);
        assert!(s.one_way.p50 <= s.one_way.p90 && s.one_way.p90 <= s.one_way.p99);
        assert!(s.one_way.p99 <= s.one_way.max);
        // Every transmitted frame left the queue exactly once.
        assert!(s.queue_residency.count >= s.one_way.count);
    }

    #[test]
    fn telemetry_one_way_delay_has_known_value() {
        // 1500 B at 100 Mb/s is 120 us serialization + 50 us propagation:
        // the single delivered frame's one-way delay is exactly 170 us.
        let cfg = LinkConfig {
            rate_bps: 100_000_000,
            delay: Duration::from_micros(50),
            queue_bytes: usize::MAX,
            fault: FaultConfig::NONE,
        };
        let (mut sim, a, _b) = two_node_sim(cfg);
        sim.enable_telemetry();
        sim.with_node::<Echo, _>(a, |_, ctx| ctx.send_frame(PortId(0), vec![0u8; 1500]));
        sim.run_until_idle(100);
        let t = sim.telemetry().expect("enabled");
        assert_eq!(t.one_way_delay.count(), 1);
        assert_eq!(t.one_way_delay.max(), 170_000, "exact max is tracked");
        // The frame hit an idle transmitter, so it spent no time queued.
        assert_eq!(t.queue_residency.max(), 0);
    }

    #[test]
    fn telemetry_queue_residency_reflects_backlog() {
        // Same setup as `queuing_delay_emerges_from_backlog`: 10 frames of
        // 1250 B at 1 Mb/s (10 ms each). The last frame waits 9 full
        // serializations in the queue: 90 ms.
        let cfg = LinkConfig {
            rate_bps: 1_000_000,
            delay: Duration::ZERO,
            queue_bytes: usize::MAX,
            fault: FaultConfig::NONE,
        };
        let (mut sim, a, _b) = two_node_sim(cfg);
        sim.enable_telemetry();
        sim.with_node::<Echo, _>(a, |_, ctx| {
            for _ in 0..10 {
                ctx.send_frame(PortId(0), vec![0u8; 1250]);
            }
        });
        sim.run_until_idle(1000);
        let t = sim.telemetry().expect("enabled");
        assert_eq!(t.queue_residency.count(), 10);
        assert_eq!(t.queue_residency.max(), 90_000_000);
        // One-way delay of the last frame: 90 ms queued + 10 ms on the wire.
        assert_eq!(t.one_way_delay.max(), 100_000_000);
    }

    #[test]
    fn flight_recorder_keeps_the_most_recent_frames() {
        use crate::telemetry::FLIGHT_FRAMES;
        let (mut sim, a, _b) = two_node_sim(LinkConfig::ethernet_100m());
        sim.enable_telemetry();
        let sent = FLIGHT_FRAMES + 6;
        sim.with_node::<Echo, _>(a, |_, ctx| {
            for i in 0..sent {
                ctx.send_frame(PortId(0), vec![i as u8; 32]);
            }
        });
        sim.run_until_idle(1000);
        let t = sim.telemetry().expect("enabled");
        assert_eq!(t.flight.frame_count(), FLIGHT_FRAMES);
        let firsts: Vec<usize> = t.flight.frames().map(|(_, f)| f[0] as usize).collect();
        assert_eq!(firsts, (6..sent).collect::<Vec<_>>(), "ring holds the last deliveries");
        assert_eq!(t.flight.event_count(), sent, "one delivery event per frame");
    }

    #[test]
    fn pool_recycles_under_fault_injection() {
        // Every frame is duplicated and half get a bit flipped. Duplicates
        // are built in pooled buffers, so this exercises recycle → reuse
        // aliasing hazards under the nastiest fault mix.
        let run = || {
            let cfg = LinkConfig {
                fault: FaultConfig {
                    duplicate_chance: 1.0,
                    corrupt_chance: 0.5,
                    ..FaultConfig::NONE
                },
                ..LinkConfig::ethernet_100m()
            };
            let (mut sim, a, b) = two_node_sim(cfg);
            // Drain between sends so later duplicates draw on buffers
            // recycled from earlier deliveries.
            for i in 0..50u8 {
                sim.with_node::<Echo, _>(a, |_, ctx| ctx.send_frame(PortId(0), vec![i; 64]));
                sim.run_until_idle(100);
            }
            (sim.stats(), sim.node_ref::<Echo>(b).received.clone())
        };
        let (stats, received) = run();
        assert_eq!(received.len(), 100, "each of 50 frames arrives twice");
        for pair in received.chunks(2) {
            // Corruption happens before duplication, so a pooled duplicate
            // must be byte-identical to its original. Any divergence means a
            // recycled buffer leaked stale contents.
            assert_eq!(pair[0].1, pair[1].1, "duplicate diverged from original");
            assert_eq!(pair[0].1.len(), 64);
        }
        assert!(stats.pool_hits > 0, "steady-state duplicates should reuse retired buffers");
        assert!(stats.pool_misses > 0);
        // Deterministic: identical seed, identical counters and payloads.
        let again = run();
        assert_eq!((stats, received), again);
    }

    #[test]
    #[should_panic(expected = "already wired")]
    fn double_connect_panics() {
        let mut sim = Simulator::new(1);
        let a = sim.add_node(Box::new(Echo::new(false)));
        let b = sim.add_node(Box::new(Echo::new(false)));
        let c = sim.add_node(Box::new(Echo::new(false)));
        sim.connect(a, PortId(0), b, PortId(0), LinkConfig::ideal());
        sim.connect(a, PortId(0), c, PortId(0), LinkConfig::ideal());
    }
}
