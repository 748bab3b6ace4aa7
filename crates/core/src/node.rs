//! The [`Node`] trait and the context handed to nodes by the simulator.
//!
//! A node is anything attached to the simulated network: the test client,
//! the test server, or a home gateway under test. Nodes are event-driven in
//! the smoltcp style: the simulator calls them with a frame or an expired
//! timer, they update internal state and emit actions (frames to transmit,
//! timers to arm) through the [`NodeCtx`]. Nodes never block and never see
//! wall-clock time.

use core::any::Any;

use crate::pool::FramePool;
use crate::rng::SimRng;
use crate::telemetry::Telemetry;
use crate::time::Instant;
use crate::trace::TraceEvent;

/// Identifies a node within a [`Simulator`](crate::sim::Simulator).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NodeId(pub usize);

/// Identifies one of a node's network ports (0-based).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct PortId(pub usize);

/// An opaque value a node attaches to a timer so it can recognize it when it
/// fires. Timers cannot be cancelled; nodes that re-arm timers should carry a
/// generation counter in the token and ignore stale generations.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct TimerToken(pub u64);

/// An action emitted by a node during a callback, applied by the simulator
/// after the callback returns.
#[derive(Debug)]
pub enum Action {
    /// Transmit a raw frame (an IPv4 packet in this project) on a port.
    SendFrame {
        /// The egress port.
        port: PortId,
        /// The raw frame bytes.
        frame: Vec<u8>,
    },
    /// Arm a timer.
    SetTimer {
        /// Absolute fire time.
        at: Instant,
        /// Token handed back when the timer fires.
        token: TimerToken,
    },
    /// Report a structured observability event. Forwarded to the attached
    /// [`SimObserver`](crate::trace::SimObserver), if any; otherwise free.
    Trace(TraceEvent),
}

/// Execution context passed to every node callback.
///
/// Collects the node's actions and exposes the simulation clock and the
/// node's private deterministic RNG stream.
pub struct NodeCtx<'a> {
    now: Instant,
    node: NodeId,
    rng: &'a mut SimRng,
    pool: &'a mut FramePool,
    actions: &'a mut Vec<Action>,
    telemetry: Option<&'a mut Telemetry>,
}

impl<'a> NodeCtx<'a> {
    pub(crate) fn new(
        now: Instant,
        node: NodeId,
        rng: &'a mut SimRng,
        pool: &'a mut FramePool,
        actions: &'a mut Vec<Action>,
        telemetry: Option<&'a mut Telemetry>,
    ) -> NodeCtx<'a> {
        NodeCtx { now, node, rng, pool, actions, telemetry }
    }

    /// The current simulated time.
    pub fn now(&self) -> Instant {
        self.now
    }

    /// The id of the node being called.
    pub fn node_id(&self) -> NodeId {
        self.node
    }

    /// The node's private RNG stream.
    pub fn rng(&mut self) -> &mut SimRng {
        self.rng
    }

    /// Takes a cleared frame buffer with at least `capacity` bytes of room
    /// from the simulator's [`FramePool`]; ask for the frame's full size,
    /// since the pool picks the buffer's size class by it. Prefer this over
    /// a fresh `Vec` when building frames to send: retired delivery buffers
    /// get recycled instead of churning the allocator.
    pub fn alloc_frame(&mut self, capacity: usize) -> Vec<u8> {
        self.pool.get(capacity)
    }

    /// Returns a no-longer-needed buffer to the simulator's [`FramePool`].
    pub fn recycle_frame(&mut self, buf: Vec<u8>) {
        self.pool.put(buf);
    }

    /// The simulator's [`FramePool`] itself, for code that takes buffers
    /// without a `NodeCtx` at hand (a TCP socket building segments).
    pub fn frame_pool(&mut self) -> &mut FramePool {
        self.pool
    }

    /// Queues a frame for transmission on `port`. If the port is not
    /// connected to a link the frame is silently discarded (counted by the
    /// simulator as an unrouted frame).
    pub fn send_frame(&mut self, port: PortId, frame: Vec<u8>) {
        self.actions.push(Action::SendFrame { port, frame });
    }

    /// Arms a timer at absolute time `at`. Timers in the past fire on the
    /// next simulator step at the current time.
    pub fn set_timer_at(&mut self, at: Instant, token: TimerToken) {
        self.actions.push(Action::SetTimer { at, token });
    }

    /// Arms a timer `delay` from now.
    pub fn set_timer_after(&mut self, delay: crate::time::Duration, token: TimerToken) {
        let at = self.now.saturating_add(delay);
        self.set_timer_at(at, token);
    }

    /// Reports a structured observability event on behalf of this node.
    ///
    /// The event reaches the simulator's attached observer (if any) after
    /// the callback returns. Emitting is side-effect free with respect to
    /// the simulation itself: no clocks, queues, or RNG streams move.
    pub fn emit_trace(&mut self, event: TraceEvent) {
        self.actions.push(Action::Trace(event));
    }

    /// The simulator's [`Telemetry`] instance, when telemetry is enabled.
    ///
    /// Nodes use this to record domain-specific latency samples (the
    /// gateway records its NAT processing delay here). Like observers,
    /// telemetry is a pure sink: nothing a node reads from or writes to it
    /// can influence the simulation.
    pub fn telemetry(&mut self) -> Option<&mut Telemetry> {
        self.telemetry.as_deref_mut()
    }
}

/// A network element driven by the simulator.
pub trait Node: Any {
    /// Called once by [`Simulator::boot`](crate::sim::Simulator::boot) after
    /// the topology is wired, before any traffic flows. Nodes arm their
    /// initial timers (DHCP, periodic maintenance) here.
    fn start(&mut self, _ctx: &mut NodeCtx) {}

    /// A frame arrived on `port`. The buffer is on loan from the simulator's
    /// frame pool: take ownership with `std::mem::take(frame)` to keep it;
    /// whatever is left in place is recycled after the callback returns.
    fn handle_frame(&mut self, ctx: &mut NodeCtx, port: PortId, frame: &mut Vec<u8>);

    /// A timer armed earlier has fired.
    fn handle_timer(&mut self, ctx: &mut NodeCtx, token: TimerToken);

    /// Downcast support; implement as `self`.
    fn as_any(&self) -> &dyn Any;

    /// Downcast support; implement as `self`.
    fn as_any_mut(&mut self) -> &mut dyn Any;
}

/// Implements the `as_any`/`as_any_mut` boilerplate for a node type.
#[macro_export]
macro_rules! impl_node_downcast {
    () => {
        fn as_any(&self) -> &dyn core::any::Any {
            self
        }
        fn as_any_mut(&mut self) -> &mut dyn core::any::Any {
            self
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::Duration;

    struct Probe;
    impl Node for Probe {
        fn handle_frame(&mut self, _: &mut NodeCtx, _: PortId, _: &mut Vec<u8>) {}
        fn handle_timer(&mut self, _: &mut NodeCtx, _: TimerToken) {}
        impl_node_downcast!();
    }

    #[test]
    fn ctx_collects_actions() {
        let mut rng = SimRng::new(1);
        let mut pool = FramePool::new();
        let mut actions = Vec::new();
        let mut ctx =
            NodeCtx::new(Instant::from_secs(5), NodeId(3), &mut rng, &mut pool, &mut actions, None);
        assert_eq!(ctx.now(), Instant::from_secs(5));
        assert_eq!(ctx.node_id(), NodeId(3));
        ctx.send_frame(PortId(0), vec![1, 2, 3]);
        ctx.set_timer_after(Duration::from_secs(1), TimerToken(9));
        assert_eq!(actions.len(), 2);
        match &actions[1] {
            Action::SetTimer { at, token } => {
                assert_eq!(*at, Instant::from_secs(6));
                assert_eq!(*token, TimerToken(9));
            }
            other => panic!("unexpected action {other:?}"),
        }
    }

    #[test]
    fn downcast_macro_works() {
        let mut n: Box<dyn Node> = Box::new(Probe);
        assert!(n.as_any().is::<Probe>());
        assert!(n.as_any_mut().downcast_mut::<Probe>().is_some());
    }
}
