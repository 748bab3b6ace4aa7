//! Static node dispatch: the [`SimNode`] trait that
//! [`SimCore`](crate::sim::SimCore) is generic over.
//!
//! The simulator's hot loop calls three methods per event: `start`,
//! `handle_frame`, or `handle_timer`. Historically the node slot type was
//! hard-wired to `Box<dyn Node>`, which costs a vtable indirection per
//! callback and forces the engine to speak through wide pointers. `SimNode`
//! abstracts the slot type instead: a concrete enum (the testbed's
//! `NodeKind`) dispatches by match — fully static, inlinable — while
//! `Box<dyn Node>` keeps the old dynamic behavior for core tests, the
//! boxed-dispatch microbench and drivers of heterogeneous ad-hoc nodes. The
//! two are observationally identical by construction: `SimNode` has
//! exactly the [`Node`] callback surface and no way to observe how it was
//! dispatched. The root test `tests/dispatch_oracle.rs` checks it on whole
//! testbeds.

use core::any::Any;

use crate::node::{Node, NodeCtx, PortId, TimerToken};

/// A node slot the simulator can dispatch events to.
///
/// Implementors are either `Box<dyn Node>` (dynamic dispatch) or a closed
/// enum over the concrete node types of a testbed (static dispatch by
/// match). The `as_any`/`as_any_mut` hooks must
/// expose the *innermost* concrete node so
/// [`SimCore::node_ref`](crate::sim::SimCore::node_ref) and
/// [`SimCore::with_node`](crate::sim::SimCore::with_node) downcast
/// identically under either representation.
pub trait SimNode: 'static {
    /// See [`Node::start`].
    fn start(&mut self, ctx: &mut NodeCtx);

    /// See [`Node::handle_frame`].
    fn handle_frame(&mut self, ctx: &mut NodeCtx, port: PortId, frame: &mut Vec<u8>);

    /// See [`Node::handle_timer`].
    fn handle_timer(&mut self, ctx: &mut NodeCtx, token: TimerToken);

    /// The innermost concrete node, for typed driver access.
    fn as_any(&self) -> &dyn Any;

    /// The innermost concrete node, mutably.
    fn as_any_mut(&mut self) -> &mut dyn Any;
}

/// Dynamic dispatch: exactly the pre-enum dispatch path, behind the
/// [`Simulator`](crate::sim::Simulator) alias.
impl SimNode for Box<dyn Node> {
    fn start(&mut self, ctx: &mut NodeCtx) {
        (**self).start(ctx);
    }

    fn handle_frame(&mut self, ctx: &mut NodeCtx, port: PortId, frame: &mut Vec<u8>) {
        (**self).handle_frame(ctx, port, frame);
    }

    fn handle_timer(&mut self, ctx: &mut NodeCtx, token: TimerToken) {
        (**self).handle_timer(ctx, token);
    }

    fn as_any(&self) -> &dyn Any {
        Node::as_any(&**self)
    }

    fn as_any_mut(&mut self) -> &mut dyn Any {
        Node::as_any_mut(&mut **self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::impl_node_downcast;

    struct Probe(u32);
    impl Node for Probe {
        fn handle_frame(&mut self, _: &mut NodeCtx, _: PortId, _: &mut Vec<u8>) {
            self.0 += 1;
        }
        fn handle_timer(&mut self, _: &mut NodeCtx, _: TimerToken) {}
        impl_node_downcast!();
    }

    #[test]
    fn boxed_slot_downcasts_to_inner_node() {
        let slot: Box<dyn Node> = Box::new(Probe(7));
        let any = SimNode::as_any(&slot);
        assert_eq!(any.downcast_ref::<Probe>().expect("inner type").0, 7);
    }
}
