//! The closed node universe of the testbed: [`NodeKind`].
//!
//! Every topology the testbed builds is made of three concrete node types —
//! [`Host`], [`Gateway`], [`Switch`] — plus the occasional ad-hoc driver
//! node in tests. `NodeKind` enumerates exactly that universe, so the
//! simulator ([`SimCore<NodeKind>`](hgw_core::SimCore)) dispatches every
//! event with a match over four variants instead of a vtable call: the
//! compiler sees the concrete `handle_frame`/`handle_timer` bodies and can
//! inline them into the event loop.
//!
//! The [`Custom`](NodeKind::Custom) variant is the escape hatch for node
//! types outside the closed set (scripted attackers, protocol-violating
//! probes, test taps): anything implementing [`Node`] rides along boxed,
//! paying dynamic dispatch only for itself. The root test
//! `tests/dispatch_oracle.rs` builds a whole testbed out of `Custom` nodes
//! and proves it produces the same event stream, counters and probe
//! results as the typed testbed.

use core::any::Any;

use hgw_core::{Node, NodeCtx, PortId, SimNode, TimerToken};
use hgw_gateway::Gateway;
use hgw_stack::host::Host;
use hgw_stack::switch::Switch;

/// A testbed node, dispatched statically by match (see the module docs).
// Inline (unboxed) variants are the point: the node slab stores devices
// contiguously with no per-node heap hop, trading slab width for locality.
#[allow(clippy::large_enum_variant)]
pub enum NodeKind {
    /// An end host (LAN client or WAN server).
    Host(Host),
    /// A home gateway under test.
    Gateway(Gateway),
    /// A learning LAN switch.
    Switch(Switch),
    /// Any other [`Node`] — ad-hoc drivers, attackers, taps — boxed.
    Custom(Box<dyn Node>),
}

impl SimNode for NodeKind {
    fn start(&mut self, ctx: &mut NodeCtx) {
        match self {
            NodeKind::Host(h) => h.start(ctx),
            NodeKind::Gateway(g) => g.start(ctx),
            NodeKind::Switch(s) => s.start(ctx),
            NodeKind::Custom(b) => (**b).start(ctx),
        }
    }

    fn handle_frame(&mut self, ctx: &mut NodeCtx, port: PortId, frame: &mut Vec<u8>) {
        match self {
            NodeKind::Host(h) => h.handle_frame(ctx, port, frame),
            NodeKind::Gateway(g) => g.handle_frame(ctx, port, frame),
            NodeKind::Switch(s) => s.handle_frame(ctx, port, frame),
            NodeKind::Custom(b) => (**b).handle_frame(ctx, port, frame),
        }
    }

    fn handle_timer(&mut self, ctx: &mut NodeCtx, token: TimerToken) {
        match self {
            NodeKind::Host(h) => h.handle_timer(ctx, token),
            NodeKind::Gateway(g) => g.handle_timer(ctx, token),
            NodeKind::Switch(s) => s.handle_timer(ctx, token),
            NodeKind::Custom(b) => (**b).handle_timer(ctx, token),
        }
    }

    /// Exposes the *inner* concrete node, so `node_ref::<Host>` and
    /// `with_node::<Gateway, _>` behave identically whether the node is a
    /// typed variant or boxed in `Custom`.
    fn as_any(&self) -> &dyn Any {
        match self {
            NodeKind::Host(h) => h,
            NodeKind::Gateway(g) => g,
            NodeKind::Switch(s) => s,
            NodeKind::Custom(b) => Node::as_any(&**b),
        }
    }

    fn as_any_mut(&mut self) -> &mut dyn Any {
        match self {
            NodeKind::Host(h) => h,
            NodeKind::Gateway(g) => g,
            NodeKind::Switch(s) => s,
            NodeKind::Custom(b) => Node::as_any_mut(&mut **b),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn as_any_reaches_the_inner_node_in_both_representations() {
        let typed = NodeKind::Host(Host::new("h"));
        assert!(typed.as_any().downcast_ref::<Host>().is_some());
        let mut boxed = NodeKind::Custom(Box::new(Host::new("h")));
        assert!(boxed.as_any().downcast_ref::<Host>().is_some());
        assert!(boxed.as_any_mut().downcast_mut::<Host>().is_some());
    }
}
