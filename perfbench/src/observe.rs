//! The benchmark's own [`SimObserver`]: wall-clock self time per node kind,
//! timed from outside the program.
//!
//! The simulator emits `FrameDelivered` immediately before it calls the
//! receiving node's frame handler. The observer stamps the wall clock on
//! each delivery and charges the interval since the previous stamp to the
//! node that received the previous frame. That interval also holds the
//! link and wire work the node's output triggers (serialization, enqueue,
//! the transmit-complete and timer events dispatched before the next
//! delivery), so wire time stays inside node self time. The interval
//! before the first delivery and after the last one is the probe driver's
//! and stays unattributed.

use std::any::Any;
use std::time::Instant as Wall;

use hgw_core::{Instant, NodeId, SimObserver, TraceEvent};
use hgw_testbed::Testbed;

/// Node kinds self time is charged to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    Gateway = 0,
    Host = 1,
    Switch = 2,
    /// Before the first delivery and after the last: the probe driver.
    Unattributed = 3,
}

const KINDS: usize = 4;

/// Wall time and deliveries per node kind over one probe call.
#[derive(Debug, Clone, Default)]
pub struct SelfTime {
    pub ns: [u64; KINDS],
    pub frames: [u64; KINDS],
    pub frame_bytes: u64,
}

impl SelfTime {
    pub fn add(&mut self, other: &SelfTime) {
        for k in 0..KINDS {
            self.ns[k] += other.ns[k];
            self.frames[k] += other.frames[k];
        }
        self.frame_bytes += other.frame_bytes;
    }
}

struct KindObserver {
    kinds: Vec<Kind>,
    current: Kind,
    stamp: Wall,
    acc: SelfTime,
}

impl KindObserver {
    /// An observer for `tb` whose first interval starts now.
    fn new(tb: &Testbed) -> KindObserver {
        let mut kinds = Vec::new();
        let mut set = |id: NodeId, kind: Kind| {
            if kinds.len() <= id.0 {
                kinds.resize(id.0 + 1, Kind::Unattributed);
            }
            kinds[id.0] = kind;
        };
        for &h in &tb.hosts {
            set(h, Kind::Host);
        }
        set(tb.server, Kind::Host);
        set(tb.gateway, Kind::Gateway);
        if let Some(sw) = tb.try_node_id("lan-switch") {
            set(sw, Kind::Switch);
        }
        KindObserver {
            kinds,
            current: Kind::Unattributed,
            stamp: Wall::now(),
            acc: SelfTime::default(),
        }
    }
}

impl SimObserver for KindObserver {
    fn on_event(&mut self, _at: Instant, node: NodeId, event: &TraceEvent) {
        if let TraceEvent::FrameDelivered { bytes } = event {
            let now = Wall::now();
            self.acc.ns[self.current as usize] += now.duration_since(self.stamp).as_nanos() as u64;
            self.stamp = now;
            self.current = self.kinds.get(node.0).copied().unwrap_or(Kind::Unattributed);
            self.acc.frames[self.current as usize] += 1;
            self.acc.frame_bytes += *bytes as u64;
        }
    }

    fn as_any(&self) -> &dyn Any {
        self
    }
}

/// Runs `probe` on `tb` with a [`KindObserver`] attached and returns its
/// result, the probe call's start and end, and the self time by kind, which
/// sums to the call's wall time.
pub fn observed<R>(
    tb: &mut Testbed,
    probe: impl FnOnce(&mut Testbed) -> R,
) -> (R, Wall, Wall, SelfTime) {
    let observer = KindObserver::new(tb);
    let start = observer.stamp;
    tb.sim.attach_observer(Box::new(observer));
    let result = probe(tb);
    let end = Wall::now();
    let observer = tb.sim.detach_observer().expect("benchmark observer still attached");
    let observer = observer.as_any().downcast_ref::<KindObserver>().expect("benchmark observer");
    // The tail after the last delivery is the probe driver's.
    let mut acc = observer.acc.clone();
    acc.ns[Kind::Unattributed as usize] += end.duration_since(observer.stamp).as_nanos() as u64;
    (result, start, end, acc)
}
