//! # hgw-core — deterministic discrete-event simulation engine
//!
//! The foundation of the home-gateway study reproduction: virtual time,
//! seeded randomness, an event queue, and a link model with finite rate,
//! bounded FIFO queues and fault injection.
//!
//! Everything above this crate (the IP stack, the gateway model, the
//! measurement suite) is a `Node` exchanging raw frames over
//! `Link`s under the control of a single
//! `Simulator`. There are no threads and no wall-clock
//! time anywhere in the datapath: a 24-hour binding-timeout probe is an
//! ordinary function call.

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod dispatch;
mod hash;
pub mod link;
pub mod node;
pub mod pcap;
pub mod pool;
mod recycle;
pub mod rng;
pub mod sim;
pub mod telemetry;
pub mod time;
pub mod trace;
pub mod wheel;

pub use dispatch::SimNode;
pub use hash::{FixedHasher, FixedMap};
pub use link::{Dir, FaultConfig, Link, LinkConfig, LinkDirStats, LinkId};
pub use node::{Action, Node, NodeCtx, NodeId, PortId, TimerToken};
pub use pcap::{write_pcap, PcapWriter};
pub use pool::FramePool;
pub use recycle::Cleared;
pub use rng::SimRng;
pub use sim::{SimCore, SimStats, Simulator};
pub use telemetry::{
    render_chrome_trace, DelaySummaries, FlightRecorder, Histogram, HistogramSummary, SpanId,
    SpanTimeline, Telemetry,
};
pub use time::{serialization_time, Duration, Instant};
pub use trace::{
    BindingLifecycle, DropCounts, DropReason, EventLog, FlowId, LifecycleCounts, LifecycleEvent,
    SimObserver, TraceEvent,
};
pub use wheel::TimerWheel;
