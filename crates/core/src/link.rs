//! Point-to-point links with finite rate, propagation delay, bounded FIFO
//! queues, and smoltcp-style fault injection.
//!
//! Every link in the testbed models one Ethernet segment of Figure 1 of the
//! paper (client–gateway "LAN", gateway–server "WAN"). The bounded transmit
//! queue is what turns an over-driven link into queuing delay and tail drop,
//! exactly the phenomena TCP-2/TCP-3 measure.

use std::collections::VecDeque;

use crate::node::{NodeId, PortId};
use crate::time::{serialization_time, Duration, Instant};

/// Identifies a link within a simulator.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct LinkId(pub usize);

/// Which direction a frame travels on a link.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Dir {
    /// From endpoint A towards endpoint B.
    AtoB,
    /// From endpoint B towards endpoint A.
    BtoA,
}

impl Dir {
    /// The opposite direction.
    pub fn flip(self) -> Dir {
        match self {
            Dir::AtoB => Dir::BtoA,
            Dir::BtoA => Dir::AtoB,
        }
    }

    /// Index (0 for A→B, 1 for B→A); used for per-direction arrays.
    pub fn index(self) -> usize {
        match self {
            Dir::AtoB => 0,
            Dir::BtoA => 1,
        }
    }
}

/// Random fault injection applied to frames entering a link direction.
///
/// Mirrors the fault-injection options of the smoltcp examples
/// (`--drop-chance`, `--corrupt-chance`, …).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultConfig {
    /// Probability in `[0, 1]` that a frame is silently dropped.
    pub drop_chance: f64,
    /// Probability that a single octet of the frame is flipped.
    pub corrupt_chance: f64,
    /// Probability that a frame's delivery is delayed by an extra random
    /// amount up to `reorder_window`, letting later frames overtake it.
    pub reorder_chance: f64,
    /// Maximum extra delay applied to reordered frames.
    pub reorder_window: Duration,
    /// Probability that a frame is duplicated.
    pub duplicate_chance: f64,
}

impl FaultConfig {
    /// No faults.
    pub const NONE: FaultConfig = FaultConfig {
        drop_chance: 0.0,
        corrupt_chance: 0.0,
        reorder_chance: 0.0,
        reorder_window: Duration::ZERO,
        duplicate_chance: 0.0,
    };

    /// True if every fault probability is zero.
    pub fn is_none(&self) -> bool {
        self.drop_chance == 0.0
            && self.corrupt_chance == 0.0
            && self.reorder_chance == 0.0
            && self.duplicate_chance == 0.0
    }
}

impl Default for FaultConfig {
    fn default() -> Self {
        FaultConfig::NONE
    }
}

/// Static configuration of a link (applies to both directions).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LinkConfig {
    /// Line rate in bits per second; 0 means infinitely fast.
    pub rate_bps: u64,
    /// One-way propagation delay.
    pub delay: Duration,
    /// Transmit queue capacity per direction, in bytes. Frames that would
    /// exceed it are tail-dropped.
    pub queue_bytes: usize,
    /// Fault injection, applied independently per direction.
    pub fault: FaultConfig,
}

impl LinkConfig {
    /// The testbed default: 100 Mb/s Ethernet (as in the paper), 50 us
    /// propagation, a 256 KB interface queue, no faults.
    pub fn ethernet_100m() -> LinkConfig {
        LinkConfig {
            rate_bps: 100_000_000,
            delay: Duration::from_micros(50),
            queue_bytes: 256 * 1024,
            fault: FaultConfig::NONE,
        }
    }

    /// An ideal link: infinite rate, zero delay, unbounded queue. Useful for
    /// control-plane style tests where the link should be invisible.
    pub fn ideal() -> LinkConfig {
        LinkConfig {
            rate_bps: 0,
            delay: Duration::ZERO,
            queue_bytes: usize::MAX,
            fault: FaultConfig::NONE,
        }
    }
}

impl Default for LinkConfig {
    fn default() -> Self {
        LinkConfig::ethernet_100m()
    }
}

/// Counters kept per link direction.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LinkDirStats {
    /// Frames fully transmitted.
    pub tx_frames: u64,
    /// Bytes fully transmitted.
    pub tx_bytes: u64,
    /// Frames tail-dropped because the queue was full.
    pub drops_queue: u64,
    /// Frames dropped by fault injection.
    pub drops_fault: u64,
    /// Frames corrupted by fault injection.
    pub corrupted: u64,
    /// Frames duplicated by fault injection.
    pub duplicated: u64,
    /// High-water mark of queued bytes.
    pub queue_peak_bytes: usize,
}

/// One direction of a link: a bounded FIFO feeding a transmitter. Each
/// queued frame carries its enqueue time so telemetry can attribute queue
/// residency and one-way delay; the timestamp never influences scheduling.
#[derive(Debug)]
pub(crate) struct LinkDir {
    queue: VecDeque<(Vec<u8>, Instant)>,
    queued_bytes: usize,
    /// True while a TxComplete event is outstanding for this direction.
    transmitting: bool,
    pub(crate) stats: LinkDirStats,
}

/// Assumed frame size when pre-sizing a queue from its byte capacity
/// (standard Ethernet MTU plus framing).
const TYPICAL_FRAME_BYTES: usize = 1514;
/// Upper bound on pre-allocated queue slots for huge/unbounded queues.
const MAX_PRESIZED_SLOTS: usize = 256;

impl LinkDir {
    fn new(config: &LinkConfig) -> LinkDir {
        let mut dir = LinkDir {
            queue: VecDeque::new(),
            queued_bytes: 0,
            transmitting: false,
            stats: LinkDirStats::default(),
        };
        dir.reset(config);
        dir
    }

    /// Empties the direction for a link configured as `config`, keeping
    /// the ring's allocation: the state [`LinkDir::new`] returns.
    fn reset(&mut self, config: &LinkConfig) {
        // Pre-size the FIFO for the frames its byte budget can hold, so a
        // saturated link never reallocates the ring mid-run.
        let slots = (config.queue_bytes / TYPICAL_FRAME_BYTES).clamp(1, MAX_PRESIZED_SLOTS);
        self.queue.clear();
        self.queue.reserve(slots);
        self.queued_bytes = 0;
        self.transmitting = false;
        self.stats = LinkDirStats::default();
    }

    /// Attempts to enqueue at time `now`; a tail drop hands the frame back
    /// so the caller can recycle its buffer.
    pub(crate) fn enqueue(
        &mut self,
        frame: Vec<u8>,
        cap: usize,
        now: Instant,
    ) -> Result<(), Vec<u8>> {
        if self.queued_bytes.saturating_add(frame.len()) > cap {
            self.stats.drops_queue += 1;
            return Err(frame);
        }
        self.queued_bytes += frame.len();
        self.stats.queue_peak_bytes = self.stats.queue_peak_bytes.max(self.queued_bytes);
        self.queue.push_back((frame, now));
        Ok(())
    }

    /// Pops the head frame together with the time it was enqueued.
    pub(crate) fn pop(&mut self) -> Option<(Vec<u8>, Instant)> {
        let (frame, enqueued_at) = self.queue.pop_front()?;
        self.queued_bytes -= frame.len();
        Some((frame, enqueued_at))
    }

    pub(crate) fn set_transmitting(&mut self, v: bool) {
        self.transmitting = v;
    }

    pub(crate) fn is_transmitting(&self) -> bool {
        self.transmitting
    }

    /// Bytes currently sitting in the queue (not counting the frame on the
    /// wire).
    pub(crate) fn queued_bytes(&self) -> usize {
        self.queued_bytes
    }
}

/// A captured trace: timestamped raw frames.
pub type Trace = Vec<(Instant, Vec<u8>)>;

/// A bidirectional point-to-point link between two node ports.
#[derive(Debug)]
pub struct Link {
    pub(crate) config: LinkConfig,
    pub(crate) a: (NodeId, PortId),
    pub(crate) b: (NodeId, PortId),
    pub(crate) dirs: [LinkDir; 2],
    /// Captured frames per direction when tracing is enabled.
    pub(crate) trace: [Option<Trace>; 2],
}

impl Link {
    pub(crate) fn new(config: LinkConfig, a: (NodeId, PortId), b: (NodeId, PortId)) -> Link {
        let dirs = [LinkDir::new(&config), LinkDir::new(&config)];
        Link { config, a, b, dirs, trace: [None, None] }
    }

    /// Rewires a retired link as `Link::new(config, a, b)` would build it,
    /// reusing its two queue rings.
    pub(crate) fn renew(&mut self, config: LinkConfig, a: (NodeId, PortId), b: (NodeId, PortId)) {
        for dir in &mut self.dirs {
            dir.reset(&config);
        }
        (self.config, self.a, self.b, self.trace) = (config, a, b, [None, None]);
    }

    /// The endpoint a frame traveling in `dir` is delivered to.
    pub(crate) fn sink(&self, dir: Dir) -> (NodeId, PortId) {
        match dir {
            Dir::AtoB => self.b,
            Dir::BtoA => self.a,
        }
    }

    /// Time to clock a frame of `len` bytes onto the wire.
    pub(crate) fn tx_time(&self, len: usize) -> Duration {
        serialization_time(len, self.config.rate_bps)
    }

    /// Statistics for one direction.
    pub fn stats(&self, dir: Dir) -> LinkDirStats {
        self.dirs[dir.index()].stats
    }

    /// Bytes currently queued in one direction.
    pub fn queued_bytes(&self, dir: Dir) -> usize {
        self.dirs[dir.index()].queued_bytes()
    }

    /// The link's configuration.
    pub fn config(&self) -> &LinkConfig {
        &self.config
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dir_flip_and_index() {
        assert_eq!(Dir::AtoB.flip(), Dir::BtoA);
        assert_eq!(Dir::BtoA.flip(), Dir::AtoB);
        assert_eq!(Dir::AtoB.index(), 0);
        assert_eq!(Dir::BtoA.index(), 1);
    }

    #[test]
    fn queue_tail_drops_and_counts() {
        let mut d = LinkDir::new(&LinkConfig::ethernet_100m());
        assert!(d.enqueue(vec![0; 600], 1000, Instant::ZERO).is_ok());
        let rejected = d.enqueue(vec![0; 600], 1000, Instant::ZERO);
        assert_eq!(rejected, Err(vec![0; 600]), "tail drop hands the frame back");
        assert_eq!(d.stats.drops_queue, 1);
        assert_eq!(d.queued_bytes(), 600);
        assert_eq!(d.stats.queue_peak_bytes, 600);
    }

    #[test]
    fn queue_conserves_bytes_and_enqueue_times() {
        let mut d = LinkDir::new(&LinkConfig::ethernet_100m());
        for (i, len) in [100usize, 200, 300].into_iter().enumerate() {
            assert!(d.enqueue(vec![0; len], usize::MAX, Instant::from_millis(i as u64)).is_ok());
        }
        assert_eq!(d.queued_bytes(), 600);
        let (frame, at) = d.pop().unwrap();
        assert_eq!((frame.len(), at), (100, Instant::ZERO));
        let (frame, at) = d.pop().unwrap();
        assert_eq!((frame.len(), at), (200, Instant::from_millis(1)));
        assert_eq!(d.queued_bytes(), 300);
        assert_eq!(d.pop().unwrap().0.len(), 300);
        assert_eq!(d.queued_bytes(), 0);
        assert!(d.pop().is_none());
    }

    #[test]
    fn ethernet_defaults_match_paper_testbed() {
        let cfg = LinkConfig::ethernet_100m();
        assert_eq!(cfg.rate_bps, 100_000_000);
        assert!(cfg.fault.is_none());
    }

    #[test]
    fn tx_time_uses_link_rate() {
        let link =
            Link::new(LinkConfig::ethernet_100m(), (NodeId(0), PortId(0)), (NodeId(1), PortId(0)));
        assert_eq!(link.tx_time(1500), Duration::from_micros(120));
        assert_eq!(link.sink(Dir::AtoB), (NodeId(1), PortId(0)));
        assert_eq!(link.sink(Dir::BtoA), (NodeId(0), PortId(0)));
    }
}
