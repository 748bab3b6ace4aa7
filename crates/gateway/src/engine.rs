//! The forwarding-plane model: bounded per-direction buffers feeding
//! rate-limited servers that share one processing resource.
//!
//! This is where TCP-2's throughput ceilings and TCP-3's queuing delays
//! come from. A packet that clears NAT translation enters the buffer of its
//! direction; it is then serviced at
//! `max(len/direction_rate, len/aggregate_rate)`, where the aggregate
//! "CPU" is shared between directions — which is why bidirectional load
//! roughly halves per-direction throughput on CPU-bound devices (§4.2,
//! Figure 8's bidirectional series).

use std::collections::VecDeque;

use hgw_core::{serialization_time, Cleared, Duration, Instant};

use crate::policy::ForwardingModel;

/// Forwarding direction through the gateway.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FwdDir {
    /// LAN → WAN.
    Up,
    /// WAN → LAN.
    Down,
}

impl FwdDir {
    /// Index for per-direction arrays.
    pub fn index(self) -> usize {
        match self {
            FwdDir::Up => 0,
            FwdDir::Down => 1,
        }
    }
}

/// Counters per direction.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EngineDirStats {
    /// Packets fully forwarded.
    pub forwarded: u64,
    /// Bytes fully forwarded.
    pub forwarded_bytes: u64,
    /// Packets tail-dropped at the buffer.
    pub dropped: u64,
    /// High-water mark of buffered bytes.
    pub peak_buffered: usize,
}

#[derive(Debug)]
struct DirState {
    /// Queued packets with their one-off surcharge and the time they
    /// entered the engine. The timestamp exists purely so telemetry can
    /// attribute per-packet processing delay; it never affects service.
    queue: VecDeque<(Vec<u8>, Duration, Instant)>,
    buffered: usize,
    /// A service completion is pending; the frame (and its engine entry
    /// time) is held here.
    in_service: Option<(Vec<u8>, Instant)>,
    free_at: Instant,
    stats: EngineDirStats,
}

impl DirState {
    fn new() -> DirState {
        DirState {
            queue: VecDeque::new(),
            buffered: 0,
            in_service: None,
            free_at: Instant::ZERO,
            stats: EngineDirStats::default(),
        }
    }
}

/// The forwarding engine.
#[derive(Debug)]
pub struct ForwardingEngine {
    model: ForwardingModel,
    dirs: [DirState; 2],
    cpu_free_at: Instant,
}

impl ForwardingEngine {
    /// Creates an engine with the given capacity model.
    pub fn new(model: ForwardingModel) -> ForwardingEngine {
        ForwardingEngine {
            model,
            dirs: [DirState::new(), DirState::new()],
            cpu_free_at: Instant::ZERO,
        }
    }

    /// Takes over the queue allocations of a retired engine; the queued
    /// frames themselves are dropped.
    pub(crate) fn reuse_queues(&mut self, old: ForwardingEngine) {
        for (dir, old) in self.dirs.iter_mut().zip(old.dirs) {
            debug_assert!(dir.queue.is_empty(), "reuse_queues on a running engine");
            dir.queue = old.queue.cleared();
        }
    }

    /// The capacity model.
    pub fn model(&self) -> &ForwardingModel {
        &self.model
    }

    /// Statistics for one direction.
    pub fn stats(&self, dir: FwdDir) -> EngineDirStats {
        self.dirs[dir.index()].stats
    }

    /// Bytes currently buffered in one direction.
    pub fn buffered(&self, dir: FwdDir) -> usize {
        self.dirs[dir.index()].buffered
    }

    /// Offers a translated packet to the engine at time `now`. Returns
    /// false on tail drop.
    pub fn enqueue(&mut self, dir: FwdDir, frame: Vec<u8>, now: Instant) -> bool {
        self.enqueue_with_surcharge(dir, frame, Duration::ZERO, now)
    }

    /// Like [`ForwardingEngine::enqueue`], with extra one-off processing
    /// time (e.g. the cost of setting up a new NAT binding for the flow's
    /// first packet).
    pub fn enqueue_with_surcharge(
        &mut self,
        dir: FwdDir,
        frame: Vec<u8>,
        surcharge: Duration,
        now: Instant,
    ) -> bool {
        let cap = match dir {
            FwdDir::Up => self.model.buffer_up,
            FwdDir::Down => self.model.buffer_down,
        };
        let d = &mut self.dirs[dir.index()];
        if d.buffered.saturating_add(frame.len()) > cap {
            d.stats.dropped += 1;
            return false;
        }
        d.buffered += frame.len();
        d.stats.peak_buffered = d.stats.peak_buffered.max(d.buffered);
        d.queue.push_back((frame, surcharge, now));
        true
    }

    /// If the direction is idle and has a queued packet, starts servicing
    /// it and returns the completion time (caller arms a timer).
    pub fn start_service(&mut self, now: Instant, dir: FwdDir) -> Option<Instant> {
        let rate = match dir {
            FwdDir::Up => self.model.up_bps,
            FwdDir::Down => self.model.down_bps,
        };
        let d = &mut self.dirs[dir.index()];
        if d.in_service.is_some() || d.queue.is_empty() {
            return None;
        }
        let (frame, surcharge, entered_at) = d.queue.pop_front().expect("non-empty");
        d.buffered -= frame.len();
        let start = now.max(d.free_at).max(self.cpu_free_at);
        let dir_time = serialization_time(frame.len(), rate);
        let cpu_time = if self.model.aggregate_bps == u64::MAX {
            surcharge
        } else {
            serialization_time(frame.len(), self.model.aggregate_bps) + surcharge
        };
        let service = dir_time.max(cpu_time) + self.model.per_packet_overhead;
        let finish = start + service;
        self.cpu_free_at = start + cpu_time.max(surcharge);
        d.free_at = finish;
        d.in_service = Some((frame, entered_at));
        Some(finish)
    }

    /// Completes the in-flight service of a direction, returning the frame
    /// to transmit together with the time it entered the engine (so the
    /// caller can attribute the total buffering + processing delay).
    pub fn complete(&mut self, dir: FwdDir) -> Option<(Vec<u8>, Instant)> {
        let d = &mut self.dirs[dir.index()];
        let (frame, entered_at) = d.in_service.take()?;
        d.stats.forwarded += 1;
        d.stats.forwarded_bytes += frame.len() as u64;
        Some((frame, entered_at))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn model(up: u64, down: u64, agg: u64, buf: usize) -> ForwardingModel {
        ForwardingModel {
            up_bps: up,
            down_bps: down,
            aggregate_bps: agg,
            buffer_up: buf,
            buffer_down: buf,
            per_packet_overhead: Duration::ZERO,
        }
    }

    /// Drives the engine like the gateway node does and returns the
    /// departure times of `n` packets of `len` bytes all enqueued at t=0.
    fn drain(engine: &mut ForwardingEngine, dir: FwdDir, n: usize, len: usize) -> Vec<Instant> {
        for _ in 0..n {
            engine.enqueue(dir, vec![0; len], Instant::ZERO);
        }
        let mut now = Instant::ZERO;
        let mut out = Vec::new();
        while let Some(finish) = engine.start_service(now, dir) {
            now = finish;
            engine.complete(dir).unwrap();
            out.push(finish);
        }
        out
    }

    #[test]
    fn unidirectional_rate_is_direction_cap() {
        // 10 packets of 1250 B at 10 Mb/s → 1 ms each.
        let mut e = ForwardingEngine::new(model(10_000_000, 10_000_000, u64::MAX, usize::MAX));
        let times = drain(&mut e, FwdDir::Up, 10, 1250);
        assert_eq!(times.len(), 10);
        assert_eq!(times[0], Instant::from_millis(1));
        assert_eq!(times[9], Instant::from_millis(10));
    }

    #[test]
    fn aggregate_cpu_serializes_directions() {
        // Fast directions, slow shared CPU (1 ms per 1250 B packet).
        let mut e =
            ForwardingEngine::new(model(u64::MAX - 1, u64::MAX - 1, 10_000_000, usize::MAX));
        e.enqueue(FwdDir::Up, vec![0; 1250], Instant::ZERO);
        e.enqueue(FwdDir::Down, vec![0; 1250], Instant::ZERO);
        let f_up = e.start_service(Instant::ZERO, FwdDir::Up).unwrap();
        let f_down = e.start_service(Instant::ZERO, FwdDir::Down).unwrap();
        // The CPU is busy until 1 ms with the up packet; the down packet
        // starts at 1 ms and finishes at 2 ms.
        assert_eq!(f_up, Instant::from_millis(1));
        assert_eq!(f_down, Instant::from_millis(2));
    }

    #[test]
    fn infinite_aggregate_means_parallel_directions() {
        let mut e = ForwardingEngine::new(model(10_000_000, 10_000_000, u64::MAX, usize::MAX));
        e.enqueue(FwdDir::Up, vec![0; 1250], Instant::ZERO);
        e.enqueue(FwdDir::Down, vec![0; 1250], Instant::ZERO);
        let f_up = e.start_service(Instant::ZERO, FwdDir::Up).unwrap();
        let f_down = e.start_service(Instant::ZERO, FwdDir::Down).unwrap();
        assert_eq!(f_up, f_down, "directions should not contend");
    }

    #[test]
    fn buffer_tail_drops() {
        let mut e = ForwardingEngine::new(model(1_000_000, 1_000_000, u64::MAX, 3000));
        assert!(e.enqueue(FwdDir::Down, vec![0; 1500], Instant::ZERO));
        assert!(e.enqueue(FwdDir::Down, vec![0; 1500], Instant::ZERO));
        assert!(!e.enqueue(FwdDir::Down, vec![0; 1500], Instant::ZERO));
        assert_eq!(e.stats(FwdDir::Down).dropped, 1);
        assert_eq!(e.buffered(FwdDir::Down), 3000);
    }

    #[test]
    fn queuing_delay_equals_backlog_over_rate() {
        // 8 packets of 1250 B at 10 Mb/s: the last departs at 8 ms.
        let mut e = ForwardingEngine::new(model(10_000_000, 10_000_000, u64::MAX, usize::MAX));
        let times = drain(&mut e, FwdDir::Down, 8, 1250);
        assert_eq!(*times.last().unwrap(), Instant::from_millis(8));
    }

    #[test]
    fn per_packet_overhead_adds_latency() {
        let mut m = model(u64::MAX - 1, u64::MAX - 1, u64::MAX, usize::MAX);
        m.per_packet_overhead = Duration::from_micros(100);
        let mut e = ForwardingEngine::new(m);
        e.enqueue(FwdDir::Up, vec![0; 100], Instant::ZERO);
        let f = e.start_service(Instant::ZERO, FwdDir::Up).unwrap();
        assert_eq!(f, Instant::from_micros(100));
    }

    #[test]
    fn stats_count_forwarded() {
        let mut e = ForwardingEngine::new(model(u64::MAX - 1, u64::MAX - 1, u64::MAX, usize::MAX));
        drain(&mut e, FwdDir::Up, 5, 200);
        let s = e.stats(FwdDir::Up);
        assert_eq!(s.forwarded, 5);
        assert_eq!(s.forwarded_bytes, 1000);
    }
}
