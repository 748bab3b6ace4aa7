//! A reusable frame-buffer pool.
//!
//! Every frame in the simulator is a `Vec<u8>`. Without pooling, each
//! delivered frame's buffer is freed at the end of its journey and every
//! new frame (and every fault-injected duplicate) allocates afresh — on a
//! multi-megabyte TCP transfer that is tens of thousands of short-lived
//! heap round-trips. The [`FramePool`] keeps retired buffers and hands them
//! back out, so steady-state traffic recycles a small working set instead.
//!
//! Buffers are kept in two size classes, so that the SYNs, ACKs and short
//! datagrams that make up most frames never make the pool allocate a
//! full-segment buffer: a request for at most `SMALL_FRAME` bytes is
//! served from the small class, whose buffers hold exactly that many, and
//! any larger request from the large class, whose buffers grow in place to
//! fit. A small request that finds its class empty takes an idle large
//! buffer before it allocates: that buffer is held either way, and a bulk
//! transfer, whose data and ACK bursts peak at different times, would
//! otherwise keep a full set of each. A returned buffer joins the class its
//! capacity fits, so callers ask for the size they will fill: a buffer that
//! grows past `SMALL_FRAME` after `get` comes back as a large one.
//!
//! The pool is deterministic: hit/miss counters depend only on the event
//! sequence, never on addresses or wall-clock state, so pooled runs remain
//! bit-for-bit reproducible and the counters surface in
//! [`SimStats`](crate::sim::SimStats).
//!
//! Recycled buffers are always handed out *cleared* (`len == 0`); a buffer
//! can never alias one still in flight, because `put` consumes the only
//! owner.

/// Largest request the small class serves, and the capacity of every
/// buffer it allocates: an option-less TCP/IPv4 header pair (40 bytes)
/// with room for options and a short payload.
const SMALL_FRAME: usize = 128;

/// Upper bound on retained buffers per class; beyond it, returned buffers
/// are freed. Bounds worst-case held memory to roughly
/// `cap × (SMALL_FRAME + largest frame)`.
const RETAIN_CAP: usize = 256;

/// A LIFO pool of retired frame buffers in two size classes.
#[derive(Debug, Default)]
pub struct FramePool {
    /// Buffers of capacity at most `SMALL_FRAME`.
    small: Vec<Vec<u8>>,
    /// Buffers of capacity above `SMALL_FRAME`.
    large: Vec<Vec<u8>>,
    hits: u64,
    misses: u64,
}

impl FramePool {
    /// An empty pool.
    pub fn new() -> FramePool {
        FramePool::default()
    }

    /// Takes a cleared buffer that holds `capacity` bytes without
    /// reallocating: a recycled one from the class `capacity` falls in (a
    /// small request falls back to a large buffer), or a fresh one.
    pub fn get(&mut self, capacity: usize) -> Vec<u8> {
        let recycled = if capacity <= SMALL_FRAME {
            self.small.pop().or_else(|| self.large.pop())
        } else {
            self.large.pop()
        };
        match recycled {
            Some(mut buf) => {
                self.hits += 1;
                debug_assert!(buf.is_empty());
                buf.reserve(capacity);
                buf
            }
            None => {
                self.misses += 1;
                Vec::with_capacity(capacity.max(SMALL_FRAME))
            }
        }
    }

    /// Returns a buffer to the class its capacity fits. Buffers that never
    /// allocated, and buffers beyond their class's retention cap, are
    /// simply dropped.
    pub fn put(&mut self, mut buf: Vec<u8>) {
        let class = match buf.capacity() {
            0 => return,
            c if c <= SMALL_FRAME => &mut self.small,
            _ => &mut self.large,
        };
        if class.len() < RETAIN_CAP {
            buf.clear();
            class.push(buf);
        }
    }

    /// Times a `get` was served from a recycled buffer.
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// Times a `get` had to allocate.
    pub fn misses(&self) -> u64 {
        self.misses
    }

    /// Buffers currently held, over both classes.
    pub fn retained(&self) -> usize {
        self.small.len() + self.large.len()
    }

    /// Bytes of buffer capacity currently held, over both classes.
    pub fn retained_bytes(&self) -> usize {
        self.small.iter().chain(&self.large).map(Vec::capacity).sum()
    }

    /// Moves the other pool's free buffers into this one, class by class,
    /// up to this pool's retention caps (buffers beyond a cap are freed).
    /// Counters are left untouched on both sides: absorption transfers
    /// *capacity*, not history.
    pub fn absorb(&mut self, other: &mut FramePool) {
        absorb_class(&mut self.small, &mut other.small);
        absorb_class(&mut self.large, &mut other.large);
    }

    /// The same buffers under fresh counters: what a reset simulator keeps
    /// of its pool ([`SimCore::reset`](crate::SimCore::reset)).
    pub(crate) fn recycled(self) -> FramePool {
        FramePool { hits: 0, misses: 0, ..self }
    }
}

/// Moves buffers off the top of `from` onto `to` until `to` holds
/// [`RETAIN_CAP`]; the rest of `from` is freed.
fn absorb_class(to: &mut Vec<Vec<u8>>, from: &mut Vec<Vec<u8>>) {
    let keep = from.len().saturating_sub(RETAIN_CAP - to.len());
    to.extend(from.drain(keep..).rev());
    from.clear();
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn get_put_recycles_and_counts() {
        let mut pool = FramePool::new();
        let a = pool.get(100);
        assert_eq!(pool.misses(), 1);
        assert_eq!(a.capacity(), SMALL_FRAME, "small-class buffers are allocated full size");
        pool.put(a);
        assert_eq!(pool.retained(), 1);
        let b = pool.get(SMALL_FRAME);
        assert_eq!(pool.hits(), 1);
        assert!(b.is_empty(), "recycled buffers are handed out cleared");
        assert_eq!(b.capacity(), SMALL_FRAME, "recycled buffers keep their capacity");
    }

    #[test]
    fn small_requests_prefer_small_buffers() {
        let mut pool = FramePool::new();
        pool.put(Vec::with_capacity(1500));
        pool.put(Vec::with_capacity(SMALL_FRAME));
        assert_eq!(pool.get(40).capacity(), SMALL_FRAME);
        // With the small class empty, an idle large buffer serves.
        assert_eq!(pool.get(40).capacity(), 1500);
        assert_eq!((pool.hits(), pool.misses()), (2, 0));
        assert_eq!(pool.get(40).capacity(), SMALL_FRAME, "small misses allocate the class size");
        assert_eq!(pool.misses(), 1);
    }

    #[test]
    fn large_requests_never_take_a_small_buffer() {
        let mut pool = FramePool::new();
        pool.put(Vec::with_capacity(SMALL_FRAME));
        let segment = pool.get(SMALL_FRAME + 1);
        assert_eq!((pool.hits(), pool.misses()), (0, 1));
        assert_eq!(segment.capacity(), SMALL_FRAME + 1, "large misses allocate the request");
        assert_eq!(pool.retained(), 1, "the small buffer stays for a small request");
        assert_eq!(pool.get(0).capacity(), SMALL_FRAME);
    }

    #[test]
    fn large_buffers_grow_to_fit() {
        let mut pool = FramePool::new();
        pool.put(Vec::with_capacity(600));
        let buf = pool.get(1500);
        assert_eq!(pool.hits(), 1);
        assert!(buf.capacity() >= 1500);
    }

    #[test]
    fn returned_buffers_join_the_class_their_capacity_fits() {
        let mut pool = FramePool::new();
        let mut grown = pool.get(0);
        grown.resize(SMALL_FRAME + 1, 0);
        pool.put(grown);
        assert!(pool.get(SMALL_FRAME + 1).capacity() > SMALL_FRAME, "a grown buffer is large");
        assert_eq!((pool.hits(), pool.misses()), (1, 1));
    }

    #[test]
    fn zero_capacity_buffers_are_not_retained() {
        let mut pool = FramePool::new();
        pool.put(Vec::new());
        assert_eq!(pool.retained(), 0);
    }

    #[test]
    fn retention_is_bounded_per_class() {
        let mut pool = FramePool::new();
        for _ in 0..2 * RETAIN_CAP {
            pool.put(vec![0u8; 64]);
        }
        assert_eq!(pool.retained(), RETAIN_CAP);
        for _ in 0..2 * RETAIN_CAP {
            pool.put(vec![0u8; 1500]);
        }
        assert_eq!(pool.retained(), 2 * RETAIN_CAP);
        assert_eq!(pool.retained_bytes(), RETAIN_CAP * (64 + 1500));
    }

    #[test]
    fn recycled_buffer_contents_never_leak() {
        let mut pool = FramePool::new();
        pool.put(vec![0xAA; 512]);
        let buf = pool.get(512);
        assert!(buf.is_empty());
    }

    #[test]
    fn absorb_transfers_buffers_but_not_counters() {
        let mut donor = FramePool::new();
        donor.put(vec![0u8; 64]);
        donor.put(vec![0u8; 64]);
        donor.put(vec![0u8; 1500]);
        let _ = donor.get(64); // donor earns a hit of its own
        let mut pool = FramePool::new();
        let _ = pool.get(64); // pool earns a miss of its own
        pool.absorb(&mut donor);
        assert_eq!(pool.retained(), 2);
        assert_eq!(donor.retained(), 0);
        assert_eq!(pool.hits(), 0, "absorb transfers capacity, not history");
        assert_eq!(pool.misses(), 1);
        assert_eq!(donor.hits(), 1);
        assert_eq!(pool.get(64).capacity(), 64, "absorbed buffers serve later gets");
        assert_eq!(pool.get(1500).capacity(), 1500, "each in its own class");
        assert_eq!(pool.hits(), 2);
    }

    #[test]
    fn absorb_respects_the_retention_caps() {
        let mut donor = FramePool::new();
        for _ in 0..RETAIN_CAP {
            donor.put(vec![0u8; 8]);
            donor.put(vec![0u8; 1500]);
        }
        let mut pool = FramePool::new();
        for _ in 0..RETAIN_CAP - 1 {
            pool.put(vec![0u8; 8]);
        }
        pool.absorb(&mut donor);
        assert_eq!(pool.retained(), 2 * RETAIN_CAP);
        assert_eq!(donor.retained(), 0, "overflow buffers are freed, not stranded");
    }
}
