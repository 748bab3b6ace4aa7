//! A hierarchical timing wheel: the simulator's event queue.
//!
//! A `BinaryHeap` pays `O(log n)` in comparisons *and* in moves of the
//! stored payload on every push and pop, and the heap's sift paths are
//! branchy enough to stall the event loop's hot path. A timing wheel
//! instead files each deadline into a slot picked by pure bit arithmetic:
//! eleven levels of 64 slots, six bits of the deadline per level, cover the
//! full `u64` nanosecond timeline. An entry lands at the level of the
//! highest bit in which its deadline differs from the wheel's cursor, so
//! near deadlines sit in fine slots and hour-scale timers (a DHCP lease,
//! the UDP-1 binary search's 2-hour waits) sit in coarse ones; as the cursor
//! advances, coarse slots cascade down into finer ones. Filing into a slot
//! is `O(1)`; pop is amortized `O(1)` with a worst case bounded by the
//! cascade depth (11 levels). An entry that lands at or behind the cursor
//! instead joins the sorted `due` run, at a cost linear in the number of
//! run entries between it and the run's near end; nothing bounds the run's
//! length (`SORTED_CAP` bounds only the fast path onto it).
//!
//! Determinism contract (see DESIGN.md §11): entries pop in strictly
//! ascending `(at, seq)` order — exactly the order the `BinaryHeap`
//! scheduler produced with its `(at, seq)` tie-break — provided `seq`
//! values are handed out in increasing order, which the simulator does.
//! The wheel is proven equivalent to a `BinaryHeap`
//! oracle over randomized schedules in this module's tests.
//!
//! Same-tick ordering holds *by construction*, not by sorting: a slot only
//! ever receives entries in ascending `seq` order (direct inserts use the
//! caller's monotonically increasing `seq`; a cascade deposits a coarse
//! slot's entries — themselves in `seq` order — into fine slots that are
//! necessarily empty, because a slot cascades only when every finer level
//! is empty). The `due` run keeps full `(at, seq)` order for the entries
//! that arrive at or behind the cursor.

/// Bits of the deadline consumed per level.
const LEVEL_BITS: u32 = 6;
/// Slots per level (`1 << LEVEL_BITS`).
const SLOTS: usize = 64;
/// Levels needed to cover all 64 bits (`ceil(64 / 6)`).
const LEVELS: usize = 11;
/// Bound on the sorted-run fast path only: an insert *ahead* of the cursor
/// may jump the cursor and join the `due` run (see [`TimerWheel::insert`])
/// only while the run holds fewer than this many entries; past it, such
/// inserts file into slots. Inserts at or *behind* the cursor always join
/// the run, so nothing bounds the run itself, but the event queue keeps it
/// short: it peaks at 27 entries in a 256-connection TCP-4 ramp. Its cost
/// stays low because it is kept in descending order: the inserts and pops
/// touch only its near end.
const SORTED_CAP: usize = 32;

#[derive(Debug)]
struct Entry<T> {
    at: u64,
    seq: u64,
    item: T,
}

/// A min-queue of `(at, seq, item)` entries ordered by `(at, seq)`.
///
/// `at` is an absolute deadline (nanoseconds in this codebase, but the
/// wheel is unit-agnostic); `seq` breaks ties deterministically and must be
/// handed out in increasing order by the caller.
#[derive(Debug)]
pub struct TimerWheel<T> {
    /// The wheel's notion of "now": every entry still filed in a slot has
    /// `at > cursor`. Only ever advances.
    cursor: u64,
    /// Entries at or behind the cursor, in *descending* `(at, seq)` order:
    /// the last element is the global minimum whenever the run is
    /// non-empty, so pops take from the back and the near deadlines that
    /// most inserts carry land within a few entries of it.
    due: Vec<Entry<T>>,
    /// `LEVELS * SLOTS` slot buckets, level-major. Empty until the first
    /// entry is filed: a wheel whose entries all stay in the `due` run
    /// never builds its levels.
    slots: Vec<Vec<Entry<T>>>,
    /// Per-level bitmap of non-empty slots.
    occupied: [u64; LEVELS],
    /// Summary bitmask: bit `L` is set iff level `L` has an occupied slot.
    /// `levels.trailing_zeros()` is the lowest occupied level, which gates
    /// the sorted-run fast path in [`TimerWheel::insert`].
    levels: u64,
    len: usize,
}

impl<T> TimerWheel<T> {
    /// An empty wheel with its cursor at 0.
    pub fn new() -> TimerWheel<T> {
        TimerWheel {
            cursor: 0,
            due: Vec::new(),
            slots: Vec::new(),
            occupied: [0; LEVELS],
            levels: 0,
            len: 0,
        }
    }

    /// Drops every entry and moves the cursor back to 0: the state
    /// [`TimerWheel::new`] returns, except that levels already built stay
    /// built and the `due` run keeps its capacity. Pop order depends only
    /// on `(at, seq)`, never on whether the levels exist, so a cleared
    /// wheel behaves exactly like a fresh one.
    ///
    /// The slot buckets' own allocations are freed: a bucket keeps the peak
    /// of whatever deadlines once mapped to it, and over many reuses those
    /// peaks would add up across all 704 slots (a TCP-4 ramp's events in
    /// every slot they ever touched) instead of staying one run's worth.
    pub fn clear(&mut self) {
        for bucket in &mut self.slots {
            *bucket = Vec::new();
        }
        self.due.clear();
        self.cursor = 0;
        self.occupied = [0; LEVELS];
        self.levels = 0;
        self.len = 0;
    }

    /// Entries currently queued.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True if no entries are queued.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Files an entry. `seq` values must be handed out in increasing order
    /// across all inserts for the pop order to be deterministic.
    #[inline]
    pub fn insert(&mut self, at: u64, seq: u64, item: T) {
        self.len += 1;
        if at <= self.cursor {
            // At or behind the cursor (the cursor runs ahead of the
            // caller's clock once a far deadline took the fast path below,
            // or a peek cascaded to one): keep the run sorted. Scan from
            // the near end, where a near deadline lands; the far timers
            // that put the cursor ahead sit at the other end and never
            // move.
            let mut idx = self.due.len();
            while idx > 0 && (self.due[idx - 1].at, self.due[idx - 1].seq) < (at, seq) {
                idx -= 1;
            }
            self.due.insert(idx, Entry { at, seq, item });
            return;
        }
        // Sorted-run fast path: if this deadline differs from the cursor
        // only at digits *below* every occupied level, jumping the cursor
        // to it is invisible to the slots — each filed entry still differs
        // from the cursor first at exactly its own level (the digits the
        // jump changes sit below all of them), so the "lowest occupied
        // level holds the global minimum" refill rule stays intact, and
        // every filed deadline provably exceeds `at`. The entry then
        // becomes the far end of the sorted due run (it beats the old
        // cursor, hence everything in `due`, and carries the largest seq),
        // skipping slot filing and the later cascade entirely. In this
        // regime the wheel degenerates into an insertion-sorted array,
        // which beats file-and-cascade at the shallow depths the
        // simulator's event loop actually runs at: a bulk TCP transfer
        // keeps ~4-10 near events outstanding below far-future RTO and
        // lease timers. The length cap bounds the shift this front insert
        // pays, and hands deep queues to slot filing.
        let gate = match self.levels.trailing_zeros() as usize {
            l if l >= LEVELS => u64::MAX,
            lowest => (1u64 << (LEVEL_BITS * lowest as u32)) - 1,
        };
        if at ^ self.cursor <= gate && self.due.len() < SORTED_CAP {
            self.cursor = at;
            self.due.insert(0, Entry { at, seq, item });
            return;
        }
        self.file(Entry { at, seq, item });
    }

    /// Files an entry with `at > cursor` into its slot.
    fn file(&mut self, e: Entry<T>) {
        debug_assert!(e.at > self.cursor);
        if self.slots.is_empty() {
            self.slots = (0..LEVELS * SLOTS).map(|_| Vec::new()).collect();
        }
        let level = ((63 - (e.at ^ self.cursor).leading_zeros()) / LEVEL_BITS) as usize;
        let slot = ((e.at >> (LEVEL_BITS * level as u32)) & (SLOTS as u64 - 1)) as usize;
        let bucket = &mut self.slots[level * SLOTS + slot];
        // Same-tick determinism: buckets stay seq-ascending by construction.
        debug_assert!(bucket.last().is_none_or(|last| last.seq < e.seq));
        bucket.push(e);
        self.occupied[level] |= 1 << slot;
        self.levels |= 1 << level;
    }

    /// Refills the `due` run from the wheel, advancing the cursor to the
    /// earliest pending deadline. No-op when `due` is already non-empty or
    /// the wheel is drained.
    #[inline]
    fn ensure_due(&mut self) {
        if !self.due.is_empty() {
            return;
        }
        self.refill_due();
    }

    /// The slow half of [`TimerWheel::ensure_due`]: cascade slots until the
    /// due run holds the minimum. Kept out of line so the common
    /// run-already-primed path stays a single branch at the call sites.
    fn refill_due(&mut self) {
        while self.due.is_empty() {
            // The lowest occupied level holds the globally minimal entry:
            // an entry at level k differs from the cursor first at digit k,
            // so it exceeds every deadline filed at a lower level (which
            // shares all digits above k-1 with the cursor).
            let level = self.levels.trailing_zeros() as usize;
            if level >= LEVELS {
                return;
            }
            // Every occupied slot index is greater than the cursor's digit
            // at this level, so the lowest set bit is the next in time.
            let slot = self.occupied[level].trailing_zeros() as usize;
            let idx = level * SLOTS + slot;
            let mut entries = std::mem::take(&mut self.slots[idx]);
            self.occupied[level] &= !(1u64 << slot);
            if self.occupied[level] == 0 {
                self.levels &= !(1u64 << level);
            }
            let shift = LEVEL_BITS * level as u32;
            if level == 0 {
                // A level-0 slot is one exact tick; the bucket is in seq
                // order, so it becomes the due run reversed.
                self.cursor = (self.cursor & !(SLOTS as u64 - 1)) | slot as u64;
                debug_assert!(entries.iter().all(|e| e.at == self.cursor));
                self.due.extend(entries.drain(..).rev());
                self.slots[idx] = entries; // keep the allocation warm
                return;
            }
            // Cascade: advance the cursor to the slot's base time and
            // re-file its entries one level (or more) down. Entries equal
            // to the new cursor go straight to `due`.
            let above = if shift + LEVEL_BITS >= 64 { 0 } else { u64::MAX << (shift + LEVEL_BITS) };
            self.cursor = (self.cursor & above) | ((slot as u64) << shift);
            for e in entries.drain(..) {
                if e.at <= self.cursor {
                    debug_assert!(e.at == self.cursor);
                    self.due.push(e); // bucket order is seq order
                } else {
                    self.file(e);
                }
            }
            // The run was empty before this cascade: flip the seq-ascending
            // entries it received into the run's descending order.
            self.due.reverse();
            self.slots[idx] = entries;
        }
    }

    /// The `(at, seq)` of the minimal entry, without removing it. Takes
    /// `&mut self` because finding the minimum may advance the cursor.
    #[inline]
    pub fn peek(&mut self) -> Option<(u64, u64)> {
        self.ensure_due();
        self.due.last().map(|e| (e.at, e.seq))
    }

    /// Removes and returns the minimal entry.
    #[inline]
    pub fn pop(&mut self) -> Option<(u64, u64, T)> {
        self.ensure_due();
        let e = self.due.pop()?;
        self.len -= 1;
        Some((e.at, e.seq, e.item))
    }

    /// Removes and returns the minimal entry iff `pred` accepts it.
    #[inline]
    pub fn pop_if(&mut self, pred: impl FnOnce(u64, u64, &T) -> bool) -> Option<(u64, u64, T)> {
        self.ensure_due();
        let e = self.due.last()?;
        if !pred(e.at, e.seq, &e.item) {
            return None;
        }
        let e = self.due.pop().expect("minimum exists");
        self.len -= 1;
        Some((e.at, e.seq, e.item))
    }

    /// Removes and returns the minimal entry if its deadline is at or
    /// before `bound` (inclusive, matching a `BTreeMap` range sweep).
    pub fn pop_due(&mut self, bound: u64) -> Option<(u64, u64, T)> {
        self.pop_if(|at, _, _| at <= bound)
    }
}

impl<T> crate::Cleared for TimerWheel<T> {
    fn cleared(mut self) -> Self {
        self.clear();
        self
    }
}

impl<T> Default for TimerWheel<T> {
    fn default() -> Self {
        TimerWheel::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::SimRng;
    use std::cmp::Reverse;
    use std::collections::BinaryHeap;

    /// The retired scheduler, kept as the differential oracle: a binary
    /// heap ordered by `(at, seq)` exactly as `Simulator` used before the
    /// wheel replaced it.
    #[derive(Default)]
    struct HeapOracle {
        heap: BinaryHeap<Reverse<(u64, u64, u32)>>,
    }

    impl HeapOracle {
        fn insert(&mut self, at: u64, seq: u64, item: u32) {
            self.heap.push(Reverse((at, seq, item)));
        }
        fn pop(&mut self) -> Option<(u64, u64, u32)> {
            self.heap.pop().map(|Reverse(e)| e)
        }
        fn peek(&self) -> Option<(u64, u64)> {
            self.heap.peek().map(|&Reverse((at, seq, _))| (at, seq))
        }
        fn pop_due(&mut self, bound: u64) -> Option<(u64, u64, u32)> {
            match self.heap.peek() {
                Some(&Reverse((at, _, _))) if at <= bound => self.pop(),
                _ => None,
            }
        }
        fn pop_if(&mut self, pred: impl FnOnce(u64, u64, u32) -> bool) -> Option<(u64, u64, u32)> {
            match self.heap.peek() {
                Some(&Reverse((at, seq, item))) if pred(at, seq, item) => self.pop(),
                _ => None,
            }
        }
    }

    /// A wheel and its heap oracle driven in lockstep: every pop-side call
    /// asserts both agree.
    #[derive(Default)]
    struct Lockstep {
        wheel: TimerWheel<u32>,
        oracle: HeapOracle,
        seq: u64,
    }

    impl Lockstep {
        fn insert(&mut self, at: u64) {
            self.wheel.insert(at, self.seq, self.seq as u32);
            self.oracle.insert(at, self.seq, self.seq as u32);
            self.seq += 1;
        }
        fn pop(&mut self) -> Option<(u64, u64, u32)> {
            let got = self.wheel.pop();
            assert_eq!(got, self.oracle.pop());
            got
        }
        fn pop_if(&mut self, pred: impl Fn(u64, u64, u32) -> bool) -> Option<(u64, u64, u32)> {
            let got = self.wheel.pop_if(|at, seq, &item| pred(at, seq, item));
            assert_eq!(got, self.oracle.pop_if(pred));
            got
        }
        fn peek(&mut self) -> Option<(u64, u64)> {
            let got = self.wheel.peek();
            assert_eq!(got, self.oracle.peek());
            got
        }
        fn drain(&mut self) {
            while self.pop().is_some() {}
            assert!(self.wheel.is_empty());
        }
    }

    /// Drives the wheel and the heap oracle through an identical randomized
    /// schedule and asserts every observable agrees. `deadline_of` shapes
    /// the deadline distribution so callers can focus bursts, far futures,
    /// or dense ticks.
    fn differential(seed: u64, ops: usize, deadline_of: impl Fn(&mut SimRng, u64) -> u64) {
        let mut rng = SimRng::new(seed);
        let mut wheel = TimerWheel::new();
        let mut oracle = HeapOracle::default();
        let mut seq = 0u64;
        let mut floor = 0u64; // max deadline ever popped; inserts stay >= it
        for op in 0..ops {
            match rng.below(10) {
                // 60%: insert.
                0..=5 => {
                    let at = deadline_of(&mut rng, floor);
                    wheel.insert(at, seq, op as u32);
                    oracle.insert(at, seq, op as u32);
                    seq += 1;
                }
                // 20%: pop.
                6 | 7 => {
                    let got = wheel.pop();
                    assert_eq!(got, oracle.pop(), "op {op} (seed {seed})");
                    if let Some((at, _, _)) = got {
                        floor = floor.max(at);
                    }
                }
                // 10%: bounded pop (the NAT sweep pattern).
                8 => {
                    let bound = floor.saturating_add(rng.below(1 << 34));
                    loop {
                        let got = wheel.pop_due(bound);
                        assert_eq!(got, oracle.pop_due(bound), "op {op} (seed {seed})");
                        match got {
                            Some((at, _, _)) => floor = floor.max(at),
                            None => break,
                        }
                    }
                }
                // 10%: peek (advances the wheel cursor, a non-event for
                // the oracle — order must still agree afterwards).
                _ => assert_eq!(wheel.peek(), oracle.peek(), "op {op} (seed {seed})"),
            }
            assert_eq!(wheel.len(), oracle.heap.len());
        }
        // Drain both completely.
        while let Some(got) = wheel.pop() {
            assert_eq!(Some(got), oracle.pop());
        }
        assert_eq!(oracle.pop(), None);
        assert!(wheel.is_empty());
    }

    #[test]
    fn matches_heap_on_mixed_horizon_schedules() {
        // Deadlines spread from nanoseconds to ~4-hour horizons: the mix a
        // gateway run produces (per-frame events + NAT binding timeouts).
        for seed in 1..=8 {
            differential(seed, 4_000, |rng, floor| {
                let spread = match rng.below(4) {
                    0 => rng.below(1 << 10),         // ~1 us
                    1 => rng.below(1 << 24),         // ~16 ms
                    2 => rng.below(1 << 34),         // ~17 s
                    _ => rng.below(14_400u64 << 30), // ~4 h in ns
                };
                floor.saturating_add(spread)
            });
        }
    }

    #[test]
    fn matches_heap_on_same_tick_bursts() {
        // Dense ties: many entries on few distinct ticks, so the seq
        // tie-break carries the full ordering burden (the bulk-TCP
        // same-link train shape).
        for seed in 20..=25 {
            differential(seed, 4_000, |rng, floor| floor.saturating_add(rng.below(4) * 1000));
        }
    }

    #[test]
    fn matches_heap_on_far_future_extremes() {
        // Deadlines hugging u64::MAX (Instant::FAR_FUTURE sentinels) mixed
        // with near ones; exercises the top level and saturation edges.
        for seed in 40..=43 {
            differential(seed, 2_000, |rng, floor| {
                if rng.below(4) == 0 {
                    u64::MAX - rng.below(3)
                } else {
                    floor.saturating_add(rng.below(1 << 20))
                }
            });
        }
    }

    #[test]
    fn matches_heap_on_the_bulk_shape() {
        // The shape a bulk TCP transfer gives the event queue: an RTO at
        // +200 ms and a DHCP lease at +1 h pull the cursor far ahead, and
        // ~10 near events (link completions, deliveries) are inserted
        // behind it and popped, with a rejected delivery-train `pop_if`
        // after each pop. The RTO is re-armed (a fresh entry) now and then.
        const MS: u64 = 1_000_000;
        for seed in 60..=63 {
            let mut rng = SimRng::new(seed);
            let mut q = Lockstep::default();
            q.insert(200 * MS);
            q.insert(3_600_000 * MS);
            let mut now = 0;
            for _ in 0..10 {
                q.insert(now + 1 + rng.below(50_000));
            }
            let mut behind = 0;
            for round in 0..5_000 {
                let (at, _, item) = q.pop().expect("near events stay queued");
                now = at;
                assert_eq!(q.pop_if(|t, _, i| t == now && i % 7 == item % 7 && i < item), None);
                let near = now + 1 + rng.below(50_000);
                behind += usize::from(near <= q.wheel.cursor);
                q.insert(near);
                if round % 100 == 0 {
                    q.insert(now + 200 * MS);
                }
            }
            assert!(behind > 4_900, "only {behind} of 5000 near inserts landed behind the cursor");
            q.drain();
        }
    }

    #[test]
    fn matches_heap_on_a_long_run_behind_the_cursor() {
        // The TCP-4 ramp shape: one far timer moves the cursor ahead, then
        // hundreds of near deadlines pile up behind it in random order,
        // with a few pops in between.
        for seed in 70..=72 {
            let mut rng = SimRng::new(seed);
            let mut q = Lockstep::default();
            q.insert(1 << 40);
            let mut floor = 0;
            let mut longest = 0;
            for i in 0..800 {
                q.insert(floor + rng.below(1 << 20));
                if i % 16 == 15 {
                    floor = q.pop().expect("queued").0;
                }
                longest = longest.max(q.wheel.due.len());
            }
            assert!(longest >= 600, "the run peaked at {longest} entries");
            q.drain();
        }
    }

    #[test]
    fn peek_then_earlier_inserts_match_heap() {
        // A peek cascades the cursor to the next deadline without popping
        // it; inserts earlier than (or tied with) that deadline must still
        // pop in order, at every level the cascade crossed.
        for seed in 80..=85 {
            let mut rng = SimRng::new(seed);
            let mut q = Lockstep::default();
            let mut floor = 0u64;
            for _ in 0..300 {
                for _ in 0..4 {
                    let level = 1 + rng.below(6);
                    q.insert(floor + 1 + rng.below(1 << (6 * level)));
                }
                let (peeked, _) = q.peek().expect("queued");
                for _ in 0..3 {
                    q.insert(floor + rng.below(peeked - floor + 1));
                }
                q.insert(peeked);
                floor = q.pop().expect("queued").0;
            }
            q.drain();
        }
    }

    #[test]
    fn levels_are_built_on_first_file() {
        let mut w = TimerWheel::new();
        for seq in 0..SORTED_CAP as u64 {
            w.insert(10 * (seq + 1), seq, ());
        }
        w.insert(5, 32, ());
        assert!(w.slots.is_empty(), "entries that stay in the run build no levels");
        // The run is full: the next deadline ahead of the cursor files.
        w.insert(1 << 20, 33, ());
        assert_eq!(w.slots.len(), LEVELS * SLOTS);
        assert_eq!(w.pop(), Some((5, 32, ())));
    }

    #[test]
    fn pops_in_at_then_seq_order() {
        let mut w = TimerWheel::new();
        w.insert(500, 0, 'a');
        w.insert(100, 1, 'b');
        w.insert(100, 2, 'c');
        w.insert(u64::MAX, 3, 'd');
        w.insert(0, 4, 'e');
        assert_eq!(w.pop(), Some((0, 4, 'e')));
        assert_eq!(w.pop(), Some((100, 1, 'b')));
        assert_eq!(w.pop(), Some((100, 2, 'c')));
        assert_eq!(w.pop(), Some((500, 0, 'a')));
        assert_eq!(w.pop(), Some((u64::MAX, 3, 'd')));
        assert_eq!(w.pop(), None);
        assert!(w.is_empty());
    }

    #[test]
    fn insert_behind_cursor_after_peek_still_orders() {
        let mut w = TimerWheel::new();
        w.insert(1_000_000, 0, "far");
        // Peek advances the cursor to 1 ms even though nothing popped.
        assert_eq!(w.peek(), Some((1_000_000, 0)));
        // A later insert behind the cursor must still pop first.
        w.insert(500, 1, "near");
        w.insert(1_000_000, 2, "tied");
        assert_eq!(w.pop(), Some((500, 1, "near")));
        assert_eq!(w.pop(), Some((1_000_000, 0, "far")));
        assert_eq!(w.pop(), Some((1_000_000, 2, "tied")));
    }

    #[test]
    fn pop_due_bound_is_inclusive() {
        let mut w = TimerWheel::new();
        w.insert(100, 0, ());
        w.insert(101, 1, ());
        assert_eq!(w.pop_due(99), None);
        assert_eq!(w.pop_due(100), Some((100, 0, ())));
        assert_eq!(w.pop_due(100), None);
        assert_eq!(w.len(), 1);
        assert_eq!(w.pop_due(u64::MAX), Some((101, 1, ())));
    }

    #[test]
    fn pop_if_lazy_cancellation_at_level_boundaries() {
        // The simulator's delivery-train drain uses pop_if as lazy
        // cancellation: it repeatedly offers the minimum and rejects it the
        // moment the tick or the target node changes. The risky deadlines
        // are the level-boundary ticks (64 = first level-1 slot, 4096 =
        // first level-2 slot, 64^3 ...): a rejected pop_if must not disturb
        // entries whose refill required a cascade across those boundaries.
        let boundaries = [63u64, 64, 65, 4095, 4096, 4097, 262_143, 262_144, 262_145];
        let mut w = TimerWheel::new();
        let mut seq = 0u64;
        // Two "nodes" (0 and 1) with a same-tick train at every boundary.
        for &at in &boundaries {
            for node in [0u64, 1, 0] {
                w.insert(at, seq, node);
                seq += 1;
            }
        }
        let total = w.len();
        let mut drained = 0usize;
        let mut last = (0u64, 0u64);
        while let Some((at, s, node)) = w.pop() {
            assert!((at, s) > last || drained == 0, "order violated at ({at},{s})");
            last = (at, s);
            drained += 1;
            // Drain the same-tick train for this node only, rejecting the
            // first entry of a different node or tick — the exact predicate
            // shape Simulator::step uses.
            while let Some((t2, s2, n2)) = w.pop_if(|t, _, &n| t == at && n == node) {
                assert_eq!(t2, at);
                assert_eq!(n2, node);
                assert!(s2 > last.1);
                last = (t2, s2);
                drained += 1;
            }
            // The rejection must leave the true minimum intact.
            if let Some((pt, ps)) = w.peek() {
                assert!((pt, ps) > last, "rejected entry lost or reordered");
            }
        }
        assert_eq!(drained, total);
        assert!(w.is_empty());
        // Nothing is lost and nothing pops twice across every cascade
        // boundary, and every rejection left the minimum in place.
    }

    #[test]
    fn pop_if_rejection_then_insert_behind_cursor_still_orders() {
        // A peek/rejected-pop_if advances the cursor across a level
        // boundary; an insert landing behind it must still pop first, and
        // the previously rejected boundary entry must follow unharmed.
        let mut w = TimerWheel::new();
        w.insert(4096, 0, "boundary");
        assert_eq!(w.pop_if(|at, _, _| at < 4096), None, "reject after cascade");
        w.insert(64, 1, "behind-cursor");
        w.insert(4096, 2, "tied-late");
        assert_eq!(w.pop(), Some((64, 1, "behind-cursor")));
        assert_eq!(w.pop(), Some((4096, 0, "boundary")));
        assert_eq!(w.pop(), Some((4096, 2, "tied-late")));
        assert!(w.is_empty());
    }

    #[test]
    fn pop_if_inspects_without_committing() {
        let mut w = TimerWheel::new();
        w.insert(7, 0, 42u32);
        assert_eq!(w.pop_if(|_, _, &v| v == 41), None);
        assert_eq!(w.len(), 1);
        assert_eq!(w.pop_if(|at, _, &v| at == 7 && v == 42), Some((7, 0, 42)));
        assert!(w.is_empty());
    }
}
