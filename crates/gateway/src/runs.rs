//! The NAT table's expiry queues: a min-queue of `(at, seq, item)` entries
//! kept as a few FIFO runs, each non-decreasing in `at`.
//!
//! Every NAT deadline is `f(now)` for one of a handful of non-decreasing
//! functions of the clock: the quantized TCP idle timeout, the 10 s FIN
//! linger, `now` itself for a RST, and the quantized UDP pattern and
//! service timeouts. The clock never moves back, so the deadlines of one
//! such *family* arrive in non-decreasing order. An insert appends to the
//! first run whose tail is at or before its deadline (first fit) and opens
//! a new run only when every tail is later. That keeps at most one run per
//! family: each run's tail ends a strictly decreasing chain of deadlines,
//! one per run to its left, handed out in insertion order, and under a
//! non-decreasing clock such a chain needs a strictly decreasing sequence
//! of families. An insert is therefore a scan of a few run tails plus an
//! append, and a re-timed binding costs O(1) however many are live.
//!
//! Pops come out in ascending `(at, seq)` order, exactly a binary heap's
//! order with the same tie-break, whatever the deadlines: a run receives
//! its entries in non-decreasing `at` and increasing `seq`, so its head is
//! its minimum, and [`RunQueue::pop_due`] takes the least head. Monotone
//! deadlines only keep the run count small; the tests check both halves
//! against a `BinaryHeap` oracle.

use std::collections::VecDeque;

use hgw_core::Cleared;

#[derive(Debug)]
struct Entry<T> {
    at: u64,
    seq: u64,
    item: T,
}

/// A min-queue of `(at, seq, item)` entries ordered by `(at, seq)`; `seq`
/// must be handed out in increasing order by the caller.
#[derive(Debug)]
pub(crate) struct RunQueue<T> {
    /// The non-empty runs. First fit keeps their tails strictly decreasing
    /// from first to last, and a run that empties leaves the list.
    runs: Vec<VecDeque<Entry<T>>>,
    /// Emptied runs, kept for their capacity.
    spare: Vec<VecDeque<Entry<T>>>,
    /// The least `at` among the run heads, `u64::MAX` when empty: a
    /// [`RunQueue::pop_due`] with nothing due costs one compare.
    head_min: u64,
    /// Entries queued, over all runs.
    len: usize,
}

impl<T> RunQueue<T> {
    /// An empty queue.
    pub(crate) fn new() -> RunQueue<T> {
        RunQueue { runs: Vec::new(), spare: Vec::new(), head_min: u64::MAX, len: 0 }
    }

    /// Entries currently queued.
    pub(crate) fn len(&self) -> usize {
        self.len
    }

    /// Non-empty runs currently held.
    #[cfg(test)]
    pub(crate) fn run_count(&self) -> usize {
        self.runs.len()
    }

    /// Files an entry at the tail of the first run it does not precede.
    #[inline]
    pub(crate) fn insert(&mut self, at: u64, seq: u64, item: T) {
        self.head_min = self.head_min.min(at);
        self.len += 1;
        let entry = Entry { at, seq, item };
        for run in &mut self.runs {
            if run.back().is_some_and(|tail| tail.at <= at) {
                run.push_back(entry);
                return;
            }
        }
        let mut run = self.spare.pop().unwrap_or_default();
        run.push_back(entry);
        self.runs.push(run);
    }

    /// Removes and returns the minimal entry if its deadline is at or
    /// before `bound` (inclusive).
    #[inline]
    pub(crate) fn pop_due(&mut self, bound: u64) -> Option<(u64, u64, T)> {
        if self.head_min > bound || self.runs.is_empty() {
            return None;
        }
        let head = |run: &VecDeque<Entry<T>>| {
            let e = run.front().expect("runs are never empty");
            (e.at, e.seq)
        };
        let mut best = 0;
        for i in 1..self.runs.len() {
            if head(&self.runs[i]) < head(&self.runs[best]) {
                best = i;
            }
        }
        let run = &mut self.runs[best];
        let e = run.pop_front().expect("runs are never empty");
        self.len -= 1;
        if run.is_empty() {
            let run = self.runs.remove(best);
            self.spare.push(run);
        }
        self.head_min = self.runs.iter().map(|run| head(run).0).min().unwrap_or(u64::MAX);
        Some((e.at, e.seq, e.item))
    }

    /// Keeps only the entries for which `keep(seq, item)` holds. Filtering
    /// leaves every run non-decreasing in `(at, seq)`, so pops keep their
    /// order; a run it empties joins the spares. (Run tails may no longer
    /// decrease from first to last, which costs at most extra runs.)
    pub(crate) fn retain(&mut self, mut keep: impl FnMut(u64, &T) -> bool) {
        let mut i = 0;
        while i < self.runs.len() {
            self.runs[i].retain(|e| keep(e.seq, &e.item));
            if self.runs[i].is_empty() {
                let run = self.runs.remove(i);
                self.spare.push(run);
            } else {
                i += 1;
            }
        }
        self.len = self.runs.iter().map(VecDeque::len).sum();
        self.head_min = self.runs.iter().map(|run| run[0].at).min().unwrap_or(u64::MAX);
    }

    /// Drops every entry, keeping the runs' capacity.
    pub(crate) fn clear(&mut self) {
        self.spare.extend(self.runs.drain(..).map(Cleared::cleared));
        self.head_min = u64::MAX;
        self.len = 0;
    }
}

impl<T> Cleared for RunQueue<T> {
    fn cleared(mut self) -> Self {
        self.clear();
        self
    }
}

impl<T> Default for RunQueue<T> {
    fn default() -> Self {
        RunQueue::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hgw_core::SimRng;
    use std::cmp::Reverse;
    use std::collections::BinaryHeap;

    /// A run queue and a `BinaryHeap` ordered by `(at, seq)` driven in
    /// lockstep: every pop asserts both agree.
    #[derive(Default)]
    struct Lockstep {
        runs: RunQueue<u32>,
        oracle: BinaryHeap<Reverse<(u64, u64, u32)>>,
        seq: u64,
    }

    impl Lockstep {
        fn insert(&mut self, at: u64) {
            self.runs.insert(at, self.seq, self.seq as u32);
            self.oracle.push(Reverse((at, self.seq, self.seq as u32)));
            self.seq += 1;
        }

        /// Pops everything due at `bound` from both; returns the count.
        fn pop_due(&mut self, bound: u64) -> usize {
            let mut popped = 0;
            loop {
                let want = match self.oracle.peek() {
                    Some(&Reverse((at, _, _))) if at <= bound => self.oracle.pop().map(|r| r.0),
                    _ => None,
                };
                assert_eq!(self.runs.pop_due(bound), want);
                if want.is_none() {
                    return popped;
                }
                popped += 1;
            }
        }

        fn clear(&mut self) {
            self.runs.clear();
            self.oracle.clear();
        }

        /// Keeps the entries whose seq `keep` accepts, in both.
        fn retain(&mut self, keep: impl Fn(u64) -> bool) {
            self.runs.retain(|seq, _| keep(seq));
            self.oracle.retain(|r| keep(r.0 .1));
        }

        fn check_len(&self) {
            assert_eq!(self.runs.len(), self.oracle.len());
        }
    }

    /// Deadlines `f(now)` from a few families under a non-decreasing clock,
    /// the shape NAT refreshes, FIN lingers and RSTs produce: the run count
    /// never exceeds the number of families, and pops match the oracle.
    #[test]
    fn family_deadlines_keep_one_run_per_family() {
        const SEC: u64 = 1_000_000_000;
        // now, +10 s linger, 2 h quantized to 1 s, +30 s quantized to 60 s.
        let families: [fn(u64) -> u64; 4] = [
            |now| now,
            |now| now + 10 * SEC,
            |now| (now + 7_200 * SEC).div_ceil(SEC) * SEC,
            |now| (now + 30 * SEC).div_ceil(60 * SEC) * 60 * SEC,
        ];
        for seed in 1..=6 {
            let mut rng = SimRng::new(seed);
            let mut q = Lockstep::default();
            let mut now = 0u64;
            let mut peak_runs = 0;
            let mut popped = 0;
            for op in 0..20_000 {
                now += match rng.below(100) {
                    0 => 600 * SEC + rng.below(7_200 * SEC),
                    1..=20 => rng.below(2 * SEC),
                    _ => rng.below(SEC / 100),
                };
                match rng.below(10) {
                    0..=6 => q.insert(families[rng.below(4) as usize](now)),
                    7 | 8 => popped += q.pop_due(now),
                    _ => popped += q.pop_due(now.saturating_sub(rng.below(SEC))),
                }
                if op % 5_000 == 4_999 {
                    q.clear();
                }
                q.check_len();
                peak_runs = peak_runs.max(q.runs.run_count());
                assert!(q.runs.run_count() <= families.len(), "seed {seed} op {op}");
            }
            assert!(popped > 1_000, "seed {seed}: only {popped} entries came due");
            assert!(peak_runs >= 2, "seed {seed}: the families never split into runs");
            q.pop_due(u64::MAX);
            assert_eq!(q.runs.run_count(), 0);
        }
    }

    /// Arbitrary deadlines, earlier and later than anything queued: order
    /// must not depend on monotone inputs, only the run count does.
    #[test]
    fn arbitrary_deadlines_pop_in_heap_order() {
        for seed in 10..=15 {
            let mut rng = SimRng::new(seed);
            let mut q = Lockstep::default();
            for op in 0..6_000 {
                match rng.below(20) {
                    0..=11 => q.insert(rng.below(1 << 20)),
                    12 => q.insert(u64::MAX - rng.below(2)),
                    13..=17 => {
                        q.pop_due(rng.below(1 << 20));
                    }
                    18 => {
                        q.pop_due(u64::MAX);
                    }
                    _ => q.insert(rng.below(4)), // ties on a few ticks
                }
                if op % 1_500 == 1_499 {
                    q.clear();
                }
                q.check_len();
            }
            q.pop_due(u64::MAX);
            q.check_len();
        }
    }

    /// Filtering between inserts and pops, down to empty runs and an
    /// empty queue, never changes the pop order of what is left.
    #[test]
    fn retain_keeps_heap_order() {
        for seed in 20..=25 {
            let mut rng = SimRng::new(seed);
            let mut q = Lockstep::default();
            for op in 0..6_000 {
                match rng.below(24) {
                    0..=13 => q.insert(rng.below(1 << 16)),
                    14..=19 => {
                        q.pop_due(rng.below(1 << 16));
                    }
                    20..=22 => {
                        let (modulus, rest) = (2 + rng.below(5), rng.below(2));
                        q.retain(|seq| seq % modulus != rest);
                    }
                    _ => q.retain(|_| false),
                }
                q.check_len();
                assert!(q.runs.runs.iter().all(|run| !run.is_empty()), "seed {seed} op {op}");
            }
            q.pop_due(u64::MAX);
            q.check_len();
        }
    }

    #[test]
    fn ties_pop_in_seq_order_across_runs() {
        let mut q = RunQueue::new();
        q.insert(10, 0, 'a');
        q.insert(5, 1, 'b'); // opens a second run
        q.insert(10, 2, 'c'); // appends to the first
        q.insert(5, 3, 'd'); // the first run's tail is later: joins the second
        assert_eq!(q.run_count(), 2);
        assert_eq!(q.pop_due(4), None);
        assert_eq!(q.pop_due(5), Some((5, 1, 'b')));
        assert_eq!(q.pop_due(5), Some((5, 3, 'd')));
        assert_eq!(q.pop_due(5), None);
        assert_eq!(q.run_count(), 1, "an emptied run leaves the list");
        assert_eq!(q.pop_due(u64::MAX), Some((10, 0, 'a')));
        assert_eq!(q.pop_due(u64::MAX), Some((10, 2, 'c')));
        assert_eq!(q.pop_due(u64::MAX), None);
        assert_eq!(q.len(), 0);
    }

    #[test]
    fn clear_keeps_the_runs_for_reuse() {
        let mut q = RunQueue::new();
        for seq in 0..64 {
            q.insert(100 - seq, seq, ());
        }
        assert_eq!(q.run_count(), 64);
        q.clear();
        assert_eq!((q.len(), q.run_count(), q.spare.len()), (0, 0, 64));
        assert_eq!(q.pop_due(u64::MAX), None);
        q.insert(7, 64, ());
        assert_eq!(q.spare.len(), 63);
        assert_eq!(q.pop_due(7), Some((7, 64, ())));
    }
}
