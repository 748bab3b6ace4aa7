//! A chunked byte queue for TCP stream buffers.
//!
//! `VecDeque<u8>` stream buffers pay per-byte costs on the hottest TCP
//! paths: segment payload extraction iterates `range(..).copied()`, ACK
//! processing `drain`s byte by byte, and the bulk generator `push_back`s
//! each byte. [`ByteQueue`] stores the stream as a FIFO of contiguous
//! chunks so every hot operation moves whole slices (`extend_from_slice`,
//! `copy_from_slice`) instead of bytes.
//!
//! Semantics are those of a plain byte FIFO; the chunk structure is
//! invisible to callers and never affects TCP behavior.
//!
//! Storage circulates instead of churning the allocator: while bytes
//! remain queued, a fully drained front chunk becomes the next tail chunk,
//! so a steady bulk stream reuses the same few chunks. A fresh chunk is
//! sized to its first append (a 1-byte message takes 64 bytes, not a full
//! chunk) and grows in place up to a full 4 KiB chunk. A queue that drains
//! to empty keeps no storage at all.

use std::collections::VecDeque;

/// Full size of each storage chunk. Large enough that an MSS-sized
/// segment copy touches at most two chunks, small enough that a drained
/// queue frees memory promptly.
const CHUNK: usize = 4096;

/// Smallest capacity a fresh chunk is given.
const MIN_CHUNK: usize = 64;

/// A FIFO of bytes stored as contiguous chunks.
#[derive(Debug, Clone, Default)]
pub struct ByteQueue {
    chunks: VecDeque<Vec<u8>>,
    /// Bytes already consumed from the front chunk.
    head: usize,
    len: usize,
    /// A drained front chunk (cleared, `CHUNK` capacity) waiting to become
    /// the next tail chunk; empty whenever the queue is.
    spare: Vec<u8>,
}

impl ByteQueue {
    /// An empty queue.
    pub fn new() -> ByteQueue {
        ByteQueue::default()
    }

    /// Bytes currently queued.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True if no bytes are queued.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The tail chunk, with capacity for `min(want, CHUNK - len)` more
    /// bytes (at least one). A full tail is followed by the spare chunk, or
    /// else by a new one; a short tail grows in place. Either way capacity
    /// is a power of two in `[MIN_CHUNK, CHUNK]`.
    fn tail_with_room(&mut self, want: usize) -> &mut Vec<u8> {
        if self.chunks.back().is_none_or(|c| c.len() >= CHUNK) {
            self.chunks.push_back(std::mem::take(&mut self.spare));
        }
        let tail = self.chunks.back_mut().expect("tail chunk exists");
        let need = (tail.len() + want).min(CHUNK);
        if need > tail.capacity() {
            let cap = need.next_power_of_two().max(MIN_CHUNK);
            tail.reserve_exact(cap - tail.len());
        }
        tail
    }

    /// Appends `data` to the back.
    pub fn extend_from_slice(&mut self, mut data: &[u8]) {
        self.len += data.len();
        while !data.is_empty() {
            let tail = self.tail_with_room(data.len());
            let n = (CHUNK - tail.len()).min(data.len());
            tail.extend_from_slice(&data[..n]);
            data = &data[n..];
        }
    }

    /// Appends `n` generated bytes, calling `f` with each byte's offset
    /// relative to the start of this extension. Bytes land directly in the
    /// tail chunks; no intermediate buffer. Each chunk run is extended once
    /// and then filled through a slice, so a simple generator (the bulk
    /// source's position pattern) compiles to a vectorized fill rather than
    /// a per-byte `push` — this is the hot path that refills the TCP send
    /// buffer on every ACK during a bulk transfer.
    pub fn extend_with(&mut self, n: u64, mut f: impl FnMut(u64) -> u8) {
        self.len += n as usize;
        let mut i = 0u64;
        while i < n {
            let tail = self.tail_with_room((n - i).min(CHUNK as u64) as usize);
            let run = ((CHUNK - tail.len()) as u64).min(n - i);
            let start = tail.len();
            tail.resize(start + run as usize, 0);
            for (j, slot) in tail[start..].iter_mut().enumerate() {
                *slot = f(i + j as u64);
            }
            i += run;
        }
    }

    /// Copies up to `max` bytes, starting `offset` bytes from the front,
    /// onto the end of `out`. Copies whole sub-slices per chunk.
    ///
    /// Every chunk except the last is filled to exactly `CHUNK` bytes
    /// (`tail_with_room` tops a chunk off before opening the next, and
    /// `consume` removes only fully drained chunks), so the chunk holding a
    /// given stream position is index arithmetic, not a scan — this runs
    /// once per TCP segment during a bulk transfer, where a front-to-back
    /// skip over a 128 KiB send buffer would be pure overhead.
    pub fn copy_range_into(&self, offset: usize, max: usize, out: &mut Vec<u8>) {
        let mut want = max.min(self.len.saturating_sub(offset));
        out.reserve(want);
        let pos = self.head + offset;
        let mut idx = pos / CHUNK;
        let mut skip = pos % CHUNK;
        while want > 0 {
            let chunk = &self.chunks[idx];
            let take = (chunk.len() - skip).min(want);
            out.extend_from_slice(&chunk[skip..skip + take]);
            want -= take;
            skip = 0;
            idx += 1;
        }
    }

    /// Like [`ByteQueue::copy_range_into`], but additionally returns the
    /// RFC 1071 byte-pair sum of the copied bytes, computed by the same
    /// fused pass that copies them
    /// ([`copy_and_checksum`](hgw_wire::checksum::copy_and_checksum)).
    ///
    /// The returned accumulator is in big-endian pair space as if the
    /// copied region started at an even offset — exactly what
    /// `TcpRepr::emit_with_payload_sum_onto` expects — so segment emission
    /// never re-reads the payload to checksum it. Chunk sums compose with
    /// the RFC 1071 §2.B byte-swap identity when a chunk boundary lands at
    /// an odd offset within the copied region.
    pub fn copy_range_into_with_sum(&self, offset: usize, max: usize, out: &mut Vec<u8>) -> u32 {
        let mut want = max.min(self.len.saturating_sub(offset));
        out.reserve(want);
        let pos = self.head + offset;
        let mut idx = pos / CHUNK;
        let mut skip = pos % CHUNK;
        let mut acc: u32 = 0;
        let mut copied: usize = 0;
        while want > 0 {
            let chunk = &self.chunks[idx];
            let take = (chunk.len() - skip).min(want);
            let part = hgw_wire::checksum::copy_and_checksum(&chunk[skip..skip + take], out);
            acc += if copied.is_multiple_of(2) {
                part
            } else {
                hgw_wire::checksum::swap_pair_sum(part)
            };
            copied += take;
            want -= take;
            skip = 0;
            idx += 1;
        }
        acc
    }

    /// Discards up to `n` bytes from the front. A drained front chunk is
    /// kept as the spare while bytes remain; an empty queue frees it.
    pub fn consume(&mut self, n: usize) {
        let mut n = n.min(self.len);
        self.len -= n;
        while n > 0 {
            let front_left = self.chunks.front().expect("non-empty queue").len() - self.head;
            if n >= front_left {
                n -= front_left;
                let mut drained = self.chunks.pop_front().expect("non-empty queue");
                self.head = 0;
                drained.clear();
                self.spare = drained;
            } else {
                self.head += n;
                n = 0;
            }
        }
        if self.len == 0 {
            self.spare = Vec::new();
        }
    }

    /// Removes up to `n` bytes from the front and returns them.
    pub fn take_front(&mut self, n: usize) -> Vec<u8> {
        let n = n.min(self.len);
        let mut out = Vec::with_capacity(n);
        self.copy_range_into(0, n, &mut out);
        self.consume(n);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fifo_roundtrip_across_chunk_boundaries() {
        let mut q = ByteQueue::new();
        let data: Vec<u8> = (0..3 * CHUNK + 37).map(|i| (i % 251) as u8).collect();
        q.extend_from_slice(&data);
        assert_eq!(q.len(), data.len());
        let got = q.take_front(data.len());
        assert_eq!(got, data);
        assert!(q.is_empty());
    }

    #[test]
    fn consume_then_copy_range_sees_remaining_bytes() {
        let mut q = ByteQueue::new();
        let data: Vec<u8> = (0..10_000).map(|i| (i % 256) as u8).collect();
        q.extend_from_slice(&data);
        q.consume(1234);
        let mut out = Vec::new();
        q.copy_range_into(100, 5000, &mut out);
        assert_eq!(out, &data[1334..6334]);
        assert_eq!(q.len(), 10_000 - 1234);
    }

    #[test]
    fn copy_range_clamps_to_available_bytes() {
        let mut q = ByteQueue::new();
        q.extend_from_slice(&[1, 2, 3, 4, 5]);
        let mut out = Vec::new();
        q.copy_range_into(3, 100, &mut out);
        assert_eq!(out, &[4, 5]);
        out.clear();
        q.copy_range_into(7, 10, &mut out);
        assert!(out.is_empty());
    }

    #[test]
    fn extend_with_generates_in_order() {
        let mut q = ByteQueue::new();
        q.extend_from_slice(&[0xFF; 10]);
        q.extend_with(2 * CHUNK as u64, |i| (i % 256) as u8);
        q.consume(10);
        let got = q.take_front(2 * CHUNK);
        let want: Vec<u8> = (0..2 * CHUNK as u64).map(|i| (i % 256) as u8).collect();
        assert_eq!(got, want);
    }

    /// Independent pair-sum reference (u64 accumulator, folded to 16 bits).
    fn oracle_pair_sum(data: &[u8]) -> u16 {
        let mut acc: u64 = 0;
        let mut chunks = data.chunks_exact(2);
        for c in &mut chunks {
            acc += u16::from_be_bytes([c[0], c[1]]) as u64;
        }
        if let [last] = chunks.remainder() {
            acc += (*last as u64) << 8;
        }
        while acc > 0xFFFF {
            acc = (acc & 0xFFFF) + (acc >> 16);
        }
        acc as u16
    }

    fn fold32(mut acc: u32) -> u16 {
        while acc > 0xFFFF {
            acc = (acc & 0xFFFF) + (acc >> 16);
        }
        acc as u16
    }

    #[test]
    fn copy_range_with_sum_matches_copy_then_oracle() {
        // Build a queue whose chunk layout is irregular (partial head from
        // consume), then check every interesting offset/length combination:
        // chunk-boundary straddles, odd offsets (forcing the parity swap on
        // the second chunk's sum), odd lengths, and full-queue copies.
        let mut q = ByteQueue::new();
        let data: Vec<u8> = (0..3 * CHUNK + 513).map(|i| (i as u64 * 167 % 251) as u8).collect();
        q.extend_from_slice(&data);
        q.consume(37); // misalign head so pos arithmetic is exercised
        let live = &data[37..];
        for offset in [0usize, 1, 2, CHUNK - 38, CHUNK - 37, CHUNK - 36, 2 * CHUNK] {
            for len in [0usize, 1, 2, 3, 1459, 1460, CHUNK, CHUNK + 1, live.len()] {
                let mut fused = vec![0xEEu8; 2];
                let mut plain = vec![0xEEu8; 2];
                let acc = q.copy_range_into_with_sum(offset, len, &mut fused);
                q.copy_range_into(offset, len, &mut plain);
                assert_eq!(fused, plain, "bytes offset={offset} len={len}");
                assert_eq!(
                    fold32(acc),
                    oracle_pair_sum(&fused[2..]),
                    "sum offset={offset} len={len}"
                );
            }
        }
    }

    /// Every chunk but the last holds exactly `CHUNK` bytes (the index
    /// arithmetic of `copy_range_into` depends on it), and a queue with
    /// nothing in it holds no storage.
    fn assert_chunk_invariant(q: &ByteQueue) {
        let n = q.chunks.len();
        for (i, c) in q.chunks.iter().enumerate() {
            if i + 1 < n {
                assert_eq!(c.len(), CHUNK, "chunk {i} of {n} is not full");
            }
            assert!(c.capacity() <= CHUNK, "chunk {i} over-allocated");
        }
        if q.is_empty() {
            assert!(q.chunks.is_empty(), "a drained queue keeps chunks");
            assert_eq!(q.spare.capacity(), 0, "a drained queue keeps a spare");
            assert_eq!(q.head, 0);
        }
    }

    #[test]
    fn one_byte_append_takes_a_small_chunk() {
        let mut q = ByteQueue::new();
        q.extend_from_slice(&[7]);
        assert_eq!(q.chunks.len(), 1);
        assert!(q.chunks[0].capacity() <= MIN_CHUNK, "cap {}", q.chunks[0].capacity());
        q.consume(1);
        assert_chunk_invariant(&q);
    }

    #[test]
    fn drained_front_chunk_becomes_the_next_tail() {
        let mut q = ByteQueue::new();
        q.extend_from_slice(&[1; CHUNK + 10]);
        let front = q.chunks[0].as_ptr();
        q.consume(CHUNK);
        q.extend_from_slice(&[2; CHUNK]);
        assert_eq!(q.chunks.len(), 2);
        assert_eq!(q.chunks[1].as_ptr(), front, "the drained chunk was reused");
        assert_chunk_invariant(&q);
    }

    #[test]
    fn interleaved_produce_consume_matches_vecdeque_model() {
        let mut q = ByteQueue::new();
        let mut model: VecDeque<u8> = VecDeque::new();
        // Deterministic pseudo-random walk of extends and consumes.
        let mut x: u64 = 0x9E37_79B9_7F4A_7C15;
        let mut produced: u64 = 0;
        for _ in 0..500 {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            let op = x % 3;
            let amount = ((x >> 8) % 600) as usize;
            if op < 2 {
                let bytes: Vec<u8> =
                    (0..amount).map(|i| ((produced + i as u64) % 256) as u8).collect();
                produced += amount as u64;
                q.extend_from_slice(&bytes);
                model.extend(&bytes);
            } else {
                let got = q.take_front(amount);
                let want: Vec<u8> = {
                    let n = amount.min(model.len());
                    model.drain(..n).collect()
                };
                assert_eq!(got, want);
            }
            assert_eq!(q.len(), model.len());
            assert_chunk_invariant(&q);
        }
        let rest = q.take_front(q.len());
        assert_eq!(rest, model.drain(..).collect::<Vec<u8>>());
        assert_chunk_invariant(&q);
    }
}
