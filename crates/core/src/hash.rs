//! The one deterministic hasher of the workspace.
//!
//! Index maps over simulator state (the NAT table's session and port
//! indices, a host's TCP demux) key on tiny fixed-size tuples of trusted
//! values, so SipHash's DoS resistance buys nothing there while costing
//! more than the bucket probe itself. A fixed seed also keeps hashing
//! identical across runs and processes.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

/// Multiply-rotate hasher with a fixed seed.
#[derive(Debug, Default)]
pub struct FixedHasher(u64);

impl FixedHasher {
    #[inline]
    fn add(&mut self, v: u64) {
        const SEED: u64 = 0x517c_c1b7_2722_0a95;
        self.0 = (self.0.rotate_left(5) ^ v).wrapping_mul(SEED);
    }
}

impl Hasher for FixedHasher {
    fn finish(&self) -> u64 {
        self.0
    }
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.add(b as u64);
        }
    }
    fn write_u8(&mut self, n: u8) {
        self.add(n as u64)
    }
    fn write_u16(&mut self, n: u16) {
        self.add(n as u64)
    }
    fn write_u32(&mut self, n: u32) {
        self.add(n as u64)
    }
    fn write_u64(&mut self, n: u64) {
        self.add(n)
    }
    fn write_usize(&mut self, n: usize) {
        self.add(n as u64)
    }
}

/// A `HashMap` over [`FixedHasher`]. Users only look it up and never
/// iterate it, so its bucket layout stays unobservable.
pub type FixedMap<K, V> = HashMap<K, V, BuildHasherDefault<FixedHasher>>;
