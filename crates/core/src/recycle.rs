//! Emptying a container while keeping its allocation.
//!
//! A fleet worker rebuilds every device's testbed on the containers of the
//! previous one (DESIGN.md §15). Each recyclable type builds its fresh
//! state with its constructor and moves the old containers in through
//! [`Cleared::cleared`], so logical state always comes from the one
//! constructor and only capacity carries over.

use std::collections::{BTreeSet, BinaryHeap, HashMap, VecDeque};
use std::hash::BuildHasher;

/// A container that can be emptied without giving back its capacity.
pub trait Cleared {
    /// `self`, emptied, with its capacity.
    fn cleared(self) -> Self;
}

macro_rules! impl_cleared {
    ($($ty:ty => [$($gen:tt)*]),* $(,)?) => {$(
        impl<$($gen)*> Cleared for $ty {
            #[inline]
            fn cleared(mut self) -> Self {
                self.clear();
                self
            }
        }
    )*};
}

impl_cleared! {
    Vec<T> => [T],
    VecDeque<T> => [T],
    BinaryHeap<T> => [T: Ord],
    BTreeSet<T> => [T],
    String => [],
}

impl<K, V, S: BuildHasher> Cleared for HashMap<K, V, S> {
    #[inline]
    fn cleared(mut self) -> Self {
        self.clear();
        self
    }
}
