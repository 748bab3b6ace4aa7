//! Heap-allocation budget of the TCP data path.
//!
//! A steady TCP transfer takes its segment buffers from the simulator's
//! frame pool and reuses its stream-buffer chunks, so moving more bytes
//! must not make more allocations. A counting global allocator measures
//! the calling thread only, which keeps the other tests of this binary
//! (run on their own threads) out of the figures.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use hgw_probe::max_bindings::measure_max_bindings;
use hgw_probe::throughput::run_battery;
use home_gateway_study::prelude::*;

struct CountingAlloc;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
    static BYTES: Cell<u64> = const { Cell::new(0) };
}

fn count(bytes: usize) {
    // `try_with` fails only while the thread's locals are being torn down.
    let _ = ALLOCS.try_with(|c| c.set(c.get() + 1));
    let _ = BYTES.try_with(|c| c.set(c.get() + bytes as u64));
}

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged; the counters are thread-local `Cell`s with const initialisers,
// so updating them never allocates or re-enters the allocator.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// `(allocations, bytes requested)` made by this thread while running `f`.
/// A `realloc` counts as one allocation of its new size.
fn allocations_during(f: impl FnOnce()) -> (u64, u64) {
    let before = (ALLOCS.with(Cell::get), BYTES.with(Cell::get));
    f();
    (ALLOCS.with(Cell::get) - before.0, BYTES.with(Cell::get) - before.1)
}

fn battery_allocations(bytes: u64) -> u64 {
    let mut tb = Testbed::new("alloc-tcp2", GatewayPolicy::well_behaved(), 1, 7);
    let (allocs, _) = allocations_during(|| {
        let rep = run_battery(&mut tb, bytes);
        assert!(rep.upload.completed && rep.download.completed, "{rep:?}");
    });
    allocs
}

#[test]
fn bulk_transfer_allocations_do_not_grow_with_bytes() {
    const MB: u64 = 1 << 20;
    let small = battery_allocations(MB);
    let large = battery_allocations(4 * MB);
    eprintln!("run_battery allocations: 1 MiB {small}, 4 MiB {large}");
    assert!(
        large < small + 256,
        "4 MiB battery made {large} allocations, 1 MiB made {small}: \
         the per-segment path allocates"
    );
}

#[test]
fn connection_ramp_stays_within_its_memory_budget() {
    let mut tb = Testbed::new("alloc-tcp4", GatewayPolicy::well_behaved(), 1, 7);
    let (_, bytes) = allocations_during(|| {
        let r = measure_max_bindings(&mut tb, 32, 256);
        assert_eq!(r.max_bindings, 256);
    });
    eprintln!("256-connection ramp: {bytes} bytes allocated");
    assert!(bytes < 6 << 20, "a 256-connection ramp allocated {bytes} bytes");
}
