//! Heap-allocation and footprint budgets: the TCP data path, testbed
//! bring-up, and the per-device cost of a mega-fleet campaign.
//!
//! A steady TCP transfer takes its segment buffers from the simulator's
//! frame pool and reuses its stream-buffer chunks, so moving more bytes
//! must not make more allocations. A mega-fleet device is one plain-data
//! profile and, on a fleet worker's recycled testbed shell, almost no heap
//! work. A counting global allocator measures
//! the calling thread only, which keeps the other tests of this binary
//! (run on their own threads) out of the figures. It also tracks the live
//! heap, so the memory a probe holds at its peak is gated along with what
//! it allocates in total.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use hgw_core::FramePool;
use hgw_devices::{synthetic_fleet, DeviceProfile};
use hgw_probe::max_bindings::measure_max_bindings;
use hgw_probe::throughput::run_battery;
use hgw_probe::udp_timeout::measure_udp1;
use home_gateway_study::prelude::*;

struct CountingAlloc;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
    static BYTES: Cell<u64> = const { Cell::new(0) };
    /// Bytes allocated minus bytes freed on this thread; a block freed by
    /// another thread than the one that made it skews both threads' counts,
    /// which the single-threaded probes measured here never do.
    static LIVE: Cell<i64> = const { Cell::new(0) };
    static PEAK: Cell<i64> = const { Cell::new(0) };
}

fn count(allocs: u64, requested: usize, live_delta: i64) {
    // `try_with` fails only while the thread's locals are being torn down.
    let _ = ALLOCS.try_with(|c| c.set(c.get() + allocs));
    let _ = BYTES.try_with(|c| c.set(c.get() + requested as u64));
    let _ = LIVE.try_with(|live| {
        live.set(live.get() + live_delta);
        let _ = PEAK.try_with(|peak| peak.set(peak.get().max(live.get())));
    });
}

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged; the counters are thread-local `Cell`s with const initialisers,
// so updating them never allocates or re-enters the allocator.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(1, layout.size(), layout.size() as i64);
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count(1, layout.size(), layout.size() as i64);
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(1, new_size, new_size as i64 - layout.size() as i64);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        count(0, 0, -(layout.size() as i64));
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// What this thread's heap did while running `f`.
struct HeapUse {
    /// Allocations; a `realloc` counts as one allocation of its new size.
    allocs: u64,
    /// Bytes requested by those allocations.
    bytes: u64,
    /// Highest live-heap level reached, above the level `f` started at.
    peak_live: u64,
}

fn heap_use_during(f: impl FnOnce()) -> HeapUse {
    let (allocs, bytes, live) =
        (ALLOCS.with(Cell::get), BYTES.with(Cell::get), LIVE.with(Cell::get));
    PEAK.with(|peak| peak.set(live));
    f();
    HeapUse {
        allocs: ALLOCS.with(Cell::get) - allocs,
        bytes: BYTES.with(Cell::get) - bytes,
        peak_live: (PEAK.with(Cell::get) - live) as u64,
    }
}

fn battery_allocations(bytes: u64) -> u64 {
    let mut tb = Testbed::new("alloc-tcp2", GatewayPolicy::well_behaved(), 1, 7);
    heap_use_during(|| {
        let rep = run_battery(&mut tb, bytes);
        assert!(rep.upload.completed && rep.download.completed, "{rep:?}");
    })
    .allocs
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
    let heap = heap_use_during(|| {
        let r = measure_max_bindings(&mut tb, 32, 256);
        assert_eq!(r.max_bindings, 256);
    });
    let mut pool = FramePool::new();
    tb.topo.sim.drain_frame_pool(&mut pool);
    eprintln!(
        "256-connection ramp: {} bytes allocated, peak live heap {} bytes, \
         frame pool retains {} buffers / {} bytes",
        heap.bytes,
        heap.peak_live,
        pool.retained(),
        pool.retained_bytes()
    );
    assert!(heap.bytes < 6 << 20, "a 256-connection ramp allocated {} bytes", heap.bytes);
    // Every frame of the ramp is a SYN, an ACK or a few-byte echo: none
    // may pin a full-segment buffer, in the pool or in flight. With
    // MSS-sized buffers for every segment the peak was 1 185 286 bytes.
    assert!(heap.peak_live < 900_000, "the ramp's live heap peaked at {} bytes", heap.peak_live);
    assert!(pool.retained_bytes() < 64 << 10, "the pool retains {} bytes", pool.retained_bytes());
}

#[test]
fn testbed_bring_up_builds_no_idle_wheel_levels() {
    let build = || Testbed::new("alloc-new", GatewayPolicy::well_behaved(), 1, 7);
    drop(build()); // warm-up: one-time tables and lazy statics
    let heap = heap_use_during(|| drop(build()));
    eprintln!("Testbed::new: {} allocations, {} bytes", heap.allocs, heap.bytes);
    // The three event/expiry queues hold no filed timer after bring-up, so
    // none of them may allocate its 704 slot buckets (16 896 bytes each);
    // with eagerly built levels one Testbed::new allocated 113 769 bytes.
    assert!(heap.bytes < 72_000, "one Testbed::new allocated {} bytes", heap.bytes);
}

#[test]
fn device_profiles_are_plain_data() {
    // A profile is copied into every testbed and a mega-fleet holds 10 000
    // of them. With a `Vec` of service overrides and three provenance
    // strings inline it was 256 bytes.
    let size = std::mem::size_of::<DeviceProfile>();
    eprintln!("DeviceProfile: {size} bytes");
    assert!(size <= 208, "DeviceProfile is {size} bytes");
}

#[test]
fn a_warm_synthetic_fleet_allocates_only_its_vec() {
    // Warm-up: fits the population model and makes the tag blocks.
    drop(synthetic_fleet(0, 10_000));
    let heap = heap_use_during(|| drop(synthetic_fleet(0, 10_000)));
    eprintln!("warm synthetic_fleet(0, 10 000): {} allocations", heap.allocs);
    // Refitting the model for every call, cloning the override `Vec` of
    // each profile that has one and indexing the tags made 294.
    assert!(heap.allocs <= 1, "a warm 10 000-profile fleet made {} allocations", heap.allocs);
}

#[test]
fn a_recycled_fleet_worker_runs_a_udp1_device_almost_heap_free() {
    const WARM: usize = 10;
    const MEASURED: usize = 200;
    let devices = synthetic_fleet(5, WARM + MEASURED);
    // One sequential worker runs on this thread. The fold marks this
    // thread's allocation count as each device finishes, so consecutive
    // marks bracket one device: bring-up into the recycled shell, the
    // probe, harvesting, and teardown back into the shell.
    let report = FleetRunner::new(&devices)
        .seed(5)
        .parallelism(Parallelism::Sequential)
        .run_fold(
            |tb, _| measure_udp1(tb, 20_000).timeout_secs,
            || Vec::with_capacity(WARM + MEASURED),
            |marks: &mut Vec<u64>, _| marks.push(ALLOCS.with(Cell::get)),
            |_, _| unreachable!("one sequential worker never merges"),
        )
        .expect("fleet campaign");
    assert_eq!(report.folded, WARM + MEASURED);
    let marks = report.aggregate;
    let per_device = (marks[WARM + MEASURED - 1] - marks[WARM - 1]) as f64 / MEASURED as f64;
    eprintln!("recycled UDP-1 device: {per_device:.1} allocations");
    // With a fresh testbed per device (only frame buffers recycled) a
    // device made 241, and 43.5 while DHCP's DNS server lists were `Vec`s;
    // it makes 27.5 now, gated with the same 38 % margin as before.
    assert!(per_device <= 38.0, "a UDP-1 device made {per_device:.1} allocations");
}
