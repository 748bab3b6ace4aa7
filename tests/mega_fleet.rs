//! Mega-fleet scale: the batched work queue, per-worker testbed shells, and
//! streaming [`run_fold`](hgw_probe::fleet::FleetRunner::run_fold)
//! aggregation must not change a campaign's results. A 1 000-device
//! synthetic fleet folded under `Parallelism::Sequential` and under a
//! batched 4-worker pool has to produce the bit-identical
//! [`FleetDistributions`] aggregate.

use hgw_devices::synthetic_fleet;
use hgw_probe::distributions::FleetDistributions;
use hgw_probe::fleet::{FleetSample, FoldReport, Parallelism};
use hgw_probe::udp_timeout::measure_udp1;
use home_gateway_study::prelude::*;

const SEED: u64 = 7;
const FLEET: usize = 1000;

fn run_fold_leg(
    fleet: &[devices::DeviceProfile],
    runner_parallelism: Parallelism,
) -> FoldReport<FleetDistributions> {
    FleetRunner::new(fleet)
        .seed(SEED)
        .parallelism(runner_parallelism)
        .run_fold(
            |tb: &mut Testbed, _: &devices::DeviceProfile| measure_udp1(tb, 20_000).timeout_secs,
            FleetDistributions::new,
            |acc: &mut FleetDistributions, s: FleetSample<'_, f64>| {
                acc.record(s.device, s.result, Some(&s.metrics))
            },
            |acc, part| acc.merge(&part),
        )
        .expect("campaign infrastructure must not fail")
}

#[test]
fn thousand_device_fold_is_bit_identical_across_modes() {
    let fleet = synthetic_fleet(SEED, FLEET);
    assert_eq!(fleet.len(), FLEET);

    let seq = run_fold_leg(&fleet, Parallelism::Sequential);
    let par = run_fold_leg(&fleet, Parallelism::Fixed(4));

    assert!(seq.failures.is_empty(), "{:?}", seq.failures);
    assert!(par.failures.is_empty(), "{:?}", par.failures);
    assert_eq!(seq.folded, FLEET);
    assert_eq!(par.folded, FLEET);

    // The determinism guarantee at mega-fleet scale: folding through a
    // batched worker pool with per-worker testbed shells is invisible in the
    // aggregate.
    assert_eq!(seq.aggregate, par.aggregate);

    // Every sampled timeout and binding cap landed in the distributions.
    assert_eq!(seq.aggregate.devices, FLEET as u64);
    assert_eq!(seq.aggregate.udp1_timeout_ds.count(), FLEET as u64);
    assert_eq!(seq.aggregate.max_bindings.count(), FLEET as u64);
    assert!(seq.aggregate.events > 0, "every run counts events");
}

#[test]
fn parallel_leg_hands_out_batches_not_single_devices() {
    let fleet = synthetic_fleet(SEED, FLEET);
    let par = run_fold_leg(&fleet, Parallelism::Fixed(4));
    let s = &par.scheduling;

    // Auto-sized batches: devices / (workers * 8), clamped to [1, 256].
    assert_eq!(s.batch_size, FLEET / (4 * 8));
    assert_eq!(s.per_worker.len(), 4);
    assert_eq!(s.per_worker.iter().map(|w| w.devices_run).sum::<usize>(), FLEET);
    let batches: usize = s.per_worker.iter().map(|w| w.batches).sum();
    assert_eq!(batches, FLEET.div_ceil(s.batch_size), "every batch claimed exactly once");
    for w in &s.per_worker {
        // A worker that ran devices claimed far fewer queue slots than
        // devices — the point of batching — and built every device after
        // its first into the previous one's testbed shell.
        assert!(w.batches <= w.devices_run.div_ceil(s.batch_size) + 1, "{w:?}");
        if w.devices_run > 0 {
            assert!(w.pool_reused >= (w.devices_run - 1) as u64 / 2, "{w:?}");
        }
    }
}

#[test]
fn explicit_batch_size_overrides_the_heuristic() {
    let fleet = synthetic_fleet(SEED, 64);
    let report = FleetRunner::new(&fleet)
        .seed(SEED)
        .parallelism(Parallelism::Fixed(2))
        .batch_size(5)
        .run_fold(
            |tb: &mut Testbed, _: &devices::DeviceProfile| measure_udp1(tb, 2_000).timeout_secs,
            || 0u64,
            |acc, s: FleetSample<'_, f64>| *acc += s.result.to_bits().count_ones() as u64,
            |acc, part| *acc += part,
        )
        .expect("campaign infrastructure must not fail");
    assert_eq!(report.scheduling.batch_size, 5);
    assert_eq!(report.folded, 64);
}
