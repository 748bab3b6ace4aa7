//! Panic isolation: one device's probe blowing up must not take the
//! campaign down. The failure surfaces as a typed [`DeviceFailure`] in
//! that device's slot while the other 33 devices still deliver results
//! and metrics, in Table 1 order.
//!
//! Lives in its own test binary because it swaps the process panic hook
//! to keep the injected panics out of the test output.

use hgw_probe::fleet::FleetError;
use hgw_probe::udp_timeout::measure_udp1;
use home_gateway_study::prelude::*;

/// Runs `f` with panic output silenced (the panics are the point here).
fn with_quiet_panics<R>(f: impl FnOnce() -> R) -> R {
    let hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(|_| {}));
    let out = f();
    std::panic::set_hook(hook);
    out
}

#[test]
fn panicking_probe_is_isolated_to_its_device() {
    let devices = devices::all_devices();
    let victim = devices[17].tag;

    for mode in [Parallelism::Sequential, Parallelism::Fixed(4)] {
        let report = with_quiet_panics(|| {
            FleetRunner::new(&devices)
                .seed(3)
                .parallelism(mode)
                .run(|tb, d| {
                    if d.tag == victim {
                        panic!("injected fault on {}", d.tag);
                    }
                    measure_udp1(tb, 20_000).timeout_secs.to_bits()
                })
                .unwrap()
        });

        assert_eq!(report.devices.len(), 34, "{mode}: every slot reported");
        let failures = report.failures();
        assert_eq!(failures.len(), 1, "{mode}: exactly one failure");
        assert_eq!(failures[0].tag, victim);
        assert_eq!(failures[0].slot, 17);
        assert_eq!(failures[0].panic, format!("injected fault on {victim}"));
        assert_eq!(
            failures[0].to_string(),
            format!("device {victim} (slot 17) panicked: injected fault on {victim}")
        );

        for (slot, d) in report.devices.iter().enumerate() {
            assert_eq!(d.slot, slot);
            assert_eq!(d.tag, devices[slot].tag, "{mode}: Table 1 order preserved");
            if slot == 17 {
                assert!(d.outcome.is_err());
                assert!(d.metrics.is_none(), "{mode}: no metrics for the failed device");
            } else {
                assert!(d.outcome.is_ok(), "{mode}: device {} must survive", d.tag);
                let m = d.metrics.as_ref().expect("metrics for surviving device");
                assert!(m.frames_delivered > 0, "{mode}: {} saw traffic", d.tag);
            }
        }

        // Collapsing to plain results folds the failure into FleetError.
        let err = report.into_results().unwrap_err();
        match err {
            FleetError::Device(f) => assert_eq!(f.tag, victim),
            other => panic!("expected FleetError::Device, got {other:?}"),
        }
    }
}

#[test]
fn bringup_panic_is_also_isolated() {
    // A probe that panics before driving the testbed at all (mimicking a
    // bring-up style failure) still yields results for everyone else.
    let devices = devices::all_devices();
    let report = with_quiet_panics(|| {
        FleetRunner::new(&devices[..6])
            .seed(8)
            .parallelism(Parallelism::Fixed(3))
            .run(|tb, d| {
                if tb.index == 1 {
                    panic!("dead on arrival");
                }
                d.tag.len()
            })
            .unwrap()
    });
    assert_eq!(report.failures().len(), 1);
    assert_eq!(report.failures()[0].slot, 0);
    assert_eq!(report.devices.iter().filter(|d| d.outcome.is_ok()).count(), 5);
}
