//! TCP-4 at the paper's scale: Fig. 10's largest tables (ng1, ap) hold
//! about 1 024 connections to one server port, and the figure probes up
//! to 1 100.

use hgw_probe::max_bindings::{measure_max_bindings, StopReason};
use home_gateway_study::prelude::*;

#[test]
fn ramp_reaches_the_figure_10_ceiling() {
    let mut policy = GatewayPolicy::well_behaved();
    policy.max_bindings = 100_000;
    let mut tb = Testbed::new("tcp4-paper", policy, 4, 31);
    let r = measure_max_bindings(&mut tb, 32, 1100);
    assert_eq!(r.max_bindings, 1100);
    assert_eq!(r.stopped_because, StopReason::ProbeCeiling);
}
