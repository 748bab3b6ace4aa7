//! §4.4's keepalive argument, demonstrated end to end: whether a long-idle
//! TCP connection survives depends on the keepalive interval versus the
//! device's binding timeout.

use std::net::SocketAddrV4;

use hgw_stack::host::ListenerApp;
use hgw_stack::tcp::TcpConfig;
use home_gateway_study::prelude::*;

/// Opens a connection with the given keepalive setting, leaves it
/// application-idle for `idle`, then checks whether the server can still
/// push data to the client.
fn survives_idle(tag: &str, slot: u8, keepalive: Option<Duration>, idle: Duration) -> bool {
    let d = devices::device(tag).unwrap();
    let mut tb = Testbed::new(d.tag, d.policy, slot, 0xAA00 + slot as u64);
    let server_addr = tb.server_addr;
    tb.with_host(HostId::Server, |h, _| h.tcp_listen(7070, ListenerApp::Manual));
    let config = TcpConfig { keepalive, ..TcpConfig::default() };
    let conn = tb.with_host(HostId::Client, |h, ctx| {
        h.tcp_connect_with(ctx, SocketAddrV4::new(server_addr, 7070), config)
    });
    tb.run_for(Duration::from_millis(300));
    let srv = *tb.with_host(HostId::Server, |h, _| h.tcp_accepted()).last().expect("accepted");
    tb.run_for(idle);
    tb.with_host(HostId::Server, |h, ctx| {
        h.tcp_send(ctx, srv, b"still-there?");
    });
    tb.run_for(Duration::from_secs(2));
    tb.with_host(HostId::Client, |h, _| h.tcp_mut(conn).recv(64) == b"still-there?")
}

#[test]
fn idle_connection_dies_through_short_timeout_device() {
    // be1 removes TCP bindings after 239 s; a 10-minute-idle connection
    // with no keepalives is gone.
    assert!(!survives_idle("be1", 1, None, Duration::from_mins(10)));
}

#[test]
fn application_keepalive_holds_the_binding_open() {
    // The same idle period survives with a 2-minute keepalive (< 239 s).
    assert!(survives_idle("be1", 2, Some(Duration::from_mins(2)), Duration::from_mins(10)));
}

#[test]
fn rfc1122_two_hour_keepalive_is_not_enough() {
    // §4.4: "TCP stacks that implement the standardized minimum TCP
    // keepalive interval of 2 h will not be able to reliably refresh TCP
    // connections in many cases." Through a 1-hour-timeout device, a
    // 3-hour-idle connection dies even with 2-hour keepalives...
    assert!(!survives_idle(
        "smc", // 61-minute binding timeout
        3,
        Some(Duration::from_hours(2)),
        Duration::from_hours(3)
    ));
}

#[test]
fn two_hour_keepalive_suffices_behind_compliant_devices() {
    // ...but survives behind a device that honors RFC 5382's 124 minutes
    // (te holds bindings beyond 24 h).
    assert!(survives_idle("te", 4, Some(Duration::from_hours(2)), Duration::from_hours(3)));
}
