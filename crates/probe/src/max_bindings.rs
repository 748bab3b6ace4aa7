//! TCP-4: the maximum number of simultaneous TCP bindings to a single
//! server port (§3.2.2).
//!
//! Connections are opened in batches; after each batch a message is passed
//! over every open connection ("periodically passing messages over each,
//! to prevent binding timeouts") and echoed by the server. The count stops
//! growing when a new connection fails to establish or an existing one
//! stops passing messages.

use std::net::SocketAddrV4;

use hgw_core::Duration;
use hgw_stack::host::{ListenerApp, TcpHandle};
use hgw_stack::tcp::TcpState;
use hgw_testbed::{HostId, Testbed};

/// Result of the TCP-4 probe.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MaxBindingsResult {
    /// The largest number of concurrently working connections observed.
    pub max_bindings: usize,
    /// Why the probe stopped.
    pub stopped_because: StopReason,
}

/// Why the TCP-4 probe stopped opening connections.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StopReason {
    /// A new connection failed to establish.
    ConnectFailed,
    /// An existing connection stopped passing messages.
    MessageFailed,
    /// The probe's own ceiling was reached (the device outlasted it).
    ProbeCeiling,
}

/// The server port all connections target (the paper probes a single
/// server port).
const PROBE_PORT: u16 = 6200;

/// Opens connections in batches of `batch` up to `ceiling`, verifying
/// message passing on every open connection after each batch.
pub fn measure_max_bindings(tb: &mut Testbed, batch: usize, ceiling: usize) -> MaxBindingsResult {
    let server_addr = tb.server_addr;
    tb.with_host(HostId::Server, |h, _| h.tcp_listen(PROBE_PORT, ListenerApp::Echo));
    let mut open: Vec<TcpHandle> = Vec::new();
    let result = loop {
        // Open one batch.
        let batch_span =
            tb.span("tcp4-ramp").arg(format_args!("open={} target=+{}", open.len(), batch)).begin();
        let mut fresh: Vec<TcpHandle> = Vec::new();
        for _ in 0..batch {
            if open.len() + fresh.len() >= ceiling {
                break;
            }
            let h = tb.with_host(HostId::Client, |h, ctx| {
                h.tcp_connect(ctx, SocketAddrV4::new(server_addr, PROBE_PORT))
            });
            fresh.push(h);
            tb.run_for(Duration::from_millis(5));
        }
        // Long enough for a lost SYN to be retransmitted once.
        tb.run_for(Duration::from_millis(2500));
        // Which of the fresh batch established?
        let established: Vec<TcpHandle> = tb.with_host(HostId::Client, |h, _| {
            fresh.iter().copied().filter(|&c| h.tcp(c).state() == TcpState::Established).collect()
        });
        let connect_failed = established.len() < fresh.len();
        // Reap the failures.
        tb.with_host(HostId::Client, |h, ctx| {
            for &c in &fresh {
                if h.tcp(c).state() != TcpState::Established {
                    h.tcp_mut(c).abort();
                    h.kick(ctx);
                    h.tcp_remove(c);
                }
            }
        });
        open.extend(&established);

        // Pass a message over every open connection — paced in small
        // groups, as the real testbed daemon would, so the synchronized
        // burst does not itself overflow slow devices' buffers.
        for chunk in open.chunks(32) {
            tb.with_host(HostId::Client, |h, ctx| {
                for &c in chunk {
                    h.tcp_send(ctx, c, b"k");
                }
            });
            tb.run_for(Duration::from_millis(25));
        }
        tb.run_for(Duration::from_secs(3));
        let alive: Vec<TcpHandle> = tb.with_host(HostId::Client, |h, _| {
            open.iter().copied().filter(|&c| h.tcp_mut(c).recv(4) == b"k").collect()
        });
        let message_failed = alive.len() < open.len();
        let count = alive.len();
        open = alive;
        tb.span_end(batch_span);

        if connect_failed {
            break MaxBindingsResult {
                max_bindings: count,
                stopped_because: StopReason::ConnectFailed,
            };
        }
        if message_failed {
            break MaxBindingsResult {
                max_bindings: count,
                stopped_because: StopReason::MessageFailed,
            };
        }
        if count >= ceiling {
            break MaxBindingsResult {
                max_bindings: count,
                stopped_because: StopReason::ProbeCeiling,
            };
        }
    };
    // Clean up after ourselves: orderly close drains the NAT's binding
    // table (FIN-FIN teardown), so later experiments on the same testbed
    // start from an empty table.
    for chunk in open.chunks(64) {
        tb.with_host(HostId::Client, |h, ctx| {
            for &c in chunk {
                h.tcp_close(ctx, c);
            }
        });
        tb.run_for(Duration::from_millis(50));
    }
    tb.run_for(Duration::from_secs(45));
    tb.with_host(HostId::Client, |h, ctx| {
        for &c in &open {
            if h.tcp_is_alive(c) {
                h.tcp_mut(c).abort();
                h.kick(ctx);
                h.tcp_remove(c);
            }
        }
    });
    tb.with_host(HostId::Server, |h, ctx| {
        for c in h.tcp_accepted() {
            h.tcp_mut(c).abort();
            h.kick(ctx);
            h.tcp_remove(c);
        }
    });
    result
}

#[cfg(test)]
mod tests {
    use super::*;
    use hgw_gateway::GatewayPolicy;

    #[test]
    fn finds_small_binding_cap_exactly() {
        // The dl9/smc cap of 16 bindings.
        let mut policy = GatewayPolicy::well_behaved();
        policy.max_bindings = 16;
        let mut tb = Testbed::new("tcp4", policy, 1, 21);
        let r = measure_max_bindings(&mut tb, 8, 128);
        assert_eq!(r.max_bindings, 16);
        assert_eq!(r.stopped_because, StopReason::ConnectFailed);
    }

    #[test]
    fn respects_probe_ceiling_for_large_tables() {
        let mut policy = GatewayPolicy::well_behaved();
        policy.max_bindings = 100_000;
        let mut tb = Testbed::new("tcp4-big", policy, 2, 23);
        let r = measure_max_bindings(&mut tb, 16, 48);
        assert_eq!(r.max_bindings, 48);
        assert_eq!(r.stopped_because, StopReason::ProbeCeiling);
    }

    #[test]
    fn mid_size_cap_recovered() {
        let mut policy = GatewayPolicy::well_behaved();
        policy.max_bindings = 37;
        let mut tb = Testbed::new("tcp4-mid", policy, 3, 29);
        let r = measure_max_bindings(&mut tb, 8, 128);
        assert_eq!(r.max_bindings, 37);
    }
}
