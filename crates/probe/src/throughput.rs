//! TCP-2 (bulk throughput) and TCP-3 (queuing/processing delay), §3.2.2.
//!
//! One bulk transfer yields both results: the sender embeds a virtual
//! timestamp every 2 KB of payload (the paper's method); the receiver's
//! sink extracts `(sent, received)` pairs. Throughput is payload bytes over
//! transfer time; delay is the *median of the min-normalized* timestamp
//! differences, exactly as described in §3.2.2 (the median resists
//! retransmission skew, the normalization removes the path's fixed delay).

use std::net::SocketAddrV4;

use hgw_core::Duration;
use hgw_stack::host::{ListenerApp, TcpHandle};
use hgw_stack::tcp::SinkStats;
use hgw_testbed::{HostId, Testbed};

/// Stamp interval (the paper embeds a timestamp every 2 KB).
pub const STAMP_EVERY: usize = 2048;

/// Direction of a bulk transfer relative to the client.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Direction {
    /// Client → server.
    Upload,
    /// Server → client.
    Download,
}

/// Result of one bulk transfer.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TransferResult {
    /// Application-payload throughput, Mb/s.
    pub throughput_mbps: f64,
    /// Median min-normalized one-way delay, milliseconds.
    pub delay_ms: f64,
    /// Bytes actually delivered.
    pub bytes: u64,
    /// True if the transfer completed within the time budget.
    pub completed: bool,
}

/// The four series of Figures 8 and 9.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ThroughputReport {
    /// Unidirectional upload.
    pub upload: TransferResult,
    /// Unidirectional download.
    pub download: TransferResult,
    /// Upload measured while a download runs.
    pub upload_during_bidir: TransferResult,
    /// Download measured while an upload runs.
    pub download_during_bidir: TransferResult,
}

/// Extracts the TCP-3 statistic from sink stamps.
pub fn delay_from_stamps(stats: &SinkStats) -> f64 {
    if stats.stamps.is_empty() {
        return f64::NAN;
    }
    let mut deltas: Vec<f64> =
        stats.stamps.iter().map(|&(sent, rcvd)| (rcvd.saturating_sub(sent)) as f64 / 1e6).collect();
    let min = deltas.iter().cloned().fold(f64::INFINITY, f64::min);
    for d in &mut deltas {
        *d -= min;
    }
    // Every delta is finite and at least +0.0 (`x - x` is +0.0), so
    // `total_cmp` orders them as `partial_cmp` would and the selected
    // element is the sorted one.
    let mid = deltas.len() / 2;
    *deltas.select_nth_unstable_by(mid, f64::total_cmp).1
}

struct Flow {
    sender_is_client: bool,
    receiver: TcpHandle,
}

/// Sets up one connection with the sender role on the requested side.
/// Connections always *originate* at the client (the NAT forbids inbound
/// establishment); for downloads the server side sends.
fn setup_flow(tb: &mut Testbed, port: u16, dir: Direction, bytes: u64) -> Flow {
    let server_addr = tb.server_addr;
    tb.with_host(HostId::Server, |h, _| {
        h.tcp_accepted(); // drain any stale backlog from earlier probes
        h.tcp_listen(port, ListenerApp::Manual);
    });
    let cli = tb.with_host(HostId::Client, |h, ctx| {
        h.tcp_connect(ctx, SocketAddrV4::new(server_addr, port))
    });
    tb.run_for(Duration::from_millis(100));
    let accepted = tb.with_host(HostId::Server, |h, _| h.tcp_accepted());
    let srv = *accepted.last().expect("bulk connection accepted");
    match dir {
        Direction::Upload => {
            tb.with_host(HostId::Server, |h, _| h.tcp_mut(srv).set_sink(STAMP_EVERY));
            tb.with_host(HostId::Client, |h, ctx| {
                h.tcp_mut(cli).set_bulk_source(bytes, STAMP_EVERY);
                h.kick(ctx);
            });
            Flow { sender_is_client: true, receiver: srv }
        }
        Direction::Download => {
            tb.with_host(HostId::Client, |h, _| h.tcp_mut(cli).set_sink(STAMP_EVERY));
            tb.with_host(HostId::Server, |h, ctx| {
                h.tcp_mut(srv).set_bulk_source(bytes, STAMP_EVERY);
                h.kick(ctx);
            });
            Flow { sender_is_client: false, receiver: cli }
        }
    }
}

fn receiver_stats(tb: &mut Testbed, flow: &Flow) -> SinkStats {
    let h = flow.receiver;
    if flow.sender_is_client {
        tb.with_host(HostId::Server, |host, _| {
            host.tcp(h).sink_stats().expect("sink enabled").clone()
        })
    } else {
        tb.with_host(HostId::Client, |host, _| {
            host.tcp(h).sink_stats().expect("sink enabled").clone()
        })
    }
}

/// Progress poll: just the delivered byte count, without cloning the stamp
/// vector (a 100 MB transfer accumulates ~50k stamps; cloning them every
/// 250 ms poll tick dominated large-transfer wall time).
fn receiver_bytes(tb: &mut Testbed, flow: &Flow) -> u64 {
    let h = flow.receiver;
    if flow.sender_is_client {
        tb.with_host(HostId::Server, |host, _| {
            host.tcp(h).sink_stats().expect("sink enabled").bytes
        })
    } else {
        tb.with_host(HostId::Client, |host, _| {
            host.tcp(h).sink_stats().expect("sink enabled").bytes
        })
    }
}

fn finish(tb: &mut Testbed, flow: &Flow, bytes: u64, started_at_secs: f64) -> TransferResult {
    let stats = receiver_stats(tb, flow);
    let completed = stats.bytes >= bytes;
    let end = stats.last_arrival.map(|t| t.as_secs_f64()).unwrap_or(started_at_secs);
    let elapsed = (end - started_at_secs).max(1e-9);
    TransferResult {
        throughput_mbps: stats.bytes as f64 * 8.0 / elapsed / 1e6,
        delay_ms: delay_from_stamps(&stats),
        bytes: stats.bytes,
        completed,
    }
}

/// Runs one transfer of `bytes` and returns its result. The time budget is
/// generous: 60× the wire-speed duration plus 30 s — at the paper's 100 MB
/// that is 510 s of simulated time for a transfer a wire-speed device
/// finishes in ~8.5 s, so the budget never truncates a healthy run.
pub fn run_transfer(tb: &mut Testbed, port: u16, dir: Direction, bytes: u64) -> TransferResult {
    let span_name = match dir {
        Direction::Upload => "tcp2-upload",
        Direction::Download => "tcp2-download",
    };
    let span = tb.span(span_name).arg(format_args!("{bytes} B")).begin();
    let start = tb.now().as_secs_f64();
    let flow = setup_flow(tb, port, dir, bytes);
    let budget = Duration::from_secs(60 * (bytes * 8 / 100_000_000).max(1) + 30);
    let deadline = tb.now().saturating_add(budget);
    while tb.now() < deadline {
        tb.run_for(Duration::from_millis(250));
        if receiver_bytes(tb, &flow) >= bytes {
            break;
        }
    }
    let result = finish(tb, &flow, bytes, start);
    tb.span_end(span);
    result
}

/// Runs the full TCP-2/TCP-3 battery: upload, download, then simultaneous
/// transfers, each moving `bytes` of payload (the paper uses 100 MB).
pub fn run_battery(tb: &mut Testbed, bytes: u64) -> ThroughputReport {
    let upload = run_transfer(tb, 5001, Direction::Upload, bytes);
    let download = run_transfer(tb, 5002, Direction::Download, bytes);

    // Bidirectional: two flows at once.
    let span = tb.span("tcp2-bidir").arg(format_args!("2 x {bytes} B")).begin();
    let start = tb.now().as_secs_f64();
    let up_flow = setup_flow(tb, 5003, Direction::Upload, bytes);
    let down_flow = setup_flow(tb, 5004, Direction::Download, bytes);
    let budget = Duration::from_secs(120 * (bytes * 8 / 100_000_000).max(1) + 60);
    let deadline = tb.now().saturating_add(budget);
    while tb.now() < deadline {
        tb.run_for(Duration::from_millis(250));
        let done_up = receiver_bytes(tb, &up_flow) >= bytes;
        let done_down = receiver_bytes(tb, &down_flow) >= bytes;
        if done_up && done_down {
            break;
        }
    }
    let upload_during_bidir = finish(tb, &up_flow, bytes, start);
    let download_during_bidir = finish(tb, &down_flow, bytes, start);
    tb.span_end(span);
    ThroughputReport { upload, download, upload_during_bidir, download_during_bidir }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hgw_gateway::{ForwardingModel, GatewayPolicy};

    const MB: u64 = 1024 * 1024;

    fn policy_with(down: u64, up: u64, agg: u64, buf: usize) -> GatewayPolicy {
        let mut p = GatewayPolicy::well_behaved();
        p.forwarding = ForwardingModel {
            up_bps: up,
            down_bps: down,
            aggregate_bps: agg,
            buffer_up: buf,
            buffer_down: buf,
            per_packet_overhead: Duration::from_micros(20),
        };
        p
    }

    #[test]
    fn wire_speed_device_saturates_the_link() {
        let mut tb = Testbed::new("thr", GatewayPolicy::well_behaved(), 1, 3);
        let r = run_transfer(&mut tb, 5001, Direction::Upload, 4 * MB);
        assert!(r.completed);
        assert!(
            r.throughput_mbps > 70.0 && r.throughput_mbps <= 100.0,
            "got {}",
            r.throughput_mbps
        );
        assert!(r.delay_ms < 30.0, "wire-speed delay should be small, got {}", r.delay_ms);
    }

    #[test]
    fn slow_device_caps_throughput_and_inflates_delay() {
        // A dl10-like device: ~6.5 Mb/s, 64 KB buffers.
        let mut tb =
            Testbed::new("thr-slow", policy_with(6_500_000, 6_500_000, 7_000_000, 64 * 1024), 2, 3);
        let r = run_transfer(&mut tb, 5001, Direction::Download, 2 * MB);
        assert!(r.completed, "transfer stalled at {} bytes", r.bytes);
        assert!(r.throughput_mbps < 8.0, "got {}", r.throughput_mbps);
        assert!(r.delay_ms > 30.0, "expected queuing delay, got {} ms", r.delay_ms);
    }

    #[test]
    fn download_direction_also_works() {
        let mut tb = Testbed::new("thr-down", GatewayPolicy::well_behaved(), 3, 5);
        let r = run_transfer(&mut tb, 5002, Direction::Download, 2 * MB);
        assert!(r.completed);
        assert!(r.throughput_mbps > 60.0);
    }

    #[test]
    fn shared_cpu_degrades_bidirectional_throughput() {
        // 60/60 uni but a 70 Mb/s CPU: bidirectional must split.
        let mut tb = Testbed::new(
            "thr-bidir",
            policy_with(60_000_000, 60_000_000, 70_000_000, 96 * 1024),
            4,
            5,
        );
        let rep = run_battery(&mut tb, 2 * MB);
        assert!(rep.upload.throughput_mbps > 40.0, "uni up {}", rep.upload.throughput_mbps);
        assert!(rep.download.throughput_mbps > 40.0, "uni down {}", rep.download.throughput_mbps);
        let bidir_total =
            rep.upload_during_bidir.throughput_mbps + rep.download_during_bidir.throughput_mbps;
        assert!(
            bidir_total < 72.0,
            "bidirectional total {bidir_total} should be bounded by the shared CPU"
        );
        assert!(
            rep.upload_during_bidir.throughput_mbps < rep.upload.throughput_mbps,
            "contention should slow the upload"
        );
        // Delay grows under bidirectional load (TCP-3's observation).
        assert!(
            rep.download_during_bidir.delay_ms >= rep.download.delay_ms * 0.8,
            "bidir delay {} vs uni {}",
            rep.download_during_bidir.delay_ms,
            rep.download.delay_ms
        );
    }

    #[test]
    fn transfer_ending_inside_a_stamp_record_completes() {
        // 2 049 bytes: one whole record, then the first byte of the next.
        let mut tb = Testbed::new("thr-tail", GatewayPolicy::well_behaved(), 5, 3);
        let r = run_transfer(&mut tb, 5001, Direction::Upload, 2049);
        assert!(r.completed, "transfer stalled at {} bytes", r.bytes);
        assert_eq!(r.bytes, 2049);
        assert_eq!(r.delay_ms, 0.0, "one stamp, normalized to zero");
    }

    #[test]
    fn delay_statistic_normalizes_and_takes_median() {
        let stats = SinkStats {
            bytes: 0,
            stamps: vec![(0, 5_000_000), (10, 7_000_010), (20, 9_000_020), (30, 6_000_030)],
            last_arrival: None,
        };
        // Deltas: 5, 7, 9, 6 ms → normalized 0, 2, 4, 1 → sorted 0,1,2,4 →
        // median (upper of middle pair by index n/2) = 2.
        let d = delay_from_stamps(&stats);
        assert!((d - 2.0).abs() < 1e-9, "got {d}");
    }
}
