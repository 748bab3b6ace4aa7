//! Micro-benchmarks of the substrate: wire codecs, checksums, the bulk
//! sender's segment emission, the NAT table, the discrete-event engine under a TCP bulk transfer, and a
//! complete UDP-1 binding-timeout search.
//!
//! Criterion is unavailable offline, so this is a plain `harness = false`
//! timing loop: each benchmark is calibrated to run for roughly
//! `HGW_BENCH_MS` milliseconds (default 300) and reports ns/iter plus
//! throughput where a byte count is meaningful.
//!
//! Set `HGW_BENCH_JSON=<path>` to append the run as a capture to a
//! machine-readable `hgw-microbench/1` trajectory file (see
//! `hgw_bench::micro`); `HGW_BENCH_LABEL` names the capture (default
//! `run`). The committed `BENCH_micro.json` at the repo root tracks the
//! before/after trajectory of every data-plane optimization.
//!
//! The run ends with its telemetry dispatch budget verdict
//! ([`TelemetryBudget`]), computed from legs timed in this same run.

use std::net::Ipv4Addr;
use std::time::Instant as WallInstant;

use hgw_bench::micro::{MicroResult, TelemetryBudget};
use hgw_core::{
    impl_node_downcast, Node, NodeCtx, PortId, SimCore, SimNode, Simulator, TimerToken,
};
use hgw_gateway::{GatewayPolicy, NatProto, NatTable};
use hgw_probe::throughput::{run_transfer, Direction};
use hgw_probe::udp_timeout::measure_udp1;
use hgw_stack::tcp::{BulkSendBuffer, SEGMENT_HEADROOM};
use hgw_testbed::Testbed;
use hgw_wire::checksum::{
    copy_and_checksum, crc32c, internet_checksum, transport_checksum, ChecksumDelta,
};
use hgw_wire::ip::{Ipv4Repr, Protocol};
use hgw_wire::tcp::TcpRepr;
use hgw_wire::{Ipv4Packet, TcpFlags, TcpPacket};

/// Times `f` for ~`HGW_BENCH_MS` wall-clock ms, prints one result line, and
/// records the measurement into `results`.
fn bench<R>(
    results: &mut Vec<MicroResult>,
    group: &str,
    name: &str,
    bytes_per_iter: Option<u64>,
    f: impl FnMut() -> R,
) {
    let (ns, iters) = time_leg(hgw_bench::env_knob::<u64>("HGW_BENCH_MS", 300), f);
    record(results, group, name, bytes_per_iter, ns, iters);
}

/// Runs `f` for ~`budget_ms` wall-clock ms; returns ns/iter and iterations.
fn time_leg<R>(budget_ms: u64, mut f: impl FnMut() -> R) -> (f64, u64) {
    // Calibrate: double the batch until it takes at least 1 ms.
    let mut batch = 1u64;
    let per_iter_ns = loop {
        let start = WallInstant::now();
        for _ in 0..batch {
            std::hint::black_box(f());
        }
        let elapsed = start.elapsed();
        if elapsed.as_millis() >= 1 || batch >= 1 << 30 {
            break elapsed.as_nanos() as u64 / batch;
        }
        batch *= 2;
    };
    // Measure: run as many batches as fit the budget.
    let iters = ((budget_ms * 1_000_000) / per_iter_ns.max(1)).clamp(1, 10_000_000);
    let start = WallInstant::now();
    for _ in 0..iters {
        std::hint::black_box(f());
    }
    (start.elapsed().as_nanos() as f64 / iters as f64, iters)
}

/// Prints one result line and records it into `results`.
fn record(
    results: &mut Vec<MicroResult>,
    group: &str,
    name: &str,
    bytes_per_iter: Option<u64>,
    ns: f64,
    iters: u64,
) {
    let mut line = format!("{group}/{name:<32} {ns:>14.1} ns/iter  ({iters} iters)");
    let mb_per_s = bytes_per_iter.map(|b| {
        let mbps = b as f64 / (ns / 1e9) / 1e6;
        line.push_str(&format!("  {mbps:>10.1} MB/s"));
        mbps
    });
    println!("{line}");
    results.push(MicroResult {
        group: group.to_string(),
        name: name.to_string(),
        ns_per_iter: ns,
        mb_per_s,
        iters,
    });
}

fn bench_checksums(results: &mut Vec<MicroResult>) {
    let data = vec![0xA5u8; 1460];
    let len = data.len() as u64;
    bench(results, "checksum", "internet_checksum_1460", Some(len), || {
        internet_checksum(std::hint::black_box(&data))
    });
    // The wide-word path on MTU-sized pseudo-random content (the repeating
    // 0xA5 fill above is friendly to value prediction; this one is not).
    let mut state = 0x243F_6A88_85A3_08D3u64;
    let noisy: Vec<u8> = (0..1460)
        .map(|_| {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            (state >> 33) as u8
        })
        .collect();
    bench(results, "checksum", "checksum_1460B", Some(len), || {
        internet_checksum(std::hint::black_box(&noisy))
    });
    bench(results, "checksum", "crc32c_1460", Some(len), || crc32c(std::hint::black_box(&data)));
    let src = Ipv4Addr::new(192, 168, 1, 2);
    let dst = Ipv4Addr::new(10, 0, 1, 1);
    bench(results, "checksum", "transport_checksum_1460", Some(len), || {
        transport_checksum(src, dst, 6, std::hint::black_box(&data))
    });
    // Every frame's IPv4 header verify, on an option-less header: the
    // fixed 20-byte path of the sum (a host verifies each frame it
    // receives, the gateway each frame it forwards).
    let header = Ipv4Repr::new(src, dst, Protocol::Tcp).emit_with_payload(&[]);
    bench(results, "checksum", "ipv4_header_20", Some(20), || {
        Ipv4Packet::new_unchecked(std::hint::black_box(&header[..])).verify_checksum()
    });
    // The bulk-path kernel: append an MSS payload and produce its pair sum
    // (a memcpy, then the wide sum over the still-cached source), vs
    // summing the copied destination instead (kept as the oracle leg for
    // the trajectory). Both legs report payload bytes per iteration.
    let mut out = Vec::with_capacity(4096);
    bench(results, "checksum", "copy_and_checksum_1460B", Some(len), || {
        out.clear();
        copy_and_checksum(std::hint::black_box(&noisy), &mut out)
    });
    bench(results, "checksum", "copy_then_checksum_1460B", Some(len), || {
        out.clear();
        out.extend_from_slice(std::hint::black_box(&noisy));
        internet_checksum(std::hint::black_box(&out))
    });
}

/// One full bulk segment from the send buffer to a finished frame, the
/// way a bulk socket and the host's TCP send path build it: regenerate
/// 1460 stream bytes behind the 40-byte headroom (stamp records from their
/// send times, filler from the pattern, the pair sum without reading the
/// bytes back), then write both headers, summed from their fields. The
/// offset walks the buffer, so the segments cut the 2 KiB stamp blocks at
/// ever different points.
fn bench_tcp(results: &mut Vec<MicroResult>) {
    let src = Ipv4Addr::new(192, 168, 1, 2);
    let dst = Ipv4Addr::new(10, 0, 1, 1);
    let mut bulk = BulkSendBuffer::new(u64::MAX, 2048);
    bulk.generate(hgw_core::Instant::from_millis(1), 128 * 1024);
    let ip = Ipv4Repr::new(src, dst, Protocol::Tcp);
    let tcp = TcpRepr::new(40_000, 5_001, TcpFlags::ACK);
    let mut frame = Vec::with_capacity(SEGMENT_HEADROOM + 1460);
    let mut offset = 0;
    bench(results, "tcp", "bulk_segment_emit_1460", Some(1460), || {
        frame.clear();
        frame.resize(SEGMENT_HEADROOM, 0);
        let payload_sum = bulk.copy_range_into_with_sum(offset, 1460, &mut frame);
        ip.write_header(frame.len() - 20, &mut frame[..20]);
        tcp.write_header_with_sum(src, dst, 1460, payload_sum, &mut frame[20..]);
        offset = (offset + 1460) % (120 * 1024);
        std::hint::black_box(&frame);
    });
}

fn bench_wire(results: &mut Vec<MicroResult>) {
    let src = Ipv4Addr::new(192, 168, 1, 2);
    let dst = Ipv4Addr::new(10, 0, 1, 1);
    let seg = TcpRepr::new(40_000, 80, TcpFlags::ACK).emit_with_payload(src, dst, &[7u8; 1400]);
    let pkt = Ipv4Repr::new(src, dst, Protocol::Tcp).emit_with_payload(&seg);
    let len = pkt.len() as u64;
    bench(results, "wire", "ipv4_tcp_parse", Some(len), || {
        let ip = Ipv4Packet::new_checked(std::hint::black_box(&pkt[..])).unwrap();
        let tcp = TcpPacket::new_checked(ip.payload()).unwrap();
        (ip.verify_checksum(), tcp.verify_checksum(src, dst))
    });
    bench(results, "wire", "ipv4_tcp_emit", Some(len), || {
        let seg = TcpRepr::new(40_000, 80, TcpFlags::ACK).emit_with_payload(
            src,
            dst,
            std::hint::black_box(&[7u8; 1400]),
        );
        Ipv4Repr::new(src, dst, Protocol::Tcp).emit_with_payload(&seg)
    });
    // One full NAT source rewrite (IP addr + TCP port + both checksums) on
    // a resident 1460-byte frame, the way the gateway data plane does it:
    // RFC 1624 incremental fixup, no buffer copy, no re-summing. Each
    // iteration flips the frame between its internal and external identity
    // so the rewrite is never a no-op and checksums stay valid throughout.
    let mut frame = pkt.clone();
    let hl = Ipv4Packet::new_unchecked(&frame[..]).header_len();
    let addrs = [src, Ipv4Addr::new(10, 0, 1, 99)];
    let ports = [40_000u16, 61_111u16];
    let mut flip = 0usize;
    bench(results, "wire", "nat_rewrite_inplace", Some(len), || {
        flip ^= 1;
        let mut delta = {
            let mut ip = Ipv4Packet::new_unchecked(&mut frame[..]);
            ip.set_src_addr_adjusted(addrs[flip])
        };
        let mut tcp = TcpPacket::new_unchecked(&mut frame[hl..]);
        let old_port = tcp.src_port();
        delta.update_word(old_port, ports[flip]);
        tcp.set_src_port(ports[flip]);
        tcp.adjust_checksum(delta);
    });
    // The raw RFC 1624 arithmetic alone: fold an address + port change into
    // two stored checksums, no packet access.
    bench(results, "wire", "nat_rewrite_incremental", None, || {
        let mut delta = ChecksumDelta::new();
        delta.update_addr(std::hint::black_box(src), Ipv4Addr::new(10, 0, 1, 99));
        delta.update_word(std::hint::black_box(40_000), 61_111);
        (delta.apply(std::hint::black_box(0x1234)), delta.apply_transport(0x5678))
    });
    // The pre-fastpath strategy, kept for the trajectory: full header +
    // segment re-sum on every rewrite (what the proptest reference does).
    let mut frame = pkt.clone();
    let mut flip = 0usize;
    bench(results, "wire", "nat_rewrite_full_recompute", Some(len), || {
        flip ^= 1;
        {
            let mut ip = Ipv4Packet::new_unchecked(&mut frame[..]);
            ip.set_src_addr(addrs[flip]);
            ip.fill_checksum();
        }
        let mut tcp = TcpPacket::new_unchecked(&mut frame[hl..]);
        tcp.set_src_port(ports[flip]);
        tcp.fill_checksum(addrs[flip], dst);
    });
}

/// Builds a table holding `n` live TCP bindings from distinct internal
/// ports (address-and-port-dependent mapping keeps them distinct).
fn nat_with_bindings(n: u16) -> (NatTable, GatewayPolicy) {
    let mut p = GatewayPolicy::well_behaved();
    p.max_bindings = 8192;
    p.mapping = hgw_gateway::EndpointScope::AddressAndPortDependent;
    let mut nat = NatTable::new();
    for i in 0..n {
        nat.outbound(
            hgw_core::Instant::ZERO,
            &p,
            NatProto::Tcp,
            (Ipv4Addr::new(192, 168, 1, 100), 10_000 + i),
            (Ipv4Addr::new(10, 0, 1, 1), 80),
            false,
            false,
        );
    }
    (nat, p)
}

fn bench_nat_table(results: &mut Vec<MicroResult>) {
    let policy = GatewayPolicy::well_behaved();
    let mut nat = NatTable::new();
    let internal = (Ipv4Addr::new(192, 168, 1, 100), 5000);
    let remote = (Ipv4Addr::new(10, 0, 1, 1), 80);
    nat.outbound(hgw_core::Instant::ZERO, &policy, NatProto::Udp, internal, remote, false, false);
    bench(results, "nat", "outbound_hit", None, || {
        nat.outbound(
            hgw_core::Instant::from_secs(1),
            &policy,
            NatProto::Udp,
            internal,
            remote,
            false,
            false,
        )
    });

    let (mut nat, p) = nat_with_bindings(512);
    bench(results, "nat", "inbound_lookup_512_bindings", None, || {
        nat.inbound(
            hgw_core::Instant::from_secs(1),
            &p,
            NatProto::Tcp,
            10_256,
            (Ipv4Addr::new(10, 0, 1, 1), 80),
            false,
            false,
        )
    });

    // The TCP-4 regime: a thousand concurrent bindings. Every outbound and
    // inbound packet pays the table's lookup + sweep costs at scale.
    let (mut nat, p) = nat_with_bindings(1000);
    bench(results, "nat", "outbound_hit_1k_bindings", None, || {
        nat.outbound(
            hgw_core::Instant::from_secs(1),
            &p,
            NatProto::Tcp,
            (Ipv4Addr::new(192, 168, 1, 100), 10_500),
            (Ipv4Addr::new(10, 0, 1, 1), 80),
            false,
            false,
        )
    });
    let (mut nat, p) = nat_with_bindings(1000);
    bench(results, "nat", "inbound_lookup_1k_bindings", None, || {
        nat.inbound(
            hgw_core::Instant::from_secs(1),
            &p,
            NatProto::Tcp,
            10_500,
            (Ipv4Addr::new(10, 0, 1, 1), 80),
            false,
            false,
        )
    });
}

/// The TCP-4 re-time path, one device's ramp per iteration: a cleared
/// table takes 256 TCP bindings 4 ms apart, each refreshed by its SYN-ACK,
/// while two earlier bindings are refreshed both ways at every step (the
/// ramp crosses a second of the quantized idle timeout, so these re-time
/// too). Then every binding is torn down, alternately by a FIN pair (the
/// 10 s linger) and by a RST. Creations in one second of the timeout,
/// lingers and RSTs are the expiry inserts a TCP-4 ramp makes.
fn bench_nat_retime(results: &mut Vec<MicroResult>) {
    let (mut nat, p) = nat_with_bindings(0);
    let remote = (Ipv4Addr::new(10, 0, 1, 1), 80);
    let port = |i: u16| 10_000 + i;
    let lan = |i: u16| (Ipv4Addr::new(192, 168, 1, 100), port(i));
    bench(results, "nat", "retime_256_bindings", None, || {
        nat.clear();
        let mut now = hgw_core::Instant::ZERO;
        for i in 0..256 {
            now += hgw_core::Duration::from_millis(4);
            nat.outbound(now, &p, NatProto::Tcp, lan(i), remote, false, false);
            nat.inbound(now, &p, NatProto::Tcp, port(i), remote, false, false);
            for j in [i / 2, i / 3] {
                nat.outbound(now, &p, NatProto::Tcp, lan(j), remote, false, false);
                nat.inbound(now, &p, NatProto::Tcp, port(j), remote, false, false);
            }
        }
        for i in 0..256 {
            now += hgw_core::Duration::from_millis(1);
            let fin = i % 2 == 0;
            nat.outbound(now, &p, NatProto::Tcp, lan(i), remote, fin, !fin);
            if fin {
                nat.inbound(now, &p, NatProto::Tcp, port(i), remote, true, false);
            }
        }
        nat.stats().bindings_expired
    });
}

/// A node that perpetually re-arms a timer, so every `Simulator::step`
/// performs exactly one pop + dispatch + re-arm cycle. This isolates the
/// engine's per-event overhead (queue ops, scratch action buffer, callback
/// plumbing) from any protocol work.
struct TimerPingPong;

impl Node for TimerPingPong {
    fn start(&mut self, ctx: &mut NodeCtx) {
        ctx.set_timer_after(hgw_core::Duration::from_micros(1), TimerToken(0));
    }
    fn handle_frame(&mut self, _: &mut NodeCtx, _: PortId, _: &mut Vec<u8>) {}
    fn handle_timer(&mut self, ctx: &mut NodeCtx, token: TimerToken) {
        ctx.set_timer_after(hgw_core::Duration::from_micros(1), token);
    }
    impl_node_downcast!();
}

/// How many frames [`BurstSender`] emits per timer firing.
const BURST: usize = 32;

/// Emits a [`BURST`]-frame train over an ideal (zero-delay, infinite-rate)
/// link each time its timer fires, then re-arms. Every firing lands the
/// whole train on the peer at one instant — the same-timestamp, same-node
/// shape that `Simulator::step`'s batched dispatch drains in one pass.
struct BurstSender;

impl Node for BurstSender {
    fn start(&mut self, ctx: &mut NodeCtx) {
        ctx.set_timer_after(hgw_core::Duration::from_micros(1), TimerToken(0));
    }
    fn handle_frame(&mut self, _: &mut NodeCtx, _: PortId, _: &mut Vec<u8>) {}
    fn handle_timer(&mut self, ctx: &mut NodeCtx, token: TimerToken) {
        for _ in 0..BURST {
            let mut f = ctx.alloc_frame(64);
            f.resize(64, 0);
            ctx.send_frame(PortId(0), f);
        }
        ctx.set_timer_after(hgw_core::Duration::from_micros(1), token);
    }
    impl_node_downcast!();
}

/// Recycles every frame it receives, keeping the pool warm.
struct FrameSink;

impl Node for FrameSink {
    fn handle_frame(&mut self, ctx: &mut NodeCtx, _: PortId, frame: &mut Vec<u8>) {
        ctx.recycle_frame(std::mem::take(frame));
    }
    fn handle_timer(&mut self, _: &mut NodeCtx, _: TimerToken) {}
    impl_node_downcast!();
}

/// The bench topology's closed node set, dispatched by match through
/// [`SimNode`] — the same static-dispatch shape `hgw-testbed`'s `NodeKind`
/// gives the real topologies. The headline `sim_event_dispatch` runs on
/// `SimCore<BenchNode>`; the `_boxed` legs keep the `Box<dyn Node>` engine
/// configuration alive as the differential baseline.
enum BenchNode {
    PingPong(TimerPingPong),
    Burst(BurstSender),
    Sink(FrameSink),
}

impl SimNode for BenchNode {
    fn start(&mut self, ctx: &mut NodeCtx) {
        match self {
            BenchNode::PingPong(n) => Node::start(n, ctx),
            BenchNode::Burst(n) => Node::start(n, ctx),
            BenchNode::Sink(n) => Node::start(n, ctx),
        }
    }
    fn handle_frame(&mut self, ctx: &mut NodeCtx, port: PortId, frame: &mut Vec<u8>) {
        match self {
            BenchNode::PingPong(n) => n.handle_frame(ctx, port, frame),
            BenchNode::Burst(n) => n.handle_frame(ctx, port, frame),
            BenchNode::Sink(n) => n.handle_frame(ctx, port, frame),
        }
    }
    fn handle_timer(&mut self, ctx: &mut NodeCtx, token: TimerToken) {
        match self {
            BenchNode::PingPong(n) => n.handle_timer(ctx, token),
            BenchNode::Burst(n) => n.handle_timer(ctx, token),
            BenchNode::Sink(n) => n.handle_timer(ctx, token),
        }
    }
    fn as_any(&self) -> &dyn std::any::Any {
        match self {
            BenchNode::PingPong(n) => n,
            BenchNode::Burst(n) => n,
            BenchNode::Sink(n) => n,
        }
    }
    fn as_any_mut(&mut self) -> &mut dyn std::any::Any {
        match self {
            BenchNode::PingPong(n) => n,
            BenchNode::Burst(n) => n,
            BenchNode::Sink(n) => n,
        }
    }
}

/// The timing wheel's own costs, isolated from the simulator: four inserts
/// spanning every wheel level (µs to hour horizons, mimicking link
/// serialization, TCP retransmit, NAT expiry, and UDP-timeout deadlines),
/// then an advance that drains them. NAT-style lazy cancellation is free
/// by construction (a cancelled entry is just popped and discarded), so
/// the drain half *is* the cancel half.
fn bench_timer(results: &mut Vec<MicroResult>) {
    let mut wheel: hgw_core::TimerWheel<u32> = hgw_core::TimerWheel::new();
    let mut seq = 0u64;
    let mut now = 0u64;
    bench(results, "timer", "timer_insert_cancel_advance", None, || {
        for (i, dt) in [1_000u64, 100_000, 10_000_000, 1_000_000_000].into_iter().enumerate() {
            seq += 1;
            wheel.insert(now + dt, seq, i as u32);
        }
        now += 1_000_000_000;
        let mut drained = 0u32;
        while wheel.pop_due(now).is_some() {
            drained += 1;
        }
        drained
    });
}

/// The event queue's shape under a bulk TCP transfer: an RTO at +200 ms
/// and a DHCP lease at +1 h have pulled the wheel's cursor far ahead, so
/// each of the ~10 near events outstanding (link completions, deliveries)
/// is inserted behind the cursor. One iteration pops the minimum, offers
/// the next entry to a delivery-train `pop_if` that refuses it, and
/// inserts the next near event 1-50 µs out (a popped far timer re-arms
/// instead).
fn bench_near_inserts(results: &mut Vec<MicroResult>) {
    const NEAR: u32 = 0;
    const RTO: u64 = 200_000_000;
    const LEASE: u64 = 3_600_000_000_000;
    let mut wheel: hgw_core::TimerWheel<u32> = hgw_core::TimerWheel::new();
    let mut seq = 0u64;
    let mut insert = |wheel: &mut hgw_core::TimerWheel<u32>, at: u64, kind: u32| {
        seq += 1;
        wheel.insert(at, seq, kind);
    };
    insert(&mut wheel, RTO, 1);
    insert(&mut wheel, LEASE, 2);
    for i in 0..10 {
        insert(&mut wheel, 1_000 + i * 5_000, NEAR);
    }
    let mut gap = 1u64;
    bench(results, "timer", "near_inserts_behind_far_timer", None, || {
        let (now, _, kind) = wheel.pop().expect("ten near events stay queued");
        if kind != NEAR {
            insert(&mut wheel, now + if kind == 1 { RTO } else { LEASE }, kind);
            return now;
        }
        let refused = wheel.pop_if(|at, _, &k| at == now && k != NEAR);
        debug_assert!(refused.is_none());
        gap = gap.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1_442_695_040_888_963_407);
        insert(&mut wheel, now + 1_000 + gap % 49_000, NEAR);
        now
    });
}

fn bench_simulation(results: &mut Vec<MicroResult>) {
    const MB: u64 = 1024 * 1024;
    // Headline: static enum dispatch, the engine shape every topology runs
    // since the NodeKind refactor. No vtable call, no Option dance.
    let mut sim: SimCore<BenchNode> = SimCore::new(1);
    sim.add_node(BenchNode::PingPong(TimerPingPong));
    sim.boot();
    bench(results, "simulation", "sim_event_dispatch", None, || sim.step());
    // The retained boxed-trait engine configuration (`Simulator` =
    // `SimCore<Box<dyn Node>>`), measured as the differential baseline.
    let mut boxed_sim = Simulator::new(1);
    boxed_sim.add_node(Box::new(TimerPingPong));
    boxed_sim.boot();
    bench(results, "simulation", "sim_event_dispatch_boxed", None, || boxed_sim.step());
    // Headline gauge derived from the dispatch measurement just taken: how
    // many engine events one core sustains per second. Recorded with the
    // rate in `ns_per_iter` (the schema's only value slot) — read it as
    // events/sec, not nanoseconds.
    if let Some(d) =
        results.iter().find(|r| r.group == "simulation" && r.name == "sim_event_dispatch")
    {
        let eps = 1e9 / d.ns_per_iter;
        println!(
            "simulation/{:<32} {eps:>14.0} events/s  (gauge; 1e9 / sim_event_dispatch)",
            "sim_events_per_sec"
        );
        results.push(MicroResult {
            group: "simulation".to_string(),
            name: "sim_events_per_sec".to_string(),
            ns_per_iter: eps,
            mb_per_s: None,
            iters: d.iters,
        });
    }
    // One 32-frame same-instant train per iteration: the timer firing plus
    // BURST deliveries drained by the batched-dispatch fast path.
    let mut burst_sim: SimCore<BenchNode> = SimCore::new(1);
    let a = burst_sim.add_node(BenchNode::Burst(BurstSender));
    let b = burst_sim.add_node(BenchNode::Sink(FrameSink));
    burst_sim.connect(a, PortId(0), b, PortId(0), hgw_core::LinkConfig::ideal());
    burst_sim.boot();
    let train = BURST as u64 + 2;
    bench(results, "simulation", "batch_dispatch_same_link_train", Some(64 * BURST as u64), || {
        burst_sim.run_until_idle(train)
    });
    bench(results, "simulation", "tcp_bulk_2mb_through_gateway", Some(2 * MB), || {
        let mut tb = Testbed::new("bench", GatewayPolicy::well_behaved(), 1, 7);
        run_transfer(&mut tb, 5001, Direction::Upload, 2 * MB)
    });
    // The paper's actual TCP-2 transfer size. One iteration simulates a full
    // 100 MB upload (~8.5 s of simulated time), so this only runs when
    // explicitly requested — the CI smoke keeps its tight budget.
    if std::env::var("HGW_BENCH_FULL").is_ok_and(|v| v == "1") {
        bench(results, "simulation", "tcp_bulk_100mb_through_gateway", Some(100 * MB), || {
            let mut tb = Testbed::new("bench", GatewayPolicy::well_behaved(), 1, 7);
            run_transfer(&mut tb, 5001, Direction::Upload, 100 * MB)
        });
    }
    bench(results, "simulation", "udp1_full_binary_search", None, || {
        let mut tb = Testbed::new("bench", GatewayPolicy::well_behaved(), 2, 9);
        measure_udp1(&mut tb, 20_000)
    });
    bench(results, "simulation", "testbed_bringup_double_dhcp", None, || {
        Testbed::new("bench", GatewayPolicy::well_behaved(), 3, 11)
    });
}

/// The telemetry layer's own costs: one histogram sample and the per-event
/// overhead of a telemetry-enabled simulator (compare against
/// `simulation/sim_event_dispatch`, the disabled path).
fn bench_telemetry(results: &mut Vec<MicroResult>) {
    let mut h = hgw_core::Histogram::new();
    let mut v = 1u64;
    bench(results, "telemetry", "histogram_record", None, || {
        v = v.wrapping_mul(6364136223846793005).wrapping_add(1);
        h.record(v >> 40);
    });
    // The legs `TelemetryBudget` machine-checks: three identical boxed
    // engines on the timer-only path, one with telemetry (histograms and
    // flight recorder) enabled, one with it disabled, one plain. The
    // disabled leg is what every run without telemetry pays for carrying
    // its branches; it is held to the ≤2% budget against the plain leg. The
    // legs take turns in TELEMETRY_REPEATS rounds, in alternating order,
    // and each reports its median round, so a machine-speed shift during
    // the run lands on all three instead of deciding the verdict.
    let mut legs: Vec<(&str, Simulator)> = ["baseline", "off", "on"]
        .into_iter()
        .map(|leg| {
            let mut sim = Simulator::new(1);
            if leg == "on" {
                sim.enable_telemetry();
            }
            sim.add_node(Box::new(TimerPingPong));
            sim.boot();
            (leg, sim)
        })
        .collect();
    let round_ms =
        hgw_bench::env_knob::<u64>("HGW_BENCH_MS", 300).div_ceil(TELEMETRY_REPEATS as u64);
    let mut rounds = vec![Vec::with_capacity(TELEMETRY_REPEATS); legs.len()];
    let mut iters = vec![0u64; legs.len()];
    for round in 0..TELEMETRY_REPEATS {
        let mut order: Vec<usize> = (0..legs.len()).collect();
        if round % 2 == 1 {
            order.reverse();
        }
        for i in order {
            let (ns, n) = time_leg(round_ms, || legs[i].1.step());
            rounds[i].push(ns);
            iters[i] += n;
        }
    }
    for (i, (leg, _)) in legs.iter().enumerate() {
        let name = format!("sim_event_dispatch_telemetry_{leg}");
        record(results, "telemetry", &name, None, median(&mut rounds[i]), iters[i]);
    }
}

/// Interleaved rounds per telemetry-budget leg.
const TELEMETRY_REPEATS: usize = 5;

/// The median of `xs` (the upper middle for an even count).
fn median(xs: &mut [f64]) -> f64 {
    xs.sort_by(f64::total_cmp);
    xs[xs.len() / 2]
}

fn main() {
    let mut results = Vec::new();
    bench_checksums(&mut results);
    bench_tcp(&mut results);
    bench_wire(&mut results);
    bench_nat_table(&mut results);
    bench_nat_retime(&mut results);
    bench_timer(&mut results);
    bench_near_inserts(&mut results);
    bench_simulation(&mut results);
    bench_telemetry(&mut results);
    if let Ok(path) = std::env::var("HGW_BENCH_JSON") {
        let label = std::env::var("HGW_BENCH_LABEL").unwrap_or_else(|_| "run".to_string());
        let bench_ms = hgw_bench::env_knob::<u64>("HGW_BENCH_MS", 300);
        let path = std::path::PathBuf::from(path);
        match hgw_bench::micro::append_capture(&path, &label, bench_ms, &results) {
            Ok(()) => println!("capture '{label}' appended to {}", path.display()),
            Err(e) => eprintln!("failed to write {}: {e}", path.display()),
        }
    }
    match TelemetryBudget::evaluate(&results) {
        Some(verdict) => println!("{verdict}"),
        None => println!("telemetry dispatch: a budget leg is missing — no verdict"),
    }
}
