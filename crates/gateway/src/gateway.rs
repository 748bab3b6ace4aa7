//! The [`Gateway`] node: a simulated home gateway (the paper's device under
//! test).
//!
//! Port 0 is the "LAN" side (test client), port 1 the "WAN" side (test
//! server), matching Figure 1. The gateway:
//!
//! * acquires its WAN address via DHCP from the test server,
//! * serves DHCP to the LAN (router = itself, DNS = its proxy),
//! * NAPT-translates UDP, TCP and ICMP-query flows per its
//!   [`GatewayPolicy`],
//! * translates (or mistranslates) inbound ICMP errors,
//! * applies its unknown-protocol fallback to SCTP/DCCP,
//! * forwards through a capacity-limited engine (throughput/queuing), and
//! * proxies DNS over UDP and, policy permitting, TCP.

use std::net::{Ipv4Addr, SocketAddrV4};

use hgw_core::{
    impl_node_downcast, Cleared, DropReason, Instant, Node, NodeCtx, PortId, TimerToken, TraceEvent,
};
use hgw_stack::dhcp::{DhcpClient, DhcpServer, DhcpServerConfig, DnsServers};
use hgw_stack::host::send_udp;
use hgw_stack::tcp::{TcpConfig, TcpSocket};
use hgw_wire::dhcp::{DhcpMessage, CLIENT_PORT, SERVER_PORT};
use hgw_wire::dns::DnsMessage;
use hgw_wire::icmp::{IcmpRepr, TimeExceededCode, UnreachCode};
use hgw_wire::ip::{Ipv4Repr, Protocol, OPT_RECORD_ROUTE};
use hgw_wire::tcp::TcpRepr;
use hgw_wire::{Ipv4Packet, SeqNumber, TcpFlags, TcpPacket, UdpPacket, UdpRepr};

use crate::engine::{ForwardingEngine, FwdDir};
use crate::nat::{InboundVerdict, NatProto, NatTable, OutboundVerdict};
use crate::policy::{DnsTcpMode, GatewayPolicy, IcmpErrorKind, UnknownProtoPolicy};

/// The LAN-side port of every gateway.
pub const LAN_PORT: PortId = PortId(0);
/// The WAN-side port of every gateway.
pub const WAN_PORT: PortId = PortId(1);

const TOKEN_POLL: TimerToken = TimerToken(0);
const TOKEN_ENGINE_UP: TimerToken = TimerToken(1);
const TOKEN_ENGINE_DOWN: TimerToken = TimerToken(2);

/// Aggregate gateway counters (diagnostics; probes never read these).
#[derive(Debug, Clone, Copy, Default)]
pub struct GatewayStats {
    /// Packets dropped for lack of a NAT binding.
    pub dropped_no_binding: u64,
    /// Packets dropped by inbound filtering.
    pub dropped_filtered: u64,
    /// Packets dropped because the binding table was full.
    pub dropped_capacity: u64,
    /// Unknown-protocol packets dropped by policy.
    pub dropped_unknown_proto: u64,
    /// ICMP errors translated toward the LAN.
    pub icmp_translated: u64,
    /// ICMP errors discarded by policy.
    pub icmp_dropped: u64,
}

/// A LAN-side DNS-over-TCP proxy connection.
struct ProxyConn {
    sock: TcpSocket,
    inbuf: Vec<u8>,
}

/// A WAN-side upstream TCP connection created for one proxied query.
struct UpstreamConn {
    sock: TcpSocket,
    /// Index of the LAN-side connection awaiting the answer.
    for_conn: usize,
    inbuf: Vec<u8>,
    query: Vec<u8>,
    query_sent: bool,
}

/// A pending UDP-proxied DNS query.
struct UdpProxyEntry {
    client: SocketAddrV4,
    proxy_port: u16,
    /// When set, the answer is relayed over this LAN TCP connection
    /// (length-framed) instead of UDP — the ap behavior.
    tcp_conn: Option<usize>,
}

/// A simulated home gateway.
pub struct Gateway {
    /// The device tag (e.g. `ls1`).
    pub tag: String,
    /// The behavior model.
    pub policy: GatewayPolicy,
    nat: NatTable,
    engine: ForwardingEngine,

    lan_addr: Ipv4Addr,
    wan_addr: Option<Ipv4Addr>,
    upstream_dns: Option<Ipv4Addr>,

    dhcp_client: DhcpClient,
    dhcp_server: DhcpServer,

    /// Address-level associations for unknown transports under
    /// `IpRewrite`: (protocol number, internal addr, remote addr).
    ip_assocs: Vec<(u8, Ipv4Addr, Ipv4Addr)>,

    udp_dns_pending: Vec<UdpProxyEntry>,
    next_proxy_port: u16,
    proxy_conns: Vec<Option<ProxyConn>>,
    upstream_conns: Vec<Option<UpstreamConn>>,

    /// Diagnostics.
    pub stats: GatewayStats,
    armed_at: Option<Instant>,
    /// Scratch for one DHCP message's encoding before it is framed.
    dhcp_wire: Vec<u8>,
}

impl Gateway {
    /// Creates a gateway for testbed slot `index` (LAN subnet
    /// `192.168.<index>.0/24`, as in Figure 1).
    pub fn new(tag: &str, policy: GatewayPolicy, index: u8) -> Gateway {
        let lan_addr = Ipv4Addr::new(192, 168, index, 1);
        let dhcp_server = DhcpServer::new(DhcpServerConfig {
            server_addr: lan_addr,
            pool_start: Ipv4Addr::new(192, 168, index, 100),
            pool_size: 100,
            subnet_mask: Ipv4Addr::new(255, 255, 255, 0),
            router: None,
            // Clients use the gateway's proxy.
            dns_servers: DnsServers::from_slice(&[lan_addr]),
            lease_secs: 7 * 24 * 3600,
        });
        let chaddr = [0x02, 0x47, 0x57, 0, 0, index];
        Gateway {
            tag: tag.to_string(),
            nat: NatTable::new(),
            engine: ForwardingEngine::new(policy.forwarding),
            policy,
            lan_addr,
            wan_addr: None,
            upstream_dns: None,
            dhcp_client: DhcpClient::new(chaddr, 0x4757_0000 | index as u32),
            dhcp_server,
            ip_assocs: Vec::new(),
            udp_dns_pending: Vec::new(),
            next_proxy_port: 50_000,
            proxy_conns: Vec::new(),
            upstream_conns: Vec::new(),
            stats: GatewayStats::default(),
            armed_at: None,
            dhcp_wire: Vec::new(),
        }
    }

    /// Turns a retired gateway into `Gateway::new(tag, policy, index)`,
    /// keeping the capacity of its NAT table, forwarding queues, proxy
    /// tables and scratch buffers for the next device a fleet worker runs.
    /// Logical state comes from `new`.
    pub fn renew(&mut self, tag: &str, policy: GatewayPolicy, index: u8) {
        let mut old = std::mem::replace(self, Gateway::new("", policy, index));
        self.tag = old.tag.cleared();
        self.tag.push_str(tag);
        old.nat.clear();
        self.nat = old.nat;
        self.engine.reuse_queues(old.engine);
        self.ip_assocs = old.ip_assocs.cleared();
        self.udp_dns_pending = old.udp_dns_pending.cleared();
        self.proxy_conns = old.proxy_conns.cleared();
        self.upstream_conns = old.upstream_conns.cleared();
        self.dhcp_wire = old.dhcp_wire.cleared();
    }

    /// The gateway's LAN-side address.
    pub fn lan_addr(&self) -> Ipv4Addr {
        self.lan_addr
    }

    /// The DHCP-acquired WAN address, once bound.
    pub fn wan_addr(&self) -> Option<Ipv4Addr> {
        self.wan_addr
    }

    /// Live NAT bindings (diagnostics; the probes observe externally).
    pub fn nat_table(&self) -> &NatTable {
        &self.nat
    }

    /// Aggregate NAT counters (diagnostics).
    pub fn nat_stats(&self) -> crate::nat::NatStats {
        self.nat.stats()
    }

    /// Turns on NAT binding-lifecycle tracing. Buffered events are drained
    /// into the simulator's trace stream ([`TraceEvent::Binding`]) at the
    /// end of every node dispatch, so observers see them in mutation
    /// order. Idempotent; pure observability (forwarding behavior and NAT
    /// state are bit-identical either way).
    pub fn enable_lifecycle_tracing(&mut self) {
        self.nat.enable_lifecycle_tracing();
    }

    /// True once [`Gateway::enable_lifecycle_tracing`] has been called.
    pub fn lifecycle_tracing_enabled(&self) -> bool {
        self.nat.lifecycle_tracing_enabled()
    }

    // ------------------------------------------------- engine plumbing --

    fn kick_engine(&mut self, ctx: &mut NodeCtx) {
        let now = ctx.now();
        if let Some(finish) = self.engine.start_service(now, FwdDir::Up) {
            ctx.set_timer_at(finish, TOKEN_ENGINE_UP);
        }
        if let Some(finish) = self.engine.start_service(now, FwdDir::Down) {
            ctx.set_timer_at(finish, TOKEN_ENGINE_DOWN);
        }
    }

    fn forward(&mut self, ctx: &mut NodeCtx, dir: FwdDir, frame: Vec<u8>) {
        let bytes = frame.len();
        let now = ctx.now();
        if !self.engine.enqueue(dir, frame, now) {
            ctx.emit_trace(TraceEvent::FrameDropped { reason: DropReason::QueueOverflow, bytes });
        }
        self.kick_engine(ctx);
    }

    /// Forwards the first packet of a freshly created binding, paying the
    /// binding-setup processing cost.
    fn forward_created(&mut self, ctx: &mut NodeCtx, dir: FwdDir, frame: Vec<u8>, created: bool) {
        let surcharge =
            if created { self.policy.binding_setup_cost } else { hgw_core::Duration::ZERO };
        let bytes = frame.len();
        let now = ctx.now();
        if !self.engine.enqueue_with_surcharge(dir, frame, surcharge, now) {
            ctx.emit_trace(TraceEvent::FrameDropped { reason: DropReason::QueueOverflow, bytes });
        }
        self.kick_engine(ctx);
    }

    /// Drains buffered NAT lifecycle events into the simulator's trace
    /// stream. Called once at the end of every node entry point — all NAT
    /// mutations happen on the frame path, so one flush per dispatch
    /// preserves mutation order and leaves no events stranded.
    fn flush_lifecycle(&mut self, ctx: &mut NodeCtx) {
        if self.nat.lifecycle_tracing_enabled() {
            for e in self.nat.drain_lifecycle_events() {
                ctx.emit_trace(TraceEvent::Binding {
                    flow: e.flow,
                    proto: e.proto,
                    external_port: e.external_port,
                    lifecycle: e.lifecycle,
                });
            }
        }
    }

    /// Counts a drop in the local stats and reports it to the observer.
    fn drop_frame(&mut self, ctx: &mut NodeCtx, reason: DropReason, bytes: usize) {
        match reason {
            DropReason::NoBinding => self.stats.dropped_no_binding += 1,
            DropReason::Filtered => self.stats.dropped_filtered += 1,
            DropReason::Capacity => self.stats.dropped_capacity += 1,
            DropReason::UnknownProto => self.stats.dropped_unknown_proto += 1,
            _ => {}
        }
        ctx.emit_trace(TraceEvent::FrameDropped { reason, bytes });
    }

    // ------------------------------------------------------ LAN ingress --

    /// LAN ingress. Only a forwarded frame is taken out of `frame`; one the
    /// gateway consumes or drops stays behind for the simulator's pool.
    fn lan_input(&mut self, ctx: &mut NodeCtx, frame: &mut Vec<u8>) {
        let Ok(ip) = Ipv4Packet::new_checked(&frame[..]) else { return };
        if !ip.verify_checksum() {
            let bytes = frame.len();
            self.drop_frame(ctx, DropReason::Checksum, bytes);
            return;
        }
        let dst = ip.dst_addr();
        if dst == self.lan_addr || dst == Ipv4Addr::BROADCAST {
            self.local_input_lan(ctx, frame);
            return;
        }
        self.forward_up(ctx, std::mem::take(frame));
    }

    fn local_input_lan(&mut self, ctx: &mut NodeCtx, frame: &[u8]) {
        let ip = Ipv4Packet::new_unchecked(frame);
        let src_addr = ip.src_addr();
        // Locally-addressed traffic is parsed in place; nothing below needs
        // an owned copy of the IP payload.
        match ip.protocol() {
            Protocol::Udp => {
                let Ok(udp) = UdpPacket::new_checked(ip.payload()) else { return };
                if !udp.verify_checksum(src_addr, ip.dst_addr()) {
                    return;
                }
                match udp.dst_port() {
                    SERVER_PORT => self.lan_dhcp_input(ctx, udp.payload()),
                    53 if self.policy.dns_proxy.udp => {
                        let client = SocketAddrV4::new(src_addr, udp.src_port());
                        self.proxy_udp_query(ctx, client, udp.payload(), None);
                    }
                    _ => {}
                }
            }
            Protocol::Tcp => {
                self.lan_tcp_input(ctx, src_addr, ip.payload());
            }
            Protocol::Icmp => {
                if let Ok(IcmpRepr::EchoRequest { ident, seq, payload }) =
                    IcmpRepr::parse(ip.payload())
                {
                    let reply = IcmpRepr::EchoReply { ident, seq, payload };
                    let repr = Ipv4Repr::new(self.lan_addr, src_addr, Protocol::Icmp);
                    ctx.send_frame(LAN_PORT, repr.emit_with_payload(&reply.emit()));
                }
            }
            _ => {}
        }
    }

    fn lan_dhcp_input(&mut self, ctx: &mut NodeCtx, payload: &[u8]) {
        let Ok(msg) = DhcpMessage::parse(payload) else { return };
        if let Some(reply) = self.dhcp_server.process(&msg) {
            let udp = UdpRepr { src_port: SERVER_PORT, dst_port: CLIENT_PORT };
            let repr = Ipv4Repr::new(self.lan_addr, Ipv4Addr::BROADCAST, Protocol::Udp);
            self.dhcp_wire.clear();
            reply.emit_onto(&mut self.dhcp_wire);
            send_udp(ctx, LAN_PORT, repr, (self.lan_addr, udp), &self.dhcp_wire);
        }
    }

    // ----------------------------------------------------- NAT outbound --

    fn forward_up(&mut self, ctx: &mut NodeCtx, mut frame: Vec<u8>) {
        let Some(wan_addr) = self.wan_addr else { return };
        // Hairpinning: a LAN packet addressed to our own external address.
        {
            let ip = Ipv4Packet::new_unchecked(&frame[..]);
            if ip.dst_addr() == wan_addr {
                if self.policy.hairpinning {
                    self.hairpin(ctx, frame);
                }
                return;
            }
        }
        // TTL handling.
        {
            let mut ip = Ipv4Packet::new_unchecked(&mut frame[..]);
            if self.policy.decrement_ttl {
                let ttl = ip.ttl();
                if ttl <= 1 {
                    let src = ip.src_addr();
                    let msg = IcmpRepr::TimeExceeded {
                        code: TimeExceededCode::TtlExceeded,
                        invoking: frame.clone(),
                    };
                    let repr = Ipv4Repr::new(self.lan_addr, src, Protocol::Icmp);
                    ctx.send_frame(LAN_PORT, repr.emit_with_payload(&msg.emit()));
                    let bytes = frame.len();
                    self.drop_frame(ctx, DropReason::TtlExpired, bytes);
                    return;
                }
                ip.set_ttl_adjusted(ttl - 1);
            }
        }
        // Record Route.
        if self.policy.honor_record_route {
            self.apply_record_route(&mut frame, wan_addr);
        }

        let ip = Ipv4Packet::new_unchecked(&frame[..]);
        let (src_addr, dst_addr) = (ip.src_addr(), ip.dst_addr());
        let hl = ip.header_len();
        let proto = ip.protocol();
        let now = ctx.now();
        match proto {
            Protocol::Udp => {
                let Ok(udp) = UdpPacket::new_checked(ip.payload()) else { return };
                let (sport, dport) = (udp.src_port(), udp.dst_port());
                match self.nat.outbound(
                    now,
                    &self.policy,
                    NatProto::Udp,
                    (src_addr, sport),
                    (dst_addr, dport),
                    false,
                    false,
                ) {
                    OutboundVerdict::Translated { external_port, created } => {
                        {
                            let mut ipm = Ipv4Packet::new_unchecked(&mut frame[..]);
                            let mut delta = ipm.set_src_addr_adjusted(wan_addr);
                            let mut udpm = UdpPacket::new_unchecked(ipm.payload_mut());
                            delta.update_word(sport, external_port);
                            udpm.set_src_port(external_port);
                            udpm.adjust_checksum(delta);
                        }
                        if created {
                            ctx.emit_trace(TraceEvent::BindingCreated {
                                external_port,
                                port_preserved: external_port == sport,
                            });
                        }
                        self.forward_created(ctx, FwdDir::Up, frame, created);
                    }
                    OutboundVerdict::NoCapacity => {
                        let bytes = frame.len();
                        self.drop_frame(ctx, DropReason::Capacity, bytes);
                    }
                }
            }
            Protocol::Tcp => {
                let Ok(tcp) = TcpPacket::new_checked(ip.payload()) else { return };
                let (sport, dport) = (tcp.src_port(), tcp.dst_port());
                let flags = tcp.flags();
                match self.nat.outbound(
                    now,
                    &self.policy,
                    NatProto::Tcp,
                    (src_addr, sport),
                    (dst_addr, dport),
                    flags.contains(TcpFlags::FIN),
                    flags.contains(TcpFlags::RST),
                ) {
                    OutboundVerdict::Translated { external_port, created } => {
                        {
                            let mut ipm = Ipv4Packet::new_unchecked(&mut frame[..]);
                            let mut delta = ipm.set_src_addr_adjusted(wan_addr);
                            let mut tcpm = TcpPacket::new_unchecked(&mut ipm.into_inner()[hl..]);
                            delta.update_word(sport, external_port);
                            tcpm.set_src_port(external_port);
                            tcpm.adjust_checksum(delta);
                        }
                        if created {
                            ctx.emit_trace(TraceEvent::BindingCreated {
                                external_port,
                                port_preserved: external_port == sport,
                            });
                        }
                        self.forward_created(ctx, FwdDir::Up, frame, created);
                    }
                    OutboundVerdict::NoCapacity => {
                        let bytes = frame.len();
                        self.drop_frame(ctx, DropReason::Capacity, bytes);
                    }
                }
            }
            Protocol::Icmp => {
                let Ok(msg) = IcmpRepr::parse(ip.payload()) else { return };
                match msg {
                    IcmpRepr::EchoRequest { ident, seq, payload } => {
                        match self.nat.outbound(
                            now,
                            &self.policy,
                            NatProto::IcmpQuery,
                            (src_addr, ident),
                            (dst_addr, 0),
                            false,
                            false,
                        ) {
                            OutboundVerdict::Translated { external_port, created } => {
                                if created {
                                    ctx.emit_trace(TraceEvent::BindingCreated {
                                        external_port,
                                        port_preserved: external_port == ident,
                                    });
                                }
                                let out =
                                    IcmpRepr::EchoRequest { ident: external_port, seq, payload };
                                let mut repr = Ipv4Repr::new(wan_addr, dst_addr, Protocol::Icmp);
                                repr.ttl = Ipv4Packet::new_unchecked(&frame[..]).ttl();
                                let pkt = repr.emit_with_payload(&out.emit());
                                self.forward(ctx, FwdDir::Up, pkt);
                            }
                            OutboundVerdict::NoCapacity => {
                                let bytes = frame.len();
                                self.drop_frame(ctx, DropReason::Capacity, bytes);
                            }
                        }
                    }
                    _ => {
                        // Outbound errors/replies: rewrite the source only.
                        Ipv4Packet::new_unchecked(&mut frame[..]).set_src_addr_adjusted(wan_addr);
                        self.forward(ctx, FwdDir::Up, frame);
                    }
                }
            }
            other => {
                // Unknown transport: the §4.3 fallback behaviors.
                match self.policy.unknown_proto {
                    UnknownProtoPolicy::Drop => {
                        let bytes = frame.len();
                        self.drop_frame(ctx, DropReason::UnknownProto, bytes);
                    }
                    UnknownProtoPolicy::IpRewrite { .. } => {
                        let key = (other.number(), src_addr, dst_addr);
                        if !self.ip_assocs.contains(&key) {
                            self.ip_assocs.push(key);
                        }
                        Ipv4Packet::new_unchecked(&mut frame[..]).set_src_addr_adjusted(wan_addr);
                        // Deliberately no transport checksum fixup: SCTP's
                        // CRC-32c survives, DCCP's pseudo-header checksum
                        // breaks — the emergent §4.3 result.
                        self.forward(ctx, FwdDir::Up, frame);
                    }
                    UnknownProtoPolicy::PassThrough => {
                        self.forward(ctx, FwdDir::Up, frame);
                    }
                }
            }
        }
    }

    /// Hairpin forwarding (UDP only): translate the sender outbound as
    /// usual, then run the inbound path against the destination port so the
    /// packet loops back into the LAN with the sender's *external* identity
    /// as its source — the behavior RFC 4787 REQ-9 asks for.
    fn hairpin(&mut self, ctx: &mut NodeCtx, frame: Vec<u8>) {
        let Some(wan_addr) = self.wan_addr else { return };
        let ip = Ipv4Packet::new_unchecked(&frame[..]);
        if ip.protocol() != Protocol::Udp {
            return; // TCP hairpinning is not modeled (rare in the field)
        }
        let Ok(udp) = UdpPacket::new_checked(ip.payload()) else { return };
        let (src_addr, dst_addr) = (ip.src_addr(), ip.dst_addr());
        let (sport, dport) = (udp.src_port(), udp.dst_port());
        let payload = udp.payload();
        let now = ctx.now();
        let OutboundVerdict::Translated { external_port, .. } = self.nat.outbound(
            now,
            &self.policy,
            NatProto::Udp,
            (src_addr, sport),
            (dst_addr, dport),
            false,
            false,
        ) else {
            return;
        };
        match self.nat.inbound(
            now,
            &self.policy,
            NatProto::Udp,
            dport,
            (wan_addr, external_port),
            false,
            false,
        ) {
            InboundVerdict::Accept { internal } => {
                let dgram = UdpRepr { src_port: external_port, dst_port: internal.1 }
                    .emit_with_payload(wan_addr, internal.0, payload);
                let repr = Ipv4Repr::new(wan_addr, internal.0, Protocol::Udp);
                let pkt = repr.emit_with_payload(&dgram);
                self.forward(ctx, FwdDir::Down, pkt);
            }
            InboundVerdict::Filtered => {
                let bytes = frame.len();
                self.drop_frame(ctx, DropReason::Filtered, bytes);
            }
            InboundVerdict::NoBinding => {
                let bytes = frame.len();
                self.drop_frame(ctx, DropReason::NoBinding, bytes);
            }
        }
    }

    fn apply_record_route(&self, frame: &mut [u8], wan_addr: Ipv4Addr) {
        let (hl, ok) = {
            let ip = Ipv4Packet::new_unchecked(&frame[..]);
            (ip.header_len(), ip.header_len() > 20)
        };
        if !ok {
            return;
        }
        // Walk the options area looking for Record Route.
        let mut off = 20;
        while off < hl {
            match frame[off] {
                0 => break,
                1 => off += 1,
                kind => {
                    if off + 1 >= hl {
                        break;
                    }
                    let len = frame[off + 1] as usize;
                    if len < 2 || off + len > hl {
                        break;
                    }
                    if kind == OPT_RECORD_ROUTE && len >= 3 {
                        let pointer = frame[off + 2] as usize; // 1-based within option
                        if pointer + 3 <= len {
                            let slot = off + pointer - 1;
                            frame[slot..slot + 4].copy_from_slice(&wan_addr.octets());
                            frame[off + 2] = (pointer + 4) as u8;
                        }
                    }
                    off += len;
                }
            }
        }
        let mut ip = Ipv4Packet::new_unchecked(frame);
        ip.fill_checksum();
    }

    // ------------------------------------------------------ WAN ingress --

    /// WAN ingress; like [`Gateway::lan_input`], takes only a forwarded
    /// frame out of `frame`.
    fn wan_input(&mut self, ctx: &mut NodeCtx, frame: &mut Vec<u8>) {
        let Ok(ip) = Ipv4Packet::new_checked(&frame[..]) else { return };
        if !ip.verify_checksum() {
            let bytes = frame.len();
            self.drop_frame(ctx, DropReason::Checksum, bytes);
            return;
        }
        let (src_addr, dst_addr) = (ip.src_addr(), ip.dst_addr());
        let proto = ip.protocol();
        // Zero-copy ingress: transport headers are parsed over a borrowed
        // slice of the frame instead of a per-packet payload copy.
        let hl = ip.header_len();
        let tl = ip.total_len();
        let now = ctx.now();

        // DHCP client traffic.
        if proto == Protocol::Udp {
            if let Ok(udp) = UdpPacket::new_checked(&frame[hl..tl]) {
                if udp.dst_port() == CLIENT_PORT {
                    if let Ok(msg) = DhcpMessage::parse(udp.payload()) {
                        self.dhcp_client.process(now, &msg);
                        self.after_dhcp(ctx);
                    }
                    return;
                }
            }
        }
        let Some(wan_addr) = self.wan_addr else { return };
        if dst_addr != wan_addr && dst_addr != Ipv4Addr::BROADCAST {
            return;
        }

        match proto {
            Protocol::Udp => {
                let Ok(udp) = UdpPacket::new_checked(&frame[hl..tl]) else { return };
                if !udp.verify_checksum(src_addr, dst_addr) {
                    let bytes = frame.len();
                    self.drop_frame(ctx, DropReason::Checksum, bytes);
                    return;
                }
                let (sport, dport) = (udp.src_port(), udp.dst_port());
                // DNS proxy upstream answer?
                if sport == 53 {
                    if let Some(pos) =
                        self.udp_dns_pending.iter().position(|e| e.proxy_port == dport)
                    {
                        let entry = self.udp_dns_pending.remove(pos);
                        self.relay_dns_answer(ctx, entry, udp.payload());
                        return;
                    }
                }
                match self.nat.inbound(
                    now,
                    &self.policy,
                    NatProto::Udp,
                    dport,
                    (src_addr, sport),
                    false,
                    false,
                ) {
                    InboundVerdict::Accept { internal } => {
                        {
                            let mut ipm = Ipv4Packet::new_unchecked(&mut frame[..]);
                            if self.policy.decrement_ttl && ipm.ttl() <= 1 {
                                let bytes = frame.len();
                                self.drop_frame(ctx, DropReason::TtlExpired, bytes);
                                return;
                            }
                            let mut delta = ipm.set_dst_addr_adjusted(internal.0);
                            if self.policy.decrement_ttl {
                                let ttl = ipm.ttl();
                                ipm.set_ttl_adjusted(ttl - 1);
                            }
                            let mut udpm = UdpPacket::new_unchecked(ipm.payload_mut());
                            delta.update_word(dport, internal.1);
                            udpm.set_dst_port(internal.1);
                            udpm.adjust_checksum(delta);
                        }
                        self.forward(ctx, FwdDir::Down, std::mem::take(frame));
                    }
                    InboundVerdict::Filtered => {
                        let bytes = frame.len();
                        self.drop_frame(ctx, DropReason::Filtered, bytes);
                    }
                    InboundVerdict::NoBinding => {
                        let bytes = frame.len();
                        self.drop_frame(ctx, DropReason::NoBinding, bytes);
                    }
                }
            }
            Protocol::Tcp => {
                let Ok(tcp) = TcpPacket::new_checked(&frame[hl..tl]) else { return };
                if !tcp.verify_checksum(src_addr, dst_addr) {
                    let bytes = frame.len();
                    self.drop_frame(ctx, DropReason::Checksum, bytes);
                    return;
                }
                let (sport, dport) = (tcp.src_port(), tcp.dst_port());
                let flags = tcp.flags();
                // Upstream DNS-proxy connection?
                if sport == 53 && self.upstream_conn_input(ctx, src_addr, dport, &frame[hl..tl]) {
                    return;
                }
                match self.nat.inbound(
                    now,
                    &self.policy,
                    NatProto::Tcp,
                    dport,
                    (src_addr, sport),
                    flags.contains(TcpFlags::FIN),
                    flags.contains(TcpFlags::RST),
                ) {
                    InboundVerdict::Accept { internal } => {
                        {
                            let mut ipm = Ipv4Packet::new_unchecked(&mut frame[..]);
                            if self.policy.decrement_ttl && ipm.ttl() <= 1 {
                                let bytes = frame.len();
                                self.drop_frame(ctx, DropReason::TtlExpired, bytes);
                                return;
                            }
                            let mut delta = ipm.set_dst_addr_adjusted(internal.0);
                            if self.policy.decrement_ttl {
                                let ttl = ipm.ttl();
                                ipm.set_ttl_adjusted(ttl - 1);
                            }
                            let inner = ipm.into_inner();
                            let mut tcpm = TcpPacket::new_unchecked(&mut inner[hl..]);
                            delta.update_word(dport, internal.1);
                            tcpm.set_dst_port(internal.1);
                            tcpm.adjust_checksum(delta);
                        }
                        self.forward(ctx, FwdDir::Down, std::mem::take(frame));
                    }
                    InboundVerdict::Filtered => {
                        let bytes = frame.len();
                        self.drop_frame(ctx, DropReason::Filtered, bytes);
                    }
                    InboundVerdict::NoBinding => {
                        let bytes = frame.len();
                        self.drop_frame(ctx, DropReason::NoBinding, bytes);
                    }
                }
            }
            Protocol::Icmp => {
                let Ok(msg) = IcmpRepr::parse(&frame[hl..tl]) else { return };
                match msg {
                    IcmpRepr::EchoRequest { ident, seq, payload } => {
                        let reply = IcmpRepr::EchoReply { ident, seq, payload };
                        let repr = Ipv4Repr::new(wan_addr, src_addr, Protocol::Icmp);
                        ctx.send_frame(WAN_PORT, repr.emit_with_payload(&reply.emit()));
                    }
                    IcmpRepr::EchoReply { ident, seq, payload } => {
                        if let InboundVerdict::Accept { internal } = self.nat.inbound(
                            now,
                            &self.policy,
                            NatProto::IcmpQuery,
                            ident,
                            (src_addr, 0),
                            false,
                            false,
                        ) {
                            let out = IcmpRepr::EchoReply { ident: internal.1, seq, payload };
                            let repr = Ipv4Repr::new(src_addr, internal.0, Protocol::Icmp);
                            let pkt = repr.emit_with_payload(&out.emit());
                            self.forward(ctx, FwdDir::Down, pkt);
                        }
                    }
                    error => self.translate_icmp_error(ctx, src_addr, error),
                }
            }
            other => {
                // Unknown transports inbound.
                if let UnknownProtoPolicy::IpRewrite { allow_inbound } = self.policy.unknown_proto {
                    if allow_inbound {
                        if let Some(&(_, internal, _)) = self
                            .ip_assocs
                            .iter()
                            .find(|(p, _, r)| *p == other.number() && *r == src_addr)
                        {
                            let mut ipm = Ipv4Packet::new_unchecked(&mut frame[..]);
                            ipm.set_dst_addr(internal);
                            ipm.fill_checksum();
                            self.forward(ctx, FwdDir::Down, std::mem::take(frame));
                            return;
                        }
                    }
                }
                let bytes = frame.len();
                self.drop_frame(ctx, DropReason::UnknownProto, bytes);
            }
        }
    }

    // -------------------------------------------------- ICMP translation --

    fn icmp_kind(msg: &IcmpRepr) -> Option<IcmpErrorKind> {
        Some(match msg {
            IcmpRepr::DestUnreachable { code, .. } => match code {
                UnreachCode::NetUnreachable => IcmpErrorKind::NetUnreachable,
                UnreachCode::HostUnreachable => IcmpErrorKind::HostUnreachable,
                UnreachCode::ProtoUnreachable => IcmpErrorKind::ProtoUnreachable,
                UnreachCode::PortUnreachable => IcmpErrorKind::PortUnreachable,
                UnreachCode::FragNeeded => IcmpErrorKind::FragNeeded,
                UnreachCode::SourceRouteFailed => IcmpErrorKind::SourceRouteFailed,
                UnreachCode::Other(_) => return None,
            },
            IcmpRepr::TimeExceeded { code: TimeExceededCode::TtlExceeded, .. } => {
                IcmpErrorKind::TtlExceeded
            }
            IcmpRepr::TimeExceeded { code: TimeExceededCode::ReassemblyExceeded, .. } => {
                IcmpErrorKind::ReassemblyTimeExceeded
            }
            IcmpRepr::ParamProblem { .. } => IcmpErrorKind::ParamProblem,
            IcmpRepr::SourceQuench { .. } => IcmpErrorKind::SourceQuench,
            _ => return None,
        })
    }

    /// Translates an inbound ICMP error toward the internal host, applying
    /// every fidelity knob of the policy.
    fn translate_icmp_error(&mut self, ctx: &mut NodeCtx, outer_src: Ipv4Addr, mut msg: IcmpRepr) {
        let Some(kind) = Gateway::icmp_kind(&msg) else {
            self.stats.icmp_dropped += 1;
            return;
        };
        let Some(wan_addr) = self.wan_addr else { return };
        let Some(invoking) = msg.invoking() else {
            self.stats.icmp_dropped += 1;
            return;
        };
        if invoking.len() < 20 {
            self.stats.icmp_dropped += 1;
            return;
        }
        let emb_ip = Ipv4Packet::new_unchecked(invoking);
        if emb_ip.version() != 4 || invoking.len() < emb_ip.header_len() {
            self.stats.icmp_dropped += 1;
            return;
        }
        let emb_proto = emb_ip.protocol();
        let emb_hl = emb_ip.header_len();
        let l4 = &invoking[emb_hl..];

        // Locate the binding and check the policy's per-transport kind set.
        let (binding_internal, allowed, is_tcp) = match emb_proto {
            Protocol::Udp | Protocol::Tcp if l4.len() >= 4 => {
                let sport = u16::from_be_bytes([l4[0], l4[1]]);
                let nat_proto =
                    if emb_proto == Protocol::Tcp { NatProto::Tcp } else { NatProto::Udp };
                let allowed = if emb_proto == Protocol::Tcp {
                    self.policy.icmp.tcp_kinds.contains(kind)
                } else {
                    self.policy.icmp.udp_kinds.contains(kind)
                };
                match self.nat.find_for_embedded(nat_proto, sport) {
                    Some(b) => (b.internal, allowed, emb_proto == Protocol::Tcp),
                    None => {
                        self.stats.icmp_dropped += 1;
                        return;
                    }
                }
            }
            Protocol::Icmp if l4.len() >= 8 => {
                // Error about a ping: ident is at offset 4 of the echo hdr.
                let ident = u16::from_be_bytes([l4[4], l4[5]]);
                let allowed = self.policy.icmp.icmp_query_host_unreach
                    && kind == IcmpErrorKind::HostUnreachable;
                match self.nat.find_for_embedded(NatProto::IcmpQuery, ident) {
                    Some(b) => (b.internal, allowed, false),
                    None => {
                        self.stats.icmp_dropped += 1;
                        return;
                    }
                }
            }
            _ => {
                self.stats.icmp_dropped += 1;
                return;
            }
        };
        // The ls2 pathology: every TCP-related error becomes an (invalid)
        // TCP RST, regardless of the per-kind set.
        if !(allowed || (is_tcp && self.policy.icmp.tcp_errors_as_rst)) {
            self.stats.icmp_dropped += 1;
            return;
        }
        if is_tcp && self.policy.icmp.tcp_errors_as_rst {
            let l4 = &invoking[emb_hl..];
            let dport = u16::from_be_bytes([l4[2], l4[3]]);
            let emb_dst = emb_ip.dst_addr();
            let mut rst = TcpRepr::new(dport, binding_internal.1, TcpFlags::RST);
            // Sequence number bears no relation to the connection: invalid.
            rst.seq = SeqNumber(0xBAD0_5EED);
            let seg = rst.emit_with_payload(emb_dst, binding_internal.0, &[]);
            let repr = Ipv4Repr::new(emb_dst, binding_internal.0, Protocol::Tcp);
            let pkt = repr.emit_with_payload(&seg);
            self.stats.icmp_translated += 1;
            self.forward(ctx, FwdDir::Down, pkt);
            return;
        }

        // Rewrite the embedded packet per policy fidelity.
        let policy_icmp = self.policy.icmp;
        if policy_icmp.rewrite_embedded {
            let invoking = msg.invoking_mut().expect("is an error");
            let emb_dst = {
                let v = Ipv4Packet::new_unchecked(&invoking[..]);
                v.dst_addr()
            };
            {
                let mut v = Ipv4Packet::new_unchecked(&mut invoking[..]);
                v.set_src_addr(binding_internal.0);
                if policy_icmp.fix_embedded_ip_checksum {
                    v.fill_checksum();
                }
            }
            let l4 = &mut invoking[emb_hl..];
            if l4.len() >= 2 {
                l4[0..2].copy_from_slice(&binding_internal.1.to_be_bytes());
            }
            if policy_icmp.fix_embedded_l4_checksum {
                match emb_proto {
                    Protocol::Udp if UdpPacket::new_checked(&l4[..]).is_ok() => {
                        let mut u = UdpPacket::new_unchecked(l4);
                        u.fill_checksum(binding_internal.0, emb_dst);
                    }
                    Protocol::Tcp if TcpPacket::new_checked(&l4[..]).is_ok() => {
                        let mut t = TcpPacket::new_unchecked(l4);
                        t.fill_checksum(binding_internal.0, emb_dst);
                    }
                    _ => {}
                }
            }
        } else if emb_proto == Protocol::Icmp {
            // Even without header rewriting, query errors translate the
            // ident back (it is the NAT's own mapping).
            let invoking = msg.invoking_mut().expect("is an error");
            let l4 = &mut invoking[emb_hl..];
            if l4.len() >= 6 {
                l4[4..6].copy_from_slice(&binding_internal.1.to_be_bytes());
            }
        }
        let _ = wan_addr;
        let repr = Ipv4Repr::new(outer_src, binding_internal.0, Protocol::Icmp);
        let pkt = repr.emit_with_payload(&msg.emit());
        self.stats.icmp_translated += 1;
        self.forward(ctx, FwdDir::Down, pkt);
    }

    // ------------------------------------------------------- DNS proxy --

    fn alloc_proxy_port(&mut self) -> u16 {
        let p = self.next_proxy_port;
        self.next_proxy_port = if p >= 59_999 { 50_000 } else { p + 1 };
        p
    }

    /// Forwards a DNS query upstream over UDP; `tcp_conn` links the answer
    /// back to a LAN TCP connection for the ap behavior.
    fn proxy_udp_query(
        &mut self,
        ctx: &mut NodeCtx,
        client: SocketAddrV4,
        query: &[u8],
        tcp_conn: Option<usize>,
    ) {
        let (Some(wan_addr), Some(upstream)) = (self.wan_addr, self.upstream_dns) else { return };
        let proxy_port = self.alloc_proxy_port();
        self.udp_dns_pending.push(UdpProxyEntry { client, proxy_port, tcp_conn });
        if self.udp_dns_pending.len() > 64 {
            self.udp_dns_pending.remove(0);
        }
        let dgram = UdpRepr { src_port: proxy_port, dst_port: 53 }
            .emit_with_payload(wan_addr, upstream, query);
        let repr = Ipv4Repr::new(wan_addr, upstream, Protocol::Udp);
        ctx.send_frame(WAN_PORT, repr.emit_with_payload(&dgram));
    }

    fn relay_dns_answer(&mut self, ctx: &mut NodeCtx, entry: UdpProxyEntry, answer: &[u8]) {
        match entry.tcp_conn {
            None => {
                let dgram = UdpRepr { src_port: 53, dst_port: entry.client.port() }
                    .emit_with_payload(self.lan_addr, *entry.client.ip(), answer);
                let repr = Ipv4Repr::new(self.lan_addr, *entry.client.ip(), Protocol::Udp);
                ctx.send_frame(LAN_PORT, repr.emit_with_payload(&dgram));
            }
            Some(idx) => {
                if let Some(Some(conn)) = self.proxy_conns.get_mut(idx) {
                    let mut framed = Vec::with_capacity(answer.len() + 2);
                    framed.extend_from_slice(&(answer.len() as u16).to_be_bytes());
                    framed.extend_from_slice(answer);
                    conn.sock.send(&framed);
                }
                self.pump_proxy_sockets(ctx);
            }
        }
    }

    fn lan_tcp_input(&mut self, ctx: &mut NodeCtx, src_addr: Ipv4Addr, payload: &[u8]) {
        let Ok(tcp) = TcpPacket::new_checked(payload) else { return };
        if !tcp.verify_checksum(src_addr, self.lan_addr) {
            return;
        }
        // Already verified above; parse_unverified avoids a second
        // full-segment checksum pass.
        let Ok(repr) = TcpRepr::parse_unverified(&tcp) else { return };
        if repr.dst_port != 53 {
            return; // the gateway itself serves nothing else over TCP
        }
        let remote = SocketAddrV4::new(src_addr, repr.src_port);
        // Existing proxy connection?
        if let Some(idx) = self
            .proxy_conns
            .iter()
            .position(|c| c.as_ref().map(|c| c.sock.remote == remote).unwrap_or(false))
        {
            let data = tcp.payload().to_vec();
            self.proxy_conns[idx].as_mut().unwrap().sock.process(ctx.now(), &repr, &data);
            self.pump_proxy_sockets(ctx);
            return;
        }
        // New connection.
        if repr.flags.contains(TcpFlags::SYN) && !repr.flags.contains(TcpFlags::ACK) {
            match self.policy.dns_proxy.tcp {
                DnsTcpMode::Refuse => {
                    let mut rst = TcpRepr::new(53, repr.src_port, TcpFlags::RST | TcpFlags::ACK);
                    rst.ack = repr.seq.add(1);
                    let seg = rst.emit_with_payload(self.lan_addr, src_addr, &[]);
                    let ip = Ipv4Repr::new(self.lan_addr, src_addr, Protocol::Tcp);
                    ctx.send_frame(LAN_PORT, ip.emit_with_payload(&seg));
                }
                _ => {
                    let iss = SeqNumber(ctx.rng().next_u32());
                    let sock = TcpSocket::server(
                        SocketAddrV4::new(self.lan_addr, 53),
                        remote,
                        iss,
                        TcpConfig::default(),
                        &repr,
                        ctx.now(),
                    );
                    let idx =
                        self.proxy_conns.iter().position(|c| c.is_none()).unwrap_or_else(|| {
                            self.proxy_conns.push(None);
                            self.proxy_conns.len() - 1
                        });
                    self.proxy_conns[idx] = Some(ProxyConn { sock, inbuf: Vec::new() });
                    self.pump_proxy_sockets(ctx);
                }
            }
            return;
        }
        // Segment for an unknown connection: RST.
        if !repr.flags.contains(TcpFlags::RST) {
            let mut rst = TcpRepr::new(53, repr.src_port, TcpFlags::RST);
            rst.seq = repr.ack;
            let seg = rst.emit_with_payload(self.lan_addr, src_addr, &[]);
            let ip = Ipv4Repr::new(self.lan_addr, src_addr, Protocol::Tcp);
            ctx.send_frame(LAN_PORT, ip.emit_with_payload(&seg));
        }
    }

    /// Feeds a WAN TCP segment to an upstream proxy connection; returns
    /// true if one matched.
    fn upstream_conn_input(
        &mut self,
        ctx: &mut NodeCtx,
        src_addr: Ipv4Addr,
        dport: u16,
        payload: &[u8],
    ) -> bool {
        let Some(idx) = self.upstream_conns.iter().position(|c| {
            c.as_ref()
                .map(|c| c.sock.local.port() == dport && c.sock.remote.ip() == &src_addr)
                .unwrap_or(false)
        }) else {
            return false;
        };
        let Ok(tcp) = TcpPacket::new_checked(payload) else { return true };
        let wan = self.wan_addr.unwrap_or(Ipv4Addr::UNSPECIFIED);
        if !tcp.verify_checksum(src_addr, wan) {
            return true;
        }
        // Already verified above; parse_unverified avoids a second
        // full-segment checksum pass.
        let Ok(repr) = TcpRepr::parse_unverified(&tcp) else { return true };
        let data = tcp.payload().to_vec();
        self.upstream_conns[idx].as_mut().unwrap().sock.process(ctx.now(), &repr, &data);
        self.pump_proxy_sockets(ctx);
        true
    }

    /// Pumps every proxy socket: applications, dispatch, and cleanup.
    fn pump_proxy_sockets(&mut self, ctx: &mut NodeCtx) {
        let now = ctx.now();
        // LAN-side connections.
        for idx in 0..self.proxy_conns.len() {
            let Some(conn) = self.proxy_conns[idx].as_mut() else { continue };
            conn.sock.on_timer(now);
            let data = conn.sock.recv(4096);
            conn.inbuf.extend_from_slice(&data);
            // Parse length-framed queries.
            let mut queries = Vec::new();
            while let Ok((query, consumed)) = DnsMessage::parse_tcp(&conn.inbuf) {
                conn.inbuf.drain(..consumed);
                queries.push(query);
            }
            let mode = self.policy.dns_proxy.tcp;
            for query in queries {
                match mode {
                    DnsTcpMode::Refuse | DnsTcpMode::AcceptNoAnswer => {} // swallow
                    DnsTcpMode::AnswerViaUdp => {
                        let raw = query.emit();
                        let client = self.proxy_conns[idx].as_ref().unwrap().sock.remote;
                        self.proxy_udp_query(ctx, client, &raw, Some(idx));
                    }
                    DnsTcpMode::AnswerViaTcp => {
                        self.open_upstream_tcp(ctx, idx, query.emit_tcp());
                    }
                }
            }
        }
        // Upstream connections: send query once established, read answers.
        for idx in 0..self.upstream_conns.len() {
            let Some(conn) = self.upstream_conns[idx].as_mut() else { continue };
            conn.sock.on_timer(now);
            if !conn.query_sent && conn.sock.state() == hgw_stack::tcp::TcpState::Established {
                let q = conn.query.clone();
                conn.sock.send(&q);
                conn.query_sent = true;
            }
            let data = conn.sock.recv(4096);
            conn.inbuf.extend_from_slice(&data);
            if DnsMessage::parse_tcp(&conn.inbuf).is_ok() {
                let framed = conn.inbuf.clone();
                conn.inbuf.clear();
                let for_conn = conn.for_conn;
                conn.sock.close();
                if let Some(Some(lan)) = self.proxy_conns.get_mut(for_conn) {
                    lan.sock.send(&framed);
                }
            }
        }
        // Dispatch segments out the right ports.
        for idx in 0..self.proxy_conns.len() {
            let Some(conn) = self.proxy_conns[idx].as_mut() else { continue };
            let mut segs = Vec::new();
            conn.sock.dispatch(now, ctx.frame_pool(), &mut segs);
            let (local, remote) = (conn.sock.local, conn.sock.remote);
            for seg in segs {
                let bytes = seg.repr.emit_with_payload(*local.ip(), *remote.ip(), seg.payload());
                let ip = Ipv4Repr::new(*local.ip(), *remote.ip(), Protocol::Tcp);
                ctx.send_frame(LAN_PORT, ip.emit_with_payload(&bytes));
                ctx.recycle_frame(seg.into_parts().1);
            }
            if conn.sock.is_closed() {
                self.proxy_conns[idx] = None;
            }
        }
        for idx in 0..self.upstream_conns.len() {
            let Some(conn) = self.upstream_conns[idx].as_mut() else { continue };
            let mut segs = Vec::new();
            conn.sock.dispatch(now, ctx.frame_pool(), &mut segs);
            let (local, remote) = (conn.sock.local, conn.sock.remote);
            for seg in segs {
                let bytes = seg.repr.emit_with_payload(*local.ip(), *remote.ip(), seg.payload());
                let ip = Ipv4Repr::new(*local.ip(), *remote.ip(), Protocol::Tcp);
                ctx.send_frame(WAN_PORT, ip.emit_with_payload(&bytes));
                ctx.recycle_frame(seg.into_parts().1);
            }
            if conn.sock.is_closed() {
                self.upstream_conns[idx] = None;
            }
        }
        self.reschedule(ctx);
    }

    fn open_upstream_tcp(&mut self, ctx: &mut NodeCtx, for_conn: usize, query: Vec<u8>) {
        let (Some(wan), Some(upstream)) = (self.wan_addr, self.upstream_dns) else { return };
        let port = self.alloc_proxy_port();
        let iss = SeqNumber(ctx.rng().next_u32());
        let sock = TcpSocket::client(
            SocketAddrV4::new(wan, port),
            SocketAddrV4::new(upstream, 53),
            iss,
            TcpConfig::default(),
            ctx.now(),
        );
        let idx = self.upstream_conns.iter().position(|c| c.is_none()).unwrap_or_else(|| {
            self.upstream_conns.push(None);
            self.upstream_conns.len() - 1
        });
        self.upstream_conns[idx] =
            Some(UpstreamConn { sock, for_conn, inbuf: Vec::new(), query, query_sent: false });
    }

    // -------------------------------------------------------- timers ----

    fn after_dhcp(&mut self, ctx: &mut NodeCtx) {
        if let Some(lease) = &self.dhcp_client.lease {
            if self.wan_addr.is_none() {
                self.wan_addr = Some(lease.addr);
                self.upstream_dns = lease.dns_servers.first().copied();
            }
        }
        self.poll(ctx);
    }

    fn poll(&mut self, ctx: &mut NodeCtx) {
        let now = ctx.now();
        self.dhcp_client.on_timer(now);
        for msg in self.dhcp_client.dispatch() {
            let udp = UdpRepr { src_port: CLIENT_PORT, dst_port: SERVER_PORT };
            let repr = Ipv4Repr::new(Ipv4Addr::UNSPECIFIED, Ipv4Addr::BROADCAST, Protocol::Udp);
            self.dhcp_wire.clear();
            msg.emit_onto(&mut self.dhcp_wire);
            send_udp(ctx, WAN_PORT, repr, (Ipv4Addr::UNSPECIFIED, udp), &self.dhcp_wire);
        }
        self.pump_proxy_sockets(ctx);
    }

    fn poll_at(&self) -> Option<Instant> {
        let dhcp = self.dhcp_client.poll_at();
        let lan = self.proxy_conns.iter().flatten().filter_map(|c| c.sock.poll_at()).min();
        let up = self.upstream_conns.iter().flatten().filter_map(|c| c.sock.poll_at()).min();
        Instant::earliest(dhcp, Instant::earliest(lan, up))
    }

    fn reschedule(&mut self, ctx: &mut NodeCtx) {
        if let Some(want) = self.poll_at() {
            let need = match self.armed_at {
                Some(at) => want < at || at <= ctx.now(),
                None => true,
            };
            if need {
                self.armed_at = Some(want);
                ctx.set_timer_at(want, TOKEN_POLL);
            }
        }
    }
}

impl Node for Gateway {
    fn start(&mut self, ctx: &mut NodeCtx) {
        self.dhcp_client.start(ctx.now());
        self.poll(ctx);
    }

    fn handle_frame(&mut self, ctx: &mut NodeCtx, port: PortId, frame: &mut Vec<u8>) {
        if port == LAN_PORT {
            self.lan_input(ctx, frame);
        } else {
            self.wan_input(ctx, frame);
        }
        self.flush_lifecycle(ctx);
        self.reschedule(ctx);
    }

    fn handle_timer(&mut self, ctx: &mut NodeCtx, token: TimerToken) {
        match token {
            TOKEN_ENGINE_UP => {
                if let Some((frame, entered_at)) = self.engine.complete(FwdDir::Up) {
                    let delay = ctx.now() - entered_at;
                    if let Some(t) = ctx.telemetry() {
                        t.nat_processing.record_duration(delay);
                    }
                    ctx.send_frame(WAN_PORT, frame);
                }
                self.kick_engine(ctx);
            }
            TOKEN_ENGINE_DOWN => {
                if let Some((frame, entered_at)) = self.engine.complete(FwdDir::Down) {
                    let delay = ctx.now() - entered_at;
                    if let Some(t) = ctx.telemetry() {
                        t.nat_processing.record_duration(delay);
                    }
                    ctx.send_frame(LAN_PORT, frame);
                }
                self.kick_engine(ctx);
            }
            _ => {
                self.armed_at = None;
                self.poll(ctx);
            }
        }
        self.flush_lifecycle(ctx);
    }

    impl_node_downcast!();
}
