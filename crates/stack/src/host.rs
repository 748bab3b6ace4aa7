//! The [`Host`] node: a complete endpoint stack on the simulated network.
//!
//! A `Host` plays both testbed roles of the paper (Figure 1): the *test
//! client* behind each gateway and the *test server* on the WAN side. It
//! integrates IPv4 input/output with routing, UDP sockets, full TCP, ICMP
//! (echo + error recording + port-unreachable generation), the SCTP and
//! DCCP probe endpoints, a DNS server (UDP and TCP), and DHCP client and
//! server roles. Experiment drivers interact with it through
//! [`Simulator::with_node`](hgw_core::Simulator::with_node).

use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap};
use std::net::{Ipv4Addr, SocketAddrV4};

use hgw_core::{impl_node_downcast, Cleared, FixedMap, Instant, Node, NodeCtx, PortId, TimerToken};
use hgw_wire::dccp::DccpRepr;
use hgw_wire::dhcp::{DhcpMessage, CLIENT_PORT, SERVER_PORT};
use hgw_wire::dns::DnsMessage;
use hgw_wire::icmp::{IcmpRepr, UnreachCode};
use hgw_wire::ip::{Ipv4Repr, Protocol};
use hgw_wire::sctp::{Chunk, SctpRepr};
use hgw_wire::tcp::TcpRepr;
use hgw_wire::{Ipv4Packet, SeqNumber, TcpFlags, TcpPacket, UdpPacket, UdpRepr};

use crate::dccp::{DccpEndpoint, DccpServerConn};
use crate::dhcp::{DhcpClient, DhcpServer, DhcpServerConfig};
use crate::dns::DnsZone;
use crate::icmp::{parse_embedded, IcmpEvent};
use crate::iface::{Iface, IfaceConfig, RoutingTable};
use crate::sctp::{SctpAssociation, SctpEndpoint};
use crate::tcp::{TcpConfig, TcpSegment, TcpSocket};

/// Handle to a UDP socket on a host.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct UdpHandle(pub usize);

/// Handle to a TCP socket on a host.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct TcpHandle(pub usize);

/// Handle to an SCTP endpoint on a host.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct SctpHandle(pub usize);

/// Handle to a DCCP endpoint on a host.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct DccpHandle(pub usize);

/// Application behavior attached to an accepted TCP socket.
#[derive(Debug)]
enum TcpApp {
    /// Echo everything back.
    Echo,
    /// Serve length-framed DNS queries from the host's zone.
    DnsTcp { inbuf: Vec<u8> },
}

/// Application attached to a TCP listener.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ListenerApp {
    /// Accept only; the driver reads/writes manually.
    Manual,
    /// Echo everything back (TCP-4's message-passing check).
    Echo,
    /// DNS-over-TCP service from the host zone.
    Dns,
}

#[derive(Debug)]
struct TcpListener {
    port: u16,
    app: ListenerApp,
    config: TcpConfig,
}

#[derive(Debug)]
struct UdpSocketState {
    port: u16,
    /// When set, the socket only receives datagrams addressed to this
    /// address and sends with it as the source (alias support).
    bound_addr: Option<Ipv4Addr>,
    recv: Vec<(SocketAddrV4, Vec<u8>)>,
    /// Echo datagrams back to the sender.
    echo: bool,
}

/// The first port of the ephemeral range (RFC 6335), which runs to 65 535.
const EPHEMERAL_BASE: u16 = 49_152;

/// Per-slot bookkeeping of the [`TcpTable`].
struct TcpSlotMeta {
    /// The slot is in [`TcpTable::dirty`].
    dirty: bool,
    /// The slot's position in [`TcpTable::deadlines`], or [`UNFILED`].
    heap_pos: usize,
}

/// [`TcpSlotMeta::heap_pos`] of a slot that is not in the deadline heap.
const UNFILED: usize = usize::MAX;

/// The TCP sockets of a host plus the indices that keep the cost of one
/// inbound segment independent of how many sockets are live (DESIGN.md,
/// "The host socket table"). A socket is *clean* when nothing has touched
/// it since its last visit by [`Host::poll`]; visiting a clean socket
/// before its deadline does nothing, so `poll` skips it.
#[derive(Default)]
struct TcpTable {
    /// Sockets by slot; a [`TcpHandle`] is the slot number.
    sockets: Vec<Option<TcpSocket>>,
    /// Parallel to `sockets`.
    meta: Vec<TcpSlotMeta>,
    /// [`tuple_key`] → slot of every live socket. Looked up, never
    /// iterated; tuples are unique, so a hit is the slot a scan in slot
    /// order would find first.
    by_tuple: FixedMap<(u64, u32), usize>,
    /// Slots touched since the last poll, each once (removed ones too).
    dirty: Vec<usize>,
    /// `(poll_at, slot)` of every clean live socket with a deadline: a
    /// binary min-heap on the deadline, indexed through each slot's
    /// [`TcpSlotMeta::heap_pos`] so a slot leaves it in `O(log n)`.
    deadlines: Vec<(Instant, usize)>,
    /// The empty slots, lowest first.
    free: BinaryHeap<Reverse<usize>>,
    /// Scratch list of the slots one poll visits.
    visits: Vec<usize>,
}

/// A connection's `(local, remote)` tuple packed into two words, so the
/// demux hashes two integers instead of both addresses byte by byte.
fn tuple_key(local: SocketAddrV4, remote: SocketAddrV4) -> (u64, u32) {
    let ports = u64::from(local.port()) << 16 | u64::from(remote.port());
    (u64::from(u32::from(*local.ip())) << 32 | ports, u32::from(*remote.ip()))
}

impl Cleared for TcpTable {
    fn cleared(self) -> TcpTable {
        TcpTable {
            sockets: self.sockets.cleared(),
            meta: self.meta.cleared(),
            by_tuple: self.by_tuple.cleared(),
            dirty: self.dirty.cleared(),
            deadlines: self.deadlines.cleared(),
            free: self.free.cleared(),
            visits: self.visits.cleared(),
        }
    }
}

impl TcpTable {
    fn get(&self, idx: usize) -> &TcpSocket {
        self.sockets[idx].as_ref().expect("closed socket")
    }

    /// Mutable access; marks the slot dirty so the next poll visits it.
    fn touch(&mut self, idx: usize) -> &mut TcpSocket {
        if !self.meta[idx].dirty {
            self.meta[idx].dirty = true;
            self.dirty.push(idx);
            self.unfile(idx);
        }
        self.sockets[idx].as_mut().expect("closed socket")
    }

    /// Stores `socket` in the lowest free slot and marks it dirty.
    fn insert(&mut self, socket: TcpSocket) -> usize {
        let idx = match self.free.pop() {
            Some(Reverse(idx)) => idx,
            None => {
                self.sockets.push(None);
                self.meta.push(TcpSlotMeta { dirty: false, heap_pos: UNFILED });
                self.sockets.len() - 1
            }
        };
        let prev = self.by_tuple.insert(tuple_key(socket.local, socket.remote), idx);
        assert!(prev.is_none(), "TCP tuple {} -> {} inserted twice", socket.local, socket.remote);
        self.sockets[idx] = Some(socket);
        self.touch(idx);
        idx
    }

    /// Empties slot `idx`, returning its socket if it held one.
    fn remove(&mut self, idx: usize) -> Option<TcpSocket> {
        let sock = self.sockets[idx].take()?;
        self.by_tuple.remove(&tuple_key(sock.local, sock.remote));
        self.unfile(idx);
        self.free.push(Reverse(idx));
        Some(sock)
    }

    /// Moves the dirty slots and the slots due at `now` into `out`, sorted
    /// by slot. Each must be [`settle`](TcpTable::settle)d after its visit.
    fn take_visits(&mut self, now: Instant, out: &mut Vec<usize>) {
        for &idx in &self.dirty {
            self.meta[idx].dirty = false;
        }
        out.append(&mut self.dirty);
        while let Some(&(at, idx)) = self.deadlines.first() {
            if at > now {
                break;
            }
            self.unfile(idx);
            out.push(idx);
        }
        out.sort_unstable();
    }

    /// Files a visited live slot under its fresh deadline.
    fn settle(&mut self, idx: usize) {
        if let Some(at) = self.get(idx).poll_at() {
            let pos = self.deadlines.len();
            self.deadlines.push((at, idx));
            self.sift_up(pos);
        }
    }

    /// The earliest deadline over every live socket.
    fn poll_at(&self) -> Option<Instant> {
        let clean = self.deadlines.first().map(|&(at, _)| at);
        let dirty = self.dirty.iter().fold(None, |min, &idx| {
            Instant::earliest(min, self.sockets[idx].as_ref().and_then(TcpSocket::poll_at))
        });
        Instant::earliest(clean, dirty)
    }

    /// Takes slot `idx` out of the deadline heap, if it is filed there.
    fn unfile(&mut self, idx: usize) {
        let pos = std::mem::replace(&mut self.meta[idx].heap_pos, UNFILED);
        if pos == UNFILED {
            return;
        }
        self.deadlines.swap_remove(pos);
        if pos < self.deadlines.len() {
            // The former last entry fills the hole: restore order around it.
            if self.sift_up(pos) == pos {
                self.sift_down(pos);
            }
        }
    }

    /// Moves the heap entry at `pos` up to its place; returns where it
    /// landed. Every entry it moves gets its cached position updated.
    fn sift_up(&mut self, mut pos: usize) -> usize {
        let entry = self.deadlines[pos];
        while pos > 0 {
            let parent = (pos - 1) / 2;
            if self.deadlines[parent].0 <= entry.0 {
                break;
            }
            self.place(pos, self.deadlines[parent]);
            pos = parent;
        }
        self.place(pos, entry);
        pos
    }

    /// Moves the heap entry at `pos` down to its place.
    fn sift_down(&mut self, mut pos: usize) {
        let entry = self.deadlines[pos];
        let len = self.deadlines.len();
        loop {
            let left = 2 * pos + 1;
            if left >= len {
                break;
            }
            let right = left + 1;
            let child = if right < len && self.deadlines[right].0 < self.deadlines[left].0 {
                right
            } else {
                left
            };
            if entry.0 <= self.deadlines[child].0 {
                break;
            }
            self.place(pos, self.deadlines[child]);
            pos = child;
        }
        self.place(pos, entry);
    }

    /// Writes `entry` at heap position `pos` and caches that position.
    #[inline]
    fn place(&mut self, pos: usize, entry: (Instant, usize)) {
        self.deadlines[pos] = entry;
        self.meta[entry.1].heap_pos = pos;
    }
}

/// A complete simulated endpoint.
pub struct Host {
    /// Hostname for diagnostics.
    pub name: String,
    ifaces: Vec<Option<Iface>>,
    /// Extra addresses accepted (and usable as UDP source) per port.
    aliases: Vec<(PortId, Ipv4Addr)>,
    routes: RoutingTable,

    udp_sockets: Vec<Option<UdpSocketState>>,
    next_ephemeral: u16,
    /// Live UDP and TCP sockets per local port, for ephemeral ports only.
    port_refs: FixedMap<u16, u32>,

    tcp_table: TcpTable,
    tcp_apps: FixedMap<usize, TcpApp>,
    tcp_listeners: Vec<TcpListener>,
    accepted: Vec<TcpHandle>,
    /// Default configuration for new sockets.
    pub tcp_config: TcpConfig,

    icmp_events: Vec<IcmpEvent>,
    echo_replies: Vec<(Instant, Ipv4Addr, u16, u16)>,
    /// Reply to incoming echo requests.
    pub respond_to_echo: bool,
    /// Generate ICMP port unreachable for UDP to closed ports.
    pub generate_port_unreachable: bool,

    sniffed: Option<Vec<(Instant, Vec<u8>)>>,

    sctp_endpoints: Vec<Option<SctpEndpoint>>,
    sctp_assocs: HashMap<(Ipv4Addr, u16, u16), SctpAssociation>,
    sctp_listen_ports: Vec<u16>,
    next_sctp_remote: HashMap<usize, (Ipv4Addr, u16)>,

    dccp_endpoints: Vec<Option<DccpEndpoint>>,
    dccp_conns: HashMap<(Ipv4Addr, u16, u16), DccpServerConn>,
    dccp_listen_ports: Vec<u16>,
    next_dccp_remote: HashMap<usize, (Ipv4Addr, u16)>,

    dns_zone: Option<DnsZone>,
    dhcp_servers: Vec<(PortId, DhcpServer)>,
    dhcp_client: Option<(PortId, DhcpClient)>,
    /// Forward packets between interfaces (router mode). Off for
    /// endpoints; the dual-NAT rendezvous server turns it on to play
    /// "the Internet" between two gateways.
    pub forwarding: bool,

    /// Earliest armed wake-up (to avoid redundant timers).
    armed_at: Option<Instant>,

    /// Scratch for collecting dispatched TCP segments each poll; kept on
    /// the host so the bulk-transfer hot path allocates nothing per poll.
    tcp_segs: Vec<TcpSegment>,
    /// Receive queues of closed UDP sockets, handed to the next bind.
    spare_recv: Vec<Vec<(SocketAddrV4, Vec<u8>)>>,
    /// Scratch for one DHCP message's encoding before it is framed.
    dhcp_wire: Vec<u8>,
}

impl Host {
    /// Creates a host with no interfaces.
    pub fn new(name: &str) -> Host {
        Host {
            name: name.to_string(),
            ifaces: Vec::new(),
            aliases: Vec::new(),
            routes: RoutingTable::new(),
            udp_sockets: Vec::new(),
            next_ephemeral: 0,
            port_refs: FixedMap::default(),
            tcp_table: TcpTable::default(),
            tcp_apps: FixedMap::default(),
            tcp_listeners: Vec::new(),
            accepted: Vec::new(),
            tcp_config: TcpConfig::default(),
            icmp_events: Vec::new(),
            echo_replies: Vec::new(),
            respond_to_echo: true,
            generate_port_unreachable: true,
            sniffed: None,
            sctp_endpoints: Vec::new(),
            sctp_assocs: HashMap::new(),
            sctp_listen_ports: Vec::new(),
            next_sctp_remote: HashMap::new(),
            dccp_endpoints: Vec::new(),
            dccp_conns: HashMap::new(),
            dccp_listen_ports: Vec::new(),
            next_dccp_remote: HashMap::new(),
            dns_zone: None,
            dhcp_servers: Vec::new(),
            dhcp_client: None,
            forwarding: false,
            armed_at: None,
            tcp_segs: Vec::new(),
            spare_recv: Vec::new(),
            dhcp_wire: Vec::new(),
        }
    }

    /// Turns a retired host into `Host::new(name)`, keeping the capacity
    /// of its socket slabs, indices, queues and scratch buffers for the
    /// next device a fleet worker runs. Logical state comes from `new`;
    /// open sockets, services and leases are dropped.
    pub fn renew(&mut self, name: &str) {
        let mut old = std::mem::replace(self, Host::new(""));
        self.name = old.name.cleared();
        self.name.push_str(name);
        self.ifaces = old.ifaces.cleared();
        self.aliases = old.aliases.cleared();
        self.routes = old.routes.cleared();
        old.spare_recv.extend(old.udp_sockets.drain(..).flatten().map(|s| s.recv.cleared()));
        self.udp_sockets = old.udp_sockets;
        self.spare_recv = old.spare_recv;
        self.port_refs = old.port_refs.cleared();
        self.tcp_table = old.tcp_table.cleared();
        self.tcp_apps = old.tcp_apps.cleared();
        self.tcp_listeners = old.tcp_listeners.cleared();
        self.accepted = old.accepted.cleared();
        self.icmp_events = old.icmp_events.cleared();
        self.echo_replies = old.echo_replies.cleared();
        self.sctp_endpoints = old.sctp_endpoints.cleared();
        self.sctp_assocs = old.sctp_assocs.cleared();
        self.sctp_listen_ports = old.sctp_listen_ports.cleared();
        self.next_sctp_remote = old.next_sctp_remote.cleared();
        self.dccp_endpoints = old.dccp_endpoints.cleared();
        self.dccp_conns = old.dccp_conns.cleared();
        self.dccp_listen_ports = old.dccp_listen_ports.cleared();
        self.next_dccp_remote = old.next_dccp_remote.cleared();
        self.dhcp_servers = old.dhcp_servers.cleared();
        self.tcp_segs = old.tcp_segs.cleared();
        self.dhcp_wire = old.dhcp_wire.cleared();
    }

    // ---------------- interfaces & routing ----------------

    /// Configures an interface on `port` and installs its connected route.
    pub fn add_iface(&mut self, port: PortId, config: IfaceConfig) {
        if self.ifaces.len() <= port.0 {
            self.ifaces.resize_with(port.0 + 1, || None);
        }
        self.ifaces[port.0] = Some(Iface { port, config });
        if config.is_configured() {
            self.routes.add(config.addr, config.prefix, port);
        }
    }

    /// Adds a route.
    pub fn add_route(&mut self, dest: Ipv4Addr, prefix: u8, port: PortId) {
        self.routes.add(dest, prefix, port);
    }

    /// Adds a default route out of `port`.
    pub fn add_default_route(&mut self, port: PortId) {
        self.routes.add_default(port);
    }

    /// The address of the interface on `port`.
    pub fn iface_addr(&self, port: PortId) -> Option<Ipv4Addr> {
        self.ifaces
            .get(port.0)
            .and_then(|i| i.as_ref())
            .filter(|i| i.config.is_configured())
            .map(|i| i.config.addr)
    }

    /// Adds an alias address on `port`: accepted on receive and usable as
    /// a UDP source via [`Host::udp_bind_at`]. Used by the classification
    /// probes, which need a second server identity (two remote addresses).
    pub fn add_alias(&mut self, port: PortId, addr: Ipv4Addr) {
        self.aliases.push((port, addr));
    }

    fn owns_addr(&self, addr: Ipv4Addr) -> bool {
        addr == Ipv4Addr::BROADCAST
            || self.ifaces.iter().flatten().any(|i| i.config.addr == addr)
            || self.aliases.iter().any(|(_, a)| *a == addr)
    }

    /// Routes and transmits an IP payload.
    fn send_ip(&mut self, ctx: &mut NodeCtx, mut repr: Ipv4Repr, payload: &[u8]) {
        let Some(port) = self.routes.lookup(repr.dst_addr) else {
            return; // no route: drop (counted nowhere; hosts log via stats if needed)
        };
        if repr.src_addr == Ipv4Addr::UNSPECIFIED {
            if let Some(addr) = self.iface_addr(port) {
                repr.src_addr = addr;
            }
        }
        let buf = ctx.alloc_frame(repr.header_len() + payload.len());
        let frame = repr.emit_with_payload_into(payload, buf);
        ctx.send_frame(port, frame);
    }

    /// Routes and transmits one TCP segment. This is the bulk zero-copy
    /// path: the segment buffer already holds the payload at its final wire
    /// offset behind [`SEGMENT_HEADROOM`](crate::tcp::SEGMENT_HEADROOM)
    /// reserved bytes, so for option-less headers both headers are written
    /// straight into that prefix and the buffer *becomes* the frame — the
    /// payload is copied exactly once end to end (send buffer → segment
    /// buffer, by the fused sum+copy pass that priced its checksum).
    fn send_tcp_segment(
        &mut self,
        ctx: &mut NodeCtx,
        src: Ipv4Addr,
        dst: Ipv4Addr,
        seg: crate::tcp::TcpSegment,
    ) {
        let Some(port) = self.routes.lookup(dst) else {
            return; // no route: drop, same as send_ip
        };
        // The pseudo-header checksum always uses the socket's local address;
        // only the IP header source gets the unspecified-address fixup
        // (matching the order of operations of the send_ip path).
        let mut hdr_src = src;
        if hdr_src == Ipv4Addr::UNSPECIFIED {
            if let Some(addr) = self.iface_addr(port) {
                hdr_src = addr;
            }
        }
        let ip_repr = Ipv4Repr::new(hdr_src, dst, Protocol::Tcp);
        const IP_HDR: usize = 20;
        let headroom = crate::tcp::SEGMENT_HEADROOM;
        if seg.repr.header_len() == headroom - IP_HDR {
            // In-place emit: headers land in the reserved prefix.
            let (tcp_repr, mut frame, payload_sum) = seg.into_parts();
            let payload_len = frame.len() - headroom;
            ip_repr.write_header(frame.len() - IP_HDR, &mut frame[..IP_HDR]);
            tcp_repr.write_header_with_sum(
                src,
                dst,
                payload_len,
                payload_sum,
                &mut frame[IP_HDR..],
            );
            ctx.send_frame(port, frame);
        } else {
            // Option-bearing headers (SYN/SYN-ACK) don't fit the reserved
            // prefix; build the frame by appending as before.
            let tcp_len = seg.repr.segment_len(seg.payload().len());
            let mut frame = ctx.alloc_frame(ip_repr.header_len() + tcp_len);
            ip_repr.emit_header_into(tcp_len, &mut frame);
            seg.repr.emit_with_payload_sum_onto(
                src,
                dst,
                seg.payload(),
                seg.payload_sum(),
                &mut frame,
            );
            ctx.send_frame(port, frame);
            ctx.recycle_frame(seg.into_parts().1);
        }
    }

    /// Sends a fully formed IP packet, routing by its destination (used by
    /// the ICMP "hijack" prober to inject crafted packets).
    pub fn raw_send(&mut self, ctx: &mut NodeCtx, packet: Vec<u8>) {
        let Ok(view) = Ipv4Packet::new_checked(&packet[..]) else { return };
        let Some(port) = self.routes.lookup(view.dst_addr()) else { return };
        ctx.send_frame(port, packet);
    }

    fn forward_packet(&mut self, ctx: &mut NodeCtx, in_port: PortId, mut frame: Vec<u8>) {
        let dst = Ipv4Packet::new_unchecked(&frame[..]).dst_addr();
        let Some(out_port) = self.routes.lookup(dst) else { return };
        if out_port == in_port {
            return; // no U-turns on point-to-point links
        }
        let mut ip = Ipv4Packet::new_unchecked(&mut frame[..]);
        let ttl = ip.ttl();
        if ttl <= 1 {
            return; // expired in transit; no diagnostics needed here
        }
        ip.set_ttl(ttl - 1);
        ip.fill_checksum();
        ctx.send_frame(out_port, frame);
    }

    // ---------------- sniffer ----------------

    /// Enables recording of every received IP packet.
    pub fn sniff_enable(&mut self) {
        self.sniffed.get_or_insert_with(Vec::new);
    }

    /// Drains sniffed packets.
    pub fn sniff_take(&mut self) -> Vec<(Instant, Vec<u8>)> {
        self.sniffed.as_mut().map(std::mem::take).unwrap_or_default()
    }

    // ---------------- UDP ----------------

    /// Binds a UDP socket on `port` (any local address).
    pub fn udp_bind(&mut self, port: u16) -> UdpHandle {
        self.udp_insert(port, None)
    }

    /// Binds a UDP socket to a specific local address (an interface address
    /// or an alias) and port.
    pub fn udp_bind_at(&mut self, addr: Ipv4Addr, port: u16) -> UdpHandle {
        self.udp_insert(port, Some(addr))
    }

    fn udp_insert(&mut self, port: u16, bound_addr: Option<Ipv4Addr>) -> UdpHandle {
        self.port_ref(port);
        let recv = self.spare_recv.pop().unwrap_or_default();
        let idx = free_slot(&mut self.udp_sockets);
        self.udp_sockets[idx] = Some(UdpSocketState { port, bound_addr, recv, echo: false });
        UdpHandle(idx)
    }

    /// Binds a UDP socket on a fresh ephemeral port.
    pub fn udp_bind_ephemeral(&mut self) -> UdpHandle {
        let port = self.alloc_ephemeral();
        self.udp_bind(port)
    }

    /// Marks a UDP socket as an echo service: it sends every datagram it
    /// receives back to its sender. An echo socket keeps only the latest
    /// datagram it echoed for [`Host::udp_recv`] (a test reads it back to
    /// see the translated source), so a long-lived server that nothing
    /// reads holds one datagram, not every datagram it ever echoed.
    pub fn udp_set_echo(&mut self, h: UdpHandle, on: bool) {
        self.udp_sockets[h.0].as_mut().expect("closed socket").echo = on;
    }

    /// The local port of a UDP socket.
    pub fn udp_local_port(&self, h: UdpHandle) -> u16 {
        self.udp_sockets[h.0].as_ref().expect("closed socket").port
    }

    /// Sends a datagram from socket `h` to `dst`.
    pub fn udp_send(&mut self, ctx: &mut NodeCtx, h: UdpHandle, dst: SocketAddrV4, payload: &[u8]) {
        let src_port = self.udp_local_port(h);
        let bound = self.udp_sockets[h.0].as_ref().and_then(|s| s.bound_addr);
        // The pseudo-header needs the source address: resolve the route now.
        let Some(port) = self.routes.lookup(*dst.ip()) else { return };
        let Some(src_addr) = bound.or_else(|| self.iface_addr(port)) else { return };
        let udp = UdpRepr { src_port, dst_port: dst.port() };
        let mut repr = Ipv4Repr::new(src_addr, *dst.ip(), Protocol::Udp);
        if src_addr == Ipv4Addr::UNSPECIFIED {
            repr.src_addr = self.iface_addr(port).unwrap_or(src_addr);
        }
        send_udp(ctx, port, repr, (src_addr, udp), payload);
        self.reschedule(ctx);
    }

    /// Receives a pending datagram, if any.
    pub fn udp_recv(&mut self, h: UdpHandle) -> Option<(SocketAddrV4, Vec<u8>)> {
        let s = self.udp_sockets[h.0].as_mut().expect("closed socket");
        if s.recv.is_empty() {
            None
        } else {
            Some(s.recv.remove(0))
        }
    }

    /// Closes a UDP socket.
    pub fn udp_close(&mut self, h: UdpHandle) {
        if let Some(s) = self.udp_sockets[h.0].take() {
            self.port_unref(s.port);
            self.spare_recv.push(s.recv.cleared());
        }
    }

    fn port_ref(&mut self, port: u16) {
        if port >= EPHEMERAL_BASE {
            *self.port_refs.entry(port).or_insert(0) += 1;
        }
    }

    fn port_unref(&mut self, port: u16) {
        if port < EPHEMERAL_BASE {
            return;
        }
        let n = self.port_refs.get_mut(&port).expect("port held by a live socket");
        *n -= 1;
        if *n == 0 {
            self.port_refs.remove(&port);
        }
    }

    /// The next ephemeral port no live UDP or TCP socket holds.
    fn alloc_ephemeral(&mut self) -> u16 {
        loop {
            let port = EPHEMERAL_BASE + (self.next_ephemeral % 16_384);
            self.next_ephemeral = self.next_ephemeral.wrapping_add(1);
            if !self.port_refs.contains_key(&port) {
                return port;
            }
        }
    }

    // ---------------- TCP ----------------

    /// Opens a TCP connection to `remote` from a fresh ephemeral port.
    pub fn tcp_connect(&mut self, ctx: &mut NodeCtx, remote: SocketAddrV4) -> TcpHandle {
        self.tcp_connect_with(ctx, remote, self.tcp_config)
    }

    /// Opens a TCP connection with an explicit socket configuration.
    pub fn tcp_connect_with(
        &mut self,
        ctx: &mut NodeCtx,
        remote: SocketAddrV4,
        config: TcpConfig,
    ) -> TcpHandle {
        let local_port = self.alloc_ephemeral();
        let local_addr = self
            .routes
            .lookup(*remote.ip())
            .and_then(|p| self.iface_addr(p))
            .unwrap_or(Ipv4Addr::UNSPECIFIED);
        let iss = SeqNumber(ctx.rng().next_u32());
        let socket = TcpSocket::client(
            SocketAddrV4::new(local_addr, local_port),
            remote,
            iss,
            config,
            ctx.now(),
        );
        let idx = self.tcp_insert(socket);
        self.poll(ctx);
        TcpHandle(idx)
    }

    fn tcp_insert(&mut self, socket: TcpSocket) -> usize {
        self.port_ref(socket.local.port());
        self.tcp_table.insert(socket)
    }

    /// Starts listening on `port` with the given accept-time application.
    pub fn tcp_listen(&mut self, port: u16, app: ListenerApp) {
        self.tcp_listen_with(port, app, self.tcp_config);
    }

    /// Starts listening with an explicit socket configuration.
    pub fn tcp_listen_with(&mut self, port: u16, app: ListenerApp, config: TcpConfig) {
        self.tcp_listeners.push(TcpListener { port, app, config });
    }

    /// Drains the list of newly accepted connections.
    pub fn tcp_accepted(&mut self) -> Vec<TcpHandle> {
        std::mem::take(&mut self.accepted)
    }

    /// Access to a TCP socket.
    pub fn tcp(&self, h: TcpHandle) -> &TcpSocket {
        self.tcp_table.get(h.0)
    }

    /// Mutable access to a TCP socket (driver-side reads/writes); callers
    /// should invoke [`Host::kick`] afterwards so output is flushed.
    pub fn tcp_mut(&mut self, h: TcpHandle) -> &mut TcpSocket {
        self.tcp_table.touch(h.0)
    }

    /// True if the handle still refers to a socket.
    pub fn tcp_is_alive(&self, h: TcpHandle) -> bool {
        self.tcp_table.sockets.get(h.0).map(|s| s.is_some()).unwrap_or(false)
    }

    /// Queues data on a connection and flushes output.
    pub fn tcp_send(&mut self, ctx: &mut NodeCtx, h: TcpHandle, data: &[u8]) -> usize {
        let n = self.tcp_mut(h).send(data);
        self.poll(ctx);
        n
    }

    /// Reads received data from a connection.
    pub fn tcp_recv(&mut self, h: TcpHandle, max: usize) -> Vec<u8> {
        self.tcp_mut(h).recv(max)
    }

    /// Closes a connection (FIN) and flushes output.
    pub fn tcp_close(&mut self, ctx: &mut NodeCtx, h: TcpHandle) {
        self.tcp_mut(h).close();
        self.poll(ctx);
    }

    /// Releases a fully closed socket slot.
    pub fn tcp_remove(&mut self, h: TcpHandle) {
        if let Some(sock) = self.tcp_table.remove(h.0) {
            self.port_unref(sock.local.port());
        }
        self.tcp_apps.remove(&h.0);
    }

    /// Flushes pending socket output and re-arms timers. Call after
    /// driver-side socket mutations.
    pub fn kick(&mut self, ctx: &mut NodeCtx) {
        self.poll(ctx);
    }

    // ---------------- ICMP ----------------

    /// Sends an ICMP echo request.
    pub fn ping(&mut self, ctx: &mut NodeCtx, dst: Ipv4Addr, ident: u16, seq: u16) {
        let msg = IcmpRepr::EchoRequest { ident, seq, payload: b"hgw-ping".to_vec() };
        let repr = Ipv4Repr::new(Ipv4Addr::UNSPECIFIED, dst, Protocol::Icmp);
        self.send_ip(ctx, repr, &msg.emit());
    }

    /// Drains recorded ICMP events (errors and informational).
    pub fn icmp_take_events(&mut self) -> Vec<IcmpEvent> {
        std::mem::take(&mut self.icmp_events)
    }

    /// Drains recorded echo replies `(at, from, ident, seq)`.
    pub fn ping_take_replies(&mut self) -> Vec<(Instant, Ipv4Addr, u16, u16)> {
        std::mem::take(&mut self.echo_replies)
    }

    // ---------------- SCTP ----------------

    /// Opens an SCTP association to `remote`.
    pub fn sctp_connect(&mut self, ctx: &mut NodeCtx, remote: SocketAddrV4) -> SctpHandle {
        let local_port = self.alloc_ephemeral();
        let vtag = ctx.rng().next_u32().max(1);
        let tsn = ctx.rng().next_u32();
        let mut ep = SctpEndpoint::client(local_port, remote.port(), vtag, tsn);
        ep.start(ctx.now());
        let idx = free_slot(&mut self.sctp_endpoints);
        self.sctp_endpoints[idx] = Some(ep);
        self.next_sctp_remote.insert(idx, (*remote.ip(), remote.port()));
        self.poll(ctx);
        SctpHandle(idx)
    }

    /// Listens for SCTP associations on `port` (echoing data).
    pub fn sctp_listen(&mut self, port: u16) {
        self.sctp_listen_ports.push(port);
    }

    /// Access to an SCTP endpoint.
    pub fn sctp(&self, h: SctpHandle) -> &SctpEndpoint {
        self.sctp_endpoints[h.0].as_ref().expect("closed endpoint")
    }

    /// Queues data on an association and flushes.
    pub fn sctp_send(&mut self, ctx: &mut NodeCtx, h: SctpHandle, data: Vec<u8>) {
        self.sctp_endpoints[h.0].as_mut().expect("closed endpoint").send(ctx.now(), data);
        self.poll(ctx);
    }

    // ---------------- DCCP ----------------

    /// Opens a DCCP connection to `remote`.
    pub fn dccp_connect(
        &mut self,
        ctx: &mut NodeCtx,
        remote: SocketAddrV4,
        service: u32,
    ) -> DccpHandle {
        let local_port = self.alloc_ephemeral();
        let iss = ctx.rng().next_u64() & 0xFFFF_FFFF_FFFF;
        let mut ep = DccpEndpoint::client(local_port, remote.port(), service, iss);
        ep.start(ctx.now());
        let idx = free_slot(&mut self.dccp_endpoints);
        self.dccp_endpoints[idx] = Some(ep);
        self.next_dccp_remote.insert(idx, (*remote.ip(), remote.port()));
        self.poll(ctx);
        DccpHandle(idx)
    }

    /// Listens for DCCP connections on `port` (echoing data).
    pub fn dccp_listen(&mut self, port: u16) {
        self.dccp_listen_ports.push(port);
    }

    /// Access to a DCCP endpoint.
    pub fn dccp(&self, h: DccpHandle) -> &DccpEndpoint {
        self.dccp_endpoints[h.0].as_ref().expect("closed endpoint")
    }

    /// Queues data on a DCCP connection and flushes.
    pub fn dccp_send(&mut self, ctx: &mut NodeCtx, h: DccpHandle, data: Vec<u8>) {
        self.dccp_endpoints[h.0].as_mut().expect("closed endpoint").send(data);
        self.poll(ctx);
    }

    // ---------------- DNS / DHCP services ----------------

    /// Serves the given zone on UDP and TCP port 53.
    pub fn enable_dns_server(&mut self, zone: DnsZone) {
        self.dns_zone = Some(zone);
        self.tcp_listen(53, ListenerApp::Dns);
    }

    /// Runs a DHCP server on `port` (one instance per port is allowed).
    pub fn enable_dhcp_server(&mut self, port: PortId, config: DhcpServerConfig) {
        self.dhcp_servers.push((port, DhcpServer::new(config)));
    }

    /// Runs a DHCP client on `port`; once bound it configures the interface,
    /// installs a default route, and remembers the offered DNS server.
    pub fn enable_dhcp_client(&mut self, port: PortId, chaddr: [u8; 6]) {
        self.dhcp_client = Some((
            port,
            DhcpClient::new(chaddr, u32::from_be_bytes(chaddr[2..6].try_into().unwrap())),
        ));
    }

    /// The DHCP client's lease, once bound.
    pub fn dhcp_lease(&self) -> Option<&crate::dhcp::DhcpLease> {
        self.dhcp_client.as_ref().and_then(|(_, c)| c.lease.as_ref())
    }

    /// Whether a DHCP client is configured on this host.
    pub fn dhcp_client_enabled(&self) -> bool {
        self.dhcp_client.is_some()
    }

    /// Turns lease auto-renewal on for the configured DHCP client (no-op
    /// without one). See [`crate::dhcp::DhcpClient::set_auto_renew`].
    pub fn dhcp_auto_renew(&mut self, on: bool) {
        if let Some((_, c)) = &mut self.dhcp_client {
            c.set_auto_renew(on);
        }
    }

    /// Lease renewals the DHCP client has completed.
    pub fn dhcp_renewals(&self) -> u64 {
        self.dhcp_client.as_ref().map_or(0, |(_, c)| c.renewals)
    }

    // ---------------- polling & timers ----------------

    fn poll(&mut self, ctx: &mut NodeCtx) {
        let now = ctx.now();

        // DHCP client.
        if let Some((port, client)) = &mut self.dhcp_client {
            let port = *port;
            client.on_timer(now);
            let bound = client.lease.is_some();
            let configured = self.ifaces.get(port.0).and_then(|i| i.as_ref());
            let newly_bound = bound && !configured.is_some_and(|i| i.config.is_configured());
            for msg in client.dispatch() {
                let udp = UdpRepr { src_port: CLIENT_PORT, dst_port: SERVER_PORT };
                let repr = Ipv4Repr::new(Ipv4Addr::UNSPECIFIED, Ipv4Addr::BROADCAST, Protocol::Udp);
                self.dhcp_wire.clear();
                msg.emit_onto(&mut self.dhcp_wire);
                send_udp(ctx, port, repr, (Ipv4Addr::UNSPECIFIED, udp), &self.dhcp_wire);
            }
            if newly_bound {
                let lease = client.lease.as_ref().unwrap();
                let prefix = u32::from(lease.subnet_mask).leading_ones() as u8;
                let (addr, routed) = (lease.addr, lease.router.is_some());
                self.add_iface(port, IfaceConfig::new(addr, prefix));
                if routed {
                    self.add_default_route(port);
                }
            }
        }

        // TCP sockets: only those touched since the last poll or due now.
        let mut visits = std::mem::take(&mut self.tcp_table.visits);
        self.tcp_table.take_visits(now, &mut visits);
        for &idx in &visits {
            let Some(sock) = self.tcp_table.sockets[idx].as_mut() else { continue };
            sock.on_timer(now);
            // DNS-over-TCP reads 4 KiB per poll; more input keeps it dirty.
            let mut input_left = false;
            // Application pumps.
            match self.tcp_apps.get_mut(&idx) {
                Some(TcpApp::Echo) => {
                    loop {
                        let data = self.tcp_table.sockets[idx].as_mut().unwrap().recv(4096);
                        if data.is_empty() {
                            break;
                        }
                        self.tcp_table.sockets[idx].as_mut().unwrap().send(&data);
                    }
                    // A well-behaved echo service closes when the peer does.
                    let sock = self.tcp_table.sockets[idx].as_mut().unwrap();
                    if sock.state() == crate::tcp::TcpState::CloseWait && sock.send_queue_len() == 0
                    {
                        sock.close();
                    }
                }
                Some(TcpApp::DnsTcp { inbuf }) => {
                    let sock = self.tcp_table.sockets[idx].as_mut().unwrap();
                    let data = sock.recv(4096);
                    inbuf.extend_from_slice(&data);
                    let mut responses = Vec::new();
                    while let Ok((query, consumed)) = DnsMessage::parse_tcp(inbuf) {
                        inbuf.drain(..consumed);
                        if let Some(zone) = &self.dns_zone {
                            responses.push(zone.answer(&query).emit_tcp());
                        }
                    }
                    let sock = self.tcp_table.sockets[idx].as_mut().unwrap();
                    for resp in responses {
                        sock.send(&resp);
                    }
                    input_left = sock.recv_available() > 0;
                }
                None => {}
            }
            let sock = self.tcp_table.sockets[idx].as_mut().unwrap();
            let mut segs = std::mem::take(&mut self.tcp_segs);
            // Segment buffers come from the simulator's frame pool, leave as
            // frames, and return to the pool once delivered.
            sock.dispatch(now, ctx.frame_pool(), &mut segs);
            let (local, remote) = (sock.local, sock.remote);
            for seg in segs.drain(..) {
                self.send_tcp_segment(ctx, *local.ip(), *remote.ip(), seg);
            }
            self.tcp_segs = segs;
            if input_left {
                self.tcp_table.touch(idx);
            } else {
                self.tcp_table.settle(idx);
            }
        }
        visits.clear();
        self.tcp_table.visits = visits;

        // SCTP endpoints.
        for idx in 0..self.sctp_endpoints.len() {
            let Some(ep) = self.sctp_endpoints[idx].as_mut() else { continue };
            ep.on_timer(now);
            let pkts = ep.dispatch();
            if let Some(&(raddr, _)) = self.next_sctp_remote.get(&idx) {
                for pkt in pkts {
                    let repr = Ipv4Repr::new(Ipv4Addr::UNSPECIFIED, raddr, Protocol::Sctp);
                    self.send_ip(ctx, repr, &pkt.emit());
                }
            }
        }

        // DCCP endpoints.
        for idx in 0..self.dccp_endpoints.len() {
            let Some(ep) = self.dccp_endpoints[idx].as_mut() else { continue };
            ep.on_timer(now);
            if let Some(&(raddr, _)) = self.next_dccp_remote.get(&idx) {
                let Some(port) = self.routes.lookup(raddr) else { continue };
                let Some(src) = self.iface_addr(port) else { continue };
                let ep = self.dccp_endpoints[idx].as_mut().unwrap();
                let pkts = ep.dispatch();
                for pkt in pkts {
                    let bytes = pkt.emit(src, raddr);
                    let repr = Ipv4Repr::new(src, raddr, Protocol::Dccp);
                    self.send_ip(ctx, repr, &bytes);
                }
            }
        }

        self.reschedule(ctx);
    }

    fn poll_at(&self) -> Option<Instant> {
        let tcp = self.tcp_table.poll_at();
        let sctp = self.sctp_endpoints.iter().flatten().filter_map(|s| s.poll_at()).min();
        let dccp = self.dccp_endpoints.iter().flatten().filter_map(|s| s.poll_at()).min();
        let dhcp = self.dhcp_client.as_ref().and_then(|(_, c)| c.poll_at());
        Instant::earliest(Instant::earliest(tcp, sctp), Instant::earliest(dccp, dhcp))
    }

    fn reschedule(&mut self, ctx: &mut NodeCtx) {
        if let Some(want) = self.poll_at() {
            let need_arm = match self.armed_at {
                Some(at) => want < at && at > ctx.now(),
                None => true,
            };
            if need_arm || self.armed_at.is_some_and(|at| at <= ctx.now()) {
                self.armed_at = Some(want);
                ctx.set_timer_at(want, TimerToken(0));
            }
        }
    }

    // ---------------- input dispatch ----------------

    fn handle_udp(
        &mut self,
        ctx: &mut NodeCtx,
        port: PortId,
        ip: &Ipv4Packet<&[u8]>,
        payload: &[u8],
    ) {
        let Ok(udp) = UdpPacket::new_checked(payload) else { return };
        if !udp.verify_checksum(ip.src_addr(), ip.dst_addr()) {
            return;
        }
        let src = SocketAddrV4::new(ip.src_addr(), udp.src_port());
        let dst_port = udp.dst_port();
        let data = udp.payload();

        // DHCP server.
        if dst_port == SERVER_PORT && self.dhcp_servers.iter().any(|(p, _)| *p == port) {
            if let Ok(msg) = DhcpMessage::parse(data) {
                let server = self.dhcp_servers.iter_mut().find(|(p, _)| *p == port).map(|(_, s)| s);
                let reply = server.and_then(|s| s.process(&msg));
                if let Some(reply) = reply {
                    let src_addr = self.iface_addr(port).unwrap_or(Ipv4Addr::UNSPECIFIED);
                    let udp = UdpRepr { src_port: SERVER_PORT, dst_port: CLIENT_PORT };
                    let repr = Ipv4Repr::new(src_addr, Ipv4Addr::BROADCAST, Protocol::Udp);
                    self.dhcp_wire.clear();
                    reply.emit_onto(&mut self.dhcp_wire);
                    send_udp(ctx, port, repr, (src_addr, udp), &self.dhcp_wire);
                }
            }
            return;
        }
        // DHCP client.
        if dst_port == CLIENT_PORT {
            if let Some((cport, client)) = &mut self.dhcp_client {
                if *cport == port {
                    if let Ok(msg) = DhcpMessage::parse(data) {
                        client.process(ctx.now(), &msg);
                        self.poll(ctx);
                    }
                    return;
                }
            }
        }
        // DNS server over UDP.
        if let (53, Some(zone)) = (dst_port, &self.dns_zone) {
            if let Ok(query) = DnsMessage::parse(data) {
                if !query.is_response {
                    let resp = zone.answer(&query);
                    let Some(eport) = self.routes.lookup(*src.ip()) else { return };
                    let Some(src_addr) = self.iface_addr(eport) else { return };
                    let udp = UdpRepr { src_port: 53, dst_port: src.port() };
                    let repr = Ipv4Repr::new(src_addr, *src.ip(), Protocol::Udp);
                    send_udp(ctx, eport, repr, (src_addr, udp), &resp.emit());
                    return;
                }
            }
        }
        // Regular sockets: prefer an address-specific bind, then wildcard.
        let dst_addr = ip.dst_addr();
        let idx = self
            .udp_sockets
            .iter()
            .position(|s| {
                s.as_ref()
                    .map(|s| s.port == dst_port && s.bound_addr == Some(dst_addr))
                    .unwrap_or(false)
            })
            .or_else(|| {
                self.udp_sockets.iter().position(|s| {
                    s.as_ref()
                        .map(|s| s.port == dst_port && s.bound_addr.is_none())
                        .unwrap_or(false)
                })
            });
        if let Some(idx) = idx {
            let s = self.udp_sockets[idx].as_mut().unwrap();
            let echo = s.echo;
            if echo {
                s.recv.truncate(1);
            }
            match s.recv.first_mut() {
                // The latest datagram replaces the one kept before it, in
                // that one's buffer.
                Some((from, kept)) if echo => {
                    *from = src;
                    kept.clear();
                    kept.extend_from_slice(data);
                }
                _ => s.recv.push((src, data.to_vec())),
            }
            if echo {
                self.udp_send(ctx, UdpHandle(idx), src, data);
            }
            return;
        }
        // Closed port: ICMP port unreachable embedding the whole packet.
        if self.generate_port_unreachable && ip.dst_addr() != Ipv4Addr::BROADCAST {
            let invoking = ip.clone().into_inner().to_vec();
            let msg =
                IcmpRepr::DestUnreachable { code: UnreachCode::PortUnreachable, mtu: 0, invoking };
            let repr = Ipv4Repr::new(Ipv4Addr::UNSPECIFIED, ip.src_addr(), Protocol::Icmp);
            self.send_ip(ctx, repr, &msg.emit());
        }
    }

    /// Returns whether it ran `poll`, which ends in a reschedule.
    fn handle_tcp(&mut self, ctx: &mut NodeCtx, ip: &Ipv4Packet<&[u8]>, payload: &[u8]) -> bool {
        let Ok(tcp) = TcpPacket::new_checked(payload) else { return false };
        if !tcp.verify_checksum(ip.src_addr(), ip.dst_addr()) {
            return false;
        }
        // The checksum was just verified; parse_unverified skips the second
        // full-payload re-read that TcpRepr::parse would perform.
        let Ok(repr) = TcpRepr::parse_unverified(&tcp) else { return false };
        let data = tcp.payload();
        let remote = SocketAddrV4::new(ip.src_addr(), repr.src_port);
        let local = SocketAddrV4::new(ip.dst_addr(), repr.dst_port);
        // Existing connection?
        if let Some(&idx) = self.tcp_table.by_tuple.get(&tuple_key(local, remote)) {
            self.tcp_table.touch(idx).process(ctx.now(), &repr, data);
            self.poll(ctx);
            return true;
        }
        // Listener?
        if repr.flags.contains(TcpFlags::SYN) && !repr.flags.contains(TcpFlags::ACK) {
            if let Some(l) = self.tcp_listeners.iter().find(|l| l.port == repr.dst_port) {
                let app = l.app;
                let config = l.config;
                let iss = SeqNumber(ctx.rng().next_u32());
                let socket = TcpSocket::server(local, remote, iss, config, &repr, ctx.now());
                let idx = self.tcp_insert(socket);
                match app {
                    ListenerApp::Echo => {
                        self.tcp_apps.insert(idx, TcpApp::Echo);
                    }
                    ListenerApp::Dns => {
                        self.tcp_apps.insert(idx, TcpApp::DnsTcp { inbuf: Vec::new() });
                    }
                    ListenerApp::Manual => {}
                }
                self.accepted.push(TcpHandle(idx));
                self.poll(ctx);
                return true;
            }
        }
        // No socket: RST (unless the segment itself is a RST).
        if !repr.flags.contains(TcpFlags::RST) {
            let mut rst = TcpRepr::new(repr.dst_port, repr.src_port, TcpFlags::RST);
            if repr.flags.contains(TcpFlags::ACK) {
                rst.seq = repr.ack;
            } else {
                rst.flags |= TcpFlags::ACK;
                rst.ack = repr.seq.add(data.len() as u32 + 1);
            }
            rst.window = 0;
            let bytes = rst.emit_with_payload(ip.dst_addr(), ip.src_addr(), &[]);
            let ip_repr = Ipv4Repr::new(ip.dst_addr(), ip.src_addr(), Protocol::Tcp);
            self.send_ip(ctx, ip_repr, &bytes);
        }
        false
    }

    fn handle_icmp(&mut self, ctx: &mut NodeCtx, ip: &Ipv4Packet<&[u8]>, payload: &[u8]) {
        let Ok(msg) = IcmpRepr::parse(payload) else { return };
        match &msg {
            IcmpRepr::EchoRequest { ident, seq, payload } => {
                if self.respond_to_echo {
                    let reply =
                        IcmpRepr::EchoReply { ident: *ident, seq: *seq, payload: payload.clone() };
                    let repr = Ipv4Repr::new(ip.dst_addr(), ip.src_addr(), Protocol::Icmp);
                    self.send_ip(ctx, repr, &reply.emit());
                }
            }
            IcmpRepr::EchoReply { ident, seq, .. } => {
                self.echo_replies.push((ctx.now(), ip.src_addr(), *ident, *seq));
            }
            other => {
                let embedded = other.invoking().and_then(parse_embedded);
                self.icmp_events.push(IcmpEvent {
                    at: ctx.now(),
                    from: ip.src_addr(),
                    message: msg.clone(),
                    embedded,
                });
            }
        }
    }

    fn handle_sctp(&mut self, ctx: &mut NodeCtx, ip: &Ipv4Packet<&[u8]>, payload: &[u8]) {
        let Ok(pkt) = SctpRepr::parse(payload) else { return };
        let from = ip.src_addr();
        // Client endpoints.
        for idx in 0..self.sctp_endpoints.len() {
            let matches = self.sctp_endpoints[idx]
                .as_ref()
                .map(|ep| {
                    ep.local_port == pkt.dst_port
                        && self
                            .next_sctp_remote
                            .get(&idx)
                            .map(|(a, p)| *a == from && *p == pkt.src_port)
                            .unwrap_or(false)
                })
                .unwrap_or(false);
            if matches {
                self.sctp_endpoints[idx].as_mut().unwrap().process(ctx.now(), &pkt);
                self.poll(ctx);
                return;
            }
        }
        // Server role.
        if self.sctp_listen_ports.contains(&pkt.dst_port) {
            let replies = self.sctp_server_react(ctx, from, &pkt);
            for reply in replies {
                let repr = Ipv4Repr::new(ip.dst_addr(), from, Protocol::Sctp);
                self.send_ip(ctx, repr, &reply.emit());
            }
        }
    }

    fn sctp_server_react(
        &mut self,
        ctx: &mut NodeCtx,
        from: Ipv4Addr,
        pkt: &SctpRepr,
    ) -> Vec<SctpRepr> {
        let key = (from, pkt.src_port, pkt.dst_port);
        let mut out = Vec::new();
        for chunk in &pkt.chunks {
            match chunk {
                Chunk::Init { init_tag, initial_tsn, .. } => {
                    // Stateless INIT-ACK carrying the peer state in the cookie.
                    let my_vtag = ctx.rng().next_u32().max(1);
                    let cookie =
                        [init_tag.to_be_bytes(), my_vtag.to_be_bytes(), initial_tsn.to_be_bytes()]
                            .concat();
                    out.push(SctpRepr {
                        src_port: pkt.dst_port,
                        dst_port: pkt.src_port,
                        verification_tag: *init_tag,
                        chunks: vec![Chunk::InitAck {
                            init_tag: my_vtag,
                            a_rwnd: 65_536,
                            outbound_streams: 1,
                            inbound_streams: 1,
                            initial_tsn: 1,
                            cookie,
                        }],
                    });
                }
                Chunk::CookieEcho { cookie } if cookie.len() >= 12 => {
                    let peer_vtag = u32::from_be_bytes(cookie[0..4].try_into().unwrap());
                    let my_vtag = u32::from_be_bytes(cookie[4..8].try_into().unwrap());
                    let peer_tsn = u32::from_be_bytes(cookie[8..12].try_into().unwrap());
                    if pkt.verification_tag == my_vtag {
                        self.sctp_assocs.entry(key).or_insert(SctpAssociation {
                            peer_vtag,
                            my_vtag,
                            my_tsn: 1,
                            peer_cum_tsn: peer_tsn.wrapping_sub(1),
                            received: Vec::new(),
                            echo: true,
                        });
                        out.push(SctpRepr {
                            src_port: pkt.dst_port,
                            dst_port: pkt.src_port,
                            verification_tag: peer_vtag,
                            chunks: vec![Chunk::CookieAck],
                        });
                    }
                }
                Chunk::Data { tsn, data, .. } => {
                    if let Some(a) = self.sctp_assocs.get_mut(&key) {
                        if pkt.verification_tag != a.my_vtag {
                            continue;
                        }
                        let mut chunks = Vec::new();
                        if *tsn == a.peer_cum_tsn.wrapping_add(1) {
                            a.peer_cum_tsn = *tsn;
                            a.received.push(data.clone());
                            if a.echo {
                                chunks.push(Chunk::Data {
                                    tsn: a.my_tsn,
                                    stream_id: 0,
                                    stream_seq: 0,
                                    ppid: 0,
                                    data: data.clone(),
                                });
                                a.my_tsn = a.my_tsn.wrapping_add(1);
                            }
                        }
                        chunks.insert(0, Chunk::Sack { cum_tsn: a.peer_cum_tsn, a_rwnd: 65_536 });
                        out.push(SctpRepr {
                            src_port: pkt.dst_port,
                            dst_port: pkt.src_port,
                            verification_tag: a.peer_vtag,
                            chunks,
                        });
                    }
                }
                Chunk::Sack { .. } => {}
                Chunk::Shutdown { .. } => {
                    if let Some(a) = self.sctp_assocs.get(&key) {
                        out.push(SctpRepr {
                            src_port: pkt.dst_port,
                            dst_port: pkt.src_port,
                            verification_tag: a.peer_vtag,
                            chunks: vec![Chunk::ShutdownAck],
                        });
                    }
                }
                Chunk::ShutdownComplete => {
                    self.sctp_assocs.remove(&key);
                }
                _ => {}
            }
        }
        out
    }

    fn handle_dccp(&mut self, ctx: &mut NodeCtx, ip: &Ipv4Packet<&[u8]>, payload: &[u8]) {
        let Ok(pkt) = DccpRepr::parse(payload, ip.src_addr(), ip.dst_addr()) else { return };
        let from = ip.src_addr();
        // Client endpoints.
        for idx in 0..self.dccp_endpoints.len() {
            let matches = self.dccp_endpoints[idx]
                .as_ref()
                .map(|ep| {
                    ep.local_port == pkt.dst_port
                        && self
                            .next_dccp_remote
                            .get(&idx)
                            .map(|(a, p)| *a == from && *p == pkt.src_port)
                            .unwrap_or(false)
                })
                .unwrap_or(false);
            if matches {
                self.dccp_endpoints[idx].as_mut().unwrap().process(ctx.now(), &pkt);
                self.poll(ctx);
                return;
            }
        }
        // Server role.
        if self.dccp_listen_ports.contains(&pkt.dst_port) {
            let key = (from, pkt.src_port, pkt.dst_port);
            let mut replies: Vec<DccpRepr> = Vec::new();
            match pkt.packet_type {
                hgw_wire::dccp::DccpType::Request => {
                    let iss = ctx.rng().next_u64() & 0xFFFF_FFFF_FFFF;
                    let conn = self.dccp_conns.entry(key).or_insert(DccpServerConn {
                        seq: iss,
                        peer_seq: pkt.seq,
                        established: false,
                        received: Vec::new(),
                        echo: true,
                    });
                    replies.push(DccpRepr {
                        src_port: pkt.dst_port,
                        dst_port: pkt.src_port,
                        packet_type: hgw_wire::dccp::DccpType::Response,
                        seq: conn.seq,
                        ack: Some(pkt.seq),
                        service_code: pkt.service_code,
                        payload: Vec::new(),
                    });
                }
                hgw_wire::dccp::DccpType::Ack => {
                    if let Some(c) = self.dccp_conns.get_mut(&key) {
                        c.established = true;
                        c.peer_seq = pkt.seq;
                    }
                }
                hgw_wire::dccp::DccpType::Data | hgw_wire::dccp::DccpType::DataAck => {
                    if let Some(c) = self.dccp_conns.get_mut(&key) {
                        c.established = true;
                        c.peer_seq = pkt.seq;
                        c.received.push(pkt.payload.clone());
                        if c.echo {
                            c.seq = (c.seq + 1) & 0xFFFF_FFFF_FFFF;
                            replies.push(DccpRepr {
                                src_port: pkt.dst_port,
                                dst_port: pkt.src_port,
                                packet_type: hgw_wire::dccp::DccpType::DataAck,
                                seq: c.seq,
                                ack: Some(c.peer_seq),
                                service_code: None,
                                payload: pkt.payload.clone(),
                            });
                        }
                    }
                }
                _ => {}
            }
            for reply in replies {
                let bytes = reply.emit(ip.dst_addr(), from);
                let repr = Ipv4Repr::new(ip.dst_addr(), from, Protocol::Dccp);
                self.send_ip(ctx, repr, &bytes);
            }
        }
    }
}

/// Builds an IP frame carrying one UDP datagram in a single pooled buffer
/// and sends it on `port`. `pseudo_src` is the source address the UDP
/// checksum covers, which the IP header's may differ from.
pub fn send_udp(
    ctx: &mut NodeCtx,
    port: PortId,
    repr: Ipv4Repr,
    (pseudo_src, udp): (Ipv4Addr, UdpRepr),
    payload: &[u8],
) {
    let udp_len = 8 + payload.len();
    let mut frame = ctx.alloc_frame(repr.header_len() + udp_len);
    repr.emit_header_into(udp_len, &mut frame);
    udp.emit_onto(pseudo_src, repr.dst_addr, payload, &mut frame);
    ctx.send_frame(port, frame);
}

fn free_slot<T>(v: &mut Vec<Option<T>>) -> usize {
    if let Some(i) = v.iter().position(|s| s.is_none()) {
        i
    } else {
        v.push(None);
        v.len() - 1
    }
}

impl Node for Host {
    fn start(&mut self, ctx: &mut NodeCtx) {
        if let Some((_, client)) = &mut self.dhcp_client {
            client.start(ctx.now());
        }
        self.poll(ctx);
    }

    fn handle_frame(&mut self, ctx: &mut NodeCtx, port: PortId, frame: &mut Vec<u8>) {
        if let Some(buf) = &mut self.sniffed {
            buf.push((ctx.now(), frame.clone()));
        }
        let Ok(ip) = Ipv4Packet::new_checked(&frame[..]) else { return };
        if !ip.verify_checksum() {
            return;
        }
        let dst = ip.dst_addr();
        // Accept packets addressed to us or broadcast; an interface still
        // waiting for DHCP accepts anything (it has no address to match).
        if !self.owns_addr(dst) && self.iface_addr(port).is_some() {
            if self.forwarding {
                let frame = std::mem::take(frame);
                self.forward_packet(ctx, port, frame);
            }
            return;
        }
        let payload = ip.payload();
        match ip.protocol() {
            Protocol::Udp => self.handle_udp(ctx, port, &ip, payload),
            // A second reschedule right after poll's own could only re-arm
            // a timer that poll armed at or before now.
            Protocol::Tcp => {
                if self.handle_tcp(ctx, &ip, payload) {
                    return;
                }
            }
            Protocol::Icmp => self.handle_icmp(ctx, &ip, payload),
            Protocol::Sctp => self.handle_sctp(ctx, &ip, payload),
            Protocol::Dccp => self.handle_dccp(ctx, &ip, payload),
            Protocol::Unknown(_) => {}
        }
        self.reschedule(ctx);
    }

    fn handle_timer(&mut self, ctx: &mut NodeCtx, _token: TimerToken) {
        self.armed_at = None;
        self.poll(ctx);
    }

    impl_node_downcast!();
}

#[cfg(test)]
impl Host {
    /// Recounts the socket table's indices from the sockets themselves and
    /// panics on any difference.
    fn check_socket_table(&self) {
        let t = &self.tcp_table;
        let slots = 0..t.sockets.len();
        assert_eq!(t.meta.len(), t.sockets.len());
        assert!(t.visits.is_empty());
        // The tuple map is exactly the live sockets.
        let live: Vec<usize> = slots.clone().filter(|&i| t.sockets[i].is_some()).collect();
        assert_eq!(t.by_tuple.len(), live.len());
        for &i in &live {
            let s = t.get(i);
            assert_eq!(t.by_tuple.get(&tuple_key(s.local, s.remote)), Some(&i));
        }
        // The dirty list holds each flagged slot once.
        let mut dirty = t.dirty.clone();
        dirty.sort_unstable();
        let flagged: Vec<usize> = slots.clone().filter(|&i| t.meta[i].dirty).collect();
        assert_eq!(dirty, flagged);
        // The deadline heap is in heap order, each filed slot's cached
        // position points at its own entry, and it holds exactly poll_at()
        // of every clean live socket.
        for pos in 1..t.deadlines.len() {
            assert!(t.deadlines[(pos - 1) / 2].0 <= t.deadlines[pos].0, "heap order at {pos}");
        }
        for i in slots.clone() {
            match t.meta[i].heap_pos {
                UNFILED => {}
                pos => assert_eq!(t.deadlines.get(pos).map(|e| e.1), Some(i), "slot {i}"),
            }
        }
        let mut filed = t.deadlines.clone();
        filed.sort_unstable();
        let mut want: Vec<(Instant, usize)> = live
            .iter()
            .filter(|&&i| !t.meta[i].dirty)
            .filter_map(|&i| Some((t.get(i).poll_at()?, i)))
            .collect();
        want.sort_unstable();
        assert_eq!(filed, want);
        // As many filed slots as entries: every entry is its slot's own.
        let unfiled = slots.clone().filter(|&i| t.meta[i].heap_pos == UNFILED).count();
        assert_eq!(unfiled + t.deadlines.len(), t.sockets.len());
        assert_eq!(t.poll_at(), t.sockets.iter().flatten().filter_map(|s| s.poll_at()).min());
        // The free heap is exactly the empty slots.
        let mut free: Vec<usize> = t.free.iter().map(|r| r.0).collect();
        free.sort_unstable();
        let empty: Vec<usize> = slots.filter(|&i| t.sockets[i].is_none()).collect();
        assert_eq!(free, empty);
        // The ephemeral-port refcounts match a recount.
        let udp_ports = self.udp_sockets.iter().flatten().map(|s| s.port);
        let tcp_ports = t.sockets.iter().flatten().map(|s| s.local.port());
        let mut recount: HashMap<u16, u32> = HashMap::new();
        for port in udp_ports.chain(tcp_ports).filter(|&p| p >= EPHEMERAL_BASE) {
            *recount.entry(port).or_default() += 1;
        }
        let refs: HashMap<u16, u32> = self.port_refs.iter().map(|(&p, &n)| (p, n)).collect();
        assert_eq!(refs, recount);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hgw_core::{Duration, LinkConfig, NodeId, Simulator};

    const A_ADDR: Ipv4Addr = Ipv4Addr::new(10, 0, 1, 2);
    const B_ADDR: Ipv4Addr = Ipv4Addr::new(10, 0, 1, 1);
    const SERVER: SocketAddrV4 = SocketAddrV4::new(B_ADDR, 6000);

    fn two_hosts() -> (Simulator, NodeId, NodeId) {
        let mut sim = Simulator::new(7);
        let mut a = Host::new("client");
        a.add_iface(PortId(0), IfaceConfig::new(A_ADDR, 24));
        let mut b = Host::new("server");
        b.add_iface(PortId(0), IfaceConfig::new(B_ADDR, 24));
        b.tcp_listen(SERVER.port(), ListenerApp::Echo);
        let a = sim.add_node(Box::new(a));
        let b = sim.add_node(Box::new(b));
        sim.connect(a, PortId(0), b, PortId(0), LinkConfig::ethernet_100m());
        sim.boot();
        (sim, a, b)
    }

    fn check(sim: &mut Simulator, nodes: &[NodeId]) {
        for &n in nodes {
            sim.with_node::<Host, _>(n, |h, _| h.check_socket_table());
        }
    }

    fn connect(sim: &mut Simulator, a: NodeId, to: SocketAddrV4) -> TcpHandle {
        sim.with_node::<Host, _>(a, |h, ctx| h.tcp_connect(ctx, to))
    }

    #[test]
    fn socket_table_indices_survive_connection_churn() {
        let (mut sim, a, b) = two_hosts();
        let nodes = [a, b];
        let mut open: Vec<TcpHandle> = Vec::new();
        let mut accepted: Vec<TcpHandle> = Vec::new();
        let mut udp: Vec<UdpHandle> = Vec::new();
        for step in 0..320usize {
            // Every 16th connection goes to a closed port and is reset.
            let to = if step % 16 == 15 { SocketAddrV4::new(B_ADDR, 6001) } else { SERVER };
            open.push(connect(&mut sim, a, to));
            check(&mut sim, &nodes);
            sim.run_for(Duration::from_millis(1));
            check(&mut sim, &nodes);
            let pick = open[(step * 7) % open.len()];
            sim.with_node::<Host, _>(a, |h, ctx| match step % 6 {
                0 => {
                    h.tcp_mut(pick).abort();
                    h.kick(ctx);
                    h.tcp_remove(pick);
                }
                1 | 4 => {
                    h.tcp_send(ctx, pick, b"echo me");
                }
                2 => h.tcp_close(ctx, pick),
                3 if step % 12 == 3 => udp.push(h.udp_bind_ephemeral()),
                3 => {
                    if let Some(u) = udp.pop() {
                        h.udp_close(u);
                    }
                }
                _ => {
                    let _ = h.tcp_recv(pick, 64);
                }
            });
            if step % 6 == 0 {
                open.retain(|&h| h != pick);
            }
            check(&mut sim, &nodes);
            sim.run_for(Duration::from_millis(2));
            check(&mut sim, &nodes);
            // The server reaps its fully closed connections now and then,
            // so its slots are reused by later accepts.
            if step % 10 == 9 {
                sim.with_node::<Host, _>(b, |h, _| {
                    accepted.extend(h.tcp_accepted());
                    accepted.retain(|&c| {
                        let closed = h.tcp(c).is_closed();
                        if closed {
                            h.tcp_remove(c);
                        }
                        !closed
                    });
                });
                check(&mut sim, &nodes);
            }
            // The client reaps what was reset or timed out.
            if step % 25 == 24 {
                sim.with_node::<Host, _>(a, |h, _| {
                    open.retain(|&c| {
                        let closed = h.tcp(c).is_closed();
                        if closed {
                            h.tcp_remove(c);
                        }
                        !closed
                    });
                });
                check(&mut sim, &nodes);
            }
        }
        // Long enough for retransmissions and TIME-WAIT to run out.
        sim.run_for(Duration::from_secs(300));
        check(&mut sim, &nodes);
        sim.with_node::<Host, _>(a, |h, ctx| {
            for &c in &open {
                h.tcp_mut(c).abort();
                h.kick(ctx);
                h.tcp_remove(c);
            }
            for &u in &udp {
                h.udp_close(u);
            }
            h.check_socket_table();
            assert!(h.tcp_table.by_tuple.is_empty());
            assert!(h.port_refs.is_empty());
        });
    }

    #[test]
    fn freed_tcp_slots_are_reused_lowest_first() {
        let (mut sim, a, b) = two_hosts();
        for i in 0..10 {
            assert_eq!(connect(&mut sim, a, SERVER), TcpHandle(i));
        }
        sim.run_for(Duration::from_millis(5));
        sim.with_node::<Host, _>(a, |h, ctx| {
            for slot in [7, 3] {
                h.tcp_mut(TcpHandle(slot)).abort();
                h.kick(ctx);
                h.tcp_remove(TcpHandle(slot));
            }
        });
        assert_eq!(connect(&mut sim, a, SERVER), TcpHandle(3));
        assert_eq!(connect(&mut sim, a, SERVER), TcpHandle(7));
        assert_eq!(connect(&mut sim, a, SERVER), TcpHandle(10));
        sim.run_for(Duration::from_millis(5));
        check(&mut sim, &[a, b]);
    }
}
