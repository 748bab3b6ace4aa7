//! DHCP server and client state machines.
//!
//! Figure 1 of the paper: the test server leases each gateway its WAN
//! address from a per-VLAN private block, and each gateway's built-in DHCP
//! server configures the test client's VLAN interface. Both sides are
//! implemented here and reused by hosts and gateways.

use std::collections::HashMap;
use std::net::Ipv4Addr;

use hgw_core::{Duration, Instant};
pub use hgw_wire::dhcp::DnsServers;
use hgw_wire::dhcp::{DhcpMessage, DhcpMessageType};

/// Configuration of a DHCP server instance.
#[derive(Debug, Clone)]
pub struct DhcpServerConfig {
    /// The server's own address (also offered as router unless overridden).
    pub server_addr: Ipv4Addr,
    /// First address of the lease pool.
    pub pool_start: Ipv4Addr,
    /// Number of addresses in the pool.
    pub pool_size: u32,
    /// Subnet mask to hand out.
    pub subnet_mask: Ipv4Addr,
    /// Router option; defaults to `server_addr` when `None`.
    pub router: Option<Ipv4Addr>,
    /// DNS servers to hand out.
    pub dns_servers: DnsServers,
    /// Lease duration in seconds.
    pub lease_secs: u32,
}

/// A DHCP server: answers DISCOVER with OFFER and REQUEST with ACK.
#[derive(Debug)]
pub struct DhcpServer {
    /// Server configuration.
    pub config: DhcpServerConfig,
    leases: HashMap<[u8; 6], Ipv4Addr>,
    next_index: u32,
}

impl DhcpServer {
    /// Creates a server.
    pub fn new(config: DhcpServerConfig) -> DhcpServer {
        DhcpServer { config, leases: HashMap::new(), next_index: 0 }
    }

    /// Currently held leases.
    pub fn leases(&self) -> &HashMap<[u8; 6], Ipv4Addr> {
        &self.leases
    }

    fn allocate(&mut self, chaddr: [u8; 6]) -> Option<Ipv4Addr> {
        if let Some(addr) = self.leases.get(&chaddr) {
            return Some(*addr);
        }
        if self.next_index >= self.config.pool_size {
            return None;
        }
        let base = u32::from(self.config.pool_start);
        let addr = Ipv4Addr::from(base + self.next_index);
        self.next_index += 1;
        self.leases.insert(chaddr, addr);
        Some(addr)
    }

    /// Processes a client message, returning the reply (if any).
    pub fn process(&mut self, msg: &DhcpMessage) -> Option<DhcpMessage> {
        if !msg.is_request_op {
            return None;
        }
        let reply_type = match msg.message_type {
            DhcpMessageType::Discover => DhcpMessageType::Offer,
            DhcpMessageType::Request => {
                // Only answer requests addressed to us (or with no server id).
                if let Some(sid) = msg.server_id {
                    if sid != self.config.server_addr {
                        return None;
                    }
                }
                DhcpMessageType::Ack
            }
            DhcpMessageType::Release => {
                self.leases.remove(&msg.chaddr);
                return None;
            }
            _ => return None,
        };
        let addr = match self.allocate(msg.chaddr) {
            Some(a) => a,
            None => {
                let mut nak = DhcpMessage::discover(msg.xid, msg.chaddr);
                nak.message_type = DhcpMessageType::Nak;
                nak.is_request_op = false;
                nak.server_id = Some(self.config.server_addr);
                return Some(nak);
            }
        };
        Some(DhcpMessage {
            message_type: reply_type,
            is_request_op: false,
            your_addr: addr,
            server_addr: self.config.server_addr,
            server_id: Some(self.config.server_addr),
            lease_secs: Some(self.config.lease_secs),
            subnet_mask: Some(self.config.subnet_mask),
            router: Some(self.config.router.unwrap_or(self.config.server_addr)),
            dns_servers: self.config.dns_servers,
            ..DhcpMessage::discover(msg.xid, msg.chaddr)
        })
    }
}

/// DHCP client states.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DhcpClientState {
    /// Sending DISCOVER.
    Selecting,
    /// Sending REQUEST for an offer.
    Requesting,
    /// Lease acquired.
    Bound,
}

/// The lease a client obtained.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DhcpLease {
    /// Our address.
    pub addr: Ipv4Addr,
    /// Subnet mask.
    pub subnet_mask: Ipv4Addr,
    /// Default router, if offered.
    pub router: Option<Ipv4Addr>,
    /// DNS servers offered.
    pub dns_servers: DnsServers,
    /// Lease duration.
    pub lease_secs: u32,
    /// The server that granted the lease.
    pub server: Ipv4Addr,
}

/// A DHCP client state machine.
#[derive(Debug)]
pub struct DhcpClient {
    /// Our hardware address.
    pub chaddr: [u8; 6],
    xid: u32,
    state: DhcpClientState,
    /// The address and server id of the offer being requested: all a
    /// REQUEST (and its retransmissions) repeats of it.
    offer: Option<(Ipv4Addr, Option<Ipv4Addr>)>,
    /// The acquired lease once bound.
    pub lease: Option<DhcpLease>,
    rtx_deadline: Option<Instant>,
    outbox: Vec<DhcpMessage>,
    auto_renew: bool,
    /// Lease renewals completed (ACKs received while already bound).
    pub renewals: u64,
}

const RTX_INTERVAL: Duration = Duration::from_secs(3);

impl DhcpClient {
    /// Creates a client; call [`DhcpClient::start`] to begin.
    pub fn new(chaddr: [u8; 6], xid: u32) -> DhcpClient {
        DhcpClient {
            chaddr,
            xid,
            state: DhcpClientState::Selecting,
            offer: None,
            lease: None,
            rtx_deadline: None,
            outbox: Vec::new(),
            auto_renew: false,
            renewals: 0,
        }
    }

    /// Current state.
    pub fn state(&self) -> DhcpClientState {
        self.state
    }

    /// Enables lease renewal: once bound, the client re-REQUESTs its
    /// address at T1 (half the lease), per RFC 2131 §4.4.5. Off by default
    /// so the seed testbed's event sequence is untouched (its probes never
    /// run a lease-length of virtual time, but household runs may).
    pub fn set_auto_renew(&mut self, on: bool) {
        self.auto_renew = on;
    }

    /// Begins address acquisition.
    pub fn start(&mut self, now: Instant) {
        self.outbox.push(DhcpMessage::discover(self.xid, self.chaddr));
        self.rtx_deadline = Some(now + RTX_INTERVAL);
    }

    /// Next deadline, if any.
    pub fn poll_at(&self) -> Option<Instant> {
        self.rtx_deadline
    }

    /// Handles timer expiry: retransmit the current message.
    pub fn on_timer(&mut self, now: Instant) {
        let Some(t) = self.rtx_deadline else { return };
        if now < t {
            return;
        }
        match self.state {
            DhcpClientState::Selecting => {
                self.outbox.push(DhcpMessage::discover(self.xid, self.chaddr));
                self.rtx_deadline = Some(now + RTX_INTERVAL);
            }
            DhcpClientState::Requesting => {
                if let Some((addr, server_id)) = self.offer {
                    self.push_request(addr, server_id);
                }
                self.rtx_deadline = Some(now + RTX_INTERVAL);
            }
            DhcpClientState::Bound => {
                if self.auto_renew && self.lease.is_some() {
                    // T1 renewal: re-REQUEST our own address from the
                    // granting server; retry on the DORA cadence until the
                    // ACK pushes the deadline out to the next half-lease.
                    self.push_renewal();
                    self.rtx_deadline = Some(now + RTX_INTERVAL);
                } else {
                    self.rtx_deadline = None;
                }
            }
        }
    }

    fn push_renewal(&mut self) {
        let Some(lease) = &self.lease else { return };
        let mut req = DhcpMessage::discover(self.xid, self.chaddr);
        req.message_type = DhcpMessageType::Request;
        req.requested_ip = Some(lease.addr);
        req.server_id = Some(lease.server);
        self.outbox.push(req);
    }

    /// The renewal deadline the client will act on in the Bound state, if
    /// auto-renew is enabled (half the lease, measured from the ACK).
    fn renew_deadline(&self, now: Instant) -> Option<Instant> {
        if !self.auto_renew {
            return None;
        }
        let lease = self.lease.as_ref()?;
        Some(now + Duration::from_secs(u64::from(lease.lease_secs) / 2))
    }

    fn push_request(&mut self, addr: Ipv4Addr, server_id: Option<Ipv4Addr>) {
        let mut req = DhcpMessage::discover(self.xid, self.chaddr);
        req.message_type = DhcpMessageType::Request;
        req.requested_ip = Some(addr);
        req.server_id = server_id;
        self.outbox.push(req);
    }

    /// Processes a server message.
    pub fn process(&mut self, now: Instant, msg: &DhcpMessage) {
        if msg.is_request_op || msg.xid != self.xid || msg.chaddr != self.chaddr {
            return;
        }
        match (self.state, msg.message_type) {
            (DhcpClientState::Selecting, DhcpMessageType::Offer) => {
                self.offer = Some((msg.your_addr, msg.server_id));
                self.state = DhcpClientState::Requesting;
                self.push_request(msg.your_addr, msg.server_id);
                self.rtx_deadline = Some(now + RTX_INTERVAL);
            }
            (DhcpClientState::Requesting, DhcpMessageType::Ack) => {
                self.lease = Some(DhcpLease {
                    addr: msg.your_addr,
                    subnet_mask: msg.subnet_mask.unwrap_or(Ipv4Addr::new(255, 255, 255, 0)),
                    router: msg.router,
                    dns_servers: msg.dns_servers,
                    lease_secs: msg.lease_secs.unwrap_or(3600),
                    server: msg.server_id.unwrap_or(msg.server_addr),
                });
                self.state = DhcpClientState::Bound;
                self.rtx_deadline = self.renew_deadline(now);
            }
            (DhcpClientState::Bound, DhcpMessageType::Ack) => {
                if let Some(lease) = &mut self.lease {
                    // Renewal ACK: same address (the server allocates by
                    // chaddr), refreshed clock.
                    lease.lease_secs = msg.lease_secs.unwrap_or(lease.lease_secs);
                    self.renewals += 1;
                    self.rtx_deadline = self.renew_deadline(now);
                }
            }
            (_, DhcpMessageType::Nak) => {
                self.state = DhcpClientState::Selecting;
                self.offer = None;
                self.outbox.push(DhcpMessage::discover(self.xid, self.chaddr));
                self.rtx_deadline = Some(now + RTX_INTERVAL);
            }
            _ => {}
        }
    }

    /// Drains messages ready for transmission (sent to 255.255.255.255
    /// until bound), keeping the outbox's allocation.
    pub fn dispatch(&mut self) -> std::vec::Drain<'_, DhcpMessage> {
        self.outbox.drain(..)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn server() -> DhcpServer {
        DhcpServer::new(DhcpServerConfig {
            server_addr: Ipv4Addr::new(10, 0, 1, 1),
            pool_start: Ipv4Addr::new(10, 0, 1, 100),
            pool_size: 3,
            subnet_mask: Ipv4Addr::new(255, 255, 255, 0),
            router: None,
            dns_servers: DnsServers::from_slice(&[Ipv4Addr::new(10, 0, 1, 1)]),
            lease_secs: 86_400,
        })
    }

    #[test]
    fn full_dora_exchange() {
        let now = Instant::ZERO;
        let mut srv = server();
        let mut cli = DhcpClient::new([2, 0, 0, 0, 0, 1], 0x1234);
        cli.start(now);
        for _ in 0..4 {
            let msgs: Vec<_> = cli.dispatch().collect();
            if msgs.is_empty() {
                break;
            }
            for m in msgs {
                if let Some(reply) = srv.process(&m) {
                    cli.process(now, &reply);
                }
            }
        }
        assert_eq!(cli.state(), DhcpClientState::Bound);
        let lease = cli.lease.as_ref().unwrap();
        assert_eq!(lease.addr, Ipv4Addr::new(10, 0, 1, 100));
        assert_eq!(lease.router, Some(Ipv4Addr::new(10, 0, 1, 1)));
        assert_eq!(*lease.dns_servers, [Ipv4Addr::new(10, 0, 1, 1)]);
    }

    #[test]
    fn same_client_gets_same_address() {
        let mut srv = server();
        let d = DhcpMessage::discover(1, [9; 6]);
        let offer1 = srv.process(&d).unwrap();
        let offer2 = srv.process(&d).unwrap();
        assert_eq!(offer1.your_addr, offer2.your_addr);
    }

    #[test]
    fn pool_exhaustion_naks() {
        let mut srv = server();
        for i in 0..3u8 {
            let d = DhcpMessage::discover(1, [i; 6]);
            assert_eq!(srv.process(&d).unwrap().message_type, DhcpMessageType::Offer);
        }
        let d = DhcpMessage::discover(1, [99; 6]);
        assert_eq!(srv.process(&d).unwrap().message_type, DhcpMessageType::Nak);
    }

    #[test]
    fn request_to_other_server_ignored() {
        let mut srv = server();
        let mut req = DhcpMessage::discover(1, [1; 6]);
        req.message_type = DhcpMessageType::Request;
        req.server_id = Some(Ipv4Addr::new(10, 9, 9, 9));
        assert!(srv.process(&req).is_none());
    }

    #[test]
    fn discover_retransmits_until_answered() {
        let mut cli = DhcpClient::new([1; 6], 7);
        let mut now = Instant::ZERO;
        cli.start(now);
        assert_eq!(cli.dispatch().len(), 1);
        now = cli.poll_at().unwrap();
        cli.on_timer(now);
        assert_eq!(cli.dispatch().len(), 1, "DISCOVER should be retransmitted");
        assert_eq!(cli.state(), DhcpClientState::Selecting);
    }

    #[test]
    fn auto_renew_rerequests_at_half_lease() {
        let mut srv = server();
        let mut cli = DhcpClient::new([2, 0, 0, 0, 0, 1], 0x99);
        cli.set_auto_renew(true);
        let mut now = Instant::ZERO;
        cli.start(now);
        for _ in 0..4 {
            for m in cli.dispatch().collect::<Vec<_>>() {
                if let Some(reply) = srv.process(&m) {
                    cli.process(now, &reply);
                }
            }
        }
        assert_eq!(cli.state(), DhcpClientState::Bound);
        let addr = cli.lease.as_ref().unwrap().addr;
        // T1 = lease/2 from the ACK.
        let t1 = cli.poll_at().expect("renewal timer armed");
        assert_eq!(t1, Instant::ZERO + Duration::from_secs(86_400 / 2));
        // Fire T1: a unicast-style REQUEST for our own address goes out.
        now = t1;
        cli.on_timer(now);
        let msgs: Vec<_> = cli.dispatch().collect();
        assert_eq!(msgs.len(), 1);
        assert_eq!(msgs[0].message_type, DhcpMessageType::Request);
        assert_eq!(msgs[0].requested_ip, Some(addr));
        // The server ACKs the same address; the next T1 is re-armed.
        let ack = srv.process(&msgs[0]).unwrap();
        cli.process(now, &ack);
        assert_eq!(cli.renewals, 1);
        assert_eq!(cli.lease.as_ref().unwrap().addr, addr);
        assert_eq!(cli.poll_at(), Some(now + Duration::from_secs(86_400 / 2)));
    }

    #[test]
    fn without_auto_renew_bound_disarms_timers() {
        let mut srv = server();
        let mut cli = DhcpClient::new([2, 0, 0, 0, 0, 2], 0x77);
        let now = Instant::ZERO;
        cli.start(now);
        for _ in 0..4 {
            for m in cli.dispatch().collect::<Vec<_>>() {
                if let Some(reply) = srv.process(&m) {
                    cli.process(now, &reply);
                }
            }
        }
        assert_eq!(cli.state(), DhcpClientState::Bound);
        assert_eq!(cli.poll_at(), None, "seed behavior: no timers once bound");
    }

    #[test]
    fn release_frees_nothing_but_removes_lease() {
        let mut srv = server();
        let d = DhcpMessage::discover(1, [5; 6]);
        srv.process(&d).unwrap();
        assert_eq!(srv.leases().len(), 1);
        let mut rel = DhcpMessage::discover(1, [5; 6]);
        rel.message_type = DhcpMessageType::Release;
        assert!(srv.process(&rel).is_none());
        assert!(srv.leases().is_empty());
    }
}
