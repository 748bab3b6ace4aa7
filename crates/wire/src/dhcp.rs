//! DHCP codec (RFC 2131/2132, the options the testbed uses).
//!
//! In the paper's testbed (Figure 1) DHCP runs twice per device: the test
//! server leases the gateway its "WAN" address (plus DNS server), and the
//! gateway's own DHCP server configures the test client on the "LAN" side.
//! We reproduce both exchanges.

use std::net::Ipv4Addr;

use crate::error::{WireError, WireResult};
use crate::field::{read_u32, write_u32};

/// BOOTP fixed header length before options.
const FIXED_LEN: usize = 236;
/// RFC 2131 magic cookie.
const MAGIC: u32 = 0x6382_5363;

/// DHCP message types (option 53).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DhcpMessageType {
    /// Client broadcast to locate servers.
    Discover,
    /// Server offer of parameters.
    Offer,
    /// Client request of offered parameters.
    Request,
    /// Server acknowledgment committing the lease.
    Ack,
    /// Server refusal.
    Nak,
    /// Client releasing its lease.
    Release,
}

impl DhcpMessageType {
    fn code(self) -> u8 {
        match self {
            DhcpMessageType::Discover => 1,
            DhcpMessageType::Offer => 2,
            DhcpMessageType::Request => 3,
            DhcpMessageType::Ack => 5,
            DhcpMessageType::Nak => 6,
            DhcpMessageType::Release => 7,
        }
    }

    fn from_code(c: u8) -> WireResult<DhcpMessageType> {
        Ok(match c {
            1 => DhcpMessageType::Discover,
            2 => DhcpMessageType::Offer,
            3 => DhcpMessageType::Request,
            5 => DhcpMessageType::Ack,
            6 => DhcpMessageType::Nak,
            7 => DhcpMessageType::Release,
            _ => return Err(WireError::Malformed),
        })
    }
}

/// The most addresses one option-6 body can carry: its length octet allows
/// 255 bytes, and each address takes four.
pub const MAX_DNS_SERVERS: usize = 63;

/// An option-6 DNS server list held inline, so that parsing, cloning and
/// leasing a DHCP message never allocate. Its capacity,
/// [`MAX_DNS_SERVERS`], is everything one option can carry, so parsing
/// stays lossless. Reads as a slice of addresses.
#[derive(Clone, Copy)]
pub struct DnsServers {
    addrs: [Ipv4Addr; MAX_DNS_SERVERS],
    len: u8,
}

impl DnsServers {
    /// An empty list.
    pub const fn new() -> DnsServers {
        DnsServers { addrs: [Ipv4Addr::UNSPECIFIED; MAX_DNS_SERVERS], len: 0 }
    }

    fn push(&mut self, addr: Ipv4Addr) {
        assert!((self.len as usize) < MAX_DNS_SERVERS, "more DNS servers than option 6 carries");
        self.addrs[self.len as usize] = addr;
        self.len += 1;
    }

    /// A list holding `addrs`.
    ///
    /// # Panics
    ///
    /// If `addrs` holds more than [`MAX_DNS_SERVERS`] addresses (so does
    /// collecting that many).
    pub fn from_slice(addrs: &[Ipv4Addr]) -> DnsServers {
        addrs.iter().copied().collect()
    }
}

impl Default for DnsServers {
    fn default() -> DnsServers {
        DnsServers::new()
    }
}

impl std::ops::Deref for DnsServers {
    type Target = [Ipv4Addr];

    fn deref(&self) -> &[Ipv4Addr] {
        &self.addrs[..self.len as usize]
    }
}

impl FromIterator<Ipv4Addr> for DnsServers {
    fn from_iter<I: IntoIterator<Item = Ipv4Addr>>(iter: I) -> DnsServers {
        let mut list = DnsServers::new();
        for addr in iter {
            list.push(addr);
        }
        list
    }
}

impl PartialEq for DnsServers {
    fn eq(&self, other: &DnsServers) -> bool {
        **self == **other
    }
}

impl Eq for DnsServers {}

impl std::fmt::Debug for DnsServers {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_list().entries(self.iter()).finish()
    }
}

/// A parsed DHCP message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DhcpMessage {
    /// Message type (option 53).
    pub message_type: DhcpMessageType,
    /// True for client→server messages (BOOTP op 1), false for replies.
    pub is_request_op: bool,
    /// Transaction id chosen by the client.
    pub xid: u32,
    /// Client's current address (`ciaddr`).
    pub client_addr: Ipv4Addr,
    /// Address the server assigns (`yiaddr`).
    pub your_addr: Ipv4Addr,
    /// Server address (`siaddr`).
    pub server_addr: Ipv4Addr,
    /// Client hardware address (first 6 octets of `chaddr`).
    pub chaddr: [u8; 6],
    /// Option 54: server identifier.
    pub server_id: Option<Ipv4Addr>,
    /// Option 50: requested IP address.
    pub requested_ip: Option<Ipv4Addr>,
    /// Option 51: lease time, seconds.
    pub lease_secs: Option<u32>,
    /// Option 1: subnet mask.
    pub subnet_mask: Option<Ipv4Addr>,
    /// Option 3: default router.
    pub router: Option<Ipv4Addr>,
    /// Option 6: DNS servers.
    pub dns_servers: DnsServers,
}

impl DhcpMessage {
    /// A minimal DISCOVER from a client with hardware address `chaddr`.
    pub fn discover(xid: u32, chaddr: [u8; 6]) -> DhcpMessage {
        DhcpMessage {
            message_type: DhcpMessageType::Discover,
            is_request_op: true,
            xid,
            client_addr: Ipv4Addr::UNSPECIFIED,
            your_addr: Ipv4Addr::UNSPECIFIED,
            server_addr: Ipv4Addr::UNSPECIFIED,
            chaddr,
            server_id: None,
            requested_ip: None,
            lease_secs: None,
            subnet_mask: None,
            router: None,
            dns_servers: DnsServers::new(),
        }
    }

    /// Encodes the message as a UDP payload.
    pub fn emit(&self) -> Vec<u8> {
        let mut buf = Vec::new();
        self.emit_onto(&mut buf);
        buf
    }

    /// Appends the encoded message to `buf` (a reused scratch buffer, say).
    pub fn emit_onto(&self, buf: &mut Vec<u8>) {
        let base = buf.len();
        buf.resize(base + FIXED_LEN, 0);
        let fixed = &mut buf[base..];
        fixed[0] = if self.is_request_op { 1 } else { 2 };
        fixed[1] = 1; // htype: Ethernet
        fixed[2] = 6; // hlen
        write_u32(fixed, 4, self.xid);
        fixed[12..16].copy_from_slice(&self.client_addr.octets());
        fixed[16..20].copy_from_slice(&self.your_addr.octets());
        fixed[20..24].copy_from_slice(&self.server_addr.octets());
        fixed[28..34].copy_from_slice(&self.chaddr);
        buf.extend_from_slice(&MAGIC.to_be_bytes());
        buf.extend_from_slice(&[53, 1, self.message_type.code()]);
        let mut opt_addr = |code: u8, addr: &Ipv4Addr| {
            buf.extend_from_slice(&[code, 4]);
            buf.extend_from_slice(&addr.octets());
        };
        if let Some(a) = &self.subnet_mask {
            opt_addr(1, a);
        }
        if let Some(a) = &self.router {
            opt_addr(3, a);
        }
        if let Some(a) = &self.requested_ip {
            opt_addr(50, a);
        }
        if let Some(a) = &self.server_id {
            opt_addr(54, a);
        }
        if let Some(secs) = self.lease_secs {
            buf.extend_from_slice(&[51, 4]);
            buf.extend_from_slice(&secs.to_be_bytes());
        }
        if !self.dns_servers.is_empty() {
            buf.push(6);
            buf.push((self.dns_servers.len() * 4) as u8);
            for a in self.dns_servers.iter() {
                buf.extend_from_slice(&a.octets());
            }
        }
        buf.push(255); // end
    }

    /// Parses a message from a UDP payload.
    pub fn parse(data: &[u8]) -> WireResult<DhcpMessage> {
        if data.len() < FIXED_LEN + 4 {
            return Err(WireError::Truncated);
        }
        if read_u32(data, FIXED_LEN) != MAGIC {
            return Err(WireError::Malformed);
        }
        let addr_at =
            |off: usize| Ipv4Addr::new(data[off], data[off + 1], data[off + 2], data[off + 3]);
        let mut chaddr = [0u8; 6];
        chaddr.copy_from_slice(&data[28..34]);
        let mut msg = DhcpMessage {
            message_type: DhcpMessageType::Discover, // placeholder until option 53
            is_request_op: data[0] == 1,
            xid: read_u32(data, 4),
            client_addr: addr_at(12),
            your_addr: addr_at(16),
            server_addr: addr_at(20),
            chaddr,
            server_id: None,
            requested_ip: None,
            lease_secs: None,
            subnet_mask: None,
            router: None,
            dns_servers: DnsServers::new(),
        };
        let mut saw_type = false;
        let mut opts = &data[FIXED_LEN + 4..];
        while !opts.is_empty() {
            match opts[0] {
                0 => opts = &opts[1..], // pad
                255 => break,
                code => {
                    if opts.len() < 2 {
                        return Err(WireError::Truncated);
                    }
                    let len = opts[1] as usize;
                    if opts.len() < 2 + len {
                        return Err(WireError::Truncated);
                    }
                    let body = &opts[2..2 + len];
                    let body_addr = || {
                        if body.len() == 4 {
                            Ok(Ipv4Addr::new(body[0], body[1], body[2], body[3]))
                        } else {
                            Err(WireError::Malformed)
                        }
                    };
                    match code {
                        53 => {
                            if len != 1 {
                                return Err(WireError::Malformed);
                            }
                            msg.message_type = DhcpMessageType::from_code(body[0])?;
                            saw_type = true;
                        }
                        1 => msg.subnet_mask = Some(body_addr()?),
                        3 => msg.router = Some(body_addr()?),
                        50 => msg.requested_ip = Some(body_addr()?),
                        54 => msg.server_id = Some(body_addr()?),
                        51 => {
                            if len != 4 {
                                return Err(WireError::Malformed);
                            }
                            msg.lease_secs = Some(read_u32(body, 0));
                        }
                        6 => {
                            if !len.is_multiple_of(4) {
                                return Err(WireError::Malformed);
                            }
                            msg.dns_servers = body
                                .chunks_exact(4)
                                .map(|c| Ipv4Addr::new(c[0], c[1], c[2], c[3]))
                                .collect();
                        }
                        _ => {} // unknown options skipped
                    }
                    opts = &opts[2 + len..];
                }
            }
        }
        if !saw_type {
            return Err(WireError::Malformed);
        }
        Ok(msg)
    }
}

/// DHCP server port.
pub const SERVER_PORT: u16 = 67;
/// DHCP client port.
pub const CLIENT_PORT: u16 = 68;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn discover_roundtrip() {
        let msg = DhcpMessage::discover(0xABCD_1234, [2, 0, 0, 0, 0, 9]);
        assert_eq!(DhcpMessage::parse(&msg.emit()).unwrap(), msg);
    }

    #[test]
    fn offer_with_full_config_roundtrip() {
        let mut msg = DhcpMessage::discover(7, [2, 0, 0, 0, 0, 1]);
        msg.message_type = DhcpMessageType::Offer;
        msg.is_request_op = false;
        msg.your_addr = Ipv4Addr::new(192, 168, 1, 100);
        msg.server_addr = Ipv4Addr::new(192, 168, 1, 1);
        msg.server_id = Some(Ipv4Addr::new(192, 168, 1, 1));
        msg.lease_secs = Some(86_400);
        msg.subnet_mask = Some(Ipv4Addr::new(255, 255, 255, 0));
        msg.router = Some(Ipv4Addr::new(192, 168, 1, 1));
        msg.dns_servers =
            DnsServers::from_slice(&[Ipv4Addr::new(192, 168, 1, 1), Ipv4Addr::new(10, 0, 0, 53)]);
        assert_eq!(DhcpMessage::parse(&msg.emit()).unwrap(), msg);
    }

    #[test]
    fn request_carries_requested_ip_and_server_id() {
        let mut msg = DhcpMessage::discover(9, [2, 0, 0, 0, 0, 2]);
        msg.message_type = DhcpMessageType::Request;
        msg.requested_ip = Some(Ipv4Addr::new(10, 0, 3, 7));
        msg.server_id = Some(Ipv4Addr::new(10, 0, 3, 1));
        let parsed = DhcpMessage::parse(&msg.emit()).unwrap();
        assert_eq!(parsed.requested_ip, Some(Ipv4Addr::new(10, 0, 3, 7)));
        assert_eq!(parsed.server_id, Some(Ipv4Addr::new(10, 0, 3, 1)));
    }

    #[test]
    fn rejects_missing_magic_or_type() {
        let msg = DhcpMessage::discover(1, [0; 6]);
        let mut buf = msg.emit();
        buf[FIXED_LEN] ^= 0xFF;
        assert_eq!(DhcpMessage::parse(&buf), Err(WireError::Malformed));

        let mut no_type = msg.emit();
        // Overwrite option 53 with pad bytes.
        no_type[FIXED_LEN + 4] = 0;
        no_type[FIXED_LEN + 5] = 0;
        no_type[FIXED_LEN + 6] = 0;
        assert_eq!(DhcpMessage::parse(&no_type), Err(WireError::Malformed));
    }

    #[test]
    fn rejects_truncated() {
        assert_eq!(DhcpMessage::parse(&[0u8; 100]), Err(WireError::Truncated));
    }

    #[test]
    fn all_message_types_roundtrip() {
        for ty in [
            DhcpMessageType::Discover,
            DhcpMessageType::Offer,
            DhcpMessageType::Request,
            DhcpMessageType::Ack,
            DhcpMessageType::Nak,
            DhcpMessageType::Release,
        ] {
            let mut msg = DhcpMessage::discover(3, [1; 6]);
            msg.message_type = ty;
            assert_eq!(DhcpMessage::parse(&msg.emit()).unwrap().message_type, ty);
        }
    }
}
