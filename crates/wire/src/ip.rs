//! IPv4 header codec, smoltcp-style: a checked [`Ipv4Packet`] view over a
//! byte buffer plus a parsed, owned [`Ipv4Repr`].
//!
//! Supports header options (the paper probes "Record Route" handling and
//! notes that IP options cause failures in many middleboxes), TTL
//! manipulation (some gateways fail to decrement it), and full checksum
//! generation/verification.

use std::net::Ipv4Addr;

use crate::checksum::{
    checksum_adjust, fold, internet_checksum, sum, sum_header_words, ChecksumDelta,
};
use crate::error::{WireError, WireResult};
use crate::field::{read_u16, write_header_words, write_u16};

/// An IP protocol number.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Protocol {
    /// ICMP (1).
    Icmp,
    /// TCP (6).
    Tcp,
    /// UDP (17).
    Udp,
    /// DCCP (33).
    Dccp,
    /// SCTP (132).
    Sctp,
    /// Anything else.
    Unknown(u8),
}

impl Protocol {
    /// The wire value.
    pub fn number(self) -> u8 {
        match self {
            Protocol::Icmp => 1,
            Protocol::Tcp => 6,
            Protocol::Udp => 17,
            Protocol::Dccp => 33,
            Protocol::Sctp => 132,
            Protocol::Unknown(n) => n,
        }
    }
}

impl From<u8> for Protocol {
    fn from(n: u8) -> Protocol {
        match n {
            1 => Protocol::Icmp,
            6 => Protocol::Tcp,
            17 => Protocol::Udp,
            33 => Protocol::Dccp,
            132 => Protocol::Sctp,
            other => Protocol::Unknown(other),
        }
    }
}

impl core::fmt::Display for Protocol {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            Protocol::Icmp => write!(f, "ICMP"),
            Protocol::Tcp => write!(f, "TCP"),
            Protocol::Udp => write!(f, "UDP"),
            Protocol::Dccp => write!(f, "DCCP"),
            Protocol::Sctp => write!(f, "SCTP"),
            Protocol::Unknown(n) => write!(f, "proto-{n}"),
        }
    }
}

/// One parsed IPv4 option.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Ipv4Option {
    /// End of option list (type 0); terminates parsing.
    EndOfList,
    /// No-operation padding (type 1).
    NoOp,
    /// Record Route (type 7): pointer and room for recorded addresses.
    RecordRoute {
        /// 1-based octet pointer to the next free slot.
        pointer: u8,
        /// Recorded route data (the option body after the pointer).
        data: Vec<u8>,
    },
    /// Any other option, kept as raw (type, data).
    Other {
        /// Option type octet.
        kind: u8,
        /// Option body (without type/length octets).
        data: Vec<u8>,
    },
}

impl Ipv4Option {
    /// Encoded length in octets.
    pub fn wire_len(&self) -> usize {
        match self {
            Ipv4Option::EndOfList | Ipv4Option::NoOp => 1,
            Ipv4Option::RecordRoute { data, .. } => 3 + data.len(),
            Ipv4Option::Other { data, .. } => 2 + data.len(),
        }
    }
}

/// Record Route option type.
pub const OPT_RECORD_ROUTE: u8 = 7;

mod field {
    pub const VER_IHL: usize = 0;
    pub const TOS: usize = 1;
    pub const LENGTH: usize = 2;
    pub const IDENT: usize = 4;
    pub const FLAGS_FRAG: usize = 6;
    pub const TTL: usize = 8;
    pub const PROTOCOL: usize = 9;
    pub const CHECKSUM: usize = 10;
    pub const SRC_ADDR: usize = 12;
    pub const DST_ADDR: usize = 16;
    pub const OPTIONS: usize = 20;
}

/// A read/write view of an IPv4 packet in a byte buffer.
#[derive(Debug, Clone)]
pub struct Ipv4Packet<T: AsRef<[u8]>> {
    buffer: T,
}

impl<T: AsRef<[u8]>> Ipv4Packet<T> {
    /// Wraps a buffer without validation.
    pub fn new_unchecked(buffer: T) -> Ipv4Packet<T> {
        Ipv4Packet { buffer }
    }

    /// Wraps a buffer, validating version, header length and total length.
    pub fn new_checked(buffer: T) -> WireResult<Ipv4Packet<T>> {
        let packet = Ipv4Packet::new_unchecked(buffer);
        packet.check_len()?;
        Ok(packet)
    }

    fn check_len(&self) -> WireResult<()> {
        let buf = self.buffer.as_ref();
        if buf.len() < field::OPTIONS {
            return Err(WireError::Truncated);
        }
        if self.version() != 4 {
            return Err(WireError::Malformed);
        }
        let hl = self.header_len();
        if hl < field::OPTIONS || buf.len() < hl {
            return Err(WireError::Malformed);
        }
        let total = self.total_len();
        if total < hl || buf.len() < total {
            return Err(WireError::Truncated);
        }
        Ok(())
    }

    /// Releases the underlying buffer.
    pub fn into_inner(self) -> T {
        self.buffer
    }

    /// IP version field.
    pub fn version(&self) -> u8 {
        self.buffer.as_ref()[field::VER_IHL] >> 4
    }

    /// Header length in octets (IHL × 4).
    pub fn header_len(&self) -> usize {
        ((self.buffer.as_ref()[field::VER_IHL] & 0x0F) as usize) * 4
    }

    /// Type-of-service octet.
    pub fn tos(&self) -> u8 {
        self.buffer.as_ref()[field::TOS]
    }

    /// Total packet length in octets.
    pub fn total_len(&self) -> usize {
        read_u16(self.buffer.as_ref(), field::LENGTH) as usize
    }

    /// Identification field.
    pub fn ident(&self) -> u16 {
        read_u16(self.buffer.as_ref(), field::IDENT)
    }

    /// Don't Fragment flag.
    pub fn dont_frag(&self) -> bool {
        self.buffer.as_ref()[field::FLAGS_FRAG] & 0x40 != 0
    }

    /// More Fragments flag.
    pub fn more_frags(&self) -> bool {
        self.buffer.as_ref()[field::FLAGS_FRAG] & 0x20 != 0
    }

    /// Fragment offset in octets.
    pub fn frag_offset(&self) -> usize {
        ((read_u16(self.buffer.as_ref(), field::FLAGS_FRAG) & 0x1FFF) as usize) * 8
    }

    /// Time-to-live.
    pub fn ttl(&self) -> u8 {
        self.buffer.as_ref()[field::TTL]
    }

    /// Payload protocol.
    pub fn protocol(&self) -> Protocol {
        Protocol::from(self.buffer.as_ref()[field::PROTOCOL])
    }

    /// Header checksum field.
    pub fn checksum(&self) -> u16 {
        read_u16(self.buffer.as_ref(), field::CHECKSUM)
    }

    /// Source address.
    pub fn src_addr(&self) -> Ipv4Addr {
        let b = &self.buffer.as_ref()[field::SRC_ADDR..field::SRC_ADDR + 4];
        Ipv4Addr::new(b[0], b[1], b[2], b[3])
    }

    /// Destination address.
    pub fn dst_addr(&self) -> Ipv4Addr {
        let b = &self.buffer.as_ref()[field::DST_ADDR..field::DST_ADDR + 4];
        Ipv4Addr::new(b[0], b[1], b[2], b[3])
    }

    /// Verifies the header checksum.
    pub fn verify_checksum(&self) -> bool {
        let hl = self.header_len();
        internet_checksum(&self.buffer.as_ref()[..hl]) == 0
    }

    /// The raw options bytes (between the fixed header and the payload).
    pub fn options_bytes(&self) -> &[u8] {
        &self.buffer.as_ref()[field::OPTIONS..self.header_len()]
    }

    /// Parses the options list. Stops at End-of-List.
    pub fn options(&self) -> WireResult<Vec<Ipv4Option>> {
        parse_options(self.options_bytes())
    }

    /// The payload after the IP header, bounded by `total_len`.
    pub fn payload(&self) -> &[u8] {
        &self.buffer.as_ref()[self.header_len()..self.total_len()]
    }
}

impl<T: AsRef<[u8]> + AsMut<[u8]>> Ipv4Packet<T> {
    /// Sets the TTL (does not touch the checksum; call
    /// [`Ipv4Packet::fill_checksum`] after all mutations).
    pub fn set_ttl(&mut self, ttl: u8) {
        self.buffer.as_mut()[field::TTL] = ttl;
    }

    /// Sets the source address.
    pub fn set_src_addr(&mut self, addr: Ipv4Addr) {
        self.buffer.as_mut()[field::SRC_ADDR..field::SRC_ADDR + 4].copy_from_slice(&addr.octets());
    }

    /// Sets the destination address.
    pub fn set_dst_addr(&mut self, addr: Ipv4Addr) {
        self.buffer.as_mut()[field::DST_ADDR..field::DST_ADDR + 4].copy_from_slice(&addr.octets());
    }

    /// Sets the identification field.
    pub fn set_ident(&mut self, ident: u16) {
        write_u16(self.buffer.as_mut(), field::IDENT, ident);
    }

    /// Sets the TTL and incrementally patches the header checksum per
    /// RFC 1624, without re-summing the header.
    pub fn set_ttl_adjusted(&mut self, ttl: u8) {
        let buf = self.buffer.as_mut();
        // The TTL shares a 16-bit word with the protocol octet.
        let old = read_u16(buf, field::TTL);
        buf[field::TTL] = ttl;
        let new = read_u16(buf, field::TTL);
        let ck = checksum_adjust(read_u16(buf, field::CHECKSUM), old, new);
        write_u16(buf, field::CHECKSUM, ck);
    }

    /// Sets the source address and incrementally patches the header
    /// checksum. Returns the address delta so the caller can apply the same
    /// change to a transport checksum whose pseudo-header covers it.
    pub fn set_src_addr_adjusted(&mut self, addr: Ipv4Addr) -> ChecksumDelta {
        let old = self.src_addr();
        self.set_src_addr(addr);
        self.adjust_for_addr_change(old, addr)
    }

    /// Sets the destination address and incrementally patches the header
    /// checksum. Returns the address delta for the transport checksum.
    pub fn set_dst_addr_adjusted(&mut self, addr: Ipv4Addr) -> ChecksumDelta {
        let old = self.dst_addr();
        self.set_dst_addr(addr);
        self.adjust_for_addr_change(old, addr)
    }

    fn adjust_for_addr_change(&mut self, old: Ipv4Addr, new: Ipv4Addr) -> ChecksumDelta {
        let mut delta = ChecksumDelta::new();
        delta.update_addr(old, new);
        let buf = self.buffer.as_mut();
        let ck = delta.apply(read_u16(buf, field::CHECKSUM));
        write_u16(buf, field::CHECKSUM, ck);
        delta
    }

    /// Recomputes and stores the header checksum.
    pub fn fill_checksum(&mut self) {
        let hl = self.header_len();
        write_u16(self.buffer.as_mut(), field::CHECKSUM, 0);
        let ck = internet_checksum(&self.buffer.as_ref()[..hl]);
        write_u16(self.buffer.as_mut(), field::CHECKSUM, ck);
    }

    /// Mutable access to the payload.
    pub fn payload_mut(&mut self) -> &mut [u8] {
        let range = self.header_len()..self.total_len();
        &mut self.buffer.as_mut()[range]
    }
}

fn parse_options(mut bytes: &[u8]) -> WireResult<Vec<Ipv4Option>> {
    let mut options = Vec::new();
    while !bytes.is_empty() {
        match bytes[0] {
            // End-of-list / padding zeros terminate parsing and are not
            // surfaced: they are an encoding artifact, not an option.
            0 => break,
            1 => {
                options.push(Ipv4Option::NoOp);
                bytes = &bytes[1..];
            }
            kind => {
                if bytes.len() < 2 {
                    return Err(WireError::Truncated);
                }
                let len = bytes[1] as usize;
                if len < 2 || bytes.len() < len {
                    return Err(WireError::Malformed);
                }
                if kind == OPT_RECORD_ROUTE {
                    if len < 3 {
                        return Err(WireError::Malformed);
                    }
                    options.push(Ipv4Option::RecordRoute {
                        pointer: bytes[2],
                        data: bytes[3..len].to_vec(),
                    });
                } else {
                    options.push(Ipv4Option::Other { kind, data: bytes[2..len].to_vec() });
                }
                bytes = &bytes[len..];
            }
        }
    }
    Ok(options)
}

fn emit_options(options: &[Ipv4Option], out: &mut Vec<u8>) {
    for opt in options {
        match opt {
            Ipv4Option::EndOfList => out.push(0),
            Ipv4Option::NoOp => out.push(1),
            Ipv4Option::RecordRoute { pointer, data } => {
                out.push(OPT_RECORD_ROUTE);
                out.push((3 + data.len()) as u8);
                out.push(*pointer);
                out.extend_from_slice(data);
            }
            Ipv4Option::Other { kind, data } => {
                out.push(*kind);
                out.push((2 + data.len()) as u8);
                out.extend_from_slice(data);
            }
        }
    }
    // Pad the options area to a 4-octet boundary with EOL/zero.
    while !out.len().is_multiple_of(4) {
        out.push(0);
    }
}

/// A parsed, owned IPv4 header.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Ipv4Repr {
    /// Source address.
    pub src_addr: Ipv4Addr,
    /// Destination address.
    pub dst_addr: Ipv4Addr,
    /// Payload protocol.
    pub protocol: Protocol,
    /// Time-to-live.
    pub ttl: u8,
    /// Identification (used by some probes to correlate packets).
    pub ident: u16,
    /// Don't Fragment flag.
    pub dont_frag: bool,
    /// Header options.
    pub options: Vec<Ipv4Option>,
}

impl Ipv4Repr {
    /// A plain header with no options and the Linux default TTL of 64.
    pub fn new(src_addr: Ipv4Addr, dst_addr: Ipv4Addr, protocol: Protocol) -> Ipv4Repr {
        Ipv4Repr {
            src_addr,
            dst_addr,
            protocol,
            ttl: 64,
            ident: 0,
            dont_frag: true,
            options: Vec::new(),
        }
    }

    /// Parses and validates a packet view (checksum included).
    pub fn parse<T: AsRef<[u8]>>(packet: &Ipv4Packet<T>) -> WireResult<Ipv4Repr> {
        if !packet.verify_checksum() {
            return Err(WireError::Checksum);
        }
        Ok(Ipv4Repr {
            src_addr: packet.src_addr(),
            dst_addr: packet.dst_addr(),
            protocol: packet.protocol(),
            ttl: packet.ttl(),
            ident: packet.ident(),
            dont_frag: packet.dont_frag(),
            options: packet.options()?,
        })
    }

    /// Header length (fixed part plus padded options).
    pub fn header_len(&self) -> usize {
        let opt_len: usize = self.options.iter().map(Ipv4Option::wire_len).sum();
        20 + opt_len.div_ceil(4) * 4
    }

    /// Builds the complete packet (header + `payload`) as a fresh buffer,
    /// with a valid checksum.
    pub fn emit_with_payload(&self, payload: &[u8]) -> Vec<u8> {
        self.emit_with_payload_into(payload, Vec::new())
    }

    /// Like [`Ipv4Repr::emit_with_payload`], but reuses `buf` as the output
    /// buffer (any previous contents are discarded). Lets hot paths build
    /// packets in recycled frame-pool buffers instead of fresh allocations.
    pub fn emit_with_payload_into(&self, payload: &[u8], mut buf: Vec<u8>) -> Vec<u8> {
        buf.clear();
        self.emit_header_into(payload.len(), &mut buf);
        buf.extend_from_slice(payload);
        buf
    }

    /// Appends just the IPv4 header (with a valid header checksum) onto
    /// `buf`, declaring a total length of `header + payload_len`. The caller
    /// appends the payload afterwards — transports with an appending emit
    /// path (see `TcpRepr::emit_with_payload_onto`) use this to build a
    /// complete packet in one buffer with a single payload copy.
    pub fn emit_header_into(&self, payload_len: usize, buf: &mut Vec<u8>) {
        let hl = self.header_len();
        let base = buf.len();
        buf.resize(base + hl, 0);
        self.write_header(payload_len, &mut buf[base..base + hl]);
    }

    /// Writes the IPv4 header (with a valid header checksum) into an `hdr`
    /// slice of at least [`Ipv4Repr::header_len`] bytes, declaring a total
    /// length of `header + payload_len`. This is the in-place half of
    /// [`Ipv4Repr::emit_header_into`]: transports that build segments with
    /// packet headroom (see `hgw_stack::tcp::SEGMENT_HEADROOM`) fill the
    /// reserved prefix with this instead of appending, so the payload is
    /// never copied again.
    ///
    /// The fixed 20 bytes are built as five words, summed from those words
    /// and stored whole; only option bytes are summed from memory.
    pub fn write_header(&self, payload_len: usize, hdr: &mut [u8]) {
        let hl = self.header_len();
        let total = hl + payload_len;
        assert!(total <= u16::MAX as usize, "IPv4 packet too large");
        let mut options_sum = 0;
        if !self.options.is_empty() {
            let mut opts = Vec::new();
            emit_options(&self.options, &mut opts);
            hdr[field::OPTIONS..field::OPTIONS + opts.len()].copy_from_slice(&opts);
            options_sum = sum(&opts, 0);
        }
        let flags = if self.dont_frag { 0x4000 } else { 0 };
        let mut words = [
            (0x40 | (hl / 4) as u32) << 24 | total as u32,
            (self.ident as u32) << 16 | flags,
            (self.ttl as u32) << 24 | (self.protocol.number() as u32) << 16,
            u32::from(self.src_addr),
            u32::from(self.dst_addr),
        ];
        words[2] |= !fold(sum_header_words(&words) + options_sum) as u32;
        write_header_words(hdr, words);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_repr() -> Ipv4Repr {
        Ipv4Repr {
            src_addr: Ipv4Addr::new(192, 168, 1, 2),
            dst_addr: Ipv4Addr::new(10, 0, 1, 1),
            protocol: Protocol::Udp,
            ttl: 64,
            ident: 0x1234,
            dont_frag: true,
            options: Vec::new(),
        }
    }

    #[test]
    fn emit_parse_roundtrip() {
        let repr = sample_repr();
        let buf = repr.emit_with_payload(&[0xAA; 16]);
        let packet = Ipv4Packet::new_checked(&buf[..]).unwrap();
        assert!(packet.verify_checksum());
        assert_eq!(packet.payload(), &[0xAA; 16]);
        let parsed = Ipv4Repr::parse(&packet).unwrap();
        assert_eq!(parsed, repr);
    }

    #[test]
    fn roundtrip_with_record_route() {
        let mut repr = sample_repr();
        repr.options.push(Ipv4Option::RecordRoute { pointer: 4, data: vec![0u8; 12] });
        let buf = repr.emit_with_payload(b"hi");
        let packet = Ipv4Packet::new_checked(&buf[..]).unwrap();
        assert_eq!(packet.header_len(), 36);
        let parsed = Ipv4Repr::parse(&packet).unwrap();
        assert_eq!(parsed.options, repr.options);
        assert_eq!(packet.payload(), b"hi");
    }

    #[test]
    fn checksum_detects_mutation() {
        let buf = sample_repr().emit_with_payload(&[]);
        let mut bad = buf.clone();
        bad[8] = 13; // change TTL without fixing checksum
        assert!(!Ipv4Packet::new_unchecked(&bad[..]).verify_checksum());
        assert_eq!(
            Ipv4Repr::parse(&Ipv4Packet::new_checked(&bad[..]).unwrap()),
            Err(WireError::Checksum)
        );
    }

    #[test]
    fn mutation_plus_fill_checksum_verifies() {
        let buf = sample_repr().emit_with_payload(&[1, 2, 3]);
        let mut packet = Ipv4Packet::new_unchecked(buf);
        packet.set_src_addr(Ipv4Addr::new(10, 0, 1, 99));
        packet.set_ttl(63);
        packet.fill_checksum();
        assert!(packet.verify_checksum());
        assert_eq!(packet.src_addr(), Ipv4Addr::new(10, 0, 1, 99));
        assert_eq!(packet.ttl(), 63);
    }

    #[test]
    fn rejects_short_buffers() {
        assert_eq!(Ipv4Packet::new_checked(&[0u8; 10][..]).unwrap_err(), WireError::Truncated);
    }

    #[test]
    fn rejects_wrong_version() {
        let mut buf = sample_repr().emit_with_payload(&[]);
        buf[0] = 0x65; // version 6
        assert_eq!(Ipv4Packet::new_checked(&buf[..]).unwrap_err(), WireError::Malformed);
    }

    #[test]
    fn rejects_total_len_beyond_buffer() {
        let mut buf = sample_repr().emit_with_payload(&[]);
        buf[2] = 0xFF;
        buf[3] = 0xFF;
        assert_eq!(Ipv4Packet::new_checked(&buf[..]).unwrap_err(), WireError::Truncated);
    }

    #[test]
    fn protocol_numbers() {
        for p in [Protocol::Icmp, Protocol::Tcp, Protocol::Udp, Protocol::Dccp, Protocol::Sctp] {
            assert_eq!(Protocol::from(p.number()), p);
        }
        assert_eq!(Protocol::from(99), Protocol::Unknown(99));
        assert_eq!(Protocol::Unknown(99).number(), 99);
    }

    #[test]
    fn options_parse_noop_and_eol() {
        let opts = parse_options(&[1, 1, 0, 0]).unwrap();
        assert_eq!(opts, vec![Ipv4Option::NoOp, Ipv4Option::NoOp]);
    }

    #[test]
    fn options_reject_bad_length() {
        assert!(parse_options(&[7, 1]).is_err());
        assert!(parse_options(&[7]).is_err());
        assert!(parse_options(&[68, 10, 1]).is_err());
    }

    #[test]
    fn payload_bounded_by_total_len() {
        let repr = sample_repr();
        let mut buf = repr.emit_with_payload(&[7; 8]);
        buf.extend_from_slice(&[0xFF; 4]); // trailing garbage beyond total_len
        let packet = Ipv4Packet::new_checked(&buf[..]).unwrap();
        assert_eq!(packet.payload(), &[7; 8]);
    }
}
