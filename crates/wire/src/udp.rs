//! UDP header codec (RFC 768).

use std::net::Ipv4Addr;

use crate::checksum::{
    copy_and_checksum, finish_transport_checksum, pseudo_header_sum, sum_header_words,
    transport_checksum, verify_transport_checksum, ChecksumDelta,
};
use crate::error::{WireError, WireResult};
use crate::field::{read_u16, write_u16, write_u64};
use crate::ip::Protocol;

/// Fixed UDP header length.
pub const HEADER_LEN: usize = 8;

mod field {
    pub const SRC_PORT: usize = 0;
    pub const DST_PORT: usize = 2;
    pub const LENGTH: usize = 4;
    pub const CHECKSUM: usize = 6;
}

/// A read/write view of a UDP datagram.
#[derive(Debug, Clone)]
pub struct UdpPacket<T: AsRef<[u8]>> {
    buffer: T,
}

impl<T: AsRef<[u8]>> UdpPacket<T> {
    /// Wraps a buffer without validation.
    pub fn new_unchecked(buffer: T) -> UdpPacket<T> {
        UdpPacket { buffer }
    }

    /// Wraps a buffer, validating lengths.
    pub fn new_checked(buffer: T) -> WireResult<UdpPacket<T>> {
        let packet = UdpPacket::new_unchecked(buffer);
        let buf = packet.buffer.as_ref();
        if buf.len() < HEADER_LEN {
            return Err(WireError::Truncated);
        }
        let len = packet.len_field();
        if len < HEADER_LEN || buf.len() < len {
            return Err(WireError::Truncated);
        }
        Ok(packet)
    }

    /// Source port.
    pub fn src_port(&self) -> u16 {
        read_u16(self.buffer.as_ref(), field::SRC_PORT)
    }

    /// Destination port.
    pub fn dst_port(&self) -> u16 {
        read_u16(self.buffer.as_ref(), field::DST_PORT)
    }

    /// The length field (header + payload).
    pub fn len_field(&self) -> usize {
        read_u16(self.buffer.as_ref(), field::LENGTH) as usize
    }

    /// Checksum field.
    pub fn checksum(&self) -> u16 {
        read_u16(self.buffer.as_ref(), field::CHECKSUM)
    }

    /// Payload bytes, bounded by the length field.
    pub fn payload(&self) -> &[u8] {
        &self.buffer.as_ref()[HEADER_LEN..self.len_field()]
    }

    /// Verifies the checksum under the given pseudo-header addresses. A
    /// transmitted checksum of zero means "not computed" and verifies.
    pub fn verify_checksum(&self, src: Ipv4Addr, dst: Ipv4Addr) -> bool {
        if self.checksum() == 0 {
            return true;
        }
        let seg = &self.buffer.as_ref()[..self.len_field()];
        verify_transport_checksum(src, dst, Protocol::Udp.number(), seg)
    }
}

impl<T: AsRef<[u8]> + AsMut<[u8]>> UdpPacket<T> {
    /// Sets the source port (checksum not updated).
    pub fn set_src_port(&mut self, port: u16) {
        write_u16(self.buffer.as_mut(), field::SRC_PORT, port);
    }

    /// Sets the destination port (checksum not updated).
    pub fn set_dst_port(&mut self, port: u16) {
        write_u16(self.buffer.as_mut(), field::DST_PORT, port);
    }

    /// Sets the source port and incrementally patches the checksum per
    /// RFC 1624. A stored checksum of zero means "not computed" (RFC 768)
    /// and is left untouched.
    pub fn set_src_port_adjusted(&mut self, port: u16) {
        let old = self.src_port();
        self.set_src_port(port);
        let mut delta = ChecksumDelta::new();
        delta.update_word(old, port);
        self.adjust_checksum(delta);
    }

    /// Sets the destination port and incrementally patches the checksum
    /// (zero checksum left untouched).
    pub fn set_dst_port_adjusted(&mut self, port: u16) {
        let old = self.dst_port();
        self.set_dst_port(port);
        let mut delta = ChecksumDelta::new();
        delta.update_word(old, port);
        self.adjust_checksum(delta);
    }

    /// Applies a checksum delta for covered words that changed *outside*
    /// this datagram — the pseudo-header addresses a NAT rewrites. A stored
    /// checksum of zero means "not computed" and is left untouched; a
    /// folded-to-zero result is stored as `0xFFFF` like
    /// [`UdpPacket::fill_checksum`] would.
    pub fn adjust_checksum(&mut self, delta: ChecksumDelta) {
        let ck = self.checksum();
        if ck == 0 {
            return;
        }
        write_u16(self.buffer.as_mut(), field::CHECKSUM, delta.apply_transport(ck));
    }

    /// Recomputes the checksum under the given pseudo-header.
    pub fn fill_checksum(&mut self, src: Ipv4Addr, dst: Ipv4Addr) {
        let len = self.len_field();
        write_u16(self.buffer.as_mut(), field::CHECKSUM, 0);
        let ck = transport_checksum(src, dst, Protocol::Udp.number(), &self.buffer.as_ref()[..len]);
        write_u16(self.buffer.as_mut(), field::CHECKSUM, ck);
    }
}

/// A parsed, owned UDP header.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct UdpRepr {
    /// Source port.
    pub src_port: u16,
    /// Destination port.
    pub dst_port: u16,
}

impl UdpRepr {
    /// Parses a datagram view, verifying the checksum.
    pub fn parse<T: AsRef<[u8]>>(
        packet: &UdpPacket<T>,
        src: Ipv4Addr,
        dst: Ipv4Addr,
    ) -> WireResult<UdpRepr> {
        if !packet.verify_checksum(src, dst) {
            return Err(WireError::Checksum);
        }
        Ok(UdpRepr { src_port: packet.src_port(), dst_port: packet.dst_port() })
    }

    /// Builds the complete datagram (header + payload) with a valid
    /// checksum under the given pseudo-header.
    pub fn emit_with_payload(&self, src: Ipv4Addr, dst: Ipv4Addr, payload: &[u8]) -> Vec<u8> {
        let mut buf = Vec::with_capacity(HEADER_LEN + payload.len());
        self.emit_onto(src, dst, payload, &mut buf);
        buf
    }

    /// Appends the complete datagram to `buf` — after an IP header, say,
    /// so a frame is built in one pooled buffer. The payload is summed as
    /// it is copied and the header is summed from its fields, then stored
    /// in one 8-byte write.
    pub fn emit_onto(&self, src: Ipv4Addr, dst: Ipv4Addr, payload: &[u8], buf: &mut Vec<u8>) {
        let total = HEADER_LEN + payload.len();
        assert!(total <= u16::MAX as usize, "UDP datagram too large");
        let base = buf.len();
        buf.resize(base + HEADER_LEN, 0);
        let payload_sum = copy_and_checksum(payload, buf);
        let ports = (self.src_port as u32) << 16 | self.dst_port as u32;
        let length = (total as u32) << 16; // and a zero checksum
        let acc = pseudo_header_sum(src, dst, Protocol::Udp.number(), total as u32)
            + payload_sum
            + sum_header_words(&[ports, length]);
        let checksum = finish_transport_checksum(acc) as u32;
        write_u64(buf, base, (ports as u64) << 32 | (length | checksum) as u64);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const SRC: Ipv4Addr = Ipv4Addr::new(192, 168, 1, 2);
    const DST: Ipv4Addr = Ipv4Addr::new(10, 0, 1, 1);

    #[test]
    fn emit_parse_roundtrip() {
        let repr = UdpRepr { src_port: 4000, dst_port: 53 };
        let buf = repr.emit_with_payload(SRC, DST, b"query");
        let packet = UdpPacket::new_checked(&buf[..]).unwrap();
        assert_eq!(packet.payload(), b"query");
        assert_eq!(UdpRepr::parse(&packet, SRC, DST).unwrap(), repr);
    }

    #[test]
    fn checksum_breaks_on_nat_rewrite_without_fixup() {
        // This is the exact failure mode a NAT must handle: rewriting the
        // source address invalidates the pseudo-header checksum.
        let buf = UdpRepr { src_port: 4000, dst_port: 53 }.emit_with_payload(SRC, DST, b"x");
        let packet = UdpPacket::new_checked(&buf[..]).unwrap();
        assert!(packet.verify_checksum(SRC, DST));
        assert!(!packet.verify_checksum(Ipv4Addr::new(10, 0, 1, 99), DST));
    }

    #[test]
    fn rewrite_and_fix_checksum() {
        let buf = UdpRepr { src_port: 4000, dst_port: 53 }.emit_with_payload(SRC, DST, b"x");
        let mut packet = UdpPacket::new_unchecked(buf);
        packet.set_src_port(61001);
        let ext = Ipv4Addr::new(10, 0, 1, 99);
        packet.fill_checksum(ext, DST);
        assert!(packet.verify_checksum(ext, DST));
        assert_eq!(packet.src_port(), 61001);
    }

    #[test]
    fn zero_checksum_accepted() {
        let mut buf = UdpRepr { src_port: 1, dst_port: 2 }.emit_with_payload(SRC, DST, &[]);
        buf[6] = 0;
        buf[7] = 0;
        let packet = UdpPacket::new_checked(&buf[..]).unwrap();
        assert!(packet.verify_checksum(SRC, DST));
    }

    #[test]
    fn rejects_truncation() {
        let buf = UdpRepr { src_port: 1, dst_port: 2 }.emit_with_payload(SRC, DST, b"abcdef");
        assert!(UdpPacket::new_checked(&buf[..buf.len() - 3]).is_err());
        assert!(UdpPacket::new_checked(&buf[..4]).is_err());
    }

    #[test]
    fn corrupt_payload_fails_parse() {
        let mut buf = UdpRepr { src_port: 1, dst_port: 2 }.emit_with_payload(SRC, DST, b"abcdef");
        buf[10] ^= 0x40;
        let packet = UdpPacket::new_checked(&buf[..]).unwrap();
        assert_eq!(UdpRepr::parse(&packet, SRC, DST), Err(WireError::Checksum));
    }
}
