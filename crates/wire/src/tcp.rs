//! TCP header codec (RFC 793) with options.
//!
//! The paper runs its TCP tests with Linux 2.6.26, Reno, and SACK,
//! timestamps, window scaling, F-RTO and D-SACK disabled — but the *codec*
//! still supports the options, because middlebox handling of TCP options is
//! exactly the kind of behavior home gateways get wrong (§2 discusses
//! sequence-number-shifting middleboxes breaking SACK).

use std::net::Ipv4Addr;

use crate::checksum::{
    copy_and_checksum, finish_transport_checksum, pseudo_header_sum, sum, sum_header_words,
    transport_checksum, verify_transport_checksum, ChecksumDelta,
};
use crate::error::{WireError, WireResult};
use crate::field::{read_u16, read_u32, write_header_words, write_u16, write_u32};
use crate::ip::Protocol;

/// Minimum (option-less) TCP header length.
pub const MIN_HEADER_LEN: usize = 20;

/// A TCP sequence number with wrapping comparison helpers.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct SeqNumber(pub u32);

impl SeqNumber {
    /// `self + n` with wraparound.
    #[allow(clippy::should_implement_trait)] // deliberate: a u32 offset, not Add<Self>
    pub fn add(self, n: u32) -> SeqNumber {
        SeqNumber(self.0.wrapping_add(n))
    }

    /// Signed distance `self - other` with wraparound.
    pub fn dist(self, other: SeqNumber) -> i32 {
        self.0.wrapping_sub(other.0) as i32
    }

    /// Wrapping `self < other`.
    pub fn lt(self, other: SeqNumber) -> bool {
        self.dist(other) < 0
    }

    /// Wrapping `self <= other`.
    pub fn le(self, other: SeqNumber) -> bool {
        self.dist(other) <= 0
    }
}

impl core::fmt::Display for SeqNumber {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "{}", self.0)
    }
}

/// A tiny local stand-in for the `bitflags` crate (no external deps in the
/// wire layer).
macro_rules! bitflags_lite {
    (
        $(#[$meta:meta])*
        pub struct $name:ident: $ty:ty {
            $( $(#[$fmeta:meta])* const $flag:ident = $value:expr; )*
        }
    ) => {
        $(#[$meta])*
        #[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
        pub struct $name(pub $ty);

        impl $name {
            $( $(#[$fmeta])* pub const $flag: $name = $name($value); )*
            /// No flags set.
            pub const EMPTY: $name = $name(0);

            /// True if every flag in `other` is set in `self`.
            pub fn contains(self, other: $name) -> bool {
                self.0 & other.0 == other.0
            }

            /// True if any flag in `other` is set in `self`.
            pub fn intersects(self, other: $name) -> bool {
                self.0 & other.0 != 0
            }
        }

        impl core::ops::BitOr for $name {
            type Output = $name;
            fn bitor(self, rhs: $name) -> $name { $name(self.0 | rhs.0) }
        }

        impl core::ops::BitOrAssign for $name {
            fn bitor_assign(&mut self, rhs: $name) { self.0 |= rhs.0; }
        }
    };
}

bitflags_lite! {
    /// TCP header flags (low 6 bits of the 13th/14th octets).
    pub struct TcpFlags: u8 {
        /// FIN: sender is done sending.
        const FIN = 0x01;
        /// SYN: synchronize sequence numbers.
        const SYN = 0x02;
        /// RST: abort the connection.
        const RST = 0x04;
        /// PSH: push buffered data to the application.
        const PSH = 0x08;
        /// ACK: the acknowledgment field is valid.
        const ACK = 0x10;
        /// URG: the urgent pointer is valid.
        const URG = 0x20;
    }
}

/// A parsed TCP option.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TcpOption {
    /// Maximum segment size (SYN only).
    MaxSegmentSize(u16),
    /// Window scale shift (SYN only).
    WindowScale(u8),
    /// SACK permitted (SYN only).
    SackPermitted,
    /// SACK blocks (left/right sequence edges).
    SackRange(Vec<(u32, u32)>),
    /// Timestamps (TSval, TSecr).
    Timestamps(u32, u32),
    /// Unknown option kept raw.
    Unknown {
        /// Option kind octet.
        kind: u8,
        /// Option body.
        data: Vec<u8>,
    },
}

impl TcpOption {
    fn wire_len(&self) -> usize {
        match self {
            TcpOption::MaxSegmentSize(_) => 4,
            TcpOption::WindowScale(_) => 3,
            TcpOption::SackPermitted => 2,
            TcpOption::SackRange(ranges) => 2 + ranges.len() * 8,
            TcpOption::Timestamps(..) => 10,
            TcpOption::Unknown { data, .. } => 2 + data.len(),
        }
    }
}

mod field {
    pub const SRC_PORT: usize = 0;
    pub const DST_PORT: usize = 2;
    pub const SEQ: usize = 4;
    pub const ACK: usize = 8;
    pub const DATA_OFF: usize = 12;
    pub const FLAGS: usize = 13;
    pub const WINDOW: usize = 14;
    pub const CHECKSUM: usize = 16;
    pub const OPTIONS: usize = 20;
}

/// A read/write view of a TCP segment.
#[derive(Debug, Clone)]
pub struct TcpPacket<T: AsRef<[u8]>> {
    buffer: T,
}

impl<T: AsRef<[u8]>> TcpPacket<T> {
    /// Wraps a buffer without validation.
    pub fn new_unchecked(buffer: T) -> TcpPacket<T> {
        TcpPacket { buffer }
    }

    /// Wraps a buffer, validating the header length.
    pub fn new_checked(buffer: T) -> WireResult<TcpPacket<T>> {
        let packet = TcpPacket::new_unchecked(buffer);
        let buf = packet.buffer.as_ref();
        if buf.len() < MIN_HEADER_LEN {
            return Err(WireError::Truncated);
        }
        let hl = packet.header_len();
        if hl < MIN_HEADER_LEN || buf.len() < hl {
            return Err(WireError::Malformed);
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

    /// Sequence number.
    pub fn seq_number(&self) -> SeqNumber {
        SeqNumber(read_u32(self.buffer.as_ref(), field::SEQ))
    }

    /// Acknowledgment number.
    pub fn ack_number(&self) -> SeqNumber {
        SeqNumber(read_u32(self.buffer.as_ref(), field::ACK))
    }

    /// Header length in octets (data offset × 4).
    pub fn header_len(&self) -> usize {
        ((self.buffer.as_ref()[field::DATA_OFF] >> 4) as usize) * 4
    }

    /// Header flags.
    pub fn flags(&self) -> TcpFlags {
        TcpFlags(self.buffer.as_ref()[field::FLAGS] & 0x3F)
    }

    /// Receive window (unscaled).
    pub fn window(&self) -> u16 {
        read_u16(self.buffer.as_ref(), field::WINDOW)
    }

    /// Checksum field.
    pub fn checksum(&self) -> u16 {
        read_u16(self.buffer.as_ref(), field::CHECKSUM)
    }

    /// Raw option bytes.
    pub fn options_bytes(&self) -> &[u8] {
        &self.buffer.as_ref()[field::OPTIONS..self.header_len()]
    }

    /// Parses the options list.
    pub fn options(&self) -> WireResult<Vec<TcpOption>> {
        parse_options(self.options_bytes())
    }

    /// Payload bytes after the header.
    pub fn payload(&self) -> &[u8] {
        &self.buffer.as_ref()[self.header_len()..]
    }

    /// Verifies the checksum under the pseudo-header.
    pub fn verify_checksum(&self, src: Ipv4Addr, dst: Ipv4Addr) -> bool {
        verify_transport_checksum(src, dst, Protocol::Tcp.number(), self.buffer.as_ref())
    }
}

impl<T: AsRef<[u8]> + AsMut<[u8]>> TcpPacket<T> {
    /// Sets the source port (checksum not updated).
    pub fn set_src_port(&mut self, port: u16) {
        write_u16(self.buffer.as_mut(), field::SRC_PORT, port);
    }

    /// Sets the destination port (checksum not updated).
    pub fn set_dst_port(&mut self, port: u16) {
        write_u16(self.buffer.as_mut(), field::DST_PORT, port);
    }

    /// Sets the sequence number (checksum not updated).
    pub fn set_seq_number(&mut self, seq: SeqNumber) {
        write_u32(self.buffer.as_mut(), field::SEQ, seq.0);
    }

    /// Sets the source port and incrementally patches the checksum per
    /// RFC 1624, without re-summing the segment.
    pub fn set_src_port_adjusted(&mut self, port: u16) {
        let old = self.src_port();
        self.set_src_port(port);
        let mut delta = ChecksumDelta::new();
        delta.update_word(old, port);
        self.adjust_checksum(delta);
    }

    /// Sets the destination port and incrementally patches the checksum.
    pub fn set_dst_port_adjusted(&mut self, port: u16) {
        let old = self.dst_port();
        self.set_dst_port(port);
        let mut delta = ChecksumDelta::new();
        delta.update_word(old, port);
        self.adjust_checksum(delta);
    }

    /// Applies a checksum delta for covered words that changed *outside*
    /// this segment — the pseudo-header addresses a NAT rewrites. Stores a
    /// folded-to-zero result as `0xFFFF`, matching
    /// [`TcpPacket::fill_checksum`].
    pub fn adjust_checksum(&mut self, delta: ChecksumDelta) {
        let ck = delta.apply_transport(self.checksum());
        write_u16(self.buffer.as_mut(), field::CHECKSUM, ck);
    }

    /// Recomputes the checksum under the pseudo-header.
    pub fn fill_checksum(&mut self, src: Ipv4Addr, dst: Ipv4Addr) {
        write_u16(self.buffer.as_mut(), field::CHECKSUM, 0);
        let ck = transport_checksum(src, dst, Protocol::Tcp.number(), self.buffer.as_ref());
        write_u16(self.buffer.as_mut(), field::CHECKSUM, ck);
    }
}

fn parse_options(mut bytes: &[u8]) -> WireResult<Vec<TcpOption>> {
    let mut options = Vec::new();
    while !bytes.is_empty() {
        match bytes[0] {
            0 => break, // End of option list.
            1 => {
                bytes = &bytes[1..]; // NOP padding, not represented.
            }
            kind => {
                if bytes.len() < 2 {
                    return Err(WireError::Truncated);
                }
                let len = bytes[1] as usize;
                if len < 2 || bytes.len() < len {
                    return Err(WireError::Malformed);
                }
                let body = &bytes[2..len];
                let opt = match (kind, body.len()) {
                    (2, 2) => TcpOption::MaxSegmentSize(u16::from_be_bytes([body[0], body[1]])),
                    (3, 1) => TcpOption::WindowScale(body[0]),
                    (4, 0) => TcpOption::SackPermitted,
                    (5, n) if n % 8 == 0 => {
                        let ranges = body
                            .chunks_exact(8)
                            .map(|c| (read_u32(c, 0), read_u32(c, 4)))
                            .collect();
                        TcpOption::SackRange(ranges)
                    }
                    (8, 8) => TcpOption::Timestamps(read_u32(body, 0), read_u32(body, 4)),
                    _ => TcpOption::Unknown { kind, data: body.to_vec() },
                };
                options.push(opt);
                bytes = &bytes[len..];
            }
        }
    }
    Ok(options)
}

fn emit_options(options: &[TcpOption], out: &mut Vec<u8>) {
    for opt in options {
        match opt {
            TcpOption::MaxSegmentSize(mss) => {
                out.extend_from_slice(&[2, 4]);
                out.extend_from_slice(&mss.to_be_bytes());
            }
            TcpOption::WindowScale(shift) => out.extend_from_slice(&[3, 3, *shift]),
            TcpOption::SackPermitted => out.extend_from_slice(&[4, 2]),
            TcpOption::SackRange(ranges) => {
                out.push(5);
                out.push((2 + ranges.len() * 8) as u8);
                for (l, r) in ranges {
                    out.extend_from_slice(&l.to_be_bytes());
                    out.extend_from_slice(&r.to_be_bytes());
                }
            }
            TcpOption::Timestamps(val, ecr) => {
                out.extend_from_slice(&[8, 10]);
                out.extend_from_slice(&val.to_be_bytes());
                out.extend_from_slice(&ecr.to_be_bytes());
            }
            TcpOption::Unknown { kind, data } => {
                out.push(*kind);
                out.push((2 + data.len()) as u8);
                out.extend_from_slice(data);
            }
        }
    }
    while !out.len().is_multiple_of(4) {
        out.push(1); // NOP padding
    }
}

/// A parsed, owned TCP header.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TcpRepr {
    /// Source port.
    pub src_port: u16,
    /// Destination port.
    pub dst_port: u16,
    /// Sequence number.
    pub seq: SeqNumber,
    /// Acknowledgment number (meaningful when ACK flag set).
    pub ack: SeqNumber,
    /// Header flags.
    pub flags: TcpFlags,
    /// Receive window (unscaled).
    pub window: u16,
    /// Header options.
    pub options: Vec<TcpOption>,
}

impl TcpRepr {
    /// A bare segment with the given flags and no options.
    pub fn new(src_port: u16, dst_port: u16, flags: TcpFlags) -> TcpRepr {
        TcpRepr {
            src_port,
            dst_port,
            seq: SeqNumber(0),
            ack: SeqNumber(0),
            flags,
            window: u16::MAX,
            options: Vec::new(),
        }
    }

    /// Parses a segment view, verifying the checksum.
    pub fn parse<T: AsRef<[u8]>>(
        packet: &TcpPacket<T>,
        src: Ipv4Addr,
        dst: Ipv4Addr,
    ) -> WireResult<TcpRepr> {
        if !packet.verify_checksum(src, dst) {
            return Err(WireError::Checksum);
        }
        Ok(TcpRepr {
            src_port: packet.src_port(),
            dst_port: packet.dst_port(),
            seq: packet.seq_number(),
            ack: packet.ack_number(),
            flags: packet.flags(),
            window: packet.window(),
            options: packet.options()?,
        })
    }

    /// Parses a segment view without verifying the checksum.
    ///
    /// For callers that already verified the segment (or deliberately
    /// skip verification, e.g. after an incremental NAT rewrite) —
    /// [`TcpRepr::parse`] re-reads the full payload to verify, which
    /// doubles the per-segment memory traffic on the receive path.
    pub fn parse_unverified<T: AsRef<[u8]>>(packet: &TcpPacket<T>) -> WireResult<TcpRepr> {
        Ok(TcpRepr {
            src_port: packet.src_port(),
            dst_port: packet.dst_port(),
            seq: packet.seq_number(),
            ack: packet.ack_number(),
            flags: packet.flags(),
            window: packet.window(),
            options: packet.options()?,
        })
    }

    /// Header length including padded options.
    pub fn header_len(&self) -> usize {
        let opt_len: usize = self.options.iter().map(TcpOption::wire_len).sum();
        MIN_HEADER_LEN + opt_len.div_ceil(4) * 4
    }

    /// Builds the complete segment (header + payload) with a valid checksum
    /// under the given pseudo-header.
    pub fn emit_with_payload(&self, src: Ipv4Addr, dst: Ipv4Addr, payload: &[u8]) -> Vec<u8> {
        let mut buf = Vec::with_capacity(self.header_len() + payload.len());
        self.emit_with_payload_onto(src, dst, payload, &mut buf);
        buf
    }

    /// Appends the complete segment (header + payload + valid checksum)
    /// onto `buf`, which may already hold an IPv4 header built with
    /// `Ipv4Repr::emit_header_into`. This is the bulk-transfer fast path:
    /// the segment lands directly in the outgoing (pooled) frame instead of
    /// transiting an intermediate allocation.
    pub fn emit_with_payload_onto(
        &self,
        src: Ipv4Addr,
        dst: Ipv4Addr,
        payload: &[u8],
        buf: &mut Vec<u8>,
    ) {
        let hl = self.header_len();
        let base = buf.len();
        // Zero-fill only the header region; appending the payload directly
        // skips a redundant memset of up to an MSS per data segment.
        buf.resize(base + hl, 0);
        // Fused copy+checksum: the payload is summed by the same pass that
        // appends it, so the segment is never re-read to fill the checksum.
        let payload_sum = copy_and_checksum(payload, buf);
        self.write_header_with_sum(src, dst, payload.len(), payload_sum, &mut buf[base..]);
    }

    /// Like [`TcpRepr::emit_with_payload_onto`], but takes the payload's
    /// pre-computed pair sum (as returned by
    /// [`copy_and_checksum`] or a send buffer's
    /// `copy_range_into_with_sum`) instead of summing during the copy.
    ///
    /// `payload_sum` must be the big-endian pair-space accumulator of
    /// exactly `payload`, computed as if it started at an even offset
    /// (TCP headers are multiples of 4 bytes, so the payload always lands
    /// on an even segment offset and the sum composes without swapping).
    pub fn emit_with_payload_sum_onto(
        &self,
        src: Ipv4Addr,
        dst: Ipv4Addr,
        payload: &[u8],
        payload_sum: u32,
        buf: &mut Vec<u8>,
    ) {
        let hl = self.header_len();
        let base = buf.len();
        buf.resize(base + hl, 0);
        buf.extend_from_slice(payload);
        self.write_header_with_sum(src, dst, payload.len(), payload_sum, &mut buf[base..]);
    }

    /// Writes the complete header (fields, flags, options, checksum) into
    /// the first [`TcpRepr::header_len`] bytes of `seg`, whose remainder
    /// already holds the payload bytes whose pair sum is `payload_sum`. For
    /// buffers built with packet headroom the payload was written (and
    /// summed) directly at its final offset, so emission touches only
    /// header bytes.
    ///
    /// The fixed 20 bytes are built as five words, summed from those words
    /// and stored whole; only option bytes are summed from memory.
    /// `payload_sum` obeys the same even-offset contract as
    /// [`TcpRepr::emit_with_payload_sum_onto`].
    pub fn write_header_with_sum(
        &self,
        src: Ipv4Addr,
        dst: Ipv4Addr,
        payload_len: usize,
        payload_sum: u32,
        seg: &mut [u8],
    ) {
        let hl = self.header_len();
        let seg_len = (hl + payload_len) as u32;
        let mut acc = pseudo_header_sum(src, dst, Protocol::Tcp.number(), seg_len) + payload_sum;
        if !self.options.is_empty() {
            let mut opts = Vec::new();
            emit_options(&self.options, &mut opts);
            seg[field::OPTIONS..field::OPTIONS + opts.len()].copy_from_slice(&opts);
            acc += sum(&opts, 0);
        }
        let mut words = [
            (self.src_port as u32) << 16 | self.dst_port as u32,
            self.seq.0,
            self.ack.0,
            ((hl / 4) as u32) << 28 | (self.flags.0 as u32) << 16 | self.window as u32,
            0, // checksum and urgent pointer
        ];
        words[4] = (finish_transport_checksum(acc + sum_header_words(&words)) as u32) << 16;
        write_header_words(seg, words);
    }

    /// Total segment length for a given payload.
    pub fn segment_len(&self, payload_len: usize) -> usize {
        self.header_len() + payload_len
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const SRC: Ipv4Addr = Ipv4Addr::new(192, 168, 1, 2);
    const DST: Ipv4Addr = Ipv4Addr::new(10, 0, 1, 1);

    fn syn_repr() -> TcpRepr {
        TcpRepr {
            src_port: 40000,
            dst_port: 80,
            seq: SeqNumber(0x1000_0000),
            ack: SeqNumber(0),
            flags: TcpFlags::SYN,
            window: 65535,
            options: vec![TcpOption::MaxSegmentSize(1460)],
        }
    }

    #[test]
    fn seq_number_wrapping() {
        let near_max = SeqNumber(u32::MAX - 1);
        assert_eq!(near_max.add(3), SeqNumber(1));
        assert!(near_max.lt(near_max.add(3)));
        assert!(near_max.le(near_max));
        assert_eq!(near_max.add(3).dist(near_max), 3);
        assert_eq!(near_max.dist(near_max.add(3)), -3);
    }

    #[test]
    fn flags_operations() {
        let f = TcpFlags::SYN | TcpFlags::ACK;
        assert!(f.contains(TcpFlags::SYN));
        assert!(f.contains(TcpFlags::SYN | TcpFlags::ACK));
        assert!(!f.contains(TcpFlags::FIN));
        assert!(f.intersects(TcpFlags::ACK | TcpFlags::RST));
        assert!(!f.intersects(TcpFlags::RST));
    }

    #[test]
    fn fused_emit_matches_presummed_emit_and_verifies() {
        // The fused (sum-during-copy) and scatter-gather (pre-summed)
        // emitters must produce bit-identical segments, and the checksum
        // they write must survive the full-re-read verifier — across odd
        // and even payload lengths, empty payloads, and option headers.
        for with_opts in [false, true] {
            for len in [0usize, 1, 2, 3, 64, 65, 536, 1459, 1460] {
                let mut repr = TcpRepr::new(40000, 80, TcpFlags::PSH | TcpFlags::ACK);
                repr.seq = SeqNumber(0xDEAD_BEEF);
                repr.ack = SeqNumber(0x0102_0304);
                if with_opts {
                    repr.options = vec![TcpOption::MaxSegmentSize(1460)];
                }
                let payload: Vec<u8> = (0..len).map(|i| (i * 131 % 251) as u8).collect();

                let mut fused = vec![0x45u8; 20]; // stand-in IPv4 header prefix
                repr.emit_with_payload_onto(SRC, DST, &payload, &mut fused);

                let mut copied = Vec::new();
                let payload_sum = copy_and_checksum(&payload, &mut copied);
                assert_eq!(copied, payload);
                let mut presummed = vec![0x45u8; 20];
                repr.emit_with_payload_sum_onto(SRC, DST, &payload, payload_sum, &mut presummed);

                assert_eq!(fused, presummed, "len={len} opts={with_opts}");
                let seg = &fused[20..];
                assert!(
                    verify_transport_checksum(SRC, DST, Protocol::Tcp.number(), seg),
                    "len={len} opts={with_opts}"
                );
                let parsed = TcpRepr::parse_unverified(&TcpPacket::new_unchecked(seg)).unwrap();
                assert_eq!(parsed, repr, "len={len} opts={with_opts}");
            }
        }
    }

    #[test]
    fn option_headers_checksum_through_the_generic_path() {
        // An IPv4 header with IHL > 5 and a TCP header with options are not
        // 20 bytes long, so their sums take the generic path instead of the
        // fixed 20-byte one: they must still verify, catch a flipped bit in
        // an option byte, and verify again after a fill.
        use crate::ip::{Ipv4Option, Ipv4Packet, Ipv4Repr};
        let mut ip = Ipv4Repr::new(SRC, DST, Protocol::Tcp);
        ip.options.push(Ipv4Option::RecordRoute { pointer: 4, data: vec![0u8; 12] });
        let tcp = syn_repr();
        let payload = [0x5Au8; 37];
        let (ihl, thl) = (ip.header_len(), tcp.header_len());
        assert_eq!((ihl, thl), (36, 24));
        let mut frame = vec![0u8; ihl + thl + payload.len()];
        frame[ihl + thl..].copy_from_slice(&payload);
        ip.write_header(thl + payload.len(), &mut frame[..ihl]);
        let mut copied = Vec::new();
        let payload_sum = copy_and_checksum(&payload, &mut copied);
        tcp.write_header_with_sum(SRC, DST, payload.len(), payload_sum, &mut frame[ihl..]);
        assert!(Ipv4Packet::new_checked(&frame[..]).unwrap().verify_checksum());
        assert!(TcpPacket::new_checked(&frame[ihl..]).unwrap().verify_checksum(SRC, DST));
        assert_eq!(tcp.emit_with_payload(SRC, DST, &payload), frame[ihl..]);

        frame[22] ^= 0x10; // inside the record-route option
        frame[ihl + 22] ^= 0x01; // inside the MSS option
        let mut packet = Ipv4Packet::new_unchecked(&mut frame[..]);
        assert!(!packet.verify_checksum());
        packet.fill_checksum();
        assert!(packet.verify_checksum());
        let mut segment = TcpPacket::new_unchecked(&mut frame[ihl..]);
        assert!(!segment.verify_checksum(SRC, DST));
        segment.fill_checksum(SRC, DST);
        assert!(segment.verify_checksum(SRC, DST));
    }

    #[test]
    fn emit_parse_roundtrip_syn_with_mss() {
        let repr = syn_repr();
        let buf = repr.emit_with_payload(SRC, DST, &[]);
        let packet = TcpPacket::new_checked(&buf[..]).unwrap();
        assert_eq!(packet.header_len(), 24);
        assert_eq!(TcpRepr::parse(&packet, SRC, DST).unwrap(), repr);
    }

    #[test]
    fn emit_parse_roundtrip_data_segment() {
        let mut repr = syn_repr();
        repr.flags = TcpFlags::ACK | TcpFlags::PSH;
        repr.options.clear();
        repr.ack = SeqNumber(77);
        let buf = repr.emit_with_payload(SRC, DST, b"hello world");
        let packet = TcpPacket::new_checked(&buf[..]).unwrap();
        assert_eq!(packet.payload(), b"hello world");
        assert_eq!(TcpRepr::parse(&packet, SRC, DST).unwrap(), repr);
    }

    #[test]
    fn all_options_roundtrip() {
        let mut repr = syn_repr();
        repr.options = vec![
            TcpOption::MaxSegmentSize(1460),
            TcpOption::WindowScale(7),
            TcpOption::SackPermitted,
            TcpOption::Timestamps(123456, 654321),
            TcpOption::SackRange(vec![(100, 200), (300, 400)]),
        ];
        // 37 option bytes pad to 40: exactly the 60-byte header maximum.
        assert_eq!(repr.header_len(), 60);
        let buf = repr.emit_with_payload(SRC, DST, &[]);
        let packet = TcpPacket::new_checked(&buf[..]).unwrap();
        let parsed = TcpRepr::parse(&packet, SRC, DST).unwrap();
        assert_eq!(parsed.options, repr.options);
    }

    #[test]
    fn unknown_option_roundtrip() {
        let mut repr = syn_repr();
        repr.options = vec![TcpOption::Unknown { kind: 254, data: vec![9, 9] }];
        let buf = repr.emit_with_payload(SRC, DST, &[]);
        let packet = TcpPacket::new_checked(&buf[..]).unwrap();
        assert_eq!(TcpRepr::parse(&packet, SRC, DST).unwrap().options, repr.options);
    }

    #[test]
    fn checksum_covers_pseudo_header() {
        let buf = syn_repr().emit_with_payload(SRC, DST, &[]);
        let packet = TcpPacket::new_checked(&buf[..]).unwrap();
        assert!(packet.verify_checksum(SRC, DST));
        assert!(!packet.verify_checksum(Ipv4Addr::new(10, 0, 1, 99), DST));
    }

    #[test]
    fn nat_rewrite_with_fixup_verifies() {
        let buf = syn_repr().emit_with_payload(SRC, DST, b"payload");
        let mut packet = TcpPacket::new_unchecked(buf);
        let ext = Ipv4Addr::new(10, 0, 1, 99);
        packet.set_src_port(62000);
        packet.fill_checksum(ext, DST);
        assert!(packet.verify_checksum(ext, DST));
    }

    #[test]
    fn sequence_shift_breaks_embedded_sack_invariant() {
        // A middlebox that rewrites `seq` but not SACK edges produces
        // inconsistent options — the failure mode noted in §2 / RFC 2018
        // discussion. Verify the codec lets a test observe this.
        let mut repr = syn_repr();
        repr.flags = TcpFlags::ACK;
        repr.options = vec![TcpOption::SackRange(vec![(1000, 2000)])];
        let buf = repr.emit_with_payload(SRC, DST, &[]);
        let mut packet = TcpPacket::new_unchecked(buf);
        packet.set_seq_number(SeqNumber(999_000));
        packet.fill_checksum(SRC, DST);
        let reparsed =
            TcpRepr::parse(&TcpPacket::new_checked(packet.buffer).unwrap(), SRC, DST).unwrap();
        assert_eq!(reparsed.seq, SeqNumber(999_000));
        // SACK edges unchanged — observably inconsistent with the new seq.
        assert_eq!(reparsed.options, vec![TcpOption::SackRange(vec![(1000, 2000)])]);
    }

    #[test]
    fn rejects_bad_data_offset() {
        let mut buf = syn_repr().emit_with_payload(SRC, DST, &[]);
        buf[12] = 0x20; // data offset 8 octets < 20
        assert_eq!(TcpPacket::new_checked(&buf[..]).unwrap_err(), WireError::Malformed);
    }

    #[test]
    fn rejects_truncated() {
        assert_eq!(TcpPacket::new_checked(&[0u8; 12][..]).unwrap_err(), WireError::Truncated);
    }

    #[test]
    fn option_parse_rejects_garbage() {
        assert!(parse_options(&[2]).is_err()); // kind without length
        assert!(parse_options(&[2, 1]).is_err()); // length < 2
        assert!(parse_options(&[2, 10, 0]).is_err()); // length beyond buffer
    }
}
