//! Property-based tests: every codec must round-trip arbitrary valid
//! representations, and checksums must detect arbitrary single-bit
//! corruption.

use std::net::Ipv4Addr;

use proptest::prelude::*;

use hgw_wire::checksum::{
    crc32c, crc32c_bytewise, internet_checksum, transport_checksum, verify_transport_checksum,
    ChecksumDelta,
};
use hgw_wire::dccp::{DccpRepr, DccpType};
use hgw_wire::dhcp::{DhcpMessage, DhcpMessageType};
use hgw_wire::dns::{DnsMessage, Question, Rcode, Record, RecordData, RecordType};
use hgw_wire::icmp::{IcmpRepr, TimeExceededCode, UnreachCode};
use hgw_wire::ip::{Ipv4Option, Ipv4Repr};
use hgw_wire::sctp::{Chunk, SctpRepr};
use hgw_wire::tcp::{SeqNumber, TcpOption, TcpPacket, TcpRepr};
use hgw_wire::udp::{UdpPacket, UdpRepr};
use hgw_wire::{Ipv4Packet, Protocol, TcpFlags};

fn arb_addr() -> impl Strategy<Value = Ipv4Addr> {
    any::<[u8; 4]>().prop_map(|b| Ipv4Addr::new(b[0], b[1], b[2], b[3]))
}

proptest! {
    #[test]
    fn internet_checksum_zero_verifies(data in proptest::collection::vec(any::<u8>(), 0..256)) {
        // Appending the checksum of `data` makes the sum verify (even-length
        // inputs only — odd lengths shift the appended checksum's alignment,
        // which real protocols never do).
        prop_assume!(data.len() % 2 == 0);
        let ck = internet_checksum(&data);
        let mut with = data.clone();
        with.extend_from_slice(&ck.to_be_bytes());
        prop_assert_eq!(internet_checksum(&with), 0);
    }

    #[test]
    fn transport_checksum_detects_bit_flips(
        data in proptest::collection::vec(any::<u8>(), 9..128),
        src in arb_addr(),
        dst in arb_addr(),
        bit in 0usize..8,
    ) {
        let mut seg = data.clone();
        // Zero the "checksum field" (bytes 6..8 as in UDP), fill it in.
        seg[6] = 0;
        seg[7] = 0;
        let ck = transport_checksum(src, dst, 17, &seg);
        seg[6..8].copy_from_slice(&ck.to_be_bytes());
        prop_assert!(verify_transport_checksum(src, dst, 17, &seg));
        let idx = data.len() % seg.len();
        seg[idx] ^= 1 << bit;
        // A flip may cancel only if it lands in the checksum field itself in
        // a way that offsets... it cannot: one bit changes the sum.
        prop_assert!(!verify_transport_checksum(src, dst, 17, &seg));
    }

    #[test]
    fn ipv4_roundtrip(
        src in arb_addr(),
        dst in arb_addr(),
        proto in any::<u8>(),
        ttl in any::<u8>(),
        ident in any::<u16>(),
        dont_frag in any::<bool>(),
        payload in proptest::collection::vec(any::<u8>(), 0..512),
        rr in proptest::option::of((1u8..40, proptest::collection::vec(any::<u8>(), 0..8))),
    ) {
        let mut repr = Ipv4Repr::new(src, dst, Protocol::from(proto));
        repr.ttl = ttl;
        repr.ident = ident;
        repr.dont_frag = dont_frag;
        if let Some((pointer, data)) = rr {
            repr.options.push(Ipv4Option::RecordRoute { pointer, data });
        }
        let buf = repr.emit_with_payload(&payload);
        let packet = Ipv4Packet::new_checked(&buf[..]).unwrap();
        prop_assert!(packet.verify_checksum());
        prop_assert_eq!(packet.payload(), &payload[..]);
        prop_assert_eq!(Ipv4Repr::parse(&packet).unwrap(), repr);
    }

    #[test]
    fn udp_roundtrip(
        src in arb_addr(),
        dst in arb_addr(),
        sport in any::<u16>(),
        dport in any::<u16>(),
        payload in proptest::collection::vec(any::<u8>(), 0..512),
    ) {
        let repr = UdpRepr { src_port: sport, dst_port: dport };
        let buf = repr.emit_with_payload(src, dst, &payload);
        let packet = UdpPacket::new_checked(&buf[..]).unwrap();
        prop_assert!(packet.verify_checksum(src, dst));
        prop_assert_eq!(packet.payload(), &payload[..]);
        prop_assert_eq!(UdpRepr::parse(&packet, src, dst).unwrap(), repr);
    }

    #[test]
    fn tcp_roundtrip(
        src in arb_addr(),
        dst in arb_addr(),
        sport in any::<u16>(),
        dport in any::<u16>(),
        seq in any::<u32>(),
        ack in any::<u32>(),
        flags in 0u8..64,
        window in any::<u16>(),
        payload in proptest::collection::vec(any::<u8>(), 0..512),
        mss in proptest::option::of(any::<u16>()),
        ts in proptest::option::of((any::<u32>(), any::<u32>())),
    ) {
        let mut options = Vec::new();
        if let Some(m) = mss { options.push(TcpOption::MaxSegmentSize(m)); }
        if let Some((v, e)) = ts { options.push(TcpOption::Timestamps(v, e)); }
        let repr = TcpRepr {
            src_port: sport,
            dst_port: dport,
            seq: SeqNumber(seq),
            ack: SeqNumber(ack),
            flags: TcpFlags(flags),
            window,
            options,
        };
        let buf = repr.emit_with_payload(src, dst, &payload);
        let packet = TcpPacket::new_checked(&buf[..]).unwrap();
        prop_assert!(packet.verify_checksum(src, dst));
        prop_assert_eq!(packet.payload(), &payload[..]);
        prop_assert_eq!(TcpRepr::parse(&packet, src, dst).unwrap(), repr);
    }

    #[test]
    fn icmp_error_roundtrip(
        kind in 0usize..10,
        mtu in any::<u16>(),
        pointer in any::<u8>(),
        invoking in proptest::collection::vec(any::<u8>(), 28..64),
    ) {
        let msg = match kind {
            0 => IcmpRepr::DestUnreachable { code: UnreachCode::NetUnreachable, mtu: 0, invoking },
            1 => IcmpRepr::DestUnreachable { code: UnreachCode::HostUnreachable, mtu: 0, invoking },
            2 => IcmpRepr::DestUnreachable { code: UnreachCode::ProtoUnreachable, mtu: 0, invoking },
            3 => IcmpRepr::DestUnreachable { code: UnreachCode::PortUnreachable, mtu: 0, invoking },
            4 => IcmpRepr::DestUnreachable { code: UnreachCode::FragNeeded, mtu, invoking },
            5 => IcmpRepr::DestUnreachable { code: UnreachCode::SourceRouteFailed, mtu: 0, invoking },
            6 => IcmpRepr::TimeExceeded { code: TimeExceededCode::TtlExceeded, invoking },
            7 => IcmpRepr::TimeExceeded { code: TimeExceededCode::ReassemblyExceeded, invoking },
            8 => IcmpRepr::ParamProblem { pointer, invoking },
            _ => IcmpRepr::SourceQuench { invoking },
        };
        prop_assert_eq!(IcmpRepr::parse(&msg.emit()).unwrap(), msg);
    }

    #[test]
    fn icmp_echo_roundtrip(
        ident in any::<u16>(),
        seq in any::<u16>(),
        payload in proptest::collection::vec(any::<u8>(), 0..64),
        reply in any::<bool>(),
    ) {
        let msg = if reply {
            IcmpRepr::EchoReply { ident, seq, payload }
        } else {
            IcmpRepr::EchoRequest { ident, seq, payload }
        };
        prop_assert_eq!(IcmpRepr::parse(&msg.emit()).unwrap(), msg);
    }

    #[test]
    fn sctp_roundtrip(
        sport in any::<u16>(),
        dport in any::<u16>(),
        vtag in any::<u32>(),
        tsn in any::<u32>(),
        data in proptest::collection::vec(any::<u8>(), 0..256),
        cookie in proptest::collection::vec(any::<u8>(), 0..64),
    ) {
        let repr = SctpRepr {
            src_port: sport,
            dst_port: dport,
            verification_tag: vtag,
            chunks: vec![
                Chunk::InitAck {
                    init_tag: vtag.wrapping_add(1),
                    a_rwnd: 65535,
                    outbound_streams: 1,
                    inbound_streams: 1,
                    initial_tsn: tsn,
                    cookie,
                },
                Chunk::Data { tsn, stream_id: 0, stream_seq: 0, ppid: 0, data },
                Chunk::Sack { cum_tsn: tsn, a_rwnd: 4096 },
            ],
        };
        prop_assert_eq!(SctpRepr::parse(&repr.emit()).unwrap(), repr);
    }

    #[test]
    fn dccp_roundtrip(
        sport in any::<u16>(),
        dport in any::<u16>(),
        seq in 0u64..(1 << 48),
        ack in 0u64..(1 << 48),
        service in any::<u32>(),
        payload in proptest::collection::vec(any::<u8>(), 0..128),
        src in arb_addr(),
        dst in arb_addr(),
        ty in 0usize..4,
    ) {
        let packet_type = [DccpType::Request, DccpType::Response, DccpType::Data, DccpType::DataAck][ty];
        let repr = DccpRepr {
            src_port: sport,
            dst_port: dport,
            packet_type,
            seq,
            ack: packet_type.has_ack().then_some(ack),
            service_code: packet_type.has_service_code().then_some(service),
            payload,
        };
        prop_assert_eq!(DccpRepr::parse(&repr.emit(src, dst), src, dst).unwrap(), repr);
    }

    #[test]
    fn dns_roundtrip(
        id in any::<u16>(),
        labels in proptest::collection::vec("[a-z]{1,12}", 1..5),
        addr in arb_addr(),
        ttl in any::<u32>(),
        is_response in any::<bool>(),
    ) {
        let name = labels.join(".");
        let msg = DnsMessage {
            id,
            is_response,
            recursion_desired: true,
            recursion_available: is_response,
            rcode: Rcode::NoError,
            questions: vec![Question { name: name.clone(), rtype: RecordType::A }],
            answers: if is_response {
                vec![Record { name, ttl, data: RecordData::A(addr) }]
            } else {
                vec![]
            },
        };
        prop_assert_eq!(DnsMessage::parse(&msg.emit()).unwrap(), msg.clone());
        let (tcp_parsed, consumed) = DnsMessage::parse_tcp(&msg.emit_tcp()).unwrap();
        prop_assert_eq!(tcp_parsed, msg.clone());
        prop_assert_eq!(consumed, msg.emit_tcp().len());
    }

    #[test]
    fn dhcp_roundtrip(
        xid in any::<u32>(),
        chaddr in any::<[u8; 6]>(),
        your in arb_addr(),
        router in arb_addr(),
        lease in any::<u32>(),
        n_dns in 0usize..64,
    ) {
        let mut msg = DhcpMessage::discover(xid, chaddr);
        msg.message_type = DhcpMessageType::Ack;
        msg.is_request_op = false;
        msg.your_addr = your;
        msg.router = Some(router);
        msg.lease_secs = Some(lease);
        msg.dns_servers = (0..n_dns).map(|i| Ipv4Addr::new(10, 0, 0, i as u8)).collect();
        prop_assert_eq!(DhcpMessage::parse(&msg.emit()).unwrap(), msg);
    }

    // Differential oracles for the RFC 1624 incremental NAT fast path: a
    // randomized rewrite applied incrementally must produce a buffer that is
    // byte-for-byte identical to setting the fields and recomputing every
    // checksum from scratch. The gateway only ships the incremental path, so
    // these tests are where the full-recompute reference lives.

    #[test]
    fn nat_tcp_rewrite_incremental_matches_full_recompute(
        src in arb_addr(),
        dst in arb_addr(),
        wan in arb_addr(),
        sport in any::<u16>(),
        dport in any::<u16>(),
        ext_port in any::<u16>(),
        ttl in 2u8..255,
        decrement in any::<bool>(),
        payload in proptest::collection::vec(any::<u8>(), 0..256),
    ) {
        let seg = TcpRepr::new(sport, dport, TcpFlags::ACK).emit_with_payload(src, dst, &payload);
        let mut repr = Ipv4Repr::new(src, dst, Protocol::Tcp);
        repr.ttl = ttl;
        let pkt = repr.emit_with_payload(&seg);
        let hl = Ipv4Packet::new_unchecked(&pkt[..]).header_len();

        // Incremental path, in the gateway's outbound rewrite order.
        let mut inc = pkt.clone();
        let mut delta = {
            let mut ip = Ipv4Packet::new_unchecked(&mut inc[..]);
            if decrement {
                let t = ip.ttl();
                ip.set_ttl_adjusted(t - 1);
            }
            ip.set_src_addr_adjusted(wan)
        };
        let mut tcp = TcpPacket::new_unchecked(&mut inc[hl..]);
        delta.update_word(sport, ext_port);
        tcp.set_src_port(ext_port);
        tcp.adjust_checksum(delta);

        // Full-recompute oracle.
        let mut full = pkt.clone();
        {
            let mut ip = Ipv4Packet::new_unchecked(&mut full[..]);
            if decrement {
                let t = ip.ttl();
                ip.set_ttl(t - 1);
            }
            ip.set_src_addr(wan);
            ip.fill_checksum();
        }
        let mut tcp = TcpPacket::new_unchecked(&mut full[hl..]);
        tcp.set_src_port(ext_port);
        tcp.fill_checksum(wan, dst);

        prop_assert_eq!(inc, full);
    }

    #[test]
    fn nat_udp_rewrite_incremental_matches_full_recompute(
        src in arb_addr(),
        dst in arb_addr(),
        internal in arb_addr(),
        sport in any::<u16>(),
        dport in any::<u16>(),
        int_port in any::<u16>(),
        payload in proptest::collection::vec(any::<u8>(), 0..256),
    ) {
        // Inbound-direction rewrite: destination address + destination port.
        let dgram = UdpRepr { src_port: sport, dst_port: dport }
            .emit_with_payload(src, dst, &payload);
        let pkt = Ipv4Repr::new(src, dst, Protocol::Udp).emit_with_payload(&dgram);
        let hl = Ipv4Packet::new_unchecked(&pkt[..]).header_len();

        let mut inc = pkt.clone();
        let mut delta = {
            let mut ip = Ipv4Packet::new_unchecked(&mut inc[..]);
            ip.set_dst_addr_adjusted(internal)
        };
        let mut udp = UdpPacket::new_unchecked(&mut inc[hl..]);
        delta.update_word(dport, int_port);
        udp.set_dst_port(int_port);
        udp.adjust_checksum(delta);

        let mut full = pkt.clone();
        {
            let mut ip = Ipv4Packet::new_unchecked(&mut full[..]);
            ip.set_dst_addr(internal);
            ip.fill_checksum();
        }
        let mut udp = UdpPacket::new_unchecked(&mut full[hl..]);
        udp.set_dst_port(int_port);
        udp.fill_checksum(src, internal);

        prop_assert_eq!(inc, full);
    }

    #[test]
    fn nat_udp_zero_checksum_stays_zero_under_both_modes(
        src in arb_addr(),
        dst in arb_addr(),
        wan in arb_addr(),
        sport in any::<u16>(),
        dport in any::<u16>(),
        ext_port in any::<u16>(),
        payload in proptest::collection::vec(any::<u8>(), 0..128),
    ) {
        // RFC 768: an all-zero stored checksum means "no checksum". Neither
        // mode may touch it — incremental skips the fixup, full recompute
        // skips the refill — so the datagram stays checksum-less.
        let dgram = UdpRepr { src_port: sport, dst_port: dport }
            .emit_with_payload(src, dst, &payload);
        let mut pkt = Ipv4Repr::new(src, dst, Protocol::Udp).emit_with_payload(&dgram);
        let hl = Ipv4Packet::new_unchecked(&pkt[..]).header_len();
        pkt[hl + 6] = 0; // zero the UDP checksum field
        pkt[hl + 7] = 0;

        let mut inc = pkt.clone();
        let mut delta = {
            let mut ip = Ipv4Packet::new_unchecked(&mut inc[..]);
            ip.set_src_addr_adjusted(wan)
        };
        let mut udp = UdpPacket::new_unchecked(&mut inc[hl..]);
        delta.update_word(sport, ext_port);
        udp.set_src_port(ext_port);
        udp.adjust_checksum(delta);
        prop_assert_eq!(udp.checksum(), 0);

        let mut full = pkt.clone();
        {
            let mut ip = Ipv4Packet::new_unchecked(&mut full[..]);
            ip.set_src_addr(wan);
            ip.fill_checksum();
        }
        let mut udp = UdpPacket::new_unchecked(&mut full[hl..]);
        udp.set_src_port(ext_port);
        // The reference leaves a zero checksum alone (RFC 3022 §4.1).

        prop_assert_eq!(inc, full);
    }

    #[test]
    fn dscp_and_ttl_word_adjustments_match_recompute(
        src in arb_addr(),
        dst in arb_addr(),
        tos in any::<u8>(),
        new_tos in any::<u8>(),
        ttl in 1u8..255,
        new_ttl in 1u8..255,
        payload in proptest::collection::vec(any::<u8>(), 0..64),
    ) {
        // The DSCP/TOS octet shares header word 0 with version/IHL, and TTL
        // shares word 4 with the protocol number: RFC 1624 word updates must
        // handle both shared-word rewrites.
        let mut repr = Ipv4Repr::new(src, dst, Protocol::Udp);
        repr.ttl = ttl;
        let mut pkt = repr.emit_with_payload(&payload);
        pkt[1] = tos;
        Ipv4Packet::new_unchecked(&mut pkt[..]).fill_checksum();

        let mut inc = pkt.clone();
        let mut delta = ChecksumDelta::new();
        let old0 = u16::from_be_bytes([inc[0], inc[1]]);
        inc[1] = new_tos;
        delta.update_word(old0, u16::from_be_bytes([inc[0], inc[1]]));
        let old4 = u16::from_be_bytes([inc[8], inc[9]]);
        inc[8] = new_ttl;
        delta.update_word(old4, u16::from_be_bytes([inc[8], inc[9]]));
        let ck = delta.apply(u16::from_be_bytes([inc[10], inc[11]]));
        inc[10..12].copy_from_slice(&ck.to_be_bytes());

        let mut full = pkt.clone();
        full[1] = new_tos;
        full[8] = new_ttl;
        Ipv4Packet::new_unchecked(&mut full[..]).fill_checksum();

        prop_assert_eq!(inc, full);
    }

    #[test]
    fn crc32c_slicing_matches_bytewise_oracle(
        data in proptest::collection::vec(any::<u8>(), 0..2048),
    ) {
        prop_assert_eq!(crc32c(&data), crc32c_bytewise(&data));
    }

    #[test]
    fn tcp_emit_onto_composes_identically_to_legacy_emit(
        src in arb_addr(),
        dst in arb_addr(),
        sport in any::<u16>(),
        dport in any::<u16>(),
        payload in proptest::collection::vec(any::<u8>(), 0..512),
    ) {
        // The appending emit path (IP header, then segment in place) must
        // produce the same bytes as emitting the segment separately and
        // wrapping it.
        let tcp = TcpRepr::new(sport, dport, TcpFlags::ACK | TcpFlags::PSH);
        let ip = Ipv4Repr::new(src, dst, Protocol::Tcp);
        let legacy = ip.emit_with_payload(&tcp.emit_with_payload(src, dst, &payload));
        let mut onto = Vec::new();
        ip.emit_header_into(tcp.segment_len(payload.len()), &mut onto);
        tcp.emit_with_payload_onto(src, dst, &payload, &mut onto);
        prop_assert_eq!(legacy, onto);
    }

    /// `Ipv4Repr::write_header` builds and sums the fixed header from its
    /// fields: its bytes must equal a header laid out byte by byte and
    /// checksummed from memory, over garbage it fully overwrites.
    #[test]
    fn ipv4_header_from_fields_matches_byte_sum(
        src in arb_addr(),
        dst in arb_addr(),
        ttl in any::<u8>(),
        ident in any::<u16>(),
        dont_frag in any::<bool>(),
        protocol in any::<u8>(),
        record_route in any::<bool>(),
        payload_len in 0usize..1481,
    ) {
        let mut ip = Ipv4Repr::new(src, dst, Protocol::from(protocol));
        ip.ttl = ttl;
        ip.ident = ident;
        ip.dont_frag = dont_frag;
        if record_route {
            ip.options = vec![Ipv4Option::RecordRoute { pointer: 4, data: vec![0; 8] }];
        }
        let hl = ip.header_len();
        let mut got = vec![0xA5; hl];
        ip.write_header(payload_len, &mut got);

        let total = ((hl + payload_len) as u16).to_be_bytes();
        let mut want = vec![0x40 | (hl / 4) as u8, 0, total[0], total[1]];
        want.extend_from_slice(&ident.to_be_bytes());
        want.extend_from_slice(&[if dont_frag { 0x40 } else { 0 }, 0, ttl, protocol, 0, 0]);
        want.extend_from_slice(&src.octets());
        want.extend_from_slice(&dst.octets());
        if record_route {
            want.extend_from_slice(&[7, 11, 4, 0, 0, 0, 0, 0, 0, 0, 0, 0]);
        }
        let ck = internet_checksum(&want);
        want[10..12].copy_from_slice(&ck.to_be_bytes());
        prop_assert_eq!(got, want);
    }

    /// `TcpRepr::write_header_with_sum` against a segment laid out byte by
    /// byte and checksummed from memory, for every flag byte.
    #[test]
    fn tcp_header_from_fields_matches_byte_sum(
        src in arb_addr(),
        dst in arb_addr(),
        ports in any::<[u8; 4]>(),
        seq in any::<u32>(),
        ack in any::<u32>(),
        window in any::<u16>(),
        with_mss in any::<bool>(),
        mss_value in any::<u16>(),
        payload in proptest::collection::vec(any::<u8>(), 0..64),
    ) {
        let sport = u16::from_be_bytes([ports[0], ports[1]]);
        let dport = u16::from_be_bytes([ports[2], ports[3]]);
        let mss = with_mss.then_some(mss_value);
        for flags in 0..=u8::MAX {
            let mut tcp = TcpRepr::new(sport, dport, TcpFlags(flags));
            tcp.seq = SeqNumber(seq);
            tcp.ack = SeqNumber(ack);
            tcp.window = window;
            tcp.options = mss.map(TcpOption::MaxSegmentSize).into_iter().collect();
            let hl = tcp.header_len();
            let mut got = vec![0xA5; hl];
            got.extend_from_slice(&payload);
            let mut scratch = Vec::new();
            let payload_sum = hgw_wire::checksum::copy_and_checksum(&payload, &mut scratch);
            tcp.write_header_with_sum(src, dst, payload.len(), payload_sum, &mut got);

            let mut want = ports.to_vec();
            want.extend_from_slice(&seq.to_be_bytes());
            want.extend_from_slice(&ack.to_be_bytes());
            want.extend_from_slice(&[((hl / 4) as u8) << 4, flags]);
            want.extend_from_slice(&window.to_be_bytes());
            want.extend_from_slice(&[0, 0, 0, 0]);
            if let Some(m) = mss {
                want.extend_from_slice(&[2, 4]);
                want.extend_from_slice(&m.to_be_bytes());
            }
            want.extend_from_slice(&payload);
            let ck = transport_checksum(src, dst, 6, &want);
            want[16..18].copy_from_slice(&ck.to_be_bytes());
            prop_assert_eq!(&got, &want, "flags {:#04x}", flags);
        }
    }

    /// `UdpRepr::emit_onto` against a datagram laid out byte by byte and
    /// checksummed from memory, odd payload lengths included, appended
    /// after a prefix of either parity.
    #[test]
    fn udp_header_from_fields_matches_byte_sum(
        src in arb_addr(),
        dst in arb_addr(),
        sport in any::<u16>(),
        dport in any::<u16>(),
        prefix in 0usize..3,
        payload in proptest::collection::vec(any::<u8>(), 0..300),
    ) {
        let mut got = vec![0x5A; prefix];
        UdpRepr { src_port: sport, dst_port: dport }.emit_onto(src, dst, &payload, &mut got);

        let mut want = sport.to_be_bytes().to_vec();
        want.extend_from_slice(&dport.to_be_bytes());
        want.extend_from_slice(&((8 + payload.len()) as u16).to_be_bytes());
        want.extend_from_slice(&[0, 0]);
        want.extend_from_slice(&payload);
        let ck = transport_checksum(src, dst, 17, &want);
        want[6..8].copy_from_slice(&ck.to_be_bytes());
        prop_assert_eq!(&got[prefix..], &want[..]);
    }

    #[test]
    fn parser_never_panics_on_garbage(data in proptest::collection::vec(any::<u8>(), 0..128)) {
        // Fuzz every parser entry point: errors are fine, panics are not.
        let _ = Ipv4Packet::new_checked(&data[..]);
        let _ = UdpPacket::new_checked(&data[..]);
        let _ = TcpPacket::new_checked(&data[..]);
        let _ = IcmpRepr::parse(&data);
        let _ = SctpRepr::parse(&data);
        let _ = DccpRepr::parse(&data, Ipv4Addr::UNSPECIFIED, Ipv4Addr::UNSPECIFIED);
        let _ = DnsMessage::parse(&data);
        let _ = DnsMessage::parse_tcp(&data);
        let _ = DhcpMessage::parse(&data);
        if let Ok(p) = Ipv4Packet::new_checked(&data[..]) {
            let _ = p.options();
        }
        if let Ok(p) = TcpPacket::new_checked(&data[..]) {
            let _ = p.options();
        }
    }
}
