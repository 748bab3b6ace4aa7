//! Internet checksum (RFC 1071) and CRC-32c (RFC 4960 Appendix B).
//!
//! Correct checksum handling is itself one of the paper's measured
//! behaviors: Table 2 records devices (zy1, ls1) that fail to fix up the
//! checksums of transport headers *embedded in ICMP payloads*, and SCTP's
//! CRC-32c — which does not cover a network pseudo-header — is the reason
//! some NATs pass SCTP with a plain IP-address rewrite (§4.3).

use std::net::Ipv4Addr;

/// Computes the one's-complement Internet checksum over `data`.
///
/// Returns the value ready to be stored in a header checksum field (i.e.,
/// already complemented). Odd-length data is virtually zero-padded.
pub fn internet_checksum(data: &[u8]) -> u16 {
    !fold(sum(data, 0))
}

/// Running one's-complement sum, resumable via `acc`; `acc` and the result
/// stay in the big-endian 16-bit-pair space of the `sum_bytewise` oracle.
/// Three paths, all proven against that oracle (the `wide_*` tests and the
/// `matches_oracle`/`split_composes` proptests): an option-less 20-byte
/// IPv4 or TCP header (every such header a verify reads) takes five fixed
/// `u32` loads, other inputs under 64 bytes a `u32`-word loop, and longer
/// ones the wide path.
pub(crate) fn sum(data: &[u8], acc: u32) -> u32 {
    if let Ok(header) = <&[u8; 20]>::try_from(data) {
        let word = |i: usize| u32::from_le_bytes(header[i..i + 4].try_into().unwrap()) as u64;
        return acc + to_pair_space(word(0) + word(4) + word(8) + word(12) + word(16));
    }
    if data.len() < 64 {
        return acc + to_pair_space(sum_words(data));
    }
    sum_wide(data, acc)
}

/// The byte-pair reference loop: two bytes per step, big-endian pairs.
/// Kept as the differential oracle every production path is proven
/// against; not used on any hot path.
#[cfg(test)]
fn sum_bytewise(data: &[u8], mut acc: u32) -> u32 {
    let mut chunks = data.chunks_exact(2);
    for c in &mut chunks {
        acc += u16::from_be_bytes([c[0], c[1]]) as u32;
    }
    if let [last] = chunks.remainder() {
        acc += (*last as u32) << 8;
    }
    acc
}

/// Little-endian word sum of short inputs and wide-path tails: one `u32`
/// load per four bytes, the last 1–3 bytes zero-padded into one more word.
/// The result is in the little-endian space of [`sum_wide`]'s lanes.
fn sum_words(data: &[u8]) -> u64 {
    let mut chunks = data.chunks_exact(4);
    let mut acc = 0u64;
    for c in &mut chunks {
        acc += u32::from_le_bytes(c.try_into().unwrap()) as u64;
    }
    let rest = chunks.remainder();
    let mut last = [0u8; 4];
    last[..rest.len()].copy_from_slice(rest);
    acc + u32::from_le_bytes(last) as u64
}

/// Converts a little-endian word accumulator into a big-endian pair-space
/// value: because the one's-complement sum is byte-order independent
/// (RFC 1071 §2.B), folding the LE total to 16 bits and byte-swapping it
/// yields exactly the big-endian pair sum (zero stays zero, so a resumed
/// sum folds to the same value).
fn to_pair_space(le: u64) -> u32 {
    let (lo, carry) = (le as u32).overflowing_add((le >> 32) as u32);
    fold(lo + carry as u32).swap_bytes() as u32
}

/// Wide-word one's-complement sum: four independent u128 lanes each
/// folding u64 loads, 32 bytes per step of straight-line integer adds. The
/// lanes accumulate *little-endian* 16-bit words (a `u64` native load on LE
/// hardware) and finish through [`to_pair_space`]. The u128 lanes cannot
/// overflow on any realistic input (that would take ~2^57 bytes), so unlike
/// a u32 byte-pair accumulator this path is safe for arbitrarily large
/// buffers.
fn sum_wide(data: &[u8], acc: u32) -> u32 {
    // Split at a multiple of 32 so every pair in the wide part sits at an
    // even offset (byte-swap equivalence needs intact pairs).
    let (wide, tail) = data.split_at(data.len() & !31);
    let (mut l0, mut l1, mut l2, mut l3) = (0u128, 0u128, 0u128, 0u128);
    for block in wide.chunks_exact(32) {
        l0 += u64::from_le_bytes(block[0..8].try_into().unwrap()) as u128;
        l1 += u64::from_le_bytes(block[8..16].try_into().unwrap()) as u128;
        l2 += u64::from_le_bytes(block[16..24].try_into().unwrap()) as u128;
        l3 += u64::from_le_bytes(block[24..32].try_into().unwrap()) as u128;
    }
    let le = fold_wide(l0 + l1 + l2 + l3);
    // A tail is under 32 bytes, so its word sum is under 2^35: adding it
    // carries out of the u64 at most once.
    let (le, carry) = le.overflowing_add(sum_words(tail));
    acc + to_pair_space(le + carry as u64)
}

/// Folds a wide one's-complement accumulator to 64 bits with one
/// end-around carry (2^64 ≡ 1 modulo 0xFFFF, and the sum of two halves
/// that overflows is at most 2^64 − 2, so adding the carry cannot
/// overflow again).
fn fold_wide(acc: u128) -> u64 {
    let (lo, carry) = (acc as u64).overflowing_add((acc >> 64) as u64);
    lo + carry as u64
}

/// The pair-space sum of header words built in registers, for emitters
/// that checksum a header from its fields instead of re-reading the bytes
/// they just stored. Each word is a big-endian `u32` of the header; as
/// 2^16 ≡ 1 modulo 0xFFFF, a word's integer value counts as its two 16-bit
/// pairs, so the folded total of the words is what [`sum`] returns for
/// their bytes (`header_words_match_the_byte_sum` checks it).
pub(crate) fn sum_header_words(words: &[u32]) -> u32 {
    let total: u64 = words.iter().map(|&w| w as u64).sum();
    let (lo, carry) = (total as u32).overflowing_add((total >> 32) as u32);
    fold(lo + carry as u32) as u32
}

/// Folds a u32 accumulator to 16 bits with end-around carries. Two fixed
/// steps always suffice: the first leaves at most 0x1_FFFE, and the second
/// adds a carry of at most 1 to a low half of at most 0xFFFE.
pub(crate) fn fold(acc: u32) -> u16 {
    let acc = (acc & 0xFFFF) + (acc >> 16);
    ((acc & 0xFFFF) + (acc >> 16)) as u16
}

/// An RFC 1624 incremental checksum update: the accumulated `~m + m'`
/// contributions of every 16-bit word that changed in the covered data.
///
/// NAT rewrites touch a handful of header words (addresses, ports, TTL)
/// inside segments that can carry 1460 bytes of payload; re-summing the
/// whole segment on every hop is the dominant per-frame cost. A delta
/// instead folds only the changed words into the stored checksum:
/// `HC' = ~(~HC + ~m + m')` (RFC 1624 eqn. 3, avoiding the RFC 1141
/// negative-zero bug). One delta can be applied to several checksums that
/// cover the same words — e.g. an address change patches both the IPv4
/// header checksum and the transport pseudo-header checksum.
#[derive(Debug, Clone, Copy, Default)]
pub struct ChecksumDelta {
    acc: u32,
}

impl ChecksumDelta {
    /// An empty delta (applying it leaves a checksum unchanged).
    pub const fn new() -> ChecksumDelta {
        ChecksumDelta { acc: 0 }
    }

    /// Records a 16-bit word changing from `old` to `new`.
    pub fn update_word(&mut self, old: u16, new: u16) {
        self.acc += (!old) as u32 + new as u32;
    }

    /// Records a 32-bit (two-word) field changing from `old` to `new`.
    pub fn update_u32(&mut self, old: u32, new: u32) {
        self.update_word((old >> 16) as u16, (new >> 16) as u16);
        self.update_word(old as u16, new as u16);
    }

    /// Records an IPv4 address changing from `old` to `new`.
    pub fn update_addr(&mut self, old: Ipv4Addr, new: Ipv4Addr) {
        self.update_u32(u32::from(old), u32::from(new));
    }

    /// Applies the delta to a stored checksum value (e.g. the IPv4 header
    /// checksum). Bit-identical to zeroing the field and re-summing, for
    /// any packet whose stored checksum was produced by a full sum.
    pub fn apply(self, checksum: u16) -> u16 {
        !fold((!checksum) as u32 + self.acc)
    }

    /// Applies the delta to a stored *transport* checksum, reproducing the
    /// RFC 768 mapping of [`transport_checksum`]: an all-zero result is
    /// emitted as `0xFFFF`. Use for TCP and UDP checksum fields.
    pub fn apply_transport(self, checksum: u16) -> u16 {
        let ck = self.apply(checksum);
        if ck == 0 {
            0xFFFF
        } else {
            ck
        }
    }
}

/// One-shot RFC 1624 adjustment: patches `checksum` for a single 16-bit
/// word changing from `old` to `new`.
pub fn checksum_adjust(checksum: u16, old: u16, new: u16) -> u16 {
    let mut delta = ChecksumDelta::new();
    delta.update_word(old, new);
    delta.apply(checksum)
}

/// Appends `data` to `out` and returns its one's-complement byte-pair sum
/// — the bulk-path kernel: the payload is summed as it is copied, so a
/// segment is never re-read later to fill its checksum.
///
/// The returned value is a running accumulator in the same big-endian
/// 16-bit-pair space as the rest of this module, computed as if `data`
/// started at an *even* byte offset (odd-length data is virtually
/// zero-padded, matching RFC 1071). Accumulators compose by addition;
/// a region appended at an odd offset contributes its sum byte-swapped
/// ([`swap_pair_sum`]) — the standard RFC 1071 §2.B identity. Finish a
/// composed transport sum with [`finish_transport_checksum`].
///
/// The copy is one `extend_from_slice` (a plain memcpy), followed by the
/// same sum as [`internet_checksum`] over the still-cached source: a loop
/// interleaving the copy per 32-byte block pays a `Vec` capacity check on
/// every block and is slower (DESIGN.md §12). Proven against the
/// copy-then-bytewise oracle in unit tests and proptests over odd lengths,
/// chunk splits, and >64 KiB payloads.
pub fn copy_and_checksum(data: &[u8], out: &mut Vec<u8>) -> u32 {
    out.extend_from_slice(data);
    sum(data, 0)
}

/// Byte-swaps a pair-space accumulator, re-aligning a sum computed at an
/// even offset for use at an odd offset (or vice versa) — RFC 1071 §2.B:
/// the one's-complement sum is byte-order independent, so shifting a
/// region's alignment by one byte exactly swaps the two sum bytes.
pub fn swap_pair_sum(acc: u32) -> u32 {
    fold(acc).swap_bytes() as u32
}

/// Folds a composed transport accumulator (pseudo-header + header +
/// payload sums) into the on-wire checksum field value, applying the
/// RFC 768 zero mapping (an all-zero result is transmitted as `0xFFFF`;
/// harmless for TCP).
pub fn finish_transport_checksum(acc: u32) -> u16 {
    let folded = !fold(acc);
    if folded == 0 {
        0xFFFF
    } else {
        folded
    }
}

/// The IPv4 pseudo-header sum used by UDP, TCP and DCCP checksums.
///
/// Public so single-pass emitters can compose it with
/// [`copy_and_checksum`] payload sums and finish with
/// [`finish_transport_checksum`] instead of re-reading the whole segment
/// through [`transport_checksum`].
pub fn pseudo_header_sum(src: Ipv4Addr, dst: Ipv4Addr, protocol: u8, length: u32) -> u32 {
    let s = src.octets();
    let d = dst.octets();
    let mut acc = 0u32;
    acc += u16::from_be_bytes([s[0], s[1]]) as u32;
    acc += u16::from_be_bytes([s[2], s[3]]) as u32;
    acc += u16::from_be_bytes([d[0], d[1]]) as u32;
    acc += u16::from_be_bytes([d[2], d[3]]) as u32;
    acc += protocol as u32;
    acc += length >> 16;
    acc += length & 0xFFFF;
    acc
}

/// Computes the checksum of a transport segment (`data` with its checksum
/// field zeroed) covered by the IPv4 pseudo-header.
pub fn transport_checksum(src: Ipv4Addr, dst: Ipv4Addr, protocol: u8, data: &[u8]) -> u16 {
    let acc = sum(data, pseudo_header_sum(src, dst, protocol, data.len() as u32));
    finish_transport_checksum(acc)
}

/// Verifies a transport segment whose checksum field is still in place.
pub fn verify_transport_checksum(src: Ipv4Addr, dst: Ipv4Addr, protocol: u8, data: &[u8]) -> bool {
    let acc = sum(data, pseudo_header_sum(src, dst, protocol, data.len() as u32));
    fold(acc) == 0xFFFF
}

/// Slicing-by-8 lookup tables: `TABLES[0]` is the classic bytewise table,
/// `TABLES[k]` advances a byte through `k` additional zero bytes. 8 KiB,
/// generated at first use.
fn crc32c_tables() -> &'static [[u32; 256]; 8] {
    static TABLES: std::sync::OnceLock<Box<[[u32; 256]; 8]>> = std::sync::OnceLock::new();
    TABLES.get_or_init(|| {
        let mut t = Box::new([[0u32; 256]; 8]);
        for i in 0..256usize {
            let mut crc = i as u32;
            for _ in 0..8 {
                crc = if crc & 1 != 0 { (crc >> 1) ^ 0x82F6_3B78 } else { crc >> 1 };
            }
            t[0][i] = crc;
        }
        for k in 1..8 {
            for i in 0..256usize {
                let prev = t[k - 1][i];
                t[k][i] = (prev >> 8) ^ t[0][(prev & 0xFF) as usize];
            }
        }
        t
    })
}

/// CRC-32c (Castagnoli), as used by SCTP. Bit-reflected, slicing-by-8:
/// eight bytes per step, each byte resolved through its own table so the
/// lookups have no serial dependency. [`crc32c_bytewise`] is the reference
/// implementation the tests check this against.
pub fn crc32c(data: &[u8]) -> u32 {
    let t = crc32c_tables();
    let mut crc = 0xFFFF_FFFFu32;
    let mut chunks = data.chunks_exact(8);
    for c in &mut chunks {
        let lo = crc ^ u32::from_le_bytes([c[0], c[1], c[2], c[3]]);
        let hi = u32::from_le_bytes([c[4], c[5], c[6], c[7]]);
        crc = t[7][(lo & 0xFF) as usize]
            ^ t[6][((lo >> 8) & 0xFF) as usize]
            ^ t[5][((lo >> 16) & 0xFF) as usize]
            ^ t[4][(lo >> 24) as usize]
            ^ t[3][(hi & 0xFF) as usize]
            ^ t[2][((hi >> 8) & 0xFF) as usize]
            ^ t[1][((hi >> 16) & 0xFF) as usize]
            ^ t[0][(hi >> 24) as usize];
    }
    for &b in chunks.remainder() {
        crc = (crc >> 8) ^ t[0][((crc ^ b as u32) & 0xFF) as usize];
    }
    !crc
}

/// The straightforward one-byte-per-step CRC-32c. Kept as the differential
/// oracle for [`crc32c`]; not used on any hot path.
pub fn crc32c_bytewise(data: &[u8]) -> u32 {
    let t = &crc32c_tables()[0];
    let mut crc = 0xFFFF_FFFFu32;
    for &b in data {
        crc = (crc >> 8) ^ t[((crc ^ b as u32) & 0xFF) as usize];
    }
    !crc
}

/// Computes the SCTP packet checksum: CRC-32c over the packet with the
/// checksum field zeroed, stored little-endian per RFC 4960 — we return the
/// value to store with [`crate::field::write_u32`] big-endian, so we
/// byte-swap here.
pub fn sctp_checksum(packet_with_zeroed_checksum: &[u8]) -> u32 {
    crc32c(packet_with_zeroed_checksum).swap_bytes()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rfc1071_example() {
        // Classic example: 0001 f203 f4f5 f6f7 → sum 0xddf2, checksum 0x220d.
        let data = [0x00, 0x01, 0xf2, 0x03, 0xf4, 0xf5, 0xf6, 0xf7];
        assert_eq!(internet_checksum(&data), 0x220d);
    }

    #[test]
    fn odd_length_padded() {
        // 0x01 alone contributes 0x0100.
        assert_eq!(internet_checksum(&[0x01]), !0x0100);
    }

    #[test]
    fn checksum_of_data_with_own_checksum_verifies() {
        let mut data = vec![0x45, 0x00, 0x00, 0x1c, 0x12, 0x34, 0x00, 0x00, 0x40, 0x11, 0x00, 0x00];
        let ck = internet_checksum(&data);
        data[10..12].copy_from_slice(&ck.to_be_bytes());
        assert_eq!(fold(sum(&data, 0)), 0xFFFF);
    }

    #[test]
    fn transport_checksum_roundtrip() {
        let src = Ipv4Addr::new(192, 168, 1, 2);
        let dst = Ipv4Addr::new(10, 0, 1, 1);
        // A fake UDP segment: ports 4000→53, len 12, zero checksum, 4 payload bytes.
        let mut seg = vec![0x0F, 0xA0, 0x00, 0x35, 0x00, 0x0C, 0x00, 0x00, 0xDE, 0xAD, 0xBE, 0xEF];
        let ck = transport_checksum(src, dst, 17, &seg);
        seg[6..8].copy_from_slice(&ck.to_be_bytes());
        assert!(verify_transport_checksum(src, dst, 17, &seg));
        // Any single-byte corruption must break it.
        seg[9] ^= 0x01;
        assert!(!verify_transport_checksum(src, dst, 17, &seg));
    }

    #[test]
    fn transport_checksum_depends_on_addresses() {
        let seg = [0u8; 8];
        let a = transport_checksum(Ipv4Addr::new(1, 2, 3, 4), Ipv4Addr::new(5, 6, 7, 8), 6, &seg);
        let b = transport_checksum(Ipv4Addr::new(1, 2, 3, 5), Ipv4Addr::new(5, 6, 7, 8), 6, &seg);
        assert_ne!(a, b, "pseudo-header must cover the source address");
    }

    /// Overflow-proof reference checksum: the RFC 1071 byte-pair sum with
    /// a u64 accumulator, written independently of both production paths.
    fn oracle_checksum(data: &[u8]) -> u16 {
        let mut acc: u64 = 0;
        let mut chunks = data.chunks_exact(2);
        for c in &mut chunks {
            acc += u16::from_be_bytes([c[0], c[1]]) as u64;
        }
        if let [last] = chunks.remainder() {
            acc += (*last as u64) << 8;
        }
        while acc > 0xFFFF {
            acc = (acc & 0xFFFF) + (acc >> 16);
        }
        !(acc as u16)
    }

    /// Deterministic pseudo-random fill (no rand dependency).
    fn lcg_fill(len: usize, mut state: u64) -> Vec<u8> {
        (0..len)
            .map(|_| {
                state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                (state >> 33) as u8
            })
            .collect()
    }

    /// Word sums of headers built in registers equal the byte sum of the
    /// stored words, the all-ones and all-zero extremes included.
    #[test]
    fn header_words_match_the_byte_sum() {
        let bytes = lcg_fill(4 * 5 * 200, 0x5EED);
        let mut cases: Vec<Vec<u32>> = bytes
            .chunks_exact(20)
            .map(|h| h.chunks_exact(4).map(|w| u32::from_be_bytes(w.try_into().unwrap())).collect())
            .collect();
        cases.extend([vec![u32::MAX; 5], vec![0; 5], vec![0xFFFF_0000, 0xFFFF], vec![1], vec![]]);
        for words in cases {
            let stored: Vec<u8> = words.iter().flat_map(|w| w.to_be_bytes()).collect();
            let got = sum_header_words(&words);
            assert_eq!(got, sum(&stored, 0), "{words:x?}");
            assert_eq!(got as u16, fold(sum_bytewise(&stored, 0)), "{words:x?}");
        }
    }

    #[test]
    fn wide_matches_bytewise_all_lengths_and_offsets() {
        // Every split phase around the 64-byte wide threshold and the
        // 32-byte block size, at every alignment and odd/even length: the
        // fixed 20-byte path, the short word loop and the wide path with
        // every tail length.
        let data = lcg_fill(400, 7);
        for start in 0..8 {
            for len in 0..data.len() - start {
                let slice = &data[start..start + len];
                assert_eq!(
                    internet_checksum(slice),
                    oracle_checksum(slice),
                    "len={len} start={start}"
                );
                // The resumable form must agree for a nonzero running acc.
                assert_eq!(
                    fold(sum(slice, 0x1234)),
                    fold(sum_bytewise(slice, 0x1234)),
                    "resumed len={len} start={start}"
                );
            }
        }
        // All-ones words maximize the fixed and short paths' carries; the
        // running accs include a one's-complement zero (0xFFFF) and one
        // already past 16 bits, as a composed transport sum is.
        let ones = [0xFFu8; 134];
        for input in [&data[..134], &ones[..]] {
            for start in 0..4 {
                for len in 0..=130 {
                    let slice = &input[start..start + len];
                    for acc in [0x1234, 0xFFFF, 0x0003_FFFD] {
                        assert_eq!(
                            fold(sum(slice, acc)),
                            fold(sum_bytewise(slice, acc)),
                            "len={len} start={start} acc={acc:#x}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn wide_handles_all_ones_carry_cascades() {
        // All-0xFF input maximizes every lane and forces the longest
        // end-around carry chains through fold_wide.
        for len in [64, 65, 95, 96, 1460, 4096, 65535, 65536] {
            let data = vec![0xFFu8; len];
            assert_eq!(internet_checksum(&data), oracle_checksum(&data), "len={len}");
        }
        // A single 0x00FF word amid 0xFFFF words exercises partial carries.
        let mut data = vec![0xFFu8; 1460];
        data[730] = 0x00;
        assert_eq!(internet_checksum(&data), oracle_checksum(&data));
        // The two-step u32 fold agrees with the looping fold at its edges.
        for acc in [0u32, 0xFFFF, 0x1_0000, 0x1_FFFE, 0xFFFE_FFFF, 0xFFFF_0000, u32::MAX] {
            assert_eq!(fold(acc), fold64(acc as u64), "acc={acc:#x}");
        }
    }

    #[test]
    fn wide_matches_oracle_beyond_64k() {
        // Buffers past 64 KiB would overflow a u32 byte-pair accumulator
        // in the worst case; the wide path must stay exact.
        for (len, seed) in [(65_537, 1u64), (100_000, 2), (196_608, 3)] {
            let data = lcg_fill(len, seed);
            assert_eq!(internet_checksum(&data), oracle_checksum(&data), "len={len}");
        }
        let ones = vec![0xFFu8; 196_608];
        assert_eq!(internet_checksum(&ones), oracle_checksum(&ones));
    }

    #[test]
    fn wide_transport_checksum_matches_scalar_segment() {
        // The gateway-visible contract: a 1460-byte TCP segment's
        // pseudo-header checksum via the wide path equals the bytewise sum.
        let src = Ipv4Addr::new(192, 168, 1, 2);
        let dst = Ipv4Addr::new(10, 0, 1, 1);
        // Segment with the trailing checksum field zeroed, as on emission.
        let mut seg = lcg_fill(1460, 11);
        seg[1458] = 0;
        seg[1459] = 0;
        let wide = transport_checksum(src, dst, 6, &seg);
        let scalar = {
            let acc = sum_bytewise(&seg, pseudo_header_sum(src, dst, 6, seg.len() as u32));
            let folded = !fold(acc);
            if folded == 0 {
                0xFFFF
            } else {
                folded
            }
        };
        assert_eq!(wide, scalar);
        // And verification accepts the wide path's own emission.
        seg[1458..].copy_from_slice(&wide.to_be_bytes());
        assert!(verify_transport_checksum(src, dst, 6, &seg));
    }

    #[test]
    fn crc32c_test_vectors() {
        // Well-known CRC-32c vectors.
        assert_eq!(crc32c(b"123456789"), 0xE306_9283);
        assert_eq!(crc32c(b""), 0x0000_0000);
        assert_eq!(crc32c(&[0u8; 32]), 0x8A91_36AA);
    }

    #[test]
    fn crc32c_matches_bytewise_oracle_all_lengths() {
        // Exercise every chunk remainder (0..8) and alignment phase.
        let data: Vec<u8> = (0..64u32).map(|i| (i.wrapping_mul(167) ^ 0x5A) as u8).collect();
        for len in 0..data.len() {
            for start in 0..4.min(len + 1) {
                let slice = &data[start..len];
                assert_eq!(crc32c(slice), crc32c_bytewise(slice), "len={len} start={start}");
            }
        }
        assert_eq!(crc32c_bytewise(b"123456789"), 0xE306_9283);
    }

    #[test]
    fn checksum_adjust_matches_full_recompute() {
        // An IPv4-like header: change one word, adjust vs re-sum.
        let mut data = vec![0x45, 0x00, 0x00, 0x1c, 0x12, 0x34, 0x00, 0x00, 0x40, 0x11, 0x00, 0x00];
        let ck = internet_checksum(&data);
        data[10..12].copy_from_slice(&ck.to_be_bytes());
        // Rewrite the ident word 0x1234 -> 0xBEEF.
        let adjusted = checksum_adjust(ck, 0x1234, 0xBEEF);
        data[4..6].copy_from_slice(&0xBEEFu16.to_be_bytes());
        data[10..12].copy_from_slice(&[0, 0]);
        assert_eq!(adjusted, internet_checksum(&data));
    }

    #[test]
    fn delta_applies_to_transport_with_zero_mapping() {
        let src = Ipv4Addr::new(192, 168, 1, 2);
        let new_src = Ipv4Addr::new(10, 0, 1, 99);
        let dst = Ipv4Addr::new(10, 0, 1, 1);
        let mut seg = vec![0x0F, 0xA0, 0x00, 0x35, 0x00, 0x0C, 0x00, 0x00, 0xDE, 0xAD, 0xBE, 0xEF];
        let ck = transport_checksum(src, dst, 17, &seg);
        seg[6..8].copy_from_slice(&ck.to_be_bytes());
        // NAT-style rewrite: source address and port change together.
        let mut delta = ChecksumDelta::new();
        delta.update_addr(src, new_src);
        delta.update_word(0x0FA0, 61001);
        let adjusted = delta.apply_transport(ck);
        seg[0..2].copy_from_slice(&61001u16.to_be_bytes());
        seg[6..8].copy_from_slice(&[0, 0]);
        assert_eq!(adjusted, transport_checksum(new_src, dst, 17, &seg));
    }

    #[test]
    fn delta_word_to_all_ones_and_back() {
        // The RFC 1141 negative-zero trap: m = 0xFFFF and m' = 0x0000 are
        // both representations of one's-complement zero; eqn. 3 must still
        // agree with a full recompute in both directions.
        for (old_word, new_word) in [(0xFFFFu16, 0x0000u16), (0x0000, 0xFFFF)] {
            let mut data = vec![0x45, 0x00, 0, 0, 0, 0, 0, 0, 0x40, 0x06, 0x00, 0x00];
            data[4..6].copy_from_slice(&old_word.to_be_bytes());
            let ck = internet_checksum(&data);
            let adjusted = checksum_adjust(ck, old_word, new_word);
            data[4..6].copy_from_slice(&new_word.to_be_bytes());
            assert_eq!(adjusted, internet_checksum(&data), "{old_word:04x}->{new_word:04x}");
        }
    }

    #[test]
    fn empty_delta_is_identity() {
        for ck in [0x0000u16, 0x1234, 0xFFFE] {
            assert_eq!(ChecksumDelta::new().apply(ck), ck);
        }
        // 0xFFFF stored: ~HC = 0, folds to 0, complements back to 0xFFFF.
        assert_eq!(ChecksumDelta::new().apply(0xFFFF), 0xFFFF);
    }

    /// Reference for the fused kernel: plain copy, then the independent
    /// u64 bytewise pair-sum (un-complemented, un-folded accumulator).
    fn copy_then_oracle_sum(data: &[u8], out: &mut Vec<u8>) -> u64 {
        out.extend_from_slice(data);
        let mut acc: u64 = 0;
        let mut chunks = data.chunks_exact(2);
        for c in &mut chunks {
            acc += u16::from_be_bytes([c[0], c[1]]) as u64;
        }
        if let [last] = chunks.remainder() {
            acc += (*last as u64) << 8;
        }
        acc
    }

    fn fold64(mut acc: u64) -> u16 {
        while acc > 0xFFFF {
            acc = (acc & 0xFFFF) + (acc >> 16);
        }
        acc as u16
    }

    #[test]
    fn copy_and_checksum_matches_copy_then_oracle_all_lengths() {
        // Every split phase around the 64-byte threshold and 32-byte block
        // size, at every alignment, odd and even lengths.
        let data = lcg_fill(400, 13);
        for start in 0..8 {
            for len in 0..data.len() - start {
                let slice = &data[start..start + len];
                let mut fused = vec![0xA5u8; 3]; // nonempty destination
                let mut plain = vec![0xA5u8; 3];
                let acc = copy_and_checksum(slice, &mut fused);
                let oracle = copy_then_oracle_sum(slice, &mut plain);
                assert_eq!(fused, plain, "copied bytes len={len} start={start}");
                assert_eq!(fold(acc), fold64(oracle), "sum len={len} start={start}");
            }
        }
    }

    #[test]
    fn copy_and_checksum_carry_cascades_and_large() {
        // All-0xFF maximizes lane carries; >64 KiB would overflow a u32
        // bytewise accumulator in the worst case.
        for len in [64usize, 65, 95, 1460, 65_537, 196_608] {
            let data = vec![0xFFu8; len];
            let (mut fused, mut plain) = (Vec::new(), Vec::new());
            let acc = copy_and_checksum(&data, &mut fused);
            let oracle = copy_then_oracle_sum(&data, &mut plain);
            assert_eq!(fused, plain, "len={len}");
            assert_eq!(fold(acc), fold64(oracle), "len={len}");
        }
    }

    #[test]
    fn chunked_copy_and_checksum_composes_with_parity_swap() {
        // Emulate the ByteQueue bulk path: the payload arrives as chunks
        // split at arbitrary (including odd) boundaries; per-chunk fused
        // sums composed with the RFC 1071 §2.B byte-swap identity must
        // equal the whole-payload checksum.
        let data = lcg_fill(10_000, 29);
        for splits in [vec![0], vec![1], vec![4096], vec![4095, 8191], vec![1, 2, 3, 5000]] {
            let mut out = Vec::new();
            let mut acc: u32 = 0;
            let mut prev = 0usize;
            let mut bounds = splits.clone();
            bounds.push(data.len());
            for b in bounds {
                let part = copy_and_checksum(&data[prev..b], &mut out);
                // A chunk starting at an odd offset contributes byte-swapped.
                acc += if prev.is_multiple_of(2) { part } else { swap_pair_sum(part) };
                prev = b;
            }
            assert_eq!(out, data, "splits={splits:?}");
            assert_eq!(fold(acc), fold(sum_bytewise(&data, 0)), "composed sum splits={splits:?}");
        }
    }

    #[test]
    fn finish_transport_checksum_matches_transport_checksum() {
        let src = Ipv4Addr::new(192, 168, 1, 2);
        let dst = Ipv4Addr::new(10, 0, 1, 1);
        for len in [0usize, 1, 12, 1459, 1460] {
            let seg = lcg_fill(len, len as u64 + 1);
            let mut copied = Vec::new();
            let acc =
                copy_and_checksum(&seg, &mut copied) + pseudo_header_sum(src, dst, 6, len as u32);
            assert_eq!(
                finish_transport_checksum(acc),
                transport_checksum(src, dst, 6, &seg),
                "len={len}"
            );
        }
        // The RFC 768 zero mapping: an input folding to 0xFFFF complements
        // to zero and must be emitted as 0xFFFF.
        assert_eq!(finish_transport_checksum(0xFFFF), 0xFFFF);
        assert_eq!(finish_transport_checksum(0x0001_FFFE), 0xFFFF);
    }

    mod copy_and_checksum_props {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            /// Fused copy+sum equals copy-then-bytewise-oracle for any
            /// payload, including odd lengths and >64 KiB buffers.
            /// The same holds for `sum` resumed from any running acc, on
            /// a short prefix (0–130 bytes, any of the first four offsets:
            /// the fixed 20-byte and word-loop paths) as on the whole.
            #[test]
            fn matches_oracle(
                seed in any::<u64>(),
                len in 0usize..70_000,
                acc in 1u32..0x0010_0000,
                short in 0usize..131,
                offset in 0usize..4,
            ) {
                let data = lcg_fill(len, seed);
                let (mut fused, mut plain) = (Vec::new(), Vec::new());
                let sum_acc = copy_and_checksum(&data, &mut fused);
                let oracle = copy_then_oracle_sum(&data, &mut plain);
                prop_assert_eq!(fused, plain);
                prop_assert_eq!(fold(sum_acc), fold64(oracle));
                prop_assert_eq!(fold(sum(&data, acc)), fold(sum_bytewise(&data, acc)));
                let head = lcg_fill(short + offset, seed);
                let head = &head[offset..];
                prop_assert_eq!(fold(sum(head, acc)), fold(sum_bytewise(head, acc)));
            }

            /// Splitting at any chunk boundary and composing with the
            /// parity-swap identity reproduces the unsplit sum.
            /// Resuming `sum` from the first part's acc equals composing,
            /// also for a short input cut at any even offset (a 20-byte
            /// header followed by a payload is one such split).
            #[test]
            fn split_composes(
                seed in any::<u64>(),
                len in 2usize..20_000,
                cut in 0usize..20_000,
                short in 0usize..131,
            ) {
                let data = lcg_fill(len, seed);
                let cut = cut % (len + 1);
                let mut out = Vec::new();
                let a = copy_and_checksum(&data[..cut], &mut out);
                let b = copy_and_checksum(&data[cut..], &mut out);
                let composed = a + if cut % 2 == 0 { b } else { swap_pair_sum(b) };
                prop_assert_eq!(&out, &data);
                prop_assert_eq!(fold(composed), fold(sum_bytewise(&data, 0)));
                let short = &data[..short.min(len)];
                let cut = (cut % (short.len() + 1)) & !1;
                let resumed = sum(&short[cut..], sum(&short[..cut], 0));
                prop_assert_eq!(fold(resumed), fold(sum_bytewise(short, 0)));
            }
        }
    }

    #[test]
    fn sctp_checksum_is_address_independent() {
        // The property the paper leans on in §4.3: rewriting IP addresses
        // does not invalidate the SCTP checksum because it has no
        // pseudo-header. Trivially true by construction; assert the checksum
        // only depends on packet bytes.
        let pkt = [1u8, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12];
        assert_eq!(sctp_checksum(&pkt), sctp_checksum(&pkt));
    }
}
