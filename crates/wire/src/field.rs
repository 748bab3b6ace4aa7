//! Byte-order helpers used by every header codec.
//!
//! All Internet protocols in this project are big-endian on the wire. These
//! helpers panic on out-of-bounds access — header codecs validate buffer
//! length up front (`new_checked`), so a panic here indicates a codec bug.

/// Reads a big-endian `u16` at `off`.
#[inline]
pub fn read_u16(buf: &[u8], off: usize) -> u16 {
    u16::from_be_bytes([buf[off], buf[off + 1]])
}

/// Reads a big-endian `u32` at `off`.
#[inline]
pub fn read_u32(buf: &[u8], off: usize) -> u32 {
    u32::from_be_bytes([buf[off], buf[off + 1], buf[off + 2], buf[off + 3]])
}

/// Reads a big-endian `u48` (6 bytes) at `off` into the low bits of a `u64`.
#[inline]
pub fn read_u48(buf: &[u8], off: usize) -> u64 {
    let mut v = 0u64;
    for i in 0..6 {
        v = (v << 8) | buf[off + i] as u64;
    }
    v
}

/// Reads a big-endian `u64` at `off`.
#[inline]
pub fn read_u64(buf: &[u8], off: usize) -> u64 {
    let mut b = [0u8; 8];
    b.copy_from_slice(&buf[off..off + 8]);
    u64::from_be_bytes(b)
}

/// Writes a big-endian `u16` at `off`.
#[inline]
pub fn write_u16(buf: &mut [u8], off: usize, value: u16) {
    buf[off..off + 2].copy_from_slice(&value.to_be_bytes());
}

/// Writes a big-endian `u32` at `off`.
#[inline]
pub fn write_u32(buf: &mut [u8], off: usize, value: u32) {
    buf[off..off + 4].copy_from_slice(&value.to_be_bytes());
}

/// Writes a 20-byte fixed header built in registers as five big-endian
/// words: two 8-byte stores and one 4-byte store instead of one store per
/// field.
#[inline]
pub(crate) fn write_header_words(buf: &mut [u8], w: [u32; 5]) {
    write_u64(buf, 0, (w[0] as u64) << 32 | w[1] as u64);
    write_u64(buf, 8, (w[2] as u64) << 32 | w[3] as u64);
    write_u32(buf, 16, w[4]);
}

/// Writes the low 48 bits of `value` big-endian at `off`.
#[inline]
pub fn write_u48(buf: &mut [u8], off: usize, value: u64) {
    let b = value.to_be_bytes();
    buf[off..off + 6].copy_from_slice(&b[2..8]);
}

/// Writes a big-endian `u64` at `off`.
#[inline]
pub fn write_u64(buf: &mut [u8], off: usize, value: u64) {
    buf[off..off + 8].copy_from_slice(&value.to_be_bytes());
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn u16_roundtrip() {
        let mut buf = [0u8; 4];
        write_u16(&mut buf, 1, 0xABCD);
        assert_eq!(buf, [0, 0xAB, 0xCD, 0]);
        assert_eq!(read_u16(&buf, 1), 0xABCD);
    }

    #[test]
    fn u32_roundtrip() {
        let mut buf = [0u8; 6];
        write_u32(&mut buf, 2, 0xDEAD_BEEF);
        assert_eq!(read_u32(&buf, 2), 0xDEAD_BEEF);
    }

    #[test]
    fn u48_roundtrip() {
        let mut buf = [0u8; 8];
        write_u48(&mut buf, 0, 0x0000_1234_5678_9ABC);
        assert_eq!(read_u48(&buf, 0), 0x0000_1234_5678_9ABC);
    }

    #[test]
    fn u64_roundtrip() {
        let mut buf = [0u8; 8];
        write_u64(&mut buf, 0, u64::MAX - 5);
        assert_eq!(read_u64(&buf, 0), u64::MAX - 5);
    }
}
