//! A complete TCP endpoint: three-way handshake, sliding window, Reno
//! congestion control, RTO with Karn's algorithm, fast retransmit/recovery,
//! zero-window probing, orderly and abortive teardown.
//!
//! Configured like the paper's endpoints (§3.2.2): Linux-style Reno with
//! SACK, timestamps, window scaling, F-RTO and D-SACK disabled. The socket
//! also implements the paper's workload apps: a *bulk source* that emits a
//! byte stream with a virtual timestamp every 2 KB (TCP-2/TCP-3) and a
//! *sink* that extracts those timestamps on arrival.

use std::collections::{BTreeMap, VecDeque};
use std::net::SocketAddrV4;

use hgw_core::{Duration, FramePool, Instant};
use hgw_wire::checksum::{copy_and_checksum, swap_pair_sum};
use hgw_wire::tcp::{TcpOption, TcpRepr};
use hgw_wire::{SeqNumber, TcpFlags};

use crate::bytes::ByteQueue;

/// TCP connection states (RFC 793).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TcpState {
    /// No connection.
    Closed,
    /// Active open sent SYN.
    SynSent,
    /// Passive open got SYN, sent SYN-ACK.
    SynRcvd,
    /// Data transfer.
    Established,
    /// We closed first; FIN sent.
    FinWait1,
    /// Our FIN acked; waiting for peer FIN.
    FinWait2,
    /// Simultaneous close.
    Closing,
    /// Both FINs seen; draining the network.
    TimeWait,
    /// Peer closed first.
    CloseWait,
    /// Peer closed, then we closed; FIN sent.
    LastAck,
}

impl TcpState {
    /// True in states where application data can still be received.
    pub fn can_recv(self) -> bool {
        matches!(self, TcpState::Established | TcpState::FinWait1 | TcpState::FinWait2)
    }

    /// True in states where the application can still send.
    pub fn can_send(self) -> bool {
        matches!(self, TcpState::Established | TcpState::CloseWait)
    }
}

/// Why a socket reached [`TcpState::Closed`] abnormally.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TcpError {
    /// Peer sent a valid RST (or the local side aborted).
    Reset,
    /// Handshake or retransmission gave up.
    TimedOut,
}

/// Socket tuning knobs.
#[derive(Debug, Clone, Copy)]
pub struct TcpConfig {
    /// Our maximum segment size (announced in SYN).
    pub mss: u32,
    /// Send buffer capacity, bytes.
    pub send_buf: usize,
    /// Receive buffer capacity, bytes (advertised window, ≤ 65535 since
    /// window scaling is disabled per the paper's setup).
    pub recv_buf: usize,
    /// Initial retransmission timeout.
    pub rto_initial: Duration,
    /// Minimum RTO.
    pub rto_min: Duration,
    /// Maximum RTO (also caps backoff).
    pub rto_max: Duration,
    /// Maximum consecutive retransmissions of one segment before giving up.
    pub max_retries: u32,
    /// TIME_WAIT duration (2 × MSL).
    pub time_wait: Duration,
    /// Keepalive idle interval; `None` disables (the paper runs with no
    /// keepalives so NAT timeouts can be observed).
    pub keepalive: Option<Duration>,
}

impl Default for TcpConfig {
    fn default() -> TcpConfig {
        TcpConfig {
            mss: 1460,
            send_buf: 128 * 1024,
            recv_buf: 64 * 1024 - 1,
            rto_initial: Duration::from_secs(1),
            rto_min: Duration::from_millis(200),
            rto_max: Duration::from_secs(60),
            max_retries: 10,
            time_wait: Duration::from_secs(30),
            keepalive: None,
        }
    }
}

/// Marks a timestamp record in the bulk stream.
pub const STAMP_MAGIC: u64 = 0x4847_5753_5441_4D50; // "HGWSTAMP"

/// Longest filler run copied from [`PATTERN`] at once: one 2 KiB stamp
/// block (the probes' interval), so such a block's filler is one copy;
/// longer blocks take several.
const SPAN: usize = 2048;

/// The bulk filler: the byte at stream position `p` is `p as u8`, so any
/// run is a window into this table starting at phase `p & 0xFF`.
static PATTERN: [u8; SPAN + 256] = {
    let mut t = [0u8; SPAN + 256];
    let mut i = 0;
    while i < t.len() {
        t[i] = (i & 0xFF) as u8;
        i += 1;
    }
    t
};

/// The RFC 1071 pair sum of the `n` filler bytes starting at pattern
/// phase `phase`, as if they started at an even offset — the value
/// `copy_and_checksum` returns for `PATTERN[phase..phase + n]`, folded to
/// 16 bits, without reading them.
///
/// Position `q` of the endless pattern holds `q mod 256`, so the bytes at
/// even positions below `q = 256c + r` sum to `16256c + k(k−1)` with
/// `k = ⌈r/2⌉`, and the odd ones to `16384c + m²` with `m = ⌊r/2⌋`: the
/// 2 × 129-entry prefix table of one period in closed form. A run
/// starting at an even phase puts its even positions in the high byte of
/// each pair.
fn pattern_pair_sum(phase: usize, n: usize) -> u32 {
    fn prefix(q: u64) -> (u64, u64) {
        let (c, r) = (q / 256, q % 256);
        let (k, m) = (r.div_ceil(2), r / 2);
        (16_256 * c + k * k.saturating_sub(1), 16_384 * c + m * m)
    }
    let (q0, q1) = (phase as u64, (phase + n) as u64);
    let (even, odd) = {
        let (e0, o0) = prefix(q0);
        let (e1, o1) = prefix(q1);
        (e1 - e0, o1 - o0)
    };
    let (high, low) = if phase.is_multiple_of(2) { (even, odd) } else { (odd, even) };
    let mut acc = (high << 8) + low;
    while acc > 0xFFFF {
        acc = (acc & 0xFFFF) + (acc >> 16);
    }
    acc as u32
}

/// The send buffer of a bulk socket (TCP-2/TCP-3 sender role): a stream
/// of `total` bytes in which every `stamp_every` bytes begin with a
/// 16-octet record, [`STAMP_MAGIC`] then the send time in nanoseconds,
/// both big-endian (the paper embeds a timestamp every 2 KB of payload),
/// and the byte at every other stream position `p` is the filler `p as u8`.
///
/// Every byte is a function of its stream position and of the send times
/// of the records, so the buffer stores only the window
/// `[start, start + len)` of buffered stream positions and the 8-byte send
/// times of the records that still overlap it. Copies regenerate the
/// bytes — the same bytes for a retransmit or a go-back-N resend — and
/// price their checksum without reading them back: a filler run's sum is
/// a closed form of its phase and length, and only the 16-byte records
/// are summed.
#[derive(Debug, Clone)]
pub struct BulkSendBuffer {
    total: u64,
    stamp_every: u64,
    /// Stream position of the first buffered byte.
    start: u64,
    /// Stream position one past the last generated byte.
    end: u64,
    /// Send times of the records from index `first_record` on.
    stamps: VecDeque<u64>,
    first_record: u64,
}

impl BulkSendBuffer {
    /// An empty buffer for a stream of `total` bytes stamped every
    /// `stamp_every` bytes.
    pub fn new(total: u64, stamp_every: usize) -> BulkSendBuffer {
        assert!(stamp_every >= 16, "stamp interval must hold the 16-byte record");
        BulkSendBuffer {
            total,
            stamp_every: stamp_every as u64,
            start: 0,
            end: 0,
            stamps: VecDeque::new(),
            first_record: 0,
        }
    }

    /// Bytes not yet generated into the buffer.
    pub fn remaining(&self) -> u64 {
        self.total - self.end
    }

    /// Bytes currently buffered.
    pub fn len(&self) -> usize {
        (self.end - self.start) as usize
    }

    /// True if no bytes are buffered.
    pub fn is_empty(&self) -> bool {
        self.end == self.start
    }

    /// Generates up to `space` more bytes at time `now`; returns how many.
    /// A record is generated whole or not at all, so generation stops
    /// short of a record that does not fit in `space`. A stream whose
    /// `total` ends inside a record ends with that record's first bytes:
    /// the stream is always a prefix of the endless stamped stream.
    pub fn generate(&mut self, now: Instant, space: usize) -> usize {
        let begin = self.end;
        let mut space = (space as u64).min(self.remaining());
        while space > 0 && self.remaining() > 0 {
            let in_block = self.end % self.stamp_every;
            if in_block == 0 {
                let record = self.remaining().min(16);
                if space < record {
                    break; // wait for room for a whole record
                }
                self.stamps.push_back(now.as_nanos());
                self.end += record;
                space -= record;
            } else {
                let run = (self.stamp_every - in_block).min(space);
                self.end += run;
                space -= run;
            }
        }
        (self.end - begin) as usize
    }

    /// Discards up to `n` bytes from the front, and the send times of the
    /// records that lie wholly before the new front.
    pub fn consume(&mut self, n: usize) {
        self.start += (n as u64).min(self.end - self.start);
        while !self.stamps.is_empty() && self.first_record * self.stamp_every + 16 <= self.start {
            self.stamps.pop_front();
            self.first_record += 1;
        }
    }

    /// Appends up to `max` buffered bytes, starting `offset` bytes from the
    /// front, onto `out`, and returns their RFC 1071 pair sum in the
    /// contract of `ByteQueue::copy_range_into_with_sum`: big-endian pair
    /// space, as if the copied region started at an even offset.
    pub fn copy_range_into_with_sum(&self, offset: usize, max: usize, out: &mut Vec<u8>) -> u32 {
        let want = max.min(self.len().saturating_sub(offset));
        out.reserve(want);
        let mut pos = self.start + offset as u64;
        let end = pos + want as u64;
        let mut acc = 0u32;
        let mut copied = 0usize;
        while pos < end {
            let in_block = (pos % self.stamp_every) as usize;
            let (n, part) = if in_block < 16 {
                let sent = self.stamps[(pos / self.stamp_every - self.first_record) as usize];
                let mut record = [0u8; 16];
                record[..8].copy_from_slice(&STAMP_MAGIC.to_be_bytes());
                record[8..].copy_from_slice(&sent.to_be_bytes());
                let n = (16 - in_block).min((end - pos) as usize);
                (n, copy_and_checksum(&record[in_block..in_block + n], out))
            } else {
                let to_record = self.stamp_every - in_block as u64;
                let n = to_record.min(end - pos).min(SPAN as u64) as usize;
                let phase = (pos & 0xFF) as usize;
                out.extend_from_slice(&PATTERN[phase..phase + n]);
                (n, pattern_pair_sum(phase, n))
            };
            acc += if copied.is_multiple_of(2) { part } else { swap_pair_sum(part) };
            copied += n;
            pos += n as u64;
        }
        acc
    }
}

/// Receiver-side statistics collected by sink mode.
#[derive(Debug, Clone, Default)]
pub struct SinkStats {
    /// Total in-order bytes consumed.
    pub bytes: u64,
    /// `(send-time nanos, receive-time nanos)` pairs from stamp records.
    pub stamps: Vec<(u64, u64)>,
    /// Time the last byte arrived.
    pub last_arrival: Option<Instant>,
}

/// Sink: consumes the stream positionally and extracts stamp records.
#[derive(Debug, Clone, Default)]
struct SinkState {
    stats: SinkStats,
    /// Partial record bytes carried across segment boundaries.
    pending: Vec<u8>,
}

impl SinkState {
    fn consume(&mut self, now: Instant, data: &[u8], stamp_every: u64) {
        let start = self.stats.bytes;
        self.stats.bytes += data.len() as u64;
        self.stats.last_arrival = Some(now);
        // Walk the stream in runs: only the 16 record bytes at the head of
        // each `stamp_every` block matter; the payload between records is
        // skipped in one step instead of byte by byte.
        let end = start + data.len() as u64;
        let mut pos = start;
        while pos < end {
            let in_block = pos % stamp_every;
            if in_block < 16 {
                let take = (16 - in_block).min(end - pos);
                let off = (pos - start) as usize;
                self.pending.extend_from_slice(&data[off..off + take as usize]);
                pos += take;
                if in_block + take == 16 {
                    if self.pending.len() == 16 {
                        let magic = u64::from_be_bytes(self.pending[0..8].try_into().unwrap());
                        if magic == STAMP_MAGIC {
                            let sent = u64::from_be_bytes(self.pending[8..16].try_into().unwrap());
                            self.stats.stamps.push((sent, now.as_nanos()));
                        }
                    }
                    self.pending.clear();
                }
            } else {
                pos += (stamp_every - in_block).min(end - pos);
            }
        }
    }
}

/// Bytes reserved at the front of every [`TcpSegment`] buffer for the
/// option-less IPv4 (20) and TCP (20) headers. The payload is copied out of
/// the send buffer directly to its final wire offset, so a host can turn
/// the segment buffer into a complete frame by writing headers into this
/// prefix (`Ipv4Repr::write_header` + `TcpRepr::write_header_with_sum`) —
/// zero further payload copies.
pub const SEGMENT_HEADROOM: usize = 40;

/// An outgoing segment produced by [`TcpSocket::dispatch`].
///
/// The payload rides in a buffer with [`SEGMENT_HEADROOM`] zeroed prefix
/// bytes (see [`TcpSegment::payload`] / [`TcpSegment::into_parts`]), so the
/// emit path never re-copies it.
#[derive(Debug, Clone)]
pub struct TcpSegment {
    /// The header.
    pub repr: TcpRepr,
    /// [`SEGMENT_HEADROOM`] zero bytes, then the payload.
    buf: Vec<u8>,
    /// RFC 1071 byte-pair sum of the payload, computed by the pass that
    /// copied it out of the send buffer (`copy_range_into_with_sum` of
    /// [`ByteQueue`] or [`BulkSendBuffer`]). Lets emission write the
    /// transport checksum without re-reading the payload.
    payload_sum: u32,
}

impl TcpSegment {
    fn new(repr: TcpRepr, buf: Vec<u8>, payload_sum: u32) -> TcpSegment {
        debug_assert!(buf.len() >= SEGMENT_HEADROOM);
        TcpSegment { repr, buf, payload_sum }
    }

    /// The payload bytes.
    pub fn payload(&self) -> &[u8] {
        &self.buf[SEGMENT_HEADROOM..]
    }

    /// The pre-computed pair sum of [`TcpSegment::payload`] (see the `buf`
    /// field docs); pass to `TcpRepr::emit_with_payload_sum_onto` or
    /// `TcpRepr::write_header_with_sum`.
    pub fn payload_sum(&self) -> u32 {
        self.payload_sum
    }

    /// Decomposes into `(repr, buffer, payload_sum)`, yielding the headroom
    /// buffer for in-place frame emission or recycling.
    pub fn into_parts(self) -> (TcpRepr, Vec<u8>, u32) {
        (self.repr, self.buf, self.payload_sum)
    }
}

/// A full TCP endpoint for one connection.
#[derive(Debug)]
pub struct TcpSocket {
    /// Local address/port.
    pub local: SocketAddrV4,
    /// Remote address/port.
    pub remote: SocketAddrV4,
    config: TcpConfig,
    state: TcpState,
    error: Option<TcpError>,

    // ---- send sequence space ----
    iss: SeqNumber,
    snd_una: SeqNumber,
    snd_nxt: SeqNumber,
    /// Highest sequence number ever sent; an RTO rolls `snd_nxt` back for
    /// go-back-N but ACKs up to `snd_max` remain valid.
    snd_max: SeqNumber,
    /// Peer's advertised window.
    snd_wnd: u32,
    /// Peer MSS from its SYN.
    peer_mss: u32,
    /// Application data queued by [`TcpSocket::send`]; a bulk socket's
    /// bytes live in `bulk` instead and this queue stays empty.
    send_buf: ByteQueue,
    /// Bytes in the send buffer — `send_buf`'s or `bulk`'s — unacked or
    /// unsent, so the sequence-space code reads one number for both kinds.
    send_len: usize,
    /// Sequence number of the first byte in the send buffer.
    send_buf_seq: SeqNumber,
    fin_queued: bool,
    fin_seq: Option<SeqNumber>,

    // ---- receive sequence space ----
    rcv_nxt: SeqNumber,
    recv_buf: ByteQueue,
    /// Out-of-order segments keyed by absolute starting sequence number.
    ooo: BTreeMap<u32, Vec<u8>>,
    ack_pending: bool,

    // ---- congestion control (Reno) ----
    cwnd: u32,
    ssthresh: u32,
    dup_acks: u32,
    in_fast_recovery: bool,
    retransmit_head: bool,
    /// A SYN (or SYN-ACK) emission is due — set at open and on RTO so
    /// handshake segments are timer-driven, never re-emitted per poll.
    syn_pending: bool,

    // ---- timers ----
    rto: Duration,
    srtt: Option<Duration>,
    rttvar: Duration,
    rtt_sample: Option<(SeqNumber, Instant)>,
    rto_deadline: Option<Instant>,
    retries: u32,
    persist_deadline: Option<Instant>,
    persist_backoff: u32,
    persist_probe_due: bool,
    time_wait_deadline: Option<Instant>,
    keepalive_deadline: Option<Instant>,

    // ---- apps ----
    /// The send buffer of a bulk socket. It learns of ACKs lazily: each
    /// [`TcpSocket::dispatch`] drops what `send_len` no longer counts.
    bulk: Option<BulkSendBuffer>,
    sink: Option<SinkState>,
    sink_stamp_every: u64,
}

impl TcpSocket {
    fn base(
        local: SocketAddrV4,
        remote: SocketAddrV4,
        iss: SeqNumber,
        config: TcpConfig,
    ) -> TcpSocket {
        TcpSocket {
            local,
            remote,
            config,
            state: TcpState::Closed,
            error: None,
            iss,
            snd_una: iss,
            snd_nxt: iss,
            snd_max: iss,
            snd_wnd: 0,
            peer_mss: 536,
            send_buf: ByteQueue::new(),
            send_len: 0,
            send_buf_seq: iss.add(1),
            fin_queued: false,
            fin_seq: None,
            rcv_nxt: SeqNumber(0),
            recv_buf: ByteQueue::new(),
            ooo: BTreeMap::new(),
            ack_pending: false,
            cwnd: 2 * config.mss,
            ssthresh: u32::MAX / 2,
            dup_acks: 0,
            in_fast_recovery: false,
            retransmit_head: false,
            syn_pending: true,
            rto: config.rto_initial,
            srtt: None,
            rttvar: Duration::ZERO,
            rtt_sample: None,
            rto_deadline: None,
            retries: 0,
            persist_deadline: None,
            persist_backoff: 0,
            persist_probe_due: false,
            time_wait_deadline: None,
            keepalive_deadline: None,
            bulk: None,
            sink: None,
            sink_stamp_every: 2048,
        }
    }

    /// Creates a client socket; the SYN is produced by the next
    /// [`TcpSocket::dispatch`].
    pub fn client(
        local: SocketAddrV4,
        remote: SocketAddrV4,
        iss: SeqNumber,
        config: TcpConfig,
        now: Instant,
    ) -> TcpSocket {
        let mut s = TcpSocket::base(local, remote, iss, config);
        s.state = TcpState::SynSent;
        s.arm_rto(now);
        s
    }

    /// Creates a server socket from a SYN received by a listener; the
    /// SYN-ACK is produced by the next [`TcpSocket::dispatch`].
    pub fn server(
        local: SocketAddrV4,
        remote: SocketAddrV4,
        iss: SeqNumber,
        config: TcpConfig,
        syn: &TcpRepr,
        now: Instant,
    ) -> TcpSocket {
        debug_assert!(syn.flags.contains(TcpFlags::SYN));
        let mut s = TcpSocket::base(local, remote, iss, config);
        s.state = TcpState::SynRcvd;
        s.rcv_nxt = syn.seq.add(1);
        s.snd_wnd = syn.window as u32;
        s.peer_mss = syn_mss(syn).unwrap_or(536);
        s.arm_rto(now);
        s
    }

    /// Current state.
    pub fn state(&self) -> TcpState {
        self.state
    }

    /// The error that closed the socket, if any.
    pub fn error(&self) -> Option<TcpError> {
        self.error
    }

    /// True once fully closed (reapable).
    pub fn is_closed(&self) -> bool {
        self.state == TcpState::Closed
    }

    /// The effective MSS.
    pub fn effective_mss(&self) -> u32 {
        self.config.mss.min(self.peer_mss)
    }

    /// Current congestion window (diagnostics).
    pub fn cwnd(&self) -> u32 {
        self.cwnd
    }

    /// Queues application data; returns the number of bytes accepted.
    /// A bulk socket (see [`TcpSocket::set_bulk_source`]) sends only its
    /// generated stream and accepts nothing here.
    pub fn send(&mut self, data: &[u8]) -> usize {
        if !self.state.can_send() || self.fin_queued || self.bulk.is_some() {
            return 0;
        }
        let space = self.config.send_buf.saturating_sub(self.send_len);
        let n = space.min(data.len());
        self.send_buf.extend_from_slice(&data[..n]);
        self.send_len += n;
        n
    }

    /// Reads up to `max` bytes of in-order received data.
    pub fn recv(&mut self, max: usize) -> Vec<u8> {
        let out = self.recv_buf.take_front(max);
        if !out.is_empty() {
            self.ack_pending = true; // window update
        }
        out
    }

    /// Bytes available to read.
    pub fn recv_available(&self) -> usize {
        self.recv_buf.len()
    }

    /// Bytes sitting in the send buffer (unacked + unsent).
    pub fn send_queue_len(&self) -> usize {
        self.send_len
    }

    /// Initiates an orderly close (FIN after queued data).
    pub fn close(&mut self) {
        match self.state {
            TcpState::Established => {
                self.fin_queued = true;
                self.state = TcpState::FinWait1;
            }
            TcpState::CloseWait => {
                self.fin_queued = true;
                self.state = TcpState::LastAck;
            }
            TcpState::SynSent | TcpState::SynRcvd => self.state = TcpState::Closed,
            _ => {}
        }
    }

    /// Aborts the connection locally (no RST emission; the testbed's
    /// workloads close via FIN or observe timeouts).
    pub fn abort(&mut self) {
        if !matches!(self.state, TcpState::Closed | TcpState::TimeWait) {
            self.error = Some(TcpError::Reset);
        }
        self.state = TcpState::Closed;
    }

    /// Attaches a bulk source (TCP-2/TCP-3 sender role): from here the
    /// socket sends a [`BulkSendBuffer`] stream of `total` bytes stamped
    /// every `stamp_every` bytes, and [`TcpSocket::send`] accepts nothing.
    ///
    /// # Panics
    ///
    /// If the send buffer still holds bytes: the stream starts on an empty
    /// buffer.
    pub fn set_bulk_source(&mut self, total: u64, stamp_every: usize) {
        assert_eq!(self.send_len, 0, "a bulk source starts on an empty send buffer");
        self.bulk = Some(BulkSendBuffer::new(total, stamp_every));
    }

    /// Bytes the bulk transfer has not yet pushed out and had acknowledged;
    /// zero means the transfer is fully delivered.
    pub fn bulk_unfinished(&self) -> u64 {
        self.bulk.as_ref().map(|b| b.remaining()).unwrap_or(0) + self.send_len as u64
    }

    /// Enables sink mode (TCP-2/TCP-3 receiver role).
    pub fn set_sink(&mut self, stamp_every: usize) {
        self.sink = Some(SinkState::default());
        self.sink_stamp_every = stamp_every as u64;
    }

    /// Sink statistics, if sink mode is on.
    pub fn sink_stats(&self) -> Option<&SinkStats> {
        self.sink.as_ref().map(|s| &s.stats)
    }

    // ---- timers ----

    fn arm_rto(&mut self, now: Instant) {
        let backoff = self.rto * (1u64 << self.retries.min(12));
        let rto = backoff.min(self.config.rto_max).max(self.config.rto_min);
        self.rto_deadline = Some(now + rto);
    }

    fn clear_rto(&mut self) {
        self.rto_deadline = None;
        self.retries = 0;
    }

    /// The next instant this socket needs a poll, if any.
    pub fn poll_at(&self) -> Option<Instant> {
        let rto_or_persist = Instant::earliest(self.rto_deadline, self.persist_deadline);
        let others = Instant::earliest(self.time_wait_deadline, self.keepalive_deadline);
        Instant::earliest(rto_or_persist, others)
    }

    /// Handles timer expiries at `now`. Call before [`TcpSocket::dispatch`].
    pub fn on_timer(&mut self, now: Instant) {
        if let Some(t) = self.time_wait_deadline {
            if now >= t {
                self.state = TcpState::Closed;
                self.time_wait_deadline = None;
            }
        }
        if let Some(t) = self.rto_deadline {
            if now >= t {
                self.on_rto(now);
            }
        }
        if let Some(t) = self.persist_deadline {
            if now >= t {
                self.persist_deadline = None;
                self.persist_probe_due = true;
            }
        }
        if let (Some(t), Some(interval)) = (self.keepalive_deadline, self.config.keepalive) {
            if now >= t && self.state == TcpState::Established {
                self.ack_pending = true; // a pure ACK doubles as a keepalive
                self.keepalive_deadline = Some(now + interval);
            }
        }
    }

    fn on_rto(&mut self, now: Instant) {
        self.rto_deadline = None;
        let has_unacked = self.snd_una.lt(self.snd_nxt);
        let handshaking = matches!(self.state, TcpState::SynSent | TcpState::SynRcvd);
        if !has_unacked && !handshaking {
            return;
        }
        self.retries += 1;
        if self.retries > self.config.max_retries {
            self.state = TcpState::Closed;
            self.error = Some(TcpError::TimedOut);
            return;
        }
        // Karn: invalidate the RTT sample; collapse to go-back-N.
        self.rtt_sample = None;
        if matches!(self.state, TcpState::SynSent | TcpState::SynRcvd) {
            self.syn_pending = true;
        }
        self.ssthresh = (self.flight_size() / 2).max(2 * self.effective_mss());
        self.cwnd = self.effective_mss();
        self.dup_acks = 0;
        self.in_fast_recovery = false;
        self.snd_nxt = self.snd_una;
        if self.fin_seq.is_some() && !self.fin_acked() {
            self.fin_seq = None; // FIN needs retransmitting too
        }
        self.arm_rto(now);
    }

    fn flight_size(&self) -> u32 {
        self.snd_nxt.dist(self.snd_una).max(0) as u32
    }

    // ---- segment arrival ----

    /// Processes an incoming segment addressed to this connection.
    pub fn process(&mut self, now: Instant, repr: &TcpRepr, payload: &[u8]) {
        if self.state == TcpState::Closed {
            return;
        }
        // RST validity: only an in-window RST (or, in SYN_SENT, one that
        // acks our SYN) resets the connection. Garbage resets — e.g. the
        // invalid RSTs device ls2 fabricates from ICMP errors — are ignored.
        if repr.flags.contains(TcpFlags::RST) {
            let acceptable = match self.state {
                TcpState::SynSent => {
                    repr.flags.contains(TcpFlags::ACK) && repr.ack == self.iss.add(1)
                }
                _ => self.seq_in_window(repr.seq),
            };
            if acceptable {
                self.state = TcpState::Closed;
                self.error = Some(TcpError::Reset);
            }
            return;
        }

        match self.state {
            TcpState::SynSent => {
                if repr.flags.contains(TcpFlags::SYN | TcpFlags::ACK) && repr.ack == self.iss.add(1)
                {
                    self.rcv_nxt = repr.seq.add(1);
                    self.snd_una = repr.ack;
                    self.snd_nxt = repr.ack;
                    self.send_buf_seq = repr.ack;
                    self.track_snd_max();
                    self.snd_wnd = repr.window as u32;
                    self.peer_mss = syn_mss(repr).unwrap_or(536);
                    self.cwnd = 2 * self.effective_mss();
                    self.state = TcpState::Established;
                    self.clear_rto();
                    self.ack_pending = true;
                    self.reset_keepalive(now);
                }
                return;
            }
            TcpState::SynRcvd => {
                if repr.flags.contains(TcpFlags::SYN) {
                    self.syn_pending = true; // duplicate SYN: re-answer once
                    return;
                }
                if repr.flags.contains(TcpFlags::ACK) && repr.ack == self.iss.add(1) {
                    self.snd_una = repr.ack;
                    if self.snd_nxt.lt(repr.ack) {
                        self.snd_nxt = repr.ack;
                    }
                    self.send_buf_seq = repr.ack;
                    self.snd_wnd = repr.window as u32;
                    self.state = TcpState::Established;
                    self.clear_rto();
                    self.reset_keepalive(now);
                    // Fall through: the segment may carry data or FIN.
                } else {
                    return;
                }
            }
            _ => {}
        }

        if repr.flags.contains(TcpFlags::ACK) {
            self.process_ack(now, repr);
        }
        if !payload.is_empty() {
            self.process_data(now, repr.seq, payload);
        }
        if repr.flags.contains(TcpFlags::FIN) {
            self.process_fin(now, repr.seq.add(payload.len() as u32));
        }
        self.reset_keepalive(now);
    }

    fn process_fin(&mut self, now: Instant, fin_seq: SeqNumber) {
        if fin_seq == self.rcv_nxt {
            self.rcv_nxt = self.rcv_nxt.add(1);
            self.ack_pending = true;
            match self.state {
                TcpState::Established => self.state = TcpState::CloseWait,
                TcpState::FinWait1 => {
                    if self.fin_acked() {
                        self.enter_time_wait(now);
                    } else {
                        self.state = TcpState::Closing;
                    }
                }
                TcpState::FinWait2 => self.enter_time_wait(now),
                _ => {}
            }
        } else if fin_seq.lt(self.rcv_nxt) {
            self.ack_pending = true; // retransmitted FIN: re-ack
        }
        // A FIN beyond rcv_nxt waits for the missing data to arrive; the
        // peer will retransmit it.
    }

    fn fin_acked(&self) -> bool {
        match self.fin_seq {
            Some(f) => f.add(1).le(self.snd_una),
            None => false,
        }
    }

    fn enter_time_wait(&mut self, now: Instant) {
        self.state = TcpState::TimeWait;
        self.time_wait_deadline = Some(now + self.config.time_wait);
        self.clear_rto();
    }

    fn seq_in_window(&self, seq: SeqNumber) -> bool {
        let wnd = self.recv_window().max(1);
        let d = seq.dist(self.rcv_nxt);
        d >= 0 && (d as u32) < wnd
    }

    fn process_ack(&mut self, now: Instant, repr: &TcpRepr) {
        let ack = repr.ack;
        if ack.le(self.snd_una) {
            if ack == self.snd_una
                && self.snd_una.lt(self.snd_nxt)
                && repr.window as u32 == self.snd_wnd
            {
                self.dup_acks += 1;
                if self.dup_acks == 3 {
                    // Fast retransmit + fast recovery.
                    self.ssthresh = (self.flight_size() / 2).max(2 * self.effective_mss());
                    self.cwnd = self.ssthresh + 3 * self.effective_mss();
                    self.in_fast_recovery = true;
                    self.retransmit_head = true;
                    self.rtt_sample = None;
                } else if self.dup_acks > 3 && self.in_fast_recovery {
                    self.cwnd += self.effective_mss();
                }
            }
            self.snd_wnd = repr.window as u32;
            self.wake_persist(now);
            return;
        }
        if self.snd_max.lt(ack) {
            return; // acks data we never sent
        }
        // New data acked (possibly beyond a rolled-back snd_nxt).
        let newly = ack.dist(self.snd_una) as u32;
        self.snd_una = ack;
        if self.snd_nxt.lt(ack) {
            self.snd_nxt = ack;
        }
        self.dup_acks = 0;
        if self.in_fast_recovery {
            self.cwnd = self.ssthresh;
            self.in_fast_recovery = false;
        } else if self.cwnd < self.ssthresh {
            self.cwnd += newly.min(self.effective_mss()); // slow start
        } else {
            let mss = self.effective_mss();
            self.cwnd += (mss * mss / self.cwnd).max(1); // congestion avoidance
        }
        // Drop acked bytes (not the FIN's sequence slot) from the buffer.
        // On a bulk socket `send_buf` is empty and this only moves the
        // counters; `dispatch` frees the bulk buffer's front.
        let acked_bytes = ack.dist(self.send_buf_seq);
        if acked_bytes > 0 {
            let n = (acked_bytes as usize).min(self.send_len);
            self.send_buf.consume(n);
            self.send_len -= n;
            self.send_buf_seq = self.send_buf_seq.add(n as u32);
        }
        self.take_rtt_sample_on_ack(now, ack);
        self.snd_wnd = repr.window as u32;
        self.wake_persist(now);
        if self.snd_una == self.snd_nxt {
            self.clear_rto();
        } else {
            self.retries = 0;
            self.arm_rto(now);
        }
        if self.fin_acked() {
            match self.state {
                TcpState::FinWait1 => self.state = TcpState::FinWait2,
                TcpState::Closing => self.enter_time_wait(now),
                TcpState::LastAck => self.state = TcpState::Closed,
                _ => {}
            }
        }
    }

    fn wake_persist(&mut self, now: Instant) {
        if self.snd_wnd == 0 && self.send_len > 0 {
            if self.persist_deadline.is_none() && !self.persist_probe_due {
                let backoff = Duration::from_millis(500) * (1u64 << self.persist_backoff.min(6));
                self.persist_deadline = Some(now + backoff);
                self.persist_backoff += 1;
            }
        } else {
            self.persist_deadline = None;
            self.persist_backoff = 0;
            self.persist_probe_due = false;
        }
    }

    fn take_rtt_sample_on_ack(&mut self, now: Instant, ack: SeqNumber) {
        if let Some((seq, sent_at)) = self.rtt_sample {
            if seq.le(ack) {
                let m = now.duration_since(sent_at);
                match self.srtt {
                    None => {
                        self.srtt = Some(m);
                        self.rttvar = m / 2;
                    }
                    Some(srtt) => {
                        let delta = if srtt > m { srtt - m } else { m - srtt };
                        self.rttvar = self.rttvar * 3 / 4 + delta / 4;
                        self.srtt = Some(srtt * 7 / 8 + m / 8);
                    }
                }
                let var_term = (self.rttvar * 4).max(Duration::from_millis(10));
                self.rto = (self.srtt.unwrap() + var_term)
                    .max(self.config.rto_min)
                    .min(self.config.rto_max);
                self.rtt_sample = None;
            }
        }
    }

    fn process_data(&mut self, now: Instant, seq: SeqNumber, payload: &[u8]) {
        if !self.state.can_recv() && self.state != TcpState::SynRcvd {
            return;
        }
        self.ack_pending = true;
        let offset = seq.dist(self.rcv_nxt);
        if offset > 0 {
            // Out of order: stash if within the window, bounded.
            if (offset as u32) < self.recv_window_limit().max(1) && self.ooo.len() < 64 {
                self.ooo.insert(seq.0, payload.to_vec());
            }
            return;
        }
        let skip = (-offset) as usize;
        if skip < payload.len() {
            self.accept_in_order(now, &payload[skip..]);
        }
        // Drain stashed segments that became contiguous.
        loop {
            let next = self.ooo.iter().find_map(|(&k, v)| {
                let off = SeqNumber(k).dist(self.rcv_nxt);
                (off <= 0).then_some((k, (-off) as usize, v.len()))
            });
            let Some((key, skip, len)) = next else { break };
            let data = self.ooo.remove(&key).unwrap();
            if skip < len {
                self.accept_in_order(now, &data[skip..]);
            }
        }
    }

    fn accept_in_order(&mut self, now: Instant, data: &[u8]) {
        let take = data.len().min(self.recv_window_limit() as usize);
        let data = &data[..take];
        self.rcv_nxt = self.rcv_nxt.add(data.len() as u32);
        if let Some(sink) = &mut self.sink {
            sink.consume(now, data, self.sink_stamp_every);
        } else {
            self.recv_buf.extend_from_slice(data);
        }
    }

    fn recv_window_limit(&self) -> u32 {
        if self.sink.is_some() {
            return self.config.recv_buf as u32; // sink drains instantly
        }
        self.config.recv_buf.saturating_sub(self.recv_buf.len()) as u32
    }

    /// The window to advertise, capped at 65535 (no window scaling).
    fn recv_window(&self) -> u32 {
        self.recv_window_limit().min(65_535)
    }

    fn reset_keepalive(&mut self, now: Instant) {
        if let Some(interval) = self.config.keepalive {
            self.keepalive_deadline = Some(now + interval);
        }
    }

    // ---- segment emission ----

    /// Produces every segment the socket wants to transmit right now.
    /// Segment buffers come from `pool`; the caller sends them on as frames
    /// or hands them back to it.
    pub fn dispatch(&mut self, now: Instant, pool: &mut FramePool, out: &mut Vec<TcpSegment>) {
        match self.state {
            TcpState::Closed => return,
            TcpState::TimeWait => {
                if self.ack_pending {
                    let seg = self.make_segment(TcpFlags::ACK, self.snd_nxt, pool);
                    out.push(seg);
                    self.ack_pending = false;
                }
                return;
            }
            TcpState::SynSent => {
                if self.syn_pending {
                    let mut repr = self.header(TcpFlags::SYN, self.iss);
                    repr.ack = SeqNumber(0);
                    repr.options = vec![TcpOption::MaxSegmentSize(self.config.mss as u16)];
                    self.snd_nxt = self.iss.add(1);
                    self.track_snd_max();
                    let buf = headroom_buf(pool, 0);
                    out.push(TcpSegment::new(repr, buf, 0));
                    self.syn_pending = false;
                }
                return;
            }
            TcpState::SynRcvd => {
                if self.syn_pending {
                    let mut repr = self.header(TcpFlags::SYN | TcpFlags::ACK, self.iss);
                    repr.options = vec![TcpOption::MaxSegmentSize(self.config.mss as u16)];
                    self.snd_nxt = self.iss.add(1);
                    self.track_snd_max();
                    let buf = headroom_buf(pool, 0);
                    out.push(TcpSegment::new(repr, buf, 0));
                    self.syn_pending = false;
                }
                return;
            }
            _ => {}
        }

        // The one test of the socket's kind: each kind then runs its own
        // copy of the emission code, with its payload copy inlined.
        if let Some(bulk) = &mut self.bulk {
            // Drop what was ACKed since the last dispatch.
            bulk.consume(bulk.len() - self.send_len);
            if self.state.can_send() && !self.fin_queued {
                bulk.generate(now, self.config.send_buf.saturating_sub(self.send_len));
                self.send_len = bulk.len();
            }
            self.send_data(now, pool, out, |s, offset, len, buf| {
                let bulk = s.bulk.as_ref().expect("a bulk socket keeps its buffer");
                bulk.copy_range_into_with_sum(offset, len, buf)
            });
        } else {
            self.send_data(now, pool, out, |s, offset, len, buf| {
                s.send_buf.copy_range_into_with_sum(offset, len, buf)
            });
        }
    }

    /// The data-bearing half of [`TcpSocket::dispatch`]: retransmits, new
    /// data, FIN and the pure ACK. `copy` appends `len` buffered bytes from
    /// `offset` onto a segment buffer and returns their pair sum.
    fn send_data<C>(
        &mut self,
        now: Instant,
        pool: &mut FramePool,
        out: &mut Vec<TcpSegment>,
        copy: C,
    ) where
        C: Fn(&TcpSocket, usize, usize, &mut Vec<u8>) -> u32,
    {
        let mss = self.effective_mss() as usize;
        let mut sent_any = false;

        if self.retransmit_head {
            let len = self.buffered_len(self.snd_una, mss);
            if len > 0 {
                let flags = TcpFlags::ACK | TcpFlags::PSH;
                let seg = self.make_data_segment(flags, self.snd_una, len, pool, &copy);
                out.push(seg);
            } else if self.fin_seq == Some(self.snd_una) {
                let seg = self.make_segment(TcpFlags::FIN | TcpFlags::ACK, self.snd_una, pool);
                out.push(seg);
            }
            self.retransmit_head = false;
            sent_any = true;
        }

        // New data within min(cwnd, peer window); a due persist probe may
        // send one byte into a zero window.
        let probe_extra = if self.persist_probe_due { 1 } else { 0 };
        let wnd = self.cwnd.min(self.snd_wnd.max(probe_extra));
        loop {
            let flight = self.flight_size();
            if flight >= wnd {
                break;
            }
            let budget = ((wnd - flight) as usize).min(mss);
            let plen = self.buffered_len(self.snd_nxt, budget);
            if plen == 0 {
                break;
            }
            // Nagle-ish: defer a sub-MSS segment while more data waits and
            // earlier segments are in flight.
            let unsent = self.unsent_from(self.snd_nxt);
            if plen < mss && plen < unsent && flight > 0 && !self.persist_probe_due {
                break;
            }
            let len = plen as u32;
            let flags = if plen < mss { TcpFlags::ACK | TcpFlags::PSH } else { TcpFlags::ACK };
            let seg = self.make_data_segment(flags, self.snd_nxt, plen, pool, &copy);
            out.push(seg);
            if self.rtt_sample.is_none() {
                self.rtt_sample = Some((self.snd_nxt.add(len), now));
            }
            self.snd_nxt = self.snd_nxt.add(len);
            self.track_snd_max();
            self.persist_probe_due = false;
            sent_any = true;
            if self.rto_deadline.is_none() {
                self.arm_rto(now);
            }
        }

        // FIN once every buffered byte has been transmitted.
        if self.fin_queued && self.unsent_from(self.snd_nxt) == 0 && self.fin_seq.is_none() {
            let seg = self.make_segment(TcpFlags::FIN | TcpFlags::ACK, self.snd_nxt, pool);
            out.push(seg);
            self.fin_seq = Some(self.snd_nxt);
            self.snd_nxt = self.snd_nxt.add(1);
            self.track_snd_max();
            sent_any = true;
            if self.rto_deadline.is_none() {
                self.arm_rto(now);
            }
        }

        if self.ack_pending && !sent_any {
            let seg = self.make_segment(TcpFlags::ACK, self.snd_nxt, pool);
            out.push(seg);
        }
        self.ack_pending = false;
    }

    fn track_snd_max(&mut self) {
        if self.snd_max.lt(self.snd_nxt) {
            self.snd_max = self.snd_nxt;
        }
    }

    /// How many bytes (at most `max`) the send buffer holds from absolute
    /// sequence `seq` on.
    fn buffered_len(&self, seq: SeqNumber, max: usize) -> usize {
        if seq.dist(self.send_buf_seq) < 0 {
            return 0;
        }
        max.min(self.unsent_from(seq))
    }

    fn unsent_from(&self, seq: SeqNumber) -> usize {
        let start = seq.dist(self.send_buf_seq).max(0) as usize;
        self.send_len.saturating_sub(start)
    }

    fn header(&self, flags: TcpFlags, seq: SeqNumber) -> TcpRepr {
        TcpRepr {
            src_port: self.local.port(),
            dst_port: self.remote.port(),
            seq,
            ack: self.rcv_nxt,
            flags,
            window: self.recv_window() as u16,
            options: Vec::new(),
        }
    }

    fn make_segment(&self, flags: TcpFlags, seq: SeqNumber, pool: &mut FramePool) -> TcpSegment {
        let buf = headroom_buf(pool, 0);
        TcpSegment::new(self.header(flags, seq), buf, 0)
    }

    /// A segment carrying the `len` buffered bytes from `seq` on (see
    /// [`TcpSocket::buffered_len`]), copied out after the headroom by
    /// `copy`, which also sums them.
    fn make_data_segment<C>(
        &self,
        flags: TcpFlags,
        seq: SeqNumber,
        len: usize,
        pool: &mut FramePool,
        copy: &C,
    ) -> TcpSegment
    where
        C: Fn(&TcpSocket, usize, usize, &mut Vec<u8>) -> u32,
    {
        let mut buf = headroom_buf(pool, len);
        let start = seq.dist(self.send_buf_seq) as usize;
        let payload_sum = copy(self, start, len, &mut buf);
        TcpSegment::new(self.header(flags, seq), buf, payload_sum)
    }
}

/// A pool buffer sized for a segment carrying `payload_len` bytes,
/// pre-filled with [`SEGMENT_HEADROOM`] zero bytes, ready to receive the
/// payload at its final wire offset. Sizing it to the segment keeps a SYN
/// or an ACK from pinning a full-MSS buffer.
fn headroom_buf(pool: &mut FramePool, payload_len: usize) -> Vec<u8> {
    let mut out = pool.get(SEGMENT_HEADROOM + payload_len);
    out.resize(SEGMENT_HEADROOM, 0);
    out
}

/// Extracts the MSS option from a SYN.
fn syn_mss(repr: &TcpRepr) -> Option<u32> {
    repr.options.iter().find_map(|o| match o {
        TcpOption::MaxSegmentSize(m) => Some(*m as u32),
        _ => None,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn addr(last: u8, port: u16) -> SocketAddrV4 {
        SocketAddrV4::new(std::net::Ipv4Addr::new(10, 0, 0, last), port)
    }

    /// Wires two sockets back to back, exchanging segments instantly with
    /// optional loss, until neither has anything to say. Returns segment
    /// count.
    fn pump(a: &mut TcpSocket, b: &mut TcpSocket, now: Instant, drop_nth: Option<usize>) -> usize {
        let mut total = 0;
        let mut n = 0;
        loop {
            let mut out_a = Vec::new();
            let mut out_b = Vec::new();
            a.dispatch(now, &mut FramePool::new(), &mut out_a);
            b.dispatch(now, &mut FramePool::new(), &mut out_b);
            if out_a.is_empty() && out_b.is_empty() {
                break;
            }
            total += out_a.len() + out_b.len();
            for seg in out_a {
                n += 1;
                if Some(n) == drop_nth {
                    continue;
                }
                b.process(now, &seg.repr, seg.payload());
            }
            for seg in out_b {
                n += 1;
                if Some(n) == drop_nth {
                    continue;
                }
                a.process(now, &seg.repr, seg.payload());
            }
            if total > 100_000 {
                panic!("pump did not converge");
            }
        }
        total
    }

    fn established_pair() -> (TcpSocket, TcpSocket, Instant) {
        let now = Instant::from_millis(1);
        let mut c = TcpSocket::client(
            addr(2, 4000),
            addr(1, 80),
            SeqNumber(1000),
            TcpConfig::default(),
            now,
        );
        // Drive the SYN out, hand it to a fresh server socket.
        let mut out = Vec::new();
        c.dispatch(now, &mut FramePool::new(), &mut out);
        assert_eq!(out.len(), 1);
        let syn = &out[0];
        assert!(syn.repr.flags.contains(TcpFlags::SYN));
        let mut s = TcpSocket::server(
            addr(1, 80),
            addr(2, 4000),
            SeqNumber(9000),
            TcpConfig::default(),
            &syn.repr,
            now,
        );
        pump(&mut c, &mut s, now, None);
        assert_eq!(c.state(), TcpState::Established);
        assert_eq!(s.state(), TcpState::Established);
        (c, s, now)
    }

    #[test]
    fn three_way_handshake() {
        let (_c, _s, _) = established_pair();
    }

    #[test]
    fn data_transfer_both_directions() {
        let (mut c, mut s, now) = established_pair();
        assert_eq!(c.send(b"request"), 7);
        pump(&mut c, &mut s, now, None);
        assert_eq!(s.recv(100), b"request");
        assert_eq!(s.send(b"response!"), 9);
        pump(&mut c, &mut s, now, None);
        assert_eq!(c.recv(100), b"response!");
    }

    #[test]
    fn large_transfer_is_segmented_by_mss() {
        let (mut c, mut s, now) = established_pair();
        let data = vec![0xABu8; 10_000];
        assert_eq!(c.send(&data), 10_000);
        pump(&mut c, &mut s, now, None);
        let got = s.recv(20_000);
        assert_eq!(got.len(), 10_000);
        assert!(got.iter().all(|&b| b == 0xAB));
    }

    #[test]
    fn orderly_close_reaches_time_wait_and_last_ack() {
        let (mut c, mut s, now) = established_pair();
        c.send(b"bye");
        c.close();
        pump(&mut c, &mut s, now, None);
        assert_eq!(s.recv(10), b"bye");
        assert_eq!(s.state(), TcpState::CloseWait);
        assert_eq!(c.state(), TcpState::FinWait2);
        s.close();
        pump(&mut c, &mut s, now, None);
        assert_eq!(c.state(), TcpState::TimeWait);
        assert_eq!(s.state(), TcpState::Closed);
        // TIME_WAIT expires.
        let later = now + TcpConfig::default().time_wait + Duration::from_secs(1);
        c.on_timer(later);
        assert!(c.is_closed());
        assert_eq!(c.error(), None);
    }

    #[test]
    fn lost_data_segment_is_retransmitted_on_rto() {
        let (mut c, mut s, now) = established_pair();
        c.send(b"important");
        // Drop the first data segment.
        pump(&mut c, &mut s, now, Some(1));
        assert_eq!(s.recv_available(), 0);
        // Fire the RTO.
        let rto_at = c.poll_at().expect("rto armed");
        c.on_timer(rto_at);
        pump(&mut c, &mut s, rto_at, None);
        assert_eq!(s.recv(100), b"important");
    }

    #[test]
    fn rto_backoff_eventually_times_out() {
        let now = Instant::from_millis(1);
        let cfg = TcpConfig { max_retries: 3, ..TcpConfig::default() };
        let mut c = TcpSocket::client(addr(2, 4000), addr(1, 80), SeqNumber(0), cfg, now);
        let mut out = Vec::new();
        c.dispatch(now, &mut FramePool::new(), &mut out); // SYN into the void
        for _ in 0..10 {
            if let Some(t) = c.poll_at() {
                c.on_timer(t);
                c.dispatch(t, &mut FramePool::new(), &mut out);
            }
        }
        assert!(c.is_closed());
        assert_eq!(c.error(), Some(TcpError::TimedOut));
    }

    #[test]
    fn out_of_window_rst_is_ignored_in_window_rst_kills() {
        let (mut c, _s, now) = established_pair();
        // Fabricate an out-of-window RST (like ls2's invalid translations).
        let mut rst = TcpRepr::new(80, 4000, TcpFlags::RST);
        rst.seq = SeqNumber(0xDEAD_0000); // far outside the window
        c.process(now, &rst, &[]);
        assert_eq!(c.state(), TcpState::Established, "bogus RST must be ignored");

        // An in-window RST is honored. rcv_nxt is the server ISS + 1.
        let mut valid = TcpRepr::new(80, 4000, TcpFlags::RST);
        valid.seq = SeqNumber(9001);
        c.process(now, &valid, &[]);
        assert!(c.is_closed());
        assert_eq!(c.error(), Some(TcpError::Reset));
    }

    #[test]
    fn reordered_segments_reassemble() {
        let (mut c, mut s, now) = established_pair();
        c.send(&vec![1u8; 3000]); // three MSS-1460 segments? (1460+1460+80)
        let mut segs = Vec::new();
        c.dispatch(now, &mut FramePool::new(), &mut segs);
        assert!(segs.len() >= 2);
        // Deliver in reverse order.
        for seg in segs.iter().rev() {
            s.process(now, &seg.repr, seg.payload());
        }
        pump(&mut c, &mut s, now, None);
        assert_eq!(s.recv(5000).len(), 3000);
    }

    #[test]
    fn slow_start_grows_cwnd() {
        let (mut c, mut s, now) = established_pair();
        let initial = c.cwnd();
        c.send(&vec![0u8; 50_000]);
        pump(&mut c, &mut s, now, None);
        assert!(c.cwnd() > initial, "cwnd should grow: {} -> {}", initial, c.cwnd());
        assert_eq!(s.recv(60_000).len(), 50_000);
    }

    #[test]
    fn bulk_source_and_sink_move_all_bytes_with_stamps() {
        let (mut c, mut s, now) = established_pair();
        c.set_bulk_source(64 * 1024, 2048);
        s.set_sink(2048);
        // Iteratively pump with advancing time so stamps differ.
        let mut t = now;
        for _ in 0..200 {
            if c.bulk_unfinished() == 0 {
                break;
            }
            c.on_timer(t);
            s.on_timer(t);
            pump(&mut c, &mut s, t, None);
            t += Duration::from_millis(1);
        }
        assert_eq!(c.bulk_unfinished(), 0);
        let stats = s.sink_stats().unwrap();
        assert_eq!(stats.bytes, 64 * 1024);
        assert_eq!(stats.stamps.len(), (64 * 1024) / 2048);
        for (sent, rcvd) in &stats.stamps {
            assert!(rcvd >= sent);
        }
    }

    #[test]
    fn keepalive_emits_periodic_acks() {
        let now = Instant::from_millis(1);
        let cfg = TcpConfig { keepalive: Some(Duration::from_secs(10)), ..TcpConfig::default() };
        let mut c = TcpSocket::client(addr(2, 4000), addr(1, 80), SeqNumber(1000), cfg, now);
        let mut out = Vec::new();
        c.dispatch(now, &mut FramePool::new(), &mut out);
        let syn = out.pop().unwrap();
        let mut s = TcpSocket::server(
            addr(1, 80),
            addr(2, 4000),
            SeqNumber(2000),
            TcpConfig::default(),
            &syn.repr,
            now,
        );
        pump(&mut c, &mut s, now, None);
        assert_eq!(c.state(), TcpState::Established);
        let ka_at = c.poll_at().expect("keepalive armed");
        assert_eq!(ka_at, now + Duration::from_secs(10));
        c.on_timer(ka_at);
        let mut out = Vec::new();
        c.dispatch(ka_at, &mut FramePool::new(), &mut out);
        assert_eq!(out.len(), 1);
        assert!(out[0].repr.flags.contains(TcpFlags::ACK));
        assert!(out[0].payload().is_empty());
    }

    #[test]
    fn zero_window_then_probe_recovers() {
        let now = Instant::from_millis(1);
        let small = TcpConfig { recv_buf: 2048, ..TcpConfig::default() };
        let mut c = TcpSocket::client(
            addr(2, 4000),
            addr(1, 80),
            SeqNumber(1000),
            TcpConfig::default(),
            now,
        );
        let mut out = Vec::new();
        c.dispatch(now, &mut FramePool::new(), &mut out);
        let syn = out.pop().unwrap();
        let mut s =
            TcpSocket::server(addr(1, 80), addr(2, 4000), SeqNumber(2000), small, &syn.repr, now);
        pump(&mut c, &mut s, now, None);
        // Fill the tiny receive buffer without the app reading.
        c.send(&vec![7u8; 8000]);
        pump(&mut c, &mut s, now, None);
        assert_eq!(s.recv_available(), 2048);
        // Application finally reads; window reopens via ACK.
        let got = s.recv(10_000);
        assert_eq!(got.len(), 2048);
        let mut t = now;
        for _ in 0..100 {
            if c.send_queue_len() == 0 && s.recv_available() == 0 && c.unsent_from(c.snd_nxt) == 0 {
                break;
            }
            t += Duration::from_millis(600);
            c.on_timer(t);
            s.on_timer(t);
            pump(&mut c, &mut s, t, None);
            s.recv(10_000);
        }
        assert_eq!(c.send_queue_len(), 0, "all data should eventually flow");
    }

    #[test]
    fn fast_retransmit_on_triple_dupack() {
        let (mut c, mut s, now) = established_pair();
        // Warm up so the congestion window holds five segments.
        c.send(&vec![9u8; 50_000]);
        pump(&mut c, &mut s, now, None);
        assert_eq!(s.recv(60_000).len(), 50_000);
        assert!(c.cwnd() >= 1460 * 5);
        // Send five segments; drop the first on delivery, deliver the rest
        // to generate dup ACKs.
        c.send(&vec![3u8; 1460 * 5]);
        let mut segs = Vec::new();
        c.dispatch(now, &mut FramePool::new(), &mut segs);
        assert!(segs.len() >= 4, "expected several segments, got {}", segs.len());
        let mut acks = Vec::new();
        for (i, seg) in segs.iter().enumerate() {
            if i == 0 {
                continue; // lost
            }
            s.process(now, &seg.repr, seg.payload());
            let mut out = Vec::new();
            s.dispatch(now, &mut FramePool::new(), &mut out);
            acks.extend(out);
        }
        // Feed the dup ACKs back.
        for ack in &acks {
            c.process(now, &ack.repr, ack.payload());
        }
        let mut out = Vec::new();
        c.dispatch(now, &mut FramePool::new(), &mut out);
        // The head segment must have been retransmitted without an RTO.
        let head_seq = segs[0].repr.seq;
        assert!(
            out.iter().any(|seg| seg.repr.seq == head_seq && !seg.payload().is_empty()),
            "head segment should be fast-retransmitted"
        );
        for seg in &out {
            s.process(now, &seg.repr, seg.payload());
        }
        pump(&mut c, &mut s, now, None);
        assert_eq!(s.recv(10_000).len(), 1460 * 5);
    }

    #[test]
    fn mss_negotiated_from_syn() {
        let now = Instant::ZERO;
        let cfg = TcpConfig { mss: 500, ..TcpConfig::default() };
        let mut c = TcpSocket::client(addr(2, 1), addr(1, 2), SeqNumber(0), cfg, now);
        let mut out = Vec::new();
        c.dispatch(now, &mut FramePool::new(), &mut out);
        let syn = out.pop().unwrap();
        let mut s = TcpSocket::server(
            addr(1, 2),
            addr(2, 1),
            SeqNumber(0),
            TcpConfig::default(),
            &syn.repr,
            now,
        );
        pump(&mut c, &mut s, now, None);
        assert_eq!(s.effective_mss(), 500);
        assert_eq!(c.effective_mss(), 500);
        // Server-side segments respect the peer MSS.
        s.send(&vec![1u8; 1200]);
        let mut segs = Vec::new();
        s.dispatch(now, &mut FramePool::new(), &mut segs);
        assert!(segs.iter().all(|sg| sg.payload().len() <= 500));
    }

    #[test]
    fn duplicate_data_is_not_double_delivered() {
        let (mut c, mut s, now) = established_pair();
        c.send(b"once");
        let mut segs = Vec::new();
        c.dispatch(now, &mut FramePool::new(), &mut segs);
        let seg = &segs[0];
        s.process(now, &seg.repr, seg.payload());
        s.process(now, &seg.repr, seg.payload()); // duplicate
        assert_eq!(s.recv(100), b"once");
        assert_eq!(s.recv_available(), 0);
    }

    #[test]
    fn send_on_a_bulk_socket_is_refused() {
        let (mut c, _s, _now) = established_pair();
        assert_eq!(c.send(b"app"), 3, "an app-data socket accepts bytes");
        let (mut c, _s, _now) = established_pair();
        c.set_bulk_source(4096, 2048);
        assert_eq!(c.send(b"app"), 0);
        assert_eq!(c.send_queue_len(), 0);
    }

    /// The bulk stream generated the way it was before [`BulkSendBuffer`]:
    /// every byte written into a [`ByteQueue`]. The reference the stamp-only
    /// buffer is checked against.
    struct QueueFilledStream {
        total: u64,
        generated: u64,
        stamp_every: u64,
        queue: ByteQueue,
    }

    impl QueueFilledStream {
        fn generate(&mut self, now: Instant, space: usize) {
            let remaining = |s: &Self| s.total - s.generated;
            let mut space = (space as u64).min(remaining(self));
            while space > 0 && remaining(self) > 0 {
                let pos = self.generated;
                let in_block = pos % self.stamp_every;
                if in_block == 0 {
                    let record = remaining(self).min(16);
                    if space < record {
                        break;
                    }
                    let mut bytes = [0u8; 16];
                    bytes[..8].copy_from_slice(&STAMP_MAGIC.to_be_bytes());
                    bytes[8..].copy_from_slice(&now.as_nanos().to_be_bytes());
                    self.queue.extend_from_slice(&bytes[..record as usize]);
                    self.generated += record;
                    space -= record;
                } else {
                    let run = (self.stamp_every - in_block).min(space).min(remaining(self));
                    for p in pos..pos + run {
                        self.queue.extend_from_slice(&[p as u8]);
                    }
                    self.generated += run;
                    space -= run;
                }
            }
        }
    }

    fn fold16(mut acc: u32) -> u16 {
        while acc > 0xFFFF {
            acc = (acc & 0xFFFF) + (acc >> 16);
        }
        acc as u16
    }

    /// Random generate / ACK / copy sequences over stamp intervals that
    /// split records across segments, odd offsets and lengths, and
    /// retransmit ranges behind the send point: the stamp-only buffer
    /// copies the same bytes with the same sums as the queue filled byte by
    /// byte, and holds the same length.
    #[test]
    fn bulk_buffer_matches_a_queue_filled_the_old_way() {
        for (seed, stamp_every, total) in [
            (1, 2048, 1 << 20),
            (2, 16, 70_001),
            (3, 17, 90_000),
            (4, 1000, 300_007),
            (5, 5000, 1 << 19),
            (6, 2048, 2048 * 40 + 10),
        ] {
            let mut rng = hgw_core::SimRng::new(seed);
            let mut bulk = BulkSendBuffer::new(total, stamp_every);
            let mut reference = QueueFilledStream {
                total,
                generated: 0,
                stamp_every: stamp_every as u64,
                queue: ByteQueue::new(),
            };
            let mut now = Instant::from_millis(1);
            let (mut fused, mut plain) = (Vec::new(), Vec::new());
            for op in 0..3_000 {
                match rng.below(4) {
                    0 => {
                        now += Duration::from_micros(1 + rng.below(5_000));
                        let space = rng.below(9_000) as usize;
                        let added = bulk.generate(now, space);
                        let before = reference.queue.len();
                        reference.generate(now, space);
                        assert_eq!(added, reference.queue.len() - before, "seed {seed} op {op}");
                    }
                    1 => {
                        let n = rng.below(3_000) as usize;
                        bulk.consume(n);
                        reference.queue.consume(n);
                    }
                    _ => {
                        // Go-back-N and fast retransmit resend from the
                        // front, where a record may be partly ACKed.
                        let len = bulk.len() as u64;
                        let offset = match rng.below(3) {
                            0 => 0,
                            1 => rng.below(len.min(40) + 2),
                            _ => rng.below(len + 2),
                        } as usize;
                        let max = rng.below(1_461 + 40) as usize;
                        let lead = rng.below(3) as usize; // odd and even destination offsets
                        fused.clear();
                        fused.resize(lead, 0xA5);
                        plain.clear();
                        plain.resize(lead, 0xA5);
                        let got = bulk.copy_range_into_with_sum(offset, max, &mut fused);
                        let want =
                            reference.queue.copy_range_into_with_sum(offset, max, &mut plain);
                        assert_eq!(fused, plain, "seed {seed} op {op} offset {offset} max {max}");
                        assert_eq!(fold16(got), fold16(want), "seed {seed} op {op}");
                    }
                }
                assert_eq!(bulk.len(), reference.queue.len(), "seed {seed} op {op}");
                assert_eq!(bulk.remaining(), total - reference.generated);
                assert!(bulk.stamps.len() as u64 <= bulk.len() as u64 / stamp_every as u64 + 2);
            }
        }
    }

    /// A stream whose total ends inside a record drains: the last record
    /// is cut to the bytes left and still generated whole or not at all.
    #[test]
    fn a_stream_ending_inside_a_record_drains() {
        let now = Instant::from_millis(1);
        let mut bulk = BulkSendBuffer::new(2048 + 10, 2048);
        assert_eq!(bulk.generate(now, 2048 + 5), 2048, "no room for the 10-byte record");
        assert_eq!(bulk.generate(now, 10), 10);
        assert_eq!(bulk.remaining(), 0);
        let mut tail = Vec::new();
        bulk.copy_range_into_with_sum(2048, 64, &mut tail);
        let mut record = STAMP_MAGIC.to_be_bytes().to_vec();
        record.extend_from_slice(&now.as_nanos().to_be_bytes());
        assert_eq!(tail, record[..10]);
    }

    /// A 2 049-byte transfer completes with every byte of the stream, and
    /// the sink reads the one whole record as a stamp but not the single
    /// byte of the cut record after it.
    #[test]
    fn bulk_transfer_ending_inside_a_record_completes() {
        let run = |c: &mut TcpSocket, s: &mut TcpSocket, now: Instant| {
            let mut t = now;
            for _ in 0..50 {
                if c.bulk_unfinished() == 0 {
                    break;
                }
                c.on_timer(t);
                s.on_timer(t);
                pump(c, s, t, None);
                t += Duration::from_millis(1);
            }
            assert_eq!(c.bulk_unfinished(), 0);
        };
        let (mut c, mut s, now) = established_pair();
        c.set_bulk_source(2049, 2048);
        run(&mut c, &mut s, now);
        let got = s.recv(4096);
        assert_eq!(got.len(), 2049);
        assert_eq!(got[..8], STAMP_MAGIC.to_be_bytes());
        assert!((16..2048).all(|p| got[p] == p as u8), "filler is the stream position");
        assert_eq!(got[2048], STAMP_MAGIC.to_be_bytes()[0], "the cut record's first byte");

        let (mut c, mut s, now) = established_pair();
        c.set_bulk_source(2049, 2048);
        s.set_sink(2048);
        run(&mut c, &mut s, now);
        let stats = s.sink_stats().unwrap();
        assert_eq!(stats.bytes, 2049);
        assert_eq!(stats.stamps.len(), 1);
    }

    /// The closed-form filler sum against the wide sum of the same bytes,
    /// for every phase of the pattern and every run length up to a block.
    #[test]
    fn pattern_sum_matches_the_wide_sum() {
        let mut scratch = Vec::with_capacity(SPAN);
        for phase in 0..256 {
            for n in 0..=SPAN {
                scratch.clear();
                let want = copy_and_checksum(&PATTERN[phase..phase + n], &mut scratch);
                assert_eq!(fold16(pattern_pair_sum(phase, n)), fold16(want), "phase {phase} n {n}");
            }
        }
    }

    /// A bulk transfer that loses segments resends them by go-back-N from
    /// the stamp-only buffer: the sink still sees every byte and stamp.
    #[test]
    fn bulk_retransmits_regenerate_the_stream() {
        let (mut c, mut s, now) = established_pair();
        c.set_bulk_source(48 * 1024, 2048);
        s.set_sink(2048);
        let mut t = now;
        for round in 0..400 {
            if c.bulk_unfinished() == 0 {
                break;
            }
            c.on_timer(t);
            s.on_timer(t);
            pump(&mut c, &mut s, t, (round % 3 == 0).then_some(2));
            t += Duration::from_millis(300);
        }
        assert_eq!(c.bulk_unfinished(), 0);
        let stats = s.sink_stats().unwrap();
        assert_eq!(stats.bytes, 48 * 1024);
        assert_eq!(stats.stamps.len(), 24);
    }
}
