//! Property-based tests of the TCP implementation: arbitrary byte streams
//! must be delivered intact, in order, under arbitrary loss patterns.

use std::net::SocketAddrV4;

use proptest::prelude::*;

use hgw_core::{Duration, FramePool, Instant};
use hgw_stack::tcp::{TcpConfig, TcpSegment, TcpSocket, TcpState};
use hgw_wire::SeqNumber;

fn addr(last: u8, port: u16) -> SocketAddrV4 {
    SocketAddrV4::new(std::net::Ipv4Addr::new(10, 0, 0, last), port)
}

/// A deterministic lossy channel driven by a drop bitmask.
struct Channel {
    drops: Vec<bool>,
    cursor: usize,
}

impl Channel {
    fn deliver(&mut self, seg: &TcpSegment, to: &mut TcpSocket, now: Instant) {
        let drop = self.drops.get(self.cursor).copied().unwrap_or(false);
        self.cursor += 1;
        if !drop {
            to.process(now, &seg.repr, seg.payload());
        }
    }
}

/// Runs both sockets with timers until the stream is fully delivered or the
/// step budget runs out. Returns the bytes the receiver got.
fn run_transfer(stream: &[u8], drops: Vec<bool>, chunk: usize) -> Vec<u8> {
    let mut now = Instant::from_millis(1);
    let cfg = TcpConfig::default();
    let mut a = TcpSocket::client(addr(1, 1000), addr(2, 80), SeqNumber(7), cfg, now);
    let mut pool = FramePool::new();
    // Handshake (lossless; loss applies to the data phase).
    let mut out = Vec::new();
    a.dispatch(now, &mut pool, &mut out);
    let syn = out.pop().unwrap();
    let mut b = TcpSocket::server(addr(2, 80), addr(1, 1000), SeqNumber(99), cfg, &syn.repr, now);
    for _ in 0..4 {
        let mut oa = Vec::new();
        let mut ob = Vec::new();
        a.dispatch(now, &mut pool, &mut oa);
        b.dispatch(now, &mut pool, &mut ob);
        for s in oa {
            b.process(now, &s.repr, s.payload());
        }
        for s in ob {
            a.process(now, &s.repr, s.payload());
        }
    }
    assert_eq!(a.state(), TcpState::Established);

    let mut channel = Channel { drops, cursor: 0 };
    let mut received = Vec::new();
    let mut sent = 0;
    // Event loop with coarse virtual time so RTOs fire.
    for _ in 0..30_000 {
        if sent < stream.len() {
            sent += a.send(&stream[sent..(sent + chunk).min(stream.len())]);
        }
        a.on_timer(now);
        b.on_timer(now);
        let mut oa = Vec::new();
        a.dispatch(now, &mut pool, &mut oa);
        for s in oa {
            channel.deliver(&s, &mut b, now);
        }
        received.extend(b.recv(usize::MAX));
        let mut ob = Vec::new();
        b.dispatch(now, &mut pool, &mut ob);
        for s in ob {
            // ACK path: lossless (loss there only slows things further).
            a.process(now, &s.repr, s.payload());
        }
        if received.len() >= stream.len() && sent >= stream.len() {
            break;
        }
        now += Duration::from_millis(50);
    }
    received
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn stream_delivered_intact_under_loss(
        stream in proptest::collection::vec(any::<u8>(), 1..20_000),
        drops in proptest::collection::vec(any::<bool>(), 0..64),
        chunk in 1usize..4096,
    ) {
        // Cap the loss density so forward progress is possible: every
        // fourth slot is forced to deliver.
        let drops: Vec<bool> =
            drops.iter().enumerate().map(|(i, &d)| d && i % 4 != 0).collect();
        let received = run_transfer(&stream, drops, chunk);
        prop_assert_eq!(received.len(), stream.len(), "length mismatch");
        prop_assert_eq!(received, stream, "stream corrupted");
    }

    #[test]
    fn lossless_stream_always_arrives(
        stream in proptest::collection::vec(any::<u8>(), 1..40_000),
        chunk in 1usize..8192,
    ) {
        let received = run_transfer(&stream, Vec::new(), chunk);
        prop_assert_eq!(received, stream);
    }
}
