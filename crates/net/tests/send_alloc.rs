//! `Connection::send` encodes each frame straight into the connection's write
//! buffer, so once that buffer has grown to fit, sending a FlowMod, a probe
//! `PacketOut` or a `BarrierReply` to a socket that takes the bytes at once
//! allocates nothing. Counted by a global allocator wrapping `System`, per
//! thread, so that the test harness's own threads do not count.

use monocle_net::Connection;
use monocle_openflow::messages::PORT_TABLE;
use monocle_openflow::{wire, Action, FlowMod, Framer, Match, OfMessage};
use monocle_packet::{craft_packet, PacketFields, ProbeMeta};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::io::Read;
use std::net::{TcpListener, TcpStream};

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

fn count() {
    // `try_with`: the slot is gone while its thread is being torn down.
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
}

struct Counting;

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counter beside it is a
// const-initialized thread-local without a destructor, so counting neither
// allocates nor re-enters the allocator.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        // SAFETY: the caller upholds `alloc`'s contract for `layout`.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count();
        // SAFETY: as for `alloc`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        // SAFETY: `ptr` came from this allocator, that is from `System`, with
        // `layout`; the caller upholds the rest of `realloc`'s contract.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` with `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// `f()` and the allocations this thread made while running it.
fn allocations<T>(f: impl FnOnce() -> T) -> (T, u64) {
    let before = ALLOCATIONS.with(Cell::get);
    let out = f();
    (out, ALLOCATIONS.with(Cell::get) - before)
}

/// What the proxy sends most: an update, a probe and an ack.
fn messages() -> Vec<OfMessage> {
    let flowmod = FlowMod::add(
        10,
        Match::any().with_nw_dst([10, 0, 0, 0], 24).with_tp_dst(80),
        vec![Action::Output(2)],
    );
    let meta = ProbeMeta {
        switch_id: 1,
        rule_id: 7,
        seq: 42,
    };
    let probe = craft_packet(&PacketFields::default(), &meta.encode()).unwrap();
    vec![
        OfMessage::FlowMod(flowmod),
        OfMessage::PacketOut {
            in_port: 1,
            actions: vec![Action::Output(PORT_TABLE)],
            data: probe,
        },
        OfMessage::BarrierReply,
    ]
}

#[test]
fn a_warm_send_allocates_nothing() {
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let mut peer = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
    let mut conn = Connection::new(listener.accept().unwrap().0).unwrap();
    let msgs = messages();
    let mut sent = Vec::new();
    let mut counts = Vec::new();
    // The first round grows the write buffer; the three after it count.
    for round in 0..4u32 {
        for (i, msg) in msgs.iter().enumerate() {
            let xid = 10 * round + i as u32;
            let (res, n) = allocations(|| conn.send(msg, xid));
            res.unwrap();
            assert_eq!(conn.pending(), 0, "the kernel took frame {xid}");
            if round > 0 {
                counts.push(n);
            }
            sent.push((msg.clone(), xid));
        }
    }
    assert_eq!(counts, vec![0; 3 * msgs.len()], "allocations per send");
    // Every frame arrives whole and in order.
    let total: usize = sent.iter().map(|(m, x)| wire::encode(m, *x).len()).sum();
    let mut bytes = vec![0u8; total];
    peer.read_exact(&mut bytes).unwrap();
    let mut framer = Framer::new();
    framer.push(&bytes);
    let mut got = Vec::new();
    while let Some(frame) = framer.next_frame().unwrap() {
        got.push(frame);
    }
    assert_eq!(got, sent);
}
