//! Non-blocking framed connection: OpenFlow messages over a TCP stream.
//!
//! A [`Connection`] owns one non-blocking [`TcpStream`] plus the two buffers
//! readiness-based I/O requires:
//!
//! * an incremental [`Framer`] that reassembles length-prefixed OpenFlow
//!   frames from whatever byte boundaries `read(2)` hands us, and
//! * a write buffer that every frame is encoded straight into and that
//!   keeps what the kernel would not accept yet (`EWOULDBLOCK`), flushed on
//!   writability events. [`Connection::send`] is "append, then flush if
//!   nothing was queued".
//!
//! # Backpressure
//!
//! The write buffer is unbounded by design — dropping control-channel frames
//! would corrupt the OpenFlow session — so overload is surfaced instead of
//! hidden: [`Connection::over_high_water`] reports when more than
//! [`WRITE_HIGH_WATER`] bytes are queued. The proxy uses this to pause
//! *discretionary* traffic (probe injections) per switch while continuing to
//! forward controller traffic; dispatch resumes once the backlog drains
//! below [`WRITE_LOW_WATER`] (see [`Connection::below_low_water`]); see
//! [`crate::proxy_app`] ("Backpressure").

use std::io::{self, Read, Write};
use std::net::TcpStream;

use monocle_openflow::{CodecError, Framer, OfMessage};

/// Queued-bytes threshold above which discretionary sends should pause.
pub const WRITE_HIGH_WATER: usize = 256 * 1024;

/// Queued-bytes threshold below which paused senders may resume.
pub const WRITE_LOW_WATER: usize = 64 * 1024;

/// Compact the write buffer once this many consumed bytes accumulate.
const WRITE_COMPACT_AT: usize = 64 * 1024;

/// Read chunk size per `read(2)` call.
const READ_CHUNK: usize = 16 * 1024;

/// A non-blocking, framed OpenFlow connection.
#[derive(Debug)]
pub struct Connection {
    stream: TcpStream,
    framer: Framer,
    /// Outgoing bytes not yet accepted by the kernel; `out[out_start..]`
    /// is the live region.
    out: Vec<u8>,
    out_start: usize,
    /// Peer sent EOF (orderly shutdown).
    eof: bool,
}

impl Connection {
    /// Wraps `stream`, switching it to non-blocking mode.
    pub fn new(stream: TcpStream) -> io::Result<Self> {
        stream.set_nonblocking(true)?;
        // Probes and acks are latency-critical single frames; never let the
        // kernel hold them back for coalescing.
        stream.set_nodelay(true)?;
        Ok(Self {
            stream,
            framer: Framer::new(),
            out: Vec::new(),
            out_start: 0,
            eof: false,
        })
    }

    /// The underlying stream (for registration with the poller).
    pub fn stream(&self) -> &TcpStream {
        &self.stream
    }

    /// Appends `msg`'s frame to the write buffer, then flushes if nothing
    /// was queued before it: an idle socket gets the frame in one
    /// `write(2)`, and a frame behind queued output waits its turn, so
    /// frames never reorder.
    pub fn send(&mut self, msg: &OfMessage, xid: u32) -> io::Result<()> {
        let idle = self.pending() == 0;
        monocle_openflow::wire::encode_into(&mut self.out, msg, xid);
        if idle {
            self.flush()?;
        }
        Ok(())
    }

    /// Flushes buffered output. Returns `true` when the buffer is fully
    /// drained (the poller can drop `WRITABLE` interest).
    pub fn flush(&mut self) -> io::Result<bool> {
        while self.out_start < self.out.len() {
            match self.stream.write(&self.out[self.out_start..]) {
                Ok(0) => return Err(io::ErrorKind::WriteZero.into()),
                Ok(n) => self.out_start += n,
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(e) => return Err(e),
            }
        }
        if self.out_start == self.out.len() {
            self.out.clear();
            self.out_start = 0;
        } else if self.out_start >= WRITE_COMPACT_AT {
            self.out.drain(..self.out_start);
            self.out_start = 0;
        }
        Ok(self.pending() == 0)
    }

    /// Drains the socket's receive buffer and returns every complete frame.
    ///
    /// Reads until `EWOULDBLOCK` or EOF. A [`CodecError`] from the framer is
    /// fatal for the connection and surfaces as `InvalidData`.
    pub fn handle_readable(&mut self) -> io::Result<Vec<(OfMessage, u32)>> {
        let mut chunk = [0u8; READ_CHUNK];
        loop {
            match self.stream.read(&mut chunk) {
                Ok(0) => {
                    self.eof = true;
                    break;
                }
                Ok(n) => self.framer.push(&chunk[..n]),
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(e) => return Err(e),
            }
        }
        let mut frames = Vec::new();
        loop {
            match self.framer.next_frame() {
                Ok(Some((msg, xid))) => frames.push((msg, xid)),
                Ok(None) => break,
                Err(e) => return Err(codec_to_io(e)),
            }
        }
        Ok(frames)
    }

    /// Bytes queued but not yet written to the kernel.
    pub fn pending(&self) -> usize {
        self.out.len() - self.out_start
    }

    /// Whether queued output exceeds [`WRITE_HIGH_WATER`].
    pub fn over_high_water(&self) -> bool {
        self.pending() > WRITE_HIGH_WATER
    }

    /// Whether queued output has drained below [`WRITE_LOW_WATER`].
    pub fn below_low_water(&self) -> bool {
        self.pending() < WRITE_LOW_WATER
    }

    /// Whether the peer performed an orderly shutdown. Buffered frames read
    /// before the EOF were still delivered.
    pub fn peer_closed(&self) -> bool {
        self.eof
    }
}

fn codec_to_io(e: CodecError) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, format!("codec: {e}"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use monocle_openflow::OfMessage;
    use std::net::TcpListener;

    fn pair() -> (Connection, TcpStream) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let client = TcpStream::connect(addr).unwrap();
        let (server, _) = listener.accept().unwrap();
        (Connection::new(server).unwrap(), client)
    }

    #[test]
    fn send_and_receive_roundtrip() {
        let (mut conn, peer) = pair();
        let mut peer_conn = Connection::new(peer).unwrap();
        conn.send(&OfMessage::EchoRequest(vec![1, 2, 3]), 42)
            .unwrap();
        conn.flush().unwrap();
        // Loopback delivery is fast but not synchronous.
        let frames = loop {
            let f = peer_conn.handle_readable().unwrap();
            if !f.is_empty() {
                break f;
            }
            std::thread::yield_now();
        };
        assert_eq!(frames, vec![(OfMessage::EchoRequest(vec![1, 2, 3]), 42)]);
    }

    #[test]
    fn backpressure_buffers_and_reports_high_water() {
        let (mut conn, peer) = pair();
        // Keep `peer` alive but never read from it: the kernel buffers fill
        // and writes start returning EWOULDBLOCK.
        let big = OfMessage::EchoRequest(vec![0xab; 4096]);
        let mut xid = 0u32;
        while !conn.over_high_water() {
            conn.send(&big, xid).unwrap();
            xid += 1;
            assert!(xid < 1_000_000, "kernel never pushed back");
        }
        assert!(conn.pending() > WRITE_HIGH_WATER);
        // Now drain from the peer side until the backlog clears.
        let mut peer_conn = Connection::new(peer).unwrap();
        let mut got = 0usize;
        while !(conn.flush().unwrap()) || got < xid as usize {
            got += peer_conn.handle_readable().unwrap().len();
        }
        assert_eq!(conn.pending(), 0);
        assert!(conn.below_low_water());
        assert_eq!(got, xid as usize);
    }

    #[test]
    fn frames_sent_behind_queued_output_arrive_in_order() {
        let (mut conn, peer) = pair();
        // The peer reads nothing until the backlog is past the high-water
        // mark, so all but the first frames are appended behind queued bytes.
        let mut sent = Vec::new();
        while !conn.over_high_water() {
            let xid = sent.len() as u32;
            let msg = OfMessage::EchoRequest(vec![xid as u8; 4096 + xid as usize % 7]);
            conn.send(&msg, xid).unwrap();
            sent.push((msg, xid));
            assert!(xid < 1_000_000, "kernel never pushed back");
        }
        for msg in [OfMessage::BarrierReply, OfMessage::EchoReply(vec![9])] {
            let xid = sent.len() as u32;
            conn.send(&msg, xid).unwrap();
            sent.push((msg, xid));
        }
        let mut peer_conn = Connection::new(peer).unwrap();
        let mut got = Vec::new();
        while got.len() < sent.len() {
            conn.flush().unwrap();
            got.extend(peer_conn.handle_readable().unwrap());
        }
        assert_eq!(got, sent);
        assert_eq!(conn.pending(), 0);
    }

    #[test]
    fn frames_survive_arbitrary_write_boundaries() {
        let (mut conn, peer) = pair();
        let mut peer_conn = Connection::new(peer).unwrap();
        for i in 0..100u32 {
            conn.send(&OfMessage::EchoReply(vec![i as u8; (i % 17) as usize]), i)
                .unwrap();
        }
        while !conn.flush().unwrap() {
            std::thread::yield_now();
        }
        let mut frames = Vec::new();
        while frames.len() < 100 {
            frames.extend(peer_conn.handle_readable().unwrap());
            std::thread::yield_now();
        }
        for (i, (msg, xid)) in frames.iter().enumerate() {
            assert_eq!(*xid, i as u32);
            assert_eq!(*msg, OfMessage::EchoReply(vec![i as u8; i % 17]));
        }
    }

    #[test]
    fn peer_eof_flagged_after_final_frames() {
        let (mut conn, peer) = pair();
        let mut peer_conn = Connection::new(peer).unwrap();
        peer_conn.send(&OfMessage::Hello, 7).unwrap();
        peer_conn.flush().unwrap();
        drop(peer_conn);
        let mut frames = Vec::new();
        while !conn.peer_closed() {
            frames.extend(conn.handle_readable().unwrap());
        }
        frames.extend(conn.handle_readable().unwrap());
        assert!(frames.contains(&(OfMessage::Hello, 7)));
    }
}
