//! Single-threaded readiness event loop over the vendored epoll poller.
//!
//! The loop multiplexes any number of listeners and framed OpenFlow
//! [`Connection`]s on one thread. Application logic lives in a [`Driver`]:
//! the loop turns raw readiness into semantic [`TransportEvent`]s (a decoded
//! message, a completed accept, a drained write buffer, an expired timer)
//! and hands each to the driver together with an [`IoCtx`] for issuing I/O.
//!
//! ## Token scheme
//!
//! * `usize::MAX` — the cross-thread [`mio::Waker`] (planner-thread results).
//! * odd tokens — listening sockets.
//! * even tokens — connections.
//!
//! Tokens are never reused; connection ids stay valid as map keys for the
//! lifetime of the loop.
//!
//! ## Write interest
//!
//! The poller is level-triggered, so `WRITABLE` interest is registered only
//! while a connection has buffered output and dropped the moment it drains —
//! otherwise every idle socket would wake the loop continuously.

use std::collections::{HashMap, VecDeque};
use std::io;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::Arc;
use std::time::{Duration, Instant};

use mio::{Events, Interest, Poll, Token, Waker};
use monocle_openflow::OfMessage;

use crate::conn::Connection;
use crate::timer::TimerQueue;

/// Identifier of a connection (even poll token).
pub type ConnId = usize;

/// Identifier of a listening socket (odd poll token).
pub type ListenerId = usize;

const WAKER_TOKEN: usize = usize::MAX;

/// Semantic events delivered to a [`Driver`].
#[derive(Debug)]
pub enum TransportEvent {
    /// A listener accepted a new connection.
    Accepted {
        /// The listener that accepted.
        listener: ListenerId,
        /// The new connection's id.
        conn: ConnId,
        /// Peer address.
        peer: SocketAddr,
    },
    /// An outbound [`IoCtx::connect`] completed.
    Connected {
        /// The new connection's id.
        conn: ConnId,
    },
    /// A complete OpenFlow frame arrived.
    Message {
        /// Source connection.
        conn: ConnId,
        /// Decoded message.
        msg: OfMessage,
        /// Transaction id from the wire header.
        xid: u32,
    },
    /// A connection's write buffer fully drained (backpressure may lift).
    Drained {
        /// The drained connection.
        conn: ConnId,
    },
    /// A connection closed (peer EOF, reset, or protocol error). The
    /// connection has already been deregistered and dropped.
    Closed {
        /// The closed connection.
        conn: ConnId,
    },
    /// A timer armed via [`IoCtx::schedule_at`] expired.
    Timer {
        /// The token the timer was armed with.
        token: u64,
    },
    /// The loop's [`Waker`] was woken from another thread.
    Notified,
}

/// Application logic plugged into the event loop.
pub trait Driver {
    /// Handles one transport event. I/O is issued through `ctx`.
    fn handle(&mut self, ctx: &mut IoCtx<'_>, ev: TransportEvent);
}

struct ConnState {
    conn: Connection,
    writable_interest: bool,
    /// An outbound dial whose TCP handshake has not resolved yet. The
    /// first readiness event on the socket carries the result.
    connecting: bool,
}

struct Inner {
    conns: HashMap<usize, ConnState>,
    listeners: HashMap<usize, TcpListener>,
    timers: TimerQueue,
    loop_events: VecDeque<TransportEvent>,
    next_conn: usize,
    next_listener: usize,
    stop: bool,
    epoch: Instant,
}

/// I/O capabilities exposed to a [`Driver`] while it handles an event.
pub struct IoCtx<'a> {
    registry: &'a mio::Registry,
    inner: &'a mut Inner,
}

impl IoCtx<'_> {
    /// Binds a listener on `addr` and registers it for accepts.
    pub fn listen(&mut self, addr: &str) -> io::Result<ListenerId> {
        let listener = TcpListener::bind(addr)?;
        listener.set_nonblocking(true)?;
        let token = self.inner.next_listener;
        self.inner.next_listener += 2;
        self.registry
            .register(&listener, Token(token), Interest::READABLE)?;
        self.inner.listeners.insert(token, listener);
        Ok(token)
    }

    /// Local address of a listener (useful with port 0).
    pub fn listener_addr(&self, id: ListenerId) -> io::Result<SocketAddr> {
        self.inner.listeners[&id].local_addr()
    }

    /// Dials `addr` without blocking the loop. If the handshake completes
    /// immediately a synthetic [`TransportEvent::Connected`] is queued;
    /// otherwise the socket is registered writable and `Connected` (or
    /// `Closed`, on refusal) is delivered once the kernel resolves the
    /// handshake. Callers must not send on the connection until then.
    pub fn connect(&mut self, addr: SocketAddr) -> io::Result<ConnId> {
        let (stream, established) = mio::net::connect_nonblocking(addr)?;
        if established {
            let id = self.install(stream)?;
            self.inner
                .loop_events
                .push_back(TransportEvent::Connected { conn: id });
            return Ok(id);
        }
        let conn = Connection::new(stream)?;
        let token = self.inner.next_conn;
        self.inner.next_conn += 2;
        self.registry.register(
            conn.stream(),
            Token(token),
            Interest::READABLE | Interest::WRITABLE,
        )?;
        self.inner.conns.insert(
            token,
            ConnState {
                conn,
                writable_interest: true,
                connecting: true,
            },
        );
        Ok(token)
    }

    fn install(&mut self, stream: TcpStream) -> io::Result<ConnId> {
        let conn = Connection::new(stream)?;
        let token = self.inner.next_conn;
        self.inner.next_conn += 2;
        self.registry
            .register(conn.stream(), Token(token), Interest::READABLE)?;
        self.inner.conns.insert(
            token,
            ConnState {
                conn,
                writable_interest: false,
                connecting: false,
            },
        );
        Ok(token)
    }

    /// Sends `msg` on `conn`, buffering under backpressure. Unknown or
    /// closed connection ids are a silent no-op (races between a send and a
    /// `Closed` event are expected under load).
    pub fn send(&mut self, conn: ConnId, msg: &OfMessage, xid: u32) -> io::Result<()> {
        let Some(state) = self.inner.conns.get_mut(&conn) else {
            return Ok(());
        };
        state.conn.send(msg, xid)?;
        if state.conn.pending() > 0 && !state.writable_interest {
            self.registry.reregister(
                state.conn.stream(),
                Token(conn),
                Interest::READABLE | Interest::WRITABLE,
            )?;
            state.writable_interest = true;
        }
        Ok(())
    }

    /// Bytes queued on `conn` (0 for unknown ids).
    pub fn pending(&self, conn: ConnId) -> usize {
        self.inner.conns.get(&conn).map_or(0, |s| s.conn.pending())
    }

    /// Whether `conn`'s write buffer is over the high-water mark.
    pub fn over_high_water(&self, conn: ConnId) -> bool {
        self.inner
            .conns
            .get(&conn)
            .is_some_and(|s| s.conn.over_high_water())
    }

    /// Whether `conn`'s write buffer is below the low-water mark.
    pub fn below_low_water(&self, conn: ConnId) -> bool {
        self.inner
            .conns
            .get(&conn)
            .is_none_or(|s| s.conn.below_low_water())
    }

    /// Closes `conn` immediately, discarding any unflushed output. No
    /// [`TransportEvent::Closed`] is emitted for caller-initiated closes.
    pub fn close(&mut self, conn: ConnId) {
        if let Some(state) = self.inner.conns.remove(&conn) {
            let _ = self.registry.deregister(state.conn.stream());
        }
    }

    /// Arms a one-shot timer for absolute loop time `deadline_ns`
    /// (see [`IoCtx::now_ns`]).
    pub fn schedule_at(&mut self, deadline_ns: u64, token: u64) {
        self.inner.timers.schedule(deadline_ns, token);
    }

    /// Arms a one-shot timer `delay_ns` from now.
    pub fn schedule_in(&mut self, delay_ns: u64, token: u64) {
        let at = self.now_ns() + delay_ns;
        self.inner.timers.schedule(at, token);
    }

    /// Monotonic nanoseconds since the loop was created.
    pub fn now_ns(&self) -> u64 {
        self.inner.epoch.elapsed().as_nanos() as u64
    }

    /// Requests the loop to exit after the current event batch.
    pub fn stop(&mut self) {
        self.inner.stop = true;
    }
}

/// The event loop: one poller, its registered sources, and a timer queue.
pub struct EventLoop {
    poll: Poll,
    events: Events,
    waker: Arc<Waker>,
    inner: Inner,
}

impl EventLoop {
    /// Creates a loop with its waker already registered.
    pub fn new() -> io::Result<Self> {
        let poll = Poll::new()?;
        let waker = Arc::new(Waker::new(poll.registry(), Token(WAKER_TOKEN))?);
        Ok(Self {
            poll,
            events: Events::with_capacity(1024),
            waker,
            inner: Inner {
                conns: HashMap::new(),
                listeners: HashMap::new(),
                timers: TimerQueue::new(),
                loop_events: VecDeque::new(),
                next_conn: 0,
                next_listener: 1,
                stop: false,
                epoch: Instant::now(),
            },
        })
    }

    /// Handle for waking the loop from another thread (delivered to the
    /// driver as [`TransportEvent::Notified`]).
    pub fn waker(&self) -> Arc<Waker> {
        Arc::clone(&self.waker)
    }

    /// Runs setup code with an [`IoCtx`] before the loop starts (bind
    /// listeners, dial initial connections, arm the first timers).
    pub fn with_ctx<R>(&mut self, f: impl FnOnce(&mut IoCtx<'_>) -> R) -> R {
        let mut ctx = IoCtx {
            registry: self.poll.registry(),
            inner: &mut self.inner,
        };
        f(&mut ctx)
    }

    /// Runs the loop until a driver calls [`IoCtx::stop`].
    pub fn run<D: Driver>(&mut self, driver: &mut D) -> io::Result<()> {
        while !self.inner.stop {
            // Synthetic events (outbound connects) first — they must be
            // observed before any traffic on those connections.
            while let Some(ev) = self.inner.loop_events.pop_front() {
                self.deliver(driver, ev);
                if self.inner.stop {
                    return Ok(());
                }
            }

            let timeout = self.inner.timers.next_deadline().map(|d| {
                let now = self.inner.epoch.elapsed().as_nanos() as u64;
                Duration::from_nanos(d.saturating_sub(now))
            });
            self.poll.poll(&mut self.events, timeout)?;

            // Copy out the batch: dispatching mutates the source maps.
            let batch: Vec<mio::Event> = self.events.iter().collect();
            for ev in batch {
                self.dispatch(driver, ev)?;
                if self.inner.stop {
                    return Ok(());
                }
            }

            let now = self.inner.epoch.elapsed().as_nanos() as u64;
            for token in self.inner.timers.expired(now) {
                self.deliver(driver, TransportEvent::Timer { token });
                if self.inner.stop {
                    return Ok(());
                }
            }
        }
        Ok(())
    }

    fn deliver<D: Driver>(&mut self, driver: &mut D, ev: TransportEvent) {
        let mut ctx = IoCtx {
            registry: self.poll.registry(),
            inner: &mut self.inner,
        };
        driver.handle(&mut ctx, ev);
    }

    fn dispatch<D: Driver>(&mut self, driver: &mut D, ev: mio::Event) -> io::Result<()> {
        let token = ev.token().0;
        if token == WAKER_TOKEN {
            self.waker.ack();
            self.deliver(driver, TransportEvent::Notified);
            return Ok(());
        }
        if token % 2 == 1 {
            self.accept_all(driver, token);
            return Ok(());
        }
        // Connection. It may already be gone if an earlier event in this
        // batch closed it.
        if !self.inner.conns.contains_key(&token) {
            return Ok(());
        }
        if self.inner.conns[&token].connecting {
            return self.finish_connect(driver, token, ev);
        }
        if ev.is_readable() {
            let result = self
                .inner
                .conns
                .get_mut(&token)
                .unwrap()
                .conn
                .handle_readable();
            match result {
                Ok(frames) => {
                    for (msg, xid) in frames {
                        self.deliver(
                            driver,
                            TransportEvent::Message {
                                conn: token,
                                msg,
                                xid,
                            },
                        );
                        if self.inner.stop {
                            return Ok(());
                        }
                    }
                    let closed = self
                        .inner
                        .conns
                        .get(&token)
                        .is_some_and(|s| s.conn.peer_closed());
                    if closed {
                        self.drop_conn(driver, token);
                        return Ok(());
                    }
                }
                Err(_) => {
                    self.drop_conn(driver, token);
                    return Ok(());
                }
            }
        }
        if ev.is_writable() {
            if let Some(state) = self.inner.conns.get_mut(&token) {
                match state.conn.flush() {
                    Ok(true) => {
                        if state.writable_interest {
                            self.poll.registry().reregister(
                                state.conn.stream(),
                                Token(token),
                                Interest::READABLE,
                            )?;
                            state.writable_interest = false;
                        }
                        self.deliver(driver, TransportEvent::Drained { conn: token });
                    }
                    Ok(false) => {}
                    Err(_) => self.drop_conn(driver, token),
                }
            }
        }
        Ok(())
    }

    /// Resolves an in-flight non-blocking connect. A connecting socket's
    /// first readiness is the handshake verdict: writable means connected,
    /// an error flag (or a pending `SO_ERROR`) means refused/unreachable.
    fn finish_connect<D: Driver>(
        &mut self,
        driver: &mut D,
        token: usize,
        ev: mio::Event,
    ) -> io::Result<()> {
        let failed = {
            let state = self.inner.conns.get_mut(&token).unwrap();
            ev.is_error() || !matches!(state.conn.stream().take_error(), Ok(None))
        };
        if failed {
            self.drop_conn(driver, token);
            return Ok(());
        }
        let state = self.inner.conns.get_mut(&token).unwrap();
        state.connecting = false;
        if state.conn.pending() == 0 {
            self.poll.registry().reregister(
                state.conn.stream(),
                Token(token),
                Interest::READABLE,
            )?;
            state.writable_interest = false;
        }
        self.deliver(driver, TransportEvent::Connected { conn: token });
        Ok(())
    }

    fn accept_all<D: Driver>(&mut self, driver: &mut D, listener_token: usize) {
        loop {
            let accepted = match self.inner.listeners.get(&listener_token) {
                Some(l) => l.accept(),
                None => return,
            };
            match accepted {
                Ok((stream, peer)) => {
                    let installed = {
                        let mut ctx = IoCtx {
                            registry: self.poll.registry(),
                            inner: &mut self.inner,
                        };
                        ctx.install(stream)
                    };
                    if let Ok(conn) = installed {
                        self.deliver(
                            driver,
                            TransportEvent::Accepted {
                                listener: listener_token,
                                conn,
                                peer,
                            },
                        );
                        if self.inner.stop {
                            return;
                        }
                    }
                }
                Err(ref e) if e.kind() == io::ErrorKind::WouldBlock => return,
                Err(ref e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(_) => return,
            }
        }
    }

    fn drop_conn<D: Driver>(&mut self, driver: &mut D, token: usize) {
        if let Some(state) = self.inner.conns.remove(&token) {
            let _ = self.poll.registry().deregister(state.conn.stream());
            self.deliver(driver, TransportEvent::Closed { conn: token });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Echo server driver: echoes every message back with the same xid and
    /// stops after `quota` echoes.
    struct Echo {
        quota: usize,
        seen: usize,
    }

    impl Driver for Echo {
        fn handle(&mut self, ctx: &mut IoCtx<'_>, ev: TransportEvent) {
            if let TransportEvent::Message { conn, msg, xid } = ev {
                ctx.send(conn, &msg, xid).unwrap();
                self.seen += 1;
                if self.seen >= self.quota {
                    ctx.stop();
                }
            }
        }
    }

    #[test]
    fn echo_across_many_connections() {
        const CONNS: usize = 8;
        const PER_CONN: usize = 50;
        let mut el = EventLoop::new().unwrap();
        let addr = el.with_ctx(|ctx| {
            let l = ctx.listen("127.0.0.1:0").unwrap();
            ctx.listener_addr(l).unwrap()
        });
        let clients: Vec<_> = (0..CONNS)
            .map(|i| {
                std::thread::spawn(move || {
                    let stream = TcpStream::connect(addr).unwrap();
                    let mut c = crate::conn::Connection::new(stream).unwrap();
                    for k in 0..PER_CONN as u32 {
                        c.send(&OfMessage::EchoRequest(vec![i as u8]), k).unwrap();
                    }
                    while !c.flush().unwrap() {
                        std::thread::yield_now();
                    }
                    let mut got = 0;
                    while got < PER_CONN {
                        let frames = c.handle_readable().unwrap();
                        for (msg, _xid) in frames {
                            assert_eq!(msg, OfMessage::EchoRequest(vec![i as u8]));
                            got += 1;
                        }
                        std::thread::yield_now();
                    }
                })
            })
            .collect();
        let mut echo = Echo {
            quota: CONNS * PER_CONN,
            seen: 0,
        };
        el.run(&mut echo).unwrap();
        assert_eq!(echo.seen, CONNS * PER_CONN);
        for c in clients {
            c.join().unwrap();
        }
    }

    /// Dialer driver: sends one echo once connected, stops on the reply
    /// (or on `Closed` if the dial failed).
    struct DialEcho {
        done: bool,
        closed: bool,
    }

    impl Driver for DialEcho {
        fn handle(&mut self, ctx: &mut IoCtx<'_>, ev: TransportEvent) {
            match ev {
                TransportEvent::Connected { conn } => {
                    ctx.send(conn, &OfMessage::EchoRequest(vec![7]), 42)
                        .unwrap();
                }
                TransportEvent::Message { msg, xid, .. } => {
                    assert_eq!(msg, OfMessage::EchoRequest(vec![7]));
                    assert_eq!(xid, 42);
                    self.done = true;
                    ctx.stop();
                }
                TransportEvent::Closed { .. } => {
                    self.closed = true;
                    ctx.stop();
                }
                _ => {}
            }
        }
    }

    #[test]
    fn nonblocking_connect_completes_and_carries_traffic() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let peer = std::thread::spawn(move || {
            let (stream, _) = listener.accept().unwrap();
            let mut c = crate::conn::Connection::new(stream).unwrap();
            loop {
                let frames = c.handle_readable().unwrap();
                let mut got = false;
                for (msg, xid) in frames {
                    c.send(&msg, xid).unwrap();
                    got = true;
                }
                if got {
                    break;
                }
                std::thread::yield_now();
            }
            while !c.flush().unwrap() {
                std::thread::yield_now();
            }
        });
        let mut el = EventLoop::new().unwrap();
        el.with_ctx(|ctx| ctx.connect(addr).unwrap());
        let mut d = DialEcho {
            done: false,
            closed: false,
        };
        el.run(&mut d).unwrap();
        assert!(d.done, "echo round-trip over a dialed connection");
        peer.join().unwrap();
    }

    #[test]
    fn nonblocking_connect_reports_refusal_as_closed() {
        // Bind-then-drop yields a port with no listener behind it.
        let port = TcpListener::bind("127.0.0.1:0")
            .unwrap()
            .local_addr()
            .unwrap()
            .port();
        let addr: SocketAddr = format!("127.0.0.1:{port}").parse().unwrap();
        let mut el = EventLoop::new().unwrap();
        match el.with_ctx(|ctx| ctx.connect(addr)) {
            // Kernel may fail a loopback dial synchronously.
            Err(e) => assert_eq!(e.kind(), io::ErrorKind::ConnectionRefused),
            Ok(_) => {
                let mut d = DialEcho {
                    done: false,
                    closed: false,
                };
                el.run(&mut d).unwrap();
                assert!(d.closed && !d.done, "refused dial surfaces as Closed");
            }
        }
    }

    /// Timer driver: counts ticks, re-arming until 5 fired.
    struct Ticker {
        fired: u32,
    }

    impl Driver for Ticker {
        fn handle(&mut self, ctx: &mut IoCtx<'_>, ev: TransportEvent) {
            if let TransportEvent::Timer { token } = ev {
                assert_eq!(token, 99);
                self.fired += 1;
                if self.fired >= 5 {
                    ctx.stop();
                } else {
                    ctx.schedule_in(1_000_000, 99);
                }
            }
        }
    }

    #[test]
    fn timers_drive_the_loop_without_io() {
        let mut el = EventLoop::new().unwrap();
        el.with_ctx(|ctx| ctx.schedule_in(1_000_000, 99));
        let mut t = Ticker { fired: 0 };
        el.run(&mut t).unwrap();
        assert_eq!(t.fired, 5);
    }

    /// Lateness driver: arms a timer `delay_ns` ahead, records how late
    /// each one fires, and re-arms until `trials` have fired.
    struct Lateness {
        delay_ns: u64,
        deadline_ns: u64,
        late_ns: Vec<u64>,
        trials: usize,
    }

    impl Lateness {
        fn arm(&mut self, ctx: &mut IoCtx<'_>) {
            self.deadline_ns = ctx.now_ns() + self.delay_ns;
            ctx.schedule_at(self.deadline_ns, 7);
        }
    }

    impl Driver for Lateness {
        fn handle(&mut self, ctx: &mut IoCtx<'_>, ev: TransportEvent) {
            if let TransportEvent::Timer { .. } = ev {
                self.late_ns.push(ctx.now_ns() - self.deadline_ns);
                if self.late_ns.len() >= self.trials {
                    ctx.stop();
                } else {
                    self.arm(ctx);
                }
            }
        }
    }

    /// A timer between two milliseconds fires at its deadline, not at the
    /// next whole millisecond: a millisecond-resolution wait would sleep
    /// 2 ms for this 1.1 ms timer and fire it about 0.9–1 ms late.
    #[test]
    fn a_sub_millisecond_timer_fires_on_time() {
        let mut el = EventLoop::new().unwrap();
        let mut d = Lateness {
            delay_ns: 1_100_000,
            deadline_ns: 0,
            late_ns: Vec::new(),
            trials: 5,
        };
        el.with_ctx(|ctx| d.arm(ctx));
        el.run(&mut d).unwrap();
        d.late_ns.sort_unstable();
        let median = d.late_ns[d.trials / 2];
        assert!(
            median < 300_000,
            "median lateness {median} ns over {:?}",
            d.late_ns
        );
    }

    /// Notification driver: stops on the first waker event.
    struct StopOnNotify {
        notified: bool,
    }

    impl Driver for StopOnNotify {
        fn handle(&mut self, ctx: &mut IoCtx<'_>, ev: TransportEvent) {
            if matches!(ev, TransportEvent::Notified) {
                self.notified = true;
                ctx.stop();
            }
        }
    }

    #[test]
    fn waker_crosses_threads() {
        let mut el = EventLoop::new().unwrap();
        let waker = el.waker();
        let t = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(20));
            waker.wake().unwrap();
        });
        let mut d = StopOnNotify { notified: false };
        el.run(&mut d).unwrap();
        assert!(d.notified);
        t.join().unwrap();
    }
}
