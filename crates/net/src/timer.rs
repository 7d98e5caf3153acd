//! Monotonic timer queue for the event loop.
//!
//! A thin min-heap of `(deadline_ns, token)` pairs. The event loop asks
//! [`TimerQueue::next_deadline`] to bound its `epoll_pwait2` timeout (kept
//! to the nanosecond, see [`mio::Poll::poll`]) and then
//! drains [`TimerQueue::expired`] after every wakeup. Timers are one-shot;
//! periodic behaviour is built by re-arming from the handler (which is what
//! the proxy's `on_tick` driver does).

use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// One-shot timer queue keyed by an opaque `u64` token.
///
/// Tokens are chosen by the caller and are not required to be unique — two
/// timers with the same token simply fire twice. There is no cancellation:
/// at the scale the proxy uses timers (one global tick, one install-latency
/// timer per in-flight flow_mod on the simulated switch) letting stale
/// entries fire and ignoring them is cheaper than tombstone bookkeeping.
#[derive(Debug, Default)]
pub struct TimerQueue {
    heap: BinaryHeap<Reverse<(u64, u64)>>,
}

impl TimerQueue {
    /// Creates an empty queue.
    pub fn new() -> Self {
        Self::default()
    }

    /// Arms a one-shot timer that fires at absolute monotonic time
    /// `deadline_ns`.
    pub fn schedule(&mut self, deadline_ns: u64, token: u64) {
        self.heap.push(Reverse((deadline_ns, token)));
    }

    /// Earliest pending deadline, if any.
    pub fn next_deadline(&self) -> Option<u64> {
        self.heap.peek().map(|Reverse((d, _))| *d)
    }

    /// Number of pending timers.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// Whether no timers are pending.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    /// Pops every timer whose deadline is `<= now_ns`, in deadline order.
    pub fn expired(&mut self, now_ns: u64) -> Vec<u64> {
        let mut out = Vec::new();
        while let Some(Reverse((d, _))) = self.heap.peek() {
            if *d > now_ns {
                break;
            }
            let Reverse((_, tok)) = self.heap.pop().unwrap();
            out.push(tok);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fires_in_deadline_order() {
        let mut q = TimerQueue::new();
        q.schedule(30, 3);
        q.schedule(10, 1);
        q.schedule(20, 2);
        assert_eq!(q.next_deadline(), Some(10));
        assert_eq!(q.expired(5), Vec::<u64>::new());
        assert_eq!(q.expired(25), vec![1, 2]);
        assert_eq!(q.next_deadline(), Some(30));
        assert_eq!(q.expired(30), vec![3]);
        assert!(q.is_empty());
    }

    #[test]
    fn duplicate_tokens_fire_each() {
        let mut q = TimerQueue::new();
        q.schedule(1, 7);
        q.schedule(2, 7);
        assert_eq!(q.expired(10), vec![7, 7]);
    }
}
