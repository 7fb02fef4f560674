//! The per-follower ship queue: the seam between the leader's commit
//! path and its replication connections.
//!
//! The durable layer pushes each commit's pre-encoded `Records` frame
//! into every attached follower's [`ShipQueue`] *under its commit
//! lock* — one serialization shared by all followers, and a push that
//! **never blocks**: a queue whose byte budget overflows is marked dead
//! (the commit proceeds untouched), its connection drops the follower,
//! and the follower reconnects and resumes from its durable cursor.
//! Slow replicas cost themselves a resync, never the leader a commit.

use cqu_common::lock;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::Duration;

struct QueueState {
    items: std::collections::VecDeque<Arc<[u8]>>,
    bytes: usize,
    /// Overflowed: the pump must disconnect this follower.
    dead: bool,
    /// Shut down by the leader (connection gone or server stopping).
    closed: bool,
}

/// What [`ShipQueue::pop`] found.
#[derive(Debug)]
pub enum ShipPop {
    /// The next pre-encoded `Records` frame, in commit order.
    Frame(Arc<[u8]>),
    /// Nothing arrived within the timeout; the queue is still live.
    Empty,
    /// The queue overflowed its byte budget — disconnect the follower
    /// so it resumes from its cursor.
    Dead,
    /// The queue was closed; the connection is over.
    Closed,
}

/// A bounded byte-budgeted queue of pre-encoded record frames, one per
/// attached follower (see the module docs for the overflow contract).
pub struct ShipQueue {
    cap_bytes: usize,
    /// The leader's committed head seq as of the last push — what idle
    /// heartbeats report.
    head: AtomicU64,
    state: Mutex<QueueState>,
    cond: Condvar,
}

impl ShipQueue {
    /// A queue admitting up to `cap_bytes` of queued frame bytes.
    pub fn new(cap_bytes: usize) -> Arc<ShipQueue> {
        Arc::new(ShipQueue {
            cap_bytes: cap_bytes.max(1),
            head: AtomicU64::new(0),
            state: Mutex::new(QueueState {
                items: std::collections::VecDeque::new(),
                bytes: 0,
                dead: false,
                closed: false,
            }),
            cond: Condvar::new(),
        })
    }

    /// Enqueues one commit's frame and records `head_seq`. Never blocks.
    /// Returns `false` when the queue is dead or closed — the caller
    /// (the commit path) drops its reference; the commit itself is
    /// unaffected.
    pub fn push(&self, head_seq: u64, frame: Arc<[u8]>) -> bool {
        self.head.store(head_seq, Ordering::Relaxed);
        let mut st = lock(&self.state);
        if st.dead || st.closed {
            return false;
        }
        if st.bytes + frame.len() > self.cap_bytes && !st.items.is_empty() {
            // Overflow: kill the queue rather than block or drop a
            // frame silently — a gap in the stream would desync the
            // follower, a disconnect makes it resume by cursor.
            st.dead = true;
            st.items.clear();
            st.bytes = 0;
            drop(st);
            self.cond.notify_all();
            return false;
        }
        st.bytes += frame.len();
        st.items.push_back(frame);
        drop(st);
        self.cond.notify_one();
        true
    }

    /// The head seq recorded by the most recent push — or the value
    /// seeded by [`ShipQueue::seed_head`] before any push.
    pub fn head(&self) -> u64 {
        self.head.load(Ordering::Relaxed)
    }

    /// Seeds the head seq before the first push (the attach-time head).
    pub fn seed_head(&self, head_seq: u64) {
        self.head.store(head_seq, Ordering::Relaxed);
    }

    /// Blocks up to `timeout` for the next frame.
    pub fn pop(&self, timeout: Duration) -> ShipPop {
        let mut st = lock(&self.state);
        loop {
            if let Some(frame) = st.items.pop_front() {
                st.bytes -= frame.len();
                return ShipPop::Frame(frame);
            }
            if st.closed {
                return ShipPop::Closed;
            }
            if st.dead {
                return ShipPop::Dead;
            }
            let (g, wait) = self
                .cond
                .wait_timeout(st, timeout)
                .unwrap_or_else(std::sync::PoisonError::into_inner);
            st = g;
            if wait.timed_out() {
                return ShipPop::Empty;
            }
        }
    }

    /// Shuts the queue down: pending frames are dropped and the pump
    /// sees [`ShipPop::Closed`].
    pub fn close(&self) {
        let mut st = lock(&self.state);
        st.closed = true;
        st.items.clear();
        st.bytes = 0;
        drop(st);
        self.cond.notify_all();
    }

    /// Whether the queue overflowed (the commit path stopped feeding it).
    pub fn is_dead(&self) -> bool {
        lock(&self.state).dead
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn frame(n: usize) -> Arc<[u8]> {
        Arc::from(vec![0u8; n])
    }

    #[test]
    fn frames_pop_in_commit_order() {
        let q = ShipQueue::new(1024);
        assert!(q.push(1, frame(8)));
        assert!(q.push(2, frame(16)));
        assert_eq!(q.head(), 2);
        let ShipPop::Frame(f) = q.pop(Duration::from_millis(1)) else {
            panic!("expected frame");
        };
        assert_eq!(f.len(), 8);
        let ShipPop::Frame(f) = q.pop(Duration::from_millis(1)) else {
            panic!("expected frame");
        };
        assert_eq!(f.len(), 16);
        assert!(matches!(q.pop(Duration::from_millis(1)), ShipPop::Empty));
    }

    #[test]
    fn overflow_kills_the_queue_without_blocking() {
        let q = ShipQueue::new(32);
        assert!(q.push(1, frame(20)));
        // Would exceed the budget with something already queued: dead.
        assert!(!q.push(2, frame(20)));
        assert!(q.is_dead());
        assert!(matches!(q.pop(Duration::from_millis(1)), ShipPop::Dead));
        // Further pushes are cheap no-ops.
        assert!(!q.push(3, frame(1)));
    }

    #[test]
    fn one_oversized_frame_is_still_admitted_when_empty() {
        // A single frame larger than the whole budget must go through
        // (progress guarantee) — the *next* frame finds the queue full.
        let q = ShipQueue::new(8);
        assert!(q.push(1, frame(100)));
        assert!(!q.push(2, frame(1)));
    }

    #[test]
    fn close_drops_pending_and_reports_closed() {
        let q = ShipQueue::new(1024);
        assert!(q.push(1, frame(8)));
        q.close();
        assert!(matches!(q.pop(Duration::from_millis(1)), ShipPop::Closed));
        assert!(!q.push(2, frame(8)));
    }
}
