//! Deterministic cross-thread ordering.
//!
//! Several of the paper's phenomena are *schedule-dependent*: Figure 1's
//! happens-before masking occurs only under interleaving (b); the shadow
//! eviction example of §II needs the write to land before the reads. A
//! [`Sequencer`] lets workloads pin such schedules: threads take numbered
//! turns on a shared ticket counter, so the pinned ordering is identical
//! on every run — which is what makes the detection comparisons in the
//! benches reproducible.
//!
//! The sequencer is *workload-level* synchronization only: it is invisible
//! to the tool callbacks (no mutex events), so it orders real time without
//! creating happens-before edges the detectors could observe. This mirrors
//! the paper's setting, where schedule artifacts (OS timing) order events
//! without any program synchronization. Workloads that need a *visible*
//! HB edge (Figure 1(b)'s lock) use `critical`/locks instead.

use std::sync::{Condvar, Mutex};

use crate::lock;

/// A ticket-ordered turnstile.
#[derive(Debug, Default)]
pub struct Sequencer {
    state: Mutex<u64>,
    cv: Condvar,
}

impl Sequencer {
    /// A sequencer at ticket 0.
    pub fn new() -> Self {
        Self::default()
    }

    /// Blocks until the counter reaches `ticket`.
    pub fn wait_for(&self, ticket: u64) {
        drop(self.cv.wait_while(lock(&self.state), |cur| *cur < ticket));
    }

    /// Advances the counter by one and wakes waiters. Saturating, so
    /// advancing a poisoned sequencer stays poisoned instead of wrapping.
    pub fn advance(&self) {
        let mut cur = lock(&self.state);
        *cur = cur.saturating_add(1);
        self.cv.notify_all();
    }

    /// Releases every present and future waiter permanently by jumping the
    /// counter to `u64::MAX`. Used when a turn-taking participant dies
    /// (panics) so that siblings blocked on later tickets drain and the
    /// enclosing join can observe the original failure instead of
    /// deadlocking.
    pub fn poison(&self) {
        let mut cur = lock(&self.state);
        *cur = u64::MAX;
        self.cv.notify_all();
    }

    /// Current ticket value.
    pub fn current(&self) -> u64 {
        *lock(&self.state)
    }

    /// Runs `f` as turn `ticket`: waits for the counter to reach it, runs,
    /// then advances. Using consecutive tickets across threads serializes
    /// the enclosed actions in ticket order.
    pub fn turn<R>(&self, ticket: u64, f: impl FnOnce() -> R) -> R {
        self.wait_for(ticket);
        let r = f();
        self.advance();
        r
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn turns_serialize_in_ticket_order() {
        let seq = Sequencer::new();
        let order = Mutex::new(Vec::new());
        std::thread::scope(|s| {
            // Spawn in reverse so OS scheduling alone would likely invert.
            for t in (0..8u64).rev() {
                let seq = &seq;
                let order = &order;
                s.spawn(move || {
                    seq.turn(t, || lock(order).push(t));
                });
            }
        });
        assert_eq!(*lock(&order), (0..8).collect::<Vec<_>>());
        assert_eq!(seq.current(), 8);
    }

    #[test]
    fn wait_for_zero_never_blocks() {
        let seq = Sequencer::new();
        seq.wait_for(0);
    }

    #[test]
    fn interleaving_is_pinned_exactly() {
        // Pin: A writes, then B reads, then A writes again.
        let seq = Sequencer::new();
        let log = Mutex::new(String::new());
        std::thread::scope(|s| {
            let seq = &seq;
            let log = &log;
            s.spawn(move || {
                seq.turn(0, || lock(log).push('a'));
                seq.turn(2, || lock(log).push('c'));
            });
            s.spawn(move || {
                seq.turn(1, || lock(log).push('b'));
            });
        });
        assert_eq!(*lock(&log), "abc");
    }

    #[test]
    fn poison_releases_all_waiters_and_saturates() {
        let seq = Sequencer::new();
        std::thread::scope(|s| {
            let seq = &seq;
            for t in [5u64, 900, u64::MAX] {
                s.spawn(move || seq.wait_for(t));
            }
            s.spawn(move || seq.poison());
        });
        assert_eq!(seq.current(), u64::MAX);
        seq.advance();
        assert_eq!(seq.current(), u64::MAX, "advance past poison must saturate");
        seq.wait_for(u64::MAX);
    }

    #[test]
    fn turn_returns_value() {
        let seq = Sequencer::new();
        let n = AtomicUsize::new(0);
        let v = seq.turn(0, || {
            n.fetch_add(1, Ordering::Relaxed);
            42
        });
        assert_eq!(v, 42);
        assert_eq!(n.load(Ordering::Relaxed), 1);
    }
}
