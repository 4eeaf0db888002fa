//! Recycling buffer pool behind the collector's double-buffered flushing.
//!
//! Every event buffer in the system — the one each app thread is filling,
//! the ones in flight to the compression workers, and the drained spares —
//! is owned by one [`BufferPool`]. When a thread's buffer fills it hands
//! the full buffer off and immediately acquires a drained one, so the hot
//! path never allocates; compression workers return buffers after encoding
//! them. The pool's buffer budget grows only when a new thread registers
//! (double buffering: two per thread) or a worker joins (one in-flight
//! slot each), so `created_bytes` is the collector's bounded event-path
//! footprint: `2·threads + workers` buffers, independent of how much the
//! application allocates or how long it runs.
//!
//! When the budget is exhausted — I/O persistently slower than event
//! production — [`BufferPool::acquire`] blocks until a worker returns a
//! buffer. That stall is the system's backpressure (and is measured by the
//! caller into the `sword_flush_stall_nanos` registry row); the
//! alternative, allocating past the budget, would break the paper's
//! bounded-memory claim exactly when the run can least afford it.

use std::sync::{Condvar, Mutex, PoisonError};

use crate::lock;

/// A bounded pool of equally-sized byte buffers.
#[derive(Debug)]
pub(crate) struct BufferPool {
    buffer_bytes: usize,
    state: Mutex<PoolState>,
    available: Condvar,
}

#[derive(Debug)]
struct PoolState {
    free: Vec<Vec<u8>>,
    /// Buffers handed out over the pool's lifetime (free + in use).
    created: usize,
    /// Budget: `acquire` blocks rather than allocate past this.
    budget: usize,
    /// Acquires that had to block at the budget — the backpressure
    /// *event* count (stall *time* is measured by the caller).
    stalls: u64,
}

impl BufferPool {
    /// A pool of `buffer_bytes`-capacity buffers with an initial budget of
    /// `budget` buffers (raise it with [`BufferPool::grow_budget`]).
    pub fn new(buffer_bytes: usize, budget: usize) -> Self {
        BufferPool {
            buffer_bytes: buffer_bytes.max(1),
            state: Mutex::new(PoolState { free: Vec::new(), created: 0, budget, stalls: 0 }),
            available: Condvar::new(),
        }
    }

    /// Raises the buffer budget by `extra` (a new thread or worker
    /// registering its share).
    pub fn grow_budget(&self, extra: usize) {
        lock(&self.state).budget += extra;
        self.available.notify_all();
    }

    /// Takes a drained buffer, allocating only while under budget;
    /// otherwise blocks until [`BufferPool::release`] returns one.
    pub fn acquire(&self) -> Vec<u8> {
        let exhausted = |s: &mut PoolState| s.free.is_empty() && s.created >= s.budget;
        let mut state = lock(&self.state);
        if exhausted(&mut state) {
            state.stalls += 1;
            state =
                self.available.wait_while(state, exhausted).unwrap_or_else(PoisonError::into_inner);
        }
        if let Some(buf) = state.free.pop() {
            return buf;
        }
        state.created += 1;
        Vec::with_capacity(self.buffer_bytes)
    }

    /// Returns a buffer to the pool (cleared, capacity kept). A buffer
    /// comes back exactly as large as it left: `buffer_bytes` holds the
    /// worst fill of its event capacity (see `MAX_EVENT_BYTES`), so one
    /// that grew means the bound `created_bytes` reports is not the
    /// memory in use.
    pub fn release(&self, mut buf: Vec<u8>) {
        debug_assert_eq!(buf.capacity(), self.buffer_bytes, "a pool buffer was reallocated");
        buf.clear();
        let mut state = lock(&self.state);
        state.free.push(buf);
        drop(state);
        self.available.notify_one();
    }

    /// Total bytes of buffer capacity ever handed out — the pool's
    /// contribution to the collector's bounded-memory accounting. Counts
    /// buffers currently held by threads and in flight, not just spares.
    pub fn created_bytes(&self) -> u64 {
        (lock(&self.state).created * self.buffer_bytes) as u64
    }

    /// Buffers handed out over the pool's lifetime.
    #[cfg(test)]
    pub fn created(&self) -> usize {
        lock(&self.state).created
    }

    /// Real capacity of every drained spare.
    #[cfg(test)]
    pub fn free_capacities(&self) -> Vec<usize> {
        lock(&self.state).free.iter().map(Vec::capacity).collect()
    }

    /// Pool occupancy for the metrics registry: (drained spares waiting,
    /// buffers created, budget).
    pub fn occupancy(&self) -> (usize, usize, usize) {
        let state = lock(&self.state);
        (state.free.len(), state.created, state.budget)
    }

    /// Acquires that blocked at the budget (backpressure stall events).
    pub fn stalls(&self) -> u64 {
        lock(&self.state).stalls
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use std::time::Duration;

    #[test]
    fn acquire_allocates_under_budget_then_recycles() {
        let pool = BufferPool::new(64, 2);
        let a = pool.acquire();
        let b = pool.acquire();
        assert_eq!(pool.created(), 2);
        assert_eq!(a.capacity(), 64);
        pool.release(a);
        let c = pool.acquire();
        assert_eq!(pool.created(), 2, "recycled, not allocated");
        assert_eq!(c.capacity(), 64);
        pool.release(b);
        pool.release(c);
        assert_eq!(pool.created_bytes(), 128);
    }

    #[test]
    fn release_clears_contents_but_keeps_capacity() {
        let pool = BufferPool::new(128, 1);
        let mut buf = pool.acquire();
        buf.extend_from_slice(&[1, 2, 3]);
        pool.release(buf);
        let buf = pool.acquire();
        assert!(buf.is_empty());
        assert_eq!(buf.capacity(), 128);
    }

    #[test]
    fn acquire_blocks_at_budget_until_release() {
        let pool = Arc::new(BufferPool::new(32, 1));
        let held = pool.acquire();
        let p = Arc::clone(&pool);
        let waiter = std::thread::spawn(move || p.acquire());
        // The waiter must be blocked, not allocating past the budget.
        std::thread::sleep(Duration::from_millis(30));
        assert!(!waiter.is_finished(), "acquire must block at the budget");
        pool.release(held);
        waiter.join().unwrap();
        assert_eq!(pool.created(), 1);
    }

    #[test]
    fn grow_budget_unblocks_waiters() {
        let pool = Arc::new(BufferPool::new(32, 1));
        let _held = pool.acquire();
        let p = Arc::clone(&pool);
        let waiter = std::thread::spawn(move || p.acquire());
        std::thread::sleep(Duration::from_millis(30));
        assert!(!waiter.is_finished());
        pool.grow_budget(1);
        waiter.join().unwrap();
        assert_eq!(pool.created(), 2);
    }

    #[test]
    fn blocked_acquire_stall_accounting_is_monotone_and_nonzero() {
        // Mirrors the collector's push_event pattern: time each acquire
        // that hits the budget and add it to `FlushRows::stall_nanos`.
        // The counter must be non-zero after the first real stall and
        // strictly monotone across rounds — a regression to zero or a
        // plateau means backpressure is no longer being measured.
        let pool = Arc::new(BufferPool::new(32, 2));
        let counters = crate::flush_stats::FlushRows::new(&sword_obs::Registry::new());
        let mut last_stall = 0u64;
        for round in 0..3 {
            let held = (pool.acquire(), pool.acquire());
            let p = Arc::clone(&pool);
            let waiter = std::thread::spawn(move || {
                let start = std::time::Instant::now();
                let buf = p.acquire();
                (buf, start.elapsed().as_nanos() as u64)
            });
            // Give the waiter time to actually block at the budget.
            std::thread::sleep(Duration::from_millis(20));
            pool.release(held.0);
            let (buf, nanos) = waiter.join().unwrap();
            counters.stall_nanos.add(nanos);
            let snap = counters.snapshot();
            assert!(snap.stall_nanos > 0, "round {round}: stall not recorded");
            assert!(
                snap.stall_nanos > last_stall,
                "round {round}: stall time must grow ({} -> {})",
                last_stall,
                snap.stall_nanos
            );
            last_stall = snap.stall_nanos;
            pool.release(held.1);
            pool.release(buf);
            assert_eq!(pool.created(), 2, "round {round}: blocked, never over budget");
            assert_eq!(
                pool.stalls(),
                round as u64 + 1,
                "each blocked acquire counts one stall event"
            );
        }
        // Each blocked round waited ~20ms; the accumulated stall must be
        // in that order of magnitude, not a timer artifact.
        assert!(last_stall >= 3 * 10_000_000, "total stall {last_stall}ns implausibly small");
    }

    #[test]
    fn concurrent_acquire_release_stays_within_budget() {
        let pool = Arc::new(BufferPool::new(16, 8));
        std::thread::scope(|s| {
            for _ in 0..8 {
                let pool = Arc::clone(&pool);
                s.spawn(move || {
                    for i in 0..200u32 {
                        let mut buf = pool.acquire();
                        buf.extend_from_slice(&i.to_le_bytes());
                        pool.release(buf);
                    }
                });
            }
        });
        assert!(pool.created() <= 8, "created {} > budget", pool.created());
    }
}
