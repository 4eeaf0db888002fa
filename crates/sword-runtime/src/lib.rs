//! The SWORD online collector (§III-A of the paper).
//!
//! Implements [`sword_ompsim::Tool`]: every instrumented access and mutex
//! event is appended to a *bounded*, per-thread event buffer. Accesses
//! arrive as runs — up to 64 consecutive accesses of one thread per
//! callback ([`sword_ompsim::Tool::max_run`]) — because nothing written
//! here depends on when, between two of a thread's synchronisation
//! events, its accesses are seen; each is still encoded and counted one by
//! one, and the log is byte for byte what per-access delivery writes.
//! When the buffer reaches its event capacity (25,000 in the paper), its
//! encoded bytes are handed to a background writer thread, which
//! compresses them into framed blocks and appends to the thread's log
//! file — asynchronously, so worker threads never block on the file
//! system and, in particular, never wait for each other.
//!
//! Alongside the log, each thread accumulates its barrier-interval table
//! (Table I): a row is closed at every barrier crossing and at region
//! exit, carrying the byte range of the interval's events in the
//! uncompressed log stream. At `program_end` the collector drains the
//! writer, then writes the per-thread meta files and the session-wide
//! region table.
//!
//! Total collector memory is **bounded and independent of the application
//! footprint**: `N × (buffer + auxiliary)` for `N` threads — the paper's
//! `N × (B + C)` formula with `B + C ≈ 3.3 MB`. The measured equivalent is
//! exposed via [`SwordCollector::tool_memory_bytes`], and
//! [`paper_model_bytes`] evaluates the paper's formula for node-scale
//! placement experiments.

#![forbid(unsafe_code)]

use std::sync::{Mutex, MutexGuard, PoisonError};

mod collector;
mod flush_stats;
mod pool;
mod thread_log;

pub use collector::{run_collected, SwordCollector, SwordConfig, SwordStats};
pub use flush_stats::FlushSnapshot;
pub use thread_log::PAPER_BUFFER_EVENTS;

/// The paper's per-thread memory constant: 2 MB buffer + 1.3 MB auxiliary
/// (OMPT and thread-local storage) ≈ 3.3 MB.
pub const PAPER_BYTES_PER_THREAD: u64 = (33 << 20) / 10;

/// The paper's total-memory formula `N × (B + C)` at paper scale.
pub fn paper_model_bytes(threads: u64) -> u64 {
    threads * PAPER_BYTES_PER_THREAD
}

/// Locks `mutex`, poisoned or not: a panic under one of the collector's
/// locks must not turn every later callback into a second panic.
fn lock<T: ?Sized>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(PoisonError::into_inner)
}

#[cfg(test)]
mod model_tests {
    use super::*;

    #[test]
    fn paper_formula() {
        // 24 threads ≈ 79 MB — matches §III-A's "3.3 MB per thread".
        let b = paper_model_bytes(24);
        assert!(b > 79_000_000 && b < 84_000_000, "{b}");
    }
}
