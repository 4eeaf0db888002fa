//! [`MemGauge`]: a thread-safe byte counter each detector updates as it
//! allocates and frees analysis state, so memory numbers are measured
//! from the actual data structures, not estimated. The registry exposes
//! one as a read-on-demand source.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// A shared gauge of live tool-allocated bytes with peak tracking.
#[derive(Clone, Debug, Default)]
pub struct MemGauge {
    inner: Arc<GaugeInner>,
}

#[derive(Debug, Default)]
struct GaugeInner {
    live: AtomicU64,
    peak: AtomicU64,
}

impl MemGauge {
    /// A fresh gauge at zero.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records an allocation of `bytes`.
    pub fn alloc(&self, bytes: u64) {
        let live = self.inner.live.fetch_add(bytes, Ordering::Relaxed) + bytes;
        self.inner.peak.fetch_max(live, Ordering::Relaxed);
    }

    /// Records a release of `bytes`.
    pub fn free(&self, bytes: u64) {
        let prev = self.inner.live.fetch_sub(bytes, Ordering::Relaxed);
        debug_assert!(prev >= bytes, "gauge underflow: freeing {bytes} of {prev}");
    }

    /// Adjusts by a signed delta (for resize-style updates).
    pub fn adjust(&self, delta: i64) {
        if delta >= 0 {
            self.alloc(delta as u64);
        } else {
            self.free((-delta) as u64);
        }
    }

    /// Sets the live value directly, keeping the peak (for tools that
    /// recompute a modeled total rather than tracking alloc/free deltas,
    /// e.g. archer-sim's shadow/VC accounting).
    pub fn set(&self, bytes: u64) {
        self.inner.live.store(bytes, Ordering::Relaxed);
        self.inner.peak.fetch_max(bytes, Ordering::Relaxed);
    }

    /// Currently live bytes.
    pub fn live(&self) -> u64 {
        self.inner.live.load(Ordering::Relaxed)
    }

    /// High-water mark.
    pub fn peak(&self) -> u64 {
        self.inner.peak.load(Ordering::Relaxed)
    }

    /// Resets both counters (between repetitions).
    pub fn reset(&self) {
        self.inner.live.store(0, Ordering::Relaxed);
        self.inner.peak.store(0, Ordering::Relaxed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gauge_tracks_live_and_peak() {
        let g = MemGauge::new();
        g.alloc(100);
        g.alloc(50);
        assert_eq!(g.live(), 150);
        g.free(120);
        assert_eq!(g.live(), 30);
        assert_eq!(g.peak(), 150);
        g.adjust(-30);
        g.adjust(10);
        assert_eq!(g.live(), 10);
        g.reset();
        assert_eq!((g.live(), g.peak()), (0, 0));
    }

    #[test]
    fn gauge_set_keeps_peak() {
        let g = MemGauge::new();
        g.set(500);
        g.set(200);
        assert_eq!(g.live(), 200);
        assert_eq!(g.peak(), 500);
        g.set(900);
        assert_eq!((g.live(), g.peak()), (900, 900));
    }

    #[test]
    fn gauge_is_shared_across_clones() {
        let g = MemGauge::new();
        let g2 = g.clone();
        g2.alloc(64);
        assert_eq!(g.live(), 64);
    }

    #[test]
    fn gauge_concurrent_updates() {
        let g = MemGauge::new();
        std::thread::scope(|s| {
            for _ in 0..8 {
                let g = g.clone();
                s.spawn(move || {
                    for _ in 0..1000 {
                        g.alloc(3);
                        g.free(3);
                    }
                });
            }
        });
        assert_eq!(g.live(), 0);
        assert!(g.peak() >= 3);
    }
}
