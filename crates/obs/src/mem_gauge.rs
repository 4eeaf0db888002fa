//! [`MemGauge`]: a thread-safe byte counter each detector updates as it
//! allocates and frees analysis state, so memory numbers are measured
//! from the actual data structures, not estimated. Its live and peak
//! values are two [`Gauge`]s, so a registry can own them as rows
//! ([`MemGauge::from_gauges`]).

use std::sync::atomic::Ordering;

use crate::Gauge;

/// A shared gauge of live tool-allocated bytes with peak tracking.
#[derive(Clone, Debug, Default)]
pub struct MemGauge {
    live: Gauge,
    peak: Gauge,
}

impl MemGauge {
    /// A fresh gauge at zero.
    pub fn new() -> Self {
        Self::default()
    }

    /// A gauge over two existing gauge handles, e.g. registry rows: a
    /// gauge built from the same rows shares its live and peak values.
    pub fn from_gauges(live: Gauge, peak: Gauge) -> Self {
        MemGauge { live, peak }
    }

    /// Records an allocation of `bytes`.
    pub fn alloc(&self, bytes: u64) {
        let live = self.live.cell().fetch_add(bytes, Ordering::Relaxed) + bytes;
        self.peak.cell().fetch_max(live, Ordering::Relaxed);
    }

    /// Records a release of `bytes`.
    pub fn free(&self, bytes: u64) {
        let prev = self.live.cell().fetch_sub(bytes, Ordering::Relaxed);
        debug_assert!(prev >= bytes, "gauge underflow: freeing {bytes} of {prev}");
    }

    /// Sets the live value directly, keeping the peak (for tools that
    /// recompute a modeled total rather than tracking alloc/free deltas,
    /// e.g. archer-sim's shadow/VC accounting).
    pub fn set(&self, bytes: u64) {
        self.live.set(bytes);
        self.peak.cell().fetch_max(bytes, Ordering::Relaxed);
    }

    /// Currently live bytes.
    pub fn live(&self) -> u64 {
        self.live.get()
    }

    /// High-water mark.
    pub fn peak(&self) -> u64 {
        self.peak.get()
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
        g.free(30);
        g.alloc(10);
        assert_eq!((g.live(), g.peak()), (10, 150));
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
    fn gauge_over_registry_rows_is_shared_by_name() {
        let reg = crate::Registry::new();
        let rows =
            || MemGauge::from_gauges(reg.gauge("m_bytes", "live"), reg.gauge("m_peak", "peak"));
        let (a, b) = (rows(), rows());
        a.alloc(100);
        b.alloc(50);
        a.free(100);
        assert_eq!((b.live(), b.peak()), (50, 150));
        let snap = reg.snapshot();
        assert_eq!(snap, vec![("m_bytes".to_string(), 50.0), ("m_peak".to_string(), 150.0)]);
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
