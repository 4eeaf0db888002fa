//! The flush path's counts: [`FlushRows`], the collector's rows in its
//! metrics registry, updated lock-free by app threads, compression
//! workers and the ordered writer, and [`FlushSnapshot`], the copy
//! [`crate::SwordStats::flush`] carries and `session.meta` persists.

use sword_obs::{format_bytes, Counter, Registry, Table};

/// The flush path's six counters, kept as rows of the collector's
/// registry (`sword_flushes_total`, `sword_flush_*`): app threads,
/// compression workers and the ordered file writer each add to their own
/// rows with one atomic add.
#[derive(Clone, Debug)]
pub(crate) struct FlushRows {
    /// Buffer handoffs from app threads.
    pub(crate) flushes: Counter,
    /// App-thread nanoseconds stalled waiting for a drained buffer (the
    /// cost the double-buffering pool exists to eliminate).
    pub(crate) stall_nanos: Counter,
    /// Compression-worker busy nanoseconds, and the blocks' byte sizes.
    pub(crate) compress_nanos: Counter,
    pub(crate) raw_bytes: Counter,
    pub(crate) compressed_bytes: Counter,
    /// File-writer busy nanoseconds.
    pub(crate) write_nanos: Counter,
}

impl FlushRows {
    /// Fetches (or registers) the rows in `registry`.
    pub(crate) fn new(registry: &Registry) -> Self {
        FlushRows {
            flushes: registry.counter("sword_flushes_total", "buffer flush handoffs"),
            stall_nanos: registry
                .counter("sword_flush_stall_nanos", "app-thread backpressure stall time"),
            compress_nanos: registry.counter("sword_flush_compress_nanos", "compression busy time"),
            raw_bytes: registry.counter("sword_flush_raw_bytes", "uncompressed bytes flushed"),
            compressed_bytes: registry
                .counter("sword_flush_compressed_bytes", "compressed bytes written"),
            write_nanos: registry.counter("sword_flush_write_nanos", "file-writer busy time"),
        }
    }

    /// The counts so far (counters are monotonic, so a snapshot taken
    /// mid-run may mix instants but never goes backwards).
    pub(crate) fn snapshot(&self) -> FlushSnapshot {
        FlushSnapshot {
            flushes: self.flushes.get(),
            stall_nanos: self.stall_nanos.get(),
            compress_nanos: self.compress_nanos.get(),
            write_nanos: self.write_nanos.get(),
            raw_bytes: self.raw_bytes.get(),
            compressed_bytes: self.compressed_bytes.get(),
        }
    }
}

/// A point-in-time copy of the collector's flush counters (its registry's
/// `sword_flushes_total` and `sword_flush_*` rows), embeddable in run
/// summaries.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct FlushSnapshot {
    /// Buffer flushes handed off by app threads.
    pub flushes: u64,
    /// Total app-thread nanoseconds stalled on buffer handoff.
    pub stall_nanos: u64,
    /// Total compression-worker busy nanoseconds.
    pub compress_nanos: u64,
    /// Total file-writer busy nanoseconds.
    pub write_nanos: u64,
    /// Uncompressed bytes through the compression workers.
    pub raw_bytes: u64,
    /// Compressed frame bytes produced (headers included).
    pub compressed_bytes: u64,
}

impl FlushSnapshot {
    /// Achieved compression ratio (raw / compressed); 1.0 before any
    /// bytes were compressed.
    pub fn ratio(&self) -> f64 {
        if self.compressed_bytes == 0 {
            1.0
        } else {
            self.raw_bytes as f64 / self.compressed_bytes as f64
        }
    }

    /// Compression throughput over worker busy time, in bytes/sec.
    pub fn compress_throughput(&self) -> f64 {
        if self.compress_nanos == 0 {
            0.0
        } else {
            self.raw_bytes as f64 / (self.compress_nanos as f64 / 1e9)
        }
    }

    /// Serializes the snapshot into a session info map, so the offline
    /// analyzer can report collection-time flush behaviour after the run.
    pub fn to_info(&self, info: &mut std::collections::BTreeMap<String, String>) {
        info.insert("flush_count".into(), self.flushes.to_string());
        info.insert("flush_stall_nanos".into(), self.stall_nanos.to_string());
        info.insert("flush_compress_nanos".into(), self.compress_nanos.to_string());
        info.insert("flush_write_nanos".into(), self.write_nanos.to_string());
        info.insert("flush_raw_bytes".into(), self.raw_bytes.to_string());
        info.insert("flush_compressed_bytes".into(), self.compressed_bytes.to_string());
    }

    /// Reads a snapshot back from a session info map. `None` when the
    /// session predates flush accounting (no `flush_count` key); other
    /// missing or malformed keys fall back to zero.
    pub fn from_info(info: &std::collections::BTreeMap<String, String>) -> Option<Self> {
        let get = |key: &str| info.get(key).and_then(|v| v.parse().ok()).unwrap_or(0);
        info.get("flush_count")?;
        Some(FlushSnapshot {
            flushes: get("flush_count"),
            stall_nanos: get("flush_stall_nanos"),
            compress_nanos: get("flush_compress_nanos"),
            write_nanos: get("flush_write_nanos"),
            raw_bytes: get("flush_raw_bytes"),
            compressed_bytes: get("flush_compressed_bytes"),
        })
    }

    /// Renders the flush-path report shown by `sword run --stats`.
    pub fn render(&self) -> String {
        let mut t = Table::new("flush path", &["counter", "value"]);
        let ms = |nanos: u64| format!("{:.3} ms", nanos as f64 / 1e6);
        t.row(&["flushes".into(), self.flushes.to_string()]);
        t.row(&["app-thread stall".into(), ms(self.stall_nanos)]);
        t.row(&["compression busy".into(), ms(self.compress_nanos)]);
        t.row(&["write busy".into(), ms(self.write_nanos)]);
        t.row(&["raw bytes".into(), format_bytes(self.raw_bytes)]);
        t.row(&["compressed bytes".into(), format_bytes(self.compressed_bytes)]);
        t.row(&["compression ratio".into(), format!("{:.1}x", self.ratio())]);
        t.row(&[
            "compression throughput".into(),
            format!("{}/s", format_bytes(self.compress_throughput() as u64)),
        ]);
        t.render()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn flush_counters_accumulate_and_snapshot() {
        let reg = Registry::new();
        let c = FlushRows::new(&reg);
        c.flushes.add(2);
        c.stall_nanos.add(1_000);
        c.compress_nanos.add(10_000);
        c.raw_bytes.add(2000);
        c.compressed_bytes.add(200);
        c.write_nanos.add(2_000);
        let s = c.snapshot();
        assert_eq!(s.flushes, 2);
        assert_eq!(s.stall_nanos, 1_000);
        assert_eq!(s.compress_nanos, 10_000);
        assert_eq!(s.write_nanos, 2_000);
        assert_eq!(s.raw_bytes, 2000);
        assert_eq!(s.compressed_bytes, 200);
        assert!((s.ratio() - 10.0).abs() < 1e-12);
        // 2000 bytes over 10 microseconds = 200 MB/s.
        assert!((s.compress_throughput() - 2e8).abs() < 1.0);
        let rendered = s.render();
        assert!(rendered.contains("flush path"));
        assert!(rendered.contains("compression ratio"));
        assert!(rendered.contains("10.0x"));
        // The counts are the registry's rows.
        let snap: std::collections::BTreeMap<String, f64> = reg.snapshot().into_iter().collect();
        assert_eq!(snap["sword_flushes_total"], 2.0);
        assert_eq!(snap["sword_flush_raw_bytes"], 2000.0);
    }

    #[test]
    fn flush_counters_concurrent_updates() {
        let c = FlushRows::new(&Registry::new());
        std::thread::scope(|s| {
            for _ in 0..8 {
                let c = &c;
                s.spawn(move || {
                    for _ in 0..500 {
                        c.flushes.inc();
                        c.raw_bytes.add(100);
                    }
                });
            }
        });
        let s = c.snapshot();
        assert_eq!(s.flushes, 4000);
        assert_eq!(s.raw_bytes, 400_000);
    }

    #[test]
    fn flush_snapshot_defaults() {
        let s = FlushSnapshot::default();
        assert_eq!(s.ratio(), 1.0);
        assert_eq!(s.compress_throughput(), 0.0);
    }

    #[test]
    fn flush_snapshot_info_roundtrip() {
        let snap = FlushSnapshot {
            flushes: 7,
            stall_nanos: 123,
            compress_nanos: 456_000,
            write_nanos: 789,
            raw_bytes: 1 << 20,
            compressed_bytes: 1 << 17,
        };
        let mut info = std::collections::BTreeMap::new();
        info.insert("threads".to_string(), "4".to_string());
        snap.to_info(&mut info);
        assert_eq!(FlushSnapshot::from_info(&info), Some(snap));
        // Sessions collected before flush accounting have no counters.
        let legacy = std::collections::BTreeMap::new();
        assert_eq!(FlushSnapshot::from_info(&legacy), None);
        // A partially-recorded map still parses, defaulting to zero.
        let mut partial = std::collections::BTreeMap::new();
        partial.insert("flush_count".to_string(), "3".to_string());
        let parsed = FlushSnapshot::from_info(&partial).unwrap();
        assert_eq!(parsed.flushes, 3);
        assert_eq!(parsed.raw_bytes, 0);
    }
}
