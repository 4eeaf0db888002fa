//! The flush path's counts: [`FlushRows`], the collector's rows in its
//! metrics registry, updated lock-free by app threads, compression
//! workers and the ordered writer, and [`FlushSnapshot`], the copy
//! [`crate::SwordStats::flush`] carries and `session.meta` persists
//! (`sword_obs::render_flush` renders it from there).

use sword_obs::{Counter, Registry};

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
}

#[cfg(test)]
mod tests {
    use std::collections::BTreeMap;

    use sword_obs::render_flush;

    use super::*;

    /// The rendered flush table of `snap`, as `session.meta` carries it.
    fn rendered(snap: &FlushSnapshot) -> String {
        let mut info = BTreeMap::new();
        snap.to_info(&mut info);
        render_flush(&info).expect("flush_count written")
    }

    /// The value cell of `counter`'s row in a rendered flush table.
    fn cell(table: &str, counter: &str) -> String {
        let row = table.lines().find(|l| l.starts_with(counter)).expect(counter);
        row[counter.len()..].trim().to_string()
    }

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
        let table = rendered(&s);
        assert!(table.contains("== flush path =="));
        assert_eq!(cell(&table, "compression ratio"), "10.00x");
        // 2000 bytes over 10 microseconds = 200 MB/s.
        assert_eq!(cell(&table, "compression throughput"), "190.73 MB/s");
        // The counts are the registry's rows.
        let snap: BTreeMap<String, f64> = reg.snapshot().into_iter().collect();
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
        let table = rendered(&FlushSnapshot::default());
        assert_eq!(cell(&table, "compression ratio"), "1.00x", "nothing compressed yet");
        assert_eq!(cell(&table, "compression throughput"), "0 B/s");
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
        let mut info = BTreeMap::new();
        info.insert("threads".to_string(), "4".to_string());
        snap.to_info(&mut info);
        let keys = [
            "flush_count",
            "flush_stall_nanos",
            "flush_compress_nanos",
            "flush_write_nanos",
            "flush_raw_bytes",
            "flush_compressed_bytes",
        ];
        assert!(keys.iter().all(|k| info.contains_key(*k)), "{info:?}");
        let table = render_flush(&info).expect("flush keys written");
        assert_eq!(cell(&table, "flushes"), "7");
        assert_eq!(cell(&table, "app-thread stall"), "0.000 ms");
        assert_eq!(cell(&table, "compression busy"), "0.456 ms");
        assert_eq!(cell(&table, "write busy"), "0.001 ms");
        assert_eq!(cell(&table, "raw bytes"), "1.00 MB");
        assert_eq!(cell(&table, "compressed bytes"), "128.00 KB");
        assert_eq!(cell(&table, "compression ratio"), "8.00x");
        // Sessions collected before flush accounting have no counters.
        assert_eq!(render_flush(&BTreeMap::new()), None);
        // A partially-recorded map still renders, defaulting to zero.
        let mut partial = BTreeMap::new();
        partial.insert("flush_count".to_string(), "3".to_string());
        let table = render_flush(&partial).unwrap();
        assert_eq!(cell(&table, "flushes"), "3");
        assert_eq!(cell(&table, "raw bytes"), "0 B");
    }
}
