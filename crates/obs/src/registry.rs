//! Metrics registry: named counter/gauge/histogram handles plus
//! read-on-demand source gauges, with Prometheus text exposition and
//! journal snapshots.
//!
//! The registry is where the layers keep their counts: the collector's
//! flush counters and queue depth, the analyzer's stage, tier, task-queue
//! and tree-memory rows are handles fetched by name once and updated with
//! one atomic each, so every layer sharing a registry adds into the same
//! rows; the analyzer adds its per-site attribution here too, as labeled
//! counters. *Sources* — closures evaluated at snapshot/exposition time —
//! are only for state another structure owns: pool occupancy, the
//! journal's drop count, the collector's bounded footprint.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use crate::journal::{Journal, JournalEvent, Layer};

/// Monotonic counter handle.
#[derive(Clone, Debug, Default)]
pub struct Counter(Arc<AtomicU64>);

impl Counter {
    /// Adds one.
    pub fn inc(&self) {
        self.add(1);
    }

    /// Adds `n`.
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// Instantaneous gauge handle: set-style (a lag), or moved up and down by
/// the producers and consumers of a queue (its depth), so users sharing a
/// registry add up.
#[derive(Clone, Debug, Default)]
pub struct Gauge(Arc<AtomicU64>);

impl Gauge {
    /// Sets the current value.
    pub fn set(&self, v: u64) {
        self.0.store(v, Ordering::Relaxed);
    }

    /// Adds `n`.
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Subtracts `n`, which an earlier [`Gauge::add`] must have added.
    pub fn sub(&self, n: u64) {
        self.0.fetch_sub(n, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }

    /// The gauge's cell, for updates other than `set` ([`crate::MemGauge`]).
    pub(crate) fn cell(&self) -> &AtomicU64 {
        &self.0
    }
}

const HIST_BUCKETS: usize = 28;

#[derive(Debug)]
struct HistInner {
    // Bucket i counts samples with value < 2^i (log2 buckets); the last
    // bucket is the +Inf overflow.
    buckets: [AtomicU64; HIST_BUCKETS],
    count: AtomicU64,
    sum: AtomicU64,
    max: AtomicU64,
}

/// Latency histogram with power-of-two buckets (records e.g. solver call
/// nanoseconds). Lock-free: one atomic add per record.
#[derive(Clone, Debug)]
pub struct Histogram(Arc<HistInner>);

impl Default for Histogram {
    fn default() -> Self {
        Histogram(Arc::new(HistInner {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            max: AtomicU64::new(0),
        }))
    }
}

impl Histogram {
    /// Records one sample.
    pub fn record(&self, v: u64) {
        let idx = ((64 - v.leading_zeros()) as usize).min(HIST_BUCKETS - 1);
        self.0.buckets[idx].fetch_add(1, Ordering::Relaxed);
        self.0.count.fetch_add(1, Ordering::Relaxed);
        self.0.sum.fetch_add(v, Ordering::Relaxed);
        self.0.max.fetch_max(v, Ordering::Relaxed);
    }

    /// Number of samples.
    pub fn count(&self) -> u64 {
        self.0.count.load(Ordering::Relaxed)
    }

    /// Sum of samples.
    pub fn sum(&self) -> u64 {
        self.0.sum.load(Ordering::Relaxed)
    }

    /// Largest sample.
    pub fn max(&self) -> u64 {
        self.0.max.load(Ordering::Relaxed)
    }

    /// Approximate quantile (upper bound of the bucket containing it).
    pub fn quantile(&self, q: f64) -> u64 {
        let count = self.count();
        if count == 0 {
            return 0;
        }
        let rank = ((q.clamp(0.0, 1.0) * count as f64).ceil() as u64).max(1);
        let mut seen = 0;
        for (i, bucket) in self.0.buckets.iter().enumerate() {
            seen += bucket.load(Ordering::Relaxed);
            if seen >= rank {
                // Bucket i holds values in [2^(i-1), 2^i).
                return 1u64 << i;
            }
        }
        self.max()
    }

    fn cumulative_buckets(&self) -> Vec<(u64, u64)> {
        let mut out = Vec::with_capacity(HIST_BUCKETS);
        let mut cum = 0;
        for (i, bucket) in self.0.buckets.iter().enumerate() {
            cum += bucket.load(Ordering::Relaxed);
            out.push((1u64 << i, cum));
        }
        out
    }
}

type Source = Box<dyn Fn() -> f64 + Send>;

enum Kind {
    Counter(Counter),
    Gauge(Gauge),
    Histogram(Histogram),
    Source(Source),
}

struct Metric {
    name: String,
    help: String,
    kind: Kind,
}

/// The registry: an ordered set of named metrics.
#[derive(Clone, Default)]
pub struct Registry {
    metrics: Arc<Mutex<Vec<Metric>>>,
}

impl std::fmt::Debug for Registry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let n = self.metrics.lock().map(|m| m.len()).unwrap_or(0);
        f.debug_struct("Registry").field("metrics", &n).finish()
    }
}

impl Registry {
    /// Creates an empty registry.
    pub fn new() -> Registry {
        Registry::default()
    }

    /// Registers (or fetches, by name) a counter.
    pub fn counter(&self, name: &str, help: &str) -> Counter {
        let mut metrics = self.metrics.lock().expect("registry lock");
        for m in metrics.iter() {
            if m.name == name {
                if let Kind::Counter(c) = &m.kind {
                    return c.clone();
                }
            }
        }
        let handle = Counter::default();
        metrics.push(Metric {
            name: name.to_string(),
            help: help.to_string(),
            kind: Kind::Counter(handle.clone()),
        });
        handle
    }

    /// Registers (or fetches, by name) a gauge.
    pub fn gauge(&self, name: &str, help: &str) -> Gauge {
        let mut metrics = self.metrics.lock().expect("registry lock");
        for m in metrics.iter() {
            if m.name == name {
                if let Kind::Gauge(g) = &m.kind {
                    return g.clone();
                }
            }
        }
        let handle = Gauge::default();
        metrics.push(Metric {
            name: name.to_string(),
            help: help.to_string(),
            kind: Kind::Gauge(handle.clone()),
        });
        handle
    }

    /// Registers (or fetches, by name) a histogram.
    pub fn histogram(&self, name: &str, help: &str) -> Histogram {
        let mut metrics = self.metrics.lock().expect("registry lock");
        for m in metrics.iter() {
            if m.name == name {
                if let Kind::Histogram(h) = &m.kind {
                    return h.clone();
                }
            }
        }
        let handle = Histogram::default();
        metrics.push(Metric {
            name: name.to_string(),
            help: help.to_string(),
            kind: Kind::Histogram(handle.clone()),
        });
        handle
    }

    /// Registers a gauge-valued source evaluated at read time. Replaces
    /// any existing source of the same name (re-registration on restart).
    pub fn source(&self, name: &str, help: &str, f: impl Fn() -> f64 + Send + 'static) {
        let mut metrics = self.metrics.lock().expect("registry lock");
        metrics.retain(|m| !(m.name == name && matches!(m.kind, Kind::Source(_))));
        metrics.push(Metric {
            name: name.to_string(),
            help: help.to_string(),
            kind: Kind::Source(Box::new(f)),
        });
    }

    /// Flat name→value view over every metric, in registration order: the
    /// snapshot every report renders (`render_snapshot`). Histograms
    /// expand to `_count`, `_sum`, `_max`, `_p50`, `_p95` and `_p99`
    /// entries.
    pub fn snapshot(&self) -> Vec<(String, f64)> {
        let metrics = self.metrics.lock().expect("registry lock");
        let mut out = Vec::with_capacity(metrics.len());
        for m in metrics.iter() {
            match &m.kind {
                Kind::Counter(c) => out.push((m.name.clone(), c.get() as f64)),
                Kind::Gauge(g) => out.push((m.name.clone(), g.get() as f64)),
                Kind::Source(f) => out.push((m.name.clone(), f())),
                Kind::Histogram(h) => {
                    out.push((format!("{}_count", m.name), h.count() as f64));
                    out.push((format!("{}_sum", m.name), h.sum() as f64));
                    out.push((format!("{}_max", m.name), h.max() as f64));
                    out.push((format!("{}_p50", m.name), h.quantile(0.5) as f64));
                    out.push((format!("{}_p95", m.name), h.quantile(0.95) as f64));
                    out.push((format!("{}_p99", m.name), h.quantile(0.99) as f64));
                }
            }
        }
        out
    }

    /// Prometheus text exposition format (v0.0.4).
    pub fn render_prometheus(&self) -> String {
        use std::fmt::Write as _;
        let metrics = self.metrics.lock().expect("registry lock");
        let mut out = String::new();
        for m in metrics.iter() {
            let _ = writeln!(out, "# HELP {} {}", m.name, m.help);
            match &m.kind {
                Kind::Counter(c) => {
                    let _ = writeln!(out, "# TYPE {} counter", m.name);
                    let _ = writeln!(out, "{} {}", m.name, c.get());
                }
                Kind::Gauge(g) => {
                    let _ = writeln!(out, "# TYPE {} gauge", m.name);
                    let _ = writeln!(out, "{} {}", m.name, g.get());
                }
                Kind::Source(f) => {
                    let _ = writeln!(out, "# TYPE {} gauge", m.name);
                    let _ = writeln!(out, "{} {}", m.name, f());
                }
                Kind::Histogram(h) => {
                    let _ = writeln!(out, "# TYPE {} histogram", m.name);
                    for (le, cum) in h.cumulative_buckets() {
                        let _ = writeln!(out, "{}_bucket{{le=\"{}\"}} {}", m.name, le, cum);
                    }
                    let _ = writeln!(out, "{}_bucket{{le=\"+Inf\"}} {}", m.name, h.count());
                    let _ = writeln!(out, "{}_sum {}", m.name, h.sum());
                    let _ = writeln!(out, "{}_count {}", m.name, h.count());
                    // Summary-style quantile lines (bucket upper bounds)
                    // so scrape-side dashboards get tail latency without
                    // needing histogram_quantile() over sparse buckets.
                    for (q, label) in [(0.5, "0.5"), (0.95, "0.95"), (0.99, "0.99")] {
                        let _ =
                            writeln!(out, "{}{{quantile=\"{}\"}} {}", m.name, label, h.quantile(q));
                    }
                }
            }
        }
        out
    }

    /// Builds a `metrics` snapshot event carrying the flat view, suitable
    /// for appending to the journal (renders as counter tracks in the
    /// Chrome export).
    pub fn snapshot_event(&self, journal: &Journal) -> JournalEvent {
        JournalEvent {
            layer: Layer::Cli,
            thread: "metrics".into(),
            name: "metrics".into(),
            t_us: journal.now_us(),
            dur_us: None,
            args: self.snapshot().into_iter().map(|(k, v)| (k.into(), v)).collect(),
            flow: None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_gauge_histogram_roundtrip() {
        let reg = Registry::new();
        let c = reg.counter("sword_flushes_total", "flushes");
        c.inc();
        c.add(4);
        // Same name returns the same underlying handle.
        assert_eq!(reg.counter("sword_flushes_total", "flushes").get(), 5);

        let g = reg.gauge("sword_writer_queue_depth", "queue depth");
        g.set(7);
        assert_eq!(g.get(), 7);
        g.add(3);
        reg.gauge("sword_writer_queue_depth", "queue depth").sub(2);
        assert_eq!(g.get(), 8, "add and sub move the one row");
        g.sub(1);

        let h = reg.histogram("sword_solver_call_nanos", "solver latency");
        for v in [100, 200, 1500, 100_000] {
            h.record(v);
        }
        assert_eq!(h.count(), 4);
        assert_eq!(h.sum(), 101_800);
        assert_eq!(h.max(), 100_000);
        assert!(h.quantile(0.5) >= 200);
        assert!(h.quantile(1.0) >= 100_000);

        reg.source("sword_pool_free", "free buffers", || 3.0);
        let snap = reg.snapshot();
        let lookup = |name: &str| snap.iter().find(|(k, _)| k == name).map(|(_, v)| *v);
        assert_eq!(lookup("sword_flushes_total"), Some(5.0));
        assert_eq!(lookup("sword_writer_queue_depth"), Some(7.0));
        assert_eq!(lookup("sword_solver_call_nanos_count"), Some(4.0));
        assert_eq!(lookup("sword_pool_free"), Some(3.0));
    }

    #[test]
    fn prometheus_exposition_shape() {
        let reg = Registry::new();
        reg.counter("a_total", "a counter").add(2);
        reg.gauge("b_bytes", "a gauge").set(9);
        reg.histogram("c_nanos", "a histogram").record(3);
        reg.source("d_ratio", "a source", || 1.5);
        let text = reg.render_prometheus();
        assert!(text.contains("# TYPE a_total counter"));
        assert!(text.contains("a_total 2"));
        assert!(text.contains("# TYPE b_bytes gauge"));
        assert!(text.contains("b_bytes 9"));
        assert!(text.contains("# TYPE c_nanos histogram"));
        assert!(text.contains("c_nanos_bucket{le=\"+Inf\"} 1"));
        assert!(text.contains("c_nanos_sum 3"));
        assert!(text.contains("c_nanos{quantile=\"0.5\"} 4"));
        assert!(text.contains("c_nanos{quantile=\"0.95\"} 4"));
        assert!(text.contains("c_nanos{quantile=\"0.99\"} 4"));
        assert!(text.contains("d_ratio 1.5"));
    }

    #[test]
    fn source_reregistration_replaces() {
        let reg = Registry::new();
        reg.source("x", "h", || 1.0);
        reg.source("x", "h", || 2.0);
        let snap = reg.snapshot();
        assert_eq!(snap.iter().filter(|(k, _)| k == "x").count(), 1);
        assert_eq!(snap[0].1, 2.0);
    }

    #[test]
    fn snapshot_event_carries_registry_view() {
        let reg = Registry::new();
        reg.counter("n", "n").add(3);
        let journal = Journal::new(8);
        let ev = reg.snapshot_event(&journal);
        assert_eq!(ev.name, "metrics");
        assert_eq!(ev.args, vec![("n".into(), 3.0)]);
    }
}
