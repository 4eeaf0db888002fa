//! The analyzer's own accounting: [`StageTable`], per-stage busy time,
//! items and bytes, and [`DurationHist`], the fixed-footprint task
//! duration histogram behind [`crate::AnalysisResult::makespan`].

use std::time::Instant;

use sword_obs::{format_bytes, Table};

/// Cumulative counters for one stage of a streaming pipeline.
///
/// `busy_secs` is the summed busy time of every worker that executed the
/// stage (for serial stages this equals wall time; for fanned-out stages
/// it can exceed wall time — divide by the worker count for an average).
#[derive(Clone, Debug, Default, PartialEq)]
pub struct StageMetrics {
    /// Stage name (pipeline position order is kept by [`StageTable`]).
    pub name: String,
    /// Summed busy seconds across all executions of this stage.
    pub busy_secs: f64,
    /// Work items processed (intervals, tasks, pairs — stage-defined).
    pub items: u64,
    /// Payload bytes processed, when the stage is byte-oriented.
    pub bytes: u64,
}

impl StageMetrics {
    /// Items per busy second (0 when no time was recorded).
    pub fn items_per_sec(&self) -> f64 {
        if self.busy_secs > 0.0 {
            self.items as f64 / self.busy_secs
        } else {
            0.0
        }
    }
}

/// Per-stage timing/throughput accumulator for a staged pipeline.
///
/// Stages appear in first-recorded order; repeated records under the same
/// name accumulate, and tables from parallel workers merge associatively,
/// so each worker can keep a private table and the reducer folds them.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct StageTable {
    stages: Vec<StageMetrics>,
}

impl StageTable {
    /// An empty table.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds `secs`/`items`/`bytes` to stage `name`, creating it on first
    /// use.
    pub fn record(&mut self, name: &str, secs: f64, items: u64, bytes: u64) {
        let stage = match self.stages.iter_mut().find(|s| s.name == name) {
            Some(s) => s,
            None => {
                self.stages.push(StageMetrics { name: name.to_string(), ..Default::default() });
                self.stages.last_mut().expect("just pushed")
            }
        };
        stage.busy_secs += secs;
        stage.items += items;
        stage.bytes += bytes;
    }

    /// Times `f`, charging its duration (plus `items`/`bytes`) to `name`,
    /// and returns its result.
    pub fn time<R>(&mut self, name: &str, items: u64, bytes: u64, f: impl FnOnce() -> R) -> R {
        let start = Instant::now();
        let result = f();
        self.record(name, start.elapsed().as_secs_f64(), items, bytes);
        result
    }

    /// Folds another table in (stage order of `self` wins; `other`'s new
    /// stages append).
    pub fn merge(&mut self, other: &StageTable) {
        for s in &other.stages {
            self.record(&s.name, s.busy_secs, s.items, s.bytes);
        }
    }

    /// Looks up one stage.
    pub fn get(&self, name: &str) -> Option<&StageMetrics> {
        self.stages.iter().find(|s| s.name == name)
    }

    /// Stages in pipeline order.
    pub fn stages(&self) -> &[StageMetrics] {
        &self.stages
    }

    /// `true` when nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.stages.is_empty()
    }

    /// Renders an aligned per-stage report.
    pub fn render(&self) -> String {
        let mut t =
            Table::new("pipeline stages", &["stage", "busy (s)", "items", "items/s", "bytes"]);
        for s in &self.stages {
            t.row(&[
                s.name.clone(),
                format!("{:.4}", s.busy_secs),
                s.items.to_string(),
                format!("{:.0}", s.items_per_sec()),
                format_bytes(s.bytes),
            ]);
        }
        t.render()
    }
}

/// Number of log2 buckets in a [`DurationHist`] (1 µs up to ~17 min).
const DURATION_BUCKETS: usize = 40;

/// Lower bound of the first [`DurationHist`] bucket, in seconds.
const DURATION_FLOOR_SECS: f64 = 1e-6;

/// Fixed-footprint duration histogram with log2 buckets.
///
/// Replaces unbounded per-task `Vec<f64>` sample lists on the analysis
/// hot path: each sample lands in one of 40 log2 buckets
/// (powers of two above 1 µs), which keep both a count and a summed
/// duration so the bucket mean is exact enough for scheduling models
/// while the total and maximum stay exact. Histograms from parallel
/// workers merge associatively.
#[derive(Clone, Debug, PartialEq)]
pub struct DurationHist {
    counts: [u64; DURATION_BUCKETS],
    sums: [f64; DURATION_BUCKETS],
    max_secs: f64,
}

impl Default for DurationHist {
    fn default() -> Self {
        DurationHist { counts: [0; DURATION_BUCKETS], sums: [0.0; DURATION_BUCKETS], max_secs: 0.0 }
    }
}

impl DurationHist {
    /// An empty histogram.
    pub fn new() -> Self {
        Self::default()
    }

    fn bucket_of(secs: f64) -> usize {
        if secs.is_nan() || secs <= DURATION_FLOOR_SECS {
            return 0;
        }
        let exp = (secs / DURATION_FLOOR_SECS).log2().ceil() as usize;
        exp.min(DURATION_BUCKETS - 1)
    }

    /// Records one duration (negative/NaN samples clamp to the floor
    /// bucket with a zero contribution to the sum).
    pub fn record(&mut self, secs: f64) {
        let secs = if secs.is_finite() && secs > 0.0 { secs } else { 0.0 };
        let b = Self::bucket_of(secs);
        self.counts[b] += 1;
        self.sums[b] += secs;
        if secs > self.max_secs {
            self.max_secs = secs;
        }
    }

    /// Folds another histogram in.
    pub fn merge(&mut self, other: &DurationHist) {
        for b in 0..DURATION_BUCKETS {
            self.counts[b] += other.counts[b];
            self.sums[b] += other.sums[b];
        }
        if other.max_secs > self.max_secs {
            self.max_secs = other.max_secs;
        }
    }

    /// Total samples recorded.
    pub fn count(&self) -> u64 {
        self.counts.iter().sum()
    }

    /// Exact sum of all recorded durations.
    pub fn total_secs(&self) -> f64 {
        self.sums.iter().sum()
    }

    /// Exact maximum recorded duration (0 when empty).
    pub fn max_secs(&self) -> f64 {
        self.max_secs
    }

    /// `true` when nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.counts.iter().all(|&c| c == 0)
    }

    /// Non-empty buckets as `(mean_secs, count)` pairs, cheapest first.
    ///
    /// The bucket mean (`sum / count`) preserves the histogram total
    /// exactly, so a scheduling model summing `mean * count` over every
    /// bucket reproduces [`Self::total_secs`].
    pub fn buckets(&self) -> impl Iterator<Item = (f64, u64)> + '_ {
        (0..DURATION_BUCKETS)
            .filter(|&b| self.counts[b] > 0)
            .map(|b| (self.sums[b] / self.counts[b] as f64, self.counts[b]))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn duration_hist_totals_are_exact() {
        let mut h = DurationHist::new();
        for s in [0.0001, 0.003, 0.003, 1.5, 0.0] {
            h.record(s);
        }
        assert_eq!(h.count(), 5);
        assert!((h.total_secs() - 1.5061).abs() < 1e-12);
        assert_eq!(h.max_secs(), 1.5);
        let rebuilt: f64 = h.buckets().map(|(mean, n)| mean * n as f64).sum();
        assert!((rebuilt - h.total_secs()).abs() < 1e-12);
    }

    #[test]
    fn duration_hist_merge_matches_sequential_records() {
        let mut a = DurationHist::new();
        let mut b = DurationHist::new();
        let mut all = DurationHist::new();
        for (i, s) in [1e-7, 2e-6, 0.5, 0.25, 3.0].iter().enumerate() {
            if i % 2 == 0 {
                a.record(*s);
            } else {
                b.record(*s);
            }
            all.record(*s);
        }
        a.merge(&b);
        assert_eq!(a, all);
    }

    #[test]
    fn stage_table_accumulates_and_orders() {
        let mut t = StageTable::new();
        t.record("load-meta", 0.5, 10, 100);
        t.record("compare", 1.0, 4, 0);
        t.record("load-meta", 0.5, 5, 50);
        assert_eq!(t.stages().len(), 2);
        assert_eq!(t.stages()[0].name, "load-meta");
        let lm = t.get("load-meta").unwrap();
        assert_eq!(lm.items, 15);
        assert_eq!(lm.bytes, 150);
        assert!((lm.busy_secs - 1.0).abs() < 1e-12);
        assert!((lm.items_per_sec() - 15.0).abs() < 1e-9);
        assert!(t.get("missing").is_none());
    }

    #[test]
    fn stage_table_merge_is_associative_enough() {
        let mut a = StageTable::new();
        a.record("build", 1.0, 2, 0);
        let mut b = StageTable::new();
        b.record("compare", 2.0, 3, 0);
        b.record("build", 1.0, 2, 0);
        a.merge(&b);
        assert_eq!(a.get("build").unwrap().items, 4);
        assert_eq!(a.get("compare").unwrap().items, 3);
        assert_eq!(a.stages()[0].name, "build", "self's order wins");
    }

    #[test]
    fn stage_table_time_charges_closure() {
        let mut t = StageTable::new();
        let v = t.time("work", 7, 0, || 42);
        assert_eq!(v, 42);
        let s = t.get("work").unwrap();
        assert_eq!(s.items, 7);
        assert!(s.busy_secs >= 0.0);
        assert!(!t.is_empty());
        let rendered = t.render();
        assert!(rendered.contains("work"));
        assert!(rendered.contains("stage"));
    }
}
