//! The analyzer's own accounting, kept in its `Obs` registry: [`Rows`],
//! the handles one analysis core fetches by name (per-stage busy time,
//! items and bytes, task times, the task queue, solver tiers, log reads,
//! tree memory). A registry shared by several analyses adds them up, and
//! `sword_obs::render_stages` prints the stage rows as the one stage
//! table.

use sword_obs::{stage_row, Counter, Gauge, Histogram, MemGauge, Registry, ThreadJournal, STAGES};
use sword_solver::Tier;
use sword_trace::SourceStats;

/// One stage of the pipeline (the crate's `pipeline` module docs),
/// indexing [`STAGES`].
#[derive(Clone, Copy, Debug)]
pub(crate) enum Stage {
    Discover,
    LoadMeta,
    BuildStructure,
    PairSchedule,
    TreeBuild,
    Compare,
    DedupReport,
}

/// One stage's rows: summed busy time of every worker that ran it (for
/// serial stages this is wall time; fanned-out stages can exceed it),
/// the work items it processed, and the log bytes, when byte-oriented.
struct StageRow {
    busy_nanos: Counter,
    items: Counter,
    bytes: Counter,
}

/// One analysis core's rows in its `Obs` registry, fetched once.
pub(crate) struct Rows {
    stages: [StageRow; STAGES.len()],
    /// Work of each comparison task: its tree builds and compares,
    /// wherever they ran.
    pub(crate) task_nanos: Histogram,
    /// The deciding funnel tier of every solve and prescreened pair
    /// (`sword_solver_tier{tier=…}`, indexed by [`Tier::index`]).
    tiers: [Counter; Tier::ALL.len()],
    /// Every exact solve's latency.
    pub(crate) call_nanos: Histogram,
    /// Log bytes read, arena reuses and arena allocations.
    reads: [Counter; 3],
    /// Held tree nodes too wide to pack
    /// ([`sword_itree::IntervalTree::wide_nodes`]).
    pub(crate) wide_nodes: Counter,
    /// Live and peak bytes held in interval trees: charged while a task
    /// holds its trees, credited when it drops them, so it reads 0
    /// between rounds and polls. Its peak is the analyzer's measured tree
    /// memory (Figures 6–8).
    pub(crate) tree_mem: MemGauge,
    /// Comparison tasks dealt to the worker deques and not yet popped.
    pub(crate) queue_depth: Gauge,
    /// Each task's wait from the deal to its pop (µs).
    pub(crate) task_wait_us: Histogram,
    /// Worker sends that blocked on a full result channel.
    pub(crate) backpressure: Counter,
}

impl Rows {
    pub(crate) fn new(registry: &Registry) -> Self {
        let row = |metric, stage, help| registry.counter(&stage_row(metric, stage), help);
        Rows {
            stages: STAGES.map(|stage| StageRow {
                busy_nanos: row(
                    "sword_stage_busy_nanos",
                    stage,
                    "Busy time of every worker that ran this analyzer stage (ns)",
                ),
                items: row(
                    "sword_stage_items_total",
                    stage,
                    "Work items this analyzer stage processed (threads, intervals, groups, \
                     tasks, trees, tree pairs or task outcomes)",
                ),
                bytes: row(
                    "sword_stage_bytes_total",
                    stage,
                    "Log bytes this analyzer stage covered",
                ),
            }),
            task_nanos: registry.histogram(
                "sword_analyzer_task_nanos",
                "Work of one comparison task: its tree builds and compares (ns)",
            ),
            tiers: Tier::ALL.map(|tier| {
                registry.counter(
                    &format!("sword_solver_tier{{tier=\"{}\"}}", tier.as_str()),
                    "Candidate pairs decided by this layer of the solver funnel",
                )
            }),
            call_nanos: registry.histogram(
                "sword_solver_call_nanos",
                "Latency of every exact strided-overlap solve (ns)",
            ),
            reads: [
                registry.counter(
                    "sword_log_read_bytes",
                    "Log bytes read from the thread log files (frame headers and fetched payloads)",
                ),
                registry.counter(
                    "sword_arena_reuse_total",
                    "Frame decodes that recycled an existing decompression arena",
                ),
                registry.counter(
                    "sword_arena_alloc_total",
                    "Frame decodes that had to grow a decompression arena",
                ),
            ],
            wide_nodes: registry.counter(
                "sword_analyzer_wide_nodes",
                "Tree nodes whose interval was too wide to pack into a node",
            ),
            tree_mem: MemGauge::from_gauges(
                registry.gauge(
                    "sword_analyzer_tree_mem_bytes",
                    "Live bytes held in the analyzer's interval trees",
                ),
                registry.gauge(
                    "sword_analyzer_tree_mem_peak_bytes",
                    "Peak bytes held in the analyzer's interval trees",
                ),
            ),
            queue_depth: registry.gauge(
                "sword_task_queue_depth",
                "comparison tasks still waiting in the worker deques",
            ),
            task_wait_us: registry.histogram(
                "sword_task_queue_wait_us",
                "schedule-to-dequeue wait of a comparison task",
            ),
            backpressure: registry.counter(
                "sword_result_backpressure_total",
                "worker sends that blocked on a full result channel",
            ),
        }
    }

    /// Counts one pair decided by `tier`.
    #[inline]
    pub(crate) fn tier(&self, tier: Tier) {
        self.tiers[tier.index()].inc();
    }

    /// Adds what `sources` counted since `seen` (its counts when last
    /// caught up, updated here) to the log-read rows.
    pub(crate) fn catch_up_reads(&self, sources: &SourceStats, seen: &mut [u64; 3]) {
        let now = [sources.bytes_read(), sources.arena_reuses(), sources.arena_allocs()];
        for ((row, seen), now) in self.reads.iter().zip(seen).zip(now) {
            row.add(now - *seen);
            *seen = now;
        }
    }

    /// Adds `secs`/`items`/`bytes` to `stage`.
    pub(crate) fn stage(&self, stage: Stage, secs: f64, items: u64, bytes: u64) {
        let row = &self.stages[stage as usize];
        row.busy_nanos.add(nanos(secs));
        row.items.add(items);
        row.bytes.add(bytes);
    }
}

/// Seconds as whole nanoseconds.
pub(crate) fn nanos(secs: f64) -> u64 {
    (secs * 1e9) as u64
}

/// Closes a span of `secs`, measured by the caller's clock, ending now:
/// the journal shows the time the registry rows were charged.
pub(crate) fn close_span(
    j: &ThreadJournal,
    name: &'static str,
    secs: f64,
    arg: (&'static str, f64),
) {
    let dur = (secs * 1e6) as u64;
    j.span_closed(name, j.now_us().saturating_sub(dur), dur, vec![(arg.0.into(), arg.1)]);
}

#[cfg(test)]
mod tests {
    use std::collections::HashMap;

    use sword_obs::render_stages;

    use super::*;

    #[test]
    fn stage_table_accumulates_and_orders() {
        let reg = Registry::new();
        let rows = Rows::new(&reg);
        rows.stage(Stage::Compare, 1.0, 4, 0);
        rows.stage(Stage::LoadMeta, 0.5, 10, 100);
        rows.stage(Stage::LoadMeta, 0.5, 5, 50);
        let snap: HashMap<String, f64> = reg.snapshot().into_iter().collect();
        assert_eq!(snap[&stage_row("sword_stage_items_total", "load-meta")], 15.0);
        assert_eq!(snap[&stage_row("sword_stage_bytes_total", "load-meta")], 150.0);
        assert_eq!(snap[&stage_row("sword_stage_busy_nanos", "load-meta")], 1e9);
        let table = render_stages(&reg.snapshot());
        let lines: Vec<&str> = table.lines().collect();
        let at = |stage: &str| lines.iter().position(|l| l.starts_with(stage)).unwrap();
        // Pipeline order, whatever order the stages were recorded in.
        assert!(at("discover") < at("load-meta") && at("load-meta") < at("compare"));
        assert!(lines[at("load-meta")].contains("15"), "{table}");
        assert!(lines[at("compare")].contains(" 4"), "{table}");
        assert_eq!(STAGES.iter().filter(|s| table.contains(*s)).count(), 7);
        assert_eq!(render_stages(&Registry::new().snapshot()), "", "no analysis, no table");
    }

    #[test]
    fn stage_table_merge_is_associative_enough() {
        // Two cores on one registry add into the same rows.
        let reg = Registry::new();
        let (a, b) = (Rows::new(&reg), Rows::new(&reg));
        a.stage(Stage::TreeBuild, 1.0, 2, 0);
        b.stage(Stage::TreeBuild, 1.0, 2, 0);
        b.tier(Tier::DenseDense);
        a.tier(Tier::DenseDense);
        a.tree_mem.alloc(64);
        b.tree_mem.alloc(32);
        let snap: HashMap<String, f64> = reg.snapshot().into_iter().collect();
        assert_eq!(snap[&stage_row("sword_stage_items_total", "tree-build")], 4.0);
        assert_eq!(snap["sword_solver_tier{tier=\"dense_dense\"}"], 2.0);
        assert_eq!(snap["sword_analyzer_tree_mem_peak_bytes"], 96.0);
        // Fetched by name, so the second core registered no row: three
        // per stage, six tiers, three reads, the wide-node counter, two
        // tree gauges, the queue depth, the backpressure counter and
        // three six-row histograms.
        assert_eq!(
            reg.snapshot().len(),
            3 * STAGES.len() + Tier::ALL.len() + 3 + 1 + 2 + 1 + 1 + 3 * 6
        );
    }
}
