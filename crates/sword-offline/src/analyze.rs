//! Analysis orchestration: configuration, statistics, and the batch
//! entry points — one round of the incremental core (the private
//! `pipeline` module) holding every interval of the session.

use std::io;
use std::time::Instant;

use sword_obs::{Layer, MemGauge, Obs, ThreadJournal};
use sword_trace::{PcTable, SessionDir, SourceStats};

use crate::intervals::session_rows;
use crate::load::LoadedSession;
use crate::pipeline::Core;
use crate::race::{Race, RaceSet};
use crate::stages::{DurationHist, StageTable};

/// Per-tier decision counters of one analysis core
/// (`sword_solver_tier{tier=…}`): one count per candidate pair the
/// prescreen rejected and per solve, by the tier that decided it. Clones
/// share the counts.
#[derive(Clone, Debug, Default)]
pub(crate) struct TierCounters {
    counts: std::sync::Arc<[std::sync::atomic::AtomicU64; sword_solver::Tier::ALL.len()]>,
}

impl TierCounters {
    /// Records one pair decided by `tier`.
    #[inline]
    pub(crate) fn record(&self, tier: sword_solver::Tier) {
        self.counts[tier.index()].fetch_add(1, std::sync::atomic::Ordering::Relaxed);
    }

    /// Pairs decided by `tier` so far.
    pub(crate) fn get(&self, tier: sword_solver::Tier) -> u64 {
        self.counts[tier.index()].load(std::sync::atomic::Ordering::Relaxed)
    }
}

/// Analyzer configuration.
#[derive(Clone, Debug)]
pub struct AnalysisConfig {
    /// Worker threads comparing interval trees (the paper distributes
    /// this across cluster nodes; we distribute across cores). A round —
    /// the whole batch analysis, or one live poll — runs on at most
    /// `min(workers, its tasks)` of them, the calling thread included,
    /// and starts another only per 256 KiB of log it brought.
    pub workers: usize,
    /// Restrict analysis to these parallel-region ids (`None` = all).
    /// This is the targeted-analysis mode the per-region metadata enables
    /// (§III-B: "extract from the log file the chunk of data for a
    /// specific barrier interval") — useful when re-checking one suspect
    /// region of a huge production log. Cross-region pairs are analyzed
    /// only when *both* regions are in focus.
    pub focus_regions: Option<Vec<u64>>,
    /// Suppression patterns: a race is dropped from the report when
    /// *either* of its source locations contains one of these substrings
    /// (TSan-suppressions style — how a production user silences the
    /// triaged-benign races like HPCCG's same-value norm write while
    /// hunting new ones).
    pub suppressions: Vec<String>,
    /// Observability sink (`--obs`): pipeline stages and per-task spans
    /// go to its journal, solver latency and tree memory to its registry.
    /// `None` (the default) keeps the analyzer entirely uninstrumented.
    pub obs: Option<Obs>,
    /// Per-source-site attribution table. When present, `compare` workers
    /// accumulate per-PC counters (accesses scanned, pairs checked,
    /// solver calls, races) and fold them in here; `None` (the default)
    /// keeps the compare hot path attribution-free. Separate from `obs`
    /// so the overhead of attribution itself can be measured against a
    /// clean baseline.
    pub sites: Option<sword_obs::SiteTable>,
    /// Live bytes held in interval trees, charged while a task holds its
    /// trees and credited when it drops them, so it reads 0 between
    /// rounds and polls. Shared by `clone`; its peak is the analyzer's
    /// measured tree memory (Figures 6–8).
    pub mem_gauge: MemGauge,
}

impl Default for AnalysisConfig {
    fn default() -> Self {
        AnalysisConfig {
            workers: std::thread::available_parallelism().map_or(4, |n| n.get()),
            focus_regions: None,
            suppressions: Vec::new(),
            obs: None,
            sites: None,
            mem_gauge: MemGauge::new(),
        }
    }
}

impl AnalysisConfig {
    /// Single-threaded configuration (deterministic scheduling for
    /// tests/debugging).
    pub fn sequential() -> Self {
        AnalysisConfig { workers: 1, ..AnalysisConfig::default() }
    }

    /// Overrides the worker count.
    pub fn with_workers(mut self, workers: usize) -> Self {
        self.workers = workers.max(1);
        self
    }

    /// Restricts analysis to the given region ids.
    pub fn with_focus_regions(mut self, regions: Vec<u64>) -> Self {
        self.focus_regions = Some(regions);
        self
    }

    /// Adds a suppression pattern (substring of a source location).
    pub fn with_suppression(mut self, pattern: impl Into<String>) -> Self {
        self.suppressions.push(pattern.into());
        self
    }

    /// Attaches an observability sink (journal + metrics registry).
    pub fn with_obs(mut self, obs: Obs) -> Self {
        self.obs = Some(obs);
        self
    }

    /// Attaches a per-site attribution table; compare workers will fold
    /// per-PC counters into it. Whole-table totals are additionally
    /// registered as registry sources when `--obs` is also on.
    pub fn with_site_attribution(mut self, sites: sword_obs::SiteTable) -> Self {
        self.sites = Some(sites);
        self
    }

    /// The analyzer's journal recorder for `thread`, when `--obs` is on.
    pub(crate) fn journal_for(
        &self,
        thread: impl Into<std::sync::Arc<str>>,
    ) -> Option<ThreadJournal> {
        self.obs.as_ref().map(|o| o.journal.for_thread(Layer::Offline, thread))
    }

    /// The solver-latency histogram handle, when `--obs` is on.
    pub(crate) fn solver_hist(&self) -> Option<sword_obs::Histogram> {
        self.obs.as_ref().map(|o| {
            o.registry.histogram(
                "sword_solver_call_nanos",
                "Latency of every exact strided-overlap solve (ns)",
            )
        })
    }

    /// Registers the tree-memory gauge as registry sources (idempotent:
    /// re-registering replaces the previous closure over the same gauge).
    pub(crate) fn register_mem_sources(&self) {
        if let Some(obs) = &self.obs {
            let g = self.mem_gauge.clone();
            obs.registry.source(
                "sword_analyzer_tree_mem_bytes",
                "Live bytes held in the analyzer's interval trees",
                move || g.live() as f64,
            );
            let g = self.mem_gauge.clone();
            obs.registry.source(
                "sword_analyzer_tree_mem_peak_bytes",
                "Peak bytes held in the analyzer's interval trees",
                move || g.peak() as f64,
            );
            if let Some(sites) = &self.sites {
                sites.register_totals(&obs.registry);
            }
        }
    }

    /// Registers the analysis core's activity rows (idempotent, like
    /// [`AnalysisConfig::register_mem_sources`]): log bytes read, arena
    /// recycling, and the core's per-tier decision counts.
    pub(crate) fn register_core_sources(&self, sources: &SourceStats, tiers: &TierCounters) {
        if let Some(obs) = &self.obs {
            let s = sources.clone();
            obs.registry.source(
                "sword_log_read_bytes",
                "Log bytes read from the thread log files (frame headers and fetched payloads)",
                move || s.bytes_read() as f64,
            );
            let s = sources.clone();
            obs.registry.source(
                "sword_arena_reuse_total",
                "Frame decodes that recycled an existing decompression arena",
                move || s.arena_reuses() as f64,
            );
            let s = sources.clone();
            obs.registry.source(
                "sword_arena_alloc_total",
                "Frame decodes that had to grow a decompression arena",
                move || s.arena_allocs() as f64,
            );
            for tier in sword_solver::Tier::ALL {
                let t = tiers.clone();
                obs.registry.source(
                    &format!("sword_solver_tier{{tier=\"{}\"}}", tier.as_str()),
                    "Candidate pairs decided by this layer of the solver funnel",
                    move || t.get(tier) as f64,
                );
            }
        }
    }
}

/// Aggregate statistics of one analysis run, batch or live.
///
/// Every row is independent of the worker count. All but the four
/// tree-request rows (`trees_built`, `nodes`, `events`, `bytes_read`) are
/// also independent of how the session was cut into rounds, so a finished
/// live watch reports them exactly as batch `analyze` does.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct AnalysisStats {
    /// Threads (log files) in the session.
    pub threads: u64,
    /// Barrier intervals (meta rows).
    pub barrier_intervals: u64,
    /// Interval groups (`(pid, bid)` classes).
    pub groups: u64,
    /// Comparison tasks in focus, each counted in the round it first
    /// exists (`Intra`: its group reaches two members; `Cross`: either
    /// group is new) however often later rounds re-run it.
    pub tasks: u64,
    /// Interval trees requested: one per task, per round, for every member
    /// that owes a pair there (the lone non-empty member of a group gets
    /// none). A tree another worker built counts for the task that holds
    /// it, so the row depends on the session and the cut, not on workers;
    /// a group filled over several polls requests its older members
    /// again.
    pub trees_built: u64,
    /// Total nodes of the requested trees (the paper's `M`).
    pub nodes: u64,
    /// Raw access events folded into the requested trees (the paper's
    /// `N`).
    pub events: u64,
    /// Uncompressed log bytes the requested trees cover.
    pub bytes_read: u64,
    /// Tree pairs compared.
    pub tree_pairs: u64,
    /// Candidate node pairs: coarse range overlap between two nodes of
    /// which at least one writes (two reads never meet in the walk).
    pub candidate_pairs: u64,
    /// Exact constraint solves.
    pub solver_calls: u64,
    /// Candidate pairs rejected by the walk-level fingerprint screen
    /// before reaching the solver.
    pub prescreened_pairs: u64,
    /// Region pairs pruned as sequential.
    pub region_pairs_skipped: u64,
    /// Region pairs that produced cross tasks.
    pub region_pairs_considered: u64,
    /// Distinct races (source-line pairs).
    pub races: u64,
    /// Racy node pairs before dedup.
    pub racy_node_pairs: u64,
    /// Distinct races dropped by suppression patterns.
    pub races_suppressed: u64,
    /// Total analysis wall time (the paper's single-node OA column); for
    /// a live watch, the time spent inside polls.
    pub wall_secs: f64,
    /// Longest single task, in either mode (proxy for the paper's
    /// distributed MT column: with one task per node, the makespan is the
    /// longest task). A task's time is the sum of its tree builds and its
    /// compares wherever they ran: a build another worker did for it
    /// counts here, and once in the `tree-build` stage on that worker. So
    /// `makespan(1)` stays the total task work.
    pub max_task_secs: f64,
}

/// Analysis output: deduplicated races and statistics.
#[derive(Clone, Debug)]
pub struct AnalysisResult {
    /// Races sorted by source-location pair.
    pub races: Vec<Race>,
    /// Run statistics.
    pub stats: AnalysisStats,
    /// Fixed-bucket histogram of per-task wall seconds, for the
    /// distributed-analysis model (bounded regardless of task count).
    pub task_hist: DurationHist,
    /// Per-stage wall time and throughput of the pipeline
    /// (discover, load-meta, build-structure, pair-schedule, tree-build,
    /// compare, dedup-report).
    pub stages: StageTable,
}

impl AnalysisResult {
    /// Number of distinct races.
    pub fn race_count(&self) -> usize {
        self.races.len()
    }

    /// Models distributing the comparison tasks over `nodes` cluster
    /// nodes (the paper runs its offline analysis "across a cluster of
    /// nodes"): longest-processing-time-first greedy assignment over the
    /// task histogram's bucket means, returning the makespan.
    /// `makespan(1)` is exactly the total task time (bucket means
    /// preserve the sum); with more nodes than tasks it converges to the
    /// longest task ([`AnalysisStats::max_task_secs`], which the
    /// histogram keeps exactly).
    pub fn makespan(&self, nodes: usize) -> f64 {
        let nodes = nodes.max(1);
        let mut sorted: Vec<(f64, u64)> = self.task_hist.buckets().collect();
        sorted.sort_by(|a, b| b.0.partial_cmp(&a.0).unwrap_or(std::cmp::Ordering::Equal));
        let mut loads = vec![0.0f64; nodes];
        for (mean, count) in sorted {
            for _ in 0..count {
                let min = loads
                    .iter_mut()
                    .min_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal))
                    .expect("nodes >= 1");
                *min += mean;
            }
        }
        // Bucket means smooth individual samples, but no schedule can
        // beat the longest task; clamping to the exact maximum keeps the
        // many-node limit exact.
        loads.into_iter().fold(0.0, f64::max).max(self.task_hist.max_secs())
    }
}

/// Records one finished stage into the analyzer's journal (no-op when
/// observability is off): the span covers `[start of stage, now]` on the
/// given recorder, with one summary argument.
pub(crate) fn journal_stage(
    journal: &Option<ThreadJournal>,
    name: &'static str,
    start_us: Option<u64>,
    arg: (&'static str, f64),
) {
    if let (Some(j), Some(start)) = (journal, start_us) {
        let dur = j.now_us().saturating_sub(start);
        j.span_closed(name, start, dur, vec![(arg.0.into(), arg.1)]);
    }
}

/// Loads a session directory and analyzes it, timing the discover and
/// load-meta stages along with the pipeline proper.
pub fn analyze(dir: &SessionDir, config: &AnalysisConfig) -> io::Result<AnalysisResult> {
    let journal = config.journal_for("analyzer");
    let mut stages = StageTable::new();
    let t0 = Instant::now();
    let s0 = journal.as_ref().map(|j| j.now_us());
    let threads = dir.thread_ids()?;
    stages.record("discover", t0.elapsed().as_secs_f64(), threads.len() as u64, 0);
    journal_stage(&journal, "discover", s0, ("threads", threads.len() as f64));
    let t0 = Instant::now();
    let s0 = journal.as_ref().map(|j| j.now_us());
    let session = LoadedSession::load(dir)?;
    stages.record("load-meta", t0.elapsed().as_secs_f64(), session.interval_count() as u64, 0);
    journal_stage(&journal, "load-meta", s0, ("intervals", session.interval_count() as f64));
    analyze_with_stages(&session, config, stages)
}

/// Analyzes an already-loaded session.
pub fn analyze_loaded(
    session: &LoadedSession,
    config: &AnalysisConfig,
) -> io::Result<AnalysisResult> {
    analyze_with_stages(session, config, StageTable::new())
}

fn analyze_with_stages(
    session: &LoadedSession,
    config: &AnalysisConfig,
    stages: StageTable,
) -> io::Result<AnalysisResult> {
    let start = Instant::now();
    let mut core = Core::new(&session.dir, config, stages);
    core.round(&session.regions, session_rows(session))?;
    let mut result = core.into_result(
        session.threads.len() as u64,
        session.interval_count() as u64,
        &session.pcs,
    );
    result.stats.wall_secs = start.elapsed().as_secs_f64();
    Ok(result)
}

/// Turns an accumulated race set into the final sorted, suppressed report
/// list, filling the race-count statistics.
pub(crate) fn finalize_races(
    races: RaceSet,
    pcs: &PcTable,
    suppressions: &[String],
    stats: &mut AnalysisStats,
) -> Vec<Race> {
    stats.racy_node_pairs = races.raw_pairs;
    let mut race_list = races.into_sorted();
    if !suppressions.is_empty() {
        let suppressed = |pc: sword_trace::PcId| {
            let loc = pcs.display(pc);
            suppressions.iter().any(|pat| loc.contains(pat.as_str()))
        };
        let before = race_list.len();
        race_list.retain(|r| !suppressed(r.key.pc_lo) && !suppressed(r.key.pc_hi));
        stats.races_suppressed = (before - race_list.len()) as u64;
    }
    stats.races = race_list.len() as u64;
    race_list
}
