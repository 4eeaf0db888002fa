//! Analysis orchestration: configuration, statistics, and the batch
//! entry points — one round of the incremental core (the private
//! `pipeline` module) holding every interval of the session.

use std::io;
use std::time::Instant;

use sword_obs::{Layer, Obs, ThreadJournal};
use sword_trace::{PcTable, SessionDir};

use crate::load::LoadedSession;
use crate::pipeline::Core;
use crate::race::{Race, RaceSet};
use crate::stages::Stage;

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
    /// Observability sink (`--obs`, `--stats`, `--listen`): stage, task,
    /// task-queue, solver-tier, log-read and tree-memory rows go to its
    /// registry, where analyses sharing it add up, and so does per-site
    /// attribution (each compare worker counts per PC the accesses
    /// scanned, pairs checked, solver calls and races, added as
    /// `sword_site_*` rows when the result is taken); its journal gets the
    /// stage spans and one `work` span per worker and round, never one
    /// per task. `None` (the default) keeps the analyzer entirely
    /// uninstrumented.
    pub obs: Option<Obs>,
}

impl Default for AnalysisConfig {
    fn default() -> Self {
        AnalysisConfig {
            workers: std::thread::available_parallelism().map_or(4, |n| n.get()),
            focus_regions: None,
            suppressions: Vec::new(),
            obs: None,
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

    /// The analyzer's journal recorder for `thread`, when `--obs` is on.
    pub(crate) fn journal_for(
        &self,
        thread: impl Into<std::sync::Arc<str>>,
    ) -> Option<ThreadJournal> {
        self.obs.as_ref().map(|o| o.journal.for_thread(Layer::Offline, thread))
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
    /// Longest single task, in either mode: the paper's distributed MT
    /// column when each task runs on its own node. A task's time is the
    /// sum of its tree builds and its compares wherever they ran: a build
    /// another worker did for it counts here, and once in the
    /// `tree-build` stage on that worker.
    pub max_task_secs: f64,
}

/// Analysis output: deduplicated races and statistics.
#[derive(Clone, Debug)]
pub struct AnalysisResult {
    /// Races sorted by source-location pair.
    pub races: Vec<Race>,
    /// Run statistics.
    pub stats: AnalysisStats,
}

impl AnalysisResult {
    /// Number of distinct races.
    pub fn race_count(&self) -> usize {
        self.races.len()
    }
}

/// Loads a session directory and analyzes it, timing the discover and
/// load-meta stages along with the pipeline proper.
pub fn analyze(dir: &SessionDir, config: &AnalysisConfig) -> io::Result<AnalysisResult> {
    let core = Core::new(dir, config);
    let t0 = Instant::now();
    let threads = dir.thread_ids()?;
    core.record(Stage::Discover, t0.elapsed().as_secs_f64(), threads.len() as u64, 0);
    let t0 = Instant::now();
    let session = LoadedSession::load(dir)?;
    core.record(Stage::LoadMeta, t0.elapsed().as_secs_f64(), session.interval_count() as u64, 0);
    analyze_with(core, &session)
}

/// Analyzes an already-loaded session.
pub fn analyze_loaded(
    session: &LoadedSession,
    config: &AnalysisConfig,
) -> io::Result<AnalysisResult> {
    analyze_with(Core::new(&session.dir, config), session)
}

fn analyze_with(mut core: Core, session: &LoadedSession) -> io::Result<AnalysisResult> {
    let start = Instant::now();
    core.round(&session.regions, &session.threads)?;
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
