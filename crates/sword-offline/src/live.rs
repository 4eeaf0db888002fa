//! Incremental analysis of in-progress sessions.
//!
//! [`LiveAnalyzer`] follows a session that a live-publishing collector
//! (`SwordConfig::live`) is still writing: every [`poll`] ingests the
//! barrier intervals newly covered by the flush watermark and analyzes
//! exactly the *new* interval pairs — each new interval against the
//! intervals already seen (new×old) and against the other arrivals of
//! the same poll (new×new). Because every unordered interval pair is
//! compared exactly once, with the same region-pair pruning, per-pair
//! concurrency checks, and solver as the batch pipeline, the
//! deduplicated race set grows monotonically toward **exactly** the
//! batch result: once the session finishes, [`into_result`] equals
//! `analyze` on the finished directory (same race keys and occurrence
//! counts, same `tree_pairs`/`candidate_pairs`/`solver_calls`; tree
//! *build* counters differ because the live path caches trees instead
//! of rebuilding per task).
//!
//! Processing is sequential within a poll (`AnalysisConfig::workers` is
//! ignored here); interval trees are kept in a bounded LRU cache so a
//! long watch holds O(budget) nodes, not the whole log.
//!
//! [`poll`]: LiveAnalyzer::poll
//! [`into_result`]: LiveAnalyzer::into_result

use std::collections::HashMap;
use std::fs::File;
use std::io::{self, BufReader};
use std::time::Instant;

use sword_metrics::{DurationHist, StageTable};
use sword_obs::{Gauge, Histogram, SiteCounters, ThreadJournal};
use sword_trace::{PcTable, RegionRecord, SessionDir, SessionPoller};

use crate::analyze::{finalize_races, AnalysisConfig, AnalysisResult, AnalysisStats};
use crate::build::{ReaderPool, TreeCache};
use crate::intervals::{
    dep_ordered, fork_label_from, full_label_from, intervals_concurrent, Group, Interval,
};
use crate::pipeline::WorkerStats;
use crate::race::{check_pair, CompareCtx, Race, RaceSet};
use crate::regions::RegionIndex;
use crate::verdicts::VerdictCache;

/// What one [`LiveAnalyzer::poll`] produced.
#[derive(Clone, Debug, Default)]
pub struct PollDelta {
    /// Barrier intervals newly ingested.
    pub new_intervals: usize,
    /// Region records newly ingested.
    pub new_regions: usize,
    /// Tree pairs compared by this poll.
    pub tree_pairs: u64,
    /// Races whose source-line pair was first seen this poll.
    pub new_races: Vec<Race>,
    /// Distinct races accumulated so far.
    pub total_races: usize,
    /// Live watermark generation at poll time (`None` before the first
    /// publish and for sessions without a watermark file).
    pub generation: Option<u64>,
    /// `true` once the session's metadata is complete — either the
    /// watermark says `finished` or the session has no watermark at all
    /// (pre-live sessions are complete by definition).
    pub finished: bool,
}

/// Incremental analyzer over a (possibly still running) session.
pub struct LiveAnalyzer {
    dir: SessionDir,
    config: AnalysisConfig,
    poller: SessionPoller,
    regions: HashMap<u64, RegionRecord>,
    pcs: PcTable,
    pcs_loaded: bool,
    groups: Vec<Group>,
    group_index: HashMap<(u64, u32), usize>,
    /// Group indices per region, in arrival order.
    region_groups: HashMap<u64, Vec<usize>>,
    /// Fork-label index over the regions that have a group, identical to
    /// the batch structure pass's.
    region_index: RegionIndex,
    /// The shared solver-witness memo, identical to the batch pipeline's.
    verdict_cache: VerdictCache,
    races: RaceSet,
    worker: WorkerStats,
    stages: StageTable,
    cache: TreeCache,
    pool: ReaderPool,
    poll_hist: DurationHist,
    finished: bool,
    /// `--obs` recorders (all `None` when observability is off): the
    /// poller's journal thread, the publish-staleness gauge, and the
    /// solver-latency histogram shared with the batch pipeline.
    journal: Option<ThreadJournal>,
    lag_gauge: Option<Gauge>,
    solver_hist: Option<Histogram>,
    /// Per-site attribution accumulator (`AnalysisConfig::sites`),
    /// folded into the shared table by [`LiveAnalyzer::into_result`].
    site_acc: Option<SiteCounters>,
}

impl LiveAnalyzer {
    /// Creates an analyzer that has ingested nothing yet.
    pub fn new(dir: &SessionDir, config: &AnalysisConfig) -> Self {
        config.register_mem_sources();
        let journal = config.journal_for("live-poller");
        let lag_gauge = config.obs.as_ref().map(|o| {
            o.registry.gauge(
                "sword_live_poller_lag_us",
                "Age of the newest watermark publish when the poller ingested it (us)",
            )
        });
        let solver_hist = config.solver_hist();
        let verdict_cache = VerdictCache::default();
        config.register_core_sources(&verdict_cache);
        LiveAnalyzer {
            dir: dir.clone(),
            config: config.clone(),
            poller: SessionPoller::new(dir),
            regions: HashMap::new(),
            pcs: PcTable::new(),
            pcs_loaded: false,
            groups: Vec::new(),
            group_index: HashMap::new(),
            region_groups: HashMap::new(),
            region_index: RegionIndex::new(&verdict_cache),
            verdict_cache,
            races: RaceSet::new(),
            worker: WorkerStats::default(),
            stages: StageTable::new(),
            cache: TreeCache::new(config.mem_gauge.clone()),
            pool: ReaderPool::sharing(config.source_stats.clone(), config.image_cache.clone()),
            poll_hist: DurationHist::new(),
            finished: false,
            journal,
            lag_gauge,
            solver_hist,
            site_acc: config.sites.as_ref().map(|_| SiteCounters::new()),
        }
    }

    /// `true` once a poll has observed the session as complete.
    pub fn finished(&self) -> bool {
        self.finished
    }

    /// Distinct races accumulated so far.
    pub fn race_count(&self) -> usize {
        self.races.len()
    }

    /// The per-stage timing table accumulated across polls.
    pub fn stages(&self) -> &StageTable {
        &self.stages
    }

    /// The PC table as currently loaded (may be empty until the run
    /// persists it).
    pub fn pcs(&self) -> &PcTable {
        &self.pcs
    }

    /// Ingests and analyzes everything newly published since the last
    /// poll.
    pub fn poll(&mut self) -> io::Result<PollDelta> {
        let poll_start = Instant::now();
        let span_start = self.journal.as_ref().map(|j| j.now_us());
        // Poller lag: how stale the newest publish is at the moment the
        // poller ingests it — the watermark file's age. A growing value
        // means polls are falling behind the collector's publish cadence.
        if let Some(gauge) = &self.lag_gauge {
            if let Ok(age) = std::fs::metadata(self.dir.live_path())
                .and_then(|m| m.modified())
                .map(|t| t.elapsed().unwrap_or_default())
            {
                gauge.set(age.as_micros() as u64);
            }
        }
        let t0 = Instant::now();
        let session_delta = self.poller.poll()?;
        self.stages.record(
            "load-meta",
            t0.elapsed().as_secs_f64(),
            session_delta.interval_count() as u64,
            0,
        );
        let mut delta = PollDelta {
            new_regions: session_delta.new_regions.len(),
            generation: session_delta.status.map(|s| s.generation),
            finished: session_delta.status.is_none_or(|s| s.finished),
            ..PollDelta::default()
        };
        self.finished = delta.finished;
        // Regions first: any pid a new row references is covered by this
        // (or an earlier) region snapshot, never a later one.
        for r in session_delta.new_regions {
            self.regions.insert(r.pid, r);
        }
        if !self.pcs_loaded && self.dir.pcs_path().exists() {
            self.pcs = PcTable::read_from(BufReader::new(File::open(self.dir.pcs_path())?))?;
            self.pcs_loaded = true;
        }

        // Label the new intervals and order them by file position so the
        // reader pool streams forward.
        let t0 = Instant::now();
        let mut fresh: Vec<Interval> = Vec::new();
        for (tid, rows) in session_delta.new_rows {
            for row in rows {
                let label = full_label_from(&self.regions, &row)?;
                fresh.push(Interval { tid, meta: row, label });
            }
        }
        fresh.sort_by_key(|iv| iv.meta.data_begin);
        delta.new_intervals = fresh.len();
        self.stages.record("build-structure", t0.elapsed().as_secs_f64(), fresh.len() as u64, 0);

        let before = self.worker.clone();
        let mut poll_races = RaceSet::new();
        for interval in fresh {
            self.ingest(interval, &mut poll_races)?;
        }
        delta.tree_pairs = self.worker.tree_pairs - before.tree_pairs;
        self.stages.record(
            "tree-build",
            self.worker.build_secs - before.build_secs,
            self.worker.trees_built - before.trees_built,
            self.worker.bytes_read - before.bytes_read,
        );
        self.stages.record(
            "compare",
            self.worker.compare_secs - before.compare_secs,
            delta.tree_pairs,
            0,
        );

        // Dedup/report stage: fold this poll's races into the session
        // set, surfacing the source-line pairs seen for the first time.
        let t0 = Instant::now();
        delta.new_races =
            poll_races.iter().filter(|r| !self.races.contains(&r.key)).cloned().collect();
        delta.new_races.sort_by_key(|r| r.key);
        self.races.merge(poll_races);
        delta.total_races = self.races.len();
        self.stages.record(
            "dedup-report",
            t0.elapsed().as_secs_f64(),
            delta.new_races.len() as u64,
            0,
        );
        let secs = poll_start.elapsed().as_secs_f64();
        if secs > self.worker.max_task_secs {
            self.worker.max_task_secs = secs;
        }
        self.poll_hist.record(secs);
        if let (Some(j), Some(start)) = (&self.journal, span_start) {
            let dur = j.now_us().saturating_sub(start);
            j.span_closed(
                "poll",
                start,
                dur,
                vec![
                    ("new_intervals".into(), delta.new_intervals as f64),
                    ("tree_pairs".into(), delta.tree_pairs as f64),
                    ("new_races".into(), delta.new_races.len() as f64),
                ],
            );
        }
        Ok(delta)
    }

    /// Polls until the session reports finished, then returns the final
    /// analysis result. Equivalent to batch `analyze` on the finished
    /// directory (see the module docs for the exact sense).
    pub fn into_result(mut self) -> io::Result<AnalysisResult> {
        if !self.finished {
            self.poll()?;
        }
        if !self.pcs_loaded && self.dir.pcs_path().exists() {
            self.pcs = PcTable::read_from(BufReader::new(File::open(self.dir.pcs_path())?))?;
            self.pcs_loaded = true;
        }
        if let (Some(table), Some(acc)) = (&self.config.sites, self.site_acc.take()) {
            table.absorb(acc);
        }
        // Region-pair accounting over *all* pid pairs, exactly as the
        // batch structure pass counts them (including pairs no comparison
        // ever touched, e.g. regions with only empty intervals), and the
        // batch task count: one intra task per in-focus multi-member
        // group, one cross task per group pair of every considered,
        // in-focus region pair.
        let pairs = self.region_index.pairs();
        let considered = pairs.len() as u64;
        let skipped = self.region_index.pair_count() - considered;
        let mut tasks =
            self.groups.iter().filter(|g| g.members.len() > 1 && self.in_focus(g.pid)).count();
        for &(p, q, _) in &pairs {
            if self.in_focus(p) && self.in_focus(q) {
                tasks += self.region_groups[&p].len() * self.region_groups[&q].len();
            }
        }

        let mut stats = AnalysisStats {
            threads: self.poller.thread_count() as u64,
            barrier_intervals: self.poller.rows_seen() as u64,
            groups: self.groups.len() as u64,
            tasks: tasks as u64,
            region_pairs_skipped: skipped,
            region_pairs_considered: considered,
            trees_built: self.worker.trees_built,
            nodes: self.worker.nodes,
            events: self.worker.events,
            bytes_read: self.worker.bytes_read,
            tree_pairs: self.worker.tree_pairs,
            candidate_pairs: self.worker.candidates,
            solver_calls: self.worker.solver_calls,
            prescreened_pairs: self.worker.prescreened,
            max_task_secs: self.worker.max_task_secs,
            wall_secs: self.poll_hist.total_secs(),
            ..AnalysisStats::default()
        };
        let races = finalize_races(self.races, &self.pcs, &self.config.suppressions, &mut stats);
        Ok(AnalysisResult { races, stats, task_hist: self.poll_hist, stages: self.stages })
    }

    fn in_focus(&self, pid: u64) -> bool {
        self.config.focus_regions.as_ref().is_none_or(|f| f.contains(&pid))
    }

    /// Analyzes one new interval against everything already ingested,
    /// then adds it to its group.
    ///
    /// Partner enumeration mirrors the batch task rules exactly: members
    /// of the interval's own `(pid, bid)` group are compared minus
    /// same-tid pairs (task chains fragment a thread's log, so one group
    /// can hold several same-tid fragments); groups of the same region
    /// but a different barrier interval are never compared; groups of
    /// other regions follow the region index — every pair for concurrent
    /// fork labels (minus same-tid), per-pair barrier-aware checks for
    /// prefix-related labels, and ordered regions are never walked — and
    /// `depend`-ordered task-body pairs are skipped exactly as the batch
    /// cross arm skips them.
    fn ingest(&mut self, interval: Interval, races: &mut RaceSet) -> io::Result<()> {
        let pid = interval.meta.pid;
        let group_key = (pid, interval.meta.bid);
        let home = match self.group_index.get(&group_key) {
            Some(&home) => home,
            None => {
                let home = self.groups.len();
                if !self.region_groups.contains_key(&pid) {
                    self.region_index.insert(pid, &fork_label_from(&self.regions, pid)?);
                }
                self.region_groups.entry(pid).or_default().push(home);
                self.group_index.insert(group_key, home);
                self.groups.push(Group { pid, bid: interval.meta.bid, members: Vec::new() });
                home
            }
        };

        if interval.meta.size > 0 && self.in_focus(pid) {
            // Groups to walk, each with its region verdict; the home
            // group has intra semantics (every member pair counts). In
            // arrival order, so the reader pool streams forward.
            let mut walk = vec![(home, true)];
            for (q, all_concurrent) in self.region_index.partners(pid) {
                if self.in_focus(q) {
                    walk.extend(self.region_groups[&q].iter().map(|&gi| (gi, all_concurrent)));
                }
            }
            walk.sort_unstable();
            let mut partners: Vec<(usize, usize)> = Vec::new();
            for (gi, all_concurrent) in walk {
                for (mi, member) in self.groups[gi].members.iter().enumerate() {
                    if member.meta.size == 0 {
                        continue;
                    }
                    // Same-tid members are program-ordered — this covers
                    // both cross pairs and the same-tid fragments a task
                    // chain leaves in one group.
                    let concurrent = if all_concurrent {
                        member.tid != interval.tid
                    } else {
                        intervals_concurrent(&interval, member)
                    };
                    if !concurrent || (gi != home && dep_ordered(&self.regions, &interval, member))
                    {
                        continue;
                    }
                    partners.push((gi, mi));
                }
            }

            let new_key = (interval.tid, interval.meta.data_begin);
            if !partners.is_empty() {
                self.cache.ensure(&self.dir, &interval, &mut self.pool, &mut self.worker, false)?;
            }
            for (gi, mi) in partners {
                let member = self.groups[gi].members[mi].clone();
                let member_key = (member.tid, member.meta.data_begin);
                self.cache.ensure(&self.dir, &member, &mut self.pool, &mut self.worker, false)?;
                self.cache.evict(&[new_key, member_key]);
                let (Some(ta), Some(tb)) = (self.cache.get(&new_key), self.cache.get(&member_key))
                else {
                    continue;
                };
                if ta.node_count() == 0 || tb.node_count() == 0 {
                    continue;
                }
                self.worker.tree_pairs += 1;
                let t0 = Instant::now();
                let pair_stats = check_pair(
                    ta,
                    &interval,
                    tb,
                    &member,
                    &CompareCtx { cache: &self.verdict_cache, tiers: &self.config.tiers },
                    races,
                    self.solver_hist.as_ref(),
                    self.site_acc.as_mut(),
                );
                self.worker.compare_secs += t0.elapsed().as_secs_f64();
                self.worker.candidates += pair_stats.candidates;
                self.worker.solver_calls += pair_stats.solver_calls;
                self.worker.prescreened += pair_stats.prescreened;
            }
        }

        self.groups[home].members.push(interval);
        Ok(())
    }
}
