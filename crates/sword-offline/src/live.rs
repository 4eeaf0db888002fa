//! Incremental analysis of in-progress sessions.
//!
//! [`LiveAnalyzer`] follows a session that a live-publishing collector
//! (`SwordConfig::live`) is still writing: every [`poll`] reads the meta
//! rows newly covered by the flush watermark and hands them to the
//! analysis core as one round — the structure, scheduler, worker pool (up
//! to `AnalysisConfig::workers` threads, the polling one among them; a
//! small or idle poll starts none) and pair rule that batch `analyze`
//! runs as a single round over the whole session. A round
//! compares exactly the member pairs whose later interval it brought, so
//! the race set grows monotonically and every unordered pair is compared
//! once however the watermark advanced: once the session finishes,
//! [`into_result`] equals `analyze` on the directory — races, evidence,
//! and every counter that does not depend on the cut
//! ([`crate::AnalysisStats`] names the tree-request rows that do). A
//! task's trees are dropped once it has compared them, so between polls
//! a watch holds no tree at all, however long the log grows.
//!
//! [`poll`]: LiveAnalyzer::poll
//! [`into_result`]: LiveAnalyzer::into_result

use std::collections::HashMap;
use std::fs::File;
use std::io::{self, BufReader};
use std::time::Instant;

use sword_obs::{Gauge, ThreadJournal};
use sword_trace::{PcTable, RegionRecord, SessionDir, SessionPoller};

use crate::analyze::{AnalysisConfig, AnalysisResult};
use crate::pipeline::Core;
use crate::race::Race;
use crate::stages::Stage;

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

/// Incremental analyzer over a (possibly still running) session: a
/// poller, the region and PC tables it has read so far, and the analysis
/// core that every poll feeds one round.
pub struct LiveAnalyzer {
    dir: SessionDir,
    poller: SessionPoller,
    regions: HashMap<u64, RegionRecord>,
    pcs: PcTable,
    pcs_loaded: bool,
    core: Core,
    /// Wall time spent inside polls.
    wall_secs: f64,
    finished: bool,
    /// `--obs` recorders (`None` when observability is off): the poller's
    /// journal thread and the publish-staleness gauge.
    journal: Option<ThreadJournal>,
    lag_gauge: Option<Gauge>,
}

impl LiveAnalyzer {
    /// Creates an analyzer that has ingested nothing yet.
    pub fn new(dir: &SessionDir, config: &AnalysisConfig) -> Self {
        let lag_gauge = config.obs.as_ref().map(|o| {
            o.registry.gauge(
                "sword_live_poller_lag_us",
                "Age of the newest watermark publish when the poller ingested it (us)",
            )
        });
        LiveAnalyzer {
            dir: dir.clone(),
            poller: SessionPoller::new(dir),
            regions: HashMap::new(),
            pcs: PcTable::new(),
            pcs_loaded: false,
            core: Core::new(dir, config),
            wall_secs: 0.0,
            finished: false,
            journal: config.journal_for("live-poller"),
            lag_gauge,
        }
    }

    /// `true` once a poll has observed the session as complete.
    pub fn finished(&self) -> bool {
        self.finished
    }

    /// Distinct races accumulated so far.
    pub fn race_count(&self) -> usize {
        self.core.races.len()
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
        let new_intervals = session_delta.interval_count();
        self.core.record(Stage::LoadMeta, t0.elapsed().as_secs_f64(), new_intervals as u64, 0);
        let finished = session_delta.status.is_none_or(|s| s.finished);
        self.finished = finished;
        // Regions first: any pid a new row references is covered by this
        // (or an earlier) region snapshot, never a later one.
        let new_regions = session_delta.new_regions.len();
        for r in session_delta.new_regions {
            self.regions.insert(r.pid, r);
        }
        self.load_pcs()?;

        let tree_pairs_before = self.core.stats.tree_pairs;
        let new_races = self.core.round(&self.regions, &session_delta.new_rows)?;
        let delta = PollDelta {
            new_intervals,
            new_regions,
            tree_pairs: self.core.stats.tree_pairs - tree_pairs_before,
            new_races,
            total_races: self.core.races.len(),
            generation: session_delta.status.map(|s| s.generation),
            finished,
        };
        self.wall_secs += poll_start.elapsed().as_secs_f64();
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

    /// Polls once more unless a poll has already seen the session
    /// finished, then returns the analysis result over everything
    /// ingested. The result covers the durable prefix the last watermark
    /// named: it is `analyze` of the directory exactly when
    /// [`LiveAnalyzer::finished`] holds, and a subset of it (a session
    /// still in flight, a `watch` that timed out) otherwise.
    pub fn into_result(mut self) -> io::Result<AnalysisResult> {
        if !self.finished {
            self.poll()?;
        }
        self.load_pcs()?;
        let (threads, rows) = (self.poller.thread_count() as u64, self.poller.rows_seen() as u64);
        let mut result = self.core.into_result(threads, rows, &self.pcs);
        result.stats.wall_secs = self.wall_secs;
        Ok(result)
    }

    /// Reads the PC table once the run has persisted it.
    fn load_pcs(&mut self) -> io::Result<()> {
        if !self.pcs_loaded && self.dir.pcs_path().exists() {
            self.pcs = PcTable::read_from(BufReader::new(File::open(self.dir.pcs_path())?))?;
            self.pcs_loaded = true;
        }
        Ok(())
    }
}
