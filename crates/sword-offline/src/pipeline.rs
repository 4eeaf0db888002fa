//! The analysis core: an incremental analyzer that runs in *rounds*.
//!
//! A round takes the meta rows that became available since the last one —
//! a whole finished session for [`crate::analyze`], one poll's worth for
//! [`crate::LiveAnalyzer`] — and runs them through explicit stages:
//!
//! ```text
//! discover ─ load-meta ─┐                              (caller, timed)
//!                       ▼
//!        build-structure (Structure::extend: file rows, emit touched tasks)
//!                       ▼
//!        pair-schedule ──(per-worker deques)──► workers ◄──(board)──┐
//!        (filter + sort + deal)  + stealing    tree-build ──────────┘
//!                                              compare    a big task's
//!                       ┌──(result channel)──┘            builds, shared
//!                       ▼
//!                  dedup-report
//!               (streaming reducer)
//! ```
//!
//! The scheduler filters the round's tasks to the focus regions, sorts
//! them by file position so each worker's reader pool streams forward,
//! and deals contiguous chunks into one deque per worker. Workers drain
//! their own deque front-to-back and steal a batch from the back of a
//! victim's when they run dry, so the pool stays saturated even when task
//! costs are skewed. A task too large for that — its trees carry
//! `BYTES_PER_STARTED_THREAD` of log — posts their builds on the round's
//! [`Board`]; every worker builds a posted tree before it pops its next
//! task, and the one that lands the task's last tree compares, so one
//! task no longer sets a round's end. Results stream through a bounded
//! channel into a reducer that merges each task's race set the moment it
//! arrives.
//!
//! A round runs on up to `min(workers, owed builds, 1 + log / 256 KiB)`
//! threads: the calling thread is worker 0 and the reducer, the rest are
//! started and joined inside the round, one per `BYTES_PER_STARTED_THREAD`
//! of log it brought and no more than it has trees to build — a
//! one-worker round, a small poll, or one with no rows starts none, a poll
//! of one large task starts one. A task builds the trees its owed pairs
//! name, compares them and drops them ([`TaskTrees`]): a worker holds one
//! task's trees at a time and none between rounds. What a worker does keep
//! between rounds (reader pool, recorders) lives in the [`Core`], so a
//! poll reuses the open logs of the polls before it. A task compares a
//! member pair only when the round owes it ([`Structure::owed`]): batch is
//! the one-round case, not another rule.
//!
//! With `--obs` the round journals stages, not tasks: the calling
//! thread's stages on `analyzer` (the span of each is the time its
//! registry row was charged), one `work` span per worker and round, and a
//! `build` span per shared tree build. Task times go to the
//! `sword_analyzer_task_nanos` histogram only, so the journal is bounded
//! by rounds and workers, not by the session's intervals.

use std::collections::{HashMap, VecDeque};
use std::io;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc::{sync_channel, SyncSender, TrySendError};
use std::sync::{Condvar, Mutex, MutexGuard, PoisonError};
use std::time::Instant;

use sword_obs::{add_site_rows, Counter, SiteCounters, ThreadJournal, STAGES};
use sword_trace::{MetaRecord, PcTable, RegionRecord, SessionDir, SourceStats, ThreadId};

use crate::analyze::{finalize_races, AnalysisConfig, AnalysisResult, AnalysisStats};
use crate::build::{BiTree, ReaderPool, TaskTrees, DEFAULT_CHUNK_BYTES, OPEN_LOGS_BUDGET};
use crate::intervals::{
    dep_ordered, labels_concurrent, region_of, unshared, Interval, Structure, Task,
};
use crate::race::{check_pair, Race, RaceSet};
use crate::stages::{close_span, nanos, Rows, Stage};
use crate::verdicts::VerdictCache;

/// Most tasks a worker grabs from a victim's deque in one steal.
const STEAL_BATCH: usize = 16;

/// Task outcomes a round may have in flight before a worker's send
/// blocks. The reducer shares the cores with the workers; while it is
/// off-core a queue of `2 × workers` stalled them all (LULESH shape: 128
/// slots read 0.9 × the wall of 32, EXPERIMENTS.md "One driver"). The
/// ring is preallocated, so an outcome carries only what must stream.
const RESULT_QUEUE: usize = 256;

/// Log bytes a round must bring per thread it starts beside the calling
/// one: ≈ 2 ms of tree building against ≈ 0.1 ms to start, feed and join
/// a thread. Most polls of a `watch` bring less and run where they are.
/// A task whose trees carry this much shares their builds ([`Board`]).
const BYTES_PER_STARTED_THREAD: u64 = 256 << 10;

/// Per-worker counters, accumulated across a round's tasks and merged
/// when the worker is joined.
#[derive(Clone, Debug, Default)]
pub(crate) struct WorkerStats {
    pub trees_built: u64,
    pub nodes: u64,
    pub events: u64,
    pub bytes_read: u64,
    pub tree_pairs: u64,
    pub candidates: u64,
    pub solver_calls: u64,
    /// Candidate pairs retired by the fingerprint prescreen before they
    /// reached the solver (`solver_calls + prescreened` is invariant
    /// across funnel configurations).
    pub prescreened: u64,
    pub max_task_secs: f64,
    /// Wall time inside tree construction (the tree-build stage).
    pub build_secs: f64,
    /// Wall time inside tree comparison (the compare stage).
    pub compare_secs: f64,
}

impl WorkerStats {
    pub(crate) fn merge(&mut self, other: &WorkerStats) {
        self.trees_built += other.trees_built;
        self.nodes += other.nodes;
        self.events += other.events;
        self.bytes_read += other.bytes_read;
        self.tree_pairs += other.tree_pairs;
        self.candidates += other.candidates;
        self.solver_calls += other.solver_calls;
        self.prescreened += other.prescreened;
        if other.max_task_secs > self.max_task_secs {
            self.max_task_secs = other.max_task_secs;
        }
        self.build_secs += other.build_secs;
        self.compare_secs += other.compare_secs;
    }
}

/// Sends a worker's result, counting result-channel backpressure when
/// `--obs` is on: a full channel means the reducer is the bottleneck, so
/// the blocked send is tallied before falling back to the blocking path.
fn send_outcome(
    tx: &SyncSender<io::Result<RaceSet>>,
    backpressure: Option<&Counter>,
    msg: io::Result<RaceSet>,
) -> bool {
    let msg = match backpressure {
        Some(counter) => match tx.try_send(msg) {
            Ok(()) => return true,
            Err(TrySendError::Disconnected(_)) => return false,
            Err(TrySendError::Full(msg)) => {
                counter.inc();
                msg
            }
        },
        None => msg,
    };
    tx.send(msg).is_ok()
}

/// Pops the next task for worker `wi`: its own deque's front first, and
/// when that runs dry, a batch stolen from the back of the first
/// non-empty victim (back-stealing leaves the victim the file positions
/// it was already streaming toward). Tasks are only ever dealt before
/// a round's workers start, so an all-empty sweep means the round is
/// drained.
fn next_task(deques: &[Mutex<VecDeque<Task>>], wi: usize) -> Option<Task> {
    if let Some(t) = deques[wi].lock().expect("task deque lock").pop_front() {
        return Some(t);
    }
    let n = deques.len();
    for off in 1..n {
        let vi = (wi + off) % n;
        let mut stolen: VecDeque<Task> = VecDeque::new();
        {
            let mut victim = deques[vi].lock().expect("task deque lock");
            let grab = victim.len().div_ceil(2).min(STEAL_BATCH);
            for _ in 0..grab {
                let t = victim.pop_back().expect("grab bounded by len");
                stolen.push_front(t);
            }
        }
        if let Some(first) = stolen.pop_front() {
            if !stolen.is_empty() {
                deques[wi].lock().expect("task deque lock").extend(stolen);
            }
            return Some(first);
        }
    }
    None
}

/// Where a claimed build sits on the [`Board`]: (split, build).
type Slot = (usize, usize);

/// A built tree and the seconds its build took, or the build's error.
type Landed = io::Result<(BiTree, f64)>;

/// The tree builds a round's workers share. A task whose trees are at
/// least two and carry [`BYTES_PER_STARTED_THREAD`] of log posts
/// them here as one split, and builds its own largest unclaimed one until
/// none is left; before popping its next task every worker claims a
/// posted build, largest first. The worker that lands a task's last tree
/// runs its compares: the owner when its own build lands last, else the
/// owner hands the task on and goes on with its deque. This is help-first
/// scheduling at tree granularity (Guo et al., IPDPS 2009): one task
/// holding more than `1/workers` of a round's work no longer sets the
/// round's end.
struct Board<'a> {
    /// Posted builds nobody has claimed: the one load a worker pays
    /// before its next task while nothing is posted. A hint only (it
    /// publishes nothing; claims are made under the lock), so `Relaxed`.
    open: AtomicUsize,
    /// Dealt tasks whose owner has not finished or handed them on. A
    /// worker whose deques are dry waits for them instead of leaving,
    /// since one may still post. The last decrement notifies under the
    /// lock a waiter reads it under, so no waiter misses it.
    unfinished: AtomicUsize,
    splits: Mutex<Vec<Split<'a>>>,
    /// Notified when builds are posted and when the last task finishes.
    posted: Condvar,
}

/// One task's posted builds.
struct Split<'a> {
    builds: Vec<Build<'a>>,
    /// Builds not landed yet.
    pending: usize,
    /// The rest of the task, once its owner has handed it on.
    rest: Option<Rest<'a>>,
}

struct Build<'a> {
    member: &'a Interval,
    claimed: bool,
    landed: Option<Landed>,
}

/// What finishing a task needs besides its posted trees.
struct Rest<'a> {
    pairs: Vec<(&'a Interval, &'a Interval)>,
    /// The task's trees still to build, in file-position order: all of
    /// them when none were posted, none when they were.
    owing: Vec<&'a Interval>,
    /// The task's work so far besides its posted builds.
    secs: f64,
}

/// A task ready for its compares, on whichever worker got it.
struct Finish<'a> {
    rest: Rest<'a>,
    landed: Vec<(&'a Interval, Landed)>,
}

impl<'a> Board<'a> {
    fn new(tasks: usize) -> Self {
        Board {
            open: AtomicUsize::new(0),
            unfinished: AtomicUsize::new(tasks),
            splits: Mutex::new(Vec::new()),
            posted: Condvar::new(),
        }
    }

    /// The board's lock. A worker that panicked holding it left nothing
    /// half-written (every update is a field store), so poison is ignored
    /// and the panic surfaces where the round joins that worker.
    fn lock(&self) -> MutexGuard<'_, Vec<Split<'a>>> {
        self.splits.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Posts `members`' builds as one split and returns its index.
    fn post(&self, members: Vec<&'a Interval>) -> usize {
        let builds: Vec<Build<'a>> = members
            .into_iter()
            .map(|member| Build { member, claimed: false, landed: None })
            .collect();
        let mut splits = self.lock();
        self.open.fetch_add(builds.len(), Ordering::Relaxed);
        splits.push(Split { pending: builds.len(), builds, rest: None });
        self.posted.notify_all();
        splits.len() - 1
    }

    /// Claims the largest unclaimed build of split `only`, or of any.
    fn claim(&self, splits: &mut [Split<'a>], only: Option<usize>) -> Option<(Slot, &'a Interval)> {
        let (si, bi) = splits
            .iter()
            .enumerate()
            .filter(|(si, _)| only.is_none_or(|o| o == *si))
            .flat_map(|(si, split)| split.builds.iter().enumerate().map(move |(bi, b)| (si, bi, b)))
            .filter(|(_, _, b)| !b.claimed)
            .max_by_key(|(_, _, b)| b.member.meta.size)
            .map(|(si, bi, _)| (si, bi))?;
        let build = &mut splits[si].builds[bi];
        build.claimed = true;
        self.open.fetch_sub(1, Ordering::Relaxed);
        Some(((si, bi), build.member))
    }

    /// A build of split `si` for its owner.
    fn claim_own(&self, si: usize) -> Option<(Slot, &'a Interval)> {
        self.claim(&mut self.lock(), Some(si))
    }

    /// A posted build for a worker about to pop its next task.
    fn claim_any(&self) -> Option<(Slot, &'a Interval)> {
        if self.open.load(Ordering::Relaxed) == 0 {
            return None;
        }
        self.claim(&mut self.lock(), None)
    }

    /// A posted build for a worker whose deques are dry, waiting while a
    /// task that may still post runs; `None` once none can.
    fn claim_or_wait(&self) -> Option<(Slot, &'a Interval)> {
        let mut splits = self.lock();
        loop {
            if let Some(claimed) = self.claim(&mut splits, None) {
                return Some(claimed);
            }
            if self.unfinished.load(Ordering::Acquire) == 0 {
                return None;
            }
            splits = self.posted.wait(splits).unwrap_or_else(PoisonError::into_inner);
        }
    }

    /// Hands in a claimed build. The task is the caller's to finish when
    /// this was its last build and its owner has handed it on.
    fn land(&self, (si, bi): Slot, landed: Landed) -> Option<Finish<'a>> {
        let mut splits = self.lock();
        let split = &mut splits[si];
        split.builds[bi].landed = Some(landed);
        split.pending -= 1;
        if split.pending > 0 {
            return None;
        }
        let rest = split.rest.take()?;
        Some(Finish { rest, landed: take_landed(split) })
    }

    /// Settles split `si` once its owner has claimed all of its builds:
    /// when every one has landed the owner finishes the task itself;
    /// otherwise the task waits here for whoever lands its last build.
    fn settle(&self, si: usize, rest: Rest<'a>) -> Option<Finish<'a>> {
        let mut splits = self.lock();
        let split = &mut splits[si];
        if split.pending == 0 {
            return Some(Finish { rest, landed: take_landed(split) });
        }
        split.rest = Some(rest);
        None
    }

    /// Counts one task finished or handed on; the last wakes every
    /// waiting worker.
    fn task_finished(&self) {
        if self.unfinished.fetch_sub(1, Ordering::AcqRel) == 1 {
            let _splits = self.lock();
            self.posted.notify_all();
        }
    }
}

/// A split's landed trees, taken off the board.
fn take_landed<'a>(split: &mut Split<'a>) -> Vec<(&'a Interval, Landed)> {
    let builds = std::mem::take(&mut split.builds);
    builds.into_iter().map(|b| (b.member, b.landed.expect("every build landed"))).collect()
}

/// Counts a task finished or handed on when dropped, on unwinding too, so
/// no worker waits for a task whose owner panicked.
struct Finishing<'b, 'a>(&'b Board<'a>);

impl Drop for Finishing<'_, '_> {
    fn drop(&mut self) {
        self.0.task_finished();
    }
}

/// A finished task, before its outcome is recorded and sent.
struct Done {
    result: io::Result<RaceSet>,
    /// The task's work: its builds and compares, wherever they ran.
    secs: f64,
}

/// What one worker keeps from round to round: its open logs and its
/// `--obs` recorders (`None` when observability is off).
struct WorkerCtx {
    pool: ReaderPool,
    journal: Option<ThreadJournal>,
    /// Per-site attribution (lock-free on the hot path), added to the
    /// registry by [`Core::into_result`].
    sites: Option<SiteCounters>,
}

/// What every worker of a round reads.
struct Round<'a> {
    dir: &'a SessionDir,
    regions: &'a HashMap<u64, RegionRecord>,
    structure: &'a Structure,
    rows: Option<&'a Rows>,
    deques: &'a [Mutex<VecDeque<Task>>],
    board: &'a Board<'a>,
    /// Threads the round runs on: a split needs a second.
    threads: usize,
    /// When the deques were dealt: each task's deque wait is measured
    /// from here.
    dealt: Instant,
}

/// The incremental analyzer behind both entry points (module docs): the
/// structure, the worker state, and everything accumulated so far.
pub(crate) struct Core {
    dir: SessionDir,
    config: AnalysisConfig,
    /// Its rows in the `Obs` registry, when `--obs` is on.
    rows: Option<Rows>,
    /// Log-source counters every worker's reader pool charges, and their
    /// values when the registry's rows last caught up with them.
    sources: SourceStats,
    sources_seen: [u64; 3],
    structure: Structure,
    /// One per worker thread a round has needed so far, at most
    /// `config.workers`.
    workers: Vec<WorkerCtx>,
    pub(crate) races: RaceSet,
    pub(crate) stats: WorkerStats,
    /// Tasks counted in the round they first existed.
    tasks: u64,
    /// The calling thread's stage spans, when `--obs` is on.
    journal: Option<ThreadJournal>,
}

impl Core {
    /// A core that has analyzed nothing yet.
    pub(crate) fn new(dir: &SessionDir, config: &AnalysisConfig) -> Core {
        Core {
            dir: dir.clone(),
            config: config.clone(),
            structure: Structure::new(&VerdictCache::default()),
            rows: config.obs.as_ref().map(|o| Rows::new(&o.registry)),
            sources: SourceStats::new(),
            sources_seen: [0; 3],
            workers: Vec::new(),
            races: RaceSet::new(),
            stats: WorkerStats::default(),
            tasks: 0,
            journal: config.journal_for("analyzer"),
        }
    }

    /// One round: files `rows` (labeled against `regions`, which must
    /// already hold every region they name) and runs the scheduler →
    /// workers → reducer stages over the tasks they touch. Returns the
    /// races whose source-line pair this round saw first, sorted by key.
    /// A round without rows does nothing at all.
    pub(crate) fn round(
        &mut self,
        regions: &HashMap<u64, RegionRecord>,
        rows: &[(ThreadId, Vec<MetaRecord>)],
    ) -> io::Result<Vec<Race>> {
        if rows.iter().all(|(_, rows)| rows.is_empty()) {
            return Ok(Vec::new());
        }

        // Stage: build-structure.
        let t0 = Instant::now();
        let groups_before = self.structure.groups.len();
        self.structure.extend(regions, rows)?;
        let new_groups = (self.structure.groups.len() - groups_before) as u64;
        self.record(Stage::BuildStructure, t0.elapsed().as_secs_f64(), new_groups, 0);
        let (structure, config) = (&self.structure, &self.config);

        // Stage: pair-schedule. Filters the round's tasks to the focus
        // regions, orders them by file position, and deals contiguous
        // chunks into per-worker deques.
        let t0 = Instant::now();
        let in_focus = |group: usize| -> bool {
            match &config.focus_regions {
                None => true,
                Some(focus) => focus.contains(&structure.groups[group].pid),
            }
        };
        let mut tasks: Vec<Task> = structure
            .tasks
            .iter()
            .filter(|t| match t {
                Task::Intra { group } => in_focus(*group),
                Task::Cross { a, b, .. } => in_focus(*a) && in_focus(*b),
            })
            .cloned()
            .collect();
        tasks.sort_by_key(|t| match t {
            Task::Intra { group } => structure.position(*group),
            Task::Cross { a, b, .. } => structure.position(*a).min(structure.position(*b)),
        });
        let scheduled = tasks.len() as u64;
        let first_round = tasks.iter().filter(|t| structure.first_round_of(t)).count() as u64;
        let worth_starting = (structure.fresh_bytes() / BYTES_PER_STARTED_THREAD) as usize;
        // No more threads than the round has trees to build (counted
        // until there are enough), and one for tasks that build none.
        let most = config.workers.max(1).min(1 + worth_starting);
        let mut builds = 0;
        for task in &tasks {
            if builds >= most {
                break;
            }
            builds += owing(structure, regions, task)?.1.len();
        }
        let threads = if tasks.is_empty() { 0 } else { most.min(builds.max(1)) };
        let deques: Vec<Mutex<VecDeque<Task>>> = {
            let chunk = tasks.len().div_ceil(threads.max(1)).max(1);
            let mut dealt = tasks.into_iter();
            (0..threads).map(|_| Mutex::new(dealt.by_ref().take(chunk).collect())).collect()
        };
        self.record(Stage::PairSchedule, t0.elapsed().as_secs_f64(), scheduled, 0);
        if let Some(rows) = &self.rows {
            rows.queue_depth.add(scheduled);
        }
        // All tasks are dealt at one moment; each task's deque wait is
        // measured from here.
        let dealt = Instant::now();

        while self.workers.len() < threads {
            let wi = self.workers.len();
            self.workers.push(WorkerCtx {
                pool: ReaderPool::sharing(
                    self.sources.clone(),
                    OPEN_LOGS_BUDGET / config.workers.max(1),
                ),
                journal: config.journal_for(format!("oa-worker-{wi}")),
                sites: config.obs.as_ref().map(|_| SiteCounters::new()),
            });
        }
        let board = Board::new(scheduled as usize);
        let round = Round {
            dir: &self.dir,
            regions,
            structure,
            rows: self.rows.as_ref(),
            deques: &deques,
            board: &board,
            threads,
            dealt,
        };
        let (result_tx, result_rx) = sync_channel::<io::Result<RaceSet>>(RESULT_QUEUE);

        let mut races = RaceSet::new();
        let mut merged = WorkerStats::default();
        let mut first_error: Option<io::Error> = None;
        let mut dedup_secs = 0.0f64;
        let mut outcomes = 0u64;
        let (rows, sources, sources_seen) =
            (self.rows.as_ref(), &self.sources, &mut self.sources_seen);
        // Stage: dedup-report. Merges every task's races as it arrives,
        // and catches the log-read rows up with the task's reads.
        let mut reduce = |msg: io::Result<RaceSet>| match msg {
            Ok(task_races) => {
                let t0 = Instant::now();
                races.merge(task_races);
                outcomes += 1;
                if let Some(rows) = rows {
                    rows.catch_up_reads(sources, sources_seen);
                }
                dedup_secs += t0.elapsed().as_secs_f64();
            }
            // Keep going after an error so no worker blocks on a full
            // result channel; the scope still joins everything.
            Err(e) => {
                first_error.get_or_insert(e);
            }
        };

        // Stage: tree-build + compare, on `threads` threads: this one is
        // worker 0 and the reducer, the others are started here.
        std::thread::scope(|s| {
            let mut ctxs = self.workers[..threads].iter_mut();
            let own = ctxs.next();
            let handles: Vec<_> = ctxs
                .zip(1..)
                .map(|(ctx, wi)| {
                    let (tx, round) = (result_tx.clone(), &round);
                    let backpressure = rows.map(|r| &r.backpressure);
                    s.spawn(move || round.work(wi, ctx, |msg| send_outcome(&tx, backpressure, msg)))
                })
                .collect();
            drop(result_tx);
            if let Some(ctx) = own {
                // Between two tasks of its own, whatever the others sent.
                merged.merge(&round.work(0, ctx, |msg| {
                    reduce(msg);
                    result_rx.try_iter().for_each(&mut reduce);
                    true
                }));
            }
            result_rx.iter().for_each(&mut reduce);
            // The scope's own wait ends when a thread's closure returns;
            // joining ends when the OS thread is gone, so a round leaves
            // the process with the threads it found.
            for handle in handles {
                merged.merge(&handle.join().expect("analysis worker panicked"));
            }
        });

        // Fold the round into the session set, surfacing the source-line
        // pairs seen for the first time. A failed round folds nothing but
        // charges its stages, so the stage rows of a shared registry
        // count the same rounds.
        let t0 = Instant::now();
        let mut new_races: Vec<Race> = Vec::new();
        if first_error.is_none() {
            new_races.extend(races.iter().filter(|r| !self.races.contains(&r.key)).cloned());
            new_races.sort_by_key(|r| r.key);
            self.races.merge(races);
        }
        dedup_secs += t0.elapsed().as_secs_f64();
        self.record(Stage::TreeBuild, merged.build_secs, merged.trees_built, merged.bytes_read);
        self.record(Stage::Compare, merged.compare_secs, merged.tree_pairs, 0);
        self.record(Stage::DedupReport, dedup_secs, outcomes, 0);
        if let Some(e) = first_error {
            return Err(e);
        }
        self.tasks += first_round;
        self.stats.merge(&merged);
        if let Some(rows) = &self.rows {
            rows.catch_up_reads(&self.sources, &mut self.sources_seen);
        }
        Ok(new_races)
    }

    /// Charges `stage` with one measurement, when `--obs` is on: `secs`,
    /// `items` and `bytes` to its rows and, for a stage the calling thread
    /// runs, a span of the same `secs` ending now on the `analyzer`
    /// journal. Tree-build and compare are every worker's busy time,
    /// which the workers' `work` and `build` spans show.
    pub(crate) fn record(&self, stage: Stage, secs: f64, items: u64, bytes: u64) {
        if let Some(rows) = &self.rows {
            rows.stage(stage, secs, items, bytes);
        }
        if let Some(j) = &self.journal {
            if !matches!(stage, Stage::TreeBuild | Stage::Compare) {
                close_span(j, STAGES[stage as usize], secs, ("items", items as f64));
            }
        }
    }

    /// The result over everything analyzed so far, for a session of
    /// `threads` logs and `barrier_intervals` meta rows, with `--obs`
    /// also adding every worker's site counters to the registry. The
    /// caller owns `stats.wall_secs`.
    pub(crate) fn into_result(
        self,
        threads: u64,
        barrier_intervals: u64,
        pcs: &PcTable,
    ) -> AnalysisResult {
        if let Some(obs) = &self.config.obs {
            for sites in self.workers.iter().filter_map(|w| w.sites.as_ref()) {
                add_site_rows(&obs.registry, sites, |pc| pcs.display(pc));
            }
        }
        let mut stats = AnalysisStats {
            threads,
            barrier_intervals,
            groups: self.structure.groups.len() as u64,
            tasks: self.tasks,
            region_pairs_skipped: self.structure.region_pairs_skipped,
            region_pairs_considered: self.structure.region_pairs_considered,
            trees_built: self.stats.trees_built,
            nodes: self.stats.nodes,
            events: self.stats.events,
            bytes_read: self.stats.bytes_read,
            tree_pairs: self.stats.tree_pairs,
            candidate_pairs: self.stats.candidates,
            solver_calls: self.stats.solver_calls,
            prescreened_pairs: self.stats.prescreened,
            max_task_secs: self.stats.max_task_secs,
            ..AnalysisStats::default()
        };
        let races = finalize_races(self.races, pcs, &self.config.suppressions, &mut stats);
        AnalysisResult { races, stats }
    }
}

impl<'a> Round<'a> {
    /// Worker `wi`'s share of the round: before each task a posted build
    /// of another worker's task, if there is one; then its deque, then
    /// stealing; with nothing left, the builds a task still running may
    /// post. Hands each task's outcome it finishes to `sink` (which
    /// returns `false` when nobody is listening any more), and returns its
    /// counters. Journals the share as one `work` span whose `tasks` arg
    /// counts the tasks it finished, 0 included; each task's time goes to
    /// the task histogram, not the journal.
    fn work(
        &self,
        wi: usize,
        ctx: &mut WorkerCtx,
        mut sink: impl FnMut(io::Result<RaceSet>) -> bool,
    ) -> WorkerStats {
        let mut stats = WorkerStats::default();
        let t0 = Instant::now();
        let mut finished = 0u64;
        loop {
            let done = if let Some((slot, member)) = self.board.claim_any() {
                self.help(slot, member, ctx, &mut stats)
            } else if let Some(task) = next_task(self.deques, wi) {
                if let Some(rows) = self.rows {
                    rows.queue_depth.sub(1);
                    rows.task_wait_us.record(self.dealt.elapsed().as_micros() as u64);
                }
                let _finishing = Finishing(self.board);
                self.start(&task, ctx, &mut stats)
            } else if let Some((slot, member)) = self.board.claim_or_wait() {
                self.help(slot, member, ctx, &mut stats)
            } else {
                break;
            };
            let Some(Done { result, secs }) = done else { continue };
            finished += 1;
            stats.max_task_secs = stats.max_task_secs.max(secs);
            if let Some(rows) = self.rows {
                rows.task_nanos.record(nanos(secs));
            }
            if !sink(result) {
                break;
            }
        }
        if let Some(j) = &ctx.journal {
            close_span(j, "work", t0.elapsed().as_secs_f64(), ("tasks", finished as f64));
        }
        stats
    }

    /// Starts one comparison task: settles the member pairs the round owes
    /// and the trees they name. When those are worth sharing it posts
    /// them, builds until none is left unclaimed, and finishes the task
    /// only if its trees have all landed by then; otherwise the task is
    /// handed on (`None`).
    fn start(&self, task: &Task, ctx: &mut WorkerCtx, stats: &mut WorkerStats) -> Option<Done> {
        let t0 = Instant::now();
        let (pairs, owing) = match owing(self.structure, self.regions, task) {
            Ok(owing) => owing,
            Err(e) => return Some(Done { result: Err(e), secs: t0.elapsed().as_secs_f64() }),
        };
        let shared = self.threads > 1
            && owing.len() >= 2
            && owing.iter().map(|m| m.meta.size).sum::<u64>() >= BYTES_PER_STARTED_THREAD;
        if !shared {
            let rest = Rest { pairs, owing, secs: 0.0 };
            return Some(self.finish(Finish { rest, landed: Vec::new() }, ctx, stats, t0));
        }
        let split = self.board.post(owing);
        let rest = Rest { pairs, owing: Vec::new(), secs: t0.elapsed().as_secs_f64() };
        while let Some((slot, member)) = self.board.claim_own(split) {
            let built = self.build(member, ctx, stats);
            // Not settled yet, so no landing finishes the task.
            let _ = self.board.land(slot, built);
        }
        let finish = self.board.settle(split, rest)?;
        Some(self.finish(finish, ctx, stats, Instant::now()))
    }

    /// Builds a posted tree for another worker's task and lands it;
    /// finishes that task when this was its last tree and its owner has
    /// moved on.
    fn help(
        &self,
        slot: Slot,
        member: &Interval,
        ctx: &mut WorkerCtx,
        stats: &mut WorkerStats,
    ) -> Option<Done> {
        let built = self.build(member, ctx, stats);
        let finish = self.board.land(slot, built)?;
        Some(self.finish(finish, ctx, stats, Instant::now()))
    }

    /// Builds a posted tree with this worker's reader pool. The build
    /// counts in this worker's tree-build stage time and, with `--obs`, is
    /// journaled as a `build` span. Only a task whose trees carry
    /// `BYTES_PER_STARTED_THREAD` of log posts builds, so these spans come
    /// with the log's bytes, not with the session's intervals.
    fn build(&self, member: &Interval, ctx: &mut WorkerCtx, stats: &mut WorkerStats) -> Landed {
        let t0 = Instant::now();
        let (tid, begin, size) = (member.tid, member.meta.data_begin, member.meta.size);
        let built = ctx.pool.build(self.dir, tid, begin, size, DEFAULT_CHUNK_BYTES);
        let secs = t0.elapsed().as_secs_f64();
        stats.build_secs += secs;
        if let Some(j) = &ctx.journal {
            close_span(j, "build", secs, ("bytes", size as f64));
        }
        built.map(|tree| (tree, secs))
    }

    /// Finishes a task: holds the trees that landed for it, builds the
    /// ones it still owes (in file-position order, for the reader pool's
    /// sake), runs its compares and drops its trees. Its work is what came
    /// with it plus the time since `t0`.
    fn finish(
        &self,
        finish: Finish<'a>,
        ctx: &mut WorkerCtx,
        stats: &mut WorkerStats,
        t0: Instant,
    ) -> Done {
        let Finish { rest: Rest { pairs, owing, mut secs }, landed } = finish;
        let mut trees = TaskTrees::new(self.rows);
        let mut races = RaceSet::new();
        let result = landed
            .into_iter()
            .try_for_each(|(member, built)| {
                let (tree, build_secs) = built?;
                secs += build_secs;
                trees.hold(member, tree, stats);
                Ok(())
            })
            .and_then(|()| {
                owing.iter().try_for_each(|m| trees.build(self.dir, m, &mut ctx.pool, stats))
            })
            .and_then(|()| self.compare(&pairs, &trees, ctx, &mut races, stats));
        Done { result: result.map(|()| races), secs: secs + t0.elapsed().as_secs_f64() }
    }

    /// Compares a task's pairs out of its trees.
    fn compare(
        &self,
        pairs: &[(&Interval, &Interval)],
        trees: &TaskTrees,
        ctx: &mut WorkerCtx,
        races: &mut RaceSet,
        stats: &mut WorkerStats,
    ) -> io::Result<()> {
        let t0 = Instant::now();
        for &(ma, mb) in pairs {
            let tree = |m| trees.get(m).expect("a task holds every tree its pairs name");
            let (ta, tb) = (tree(ma), tree(mb));
            if ta.node_count() == 0 || tb.node_count() == 0 {
                continue;
            }
            stats.tree_pairs += 1;
            let sites = ctx.sites.as_mut();
            let pair_stats = check_pair(self.regions, (ta, ma), (tb, mb), self.rows, races, sites)?;
            stats.candidates += pair_stats.candidates;
            stats.solver_calls += pair_stats.solver_calls;
            stats.prescreened += pair_stats.prescreened;
        }
        stats.compare_secs += t0.elapsed().as_secs_f64();
        Ok(())
    }
}

/// A task's member pairs that can race, and the members they name.
type Owing<'s> = (Vec<(&'s Interval, &'s Interval)>, Vec<&'s Interval>);

/// The member pairs `task` owes that can race, and the members they name
/// in file-position order: the trees the task needs. Dropped are pairs
/// with an empty interval, same-tid pairs (program order — cross pairs,
/// and the fragments a task chain leaves in one (pid, bid) group), and
/// across regions, pairs whose prefix-related fork labels the
/// barrier-aware check orders, or whose task bodies `depend` edges order
/// though their labels alone say "concurrent".
fn owing<'s>(
    structure: &'s Structure,
    regions: &HashMap<u64, RegionRecord>,
    task: &Task,
) -> io::Result<Owing<'s>> {
    // A cross task whose regions are prefix-related compares each pair's
    // full labels, read in place from the two regions' fork labels (looked
    // up, and their shared prefix skipped, once per task; `owed` names
    // group `a`'s member first).
    let fork = |group: usize| region_of(regions, structure.groups[group].pid);
    let cross = match *task {
        Task::Intra { .. } => None,
        Task::Cross { all_concurrent: true, .. } => Some(None),
        Task::Cross { a, b, all_concurrent: false } => {
            Some(Some(unshared(&fork(a)?.fork_label, &fork(b)?.fork_label)))
        }
    };
    let mut pairs = structure.owed(task);
    pairs.retain(|(ma, mb)| {
        ma.meta.size > 0
            && mb.meta.size > 0
            && ma.tid != mb.tid
            && cross.is_none_or(|forks| {
                forks.is_none_or(|(fa, fb)| labels_concurrent(fa, ma, fb, mb))
                    && !dep_ordered(regions, ma, mb)
            })
    });
    let mut members: Vec<&Interval> = pairs.iter().flat_map(|&(ma, mb)| [ma, mb]).collect();
    members.sort_by_key(|m| (m.meta.data_begin, m.tid));
    members.dedup_by_key(|m| (m.tid, m.meta.data_begin));
    Ok((pairs, members))
}
