//! The staged streaming pipeline behind [`crate::analyze_loaded`].
//!
//! The offline phase runs as explicit stages:
//!
//! ```text
//! discover ─ load-meta ─ build-structure ─┐            (caller, timed)
//!                                         ▼
//!                  pair-schedule ──(per-worker deques)──► workers
//!                  (filter + sort + deal)  + stealing    tree-build
//!                                                        compare
//!                                         ┌──(result channel)──┘
//!                                         ▼
//!                                    dedup-report
//!                                 (streaming reducer)
//! ```
//!
//! The scheduler filters tasks to the focus regions, sorts them by file
//! position so each worker's reader pool streams forward, and deals
//! contiguous chunks into one deque per worker. Workers drain their own
//! deque front-to-back (preserving the position ordering) and steal a
//! batch from the back of a victim's deque when they run dry, so the
//! pool stays saturated even when task costs are skewed. Results stream
//! through a bounded channel into a reducer that merges each task's race
//! set the moment it arrives instead of waiting for a global barrier.

use std::collections::VecDeque;
use std::io;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use crossbeam::channel::{bounded, Sender, TrySendError};
use sword_metrics::{DurationHist, StageTable};
use sword_obs::{Counter, FlowPhase, Histogram, Obs, SiteCounters};

use crate::analyze::{journal_stage, AnalysisConfig};
use crate::build::{ReaderPool, TreeCache};
use crate::intervals::{dep_ordered, intervals_concurrent, Group, Structure, Task};
use crate::load::LoadedSession;
use crate::race::{check_pair, CompareCtx, RaceSet};
use crate::verdicts::VerdictCache;

/// Most tasks a worker grabs from a victim's deque in one steal.
const STEAL_BATCH: usize = 16;

/// Per-worker counters, accumulated across tasks and merged by the
/// reducer.
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
    /// Fixed-footprint histogram of per-task durations.
    pub task_hist: DurationHist,
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
        self.task_hist.merge(&other.task_hist);
        self.build_secs += other.build_secs;
        self.compare_secs += other.compare_secs;
    }
}

/// What one comparison task produced.
struct TaskOutcome {
    races: RaceSet,
    stats: WorkerStats,
    secs: f64,
    /// Causal-flow id minted by the worker's task span, so the reducer's
    /// merge instant continues the scheduler → worker → reducer chain.
    flow: Option<u64>,
}

/// Causal-tracing handles for the analyzer pipeline: the task-deque wait
/// histogram, the live task-queue depth, and the result-channel
/// backpressure counter. Present exactly when `--obs` is on.
struct PipelineObs {
    obs: Obs,
    task_wait_us: Histogram,
    queue_depth: Arc<AtomicU64>,
    backpressure: Counter,
}

impl PipelineObs {
    fn new(obs: &Obs, scheduled: u64) -> PipelineObs {
        let queue_depth = Arc::new(AtomicU64::new(scheduled));
        let d = Arc::clone(&queue_depth);
        obs.registry.source(
            "sword_task_queue_depth",
            "comparison tasks still waiting in the worker deques",
            move || d.load(Ordering::Relaxed) as f64,
        );
        PipelineObs {
            obs: obs.clone(),
            task_wait_us: obs.registry.histogram(
                "sword_task_queue_wait_us",
                "schedule-to-dequeue wait of a comparison task",
            ),
            queue_depth,
            backpressure: obs.registry.counter(
                "sword_result_backpressure_total",
                "worker sends that blocked on a full result channel",
            ),
        }
    }

    /// Notes one task leaving the deques: settles the depth gauge and
    /// records its wait since the scheduler dealt the deques.
    fn note_dequeue(&self, dealt_us: u64) {
        // Saturating: a stolen task can be counted on a slightly stale
        // depth; never underflow.
        let _ = self
            .queue_depth
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |d| Some(d.saturating_sub(1)));
        self.task_wait_us.record(self.obs.journal.now_us().saturating_sub(dealt_us));
    }
}

/// Sends a worker's result, counting result-channel backpressure: a full
/// channel means the reducer is the bottleneck, so the blocked send is
/// tallied before falling back to the blocking path.
fn send_outcome(
    tx: &Sender<io::Result<TaskOutcome>>,
    obs: Option<&PipelineObs>,
    msg: io::Result<TaskOutcome>,
) -> bool {
    let msg = match obs {
        Some(p) => match tx.try_send(msg) {
            Ok(()) => return true,
            Err(TrySendError::Disconnected(_)) => return false,
            Err(TrySendError::Full(msg)) => {
                p.backpressure.inc();
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
/// the workers start, so an all-empty sweep means the pool is drained.
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

/// Runs the scheduler → workers → reducer stages over a reconstructed
/// structure and returns the merged race set and counters, recording
/// per-stage wall time and throughput into `stages`.
pub(crate) fn run(
    session: &LoadedSession,
    structure: &Structure,
    config: &AnalysisConfig,
    cache: &VerdictCache,
    stages: &mut StageTable,
) -> io::Result<(RaceSet, WorkerStats, u64)> {
    let workers = config.workers.max(1);

    // Stage: pair-schedule. Filters tasks to the focus regions, orders
    // them by file position (group positions are computed once up front,
    // not re-derived inside the sort comparator), and deals contiguous
    // chunks into per-worker deques.
    let sched_journal = config.journal_for("oa-scheduler");
    let sched_s0 = sched_journal.as_ref().map(|j| j.now_us());
    let sched_t0 = Instant::now();
    let in_focus = |group: usize| -> bool {
        match &config.focus_regions {
            None => true,
            Some(focus) => focus.contains(&structure.groups[group].pid),
        }
    };
    let group_pos: Vec<u64> = structure
        .groups
        .iter()
        .map(|g| g.members.iter().map(|m| m.meta.data_begin).min().unwrap_or(0))
        .collect();
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
        Task::Intra { group } => group_pos[*group],
        Task::Cross { a, b, .. } => group_pos[*a].min(group_pos[*b]),
    });
    let scheduled = tasks.len() as u64;
    let deques: Vec<Mutex<VecDeque<Task>>> = {
        let chunk = tasks.len().div_ceil(workers).max(1);
        let mut dealt = tasks.into_iter();
        (0..workers).map(|_| Mutex::new(dealt.by_ref().take(chunk).collect())).collect()
    };
    let schedule_secs = sched_t0.elapsed().as_secs_f64();
    journal_stage(&sched_journal, "pair-schedule", sched_s0, ("tasks", scheduled as f64));
    let pipe_obs = config.obs.as_ref().map(|o| PipelineObs::new(o, scheduled));
    // All tasks are dealt at one moment; each task's deque wait is
    // measured from here.
    let dealt_us = pipe_obs.as_ref().map(|p| p.obs.journal.now_us()).unwrap_or(0);

    let (result_tx, result_rx) = bounded::<io::Result<TaskOutcome>>(2 * workers);

    let mut races = RaceSet::new();
    let mut merged = WorkerStats::default();
    let mut first_error: Option<io::Error> = None;
    let mut dedup_secs = 0.0f64;
    let mut outcomes = 0u64;

    std::thread::scope(|s| {
        // Stage: tree-build + compare, on `workers` threads.
        for wi in 0..workers {
            let result_tx = result_tx.clone();
            let deques = &deques;
            let pipe_obs = pipe_obs.as_ref();
            s.spawn(move || {
                let mut pool =
                    ReaderPool::sharing(config.source_stats.clone(), config.image_cache.clone());
                // Per-worker tree cache: intervals shared by the worker's
                // tasks are built once, not once per task. Its drop
                // credits the memory gauge before the scope joins.
                let mut trees = TreeCache::new(config.mem_gauge.clone());
                let journal = config.journal_for(format!("oa-worker-{wi}"));
                let solver_hist = config.solver_hist();
                // Per-worker attribution accumulator (lock-free on the
                // hot path), folded into the shared table once at exit.
                let mut site_acc = config.sites.as_ref().map(|_| SiteCounters::new());
                while let Some(task) = next_task(deques, wi) {
                    if let Some(p) = pipe_obs {
                        p.note_dequeue(dealt_us);
                    }
                    let s0 = journal.as_ref().map(|j| j.now_us());
                    let t0 = Instant::now();
                    let mut task_races = RaceSet::new();
                    let mut local = WorkerStats::default();
                    let result = run_task(
                        session,
                        &structure.groups,
                        &task,
                        config,
                        cache,
                        &mut pool,
                        &mut trees,
                        &mut task_races,
                        &mut local,
                        solver_hist.as_ref(),
                        &mut site_acc,
                    );
                    let secs = t0.elapsed().as_secs_f64();
                    // The task span starts this outcome's causal flow;
                    // the reducer's merge instant ends it.
                    let flow = pipe_obs.map(|p| p.obs.journal.next_flow_id());
                    if let (Some(j), Some(s0)) = (&journal, s0) {
                        j.span_closed_flow(
                            "task",
                            s0,
                            j.now_us().saturating_sub(s0),
                            vec![("tree_pairs".into(), local.tree_pairs as f64)],
                            flow.map(|f| (f, FlowPhase::Start)),
                        );
                    }
                    let msg = result.map(|()| TaskOutcome {
                        races: task_races,
                        stats: local,
                        secs,
                        flow,
                    });
                    if !send_outcome(&result_tx, pipe_obs, msg) {
                        break;
                    }
                }
                if let (Some(table), Some(acc)) = (&config.sites, site_acc.take()) {
                    table.absorb(acc);
                }
            });
        }
        drop(result_tx);

        // Stage: dedup-report. Merges every task's races as it arrives.
        let reduce_journal = config.journal_for("oa-reducer");
        let reduce_s0 = reduce_journal.as_ref().map(|j| j.now_us());
        for msg in result_rx.iter() {
            match msg {
                Ok(outcome) => {
                    let t0 = Instant::now();
                    if let (Some(j), Some(flow)) = (&reduce_journal, outcome.flow) {
                        j.instant_flow(
                            "merge",
                            vec![("task_secs".into(), outcome.secs)],
                            Some((flow, FlowPhase::End)),
                        );
                    }
                    races.merge(outcome.races);
                    merged.merge(&outcome.stats);
                    if outcome.secs > merged.max_task_secs {
                        merged.max_task_secs = outcome.secs;
                    }
                    merged.task_hist.record(outcome.secs);
                    outcomes += 1;
                    dedup_secs += t0.elapsed().as_secs_f64();
                }
                // Keep draining after an error so no worker blocks on a
                // full result channel; the scope still joins everything.
                Err(e) => {
                    first_error.get_or_insert(e);
                }
            }
        }
        journal_stage(&reduce_journal, "dedup-report", reduce_s0, ("outcomes", outcomes as f64));
    });

    if let Some(e) = first_error {
        return Err(e);
    }
    stages.record("pair-schedule", schedule_secs, scheduled, 0);
    stages.record("tree-build", merged.build_secs, merged.trees_built, merged.bytes_read);
    stages.record("compare", merged.compare_secs, merged.tree_pairs, 0);
    stages.record("dedup-report", dedup_secs, outcomes, 0);
    Ok((races, merged, scheduled))
}

/// Ensures the trees of a group's non-empty members are in the worker's
/// cache, returning each such member's index and cache key. Cache hits
/// still charge the logical build counters (see [`TreeCache::ensure`]),
/// so the merged statistics are identical whatever the cache geometry.
fn ensure_group_trees(
    session: &LoadedSession,
    group: &Group,
    pool: &mut ReaderPool,
    trees: &mut TreeCache,
    stats: &mut WorkerStats,
) -> io::Result<Vec<(usize, (sword_trace::ThreadId, u64))>> {
    let mut keys = Vec::with_capacity(group.members.len());
    for (i, member) in group.members.iter().enumerate() {
        if member.meta.size == 0 {
            continue; // empty interval: nothing to race
        }
        trees.ensure(&session.dir, member, pool, stats, true)?;
        keys.push((i, (member.tid, member.meta.data_begin)));
    }
    Ok(keys)
}

/// Executes one comparison task against the worker's tree cache: the
/// task's trees are ensured (built on miss, reused on hit), the cache is
/// trimmed to budget with the task's keys pinned, and every qualifying
/// pair is compared out of the cache.
#[allow(clippy::too_many_arguments)]
pub(crate) fn run_task(
    session: &LoadedSession,
    groups: &[Group],
    task: &Task,
    config: &AnalysisConfig,
    cache: &VerdictCache,
    pool: &mut ReaderPool,
    trees: &mut TreeCache,
    races: &mut RaceSet,
    stats: &mut WorkerStats,
    solver_hist: Option<&Histogram>,
    sites: &mut Option<SiteCounters>,
) -> io::Result<()> {
    match *task {
        Task::Intra { group } => {
            let g = &groups[group];
            let keys = ensure_group_trees(session, g, pool, trees, stats)?;
            let pinned: Vec<_> = keys.iter().map(|(_, k)| *k).collect();
            trees.evict(&pinned);
            let t0 = Instant::now();
            for i in 0..keys.len() {
                for j in i + 1..keys.len() {
                    let (ia, ka) = keys[i];
                    let (ib, kb) = keys[j];
                    // Tasking sessions fragment a thread's log around task
                    // chains, so one (pid, bid) group can hold several
                    // same-tid fragments — program order, never a race.
                    if g.members[ia].tid == g.members[ib].tid {
                        continue;
                    }
                    let (ta, tb) =
                        (trees.get(&ka).expect("pinned"), trees.get(&kb).expect("pinned"));
                    if ta.node_count() == 0 || tb.node_count() == 0 {
                        continue;
                    }
                    stats.tree_pairs += 1;
                    let pair_stats = check_pair(
                        ta,
                        &g.members[ia],
                        tb,
                        &g.members[ib],
                        &CompareCtx { cache, tiers: &config.tiers },
                        races,
                        solver_hist,
                        sites.as_mut(),
                    );
                    stats.candidates += pair_stats.candidates;
                    stats.solver_calls += pair_stats.solver_calls;
                    stats.prescreened += pair_stats.prescreened;
                }
            }
            stats.compare_secs += t0.elapsed().as_secs_f64();
        }
        Task::Cross { a, b, all_concurrent } => {
            let ga = &groups[a];
            let gb = &groups[b];
            // Build in file-position order for the reader pool's sake.
            let (first, second) = if ga.members.iter().map(|m| m.meta.data_begin).min()
                <= gb.members.iter().map(|m| m.meta.data_begin).min()
            {
                (ga, gb)
            } else {
                (gb, ga)
            };
            let keys_first = ensure_group_trees(session, first, pool, trees, stats)?;
            let keys_second = ensure_group_trees(session, second, pool, trees, stats)?;
            let pinned: Vec<_> =
                keys_first.iter().chain(keys_second.iter()).map(|(_, k)| *k).collect();
            trees.evict(&pinned);
            let t0 = Instant::now();
            for &(ia, ka) in &keys_first {
                for &(ib, kb) in &keys_second {
                    let ma = &first.members[ia];
                    let mb = &second.members[ib];
                    if !all_concurrent && !intervals_concurrent(ma, mb) {
                        continue;
                    }
                    if ma.tid == mb.tid {
                        continue;
                    }
                    // Task dependence edges order whole task bodies; the
                    // labels alone say "concurrent" for siblings, so the
                    // `depend` partial order is layered on explicitly.
                    if dep_ordered(&session.regions, ma, mb) {
                        continue;
                    }
                    let (ta, tb) =
                        (trees.get(&ka).expect("pinned"), trees.get(&kb).expect("pinned"));
                    if ta.node_count() == 0 || tb.node_count() == 0 {
                        continue;
                    }
                    stats.tree_pairs += 1;
                    let pair_stats = check_pair(
                        ta,
                        ma,
                        tb,
                        mb,
                        &CompareCtx { cache, tiers: &config.tiers },
                        races,
                        solver_hist,
                        sites.as_mut(),
                    );
                    stats.candidates += pair_stats.candidates;
                    stats.solver_calls += pair_stats.solver_calls;
                    stats.prescreened += pair_stats.prescreened;
                }
            }
            stats.compare_secs += t0.elapsed().as_secs_f64();
        }
    }
    Ok(())
}
