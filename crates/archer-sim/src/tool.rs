//! The ARCHER detector as an `ompsim` tool.

use std::collections::HashMap;
use std::sync::{Mutex, MutexGuard, PoisonError};

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use sword_obs::MemGauge;
use sword_ompsim::{ParallelBeginInfo, TaskCreateInfo, TaskUid, ThreadContext, Tool};
use sword_trace::{MemAccess, MutexId, PcId, PcTable, RegionId, ThreadId};

use crate::shadow::{ShadowWord, StoreOutcome, MODELED_BYTES_PER_WORD};
use crate::vc::VectorClock;
use crate::ShadowCell;

/// How a full shadow word picks its eviction victim.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum EvictionPolicy {
    /// Deterministic rotating cursor per word (default; reproducible
    /// tables).
    RoundRobin,
    /// Seeded pseudo-random victim, closer to TSan's behaviour (used by
    /// the eviction ablation bench).
    Random(u64),
}

/// ARCHER configuration.
#[derive(Clone, Debug)]
pub struct ArcherConfig {
    /// The paper's "flush shadow" option ("archer-low"): clear shadow
    /// memory between independent top-level parallel regions.
    pub flush_shadow: bool,
    /// Node memory budget in bytes: when baseline + modeled tool memory
    /// exceeds it, the run is marked OOM and detection stops (the process
    /// would have been killed). `None` disables the model.
    pub node_budget: Option<u64>,
    /// Shadow-cell eviction victim selection.
    pub eviction: EvictionPolicy,
    /// Live gauge of modeled tool memory (fixed arena + shadow words +
    /// vector clocks), updated on every accounting pass. Share a clone
    /// with a metrics registry so the Figure 6–8 memory rows read the
    /// same measured value the node model charges.
    pub mem_gauge: MemGauge,
}

impl Default for ArcherConfig {
    fn default() -> Self {
        ArcherConfig {
            flush_shadow: false,
            node_budget: None,
            eviction: EvictionPolicy::RoundRobin,
            mem_gauge: MemGauge::new(),
        }
    }
}

/// One deduplicated race report (unordered source-line pair).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ArcherRace {
    /// Smaller PC.
    pub pc_lo: PcId,
    /// Larger PC.
    pub pc_hi: PcId,
    /// Whether each side wrote (aligned with pc order).
    pub writes: (bool, bool),
    /// A racing address witness.
    pub addr: u64,
    /// Dynamic occurrences.
    pub occurrences: u64,
}

impl ArcherRace {
    /// Renders with resolved source locations.
    pub fn render(&self, pcs: &PcTable) -> String {
        format!(
            "archer race: {} (write={}) <-> {} (write={}) at {:#x} [seen {}x]",
            pcs.display(self.pc_lo),
            self.writes.0,
            pcs.display(self.pc_hi),
            self.writes.1,
            self.addr,
            self.occurrences
        )
    }
}

/// Modeled fixed footprint of the TSan-style engine at paper scale: the
/// runtime reserves its internal arenas (allocator regions, thread
/// registry, stack-trace storage) up front, before any application word
/// is shadowed. 16 MB is a conservative stand-in for TSan's fixed
/// reservation; it is what keeps ARCHER's memory above SWORD's bounded
/// buffers even on tiny benchmarks (the paper's Figure 6).
pub const ARCHER_FIXED_BYTES: u64 = 16 << 20;

/// Run statistics and memory accounting.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct ArcherStats {
    /// Accesses processed (drops after OOM are not counted).
    pub accesses: u64,
    /// Distinct application words with live shadow state.
    pub shadow_words: u64,
    /// Peak distinct shadow words over the run (survives flushes).
    pub peak_shadow_words: u64,
    /// Evictions performed — each one is potential §II information loss.
    pub evictions: u64,
    /// Shadow flushes (archer-low).
    pub flushes: u64,
    /// Modeled tool bytes at paper scale (peak): shadow words × 32 +
    /// vector-clock state.
    pub modeled_tool_bytes: u64,
    /// `true` when the node model killed the run.
    pub oom: bool,
    /// Distinct races found.
    pub races: u64,
}

impl ArcherStats {
    /// Total modeled tool memory at paper scale: the fixed runtime arena
    /// plus the footprint-proportional shadow/clock state. This is the
    /// quantity the figures plot and the node model charges.
    pub fn modeled_total_bytes(&self) -> u64 {
        ARCHER_FIXED_BYTES + self.modeled_tool_bytes
    }
}

struct ThreadState {
    vc: VectorClock,
    epoch: u64,
}

#[derive(Default)]
struct RegionSync {
    fork_vc: VectorClock,
    join_vc: VectorClock,
    level: u32,
}

#[derive(Default)]
struct BarrierSync {
    acc: VectorClock,
    adopted: u64,
    span: u64,
}

/// Per-task synchronization state, keyed by [`TaskUid`].
#[derive(Default)]
struct TaskSync {
    /// Creator's clock at the creation point (the task body's floor).
    create_vc: VectorClock,
    /// Predecessor tasks this one `depend`s on (uids — the runtime's
    /// pseudo-region ids double as task uids).
    preds: Vec<TaskUid>,
    /// Executing thread's clock when the body finished; joined by
    /// dependent successors at their begin and by the creator at the
    /// next task synchronization point.
    end_vc: Option<VectorClock>,
}

struct State {
    threads: HashMap<ThreadId, ThreadState>,
    locks: HashMap<MutexId, VectorClock>,
    regions: HashMap<RegionId, RegionSync>,
    barriers: HashMap<(RegionId, u32), BarrierSync>,
    tasks: HashMap<TaskUid, TaskSync>,
    shadow: HashMap<u64, ShadowWord>,
    races: HashMap<(PcId, PcId), ArcherRace>,
    rng: SmallRng,
    baseline_bytes: u64,
    baseline_source: Option<std::sync::Arc<std::sync::atomic::AtomicU64>>,
    stats: ArcherStats,
}

/// Locks the engine's state, poisoned or not: a callback that panicked
/// under the lock must not turn every later callback into a second panic.
fn lock<T: ?Sized>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(PoisonError::into_inner)
}

/// The ARCHER happens-before detector. Attach to an
/// [`sword_ompsim::OmpSim`] as its tool.
///
/// The engine serializes on one lock, like TSan's per-access shadow
/// synchronization collapsed to a single point — the (substantial) online
/// slowdown this causes is part of what the paper measures against.
pub struct ArcherTool {
    config: ArcherConfig,
    state: Mutex<State>,
}

impl ArcherTool {
    /// Creates a detector.
    pub fn new(config: ArcherConfig) -> Self {
        let seed = match config.eviction {
            EvictionPolicy::Random(seed) => seed,
            EvictionPolicy::RoundRobin => 0,
        };
        ArcherTool {
            config,
            state: Mutex::new(State {
                threads: HashMap::new(),
                locks: HashMap::new(),
                regions: HashMap::new(),
                barriers: HashMap::new(),
                tasks: HashMap::new(),
                shadow: HashMap::new(),
                races: HashMap::new(),
                rng: SmallRng::seed_from_u64(seed),
                baseline_bytes: 0,
                baseline_source: None,
                stats: ArcherStats::default(),
            }),
        }
    }

    /// Default configuration.
    pub fn with_defaults() -> Self {
        Self::new(ArcherConfig::default())
    }

    /// Declares the application's baseline footprint for the node-budget
    /// model (call after allocating workload buffers).
    pub fn set_baseline_bytes(&self, bytes: u64) {
        lock(&self.state).baseline_bytes = bytes;
    }

    /// Attaches a live baseline counter (e.g.
    /// `OmpSim::footprint_handle()`), so the node-budget model tracks the
    /// application footprint as it grows.
    pub fn attach_baseline_source(&self, source: std::sync::Arc<std::sync::atomic::AtomicU64>) {
        lock(&self.state).baseline_source = Some(source);
    }

    /// `true` once the node model has killed the run.
    pub fn is_oom(&self) -> bool {
        lock(&self.state).stats.oom
    }

    /// Deduplicated races sorted by source pair. Empty if the run OOMed
    /// before completion... exactly as a killed process reports nothing —
    /// races found *before* the kill are still returned, matching how a
    /// user would read partial tool output.
    pub fn races(&self) -> Vec<ArcherRace> {
        let state = lock(&self.state);
        let mut v: Vec<ArcherRace> = state.races.values().cloned().collect();
        v.sort_by_key(|r| (r.pc_lo, r.pc_hi));
        v
    }

    /// Run statistics.
    pub fn stats(&self) -> ArcherStats {
        let state = lock(&self.state);
        let mut stats = state.stats.clone();
        stats.shadow_words = state.shadow.len() as u64;
        stats.races = state.races.len() as u64;
        stats
    }

    /// Checks one access against the shadow cells of every word it
    /// touches and records it there. This is the engine's unit of work —
    /// the verdict depends on the order in which *different threads'*
    /// accesses arrive here — so the tool keeps [`Tool::max_run`] at 1 and
    /// its [`Tool::access`] hands each one-element run straight on.
    pub fn access(&self, ctx: &ThreadContext<'_>, access: MemAccess) {
        let mut state = lock(&self.state);
        if state.stats.oom {
            return; // the process was killed; nothing more is recorded
        }
        state.stats.accesses += 1;
        let tid = ctx.tid;
        let (vc, epoch) = {
            let ts = Self::thread_mut(&mut state, tid);
            (ts.vc.clone(), ts.epoch)
        };
        // Split the access into per-word byte ranges.
        let mut addr = access.addr;
        let mut remaining = access.size as u64;
        while remaining > 0 {
            let word = addr >> 3;
            let offset = (addr & 7) as u8;
            let len = remaining.min(8 - offset as u64) as u8;
            let victim = match self.config.eviction {
                EvictionPolicy::RoundRobin => None,
                EvictionPolicy::Random(_) => Some(state.rng.gen_range(0..crate::CELLS_PER_WORD)),
            };
            let entry = state.shadow.entry(word).or_default();
            // Race check against every retained cell.
            let mut found: Vec<(PcId, bool, u64)> = Vec::new();
            for cell in entry.cells() {
                let conflicting = cell.tid != tid
                    && cell.overlaps(offset, len)
                    && (cell.is_write || access.kind.is_write())
                    && !(cell.is_atomic && access.kind.is_atomic());
                if conflicting && (cell.epoch > vc.get(cell.tid)) {
                    found.push(((cell.pc), cell.is_write, (word << 3) + offset as u64));
                }
            }
            let outcome = entry
                .store(ShadowCell::new(tid, epoch, offset, len, access.kind, access.pc), victim);
            if outcome == StoreOutcome::Evicted {
                state.stats.evictions += 1;
            }
            for (other_pc, other_is_write, racy_addr) in found {
                let (lo, hi) = if access.pc <= other_pc {
                    (access.pc, other_pc)
                } else {
                    (other_pc, access.pc)
                };
                let writes = if access.pc <= other_pc {
                    (access.kind.is_write(), other_is_write)
                } else {
                    (other_is_write, access.kind.is_write())
                };
                state.races.entry((lo, hi)).and_modify(|r| r.occurrences += 1).or_insert(
                    ArcherRace { pc_lo: lo, pc_hi: hi, writes, addr: racy_addr, occurrences: 1 },
                );
            }
            addr += len as u64;
            remaining -= len as u64;
        }
        Self::account(&mut state, &self.config);
    }

    fn thread_mut(state: &mut State, tid: ThreadId) -> &mut ThreadState {
        state.threads.entry(tid).or_insert_with(|| {
            let mut vc = VectorClock::new();
            let epoch = vc.tick(tid);
            ThreadState { vc, epoch }
        })
    }

    fn tick(state: &mut State, tid: ThreadId) {
        let ts = Self::thread_mut(state, tid);
        ts.epoch = ts.vc.tick(tid);
    }

    /// Updates modeled memory and applies the node budget.
    fn account(state: &mut State, config: &ArcherConfig) {
        let words = state.shadow.len() as u64;
        if words > state.stats.peak_shadow_words {
            state.stats.peak_shadow_words = words;
        }
        let vc_bytes: u64 = state.threads.values().map(|t| t.vc.heap_bytes()).sum();
        let modeled = words * MODELED_BYTES_PER_WORD + vc_bytes;
        if modeled > state.stats.modeled_tool_bytes {
            state.stats.modeled_tool_bytes = modeled;
        }
        // The gauge tracks the figures' quantity (fixed arena included):
        // its live value falls on shadow flushes, its peak is what the
        // memory rows report.
        config.mem_gauge.set(ARCHER_FIXED_BYTES + modeled);
        if let Some(budget) = config.node_budget {
            let baseline = match &state.baseline_source {
                Some(src) => src.load(std::sync::atomic::Ordering::Relaxed),
                None => state.baseline_bytes,
            };
            if baseline + ARCHER_FIXED_BYTES + modeled > budget {
                state.stats.oom = true;
            }
        }
    }
}

impl Tool for ArcherTool {
    fn parallel_begin(&self, info: &ParallelBeginInfo<'_>) {
        let mut state = lock(&self.state);
        let fork_vc = {
            let ts = Self::thread_mut(&mut state, info.fork_tid);
            ts.vc.clone()
        };
        state.regions.insert(
            info.region,
            RegionSync { fork_vc, join_vc: VectorClock::new(), level: info.level },
        );
        Self::tick(&mut state, info.fork_tid);
    }

    fn parallel_end(&self, region: RegionId, fork_tid: ThreadId) {
        let mut state = lock(&self.state);
        if let Some(sync) = state.regions.remove(&region) {
            let join = sync.join_vc;
            let ts = Self::thread_mut(&mut state, fork_tid);
            ts.vc.join(&join);
            Self::tick(&mut state, fork_tid);
            // archer-low: release shadow pages between independent
            // top-level regions.
            if self.config.flush_shadow && sync.level == 1 {
                state.shadow.clear();
                state.shadow.shrink_to_fit();
                state.stats.flushes += 1;
            }
        }
    }

    fn thread_begin(&self, ctx: &ThreadContext<'_>) {
        let mut state = lock(&self.state);
        let fork_vc = state.regions.get(&ctx.region).map(|r| r.fork_vc.clone());
        let ts = Self::thread_mut(&mut state, ctx.tid);
        if let Some(fork_vc) = fork_vc {
            ts.vc.join(&fork_vc);
        }
        Self::tick(&mut state, ctx.tid);
    }

    fn thread_end(&self, ctx: &ThreadContext<'_>) {
        let mut state = lock(&self.state);
        let vc = Self::thread_mut(&mut state, ctx.tid).vc.clone();
        if let Some(sync) = state.regions.get_mut(&ctx.region) {
            sync.join_vc.join(&vc);
        }
        Self::tick(&mut state, ctx.tid);
    }

    fn barrier_begin(&self, ctx: &ThreadContext<'_>) {
        let mut state = lock(&self.state);
        let vc = Self::thread_mut(&mut state, ctx.tid).vc.clone();
        let sync = state.barriers.entry((ctx.region, ctx.bid)).or_insert_with(|| BarrierSync {
            acc: VectorClock::new(),
            adopted: 0,
            span: ctx.span,
        });
        sync.acc.join(&vc);
    }

    fn barrier_end(&self, ctx: &ThreadContext<'_>) {
        let mut state = lock(&self.state);
        // `ctx.bid` was already advanced past the barrier we crossed.
        let key = (ctx.region, ctx.bid - 1);
        let (acc, done) = match state.barriers.get_mut(&key) {
            Some(sync) => {
                sync.adopted += 1;
                (sync.acc.clone(), sync.adopted == sync.span)
            }
            None => return,
        };
        if done {
            state.barriers.remove(&key);
        }
        let ts = Self::thread_mut(&mut state, ctx.tid);
        ts.vc.join(&acc);
        Self::tick(&mut state, ctx.tid);
    }

    fn task_create(&self, outer: &ThreadContext<'_>, info: &TaskCreateInfo<'_>) {
        let mut state = lock(&self.state);
        let create_vc = Self::thread_mut(&mut state, outer.tid).vc.clone();
        state
            .tasks
            .insert(info.uid, TaskSync { create_vc, preds: info.preds.to_vec(), end_vc: None });
        Self::tick(&mut state, outer.tid);
    }

    fn task_begin(&self, _outer: &ThreadContext<'_>, task: &ThreadContext<'_>, uid: TaskUid) {
        let mut state = lock(&self.state);
        // The body's clock floor: the creation point joined with every
        // `depend` predecessor's completion.
        let mut floor = match state.tasks.get(&uid) {
            Some(sync) => sync.create_vc.clone(),
            None => VectorClock::new(),
        };
        let preds: Vec<TaskUid> =
            state.tasks.get(&uid).map(|s| s.preds.clone()).unwrap_or_default();
        for pred in preds {
            if let Some(end) = state.tasks.get(&pred).and_then(|s| s.end_vc.as_ref()) {
                floor.join(end);
            }
        }
        let ts = Self::thread_mut(&mut state, task.tid);
        ts.vc.join(&floor);
        Self::tick(&mut state, task.tid);
    }

    fn task_end(&self, task: &ThreadContext<'_>, _outer: &ThreadContext<'_>, uid: TaskUid) {
        let mut state = lock(&self.state);
        let end_vc = Self::thread_mut(&mut state, task.tid).vc.clone();
        if let Some(sync) = state.tasks.get_mut(&uid) {
            sync.end_vc = Some(end_vc);
        }
        Self::tick(&mut state, task.tid);
        // The creator does NOT adopt the body's clock here — the
        // continuation stays concurrent with the task until a taskwait,
        // taskgroup end, or barrier joins it.
    }

    fn task_sync(&self, restored: &ThreadContext<'_>, synced: &[TaskUid]) {
        let mut state = lock(&self.state);
        let mut acc = VectorClock::new();
        for uid in synced {
            // Synced tasks never get referenced again (depend edges do
            // not cross a task synchronization point), so drop them.
            if let Some(end) = state.tasks.remove(uid).and_then(|s| s.end_vc) {
                acc.join(&end);
            }
        }
        let ts = Self::thread_mut(&mut state, restored.tid);
        ts.vc.join(&acc);
        Self::tick(&mut state, restored.tid);
    }

    fn mutex_acquired(&self, ctx: &ThreadContext<'_>, mutex: MutexId) {
        let mut state = lock(&self.state);
        let lock_vc = state.locks.get(&mutex).cloned();
        let ts = Self::thread_mut(&mut state, ctx.tid);
        if let Some(lock_vc) = lock_vc {
            ts.vc.join(&lock_vc);
        }
        Self::tick(&mut state, ctx.tid);
    }

    fn mutex_released(&self, ctx: &ThreadContext<'_>, mutex: MutexId) {
        let mut state = lock(&self.state);
        let vc = Self::thread_mut(&mut state, ctx.tid).vc.clone();
        state.locks.entry(mutex).and_modify(|l| l.join(&vc)).or_insert(vc);
        Self::tick(&mut state, ctx.tid);
    }

    fn access(&self, ctx: &ThreadContext<'_>, run: &[MemAccess]) {
        for &access in run {
            ArcherTool::access(self, ctx, access); // the inherent one
        }
    }
}
