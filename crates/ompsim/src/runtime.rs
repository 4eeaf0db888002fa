//! The fork-join runtime: regions, teams, barriers, worksharing, locks,
//! and instrumented access dispatch.

use std::cell::{Cell, RefCell};
use std::collections::HashMap;
use std::ops::Range;
use std::panic::Location;
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};

use sword_osl::{Label, TASK_SPAN};
use sword_trace::{AccessKind, MemAccess, MutexId, PcId, PcTable, RegionId, ThreadId};

use crate::lock;
use crate::memory::{TrackedBuf, TrackedValue};
use crate::team_pool::{fits_machine, Parking, TeamPool};
use crate::tool::{ParallelBeginInfo, TaskCreateInfo, TaskUid, ThreadContext, Tool, ToolLocal};

/// Access mode of a task `depend` clause.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum DepMode {
    /// `depend(in: v)`.
    In,
    /// `depend(out: v)`.
    Out,
    /// `depend(inout: v)`.
    InOut,
}

impl DepMode {
    /// Two clauses on the same variable conflict unless both only read.
    pub fn conflicts(self, other: DepMode) -> bool {
        !(self == DepMode::In && other == DepMode::In)
    }
}

/// Deterministic model of `schedule(dynamic, chunk)` chunk assignment:
/// chunks are claimed round-robin in grab order — grab `g` covers the
/// `g`-th chunk of the range and goes to team slot `g % span`. Shared by
/// the runtime's pinned loops ([`Ctx::for_dynamic_pinned`]) and the fuzz
/// generator's ground-truth oracle, so both sides agree on which thread
/// touched which iteration. (The free-running [`Ctx::for_dynamic`] keeps
/// its real contended cursor; the pinned contract covers chunking
/// effects, not cursor timing.)
pub fn dynamic_chunks(range: Range<u64>, chunk: u64, span: u64) -> Vec<(u64, Range<u64>)> {
    assert!(chunk > 0 && span > 0);
    let mut out = Vec::new();
    let mut start = range.start;
    let mut grab = 0u64;
    while start < range.end {
        let end = (start + chunk).min(range.end);
        out.push((grab % span, start..end));
        grab += 1;
        start = end;
    }
    out
}

/// Deterministic model of `schedule(guided, min_chunk)`: grab `g` takes
/// `max(min_chunk, remaining / span)` iterations (the classic decreasing
/// formula) and goes to slot `g % span`. Same sharing contract as
/// [`dynamic_chunks`].
pub fn guided_chunks(range: Range<u64>, min_chunk: u64, span: u64) -> Vec<(u64, Range<u64>)> {
    assert!(min_chunk > 0 && span > 0);
    let mut out = Vec::new();
    let mut start = range.start;
    let mut grab = 0u64;
    while start < range.end {
        let remaining = range.end - start;
        let size = (remaining / span).max(min_chunk).min(remaining);
        out.push((grab % span, start..start + size));
        grab += 1;
        start += size;
    }
    out
}

/// Runtime configuration.
#[derive(Clone, Debug)]
pub struct SimConfig {
    /// First virtual address handed to tracked buffers.
    pub addr_base: u64,
}

impl Default for SimConfig {
    fn default() -> Self {
        SimConfig { addr_base: 0x1000_0000 }
    }
}

/// A named or anonymous lock usable with [`Ctx::with_lock`] — the
/// equivalent of an `omp_lock_t` / named `critical`.
#[derive(Clone, Debug)]
pub struct OmpLock {
    id: MutexId,
    lock: Arc<Mutex<()>>,
}

impl OmpLock {
    /// The lock's id as reported to tools.
    pub fn id(&self) -> MutexId {
        self.id
    }
}

#[derive(Default)]
struct MutexRegistry {
    by_name: HashMap<String, usize>,
    locks: Vec<OmpLock>,
}

/// The OpenMP-like runtime. One instance models one process running one
/// instrumented program; tools are attached at construction.
pub struct OmpSim {
    tool: Option<Arc<dyn Tool>>,
    /// [`Tool::max_run`] of `tool`, asked once when it was attached (0
    /// untooled): how many accesses a context holds back before it
    /// delivers them.
    run_len: usize,
    next_tid: AtomicU32,
    tid_pool: Mutex<Vec<ThreadId>>,
    next_region: AtomicU64,
    next_addr: AtomicU64,
    footprint: Arc<AtomicU64>,
    peak_footprint: AtomicU64,
    pc_table: Mutex<PcTable>,
    mutexes: Mutex<MutexRegistry>,
    /// The OS threads team slots `1..` run on, parked between regions.
    pool: TeamPool,
}

impl OmpSim {
    /// An untooled runtime (baseline runs) with default config.
    pub fn new() -> Self {
        Self::with_config(SimConfig::default())
    }

    /// An untooled runtime with explicit config.
    pub fn with_config(config: SimConfig) -> Self {
        OmpSim {
            tool: None,
            run_len: 0,
            next_tid: AtomicU32::new(0),
            tid_pool: Mutex::new(Vec::new()),
            next_region: AtomicU64::new(0),
            next_addr: AtomicU64::new(config.addr_base),
            footprint: Arc::new(AtomicU64::new(0)),
            peak_footprint: AtomicU64::new(0),
            pc_table: Mutex::new(PcTable::new()),
            mutexes: Mutex::new(MutexRegistry::default()),
            pool: TeamPool::default(),
        }
    }

    /// A tooled runtime.
    pub fn with_tool(tool: Arc<dyn Tool>) -> Self {
        Self::with_tool_and_config(tool, SimConfig::default())
    }

    /// A tooled runtime with explicit config.
    pub fn with_tool_and_config(tool: Arc<dyn Tool>, config: SimConfig) -> Self {
        let mut sim = Self::with_config(config);
        sim.run_len = tool.max_run().max(1);
        sim.tool = Some(tool);
        sim
    }

    /// Runs the instrumented program `f` under this runtime. The closure
    /// receives the master (sequential) context; parallel regions are
    /// opened from it.
    pub fn run<R>(&self, f: impl FnOnce(&Ctx<'_>) -> R) -> R {
        if let Some(t) = &self.tool {
            t.program_begin();
        }
        let master_tid = self.acquire_tids(1)[0];
        let ctx = Ctx::new(self, master_tid, Label::root(), None, None);
        let r = f(&ctx);
        self.release_tids(&[master_tid]);
        if let Some(t) = &self.tool {
            t.program_end();
        }
        r
    }

    /// Allocates a tracked buffer of `len` elements, fully backed.
    pub fn alloc<T: TrackedValue>(&self, len: u64, init: T) -> TrackedBuf<T> {
        assert!(len > 0, "tracked buffer needs at least one element");
        self.alloc_phantom(len, len as usize, init)
    }

    /// Allocates a tracked buffer with `declared_len` virtual elements
    /// backed by `real_len` physical ones (indices wrap onto the backing).
    /// Use for workloads whose declared footprint must exceed physical
    /// RAM — the address stream and footprint accounting see the full
    /// declared size.
    pub fn alloc_phantom<T: TrackedValue>(
        &self,
        declared_len: u64,
        real_len: usize,
        init: T,
    ) -> TrackedBuf<T> {
        let bytes = declared_len * T::SIZE_BYTES as u64;
        // 64-byte-aligned virtual placements keep buffers disjoint and
        // cache-line-shaped like real allocators.
        let padded = (bytes + 63) & !63;
        let base = self.next_addr.fetch_add(padded, Ordering::Relaxed);
        let buf =
            TrackedBuf::new_internal(base, declared_len, real_len, init, self.footprint.clone());
        self.peak_footprint.fetch_max(self.footprint.load(Ordering::Relaxed), Ordering::Relaxed);
        buf
    }

    /// Currently live declared footprint in bytes (the application
    /// "baseline memory" of the paper's figures).
    pub fn declared_footprint(&self) -> u64 {
        self.footprint.load(Ordering::Relaxed)
    }

    /// Live handle to the declared-footprint counter, for tools that model
    /// node memory pressure against the application baseline (the ARCHER
    /// baseline's OOM model reads it on every accounting step).
    pub fn footprint_handle(&self) -> Arc<AtomicU64> {
        Arc::clone(&self.footprint)
    }

    /// High-water mark of the declared footprint.
    pub fn peak_footprint(&self) -> u64 {
        self.peak_footprint.load(Ordering::Relaxed)
    }

    /// Number of distinct worker threads (= log files) used so far.
    pub fn threads_used(&self) -> u32 {
        self.next_tid.load(Ordering::Relaxed)
    }

    /// OS threads the team pool has spawned so far.
    #[cfg(test)]
    pub(crate) fn pool_threads(&self) -> usize {
        self.pool.threads_spawned()
    }

    /// Gets or creates the named lock backing `critical(name)` sections.
    pub fn named_lock(&self, name: &str) -> OmpLock {
        let mut reg = lock(&self.mutexes);
        if let Some(&idx) = reg.by_name.get(name) {
            return reg.locks[idx].clone();
        }
        let idx = reg.locks.len();
        let lock = OmpLock { id: idx as MutexId, lock: Arc::new(Mutex::new(())) };
        reg.by_name.insert(name.to_string(), idx);
        reg.locks.push(lock.clone());
        lock
    }

    /// Creates a fresh anonymous lock (an `omp_init_lock` equivalent).
    pub fn new_lock(&self) -> OmpLock {
        let mut reg = lock(&self.mutexes);
        let id = reg.locks.len() as MutexId;
        let lock = OmpLock { id, lock: Arc::new(Mutex::new(())) };
        reg.locks.push(lock.clone());
        lock
    }

    /// Snapshot of the program-counter table for session persistence.
    pub fn export_pcs(&self) -> PcTable {
        lock(&self.pc_table).clone()
    }

    /// Interns a synthetic source location and returns its id.
    ///
    /// Programs executed through an interpreter (the fuzz generator's
    /// driver, for instance) have no distinct Rust call sites — every
    /// access would collapse onto the interpreter's one `read`/`write`
    /// line. Such callers intern one virtual site per *program* statement
    /// up front and attribute accesses through the `*_pc` methods of
    /// [`Ctx`], so race reports keep per-statement identities.
    pub fn intern_site(&self, file: &str, line: u32) -> PcId {
        lock(&self.pc_table).intern(file, line)
    }

    fn intern_pc(&self, loc: &'static Location<'static>) -> PcId {
        lock(&self.pc_table).intern(loc.file(), loc.line())
    }

    /// Hands out `n` thread ids deterministically: pooled ids first
    /// (ascending), fresh ids after — so consecutive same-width regions
    /// reuse the same ids, as a real OpenMP thread pool does.
    fn acquire_tids(&self, n: u64) -> Vec<ThreadId> {
        let mut pool = lock(&self.tid_pool);
        pool.sort_unstable();
        let take = (n as usize).min(pool.len());
        let mut ids: Vec<ThreadId> = pool.drain(..take).collect();
        while ids.len() < n as usize {
            ids.push(self.next_tid.fetch_add(1, Ordering::Relaxed));
        }
        ids
    }

    fn release_tids(&self, ids: &[ThreadId]) {
        lock(&self.tid_pool).extend_from_slice(ids);
    }
}

impl Default for OmpSim {
    fn default() -> Self {
        Self::new()
    }
}

impl std::fmt::Debug for OmpSim {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("OmpSim")
            .field("tooled", &self.tool.is_some())
            .field("threads_used", &self.threads_used())
            .field("declared_footprint", &self.declared_footprint())
            .finish()
    }
}

/// The serialization protocol behind `ordered` clauses: one instance per
/// worksharing loop, shared by the team. An ordered block for iteration
/// `i` waits until every lower iteration's block has run, executes under
/// the loop's synthetic lock (so tools see the mutual exclusion through
/// the ordinary mutex callbacks), and then opens iteration `i + 1`'s
/// turn.
///
/// Detectors treat the synthetic lock like any other mutex: two ordered
/// blocks of one loop can never race. The *transitive* happens-before an
/// ordered chain also induces (block `i` → everything block `j > i` does
/// afterwards) is deliberately not modeled — a lock is an
/// over-approximation of concurrency there, applied identically by SWORD,
/// the fuzz oracle, and (more precisely, via its lock clocks) ARCHER.
pub struct OrderedLoop {
    next: Mutex<u64>,
    cv: Condvar,
    lock: OmpLock,
}

impl OrderedLoop {
    /// A protocol starting at iteration `start`, serialized by `lock`.
    /// Callers that need deterministic lock ids (the fuzz interpreter)
    /// pre-create the lock; the high-level loops allocate one lazily.
    pub fn new(start: u64, lock: OmpLock) -> Self {
        OrderedLoop { next: Mutex::new(start), cv: Condvar::new(), lock }
    }

    /// The synthetic lock's id as reported to tools.
    pub fn lock_id(&self) -> MutexId {
        self.lock.id()
    }
}

/// Team-shared state: the physical barrier, dynamic-loop cursors, and
/// ordered-loop protocols.
struct TeamState {
    span: u64,
    /// Members that have reached the current barrier.
    arrived: AtomicU64,
    /// Barriers completed so far; what a waiting member watches.
    generation: AtomicU64,
    /// Set when a member died: the barrier can never complete again.
    aborted: AtomicBool,
    barrier: Parking,
    dyn_loops: Mutex<HashMap<u64, Arc<AtomicU64>>>,
    guided_loops: Mutex<HashMap<u64, Arc<Mutex<u64>>>>,
    ordered_loops: Mutex<HashMap<u64, Arc<OrderedLoop>>>,
}

impl TeamState {
    fn new(span: u64) -> Self {
        TeamState {
            span,
            arrived: AtomicU64::new(0),
            generation: AtomicU64::new(0),
            aborted: AtomicBool::new(false),
            barrier: Parking::default(),
            dyn_loops: Mutex::new(HashMap::new()),
            guided_loops: Mutex::new(HashMap::new()),
            ordered_loops: Mutex::new(HashMap::new()),
        }
    }

    /// Generation-counting rendezvous of all `span` members. The last
    /// arrival clears the count before it opens the next generation, so
    /// no member can arrive at the following barrier ahead of the reset.
    fn wait(&self) {
        let gen = self.generation.load(Ordering::SeqCst);
        if self.arrived.fetch_add(1, Ordering::SeqCst) + 1 == self.span {
            self.arrived.store(0, Ordering::SeqCst);
            self.generation.store(gen + 1, Ordering::SeqCst);
            self.barrier.wake();
            return;
        }
        self.barrier.wait(fits_machine(self.span), || {
            self.generation.load(Ordering::SeqCst) != gen || self.aborted.load(Ordering::SeqCst)
        });
        if self.generation.load(Ordering::SeqCst) == gen {
            panic!("a teammate panicked; leaving the barrier");
        }
    }

    /// Releases every member that waits, or will wait, for one that died.
    fn abort(&self) {
        self.aborted.store(true, Ordering::SeqCst);
        self.barrier.wake();
    }

    /// Shared cursor for the `key`-th dynamic loop of the region.
    fn dyn_cursor(&self, key: u64, start: u64) -> Arc<AtomicU64> {
        let mut map = lock(&self.dyn_loops);
        map.entry(key).or_insert_with(|| Arc::new(AtomicU64::new(start))).clone()
    }

    /// Shared cursor for the `key`-th guided loop (mutex-guarded so the
    /// decreasing chunk size is computed atomically with the claim).
    fn guided_cursor(&self, key: u64, start: u64) -> Arc<Mutex<u64>> {
        let mut map = lock(&self.guided_loops);
        map.entry(key).or_insert_with(|| Arc::new(Mutex::new(start))).clone()
    }

    /// Shared ordered-loop protocol for the `key`-th ordered loop.
    fn ordered_loop(
        &self,
        key: u64,
        start: u64,
        mk_lock: impl FnOnce() -> OmpLock,
    ) -> Arc<OrderedLoop> {
        let mut map = lock(&self.ordered_loops);
        map.entry(key).or_insert_with(|| Arc::new(OrderedLoop::new(start, mk_lock()))).clone()
    }
}

/// Aborts the team's barrier when the member holding it unwinds.
struct AbortOnPanic<'a>(&'a TeamState);

impl Drop for AbortOnPanic<'_> {
    fn drop(&mut self) {
        if std::thread::panicking() {
            self.0.abort();
        }
    }
}

struct RegionInfo {
    region: RegionId,
    parent_region: Option<RegionId>,
    level: u32,
    team_index: u64,
    span: u64,
    bid: Cell<u32>,
    team: Arc<TeamState>,
    dyn_loop_seq: Cell<u64>,
    ordered_loop_seq: Cell<u64>,
    /// `true` for the synthetic context a task body runs under; bars
    /// non-conforming nesting (barriers, child tasks) loudly.
    is_task: bool,
}

/// One outstanding (created, not yet synchronized) child task.
struct TaskRec {
    uid: TaskUid,
    deps: Vec<(u64, DepMode)>,
}

/// An open `taskgroup` scope: where the outstanding list stood at entry,
/// plus the label and row identity to restore at group end.
struct GroupFrame {
    mark: usize,
    entry_label: Label,
    entry_row: (RegionId, u32),
}

/// Per-worker explicit-task bookkeeping. `base` is the label at the top
/// of the current barrier interval — the restore target of `taskwait`;
/// `cur_row` identifies the meta row the worker is currently logging
/// under, which leaves the real region's `(pid, bid)` while a task-fork
/// chain is open (continuation rows log under the task pseudo-region).
struct TaskState {
    base: Label,
    cur_row: (RegionId, u32),
    outstanding: Vec<TaskRec>,
    groups: Vec<GroupFrame>,
}

impl TaskState {
    fn new(base: Label, region: RegionId) -> Self {
        TaskState { base, cur_row: (region, 0), outstanding: Vec::new(), groups: Vec::new() }
    }
}

/// Per-thread execution context. The master context (from
/// [`OmpSim::run`]) is sequential; worker contexts live inside parallel
/// regions. All workload code runs against a `Ctx`.
pub struct Ctx<'rt> {
    sim: &'rt OmpSim,
    tid: ThreadId,
    label: RefCell<Label>,
    region: Option<RegionInfo>,
    /// Number of nested regions this thread has forked (and joined) so
    /// far. Each fork's label is `label · [fork_seq, 1]` — see
    /// [`Label::fork_point`]: the span-1 pair orders this thread's
    /// successive teams without making the join look like a barrier
    /// crossing to sibling members.
    fork_seq: Cell<u64>,
    /// Call sites this context has resolved, keyed by the `Location`'s
    /// `(file pointer, line)`.
    pc_cache: RefCell<HashMap<SiteKey, PcId>>,
    /// Direct-mapped front of `pc_cache`: the handful of sites a loop body
    /// cycles through resolve with one compare, no hash and no borrow.
    site_cache: [Cell<(SiteKey, PcId)>; SITE_CACHE_SLOTS],
    /// Explicit-task chain state; `Some` only for team workers (the
    /// master context and task bodies create no traced tasks).
    task_state: RefCell<Option<TaskState>>,
    /// The tool's per-context slot (OMPT `thread_data`).
    tool_data: ToolLocal,
    /// Accesses issued since this context's last tool callback and not
    /// yet delivered: at most [`Tool::max_run`] of them, in issue order.
    /// Allocated once, at that capacity, for contexts inside a region.
    /// Everything a callback can see of the context (label, interval,
    /// row identity) is the same for the whole run, because every change
    /// to it goes through [`Ctx::deliver_run`] first.
    run: RefCell<Vec<MemAccess>>,
}

/// A call site as `#[track_caller]` identifies it: the address of the
/// `Location`'s file string and the line. No real site has address 0,
/// which is what marks an unused `site_cache` slot.
type SiteKey = (usize, u32);

/// Slots of the direct-mapped site cache (a power of two). Sites of one
/// file fewer than this many lines apart never evict each other.
const SITE_CACHE_SLOTS: usize = 32;

impl<'rt> Ctx<'rt> {
    fn new(
        sim: &'rt OmpSim,
        tid: ThreadId,
        label: Label,
        region: Option<RegionInfo>,
        task_state: Option<TaskState>,
    ) -> Self {
        let run_len = if region.is_some() { sim.run_len } else { 0 };
        Ctx {
            sim,
            tid,
            label: RefCell::new(label),
            region,
            fork_seq: Cell::new(0),
            pc_cache: RefCell::new(HashMap::new()),
            site_cache: std::array::from_fn(|_| Cell::new(((0, 0), 0))),
            task_state: RefCell::new(task_state),
            tool_data: ToolLocal::new(),
            run: RefCell::new(Vec::with_capacity(run_len)),
        }
    }

    /// The runtime this context belongs to.
    pub fn sim(&self) -> &'rt OmpSim {
        self.sim
    }

    /// This thread's global id.
    pub fn tid(&self) -> ThreadId {
        self.tid
    }

    /// This thread's slot in its team (0 for the master context).
    pub fn team_index(&self) -> u64 {
        self.region.as_ref().map_or(0, |r| r.team_index)
    }

    /// Team size (1 for the master context).
    pub fn team_size(&self) -> u64 {
        self.region.as_ref().map_or(1, |r| r.span)
    }

    /// `true` inside a parallel region.
    pub fn in_parallel(&self) -> bool {
        self.region.is_some()
    }

    /// Current offset-span label (clone).
    pub fn label(&self) -> Label {
        self.label.borrow().clone()
    }

    // ---- regions ----------------------------------------------------------

    /// Forks a parallel region of `num_threads` members, runs `body` in
    /// each, and joins (the implicit end-of-region barrier coincides with
    /// the join). Members are team slots `0..num_threads`, each under a
    /// fresh context with a pooled thread id. As an OpenMP master does,
    /// the forking OS thread runs slot 0 itself — under that slot's own
    /// context and id, not the forker's; slots `1..` run on the runtime's
    /// parked pool threads. A panic in a member is raised again here,
    /// with its own message, once every member has left the region.
    pub fn parallel<F>(&self, num_threads: usize, body: F)
    where
        F: Fn(&Ctx<'rt>) + Sync,
    {
        let span = num_threads.max(1) as u64;
        let region = self.sim.next_region.fetch_add(1, Ordering::Relaxed);
        let (parent_region, level) = match &self.region {
            Some(r) => (Some(r.region), r.level + 1),
            None => (None, 1),
        };
        let fork_label = self.label.borrow().fork_point(self.fork_seq.get());
        // What the forker issued so far comes before its fork.
        self.deliver_run();
        if let Some(t) = &self.sim.tool {
            t.parallel_begin(&ParallelBeginInfo {
                region,
                parent_region,
                level,
                span,
                fork_label: &fork_label,
                fork_tid: self.tid,
            });
        }
        let tids = self.sim.acquire_tids(span);
        let team = Arc::new(TeamState::new(span));
        let sim = self.sim;
        let run_slot = |i: u64| {
            let worker_label = fork_label.fork(i, span);
            let ctx = Ctx::new(
                sim,
                tids[i as usize],
                worker_label.clone(),
                Some(RegionInfo {
                    region,
                    parent_region,
                    level,
                    team_index: i,
                    span,
                    bid: Cell::new(0),
                    team: Arc::clone(&team),
                    dyn_loop_seq: Cell::new(0),
                    ordered_loop_seq: Cell::new(0),
                    is_task: false,
                }),
                Some(TaskState::new(worker_label, region)),
            );
            // A member that dies never reaches the team's next barrier:
            // its teammates must leave it too, or the join waits forever.
            let _abort = AbortOnPanic(&team);
            ctx.with_tool(|t, tc| t.thread_begin(tc));
            body(&ctx);
            // The implicit end-of-region barrier is a task scheduling
            // point: outstanding children synchronize before the
            // worker's last interval closes.
            ctx.implicit_task_sync();
            ctx.with_tool(|t, tc| t.thread_end(tc));
        };
        sim.pool.fork(span, &run_slot);
        self.sim.release_tids(&tids);
        // The join orders this thread's next fork after the finished team
        // via the fork-sequence component; the thread's own label must NOT
        // bump — a join is not a barrier, and bumping here would make this
        // thread's later subtrees look barrier-ordered against *sibling*
        // members' accesses in the offline analysis.
        self.fork_seq.set(self.fork_seq.get() + 1);
        if let Some(t) = &self.sim.tool {
            t.parallel_end(region, self.tid);
        }
    }

    /// `#pragma omp target teams parallel` equivalent — the paper's
    /// future-work item ("extend SWORD's approach to target regions that
    /// are offloaded on accelerators"), realized here for the synchronous
    /// offload case: the device region is a nested fork-join team whose
    /// completion the host awaits, so offset-span labels order it exactly
    /// like a nested parallel region and both detectors handle it with no
    /// special cases. Device threads draw from the same pooled id space
    /// (one log file per device thread).
    pub fn target<F>(&self, device_threads: usize, body: F)
    where
        F: Fn(&Ctx<'rt>) + Sync,
    {
        self.parallel(device_threads, body);
    }

    // ---- barriers ---------------------------------------------------------

    /// Explicit team barrier (`#pragma omp barrier`). A no-op in the
    /// master (sequential) context.
    pub fn barrier(&self) {
        let Some(r) = &self.region else { return };
        assert!(!r.is_task, "barrier inside an explicit task is non-conforming");
        // A barrier is a task scheduling point with an implied taskwait:
        // outstanding children synchronize before the interval closes.
        self.implicit_task_sync();
        self.with_tool(|t, tc| t.barrier_begin(tc));
        r.team.wait();
        self.label.borrow_mut().bump_in_place();
        r.bid.set(r.bid.get() + 1);
        if let Some(ts) = self.task_state.borrow_mut().as_mut() {
            ts.base = self.label.borrow().clone();
            ts.cur_row = (r.region, r.bid.get());
        }
        self.with_tool(|t, tc| t.barrier_end(tc));
    }

    // ---- explicit tasks ---------------------------------------------------

    /// `#pragma omp task` without dependences. See [`Ctx::task_depend`].
    pub fn task(&self, body: impl FnOnce(&Ctx<'rt>)) {
        self.task_depend(&[], body);
    }

    /// `#pragma omp task depend(...)`: creates an explicit task whose body
    /// runs under its own context (fresh logical thread id, own log file,
    /// task pseudo-region labeled `L·[e,1]·[1,TASK_SPAN]` off the
    /// creator's current label `L`), then resumes the creator under the
    /// continuation label `L·[e,1]·[0,TASK_SPAN]`.
    ///
    /// Tasks execute *eagerly on the creating thread* — as if every task
    /// carried an `if(0)` clause making it undeferred. The trace still
    /// encodes the task as logically concurrent with the continuation and
    /// with sibling threads, which is the only thing the label-based and
    /// clock-based detectors analyze; serializing the physical execution
    /// makes runs (and therefore sessions, oracles, and pinned corpus
    /// reproducers) deterministic. Restrictions, enforced loudly: task
    /// bodies create no tasks and cross no barriers.
    ///
    /// `deps` are `(variable, mode)` clauses; predecessors are the earlier
    /// still-outstanding siblings with a conflicting clause on the same
    /// variable. They are recorded on the task's pseudo-region record —
    /// dependences are an arbitrary partial order the offset-span labels
    /// cannot express, so the analyzers layer them above the labels.
    pub fn task_depend(&self, deps: &[(u64, DepMode)], body: impl FnOnce(&Ctx<'rt>)) {
        let Some(r) = &self.region else {
            // Outside a parallel region a task is immediate sequential
            // code, like any other uninstrumented construct.
            body(self);
            return;
        };
        assert!(!r.is_task, "nested task creation (a task spawning tasks) is not modeled");
        let e = self.fork_seq.get();
        self.fork_seq.set(e + 1);
        let pid = self.sim.next_region.fetch_add(1, Ordering::Relaxed);
        let uid: TaskUid = pid;
        // Fresh id, never pooled: a reused id could alias the task's log
        // with a logically concurrent entity and mask real races.
        let task_tid = self.sim.next_tid.fetch_add(1, Ordering::Relaxed);
        let fork_label = self.label.borrow().task_fork(e);
        let task_label = fork_label.fork(1, TASK_SPAN);
        let cont_label = fork_label.fork(0, TASK_SPAN);
        let preds: Vec<RegionId> = {
            let ts = self.task_state.borrow();
            let ts = ts.as_ref().expect("workers carry task state");
            ts.outstanding
                .iter()
                .filter(|t| {
                    t.deps
                        .iter()
                        .any(|(v, m)| deps.iter().any(|(v2, m2)| v == v2 && m.conflicts(*m2)))
                })
                .map(|t| t.uid)
                .collect()
        };
        let info = TaskCreateInfo {
            uid,
            region: pid,
            parent_region: r.region,
            level: r.level + 1,
            preds: &preds,
            fork_label: &fork_label,
            creator_tid: self.tid,
        };
        self.with_tool(|t, tc| t.task_create(tc, &info));
        let task_ctx = Ctx::new(
            self.sim,
            task_tid,
            task_label.clone(),
            Some(RegionInfo {
                region: pid,
                parent_region: Some(r.region),
                level: r.level + 1,
                team_index: 1,
                span: TASK_SPAN,
                bid: Cell::new(0),
                team: Arc::clone(&r.team),
                dyn_loop_seq: Cell::new(0),
                ordered_loop_seq: Cell::new(0),
                is_task: true,
            }),
            None,
        );
        if let Some(tool) = &self.sim.tool {
            let outer_label = self.label.borrow();
            let outer_tc = self.make_tc(r, &outer_label);
            let task_r = task_ctx.region.as_ref().expect("task ctx has a region");
            let task_tc = task_ctx.make_tc(task_r, &task_label);
            tool.task_begin(&outer_tc, &task_tc, uid);
        }
        body(&task_ctx);
        task_ctx.deliver_run();
        // The body may have issued accesses through the creator's context
        // too: they belong to the label the continuation is about to leave.
        self.deliver_run();
        *self.label.borrow_mut() = cont_label.clone();
        {
            let mut ts = self.task_state.borrow_mut();
            let ts = ts.as_mut().expect("workers carry task state");
            ts.cur_row = (pid, 0);
            ts.outstanding.push(TaskRec { uid, deps: deps.to_vec() });
        }
        if let Some(tool) = &self.sim.tool {
            let task_r = task_ctx.region.as_ref().expect("task ctx has a region");
            let task_tc = task_ctx.make_tc(task_r, &task_label);
            let cont_tc = self.make_tc(r, &cont_label);
            tool.task_end(&task_tc, &cont_tc, uid);
        }
    }

    /// `#pragma omp taskwait`: children created since the last sync are
    /// complete (they ran eagerly); the label chain collapses back to the
    /// interval base so code after the wait is ordered after every child.
    pub fn taskwait(&self) {
        self.implicit_task_sync();
    }

    /// `#pragma omp taskgroup`: runs `body` (which may create tasks) and
    /// waits for the tasks created inside the group — a *partial* restore
    /// of the label chain to the group-entry label, so post-group code is
    /// ordered after group tasks but stays concurrent with tasks that
    /// were already outstanding at entry.
    pub fn taskgroup(&self, body: impl FnOnce(&Ctx<'rt>)) {
        let Some(r) = &self.region else {
            body(self);
            return;
        };
        assert!(!r.is_task, "taskgroup inside an explicit task is not modeled");
        {
            let mut ts = self.task_state.borrow_mut();
            let ts = ts.as_mut().expect("workers carry task state");
            ts.groups.push(GroupFrame {
                mark: ts.outstanding.len(),
                entry_label: self.label.borrow().clone(),
                entry_row: ts.cur_row,
            });
        }
        body(self);
        // The group's end may restore the entry label and row.
        self.deliver_run();
        let (synced, entry_label) = {
            let mut ts = self.task_state.borrow_mut();
            let ts = ts.as_mut().expect("workers carry task state");
            let frame = ts.groups.pop().expect("taskgroup frames are balanced");
            let synced: Vec<TaskUid> =
                ts.outstanding.split_off(frame.mark).into_iter().map(|t| t.uid).collect();
            if synced.is_empty() {
                return; // no tasks created inside: the chain is unchanged
            }
            ts.cur_row = frame.entry_row;
            (synced, frame.entry_label)
        };
        *self.label.borrow_mut() = entry_label;
        self.with_tool(|t, tc| t.task_sync(tc, &synced));
    }

    /// Shared implementation of `taskwait` and the implied task sync at
    /// barriers and region end: drain all outstanding children and restore
    /// the interval-base label.
    fn implicit_task_sync(&self) {
        let Some(r) = &self.region else { return };
        if r.is_task {
            return; // task bodies have no children to wait for
        }
        // The sync may restore the interval-base label and row.
        self.deliver_run();
        let (synced, restored) = {
            let mut ts = self.task_state.borrow_mut();
            let ts = ts.as_mut().expect("workers carry task state");
            assert!(ts.groups.is_empty(), "taskwait/barrier inside taskgroup is not modeled");
            if ts.outstanding.is_empty() {
                return; // no children since the last sync
            }
            let synced: Vec<TaskUid> = ts.outstanding.drain(..).map(|t| t.uid).collect();
            ts.cur_row = (r.region, r.bid.get());
            (synced, ts.base.clone())
        };
        *self.label.borrow_mut() = restored;
        self.with_tool(|t, tc| t.task_sync(tc, &synced));
    }

    // ---- ordered ----------------------------------------------------------

    /// Runs `body` as the `ordered` block of iteration `i` of the loop
    /// protocol `ol`: blocks run in ascending iteration order, each under
    /// the loop's synthetic lock (see [`OrderedLoop`]).
    pub fn ordered(&self, ol: &OrderedLoop, i: u64, body: impl FnOnce()) {
        drop(ol.cv.wait_while(lock(&ol.next), |next| *next != i));
        self.with_lock(&ol.lock, body);
        *lock(&ol.next) = i + 1;
        ol.cv.notify_all();
    }

    /// `#pragma omp for ordered schedule(static)`: the static partition of
    /// [`Ctx::for_static`], with an [`OrderedLoop`] handle the body passes
    /// to [`Ctx::ordered`] for its ordered blocks; implicit barrier.
    pub fn for_static_ordered(&self, range: Range<u64>, mut body: impl FnMut(u64, &OrderedLoop)) {
        let ol = self.team_ordered_loop(range.start);
        let n = range.end.saturating_sub(range.start);
        if n > 0 {
            let span = self.team_size();
            let idx = self.team_index();
            let chunk = n.div_ceil(span);
            let lo = range.start + (idx * chunk).min(n);
            let hi = range.start + ((idx + 1) * chunk).min(n);
            for i in lo..hi {
                body(i, &ol);
            }
        }
        self.barrier();
    }

    /// `#pragma omp for ordered schedule(dynamic, chunk)` under the pinned
    /// chunk assignment of [`dynamic_chunks`]; implicit barrier.
    pub fn for_dynamic_pinned_ordered(
        &self,
        range: Range<u64>,
        chunk: u64,
        mut body: impl FnMut(u64, &OrderedLoop),
    ) {
        let ol = self.team_ordered_loop(range.start);
        let idx = self.team_index();
        for (slot, chunk_range) in dynamic_chunks(range, chunk, self.team_size()) {
            if slot == idx {
                for i in chunk_range {
                    body(i, &ol);
                }
            }
        }
        self.barrier();
    }

    /// The `key`-th ordered-loop protocol of the current region, shared by
    /// the team (master context: a private protocol, the loop is
    /// sequential anyway).
    fn team_ordered_loop(&self, start: u64) -> Arc<OrderedLoop> {
        match &self.region {
            None => Arc::new(OrderedLoop::new(start, self.sim.new_lock())),
            Some(r) => {
                let key = r.ordered_loop_seq.get();
                r.ordered_loop_seq.set(key + 1);
                r.team.ordered_loop(key, start, || self.sim.new_lock())
            }
        }
    }

    // ---- worksharing ------------------------------------------------------

    /// `#pragma omp for schedule(static)`: contiguous chunks, implicit
    /// barrier at the end.
    pub fn for_static(&self, range: Range<u64>, body: impl FnMut(u64)) {
        self.for_static_nowait(range, body);
        self.barrier();
    }

    /// `#pragma omp for schedule(static) nowait`: no closing barrier, so
    /// following accesses share the barrier interval with the loop —
    /// exactly the situation of DataRaceBench's `nowait-orig-yes`.
    pub fn for_static_nowait(&self, range: Range<u64>, mut body: impl FnMut(u64)) {
        let n = range.end.saturating_sub(range.start);
        if n == 0 {
            return;
        }
        let span = self.team_size();
        let idx = self.team_index();
        let chunk = n.div_ceil(span);
        let lo = range.start + (idx * chunk).min(n);
        let hi = range.start + ((idx + 1) * chunk).min(n);
        for i in lo..hi {
            body(i);
        }
    }

    /// `schedule(static, chunk)`: round-robin chunks, implicit barrier.
    pub fn for_static_chunked(&self, range: Range<u64>, chunk: u64, mut body: impl FnMut(u64)) {
        assert!(chunk > 0);
        let span = self.team_size();
        let idx = self.team_index();
        let mut start = range.start + idx * chunk;
        while start < range.end {
            let end = (start + chunk).min(range.end);
            for i in start..end {
                body(i);
            }
            start += span * chunk;
        }
        self.barrier();
    }

    /// `schedule(dynamic, chunk)`: threads claim chunks from a shared
    /// cursor; implicit barrier at the end.
    pub fn for_dynamic(&self, range: Range<u64>, chunk: u64, mut body: impl FnMut(u64)) {
        assert!(chunk > 0);
        match &self.region {
            None => {
                for i in range {
                    body(i);
                }
            }
            Some(r) => {
                let key = r.dyn_loop_seq.get();
                r.dyn_loop_seq.set(key + 1);
                let cursor = r.team.dyn_cursor(key, range.start);
                loop {
                    let start = cursor.fetch_add(chunk, Ordering::Relaxed);
                    if start >= range.end {
                        break;
                    }
                    let end = (start + chunk).min(range.end);
                    for i in start..end {
                        body(i);
                    }
                }
                self.barrier();
            }
        }
    }

    /// Deterministic `schedule(dynamic, chunk)`: iterations follow the
    /// round-robin grab model of [`dynamic_chunks`], so reruns (and the
    /// fuzz oracle) see identical thread→iteration assignments; implicit
    /// barrier at the end.
    pub fn for_dynamic_pinned(&self, range: Range<u64>, chunk: u64, mut body: impl FnMut(u64)) {
        let idx = self.team_index();
        for (slot, chunk_range) in dynamic_chunks(range, chunk, self.team_size()) {
            if slot == idx {
                for i in chunk_range {
                    body(i);
                }
            }
        }
        self.barrier();
    }

    /// `schedule(guided, min_chunk)`: decreasing chunks claimed from a
    /// shared mutex-guarded cursor (size computed atomically with the
    /// claim); implicit barrier at the end.
    pub fn for_guided(&self, range: Range<u64>, min_chunk: u64, mut body: impl FnMut(u64)) {
        assert!(min_chunk > 0);
        match &self.region {
            None => {
                for i in range {
                    body(i);
                }
            }
            Some(r) => {
                let key = r.dyn_loop_seq.get();
                r.dyn_loop_seq.set(key + 1);
                let cursor = r.team.guided_cursor(key, range.start);
                let span = r.span;
                loop {
                    let (start, end) = {
                        let mut cur = lock(&cursor);
                        if *cur >= range.end {
                            break;
                        }
                        let remaining = range.end - *cur;
                        let size = (remaining / span).max(min_chunk).min(remaining);
                        let s = *cur;
                        *cur += size;
                        (s, s + size)
                    };
                    for i in start..end {
                        body(i);
                    }
                }
                self.barrier();
            }
        }
    }

    /// Deterministic `schedule(guided, min_chunk)` under the pinned grab
    /// model of [`guided_chunks`]; implicit barrier at the end.
    pub fn for_guided_pinned(&self, range: Range<u64>, min_chunk: u64, mut body: impl FnMut(u64)) {
        let idx = self.team_index();
        for (slot, chunk_range) in guided_chunks(range, min_chunk, self.team_size()) {
            if slot == idx {
                for i in chunk_range {
                    body(i);
                }
            }
        }
        self.barrier();
    }

    /// `#pragma omp sections`: section `i` of `count` runs on thread
    /// `i % span`; implicit barrier at the end.
    pub fn sections(&self, count: usize, mut body: impl FnMut(usize)) {
        let span = self.team_size();
        let idx = self.team_index();
        let mut i = idx as usize;
        while i < count {
            body(i);
            i += span as usize;
        }
        self.barrier();
    }

    /// `#pragma omp master`: runs only on team slot 0; **no** barrier.
    pub fn master(&self, body: impl FnOnce()) {
        if self.team_index() == 0 {
            body();
        }
    }

    /// `#pragma omp single`: one thread runs the body, then an implicit
    /// barrier. (Deterministically slot 0 — a modeling simplification of
    /// "first arrival"; the event structure is identical.)
    pub fn single(&self, body: impl FnOnce()) {
        if self.team_index() == 0 {
            body();
        }
        self.barrier();
    }

    /// `single nowait`: no closing barrier.
    pub fn single_nowait(&self, body: impl FnOnce()) {
        if self.team_index() == 0 {
            body();
        }
    }

    // ---- reductions ---------------------------------------------------------

    /// Deterministic team reduction (`reduction(op: x)` equivalent): each
    /// thread deposits `local` in its slot of `partials` (which must hold
    /// at least `team_size` elements), slot 0 folds the slots in index
    /// order into `result[0]`, and every thread returns the folded value.
    /// Barrier-synchronized on both sides, so the result is race-free and
    /// bit-reproducible regardless of thread scheduling — unlike a naive
    /// atomic accumulation, whose floating-point fold order varies.
    #[track_caller]
    pub fn reduce_with<T: TrackedValue>(
        &self,
        partials: &TrackedBuf<T>,
        result: &TrackedBuf<T>,
        local: T,
        combine: impl Fn(T, T) -> T,
    ) -> T {
        let span = self.team_size();
        assert!(
            partials.len() >= span,
            "reduce_with needs one partial slot per team member ({span})"
        );
        let t = self.team_index();
        self.write(partials, t, local);
        self.barrier();
        self.single(|| {
            let mut acc = self.read(partials, 0);
            for i in 1..span {
                acc = combine(acc, self.read(partials, i));
            }
            self.write(result, 0, acc);
        });
        self.read(result, 0)
    }

    /// [`Ctx::reduce_with`] folding with `+`.
    #[track_caller]
    pub fn reduce_sum<T>(&self, partials: &TrackedBuf<T>, result: &TrackedBuf<T>, local: T) -> T
    where
        T: TrackedValue + std::ops::Add<Output = T>,
    {
        self.reduce_with(partials, result, local, |a, b| a + b)
    }

    // ---- synchronization --------------------------------------------------

    /// `#pragma omp critical(name)`.
    pub fn critical<R>(&self, name: &str, body: impl FnOnce() -> R) -> R {
        let lock = self.sim.named_lock(name);
        self.with_lock(&lock, body)
    }

    /// Runs `body` holding `lock`, emitting mutex events to the tool.
    pub fn with_lock<R>(&self, lock: &OmpLock, body: impl FnOnce() -> R) -> R {
        let guard = crate::lock(&lock.lock);
        self.with_tool(|t, tc| t.mutex_acquired(tc, lock.id));
        let r = body();
        self.with_tool(|t, tc| t.mutex_released(tc, lock.id));
        drop(guard);
        r
    }

    // ---- instrumented memory ----------------------------------------------

    /// Instrumented load of `buf[i]`.
    #[track_caller]
    pub fn read<T: TrackedValue>(&self, buf: &TrackedBuf<T>, i: u64) -> T {
        let v = buf.load(i);
        self.observe(buf.addr_of(i), T::SIZE_BYTES, AccessKind::Read, Location::caller());
        v
    }

    /// Instrumented store of `buf[i] = v`.
    #[track_caller]
    pub fn write<T: TrackedValue>(&self, buf: &TrackedBuf<T>, i: u64, v: T) {
        buf.store(i, v);
        self.observe(buf.addr_of(i), T::SIZE_BYTES, AccessKind::Write, Location::caller());
    }

    /// Instrumented atomic load (`#pragma omp atomic read`).
    #[track_caller]
    pub fn atomic_read<T: TrackedValue>(&self, buf: &TrackedBuf<T>, i: u64) -> T {
        let v = buf.load(i);
        self.observe(buf.addr_of(i), T::SIZE_BYTES, AccessKind::AtomicRead, Location::caller());
        v
    }

    /// Instrumented atomic store (`#pragma omp atomic write`).
    #[track_caller]
    pub fn atomic_write<T: TrackedValue>(&self, buf: &TrackedBuf<T>, i: u64, v: T) {
        buf.store(i, v);
        self.observe(buf.addr_of(i), T::SIZE_BYTES, AccessKind::AtomicWrite, Location::caller());
    }

    /// Instrumented atomic read-modify-write (`#pragma omp atomic`);
    /// returns the previous value.
    #[track_caller]
    pub fn atomic_update<T: TrackedValue>(
        &self,
        buf: &TrackedBuf<T>,
        i: u64,
        f: impl Fn(T) -> T,
    ) -> T {
        let prev = buf.rmw(i, f);
        self.observe(buf.addr_of(i), T::SIZE_BYTES, AccessKind::AtomicWrite, Location::caller());
        prev
    }

    /// Instrumented `buf[i] += delta` via atomic RMW; returns the previous
    /// value.
    #[track_caller]
    pub fn fetch_add<T>(&self, buf: &TrackedBuf<T>, i: u64, delta: T) -> T
    where
        T: TrackedValue + std::ops::Add<Output = T>,
    {
        let prev = buf.rmw(i, |v| v + delta);
        self.observe(buf.addr_of(i), T::SIZE_BYTES, AccessKind::AtomicWrite, Location::caller());
        prev
    }

    // ---- explicit-PC instrumented memory ----------------------------------
    //
    // Variants of the accessors above for interpreted programs: the caller
    // supplies a pre-interned site (see `OmpSim::intern_site`) instead of
    // relying on `#[track_caller]`, so distinct *program* statements stay
    // distinct in race reports even when one Rust line executes them all.

    /// Instrumented load of `buf[i]` attributed to site `pc`.
    pub fn read_pc<T: TrackedValue>(&self, buf: &TrackedBuf<T>, i: u64, pc: PcId) -> T {
        let v = buf.load(i);
        self.observe_pc(buf.addr_of(i), T::SIZE_BYTES, AccessKind::Read, pc);
        v
    }

    /// Instrumented store of `buf[i] = v` attributed to site `pc`.
    pub fn write_pc<T: TrackedValue>(&self, buf: &TrackedBuf<T>, i: u64, v: T, pc: PcId) {
        buf.store(i, v);
        self.observe_pc(buf.addr_of(i), T::SIZE_BYTES, AccessKind::Write, pc);
    }

    /// Instrumented atomic load attributed to site `pc`.
    pub fn atomic_read_pc<T: TrackedValue>(&self, buf: &TrackedBuf<T>, i: u64, pc: PcId) -> T {
        let v = buf.load(i);
        self.observe_pc(buf.addr_of(i), T::SIZE_BYTES, AccessKind::AtomicRead, pc);
        v
    }

    /// Instrumented atomic store attributed to site `pc`.
    pub fn atomic_write_pc<T: TrackedValue>(&self, buf: &TrackedBuf<T>, i: u64, v: T, pc: PcId) {
        buf.store(i, v);
        self.observe_pc(buf.addr_of(i), T::SIZE_BYTES, AccessKind::AtomicWrite, pc);
    }

    // ---- internals --------------------------------------------------------

    /// Makes a callback for this context, after delivering the accesses
    /// it issued before: a tool sees each context's events in issue order.
    fn with_tool(&self, f: impl FnOnce(&dyn Tool, &ThreadContext<'_>)) {
        let (Some(tool), Some(r)) = (&self.sim.tool, &self.region) else { return };
        self.deliver_run();
        let label = self.label.borrow();
        let tc = self.make_tc(r, &label);
        f(tool.as_ref(), &tc);
    }

    /// Delivers the accesses held back so far, under the context they
    /// were issued in. The one place [`Tool::access`] is called from;
    /// runs before every other callback made for this context and before
    /// every change to what [`Ctx::make_tc`] reads.
    fn deliver_run(&self) {
        let (Some(tool), Some(r)) = (&self.sim.tool, &self.region) else { return };
        let mut run = self.run.borrow_mut();
        if run.is_empty() {
            return;
        }
        let label = self.label.borrow();
        tool.access(&self.make_tc(r, &label), &run);
        run.clear();
    }

    /// Holds one access back; delivers once the run is as long as the
    /// tool takes (at once, for a tool that takes one).
    #[inline]
    fn hold(&self, access: MemAccess) {
        let full = {
            let mut run = self.run.borrow_mut();
            run.push(access);
            run.len() >= self.sim.run_len
        };
        if full {
            self.deliver_run();
        }
    }

    /// Builds the [`ThreadContext`] the tool sees. While a task-fork chain
    /// is open, the creator's continuation rows log under the *task
    /// pseudo-region* recorded in `TaskState::cur_row` rather than the
    /// real region — that is how the offline analyzers know the
    /// continuation fragment's place in the chain.
    fn make_tc<'a>(&'a self, r: &'a RegionInfo, label: &'a Label) -> ThreadContext<'a> {
        let chained = self.task_state.borrow().as_ref().and_then(|ts| {
            if ts.cur_row.0 != r.region {
                Some(ts.cur_row)
            } else {
                None
            }
        });
        match chained {
            Some((row_pid, _)) if !r.is_task => ThreadContext {
                tid: self.tid,
                region: row_pid,
                parent_region: Some(r.region),
                level: r.level + 1,
                team_index: 0,
                span: TASK_SPAN,
                bid: 0,
                label,
                tool_data: &self.tool_data,
            },
            _ => ThreadContext {
                tid: self.tid,
                region: r.region,
                parent_region: r.parent_region,
                level: r.level,
                team_index: r.team_index,
                span: r.span,
                bid: r.bid.get(),
                label,
                tool_data: &self.tool_data,
            },
        }
    }

    fn observe(&self, addr: u64, size: u8, kind: AccessKind, loc: &'static Location<'static>) {
        // Sequential (outside-region) accesses are not instrumented — the
        // paper's pass only instruments loads/stores in parallel regions.
        if self.region.is_none() || self.sim.tool.is_none() {
            return;
        }
        let pc = self.pc_of(loc);
        self.hold(MemAccess { addr, size, kind, pc });
    }

    fn observe_pc(&self, addr: u64, size: u8, kind: AccessKind, pc: PcId) {
        if self.region.is_none() || self.sim.tool.is_none() {
            return;
        }
        self.hold(MemAccess { addr, size, kind, pc });
    }

    #[inline]
    fn pc_of(&self, loc: &'static Location<'static>) -> PcId {
        let key: SiteKey = (loc.file().as_ptr() as usize, loc.line());
        self.site_id(key, || self.sim.intern_pc(loc))
    }

    /// Resolves a site through the direct-mapped cache, then the map
    /// behind it, and only on this context's first sight of the site
    /// through `intern` (the sim-wide table, behind its mutex).
    #[inline]
    fn site_id(&self, key: SiteKey, intern: impl FnOnce() -> PcId) -> PcId {
        let slot = &self.site_cache[((key.0 >> 4) ^ key.1 as usize) % SITE_CACHE_SLOTS];
        let (cached, id) = slot.get();
        if cached == key {
            return id;
        }
        let id = self.site_id_uncached(key, intern);
        slot.set((key, id));
        id
    }

    #[cold]
    fn site_id_uncached(&self, key: SiteKey, intern: impl FnOnce() -> PcId) -> PcId {
        *self.pc_cache.borrow_mut().entry(key).or_insert_with(intern)
    }
}

impl std::fmt::Debug for Ctx<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Ctx")
            .field("tid", &self.tid)
            .field("label", &format_args!("{}", self.label.borrow()))
            .field("in_parallel", &self.in_parallel())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;

    #[test]
    fn master_context_is_sequential() {
        let sim = OmpSim::new();
        sim.run(|ctx| {
            assert!(!ctx.in_parallel());
            assert_eq!(ctx.team_size(), 1);
            assert_eq!(format!("{}", ctx.label()), "[0,1]");
            ctx.barrier(); // no-op
        });
    }

    #[test]
    fn parallel_runs_all_workers() {
        let sim = OmpSim::new();
        let hits = AtomicUsize::new(0);
        sim.run(|ctx| {
            ctx.parallel(6, |w| {
                assert!(w.in_parallel());
                assert_eq!(w.team_size(), 6);
                assert!(w.team_index() < 6);
                hits.fetch_add(1, Ordering::Relaxed);
            });
        });
        assert_eq!(hits.load(Ordering::Relaxed), 6);
    }

    #[test]
    fn worker_labels_follow_osl_rules() {
        let sim = OmpSim::new();
        let labels = Mutex::new(Vec::new());
        sim.run(|ctx| {
            ctx.parallel(3, |w| {
                labels.lock().unwrap().push(w.label());
            });
            // A join does not bump the master's label (it is not a
            // barrier); the next fork is ordered by the fork-sequence
            // component instead.
            assert_eq!(format!("{}", ctx.label()), "[0,1]");
            ctx.parallel(1, |w| {
                // Second region: fork-point pair [1,1] between the root
                // label and the member pair.
                assert_eq!(format!("{}", w.label()), "[0,1][1,1][0,1]");
            });
        });
        let labels = labels.into_inner().unwrap();
        assert_eq!(labels.len(), 3);
        for a in &labels {
            for b in &labels {
                if a != b {
                    assert!(a.concurrent(b), "{a} vs {b}");
                }
            }
        }
    }

    #[test]
    fn sequential_regions_are_ordered() {
        let sim = OmpSim::new();
        let (l1, l2) = sim.run(|ctx| {
            let l1 = Mutex::new(None);
            ctx.parallel(2, |w| {
                if w.team_index() == 0 {
                    *l1.lock().unwrap() = Some(w.label());
                }
            });
            let l2 = Mutex::new(None);
            ctx.parallel(2, |w| {
                if w.team_index() == 0 {
                    *l2.lock().unwrap() = Some(w.label());
                }
            });
            (l1.into_inner().unwrap().unwrap(), l2.into_inner().unwrap().unwrap())
        });
        assert!(l1.sequential(&l2), "{l1} vs {l2}");
    }

    #[test]
    fn barrier_bumps_label_and_bid() {
        let sim = OmpSim::new();
        let seen = Mutex::new(Vec::new());
        sim.run(|ctx| {
            ctx.parallel(4, |w| {
                let before = w.label();
                w.barrier();
                let after = w.label();
                seen.lock().unwrap().push((before, after));
            });
        });
        for (before, after) in seen.into_inner().unwrap() {
            assert!(before.sequential(&after));
            assert_eq!(after.last().unwrap().offset, before.last().unwrap().offset + 4);
        }
    }

    #[test]
    fn nested_parallelism_levels_and_concurrency() {
        let sim = OmpSim::new();
        let inner_labels = Mutex::new(Vec::new());
        sim.run(|ctx| {
            ctx.parallel(2, |w| {
                w.parallel(2, |inner| {
                    inner_labels.lock().unwrap().push(inner.label());
                });
            });
        });
        let labels = inner_labels.into_inner().unwrap();
        assert_eq!(labels.len(), 4);
        // All inner workers across both inner regions are mutually
        // concurrent (they hang off concurrent outer threads or are
        // siblings).
        for a in &labels {
            for b in &labels {
                if a != b {
                    assert!(a.concurrent(b), "{a} vs {b}");
                }
            }
        }
    }

    #[test]
    fn thread_ids_are_pooled_across_regions() {
        let sim = OmpSim::new();
        let round1 = Mutex::new(Vec::new());
        let round2 = Mutex::new(Vec::new());
        sim.run(|ctx| {
            ctx.parallel(4, |w| {
                round1.lock().unwrap().push(w.tid());
            });
            ctx.parallel(4, |w| {
                round2.lock().unwrap().push(w.tid());
            });
        });
        let mut r1 = round1.into_inner().unwrap();
        let mut r2 = round2.into_inner().unwrap();
        r1.sort_unstable();
        r2.sort_unstable();
        assert_eq!(r1, r2, "same pool of tids reused");
        // Master took tid 0; five distinct tids total.
        assert_eq!(sim.threads_used(), 5);
    }

    #[test]
    fn for_static_partitions_exactly() {
        let sim = OmpSim::new();
        let hits = Mutex::new(vec![0u32; 100]);
        sim.run(|ctx| {
            ctx.parallel(7, |w| {
                w.for_static(0..100, |i| {
                    hits.lock().unwrap()[i as usize] += 1;
                });
            });
        });
        assert!(hits.into_inner().unwrap().iter().all(|&h| h == 1));
    }

    #[test]
    fn for_static_empty_range() {
        let sim = OmpSim::new();
        sim.run(|ctx| {
            ctx.parallel(4, |w| {
                w.for_static_nowait(10..10, |_| panic!("no iterations"));
            });
        });
    }

    #[test]
    fn for_static_chunked_covers_range() {
        let sim = OmpSim::new();
        let hits = Mutex::new(vec![0u32; 53]);
        sim.run(|ctx| {
            ctx.parallel(4, |w| {
                w.for_static_chunked(0..53, 5, |i| {
                    hits.lock().unwrap()[i as usize] += 1;
                });
            });
        });
        assert!(hits.into_inner().unwrap().iter().all(|&h| h == 1));
    }

    #[test]
    fn for_dynamic_covers_range() {
        let sim = OmpSim::new();
        let hits = Mutex::new(vec![0u32; 97]);
        sim.run(|ctx| {
            ctx.parallel(5, |w| {
                w.for_dynamic(0..97, 4, |i| {
                    hits.lock().unwrap()[i as usize] += 1;
                });
                // A second dynamic loop must get a fresh cursor.
                w.for_dynamic(0..97, 4, |i| {
                    hits.lock().unwrap()[i as usize] += 1;
                });
            });
        });
        assert!(hits.into_inner().unwrap().iter().all(|&h| h == 2));
    }

    #[test]
    fn master_and_single_run_once() {
        let sim = OmpSim::new();
        let m = AtomicUsize::new(0);
        let s1 = AtomicUsize::new(0);
        let s2 = AtomicUsize::new(0);
        sim.run(|ctx| {
            ctx.parallel(8, |w| {
                w.master(|| {
                    m.fetch_add(1, Ordering::Relaxed);
                });
                w.single(|| {
                    s1.fetch_add(1, Ordering::Relaxed);
                });
                w.single_nowait(|| {
                    s2.fetch_add(1, Ordering::Relaxed);
                });
            });
        });
        assert_eq!(m.load(Ordering::Relaxed), 1);
        assert_eq!(s1.load(Ordering::Relaxed), 1);
        assert_eq!(s2.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn sections_distribute_all() {
        let sim = OmpSim::new();
        let done = Mutex::new(vec![false; 10]);
        sim.run(|ctx| {
            ctx.parallel(3, |w| {
                w.sections(10, |i| {
                    done.lock().unwrap()[i] = true;
                });
            });
        });
        assert!(done.into_inner().unwrap().iter().all(|&d| d));
    }

    #[test]
    fn critical_is_mutually_exclusive() {
        let sim = OmpSim::new();
        let counter = sim.alloc::<u64>(1, 0);
        sim.run(|ctx| {
            ctx.parallel(8, |w| {
                for _ in 0..1000 {
                    w.critical("sum", || {
                        let v = w.read(&counter, 0);
                        w.write(&counter, 0, v + 1);
                    });
                }
            });
        });
        assert_eq!(counter.get_seq(0), 8000);
    }

    #[test]
    fn a_critical_body_that_panics_leaves_the_section_usable() {
        // `with_lock` runs user code under the section's guard: a panic
        // there poisons the lock, and the next run must still get in.
        let sim = OmpSim::new();
        let died = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            sim.run(|ctx| {
                ctx.parallel(2, |w| {
                    w.critical("c", || assert_ne!(w.team_index(), 1, "boom"));
                });
            })
        }));
        assert!(died.is_err(), "the member's panic reaches the caller");
        let entered = AtomicUsize::new(0);
        sim.run(|ctx| {
            ctx.parallel(2, |w| {
                w.critical("c", || entered.fetch_add(1, Ordering::Relaxed));
            });
        });
        assert_eq!(entered.into_inner(), 2);
    }

    #[test]
    fn named_locks_are_shared_anonymous_are_not() {
        let sim = OmpSim::new();
        let a = sim.named_lock("x");
        let b = sim.named_lock("x");
        let c = sim.named_lock("y");
        let d = sim.new_lock();
        assert_eq!(a.id(), b.id());
        assert_ne!(a.id(), c.id());
        assert_ne!(c.id(), d.id());
    }

    #[test]
    fn fetch_add_is_atomic_across_team() {
        let sim = OmpSim::new();
        let counter = sim.alloc::<u64>(1, 0);
        sim.run(|ctx| {
            ctx.parallel(8, |w| {
                for _ in 0..5000 {
                    w.fetch_add(&counter, 0, 1);
                }
            });
        });
        assert_eq!(counter.get_seq(0), 40_000);
    }

    #[test]
    fn target_region_is_a_nested_team() {
        let sim = OmpSim::new();
        let labels = Mutex::new(Vec::new());
        sim.run(|ctx| {
            ctx.parallel(2, |host| {
                host.single_nowait(|| {
                    host.target(3, |dev| {
                        assert_eq!(dev.team_size(), 3);
                        labels.lock().unwrap().push(dev.label());
                    });
                });
                host.barrier();
            });
        });
        let labels = labels.into_inner().unwrap();
        assert_eq!(labels.len(), 3, "device team ran");
        // Device threads are nested two levels below the root; each level
        // contributes a fork-point pair plus the member pair.
        assert!(labels.iter().all(|l| l.depth() == 5));
    }

    #[test]
    fn reduce_sum_is_deterministic_and_correct() {
        let run = |threads: usize| {
            let sim = OmpSim::new();
            let a = sim.alloc::<f64>(1000, 0.0);
            for i in 0..1000 {
                a.set_seq(i, 0.1 * (i as f64 + 1.0));
            }
            let partials = sim.alloc::<f64>(threads as u64, 0.0);
            let result = sim.alloc::<f64>(1, 0.0);
            let per_thread = Mutex::new(Vec::new());
            sim.run(|ctx| {
                ctx.parallel(threads, |w| {
                    let mut local = 0.0;
                    w.for_static_nowait(0..1000, |i| {
                        local += w.read(&a, i);
                    });
                    let total = w.reduce_sum(&partials, &result, local);
                    per_thread.lock().unwrap().push(total);
                });
            });
            let totals = per_thread.into_inner().unwrap();
            assert_eq!(totals.len(), threads);
            assert!(totals.windows(2).all(|p| p[0] == p[1]), "all threads see the result");
            totals[0]
        };
        // Deterministic across runs…
        assert_eq!(run(4).to_bits(), run(4).to_bits());
        // …and mathematically right.
        let expect: f64 = (1..=1000).map(|i| 0.1 * i as f64).sum();
        assert!((run(3) - expect).abs() < 1e-9);
    }

    #[test]
    fn reduce_with_min() {
        let sim = OmpSim::new();
        let partials = sim.alloc::<i64>(5, 0);
        let result = sim.alloc::<i64>(1, 0);
        let got = Mutex::new(0i64);
        sim.run(|ctx| {
            ctx.parallel(5, |w| {
                let local = 100 - w.team_index() as i64 * 7;
                let m = w.reduce_with(&partials, &result, local, |a, b| a.min(b));
                if w.team_index() == 0 {
                    *got.lock().unwrap() = m;
                }
            });
        });
        assert_eq!(got.into_inner().unwrap(), 100 - 4 * 7);
    }

    #[test]
    #[should_panic(expected = "reduce_with needs one partial slot per team member")]
    fn reduce_requires_enough_slots() {
        let sim = OmpSim::new();
        let partials = sim.alloc::<f64>(2, 0.0);
        let result = sim.alloc::<f64>(1, 0.0);
        sim.run(|ctx| {
            ctx.parallel(4, |w| {
                w.reduce_sum(&partials, &result, 1.0);
            });
        });
    }

    #[test]
    fn footprint_tracking() {
        let sim = OmpSim::new();
        let a = sim.alloc::<f64>(1000, 0.0);
        assert_eq!(sim.declared_footprint(), 8000);
        let b = sim.alloc_phantom::<f64>(1 << 30, 1024, 0.0);
        assert_eq!(sim.declared_footprint(), 8000 + (8u64 << 30));
        drop(b);
        assert_eq!(sim.declared_footprint(), 8000);
        assert_eq!(sim.peak_footprint(), 8000 + (8u64 << 30));
        drop(a);
    }

    #[test]
    fn buffers_have_disjoint_address_ranges() {
        let sim = OmpSim::new();
        let a = sim.alloc::<u8>(100, 0);
        let b = sim.alloc::<f64>(10, 0.0);
        assert!(a.base_addr() + 100 <= b.base_addr());
        assert_eq!(b.base_addr() % 64, 0);
    }

    /// A tool that counts callbacks, for interface-contract tests.
    #[derive(Default)]
    struct CountingTool {
        accesses: AtomicUsize,
        regions: AtomicUsize,
        barriers: AtomicUsize,
        threads: AtomicUsize,
        mutexes: AtomicUsize,
    }

    impl Tool for CountingTool {
        fn parallel_begin(&self, _: &ParallelBeginInfo<'_>) {
            self.regions.fetch_add(1, Ordering::Relaxed);
        }
        fn thread_begin(&self, _: &ThreadContext<'_>) {
            self.threads.fetch_add(1, Ordering::Relaxed);
        }
        fn barrier_end(&self, _: &ThreadContext<'_>) {
            self.barriers.fetch_add(1, Ordering::Relaxed);
        }
        fn mutex_acquired(&self, _: &ThreadContext<'_>, _: MutexId) {
            self.mutexes.fetch_add(1, Ordering::Relaxed);
        }
        fn access(&self, ctx: &ThreadContext<'_>, run: &[MemAccess]) {
            assert!(run.iter().all(|a| a.size > 0));
            assert!(ctx.span > 0);
            self.accesses.fetch_add(run.len(), Ordering::Relaxed);
        }
    }

    #[test]
    fn tool_sees_expected_event_counts() {
        let tool = Arc::new(CountingTool::default());
        let sim = OmpSim::with_tool(tool.clone());
        let buf = sim.alloc::<f64>(64, 0.0);
        sim.run(|ctx| {
            // Sequential access: not instrumented.
            let _ = ctx.read(&buf, 0);
            ctx.parallel(4, |w| {
                w.for_static(0..64, |i| {
                    let v = w.read(&buf, i);
                    w.write(&buf, i, v + 1.0);
                });
                w.critical("c", || {});
            });
        });
        assert_eq!(tool.regions.load(Ordering::Relaxed), 1);
        assert_eq!(tool.threads.load(Ordering::Relaxed), 4);
        assert_eq!(tool.accesses.load(Ordering::Relaxed), 128, "64 reads + 64 writes");
        assert_eq!(tool.barriers.load(Ordering::Relaxed), 4, "for_static barrier x4 threads");
        assert_eq!(tool.mutexes.load(Ordering::Relaxed), 4);
    }

    #[test]
    fn tracked_ops_compute_correctly_under_instrumentation() {
        let sim = OmpSim::with_tool(Arc::new(crate::NullTool));
        let a = sim.alloc::<f64>(128, 0.0);
        for i in 0..128 {
            a.set_seq(i, i as f64);
        }
        let sum = sim.run(|ctx| {
            let total = sim.alloc::<f64>(1, 0.0);
            ctx.parallel(4, |w| {
                let mut local = 0.0;
                w.for_static_nowait(0..128, |i| {
                    local += w.read(&a, i);
                });
                w.fetch_add(&total, 0, local);
                w.barrier();
            });
            total.get_seq(0)
        });
        assert_eq!(sum, (0..128).sum::<u64>() as f64);
    }

    #[test]
    fn site_cache_evictions_fall_back_to_the_map_not_the_interner() {
        let sim = OmpSim::new();
        sim.run(|ctx| {
            // Same file pointer, lines one cache-width apart: both keys
            // map to one slot and evict each other on every alternation.
            let (a, b) = ((0x4000, 5), (0x4000, 5 + SITE_CACHE_SLOTS as u32));
            let interned = Cell::new(0);
            let resolve = |key, id| {
                ctx.site_id(key, || {
                    interned.set(interned.get() + 1);
                    id
                })
            };
            for _ in 0..4 {
                assert_eq!(resolve(a, 11), 11);
                assert_eq!(resolve(b, 22), 22);
            }
            assert_eq!(interned.get(), 2, "each site reaches the shared table once");
            // An unused slot (key (0, 0), id 0) is never taken for a hit.
            assert_eq!(ctx.site_id((0x4000, 6), || 33), 33);
        });
    }

    /// Checks the `thread_data` contract: what a tool parks in a
    /// context's slot is what every later callback of that context — and
    /// no other — finds there.
    struct SlotChecker {
        seen: AtomicUsize,
    }

    impl SlotChecker {
        fn check(&self, ctx: &ThreadContext<'_>) {
            assert_eq!(ctx.tool_data.with(|tid: &mut ThreadId| *tid), Some(ctx.tid));
            self.seen.fetch_add(1, Ordering::Relaxed);
        }
    }

    impl Tool for SlotChecker {
        fn thread_begin(&self, ctx: &ThreadContext<'_>) {
            assert!(ctx.tool_data.put(ctx.tid).is_none(), "a fresh context has an empty slot");
        }
        fn thread_end(&self, ctx: &ThreadContext<'_>) {
            assert_eq!(ctx.tool_data.take::<ThreadId>(), Some(ctx.tid));
        }
        fn task_begin(&self, outer: &ThreadContext<'_>, task: &ThreadContext<'_>, _: TaskUid) {
            self.check(outer);
            assert!(task.tool_data.put(task.tid).is_none(), "a task context has its own slot");
        }
        fn task_end(&self, task: &ThreadContext<'_>, outer: &ThreadContext<'_>, _: TaskUid) {
            assert_eq!(task.tool_data.take::<ThreadId>(), Some(task.tid));
            self.check(outer);
        }
        fn barrier_begin(&self, ctx: &ThreadContext<'_>) {
            self.check(ctx);
        }
        fn barrier_end(&self, ctx: &ThreadContext<'_>) {
            self.check(ctx);
        }
        fn mutex_acquired(&self, ctx: &ThreadContext<'_>, _: MutexId) {
            self.check(ctx);
        }
        fn access(&self, ctx: &ThreadContext<'_>, _: &[MemAccess]) {
            self.check(ctx);
        }
    }

    #[test]
    fn tool_slot_follows_the_context_not_the_os_thread() {
        let tool = Arc::new(SlotChecker { seen: AtomicUsize::new(0) });
        let sim = OmpSim::with_tool(tool.clone());
        let a = sim.alloc::<u64>(64, 0);
        sim.run(|ctx| {
            for _ in 0..2 {
                // Pooled tids come back on fresh contexts with empty slots.
                ctx.parallel(2, |w| {
                    w.write(&a, w.team_index(), 1);
                    // Same OS thread, other tid, other slot.
                    w.task(|t| t.write(&a, 8 + w.team_index(), 2));
                    w.write(&a, w.team_index(), 3);
                    w.critical("slot", || w.write(&a, 16, 4));
                    // The forker's slot survives a nested team's lifetime.
                    w.parallel(2, |inner| inner.write(&a, 32 + inner.tid() as u64, 5));
                    w.barrier();
                    w.write(&a, w.team_index(), 6);
                });
            }
        });
        assert!(tool.seen.load(Ordering::Relaxed) >= 2 * 2 * 10);
    }

    #[test]
    fn pc_interning_distinguishes_lines() {
        let tool = Arc::new(PcCollector::default());
        let sim = OmpSim::with_tool(tool.clone());
        let buf = sim.alloc::<u64>(4, 0);
        sim.run(|ctx| {
            ctx.parallel(1, |w| {
                w.write(&buf, 0, 1); // line A
                w.write(&buf, 1, 2); // line B
                w.write(&buf, 2, 3); // line C
                for _ in 0..3 {
                    w.write(&buf, 3, 4); // same line, one PC
                }
            });
        });
        let pcs = tool.pcs.lock().unwrap().clone();
        let distinct: std::collections::HashSet<_> = pcs.iter().collect();
        assert_eq!(pcs.len(), 6);
        assert_eq!(distinct.len(), 4);
        // The table resolves them to this file.
        let table = sim.export_pcs();
        for pc in distinct {
            assert!(table.resolve(*pc).unwrap().file.ends_with("runtime.rs"));
        }
    }

    #[derive(Default)]
    struct PcCollector {
        pcs: Mutex<Vec<PcId>>,
    }

    impl Tool for PcCollector {
        fn access(&self, _: &ThreadContext<'_>, run: &[MemAccess]) {
            self.pcs.lock().unwrap().extend(run.iter().map(|a| a.pc));
        }
    }

    /// Records the full task callback choreography for contract tests.
    #[derive(Default)]
    struct TaskRecorder {
        events: Mutex<Vec<String>>,
        labels: Mutex<Vec<(String, Label)>>,
    }

    impl Tool for TaskRecorder {
        fn task_create(&self, outer: &ThreadContext<'_>, info: &TaskCreateInfo<'_>) {
            self.events.lock().unwrap().push(format!(
                "create uid={} region={} parent={} preds={:?} row={}",
                info.uid, info.region, info.parent_region, info.preds, outer.region
            ));
        }
        fn task_begin(&self, outer: &ThreadContext<'_>, task: &ThreadContext<'_>, uid: TaskUid) {
            assert_ne!(outer.tid, task.tid, "task runs under its own logical tid");
            assert_eq!(task.span, TASK_SPAN);
            self.events
                .lock()
                .unwrap()
                .push(format!("begin uid={uid} tid={} region={}", task.tid, task.region));
            self.labels.lock().unwrap().push((format!("task{uid}"), task.label.clone()));
        }
        fn task_end(&self, task: &ThreadContext<'_>, outer: &ThreadContext<'_>, uid: TaskUid) {
            // The continuation resumes logging under the task pseudo-region.
            assert_eq!(outer.region, task.region);
            assert_eq!(outer.span, TASK_SPAN);
            self.events.lock().unwrap().push(format!("end uid={uid} cont_row={}", outer.region));
            self.labels.lock().unwrap().push((format!("cont{uid}"), outer.label.clone()));
        }
        fn task_sync(&self, restored: &ThreadContext<'_>, synced: &[TaskUid]) {
            self.events
                .lock()
                .unwrap()
                .push(format!("sync row={} synced={:?}", restored.region, synced));
            self.labels.lock().unwrap().push(("after_sync".into(), restored.label.clone()));
        }
        fn access(&self, ctx: &ThreadContext<'_>, _: &[MemAccess]) {
            self.labels.lock().unwrap().push((format!("row{}", ctx.region), ctx.label.clone()));
        }
    }

    #[test]
    fn task_choreography_and_labels() {
        let tool = Arc::new(TaskRecorder::default());
        let sim = OmpSim::with_tool(tool.clone());
        let buf = sim.alloc::<u64>(4, 0);
        sim.run(|ctx| {
            ctx.parallel(1, |w| {
                w.write(&buf, 0, 1); // pre-chain access, real region row
                w.task(|t| t.write(&buf, 1, 2));
                w.task(|t| t.write(&buf, 2, 3));
                w.write(&buf, 3, 4); // continuation access, chained row
                w.taskwait();
                w.write(&buf, 0, 5); // post-sync access, real region row again
            });
        });
        let events = tool.events.lock().unwrap().clone();
        assert_eq!(events.len(), 7, "2x(create,begin,end) + 1 sync: {events:?}");
        assert!(events[0].starts_with("create"));
        assert!(events[1].starts_with("begin"));
        assert!(events[2].starts_with("end"));
        assert!(events[6].starts_with("sync"));
        let labels = tool.labels.lock().unwrap().clone();
        let find = |k: &str| {
            labels.iter().find(|(n, _)| n == k).map(|(_, l)| l.clone()).expect("label recorded")
        };
        let (t0, t1) = (find("task1"), find("task2"));
        let (c0, c1) = (find("cont1"), find("cont2"));
        let after = find("after_sync");
        // Tasks race each other and their creator's later continuation…
        assert!(t0.concurrent(&t1));
        assert!(t0.concurrent(&c0) && t0.concurrent(&c1));
        // …creation order is exact, and the taskwait orders everything.
        assert!(c0.sequential(&t1));
        assert!(t0.sequential(&after) && t1.sequential(&after));
        // Fresh, never-pooled tids: master + 1 worker + 2 tasks.
        assert_eq!(sim.threads_used(), 4);
    }

    #[test]
    fn depend_clauses_pick_conflicting_predecessors() {
        let tool = Arc::new(TaskRecorder::default());
        let sim = OmpSim::with_tool(tool.clone());
        sim.run(|ctx| {
            ctx.parallel(1, |w| {
                let x = 100u64;
                let y = 200u64;
                w.task_depend(&[(x, DepMode::Out)], |_| {}); // A
                w.task_depend(&[(x, DepMode::In)], |_| {}); // B: dep on A
                w.task_depend(&[(x, DepMode::In)], |_| {}); // C: dep on A
                w.task_depend(&[(x, DepMode::InOut), (y, DepMode::Out)], |_| {}); // D: A,B,C
                w.task_depend(&[(y, DepMode::In)], |_| {}); // E: dep on D
                w.taskwait();
            });
        });
        let events = tool.events.lock().unwrap().clone();
        let preds: Vec<&str> = events
            .iter()
            .filter(|e| e.starts_with("create"))
            .map(|e| e.split("preds=").nth(1).unwrap().split(" row").next().unwrap())
            .collect();
        assert_eq!(preds[0], "[]");
        // Task pseudo-region ids are allocated in creation order after the
        // parallel region's id (0): A=1, B=2, C=3, D=4, E=5.
        assert_eq!(preds[1], "[1]");
        assert_eq!(preds[2], "[1]");
        assert_eq!(preds[3], "[1, 2, 3]");
        assert_eq!(preds[4], "[4]");
    }

    #[test]
    fn taskgroup_scopes_the_sync() {
        let tool = Arc::new(TaskRecorder::default());
        let sim = OmpSim::with_tool(tool.clone());
        sim.run(|ctx| {
            ctx.parallel(1, |w| {
                w.task(|_| {}); // outside the group, uid 1
                w.taskgroup(|w| {
                    w.task(|_| {}); // inside, uid 2
                    w.task(|_| {}); // inside, uid 3
                });
                w.taskwait(); // drains the pre-group task
            });
        });
        let events = tool.events.lock().unwrap().clone();
        let syncs: Vec<&String> = events.iter().filter(|e| e.starts_with("sync")).collect();
        assert_eq!(syncs.len(), 2, "{events:?}");
        assert!(syncs[0].contains("synced=[2, 3]"), "group end syncs only its own: {}", syncs[0]);
        assert!(syncs[1].contains("synced=[1]"), "taskwait drains the rest: {}", syncs[1]);
        let labels = tool.labels.lock().unwrap().clone();
        let after_group = labels
            .iter()
            .filter(|(n, _)| n == "after_sync")
            .map(|(_, l)| l.clone())
            .next()
            .unwrap();
        let task_outside =
            labels.iter().find(|(n, _)| n == "task1").map(|(_, l)| l.clone()).unwrap();
        let task_inside =
            labels.iter().find(|(n, _)| n == "task2").map(|(_, l)| l.clone()).unwrap();
        // Post-group code is ordered after group tasks but still races the
        // task that was outstanding at entry.
        assert!(task_inside.sequential(&after_group));
        assert!(task_outside.concurrent(&after_group));
    }

    #[test]
    fn implicit_region_end_syncs_outstanding_tasks() {
        let tool = Arc::new(TaskRecorder::default());
        let sim = OmpSim::with_tool(tool.clone());
        sim.run(|ctx| {
            ctx.parallel(2, |w| {
                if w.team_index() == 0 {
                    w.task(|_| {});
                }
            });
        });
        let events = tool.events.lock().unwrap().clone();
        assert!(
            events.iter().any(|e| e.starts_with("sync")),
            "region end implies a taskwait: {events:?}"
        );
    }

    #[test]
    fn barrier_is_a_task_scheduling_point() {
        let tool = Arc::new(TaskRecorder::default());
        let sim = OmpSim::with_tool(tool.clone());
        let labels = Mutex::new(Vec::new());
        sim.run(|ctx| {
            ctx.parallel(2, |w| {
                if w.team_index() == 1 {
                    w.task(|_| {});
                }
                w.barrier();
                labels.lock().unwrap().push(w.label());
            });
        });
        let events = tool.events.lock().unwrap().clone();
        let sync_pos = events.iter().position(|e| e.starts_with("sync")).expect("implied sync");
        assert!(events[..sync_pos].iter().any(|e| e.starts_with("end")), "{events:?}");
        // After the barrier both members are on bumped base labels ordered
        // after the task.
        let task_label =
            tool.labels.lock().unwrap().iter().find(|(n, _)| n == "task1").unwrap().1.clone();
        for l in labels.into_inner().unwrap() {
            assert!(task_label.compare_barrier_aware(&l).is_sequential(), "{task_label} vs {l}");
        }
    }

    #[test]
    fn tasks_outside_parallel_run_inline() {
        let sim = OmpSim::new();
        let hits = AtomicUsize::new(0);
        sim.run(|ctx| {
            ctx.task(|_| {
                hits.fetch_add(1, Ordering::Relaxed);
            });
            ctx.taskwait();
            ctx.taskgroup(|c| {
                c.task(|_| {
                    hits.fetch_add(1, Ordering::Relaxed);
                });
            });
        });
        assert_eq!(hits.load(Ordering::Relaxed), 2);
        assert_eq!(sim.threads_used(), 1, "sequential tasks take no fresh tids");
    }

    #[test]
    #[should_panic(expected = "nested task creation (a task spawning tasks) is not modeled")]
    fn nested_task_creation_is_rejected() {
        let sim = OmpSim::new();
        sim.run(|ctx| {
            ctx.parallel(1, |w| {
                w.task(|t| t.task(|_| {}));
            });
        });
    }

    #[test]
    fn dynamic_and_guided_chunk_models() {
        // dynamic: 10 iterations, chunk 3, span 2 → grabs at 0,3,6,9
        // alternating slots.
        let d = dynamic_chunks(0..10, 3, 2);
        assert_eq!(d, vec![(0, 0..3), (1, 3..6), (0, 6..9), (1, 9..10)]);
        // guided: decreasing sizes max(2, remaining/2).
        let g = guided_chunks(0..20, 2, 2);
        let sizes: Vec<u64> = g.iter().map(|(_, r)| r.end - r.start).collect();
        assert_eq!(sizes, vec![10, 5, 2, 2, 1]);
        assert!(sizes.windows(2).all(|w| w[0] >= w[1]));
        assert_eq!(g.last().unwrap().1.end, 20);
        // Both models tile the range exactly.
        for chunks in [d, g] {
            let mut next = 0;
            for (_, r) in chunks {
                assert_eq!(r.start, next);
                next = r.end;
            }
        }
    }

    #[test]
    fn pinned_loops_cover_ranges_exactly() {
        let sim = OmpSim::new();
        let hits = Mutex::new(vec![0u32; 61]);
        sim.run(|ctx| {
            ctx.parallel(3, |w| {
                w.for_dynamic_pinned(0..61, 4, |i| {
                    hits.lock().unwrap()[i as usize] += 1;
                });
                w.for_guided_pinned(0..61, 2, |i| {
                    hits.lock().unwrap()[i as usize] += 1;
                });
            });
        });
        assert!(hits.into_inner().unwrap().iter().all(|&h| h == 2));
    }

    #[test]
    fn for_guided_covers_range() {
        let sim = OmpSim::new();
        let hits = Mutex::new(vec![0u32; 97]);
        sim.run(|ctx| {
            ctx.parallel(5, |w| {
                w.for_guided(0..97, 3, |i| {
                    hits.lock().unwrap()[i as usize] += 1;
                });
                // A second guided loop must get a fresh cursor.
                w.for_guided(0..97, 3, |i| {
                    hits.lock().unwrap()[i as usize] += 1;
                });
            });
        });
        assert!(hits.into_inner().unwrap().iter().all(|&h| h == 2));
    }

    #[test]
    fn ordered_blocks_run_in_iteration_order() {
        let sim = OmpSim::new();
        let order = Mutex::new(Vec::new());
        sim.run(|ctx| {
            ctx.parallel(4, |w| {
                w.for_static_ordered(0..16, |i, ol| {
                    w.ordered(ol, i, || {
                        order.lock().unwrap().push(i);
                    });
                });
                w.for_dynamic_pinned_ordered(16..32, 3, |i, ol| {
                    w.ordered(ol, i, || {
                        order.lock().unwrap().push(i);
                    });
                });
            });
        });
        let order = order.into_inner().unwrap();
        assert_eq!(order, (0..32).collect::<Vec<u64>>());
    }

    #[test]
    fn ordered_uses_the_mutex_callbacks() {
        let tool = Arc::new(CountingTool::default());
        let sim = OmpSim::with_tool(tool.clone());
        sim.run(|ctx| {
            ctx.parallel(2, |w| {
                w.for_static_ordered(0..6, |i, ol| {
                    w.ordered(ol, i, || {});
                });
            });
        });
        assert_eq!(tool.mutexes.load(Ordering::Relaxed), 6, "one acquire per ordered block");
    }

    #[test]
    fn explicit_pc_accessors_attribute_to_interned_sites() {
        let tool = Arc::new(PcCollector::default());
        let sim = OmpSim::with_tool(tool.clone());
        let buf = sim.alloc::<u64>(4, 0);
        let site_a = sim.intern_site("gen", 1);
        let site_b = sim.intern_site("gen", 2);
        assert_eq!(sim.intern_site("gen", 1), site_a, "interning is idempotent");
        sim.run(|ctx| {
            ctx.parallel(1, |w| {
                // One Rust line, two program sites.
                for (site, i) in [(site_a, 0), (site_b, 1)] {
                    w.write_pc(&buf, i, 7, site);
                    assert_eq!(w.read_pc(&buf, i, site), 7);
                }
                w.atomic_write_pc(&buf, 2, 9, site_a);
                assert_eq!(w.atomic_read_pc(&buf, 2, site_b), 9);
            });
            // Outside a region the explicit-PC path is uninstrumented too.
            ctx.write_pc(&buf, 3, 1, site_a);
        });
        let pcs = tool.pcs.lock().unwrap().clone();
        assert_eq!(pcs.len(), 6);
        assert_eq!(pcs.iter().filter(|&&p| p == site_a).count(), 3);
        assert_eq!(pcs.iter().filter(|&&p| p == site_b).count(), 3);
        let table = sim.export_pcs();
        assert_eq!(table.resolve(site_b).unwrap().line, 2);
        assert_eq!(table.resolve(site_b).unwrap().file, "gen");
    }
}
