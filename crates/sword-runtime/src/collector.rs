//! The collector tool: callback handling, pooled double-buffered flushing,
//! parallel compression workers feeding one ordered file writer, and
//! session persistence.
//!
//! Flush-path architecture:
//!
//! ```text
//! app threads ──full buffer──▶ flush channel ──▶ compression workers
//!      ▲                                          │ (encode frame,
//!      └──── drained buffer ◀── BufferPool ◀──────┘  release buffer)
//!                                                  │ (seq, frame)
//!                                                  ▼
//!                                         ordered file writer
//!                                      (global-seq order ⇒ per-thread
//!                                       order; owns the live watermark)
//! ```
//!
//! Every flush carries a global sequence number taken at handoff. Workers
//! compress out of order; the writer buffers out-of-order arrivals and
//! writes strictly by sequence, so each thread's log file receives its
//! blocks in exactly the order that thread produced them — the invariant
//! the per-thread meta byte ranges and the live watermark protocol depend
//! on. The writer's count of blocks written in that order is also what
//! [`SwordCollector::publish_progress`] waits on.
//!
//! In front of that pipeline every logical thread owns a *lane*: at
//! `thread_begin`/`task_begin` the collector checks the thread-owned half
//! of the thread's state ([`Hot`]: buffer, encoder, open interval) out of
//! the shared slot into the context's [`ToolLocal`](sword_ompsim::ToolLocal)
//! slot — OMPT's `thread_data` — and parks it back at
//! `thread_end`/`task_end`. Accesses arrive as runs of up to
//! `RUN_ACCESSES` (the runtime holds a context's accesses back until it
//! has that many or the context makes another callback), so an access is:
//! one lane borrow per run, then encode and count. The slot's mutex
//! guards only what other threads read ([`ThreadLog`]: meta rows, totals,
//! the journal recorder) and is taken where the halves meet — an interval
//! closing, a flush hand-off, a park — never per event.

use std::collections::{BTreeMap, HashMap};
use std::fs::File;
use std::io::{self, BufWriter, Write as _};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use sword_compress::{encode_frame_into, Compressor};
use sword_obs::{
    FlowPhase, Gauge, Histogram, Journal, JournalSink, Layer, Obs, Registry, ThreadJournal,
};
use sword_ompsim::{
    OmpSim, ParallelBeginInfo, SimConfig, TaskCreateInfo, TaskUid, ThreadContext, Tool,
};
use sword_trace::{
    meta, Event, LiveStatus, LogWriter, MemAccess, MutexId, PcTable, RegionId, RegionRecord,
    SessionDir, ThreadId,
};

use crate::flush_stats::{FlushRows, FlushSnapshot};
use crate::lock;
use crate::pool::BufferPool;
use crate::thread_log::{Hot, ThreadLog, MAX_EVENT_BYTES, PAPER_BUFFER_EVENTS};

/// Collector configuration.
#[derive(Clone, Debug)]
pub struct SwordConfig {
    /// Session directory for logs and meta-data.
    pub session_dir: PathBuf,
    /// Bounded buffer capacity in events (paper default: 25,000).
    pub buffer_events: usize,
    /// Publish watermarked metadata snapshots while the run is still
    /// executing, so a live analyzer can follow along (see
    /// [`SwordCollector::publish_progress`]).
    pub live_publish: bool,
    /// Compression workers between the app threads and the ordered file
    /// writer (at least 1).
    pub compress_workers: usize,
    /// Observability context. When set, the collector counts its flush
    /// path into its registry (and not into one of its own), journals
    /// spans (flush handoffs, compression, writes) to
    /// `<session>/obs.jsonl`, registers its pool and memory sources, and
    /// writes `<session>/metrics.prom` at finalize. `None` (default)
    /// records nothing beyond the flush counts [`SwordStats::flush`]
    /// reads.
    pub obs: Option<Obs>,
}

/// Default compression-worker count: a small slice of the machine, since
/// compression is far cheaper than event production.
fn default_compress_workers() -> usize {
    std::thread::available_parallelism().map(|n| (n.get() / 4).clamp(1, 4)).unwrap_or(1)
}

impl SwordConfig {
    /// Paper defaults writing into `session_dir`.
    pub fn new(session_dir: impl Into<PathBuf>) -> Self {
        SwordConfig {
            session_dir: session_dir.into(),
            buffer_events: PAPER_BUFFER_EVENTS,
            live_publish: false,
            compress_workers: default_compress_workers(),
            obs: None,
        }
    }

    /// Attaches an observability context (shared with the caller, who can
    /// snapshot its registry or append more layers to its journal).
    pub fn with_obs(mut self, obs: Obs) -> Self {
        self.obs = Some(obs);
        self
    }

    /// Overrides the compression-worker count (clamped to at least one).
    pub fn compress_workers(mut self, workers: usize) -> Self {
        self.compress_workers = workers.max(1);
        self
    }

    /// Overrides the buffer capacity (the §III-A buffer-size ablation).
    /// Clamped to at least one event.
    pub fn buffer_events(mut self, events: usize) -> Self {
        self.buffer_events = events.max(1);
        self
    }

    /// Enables live metadata publishing during the run.
    pub fn live(mut self) -> Self {
        self.live_publish = true;
        self
    }
}

/// Summary of one collection run.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct SwordStats {
    /// Events logged across all threads.
    pub events: u64,
    /// Buffer flushes across all threads.
    pub flushes: u64,
    /// Uncompressed bytes produced.
    pub raw_bytes: u64,
    /// Compressed bytes written to log files (frame headers included).
    pub compressed_bytes: u64,
    /// Distinct worker threads (= log files).
    pub threads: u64,
    /// Parallel region instances observed.
    pub regions: u64,
    /// Barrier intervals recorded (meta rows).
    pub barrier_intervals: u64,
    /// Measured bounded collector memory: the buffer pool's full created
    /// capacity (buffers being filled, in flight, and spare) plus
    /// per-thread bookkeeping — independent of the application footprint.
    pub tool_memory_bytes: u64,
    /// Flush-path counters: handoffs, app-thread stall time, compression
    /// busy time, achieved ratio.
    pub flush: FlushSnapshot,
}

impl SwordStats {
    /// Achieved compression ratio.
    pub fn compression_ratio(&self) -> f64 {
        if self.compressed_bytes == 0 {
            1.0
        } else {
            self.raw_bytes as f64 / self.compressed_bytes as f64
        }
    }
}

/// Causal-trace stamp riding a queued job: the flow id minted at the
/// producing side and the enqueue timestamp, so the consumer can record
/// the queue wait and continue the flow chain.
#[derive(Clone, Copy)]
struct FlowTag {
    flow: u64,
    enqueued_us: u64,
}

/// A filled buffer on its way to a compression worker. `seq` is the
/// global handoff order; the writer restores it after parallel
/// compression.
struct FlushJob {
    seq: u64,
    tid: ThreadId,
    block: Vec<u8>,
    trace: Option<FlowTag>,
}

/// An encoded frame on its way to the ordered writer.
struct WriteJob {
    seq: u64,
    tid: ThreadId,
    raw_len: u64,
    frame: Vec<u8>,
    trace: Option<FlowTag>,
}

/// Per-stage causal-tracing handles shared along the flush pipeline:
/// queue-wait histograms, the flush-channel depth, and the journal that
/// mints flow ids. Present exactly when the collector has an [`Obs`].
#[derive(Clone)]
struct StageObs {
    journal: Journal,
    flush_wait_us: Histogram,
    write_wait_us: Histogram,
    flush_depth: Gauge,
}

impl StageObs {
    fn new(obs: &Obs) -> StageObs {
        StageObs {
            flush_depth: obs.registry.gauge(
                "sword_flush_queue_depth",
                "filled buffers waiting for a compression worker",
            ),
            journal: obs.journal.clone(),
            flush_wait_us: obs.registry.histogram(
                "sword_flush_queue_wait_us",
                "enqueue-to-dequeue wait on the flush channel",
            ),
            write_wait_us: obs.registry.histogram(
                "sword_write_queue_wait_us",
                "enqueue-to-dequeue wait on the writer channel",
            ),
        }
    }

    /// Stamps a job entering a queue (bumping the flush-queue depth when
    /// `depth` is set); reuses the producer's flow id when given.
    fn enqueue(&self, flow: Option<u64>, count_depth: bool) -> FlowTag {
        if count_depth {
            self.flush_depth.add(1);
        }
        FlowTag {
            flow: flow.unwrap_or_else(|| self.journal.next_flow_id()),
            enqueued_us: self.journal.now_us(),
        }
    }
}

/// Writer-thread result: (raw bytes, compressed bytes).
type WriterTotals = (u64, u64);

/// How far the ordered writer has come, for
/// [`SwordCollector::publish_progress`] to wait on: the blocks it has
/// written in sequence order (in live mode also flushed and confirmed),
/// or `u64::MAX` once it can write no more.
#[derive(Default)]
struct Progress {
    written: Mutex<u64>,
    advanced: Condvar,
}

impl Progress {
    fn reach(&self, written: u64) {
        let mut current = lock(&self.written);
        *current = written.max(*current);
        drop(current);
        self.advanced.notify_all();
    }

    /// Blocks until `blocks` blocks are written or the writer is gone.
    fn wait_for(&self, blocks: u64) {
        drop(self.advanced.wait_while(lock(&self.written), |w| *w < blocks));
    }
}

/// Ends every wait on the writer's [`Progress`] when dropped. The writer
/// holds one for its whole life, so however it ends — done, failed or
/// panicked — `publish_progress` returns; a compression worker holds one
/// that fires only if it panics, since the block in its hands leaves a
/// gap the writer would wait at forever.
struct Halt {
    progress: Arc<Progress>,
    only_on_panic: bool,
}

impl Drop for Halt {
    fn drop(&mut self) {
        if !self.only_on_panic || std::thread::panicking() {
            self.progress.reach(u64::MAX);
        }
    }
}

/// One logical thread's slot in the collector: the shared half of its
/// state, which doubles as the parking place of the thread-owned half.
type Slot = Arc<Mutex<ThreadLog>>;

/// What a running context keeps in its `ToolLocal` slot between
/// `thread_begin`/`task_begin` and `thread_end`/`task_end`: the
/// thread-owned half of its tid's state, and the way back to the shared
/// half for the moments the two meet.
struct Lane {
    tid: ThreadId,
    slot: Slot,
    hot: Hot,
}

/// Accesses the collector takes per [`Tool::access`] call: what the
/// runtime holds back per context so that the callback, the context
/// snapshot and the lane borrow are paid once per run. Nothing the
/// collector writes depends on *when* between two of a thread's
/// synchronisation events it sees that thread's accesses, only on their
/// order; 64 is where the per-run costs stop showing (256 measures the
/// same).
const RUN_ACCESSES: usize = 64;

/// Fixed per-thread bookkeeping counted into the memory bound: both
/// halves of the state, the lane that carries one of them, and the run
/// the runtime holds back on the collector's behalf. The event buffers
/// are pool-owned and counted there. Three costs are left out, so the
/// figure stays the paper's `N × (B + C)` model of the event path:
///
/// * meta rows — O(regions), spilled with the logs in a production
///   setting;
/// * each compression worker's LZ hash table, 2¹⁵ `u32` entries =
///   128 KiB (`Compressor`), whatever the thread count;
/// * the writer's 8 KiB `BufWriter` per log file, one per thread.
const THREAD_BOOKKEEPING_BYTES: u64 = (std::mem::size_of::<ThreadLog>()
    + std::mem::size_of::<Lane>()
    + RUN_ACCESSES * std::mem::size_of::<MemAccess>()) as u64;

/// How often the async writer republishes live metadata at most.
const LIVE_PUBLISH_INTERVAL: Duration = Duration::from_millis(25);

/// How often the async writer drains the journal rings to disk and
/// appends a registry snapshot — the crash-durability cadence: a killed
/// run's journal is at most this stale.
const OBS_FLUSH_INTERVAL: Duration = Duration::from_millis(250);

/// The collector's observability context: the shared [`Obs`] handle plus
/// the journal sink writing `<session>/obs.jsonl`.
struct CollectorObs {
    obs: Obs,
    sink: Mutex<(JournalSink, u64)>,
}

impl CollectorObs {
    /// Drains journal rings to the sink (tolerating I/O failure: telemetry
    /// must never fail the run).
    fn flush_journal(&self) {
        let mut guard = lock(&self.sink);
        let (sink, last_dropped) = &mut *guard;
        let _ = sink.drain_from(&self.obs.journal, last_dropped);
    }

    /// Appends a registry snapshot to the journal, then drains to disk.
    fn snapshot_and_flush(&self) {
        self.obs.snapshot_to_journal();
        self.flush_journal();
    }
}

/// Observability state owned by the writer thread: per-write spans, the
/// queue-depth gauge, and the periodic journal drain.
struct WriterObs {
    ctx: Arc<CollectorObs>,
    journal: ThreadJournal,
    queue_depth: Gauge,
    stage: StageObs,
    last_flush: Instant,
}

impl WriterObs {
    /// Called after each received job's writes, and once the channel
    /// closes, with the frames still in the reorder buffer: those waiting
    /// on a sequence gap.
    fn note_queue(&mut self, depth: usize) {
        self.queue_depth.set(depth as u64);
        if self.last_flush.elapsed() >= OBS_FLUSH_INTERVAL {
            self.ctx.snapshot_and_flush();
            self.last_flush = Instant::now();
        }
    }
}

/// State shared between the collector facade and the background writer
/// thread, so either side can take a watermarked metadata snapshot.
struct Inner {
    session: SessionDir,
    slots: Mutex<HashMap<ThreadId, Slot>>,
    regions: Mutex<Vec<RegionRecord>>,
    /// Durably flushed *uncompressed* log bytes per thread — the live
    /// watermark. Only rows whose byte range lies entirely below this are
    /// published mid-run.
    confirmed: Mutex<HashMap<ThreadId, u64>>,
    /// Live publish counter (mirrors `live.meta`). Held for the whole of
    /// a publish: the writer thread's throttled publishes and an explicit
    /// [`SwordCollector::publish_progress`] share one `.tmp` name per
    /// file, and a later generation must not be overwritten by an earlier
    /// snapshot.
    generation: Mutex<u64>,
    error: Mutex<Option<io::Error>>,
    #[cfg(test)]
    probes: Probes,
}

/// Test-only visit counts behind the lane contract: how often a run
/// looks a slot up and locks a thread's shared half must be a function
/// of intervals, flushes and tasks, never of accesses.
#[cfg(test)]
#[derive(Default)]
struct Probes {
    slot_lookups: AtomicU64,
    log_locks: AtomicU64,
}

impl Inner {
    /// Locks a thread's shared half. Every such lock goes through here.
    fn lock_log<'a>(&self, slot: &'a Slot) -> MutexGuard<'a, ThreadLog> {
        #[cfg(test)]
        self.probes.log_locks.fetch_add(1, Ordering::Relaxed);
        lock(slot)
    }

    /// Every slot registered so far.
    fn slot_list(&self) -> Vec<(ThreadId, Slot)> {
        lock(&self.slots).iter().map(|(tid, s)| (*tid, Arc::clone(s))).collect()
    }

    /// Publishes a consistent metadata snapshot covering only durably
    /// flushed log bytes.
    ///
    /// Ordering matters twice over. The *meta rows* are snapshotted before
    /// the *region table*, so every region id a published row references is
    /// present in the (equal or newer) region snapshot. On disk the region
    /// table is then written before the per-thread metas, the mirror image
    /// of the reader's meta-then-regions order, preserving that guarantee
    /// across the atomic file replacements.
    fn publish(&self, finished: bool) -> io::Result<()> {
        let mut generation = lock(&self.generation);
        let confirmed: HashMap<ThreadId, u64> = lock(&self.confirmed).clone();
        let slots = self.slot_list();
        let mut metas = Vec::with_capacity(slots.len());
        for (tid, slot) in slots {
            let limit = confirmed.get(&tid).copied().unwrap_or(0);
            let log = self.lock_log(&slot);
            let rows: Vec<_> =
                log.meta.iter().take_while(|r| r.data_begin + r.size <= limit).cloned().collect();
            metas.push((tid, rows));
        }
        let regions = lock(&self.regions).clone();
        let mut buf = Vec::new();
        meta::write_regions(&mut buf, &regions)?;
        self.session.write_file_atomic(&self.session.regions_path(), &buf)?;
        for (tid, rows) in &metas {
            let mut buf = Vec::new();
            meta::write_meta(&mut buf, rows)?;
            self.session.write_file_atomic(&self.session.thread_meta(*tid), &buf)?;
        }
        *generation += 1;
        self.session.write_live(LiveStatus { generation: *generation, finished })
    }
}

/// One compression worker: pulls filled buffers off the shared flush
/// channel, encodes each as a complete frame with a worker-owned
/// [`Compressor`] (hash table allocated once, recycled across blocks),
/// returns the drained buffer to the pool, and hands the frame to the
/// ordered writer. Compression itself is infallible; only the writer does
/// I/O. A failed send to the writer means the writer died on an I/O error
/// — the worker keeps draining so app threads never deadlock on the pool.
fn compression_worker(
    rx: Arc<Mutex<Receiver<FlushJob>>>,
    writer_tx: Sender<WriteJob>,
    pool: Arc<BufferPool>,
    flush: FlushRows,
    obs: Option<(ThreadJournal, StageObs)>,
) {
    let mut compressor = Compressor::new();
    loop {
        // The workers share one receiver; its lock is held across `recv`
        // only, never while compressing.
        let Ok(job) = lock(&rx).recv() else { break };
        let t0 = obs.as_ref().map(|(j, _)| j.now_us());
        // Dequeue side of the flush channel: settle the depth gauge and
        // record the enqueue-to-dequeue wait the producer stamped.
        if let (Some((_, stage)), Some(tag), Some(t0)) = (&obs, job.trace, t0) {
            stage.flush_depth.sub(1);
            stage.flush_wait_us.record(t0.saturating_sub(tag.enqueued_us));
        }
        let start = Instant::now();
        let mut frame = Vec::new();
        encode_frame_into(&mut compressor, &job.block, &mut frame);
        let raw_len = job.block.len() as u64;
        flush.compress_nanos.add(elapsed_nanos(start));
        flush.raw_bytes.add(raw_len);
        flush.compressed_bytes.add(frame.len() as u64);
        if let (Some((journal, _)), Some(t0)) = (&obs, t0) {
            journal.span_closed_flow(
                "compress",
                t0,
                journal.now_us().saturating_sub(t0),
                vec![
                    ("raw_bytes".into(), raw_len as f64),
                    ("frame_bytes".into(), frame.len() as f64),
                ],
                job.trace.map(|tag| (tag.flow, FlowPhase::Step)),
            );
        }
        pool.release(job.block);
        // Re-stamp the tag for the writer-channel hop, keeping the flow id.
        let trace = obs
            .as_ref()
            .zip(job.trace)
            .map(|((_, stage), tag)| stage.enqueue(Some(tag.flow), false));
        let _ = writer_tx.send(WriteJob { seq: job.seq, tid: job.tid, raw_len, frame, trace });
    }
}

/// Writes one frame on the ordered writer thread, maintaining the live
/// watermark exactly as PR 1's single writer did: bytes enter `confirmed`
/// only after the file write (and, in live mode, a flush) completes.
fn write_one(
    shared: &Inner,
    flush: &FlushRows,
    live: bool,
    writers: &mut HashMap<ThreadId, LogWriter<BufWriter<File>>>,
    last_publish: &mut Instant,
    obs: Option<&WriterObs>,
    job: WriteJob,
) -> io::Result<()> {
    let t0 = obs.map(|o| o.journal.now_us());
    let start = Instant::now();
    let w = match writers.entry(job.tid) {
        std::collections::hash_map::Entry::Occupied(e) => e.into_mut(),
        std::collections::hash_map::Entry::Vacant(e) => {
            let f = File::create(shared.session.thread_log(job.tid))?;
            e.insert(LogWriter::new(BufWriter::new(f)))
        }
    };
    w.write_encoded_block(&job.frame, job.raw_len)?;
    flush.write_nanos.add(elapsed_nanos(start));
    if let (Some(o), Some(t0)) = (obs, t0) {
        if let Some(tag) = job.trace {
            o.stage.write_wait_us.record(t0.saturating_sub(tag.enqueued_us));
        }
        o.journal.span_closed_flow(
            "write",
            t0,
            o.journal.now_us().saturating_sub(t0),
            vec![("frame_bytes".into(), job.frame.len() as f64)],
            job.trace.map(|tag| (tag.flow, FlowPhase::End)),
        );
    }
    if live {
        // Flush so the bytes are readable by a concurrent analyzer, then
        // raise the watermark and (throttled) republish.
        w.flush()?;
        lock(&shared.confirmed).insert(job.tid, w.offset());
        if last_publish.elapsed() >= LIVE_PUBLISH_INTERVAL {
            shared.publish(false)?;
            *last_publish = Instant::now();
        }
    }
    Ok(())
}

/// Registers the collector's live state as registry sources: pool
/// occupancy and the bounded tool-memory figure, read at snapshot time.
fn register_collector_sources(obs: &Obs, pool: &Arc<BufferPool>, inner: &Arc<Inner>) {
    let reg = &obs.registry;
    let p = Arc::clone(pool);
    reg.source("sword_pool_buffers_free", "drained spare buffers in the pool", move || {
        p.occupancy().0 as f64
    });
    let p = Arc::clone(pool);
    reg.source("sword_pool_buffers_created", "buffers created (in use + spare)", move || {
        p.occupancy().1 as f64
    });
    let p = Arc::clone(pool);
    reg.source("sword_pool_buffer_budget", "pool budget (2*threads + workers)", move || {
        p.occupancy().2 as f64
    });
    let p = Arc::clone(pool);
    reg.source("sword_pool_stall_total", "acquires that blocked at the pool budget", move || {
        p.stalls() as f64
    });
    let p = Arc::clone(pool);
    let i = Arc::clone(inner);
    reg.source(
        "sword_collector_tool_mem_bytes",
        "bounded collector footprint: pool capacity + per-thread bookkeeping",
        move || {
            let slots = lock(&i.slots).len() as u64;
            (p.created_bytes() + slots * THREAD_BOOKKEEPING_BYTES) as f64
        },
    );
}

#[inline]
fn elapsed_nanos(start: Instant) -> u64 {
    u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

/// The SWORD online collector. Attach to an [`OmpSim`] as its tool; after
/// the run, call [`SwordCollector::write_pcs`] and read
/// [`SwordCollector::stats`].
pub struct SwordCollector {
    config: SwordConfig,
    inner: Arc<Inner>,
    region_count: AtomicU64,
    /// The flush channel to the compression workers; `None` once
    /// finalize has closed it.
    tx: Mutex<Option<Sender<FlushJob>>>,
    workers: Mutex<Vec<JoinHandle<()>>>,
    writer: Mutex<Option<JoinHandle<io::Result<WriterTotals>>>>,
    progress: Arc<Progress>,
    pool: Arc<BufferPool>,
    flush: FlushRows,
    /// Global flush handoff order; the ordered writer restores it.
    flush_seq: AtomicU64,
    writer_totals: Mutex<Option<(u64, u64)>>,
    finished: Mutex<bool>,
    obs: Option<Arc<CollectorObs>>,
    /// Causal-tracing handles for the flush pipeline (set iff `obs` is).
    stage: Option<StageObs>,
}

impl SwordCollector {
    /// Creates the collector and its session directory (cleaning any
    /// previous session's files).
    pub fn new(config: SwordConfig) -> io::Result<Self> {
        let session = SessionDir::new(&config.session_dir);
        session.create()?;
        session.clean()?;
        let inner = Arc::new(Inner {
            session,
            slots: Mutex::new(HashMap::new()),
            regions: Mutex::new(Vec::new()),
            confirmed: Mutex::new(HashMap::new()),
            generation: Mutex::new(0),
            error: Mutex::new(None),
            #[cfg(test)]
            probes: Probes::default(),
        });
        let flush =
            FlushRows::new(&config.obs.as_ref().map_or_else(Registry::new, |o| o.registry.clone()));
        let worker_count = config.compress_workers.max(1);
        // Budget: one in-flight slot per worker now; two more per thread
        // as each registers (double buffering) — see `slot`.
        let pool =
            Arc::new(BufferPool::new(config.buffer_events.max(1) * MAX_EVENT_BYTES, worker_count));
        let obs_ctx = match &config.obs {
            Some(obs) => {
                let sink = JournalSink::create(inner.session.obs_path())?;
                let ctx = Arc::new(CollectorObs { obs: obs.clone(), sink: Mutex::new((sink, 0)) });
                register_collector_sources(obs, &pool, &inner);
                Some(ctx)
            }
            None => None,
        };
        let stage = config.obs.as_ref().map(StageObs::new);
        let progress = Arc::new(Progress::default());
        let (tx, rx) = channel::<FlushJob>();
        let rx = Arc::new(Mutex::new(rx));
        let (writer_tx, writer_rx) = channel::<WriteJob>();
        let mut workers = Vec::with_capacity(worker_count);
        for i in 0..worker_count {
            let rx = Arc::clone(&rx);
            let writer_tx = writer_tx.clone();
            let pool = Arc::clone(&pool);
            let flush = flush.clone();
            let halt = Halt { progress: Arc::clone(&progress), only_on_panic: true };
            let worker_obs = obs_ctx.as_ref().zip(stage.as_ref()).map(|(ctx, stage)| {
                (ctx.obs.journal.for_thread(Layer::Runtime, format!("compress-{i}")), stage.clone())
            });
            workers.push(std::thread::Builder::new().name(format!("sword-compress-{i}")).spawn(
                move || {
                    let _halt = halt;
                    compression_worker(rx, writer_tx, pool, flush, worker_obs)
                },
            )?);
        }
        // Workers hold the only remaining writer_tx clones: the writer
        // channel closes exactly when the last worker exits.
        drop(writer_tx);
        let shared = Arc::clone(&inner);
        let writer_flush = flush.clone();
        let halt = Halt { progress: Arc::clone(&progress), only_on_panic: false };
        let live = config.live_publish;
        let mut writer_obs = obs_ctx.as_ref().zip(stage.as_ref()).map(|(ctx, stage)| WriterObs {
            ctx: Arc::clone(ctx),
            journal: ctx.obs.journal.for_thread(Layer::Runtime, "writer"),
            queue_depth: ctx
                .obs
                .registry
                .gauge("sword_writer_queue_depth", "frames waiting in the reorder buffer"),
            stage: stage.clone(),
            last_flush: Instant::now(),
        });
        let writer = std::thread::Builder::new().name("sword-writer".into()).spawn(
            move || -> io::Result<WriterTotals> {
                // Dropped when this thread ends, however it ends.
                let halt = halt;
                let mut writers: HashMap<ThreadId, LogWriter<BufWriter<File>>> = HashMap::new();
                let mut pending: BTreeMap<u64, WriteJob> = BTreeMap::new();
                let mut next_seq = 0u64;
                let mut last_publish = Instant::now();
                for job in writer_rx {
                    pending.insert(job.seq, job);
                    // Write every contiguous frame; later sequence
                    // numbers wait here until the gap fills, keeping
                    // each thread's log in production order.
                    while let Some(job) = pending.remove(&next_seq) {
                        next_seq += 1;
                        write_one(
                            &shared,
                            &writer_flush,
                            live,
                            &mut writers,
                            &mut last_publish,
                            writer_obs.as_ref(),
                            job,
                        )?;
                    }
                    if let Some(o) = writer_obs.as_mut() {
                        o.note_queue(pending.len());
                    }
                    halt.progress.reach(next_seq);
                }
                // Channel closed. A sequence gap can remain only if a
                // handoff was lost to a dead worker (error already
                // recorded); persist what arrived, still in order.
                for (_, job) in std::mem::take(&mut pending) {
                    write_one(
                        &shared,
                        &writer_flush,
                        live,
                        &mut writers,
                        &mut last_publish,
                        writer_obs.as_ref(),
                        job,
                    )?;
                }
                if let Some(o) = writer_obs.as_mut() {
                    o.note_queue(0);
                }
                let mut raw = 0;
                let mut compressed = 0;
                for (_, mut w) in writers {
                    w.flush()?;
                    raw += w.raw_bytes();
                    compressed += w.written_bytes();
                }
                Ok((raw, compressed))
            },
        )?;
        Ok(SwordCollector {
            config,
            inner,
            region_count: AtomicU64::new(0),
            tx: Mutex::new(Some(tx)),
            workers: Mutex::new(workers),
            writer: Mutex::new(Some(writer)),
            progress,
            pool,
            flush,
            flush_seq: AtomicU64::new(0),
            writer_totals: Mutex::new(None),
            finished: Mutex::new(false),
            obs: obs_ctx,
            stage,
        })
    }

    /// The attached observability context, if any.
    pub fn obs(&self) -> Option<&Obs> {
        self.obs.as_deref().map(|ctx| &ctx.obs)
    }

    /// The session directory being written.
    pub fn session(&self) -> &SessionDir {
        &self.inner.session
    }

    /// Publishes a watermarked metadata snapshot covering every barrier
    /// interval whose log bytes were handed off before the call.
    ///
    /// It first waits until the ordered writer has written — and, in live
    /// mode, flushed and confirmed — every block shipped so far (or until
    /// the writer has exited, when nothing more will be confirmed), then
    /// publishes. Without live mode the writer confirms nothing before
    /// finalize, so the snapshot holds no rows. The writer also publishes
    /// on a short throttle in live mode, so calling this is optional: it
    /// is the deterministic publish point.
    pub fn publish_progress(&self) -> io::Result<()> {
        // Relaxed suffices: a hand-off ordered before this call took its
        // number before it returned, and the blocks travel by channel.
        self.progress.wait_for(self.flush_seq.load(Ordering::Relaxed));
        self.inner.publish(false)
    }

    /// Persists the program-counter table (call after the run, with
    /// [`OmpSim::export_pcs`]).
    pub fn write_pcs(&self, table: &PcTable) -> io::Result<()> {
        let mut f = BufWriter::new(File::create(self.inner.session.pcs_path())?);
        table.write_to(&mut f)?;
        f.flush()
    }

    /// First I/O error encountered, if any (the collector drops data after
    /// an error rather than corrupting the session).
    pub fn take_error(&self) -> Option<io::Error> {
        lock(&self.inner.error).take()
    }

    /// Run summary. Exact after `program_end`; mid-run, a thread inside a
    /// region has its events counted up to its last flush (it lags by
    /// less than one buffer, plus the one run of at most `RUN_ACCESSES`
    /// accesses the runtime may be holding back for it).
    pub fn stats(&self) -> SwordStats {
        let mut stats = SwordStats {
            regions: self.region_count.load(Ordering::Relaxed),
            ..SwordStats::default()
        };
        let slots = self.inner.slot_list();
        stats.threads = slots.len() as u64;
        for (_, slot) in &slots {
            let log = self.inner.lock_log(slot);
            stats.events += log.events_total;
            stats.flushes += log.flushes;
            stats.barrier_intervals += log.meta.len() as u64;
        }
        stats.tool_memory_bytes += stats.threads * THREAD_BOOKKEEPING_BYTES;
        // Every event buffer in existence — being filled, in flight to a
        // worker, or spare — came from the pool, so its created capacity
        // IS the bounded event-path footprint: 2·threads + workers
        // buffers, regardless of run length or application size.
        stats.tool_memory_bytes += self.pool.created_bytes();
        if let Some((raw, compressed)) = *lock(&self.writer_totals) {
            stats.raw_bytes = raw;
            stats.compressed_bytes = compressed;
        }
        stats.flush = self.flush.snapshot();
        stats
    }

    /// Measured bounded memory (buffers + bookkeeping).
    pub fn tool_memory_bytes(&self) -> u64 {
        self.stats().tool_memory_bytes
    }

    fn record_error(&self, e: io::Error) {
        lock(&self.inner.error).get_or_insert(e);
    }

    /// A callback arrived on a context that holds no lane (it never saw
    /// `thread_begin`/`task_begin`). Whatever it carried is dropped, out
    /// loud.
    #[cold]
    fn not_entered(&self, tid: ThreadId) {
        self.record_error(io::Error::other(format!(
            "callback on thread {tid} outside thread_begin..thread_end; its events are lost"
        )));
    }

    /// The slot of `tid`, created on first sight. Called once per
    /// `thread_begin`/`task_begin`, never per event.
    fn slot(&self, tid: ThreadId) -> Slot {
        #[cfg(test)]
        self.inner.probes.slot_lookups.fetch_add(1, Ordering::Relaxed);
        let mut slots = lock(&self.inner.slots);
        Arc::clone(slots.entry(tid).or_insert_with(|| {
            // Double buffering: each thread funds two pool slots — the
            // buffer it fills and the drained one it swaps in at flush
            // time. The budget grows before the acquire, so this initial
            // acquire never blocks.
            self.pool.grow_budget(2);
            let hot = Hot::with_buffer(self.config.buffer_events, self.pool.acquire());
            let obs = self
                .obs
                .as_ref()
                .map(|ctx| ctx.obs.journal.for_thread(Layer::Runtime, format!("app-{tid}")));
            Arc::new(Mutex::new(ThreadLog::new(hot, obs)))
        }))
    }

    /// `thread_begin`/`task_begin`: checks the thread-owned half of
    /// `ctx.tid`'s state out into the context's lane and opens the
    /// context's first interval.
    fn enter(&self, ctx: &ThreadContext<'_>) {
        let slot = self.slot(ctx.tid);
        let parked = self.inner.lock_log(&slot).parked.take();
        match parked {
            Some(mut hot) => {
                hot.open_interval(ctx);
                let stale = ctx.tool_data.put(Lane { tid: ctx.tid, slot, hot });
                debug_assert!(stale.is_none(), "context entered with a lane in place");
            }
            // The tid is running on another context: leave that lane
            // alone; this context gets none and its events are lost.
            None => self.record_error(io::Error::other(format!(
                "thread {} entered while its lane is checked out elsewhere; \
                 this context's events are lost",
                ctx.tid
            ))),
        }
    }

    /// `thread_end`/`task_end`: closes the context's last interval and
    /// parks the lane's state back in its slot.
    fn leave(&self, ctx: &ThreadContext<'_>) {
        let Some(Lane { slot, mut hot, .. }) = ctx.tool_data.take::<Lane>() else {
            return self.not_entered(ctx.tid);
        };
        let row = hot.close_interval();
        let mut log = self.inner.lock_log(&slot);
        log.meta.extend(row);
        log.park(hot);
    }

    /// Runs `f` on the context's lane.
    #[inline]
    fn with_lane(&self, ctx: &ThreadContext<'_>, f: impl FnOnce(&mut Lane)) {
        if ctx.tool_data.with(f).is_none() {
            self.not_entered(ctx.tid);
        }
    }

    /// Closes the lane's open interval, if any, publishing its row.
    fn close_interval(&self, lane: &mut Lane) {
        if let Some(row) = lane.hot.close_interval() {
            self.inner.lock_log(&lane.slot).meta.push(row);
        }
    }

    fn ship(&self, tid: ThreadId, block: Vec<u8>, flow: Option<u64>) {
        self.flush.flushes.inc();
        let tx = lock(&self.tx);
        let Some(tx) = tx.as_ref() else {
            // The pipeline is already shut: give the buffer back and say
            // what went missing.
            drop(tx);
            self.pool.release(block);
            return self.record_error(io::Error::other(format!(
                "thread {tid} flushed after finalize; the block is lost"
            )));
        };
        // Take the sequence number only for a live channel so the ordered
        // writer never waits on a gap that was never sent.
        let seq = self.flush_seq.fetch_add(1, Ordering::Relaxed);
        // Stamp the flush-channel hop (finalize-path ships, which had no
        // handoff span, mint a fresh flow here).
        let trace = self.stage.as_ref().map(|s| s.enqueue(flow, true));
        // Workers only exit on finish; a send failure is recorded once.
        if tx.send(FlushJob { seq, tid, block, trace }).is_err() {
            self.record_error(io::Error::other("sword compression workers gone"));
        }
    }

    /// A mutex event: borrow the lane, encode, count.
    #[inline]
    fn push_event(&self, ctx: &ThreadContext<'_>, event: &Event) {
        self.with_lane(ctx, |lane| {
            if lane.hot.push(event) {
                self.flush(lane);
            }
        });
    }

    /// Double-buffer handoff: trades the lane's full buffer for a drained
    /// one and ships it. `acquire` only blocks when the whole pool budget
    /// is in flight (I/O slower than event production); that backpressure
    /// stall is what `stall_nanos` measures. The journal records only
    /// here, at flush boundaries — once per ~buffer_events events, never
    /// per event.
    #[cold]
    fn flush(&self, lane: &mut Lane) {
        let t0 = self.stage.as_ref().map(|s| s.journal.now_us());
        let start = Instant::now();
        let fresh = self.pool.acquire();
        let stall = elapsed_nanos(start);
        self.flush.stall_nanos.add(stall);
        let block = lane.hot.swap_buffer(fresh);
        // The handoff span starts this block's causal flow; the
        // compress and write spans downstream continue it.
        let flow = self.stage.as_ref().map(|s| s.journal.next_flow_id());
        {
            let mut log = self.inner.lock_log(&lane.slot);
            log.note_flush(&lane.hot);
            if let (Some(tj), Some(t0)) = (&log.obs, t0) {
                tj.span_closed_flow(
                    "flush-handoff",
                    t0,
                    tj.now_us().saturating_sub(t0),
                    vec![("bytes".into(), block.len() as f64), ("stall_ns".into(), stall as f64)],
                    flow.map(|f| (f, FlowPhase::Start)),
                );
            }
        }
        self.ship(lane.tid, block, flow);
    }

    fn finalize(&self) -> io::Result<()> {
        // Drain every parked thread's remaining buffer. A thread whose
        // lane is still checked out is still inside a region: its tail
        // cannot be reached from here, and it must not go quietly.
        let slots = self.inner.slot_list();
        for (tid, slot) in &slots {
            let mut log = self.inner.lock_log(slot);
            let Some(hot) = log.parked.as_mut() else {
                self.record_error(io::Error::other(format!(
                    "thread {tid} still running at finalize; its tail is lost"
                )));
                continue;
            };
            if let Some(block) = hot.drain() {
                log.flushes += 1;
                drop(log);
                self.ship(*tid, block, None);
            }
        }
        // Stop the flush pipeline and collect byte totals: close the
        // flush channel, join the compression workers (their exit drops
        // the last writer senders), then join the ordered writer.
        lock(&self.tx).take(); // close the flush channel
        for handle in lock(&self.workers).drain(..) {
            if handle.join().is_err() {
                self.record_error(io::Error::other("sword compression worker panicked"));
            }
        }
        let totals = match lock(&self.writer).take() {
            Some(handle) => {
                handle.join().map_err(|_| io::Error::other("sword writer thread panicked"))??
            }
            None => (0, 0),
        };
        *lock(&self.writer_totals) = Some(totals);
        // Every log byte is on disk now, so lift the watermark past all
        // rows and publish the complete metadata as the final generation.
        // Regions land before metas and each file is replaced atomically:
        // a live watcher mid-finalize still sees only consistent states.
        {
            let mut confirmed = lock(&self.inner.confirmed);
            for (tid, _) in &slots {
                confirmed.insert(*tid, u64::MAX);
            }
        }
        self.inner.publish(true)?;
        // Run info.
        let mut info = std::collections::BTreeMap::new();
        info.insert("buffer_events".to_string(), self.config.buffer_events.to_string());
        info.insert("threads".to_string(), slots.len().to_string());
        info.insert("regions".to_string(), self.region_count.load(Ordering::Relaxed).to_string());
        // Flush-path counters are complete here (workers and writer have
        // joined), so the offline analyzer can report them post-hoc.
        self.flush.snapshot().to_info(&mut info);
        self.inner.session.write_info(&info)?;
        // Close out the observability side: a finalize marker, one last
        // registry snapshot, the remaining journal rings, and the
        // Prometheus exposition file.
        if let Some(ctx) = &self.obs {
            let journal = ctx.obs.journal.for_thread(Layer::Runtime, "collector");
            journal.instant("finalize", vec![("threads".into(), slots.len() as f64)]);
            ctx.snapshot_and_flush();
            self.inner.session.write_file_atomic(
                &self.inner.session.metrics_path(),
                ctx.obs.registry.render_prometheus().as_bytes(),
            )?;
        }
        Ok(())
    }
}

impl Tool for SwordCollector {
    fn program_end(&self) {
        let mut finished = lock(&self.finished);
        if *finished {
            return;
        }
        *finished = true;
        if let Err(e) = self.finalize() {
            self.record_error(e);
        }
    }

    fn parallel_begin(&self, info: &ParallelBeginInfo<'_>) {
        self.region_count.fetch_add(1, Ordering::Relaxed);
        lock(&self.inner.regions).push(RegionRecord {
            pid: info.region,
            ppid: info.parent_region,
            level: info.level,
            span: info.span,
            fork_label: info.fork_label.to_flat(),
            deps: Vec::new(),
        });
    }

    fn thread_begin(&self, ctx: &ThreadContext<'_>) {
        self.enter(ctx);
    }

    fn thread_end(&self, ctx: &ThreadContext<'_>) {
        self.leave(ctx);
    }

    fn barrier_begin(&self, ctx: &ThreadContext<'_>) {
        self.with_lane(ctx, |lane| self.close_interval(lane));
    }

    fn barrier_end(&self, ctx: &ThreadContext<'_>) {
        self.with_lane(ctx, |lane| lane.hot.open_interval(ctx));
    }

    fn task_create(&self, outer: &ThreadContext<'_>, info: &TaskCreateInfo<'_>) {
        // The task pseudo-region enters the region table like a nested
        // region, with its `depend` predecessors attached — the offline
        // analyzers layer the dependence partial order above the labels.
        lock(&self.inner.regions).push(RegionRecord {
            pid: info.region,
            ppid: Some(info.parent_region),
            level: info.level,
            span: sword_osl::TASK_SPAN,
            fork_label: info.fork_label.to_flat(),
            deps: info.preds.to_vec(),
        });
        // The creator's current row ends at the creation point; the
        // continuation reopens under the pseudo-region at `task_end`.
        self.with_lane(outer, |lane| self.close_interval(lane));
    }

    fn task_begin(&self, _outer: &ThreadContext<'_>, task: &ThreadContext<'_>, _uid: TaskUid) {
        // The task body runs on its creator's OS thread but under its own
        // tid and context: it gets its own lane, beside the creator's.
        self.enter(task);
    }

    fn task_end(&self, task: &ThreadContext<'_>, outer: &ThreadContext<'_>, _uid: TaskUid) {
        self.leave(task);
        self.with_lane(outer, |lane| lane.hot.open_interval(outer));
    }

    fn task_sync(&self, restored: &ThreadContext<'_>, _synced: &[TaskUid]) {
        // Close the chain fragment and reopen under the restored identity
        // (the real region row, or the group-entry row).
        self.with_lane(restored, |lane| {
            self.close_interval(lane);
            lane.hot.open_interval(restored);
        });
    }

    fn mutex_acquired(&self, ctx: &ThreadContext<'_>, mutex: MutexId) {
        self.push_event(ctx, &Event::MutexAcquire(mutex));
    }

    fn mutex_released(&self, ctx: &ThreadContext<'_>, mutex: MutexId) {
        self.push_event(ctx, &Event::MutexRelease(mutex));
    }

    fn max_run(&self) -> usize {
        RUN_ACCESSES
    }

    /// The per-access path: one lane borrow per run, then encode and
    /// count per access, handing the buffer off wherever the run fills it.
    fn access(&self, ctx: &ThreadContext<'_>, run: &[MemAccess]) {
        self.with_lane(ctx, |lane| {
            let mut rest = run;
            while !rest.is_empty() {
                rest = &rest[lane.hot.push_run(rest)..];
                if lane.hot.is_full() {
                    self.flush(lane);
                }
            }
        });
    }

    fn parallel_end(&self, _region: RegionId, _fork_tid: ThreadId) {}
}

/// Convenience harness: build a collector, run `program` against a tooled
/// runtime, persist PCs, and return the program result with collection
/// stats. `program` receives the runtime and is responsible for invoking
/// [`OmpSim::run`].
pub fn run_collected<R>(
    sword: SwordConfig,
    sim_config: SimConfig,
    program: impl FnOnce(&OmpSim) -> R,
) -> io::Result<(R, SwordStats)> {
    let collector = Arc::new(SwordCollector::new(sword)?);
    let sim = OmpSim::with_tool_and_config(collector.clone(), sim_config);
    let result = program(&sim);
    collector.write_pcs(&sim.export_pcs())?;
    if let Some(e) = collector.take_error() {
        return Err(e);
    }
    Ok((result, collector.stats()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::fs;
    use std::io::BufReader;
    use sword_trace::{read_meta, read_regions, AccessKind, EventDecoder, LogReader, MetaRecord};

    fn tmp_session(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("sword-collector-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    fn collect_simple(tag: &str, buffer_events: usize) -> (SessionDir, SwordStats) {
        let dir = tmp_session(tag);
        let config = SwordConfig::new(&dir).buffer_events(buffer_events);
        let (_, stats) = run_collected(config, SimConfig::default(), |sim| {
            let a = sim.alloc::<f64>(256, 0.0);
            sim.run(|ctx| {
                ctx.parallel(4, |w| {
                    w.for_static(0..256, |i| {
                        let v = w.read(&a, i);
                        w.write(&a, i, v + 1.0);
                    });
                    w.critical("sum", || {
                        let v = w.read(&a, 0);
                        w.write(&a, 0, v);
                    });
                });
            });
        })
        .expect("collection succeeds");
        (SessionDir::new(&dir), stats)
    }

    /// Decodes one thread's log row by row, checking on the way that the
    /// rows tile the log exactly: contiguous from byte 0, each decodable
    /// standalone, the last ending where the log does.
    fn decode_rows(session: &SessionDir, tid: ThreadId) -> Vec<(MetaRecord, Vec<Event>)> {
        let rows =
            read_meta(BufReader::new(File::open(session.thread_meta(tid)).unwrap())).unwrap();
        let mut stream = Vec::new();
        let total = LogReader::new(File::open(session.thread_log(tid)).unwrap())
            .read_to_end(&mut stream)
            .unwrap();
        let mut next = 0;
        let decoded = rows
            .into_iter()
            .map(|row| {
                assert_eq!(row.data_begin, next, "rows of tid {tid} leave a gap or overlap");
                next += row.size;
                let bytes = &stream[row.data_begin as usize..next as usize];
                let events = EventDecoder::new().decode_all(bytes).unwrap();
                (row, events)
            })
            .collect();
        assert_eq!(next, total, "rows of tid {tid} cover the log exactly");
        decoded
    }

    /// A hand-made context for `tid`, as a runtime that never called
    /// `thread_begin` would present it.
    fn bare_context<'a>(
        tid: ThreadId,
        label: &'a sword_osl::Label,
        tool_data: &'a sword_ompsim::ToolLocal,
    ) -> ThreadContext<'a> {
        ThreadContext {
            tid,
            region: 0,
            parent_region: None,
            level: 1,
            team_index: 0,
            span: 1,
            bid: 0,
            label,
            tool_data,
        }
    }

    #[test]
    fn session_files_written() {
        let (session, stats) = collect_simple("files", 1000);
        assert_eq!(session.thread_ids().unwrap().len(), 4);
        assert!(session.regions_path().exists());
        assert!(session.pcs_path().exists());
        assert_eq!(stats.threads, 4);
        assert_eq!(stats.regions, 1);
        // 256 reads + 256 writes + 4·(2 critical accesses) = 520, plus
        // 4·2 mutex events.
        assert_eq!(stats.events, 520 + 8);
        assert!(stats.raw_bytes > 0);
        assert!(stats.compressed_bytes > 0);
        fs::remove_dir_all(session.path()).unwrap();
    }

    #[test]
    fn meta_rows_cover_log_exactly() {
        let (session, _) = collect_simple("meta", 64);
        for tid in session.thread_ids().unwrap() {
            let rows =
                read_meta(BufReader::new(File::open(session.thread_meta(tid)).unwrap())).unwrap();
            // for_static barrier splits the region into 2 intervals.
            assert_eq!(rows.len(), 2, "tid {tid}");
            assert_eq!(rows[0].bid, 0);
            assert_eq!(rows[1].bid, 1);
            assert_eq!(rows[0].data_begin, 0);
            assert_eq!(rows[1].data_begin, rows[0].size);
            assert_eq!(rows[0].span, 4);
            assert_eq!(rows[0].offset % rows[0].span, rows[1].offset % rows[1].span);
            assert_eq!(rows[1].offset, rows[0].offset + rows[0].span);
            // The log decompresses to exactly the covered bytes.
            let mut r = LogReader::new(File::open(session.thread_log(tid)).unwrap());
            let mut all = Vec::new();
            let total = r.read_to_end(&mut all).unwrap();
            assert_eq!(total, rows[1].data_begin + rows[1].size);
        }
        fs::remove_dir_all(session.path()).unwrap();
    }

    #[test]
    fn every_event_lands_in_the_log_of_the_tid_that_issued_it() {
        // One OS thread serves three tids in turn (creator, inline task,
        // creator, inline task, ...), then forks a nested team while its
        // own interval stays open, then carries on. Each context notes the
        // addresses it issues under its tid; afterwards every tid's log
        // must decode to exactly its own list, in order. Two-event buffers
        // put a flush between almost any two of those switches.
        let dir = tmp_session("lanes");
        let issued: std::sync::Mutex<HashMap<ThreadId, Vec<u64>>> = Default::default();
        let config = SwordConfig::new(&dir).buffer_events(2).compress_workers(2);
        let (_, stats) = run_collected(config, SimConfig::default(), |sim| {
            let a = sim.alloc::<u64>(64, 0);
            let next = AtomicU64::new(0);
            let touch = |c: &sword_ompsim::Ctx<'_>, n: u64| {
                for _ in 0..n {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    issued.lock().unwrap().entry(c.tid()).or_default().push(a.addr_of(i));
                    c.write(&a, i, i);
                }
            };
            sim.run(|ctx| {
                ctx.parallel(1, |w| {
                    touch(w, 3);
                    for round in 0..3 {
                        w.task(|t| touch(t, 1 + round));
                        touch(w, 1);
                    }
                    w.taskwait();
                    touch(w, 1);
                    w.parallel(2, |inner| {
                        touch(inner, 3);
                        inner.barrier();
                        touch(inner, 2);
                    });
                    touch(w, 3);
                });
            });
        })
        .unwrap();
        let issued = issued.into_inner().unwrap();
        // Worker, three tasks, two nested members (the master logs nothing).
        assert_eq!(issued.len(), 6);
        assert_eq!(stats.threads, 6);
        let session = SessionDir::new(&dir);
        let mut tids = session.thread_ids().unwrap();
        tids.sort_unstable();
        let mut expected: Vec<ThreadId> = issued.keys().copied().collect();
        expected.sort_unstable();
        assert_eq!(tids, expected);
        for (tid, addrs) in &issued {
            let logged: Vec<u64> = decode_rows(&session, *tid)
                .iter()
                .flat_map(|(_, events)| events.iter().map(|e| e.as_access().unwrap().addr))
                .collect();
            assert_eq!(&logged, addrs, "tid {tid}");
        }
        // The forking worker's interval stayed open across the nested
        // region: one row holds what it wrote before and after the join.
        let worker_rows = decode_rows(&session, 1);
        assert_eq!(
            worker_rows.last().unwrap().1.len(),
            1 + 3,
            "post-taskwait write + 3 after join"
        );
        assert_eq!(stats.events, issued.values().map(|v| v.len() as u64).sum::<u64>());
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn lock_and_lookup_counts_do_not_depend_on_accesses() {
        // The lane contract, counted: a run visits the slot map once per
        // context entered and locks a thread's shared half once per
        // entry, per meta row and per flush — whatever the number of
        // accesses in between.
        fn run(tag: &str, per_interval: u64) -> (u64, u64, u64) {
            let dir = tmp_session(tag);
            let collector = Arc::new(SwordCollector::new(SwordConfig::new(&dir)).unwrap());
            let sim = OmpSim::with_tool_and_config(collector.clone(), SimConfig::default());
            let a = sim.alloc::<u64>(2 * per_interval, 0);
            let mut counted = None;
            sim.run(|ctx| {
                ctx.parallel(2, |w| {
                    let sweep = |c: &sword_ompsim::Ctx<'_>| {
                        let base = w.team_index() * per_interval;
                        (0..per_interval).for_each(|i| c.write(&a, base + i, i));
                    };
                    sweep(w);
                    w.barrier();
                    sweep(w);
                    w.task(|t| sweep(t));
                    w.taskwait();
                    w.barrier();
                    sweep(w);
                });
                // Before `program_end`: finalize, publish and `stats()`
                // read every slot once more, which is not the point here.
                let probes = &collector.inner.probes;
                let lookups = probes.slot_lookups.load(Ordering::Relaxed);
                let locks = probes.log_locks.load(Ordering::Relaxed);
                let stats = collector.stats();
                assert_eq!(stats.events, 2 * 4 * per_interval, "all lanes parked: exact");
                counted = Some((lookups, locks, stats.barrier_intervals, stats.flushes));
            });
            assert!(collector.take_error().is_none());
            fs::remove_dir_all(&dir).unwrap();
            let (lookups, locks, rows, flushes) = counted.unwrap();
            // Two team members and two tasks entered; each entry, each
            // row and each flush locked one thread's shared half once.
            assert_eq!(lookups, 2 + 2, "{tag}");
            assert_eq!(locks, lookups + rows + flushes, "{tag}");
            (lookups, locks - flushes, flushes)
        }
        let small = run("scale-1e3", 1_000);
        let large = run("scale-1e5", 100_000);
        assert_eq!(small.2, 0, "10^3 accesses never fill a paper-sized buffer");
        assert!(large.2 >= 2 * 3 * (100_000 / PAPER_BUFFER_EVENTS as u64));
        assert_eq!((small.0, small.1), (large.0, large.1), "counts scale with structure only");
    }

    #[test]
    fn event_on_a_context_that_never_entered_is_reported() {
        let dir = tmp_session("never-entered");
        let collector = SwordCollector::new(SwordConfig::new(&dir)).unwrap();
        let label = sword_osl::Label::root().fork(0, 1);
        let tool_data = sword_ompsim::ToolLocal::new();
        let tc = bare_context(7, &label, &tool_data);
        collector.access(&tc, &[MemAccess::new(0x1000, 8, AccessKind::Write, 0)]);
        let err = collector.take_error().expect("a dropped event is an error");
        assert!(err.to_string().contains("thread 7 outside thread_begin"), "{err}");
        collector.program_end();
        assert!(collector.take_error().is_none(), "nothing else went wrong");
        assert_eq!(collector.stats().events, 0);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn second_context_for_a_running_tid_gets_no_lane() {
        let dir = tmp_session("double-enter");
        let collector = SwordCollector::new(SwordConfig::new(&dir)).unwrap();
        let label = sword_osl::Label::root().fork(0, 1);
        let (first, second) = (sword_ompsim::ToolLocal::new(), sword_ompsim::ToolLocal::new());
        collector.thread_begin(&bare_context(3, &label, &first));
        collector.thread_begin(&bare_context(3, &label, &second));
        let err = collector.take_error().expect("two contexts cannot share a tid");
        assert!(
            err.to_string().contains("thread 3 entered while its lane is checked out"),
            "{err}"
        );
        // The first context is unharmed and logs on.
        collector
            .access(&bare_context(3, &label, &first), &[MemAccess::new(8, 8, AccessKind::Read, 0)]);
        collector.thread_end(&bare_context(3, &label, &first));
        assert!(collector.take_error().is_none());
        collector.program_end();
        assert_eq!(collector.stats().events, 1);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn lane_still_checked_out_at_finalize_is_reported() {
        let dir = tmp_session("running-at-finalize");
        let collector = SwordCollector::new(SwordConfig::new(&dir)).unwrap();
        let label = sword_osl::Label::root().fork(0, 1);
        let tool_data = sword_ompsim::ToolLocal::new();
        let tc = bare_context(3, &label, &tool_data);
        collector.thread_begin(&tc);
        collector.access(&tc, &[MemAccess::new(0x1000, 8, AccessKind::Write, 0)]);
        collector.program_end(); // no thread_end: the lane is still out
        let err = collector.take_error().expect("an unreachable tail is an error");
        assert!(err.to_string().contains("thread 3 still running at finalize"), "{err}");
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn flush_into_a_closed_pipeline_is_reported_and_returns_its_buffer() {
        let dir = tmp_session("flush-after-finalize");
        let config = SwordConfig::new(&dir).buffer_events(2).compress_workers(1);
        let collector = SwordCollector::new(config).unwrap();
        let label = sword_osl::Label::root().fork(0, 1);
        let tool_data = sword_ompsim::ToolLocal::new();
        let tc = bare_context(3, &label, &tool_data);
        collector.thread_begin(&tc);
        collector.program_end();
        collector.take_error().expect("still-running error, covered above");
        assert_eq!(collector.pool.occupancy(), (0, 1, 3), "(free, created, budget)");
        // Two events fill the buffer; the hand-off finds the channel shut.
        collector.access(&tc, &[MemAccess::new(0x1000, 8, AccessKind::Write, 0)]);
        assert!(collector.take_error().is_none(), "nothing shipped yet");
        collector.access(&tc, &[MemAccess::new(0x1008, 8, AccessKind::Write, 0)]);
        let err = collector.take_error().expect("a dropped block is an error");
        assert!(err.to_string().contains("thread 3 flushed after finalize"), "{err}");
        // The swap created the lane's second buffer; the full one came
        // back to the pool instead of leaking its slot.
        assert_eq!(collector.pool.occupancy(), (1, 2, 3));
        fs::remove_dir_all(&dir).unwrap();
    }

    /// Forwards every callback to the collector but keeps the default
    /// `max_run` of 1: the runtime then delivers each access alone, at
    /// the moment it happens — the delivery the run-taking collector
    /// must be indistinguishable from on disk.
    struct OneAtATime(Arc<SwordCollector>);

    impl Tool for OneAtATime {
        fn program_end(&self) {
            self.0.program_end();
        }
        fn parallel_begin(&self, info: &ParallelBeginInfo<'_>) {
            self.0.parallel_begin(info);
        }
        fn parallel_end(&self, region: RegionId, fork_tid: ThreadId) {
            self.0.parallel_end(region, fork_tid);
        }
        fn thread_begin(&self, ctx: &ThreadContext<'_>) {
            self.0.thread_begin(ctx);
        }
        fn thread_end(&self, ctx: &ThreadContext<'_>) {
            self.0.thread_end(ctx);
        }
        fn barrier_begin(&self, ctx: &ThreadContext<'_>) {
            self.0.barrier_begin(ctx);
        }
        fn barrier_end(&self, ctx: &ThreadContext<'_>) {
            self.0.barrier_end(ctx);
        }
        fn task_create(&self, outer: &ThreadContext<'_>, info: &TaskCreateInfo<'_>) {
            self.0.task_create(outer, info);
        }
        fn task_begin(&self, outer: &ThreadContext<'_>, task: &ThreadContext<'_>, uid: TaskUid) {
            self.0.task_begin(outer, task, uid);
        }
        fn task_end(&self, task: &ThreadContext<'_>, outer: &ThreadContext<'_>, uid: TaskUid) {
            self.0.task_end(task, outer, uid);
        }
        fn task_sync(&self, restored: &ThreadContext<'_>, synced: &[TaskUid]) {
            self.0.task_sync(restored, synced);
        }
        fn mutex_acquired(&self, ctx: &ThreadContext<'_>, mutex: MutexId) {
            self.0.mutex_acquired(ctx, mutex);
        }
        fn mutex_released(&self, ctx: &ThreadContext<'_>, mutex: MutexId) {
            self.0.mutex_released(ctx, mutex);
        }
        fn access(&self, ctx: &ThreadContext<'_>, run: &[MemAccess]) {
            assert_eq!(run.len(), 1, "a tool that asks for 1 gets 1");
            self.0.access(ctx, run);
        }
    }

    /// Events per frame of one thread's log: frame boundaries from the
    /// log file, event boundaries from decoding the stream row by row.
    fn events_per_frame(session: &SessionDir, tid: ThreadId) -> Vec<usize> {
        let mut frame_ends = Vec::new();
        let mut frames = sword_compress::FrameReader::new(
            File::open(session.thread_log(tid)).expect("thread log"),
        );
        let mut stream = Vec::new();
        while frames.read_frame(&mut stream).unwrap().is_some() {
            frame_ends.push(stream.len());
        }
        let rows =
            read_meta(BufReader::new(File::open(session.thread_meta(tid)).unwrap())).unwrap();
        let mut counts = vec![0usize; frame_ends.len()];
        for row in rows {
            let end = (row.data_begin + row.size) as usize;
            let mut decoder = EventDecoder::new();
            let mut pos = row.data_begin as usize;
            while pos < end {
                decoder.decode(&stream[..end], &mut pos).unwrap();
                counts[frame_ends.partition_point(|&frame_end| frame_end < pos)] += 1;
            }
        }
        counts
    }

    #[test]
    fn runs_and_single_accesses_write_the_same_session() {
        // One OS thread at a time (teams of one; tasks run inline): the
        // ordered writer puts each thread's blocks in production order, so
        // everything a session holds but its timing rows is a function of
        // the program. Intervals longer than a run, mutex events between
        // accesses, a task and its continuation, a nested region inside an
        // open interval, a tail shorter than a run.
        let program = |sim: &OmpSim| {
            let a = sim.alloc::<u64>(4096, 0);
            sim.run(|ctx| {
                ctx.parallel(1, |w| {
                    (0..300).for_each(|i| w.write(&a, i, i));
                    w.barrier();
                    for i in 0..70 {
                        let v = w.read(&a, i);
                        w.critical("c", || w.write(&a, i, v + 1));
                    }
                    w.task(|t| (0..130).for_each(|i| t.write(&a, 1000 + i, i)));
                    (0..65).for_each(|i| w.write(&a, 2000 + i, i));
                    w.taskwait();
                    w.write(&a, 3000, 1);
                    w.parallel(1, |inner| (0..129).for_each(|i| inner.write(&a, 3100 + i, i)));
                    (0..3).for_each(|i| w.write(&a, 3500 + i, i));
                });
            });
        };
        let collect = |tag: &str, buffer_events: usize, one_at_a_time: bool| {
            let dir = tmp_session(tag);
            let config = SwordConfig::new(&dir).buffer_events(buffer_events);
            let collector = Arc::new(SwordCollector::new(config).unwrap());
            let tool: Arc<dyn Tool> = if one_at_a_time {
                Arc::new(OneAtATime(collector.clone()))
            } else {
                collector.clone()
            };
            let sim = OmpSim::with_tool_and_config(tool, SimConfig::default());
            program(&sim);
            collector.write_pcs(&sim.export_pcs()).unwrap();
            assert!(collector.take_error().is_none());
            (SessionDir::new(&dir), collector.stats())
        };
        let files = |session: &SessionDir| -> BTreeMap<String, Vec<u8>> {
            fs::read_dir(session.path())
                .unwrap()
                .map(|entry| {
                    let path = entry.unwrap().path();
                    let name = path.file_name().unwrap().to_string_lossy().into_owned();
                    let mut bytes = fs::read(&path).unwrap();
                    if path == session.info_path() {
                        // Drop the rows that hold wall-clock time.
                        let text = String::from_utf8(bytes).unwrap();
                        let kept: Vec<&str> =
                            text.lines().filter(|line| !line.contains("_nanos")).collect();
                        assert!(kept.len() < text.lines().count() && !kept.is_empty());
                        bytes = kept.join("\n").into_bytes();
                    }
                    (name, bytes)
                })
                .collect()
        };
        // 100 makes runs of 64 straddle the capacity; 25,000 never fills.
        for buffer_events in [2, 64, 100, PAPER_BUFFER_EVENTS] {
            let (runs, runs_stats) =
                collect(&format!("runs-{buffer_events}"), buffer_events, false);
            let (ones, ones_stats) = collect(&format!("ones-{buffer_events}"), buffer_events, true);
            let (runs_files, ones_files) = (files(&runs), files(&ones));
            assert_eq!(
                runs_files.keys().collect::<Vec<_>>(),
                ones_files.keys().collect::<Vec<_>>()
            );
            for (name, bytes) in &runs_files {
                assert!(bytes == &ones_files[name], "{name} differs at {buffer_events} events");
            }
            // How many buffers the pool creates within its budget
            // depends on how far the compression workers fall behind:
            // timing, like the nanos.
            let timeless = |stats: &SwordStats| {
                let budget = 2 * stats.threads + default_compress_workers() as u64;
                let bound = budget * (buffer_events * MAX_EVENT_BYTES) as u64
                    + stats.threads * THREAD_BOOKKEEPING_BYTES;
                assert!(stats.tool_memory_bytes <= bound, "{} > {bound}", stats.tool_memory_bytes);
                SwordStats {
                    tool_memory_bytes: 0,
                    flush: FlushSnapshot {
                        stall_nanos: 0,
                        compress_nanos: 0,
                        write_nanos: 0,
                        ..stats.flush
                    },
                    ..stats.clone()
                }
            };
            assert_eq!(timeless(&runs_stats), timeless(&ones_stats));
            assert_eq!(runs_stats.events, 300 + 70 * 4 + 130 + 65 + 1 + 129 + 3);
            // Every frame but a thread's last is a buffer filled to the
            // event: a run that straddles the capacity was split there.
            let mut frames = 0;
            for tid in runs.thread_ids().unwrap() {
                let counts = events_per_frame(&runs, tid);
                assert_eq!(counts, events_per_frame(&ones, tid));
                let (last, full) = counts.split_last().expect("every thread logged");
                assert!(full.iter().all(|&n| n == buffer_events), "tid {tid}: {counts:?}");
                assert!((1..=buffer_events).contains(last), "tid {tid}: {counts:?}");
                frames += counts.len() as u64;
            }
            assert_eq!(frames, runs_stats.flushes);
            fs::remove_dir_all(runs.path()).unwrap();
            fs::remove_dir_all(ones.path()).unwrap();
        }
    }

    #[test]
    fn pool_buffers_never_grow_under_worst_case_events() {
        // The longest event there is (explicit size, ten-byte address
        // delta, five-byte PC delta) alternating with the hot shape,
        // which stores 8 bytes to keep at most 6 — at capacities where a
        // buffer's last event is either kind. In this (debug) profile
        // the pool also checks every buffer it gets back.
        for buffer_events in [1usize, 3] {
            let dir = tmp_session(&format!("no-growth-{buffer_events}"));
            let config = SwordConfig::new(&dir).buffer_events(buffer_events);
            let collector = SwordCollector::new(config).unwrap();
            let label = sword_osl::Label::root().fork(0, 1);
            let tool_data = sword_ompsim::ToolLocal::new();
            let tc = bare_context(1, &label, &tool_data);
            collector.thread_begin(&tc);
            let mut addr = 0u64;
            let accesses: Vec<MemAccess> = (1..=320u32)
                .map(|i| {
                    // The PC flips between 0 and u32::MAX under every
                    // long event and stays put under every short one.
                    let pc = u32::MAX * (i / 2 % 2);
                    if i % 2 == 0 {
                        addr = addr.wrapping_add(i64::MIN as u64);
                        MemAccess::new(addr, 255, AccessKind::Write, pc)
                    } else {
                        addr = addr.wrapping_add(8);
                        MemAccess::new(addr, 8, AccessKind::Read, pc)
                    }
                })
                .collect();
            let mut lengths = [0usize; 19];
            let (mut encoder, mut scratch) = (sword_trace::EventEncoder::new(), Vec::new());
            for run in accesses.chunks(RUN_ACCESSES) {
                collector.access(&tc, run);
                run.iter().for_each(|a| lengths[encoder.encode_access(a, &mut scratch)] += 1);
            }
            assert_eq!((lengths[3], lengths[18]), (160, 160), "{lengths:?}");
            collector.thread_end(&tc);
            collector.program_end();
            assert!(collector.take_error().is_none());

            let stats = collector.stats();
            assert_eq!(stats.events, 320);
            assert_eq!(stats.flushes, 320usize.div_ceil(buffer_events) as u64);
            assert_eq!(stats.raw_bytes, scratch.len() as u64);
            // Every buffer the pool ever made is back in it by now, or
            // still (empty) with the parked thread: what the pool reports
            // is what is allocated.
            let mut capacities = collector.pool.free_capacities();
            for (_, slot) in collector.inner.slot_list() {
                let parked = lock(&slot).parked.as_ref().expect("parked").buffer_capacity_bytes();
                capacities.extend((parked > 0).then_some(parked));
            }
            assert_eq!(capacities.len(), collector.pool.created());
            let buffer_bytes = buffer_events * MAX_EVENT_BYTES;
            assert!(capacities.iter().all(|&c| c == buffer_bytes), "{capacities:?}");
            assert_eq!(
                stats.tool_memory_bytes,
                capacities.iter().sum::<usize>() as u64 + THREAD_BOOKKEEPING_BYTES
            );
            fs::remove_dir_all(&dir).unwrap();
        }
    }

    #[test]
    fn intervals_decode_standalone() {
        let (session, _) = collect_simple("decode", 32);
        let tid = session.thread_ids().unwrap()[0];
        let rows =
            read_meta(BufReader::new(File::open(session.thread_meta(tid)).unwrap())).unwrap();
        let mut reader = LogReader::new(File::open(session.thread_log(tid)).unwrap());
        for row in &rows {
            let mut bytes = Vec::new();
            reader.read_range(row.data_begin, row.size, &mut bytes).unwrap();
            let events = EventDecoder::new().decode_all(&bytes).unwrap();
            if row.bid == 0 {
                // 64 reads + 64 writes for this thread's quarter.
                assert_eq!(events.len(), 128);
                assert!(events.iter().all(|e| e.as_access().is_some()));
            } else {
                // Critical section: acquire, read, write, release.
                assert_eq!(events.len(), 4);
                assert!(matches!(events[0], Event::MutexAcquire(_)));
                assert!(matches!(events[3], Event::MutexRelease(_)));
            }
        }
        fs::remove_dir_all(session.path()).unwrap();
    }

    #[test]
    fn pool_stress_no_flush_lost_or_reordered() {
        // 8 threads × 2-event buffers × several regions: thousands of
        // buffer handoffs racing through 3 compression workers. Each
        // thread's static chunk writes strictly increasing addresses, so
        // any lost or reordered flush shows up as a hole or a backwards
        // jump in that thread's decoded stream.
        let dir = tmp_session("pool-stress");
        let config = SwordConfig::new(&dir).buffer_events(2).compress_workers(3);
        let rounds = 6u64;
        let n = 512u64;
        let (_, stats) = run_collected(config, SimConfig::default(), |sim| {
            let a = sim.alloc::<u64>(n, 0);
            sim.run(|ctx| {
                for _ in 0..rounds {
                    ctx.parallel(8, |w| {
                        w.for_static(0..n, |i| {
                            w.write(&a, i, i);
                        });
                    });
                }
            });
        })
        .expect("stress collection succeeds");
        assert_eq!(stats.events, rounds * n);
        assert!(stats.flushes >= stats.events / 2, "2-event buffers flush constantly");
        // The flush counters see every handoff and every byte the writer
        // accounts for — nothing bypassed the pool pipeline.
        assert_eq!(stats.flush.flushes, stats.flushes);
        assert_eq!(stats.flush.raw_bytes, stats.raw_bytes);
        assert!(stats.flush.compress_nanos > 0);

        let session = SessionDir::new(&dir);
        let mut decoded_total = 0u64;
        let mut covered_total = 0u64;
        for tid in session.thread_ids().unwrap() {
            let rows =
                read_meta(BufReader::new(File::open(session.thread_meta(tid)).unwrap())).unwrap();
            // for_static's implicit barrier splits each region in two
            // (the post-barrier interval is empty).
            assert_eq!(rows.len(), 2 * rounds as usize, "two intervals per region, tid {tid}");
            let mut reader = LogReader::new(File::open(session.thread_log(tid)).unwrap());
            let mut stream = Vec::new();
            let total = reader.read_to_end(&mut stream).unwrap();
            let last = rows.last().unwrap();
            assert_eq!(
                total,
                last.data_begin + last.size,
                "log covers exactly the meta, tid {tid}"
            );
            covered_total += total;
            for row in &rows {
                let range = &stream[row.data_begin as usize..(row.data_begin + row.size) as usize];
                let events = EventDecoder::new().decode_all(range).unwrap();
                let addrs: Vec<u64> =
                    events.iter().map(|e| e.as_access().expect("writes only").addr).collect();
                assert!(
                    addrs.windows(2).all(|w| w[0] < w[1]),
                    "reordered flush: addresses regress within tid {tid} bid {}",
                    row.bid
                );
                decoded_total += events.len() as u64;
            }
        }
        assert_eq!(decoded_total, stats.events, "every event survived the pipeline");
        assert_eq!(covered_total, stats.raw_bytes);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn region_table_links_nesting() {
        let dir = tmp_session("regions");
        let (_, stats) = run_collected(SwordConfig::new(&dir), SimConfig::default(), |sim| {
            let a = sim.alloc::<u64>(16, 0);
            sim.run(|ctx| {
                ctx.parallel(2, |w| {
                    w.write(&a, w.team_index(), 1);
                    w.parallel(2, |inner| {
                        inner.write(&a, 4 + inner.team_index(), 1);
                    });
                });
            });
        })
        .unwrap();
        assert_eq!(stats.regions, 3, "one outer + two inner");
        let session = SessionDir::new(&dir);
        let regions =
            read_regions(BufReader::new(File::open(session.regions_path()).unwrap())).unwrap();
        assert_eq!(regions.len(), 3);
        let outer = regions.iter().find(|r| r.ppid.is_none()).unwrap();
        assert_eq!(outer.level, 1);
        let inner: Vec<_> = regions.iter().filter(|r| r.ppid == Some(outer.pid)).collect();
        assert_eq!(inner.len(), 2);
        for r in inner {
            assert_eq!(r.level, 2);
            // Fork label extends the outer fork label by two pairs: the
            // forking member's own pair and its span-1 fork-point pair.
            assert_eq!(r.fork_label.len(), outer.fork_label.len() + 4);
        }
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn tasking_session_rows_and_regions() {
        let dir = tmp_session("tasks");
        let (_, stats) = run_collected(SwordConfig::new(&dir), SimConfig::default(), |sim| {
            let a = sim.alloc::<u64>(8, 0);
            sim.run(|ctx| {
                ctx.parallel(1, |w| {
                    w.write(&a, 0, 1); // pre-chain
                    w.task_depend(&[(0, sword_ompsim::DepMode::Out)], |t| t.write(&a, 1, 2));
                    w.task_depend(&[(0, sword_ompsim::DepMode::In)], |t| t.write(&a, 2, 3));
                    w.write(&a, 3, 4); // continuation
                    w.taskwait();
                    w.write(&a, 4, 5); // post-sync
                });
            });
        })
        .unwrap();
        // Master + worker + two task tids, each with its own log file.
        assert_eq!(stats.threads, 3, "worker and both tasks logged");
        let session = SessionDir::new(&dir);
        let regions =
            read_regions(BufReader::new(File::open(session.regions_path()).unwrap())).unwrap();
        assert_eq!(regions.len(), 3, "one parallel region + two task pseudo-regions");
        let tasks: Vec<_> = regions.iter().filter(|r| r.span == sword_osl::TASK_SPAN).collect();
        assert_eq!(tasks.len(), 2);
        assert!(tasks.iter().all(|r| r.ppid == Some(0) && r.level == 2));
        // The second task's depend(in) conflicts with the first's
        // depend(out): the region table carries the edge.
        assert_eq!(tasks[0].deps, Vec::<u64>::new());
        assert_eq!(tasks[1].deps, vec![tasks[0].pid]);
        // The worker's log fragments: real-region row, two continuation
        // rows under the pseudo-regions, then the restored real-region row.
        let worker_rows =
            read_meta(BufReader::new(File::open(session.thread_meta(1)).unwrap())).unwrap();
        let ids: Vec<(u64, u64, u64)> =
            worker_rows.iter().map(|r| (r.pid, r.offset, r.span)).collect();
        assert_eq!(ids.len(), 4, "{ids:?}");
        assert_eq!(ids[0].0, 0);
        assert_eq!(ids[1], (tasks[0].pid, 0, sword_osl::TASK_SPAN), "continuation row");
        assert_eq!(ids[2], (tasks[1].pid, 0, sword_osl::TASK_SPAN), "continuation row");
        assert_eq!(ids[3].0, 0, "restored after taskwait");
        // Each task body logged one row under its own tid.
        for (tid, task) in [(2u32, tasks[0]), (3u32, tasks[1])] {
            let rows =
                read_meta(BufReader::new(File::open(session.thread_meta(tid)).unwrap())).unwrap();
            assert_eq!(rows.len(), 1, "tid {tid}");
            assert_eq!(
                (rows[0].pid, rows[0].offset, rows[0].span),
                (task.pid, 1, sword_osl::TASK_SPAN)
            );
        }
        // The creator and its inline tasks share one OS thread; each
        // write still decodes from the log of the tid that issued it
        // (element index = address order), and the rows tile each log.
        let elems = |tid: ThreadId| -> Vec<Vec<u64>> {
            decode_rows(&session, tid)
                .iter()
                .map(|(_, ev)| ev.iter().map(|e| e.as_access().unwrap().addr).collect())
                .collect()
        };
        let base = elems(1)[0][0];
        let at = |i: u64| base + 8 * i;
        assert_eq!(elems(1), vec![vec![at(0)], vec![], vec![at(3)], vec![at(4)]]);
        assert_eq!(elems(2), vec![vec![at(1)]]);
        assert_eq!(elems(3), vec![vec![at(2)]]);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn buffer_bound_is_respected() {
        let (session, stats) = collect_simple("bound", 8);
        // 8-event buffers: tiny bounded memory, many flushes.
        assert!(stats.flushes >= stats.events / 8);
        assert!(stats.tool_memory_bytes < 64 * 1024, "{}", stats.tool_memory_bytes);
        fs::remove_dir_all(session.path()).unwrap();
    }

    #[test]
    fn unwritable_session_path_fails_fast() {
        // A regular file where the session directory should go: creation
        // must fail up front, not mid-run.
        let path =
            std::env::temp_dir().join(format!("sword-collector-blocked-{}", std::process::id()));
        fs::write(&path, "not a directory").unwrap();
        let err = SwordCollector::new(SwordConfig::new(&path));
        assert!(err.is_err(), "creating a session inside a file must fail");
        fs::remove_file(&path).unwrap();
    }

    /// A collector on a fresh session whose tid 1 cannot get a log: a
    /// directory sits where the file goes, so the writer fails on that
    /// thread's first block. Planted after `SwordCollector::new`, whose
    /// clean-up of old logs would otherwise trip over it.
    fn with_unwritable_tid_1(
        tag: &str,
        config: impl FnOnce(SwordConfig) -> SwordConfig,
    ) -> Arc<SwordCollector> {
        let dir = tmp_session(tag);
        let collector = Arc::new(SwordCollector::new(config(SwordConfig::new(&dir))).unwrap());
        fs::create_dir_all(collector.session().thread_log(1)).unwrap();
        collector
    }

    /// Two regions of two members each writing 32 elements, with `between`
    /// called after each.
    fn two_regions(collector: &Arc<SwordCollector>, mut between: impl FnMut()) {
        let sim = OmpSim::with_tool_and_config(collector.clone(), SimConfig::default());
        let a = sim.alloc::<u64>(64, 0);
        sim.run(|ctx| {
            for round in 0..2 {
                ctx.parallel(2, |w| {
                    w.for_static(0..64, |i| {
                        w.write(&a, i, i + round);
                    });
                });
                between();
            }
        });
    }

    #[test]
    fn async_writer_failure_surfaces_at_finalize() {
        let collector = with_unwritable_tid_1("sabotage-async", |c| c.buffer_events(1));
        two_regions(&collector, || {});
        let err = collector.take_error().expect("writer errors must reach the caller");
        assert_eq!(err.kind(), io::ErrorKind::IsADirectory, "{err}");
        fs::remove_dir_all(collector.session().path()).unwrap();
    }

    #[test]
    fn publish_progress_returns_when_the_writer_is_dead() {
        // The writer exits on tid 1's first block. Every later
        // `publish_progress` waits for blocks nobody will confirm and
        // must return anyway; the run still ends in the writer's error.
        let collector = with_unwritable_tid_1("sabotage-live", |c| c.buffer_events(1).live());
        let mut publishes = 0;
        two_regions(&collector, || {
            let _ = collector.publish_progress();
            publishes += 1;
        });
        assert_eq!(publishes, 2);
        let err = collector.take_error().expect("writer errors must reach the caller");
        assert_eq!(err.kind(), io::ErrorKind::IsADirectory, "{err}");
        fs::remove_dir_all(collector.session().path()).unwrap();
    }

    /// Meta rows on disk right now, across all threads.
    fn published_rows(session: &SessionDir) -> usize {
        session
            .thread_ids()
            .unwrap()
            .iter()
            .map(|&tid| {
                read_meta(BufReader::new(File::open(session.thread_meta(tid)).unwrap()))
                    .unwrap()
                    .len()
            })
            .sum()
    }

    #[test]
    fn live_publish_exposes_progress_mid_run() {
        // One-event buffers through three compression workers: the first
        // region's blocks are still racing to the writer when the region
        // ends. `publish_progress` waits for them, so every row of that
        // region is published, in every one of the repetitions.
        for rep in 0..20 {
            let dir = tmp_session(&format!("live-{rep}"));
            let config = SwordConfig::new(&dir).compress_workers(3).buffer_events(1).live();
            let collector = Arc::new(SwordCollector::new(config).unwrap());
            let session = collector.session().clone();
            let mut mid = None;
            two_regions(&collector, || {
                if mid.is_none() {
                    collector.publish_progress().unwrap();
                    let recorded = collector.stats().barrier_intervals as usize;
                    let status = session.read_live().unwrap().unwrap();
                    mid = Some((status, published_rows(&session), recorded));
                }
            });
            assert!(collector.take_error().is_none());
            let (mid_status, mid_rows, recorded) = mid.unwrap();
            assert!(!mid_status.finished);
            assert!(mid_status.generation >= 1);
            // Two members, each split in two by the loop's barrier.
            assert_eq!(recorded, 4, "repetition {rep}");
            assert_eq!(
                mid_rows, recorded,
                "repetition {rep}: the first region's rows, all of them"
            );
            let final_status = session.read_live().unwrap().unwrap();
            assert!(final_status.finished, "finalize marks the session finished");
            assert!(final_status.generation > mid_status.generation);
            assert_eq!(published_rows(&session), 2 * recorded, "final metadata holds both regions");
            fs::remove_dir_all(&dir).unwrap();
        }
    }

    #[test]
    fn async_live_watermark_never_overruns_flushed_bytes() {
        let dir = tmp_session("live-async");
        let mut config = SwordConfig::new(&dir).buffer_events(4);
        config = config.live();
        let (_, stats) = run_collected(config, SimConfig::default(), |sim| {
            let a = sim.alloc::<u64>(128, 0);
            sim.run(|ctx| {
                ctx.parallel(4, |w| {
                    w.for_static(0..128, |i| {
                        w.write(&a, i, i);
                    });
                });
            });
        })
        .unwrap();
        assert!(stats.events > 0);
        let session = SessionDir::new(&dir);
        // After finalize, live.meta says finished and the metadata is the
        // complete, batch-identical view.
        let status = session.read_live().unwrap().unwrap();
        assert!(status.finished);
        for tid in session.thread_ids().unwrap() {
            let rows =
                read_meta(BufReader::new(File::open(session.thread_meta(tid)).unwrap())).unwrap();
            let mut r = LogReader::new(File::open(session.thread_log(tid)).unwrap());
            let mut all = Vec::new();
            let total = r.read_to_end(&mut all).unwrap();
            let covered = rows.last().map_or(0, |r| r.data_begin + r.size);
            assert_eq!(total, covered, "tid {tid}");
        }
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn obs_run_journals_all_flush_roles_and_writes_prom() {
        let dir = tmp_session("obs");
        let obs = Obs::new();
        let config = SwordConfig::new(&dir).buffer_events(16).with_obs(obs.clone());
        let (_, stats) = run_collected(config, SimConfig::default(), |sim| {
            let a = sim.alloc::<u64>(512, 0);
            sim.run(|ctx| {
                ctx.parallel(4, |w| {
                    w.for_static(0..512, |i| {
                        w.write(&a, i, i);
                    });
                });
            });
        })
        .unwrap();
        let session = SessionDir::new(&dir);

        // The journal is on disk, complete, and carries spans from every
        // flush-path role: app threads, compression workers, the writer.
        let read = sword_obs::read_journal(&session.obs_path()).unwrap();
        assert!(!read.truncated_tail);
        let span_names: Vec<&str> =
            read.events.iter().filter(|e| e.dur_us.is_some()).map(|e| &*e.name).collect();
        for expected in ["flush-handoff", "compress", "write"] {
            assert!(span_names.contains(&expected), "missing {expected} span");
        }
        assert!(read
            .events
            .iter()
            .filter(|e| e.dur_us.is_some())
            .all(|e| e.layer == Layer::Runtime));
        assert!(read.events.iter().any(|e| e.name == "finalize"));

        // Causal tracing: every handoff-born flow id threads through all
        // three stages — Start on the handoff, Step on the compress, End
        // on the write — so the Chrome trace draws one arrow chain per
        // shipped buffer.
        let phase_of = |name: &str, want: FlowPhase| -> Vec<u64> {
            read.events
                .iter()
                .filter(|e| e.name == name)
                .filter_map(|e| e.flow)
                .filter(|(_, p)| *p == want)
                .map(|(id, _)| id)
                .collect()
        };
        let starts = phase_of("flush-handoff", FlowPhase::Start);
        let steps = phase_of("compress", FlowPhase::Step);
        let ends = phase_of("write", FlowPhase::End);
        assert!(!starts.is_empty(), "handoff spans carry flow starts");
        for id in &starts {
            assert!(steps.contains(id), "flow {id} missing its compress step");
            assert!(ends.contains(id), "flow {id} missing its write end");
        }

        // Queue-wait histograms saw one sample per hop.
        let metrics_snap = obs.registry.snapshot();
        let get = |name: &str| {
            metrics_snap.iter().find(|(k, _)| k == name).map(|(_, v)| *v).unwrap_or(f64::NAN)
        };
        assert!(get("sword_flush_queue_wait_us_count") >= starts.len() as f64);
        assert!(get("sword_write_queue_wait_us_count") >= starts.len() as f64);
        assert_eq!(get("sword_flush_queue_depth"), 0.0, "queue drained at finalize");
        assert!(get("sword_pool_stall_total") >= 0.0);

        // The final registry snapshot agrees with the run's stats.
        let snap = read.events.iter().rev().find(|e| e.name == "metrics").expect("snapshot");
        let lookup = |name: &str| {
            snap.args.iter().find(|(k, _)| k == name).map(|(_, v)| *v).unwrap_or(f64::NAN)
        };
        assert_eq!(lookup("sword_flushes_total") as u64, stats.flushes);
        assert_eq!(lookup("sword_flush_raw_bytes") as u64, stats.raw_bytes);
        assert_eq!(lookup("sword_collector_tool_mem_bytes") as u64, stats.tool_memory_bytes);
        assert!(lookup("sword_pool_buffers_created") >= 1.0);

        // Prometheus exposition written at finalize.
        let prom = fs::read_to_string(session.metrics_path()).unwrap();
        assert!(prom.contains("# TYPE sword_collector_tool_mem_bytes gauge"));
        assert!(prom.contains("sword_flushes_total"));
        assert!(prom.contains("sword_writer_queue_depth"));
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn writer_queue_depth_reads_zero_after_finalize() {
        // Four threads hand off 2-event buffers, so frames reach the
        // writer out of order; every one is written by finalize.
        let dir = tmp_session("queue-depth");
        let obs = Obs::new();
        let config = SwordConfig::new(&dir).buffer_events(2).with_obs(obs.clone());
        let (_, stats) = run_collected(config, SimConfig::default(), |sim| {
            let a = sim.alloc::<u64>(256, 0);
            sim.run(|ctx| ctx.parallel(4, |w| w.for_static(0..256, |i| w.write(&a, i, i))));
        })
        .unwrap();
        assert!(stats.flushes > 4);
        let depth =
            obs.registry.snapshot().into_iter().find(|(k, _)| k == "sword_writer_queue_depth");
        assert_eq!(depth, Some(("sword_writer_queue_depth".to_string(), 0.0)));
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn stats_compression_ratio() {
        let (session, stats) = collect_simple("ratio", 25_000);
        assert!(stats.compression_ratio() > 1.5, "{}", stats.compression_ratio());
        fs::remove_dir_all(session.path()).unwrap();
    }
}
