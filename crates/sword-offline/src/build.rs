//! Streaming construction of per-interval summary trees.
//!
//! An interval's events are pulled out of the log one frame at a time
//! ([`MappedLog`]), decoded in place, and folded into a
//! [`SummarizingBuilder`]: consecutive same-provenance accesses collapse
//! into strided interval-tree nodes, mutex acquire/release events maintain
//! the held-lock set attached to each node. Only an event torn across a
//! frame boundary is ever copied (into a small carry buffer); everything
//! else decodes straight off the source's frame buffer. A loop body whose
//! encoding repeats byte for byte is not decoded again: each repetition
//! becomes one more stride on the progressions the body extends (the
//! repeat step, DESIGN.md §5 "Repeated loop bodies").

use std::collections::hash_map::{Entry, HashMap};
use std::collections::VecDeque;
use std::fs::File;
use std::io::{self, Read, Seek, SeekFrom};
use std::path::PathBuf;
use std::time::Instant;

use sword_itree::{IntervalTree, MergeOutcome, SummarizingBuilder};
use sword_trace::{
    AccessKind, Event, EventDecoder, LogSource, MappedLog, MemAccess, MutexId, PcId, SessionDir,
    SourceStats, ThreadId, MIN_ACCESS_BYTES,
};

use crate::intervals::Interval;
use crate::pipeline::WorkerStats;
use crate::stages::Rows;

/// Slice-size hint passed to [`LogSource::read_range_with`]: 64 KiB of
/// encoded events at a time.
pub const DEFAULT_CHUNK_BYTES: usize = 64 << 10;

/// Metadata attached to every tree node: enough to apply the race
/// conditions and report source locations. 8 B: the access kind rides in
/// the mutex-set word's top 2 bits.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct AccessMeta {
    /// Interned source location.
    pub pc: PcId,
    /// The [`AccessKind`] code above [`MSET_BITS`] bits of mutex-set index.
    kind_mset: u32,
}

/// Bits of an [`AccessMeta`]'s mutex-set index.
const MSET_BITS: u32 = 30;

/// The largest mutex-set index an [`AccessMeta`] holds.
pub const MSET_MAX: u32 = (1 << MSET_BITS) - 1;

impl AccessMeta {
    /// The metadata of a `kind` access at `pc` holding the locks of set
    /// `mset`, which is at most [`MSET_MAX`].
    #[inline]
    pub fn new(kind: AccessKind, pc: PcId, mset: u32) -> Self {
        debug_assert!(mset <= MSET_MAX, "mutex-set index {mset} does not fit");
        AccessMeta { pc, kind_mset: mset | u32::from(kind.code()) << MSET_BITS }
    }

    /// Read/write/atomic classification.
    #[inline]
    pub fn kind(self) -> AccessKind {
        AccessKind::from_code((self.kind_mset >> MSET_BITS) as u8).expect("a 2-bit kind code")
    }

    /// Index into the owning [`BiTree::mutex_sets`].
    #[inline]
    pub fn mset(self) -> u32 {
        self.kind_mset & MSET_MAX
    }
}

/// The summarized accesses of one (thread, barrier interval).
#[derive(Debug)]
pub struct BiTree {
    /// Owning thread.
    pub tid: ThreadId,
    /// Strided intervals with access metadata.
    pub tree: IntervalTree<AccessMeta>,
    /// Interned held-mutex sets (sorted, deduplicated).
    pub mutex_sets: Vec<Vec<MutexId>>,
    /// Raw access events folded in (the paper's `N`).
    pub accesses: u64,
    /// Encoded bytes consumed.
    pub bytes_read: u64,
}

impl BiTree {
    /// Nodes in the summary tree (the paper's `M ≤ N`).
    pub fn node_count(&self) -> usize {
        self.tree.len()
    }

    /// Heap bytes of this summary tree, charged to the analyzer's memory
    /// gauge while the tree is held (the Figure 6–8 offline-memory rows):
    /// the tree's nodes ([`IntervalTree::arena_bytes`]) plus the
    /// interned mutex sets.
    pub fn heap_bytes(&self) -> u64 {
        let sets: usize = self.mutex_sets.capacity() * std::mem::size_of::<Vec<MutexId>>()
            + self
                .mutex_sets
                .iter()
                .map(|s| s.capacity() * std::mem::size_of::<MutexId>())
                .sum::<usize>();
        (self.tree.arena_bytes() + sets) as u64
    }

    /// `true` when the two metadata records can race access-wise: at
    /// least one write, not both atomic, and disjoint mutex sets.
    pub fn can_race(&self, mine: &AccessMeta, other_tree: &BiTree, theirs: &AccessMeta) -> bool {
        if !mine.kind().is_write() && !theirs.kind().is_write() {
            return false;
        }
        if mine.kind().is_atomic() && theirs.kind().is_atomic() {
            return false;
        }
        sets_disjoint(
            &self.mutex_sets[mine.mset() as usize],
            &other_tree.mutex_sets[theirs.mset() as usize],
        )
    }
}

fn sets_disjoint(a: &[MutexId], b: &[MutexId]) -> bool {
    // Both sorted; merge scan.
    let (mut i, mut j) = (0, 0);
    while i < a.len() && j < b.len() {
        match a[i].cmp(&b[j]) {
            std::cmp::Ordering::Less => i += 1,
            std::cmp::Ordering::Greater => j += 1,
            std::cmp::Ordering::Equal => return false,
        }
    }
    true
}

/// How many bytes of the next slice a torn-event carry tops itself up
/// with per attempt. Any single encoded event fits well within this.
const CARRY_TOP_UP: usize = 64;

/// The fold state: everything an event mutates while a tree is built.
struct Fold {
    builder: SummarizingBuilder<(PcId, u8, u8, u32), AccessMeta>,
    held: Vec<MutexId>,
    mutex_sets: Vec<Vec<MutexId>>,
    current_mset: u32,
    accesses: u64,
    repeats: Repeats,
}

/// The smallest interval log, in bytes, whose build reserves its node
/// array up front. A smaller one grows its few nodes cheaply, and its
/// reserved-then-shrunk bound would only fragment the heap: the LULESH
/// shape builds thousands of such trees.
const RESERVE_FROM_BYTES: u64 = 256 << 10;

/// The most nodes a build reserves up front (24 MiB of address space at
/// 24 B a node), so a huge interval reserves no more than it could fill
/// soon; past it the node array grows as a `Vec` does.
const RESERVED_NODES_MAX: u64 = 1 << 20;

/// How many recent accesses the repeat step remembers; a loop body it
/// folds has fewer accesses than this.
const REPEAT_WINDOW: usize = 64;

/// What the repeat step (DESIGN.md §5 "Repeated loop bodies") keeps of
/// the accesses folded so far. Accesses are numbered from 0 in decode
/// order; the repetitions it folds take no numbers.
struct Repeats {
    /// The last [`REPEAT_WINDOW`] accesses that extended a progression,
    /// each at its number modulo the window. An access that extended
    /// nothing leaves its entry stale, but it also ends the streak, so no
    /// window reads that entry.
    recent: [Extension; REPEAT_WINDOW],
    /// Per builder ring: 1 + the number of the last access that extended
    /// it, or 0 for none (or forgotten).
    last: Vec<u64>,
    /// Accesses numbered so far.
    seen: u64,
    /// Consecutive extending accesses, within this decode call and since
    /// the last mutex event.
    streak: u64,
    /// No attempt before this access number: the backoff after a miss.
    quiet_until: u64,
}

/// One access that extended a progression.
#[derive(Clone, Copy, Default)]
struct Extension {
    ring: u32,
    size: u8,
    stride: u64,
    addr: u64,
    /// Byte offset of the access's encoding in the buffer being decoded.
    start: usize,
}

impl Repeats {
    fn new() -> Repeats {
        Repeats {
            recent: [Extension::default(); REPEAT_WINDOW],
            last: Vec::new(),
            seen: 0,
            streak: 0,
            quiet_until: 0,
        }
    }

    /// Notes that access `n`, encoded from byte `start` on, extended the
    /// front progression of `ring` by `stride`. Returns the number of the
    /// ring's previous extension when the accesses after it, up to `n`,
    /// are a window worth trying.
    #[inline]
    fn extended(
        &mut self,
        n: u64,
        ring: u32,
        stride: u64,
        a: &MemAccess,
        start: usize,
    ) -> Option<u64> {
        self.recent[n as usize % REPEAT_WINDOW] =
            Extension { ring, size: a.size, stride, addr: a.addr, start };
        self.streak += 1;
        let ri = ring as usize;
        if ri >= self.last.len() {
            self.last.resize(ri + 1, 0);
        }
        let previous = std::mem::replace(&mut self.last[ri], n + 1);
        let w = (n + 1).wrapping_sub(previous);
        let worth =
            previous != 0 && w <= self.streak && w < REPEAT_WINDOW as u64 && n >= self.quiet_until;
        worth.then(|| previous - 1)
    }

    fn at(&self, n: u64) -> &Extension {
        &self.recent[n as usize % REPEAT_WINDOW]
    }
}

impl Fold {
    /// A fold for an interval of `size` log bytes. A large interval's
    /// node array is reserved once: every node begins at an access, and
    /// the log holds at most `size / MIN_ACCESS_BYTES` of them. Grown by
    /// doubling instead, a large tree's array passes through buffers the
    /// allocator keeps resident once freed, and how much of that the
    /// analyzer's peak holds depends on which worker frees what when.
    /// Reserved pages a build never touches are never resident; `finish`
    /// gives them back.
    fn new(size: u64) -> Fold {
        let nodes = if size < RESERVE_FROM_BYTES {
            0
        } else {
            (size / MIN_ACCESS_BYTES).min(RESERVED_NODES_MAX) as usize
        };
        Fold {
            builder: SummarizingBuilder::with_capacity(nodes),
            held: Vec::new(),
            mutex_sets: vec![Vec::new()],
            current_mset: 0,
            accesses: 0,
            repeats: Repeats::new(),
        }
    }

    /// Folds one access in. `start..end` is its encoding in `buf`; the
    /// result is where decoding resumes: `end`, or past the repetitions
    /// of a loop body the repeat step folded at once.
    #[inline]
    fn access(
        &mut self,
        a: MemAccess,
        decoder: &mut EventDecoder,
        buf: &[u8],
        start: usize,
        end: usize,
    ) -> usize {
        self.accesses += 1;
        let n = self.repeats.seen;
        self.repeats.seen += 1;
        let meta = AccessMeta::new(a.kind, a.pc, self.current_mset);
        let outcome = self.builder.insert_with(
            (a.pc, a.kind.code(), a.size, self.current_mset),
            a.addr,
            a.size as u64,
            || meta,
        );
        let MergeOutcome::Extended { ring, stride } = outcome else {
            self.repeats.streak = 0;
            return end;
        };
        match self.repeats.extended(n, ring, stride, &a, start) {
            Some(j) => self.fold_repeats(decoder, buf, end, n, j),
            None => end,
        }
    }

    /// The repeat step. Access `n` extended a ring whose previous
    /// extension was access `j`, and every access of `j+1..=n` extended
    /// one. If each of those extended a different ring, by the same
    /// stride `d`, and `n` lies `d` above `j`, then their encoding
    /// `buf[start(j+1)..end]` decoded from the state access `j` left, and
    /// decodes from the state access `n` left to the same accesses `d`
    /// higher: each one stride past its ring's front progression. So every
    /// verbatim repetition of those bytes right after `end` is one more
    /// stride on each of those progressions, which is what folding it
    /// event by event would do. Applies all of them at once and returns
    /// the position after the last; `end` when there are none.
    #[inline(never)]
    fn fold_repeats(
        &mut self,
        decoder: &mut EventDecoder,
        buf: &[u8],
        end: usize,
        n: u64,
        j: u64,
    ) -> usize {
        let r = &mut self.repeats;
        let w = n - j;
        let d = r.at(n).addr.wrapping_sub(r.at(j).addr);
        // Repetitions stop before the first whose access would wrap the
        // address space, so the per-event path raises that error at the
        // same access.
        let mut cap = u64::MAX;
        for t in j + 1..=n {
            let e = r.at(t);
            if e.stride != d || r.last[e.ring as usize] != t + 1 {
                r.quiet_until = n + w;
                return end;
            }
            cap = cap.min((u64::MAX - e.addr - u64::from(e.size)) / d);
        }
        // The streak keeps the window inside `buf`: it starts there.
        let body = &buf[r.at(j + 1).start..end];
        debug_assert!(!body.is_empty(), "a window holds at least one access");
        let (mut k, mut pos) = (0u64, end);
        while k < cap && buf[pos..].starts_with(body) {
            k += 1;
            pos += body.len();
        }
        if k == 0 {
            r.quiet_until = n + w;
            return end;
        }
        for t in j + 1..=n {
            let ring = r.at(t).ring;
            self.builder.extend_front(ring, k);
            // Its recorded extension is no longer its last.
            r.last[ring as usize] = 0;
        }
        self.accesses += k * w;
        decoder.advance_addr(k * d);
        pos
    }

    fn mutex(&mut self, event: Event, tid: ThreadId) -> io::Result<()> {
        self.repeats.streak = 0;
        match event {
            Event::MutexAcquire(m) => {
                if let Err(at) = self.held.binary_search(&m) {
                    self.held.insert(at, m);
                }
            }
            Event::MutexRelease(m) => {
                if let Ok(at) = self.held.binary_search(&m) {
                    self.held.remove(at);
                }
            }
            Event::Access(_) => return Ok(()),
        }
        self.current_mset = intern_set(&mut self.mutex_sets, &self.held, tid)?;
        Ok(())
    }
}

/// Decodes every complete event in `buf` into `fold`, returning how many
/// bytes were consumed. A partial event at the tail is left unconsumed
/// when `more` bytes are coming; with `more == false` it is a corrupt
/// stream. So is an access whose `addr + size` wraps the address space:
/// addresses are session bytes, and a `[begin, end)` with `end < begin`
/// would overflow the interval arithmetic downstream.
fn decode_events(
    decoder: &mut EventDecoder,
    buf: &[u8],
    fold: &mut Fold,
    more: bool,
    tid: ThreadId,
) -> io::Result<usize> {
    // A repeated window lies within one buffer.
    fold.repeats.streak = 0;
    let mut pos = 0usize;
    while pos < buf.len() {
        let mark = pos;
        match decoder.decode(buf, &mut pos) {
            Ok(Event::Access(a)) if a.addr.checked_add(u64::from(a.size)).is_none() => {
                return Err(io::Error::new(
                    io::ErrorKind::InvalidData,
                    format!(
                        "access at {:#x} size {} wraps the address space in tid {tid}",
                        a.addr, a.size
                    ),
                ));
            }
            Ok(Event::Access(a)) => pos = fold.access(a, decoder, buf, mark, pos),
            Ok(event) => fold.mutex(event, tid)?,
            Err(_) if more => {
                // Partial event at the slice boundary: leave the tail for
                // the next slice. The decoder consumed nothing usable
                // past `mark`.
                return Ok(mark);
            }
            Err(e) => {
                return Err(io::Error::new(
                    io::ErrorKind::InvalidData,
                    format!("corrupt event stream in tid {tid}: {e}"),
                ));
            }
        }
    }
    Ok(pos)
}

/// Builds the summary tree for one barrier interval by streaming
/// `[data_begin, data_begin + size)` out of `source`. Events decode
/// directly from the source's borrowed slices.
pub fn build_tree<R: Read + Seek>(
    source: &mut MappedLog<R>,
    tid: ThreadId,
    data_begin: u64,
    size: u64,
) -> io::Result<BiTree> {
    let mut fold = Fold::new(size);
    let mut decoder = EventDecoder::new();
    let mut carry: Vec<u8> = Vec::new();
    let mut seen = 0u64;

    source.read_range_with(data_begin, size, DEFAULT_CHUNK_BYTES, &mut |slice| {
        seen += slice.len() as u64;
        let more_slices = seen < size;
        let mut s = slice;
        // Complete any event torn across the previous slice boundary:
        // top the carry up in small steps until it decodes through.
        while !carry.is_empty() && !s.is_empty() {
            let take = s.len().min(CARRY_TOP_UP);
            carry.extend_from_slice(&s[..take]);
            s = &s[take..];
            let consumed =
                decode_events(&mut decoder, &carry, &mut fold, more_slices || !s.is_empty(), tid)?;
            carry.drain(..consumed);
        }
        if !carry.is_empty() {
            return Ok(()); // slice exhausted mid-event; next slice completes it
        }
        // The fast path: decode straight off the borrowed slice.
        let consumed = decode_events(&mut decoder, s, &mut fold, more_slices, tid)?;
        carry.extend_from_slice(&s[consumed..]);
        Ok(())
    })?;

    if !carry.is_empty() {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("trailing partial event in tid {tid}"),
        ));
    }

    let Fold { builder, mutex_sets, accesses, .. } = fold;
    let tree = builder.finish(|m| m.kind().is_write());
    Ok(BiTree { tid, tree, mutex_sets, accesses, bytes_read: size })
}

fn intern_set(sets: &mut Vec<Vec<MutexId>>, held: &[MutexId], tid: ThreadId) -> io::Result<u32> {
    // Linear scan: programs hold a handful of distinct lock sets per
    // interval.
    if let Some(i) = sets.iter().position(|s| s.as_slice() == held) {
        return Ok(i as u32);
    }
    let at = mset_index(sets.len(), tid)?;
    sets.push(held.to_vec());
    Ok(at)
}

/// `at` as an [`AccessMeta`] mutex-set index: an error past
/// [`MSET_MAX`], where the index would alias another set and invent or
/// hide a race.
fn mset_index(at: usize, tid: ThreadId) -> io::Result<u32> {
    u32::try_from(at).ok().filter(|&i| i <= MSET_MAX).ok_or_else(|| {
        let msg = format!("more than {} distinct held-lock sets in tid {tid}", MSET_MAX + 1);
        io::Error::new(io::ErrorKind::InvalidData, msg)
    })
}

/// Most thread-log files one analysis holds open at once, shared out
/// among its workers' pools (see [`ReaderPool::sharing`]). Well under
/// the usual 1024-descriptor soft limit, however many workers and
/// threads a session has.
pub const OPEN_LOGS_BUDGET: usize = 256;

/// A thread-log file opened on first use and closable between reads. It
/// keeps its position across a close, so the source over it never
/// notices.
#[derive(Debug)]
struct LogFile {
    path: PathBuf,
    file: Option<File>,
    pos: u64,
}

impl LogFile {
    fn file(&mut self) -> io::Result<&mut File> {
        let file = match self.file.take() {
            Some(file) => file,
            None => {
                let mut file = File::open(&self.path)?;
                file.seek(SeekFrom::Start(self.pos))?;
                file
            }
        };
        Ok(self.file.insert(file))
    }
}

impl Read for LogFile {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        let n = self.file()?.read(buf)?;
        self.pos += n as u64;
        Ok(n)
    }
}

impl Seek for LogFile {
    fn seek(&mut self, to: SeekFrom) -> io::Result<u64> {
        self.pos = match (to, &self.file) {
            (SeekFrom::Start(pos), None) => pos,
            _ => self.file()?.seek(to)?,
        };
        Ok(self.pos)
    }
}

/// Per-worker pool of log sources: random-access, so each thread's log
/// is indexed once. A pool holds at most `max_open` files open; past
/// that it closes the least recently read one, whose source keeps its
/// frame index and reopens the file when it is read again.
#[derive(Debug)]
pub struct ReaderPool {
    stats: SourceStats,
    sources: HashMap<ThreadId, MappedLog<LogFile>>,
    /// Threads whose files may be open, least recently read first.
    open: VecDeque<ThreadId>,
    max_open: usize,
}

impl Default for ReaderPool {
    fn default() -> Self {
        ReaderPool::sharing(SourceStats::new(), OPEN_LOGS_BUDGET)
    }
}

impl ReaderPool {
    /// An empty pool with private counters and the whole
    /// [`OPEN_LOGS_BUDGET`].
    pub fn new() -> Self {
        Self::default()
    }

    /// An empty pool reporting source activity into `stats` and holding
    /// at most `max_open` (at least one) files open: a worker's share of
    /// [`OPEN_LOGS_BUDGET`].
    pub fn sharing(stats: SourceStats, max_open: usize) -> Self {
        let max_open = max_open.max(1);
        ReaderPool { stats, sources: HashMap::new(), open: VecDeque::new(), max_open }
    }

    /// Builds the tree for one interval, indexing the thread's log on
    /// first use. `_chunk_bytes` is unused: [`MappedLog`] hands out
    /// frame-sized slices.
    pub fn build(
        &mut self,
        dir: &SessionDir,
        tid: ThreadId,
        data_begin: u64,
        size: u64,
        _chunk_bytes: usize,
    ) -> io::Result<BiTree> {
        // Make room for this thread's file before it is opened.
        if let Some(at) = self.open.iter().position(|&t| t == tid) {
            self.open.remove(at);
        } else if self.open.len() >= self.max_open {
            let lru = self.open.pop_front();
            if let Some(source) = lru.and_then(|t| self.sources.get_mut(&t)) {
                source.get_mut().file = None;
            }
        }
        self.open.push_back(tid);
        let source = match self.sources.entry(tid) {
            Entry::Occupied(e) => e.into_mut(),
            Entry::Vacant(e) => {
                let file = LogFile { path: dir.thread_log(tid), file: None, pos: 0 };
                e.insert(MappedLog::new(file, self.stats.clone())?)
            }
        };
        build_tree(source, tid, data_begin, size)
    }
}

/// The trees of one comparison task, held while its pairs are compared
/// and dropped with it: the analyzer keeps no tree past the task that
/// asked for it, so a worker holds one task's trees at a time and none
/// between rounds or polls. With registry rows (`--obs`), held tree bytes
/// are charged to the tree gauge and credited on drop, and wide nodes
/// are counted.
pub(crate) struct TaskTrees<'r> {
    /// `(data_begin, tree)` sorted by `(data_begin, tid)`: the task's
    /// file-position order.
    trees: Vec<(u64, BiTree)>,
    rows: Option<&'r Rows>,
}

impl<'r> TaskTrees<'r> {
    pub(crate) fn new(rows: Option<&'r Rows>) -> Self {
        TaskTrees { trees: Vec::new(), rows }
    }

    /// Builds and holds `member`'s tree; the build counts in the worker's
    /// tree-build stage time.
    pub(crate) fn build(
        &mut self,
        dir: &SessionDir,
        member: &Interval,
        pool: &mut ReaderPool,
        stats: &mut WorkerStats,
    ) -> io::Result<()> {
        let t0 = Instant::now();
        let (tid, begin, size) = (member.tid, member.meta.data_begin, member.meta.size);
        let tree = pool.build(dir, tid, begin, size, DEFAULT_CHUNK_BYTES)?;
        stats.build_secs += t0.elapsed().as_secs_f64();
        self.hold(member, tree, stats);
        Ok(())
    }

    /// Holds `member`'s tree, built here or by another worker. Charges the
    /// tree's build counters (trees built, nodes, events, bytes): they
    /// count *logical* tree requests, one per tree a task holds, whoever
    /// built it.
    pub(crate) fn hold(&mut self, member: &Interval, tree: BiTree, stats: &mut WorkerStats) {
        stats.trees_built += 1;
        stats.nodes += tree.node_count() as u64;
        stats.events += tree.accesses;
        stats.bytes_read += tree.bytes_read;
        if let Some(rows) = self.rows {
            rows.tree_mem.alloc(tree.heap_bytes());
            rows.wide_nodes.add(tree.tree.wide_nodes() as u64);
        }
        let key = (member.meta.data_begin, member.tid);
        let at = self.trees.partition_point(|(begin, t)| (*begin, t.tid) < key);
        self.trees.insert(at, (member.meta.data_begin, tree));
    }

    /// `member`'s tree, if this task holds it.
    pub(crate) fn get(&self, member: &Interval) -> Option<&BiTree> {
        let key = (member.meta.data_begin, member.tid);
        let at = self.trees.binary_search_by_key(&key, |(begin, t)| (*begin, t.tid)).ok()?;
        Some(&self.trees[at].1)
    }
}

impl Drop for TaskTrees<'_> {
    /// Credits the task's trees back to the tree gauge, whose peak keeps
    /// the measured tree memory.
    fn drop(&mut self) {
        if let Some(rows) = self.rows {
            rows.tree_mem.free(self.trees.iter().map(|(_, t)| t.heap_bytes()).sum());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sword_obs::Registry;
    use sword_trace::{EventEncoder, MemAccess};

    fn encode(events: &[Event]) -> Vec<u8> {
        let mut enc = EventEncoder::new();
        let mut buf = Vec::new();
        for e in events {
            enc.encode(e, &mut buf);
        }
        buf
    }

    /// Writes `bytes` as a log of `frame_bytes`-sized frames (the last
    /// may be shorter) and opens it.
    fn framed_log(bytes: &[u8], frame_bytes: usize) -> MappedLog<std::io::Cursor<Vec<u8>>> {
        let mut w = sword_trace::LogWriter::new(Vec::new());
        for block in bytes.chunks(frame_bytes) {
            w.write_block(block).unwrap();
        }
        MappedLog::from_bytes(w.into_inner(), SourceStats::new())
    }

    fn tree_from_frames(events: &[Event], frame_bytes: usize) -> BiTree {
        let bytes = encode(events);
        build_tree(&mut framed_log(&bytes, frame_bytes), 0, 0, bytes.len() as u64).unwrap()
    }

    /// The tree of `events` logged as a single frame.
    fn tree_from(events: &[Event]) -> BiTree {
        tree_from_frames(events, usize::MAX)
    }

    fn acc(addr: u64, kind: AccessKind, pc: PcId) -> Event {
        Event::Access(MemAccess::new(addr, 8, kind, pc))
    }

    #[test]
    fn empty_interval() {
        let t = tree_from(&[]);
        assert_eq!(t.node_count(), 0);
        assert_eq!(t.accesses, 0);
    }

    #[test]
    fn array_sweep_summarizes() {
        let events: Vec<Event> =
            (0..1000).map(|i| acc(0x1000 + i * 8, AccessKind::Write, 7)).collect();
        let t = tree_from(&events);
        assert_eq!(t.accesses, 1000);
        assert_eq!(t.node_count(), 1, "one strided node");
        let (_, iv, meta) = t.tree.iter().next().unwrap();
        assert_eq!(iv.begin(), 0x1000);
        assert_eq!(iv.len(), 1000);
        assert_eq!(meta.pc, 7);
        assert_eq!(meta.kind(), AccessKind::Write);
    }

    fn mixed_events() -> Vec<Event> {
        (0..200)
            .flat_map(|i| {
                [
                    acc(0x1000 + i * 8, AccessKind::Read, 1),
                    acc(0x9000 + i * 16, AccessKind::Write, 2),
                ]
            })
            .collect()
    }

    #[test]
    fn tiny_frames_equal_one_frame() {
        // 3-byte frames: every slice the map hands out splits an event,
        // so each one goes through the carry buffer.
        let events = mixed_events();
        let small = tree_from_frames(&events, 3);
        let big = tree_from(&events);
        assert_eq!(small.accesses, big.accesses);
        assert_eq!(small.node_count(), big.node_count());
        assert_eq!(small.mutex_sets, big.mutex_sets);
        let a: Vec<_> = small.tree.iter().map(|(_, iv, m)| (*iv, *m)).collect();
        let b: Vec<_> = big.tree.iter().map(|(_, iv, m)| (*iv, *m)).collect();
        assert_eq!(a, b);
    }

    #[test]
    fn interval_ending_mid_event_is_invalid_data() {
        // Cut the encoded stream inside its last event. Whether the torn
        // tail sits in the carry buffer (3-byte frames) or in the last
        // borrowed slice, the final decode reports corruption; no panic.
        let bytes = encode(&mixed_events());
        let cut = &bytes[..bytes.len() - 1];
        for frame_bytes in [3, 64, usize::MAX] {
            let err = build_tree(&mut framed_log(cut, frame_bytes), 0, 0, cut.len() as u64)
                .expect_err("torn final event");
            assert_eq!(err.kind(), io::ErrorKind::InvalidData, "frames of {frame_bytes}: {err}");
            assert!(err.to_string().contains("tid 0"), "{err}");
        }
    }

    #[test]
    fn access_wrapping_the_address_space_is_invalid_data() {
        // `addr + size` past u64::MAX: the node's end would overflow
        // (debug) or wrap below its begin and never be reported (release).
        let events = [acc(0x1000, AccessKind::Read, 1), acc(u64::MAX - 3, AccessKind::Write, 2)];
        let bytes = encode(&events);
        for frame_bytes in [3, usize::MAX] {
            let err = build_tree(&mut framed_log(&bytes, frame_bytes), 4, 0, bytes.len() as u64)
                .expect_err("wrapping access");
            assert_eq!(err.kind(), io::ErrorKind::InvalidData, "{err}");
            let expect = "access at 0xfffffffffffffffc size 8 wraps the address space in tid 4";
            assert_eq!(err.to_string(), expect);
        }
        // The last addressable bytes themselves are fine.
        let t = tree_from(&[acc(u64::MAX - 8, AccessKind::Write, 2)]);
        assert_eq!(t.tree.bounds(), Some((u64::MAX - 8, u64::MAX)));
    }

    #[test]
    fn access_wrapping_the_address_space_at_the_end_of_a_repeated_run_is_invalid_data() {
        // `a[i]; b[i]` whose `b` sweep reaches u64::MAX after 5,000
        // iterations of one repeated body: the repeat step folds the run
        // but stops short of the access that wraps, which is reported as
        // the per-event fold reports it.
        let top = u64::MAX - 8 * 5000 - 3;
        let events: Vec<Event> = (0..6000u64)
            .flat_map(|i| {
                [
                    acc(0x1000 + i * 8, AccessKind::Read, 1),
                    acc(top.wrapping_add(i * 8), AccessKind::Write, 2),
                ]
            })
            .collect();
        let bytes = encode(&events);
        for frame_bytes in [3, 1000, usize::MAX] {
            let err = build_tree(&mut framed_log(&bytes, frame_bytes), 4, 0, bytes.len() as u64)
                .expect_err("wrapping access");
            assert_eq!(err.kind(), io::ErrorKind::InvalidData, "{err}");
            let expect = "access at 0xfffffffffffffffc size 8 wraps the address space in tid 4";
            assert_eq!(err.to_string(), expect, "frames of {frame_bytes}");
        }
        // One iteration fewer is a whole tree of two progressions.
        let t = tree_from(&events[..2 * 5000]);
        assert_eq!(t.accesses, 10_000);
        assert_eq!(t.tree.bounds(), Some((0x1000, u64::MAX - 3)));
    }

    #[test]
    fn progression_at_the_top_of_the_address_space_does_not_extend_past_it() {
        // A confirmed stride whose next element lies past u64::MAX. The
        // following access sits exactly where that element wraps to; it is
        // not part of the progression and must get its own node.
        let stride = 4096;
        let base = u64::MAX - 8 - 2 * stride;
        let wrapped = base.wrapping_add(3 * stride);
        let events: Vec<Event> = [base, base + stride, base + 2 * stride, wrapped]
            .into_iter()
            .map(|addr| acc(addr, AccessKind::Write, 1))
            .collect();
        let t = tree_from(&events);
        t.tree.assert_invariants();
        let nodes: Vec<_> = t.tree.iter().map(|(_, iv, _)| (iv.begin(), iv.len())).collect();
        assert_eq!(nodes, vec![(wrapped, 1), (base, 3)]);
        assert_eq!(t.tree.range_overlaps(wrapped, wrapped + 1).len(), 1);
        assert_eq!(t.tree.bounds(), Some((wrapped, u64::MAX)));
    }

    #[test]
    fn mutex_sets_attach_to_accesses() {
        let events = vec![
            acc(0x10, AccessKind::Write, 1), // no locks
            Event::MutexAcquire(5),
            acc(0x20, AccessKind::Write, 2), // {5}
            Event::MutexAcquire(3),
            acc(0x30, AccessKind::Write, 3), // {3,5}
            Event::MutexRelease(5),
            acc(0x40, AccessKind::Write, 4), // {3}
            Event::MutexRelease(3),
            acc(0x50, AccessKind::Write, 5), // {}
        ];
        let t = tree_from(&events);
        assert_eq!(t.node_count(), 5);
        let by_pc: std::collections::HashMap<PcId, u32> =
            t.tree.iter().map(|(_, _, m)| (m.pc, m.mset())).collect();
        assert_eq!(t.mutex_sets[by_pc[&1] as usize], Vec::<MutexId>::new());
        assert_eq!(t.mutex_sets[by_pc[&2] as usize], vec![5]);
        assert_eq!(t.mutex_sets[by_pc[&3] as usize], vec![3, 5]);
        assert_eq!(t.mutex_sets[by_pc[&4] as usize], vec![3]);
        assert_eq!(t.mutex_sets[by_pc[&5] as usize], Vec::<MutexId>::new());
        // Empty set re-interned to the same id.
        assert_eq!(by_pc[&1], by_pc[&5]);
    }

    #[test]
    fn can_race_conditions() {
        let t = tree_from(&[
            acc(0x10, AccessKind::Read, 1),
            acc(0x20, AccessKind::Write, 2),
            acc(0x30, AccessKind::AtomicWrite, 3),
            Event::MutexAcquire(9),
            acc(0x40, AccessKind::Write, 4),
        ]);
        let meta_of = |pc: PcId| -> AccessMeta {
            t.tree.iter().find(|(_, _, m)| m.pc == pc).map(|(_, _, m)| *m).unwrap()
        };
        let read = meta_of(1);
        let write = meta_of(2);
        let awrite = meta_of(3);
        let locked_write = meta_of(4);
        assert!(!t.can_race(&read, &t, &read), "read-read never races");
        assert!(t.can_race(&read, &t, &write));
        assert!(t.can_race(&write, &t, &write));
        assert!(!t.can_race(&awrite, &t, &awrite), "atomic-atomic never races");
        assert!(t.can_race(&awrite, &t, &read), "atomic vs plain still races");
        assert!(t.can_race(&write, &t, &locked_write), "disjoint lock sets race");
        assert!(!t.can_race(&locked_write, &t, &locked_write), "common lock protects");
    }

    #[test]
    fn interval_slicing_from_shared_log() {
        // Two intervals back to back in one log; build each from its
        // range.
        let ev1: Vec<Event> = (0..50).map(|i| acc(i * 8, AccessKind::Write, 1)).collect();
        let ev2: Vec<Event> = (0..30).map(|i| acc(0x8000 + i * 4, AccessKind::Read, 2)).collect();
        let mut enc = EventEncoder::new();
        let mut b1 = Vec::new();
        for e in &ev1 {
            enc.encode(e, &mut b1);
        }
        enc.reset();
        let mut b2 = Vec::new();
        for e in &ev2 {
            enc.encode(e, &mut b2);
        }
        let mut w = sword_trace::LogWriter::new(Vec::new());
        w.write_block(&b1).unwrap();
        w.write_block(&b2).unwrap();
        let mut source = MappedLog::from_bytes(w.into_inner(), SourceStats::new());
        let t1 = build_tree(&mut source, 0, 0, b1.len() as u64).unwrap();
        let t2 = build_tree(&mut source, 0, b1.len() as u64, b2.len() as u64).unwrap();
        assert_eq!(t1.accesses, 50);
        assert_eq!(t2.accesses, 30);
        assert_eq!(t1.node_count(), 1);
        assert_eq!(t2.node_count(), 1);
        assert_eq!(t2.tree.iter().next().unwrap().1.begin(), 0x8000);
    }

    /// A scratch session directory with one single-interval log per entry
    /// of `logs` (tid = index), and the intervals naming them.
    fn session_of(tag: &str, logs: &[Vec<Event>]) -> (SessionDir, Vec<Interval>) {
        let path = std::env::temp_dir().join(format!("sword-build-{tag}-{}", std::process::id()));
        let dir = SessionDir::new(path);
        dir.create().unwrap();
        let span = logs.len() as u64;
        let members = (0..span)
            .zip(logs)
            .map(|(slot, events)| {
                let bytes = encode(events);
                let mut w = sword_trace::LogWriter::new(Vec::new());
                w.write_block(&bytes).unwrap();
                std::fs::write(dir.thread_log(slot as ThreadId), w.into_inner()).unwrap();
                let meta = sword_trace::MetaRecord {
                    pid: 0,
                    ppid: None,
                    bid: 0,
                    offset: slot,
                    span,
                    level: 1,
                    data_begin: 0,
                    size: bytes.len() as u64,
                };
                Interval { tid: slot as ThreadId, meta }
            })
            .collect();
        (dir, members)
    }

    /// `n` xorshift64 words from `seed`.
    fn random_words(n: u64, seed: u64) -> impl Iterator<Item = u64> {
        let mut x = seed | 1;
        (0..n).map(move |_| {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x
        })
    }

    /// `n` reads from one site at scattered addresses: about one node
    /// each.
    fn scattered(n: u64, seed: u64) -> Vec<Event> {
        random_words(n, seed).map(|x| acc((x % (1 << 24)) * 8, AccessKind::Read, 1)).collect()
    }

    /// What a tree's mutex sets hold on the heap, counted independently
    /// of [`BiTree::heap_bytes`].
    fn set_bytes(t: &BiTree) -> u64 {
        let inner: usize = t.mutex_sets.iter().map(|s| s.capacity() * 4).sum();
        (t.mutex_sets.capacity() * std::mem::size_of::<Vec<MutexId>>() + inner) as u64
    }

    #[test]
    fn tree_gauge_charges_the_node_slice_and_the_sets() {
        let locked =
            vec![Event::MutexAcquire(3), acc(0x40, AccessKind::Write, 2), Event::MutexRelease(3)];
        let (dir, members) = session_of("gauge", &[scattered(1000, 7), locked]);
        let rows = Rows::new(&Registry::new());
        let (mem, mut trees) = (&rows.tree_mem, TaskTrees::new(Some(&rows)));
        let (mut pool, mut stats) = (ReaderPool::new(), WorkerStats::default());
        for m in &members {
            trees.build(&dir, m, &mut pool, &mut stats).unwrap();
        }
        let expect: u64 = members
            .iter()
            .map(|m| trees.get(m).unwrap())
            .map(|t| t.tree.arena_bytes() as u64 + set_bytes(t))
            .sum();
        assert_eq!(mem.live(), expect);
        // A packed interval and its metadata: no link fields.
        let t = trees.get(&members[0]).unwrap();
        assert_eq!(t.tree.arena_bytes(), t.node_count() * 24);
        drop(trees);
        assert_eq!(mem.live(), 0);
        assert_eq!(mem.peak(), expect);
        std::fs::remove_dir_all(dir.path()).unwrap();
    }

    #[test]
    fn a_node_is_24_bytes() {
        assert_eq!(IntervalTree::<AccessMeta>::with_capacity(1).arena_bytes(), 24);
    }

    #[test]
    fn access_meta_is_8_bytes_and_round_trips_every_kind_and_set() {
        assert_eq!(std::mem::size_of::<AccessMeta>(), 8);
        for code in 0..4 {
            let kind = AccessKind::from_code(code).unwrap();
            for mset in [0, MSET_MAX] {
                let m = AccessMeta::new(kind, u32::MAX, mset);
                assert_eq!((m.kind(), m.pc, m.mset()), (kind, u32::MAX, mset));
            }
        }
    }

    #[test]
    fn a_mutex_set_index_past_30_bits_is_invalid_data() {
        assert_eq!(MSET_MAX, (1 << 30) - 1);
        assert_eq!(mset_index(MSET_MAX as usize, 7).unwrap(), MSET_MAX);
        let err = mset_index(1 << 30, 7).expect_err("the 2^30th set does not fit");
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert_eq!(err.to_string(), "more than 1073741824 distinct held-lock sets in tid 7");
        assert!(mset_index(usize::MAX, 7).is_err());
    }

    #[test]
    fn held_trees_count_their_wide_nodes() {
        let (dir, members) = session_of("wide", &[scattered(100, 3)]);
        let rows = Rows::new(&Registry::new());
        let (mem, mut trees) = (&rows.tree_mem, TaskTrees::new(Some(&rows)));
        let (mut pool, mut stats) = (ReaderPool::new(), WorkerStats::default());
        // A tree built from a log has no wide node.
        trees.build(&dir, &members[0], &mut pool, &mut stats).unwrap();
        assert_eq!(rows.wide_nodes.get(), 0);
        // Two of four do not pack: a size of 300 and a stride of 2^23;
        // a stride of 2^23 - 1 does.
        let meta = AccessMeta::new(AccessKind::Write, 1, 0);
        let mut tree = IntervalTree::with_capacity(4);
        for iv in [
            sword_itree::StridedInterval::single(0x40, 300),
            sword_itree::StridedInterval::new(0x80, 1 << 23, 3, 8),
            sword_itree::StridedInterval::new(0x90, (1 << 23) - 1, 3, 8),
            sword_itree::StridedInterval::new(0x100, 8, 3, 8),
        ] {
            tree.insert(iv, meta);
        }
        let wide =
            BiTree { tid: 1, tree, mutex_sets: vec![Vec::new()], accesses: 4, bytes_read: 0 };
        let bytes = wide.heap_bytes();
        assert!(bytes >= 4 * 24 + 2 * 32 + set_bytes(&wide), "the gauge charges the wide list");
        let other = Interval { tid: 1, ..members[0].clone() };
        let (live, nodes) = (mem.live(), stats.nodes);
        trees.hold(&other, wide, &mut stats);
        assert_eq!((rows.wide_nodes.get(), stats.nodes), (2, nodes + 4));
        assert_eq!(mem.live(), live + bytes);
        drop(trees);
        std::fs::remove_dir_all(dir.path()).unwrap();
    }

    #[test]
    fn cache_holds_one_tasks_trees_not_two() {
        // The scatter shape: two threads gather through a random index
        // table over two rounds, so every interval's tree is about one
        // node per gather, over `BIG` nodes each. One analysis worker (the
        // gauge is shared by workers, so with more the peak depends on how
        // their tasks overlap): once a task's trees are built, the
        // previous task's must be gone.
        use sword_ompsim::SimConfig;
        use sword_runtime::{run_collected, SwordConfig};

        const BIG: usize = 64 * 1024;
        let n = 2 * (BIG as u64 + 8192);
        let table = n.next_power_of_two();
        let idx: Vec<u64> =
            random_words(n, 0x9E37_79B9_7F4A_7C15).map(|x| x & (table - 1)).collect();
        let path = std::env::temp_dir().join(format!("sword-build-scatter-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&path);
        run_collected(SwordConfig::new(&path), SimConfig::default(), |sim| {
            let src = sim.alloc::<u64>(table, 1);
            let dst = sim.alloc::<u64>(n, 0);
            sim.run(|ctx| {
                ctx.parallel(2, |w| {
                    for _round in 0..2 {
                        w.for_static(0..n, |i| {
                            let v = w.read(&src, idx[i as usize]);
                            w.write(&dst, i, v);
                        });
                    }
                });
            });
        })
        .expect("collection");
        let dir = SessionDir::new(&path);

        // Each task's trees, built on their own.
        let session = crate::LoadedSession::load(&dir).unwrap();
        let structure = crate::intervals::build_structure(&session).unwrap();
        let mut pool = ReaderPool::new();
        let (mut largest, mut big_trees) = (0, 0);
        for group in &structure.groups {
            let trees: Vec<BiTree> = group
                .members
                .iter()
                .filter(|m| m.meta.size > 0)
                .map(|m| {
                    let (begin, size) = (m.meta.data_begin, m.meta.size);
                    pool.build(&dir, m.tid, begin, size, DEFAULT_CHUNK_BYTES).unwrap()
                })
                .collect();
            if trees.len() < 2 {
                continue;
            }
            big_trees += trees.iter().filter(|t| t.node_count() > BIG).count();
            largest = largest.max(trees.iter().map(BiTree::heap_bytes).sum::<u64>());
        }
        assert_eq!(big_trees, 4, "every gather interval's tree has over 64 k nodes");

        let obs = sword_obs::Obs::new();
        crate::analyze(&dir, &crate::AnalysisConfig::sequential().with_obs(obs.clone())).unwrap();
        let snap: HashMap<String, f64> = obs.registry.snapshot().into_iter().collect();
        assert_eq!(snap["sword_analyzer_tree_mem_bytes"], 0.0);
        let peak = snap["sword_analyzer_tree_mem_peak_bytes"];
        assert_eq!(peak, largest as f64, "peak holds exactly one task's trees");
        std::fs::remove_dir_all(&path).unwrap();
    }

    #[test]
    fn sets_disjoint_logic() {
        assert!(sets_disjoint(&[], &[]));
        assert!(sets_disjoint(&[1, 3], &[2, 4]));
        assert!(!sets_disjoint(&[1, 3], &[3, 4]));
        assert!(sets_disjoint(&[], &[1]));
    }
}
