//! Per-thread collection state, in two halves with two owners.
//!
//! [`Hot`] is what only the running thread touches: the bounded event
//! buffer, the encoder, the open barrier interval and the running event
//! count. It travels: parked inside the thread's [`ThreadLog`] between
//! regions, checked out into the running context's lane while the thread
//! is inside one — so an access is a borrow and an encode, never a lock.
//!
//! [`ThreadLog`] is what others read — the finished meta rows (the live
//! publisher), the event and flush totals (`stats()`), the journal
//! recorder — and it stays behind the slot's mutex. The running thread
//! visits it only where the two halves meet: when an interval closes, at
//! a flush hand-off, and when it parks.

use sword_obs::ThreadJournal;
use sword_ompsim::ThreadContext;
use sword_trace::{Event, EventEncoder, MemAccess, MetaRecord};

/// The paper's tuned buffer capacity: 25,000 events (§III-A, chosen to
/// keep the buffer within L3).
pub const PAPER_BUFFER_EVENTS: usize = 25_000;

/// Bytes of buffer per event of capacity, sized once up front so the hot
/// path never reallocates (the pool checks that on every buffer it gets
/// back). What has to fit: the encoder's general path writes at most
/// 1 (tag) + 2 (size varint) + 10 (address delta) + 5 (PC delta) = 18
/// bytes; its hot shape is at most 6 bytes long but is stored as one
/// 8-byte word and cut back, so a buffer's last event needs 8. The worst
/// fill of an `n`-event buffer is therefore `(n − 1)·18 + 8 ≤ 24·n`.
pub(crate) const MAX_EVENT_BYTES: usize = 24;

/// A barrier interval currently being collected.
#[derive(Clone, Debug)]
pub(crate) struct OpenInterval {
    pub pid: u64,
    pub ppid: Option<u64>,
    pub bid: u32,
    pub offset: u64,
    pub span: u64,
    pub level: u32,
    pub data_begin: u64,
}

/// The thread-owned half of one thread's collection state.
pub(crate) struct Hot {
    buffer: Vec<u8>,
    buffer_events: usize,
    capacity_events: usize,
    encoder: EventEncoder,
    /// Uncompressed log bytes already handed to the writer.
    flushed: u64,
    open: Option<OpenInterval>,
    /// Events encoded since the thread's first; [`ThreadLog::events_total`]
    /// trails it until the next flush or park.
    events_total: u64,
}

impl Hot {
    /// A log that owns its own buffer (tests and pool-less callers).
    #[cfg(test)]
    pub fn new(capacity_events: usize) -> Self {
        Self::with_buffer(capacity_events, Vec::with_capacity(capacity_events * MAX_EVENT_BYTES))
    }

    /// A log filling `initial` (a pool buffer); subsequent buffers arrive
    /// via [`Hot::swap_buffer`].
    pub fn with_buffer(capacity_events: usize, initial: Vec<u8>) -> Self {
        assert!(capacity_events > 0);
        Hot {
            buffer: initial,
            buffer_events: 0,
            capacity_events,
            encoder: EventEncoder::new(),
            flushed: 0,
            open: None,
            events_total: 0,
        }
    }

    /// Uncompressed log offset of the next byte to be written.
    pub fn offset(&self) -> u64 {
        self.flushed + self.buffer.len() as u64
    }

    /// Capacity of the byte buffer (the pool owns bounded-memory
    /// accounting now; this remains for tests).
    #[cfg(test)]
    pub fn buffer_capacity_bytes(&self) -> usize {
        self.buffer.capacity()
    }

    /// Opens a new barrier interval described by the thread context.
    /// Resets the encoder so the interval's byte range decodes standalone.
    pub fn open_interval(&mut self, ctx: &ThreadContext<'_>) {
        debug_assert!(self.open.is_none(), "interval already open");
        let pair = ctx.label.last().expect("worker label has a pair");
        self.open = Some(OpenInterval {
            pid: ctx.region,
            ppid: ctx.parent_region,
            bid: ctx.bid,
            offset: pair.offset,
            span: pair.span,
            level: ctx.level,
            data_begin: self.offset(),
        });
        self.encoder.reset();
    }

    /// Closes the open interval, if any, returning its Table-I row for
    /// [`ThreadLog::meta`].
    pub fn close_interval(&mut self) -> Option<MetaRecord> {
        let open = self.open.take()?;
        Some(MetaRecord {
            pid: open.pid,
            ppid: open.ppid,
            bid: open.bid,
            offset: open.offset,
            span: open.span,
            level: open.level,
            data_begin: open.data_begin,
            size: self.offset() - open.data_begin,
        })
    }

    /// Appends one event; returns `true` when the buffer reached capacity
    /// (the caller acquires a drained pool buffer and calls
    /// [`Hot::swap_buffer`]).
    #[inline]
    #[must_use = "a full buffer must be swapped out and shipped"]
    pub fn push(&mut self, event: &Event) -> bool {
        self.encoder.encode(event, &mut self.buffer);
        self.buffer_events += 1;
        self.events_total += 1;
        self.is_full()
    }

    /// Appends accesses off the front of `run` until it ends or the
    /// buffer reaches capacity, whichever comes first, and returns how
    /// many it took: a run that straddles the capacity is split exactly
    /// where [`Hot::push`], event by event, would have flushed. The
    /// caller ships the buffer when [`Hot::is_full`] and comes back with
    /// the rest.
    #[inline]
    pub fn push_run(&mut self, run: &[MemAccess]) -> usize {
        let taken = run.len().min(self.capacity_events - self.buffer_events);
        for access in &run[..taken] {
            self.encoder.encode_access(access, &mut self.buffer);
        }
        self.buffer_events += taken;
        self.events_total += taken as u64;
        taken
    }

    /// `true` when the buffer holds as many events as it may.
    #[inline]
    pub fn is_full(&self) -> bool {
        self.buffer_events >= self.capacity_events
    }

    /// Double-buffer handoff: installs the drained `fresh` buffer and
    /// returns the filled one for shipping.
    pub fn swap_buffer(&mut self, fresh: Vec<u8>) -> Vec<u8> {
        debug_assert!(fresh.is_empty(), "swap target must be drained");
        self.flushed += self.buffer.len() as u64;
        self.buffer_events = 0;
        std::mem::replace(&mut self.buffer, fresh)
    }

    /// Takes the current buffer contents for the final flush (empty →
    /// `None`). The replacement is an empty non-allocating `Vec`: drains
    /// happen once, at end of run.
    pub fn drain(&mut self) -> Option<Vec<u8>> {
        if self.buffer.is_empty() {
            None
        } else {
            Some(self.swap_buffer(Vec::new()))
        }
    }
}

/// The shared half of one thread's collection state, behind the slot's
/// mutex.
pub(crate) struct ThreadLog {
    /// The thread-owned half, while no context has it checked out.
    pub parked: Option<Hot>,
    pub meta: Vec<MetaRecord>,
    /// Events logged, as of the thread's last flush or park.
    pub events_total: u64,
    pub flushes: u64,
    /// Observability recorder for this app thread (`--obs` runs only).
    /// Records only at flush boundaries, never per event.
    pub obs: Option<ThreadJournal>,
}

impl ThreadLog {
    /// A log whose thread-owned half starts out parked.
    pub fn new(hot: Hot, obs: Option<ThreadJournal>) -> Self {
        ThreadLog { parked: Some(hot), meta: Vec::new(), events_total: 0, flushes: 0, obs }
    }

    /// Books one flush hand-off by the thread that has `hot` checked out.
    pub fn note_flush(&mut self, hot: &Hot) {
        self.flushes += 1;
        self.events_total = hot.events_total;
    }

    /// Takes the thread-owned half back at `thread_end`/`task_end`.
    pub fn park(&mut self, hot: Hot) {
        debug_assert!(self.parked.is_none(), "two lanes for one thread");
        debug_assert!(hot.open.is_none(), "parking with an interval open");
        self.events_total = hot.events_total;
        self.parked = Some(hot);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sword_trace::{AccessKind, MemAccess};

    fn access(addr: u64) -> Event {
        Event::Access(MemAccess::new(addr, 8, AccessKind::Write, 1))
    }

    #[test]
    fn buffer_flushes_at_capacity() {
        let mut log = Hot::new(10);
        for i in 0..9 {
            assert!(!log.push(&access(i * 8)));
        }
        assert!(log.push(&access(72)), "10th event fills the buffer");
        let fresh = Vec::with_capacity(log.buffer_capacity_bytes());
        let flushed = log.swap_buffer(fresh);
        assert!(!flushed.is_empty());
        assert_eq!(log.events_total, 10);
        assert_eq!(log.offset(), flushed.len() as u64);
        // Buffer restarts empty after the swap.
        assert!(log.drain().is_none());
    }

    #[test]
    fn drain_returns_partial_buffer() {
        let mut log = Hot::new(100);
        assert!(!log.push(&access(0)));
        assert!(!log.push(&access(8)));
        let bytes = log.drain().unwrap();
        assert!(!bytes.is_empty());
        assert!(log.drain().is_none());
        assert_eq!(log.offset(), bytes.len() as u64);
    }

    #[test]
    fn offsets_continue_across_flushes() {
        let mut log = Hot::new(4);
        let cap = log.buffer_capacity_bytes();
        let mut total = 0u64;
        for i in 0..10 {
            if log.push(&access(i)) {
                let b = log.swap_buffer(Vec::with_capacity(cap));
                total += b.len() as u64;
                assert_eq!(log.offset(), total);
            }
        }
        if let Some(b) = log.drain() {
            total += b.len() as u64;
        }
        assert_eq!(log.offset(), total);
    }

    #[test]
    fn capacity_is_stable_across_swaps() {
        let mut log = Hot::new(5);
        let before = log.buffer_capacity_bytes();
        // Two buffers rotating, exactly as the pool drives double
        // buffering: swap in the spare, drain the filled one, repeat.
        let mut spare = Vec::with_capacity(before);
        let mut flushes = 0;
        for i in 0..25 {
            if log.push(&access(i)) {
                let mut filled = log.swap_buffer(std::mem::take(&mut spare));
                filled.clear();
                spare = filled;
                flushes += 1;
            }
        }
        assert_eq!(log.buffer_capacity_bytes(), before, "bounded memory");
        assert_eq!(flushes, 5);
    }

    #[test]
    fn a_run_is_split_where_single_pushes_would_flush() {
        let run: Vec<MemAccess> =
            (0..25).map(|i| MemAccess::new(0x1000 + i * 8, 8, AccessKind::Write, 1)).collect();
        let (mut by_run, mut by_event) = (Hot::new(10), Hot::new(10));
        let cap = by_run.buffer_capacity_bytes();
        let (mut run_blocks, mut event_blocks) = (Vec::new(), Vec::new());
        let mut rest = &run[..];
        while !rest.is_empty() {
            let taken = by_run.push_run(rest);
            assert!(taken > 0 && (taken == rest.len() || by_run.is_full()));
            rest = &rest[taken..];
            if by_run.is_full() {
                run_blocks.push(by_run.swap_buffer(Vec::with_capacity(cap)));
            }
        }
        for a in &run {
            if by_event.push(&Event::Access(*a)) {
                event_blocks.push(by_event.swap_buffer(Vec::with_capacity(cap)));
            }
        }
        assert_eq!(run_blocks.len(), 2, "25 events through 10-event buffers");
        assert_eq!(run_blocks, event_blocks);
        assert_eq!(by_run.events_total, by_event.events_total);
        assert_eq!(by_run.drain(), by_event.drain());
        assert_eq!(by_run.push_run(&[]), 0);
    }

    #[test]
    fn shared_totals_advance_at_flush_and_park_only() {
        let mut shared = ThreadLog::new(Hot::new(4), None);
        let mut hot = shared.parked.take().expect("starts parked");
        for i in 0..4 {
            let full = hot.push(&access(i));
            assert_eq!(full, i == 3);
        }
        assert_eq!(shared.events_total, 0, "a running thread's events are its own");
        let _ = hot.swap_buffer(Vec::new());
        shared.note_flush(&hot);
        assert_eq!((shared.events_total, shared.flushes), (4, 1));
        assert!(!hot.push(&access(99)));
        assert_eq!(shared.events_total, 4, "lags by less than one buffer");
        shared.park(hot);
        assert_eq!((shared.events_total, shared.flushes), (5, 1), "exact once parked");
        assert!(shared.parked.is_some());
    }

    #[test]
    fn closing_without_an_open_interval_yields_no_row() {
        let mut log = Hot::new(4);
        assert!(log.close_interval().is_none());
    }
}
