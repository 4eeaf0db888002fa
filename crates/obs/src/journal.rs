//! Span/event journal: bounded per-thread ring buffers drained to a
//! JSONL file alongside the session.
//!
//! The recording discipline mirrors the tool it observes: each thread
//! writes only into its own fixed-capacity ring, so the journal's memory
//! is `threads x capacity x event` and never grows with run length. A
//! full ring drops the newest event and bumps a shared atomic
//! `dropped_events` counter instead of allocating. The hot path touches
//! only the owning ring's lock, which is contended solely by the drainer
//! (a periodic, amortized pass) — never by other recording threads.
//!
//! Drained events are appended to `obs.jsonl` as one JSON object per
//! line. Because lines are appended incrementally and each is
//! self-contained, a crashed run's journal survives for postmortem: a
//! reader tolerates a torn final line (see [`read_journal`]).

use std::borrow::Cow;
use std::collections::VecDeque;
use std::fs::{File, OpenOptions};
use std::io::{self, BufRead, BufReader, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use crate::json::{self, Value};

/// Default per-thread ring capacity (events). At ~100 bytes/event this
/// bounds the journal at ~800 KiB per recording thread, far inside the
/// tool's own 3.3 MB/thread budget.
pub const DEFAULT_RING_CAPACITY: usize = 8192;

/// Which layer of the stack an event belongs to. Renders as a separate
/// process row in the Chrome trace export.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Layer {
    /// Online collection: app threads, compression workers, writer.
    Runtime,
    /// Offline analysis: pipeline stages and workers, live poller.
    Offline,
    /// The archer-sim comparison tool.
    Archer,
    /// CLI orchestration (run/analyze/watch/fuzz driver activity).
    Cli,
}

impl Layer {
    /// Stable lowercase name used in the JSONL `layer` field.
    pub fn as_str(self) -> &'static str {
        match self {
            Layer::Runtime => "runtime",
            Layer::Offline => "offline",
            Layer::Archer => "archer",
            Layer::Cli => "cli",
        }
    }

    /// Stable synthetic pid for Chrome trace export (one process row per
    /// layer).
    pub fn pid(self) -> u64 {
        match self {
            Layer::Runtime => 1,
            Layer::Offline => 2,
            Layer::Archer => 3,
            Layer::Cli => 4,
        }
    }

    /// Parses the JSONL `layer` field.
    pub fn from_name(s: &str) -> Option<Layer> {
        match s {
            "runtime" => Some(Layer::Runtime),
            "offline" => Some(Layer::Offline),
            "archer" => Some(Layer::Archer),
            "cli" => Some(Layer::Cli),
            _ => None,
        }
    }
}

/// Where an event sits on a producer→consumer flow: the producing side
/// (`Start`), an intermediate hop (`Step`), or the final consumer
/// (`End`). Chrome trace export turns these into flow arrows (`ph`
/// `s`/`t`/`f`) joining spans across threads by flow id.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FlowPhase {
    /// Producer side of a channel handoff.
    Start,
    /// Intermediate hop (consumed then re-enqueued downstream).
    Step,
    /// Final consumer of the flow.
    End,
}

impl FlowPhase {
    /// Stable one-letter name used in the JSONL `fph` field (matches the
    /// Chrome trace `ph` letter).
    pub fn as_str(self) -> &'static str {
        match self {
            FlowPhase::Start => "s",
            FlowPhase::Step => "t",
            FlowPhase::End => "f",
        }
    }

    /// Parses the JSONL `fph` field.
    pub fn from_name(s: &str) -> Option<FlowPhase> {
        match s {
            "s" => Some(FlowPhase::Start),
            "t" => Some(FlowPhase::Step),
            "f" => Some(FlowPhase::End),
            _ => None,
        }
    }
}

/// An event or attribute name. Recorders pass string literals, which it
/// borrows — recording a span allocates no strings; only events parsed
/// back from a journal file own theirs.
pub type Key = Cow<'static, str>;

/// One journal record: a completed span (`dur_us` set) or an instant.
#[derive(Clone, Debug, PartialEq)]
pub struct JournalEvent {
    /// Owning layer.
    pub layer: Layer,
    /// Recording thread's label (e.g. `app-3`, `writer`, `oa-worker-0`),
    /// shared with the recorder that stamps it.
    pub thread: Arc<str>,
    /// Event name (e.g. `flush-handoff`, `compress`, `build-structure`).
    pub name: Key,
    /// Start time, microseconds since the journal epoch.
    pub t_us: u64,
    /// Span duration in microseconds; `None` for instant events.
    pub dur_us: Option<u64>,
    /// Numeric attributes (byte counts, depths, ...).
    pub args: Vec<(Key, f64)>,
    /// Causal flow membership: `(flow id, phase)` when this event sits on
    /// a cross-thread producer→consumer chain.
    pub flow: Option<(u64, FlowPhase)>,
}

impl JournalEvent {
    /// Serializes to one JSONL line (without the trailing newline).
    pub fn to_json(&self) -> Value {
        let mut pairs = vec![
            ("t".to_string(), Value::Num(self.t_us as f64)),
            ("layer".to_string(), Value::Str(self.layer.as_str().to_string())),
            ("thread".to_string(), Value::Str(self.thread.to_string())),
            ("name".to_string(), Value::Str(self.name.to_string())),
        ];
        if let Some(dur) = self.dur_us {
            pairs.push(("dur".to_string(), Value::Num(dur as f64)));
        }
        if !self.args.is_empty() {
            let args = self.args.iter().map(|(k, v)| (k.to_string(), Value::Num(*v))).collect();
            pairs.push(("args".to_string(), Value::Obj(args)));
        }
        if let Some((id, phase)) = self.flow {
            pairs.push(("flow".to_string(), Value::Num(id as f64)));
            pairs.push(("fph".to_string(), Value::Str(phase.as_str().to_string())));
        }
        Value::Obj(pairs)
    }

    /// Parses one journal line.
    pub fn from_json(v: &Value) -> Result<JournalEvent, String> {
        let t_us = v.get("t").and_then(Value::as_u64).ok_or("missing t")?;
        let layer = v
            .get("layer")
            .and_then(Value::as_str)
            .and_then(Layer::from_name)
            .ok_or("missing/unknown layer")?;
        let thread = v.get("thread").and_then(Value::as_str).ok_or("missing thread")?;
        let name = v.get("name").and_then(Value::as_str).ok_or("missing name")?;
        let dur_us = v.get("dur").and_then(Value::as_u64);
        let mut args = Vec::new();
        if let Some(pairs) = v.get("args").and_then(Value::as_obj) {
            for (k, av) in pairs {
                args.push((Key::Owned(k.clone()), av.as_f64().ok_or("non-numeric arg")?));
            }
        }
        let flow =
            match (v.get("flow").and_then(Value::as_u64), v.get("fph").and_then(Value::as_str)) {
                (Some(id), Some(p)) => Some((id, FlowPhase::from_name(p).ok_or("unknown fph")?)),
                _ => None,
            };
        Ok(JournalEvent {
            layer,
            thread: thread.into(),
            name: Key::Owned(name.to_string()),
            t_us,
            dur_us,
            args,
            flow,
        })
    }
}

struct Ring {
    layer: Layer,
    label: Arc<str>,
    events: Mutex<VecDeque<JournalEvent>>,
}

struct JournalInner {
    epoch: Instant,
    capacity: usize,
    rings: Mutex<Vec<Arc<Ring>>>,
    // Shared ring for events not tied to a registered thread (registry
    // snapshots, drop markers); avoids growing the ring list per record.
    meta: Arc<Ring>,
    dropped: AtomicU64,
    next_flow: AtomicU64,
}

/// The shared journal: hands out per-thread recorders and drains them.
#[derive(Clone)]
pub struct Journal {
    inner: Arc<JournalInner>,
}

impl std::fmt::Debug for Journal {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Journal")
            .field("capacity", &self.inner.capacity)
            .field("dropped", &self.dropped_events())
            .finish()
    }
}

impl Default for Journal {
    fn default() -> Self {
        Journal::new(DEFAULT_RING_CAPACITY)
    }
}

impl Journal {
    /// Creates a journal whose per-thread rings hold `capacity` events.
    pub fn new(capacity: usize) -> Journal {
        let meta = Arc::new(Ring {
            layer: Layer::Cli,
            label: "metrics".into(),
            events: Mutex::new(VecDeque::new()),
        });
        Journal {
            inner: Arc::new(JournalInner {
                epoch: Instant::now(),
                capacity: capacity.max(1),
                rings: Mutex::new(vec![Arc::clone(&meta)]),
                meta,
                dropped: AtomicU64::new(0),
                next_flow: AtomicU64::new(1),
            }),
        }
    }

    /// Allocates a fresh causal-flow id, unique within this journal. Ids
    /// stamp the producer and consumer events of one channel handoff so
    /// trace viewers can draw the arrow between them.
    pub fn next_flow_id(&self) -> u64 {
        self.inner.next_flow.fetch_add(1, Ordering::Relaxed)
    }

    /// Records a pre-built event into the shared meta ring (same bounded
    /// drop-and-count discipline as per-thread rings). The event keeps
    /// its own layer/thread attribution.
    pub fn record(&self, event: JournalEvent) {
        let mut events = self.inner.meta.events.lock().expect("ring lock");
        if events.len() >= self.inner.capacity {
            drop(events);
            self.inner.dropped.fetch_add(1, Ordering::Relaxed);
            return;
        }
        events.push_back(event);
    }

    /// Microseconds since the journal epoch.
    pub fn now_us(&self) -> u64 {
        self.inner.epoch.elapsed().as_micros() as u64
    }

    /// Registers a recorder for one thread. Call once per thread; the
    /// handle is cheap to clone but rings are not deduplicated by label.
    pub fn for_thread(&self, layer: Layer, label: impl Into<Arc<str>>) -> ThreadJournal {
        let ring =
            Arc::new(Ring { layer, label: label.into(), events: Mutex::new(VecDeque::new()) });
        self.inner.rings.lock().expect("journal lock").push(Arc::clone(&ring));
        ThreadJournal { journal: self.clone(), ring }
    }

    /// Events dropped because a ring was full.
    pub fn dropped_events(&self) -> u64 {
        self.inner.dropped.load(Ordering::Relaxed)
    }

    /// Removes and returns all buffered events, oldest first per ring,
    /// merged and sorted by start time. A ring whose recorders are all
    /// dropped can take no more events: it is drained a last time and
    /// forgotten, so a process that registers recorders over and over
    /// (one analysis after another) holds only the live ones.
    pub fn drain(&self) -> Vec<JournalEvent> {
        let mut rings = self.inner.rings.lock().expect("journal lock");
        let mut out = Vec::new();
        rings.retain(|ring| {
            // Decided before the drain: no recorder is left to push after it.
            let live = Arc::strong_count(ring) > 1;
            out.extend(ring.events.lock().expect("ring lock").drain(..));
            live
        });
        drop(rings);
        out.sort_by_key(|e| e.t_us);
        out
    }
}

/// Per-thread recording handle. Records go into this thread's ring only.
#[derive(Clone)]
pub struct ThreadJournal {
    journal: Journal,
    ring: Arc<Ring>,
}

impl std::fmt::Debug for ThreadJournal {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ThreadJournal").field("label", &self.ring.label).finish()
    }
}

impl ThreadJournal {
    /// Microseconds since the journal epoch.
    pub fn now_us(&self) -> u64 {
        self.journal.now_us()
    }

    /// Starts a scoped span; recorded when the guard drops.
    pub fn span(&self, name: impl Into<Key>) -> Span<'_> {
        Span {
            recorder: self,
            name: name.into(),
            start_us: self.journal.now_us(),
            args: Vec::new(),
        }
    }

    /// Records an already-measured span (start and duration in
    /// microseconds since the journal epoch).
    pub fn span_closed(
        &self,
        name: impl Into<Key>,
        start_us: u64,
        dur_us: u64,
        args: Vec<(Key, f64)>,
    ) {
        self.span_closed_flow(name, start_us, dur_us, args, None);
    }

    /// [`ThreadJournal::span_closed`] with causal-flow membership.
    pub fn span_closed_flow(
        &self,
        name: impl Into<Key>,
        start_us: u64,
        dur_us: u64,
        args: Vec<(Key, f64)>,
        flow: Option<(u64, FlowPhase)>,
    ) {
        self.push(JournalEvent {
            layer: self.ring.layer,
            thread: Arc::clone(&self.ring.label),
            name: name.into(),
            t_us: start_us,
            dur_us: Some(dur_us),
            args,
            flow,
        });
    }

    /// Records an instant event.
    pub fn instant(&self, name: impl Into<Key>, args: Vec<(Key, f64)>) {
        self.push(JournalEvent {
            layer: self.ring.layer,
            thread: Arc::clone(&self.ring.label),
            name: name.into(),
            t_us: self.journal.now_us(),
            dur_us: None,
            args,
            flow: None,
        });
    }

    fn push(&self, event: JournalEvent) {
        let mut events = self.ring.events.lock().expect("ring lock");
        if events.len() >= self.journal.inner.capacity {
            drop(events);
            self.journal.inner.dropped.fetch_add(1, Ordering::Relaxed);
            return;
        }
        events.push_back(event);
    }
}

/// Scoped span guard: measures from creation to drop.
pub struct Span<'a> {
    recorder: &'a ThreadJournal,
    name: Key,
    start_us: u64,
    args: Vec<(Key, f64)>,
}

impl Span<'_> {
    /// Attaches a numeric attribute.
    pub fn arg(mut self, key: impl Into<Key>, value: f64) -> Self {
        self.args.push((key.into(), value));
        self
    }
}

impl Drop for Span<'_> {
    fn drop(&mut self) {
        let end = self.recorder.now_us();
        self.recorder.span_closed(
            std::mem::take(&mut self.name),
            self.start_us,
            end.saturating_sub(self.start_us),
            std::mem::take(&mut self.args),
        );
    }
}

/// Append-only JSONL writer for the journal file. The file is always
/// open in append mode and each batch goes out in one write, so several
/// sinks on one file (a live run's collector and a `watch`) interleave
/// whole batches and never overwrite each other's lines.
pub struct JournalSink {
    path: PathBuf,
    file: File,
}

impl std::fmt::Debug for JournalSink {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("JournalSink").field("path", &self.path).finish()
    }
}

impl JournalSink {
    /// Creates (truncating) the journal file, then writes to it as
    /// [`JournalSink::append`] does.
    pub fn create(path: impl Into<PathBuf>) -> io::Result<JournalSink> {
        let path = path.into();
        File::create(&path)?;
        JournalSink::append(path)
    }

    /// Opens the journal file for appending (the offline pass appends its
    /// spans to the collector's journal).
    pub fn append(path: impl Into<PathBuf>) -> io::Result<JournalSink> {
        let path = path.into();
        let file = OpenOptions::new().create(true).append(true).open(&path)?;
        Ok(JournalSink { path, file })
    }

    /// The file being written.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Appends events as JSONL lines in one write, so a crash loses at
    /// most the events still buffered in rings.
    pub fn write_events(&mut self, events: &[JournalEvent]) -> io::Result<()> {
        let mut batch = String::new();
        for event in events {
            batch.push_str(&event.to_json().render());
            batch.push('\n');
        }
        self.file.write_all(batch.as_bytes())
    }

    /// Drains the journal into the file; records a `dropped_events`
    /// instant first when rings overflowed since the last drain.
    pub fn drain_from(&mut self, journal: &Journal, last_dropped: &mut u64) -> io::Result<usize> {
        let dropped = journal.dropped_events();
        let mut events = Vec::new();
        if dropped > *last_dropped {
            events.push(JournalEvent {
                layer: Layer::Cli,
                thread: "journal".into(),
                name: "dropped_events".into(),
                t_us: journal.now_us(),
                dur_us: None,
                args: vec![("count".into(), (dropped - *last_dropped) as f64)],
                flow: None,
            });
            *last_dropped = dropped;
        }
        events.extend(journal.drain());
        let n = events.len();
        if n > 0 {
            self.write_events(&events)?;
        }
        Ok(n)
    }
}

/// Result of reading a journal file back.
#[derive(Clone, Debug, Default)]
pub struct JournalRead {
    /// Parsed events in file order.
    pub events: Vec<JournalEvent>,
    /// True when the final line was torn (crashed mid-write) and was
    /// skipped.
    pub truncated_tail: bool,
}

/// Reads a journal JSONL file line-by-line. A malformed *final* line —
/// the signature of a run killed mid-append — is tolerated and flagged;
/// malformed interior lines are `InvalidData` errors.
pub fn read_journal(path: &Path) -> io::Result<JournalRead> {
    let reader = BufReader::new(File::open(path)?);
    let mut out = JournalRead::default();
    let mut pending_error: Option<String> = None;
    for (idx, line) in reader.lines().enumerate() {
        let line = line?;
        if let Some(err) = pending_error.take() {
            // The bad line was not the last one: real corruption.
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!("journal line {}: {err}", idx),
            ));
        }
        if line.trim().is_empty() {
            continue;
        }
        match json::parse(&line).and_then(|v| JournalEvent::from_json(&v)) {
            Ok(event) => out.events.push(event),
            Err(err) => pending_error = Some(err),
        }
    }
    out.truncated_tail = pending_error.is_some();
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn span_guard_records_duration_and_args() {
        let journal = Journal::new(16);
        let tj = journal.for_thread(Layer::Runtime, "app-0");
        {
            let _span = tj.span("flush-handoff").arg("bytes", 4096.0);
        }
        tj.instant("publish", vec![]);
        let events = journal.drain();
        assert_eq!(events.len(), 2);
        let span = events.iter().find(|e| e.name == "flush-handoff").unwrap();
        assert!(span.dur_us.is_some());
        assert_eq!(span.args, vec![("bytes".into(), 4096.0)]);
        assert_eq!(&*span.thread, "app-0");
        let inst = events.iter().find(|e| e.name == "publish").unwrap();
        assert_eq!(inst.dur_us, None);
        // Drain empties the rings.
        assert!(journal.drain().is_empty());
    }

    #[test]
    fn ring_overflow_drops_and_counts_instead_of_growing() {
        let journal = Journal::new(8);
        let tj = journal.for_thread(Layer::Runtime, "app-0");
        for i in 0..100 {
            tj.instant(format!("e{i}"), vec![]);
        }
        assert_eq!(journal.dropped_events(), 92);
        let events = journal.drain();
        assert_eq!(events.len(), 8);
        // Drop-newest: the survivors are the oldest records.
        assert_eq!(events[0].name, "e0");
        assert_eq!(events[7].name, "e7");
        // Other threads' rings are unaffected.
        let tj2 = journal.for_thread(Layer::Offline, "worker-0");
        tj2.instant("ok", vec![]);
        assert_eq!(journal.drain().len(), 1);
    }

    #[test]
    fn a_ring_without_recorders_is_drained_once_more_and_forgotten() {
        let journal = Journal::new(8);
        let kept = journal.for_thread(Layer::Offline, "kept");
        let gone = journal.for_thread(Layer::Offline, "gone");
        gone.instant("last", vec![]);
        drop(gone);
        let rings = || journal.inner.rings.lock().unwrap().len();
        assert_eq!(rings(), 3, "the meta ring and two recorders");
        let events = journal.drain();
        assert_eq!(events.iter().map(|e| &*e.name).collect::<Vec<_>>(), ["last"]);
        assert_eq!(rings(), 2);
        kept.instant("still", vec![]);
        journal.record(JournalEvent { name: "meta".into(), ..events[0].clone() });
        assert_eq!(journal.drain().len(), 2, "live rings and the meta ring stay");
    }

    #[test]
    fn event_jsonl_roundtrip() {
        let event = JournalEvent {
            layer: Layer::Offline,
            thread: "oa-worker-1".into(),
            name: "work".into(),
            t_us: 123456,
            dur_us: Some(789),
            args: vec![("nodes".into(), 42.0)],
            flow: None,
        };
        let line = event.to_json().render();
        let back = JournalEvent::from_json(&json::parse(&line).unwrap()).unwrap();
        assert_eq!(back, event);

        // Flow membership survives the round trip too.
        let flowed = JournalEvent { flow: Some((17, FlowPhase::Step)), ..event };
        let line = flowed.to_json().render();
        let back = JournalEvent::from_json(&json::parse(&line).unwrap()).unwrap();
        assert_eq!(back, flowed);
    }

    #[test]
    fn flow_ids_are_unique_and_closed_spans_carry_flow() {
        let journal = Journal::new(16);
        let a = journal.next_flow_id();
        let b = journal.next_flow_id();
        assert_ne!(a, b);
        let tj = journal.for_thread(Layer::Runtime, "app-0");
        tj.span_closed_flow("handoff", 0, 5, vec![], Some((a, FlowPhase::Start)));
        let events = journal.drain();
        assert_eq!(events[0].flow, Some((a, FlowPhase::Start)));
    }

    #[test]
    fn sink_roundtrip_and_dropped_marker() {
        let dir = std::env::temp_dir().join(format!("obs-sink-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("obs.jsonl");
        let journal = Journal::new(4);
        let tj = journal.for_thread(Layer::Runtime, "app-0");
        for i in 0..10 {
            tj.instant(format!("e{i}"), vec![]);
        }
        let mut sink = JournalSink::create(&path).unwrap();
        let mut last_dropped = 0;
        let n = sink.drain_from(&journal, &mut last_dropped).unwrap();
        assert_eq!(n, 5); // dropped marker + 4 ring survivors
        let read = read_journal(&path).unwrap();
        assert!(!read.truncated_tail);
        let marker = read.events.iter().find(|e| e.name == "dropped_events").unwrap();
        assert_eq!(marker.args[0].1, 6.0);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn torn_tail_tolerated_interior_corruption_rejected() {
        let dir = std::env::temp_dir().join(format!("obs-torn-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let good = JournalEvent {
            layer: Layer::Runtime,
            thread: "app-0".into(),
            name: "flush".into(),
            t_us: 10,
            dur_us: Some(5),
            args: vec![],
            flow: None,
        }
        .to_json()
        .render();

        // A journal whose process died mid-append: final line torn.
        let torn = dir.join("torn.jsonl");
        std::fs::write(&torn, format!("{good}\n{good}\n{{\"t\":99,\"lay")).unwrap();
        let read = read_journal(&torn).unwrap();
        assert_eq!(read.events.len(), 2);
        assert!(read.truncated_tail);

        // Corruption in the middle is an error, not silent data loss.
        let corrupt = dir.join("corrupt.jsonl");
        std::fs::write(&corrupt, format!("{good}\nnot json at all\n{good}\n")).unwrap();
        let err = read_journal(&corrupt).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        std::fs::remove_dir_all(&dir).ok();
    }
}
