//! Rendering the registry snapshot, the one view every report shares.
//!
//! [`render_snapshot`] is a pure function of a flat registry snapshot
//! (`&[(String, f64)]`, what `Registry::snapshot` returns and what a
//! journaled `metrics` event carries): the journal-drop warning, the
//! analyzer's stage table ([`render_stages`]), queue depths, latency
//! quantiles, memory against the paper's per-thread bound, and hot
//! sites. `--stats`, `sword top`, `sword report` and `report --html` all
//! print it; [`render_report`] wraps it in the journal overview, the flush
//! path ([`render_flush`], over `session.meta`) and the hottest spans.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::fs::File;
use std::io::{self, Read, Seek, SeekFrom};
use std::path::Path;
use std::time::SystemTime;

use crate::journal::{JournalEvent, Layer};
use crate::json;
use crate::sites::hot_sites_from_metrics;
use crate::table::{format_bytes, Table};

/// The analyzer's pipeline stages, in pipeline order: the `stage` label
/// of its `sword_stage_*` registry rows and the name of its stage spans.
pub const STAGES: [&str; 7] = [
    "discover",
    "load-meta",
    "build-structure",
    "pair-schedule",
    "tree-build",
    "compare",
    "dedup-report",
];

/// A stage's registry row name for `metric`
/// (`sword_stage_busy_nanos{stage="compare"}`).
pub fn stage_row(metric: &str, stage: &str) -> String {
    format!("{metric}{{stage=\"{stage}\"}}")
}

/// Renders the per-stage table from a flat registry snapshot's stage
/// rows, in pipeline order; stages without rows are left out, and a
/// snapshot no analysis recorded into renders as the empty string.
pub fn render_stages(snapshot: &[(String, f64)]) -> String {
    let get = |key: String| snapshot.iter().find(|(k, _)| *k == key).map(|(_, v)| *v);
    let mut t = Table::new("pipeline stages", &["stage", "busy (s)", "items", "items/s", "bytes"]);
    for stage in STAGES {
        let row = |metric| get(stage_row(metric, stage));
        let Some(busy) = row("sword_stage_busy_nanos") else { continue };
        let secs = busy / 1e9;
        let items = row("sword_stage_items_total").unwrap_or(0.0);
        let rate = if secs > 0.0 { items / secs } else { 0.0 };
        t.row(&[
            stage.to_string(),
            format!("{secs:.4}"),
            format!("{items}"),
            format!("{rate:.0}"),
            format_bytes(row("sword_stage_bytes_total").unwrap_or(0.0) as u64),
        ]);
    }
    rendered(&t)
}

/// A table's text, or the empty string when it has no rows.
fn rendered(t: &Table) -> String {
    if t.is_empty() {
        String::new()
    } else {
        t.render()
    }
}

/// The paper's per-thread tool-memory bound: two 25,000-event buffers
/// plus runtime bookkeeping, quoted as "less than 3.3 MB per thread"
/// (PAPER.md §IV).
pub const PAPER_PER_THREAD_BOUND_BYTES: u64 = 3_460_300;

/// The one gauge the paper's per-thread bound judges: the collector's
/// tool memory. The analyzer's tree gauges are offline memory, outside it.
const BOUNDED_MEM_GAUGE: &str = "sword_collector_tool_mem_bytes";

/// The registry row counting journal events dropped at ring capacity.
const DROPPED_ROW: &str = "sword_journal_dropped_events_total";

/// Renders a flat registry snapshot, in order: a warning when the journal
/// dropped events, the stage table, every `*_queue_depth` gauge, the
/// quantiles of every histogram with samples, the `_mem_` gauges (the
/// collector's judged against `threads` × the paper's per-thread bound;
/// `threads` 0 judges nothing), and the `top_n` hottest sites. Sections
/// without rows are left out; each one ends with a blank line.
pub fn render_snapshot(snapshot: &[(String, f64)], threads: u64, top_n: usize) -> String {
    let mut out = String::new();
    let dropped = snapshot.iter().find(|(k, _)| k == DROPPED_ROW).map_or(0.0, |(_, v)| *v);
    if dropped > 0.0 {
        let _ = writeln!(
            out,
            "WARNING: journal dropped {dropped} events at ring capacity (telemetry below is \
             incomplete)\n"
        );
    }
    let mut sections = vec![render_stages(snapshot)];

    let mut queues = Table::new("queue depths", &["queue", "depth"]);
    for (name, value) in snapshot.iter().filter(|(name, _)| name.ends_with("_queue_depth")) {
        queues.row(&[name.clone(), format!("{value}")]);
    }
    sections.push(rendered(&queues));

    let mut quantiles =
        Table::new("latency quantiles", &["histogram", "count", "p50", "p95", "p99", "max"]);
    // Every histogram base name with `_count` and `_p50`/`_p95`/`_p99`
    // expansions and at least one sample.
    let get = |key: String| snapshot.iter().find(|(k, _)| *k == key).map(|(_, v)| *v);
    for (key, count) in snapshot.iter().filter(|(_, count)| *count >= 1.0) {
        let Some(name) = key.strip_suffix("_count") else { continue };
        let expansion = |suffix| get(format!("{name}_{suffix}"));
        let (Some(p50), Some(p95), Some(p99)) =
            (expansion("p50"), expansion("p95"), expansion("p99"))
        else {
            continue;
        };
        let max = expansion("max").unwrap_or(0.0);
        let numbers = [*count, p50, p95, p99, max].map(|n| n.to_string());
        quantiles.row(&[&[name.to_string()][..], &numbers].concat());
    }
    sections.push(rendered(&quantiles));

    let bound = threads * PAPER_PER_THREAD_BOUND_BYTES;
    let mut memory = Table::new("memory", &["gauge", "bytes", "paper bound"]);
    for (name, value) in snapshot.iter().filter(|(k, _)| k.contains("_mem_")) {
        let bytes = *value as u64;
        let verdict = if bound > 0 && name == BOUNDED_MEM_GAUGE {
            let verdict = if bytes <= bound { "within" } else { "EXCEEDS" };
            format!(
                "{verdict} {threads}x{} = {} bound",
                format_bytes(PAPER_PER_THREAD_BOUND_BYTES),
                format_bytes(bound),
            )
        } else {
            String::new()
        };
        memory.row(&[name.clone(), format_bytes(bytes), verdict]);
    }
    sections.push(rendered(&memory));

    let hot = hot_sites_from_metrics(snapshot);
    let mut sites = Table::new(
        format!("hot sites (compare-stage attribution, top {})", top_n.min(hot.len())),
        &["site", "scanned", "pairs", "solves", "racy pairs"],
    );
    for h in hot.into_iter().take(top_n) {
        let s = h.stats;
        let numbers = [s.scanned, s.pairs, s.solver_calls, s.races].map(|n| n.to_string());
        sites.row(&[&[h.site][..], &numbers].concat());
    }
    sections.push(rendered(&sites));

    for section in sections.iter().filter(|s| !s.is_empty()) {
        out.push_str(section);
        out.push('\n');
    }
    out
}

/// Renders the collector's flush path from a session's info map (the
/// `flush_*` keys `FlushSnapshot::to_info` writes). `None` for a session
/// collected before flush accounting (no `flush_count`); other missing or
/// malformed keys read as zero.
pub fn render_flush(info: &BTreeMap<String, String>) -> Option<String> {
    info.get("flush_count")?;
    let get = |key: &str| info.get(key).and_then(|v| v.parse::<u64>().ok()).unwrap_or(0);
    let (raw, compressed, compress_nanos) =
        (get("flush_raw_bytes"), get("flush_compressed_bytes"), get("flush_compress_nanos"));
    let ratio = if compressed == 0 { 1.0 } else { raw as f64 / compressed as f64 };
    let throughput =
        if compress_nanos == 0 { 0 } else { (raw as f64 * 1e9 / compress_nanos as f64) as u64 };
    let ms = |key: &str| format!("{:.3} ms", get(key) as f64 / 1e6);
    let mut t = Table::new("flush path", &["counter", "value"]);
    t.row(&["flushes".into(), get("flush_count").to_string()]);
    t.row(&["app-thread stall".into(), ms("flush_stall_nanos")]);
    t.row(&["compression busy".into(), ms("flush_compress_nanos")]);
    t.row(&["write busy".into(), ms("flush_write_nanos")]);
    t.row(&["raw bytes".into(), format_bytes(raw)]);
    t.row(&["compressed bytes".into(), format_bytes(compressed)]);
    t.row(&["compression ratio".into(), format!("{ratio:.2}x")]);
    t.row(&["compression throughput".into(), format!("{}/s", format_bytes(throughput))]);
    Some(t.render())
}

/// Inputs to [`render_report`].
#[derive(Clone, Debug, Default)]
pub struct ReportInput {
    /// Journal events (possibly from a torn journal).
    pub events: Vec<JournalEvent>,
    /// Session `session.meta` key/value info, when available.
    pub info: BTreeMap<String, String>,
    /// True when the journal had a torn final line.
    pub truncated_tail: bool,
    /// How many hot sites and hottest spans to list.
    pub top_n: usize,
}

impl ReportInput {
    /// The session's thread count from its info (0 when unknown).
    pub(crate) fn threads(&self) -> u64 {
        self.info.get("threads").and_then(|v| v.parse().ok()).unwrap_or(0)
    }
}

/// One aggregated span row: every completed span of one name within a
/// layer, folded.
struct SpanRow {
    layer: Layer,
    name: String,
    count: u64,
    total_us: u64,
    max_us: u64,
}

/// Renders the consolidated run report as plain text: the journal
/// overview, the flush path, the snapshot's sections
/// ([`render_snapshot`]) and the hottest spans.
pub fn render_report(input: &ReportInput) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "SWORD run report");
    let _ = writeln!(out, "================");

    let mut per_layer: BTreeMap<Layer, u64> = BTreeMap::new();
    for e in &input.events {
        *per_layer.entry(e.layer).or_insert(0) += 1;
    }
    let layers: Vec<String> =
        per_layer.iter().map(|(layer, n)| format!("{} {}", layer.as_str(), n)).collect();
    let _ = writeln!(
        out,
        "journal: {} events ({})",
        input.events.len(),
        if layers.is_empty() { "empty".to_string() } else { layers.join(", ") }
    );
    if input.truncated_tail {
        let _ = writeln!(out, "journal: torn final line skipped (run ended abruptly)");
    }
    let _ = writeln!(out);
    if let Some(flush) = render_flush(&input.info) {
        let _ = writeln!(out, "{flush}");
    }
    out.push_str(&render_snapshot(
        &last_metrics_snapshot(&input.events),
        input.threads(),
        input.top_n,
    ));

    let mut hottest = span_rows(&input.events);
    hottest.sort_by_key(|agg| std::cmp::Reverse(agg.total_us));
    let mut spans = Table::new(
        format!("hottest spans (top {})", input.top_n.min(hottest.len())),
        &["layer", "span", "calls", "total (ms)", "max (ms)"],
    );
    for agg in hottest.iter().take(input.top_n) {
        spans.row(&[
            agg.layer.as_str().to_string(),
            agg.name.clone(),
            agg.count.to_string(),
            format!("{:.2}", agg.total_us as f64 / 1e3),
            format!("{:.2}", agg.max_us as f64 / 1e3),
        ]);
    }
    if !spans.is_empty() {
        let _ = writeln!(out, "{}", spans.render());
    }
    out
}

/// Aggregates completed spans by `(layer, name)`, in first-seen order.
fn span_rows(events: &[JournalEvent]) -> Vec<SpanRow> {
    let mut rows: Vec<SpanRow> = Vec::new();
    for e in events {
        let Some(dur) = e.dur_us else { continue };
        match rows.iter_mut().find(|agg| agg.name == e.name && agg.layer == e.layer) {
            Some(agg) => {
                agg.count += 1;
                agg.total_us += dur;
                agg.max_us = agg.max_us.max(dur);
            }
            None => rows.push(SpanRow {
                layer: e.layer,
                name: e.name.to_string(),
                count: 1,
                total_us: dur,
                max_us: dur,
            }),
        }
    }
    rows
}

/// The merged view of all `metrics` snapshot events: the latest value
/// per key, in first-seen key order. Journals accumulate snapshots from
/// several registries (the collector's at run time, the analyzer's when
/// `analyze --obs` appends), so folding — rather than taking only the
/// final event — keeps every layer's gauges visible. The drop row
/// (`sword_journal_dropped_events_total`) is raised to the drops the
/// journal's own `dropped_events` markers count: the row covers drops no
/// marker saw (events shed after the final drain), the markers those of a
/// registry whose row a later snapshot overwrote, and a lossy journal is
/// never presented as complete.
pub fn last_metrics_snapshot(events: &[JournalEvent]) -> Vec<(String, f64)> {
    let mut fold = SnapshotFold::default();
    events.iter().for_each(|event| fold.add(event));
    fold.snapshot()
}

/// [`last_metrics_snapshot`]'s fold, one event at a time.
#[derive(Clone, Debug, Default)]
struct SnapshotFold {
    merged: Vec<(String, f64)>,
    /// Drops counted by `dropped_events` markers.
    marked: f64,
}

impl SnapshotFold {
    fn add(&mut self, e: &JournalEvent) {
        match &*e.name {
            "metrics" => {
                for (key, value) in &e.args {
                    match self.merged.iter_mut().find(|(k, _)| k == key) {
                        Some((_, v)) => *v = *value,
                        None => self.merged.push((key.to_string(), *value)),
                    }
                }
            }
            "dropped_events" => {
                self.marked += e.args.iter().find(|(k, _)| k == "count").map_or(0.0, |(_, v)| *v)
            }
            _ => {}
        }
    }

    fn snapshot(&self) -> Vec<(String, f64)> {
        let mut merged = self.merged.clone();
        match merged.iter_mut().find(|(k, _)| k == DROPPED_ROW) {
            Some((_, v)) => *v = v.max(self.marked),
            None if self.marked > 0.0 => merged.push((DROPPED_ROW.to_string(), self.marked)),
            None => {}
        }
        merged
    }
}

/// [`last_metrics_snapshot`] of a journal file that grows, kept up to
/// date by parsing only what was appended since the last
/// [`JournalTail::update`] (`sword top`'s frame loop). It consumes
/// complete lines only: a torn last line waits for the next update, as
/// does a malformed one that nothing follows yet (the signature of a
/// writer caught mid-append, which [`crate::read_journal`] tolerates at the
/// end of a file). A file that is not the one folded so far — shorter
/// than what was consumed, created at another time, or starting with
/// another line (a re-run into the same session directory replaces the
/// journal) — is read again from its start.
#[derive(Clone, Debug, Default)]
pub struct JournalTail {
    /// Bytes of the file folded so far, ending at a line end.
    offset: u64,
    /// The folded file's creation time, where the platform keeps one.
    created: Option<SystemTime>,
    /// The folded file's first line (empty until one is folded).
    head: Vec<u8>,
    fold: SnapshotFold,
}

impl JournalTail {
    /// Folds in the complete lines `path` gained since the last update.
    /// A malformed line with complete lines after it is `InvalidData`.
    pub fn update(&mut self, path: &Path) -> io::Result<()> {
        let mut file = File::open(path)?;
        let meta = file.metadata()?;
        let (len, created) = (meta.len(), meta.created().ok());
        if len < self.offset || created != self.created || !self.same_head(&mut file)? {
            *self = JournalTail { created, ..JournalTail::default() };
        }
        file.seek(SeekFrom::Start(self.offset))?;
        let mut appended = Vec::new();
        file.take(len - self.offset).read_to_end(&mut appended)?;
        let complete = appended.iter().rposition(|&b| b == b'\n').map_or(0, |end| end + 1);
        let text = std::str::from_utf8(&appended[..complete])
            .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e))?;
        let mut consumed = 0;
        for line in text.split_inclusive('\n') {
            if !line.trim().is_empty() {
                match json::parse(line).and_then(|v| JournalEvent::from_json(&v)) {
                    Ok(event) => self.fold.add(&event),
                    Err(_) if consumed + line.len() == complete => break,
                    Err(err) => {
                        let at = self.offset + consumed as u64;
                        return Err(io::Error::new(
                            io::ErrorKind::InvalidData,
                            format!("journal line at byte {at}: {err}"),
                        ));
                    }
                }
            }
            if self.offset == 0 && consumed == 0 {
                self.head = line.as_bytes().to_vec();
            }
            consumed += line.len();
        }
        self.offset += consumed as u64;
        Ok(())
    }

    /// `true` when `file` starts with the first line folded so far.
    fn same_head(&self, file: &mut File) -> io::Result<bool> {
        let mut head = Vec::with_capacity(self.head.len());
        file.by_ref().take(self.head.len() as u64).read_to_end(&mut head)?;
        Ok(head == self.head)
    }

    /// The merged snapshot of every line folded so far.
    pub fn snapshot(&self) -> Vec<(String, f64)> {
        self.fold.snapshot()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(layer: Layer, thread: &str, name: &'static str, t: u64, dur: u64) -> JournalEvent {
        JournalEvent {
            layer,
            thread: thread.into(),
            name: name.into(),
            t_us: t,
            dur_us: Some(dur),
            args: vec![],
            flow: None,
        }
    }

    #[test]
    fn report_renders_all_sections() {
        let mut info = BTreeMap::new();
        info.insert("threads".to_string(), "4".to_string());
        info.insert("flush_count".to_string(), "12".to_string());
        info.insert("flush_raw_bytes".to_string(), "1048576".to_string());
        info.insert("flush_compressed_bytes".to_string(), "262144".to_string());
        info.insert("flush_stall_nanos".to_string(), "5000000".to_string());
        info.insert("flush_compress_nanos".to_string(), "9000000".to_string());
        info.insert("flush_write_nanos".to_string(), "2000000".to_string());
        let events = vec![
            span(Layer::Runtime, "app-0", "flush-handoff", 0, 100),
            span(Layer::Runtime, "app-0", "flush-handoff", 200, 300),
            span(Layer::Offline, "analyzer", "build-structure", 500, 900),
            JournalEvent {
                layer: Layer::Cli,
                thread: "metrics".into(),
                name: "metrics".into(),
                t_us: 999,
                dur_us: None,
                // Registry names as the collector and analyzer publish
                // them: the tree peak is over the 4-thread collector bound
                // on purpose, and two byte totals are traffic, not memory.
                args: vec![
                    ("sword_collector_tool_mem_bytes".into(), 2_000_000.0),
                    ("sword_analyzer_tree_mem_peak_bytes".into(), 40_000_000.0),
                    ("sword_flush_raw_bytes".into(), 1_048_576.0),
                    ("sword_exporter_bytes_total".into(), 4096.0),
                    ("sword_stage_busy_nanos{stage=\"build-structure\"}".into(), 900_000.0),
                    ("sword_stage_items_total{stage=\"build-structure\"}".into(), 3.0),
                ],
                flow: None,
            },
            JournalEvent {
                layer: Layer::Cli,
                thread: "journal".into(),
                name: "dropped_events".into(),
                t_us: 1000,
                dur_us: None,
                args: vec![("count".into(), 3.0)],
                flow: None,
            },
        ];
        let input = ReportInput { events: events.clone(), info, truncated_tail: true, top_n: 5 };
        let report = render_report(&input);
        assert!(report.contains("== flush path =="));
        let ratio = report.lines().find(|l| l.starts_with("compression ratio")).unwrap();
        assert!(ratio.contains("4.00x"), "{ratio}");
        // The stage table is the registry's, as `--stats` prints it.
        let stages = render_stages(&last_metrics_snapshot(&events));
        assert!(report.contains(&stages), "{report}");
        assert!(stages.lines().any(|l| l.starts_with("build-structure  0.0009    3")), "{stages}");
        assert!(report.contains("hottest spans"));
        assert!(report.contains("flush-handoff"));
        assert!(report.contains("WARNING: journal dropped 3 events at ring capacity"));
        assert!(report.contains("torn final line"));
        // The memory section lists the `_mem_` gauges only, and judges
        // the collector's gauge alone against the per-thread bound.
        let line = |name: &str| report.lines().find(|l| l.starts_with(name)).map(str::to_string);
        let collector = line("sword_collector_tool_mem_bytes").expect("collector gauge listed");
        assert!(collector.contains("within 4x3.30 MB"), "{collector}");
        let tree = line("sword_analyzer_tree_mem_peak_bytes").expect("tree gauge listed");
        assert!(!tree.contains("bound"), "offline memory is not judged by it: {tree}");
        assert!(!report.contains("EXCEEDS"), "{report}");
        assert!(!report.contains("sword_flush_raw_bytes"), "traffic listed as memory:\n{report}");
        assert!(!report.contains("sword_exporter_bytes_total"), "traffic as memory:\n{report}");
    }

    #[test]
    fn hot_sites_section_renders_from_snapshot() {
        let events = vec![JournalEvent {
            layer: Layer::Cli,
            thread: "metrics".into(),
            name: "metrics".into(),
            t_us: 0,
            dur_us: None,
            args: vec![
                ("sword_site_pairs{site=\"kernel.rs:10\"}".into(), 42.0),
                ("sword_site_races{site=\"kernel.rs:10\"}".into(), 2.0),
            ],
            flow: None,
        }];
        let report = render_report(&ReportInput {
            events,
            info: BTreeMap::new(),
            truncated_tail: false,
            top_n: 5,
        });
        assert!(report.contains("== hot sites"), "{report}");
        let row = report.lines().find(|l| l.starts_with("kernel.rs:10")).expect("site row");
        let cells: Vec<&str> = row.split_whitespace().collect();
        assert_eq!(cells, ["kernel.rs:10", "0", "42", "0", "2"], "{report}");
    }

    #[test]
    fn snapshot_sections_render_in_order() {
        let registry = crate::Registry::new();
        registry.gauge("sword_flush_queue_depth", "depth").set(5);
        registry.counter("sword_stage_busy_nanos{stage=\"compare\"}", "busy").add(1);
        registry.histogram("sword_flush_queue_wait_us", "wait").record(40);
        registry.histogram("sword_solver_call_nanos", "no samples: no row");
        registry.gauge("sword_collector_tool_mem_bytes", "mem").set(1 << 20);
        registry.counter("sword_site_pairs{site=\"a.rs:1\"}", "pairs").add(3);
        registry.counter("sword_journal_dropped_events_total", "drops").add(2);
        let text = render_snapshot(&registry.snapshot(), 2, 10);
        let at = |needle: &str| text.find(needle).unwrap_or_else(|| panic!("{needle}:\n{text}"));
        let order = [
            "WARNING: journal dropped 2 events",
            "== pipeline stages ==",
            "== queue depths ==",
            "== latency quantiles ==",
            "== memory ==",
            "== hot sites (compare-stage attribution, top 1) ==",
        ];
        assert!(order.windows(2).all(|w| at(w[0]) < at(w[1])), "{text}");
        assert!(text.contains("within 2x3.30 MB"), "{text}");
        assert!(!text.contains("sword_solver_call_nanos"), "{text}");
        assert_eq!(render_snapshot(&[], 2, 10), "", "an empty snapshot renders nothing");
    }

    #[test]
    fn bound_verdict_flags_excess() {
        let mut info = BTreeMap::new();
        info.insert("threads".to_string(), "1".to_string());
        let events = vec![JournalEvent {
            layer: Layer::Cli,
            thread: "metrics".into(),
            name: "metrics".into(),
            t_us: 0,
            dur_us: None,
            args: vec![("sword_collector_tool_mem_bytes".into(), 1e9)],
            flow: None,
        }];
        let report = render_report(&ReportInput { events, info, truncated_tail: false, top_n: 3 });
        assert!(report.contains("EXCEEDS"));
    }

    #[test]
    fn a_journal_tail_parses_only_what_was_appended() {
        let metrics = |key: &'static str, value: f64| JournalEvent {
            layer: Layer::Runtime,
            thread: "collector".into(),
            name: "metrics".into(),
            t_us: 0,
            dur_us: None,
            args: vec![(key.into(), value)],
            flow: None,
        };
        let line = |event: &JournalEvent| event.to_json().render() + "\n";
        let path = std::env::temp_dir().join(format!("sword-tail-{}.jsonl", std::process::id()));
        let write = |text: &str| std::fs::write(&path, text).unwrap();
        let mut text = line(&metrics("sword_a", 1.0)) + &line(&span(Layer::Cli, "cli", "x", 0, 1));
        write(&text);
        let mut tail = JournalTail::default();
        let agrees = |tail: &JournalTail| {
            let read = crate::read_journal(&path).unwrap();
            assert_eq!(tail.snapshot(), last_metrics_snapshot(&read.events));
        };
        tail.update(&path).unwrap();
        assert_eq!(tail.offset, text.len() as u64);
        agrees(&tail);

        // Each frame parses what the file gained, and a torn line waits.
        for k in 0..4 {
            let appended = line(&metrics("sword_b", k as f64)) + &line(&metrics("sword_a", 9.0));
            text += &appended;
            write(&(text.clone() + "{\"torn"));
            let before = tail.offset;
            tail.update(&path).unwrap();
            assert_eq!(tail.offset - before, appended.len() as u64, "frame {k}");
            agrees(&tail);
        }
        let before = tail.offset;
        tail.update(&path).unwrap();
        assert_eq!(tail.offset, before, "nothing complete was appended");

        // A malformed line waits while it is the last; with lines after
        // it, it is corruption.
        write(&(text.clone() + "not json\n"));
        tail.update(&path).unwrap();
        agrees(&tail);
        write(&(text.clone() + "not json\n" + &line(&metrics("sword_a", 2.0))));
        assert_eq!(tail.update(&path).unwrap_err().kind(), io::ErrorKind::InvalidData);

        // A file that shrank is read again from its start.
        let shorter = line(&metrics("sword_c", 3.0));
        write(&shorter);
        tail.update(&path).unwrap();
        assert_eq!(tail.offset, shorter.len() as u64);
        assert_eq!(tail.snapshot(), vec![("sword_c".to_string(), 3.0)]);

        // A journal replaced by one that has grown past the old offset by
        // the next frame is read again from its start, not from the
        // middle of its second line.
        std::fs::remove_file(&path).unwrap();
        let replaced = line(&metrics("sword_d", 4.0)) + &line(&metrics("sword_e", 5.0));
        assert!(replaced.len() > shorter.len());
        write(&replaced);
        tail.update(&path).unwrap();
        assert_eq!(tail.offset, replaced.len() as u64);
        assert_eq!(tail.snapshot(), vec![("sword_d".into(), 4.0), ("sword_e".into(), 5.0)]);
        agrees(&tail);
        std::fs::remove_file(&path).unwrap();
    }
}
