//! Structured observability for the SWORD stack.
//!
//! The tool's headline claim is operational — a bounded `N x (B + C)`
//! footprint and a flush path off the app's critical path — so the
//! observability layer obeys the same discipline it measures:
//!
//! - [`journal`]: scoped spans and instant events recorded into bounded
//!   per-thread ring buffers (overflow drops and counts, never grows),
//!   drained incrementally to a JSONL file next to the session so a
//!   crashed run's telemetry survives for postmortem. Producers record
//!   per flush, stage and worker share, never per analysis task (task
//!   times are a registry histogram), so an analysis fits its rings.
//! - [`registry`]: named counter/gauge/histogram handles — the one
//!   store of the tool's own counts: the collector's flush counts and
//!   queue depth, the analyzer's stage, task-queue, tier, tree-memory and
//!   per-site rows — plus read-on-demand sources over state other
//!   structures own (pool occupancy, journal drops), with Prometheus text
//!   exposition and periodic snapshots appended to the journal.
//! - [`MemGauge`]: the live/peak byte counter the analyzer's trees (as
//!   two registry gauges) and ARCHER's modeled shadow memory charge.
//! - [`Table`] and [`format_bytes`]: the aligned text table and byte
//!   formatting every plain-text report renders with.
//! - [`report`]: [`render_snapshot`], the one view of a flat registry
//!   snapshot — journal drops, the stage table, queue depths, latency
//!   quantiles, memory against the paper's 3.3 MB/thread bound, hot
//!   sites — which `--stats`, `sword top`, `sword report` and
//!   `report --html` all print; [`render_report`] adds the journal
//!   overview, the flush path and the hottest spans.
//! - [`sites`]: per-source-site attribution of compare-stage work
//!   (accesses scanned, pairs checked, solver calls, races), added to
//!   the registry as labeled counters.
//! - [`html`]: `sword report --html` wraps the same sections in a
//!   single self-contained HTML dashboard with one expandable card per
//!   race.
//! - [`export`]: `sword trace export` renders the journal as a Chrome
//!   `trace_event` timeline (one process row per layer, one thread row
//!   per recording thread). It needs spans, and the Prometheus
//!   exposition needs help lines, types and buckets, so these two are
//!   not views of the flat snapshot.
//!
//! The crate is std-only (the journal must be readable without any
//! external JSON dependency, so [`json`] carries a minimal parser).

#![forbid(unsafe_code)]

pub mod export;
pub mod html;
pub mod journal;
pub mod json;
mod mem_gauge;
pub mod registry;
pub mod report;
pub mod sites;
mod table;

pub use export::{chrome_trace, write_chrome_trace};
pub use html::{render_html, HtmlInput, HtmlRace};
pub use journal::{
    read_journal, FlowPhase, Journal, JournalEvent, JournalRead, JournalSink, Layer, Span,
    ThreadJournal, DEFAULT_RING_CAPACITY,
};
pub use mem_gauge::MemGauge;
pub use registry::{Counter, Gauge, Histogram, Registry};
pub use report::{
    render_flush, render_report, render_snapshot, render_stages, stage_row, JournalTail,
    ReportInput, PAPER_PER_THREAD_BOUND_BYTES, STAGES,
};
pub use sites::{add_site_rows, hot_sites_from_metrics, HotSite, SiteCounters, SiteId, SiteStats};
pub use table::{format_bytes, Table};

/// One observability context: a journal plus a registry, shared by every
/// layer of a run (the collector, the offline pass, and the CLI clone
/// the same handle).
#[derive(Clone, Debug)]
pub struct Obs {
    /// The span/event journal.
    pub journal: Journal,
    /// The metrics registry.
    pub registry: Registry,
}

impl Default for Obs {
    fn default() -> Obs {
        Obs::with_ring_capacity(DEFAULT_RING_CAPACITY)
    }
}

impl Obs {
    /// Creates a fresh context with default ring capacity.
    pub fn new() -> Obs {
        Obs::default()
    }

    /// Creates a context with a custom per-thread ring capacity.
    pub fn with_ring_capacity(capacity: usize) -> Obs {
        let journal = Journal::new(capacity);
        let registry = Registry::new();
        let j = journal.clone();
        registry.source(
            "sword_journal_dropped_events_total",
            "journal events dropped at ring capacity",
            move || j.dropped_events() as f64,
        );
        Obs { journal, registry }
    }

    /// Appends a registry snapshot event to the journal, so the next
    /// drain persists it (renders as counter tracks in the Chrome
    /// export).
    pub fn snapshot_to_journal(&self) {
        self.journal.record(self.registry.snapshot_event(&self.journal));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn snapshot_to_journal_lands_in_drain() {
        let obs = Obs::new();
        obs.registry.counter("n", "help").add(2);
        obs.snapshot_to_journal();
        let events = obs.journal.drain();
        assert_eq!(events.len(), 1);
        assert_eq!(events[0].name, "metrics");
        let lookup = |k: &str| events[0].args.iter().find(|(n, _)| n == k).map(|(_, v)| *v);
        assert_eq!(lookup("n"), Some(2.0));
        // Every context carries the journal drop counter as a source.
        assert_eq!(lookup("sword_journal_dropped_events_total"), Some(0.0));
    }
}
