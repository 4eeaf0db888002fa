//! Per-site attribution: compare-stage counters keyed by source
//! location (PC).
//!
//! The offline analyzer's `compare` stage accumulates, per program
//! counter, how much work each source line caused — accesses scanned,
//! candidate node pairs checked (overlapping pairs of which one side
//! writes), exact solver calls, racy pairs — so a
//! report can show *where* the analysis cost went, the way LLOV-style
//! per-line attribution does for verdicts.
//!
//! Two layers keep the hot path cheap:
//!
//! - [`SiteCounters`] is a per-worker accumulator (a dense `Vec` indexed
//!   by site id — PC ids are small and dense — so a hot-path credit is
//!   one bounds-checked index and an add, no hashing, no locks),
//!   threaded through `check_pair`.
//! - [`SiteTable`] is the shared, clonable sink the workers absorb their
//!   accumulators into at task/poll boundaries. [`SiteTable::publish`]
//!   exposes the result through the metrics [`Registry`] as labeled
//!   gauges (`sword_site_pairs{site="file.rs:10"}`), which the registry
//!   snapshot then carries into the journal — `sword report` and the
//!   HTML dashboard read hot sites back from there.

use std::collections::HashMap;
use std::sync::{Arc, Mutex};

use crate::registry::Registry;

/// Raw site id: the analyzer keys by its interned PC id.
pub type SiteId = u32;

/// Compare-stage counters of one source site.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SiteStats {
    /// Accesses covered by the summarized nodes this site contributed to
    /// candidate pairs (revisits across pairs counted each time).
    pub scanned: u64,
    /// Candidate node pairs (coarse range overlap, one side a write)
    /// involving this site.
    pub pairs: u64,
    /// Exact constraint solves involving this site.
    pub solver_calls: u64,
    /// Racy node pairs (pre-dedup) involving this site.
    pub races: u64,
}

impl SiteStats {
    fn add(&mut self, other: &SiteStats) {
        self.scanned += other.scanned;
        self.pairs += other.pairs;
        self.solver_calls += other.solver_calls;
        self.races += other.races;
    }
}

/// Lock-free per-worker accumulator, absorbed into a [`SiteTable`] at
/// task boundaries. Dense: slot `i` holds site id `i`'s stats (untouched
/// slots stay at the all-zero default and are skipped on absorb).
#[derive(Clone, Debug, Default)]
pub struct SiteCounters {
    slots: Vec<SiteStats>,
}

impl SiteCounters {
    /// An empty accumulator.
    pub fn new() -> Self {
        Self::default()
    }

    /// The (grown-on-demand) slot for `site`.
    #[inline]
    fn slot(&mut self, site: SiteId) -> &mut SiteStats {
        let i = site as usize;
        if i >= self.slots.len() {
            self.slots.resize(i + 1, SiteStats::default());
        }
        &mut self.slots[i]
    }

    /// Credits one candidate pair between the two sites, whose summarized
    /// nodes cover `n_a`/`n_b` accesses.
    #[inline]
    pub fn candidate(&mut self, a: SiteId, n_a: u64, b: SiteId, n_b: u64) {
        let sa = self.slot(a);
        sa.scanned += n_a;
        sa.pairs += 1;
        let sb = self.slot(b);
        sb.scanned += n_b;
        sb.pairs += 1;
    }

    /// Credits `n` scanned accesses to `site`.
    #[inline]
    pub fn scanned(&mut self, site: SiteId, n: u64) {
        self.slot(site).scanned += n;
    }

    /// Counts one candidate pair between the two sites.
    #[inline]
    pub fn pair(&mut self, a: SiteId, b: SiteId) {
        self.slot(a).pairs += 1;
        self.slot(b).pairs += 1;
    }

    /// Counts one exact solve between the two sites.
    #[inline]
    pub fn solve(&mut self, a: SiteId, b: SiteId) {
        self.slot(a).solver_calls += 1;
        self.slot(b).solver_calls += 1;
    }

    /// Counts one racy node pair between the two sites.
    #[inline]
    pub fn race(&mut self, a: SiteId, b: SiteId) {
        self.slot(a).races += 1;
        self.slot(b).races += 1;
    }

    /// `true` when nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.slots.is_empty()
    }
}

/// Shared per-site attribution table (clone = same table).
#[derive(Clone, Debug, Default)]
pub struct SiteTable {
    inner: Arc<Mutex<HashMap<SiteId, SiteStats>>>,
}

impl SiteTable {
    /// An empty table.
    pub fn new() -> Self {
        Self::default()
    }

    /// Folds a worker's accumulator into the table.
    pub fn absorb(&self, counters: SiteCounters) {
        if counters.is_empty() {
            return;
        }
        let mut inner = self.inner.lock().expect("site table poisoned");
        for (site, stats) in counters.slots.into_iter().enumerate() {
            if stats != SiteStats::default() {
                inner.entry(site as SiteId).or_default().add(&stats);
            }
        }
    }

    /// The accumulated per-site stats, sorted by site id.
    pub fn snapshot(&self) -> Vec<(SiteId, SiteStats)> {
        let inner = self.inner.lock().expect("site table poisoned");
        let mut v: Vec<(SiteId, SiteStats)> = inner.iter().map(|(k, v)| (*k, *v)).collect();
        v.sort_by_key(|(site, _)| *site);
        v
    }

    /// Registers whole-table totals as registry sources (idempotent —
    /// re-registering replaces the closure over the same table).
    pub fn register_totals(&self, registry: &Registry) {
        type StatPick = fn(&SiteStats) -> u64;
        let specs: [(&str, &str, StatPick); 5] = [
            ("sword_sites_tracked", "Distinct source sites with compare-stage attribution", |_| 1),
            ("sword_site_scanned_total", "Accesses scanned during compare, all sites", |s| {
                s.scanned
            }),
            (
                "sword_site_pairs_total",
                "Candidate pairs (one side writes) checked during compare, all sites",
                |s| s.pairs,
            ),
            ("sword_site_solver_calls_total", "Exact solves during compare, all sites", |s| {
                s.solver_calls
            }),
            ("sword_site_races_total", "Racy node pairs (pre-dedup), all sites", |s| s.races),
        ];
        for (name, help, pick) in specs {
            let table = self.clone();
            registry.source(name, help, move || {
                let inner = table.inner.lock().expect("site table poisoned");
                inner.values().map(pick).sum::<u64>() as f64
            });
        }
    }

    /// Publishes every site's counters into the registry as labeled
    /// gauges — `sword_site_pairs{site="file.rs:10"}` and friends —
    /// resolving site ids to locations through `resolve`. Gauges are
    /// idempotent (set, not add), so publishing twice is safe.
    pub fn publish(&self, registry: &Registry, resolve: impl Fn(SiteId) -> String) {
        for (site, stats) in self.snapshot() {
            let loc = escape_label(&resolve(site));
            let rows = [
                ("sword_site_scanned", "Accesses scanned during compare", stats.scanned),
                (
                    "sword_site_pairs",
                    "Candidate pairs (one side writes) checked during compare",
                    stats.pairs,
                ),
                ("sword_site_solver_calls", "Exact solves during compare", stats.solver_calls),
                ("sword_site_races", "Racy node pairs (pre-dedup)", stats.races),
            ];
            for (metric, help, value) in rows {
                registry.gauge(&format!("{metric}{{site=\"{loc}\"}}"), help).set(value);
            }
        }
    }
}

/// Escapes a source location for use inside a `site="…"` label value.
fn escape_label(loc: &str) -> String {
    loc.replace('\\', "\\\\").replace('"', "\\\"")
}

/// One site's row parsed back out of a metrics snapshot — the reporting
/// half of [`SiteTable::publish`].
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct HotSite {
    /// Resolved source location (`file.rs:10`).
    pub site: String,
    /// See [`SiteStats`].
    pub stats: SiteStats,
}

/// Reconstructs per-site attribution from metrics-snapshot key/value
/// pairs (the inverse of [`SiteTable::publish`]), sorted hottest first:
/// by races, then solver calls, then pairs.
pub fn hot_sites_from_metrics(metrics: &[(String, f64)]) -> Vec<HotSite> {
    let mut by_site: Vec<HotSite> = Vec::new();
    for (key, value) in metrics {
        let Some((metric, site)) = parse_site_key(key) else { continue };
        let entry = match by_site.iter_mut().find(|h| h.site == site) {
            Some(h) => h,
            None => {
                by_site.push(HotSite { site, ..HotSite::default() });
                by_site.last_mut().expect("just pushed")
            }
        };
        let v = *value as u64;
        match metric {
            "sword_site_scanned" => entry.stats.scanned = v,
            "sword_site_pairs" => entry.stats.pairs = v,
            "sword_site_solver_calls" => entry.stats.solver_calls = v,
            "sword_site_races" => entry.stats.races = v,
            _ => {}
        }
    }
    by_site.sort_by(|a, b| {
        (b.stats.races, b.stats.solver_calls, b.stats.pairs, &a.site).cmp(&(
            a.stats.races,
            a.stats.solver_calls,
            a.stats.pairs,
            &b.site,
        ))
    });
    by_site
}

/// Splits `sword_site_pairs{site="file.rs:10"}` into the metric name and
/// the unescaped site label. `None` for non-site keys.
fn parse_site_key(key: &str) -> Option<(&str, String)> {
    let (metric, rest) = key.split_once("{site=\"")?;
    if !metric.starts_with("sword_site_") {
        return None;
    }
    let label = rest.strip_suffix("\"}")?;
    Some((metric, label.replace("\\\"", "\"").replace("\\\\", "\\")))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_absorb_and_snapshot() {
        let mut c = SiteCounters::new();
        c.scanned(1, 10);
        c.pair(1, 2);
        c.solve(1, 2);
        c.race(1, 2);
        c.pair(1, 1); // self-pair credits the site twice
        let table = SiteTable::new();
        table.absorb(c);
        let mut c2 = SiteCounters::new();
        c2.scanned(2, 5);
        table.absorb(c2);
        let snap = table.snapshot();
        assert_eq!(snap.len(), 2);
        assert_eq!(snap[0].0, 1);
        assert_eq!(snap[0].1, SiteStats { scanned: 10, pairs: 3, solver_calls: 1, races: 1 });
        assert_eq!(snap[1].1, SiteStats { scanned: 5, pairs: 1, solver_calls: 1, races: 1 });
    }

    #[test]
    fn totals_are_registry_sources() {
        let table = SiteTable::new();
        let registry = Registry::new();
        table.register_totals(&registry);
        let mut c = SiteCounters::new();
        c.pair(1, 2);
        c.pair(1, 3);
        table.absorb(c);
        let snap = registry.snapshot();
        let get = |k: &str| snap.iter().find(|(n, _)| n == k).map(|(_, v)| *v);
        assert_eq!(get("sword_sites_tracked"), Some(3.0));
        assert_eq!(get("sword_site_pairs_total"), Some(4.0));
        assert_eq!(get("sword_site_races_total"), Some(0.0));
    }

    #[test]
    fn publish_roundtrips_through_metrics() {
        let table = SiteTable::new();
        let mut c = SiteCounters::new();
        c.scanned(0, 100);
        c.pair(0, 7);
        c.solve(0, 7);
        c.race(0, 7);
        table.absorb(c);
        let registry = Registry::new();
        table.publish(&registry, |id| format!("src/k\"ernel.rs:{id}"));
        let hot = hot_sites_from_metrics(&registry.snapshot());
        assert_eq!(hot.len(), 2);
        // Equal counters: ordered by site name.
        assert_eq!(hot[0].site, "src/k\"ernel.rs:0");
        assert_eq!(hot[0].stats, SiteStats { scanned: 100, pairs: 1, solver_calls: 1, races: 1 });
        assert_eq!(hot[1].site, "src/k\"ernel.rs:7");
        assert_eq!(hot[1].stats.scanned, 0);
    }

    #[test]
    fn hottest_first_ordering() {
        let metrics = vec![
            ("sword_site_races{site=\"a.rs:1\"}".to_string(), 0.0),
            ("sword_site_pairs{site=\"a.rs:1\"}".to_string(), 99.0),
            ("sword_site_races{site=\"b.rs:2\"}".to_string(), 3.0),
            ("sword_site_pairs{site=\"b.rs:2\"}".to_string(), 1.0),
            ("unrelated_metric".to_string(), 7.0),
        ];
        let hot = hot_sites_from_metrics(&metrics);
        assert_eq!(hot.len(), 2);
        assert_eq!(hot[0].site, "b.rs:2", "races dominate pairs");
    }
}
