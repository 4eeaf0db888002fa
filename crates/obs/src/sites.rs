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
//! Each compare worker owns a [`SiteCounters`] (a dense `Vec` indexed by
//! site id — PC ids are small and dense — so a hot-path credit is one
//! bounds-checked index and an add, no hashing, no locks), threaded
//! through `check_pair`. At the end of an analysis [`add_site_rows`]
//! adds each worker's counters to the registry as labeled counters
//! (`sword_site_pairs{site="file.rs:10"}`), and [`hot_sites_from_metrics`]
//! reads them back out of any flat snapshot: the label format lives here
//! and nowhere else.

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

/// Lock-free per-worker accumulator, added to the registry by
/// [`add_site_rows`]. Dense: slot `i` holds site id `i`'s stats
/// (untouched slots stay at the all-zero default and add no row).
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
}

/// The four per-site metrics with their help texts, in [`SiteStats`]
/// field order, each with a `_total` row over all sites.
const SITE_METRICS: [(&str, &str); 4] = [
    ("sword_site_scanned", "Accesses scanned during compare"),
    ("sword_site_pairs", "Candidate pairs (one side writes) checked during compare"),
    ("sword_site_solver_calls", "Exact solves during compare"),
    ("sword_site_races", "Racy node pairs (pre-dedup)"),
];

/// Adds a worker's accumulator to `registry` as counters: per site
/// (`sword_site_pairs{site="file.rs:10"}` and friends, the location from
/// `resolve`) and over all sites (`sword_site_pairs_total` …). Counters,
/// so analyses sharing a registry add up; the totals rows exist, at 0,
/// even when nothing was credited.
pub fn add_site_rows(
    registry: &Registry,
    counters: &SiteCounters,
    resolve: impl Fn(SiteId) -> String,
) {
    let values = |s: &SiteStats| [s.scanned, s.pairs, s.solver_calls, s.races];
    let mut totals = [0u64; 4];
    for (site, stats) in counters.slots.iter().enumerate() {
        if *stats == SiteStats::default() {
            continue;
        }
        let loc = escape_label(&resolve(site as SiteId));
        for (((metric, help), value), total) in
            SITE_METRICS.iter().zip(values(stats)).zip(&mut totals)
        {
            registry.counter(&format!("{metric}{{site=\"{loc}\"}}"), help).add(value);
            *total += value;
        }
    }
    for ((metric, help), total) in SITE_METRICS.iter().zip(totals) {
        registry.counter(&format!("{metric}_total"), &format!("{help}, all sites")).add(total);
    }
}

/// Escapes a source location for use inside a `site="…"` label value.
fn escape_label(loc: &str) -> String {
    loc.replace('\\', "\\\\").replace('"', "\\\"")
}

/// One site's rows parsed back out of a metrics snapshot — the reporting
/// half of [`add_site_rows`].
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct HotSite {
    /// Resolved source location (`file.rs:10`).
    pub site: String,
    /// See [`SiteStats`].
    pub stats: SiteStats,
}

/// Reconstructs per-site attribution from metrics-snapshot key/value
/// pairs (the inverse of [`add_site_rows`]), sorted hottest first:
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

    /// The registry's rows, by name.
    fn rows(registry: &Registry) -> std::collections::BTreeMap<String, f64> {
        registry.snapshot().into_iter().collect()
    }

    #[test]
    fn counters_absorb_and_snapshot() {
        let mut c = SiteCounters::new();
        c.scanned(1, 10);
        c.pair(1, 2);
        c.solve(1, 2);
        c.race(1, 2);
        c.pair(1, 1); // self-pair credits the site twice
        let registry = Registry::new();
        add_site_rows(&registry, &c, |id| format!("k.rs:{id}"));
        let mut c2 = SiteCounters::new();
        c2.scanned(2, 5);
        add_site_rows(&registry, &c2, |id| format!("k.rs:{id}"));
        let hot = hot_sites_from_metrics(&registry.snapshot());
        assert_eq!(hot.len(), 2, "site 0 was never credited: no row");
        assert_eq!(hot[0].site, "k.rs:1");
        assert_eq!(hot[0].stats, SiteStats { scanned: 10, pairs: 3, solver_calls: 1, races: 1 });
        assert_eq!(hot[1].stats, SiteStats { scanned: 5, pairs: 1, solver_calls: 1, races: 1 });
    }

    #[test]
    fn totals_are_registry_counters() {
        let registry = Registry::new();
        add_site_rows(&registry, &SiteCounters::new(), |id| id.to_string());
        let empty = rows(&registry);
        assert_eq!(empty.len(), 4, "only the totals: {empty:?}");
        assert!(empty.values().all(|v| *v == 0.0));
        let mut c = SiteCounters::new();
        c.pair(1, 2);
        c.pair(1, 3);
        add_site_rows(&registry, &c, |id| id.to_string());
        add_site_rows(&registry, &c, |id| id.to_string());
        let rows = rows(&registry);
        assert_eq!(rows["sword_site_pairs_total"], 8.0, "two adds of four credits");
        assert_eq!(rows["sword_site_pairs{site=\"1\"}"], 4.0);
        assert_eq!(rows["sword_site_races_total"], 0.0);
        assert_eq!(rows.keys().filter(|k| k.starts_with("sword_site_pairs{")).count(), 3);
    }

    #[test]
    fn publish_roundtrips_through_metrics() {
        let mut c = SiteCounters::new();
        c.scanned(0, 100);
        c.pair(0, 7);
        c.solve(0, 7);
        c.race(0, 7);
        let registry = Registry::new();
        add_site_rows(&registry, &c, |id| format!("src/k\"ernel.rs:{id}"));
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
            ("sword_site_pairs_total".to_string(), 100.0),
            ("unrelated_metric".to_string(), 7.0),
        ];
        let hot = hot_sites_from_metrics(&metrics);
        assert_eq!(hot.len(), 2);
        assert_eq!(hot[0].site, "b.rs:2", "races dominate pairs");
    }
}
