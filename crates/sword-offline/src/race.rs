//! Tree-vs-tree race checking, evidence chains, and race reports.

use std::collections::hash_map::Entry;
use std::collections::HashMap;
use std::time::Instant;

use sword_itree::for_each_candidate_pair_fp;
use sword_obs::{Histogram, SiteCounters};
use sword_osl::explain_concurrency;
use sword_solver::{congruence_admissible, solve_tiered, OverlapWitness, StridedInterval, Tier};
use sword_trace::{AccessKind, PcId, PcTable, ThreadId};

use crate::analyze::TierCounters;
use crate::build::{AccessMeta, BiTree};
use crate::intervals::Interval;

/// Dedup key: the unordered pair of source locations, which is how the
/// paper's tables count races.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct RaceKey {
    /// Smaller PC of the pair.
    pub pc_lo: PcId,
    /// Larger PC of the pair.
    pub pc_hi: PcId,
}

impl RaceKey {
    /// Builds the unordered key.
    pub fn new(a: PcId, b: PcId) -> Self {
        if a <= b {
            RaceKey { pc_lo: a, pc_hi: b }
        } else {
            RaceKey { pc_lo: b, pc_hi: a }
        }
    }
}

/// One witnessing access of a race: where it ran, why its interval is
/// concurrent with the partner's, and where its raw events live.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct AccessSite {
    /// Interned source location.
    pub pc: PcId,
    /// Read/write/atomic classification.
    pub kind: AccessKind,
    /// Executing thread.
    pub tid: ThreadId,
    /// Parallel region id of the barrier interval.
    pub pid: u64,
    /// Barrier-interval id within the region.
    pub bid: u32,
    /// The interval's full offset-span label, rendered (`[0,1][1,2]`).
    pub label: String,
    /// The summarized strided access the solver reasoned about.
    pub interval: StridedInterval,
    /// First byte of the interval's events in `thread_{tid}.log`.
    pub log_begin: u64,
    /// One past the last byte of the interval's events.
    pub log_end: u64,
    /// The solver witness's access index into [`AccessSite::interval`]
    /// (`addr = base + stride*index + byte`).
    pub index: u64,
    /// The solver witness's byte offset within that access.
    pub byte: u64,
}

/// The full evidence chain of one reported race: both witnessing
/// accesses (in the compare's canonical side order), the offset-span
/// derivation of why their intervals are concurrent, and the solver's
/// concrete model of the overlap constraint.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Evidence {
    /// Canonically-first witnessing access.
    pub a: AccessSite,
    /// Canonically-second witnessing access.
    pub b: AccessSite,
    /// The `osl` derivation lines (see `sword_osl::explain_concurrency`)
    /// for the two intervals' labels.
    pub concurrency: Vec<String>,
    /// The solver's variable assignment: `witness.addr = a.interval.base
    /// + a.interval.stride * witness.x0 + witness.s0`, same for side b.
    pub witness: OverlapWitness,
}

/// Ordering key of one evidence side within the session (see
/// [`Race::side_pos`]).
type SidePos = (u64, u32, u64, ThreadId, PcId, u8, u64, u64, u64, u64);

/// One reported data race (deduplicated source-line pair).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Race {
    /// Dedup key.
    pub key: RaceKey,
    /// Access kind at `pc_lo`'s side of the first witness.
    pub kind_a: AccessKind,
    /// Access kind at `pc_hi`'s side of the first witness.
    pub kind_b: AccessKind,
    /// A concrete shared address from the constraint solve.
    pub witness_addr: u64,
    /// Threads of the first witnessing pair.
    pub tids: (ThreadId, ThreadId),
    /// Region in which the first witness occurred.
    pub region: u64,
    /// How many interval pairs exhibited this source-line pair.
    pub occurrences: u64,
    /// Evidence chain of the first witnessing pair (canonical session
    /// order — independent of worker scheduling).
    pub evidence: Evidence,
}

impl Race {
    /// Renders the race with resolved source locations.
    pub fn render(&self, pcs: &PcTable) -> String {
        format!(
            "race: {} ({:?}) <-> {} ({:?}) at addr {:#x} [threads {} vs {}, region {}, seen {}x]",
            pcs.display(self.key.pc_lo),
            self.kind_a,
            pcs.display(self.key.pc_hi),
            self.kind_b,
            self.witness_addr,
            self.tids.0,
            self.tids.1,
            self.region,
            self.occurrences
        )
    }

    /// Renders the full evidence chain as indented text (the body of
    /// `sword explain` and of an HTML race card).
    pub fn render_evidence(&self, pcs: &PcTable) -> String {
        let ev = &self.evidence;
        let mut out = String::new();
        let side = |out: &mut String, name: &str, s: &AccessSite| {
            out.push_str(&format!(
                "{name}: {} ({:?}) on thread {}\n",
                pcs.display(s.pc),
                s.kind,
                s.tid
            ));
            out.push_str(&format!(
                "  barrier interval: region {}, interval {}, label {}\n",
                s.pid, s.bid, s.label
            ));
            out.push_str(&format!(
                "  access pattern: base {:#x}, stride {}, count {}, size {} ({} accesses)\n",
                s.interval.base,
                s.interval.stride,
                s.interval.count,
                s.interval.size,
                s.interval.len()
            ));
            out.push_str(&format!(
                "  log bytes: [{}, {}) of thread_{}.log\n",
                s.log_begin, s.log_end, s.tid
            ));
        };
        side(&mut out, "side A", &ev.a);
        side(&mut out, "side B", &ev.b);
        out.push_str("concurrency (offset-span labels):\n");
        for line in &ev.concurrency {
            out.push_str(&format!("  {line}\n"));
        }
        let w = &ev.witness;
        out.push_str("solver witness (overlap constraint model):\n");
        out.push_str(&format!(
            "  addr {:#x} = A.base {:#x} + A.stride {} * x0 {} + s0 {}\n",
            w.addr, ev.a.interval.base, ev.a.interval.stride, w.x0, w.s0
        ));
        out.push_str(&format!(
            "  addr {:#x} = B.base {:#x} + B.stride {} * x1 {} + s1 {}\n",
            w.addr, ev.b.interval.base, ev.b.interval.stride, w.x1, w.s1
        ));
        out.push_str(&format!(
            "occurrences: {} interval pair{} exhibited this source pair (first shown)\n",
            self.occurrences,
            if self.occurrences == 1 { "" } else { "s" }
        ));
        out
    }

    /// Canonical session position of one evidence side: barrier-interval
    /// coordinates first, then the access identity within the interval —
    /// two different node pairs of the *same* two intervals must not tie,
    /// or batch and live could keep different witnesses.
    fn side_pos(s: &AccessSite) -> SidePos {
        (
            s.pid,
            s.bid,
            s.log_begin,
            s.tid,
            s.pc,
            s.kind.code(),
            s.interval.base,
            s.interval.stride,
            s.interval.count,
            s.interval.size,
        )
    }

    /// Deterministic "how early in the session is this witness" rank:
    /// a witnessing *pair* exists once its later interval exists, so the
    /// primary component is the later side's position. Independent of
    /// worker scheduling and of batch-vs-live processing order, which is
    /// what makes "keep the first occurrence" reproducible.
    fn rank(&self) -> (SidePos, SidePos, u64, u64) {
        let pa = Self::side_pos(&self.evidence.a);
        let pb = Self::side_pos(&self.evidence.b);
        let (lo, hi) = if pa <= pb { (pa, pb) } else { (pb, pa) };
        (hi, lo, self.evidence.witness.addr, self.region)
    }
}

/// Mutable race accumulator with source-line-pair dedup.
///
/// Dedup keeps the evidence of the *first* occurrence in canonical
/// session order (see `Race::rank`) and counts every occurrence.
#[derive(Debug, Default)]
pub struct RaceSet {
    races: HashMap<RaceKey, Race>,
    /// Dynamic (non-deduplicated) racy node-pair count.
    pub raw_pairs: u64,
}

impl RaceSet {
    /// An empty set.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one racy node pair.
    pub fn record(&mut self, race: Race) {
        self.raw_pairs += 1;
        match self.races.entry(race.key) {
            Entry::Occupied(mut e) => {
                let r = e.get_mut();
                r.occurrences += 1;
                if race.rank() < r.rank() {
                    let occurrences = r.occurrences;
                    *r = race;
                    r.occurrences = occurrences;
                }
            }
            Entry::Vacant(v) => {
                v.insert(race);
            }
        }
    }

    /// Merges another set (parallel workers).
    pub fn merge(&mut self, other: RaceSet) {
        self.raw_pairs += other.raw_pairs;
        for (key, race) in other.races {
            match self.races.entry(key) {
                Entry::Occupied(mut e) => {
                    let r = e.get_mut();
                    let occurrences = r.occurrences + race.occurrences;
                    if race.rank() < r.rank() {
                        *r = race;
                    }
                    r.occurrences = occurrences;
                }
                Entry::Vacant(v) => {
                    v.insert(race);
                }
            }
        }
    }

    /// Number of distinct races.
    pub fn len(&self) -> usize {
        self.races.len()
    }

    /// `true` when this source-line pair was already recorded.
    pub fn contains(&self, key: &RaceKey) -> bool {
        self.races.contains_key(key)
    }

    /// Iterates the distinct races in arbitrary order.
    pub fn iter(&self) -> impl Iterator<Item = &Race> {
        self.races.values()
    }

    /// `true` when no races were recorded.
    pub fn is_empty(&self) -> bool {
        self.races.is_empty()
    }

    /// Sorted race list.
    pub fn into_sorted(self) -> Vec<Race> {
        let mut v: Vec<Race> = self.races.into_values().collect();
        v.sort_by_key(|r| r.key);
        v
    }
}

/// Statistics of one tree-vs-tree comparison.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PairStats {
    /// Node pairs whose coarse ranges overlapped and of which at least
    /// one writes.
    pub candidates: u64,
    /// Exact constraint solves performed.
    pub solver_calls: u64,
    /// Candidate pairs rejected by the fingerprint screen before the
    /// solver.
    pub prescreened: u64,
}

/// One candidate pair that survived the screens, in canonical side order,
/// queued for the stride-class-sorted solve loop.
struct PendingSolve {
    i0: StridedInterval,
    m0: AccessMeta,
    i1: StridedInterval,
    m1: AccessMeta,
    /// `true` when side 0 is the caller's `a` tree (evidence needs each
    /// side's barrier-interval provenance).
    zero_is_a: bool,
}

/// Canonical ordering key of one side of a candidate node pair. Every
/// field is scheduling-independent, and the two sides of a `check_pair`
/// always come from different threads, so the key is a strict total
/// order over the pair.
fn side_key(
    ctx: &Interval,
    iv: &StridedInterval,
    meta: &AccessMeta,
) -> (PcId, ThreadId, u64, u32, u64, u64, u64, u64, u64, u8) {
    (
        meta.pc,
        ctx.tid,
        ctx.meta.pid,
        ctx.meta.bid,
        ctx.meta.data_begin,
        iv.base,
        iv.stride,
        iv.count,
        iv.size,
        meta.kind.code(),
    )
}

/// Compares two interval trees and records races with evidence.
///
/// For every candidate pair (coarse `[begin,end)` overlap found through
/// the augmented tree), applies the access-compatibility conditions and
/// then the exact strided-overlap constraint. The funnel screens run
/// first: a bounding-box reject over the whole tree pair, the walk-level
/// fingerprint congruence screen per candidate (counted in `prescreened`,
/// never reaching the solver), and stride-class batching of the
/// surviving solves. All screens are result-neutral: they reject only
/// pairs the solver would reject, and reorder only order-independent work.
///
/// Before the solve, the two sides are put into a *canonical order* (the
/// `side_key` tuple), so the witness the solver returns — and hence
/// the whole evidence chain — is identical no matter which argument
/// order a caller used. This is what makes batch (multi-worker,
/// nondeterministic reduction order) and live (ingest order) analysis
/// produce byte-identical evidence.
///
/// `ca`/`cb` carry each tree's barrier-interval provenance (labels, log
/// byte ranges) into the evidence record.
///
/// `solver_nanos`, when present, receives the latency of every exact
/// solve (the registry's `sword_solver_call_nanos` histogram); timing is
/// taken only around the solver itself, so candidate filtering stays
/// unmeasured and uninstrumented runs pay nothing.
///
/// `sites`, when present, accumulates per-PC attribution (accesses
/// scanned, pairs checked, solver calls, racy pairs).
///
/// Every pair that survives the screens is one `solve_tiered` call:
/// `solver_calls` counts them, the latency histogram records each, and
/// `tiers` counts the deciding funnel tier of each solve and each
/// prescreened pair.
#[allow(clippy::too_many_arguments)]
pub(crate) fn check_pair(
    a: &BiTree,
    ca: &Interval,
    b: &BiTree,
    cb: &Interval,
    tiers: &TierCounters,
    races: &mut RaceSet,
    solver_nanos: Option<&Histogram>,
    sites: Option<&mut SiteCounters>,
) -> PairStats {
    let mut stats = PairStats::default();
    let mut sites = sites;
    if !writes_reach(a, b) {
        return stats;
    }
    let mut pending: Vec<PendingSolve> = Vec::new();
    for_each_candidate_pair_fp(&a.tree, &b.tree, |ia, fa, ma, ib, fb, mb| {
        stats.candidates += 1;
        if let Some(s) = sites.as_deref_mut() {
            s.candidate(ma.pc, ia.len(), mb.pc, ib.len());
        }
        if !a.can_race(ma, b, mb) {
            return;
        }
        // Fingerprint pre-screen: the congruence reject, run during the
        // walk from the cached node fingerprints. Rejected pairs never
        // reach the solver — exactly the pairs its GcdReject tier would
        // refuse, so verdicts are unchanged.
        if !congruence_admissible(ia, fa, ib, fb) {
            stats.prescreened += 1;
            tiers.record(Tier::Prescreen);
            return;
        }
        // Canonical side order: the solve and its witness must not
        // depend on which tree was the caller's `a`.
        let zero_is_a = side_key(ca, ia, ma) <= side_key(cb, ib, mb);
        let p = if zero_is_a {
            PendingSolve { i0: *ia, m0: *ma, i1: *ib, m1: *mb, zero_is_a }
        } else {
            PendingSolve { i0: *ib, m0: *mb, i1: *ia, m1: *ma, zero_is_a }
        };
        pending.push(p);
    });
    // Batched compare: group the surviving pairs by stride class so the
    // tier dispatch in the solve loop is branch-predictable. The sort is
    // result-neutral — race dedup ranks are order-independent.
    pending.sort_by_key(|p| (p.i0.stride, p.i0.size, p.i1.stride, p.i1.size));
    // The reported region is derived from the intervals themselves (not
    // caller bookkeeping, which differs between batch group enumeration
    // and live ingest order): the smaller region id of the two sides.
    let region = ca.meta.pid.min(cb.meta.pid);
    for p in &pending {
        let (i0, m0, i1, m1) = (&p.i0, &p.m0, &p.i1, &p.m1);
        let (c0, c1) = if p.zero_is_a { (ca, cb) } else { (cb, ca) };
        stats.solver_calls += 1;
        if let Some(s) = sites.as_deref_mut() {
            s.solve(m0.pc, m1.pc);
        }
        let t0 = solver_nanos.map(|_| Instant::now());
        let (witness, tier) = solve_tiered(i0, i1, true);
        if let (Some(hist), Some(t0)) = (solver_nanos, t0) {
            hist.record(t0.elapsed().as_nanos() as u64);
        }
        tiers.record(tier);
        if let Some(w) = witness {
            if let Some(s) = sites.as_deref_mut() {
                s.race(m0.pc, m1.pc);
            }
            let key = RaceKey::new(m0.pc, m1.pc);
            // Keep kinds aligned with the key's (lo, hi) order.
            let (kind_a, kind_b) =
                if m0.pc <= m1.pc { (m0.kind, m1.kind) } else { (m1.kind, m0.kind) };
            let site = |iv: &StridedInterval, meta: &AccessMeta, ctx: &Interval, x: u64, s: u64| {
                AccessSite {
                    pc: meta.pc,
                    kind: meta.kind,
                    tid: ctx.tid,
                    pid: ctx.meta.pid,
                    bid: ctx.meta.bid,
                    label: ctx.label.to_string(),
                    interval: *iv,
                    log_begin: ctx.meta.data_begin,
                    log_end: ctx.meta.data_begin + ctx.meta.size,
                    index: x,
                    byte: s,
                }
            };
            races.record(Race {
                key,
                kind_a,
                kind_b,
                witness_addr: w.addr,
                tids: (c0.tid, c1.tid),
                region,
                occurrences: 1,
                evidence: Evidence {
                    a: site(i0, m0, c0, w.x0, w.s0),
                    b: site(i1, m1, c1, w.x1, w.s1),
                    concurrency: explain_concurrency(&c0.label, &c1.label),
                    witness: w,
                },
            });
        }
    }
    stats
}

/// The bounding-box reject of [`check_pair`]: `false` when neither tree's
/// writes reach into the other tree's covered range. The walk meets only
/// pairs with a write, so it could not yield a single one, and skipping
/// it is counter-neutral (candidates would be 0 either way). Two
/// read-only trees never walk.
fn writes_reach(a: &BiTree, b: &BiTree) -> bool {
    let reach = |writes: Option<(u64, u64)>, all: Option<(u64, u64)>| match (writes, all) {
        (Some((wl, wh)), Some((lo, hi))) => wl < hi && lo < wh,
        _ => false,
    };
    reach(a.tree.write_bounds(), b.tree.bounds()) || reach(b.tree.write_bounds(), a.tree.bounds())
}

/// Test helper: a synthetic evidence record for Race-literal tests
/// across the crate.
#[cfg(test)]
pub(crate) fn test_evidence(pc_a: PcId, pc_b: PcId, addr: u64) -> Evidence {
    let site = |pc: PcId, tid: ThreadId| AccessSite {
        pc,
        kind: AccessKind::Write,
        tid,
        pid: 0,
        bid: 0,
        label: format!("[0,1][{tid},8]"),
        interval: StridedInterval::single(addr, 8),
        log_begin: tid as u64 * 1000,
        log_end: tid as u64 * 1000 + 100,
        index: 0,
        byte: 0,
    };
    Evidence {
        a: site(pc_a, 0),
        b: site(pc_b, 1),
        concurrency: vec!["synthetic".to_string()],
        witness: OverlapWitness { addr, x0: 0, s0: 0, x1: 0, s1: 0 },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sword_itree::SummarizingBuilder;
    use sword_osl::Label;
    use sword_trace::MetaRecord;

    /// A tree of exactly `nodes`, each folded from its accesses under a
    /// key of its own, with the analyzer's node class.
    fn tree_of(tid: ThreadId, nodes: &[(StridedInterval, AccessMeta)]) -> BiTree {
        let mut builder = SummarizingBuilder::new();
        for (k, (iv, m)) in nodes.iter().enumerate() {
            for x in 0..iv.len() {
                builder.insert_with(k, iv.base + x * iv.stride, iv.size, || *m);
            }
        }
        let tree = builder.finish(|m| m.kind.is_write());
        assert_eq!(tree.len(), nodes.len(), "one node per interval");
        BiTree {
            tid,
            tree,
            mutex_sets: vec![vec![], vec![7]],
            accesses: nodes.len() as u64,
            bytes_read: 0,
        }
    }

    /// Barrier-interval provenance of a test tree: slot `tid` of one
    /// 8-wide top-level region.
    pub(crate) fn ctx_of(tid: ThreadId) -> Interval {
        Interval {
            tid,
            meta: MetaRecord {
                pid: 0,
                ppid: None,
                bid: 0,
                offset: tid as u64,
                span: 8,
                level: 1,
                data_begin: tid as u64 * 1000,
                size: 100,
            },
            label: Label::root().fork(tid as u64, 8),
        }
    }

    fn meta(kind: AccessKind, pc: PcId, mset: u32) -> AccessMeta {
        AccessMeta { kind, pc, mset }
    }

    /// Runs `check_pair` with a throwaway tier-counter set.
    #[allow(clippy::too_many_arguments)]
    fn run_pair(
        a: &BiTree,
        ca: &Interval,
        b: &BiTree,
        cb: &Interval,
        races: &mut RaceSet,
        hist: Option<&Histogram>,
        sites: Option<&mut SiteCounters>,
    ) -> PairStats {
        check_pair(a, ca, b, cb, &TierCounters::default(), races, hist, sites)
    }

    #[test]
    fn write_read_overlap_is_a_race() {
        let a =
            tree_of(0, &[(StridedInterval::new(0x100, 8, 99, 8), meta(AccessKind::Write, 1, 0))]);
        let b =
            tree_of(1, &[(StridedInterval::new(0x100, 8, 99, 8), meta(AccessKind::Read, 2, 0))]);
        let mut races = RaceSet::new();
        let hist = Histogram::default();
        let stats = run_pair(&a, &ctx_of(0), &b, &ctx_of(1), &mut races, Some(&hist), None);
        assert_eq!(stats.candidates, 1);
        assert_eq!(stats.solver_calls, 1);
        assert_eq!(hist.count(), 1, "each exact solve records one latency sample");
        assert_eq!(races.len(), 1);
        let race = races.into_sorted().pop().unwrap();
        assert_eq!(race.key, RaceKey::new(1, 2));
        assert_eq!(race.tids, (0, 1));
        // Evidence carries both coordinates and the solver model.
        assert_eq!(race.evidence.a.tid, 0);
        assert_eq!(race.evidence.b.tid, 1);
        assert_eq!(race.evidence.a.label, "[0,1][0,8]");
        assert_eq!(race.evidence.a.log_begin, 0);
        assert_eq!(race.evidence.a.log_end, 100);
        assert_eq!(race.evidence.b.log_begin, 1000);
        assert_eq!(race.evidence.witness.addr, race.witness_addr);
        assert!(race.evidence.concurrency.last().unwrap().contains("CONCURRENT"));
        // The witness model is internally consistent.
        let w = &race.evidence.witness;
        let ea = &race.evidence.a;
        assert_eq!(ea.interval.base + ea.interval.stride * w.x0 + w.s0, w.addr);
        assert_eq!(ea.index, w.x0);
        assert_eq!(ea.byte, w.s0);
    }

    #[test]
    fn evidence_is_argument_order_independent() {
        // The whole point of canonical side ordering: swapping the
        // caller's argument order must not change the recorded race.
        let a =
            tree_of(0, &[(StridedInterval::new(0x100, 16, 50, 8), meta(AccessKind::Write, 3, 0))]);
        let b =
            tree_of(1, &[(StridedInterval::new(0x104, 16, 50, 8), meta(AccessKind::Write, 9, 0))]);
        let mut fwd = RaceSet::new();
        run_pair(&a, &ctx_of(0), &b, &ctx_of(1), &mut fwd, None, None);
        let mut rev = RaceSet::new();
        run_pair(&b, &ctx_of(1), &a, &ctx_of(0), &mut rev, None, None);
        assert!(!fwd.is_empty(), "the pair overlaps, so a race is recorded");
        assert_eq!(fwd.into_sorted(), rev.into_sorted());
    }

    #[test]
    fn site_counters_attribute_compare_work() {
        let a =
            tree_of(0, &[(StridedInterval::new(0x100, 8, 9, 8), meta(AccessKind::Write, 1, 0))]);
        let b = tree_of(1, &[(StridedInterval::new(0x100, 8, 9, 8), meta(AccessKind::Read, 2, 0))]);
        let mut races = RaceSet::new();
        let mut sites = SiteCounters::new();
        run_pair(&a, &ctx_of(0), &b, &ctx_of(1), &mut races, None, Some(&mut sites));
        let table = sword_obs::SiteTable::new();
        table.absorb(sites);
        let snap = table.snapshot();
        assert_eq!(snap.len(), 2);
        let (pc1, pc2) = (snap[0].1, snap[1].1);
        assert_eq!(pc1.scanned, 10, "interval.len() accesses credited");
        assert_eq!(pc1.pairs, 1);
        assert_eq!(pc1.solver_calls, 1);
        assert_eq!(pc1.races, 1);
        assert_eq!(pc1, pc2, "both sides credited symmetrically");
    }

    #[test]
    fn read_read_is_not_checked() {
        let a = tree_of(0, &[(StridedInterval::new(0x100, 8, 9, 8), meta(AccessKind::Read, 1, 0))]);
        let b = tree_of(1, &[(StridedInterval::new(0x100, 8, 9, 8), meta(AccessKind::Read, 2, 0))]);
        let mut races = RaceSet::new();
        let stats = run_pair(&a, &ctx_of(0), &b, &ctx_of(1), &mut races, None, None);
        assert_eq!(stats.solver_calls, 0);
        assert!(races.is_empty());
    }

    #[test]
    fn read_only_trees_are_never_walked() {
        let iv = StridedInterval::new(0x100, 8, 9, 8);
        let a = tree_of(0, &[(iv, meta(AccessKind::Read, 1, 0))]);
        let b = tree_of(1, &[(iv, meta(AccessKind::AtomicRead, 2, 0))]);
        assert!(!writes_reach(&a, &b), "two readers over one range");
        let mut races = RaceSet::new();
        let mut sites = SiteCounters::new();
        let stats = run_pair(&a, &ctx_of(0), &b, &ctx_of(1), &mut races, None, Some(&mut sites));
        assert_eq!(stats, PairStats::default());
        assert!(races.is_empty());
        let table = sword_obs::SiteTable::new();
        table.absorb(sites);
        assert!(table.snapshot().is_empty(), "no pair credited");
        // A write reopens the walk where it reaches the other tree, from
        // either side.
        let w = tree_of(2, &[(iv, meta(AccessKind::Write, 3, 0))]);
        assert!(writes_reach(&a, &w) && writes_reach(&w, &a));
        let far = tree_of(
            2,
            &[
                (StridedInterval::single(0x1000, 8), meta(AccessKind::Write, 3, 0)),
                (iv, meta(AccessKind::Read, 4, 0)),
            ],
        );
        assert!(
            !writes_reach(&a, &far) && !writes_reach(&far, &a),
            "its write lies past a's range"
        );
        let stats = run_pair(&a, &ctx_of(0), &far, &ctx_of(2), &mut races, None, None);
        assert_eq!(stats, PairStats::default());
    }

    #[test]
    fn common_lock_suppresses() {
        let a = tree_of(0, &[(StridedInterval::single(0x100, 8), meta(AccessKind::Write, 1, 1))]);
        let b = tree_of(1, &[(StridedInterval::single(0x100, 8), meta(AccessKind::Write, 2, 1))]);
        let mut races = RaceSet::new();
        run_pair(&a, &ctx_of(0), &b, &ctx_of(1), &mut races, None, None);
        assert!(races.is_empty());
    }

    #[test]
    fn figure4_interleaved_strides_no_race() {
        // Candidate by range, rejected before the exact solve: the two
        // stride-8 intervals occupy disjoint residues mod gcd = 8, so the
        // fingerprint prescreen retires the pair during the tree walk.
        let a = tree_of(0, &[(StridedInterval::new(10, 8, 4, 4), meta(AccessKind::Write, 1, 0))]);
        let b = tree_of(1, &[(StridedInterval::new(14, 8, 4, 4), meta(AccessKind::Write, 2, 0))]);
        let mut races = RaceSet::new();
        let tiers = TierCounters::default();
        let stats = check_pair(&a, &ctx_of(0), &b, &ctx_of(1), &tiers, &mut races, None, None);
        assert_eq!(stats.candidates, 1);
        assert_eq!(stats.solver_calls, 0, "the prescreen retired the pair");
        assert_eq!(stats.prescreened, 1);
        assert_eq!(tiers.get(Tier::Prescreen), 1);
        assert!(races.is_empty());
    }

    #[test]
    fn dedup_by_source_pair() {
        // Many racing interval pairs from the same two lines → one race.
        let nodes_a: Vec<_> = (0..10)
            .map(|k| {
                (StridedInterval::new(0x1000 + k * 0x100, 8, 9, 8), meta(AccessKind::Write, 1, 0))
            })
            .collect();
        let nodes_b: Vec<_> = (0..10)
            .map(|k| {
                (StridedInterval::new(0x1000 + k * 0x100, 8, 9, 8), meta(AccessKind::Read, 2, 0))
            })
            .collect();
        let a = tree_of(0, &nodes_a);
        let b = tree_of(1, &nodes_b);
        let mut races = RaceSet::new();
        run_pair(&a, &ctx_of(0), &b, &ctx_of(1), &mut races, None, None);
        assert_eq!(races.len(), 1);
        assert_eq!(races.raw_pairs, 10);
        let race = &races.into_sorted()[0];
        assert_eq!(race.occurrences, 10);
        // Dedup fairness: the kept witness is the earliest racy node pair
        // (smallest witness address here — same interval coordinates).
        assert_eq!(race.evidence.witness.addr, 0x1000);
    }

    #[test]
    fn dedup_keeps_first_occurrence_regardless_of_arrival_order() {
        let early = Race {
            key: RaceKey::new(1, 2),
            kind_a: AccessKind::Write,
            kind_b: AccessKind::Read,
            witness_addr: 0x10,
            tids: (0, 1),
            region: 0,
            occurrences: 1,
            evidence: test_evidence(1, 2, 0x10),
        };
        let mut late = early.clone();
        late.evidence.a.log_begin = 5000;
        late.evidence.a.bid = 3;
        late.witness_addr = 0x99;

        // Record late first, then early: the early witness must win.
        let mut s1 = RaceSet::new();
        s1.record(late.clone());
        s1.record(early.clone());
        let r1 = s1.into_sorted().pop().unwrap();
        assert_eq!(r1.occurrences, 2);
        assert_eq!(r1.evidence, early.evidence);

        // Same via merge (worker arrival order).
        let mut s2 = RaceSet::new();
        s2.record(late);
        let mut s3 = RaceSet::new();
        s3.record(early.clone());
        s2.merge(s3);
        let r2 = s2.into_sorted().pop().unwrap();
        assert_eq!(r2.occurrences, 2);
        assert_eq!(r2.evidence, early.evidence);
    }

    #[test]
    fn merge_accumulates() {
        let mut s1 = RaceSet::new();
        let mut s2 = RaceSet::new();
        let race = Race {
            key: RaceKey::new(5, 2),
            kind_a: AccessKind::Write,
            kind_b: AccessKind::Read,
            witness_addr: 0x10,
            tids: (0, 1),
            region: 0,
            occurrences: 1,
            evidence: test_evidence(2, 5, 0x10),
        };
        s1.record(race.clone());
        s2.record(race.clone());
        s2.record(Race { key: RaceKey::new(9, 9), ..race.clone() });
        s1.merge(s2);
        assert_eq!(s1.len(), 2);
        assert_eq!(s1.raw_pairs, 3);
        let sorted = s1.into_sorted();
        assert_eq!(sorted[0].key, RaceKey::new(2, 5));
        assert_eq!(sorted[0].occurrences, 2);
    }

    #[test]
    fn race_key_is_unordered() {
        assert_eq!(RaceKey::new(3, 7), RaceKey::new(7, 3));
    }

    #[test]
    fn render_resolves_locations() {
        let mut pcs = PcTable::new();
        let p1 = pcs.intern("kernel.rs", 10);
        let p2 = pcs.intern("kernel.rs", 20);
        let race = Race {
            key: RaceKey::new(p1, p2),
            kind_a: AccessKind::Write,
            kind_b: AccessKind::Read,
            witness_addr: 0xABC,
            tids: (2, 5),
            region: 3,
            occurrences: 4,
            evidence: test_evidence(p1, p2, 0xABC),
        };
        let s = race.render(&pcs);
        assert!(s.contains("kernel.rs:10"));
        assert!(s.contains("kernel.rs:20"));
        assert!(s.contains("0xabc"));
        let body = race.render_evidence(&pcs);
        assert!(body.contains("side A: kernel.rs:10"));
        assert!(body.contains("side B: kernel.rs:20"));
        assert!(body.contains("log bytes: [0, 100) of thread_0.log"));
        assert!(body.contains("solver witness"));
        assert!(body.contains("4 interval pairs"));
    }
}
