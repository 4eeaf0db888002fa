//! Shared solver-verdict memoization for the analysis core.
//!
//! Both analysis front-ends — the batch pipeline and the live analyzer —
//! keep asking one question: given two strided intervals in canonical
//! side order, does the exact overlap constraint have a witness? The
//! solver is a pure function of `(i0, i1)`, so structurally-identical
//! interval pairs — the common case when the same loop body runs in every
//! barrier interval — always produce the *same witness*, which is what
//! keeps memoized evidence byte-identical to recomputed evidence.
//!
//! [`VerdictCache`] memoizes those answers, shared by reference across
//! pipeline workers and polls.
//!
//! Region-pair verdicts are *not* memoized: the `regions` index derives
//! them from fork-label structure without ever comparing most pairs, and
//! only charges its classification count here so one handle carries every
//! verdict counter.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering as AtomicOrdering};
use std::sync::{Arc, Mutex};

use sword_solver::{solve_tiered, OverlapWitness, StridedInterval, Tier};

/// Structural key of a solver query: both intervals *in canonical side
/// order* (the witness depends on order, and `check_pair` always queries
/// canonically).
type SolveKey = (StridedInterval, StridedInterval);

/// A memoized solver answer: the canonical witness (or `None`) plus the
/// funnel tier that decided the pair. Tiers are a pure function of the
/// key too, so memoizing them keeps per-tier counters logical: a hit
/// charges the tier that first decided the pair.
pub type SolveAnswer = (Option<OverlapWitness>, Tier);

/// The wrapper [`VerdictCache::solve`] runs around actual solver
/// computations only (never cache hits): callers hang latency recording
/// off it.
pub type SolveHook<'a> = &'a mut dyn FnMut(&dyn Fn() -> SolveAnswer) -> SolveAnswer;

/// Number of solver-memo shards (keeps worker contention low without a
/// concurrent map dependency).
const SOLVE_SHARDS: usize = 16;

#[derive(Debug, Default)]
struct Counters {
    region_classifications: AtomicU64,
    solve_hits: AtomicU64,
    solve_misses: AtomicU64,
}

#[derive(Debug)]
struct Inner {
    solves: Vec<Mutex<HashMap<SolveKey, SolveAnswer>>>,
    counters: Counters,
}

/// Shared, cheaply-clonable verdict memo (see the module docs).
#[derive(Clone, Debug)]
pub struct VerdictCache {
    inner: Arc<Inner>,
}

impl Default for VerdictCache {
    fn default() -> Self {
        VerdictCache {
            inner: Arc::new(Inner {
                solves: (0..SOLVE_SHARDS).map(|_| Mutex::new(HashMap::new())).collect(),
                counters: Counters::default(),
            }),
        }
    }
}

impl VerdictCache {
    /// Solves the exact overlap constraint for `(i0, i1)` — canonical
    /// side order — memoized on the pair's structural identity. The
    /// solver is pure, so a memoized witness is *the* witness the solver
    /// would return, and evidence built from it is byte-identical. The
    /// deciding funnel tier is memoized alongside the witness.
    ///
    /// `on_compute` runs around actual solves only (latency histograms
    /// must not record cache hits).
    pub fn solve(
        &self,
        i0: &StridedInterval,
        i1: &StridedInterval,
        on_compute: SolveHook<'_>,
    ) -> SolveAnswer {
        let compute = || solve_tiered(i0, i1, true);
        let key: SolveKey = (*i0, *i1);
        let shard = &self.inner.solves[shard_of(&key)];
        if let Some(w) = shard.lock().expect("solver memo poisoned").get(&key) {
            self.inner.counters.solve_hits.fetch_add(1, AtomicOrdering::Relaxed);
            return *w;
        }
        // Compute outside the shard lock: a concurrent duplicate solve is
        // cheaper than serializing every distinct solve in the shard.
        self.inner.counters.solve_misses.fetch_add(1, AtomicOrdering::Relaxed);
        let answer = on_compute(&compute);
        shard.lock().expect("solver memo poisoned").insert(key, answer);
        answer
    }

    /// Region-verdict memo hits: always 0 — region pairs are classified
    /// by the region index, which never answers from a memo.
    pub fn region_hits(&self) -> u64 {
        0
    }

    /// Classifications the region index performed so far: one per trie
    /// step plus one per partner region it yielded.
    pub fn region_misses(&self) -> u64 {
        self.inner.counters.region_classifications.load(AtomicOrdering::Relaxed)
    }

    pub(crate) fn count_region_classifications(&self, n: u64) {
        self.inner.counters.region_classifications.fetch_add(n, AtomicOrdering::Relaxed);
    }

    /// Solver memo hits so far.
    pub fn solve_hits(&self) -> u64 {
        self.inner.counters.solve_hits.load(AtomicOrdering::Relaxed)
    }

    /// Solver memo misses (actual solves) so far.
    pub fn solve_misses(&self) -> u64 {
        self.inner.counters.solve_misses.load(AtomicOrdering::Relaxed)
    }

    /// Fraction of solver lookups answered from the memo; 0 when nothing
    /// was looked up.
    pub fn hit_rate(&self) -> f64 {
        let total = self.solve_hits() + self.solve_misses();
        if total == 0 {
            0.0
        } else {
            self.solve_hits() as f64 / total as f64
        }
    }
}

fn shard_of(key: &SolveKey) -> usize {
    use std::hash::{Hash, Hasher};
    let mut h = std::collections::hash_map::DefaultHasher::new();
    key.hash(&mut h);
    (h.finish() as usize) % SOLVE_SHARDS
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn solver_memo_returns_the_computed_witness() {
        let cache = VerdictCache::default();
        let i0 = StridedInterval::new(0x100, 8, 99, 8);
        let i1 = StridedInterval::new(0x104, 8, 99, 4);
        let computes = std::cell::Cell::new(0u32);
        let mut run = |f: &dyn Fn() -> SolveAnswer| {
            computes.set(computes.get() + 1);
            f()
        };
        let (w1, t1) = cache.solve(&i0, &i1, &mut run);
        let (w2, t2) = cache.solve(&i0, &i1, &mut run);
        assert_eq!(computes.get(), 1, "second lookup is a memo hit");
        assert_eq!((w1, t1), (w2, t2));
        assert_eq!(
            w1,
            sword_solver::strided_overlap_witness_full(&i0, &i1),
            "memo returns the pure result"
        );
        assert_eq!(t1, Tier::DenseLocate, "dense i0 against holey i1 resolves by locate");
        assert_eq!(cache.solve_hits(), 1);
        assert_eq!(cache.solve_misses(), 1);
        // Disjoint pair memoizes its None too.
        let far = StridedInterval::single(0x9999, 1);
        assert_eq!(cache.solve(&i0, &far, &mut run), (None, Tier::RangeDisjoint));
        assert_eq!(cache.solve(&i0, &far, &mut run), (None, Tier::RangeDisjoint));
        assert_eq!(computes.get(), 2);
    }

    #[test]
    fn hit_rate_counts_solver_lookups_only() {
        let cache = VerdictCache::default();
        cache.count_region_classifications(7);
        assert_eq!((cache.region_hits(), cache.region_misses()), (0, 7));
        let i = StridedInterval::new(0, 8, 9, 8);
        let mut run = |f: &dyn Fn() -> SolveAnswer| f();
        cache.solve(&i, &i, &mut run); // miss
        cache.solve(&i, &i, &mut run); // hit
        assert!((cache.hit_rate() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn memoized_tier_is_stable_across_hits() {
        let cache = VerdictCache::default();
        // Figure 4: both holey, congruence reject.
        let i0 = StridedInterval::new(10, 8, 4, 4);
        let i1 = StridedInterval::new(14, 8, 4, 4);
        let mut run = |f: &dyn Fn() -> SolveAnswer| f();
        let first = cache.solve(&i0, &i1, &mut run);
        let second = cache.solve(&i0, &i1, &mut run);
        assert_eq!(first, (None, Tier::GcdReject));
        assert_eq!(second, first, "hits replay the memoized tier");
    }
}
