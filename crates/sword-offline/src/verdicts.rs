//! The region index's classification counter.
//!
//! [`VerdictCache`] memoizes nothing: every candidate pair is one
//! `solve_tiered` call, and region verdicts come from the `regions`
//! index's fork-label structure. It counts the classifications that index
//! performs, on a cheaply clonable handle that
//! [`build_structure_with`][crate::intervals::build_structure_with]
//! charges. The name stays until the benchmark harness stops importing it
//! (ROADMAP.md item 3).

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Shared, cheaply clonable region-classification counter (see the module
/// docs).
#[derive(Clone, Debug, Default)]
pub struct VerdictCache {
    region_classifications: Arc<AtomicU64>,
}

impl VerdictCache {
    /// Region-verdict memo hits: always 0 — region pairs are classified
    /// by the region index, which never answers from a memo.
    pub fn region_hits(&self) -> u64 {
        0
    }

    /// Classifications the region index performed so far: one per trie
    /// step plus one per partner region it yielded.
    pub fn region_misses(&self) -> u64 {
        self.region_classifications.load(Ordering::Relaxed)
    }

    pub(crate) fn count_region_classifications(&self, n: u64) {
        self.region_classifications.fetch_add(n, Ordering::Relaxed);
    }
}
