//! Region index: which region pairs can race, decided by fork-label
//! structure instead of by comparing every pair.
//!
//! Fork labels form a tree (a region's label extends its forker's), and
//! [`sword_osl::Label::compare_barrier_aware`] decides two labels at the
//! first pair where they diverge. [`RegionIndex`] is that tree as a trie
//! over label pairs. From one region's trie path, every other region
//! falls into one of three classes at the node where the paths part:
//!
//! * **prefix-related** — it sits on the path itself (an ancestor, an
//!   equal label) or below the path's end (a descendant): member
//!   intervals need per-pair barrier-aware checks;
//! * **concurrent** — it hangs under a sibling edge of a *different
//!   span*, or of the same span and the *same generation* (another slot
//!   of one team): every member pair is concurrent;
//! * **ordered** — it hangs under a sibling edge of the same span and a
//!   *different generation* (`offset / span`): a barrier or join orders
//!   the whole pair.
//!
//! A node's edges sort by `(span, offset)`, so one generation's slots are
//! a contiguous offset range and the ordered siblings — for a program of
//! sequential top-level regions, all of them — are never visited:
//! [`RegionIndex::partners`] costs O(depth + partners), not O(regions).

use std::collections::{BTreeMap, HashMap};
use std::ops::Bound::{Excluded, Included};

use sword_osl::{Label, Pair};

use crate::verdicts::VerdictCache;

const ROOT: usize = 0;

#[derive(Debug)]
struct Node {
    parent: usize,
    /// The edge pair leading here from `parent` (unused at the root).
    pair: Pair,
    /// Regions whose fork label ends at this node; equal labels share it.
    regions: Vec<u64>,
}

/// Trie over the fork labels of the regions inserted so far.
#[derive(Debug)]
pub(crate) struct RegionIndex {
    nodes: Vec<Node>,
    /// `(parent node, span, offset) → child node`.
    edges: BTreeMap<(usize, u64, u64), usize>,
    /// Region id → the node its fork label ends at.
    ends: HashMap<u64, usize>,
    /// Receives the classification count ([`VerdictCache::region_misses`]).
    counters: VerdictCache,
}

impl RegionIndex {
    /// An empty index charging its work to `counters`.
    pub(crate) fn new(counters: &VerdictCache) -> Self {
        let root = Node { parent: ROOT, pair: Pair { offset: 0, span: 1 }, regions: Vec::new() };
        RegionIndex {
            nodes: vec![root],
            edges: BTreeMap::new(),
            ends: HashMap::new(),
            counters: counters.clone(),
        }
    }

    /// Number of unordered region pairs, ordered ones included.
    pub(crate) fn pair_count(&self) -> u64 {
        let n = self.ends.len() as u64;
        n * n.saturating_sub(1) / 2
    }

    /// Adds region `pid` under its fork label. Each pid is inserted once.
    pub(crate) fn insert(&mut self, pid: u64, fork: &Label) {
        let mut node = ROOT;
        for &pair in fork.pairs() {
            let (parent, next) = (node, self.nodes.len());
            node = *self.edges.entry((parent, pair.span, pair.offset)).or_insert(next);
            if node == next {
                self.nodes.push(Node { parent, pair, regions: Vec::new() });
            }
        }
        self.nodes[node].regions.push(pid);
        let fresh = self.ends.insert(pid, node).is_none();
        debug_assert!(fresh, "region {pid} indexed twice");
        self.counters.count_region_classifications(fork.depth() as u64);
    }

    /// Every indexed region that is not ordered against `pid`, with
    /// `true` when the two fork labels diverge concurrent (every member
    /// pair races-able) and `false` when they are prefix-related (member
    /// pairs need [`crate::intervals::intervals_concurrent`]).
    pub(crate) fn partners(&self, pid: u64) -> Vec<(u64, bool)> {
        let mut out = Vec::new();
        let Some(&end) = self.ends.get(&pid) else { return out };
        // Equal labels and descendants.
        self.collect(end, false, &mut out);
        out.retain(|&(q, _)| q != pid);
        let (mut node, mut steps) = (end, 1u64);
        while node != ROOT {
            let Node { parent, pair, .. } = self.nodes[node];
            out.extend(self.nodes[parent].regions.iter().map(|&q| (q, false)));
            // Sibling edges: all of every other span, and the other
            // slots of this pair's own generation.
            let first = pair.generation() * pair.span;
            let slots = (parent, pair.span, first)
                ..=(parent, pair.span, first.saturating_add(pair.span - 1));
            let below = (parent, 0, 0)..(parent, pair.span, 0);
            let above =
                (Excluded((parent, pair.span, u64::MAX)), Included((parent, u64::MAX, u64::MAX)));
            for (_, &sibling) in self
                .edges
                .range(below)
                .chain(self.edges.range(slots))
                .chain(self.edges.range(above))
            {
                if sibling != node {
                    self.collect(sibling, true, &mut out);
                }
            }
            node = parent;
            steps += 1;
        }
        self.counters.count_region_classifications(steps + out.len() as u64);
        out
    }

    /// Pushes every region at or below `node` with verdict `concurrent`.
    fn collect(&self, node: usize, concurrent: bool, out: &mut Vec<(u64, bool)>) {
        let mut stack = vec![node];
        while let Some(n) = stack.pop() {
            out.extend(self.nodes[n].regions.iter().map(|&q| (q, concurrent)));
            stack.extend(self.edges.range((n, 0, 0)..=(n, u64::MAX, u64::MAX)).map(|(_, &c)| c));
        }
    }
}

#[cfg(test)]
mod tests;
