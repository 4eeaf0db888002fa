//! Static interval trees for SWORD's offline race analysis.
//!
//! The offline phase summarizes each thread's memory accesses within one
//! barrier interval into an *interval tree* (§III-B of the paper): a node
//! holds a strided interval — base address, stride, count, access size —
//! plus the access metadata (R/W, program counter, mutex set, atomicity),
//! so a contiguous or strided sweep over an array costs one node instead
//! of one node per access. Race detection then compares the trees of
//! concurrent threads: coarse `[begin, end)` overlap between two nodes of
//! which at least one writes is found by one merge sweep over the two
//! trees' begin-sorted nodes, and candidates are confirmed with the exact
//! strided-overlap constraint solve from [`sword_solver`].
//!
//! The paper's tree is an augmented red-black tree because it is built by
//! insertion. This one is not: the [`SummarizingBuilder`] appends nodes
//! while it folds and sorts them once when it finishes, and a finished
//! tree is never modified, so it is just the node slice. A tree whose
//! reads outnumber its writes more than sixteen times sorts only its
//! writes and keeps its reads in insertion order; a compare filters those
//! reads against the other tree's writes and sorts the few that survive.
//! Building a tree from `N` accesses into `M` nodes is `O(N + M log M)`,
//! or `O(N + W log W)` for a read-heavy tree of `W` writes; comparing two
//! trees of `n` and `m` nodes is `O(n + m + v)`, where `v` counts the
//! overlapping pairs among the swept nodes — the candidate pairs
//! reported, plus read pairs of trees that sort their reads, visited but
//! not reported — plus a binary search per unsorted read. Summarization
//! makes `M ≤ N` (often `M ≪ N`).
//!
//! # Example
//!
//! ```
//! use sword_itree::{for_each_candidate_pair_fp, SummarizingBuilder};
//! use sword_solver::solve_tiered;
//!
//! // Two threads sweep adjacent halves of an array: thread 0 writes, and
//! // thread 1 reads. Merge keys model (source line, is_write), and each
//! // node's value is whether it writes.
//! let mut t0: SummarizingBuilder<(&str, bool), bool> = SummarizingBuilder::new();
//! let mut t1 = SummarizingBuilder::new();
//! for i in 0..500u64 {
//!     t0.insert_with(("w", true), 0x1000 + i * 8, 8, || true);
//! }
//! for i in 499..1000u64 {
//!     t1.insert_with(("r", false), 0x1000 + i * 8, 8, || false);
//! }
//! let a = t0.finish(|&writes| writes);
//! let b = t1.finish(|&writes| writes);
//!
//! // 500 accesses each, one strided node each…
//! assert_eq!((a.len(), b.len()), (1, 1));
//! // …and the one candidate pair shares exactly the boundary element.
//! let mut shared = Vec::new();
//! for_each_candidate_pair_fp(&a, &b, |ia, _, _, ib, _, _| {
//!     shared.extend(solve_tiered(ia, ib, true).0.map(|w| w.addr));
//! });
//! assert_eq!(shared, [0x1000 + 499 * 8]);
//! // Two readers never meet.
//! let mut candidates = 0;
//! for_each_candidate_pair_fp(&b, &b, |_, _, _, _, _, _| candidates += 1);
//! assert_eq!(candidates, 0);
//! ```

#![forbid(unsafe_code)]

mod hash;
mod tree;
mod walk;

pub use hash::{FxBuildHasher, FxHasher};
pub use sword_solver::{Fingerprint, StridedInterval};
pub use tree::{IntervalTree, NodeInterval, NodeRef};

use hash::IndexHasher;
use tree::Node;

use std::collections::HashMap;
use std::hash::{BuildHasher, BuildHasherDefault, Hash};

/// Outcome of a [`SummarizingBuilder::insert_with`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum MergeOutcome {
    /// The access extended a confirmed progression by one `stride`
    /// (`stride > 0`). That progression is now the front slot of `ring`,
    /// the key's ring of live progressions: rings are numbered densely in
    /// the order their keys first arrive, and
    /// [`SummarizingBuilder::extend_front`] takes the same number.
    Extended {
        /// The key's progression ring.
        ring: u32,
        /// The progression's stride, which the access extended it by.
        stride: u64,
    },
    /// The access became a progression's unconfirmed second element.
    Pending,
    /// The access was already covered; nothing changed.
    Duplicate,
    /// A fresh node was inserted.
    New,
}

/// How many recent progressions per merge key the builder tracks. Two
/// slots handle the common "interleaved progressions from one source
/// line" pattern (e.g. `d = a[i] - a[j]` in an i/j double loop), which a
/// single-slot cache degrades to one node per access on.
const MERGE_HISTORY: usize = 2;

/// Largest base→second-element gap accepted when starting a stride
/// hypothesis. Gaps beyond this (e.g. two unrelated operands on the same
/// source line) must not seed a progression, or one wrong guess poisons
/// the node for every later access.
const MAX_STRIDE_BYTES: u64 = 4096;

#[derive(Clone, Copy, Debug)]
struct MergeSlot {
    node: NodeRef,
    /// Authoritative interval of this progression. The arena node lags
    /// behind while a run is open, so the per-access hot path never
    /// touches the arena: extension decisions read and write this copy,
    /// and the accumulated extent is written once when the slot retires.
    iv: StridedInterval,
    /// A second element observed after a single access, held back until a
    /// third access confirms the stride (or the slot is retired, at which
    /// point it is materialized as its own node).
    pending: Option<u64>,
}

/// Builds an [`IntervalTree`] from a stream of accesses, summarizing
/// consecutive same-provenance accesses into strided intervals.
///
/// `K` is the merge key — in SWORD it is (program counter, R/W, access
/// size, mutex set, atomicity): only accesses that are equivalent for race
/// reporting may share a node. The builder keeps the most recent
/// progressions per key and extends one when the next access continues
/// its (confirmed) arithmetic progression, which is exactly the shape
/// instrumented array loops emit.
///
/// Folding only appends: a new progression pushes a node, a retiring one
/// overwrites its node's interval (the begin never moves), and
/// [`finish`](SummarizingBuilder::finish) sorts the nodes once — nothing
/// queries a tree under construction, so nothing pays for ordering one.
/// A read-heavy tree sorts only its writes there (see [`IntervalTree`]).
#[derive(Clone, Debug)]
pub struct SummarizingBuilder<K: Hash + Eq + Clone, V> {
    /// Nodes in insertion order.
    nodes: Vec<Node<V>>,
    /// The wide nodes' intervals (see [`IntervalTree::wide_nodes`]).
    wide: Vec<StridedInterval>,
    /// Most-recent-first rings of live progressions, one per distinct
    /// key, indexed by [`SummarizingBuilder::index`].
    rings: Vec<[Option<MergeSlot>; MERGE_HISTORY]>,
    /// Key → ring index. Hashed with [`FxBuildHasher`]: the key is a few
    /// machine words hashed once per recorded access, where SipHash's
    /// setup cost dominates the lookup.
    index: HashMap<K, u32, FxBuildHasher>,
    /// Direct-mapped one-way cache in front of `index`, indexed by the
    /// high bits of the key's [`IndexHasher`] hash — the per-access fast
    /// path. An instrumented loop body cycles through a handful of source
    /// lines (a 5-operand stencil touches 5 keys per iteration), so
    /// almost every access resolves here with one compare instead of a
    /// map probe.
    memo: Vec<Option<(K, u32)>>,
    accesses: u64,
}

impl<K: Hash + Eq + Clone, V: Clone> Default for SummarizingBuilder<K, V> {
    fn default() -> Self {
        Self::new()
    }
}

/// Entries in the [`SummarizingBuilder::memo`] direct map. Sized for the
/// working set of distinct source lines a compiled loop nest touches
/// between barriers; collisions just fall back to the map probe.
const KEY_CACHE_WAYS: usize = 64;

impl<K: Hash + Eq + Clone, V: Clone> SummarizingBuilder<K, V> {
    /// Creates an empty builder.
    pub fn new() -> Self {
        Self::with_capacity(0)
    }

    /// Creates an empty builder with room for `nodes` nodes: a build
    /// that stays within it allocates its node array once.
    pub fn with_capacity(nodes: usize) -> Self {
        SummarizingBuilder {
            nodes: Vec::with_capacity(nodes),
            wide: Vec::new(),
            rings: Vec::new(),
            index: HashMap::default(),
            memo: vec![None; KEY_CACHE_WAYS],
            accesses: 0,
        }
    }

    /// Number of raw accesses inserted (the paper's `N`).
    pub fn access_count(&self) -> u64 {
        self.accesses
    }

    /// Number of tree nodes (the paper's `M ≤ N`). Pending second
    /// elements are not counted until confirmed or flushed.
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// The ring index for `key`, creating an empty ring for a fresh key.
    /// Resolves through the direct-mapped key cache before probing the
    /// map.
    #[inline]
    fn ring_of(&mut self, key: &K) -> u32 {
        // The one multiply concentrates entropy in the high bits; the low
        // bits of a product are too regular to index with. A hit checks
        // the whole key, so the index need not tell keys apart.
        let h = BuildHasherDefault::<IndexHasher>::default().hash_one(key);
        let mi = (h >> 58) as usize & (KEY_CACHE_WAYS - 1);
        if let Some((k, ri)) = &self.memo[mi] {
            if k == key {
                return *ri;
            }
        }
        let ri = match self.index.get(key) {
            Some(&ri) => ri,
            None => {
                let ri = self.rings.len() as u32;
                self.rings.push([None; MERGE_HISTORY]);
                self.index.insert(key.clone(), ri);
                ri
            }
        };
        self.memo[mi] = Some((key.clone(), ri));
        ri
    }

    /// Inserts one access of `size` bytes at `addr` with merge key `key`.
    /// `value` is stored only when a new node is created (merged accesses
    /// share the representative's value). `addr + size` must not wrap the
    /// address space.
    ///
    /// `#[inline]`: this is the per-event body of the analyzer's decode
    /// loop, instantiated in the caller's crate; left to the codegen-unit
    /// partitioner it lands out of line whenever unrelated modules of that
    /// crate move (DESIGN.md §5 "Tree construction").
    #[inline]
    pub fn insert_with(
        &mut self,
        key: K,
        addr: u64,
        size: u64,
        value: impl FnOnce() -> V,
    ) -> MergeOutcome {
        self.accesses += 1;
        let ri = self.ring_of(&key) as usize;
        for i in 0..MERGE_HISTORY {
            let Some(slot) = self.rings[ri][i] else { continue };
            if slot.iv.size != size {
                continue;
            }
            let outcome = match_slot(&slot.iv, slot.pending, addr);
            let ring = &mut self.rings[ri];
            let result = match outcome {
                SlotMatch::None => continue,
                SlotMatch::Covered | SlotMatch::PendingRepeat => MergeOutcome::Duplicate,
                SlotMatch::Extend(extended) => {
                    ring[i] = Some(MergeSlot { node: slot.node, iv: extended, pending: None });
                    MergeOutcome::Extended { ring: ri as u32, stride: extended.stride }
                }
                SlotMatch::Pend => {
                    ring[i] = Some(MergeSlot { pending: Some(addr), ..slot });
                    MergeOutcome::Pending
                }
            };
            // Promote the hit to the front of the ring. A sweep hits the
            // front every time; skipping the no-op rotation keeps a slice
            // call out of the per-access path.
            if i > 0 {
                self.rings[ri][..=i].rotate_right(1);
            }
            return result;
        }
        // No progression matched: start a new one, retiring the oldest.
        let iv = StridedInterval::single(addr, size);
        let node = self.push(iv, value());
        let ring = &mut self.rings[ri];
        let retired = ring[MERGE_HISTORY - 1];
        ring.rotate_right(1);
        ring[0] = Some(MergeSlot { node, iv, pending: None });
        if let Some(slot) = retired {
            self.retire(slot);
        }
        MergeOutcome::New
    }

    /// Extends the front progression of `ring` by `k` more strides, and
    /// counts `k` more accesses: what `k` further accesses of that ring's
    /// key, each one stride past the progression's last element, would
    /// do through [`insert_with`](Self::insert_with). The caller vouches
    /// for that: the front slot holds a confirmed progression (the ring's
    /// last outcome was [`MergeOutcome::Extended`]), and its last element
    /// plus `k` strides plus the access size stays within the address
    /// space.
    #[inline]
    pub fn extend_front(&mut self, ring: u32, k: u64) {
        self.accesses += k;
        let slot = self.rings[ring as usize][0].as_mut().expect("an extended ring's front slot");
        slot.iv.count += k;
    }

    fn push(&mut self, iv: StridedInterval, value: V) -> NodeRef {
        let node = NodeRef(u32::try_from(self.nodes.len()).expect("fewer than 2^32 nodes"));
        self.nodes.push(Node::new(iv, value, &mut self.wide));
        node
    }

    /// Flushes a slot leaving the ring: writes its accumulated extent to
    /// its node, and gives an unconfirmed second element its own single
    /// node (it still represents a real access, sharing the
    /// representative's value).
    fn retire(&mut self, slot: MergeSlot) {
        let node = &mut self.nodes[slot.node.0 as usize];
        node.set_interval(slot.iv, &mut self.wide);
        if let Some(p) = slot.pending {
            let value = node.value.clone();
            self.push(StridedInterval::single(p, slot.iv.size), value);
        }
    }

    /// Finishes the build: flushes open progressions and unconfirmed
    /// pendings, then lays the nodes out (see the type's docs). A node is
    /// a write where `is_write` says so of its value, and a read, which
    /// meets only writes, elsewhere. The result iterates as the tree that
    /// inserting every node when it was created would, reordered so that
    /// writes go before reads at one begin.
    pub fn finish(mut self, is_write: impl Fn(&V) -> bool) -> IntervalTree<V> {
        let rings = std::mem::take(&mut self.rings);
        for ring in rings {
            for slot in ring.into_iter().flatten() {
                self.retire(slot);
            }
        }
        IntervalTree::link(self.nodes, self.wide, is_write)
    }
}

enum SlotMatch {
    /// Not this progression.
    None,
    /// Already covered by the interval: nothing to do.
    Covered,
    /// Grow the interval to this shape.
    Extend(StridedInterval),
    /// Hold `addr` as the unconfirmed second element.
    Pend,
    /// Repeats the currently pending element.
    PendingRepeat,
}

fn match_slot(iv: &StridedInterval, pending: Option<u64>, addr: u64) -> SlotMatch {
    // The progression's last element: within the address space, like
    // every element of an interval whose `end()` is.
    let last = iv.base + iv.stride * iv.count;
    // 1. Already covered (loop-invariant operand, repeated sweep).
    if addr >= iv.base
        && addr <= last
        && (iv.count == 0 && addr == iv.base
            || iv.stride > 0 && (addr - iv.base).is_multiple_of(iv.stride))
    {
        return SlotMatch::Covered;
    }
    if iv.count >= 1 {
        // 2. The next element of a confirmed progression. Measured from
        //    `last`, not computed as `base + stride * (count + 1)`: a
        //    progression at the top of the address space would wrap that
        //    sum onto an unrelated low address.
        if addr > last && addr - last == iv.stride {
            return SlotMatch::Extend(StridedInterval::new(
                iv.base,
                iv.stride,
                iv.count + 1,
                iv.size,
            ));
        }
        return SlotMatch::None;
    }
    match pending {
        Some(p) => {
            if addr == p {
                return SlotMatch::PendingRepeat;
            }
            // 3. Third element confirming the stride hypothesis
            //    (base, p, addr in arithmetic progression).
            if addr > p && addr - p == p - iv.base {
                return SlotMatch::Extend(StridedInterval::new(iv.base, p - iv.base, 2, iv.size));
            }
            SlotMatch::None
        }
        None => {
            // 4. A plausible second element starts a stride hypothesis.
            if addr > iv.base && addr - iv.base <= MAX_STRIDE_BYTES {
                SlotMatch::Pend
            } else {
                SlotMatch::None
            }
        }
    }
}

/// Visits every pair of intervals — one from each tree — whose coarse
/// `[begin, end)` ranges overlap and of which at least one is a write,
/// each exactly once and in no promised order. This is the tree-vs-tree
/// comparison of the paper's offline algorithm; the caller applies the
/// exact strided/mutex/atomic race conditions to each candidate pair.
/// Each side comes with its interval's stride-class [`Fingerprint`],
/// computed for the pair, for the congruence pre-screen.
pub fn for_each_candidate_pair_fp<VA, VB, F>(a: &IntervalTree<VA>, b: &IntervalTree<VB>, mut f: F)
where
    F: FnMut(&StridedInterval, Fingerprint, &VA, &StridedInterval, Fingerprint, &VB),
{
    walk::sweep(a, b, |x, y| {
        let (ix, iy) = (x.interval(a.wide()), y.interval(b.wide()));
        f(&ix, Fingerprint::of(&ix), &x.value, &iy, Fingerprint::of(&iy), &y.value);
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use sword_solver::solve_tiered;

    fn iv(base: u64, stride: u64, count: u64, size: u64) -> StridedInterval {
        StridedInterval::new(base, stride, count, size)
    }

    #[test]
    fn insert_and_query_basic() {
        let mut t = IntervalTree::new();
        t.insert(iv(10, 0, 0, 4), "a");
        t.insert(iv(20, 0, 0, 4), "b");
        t.insert(iv(5, 0, 0, 20), "c"); // covers [5,25)
        t.assert_invariants();
        let hits = t.range_overlaps(12, 13);
        let names: Vec<_> = hits.iter().map(|&h| *t.value(h)).collect();
        assert_eq!(names, vec!["c", "a"]); // in-order by begin
        assert!(t.range_overlaps(25, 30).is_empty());
        assert_eq!(t.range_overlaps(0, 100).len(), 3);
    }

    #[test]
    fn overlap_query_is_half_open() {
        let mut t = IntervalTree::new();
        t.insert(iv(10, 0, 0, 4), ()); // [10,14)
        assert!(t.range_overlaps(14, 20).is_empty(), "touching at end is no overlap");
        assert!(t.range_overlaps(0, 10).is_empty(), "touching at begin is no overlap");
        assert_eq!(t.range_overlaps(13, 14).len(), 1);
        assert_eq!(t.range_overlaps(10, 11).len(), 1);
    }

    #[test]
    fn many_inserts_stay_sorted() {
        // Interleaved halves: every second insert lands mid-slice.
        let mut t = IntervalTree::new();
        for i in 0..4096u64 {
            let k = if i % 2 == 0 { i / 2 } else { 4096 - i / 2 };
            t.insert(iv(k * 8, 0, 0, 8), i);
        }
        t.assert_invariants();
        let begins: Vec<u64> = t.iter().map(|(_, iv, _)| iv.begin()).collect();
        assert!(begins.windows(2).all(|w| w[0] < w[1]), "strictly ascending, no key lost");
        assert_eq!(begins.len(), 4096);
    }

    #[test]
    fn ascending_and_descending_inserts() {
        for descending in [false, true] {
            let mut t = IntervalTree::new();
            for i in 0..1000u64 {
                let k = if descending { 999 - i } else { i };
                t.insert(iv(k * 4, 0, 0, 4), ());
            }
            t.assert_invariants();
            assert_eq!(t.len(), 1000);
            let all: Vec<u64> = t.iter().map(|(_, iv, _)| iv.begin()).collect();
            let mut sorted = all.clone();
            sorted.sort_unstable();
            assert_eq!(all, sorted, "in-order iteration is sorted");
        }
    }

    #[test]
    fn builder_summarizes_array_sweep() {
        // Thread writes a[0..1000] of 8 bytes from one PC: 1000 accesses →
        // 1 node.
        let mut b: SummarizingBuilder<u32, ()> = SummarizingBuilder::new();
        for i in 0..1000u64 {
            b.insert_with(7, 0x1000 + i * 8, 8, || ());
        }
        assert_eq!(b.access_count(), 1000);
        assert_eq!(b.node_count(), 1);
        let t = b.finish(|_| true);
        let (_, ivl, _) = t.iter().next().unwrap();
        assert_eq!(*ivl, iv(0x1000, 8, 999, 8));
    }

    #[test]
    fn builder_handles_strided_sweep() {
        // Every 4th element: stride 32.
        let mut b: SummarizingBuilder<u32, ()> = SummarizingBuilder::new();
        for i in 0..100u64 {
            b.insert_with(1, i * 32, 8, || ());
        }
        assert_eq!(b.node_count(), 1);
        let t = b.finish(|_| true);
        assert_eq!(*t.iter().next().unwrap().1, iv(0, 32, 99, 8));
    }

    #[test]
    fn builder_splits_on_key_change() {
        let mut b: SummarizingBuilder<u32, ()> = SummarizingBuilder::new();
        b.insert_with(1, 0, 8, || ());
        b.insert_with(2, 8, 8, || ()); // different PC: no merge
        b.insert_with(1, 8, 8, || ()); // extends node for key 1
        assert_eq!(b.node_count(), 2);
    }

    #[test]
    fn builder_splits_on_stride_break() {
        let mut b: SummarizingBuilder<u32, ()> = SummarizingBuilder::new();
        assert!(matches!(b.insert_with(1, 0, 8, || ()), MergeOutcome::New));
        assert_eq!(b.insert_with(1, 8, 8, || ()), MergeOutcome::Pending);
        assert_eq!(b.insert_with(1, 16, 8, || ()), MergeOutcome::Extended { ring: 0, stride: 8 });
        // Jump breaks the progression.
        assert!(matches!(b.insert_with(1, 100, 8, || ()), MergeOutcome::New));
        assert_eq!(b.node_count(), 2);
    }

    #[test]
    fn extend_front_equals_that_many_inserts() {
        // Two keys, rings 0 and 1 in first-use order; key 1's ring holds a
        // second progression behind its front one.
        let prefix = |b: &mut SummarizingBuilder<u32, u32>| {
            for i in 0..3u64 {
                b.insert_with(1, 0x9000 + i * 16, 4, || 9);
                b.insert_with(1, 0x1000 + i * 8, 4, || 1);
                b.insert_with(2, 0x5000 + i * 32, 8, || 2);
            }
        };
        let mut by_insert = SummarizingBuilder::new();
        prefix(&mut by_insert);
        for i in 3..1003u64 {
            assert_eq!(
                by_insert.insert_with(1, 0x1000 + i * 8, 4, || 0),
                MergeOutcome::Extended { ring: 0, stride: 8 }
            );
            assert_eq!(
                by_insert.insert_with(2, 0x5000 + i * 32, 8, || 0),
                MergeOutcome::Extended { ring: 1, stride: 32 }
            );
        }
        let mut by_extend = SummarizingBuilder::new();
        prefix(&mut by_extend);
        by_extend.extend_front(0, 1000);
        by_extend.extend_front(1, 1000);
        assert_eq!(by_extend.access_count(), by_insert.access_count());
        let nodes = |b: SummarizingBuilder<u32, u32>| -> Vec<_> {
            b.finish(|_| true).iter().map(|(_, iv, v)| (*iv, *v)).collect()
        };
        let extended = nodes(by_extend);
        assert_eq!(extended, nodes(by_insert));
        assert_eq!(extended.len(), 3);
    }

    #[test]
    fn builder_duplicate_access() {
        let mut b: SummarizingBuilder<u32, ()> = SummarizingBuilder::new();
        b.insert_with(1, 40, 8, || ());
        assert!(matches!(b.insert_with(1, 40, 8, || ()), MergeOutcome::Duplicate));
        b.insert_with(1, 48, 8, || ());
        assert!(matches!(b.insert_with(1, 48, 8, || ()), MergeOutcome::Duplicate));
        assert_eq!(b.node_count(), 1);
    }

    #[test]
    fn builder_backward_access_starts_new_node() {
        let mut b: SummarizingBuilder<u32, ()> = SummarizingBuilder::new();
        b.insert_with(1, 100, 8, || ());
        assert!(matches!(b.insert_with(1, 50, 8, || ()), MergeOutcome::New));
        assert_eq!(b.node_count(), 2);
    }

    #[test]
    fn builder_revisit_of_covered_element_is_duplicate() {
        let mut b: SummarizingBuilder<u32, ()> = SummarizingBuilder::new();
        for i in 0..10u64 {
            b.insert_with(1, i * 8, 8, || ());
        }
        // Re-reading an element already inside the progression adds
        // nothing.
        assert!(matches!(b.insert_with(1, 24, 8, || ()), MergeOutcome::Duplicate));
        // Off-stride revisit does not merge.
        assert!(matches!(b.insert_with(1, 25, 8, || ()), MergeOutcome::New));
        assert_eq!(b.node_count(), 2);
    }

    #[test]
    fn builder_interleaved_progressions_share_key() {
        // The c_md pattern: one source line alternates a loop-invariant
        // operand with a sweeping one. The two-slot history keeps both
        // progressions live: 2 nodes, not ~2·n.
        let mut b: SummarizingBuilder<u32, ()> = SummarizingBuilder::new();
        for j in 0..100u64 {
            b.insert_with(7, 0x5000, 8, || ()); // invariant a[i]
            b.insert_with(7, 0x8000 + j * 8, 8, || ()); // sweeping a[j]
        }
        assert_eq!(b.node_count(), 2, "two interleaved progressions, two nodes");
    }

    #[test]
    fn paper_interval_tree_example() {
        // §III-B example: `a[i] = a[i-1]`, 1000 ints, 2 threads with static
        // halves. Thread 0 writes a[1..500] reads a[0..499]; thread 1
        // writes a[500..1000] reads a[499..999]. The write of a[499] by T0
        // and read of a[499] by T1 overlap.
        let base = 0x100u64;
        let elt = 4u64;
        // A node's value is whether it writes.
        let mut t0: SummarizingBuilder<(u32, bool), bool> = SummarizingBuilder::new();
        for i in 1..500u64 {
            t0.insert_with((1, true), base + i * elt, elt, || true); // write a[i]
            t0.insert_with((1, false), base + (i - 1) * elt, elt, || false); // read a[i-1]
        }
        let mut t1: SummarizingBuilder<(u32, bool), bool> = SummarizingBuilder::new();
        for i in 500..1000u64 {
            t1.insert_with((1, true), base + i * elt, elt, || true);
            t1.insert_with((1, false), base + (i - 1) * elt, elt, || false);
        }
        assert_eq!(t0.node_count(), 2);
        assert_eq!(t1.node_count(), 2);
        let a = t0.finish(|&w| w);
        let b = t1.finish(|&w| w);
        // Candidates: T0.writes [a1..a500) vs T1.reads [a499..a999); the
        // reads [a0..a499) of T0 meet T1's writes [a500..a1000) nowhere.
        let mut overlaps = Vec::new();
        for_each_candidate_pair_fp(&a, &b, |ia, _, _, ib, _, _| {
            overlaps.push(solve_tiered(ia, ib, true).0.map(|w| w.addr));
        });
        assert_eq!(overlaps, [Some(base + 499 * elt)], "one candidate, the boundary element");
    }

    #[test]
    fn intervals_that_do_not_pack_go_wide_and_come_back_whole() {
        let mut b: SummarizingBuilder<u32, ()> = SummarizingBuilder::new();
        // A narrow node at its push that retires past a u32 count.
        for i in 0..3u64 {
            b.insert_with(1, 0x1000 + i * 8, 8, || ());
        }
        b.extend_front(0, 1 << 32);
        // A size of 300 is wide from its push; its retire updates it in
        // place.
        for i in 0..3u64 {
            b.insert_with(2, 0x10 + i * 300, 300, || ());
        }
        let t = b.finish(|_| true);
        t.assert_invariants();
        assert_eq!(t.wide_nodes(), 2);
        let nodes: Vec<StridedInterval> = t.iter().map(|(_, iv, _)| *iv).collect();
        assert_eq!(nodes, [iv(0x10, 300, 2, 300), iv(0x1000, 8, 2 + (1 << 32), 8)]);
        // An interval that packs costs no wide entry: strides take 23
        // bits.
        let mut t = IntervalTree::new();
        t.insert(iv(0, (1 << 23) - 1, u32::MAX.into(), 255), ());
        assert_eq!(t.wide_nodes(), 0);
        t.insert(iv(0, 1 << 23, 1, 8), ());
        assert_eq!(t.wide_nodes(), 1);
        t.assert_invariants();
        let strides: Vec<u64> = t.iter().map(|(_, iv, _)| iv.stride).collect();
        assert_eq!(strides, [(1 << 23) - 1, 1 << 23]);
    }

    #[test]
    fn a_wide_or_narrow_read_keeps_its_class_and_interval() {
        // The class shares the stride's word: the widest narrow stride and
        // a wide stride, each as a read and as a write, linked from
        // single-access nodes that retire to their final extent.
        let strides = [(1 << 23) - 1, 1 << 23];
        let expect: Vec<(StridedInterval, bool)> = (0..4u64)
            .map(|k| (iv(0x1000 * (1 + k), strides[k as usize / 2], 2, 8), k % 2 == 0))
            .collect();
        let (mut nodes, mut wide) = (Vec::new(), Vec::new());
        for &(interval, write) in &expect {
            let single = StridedInterval::single(interval.base, interval.size);
            nodes.push(Node::new(single, write, &mut wide));
            nodes.last_mut().unwrap().set_interval(interval, &mut wide);
        }
        let t = IntervalTree::link(nodes, wide, |&w| w);
        t.assert_invariants();
        assert_eq!(t.wide_nodes(), 2);
        let got: Vec<(StridedInterval, bool)> = t.iter().map(|(_, iv, &w)| (*iv, w)).collect();
        assert_eq!(got, expect);
        let reads: Vec<bool> = t.nodes().iter().map(Node::is_read).collect();
        assert_eq!(reads, [false, true, false, true]);
        assert_eq!(t.write_bounds(), Some((0x1000, 0x3000 + 2 * (1 << 23) + 8)));
    }

    #[test]
    fn candidate_pairs_require_exact_check() {
        // Figure 4: interleaved stride-8 size-4 accesses. Range overlap
        // yields a candidate, exact check rejects it.
        let mut a = IntervalTree::new();
        a.insert(iv(10, 8, 4, 4), ());
        let mut b = IntervalTree::new();
        b.insert(iv(14, 8, 4, 4), ());
        let mut overlaps = Vec::new();
        for_each_candidate_pair_fp(&a, &b, |ia, _, _, ib, _, _| {
            overlaps.push(solve_tiered(ia, ib, true).0);
        });
        assert_eq!(overlaps, [None], "one candidate, no shared byte");
    }

    #[test]
    fn empty_tree_queries() {
        let t: IntervalTree<()> = IntervalTree::new();
        assert!(t.is_empty());
        assert!(t.range_overlaps(0, u64::MAX).is_empty());
        t.assert_invariants();
        assert_eq!(t.iter().count(), 0);
    }

    #[test]
    fn duplicate_begin_addresses() {
        let mut t = IntervalTree::new();
        for i in 0..10 {
            t.insert(iv(100, 0, 0, 4), i);
        }
        t.assert_invariants();
        assert_eq!(t.range_overlaps(100, 101).len(), 10);
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    fn arb_iv() -> impl Strategy<Value = StridedInterval> {
        (0u64..500, 0u64..20, 0u64..10, 1u64..9)
            .prop_map(|(b, st, c, sz)| StridedInterval::new(b, st, c, sz))
    }

    fn inorder<V: Clone>(t: &IntervalTree<V>) -> Vec<(StridedInterval, V)> {
        t.iter().map(|(_, iv, v)| (*iv, v.clone())).collect()
    }

    /// `nodes` with each `(begin, class)` group sorted, after checking
    /// that the groups come in begin order, writes first: what a linked
    /// tree promises, whose ties keep no insertion order.
    fn by_group(
        nodes: &[(StridedInterval, u32)],
        read: impl Fn(&u32) -> bool,
    ) -> Vec<(StridedInterval, u32)> {
        let key = |(iv, v): &(StridedInterval, u32)| (iv.begin(), read(v));
        assert!(nodes.windows(2).all(|w| key(&w[0]) <= key(&w[1])), "(begin, class) order");
        let mut sorted = nodes.to_vec();
        sorted.sort_by_key(|(iv, v)| (iv.begin(), read(v), iv.stride, iv.count, iv.size, *v));
        sorted
    }

    /// One live progression of the reference builder: (index into
    /// `finals`, interval, pending).
    type RefSlot = (usize, StridedInterval, Option<u64>);

    /// The pre-bulk-link builder, kept as the reference `finish()` is
    /// compared against: every node is `insert`ed into the tree the
    /// moment it is created — a fresh progression on arrival, an
    /// unconfirmed pending when its slot retires. Intervals only ever
    /// grow at the tail, so the reference keeps each node's final
    /// interval (and value) in `finals` and the tree holds its index.
    #[derive(Default)]
    struct InsertingBuilder {
        tree: IntervalTree<usize>,
        finals: Vec<(StridedInterval, u32)>,
        /// Per key, in first-use order like the builder's rings.
        rings: Vec<(u32, [Option<RefSlot>; MERGE_HISTORY])>,
    }

    impl InsertingBuilder {
        fn insert_node(&mut self, iv: StridedInterval, value: u32) -> usize {
            self.tree.insert(iv, self.finals.len());
            self.finals.push((iv, value));
            self.finals.len() - 1
        }

        fn insert(&mut self, key: u32, addr: u64, size: u64, value: u32) {
            let ri = self.rings.iter().position(|(k, _)| *k == key).unwrap_or_else(|| {
                self.rings.push((key, [None; MERGE_HISTORY]));
                self.rings.len() - 1
            });
            let ring = &mut self.rings[ri].1;
            for i in 0..MERGE_HISTORY {
                let Some((node, iv, pending)) = ring[i] else { continue };
                if iv.size != size {
                    continue;
                }
                match match_slot(&iv, pending, addr) {
                    SlotMatch::None => continue,
                    SlotMatch::Covered | SlotMatch::PendingRepeat => {}
                    SlotMatch::Extend(extended) => ring[i] = Some((node, extended, None)),
                    SlotMatch::Pend => ring[i] = Some((node, iv, Some(addr))),
                }
                ring[..=i].rotate_right(1);
                return;
            }
            let iv = StridedInterval::single(addr, size);
            let node = self.insert_node(iv, value);
            let ring = &mut self.rings[ri].1;
            let retired = ring[MERGE_HISTORY - 1];
            ring.rotate_right(1);
            ring[0] = Some((node, iv, None));
            if let Some(slot) = retired {
                self.retire(slot);
            }
        }

        fn retire(&mut self, (node, iv, pending): RefSlot) {
            self.finals[node].0 = iv;
            if let Some(p) = pending {
                self.insert_node(StridedInterval::single(p, iv.size), self.finals[node].1);
            }
        }

        /// In-order `(final interval, value)` sequence.
        fn finish(mut self) -> Vec<(StridedInterval, u32)> {
            for (_, ring) in std::mem::take(&mut self.rings) {
                for slot in ring.into_iter().flatten() {
                    self.retire(slot);
                }
            }
            self.tree.assert_invariants();
            self.tree.iter().map(|(_, _, &i)| self.finals[i]).collect()
        }
    }

    /// Runs `stream` through the real builder and the reference. A node
    /// writes when `write_every` divides the stream position of the
    /// access that created it (never when it is 0).
    fn assert_builder_matches_reference(stream: &[(u32, u64, u64)], write_every: u32) {
        let writes = |v: &u32| write_every != 0 && v.is_multiple_of(write_every);
        let mut bulk: SummarizingBuilder<u32, u32> = SummarizingBuilder::new();
        let mut reference = InsertingBuilder::default();
        for (i, &(key, addr, size)) in stream.iter().enumerate() {
            bulk.insert_with(key, addr, size, || i as u32);
            reference.insert(key, addr, size, i as u32);
        }
        let nodes = bulk.node_count();
        let tree = bulk.finish(writes);
        tree.assert_invariants();
        assert!(tree.len() >= nodes, "finish only adds the flushed pendings");
        // The reference's nodes, writes before reads at one begin.
        let mut expect = reference.finish();
        expect.sort_by_key(|(iv, v)| (iv.begin(), !writes(v)));
        let read = |v: &u32| !writes(v);
        assert_eq!(by_group(&inorder(&tree), read), by_group(&expect, read));
        let reads = expect.iter().filter(|(_, v)| !writes(v)).count();
        let split = (tree.len() - reads) * tree::SORT_READS_AT < reads;
        assert_eq!(tree.unsorted_reads(), if split { reads } else { 0 });
    }

    #[test]
    fn finish_matches_inserting_reference_on_pendings_and_equal_begins() {
        let stream = [
            (1, 0x100, 8), // key 1, progression A
            (1, 0x108, 8), // A's pending, never confirmed
            (2, 0x100, 4), // same begin, other key and size
            (1, 0x100, 8), // covered by A: duplicate
            (1, 0x400, 8), // progression B
            (1, 0x100, 4), // other size: progression C retires A → pending 0x108 gets a node
            (1, 0x408, 8), // B's pending…
            (1, 0x410, 8), // …confirmed: B = [0x400, stride 8, ×3)
            (2, 0x108, 4), // key 2 pending, flushed only by finish()
            (1, 0x100, 8), // a second single at 0x100 size 8, after the first in-order
            (3, 0x108, 8), // same begin as the flushed pending, created later
            (1, 0x418, 8), // B's next element, but D is ahead in the ring and pends it
        ];
        // All writes, reads sorted among writes, reads alone.
        for write_every in [1, 2, 0] {
            assert_builder_matches_reference(&stream, write_every);
        }
    }

    #[test]
    fn a_read_heavy_tree_keeps_its_reads_in_insertion_order() {
        // 17 reads per write: one write above the threshold.
        let mut b: SummarizingBuilder<u32, bool> = SummarizingBuilder::new();
        for i in 0..34u64 {
            b.insert_with(1, 0x8000 - i * 64, 8, || false);
        }
        b.insert_with(2, 0x10, 4, || true);
        b.insert_with(2, 0x9000, 4, || true);
        let t = b.finish(|&w| w);
        t.assert_invariants();
        assert_eq!(t.unsorted_reads(), 34);
        let begins: Vec<u64> = t.nodes()[..34].iter().map(|n| n.begin()).collect();
        assert!(begins.windows(2).all(|w| w[0] > w[1]), "insertion order, descending here");
        let all: Vec<u64> = t.iter().map(|(_, iv, _)| iv.begin()).collect();
        assert!(all.windows(2).all(|w| w[0] < w[1]), "iter() sorts them: {all:?}");
        assert_eq!(t.bounds(), Some((0x10, 0x9004)));
        assert_eq!(t.write_bounds(), Some((0x10, 0x9004)));
        // Sixteen reads per write sort.
        let mut b: SummarizingBuilder<u32, bool> = SummarizingBuilder::new();
        for i in 0..32u64 {
            b.insert_with(1, 0x8000 - i * 64, 8, || false);
        }
        b.insert_with(2, 0x10, 4, || true);
        b.insert_with(2, 0x9000, 4, || true);
        assert_eq!(b.finish(|&w| w).unsorted_reads(), 0);
    }

    proptest! {
        #[test]
        fn invariants_after_random_inserts(ivs in prop::collection::vec(arb_iv(), 0..200)) {
            let mut t = IntervalTree::new();
            for iv in &ivs {
                t.insert(*iv, ());
            }
            t.assert_invariants();
            prop_assert_eq!(t.len(), ivs.len());
        }

        #[test]
        fn range_query_matches_bruteforce(
            ivs in prop::collection::vec(arb_iv(), 0..100),
            lo in 0u64..600, width in 0u64..100,
        ) {
            let hi = lo + width;
            let mut t = IntervalTree::new();
            for (i, iv) in ivs.iter().enumerate() {
                t.insert(*iv, i);
            }
            let mut got: Vec<usize> = t.range_overlaps(lo, hi).iter().map(|&h| *t.value(h)).collect();
            got.sort_unstable();
            let mut expect: Vec<usize> = ivs.iter().enumerate()
                .filter(|(_, iv)| iv.begin() < hi && lo < iv.end())
                .map(|(i, _)| i)
                .collect();
            expect.sort_unstable();
            prop_assert_eq!(got, expect);
        }

        #[test]
        fn bulk_link_equals_inserts(
            pool in prop::collection::vec((arb_iv(), 0u32..1000), 2000),
            len in 0usize..=2000,
            queries in prop::collection::vec((0u64..700, 0u64..100), 8),
            later in prop::collection::vec(arb_iv(), 50),
        ) {
            let seq = &pool[..len];
            let mut reference = IntervalTree::new();
            // The builder's usage: a node is pushed as a single access and
            // its tail is extended in place afterwards.
            let (mut nodes, mut wide) = (Vec::new(), Vec::new());
            for &(iv, v) in seq {
                reference.insert(iv, v);
                nodes.push(Node::new(StridedInterval::single(iv.base, iv.size), v, &mut wide));
                nodes.last_mut().unwrap().set_interval(iv, &mut wide);
            }
            let mut bulk = IntervalTree::link(nodes, wide, |_| true);
            bulk.assert_invariants();
            // All writes: one group per begin, in no order inside it.
            let groups = |nodes: &[(StridedInterval, u32)]| by_group(nodes, |_| false);
            prop_assert_eq!(groups(&inorder(&bulk)), groups(&inorder(&reference)));
            let mut by_begin = seq.to_vec();
            by_begin.sort_by_key(|(iv, _)| iv.begin());
            prop_assert_eq!(groups(&inorder(&bulk)), groups(&by_begin));
            let hits = |t: &IntervalTree<u32>, lo, hi| -> Vec<(StridedInterval, u32)> {
                let hits: Vec<_> =
                    t.range_overlaps(lo, hi).iter().map(|&h| (t.interval(h), *t.value(h))).collect();
                groups(&hits)
            };
            for &(lo, width) in &queries {
                prop_assert_eq!(hits(&bulk, lo, lo + width), hits(&reference, lo, lo + width));
            }
            prop_assert_eq!(bulk.bounds(), reference.bounds());
            // A linked tree takes inserts like any other.
            for (i, iv) in later.iter().enumerate() {
                bulk.insert(*iv, i as u32);
                reference.insert(*iv, i as u32);
            }
            bulk.assert_invariants();
            prop_assert_eq!(groups(&inorder(&bulk)), groups(&inorder(&reference)));
        }

        #[test]
        fn finish_matches_inserting_reference(
            // Few keys, two sizes, addresses on a coarse grid: progressions
            // interleave, pendings go unconfirmed, singles share begins.
            stream in prop::collection::vec(
                (0u32..3, (0u64..24).prop_map(|a| 0x100 + a * 4), prop::sample::select(vec![4u64, 8])),
                0..300,
            ),
            // All writes, reads sorted among writes, reads kept unsorted
            // (few writes), no writes.
            write_every in prop::sample::select(vec![1u32, 2, 7, 40, 0]),
        ) {
            assert_builder_matches_reference(&stream, write_every);
        }

        #[test]
        fn builder_never_loses_accesses(
            // stream of (key, start, step-kind) runs
            runs in prop::collection::vec((0u32..4, 0u64..200, 1u64..16, 1u64..20), 1..20),
        ) {
            let mut b: SummarizingBuilder<u32, ()> = SummarizingBuilder::new();
            let mut oracle: Vec<(u64, u64)> = Vec::new(); // (addr, size)
            for (key, start, stride, n) in runs {
                for i in 0..n {
                    let addr = start + i * stride;
                    b.insert_with(key, addr, 4, || ());
                    oracle.push((addr, 4));
                }
            }
            // Reads alone: the range query scans them unsorted.
            let t = b.finish(|_| false);
            t.assert_invariants();
            // Every oracle access address is covered by some tree interval.
            for (addr, size) in oracle {
                for byte in addr..addr + size {
                    let covered = t.range_overlaps(byte, byte + 1).iter().any(|&h| {
                        t.interval(h).contains(byte)
                    });
                    prop_assert!(covered, "byte {} not covered", byte);
                }
            }
        }

        #[test]
        fn builder_summarization_is_sound(
            start in 0u64..100, stride in 1u64..32, n in 1u64..200,
        ) {
            // A pure arithmetic progression collapses to one node once the
            // stride is confirmed (n ≥ 3); shorter runs flush to at most
            // two singles. Every generated address stays covered.
            let mut b: SummarizingBuilder<(), ()> = SummarizingBuilder::new();
            for i in 0..n {
                b.insert_with((), start + i * stride, 4, || ());
            }
            let t = b.finish(|_| true);
            if n >= 3 {
                prop_assert_eq!(t.len(), 1);
                let (_, iv, _) = t.iter().next().unwrap();
                prop_assert_eq!(iv.len(), n);
            } else {
                prop_assert!(t.len() as u64 <= n);
            }
            for i in 0..n {
                let addr = start + i * stride;
                let covered = t
                    .range_overlaps(addr, addr + 1)
                    .iter()
                    .any(|&h| t.interval(h).contains(addr));
                prop_assert!(covered, "element {} uncovered", i);
            }
        }
    }
}
