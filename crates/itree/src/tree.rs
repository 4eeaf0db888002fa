//! The static summary tree.
//!
//! A summary tree is built once and then only queried, so it needs no
//! links: it is a node slice plus a few tree-wide fields. Every node has a
//! class. A *write* meets every node of another tree; a *read* meets only
//! writes, since two reads never race. The slice has two parts:
//!
//! * `nodes[..unsorted]`: reads in insertion order. A tree keeps its reads
//!   here when they outnumber its writes more than [`SORT_READS_AT`]
//!   times. Sorting them would be most of the build, and a compare meets
//!   few of them: it filters them against the other tree's writes and
//!   sorts only the survivors.
//! * `nodes[unsorted..]`, the *run*: every other node, sorted by
//!   `(begin, class, insertion index)` with writes before reads at one
//!   begin. A tree that keeps reads unsorted sorts only writes.
//!
//! A range query is a binary search on the run bounded below by the
//! longest span, plus a scan of the unsorted reads. Two trees are joined
//! by one merge sweep (see [`crate::for_each_candidate_pair_fp`]).

use std::ops::Range;

use sword_solver::{Fingerprint, StridedInterval};

/// [`Node::fp`] bit of a read.
pub(crate) const READ: u32 = 1 << 31;

/// [`Node::fp`] bits of the packed fingerprint. All of them set stands
/// for [`Fingerprint::pack`]'s overflow value, `u32::MAX`.
const FP_BITS: u32 = READ - 1;

/// A tree sorts its reads with its writes unless they outnumber the
/// writes more than this many times.
pub(crate) const SORT_READS_AT: usize = 16;

#[derive(Clone, Debug)]
pub(crate) struct Node<V> {
    pub interval: StridedInterval,
    pub value: V,
    /// The node's class ([`READ`]) and, in the other 31 bits, the packed
    /// stride-class fingerprint of `interval` (see [`Fingerprint::pack`]),
    /// so the candidate sweep can run the congruence pre-screen without
    /// re-dividing. It rides in the node's padding. While
    /// [`IntervalTree::link`] sorts, the low bits hold the node's
    /// insertion index instead.
    pub fp: u32,
}

impl<V> Node<V> {
    /// A write node with its interval's fingerprint.
    pub(crate) fn new(interval: StridedInterval, value: V) -> Self {
        Node { interval, value, fp: pack(&interval) }
    }

    /// `true` for a read: it meets only writes.
    #[inline]
    pub(crate) fn is_read(&self) -> bool {
        self.fp & READ != 0
    }

    /// The interval's stride-class fingerprint.
    #[inline]
    pub(crate) fn fingerprint(&self) -> Fingerprint {
        let packed = self.fp & FP_BITS;
        Fingerprint::unpack(if packed == FP_BITS { u32::MAX } else { packed }, &self.interval)
    }
}

/// `iv`'s packed fingerprint in [`FP_BITS`]: phases that do not fit read
/// as the overflow value, which unpacks by recomputing.
fn pack(iv: &StridedInterval) -> u32 {
    Fingerprint::of(iv).pack().min(FP_BITS)
}

/// The tree-wide fields, over the nodes [`Extent::add`] was given. A box
/// is `(smallest begin, largest end)`, `(u64::MAX, 0)` while empty: a
/// node's end is past its begin, so a box of nodes has `lo < hi`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
struct Extent {
    /// The box of all nodes.
    all: (u64, u64),
    /// The box of the writes.
    writes: (u64, u64),
    /// Longest `end() - begin()` of any node; 0 when empty.
    max_span: u64,
}

const EMPTY: (u64, u64) = (u64::MAX, 0);

impl Default for Extent {
    fn default() -> Self {
        Extent { all: EMPTY, writes: EMPTY, max_span: 0 }
    }
}

impl Extent {
    fn add<V>(&mut self, node: &Node<V>) {
        let (b, e) = (node.interval.begin(), node.interval.end());
        let widen = |(lo, hi): (u64, u64)| (lo.min(b), hi.max(e));
        self.all = widen(self.all);
        if !node.is_read() {
            self.writes = widen(self.writes);
        }
        self.max_span = self.max_span.max(e - b);
    }
}

/// Node bytes below which [`fit`] moves a tree's nodes instead of
/// shrinking their array in place.
const MOVE_BELOW_BYTES: usize = 64 << 10;

/// `nodes` without spare capacity. A large array shrinks in place: a copy
/// would hold the tree twice. A small one moves to an array of its own
/// size, since shrinking in place keeps it in whatever its builder
/// reserved — page-mapped when that was a large log's bound, a few
/// hundred nodes rounded up to whole pages in every held tree.
fn fit<V>(mut nodes: Vec<Node<V>>) -> Vec<Node<V>> {
    if nodes.capacity() > nodes.len() && std::mem::size_of_val(nodes.as_slice()) < MOVE_BELOW_BYTES
    {
        let mut exact = Vec::with_capacity(nodes.len());
        exact.append(&mut nodes);
        return exact;
    }
    nodes.shrink_to_fit();
    nodes
}

/// `Some` box unless it is empty.
fn boxed((lo, hi): (u64, u64)) -> Option<(u64, u64)> {
    (lo < hi).then_some((lo, hi))
}

/// A static interval multimap from [`StridedInterval`]s to values, each
/// a write or a read (see the module docs).
///
/// Duplicate begin addresses are allowed. Nodes are never removed: a
/// summary tree is built once and then only queried.
#[derive(Clone, Debug)]
pub struct IntervalTree<V> {
    /// Unsorted reads, then the run (see the module docs).
    nodes: Vec<Node<V>>,
    /// How many reads lead `nodes` in insertion order.
    unsorted: usize,
    extent: Extent,
}

/// Handle to a node in an [`IntervalTree`]: its position in the tree's
/// node slice. An [`IntervalTree::insert`] shifts every later position by
/// one, so a handle held across one may name another node. A handle a
/// [`SummarizingBuilder`] returns while building names a node of the
/// *build*, not of the finished tree — [`SummarizingBuilder::finish`]
/// reorders the nodes and invalidates it.
///
/// [`SummarizingBuilder`]: crate::SummarizingBuilder
/// [`SummarizingBuilder::finish`]: crate::SummarizingBuilder::finish
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct NodeRef(pub(crate) u32);

impl<V> Default for IntervalTree<V> {
    fn default() -> Self {
        Self::new()
    }
}

impl<V> IntervalTree<V> {
    /// Creates an empty tree.
    pub fn new() -> Self {
        Self::with_capacity(0)
    }

    /// Creates an empty tree with room for `cap` nodes.
    pub fn with_capacity(cap: usize) -> Self {
        IntervalTree { nodes: Vec::with_capacity(cap), unsorted: 0, extent: Extent::default() }
    }

    /// Number of intervals stored.
    #[inline]
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// `true` when no intervals are stored.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// How many reads the tree keeps out of begin order (see the module
    /// docs); 0 when its reads are sorted with its writes.
    pub fn unsorted_reads(&self) -> usize {
        self.unsorted
    }

    /// Bytes held by the node slice — used by the memory accounting that
    /// feeds the paper's overhead tables.
    pub fn arena_bytes(&self) -> usize {
        self.nodes.capacity() * std::mem::size_of::<Node<V>>()
    }

    /// The interval stored at `handle`.
    #[inline]
    pub fn interval(&self, handle: NodeRef) -> &StridedInterval {
        &self.nodes[handle.0 as usize].interval
    }

    /// The value stored at `handle`.
    #[inline]
    pub fn value(&self, handle: NodeRef) -> &V {
        &self.nodes[handle.0 as usize].value
    }

    /// The bounding box of all stored intervals: the smallest begin and the
    /// largest end, or `None` for an empty tree. O(1).
    pub fn bounds(&self) -> Option<(u64, u64)> {
        boxed(self.extent.all)
    }

    /// The bounding box of the writes, or `None` when the tree has none.
    /// O(1).
    pub fn write_bounds(&self) -> Option<(u64, u64)> {
        boxed(self.extent.writes)
    }

    /// Every node: the unsorted reads, then the run.
    #[inline]
    pub(crate) fn nodes(&self) -> &[Node<V>] {
        &self.nodes
    }

    /// Positions of the run in [`IntervalTree::nodes`].
    #[inline]
    pub(crate) fn run(&self) -> Range<usize> {
        self.unsorted..self.nodes.len()
    }

    /// Makes a tree of `nodes` — given in insertion order, their `fp`
    /// arbitrary — whose node is a write where `is_write` says so, in
    /// place: the insertion index and class ride in `fp` while the sort
    /// runs (a side array of keys would cost 16 B per node at the
    /// analyzer's memory peak). A read-heavy tree first moves its reads,
    /// in order, to the front. Then fills `fp` and the tree-wide fields,
    /// and gives back the builder's spare capacity (see [`fit`]).
    pub(crate) fn link(mut nodes: Vec<Node<V>>, is_write: impl Fn(&V) -> bool) -> Self {
        assert!(nodes.len() <= READ as usize, "interval tree node capacity exceeded");
        let mut reads = 0;
        for (i, node) in nodes.iter_mut().enumerate() {
            let read = !is_write(&node.value);
            reads += usize::from(read);
            node.fp = i as u32 | if read { READ } else { 0 };
        }
        let writes = nodes.len() - reads;
        let unsorted = if writes.saturating_mul(SORT_READS_AT) >= reads {
            0
        } else {
            // Each read swaps with the first write behind the reads
            // already moved: the reads keep their order, and the writes'
            // is restored from `fp` by the sort.
            let mut front = 0;
            for k in 0..nodes.len() {
                if nodes[k].is_read() {
                    nodes.swap(front, k);
                    front += 1;
                }
            }
            reads
        };
        nodes[unsorted..].sort_unstable_by_key(|n| (n.interval.begin(), n.fp));
        let mut extent = Extent::default();
        for node in &mut nodes {
            node.fp = pack(&node.interval) | (node.fp & READ);
            extent.add(node);
        }
        IntervalTree { nodes: fit(nodes), unsorted, extent }
    }

    /// Inserts a write with its value into the run, after every node of a
    /// smaller begin and every write of an equal one; returns its
    /// position. An append when begins arrive in order, O(n) otherwise —
    /// the shipped build never inserts (it links, see
    /// [`crate::SummarizingBuilder::finish`]).
    pub fn insert(&mut self, interval: StridedInterval, value: V) -> NodeRef {
        assert!(self.nodes.len() < READ as usize, "interval tree node capacity exceeded");
        let begin = interval.begin();
        let goes_after = |n: &Node<V>| {
            let b = n.interval.begin();
            b < begin || b == begin && !n.is_read()
        };
        let run = &self.nodes[self.run()];
        let at = match run.last() {
            Some(last) if !goes_after(last) => self.unsorted + run.partition_point(goes_after),
            _ => self.nodes.len(),
        };
        let node = Node::new(interval, value);
        self.extent.add(&node);
        self.nodes.insert(at, node);
        NodeRef(at as u32)
    }

    /// `run` merged with the unsorted reads at `reads`, which are in
    /// `(begin, position)` order: the positions of both in the tree's
    /// begin order.
    pub(crate) fn in_order(&self, run: Range<usize>, reads: Vec<u32>) -> InOrder<'_, V> {
        InOrder { nodes: &self.nodes, run, reads, next: 0 }
    }

    /// The positions of the unsorted reads `keep` admits, in
    /// `(begin, position)` order. Sorted as keys beside the nodes, which
    /// a sort through the positions would visit at random.
    pub(crate) fn sorted_reads(&self, mut keep: impl FnMut(&StridedInterval) -> bool) -> Vec<u32> {
        let mut keys: Vec<(u64, u32)> = (self.nodes[..self.unsorted].iter().enumerate())
            .filter(|(_, n)| keep(&n.interval))
            .map(|(k, n)| (n.interval.begin(), k as u32))
            .collect();
        keys.sort_unstable();
        keys.into_iter().map(|(_, k)| k).collect()
    }

    /// The union of the writes' `[begin, end)` ranges as disjoint ranges
    /// in ascending order.
    pub(crate) fn write_cover(&self) -> Vec<(u64, u64)> {
        let mut cover: Vec<(u64, u64)> = Vec::new();
        for n in self.nodes[self.run()].iter().filter(|n| !n.is_read()) {
            let (b, e) = (n.interval.begin(), n.interval.end());
            match cover.last_mut() {
                Some((_, hi)) if b <= *hi => *hi = (*hi).max(e),
                _ => cover.push((b, e)),
            }
        }
        cover
    }

    /// Iterates all nodes in ascending begin order, writes before reads
    /// at one begin.
    pub fn iter(&self) -> impl ExactSizeIterator<Item = (NodeRef, &StridedInterval, &V)> + '_ {
        self.in_order(self.run(), self.sorted_reads(|_| true)).map(|i| {
            let n = &self.nodes[i];
            (NodeRef(i as u32), &n.interval, &n.value)
        })
    }

    /// Visits, in the order of [`IntervalTree::iter`], every stored
    /// interval whose `[begin, end)` range overlaps `[lo, hi)`. Only run
    /// nodes that begin in `[lo - max_span, hi)` can, and those are one
    /// binary search away; the unsorted reads are scanned.
    pub fn for_each_range_overlap<F: FnMut(NodeRef, &StridedInterval, &V)>(
        &self,
        lo: u64,
        hi: u64,
        mut f: F,
    ) {
        let overlaps = |iv: &StridedInterval| iv.begin() < hi && lo < iv.end();
        let from = lo.saturating_sub(self.extent.max_span);
        let run = &self.nodes[self.run()];
        let first = self.unsorted + run.partition_point(|n| n.interval.begin() < from);
        let last = self.unsorted + run.partition_point(|n| n.interval.begin() < hi);
        for i in self.in_order(first..last, self.sorted_reads(overlaps)) {
            let n = &self.nodes[i];
            if overlaps(&n.interval) {
                f(NodeRef(i as u32), &n.interval, &n.value);
            }
        }
    }

    /// Returns handles of all stored intervals overlapping `[lo, hi)`.
    pub fn range_overlaps(&self, lo: u64, hi: u64) -> Vec<NodeRef> {
        let mut out = Vec::new();
        self.for_each_range_overlap(lo, hi, |h, _, _| out.push(h));
        out
    }

    /// Verifies the layout, the order and the cached fields; panics with
    /// a description on violation. Exposed (not `cfg(test)`) so
    /// integration and property tests in dependent crates can call it.
    pub fn assert_invariants(&self) {
        let (unsorted, run) = self.nodes.split_at(self.unsorted);
        assert!(unsorted.iter().all(Node::is_read), "a write among the unsorted reads");
        assert!(unsorted.is_empty() || run.iter().all(|n| !n.is_read()), "reads in two places");
        for (i, pair) in run.windows(2).enumerate() {
            let key = |n: &Node<V>| (n.interval.begin(), n.is_read());
            assert!(
                key(&pair[0]) <= key(&pair[1]),
                "run order broken at {}",
                self.unsorted + i + 1
            );
        }
        let mut extent = Extent::default();
        for (i, n) in self.nodes.iter().enumerate() {
            assert_eq!(n.fp & FP_BITS, pack(&n.interval), "fingerprint stale at {i}");
            extent.add(n);
        }
        assert_eq!(self.extent, extent, "tree-wide fields stale");
    }
}

/// The positions of a run range merged with sorted unsorted reads, in
/// begin order; a run node goes first at an equal begin (where there are
/// unsorted reads, the run holds only writes).
pub(crate) struct InOrder<'t, V> {
    nodes: &'t [Node<V>],
    run: Range<usize>,
    reads: Vec<u32>,
    next: usize,
}

impl<V> Iterator for InOrder<'_, V> {
    type Item = usize;

    fn next(&mut self) -> Option<usize> {
        let read = self.reads.get(self.next).map(|&k| k as usize);
        let take_run = match (self.run.start < self.run.end, read) {
            (true, Some(r)) => {
                self.nodes[self.run.start].interval.begin() <= self.nodes[r].interval.begin()
            }
            (run_left, _) => run_left,
        };
        if take_run {
            self.run.next()
        } else {
            self.next += 1;
            read
        }
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let n = self.run.len() + self.reads.len() - self.next;
        (n, Some(n))
    }
}

impl<V> ExactSizeIterator for InOrder<'_, V> {}

#[cfg(test)]
mod tests {
    use super::*;

    /// `len` nodes in an array with room for `cap`.
    fn reserved(cap: usize, len: u64) -> Vec<Node<()>> {
        let mut nodes = Vec::with_capacity(cap);
        nodes.extend((0..len).map(|i| Node::new(StridedInterval::single(i * 64, 8), ())));
        nodes
    }

    #[test]
    fn fit_moves_a_small_tree_and_shrinks_a_large_one() {
        let small = reserved(1 << 16, 3);
        let at = small.as_ptr();
        let small = fit(small);
        assert_eq!((small.len(), small.capacity()), (3, 3));
        assert_ne!(small.as_ptr(), at, "a small tree leaves its reservation");
        let large = fit(reserved(1 << 16, 4000));
        assert!(std::mem::size_of_val(large.as_slice()) >= MOVE_BELOW_BYTES);
        assert_eq!((large.len(), large.capacity()), (4000, 4000));
    }
}
