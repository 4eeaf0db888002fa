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
//!   `(begin, class)` with writes before reads at one begin. Nodes of one
//!   begin and class keep no particular order among themselves. A tree
//!   that keeps reads unsorted sorts only writes.
//!
//! A range query is a binary search on the run bounded below by the
//! longest span, plus a scan of the unsorted reads. Two trees are joined
//! by one merge sweep (see [`crate::for_each_candidate_pair_fp`]).

use std::ops::{Deref, Range};

use sword_solver::StridedInterval;

/// A tree holds fewer nodes than this: the candidate sweep tags a node's
/// position with its class in the bit above.
pub(crate) const MAX_NODES: usize = 1 << 31;

/// A tree sorts its reads with its writes unless they outnumber the
/// writes more than this many times.
pub(crate) const SORT_READS_AT: usize = 16;

/// Bits of [`Node::stride_size`] that hold a narrow node's stride.
const STRIDE_BITS: u32 = 23;

const STRIDE_MASK: u32 = (1 << STRIDE_BITS) - 1;

/// [`Node::stride_size`] bit of a read, narrow or wide.
const READ: u32 = 1 << STRIDE_BITS;

/// Where a narrow node's size begins in [`Node::stride_size`]: it takes
/// the 8 bits above [`READ`].
const SIZE_SHIFT: u32 = STRIDE_BITS + 1;

/// A summary-tree node: 24 B with the analyzer's 8-byte `AccessMeta` as
/// its value. The interval is packed. A *narrow* node, which is every
/// node the analyzer builds from a log, holds the interval itself: a
/// `count` below 2³², a stride below 2²³ and a size in `1..256`. Any
/// other interval is *wide*: it goes to its tree's wide list, and its
/// node keeps the base and the interval's position there, with size 0
/// as the marker. The base is always in the node, so the sort and the
/// sweep's begin order never read the wide list.
#[derive(Clone, Debug)]
pub(crate) struct Node<V> {
    /// The interval's first byte.
    base: u64,
    /// A narrow node's `count`; a wide node's position in the wide list.
    count: u32,
    /// The node's class in the [`READ`] bit; a narrow node's stride in
    /// the [`STRIDE_BITS`] below it and its size in the 8 above it (0 in
    /// a wide node).
    stride_size: u32,
    pub value: V,
}

/// `iv` as a narrow node's `(count, stride_size)`, a write's, if it is
/// narrow.
#[inline]
fn narrow(iv: &StridedInterval) -> Option<(u32, u32)> {
    let count = u32::try_from(iv.count).ok()?;
    let fits = iv.stride <= u64::from(STRIDE_MASK) && (1..256).contains(&iv.size);
    fits.then_some((count, iv.stride as u32 | (iv.size as u32) << SIZE_SHIFT))
}

/// Appends `iv` to `wide`: a wide write's `(count, stride_size)`.
#[cold]
fn widen(iv: StridedInterval, wide: &mut Vec<StridedInterval>) -> (u32, u32) {
    let at = u32::try_from(wide.len()).expect("fewer than 2^32 wide nodes");
    wide.push(iv);
    (at, 0)
}

impl<V> Node<V> {
    /// A write node; a wide interval goes to `wide`.
    pub(crate) fn new(iv: StridedInterval, value: V, wide: &mut Vec<StridedInterval>) -> Self {
        let (count, stride_size) = narrow(&iv).unwrap_or_else(|| widen(iv, wide));
        Node { base: iv.base, count, stride_size, value }
    }

    /// Makes `iv`, which begins where the node does, the node's interval:
    /// the builder's retire, where a progression's node takes its final
    /// extent. A wide node keeps its place in `wide`; the class stays.
    pub(crate) fn set_interval(&mut self, iv: StridedInterval, wide: &mut Vec<StridedInterval>) {
        debug_assert_eq!(iv.base, self.base, "a node's begin never moves");
        if self.is_wide() {
            wide[self.count as usize] = iv;
        } else {
            let (count, stride_size) = narrow(&iv).unwrap_or_else(|| widen(iv, wide));
            (self.count, self.stride_size) = (count, stride_size | self.stride_size & READ);
        }
    }

    /// `true` for a wide node, whose interval is in the wide list.
    #[inline]
    pub(crate) fn is_wide(&self) -> bool {
        self.stride_size >> SIZE_SHIFT == 0
    }

    /// The interval's first byte.
    #[inline]
    pub(crate) fn begin(&self) -> u64 {
        self.base
    }

    /// The node's interval; `wide` is its tree's wide list.
    #[inline]
    pub(crate) fn interval(&self, wide: &[StridedInterval]) -> StridedInterval {
        if self.is_wide() {
            return wide[self.count as usize];
        }
        StridedInterval {
            base: self.base,
            stride: u64::from(self.stride_size & STRIDE_MASK),
            count: u64::from(self.count),
            size: u64::from(self.stride_size >> SIZE_SHIFT),
        }
    }

    /// One past the interval's last byte.
    #[inline]
    pub(crate) fn end(&self, wide: &[StridedInterval]) -> u64 {
        self.interval(wide).end()
    }

    /// `true` for a read: it meets only writes.
    #[inline]
    pub(crate) fn is_read(&self) -> bool {
        self.stride_size & READ != 0
    }
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
    fn add(&mut self, iv: &StridedInterval, read: bool) {
        let (b, e) = (iv.begin(), iv.end());
        let widen = |(lo, hi): (u64, u64)| (lo.min(b), hi.max(e));
        self.all = widen(self.all);
        if !read {
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
    /// The wide nodes' intervals, at the positions the nodes hold (see
    /// [`Node`]). Empty in every tree built from a log.
    wide: Vec<StridedInterval>,
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

/// A node's interval as [`IntervalTree::iter`] yields it: unpacked from
/// the node, and a [`StridedInterval`] through `Deref`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct NodeInterval(StridedInterval);

impl Deref for NodeInterval {
    type Target = StridedInterval;

    #[inline]
    fn deref(&self) -> &StridedInterval {
        &self.0
    }
}

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
        IntervalTree {
            nodes: Vec::with_capacity(cap),
            wide: Vec::new(),
            unsorted: 0,
            extent: Extent::default(),
        }
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

    /// How many nodes hold an interval too wide to pack (see the
    /// crate-private `Node`): a `count` of 2³² or more, a stride of 2²³
    /// or more, or a size outside `1..256`. The analyzer's builds make
    /// none: strides stay within its stride bound and sizes fit a byte.
    pub fn wide_nodes(&self) -> usize {
        self.wide.len()
    }

    /// Bytes held by the node slice and the wide list — used by the
    /// memory accounting that feeds the paper's overhead tables.
    pub fn arena_bytes(&self) -> usize {
        self.nodes.capacity() * std::mem::size_of::<Node<V>>()
            + self.wide.capacity() * std::mem::size_of::<StridedInterval>()
    }

    /// The interval stored at `handle`.
    #[inline]
    pub fn interval(&self, handle: NodeRef) -> StridedInterval {
        self.nodes[handle.0 as usize].interval(&self.wide)
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

    /// The wide nodes' intervals, which [`Node::interval`] reads.
    #[inline]
    pub(crate) fn wide(&self) -> &[StridedInterval] {
        &self.wide
    }

    /// Positions of the run in [`IntervalTree::nodes`].
    #[inline]
    pub(crate) fn run(&self) -> Range<usize> {
        self.unsorted..self.nodes.len()
    }

    /// Makes a tree of `nodes` — given in insertion order, their wide
    /// intervals in `wide` — whose node is a write where `is_write` says
    /// so, in place: a read-heavy tree first moves its reads, in order,
    /// to the front, and the run is sorted by `(begin, class)` alone (a
    /// side array of insertion indices would cost more bytes per node
    /// than a node at the analyzer's memory peak). Then gives back the
    /// builder's spare capacity (see [`fit`]).
    pub(crate) fn link(
        mut nodes: Vec<Node<V>>,
        mut wide: Vec<StridedInterval>,
        is_write: impl Fn(&V) -> bool,
    ) -> Self {
        assert!(nodes.len() <= MAX_NODES, "interval tree node capacity exceeded");
        let (mut reads, mut extent) = (0, Extent::default());
        for node in &mut nodes {
            let read = !is_write(&node.value);
            reads += usize::from(read);
            node.stride_size = node.stride_size & !READ | (u32::from(read) * READ);
            extent.add(&node.interval(&wide), read);
        }
        let writes = nodes.len() - reads;
        let unsorted = if writes.saturating_mul(SORT_READS_AT) >= reads {
            0
        } else {
            // Each read swaps with the first write behind the reads
            // already moved: the reads keep their order.
            let mut front = 0;
            for k in 0..nodes.len() {
                if nodes[k].is_read() {
                    nodes.swap(front, k);
                    front += 1;
                }
            }
            reads
        };
        nodes[unsorted..].sort_unstable_by_key(|n| (n.begin(), n.is_read()));
        wide.shrink_to_fit();
        IntervalTree { nodes: fit(nodes), wide, unsorted, extent }
    }

    /// Inserts a write with its value into the run, after every node of a
    /// smaller begin and every write of an equal one; returns its
    /// position. An append when begins arrive in order, O(n) otherwise —
    /// the shipped build never inserts (it links, see
    /// [`crate::SummarizingBuilder::finish`]).
    pub fn insert(&mut self, interval: StridedInterval, value: V) -> NodeRef {
        assert!(self.nodes.len() < MAX_NODES, "interval tree node capacity exceeded");
        let begin = interval.begin();
        let goes_after = |n: &Node<V>| n.begin() < begin || n.begin() == begin && !n.is_read();
        let run = &self.nodes[self.run()];
        let at = match run.last() {
            Some(last) if !goes_after(last) => self.unsorted + run.partition_point(goes_after),
            _ => self.nodes.len(),
        };
        let node = Node::new(interval, value, &mut self.wide);
        self.extent.add(&interval, false);
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
            .filter(|(_, n)| keep(&n.interval(&self.wide)))
            .map(|(k, n)| (n.begin(), k as u32))
            .collect();
        keys.sort_unstable();
        keys.into_iter().map(|(_, k)| k).collect()
    }

    /// The union of the writes' `[begin, end)` ranges as disjoint ranges
    /// in ascending order.
    pub(crate) fn write_cover(&self) -> Vec<(u64, u64)> {
        let mut cover: Vec<(u64, u64)> = Vec::new();
        for n in self.nodes[self.run()].iter().filter(|n| !n.is_read()) {
            let (b, e) = (n.begin(), n.end(&self.wide));
            match cover.last_mut() {
                Some((_, hi)) if b <= *hi => *hi = (*hi).max(e),
                _ => cover.push((b, e)),
            }
        }
        cover
    }

    /// Iterates all nodes in ascending begin order, writes before reads
    /// at one begin.
    pub fn iter(&self) -> impl ExactSizeIterator<Item = (NodeRef, NodeInterval, &V)> + '_ {
        self.in_order(self.run(), self.sorted_reads(|_| true)).map(|i| {
            let n = &self.nodes[i];
            (NodeRef(i as u32), NodeInterval(n.interval(&self.wide)), &n.value)
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
        let first = self.unsorted + run.partition_point(|n| n.begin() < from);
        let last = self.unsorted + run.partition_point(|n| n.begin() < hi);
        for i in self.in_order(first..last, self.sorted_reads(overlaps)) {
            let n = &self.nodes[i];
            let iv = n.interval(&self.wide);
            if overlaps(&iv) {
                f(NodeRef(i as u32), &iv, &n.value);
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
            let key = |n: &Node<V>| (n.begin(), n.is_read());
            assert!(
                key(&pair[0]) <= key(&pair[1]),
                "run order broken at {}",
                self.unsorted + i + 1
            );
        }
        let mut extent = Extent::default();
        let mut wide: Vec<u32> = Vec::new();
        for (i, n) in self.nodes.iter().enumerate() {
            let iv = n.interval(&self.wide);
            assert_eq!(iv.base, n.begin(), "wide interval of another begin at {i}");
            if n.is_wide() {
                assert!(narrow(&iv).is_none(), "a narrow interval in the wide list at {i}");
                wide.push(n.count);
            }
            extent.add(&iv, n.is_read());
        }
        wide.sort_unstable();
        assert!(wide.iter().copied().eq(0..self.wide.len() as u32), "wide list not one per node");
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
            (true, Some(r)) => self.nodes[self.run.start].begin() <= self.nodes[r].begin(),
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
        let wide = &mut Vec::new();
        nodes.extend((0..len).map(|i| Node::new(StridedInterval::single(i * 64, 8), (), wide)));
        nodes
    }

    #[test]
    fn fit_moves_a_small_tree_and_shrinks_a_large_one() {
        let small = reserved(1 << 16, 3);
        let at = small.as_ptr();
        let small = fit(small);
        assert_eq!((small.len(), small.capacity()), (3, 3));
        assert_ne!(small.as_ptr(), at, "a small tree leaves its reservation");
        let large = fit(reserved(1 << 16, 5000));
        assert!(std::mem::size_of_val(large.as_slice()) >= MOVE_BELOW_BYTES);
        assert_eq!((large.len(), large.capacity()), (5000, 5000));
    }
}
