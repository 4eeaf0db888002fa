//! The static summary tree.
//!
//! A summary tree is built once and then only queried, so it needs no
//! links: it is the node slice sorted by `(begin, insertion index)`, plus
//! the largest end and the longest span over all nodes. A range query is
//! a binary search on begin bounded below by the longest span, and two
//! trees are joined by one merge sweep over their sorted slices (see
//! [`crate::for_each_candidate_pair`]).

use sword_solver::{Fingerprint, StridedInterval};

#[derive(Clone, Debug)]
pub(crate) struct Node<V> {
    pub interval: StridedInterval,
    pub value: V,
    /// Packed stride-class fingerprint of `interval` (see
    /// [`Fingerprint::pack`]), so the candidate sweep can run the
    /// congruence pre-screen without re-dividing. Packed to 32 bits so it
    /// rides in the node's padding. While [`IntervalTree::link`] sorts, it
    /// holds the node's insertion index instead.
    pub fp: u32,
}

impl<V> Node<V> {
    /// A node with its interval's fingerprint.
    pub(crate) fn new(interval: StridedInterval, value: V) -> Self {
        Node { interval, value, fp: Fingerprint::of(&interval).pack() }
    }
}

/// A static interval multimap from [`StridedInterval`]s to values,
/// ordered by begin address.
///
/// Duplicate begin addresses are allowed (a later insert sorts after the
/// earlier ones). Nodes are never removed: a summary tree is built once
/// and then only queried.
#[derive(Clone, Debug)]
pub struct IntervalTree<V> {
    /// Sorted by `(begin, insertion index)`.
    nodes: Vec<Node<V>>,
    /// Largest `end()` of any node; 0 when empty.
    max_end: u64,
    /// Longest `end() - begin()` of any node; 0 when empty.
    max_span: u64,
}

/// Handle to a node in an [`IntervalTree`]: its position in begin order.
/// An [`IntervalTree::insert`] whose begin sorts before existing nodes
/// shifts every later position by one, so a handle held across such an
/// insert names another node. A handle a [`SummarizingBuilder`] returns
/// while building names a node of the *build*, not of the finished tree
/// — [`SummarizingBuilder::finish`] reorders the nodes and invalidates it.
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
        IntervalTree { nodes: Vec::with_capacity(cap), max_end: 0, max_span: 0 }
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
        self.nodes.first().map(|n| (n.interval.begin(), self.max_end))
    }

    /// The nodes in `(begin, insertion index)` order.
    #[inline]
    pub(crate) fn nodes(&self) -> &[Node<V>] {
        &self.nodes
    }

    /// Makes a tree of `nodes` — given in insertion order, their `fp`
    /// arbitrary — ordered as inserting them one by one would have, in
    /// place: the insertion index rides in `fp` while the sort runs (a
    /// side array of keys would cost 16 B per node at the analyzer's
    /// memory peak). Then fills `fp` and the tree-wide fields, and gives
    /// back the builder's spare capacity.
    pub(crate) fn link(mut nodes: Vec<Node<V>>) -> Self {
        assert!(nodes.len() <= u32::MAX as usize, "interval tree node capacity exceeded");
        for (i, node) in nodes.iter_mut().enumerate() {
            node.fp = i as u32;
        }
        nodes.sort_unstable_by_key(|n| (n.interval.begin(), n.fp));
        let (mut max_end, mut max_span) = (0, 0);
        for node in &mut nodes {
            node.fp = Fingerprint::of(&node.interval).pack();
            max_end = max_end.max(node.interval.end());
            max_span = max_span.max(node.interval.end() - node.interval.begin());
        }
        nodes.shrink_to_fit();
        IntervalTree { nodes, max_end, max_span }
    }

    /// Inserts an interval with its value after every node of an equal or
    /// smaller begin; returns its position. An append when begins arrive
    /// in order, O(n) otherwise — the shipped build never inserts (it
    /// links, see [`crate::SummarizingBuilder::finish`]).
    pub fn insert(&mut self, interval: StridedInterval, value: V) -> NodeRef {
        assert!(self.nodes.len() < u32::MAX as usize, "interval tree node capacity exceeded");
        let at = self.nodes.partition_point(|n| n.interval.begin() <= interval.begin());
        self.max_end = self.max_end.max(interval.end());
        self.max_span = self.max_span.max(interval.end() - interval.begin());
        self.nodes.insert(at, Node::new(interval, value));
        NodeRef(at as u32)
    }

    /// Iterates all nodes in ascending begin-address order.
    pub fn iter(&self) -> impl ExactSizeIterator<Item = (NodeRef, &StridedInterval, &V)> + '_ {
        self.nodes.iter().enumerate().map(|(i, n)| (NodeRef(i as u32), &n.interval, &n.value))
    }

    /// Visits, in begin order, every stored interval whose `[begin, end)`
    /// range overlaps `[lo, hi)`. Only nodes that begin in
    /// `[lo - max_span, hi)` can, and those are one binary search away.
    pub fn for_each_range_overlap<F: FnMut(NodeRef, &StridedInterval, &V)>(
        &self,
        lo: u64,
        hi: u64,
        mut f: F,
    ) {
        let from = lo.saturating_sub(self.max_span);
        let first = self.nodes.partition_point(|n| n.interval.begin() < from);
        let last = self.nodes.partition_point(|n| n.interval.begin() < hi);
        for (i, n) in self.nodes.iter().enumerate().take(last).skip(first) {
            if lo < n.interval.end() {
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

    /// Verifies the order and the cached fields; panics with a
    /// description on violation. Exposed (not `cfg(test)`) so integration
    /// and property tests in dependent crates can call it.
    pub fn assert_invariants(&self) {
        for (i, pair) in self.nodes.windows(2).enumerate() {
            assert!(
                pair[0].interval.begin() <= pair[1].interval.begin(),
                "begin order broken at {}",
                i + 1
            );
        }
        for (i, n) in self.nodes.iter().enumerate() {
            assert_eq!(n.fp, Fingerprint::of(&n.interval).pack(), "fingerprint stale at {i}");
        }
        let ends = self.nodes.iter().map(|n| n.interval.end());
        assert_eq!(self.max_end, ends.max().unwrap_or(0), "max_end stale");
        let spans = self.nodes.iter().map(|n| n.interval.end() - n.interval.begin());
        assert_eq!(self.max_span, spans.max().unwrap_or(0), "max_span stale");
    }
}
