//! The augmented red-black tree machinery.
//!
//! An arena-backed (index-based, `#![forbid(unsafe_code)]`) red-black tree
//! keyed by interval begin address, augmented with the maximum interval end
//! of each subtree so that overlap queries prune whole subtrees — the
//! classic CLRS "interval tree" (§14.3), which the paper cites for its
//! offline phase.

use sword_solver::{Fingerprint, StridedInterval};

/// Sentinel index meaning "no node".
pub(crate) const NIL: u32 = u32::MAX;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum Color {
    Red,
    Black,
}

#[derive(Clone, Debug)]
pub(crate) struct Node<V> {
    pub interval: StridedInterval,
    pub value: V,
    pub max_end: u64,
    /// Packed stride-class fingerprint of `interval` (see
    /// [`Fingerprint::pack`]), kept in sync on every interval update so the
    /// candidate walk can run the congruence pre-screen without
    /// re-dividing. Packed to 32 bits so it rides in the node's padding —
    /// growing the node measurably slows the walk on big trees.
    pub fp: u32,
    pub parent: u32,
    pub left: u32,
    pub right: u32,
    pub color: Color,
}

impl<V> Node<V> {
    /// A red node linked to nothing, its `max_end` and `fp` those of its
    /// own interval.
    pub(crate) fn new(interval: StridedInterval, value: V) -> Self {
        Node {
            interval,
            value,
            max_end: interval.end(),
            fp: Fingerprint::of(&interval).pack(),
            parent: NIL,
            left: NIL,
            right: NIL,
            color: Color::Red,
        }
    }
}

/// An augmented red-black interval tree mapping [`StridedInterval`]s to
/// values.
///
/// Duplicate begin addresses are allowed (later inserts go right), so the
/// tree is a multimap over intervals. Nodes are never removed: a summary
/// tree is built once and then only queried.
#[derive(Clone, Debug)]
pub struct IntervalTree<V> {
    nodes: Vec<Node<V>>,
    root: u32,
}

/// Handle to a node in an [`IntervalTree`]: stable for the life of the
/// tree that handed it out. A handle a [`SummarizingBuilder`] returns
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
        IntervalTree { nodes: Vec::new(), root: NIL }
    }

    /// Creates an empty tree with room for `cap` nodes.
    pub fn with_capacity(cap: usize) -> Self {
        IntervalTree { nodes: Vec::with_capacity(cap), root: NIL }
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

    /// Approximate bytes held by the node arena — used by the memory
    /// accounting that feeds the paper's overhead tables.
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

    /// Mutable access to the value stored at `handle`.
    #[inline]
    pub fn value_mut(&mut self, handle: NodeRef) -> &mut V {
        &mut self.nodes[handle.0 as usize].value
    }

    /// The stride-class fingerprint cached for the interval at `handle`.
    #[inline]
    pub fn fingerprint(&self, handle: NodeRef) -> Fingerprint {
        let node = &self.nodes[handle.0 as usize];
        Fingerprint::unpack(node.fp, &node.interval)
    }

    /// The bounding box of all stored intervals: the smallest begin and the
    /// largest end, or `None` for an empty tree. O(log n) (leftmost descent
    /// plus the root's `max_end` augmentation).
    pub fn bounds(&self) -> Option<(u64, u64)> {
        if self.root == NIL {
            return None;
        }
        let min_begin = self.nodes[self.minimum(self.root) as usize].interval.begin();
        Some((min_begin, self.nodes[self.root as usize].max_end))
    }

    /// Links `nodes` — given in insertion order, their links and derived
    /// fields arbitrary — into the tree that inserting them one by one
    /// would have produced in-order, in O(n) after one sort.
    ///
    /// The sort is by `(begin, insertion index)`, which is exactly the
    /// in-order sequence of [`IntervalTree::insert`] (equal begins go
    /// right, rotations keep in-order). It runs in place on the nodes
    /// themselves, the index riding in the not-yet-used `parent` link: a
    /// side array of keys would cost 16 B per node at the analyzer's
    /// memory peak. Linking midpoints over the sorted arena then fills
    /// every level but the deepest, so "all black, deepest level red" is a
    /// valid colouring, and an in-order walk reads memory sequentially.
    pub(crate) fn link(mut nodes: Vec<Node<V>>) -> Self {
        assert!(nodes.len() < NIL as usize, "interval tree node capacity exceeded");
        for (i, node) in nodes.iter_mut().enumerate() {
            node.parent = i as u32;
        }
        nodes.sort_unstable_by_key(|n| (n.interval.begin(), n.parent));
        let len = nodes.len() as u32;
        let mut tree = IntervalTree { nodes, root: NIL };
        tree.root = tree.link_range(0, len, NIL, (len + 1).ilog2());
        tree
    }

    /// Links the sorted nodes `[lo, hi)` under `parent`, children first so
    /// `max_end` is final when set, and returns the subtree's root.
    /// `black_levels` is how many levels from here down are full (and so
    /// black); the one partial level below them is red.
    fn link_range(&mut self, lo: u32, hi: u32, parent: u32, black_levels: u32) -> u32 {
        if lo == hi {
            return NIL;
        }
        let mid = lo + (hi - lo) / 2;
        let below = black_levels.saturating_sub(1);
        let left = self.link_range(lo, mid, mid, below);
        let right = self.link_range(mid + 1, hi, mid, below);
        let node = &mut self.nodes[mid as usize];
        node.parent = parent;
        node.left = left;
        node.right = right;
        node.color = if black_levels == 0 { Color::Red } else { Color::Black };
        node.fp = Fingerprint::of(&node.interval).pack();
        self.recompute_max(mid);
        mid
    }

    /// Inserts an interval with its value; returns a handle to the node.
    pub fn insert(&mut self, interval: StridedInterval, value: V) -> NodeRef {
        let idx = self.nodes.len() as u32;
        assert!(idx < NIL, "interval tree node capacity exceeded");
        self.nodes.push(Node::new(interval, value));
        // BST insert keyed on begin().
        let key = self.nodes[idx as usize].interval.begin();
        let mut parent = NIL;
        let mut cur = self.root;
        while cur != NIL {
            parent = cur;
            let cur_key = self.nodes[cur as usize].interval.begin();
            cur = if key < cur_key {
                self.nodes[cur as usize].left
            } else {
                self.nodes[cur as usize].right
            };
        }
        self.nodes[idx as usize].parent = parent;
        if parent == NIL {
            self.root = idx;
        } else if key < self.nodes[parent as usize].interval.begin() {
            self.nodes[parent as usize].left = idx;
        } else {
            self.nodes[parent as usize].right = idx;
        }
        self.fix_max_up(idx);
        self.insert_fixup(idx);
        NodeRef(idx)
    }

    /// Iterates all nodes in ascending begin-address order.
    pub fn iter(&self) -> InorderIter<'_, V> {
        InorderIter { tree: self, stack: Vec::new(), cur: self.root }
    }

    /// Visits every stored interval whose `[begin, end)` range overlaps
    /// `[lo, hi)`, using the `max_end` augmentation to prune subtrees.
    pub fn for_each_range_overlap<F: FnMut(NodeRef, &StridedInterval, &V)>(
        &self,
        lo: u64,
        hi: u64,
        mut f: F,
    ) {
        self.overlap_rec(self.root, lo, hi, &mut f);
    }

    fn overlap_rec<F: FnMut(NodeRef, &StridedInterval, &V)>(
        &self,
        idx: u32,
        lo: u64,
        hi: u64,
        f: &mut F,
    ) {
        if idx == NIL {
            return;
        }
        let node = &self.nodes[idx as usize];
        // Nothing in this subtree ends after lo: prune.
        if node.max_end <= lo {
            return;
        }
        self.overlap_rec(node.left, lo, hi, f);
        let iv = node.interval;
        if iv.begin() < hi && lo < iv.end() {
            f(NodeRef(idx), &self.nodes[idx as usize].interval, &self.nodes[idx as usize].value);
        }
        // Keys right of here all have begin ≥ this begin; if this begin is
        // already ≥ hi, no right descendant can overlap.
        if iv.begin() < hi {
            self.overlap_rec(node.right, lo, hi, f);
        }
    }

    /// Returns handles of all stored intervals overlapping `[lo, hi)`.
    pub fn range_overlaps(&self, lo: u64, hi: u64) -> Vec<NodeRef> {
        let mut out = Vec::new();
        self.for_each_range_overlap(lo, hi, |h, _, _| out.push(h));
        out
    }

    // ---- internals -------------------------------------------------------

    /// Recomputes a node's `max_end` from its interval and children.
    #[inline]
    fn recompute_max(&mut self, idx: u32) {
        let node = &self.nodes[idx as usize];
        let mut m = node.interval.end();
        if node.left != NIL {
            m = m.max(self.nodes[node.left as usize].max_end);
        }
        if node.right != NIL {
            m = m.max(self.nodes[node.right as usize].max_end);
        }
        self.nodes[idx as usize].max_end = m;
    }

    /// Repairs `max_end` from `idx` all the way to the root. An insert
    /// splice followed by rotations can leave several nodes along the path
    /// stale at once, so no early exit is sound here.
    fn fix_max_up(&mut self, mut idx: u32) {
        while idx != NIL {
            self.recompute_max(idx);
            idx = self.nodes[idx as usize].parent;
        }
    }

    fn rotate_left(&mut self, x: u32) {
        let y = self.nodes[x as usize].right;
        debug_assert!(y != NIL);
        let y_left = self.nodes[y as usize].left;
        self.nodes[x as usize].right = y_left;
        if y_left != NIL {
            self.nodes[y_left as usize].parent = x;
        }
        let x_parent = self.nodes[x as usize].parent;
        self.nodes[y as usize].parent = x_parent;
        if x_parent == NIL {
            self.root = y;
        } else if self.nodes[x_parent as usize].left == x {
            self.nodes[x_parent as usize].left = y;
        } else {
            self.nodes[x_parent as usize].right = y;
        }
        self.nodes[y as usize].left = x;
        self.nodes[x as usize].parent = y;
        // x is now y's child: recompute bottom-up.
        self.recompute_max(x);
        self.recompute_max(y);
    }

    fn rotate_right(&mut self, x: u32) {
        let y = self.nodes[x as usize].left;
        debug_assert!(y != NIL);
        let y_right = self.nodes[y as usize].right;
        self.nodes[x as usize].left = y_right;
        if y_right != NIL {
            self.nodes[y_right as usize].parent = x;
        }
        let x_parent = self.nodes[x as usize].parent;
        self.nodes[y as usize].parent = x_parent;
        if x_parent == NIL {
            self.root = y;
        } else if self.nodes[x_parent as usize].right == x {
            self.nodes[x_parent as usize].right = y;
        } else {
            self.nodes[x_parent as usize].left = y;
        }
        self.nodes[y as usize].right = x;
        self.nodes[x as usize].parent = y;
        self.recompute_max(x);
        self.recompute_max(y);
    }

    fn color(&self, idx: u32) -> Color {
        if idx == NIL {
            Color::Black
        } else {
            self.nodes[idx as usize].color
        }
    }

    fn insert_fixup(&mut self, mut z: u32) {
        while self.color(self.nodes[z as usize].parent) == Color::Red {
            let parent = self.nodes[z as usize].parent;
            let grand = self.nodes[parent as usize].parent;
            debug_assert!(grand != NIL, "red parent implies grandparent exists");
            if parent == self.nodes[grand as usize].left {
                let uncle = self.nodes[grand as usize].right;
                if self.color(uncle) == Color::Red {
                    self.nodes[parent as usize].color = Color::Black;
                    self.nodes[uncle as usize].color = Color::Black;
                    self.nodes[grand as usize].color = Color::Red;
                    z = grand;
                } else {
                    if z == self.nodes[parent as usize].right {
                        z = parent;
                        self.rotate_left(z);
                    }
                    let parent = self.nodes[z as usize].parent;
                    let grand = self.nodes[parent as usize].parent;
                    self.nodes[parent as usize].color = Color::Black;
                    self.nodes[grand as usize].color = Color::Red;
                    self.rotate_right(grand);
                }
            } else {
                let uncle = self.nodes[grand as usize].left;
                if self.color(uncle) == Color::Red {
                    self.nodes[parent as usize].color = Color::Black;
                    self.nodes[uncle as usize].color = Color::Black;
                    self.nodes[grand as usize].color = Color::Red;
                    z = grand;
                } else {
                    if z == self.nodes[parent as usize].left {
                        z = parent;
                        self.rotate_right(z);
                    }
                    let parent = self.nodes[z as usize].parent;
                    let grand = self.nodes[parent as usize].parent;
                    self.nodes[parent as usize].color = Color::Black;
                    self.nodes[grand as usize].color = Color::Red;
                    self.rotate_left(grand);
                }
            }
        }
        let root = self.root;
        self.nodes[root as usize].color = Color::Black;
    }

    fn minimum(&self, mut idx: u32) -> u32 {
        while self.nodes[idx as usize].left != NIL {
            idx = self.nodes[idx as usize].left;
        }
        idx
    }

    // ---- invariant checking (test support) -------------------------------

    /// Verifies the red-black and augmentation invariants; panics with a
    /// description on violation. Exposed (not `cfg(test)`) so integration
    /// and property tests in dependent crates can call it.
    pub fn assert_invariants(&self) {
        if self.root == NIL {
            assert!(self.nodes.is_empty(), "nodes outside the tree");
            return;
        }
        assert_eq!(self.nodes[self.root as usize].parent, NIL, "root has a parent");
        assert_eq!(self.color(self.root), Color::Black, "root must be black");
        let (black_height, count, _min, _max) = self.check_rec(self.root);
        let _ = black_height;
        assert_eq!(count, self.nodes.len(), "nodes outside the tree");
    }

    fn check_rec(&self, idx: u32) -> (usize, usize, u64, u64) {
        if idx == NIL {
            return (1, 0, u64::MAX, 0);
        }
        let node = &self.nodes[idx as usize];
        if node.color == Color::Red {
            assert_eq!(self.color(node.left), Color::Black, "red-red violation (left)");
            assert_eq!(self.color(node.right), Color::Black, "red-red violation (right)");
        }
        if node.left != NIL {
            assert_eq!(self.nodes[node.left as usize].parent, idx, "left parent link");
            assert!(
                self.nodes[node.left as usize].interval.begin() <= node.interval.begin(),
                "BST order (left)"
            );
        }
        if node.right != NIL {
            assert_eq!(self.nodes[node.right as usize].parent, idx, "right parent link");
            assert!(
                self.nodes[node.right as usize].interval.begin() >= node.interval.begin(),
                "BST order (right)"
            );
        }
        let (lb, lc, _lmin, lmax) = self.check_rec(node.left);
        let (rb, rc, _rmin, rmax) = self.check_rec(node.right);
        assert_eq!(lb, rb, "black height mismatch");
        let expect_max = node.interval.end().max(lmax).max(rmax);
        assert_eq!(node.max_end, expect_max, "max_end augmentation stale at {idx}");
        assert_eq!(node.fp, Fingerprint::of(&node.interval).pack(), "fingerprint stale at {idx}");
        let black = lb + usize::from(node.color == Color::Black);
        (black, lc + rc + 1, 0, expect_max)
    }

    /// Height of the tree (test support; ~2·log₂(n) for a valid RB tree).
    pub fn height(&self) -> usize {
        fn rec<V>(t: &IntervalTree<V>, idx: u32) -> usize {
            if idx == NIL {
                0
            } else {
                1 + rec(t, t.nodes[idx as usize].left).max(rec(t, t.nodes[idx as usize].right))
            }
        }
        rec(self, self.root)
    }
}

/// In-order iterator over an [`IntervalTree`].
pub struct InorderIter<'a, V> {
    tree: &'a IntervalTree<V>,
    stack: Vec<u32>,
    cur: u32,
}

impl<'a, V> Iterator for InorderIter<'a, V> {
    type Item = (NodeRef, &'a StridedInterval, &'a V);

    fn next(&mut self) -> Option<Self::Item> {
        while self.cur != NIL {
            self.stack.push(self.cur);
            self.cur = self.tree.nodes[self.cur as usize].left;
        }
        let idx = self.stack.pop()?;
        self.cur = self.tree.nodes[idx as usize].right;
        let node = &self.tree.nodes[idx as usize];
        Some((NodeRef(idx), &node.interval, &node.value))
    }
}
