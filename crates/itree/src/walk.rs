//! The candidate walk: one merge sweep over two trees' nodes in begin
//! order that reports only node pairs of which at least one is a write.
//!
//! A read-heavy tree keeps its reads unsorted (see the `tree` module
//! docs). Before the sweep, those reads are filtered against the other
//! tree's write cover — a semi-join — and only the survivors are sorted
//! and swept. Every other node is swept from its tree's sorted run.

use crate::tree::{IntervalTree, Node, READ};

/// Calls `f` once for every pair — one node of `a`, one of `b` — whose
/// `[begin, end)` ranges overlap and of which at least one is a write.
/// O(n + m + v) for the `v` overlapping pairs among the swept nodes,
/// plus the filter's O(r log w + s log s) for `r` unsorted reads against
/// `w` cover ranges with `s` survivors.
pub(crate) fn sweep<VA, VB>(
    a: &IntervalTree<VA>,
    b: &IntervalTree<VB>,
    mut f: impl FnMut(&Node<VA>, &Node<VB>),
) {
    let (ra, rb) = (reads_meeting(a, b), reads_meeting(b, a));
    // A side whose unsorted reads all fail the filter is its run alone.
    let (run_a, run_b, f) = (&a.nodes()[a.run()], &b.nodes()[b.run()], &mut f);
    match (ra.is_empty(), rb.is_empty()) {
        (true, true) => join(run_a, run_b, f),
        (false, true) => join((a.nodes(), merged(a, ra)), run_b, f),
        (true, false) => join(run_a, (b.nodes(), merged(b, rb)), f),
        (false, false) => join((a.nodes(), merged(a, ra)), (b.nodes(), merged(b, rb)), f),
    }
}

/// `t`'s run merged with its unsorted reads at `reads`.
fn merged<V>(t: &IntervalTree<V>, reads: Vec<u32>) -> Vec<u32> {
    t.in_order(t.run(), reads).map(|i| i as u32).collect()
}

/// The unsorted reads of `t` that overlap a write of `other`, sorted.
fn reads_meeting<V, W>(t: &IntervalTree<V>, other: &IntervalTree<W>) -> Vec<u32> {
    if t.unsorted_reads() == 0 || other.write_bounds().is_none() {
        return Vec::new();
    }
    let cover = other.write_cover();
    t.sorted_reads(|iv| {
        // The first cover range that ends past the read's begin is the
        // only one that can overlap it.
        let k = cover.partition_point(|&(_, hi)| hi <= iv.begin());
        cover.get(k).is_some_and(|&(lo, _)| lo < iv.end())
    })
}

/// One side of the sweep: its nodes in begin order, each with its
/// position in [`Side::slice`], which the open lists hold.
trait Side<V> {
    fn slice(&self) -> &[Node<V>];
    fn get(&self, i: usize) -> Option<(usize, &Node<V>)>;
}

/// A sorted run.
impl<V> Side<V> for &[Node<V>] {
    #[inline]
    fn slice(&self) -> &[Node<V>] {
        self
    }

    #[inline]
    fn get(&self, i: usize) -> Option<(usize, &Node<V>)> {
        <[Node<V>]>::get(self, i).map(|n| (i, n))
    }
}

/// A run merged with the reads that passed the filter, as positions.
impl<V> Side<V> for (&[Node<V>], Vec<u32>) {
    #[inline]
    fn slice(&self) -> &[Node<V>] {
        self.0
    }

    #[inline]
    fn get(&self, i: usize) -> Option<(usize, &Node<V>)> {
        let k = *self.1.get(i)? as usize;
        Some((k, &self.0[k]))
    }
}

/// The merge sweep. Each side keeps the nodes it has passed that may
/// still be open; a node meets the other side's open nodes when the sweep
/// reaches its begin, after those that end at or before it are dropped,
/// and reports those of them it can race with. Equal begins take `a`
/// first, so such a pair is met once, when its `b` node arrives.
///
/// One open list per side, each entry with its class bit: two lists per
/// side, writes and reads apart, would skip the read pairs unvisited, but
/// the branch that picks a list mispredicts on every node where reads and
/// writes interleave (≈ 15 % on a random read-modify-write).
fn join<VA, VB, F>(a: impl Side<VA>, b: impl Side<VB>, f: &mut F)
where
    F: FnMut(&Node<VA>, &Node<VB>),
{
    let (mut open_a, mut open_b) = (Open::default(), Open::default());
    let (mut i, mut j) = (0, 0);
    loop {
        let (x, y) = (a.get(i), b.get(j));
        let take_a = match (x, y) {
            (Some((_, x)), Some((_, y))) => x.interval.begin() <= y.interval.begin(),
            // One side is spent; the other still meets its open nodes.
            (Some(_), None) if !open_b.is_empty() => true,
            (None, Some(_)) if !open_a.is_empty() => false,
            _ => break,
        };
        match (take_a, x, y) {
            (true, Some((k, x)), _) => {
                open_b.meet(x, b.slice(), |y| f(x, y));
                open_a.push(k, x);
                i += 1;
            }
            (_, _, Some((l, y))) => {
                open_a.meet(y, a.slice(), |x| f(x, y));
                open_b.push(l, y);
                j += 1;
            }
            _ => unreachable!("the side taken has a node"),
        }
    }
}

/// One side's open nodes: positions, with the [`READ`] bit of a read.
#[derive(Default)]
struct Open(Vec<u32>);

impl Open {
    fn is_empty(&self) -> bool {
        self.0.is_empty()
    }

    #[inline]
    fn push<V>(&mut self, k: usize, node: &Node<V>) {
        self.0.push(k as u32 | (node.fp & READ));
    }

    /// Drops the open nodes of `other` that end at or before `node`
    /// begins, and hands `f` the rest, but for reads when `node` is a
    /// read. Each of those began at or before `node` and ends after its
    /// begin, so it overlaps `node` (intervals are never empty:
    /// [`StridedInterval::new`] refuses a zero size).
    ///
    /// [`StridedInterval::new`]: sword_solver::StridedInterval::new
    #[inline]
    fn meet<U, V>(&mut self, node: &Node<U>, other: &[Node<V>], mut f: impl FnMut(&Node<V>)) {
        let begin = node.interval.begin();
        let both_read = node.fp & READ;
        let mut k = 0;
        while k < self.0.len() {
            let entry = self.0[k];
            let open = &other[(entry & !READ) as usize];
            if open.interval.end() <= begin {
                self.0.swap_remove(k);
            } else {
                if entry & both_read == 0 {
                    f(open);
                }
                k += 1;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SummarizingBuilder;
    use proptest::prelude::*;

    /// A tree of single accesses `(addr, size, writes)`, one key each.
    fn tree(accesses: &[(u64, u64, bool)]) -> IntervalTree<bool> {
        let mut b = SummarizingBuilder::new();
        for (k, &(addr, size, w)) in accesses.iter().enumerate() {
            b.insert_with(k, addr, size, || w);
        }
        b.finish(|&w| w)
    }

    proptest! {
        #[test]
        fn the_filter_keeps_exactly_the_reads_a_write_reaches(
            reads in prop::collection::vec((0u64..2000, 1u64..64), 0..200),
            other in prop::collection::vec((0u64..2000, 1u64..300, any::<bool>()), 0..12),
        ) {
            let reads: Vec<_> = reads.into_iter().map(|(a, s)| (a, s, false)).collect();
            let (t, other) = (tree(&reads), tree(&other));
            prop_assert_eq!(t.unsorted_reads(), reads.len());
            let reached = |k: &u32| {
                let iv = &t.nodes()[*k as usize].interval;
                other.nodes().iter().any(|w| {
                    !w.is_read() && w.interval.begin() < iv.end() && iv.begin() < w.interval.end()
                })
            };
            let mut expect: Vec<u32> = (0..reads.len() as u32).filter(reached).collect();
            expect.sort_by_key(|&k| t.nodes()[k as usize].interval.begin());
            prop_assert_eq!(reads_meeting(&t, &other), expect);
        }
    }
}
