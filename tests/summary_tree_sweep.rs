//! The summary tree's query contract, checked against nested loops over
//! `iter()`: the candidate sweep between two trees reports exactly the
//! node pairs whose `[begin, end)` ranges overlap and of which at least
//! one writes, each once; a range query reports exactly the nodes
//! overlapping the range; `iter()` yields every node in ascending begin
//! order, writes before reads at one begin; and `bounds()` and
//! `write_bounds()` are the boxes of all nodes and of the writes.
//!
//! Trees come from out-of-order `insert`s (all writes) and from the
//! `SummarizingBuilder` with a write density that leaves reads sorted
//! among the writes, keeps them unsorted (few writes), or makes a tree
//! all reads or all writes; with duplicate begins, long strided nodes
//! that span many others, and empty and one-node sides.

use proptest::prelude::*;
use sword::itree::{
    for_each_candidate_pair_fp, Fingerprint, IntervalTree, StridedInterval, SummarizingBuilder,
};

/// A node as a sortable tuple: interval fields, then the value.
type Key = (u64, u64, u64, u64, u32);

/// The value bit of a write: every tree here keeps its nodes' class in
/// their values, so the references can read it.
const WRITE: u32 = 1 << 31;

fn writes(v: &u32) -> bool {
    v & WRITE != 0
}

fn key(iv: &StridedInterval, v: u32) -> Key {
    (iv.base, iv.stride, iv.count, iv.size, v)
}

fn overlaps(iv: &StridedInterval, lo: u64, hi: u64) -> bool {
    iv.begin() < hi && lo < iv.end()
}

/// Every overlapping pair with a write, by nested loop, sorted.
fn reference_pairs(a: &IntervalTree<u32>, b: &IntervalTree<u32>) -> Vec<(Key, Key)> {
    let mut out = Vec::new();
    for (_, ia, va) in a.iter() {
        for (_, ib, vb) in b.iter() {
            if overlaps(ib, ia.begin(), ia.end()) && (writes(va) || writes(vb)) {
                out.push((key(ia, *va), key(ib, *vb)));
            }
        }
    }
    out.sort_unstable();
    out
}

/// The sweep's pairs, sorted; each side comes with its own fingerprint.
fn swept_pairs(a: &IntervalTree<u32>, b: &IntervalTree<u32>) -> Vec<(Key, Key)> {
    let mut pairs = Vec::new();
    for_each_candidate_pair_fp(a, b, |ia, fa, va, ib, fb, vb| {
        assert_eq!(fa, Fingerprint::of(ia));
        assert_eq!(fb, Fingerprint::of(ib));
        pairs.push((key(ia, *va), key(ib, *vb)));
    });
    pairs.sort_unstable();
    pairs
}

/// Checks the sweep both ways round against the nested loop.
fn check_sweep(a: &IntervalTree<u32>, b: &IntervalTree<u32>) -> Result<(), String> {
    a.assert_invariants();
    b.assert_invariants();
    prop_assert_eq!(swept_pairs(a, b), reference_pairs(a, b));
    let mut mirrored: Vec<_> = swept_pairs(b, a).into_iter().map(|(x, y)| (y, x)).collect();
    mirrored.sort_unstable();
    prop_assert_eq!(mirrored, reference_pairs(a, b));
    Ok(())
}

/// Checks `range_overlaps` on `[lo, hi)` against a filter over `iter()`.
fn check_range(t: &IntervalTree<u32>, lo: u64, hi: u64) -> Result<(), String> {
    let got: Vec<Key> =
        t.range_overlaps(lo, hi).into_iter().map(|h| key(t.interval(h), *t.value(h))).collect();
    let expect: Vec<Key> =
        t.iter().filter(|(_, iv, _)| overlaps(iv, lo, hi)).map(|(_, iv, v)| key(iv, *v)).collect();
    prop_assert_eq!(got, expect, "range [{}, {})", lo, hi);
    Ok(())
}

/// Checks `iter()` against `reference`, the same nodes in any order and
/// with their values' class bit cleared: `iter()` yields each once, in
/// ascending begin order with writes first at one begin, and the boxes
/// are those of its nodes.
fn check_iter(t: &IntervalTree<u32>, reference: &[Key]) -> Result<(), String> {
    let got: Vec<(StridedInterval, u32)> = t.iter().map(|(_, iv, v)| (*iv, *v)).collect();
    prop_assert_eq!(got.len(), t.len());
    let order = |(iv, v): &(StridedInterval, u32)| (iv.begin(), !writes(v));
    for w in got.windows(2) {
        prop_assert!(order(&w[0]) <= order(&w[1]), "iter() order broken: {:?}", w);
    }
    let mut keys: Vec<Key> = got.iter().map(|(iv, v)| key(iv, v & !WRITE)).collect();
    keys.sort_unstable();
    let mut reference = reference.to_vec();
    reference.sort_unstable();
    prop_assert_eq!(keys, reference);
    let boxed = |nodes: Vec<&(StridedInterval, u32)>| {
        nodes.iter().fold(None, |b: Option<(u64, u64)>, (iv, _)| {
            Some(
                b.map_or((iv.begin(), iv.end()), |(lo, hi)| (lo.min(iv.begin()), hi.max(iv.end()))),
            )
        })
    };
    prop_assert_eq!(t.bounds(), boxed(got.iter().collect()));
    prop_assert_eq!(t.write_bounds(), boxed(got.iter().filter(|(_, v)| writes(v)).collect()));
    Ok(())
}

/// Mostly short intervals over a small address range (so begins
/// repeat), and one in eight a long strided node spanning many others.
fn arb_iv() -> impl Strategy<Value = StridedInterval> {
    let short = (0u64..400, 0u64..16, 0u64..6, 1u64..9);
    let long = (0u64..400, 8u64..64, 10u64..60, 1u64..9);
    (0u8..8, short, long).prop_map(|(pick, short, long)| {
        let (b, st, c, sz) = if pick == 0 { long } else { short };
        StridedInterval::new(b, st, c, sz)
    })
}

/// Interval lists weighted toward empty and one-node trees.
fn arb_ivs() -> impl Strategy<Value = Vec<StridedInterval>> {
    prop_oneof![
        prop::collection::vec(arb_iv(), 0..2),
        prop::collection::vec(arb_iv(), 0..80),
        prop::collection::vec(arb_iv(), 0..80),
    ]
}

/// Inserts `ivs` in the given (unsorted) order, valued by position: all
/// writes.
fn inserted(ivs: &[StridedInterval], first: u32) -> IntervalTree<u32> {
    let mut t = IntervalTree::new();
    for (i, iv) in ivs.iter().enumerate() {
        t.insert(*iv, WRITE | (first + i as u32));
    }
    t
}

/// A builder tree over an access stream, valued by position; a node
/// writes when `write_every` divides the position of the access that
/// created it (never when it is 0).
fn built(stream: &[(u32, u64, u64)], first: u32, write_every: u32) -> IntervalTree<u32> {
    let mut b: SummarizingBuilder<u32, u32> = SummarizingBuilder::new();
    for (i, &(k, addr, size)) in stream.iter().enumerate() {
        let class =
            if write_every != 0 && (i as u32).is_multiple_of(write_every) { WRITE } else { 0 };
        b.insert_with(k, addr, size, || class | (first + i as u32));
    }
    b.finish(writes)
}

/// An access stream: few keys, two sizes, addresses on a coarse grid, so
/// progressions interleave and singles share begins.
fn arb_stream() -> impl Strategy<Value = Vec<(u32, u64, u64)>> {
    prop::collection::vec(
        (0u32..3, (0u64..64).prop_map(|a| 0x100 + a * 4), prop::sample::select(vec![4u64, 8])),
        0..200,
    )
}

/// All writes, reads sorted among writes, reads kept unsorted, all reads.
fn arb_write_every() -> impl Strategy<Value = u32> {
    prop::sample::select(vec![1u32, 2, 5, 40, 0])
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(200))]

    #[test]
    fn sweep_matches_nested_loop_on_inserted_trees(a in arb_ivs(), b in arb_ivs()) {
        check_sweep(&inserted(&a, 0), &inserted(&b, 1 << 20))?;
    }

    #[test]
    fn sweep_matches_nested_loop_on_built_trees(a in arb_stream(), b in arb_stream()) {
        check_sweep(&built(&a, 0, 1), &built(&b, 1 << 20, 1))?;
    }

    #[test]
    fn sweep_matches_nested_loop_between_built_and_inserted(
        a in arb_stream(),
        every in arb_write_every(),
        b in arb_ivs(),
    ) {
        check_sweep(&built(&a, 0, every), &inserted(&b, 1 << 20))?;
    }

    #[test]
    fn sweep_matches_nested_loop_on_split_trees(
        a in arb_stream(),
        every_a in arb_write_every(),
        b in arb_stream(),
        every_b in arb_write_every(),
    ) {
        check_sweep(&built(&a, 0, every_a), &built(&b, 1 << 20, every_b))?;
    }

    #[test]
    fn iter_bounds_and_range_queries_match_brute_force_on_split_trees(
        stream in arb_stream(),
        every in arb_write_every(),
        later in prop::collection::vec(arb_iv(), 0..4),
        queries in prop::collection::vec((0u64..700, 0u64..120), 12),
    ) {
        // Folding does not look at classes: the same stream built all
        // writes holds the same nodes.
        let mut t = built(&stream, 0, every);
        let mut reference: Vec<Key> =
            built(&stream, 0, 1).iter().map(|(_, iv, v)| key(iv, v & !WRITE)).collect();
        check_iter(&t, &reference)?;
        // Writes inserted later go into the sorted run.
        for (i, iv) in later.iter().enumerate() {
            let v = (1 << 20) + i as u32;
            t.insert(*iv, WRITE | v);
            reference.push(key(iv, v));
        }
        t.assert_invariants();
        check_iter(&t, &reference)?;
        for &(lo, width) in &queries {
            check_range(&t, lo, lo + width)?;
            check_range(&t, lo % 16, lo % 16 + width)?;
        }
        check_range(&t, 0, u64::MAX)?;
    }

    #[test]
    fn range_overlaps_match_brute_force(
        ivs in arb_ivs(),
        queries in prop::collection::vec((0u64..700, 0u64..120), 12),
    ) {
        let t = inserted(&ivs, 0);
        // Low ranges sit below the longest span, so the scan's lower bound
        // saturates at zero.
        for &(lo, width) in &queries {
            check_range(&t, lo, lo + width)?;
            check_range(&t, lo % 16, lo % 16 + width)?;
        }
        check_range(&t, 0, u64::MAX)?;
    }
}

#[test]
fn equal_begins_pair_once_and_touching_ends_never() {
    let iv = |b, sz| StridedInterval::single(b, sz);
    let a = inserted(&[iv(100, 4), iv(100, 8), iv(96, 4), iv(104, 4)], 0);
    let b = inserted(&[iv(100, 4), iv(100, 1), iv(92, 4)], 10);
    check_sweep(&a, &b).unwrap();
    // [96,100) meets [92,96) only at a point, and [100,104) nothing of
    // [104,108): half-open ranges that touch do not overlap.
    assert_eq!(swept_pairs(&a, &b).len(), 4);
}

#[test]
fn one_long_node_meets_every_node_it_spans() {
    let long = inserted(&[StridedInterval::new(0, 64, 99, 8)], 0);
    let many: Vec<_> = (0..500u64).map(|i| StridedInterval::single(i * 16, 4)).collect();
    let many = inserted(&many, 1);
    // [0, 64·99 + 8) spans the 397 singles that begin below 6344.
    assert_eq!(swept_pairs(&long, &many).len(), 397);
    check_sweep(&long, &many).unwrap();
    check_sweep(&long, &IntervalTree::new()).unwrap();
}

/// A builder tree of exactly `nodes` (interval, writes), each folded from
/// its accesses under a key of its own, valued by position.
fn classed(nodes: &[(StridedInterval, bool)], first: u32) -> IntervalTree<u32> {
    let mut b = SummarizingBuilder::new();
    for (k, &(iv, w)) in nodes.iter().enumerate() {
        let v = (first + k as u32) | if w { WRITE } else { 0 };
        for x in 0..iv.len() {
            b.insert_with(k, iv.base + x * iv.stride, iv.size, || v);
        }
    }
    let t = b.finish(writes);
    assert_eq!(t.len(), nodes.len(), "one node per interval");
    t
}

#[test]
fn a_write_and_a_read_of_one_begin_meet_once_and_two_reads_never() {
    let iv = |b, sz| StridedInterval::single(b, sz);
    let a = classed(&[(iv(100, 8), false), (iv(100, 4), true), (iv(96, 8), false)], 0);
    let b = classed(&[(iv(100, 4), false), (iv(100, 1), true), (iv(104, 4), false)], 10);
    assert_eq!((a.unsorted_reads(), b.unsorted_reads()), (0, 0), "reads sorted among writes");
    check_sweep(&a, &b).unwrap();
    // a's write [100,104) meets both of b's nodes at 100, and b's write
    // [100,101) meets a's two reads; the reads that overlap each other
    // never meet.
    assert_eq!(swept_pairs(&a, &b).len(), 4);
    let classes: Vec<bool> = a.iter().map(|(_, _, v)| writes(v)).collect();
    assert_eq!(classes, [false, true, false], "[96,..) first, then the write of begin 100");

    // The same with a's reads kept unsorted: seventeen more reads far off.
    let mut nodes = vec![(iv(100, 8), false), (iv(100, 4), true), (iv(96, 8), false)];
    nodes.extend((0..17).map(|i| (iv(0x1000 + 64 * (17 - i), 4), false)));
    let a = classed(&nodes, 0);
    assert_eq!(a.unsorted_reads(), 19);
    check_sweep(&a, &b).unwrap();
    assert_eq!(swept_pairs(&a, &b).len(), 4);
    let classes: Vec<bool> = a.iter().take(3).map(|(_, _, v)| writes(v)).collect();
    assert_eq!(classes, [false, true, false]);
}

#[test]
fn a_long_strided_write_meets_every_read_it_spans() {
    // 500 reads and one write [0, 64·49 + 8) over the first 197 of them:
    // a read-heavy tree, which sorts only the write.
    let reads: Vec<_> = (0..500u64).map(|i| (StridedInterval::single(i * 16, 4), false)).collect();
    let mut nodes = reads.clone();
    nodes.push((StridedInterval::new(0, 64, 49, 8), true));
    let heavy = classed(&nodes, 0);
    assert_eq!(heavy.unsorted_reads(), 500);
    // A read-only partner over the same reads meets the write only.
    let readers = classed(&reads, 1000);
    assert_eq!(readers.unsorted_reads(), 500);
    assert_eq!(readers.write_bounds(), None);
    assert_eq!(swept_pairs(&heavy, &readers).len(), 197);
    check_sweep(&heavy, &readers).unwrap();
    assert!(swept_pairs(&readers, &readers).is_empty());
    // A write-only partner meets every read in its reach, on both sides.
    let writer = classed(&[(StridedInterval::new(8, 32, 99, 4), true)], 2000);
    check_sweep(&heavy, &writer).unwrap();
    check_sweep(&readers, &writer).unwrap();
    // [8, 8 + 32·99 + 4) reaches the reads from 16 to 3168.
    assert_eq!(swept_pairs(&readers, &writer).len(), 198);
    check_sweep(&heavy, &IntervalTree::new()).unwrap();
}
