//! The summary tree's query contract, checked against nested loops over
//! `iter()`: the candidate sweep between two trees reports exactly the
//! node pairs whose `[begin, end)` ranges overlap, each once, and a range
//! query exactly the nodes overlapping the range.
//!
//! Trees come from out-of-order `insert`s and from the
//! `SummarizingBuilder`, with duplicate begins, long strided nodes that
//! span many others, and empty and one-node sides.

use proptest::prelude::*;
use sword::itree::{
    for_each_candidate_pair, for_each_candidate_pair_fp, Fingerprint, IntervalTree,
    StridedInterval, SummarizingBuilder,
};

/// A node as a sortable tuple: interval fields, then the value.
type Key = (u64, u64, u64, u64, u32);

fn key(iv: &StridedInterval, v: u32) -> Key {
    (iv.base, iv.stride, iv.count, iv.size, v)
}

fn overlaps(iv: &StridedInterval, lo: u64, hi: u64) -> bool {
    iv.begin() < hi && lo < iv.end()
}

/// Every overlapping pair, by nested loop, sorted.
fn reference_pairs(a: &IntervalTree<u32>, b: &IntervalTree<u32>) -> Vec<(Key, Key)> {
    let mut out = Vec::new();
    for (_, ia, va) in a.iter() {
        for (_, ib, vb) in b.iter() {
            if overlaps(ib, ia.begin(), ia.end()) {
                out.push((key(ia, *va), key(ib, *vb)));
            }
        }
    }
    out.sort_unstable();
    out
}

/// The sweep's pairs, sorted; the fingerprinted walk must report the
/// same pairs with each side's own fingerprint.
fn swept_pairs(a: &IntervalTree<u32>, b: &IntervalTree<u32>) -> Vec<(Key, Key)> {
    let mut plain = Vec::new();
    for_each_candidate_pair(a, b, |ia, va, ib, vb| plain.push((key(ia, *va), key(ib, *vb))));
    let mut with_fp = Vec::new();
    for_each_candidate_pair_fp(a, b, |ia, fa, va, ib, fb, vb| {
        assert_eq!(fa, Fingerprint::of(ia));
        assert_eq!(fb, Fingerprint::of(ib));
        with_fp.push((key(ia, *va), key(ib, *vb)));
    });
    plain.sort_unstable();
    with_fp.sort_unstable();
    assert_eq!(plain, with_fp);
    plain
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

/// Inserts `ivs` in the given (unsorted) order, valued by position.
fn inserted(ivs: &[StridedInterval], first: u32) -> IntervalTree<u32> {
    let mut t = IntervalTree::new();
    for (i, iv) in ivs.iter().enumerate() {
        t.insert(*iv, first + i as u32);
    }
    t
}

/// A builder tree over an access stream: few keys, two sizes, addresses
/// on a coarse grid, so progressions interleave and singles share begins.
fn built(stream: &[(u32, u64, u64)], first: u32) -> IntervalTree<u32> {
    let mut b: SummarizingBuilder<u32, u32> = SummarizingBuilder::new();
    for (i, &(k, addr, size)) in stream.iter().enumerate() {
        b.insert_with(k, addr, size, || first + i as u32);
    }
    b.finish()
}

fn arb_stream() -> impl Strategy<Value = Vec<(u32, u64, u64)>> {
    prop::collection::vec(
        (0u32..3, (0u64..64).prop_map(|a| 0x100 + a * 4), prop::sample::select(vec![4u64, 8])),
        0..200,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(200))]

    #[test]
    fn sweep_matches_nested_loop_on_inserted_trees(a in arb_ivs(), b in arb_ivs()) {
        check_sweep(&inserted(&a, 0), &inserted(&b, 1 << 20))?;
    }

    #[test]
    fn sweep_matches_nested_loop_on_built_trees(a in arb_stream(), b in arb_stream()) {
        check_sweep(&built(&a, 0), &built(&b, 1 << 20))?;
    }

    #[test]
    fn sweep_matches_nested_loop_between_built_and_inserted(a in arb_stream(), b in arb_ivs()) {
        check_sweep(&built(&a, 0), &inserted(&b, 1 << 20))?;
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
