//! Figures 4 & 5 demo: strided intervals and why range overlap is not
//! enough.
//!
//! ```text
//! cargo run --release --example interval_tree_demo
//! ```
//!
//! Part 1 replays the paper's Figure 4: two threads make interleaved
//! 4-byte accesses with stride 8 (`T0` from address 10, `T1` from 14).
//! Their `[begin, end)` ranges overlap, so the interval tree reports a
//! candidate pair — but the exact constraint
//! `Δ0·x0 + b0 + s0 = Δ1·x1 + b1 + s1` is unsatisfiable: no byte is
//! shared, no race. The analyzer's one decision, `solve_tiered`, says so
//! and names the tier that decided.
//!
//! Part 2 replays §III-B's interval-tree example: `a[i] = a[i-1]` over
//! 1000 ints split between two threads. Each thread's ~1000 accesses
//! summarize into two tree nodes, and exactly one node pair (the chunk
//! boundary element) passes the exact check.

use sword::itree::{for_each_candidate_pair_fp, SummarizingBuilder};
use sword::solver::{solve_tiered, StridedInterval, Tier};

fn main() {
    // ---- Part 1: Figure 4 -------------------------------------------------
    let t0 = StridedInterval::new(10, 8, 4, 4);
    let t1 = StridedInterval::new(14, 8, 4, 4);
    println!("Figure 4:");
    println!("  T0 accesses: {:?} -> bytes {}..{}", t0, t0.begin(), t0.end());
    println!("  T1 accesses: {:?} -> bytes {}..{}", t1, t1.begin(), t1.end());
    println!("  coarse ranges overlap: {}", t0.range_overlaps(&t1));
    let (witness, tier) = solve_tiered(&t0, &t1, true);
    println!("  exact shared byte:     {witness:?} (decided by {})", tier.as_str());
    assert!(t0.range_overlaps(&t1));
    assert_eq!((witness, tier), (None, Tier::GcdReject));

    // Shift T1 one byte left and the constraint becomes satisfiable.
    let t1_shifted = StridedInterval::new(13, 8, 4, 4);
    let (witness, tier) = solve_tiered(&t0, &t1_shifted, true);
    let w = witness.expect("the shifted intervals share a byte");
    println!(
        "  shifted T1 {:?}: shared byte {} = T0 access {} byte {} = T1 access {} byte {} ({})\n",
        t1_shifted,
        w.addr,
        w.x0,
        w.s0,
        w.x1,
        w.s1,
        tier.as_str()
    );
    assert!(t0.contains(w.addr) && t1_shifted.contains(w.addr));

    // ---- Part 2: §III-B interval-tree example ------------------------------
    // a[i] = a[i-1], 1000 ints, 2 threads with static halves. Merge key
    // is (source line, op) as in the real analyzer.
    const BASE: u64 = 0x100;
    let mut trees = Vec::new();
    for (lo, hi) in [(1u64, 500u64), (500, 1000)] {
        let mut b: SummarizingBuilder<(&str, bool), &str> = SummarizingBuilder::new();
        for i in lo..hi {
            b.insert_with(("read a[i-1]", false), BASE + (i - 1) * 4, 4, || "read a[i-1]");
            b.insert_with(("write a[i]", true), BASE + i * 4, 4, || "write a[i]");
        }
        let t = b.finish(|label| label.starts_with("write"));
        println!("thread {}..{}: {} accesses -> {} tree nodes", lo, hi, (hi - lo) * 2, t.len());
        for (_, iv, label) in t.iter() {
            println!(
                "    [{:#06x}, {:#06x}) stride {} x{}  {}",
                iv.begin(),
                iv.end(),
                iv.stride,
                iv.len(),
                label
            );
        }
        trees.push(t);
    }

    let (a, b) = (&trees[0], &trees[1]);
    let mut candidates = 0;
    let mut races = Vec::new();
    // The walk meets only pairs of which one side writes; the exact
    // overlap decides, as in the analyzer.
    for_each_candidate_pair_fp(a, b, |ia, _, la, ib, _, lb| {
        candidates += 1;
        if let (Some(w), _) = solve_tiered(ia, ib, true) {
            races.push((la.to_string(), lb.to_string(), w.addr));
        }
    });
    println!("\ncandidate node pairs: {candidates}");
    for (la, lb, addr) in &races {
        println!("RACE: `{la}` <-> `{lb}` share address {addr:#x} (element a[499])");
    }
    assert_eq!(races.len(), 1, "exactly the boundary element races");
    assert_eq!(races[0].2, BASE + 499 * 4);
}
