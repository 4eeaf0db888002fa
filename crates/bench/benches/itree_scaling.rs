//! §III-B complexity — interval-tree construction and comparison.
//!
//! Criterion benchmarks of the summary tree's costs: building a tree from
//! `N` accesses is `O(N + M log M)` (one fold, one sort); comparing two
//! trees of `n` and `m` nodes is one sweep, `O(n + m + pairs)`;
//! summarization makes `M ≪ N` for array sweeps.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use sword_itree::{count_exact_overlaps, IntervalTree, SummarizingBuilder};

/// Builds a tree of `n` raw accesses from `pcs` interleaved array sweeps.
fn build_summarized(n: u64, pcs: u32) -> IntervalTree<u32> {
    let mut b: SummarizingBuilder<u32, u32> = SummarizingBuilder::new();
    for i in 0..n {
        let pc = (i % pcs as u64) as u32;
        b.insert_with(pc, 0x1000 + pc as u64 * 0x100000 + (i / pcs as u64) * 8, 8, || pc);
    }
    b.finish()
}

/// Builds a tree of about `m` *non-mergeable* nodes — one source line
/// gathering at scattered addresses — through the builder, like the
/// analyzer. (A stray short forward gap is held as a pending second
/// element and still ends up a node of its own.)
fn build_scattered(m: u64, offset: u64) -> IntervalTree<u32> {
    let mut b: SummarizingBuilder<u32, u32> = SummarizingBuilder::new();
    let mut x = 0x9E3779B97F4A7C15u64.wrapping_add(offset);
    for i in 0..m {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        b.insert_with(0, offset + (x % (m * 64)), 8, || i as u32);
    }
    b.finish()
}

fn bench_build(c: &mut Criterion) {
    let mut group = c.benchmark_group("tree_build");
    for n in [1_000u64, 10_000, 100_000] {
        group.throughput(Throughput::Elements(n));
        group.bench_with_input(BenchmarkId::new("summarized_sweeps", n), &n, |b, &n| {
            b.iter(|| build_summarized(n, 8));
        });
        group.bench_with_input(BenchmarkId::new("scattered_nodes", n), &n, |b, &n| {
            b.iter(|| build_scattered(n, 0));
        });
    }
    group.finish();
}

fn bench_compare(c: &mut Criterion) {
    let mut group = c.benchmark_group("tree_compare");
    for m in [1_000u64, 10_000, 50_000] {
        let a = build_scattered(m, 0);
        let b_tree = build_scattered(m, 32); // shifted: plenty of overlap
        group.throughput(Throughput::Elements(m));
        group.bench_with_input(BenchmarkId::new("pairwise", m), &m, |bench, _| {
            bench.iter(|| count_exact_overlaps(&a, &b_tree));
        });
    }
    group.finish();
}

fn bench_query(c: &mut Criterion) {
    let t = build_scattered(100_000, 0);
    c.bench_function("stab_query_100k", |b| {
        let mut q = 0u64;
        b.iter(|| {
            q = (q + 7919) % (100_000 * 64);
            t.range_overlaps(q, q + 64).len()
        });
    });
}

fn summarization_effect(c: &mut Criterion) {
    // M ≪ N: a million-access sweep collapses to a handful of nodes.
    let t = build_summarized(1_000_000, 8);
    assert!(t.len() <= 8, "1M accesses → {} nodes", t.len());
    c.bench_function("build_1M_sweep_accesses", |b| {
        b.iter(|| build_summarized(100_000, 8).len());
    });
}

criterion_group!(
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench_build, bench_compare, bench_query, summarization_effect
);
criterion_main!(benches);
