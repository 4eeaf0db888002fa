//! Solver screening-funnel microbenchmark.
//!
//! Draws a deterministic population of random [`StridedInterval`] pairs,
//! classifies each through the tiered dispatcher, and measures ns/pair
//! for every populated tier — the closed-form layers against the residue
//! search they shield, plus the branch-and-bound ILP each residue pair
//! would have cost without the funnel, and the per-candidate price of
//! the walk-time congruence prescreen. Writes `BENCH_solver.json` (CI
//! uploads it): tier populations, hit-rates, and ns/pair.
//!
//! Run with `cargo bench -p sword-bench --bench solver_funnel`.

use criterion::Criterion;
use rand::{rngs::SmallRng, Rng, SeedableRng};
use sword_metrics::Stopwatch;
use sword_obs::json::Value;
use sword_solver::{
    congruence_admissible, overlap_ilp, solve_tiered, Fingerprint, StridedInterval, Tier,
};

/// Random interval pairs in the census (fixed seed — the populations and
/// hit-rates below are reproducible run to run).
const PAIRS: usize = 20_000;

fn random_interval(rng: &mut SmallRng) -> StridedInterval {
    let stride = [1u64, 2, 4, 8, 8, 16, 24][rng.gen_range(0..7usize)];
    let size = [1u64, 2, 4, 8][rng.gen_range(0..4usize)];
    let count = rng.gen_range(0..96u64);
    // Clustered bases so ranges overlap often enough to exercise every
    // tier past the cheap range reject.
    let base = rng.gen_range(0..2048u64);
    StridedInterval::new(base, stride, count, size)
}

fn ns_per_pair(
    pairs: &[(StridedInterval, StridedInterval)],
    f: &dyn Fn(&StridedInterval, &StridedInterval),
) -> f64 {
    // Repeat small buckets so the timed window is meaningful.
    let reps = (100_000 / pairs.len().max(1)).max(1);
    let sw = Stopwatch::start();
    for _ in 0..reps {
        for (a, b) in pairs {
            f(std::hint::black_box(a), std::hint::black_box(b));
        }
    }
    sw.secs() * 1e9 / (reps * pairs.len()) as f64
}

fn main() {
    let mut rng = SmallRng::seed_from_u64(0x5303d);
    let mut buckets: Vec<Vec<(StridedInterval, StridedInterval)>> =
        vec![Vec::new(); Tier::ALL.len()];
    for _ in 0..PAIRS {
        let (a, b) = (random_interval(&mut rng), random_interval(&mut rng));
        let (_, tier) = solve_tiered(&a, &b, true);
        buckets[tier.index()].push((a, b));
    }

    let mut c = Criterion::default();
    let mut group = c.benchmark_group("solver_funnel");
    let mut tier_rows: Vec<Value> = Vec::new();
    println!("solver funnel census over {PAIRS} random pairs:");
    for tier in Tier::ALL {
        let bucket = &buckets[tier.index()];
        if bucket.is_empty() {
            continue;
        }
        let share = bucket.len() as f64 / PAIRS as f64;
        let ns = ns_per_pair(bucket, &|a, b| {
            std::hint::black_box(solve_tiered(a, b, true));
        });
        println!(
            "  tier {:<14} {:>6} pairs ({:>5.1}%)  {:>8.1} ns/pair",
            tier.as_str(),
            bucket.len(),
            share * 100.0,
            ns
        );
        group.bench_function(tier.as_str(), |bch| {
            bch.iter(|| {
                for (a, b) in bucket.iter().take(64) {
                    std::hint::black_box(solve_tiered(a, b, true));
                }
            })
        });
        tier_rows.push(Value::Obj(vec![
            ("tier".to_string(), tier.as_str().into()),
            ("pairs".to_string(), (bucket.len() as u64).into()),
            ("hit_rate".to_string(), share.into()),
            ("ns_per_pair".to_string(), ns.into()),
        ]));
    }

    // What the funnel shields: branch-and-bound ILP on the residue pairs
    // (the only pairs that would reach it), and the walk-time prescreen's
    // per-candidate price on the same population.
    let residue = &buckets[Tier::Diophantine.index()];
    let ilp_ns = if residue.is_empty() {
        0.0
    } else {
        ns_per_pair(residue, &|a, b| {
            std::hint::black_box(overlap_ilp(a, b).solve());
        })
    };
    let all_pairs: Vec<_> = buckets.iter().flatten().copied().collect();
    let prescreen_ns = ns_per_pair(&all_pairs, &|a, b| {
        std::hint::black_box(congruence_admissible(a, Fingerprint::of(a), b, Fingerprint::of(b)));
    });
    println!(
        "  ILP on residue pairs: {ilp_ns:.1} ns/pair; prescreen: {prescreen_ns:.1} ns/candidate"
    );
    group.bench_function("ilp_on_residue", |bch| {
        bch.iter(|| {
            for (a, b) in residue.iter().take(16) {
                std::hint::black_box(overlap_ilp(a, b).solve());
            }
        })
    });
    group.finish();

    let json = Value::Obj(vec![
        ("bench".to_string(), "solver_funnel".into()),
        ("pairs".to_string(), (PAIRS as u64).into()),
        ("tiers".to_string(), Value::Arr(tier_rows)),
        ("ilp_ns_per_residue_pair".to_string(), ilp_ns.into()),
        ("prescreen_ns_per_candidate".to_string(), prescreen_ns.into()),
    ]);
    let out = std::env::var("BENCH_SOLVER_JSON").unwrap_or_else(|_| {
        concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_solver.json").to_string()
    });
    std::fs::write(&out, json.render()).expect("write BENCH_solver.json");
    println!("wrote {out}");
}
