//! Per-site attribution must stay in the compare stage's noise floor.
//! Attaching a [`SiteTable`] to the offline analysis adds two dense-Vec
//! index-and-add credits per candidate pair, and two more per solve, in
//! an otherwise lock-free worker accumulator. This test pins that twice:
//!
//! * **By count**, in every profile: the table's credits are exactly
//!   `2 x candidate_pairs` and `2 x solver_calls` — attribution does
//!   nothing else per pair.
//! * **By time, in absolute units**: the wall time attribution adds to
//!   the compare stage, divided by the candidate pairs it credited, stays
//!   under [`ADDED_NS_PER_CANDIDATE_MAX`] in optimized builds (CI runs it
//!   under `--release`; see ci.yml). Debug codegen doesn't inline the
//!   accumulator, so unoptimized builds only get a coarse bound,
//!   [`DEBUG_ADDED_NS_PER_CANDIDATE_MAX`].
//!
//! The time bound used to be a ratio — "<5% of compare-stage time" — read
//! off a compare stage that ran for about a millisecond: it failed a
//! quarter of `--release` runs at unchanged code, and passed the others,
//! on scheduler noise alone. Timed over a stage long enough to carry a
//! percentage (>= 50 ms, below), this workload reads 5–15%: it is built
//! as attribution's worst case, every candidate a memoized verdict that
//! costs ~16 ns, so two ~1 ns credits are a visible share of it. The
//! credits' own cost is what the accumulator design controls, and what
//! the bound now states.
//!
//! Methodology mirrors `obs_overhead.rs` in `sword-runtime`: each round
//! measures both configurations back-to-back and the assertion takes the
//! *best round*. Machine noise (frequency scaling, background load)
//! moves both sides of a round together, and the cleanest round
//! upper-bounds the true overhead; comparing independent per-side bests
//! instead lets one lucky baseline sample fail the test.

use std::path::PathBuf;

use sword::obs::{Obs, SiteTable};
use sword::offline::{analyze, AnalysisConfig};
use sword::ompsim::SimConfig;
use sword::runtime::{run_collected, SwordConfig};
use sword::trace::SessionDir;

const THREADS: usize = 4;
const SITES: u32 = 96;
/// Barrier intervals collected. Compare work is linear in it; the debug
/// profile, which only checks the coarse bound, keeps the run short
/// because this test is in tier-1.
const INTERVALS: u64 = if cfg!(debug_assertions) { 4 } else { 64 };
const ROUNDS: usize = 5;
/// Shortest compare stage the optimized build's bound is checked on.
const MIN_MEASURED_SECS: f64 = 0.050;
/// Wall nanoseconds attribution may add per candidate pair it credits
/// (optimized builds; measured 0.8–2.4 on the two-core sandbox).
const ADDED_NS_PER_CANDIDATE_MAX: f64 = 4.0;
/// The same bound for unoptimized builds, where the credits are calls
/// with bounds checks. In 40 debug runs on a two-core host the single
/// rounds read a median of 37 ns per candidate (quartiles 25 and 42),
/// and the best of five reached 40.6: the debug cost itself, not noise,
/// sat on the old bound of 10 × [`ADDED_NS_PER_CANDIDATE_MAX`] = 40 ns
/// and failed one run in 40. Three times the measured debug cost leaves
/// room for a slower host and still fails a credit path that gets three
/// times dearer.
const DEBUG_ADDED_NS_PER_CANDIDATE_MAX: f64 = 120.0;

/// Collects a compare-heavy session: in every barrier interval each
/// thread sweeps the whole shared buffer tid-strided once per site, so
/// each tree holds `SITES` summarized strided nodes over the same
/// address range and the compare stage walks `SITES x SITES` candidate
/// pairs (all reaching the solver, none racing — tid-disjoint strides)
/// per concurrent tree pair.
fn collect(dir: &PathBuf) {
    const SWEEP: u64 = 8;
    let _ = std::fs::remove_dir_all(dir);
    run_collected(SwordConfig::new(dir), SimConfig::default(), |sim| {
        let a = sim.alloc::<u64>(SWEEP * THREADS as u64, 0);
        let pcs: Vec<_> = (0..SITES).map(|s| sim.intern_site("attribution.rs", s + 1)).collect();
        sim.run(|ctx| {
            ctx.parallel(THREADS, |w| {
                let tid = w.team_index();
                for _ in 0..INTERVALS {
                    for &pc in &pcs {
                        for k in 0..SWEEP {
                            w.write_pc(&a, k * THREADS as u64 + tid, 1, pc);
                        }
                    }
                    w.barrier();
                }
            });
        });
    })
    .expect("collection succeeds");
}

/// Compare-stage busy seconds and candidate pairs of one sequential
/// analysis, read from the stage row of a fresh `Obs`. Both sides of a
/// round carry one, so its per-solve timing cancels out of the
/// difference.
fn compare_secs(session: &SessionDir, attribute: bool) -> (f64, u64) {
    let obs = Obs::new();
    let mut config = AnalysisConfig::sequential().with_obs(obs.clone());
    let table = attribute.then(SiteTable::new);
    if let Some(table) = &table {
        config = config.with_site_attribution(table.clone());
    }
    let result = analyze(session, &config).expect("analysis succeeds");
    assert!(result.stats.candidate_pairs > 10_000, "compare stage must have real work");
    if let Some(table) = &table {
        // All attribution adds: one credit to each side of every
        // candidate pair and of every solve.
        let sites = table.snapshot();
        let credited = |f: fn(&sword::obs::SiteStats) -> u64| -> u64 {
            sites.iter().map(|(_, stats)| f(stats)).sum()
        };
        assert_eq!(credited(|s| s.pairs), 2 * result.stats.candidate_pairs);
        assert_eq!(credited(|s| s.solver_calls), 2 * result.stats.solver_calls);
    }
    let busy = obs.registry.counter("sword_stage_busy_nanos{stage=\"compare\"}", "").get();
    assert!(busy > 0, "compare stage recorded");
    let secs = busy as f64 / 1e9;
    (secs, result.stats.candidate_pairs)
}

#[test]
fn site_attribution_credits_twice_per_candidate_and_stays_cheap() {
    let dir = std::env::temp_dir().join(format!("sword-site-overhead-{}", std::process::id()));
    collect(&dir);
    let session = SessionDir::new(&dir);

    // Warm the page cache and code paths.
    compare_secs(&session, false);
    compare_secs(&session, true);

    let mut added_ns = Vec::with_capacity(ROUNDS);
    let mut shortest = f64::INFINITY;
    for _ in 0..ROUNDS {
        let (plain, _) = compare_secs(&session, false);
        let (attr, candidates) = compare_secs(&session, true);
        added_ns.push((attr - plain) * 1e9 / candidates as f64);
        shortest = shortest.min(plain);
    }
    std::fs::remove_dir_all(&dir).ok();
    eprintln!(
        "site attribution: added ns per candidate {added_ns:.1?}, shortest plain compare {:.1} ms",
        shortest * 1e3
    );
    assert!(
        cfg!(debug_assertions) || shortest >= MIN_MEASURED_SECS,
        "a {:.1} ms compare stage is too short to time; raise INTERVALS",
        shortest * 1e3
    );
    let best = added_ns.iter().copied().fold(f64::INFINITY, f64::min);
    let max = if cfg!(debug_assertions) {
        DEBUG_ADDED_NS_PER_CANDIDATE_MAX
    } else {
        ADDED_NS_PER_CANDIDATE_MAX
    };
    assert!(
        best <= max,
        "per-site attribution added more than {max} ns per candidate pair in every round \
         (ns per candidate {added_ns:.2?}, shortest plain compare stage {:.1} ms)",
        shortest * 1e3
    );
}
