//! Per-site attribution must stay in the compare stage's noise floor.
//! Every analysis with an attached [`Obs`] attributes its compare work to
//! source sites: two dense-Vec index-and-add credits per candidate pair,
//! and two more per solve, in an otherwise lock-free worker accumulator,
//! added to the registry once when the result is taken. This test pins
//! that **by count**, in every profile: the registry's
//! `sword_site_pairs_total` and `sword_site_solver_calls_total` rows are
//! exactly `2 x candidate_pairs` and `2 x solver_calls` — attribution
//! does nothing else per pair.
//!
//! The cost **by time** is pinned where the credits are made:
//! `race::tests::site_attribution_adds_a_few_ns_per_candidate` in
//! `sword-offline` times `check_pair` with and without a `SiteCounters`
//! over this workload's shape (under 4 ns added per candidate pair in
//! optimized builds).

use std::path::PathBuf;

use sword::obs::Obs;
use sword::offline::{analyze, AnalysisConfig};
use sword::ompsim::SimConfig;
use sword::runtime::{run_collected, SwordConfig};
use sword::trace::SessionDir;

const THREADS: usize = 4;
const SITES: u32 = 96;
/// Barrier intervals collected.
const INTERVALS: u64 = 4;

/// Collects a compare-heavy session: in every barrier interval each
/// thread sweeps the whole shared buffer tid-strided once per site, so
/// each tree holds `SITES` summarized strided nodes over the same
/// address range and the compare stage walks `SITES x SITES` candidate
/// pairs (none racing — tid-disjoint strides) per concurrent tree pair.
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

#[test]
fn site_attribution_credits_twice_per_candidate() {
    let dir = std::env::temp_dir().join(format!("sword-site-overhead-{}", std::process::id()));
    collect(&dir);
    let obs = Obs::new();
    let config = AnalysisConfig::sequential().with_workers(2).with_obs(obs.clone());
    let result = analyze(&SessionDir::new(&dir), &config).expect("analysis succeeds");
    std::fs::remove_dir_all(&dir).ok();
    assert!(result.stats.candidate_pairs > 10_000, "compare stage must have real work");
    let rows = obs.registry.snapshot();
    let row = |name: &str| rows.iter().find(|(k, _)| k == name).map(|(_, v)| *v as u64);
    // All attribution adds: one credit to each side of every candidate
    // pair and of every solve.
    assert_eq!(row("sword_site_pairs_total"), Some(2 * result.stats.candidate_pairs));
    assert_eq!(row("sword_site_solver_calls_total"), Some(2 * result.stats.solver_calls));
    let sites = rows.iter().filter(|(k, _)| k.starts_with("sword_site_pairs{")).count();
    assert_eq!(sites, SITES as usize, "one row per site");
}
