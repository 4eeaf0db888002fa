//! Ground-truth validation: every workload is executed under both
//! detectors, and the observed race counts must match its spec — SWORD
//! exactly, ARCHER exactly where the spec pins a schedule (and never more
//! than SWORD elsewhere). No false alarms on race-free kernels by
//! construction of the specs.

use std::path::PathBuf;
use std::sync::Arc;

use archer_sim::{ArcherConfig, ArcherTool};
use sword_offline::{analyze, AnalysisConfig};
use sword_ompsim::{OmpSim, SimConfig};
use sword_runtime::{run_collected, SwordConfig, SwordStats};
use sword_trace::SessionDir;
use sword_workloads::{
    drb_workloads, hpc_workloads, ompscr_workloads, tasking_workloads, RunConfig, Workload,
};

/// Collects `w` into a fresh session directory named by `tag`, the
/// workload and the process, so tests running in parallel never share one.
fn collect(w: &dyn Workload, cfg: &RunConfig, tag: &str) -> (PathBuf, SwordStats) {
    let dir: PathBuf = std::env::temp_dir().join(format!(
        "sword-{tag}-{}-{}",
        w.spec().name.replace(['.', '/'], "_"),
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    let (_, stats) = run_collected(SwordConfig::new(&dir), SimConfig::default(), |sim| {
        w.execute(sim, cfg);
    })
    .expect("collection");
    (dir, stats)
}

fn sword_count(w: &dyn Workload, cfg: &RunConfig) -> usize {
    let (dir, _) = collect(w, cfg, "wl");
    let result = analyze(&SessionDir::new(&dir), &AnalysisConfig::sequential()).expect("analysis");
    std::fs::remove_dir_all(&dir).unwrap();
    for race in &result.races {
        eprintln!("[{}] sword: {:?}", w.spec().name, race.key);
    }
    result.race_count()
}

fn archer_count(w: &dyn Workload, cfg: &RunConfig) -> usize {
    let tool = Arc::new(ArcherTool::new(ArcherConfig::default()));
    let sim = OmpSim::with_tool(tool.clone());
    w.execute(&sim, cfg);
    tool.races().len()
}

fn check_suite(workloads: Vec<Box<dyn Workload>>, cfg: &RunConfig) {
    let mut failures = Vec::new();
    for w in &workloads {
        let spec = w.spec();
        let sword = sword_count(w.as_ref(), cfg);
        let archer = archer_count(w.as_ref(), cfg);
        if sword != spec.sword_races {
            failures.push(format!(
                "{}: sword found {} races, spec says {}",
                spec.name, sword, spec.sword_races
            ));
        }
        match spec.archer_races {
            Some(expected) if archer != expected => {
                failures.push(format!(
                    "{}: archer found {} races, spec says {}",
                    spec.name, archer, expected
                ));
            }
            None if archer > sword => {
                failures.push(format!("{}: archer found {} > sword {}", spec.name, archer, sword));
            }
            _ => {}
        }
    }
    assert!(failures.is_empty(), "\n{}", failures.join("\n"));
}

#[test]
fn datarace_bench_suite_matches_ground_truth() {
    check_suite(drb_workloads(), &RunConfig::small());
}

#[test]
fn tasking_suite_matches_ground_truth() {
    check_suite(tasking_workloads(), &RunConfig::small());
}

#[test]
fn tasking_detection_is_thread_count_robust() {
    // Task creation is gated to the master thread, so the ground truth
    // must hold unchanged at 2 and 8 threads.
    for threads in [2, 8] {
        check_suite(tasking_workloads(), &RunConfig::with_threads(threads));
    }
}

#[test]
fn ompscr_suite_matches_ground_truth() {
    check_suite(ompscr_workloads(), &RunConfig::small());
}

#[test]
fn hpc_suite_matches_ground_truth() {
    check_suite(hpc_workloads(), &RunConfig { threads: 6, size: 0 });
}

/// Table IV / Figure 8 core behaviour: on a 64 MB model node, ARCHER
/// completes AMG at sizes 10–30 reporting 4 races with memory that grows
/// with the grid, and runs out of memory at 40; SWORD's bounded
/// collection fits the node at every size and reports 14.
#[test]
fn amg_scaling_archer_ooms_sword_survives() {
    use sword_workloads::hpc::{amg_baseline_bytes, amg_workload};
    const NODE: u64 = 64 << 20;
    let cfg = RunConfig { threads: 6, size: 0 };

    let mut archer_before = 0;
    for n in [10u64, 30, 40] {
        let w = amg_workload(n);
        // ARCHER under the node budget.
        let tool = Arc::new(ArcherTool::new(ArcherConfig {
            node_budget: Some(NODE),
            ..Default::default()
        }));
        let sim = OmpSim::with_tool(tool.clone());
        tool.attach_baseline_source(sim.footprint_handle());
        w.execute(&sim, &cfg);
        let stats = tool.stats();
        if n < 40 {
            assert!(!stats.oom, "AMG_{n}: archer must fit ({} modeled)", stats.modeled_tool_bytes);
            assert_eq!(tool.races().len(), 4, "AMG_{n}: archer sees the 4 counter races");
            let archer = stats.modeled_total_bytes();
            assert!(archer > archer_before, "AMG_{n}: archer memory {archer} B must grow");
            archer_before = archer;
        } else {
            assert!(
                stats.oom,
                "AMG_40 must exceed the node: baseline {} + tool {}",
                amg_baseline_bytes(n),
                stats.modeled_tool_bytes
            );
        }

        // SWORD fits and completes every size and finds all 14 races.
        let sword_mem = collector_memory(&w, &cfg);
        assert!(amg_baseline_bytes(n) + sword_mem <= NODE, "AMG_{n}: sword {sword_mem} B must fit");
        let sword = sword_count(&w, &cfg);
        assert_eq!(sword, 14, "AMG_{n}: sword race count");
    }
}

/// The collector's measured tool memory (`SwordStats::tool_memory_bytes`).
fn collector_memory(w: &dyn Workload, cfg: &RunConfig) -> u64 {
    let (dir, stats) = collect(w, cfg, "mem");
    std::fs::remove_dir_all(&dir).unwrap();
    stats.tool_memory_bytes
}

/// ARCHER's modeled peak: its fixed runtime arena plus the shadow and
/// clock state of every word the run touched.
fn archer_memory(w: &dyn Workload, cfg: &RunConfig, flush_shadow: bool) -> u64 {
    let tool = Arc::new(ArcherTool::new(ArcherConfig { flush_shadow, ..Default::default() }));
    let sim = OmpSim::with_tool(tool.clone());
    w.execute(&sim, cfg);
    tool.stats().modeled_total_bytes()
}

/// Figures 6 and 7: SWORD's collector memory is a per-thread constant,
/// ARCHER's grows with the footprint on top of a fixed arena. So on every
/// Figure 7 code the collector stays below ARCHER, and over the OmpSCR
/// suite its geometric mean stays below both ARCHER configurations'.
#[test]
fn collector_memory_stays_below_archers_figures_6_and_7() {
    use sword_workloads::hpc::amg_workload;
    let geomean = |v: &[f64]| (v.iter().map(|x| x.ln()).sum::<f64>() / v.len() as f64).exp();
    let mut fig7: Vec<Box<dyn Workload>> =
        hpc_workloads().into_iter().filter(|w| !w.spec().name.starts_with("AMG")).collect();
    fig7.push(Box::new(amg_workload(20)));
    for threads in [2, 4, 8] {
        let cfg = RunConfig::with_threads(threads);
        let (mut sword, mut archer, mut archer_low) = (vec![], vec![], vec![]);
        for w in ompscr_workloads() {
            sword.push(collector_memory(w.as_ref(), &cfg) as f64);
            archer.push(archer_memory(w.as_ref(), &cfg, false) as f64);
            archer_low.push(archer_memory(w.as_ref(), &cfg, true) as f64);
        }
        let (s, a, low) = (geomean(&sword), geomean(&archer), geomean(&archer_low));
        assert!(s < a && s < low, "Figure 6, {threads} threads: sword {s} vs archer {a}/{low}");

        for w in &fig7 {
            let sword = collector_memory(w.as_ref(), &cfg);
            let archer = archer_memory(w.as_ref(), &cfg, false);
            assert!(
                sword < archer,
                "Figure 7, {} at {threads} threads: sword {sword} B, archer {archer} B",
                w.spec().name
            );
        }
    }
}

#[test]
fn drb_detection_is_thread_count_robust() {
    // The pinned kernels must keep their ground truth at a different team
    // size (8 threads ≈ the paper's smallest configuration).
    let racy: Vec<_> = drb_workloads()
        .into_iter()
        .filter(|w| {
            matches!(
                w.spec().name,
                "nowait-orig-yes" | "privatemissing-orig-yes" | "plusplus-orig-yes"
            )
        })
        .collect();
    check_suite(racy, &RunConfig::with_threads(8));
}
