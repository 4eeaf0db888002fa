//! Race hunt on the AMG2013 analog: the paper's headline comparison in
//! one program.
//!
//! ```text
//! cargo run --release --example amg_hunt
//! ```
//!
//! Runs the multigrid mini-app at the 20³ size under both detectors on a
//! 64 MB model node, then pushes the size to 40³ where ARCHER's
//! footprint-proportional shadow memory no longer fits — the run is
//! killed, as on the paper's 32 GB nodes — while SWORD's bounded
//! collection completes and reports all 14 races.

use std::sync::Arc;

use sword::archer::{ArcherConfig, ArcherTool};
use sword::obs::format_bytes;
use sword::offline::{analyze, AnalysisConfig};
use sword::ompsim::{OmpSim, SimConfig};
use sword::runtime::{run_collected, SwordConfig};
use sword::trace::SessionDir;
use sword::workloads::hpc::{amg_baseline_bytes, amg_workload};
use sword::workloads::{RunConfig, Workload};

/// The model node: 64 MB, of which 1/32 is reserved for system software.
const NODE_BYTES: u64 = 64 << 20;
const NODE_AVAILABLE: u64 = NODE_BYTES - NODE_BYTES / 32;

fn main() {
    let cfg = RunConfig { threads: 6, size: 0 };
    println!(
        "model node: {} total, {} available\n",
        format_bytes(NODE_BYTES),
        format_bytes(NODE_AVAILABLE)
    );

    for n in [20u64, 40] {
        let w = amg_workload(n);
        println!("=== AMG2013_{n} (baseline {}) ===", format_bytes(amg_baseline_bytes(n)));

        // ARCHER on the model node.
        let tool = Arc::new(ArcherTool::new(ArcherConfig {
            node_budget: Some(NODE_AVAILABLE),
            ..Default::default()
        }));
        let sim = OmpSim::with_tool(tool.clone());
        tool.attach_baseline_source(sim.footprint_handle());
        w.execute(&sim, &cfg);
        let stats = tool.stats();
        if stats.oom {
            println!(
                "  archer: OUT OF MEMORY after shadowing {} words ({} modeled)",
                stats.peak_shadow_words,
                format_bytes(stats.modeled_total_bytes())
            );
        } else {
            println!(
                "  archer: {} races, {} modeled tool memory",
                tool.races().len(),
                format_bytes(stats.modeled_total_bytes())
            );
        }

        // SWORD.
        let dir = std::env::temp_dir().join(format!("sword-example-amg{n}"));
        let _ = std::fs::remove_dir_all(&dir);
        let (_, collect) = run_collected(SwordConfig::new(&dir), SimConfig::default(), |sim| {
            w.execute(sim, &cfg);
        })
        .expect("collection");
        let result = analyze(&SessionDir::new(&dir), &AnalysisConfig::default()).expect("analysis");
        let _ = std::fs::remove_dir_all(&dir);
        println!(
            "  sword:  {} races, {} bounded collector memory, {} logs on disk",
            result.race_count(),
            format_bytes(collect.tool_memory_bytes),
            format_bytes(collect.compressed_bytes)
        );
        assert_eq!(result.race_count(), 14);
        if n == 40 {
            assert!(stats.oom, "ARCHER must OOM at 40^3 on this node");
            println!("\nAMG2013_40: only SWORD completes — the paper's Table IV row.");
        } else {
            assert_eq!(tool.races().len(), 4, "eviction hides 10 of the 14 from ARCHER");
        }
        println!();
    }
}
