//! The paper's closing scenario: race-checking a production run that
//! fills ~90% of node memory.
//!
//! ```text
//! cargo run --release --example production_run
//! ```
//!
//! A solver state array with a declared footprint of 230 MB runs on a
//! 256 MB model node (≈90% utilization — the regime the paper's abstract
//! highlights). A shadow-memory detector needs multiples of the
//! application footprint and is killed immediately; SWORD's collector
//! stays within its ~MB bound, the run completes, and the offline
//! analysis reports the planted race — printed as the JSON report a CI
//! system would consume.

use std::sync::Arc;

use sword::archer::{ArcherConfig, ArcherTool};
use sword::obs::format_bytes;
use sword::offline::{analyze_loaded, AnalysisConfig, LoadedSession};
use sword::ompsim::{OmpSim, SimConfig};
use sword::runtime::{run_collected, SwordConfig};
use sword::trace::SessionDir;

const DECLARED_ELEMS: u64 = 30_000_000; // 30M f64 = 240 MB declared
const REAL_BACKING: usize = 1 << 15;
const TOUCH_STRIDE: u64 = 64; // sparse refresh pass over the state

/// The model node: 256 MB, of which 1/32 is reserved for system software.
const NODE_BYTES: u64 = 256 << 20;
const NODE_AVAILABLE: u64 = NODE_BYTES - NODE_BYTES / 32;

fn production_program(sim: &OmpSim) {
    let state = sim.alloc_phantom::<f64>(DECLARED_ELEMS, REAL_BACKING, 1.0);
    let residual = sim.alloc::<f64>(1, 0.0);
    sim.run(|ctx| {
        ctx.parallel(6, |w| {
            // Refresh pass over the (huge) state: every 64th element.
            w.for_static(0..DECLARED_ELEMS / TOUCH_STRIDE, |k| {
                let i = k * TOUCH_STRIDE;
                let v = w.read(&state, i);
                w.write(&state, i, v * 0.999 + 0.001);
            });
            // The bug: an unprotected residual update.
            let v = w.read(&residual, 0);
            w.write(&residual, 0, v + 1.0);
            w.barrier();
        });
    });
}

fn main() {
    let baseline = DECLARED_ELEMS * 8;
    println!(
        "node: {} ({} available) — application state: {} ({}% of node)\n",
        format_bytes(NODE_BYTES),
        format_bytes(NODE_AVAILABLE),
        format_bytes(baseline),
        baseline * 100 / NODE_BYTES
    );

    // Shadow-memory detector on this node: killed.
    let tool = Arc::new(ArcherTool::new(ArcherConfig {
        node_budget: Some(NODE_AVAILABLE),
        ..Default::default()
    }));
    let sim = OmpSim::with_tool(tool.clone());
    tool.attach_baseline_source(sim.footprint_handle());
    production_program(&sim);
    let stats = tool.stats();
    assert!(stats.oom, "90% utilization leaves no room for shadow memory");
    println!(
        "archer: OUT OF MEMORY ({} modeled tool bytes on top of the baseline)\n",
        format_bytes(stats.modeled_total_bytes())
    );

    // SWORD: bounded collection completes; the session is analyzed
    // offline, where memory pressure no longer matters.
    let dir = std::env::temp_dir().join("sword-example-production");
    let _ = std::fs::remove_dir_all(&dir);
    let (_, collect) = run_collected(SwordConfig::new(&dir), SimConfig::default(), |sim| {
        production_program(sim);
    })
    .expect("collection");
    assert!(baseline + collect.tool_memory_bytes <= NODE_AVAILABLE, "the run fits the node");
    println!(
        "sword: completed — {} events, {} bounded collector memory, {} logs on disk",
        collect.events,
        format_bytes(collect.tool_memory_bytes),
        format_bytes(collect.compressed_bytes)
    );

    let session = SessionDir::new(&dir);
    let loaded = LoadedSession::load(&session).expect("load");
    let result = analyze_loaded(&loaded, &AnalysisConfig::default()).expect("analysis");
    println!("\noffline report (JSON):\n{}", sword::offline::render_json(&result, &loaded.pcs));
    let _ = std::fs::remove_dir_all(&dir);
    assert_eq!(result.race_count(), 2, "the residual read-write and write-write pairs");
}
