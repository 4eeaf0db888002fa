//! The ARCHER baseline: a TSan-style happens-before race detector.
//!
//! ARCHER (the paper's comparison point) layers OpenMP synchronization
//! semantics over ThreadSanitizer's engine: vector clocks propagated
//! through fork/join, barriers, and lock release→acquire edges, and a
//! fixed **shadow memory** of four access cells per 8-byte application
//! word. This crate reimplements that engine as a [`sword_ompsim::Tool`]
//! so both detectors observe identical executions.
//!
//! The three failure modes the paper attributes to this design *emerge
//! from the implementation* rather than being scripted:
//!
//! * **memory ∝ footprint** — the shadow map grows with every distinct
//!   application word touched (4 cells ≈ 4× word bytes, before map
//!   overhead), which is what drives it out of memory on large inputs;
//!   an optional node-memory budget (`ArcherConfig::node_budget`: the
//!   bytes a model node leaves for application plus tool) kills the
//!   analysis mid-run exactly as the real tool is killed (Table IV's `OOM`);
//! * **eviction misses** — a fifth access to a word evicts a random cell
//!   (seeded RNG for reproducibility), losing e.g. the one write record
//!   among many reads (§II's example, DataRaceBench's
//!   `nowait`/`privatemissing`, the 10 extra AMG races);
//! * **happens-before masking** — a schedule-artifact release→acquire
//!   edge orders otherwise-racy accesses (Figure 1(b)), hiding the race
//!   from any HB detector.
//!
//! The `flush shadow` option (the paper's "archer-low") clears shadow
//! memory between independent top-level parallel regions, trading some
//! runtime for a smaller footprint.

#![forbid(unsafe_code)]

mod shadow;
mod tool;
mod vc;

pub use shadow::{ShadowCell, ShadowWord, CELLS_PER_WORD, MODELED_BYTES_PER_WORD};
pub use tool::{
    ArcherConfig, ArcherRace, ArcherStats, ArcherTool, EvictionPolicy, ARCHER_FIXED_BYTES,
};
pub use vc::VectorClock;
