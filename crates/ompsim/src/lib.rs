//! An OpenMP-like fork-join runtime with an OMPT-like tool interface.
//!
//! SWORD instruments OpenMP programs through two mechanisms the Rust
//! ecosystem does not have: an LLVM pass over loads/stores in parallel
//! regions, and the OMPT callback interface of the OpenMP runtime. This
//! crate is the substitution (see DESIGN.md): a fork-join runtime whose
//! *observable event structure* — parallel regions (including nested
//! ones), implicit and explicit barriers, worksharing with and without
//! `nowait`, critical sections and locks, atomics — matches what OMPT
//! exposes, plus *tracked memory* whose element accesses invoke the tool
//! callback exactly as instrumented loads/stores would.
//!
//! Key pieces:
//!
//! * [`OmpSim`] — the runtime; owns id allocation, the PC interner, the
//!   virtual address space, and the optional [`Tool`].
//! * [`Ctx`] — the per-thread execution context handed to region bodies;
//!   provides `parallel`, `barrier`, `for_static[_nowait]`, `critical`,
//!   `single`/`master`, tracked reads/writes and atomics.
//! * [`Tool`] — the OMPT-like callback surface implemented by the SWORD
//!   collector and the ARCHER baseline. Accesses reach it as runs of one
//!   context's consecutive accesses, as long as the tool asked for
//!   ([`Tool::max_run`]; 1 unless it says otherwise).
//! * [`ToolLocal`] — the OMPT `thread_data` analog: a per-context slot
//!   every callback receives, where a tool keeps the state only the
//!   running thread touches.
//! * [`TrackedBuf`] — tracked memory with *virtual* addresses, so declared
//!   footprints may exceed physical RAM (how we reproduce the paper's
//!   "90% of node memory" runs on a laptop-scale machine).
//! * [`Sequencer`] — deterministic cross-thread ordering used by workloads
//!   to pin the schedules of Figure 1 and the shadow-eviction example.
//!
//! Threads are pooled, ids and OS threads both, as a real OpenMP runtime
//! pools them. Worker ids are reused across successive parallel regions
//! (lowest first) — this is what keeps "one log file per thread" bounded
//! for workloads with hundreds of thousands of regions (LULESH). The OS
//! threads behind team slots `1..` stay parked between regions (hot
//! teams) and slot 0 runs on the forking thread, so such a workload pays
//! a hand-off per region, not a thread spawn per member.
//!
//! # Example
//!
//! ```
//! use sword_ompsim::OmpSim;
//!
//! let sim = OmpSim::new(); // untooled: a baseline run
//! let a = sim.alloc::<f64>(1000, 1.0);
//! let partials = sim.alloc::<f64>(4, 0.0);
//! let total = sim.alloc::<f64>(1, 0.0);
//! let sum = sim.run(|ctx| {
//!     let result = std::sync::Mutex::new(0.0);
//!     ctx.parallel(4, |w| {
//!         let mut local = 0.0;
//!         w.for_static_nowait(0..1000, |i| {
//!             local += w.read(&a, i);
//!         });
//!         let s = w.reduce_sum(&partials, &total, local);
//!         w.master(|| *result.lock().unwrap() = s);
//!     });
//!     result.into_inner().unwrap()
//! });
//! assert_eq!(sum, 1000.0);
//! ```

// One `unsafe` block, in `team_pool`, allowed there by name.
#![deny(unsafe_code)]

use std::sync::{Mutex, MutexGuard, PoisonError};

mod memory;
mod runtime;
mod sequencer;
mod team_pool;
mod tool;

pub use memory::{TrackedBuf, TrackedValue};
pub use runtime::{
    dynamic_chunks, guided_chunks, Ctx, DepMode, OmpLock, OmpSim, OrderedLoop, SimConfig,
};
pub use sequencer::Sequencer;
pub use sword_trace::{AccessKind, MemAccess, MutexId, PcId, RegionId, ThreadId};
pub use tool::{
    NullTool, ParallelBeginInfo, TaskCreateInfo, TaskUid, ThreadContext, Tool, ToolLocal,
};

/// Locks `mutex`, poisoned or not. User code runs under the runtime's
/// locks (`critical`, `ordered`), and a body that panics must not leave
/// the lock unusable for the next region or the next run.
fn lock<T: ?Sized>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(PoisonError::into_inner)
}
