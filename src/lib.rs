//! # sword-rs — bounded memory-overhead data race detection
//!
//! A Rust reproduction of *SWORD: A Bounded Memory-Overhead Detector of
//! OpenMP Data Races in Production Runs* (Atzeni et al., IPDPS 2018),
//! complete with the runtime substrate it needs and the ARCHER baseline
//! it is evaluated against. See `DESIGN.md` for the system inventory and
//! `EXPERIMENTS.md` for the paper-vs-measured record.
//!
//! ## Quick start
//!
//! ```
//! use std::sync::Arc;
//! use sword::ompsim::{OmpSim, SimConfig};
//! use sword::runtime::{run_collected, SwordConfig};
//! use sword::offline::{analyze, AnalysisConfig};
//! use sword::trace::SessionDir;
//!
//! let dir = std::env::temp_dir().join("sword-doc-quickstart");
//! let _ = std::fs::remove_dir_all(&dir);
//!
//! // 1. Run an instrumented program under the SWORD collector.
//! run_collected(SwordConfig::new(&dir), SimConfig::default(), |sim| {
//!     let a = sim.alloc::<i64>(100, 0);
//!     sim.run(|ctx| {
//!         ctx.parallel(2, |w| {
//!             // a[i] = a[i-1]: a loop-carried dependence — a data race.
//!             w.for_static(1..100, |i| {
//!                 let prev = w.read(&a, i - 1);
//!                 w.write(&a, i, prev + 1);
//!             });
//!         });
//!     });
//! })
//! .unwrap();
//!
//! // 2. Analyze the collected session offline.
//! let result = analyze(&SessionDir::new(&dir), &AnalysisConfig::sequential()).unwrap();
//! assert_eq!(result.race_count(), 1);
//! # let _ = Arc::new(0); // keep the import exercised
//! # std::fs::remove_dir_all(&dir).unwrap();
//! ```
//!
//! ## Crate map
//!
//! | module | crate | role |
//! |---|---|---|
//! | [`osl`] | `sword-osl` | offset-span labels (§II) |
//! | [`itree`] | `sword-itree` | augmented red-black interval trees (§III-B) |
//! | [`solver`] | `sword-solver` | strided-overlap constraint solving (§III-B) |
//! | [`compress`] | `sword-compress` | LZ block compression for logs (§III-A) |
//! | [`trace`] | `sword-trace` | event encoding, log + meta-data files (§III-A) |
//! | [`ompsim`] | `sword-ompsim` | OpenMP-like runtime + OMPT-like tool interface |
//! | [`runtime`] | `sword-runtime` | the online collector (§III-A) |
//! | [`offline`] | `sword-offline` | the offline race analyzer (§III-B) |
//! | [`archer`] | `archer-sim` | the ARCHER/TSan happens-before baseline |
//! | [`workloads`] | `sword-workloads` | DRB / OmpSCR / HPC benchmark suites (§IV) |
//! | [`obs`] | `sword-obs` | span journal, metrics registry, Chrome trace export, run reports |
//! | [`fuzz`] | `sword-fuzz-gen` | generative differential testing: program fuzzer, race oracle, fault injection |

#![forbid(unsafe_code)]

pub use archer_sim as archer;
pub use sword_compress as compress;
pub use sword_fuzz_gen as fuzz;
pub use sword_itree as itree;
pub use sword_obs as obs;
pub use sword_offline as offline;
pub use sword_ompsim as ompsim;
pub use sword_osl as osl;
pub use sword_runtime as runtime;
pub use sword_solver as solver;
pub use sword_trace as trace;
pub use sword_workloads as workloads;
