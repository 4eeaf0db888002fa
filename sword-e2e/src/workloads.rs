//! The four benchmark workloads: what runs, at which size, and what the
//! analyzer must say about it.
//!
//! Every workload is a program over `sword_ompsim`; the harness runs it
//! untooled (baseline), under the collector (collect), and analyzes the
//! session it leaves behind. The expected verdicts below are written
//! down from the kernels' construction, never read back from the
//! analyzer.

use sword_ompsim::OmpSim;
use sword_workloads::{find_workload, RunConfig};

/// Team size of every workload. The sandbox has two cores; a wider team
/// would measure the scheduler, not the tool.
pub const THREADS: usize = 2;

/// Counts that identify the generated load. They do not depend on the
/// seed, so one row pins a workload for every seed; a drifted kernel
/// fails the run instead of silently measuring another load.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Fingerprint {
    /// Instrumented accesses logged (`SwordStats::events`).
    pub accesses: u64,
    /// Parallel regions observed.
    pub regions: u64,
    /// Barrier intervals (meta rows) across all threads.
    pub intervals: u64,
}

/// One benchmark workload.
#[derive(Clone, Copy, Debug)]
pub struct Workload {
    /// Name, as `BENCHMARK.json` lists it.
    pub name: &'static str,
    /// One line: which layers it makes the bound and which it bypasses.
    pub why: &'static str,
    /// The `sword_workloads` kernel to run, by name; `None` runs the
    /// seeded gather kernel of this file.
    pub suite_kernel: Option<&'static str>,
    /// Size knob at full scale: HPCCG grid edge `nx`, LULESH time steps
    /// (six regions each), gather iterations per round.
    pub size: u64,
    /// `--smoke` size: same code path, a fraction of a second.
    pub smoke_size: u64,
    /// Collect with watermark publishing and analyze with `LiveAnalyzer`
    /// over a staged replay, instead of one batch `analyze`.
    pub live: bool,
    /// The racy site pairs the verdict must equal, as `file:line`
    /// suffixes, each pair and the list in ascending order.
    pub expected_races: &'static [(&'static str, &'static str)],
    /// Pinned load at `size`.
    pub fingerprint: Fingerprint,
    /// Pinned load at `smoke_size`.
    pub smoke_fingerprint: Fingerprint,
}

impl Workload {
    /// The size knob for this run.
    pub fn size_for(&self, smoke: bool) -> u64 {
        if smoke {
            self.smoke_size
        } else {
            self.size
        }
    }

    /// The pinned load for this run.
    pub fn fingerprint_for(&self, smoke: bool) -> Fingerprint {
        if smoke {
            self.smoke_fingerprint
        } else {
            self.fingerprint
        }
    }

    /// Runs the program once on `sim`. Only the gather kernel draws on
    /// `seed`: the HPC analogs are fixed computations with no random
    /// input.
    pub fn execute(&self, sim: &OmpSim, seed: u64, smoke: bool) {
        let size = self.size_for(smoke);
        match self.suite_kernel {
            Some(name) => {
                let kernel = find_workload(name).expect("sword-workloads ships the HPC analogs");
                kernel.execute(sim, &RunConfig { threads: THREADS, size });
            }
            None => run_scatter(sim, size, seed),
        }
    }

    /// Races the suite documents for this kernel, where the suite knows
    /// it (`WorkloadSpec::sword_races`); the second, independent witness
    /// beside [`Workload::expected_races`].
    pub fn suite_race_count(&self) -> Option<usize> {
        self.suite_kernel.and_then(find_workload).map(|w| w.spec().sword_races)
    }
}

/// The HPCCG race: every thread stores the residual norm into one cell.
const HPCCG_NORM_WRITE: &str = "hpccg.rs:108";

/// Site file and ids of the gather kernel's four explicit sites.
const SCATTER_FILE: &str = "scatter_irregular";
const SITE_GATHER: u32 = 1;
const SITE_SLOT: u32 = 2;
const SITE_SHARED_READ: u32 = 3;
const SITE_SHARED_WRITE: u32 = 4;

/// Gather rounds of the scatter kernel.
const SCATTER_ROUNDS: u64 = 4;

/// Marsaglia xorshift64: the harness's only random source.
fn xorshift(state: &mut u64) -> u64 {
    *state ^= *state << 13;
    *state ^= *state >> 7;
    *state ^= *state << 17;
    *state
}

/// Irregular gather: `rounds` sweeps of `dst[i] = src[idx[i]]` over a
/// seeded index table as large as the iteration space, then one
/// unsynchronised read-modify-write of a shared cell per thread and
/// round.
///
/// The gather addresses are random, so neither the event encoder's
/// deltas nor the codec find much to remove and the interval trees keep
/// about one node per gather access: the one load on which the codec,
/// the writer, tree growth and the compare walk do real work. The gather
/// itself is race-free (reads of `src`, and each iteration owns
/// `dst[i]`); the shared cell races read↔write and write↔write by
/// construction.
fn run_scatter(sim: &OmpSim, n: u64, seed: u64) {
    let table = n.next_power_of_two();
    // Spread small seeds over the word; the state must not be zero.
    let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
    let idx: Vec<u32> = (0..n).map(|_| (xorshift(&mut state) & (table - 1)) as u32).collect();

    let src = sim.alloc::<u64>(table, 1);
    let dst = sim.alloc::<u64>(n, 0);
    let shared = sim.alloc::<u64>(1, 0);
    let gather = sim.intern_site(SCATTER_FILE, SITE_GATHER);
    let slot = sim.intern_site(SCATTER_FILE, SITE_SLOT);
    let shared_read = sim.intern_site(SCATTER_FILE, SITE_SHARED_READ);
    let shared_write = sim.intern_site(SCATTER_FILE, SITE_SHARED_WRITE);

    sim.run(|ctx| {
        ctx.parallel(THREADS, |w| {
            for round in 0..SCATTER_ROUNDS {
                w.for_static(0..n, |i| {
                    let v = w.read_pc(&src, idx[i as usize] as u64, gather);
                    w.write_pc(&dst, i, v + round, slot);
                });
                let seen = w.read_pc(&shared, 0, shared_read);
                w.write_pc(&shared, 0, seen + 1, shared_write);
            }
        });
    });
    std::hint::black_box(dst.get_seq(0));
}

const STENCIL_WHY: &str = "Regular strided accesses: encode and tree-build/decode carry the work; \
     the log compresses >50x and trees summarise, so codec, structure and solver changes predict no move.";

/// The workloads, in the order `BENCHMARK.json` lists them.
pub const WORKLOADS: [Workload; 4] = [
    Workload {
        name: "stencil_dense",
        why: STENCIL_WHY,
        suite_kernel: Some("HPCCG"),
        size: 56,
        smoke_size: 8,
        live: false,
        expected_races: &[(HPCCG_NORM_WRITE, HPCCG_NORM_WRITE)],
        fingerprint: Fingerprint { accesses: 29_880_008, regions: 1, intervals: 148 },
        smoke_fingerprint: Fingerprint { accesses: 84_680, regions: 1, intervals: 148 },
    },
    Workload {
        name: "many_regions",
        why: "The paper's LULESH shape: thousands of small regions, so build_structure and label \
              compares dominate analyze and collect is fork/join plus small flushes; tree-build, codec and solver idle.",
        suite_kernel: Some("LULESH"),
        size: 240,
        smoke_size: 10,
        live: false,
        expected_races: &[],
        fingerprint: Fingerprint { accesses: 2_094_240, regions: 1_440, intervals: 6_720 },
        smoke_fingerprint: Fingerprint { accesses: 87_260, regions: 60, intervals: 280 },
    },
    Workload {
        name: "scatter_irregular",
        why: "Seeded random gather: the only log that is real bytes (ratio <2x) and the only trees \
              that do not summarise, so codec, writer, read, tree growth, analyzer memory and the compare walk do the work.",
        suite_kernel: None,
        size: 3 << 17,
        smoke_size: 3 << 10,
        live: false,
        expected_races: &[
            ("scatter_irregular:3", "scatter_irregular:4"),
            ("scatter_irregular:4", "scatter_irregular:4"),
        ],
        fingerprint: Fingerprint { accesses: 3_145_744, regions: 1, intervals: 10 },
        smoke_fingerprint: Fingerprint { accesses: 24_592, regions: 1, intervals: 10 },
    },
    Workload {
        name: "stencil_live",
        why: "stencil_dense collected with watermark publishing and analysed by incremental polls: \
              a batch-side gain that costs the live path shows here only; a batch-only change predicts no move.",
        suite_kernel: Some("HPCCG"),
        size: 56,
        smoke_size: 8,
        live: true,
        expected_races: &[(HPCCG_NORM_WRITE, HPCCG_NORM_WRITE)],
        fingerprint: Fingerprint { accesses: 29_880_008, regions: 1, intervals: 148 },
        smoke_fingerprint: Fingerprint { accesses: 84_680, regions: 1, intervals: 148 },
    },
];

/// Looks a workload up by its exact name.
pub fn find(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}
