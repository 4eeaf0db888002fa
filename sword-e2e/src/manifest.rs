//! The metric vocabulary, and `BENCHMARK.json` rendered from it.
//!
//! The tables here are the single definition of every metric name, unit,
//! direction and regression bound. `BENCHMARK.json` at the repository
//! root is `sword-e2e --emit-manifest` verbatim; the package's test
//! fails when the two drift apart.

use crate::workloads::WORKLOADS;

/// Seconds one run measures (`run_seconds` of `BENCHMARK.json`).
pub const RUN_SECONDS: u64 = 25;

/// An end-to-end metric: something a user of the detector sees.
pub struct EndToEnd {
    /// Name, unique across both tables.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Share of the parent's median by which the metric may worsen
    /// before a change counts as a regression.
    pub bound: f64,
}

/// End-to-end metrics, all lower-is-better, reported per workload.
pub const END_TO_END: [EndToEnd; 6] = [
    EndToEnd { name: "collect_wall_s", unit: "s", bound: 0.25 },
    EndToEnd { name: "collect_mem_bytes_per_thread", unit: "B", bound: 0.01 },
    EndToEnd { name: "log_bytes_per_access", unit: "B", bound: 0.01 },
    EndToEnd { name: "analyze_wall_s", unit: "s", bound: 0.25 },
    EndToEnd { name: "analyze_peak_rss_bytes", unit: "B", bound: 0.10 },
    EndToEnd { name: "setup_s", unit: "s", bound: 0.25 },
];

/// A per-layer metric: `<layer>.<metric>`, the layer being the crate
/// whose public functions the span or count was taken around.
pub struct PerLayer {
    /// Name, unique across both tables.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// `true` when a larger value is the better one.
    pub higher_is_better: bool,
}

const fn lower(name: &'static str, unit: &'static str) -> PerLayer {
    PerLayer { name, unit, higher_is_better: false }
}

const fn higher(name: &'static str, unit: &'static str) -> PerLayer {
    PerLayer { name, unit, higher_is_better: true }
}

/// Per-layer metrics, in pipeline order. Counts are "lower is better" in
/// the sense that less work for the same verdict is an improvement.
pub const PER_LAYER: [PerLayer; 51] = [
    lower("ompsim.baseline_wall_s", "s"),
    lower("ompsim.accesses", "count"),
    lower("ompsim.regions", "count"),
    lower("sword-runtime.slowdown_x", "x"),
    lower("sword-runtime.collect_ns_per_access", "ns"),
    lower("sword-runtime.flushes", "count"),
    lower("sword-runtime.app_stall_s", "s"),
    lower("sword-runtime.compress_busy_s", "s"),
    lower("sword-runtime.write_busy_s", "s"),
    lower("sword-runtime.raw_bytes", "B"),
    lower("sword-runtime.compressed_bytes", "B"),
    lower("sword-runtime.peak_rss_delta_bytes", "B"),
    lower("trace.encode_ns_per_event", "ns"),
    lower("trace.decode_ns_per_event", "ns"),
    lower("trace.raw_bytes_per_event", "B"),
    higher("trace.read_mb_s", "MB/s"),
    higher("compress.compress_mb_s", "MB/s"),
    higher("compress.decompress_mb_s", "MB/s"),
    higher("compress.ratio", "x"),
    lower("sword-offline.load_s", "s"),
    lower("sword-offline.intervals", "count"),
    lower("sword-offline.structure_s", "s"),
    lower("sword-offline.groups", "count"),
    lower("sword-offline.tasks", "count"),
    lower("sword-offline.region_pairs_considered", "count"),
    lower("sword-offline.region_pairs_skipped", "count"),
    lower("sword-offline.structure_ns_per_region_pair", "ns"),
    higher("sword-offline.region_verdict_hit_rate", "ratio"),
    lower("sword-offline.tree_build_s", "s"),
    lower("sword-offline.tree_build_ns_per_event", "ns"),
    lower("sword-offline.nodes", "count"),
    lower("sword-offline.nodes_per_event", "ratio"),
    lower("sword-offline.trees_built", "count"),
    lower("sword-offline.tree_rebuild_x", "x"),
    lower("itree.insert_ns_per_node", "ns"),
    lower("itree.walk_ns_per_candidate", "ns"),
    lower("itree.arena_bytes", "B"),
    lower("solver.pairs", "count"),
    lower("solver.solve_ns_per_pair", "ns"),
    higher("solver.closed_form_share", "ratio"),
    lower("osl.pairs", "count"),
    lower("osl.compare_ns_per_pair", "ns"),
    lower("sword-offline.candidate_pairs", "count"),
    lower("sword-offline.solver_calls", "count"),
    lower("sword-offline.prescreened_pairs", "count"),
    lower("sword-offline.races", "count"),
    lower("sword-offline.workers1_wall_s", "s"),
    higher("sword-offline.parallel_efficiency", "ratio"),
    lower("sword-offline.live_polls", "count"),
    lower("sword-offline.live_first_race_s", "s"),
    higher("ledger.coverage", "ratio"),
];

/// Counts that must repeat exactly across the samples of a run: the
/// program's own work, independent of timing and scheduling.
pub const EXACT_REPEAT: [&str; 7] = [
    "ompsim.accesses",
    "ompsim.regions",
    "sword-offline.intervals",
    "sword-offline.nodes",
    "sword-offline.candidate_pairs",
    "sword-offline.solver_calls",
    "sword-offline.races",
];

/// The unit of a metric of either table.
pub fn unit_of(name: &str) -> Option<&'static str> {
    END_TO_END
        .iter()
        .map(|m| (m.name, m.unit))
        .chain(PER_LAYER.iter().map(|m| (m.name, m.unit)))
        .find(|(n, _)| *n == name)
        .map(|(_, unit)| unit)
}

/// Quotes `s` as a JSON string (the harness writes only ASCII names and
/// prose, so escaping the two structural characters is complete).
pub fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Renders `BENCHMARK.json`.
pub fn render() -> String {
    let better = |higher: bool| if higher { "higher" } else { "lower" };
    let rows = |rows: Vec<String>| rows.join(",\n");
    let workloads = rows(
        WORKLOADS
            .iter()
            .map(|w| {
                format!(
                    "    {{\"name\": {}, \"why\": {}}}",
                    json_string(w.name),
                    json_string(w.why)
                )
            })
            .collect(),
    );
    let end_to_end = rows(
        END_TO_END
            .iter()
            .map(|m| {
                format!(
                    "    {{\"name\": {}, \"unit\": {}, \"better\": \"lower\", \"bound\": {}}}",
                    json_string(m.name),
                    json_string(m.unit),
                    m.bound
                )
            })
            .collect(),
    );
    let per_layer = rows(
        PER_LAYER
            .iter()
            .map(|m| {
                format!(
                    "    {{\"name\": {}, \"unit\": {}, \"better\": \"{}\"}}",
                    json_string(m.name),
                    json_string(m.unit),
                    better(m.higher_is_better)
                )
            })
            .collect(),
    );
    format!(
        "{{\n  \"command\": [\"cargo\", \"run\", \"--release\", \"--quiet\", \"--offline\", \"--manifest-path\", \
         \"sword-e2e/Cargo.toml\", \"--\"],\n  \"paths\": [\"sword-e2e\"],\n  \"run_seconds\": {RUN_SECONDS},\n  \
         \"workloads\": [\n{workloads}\n  ],\n  \"end_to_end\": [\n{end_to_end}\n  ],\n  \
         \"per_layer\": [\n{per_layer}\n  ]\n}}\n"
    )
}
