//! The per-layer cost ledger: one serial replay of the pipeline through
//! each layer crate's public functions, with the harness's own spans
//! around the calls.
//!
//! The replay runs on the session a `collect` child just wrote. Layer
//! prefixes name crates; a number under one prefix is never compared
//! with a number under another (see the README's interaction table for
//! which end-to-end metric each should move, and on which workload).

use std::io;

use sword_compress::{encode_frame_into, parse_frame, Compressor};
use sword_itree::{for_each_candidate_pair_fp, IntervalTree, StridedInterval};
use sword_offline::build::{BiTree, ReaderPool, DEFAULT_CHUNK_BYTES};
use sword_offline::intervals::{build_structure_with, Task};
use sword_offline::{LoadedSession, VerdictCache};
use sword_osl::Label;
use sword_solver::{congruence_admissible, solve_tiered, Tier};
use sword_trace::{
    Event, EventDecoder, EventEncoder, LogSource, MappedLog, SessionDir, SourceStats,
};

use crate::phases::PhaseOutput;
use crate::spans::Recorder;

/// What the child phases of a traced pass reported.
pub struct ChildReports {
    /// Untooled run.
    pub baseline: PhaseOutput,
    /// Collection run that wrote the session.
    pub collect: PhaseOutput,
    /// The workload's end-to-end analysis (two workers; live replay on
    /// the live workload).
    pub analyze: PhaseOutput,
    /// Batch analysis of the same session with one worker.
    pub workers1: PhaseOutput,
}

fn invalid(msg: String) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg)
}

/// `num / den`, or 0 when the layer did no such work on this workload.
fn per(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// Replays `session` layer by layer under `rec` and returns every
/// per-layer metric of `manifest::PER_LAYER`, in that order.
pub fn replay(
    rec: &mut Recorder,
    session: &SessionDir,
    children: &ChildReports,
) -> Result<Vec<(&'static str, f64)>, String> {
    // The root span's self time is the replay's own glue: materialising
    // byte ranges for the codec passes and the cross-checks.
    rec.span("ledger", "replay", |rec| replay_io(rec, session, children))
        .map_err(|e| format!("ledger replay: {e}"))
}

fn replay_io(
    rec: &mut Recorder,
    dir: &SessionDir,
    children: &ChildReports,
) -> io::Result<Vec<(&'static str, f64)>> {
    let child = |out: &PhaseOutput, key: &str| out.get(key).map_err(invalid);
    let ChildReports { baseline, collect, analyze, workers1 } = children;

    // ---- sword-offline: load ---------------------------------------------
    let loaded = rec.span("sword-offline", "load", |_| LoadedSession::load(dir))?;
    let intervals = loaded.interval_count() as f64;

    // ---- trace: read (open + frame index + decompress into slices) -------
    let mut read_bytes = 0u64;
    for (tid, rows) in &loaded.threads {
        rec.span("trace", "read", |_| {
            let mut log = MappedLog::open(&dir.thread_log(*tid), SourceStats::new())?;
            for row in rows {
                log.read_range_with(row.data_begin, row.size, DEFAULT_CHUNK_BYTES, &mut |s| {
                    read_bytes += s.len() as u64;
                    Ok(())
                })?;
            }
            io::Result::Ok(())
        })?;
    }

    // ---- trace: decode, then re-encode, every interval's event stream ----
    let mut codec_events = 0u64;
    let mut raw = Vec::new();
    let mut events: Vec<Event> = Vec::new();
    let mut encoded = Vec::new();
    for (tid, rows) in &loaded.threads {
        let mut log = MappedLog::open(&dir.thread_log(*tid), SourceStats::new())?;
        for row in rows.iter().filter(|r| r.size > 0) {
            raw.clear();
            log.read_range_with(row.data_begin, row.size, DEFAULT_CHUNK_BYTES, &mut |s| {
                raw.extend_from_slice(s);
                Ok(())
            })?;
            events.clear();
            rec.span("trace", "decode", |_| {
                let mut decoder = EventDecoder::new();
                let mut pos = 0;
                while pos < raw.len() {
                    events.push(decoder.decode(&raw, &mut pos)?);
                }
                Ok(())
            })
            .map_err(|e: sword_trace::CodecError| invalid(format!("tid {tid}: {e}")))?;
            encoded.clear();
            rec.span("trace", "encode", |_| {
                let mut encoder = EventEncoder::new();
                for event in &events {
                    encoder.encode(event, &mut encoded);
                }
            });
            if encoded != raw {
                return Err(invalid(format!(
                    "tid {tid}: re-encoded interval differs from the log"
                )));
            }
            codec_events += events.len() as u64;
        }
    }
    drop((raw, events, encoded));

    // ---- compress: every frame the collector wrote, block by block -------
    let (mut block_bytes, mut frame_bytes) = (0u64, 0u64);
    let mut compressor = Compressor::new();
    let mut block = Vec::new();
    let mut frame = Vec::new();
    for (tid, _) in &loaded.threads {
        let image = std::fs::read(dir.thread_log(*tid))?;
        let mut at = 0;
        while let Some((view, consumed)) = parse_frame(&image[at..])? {
            rec.span("compress", "decompress", |_| view.decode_into(&mut block))?;
            frame.clear();
            rec.span("compress", "compress", |_| {
                encode_frame_into(&mut compressor, &block, &mut frame)
            });
            block_bytes += block.len() as u64;
            frame_bytes += frame.len() as u64;
            at += consumed;
        }
    }
    drop((block, frame));

    // ---- sword-offline: structure (kept for the walk, dropped below) -----
    let cache = VerdictCache::default();
    let structure =
        rec.span("sword-offline", "build_structure", |_| build_structure_with(&loaded, &cache))?;
    let region_lookups = (cache.region_hits() + cache.region_misses()) as f64;
    let region_hit_rate = per(cache.region_hits() as f64, region_lookups);
    let region_pairs = (structure.region_pairs_considered + structure.region_pairs_skipped) as f64;

    // ---- osl: every region fork-label pair -------------------------------
    let mut pids: Vec<u64> = loaded.regions.keys().copied().collect();
    pids.sort_unstable();
    let forks: Vec<Label> = pids.iter().map(|p| loaded.regions[p].fork_label()).collect();
    let mut label_pairs = 0u64;
    rec.span("osl", "compare_labels", |_| {
        for (i, a) in forks.iter().enumerate() {
            for b in &forks[i + 1..] {
                std::hint::black_box(a.compare_barrier_aware(b));
                label_pairs += 1;
            }
        }
    });

    // ---- sword-offline: one tree per interval -----------------------------
    let mut pool = ReaderPool::new();
    let mut trees: Vec<Vec<Option<BiTree>>> = Vec::new();
    let (mut nodes, mut tree_events, mut arena_bytes) = (0u64, 0u64, 0u64);
    for group in &structure.groups {
        let mut built = Vec::with_capacity(group.members.len());
        for member in &group.members {
            let (begin, size) = (member.meta.data_begin, member.meta.size);
            if size == 0 {
                built.push(None);
                continue;
            }
            let tree = rec.span("sword-offline", "tree_build", |_| {
                pool.build(dir, member.tid, begin, size, DEFAULT_CHUNK_BYTES)
            })?;
            nodes += tree.node_count() as u64;
            tree_events += tree.accesses;
            arena_bytes += tree.tree.arena_bytes() as u64;
            built.push(Some(tree));
        }
        trees.push(built);
    }
    drop(pool);

    // ---- itree: re-insert every node into a fresh tree --------------------
    for tree in trees.iter().flatten().flatten() {
        rec.span("itree", "insert", |_| {
            let mut fresh = IntervalTree::with_capacity(tree.node_count());
            for (_, interval, meta) in tree.tree.iter() {
                fresh.insert(*interval, *meta);
            }
            std::hint::black_box(fresh.len());
        });
    }

    // ---- itree walk, then solver, over intra-group member pairs -----------
    let mut candidates = 0u64;
    let mut prescreened = 0u64;
    let mut admitted: Vec<(StridedInterval, StridedInterval)> = Vec::new();
    for task in &structure.tasks {
        let Task::Intra { group } = *task else { continue };
        let members = &trees[group];
        for (i, a) in members.iter().enumerate() {
            for b in &members[i + 1..] {
                let (Some(a), Some(b)) = (a, b) else { continue };
                rec.span("itree", "walk", |_| {
                    for_each_candidate_pair_fp(&a.tree, &b.tree, |ia, fa, ma, ib, fb, mb| {
                        candidates += 1;
                        if !a.can_race(ma, b, mb) {
                            return;
                        }
                        if !congruence_admissible(ia, fa, ib, fb) {
                            prescreened += 1;
                            return;
                        }
                        admitted.push((*ia, *ib));
                    });
                });
            }
        }
    }
    let mut closed_form = 0u64;
    rec.span("solver", "solve", |_| {
        for (a, b) in &admitted {
            let (witness, tier) = solve_tiered(a, b, true);
            std::hint::black_box(witness);
            if tier != Tier::Diophantine {
                closed_form += 1;
            }
        }
    });
    let solver_pairs = admitted.len() as f64;

    // The analyzer's own counters must describe the same logical work as
    // the replay: otherwise the ledger explains a different program.
    for (what, replayed, analyzer) in [
        ("candidate pairs", candidates as f64, child(analyze, "candidate_pairs")?),
        ("solver calls", solver_pairs, child(analyze, "solver_calls")?),
        ("prescreened pairs", prescreened as f64, child(analyze, "prescreened_pairs")?),
        ("events", tree_events as f64, child(collect, "events")?),
        ("codec events", codec_events as f64, child(collect, "events")?),
    ] {
        if replayed != analyzer {
            return Err(invalid(format!("{what}: replay saw {replayed}, the run saw {analyzer}")));
        }
    }

    // ---- sword-offline: tear the structure and its verdict memo down -----
    let groups = structure.groups.len() as f64;
    let tasks = structure.tasks.len() as f64;
    let (considered, skipped) =
        (structure.region_pairs_considered as f64, structure.region_pairs_skipped as f64);
    drop(trees);
    rec.span("sword-offline", "drop_structure", |_| drop((structure, cache)));

    // Read while the root span is still open: its own row is not final
    // yet, and only the closed stage spans below are looked up.
    let self_s = rec.self_seconds();
    let secs = |name: &str| self_s.get(name).copied().unwrap_or(0.0);
    let structure_s = secs("build_structure") + secs("drop_structure");
    let offline_s = secs("load") + structure_s + secs("tree_build") + secs("walk") + secs("solve");

    let accesses = child(collect, "events")?;
    let baseline_wall = child(baseline, "wall_s")?;
    let collect_wall = child(collect, "wall_s")?;
    let analyze_wall = child(analyze, "wall_s")?;
    let workers1_wall = child(workers1, "wall_s")?;
    let raw_bytes = child(collect, "raw_bytes")?;
    let trees_built = child(analyze, "trees_built")?;
    let live = |key: &str| analyze.get(key).unwrap_or(0.0);

    Ok(vec![
        ("ompsim.baseline_wall_s", baseline_wall),
        ("ompsim.accesses", accesses),
        ("ompsim.regions", child(collect, "regions")?),
        ("sword-runtime.slowdown_x", per(collect_wall, baseline_wall)),
        ("sword-runtime.collect_ns_per_access", per(collect_wall * 1e9, accesses)),
        ("sword-runtime.flushes", child(collect, "flushes")?),
        ("sword-runtime.app_stall_s", child(collect, "app_stall_s")?),
        ("sword-runtime.compress_busy_s", child(collect, "compress_busy_s")?),
        ("sword-runtime.write_busy_s", child(collect, "write_busy_s")?),
        ("sword-runtime.raw_bytes", raw_bytes),
        ("sword-runtime.compressed_bytes", child(collect, "compressed_bytes")?),
        (
            "sword-runtime.peak_rss_delta_bytes",
            child(collect, "vm_hwm_bytes")? - child(baseline, "vm_hwm_bytes")?,
        ),
        ("trace.encode_ns_per_event", per(secs("encode") * 1e9, codec_events as f64)),
        ("trace.decode_ns_per_event", per(secs("decode") * 1e9, codec_events as f64)),
        ("trace.raw_bytes_per_event", per(raw_bytes, accesses)),
        ("trace.read_mb_s", per(read_bytes as f64 / 1e6, secs("read"))),
        ("compress.compress_mb_s", per(block_bytes as f64 / 1e6, secs("compress"))),
        ("compress.decompress_mb_s", per(block_bytes as f64 / 1e6, secs("decompress"))),
        ("compress.ratio", per(block_bytes as f64, frame_bytes as f64)),
        ("sword-offline.load_s", secs("load")),
        ("sword-offline.intervals", intervals),
        ("sword-offline.structure_s", structure_s),
        ("sword-offline.groups", groups),
        ("sword-offline.tasks", tasks),
        ("sword-offline.region_pairs_considered", considered),
        ("sword-offline.region_pairs_skipped", skipped),
        ("sword-offline.structure_ns_per_region_pair", per(structure_s * 1e9, region_pairs)),
        ("sword-offline.region_verdict_hit_rate", region_hit_rate),
        ("sword-offline.tree_build_s", secs("tree_build")),
        (
            "sword-offline.tree_build_ns_per_event",
            per(secs("tree_build") * 1e9, tree_events as f64),
        ),
        ("sword-offline.nodes", nodes as f64),
        ("sword-offline.nodes_per_event", per(nodes as f64, tree_events as f64)),
        ("sword-offline.trees_built", trees_built),
        ("sword-offline.tree_rebuild_x", per(trees_built, intervals)),
        ("itree.insert_ns_per_node", per(secs("insert") * 1e9, nodes as f64)),
        ("itree.walk_ns_per_candidate", per(secs("walk") * 1e9, candidates as f64)),
        ("itree.arena_bytes", arena_bytes as f64),
        ("solver.pairs", solver_pairs),
        ("solver.solve_ns_per_pair", per(secs("solve") * 1e9, solver_pairs)),
        ("solver.closed_form_share", per(closed_form as f64, solver_pairs)),
        ("osl.pairs", label_pairs as f64),
        ("osl.compare_ns_per_pair", per(secs("compare_labels") * 1e9, label_pairs as f64)),
        ("sword-offline.candidate_pairs", child(analyze, "candidate_pairs")?),
        ("sword-offline.solver_calls", child(analyze, "solver_calls")?),
        ("sword-offline.prescreened_pairs", child(analyze, "prescreened_pairs")?),
        ("sword-offline.races", child(analyze, "races")?),
        ("sword-offline.workers1_wall_s", workers1_wall),
        ("sword-offline.parallel_efficiency", per(workers1_wall, 2.0 * analyze_wall)),
        ("sword-offline.live_polls", live("live_polls")),
        ("sword-offline.live_first_race_s", live("live_first_race_s")),
        ("ledger.coverage", per(offline_s, workers1_wall)),
    ])
}
