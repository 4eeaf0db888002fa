//! Race-report rendering: human-readable text, the `sword explain`
//! evidence view, and machine-readable JSON.
//!
//! JSON is emitted by hand (no serialization dependency — see DESIGN.md's
//! dependency policy); the format is stable and documented here:
//!
//! ```json
//! {
//!   "races": [
//!     {"pc_lo": "file.rs:10", "pc_hi": "file.rs:20",
//!      "kind_lo": "Write", "kind_hi": "Read",
//!      "witness_addr": 268435456, "tids": [1, 2],
//!      "region": 0, "occurrences": 12,
//!      "evidence": {
//!        "a": {"pc": "file.rs:10", "kind": "Write", "tid": 1,
//!              "pid": 0, "bid": 0, "label": "[0,1][0,2]",
//!              "base": 268435456, "stride": 8, "count": 99, "size": 8,
//!              "log_begin": 0, "log_end": 840, "index": 0, "byte": 0},
//!        "b": { ... },
//!        "concurrency": ["label A = ...", "..."],
//!        "witness": {"addr": 268435456, "x0": 0, "s0": 0, "x1": 0, "s1": 0}
//!      }}
//!   ],
//!   "stats": { "threads": 4, "barrier_intervals": 8, ... }
//! }
//! ```

use std::fmt::Write as _;

use sword_trace::PcTable;

use crate::analyze::AnalysisResult;
use crate::race::AccessSite;

/// Escapes a string for inclusion in a JSON string literal.
fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

/// Renders one evidence side as a JSON object.
fn json_site(s: &AccessSite, pcs: &PcTable) -> String {
    format!(
        "{{\"pc\": \"{}\", \"kind\": \"{:?}\", \"tid\": {}, \"pid\": {}, \"bid\": {}, \
         \"label\": \"{}\", \"base\": {}, \"stride\": {}, \"count\": {}, \"size\": {}, \
         \"log_begin\": {}, \"log_end\": {}, \"index\": {}, \"byte\": {}}}",
        escape(&pcs.display(s.pc)),
        s.kind,
        s.tid,
        s.pid,
        s.bid,
        escape(&s.label),
        s.interval.base,
        s.interval.stride,
        s.interval.count,
        s.interval.size,
        s.log_begin,
        s.log_end,
        s.index,
        s.byte
    )
}

/// Renders an analysis result as JSON.
pub fn render_json(result: &AnalysisResult, pcs: &PcTable) -> String {
    let mut out = String::new();
    out.push_str("{\n  \"races\": [\n");
    for (i, race) in result.races.iter().enumerate() {
        let ev = &race.evidence;
        let w = &ev.witness;
        let concurrency: Vec<String> =
            ev.concurrency.iter().map(|l| format!("\"{}\"", escape(l))).collect();
        let _ = write!(
            out,
            "    {{\"pc_lo\": \"{}\", \"pc_hi\": \"{}\", \"kind_lo\": \"{:?}\", \
             \"kind_hi\": \"{:?}\", \"witness_addr\": {}, \"tids\": [{}, {}], \
             \"region\": {}, \"occurrences\": {}, \"evidence\": {{\"a\": {}, \"b\": {}, \
             \"concurrency\": [{}], \"witness\": {{\"addr\": {}, \"x0\": {}, \"s0\": {}, \
             \"x1\": {}, \"s1\": {}}}}}}}",
            escape(&pcs.display(race.key.pc_lo)),
            escape(&pcs.display(race.key.pc_hi)),
            race.kind_a,
            race.kind_b,
            race.witness_addr,
            race.tids.0,
            race.tids.1,
            race.region,
            race.occurrences,
            json_site(&ev.a, pcs),
            json_site(&ev.b, pcs),
            concurrency.join(", "),
            w.addr,
            w.x0,
            w.s0,
            w.x1,
            w.s1
        );
        out.push_str(if i + 1 < result.races.len() { ",\n" } else { "\n" });
    }
    let s = &result.stats;
    let _ = write!(
        out,
        "  ],\n  \"stats\": {{\"threads\": {}, \"barrier_intervals\": {}, \
         \"groups\": {}, \"events\": {}, \"nodes\": {}, \"bytes_read\": {}, \
         \"candidate_pairs\": {}, \"solver_calls\": {}, \"races\": {}, \
         \"wall_secs\": {:.6}, \"max_task_secs\": {:.6}}}\n}}",
        s.threads,
        s.barrier_intervals,
        s.groups,
        s.events,
        s.nodes,
        s.bytes_read,
        s.candidate_pairs,
        s.solver_calls,
        s.races,
        s.wall_secs,
        s.max_task_secs
    );
    out.push('\n');
    out
}

/// Renders an analysis result as the standard multi-line text report.
pub fn render_text(result: &AnalysisResult, pcs: &PcTable) -> String {
    let s = &result.stats;
    let mut out = format!(
        "analyzed {} threads, {} barrier intervals, {} events in {:.2}s \
         ({} tree nodes, {} candidate pairs, {} solver calls)\n",
        s.threads,
        s.barrier_intervals,
        s.events,
        s.wall_secs,
        s.nodes,
        s.candidate_pairs,
        s.solver_calls
    );
    if result.races.is_empty() {
        out.push_str("no data races detected\n");
    } else {
        let _ = writeln!(out, "{} data race(s):", result.races.len());
        for race in &result.races {
            let _ = writeln!(out, "  {}", race.render(pcs));
        }
    }
    out
}

/// Renders the `sword explain` view of race `id` (its index in the
/// sorted race list): the one-line summary followed by the full evidence
/// chain. `None` when `id` is out of range.
pub fn render_explain(result: &AnalysisResult, pcs: &PcTable, id: usize) -> Option<String> {
    let race = result.races.get(id)?;
    let mut out = format!("race #{id} of {}\n", result.races.len());
    out.push_str(&race.render(pcs));
    out.push('\n');
    out.push('\n');
    out.push_str(&race.render_evidence(pcs));
    Some(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analyze::{AnalysisResult, AnalysisStats};
    use crate::race::{Race, RaceKey};
    use sword_trace::AccessKind;

    fn sample() -> (AnalysisResult, PcTable) {
        let mut pcs = PcTable::new();
        let a = pcs.intern("src/ke\"rnel.rs", 10); // quote needs escaping
        let b = pcs.intern("src/kernel.rs", 20);
        let result = AnalysisResult {
            races: vec![Race {
                key: RaceKey::new(a, b),
                kind_a: AccessKind::Write,
                kind_b: AccessKind::Read,
                witness_addr: 0x100,
                tids: (1, 2),
                region: 0,
                occurrences: 3,
                evidence: crate::race::test_evidence(a, b, 0x100),
            }],
            stats: AnalysisStats { threads: 2, races: 1, ..Default::default() },
        };
        (result, pcs)
    }

    #[test]
    fn json_shape_and_escaping() {
        let (result, pcs) = sample();
        let json = render_json(&result, &pcs);
        assert!(json.contains("\"races\": ["));
        assert!(json.contains("\\\"rnel.rs:10"), "quote escaped: {json}");
        assert!(json.contains("\"witness_addr\": 256"));
        assert!(json.contains("\"occurrences\": 3"));
        assert!(json.contains("\"stats\": {"));
        // Evidence chain is embedded per race.
        assert!(json.contains("\"evidence\": {\"a\": {"));
        assert!(json.contains("\"label\": \"[0,1][0,8]\""));
        assert!(json.contains("\"concurrency\": [\"synthetic\"]"));
        assert!(json.contains("\"witness\": {\"addr\": 256"));
        // Balanced braces/brackets.
        assert_eq!(json.matches('{').count(), json.matches('}').count());
        assert_eq!(json.matches('[').count(), json.matches(']').count());
    }

    #[test]
    fn explain_renders_one_race() {
        let (result, pcs) = sample();
        let text = render_explain(&result, &pcs, 0).unwrap();
        assert!(text.starts_with("race #0 of 1\n"));
        assert!(text.contains("side A:"));
        assert!(text.contains("side B:"));
        assert!(text.contains("solver witness"));
        assert!(render_explain(&result, &pcs, 1).is_none(), "out of range");
    }

    #[test]
    fn json_empty_result() {
        let result = AnalysisResult { races: vec![], stats: AnalysisStats::default() };
        let json = render_json(&result, &PcTable::new());
        assert!(json.contains("\"races\": [\n  ]"));
    }

    #[test]
    fn text_report() {
        let (result, pcs) = sample();
        let text = render_text(&result, &pcs);
        assert!(text.contains("1 data race(s)"));
        assert!(text.contains("kernel.rs:20"));
        let empty = AnalysisResult { races: vec![], stats: AnalysisStats::default() };
        assert!(render_text(&empty, &pcs).contains("no data races detected"));
    }

    #[test]
    fn escape_control_chars() {
        assert_eq!(escape("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
        assert_eq!(escape("\u{1}"), "\\u0001");
        assert_eq!(escape("plain"), "plain");
    }
}
