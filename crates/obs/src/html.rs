//! `sword report --html`: a single self-contained HTML session
//! dashboard.
//!
//! Everything is emitted by hand into one file — inline CSS, no
//! JavaScript, no external assets — following the same zero-dependency
//! discipline as [`crate::json`]. Expandable race cards use plain
//! `<details>` elements; the stage table is the text report's
//! ([`render_stages`]), preformatted.

use std::fmt::Write as _;

use crate::report::{
    last_metrics_snapshot, memory_rows, render_stages, ReportInput, BOUNDED_MEM_GAUGE,
    PAPER_PER_THREAD_BOUND_BYTES,
};
use crate::sites::hot_sites_from_metrics;
use crate::table::format_bytes;

/// One race, pre-rendered by the analyzer for its dashboard card.
#[derive(Clone, Debug)]
pub struct HtmlRace {
    /// Stable race id (index in the sorted race list).
    pub id: usize,
    /// One-line headline: locations, kinds, witness address.
    pub title: String,
    /// Deduplicated occurrence count.
    pub occurrences: u64,
    /// Full evidence-chain text (the `sword explain` rendering).
    pub detail: String,
}

/// Inputs to [`render_html`].
#[derive(Clone, Debug, Default)]
pub struct HtmlInput {
    /// Dashboard title (usually the session path).
    pub title: String,
    /// The journal/info view also used by the text report.
    pub report: ReportInput,
    /// Races with pre-rendered evidence.
    pub races: Vec<HtmlRace>,
}

/// Escapes text for HTML element content and attribute values.
fn esc(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '&' => out.push_str("&amp;"),
            '<' => out.push_str("&lt;"),
            '>' => out.push_str("&gt;"),
            '"' => out.push_str("&quot;"),
            '\'' => out.push_str("&#39;"),
            c => out.push(c),
        }
    }
    out
}

const STYLE: &str = "\
body{font:14px/1.45 system-ui,sans-serif;margin:2rem auto;max-width:60rem;\
padding:0 1rem;color:#1a1a24;background:#fafafa}\
h1{font-size:1.4rem}h2{font-size:1.05rem;margin-top:2rem;\
border-bottom:1px solid #ddd;padding-bottom:.2rem}\
table{border-collapse:collapse;width:100%}\
td,th{text-align:left;padding:.2rem .6rem .2rem 0;font-variant-numeric:tabular-nums}\
th{color:#666;font-weight:600}\
.ok{color:#1a7a3a;font-weight:600}.bad{color:#b02020;font-weight:600}\
details.race{border:1px solid #ddd;border-radius:4px;margin:.5rem 0;\
background:#fff;padding:.3rem .8rem}\
details.race summary{cursor:pointer;font-weight:600}\
pre{font:12px/1.4 ui-monospace,monospace;overflow-x:auto;\
background:#f4f4f8;padding:.6rem;border-radius:3px}\
.muted{color:#666}";

/// Renders the dashboard. The output is a complete UTF-8 HTML document;
/// every reported race appears as one `<details class="race">` card.
pub fn render_html(input: &HtmlInput) -> String {
    let mut out = String::new();
    out.push_str("<!DOCTYPE html>\n<html lang=\"en\">\n<head>\n<meta charset=\"utf-8\">\n");
    let _ = writeln!(out, "<title>SWORD session report — {}</title>", esc(&input.title));
    let _ = writeln!(out, "<style>{STYLE}</style>\n</head>\n<body>");
    let _ = writeln!(
        out,
        "<h1>SWORD session report <span class=\"muted\">{}</span></h1>",
        esc(&input.title)
    );

    // --- Session info ------------------------------------------------------
    if !input.report.info.is_empty() {
        out.push_str("<h2>Session</h2>\n<table>\n");
        for (k, v) in &input.report.info {
            let _ = writeln!(out, "<tr><th>{}</th><td>{}</td></tr>", esc(k), esc(v));
        }
        out.push_str("</table>\n");
    }

    // --- Pipeline stages ---------------------------------------------------
    let snapshot = last_metrics_snapshot(&input.report.events);
    let stages = render_stages(&snapshot);
    if !stages.is_empty() {
        let _ = writeln!(out, "<h2>Offline pipeline stages</h2>\n<pre>{}</pre>", esc(&stages));
    }

    // --- Memory vs the paper bound ------------------------------------------
    let mem_keys = memory_rows(&snapshot);
    if !mem_keys.is_empty() {
        let threads =
            input.report.info.get("threads").and_then(|v| v.parse::<u64>().ok()).unwrap_or(0);
        let bound = threads * PAPER_PER_THREAD_BOUND_BYTES;
        out.push_str("<h2>Memory vs the paper's 3.3&nbsp;MB/thread bound</h2>\n<table>\n");
        for (name, value) in &mem_keys {
            let bytes = *value as u64;
            let verdict = if bound > 0 && name == BOUNDED_MEM_GAUGE {
                if bytes <= bound {
                    format!(
                        "<span class=\"ok\">within</span> the {threads}&times;{} = {} bound",
                        esc(&format_bytes(PAPER_PER_THREAD_BOUND_BYTES)),
                        esc(&format_bytes(bound)),
                    )
                } else {
                    format!(
                        "<span class=\"bad\">EXCEEDS</span> the {threads}&times;{} = {} bound",
                        esc(&format_bytes(PAPER_PER_THREAD_BOUND_BYTES)),
                        esc(&format_bytes(bound)),
                    )
                }
            } else {
                String::new()
            };
            let _ = writeln!(
                out,
                "<tr><th>{}</th><td>{}</td><td>{verdict}</td></tr>",
                esc(name),
                esc(&format_bytes(bytes)),
            );
        }
        out.push_str("</table>\n");
    }

    // --- Hot sites -----------------------------------------------------------
    let hot = hot_sites_from_metrics(&snapshot);
    if !hot.is_empty() {
        let top_n = if input.report.top_n == 0 { 10 } else { input.report.top_n };
        out.push_str("<h2>Hot sites (compare-stage attribution)</h2>\n<table>\n");
        out.push_str(
            "<tr><th>site</th><th>scanned</th><th>pairs</th><th>solves</th>\
             <th>racy pairs</th></tr>\n",
        );
        for h in hot.iter().take(top_n) {
            let _ = writeln!(
                out,
                "<tr><td>{}</td><td>{}</td><td>{}</td><td>{}</td><td>{}</td></tr>",
                esc(&h.site),
                h.stats.scanned,
                h.stats.pairs,
                h.stats.solver_calls,
                h.stats.races,
            );
        }
        out.push_str("</table>\n");
    }

    // --- Race cards ----------------------------------------------------------
    let _ = writeln!(out, "<h2>Races ({})</h2>", input.races.len());
    if input.races.is_empty() {
        out.push_str("<p class=\"muted\">No data races detected.</p>\n");
    }
    for race in &input.races {
        let _ = writeln!(
            out,
            "<details class=\"race\" id=\"race-{}\">\n<summary>#{} {} \
             <span class=\"muted\">(seen {}x)</span></summary>\n<pre>{}</pre>\n</details>",
            race.id,
            race.id,
            esc(&race.title),
            race.occurrences,
            esc(&race.detail),
        );
    }
    out.push_str("</body>\n</html>\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::journal::{JournalEvent, Layer};

    #[test]
    fn dashboard_is_self_contained_with_one_card_per_race() {
        let events = vec![JournalEvent {
            layer: Layer::Cli,
            thread: "metrics".into(),
            name: "metrics".into(),
            t_us: 10,
            dur_us: None,
            args: vec![
                ("sword_collector_tool_mem_bytes".into(), 1_000_000.0),
                ("sword_site_pairs{site=\"a.rs:1\"}".into(), 4.0),
                ("sword_stage_busy_nanos{stage=\"compare\"}".into(), 1_500_000.0),
                ("sword_stage_items_total{stage=\"compare\"}".into(), 6.0),
            ],
            flow: None,
        }];
        let mut info = std::collections::BTreeMap::new();
        info.insert("threads".to_string(), "2".to_string());
        let input = HtmlInput {
            title: "/tmp/session".to_string(),
            report: ReportInput { events, info, truncated_tail: false, top_n: 10 },
            races: vec![
                HtmlRace {
                    id: 0,
                    title: "a.rs:1 (Write) <-> a.rs:2 (Read)".to_string(),
                    occurrences: 3,
                    detail: "evidence & <chain>".to_string(),
                },
                HtmlRace {
                    id: 1,
                    title: "b.rs:7 (Write) <-> b.rs:7 (Write)".to_string(),
                    occurrences: 1,
                    detail: "more".to_string(),
                },
            ],
        };
        let html = render_html(&input);
        assert!(html.starts_with("<!DOCTYPE html>"));
        assert!(html.ends_with("</html>\n"));
        assert_eq!(html.matches("<details class=\"race\"").count(), 2);
        assert_eq!(html.matches("</details>").count(), 2);
        assert!(html.contains("id=\"race-0\""));
        assert!(html.contains("id=\"race-1\""));
        // Markup-significant characters in race text are escaped.
        assert!(html.contains("a.rs:1 (Write) &lt;-&gt; a.rs:2 (Read)"));
        assert!(html.contains("evidence &amp; &lt;chain&gt;"));
        // All sections present.
        assert!(html.contains("Offline pipeline stages"));
        let table = esc(&render_stages(&last_metrics_snapshot(&input.report.events)));
        assert!(html.contains(&table) && table.contains("compare"), "the text report's table");
        assert!(html.contains("3.3&nbsp;MB/thread"));
        assert!(html.contains("within"));
        assert!(html.contains("Hot sites"));
        assert!(html.contains("a.rs:1"));
        // No external references: a self-contained file.
        assert!(!html.contains("http://") && !html.contains("https://"));
        assert!(!html.contains("<script"));
    }

    #[test]
    fn empty_input_still_renders_a_valid_shell() {
        let html = render_html(&HtmlInput::default());
        assert!(html.contains("<h2>Races (0)</h2>"));
        assert!(html.contains("No data races detected"));
        assert_eq!(html.matches("<details").count(), 0);
    }
}
