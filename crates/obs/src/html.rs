//! `sword report --html`: a single self-contained HTML session
//! dashboard.
//!
//! Everything is emitted by hand into one file — inline CSS, no
//! JavaScript, no external assets — following the same zero-dependency
//! discipline as [`crate::json`]. Expandable race cards use plain
//! `<details>` elements; the telemetry sections are the text report's
//! ([`render_snapshot`]), preformatted.

use std::fmt::Write as _;

use crate::report::{last_metrics_snapshot, render_snapshot, ReportInput};

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

    // --- The registry snapshot, as the text report renders it -------------
    let report = &input.report;
    let telemetry =
        render_snapshot(&last_metrics_snapshot(&report.events), report.threads(), report.top_n);
    if !telemetry.is_empty() {
        let _ = writeln!(out, "<h2>Telemetry</h2>\n<pre>{}</pre>", esc(&telemetry));
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
        // The text report's sections, stages, memory verdict and hot
        // sites included.
        let report = &input.report;
        let sections = esc(&render_snapshot(&last_metrics_snapshot(&report.events), 2, 10));
        assert!(html.contains(&sections), "the text report's sections");
        for section in ["pipeline stages", "within 2x3.30 MB", "hot sites", "a.rs:1"] {
            assert!(sections.contains(section), "{section}");
        }
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
