//! Plain-text rendering shared by every report: an aligned ASCII
//! [`Table`] and [`format_bytes`].

use std::fmt::Write as _;

/// Formats a byte count for reports (`3.30 MB`, `1.20 GB`, …).
pub fn format_bytes(bytes: u64) -> String {
    const UNITS: [(&str, u64); 4] = [("GB", 1 << 30), ("MB", 1 << 20), ("KB", 1 << 10), ("B", 1)];
    for (name, size) in UNITS {
        if bytes >= size {
            // Plain bytes are exact: no fractional digits.
            return if size == 1 {
                format!("{bytes} {name}")
            } else {
                format!("{:.2} {}", bytes as f64 / size as f64, name)
            };
        }
    }
    "0 B".to_string()
}

/// An aligned ASCII table, used by the CLI's listings and the collector
/// and analyzer stat reports.
#[derive(Clone, Debug)]
pub struct Table {
    title: String,
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Creates a table with column headers.
    pub fn new(title: impl Into<String>, headers: &[&str]) -> Self {
        Table {
            title: title.into(),
            headers: headers.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a row; must match the header arity.
    pub fn row(&mut self, cells: &[String]) {
        assert_eq!(cells.len(), self.headers.len(), "table row arity mismatch");
        self.rows.push(cells.to_vec());
    }

    /// Convenience for string-slice rows.
    pub fn row_strs(&mut self, cells: &[&str]) {
        self.row(&cells.iter().map(|s| s.to_string()).collect::<Vec<_>>());
    }

    /// Number of data rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// `true` when no data rows were added.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Renders the table with aligned columns.
    pub fn render(&self) -> String {
        let mut widths: Vec<usize> = self.headers.iter().map(|h| h.len()).collect();
        for row in &self.rows {
            for (i, cell) in row.iter().enumerate() {
                widths[i] = widths[i].max(cell.len());
            }
        }
        let mut out = String::new();
        let _ = writeln!(out, "== {} ==", self.title);
        let line = |out: &mut String, cells: &[String]| {
            for (i, cell) in cells.iter().enumerate() {
                let _ = write!(out, "{:<width$}  ", cell, width = widths[i]);
            }
            let _ = writeln!(out);
        };
        line(&mut out, &self.headers);
        let rule: usize = widths.iter().sum::<usize>() + 2 * widths.len();
        let _ = writeln!(out, "{}", "-".repeat(rule));
        for row in &self.rows {
            line(&mut out, row);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn format_bytes_units() {
        assert_eq!(format_bytes(0), "0 B");
        assert_eq!(format_bytes(512), "512 B");
        assert_eq!(format_bytes(1023), "1023 B");
        assert_eq!(format_bytes(2 << 20), "2.00 MB");
        assert_eq!(format_bytes(3 << 30), "3.00 GB");
        assert_eq!(format_bytes((33 << 20) / 10), "3.30 MB");
    }

    #[test]
    fn table_renders_aligned() {
        let mut t = Table::new("Table II", &["benchmark", "archer", "sword"]);
        t.row_strs(&["c_md", "2", "3"]);
        t.row_strs(&["cpp_qsomp1_long_name", "1", "2"]);
        let s = t.render();
        assert!(s.contains("== Table II =="));
        assert!(s.contains("benchmark"));
        let lines: Vec<&str> = s.lines().collect();
        assert_eq!(lines.len(), 5);
        // Columns aligned: "archer" header starts at the same index in all
        // data lines.
        let col = lines[1].find("archer").unwrap();
        assert_eq!(&lines[3][col..col + 1], "2");
        assert_eq!(&lines[4][col..col + 1], "1");
        assert_eq!(t.len(), 2);
        assert!(!t.is_empty());
    }

    #[test]
    #[should_panic(expected = "arity")]
    fn table_arity_checked() {
        let mut t = Table::new("x", &["a", "b"]);
        t.row_strs(&["only one"]);
    }
}
