//! Plain-text experiment tables.
//!
//! Every experiment harness produces a [`Table`]; the binaries print it,
//! the integration tests assert on its cells, and EXPERIMENTS.md embeds the
//! printed form. Keeping one representation avoids the classic drift
//! between what the harness computes and what the docs claim.

use std::fmt::Write as _;

/// A titled table with a header row and string cells.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Table {
    /// Title printed above the table.
    pub title: String,
    /// Column headers.
    pub headers: Vec<String>,
    /// Rows; each must have `headers.len()` cells.
    pub rows: Vec<Vec<String>>,
}

impl Table {
    /// New empty table.
    #[must_use]
    pub fn new(title: impl Into<String>, headers: &[&str]) -> Self {
        Table {
            title: title.into(),
            headers: headers.iter().map(|s| (*s).to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Append a row.
    ///
    /// # Panics
    ///
    /// Panics if the cell count does not match the header count.
    pub fn push_row(&mut self, cells: Vec<String>) {
        assert_eq!(
            cells.len(),
            self.headers.len(),
            "row width must match header width"
        );
        self.rows.push(cells);
    }

    /// The cell at (row, col).
    #[must_use]
    pub fn cell(&self, row: usize, col: usize) -> &str {
        &self.rows[row][col]
    }

    /// Column index by header name.
    #[must_use]
    pub fn column(&self, header: &str) -> Option<usize> {
        self.headers.iter().position(|h| h == header)
    }

    /// A column parsed as f64 (cells that fail to parse are skipped).
    #[must_use]
    pub fn numeric_column(&self, header: &str) -> Vec<f64> {
        let Some(idx) = self.column(header) else {
            return Vec::new();
        };
        self.rows
            .iter()
            .filter_map(|r| r[idx].split_whitespace().next()?.parse().ok())
            .collect()
    }

    /// Render as aligned plain text.
    #[must_use]
    pub fn render(&self) -> String {
        let mut widths: Vec<usize> = self.headers.iter().map(String::len).collect();
        for row in &self.rows {
            for (w, cell) in widths.iter_mut().zip(row) {
                *w = (*w).max(cell.chars().count());
            }
        }
        let mut out = String::new();
        let _ = writeln!(out, "## {}", self.title);
        let line = |cells: &[String], widths: &[usize]| {
            let mut s = String::new();
            for (cell, w) in cells.iter().zip(widths) {
                let _ = write!(s, "{cell:<width$}  ", width = w);
            }
            s.trim_end().to_string()
        };
        let _ = writeln!(out, "{}", line(&self.headers, &widths));
        let total: usize = widths.iter().sum::<usize>() + 2 * widths.len();
        let _ = writeln!(out, "{}", "-".repeat(total.saturating_sub(2)));
        for row in &self.rows {
            let _ = writeln!(out, "{}", line(row, &widths));
        }
        out
    }
}

impl std::fmt::Display for Table {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.render())
    }
}

/// Format a float compactly for table cells.
#[must_use]
pub fn fnum(x: f64) -> String {
    // cadapt-lint: allow(float-eq) -- sentinel: formatting special-case for exact zero; both branches render correctly
    if x == 0.0 {
        "0".to_string()
    } else if x.abs() >= 1000.0 || x.abs() < 0.01 {
        format!("{x:.3e}")
    } else {
        format!("{x:.3}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn build_and_render() {
        let mut t = Table::new("demo", &["n", "ratio"]);
        t.push_row(vec!["64".into(), "1.5".into()]);
        t.push_row(vec!["256".into(), "1.75".into()]);
        let text = t.render();
        assert!(text.contains("## demo"));
        assert!(text.contains("ratio"));
        assert!(text.contains("256"));
        assert_eq!(t.cell(1, 1), "1.75");
    }

    #[test]
    #[should_panic(expected = "row width")]
    fn row_width_checked() {
        let mut t = Table::new("demo", &["a", "b"]);
        t.push_row(vec!["1".into()]);
    }

    #[test]
    fn numeric_column_parses() {
        let mut t = Table::new("demo", &["n", "ratio"]);
        t.push_row(vec!["64".into(), "1.5 ± 0.1".into()]);
        t.push_row(vec!["256".into(), "2.5".into()]);
        assert_eq!(t.numeric_column("ratio"), vec![1.5, 2.5]);
        assert!(t.numeric_column("missing").is_empty());
    }

    #[test]
    fn fnum_ranges() {
        assert_eq!(fnum(0.0), "0");
        assert_eq!(fnum(1.5), "1.500");
        assert!(fnum(123456.0).contains('e'));
        assert!(fnum(0.0001).contains('e'));
    }
}
