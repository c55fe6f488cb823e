//! Plain-text table rendering for the experiment binaries.
//!
//! No dependency on a serialization format: the binaries print aligned
//! text tables for humans plus CSV lines for plotting scripts.

/// A simple aligned text table.
#[derive(Debug, Clone)]
pub struct TextTable {
    title: String,
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl TextTable {
    /// Start a table with a title and column headers.
    pub fn new(title: impl Into<String>, headers: &[&str]) -> Self {
        Self {
            title: title.into(),
            headers: headers.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Append a row (must match the header count).
    pub fn row(&mut self, cells: &[String]) -> &mut Self {
        assert_eq!(cells.len(), self.headers.len(), "row width mismatch");
        self.rows.push(cells.to_vec());
        self
    }

    /// Number of data rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// True when the table has no rows.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Render as an aligned text block.
    pub fn render(&self) -> String {
        let cols = self.headers.len();
        let mut widths: Vec<usize> = self.headers.iter().map(String::len).collect();
        for row in &self.rows {
            for (i, cell) in row.iter().enumerate() {
                widths[i] = widths[i].max(cell.len());
            }
        }
        let mut out = String::new();
        out.push_str(&format!("== {} ==\n", self.title));
        let fmt_row = |cells: &[String]| -> String {
            let mut line = String::new();
            for i in 0..cols {
                if i > 0 {
                    line.push_str("  ");
                }
                line.push_str(&format!("{:<width$}", cells[i], width = widths[i]));
            }
            line.trim_end().to_string()
        };
        out.push_str(&fmt_row(&self.headers));
        out.push('\n');
        let total: usize = widths.iter().sum::<usize>() + 2 * (cols - 1);
        out.push_str(&"-".repeat(total));
        out.push('\n');
        for row in &self.rows {
            out.push_str(&fmt_row(row));
            out.push('\n');
        }
        out
    }

    /// Render as CSV (headers + rows, comma-separated, quotes on commas).
    pub fn to_csv(&self) -> String {
        let escape = |s: &str| {
            if s.contains(',') || s.contains('"') {
                format!("\"{}\"", s.replace('"', "\"\""))
            } else {
                s.to_string()
            }
        };
        let mut out = String::new();
        out.push_str(
            &self.headers.iter().map(|h| escape(h)).collect::<Vec<_>>().join(","),
        );
        out.push('\n');
        for row in &self.rows {
            out.push_str(&row.iter().map(|c| escape(c)).collect::<Vec<_>>().join(","));
            out.push('\n');
        }
        out
    }
}

/// Format a float with `prec` decimals.
pub fn f(v: f64, prec: usize) -> String {
    format!("{v:.prec$}")
}

/// Format a percentage with sign, one decimal.
pub fn pct(v: f64) -> String {
    format!("{:+.1}%", v * 100.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_aligned_columns() {
        let mut t = TextTable::new("Demo", &["name", "value"]);
        t.row(&["a".into(), "1".into()]);
        t.row(&["longer-name".into(), "2".into()]);
        let r = t.render();
        assert!(r.contains("== Demo =="));
        assert!(r.contains("longer-name"));
        let lines: Vec<&str> = r.lines().collect();
        // header, separator, two rows, plus title
        assert_eq!(lines.len(), 5);
    }

    #[test]
    #[should_panic]
    fn rejects_wrong_width() {
        let mut t = TextTable::new("x", &["a", "b"]);
        t.row(&["only-one".into()]);
    }

    #[test]
    fn csv_escapes_commas() {
        let mut t = TextTable::new("x", &["a"]);
        t.row(&["hello, world".into()]);
        assert!(t.to_csv().contains("\"hello, world\""));
    }

    #[test]
    fn formatters() {
        assert_eq!(f(1.23456, 2), "1.23");
        assert_eq!(pct(-0.085), "-8.5%");
        assert_eq!(pct(0.106), "+10.6%");
    }
}
