//! Table rendering and CSV output.

use std::fmt::Write as _;
use std::path::Path;

/// A simple aligned text table.
pub struct Table {
    title: String,
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    pub fn new(title: impl Into<String>, headers: &[&str]) -> Self {
        Table {
            title: title.into(),
            headers: headers.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    pub fn row(&mut self, cells: Vec<String>) {
        assert_eq!(cells.len(), self.headers.len(), "column-count mismatch");
        self.rows.push(cells);
    }

    /// Render to a string (aligned columns).
    pub fn render(&self) -> String {
        let mut widths: Vec<usize> = self.headers.iter().map(|h| h.len()).collect();
        for row in &self.rows {
            for (i, c) in row.iter().enumerate() {
                widths[i] = widths[i].max(c.len());
            }
        }
        let mut out = String::new();
        let _ = writeln!(out, "\n## {}", self.title);
        let line = |cells: &[String], widths: &[usize]| -> String {
            let mut s = String::new();
            for (i, c) in cells.iter().enumerate() {
                let _ = write!(s, "{:>width$}  ", c, width = widths[i]);
            }
            s.trim_end().to_string()
        };
        let _ = writeln!(out, "{}", line(&self.headers, &widths));
        let total: usize = widths.iter().sum::<usize>() + 2 * widths.len();
        let _ = writeln!(out, "{}", "-".repeat(total));
        for row in &self.rows {
            let _ = writeln!(out, "{}", line(row, &widths));
        }
        out
    }

    /// Print to stdout.
    pub fn print(&self) {
        print!("{}", self.render());
    }

    /// The CSV form: the header line, then one line per row.
    pub fn to_csv(&self) -> String {
        let mut csv = String::new();
        let _ = writeln!(csv, "{}", self.headers.join(","));
        for row in &self.rows {
            let _ = writeln!(csv, "{}", row.join(","));
        }
        csv
    }
}

/// Write one export to `path`, creating its directory first. A failure
/// is reported on stderr as `tamp-exp: cannot write <path>: <error>` and
/// handed back as exit code 2, so a stale file can never pass for a
/// fresh one.
pub fn write_export(path: &Path, body: &str) -> Result<(), i32> {
    path.parent()
        .map_or(Ok(()), std::fs::create_dir_all)
        .and_then(|()| std::fs::write(path, body))
        .map_err(|e| {
            eprintln!("tamp-exp: cannot write {}: {e}", path.display());
            2
        })
}

/// Format seconds with millisecond precision.
pub fn secs(ns: u64) -> String {
    format!("{:.3}", ns as f64 / 1e9)
}

/// Format a byte rate as KB/s.
pub fn kbps(bytes_per_s: f64) -> String {
    format!("{:.1}", bytes_per_s / 1e3)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_renders_aligned() {
        let mut t = Table::new("demo", &["n", "value"]);
        t.row(vec!["10".into(), "1.5".into()]);
        t.row(vec!["1000".into(), "123.25".into()]);
        let s = t.render();
        assert!(s.contains("## demo"));
        assert!(s.contains("1000"));
        let lines: Vec<&str> = s.lines().collect();
        // header + separator + 2 rows + title + leading blank
        assert_eq!(lines.len(), 6);
    }

    #[test]
    #[should_panic(expected = "column-count mismatch")]
    fn row_length_checked() {
        let mut t = Table::new("demo", &["a", "b"]);
        t.row(vec!["1".into()]);
    }

    #[test]
    fn formatting_helpers() {
        assert_eq!(secs(5_500_000_000), "5.500");
        assert_eq!(kbps(4500.0), "4.5");
    }
}
