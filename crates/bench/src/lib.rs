//! Shared helpers for the experiment harness binaries.
//!
//! Each binary under `src/bin/` regenerates one table or figure from the
//! paper's evaluation (§5); README.md's "Benchmarks and paper figures"
//! lists them with how to run each. Binaries
//! print the paper's reported numbers next to the reproduction's so the
//! *shape* comparison (who wins, by what factor, where curves cross) is
//! immediate.

/// Fixed-width table printer for experiment output.
pub struct Table {
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Start a table with column headers.
    pub fn new(headers: &[&str]) -> Self {
        Table {
            headers: headers.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Append one row (stringified cells).
    pub fn row(&mut self, cells: Vec<String>) {
        assert_eq!(cells.len(), self.headers.len(), "row arity mismatch");
        self.rows.push(cells);
    }

    /// Render with aligned columns.
    pub fn render(&self) -> String {
        let ncols = self.headers.len();
        let mut widths: Vec<usize> = self.headers.iter().map(|h| h.len()).collect();
        for row in &self.rows {
            for (i, cell) in row.iter().enumerate() {
                widths[i] = widths[i].max(cell.len());
            }
        }
        let mut out = String::new();
        let fmt_row = |cells: &[String], widths: &[usize]| -> String {
            let mut line = String::new();
            for i in 0..ncols {
                if i > 0 {
                    line.push_str("  ");
                }
                line.push_str(&format!("{:>width$}", cells[i], width = widths[i]));
            }
            line
        };
        out.push_str(&fmt_row(&self.headers, &widths));
        out.push('\n');
        out.push_str(&"-".repeat(widths.iter().sum::<usize>() + 2 * (ncols - 1)));
        out.push('\n');
        for row in &self.rows {
            out.push_str(&fmt_row(row, &widths));
            out.push('\n');
        }
        out
    }

    /// Print to stdout.
    pub fn print(&self) {
        print!("{}", self.render());
    }
}

/// Format a float with sensible precision for experiment output.
pub fn fmt_f(v: f64) -> String {
    if v == 0.0 {
        "0".into()
    } else if v.abs() >= 1000.0 {
        format!("{v:.0}")
    } else if v.abs() >= 10.0 {
        format!("{v:.1}")
    } else {
        format!("{v:.2}")
    }
}

/// Format an optional value, printing `-` for absent points (e.g. a
/// framework that cannot reach a scale).
pub fn fmt_opt(v: Option<f64>) -> String {
    v.map(fmt_f).unwrap_or_else(|| "-".into())
}

/// Powers-of-two worker counts from `lo` to `hi` inclusive.
pub fn pow2_range(lo: usize, hi: usize) -> Vec<usize> {
    let mut v = Vec::new();
    let mut w = lo;
    while w <= hi {
        v.push(w);
        w *= 2;
    }
    v
}

/// Print a section header for experiment output.
pub fn section(title: &str) {
    println!("\n=== {title} ===");
}

/// Extract the numeric value of a top-level-unique `"key": <number>` pair
/// from a `BENCH_*.json` document. The bench files are flat
/// machine-written JSON, so a scan for the quoted key is sufficient — no
/// JSON parser is vendored. Returns `None` if the key is absent or not
/// followed by a number.
pub fn json_number(doc: &str, key: &str) -> Option<f64> {
    let needle = format!("\"{key}\"");
    let at = doc.find(&needle)? + needle.len();
    let rest = doc[at..].trim_start().strip_prefix(':')?.trim_start();
    let end = rest
        .find(|c: char| {
            !(c.is_ascii_digit() || c == '.' || c == '-' || c == '+' || c == 'e' || c == 'E')
        })
        .unwrap_or(rest.len());
    rest[..end].parse().ok()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_aligns_columns() {
        let mut t = Table::new(&["name", "value"]);
        t.row(vec!["a".into(), "1".into()]);
        t.row(vec!["longer".into(), "22".into()]);
        let r = t.render();
        let lines: Vec<&str> = r.lines().collect();
        assert_eq!(lines.len(), 4);
        assert_eq!(lines[0].len(), lines[2].len());
    }

    #[test]
    fn pow2_ranges() {
        assert_eq!(pow2_range(32, 256), vec![32, 64, 128, 256]);
        assert_eq!(pow2_range(8, 8), vec![8]);
    }

    #[test]
    fn json_number_extracts_flat_keys() {
        let doc = r#"{
  "experiment": "x",
  "tps": 1234.5,
  "nested": { "inner_tps": 9.0 },
  "speedup": 2.5e1,
  "neg": -3
}"#;
        assert_eq!(json_number(doc, "tps"), Some(1234.5));
        assert_eq!(json_number(doc, "inner_tps"), Some(9.0));
        assert_eq!(json_number(doc, "speedup"), Some(25.0));
        assert_eq!(json_number(doc, "neg"), Some(-3.0));
        assert_eq!(json_number(doc, "missing"), None);
        assert_eq!(
            json_number(doc, "experiment"),
            None,
            "strings are not numbers"
        );
    }

    #[test]
    fn float_formats() {
        assert_eq!(fmt_f(0.0), "0");
        assert_eq!(fmt_f(1.23456), "1.23");
        assert_eq!(fmt_f(42.5), "42.5");
        assert_eq!(fmt_f(1234.5), "1234");
        assert_eq!(fmt_opt(None), "-");
    }
}
