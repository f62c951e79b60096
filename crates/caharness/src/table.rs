//! Plain-text table and CSV rendering for the figure binaries.

use std::fmt::Write as _;
use std::path::Path;

/// A labeled matrix: one row per series (scheme), one column per x value
/// (thread count, sample point, ...).
#[derive(Clone, Debug)]
pub struct SeriesTable {
    /// Table caption (printed above).
    pub title: String,
    /// Name of the x axis (first CSV column header).
    pub x_name: String,
    /// Column labels (x values).
    pub x_labels: Vec<String>,
    /// (series name, values) — values.len() == x_labels.len().
    pub series: Vec<(String, Vec<f64>)>,
}

impl SeriesTable {
    /// Create an empty table.
    pub fn new(title: impl Into<String>, x_name: impl Into<String>, x_labels: Vec<String>) -> Self {
        Self {
            title: title.into(),
            x_name: x_name.into(),
            x_labels,
            series: Vec::new(),
        }
    }

    /// Append a series row.
    pub fn push_series(&mut self, name: impl Into<String>, values: Vec<f64>) {
        assert_eq!(values.len(), self.x_labels.len(), "ragged series");
        self.series.push((name.into(), values));
    }

    /// Render as an aligned text table.
    pub fn render(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "## {}", self.title);
        let name_w = self
            .series
            .iter()
            .map(|(n, _)| n.len())
            .chain([self.x_name.len()])
            .max()
            .unwrap_or(8)
            .max(6);
        let col_w = self
            .x_labels
            .iter()
            .map(|l| l.len())
            .max()
            .unwrap_or(6)
            .max(9);
        let _ = write!(out, "{:<name_w$}", self.x_name);
        for l in &self.x_labels {
            let _ = write!(out, " {l:>col_w$}");
        }
        let _ = writeln!(out);
        for (name, vals) in &self.series {
            let _ = write!(out, "{name:<name_w$}");
            for &v in vals {
                if crate::sweep::is_err_cell(v) {
                    // This cell's sweep task failed (see experiments::render);
                    // plain NaN still renders as NaN — it means "not
                    // applicable", not "crashed".
                    let _ = write!(out, " {:>col_w$}", "ERR");
                } else {
                    let _ = write!(out, " {v:>col_w$.2}");
                }
            }
            let _ = writeln!(out);
        }
        out
    }

    /// Render as CSV (series name, then one column per x).
    pub fn to_csv(&self) -> String {
        let mut out = String::new();
        let _ = write!(out, "series");
        for l in &self.x_labels {
            let _ = write!(out, ",{l}");
        }
        let _ = writeln!(out);
        for (name, vals) in &self.series {
            let _ = write!(out, "{name}");
            for &v in vals {
                if crate::sweep::is_err_cell(v) {
                    let _ = write!(out, ",ERR");
                } else {
                    let _ = write!(out, ",{v}");
                }
            }
            let _ = writeln!(out);
        }
        out
    }

    /// Print the table and also write it as CSV under `results/`; panics,
    /// naming the path and the OS error, if either cannot be written.
    pub fn emit(&self, csv_name: &str) {
        println!("{}", self.render());
        let dir = Path::new("results");
        std::fs::create_dir_all(dir)
            .unwrap_or_else(|e| panic!("cannot create {}: {e}", dir.display()));
        let path = dir.join(csv_name);
        std::fs::write(&path, self.to_csv())
            .unwrap_or_else(|e| panic!("cannot write {}: {e}", path.display()));
        println!("[csv written to {}]\n", path.display());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn render_is_aligned_and_complete() {
        let mut t = SeriesTable::new("Fig X", "threads", vec!["1".into(), "2".into(), "4".into()]);
        t.push_series("ca", vec![1.0, 2.0, 4.0]);
        t.push_series("qsbr", vec![1.5, 2.5, 3.5]);
        let r = t.render();
        assert!(r.contains("## Fig X"));
        assert!(r.contains("ca"));
        assert!(r.contains("4.00"));
        let lines: Vec<_> = r.lines().collect();
        assert_eq!(lines.len(), 4, "title + header + 2 series");
        assert_eq!(lines[2].len(), lines[3].len(), "aligned rows");
    }

    #[test]
    fn csv_shape() {
        let mut t = SeriesTable::new("T", "x", vec!["1".into(), "2".into()]);
        t.push_series("s", vec![0.5, 1.5]);
        assert_eq!(t.to_csv(), "series,1,2\ns,0.5,1.5\n");
    }

    #[test]
    fn err_cells_render_as_err() {
        let mut t = SeriesTable::new("T", "x", vec!["1".into(), "2".into(), "4".into()]);
        t.push_series("s", vec![0.5, crate::sweep::ERR_CELL, f64::NAN]);
        let r = t.render();
        assert!(r.contains("ERR"), "{r}");
        assert!(r.contains("NaN"), "plain NaN must stay NaN: {r}");
        assert_eq!(t.to_csv(), "series,1,2,4\ns,0.5,ERR,NaN\n");
    }

    #[test]
    #[should_panic(expected = "ragged")]
    fn ragged_series_rejected() {
        let mut t = SeriesTable::new("T", "x", vec!["1".into()]);
        t.push_series("s", vec![1.0, 2.0]);
    }
}
