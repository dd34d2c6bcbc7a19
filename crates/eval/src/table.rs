//! Printable experiment tables (one per paper figure).

use std::fmt;

/// A labelled series table: an x column plus one y column per series.
#[derive(Debug, Clone)]
pub struct Table {
    /// Figure/table identifier, e.g. "Figure 8a".
    pub id: String,
    /// What is being plotted.
    pub title: String,
    /// x-axis label.
    pub x_label: String,
    /// One label per series.
    pub series: Vec<String>,
    /// Rows: (x value, one y per series). `f64::NAN` marks a missing cell.
    pub rows: Vec<(f64, Vec<f64>)>,
}

impl Table {
    /// Creates an empty table.
    #[must_use]
    pub fn new(id: &str, title: &str, x_label: &str, series: Vec<String>) -> Self {
        Table {
            id: id.to_string(),
            title: title.to_string(),
            x_label: x_label.to_string(),
            series,
            rows: Vec::new(),
        }
    }

    /// Appends a row.
    ///
    /// # Panics
    /// Panics when the number of y values does not match the series count.
    pub fn push_row(&mut self, x: f64, ys: Vec<f64>) {
        assert_eq!(
            ys.len(),
            self.series.len(),
            "row width must match series count"
        );
        self.rows.push((x, ys));
    }

    /// A column by series name, as (x, y) pairs.
    #[must_use]
    pub fn column(&self, series: &str) -> Option<Vec<(f64, f64)>> {
        let idx = self.series.iter().position(|s| s == series)?;
        Some(self.rows.iter().map(|(x, ys)| (*x, ys[idx])).collect())
    }

    /// Serialises to CSV (header + rows).
    #[must_use]
    pub fn to_csv(&self) -> String {
        let mut out = String::new();
        out.push_str(&self.x_label);
        for s in &self.series {
            out.push(',');
            out.push_str(s);
        }
        out.push('\n');
        for (x, ys) in &self.rows {
            out.push_str(&format!("{x}"));
            for y in ys {
                out.push_str(&format!(",{y:.6}"));
            }
            out.push('\n');
        }
        out
    }
}

impl fmt::Display for Table {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "== {} — {} ==", self.id, self.title)?;
        write!(f, "{:>12}", self.x_label)?;
        for s in &self.series {
            write!(f, " {s:>16}")?;
        }
        writeln!(f)?;
        for (x, ys) in &self.rows {
            write!(f, "{x:>12.2}")?;
            for y in ys {
                if y.is_nan() {
                    write!(f, " {:>16}", "-")?;
                } else {
                    write!(f, " {y:>16.4}")?;
                }
            }
            writeln!(f)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Table {
        let mut t = Table::new(
            "Figure 8a",
            "accuracy vs sampling interval",
            "SR(min)",
            vec!["HRIS".into(), "IVMM".into()],
        );
        t.push_row(3.0, vec![0.85, 0.75]);
        t.push_row(6.0, vec![0.80, 0.68]);
        t
    }

    #[test]
    fn csv_roundtrip_shape() {
        let t = sample();
        let csv = t.to_csv();
        let lines: Vec<&str> = csv.trim().lines().collect();
        assert_eq!(lines.len(), 3);
        assert_eq!(lines[0], "SR(min),HRIS,IVMM");
        assert!(lines[1].starts_with('3'));
    }

    #[test]
    fn column_extraction() {
        let t = sample();
        let col = t.column("IVMM").unwrap();
        assert_eq!(col, vec![(3.0, 0.75), (6.0, 0.68)]);
        assert!(t.column("nope").is_none());
    }

    #[test]
    #[should_panic(expected = "row width")]
    fn mismatched_row_rejected() {
        let mut t = sample();
        t.push_row(9.0, vec![0.7]);
    }

    #[test]
    fn display_renders_nan_as_dash() {
        let mut t = sample();
        t.push_row(9.0, vec![f64::NAN, 0.6]);
        let s = t.to_string();
        assert!(s.contains('-'));
        assert!(s.contains("Figure 8a"));
    }
}
