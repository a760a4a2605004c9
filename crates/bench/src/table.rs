//! Result tables: markdown rendering and CSV export.

use std::fmt::Write as _;
use std::io::Write as _;
use std::path::Path;

/// A result table for one experiment.
#[derive(Clone, Debug)]
pub struct Table {
    /// Experiment id, e.g. "e1".
    pub id: String,
    /// Title line (what the table reproduces).
    pub title: String,
    /// What the paper claims; printed under the table.
    pub expectation: String,
    pub headers: Vec<String>,
    pub rows: Vec<Vec<String>>,
}

impl Table {
    /// Creates an empty table.
    pub fn new(id: &str, title: &str, expectation: &str, headers: &[&str]) -> Table {
        Table {
            id: id.into(),
            title: title.into(),
            expectation: expectation.into(),
            headers: headers.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a row (stringifies the cells).
    pub fn row<I: IntoIterator<Item = String>>(&mut self, cells: I) {
        let row: Vec<String> = cells.into_iter().collect();
        assert_eq!(row.len(), self.headers.len(), "row width mismatch");
        self.rows.push(row);
    }

    /// Renders GitHub-flavoured markdown.
    pub fn markdown(&self) -> String {
        let mut w: Vec<usize> = self.headers.iter().map(|h| h.len()).collect();
        for row in &self.rows {
            for (i, c) in row.iter().enumerate() {
                w[i] = w[i].max(c.len());
            }
        }
        let mut out = String::new();
        let _ = writeln!(out, "### {} — {}\n", self.id.to_uppercase(), self.title);
        let line = |cells: &[String], w: &[usize], out: &mut String| {
            let body: Vec<String> = cells
                .iter()
                .enumerate()
                .map(|(i, c)| format!("{:>width$}", c, width = w[i]))
                .collect();
            let _ = writeln!(out, "| {} |", body.join(" | "));
        };
        line(&self.headers, &w, &mut out);
        let sep: Vec<String> = w.iter().map(|&n| "-".repeat(n)).collect();
        let _ = writeln!(out, "|-{}-|", sep.join("-|-"));
        for row in &self.rows {
            line(row, &w, &mut out);
        }
        let _ = writeln!(out, "\n*Paper expectation:* {}\n", self.expectation);
        out
    }

    /// Writes the table as CSV (RFC 4180) under `dir`.
    pub fn write_csv(&self, dir: &Path) -> std::io::Result<()> {
        std::fs::create_dir_all(dir)?;
        let mut f = std::fs::File::create(dir.join(format!("{}.csv", self.id)))?;
        for row in std::iter::once(&self.headers).chain(&self.rows) {
            let cells: Vec<String> = row.iter().map(|c| csv_cell(c)).collect();
            writeln!(f, "{}", cells.join(","))?;
        }
        Ok(())
    }
}

/// One CSV field: quoted, with inner quotes doubled, iff it contains a
/// separator, a quote or a line break (`expo(64..512,j16)` is one cell).
fn csv_cell(cell: &str) -> String {
    if cell.contains([',', '"', '\n', '\r']) {
        format!("\"{}\"", cell.replace('"', "\"\""))
    } else {
        cell.to_string()
    }
}

/// Convenience macro-free row builder: stringify heterogeneous cells.
#[macro_export]
macro_rules! cells {
    ($($v:expr),* $(,)?) => {
        vec![$(format!("{}", $v)),*]
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn markdown_and_csv_shapes() {
        let mut t = Table::new("e0", "demo", "expected", &["a", "bb"]);
        t.row(cells!(1, "xy"));
        t.row(cells!(22, "z"));
        let md = t.markdown();
        assert!(md.contains("### E0"));
        assert!(md.contains("| 22 |"));
        let dir = std::env::temp_dir().join("mesh-bench-test");
        t.write_csv(&dir).unwrap();
        let csv = std::fs::read_to_string(dir.join("e0.csv")).unwrap();
        assert_eq!(csv.lines().count(), 3);
        assert!(csv.starts_with("a,bb"));
        // A cell holding the separator (reliable's backoff column, any
        // `bounded-deflect(k=..,d=..)` name) or a quote stays one field.
        t.row(cells!("expo(64..512,j16)", "say \"hi\""));
        t.write_csv(&dir).unwrap();
        let csv = std::fs::read_to_string(dir.join("e0.csv")).unwrap();
        assert_eq!(
            csv.lines().last(),
            Some(r#""expo(64..512,j16)","say ""hi""""#)
        );
        assert!(
            csv.starts_with("a,bb\n1,xy\n22,z\n"),
            "plain cells unquoted"
        );
    }

    #[test]
    #[should_panic(expected = "row width")]
    fn rejects_wrong_width() {
        let mut t = Table::new("x", "t", "e", &["a"]);
        t.row(cells!(1, 2));
    }
}
