//! Result tables: the markdown and CSV renderings of a [`BenchDoc`], whose
//! rows are trial 0 of every cell, and [`emit`], which prints and writes a
//! suite's documents.

use crate::runner::{BenchDoc, ExperimentRun, FailedExperiment};
use std::fmt::Write as _;
use std::io::Write as _;
use std::path::Path;
use std::time::Duration;

/// Prints each experiment's table to stdout in suite order, and writes its
/// CSV under `csv_dir` and its `BENCH_<id>.json` and timing sidecar under
/// `json_dir`. A failed experiment prints its `EXPERIMENT FAILED` table and
/// writes no JSON. Returns how many experiments failed: `experiments` exits
/// 1 unless that is 0.
pub fn emit(
    runs: Vec<Result<ExperimentRun, FailedExperiment>>,
    csv_dir: Option<&Path>,
    json_dir: Option<&Path>,
) -> std::io::Result<usize> {
    let mut failures = 0;
    for result in runs {
        let (doc, timing) = match result {
            Ok(ExperimentRun { doc, timing }) => {
                let elapsed = Duration::from_secs_f64(timing.elapsed_ms / 1e3);
                eprintln!("[{} done in {elapsed:.1?}]", doc.experiment);
                (doc, Some(timing))
            }
            Err(failed) => {
                failures += 1;
                eprintln!("[{} FAILED after {:.1?}]", failed.id, failed.elapsed);
                (failed.doc(), None)
            }
        };
        println!("{}", doc.markdown());
        if let Some(dir) = csv_dir {
            doc.write_csv(dir)?;
        }
        if let (Some(dir), Some(timing)) = (json_dir, timing) {
            std::fs::create_dir_all(dir)?;
            let id = &doc.experiment;
            let path = dir.join(format!("BENCH_{id}.json"));
            let json = serde_json::to_string_pretty(&doc).expect("serialize BenchDoc");
            std::fs::write(&path, json + "\n")?;
            let json = serde_json::to_string_pretty(&timing).expect("serialize TimingDoc");
            std::fs::write(dir.join(format!("BENCH_{id}.timing.json")), json + "\n")?;
            eprintln!("[{id} json -> {}]", path.display());
        }
    }
    Ok(failures)
}

impl BenchDoc {
    /// The table's rows: trial 0 of every cell, in cell order.
    pub fn table_rows(&self) -> impl Iterator<Item = &Vec<String>> {
        self.cells.iter().filter_map(|cell| cell.rows.first())
    }

    /// Renders GitHub-flavoured markdown.
    pub fn markdown(&self) -> String {
        let mut w: Vec<usize> = self.headers.iter().map(|h| h.len()).collect();
        for row in self.table_rows() {
            for (i, c) in row.iter().enumerate() {
                w[i] = w[i].max(c.len());
            }
        }
        let mut out = String::new();
        let id = self.experiment.to_uppercase();
        let _ = writeln!(out, "### {id} — {}\n", self.title);
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
        for row in self.table_rows() {
            line(row, &w, &mut out);
        }
        let _ = writeln!(out, "\n*Paper expectation:* {}\n", self.expectation);
        out
    }

    /// Writes the table as CSV (RFC 4180) to `<experiment>.csv` under `dir`.
    pub fn write_csv(&self, dir: &Path) -> std::io::Result<()> {
        std::fs::create_dir_all(dir)?;
        let mut f = std::fs::File::create(dir.join(format!("{}.csv", self.experiment)))?;
        for row in std::iter::once(&self.headers).chain(self.table_rows()) {
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
    use crate::runner::{BenchDoc, CellDoc};

    /// A document whose cells hold `rows` as their trials 0 and 1.
    fn doc(rows: Vec<Vec<String>>) -> BenchDoc {
        let cell = |row: Vec<String>| CellDoc {
            label: row.join(" "),
            seeded: true,
            trials: 2,
            rows: vec![row, cells!("trial", "1")],
            aggregate: None,
        };
        BenchDoc {
            experiment: "e0".into(),
            title: "demo".into(),
            expectation: "expected".into(),
            trials: 2,
            headers: cells!("a", "bb"),
            cells: rows.into_iter().map(cell).collect(),
        }
    }

    #[test]
    fn markdown_and_csv_shapes() {
        let mut t = doc(vec![cells!(1, "xy"), cells!(22, "z")]);
        let md = t.markdown();
        assert!(md.contains("### E0"));
        assert!(md.contains("| 22 |"));
        assert!(!md.contains("trial"), "only trial 0 is printed");
        let dir = std::env::temp_dir().join("mesh-bench-test");
        t.write_csv(&dir).unwrap();
        let csv = std::fs::read_to_string(dir.join("e0.csv")).unwrap();
        assert_eq!(csv.lines().count(), 3);
        assert!(csv.starts_with("a,bb"));
        // A cell holding the separator (reliable's backoff column, any
        // `bounded-deflect(k=..,d=..)` name) or a quote stays one field.
        t = doc(vec![
            cells!(1, "xy"),
            cells!(22, "z"),
            cells!("expo(64..512,j16)", "say \"hi\""),
        ]);
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
}
