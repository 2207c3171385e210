//! Table formatting and JSON result records.

use std::io::Write;
use std::path::Path;

use serde::Serialize;

/// One experiment measurement, serialised to `results/<experiment>.jsonl`.
#[derive(Debug, Clone, Serialize)]
pub struct Record {
    /// Experiment id (`fig2`, `table5`, ...).
    pub experiment: String,
    /// Dataset name.
    pub dataset: String,
    /// Method / variant / lambda label.
    pub method: String,
    /// Swept parameter name (`epsilon`, `eta`, `B`, `b`, ...).
    pub parameter: String,
    /// Swept parameter value.
    pub value: f64,
    /// Metric name (`auc`, `mi`, `abs_loss`).
    pub metric: String,
    /// Mean over runs.
    pub mean: f64,
    /// Sample standard deviation over runs.
    pub std: f64,
    /// Number of runs.
    pub runs: u64,
    /// Dataset scale used.
    pub scale: f64,
}

/// Appends records to `results/<experiment>.jsonl` relative to the
/// current directory (directory created on demand) — the paper-artifact
/// binaries run from the workspace root, so records land in the
/// top-level `results/`.
///
/// # Errors
/// Any directory-creation, open, serialisation, or write failure. Callers
/// must surface the error — a bench whose records silently vanish leaves
/// no perf trajectory on disk, which is worse than a loud failure after
/// the numbers were printed.
pub fn append_jsonl(experiment: &str, records: &[Record]) -> std::io::Result<()> {
    let dir = Path::new("results");
    std::fs::create_dir_all(dir)?;
    let path = dir.join(format!("{experiment}.jsonl"));
    let mut file = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(&path)?;
    for r in records {
        let line = serde_json::to_string(r).map_err(std::io::Error::other)?;
        writeln!(file, "{line}")?;
    }
    Ok(())
}

/// Prints an aligned text table.
pub fn print_table(title: &str, headers: &[String], rows: &[Vec<String>]) {
    println!("\n== {title} ==");
    let cols = headers.len();
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for row in rows {
        for (c, cell) in row.iter().enumerate().take(cols) {
            widths[c] = widths[c].max(cell.len());
        }
    }
    let print_row = |cells: &[String]| {
        let line: Vec<String> = cells
            .iter()
            .enumerate()
            .map(|(c, cell)| {
                format!(
                    "{cell:<width$}",
                    width = widths.get(c).copied().unwrap_or(8)
                )
            })
            .collect();
        println!("| {} |", line.join(" | "));
    };
    print_row(headers);
    let sep: Vec<String> = widths.iter().map(|w| "-".repeat(*w)).collect();
    println!("|-{}-|", sep.join("-|-"));
    for row in rows {
        print_row(row);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_serialises() {
        let r = Record {
            experiment: "table5".into(),
            dataset: "PPI".into(),
            method: "AdvSGM".into(),
            parameter: "epsilon".into(),
            value: 6.0,
            metric: "auc".into(),
            mean: 0.6095,
            std: 0.0101,
            runs: 5,
            scale: 1.0,
        };
        let s = serde_json::to_string(&r).unwrap();
        assert!(s.contains("\"auc\""));
        assert!(s.contains("0.6095"));
    }

    #[test]
    fn print_table_does_not_panic() {
        print_table(
            "demo",
            &["a".into(), "b".into()],
            &[vec!["1".into(), "longer".into()]],
        );
    }
}
