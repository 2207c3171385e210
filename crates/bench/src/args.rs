//! Minimal CLI argument parsing for the experiment binaries.
//!
//! Hand-rolled on purpose: the binaries need five flags, which does not
//! justify a CLI dependency outside the sanctioned crate set.

/// Common experiment options.
#[derive(Debug, Clone, PartialEq)]
pub struct BenchArgs {
    /// Dataset scale in `(0, 1]` (1.0 = the paper's published sizes).
    pub scale: f64,
    /// Independent repetitions per cell (the paper uses 5).
    pub runs: u64,
    /// Base seed.
    pub seed: u64,
    /// Optional training-epoch override (`n_epoch`).
    pub epochs: Option<usize>,
    /// Optional dataset filter (lower-case paper names).
    pub datasets: Option<Vec<String>>,
}

impl Default for BenchArgs {
    fn default() -> Self {
        Self {
            scale: 0.1,
            runs: 2,
            seed: 42,
            epochs: None,
            datasets: None,
        }
    }
}

impl BenchArgs {
    /// Whether `name` passes the `--datasets` filter.
    pub fn wants_dataset(&self, name: &str) -> bool {
        match &self.datasets {
            None => true,
            Some(list) => list.iter().any(|d| d == &name.to_ascii_lowercase()),
        }
    }
}

impl BenchArgs {
    /// Parses `--scale`, `--runs`, `--seed`, `--epochs` and `--datasets`
    /// from an iterator of argument tokens (typically
    /// `std::env::args().skip(1)`).
    ///
    /// # Errors
    /// Returns a human-readable message on unknown flags or bad values.
    pub fn parse(args: impl IntoIterator<Item = String>) -> Result<Self, String> {
        let mut out = Self::default();
        let mut it = args.into_iter();
        while let Some(flag) = it.next() {
            let mut value_for = |name: &str| -> Result<String, String> {
                it.next().ok_or_else(|| format!("{name} needs a value"))
            };
            match flag.as_str() {
                "--scale" => {
                    out.scale = value_for("--scale")?
                        .parse()
                        .map_err(|e| format!("--scale: {e}"))?;
                    if !(out.scale > 0.0 && out.scale <= 1.0) {
                        return Err(format!("--scale must be in (0,1], got {}", out.scale));
                    }
                }
                "--runs" => {
                    out.runs = value_for("--runs")?
                        .parse()
                        .map_err(|e| format!("--runs: {e}"))?;
                    if out.runs == 0 {
                        return Err("--runs must be positive".into());
                    }
                }
                "--seed" => {
                    out.seed = value_for("--seed")?
                        .parse()
                        .map_err(|e| format!("--seed: {e}"))?;
                }
                "--epochs" => {
                    let v: usize = value_for("--epochs")?
                        .parse()
                        .map_err(|e| format!("--epochs: {e}"))?;
                    out.epochs = Some(v);
                }
                "--datasets" => {
                    let list: Vec<String> = value_for("--datasets")?
                        .split(',')
                        .map(|s| s.trim().to_ascii_lowercase())
                        .filter(|s| !s.is_empty())
                        .collect();
                    if list.is_empty() {
                        return Err("--datasets needs at least one name".into());
                    }
                    out.datasets = Some(list);
                }
                "--help" | "-h" => {
                    return Err(
                        "usage: [--scale f64] [--runs n] [--seed n] [--epochs n] [--datasets a,b]"
                            .into(),
                    )
                }
                other => return Err(format!("unknown flag {other}")),
            }
        }
        Ok(out)
    }

    /// Parses the process arguments, exiting with a message on error.
    pub fn from_env() -> Self {
        match Self::parse(std::env::args().skip(1)) {
            Ok(a) => a,
            Err(msg) => {
                eprintln!("{msg}");
                std::process::exit(2);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(tokens: &[&str]) -> Result<BenchArgs, String> {
        BenchArgs::parse(tokens.iter().map(|s| s.to_string()))
    }

    #[test]
    fn defaults_when_empty() {
        let a = parse(&[]).unwrap();
        assert_eq!(a, BenchArgs::default());
    }

    #[test]
    fn parses_all_flags() {
        let a = parse(&[
            "--scale", "0.5", "--runs", "5", "--seed", "7", "--epochs", "10",
        ])
        .unwrap();
        assert_eq!(a.scale, 0.5);
        assert_eq!(a.runs, 5);
        assert_eq!(a.seed, 7);
        assert_eq!(a.epochs, Some(10));
    }

    #[test]
    fn rejects_bad_scale() {
        assert!(parse(&["--scale", "0"]).is_err());
        assert!(parse(&["--scale", "1.5"]).is_err());
        assert!(parse(&["--scale", "abc"]).is_err());
    }

    #[test]
    fn rejects_unknown_flag() {
        assert!(parse(&["--what"]).is_err());
    }

    #[test]
    fn rejects_missing_value() {
        assert!(parse(&["--runs"]).is_err());
    }

    #[test]
    fn help_is_an_error_message() {
        let e = parse(&["--help"]).unwrap_err();
        assert!(e.contains("usage"));
    }

    #[test]
    fn dataset_filter() {
        let a = parse(&["--datasets", "PPI, blog"]).unwrap();
        assert!(a.wants_dataset("ppi"));
        assert!(a.wants_dataset("Blog"));
        assert!(!a.wants_dataset("wiki"));
        let b = parse(&[]).unwrap();
        assert!(b.wants_dataset("anything"));
    }
}
