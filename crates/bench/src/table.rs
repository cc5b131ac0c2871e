//! The one markdown writer of the reproduction ledger: pipe tables and the
//! number formats every `EXPERIMENTS.md` cell uses.

use bcpnn_tensor::stats::{mean, std_dev};

/// A markdown pipe table. The header and every row are written with their
/// cells separated by `" | "`, so a row is one `format!`.
///
/// # Panics
/// Panics when a row does not have as many cells as the header.
pub fn table(header: &str, rows: &[String]) -> String {
    let columns = header.split(" | ").count();
    let mut out = format!("| {header} |\n|{}\n", " --- |".repeat(columns));
    for row in rows {
        assert_eq!(
            row.split(" | ").count(),
            columns,
            "row {row:?} does not have the {columns} cells of {header:?}"
        );
        out.push_str(&format!("| {row} |\n"));
    }
    out
}

/// Format a fraction as a percentage with two decimals (`0.6858` → `68.58%`).
pub fn pct(v: f64) -> String {
    format!("{:.2}%", v * 100.0)
}

/// Format a mean ± standard deviation pair.
pub fn mean_std(mean: f64, std: f64) -> String {
    format!("{mean:.3} ± {std:.3}")
}

/// Format a mean ± standard deviation pair of fractions as a percentage.
pub fn pct_mean_std(mean: f64, std: f64) -> String {
    format!("{:.2} ± {:.2}%", mean * 100.0, std * 100.0)
}

/// Mean ± sample standard deviation of fractions, as a percentage
/// (`[0.68, 0.70]` → `69.00 ± 1.41%`).
pub fn pct_spread(values: &[f64]) -> String {
    pct_mean_std(mean(values), std_dev(values))
}

/// Mean ± sample standard deviation with three decimals (AUCs, seconds).
pub fn spread(values: &[f64]) -> String {
    mean_std(mean(values), std_dev(values))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_pipe_rows() {
        let rows = ["1 HCU | 68.58%".to_string(), "8 HCU | 69.15%".to_string()];
        assert_eq!(
            table("config | accuracy", &rows),
            "| config | accuracy |\n| --- | --- |\n| 1 HCU | 68.58% |\n| 8 HCU | 69.15% |\n"
        );
    }

    #[test]
    #[should_panic(expected = "cells")]
    fn rejects_ragged_rows() {
        table("a | b", &["only one".to_string()]);
    }

    #[test]
    fn formatters() {
        assert_eq!(pct(0.6858), "68.58%");
        assert_eq!(mean_std(0.5, 0.01), "0.500 ± 0.010");
        assert_eq!(pct_spread(&[0.68, 0.70]), "69.00 ± 1.41%");
        assert_eq!(spread(&[0.75, 0.75]), "0.750 ± 0.000");
    }
}
