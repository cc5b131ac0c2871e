//! Compare a benchmark run against the committed baseline — the CLI behind
//! the CI `bench-regression` job.
//!
//! ```sh
//! # Run the benches with machine-readable output, then compare:
//! BENCH_JSON=bench.jsonl cargo bench -p bcpnn-bench --bench backends
//! cargo run -p bcpnn-bench --bin bench_compare -- \
//!     --current bench.jsonl --baseline ci/bench-baseline.json \
//!     --threshold 40 \
//!     --assert-faster "backend_traces/parallel<backend_traces/naive"
//!
//! # Refresh the committed baseline in one command:
//! ci/refresh-bench-baseline.sh
//! ```
//!
//! Exit status is non-zero when any bench regressed past the threshold,
//! vanished from the run, or a `--assert-faster` claim failed. Absolute
//! thresholds guard the *committed* baseline (same class of machine in CI);
//! `--assert-faster` claims are relative and hold anywhere.

use std::io::Write as _;
use std::process::ExitCode;

use bcpnn_bench::benchjson::{
    assert_faster, canonical_report_with_meta, compare, markdown_table, parse_report_full,
    BenchMeta, BenchRecord,
};

struct Options {
    current: String,
    baseline: Option<String>,
    threshold_pct: f64,
    write_baseline: Option<String>,
    claims: Vec<String>,
    summary: Option<String>,
}

fn usage() -> String {
    "usage: bench_compare --current <bench.json|jsonl> [--baseline <baseline.json>]\n\
     \x20                 [--threshold <pct, default 40>] [--write-baseline <path>]\n\
     \x20                 [--assert-faster \"fast<slow\"]... [--summary <path>]"
        .to_string()
}

fn parse_args(args: &[String]) -> Result<Options, String> {
    let mut opts = Options {
        current: String::new(),
        baseline: None,
        threshold_pct: 40.0,
        write_baseline: None,
        claims: Vec::new(),
        summary: None,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{flag} needs a value\n{}", usage()))
        };
        match flag.as_str() {
            "--current" => opts.current = value()?,
            "--baseline" => opts.baseline = Some(value()?),
            "--threshold" => {
                opts.threshold_pct = value()?
                    .parse()
                    .map_err(|_| "--threshold expects a number (percent)".to_string())?;
            }
            "--write-baseline" => opts.write_baseline = Some(value()?),
            "--assert-faster" => opts.claims.push(value()?),
            "--summary" => opts.summary = Some(value()?),
            "--help" | "-h" => return Err(usage()),
            other => return Err(format!("unknown flag {other}\n{}", usage())),
        }
    }
    if opts.current.is_empty() {
        return Err(format!("--current is required\n{}", usage()));
    }
    Ok(opts)
}

fn load_records(path: &str) -> Result<(Vec<BenchRecord>, BenchMeta), String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    parse_report_full(&text).map_err(|e| format!("{path}: {e}"))
}

fn run(opts: &Options) -> Result<(), String> {
    let (current, meta) = load_records(&opts.current)?;
    eprintln!(
        "loaded {} benchmark(s) from {}",
        current.len(),
        opts.current
    );

    let mut failures: Vec<String> = Vec::new();
    let mut summary_text = String::new();

    if !meta.is_empty() {
        summary_text.push_str("### Run metadata\n\n");
        for (key, value) in &meta {
            let line = format!("- `{key}`: {value}");
            println!("{line}");
            summary_text.push_str(&line);
            summary_text.push('\n');
        }
        summary_text.push('\n');
    }

    if let Some(baseline_path) = &opts.baseline {
        let (baseline, _) = load_records(baseline_path)?;
        let report = compare(&current, &baseline, opts.threshold_pct);
        let table = markdown_table(&report);
        print!("{table}");
        summary_text.push_str(&table);
        for row in report.failures() {
            failures.push(match row.delta_pct {
                Some(d) => format!(
                    "{}: {d:+.1}% vs baseline (threshold {:.0}%)",
                    row.name, opts.threshold_pct
                ),
                None => format!("{}: present in baseline but not measured", row.name),
            });
        }
    }

    if !opts.claims.is_empty() {
        summary_text.push_str("\n### Relative speed claims\n\n");
        for claim in &opts.claims {
            match assert_faster(&current, claim) {
                Ok(speedup) => {
                    let line = format!("- `{claim}` holds ({speedup:.2}x)");
                    println!("{line}");
                    summary_text.push_str(&line);
                    summary_text.push('\n');
                }
                Err(e) => {
                    let line = format!("- `{claim}` **FAILED**: {e}");
                    println!("{line}");
                    summary_text.push_str(&line);
                    summary_text.push('\n');
                    failures.push(e);
                }
            }
        }
    }

    if let Some(path) = &opts.summary {
        std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(path)
            .and_then(|mut f| f.write_all(summary_text.as_bytes()))
            .map_err(|e| format!("cannot append summary to {path}: {e}"))?;
    }

    if let Some(path) = &opts.write_baseline {
        std::fs::write(path, canonical_report_with_meta(&current, &meta))
            .map_err(|e| format!("cannot write baseline {path}: {e}"))?;
        eprintln!("wrote canonical baseline to {path}");
    }

    if failures.is_empty() {
        Ok(())
    } else {
        Err(format!(
            "{} benchmark check(s) failed:\n  {}",
            failures.len(),
            failures.join("\n  ")
        ))
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let opts = match parse_args(&args) {
        Ok(opts) => opts,
        Err(msg) => {
            eprintln!("{msg}");
            return ExitCode::FAILURE;
        }
    };
    match run(&opts) {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("{msg}");
            ExitCode::FAILURE
        }
    }
}
