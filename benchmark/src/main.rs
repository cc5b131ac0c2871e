//! The repo benchmark. See `benchmark/README.md`.
//!
//! ```text
//! bcpnn-benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! bcpnn-benchmark [--seed <n>] [--seconds <s>] [--trace <0|1>]   # all six
//! ```
//!
//! With `--workload` the last line of standard output is one JSON object:
//! `correct`, `attempted`, `failed` and `metrics` — every end-to-end metric
//! with `--trace 0`, every per-layer metric with `--trace 1`. Without it,
//! each workload runs in a child process of its own (so `peak_rss_mb` is
//! per workload) and the results are printed as one table.

mod fixture;
mod loadgen;
mod report;
mod spec;
mod stack;
mod stages;
mod stats;
mod trace;
mod workloads {
    pub mod http;
    pub mod learn;
    pub mod score;
    pub mod train;
}

use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};
use std::time::Duration;

use bcpnn_tensor::simd::dispatch::{active_tier, cpu_features};

use report::{peak_rss_mb, Rep, Run};
use spec::{spec, Workload, CLIENTS, REPETITIONS};
use stats::{mean, median, percentile, samples_beyond};
use trace::Tracer;

struct Args {
    workload: Option<&'static Workload>,
    seed: u64,
    seconds: u64,
    trace: bool,
    out: PathBuf,
}

fn usage(problem: &str) -> ! {
    eprintln!("error: {problem}");
    eprintln!(
        "usage: bcpnn-benchmark [--workload <name>] [--seed <n>] [--seconds <1..60>] [--trace <0|1>] [--out <dir>]"
    );
    let names: Vec<&str> = spec().workloads.iter().map(|w| w.name).collect();
    eprintln!("workloads: {}", names.join(", "));
    std::process::exit(2);
}

fn parse_args() -> Args {
    let mut args = Args {
        workload: None,
        seed: spec::DEFAULT_SEED,
        seconds: spec().run_seconds,
        trace: false,
        // Beside the sources this executable was built from, whatever the
        // working directory.
        out: Path::new(env!("CARGO_MANIFEST_DIR")).join("out"),
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it
            .next()
            .unwrap_or_else(|| usage(&format!("{flag} needs a value")));
        let number = || {
            value
                .parse::<u64>()
                .unwrap_or_else(|_| usage(&format!("{flag} needs a whole number, got {value:?}")))
        };
        match flag.as_str() {
            "--workload" => {
                args.workload = Some(
                    spec()
                        .workload(&value)
                        .unwrap_or_else(|| usage(&format!("unknown workload {value:?}"))),
                );
            }
            "--seed" => args.seed = number(),
            "--seconds" => args.seconds = number(),
            "--trace" => args.trace = number() != 0,
            "--out" => args.out = PathBuf::from(&value),
            _ => usage(&format!("unknown flag {flag}")),
        }
    }
    if !(1..=60).contains(&args.seconds) {
        usage("--seconds must be between 1 and 60");
    }
    args
}

/// What a run prints as its last line.
struct Outcome {
    correct: bool,
    attempted: u64,
    failed: u64,
    /// Name, unit, value, and what the table prints beside them.
    metrics: Vec<(&'static str, &'static str, f64, String)>,
}

impl Outcome {
    fn to_json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(name, unit, value, _)| {
                format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

fn print_meta(args: &Args) {
    let command = |program: &str, argv: &[&str]| {
        Command::new(program)
            .args(argv)
            .output()
            .ok()
            .filter(|o| o.status.success())
            .map_or("unknown".to_string(), |o| {
                String::from_utf8_lossy(&o.stdout).trim().to_string()
            })
    };
    let nproc = std::thread::available_parallelism().map_or(0, usize::from);
    println!(
        "meta: seed={} seconds={} nproc={nproc} clients={CLIENTS} parallel_pool={} simd_tier={} cpu_features=[{}]",
        args.seed,
        args.seconds,
        bcpnn_parallel::global_pool().num_threads(),
        active_tier().as_str(),
        cpu_features(),
    );
    println!(
        "meta: rustc=\"{}\" commit={}",
        command("rustc", &["--version"]),
        command("git", &["rev-parse", "--short", "HEAD"])
    );
}

/// Run one workload in this process and report it.
fn run_workload(workload: &'static Workload, args: &Args) -> Outcome {
    println!("== {} (trace {}) ==", workload.name, u8::from(args.trace));
    println!("why: {}", workload.why);
    print_meta(args);
    let mut tracer = Tracer::new(args.trace);
    // The traced pass is one repetition; end-to-end metrics come from
    // REPETITIONS untraced ones.
    let repetitions = if args.trace { 1 } else { REPETITIONS };
    let budget = Duration::from_secs_f64(args.seconds as f64 / REPETITIONS as f64);
    // Peak memory is read after the first repetition: one full pass of the
    // workload from a fresh process. Later repetitions reuse a heap the
    // first one fragmented, and how much that adds differs from run to run.
    let mut first_pass_rss_mb = 0.0;
    let reps: Vec<Rep> = (0..repetitions)
        .map(|r| {
            let run = Run {
                data_seed: args.seed.wrapping_add(r as u64),
                model_seed: fixture::MODEL_SEED + r as u64,
                budget,
                seconds: args.seconds,
                out: &args.out,
            };
            let rep = (workload.run)(&run, &mut tracer);
            if r == 0 {
                first_pass_rss_mb = peak_rss_mb();
            }
            rep
        })
        .collect();

    let attempted: u64 = reps.iter().map(|r| r.attempted).sum();
    let failed: u64 = reps.iter().map(|r| r.failed).sum();
    for why in reps.iter().flat_map(|r| &r.errors) {
        println!("FAILED: {why}");
    }
    let per_rep = |f: fn(&Rep) -> f64| reps.iter().map(f).collect::<Vec<_>>();
    let rows_per_s = if workload.mean_of_repetitions {
        mean(&per_rep(|r| r.rows_per_s))
    } else {
        median(&per_rep(|r| r.rows_per_s))
    };
    // Fewer than ten samples (`train_higgs`: one per fit) support no
    // percentile; the mean stands in for both.
    let latencies: Vec<f64> = reps
        .iter()
        .flat_map(|r| r.latencies_ms.iter().copied())
        .collect();
    let (latency_p50, latency_tail) = if latencies.len() < 10 {
        (mean(&latencies), mean(&latencies))
    } else {
        (
            percentile(&latencies, 0.5),
            percentile(&latencies, workload.tail),
        )
    };

    // Each repetition's model is another one by design, and its quality is
    // exact on its seeds: nothing for a median to shed.
    let accuracy = mean(&per_rep(|r| r.accuracy));
    let auc = mean(&per_rep(|r| r.auc));
    let setup_s = median(&per_rep(|r| r.setup_s));

    let metrics = if args.trace {
        let mut layers: Vec<(&'static str, f64)> =
            reps.into_iter().flat_map(|r| r.layers).collect();
        layers.push(("core.test_accuracy", accuracy));
        layers.push(("bench.traced_rows_per_s", rows_per_s));
        layers.push(("bench.traced_spans", tracer.spans().len() as f64));
        let path = args.out.join(format!("trace-{}.jsonl", workload.name));
        tracer
            .write_jsonl(&path)
            .expect("the benchmark's out directory is writable");
        println!(
            "spans: {} written to {}",
            tracer.spans().len(),
            path.display()
        );
        // The first value a repetition reported for a name; 0 when the
        // workload's path does not enter that layer.
        spec()
            .per_layer
            .iter()
            .map(|m| {
                let value = layers
                    .iter()
                    .find(|(name, _)| *name == m.name)
                    .map_or(0.0, |&(_, v)| v);
                (
                    m.name,
                    m.unit,
                    value,
                    format!("{} is better; moves {}", m.better, m.moves),
                )
            })
            .collect()
    } else {
        let measured = [
            ("setup_s", setup_s),
            ("peak_rss_mb", first_pass_rss_mb),
            ("rows_per_s", rows_per_s),
            ("latency_p50_ms", latency_p50),
            ("latency_tail_ms", latency_tail),
            ("test_auc", auc),
        ];
        spec()
            .end_to_end
            .iter()
            .map(|m| {
                let value = measured
                    .iter()
                    .find(|(name, _)| *name == m.name)
                    .unwrap_or_else(|| panic!("BENCHMARK.json: {} is not measured", m.name))
                    .1;
                let note = format!(
                    "{} is better; may worsen {:.0} %",
                    m.better,
                    m.bound * 100.0
                );
                (m.name, m.unit, value, note)
            })
            .collect()
    };

    let outcome = Outcome {
        correct: failed == 0 && attempted > 0,
        attempted,
        failed,
        metrics,
    };
    for (name, unit, value, note) in &outcome.metrics {
        println!("  {name:<38} {value:>16.6} {unit:<8} {note}");
    }
    if latencies.len() < 10 {
        println!(
            "  latency samples: {} (one per fit); too few for a percentile, so both latencies are their mean",
            latencies.len()
        );
    } else {
        println!(
            "  latency samples: {} pooled over {repetitions} repetition(s); p{} leaves {} beyond",
            latencies.len(),
            workload.tail * 100.0,
            samples_beyond(latencies.len(), workload.tail),
        );
    }
    println!(
        "  held-out accuracy {accuracy:.4} (no bound: --trace 1 reports it as core.test_accuracy)"
    );
    println!(
        "  operations: attempted {attempted}, succeeded {}, failed {failed}",
        attempted - failed
    );
    outcome
}

/// Run every workload, each in a child process, and print one table.
fn run_all(args: &Args) -> bool {
    let exe = std::env::current_exe().expect("the running executable has a path");
    let mut all_correct = true;
    for workload in &spec().workloads {
        let output = Command::new(&exe)
            .args(["--workload", workload.name])
            .args(["--seed", &args.seed.to_string()])
            .args(["--seconds", &args.seconds.to_string()])
            .args(["--trace", if args.trace { "1" } else { "0" }])
            .arg("--out")
            .arg(&args.out)
            .stderr(std::process::Stdio::inherit())
            .output()
            .expect("the benchmark can start itself");
        let stdout = String::from_utf8_lossy(&output.stdout);
        // Everything but the child's JSON line is its human-readable table.
        let (table, json) = stdout
            .trim_end()
            .rsplit_once('\n')
            .unwrap_or(("", stdout.trim_end()));
        println!("{table}");
        println!("  json: {json}");
        all_correct &= output.status.success();
    }
    all_correct
}

fn ensure_out_dir(out: &Path) {
    if let Err(e) = std::fs::create_dir_all(out) {
        eprintln!("error: cannot create {}: {e}", out.display());
        std::process::exit(2);
    }
}

fn main() -> ExitCode {
    let args = parse_args();
    ensure_out_dir(&args.out);
    let correct = match args.workload {
        Some(workload) => {
            let outcome = run_workload(workload, &args);
            println!("{}", outcome.to_json());
            outcome.correct
        }
        None => run_all(&args),
    };
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// One second of `gateway_single`: a real gateway on an ephemeral port,
    /// two clients, every reply checked.
    #[test]
    fn gateway_single_smoke() {
        let out = Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
        let run = Run {
            data_seed: 7,
            model_seed: fixture::MODEL_SEED,
            budget: Duration::from_secs(1),
            seconds: 1,
            out: &out,
        };
        let workload = spec()
            .workload("gateway_single")
            .expect("the contract names gateway_single");
        let rep = (workload.run)(&run, &mut Tracer::new(false));
        assert!(!rep.latencies_ms.is_empty(), "no request completed");
        assert!(rep.attempted > 0 && rep.rows_per_s > 0.0);
        assert_eq!(rep.failed, 0, "failed operations: {:?}", rep.errors);
        assert!(
            rep.layers.is_empty(),
            "per-layer metrics belong to the traced pass"
        );
    }
}
