//! Runs one benchmark workload and prints its result as the last line:
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload cold_corpus --seed 1 --seconds 25 --trace 0
//! ```
//!
//! Side files (run record, per-circuit layer breakdown, spans) go to
//! `.perfbench_out/` under the working directory.

use std::path::PathBuf;
use std::process::ExitCode;

use swact_perfbench::inputs::Corpus;
use swact_perfbench::report::{
    json_num, json_object, json_str, result_line, END_TO_END, PER_LAYER,
};
use swact_perfbench::stats::tail_percentile;
use swact_perfbench::trace::spans_jsonl;
use swact_perfbench::workloads::{run, Config, Outcome, Workload};

const USAGE: &str = "usage: swact-perfbench --workload <cold_corpus|random_scenarios|input_sweep> \
--seed <n> --seconds <s> --trace <0|1>";

fn parse_args() -> Result<Config, String> {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::parse(&value).ok_or(format!("unknown workload {value}"))?)
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                seconds = Some(
                    value
                        .parse::<f64>()
                        .map_err(|e| format!("--seconds: {e}"))?,
                )
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value}")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let seconds = seconds.ok_or("missing --seconds")?;
    if !(seconds > 0.0 && seconds.is_finite()) {
        return Err(format!("--seconds must be positive, not {seconds}"));
    }
    Ok(Config {
        workload: workload.ok_or("missing --workload")?,
        seed: seed.ok_or("missing --seed")?,
        seconds,
        trace: trace.ok_or("missing --trace")?,
        corpus: Corpus::Full,
        out_dir: PathBuf::from(".perfbench_out"),
    })
}

/// The commit of the checkout the benchmark runs in, if it is a git
/// repository itself (git may not look above it).
fn commit() -> String {
    let cwd = std::env::current_dir().unwrap_or_default();
    std::process::Command::new("git")
        .args(["rev-parse", "HEAD"])
        .env("GIT_CEILING_DIRECTORIES", cwd.parent().unwrap_or(&cwd))
        .output()
        .ok()
        .filter(|out| out.status.success())
        .and_then(|out| String::from_utf8(out.stdout).ok())
        .map_or("unknown".to_string(), |s| s.trim().to_string())
}

fn run_record(config: &Config, outcome: &Outcome) -> String {
    let names = if config.trace {
        &PER_LAYER[..]
    } else {
        &END_TO_END[..]
    };
    let metrics: Vec<(&str, String)> = names
        .iter()
        .map(|(name, _)| {
            (
                *name,
                json_num(outcome.metrics.get(name).copied().unwrap_or(0.0)),
            )
        })
        .collect();
    let failures: Vec<String> = outcome.failures.iter().map(|f| json_str(f)).collect();
    let circuits: Vec<String> = outcome.circuits.iter().map(|c| json_str(c)).collect();
    let cpus = std::thread::available_parallelism().map_or(0, |n| n.get());
    json_object(&[
        ("workload", json_str(config.workload.name())),
        ("seed", config.seed.to_string()),
        ("seconds", json_num(config.seconds)),
        ("trace", config.trace.to_string()),
        ("circuits", format!("[{}]", circuits.join(", "))),
        (
            "host",
            json_object(&[
                ("cpus", cpus.to_string()),
                ("os", json_str(std::env::consts::OS)),
                ("arch", json_str(std::env::consts::ARCH)),
            ]),
        ),
        ("commit", json_str(&commit())),
        ("attempted", outcome.attempted.to_string()),
        ("failed", outcome.failed.to_string()),
        (
            "failed_frac",
            json_num(outcome.failed as f64 / outcome.attempted.max(1) as f64),
        ),
        ("failures", format!("[{}]", failures.join(", "))),
        ("latency_sample", json_str(outcome.latency_unit)),
        ("latency_samples", outcome.latency_samples.to_string()),
        ("metrics", json_object(&metrics)),
        (
            "per_circuit",
            outcome.breakdown.clone().unwrap_or("null".into()),
        ),
    ])
}

fn main() -> ExitCode {
    let config = match parse_args() {
        Ok(config) => config,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let outcome = run(&config);
    let record = run_record(&config, &outcome);
    let stem = format!(
        "{}-seed{}-trace{}",
        config.workload.name(),
        config.seed,
        u8::from(config.trace)
    );
    let written = std::fs::create_dir_all(&config.out_dir).and_then(|()| {
        std::fs::write(config.out_dir.join(format!("{stem}.json")), &record)?;
        if config.trace {
            let spans = spans_jsonl(&outcome.tracer.spans(), &outcome.circuits);
            std::fs::write(config.out_dir.join(format!("{stem}-spans.jsonl")), spans)?;
        }
        Ok(())
    });
    if let Err(e) = written {
        eprintln!(
            "cannot write side files under {}: {e}",
            config.out_dir.display()
        );
    }

    let names = if config.trace {
        &PER_LAYER[..]
    } else {
        &END_TO_END[..]
    };
    println!(
        "{} seed {} ({} s{}): {} of {} operations failed",
        config.workload.name(),
        config.seed,
        config.seconds,
        if config.trace { ", traced" } else { "" },
        outcome.failed,
        outcome.attempted
    );
    for failure in &outcome.failures {
        println!("  FAILED: {failure}");
    }
    for (name, unit) in names {
        let value = outcome.metrics.get(name).copied().unwrap_or(0.0);
        println!("  {name:<32} {value:>16.6} {unit}");
    }
    println!(
        "  latency sample = one {}; {}",
        outcome.latency_unit,
        tail_note(outcome.latency_samples)
    );
    println!("{record}");
    println!(
        "{}",
        result_line(outcome.attempted, outcome.failed, names, &outcome.metrics)
    );
    ExitCode::SUCCESS
}

/// How far the latency samples support a p95, for the summary line.
fn tail_note(samples: usize) -> String {
    match tail_percentile(samples) {
        Some(p) if p >= 95 => format!("n={samples}, p95 supported (tail up to p{p})"),
        Some(p) => format!(
            "n={samples}, p95 rests on fewer than 10 samples beyond it (supported tail p{p})"
        ),
        None => format!("n={samples}, fewer than 20 samples: percentiles are indicative only"),
    }
}
