//! One benchmark for the whole prediction chain: seeded simnet campaign,
//! GridFTP instrumentation, ULM log, parse, predictor replay and
//! tournament, GRIS/GIIS serving, replica broker and co-allocation.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload <paper_pipeline|online_grid|directory_load|coalloc_faulty> \
//!     --seed <n> --seconds <s> --trace <0|1> [--out <report path>]
//! ```
//!
//! Every input is generated from `--seed`; the program under test sees
//! only those inputs and is driven through its public calls. With
//! `--trace 0` the run reports the end-to-end metrics; with `--trace 1`
//! it reports per-layer busy times and counts, read through obs sinks and
//! wall-clock spans around the public calls, plus the tracing overhead.
//! Human-readable lines come first; the last line of standard output is
//! one JSON object:
//! `{"correct": .., "attempted": .., "failed": .., "metrics": {..}}`.
//! The run exits non-zero if any output check failed. Nothing is written
//! to disk unless `--out` names a file for the report.

mod coalloc_faulty;
mod directory_load;
mod measure;
mod online_grid;
mod paper_pipeline;

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Duration;

use measure::{Metric, Outcome, END_TO_END, PER_LAYER};

/// How one workload run is driven.
#[derive(Debug, Clone)]
pub struct RunConfig {
    /// Seed every input is generated from.
    pub seed: u64,
    /// Measuring time.
    pub budget: Duration,
    /// Per-layer (traced) run instead of the end-to-end one.
    pub trace: bool,
}

/// The workloads, by name.
pub const WORKLOADS: [&str; 4] = [
    "paper_pipeline",
    "online_grid",
    "directory_load",
    "coalloc_faulty",
];

/// Run workload `name` at full size, or at the test size when `tiny`.
pub fn run_workload(name: &str, rc: &RunConfig, tiny: bool) -> Option<Outcome> {
    Some(match name {
        "paper_pipeline" => {
            let p = if tiny {
                paper_pipeline::Params::tiny()
            } else {
                paper_pipeline::Params::full()
            };
            paper_pipeline::run(&p, rc)
        }
        "online_grid" => {
            let p = if tiny {
                online_grid::Params::tiny()
            } else {
                online_grid::Params::full()
            };
            online_grid::run(&p, rc)
        }
        "directory_load" => {
            let p = if tiny {
                directory_load::Params::tiny()
            } else {
                directory_load::Params::full()
            };
            directory_load::run(&p, rc)
        }
        "coalloc_faulty" => {
            let p = if tiny {
                coalloc_faulty::Params::tiny()
            } else {
                coalloc_faulty::Params::full()
            };
            coalloc_faulty::run(&p, rc)
        }
        _ => return None,
    })
}

/// Validate the reported metrics against the declared tables: every
/// declared metric present once, in order, finite, and end-to-end values
/// never 0.
fn validate(out: &mut Outcome, trace: bool) {
    let declared = if trace { PER_LAYER } else { END_TO_END };
    let names: Vec<&str> = out.metrics.iter().map(|m| m.name).collect();
    let want: Vec<&str> = declared.iter().map(|d| d.0).collect();
    out.check(names == want, || {
        "reported metrics differ from the declared table".into()
    });
    let bad: Vec<&'static str> = out
        .metrics
        .iter()
        .filter(|m| !m.value.is_finite() || (!trace && m.value <= 0.0))
        .map(|m| m.name)
        .collect();
    out.check(bad.is_empty(), || format!("metrics not measured: {bad:?}"));
}

/// The result line: one JSON object.
fn result_json(out: &Outcome) -> String {
    let metrics: Vec<String> = out
        .metrics
        .iter()
        .map(|Metric { name, value, unit }| {
            // Non-finite values already failed `validate`; JSON has no
            // spelling for them.
            let v = if value.is_finite() { *value } else { 0.0 };
            format!("\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        out.failures.is_empty(),
        out.attempted.max(1),
        out.failures.len(),
        metrics.join(", ")
    )
}

struct Args {
    workload: String,
    rc: RunConfig,
    out: Option<PathBuf>,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut out = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s.is_finite() && s >= 0.0) {
                    return Err(format!("--seconds: {s} is not a duration"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("--trace: expected 0 or 1, got {v}")),
                })
            }
            "--out" => out = Some(PathBuf::from(value)),
            f => return Err(format!("unknown flag {f}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload}; one of {WORKLOADS:?}"));
    }
    Ok(Args {
        workload,
        rc: RunConfig {
            seed: seed.ok_or("--seed is required")?,
            budget: Duration::from_secs_f64(seconds.ok_or("--seconds is required")?),
            trace: trace.unwrap_or(false),
        },
        out,
    })
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let mut out = run_workload(&args.workload, &args.rc, false).expect("workload name was checked");
    validate(&mut out, args.rc.trace);

    let mut report = out.report.clone();
    report.push(format!(
        "ops_failed_share {} ({} of {} operations)",
        out.failures.len() as f64 / out.attempted.max(1) as f64,
        out.failures.len(),
        out.attempted.max(1)
    ));
    for m in &out.metrics {
        report.push(format!("{:<40} {:>18} {}", m.name, m.value, m.unit));
    }
    for f in &out.failures {
        report.push(format!("FAILED: {f}"));
    }
    let text = report.join("\n");
    println!("{text}");
    if let Some(path) = &args.out {
        if let Err(e) = std::fs::write(path, format!("{text}\n")) {
            eprintln!("perfbench: writing {}: {e}", path.display());
            return ExitCode::from(2);
        }
    }
    println!("{}", result_json(&out));
    if out.failures.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_run(name: &str, trace: bool) -> Outcome {
        let rc = RunConfig {
            seed: 11,
            budget: Duration::ZERO,
            trace,
        };
        let mut out = run_workload(name, &rc, true).expect("known workload");
        validate(&mut out, trace);
        out
    }

    /// Same-seed runs reproduce every deterministic output bit for bit,
    /// with tracing off and on, and pass every output check.
    #[test]
    fn same_seed_runs_are_bit_identical() {
        for name in WORKLOADS {
            for trace in [false, true] {
                let a = tiny_run(name, trace);
                let b = tiny_run(name, trace);
                assert!(
                    a.failures.is_empty(),
                    "{name} trace={trace}: {:?}",
                    a.failures
                );
                assert!(!a.fingerprint.is_empty(), "{name}: nothing pinned");
                assert_eq!(a.fingerprint, b.fingerprint, "{name} trace={trace}");
            }
        }
    }

    /// The metric tables the runs report are the ones `BENCHMARK.json`
    /// declares, with the same units and order.
    #[test]
    fn declared_metrics_match_the_benchmark_file() {
        let file = include_str!("../../BENCHMARK.json");
        let declared: Vec<(&str, &str)> = file
            .lines()
            .filter_map(|l| {
                let name = l.split("{\"name\": \"").nth(1)?.split('"').next()?;
                let unit = l.split("\"unit\": \"").nth(1)?.split('"').next()?;
                Some((name, unit))
            })
            .collect();
        let reported: Vec<(&str, &str)> = END_TO_END.iter().chain(PER_LAYER).copied().collect();
        assert_eq!(declared, reported);
    }

    #[test]
    fn result_line_has_the_contract_keys() {
        let out = tiny_run("directory_load", false);
        let line = result_json(&out);
        assert!(line.starts_with("{\"correct\": true, \"attempted\": "));
        for (name, unit) in END_TO_END {
            assert!(
                line.contains(&format!("\"{name}\": {{\"value\": ")),
                "{name}"
            );
            assert!(line.contains(&format!("\"unit\": \"{unit}\"")), "{unit}");
        }
    }

    #[test]
    fn bad_arguments_are_rejected() {
        let args = |s: &str| s.split_whitespace().map(String::from).collect::<Vec<_>>();
        assert!(parse_args(&args(
            "--workload online_grid --seed 1 --seconds 2 --trace 1"
        ))
        .is_ok());
        assert!(parse_args(&args("--workload nope --seed 1 --seconds 2")).is_err());
        assert!(parse_args(&args("--workload online_grid --seed x --seconds 2")).is_err());
        assert!(parse_args(&args(
            "--workload online_grid --seed 1 --seconds 2 --trace 2"
        ))
        .is_err());
        assert!(parse_args(&args("--workload online_grid --seconds 2")).is_err());
    }
}
