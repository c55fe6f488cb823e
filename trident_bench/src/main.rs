//! `trident_bench`: the end-to-end benchmark of the Trident simulator.
//!
//! ```text
//! trident_bench --workload <classify|train|decode|serve> --seed N --seconds S --trace 0|1
//! trident_bench compare <dirA> <dirB>
//! ```
//!
//! A run prints its metrics one per line, then, as the last line, one
//! JSON object: `correct`, `attempted`, `failed` and `metrics` (the
//! end-to-end metrics untraced, the per-layer metrics traced). It exits
//! non-zero when a correctness check fails. See README.md.

mod classify;
mod compare;
mod decode;
mod harness;
mod json;
mod models;
mod registry;
mod serve;
mod spans;
mod speed;
mod stats;
mod train;

#[cfg(test)]
mod tests;

use harness::{Report, Size};
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::ExitCode;
use trident::obs;

/// Executor threads every run pins, whatever the host offers.
const THREADS: usize = 2;
/// Set-up repetitions of an untraced run; `setup_s` is their median.
const SETUP_REPS: usize = 3;
/// Where traced runs write their Perfetto trace, under the working
/// directory.
const TRACE_DIR: &str = ".bench_out";

const USAGE: &str = "usage:
  trident_bench --workload <classify|train|decode|serve> [--seed N] [--seconds S] [--trace 0|1]
  trident_bench compare <dirA> <dirB>";

#[derive(Debug, Clone, PartialEq)]
pub struct RunArgs {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub traced: bool,
}

pub fn parse_run_args(args: &[String]) -> Result<RunArgs, String> {
    let mut out = RunArgs {
        workload: String::new(),
        seed: 1,
        seconds: 20.0,
        traced: false,
    };
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut value = |flag: &str| it.next().cloned().ok_or(format!("{flag} needs a value"));
        match arg.as_str() {
            "--workload" => out.workload = value(arg)?,
            "--seed" => out.seed = value(arg)?.parse().map_err(|_| "--seed takes an integer")?,
            "--seconds" => {
                out.seconds = value(arg)?
                    .parse()
                    .map_err(|_| "--seconds takes a number")?;
                if !(out.seconds.is_finite() && out.seconds >= 0.0) {
                    return Err("--seconds must be a non-negative number".to_string());
                }
            }
            "--trace" => {
                out.traced = match value(arg)?.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".to_string()),
                }
            }
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    if !registry::WORKLOADS
        .iter()
        .any(|(name, _)| *name == out.workload)
    {
        return Err(format!("unknown workload {:?}", out.workload));
    }
    Ok(out)
}

/// Run one workload by name.
pub fn run_workload(name: &str, seed: u64, size: &Size, traced: bool) -> Result<Report, String> {
    match name {
        "classify" => harness::run::<classify::Classify>(seed, size, traced),
        "train" => harness::run::<train::Train>(seed, size, traced),
        "decode" => harness::run::<decode::Decode>(seed, size, traced),
        "serve" => harness::run::<serve::Serve>(seed, size, traced),
        other => Err(format!("unknown workload {other:?}")),
    }
}

/// The result line: exactly `correct`, `attempted`, `failed`, `metrics`.
pub fn result_line(report: &Report, metrics: &BTreeMap<String, (f64, &str)>) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, (value, unit))| {
            format!(
                "{}: {{\"value\": {value}, \"unit\": {}}}",
                json::quote(name),
                json::quote(unit)
            )
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        report.correct(),
        report.ledger.attempted.max(1),
        report.ledger.failed,
        body.join(", ")
    )
}

/// The metrics a run reports, with their units.
pub fn reported_metrics(report: &Report, traced: bool) -> BTreeMap<String, (f64, &'static str)> {
    if traced {
        registry::per_layer()
            .into_iter()
            .map(|(name, unit, _)| {
                let v = report.per_layer.get(&name).copied().unwrap_or(0.0);
                (name, (v, unit))
            })
            .collect()
    } else {
        registry::END_TO_END
            .iter()
            .map(|m| {
                (
                    m.name.to_string(),
                    (
                        report.end_to_end.get(m.name).copied().unwrap_or(0.0),
                        m.unit,
                    ),
                )
            })
            .collect()
    }
}

fn write_trace(report: &Report, name: &str, seed: u64) -> std::io::Result<PathBuf> {
    std::fs::create_dir_all(TRACE_DIR)?;
    let path = PathBuf::from(TRACE_DIR).join(format!("{name}-seed{seed}.trace.json"));
    let snap = obs::ObsSnapshot {
        counters: report.final_counters,
        events: report.trace_events.clone(),
        dropped_events: report.spans_dropped,
    };
    std::fs::write(&path, obs::export::to_chrome_trace(&snap))?;
    Ok(path)
}

fn run_main(args: &RunArgs) -> ExitCode {
    rayon::pool::set_thread_override(Some(THREADS));
    let size = Size {
        setup_reps: if args.traced { 1 } else { SETUP_REPS },
        seconds: args.seconds,
        smoke: false,
    };
    let mut report = match run_workload(&args.workload, args.seed, &size, args.traced) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("trident_bench: {}: set-up failed: {e}", args.workload);
            return ExitCode::from(1);
        }
    };
    println!("workload {}", args.workload);
    println!("seed {}", args.seed);
    println!("trace {}", u8::from(args.traced));
    println!("output_digest {:016x}", report.digest.0);
    if args.traced {
        match write_trace(&report, &args.workload, args.seed) {
            Ok(path) => println!("trace_file {}", path.display()),
            Err(e) => report.ledger.fail(format!("writing the trace: {e}")),
        }
    }
    for note in &report.ledger.notes {
        println!("check_failed {note}");
    }
    println!("probe_us {}", report.probe_us);
    for (name, value) in &report.unscaled {
        println!("unscaled {name} {value}");
    }
    let metrics = reported_metrics(&report, args.traced);
    for (name, (value, unit)) in &metrics {
        println!("metric {name} {value} {unit}");
    }
    println!("{}", result_line(&report, &metrics));
    if report.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("compare") => match &args[1..] {
            [a, b] => return compare::main(a, b),
            _ => Err("compare takes two directories".to_string()),
        },
        _ => parse_run_args(&args),
    };
    match result {
        Ok(run) => run_main(&run),
        Err(e) => {
            eprintln!("trident_bench: {e}\n{USAGE}");
            ExitCode::from(2)
        }
    }
}
