//! `trident_bench compare <dirA> <dirB>`: read two sets of saved run
//! outputs (one run's standard output per file, at least five untraced
//! runs per workload on each side) and give, per workload and end-to-end
//! metric, each side's median and quartiles and a verdict from the
//! metric's bound. Simulated metrics and the output digest must not
//! change between runs of the same seed; any change is flagged.

use crate::json::{self, Value};
use crate::registry::{Better, Metric, END_TO_END};
use crate::stats::quartiles;
use std::collections::BTreeMap;
use std::process::ExitCode;

/// Fewest runs per workload and side a verdict rests on.
pub const MIN_RUNS: usize = 5;
/// Share of cross pairs the change must win to count as better: the
/// unpaired form of "wins nine of ten alternating pairs".
const WIN_SHARE: f64 = 0.9;

/// One parsed run output.
#[derive(Debug, Clone, PartialEq)]
pub struct Run {
    pub workload: String,
    pub seed: u64,
    pub digest: String,
    pub metrics: BTreeMap<String, f64>,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Better,
    Same,
    Worse,
    Unresolved,
}

impl Verdict {
    fn key(self) -> &'static str {
        match self {
            Verdict::Better => "better",
            Verdict::Same => "same",
            Verdict::Worse => "worse",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// Parse one run's standard output. Traced runs are skipped (`None`).
pub fn parse_run(text: &str) -> Result<Option<Run>, String> {
    let mut run = Run {
        workload: String::new(),
        seed: 0,
        digest: String::new(),
        metrics: BTreeMap::new(),
    };
    for line in text.lines() {
        let (key, rest) = line.split_once(' ').unwrap_or((line, ""));
        match key {
            "workload" => run.workload = rest.to_string(),
            "seed" => {
                run.seed = rest
                    .parse()
                    .map_err(|_| format!("bad seed line {line:?}"))?
            }
            "trace" if rest == "1" => return Ok(None),
            "output_digest" => run.digest = rest.to_string(),
            _ => {}
        }
    }
    let last = text.lines().last().ok_or("empty run output")?;
    let result = json::parse(last)?;
    let metrics = result
        .get("metrics")
        .and_then(Value::as_object)
        .ok_or("result line has no metrics")?;
    for (name, m) in metrics {
        let value = m
            .get("value")
            .and_then(Value::as_f64)
            .ok_or(format!("metric {name} has no value"))?;
        run.metrics.insert(name.clone(), value);
    }
    if run.workload.is_empty() {
        return Err("run output names no workload".to_string());
    }
    Ok(Some(run))
}

fn read_runs(dir: &str) -> Result<Vec<Run>, String> {
    let mut runs = Vec::new();
    let entries = std::fs::read_dir(dir).map_err(|e| format!("{dir}: {e}"))?;
    let mut paths: Vec<_> = entries
        .filter_map(|e| e.ok().map(|e| e.path()))
        .filter(|p| p.is_file())
        .collect();
    paths.sort();
    for path in paths {
        let text =
            std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
        if let Some(run) = parse_run(&text).map_err(|e| format!("{}: {e}", path.display()))? {
            runs.push(run);
        }
    }
    Ok(runs)
}

/// Relative change of `b` against `a`, signed so that positive is worse.
fn worsening(m: &Metric, a: f64, b: f64) -> f64 {
    let change = (b - a) / a.abs();
    match m.better {
        Better::Lower => change,
        Better::Higher => -change,
    }
}

/// The verdict for one metric from the parent's runs `a` and the
/// change's runs `b`.
pub fn verdict(m: &Metric, a: &[f64], b: &[f64]) -> Verdict {
    let bound = m.bound.unwrap_or(0.0);
    let (a1, am, a3) = quartiles(a);
    let (b1, bm, b3) = quartiles(b);
    let spread = |q1: f64, q3: f64, med: f64| (q3 - q1) / med.abs();
    let better = |x: f64, y: f64| worsening(m, x, y) < 0.0;
    let wins = a
        .iter()
        .flat_map(|&x| b.iter().map(move |&y| (x, y)))
        .filter(|&(x, y)| better(x, y))
        .count();
    let all_better = wins == a.len() * b.len();
    if spread(a1, a3, am) > bound || spread(b1, b3, bm) > bound {
        return if all_better {
            Verdict::Better
        } else {
            Verdict::Unresolved
        };
    }
    if worsening(m, am, bm) > bound {
        Verdict::Worse
    } else if wins as f64 >= WIN_SHARE * (a.len() * b.len()) as f64 && (bm - am).abs() > a3 - a1 {
        Verdict::Better
    } else {
        Verdict::Same
    }
}

/// Values that must repeat exactly for a seed: simulated metrics and the
/// output digest. Returns one line per disagreement.
pub fn exact_changes(a: &[Run], b: &[Run]) -> Vec<String> {
    let mut out = Vec::new();
    for ra in a {
        for rb in b.iter().filter(|rb| rb.seed == ra.seed) {
            if ra.digest != rb.digest {
                out.push(format!(
                    "seed {}: output digest {} -> {}",
                    ra.seed, ra.digest, rb.digest
                ));
            }
            for (name, va) in ra.metrics.iter().filter(|(n, _)| n.starts_with("sim_")) {
                let vb = rb.metrics.get(name).copied().unwrap_or(f64::NAN);
                if va.to_bits() != vb.to_bits() {
                    out.push(format!("seed {}: {name} {va} -> {vb}", ra.seed));
                }
            }
        }
    }
    out.sort();
    out.dedup();
    out
}

pub fn main(dir_a: &str, dir_b: &str) -> ExitCode {
    match compare(dir_a, dir_b) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("trident_bench compare: {e}");
            ExitCode::from(2)
        }
    }
}

/// Print the comparison; `Ok(false)` when any metric is worse or
/// unresolved, or an exact value changed.
fn compare(dir_a: &str, dir_b: &str) -> Result<bool, String> {
    let (a, b) = (read_runs(dir_a)?, read_runs(dir_b)?);
    let workloads: Vec<String> = {
        let mut w: Vec<String> = a.iter().map(|r| r.workload.clone()).collect();
        w.sort();
        w.dedup();
        w
    };
    if workloads.is_empty() {
        return Err(format!("{dir_a} holds no untraced run output"));
    }
    let mut clean = true;
    for w in &workloads {
        let side = |runs: &[Run]| {
            runs.iter()
                .filter(|r| &r.workload == w)
                .cloned()
                .collect::<Vec<_>>()
        };
        let (ra, rb) = (side(&a), side(&b));
        if ra.len() < MIN_RUNS || rb.len() < MIN_RUNS {
            return Err(format!(
                "{w}: {} and {} runs, need at least {MIN_RUNS} on each side",
                ra.len(),
                rb.len()
            ));
        }
        println!("== {w} ({} vs {} runs)", ra.len(), rb.len());
        println!(
            "{:<18} {:>36} {:>36}  verdict",
            "metric", "A median [q1, q3]", "B median [q1, q3]"
        );
        for m in END_TO_END {
            let values = |runs: &[Run]| {
                runs.iter()
                    .filter_map(|r| r.metrics.get(m.name).copied())
                    .collect::<Vec<_>>()
            };
            let (va, vb) = (values(&ra), values(&rb));
            let v = verdict(m, &va, &vb);
            clean &= !matches!(v, Verdict::Worse | Verdict::Unresolved);
            let show = |x: &[f64]| {
                let (q1, q2, q3) = quartiles(x);
                format!("{q2:.6e} [{q1:.4e}, {q3:.4e}]")
            };
            println!(
                "{:<18} {:>36} {:>36}  {} (bound {})",
                m.name,
                show(&va),
                show(&vb),
                v.key(),
                m.bound.unwrap_or(0.0)
            );
        }
        for change in exact_changes(&ra, &rb) {
            clean = false;
            println!("CHANGED {change}");
        }
    }
    Ok(clean)
}
