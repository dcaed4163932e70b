//! `--compare A.json B.json`: per (workload, end-to-end metric), the
//! change of the median from A to B against the bound `BENCHMARK.json`
//! fixes for it.

use crate::report;
use crate::stats;
use hdvb_trace::json::{self, Value};
use std::collections::BTreeMap;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verdict {
    Better,
    Same,
    Worse,
    /// The runs of A alone spread wider than the bound: no verdict.
    Unresolved,
}

/// `worse_by` is the share of A's median by which B is worse (negative
/// when B is better); `spread` is A's own inter-quartile range as a
/// share of its median.
pub fn verdict(worse_by: f64, spread: f64, bound: f64) -> Verdict {
    if !worse_by.is_finite() || !spread.is_finite() || spread > bound {
        Verdict::Unresolved
    } else if worse_by > bound {
        Verdict::Worse
    } else if worse_by < -bound {
        Verdict::Better
    } else {
        Verdict::Same
    }
}

pub fn worse_by(a: f64, b: f64, better: &str) -> f64 {
    if better == "higher" {
        (a - b) / a.abs()
    } else {
        (b - a) / a.abs()
    }
}

/// The untraced runs of a result file: workload → metric → (value,
/// within-run relative IQR) per run.
type Runs = BTreeMap<String, BTreeMap<String, Vec<(f64, f64)>>>;

struct ResultFile {
    provenance: BTreeMap<String, String>,
    runs: Runs,
}

fn load(path: &str) -> Result<ResultFile, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let doc = json::parse(&text).map_err(|e| format!("{path}: {e}"))?;
    let mut provenance = BTreeMap::new();
    if let Some(Value::Object(p)) = doc.get("provenance") {
        for (k, v) in p {
            provenance.insert(k.clone(), v.as_str().unwrap_or("").to_string());
        }
    }
    let mut runs = Runs::new();
    for run in doc.get("runs").and_then(Value::as_array).unwrap_or(&[]) {
        if run.get("trace").and_then(Value::as_f64) != Some(0.0) {
            continue;
        }
        if run.get("smoke") == Some(&Value::Bool(true)) {
            return Err(format!("{path}: a smoke run measures nothing comparable"));
        }
        let workload = run.get("workload").and_then(Value::as_str).unwrap_or("?");
        if let Some(Value::Object(metrics)) = run.get("metrics") {
            for (name, m) in metrics {
                let get = |k| m.get(k).and_then(Value::as_f64).unwrap_or(f64::NAN);
                let (value, q1, q3) = (get("value"), get("q1"), get("q3"));
                runs.entry(workload.to_string())
                    .or_default()
                    .entry(name.clone())
                    .or_default()
                    .push((value, (q3 - q1).abs() / value.abs()));
            }
        }
    }
    Ok(ResultFile { provenance, runs })
}

/// Prints the comparison; exit code 0 when nothing is worse, 1 when
/// something is, 2 when the files cannot be compared.
pub fn run(a_path: &str, b_path: &str) -> u8 {
    let (a, b) = match (load(a_path), load(b_path)) {
        (Ok(a), Ok(b)) => (a, b),
        (Err(e), _) | (_, Err(e)) => {
            eprintln!("compare: {e}");
            return 2;
        }
    };
    // A different host, tier or profile is a different experiment.
    for key in ["cpu", "nproc", "simd_tier", "profile"] {
        let (va, vb) = (a.provenance.get(key), b.provenance.get(key));
        if va != vb || va.is_none() {
            eprintln!("compare: refusing: {key} differs or is missing ({va:?} vs {vb:?})");
            return 2;
        }
    }
    let bounds = report::read_bounds();
    if bounds.is_empty() {
        eprintln!(
            "compare: BENCHMARK.json with end_to_end bounds not found in the working directory"
        );
        return 2;
    }
    println!(
        "{:<14} {:<16} {:>12} {:>12} {:>9} {:>8} {:>7}  verdict",
        "workload", "metric", "A median", "B median", "worse by", "A spread", "bound"
    );
    let mut worst = 0;
    for (workload, metrics) in &a.runs {
        for (name, a_runs) in metrics {
            let (Some((bound, better)), Some(b_runs)) = (
                bounds.get(name),
                b.runs.get(workload).and_then(|m| m.get(name)),
            ) else {
                continue;
            };
            let values = |runs: &[(f64, f64)]| runs.iter().map(|r| r.0).collect::<Vec<_>>();
            let (va, vb) = (values(a_runs), values(b_runs));
            let (q1, med_a, q3) = stats::quartiles(&va);
            // With too few runs for quartiles, the spread inside the runs
            // (over passes or windows) stands in.
            let spread = if va.len() >= 4 {
                (q3 - q1) / med_a.abs()
            } else {
                a_runs.iter().map(|r| r.1).fold(0.0, f64::max)
            };
            let med_b = stats::median(&vb);
            let by = worse_by(med_a, med_b, better);
            let v = if name == "setup_s" && by <= *bound && by >= -*bound {
                // The driver does not gate the spread of set-up time.
                Verdict::Same
            } else {
                verdict(by, spread, *bound)
            };
            if v == Verdict::Worse {
                worst = 1;
            }
            println!(
                "{workload:<14} {name:<16} {med_a:>12.4} {med_b:>12.4} {:>8.2}% {:>7.2}% {:>6.2}%  {}",
                by * 100.0,
                spread * 100.0,
                bound * 100.0,
                format!("{v:?}").to_lowercase()
            );
        }
    }
    worst
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn verdicts_follow_direction_bound_and_spread() {
        // fps fell from 100 to 90 with a 7 % bound: worse.
        let by = worse_by(100.0, 90.0, "higher");
        assert!((by - 0.10).abs() < 1e-12);
        assert_eq!(verdict(by, 0.02, 0.07), Verdict::Worse);
        // Latency fell from 20 to 18 ms with a 7 % bound: better.
        let by = worse_by(20.0, 18.0, "lower");
        assert!((by + 0.10).abs() < 1e-12);
        assert_eq!(verdict(by, 0.02, 0.07), Verdict::Better);
        assert_eq!(verdict(0.03, 0.02, 0.07), Verdict::Same);
        assert_eq!(verdict(-0.03, 0.02, 0.07), Verdict::Same);
        // A spread wider than the bound decides nothing, whatever moved.
        assert_eq!(verdict(0.30, 0.08, 0.07), Verdict::Unresolved);
        assert_eq!(verdict(f64::NAN, 0.01, 0.07), Verdict::Unresolved);
    }
}
