//! The repo benchmark. One process runs one workload once:
//!
//! ```text
//! hdvb-benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! and prints every metric by name with its unit, checks the outputs,
//! writes a result file, and ends with the one-line JSON object the
//! driver reads. `--suite` runs every workload, untraced then traced,
//! each in a fresh child process; `--smoke` is the suite at toy sizes,
//! checked against the names in `BENCHMARK.json`; `--compare A B`
//! compares two result files. See `README.md` beside this package.

mod batch;
mod compare;
mod inputs;
mod layers;
mod net;
mod report;
mod spans;
mod stats;
mod wire_io;

use hdvb_trace::json::{self, Value};
use report::{Config, Scale, WORKLOADS};
use std::path::{Path, PathBuf};
use std::process::ExitCode;

const USAGE: &str = "usage: run.sh --workload <batch_encode|batch_decode|net_live|net_decode> \
[--seed N] [--seconds S] [--trace 0|1] [--out DIR]
       run.sh [--suite] [--seeds 1,2,..] [--seconds S] [--out DIR]   every workload, untraced and traced
       run.sh --smoke [--out DIR]                                    toy sizes; checks every metric name
       run.sh --compare A.json B.json";

struct Args {
    workload: Option<String>,
    seeds: Vec<u64>,
    seconds: Option<f64>,
    /// Given only for a single run; a suite runs both.
    trace: Option<bool>,
    smoke: bool,
    suite: bool,
    out: PathBuf,
    compare: Option<(String, String)>,
}

fn parse_args() -> Result<Args, String> {
    let default_out = std::env::var_os("CARGO_TARGET_DIR")
        .map_or_else(|| PathBuf::from(".bench_build"), PathBuf::from)
        .join("results");
    let mut args = Args {
        workload: None,
        seeds: vec![1],
        seconds: None,
        trace: None,
        smoke: false,
        suite: false,
        out: default_out,
        compare: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let w = value()?;
                if !WORKLOADS.contains(&w.as_str()) {
                    return Err(format!("unknown workload {w:?}"));
                }
                args.workload = Some(w);
            }
            "--seed" | "--seeds" => {
                args.seeds = value()?
                    .split(',')
                    .map(|s| s.parse().map_err(|_| format!("bad seed {s:?}")))
                    .collect::<Result<_, _>>()?;
            }
            "--seconds" => {
                let s: f64 = value()?.parse().map_err(|_| "bad --seconds".to_string())?;
                if !(s > 0.0 && s <= 3600.0) {
                    return Err("--seconds must be in (0, 3600]".into());
                }
                args.seconds = Some(s);
            }
            "--trace" => {
                args.trace = Some(match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
                })
            }
            "--out" => args.out = PathBuf::from(value()?),
            "--smoke" => args.smoke = true,
            "--suite" => args.suite = true,
            "--compare" => args.compare = Some((value()?, value()?)),
            // Not for people: `net_live` starts its idle-poll helpers
            // with this (see `net::IdlePoll`).
            "--idle-poll" => {
                let seconds = value()?
                    .parse()
                    .map_err(|_| "bad --idle-poll".to_string())?;
                let parent = value()?
                    .parse()
                    .map_err(|_| "bad --idle-poll".to_string())?;
                net::idle_poll(seconds, parent);
                std::process::exit(0);
            }
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(args)
}

/// `run_seconds` of `BENCHMARK.json`, the length every reported number
/// is measured at.
fn default_seconds() -> f64 {
    std::fs::read_to_string("BENCHMARK.json")
        .ok()
        .and_then(|t| json::parse(&t).ok())
        .and_then(|d| d.get("run_seconds").and_then(Value::as_f64))
        .unwrap_or(20.0)
}

fn run_one(args: &Args, workload: &str) -> bool {
    let cfg = Config {
        workload: workload.to_string(),
        seed: args.seeds[0],
        seconds: args
            .seconds
            .unwrap_or_else(|| if args.smoke { 2.0 } else { default_seconds() }),
        trace: args.trace.unwrap_or(false),
        smoke: args.smoke,
        scale: if args.smoke {
            Scale::smoke()
        } else {
            Scale::full()
        },
        out: args.out.clone(),
    };
    let mut report = match workload {
        "batch_encode" => batch::run_encode(&cfg),
        "batch_decode" => batch::run_decode(&cfg),
        "net_live" => net::run_live(&cfg),
        _ => net::run_decode(&cfg),
    };
    if !cfg.trace {
        report.set_exact("peak_rss_mb", report::peak_rss_mb());
    }
    report::finish(&cfg, &report)
}

/// Runs `child_args` in a fresh process — global pools and `VmHWM`
/// start clean — and waits for it.
fn spawn_run(child_args: &[String]) -> bool {
    let exe = std::env::current_exe().expect("the path of this program");
    std::process::Command::new(exe)
        .args(child_args)
        .status()
        .is_ok_and(|s| s.success())
}

/// Every (seed, workload, untraced|traced) in a child of its own, then
/// one result file holding all the runs.
fn suite(args: &Args) -> bool {
    let workloads: Vec<&str> = match &args.workload {
        Some(w) => vec![w.as_str()],
        None => WORKLOADS.to_vec(),
    };
    let mut ok = true;
    let mut files = Vec::new();
    for &seed in &args.seeds {
        for workload in &workloads {
            for trace in [false, true] {
                let mut child = vec![
                    "--workload".to_string(),
                    workload.to_string(),
                    "--seed".into(),
                    seed.to_string(),
                    "--trace".into(),
                    u8::from(trace).to_string(),
                    "--out".into(),
                    args.out.display().to_string(),
                ];
                if let Some(s) = args.seconds {
                    child.extend(["--seconds".into(), s.to_string()]);
                }
                if args.smoke {
                    child.push("--smoke".into());
                }
                println!();
                let passed = spawn_run(&child);
                if !passed {
                    println!("# {workload} seed {seed} trace {}: FAILED", u8::from(trace));
                }
                ok &= passed;
                files.push((
                    args.out
                        .join(report::result_file_name(workload, seed, trace)),
                    trace,
                ));
            }
        }
    }
    println!();
    ok &= merge(
        &files,
        &args.out.join(if args.smoke {
            "smoke.json"
        } else {
            "suite.json"
        }),
    );
    if args.smoke {
        for (file, trace) in &files {
            ok &= check_names(file, *trace);
        }
        println!(
            "# smoke: {}",
            if ok {
                "every metric of BENCHMARK.json was printed once, finite"
            } else {
                "FAILED"
            }
        );
    }
    ok
}

/// Result files are written one run to a line between a head and a
/// tail line, so merging them is taking the middle lines.
fn merge(files: &[(PathBuf, bool)], into: &Path) -> bool {
    let mut head = None;
    let mut runs = Vec::new();
    for (file, _) in files {
        let Ok(text) = std::fs::read_to_string(file) else {
            println!("# missing result file {}", file.display());
            return false;
        };
        let lines: Vec<&str> = text.lines().collect();
        if lines.len() != 3 {
            println!("# malformed result file {}", file.display());
            return false;
        }
        head.get_or_insert(lines[0].to_string());
        runs.push(lines[1].to_string());
    }
    let text = format!("{}\n{}\n]}}\n", head.unwrap_or_default(), runs.join(",\n"));
    match std::fs::write(into, text) {
        Ok(()) => {
            println!("# suite result file: {}", into.display());
            true
        }
        Err(e) => {
            println!("# cannot write {}: {e}", into.display());
            false
        }
    }
}

/// The smoke check: the run's metrics are exactly the names
/// `BENCHMARK.json` lists for its mode, each finite, and the run was
/// correct. (The JSON reader rejects a name printed twice.)
fn check_names(file: &Path, trace: bool) -> bool {
    let parse = |p: &Path| {
        std::fs::read_to_string(p)
            .ok()
            .and_then(|t| json::parse(&t).ok())
    };
    let (Some(spec), Some(result)) = (parse(Path::new("BENCHMARK.json")), parse(file)) else {
        println!("# smoke: cannot read BENCHMARK.json or {}", file.display());
        return false;
    };
    let listed: Vec<&str> = spec
        .get(if trace { "per_layer" } else { "end_to_end" })
        .and_then(Value::as_array)
        .unwrap_or(&[])
        .iter()
        .filter_map(|m| m.get("name").and_then(Value::as_str))
        .collect();
    let run = result
        .get("runs")
        .and_then(Value::as_array)
        .and_then(|r| r.first());
    let empty = std::collections::BTreeMap::new();
    let printed = match run.and_then(|r| r.get("metrics")) {
        Some(Value::Object(m)) => m,
        _ => &empty,
    };
    let mut ok = run.and_then(|r| r.get("correct")) == Some(&Value::Bool(true));
    for name in &listed {
        let finite = printed
            .get(*name)
            .and_then(|m| m.get("value"))
            .and_then(Value::as_f64)
            .is_some_and(f64::is_finite);
        if !finite {
            println!("# smoke: {}: {name} missing or not finite", file.display());
            ok = false;
        }
    }
    for name in printed.keys().filter(|k| !listed.contains(&k.as_str())) {
        println!(
            "# smoke: {}: {name} is not in BENCHMARK.json",
            file.display()
        );
        ok = false;
    }
    ok
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    if let Some((a, b)) = &args.compare {
        return ExitCode::from(compare::run(a, b));
    }
    // One workload is one run in this process — unless it is a smoke
    // run without `--trace`, which means that workload's two smoke runs.
    let ok = match &args.workload {
        Some(w) if !args.suite && (args.trace.is_some() || !args.smoke) => run_one(&args, w),
        _ => suite(&args),
    };
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
