//! Command line: the single-workload form the acceptance pipeline calls,
//! and the `run` / `trace` / `agree` commands that run every workload, each
//! in its own child process (so `peak_rss_mb` is per workload).

use crate::driver::{self, RunConfig, DEFAULT_SECONDS};
use crate::json::{self, Json};
use crate::metrics::{Better, END_TO_END};
use crate::workloads::NAMES;
use crate::{host, probes};
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::{Command, Stdio};
use std::time::Instant;

/// Usage text.
pub const USAGE: &str = "\
usage:
  benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1> [--scale <f>]
      one workload in this process; the last stdout line is the JSON result
  benchmark run   --seed <n> [--seconds <s>] [--scale <f>]
      every workload, end-to-end metrics (untraced)
  benchmark trace --seed <n> [--seconds <s>] [--scale <f>]
      every workload, per-layer metrics; writes target/benchmark/{trace,layers}_<workload>.json
  benchmark agree --seed <n> [--seconds <s>] [--scale <f>]
      the full set twice in alternation (A B A B); non-zero exit when the two sets disagree
workloads: soak_day rpc_steady store_reads store_writes local_chain transform_corpus";

/// Where traced runs write their span files, relative to the working
/// directory (the checkout root).
const TRACE_DIR: &str = "target/benchmark";

#[derive(Debug, Clone, PartialEq)]
enum Mode {
    Single { workload: String, trace: bool },
    Run,
    Trace,
    Agree,
}

#[derive(Debug, Clone, PartialEq)]
struct Args {
    mode: Mode,
    seed: u64,
    seconds: f64,
    scale: f64,
    header: bool,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let (mode_word, flags) = match args.first().map(String::as_str) {
        Some(word @ ("run" | "trace" | "agree")) => (Some(word), &args[1..]),
        _ => (None, args),
    };
    let mut values: BTreeMap<&str, &str> = BTreeMap::new();
    let mut header = true;
    let mut it = flags.iter();
    while let Some(flag) = it.next() {
        match flag.as_str() {
            "--no-header" => header = false,
            "--workload" | "--seed" | "--seconds" | "--trace" | "--scale" => {
                let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
                values.insert(flag.as_str(), value.as_str());
            }
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    let seed = values
        .get("--seed")
        .ok_or("--seed is required")?
        .parse::<u64>()
        .map_err(|e| format!("--seed: {e}"))?;
    let seconds = match values.get("--seconds") {
        Some(s) => s.parse::<f64>().map_err(|e| format!("--seconds: {e}"))?,
        None => DEFAULT_SECONDS,
    };
    let scale = match values.get("--scale") {
        Some(s) => s.parse::<f64>().map_err(|e| format!("--scale: {e}"))?,
        None => 1.0,
    };
    if !(seconds.is_finite() && seconds > 0.0 && seconds <= 3600.0) {
        return Err(format!("--seconds {seconds} is outside (0, 3600]"));
    }
    if !(scale.is_finite() && scale > 0.0 && scale <= 100.0) {
        return Err(format!("--scale {scale} is outside (0, 100]"));
    }
    let mode = match mode_word {
        Some("run") => Mode::Run,
        Some("trace") => Mode::Trace,
        Some("agree") => Mode::Agree,
        _ => {
            let workload = (*values.get("--workload").ok_or("--workload is required")?).to_owned();
            if !NAMES.contains(&workload.as_str()) {
                return Err(format!("unknown workload {workload:?}"));
            }
            let trace = match *values.get("--trace").ok_or("--trace is required")? {
                "0" => false,
                "1" => true,
                other => return Err(format!("--trace {other:?} is neither 0 nor 1")),
            };
            Mode::Single { workload, trace }
        }
    };
    if mode_word.is_some() && (values.contains_key("--workload") || values.contains_key("--trace"))
    {
        return Err("--workload and --trace belong to the single-workload form".into());
    }
    Ok(Args {
        mode,
        seed,
        seconds,
        scale,
        header,
    })
}

/// Entry point behind `main`: returns the process exit code.
pub fn main_with(args: &[String], process_start: Instant) -> i32 {
    if cfg!(debug_assertions) {
        eprintln!(
            "benchmark: refusing to measure a build with debug assertions; \
             build with --release"
        );
        return 2;
    }
    let args = match parse_args(args) {
        Ok(a) => a,
        Err(why) => {
            eprintln!("benchmark: {why}\n{USAGE}");
            return 2;
        }
    };
    if args.header {
        eprintln!(
            "{}",
            host::header(
                args.seed,
                args.scale,
                args.seconds,
                probes::timer_overhead_ns()
            )
        );
    }
    let outcome = match &args.mode {
        Mode::Single { workload, trace } => single(&args, workload, *trace, process_start),
        Mode::Run => run_all(&args, false),
        Mode::Trace => run_all(&args, true),
        Mode::Agree => agree(&args),
    };
    match outcome {
        Ok(code) => code,
        Err(why) => {
            eprintln!("benchmark: {why}");
            1
        }
    }
}

fn single(args: &Args, workload: &str, trace: bool, start: Instant) -> Result<i32, String> {
    let cfg = RunConfig {
        workload: workload.to_owned(),
        seed: args.seed,
        seconds: args.seconds,
        scale: args.scale,
        trace,
        trace_dir: PathBuf::from(TRACE_DIR),
    };
    let outcome = driver::run(&cfg, start)?;
    if let Some(why) = &outcome.first_failure {
        eprintln!(
            "benchmark: {workload}: {} of {} checks failed; first: {why}",
            outcome.failed, outcome.attempted
        );
    }
    let walls: Vec<String> = outcome
        .round_walls_ms
        .iter()
        .map(|(ms, speed)| format!("{ms:.0}@{speed:.2}"))
        .collect();
    eprintln!(
        "# {workload}: raw round walls (ms) @ host speed: {}",
        walls.join(" ")
    );
    println!("{}", outcome.detail_line());
    println!("{}", outcome.result_line());
    Ok(outcome.exit_code())
}

/// What a child process reported.
#[derive(Debug, Clone)]
struct ChildReport {
    correct: bool,
    attempted: u64,
    failed: u64,
    /// Metrics and detail figures by name: `(value, unit)`.
    values: BTreeMap<String, (f64, String)>,
    /// Names in the order the child printed them (metrics, then detail).
    order: Vec<String>,
}

impl ChildReport {
    fn value(&self, name: &str) -> Option<f64> {
        self.values.get(name).map(|(v, _)| *v)
    }
}

fn metric_map(obj: &Json, into: &mut ChildReport) -> Result<(), String> {
    for (name, m) in obj.as_obj().ok_or("metrics is not an object")? {
        let value = m
            .get("value")
            .and_then(Json::as_f64)
            .ok_or_else(|| format!("{name}: no numeric value"))?;
        let unit = m.get("unit").and_then(Json::as_str).unwrap_or("");
        into.values.insert(name.clone(), (value, unit.to_owned()));
        into.order.push(name.clone());
    }
    Ok(())
}

fn parse_child_stdout(stdout: &str) -> Result<ChildReport, String> {
    let last = stdout
        .lines()
        .rev()
        .find(|l| !l.trim().is_empty())
        .ok_or("the child printed nothing")?;
    let result = json::parse(last).map_err(|e| format!("result line: {e}"))?;
    let count = |key: &str| {
        result
            .get(key)
            .and_then(Json::as_f64)
            .map(|v| v as u64)
            .ok_or_else(|| format!("result line has no {key}"))
    };
    let mut report = ChildReport {
        correct: result.get("correct") == Some(&Json::Bool(true)),
        attempted: count("attempted")?,
        failed: count("failed")?,
        values: BTreeMap::new(),
        order: Vec::new(),
    };
    metric_map(
        result.get("metrics").ok_or("result line has no metrics")?,
        &mut report,
    )?;
    if let Some(detail) = stdout.lines().find_map(|l| l.strip_prefix("detail ")) {
        let detail = json::parse(detail).map_err(|e| format!("detail line: {e}"))?;
        metric_map(&detail, &mut report)?;
    }
    // JSON objects are unordered; print in table order where there is one.
    let table: Vec<&str> = END_TO_END
        .iter()
        .map(|m| m.spec.name)
        .chain(crate::metrics::PER_LAYER.iter().map(|s| s.name))
        .collect();
    report
        .order
        .sort_by_key(|n| table.iter().position(|t| t == n).unwrap_or(usize::MAX));
    Ok(report)
}

/// Run one workload in a child process of this same executable.
fn child(args: &Args, workload: &str, trace: bool) -> Result<ChildReport, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let output = Command::new(exe)
        .args(["--workload", workload])
        .args(["--seed", &args.seed.to_string()])
        .args(["--seconds", &args.seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .args(["--scale", &args.scale.to_string()])
        .arg("--no-header")
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("spawning the {workload} child: {e}"))?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    let report = parse_child_stdout(&stdout).map_err(|e| format!("{workload}: {e}"))?;
    // A failed check exits 1 *with* a report; anything else is a crash.
    if !output.status.success() && report.correct {
        return Err(format!("{workload}: child exited with {}", output.status));
    }
    Ok(report)
}

fn print_report(workload: &str, r: &ChildReport) {
    println!(
        "== {workload}: attempted {} failed {} correct {} ==",
        r.attempted, r.failed, r.correct
    );
    for name in &r.order {
        let (value, unit) = &r.values[name];
        println!("  {name:<34} {value:>16.4} {unit}");
    }
}

fn run_all(args: &Args, trace: bool) -> Result<i32, String> {
    let mut code = 0;
    for workload in NAMES {
        let report = child(args, workload, trace)?;
        print_report(workload, &report);
        if trace {
            if let (Some(measured), Some(residual), Some(share)) = (
                report.value("measured_us_per_op"),
                report.value("runtime_residual_us_per_op"),
                report.value("runtime_residual_share"),
            ) {
                println!(
                    "  attribution: {measured:.3} us/op = wire {:.3} + net {:.3} + telemetry {:.3} \
                     + vm {:.3} + runtime residual {residual:.3} ({:.1} % of the op)",
                    report.value("wire_us_per_op").unwrap_or(0.0),
                    report.value("net_us_per_op").unwrap_or(0.0),
                    report.value("telemetry_us_per_op").unwrap_or(0.0),
                    report.value("vm_us_per_op").unwrap_or(0.0),
                    share * 100.0,
                );
            }
            println!(
                "  spans: {TRACE_DIR}/trace_{workload}.json, {TRACE_DIR}/layers_{workload}.json"
            );
        }
        if !report.correct {
            code = 1;
        }
    }
    Ok(code)
}

/// Relative distance of `b` from `a`, as a share of `a`.
fn relative_difference(a: f64, b: f64) -> f64 {
    if a == b {
        0.0
    } else {
        (b - a).abs() / a.abs()
    }
}

fn agree(args: &Args) -> Result<i32, String> {
    let mut breaches = 0;
    let mut incorrect = false;
    println!(
        "{:<17} {:<18} {:>15} {:>15} {:>9} {:>7}  verdict",
        "workload", "metric", "set A", "set B", "diff", "bound"
    );
    for workload in NAMES {
        // A B A B: the two sets see the same drift of the host.
        let mut sets: [Vec<ChildReport>; 2] = [Vec::new(), Vec::new()];
        for i in 0..4 {
            let report = child(args, workload, false)?;
            incorrect |= !report.correct;
            sets[i % 2].push(report);
        }
        for m in &END_TO_END {
            let name = m.spec.name;
            let Some(values) = sets
                .iter()
                .map(|set| {
                    set.iter()
                        .map(|r| r.value(name))
                        .collect::<Option<Vec<f64>>>()
                })
                .collect::<Option<Vec<Vec<f64>>>>()
            else {
                // The exact metrics do not exist on cluster-free workloads.
                continue;
            };
            let (a, b) = (
                crate::stats::median(&values[0]),
                crate::stats::median(&values[1]),
            );
            let (diff, ok) = if m.exact {
                let all: Vec<f64> = values.concat();
                let identical = all.iter().all(|v| v.to_bits() == all[0].to_bits());
                (relative_difference(a, b), identical)
            } else {
                let diff = relative_difference(a, b);
                (diff, diff <= m.bound)
            };
            if !ok {
                breaches += 1;
            }
            let arrow = match m.spec.better {
                Better::Higher => "higher is better",
                Better::Lower => "lower is better",
            };
            println!(
                "{workload:<17} {name:<18} {a:>15.4} {b:>15.4} {:>8.2}% {:>6.1}%  {} ({} {arrow})",
                diff * 100.0,
                m.bound * 100.0,
                if ok { "ok" } else { "BREACH" },
                m.spec.unit,
            );
        }
        let spread = sets
            .iter()
            .flatten()
            .filter_map(|r| r.value("driver.round_spread"))
            .fold(0.0, f64::max);
        let fail_share = sets
            .iter()
            .flatten()
            .filter_map(|r| r.value("fail_share"))
            .fold(0.0, f64::max);
        println!(
            "{workload:<17} driver.round_spread (worst of 4 runs) {:.2}% | fail_share {fail_share}",
            spread * 100.0
        );
    }
    if breaches > 0 {
        println!("agree: {breaches} metric(s) differ between two sets of runs of the same code");
    } else {
        println!("agree: the two sets agree within every bound");
    }
    Ok(i32::from(breaches > 0 || incorrect))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(words: &[&str]) -> Result<Args, String> {
        parse_args(&words.iter().map(|w| (*w).to_owned()).collect::<Vec<_>>())
    }

    #[test]
    fn the_pipeline_form_parses() {
        let a = args(&[
            "--workload",
            "soak_day",
            "--seed",
            "7",
            "--seconds",
            "10",
            "--trace",
            "1",
        ])
        .unwrap();
        assert_eq!(
            a.mode,
            Mode::Single {
                workload: "soak_day".into(),
                trace: true
            }
        );
        assert_eq!((a.seed, a.seconds, a.scale, a.header), (7, 10.0, 1.0, true));
    }

    #[test]
    fn commands_default_seconds_and_scale() {
        let a = args(&["run", "--seed", "42"]).unwrap();
        assert_eq!(a.mode, Mode::Run);
        assert_eq!((a.seconds, a.scale), (DEFAULT_SECONDS, 1.0));
        let a = args(&["agree", "--seed", "1", "--scale", "0.02", "--seconds", "1"]).unwrap();
        assert_eq!((a.mode, a.scale, a.seconds), (Mode::Agree, 0.02, 1.0));
    }

    #[test]
    fn bad_command_lines_are_refused() {
        for bad in [
            &["run"][..],
            &["--workload", "nope", "--seed", "1", "--trace", "0"],
            &["--workload", "soak_day", "--seed", "1", "--trace", "2"],
            &["--workload", "soak_day", "--seed", "1"],
            &["--workload", "soak_day", "--seed", "x", "--trace", "0"],
            &["run", "--seed", "1", "--workload", "soak_day"],
            &["run", "--seed", "1", "--seconds", "0"],
            &["run", "--seed", "1", "--scale", "-1"],
            &["run", "--seed"],
            &["run", "--seed", "1", "--frobnicate"],
        ] {
            assert!(args(bad).is_err(), "{bad:?} was accepted");
        }
    }

    #[test]
    fn a_child_report_is_read_back_from_its_stdout() {
        let outcome = driver::Outcome {
            attempted: 10,
            failed: 0,
            first_failure: None,
            metrics: vec![driver::Metric {
                name: "ops_per_s",
                unit: "1/s",
                value: 1234.5678,
            }],
            detail: vec![driver::Metric {
                name: "fail_share",
                unit: "ratio",
                value: 0.0,
            }],
            round_walls_ms: vec![(1000.0, 1.0)],
        };
        let stdout = format!("{}\n{}\n", outcome.detail_line(), outcome.result_line());
        let r = parse_child_stdout(&stdout).unwrap();
        assert!(r.correct);
        assert_eq!((r.attempted, r.failed), (10, 0));
        assert_eq!(r.value("ops_per_s"), Some(1234.5678));
        assert_eq!(r.value("fail_share"), Some(0.0));
        assert_eq!(r.values["ops_per_s"].1, "1/s");
        assert!(parse_child_stdout("").is_err());
        assert!(parse_child_stdout("not json\n").is_err());
    }

    #[test]
    fn relative_difference_is_symmetric_in_sign() {
        assert_eq!(relative_difference(100.0, 108.0), 0.08);
        assert_eq!(relative_difference(100.0, 92.0), 0.08);
        assert_eq!(relative_difference(0.0, 0.0), 0.0);
    }
}
