//! The repository's benchmark: three workloads, end-to-end metrics from
//! untraced runs and per-layer metrics from traced ones.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload <read-uds|write-byz-loopback|design-query|all> \
//!     --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Every metric is printed by name and unit; the last line of standard
//! output is one JSON object `{"correct", "attempted", "failed", "metrics"}`.
//! The exit code is 1 when a correctness check failed and 2 on bad
//! arguments. See `catalog.rs` for what each workload and metric is.

mod catalog;
mod design;
mod driver;
mod register;
mod stats;
mod trace;

use std::fmt::Write as _;
use std::process::ExitCode;

use bqs_constructions::prelude::*;

use crate::catalog::{Metric, END_TO_END, PER_LAYER, WORKLOADS};

/// Directory (relative to the working directory) for the Unix-domain
/// socket and the sampled span files.
pub const OUT_DIR: &str = ".bench_out";

/// Parsed command line.
#[derive(Debug, Clone)]
pub struct RunArgs {
    /// Workload name, or `all`.
    pub workload: String,
    /// Seed of every generated input.
    pub seed: u64,
    /// Measured seconds.
    pub seconds: f64,
    /// Traced run (per-layer metrics) instead of untraced (end-to-end).
    pub trace: bool,
}

fn parse_args(args: &[String]) -> Result<RunArgs, String> {
    let mut out = RunArgs {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => out.workload.clone_from(value),
            "--seed" => out.seed = value.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                out.seconds = value.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(out.seconds > 0.0 && out.seconds <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
            }
            "--trace" => {
                out.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                }
            }
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    if out.workload != "all" && catalog::workload(&out.workload).is_none() {
        let names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
        return Err(format!(
            "--workload must be one of {} or all",
            names.join(", ")
        ));
    }
    Ok(out)
}

/// What one workload run measured and checked.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Failed correctness checks.
    pub failures: Vec<String>,
    /// Operations (or queries) attempted.
    pub attempted: u64,
    /// Operations that did not succeed.
    pub failed: u64,
    /// Metric values by name.
    pub metrics: Vec<(&'static str, f64)>,
    /// Parameters and descriptive figures for the record.
    pub info: Vec<(&'static str, String)>,
}

impl Outcome {
    /// Records a failed correctness check.
    pub fn fail(&mut self, message: impl Into<String>) {
        self.failures.push(message.into());
    }

    /// Records a metric value.
    pub fn metric(&mut self, name: &'static str, value: f64) {
        self.metrics.push((name, value));
    }

    /// Records a descriptive figure.
    pub fn info(&mut self, key: &'static str, value: impl ToString) {
        self.info.push((key, value.to_string()));
    }
}

/// Writes the traced run's sampled spans to
/// `OUT_DIR/trace-<workload>-seed<seed>.tsv`.
///
/// # Errors
///
/// Describes the I/O failure.
pub fn write_trace(args: &RunArgs, tracer: &trace::Tracer) -> Result<(), String> {
    let path = std::path::Path::new(OUT_DIR)
        .join(format!("trace-{}-seed{}.tsv", args.workload, args.seed));
    std::fs::create_dir_all(OUT_DIR)
        .and_then(|()| tracer.write_sample(&path))
        .map_err(|e| format!("writing {}: {e}", path.display()))
}

fn run_workload(args: &RunArgs) -> Outcome {
    match args.workload.as_str() {
        "read-uds" => register::run(
            &register::READ_UDS,
            &GridSystem::new(5, 1).expect("Grid(5,1) is valid"),
            args,
        ),
        "write-byz-loopback" => register::run(
            &register::WRITE_BYZ_LOOPBACK,
            &MGridSystem::new(5, 2).expect("M-Grid(5,2) is valid"),
            args,
        ),
        "design-query" => design::run(args),
        other => unreachable!("workload {other} was validated"),
    }
}

fn json_string(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

fn git_commit() -> String {
    if !std::path::Path::new(".git").exists() {
        return "unknown (not a git checkout)".into();
    }
    std::process::Command::new("git")
        .args(["rev-parse", "HEAD"])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map_or_else(
            || "unknown".into(),
            |o| String::from_utf8_lossy(&o.stdout).trim().to_string(),
        )
}

/// The run's record: seed, commit, parallelism, workload parameters, why
/// the workload exists, and what each reported metric should move.
fn meta_line(args: &RunArgs, name: &str, outcome: &Outcome, metrics: &[Metric]) -> String {
    let w = catalog::workload(name).expect("known workload");
    let parallelism = std::thread::available_parallelism().map_or(0, std::num::NonZeroUsize::get);
    let mut s = format!(
        "{{\"meta\": {{\"workload\": {}, \"seed\": {}, \"seconds\": {}, \"trace\": {}, \
         \"commit\": {}, \"available_parallelism\": {parallelism}, \"what\": {}, \"why\": {}",
        json_string(name),
        args.seed,
        args.seconds,
        u8::from(args.trace),
        json_string(&git_commit()),
        json_string(w.what),
        json_string(w.why),
    );
    for (k, v) in &outcome.info {
        let _ = write!(s, ", {}: {}", json_string(k), json_string(v));
    }
    s.push_str(", \"metrics\": [");
    for (i, m) in metrics.iter().enumerate() {
        let _ = write!(
            s,
            "{}{{\"name\": {}, \"unit\": {}, \"better\": {}, \"bound\": {}, \
             \"source\": {}, \"moves\": {}}}",
            if i == 0 { "" } else { ", " },
            json_string(m.name),
            json_string(m.unit),
            json_string(m.better),
            m.bound.map_or("null".to_string(), |b| b.to_string()),
            json_string(m.source),
            json_string(m.moves),
        );
    }
    s.push_str("]}}");
    s
}

/// Prints one workload's metrics and record; returns its result line and
/// whether every check held.
fn report(args: &RunArgs, name: &str, outcome: &mut Outcome) -> (String, bool) {
    let wanted: &[Metric] = if args.trace { &PER_LAYER } else { &END_TO_END };
    let mut values = Vec::with_capacity(wanted.len());
    for m in wanted {
        let value = match outcome.metrics.iter().find(|(n, _)| *n == m.name) {
            Some(&(_, v)) => v,
            // A layer this workload never calls reports zero work.
            None if args.trace => 0.0,
            None => unreachable!("{name} does not report end-to-end metric {}", m.name),
        };
        if !value.is_finite() {
            outcome.fail(format!("{} is not finite", m.name));
        }
        values.push((m, value));
    }
    println!("{}", meta_line(args, name, outcome, wanted));
    println!("# {name} (seed {}, {} s)", args.seed, args.seconds);
    for (k, v) in &outcome.info {
        println!("#   {k} = {v}");
    }
    for (m, v) in &values {
        println!("{name}: {} = {v} {}", m.name, m.unit);
    }
    for f in &outcome.failures {
        println!("{name}: CHECK FAILED: {f}");
        eprintln!("{name}: CHECK FAILED: {f}");
    }
    let correct = outcome.failures.is_empty();
    let mut line = format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
        outcome.attempted.max(1),
        outcome.failed
    );
    for (i, (m, v)) in values.iter().enumerate() {
        let v = if v.is_finite() { *v } else { 0.0 };
        let _ = write!(
            line,
            "{}{}: {{\"value\": {v}, \"unit\": {}}}",
            if i == 0 { "" } else { ", " },
            json_string(m.name),
            json_string(m.unit)
        );
    }
    line.push_str("}}");
    (line, correct)
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
    };
    let names: Vec<&str> = if args.workload == "all" {
        WORKLOADS.iter().map(|w| w.name).collect()
    } else {
        vec![args.workload.as_str()]
    };
    let mut all_correct = true;
    for name in names {
        let run = RunArgs {
            workload: name.to_string(),
            ..args.clone()
        };
        let mut outcome = run_workload(&run);
        let (line, correct) = report(&run, name, &mut outcome);
        all_correct &= correct;
        println!("{line}");
    }
    if all_correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn parses_the_command_line() {
        let a = parse_args(&argv("--workload read-uds --seed 7 --seconds 10 --trace 1")).unwrap();
        assert_eq!(a.workload, "read-uds");
        assert_eq!(a.seed, 7);
        assert_eq!(a.seconds, 10.0);
        assert!(a.trace);
        assert!(parse_args(&argv("--workload nope")).is_err());
        assert!(parse_args(&argv("--workload all --trace 2")).is_err());
        assert!(parse_args(&argv("--workload all --seconds 0")).is_err());
        assert!(parse_args(&argv("--workload all --seed")).is_err());
    }

    #[test]
    fn json_strings_escape_quotes_and_controls() {
        assert_eq!(json_string("a\"b\\c\n"), "\"a\\\"b\\\\c\\u000a\"");
    }
}
