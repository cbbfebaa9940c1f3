//! `atom-benchmark`: the repo's one frozen benchmark.
//!
//! Four workloads on real host compute (no emulated delay, no
//! stragglers), all load from this one process, all sockets on loopback:
//!
//! ```text
//! atom-benchmark --workload W --seed N --seconds S --trace 0|1   # one run (the driver's form)
//! atom-benchmark run   [--seed N] [--seconds S] [--smoke]        # all four, untraced
//! atom-benchmark trace [--seed N] [--seconds S] [--smoke]        # all four, traced
//! atom-benchmark agree [--seed N] [--seconds S] [--smoke]        # both, twice; must agree
//! ```
//!
//! The last line of standard output of a single run is one JSON object
//! with `correct`, `attempted`, `failed` and `metrics`. Result and trace
//! files go to `benchmark/out/`. See `benchmark/README.md`.

mod catalogue;
mod json;
mod layers;
mod loadgen;
mod spans;
mod stats;
mod suite;
mod sys;
mod tcp_pair;
mod traced;
mod workloads;

use std::path::PathBuf;
use std::process::{Command, ExitCode, Stdio};

use catalogue::{Better, END_TO_END, EXACT_COUNTS};
use workloads::Shape;

/// Seconds one run measures unless told otherwise (`run_seconds` in
/// `BENCHMARK.json`).
const DEFAULT_SECONDS: f64 = 20.0;
/// Seconds per workload under `--smoke`.
const SMOKE_SECONDS: f64 = 0.5;
const DEFAULT_SEED: u64 = 1;

struct Args {
    command: Option<String>,
    workload: Option<String>,
    seed: u64,
    seconds: Option<f64>,
    trace: bool,
    smoke: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        command: None,
        workload: None,
        seed: DEFAULT_SEED,
        seconds: None,
        trace: false,
        smoke: false,
    };
    let mut words = std::env::args().skip(1);
    while let Some(word) = words.next() {
        let mut value = |flag: &str| words.next().ok_or_else(|| format!("{flag} needs a value"));
        match word.as_str() {
            "run" | "trace" | "agree" if args.command.is_none() => args.command = Some(word),
            "--workload" => args.workload = Some(value("--workload")?),
            "--seed" => {
                args.seed = value("--seed")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?;
            }
            "--seconds" => {
                let seconds: f64 = value("--seconds")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(seconds > 0.0 && seconds <= 3600.0) {
                    return Err("--seconds must be positive".into());
                }
                args.seconds = Some(seconds);
            }
            "--trace" => {
                args.trace = match value("--trace")?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                };
            }
            "--smoke" => args.smoke = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(args)
}

/// Writes `benchmark/out/<name>`.
fn write_out(name: &str, contents: &str) -> Result<(), String> {
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out");
    std::fs::create_dir_all(&dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
    let path = dir.join(name);
    std::fs::write(&path, contents).map_err(|e| format!("write {}: {e}", path.display()))
}

/// One run of one workload in this process: table, result file (and
/// trace file), then the result line.
fn run_one(shape: &Shape, seed: u64, seconds: f64, trace: bool) -> Result<(), String> {
    let host = sys::host_info();
    let report = if trace {
        let (report, tracer) = traced::run_traced(shape, seed, seconds)?;
        write_out(
            &format!("trace-{}.json", shape.name),
            // Tens of thousands of events: one line keeps the file small.
            &tracer.chrome_trace(shape.name).to_line(),
        )?;
        report
    } else {
        suite::run_untraced(shape, seed, seconds)?
    };
    report.print_table();
    let kind = if trace { "layers" } else { "result" };
    write_out(
        &format!("{kind}-{}.json", shape.name),
        &report.to_file(&host).to_pretty(),
    )?;
    // The driver reads the last line of standard output.
    println!("{}", report.result_line());
    if report.correct {
        Ok(())
    } else {
        Err(format!(
            "correctness checks failed: {}",
            report.errors.join("; ")
        ))
    }
}

fn selected_shape(name: &str, smoke: bool) -> Result<Shape, String> {
    workloads::shapes()
        .into_iter()
        .find(|shape| shape.name == name)
        .map(|shape| if smoke { shape.smoke() } else { shape })
        .ok_or_else(|| format!("unknown workload {name}"))
}

/// What a child run's result line said.
struct ChildResult {
    workload: &'static str,
    failed: f64,
    metrics: Vec<(String, f64)>,
}

impl ChildResult {
    fn metric(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| *v)
    }
}

/// Runs every workload once, each in a process of its own — exactly what
/// the driver does — so no workload meets caches or heap another one
/// warmed. The children run one after another; their output is passed on.
fn run_set(args: &Args, seconds: f64, trace: bool) -> Result<Vec<ChildResult>, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let mut results = Vec::new();
    for shape in workloads::shapes() {
        let mut command = Command::new(&exe);
        command
            .args(["--workload", shape.name])
            .args(["--seed", &args.seed.to_string()])
            .args(["--seconds", &seconds.to_string()])
            .args(["--trace", if trace { "1" } else { "0" }]);
        if args.smoke {
            command.arg("--smoke");
        }
        let output = command
            .stderr(Stdio::inherit())
            .output()
            .map_err(|e| format!("start {}: {e}", shape.name))?;
        let stdout = String::from_utf8_lossy(&output.stdout);
        let (table, line) = stdout
            .trim_end()
            .rsplit_once('\n')
            .unwrap_or(("", stdout.trim_end()));
        println!("{table}");
        if !output.status.success() {
            return Err(format!("{} failed ({})", shape.name, output.status));
        }
        let result = json::parse(line).map_err(|e| format!("{}: result line: {e}", shape.name))?;
        let number = |value: Option<&json::Value>| value.and_then(json::Value::as_f64);
        let metrics = match result.get("metrics") {
            Some(json::Value::Obj(pairs)) => pairs
                .iter()
                .filter_map(|(name, entry)| Some((name.clone(), number(entry.get("value"))?)))
                .collect(),
            _ => return Err(format!("{}: result line has no metrics", shape.name)),
        };
        results.push(ChildResult {
            workload: shape.name,
            failed: number(result.get("failed")).unwrap_or(f64::NAN),
            metrics,
        });
    }
    Ok(results)
}

/// Two untraced and two traced sets on the same commit and seed: every
/// end-to-end metric of the second set must be within its bound of the
/// first, nothing may fail, and the exact-count layer metrics must be
/// identical.
fn agree(args: &Args, seconds: f64) -> Result<(), String> {
    let first = run_set(args, seconds, false)?;
    let second = run_set(args, seconds, false)?;
    let first_layers = run_set(args, seconds, true)?;
    let second_layers = run_set(args, seconds, true)?;

    let mut disagreements = Vec::new();
    println!("== agree: second set against the first ==");
    for (a, b) in first.iter().zip(&second) {
        for (name, _, better, bound) in END_TO_END {
            let (Some(x), Some(y)) = (a.metric(name), b.metric(name)) else {
                disagreements.push(format!("{} {name}: not measured", a.workload));
                continue;
            };
            let worse = match better {
                Better::Lower => (y - x) / x,
                Better::Higher => (x - y) / x,
            };
            println!(
                "   {:<14} {:<16} first {:>12.4} second {:>12.4} spread {:>6.2}% bound {:>5.1}% {}",
                a.workload,
                name,
                x,
                y,
                (y - x).abs() / x * 100.0,
                bound * 100.0,
                if worse > *bound { "DISAGREES" } else { "ok" }
            );
            if worse > *bound {
                disagreements.push(format!("{} {name}: {x} then {y}", a.workload));
            }
        }
        if a.failed + b.failed != 0.0 {
            disagreements.push(format!(
                "{}: {} + {} operations failed",
                a.workload, a.failed, b.failed
            ));
        }
    }
    for (a, b) in first_layers.iter().zip(&second_layers) {
        for name in EXACT_COUNTS {
            let (x, y) = (a.metric(name), b.metric(name));
            let same = x.is_some() && x == y;
            println!(
                "   {:<14} {:<34} {:>12} {:>12} {}",
                a.workload,
                name,
                x.map_or("missing".to_string(), |v| v.to_string()),
                y.map_or("missing".to_string(), |v| v.to_string()),
                if same { "identical" } else { "DIFFERS" }
            );
            if !same {
                disagreements.push(format!("{} {name}: exact count differs", a.workload));
            }
        }
    }
    if disagreements.is_empty() {
        println!("agree: both sets agree within the bounds of BENCHMARK.json");
        Ok(())
    } else {
        Err(format!(
            "the two sets disagree:\n  {}",
            disagreements.join("\n  ")
        ))
    }
}

fn main() -> ExitCode {
    let outcome = parse_args().and_then(|args| {
        let seconds = args
            .seconds
            .unwrap_or(if args.smoke { SMOKE_SECONDS } else { DEFAULT_SECONDS });
        match (args.command.as_deref(), &args.workload) {
            (None, Some(name)) => {
                run_one(&selected_shape(name, args.smoke)?, args.seed, seconds, args.trace)
            }
            (Some("run"), None) => run_set(&args, seconds, false).map(|_| ()),
            (Some("trace"), None) => run_set(&args, seconds, true).map(|_| ()),
            (Some("agree"), None) => agree(&args, seconds),
            _ => Err("usage: --workload W --seed N --seconds S --trace 0|1 | run | trace | agree [--seed N] [--seconds S] [--smoke]".into()),
        }
    });
    match outcome {
        Ok(()) => ExitCode::SUCCESS,
        Err(error) => {
            eprintln!("atom-benchmark: {error}");
            ExitCode::FAILURE
        }
    }
}
