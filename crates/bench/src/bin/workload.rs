//! Records `BENCH_workload.json`: deterministic traffic models (Zipf
//! microblog fan-in under a diurnal curve, dialing bursts, trap and NIZK
//! variants) pulled through the engine's bounded streaming intake, plus
//! the adversary scenario suite's verdicts.
//!
//! The headline configuration regenerates the committed baseline — a
//! million-user population offering a million submissions through a
//! bounded intake window, proving the offered load never has to be
//! resident:
//!
//! ```text
//! cargo run --release -p atom-bench --bin workload -- \
//!     --users 1000000 --submissions 1000000 --out BENCH_workload.json
//! ```
//!
//! CI runs a small sweep with `--check-equivalence`, which re-runs every
//! pattern through the materialized intake path and byte-compares the
//! reports. Any run fails rather than records a file if a pattern loses a
//! message or overruns its intake window, or an attack's verdict names the
//! wrong defence. Schema and units: `docs/benchmarks.md`.
//!
//! Usage: `cargo run --release -p atom-bench --bin workload --
//! [--groups N] [--iterations I] [--users U] [--rounds R]
//! [--submissions S] [--window W] [--chunk C] [--workers T] [--seed X]
//! [--check-equivalence] [--out PATH]`

use atom_bench::workload::{print_fig_workload, run_workload, WorkloadSweepSpec};

fn main() {
    let mut spec = WorkloadSweepSpec::default();
    let mut workers = 2;
    let mut out: Option<String> = None;
    let mut iter = std::env::args().skip(1);
    while let Some(flag) = iter.next() {
        let mut grab_str = |name: &str| -> String {
            iter.next()
                .unwrap_or_else(|| panic!("{name} needs an argument"))
        };
        let grab = |name: &str, value: String| -> u64 {
            value
                .parse::<u64>()
                .unwrap_or_else(|_| panic!("{name} needs a numeric argument"))
        };
        match flag.as_str() {
            "--groups" => spec.groups = grab("--groups", grab_str("--groups")) as usize,
            "--iterations" => {
                spec.iterations = grab("--iterations", grab_str("--iterations")) as usize
            }
            "--users" => spec.users = grab("--users", grab_str("--users")) as usize,
            "--rounds" => spec.rounds = grab("--rounds", grab_str("--rounds")) as usize,
            "--submissions" => {
                spec.submissions = grab("--submissions", grab_str("--submissions")) as usize
            }
            "--window" => spec.window = grab("--window", grab_str("--window")) as usize,
            "--chunk" => spec.chunk = grab("--chunk", grab_str("--chunk")) as usize,
            "--workers" => workers = grab("--workers", grab_str("--workers")) as usize,
            "--seed" => spec.seed = grab("--seed", grab_str("--seed")),
            "--check-equivalence" => spec.check_equivalence = true,
            "--out" => out = Some(grab_str("--out")),
            other => panic!("unknown flag {other}"),
        }
    }
    let baseline = run_workload(&spec, workers).unwrap_or_else(|error| panic!("{error}"));
    print_fig_workload(&baseline);
    if let Some(path) = &out {
        std::fs::write(path, baseline.to_json()).expect("write BENCH_workload.json");
        println!("\nwrote {path}");
    }
}
