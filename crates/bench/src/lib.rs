//! # atom-bench
//!
//! The reproduction harness for every table and figure in the evaluation
//! section of *Atom: Horizontally Scaling Strong Anonymity* (SOSP 2017).
//!
//! Each experiment is a crate-private function returning the rows it prints
//! (so unit tests can check the shapes), a public `print_*` companion, and a
//! small binary (`cargo run --release -p atom-bench --bin fig5`, etc.).
//! Primitive-level costs are the frozen benchmark's per-layer metrics
//! (`benchmark/`).
//!
//! Absolute numbers will differ from the paper (different curve, different
//! hardware, one machine instead of 1,024); the quantities that must
//! reproduce are the *shapes*: what grows linearly, who is faster than whom
//! and by roughly what factor. No file records these runs: each bin prints
//! its rows, and the recorded perf baselines are listed in
//! `docs/benchmarks.md`.

#![forbid(unsafe_code)]

mod experiments;
mod fixtures;
pub mod json;
pub mod netbench;
pub mod recovery;

pub use experiments::*;

use std::sync::OnceLock;

use json::{Json, Value};

/// The text of a recorded `BENCH_*.json`: three provenance fields readers
/// ignore, then `record`'s fields and `"transport": "tcp-loopback"`, the
/// network every recorded fleet ran on. `nproc` and `git_revision`
/// (`"unknown"` outside git) keep files of different hosts and PRs from
/// being compared blind; `dirty` says the tree differed from that
/// revision, so a file recorded mid-change names the *parent's*. They are
/// read once per process, so one run writes one provenance.
pub(crate) fn recorded_json(record: &impl Json) -> String {
    static PROVENANCE: OnceLock<Vec<(String, Value)>> = OnceLock::new();
    let mut file = PROVENANCE
        .get_or_init(|| {
            let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
            let git = |args: &[&str]| {
                std::process::Command::new("git")
                    .args(args)
                    .current_dir(env!("CARGO_MANIFEST_DIR"))
                    .output()
                    .ok()
                    .filter(|output| output.status.success())
                    .map(|output| String::from_utf8_lossy(&output.stdout).trim().to_string())
            };
            let git_revision = git(&["rev-parse", "HEAD"])
                .filter(|revision| !revision.is_empty())
                .unwrap_or_else(|| "unknown".to_string());
            let dirty = git(&["status", "--porcelain"]).is_none_or(|status| !status.is_empty());
            vec![
                ("nproc".into(), nproc.to_value()),
                ("git_revision".into(), Value::Str(git_revision)),
                ("dirty".into(), Value::Bool(dirty)),
            ]
        })
        .clone();
    let Value::Obj(fields) = record.to_value() else {
        panic!("a recorded baseline is a JSON object");
    };
    file.extend(fields);
    file.push(("transport".into(), Value::Str("tcp-loopback".into())));
    Value::Obj(file).to_pretty()
}

/// What a `fig_*` bin renders: the file named by the first argument (or
/// `default`), read by `parse`. A missing file panics with the command
/// that writes it: `cargo run --release {writer}`.
pub fn read_recorded<T>(default: &str, writer: &str, parse: fn(&str) -> Result<T, String>) -> T {
    let path = std::env::args().nth(1).unwrap_or_else(|| default.into());
    let text = std::fs::read_to_string(&path).unwrap_or_else(|error| {
        panic!("read {path}: {error} — write it with `cargo run --release {writer}`")
    });
    parse(&text).unwrap_or_else(|error| panic!("{path}: {error}"))
}
