//! # atom-bench
//!
//! The reproduction harness for every table and figure in the evaluation
//! section of *Atom: Horizontally Scaling Strong Anonymity* (SOSP 2017).
//!
//! Each experiment is exposed both as a library function (returning the rows
//! it would print, so integration tests can sanity-check the shapes) and as a
//! small binary (`cargo run --release -p atom-bench --bin fig5`, etc.). The
//! Criterion microbenchmarks in `benches/` cover the primitive-level numbers.
//!
//! Absolute numbers will differ from the paper (different curve, different
//! hardware, one machine instead of 1,024); the quantities that must
//! reproduce are the *shapes*: what grows linearly, who is faster than whom
//! and by roughly what factor. `EXPERIMENTS.md` records both.

#![forbid(unsafe_code)]

pub mod experiments;
pub mod fixtures;
pub mod heal;
pub mod ingress;
pub mod netbench;
pub mod recovery;
pub mod scale;
pub mod workload;

pub use experiments::*;

/// The leading fields of a recorded `BENCH_*.json` — `"nproc"`,
/// `"git_revision"`, `"dirty"` — as one JSON fragment: host cores and
/// revision, so baselines from different PRs and machines are never
/// compared blind (`"unknown"` outside a git checkout). `dirty` says
/// whether the tree differed from that revision: a file recorded while a
/// change is being written names the *parent's* revision.
pub fn provenance_json() -> String {
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
    format!("\"nproc\": {nproc},\n  \"git_revision\": \"{git_revision}\",\n  \"dirty\": {dirty}")
}
