//! Time is waited on, not slept through — and the sleeps left only go down.
//!
//! A `thread::sleep` in a protocol path or a test is a guess at how long
//! something takes; the readiness loops and the condvars replaced most of
//! them. This scan counts the calls left under `crates/`, `src/` and
//! `tests/` (comments stripped) and fails when the count rises above
//! [`MAX_SLEEPS`]. A change that removes a sleep lowers the bound with it.
//! A second scan keeps the recovery state machines free of clocks, threads
//! and I/O, so time stays injected there. CI runs both in the Chaos step.

mod common;

use std::path::Path;

use common::rust_files;

/// The count when the bound was last lowered; simulated time is meant to
/// lower it further.
const MAX_SLEEPS: usize = 7;

#[test]
fn thread_sleep_count_does_not_grow() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let pattern = ["thread::", "sleep"].concat(); // spelled so this file does not count itself
    let mut files = Vec::new();
    for dir in ["crates", "src", "tests"] {
        rust_files(&root.join(dir), &mut files);
    }
    assert!(files.len() > 80, "scan found only {} files", files.len());

    let mut hits = Vec::new();
    for file in &files {
        let text = std::fs::read_to_string(file)
            .unwrap_or_else(|error| panic!("read {}: {error}", file.display()));
        for (index, line) in text.lines().enumerate() {
            let code = line.split("//").next().unwrap_or_default();
            for _ in code.matches(pattern.as_str()) {
                hits.push(format!("{}:{}", file.display(), index + 1));
            }
        }
    }
    assert!(
        hits.len() <= MAX_SLEEPS,
        "{} calls to {pattern} (at most {MAX_SLEEPS}); wait on readiness or a condvar instead:\n{}",
        hits.len(),
        hits.join("\n")
    );
}

/// What the non-test part of `crates/runtime/src/recovery*` may not name:
/// the machines take their time and their frames from a driver.
const IO_TOKENS: [&str; 7] = [
    "Instant::now",
    "SystemTime",
    "thread::",
    "send_control",
    "recv_control",
    "Engine::",
    "println!",
];

#[test]
fn recovery_machines_stay_sans_io() {
    let src = Path::new(env!("CARGO_MANIFEST_DIR")).join("crates/runtime/src");
    let mut files = Vec::new();
    rust_files(&src, &mut files);
    let recovery = |file: &&std::path::PathBuf| {
        let relative = file.strip_prefix(&src).expect("under the runtime sources");
        relative.to_string_lossy().starts_with("recovery")
    };
    let files: Vec<_> = files.iter().filter(recovery).collect();
    assert!(
        !files.is_empty(),
        "no recovery sources under {}",
        src.display()
    );

    let mut hits = Vec::new();
    for file in files {
        let text = std::fs::read_to_string(file)
            .unwrap_or_else(|error| panic!("read {}: {error}", file.display()));
        let non_test = text
            .lines()
            .take_while(|line| !line.contains("#[cfg(test)]"));
        for (index, line) in non_test.enumerate() {
            let code = line.split("//").next().unwrap_or_default();
            for token in IO_TOKENS.iter().filter(|token| code.contains(*token)) {
                hits.push(format!("{}:{}: {token}", file.display(), index + 1));
            }
        }
    }
    assert!(
        hits.is_empty(),
        "the recovery machines own no clock, thread, transport, engine or log line:\n{}",
        hits.join("\n")
    );
}
