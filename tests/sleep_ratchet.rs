//! Time is waited on, not slept through — and the sleeps left only go down.
//!
//! A `thread::sleep` in a protocol path or a test is a guess at how long
//! something takes; the readiness loops and the condvars replaced most of
//! them. This scan counts the calls left under `crates/`, `src/` and
//! `tests/` (comments stripped) and fails when the count rises above
//! [`MAX_SLEEPS`]. A change that removes a sleep lowers the bound with it.
//! CI runs it in the Chaos step.

mod common;

use std::path::Path;

use common::rust_files;

/// The count when the bound was last lowered; simulated time is meant to
/// lower it further.
const MAX_SLEEPS: usize = 10;

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
