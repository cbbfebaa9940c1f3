//! Errors travel as values, not unwinds.
//!
//! A peer that stops answering is an expected input (§4.5), reported by
//! `Transport::send` as a `SendError`. Nothing in the library or binary
//! sources may go back to recovering such facts from a panic: this scan
//! fails if an unwind-catching primitive reappears under `src/` or any
//! `crates/*/src`. CI runs it in the Chaos step.

mod common;

use std::path::Path;

use common::rust_files;

const FORBIDDEN: [&str; 3] = ["catch_unwind", "resume_unwind", "AssertUnwindSafe"];

#[test]
fn no_source_file_catches_an_unwind() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut files = Vec::new();
    rust_files(&root.join("src"), &mut files);
    let crates = std::fs::read_dir(root.join("crates")).expect("read crates/");
    for krate in crates.flatten() {
        let src = krate.path().join("src");
        if src.is_dir() {
            rust_files(&src, &mut files);
        }
    }
    assert!(
        files.len() > 40,
        "scan found only {} source files",
        files.len()
    );

    let mut hits = Vec::new();
    for file in &files {
        let text = std::fs::read_to_string(file)
            .unwrap_or_else(|error| panic!("read {}: {error}", file.display()));
        for (index, line) in text.lines().enumerate() {
            if let Some(word) = FORBIDDEN.iter().find(|word| line.contains(**word)) {
                hits.push(format!("{}:{}: {word}", file.display(), index + 1));
            }
        }
    }
    assert!(
        hits.is_empty(),
        "a send failure is a `SendError` value; do not recover it from a panic:\n{}",
        hits.join("\n")
    );
}
