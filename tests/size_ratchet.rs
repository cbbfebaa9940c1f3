//! Library code only shrinks.
//!
//! Every non-test line under `crates/*/src` is a line someone has to read
//! and keep right. This scan sums, for each `.rs` file there, the lines
//! before its first `#[cfg(test)]`, and fails when the total rises above
//! [`MAX_LINES`], listing the largest files. A change that removes code
//! lowers the bound with it. CI runs it in the Chaos step.

mod common;

use std::path::Path;

use common::rust_files;

/// The count when the bound was last lowered.
const MAX_LINES: usize = 17_139;

#[test]
fn non_test_line_count_does_not_grow() {
    let crates = Path::new(env!("CARGO_MANIFEST_DIR")).join("crates");
    let mut files = Vec::new();
    for entry in std::fs::read_dir(&crates).expect("read crates/").flatten() {
        let src = entry.path().join("src");
        if src.is_dir() {
            rust_files(&src, &mut files);
        }
    }
    assert!(files.len() > 70, "scan found only {} files", files.len());

    let mut sizes: Vec<(usize, String)> = files
        .iter()
        .map(|file| {
            let text = std::fs::read_to_string(file)
                .unwrap_or_else(|error| panic!("read {}: {error}", file.display()));
            let lines = text
                .lines()
                .take_while(|line| !line.contains("#[cfg(test)]"))
                .count();
            (lines, file.display().to_string())
        })
        .collect();
    let total: usize = sizes.iter().map(|(lines, _)| lines).sum();
    sizes.sort_unstable_by(|a, b| b.cmp(a));
    let largest: Vec<String> = sizes
        .iter()
        .take(10)
        .map(|(lines, path)| format!("{lines:>6}  {path}"))
        .collect();
    assert!(
        total <= MAX_LINES,
        "{total} non-test lines under crates/*/src (at most {MAX_LINES}); delete as much as \
         you add. Largest files:\n{}",
        largest.join("\n")
    );
}
