//! `unsafe` lives in one place.
//!
//! The readiness stand-in `vendor/polling` declares three `epoll` foreign
//! functions and adopts one descriptor; that is all the `unsafe` this
//! workspace has. This scan fails if the keyword appears in any other `.rs`
//! file of the repository (comments stripped), or if an `atom-*` crate drops
//! its `forbid(unsafe_code)`. CI runs it in the Ingress suite step.

mod common;

use std::path::Path;

use common::rust_files;

/// Directories holding sources; build output (`target/`) is not among them.
const ROOTS: [&str; 6] = [
    "src",
    "crates",
    "tests",
    "examples",
    "benchmark/src",
    "vendor",
];
const ALLOWED: &str = "vendor/polling";

/// Whether `code` holds `word` as a whole identifier (`unsafe_code` does not
/// hold `unsafe`).
fn has_word(code: &str, word: &str) -> bool {
    let is_ident = |c: char| c.is_alphanumeric() || c == '_';
    code.match_indices(word).any(|(at, _)| {
        let before = code[..at].chars().next_back();
        let after = code[at + word.len()..].chars().next();
        !before.is_some_and(is_ident) && !after.is_some_and(is_ident)
    })
}

#[test]
fn unsafe_appears_only_in_the_polling_stand_in() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let keyword = ["un", "safe"].concat(); // spelled so this file passes its own scan
    let mut files = Vec::new();
    for dir in ROOTS {
        rust_files(&root.join(dir), &mut files);
    }
    assert!(files.len() > 80, "scan found only {} files", files.len());

    let mut hits = Vec::new();
    let mut allowed_hits = 0;
    for file in &files {
        let text = std::fs::read_to_string(file)
            .unwrap_or_else(|error| panic!("read {}: {error}", file.display()));
        for (index, line) in text.lines().enumerate() {
            let code = line.split("//").next().unwrap_or_default();
            if !has_word(code, &keyword) {
                continue;
            }
            if file.starts_with(root.join(ALLOWED)) {
                allowed_hits += 1;
            } else {
                hits.push(format!("{}:{}", file.display(), index + 1));
            }
        }
    }
    assert!(
        hits.is_empty(),
        "{keyword} belongs in {ALLOWED} alone:\n{}",
        hits.join("\n")
    );
    assert!(allowed_hits > 0, "the scan no longer sees {ALLOWED}'s own");
}

#[test]
fn every_atom_crate_forbids_unsafe_code() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut crate_roots = vec![root.join("src/lib.rs")];
    let crates = std::fs::read_dir(root.join("crates")).expect("read crates/");
    crate_roots.extend(
        crates
            .flatten()
            .map(|krate| krate.path().join("src/lib.rs")),
    );
    assert!(crate_roots.len() > 10, "found only {crate_roots:?}");
    for lib in crate_roots {
        let text = std::fs::read_to_string(&lib)
            .unwrap_or_else(|error| panic!("read {}: {error}", lib.display()));
        assert!(
            text.contains("#![forbid(unsafe_code)]"),
            "{} lacks forbid(unsafe_code)",
            lib.display()
        );
    }
}
