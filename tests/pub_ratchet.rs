//! The public API only shrinks.
//!
//! A `pub` item is a promise to every other crate, and the `unreachable_pub`
//! lint only catches one that no crate can reach. This scan counts the
//! `pub` items (`pub(crate)` and other restricted forms do not count)
//! before each `crates/*/src` file's first `#[cfg(test)]` and fails when
//! the total rises above [`MAX_PUB_ITEMS`]. Make an item `pub` only when
//! another crate names it; a change that narrows or deletes one lowers the
//! bound with it. CI runs it in the Chaos step.

mod common;

use std::path::Path;

use common::rust_files;

/// The count when the bound was last lowered.
const MAX_PUB_ITEMS: usize = 443;

/// The item kinds counted (`pub const fn` counts once, as a `const`).
const KINDS: [&str; 9] = [
    "fn", "struct", "enum", "const", "type", "trait", "static", "mod", "use",
];

#[test]
fn pub_item_count_does_not_grow() {
    let crates = Path::new(env!("CARGO_MANIFEST_DIR")).join("crates");
    let mut files = Vec::new();
    for entry in std::fs::read_dir(&crates).expect("read crates/").flatten() {
        let src = entry.path().join("src");
        if src.is_dir() {
            rust_files(&src, &mut files);
        }
    }
    assert!(files.len() > 70, "scan found only {} files", files.len());

    let mut counts: Vec<(usize, String)> = files
        .iter()
        .map(|file| {
            let text = std::fs::read_to_string(file)
                .unwrap_or_else(|error| panic!("read {}: {error}", file.display()));
            let items = text
                .lines()
                .take_while(|line| !line.contains("#[cfg(test)]"))
                .filter(|line| is_pub_item(line))
                .count();
            (items, file.display().to_string())
        })
        .collect();
    let total: usize = counts.iter().map(|(items, _)| items).sum();
    counts.sort_unstable_by(|a, b| b.cmp(a));
    let largest: Vec<String> = counts
        .iter()
        .take(10)
        .map(|(items, path)| format!("{items:>6}  {path}"))
        .collect();
    assert!(
        total <= MAX_PUB_ITEMS,
        "{total} pub items under crates/*/src (at most {MAX_PUB_ITEMS}); use pub(crate) unless \
         another crate names the item. Most pub items:\n{}",
        largest.join("\n")
    );
}

/// Whether `line` declares an unrestricted `pub` item of one of the
/// [`KINDS`]. The `atom-*` crates forbid unsafe code and have no async or
/// extern functions, so no other qualifier can precede the kind.
fn is_pub_item(line: &str) -> bool {
    let Some(rest) = line.trim_start().strip_prefix("pub ") else {
        return false;
    };
    KINDS.contains(&rest.split_whitespace().next().unwrap_or_default())
}
