//! Every documented command that runs or builds a bin names one its package
//! builds.
//!
//! Scans `README.md`, `docs/*.md` and `.github/workflows/ci.yml` for
//! `cargo run` / `cargo build` commands that name both a package (`-p`)
//! and a bin (`--bin`), with `\`-continued lines joined first, and asserts
//! that the package is in the workspace and builds the bin: a `[[bin]]`
//! entry of its manifest or a `src/bin/` file stem. A bin that moves to
//! another crate so leaves no stale command behind. A bin named by a shell
//! variable is skipped. CI runs this beside the link check.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

/// Every package under the root, `crates/` and `vendor/`, with the bins it
/// builds.
fn packages(root: &Path) -> BTreeMap<String, Vec<String>> {
    let mut dirs = vec![root.to_path_buf()];
    for parent in ["crates", "vendor"] {
        let entries = std::fs::read_dir(root.join(parent)).expect("read the package directory");
        dirs.extend(entries.flatten().map(|entry| entry.path()));
    }
    let mut packages = BTreeMap::new();
    for dir in dirs {
        let Ok(manifest) = std::fs::read_to_string(dir.join("Cargo.toml")) else {
            continue;
        };
        let (mut section, mut name, mut bins) = ("", None, Vec::new());
        for line in manifest.lines().map(str::trim) {
            if line.starts_with('[') {
                section = line;
            } else if let Some(value) = line.strip_prefix("name = ") {
                let value = value.trim_matches('"').to_string();
                match section {
                    "[package]" => name = Some(value),
                    "[[bin]]" => bins.push(value),
                    _ => {}
                }
            }
        }
        let stems = std::fs::read_dir(dir.join("src/bin")).into_iter().flatten();
        bins.extend(stems.flatten().filter_map(|entry| {
            let path = entry.path();
            let stem = path.file_stem()?.to_str()?.to_string();
            (path.extension().is_some_and(|ext| ext == "rs") || path.join("main.rs").exists())
                .then_some(stem)
        }));
        if let Some(name) = name {
            packages.insert(name, bins);
        }
    }
    packages
}

/// The files under this check: the README, `docs/*.md` and the CI workflow.
fn documented(root: &Path) -> Vec<PathBuf> {
    let mut files = vec![
        root.join("README.md"),
        root.join(".github/workflows/ci.yml"),
    ];
    let docs = std::fs::read_dir(root.join("docs")).expect("read docs/");
    files.extend(
        (docs.flatten().map(|entry| entry.path()))
            .filter(|path| path.extension().is_some_and(|ext| ext == "md")),
    );
    files.sort();
    files
}

/// The `(line, package, bin)` of every `cargo run` / `cargo build` in
/// `text` that names both. A command ends at its `--`, at a shell operator
/// or at the end of its code span.
fn bin_commands(text: &str) -> Vec<(usize, String, String)> {
    let mut commands = Vec::new();
    let (mut logical, mut first) = (String::new(), 0);
    for (index, line) in text.lines().enumerate() {
        if logical.is_empty() {
            first = index + 1;
        }
        if let Some(continued) = line.trim_end().strip_suffix('\\') {
            logical.push_str(continued);
            logical.push(' ');
            continue;
        }
        logical.push_str(line);
        for verb in ["cargo run", "cargo build"] {
            for (at, _) in logical.match_indices(verb) {
                let (mut package, mut bin) = (None, None);
                let mut words = logical[at + verb.len()..].split_whitespace();
                while let Some(word) = words.next() {
                    if ["--", ";", "&&", "||", "|", "&"].contains(&word) {
                        break;
                    }
                    let value = || {
                        words
                            .clone()
                            .next()
                            .map(|v| v.trim_matches(['`', '"', '\'']))
                    };
                    match word {
                        "-p" | "--package" => package = value(),
                        "--bin" => bin = value(),
                        _ => {}
                    }
                    if word.ends_with('`') {
                        break;
                    }
                }
                if let (Some(package), Some(bin)) = (package, bin) {
                    if !bin.starts_with('$') {
                        commands.push((first, package.to_string(), bin.to_string()));
                    }
                }
            }
        }
        logical.clear();
    }
    commands
}

#[test]
fn documented_bin_commands_name_bins_their_packages_build() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let packages = packages(root);
    assert!(
        packages.contains_key("atom-bench") && packages.contains_key("atom-runtime"),
        "package scan found only {:?}",
        packages.keys()
    );

    let (mut checked, mut stale) = (0, Vec::new());
    for file in documented(root) {
        let text = std::fs::read_to_string(&file)
            .unwrap_or_else(|error| panic!("read {}: {error}", file.display()));
        for (line, package, bin) in bin_commands(&text) {
            checked += 1;
            match packages.get(&package) {
                Some(bins) if bins.contains(&bin) => {}
                Some(bins) => stale.push(format!(
                    "{}:{line}: `-p {package}` builds no bin `{bin}` (it builds {bins:?})",
                    file.display()
                )),
                None => stale.push(format!(
                    "{}:{line}: no workspace package `{package}`",
                    file.display()
                )),
            }
        }
    }
    assert!(checked >= 10, "found only {checked} bin commands");
    assert!(
        stale.is_empty(),
        "documented commands name bins their packages do not build:\n{}",
        stale.join("\n")
    );
}

#[test]
fn commands_are_read_across_continuations_and_code_spans() {
    let text = "run `cargo run --release -p atom-bench --bin fig9` now\n\
                cargo build --release \\\n    -p atom-runtime --bin atom-node\n\
                cargo run -p atom-bench --bin \"$bin\"\n\
                cargo run --bin alone -- -p other\n";
    let want = [(1, "atom-bench", "fig9"), (2, "atom-runtime", "atom-node")];
    let want: Vec<_> = (want.iter())
        .map(|&(line, package, bin)| (line, package.to_string(), bin.to_string()))
        .collect();
    assert_eq!(bin_commands(text), want);
}
