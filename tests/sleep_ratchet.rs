//! Time is waited on, not slept through — and the sleeps left only go down.
//!
//! A `thread::sleep` in a protocol path or a test is a guess at how long
//! something takes; the readiness loops and the condvars replaced most of
//! them. This scan counts the calls left under `crates/`, `src/` and
//! `tests/` (comments stripped) and fails when the count rises above
//! [`MAX_SLEEPS`]. A change that removes a sleep lowers the bound with it.
//! A second scan keeps the recovery state machines free of clocks, threads
//! and I/O, so time stays injected there, and a third counts the clock
//! reads of the protocol paths and keeps them out of the decisions that
//! take `now`. CI runs all three in the Chaos step.

mod common;

use std::path::Path;

use common::rust_files;

/// The count when the bound was last lowered; simulated time is meant to
/// lower it further.
const MAX_SLEEPS: usize = 5;

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
/// the machines take their time and their frames from a driver, and never
/// name the trait the driver carries their actions over.
const IO_TOKENS: [&str; 8] = [
    "Instant::now",
    "SystemTime",
    "thread::",
    "send_control",
    "recv_control",
    "Engine::",
    "println!",
    "Carrier",
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

/// The protocol-path files whose clock reads [`clock_reads_do_not_grow`]
/// counts.
const CLOCK_FILES: [&str; 8] = [
    "crates/runtime/src/engine/mod.rs",
    "crates/runtime/src/engine/setup.rs",
    "crates/runtime/src/ingress.rs",
    "crates/net/src/tcp.rs",
    "crates/net/src/evloop.rs",
    "crates/runtime/src/fleet/mod.rs",
    "crates/core/src/actor.rs",
    "crates/core/src/round.rs",
];

/// A clock read: `Instant::now`, or an `elapsed` call or path.
const CLOCK_READS: [&str; 3] = ["Instant::now", ".elapsed(", "Instant::elapsed"];

/// The count when the bound was last lowered (36 before the decisions took
/// `now`).
const MAX_CLOCK_READS: usize = 25;

/// Decisions that take `now` (or a budget) from their caller, by file and
/// signature: no clock read inside.
const TIMELESS: [(&str, &str); 5] = [
    ("crates/runtime/src/engine/mod.rs", "fn watchdog("),
    ("crates/net/src/evloop.rs", "fn pass("),
    ("crates/net/src/evloop.rs", "fn sweep_idle("),
    ("crates/net/src/tcp.rs", "fn dial("),
    ("crates/net/src/tcp.rs", "fn write_frame("),
];

/// The part of `file` before its first `#[cfg(test)]`, comments stripped.
fn non_test_code(file: &Path) -> String {
    let text = std::fs::read_to_string(file)
        .unwrap_or_else(|error| panic!("read {}: {error}", file.display()));
    let lines = text
        .lines()
        .take_while(|line| !line.contains("#[cfg(test)]"));
    let code = lines.map(|line| line.split("//").next().unwrap_or_default());
    code.collect::<Vec<_>>().join("\n")
}

/// The body of the function `signature` opens in `code`, braces included.
fn body<'a>(code: &'a str, signature: &str) -> &'a str {
    let start = code
        .find(signature)
        .unwrap_or_else(|| panic!("no `{signature}`"));
    let open = start + code[start..].find('{').expect("a function body");
    let mut depth = 0;
    for (at, byte) in code.bytes().enumerate().skip(open) {
        depth += i32::from(byte == b'{') - i32::from(byte == b'}');
        if depth == 0 {
            return &code[open..=at];
        }
    }
    panic!("`{signature}` has an unclosed body")
}

fn clock_reads(code: &str) -> usize {
    CLOCK_READS
        .iter()
        .map(|read| code.matches(read).count())
        .sum()
}

#[test]
fn clock_reads_do_not_grow() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let counts: Vec<(usize, &str)> = (CLOCK_FILES.iter())
        .map(|file| (clock_reads(&non_test_code(&root.join(file))), *file))
        .collect();
    let total: usize = counts.iter().map(|(reads, _)| reads).sum();
    let listed: Vec<String> = (counts.iter())
        .map(|(reads, file)| format!("{reads:>4}  {file}"))
        .collect();
    assert!(
        total <= MAX_CLOCK_READS,
        "{total} clock reads on the protocol paths (at most {MAX_CLOCK_READS}); take `now` \
         from the loop's one read instead:\n{}",
        listed.join("\n")
    );
    for (file, signature) in TIMELESS {
        let code = non_test_code(&root.join(file));
        let reads = clock_reads(body(&code, signature));
        assert_eq!(reads, 0, "`{signature}` in {file} reads the clock");
    }
}
