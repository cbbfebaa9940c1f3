//! Reproduces the paper's evaluation: every table, figure and ablation of
//! §6, or the ones named.
//!
//! Usage: `cargo run --release -p atom-bench --bin paper -- [ARTIFACT...]
//! [--full]`. An unknown name exits 2 with the usage.

use atom_bench::Scale;

fn main() {
    let (full, names): (Vec<_>, Vec<_>) = std::env::args().skip(1).partition(|arg| arg == "--full");
    let scale = if full.is_empty() {
        Scale::Quick
    } else {
        Scale::Full
    };
    if let Err(usage) = atom_bench::paper(&names, scale) {
        eprintln!("paper: {usage}");
        std::process::exit(2);
    }
}
