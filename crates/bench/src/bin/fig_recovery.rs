//! Renders the recovery experiment — eviction, healing and rejoin under
//! churn — from the recorded baseline.
//!
//! Reads `BENCH_recovery.json` (path overridable as the first argument)
//! and prints the churn summary, the detection-to-healed-round latency and
//! the healed-vs-overall throughput bars. Regenerate the baseline with:
//!
//! ```text
//! cargo run --release -p atom-bench --bin recovery -- --out BENCH_recovery.json
//! ```
//!
//! Schema and units: `docs/benchmarks.md`.

use atom_bench::recovery::{print_fig_recovery, RecoveryBaseline};

fn main() {
    let baseline = atom_bench::read_recorded(
        "BENCH_recovery.json",
        "recovery -- --out BENCH_recovery.json",
        RecoveryBaseline::parse,
    );
    print_fig_recovery(&baseline);
}
