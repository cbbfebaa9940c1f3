//! Renders the recorded workload baseline — deterministic traffic models
//! through the streaming intake, and the adversary suite's verdicts.
//!
//! Reads `BENCH_workload.json` (path overridable as the first argument)
//! and prints the pattern table (throughput, peak intake residency,
//! streaming-equivalence flag) plus each adversary scenario's verdict and
//! liveness floor. Regenerate the baseline with:
//!
//! ```text
//! cargo run --release -p atom-bench --bin workload -- \
//!     --users 1000000 --submissions 1000000 --out BENCH_workload.json
//! ```
//!
//! Schema and units: `docs/benchmarks.md`.

use atom_bench::workload::{print_fig_workload, WorkloadBaseline};

fn main() {
    let baseline = atom_bench::read_recorded(
        "BENCH_workload.json",
        "workload -- --users 1000000 --submissions 1000000 --out BENCH_workload.json",
        WorkloadBaseline::parse,
    );
    print_fig_workload(&baseline);
}
