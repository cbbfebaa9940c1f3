//! Renders the recovery experiment from its recorded baseline
//! (`BENCH_recovery.json`, or the first argument): the churn summary, the
//! detection-to-healed-round latency and the healed-vs-overall throughput.
//! Schema, units and how to regenerate it: `docs/benchmarks.md`.

use atom_bench::recovery::{print_fig_recovery, RecoveryBaseline};

fn main() {
    let baseline = atom_bench::read_recorded(
        "BENCH_recovery.json",
        "-p atom-bench --bin recovery -- --out BENCH_recovery.json",
        RecoveryBaseline::parse,
    );
    print_fig_recovery(&baseline);
}
