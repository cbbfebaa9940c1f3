//! Renders the paper's signature figure — throughput vs. number of
//! servers — from the recorded horizontal-scaling baseline.
//!
//! Reads `BENCH_scale.json` (path overridable as the first argument) and
//! prints the (processes × workers) table plus the throughput-vs-processes
//! curve for both directory modes. Regenerate the baseline with:
//!
//! ```text
//! cargo run --release -p atom-bench --bin throughput -- \
//!     --transport tcp --processes 1,2,3,4 --out BENCH_scale.json
//! ```
//!
//! Schema and units: `docs/benchmarks.md`.

use atom_bench::scale::{print_fig_scale, ScaleBaseline};

fn main() {
    let baseline = atom_bench::read_recorded(
        "BENCH_scale.json",
        "throughput -- --transport tcp --processes 1,2,3,4 --out BENCH_scale.json",
        ScaleBaseline::parse,
    );
    print_fig_scale(&baseline);
}
