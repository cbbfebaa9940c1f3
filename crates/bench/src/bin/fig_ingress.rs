//! Renders the recorded ingress baseline — the concurrent client swarm's
//! admission throughput and latency through the event-driven ingress
//! tier, the socket-vs-materialized equivalence verdict, and the flood
//! phase's shed accounting.
//!
//! Reads `BENCH_ingress.json` (path overridable as the first argument).
//! Regenerate the baseline with:
//!
//! ```text
//! cargo run --release -p atom-bench --bin ingress -- \
//!     --clients 1200 --out BENCH_ingress.json
//! ```
//!
//! Schema and units: `docs/benchmarks.md`.

use atom_bench::ingress::{print_fig_ingress, IngressBaseline};

fn main() {
    let baseline = atom_bench::read_recorded(
        "BENCH_ingress.json",
        "ingress -- --clients 1200 --out BENCH_ingress.json",
        IngressBaseline::parse,
    );
    print_fig_ingress(&baseline);
}
