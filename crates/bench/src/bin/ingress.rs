//! Records `BENCH_ingress.json`: a swarm of concurrent real-socket
//! clients through the event-driven ingress tier — one ingress thread
//! multiplexing every connection — then the admitted submissions run as
//! an engine round and byte-compared against the materialized path, and
//! a flood phase past a tiny admission queue recording the shed
//! accounting.
//!
//! The headline configuration regenerates the committed baseline — over a
//! thousand concurrent connections on one thread:
//!
//! ```text
//! cargo run --release -p atom-bench --bin ingress -- \
//!     --clients 1200 --out BENCH_ingress.json
//! ```
//!
//! CI runs a small smoke (`--clients 120`). The run fails rather than
//! records a file if a frame is lost, the socket-fed round diverges or
//! loses a submission, or the flood queue overruns its bound (see
//! `IngressBaseline::check`). Schema and units: `docs/benchmarks.md`.
//!
//! Usage: `cargo run --release -p atom-bench --bin ingress --
//! [--clients N] [--groups G] [--iterations I] [--users U] [--window W]
//! [--chunk C] [--queue Q] [--flood F] [--flood-queue FQ] [--workers T]
//! [--seed X] [--out PATH]`

use atom_bench::ingress::{print_fig_ingress, run_ingress, IngressSweepSpec};

fn main() {
    let mut spec = IngressSweepSpec::default();
    let mut workers = 2;
    let mut out: Option<String> = None;
    let mut iter = std::env::args().skip(1);
    while let Some(flag) = iter.next() {
        let mut grab_str = |name: &str| -> String {
            iter.next()
                .unwrap_or_else(|| panic!("{name} needs an argument"))
        };
        let grab = |name: &str, value: String| -> u64 {
            value
                .parse::<u64>()
                .unwrap_or_else(|_| panic!("{name} needs a numeric argument"))
        };
        match flag.as_str() {
            "--clients" => spec.clients = grab("--clients", grab_str("--clients")) as usize,
            "--groups" => spec.groups = grab("--groups", grab_str("--groups")) as usize,
            "--iterations" => {
                spec.iterations = grab("--iterations", grab_str("--iterations")) as usize
            }
            "--users" => spec.users = grab("--users", grab_str("--users")) as usize,
            "--window" => spec.window = grab("--window", grab_str("--window")) as usize,
            "--chunk" => spec.chunk = grab("--chunk", grab_str("--chunk")) as usize,
            "--queue" => spec.queue_capacity = grab("--queue", grab_str("--queue")) as usize,
            "--flood" => spec.flood_offers = grab("--flood", grab_str("--flood")) as usize,
            "--flood-queue" => {
                spec.flood_queue_capacity =
                    grab("--flood-queue", grab_str("--flood-queue")) as usize
            }
            "--workers" => workers = grab("--workers", grab_str("--workers")) as usize,
            "--seed" => spec.seed = grab("--seed", grab_str("--seed")),
            "--out" => out = Some(grab_str("--out")),
            other => panic!("unknown flag {other}"),
        }
    }
    if spec.queue_capacity < spec.clients {
        spec.queue_capacity = spec.clients.next_power_of_two();
    }
    let baseline = run_ingress(&spec, workers).unwrap_or_else(|error| panic!("{error}"));
    print_fig_ingress(&baseline);
    if let Some(path) = &out {
        std::fs::write(path, baseline.to_json()).expect("write BENCH_ingress.json");
        println!("\nwrote {path}");
    }
}
