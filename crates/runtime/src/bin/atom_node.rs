//! `atom-node` — one process of a multi-process Atom deployment.
//!
//! Each invocation hosts a subset of the anytrust groups of a
//! deterministically derived workload (see `atom_runtime::fleet`) and
//! talks to its peers over `TcpTransport`. Process 0 is the coordinator:
//! it verifies submission intake, injects the iteration-0 batches,
//! collects every group's exit frame and reports the round outputs.
//! Groups are assigned round-robin over all processes (coordinator
//! included).
//!
//! A two-process loopback run:
//!
//! ```text
//! cargo run --release -p atom-runtime --bin atom-node -- \
//!     --index 1 --addrs 127.0.0.1:7401,127.0.0.1:7402 --groups 4 &
//! cargo run --release -p atom-runtime --bin atom-node -- \
//!     --index 0 --addrs 127.0.0.1:7401,127.0.0.1:7402 --groups 4 \
//!     --out /tmp/atom_node_output.bin
//! ```
//!
//! Every process must receive the same flags except `--index`,
//! `--workers` and the coordinator's output paths. Every process drives a
//! recovery state machine (`atom_runtime::fleet`), so a lost member is
//! evicted and its groups re-formed rather than failing the run.
//! `docs/operations.md` is the operator guide: the flag-agreement rules,
//! the `atom-process-ready` readiness line, `--sharded`, `--batch` /
//! `--honest` / `--rejoin` (failure and recovery), and the coordinator's
//! `--out`, `--trace` and `--metrics-out` files.
//!
//! This binary is only a name for the fleet process: its flags are
//! `fleet::NodeArgs` and its program is `fleet::node_main`, which the
//! `recovery` harness also runs when it re-executes itself as fleet
//! processes. A flag error exits with status 2, a failed run with 1.

fn main() {
    std::process::exit(atom_runtime::fleet::node_main(std::env::args().skip(1)));
}
