//! `atom-node` — one process of a multi-process Atom deployment.
//!
//! Each invocation hosts a subset of the anytrust groups of a
//! deterministically derived workload (see `atom_bench::netbench`) and
//! talks to its peers over `TcpTransport`. Process 0 is the coordinator:
//! it verifies submission intake, injects the iteration-0 batches,
//! collects every group's exit frame and reports the round outputs.
//! Groups are assigned round-robin over all processes (coordinator
//! included).
//!
//! A two-process loopback run:
//!
//! ```text
//! cargo run --release -p atom-bench --bin atom-node -- \
//!     --index 1 --addrs 127.0.0.1:7401,127.0.0.1:7402 --groups 4 &
//! cargo run --release -p atom-bench --bin atom-node -- \
//!     --index 0 --addrs 127.0.0.1:7401,127.0.0.1:7402 --groups 4 \
//!     --out /tmp/atom_node_output.bin
//! ```
//!
//! Every process must receive the same flags except `--index`,
//! `--workers` and the coordinator's output paths; the workload derivation
//! is a pure function of them, which makes the run coordination-free.
//! Every process runs the same self-healing loop (`atom_bench::heal`):
//! rounds run in batches (`--batch`, default all of `--rounds` in one),
//! each opened by a plan/ack/go handshake, so a lost member is evicted and
//! its groups re-formed rather than failing the run. `docs/operations.md`
//! is the operator guide: the flag-agreement rules, the
//! `atom-process-ready` readiness line, `--sharded` (distributed round
//! setup), `--batch` / `--honest` / `--rejoin` (failure and recovery), and
//! the coordinator's `--out` (canonical round outputs, which the TCP
//! equivalence tests diff byte-for-byte), `--trace` and `--metrics-out`
//! files.
//!
//! This binary is only a name for the fleet process: its flags are
//! `netbench::NodeArgs` and its run is `netbench::run_node`, which the
//! `throughput` and `recovery` harnesses also run when they re-execute
//! themselves as fleet members. A flag error exits with status 2, a failed
//! run with 1.

fn main() {
    std::process::exit(atom_bench::netbench::node_main(std::env::args().skip(1)));
}
