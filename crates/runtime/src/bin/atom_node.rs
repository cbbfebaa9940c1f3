//! `atom-node` — one process of a multi-process Atom deployment. This
//! binary is only a name for the fleet process: its flags are
//! `fleet::NodeArgs` and its program is `fleet::node_main`, which the
//! `recovery` harness also runs when it re-executes itself as fleet
//! processes. A flag error exits with status 2, a failed run with 1.
//! `docs/operations.md` is the operator guide: loopback runs, the
//! flag-agreement rules, the readiness line, failure and recovery, and the
//! coordinator's output files.

fn main() {
    std::process::exit(atom_runtime::fleet::node_main(std::env::args().skip(1)));
}
