//! # atom
//!
//! Umbrella crate for the Rust reproduction of
//! *Atom: Horizontally Scaling Strong Anonymity* (Kwon, Corrigan-Gibbs,
//! Devadas, Ford — SOSP 2017).
//!
//! This crate re-exports the workspace members so applications can depend on
//! a single crate:
//!
//! * [`crypto`] — rerandomizable ElGamal with out-of-order re-encryption,
//!   NIZKs (including the verifiable shuffle), DKG/threshold keys, CCA2
//!   hybrid encryption, SHA-3 and ChaCha20-Poly1305 from scratch.
//! * [`topology`] — permutation networks, group sizing and formation.
//! * [`net`] — the transport substrate: in-process mailboxes and TCP sockets.
//! * [`core`] — the Atom protocol: clients, groups, round phases, trustees,
//!   fault tolerance and blame.
//! * [`runtime`] — [`runtime::Engine`], which runs every round: parallel group
//!   actors, barrier-free pipelined mixing, several rounds in flight.
//! * [`apps`] — microblogging and dialing: they build a round's submissions
//!   from its directory and read the engine's output.
//! * [`baselines`] — simplified Riposte and Vuvuzela/Alpenhorn comparators.
//! * [`sim`] — the calibrated large-scale deployment simulator.
//!
//! See `examples/` for runnable end-to-end scenarios and `crates/bench` for
//! the per-table/figure reproduction harness.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use atom_apps as apps;
pub use atom_baselines as baselines;
pub use atom_core as core;
pub use atom_crypto as crypto;
pub use atom_net as net;
pub use atom_runtime as runtime;
pub use atom_sim as sim;
pub use atom_topology as topology;

pub use atom_core::{
    derive_setup, make_nizk_submission, make_trap_submission, AtomConfig, AtomError, AtomResult,
    Defense, RoundOutput, TopologyKind,
};
