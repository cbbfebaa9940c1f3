//! # atom-runtime
//!
//! The parallel group-actor execution engine for the Atom reproduction:
//! anytrust groups run as actors on a scoped worker pool, exchanging
//! serialized sub-batches through [`atom_net::Transport`] envelopes, with
//! **barrier-free pipelined mixing** within a round and **multiple rounds
//! in flight** across rounds. This is the subsystem that lets the
//! reproduction exhibit the paper's headline property — horizontal scaling —
//! instead of executing every group on one thread with a hard barrier
//! between iterations. It is the one round driver: the apps, the examples,
//! the fleet binaries and the benchmark all run their rounds here, and the
//! sequential `atom_core::round::RoundDriver` is kept only as the oracle
//! the equivalence suites diff the engine against.
//!
//! The engine is transport-generic: [`Engine::run_rounds`] runs every group
//! in-process over an [`atom_net::InMemoryNetwork`], while
//! [`Engine::run_rounds_on`] accepts any [`atom_net::Transport`] plus an
//! [`EngineRole`], so the *same* engine hosts a subset of the groups in
//! each of several OS processes connected by
//! [`atom_net::TcpTransport`] — the multi-process mode of [`fleet`], the
//! fleet process the `atom-node` binary runs. For equal jobs and seeds the
//! coordinator's [`RoundOutput`](atom_core::round::RoundOutput) is
//! byte-identical across transports and process layouts.
//!
//! ## Architecture
//!
//! ```text
//!                         ┌────────────────────────────┐
//!   RoundJob (seed,       │          Engine            │
//!   setup, submissions) ─▶│  task queue + worker pool  │
//!                         └─────┬───────────────┬──────┘
//!             Intake(round)     │               │    Deliver(node)
//!        verify proofs, inject  │               │  drain mailbox, step actor
//!                               ▼               ▼
//!   ┌─────────────┐  wire::encode_mix ┌──────────────────────────┐
//!   │ orchestrator│ ────────────────▶ │   Transport mailboxes    │
//!   │ (node G, on │     envelopes     │  one per group id (0..G) │
//!   │ coordinator)│ ◀──────────────── │  in-memory or TCP frames │
//!   └─────────────┘ wire::encode_exit └──────┬───────────▲───────┘
//!                                            │ drain     │ send
//!                                            ▼           │
//!                              ┌─────────────────────────┴─┐
//!                              │ GroupActor (per round×gid) │
//!                              │  · buffers sub-batches     │
//!                              │  · steps iteration i once  │
//!                              │    all inputs arrived      │
//!                              │  · per-group RNG stream    │
//!                              │  · virtual-clock tracking  │
//!                              └──────────┬─────────────────┘
//!                                         │ Exit frames
//!                                         ▼
//!                       finish_{nizk,trap}_round → RoundReport
//! ```
//!
//! **Pipeline stages.** A round flows through: directory setup (group
//! formation + per-group DKGs — prebuilt, or derived *inside* the run and
//! sharded across processes via [`RoundDirectory::Sharded`]) → submission
//! intake (proof verification, batching) → iteration 0 → … → iteration T−1
//! (exit layer) → exit phase (trap checking / decryption). Every stage is a
//! queue task, so the pool interleaves: group 3 of round 0 can run
//! iteration 4 while group 1 is still on iteration 2, round 1's intake
//! verifies proofs while round 0 mixes, and round 1's DKGs run during
//! round 0's mixing tail. The per-iteration barrier of the sequential
//! driver exists nowhere; a group only waits for *its own* inbound
//! sub-batches.
//!
//! **Determinism.** All round randomness derives from `RoundJob::seed`;
//! each group actor owns the stream `group_stream_seed(master, round, gid)`
//! and batch assembly orders inbound sub-batches by sender id, so scheduling
//! cannot influence output bytes. For equal seeds the engine is
//! byte-equivalent to [`atom_core::round::RoundDriver`] — asserted by the
//! `runtime_equivalence` integration suite.
//!
//! **Accounting.** The transport only transports: the engine counts each
//! mix envelope as it encodes it and reports per-round message and byte
//! counts ([`RoundReport`]). Latency is tracked on two models: the barrier
//! model (`RoundTimings::end_to_end`, matching the sequential driver and
//! Fig. 9–11) and the pipelined model (the virtual-clock time of the latest
//! group exit), whose gap quantifies what the barrier costs. Both clocks
//! carry compute only: no simulated §6 link time is charged anywhere (the
//! deployment simulator in `atom-sim` models links instead).
//!
//! ## Example
//!
//! ```
//! use atom_runtime::{Engine, RoundJob, RoundSubmissions};
//! use atom_core::config::AtomConfig;
//! use atom_core::directory::derive_setup;
//! use atom_core::message::make_trap_submission;
//! use rand::rngs::StdRng;
//! use rand::SeedableRng;
//!
//! let mut rng = StdRng::seed_from_u64(7);
//! let mut config = AtomConfig::test_default();
//! config.message_len = 24;
//! let setup = derive_setup(&config).unwrap();
//! let (round, length, trustees) = (config.round, config.message_len, &setup.trustees);
//! let mut submissions = Vec::new();
//! for (i, msg) in ["hello", "world"].iter().enumerate() {
//!     let (gid, text) = (i % config.num_groups, msg.as_bytes());
//!     let group = &setup.groups[gid].public_key;
//!     let made = make_trap_submission(gid, group, &trustees.public_key, round, text, length, &mut rng);
//!     submissions.push(made.unwrap().0);
//! }
//!
//! let engine = Engine::with_workers(2);
//! let report = engine
//!     .run_round(RoundJob::new(setup, RoundSubmissions::Trap(submissions.clone()), 7))
//!     .unwrap();
//! assert_eq!(report.output.plaintexts.len(), 2);
//!
//! // One config names one deployment: derived inside the run instead of
//! // prebuilt, the same round delivers the same bytes in the same order.
//! let sharded = engine
//!     .run_round(RoundJob::sharded(config, RoundSubmissions::Trap(submissions), 7))
//!     .unwrap();
//! assert_eq!(sharded.output.plaintexts, report.output.plaintexts);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod engine;
pub mod fault;
mod fill_vec;
pub mod fleet;
pub mod ingress;
mod recovery;
pub mod wire;

pub use engine::{
    Engine, EngineOptions, EngineRole, RoundCompleteHook, RoundDirectory, RoundJob, RoundReport,
    RoundSubmissions, SubmissionBlock, SubmissionSource, MIX_LABEL, SETUP_LABEL,
};
pub use fault::{FaultKind, FaultVerdict};
pub use ingress::{
    Admission, AdmissionQueue, IngressOptions, IngressServer, IngressSource, IngressStats,
    TokenBucket,
};

#[cfg(test)]
/// Recording is process-global, so the tests of this crate that reset it or
/// read back what it recorded hold this.
static OBS_LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());
