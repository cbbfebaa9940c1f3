//! # atom-core
//!
//! The Atom anonymous-messaging protocol (SOSP 2017), reproduced in Rust on
//! top of [`atom_crypto`] and [`atom_topology`]. It moves no bytes itself:
//! the transports live in `atom_net`, below the `atom_runtime` engine.
//!
//! An Atom deployment consists of hundreds or thousands of servers organized
//! into *anytrust groups* connected by a random permutation network. Users
//! submit encrypted messages to an entry group of their choice; each group
//! collectively shuffles, splits and re-encrypts its batch toward its
//! neighbours; after `T` iterations the exit groups reveal the anonymized
//! plaintexts. Two defences against actively malicious servers are provided:
//! verifiable shuffles/decryption (the NIZK variant, §4.3) and trap messages
//! gated by a trustee group (the trap variant, §4.4).
//!
//! Module map:
//!
//! * [`config`] — deployment configuration (group sizes, topology, defence).
//! * [`directory`] — per-round setup: group formation, DKGs, trustees.
//! * [`message`] — client-side submissions and the mix-payload wire format.
//! * [`group`] — the group mixing protocol (Algorithms 1 and 2).
//! * [`actor`] — the per-group mixing state machine: an inbox that says
//!   when an iteration is complete ([`actor::GroupInbox`]) and a stepper
//!   that runs it ([`actor::GroupStepper`]) with a deterministic per-group
//!   RNG stream, which the `atom-runtime` engine drives from its worker
//!   pool.
//! * [`round`] — the round phases the engine calls into: submission
//!   verification, trap checking, trustee release. Also the sequential
//!   [`round::RoundDriver`], the oracle the equivalence suites diff the
//!   engine against.
//! * [`latency`] — the §6 server-class mix the deployment simulator draws
//!   from.
//! * [`adversary`] — active-attack injection used by tests and benches.
//! * [`blame`] — identification of malicious users after a disruption (§4.6).
//! * [`faults`] — buddy-group escrow and catastrophic-failure recovery (§4.5).
//!
//! ## Quick example
//!
//! A round's directory comes from its config alone, and clients encrypt to
//! it. Running the round is `atom_runtime::Engine`'s job (see that crate's
//! example); here the entry groups' intake check accepts the submissions.
//!
//! ```
//! use atom_core::config::AtomConfig;
//! use atom_core::directory::derive_setup;
//! use atom_core::message::make_trap_submission;
//! use atom_core::round::verify_trap_submissions;
//! use rand::rngs::StdRng;
//! use rand::SeedableRng;
//!
//! let mut rng = StdRng::seed_from_u64(7);
//! let mut config = AtomConfig::test_default();
//! config.message_len = 24;
//! let setup = derive_setup(&config).unwrap();
//!
//! let submissions: Vec<_> = ["hello", "world"]
//!     .iter()
//!     .enumerate()
//!     .map(|(i, msg)| {
//!         let gid = i % config.num_groups;
//!         make_trap_submission(
//!             gid,
//!             &setup.groups[gid].public_key,
//!             &setup.trustees.public_key,
//!             config.round,
//!             msg.as_bytes(),
//!             config.message_len,
//!             &mut rng,
//!         )
//!         .unwrap()
//!         .0
//!     })
//!     .collect();
//!
//! // Two ciphertexts (message and trap) per submission enter the network.
//! let intake = verify_trap_submissions(&setup, &submissions).unwrap();
//! assert_eq!(intake.batches.iter().map(Vec::len).sum::<usize>(), 4);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod actor;
pub mod adversary;
pub mod blame;
pub mod config;
pub mod directory;
pub mod error;
pub mod faults;
pub mod group;
pub mod latency;
pub mod message;
pub mod round;

pub use actor::{ActorConfig, ActorOutput, GroupInbox, GroupStepper, SOURCE};
pub use adversary::{AdversaryPlan, Misbehavior};
pub use config::{AtomConfig, Defense, TopologyKind};
pub use directory::{derive_setup, GroupContext, RoundSetup, TrusteeContext};
pub use error::{AtomError, AtomResult};
pub use message::{make_nizk_submission, make_trap_submission, NizkSubmission, TrapSubmission};
pub use round::{RoundOutput, RoundTimings};
