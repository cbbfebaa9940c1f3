//! # atom-sim
//!
//! Calibrated large-scale simulation of Atom deployments, reproducing the
//! methodology the paper itself uses for its biggest experiment (Fig. 11:
//! "we modified the implementation to model the expected latency given ...
//! the values shown in Table 3").
//!
//! * [`PrimitiveCosts`] — primitive cost models: the paper's Table 3 numbers or
//!   numbers measured on this machine.
//! * [`deployment`] — end-to-end round-latency estimation for arbitrary
//!   deployment sizes, including the large-scale overhead terms that make
//!   the speed-up sub-linear beyond ~2¹⁰ servers, and the closed-form
//!   Riposte and Vuvuzela/Alpenhorn latency models Table 12 compares against.
//! * [`latency`] — the §6 server-class mix the deployment model draws from.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod costs;
pub mod deployment;
pub mod latency;

pub use costs::PrimitiveCosts;
pub use deployment::{estimate_round, speedup, DeploymentSpec, RoundEstimate};
