//! # atom-net
//!
//! Transport substrate for the Rust reproduction of *Atom: Horizontally
//! Scaling Strong Anonymity* (SOSP 2017).
//!
//! The paper deploys Atom on 1,024 EC2 machines talking TLS with 40–160 ms
//! of injected pairwise latency and a Tor-derived bandwidth distribution
//! (§6). This crate abstracts the wire behind the [`Transport`] trait — six
//! operations that move addressed opaque bytes into a mailbox per node and
//! wake the scheduler through a delivery hook — with two backends over one
//! shared mailbox core:
//!
//! * [`transport::InMemoryNetwork`] — every node in one process.
//! * [`tcp::TcpTransport`] — nodes partitioned across OS processes; the
//!   same envelopes travel as client frames over TCP, received by one
//!   `epoll` loop thread per process (layout in the [`tcp`] module docs).
//!   A send to an unreachable peer process returns a [`SendError`] value.
//!
//! [`FaultyTransport`] wraps either backend with one rule per send: a slow
//! server is a delay where its frames leave, a dead one an unreachable
//! send.
//!
//! The carrier keeps no protocol state: traffic is counted by the runtime's
//! `RoundReport` and the `net.*` counters of `atom_obs`, so the counts are
//! identical across backends.
//!
//! [`evloop`] is the one network I/O model under both edges: a
//! single-threaded readiness loop ([`evloop::EventLoop`]) parked in
//! `epoll(7)` that multiplexes thousands of non-blocking connections — the
//! client edge's submissions in and acks out, with write backpressure and
//! idle conviction, and the server mesh's peer frames.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod evloop;
pub mod tcp;
mod transport;

pub use evloop::{
    client_frame, read_client_frame, CloseReason, ConnId, Event, EventLoop, EvloopOptions, Waker,
};
pub use tcp::{Dial, TcpOptions, TcpTransport};
pub use transport::{
    Envelope, FaultyTransport, InMemoryNetwork, NodeId, SendError, SendFault, Transport,
};
