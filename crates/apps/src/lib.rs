//! # atom-apps
//!
//! The two applications the Atom paper targets (§5), built on the public API
//! of [`atom_core`]. Each builds a round's submissions from its directory
//! ([`RoundSetup`](atom_core::directory::RoundSetup)) and reads the round's
//! [`RoundOutput`](atom_core::round::RoundOutput); the round itself runs on
//! `atom_runtime::Engine`:
//!
//! * [`microblog`] — anonymous microblogging: fixed-length posts are routed
//!   through Atom and published on a bulletin board.
//! * [`dialing`] — a Vuvuzela/Alpenhorn-style dialing protocol: users send
//!   sealed key-exchange requests to per-recipient mailboxes, with
//!   differentially-private dummy traffic hiding call volumes.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod dialing;
pub mod microblog;

pub use dialing::{DialIdentity, Mailboxes, PAPER_DIAL_LEN};
pub use microblog::{BulletinBoard, Post, PAPER_POST_LEN};
