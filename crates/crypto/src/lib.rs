//! # atom-crypto
//!
//! Cryptographic substrate for the Rust reproduction of
//! *Atom: Horizontally Scaling Strong Anonymity* (SOSP 2017).
//!
//! This crate implements everything from §2.3 and Appendix A of the paper:
//!
//! * [`elgamal`] — rerandomizable ElGamal with **out-of-order decryption and
//!   re-encryption**, the key primitive that lets a group peel its layers
//!   while already re-encrypting toward the next (unknown-to-the-user) group.
//! * [`batch`] — the batched public-key engine: precomputed fixed-base
//!   tables, Straus multi-exponentiation, and random-linear-combination
//!   batch verification of `EncProof`/`ShufProof` with per-proof fallback.
//! * [`nizk`] — the three NIZK families the paper requires: `EncProof`,
//!   `ReEncProof` and `ShufProof` (verifiable shuffle).
//! * [`dkg`] / [`sharing`] — dealer-less distributed key generation and
//!   threshold ElGamal for anytrust and many-trust groups (§4.1, §4.5).
//! * [`cca2`] — IND-CCA2 hybrid encryption for trap-variant inner
//!   ciphertexts (§4.4).
//! * [`commit`] — SHA-3 commitments for trap messages.
//! * [`encoding`] — embedding byte messages into group elements.
//! * [`keccak`], `aead` — SHA-3/SHAKE256 and ChaCha20-Poly1305 implemented
//!   from scratch.
//! * `pedersen`, `transcript` — vector Pedersen commitments and the
//!   Fiat-Shamir transcript used by the proofs.
//!
//! The group is Ristretto255 (`curve25519-dalek`) where the paper uses NIST
//! P-256; in this offline build the crate is a vendored stand-in over a
//! different prime-order group — see the header of
//! `vendor/curve25519-dalek/src/lib.rs` and ARCHITECTURE.md.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod aead;
pub mod batch;
pub mod cca2;
pub mod commit;
pub mod dkg;
pub mod elgamal;
pub mod encoding;
mod error;
pub mod keccak;
pub mod nizk;
mod pedersen;
pub mod sharing;
mod transcript;

pub use curve25519_dalek::ristretto::RistrettoPoint;
pub use curve25519_dalek::scalar::Scalar;

pub use elgamal::{Ciphertext, KeyPair, MessageCiphertext, PublicKey, SecretKey};
pub use error::CryptoError;
