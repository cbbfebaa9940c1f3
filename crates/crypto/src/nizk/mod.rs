//! Non-interactive zero-knowledge proofs used by Atom (§2.3, Appendix A).
//!
//! Three proof systems are provided, matching the paper's interface:
//!
//! * [`enc`] — `EncProof`: proof of knowledge of the plaintext/randomness of
//!   a user-submitted ciphertext, bound to the entry group id so a proof
//!   cannot be replayed at a different group.
//! * [`reenc`] — `ReEncProof`: proof that a server correctly peeled its layer
//!   and re-encrypted toward the next group's key (Chaum-Pedersen style),
//!   one aggregated proof per server and sub-batch.
//! * [`shuffle`] — `ShufProof`: proof that a batch of ciphertexts was
//!   permuted and rerandomized correctly (the Bayer–Groth shuffle argument
//!   in its one-row layout standing in for Neff's shuffle; the module docs
//!   carry the substitution note). Verification is RLC-batched: one
//!   multiscalar equation settles a whole shuffle chain, and
//!   `crate::batch::verify_shuffle_batch` adds the per-proof fallback that
//!   names the failing member.

pub mod enc;
pub mod reenc;
pub mod shuffle;

pub use enc::{prove_encryption, verify_encryption, EncProof};
pub use reenc::{prove_reencryption, ReEncProof};
pub use shuffle::{prove_shuffle, verify_shuffle, ShuffleProof};
