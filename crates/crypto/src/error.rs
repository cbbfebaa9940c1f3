//! Error types for the Atom cryptographic substrate.

use std::fmt;

/// Errors produced by the cryptographic layer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CryptoError {
    /// AEAD or MAC authentication failed.
    AuthenticationFailed,
    /// A message could not be embedded into group elements.
    EncodingFailed(String),
    /// A group element did not decode to a valid message chunk.
    DecodingFailed(String),
    /// Attempted an operation that requires the auxiliary component `Y` to be
    /// absent (⊥), e.g. `Dec` or `Shuffle` on a partially re-encrypted
    /// ciphertext (Appendix A of the paper).
    UnexpectedAuxComponent,
    /// A zero-knowledge proof failed to verify.
    ProofInvalid(String),
    /// Secret-sharing or DKG failure (bad share, too few shares, ...).
    Sharing(String),
    /// Mismatched parameters (vector lengths, group sizes, ...).
    Parameter(String),
    /// Malformed serialized data.
    Malformed(String),
}

impl fmt::Display for CryptoError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CryptoError::AuthenticationFailed => write!(f, "authentication failed"),
            CryptoError::EncodingFailed(msg) => write!(f, "message encoding failed: {msg}"),
            CryptoError::DecodingFailed(msg) => write!(f, "message decoding failed: {msg}"),
            CryptoError::UnexpectedAuxComponent => {
                write!(f, "operation requires the auxiliary component Y to be ⊥")
            }
            CryptoError::ProofInvalid(msg) => write!(f, "proof invalid: {msg}"),
            CryptoError::Sharing(msg) => write!(f, "secret sharing error: {msg}"),
            CryptoError::Parameter(msg) => write!(f, "parameter error: {msg}"),
            CryptoError::Malformed(msg) => write!(f, "malformed data: {msg}"),
        }
    }
}

impl std::error::Error for CryptoError {}

/// Convenience result alias for crypto operations.
pub(crate) type CryptoResult<T> = Result<T, CryptoError>;
