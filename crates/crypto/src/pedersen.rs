//! Pedersen commitments used by the verifiable-shuffle argument.

use curve25519_dalek::constants::RISTRETTO_BASEPOINT_POINT;
use curve25519_dalek::ristretto::RistrettoPoint;
use curve25519_dalek::scalar::Scalar;
use rand::{CryptoRng, RngCore};

use crate::keccak::Shake256;

/// Derives an independent generator by hashing a label to the group.
///
/// `RistrettoPoint::from_uniform_bytes` maps the hash output uniformly onto
/// the group, so nobody knows the discrete log of the result with respect to
/// the basepoint.
pub fn derive_generator(label: &[u8]) -> RistrettoPoint {
    let mut xof = Shake256::new();
    xof.absorb(b"atom-pedersen-generator");
    xof.absorb(&(label.len() as u64).to_le_bytes());
    xof.absorb(label);
    let mut wide = [0u8; 64];
    xof.squeeze(&mut wide);
    RistrettoPoint::from_uniform_bytes(&wide)
}

/// Commitment key: the pair of generators `(G, H)`.
#[derive(Clone, Copy, Debug)]
pub struct CommitmentKey {
    /// Value generator (the Ristretto basepoint).
    pub g: RistrettoPoint,
    /// Blinding generator (nothing-up-my-sleeve derived).
    pub h: RistrettoPoint,
}

impl Default for CommitmentKey {
    fn default() -> Self {
        Self::atom()
    }
}

impl CommitmentKey {
    /// The fixed commitment key used throughout Atom's shuffle proofs.
    pub fn atom() -> Self {
        Self {
            g: RISTRETTO_BASEPOINT_POINT,
            h: derive_generator(b"shuffle-blinding-H"),
        }
    }

    /// Commits to `value` with blinding factor `blinding`.
    pub fn commit(&self, value: &Scalar, blinding: &Scalar) -> RistrettoPoint {
        // Both generators are fixed for the lifetime of the process, so the
        // precomputed comb tables make this two fixed-base exponentiations.
        crate::batch::mul_fixed(&self.g, value) + crate::batch::mul_fixed(&self.h, blinding)
    }

    /// Commits to `value` with fresh randomness, returning the blinding.
    pub fn commit_random<R: RngCore + CryptoRng>(
        &self,
        value: &Scalar,
        rng: &mut R,
    ) -> (RistrettoPoint, Scalar) {
        let blinding = Scalar::random(rng);
        (self.commit(value, &blinding), blinding)
    }

    /// Verifies an opening of a commitment.
    pub fn verify_opening(
        &self,
        commitment: &RistrettoPoint,
        value: &Scalar,
        blinding: &Scalar,
    ) -> bool {
        self.commit(value, blinding) == *commitment
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn commitment_opens_correctly() {
        let mut rng = StdRng::seed_from_u64(1);
        let key = CommitmentKey::atom();
        let value = Scalar::from(42u64);
        let (commitment, blinding) = key.commit_random(&value, &mut rng);
        assert!(key.verify_opening(&commitment, &value, &blinding));
        assert!(!key.verify_opening(&commitment, &Scalar::from(43u64), &blinding));
    }

    #[test]
    fn commitment_is_hiding_under_fresh_randomness() {
        let mut rng = StdRng::seed_from_u64(2);
        let key = CommitmentKey::atom();
        let value = Scalar::from(7u64);
        let (c1, _) = key.commit_random(&value, &mut rng);
        let (c2, _) = key.commit_random(&value, &mut rng);
        assert_ne!(c1, c2);
    }

    #[test]
    fn commitment_is_homomorphic() {
        let key = CommitmentKey::atom();
        let (a, ra) = (Scalar::from(3u64), Scalar::from(11u64));
        let (b, rb) = (Scalar::from(9u64), Scalar::from(13u64));
        let sum = key.commit(&a, &ra) + key.commit(&b, &rb);
        assert!(key.verify_opening(&sum, &(a + b), &(ra + rb)));
    }

    #[test]
    fn derived_generators_differ_per_label() {
        assert_ne!(derive_generator(b"a"), derive_generator(b"b"));
        assert_ne!(derive_generator(b"a"), RISTRETTO_BASEPOINT_POINT);
    }

    #[test]
    fn derived_generator_is_deterministic() {
        assert_eq!(
            derive_generator(b"shuffle-blinding-H"),
            CommitmentKey::atom().h
        );
    }
}
