//! Shamir secret sharing, Lagrange interpolation, and Feldman verifiable
//! secret sharing.
//!
//! These are the building blocks of Atom's threshold ("many-trust") groups
//! (§4.5): the DVSS-based distributed key generation in [`crate::dkg`] uses
//! Feldman commitments to verify dealt shares, threshold decryption uses
//! Lagrange coefficients, and buddy-group recovery re-shares each server's
//! share with Shamir.

use curve25519_dalek::constants::RISTRETTO_BASEPOINT_TABLE;
use curve25519_dalek::ristretto::RistrettoPoint;
use curve25519_dalek::scalar::Scalar;
use curve25519_dalek::traits::Identity;
use rand::{CryptoRng, RngCore};
use serde::{Deserialize, Serialize};

use crate::error::{CryptoError, CryptoResult};

/// A share of a secret, evaluated at a non-zero index.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct Share {
    /// The evaluation index (1-based; index 0 is the secret itself).
    pub index: u64,
    /// The share value `f(index)`.
    pub value: Scalar,
}

/// A random polynomial of degree `threshold − 1` with `f(0) = secret`.
#[derive(Clone, Debug)]
pub(crate) struct Polynomial {
    coefficients: Vec<Scalar>,
}

impl Polynomial {
    /// Samples a polynomial with the given constant term and threshold.
    pub(crate) fn random<R: RngCore + CryptoRng>(
        secret: Scalar,
        threshold: usize,
        rng: &mut R,
    ) -> Self {
        assert!(threshold >= 1, "threshold must be at least 1");
        let mut coefficients = Vec::with_capacity(threshold);
        coefficients.push(secret);
        for _ in 1..threshold {
            coefficients.push(Scalar::random(rng));
        }
        Self { coefficients }
    }

    /// Evaluates the polynomial at `index` (Horner's rule).
    fn evaluate(&self, index: u64) -> Scalar {
        let x = Scalar::from(index);
        let mut acc = Scalar::ZERO;
        for coeff in self.coefficients.iter().rev() {
            acc = acc * x + coeff;
        }
        acc
    }

    /// Produces the share for participant `index`.
    pub(crate) fn share(&self, index: u64) -> Share {
        Share {
            index,
            value: self.evaluate(index),
        }
    }

    /// Feldman commitments to every coefficient (`A_m = a_m · B`).
    pub(crate) fn feldman_commitments(&self) -> Vec<RistrettoPoint> {
        self.coefficients
            .iter()
            .map(|c| c * RISTRETTO_BASEPOINT_TABLE)
            .collect()
    }
}

/// Splits `secret` into `count` shares with the given reconstruction
/// threshold.
pub fn split<R: RngCore + CryptoRng>(
    secret: Scalar,
    threshold: usize,
    count: usize,
    rng: &mut R,
) -> CryptoResult<Vec<Share>> {
    if threshold == 0 || threshold > count {
        return Err(CryptoError::Sharing(format!(
            "invalid threshold {threshold} for {count} shares"
        )));
    }
    let poly = Polynomial::random(secret, threshold, rng);
    Ok((1..=count as u64).map(|i| poly.share(i)).collect())
}

/// Computes the Lagrange coefficient for `index` within the participating
/// set `indices`, evaluated at zero.
pub(crate) fn lagrange_coefficient(indices: &[u64], index: u64) -> CryptoResult<Scalar> {
    if !indices.contains(&index) {
        return Err(CryptoError::Sharing(format!(
            "index {index} is not in the participating set"
        )));
    }
    let mut numerator = Scalar::ONE;
    let mut denominator = Scalar::ONE;
    let xi = Scalar::from(index);
    for &other in indices {
        if other == index {
            continue;
        }
        let xj = Scalar::from(other);
        numerator *= xj;
        denominator *= xj - xi;
    }
    if denominator == Scalar::ZERO {
        return Err(CryptoError::Sharing("duplicate share indices".into()));
    }
    Ok(numerator * denominator.invert())
}

/// Computes the Lagrange coefficients for *every* index of the
/// participating set at once, with a single Fermat inversion for all
/// denominators (Montgomery's trick) instead of one per index. The result
/// is ordered like `indices`; duplicate indices are rejected.
fn lagrange_coefficients(indices: &[u64]) -> CryptoResult<Vec<Scalar>> {
    let mut sorted = indices.to_vec();
    sorted.sort_unstable();
    if sorted.windows(2).any(|w| w[0] == w[1]) {
        return Err(CryptoError::Sharing("duplicate share indices".into()));
    }
    let mut numerators = Vec::with_capacity(indices.len());
    let mut denominators = Vec::with_capacity(indices.len());
    for &index in indices {
        let xi = Scalar::from(index);
        let mut numerator = Scalar::ONE;
        let mut denominator = Scalar::ONE;
        for &other in indices {
            if other == index {
                continue;
            }
            let xj = Scalar::from(other);
            numerator *= xj;
            denominator *= xj - xi;
        }
        numerators.push(numerator);
        denominators.push(denominator);
    }
    let inverses = Scalar::batch_invert(&denominators);
    Ok(numerators
        .into_iter()
        .zip(inverses)
        .map(|(n, d)| n * d)
        .collect())
}

/// Reconstructs the secret from at least `threshold` distinct shares.
pub fn reconstruct(shares: &[Share]) -> CryptoResult<Scalar> {
    if shares.is_empty() {
        return Err(CryptoError::Sharing("no shares provided".into()));
    }
    let indices: Vec<u64> = shares.iter().map(|s| s.index).collect();
    let mut unique = indices.clone();
    unique.sort_unstable();
    unique.dedup();
    if unique.len() != indices.len() {
        return Err(CryptoError::Sharing("duplicate share indices".into()));
    }
    let mut secret = Scalar::ZERO;
    for (share, lambda) in shares.iter().zip(lagrange_coefficients(&indices)?) {
        secret += lambda * share.value;
    }
    Ok(secret)
}

/// Verifies a share against Feldman commitments:
/// `share.value · B == Σ_m index^m · A_m`.
pub(crate) fn verify_share(share: &Share, commitments: &[RistrettoPoint]) -> bool {
    let expected = evaluate_commitments(commitments, share.index);
    share.value * RISTRETTO_BASEPOINT_TABLE == expected
}

/// Evaluates Feldman commitments at `index`, yielding `f(index) · B` without
/// knowing the polynomial.
pub(crate) fn evaluate_commitments(commitments: &[RistrettoPoint], index: u64) -> RistrettoPoint {
    let x = Scalar::from(index);
    let mut acc = RistrettoPoint::identity();
    for commitment in commitments.iter().rev() {
        acc = x * acc + commitment;
    }
    acc
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn rng() -> StdRng {
        StdRng::seed_from_u64(17)
    }

    #[test]
    fn split_and_reconstruct_exact_threshold() {
        let mut rng = rng();
        let secret = Scalar::random(&mut rng);
        let shares = split(secret, 3, 5, &mut rng).unwrap();
        assert_eq!(reconstruct(&shares[..3]).unwrap(), secret);
        assert_eq!(reconstruct(&shares[1..4]).unwrap(), secret);
        assert_eq!(reconstruct(&shares).unwrap(), secret);
    }

    #[test]
    fn non_contiguous_share_subsets_reconstruct() {
        let mut rng = rng();
        let secret = Scalar::random(&mut rng);
        let shares = split(secret, 3, 7, &mut rng).unwrap();
        let subset = [shares[0], shares[3], shares[6]];
        assert_eq!(reconstruct(&subset).unwrap(), secret);
    }

    #[test]
    fn too_few_shares_yield_wrong_secret() {
        let mut rng = rng();
        let secret = Scalar::random(&mut rng);
        let shares = split(secret, 3, 5, &mut rng).unwrap();
        // With fewer than `threshold` shares, interpolation succeeds but does
        // not recover the secret (information-theoretic hiding).
        assert_ne!(reconstruct(&shares[..2]).unwrap(), secret);
    }

    #[test]
    fn duplicate_shares_rejected() {
        let mut rng = rng();
        let secret = Scalar::random(&mut rng);
        let shares = split(secret, 2, 3, &mut rng).unwrap();
        let duplicated = [shares[0], shares[0]];
        assert!(reconstruct(&duplicated).is_err());
    }

    #[test]
    fn invalid_threshold_rejected() {
        let mut rng = rng();
        assert!(split(Scalar::ONE, 0, 3, &mut rng).is_err());
        assert!(split(Scalar::ONE, 4, 3, &mut rng).is_err());
    }

    #[test]
    fn feldman_commitments_verify_honest_shares() {
        let mut rng = rng();
        let poly = Polynomial::random(Scalar::random(&mut rng), 4, &mut rng);
        let commitments = poly.feldman_commitments();
        for i in 1..=6u64 {
            assert!(verify_share(&poly.share(i), &commitments));
        }
    }

    #[test]
    fn feldman_commitments_reject_tampered_share() {
        let mut rng = rng();
        let poly = Polynomial::random(Scalar::random(&mut rng), 3, &mut rng);
        let commitments = poly.feldman_commitments();
        let mut share = poly.share(2);
        share.value += Scalar::ONE;
        assert!(!verify_share(&share, &commitments));
        let wrong_index = Share {
            index: 3,
            value: poly.share(2).value,
        };
        assert!(!verify_share(&wrong_index, &commitments));
    }

    #[test]
    fn lagrange_coefficients_sum_interpolates_constant() {
        // For a constant polynomial every share equals the secret, so the
        // Lagrange coefficients must sum to one.
        let indices = [1u64, 4, 9, 11];
        let sum: Scalar = indices
            .iter()
            .map(|&i| lagrange_coefficient(&indices, i).unwrap())
            .sum();
        assert_eq!(sum, Scalar::ONE);
    }

    #[test]
    fn lagrange_requires_membership() {
        assert!(lagrange_coefficient(&[1, 2, 3], 5).is_err());
    }

    #[test]
    fn batched_lagrange_matches_individual_coefficients() {
        let indices = [2u64, 5, 6, 9, 13];
        let batched = lagrange_coefficients(&indices).unwrap();
        for (&index, lambda) in indices.iter().zip(batched.iter()) {
            assert_eq!(*lambda, lagrange_coefficient(&indices, index).unwrap());
        }
        assert!(lagrange_coefficients(&[1, 1, 2]).is_err());
    }

    #[test]
    fn additive_shares_of_two_secrets_reconstruct_sum() {
        // Linearity: reconstructing component-wise sums of shares yields the
        // sum of the secrets. The DKG relies on this.
        let mut rng = rng();
        let s1 = Scalar::random(&mut rng);
        let s2 = Scalar::random(&mut rng);
        let sh1 = split(s1, 3, 5, &mut rng).unwrap();
        let sh2 = split(s2, 3, 5, &mut rng).unwrap();
        let combined: Vec<Share> = sh1
            .iter()
            .zip(sh2.iter())
            .map(|(a, b)| Share {
                index: a.index,
                value: a.value + b.value,
            })
            .collect();
        assert_eq!(reconstruct(&combined[..3]).unwrap(), s1 + s2);
    }
}
