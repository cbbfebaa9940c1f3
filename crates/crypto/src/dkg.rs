//! Dealer-less distributed key generation (DVSS) for Atom's anytrust and
//! many-trust groups (§4.5, ref. \[67\] in the paper).
//!
//! Every group member acts as a dealer: it samples a random polynomial of
//! degree `threshold − 1`, broadcasts Feldman commitments to its
//! coefficients, and privately sends an evaluation ("share") to every other
//! member. Members verify received shares against the commitments and file
//! complaints against misbehaving dealers; honest dealings are aggregated by
//! summing. The group public key is the sum of the dealers' constant-term
//! commitments, and each member ends up with a Shamir share of the (never
//! materialized) group secret key.
//!
//! Threshold decryption: any `threshold` members can jointly peel the group
//! layer, each using its Lagrange-weighted share as the effective exponent,
//! which is exactly the `peel_secret` consumed by
//! [`crate::elgamal::reencrypt`]. For plain anytrust groups the threshold is
//! the full group size.

use curve25519_dalek::ristretto::RistrettoPoint;
use curve25519_dalek::scalar::Scalar;
use curve25519_dalek::traits::Identity;
use rand::{CryptoRng, RngCore};
use serde::{Deserialize, Serialize};

use crate::elgamal::PublicKey;
use crate::error::{CryptoError, CryptoResult};
use crate::sharing::{
    evaluate_commitments, lagrange_coefficient, reconstruct, verify_share, Polynomial, Share,
};

/// Group-size and threshold parameters for a DKG run.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct DkgParams {
    /// Number of participants `k`.
    pub participants: usize,
    /// Reconstruction threshold `t = k − (h − 1)` (shares needed to decrypt).
    pub threshold: usize,
}

impl DkgParams {
    /// Creates parameters, validating the threshold.
    pub fn new(participants: usize, threshold: usize) -> CryptoResult<Self> {
        if participants == 0 || threshold == 0 || threshold > participants {
            return Err(CryptoError::Parameter(format!(
                "invalid DKG parameters: {threshold}-of-{participants}"
            )));
        }
        Ok(Self {
            participants,
            threshold,
        })
    }

    /// Anytrust parameters: every member must participate (`t = k`).
    pub fn anytrust(participants: usize) -> CryptoResult<Self> {
        Self::new(participants, participants)
    }
}

/// A dealing broadcast by one participant: public Feldman commitments and the
/// private shares destined for each member (index `i + 1` for member `i`).
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct Dealing {
    /// 1-based index of the dealer.
    pub dealer: u64,
    /// Feldman commitments to the dealer's polynomial coefficients.
    pub commitments: Vec<RistrettoPoint>,
    /// Shares for members 1..=k (share `i` belongs to member index `i + 1`).
    pub shares: Vec<Share>,
}

/// Creates the dealing for participant `dealer_index` (1-based).
fn deal<R: RngCore + CryptoRng>(dealer_index: u64, params: &DkgParams, rng: &mut R) -> Dealing {
    let poly = Polynomial::random(Scalar::random(rng), params.threshold, rng);
    let commitments = poly.feldman_commitments();
    let shares = (1..=params.participants as u64)
        .map(|i| poly.share(i))
        .collect();
    Dealing {
        dealer: dealer_index,
        commitments,
        shares,
    }
}

/// A complaint filed by a member against a dealer whose share failed to
/// verify against its Feldman commitments.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
struct Complaint {
    /// The complaining member (1-based).
    pub member: u64,
    /// The accused dealer (1-based).
    pub dealer: u64,
}

/// Verifies the share destined for `member_index` inside a dealing.
fn verify_dealing_for(dealing: &Dealing, member_index: u64, params: &DkgParams) -> bool {
    if dealing.commitments.len() != params.threshold || dealing.shares.len() != params.participants
    {
        return false;
    }
    dealing
        .shares
        .iter()
        .find(|s| s.index == member_index)
        .map(|share| verify_share(share, &dealing.commitments))
        .unwrap_or(false)
}

/// Collects complaints from `member_index` against all invalid dealings.
fn complaints_for(dealings: &[Dealing], member_index: u64, params: &DkgParams) -> Vec<Complaint> {
    dealings
        .iter()
        .filter(|d| !verify_dealing_for(d, member_index, params))
        .map(|d| Complaint {
            member: member_index,
            dealer: d.dealer,
        })
        .collect()
}

/// The per-member output of a DKG run.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct DkgShare {
    /// The member's 1-based index.
    pub index: u64,
    /// The member's share of the group secret key.
    pub secret_share: Scalar,
    /// The group public key.
    pub group_public: PublicKey,
    /// Feldman verification keys for every member (`V_j = x_j · B`).
    pub verification_keys: Vec<RistrettoPoint>,
    /// The parameters the group was generated with.
    pub params: DkgParams,
}

impl DkgShare {
    /// The effective peeling exponent for this member when the set
    /// `participating` (1-based indices, including this member) runs the
    /// threshold decryption/re-encryption.
    pub fn peel_exponent(&self, participating: &[u64]) -> CryptoResult<Scalar> {
        let lambda = lagrange_coefficient(participating, self.index)?;
        Ok(lambda * self.secret_share)
    }

    /// The public verification key matching [`Self::peel_exponent`], which is
    /// what a `ReEncProof` is verified against.
    pub fn peel_verification_key(
        &self,
        participating: &[u64],
        member_index: u64,
    ) -> CryptoResult<RistrettoPoint> {
        let lambda = lagrange_coefficient(participating, member_index)?;
        Ok(lambda * self.verification_keys[(member_index - 1) as usize])
    }
}

/// Aggregates the valid dealings into the outputs of every member.
///
/// `disqualified` lists dealer indices excluded after the complaint round;
/// their dealings are ignored. At least one qualified dealing must remain.
fn aggregate(
    dealings: &[Dealing],
    params: &DkgParams,
    disqualified: &[u64],
) -> CryptoResult<Vec<DkgShare>> {
    let qualified: Vec<&Dealing> = dealings
        .iter()
        .filter(|d| !disqualified.contains(&d.dealer))
        .collect();
    if qualified.is_empty() {
        return Err(CryptoError::Sharing("no qualified dealings".into()));
    }
    for dealing in &qualified {
        if dealing.commitments.len() != params.threshold
            || dealing.shares.len() != params.participants
        {
            return Err(CryptoError::Sharing(format!(
                "dealing from {} has the wrong shape",
                dealing.dealer
            )));
        }
    }

    // Group public key: sum of constant-term commitments.
    let group_public = PublicKey(
        qualified
            .iter()
            .map(|d| d.commitments[0])
            .fold(RistrettoPoint::identity(), |acc, c| acc + c),
    );

    // Verification keys for every member.
    let verification_keys: Vec<RistrettoPoint> = (1..=params.participants as u64)
        .map(|index| {
            qualified
                .iter()
                .map(|d| evaluate_commitments(&d.commitments, index))
                .fold(RistrettoPoint::identity(), |acc, p| acc + p)
        })
        .collect();

    // Each member's aggregated share.
    let mut outputs = Vec::with_capacity(params.participants);
    for member in 1..=params.participants as u64 {
        let mut secret_share = Scalar::ZERO;
        for dealing in &qualified {
            let share = dealing
                .shares
                .iter()
                .find(|s| s.index == member)
                .ok_or_else(|| {
                    CryptoError::Sharing(format!(
                        "dealing from {} is missing a share for member {member}",
                        dealing.dealer
                    ))
                })?;
            if !verify_share(share, &dealing.commitments) {
                return Err(CryptoError::Sharing(format!(
                    "invalid share from dealer {} for member {member}",
                    dealing.dealer
                )));
            }
            secret_share += share.value;
        }
        outputs.push(DkgShare {
            index: member,
            secret_share,
            group_public,
            verification_keys: verification_keys.clone(),
            params: *params,
        });
    }
    Ok(outputs)
}

/// Runs a complete DKG among `params.participants` simulated members:
/// everyone deals, complaints are gathered, offending dealers are
/// disqualified, and the qualified dealings are aggregated.
pub fn run_dkg<R: RngCore + CryptoRng>(
    params: &DkgParams,
    rng: &mut R,
) -> CryptoResult<(PublicKey, Vec<DkgShare>)> {
    let dealings: Vec<Dealing> = (1..=params.participants as u64)
        .map(|i| deal(i, params, rng))
        .collect();
    let mut disqualified: Vec<u64> = Vec::new();
    for member in 1..=params.participants as u64 {
        for complaint in complaints_for(&dealings, member, params) {
            if !disqualified.contains(&complaint.dealer) {
                disqualified.push(complaint.dealer);
            }
        }
    }
    let shares = aggregate(&dealings, params, &disqualified)?;
    let group_public = shares[0].group_public;
    Ok((group_public, shares))
}

/// Reconstructs the group secret key from at least `threshold` member shares.
///
/// Used when trustees deliberately release their key shares at the end of a
/// trap-variant round (§4.4) and for buddy-group recovery tests.
pub fn reconstruct_group_secret(shares: &[&DkgShare]) -> CryptoResult<Scalar> {
    let plain: Vec<Share> = shares
        .iter()
        .map(|s| Share {
            index: s.index,
            value: s.secret_share,
        })
        .collect();
    reconstruct(&plain)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::elgamal::{decrypt, encrypt, reencrypt, SecretKey};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn rng() -> StdRng {
        StdRng::seed_from_u64(23)
    }

    #[test]
    fn params_validation() {
        assert!(DkgParams::new(4, 0).is_err());
        assert!(DkgParams::new(4, 5).is_err());
        assert!(DkgParams::new(0, 0).is_err());
        assert_eq!(DkgParams::anytrust(8).unwrap().threshold, 8);
    }

    #[test]
    fn dkg_produces_consistent_group_key() {
        let mut rng = rng();
        let params = DkgParams::new(5, 3).unwrap();
        let (group_public, shares) = run_dkg(&params, &mut rng).unwrap();
        for share in &shares {
            assert_eq!(share.group_public, group_public);
            assert_eq!(
                share.verification_keys[(share.index - 1) as usize],
                crate::elgamal::KeyPair::from_secret(share.secret_share)
                    .public
                    .0
            );
        }
        // Reconstructing from any threshold-sized subset matches the group key.
        let secret = reconstruct_group_secret(&shares.iter().take(3).collect::<Vec<_>>()).unwrap();
        assert_eq!(
            crate::elgamal::KeyPair::from_secret(secret).public,
            group_public
        );
    }

    #[test]
    fn threshold_decryption_via_lagrange_peeling() {
        let mut rng = rng();
        let params = DkgParams::new(5, 4).unwrap(); // 4-of-5
        let (group_public, shares) = run_dkg(&params, &mut rng).unwrap();

        let message = RistrettoPoint::random(&mut rng);
        let (ct, _) = encrypt(&group_public, &message, &mut rng);

        // Members 1, 2, 4, 5 participate (member 3 failed).
        let participating = [1u64, 2, 4, 5];
        let mut current = ct;
        for &index in &participating {
            let share = &shares[(index - 1) as usize];
            let exponent = share.peel_exponent(&participating).unwrap();
            let (next, _) = reencrypt(&exponent, None, &current, &mut rng);
            current = next;
        }
        assert_eq!(current.into_plaintext_point(), message);
    }

    #[test]
    fn anytrust_group_requires_all_members() {
        let mut rng = rng();
        let params = DkgParams::anytrust(4).unwrap();
        let (group_public, shares) = run_dkg(&params, &mut rng).unwrap();
        let message = RistrettoPoint::random(&mut rng);
        let (ct, _) = encrypt(&group_public, &message, &mut rng);

        // Full participation decrypts.
        let participating = [1u64, 2, 3, 4];
        let mut current = ct;
        for &index in &participating {
            let exponent = shares[(index - 1) as usize]
                .peel_exponent(&participating)
                .unwrap();
            let (next, _) = reencrypt(&exponent, None, &current, &mut rng);
            current = next;
        }
        assert_eq!(current.into_plaintext_point(), message);

        // A colluding strict subset cannot decrypt directly.
        let subset_secret: Scalar = shares[..3]
            .iter()
            .map(|s| lagrange_coefficient(&[1, 2, 3], s.index).unwrap() * s.secret_share)
            .sum();
        assert_ne!(decrypt(&SecretKey(subset_secret), &ct).unwrap(), message);
    }

    #[test]
    fn peel_verification_key_matches_exponent() {
        let mut rng = rng();
        let params = DkgParams::new(6, 4).unwrap();
        let (_, shares) = run_dkg(&params, &mut rng).unwrap();
        let participating = [1u64, 3, 4, 6];
        for &index in &participating {
            let share = &shares[(index - 1) as usize];
            let exponent = share.peel_exponent(&participating).unwrap();
            let expected = crate::elgamal::KeyPair::from_secret(exponent).public.0;
            let vk = shares[0]
                .peel_verification_key(&participating, index)
                .unwrap();
            assert_eq!(vk, expected);
        }
    }

    #[test]
    fn bad_dealer_is_detected_and_disqualified() {
        let mut rng = rng();
        let params = DkgParams::new(4, 3).unwrap();
        let mut dealings: Vec<Dealing> = (1..=4u64).map(|i| deal(i, &params, &mut rng)).collect();
        // Dealer 2 corrupts the share destined for member 3.
        dealings[1].shares[2].value += Scalar::ONE;

        let complaints = complaints_for(&dealings, 3, &params);
        assert_eq!(
            complaints,
            vec![Complaint {
                member: 3,
                dealer: 2
            }]
        );
        assert!(complaints_for(&dealings, 1, &params).is_empty());

        // Aggregating with the bad dealer present fails; excluding it works.
        assert!(aggregate(&dealings, &params, &[]).is_err());
        let shares = aggregate(&dealings, &params, &[2]).unwrap();
        assert_eq!(shares.len(), 4);
    }

    #[test]
    fn malformed_dealing_rejected() {
        let mut rng = rng();
        let params = DkgParams::new(4, 3).unwrap();
        let mut dealings: Vec<Dealing> = (1..=4u64).map(|i| deal(i, &params, &mut rng)).collect();
        dealings[0].shares.pop();
        assert!(!verify_dealing_for(&dealings[0], 4, &params));
        assert!(aggregate(&dealings, &params, &[]).is_err());
    }

    #[test]
    fn dealings_from_wrong_params_rejected() {
        let mut rng = rng();
        let params = DkgParams::new(4, 3).unwrap();
        let other = DkgParams::new(4, 2).unwrap();
        let dealings: Vec<Dealing> = (1..=4u64).map(|i| deal(i, &other, &mut rng)).collect();
        assert!(aggregate(&dealings, &params, &[]).is_err());
    }
}
