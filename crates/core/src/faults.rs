//! Buddy-group escrow and catastrophic-failure recovery (§4.5).
//!
//! Threshold ("many-trust") groups already survive up to `h − 1` member
//! failures without any recovery machinery: the remaining `k − (h−1)` members
//! simply run the round with Lagrange-weighted shares. This module covers the
//! *worse* case. When a group is formed, every member secret-shares its DKG
//! share with the members of each buddy group. If more than `h − 1` members
//! of a group later fail, a freshly formed anytrust group collects the escrow
//! from one (live) buddy group and reconstructs the lost members' shares, so
//! the group key survives and the round can continue.

use rand::rngs::StdRng;
use rand::{CryptoRng, RngCore, SeedableRng};
use serde::{Deserialize, Serialize};

use atom_crypto::dkg::DkgShare;
use atom_crypto::sharing::{reconstruct, split, Share};
use atom_crypto::Scalar;

use crate::directory::{setup_stream_seed, GroupContext, RoundSetup};
use crate::error::{AtomError, AtomResult};

/// Escrow of one group's key shares with one buddy group.
///
/// `per_member[p][b]` is the sub-share of member `p`'s DKG share that is held
/// by buddy-group member `b`.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct BuddyEscrow {
    /// The group whose shares are escrowed.
    pub group: usize,
    /// The buddy group holding the escrow.
    pub buddy_group: usize,
    /// Sub-shares, indexed by (member position, buddy member position).
    pub per_member: Vec<Vec<Share>>,
    /// Number of buddy members needed to reconstruct a share.
    pub threshold: usize,
}

/// Splits every member's DKG share of `group` among the members of
/// `buddy_group`.
///
/// The reconstruction threshold is the full buddy-group size: since the buddy
/// group is anytrust (all but one member may be malicious), any smaller
/// threshold would let the adversary reconstruct the shares.
pub fn escrow_group_shares<R: RngCore + CryptoRng>(
    group: &GroupContext,
    buddy_group: &GroupContext,
    rng: &mut R,
) -> AtomResult<BuddyEscrow> {
    let buddy_size = buddy_group.members.len();
    let mut per_member = Vec::with_capacity(group.shares.len());
    for share in &group.shares {
        let sub_shares =
            split(share.secret_share, buddy_size, buddy_size, rng).map_err(AtomError::Crypto)?;
        per_member.push(sub_shares);
    }
    Ok(BuddyEscrow {
        group: group.id,
        buddy_group: buddy_group.id,
        per_member,
        threshold: buddy_size,
    })
}

/// Reconstructs the DKG share of `member_position` (0-based) from the escrow.
///
/// In a deployment the members of a *newly formed* anytrust group would each
/// fetch one sub-share from the buddy group and jointly reconstruct; here the
/// reconstruction is done directly, which is equivalent for correctness.
fn recover_member_share(escrow: &BuddyEscrow, member_position: usize) -> AtomResult<Scalar> {
    let sub_shares = escrow
        .per_member
        .get(member_position)
        .ok_or_else(|| AtomError::Malformed("no escrow for that member".into()))?;
    reconstruct(&sub_shares[..escrow.threshold]).map_err(AtomError::Crypto)
}

/// Rebuilds a [`GroupContext`] after a catastrophic failure by recovering the
/// failed members' shares from a buddy escrow and handing them to replacement
/// servers.
///
/// `replacements` maps each failed member position to the global id of the
/// server taking over that slot.
pub fn recover_group(
    group: &GroupContext,
    escrow: &BuddyEscrow,
    replacements: &[(usize, usize)],
) -> AtomResult<GroupContext> {
    if escrow.group != group.id {
        return Err(AtomError::Malformed(format!(
            "escrow is for group {} not {}",
            escrow.group, group.id
        )));
    }
    let mut recovered = group.clone();
    for &(position, new_server) in replacements {
        if position >= group.members.len() {
            return Err(AtomError::Malformed(format!(
                "member position {position} out of range"
            )));
        }
        let secret = recover_member_share(escrow, position)?;
        if secret != group.shares[position].secret_share {
            return Err(AtomError::Malformed(
                "recovered share does not match the escrowed share".into(),
            ));
        }
        let mut share: DkgShare = group.shares[position].clone();
        share.secret_share = secret;
        recovered.shares[position] = share;
        recovered.members[position] = new_server;
    }
    Ok(recovered)
}

/// Beacon tweak separating the escrow sub-share streams from the setup
/// streams, so escrow randomness can be re-derived by any process without
/// perturbing the DKGs.
const ESCROW_BEACON_TWEAK: u64 = 0x6573_6372_6F77; // "escrow"

/// The deterministic RNG the escrow of group `gid` draws its sub-shares
/// from. In a deployment each member splits its own share with fresh local
/// randomness at group-formation time; this reproduction derives the escrow
/// from a dedicated beacon stream so every surviving process reconstructs
/// the identical [`BuddyEscrow`] when recovery is needed — escrow recovery
/// stays byte-deterministic across the fleet.
fn escrow_stream_rng(config: &crate::config::AtomConfig, gid: usize) -> StdRng {
    StdRng::seed_from_u64(setup_stream_seed(
        config.beacon_seed ^ ESCROW_BEACON_TWEAK,
        config.round,
        gid as u64,
    ))
}

/// Heals group `gid` of `setup` after a catastrophic failure: when more
/// than `h − 1` members are in `failed_servers`, the group cannot reach its
/// `k − (h−1)` decryption threshold by Lagrange reweighting alone, so the
/// failed members' DKG shares are reconstructed from the buddy-group escrow
/// (§4.5) and handed to replacement servers drawn from the buddy group.
///
/// Pure function of `(setup, failed_servers)`: the escrow is re-derived
/// from the beacon stream, the buddy group is `buddies[gid][0]`, and
/// replacements are the first live buddy members not already in the group —
/// every surviving process computes the identical recovered context.
pub fn heal_group_via_escrow(
    setup: &RoundSetup,
    gid: usize,
    failed_servers: &[usize],
) -> AtomResult<GroupContext> {
    let group = setup
        .groups
        .get(gid)
        .ok_or_else(|| AtomError::Malformed(format!("no group {gid} to heal")))?;
    let buddy_gid = *setup
        .buddies
        .get(gid)
        .and_then(|buddies| buddies.first())
        .ok_or_else(|| AtomError::Malformed(format!("group {gid} has no buddy group")))?;
    let buddy = &setup.groups[buddy_gid];

    let failed_positions: Vec<usize> = group
        .members
        .iter()
        .enumerate()
        .filter(|(_, server)| failed_servers.contains(server))
        .map(|(position, _)| position)
        .collect();
    let mut replacements = Vec::with_capacity(failed_positions.len());
    let mut candidates = buddy
        .members
        .iter()
        .copied()
        .filter(|server| !failed_servers.contains(server) && !group.members.contains(server));
    for &position in &failed_positions {
        let replacement = candidates.next().ok_or(AtomError::TooManyFailures {
            group: gid,
            failed: failed_positions.len(),
            tolerated: group.members.len() - group.threshold,
        })?;
        replacements.push((position, replacement));
    }

    let escrow = escrow_group_shares(group, buddy, &mut escrow_stream_rng(&setup.config, gid))?;
    recover_group(group, &escrow, &replacements)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::AtomConfig;
    use crate::directory::derive_setup;
    use crate::group::{group_mix_iteration, GroupStepOptions};
    use crate::message::{nizk_payload_len, MixPayload};
    use atom_crypto::elgamal::encrypt_message;
    use atom_crypto::encoding::encode_message_padded;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn rng() -> StdRng {
        StdRng::seed_from_u64(8686)
    }

    #[test]
    fn escrow_recovers_every_member_share() {
        let mut rng = rng();
        let config = AtomConfig::test_default();
        let setup = derive_setup(&config).unwrap();
        let group = &setup.groups[0];
        let buddy = &setup.groups[setup.buddies[0][0]];
        let escrow = escrow_group_shares(group, buddy, &mut rng).unwrap();
        for (position, share) in group.shares.iter().enumerate() {
            assert_eq!(
                recover_member_share(&escrow, position).unwrap(),
                share.secret_share
            );
        }
        assert!(recover_member_share(&escrow, 10).is_err());
    }

    #[test]
    fn partial_escrow_does_not_reveal_shares() {
        let mut rng = rng();
        let config = AtomConfig::test_default();
        let setup = derive_setup(&config).unwrap();
        let group = &setup.groups[0];
        let buddy = &setup.groups[setup.buddies[0][0]];
        let escrow = escrow_group_shares(group, buddy, &mut rng).unwrap();
        // A strict subset of the buddy group learns nothing useful.
        let partial = reconstruct(&escrow.per_member[0][..escrow.threshold - 1]).unwrap();
        assert_ne!(partial, group.shares[0].secret_share);
    }

    #[test]
    fn recovered_group_can_still_decrypt() {
        let mut rng = rng();
        let mut config = AtomConfig::test_default();
        config.required_honest = 2; // threshold 2-of-3: tolerate one failure.
        let setup = derive_setup(&config).unwrap();
        let group = &setup.groups[0];
        let buddy = &setup.groups[setup.buddies[0][0]];
        let escrow = escrow_group_shares(group, buddy, &mut rng).unwrap();

        // Two of three members fail — more than the group can tolerate.
        let failed = vec![group.members[0], group.members[1]];
        assert!(group.participating(&failed).is_err());

        // Recovery: replacement servers 100 and 101 take over the failed
        // slots using shares recovered from the buddy escrow.
        let recovered = recover_group(group, &escrow, &[(0, 100), (1, 101)]).unwrap();
        assert_eq!(recovered.members[0], 100);
        assert_eq!(recovered.public_key, group.public_key);

        // The recovered group processes a batch end to end.
        let padded_len = nizk_payload_len(config.message_len);
        let payload = MixPayload::Plaintext(b"recovered".to_vec())
            .to_bytes(padded_len)
            .unwrap();
        let points = encode_message_padded(&payload, padded_len).unwrap();
        let batch = vec![encrypt_message(&recovered.public_key, &points, &mut rng).0];
        let participating = recovered.participating(&[]).unwrap();
        let output = group_mix_iteration(
            &recovered,
            &participating,
            batch,
            &[],
            padded_len,
            &GroupStepOptions::new(config.defense),
            None,
            &mut rng,
        )
        .unwrap();
        match MixPayload::from_bytes(&output.plaintexts[0]).unwrap() {
            MixPayload::Inner(content) => assert_eq!(content, b"recovered"),
            other => panic!("unexpected payload {other:?}"),
        }
    }

    #[test]
    fn heal_group_via_escrow_is_deterministic_and_complete() {
        let mut config = AtomConfig::test_default();
        config.required_honest = 2; // tolerate one failure; two is catastrophic
        let setup = derive_setup(&config).unwrap();
        let group = &setup.groups[0];

        // More members fail than Lagrange reweighting can absorb.
        let failed = vec![group.members[0], group.members[1]];
        assert!(group.participating(&failed).is_err());

        let healed = heal_group_via_escrow(&setup, 0, &failed).unwrap();
        // Same key, failed slots handed to live buddy-group servers.
        assert_eq!(healed.public_key, group.public_key);
        assert!(!failed.contains(&healed.members[0]));
        assert!(!failed.contains(&healed.members[1]));
        assert_eq!(healed.members[2], group.members[2]);
        assert!(healed.participating(&failed).is_ok());

        // Every process derives the identical recovered context: the escrow
        // randomness comes from the beacon stream, not a caller RNG.
        let again = heal_group_via_escrow(&setup, 0, &failed).unwrap();
        assert_eq!(again.members, healed.members);
        for (a, b) in again.shares.iter().zip(&healed.shares) {
            assert_eq!(a.secret_share, b.secret_share);
        }

        // Exhausting the buddy group's live members is still an error.
        let buddy = &setup.groups[setup.buddies[0][0]];
        let mut everyone = failed.clone();
        everyone.extend_from_slice(&buddy.members);
        assert!(matches!(
            heal_group_via_escrow(&setup, 0, &everyone),
            Err(AtomError::TooManyFailures { .. })
        ));
    }

    #[test]
    fn mismatched_escrow_rejected() {
        let mut rng = rng();
        let config = AtomConfig::test_default();
        let setup = derive_setup(&config).unwrap();
        let escrow = escrow_group_shares(&setup.groups[0], &setup.groups[1], &mut rng).unwrap();
        assert!(recover_group(&setup.groups[2], &escrow, &[(0, 50)]).is_err());
        assert!(recover_group(&setup.groups[0], &escrow, &[(9, 50)]).is_err());
    }
}
