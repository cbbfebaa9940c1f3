//! Round setup: the directory's view of servers, groups and trustees.
//!
//! A fault-tolerant cluster of "directory authorities" maintains the list of
//! participating servers and their keys (§2.1). At the beginning of every
//! round, groups are formed from a public randomness beacon (§4.1), each
//! group runs the dealer-less DKG to establish its (threshold) group key
//! (§4.5), buddy groups are assigned, and — in the trap variant — an extra
//! anytrust group of *trustees* generates the per-round inner-ciphertext key
//! (§4.4).
//!
//! A round's [`RoundSetup`] is a pure function of its [`AtomConfig`]: one
//! config names one deployment everywhere. It is built from *shardable*
//! units — [`derive_group`], [`derive_trustees`], [`derive_buddies`] — whose
//! monolithic composition is [`derive_setup`]. Each group's DKG draws from
//! its own stream seeded by `setup_stream_seed(beacon_seed, round, gid)`,
//! so any process can derive exactly the groups it hosts — in any order,
//! concurrently — and the result is byte-identical to deriving everything
//! locally. This is what the runtime's sharded setup phase (`atom_runtime`)
//! builds on: each process runs only the DKGs of its hosted groups and ships
//! the public half of the result to its peers as `setup` wire frames. Two
//! distinct deployments differ in their config (`round` or `beacon_seed`),
//! never in a caller's RNG.

use rand::rngs::StdRng;
use rand::SeedableRng;
use serde::{Deserialize, Serialize};

use atom_crypto::dkg::{run_dkg, DkgParams, DkgShare};
use atom_crypto::elgamal::PublicKey;
use atom_topology::groups::{assign_buddies, form_group, form_groups};

use crate::config::AtomConfig;
use crate::error::{AtomError, AtomResult};

/// A group of servers together with its threshold key material.
///
/// The `shares` vector is position-indexed: `shares[p]` is held by the server
/// `members[p]`. In a real deployment each server holds only its own share;
/// keeping them together here lets tests and the orchestrator play every
/// role.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct GroupContext {
    /// The group id (node id in the permutation network).
    pub id: usize,
    /// Global server ids of the members, in protocol order (§4.7 staggering).
    pub members: Vec<usize>,
    /// Each member's DKG output.
    pub shares: Vec<DkgShare>,
    /// The group public key.
    pub public_key: PublicKey,
    /// Number of members that must participate to decrypt (`k − (h−1)`).
    pub threshold: usize,
}

impl GroupContext {
    /// Selects the members that will run this round's mixing: the first
    /// `threshold` members that have not failed (§4.5 — only `k − (h−1)`
    /// members need to participate). Returns their 1-based share indices.
    pub fn participating(&self, failed_servers: &[usize]) -> AtomResult<Vec<u64>> {
        let alive: Vec<u64> = self
            .members
            .iter()
            .enumerate()
            .filter(|(_, server)| !failed_servers.contains(server))
            .map(|(position, _)| (position + 1) as u64)
            .collect();
        if alive.len() < self.threshold {
            return Err(AtomError::TooManyFailures {
                group: self.id,
                failed: self.members.len() - alive.len(),
                tolerated: self.members.len() - self.threshold,
            });
        }
        Ok(alive[..self.threshold].to_vec())
    }

    /// The DKG share at a 1-based member index.
    pub fn share(&self, member_index: u64) -> &DkgShare {
        &self.shares[(member_index - 1) as usize]
    }

    /// The context with its secret shares stripped: what a process may ship
    /// to its peers during sharded setup. Membership, threshold and the
    /// group public key are public; the shares stay with the host process.
    pub fn public_only(&self) -> GroupContext {
        GroupContext {
            id: self.id,
            members: self.members.clone(),
            shares: Vec::new(),
            public_key: self.public_key,
            threshold: self.threshold,
        }
    }
}

/// The trustee group of the trap variant (§4.4).
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct TrusteeContext {
    /// Global server ids of the trustees.
    pub members: Vec<usize>,
    /// Each trustee's share of the per-round inner-ciphertext key.
    pub shares: Vec<DkgShare>,
    /// The per-round public key users encrypt inner ciphertexts to.
    pub public_key: PublicKey,
}

/// Everything established before a round starts.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct RoundSetup {
    /// The deployment configuration.
    pub config: AtomConfig,
    /// One context per group.
    pub groups: Vec<GroupContext>,
    /// The trustee group (always created; only consulted in the trap
    /// variant).
    pub trustees: TrusteeContext,
    /// Buddy-group assignment: `buddies[g]` lists the groups that escrow
    /// group `g`'s key shares (§4.5).
    pub buddies: Vec<Vec<usize>>,
}

/// Stream id of the trustee DKG in [`setup_stream_seed`]. Sits outside the
/// real group-id space, so the trustee stream can never collide with a
/// group's.
const TRUSTEE_STREAM: u64 = u64::MAX;

/// Derives the RNG seed of the setup stream for `gid` — a group id, or
/// [`TRUSTEE_STREAM`] — from the round's public randomness beacon
/// (splitmix64-style finalizer, the same construction as
/// [`group_stream_seed`](crate::actor::group_stream_seed)).
///
/// Every process of a deployment computes the same seeds from the shared
/// `(beacon_seed, round)`, which is what makes the per-group DKGs
/// independently derivable: group `g`'s key material is a pure function of
/// the beacon and `g`, never of which process derives it or in what order.
pub(crate) fn setup_stream_seed(beacon_seed: u64, round: u64, gid: u64) -> u64 {
    let mut x = beacon_seed
        ^ round.wrapping_mul(0xd6e8_feb8_6659_fd93)
        ^ gid.wrapping_mul(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// Substitutes a beacon-determined surviving server for every evicted member
/// of a beacon-formed group (§4.5 re-formation after eviction).
///
/// Substitutes walk the surviving server list from a start offset derived
/// from the group's setup stream seed, skipping servers already in the
/// group, so the healed membership is a pure function of
/// `(config, evicted_servers)` — any process re-derives it identically.
/// The DKG streams never see membership, so the group key is unchanged and
/// submissions encrypted before the eviction remain decryptable.
fn remap_evicted_members(config: &AtomConfig, gid: u64, mut members: Vec<usize>) -> Vec<usize> {
    if config.evicted_servers.is_empty() {
        return members;
    }
    let survivors = config.surviving_servers();
    let start = setup_stream_seed(config.beacon_seed, config.round, gid) as usize % survivors.len();
    let mut cursor = 0usize;
    for position in 0..members.len() {
        if !config.evicted_servers.contains(&members[position]) {
            continue;
        }
        // First surviving server (in rotated order) not already a member.
        let replacement = loop {
            assert!(
                cursor < survivors.len(),
                "validate() guarantees enough survivors for a full group"
            );
            let candidate = survivors[(start + cursor) % survivors.len()];
            cursor += 1;
            if !members.contains(&candidate) {
                break candidate;
            }
        };
        members[position] = replacement;
    }
    members
}

/// Derives the full context — membership *and* DKG key material — of group
/// `gid` alone, without touching any other group's DKG.
///
/// The unit of sharded round setup: a process hosting group `gid` calls this
/// for exactly its hosted ids, and the result is byte-identical to the
/// corresponding entry of [`derive_setup`]'s monolithic derivation.
pub fn derive_group(config: &AtomConfig, gid: usize) -> AtomResult<GroupContext> {
    config.validate()?;
    if gid >= config.num_groups {
        return Err(AtomError::Config(format!(
            "group {gid} out of range for {} groups",
            config.num_groups
        )));
    }
    let threshold = config.group_threshold();
    let params = DkgParams::new(config.group_size, threshold).map_err(AtomError::Crypto)?;
    let assignment = form_group(
        config.num_servers,
        config.num_groups,
        config.group_size,
        config.beacon_seed,
        gid,
    );
    let mut rng = StdRng::seed_from_u64(setup_stream_seed(
        config.beacon_seed,
        config.round,
        gid as u64,
    ));
    let (public_key, shares) = run_dkg(&params, &mut rng).map_err(AtomError::Crypto)?;
    Ok(GroupContext {
        id: assignment.id,
        members: remap_evicted_members(config, gid as u64, assignment.members),
        shares,
        public_key,
        threshold,
    })
}

/// Derives the trustee group of the trap variant (§4.4) from its own
/// dedicated stream (`TRUSTEE_STREAM`). In a sharded setup only the
/// coordinator runs this — group actors never consult the trustee context.
pub fn derive_trustees(config: &AtomConfig) -> AtomResult<TrusteeContext> {
    config.validate()?;
    let threshold = config.group_threshold();
    let params = DkgParams::new(config.group_size, threshold).map_err(AtomError::Crypto)?;
    let assignment = form_groups(
        config.num_servers,
        1,
        config.group_size,
        config.beacon_seed ^ TRUSTEE_BEACON_TWEAK,
    )
    .pop()
    .expect("one trustee group");
    let mut rng = StdRng::seed_from_u64(setup_stream_seed(
        config.beacon_seed,
        config.round,
        TRUSTEE_STREAM,
    ));
    let (public_key, shares) = run_dkg(&params, &mut rng).map_err(AtomError::Crypto)?;
    Ok(TrusteeContext {
        members: remap_evicted_members(config, TRUSTEE_STREAM, assignment.members),
        shares,
        public_key,
    })
}

/// The buddy-group assignment of the round: a pure (crypto-free) function of
/// the configuration, cheap enough for every process to recompute locally.
pub fn derive_buddies(config: &AtomConfig) -> Vec<Vec<usize>> {
    assign_buddies(config.num_groups, config.buddy_groups, config.beacon_seed)
}

/// The membership of group `gid` alone — the beacon-derived assignment
/// without running any DKG. A pure function of the shared configuration,
/// which is what lets a process *validate* the `members` list a peer's
/// setup frame claims instead of trusting it: everything in the directory
/// except the DKG public keys is locally recomputable.
pub fn derive_members(config: &AtomConfig, gid: usize) -> AtomResult<Vec<usize>> {
    config.validate()?;
    if gid >= config.num_groups {
        return Err(AtomError::Config(format!(
            "group {gid} out of range for {} groups",
            config.num_groups
        )));
    }
    Ok(remap_evicted_members(
        config,
        gid as u64,
        form_group(
            config.num_servers,
            config.num_groups,
            config.group_size,
            config.beacon_seed,
            gid,
        )
        .members,
    ))
}

/// Monolithic composition of the shardable units: derives every group, the
/// trustees and the buddy assignment locally from the per-group streams.
///
/// This is the reference a *sharded* setup must match byte for byte: running
/// [`derive_group`] for disjoint subsets of the ids on different processes
/// and exchanging the results reassembles exactly this value (modulo the
/// secret shares of remote groups, which never leave their host process).
pub fn derive_setup(config: &AtomConfig) -> AtomResult<RoundSetup> {
    config.validate()?;
    let groups = (0..config.num_groups)
        .map(|gid| derive_group(config, gid))
        .collect::<AtomResult<Vec<_>>>()?;
    Ok(RoundSetup {
        config: config.clone(),
        groups,
        trustees: derive_trustees(config)?,
        buddies: derive_buddies(config),
    })
}

/// Beacon tweak separating the trustee group's *membership* sample from the
/// mixing groups' (the DKG randomness is separated by [`TRUSTEE_STREAM`]).
const TRUSTEE_BEACON_TWEAK: u64 = 0x7472_7573_7465_6573;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::AtomConfig;

    #[test]
    fn setup_produces_expected_shapes() {
        let config = AtomConfig::test_default();
        let setup = derive_setup(&config).unwrap();
        assert_eq!(setup.groups.len(), 4);
        for group in &setup.groups {
            assert_eq!(group.members.len(), 3);
            assert_eq!(group.shares.len(), 3);
            assert_eq!(group.threshold, 3);
            assert_eq!(group.shares[0].group_public, group.public_key);
        }
        assert_eq!(setup.buddies.len(), 4);
        assert_eq!(setup.trustees.shares.len(), 3);
    }

    #[test]
    fn participating_selects_threshold_members() {
        let mut config = AtomConfig::test_default();
        config.required_honest = 2; // tolerate one failure, threshold 2.
        let setup = derive_setup(&config).unwrap();
        let group = &setup.groups[0];
        assert_eq!(group.threshold, 2);

        // Nobody failed: the first two members participate.
        assert_eq!(group.participating(&[]).unwrap(), vec![1, 2]);

        // The first member failed: members 2 and 3 step in.
        let failed = vec![group.members[0]];
        assert_eq!(group.participating(&failed).unwrap(), vec![2, 3]);

        // Two failures exceed the tolerance.
        let failed = vec![group.members[0], group.members[2]];
        assert!(matches!(
            group.participating(&failed),
            Err(AtomError::TooManyFailures { .. })
        ));
    }

    #[test]
    fn invalid_config_is_rejected() {
        let mut config = AtomConfig::test_default();
        config.group_size = 0;
        assert!(derive_setup(&config).is_err());
    }

    #[test]
    fn derive_setup_composes_the_shardable_units() {
        let mut config = AtomConfig::test_default();
        config.beacon_seed = 0xBEAC;
        config.round = 3;
        let setup = derive_setup(&config).unwrap();

        // Each group derived alone — in reverse order, as a second process
        // would — matches the monolithic derivation byte for byte.
        for gid in (0..config.num_groups).rev() {
            let alone = derive_group(&config, gid).unwrap();
            let reference = &setup.groups[gid];
            assert_eq!(alone.id, reference.id);
            assert_eq!(alone.members, reference.members);
            assert_eq!(alone.threshold, reference.threshold);
            assert_eq!(alone.public_key, reference.public_key);
            assert_eq!(alone.shares.len(), reference.shares.len());
            for (a, b) in alone.shares.iter().zip(&reference.shares) {
                assert_eq!(a.index, b.index);
                assert_eq!(a.secret_share, b.secret_share);
                assert_eq!(a.verification_keys, b.verification_keys);
            }
        }
        let trustees = derive_trustees(&config).unwrap();
        assert_eq!(trustees.public_key, setup.trustees.public_key);
        assert_eq!(trustees.members, setup.trustees.members);
        assert_eq!(derive_buddies(&config), setup.buddies);
    }

    #[test]
    fn setup_streams_separate_groups_rounds_and_trustees() {
        let base = setup_stream_seed(1, 0, 0);
        assert_ne!(base, setup_stream_seed(1, 0, 1));
        assert_ne!(base, setup_stream_seed(1, 1, 0));
        assert_ne!(base, setup_stream_seed(2, 0, 0));
        assert_ne!(base, setup_stream_seed(1, 0, TRUSTEE_STREAM));
        assert_eq!(base, setup_stream_seed(1, 0, 0));
    }

    #[test]
    fn derive_group_validates_inputs() {
        let config = AtomConfig::test_default();
        assert!(matches!(
            derive_group(&config, config.num_groups),
            Err(AtomError::Config(_))
        ));
        let mut bad = config.clone();
        bad.group_size = 0;
        assert!(derive_group(&bad, 0).is_err());
        assert!(derive_setup(&bad).is_err());
        assert!(derive_trustees(&bad).is_err());
    }

    #[test]
    fn public_only_strips_exactly_the_shares() {
        let config = AtomConfig::test_default();
        let setup = derive_setup(&config).unwrap();
        let public = setup.groups[1].public_only();
        assert!(public.shares.is_empty());
        assert_eq!(public.id, setup.groups[1].id);
        assert_eq!(public.members, setup.groups[1].members);
        assert_eq!(public.threshold, setup.groups[1].threshold);
        assert_eq!(public.public_key, setup.groups[1].public_key);
    }

    #[test]
    fn eviction_reforms_membership_but_not_keys() {
        let mut config = AtomConfig::test_default();
        config.beacon_seed = 0x5EED;
        let baseline = derive_setup(&config).unwrap();
        let victim = baseline.groups[0].members[0];

        let mut healed_config = config.clone();
        healed_config.evicted_servers = vec![victim];
        let healed = derive_setup(&healed_config).unwrap();

        for (before, after) in baseline.groups.iter().zip(&healed.groups) {
            // The DKG never sees membership: keys (and hence submissions
            // encrypted before the eviction) survive re-formation.
            assert_eq!(before.public_key, after.public_key);
            assert_eq!(before.shares.len(), after.shares.len());
            // The victim is gone and the group is still full and duplicate-free.
            assert!(!after.members.contains(&victim));
            assert_eq!(after.members.len(), before.members.len());
            for (position, member) in after.members.iter().enumerate() {
                assert!(!after.members[position + 1..].contains(member));
                assert!(*member < config.num_servers);
            }
        }
        assert_eq!(healed.trustees.public_key, baseline.trustees.public_key);
        assert!(!healed.trustees.members.contains(&victim));
        assert_eq!(derive_buddies(&healed_config), baseline.buddies);

        // Pure function of (config, eviction log): any process re-derives the
        // same healed membership, shardably.
        for gid in 0..config.num_groups {
            let alone = derive_group(&healed_config, gid).unwrap();
            assert_eq!(alone.members, healed.groups[gid].members);
            assert_eq!(
                derive_members(&healed_config, gid).unwrap(),
                healed.groups[gid].members
            );
        }
    }

    #[test]
    fn eviction_that_exhausts_survivors_is_rejected() {
        let mut config = AtomConfig::test_default();
        config.evicted_servers = (0..6).collect(); // 2 survivors < group size 3
        assert!(matches!(derive_setup(&config), Err(AtomError::Config(_))));
    }

    /// Distinct setup streams yield distinct key material.
    #[test]
    fn group_keys_are_distinct() {
        let config = AtomConfig::test_default();
        let setup = derive_setup(&config).unwrap();
        for i in 0..setup.groups.len() {
            for j in i + 1..setup.groups.len() {
                assert_ne!(setup.groups[i].public_key, setup.groups[j].public_key);
            }
            assert_ne!(setup.groups[i].public_key, setup.trustees.public_key);
        }
    }
}
