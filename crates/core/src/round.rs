//! Round phases shared by every driver, and the sequential reference driver.
//!
//! Rounds run on `atom_runtime::Engine`. This module holds the phases the
//! engine calls into — submission verification
//! ([`verify_trap_submissions_range`], [`verify_nizk_submissions_range`]),
//! the exit phases ([`finish_trap_round`], [`finish_nizk_round`]: trap
//! checking and trustee-gated decryption, §4.4; the NIZK variant aborts as
//! soon as any proof fails, §4.3) and the timing accounting
//! ([`collect_round_timings`]).
//!
//! [`RoundDriver`] is the oracle the equivalence suites diff the engine
//! against: it feeds the submissions to their entry groups, steps every
//! group's [`GroupActor`] in FIFO order on one thread and runs the same exit
//! phase, so for equal seeds its [`RoundOutput`] is the engine's byte for
//! byte.

use std::collections::{HashMap, VecDeque};
use std::time::{Duration, Instant};

use rand::{CryptoRng, RngCore};

use atom_crypto::batch::{verify_encryption_batch, EncVerification};
use atom_crypto::cca2::{self, HybridCiphertext};
use atom_crypto::commit::{self, Commitment};
use atom_crypto::dkg::reconstruct_group_secret;
use atom_crypto::elgamal::{MessageCiphertext, SecretKey};
use atom_crypto::nizk::enc::{verify_encryption, EncProof};
use atom_crypto::CryptoError;

use crate::actor::{ActorConfig, ActorOutput, GroupActor, SOURCE};
use crate::adversary::AdversaryPlan;
use crate::config::Defense;
use crate::directory::RoundSetup;
use crate::error::{AtomError, AtomResult};
use crate::group::GroupStepOptions;
use crate::message::{
    inner_target_group, MixPayload, NizkSubmission, TrapSubmission, TRAP_COMMIT_LABEL,
};

/// Per-round measurements used by the evaluation figures.
#[derive(Clone, Debug, Default)]
pub struct RoundTimings {
    /// For every mixing iteration, the longest any group spent computing
    /// (the critical path when all groups run in parallel).
    pub iteration_critical_path: Vec<Duration>,
    /// Total compute time summed over all groups and iterations.
    pub total_compute: Duration,
    /// Wall-clock time the in-process run took end to end.
    pub wall_clock: Duration,
}

impl RoundTimings {
    /// The barrier-model latency: the compute critical path summed over
    /// the iterations.
    pub fn end_to_end(&self) -> Duration {
        self.iteration_critical_path.iter().sum()
    }
}

/// The result of a successful round.
#[derive(Clone, Debug, Default)]
pub struct RoundOutput {
    /// The anonymized plaintext messages, grouped by the exit (or holding)
    /// group that published them.
    pub per_group: Vec<Vec<Vec<u8>>>,
    /// All plaintexts flattened (order carries no information beyond the
    /// random permutation the network applied).
    pub plaintexts: Vec<Vec<u8>>,
    /// Number of ciphertexts routed through the network (twice the user
    /// count in the trap variant).
    pub routed_ciphertexts: usize,
    /// Timings for the evaluation harness.
    pub timings: RoundTimings,
}

/// The sequential reference driver: runs a whole round over a
/// [`RoundSetup`] on the calling thread. The equivalence suites diff
/// `atom_runtime::Engine` against it.
pub struct RoundDriver {
    setup: RoundSetup,
    failed_servers: Vec<usize>,
    adversary: Option<AdversaryPlan>,
}

impl RoundDriver {
    /// Creates a driver with no failures and no adversary.
    pub fn new(setup: RoundSetup) -> Self {
        Self {
            setup,
            failed_servers: Vec::new(),
            adversary: None,
        }
    }

    /// Access to the round setup (group keys, trustee key, ...).
    pub fn setup(&self) -> &RoundSetup {
        &self.setup
    }

    /// Marks servers as failed for this round (§4.5).
    pub fn with_failures(mut self, servers: Vec<usize>) -> Self {
        self.failed_servers = servers;
        self
    }

    /// Installs an active adversary (§4.3/§4.4 attack experiments).
    pub fn with_adversary(mut self, plan: AdversaryPlan) -> Self {
        self.adversary = Some(plan);
        self
    }

    /// The per-actor execution options this driver implies.
    fn actor_config(&self) -> ActorConfig {
        let mut config = ActorConfig::new(GroupStepOptions {
            defense: self.setup.config.defense,
            parallelism: 1,
        });
        config.adversary = self.adversary;
        config.failed_servers = self.failed_servers.clone();
        config
    }

    /// Runs the mixing phase: `T` iterations of every group shuffling,
    /// splitting and forwarding. Returns the per-exit-group payload bytes and
    /// the timings.
    ///
    /// Groups execute as [`GroupActor`]s with per-group RNG streams derived
    /// from one master draw on `rng`, delivered here in deterministic FIFO
    /// order. The engine drives the same actors from a worker pool; because
    /// each group's stream and batch-assembly order are independent of
    /// scheduling, both produce byte-identical outputs for the same seed.
    fn run_mixing<R: RngCore + CryptoRng>(
        &self,
        batches: Vec<Vec<MessageCiphertext>>,
        rng: &mut R,
    ) -> AtomResult<(Vec<Vec<Vec<u8>>>, RoundTimings)> {
        let master_seed = rng.next_u64();
        let groups = self.setup.groups.len();
        let wall_start = Instant::now();

        let mut actors = Vec::with_capacity(groups);
        for gid in 0..groups {
            actors.push(GroupActor::new(
                &self.setup,
                gid,
                master_seed,
                self.actor_config(),
            )?);
        }

        let mut exit_payloads: Vec<Vec<Vec<u8>>> = vec![Vec::new(); groups];
        let mut queue: VecDeque<(usize, usize, usize, Vec<MessageCiphertext>)> = batches
            .into_iter()
            .enumerate()
            .map(|(gid, batch)| (gid, 0, SOURCE, batch))
            .collect();

        while let Some((to, iteration, from, batch)) = queue.pop_front() {
            for output in actors[to].on_batch(iteration, from, batch)? {
                match output {
                    ActorOutput::Forward {
                        iteration,
                        to: next,
                        batch,
                        ..
                    } => queue.push_back((next, iteration, to, batch)),
                    ActorOutput::Exit { plaintexts, .. } => exit_payloads[to] = plaintexts,
                }
            }
        }

        let computes: Vec<Vec<Duration>> = actors
            .iter()
            .map(|actor| actor.compute_times().to_vec())
            .collect();
        let mut timings = collect_round_timings(&self.setup, &computes);
        timings.wall_clock = wall_start.elapsed();
        Ok((exit_payloads, timings))
    }

    /// Runs a NIZK-variant round (§4.3): verify submissions, mix, publish.
    pub fn run_nizk_round<R: RngCore + CryptoRng>(
        &self,
        submissions: &[NizkSubmission],
        rng: &mut R,
    ) -> AtomResult<RoundOutput> {
        let batches = verify_nizk_submissions(&self.setup, submissions)?;
        let routed = batches.iter().map(Vec::len).sum();
        let (exit_payloads, timings) = self.run_mixing(batches, rng)?;
        finish_nizk_round(exit_payloads, routed, timings)
    }

    /// Runs a trap-variant round (§4.4): verify submissions, mix, sort traps
    /// and inner ciphertexts, check every trap against its commitment, and
    /// decrypt the inner ciphertexts only if the trustees release the key.
    pub fn run_trap_round<R: RngCore + CryptoRng>(
        &self,
        submissions: &[TrapSubmission],
        rng: &mut R,
    ) -> AtomResult<RoundOutput> {
        let intake = verify_trap_submissions(&self.setup, submissions)?;
        let routed = intake.batches.iter().map(Vec::len).sum();
        let TrapIntake {
            batches,
            commitments,
        } = intake;
        let (exit_payloads, timings) = self.run_mixing(batches, rng)?;
        finish_trap_round(&self.setup, &commitments, exit_payloads, routed, timings)
    }
}

/// Assembles [`RoundTimings`] from per-group compute records (barrier
/// model: an iteration lasts as long as its slowest group). `computes[gid]`
/// holds group `gid`'s measured per-iteration compute times. Shared by the
/// sequential driver and the engine so the accounting cannot drift between
/// them.
pub fn collect_round_timings(setup: &RoundSetup, computes: &[Vec<Duration>]) -> RoundTimings {
    let mut timings = RoundTimings::default();
    for iteration in 0..setup.config.topology().iterations() {
        let mut iteration_max = Duration::ZERO;
        for &elapsed in computes.iter().filter_map(|compute| compute.get(iteration)) {
            timings.total_compute += elapsed;
            iteration_max = iteration_max.max(elapsed);
        }
        timings.iteration_critical_path.push(iteration_max);
    }
    timings
}

/// The result of trap-variant submission intake: per-entry-group batches and
/// the trap commitments each entry group holds for the final check.
#[derive(Clone, Debug)]
pub struct TrapIntake {
    /// Two ciphertexts per accepted submission, grouped by entry group.
    pub batches: Vec<Vec<MessageCiphertext>>,
    /// Trap commitments registered with each entry group.
    pub commitments: Vec<Vec<Commitment>>,
}

/// Verifies NIZK-variant submissions and buckets them by entry group
/// (the submission phase of §4.3). Shared by the sequential driver and the
/// parallel runtime.
pub fn verify_nizk_submissions(
    setup: &RoundSetup,
    submissions: &[NizkSubmission],
) -> AtomResult<Vec<Vec<MessageCiphertext>>> {
    verify_nizk_submissions_range(setup, submissions, 0)
}

/// Verifies the proofs of a contiguous submission range, flattened to
/// `(entry_group, ciphertext, proof)` items — `per_submission` consecutive
/// items each — with one RLC batch verification (`atom_crypto::batch`).
/// When an item names an unknown entry group (or there is nothing to batch)
/// the exact sequential loop runs instead, so the verdict — *which*
/// submission is rejected, and whether a bad group id or a bad proof comes
/// first — is identical to the sequential driver's. `first_index` is the
/// global index of the range's first submission.
fn verify_intake_items<'a>(
    setup: &'a RoundSetup,
    items: impl Iterator<Item = (usize, &'a MessageCiphertext, &'a EncProof)> + Clone,
    per_submission: usize,
    first_index: usize,
) -> AtomResult<()> {
    let num_groups = setup.config.num_groups;
    let index = |flat: usize| first_index + flat / per_submission;
    let rejected = |flat: usize, e: CryptoError| {
        AtomError::SubmissionRejected(format!("submission {}: {e}", index(flat)))
    };
    let batch: Option<Vec<EncVerification<'_>>> = items
        .clone()
        .map(|(gid, ciphertext, proof)| {
            (gid < num_groups).then(|| EncVerification {
                pk: &setup.groups[gid].public_key,
                group_id: gid as u64,
                ciphertext,
                proof,
            })
        })
        .collect();
    if let Some(batch) = batch.filter(|batch| !batch.is_empty()) {
        return verify_encryption_batch(&batch).map_err(|(flat, e)| rejected(flat, e));
    }
    for (flat, (gid, ciphertext, proof)) in items.enumerate() {
        if gid >= num_groups {
            return Err(AtomError::SubmissionRejected(format!(
                "submission {} targets unknown group {gid}",
                index(flat)
            )));
        }
        let group_pk = &setup.groups[gid].public_key;
        verify_encryption(group_pk, gid as u64, ciphertext, proof)
            .map_err(|e| rejected(flat, e))?;
    }
    Ok(())
}

/// Verifies a contiguous range of NIZK-variant submissions, with
/// `first_index` naming the global index of `submissions[0]` so error
/// messages match the whole-batch verifier. Proofs are checked with one
/// RLC batch verification; the reported verdict — including *which*
/// submission is rejected — is identical to the sequential driver's.
/// Chunked intake in `atom-runtime` calls this per chunk.
pub fn verify_nizk_submissions_range(
    setup: &RoundSetup,
    submissions: &[NizkSubmission],
    first_index: usize,
) -> AtomResult<Vec<Vec<MessageCiphertext>>> {
    let config = &setup.config;
    if config.defense != Defense::Nizk {
        return Err(AtomError::Config(
            "round setup is not configured for the NIZK variant".into(),
        ));
    }
    let items = submissions
        .iter()
        .map(|s| (s.entry_group, &s.ciphertext, &s.proof));
    verify_intake_items(setup, items, 1, first_index)?;

    let mut batches: Vec<Vec<MessageCiphertext>> = vec![Vec::new(); config.num_groups];
    for submission in submissions {
        batches[submission.entry_group].push(submission.ciphertext.clone());
    }
    Ok(batches)
}

/// Verifies trap-variant submissions, bucketing ciphertext pairs by entry
/// group and registering trap commitments (§4.4 submission phase). Shared by
/// the sequential driver and the parallel runtime.
pub fn verify_trap_submissions(
    setup: &RoundSetup,
    submissions: &[TrapSubmission],
) -> AtomResult<TrapIntake> {
    verify_trap_submissions_range(setup, submissions, 0)
}

/// Verifies a contiguous range of trap-variant submissions (both proofs per
/// submission batched through one RLC check, with the sequential driver's
/// verdict). `first_index` names the global index of `submissions[0]`.
/// Chunked intake in `atom-runtime` calls this per chunk.
pub fn verify_trap_submissions_range(
    setup: &RoundSetup,
    submissions: &[TrapSubmission],
    first_index: usize,
) -> AtomResult<TrapIntake> {
    let config = &setup.config;
    if config.defense != Defense::Trap {
        return Err(AtomError::Config(
            "round setup is not configured for the trap variant".into(),
        ));
    }
    // Two proofs per submission: flat item index / 2 names the submission.
    let items = submissions.iter().flat_map(|s| {
        let pairs = s.ciphertexts.iter().zip(&s.proofs);
        pairs.map(move |(ciphertext, proof)| (s.entry_group, ciphertext, proof))
    });
    verify_intake_items(setup, items, 2, first_index)?;

    let mut batches: Vec<Vec<MessageCiphertext>> = vec![Vec::new(); config.num_groups];
    let mut commitments: Vec<Vec<Commitment>> = vec![Vec::new(); config.num_groups];
    for submission in submissions {
        let gid = submission.entry_group;
        batches[gid].extend_from_slice(&submission.ciphertexts);
        commitments[gid].push(submission.trap_commitment);
    }
    Ok(TrapIntake {
        batches,
        commitments,
    })
}

/// Decodes exit payloads of a NIZK-variant round into the published
/// plaintexts. Shared by the sequential driver and the parallel runtime.
pub fn finish_nizk_round(
    exit_payloads: Vec<Vec<Vec<u8>>>,
    routed: usize,
    timings: RoundTimings,
) -> AtomResult<RoundOutput> {
    let mut per_group = Vec::with_capacity(exit_payloads.len());
    let mut plaintexts = Vec::new();
    for payloads in exit_payloads {
        let mut group_messages = Vec::with_capacity(payloads.len());
        for bytes in payloads {
            match MixPayload::from_bytes(&bytes)? {
                MixPayload::Inner(content) | MixPayload::Plaintext(content) => {
                    group_messages.push(content.clone());
                    plaintexts.push(content);
                }
                MixPayload::Trap { .. } => {
                    return Err(AtomError::Malformed(
                        "unexpected trap payload in a NIZK-variant round".into(),
                    ))
                }
            }
        }
        per_group.push(group_messages);
    }

    Ok(RoundOutput {
        per_group,
        plaintexts,
        routed_ciphertexts: routed,
        timings,
    })
}

/// Runs the exit phase of a trap-variant round: sorts traps back to their
/// entry groups and inner ciphertexts to their load-balanced holders, checks
/// every trap against its commitment, and decrypts the inner ciphertexts only
/// if the trustees release the key (§4.4). Shared by the sequential driver
/// and the parallel runtime.
pub fn finish_trap_round(
    setup: &RoundSetup,
    commitments: &[Vec<Commitment>],
    exit_payloads: Vec<Vec<Vec<u8>>>,
    routed: usize,
    timings: RoundTimings,
) -> AtomResult<RoundOutput> {
    let config = &setup.config;

    // --- Exit sorting: traps back to their entry group, inner ciphertexts
    //     to their load-balanced holding group. ---
    let mut traps_received: Vec<Vec<(u32, [u8; 16])>> = vec![Vec::new(); config.num_groups];
    let mut inners_received: Vec<Vec<Vec<u8>>> = vec![Vec::new(); config.num_groups];
    let mut malformed = 0usize;
    for payloads in &exit_payloads {
        for bytes in payloads {
            match MixPayload::from_bytes(bytes) {
                Ok(MixPayload::Trap { gid, nonce }) => {
                    let target = (gid as usize).min(config.num_groups - 1);
                    traps_received[target].push((gid, nonce));
                }
                Ok(MixPayload::Inner(inner)) | Ok(MixPayload::Plaintext(inner)) => {
                    let target = inner_target_group(&inner, config.num_groups);
                    inners_received[target].push(inner);
                }
                Err(_) => malformed += 1,
            }
        }
    }

    // --- Per-group reports (§4.4): trap/commitment matching, duplicate
    //     inner ciphertexts, counts. ---
    let mut all_ok = malformed == 0;
    let mut total_traps = 0usize;
    let mut total_inners = 0usize;
    for gid in 0..config.num_groups {
        total_traps += traps_received[gid].len();
        total_inners += inners_received[gid].len();

        // Every commitment must have exactly one matching trap and every
        // trap must match a commitment held by this group.
        let mut expected: HashMap<Commitment, usize> = HashMap::new();
        for commitment in &commitments[gid] {
            *expected.entry(*commitment).or_default() += 1;
        }
        for (trap_gid, nonce) in &traps_received[gid] {
            if *trap_gid as usize != gid {
                all_ok = false;
                continue;
            }
            let commitment = commit::commit(
                TRAP_COMMIT_LABEL,
                &MixPayload::trap_commit_bytes(*trap_gid, nonce),
            );
            match expected.get_mut(&commitment) {
                Some(count) if *count > 0 => *count -= 1,
                _ => all_ok = false,
            }
        }
        if expected.values().any(|&count| count > 0) {
            all_ok = false;
        }

        // Duplicate inner ciphertexts are grounds for aborting.
        let mut seen = std::collections::HashSet::new();
        for inner in &inners_received[gid] {
            if !seen.insert(commit::commit(b"inner-dup", inner)) {
                all_ok = false;
            }
        }
    }
    if total_traps != total_inners {
        all_ok = false;
    }

    // --- Trustee decision: release the key only if every report is clean.
    if !all_ok {
        return Err(AtomError::TrapCheckFailed(format!(
            "round aborted: traps={total_traps} inners={total_inners} malformed={malformed}"
        )));
    }
    let trustee_shares: Vec<_> = setup.trustees.shares.iter().collect();
    let trustee_secret =
        reconstruct_group_secret(&trustee_shares[..setup.trustees.shares[0].params.threshold])
            .map_err(AtomError::Crypto)?;
    let trustee_secret = SecretKey(trustee_secret);

    // --- Decrypt inner ciphertexts. ---
    let aad = config.round.to_le_bytes();
    let mut per_group = Vec::with_capacity(config.num_groups);
    let mut plaintexts = Vec::new();
    for inners in &inners_received {
        let mut group_messages = Vec::new();
        for inner_bytes in inners {
            let Ok(inner) = HybridCiphertext::from_bytes(inner_bytes) else {
                continue; // Malformed submissions from malicious users.
            };
            let Ok(message) =
                cca2::decrypt(&trustee_secret, &setup.trustees.public_key, &aad, &inner)
            else {
                continue;
            };
            group_messages.push(message.clone());
            plaintexts.push(message);
        }
        per_group.push(group_messages);
    }

    Ok(RoundOutput {
        per_group,
        plaintexts,
        routed_ciphertexts: routed,
        timings,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::adversary::Misbehavior;
    use crate::config::{AtomConfig, TopologyKind};
    use crate::directory::derive_setup;
    use crate::message::{make_nizk_submission, make_trap_submission};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn rng() -> StdRng {
        StdRng::seed_from_u64(4242)
    }

    fn trap_config() -> AtomConfig {
        let mut config = AtomConfig::test_default();
        config.num_groups = 3;
        config.iterations = 2;
        config.message_len = 24;
        config
    }

    fn make_trap_submissions(
        setup: &RoundSetup,
        messages: &[&str],
        rng: &mut StdRng,
    ) -> Vec<TrapSubmission> {
        messages
            .iter()
            .enumerate()
            .map(|(i, msg)| {
                let gid = i % setup.config.num_groups;
                make_trap_submission(
                    gid,
                    &setup.groups[gid].public_key,
                    &setup.trustees.public_key,
                    setup.config.round,
                    msg.as_bytes(),
                    setup.config.message_len,
                    rng,
                )
                .unwrap()
                .0
            })
            .collect()
    }

    #[test]
    fn trap_round_delivers_all_messages() {
        let mut rng = rng();
        let config = trap_config();
        let setup = derive_setup(&config).unwrap();
        let driver = RoundDriver::new(setup);
        let messages = [
            "protest at noon",
            "meet at the square",
            "bring banners",
            "stay safe",
        ];
        let submissions = make_trap_submissions(driver.setup(), &messages, &mut rng);

        let output = driver.run_trap_round(&submissions, &mut rng).unwrap();
        assert_eq!(output.routed_ciphertexts, 2 * messages.len());
        assert_eq!(output.plaintexts.len(), messages.len());
        let mut recovered: Vec<String> = output
            .plaintexts
            .iter()
            .map(|p| {
                String::from_utf8(p.iter().copied().take_while(|&b| b != 0).collect()).unwrap()
            })
            .collect();
        recovered.sort();
        let mut expected: Vec<String> = messages.iter().map(|m| m.to_string()).collect();
        expected.sort();
        assert_eq!(recovered, expected);
        assert_eq!(
            output.timings.iteration_critical_path.len(),
            config.iterations
        );
    }

    #[test]
    fn nizk_round_delivers_all_messages() {
        let mut rng = rng();
        let mut config = trap_config();
        config.defense = Defense::Nizk;
        let setup = derive_setup(&config).unwrap();
        let driver = RoundDriver::new(setup);

        let messages = ["alpha", "bravo", "charlie"];
        let submissions: Vec<NizkSubmission> = messages
            .iter()
            .enumerate()
            .map(|(i, msg)| {
                let gid = i % config.num_groups;
                make_nizk_submission(
                    gid,
                    &driver.setup().groups[gid].public_key,
                    msg.as_bytes(),
                    config.message_len,
                    &mut rng,
                )
                .unwrap()
                .0
            })
            .collect();

        let output = driver.run_nizk_round(&submissions, &mut rng).unwrap();
        assert_eq!(output.plaintexts.len(), messages.len());
        let mut recovered: Vec<String> = output
            .plaintexts
            .iter()
            .map(|p| {
                String::from_utf8(p.iter().copied().take_while(|&b| b != 0).collect()).unwrap()
            })
            .collect();
        recovered.sort();
        assert_eq!(recovered, vec!["alpha", "bravo", "charlie"]);
    }

    #[test]
    fn trap_round_aborts_when_a_message_is_dropped() {
        let mut rng = rng();
        let config = trap_config();
        let setup = derive_setup(&config).unwrap();
        let plan = AdversaryPlan {
            group: 1,
            member: 1,
            iteration: 0,
            action: Misbehavior::DropMessage { slot: 0 },
        };
        let driver = RoundDriver::new(setup).with_adversary(plan);
        let submissions =
            make_trap_submissions(driver.setup(), &["a", "b", "c", "d", "e", "f"], &mut rng);
        let result = driver.run_trap_round(&submissions, &mut rng);
        assert!(
            matches!(result, Err(AtomError::TrapCheckFailed(_))),
            "{result:?}"
        );
    }

    #[test]
    fn trap_round_aborts_on_duplicated_ciphertext() {
        let mut rng = rng();
        let config = trap_config();
        let setup = derive_setup(&config).unwrap();
        let plan = AdversaryPlan {
            group: 0,
            member: 2,
            iteration: 1,
            action: Misbehavior::DuplicateMessage { slot: 0, source: 1 },
        };
        let driver = RoundDriver::new(setup).with_adversary(plan);
        let submissions =
            make_trap_submissions(driver.setup(), &["a", "b", "c", "d", "e", "f"], &mut rng);
        let result = driver.run_trap_round(&submissions, &mut rng);
        assert!(
            matches!(result, Err(AtomError::TrapCheckFailed(_))),
            "{result:?}"
        );
    }

    #[test]
    fn nizk_round_identifies_malicious_server() {
        let mut rng = rng();
        let mut config = trap_config();
        config.defense = Defense::Nizk;
        let setup = derive_setup(&config).unwrap();
        let plan = AdversaryPlan {
            group: 2,
            member: 3,
            iteration: 1,
            action: Misbehavior::ReplaceMessage { slot: 0 },
        };
        let driver = RoundDriver::new(setup).with_adversary(plan);
        let submissions: Vec<NizkSubmission> = (0..6)
            .map(|i| {
                let gid = i % config.num_groups;
                make_nizk_submission(
                    gid,
                    &driver.setup().groups[gid].public_key,
                    format!("msg {i}").as_bytes(),
                    config.message_len,
                    &mut rng,
                )
                .unwrap()
                .0
            })
            .collect();
        match driver.run_nizk_round(&submissions, &mut rng) {
            Err(AtomError::ProtocolViolation { group, member, .. }) => {
                assert_eq!(group, 2);
                assert_eq!(member, Some(3));
            }
            other => panic!("expected protocol violation, got {other:?}"),
        }
    }

    #[test]
    fn invalid_submission_proof_rejected() {
        let mut rng = rng();
        let config = trap_config();
        let setup = derive_setup(&config).unwrap();
        let driver = RoundDriver::new(setup);
        let mut submissions = make_trap_submissions(driver.setup(), &["a", "b"], &mut rng);
        // Rebind submission 0 to a different entry group without re-proving.
        submissions[0].entry_group = (submissions[0].entry_group + 1) % config.num_groups;
        assert!(matches!(
            driver.run_trap_round(&submissions, &mut rng),
            Err(AtomError::SubmissionRejected(_))
        ));
    }

    #[test]
    fn fault_tolerant_round_survives_a_failure_per_group() {
        let mut rng = rng();
        let mut config = trap_config();
        config.required_honest = 2; // tolerate one failure per group.
        config.group_size = 3;
        let setup = derive_setup(&config).unwrap();
        // Fail a single server; it is the first member of group 0 and may
        // also serve in other groups, each of which tolerates one failure.
        let failed = vec![setup.groups[0].members[0]];
        let driver = RoundDriver::new(setup).with_failures(failed);
        let submissions = make_trap_submissions(driver.setup(), &["x", "y", "z"], &mut rng);
        let output = driver.run_trap_round(&submissions, &mut rng).unwrap();
        assert_eq!(output.plaintexts.len(), 3);
    }

    #[test]
    fn too_many_failures_abort_the_round() {
        let mut rng = rng();
        let mut config = trap_config();
        config.required_honest = 2;
        let setup = derive_setup(&config).unwrap();
        let failed: Vec<usize> = setup.groups[0].members[..2].to_vec();
        let driver = RoundDriver::new(setup).with_failures(failed);
        let submissions = make_trap_submissions(driver.setup(), &["x", "y"], &mut rng);
        assert!(matches!(
            driver.run_trap_round(&submissions, &mut rng),
            Err(AtomError::TooManyFailures { .. })
        ));
    }

    #[test]
    fn wrong_variant_rejected() {
        let mut rng = rng();
        let config = trap_config();
        let setup = derive_setup(&config).unwrap();
        let driver = RoundDriver::new(setup);
        assert!(matches!(
            driver.run_nizk_round(&[], &mut rng),
            Err(AtomError::Config(_))
        ));
    }

    #[test]
    fn butterfly_topology_round_also_works() {
        let mut rng = rng();
        let mut config = trap_config();
        config.num_groups = 4;
        config.topology = TopologyKind::Butterfly;
        let setup = derive_setup(&config).unwrap();
        let driver = RoundDriver::new(setup);
        let submissions = make_trap_submissions(driver.setup(), &["p", "q", "r", "s"], &mut rng);
        let output = driver.run_trap_round(&submissions, &mut rng).unwrap();
        assert_eq!(output.plaintexts.len(), 4);
    }
}
