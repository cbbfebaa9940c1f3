//! The anytrust-group mixing protocol: Algorithm 1 (basic), Algorithm 2
//! (with NIZKs) and the shared divide/re-encrypt machinery.
//!
//! A group receives a batch of message ciphertexts encrypted (possibly
//! partially, mid-handoff) under its group key and produces one sub-batch per
//! neighbouring group, re-encrypted under the neighbours' keys — or, in the
//! last mixing iteration, the decrypted mix payloads.
//!
//! Every participating member in protocol order:
//!
//! 1. **Shuffle** — rerandomizes and permutes the whole batch under the
//!    current group key (and, in the NIZK variant, proves it with a
//!    `ShufProof` verified by the rest of the group).
//! 2. **Divide** — the last member splits the batch into β equal sub-batches.
//! 3. **Decrypt-and-re-encrypt** — each member peels its layer from every
//!    sub-batch while re-encrypting toward the destination group's key
//!    (`ReEncProof` in the NIZK variant). The last member drops the auxiliary
//!    component and hands the sub-batches off.

use rand::rngs::StdRng;
use rand::{CryptoRng, RngCore, SeedableRng};

use atom_crypto::batch::{verify_shuffle_batch, ShuffleVerification};
use atom_crypto::elgamal::{
    encrypt_message, reencrypt_message, shuffle, MessageCiphertext, PublicKey, ReEncWitness,
};
use atom_crypto::encoding::{decode_message, encode_message_padded};
use atom_crypto::nizk::reenc::{
    prove_reencryption_slice, verify_reencryption_slice, ReEncStatement,
};
use atom_crypto::nizk::shuffle::prove_shuffle;

use crate::adversary::{AdversaryPlan, Misbehavior};
use crate::config::Defense;
use crate::directory::GroupContext;
use crate::error::{AtomError, AtomResult};

/// Options controlling how a group executes a mixing iteration.
#[derive(Clone, Copy, Debug)]
pub struct GroupStepOptions {
    /// Defence variant in force.
    pub defense: Defense,
    /// Number of worker threads used for the re-encryption of a batch
    /// (the trap variant parallelizes almost perfectly, §6.1/Fig. 7).
    pub parallelism: usize,
}

impl GroupStepOptions {
    /// Sequential execution with the given defence.
    pub fn new(defense: Defense) -> Self {
        Self {
            defense,
            parallelism: 1,
        }
    }
}

/// The output of one group mixing iteration.
#[derive(Clone, Debug)]
pub struct GroupStepOutput {
    /// One finalized sub-batch per neighbouring group (empty on the exit
    /// layer).
    pub outputs: Vec<Vec<MessageCiphertext>>,
    /// Decrypted mix payloads (populated only on the exit layer).
    pub plaintexts: Vec<Vec<u8>>,
}

/// Applies a shuffle-stage misbehaviour to a batch in place; `group_pk` is
/// needed to forge replacement ciphertexts.
fn apply_misbehavior<R: RngCore + CryptoRng>(
    action: &Misbehavior,
    batch: &mut Vec<MessageCiphertext>,
    group_pk: &PublicKey,
    padded_len: usize,
    rng: &mut R,
) -> AtomResult<()> {
    match *action {
        Misbehavior::DropMessage { slot } => {
            if slot < batch.len() {
                batch.remove(slot);
            }
        }
        Misbehavior::DuplicateMessage { slot, source } => {
            if slot < batch.len() && source < batch.len() {
                batch[slot] = batch[source].clone();
            }
        }
        Misbehavior::ReplaceMessage { slot } => {
            if slot < batch.len() {
                let points = encode_message_padded(b"adversarial substitution", padded_len)
                    .map_err(AtomError::Crypto)?;
                batch[slot] = encrypt_message(group_pk, &points, rng).0;
            }
        }
        Misbehavior::TamperCiphertext { slot } => maul(batch, slot),
        // Strikes in step 3, after the re-encryption proof.
        Misbehavior::MaulReencryption { .. } => {}
    }
    Ok(())
}

/// Shifts one group element of the message at `slot` (if there is one).
fn maul(batch: &mut [MessageCiphertext], slot: usize) {
    if let Some(component) = batch
        .get_mut(slot)
        .and_then(|message| message.components.first_mut())
    {
        component.c += curve25519_dalek::constants::RISTRETTO_BASEPOINT_POINT;
    }
}

/// One statement per message of a sub-batch, all under the same keys.
fn reenc_statements<'a>(
    peel_public: &'a atom_crypto::RistrettoPoint,
    next_pk: Option<&'a PublicKey>,
    inputs: &'a [MessageCiphertext],
    outputs: &'a [MessageCiphertext],
) -> Vec<ReEncStatement<'a>> {
    inputs
        .iter()
        .zip(outputs)
        .map(|(input, output)| ReEncStatement {
            peel_public,
            next_pk,
            input,
            output,
        })
        .collect()
}

/// Re-encrypts every message of a sub-batch with the given peel exponent,
/// optionally across several worker threads.
fn reencrypt_batch(
    peel_exponent: &atom_crypto::Scalar,
    next_pk: Option<&PublicKey>,
    batch: &[MessageCiphertext],
    parallelism: usize,
    rng: &mut (impl RngCore + CryptoRng),
) -> Vec<(MessageCiphertext, Vec<ReEncWitness>)> {
    if parallelism <= 1 || batch.len() < 2 {
        return batch
            .iter()
            .map(|message| reencrypt_message(peel_exponent, next_pk, message, rng))
            .collect();
    }

    let workers = parallelism.min(batch.len());
    let chunk_size = batch.len().div_ceil(workers);
    let seeds: Vec<u64> = (0..workers).map(|_| rng.next_u64()).collect();
    let mut results: Vec<Option<(MessageCiphertext, Vec<ReEncWitness>)>> = vec![None; batch.len()];

    std::thread::scope(|scope| {
        let mut handles = Vec::new();
        for (worker, chunk) in batch.chunks(chunk_size).enumerate() {
            let seed = seeds[worker];
            let start = worker * chunk_size;
            handles.push((
                start,
                scope.spawn(move || {
                    let mut local_rng = StdRng::seed_from_u64(seed);
                    chunk
                        .iter()
                        .map(|message| {
                            reencrypt_message(peel_exponent, next_pk, message, &mut local_rng)
                        })
                        .collect::<Vec<_>>()
                }),
            ));
        }
        for (start, handle) in handles {
            for (offset, value) in handle
                .join()
                .expect("re-encryption worker panicked")
                .into_iter()
                .enumerate()
            {
                results[start + offset] = Some(value);
            }
        }
    });

    results
        .into_iter()
        .map(|r| r.expect("all slots filled"))
        .collect()
}

/// Runs one full mixing iteration of a group (Algorithm 1 / Algorithm 2).
///
/// * `participating` — 1-based member indices taking part (from
///   [`GroupContext::participating`]).
/// * `next_group_keys` — the public keys of the β neighbouring groups for
///   this iteration; pass an empty slice on the exit layer.
/// * `padded_len` — the fixed mix-payload length (needed to parse exit
///   plaintexts and to forge replacements for adversarial tests).
/// * `adversary` — optional misbehaviour plan already filtered to this group
///   and iteration.
#[allow(clippy::too_many_arguments)]
pub fn group_mix_iteration<R: RngCore + CryptoRng>(
    group: &GroupContext,
    participating: &[u64],
    mut batch: Vec<MessageCiphertext>,
    next_group_keys: &[PublicKey],
    padded_len: usize,
    options: &GroupStepOptions,
    adversary: Option<&AdversaryPlan>,
    rng: &mut R,
) -> AtomResult<GroupStepOutput> {
    if participating.len() < group.threshold {
        return Err(AtomError::TooManyFailures {
            group: group.id,
            failed: group.members.len() - participating.len(),
            tolerated: group.members.len() - group.threshold,
        });
    }
    if batch.is_empty() {
        return Ok(GroupStepOutput {
            outputs: vec![Vec::new(); next_group_keys.len()],
            plaintexts: Vec::new(),
        });
    }

    // ----- Step 1: sequential shuffles under the group key. -----
    if options.defense == Defense::Nizk {
        // Run the whole shuffle chain first (same RNG draw order as proving
        // and verifying inline — verification draws nothing), collecting
        // each member's (inputs, outputs, proof) link, then settle every
        // proof through one combined RLC check. On batch failure the
        // verifier falls back per proof and reports the first failing link,
        // so the blamed member and reason match inline verification
        // exactly. A prover-side error mid-chain only surfaces after the
        // links collected before it have been checked: an earlier member's
        // violation outranks it, exactly as it would inline.
        let mut stages: Vec<Vec<MessageCiphertext>> = vec![std::mem::take(&mut batch)];
        let mut proofs = Vec::with_capacity(participating.len());
        let mut provers = Vec::with_capacity(participating.len());
        let mut chain_error = None;
        for &member in participating {
            let misbehaving = adversary.filter(|plan| plan.member == member);
            let inputs = stages.last().expect("stage 0 seeded");
            let (mut shuffled, witness) = match shuffle(&group.public_key, inputs, rng) {
                Ok(pair) => pair,
                Err(err) => {
                    chain_error = Some(AtomError::Crypto(err));
                    break;
                }
            };
            let proof = match prove_shuffle(&group.public_key, inputs, &shuffled, &witness, rng) {
                Ok(proof) => proof,
                Err(err) => {
                    chain_error = Some(AtomError::Crypto(err));
                    break;
                }
            };
            // Misbehaviour happens *after* proving: the server publishes a
            // tampered output batch alongside an honest-looking proof.
            if let Some(plan) = misbehaving {
                if let Err(err) = apply_misbehavior(
                    &plan.action,
                    &mut shuffled,
                    &group.public_key,
                    padded_len,
                    rng,
                ) {
                    chain_error = Some(err);
                    break;
                }
            }
            stages.push(shuffled);
            proofs.push(proof);
            provers.push(member);
        }
        let items: Vec<ShuffleVerification<'_>> = proofs
            .iter()
            .enumerate()
            .map(|(link, proof)| ShuffleVerification {
                pk: &group.public_key,
                inputs: &stages[link],
                outputs: &stages[link + 1],
                proof,
            })
            .collect();
        if let Err((link, err)) = verify_shuffle_batch(&items) {
            return Err(AtomError::ProtocolViolation {
                group: group.id,
                member: Some(provers[link] as usize),
                reason: format!("shuffle proof rejected: {err}"),
            });
        }
        if let Some(err) = chain_error {
            return Err(err);
        }
        batch = stages.pop().expect("stage 0 seeded");
    } else {
        for &member in participating {
            let misbehaving = adversary.filter(|plan| plan.member == member);
            let (mut shuffled, _witness) =
                shuffle(&group.public_key, &batch, rng).map_err(AtomError::Crypto)?;
            if let Some(plan) = misbehaving {
                apply_misbehavior(
                    &plan.action,
                    &mut shuffled,
                    &group.public_key,
                    padded_len,
                    rng,
                )?;
            }
            batch = shuffled;
        }
    }

    // ----- Step 2: the last member divides the batch into β sub-batches. -----
    // Messages are dealt round-robin, rotated by the group id so that
    // remainders do not systematically favour low-numbered neighbours.
    let beta = next_group_keys.len().max(1);
    let mut sub_batches: Vec<Vec<MessageCiphertext>> = vec![Vec::new(); beta];
    for (slot, message) in batch.into_iter().enumerate() {
        sub_batches[(slot + group.id) % beta].push(message);
    }

    // ----- Step 3: sequential decrypt-and-re-encrypt by every member. -----
    let exit_layer = next_group_keys.is_empty();
    for (position, &member) in participating.iter().enumerate() {
        let share = group.share(member);
        let peel = share
            .peel_exponent(participating)
            .map_err(AtomError::Crypto)?;
        let peel_public = share
            .peel_verification_key(participating, member)
            .map_err(AtomError::Crypto)?;
        let last_member = position + 1 == participating.len();
        let misbehaving = adversary.filter(|plan| plan.member == member);

        for (batch_index, sub_batch) in sub_batches.iter_mut().enumerate() {
            if sub_batch.is_empty() {
                continue;
            }
            let next_pk = if exit_layer {
                None
            } else {
                Some(&next_group_keys[batch_index])
            };
            let (mut next, witnesses): (Vec<MessageCiphertext>, Vec<Vec<ReEncWitness>>) =
                reencrypt_batch(&peel, next_pk, sub_batch, options.parallelism, rng)
                    .into_iter()
                    .unzip();

            // One aggregated proof per (member, sub-batch).
            let proof = if options.defense == Defense::Nizk {
                let witnesses: Vec<&[ReEncWitness]> = witnesses.iter().map(Vec::as_slice).collect();
                let statements = reenc_statements(&peel_public, next_pk, sub_batch, &next);
                Some(
                    prove_reencryption_slice(&statements, &witnesses, rng)
                        .map_err(AtomError::Crypto)?,
                )
            } else {
                None
            };
            // Misbehaviour happens *after* proving: the server publishes a
            // mauled sub-batch alongside an honest-looking proof.
            if let Some(Misbehavior::MaulReencryption { slot }) = misbehaving.map(|p| p.action) {
                maul(&mut next, slot);
            }
            // The rest of the group checks what was published. A rejection
            // names the member, not the message — all that blame needs.
            if let Some(proof) = proof {
                let statements = reenc_statements(&peel_public, next_pk, sub_batch, &next);
                if let Err(err) = verify_reencryption_slice(&statements, &proof) {
                    return Err(AtomError::ProtocolViolation {
                        group: group.id,
                        member: Some(member as usize),
                        reason: format!("re-encryption proof rejected: {err}"),
                    });
                }
            }

            if last_member && !exit_layer {
                next = next
                    .iter()
                    .map(MessageCiphertext::finalize_handoff)
                    .collect();
            }
            *sub_batch = next;
        }
    }

    // ----- Exit layer: decode the plaintext payloads. -----
    if exit_layer {
        let mut plaintexts = Vec::new();
        for message in sub_batches.into_iter().flatten() {
            let points: Vec<atom_crypto::RistrettoPoint> = message
                .components
                .iter()
                .map(|c| c.into_plaintext_point())
                .collect();
            // A plaintext that fails to decode was tampered with in transit
            // (or submitted malformed); surface it as an empty payload so the
            // round-level checks (trap matching, counts) flag it rather than
            // crashing the exit server.
            let bytes = decode_message(&points).unwrap_or_default();
            plaintexts.push(bytes);
        }
        return Ok(GroupStepOutput {
            outputs: Vec::new(),
            plaintexts,
        });
    }

    Ok(GroupStepOutput {
        outputs: sub_batches,
        plaintexts: Vec::new(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::AtomConfig;
    use crate::directory::derive_setup;
    use crate::message::{nizk_payload_len, MixPayload};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn rng() -> StdRng {
        StdRng::seed_from_u64(2024)
    }

    fn encrypt_batch(
        group_pk: &PublicKey,
        payloads: &[&[u8]],
        padded_len: usize,
        rng: &mut StdRng,
    ) -> Vec<MessageCiphertext> {
        payloads
            .iter()
            .map(|payload| {
                let framed = MixPayload::Plaintext(payload.to_vec())
                    .to_bytes(padded_len)
                    .unwrap();
                let points = encode_message_padded(&framed, padded_len).unwrap();
                encrypt_message(group_pk, &points, rng).0
            })
            .collect()
    }

    #[test]
    fn single_group_exit_iteration_recovers_plaintexts() {
        let mut rng = rng();
        let config = AtomConfig::test_default();
        let setup = derive_setup(&config).unwrap();
        let group = &setup.groups[0];
        let padded_len = nizk_payload_len(config.message_len);

        let batch = encrypt_batch(
            &group.public_key,
            &[b"alpha", b"bravo", b"charlie"],
            padded_len,
            &mut rng,
        );
        let participating = group.participating(&[]).unwrap();
        let output = group_mix_iteration(
            group,
            &participating,
            batch,
            &[],
            padded_len,
            &GroupStepOptions::new(Defense::Trap),
            None,
            &mut rng,
        )
        .unwrap();

        assert!(output.outputs.is_empty());
        let mut recovered: Vec<Vec<u8>> = output
            .plaintexts
            .iter()
            .map(|bytes| match MixPayload::from_bytes(bytes).unwrap() {
                MixPayload::Inner(content) => content,
                other => panic!("unexpected payload {other:?}"),
            })
            .collect();
        recovered.sort();
        assert_eq!(
            recovered,
            vec![b"alpha".to_vec(), b"bravo".to_vec(), b"charlie".to_vec()]
        );
    }

    #[test]
    fn two_group_handoff_preserves_messages() {
        let mut rng = rng();
        let mut config = AtomConfig::test_default();
        config.num_groups = 2;
        config.iterations = 2;
        let setup = derive_setup(&config).unwrap();
        let padded_len = nizk_payload_len(config.message_len);

        let first = &setup.groups[0];
        let second = &setup.groups[1];
        let batch = encrypt_batch(
            &first.public_key,
            &[b"one", b"two", b"three", b"four"],
            padded_len,
            &mut rng,
        );

        let participating = first.participating(&[]).unwrap();
        let step1 = group_mix_iteration(
            first,
            &participating,
            batch,
            &[second.public_key],
            padded_len,
            &GroupStepOptions::new(Defense::Trap),
            None,
            &mut rng,
        )
        .unwrap();
        assert_eq!(step1.outputs.len(), 1);
        assert_eq!(step1.outputs[0].len(), 4);
        assert!(step1.outputs[0].iter().all(|m| m.is_fresh()));

        let participating2 = second.participating(&[]).unwrap();
        let step2 = group_mix_iteration(
            second,
            &participating2,
            step1.outputs.into_iter().next().unwrap(),
            &[],
            padded_len,
            &GroupStepOptions::new(Defense::Trap),
            None,
            &mut rng,
        )
        .unwrap();

        let mut recovered: Vec<Vec<u8>> = step2
            .plaintexts
            .iter()
            .map(|bytes| match MixPayload::from_bytes(bytes).unwrap() {
                MixPayload::Inner(content) => content,
                other => panic!("unexpected payload {other:?}"),
            })
            .collect();
        recovered.sort();
        assert_eq!(
            recovered,
            vec![
                b"four".to_vec(),
                b"one".to_vec(),
                b"three".to_vec(),
                b"two".to_vec()
            ]
        );
    }

    #[test]
    fn nizk_variant_detects_tampering_and_identifies_member() {
        let mut rng = rng();
        let mut config = AtomConfig::test_default();
        config.defense = Defense::Nizk;
        let setup = derive_setup(&config).unwrap();
        let group = &setup.groups[1];
        let padded_len = nizk_payload_len(config.message_len);
        let batch = encrypt_batch(
            &group.public_key,
            &[b"a", b"b", b"c", b"d"],
            padded_len,
            &mut rng,
        );
        let participating = group.participating(&[]).unwrap();

        let plan = AdversaryPlan {
            group: group.id,
            member: 2,
            iteration: 0,
            action: Misbehavior::DropMessage { slot: 1 },
        };
        let result = group_mix_iteration(
            group,
            &participating,
            batch,
            &[setup.groups[0].public_key],
            padded_len,
            &GroupStepOptions::new(Defense::Nizk),
            Some(&plan),
            &mut rng,
        );
        match result {
            Err(AtomError::ProtocolViolation {
                group: g, member, ..
            }) => {
                assert_eq!(g, group.id);
                assert_eq!(member, Some(2));
            }
            other => panic!("expected protocol violation, got {other:?}"),
        }
    }

    #[test]
    fn nizk_variant_detects_ciphertext_mauling() {
        let mut rng = rng();
        let mut config = AtomConfig::test_default();
        config.defense = Defense::Nizk;
        let setup = derive_setup(&config).unwrap();
        let group = &setup.groups[0];
        let padded_len = nizk_payload_len(config.message_len);
        let batch = encrypt_batch(&group.public_key, &[b"a", b"b"], padded_len, &mut rng);
        let participating = group.participating(&[]).unwrap();

        let plan = AdversaryPlan {
            group: group.id,
            member: 1,
            iteration: 0,
            action: Misbehavior::TamperCiphertext { slot: 0 },
        };
        let result = group_mix_iteration(
            group,
            &participating,
            batch,
            &[setup.groups[1].public_key],
            padded_len,
            &GroupStepOptions::new(Defense::Nizk),
            Some(&plan),
            &mut rng,
        );
        assert!(matches!(result, Err(AtomError::ProtocolViolation { .. })));
    }

    #[test]
    fn mauled_reencryption_names_its_member_in_nizk_and_passes_through_in_trap() {
        // Every member position, towards a next group and on the exit layer.
        for exit_layer in [false, true] {
            for member in 1..=3u64 {
                let run = |defense: Defense| {
                    let mut rng = rng();
                    let mut config = AtomConfig::test_default();
                    config.defense = defense;
                    let setup = derive_setup(&config).unwrap();
                    let group = &setup.groups[1];
                    let padded_len = nizk_payload_len(config.message_len);
                    let batch = encrypt_batch(
                        &group.public_key,
                        &[b"a", b"b", b"c", b"d"],
                        padded_len,
                        &mut rng,
                    );
                    let participating = group.participating(&[]).unwrap();
                    assert!(participating.contains(&member));
                    let plan = AdversaryPlan {
                        group: group.id,
                        member,
                        iteration: 0,
                        action: Misbehavior::MaulReencryption { slot: 1 },
                    };
                    let next_keys = [setup.groups[0].public_key, setup.groups[2].public_key];
                    group_mix_iteration(
                        group,
                        &participating,
                        batch,
                        if exit_layer { &[] } else { &next_keys },
                        padded_len,
                        &GroupStepOptions::new(defense),
                        Some(&plan),
                        &mut rng,
                    )
                };
                match run(Defense::Nizk) {
                    Err(AtomError::ProtocolViolation {
                        group,
                        member: blamed,
                        reason,
                    }) => {
                        assert_eq!(group, 1);
                        assert_eq!(blamed, Some(member as usize));
                        assert!(
                            reason.starts_with("re-encryption proof rejected"),
                            "{reason}"
                        );
                    }
                    other => panic!("expected protocol violation, got {other:?}"),
                }
                // The trap variant checks nothing here: all four messages
                // leave the group, for the round-level trap check to judge.
                let output = run(Defense::Trap).unwrap();
                let delivered = if exit_layer {
                    output.plaintexts.len()
                } else {
                    output.outputs.iter().map(Vec::len).sum()
                };
                assert_eq!(delivered, 4);
            }
        }
    }

    #[test]
    fn trap_variant_lets_tampering_through_for_later_detection() {
        // The trap variant does not verify shuffles; a dropped message
        // surfaces only at the trap check (tested in round.rs).
        let mut rng = rng();
        let config = AtomConfig::test_default();
        let setup = derive_setup(&config).unwrap();
        let group = &setup.groups[0];
        let padded_len = nizk_payload_len(config.message_len);
        let batch = encrypt_batch(&group.public_key, &[b"a", b"b", b"c"], padded_len, &mut rng);
        let participating = group.participating(&[]).unwrap();
        let plan = AdversaryPlan {
            group: group.id,
            member: 1,
            iteration: 0,
            action: Misbehavior::DropMessage { slot: 0 },
        };
        let output = group_mix_iteration(
            group,
            &participating,
            batch,
            &[],
            padded_len,
            &GroupStepOptions::new(Defense::Trap),
            Some(&plan),
            &mut rng,
        )
        .unwrap();
        assert_eq!(output.plaintexts.len(), 2);
    }

    #[test]
    fn parallel_reencryption_matches_sequential_semantics() {
        let mut rng = rng();
        let config = AtomConfig::test_default();
        let setup = derive_setup(&config).unwrap();
        let group = &setup.groups[0];
        let padded_len = nizk_payload_len(config.message_len);
        let payloads: Vec<Vec<u8>> = (0..6u8).map(|i| vec![b'p', i]).collect();
        let payload_refs: Vec<&[u8]> = payloads.iter().map(|p| p.as_slice()).collect();
        let batch = encrypt_batch(&group.public_key, &payload_refs, padded_len, &mut rng);
        let participating = group.participating(&[]).unwrap();

        let options = GroupStepOptions {
            defense: Defense::Trap,
            parallelism: 4,
        };
        let output = group_mix_iteration(
            group,
            &participating,
            batch,
            &[],
            padded_len,
            &options,
            None,
            &mut rng,
        )
        .unwrap();
        let mut recovered: Vec<Vec<u8>> = output
            .plaintexts
            .iter()
            .map(|bytes| match MixPayload::from_bytes(bytes).unwrap() {
                MixPayload::Inner(content) => content,
                other => panic!("unexpected payload {other:?}"),
            })
            .collect();
        recovered.sort();
        let mut expected = payloads;
        expected.sort();
        assert_eq!(recovered, expected);
    }

    #[test]
    fn too_few_participants_rejected() {
        let mut rng = rng();
        let config = AtomConfig::test_default();
        let setup = derive_setup(&config).unwrap();
        let group = &setup.groups[0];
        let padded_len = nizk_payload_len(config.message_len);
        let batch = encrypt_batch(&group.public_key, &[b"a"], padded_len, &mut rng);
        let result = group_mix_iteration(
            group,
            &[1, 2],
            batch,
            &[],
            padded_len,
            &GroupStepOptions::new(Defense::Trap),
            None,
            &mut rng,
        );
        assert!(matches!(result, Err(AtomError::TooManyFailures { .. })));
    }

    #[test]
    fn empty_batch_produces_empty_outputs() {
        let mut rng = rng();
        let config = AtomConfig::test_default();
        let setup = derive_setup(&config).unwrap();
        let group = &setup.groups[0];
        let participating = group.participating(&[]).unwrap();
        let output = group_mix_iteration(
            group,
            &participating,
            Vec::new(),
            &[setup.groups[1].public_key, setup.groups[2].public_key],
            nizk_payload_len(32),
            &GroupStepOptions::new(Defense::Trap),
            None,
            &mut rng,
        )
        .unwrap();
        assert_eq!(output.outputs.len(), 2);
        assert!(output.outputs.iter().all(Vec::is_empty));
    }
}
