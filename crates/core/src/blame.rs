//! Identifying malicious users after a disrupted trap-variant round (§4.6).
//!
//! Malicious *users* can disrupt a trap-variant round by submitting missing,
//! malformed or duplicate traps, or duplicate inner ciphertexts. The servers
//! only notice at the end of the round, but they can then assign blame: all
//! entry groups reveal their (per-round) private keys, every submission is
//! decrypted in the open, and any user whose submission does not consist of
//! exactly one well-formed trap matching her commitment plus one inner
//! ciphertext — or who duplicated another user's inner ciphertext — is
//! reported for blacklisting.

use std::collections::HashMap;

use atom_crypto::commit;
use atom_crypto::dkg::reconstruct_group_secret;
use atom_crypto::elgamal::{decrypt_message, SecretKey};
use atom_crypto::encoding::decode_message;

use crate::directory::RoundSetup;
use crate::error::{AtomError, AtomResult};
use crate::message::{MixPayload, TrapSubmission, TRAP_COMMIT_LABEL};

/// Why a user was blamed.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum BlameReason {
    /// The submission did not contain exactly one trap and one inner
    /// ciphertext, or a payload failed to parse.
    MalformedSubmission,
    /// The trap does not match the commitment the user supplied.
    TrapCommitmentMismatch,
    /// The trap names a different entry group than the one submitted to.
    WrongEntryGroup,
    /// The inner ciphertext duplicates another user's.
    DuplicateInnerCiphertext,
}

/// A blame verdict for one user.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Blame {
    /// Index of the offending submission in the order given.
    pub submission_index: usize,
    /// Why it was flagged.
    pub reason: BlameReason,
}

/// Decrypts every submission with the revealed entry-group keys and reports
/// the users whose submissions could have disrupted the round.
///
/// `submissions` must be the same slice the round was (attempted to be) run
/// with; the returned indices refer to it.
pub fn identify_malicious_users(
    setup: &RoundSetup,
    submissions: &[TrapSubmission],
) -> AtomResult<Vec<Blame>> {
    // Reveal each entry group's secret key (the keys are per-round, so this
    // sacrifices nothing beyond the already-aborted round).
    let mut group_secrets = Vec::with_capacity(setup.groups.len());
    for group in &setup.groups {
        let shares: Vec<_> = group.shares.iter().collect();
        let secret =
            reconstruct_group_secret(&shares[..group.threshold]).map_err(AtomError::Crypto)?;
        group_secrets.push(SecretKey(secret));
    }

    let mut blames = Vec::new();
    let mut inner_seen: HashMap<[u8; 32], usize> = HashMap::new();

    for (index, submission) in submissions.iter().enumerate() {
        let gid = submission.entry_group;
        if gid >= setup.groups.len() {
            blames.push(Blame {
                submission_index: index,
                reason: BlameReason::MalformedSubmission,
            });
            continue;
        }
        let secret = &group_secrets[gid];

        let mut traps = Vec::new();
        let mut inners = Vec::new();
        let mut malformed = false;
        for ciphertext in &submission.ciphertexts {
            let Ok(points) = decrypt_message(secret, ciphertext) else {
                malformed = true;
                continue;
            };
            let Ok(bytes) = decode_message(&points) else {
                malformed = true;
                continue;
            };
            match MixPayload::from_bytes(&bytes) {
                Ok(MixPayload::Trap { gid, nonce }) => traps.push((gid, nonce)),
                Ok(MixPayload::Inner(inner)) | Ok(MixPayload::Plaintext(inner)) => {
                    inners.push(inner)
                }
                Err(_) => malformed = true,
            }
        }

        if malformed || traps.len() != 1 || inners.len() != 1 {
            blames.push(Blame {
                submission_index: index,
                reason: BlameReason::MalformedSubmission,
            });
            continue;
        }

        let (trap_gid, nonce) = traps[0];
        if trap_gid as usize != gid {
            blames.push(Blame {
                submission_index: index,
                reason: BlameReason::WrongEntryGroup,
            });
            continue;
        }
        let expected = commit::commit(
            TRAP_COMMIT_LABEL,
            &MixPayload::trap_commit_bytes(trap_gid, &nonce),
        );
        if expected != submission.trap_commitment {
            blames.push(Blame {
                submission_index: index,
                reason: BlameReason::TrapCommitmentMismatch,
            });
            continue;
        }

        let digest = commit::commit(b"inner-dup", &inners[0]).0;
        if let Some(&first) = inner_seen.get(&digest) {
            blames.push(Blame {
                submission_index: index,
                reason: BlameReason::DuplicateInnerCiphertext,
            });
            // Also flag the first submitter? The paper reports users who
            // "submitted the same inner ciphertexts"; we flag the later copy
            // and leave the original alone, since the copier is the attacker
            // in the replay scenario.
            let _ = first;
            continue;
        }
        inner_seen.insert(digest, index);
    }

    Ok(blames)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::AtomConfig;
    use crate::directory::derive_setup;
    use crate::message::make_trap_submission;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn fixture() -> (StdRng, RoundSetup, Vec<TrapSubmission>) {
        let mut rng = StdRng::seed_from_u64(5150);
        let mut config = AtomConfig::test_default();
        config.num_groups = 2;
        config.message_len = 24;
        let setup = derive_setup(&config).unwrap();
        let submissions: Vec<TrapSubmission> = (0..4)
            .map(|i| {
                let gid = i % 2;
                make_trap_submission(
                    gid,
                    &setup.groups[gid].public_key,
                    &setup.trustees.public_key,
                    0,
                    format!("message {i}").as_bytes(),
                    24,
                    &mut rng,
                )
                .unwrap()
                .0
            })
            .collect();
        (rng, setup, submissions)
    }

    #[test]
    fn honest_users_are_not_blamed() {
        let (_, setup, submissions) = fixture();
        assert!(identify_malicious_users(&setup, &submissions)
            .unwrap()
            .is_empty());
    }

    #[test]
    fn wrong_commitment_is_blamed() {
        let (_, setup, mut submissions) = fixture();
        submissions[1].trap_commitment = commit::commit(b"bogus", b"bogus");
        let blames = identify_malicious_users(&setup, &submissions).unwrap();
        assert_eq!(blames.len(), 1);
        assert_eq!(blames[0].submission_index, 1);
        assert_eq!(blames[0].reason, BlameReason::TrapCommitmentMismatch);
    }

    #[test]
    fn duplicate_inner_ciphertext_is_blamed() {
        let (_, setup, mut submissions) = fixture();
        // User 3 replays user 0's ciphertexts wholesale (both slots), keeping
        // its own commitment; entry groups differ so the EncProof replay
        // would already fail, but blame must also catch it.
        submissions[3] = TrapSubmission {
            entry_group: submissions[0].entry_group,
            ciphertexts: submissions[0].ciphertexts.clone(),
            proofs: submissions[0].proofs.clone(),
            trap_commitment: submissions[0].trap_commitment,
        };
        let blames = identify_malicious_users(&setup, &submissions).unwrap();
        assert_eq!(blames.len(), 1);
        assert_eq!(blames[0].submission_index, 3);
        assert_eq!(blames[0].reason, BlameReason::DuplicateInnerCiphertext);
    }

    #[test]
    fn submission_with_two_traps_is_blamed() {
        let (mut rng, setup, mut submissions) = fixture();
        // Replace the inner-ciphertext slot with a second trap-shaped payload
        // by re-encrypting a trap payload for the entry group.
        let gid = submissions[2].entry_group;
        let padded = crate::message::trap_payload_len(24);
        let payload = MixPayload::Trap {
            gid: gid as u32,
            nonce: [7u8; 16],
        }
        .to_bytes(padded)
        .unwrap();
        let points = atom_crypto::encoding::encode_message_padded(&payload, padded).unwrap();
        let (ciphertext, _) =
            atom_crypto::elgamal::encrypt_message(&setup.groups[gid].public_key, &points, &mut rng);
        submissions[2].ciphertexts[0] = ciphertext.clone();
        submissions[2].ciphertexts[1] = ciphertext;
        let blames = identify_malicious_users(&setup, &submissions).unwrap();
        assert_eq!(blames.len(), 1);
        assert_eq!(blames[0].submission_index, 2);
        assert_eq!(blames[0].reason, BlameReason::MalformedSubmission);
    }

    #[test]
    fn trap_for_wrong_group_is_blamed() {
        let (mut rng, setup, mut submissions) = fixture();
        // Craft a submission whose trap names the other group.
        let gid = 0usize;
        let other = 1u32;
        let padded = crate::message::trap_payload_len(24);
        let nonce = [3u8; 16];
        let trap_payload = MixPayload::Trap { gid: other, nonce }
            .to_bytes(padded)
            .unwrap();
        let inner_payload = MixPayload::Inner(vec![5u8; 24 + 48])
            .to_bytes(padded)
            .unwrap();
        let encrypt = |payload: &[u8], rng: &mut StdRng| {
            let points = atom_crypto::encoding::encode_message_padded(payload, padded).unwrap();
            atom_crypto::elgamal::encrypt_message(&setup.groups[gid].public_key, &points, rng).0
        };
        submissions[0] = TrapSubmission {
            entry_group: gid,
            ciphertexts: [
                encrypt(&trap_payload, &mut rng),
                encrypt(&inner_payload, &mut rng),
            ],
            proofs: submissions[0].proofs.clone(),
            trap_commitment: commit::commit(
                TRAP_COMMIT_LABEL,
                &MixPayload::trap_commit_bytes(other, &nonce),
            ),
        };
        let blames = identify_malicious_users(&setup, &submissions).unwrap();
        assert_eq!(blames.len(), 1);
        assert_eq!(blames[0].reason, BlameReason::WrongEntryGroup);
    }
}
