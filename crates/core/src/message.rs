//! Client-side message construction and the mix-payload wire format.
//!
//! * In the **NIZK variant** (§4.3) a user submits one ciphertext of her
//!   padded plaintext plus an `EncProof`.
//! * In the **trap variant** (§4.4) she submits two ciphertexts in random
//!   order — the IND-CCA2 *inner ciphertext* of her message encrypted to the
//!   trustees, and a *trap* naming her entry group and a random nonce — plus
//!   `EncProof`s for both and a SHA-3 commitment to the trap.
//!
//! Both kinds of mix payload share a fixed-length framing so that traps and
//! inner ciphertexts are indistinguishable on the wire:
//! `tag (1 byte) ‖ length (2 bytes LE) ‖ content ‖ zero padding`.

use rand::{CryptoRng, Rng, RngCore};
use serde::{Deserialize, Serialize};

use atom_crypto::cca2::{self, HybridCiphertext};
use atom_crypto::commit::{self, Commitment};
use atom_crypto::elgamal::{encrypt_message, MessageCiphertext, PublicKey};
use atom_crypto::encoding::encode_message_padded;
use atom_crypto::keccak::sha3_256;
use atom_crypto::nizk::enc::{prove_encryption, EncProof};

use crate::error::{AtomError, AtomResult};

/// Tag byte marking an inner ciphertext (`M` in the paper).
const TAG_INNER: u8 = b'M';
/// Tag byte marking a trap message (`T` in the paper).
const TAG_TRAP: u8 = b'T';
/// Domain-separation label for trap commitments.
pub(crate) const TRAP_COMMIT_LABEL: &[u8] = b"atom-trap";
/// Size of a trap nonce in bytes.
const TRAP_NONCE_LEN: usize = 16;

/// Overhead the CCA2 envelope adds to a plaintext: 32-byte KEM encapsulation
/// plus a 16-byte AEAD tag.
const INNER_OVERHEAD: usize = 32 + 16;
/// Framing overhead of a mix payload: tag byte plus 2-byte length.
const FRAME_OVERHEAD: usize = 3;

/// The fixed mix-payload length (in bytes) for a deployment with plaintext
/// length `message_len` in the trap variant: every trap and every inner
/// ciphertext is padded to this size.
pub fn trap_payload_len(message_len: usize) -> usize {
    let inner = message_len + INNER_OVERHEAD;
    let trap = 4 + TRAP_NONCE_LEN;
    FRAME_OVERHEAD + inner.max(trap)
}

/// The fixed mix-payload length for the NIZK variant (plaintext routed
/// directly, framed for unambiguous unpadding).
pub fn nizk_payload_len(message_len: usize) -> usize {
    FRAME_OVERHEAD + message_len
}

/// A parsed mix payload, as recovered by an exit group.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum MixPayload {
    /// A user plaintext routed directly (NIZK variant).
    Plaintext(Vec<u8>),
    /// An inner ciphertext to be forwarded for trustee-gated decryption.
    Inner(Vec<u8>),
    /// A trap message to be returned to its entry group for checking.
    Trap {
        /// The entry group that holds the matching commitment.
        gid: u32,
        /// The user's random nonce.
        nonce: [u8; TRAP_NONCE_LEN],
    },
}

impl MixPayload {
    /// Serializes the payload with framing, padded to `padded_len`.
    pub fn to_bytes(&self, padded_len: usize) -> AtomResult<Vec<u8>> {
        let (tag, content) = match self {
            MixPayload::Plaintext(data) => (TAG_INNER, data.clone()),
            MixPayload::Inner(data) => (TAG_INNER, data.clone()),
            MixPayload::Trap { gid, nonce } => {
                let mut content = Vec::with_capacity(4 + TRAP_NONCE_LEN);
                content.extend_from_slice(&gid.to_le_bytes());
                content.extend_from_slice(nonce);
                (TAG_TRAP, content)
            }
        };
        if content.len() > u16::MAX as usize || FRAME_OVERHEAD + content.len() > padded_len {
            return Err(AtomError::Malformed(format!(
                "payload of {} bytes does not fit padded length {}",
                content.len(),
                padded_len
            )));
        }
        let mut out = Vec::with_capacity(padded_len);
        out.push(tag);
        out.extend_from_slice(&(content.len() as u16).to_le_bytes());
        out.extend_from_slice(&content);
        out.resize(padded_len, 0);
        Ok(out)
    }

    /// Parses a framed payload (tolerating trailing padding).
    pub fn from_bytes(bytes: &[u8]) -> AtomResult<Self> {
        if bytes.len() < FRAME_OVERHEAD {
            return Err(AtomError::Malformed("mix payload too short".into()));
        }
        let tag = bytes[0];
        let len = u16::from_le_bytes([bytes[1], bytes[2]]) as usize;
        if FRAME_OVERHEAD + len > bytes.len() {
            return Err(AtomError::Malformed(
                "mix payload length out of range".into(),
            ));
        }
        let content = &bytes[FRAME_OVERHEAD..FRAME_OVERHEAD + len];
        match tag {
            TAG_TRAP => {
                if len != 4 + TRAP_NONCE_LEN {
                    return Err(AtomError::Malformed("trap payload has wrong length".into()));
                }
                let gid = u32::from_le_bytes(content[..4].try_into().unwrap());
                let mut nonce = [0u8; TRAP_NONCE_LEN];
                nonce.copy_from_slice(&content[4..]);
                Ok(MixPayload::Trap { gid, nonce })
            }
            TAG_INNER => Ok(MixPayload::Inner(content.to_vec())),
            other => Err(AtomError::Malformed(format!(
                "unknown mix payload tag {other:#x}"
            ))),
        }
    }

    /// The canonical bytes a trap commitment is computed over.
    pub(crate) fn trap_commit_bytes(gid: u32, nonce: &[u8; TRAP_NONCE_LEN]) -> Vec<u8> {
        let mut bytes = Vec::with_capacity(4 + TRAP_NONCE_LEN);
        bytes.extend_from_slice(&gid.to_le_bytes());
        bytes.extend_from_slice(nonce);
        bytes
    }
}

/// The exit-side load-balancing function for inner ciphertexts: a hash of the
/// ciphertext picks the group that will hold it for decryption (§4.4,
/// "a deterministic function that will load-balance").
pub(crate) fn inner_target_group(inner_bytes: &[u8], num_groups: usize) -> usize {
    let digest = sha3_256(inner_bytes);
    let mut value = 0u64;
    for &b in &digest[..8] {
        value = (value << 8) | b as u64;
    }
    (value % num_groups as u64) as usize
}

/// A user submission in the NIZK variant.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct NizkSubmission {
    /// The entry group chosen by the user.
    pub entry_group: usize,
    /// The encrypted, padded plaintext.
    pub ciphertext: MessageCiphertext,
    /// Proof of knowledge of the plaintext, bound to the entry group.
    pub proof: EncProof,
}

/// A user submission in the trap variant.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct TrapSubmission {
    /// The entry group chosen by the user.
    pub entry_group: usize,
    /// The two ciphertexts (inner ciphertext and trap) in a random order.
    pub ciphertexts: [MessageCiphertext; 2],
    /// Proofs of knowledge for both ciphertexts.
    pub proofs: [EncProof; 2],
    /// SHA-3 commitment to the trap message.
    pub trap_commitment: Commitment,
}

/// Everything the user keeps after submitting (needed to recognise her own
/// output and, in §4.6 blame, to prove she behaved).
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct SubmissionReceipt {
    /// The trap nonce (trap variant only).
    pub trap_nonce: Option<[u8; TRAP_NONCE_LEN]>,
    /// The padded plaintext submitted.
    pub padded_plaintext: Vec<u8>,
}

/// Builds a NIZK-variant submission.
pub fn make_nizk_submission<R: RngCore + CryptoRng>(
    entry_group: usize,
    group_pk: &PublicKey,
    message: &[u8],
    message_len: usize,
    rng: &mut R,
) -> AtomResult<(NizkSubmission, SubmissionReceipt)> {
    if message.len() > message_len {
        return Err(AtomError::Malformed(format!(
            "message of {} bytes exceeds configured length {}",
            message.len(),
            message_len
        )));
    }
    let padded_len = nizk_payload_len(message_len);
    let payload = MixPayload::Plaintext(message.to_vec()).to_bytes(padded_len)?;
    let points = encode_message_padded(&payload, padded_len)?;
    let (ciphertext, randomness) = encrypt_message(group_pk, &points, rng);
    let proof = prove_encryption(group_pk, entry_group as u64, &ciphertext, &randomness, rng)?;
    Ok((
        NizkSubmission {
            entry_group,
            ciphertext,
            proof,
        },
        SubmissionReceipt {
            trap_nonce: None,
            padded_plaintext: payload,
        },
    ))
}

/// Builds a trap-variant submission (§4.4 steps 1–5).
pub fn make_trap_submission<R: RngCore + CryptoRng>(
    entry_group: usize,
    group_pk: &PublicKey,
    trustee_pk: &PublicKey,
    round: u64,
    message: &[u8],
    message_len: usize,
    rng: &mut R,
) -> AtomResult<(TrapSubmission, SubmissionReceipt)> {
    if message.len() > message_len {
        return Err(AtomError::Malformed(format!(
            "message of {} bytes exceeds configured length {}",
            message.len(),
            message_len
        )));
    }
    let padded_len = trap_payload_len(message_len);

    // Step 1: encrypt the (padded) plaintext to the trustees.
    let mut padded_plaintext = message.to_vec();
    padded_plaintext.resize(message_len, 0);
    let inner: HybridCiphertext =
        cca2::encrypt(trustee_pk, &round.to_le_bytes(), &padded_plaintext, rng);
    let inner_payload = MixPayload::Inner(inner.to_bytes()).to_bytes(padded_len)?;

    // Step 3: generate the trap naming the entry group and a fresh nonce.
    let mut nonce = [0u8; TRAP_NONCE_LEN];
    rng.fill_bytes(&mut nonce);
    let trap_payload = MixPayload::Trap {
        gid: entry_group as u32,
        nonce,
    }
    .to_bytes(padded_len)?;
    let trap_commitment = commit::commit(
        TRAP_COMMIT_LABEL,
        &MixPayload::trap_commit_bytes(entry_group as u32, &nonce),
    );

    // Step 4: encrypt both payloads for the entry group with proofs.
    let build = |payload: &[u8], rng: &mut R| -> AtomResult<(MessageCiphertext, EncProof)> {
        let points = encode_message_padded(payload, padded_len)?;
        let (ciphertext, randomness) = encrypt_message(group_pk, &points, rng);
        let proof = prove_encryption(group_pk, entry_group as u64, &ciphertext, &randomness, rng)?;
        Ok((ciphertext, proof))
    };
    let (inner_ct, inner_proof) = build(&inner_payload, rng)?;
    let (trap_ct, trap_proof) = build(&trap_payload, rng)?;

    // Step 5: submit in a random order so servers cannot tell which is which.
    let (ciphertexts, proofs) = if rng.gen_bool(0.5) {
        ([inner_ct, trap_ct], [inner_proof, trap_proof])
    } else {
        ([trap_ct, inner_ct], [trap_proof, inner_proof])
    };

    Ok((
        TrapSubmission {
            entry_group,
            ciphertexts,
            proofs,
            trap_commitment,
        },
        SubmissionReceipt {
            trap_nonce: Some(nonce),
            padded_plaintext,
        },
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use atom_crypto::elgamal::KeyPair;
    use atom_crypto::nizk::enc::verify_encryption;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn rng() -> StdRng {
        StdRng::seed_from_u64(77)
    }

    #[test]
    fn payload_roundtrip_plaintext() {
        let padded = nizk_payload_len(32);
        let bytes = MixPayload::Plaintext(b"hello".to_vec())
            .to_bytes(padded)
            .unwrap();
        assert_eq!(bytes.len(), padded);
        match MixPayload::from_bytes(&bytes).unwrap() {
            MixPayload::Inner(content) => assert_eq!(content, b"hello"),
            other => panic!("unexpected payload: {other:?}"),
        }
    }

    #[test]
    fn payload_roundtrip_trap() {
        let padded = trap_payload_len(32);
        let nonce = [9u8; TRAP_NONCE_LEN];
        let bytes = MixPayload::Trap { gid: 7, nonce }.to_bytes(padded).unwrap();
        assert_eq!(bytes.len(), padded);
        assert_eq!(
            MixPayload::from_bytes(&bytes).unwrap(),
            MixPayload::Trap { gid: 7, nonce }
        );
    }

    #[test]
    fn traps_and_inner_payloads_have_equal_length() {
        let padded = trap_payload_len(160);
        let trap = MixPayload::Trap {
            gid: 3,
            nonce: [1u8; TRAP_NONCE_LEN],
        }
        .to_bytes(padded)
        .unwrap();
        let inner = MixPayload::Inner(vec![0u8; 160 + INNER_OVERHEAD])
            .to_bytes(padded)
            .unwrap();
        assert_eq!(trap.len(), inner.len());
    }

    #[test]
    fn malformed_payloads_rejected() {
        assert!(MixPayload::from_bytes(&[]).is_err());
        assert!(MixPayload::from_bytes(&[0xde, 0xad, 0xbe]).is_err());
        // Length exceeding buffer.
        assert!(MixPayload::from_bytes(&[TAG_INNER, 0xff, 0xff, 0]).is_err());
        // Trap with wrong content length.
        let bad_trap = [TAG_TRAP, 2, 0, 1, 2];
        assert!(MixPayload::from_bytes(&bad_trap).is_err());
        // Oversized content for padding.
        assert!(MixPayload::Plaintext(vec![0u8; 100]).to_bytes(50).is_err());
    }

    #[test]
    fn inner_target_group_is_deterministic_and_in_range() {
        let groups = 37;
        let a = inner_target_group(b"ciphertext-bytes", groups);
        let b = inner_target_group(b"ciphertext-bytes", groups);
        assert_eq!(a, b);
        assert!(a < groups);
        // Different ciphertexts spread over groups.
        let targets: std::collections::HashSet<usize> = (0..100u32)
            .map(|i| inner_target_group(&i.to_le_bytes(), groups))
            .collect();
        assert!(targets.len() > 20);
    }

    #[test]
    fn nizk_submission_verifies_and_roundtrips() {
        let mut rng = rng();
        let group = KeyPair::generate(&mut rng);
        let (submission, receipt) =
            make_nizk_submission(2, &group.public, b"tweet!", 32, &mut rng).unwrap();
        assert!(
            verify_encryption(&group.public, 2, &submission.ciphertext, &submission.proof).is_ok()
        );
        assert_eq!(receipt.padded_plaintext.len(), nizk_payload_len(32));
        assert!(receipt.trap_nonce.is_none());

        // Proof is bound to the entry group.
        assert!(
            verify_encryption(&group.public, 3, &submission.ciphertext, &submission.proof).is_err()
        );
    }

    #[test]
    fn trap_submission_has_two_valid_proofs_and_matching_commitment() {
        let mut rng = rng();
        let group = KeyPair::generate(&mut rng);
        let trustees = KeyPair::generate(&mut rng);
        let (submission, receipt) = make_trap_submission(
            1,
            &group.public,
            &trustees.public,
            7,
            b"dial 555-0199",
            32,
            &mut rng,
        )
        .unwrap();

        for (ct, proof) in submission.ciphertexts.iter().zip(submission.proofs.iter()) {
            assert!(verify_encryption(&group.public, 1, ct, proof).is_ok());
        }
        let nonce = receipt.trap_nonce.unwrap();
        assert!(commit::verify(
            &submission.trap_commitment,
            TRAP_COMMIT_LABEL,
            &MixPayload::trap_commit_bytes(1, &nonce)
        ));
        // Ciphertexts have identical shape (indistinguishable).
        assert_eq!(
            submission.ciphertexts[0].components.len(),
            submission.ciphertexts[1].components.len()
        );
    }

    #[test]
    fn oversized_message_rejected() {
        let mut rng = rng();
        let group = KeyPair::generate(&mut rng);
        let trustees = KeyPair::generate(&mut rng);
        assert!(make_nizk_submission(0, &group.public, &[0u8; 64], 32, &mut rng).is_err());
        assert!(make_trap_submission(
            0,
            &group.public,
            &trustees.public,
            0,
            &[0u8; 64],
            32,
            &mut rng
        )
        .is_err());
    }

    #[test]
    fn inner_ciphertext_decrypts_to_padded_plaintext() {
        let mut rng = rng();
        let group = KeyPair::generate(&mut rng);
        let trustees = KeyPair::generate(&mut rng);
        let (submission, receipt) = make_trap_submission(
            0,
            &group.public,
            &trustees.public,
            42,
            b"hello",
            32,
            &mut rng,
        )
        .unwrap();
        // Simulate the exit path: decrypt whichever submission component is
        // the inner ciphertext and check it opens under the trustee key.
        let padded_len = trap_payload_len(32);
        let mut found_inner = false;
        for ct in &submission.ciphertexts {
            let points = atom_crypto::elgamal::decrypt_message(&group.secret, ct).unwrap();
            let payload_bytes = atom_crypto::encoding::decode_message(&points).unwrap();
            assert_eq!(payload_bytes.len(), padded_len);
            if let MixPayload::Inner(inner_bytes) = MixPayload::from_bytes(&payload_bytes).unwrap()
            {
                let inner = HybridCiphertext::from_bytes(&inner_bytes).unwrap();
                let plaintext = cca2::decrypt(
                    &trustees.secret,
                    &trustees.public,
                    &42u64.to_le_bytes(),
                    &inner,
                )
                .unwrap();
                assert_eq!(plaintext, receipt.padded_plaintext);
                found_inner = true;
            }
        }
        assert!(found_inner);
    }
}
