//! Primitive cost models (Table 3) — either the paper's measured numbers or
//! numbers measured on the local machine.
//!
//! The paper's own large-scale figure (Fig. 11) is produced by "modelling the
//! expected latency given the values in Table 3" rather than running the full
//! network; this module provides the same calibration step for this
//! reproduction.

use std::time::Instant;

use rand::rngs::StdRng;
use rand::SeedableRng;
use serde::{Deserialize, Serialize};

use atom_crypto::batch::{verify_shuffle_batch, ShuffleVerification};
use atom_crypto::elgamal::{encrypt, encrypt_message, reencrypt, shuffle, KeyPair};
use atom_crypto::encoding::encode_message;
use atom_crypto::nizk::enc::{prove_encryption, verify_encryption};
use atom_crypto::nizk::reenc::{
    prove_reencryption_slice, verify_reencryption_slice, ReEncStatement,
};
use atom_crypto::nizk::shuffle::{prove_shuffle, verify_shuffle};
use atom_crypto::RistrettoPoint;

/// Per-operation latencies in seconds, for single-point (32-byte) messages —
/// the same quantities as Table 3 of the paper.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct PrimitiveCosts {
    /// `Enc` of one group element.
    pub enc: f64,
    /// `ReEnc` of one group element.
    pub reenc: f64,
    /// `Shuffle` per element (the paper reports 1,024 elements; this is the
    /// per-element cost).
    pub shuffle_per_msg: f64,
    /// `EncProof` generation.
    pub encproof_prove: f64,
    /// `EncProof` verification.
    pub encproof_verify: f64,
    /// `ReEncProof` generation, per ciphertext component. (The paper proves
    /// each component on its own, so this is its whole cost.)
    pub reencproof_prove: f64,
    /// `ReEncProof` verification, per ciphertext component.
    pub reencproof_verify: f64,
    /// `ReEncProof` generation, fixed cost per (member, sub-batch): this
    /// reproduction aggregates a sub-batch into one proof whose announcements
    /// and responses are paid once. Zero for the paper's per-component proof.
    pub reencproof_prove_fixed: f64,
    /// `ReEncProof` verification, fixed cost per (member, sub-batch).
    pub reencproof_verify_fixed: f64,
    /// `ShufProof` generation per element.
    pub shufproof_prove_per_msg: f64,
    /// `ShufProof` verification per element, one proof at a time
    /// (`verify_shuffle` — what blame pays per link after a chain is
    /// rejected).
    pub shufproof_verify_per_msg: f64,
    /// `ShufProof` verification per element when a whole shuffle chain is
    /// settled through one combined RLC check
    /// (`atom_crypto::batch::verify_shuffle_batch`) — the deployed hot path,
    /// in which consecutive links share a stage.
    pub shufproof_verify_batch_per_msg: f64,
}

impl PrimitiveCosts {
    /// The values reported in Table 3 of the paper (NIST P-256, c4.xlarge).
    pub fn paper_table3() -> Self {
        Self {
            enc: 1.40e-4,
            reenc: 3.35e-4,
            shuffle_per_msg: 1.07e-1 / 1024.0,
            encproof_prove: 1.62e-4,
            encproof_verify: 1.39e-4,
            reencproof_prove: 6.55e-4,
            reencproof_verify: 4.46e-4,
            reencproof_prove_fixed: 0.0,
            reencproof_verify_fixed: 0.0,
            shufproof_prove_per_msg: 7.57e-1 / 1024.0,
            shufproof_verify_per_msg: 1.41 / 1024.0,
            // The paper verifies shuffle proofs one at a time; the batched
            // figure models the 3× gain this reproduction measured when
            // RLC batching of Neff-style per-element checks landed.
            shufproof_verify_batch_per_msg: 1.41 / 1024.0 / 3.0,
        }
    }

    /// Measures the primitives on this machine using `batch` single-point
    /// messages for the batched operations (use ≥256 in release builds for
    /// stable numbers; the Table 3 reproduction binary uses 1,024).
    pub fn measure(batch: usize) -> Self {
        let mut rng = StdRng::seed_from_u64(0xC0575);
        let kp = KeyPair::generate(&mut rng);
        let next = KeyPair::generate(&mut rng);
        let point = RistrettoPoint::random(&mut rng);
        let reps = 64usize;

        let start = Instant::now();
        for _ in 0..reps {
            let _ = encrypt(&kp.public, &point, &mut rng);
        }
        let enc = start.elapsed().as_secs_f64() / reps as f64;

        let (ct, _) = encrypt(&kp.public, &point, &mut rng);
        let start = Instant::now();
        for _ in 0..reps {
            let _ = reencrypt(&kp.secret.0, Some(&next.public), &ct, &mut rng);
        }
        let reenc = start.elapsed().as_secs_f64() / reps as f64;

        // One-point messages for the batched operations.
        let batch_msgs: Vec<_> = (0..batch.max(2))
            .map(|i| {
                let points = encode_message(&[i as u8, (i >> 8) as u8]).unwrap();
                encrypt_message(&kp.public, &points, &mut rng).0
            })
            .collect();
        let start = Instant::now();
        let (shuffled, witness) = shuffle(&kp.public, &batch_msgs, &mut rng).unwrap();
        let shuffle_per_msg = start.elapsed().as_secs_f64() / batch_msgs.len() as f64;

        let start = Instant::now();
        let proof = prove_shuffle(&kp.public, &batch_msgs, &shuffled, &witness, &mut rng).unwrap();
        let shufproof_prove_per_msg = start.elapsed().as_secs_f64() / batch_msgs.len() as f64;

        // Extend into a real 3-member shuffle chain (each link's output is
        // the next link's input, as in a group step), then verify it link by
        // link and as one chain.
        let mut stages = vec![batch_msgs.clone(), shuffled];
        let mut proofs = vec![proof];
        for _ in 1..3 {
            let inputs = stages.last().unwrap();
            let (outputs, witness) = shuffle(&kp.public, inputs, &mut rng).unwrap();
            proofs.push(prove_shuffle(&kp.public, inputs, &outputs, &witness, &mut rng).unwrap());
            stages.push(outputs);
        }
        let chain_elements = (proofs.len() * batch_msgs.len()) as f64;
        let start = Instant::now();
        for (link, proof) in proofs.iter().enumerate() {
            verify_shuffle(&kp.public, &stages[link], &stages[link + 1], proof).unwrap();
        }
        let shufproof_verify_per_msg = start.elapsed().as_secs_f64() / chain_elements;
        let items: Vec<ShuffleVerification<'_>> = proofs
            .iter()
            .enumerate()
            .map(|(link, proof)| ShuffleVerification {
                pk: &kp.public,
                inputs: &stages[link],
                outputs: &stages[link + 1],
                proof,
            })
            .collect();
        let start = Instant::now();
        verify_shuffle_batch(&items).unwrap();
        let shufproof_verify_batch_per_msg = start.elapsed().as_secs_f64() / chain_elements;

        let points = encode_message(&[7u8]).unwrap();
        let (msg_ct, randomness) = encrypt_message(&kp.public, &points, &mut rng);
        let start = Instant::now();
        for _ in 0..reps {
            let _ = prove_encryption(&kp.public, 0, &msg_ct, &randomness, &mut rng).unwrap();
        }
        let encproof_prove = start.elapsed().as_secs_f64() / reps as f64;
        let enc_proof = prove_encryption(&kp.public, 0, &msg_ct, &randomness, &mut rng).unwrap();
        let start = Instant::now();
        for _ in 0..reps {
            verify_encryption(&kp.public, 0, &msg_ct, &enc_proof).unwrap();
        }
        let encproof_verify = start.elapsed().as_secs_f64() / reps as f64;

        // One aggregated ReEncProof over the whole batch and one over a single
        // message: the two timings give the per-component slope and the
        // per-sub-batch fixed cost.
        let (outputs, witnesses): (Vec<_>, Vec<_>) = batch_msgs
            .iter()
            .map(|m| {
                atom_crypto::elgamal::reencrypt_message(
                    &kp.secret.0,
                    Some(&next.public),
                    m,
                    &mut rng,
                )
            })
            .unzip();
        let statements: Vec<ReEncStatement<'_>> = batch_msgs
            .iter()
            .zip(&outputs)
            .map(|(input, output)| ReEncStatement {
                peel_public: &kp.public.0,
                next_pk: Some(&next.public),
                input,
                output,
            })
            .collect();
        let witnesses: Vec<&[_]> = witnesses.iter().map(Vec::as_slice).collect();
        let mut time_reenc_proof = |n: usize| {
            let (statements, witnesses) = (&statements[..n], &witnesses[..n]);
            let start = Instant::now();
            for _ in 0..reps {
                let _ = prove_reencryption_slice(statements, witnesses, &mut rng).unwrap();
            }
            let prove = start.elapsed().as_secs_f64() / reps as f64;
            let proof = prove_reencryption_slice(statements, witnesses, &mut rng).unwrap();
            let start = Instant::now();
            for _ in 0..reps {
                verify_reencryption_slice(statements, &proof).unwrap();
            }
            (prove, start.elapsed().as_secs_f64() / reps as f64)
        };
        let (prove_one, verify_one) = time_reenc_proof(1);
        let (prove_all, verify_all) = time_reenc_proof(statements.len());
        let extra = (statements.len() - 1) as f64;
        let reencproof_prove = ((prove_all - prove_one) / extra).max(0.0);
        let reencproof_verify = ((verify_all - verify_one) / extra).max(0.0);
        let reencproof_prove_fixed = (prove_one - reencproof_prove).max(0.0);
        let reencproof_verify_fixed = (verify_one - reencproof_verify).max(0.0);

        Self {
            enc,
            reenc,
            shuffle_per_msg,
            encproof_prove,
            encproof_verify,
            reencproof_prove,
            reencproof_verify,
            reencproof_prove_fixed,
            reencproof_verify_fixed,
            shufproof_prove_per_msg,
            shufproof_verify_per_msg,
            shufproof_verify_batch_per_msg,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_costs_match_table3_ratios() {
        let costs = PrimitiveCosts::paper_table3();
        // ShufProof verification is the most expensive per-element operation.
        assert!(costs.shufproof_verify_per_msg > costs.shufproof_prove_per_msg);
        assert!(costs.shufproof_prove_per_msg > costs.shuffle_per_msg);
        assert!(costs.reenc > costs.enc);
        // The batched verifier models a 3× RLC gain.
        assert!(costs.shufproof_verify_batch_per_msg <= costs.shufproof_verify_per_msg / 3.0);
    }

    #[test]
    fn measured_costs_are_positive_and_ordered() {
        let costs = PrimitiveCosts::measure(8);
        assert!(costs.enc > 0.0);
        assert!(costs.reenc > 0.0);
        assert!(costs.shuffle_per_msg > 0.0);
        // The aggregated proof pays its announcements once per sub-batch.
        assert!(costs.reencproof_prove_fixed + costs.reencproof_verify_fixed > 0.0);
        assert!(costs.shufproof_verify_per_msg > 0.0);
        assert!(costs.shufproof_verify_batch_per_msg > 0.0);
        // A proof costs more than the shuffle it proves: six commitments
        // and two announcements per component on top of the two
        // exponentiations per component of the shuffle itself. Both sides
        // are one-shot timings of ~100 µs of work, at the scheduler's mercy
        // while the harness runs tests in parallel: compare the best of a
        // few.
        let runs: Vec<PrimitiveCosts> = (0..5).map(|_| PrimitiveCosts::measure(8)).collect();
        let best =
            |cost: fn(&PrimitiveCosts) -> f64| runs.iter().map(cost).fold(f64::INFINITY, f64::min);
        assert!(best(|c| c.shufproof_prove_per_msg) > best(|c| c.shuffle_per_msg));
    }
}
