//! `ReEncProof`: proof that a server correctly executed
//! `ReEnc(sk, pk', ·)` on a whole sub-batch (Appendix A, cf. Chaum-Pedersen),
//! aggregated into **one** sigma proof per (member, sub-batch).
//!
//! Let `(R₀, Y₀)` be an input ciphertext after the deterministic
//! `Y := R, R := 0` swap (applied when the input has `Y = ⊥`; both prover and
//! verifier compute it locally with `crate::elgamal::swap_view`). The server
//! holds a peeling exponent `x` with public verification key `P = xB` (its
//! own public key in the anytrust variant, or the Lagrange-weighted Feldman
//! verification share in the many-trust variant) and fresh randomness `f_l`
//! per component. With `l` running over every component of every message of
//! the sub-batch, the claim is
//!
//! ```text
//!   P           = x · B
//!   R'_l − R₀_l = f_l · B                    (R'_l = R₀_l when X' = ⊥)
//!   c_l − c'_l  = x · Y₀_l − f_l · X'        (X' term omitted when ⊥)
//! ```
//!
//! together with the structural checks `Y'_l = Y₀_l`.
//!
//! ## Aggregation
//!
//! Every claim shares `x`, `P` and `X'`, so the per-component relations fold
//! under 128-bit coefficients `ρ_l` into
//!
//! ```text
//!   Σρ_l·(R'_l − R₀_l) = F · B               with F  = Σρ_l·f_l
//!   Σρ_l·(c_l − c'_l)  = x · Y* − F · X'     with Y* = Σρ_l·Y₀_l
//! ```
//!
//! and the proof is a three-announcement, two-response sigma protocol for
//! knowledge of `(x, F)` satisfying those two equations and `P = xB`. The
//! prover needs one multi-exponentiation (`Y*`) and three exponentiations per
//! sub-batch; the verifier recomputes the folded sums and checks three
//! equations.
//!
//! ## Soundness
//!
//! The `ρ_l` are squeezed from a transcript that has already absorbed `P`,
//! `X'` and every input and output ciphertext of the sub-batch, and the
//! sigma challenge comes from the same transcript after the announcements:
//! the prover fixes the whole statement before it learns any coefficient.
//! Special soundness yields `(x, F)`; `x` is the discrete log of `P`, and
//! with `f_l` *defined* as the discrete log of `R'_l − R₀_l` the first folded
//! equation forces `F = Σρ_l·f_l`. Writing the per-component error
//! `e_l = (c_l − c'_l) − x·Y₀_l + f_l·X'`, the second folded equation says
//! `Σρ_l·e_l = 0`. The `e_l` are fixed by the statement, so if any is
//! non-zero a uniform 128-bit `ρ_l` satisfies this with probability `2⁻¹²⁸`
//! (modelling the sponge as a random oracle) — the standard small-exponent
//! batching bound, the same slack the RLC verifiers in [`crate::batch`]
//! accept. A rejection does not say *which* message was wrong, but it does
//! say whose proof failed, and blame is per member: the group convicts the
//! server, not a ciphertext.

use curve25519_dalek::constants::RISTRETTO_BASEPOINT_TABLE;
use curve25519_dalek::ristretto::RistrettoPoint;
use curve25519_dalek::scalar::Scalar;
use curve25519_dalek::traits::Identity;
use rand::{CryptoRng, RngCore};
use serde::{Deserialize, Serialize};

use atom_obs::Counter;

use crate::batch::{mul_fixed, multiscalar_mul};
use crate::elgamal::{swap_view, MessageCiphertext, PublicKey, ReEncWitness};
use crate::error::{CryptoError, CryptoResult};
use crate::transcript::Transcript;

/// Aggregated `ReEncProof` verifications.
static VERIFY_REENC_BATCHES: Counter = Counter::new("crypto.verify_reenc.batches");
/// Messages covered by aggregated `ReEncProof` verifications.
static VERIFY_REENC_ITEMS: Counter = Counter::new("crypto.verify_reenc.items");

/// Proof of correct re-encryption of every message of a sub-batch by one
/// server.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct ReEncProof {
    /// Announcement for the peeling key relation (`α · B`).
    pub announce_key: RistrettoPoint,
    /// Announcement for the folded fresh-randomness relation (`β · B`).
    pub announce_fresh: RistrettoPoint,
    /// Announcement for the folded payload relation (`α · Y* − β · X'`).
    pub announce_payload: RistrettoPoint,
    /// Response for the peeling exponent (`α + t·x`).
    pub response_key: Scalar,
    /// Response for the folded fresh randomness (`β + t·F`).
    pub response_fresh: Scalar,
}

/// The public statement of one message's re-encryption.
pub struct ReEncStatement<'a> {
    /// Verification key of the peeling exponent (`P = xB`).
    pub peel_public: &'a RistrettoPoint,
    /// Public key of the next group, or `None` for final decryption.
    pub next_pk: Option<&'a PublicKey>,
    /// Input message ciphertext.
    pub input: &'a MessageCiphertext,
    /// Output message ciphertext.
    pub output: &'a MessageCiphertext,
}

/// A sub-batch's statements after the structural checks: the transcript that
/// has absorbed them and handed out the coefficients, and the statement's
/// points flattened over all components of all messages.
struct Folded<'a> {
    transcript: Transcript,
    peel_public: &'a RistrettoPoint,
    next_pk: Option<&'a PublicKey>,
    rho: Vec<Scalar>,
    y0: Vec<RistrettoPoint>,
    r0: Vec<RistrettoPoint>,
    r_out: Vec<RistrettoPoint>,
    c_in: Vec<RistrettoPoint>,
    c_out: Vec<RistrettoPoint>,
}

/// Structural checks shared by prover and verifier, then the transcript and
/// coefficients both derive everything else from.
fn fold<'a>(statements: &[ReEncStatement<'a>]) -> CryptoResult<Folded<'a>> {
    let first = statements
        .first()
        .ok_or_else(|| CryptoError::Parameter("empty re-encryption sub-batch".into()))?;
    let (peel_public, next_pk) = (first.peel_public, first.next_pk);

    let mut t = Transcript::new(b"atom-reenc-proof");
    t.append_point(b"peel-public", peel_public);
    match next_pk {
        Some(pk) => t.append_point(b"next-pk", &pk.0),
        None => t.append_bytes(b"next-pk", b"bottom"),
    }
    t.append_u64(b"messages", statements.len() as u64);

    let terms = statements.iter().map(|s| s.input.components.len()).sum();
    let mut y0 = Vec::with_capacity(terms);
    let mut r0 = Vec::with_capacity(terms);
    let mut r_out = Vec::with_capacity(terms);
    let mut c_in = Vec::with_capacity(terms);
    let mut c_out = Vec::with_capacity(terms);
    let mut buf = Vec::new();
    for stmt in statements {
        if stmt.peel_public != peel_public || stmt.next_pk != next_pk {
            return Err(CryptoError::Parameter(
                "a sub-batch shares one peel key and one next key".into(),
            ));
        }
        if stmt.input.components.len() != stmt.output.components.len() {
            return Err(CryptoError::Parameter(
                "input/output component count mismatch".into(),
            ));
        }
        for (inp, out) in stmt.input.components.iter().zip(&stmt.output.components) {
            let (r, y) = swap_view(inp);
            if out.y != Some(y) {
                return Err(CryptoError::ProofInvalid(
                    "output Y does not carry over the input randomness".into(),
                ));
            }
            if next_pk.is_none() && out.r != r {
                return Err(CryptoError::ProofInvalid(
                    "final decryption must not change R".into(),
                ));
            }
            y0.push(y);
            r0.push(r);
            r_out.push(out.r);
            c_in.push(inp.c);
            c_out.push(out.c);
        }
        t.append_message(b"input", stmt.input, &mut buf);
        t.append_message(b"output", stmt.output, &mut buf);
    }
    let rho = t.challenge_coefficients(b"rho", terms);
    Ok(Folded {
        transcript: t,
        peel_public,
        next_pk,
        rho,
        y0,
        r0,
        r_out,
        c_in,
        c_out,
    })
}

impl Folded<'_> {
    /// `s · X'`, through the next key's cached table; the identity for `⊥`.
    fn next_key_mul(&self, s: &Scalar) -> RistrettoPoint {
        self.next_pk
            .map_or_else(RistrettoPoint::identity, |pk| mul_fixed(&pk.0, s))
    }

    /// The sigma challenge, after the three announcements.
    fn challenge(
        &mut self,
        key: &RistrettoPoint,
        fresh: &RistrettoPoint,
        payload: &RistrettoPoint,
    ) -> Scalar {
        self.transcript.append_point(b"announce-key", key);
        self.transcript.append_point(b"announce-fresh", fresh);
        self.transcript.append_point(b"announce-payload", payload);
        self.transcript.challenge_scalar(b"challenge")
    }
}

/// Produces the one `ReEncProof` of a sub-batch from the per-message
/// witnesses returned by [`crate::elgamal::reencrypt_message`]. All
/// statements must name the same `peel_public` and `next_pk`.
pub fn prove_reencryption_slice<R: RngCore + CryptoRng>(
    statements: &[ReEncStatement<'_>],
    witnesses: &[&[ReEncWitness]],
    rng: &mut R,
) -> CryptoResult<ReEncProof> {
    let mut folded = fold(statements)?;
    if witnesses.len() != statements.len()
        || witnesses
            .iter()
            .zip(statements)
            .any(|(w, s)| w.len() != s.input.components.len())
    {
        return Err(CryptoError::Parameter(
            "witness count does not match components".into(),
        ));
    }
    let flat: Vec<&ReEncWitness> = witnesses.iter().flat_map(|w| w.iter()).collect();
    let peel_secret = flat
        .first()
        .map(|w| w.peel_secret)
        .ok_or_else(|| CryptoError::Parameter("empty ciphertext".into()))?;
    if flat.iter().any(|w| w.peel_secret != peel_secret) {
        return Err(CryptoError::Parameter(
            "all components must be peeled with the same exponent".into(),
        ));
    }
    let fresh: Scalar = folded
        .rho
        .iter()
        .zip(&flat)
        .map(|(rho, w)| rho * w.fresh_randomness)
        .sum();
    let y_star = multiscalar_mul(&folded.rho, &folded.y0);

    let alpha = Scalar::random(rng);
    let beta = Scalar::random(rng);
    let announce_key = alpha * RISTRETTO_BASEPOINT_TABLE;
    let announce_fresh = beta * RISTRETTO_BASEPOINT_TABLE;
    // `+ (−β)·X'` sidesteps the point-subtraction inversion.
    let announce_payload = alpha * y_star + folded.next_key_mul(&-beta);

    let challenge = folded.challenge(&announce_key, &announce_fresh, &announce_payload);
    Ok(ReEncProof {
        announce_key,
        announce_fresh,
        announce_payload,
        response_key: alpha + challenge * peel_secret,
        response_fresh: beta + challenge * fresh,
    })
}

/// Verifies the one `ReEncProof` of a sub-batch. `Parameter` errors mean the
/// slice is not a sub-batch (empty, mixed keys, ragged); `ProofInvalid`
/// means the prover misbehaved.
pub fn verify_reencryption_slice(
    statements: &[ReEncStatement<'_>],
    proof: &ReEncProof,
) -> CryptoResult<()> {
    VERIFY_REENC_BATCHES.add(1);
    VERIFY_REENC_ITEMS.add(statements.len() as u64);
    let mut folded = fold(statements)?;
    let challenge = folded.challenge(
        &proof.announce_key,
        &proof.announce_fresh,
        &proof.announce_payload,
    );

    // Σρ·(c − c') and Σρ·(R' − R₀): one shared inversion negates every
    // subtrahend, then each difference is a single group operation and each
    // sum one multi-exponentiation with 128-bit coefficients. (For X' = ⊥
    // the structural check forced R' = R₀: identity terms, skipped for free.)
    let terms = folded.rho.len();
    let negated = RistrettoPoint::batch_negate(&[&folded.c_out[..], &folded.r0].concat());
    let delta = |minuends: &[RistrettoPoint], negated: &[RistrettoPoint]| {
        let diffs: Vec<_> = minuends.iter().zip(negated).map(|(a, b)| a + b).collect();
        multiscalar_mul(&folded.rho, &diffs)
    };
    let delta_c = delta(&folded.c_in, &negated[..terms]);
    let delta_r = delta(&folded.r_out, &negated[terms..]);
    let y_star = multiscalar_mul(&folded.rho, &folded.y0);

    // The three sigma equations, arranged so no side subtracts a point.
    if proof.response_key * RISTRETTO_BASEPOINT_TABLE
        != proof.announce_key + challenge * folded.peel_public
    {
        return Err(CryptoError::ProofInvalid("peel-key check failed".into()));
    }
    if proof.response_fresh * RISTRETTO_BASEPOINT_TABLE
        != proof.announce_fresh + challenge * delta_r
    {
        return Err(CryptoError::ProofInvalid(
            "fresh-randomness check failed".into(),
        ));
    }
    if proof.response_key * y_star
        != proof.announce_payload + challenge * delta_c + folded.next_key_mul(&proof.response_fresh)
    {
        return Err(CryptoError::ProofInvalid("payload check failed".into()));
    }
    Ok(())
}

/// [`prove_reencryption_slice`] for a sub-batch of one message.
pub fn prove_reencryption<R: RngCore + CryptoRng>(
    stmt: &ReEncStatement<'_>,
    witnesses: &[ReEncWitness],
    rng: &mut R,
) -> CryptoResult<ReEncProof> {
    prove_reencryption_slice(std::slice::from_ref(stmt), &[witnesses], rng)
}

/// [`verify_reencryption_slice`] for a sub-batch of one message.
pub(crate) fn verify_reencryption(
    stmt: &ReEncStatement<'_>,
    proof: &ReEncProof,
) -> CryptoResult<()> {
    verify_reencryption_slice(std::slice::from_ref(stmt), proof)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::elgamal::{encrypt_message, reencrypt_message, KeyPair, PublicKey};
    use curve25519_dalek::constants::RISTRETTO_BASEPOINT_POINT;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// One member's view of a sub-batch: what it received, what it published
    /// and the witnesses it holds.
    struct SubBatch {
        rng: StdRng,
        /// The proving member.
        server: KeyPair,
        /// Another member of the same group.
        peer: KeyPair,
        next_pk: PublicKey,
        exit_layer: bool,
        inputs: Vec<MessageCiphertext>,
        outputs: Vec<MessageCiphertext>,
        witnesses: Vec<Vec<ReEncWitness>>,
    }

    /// `messages` two-component messages through one group of two. The first
    /// member sees fresh ciphertexts (`Y = ⊥`, so every `R₀` is the
    /// identity); a later member sees the first member's output.
    fn sub_batch(seed: u64, messages: usize, exit_layer: bool, later_member: bool) -> SubBatch {
        let mut rng = StdRng::seed_from_u64(seed);
        let first = KeyPair::generate(&mut rng);
        let second = KeyPair::generate(&mut rng);
        let group_pk = PublicKey::combine([&first.public, &second.public]);
        let next_pk = KeyPair::generate(&mut rng).public;
        let next = (!exit_layer).then_some(&next_pk);
        let mut inputs: Vec<MessageCiphertext> = (0..messages)
            .map(|_| {
                let points = [
                    RistrettoPoint::random(&mut rng),
                    RistrettoPoint::random(&mut rng),
                ];
                encrypt_message(&group_pk, &points, &mut rng).0
            })
            .collect();
        let (server, peer) = if later_member {
            inputs = inputs
                .iter()
                .map(|m| reencrypt_message(&first.secret.0, next, m, &mut rng).0)
                .collect();
            (second, first)
        } else {
            (first, second)
        };
        let (outputs, witnesses) = inputs
            .iter()
            .map(|m| reencrypt_message(&server.secret.0, next, m, &mut rng))
            .unzip();
        SubBatch {
            rng,
            server,
            peer,
            next_pk,
            exit_layer,
            inputs,
            outputs,
            witnesses,
        }
    }

    impl SubBatch {
        fn next(&self) -> Option<&PublicKey> {
            (!self.exit_layer).then_some(&self.next_pk)
        }

        fn statements(&self) -> Vec<ReEncStatement<'_>> {
            self.statements_over(&self.server.public.0, self.next(), &self.outputs)
        }

        fn statements_over<'a>(
            &'a self,
            peel_public: &'a RistrettoPoint,
            next_pk: Option<&'a PublicKey>,
            outputs: &'a [MessageCiphertext],
        ) -> Vec<ReEncStatement<'a>> {
            self.inputs
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

        /// Deterministic: every call draws the same nonces.
        fn prove(&self) -> ReEncProof {
            let statements = self.statements();
            let witnesses: Vec<&[ReEncWitness]> =
                self.witnesses.iter().map(Vec::as_slice).collect();
            prove_reencryption_slice(&statements, &witnesses, &mut self.rng.clone()).unwrap()
        }
    }

    /// The reference verifier: same transcript, but every folded sum is
    /// evaluated term by term with plain scalar multiplications and point
    /// subtractions — no multi-exponentiation, no shared inversion, no
    /// rearranged equations.
    fn verify_reference(statements: &[ReEncStatement<'_>], proof: &ReEncProof) -> CryptoResult<()> {
        let mut folded = fold(statements)?;
        let t = folded.challenge(
            &proof.announce_key,
            &proof.announce_fresh,
            &proof.announce_payload,
        );
        let sum = |term: &dyn Fn(usize) -> RistrettoPoint| -> RistrettoPoint {
            (0..folded.rho.len()).map(|l| folded.rho[l] * term(l)).sum()
        };
        let y_star = sum(&|l| folded.y0[l]);
        let delta_r = sum(&|l| folded.r_out[l] - folded.r0[l]);
        let delta_c = sum(&|l| folded.c_in[l] - folded.c_out[l]);
        let next = folded
            .next_pk
            .map_or_else(RistrettoPoint::identity, |pk| pk.0);
        let ok = proof.response_key * RISTRETTO_BASEPOINT_POINT - t * folded.peel_public
            == proof.announce_key
            && proof.response_fresh * RISTRETTO_BASEPOINT_POINT - t * delta_r
                == proof.announce_fresh
            && proof.response_key * y_star - proof.response_fresh * next - t * delta_c
                == proof.announce_payload;
        if ok {
            Ok(())
        } else {
            Err(CryptoError::ProofInvalid(
                "reference relations failed".into(),
            ))
        }
    }

    #[test]
    fn honest_reencryption_proof_verifies() {
        // X' present and ⊥, first member (every R₀ the identity) and later
        // members, one message and a full-size sub-batch.
        for exit_layer in [false, true] {
            for later_member in [false, true] {
                for messages in [1, 3, 130] {
                    let b = sub_batch(99, messages, exit_layer, later_member);
                    let first_member_view = b
                        .inputs
                        .iter()
                        .all(|m| m.components.iter().all(|c| c.y.is_none()));
                    assert_eq!(first_member_view, !later_member);
                    let proof = b.prove();
                    let statements = b.statements();
                    assert!(verify_reencryption_slice(&statements, &proof).is_ok());
                    assert!(verify_reference(&statements, &proof).is_ok());
                }
            }
        }
    }

    #[test]
    fn honest_final_decryption_proof_verifies() {
        // The one-statement entry points, on the exit layer.
        let b = sub_batch(98, 1, true, false);
        let stmt = &b.statements()[0];
        let proof = prove_reencryption(stmt, &b.witnesses[0], &mut b.rng.clone()).unwrap();
        assert!(verify_reencryption(stmt, &proof).is_ok());
        assert_eq!(proof, b.prove(), "the one-statement case of the same code");
    }

    #[test]
    fn every_proof_field_is_checked() {
        for exit_layer in [false, true] {
            let b = sub_batch(97, 4, exit_layer, true);
            let proof = b.prove();
            let statements = b.statements();
            let tampers: [fn(&mut ReEncProof); 5] = [
                |p| p.announce_key += RISTRETTO_BASEPOINT_POINT,
                |p| p.announce_fresh += RISTRETTO_BASEPOINT_POINT,
                |p| p.announce_payload += RISTRETTO_BASEPOINT_POINT,
                |p| p.response_key += Scalar::ONE,
                |p| p.response_fresh += Scalar::ONE,
            ];
            for (field, tamper) in tampers.into_iter().enumerate() {
                let mut bad = proof.clone();
                tamper(&mut bad);
                assert!(
                    matches!(
                        verify_reencryption_slice(&statements, &bad),
                        Err(CryptoError::ProofInvalid(_))
                    ),
                    "field {field}, exit layer {exit_layer}"
                );
            }
        }
    }

    #[test]
    fn tampered_output_detected() {
        // The server replaces c', R' or Y' of any one message after proving.
        let b = sub_batch(96, 5, false, true);
        let proof = b.prove();
        let mauls: [fn(&mut crate::elgamal::Ciphertext); 3] = [
            |ct| ct.c += RISTRETTO_BASEPOINT_POINT,
            |ct| ct.r += RISTRETTO_BASEPOINT_POINT,
            |ct| ct.y = ct.y.map(|y| y + RISTRETTO_BASEPOINT_POINT),
        ];
        for position in 0..b.outputs.len() {
            for (field, maul) in mauls.iter().enumerate() {
                let mut published = b.outputs.clone();
                maul(&mut published[position].components[1]);
                let statements = b.statements_over(&b.server.public.0, b.next(), &published);
                assert!(
                    matches!(
                        verify_reencryption_slice(&statements, &proof),
                        Err(CryptoError::ProofInvalid(_))
                    ),
                    "position {position}, field {field}"
                );
            }
        }
    }

    #[test]
    fn wrong_key_detected() {
        // A malicious server peels with a key other than its registered one:
        // it can build a proof for the key it used, not for the one it owns.
        let b = sub_batch(95, 3, false, false);
        let proof = b.prove();
        let statements = b.statements_over(&b.peer.public.0, b.next(), &b.outputs);
        assert!(verify_reencryption_slice(&statements, &proof).is_err());
        // ...and a proof honestly made by another member does not transfer.
        let other = sub_batch(95, 3, false, true);
        let other_proof = other.prove();
        assert!(verify_reencryption_slice(&b.statements(), &other_proof).is_err());
    }

    #[test]
    fn dropped_y_component_detected() {
        let b = sub_batch(94, 2, false, false);
        let proof = b.prove();
        let mut published = b.outputs.clone();
        published[1].components[0].y = None;
        let statements = b.statements_over(&b.server.public.0, b.next(), &published);
        let witnesses: Vec<&[ReEncWitness]> = b.witnesses.iter().map(Vec::as_slice).collect();
        assert!(prove_reencryption_slice(&statements, &witnesses, &mut b.rng.clone()).is_err());
        assert!(verify_reencryption_slice(&statements, &proof).is_err());
    }

    #[test]
    fn proof_not_valid_for_different_group_key() {
        // Binding to the next group's key: verifying against another key, or
        // against ⊥, fails.
        let b = sub_batch(93, 3, false, true);
        let proof = b.prove();
        let other = KeyPair::generate(&mut b.rng.clone()).public;
        for next in [Some(&other), None] {
            let statements = b.statements_over(&b.server.public.0, next, &b.outputs);
            assert!(verify_reencryption_slice(&statements, &proof).is_err());
        }
    }

    #[test]
    fn proof_is_bound_to_its_sub_batch_and_order() {
        let b = sub_batch(92, 4, false, true);
        let proof = b.prove();
        // Replayed for another sub-batch of the same member and keys.
        let mut replay = sub_batch(92, 4, false, true);
        replay.inputs.rotate_left(1);
        replay.outputs.rotate_left(1);
        assert!(
            verify_reencryption_slice(&replay.statements(), &proof).is_err(),
            "reordered messages"
        );
        assert!(verify_reencryption_slice(&b.statements()[..3], &proof).is_err());
        let sibling = sub_batch(91, 4, false, true);
        let statements = sibling.statements_over(&b.server.public.0, b.next(), &sibling.outputs);
        assert!(verify_reencryption_slice(&statements, &proof).is_err());
    }

    #[test]
    fn slices_that_are_not_a_sub_batch_are_parameter_errors() {
        let b = sub_batch(90, 3, false, false);
        let proof = b.prove();
        assert!(matches!(
            verify_reencryption_slice(&[], &proof),
            Err(CryptoError::Parameter(_))
        ));
        assert!(matches!(
            prove_reencryption_slice(&[], &[], &mut b.rng.clone()),
            Err(CryptoError::Parameter(_))
        ));
        let witnesses: Vec<&[ReEncWitness]> = b.witnesses.iter().map(Vec::as_slice).collect();
        let other = KeyPair::generate(&mut b.rng.clone()).public;
        for mix_peel in [true, false] {
            let mut statements = b.statements();
            if mix_peel {
                statements[1].peel_public = &other.0;
            } else {
                statements[1].next_pk = Some(&other);
            }
            assert!(matches!(
                verify_reencryption_slice(&statements, &proof),
                Err(CryptoError::Parameter(_))
            ));
            assert!(matches!(
                prove_reencryption_slice(&statements, &witnesses, &mut b.rng.clone()),
                Err(CryptoError::Parameter(_))
            ));
        }
        // A witness list that does not line up with the statements.
        assert!(matches!(
            prove_reencryption_slice(&b.statements(), &witnesses[..2], &mut b.rng.clone()),
            Err(CryptoError::Parameter(_))
        ));
    }

    #[test]
    fn multiexp_verifier_agrees_with_reference_on_1000_seeded_cases() {
        let mut rejected = 0;
        for case in 0..1000u64 {
            let mut rng = StdRng::seed_from_u64(0xA66 + case);
            let b = sub_batch(case, rng.gen_range(1..=3), case % 2 == 0, case % 4 < 2);
            let mut proof = b.prove();
            let mut published = b.outputs.clone();
            let position = rng.gen_range(0..published.len());
            let component = rng.gen_range(0..2usize);
            let target = &mut published[position].components[component];
            // A quarter of the cases stay honest; the rest corrupt one thing.
            match rng.gen_range(0..12) {
                0..=2 => {}
                3 => proof.announce_key += RISTRETTO_BASEPOINT_POINT,
                4 => proof.announce_fresh = RistrettoPoint::random(&mut rng),
                5 => proof.announce_payload += RISTRETTO_BASEPOINT_POINT,
                6 => proof.response_key = Scalar::random(&mut rng),
                7 => proof.response_fresh += Scalar::ONE,
                8 => target.c += RISTRETTO_BASEPOINT_POINT,
                9 => target.r = RistrettoPoint::random(&mut rng),
                10 => target.y = Some(RistrettoPoint::random(&mut rng)),
                _ => published.swap(0, position),
            }
            let statements = b.statements_over(&b.server.public.0, b.next(), &published);
            let fast = verify_reencryption_slice(&statements, &proof);
            let reference = verify_reference(&statements, &proof);
            assert_eq!(fast.is_ok(), reference.is_ok(), "case {case}: {fast:?}");
            let honest = proof == b.prove() && published == b.outputs;
            assert_eq!(fast.is_ok(), honest, "case {case}: {fast:?}");
            rejected += usize::from(fast.is_err());
        }
        assert!((500..900).contains(&rejected), "{rejected} rejections");
    }
}
