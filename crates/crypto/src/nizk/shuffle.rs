//! `ShufProof`: a NIZK argument that a batch of message ciphertexts was
//! correctly shuffled (permuted and rerandomized) under a group public key.
//!
//! **Substitution note.** The paper instantiates this with Neff's verifiable
//! shuffle (ref. \[59\] in the paper); we use a Bayer-Groth-style argument
//! with linear-size sub-arguments (commitment to the permutation + a product
//! argument + a multi-exponentiation argument), which fills the same role
//! with the same asymptotic cost — a small constant number of exponentiations
//! per shuffled element for both prover and verifier. Verification further
//! collapses all ~5n per-element equality checks into a single
//! random-linear-combination multiscalar equation ([`verify_shuffle`]), with
//! the textbook per-equation verifier retained as
//! [`verify_shuffle_sequential`] for exact blame attribution;
//! [`crate::batch::verify_shuffle_batch`] extends the same combination
//! across all of a group step's proofs.
//!
//! ## Protocol sketch
//!
//! Statement: group key `X`, inputs `C[i][l]`, outputs `C'[j][l]` (n messages
//! of L components each). Claim: there are a permutation σ and scalars
//! `ρ[j][l]` with `C'[j][l] = C[σ(j)][l] + ρ[j][l]·(B, X)`.
//!
//! 1. The prover commits (per element, Pedersen) to `a_j = σ(j) + 1`.
//!    Challenge `x`.
//! 2. The prover commits to `b_j = x^{a_j}`. Challenges `y`, `z`.
//! 3. **Product argument.** Both sides form commitments to
//!    `v_j = y·a_j + b_j − z` homomorphically. The prover shows
//!    `∏_j v_j = ∏_{i=1..n} (y·i + x^i − z)` by committing to the partial
//!    products and proving each multiplicative step with a Σ-protocol, then
//!    opening the last partial product to the public value. By Schwartz-Zippel
//!    (over `z`, then `y`) this forces `{(a_j, b_j)} = {(i, x^i)}` as
//!    multisets, i.e. `a` is a permutation and `b_j = x^{a_j}`.
//! 4. **Linear multi-exponentiation argument.** For every component `l` the
//!    prover shows knowledge of openings `b_j` of the step-2 commitments and
//!    of a scalar `ρ*_l` with
//!    `Σ_j b_j·C'[j][l] − ρ*_l·(B, X) = Σ_i x^i·C[i][l]`,
//!    which for a correct shuffle holds with `ρ*_l = Σ_j b_j·ρ[j][l]`.
//!
//! All challenges are Fiat-Shamir derived from a transcript binding the group
//! key, the entire input and output batches, and every commitment and
//! announcement in order.

use curve25519_dalek::constants::RISTRETTO_BASEPOINT_TABLE;
use curve25519_dalek::ristretto::RistrettoPoint;
use curve25519_dalek::scalar::Scalar;
use curve25519_dalek::traits::Identity;
use rand::{CryptoRng, RngCore};
use serde::{Deserialize, Serialize};

use crate::elgamal::{MessageCiphertext, PublicKey, ShuffleWitness};
use crate::error::{CryptoError, CryptoResult};
use crate::pedersen::CommitmentKey;
use crate::transcript::Transcript;

/// One multiplicative step of the product argument: proves that the `j`-th
/// partial-product commitment opens to the product of the previous partial
/// product and `v_j`.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct ProductStepProof {
    /// Announcement `α·G + β·H` for the opening of `c_v[j]`.
    pub announce_value: RistrettoPoint,
    /// Announcement `α·c_p[j−1] + γ·H` for the multiplicative relation.
    pub announce_step: RistrettoPoint,
    /// Response for `v_j`.
    pub response_value: Scalar,
    /// Response for the blinding of `c_v[j]`.
    pub response_value_blinding: Scalar,
    /// Response for the step blinding `s_j = r_p[j] − v_j·r_p[j−1]`.
    pub response_step_blinding: Scalar,
}

/// The verifiable-shuffle proof.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct ShuffleProof {
    /// Commitments to the permutation indices `a_j = σ(j) + 1`.
    pub commit_perm: Vec<RistrettoPoint>,
    /// Commitments to the permuted challenge powers `b_j = x^{a_j}`.
    pub commit_powers: Vec<RistrettoPoint>,
    /// Commitments to the partial products `p_j` (index 0 is omitted; it
    /// equals the homomorphically derived `c_v[0]`).
    pub commit_partial: Vec<RistrettoPoint>,
    /// Per-step multiplication proofs (one for each `j ≥ 1`).
    pub product_steps: Vec<ProductStepProof>,
    /// Announcement of the final-opening proof (`c_p[n−1] − P·G = r·H`).
    pub announce_final: RistrettoPoint,
    /// Response of the final-opening proof.
    pub response_final: Scalar,
    /// Announcements for the openings of `commit_powers`.
    pub announce_powers: Vec<RistrettoPoint>,
    /// Announcements for the R-half of the multi-exponentiation relation,
    /// one per component.
    pub announce_rand: Vec<RistrettoPoint>,
    /// Announcements for the payload-half of the multi-exponentiation
    /// relation, one per component.
    pub announce_payload: Vec<RistrettoPoint>,
    /// Responses for `b_j`.
    pub response_powers: Vec<Scalar>,
    /// Responses for the blindings of `commit_powers`.
    pub response_power_blindings: Vec<Scalar>,
    /// Responses for the aggregated rerandomizers `ρ*_l`, one per component.
    pub response_rho: Vec<Scalar>,
}

/// Builds the statement transcript shared by prover and verifier.
fn statement_transcript(
    pk: &PublicKey,
    inputs: &[MessageCiphertext],
    outputs: &[MessageCiphertext],
) -> Transcript {
    let mut t = Transcript::new(b"atom-shuffle-proof");
    t.append_point(b"group-pk", &pk.0);
    t.append_u64(b"n", inputs.len() as u64);
    let components = inputs.first().map(|m| m.components.len()).unwrap_or(0);
    t.append_u64(b"components", components as u64);
    for batch_label in [(b"input" as &'static [u8], inputs), (b"output", outputs)] {
        let (label, batch) = batch_label;
        for message in batch {
            for ct in &message.components {
                t.append_bytes(b"side", label);
                t.append_point(b"R", &ct.r);
                t.append_point(b"c", &ct.c);
            }
        }
    }
    t
}

/// Checks the statement shape; returns (n, L).
fn check_shape(
    inputs: &[MessageCiphertext],
    outputs: &[MessageCiphertext],
) -> CryptoResult<(usize, usize)> {
    let n = inputs.len();
    if n == 0 || outputs.len() != n {
        return Err(CryptoError::Parameter(
            "shuffle proof needs equally sized, non-empty batches".into(),
        ));
    }
    let components = inputs[0].components.len();
    if components == 0 {
        return Err(CryptoError::Parameter("empty message ciphertext".into()));
    }
    for message in inputs.iter().chain(outputs.iter()) {
        if message.components.len() != components {
            return Err(CryptoError::Parameter(
                "all messages must have the same number of components".into(),
            ));
        }
        if message.components.iter().any(|c| c.y.is_some()) {
            return Err(CryptoError::Parameter(
                "shuffle proof applies to fresh ciphertexts only".into(),
            ));
        }
    }
    Ok((n, components))
}

/// Computes the public product `∏_{i=1..n} (y·i + x^i − z)`.
fn public_product(n: usize, x: &Scalar, y: &Scalar, z: &Scalar) -> Scalar {
    let mut product = Scalar::ONE;
    let mut x_power = Scalar::ONE;
    for i in 1..=n {
        x_power *= x;
        product *= y * Scalar::from(i as u64) + x_power - z;
    }
    product
}

/// Computes the public multi-exponentiation targets
/// `T_R[l] = Σ_i x^{i+1}·R_i[l]` and `T_c[l] = Σ_i x^{i+1}·c_i[l]`.
fn public_targets(
    inputs: &[MessageCiphertext],
    components: usize,
    x: &Scalar,
) -> (Vec<RistrettoPoint>, Vec<RistrettoPoint>) {
    let mut x_powers = Vec::with_capacity(inputs.len());
    let mut x_power = Scalar::ONE;
    for _ in inputs {
        x_power *= x;
        x_powers.push(x_power);
    }
    let mut t_rand = Vec::with_capacity(components);
    let mut t_payload = Vec::with_capacity(components);
    for l in 0..components {
        let rs: Vec<RistrettoPoint> = inputs.iter().map(|m| m.components[l].r).collect();
        let cs: Vec<RistrettoPoint> = inputs.iter().map(|m| m.components[l].c).collect();
        t_rand.push(RistrettoPoint::multiscalar_mul(&x_powers, &rs));
        t_payload.push(RistrettoPoint::multiscalar_mul(&x_powers, &cs));
    }
    (t_rand, t_payload)
}

/// Produces a shuffle proof from the witness returned by
/// [`crate::elgamal::shuffle`].
pub fn prove_shuffle<R: RngCore + CryptoRng>(
    pk: &PublicKey,
    inputs: &[MessageCiphertext],
    outputs: &[MessageCiphertext],
    witness: &ShuffleWitness,
    rng: &mut R,
) -> CryptoResult<ShuffleProof> {
    let (n, components) = check_shape(inputs, outputs)?;
    if witness.permutation.len() != n || witness.randomness.len() != n {
        return Err(CryptoError::Parameter("witness shape mismatch".into()));
    }
    let key = CommitmentKey::atom();
    let mut t = statement_transcript(pk, inputs, outputs);

    // Step 1: commit to the permutation (a_j = σ(j) + 1).
    let perm_values: Vec<Scalar> = witness
        .permutation
        .iter()
        .map(|&src| Scalar::from((src + 1) as u64))
        .collect();
    let mut perm_blindings = Vec::with_capacity(n);
    let mut commit_perm = Vec::with_capacity(n);
    for value in &perm_values {
        let (c, r) = key.commit_random(value, rng);
        commit_perm.push(c);
        perm_blindings.push(r);
    }
    for c in &commit_perm {
        t.append_point(b"commit-perm", c);
    }
    let x = t.challenge_scalar(b"x");

    // Step 2: commit to the permuted powers b_j = x^{σ(j)+1}.
    let mut x_powers = Vec::with_capacity(n + 1);
    x_powers.push(Scalar::ONE);
    for i in 0..n {
        let next = x_powers[i] * x;
        x_powers.push(next);
    }
    let power_values: Vec<Scalar> = witness
        .permutation
        .iter()
        .map(|&src| x_powers[src + 1])
        .collect();
    let mut power_blindings = Vec::with_capacity(n);
    let mut commit_powers = Vec::with_capacity(n);
    for value in &power_values {
        let (c, r) = key.commit_random(value, rng);
        commit_powers.push(c);
        power_blindings.push(r);
    }
    for c in &commit_powers {
        t.append_point(b"commit-powers", c);
    }
    let y = t.challenge_scalar(b"y");
    let z = t.challenge_scalar(b"z");

    // Step 3: product argument over v_j = y·a_j + b_j − z.
    let v_values: Vec<Scalar> = perm_values
        .iter()
        .zip(power_values.iter())
        .map(|(a, b)| y * a + b - z)
        .collect();
    let v_blindings: Vec<Scalar> = perm_blindings
        .iter()
        .zip(power_blindings.iter())
        .map(|(ra, rb)| y * ra + rb)
        .collect();
    // `−z·G` is constant across the batch: one fixed-base walk, no
    // per-element subtraction (each `Sub` costs a Fermat inversion).
    let neg_z_g = crate::batch::mul_fixed(&key.g, &-z);
    let v_commitments: Vec<RistrettoPoint> = commit_perm
        .iter()
        .zip(commit_powers.iter())
        .map(|(ca, cb)| y * ca + cb + neg_z_g)
        .collect();

    // Partial products p_j and their commitments (p_0 reuses c_v[0]).
    let mut partial_values = Vec::with_capacity(n);
    let mut partial_blindings = Vec::with_capacity(n);
    let mut commit_partial = Vec::with_capacity(n - 1);
    partial_values.push(v_values[0]);
    partial_blindings.push(v_blindings[0]);
    for j in 1..n {
        let value = partial_values[j - 1] * v_values[j];
        let (c, r) = key.commit_random(&value, rng);
        partial_values.push(value);
        partial_blindings.push(r);
        commit_partial.push(c);
    }
    for c in &commit_partial {
        t.append_point(b"commit-partial", c);
    }

    // Announcements for the per-step multiplication proofs. The blinding
    // generator's comb table is looked up once for the whole loop.
    let h_table = crate::batch::fixed_base_table(&key.h);
    let mut step_secrets = Vec::with_capacity(n.saturating_sub(1));
    let mut step_announcements = Vec::with_capacity(n.saturating_sub(1));
    for j in 1..n {
        let prev_commit = if j == 1 {
            v_commitments[0]
        } else {
            commit_partial[j - 2]
        };
        let alpha = Scalar::random(rng);
        let beta = Scalar::random(rng);
        let gamma = Scalar::random(rng);
        let announce_value = key.commit(&alpha, &beta);
        let announce_step = alpha * prev_commit + h_table.mul_scalar(&gamma);
        t.append_point(b"product-announce-value", &announce_value);
        t.append_point(b"product-announce-step", &announce_step);
        step_secrets.push((alpha, beta, gamma, prev_commit));
        step_announcements.push((announce_value, announce_step));
    }

    // Final opening announcement: c_p[n−1] − P·G = r·H.
    let final_secret = Scalar::random(rng);
    let announce_final = crate::batch::mul_fixed(&key.h, &final_secret);
    t.append_point(b"final-announce", &announce_final);

    // Step 4: multi-exponentiation announcements.
    let mut power_nonces = Vec::with_capacity(n);
    let mut power_blinding_nonces = Vec::with_capacity(n);
    let mut announce_powers = Vec::with_capacity(n);
    for _ in 0..n {
        let d = Scalar::random(rng);
        let e = Scalar::random(rng);
        announce_powers.push(key.commit(&d, &e));
        power_nonces.push(d);
        power_blinding_nonces.push(e);
    }
    let mut rho_nonces = Vec::with_capacity(components);
    let mut announce_rand = Vec::with_capacity(components);
    let mut announce_payload = Vec::with_capacity(components);
    for l in 0..components {
        let t_nonce = Scalar::random(rng);
        let rs: Vec<RistrettoPoint> = outputs.iter().map(|m| m.components[l].r).collect();
        let cs: Vec<RistrettoPoint> = outputs.iter().map(|m| m.components[l].c).collect();
        let acc_rand = RistrettoPoint::multiscalar_mul(&power_nonces, &rs)
            + -t_nonce * RISTRETTO_BASEPOINT_TABLE;
        let acc_payload = RistrettoPoint::multiscalar_mul(&power_nonces, &cs)
            + crate::batch::mul_fixed(&pk.0, &-t_nonce);
        rho_nonces.push(t_nonce);
        announce_rand.push(acc_rand);
        announce_payload.push(acc_payload);
    }
    for a in &announce_powers {
        t.append_point(b"announce-powers", a);
    }
    for a in announce_rand.iter().chain(announce_payload.iter()) {
        t.append_point(b"announce-multiexp", a);
    }

    let challenge = t.challenge_scalar(b"challenge");

    // Responses: product argument steps.
    let product_steps = (1..n)
        .map(|j| {
            let (alpha, beta, gamma, _) = step_secrets[j - 1];
            let (announce_value, announce_step) = step_announcements[j - 1];
            let step_blinding = partial_blindings[j] - v_values[j] * partial_blindings[j - 1];
            ProductStepProof {
                announce_value,
                announce_step,
                response_value: alpha + challenge * v_values[j],
                response_value_blinding: beta + challenge * v_blindings[j],
                response_step_blinding: gamma + challenge * step_blinding,
            }
        })
        .collect();

    // Final opening response.
    let response_final = final_secret + challenge * partial_blindings[n - 1];

    // Multi-exponentiation responses.
    let response_powers: Vec<Scalar> = power_nonces
        .iter()
        .zip(power_values.iter())
        .map(|(d, b)| d + challenge * b)
        .collect();
    let response_power_blindings: Vec<Scalar> = power_blinding_nonces
        .iter()
        .zip(power_blindings.iter())
        .map(|(e, r)| e + challenge * r)
        .collect();
    let response_rho: Vec<Scalar> = (0..components)
        .map(|l| {
            let rho_star: Scalar = (0..n)
                .map(|j| power_values[j] * witness.randomness[j][l])
                .sum();
            rho_nonces[l] + challenge * rho_star
        })
        .collect();

    Ok(ShuffleProof {
        commit_perm,
        commit_powers,
        commit_partial,
        product_steps,
        announce_final,
        response_final,
        announce_powers,
        announce_rand,
        announce_payload,
        response_powers,
        response_power_blindings,
        response_rho,
    })
}

/// Shape-checked statement dimensions plus the Fiat-Shamir challenges
/// replayed from a proof's transcript — everything verification needs
/// besides the equations themselves. Shared by the sequential verifier, the
/// single-proof RLC path and [`crate::batch::verify_shuffle_batch`], so all
/// three reject malformed statements with identical errors.
pub(crate) struct ShuffleChallenges {
    pub(crate) n: usize,
    pub(crate) components: usize,
    pub(crate) x: Scalar,
    pub(crate) y: Scalar,
    pub(crate) z: Scalar,
    pub(crate) challenge: Scalar,
}

/// Checks the statement and proof shapes, replays the Fiat-Shamir transcript
/// and returns the derived challenges.
pub(crate) fn replay_challenges(
    pk: &PublicKey,
    inputs: &[MessageCiphertext],
    outputs: &[MessageCiphertext],
    proof: &ShuffleProof,
) -> CryptoResult<ShuffleChallenges> {
    let (n, components) = check_shape(inputs, outputs)?;

    // Shape checks on the proof itself.
    if proof.commit_perm.len() != n
        || proof.commit_powers.len() != n
        || proof.commit_partial.len() != n - 1
        || proof.product_steps.len() != n - 1
        || proof.announce_powers.len() != n
        || proof.response_powers.len() != n
        || proof.response_power_blindings.len() != n
        || proof.announce_rand.len() != components
        || proof.announce_payload.len() != components
        || proof.response_rho.len() != components
    {
        return Err(CryptoError::ProofInvalid(
            "shuffle proof shape mismatch".into(),
        ));
    }

    let mut t = statement_transcript(pk, inputs, outputs);
    for c in &proof.commit_perm {
        t.append_point(b"commit-perm", c);
    }
    let x = t.challenge_scalar(b"x");
    for c in &proof.commit_powers {
        t.append_point(b"commit-powers", c);
    }
    let y = t.challenge_scalar(b"y");
    let z = t.challenge_scalar(b"z");
    for c in &proof.commit_partial {
        t.append_point(b"commit-partial", c);
    }
    for step in &proof.product_steps {
        t.append_point(b"product-announce-value", &step.announce_value);
        t.append_point(b"product-announce-step", &step.announce_step);
    }
    t.append_point(b"final-announce", &proof.announce_final);
    for a in &proof.announce_powers {
        t.append_point(b"announce-powers", a);
    }
    for a in proof
        .announce_rand
        .iter()
        .chain(proof.announce_payload.iter())
    {
        t.append_point(b"announce-multiexp", a);
    }
    let challenge = t.challenge_scalar(b"challenge");
    Ok(ShuffleChallenges {
        n,
        components,
        x,
        y,
        z,
        challenge,
    })
}

/// Verifies a shuffle proof equation by equation — the textbook path.
///
/// [`verify_shuffle`] collapses all of these checks into one random linear
/// combination; this verifier is retained as its fallback (so a rejection
/// names the exact failing relation) and as the benchmark baseline the
/// batched path is gated against.
pub fn verify_shuffle_sequential(
    pk: &PublicKey,
    inputs: &[MessageCiphertext],
    outputs: &[MessageCiphertext],
    proof: &ShuffleProof,
) -> CryptoResult<()> {
    let ShuffleChallenges {
        n,
        components,
        x,
        y,
        z,
        challenge,
    } = replay_challenges(pk, inputs, outputs, proof)?;
    let key = CommitmentKey::atom();

    // Homomorphically derived commitments to v_j (`−z·G` hoisted: one
    // fixed-base walk instead of an inversion per element).
    let neg_z_g = crate::batch::mul_fixed(&key.g, &-z);
    let v_commitments: Vec<RistrettoPoint> = proof
        .commit_perm
        .iter()
        .zip(proof.commit_powers.iter())
        .map(|(ca, cb)| y * ca + cb + neg_z_g)
        .collect();

    // Product argument: each multiplicative step (the blinding generator's
    // comb table is looked up once for the whole loop).
    let h_table = crate::batch::fixed_base_table(&key.h);
    for j in 1..n {
        let step = &proof.product_steps[j - 1];
        let prev_commit = if j == 1 {
            v_commitments[0]
        } else {
            proof.commit_partial[j - 2]
        };
        let current_commit = proof.commit_partial[j - 1];

        if key.commit(&step.response_value, &step.response_value_blinding)
            != step.announce_value + challenge * v_commitments[j]
        {
            return Err(CryptoError::ProofInvalid(
                "product argument: value opening failed".into(),
            ));
        }
        if step.response_value * prev_commit + h_table.mul_scalar(&step.response_step_blinding)
            != step.announce_step + challenge * current_commit
        {
            return Err(CryptoError::ProofInvalid(
                "product argument: multiplicative step failed".into(),
            ));
        }
    }

    // Final opening: the last partial product equals the public product
    // (`challenge·(c_p − P·G)` expanded so the `G` share stays fixed-base).
    let product = public_product(n, &x, &y, &z);
    let last_commit = if n == 1 {
        v_commitments[0]
    } else {
        proof.commit_partial[n - 2]
    };
    if crate::batch::mul_fixed(&key.h, &proof.response_final)
        != proof.announce_final
            + challenge * last_commit
            + crate::batch::mul_fixed(&key.g, &-(challenge * product))
    {
        return Err(CryptoError::ProofInvalid(
            "product argument: final opening failed".into(),
        ));
    }

    // Multi-exponentiation argument.
    for j in 0..n {
        if key.commit(
            &proof.response_powers[j],
            &proof.response_power_blindings[j],
        ) != proof.announce_powers[j] + challenge * proof.commit_powers[j]
        {
            return Err(CryptoError::ProofInvalid(
                "multi-exponentiation: power opening failed".into(),
            ));
        }
    }
    let (t_rand, t_payload) = public_targets(inputs, components, &x);
    for l in 0..components {
        let rs: Vec<RistrettoPoint> = outputs.iter().map(|m| m.components[l].r).collect();
        let cs: Vec<RistrettoPoint> = outputs.iter().map(|m| m.components[l].c).collect();
        let acc_rand = RistrettoPoint::multiscalar_mul(&proof.response_powers, &rs)
            + -proof.response_rho[l] * RISTRETTO_BASEPOINT_TABLE;
        let acc_payload = RistrettoPoint::multiscalar_mul(&proof.response_powers, &cs)
            + crate::batch::mul_fixed(&pk.0, &-proof.response_rho[l]);

        if acc_rand != proof.announce_rand[l] + challenge * t_rand[l] {
            return Err(CryptoError::ProofInvalid(
                "multi-exponentiation: randomness relation failed".into(),
            ));
        }
        if acc_payload != proof.announce_payload[l] + challenge * t_payload[l] {
            return Err(CryptoError::ProofInvalid(
                "multi-exponentiation: payload relation failed".into(),
            ));
        }
    }

    Ok(())
}

/// Domain separator of the RLC transcript that derives the combination
/// coefficients, shared with [`crate::batch::verify_shuffle_batch`].
pub(crate) const RLC_DOMAIN: &[u8] = b"atom-batch-shuffle";

/// Absorbs one proof's challenge and responses into the RLC transcript, so
/// the combination coefficients depend on every verified quantity: the
/// Fiat-Shamir challenge already binds the statement, commitments and
/// announcements, and the responses are appended explicitly.
pub(crate) fn absorb_proof(rlc: &mut Transcript, ch: &ShuffleChallenges, proof: &ShuffleProof) {
    rlc.append_scalar(b"challenge", &ch.challenge);
    for step in &proof.product_steps {
        rlc.append_scalar(b"response-value", &step.response_value);
        rlc.append_scalar(b"response-value-blinding", &step.response_value_blinding);
        rlc.append_scalar(b"response-step-blinding", &step.response_step_blinding);
    }
    rlc.append_scalar(b"response-final", &proof.response_final);
    for s in &proof.response_powers {
        rlc.append_scalar(b"response-powers", s);
    }
    for s in &proof.response_power_blindings {
        rlc.append_scalar(b"response-power-blindings", s);
    }
    for s in &proof.response_rho {
        rlc.append_scalar(b"response-rho", s);
    }
}

/// Accumulator for the random linear combination of shuffle-verification
/// equations. Every equation is rearranged into the canonical form
/// `g·G + h·H = Σ s_k·P_k + Σ ρ·ρ*·X` (fixed bases on the left, statement
/// and proof points on the right, group keys `X` kept separate so their
/// cached fixed-base tables are used), scaled by a fresh 128-bit
/// transcript-derived coefficient, and summed. One [`check`] then settles
/// every equation of every accumulated proof at once: a single pair of
/// fixed-base walks plus one size-O(Σ terms) multiscalar multiplication
/// (coalescing repeated points, Pippenger buckets past the crossover).
/// By Schwartz-Zippel a batch containing any false equation passes with
/// probability ≤ 2^-128 over the coefficients.
///
/// [`check`]: RlcAccumulator::check
pub(crate) struct RlcAccumulator {
    g_coeff: Scalar,
    h_coeff: Scalar,
    /// `Σ ρ·ρ*·X` terms (group keys go through their cached tables).
    rhs_extra: RistrettoPoint,
    scalars: Vec<Scalar>,
    points: Vec<RistrettoPoint>,
}

impl RlcAccumulator {
    pub(crate) fn new() -> Self {
        Self {
            g_coeff: Scalar::ZERO,
            h_coeff: Scalar::ZERO,
            rhs_extra: RistrettoPoint::identity(),
            scalars: Vec::new(),
            points: Vec::new(),
        }
    }

    fn push(&mut self, scalar: Scalar, point: RistrettoPoint) {
        self.scalars.push(scalar);
        self.points.push(point);
    }

    /// Folds every verification equation of one proof into the running
    /// combination, drawing one coefficient per equation from `rlc` (one
    /// stream per proof: `3n − 1 + 2·components` equations).
    pub(crate) fn accumulate(
        &mut self,
        rlc: &mut Transcript,
        pk: &PublicKey,
        inputs: &[MessageCiphertext],
        outputs: &[MessageCiphertext],
        proof: &ShuffleProof,
        ch: &ShuffleChallenges,
    ) {
        let n = ch.n;
        let c = ch.challenge;
        let mut rhos = rlc
            .challenge_coefficients(b"rho", 3 * n - 1 + 2 * ch.components)
            .into_iter();
        let mut next_rho = || rhos.next().expect("one coefficient per equation");
        self.scalars
            .reserve(10 * n + 2 * ch.components * (n + 1) + 8);
        self.points
            .reserve(10 * n + 2 * ch.components * (n + 1) + 8);

        // x^{i+1} weights of the public multi-exponentiation targets.
        let mut x_powers = Vec::with_capacity(n);
        let mut x_power = Scalar::ONE;
        for _ in 0..n {
            x_power *= ch.x;
            x_powers.push(x_power);
        }

        // Product argument, per step j: the value opening
        //   rv·G + rvb·H = A_v + c·(y·CP_j + CB_j − z·G)
        // and the multiplicative step
        //   rv·prev + rsb·H = A_s + c·c_p[j−1]
        // with prev = c_v[0] (expanded homomorphically) for j = 1, else
        // c_p[j−2]. Negations fold into scalar coefficients — a point `Sub`
        // on this backend costs a Fermat inversion.
        for j in 1..n {
            let step = &proof.product_steps[j - 1];
            let rho = next_rho();
            self.g_coeff += rho * (step.response_value + c * ch.z);
            self.h_coeff += rho * step.response_value_blinding;
            self.push(rho, step.announce_value);
            self.push(rho * c * ch.y, proof.commit_perm[j]);
            self.push(rho * c, proof.commit_powers[j]);

            let rho = next_rho();
            self.h_coeff += rho * step.response_step_blinding;
            self.push(rho, step.announce_step);
            self.push(rho * c, proof.commit_partial[j - 1]);
            let rv = rho * step.response_value;
            if j == 1 {
                self.push(-(rv * ch.y), proof.commit_perm[0]);
                self.push(-rv, proof.commit_powers[0]);
                self.g_coeff -= rv * ch.z;
            } else {
                self.push(-rv, proof.commit_partial[j - 2]);
            }
        }

        // Final opening: rf·H + c·P·G = A_f + c·c_p[n−1].
        let rho = next_rho();
        let product = public_product(n, &ch.x, &ch.y, &ch.z);
        self.g_coeff += rho * c * product;
        self.h_coeff += rho * proof.response_final;
        self.push(rho, proof.announce_final);
        if n == 1 {
            self.push(rho * c * ch.y, proof.commit_perm[0]);
            self.push(rho * c, proof.commit_powers[0]);
            self.g_coeff += rho * c * ch.z;
        } else {
            self.push(rho * c, proof.commit_partial[n - 2]);
        }

        // Power openings: rp_j·G + rpb_j·H = A_p[j] + c·CB_j.
        for j in 0..n {
            let rho = next_rho();
            self.g_coeff += rho * proof.response_powers[j];
            self.h_coeff += rho * proof.response_power_blindings[j];
            self.push(rho, proof.announce_powers[j]);
            self.push(rho * c, proof.commit_powers[j]);
        }

        // Multi-exponentiation relations, per component l: the randomness
        // half Σ_j rp_j·R'_j − rρ_l·B = A_R[l] + c·Σ_i x^{i+1}·R_i and the
        // payload half with c-components and the group key X in place of B.
        let mut pk_coeff = Scalar::ZERO;
        for l in 0..ch.components {
            let rho = next_rho();
            self.g_coeff -= rho * proof.response_rho[l];
            self.push(rho, proof.announce_rand[l]);
            for (i, message) in inputs.iter().enumerate() {
                self.push(rho * c * x_powers[i], message.components[l].r);
            }
            for (j, message) in outputs.iter().enumerate() {
                self.push(-(rho * proof.response_powers[j]), message.components[l].r);
            }

            let rho = next_rho();
            pk_coeff += rho * proof.response_rho[l];
            self.push(rho, proof.announce_payload[l]);
            for (i, message) in inputs.iter().enumerate() {
                self.push(rho * c * x_powers[i], message.components[l].c);
            }
            for (j, message) in outputs.iter().enumerate() {
                self.push(-(rho * proof.response_powers[j]), message.components[l].c);
            }
        }
        self.rhs_extra += crate::batch::mul_fixed(&pk.0, &pk_coeff);
    }

    /// Settles the combined equation.
    pub(crate) fn check(&self) -> bool {
        let key = CommitmentKey::atom();
        let lhs = RISTRETTO_BASEPOINT_TABLE.mul_scalar(&self.g_coeff)
            + crate::batch::mul_fixed(&key.h, &self.h_coeff);
        lhs == crate::batch::multiscalar_mul(&self.scalars, &self.points) + self.rhs_extra
    }
}

/// Verifies a shuffle proof.
///
/// Fast path: all ~5n per-element equality checks are folded into one random
/// linear combination and settled by a single multiscalar multiplication
/// (see `RlcAccumulator`). An RLC miss can only mean some underlying
/// equation is false (an honest proof satisfies every equation identically,
/// so its combination holds for *any* coefficients), in which case the
/// sequential verifier re-runs the equations one by one to report the exact
/// failing relation — the cold path, taken only for invalid proofs.
pub fn verify_shuffle(
    pk: &PublicKey,
    inputs: &[MessageCiphertext],
    outputs: &[MessageCiphertext],
    proof: &ShuffleProof,
) -> CryptoResult<()> {
    let ch = replay_challenges(pk, inputs, outputs, proof)?;
    let mut rlc = Transcript::new(RLC_DOMAIN);
    rlc.append_u64(b"count", 1);
    absorb_proof(&mut rlc, &ch, proof);
    let mut acc = RlcAccumulator::new();
    acc.accumulate(&mut rlc, pk, inputs, outputs, proof, &ch);
    if acc.check() {
        Ok(())
    } else {
        verify_shuffle_sequential(pk, inputs, outputs, proof)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::elgamal::{encrypt_message, shuffle, KeyPair};
    use crate::encoding::encode_message;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn batch(
        rng: &mut StdRng,
        kp: &KeyPair,
        count: usize,
        msg_len: usize,
    ) -> Vec<MessageCiphertext> {
        (0..count)
            .map(|i| {
                let msg = vec![i as u8 + 1; msg_len];
                let points = encode_message(&msg).unwrap();
                encrypt_message(&kp.public, &points, rng).0
            })
            .collect()
    }

    #[test]
    fn honest_shuffle_proof_verifies() {
        let mut rng = StdRng::seed_from_u64(1234);
        let kp = KeyPair::generate(&mut rng);
        let inputs = batch(&mut rng, &kp, 8, 40);
        let (outputs, witness) = shuffle(&kp.public, &inputs, &mut rng).unwrap();
        let proof = prove_shuffle(&kp.public, &inputs, &outputs, &witness, &mut rng).unwrap();
        assert!(verify_shuffle(&kp.public, &inputs, &outputs, &proof).is_ok());
    }

    #[test]
    fn single_message_shuffle_proof_verifies() {
        let mut rng = StdRng::seed_from_u64(5);
        let kp = KeyPair::generate(&mut rng);
        let inputs = batch(&mut rng, &kp, 1, 10);
        let (outputs, witness) = shuffle(&kp.public, &inputs, &mut rng).unwrap();
        let proof = prove_shuffle(&kp.public, &inputs, &outputs, &witness, &mut rng).unwrap();
        assert!(verify_shuffle(&kp.public, &inputs, &outputs, &proof).is_ok());
    }

    #[test]
    fn single_component_messages_verify() {
        let mut rng = StdRng::seed_from_u64(6);
        let kp = KeyPair::generate(&mut rng);
        let inputs = batch(&mut rng, &kp, 5, 8);
        let (outputs, witness) = shuffle(&kp.public, &inputs, &mut rng).unwrap();
        let proof = prove_shuffle(&kp.public, &inputs, &outputs, &witness, &mut rng).unwrap();
        assert!(verify_shuffle(&kp.public, &inputs, &outputs, &proof).is_ok());
    }

    #[test]
    fn replaced_output_ciphertext_detected() {
        let mut rng = StdRng::seed_from_u64(7);
        let kp = KeyPair::generate(&mut rng);
        let inputs = batch(&mut rng, &kp, 6, 40);
        let (mut outputs, witness) = shuffle(&kp.public, &inputs, &mut rng).unwrap();
        let proof = prove_shuffle(&kp.public, &inputs, &outputs, &witness, &mut rng).unwrap();

        // A malicious server swaps in an encryption of its own message.
        let points = encode_message(b"injected").unwrap();
        outputs[2] = encrypt_message(&kp.public, &points, &mut rng).0;
        assert!(verify_shuffle(&kp.public, &inputs, &outputs, &proof).is_err());
    }

    #[test]
    fn duplicated_output_detected() {
        let mut rng = StdRng::seed_from_u64(8);
        let kp = KeyPair::generate(&mut rng);
        let inputs = batch(&mut rng, &kp, 6, 40);
        let (mut outputs, witness) = shuffle(&kp.public, &inputs, &mut rng).unwrap();
        let proof = prove_shuffle(&kp.public, &inputs, &outputs, &witness, &mut rng).unwrap();
        outputs[3] = outputs[4].clone();
        assert!(verify_shuffle(&kp.public, &inputs, &outputs, &proof).is_err());
    }

    #[test]
    fn tampered_component_detected() {
        let mut rng = StdRng::seed_from_u64(9);
        let kp = KeyPair::generate(&mut rng);
        let inputs = batch(&mut rng, &kp, 4, 60);
        let (mut outputs, witness) = shuffle(&kp.public, &inputs, &mut rng).unwrap();
        let proof = prove_shuffle(&kp.public, &inputs, &outputs, &witness, &mut rng).unwrap();
        outputs[1].components[1].c += key_g();
        assert!(verify_shuffle(&kp.public, &inputs, &outputs, &proof).is_err());
    }

    #[test]
    fn proof_for_other_inputs_rejected() {
        let mut rng = StdRng::seed_from_u64(10);
        let kp = KeyPair::generate(&mut rng);
        let inputs = batch(&mut rng, &kp, 5, 40);
        let other_inputs = batch(&mut rng, &kp, 5, 40);
        let (outputs, witness) = shuffle(&kp.public, &inputs, &mut rng).unwrap();
        let proof = prove_shuffle(&kp.public, &inputs, &outputs, &witness, &mut rng).unwrap();
        assert!(verify_shuffle(&kp.public, &other_inputs, &outputs, &proof).is_err());
    }

    #[test]
    fn wrong_group_key_rejected() {
        let mut rng = StdRng::seed_from_u64(11);
        let kp = KeyPair::generate(&mut rng);
        let other = KeyPair::generate(&mut rng);
        let inputs = batch(&mut rng, &kp, 5, 40);
        let (outputs, witness) = shuffle(&kp.public, &inputs, &mut rng).unwrap();
        let proof = prove_shuffle(&kp.public, &inputs, &outputs, &witness, &mut rng).unwrap();
        assert!(verify_shuffle(&other.public, &inputs, &outputs, &proof).is_err());
    }

    #[test]
    fn non_rerandomized_identity_permutation_still_needs_valid_witness() {
        // Passing outputs that are NOT a shuffle of the inputs (fresh
        // encryptions of the same plaintexts) must fail even though the
        // plaintext multiset matches, because the witness does not satisfy
        // the rerandomization relation.
        let mut rng = StdRng::seed_from_u64(12);
        let kp = KeyPair::generate(&mut rng);
        let inputs = batch(&mut rng, &kp, 4, 20);
        let fake_outputs = batch(&mut rng, &kp, 4, 20);
        let witness = ShuffleWitness {
            permutation: (0..4).collect(),
            randomness: vec![vec![Scalar::ZERO; inputs[0].components.len()]; 4],
        };
        let proof = prove_shuffle(&kp.public, &inputs, &fake_outputs, &witness, &mut rng).unwrap();
        assert!(verify_shuffle(&kp.public, &inputs, &fake_outputs, &proof).is_err());
    }

    #[test]
    fn shape_mismatch_rejected() {
        let mut rng = StdRng::seed_from_u64(13);
        let kp = KeyPair::generate(&mut rng);
        let inputs = batch(&mut rng, &kp, 4, 20);
        let (outputs, witness) = shuffle(&kp.public, &inputs, &mut rng).unwrap();
        let proof = prove_shuffle(&kp.public, &inputs, &outputs, &witness, &mut rng).unwrap();
        assert!(verify_shuffle(&kp.public, &inputs[..3], &outputs, &proof).is_err());
        assert!(verify_shuffle(&kp.public, &inputs, &outputs[..3], &proof).is_err());
    }

    fn key_g() -> RistrettoPoint {
        CommitmentKey::atom().g
    }

    /// Runs the RLC combination directly (no fallback) so a bug in the
    /// accumulation equations cannot hide behind the sequential verifier.
    fn rlc_check(
        pk: &PublicKey,
        inputs: &[MessageCiphertext],
        outputs: &[MessageCiphertext],
        proof: &ShuffleProof,
    ) -> bool {
        let ch = replay_challenges(pk, inputs, outputs, proof).unwrap();
        let mut rlc = Transcript::new(RLC_DOMAIN);
        rlc.append_u64(b"count", 1);
        absorb_proof(&mut rlc, &ch, proof);
        let mut acc = RlcAccumulator::new();
        acc.accumulate(&mut rlc, pk, inputs, outputs, proof, &ch);
        acc.check()
    }

    #[test]
    fn rlc_fast_path_accepts_honest_proofs_without_fallback() {
        let mut rng = StdRng::seed_from_u64(20);
        let kp = KeyPair::generate(&mut rng);
        // Multi-element, single-element and single-component statements all
        // exercise different accumulation branches (j == 1 expansion,
        // n == 1 final opening).
        for (count, len) in [(8, 40), (1, 10), (5, 8), (2, 20)] {
            let inputs = batch(&mut rng, &kp, count, len);
            let (outputs, witness) = shuffle(&kp.public, &inputs, &mut rng).unwrap();
            let proof = prove_shuffle(&kp.public, &inputs, &outputs, &witness, &mut rng).unwrap();
            assert!(
                rlc_check(&kp.public, &inputs, &outputs, &proof),
                "honest proof (n={count}) must pass the RLC combination itself"
            );
        }
    }

    #[test]
    fn rlc_fast_path_rejects_every_tampered_field() {
        let mut rng = StdRng::seed_from_u64(21);
        let kp = KeyPair::generate(&mut rng);
        let inputs = batch(&mut rng, &kp, 5, 30);
        let (outputs, witness) = shuffle(&kp.public, &inputs, &mut rng).unwrap();
        let proof = prove_shuffle(&kp.public, &inputs, &outputs, &witness, &mut rng).unwrap();
        let one = Scalar::ONE;

        let mut tampered = Vec::new();
        let mut p = proof.clone();
        p.response_final += one;
        tampered.push(("response_final", p));
        let mut p = proof.clone();
        p.response_powers[2] += one;
        tampered.push(("response_powers", p));
        let mut p = proof.clone();
        p.response_power_blindings[0] += one;
        tampered.push(("response_power_blindings", p));
        let mut p = proof.clone();
        p.response_rho[0] += one;
        tampered.push(("response_rho", p));
        let mut p = proof.clone();
        p.product_steps[1].response_value += one;
        tampered.push(("response_value", p));
        let mut p = proof.clone();
        p.product_steps[0].response_step_blinding += one;
        tampered.push(("response_step_blinding", p));
        let mut p = proof.clone();
        p.announce_final += key_g();
        tampered.push(("announce_final", p));
        let mut p = proof.clone();
        p.commit_perm[3] += key_g();
        tampered.push(("commit_perm", p));

        for (field, p) in tampered {
            assert!(
                !rlc_check(&kp.public, &inputs, &outputs, &p),
                "tampered {field} must miss the RLC combination"
            );
            // And the public verifier agrees with the sequential one.
            let fast = verify_shuffle(&kp.public, &inputs, &outputs, &p);
            let slow = verify_shuffle_sequential(&kp.public, &inputs, &outputs, &p);
            assert_eq!(
                format!("{:?}", fast),
                format!("{:?}", slow),
                "verdicts diverge for tampered {field}"
            );
            assert!(fast.is_err());
        }
    }

    #[test]
    fn fast_and_sequential_verdicts_agree_on_statement_tampering() {
        let mut rng = StdRng::seed_from_u64(22);
        let kp = KeyPair::generate(&mut rng);
        let inputs = batch(&mut rng, &kp, 6, 40);
        let (outputs, witness) = shuffle(&kp.public, &inputs, &mut rng).unwrap();
        let proof = prove_shuffle(&kp.public, &inputs, &outputs, &witness, &mut rng).unwrap();

        let mut mauled = outputs.clone();
        mauled[4].components[0].c += key_g();
        let fast = verify_shuffle(&kp.public, &inputs, &mauled, &proof);
        let slow = verify_shuffle_sequential(&kp.public, &inputs, &mauled, &proof);
        assert!(fast.is_err());
        assert_eq!(format!("{:?}", fast), format!("{:?}", slow));
    }
}
