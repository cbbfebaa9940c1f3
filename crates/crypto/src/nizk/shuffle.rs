//! `ShufProof`: a NIZK argument that a batch of message ciphertexts was
//! correctly shuffled (permuted and rerandomized) under a group public key.
//!
//! **Substitution note.** The paper instantiates this with Neff's verifiable
//! shuffle (ref. \[59\] in the paper); this is the Bayer–Groth shuffle
//! argument (EUROCRYPT 2012) with the batch laid out as **one row** (their
//! `m = 1`, `n` = batch size, fixed — there is no shape parameter). Vectors
//! are committed whole under `CommitmentKey`, `com(v; r) = r·H + Σ v_i·G_i`,
//! so a proof is `6 + 2L` group elements and `3n + L + 3` scalars for `n`
//! messages of `L` components. Why one row: Bayer–Groth's `m × n` layout
//! shrinks the proof to `O(m + n)` elements, but without their FFT
//! techniques its prover pays `m` times the `2L·n` ciphertext
//! exponentiations that already dominate, and shuffle proofs never cross
//! the wire here (a group's members share one actor) — only compute counts.
//!
//! ## Protocol
//!
//! Statement: group key `X`, inputs `C[i][l]`, outputs `C'[j][l]` (`n`
//! messages of `L` components, each a pair `(R, c)`). Claim: there are a
//! permutation π and scalars `ρ[j][l]` with
//! `C'[j][l] = C[π(j)][l] + ρ[j][l]·(B, X)`. Indices below are 1-based.
//!
//! 1. The prover sends `c_A = com(a)` with `a_j = π(j)`. Challenge `x`.
//! 2. The prover sends `c_B = com(b)` with `b_j = x^{a_j}`. Challenges `y`, `z`.
//! 3. **Product argument** (Bayer–Groth's single-value product argument) on
//!    `d = y·a + b − z`, committed in `c_D = y·c_A + c_B − z·ΣG_i`, which
//!    both sides form homomorphically: `∏_j d_j = ∏_i (y·i + x^i − z)`. With
//!    partial products `p_j = d_1⋯d_j` the prover picks nonces `e_j`, `δ_j`
//!    (`δ_1 = e_1`, `δ_n = 0`) and sends `c_e = com(e)`,
//!    `c_δ = com(−δ_{j−1}·e_j)_{j≥2}`,
//!    `c_Δ = com(δ_j − d_j·δ_{j−1} − p_{j−1}·e_j)_{j≥2}`.
//! 4. **Multi-exponentiation argument**, a Σ-protocol for knowledge of the
//!    opening `b` of `c_B` and of `ρ*_l` with
//!    `Σ_j b_j·C'[j][l] − ρ*_l·(B, X) = Σ_i x^i·C[i][l]` (true for a correct
//!    shuffle with `ρ*_l = Σ_j b_j·ρ[j][l]`): nonces `f⁰`, `t_l`, messages
//!    `c_A0 = com(f⁰)` and `E[l] = Σ_j f⁰_j·C'[j][l] − t_l·(B, X)`.
//! 5. Challenge `w`, shared by both sub-arguments. Responses
//!    `ã = w·d + e`, `b̃ = w·p + δ`, `f = w·b + f⁰`, `τ_l = w·ρ*_l + t_l` and
//!    the blindings `r̃`, `s̃`, `r_f` of the three openings below.
//!
//! The verifier checks
//!
//! * `com(ã; r̃) = w·c_D + c_e` — `ã` answers for the committed `d`;
//! * `com((w·b̃_j − b̃_{j−1}·ã_j)_{j≥2}; s̃) = w·c_Δ + c_δ` — the `w²`
//!   coefficient `p_j − p_{j−1}·d_j` of each entry vanishes, so `b̃` answers
//!   for the running products of `d`;
//! * `b̃_1 = ã_1` and `b̃_n = w·∏_i (y·i + x^i − z)` — the chain of products
//!   starts at `d_1` and ends at the public value. By Schwartz–Zippel over
//!   `z`, then `y`, `{(a_j, b_j)} = {(i, x^i)}` as multisets: `a` is a
//!   permutation and `b_j = x^{a_j}`;
//! * `com(f; r_f) = w·c_B + c_A0` — `f` answers for the `b` of the product
//!   argument, the n per-element openings of a Σ-protocol chain in one;
//! * `Σ_j f_j·C'[j][l] − τ_l·(B, X) = E[l] + w·Σ_i x^i·C[i][l]` for both
//!   halves of every component — with `b_j = x^{π(j)}` a polynomial identity
//!   in `x` that forces `C'[j] = C[π(j)] + ρ·(B, X)` (Schwartz–Zippel over `x`).
//!
//! Every witness-dependent response carries a fresh nonce. The one exception
//! is `n = 1`, where the endpoint checks force `ã_1 = b̃_1 = w·d_1` and
//! `d_1 = y + x − z` is public anyway.
//!
//! ## Fiat–Shamir
//!
//! One transcript per proof absorbs the group key, `n`, `L` and a 64-byte
//! digest of each stage, then the prover's messages in the order
//! `c_A → x → c_B → y, z → c_e, c_δ, c_Δ, c_A0, E → w`: every challenge
//! binds the whole statement and every earlier message.
//!
//! ## Verification
//!
//! `verify_chain` folds the `3 + 2L` group equations of every link of a
//! shuffle chain into one random linear combination — 128-bit coefficients,
//! squeezed only after every link's `w` and responses are absorbed — and
//! settles it with one multi-exponentiation in which each point appears
//! once (see `RlcAccumulator`): `(k+1)·2L·n + n + (6+2L)·k` terms for `k`
//! links. [`verify_shuffle`] is the one-link case;
//! [`crate::batch::verify_shuffle_batch`] adds the per-proof fallback that
//! names the first failing member.

use curve25519_dalek::constants::RISTRETTO_BASEPOINT_TABLE;
use curve25519_dalek::ristretto::RistrettoPoint;
use curve25519_dalek::scalar::Scalar;
use curve25519_dalek::traits::Identity;
use rand::{CryptoRng, RngCore};
use serde::{Deserialize, Serialize};

use crate::batch::{mul_fixed, multiscalar_mul, ShuffleVerification};
use crate::elgamal::{MessageCiphertext, PublicKey, ShuffleWitness};
use crate::error::{CryptoError, CryptoResult};
use crate::pedersen::CommitmentKey;
use crate::transcript::Transcript;

/// The verifiable-shuffle proof (names as in the module docs).
#[derive(Clone, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct ShuffleProof {
    /// `c_A`: commitment to the permutation indices `a_j = π(j)`.
    pub commit_perm: RistrettoPoint,
    /// `c_B`: commitment to the permuted challenge powers `b_j = x^{a_j}`.
    pub commit_powers: RistrettoPoint,
    /// `c_e`: commitment to the product argument's nonces.
    pub commit_nonce: RistrettoPoint,
    /// `c_δ`: commitment to the constant terms `−δ_{j−1}·e_j`.
    pub commit_cross: RistrettoPoint,
    /// `c_Δ`: commitment to the linear terms `δ_j − d_j·δ_{j−1} − p_{j−1}·e_j`.
    pub commit_linear: RistrettoPoint,
    /// `c_A0`: commitment to the multi-exponentiation argument's nonces.
    pub commit_multiexp: RistrettoPoint,
    /// `E[l]`, R-half: one announcement per component.
    pub announce_rand: Vec<RistrettoPoint>,
    /// `E[l]`, payload half: one announcement per component.
    pub announce_payload: Vec<RistrettoPoint>,
    /// `ã`: responses for the values `d_j`.
    pub response_values: Vec<Scalar>,
    /// `r̃`: response for the blinding of `c_D`.
    pub response_values_blinding: Scalar,
    /// `b̃`: responses for the partial products `p_j`.
    pub response_products: Vec<Scalar>,
    /// `s̃`: response for the blinding of `c_Δ`.
    pub response_products_blinding: Scalar,
    /// `f`: responses for the powers `b_j`.
    pub response_powers: Vec<Scalar>,
    /// `r_f`: response for the blinding of `c_B`.
    pub response_powers_blinding: Scalar,
    /// `τ_l`: responses for the aggregated rerandomizers `ρ*_l`.
    pub response_rho: Vec<Scalar>,
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

/// What a proof's transcript absorbs of one stage of a shuffle chain.
fn stage_digest(stage: &[MessageCiphertext]) -> [u8; 64] {
    let mut t = Transcript::new(b"atom-shuffle-stage");
    let mut buf = Vec::new();
    for message in stage {
        t.append_message(b"message", message, &mut buf);
    }
    let mut digest = [0u8; 64];
    t.challenge_bytes(b"digest", &mut digest);
    digest
}

/// The statement transcript shared by prover and verifier.
fn statement_transcript(
    pk: &PublicKey,
    shape: (usize, usize),
    stages: [&[u8; 64]; 2],
) -> Transcript {
    let mut t = Transcript::new(b"atom-shuffle-proof");
    t.append_point(b"group-pk", &pk.0);
    t.append_u64(b"n", shape.0 as u64);
    t.append_u64(b"components", shape.1 as u64);
    t.append_bytes(b"input", stages[0]);
    t.append_bytes(b"output", stages[1]);
    t
}

/// Absorbs the messages both sub-arguments send before the challenge `w`
/// and derives it.
fn sigma_challenge(t: &mut Transcript, proof: &ShuffleProof) -> Scalar {
    t.append_point(b"commit-nonce", &proof.commit_nonce);
    t.append_point(b"commit-cross", &proof.commit_cross);
    t.append_point(b"commit-linear", &proof.commit_linear);
    t.append_point(b"commit-multiexp", &proof.commit_multiexp);
    for announcement in proof.announce_rand.iter().chain(&proof.announce_payload) {
        t.append_point(b"announce-multiexp", announcement);
    }
    t.challenge_scalar(b"w")
}

/// `x^1, …, x^n`.
fn powers(x: &Scalar, n: usize) -> Vec<Scalar> {
    std::iter::successors(Some(*x), |power| Some(power * x))
        .take(n)
        .collect()
}

/// The public product `∏_{i=1..n} (y·i + x^i − z)`.
fn public_product(x_powers: &[Scalar], y: &Scalar, z: &Scalar) -> Scalar {
    x_powers
        .iter()
        .zip(1u64..)
        .fold(Scalar::ONE, |acc, (x_power, i)| {
            acc * (y * Scalar::from(i) + x_power - z)
        })
}

fn random_scalars<R: RngCore + CryptoRng>(n: usize, rng: &mut R) -> Vec<Scalar> {
    (0..n).map(|_| Scalar::random(rng)).collect()
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
    prove(pk, inputs, outputs, &witness.permutation, witness, rng)
}

/// The prover. `committed` is the permutation `c_A` commits to — the
/// witness's own for every caller but the soundness tests, which drive a
/// prover whose `c_B` does not match its `c_A`.
fn prove<R: RngCore + CryptoRng>(
    pk: &PublicKey,
    inputs: &[MessageCiphertext],
    outputs: &[MessageCiphertext],
    committed: &[usize],
    witness: &ShuffleWitness,
    rng: &mut R,
) -> CryptoResult<ShuffleProof> {
    let (n, components) = check_shape(inputs, outputs)?;
    if committed.len() != n
        || witness.permutation.len() != n
        || witness.permutation.iter().any(|&src| src >= n)
        || witness.randomness.len() != n
        || witness.randomness.iter().any(|r| r.len() != components)
    {
        return Err(CryptoError::Parameter("witness shape mismatch".into()));
    }
    let key = CommitmentKey::atom(n);
    let stages = [&stage_digest(inputs), &stage_digest(outputs)];
    let mut t = statement_transcript(pk, (n, components), stages);

    // c_A, then c_B once x is known (0-based from here: a_j = π(j) + 1).
    let a: Vec<Scalar> = committed
        .iter()
        .map(|&src| Scalar::from(src as u64 + 1))
        .collect();
    let r_a = Scalar::random(rng);
    let commit_perm = key.commit(&a, &r_a);
    t.append_point(b"commit-perm", &commit_perm);
    let x = t.challenge_scalar(b"x");

    let x_powers = powers(&x, n);
    let b: Vec<Scalar> = witness
        .permutation
        .iter()
        .map(|&src| x_powers[src])
        .collect();
    let r_b = Scalar::random(rng);
    let commit_powers = key.commit(&b, &r_b);
    t.append_point(b"commit-powers", &commit_powers);
    let y = t.challenge_scalar(b"y");
    let z = t.challenge_scalar(b"z");

    // Product argument over d_j = y·a_j + b_j − z with partial products p.
    let d: Vec<Scalar> = a.iter().zip(&b).map(|(a, b)| y * a + b - z).collect();
    let mut p = d.clone();
    for j in 1..n {
        p[j] = p[j - 1] * d[j];
    }
    let mut e = random_scalars(n, rng);
    if n == 1 {
        // The endpoint checks pin ã_0 = b̃_0 = w·d_0; d_0 is public.
        e[0] = Scalar::ZERO;
    }
    let delta: Vec<Scalar> = (0..n)
        .map(|j| match j {
            0 => e[0],
            _ if j == n - 1 => Scalar::ZERO,
            _ => Scalar::random(rng),
        })
        .collect();
    let mut cross = vec![Scalar::ZERO; n];
    let mut linear = vec![Scalar::ZERO; n];
    for j in 1..n {
        cross[j] = -(delta[j - 1] * e[j]);
        linear[j] = delta[j] - d[j] * delta[j - 1] - p[j - 1] * e[j];
    }
    let (r_e, s_cross, s_linear) = (
        Scalar::random(rng),
        Scalar::random(rng),
        Scalar::random(rng),
    );

    // Multi-exponentiation argument: c_A0 and one announcement per half of
    // every component (`+ (−t)·base` sidesteps the point-subtraction
    // inversion).
    let f0 = random_scalars(n, rng);
    let r_0 = Scalar::random(rng);
    let t_nonces = random_scalars(components, rng);
    let mut announce_rand = Vec::with_capacity(components);
    let mut announce_payload = Vec::with_capacity(components);
    for (l, t_nonce) in t_nonces.iter().enumerate() {
        let rs: Vec<RistrettoPoint> = outputs.iter().map(|m| m.components[l].r).collect();
        let cs: Vec<RistrettoPoint> = outputs.iter().map(|m| m.components[l].c).collect();
        announce_rand.push(multiscalar_mul(&f0, &rs) + -*t_nonce * RISTRETTO_BASEPOINT_TABLE);
        announce_payload.push(multiscalar_mul(&f0, &cs) + mul_fixed(&pk.0, &-*t_nonce));
    }

    // The responses are filled in once the messages so far have fixed w.
    let mut proof = ShuffleProof {
        commit_perm,
        commit_powers,
        commit_nonce: key.commit(&e, &r_e),
        commit_cross: key.commit(&cross, &s_cross),
        commit_linear: key.commit(&linear, &s_linear),
        commit_multiexp: key.commit(&f0, &r_0),
        announce_rand,
        announce_payload,
        ..ShuffleProof::default()
    };
    let w = sigma_challenge(&mut t, &proof);
    let respond = |secrets: &[Scalar], nonces: &[Scalar]| -> Vec<Scalar> {
        secrets.iter().zip(nonces).map(|(s, k)| w * s + k).collect()
    };
    let rho_star: Vec<Scalar> = (0..components)
        .map(|l| (0..n).map(|j| b[j] * witness.randomness[j][l]).sum())
        .collect();
    proof.response_values = respond(&d, &e);
    proof.response_values_blinding = w * (y * r_a + r_b) + r_e;
    proof.response_products = respond(&p, &delta);
    proof.response_products_blinding = w * s_linear + s_cross;
    proof.response_powers = respond(&b, &f0);
    proof.response_powers_blinding = w * r_b + r_0;
    proof.response_rho = respond(&rho_star, &t_nonces);
    Ok(proof)
}

/// One link's shape-checked dimensions, where its stages' points sit in the
/// accumulator, and the Fiat–Shamir challenges replayed from its transcript.
struct Challenges {
    n: usize,
    components: usize,
    /// Offsets of the input and output stages' points.
    input: usize,
    output: usize,
    x: Scalar,
    y: Scalar,
    z: Scalar,
    w: Scalar,
}

/// A stage some link named, recognized again by slice identity.
struct Stage<'a> {
    batch: &'a [MessageCiphertext],
    digest: [u8; 64],
    /// Where its points start: message-major, then component, `R` before `c`.
    offset: usize,
}

/// Accumulator for the random linear combination of a chain's verification
/// equations, each moved to one side as `Σ s_k·P_k = 0` and scaled by a
/// 128-bit transcript-derived coefficient. A point keeps one slot however
/// many equations name it: the generators `G_i`, `H`, the basepoint and the
/// group keys (whose cached fixed-base tables are used) by kind, a stage's
/// points by the identity of its slice. By Schwartz–Zippel a chain with any
/// false equation passes [`check`] with probability ≤ 2^-128 over the
/// coefficients.
///
/// [`check`]: RlcAccumulator::check
#[derive(Default)]
struct RlcAccumulator<'a> {
    stages: Vec<Stage<'a>>,
    /// Coefficient of `G_i`.
    generators: Vec<Scalar>,
    basepoint: Scalar,
    blinding: Scalar,
    /// `Σ coefficient·X` over the links' group keys.
    keys: RistrettoPoint,
    scalars: Vec<Scalar>,
    points: Vec<RistrettoPoint>,
}

impl<'a> RlcAccumulator<'a> {
    fn push(&mut self, scalar: Scalar, point: RistrettoPoint) {
        self.scalars.push(scalar);
        self.points.push(point);
    }

    /// The index of `batch` among the stages, hashing it and reserving a
    /// slot per point on first sight.
    fn stage(&mut self, batch: &'a [MessageCiphertext]) -> usize {
        if let Some(known) = self
            .stages
            .iter()
            .position(|s| std::ptr::eq(s.batch, batch))
        {
            return known;
        }
        let offset = self.points.len();
        for ct in batch.iter().flat_map(|message| &message.components) {
            self.push(Scalar::ZERO, ct.r);
            self.push(Scalar::ZERO, ct.c);
        }
        self.stages.push(Stage {
            batch,
            digest: stage_digest(batch),
            offset,
        });
        self.stages.len() - 1
    }

    /// Checks the statement and proof shapes and replays the link's
    /// Fiat–Shamir transcript.
    fn replay(&mut self, link: &ShuffleVerification<'a>) -> CryptoResult<Challenges> {
        let (n, components) = check_shape(link.inputs, link.outputs)?;
        let proof = link.proof;
        if proof.announce_rand.len() != components
            || proof.announce_payload.len() != components
            || proof.response_rho.len() != components
            || proof.response_values.len() != n
            || proof.response_products.len() != n
            || proof.response_powers.len() != n
        {
            return Err(CryptoError::ProofInvalid(
                "shuffle proof shape mismatch".into(),
            ));
        }
        let (input, output) = (self.stage(link.inputs), self.stage(link.outputs));
        let stages = [&self.stages[input].digest, &self.stages[output].digest];
        let mut t = statement_transcript(link.pk, (n, components), stages);
        t.append_point(b"commit-perm", &proof.commit_perm);
        let x = t.challenge_scalar(b"x");
        t.append_point(b"commit-powers", &proof.commit_powers);
        let y = t.challenge_scalar(b"y");
        let z = t.challenge_scalar(b"z");
        let w = sigma_challenge(&mut t, proof);
        Ok(Challenges {
            n,
            components,
            input: self.stages[input].offset,
            output: self.stages[output].offset,
            x,
            y,
            z,
            w,
        })
    }

    /// Checks the link's two scalar equations and folds its `3 + 2L` group
    /// equations into the combination, one coefficient of `rlc` each.
    fn accumulate(
        &mut self,
        rlc: &mut Transcript,
        link: &ShuffleVerification<'a>,
        ch: &Challenges,
    ) -> CryptoResult<()> {
        let (n, proof, w) = (ch.n, link.proof, ch.w);
        let x_powers = powers(&ch.x, n);
        if proof.response_products[0] != proof.response_values[0] {
            return Err(CryptoError::ProofInvalid(
                "product argument: the partial products do not start at the first value".into(),
            ));
        }
        if proof.response_products[n - 1] != w * public_product(&x_powers, &ch.y, &ch.z) {
            return Err(CryptoError::ProofInvalid(
                "product argument: the partial products do not end at the public product".into(),
            ));
        }
        let mut rhos = rlc
            .challenge_coefficients(b"rho", 3 + 2 * ch.components)
            .into_iter();
        let mut next_rho = || rhos.next().expect("one coefficient per equation");
        let (rho_values, rho_products, rho_powers) = (next_rho(), next_rho(), next_rho());

        // The three openings, as com(·) − (their right-hand sides) = 0:
        //   com(ã + w·z; r̃)                         − w·y·c_A − w·c_B − c_e
        //   com((w·b̃_j − b̃_{j−1}·ã_j)_{j≥1}; s̃)      − w·c_Δ − c_δ
        //   com(f; r_f)                              − w·c_B − c_A0
        if self.generators.len() < n {
            self.generators.resize(n, Scalar::ZERO);
        }
        let wz = w * ch.z;
        for j in 0..n {
            let mut coefficient = rho_values * (proof.response_values[j] + wz)
                + rho_powers * proof.response_powers[j];
            if j > 0 {
                coefficient += rho_products
                    * (w * proof.response_products[j]
                        - proof.response_products[j - 1] * proof.response_values[j]);
            }
            self.generators[j] += coefficient;
        }
        self.blinding += rho_values * proof.response_values_blinding
            + rho_products * proof.response_products_blinding
            + rho_powers * proof.response_powers_blinding;
        self.push(-(rho_values * w * ch.y), proof.commit_perm);
        self.push(-((rho_values + rho_powers) * w), proof.commit_powers);
        self.push(-rho_values, proof.commit_nonce);
        self.push(-rho_products, proof.commit_cross);
        self.push(-(rho_products * w), proof.commit_linear);
        self.push(-rho_powers, proof.commit_multiexp);

        // The multi-exponentiation relations, per component l and half:
        //   Σ_j f_j·C'_j − τ_l·base − E − w·Σ_i x^{i+1}·C_i = 0
        // with base B for the R-half and the group key X for the payload.
        let mut halves = Vec::with_capacity(2 * ch.components);
        let mut key_coefficient = Scalar::ZERO;
        for l in 0..ch.components {
            let (rho_rand, rho_payload) = (next_rho(), next_rho());
            self.push(-rho_rand, proof.announce_rand[l]);
            self.push(-rho_payload, proof.announce_payload[l]);
            self.basepoint -= rho_rand * proof.response_rho[l];
            key_coefficient -= rho_payload * proof.response_rho[l];
            halves.push((rho_rand, rho_rand * w));
            halves.push((rho_payload, rho_payload * w));
        }
        self.keys += mul_fixed(&link.pk.0, &key_coefficient);
        for (j, (x_power, f)) in x_powers.iter().zip(&proof.response_powers).enumerate() {
            let message = j * halves.len();
            for (slot, (rho, rho_w)) in halves.iter().enumerate() {
                self.scalars[ch.input + message + slot] -= rho_w * x_power;
                self.scalars[ch.output + message + slot] += rho * f;
            }
        }
        Ok(())
    }

    /// Settles the combined equation: one multi-exponentiation over every
    /// slot plus the generators, three fixed-base walks. A miss only says
    /// that some link is wrong.
    fn check(mut self) -> CryptoResult<()> {
        let key = CommitmentKey::atom(self.generators.len());
        self.points
            .extend_from_slice(&key.g[..self.generators.len()]);
        self.scalars.append(&mut self.generators);
        let total = multiscalar_mul(&self.scalars, &self.points)
            + RISTRETTO_BASEPOINT_TABLE.mul_scalar(&self.basepoint)
            + mul_fixed(&key.h, &self.blinding)
            + self.keys;
        if total == RistrettoPoint::identity() {
            Ok(())
        } else {
            Err(CryptoError::ProofInvalid(
                "shuffle argument: combined check failed".into(),
            ))
        }
    }
}

/// Replays every link of a shuffle chain and folds all their equations
/// into one accumulator.
fn combine<'a>(links: &[ShuffleVerification<'a>]) -> CryptoResult<RlcAccumulator<'a>> {
    let mut acc = RlcAccumulator::default();
    let mut rlc = Transcript::new(b"atom-batch-shuffle");
    rlc.append_u64(b"count", links.len() as u64);
    // Every link's challenge (which binds its statement and the prover's
    // messages) and responses go in before the first coefficient comes out.
    let mut challenges = Vec::with_capacity(links.len());
    for link in links {
        let ch = acc.replay(link)?;
        let proof = link.proof;
        rlc.append_scalar(b"challenge", &ch.w);
        rlc.append_scalars(b"response-values", &proof.response_values);
        rlc.append_scalars(b"response-products", &proof.response_products);
        rlc.append_scalars(b"response-powers", &proof.response_powers);
        rlc.append_scalars(b"response-rho", &proof.response_rho);
        rlc.append_scalars(
            b"response-blindings",
            &[
                proof.response_values_blinding,
                proof.response_products_blinding,
                proof.response_powers_blinding,
            ],
        );
        challenges.push(ch);
    }
    for (link, ch) in links.iter().zip(&challenges) {
        acc.accumulate(&mut rlc, link, ch)?;
    }
    Ok(acc)
}

/// Verifies every link of a shuffle chain with one combined check (module
/// docs, "Verification"). `Parameter`/shape errors and the scalar endpoint
/// checks name their cause; after a miss of the combination
/// [`crate::batch::verify_shuffle_batch`] asks link by link.
pub(crate) fn verify_chain(links: &[ShuffleVerification<'_>]) -> CryptoResult<()> {
    combine(links)?.check()
}

#[cfg(test)]
impl ShuffleProof {
    /// Bytes of the proof at 32 per group element and per scalar.
    fn encoded_len(&self) -> usize {
        32 * (9 + 3 * self.response_rho.len() + 3 * self.response_values.len())
    }
}

/// How many terms the chain's one multi-exponentiation takes.
#[cfg(test)]
pub(crate) fn chain_terms(links: &[ShuffleVerification<'_>]) -> usize {
    let acc = combine(links).unwrap();
    acc.points.len() + acc.generators.len()
}

/// Verifies a shuffle proof: `verify_chain` over a chain of one link.
pub fn verify_shuffle(
    pk: &PublicKey,
    inputs: &[MessageCiphertext],
    outputs: &[MessageCiphertext],
    proof: &ShuffleProof,
) -> CryptoResult<()> {
    verify_chain(&[ShuffleVerification {
        pk,
        inputs,
        outputs,
        proof,
    }])
}

/// Every single-field tampering of `proof`, named as in the module docs:
/// each of its `6 + 2L` points shifted, each response vector bumped at its
/// first, middle and last index, each blinding and each `τ_l` bumped.
#[cfg(test)]
pub(crate) fn tampered_variants(proof: &ShuffleProof) -> Vec<(String, ShuffleProof)> {
    let (g, one) = (
        curve25519_dalek::constants::RISTRETTO_BASEPOINT_POINT,
        Scalar::ONE,
    );
    let n = proof.response_values.len();
    let mut variants = Vec::new();
    let mut vary = |name: &str, index: usize, edit: &dyn Fn(&mut ShuffleProof)| {
        let mut tampered = proof.clone();
        edit(&mut tampered);
        variants.push((format!("{name}[{index}]"), tampered));
    };
    vary("c_A", 0, &|p| p.commit_perm += g);
    vary("c_B", 0, &|p| p.commit_powers += g);
    vary("c_e", 0, &|p| p.commit_nonce += g);
    vary("c_δ", 0, &|p| p.commit_cross += g);
    vary("c_Δ", 0, &|p| p.commit_linear += g);
    vary("c_A0", 0, &|p| p.commit_multiexp += g);
    for l in 0..proof.response_rho.len() {
        vary("E_R", l, &|p| p.announce_rand[l] += g);
        vary("E_c", l, &|p| p.announce_payload[l] += g);
        vary("τ", l, &|p| p.response_rho[l] += one);
    }
    let mut indices = vec![0, n / 2, n - 1];
    indices.dedup();
    for i in indices {
        vary("ã", i, &|p| p.response_values[i] += one);
        vary("b̃", i, &|p| p.response_products[i] += one);
        vary("f", i, &|p| p.response_powers[i] += one);
    }
    vary("r̃", 0, &|p| p.response_values_blinding += one);
    vary("s̃", 0, &|p| p.response_products_blinding += one);
    vary("r_f", 0, &|p| p.response_powers_blinding += one);
    variants
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::elgamal::{encrypt_message, shuffle, KeyPair};
    use crate::encoding::encode_message;
    use curve25519_dalek::constants::RISTRETTO_BASEPOINT_POINT;
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

    /// The textbook verifier: every equation of the module docs on its own,
    /// commitments and sums recomputed one exponentiation at a time. Shares
    /// only the shape checks and the transcript replay with the fast path,
    /// whose verdict it is the oracle for.
    fn verify_shuffle_sequential(
        pk: &PublicKey,
        inputs: &[MessageCiphertext],
        outputs: &[MessageCiphertext],
        proof: &ShuffleProof,
    ) -> CryptoResult<()> {
        let link = ShuffleVerification {
            pk,
            inputs,
            outputs,
            proof,
        };
        let ch = RlcAccumulator::default().replay(&link)?;
        let (n, w) = (ch.n, ch.w);
        let key = CommitmentKey::atom(n);
        let commit = |values: &[Scalar], blinding: &Scalar| -> RistrettoPoint {
            let sum: RistrettoPoint = values.iter().zip(key.g.iter()).map(|(v, g)| v * g).sum();
            sum + blinding * key.h
        };
        let fail = |what: &str| Err(CryptoError::ProofInvalid(what.into()));
        let (values, products) = (&proof.response_values, &proof.response_products);

        let c_d =
            ch.y * proof.commit_perm + proof.commit_powers + commit(&vec![-ch.z; n], &Scalar::ZERO);
        if commit(values, &proof.response_values_blinding) != w * c_d + proof.commit_nonce {
            return fail("product argument: value opening failed");
        }
        let steps: Vec<Scalar> = (0..n)
            .map(|j| match j {
                0 => Scalar::ZERO,
                _ => w * products[j] - products[j - 1] * values[j],
            })
            .collect();
        if commit(&steps, &proof.response_products_blinding)
            != w * proof.commit_linear + proof.commit_cross
        {
            return fail("product argument: multiplicative steps failed");
        }
        let x_powers = powers(&ch.x, n);
        if products[0] != values[0]
            || products[n - 1] != w * public_product(&x_powers, &ch.y, &ch.z)
        {
            return fail("product argument: endpoint failed");
        }
        if commit(&proof.response_powers, &proof.response_powers_blinding)
            != w * proof.commit_powers + proof.commit_multiexp
        {
            return fail("multi-exponentiation: power opening failed");
        }
        for l in 0..ch.components {
            type Half = fn(&crate::elgamal::Ciphertext) -> RistrettoPoint;
            let halves: [(Half, _, _); 2] = [
                (|ct| ct.r, RISTRETTO_BASEPOINT_POINT, proof.announce_rand[l]),
                (|ct| ct.c, pk.0, proof.announce_payload[l]),
            ];
            for (half, base, announcement) in halves {
                let fold = |stage: &[MessageCiphertext], weights: &[Scalar]| -> RistrettoPoint {
                    stage
                        .iter()
                        .zip(weights)
                        .map(|(m, weight)| weight * half(&m.components[l]))
                        .sum()
                };
                if fold(outputs, &proof.response_powers) + -proof.response_rho[l] * base
                    != announcement + w * fold(inputs, &x_powers)
                {
                    return fail("multi-exponentiation: relation failed");
                }
            }
        }
        Ok(())
    }

    /// A seeded statement, its honest witness and proof.
    struct Fixture {
        rng: StdRng,
        kp: KeyPair,
        inputs: Vec<MessageCiphertext>,
        outputs: Vec<MessageCiphertext>,
        witness: ShuffleWitness,
        proof: ShuffleProof,
    }

    fn fixture(seed: u64, count: usize, msg_len: usize) -> Fixture {
        let mut rng = StdRng::seed_from_u64(seed);
        let kp = KeyPair::generate(&mut rng);
        let inputs = batch(&mut rng, &kp, count, msg_len);
        let (outputs, witness) = shuffle(&kp.public, &inputs, &mut rng).unwrap();
        let proof = prove_shuffle(&kp.public, &inputs, &outputs, &witness, &mut rng).unwrap();
        Fixture {
            rng,
            kp,
            inputs,
            outputs,
            witness,
            proof,
        }
    }

    impl Fixture {
        fn verify(&self) -> CryptoResult<()> {
            verify_shuffle(&self.kp.public, &self.inputs, &self.outputs, &self.proof)
        }

        /// Whether `proof` verifies over this statement, on which the fast
        /// path and the oracle must agree.
        fn verdict(&self, proof: &ShuffleProof, case: &str) -> bool {
            let fast = verify_shuffle(&self.kp.public, &self.inputs, &self.outputs, proof);
            let slow =
                verify_shuffle_sequential(&self.kp.public, &self.inputs, &self.outputs, proof);
            assert_eq!(fast.is_ok(), slow.is_ok(), "verdicts diverge for {case}");
            fast.is_ok()
        }
    }

    #[test]
    fn honest_shuffle_proof_verifies() {
        let f = fixture(1234, 8, 40);
        assert!(f.verify().is_ok());
        assert_eq!(f.proof.encoded_len(), 32 * (6 + 2 * 2 + 3 * 8 + 2 + 3));
    }

    #[test]
    fn single_message_shuffle_proof_verifies() {
        assert!(fixture(5, 1, 10).verify().is_ok());
    }

    #[test]
    fn single_component_messages_verify() {
        assert!(fixture(6, 5, 8).verify().is_ok());
    }

    #[test]
    fn replaced_output_ciphertext_detected() {
        let mut f = fixture(7, 6, 40);
        // A malicious server swaps in an encryption of its own message.
        let points = encode_message(b"injected").unwrap();
        f.outputs[2] = encrypt_message(&f.kp.public, &points, &mut f.rng).0;
        assert!(f.verify().is_err());
    }

    #[test]
    fn duplicated_output_detected() {
        let mut f = fixture(8, 6, 40);
        f.outputs[3] = f.outputs[4].clone();
        assert!(f.verify().is_err());
    }

    #[test]
    fn tampered_component_detected() {
        let mut f = fixture(9, 4, 60);
        f.outputs[1].components[1].c += RISTRETTO_BASEPOINT_POINT;
        assert!(f.verify().is_err());
    }

    #[test]
    fn proof_for_other_inputs_rejected() {
        let mut f = fixture(10, 5, 40);
        f.inputs = batch(&mut f.rng, &f.kp, 5, 40);
        assert!(f.verify().is_err());
    }

    #[test]
    fn wrong_group_key_rejected() {
        let mut f = fixture(11, 5, 40);
        f.kp = KeyPair::generate(&mut f.rng);
        assert!(f.verify().is_err());
    }

    #[test]
    fn non_rerandomized_identity_permutation_still_needs_valid_witness() {
        // Fresh encryptions of the same plaintexts are NOT a shuffle of the
        // inputs: the plaintext multiset matches, but no witness satisfies
        // the rerandomization relation.
        let mut f = fixture(12, 4, 20);
        f.outputs = batch(&mut f.rng, &f.kp, 4, 20);
        f.witness = ShuffleWitness {
            permutation: (0..4).collect(),
            randomness: vec![vec![Scalar::ZERO; f.inputs[0].components.len()]; 4],
        };
        let (pk, rng) = (&f.kp.public, &mut f.rng);
        f.proof = prove_shuffle(pk, &f.inputs, &f.outputs, &f.witness, rng).unwrap();
        assert!(f.verify().is_err());
    }

    #[test]
    fn shape_mismatch_rejected() {
        let f = fixture(13, 4, 20);
        let pk = &f.kp.public;
        for (inputs, outputs) in [
            (&f.inputs[..3], &f.outputs[..]),
            (&f.inputs[..], &f.outputs[..3]),
            (&f.inputs[..0], &f.outputs[..0]),
        ] {
            let fast = verify_shuffle(pk, inputs, outputs, &f.proof);
            let slow = verify_shuffle_sequential(pk, inputs, outputs, &f.proof);
            assert!(matches!(fast, Err(CryptoError::Parameter(_))));
            assert_eq!(format!("{fast:?}"), format!("{slow:?}"));
        }
        // A proof for another n or L is malformed for this statement, and
        // a witness of the wrong shape is refused before anything is drawn.
        for (count, len) in [(3, 20), (4, 40)] {
            let other = fixture(14, count, len).proof;
            let fast = verify_shuffle(pk, &f.inputs, &f.outputs, &other);
            let slow = verify_shuffle_sequential(pk, &f.inputs, &f.outputs, &other);
            assert!(matches!(fast, Err(CryptoError::ProofInvalid(_))));
            assert_eq!(format!("{fast:?}"), format!("{slow:?}"));
        }
        let mut rng = StdRng::seed_from_u64(15);
        for edit in [
            (|w| w.permutation[0] = 4) as fn(&mut ShuffleWitness),
            |w| w.randomness[2].clear(),
            |w| w.permutation.truncate(3),
        ] {
            let mut witness = f.witness.clone();
            edit(&mut witness);
            let refused = prove_shuffle(pk, &f.inputs, &f.outputs, &witness, &mut rng);
            assert!(matches!(refused, Err(CryptoError::Parameter(_))));
        }
    }

    /// Honest proofs at the edge sizes pass the combined check and every
    /// equation of the oracle: n = 1 (no free nonce in the product
    /// argument), n = 2 (no free δ), n = 3 (one), and L = 1 against L = 2.
    #[test]
    fn rlc_fast_path_accepts_honest_proofs_without_fallback() {
        for (seed, (count, len)) in [(1, 10), (2, 20), (3, 8), (5, 8), (8, 40), (3, 70)]
            .into_iter()
            .enumerate()
        {
            let f = fixture(20 + seed as u64, count, len);
            assert!(
                f.verdict(&f.proof, "an honest proof"),
                "honest proof (n={count}, len={len}) must verify"
            );
        }
    }

    #[test]
    fn rlc_fast_path_rejects_every_tampered_field() {
        for (count, len) in [(5, 40), (1, 10), (2, 8)] {
            let f = fixture(21, count, len);
            let variants = tampered_variants(&f.proof);
            let components = f.inputs[0].components.len();
            assert!(variants.len() >= 6 + 2 * components + 3 + components + 3);
            for (field, tampered) in variants {
                assert!(
                    !f.verdict(&tampered, &field),
                    "tampered {field} must be rejected (n={count})"
                );
            }
        }
    }

    #[test]
    fn fast_and_sequential_verdicts_agree_on_statement_tampering() {
        let mut f = fixture(22, 6, 40);
        f.outputs[4].components[0].c += RISTRETTO_BASEPOINT_POINT;
        assert!(!f.verdict(&f.proof, "a mauled output"));
        let mut f = fixture(22, 6, 40);
        f.inputs.swap(0, 1);
        assert!(!f.verdict(&f.proof, "reordered inputs"));
    }

    /// Provers that follow the protocol on a false witness: what each of the
    /// argument's checks is there to catch.
    #[test]
    fn dishonest_witnesses_are_rejected() {
        let f = fixture(23, 6, 40);
        let pk = &f.kp.public;
        let mut rng = StdRng::seed_from_u64(24);

        // Not a permutation: input 1 delivered twice, input 0 dropped, every
        // output an honest rerandomization of what the witness says it is.
        // The product of the committed values misses the public product.
        let mut witness = f.witness.clone();
        let dropped = witness.permutation.iter().position(|&s| s == 0).unwrap();
        witness.permutation[dropped] = 1;
        let mut outputs = f.outputs.clone();
        for (l, ct) in outputs[dropped].components.iter_mut().enumerate() {
            let rho = witness.randomness[dropped][l];
            let source = &f.inputs[1].components[l];
            ct.r = source.r + rho * RISTRETTO_BASEPOINT_POINT;
            ct.c = source.c + rho * pk.0;
        }
        let proof = prove_shuffle(pk, &f.inputs, &outputs, &witness, &mut rng).unwrap();
        let misses_the_product = |outputs: &[MessageCiphertext], proof: &ShuffleProof| {
            for verifier in [verify_shuffle, verify_shuffle_sequential] {
                let error = verifier(pk, &f.inputs, outputs, proof).unwrap_err();
                assert!(format!("{error}").contains("product argument"), "{error}");
            }
        };
        misses_the_product(&outputs, &proof);

        // c_A commits to one permutation and c_B to the powers of another:
        // b_j ≠ x^{a_j} at two positions, so the multi-exponentiation
        // relation (which only sees b) holds and the product argument fails.
        let mut committed = f.witness.permutation.clone();
        committed.swap(0, 1);
        let proof = prove(pk, &f.inputs, &f.outputs, &committed, &f.witness, &mut rng).unwrap();
        misses_the_product(&f.outputs, &proof);

        // The right permutation with one wrong rerandomizer: the product
        // argument holds and the multi-exponentiation relation fails.
        let mut witness = f.witness.clone();
        witness.randomness[3][1] += Scalar::ONE;
        let proof = prove_shuffle(pk, &f.inputs, &f.outputs, &witness, &mut rng).unwrap();
        assert!(verify_shuffle(pk, &f.inputs, &f.outputs, &proof).is_err());
        let error = verify_shuffle_sequential(pk, &f.inputs, &f.outputs, &proof).unwrap_err();
        assert!(
            format!("{error}").contains("multi-exponentiation: relation"),
            "{error}"
        );
    }

    /// No response is `w` times its secret (a missing nonce would hand the
    /// verifier the permutation), except where the module docs say so.
    #[test]
    fn every_witness_dependent_response_is_blinded() {
        for count in [1, 2, 3, 7] {
            let f = fixture(25, count, 40);
            let link = ShuffleVerification {
                pk: &f.kp.public,
                inputs: &f.inputs,
                outputs: &f.outputs,
                proof: &f.proof,
            };
            let ch = RlcAccumulator::default().replay(&link).unwrap();
            let x_powers = powers(&ch.x, count);
            let mut product = Scalar::ONE;
            for (j, &src) in f.witness.permutation.iter().enumerate() {
                let b = x_powers[src];
                let d = ch.y * Scalar::from(src as u64 + 1) + b - ch.z;
                product *= d;
                assert_ne!(f.proof.response_powers[j], ch.w * b);
                // n = 1: the lone value is public and the endpoints pin it.
                assert_eq!(f.proof.response_values[j] == ch.w * d, count == 1);
                // The last partial product is the public one.
                assert_eq!(
                    f.proof.response_products[j] == ch.w * product,
                    j == count - 1
                );
            }
            for (l, tau) in f.proof.response_rho.iter().enumerate() {
                let rho_star: Scalar = (0..count)
                    .map(|j| x_powers[f.witness.permutation[j]] * f.witness.randomness[j][l])
                    .sum();
                assert_ne!(*tau, ch.w * rho_star);
            }
        }
    }
}
