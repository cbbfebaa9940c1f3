//! The batched public-key engine: fixed-base tables, multi-exponentiation
//! and random-linear-combination (RLC) batch proof verification.
//!
//! Modular exponentiation dominates Atom's cost model — every submission
//! carries NIZK proofs and every mixing hop re-encrypts — so this module
//! concentrates the three amortization layers the hot paths share:
//!
//! * **Fixed-base tables** (`fixed_base_table` / [`mul_fixed`]): a
//!   Lim–Lee comb precomputed once per base — the exponent read as 8 rows
//!   of 32 bits, every product of the 8 row units tabulated for each of
//!   two 16-column blocks — so a fixed-base exponentiation is 15 squarings
//!   and 32 multiplies, half of them off the squaring chain. The group
//!   generator uses the process-wide
//!   [`RISTRETTO_BASEPOINT_TABLE`](curve25519_dalek::constants); other
//!   heavily reused bases (each round's DKG group public keys, the Pedersen
//!   blinding generator) go through a small keyed cache here. A table is
//!   16 KiB, costs 240 squarings and 510 multiplies to build and pays for
//!   itself after three or four uses; round keys are reused thousands of
//!   times.
//!
//! * **Multi-exponentiation** (`multiscalar_mul`): the folded sums of the
//!   aggregated `ReEncProof`, the vector commitments of a `ShufProof` and
//!   the big RLC combinations below share a single squaring chain across all
//!   terms. Small products use Straus/Shamir interleaving
//!   (4-bit windows); past the backend's `PIPPENGER_CUTOFF` the vendored
//!   `multi_pow` switches to the Pippenger bucket method, whose per-term
//!   cost keeps shrinking as the products grow into the thousands of terms.
//!   Subtractions are folded in as negated scalar coefficients — or, where
//!   the coefficients must stay 128 bits wide, as one shared batch
//!   inversion — which also eliminates the per-`Sub` Fermat inversion of
//!   the vendored group (`a − b` costs a full inverse exponentiation there).
//!
//! * **RLC batch verification** ([`verify_encryption_batch`],
//!   [`verify_shuffle_batch`]): N Schnorr-style proof equations
//!   `LHS_e = RHS_e` collapse into the single check
//!   `Σ_e ρ_e·LHS_e = Σ_e ρ_e·RHS_e`, evaluated as one fixed-base
//!   multiplication plus one multi-exponentiation. For shuffle proofs the
//!   combination spans *all* equations of *all* proofs of a group step's
//!   shuffle chain with one term per distinct point (see
//!   [`crate::nizk::shuffle`]) — tens of thousands of terms, far past the
//!   Pippenger crossover of the backend's `multi_pow`.
//!   (`ReEncProof`s need no verifier-side batching: the same small-exponent
//!   fold sits on the prover's side of Fiat-Shamir, one proof per member
//!   and sub-batch — see [`crate::nizk::reenc`].)
//!
//! ## Soundness of the RLC combination
//!
//! The coefficients `ρ_e` are one squeeze stream
//! (`Transcript::challenge_coefficients`) of a SHAKE256 Fiat-Shamir
//! transcript that absorbs every per-proof challenge and response before
//! the first coefficient is squeezed, so a prover must commit to all
//! equations before learning any `ρ_e`. If some equation has error
//! `Δ_e = LHS_e − RHS_e ≠ 0`, the combined check passes only when
//! `Σ_e ρ_e·Δ_e = 0`; with the coefficients uniform 128-bit values
//! (modelling the sponge as a random oracle) that event has probability
//! `2^-128` per batch — the standard small-exponent batching trade-off,
//! which halves the multi-exponentiation window walks for the `ρ_e`-only
//! terms. Batch acceptance therefore implies per-proof acceptance except
//! with negligible probability, and batch **rejection** automatically falls
//! back to per-proof verification, so callers always receive the *same*
//! verdict — including which proof (and hence which server, for blame
//! assignment in `atom-core`) failed — as verifying each proof on its own.
//!
//! The aggregated `ReEncProof` spends the same `2^-128`, once: its `ρ_l`
//! come from a transcript that has absorbed `P`, `X'` and the whole
//! sub-batch, its sigma challenge from that transcript's continuation, and
//! there is no fallback to need — a proof covers exactly one member, so a
//! rejection already names whom to blame (argument in
//! [`crate::nizk::reenc`]).
//!
//! ## Algorithm choices
//!
//! * Window sizes: the variable-base loop (`pow`, `pow_lockstep`) slides
//!   5-bit windows over odd powers, where a 254-bit exponent costs 1
//!   squaring + 15 multiplies of table and ~42 window multiplies on top of
//!   its 253 squarings; Straus interleaving keeps fixed 4-bit windows. The
//!   squarings of one exponentiation depend on each other and run at the
//!   multiplier's latency, so a message's peels — one exponent, one base
//!   per component — advance four at a time
//!   (`RistrettoPoint::mul_each`, called from
//!   [`crate::elgamal::reencrypt_message`]). The comb's shape and the lane
//!   count were placed by measurement on the frozen benchmark (numbers on
//!   `COMB_BLOCKS` and `POW_LANES` in the vendored field).
//! * The multiply kernel: both moduli are pseudo-Mersenne (`2^b − c`), so
//!   `Modulus::{mul, sqr}` are a fully unrolled 4×4-limb schoolbook product
//!   (ten limb products for a square) and one fold pass — high half times
//!   `2^256 mod m`, then the fifth limb and the bits at or above `b`
//!   together times `c`, then a single conditional subtraction that sits
//!   behind a never-taken branch. Measured on the 2.1 GHz Xeon the
//!   benchmark runs on, against the loop-and-`while` kernel it replaced:
//!   `mul` 26.8 → 13.8 ns, `sqr` 24.3 → 12.1 ns, 254-bit `pow` 7.76 →
//!   4.18 µs, fixed-base `PowTable::pow` 1.59 → 0.85 µs on the 4-bit
//!   window table of the time (0.60 µs as a comb). The kernel is `#[inline(always)]` so that it
//!   lands inside every exponentiation loop, here and across crates,
//!   whatever profile the depending workspace builds with (the frozen
//!   benchmark is a workspace of its own).
//! * Point validation (`CompressedRistretto::decompress`, hit for every
//!   point of every wire decode) is a range check: the group is presented
//!   as `Z_p^*/{±1}`, whose elements are exactly the integers `1..=q`, so
//!   two limb comparisons decide membership where the quadratic-residue
//!   presentation needed a Jacobi symbol (2.0 µs) or the Euler power
//!   `v^((p−1)/2)` (9.4 µs). Still exact, still one encoding per element.
//! * Exponents of at most eight bits (Lagrange indices, Feldman evaluation
//!   points) run as plain square-and-multiply over their own bits, with no
//!   table of odd powers to pay for.

use std::collections::HashMap;
use std::sync::{Arc, OnceLock};

use atom_obs::Counter;
use curve25519_dalek::constants::RISTRETTO_BASEPOINT_TABLE;
use curve25519_dalek::ristretto::{RistrettoBasepointTable, RistrettoPoint};
use curve25519_dalek::scalar::Scalar;
use parking_lot::Mutex;

use crate::elgamal::{MessageCiphertext, PublicKey};
use crate::error::{CryptoError, CryptoResult};
use crate::nizk::enc::{self, EncProof};
use crate::nizk::reenc::{self, ReEncProof, ReEncStatement};
use crate::nizk::shuffle::{self, ShuffleProof};
use crate::transcript::Transcript;

/// Entries kept in the fixed-base table cache before it evicts. Keys are
/// per-round, so steady state holds one table per live group key; the cap
/// only bounds pathological key churn (e.g. key-per-message tests) — at
/// 16 KiB a table, 1 MiB.
const TABLE_CACHE_CAP: usize = 64;

/// Table-cache lookups that found an existing table.
static TABLE_CACHE_HITS: Counter = Counter::new("crypto.table_cache.hits");
/// Table-cache lookups that had to build a fresh table.
static TABLE_CACHE_MISSES: Counter = Counter::new("crypto.table_cache.misses");
/// Fixed-base scalar multiplications served through [`mul_fixed`].
static FIXED_BASE_CALLS: Counter = Counter::new("crypto.fixed_base.calls");
/// Multi-exponentiation invocations ([`multiscalar_mul`]).
static MULTIEXP_CALLS: Counter = Counter::new("crypto.multiexp.calls");
/// Total terms fed into multi-exponentiations.
static MULTIEXP_TERMS: Counter = Counter::new("crypto.multiexp.terms");
/// RLC-batched `EncProof` verification calls.
static VERIFY_ENC_BATCHES: Counter = Counter::new("crypto.verify_enc.batches");
/// Individual `EncProof`s covered by batched verification calls.
static VERIFY_ENC_ITEMS: Counter = Counter::new("crypto.verify_enc.items");
/// `EncProof` batches whose RLC check missed and fell back per-proof.
static VERIFY_ENC_FALLBACKS: Counter = Counter::new("crypto.verify_enc.fallbacks");
/// RLC-batched `ShuffleProof` verification calls.
static VERIFY_SHUF_BATCHES: Counter = Counter::new("crypto.verify_shuffle.batches");
/// Individual `ShuffleProof`s covered by batched verification calls.
static VERIFY_SHUF_ITEMS: Counter = Counter::new("crypto.verify_shuffle.items");
/// `ShuffleProof` batches whose RLC check missed and fell back per-proof.
static VERIFY_SHUF_FALLBACKS: Counter = Counter::new("crypto.verify_shuffle.fallbacks");

fn table_cache() -> &'static Mutex<HashMap<[u8; 32], Arc<RistrettoBasepointTable>>> {
    static CACHE: OnceLock<Mutex<HashMap<[u8; 32], Arc<RistrettoBasepointTable>>>> =
        OnceLock::new();
    CACHE.get_or_init(|| Mutex::new(HashMap::new()))
}

/// The shared precomputed table for `point`, building and caching it
/// on first use. The comb build itself happens lazily outside the cache
/// lock, so concurrent callers never serialize on table construction.
pub(crate) fn fixed_base_table(point: &RistrettoPoint) -> Arc<RistrettoBasepointTable> {
    let key = point.compress().to_bytes();
    let mut cache = table_cache().lock();
    if let Some(table) = cache.get(&key) {
        TABLE_CACHE_HITS.add(1);
        return table.clone();
    }
    TABLE_CACHE_MISSES.add(1);
    if cache.len() >= TABLE_CACHE_CAP {
        // Evict a single arbitrary entry rather than flushing the map: with
        // more live bases than the cap, a full flush would degenerate into
        // a table build per use — worse than no cache at all.
        if let Some(evict) = cache.keys().next().copied() {
            cache.remove(&evict);
        }
    }
    let table = Arc::new(RistrettoBasepointTable::create(point));
    cache.insert(key, table.clone());
    table
}

/// Fixed-base scalar multiplication `scalar · point` through the cached
/// table for `point`.
pub fn mul_fixed(point: &RistrettoPoint, scalar: &Scalar) -> RistrettoPoint {
    FIXED_BASE_CALLS.add(1);
    fixed_base_table(point).mul_scalar(scalar)
}

/// `Σ scalars[k] · points[k]` over one shared doubling chain (Straus/Shamir
/// interleaving, Pippenger buckets past the backend's crossover). Terms are
/// taken as given: callers that meet the same point in several equations
/// merge its coefficients by index first (`nizk::shuffle`'s accumulator).
pub(crate) fn multiscalar_mul(scalars: &[Scalar], points: &[RistrettoPoint]) -> RistrettoPoint {
    MULTIEXP_CALLS.add(1);
    MULTIEXP_TERMS.add(scalars.len() as u64);
    RistrettoPoint::multiscalar_mul(scalars, points)
}

/// One `EncProof` verification instance for [`verify_encryption_batch`].
pub struct EncVerification<'a> {
    /// The entry group's public key the proof is bound to.
    pub pk: &'a PublicKey,
    /// The entry group id the proof is bound to.
    pub group_id: u64,
    /// The submitted ciphertext.
    pub ciphertext: &'a MessageCiphertext,
    /// The proof of knowledge of the encryption randomness.
    pub proof: &'a EncProof,
}

/// Verifies a batch of `EncProof`s with one RLC check, falling back to
/// per-proof verification when the combined check rejects. `Err((i, e))`
/// identifies the first item (in slice order) that fails individually —
/// exactly the verdict verifying one by one would produce.
pub fn verify_encryption_batch(items: &[EncVerification<'_>]) -> Result<(), (usize, CryptoError)> {
    VERIFY_ENC_BATCHES.add(1);
    VERIFY_ENC_ITEMS.add(items.len() as u64);
    if items.len() > 1 && try_verify_encryption_rlc(items).is_ok() {
        return Ok(());
    }
    if items.len() > 1 {
        VERIFY_ENC_FALLBACKS.add(1);
    }
    // Single item, structural oddity, or combined-check rejection: decide
    // per proof so error identity matches the sequential path.
    for (i, item) in items.iter().enumerate() {
        enc::verify_encryption(item.pk, item.group_id, item.ciphertext, item.proof)
            .map_err(|e| (i, e))?;
    }
    Ok(())
}

/// The RLC fast path for `EncProof` batches: checks
/// `Σ ρ_{i,l}·u_{i,l} · B  ==  Σ ρ_{i,l}·A_{i,l} + Σ ρ_{i,l}·t_i·R_{i,l}`.
fn try_verify_encryption_rlc(items: &[EncVerification<'_>]) -> CryptoResult<()> {
    let mut rlc = Transcript::new(b"atom-batch-enc");
    let mut challenges = Vec::with_capacity(items.len());
    for item in items {
        let components = item.ciphertext.components.len();
        if item.proof.announcements.len() != components || item.proof.responses.len() != components
        {
            return Err(CryptoError::ProofInvalid("batch shape mismatch".into()));
        }
        if item.ciphertext.components.iter().any(|c| c.y.is_some()) {
            return Err(CryptoError::ProofInvalid(
                "batch contains a non-fresh ciphertext".into(),
            ));
        }
        // The per-proof Fiat-Shamir challenge already binds the statement
        // and announcements; absorbing it plus the responses commits the
        // whole equation before any ρ is squeezed.
        let challenge = enc::batch_challenge(item.pk, item.group_id, item.ciphertext, item.proof);
        rlc.append_scalar(b"challenge", &challenge);
        for response in &item.proof.responses {
            rlc.append_scalar(b"response", response);
        }
        challenges.push(challenge);
    }

    let terms = items.iter().map(|i| i.ciphertext.components.len()).sum();
    let mut rhos = rlc.challenge_coefficients(b"rho", terms).into_iter();
    let mut basepoint_coeff = Scalar::ZERO;
    let mut scalars = Vec::with_capacity(2 * terms);
    let mut points = Vec::with_capacity(2 * terms);
    for (item, challenge) in items.iter().zip(challenges.iter()) {
        for ((component, announcement), response) in item
            .ciphertext
            .components
            .iter()
            .zip(item.proof.announcements.iter())
            .zip(item.proof.responses.iter())
        {
            let rho = rhos.next().expect("one coefficient per component");
            basepoint_coeff += rho * response;
            scalars.push(rho);
            points.push(*announcement);
            scalars.push(rho * challenge);
            points.push(component.r);
        }
    }

    let lhs = RISTRETTO_BASEPOINT_TABLE.mul_scalar(&basepoint_coeff);
    if lhs == multiscalar_mul(&scalars, &points) {
        Ok(())
    } else {
        Err(CryptoError::ProofInvalid(
            "batched EncProof check failed".into(),
        ))
    }
}

/// Verifies one single-message `ReEncProof` per statement (the
/// one-statement case of [`reenc::verify_reencryption_slice`], which is what
/// a group step runs once per member and sub-batch). `Err((i, e))`
/// identifies the first statement/proof pair, in slice order, that fails.
pub fn verify_reencryption_batch(
    statements: &[ReEncStatement<'_>],
    proofs: &[ReEncProof],
) -> Result<(), (usize, CryptoError)> {
    assert_eq!(
        statements.len(),
        proofs.len(),
        "one proof per re-encryption statement"
    );
    for (i, (stmt, proof)) in statements.iter().zip(proofs.iter()).enumerate() {
        reenc::verify_reencryption(stmt, proof).map_err(|e| (i, e))?;
    }
    Ok(())
}

/// One `ShuffleProof` verification instance for [`verify_shuffle_batch`]:
/// the statement (group key, input batch, output batch) plus the proof.
pub struct ShuffleVerification<'a> {
    /// The group public key the shuffle rerandomizes under.
    pub pk: &'a PublicKey,
    /// The batch entering this member's shuffle.
    pub inputs: &'a [MessageCiphertext],
    /// The batch leaving it.
    pub outputs: &'a [MessageCiphertext],
    /// The member's shuffle proof.
    pub proof: &'a ShuffleProof,
}

/// Verifies a batch of `ShuffleProof`s — typically one per member of a
/// group's shuffle chain — with one combined RLC check, falling back to
/// per-proof verification when the combined check rejects. `Err((i, e))`
/// identifies the first item (in slice order) that fails individually, so
/// blame assignment localizes the same faulty server as verifying each
/// member's proof inline.
pub fn verify_shuffle_batch(items: &[ShuffleVerification<'_>]) -> Result<(), (usize, CryptoError)> {
    VERIFY_SHUF_BATCHES.add(1);
    VERIFY_SHUF_ITEMS.add(items.len() as u64);
    if items.len() > 1 && shuffle::verify_chain(items).is_ok() {
        return Ok(());
    }
    if items.len() > 1 {
        VERIFY_SHUF_FALLBACKS.add(1);
    }
    // Single item, structural oddity, or combined-check rejection: decide
    // per proof, in slice order.
    for (i, item) in items.iter().enumerate() {
        shuffle::verify_shuffle(item.pk, item.inputs, item.outputs, item.proof)
            .map_err(|e| (i, e))?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::elgamal::{encrypt_message, reencrypt_message, KeyPair};
    use crate::encoding::encode_message;
    use crate::nizk::enc::prove_encryption;
    use crate::nizk::reenc::prove_reencryption;
    use curve25519_dalek::constants::RISTRETTO_BASEPOINT_POINT;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn fixed_base_cache_matches_direct_multiplication() {
        let mut rng = StdRng::seed_from_u64(1);
        let point = RistrettoPoint::random(&mut rng);
        for _ in 0..3 {
            let s = Scalar::random(&mut rng);
            assert_eq!(mul_fixed(&point, &s), s * point);
        }
    }

    #[test]
    fn counters_count_with_recording_off() {
        let mut rng = StdRng::seed_from_u64(77);
        let point = RistrettoPoint::random(&mut rng);
        let s = Scalar::random(&mut rng);

        // Other tests in this binary may run concurrently and also bump the
        // counters, so assert growth rather than exact deltas.
        atom_obs::set_enabled(false);
        let calls = FIXED_BASE_CALLS.get();
        let terms = MULTIEXP_TERMS.get();
        mul_fixed(&point, &s);
        multiscalar_mul(&[s, s], &[point, point]);
        assert!(FIXED_BASE_CALLS.get() > calls);
        assert!(MULTIEXP_TERMS.get() >= terms + 2);
    }

    #[test]
    fn multiscalar_mul_sums_repeated_points() {
        let mut rng = StdRng::seed_from_u64(2);
        let a = RistrettoPoint::random(&mut rng);
        let b = RistrettoPoint::random(&mut rng);
        let (s1, s2, s3) = (
            Scalar::random(&mut rng),
            Scalar::random(&mut rng),
            Scalar::random(&mut rng),
        );
        // `a` appears twice (as every point of a copied stage does in a
        // shuffle chain's combination): both terms count.
        let got = multiscalar_mul(&[s1, s2, s3], &[a, b, a]);
        assert_eq!(got, s1 * a + s2 * b + s3 * a);
    }

    fn enc_fixture(count: usize, seed: u64) -> (KeyPair, Vec<(MessageCiphertext, EncProof)>) {
        let mut rng = StdRng::seed_from_u64(seed);
        let kp = KeyPair::generate(&mut rng);
        let items = (0..count)
            .map(|i| {
                let points = encode_message(format!("submission {i}").as_bytes()).unwrap();
                let (ct, randomness) = encrypt_message(&kp.public, &points, &mut rng);
                let proof = prove_encryption(&kp.public, 7, &ct, &randomness, &mut rng).unwrap();
                (ct, proof)
            })
            .collect();
        (kp, items)
    }

    #[test]
    fn enc_batch_accepts_iff_every_proof_accepts() {
        for seed in 0..4u64 {
            let (kp, items) = enc_fixture(5, 100 + seed);
            let refs: Vec<EncVerification<'_>> = items
                .iter()
                .map(|(ct, proof)| EncVerification {
                    pk: &kp.public,
                    group_id: 7,
                    ciphertext: ct,
                    proof,
                })
                .collect();
            let individually_ok = refs.iter().all(|item| {
                enc::verify_encryption(item.pk, item.group_id, item.ciphertext, item.proof).is_ok()
            });
            assert!(individually_ok);
            assert!(verify_encryption_batch(&refs).is_ok());
        }
    }

    #[test]
    fn enc_batch_with_one_corrupted_proof_names_its_index() {
        for corrupt in 0..5usize {
            let (kp, mut items) = enc_fixture(5, 42);
            items[corrupt].1.responses[0] += Scalar::ONE;
            let refs: Vec<EncVerification<'_>> = items
                .iter()
                .map(|(ct, proof)| EncVerification {
                    pk: &kp.public,
                    group_id: 7,
                    ciphertext: ct,
                    proof,
                })
                .collect();
            let (index, error) = verify_encryption_batch(&refs).unwrap_err();
            assert_eq!(index, corrupt);
            assert!(matches!(error, CryptoError::ProofInvalid(_)));
        }
    }

    #[test]
    fn enc_batch_rejects_wrong_group_id_binding() {
        let (kp, items) = enc_fixture(3, 43);
        let refs: Vec<EncVerification<'_>> = items
            .iter()
            .map(|(ct, proof)| EncVerification {
                pk: &kp.public,
                group_id: 8, // proved for 7
                ciphertext: ct,
                proof,
            })
            .collect();
        let (index, _) = verify_encryption_batch(&refs).unwrap_err();
        assert_eq!(index, 0);
    }

    struct ReEncFixture {
        server: KeyPair,
        next_pk: PublicKey,
        pairs: Vec<(MessageCiphertext, MessageCiphertext, ReEncProof)>,
    }

    fn reenc_fixture(count: usize, seed: u64, exit_layer: bool) -> ReEncFixture {
        let mut rng = StdRng::seed_from_u64(seed);
        let server = KeyPair::generate(&mut rng);
        let next = KeyPair::generate(&mut rng);
        let next_pk = next.public;
        let pairs = (0..count)
            .map(|i| {
                let points = encode_message(format!("hop {i}").as_bytes()).unwrap();
                let (input, _) = encrypt_message(&server.public, &points, &mut rng);
                let next_key = (!exit_layer).then_some(&next_pk);
                let (output, witnesses) =
                    reencrypt_message(&server.secret.0, next_key, &input, &mut rng);
                let stmt = ReEncStatement {
                    peel_public: &server.public.0,
                    next_pk: next_key,
                    input: &input,
                    output: &output,
                };
                let proof = prove_reencryption(&stmt, &witnesses, &mut rng).unwrap();
                (input, output, proof)
            })
            .collect();
        ReEncFixture {
            server,
            next_pk,
            pairs,
        }
    }

    fn statements<'a>(
        fixture: &'a ReEncFixture,
        exit_layer: bool,
    ) -> (Vec<ReEncStatement<'a>>, Vec<ReEncProof>) {
        let stmts = fixture
            .pairs
            .iter()
            .map(|(input, output, _)| ReEncStatement {
                peel_public: &fixture.server.public.0,
                next_pk: (!exit_layer).then_some(&fixture.next_pk),
                input,
                output,
            })
            .collect();
        let proofs = fixture.pairs.iter().map(|(_, _, p)| p.clone()).collect();
        (stmts, proofs)
    }

    #[test]
    fn reenc_batch_accepts_iff_every_proof_accepts() {
        for (seed, exit_layer) in [(7u64, false), (8, true)] {
            let fixture = reenc_fixture(4, seed, exit_layer);
            let (stmts, proofs) = statements(&fixture, exit_layer);
            for (stmt, proof) in stmts.iter().zip(proofs.iter()) {
                assert!(reenc::verify_reencryption(stmt, proof).is_ok());
            }
            assert!(verify_reencryption_batch(&stmts, &proofs).is_ok());
        }
    }

    #[test]
    fn reenc_batch_with_one_corrupted_proof_names_its_index() {
        for corrupt in 0..4usize {
            let fixture = reenc_fixture(4, 9, false);
            let (stmts, mut proofs) = statements(&fixture, false);
            proofs[corrupt].response_key += Scalar::ONE;
            let (index, error) = verify_reencryption_batch(&stmts, &proofs).unwrap_err();
            assert_eq!(index, corrupt);
            assert!(matches!(error, CryptoError::ProofInvalid(_)));
            // Per-proof agreement: the same index is the unique failure.
            for (i, (stmt, proof)) in stmts.iter().zip(proofs.iter()).enumerate() {
                assert_eq!(
                    reenc::verify_reencryption(stmt, proof).is_ok(),
                    i != corrupt
                );
            }
        }
    }

    #[test]
    fn reenc_batch_detects_tampered_payload_announcement() {
        let mut rng = StdRng::seed_from_u64(10);
        let fixture = reenc_fixture(3, 11, false);
        let (stmts, mut proofs) = statements(&fixture, false);
        proofs[1].announce_payload = RistrettoPoint::random(&mut rng);
        let (index, _) = verify_reencryption_batch(&stmts, &proofs).unwrap_err();
        assert_eq!(index, 1);
    }

    #[test]
    fn property_batch_agrees_with_per_proof_over_random_corruptions() {
        // Randomized agreement sweep: corrupt a random proof field (or
        // nothing) and require batch verdict == sequential verdict.
        for seed in 0..12u64 {
            let mut rng = StdRng::seed_from_u64(900 + seed);
            let fixture = reenc_fixture(3, 300 + seed, seed % 2 == 0);
            let (stmts, mut proofs) = statements(&fixture, seed % 2 == 0);
            let corrupt = (seed as usize) % 4;
            if corrupt < 3 {
                match seed % 3 {
                    0 => proofs[corrupt].response_key += Scalar::ONE,
                    1 => {
                        proofs[corrupt].response_fresh += Scalar::ONE;
                    }
                    _ => {
                        proofs[corrupt].announce_key = RistrettoPoint::random(&mut rng);
                    }
                }
            }
            let sequential: Result<(), (usize, CryptoError)> = stmts
                .iter()
                .zip(proofs.iter())
                .enumerate()
                .try_for_each(|(i, (stmt, proof))| {
                    reenc::verify_reencryption(stmt, proof).map_err(|e| (i, e))
                });
            let batched = verify_reencryption_batch(&stmts, &proofs);
            match (&sequential, &batched) {
                (Ok(()), Ok(())) => {}
                (Err((i, _)), Err((j, _))) => assert_eq!(i, j, "seed {seed}"),
                other => panic!("verdicts diverge at seed {seed}: {other:?}"),
            }
        }
    }

    /// A `members`-stage shuffle chain (the shape `verify_shuffle_batch` is
    /// built for): stage `m` feeds member `m`'s shuffle, whose output is
    /// stage `m + 1`.
    fn shuffle_chain(
        rng: &mut StdRng,
        kp: &KeyPair,
        members: usize,
        count: usize,
    ) -> (Vec<Vec<MessageCiphertext>>, Vec<ShuffleProof>) {
        let initial: Vec<MessageCiphertext> = (0..count)
            .map(|i| {
                let points = encode_message(&[i as u8 + 1; 24]).unwrap();
                encrypt_message(&kp.public, &points, rng).0
            })
            .collect();
        let mut stages = vec![initial];
        let mut proofs = Vec::with_capacity(members);
        for _ in 0..members {
            let inputs = stages.last().unwrap();
            let (outputs, witness) = crate::elgamal::shuffle(&kp.public, inputs, rng).unwrap();
            let proof =
                shuffle::prove_shuffle(&kp.public, inputs, &outputs, &witness, rng).unwrap();
            stages.push(outputs);
            proofs.push(proof);
        }
        (stages, proofs)
    }

    fn chain_items<'a>(
        pk: &'a PublicKey,
        stages: &'a [Vec<MessageCiphertext>],
        proofs: &'a [ShuffleProof],
    ) -> Vec<ShuffleVerification<'a>> {
        proofs
            .iter()
            .enumerate()
            .map(|(m, proof)| ShuffleVerification {
                pk,
                inputs: &stages[m],
                outputs: &stages[m + 1],
                proof,
            })
            .collect()
    }

    /// The verdict of verifying each member's proof inline, in chain order.
    fn inline_shuffle_verdict(
        items: &[ShuffleVerification<'_>],
    ) -> Result<(), (usize, CryptoError)> {
        items.iter().enumerate().try_for_each(|(i, item)| {
            shuffle::verify_shuffle(item.pk, item.inputs, item.outputs, item.proof)
                .map_err(|e| (i, e))
        })
    }

    #[test]
    fn shuffle_batch_accepts_honest_chain_via_combined_rlc() {
        let mut rng = StdRng::seed_from_u64(50);
        let kp = KeyPair::generate(&mut rng);
        let (stages, proofs) = shuffle_chain(&mut rng, &kp, 3, 6);
        let items = chain_items(&kp.public, &stages, &proofs);
        // The combined check itself must accept — no hiding behind the
        // per-proof fallback.
        assert!(shuffle::verify_chain(&items).is_ok());
        assert!(verify_shuffle_batch(&items).is_ok());
        // Degenerate batch sizes.
        assert!(verify_shuffle_batch(&[]).is_ok());
        assert!(verify_shuffle_batch(&items[..1]).is_ok());
    }

    /// A chain's combination takes exactly one multi-exponentiation term per
    /// distinct point — `(k+1)·2L·n + n + (6+2L)·k` when consecutive links
    /// share their stage — and the verdict does not depend on the sharing:
    /// stages handed over as copies are hashed and entered again.
    #[test]
    fn shuffle_chain_verdict_is_the_same_for_aliased_and_copied_stages() {
        let mut rng = StdRng::seed_from_u64(54);
        let kp = KeyPair::generate(&mut rng);
        let (k, n) = (3, 5);
        let (stages, mut proofs) = shuffle_chain(&mut rng, &kp, k, n);
        let components = stages[0][0].components.len();
        let copies = stages.clone();
        fn copied<'a>(
            mut items: Vec<ShuffleVerification<'a>>,
            copies: &'a [Vec<MessageCiphertext>],
        ) -> Vec<ShuffleVerification<'a>> {
            for (m, item) in items.iter_mut().enumerate() {
                item.inputs = &copies[m];
            }
            items
        }
        let shared = (k + 1) * 2 * components * n + n + (6 + 2 * components) * k;
        let aliased = chain_items(&kp.public, &stages, &proofs);
        assert_eq!(shuffle::chain_terms(&aliased), shared);
        assert!(verify_shuffle_batch(&aliased).is_ok());
        assert_eq!(
            shuffle::chain_terms(&copied(aliased, &copies)),
            shared + (k - 1) * 2 * components * n
        );
        let items = copied(chain_items(&kp.public, &stages, &proofs), &copies);
        assert!(verify_shuffle_batch(&items).is_ok());

        proofs[1].response_rho[0] += Scalar::ONE;
        let aliased = || chain_items(&kp.public, &stages, &proofs);
        for items in [aliased(), copied(aliased(), &copies)] {
            let (index, error) = verify_shuffle_batch(&items).unwrap_err();
            assert_eq!(index, 1);
            assert!(matches!(error, CryptoError::ProofInvalid(_)));
        }
    }

    /// Every single-field tampering of every link's proof: the chain is
    /// rejected, and the member named is the tampered link's.
    #[test]
    fn shuffle_batch_with_one_tampered_proof_names_its_member() {
        let mut rng = StdRng::seed_from_u64(51);
        let kp = KeyPair::generate(&mut rng);
        let (stages, proofs) = shuffle_chain(&mut rng, &kp, 3, 5);
        for corrupt in 0..3usize {
            for (field, tampered) in shuffle::tampered_variants(&proofs[corrupt]) {
                let mut proofs = proofs.clone();
                proofs[corrupt] = tampered;
                let items = chain_items(&kp.public, &stages, &proofs);
                assert!(shuffle::verify_chain(&items).is_err(), "{field}");
                let (index, error) = verify_shuffle_batch(&items).unwrap_err();
                assert_eq!(index, corrupt, "{field}");
                assert!(matches!(error, CryptoError::ProofInvalid(_)), "{field}");
                // Verdict-identical to inline verification, message included.
                let (inline_index, inline_error) = inline_shuffle_verdict(&items).unwrap_err();
                assert_eq!(index, inline_index, "{field}");
                assert_eq!(format!("{error:?}"), format!("{inline_error:?}"), "{field}");
            }
        }
    }

    #[test]
    fn shuffle_batch_with_tampered_stage_blames_first_affected_member() {
        let mut rng = StdRng::seed_from_u64(52);
        let kp = KeyPair::generate(&mut rng);
        let (mut stages, proofs) = shuffle_chain(&mut rng, &kp, 3, 5);
        // Mauling stage 2 invalidates member 1's outputs (and member 2's
        // inputs); the first failing item in slice order is member 1 —
        // the verdict inline verification would reach.
        stages[2][3].components[0].c += RISTRETTO_BASEPOINT_POINT;
        let items = chain_items(&kp.public, &stages, &proofs);
        let (index, error) = verify_shuffle_batch(&items).unwrap_err();
        assert_eq!(index, 1);
        let (inline_index, inline_error) = inline_shuffle_verdict(&items).unwrap_err();
        assert_eq!(index, inline_index);
        assert_eq!(format!("{error:?}"), format!("{inline_error:?}"));
    }

    #[test]
    fn shuffle_batch_rejects_wrong_shapes_and_duplicate_proofs() {
        let mut rng = StdRng::seed_from_u64(53);
        let kp = KeyPair::generate(&mut rng);
        let (stages, proofs) = shuffle_chain(&mut rng, &kp, 3, 5);

        // Truncated inputs: shape error, attributed to the malformed item.
        let mut items = chain_items(&kp.public, &stages, &proofs);
        items[1].inputs = &stages[1][..3];
        let (index, error) = verify_shuffle_batch(&items).unwrap_err();
        assert_eq!(index, 1);
        assert!(matches!(error, CryptoError::Parameter(_)));

        // A proof replayed for the wrong link of the chain.
        let mut items = chain_items(&kp.public, &stages, &proofs);
        items[2].proof = &proofs[0];
        let (index, _) = verify_shuffle_batch(&items).unwrap_err();
        assert_eq!(index, 2);

        // The same (valid) proof presented twice for the same link still
        // verifies per item; duplicating the *item* must not confuse blame
        // when one copy is broken.
        let mut dup_proofs = [proofs[0].clone(), proofs[0].clone()];
        dup_proofs[1].response_powers_blinding += Scalar::ONE;
        let dup_items: Vec<ShuffleVerification<'_>> = dup_proofs
            .iter()
            .map(|proof| ShuffleVerification {
                pk: &kp.public,
                inputs: &stages[0],
                outputs: &stages[1],
                proof,
            })
            .collect();
        let (index, _) = verify_shuffle_batch(&dup_items).unwrap_err();
        assert_eq!(index, 1);
    }

    #[test]
    fn property_shuffle_batch_agrees_with_per_proof_over_random_corruptions() {
        for seed in 0..10u64 {
            let mut rng = StdRng::seed_from_u64(700 + seed);
            let kp = KeyPair::generate(&mut rng);
            let (mut stages, mut proofs) = shuffle_chain(&mut rng, &kp, 3, 4);
            let corrupt = (seed as usize) % 4;
            if corrupt < 3 {
                match seed % 3 {
                    0 => proofs[corrupt].response_powers[0] += Scalar::ONE,
                    1 => {
                        proofs[corrupt].announce_rand[0] = RistrettoPoint::random(&mut rng);
                    }
                    _ => stages[corrupt + 1][0].components[0].r += RISTRETTO_BASEPOINT_POINT,
                }
            }
            let items = chain_items(&kp.public, &stages, &proofs);
            let inline = inline_shuffle_verdict(&items);
            let batched = verify_shuffle_batch(&items);
            match (&inline, &batched) {
                (Ok(()), Ok(())) => {}
                (Err((i, ei)), Err((j, ej))) => {
                    assert_eq!(i, j, "seed {seed}");
                    assert_eq!(format!("{ei:?}"), format!("{ej:?}"), "seed {seed}");
                }
                other => panic!("verdicts diverge at seed {seed}: {other:?}"),
            }
        }
    }
}
