//! Rerandomizable ElGamal with out-of-order decryption and re-encryption.
//!
//! This is the cryptosystem of Appendix A of the Atom paper, written
//! additively over the Ristretto group. A ciphertext is a triple
//! `(R, c, Y)` where `Y` is an optional auxiliary element (⊥ in the paper):
//!
//! * `Enc(X, m)`: pick `r`, output `(rB, m + rX, ⊥)`.
//! * `Dec(x, (R, c, ⊥))`: output `c − xR`.
//! * `Shuffle`: rerandomize `(R, c, ⊥) → (R + r'B, c + r'X, ⊥)` and permute.
//! * `ReEnc(x, X', (R, c, Y))`: if `Y = ⊥`, set `Y := R`, `R := 0`. Peel one
//!   layer with `x` (`c := c − xY`), then add a layer for the next group's
//!   key `X'` (`R := R + r'B`, `c := c + r'X'`).
//!
//! `Y` carries the randomness binding the ciphertext to the *current* group's
//! key while `R` accumulates randomness for the *next* group's key, which is
//! what lets each server in a group peel its own layer even though the
//! ciphertext has already been partially re-encrypted toward the next group
//! ("out-of-order" decryption). The last server of a group drops `Y` before
//! forwarding (see [`Ciphertext::finalize_handoff`]).

use atom_obs::Counter;
use curve25519_dalek::constants::RISTRETTO_BASEPOINT_TABLE;
use curve25519_dalek::ristretto::RistrettoPoint;
use curve25519_dalek::scalar::Scalar;
use curve25519_dalek::traits::Identity;
use rand::{CryptoRng, RngCore};
use serde::{Deserialize, Serialize};

use crate::error::{CryptoError, CryptoResult};

/// Variable-base exponentiations run by [`reencrypt_message`] (the peel),
/// added once per message. With [`EXP_FIXED_BASE`], `crypto.fixed_base.calls`
/// and `crypto.multiexp.terms` this makes exponentiations per delivered
/// message a quotient of counters.
static EXP_VAR_BASE: Counter = Counter::new("crypto.exp.var_base");
/// Fixed-base exponentiations run by [`encrypt_message`], [`shuffle`] and
/// [`reencrypt_message`] (two per randomizer: the generator and a group
/// key), added once per message or batch.
static EXP_FIXED_BASE: Counter = Counter::new("crypto.exp.fixed_base");

/// An ElGamal secret key (a scalar).
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct SecretKey(pub Scalar);

/// An ElGamal public key (a group element).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct PublicKey(pub RistrettoPoint);

/// A secret/public keypair.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct KeyPair {
    /// The secret scalar.
    pub secret: SecretKey,
    /// The matching public key.
    pub public: PublicKey,
}

impl KeyPair {
    /// Generates a fresh keypair (`KeyGen` in the paper).
    pub fn generate<R: RngCore + CryptoRng>(rng: &mut R) -> Self {
        let x = Scalar::random(rng);
        Self::from_secret(x)
    }

    /// Builds a keypair from an existing secret scalar.
    pub(crate) fn from_secret(x: Scalar) -> Self {
        let public = PublicKey(x * RISTRETTO_BASEPOINT_TABLE);
        Self {
            secret: SecretKey(x),
            public,
        }
    }
}

impl PublicKey {
    /// The canonical 32-byte encoding of the key.
    pub fn to_bytes(&self) -> [u8; 32] {
        self.0.compress().to_bytes()
    }

    /// Parses a key from its canonical 32-byte encoding.
    pub fn from_bytes(bytes: &[u8]) -> CryptoResult<PublicKey> {
        let array: [u8; 32] = bytes
            .try_into()
            .map_err(|_| CryptoError::Malformed("public key must be 32 bytes".into()))?;
        curve25519_dalek::ristretto::CompressedRistretto(array)
            .decompress()
            .map(PublicKey)
            .ok_or_else(|| CryptoError::Malformed("invalid public key encoding".into()))
    }
}

/// A rerandomizable ElGamal ciphertext `(R, c, Y)`.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct Ciphertext {
    /// Randomness component for the *next* group's key.
    pub r: RistrettoPoint,
    /// Payload component.
    pub c: RistrettoPoint,
    /// Auxiliary randomness component for the *current* group's key
    /// (`None` encodes ⊥).
    pub y: Option<RistrettoPoint>,
}

impl Ciphertext {
    /// True if the auxiliary component is ⊥.
    pub(crate) fn is_fresh(&self) -> bool {
        self.y.is_none()
    }

    /// Drops the auxiliary component before handing the ciphertext to the
    /// next group. Called by the last server of a group once every member has
    /// peeled its layer; at that point all layers for the current group have
    /// been removed and the ciphertext is encrypted only under the next
    /// group's key.
    pub fn finalize_handoff(&self) -> Ciphertext {
        Ciphertext {
            r: self.r,
            c: self.c,
            y: None,
        }
    }

    /// Extracts the plaintext group element after the final exit-group
    /// decryption (all layers peeled with no next key).
    pub fn into_plaintext_point(self) -> RistrettoPoint {
        self.c
    }
}

/// Encrypts a group element `m` under `pk`, returning the ciphertext and the
/// encryption randomness (needed to build an `EncProof`).
pub fn encrypt<R: RngCore + CryptoRng>(
    pk: &PublicKey,
    m: &RistrettoPoint,
    rng: &mut R,
) -> (Ciphertext, Scalar) {
    encrypt_with_table(&crate::batch::fixed_base_table(&pk.0), m, rng)
}

/// [`encrypt`] against an already-fetched key table (one cache lookup per
/// batch instead of per component).
fn encrypt_with_table<R: RngCore + CryptoRng>(
    pk_table: &curve25519_dalek::ristretto::RistrettoBasepointTable,
    m: &RistrettoPoint,
    rng: &mut R,
) -> (Ciphertext, Scalar) {
    let r = Scalar::random(rng);
    let ct = Ciphertext {
        r: r * RISTRETTO_BASEPOINT_TABLE,
        c: m + pk_table.mul_scalar(&r),
        y: None,
    };
    (ct, r)
}

/// Decrypts a ciphertext with a single secret key (`Dec` in the paper).
///
/// Fails if the auxiliary component is present, mirroring Appendix A.
pub fn decrypt(sk: &SecretKey, ct: &Ciphertext) -> CryptoResult<RistrettoPoint> {
    if ct.y.is_some() {
        return Err(CryptoError::UnexpectedAuxComponent);
    }
    // `c + (−x)·R` rather than `c − x·R`: point subtraction costs a Fermat
    // inversion in the vendored group, scalar negation is free.
    Ok(ct.c + -sk.0 * ct.r)
}

/// Rerandomizes a ciphertext with caller-provided randomness `r`, against
/// the key's already-fetched fixed-base table.
fn rerandomize_with_table(
    pk_table: &curve25519_dalek::ristretto::RistrettoBasepointTable,
    ct: &Ciphertext,
    r: &Scalar,
) -> Ciphertext {
    Ciphertext {
        r: ct.r + r * RISTRETTO_BASEPOINT_TABLE,
        c: ct.c + pk_table.mul_scalar(r),
        y: ct.y,
    }
}

/// Witness data produced by [`reencrypt`], needed for a `ReEncProof`.
#[derive(Clone, Debug)]
pub struct ReEncWitness {
    /// The effective peeling exponent used (server secret or Lagrange-weighted
    /// threshold share).
    pub peel_secret: Scalar,
    /// Fresh randomness added toward the next group's key (zero when the next
    /// key is ⊥).
    pub fresh_randomness: Scalar,
    /// Whether the `Y := R, R := 0` swap was applied (i.e. the input had
    /// `Y = ⊥`).
    pub swapped: bool,
}

/// `ReEnc(x, X', (R, c, Y))` from Appendix A.
///
/// `peel_secret` is the exponent this server removes: its own secret key in
/// the anytrust variant, or its Lagrange-weighted threshold share in the
/// many-trust variant. `next_pk = None` encodes `X' = ⊥` (final decryption).
pub fn reencrypt<R: RngCore + CryptoRng>(
    peel_secret: &Scalar,
    next_pk: Option<&PublicKey>,
    ct: &Ciphertext,
    rng: &mut R,
) -> (Ciphertext, ReEncWitness) {
    let next_table = next_pk.map(|next| crate::batch::fixed_base_table(&next.0));
    reencrypt_with_table(peel_secret, next_table.as_deref(), ct, rng)
}

/// [`reencrypt`] against an already-fetched next-key table.
fn reencrypt_with_table<R: RngCore + CryptoRng>(
    peel_secret: &Scalar,
    next_table: Option<&curve25519_dalek::ristretto::RistrettoBasepointTable>,
    ct: &Ciphertext,
    rng: &mut R,
) -> (Ciphertext, ReEncWitness) {
    let fresh = match next_table {
        Some(_) => Scalar::random(rng),
        None => Scalar::ZERO,
    };
    let out = reencrypt_with_table_core(peel_secret, next_table, ct, &fresh);
    let witness = ReEncWitness {
        peel_secret: *peel_secret,
        fresh_randomness: fresh,
        swapped: ct.y.is_none(),
    };
    (out, witness)
}

fn reencrypt_with_table_core(
    peel_secret: &Scalar,
    next_table: Option<&curve25519_dalek::ristretto::RistrettoBasepointTable>,
    ct: &Ciphertext,
    fresh: &Scalar,
) -> Ciphertext {
    // `c + (−x)·Y` avoids the point-subtraction inversion.
    let peel = -*peel_secret * swap_view(ct).1;
    reencrypt_around_peel(next_table, ct, peel, fresh)
}

/// `ReEnc` given its one variable-base term, `peel = (−x)·Y` for the `Y` of
/// [`swap_view`].
fn reencrypt_around_peel(
    next_table: Option<&curve25519_dalek::ristretto::RistrettoBasepointTable>,
    ct: &Ciphertext,
    peel: RistrettoPoint,
    fresh: &Scalar,
) -> Ciphertext {
    // Step 1: if Y = ⊥, move the current randomness into Y and reset R.
    let (mut r, y) = swap_view(ct);
    // Step 2: peel one layer of the current group's encryption.
    let mut c = ct.c + peel;
    // Step 3: add a layer toward the next group's key (if any).
    if let Some(next) = next_table {
        r += fresh * RISTRETTO_BASEPOINT_TABLE;
        c += next.mul_scalar(fresh);
    }
    Ciphertext { r, c, y: Some(y) }
}

/// The public "swap view" of a ciphertext as seen by a re-encryption proof:
/// the `(R, Y)` pair after the deterministic `Y := R, R := 0` swap has been
/// applied when `Y = ⊥`. Both prover and verifier compute this locally.
pub(crate) fn swap_view(ct: &Ciphertext) -> (RistrettoPoint, RistrettoPoint) {
    match ct.y {
        Some(y) => (ct.r, y),
        None => (RistrettoPoint::identity(), ct.r),
    }
}

/// A message ciphertext: one ElGamal ciphertext per embedded point.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct MessageCiphertext {
    /// Component ciphertexts, one per plaintext group element.
    pub components: Vec<Ciphertext>,
}

impl MessageCiphertext {
    /// Number of group-element components.
    pub fn len(&self) -> usize {
        self.components.len()
    }

    /// True if the ciphertext has no components.
    pub fn is_empty(&self) -> bool {
        self.components.is_empty()
    }

    /// True if every component has `Y = ⊥`.
    pub fn is_fresh(&self) -> bool {
        self.components.iter().all(Ciphertext::is_fresh)
    }

    /// Applies [`Ciphertext::finalize_handoff`] to every component.
    pub fn finalize_handoff(&self) -> MessageCiphertext {
        MessageCiphertext {
            components: self
                .components
                .iter()
                .map(Ciphertext::finalize_handoff)
                .collect(),
        }
    }
}

/// Encrypts a multi-point message under `pk`; returns the per-component
/// encryption randomness for proof generation.
pub fn encrypt_message<R: RngCore + CryptoRng>(
    pk: &PublicKey,
    points: &[RistrettoPoint],
    rng: &mut R,
) -> (MessageCiphertext, Vec<Scalar>) {
    EXP_FIXED_BASE.add(2 * points.len() as u64);
    let pk_table = crate::batch::fixed_base_table(&pk.0);
    let mut components = Vec::with_capacity(points.len());
    let mut randomness = Vec::with_capacity(points.len());
    for point in points {
        let (ct, r) = encrypt_with_table(&pk_table, point, rng);
        components.push(ct);
        randomness.push(r);
    }
    (MessageCiphertext { components }, randomness)
}

/// Decrypts a multi-point message with a single secret key.
pub fn decrypt_message(
    sk: &SecretKey,
    ct: &MessageCiphertext,
) -> CryptoResult<Vec<RistrettoPoint>> {
    ct.components.iter().map(|c| decrypt(sk, c)).collect()
}

/// Re-encrypts every component of a message ciphertext.
///
/// Every component is peeled with the same exponent, so the peels
/// `(−x)·Y_l` run as one same-scalar batch (`RistrettoPoint::mul_each`, the
/// only caller of that entry point). The fresh randomness is drawn first,
/// one scalar per component in component order — the draws
/// [`reencrypt`] would make — so the output is the one a component-wise
/// loop gives, byte for byte.
pub fn reencrypt_message<R: RngCore + CryptoRng>(
    peel_secret: &Scalar,
    next_pk: Option<&PublicKey>,
    ct: &MessageCiphertext,
    rng: &mut R,
) -> (MessageCiphertext, Vec<ReEncWitness>) {
    let next_table = next_pk.map(|next| crate::batch::fixed_base_table(&next.0));
    let n = ct.components.len() as u64;
    EXP_VAR_BASE.add(n);
    EXP_FIXED_BASE.add(if next_table.is_some() { 2 * n } else { 0 });
    let witnesses: Vec<ReEncWitness> = ct
        .components
        .iter()
        .map(|component| ReEncWitness {
            peel_secret: *peel_secret,
            fresh_randomness: match next_table {
                Some(_) => Scalar::random(rng),
                None => Scalar::ZERO,
            },
            swapped: component.y.is_none(),
        })
        .collect();
    let ys: Vec<RistrettoPoint> = ct.components.iter().map(|c| swap_view(c).1).collect();
    let peels = RistrettoPoint::mul_each(&-*peel_secret, &ys);
    let components = ct
        .components
        .iter()
        .zip(peels)
        .zip(&witnesses)
        .map(|((component, peel), witness)| {
            reencrypt_around_peel(
                next_table.as_deref(),
                component,
                peel,
                &witness.fresh_randomness,
            )
        })
        .collect();
    (MessageCiphertext { components }, witnesses)
}

/// The witness of a batch shuffle: the permutation applied and the
/// rerandomization scalars, indexed `[output slot][component]`.
#[derive(Clone, Debug)]
pub struct ShuffleWitness {
    /// `permutation[j]` is the input index that was placed at output slot `j`.
    pub permutation: Vec<usize>,
    /// `randomness[j][l]` re-randomized component `l` of that input.
    pub randomness: Vec<Vec<Scalar>>,
}

/// `Shuffle(pk, C)` from Appendix A applied to a batch of message
/// ciphertexts: rerandomize every component and apply a uniformly random
/// permutation to the batch. Fails if any component has `Y ≠ ⊥`.
pub fn shuffle<R: RngCore + CryptoRng>(
    pk: &PublicKey,
    batch: &[MessageCiphertext],
    rng: &mut R,
) -> CryptoResult<(Vec<MessageCiphertext>, ShuffleWitness)> {
    for message in batch {
        if !message.is_fresh() {
            return Err(CryptoError::UnexpectedAuxComponent);
        }
    }

    // Fisher-Yates permutation.
    let n = batch.len();
    let mut permutation: Vec<usize> = (0..n).collect();
    for i in (1..n).rev() {
        let j = (rng.next_u64() as usize) % (i + 1);
        permutation.swap(i, j);
    }

    EXP_FIXED_BASE.add(2 * batch.iter().map(|m| m.components.len() as u64).sum::<u64>());
    let pk_table = crate::batch::fixed_base_table(&pk.0);
    let mut output = Vec::with_capacity(n);
    let mut randomness = Vec::with_capacity(n);
    for &src in &permutation {
        let mut components = Vec::with_capacity(batch[src].components.len());
        let mut rs = Vec::with_capacity(batch[src].components.len());
        for component in &batch[src].components {
            let r = Scalar::random(rng);
            components.push(rerandomize_with_table(&pk_table, component, &r));
            rs.push(r);
        }
        output.push(MessageCiphertext { components });
        randomness.push(rs);
    }

    Ok((
        output,
        ShuffleWitness {
            permutation,
            randomness,
        },
    ))
}

#[cfg(test)]
impl PublicKey {
    /// Combines several public keys into an anytrust group key
    /// (the "product of the public keys of all servers" in §4.2).
    pub(crate) fn combine<'a>(keys: impl IntoIterator<Item = &'a PublicKey>) -> PublicKey {
        let mut sum = RistrettoPoint::identity();
        for key in keys {
            sum += key.0;
        }
        PublicKey(sum)
    }
}

#[cfg(test)]
/// Rerandomizes a ciphertext for public key `pk`, returning the fresh
/// randomness (needed for shuffle proofs). Fails if `Y ≠ ⊥`.
pub(crate) fn rerandomize<R: RngCore + CryptoRng>(
    pk: &PublicKey,
    ct: &Ciphertext,
    rng: &mut R,
) -> CryptoResult<(Ciphertext, Scalar)> {
    if ct.y.is_some() {
        return Err(CryptoError::UnexpectedAuxComponent);
    }
    let r = Scalar::random(rng);
    Ok((rerandomize_with(pk, ct, &r), r))
}

#[cfg(test)]
/// Rerandomizes a ciphertext with caller-provided randomness.
fn rerandomize_with(pk: &PublicKey, ct: &Ciphertext, r: &Scalar) -> Ciphertext {
    rerandomize_with_table(&crate::batch::fixed_base_table(&pk.0), ct, r)
}

#[cfg(test)]
/// Deterministic core of [`reencrypt`] with caller-provided randomness.
fn reencrypt_with(
    peel_secret: &Scalar,
    next_pk: Option<&PublicKey>,
    ct: &Ciphertext,
    fresh: &Scalar,
) -> Ciphertext {
    let next_table = next_pk.map(|next| crate::batch::fixed_base_table(&next.0));
    reencrypt_with_table_core(peel_secret, next_table.as_deref(), ct, fresh)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::encoding::{decode_message, encode_message};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn rng() -> StdRng {
        StdRng::seed_from_u64(0x41544f4d)
    }

    #[test]
    fn encrypt_decrypt_roundtrip() {
        let mut rng = rng();
        let kp = KeyPair::generate(&mut rng);
        let m = RistrettoPoint::random(&mut rng);
        let (ct, _) = encrypt(&kp.public, &m, &mut rng);
        assert_eq!(decrypt(&kp.secret, &ct).unwrap(), m);
    }

    #[test]
    fn rerandomize_preserves_plaintext_and_changes_ciphertext() {
        let mut rng = rng();
        let kp = KeyPair::generate(&mut rng);
        let m = RistrettoPoint::random(&mut rng);
        let (ct, _) = encrypt(&kp.public, &m, &mut rng);
        let (ct2, _) = rerandomize(&kp.public, &ct, &mut rng).unwrap();
        assert_ne!(ct, ct2);
        assert_eq!(decrypt(&kp.secret, &ct2).unwrap(), m);
    }

    #[test]
    fn rerandomize_rejects_aux_component() {
        let mut rng = rng();
        let kp = KeyPair::generate(&mut rng);
        let m = RistrettoPoint::random(&mut rng);
        let (ct, _) = encrypt(&kp.public, &m, &mut rng);
        let (mid, _) = reencrypt(&kp.secret.0, Some(&kp.public), &ct, &mut rng);
        assert!(rerandomize(&kp.public, &mid, &mut rng).is_err());
        assert!(decrypt(&kp.secret, &mid).is_err());
    }

    #[test]
    fn anytrust_group_decryption_via_sequential_reencrypt() {
        // One group of 4 servers peels its layers while re-encrypting toward
        // a second group of 3 servers, which then decrypts (next key ⊥).
        let mut rng = rng();
        let group_a: Vec<KeyPair> = (0..4).map(|_| KeyPair::generate(&mut rng)).collect();
        let group_b: Vec<KeyPair> = (0..3).map(|_| KeyPair::generate(&mut rng)).collect();
        let pk_a = PublicKey::combine(group_a.iter().map(|k| &k.public));
        let pk_b = PublicKey::combine(group_b.iter().map(|k| &k.public));

        let m = RistrettoPoint::random(&mut rng);
        let (ct, _) = encrypt(&pk_a, &m, &mut rng);

        // Group A: each server peels its own layer and re-encrypts for B.
        let mut current = ct;
        for server in &group_a {
            let (next, _) = reencrypt(&server.secret.0, Some(&pk_b), &current, &mut rng);
            current = next;
        }
        let handoff = current.finalize_handoff();
        assert!(handoff.is_fresh());
        // The ciphertext is now a plain ElGamal encryption under B's key.
        let sk_b_combined = SecretKey(group_b.iter().map(|k| k.secret.0).sum());
        assert_eq!(decrypt(&sk_b_combined, &handoff).unwrap(), m);

        // Group B: exit group, peels with next key ⊥.
        let mut current = handoff;
        for server in &group_b {
            let (next, _) = reencrypt(&server.secret.0, None, &current, &mut rng);
            current = next;
        }
        assert_eq!(current.into_plaintext_point(), m);
    }

    #[test]
    fn out_of_order_reencryption_intermediate_not_decryptable_by_next_group() {
        // While group A is mid-way through peeling, the ciphertext must not be
        // decryptable by group B alone (it is still protected by the remaining
        // honest server of A).
        let mut rng = rng();
        let group_a: Vec<KeyPair> = (0..3).map(|_| KeyPair::generate(&mut rng)).collect();
        let group_b: Vec<KeyPair> = (0..3).map(|_| KeyPair::generate(&mut rng)).collect();
        let pk_a = PublicKey::combine(group_a.iter().map(|k| &k.public));
        let pk_b = PublicKey::combine(group_b.iter().map(|k| &k.public));

        let m = RistrettoPoint::random(&mut rng);
        let (ct, _) = encrypt(&pk_a, &m, &mut rng);

        // Only two of A's three servers have processed the ciphertext.
        let (step1, _) = reencrypt(&group_a[0].secret.0, Some(&pk_b), &ct, &mut rng);
        let (step2, _) = reencrypt(&group_a[1].secret.0, Some(&pk_b), &step1, &mut rng);

        let sk_b_combined = SecretKey(group_b.iter().map(|k| k.secret.0).sum());
        let premature = step2.finalize_handoff();
        assert_ne!(decrypt(&sk_b_combined, &premature).unwrap(), m);
    }

    #[test]
    fn multi_group_chain_preserves_message_bytes() {
        let mut rng = rng();
        let text = b"a 160-byte style microblog message travels across three anytrust groups";
        let points = encode_message(text).unwrap();

        let groups: Vec<Vec<KeyPair>> = (0..3)
            .map(|_| (0..4).map(|_| KeyPair::generate(&mut rng)).collect())
            .collect();
        let group_pks: Vec<PublicKey> = groups
            .iter()
            .map(|g| PublicKey::combine(g.iter().map(|k| &k.public)))
            .collect();

        let (mut current, _) = encrypt_message(&group_pks[0], &points, &mut rng);
        for (idx, group) in groups.iter().enumerate() {
            let next_pk = group_pks.get(idx + 1);
            for server in group {
                let (out, _) = reencrypt_message(&server.secret.0, next_pk, &current, &mut rng);
                current = out;
            }
            current = current.finalize_handoff();
        }
        let plaintext_points: Vec<RistrettoPoint> = current
            .components
            .iter()
            .map(|c| c.into_plaintext_point())
            .collect();
        assert_eq!(decode_message(&plaintext_points).unwrap(), text);
    }

    #[test]
    fn shuffle_preserves_plaintext_multiset() {
        let mut rng = rng();
        let kp = KeyPair::generate(&mut rng);
        let messages: Vec<Vec<RistrettoPoint>> = (0..8)
            .map(|i| encode_message(format!("message number {i}").as_bytes()).unwrap())
            .collect();
        let batch: Vec<MessageCiphertext> = messages
            .iter()
            .map(|pts| encrypt_message(&kp.public, pts, &mut rng).0)
            .collect();

        let (shuffled, witness) = shuffle(&kp.public, &batch, &mut rng).unwrap();
        assert_eq!(shuffled.len(), batch.len());

        // Decrypt the shuffled batch and compare the multiset of plaintexts.
        let mut decrypted: Vec<Vec<u8>> = shuffled
            .iter()
            .map(|ct| {
                let points = decrypt_message(&kp.secret, ct).unwrap();
                decode_message(&points).unwrap()
            })
            .collect();
        let mut expected: Vec<Vec<u8>> = messages
            .iter()
            .map(|pts| decode_message(pts).unwrap())
            .collect();
        decrypted.sort();
        expected.sort();
        assert_eq!(decrypted, expected);

        // The witness permutation maps outputs back to inputs.
        for (j, &src) in witness.permutation.iter().enumerate() {
            let points = decrypt_message(&kp.secret, &shuffled[j]).unwrap();
            let original = decode_message(&messages[src]).unwrap();
            assert_eq!(decode_message(&points).unwrap(), original);
        }
    }

    /// Message ciphertexts of `components` random points under `pk`.
    fn random_messages(
        pk: &PublicKey,
        components: usize,
        count: usize,
        rng: &mut StdRng,
    ) -> Vec<MessageCiphertext> {
        (0..count)
            .map(|_| {
                let points: Vec<RistrettoPoint> = (0..components)
                    .map(|_| RistrettoPoint::random(rng))
                    .collect();
                encrypt_message(pk, &points, rng).0
            })
            .collect()
    }

    #[test]
    fn reencrypt_message_is_the_component_wise_loop() {
        let mut rng = rng();
        let member = KeyPair::generate(&mut rng);
        let next = KeyPair::generate(&mut rng);
        for components in [1usize, 5, 6, 7, 9] {
            let fresh = random_messages(&member.public, components, 1, &mut rng).remove(0);
            // A second hop sees Y ≠ ⊥ (no swap).
            let swapped =
                reencrypt_message(&member.secret.0, Some(&next.public), &fresh, &mut rng).0;
            for input in [&fresh, &swapped] {
                for next_pk in [Some(&next.public), None] {
                    let mut reference_rng = rng.clone();
                    let (out, witnesses) =
                        reencrypt_message(&member.secret.0, next_pk, input, &mut rng);
                    assert_eq!(out.len(), components);
                    assert_eq!(witnesses.len(), components);
                    for ((component, output), witness) in
                        input.components.iter().zip(&out.components).zip(&witnesses)
                    {
                        // Same draws in the same order as one `reencrypt`
                        // per component ...
                        let (expected, expected_witness) =
                            reencrypt(&member.secret.0, next_pk, component, &mut reference_rng);
                        assert_eq!(*output, expected);
                        assert_eq!(witness.fresh_randomness, expected_witness.fresh_randomness);
                        assert_eq!(witness.peel_secret, member.secret.0);
                        assert_eq!(witness.swapped, component.y.is_none());
                        assert_eq!(next_pk.is_none(), witness.fresh_randomness == Scalar::ZERO);
                        // ... and the deterministic core on the witness.
                        assert_eq!(
                            *output,
                            reencrypt_with(
                                &witness.peel_secret,
                                next_pk,
                                component,
                                &witness.fresh_randomness
                            )
                        );
                    }
                    assert_eq!(rng.next_u64(), reference_rng.next_u64());
                }
            }
        }
    }

    #[test]
    fn shuffle_is_the_component_wise_loop() {
        let mut rng = rng();
        let kp = KeyPair::generate(&mut rng);
        for components in [1usize, 5, 6, 7, 9] {
            let batch = random_messages(&kp.public, components, 5, &mut rng);
            let mut reference_rng = rng.clone();
            let (outputs, witness) = shuffle(&kp.public, &batch, &mut rng).unwrap();
            // Draw order: the permutation's n − 1 words, then one scalar
            // per output slot and component.
            for _ in 1..batch.len() {
                reference_rng.next_u64();
            }
            let mut sources = witness.permutation.clone();
            sources.sort_unstable();
            assert_eq!(sources, (0..batch.len()).collect::<Vec<_>>());
            for ((output, &src), randomness) in outputs
                .iter()
                .zip(&witness.permutation)
                .zip(&witness.randomness)
            {
                assert_eq!(output.len(), components);
                for ((component, out), r) in batch[src]
                    .components
                    .iter()
                    .zip(&output.components)
                    .zip(randomness)
                {
                    assert_eq!(*r, Scalar::random(&mut reference_rng));
                    assert_eq!(*out, rerandomize_with(&kp.public, component, r));
                }
            }
            assert_eq!(rng.next_u64(), reference_rng.next_u64());
        }
    }

    #[test]
    fn shuffle_rejects_partially_reencrypted_batch() {
        let mut rng = rng();
        let kp = KeyPair::generate(&mut rng);
        let m = RistrettoPoint::random(&mut rng);
        let (ct, _) = encrypt(&kp.public, &m, &mut rng);
        let (mid, _) = reencrypt(&kp.secret.0, Some(&kp.public), &ct, &mut rng);
        let batch = vec![MessageCiphertext {
            components: vec![mid],
        }];
        assert!(shuffle(&kp.public, &batch, &mut rng).is_err());
    }

    #[test]
    fn combine_public_keys_matches_sum_of_secrets() {
        let mut rng = rng();
        let keys: Vec<KeyPair> = (0..5).map(|_| KeyPair::generate(&mut rng)).collect();
        let combined = PublicKey::combine(keys.iter().map(|k| &k.public));
        let secret_sum: Scalar = keys.iter().map(|k| k.secret.0).sum();
        assert_eq!(combined, KeyPair::from_secret(secret_sum).public);
    }
}
