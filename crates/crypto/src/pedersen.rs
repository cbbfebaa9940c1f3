//! Vector Pedersen commitments used by the verifiable-shuffle argument:
//! `com(v; r) = r·H + Σ v_i·G_i`, one group element for a whole vector.

use std::sync::{Arc, OnceLock};

use curve25519_dalek::ristretto::RistrettoPoint;
use curve25519_dalek::scalar::Scalar;
use parking_lot::Mutex;

use crate::keccak::Shake256;

/// Derives an independent generator by hashing a label to the group.
///
/// `RistrettoPoint::from_uniform_bytes` maps the hash output uniformly onto
/// the group, so nobody knows the discrete log of the result with respect to
/// the basepoint.
fn derive_generator(label: &[u8]) -> RistrettoPoint {
    let mut xof = Shake256::new();
    xof.absorb(b"atom-pedersen-generator");
    xof.absorb(&(label.len() as u64).to_le_bytes());
    xof.absorb(label);
    let mut wide = [0u8; 64];
    xof.squeeze(&mut wide);
    RistrettoPoint::from_uniform_bytes(&wide)
}

/// The value generator `G_i = derive_generator("shuffle-vector-G" ‖ i)`.
fn vector_generator(i: usize) -> RistrettoPoint {
    let mut label = b"shuffle-vector-G".to_vec();
    label.extend_from_slice(&(i as u64).to_le_bytes());
    derive_generator(&label)
}

/// At least the first `n` value generators, from a process-wide cache that
/// only ever grows: a longer request derives the missing tail once (about a
/// microsecond a generator) and every later caller of any size shares it.
fn vector_generators(n: usize) -> Arc<Vec<RistrettoPoint>> {
    static CACHE: OnceLock<Mutex<Arc<Vec<RistrettoPoint>>>> = OnceLock::new();
    let mut cache = CACHE.get_or_init(Default::default).lock();
    if cache.len() < n {
        let mut grown = Vec::with_capacity(n);
        grown.extend_from_slice(&cache);
        grown.extend((cache.len()..n).map(vector_generator));
        *cache = Arc::new(grown);
    }
    cache.clone()
}

/// Commitment key: the blinding generator `H` and value generators `G_i`,
/// all nothing-up-my-sleeve derived.
#[derive(Clone, Debug)]
pub(crate) struct CommitmentKey {
    /// Blinding generator.
    pub h: RistrettoPoint,
    /// Value generators; at least as many as [`CommitmentKey::atom`] was
    /// asked for.
    pub g: Arc<Vec<RistrettoPoint>>,
}

impl CommitmentKey {
    /// The fixed commitment key used throughout Atom's shuffle proofs, wide
    /// enough for vectors of `n` entries.
    pub(crate) fn atom(n: usize) -> Self {
        Self {
            h: derive_generator(b"shuffle-blinding-H"),
            g: vector_generators(n),
        }
    }

    /// Commits to `values` with blinding factor `blinding`: one fixed-base
    /// exponentiation for `H` and one multi-exponentiation over the value
    /// generators (zero entries cost nothing).
    pub(crate) fn commit(&self, values: &[Scalar], blinding: &Scalar) -> RistrettoPoint {
        crate::batch::mul_fixed(&self.h, blinding)
            + crate::batch::multiscalar_mul(values, &self.g[..values.len()])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use curve25519_dalek::constants::RISTRETTO_BASEPOINT_POINT;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use std::sync::Barrier;

    fn scalars(values: &[u64]) -> Vec<Scalar> {
        values.iter().map(|&v| Scalar::from(v)).collect()
    }

    #[test]
    fn commitment_opens_correctly() {
        let mut rng = StdRng::seed_from_u64(1);
        let key = CommitmentKey::atom(3);
        let values = scalars(&[42, 0, 7]);
        let blinding = Scalar::random(&mut rng);
        let commitment = key.commit(&values, &blinding);
        let expected = blinding * key.h + values[0] * key.g[0] + values[2] * key.g[2];
        assert_eq!(commitment, expected);
        assert_ne!(commitment, key.commit(&scalars(&[43, 0, 7]), &blinding));
        assert_ne!(commitment, key.commit(&scalars(&[0, 42, 7]), &blinding));
    }

    #[test]
    fn commitment_is_hiding_under_fresh_randomness() {
        let mut rng = StdRng::seed_from_u64(2);
        let key = CommitmentKey::atom(2);
        let values = scalars(&[7, 9]);
        let c1 = key.commit(&values, &Scalar::random(&mut rng));
        let c2 = key.commit(&values, &Scalar::random(&mut rng));
        assert_ne!(c1, c2);
    }

    #[test]
    fn commitment_is_homomorphic() {
        let key = CommitmentKey::atom(2);
        let (a, ra) = (scalars(&[3, 5]), Scalar::from(11u64));
        let (b, rb) = (scalars(&[9, 2]), Scalar::from(13u64));
        let sum = key.commit(&a, &ra) + key.commit(&b, &rb);
        assert_eq!(sum, key.commit(&scalars(&[12, 7]), &(ra + rb)));
    }

    #[test]
    fn derived_generators_differ_per_label() {
        assert_ne!(derive_generator(b"a"), derive_generator(b"b"));
        assert_ne!(derive_generator(b"a"), RISTRETTO_BASEPOINT_POINT);
    }

    #[test]
    fn derived_generator_is_deterministic() {
        assert_eq!(
            derive_generator(b"shuffle-blinding-H"),
            CommitmentKey::atom(0).h
        );
        assert_eq!(CommitmentKey::atom(5).g[4], vector_generator(4));
    }

    /// Two threads ask for widths no other test reaches, released together
    /// by a barrier: whichever grows the cache first, both see the same
    /// generators at every index, and they are the derived ones.
    #[test]
    fn concurrent_first_use_at_different_widths_agrees() {
        let barrier = Barrier::new(2);
        let (short, long) = std::thread::scope(|scope| {
            let ask = |n| {
                let barrier = &barrier;
                scope.spawn(move || {
                    barrier.wait();
                    CommitmentKey::atom(n)
                })
            };
            let (short, long) = (ask(2_900), ask(3_700));
            (short.join().unwrap(), long.join().unwrap())
        });
        assert!(short.g.len() >= 2_900 && long.g.len() >= 3_700);
        assert_eq!(short.g[..2_900], long.g[..2_900]);
        for i in [0, 1, 2_899, 2_900, 3_699] {
            assert_eq!(long.g[i], vector_generator(i));
        }
        // Later, narrower requests share the grown vector.
        assert!(CommitmentKey::atom(1).g.len() >= 3_700);
    }
}
