//! What one shuffle-chain verification actually spends, read from the
//! program's own `crypto.multiexp.terms` counter. A binary of its own
//! because `atom_obs` counters are process-global: the crate's unit tests,
//! running in parallel threads of one process, would add to the delta.

use rand::rngs::StdRng;
use rand::SeedableRng;

use atom_crypto::batch::{verify_shuffle_batch, ShuffleVerification};
use atom_crypto::elgamal::{encrypt_message, shuffle, KeyPair};
use atom_crypto::encoding::encode_message;
use atom_crypto::nizk::shuffle::prove_shuffle;
use atom_crypto::MessageCiphertext;

/// A `k`-member chain over `n` messages pays every distinct point once:
/// `(k+1)·2L·n` stage points, `n` generators and `6 + 2L` points per
/// proof. A stage handed to two links as one slice is one set of points;
/// as two equal copies it is two, so copying the `k − 1` inner stages
/// costs exactly `(k−1)·2L·n` more.
#[test]
fn chain_verification_spends_one_term_per_distinct_point() {
    let mut rng = StdRng::seed_from_u64(55);
    let kp = KeyPair::generate(&mut rng);
    let (k, n) = (3, 5);
    let initial: Vec<MessageCiphertext> = (0..n)
        .map(|i| {
            let points = encode_message(&[i as u8 + 1; 24]).unwrap();
            encrypt_message(&kp.public, &points, &mut rng).0
        })
        .collect();
    let components = initial[0].components.len();
    let mut stages = vec![initial];
    let mut proofs = Vec::with_capacity(k);
    for _ in 0..k {
        let inputs = stages.last().unwrap();
        let (outputs, witness) = shuffle(&kp.public, inputs, &mut rng).unwrap();
        proofs.push(prove_shuffle(&kp.public, inputs, &outputs, &witness, &mut rng).unwrap());
        stages.push(outputs);
    }
    let copies = stages.clone();
    // Terms one `verify_shuffle_batch` call spends, each link reading its
    // inputs from `inputs` and its outputs from `stages`.
    let spent = |inputs: &[Vec<MessageCiphertext>]| {
        let items: Vec<ShuffleVerification<'_>> = (0..k)
            .map(|m| ShuffleVerification {
                pk: &kp.public,
                inputs: &inputs[m],
                outputs: &stages[m + 1],
                proof: &proofs[m],
            })
            .collect();
        let before = atom_obs::counter("crypto.multiexp.terms");
        verify_shuffle_batch(&items).expect("an honest chain verifies");
        (atom_obs::counter("crypto.multiexp.terms") - before) as usize
    };

    let aliased = (k + 1) * 2 * components * n + n + (6 + 2 * components) * k;
    assert_eq!(spent(&stages), aliased);
    assert_eq!(spent(&copies), aliased + (k - 1) * 2 * components * n);
}
