//! Shared fixtures for benchmarks and experiment binaries.

use rand::rngs::StdRng;
use rand::SeedableRng;

use atom_core::config::{AtomConfig, Defense, TopologyKind};
use atom_core::directory::{derive_setup, GroupContext, RoundSetup};
use atom_core::message::{nizk_payload_len, trap_payload_len, MixPayload};
use atom_crypto::elgamal::{encrypt_message, MessageCiphertext, PublicKey};
use atom_crypto::encoding::encode_message_padded;

/// A deterministic RNG for benchmarks.
pub(crate) fn bench_rng() -> StdRng {
    StdRng::seed_from_u64(0xA70B_BE4C)
}

/// A small deployment configuration scaled for a single machine.
pub(crate) fn bench_config(defense: Defense, groups: usize, group_size: usize) -> AtomConfig {
    AtomConfig {
        num_servers: groups * group_size,
        num_groups: groups,
        group_size,
        required_honest: 1,
        iterations: 3,
        defense,
        topology: TopologyKind::Square,
        message_len: 32,
        buddy_groups: 1,
        beacon_seed: 7,
        round: 0,
        evicted_servers: Vec::new(),
    }
}

/// The padded payload length for a config.
pub(crate) fn payload_len(config: &AtomConfig) -> usize {
    match config.defense {
        Defense::Nizk => nizk_payload_len(config.message_len),
        Defense::Trap => trap_payload_len(config.message_len),
    }
}

/// Encrypts `count` framed payloads of `padded_len` bytes under a group key.
pub(crate) fn encrypted_batch(
    group_pk: &PublicKey,
    count: usize,
    padded_len: usize,
    rng: &mut StdRng,
) -> Vec<MessageCiphertext> {
    (0..count)
        .map(|i| {
            let payload = MixPayload::Plaintext(format!("bench message {i}").into_bytes())
                .to_bytes(padded_len)
                .expect("payload fits");
            let points = encode_message_padded(&payload, padded_len).expect("encode");
            encrypt_message(group_pk, &points, rng).0
        })
        .collect()
}

/// Convenience: a single group plus an encrypted batch for it.
pub(crate) fn group_with_batch(
    defense: Defense,
    group_size: usize,
    messages: usize,
) -> (RoundSetup, GroupContext, Vec<MessageCiphertext>, usize) {
    let config = bench_config(defense, 2, group_size);
    let padded = payload_len(&config);
    let setup = derive_setup(&config).expect("bench setup");
    let group = setup.groups[0].clone();
    let batch = encrypted_batch(&group.public_key, messages, padded, &mut bench_rng());
    (setup, group, batch, padded)
}
