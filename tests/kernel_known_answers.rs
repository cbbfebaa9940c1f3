//! Known-answer tests pinning the group-arithmetic kernel to the values the
//! previous kernel produced.
//!
//! The equivalence suites compare the engine against `RoundDriver`, and both
//! run on the same vendored arithmetic, so a *consistent* arithmetic bug
//! passes them. The digests below were generated on the commit before the
//! one-pass multiply and the Jacobi-symbol point check landed (PR 11,
//! `d662930`): equal digests mean the new kernel computes the same group
//! elements, accepts the same encodings, and so drives the same rounds.
//!
//! Each digest covers the encoded client submissions (every ciphertext
//! component and proof is a product of exponentiations, and the message
//! embedding is a sequence of point-validity decisions) and the round's
//! `RoundOutput`.
//!
//! The submit frames are also pinned on their own: they are made before any
//! mixing, so a mismatch there is the kernel's (or the `EncProof`'s), never
//! the mixing protocol's.
//!
//! The aggregated `ReEncProof` (PR 13) draws two nonces per (member,
//! sub-batch) where the per-component proof drew `1 + components` per
//! message, and a group's RNG stream runs on through its iterations, so in
//! general the NIZK round's later permutations — its output *order*, never
//! its content — differ from the parent's. Not in these rounds: six
//! one-component messages over three groups make every forwarded sub-batch a
//! single message, for which both proof systems draw exactly two nonces.
//! Both combined digests are therefore still the ones recorded at `d662930`.

use atom::core::config::{AtomConfig, Defense};
use atom::core::message::{make_nizk_submission, make_trap_submission};
use atom::core::round::{RoundDriver, RoundOutput};
use atom::crypto::keccak::sha3_256;
use atom::runtime::wire::{encode_submit, ClientSubmission, SubmitFrame};
use atom::setup_round;
use rand::rngs::StdRng;
use rand::SeedableRng;

const SEED: u64 = 0xA70_5EED;

fn config(defense: Defense) -> AtomConfig {
    let mut config = AtomConfig::test_default();
    config.defense = defense;
    config.num_groups = 3;
    config.iterations = 3;
    config.message_len = 24;
    config
}

fn hex(bytes: &[u8]) -> String {
    bytes.iter().map(|b| format!("{b:02x}")).collect()
}

/// The encoded submit frames, in client order.
fn submit_bytes(submissions: Vec<ClientSubmission>) -> Vec<u8> {
    let mut bytes = Vec::new();
    for (client, submission) in submissions.into_iter().enumerate() {
        bytes.extend(encode_submit(&SubmitFrame {
            round: 0,
            client: client as u64,
            app: 0,
            submission,
        }));
    }
    bytes
}

fn length_prefixed<'a>(texts: impl IntoIterator<Item = &'a Vec<u8>>) -> Vec<u8> {
    let mut bytes = Vec::new();
    for text in texts {
        bytes.extend((text.len() as u64).to_le_bytes());
        bytes.extend(text);
    }
    bytes
}

/// The round output with every list length-prefixed (timings excluded: they
/// are wall-clock).
fn output_bytes(output: &RoundOutput) -> Vec<u8> {
    let mut bytes = Vec::new();
    bytes.extend((output.routed_ciphertexts as u64).to_le_bytes());
    for group in &output.per_group {
        bytes.extend((group.len() as u64).to_le_bytes());
        bytes.extend(length_prefixed(group));
    }
    bytes.extend(length_prefixed(&output.plaintexts));
    bytes
}

fn digest(bytes: &[u8]) -> String {
    hex(&sha3_256(bytes))
}

#[test]
fn trap_round_matches_parent_commit_digest() {
    let mut rng = StdRng::seed_from_u64(42);
    let setup = setup_round(&config(Defense::Trap), &mut rng).unwrap();
    let submissions: Vec<_> = (0..6)
        .map(|i| {
            let gid = i % setup.config.num_groups;
            make_trap_submission(
                gid,
                &setup.groups[gid].public_key,
                &setup.trustees.public_key,
                setup.config.round,
                format!("known answer {i}").as_bytes(),
                setup.config.message_len,
                &mut rng,
            )
            .unwrap()
            .0
        })
        .collect();
    let output = RoundDriver::new(setup)
        .run_trap_round(&submissions, &mut StdRng::seed_from_u64(SEED))
        .unwrap();
    assert_eq!(output.plaintexts.len(), 6);
    let mut bytes = submit_bytes(
        submissions
            .into_iter()
            .map(ClientSubmission::Trap)
            .collect(),
    );
    assert_eq!(digest(&bytes), TRAP_SUBMIT_DIGEST);
    bytes.extend(output_bytes(&output));
    assert_eq!(digest(&bytes), TRAP_DIGEST);
}

#[test]
fn nizk_round_matches_parent_commit_digest() {
    let mut rng = StdRng::seed_from_u64(43);
    let setup = setup_round(&config(Defense::Nizk), &mut rng).unwrap();
    let submissions: Vec<_> = (0..6)
        .map(|i| {
            let gid = i % setup.config.num_groups;
            make_nizk_submission(
                gid,
                &setup.groups[gid].public_key,
                format!("known answer {i}").as_bytes(),
                setup.config.message_len,
                &mut rng,
            )
            .unwrap()
            .0
        })
        .collect();
    let output = RoundDriver::new(setup)
        .run_nizk_round(&submissions, &mut StdRng::seed_from_u64(SEED))
        .unwrap();
    // Content first, independent of order: the multiset the parent delivered.
    let mut delivered = output.plaintexts.clone();
    delivered.sort();
    let sent: Vec<_> = (0..6)
        .map(|i| format!("known answer {i}").into_bytes())
        .collect();
    assert_eq!(delivered, sent);
    let frames = submissions
        .into_iter()
        .map(ClientSubmission::Nizk)
        .collect();
    let mut bytes = submit_bytes(frames);
    assert_eq!(digest(&bytes), NIZK_SUBMIT_DIGEST);
    bytes.extend(output_bytes(&output));
    assert_eq!(digest(&bytes), NIZK_DIGEST);
}

const TRAP_SUBMIT_DIGEST: &str = "9e897a63af9a27c16761489237d61425a04f35abe42e184c54ff00ae6a3dd974";
const TRAP_DIGEST: &str = "04b654c914ea950535000d6de8c5c3c9cac42849172eb46c7097482fa2a5a0c5";
const NIZK_SUBMIT_DIGEST: &str = "44322b5d1d19845676d91d7c42e345fe5872a44bc9cb0004c146c69bf4850923";
const NIZK_DIGEST: &str = "e0a44aac3da9f8056a5af261bf775b1fd9fa22679ca1bfbc066d3ca9e2313bfc";
