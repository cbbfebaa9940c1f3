//! Known-answer tests pinning the bytes a seeded round puts on the wire and
//! what it delivers.
//!
//! The equivalence suites compare the engine against `RoundDriver`, and both
//! run on the same vendored arithmetic, so a *consistent* arithmetic bug
//! passes them. Equal digests mean this commit computes the same group
//! elements, encodes them to the same bytes, and so drives the same rounds
//! as the commit that recorded them.
//!
//! Each digest covers the encoded client submissions (every ciphertext
//! component and proof is a product of exponentiations) and the round's
//! `RoundOutput`.
//!
//! The submit frames are also pinned on their own: they are made before any
//! mixing, so a mismatch there is the kernel's, the embedding's or the
//! `EncProof`'s, never the mixing protocol's.
//!
//! History. Recorded at `d662930` (PR 11); unchanged by the one-pass multiply
//! kernel (PR 12) and by the aggregated `ReEncProof` (PR 13: six
//! one-component messages over three groups make every forwarded sub-batch a
//! single message, for which old and new provers draw the same nonces).
//! Re-pinned in PR 14, which changes the bytes of every point by
//! construction: the group is presented as `Z_p^*/{±1}` (an element's
//! encoding is the smaller residue of its class, where it was a quadratic
//! residue) and the embedding packs 31 bytes per point with no search
//! counter. The field-level answers in the vendored
//! `field::tests::known_answers_from_the_previous_kernel` did not move, and
//! both tests assert the delivered texts independently of any encoding.
//! `NIZK_DIGEST` alone re-pinned in PR 16: the Bayer–Groth `ShufProof`
//! draws a different number of nonces from the group's stream than the
//! per-element proof did, so every permutation after a round's first moves
//! and the output *order* with it. The submit digests, `TRAP_DIGEST` (the
//! trap variant builds no shuffle proof) and the delivered multisets did
//! not change.
//! All four re-pinned when the rng-threaded setup derivation was deleted:
//! the directory is now `derive_setup` of the config, so every key moves,
//! and so does every rng draw after the setup. The digests were recorded
//! on an export of `faeb709` with only this file's edit applied (the
//! `derive_setup` lines), and the change reproduces them: the kernel, the
//! embedding and the `EncProof` did not move. The delivered multisets
//! passed there unedited.
//!
//! To re-pin after a deliberate change of representation:
//! `cargo test --test kernel_known_answers` — each failing `assert_eq!`
//! prints the computed digest as `left` (submit digest first, then the
//! combined one on the next run). When the change moves the inputs rather
//! than the arithmetic, record the digests on an export of the parent
//! commit with only this file edited, as the last re-pin did.

use atom::core::config::{AtomConfig, Defense};
use atom::core::directory::derive_setup;
use atom::core::message::{make_nizk_submission, make_trap_submission};
use atom::core::round::{RoundDriver, RoundOutput};
use atom::crypto::keccak::sha3_256;
use atom::runtime::wire::{encode_submit, ClientSubmission, SubmitFrame};
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
    let setup = derive_setup(&config(Defense::Trap)).unwrap();
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
    // What no change of representation may alter: each client's text comes
    // out, zero-padded to the round's message length.
    let mut delivered = output.plaintexts.clone();
    delivered.sort();
    let sent: Vec<_> = (0..6)
        .map(|i| {
            let mut text = format!("known answer {i}").into_bytes();
            text.resize(24, 0);
            text
        })
        .collect();
    assert_eq!(delivered, sent);
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
    let setup = derive_setup(&config(Defense::Nizk)).unwrap();
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

const TRAP_SUBMIT_DIGEST: &str = "8870fbfaa19ddc27977939ba431cd3e577b9d57509124aebbf7efa174ceddedc";
const TRAP_DIGEST: &str = "2391baf56f1430003d0859b0ec8ea82fdd549b18016b90ec3a49f7543f4c8f48";
const NIZK_SUBMIT_DIGEST: &str = "27192b6575cf653996b9ab7bb73bfbdc69f054375e1d13d00c2696ee5cb5127d";
const NIZK_DIGEST: &str = "115a3fa31adb16b5516ad7cec1264ae79c3fcd4b899d854fe803da48882c4c38";
