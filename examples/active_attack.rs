//! Active-attack demonstration (§4.3/§4.4): a malicious server drops a
//! ciphertext mid-route. Under the NIZK defence the cheating server is
//! identified immediately; under the trap defence the round aborts before any
//! inner ciphertext is decrypted, and malicious *users* can be identified
//! after the fact (§4.6).
//!
//! Run with: `cargo run --release --example active_attack`

use rand::rngs::StdRng;
use rand::SeedableRng;

use atom::core::adversary::{AdversaryPlan, Misbehavior};
use atom::core::blame::identify_malicious_users;
use atom::core::config::{AtomConfig, Defense};
use atom::core::message::{make_nizk_submission, make_trap_submission};
use atom::core::AtomError;
use atom::derive_setup;
use atom::runtime::{Engine, RoundJob, RoundSubmissions};

fn main() {
    let mut rng = StdRng::seed_from_u64(13);
    let engine = Engine::with_workers(4);
    let plan = AdversaryPlan {
        group: 1,
        member: 2,
        iteration: 1,
        action: Misbehavior::DropMessage { slot: 0 },
    };

    // --- Trap variant: the round aborts, no message is revealed. ---
    let mut config = AtomConfig::test_default();
    config.num_groups = 3;
    config.iterations = 3;
    let setup = derive_setup(&config).expect("setup");
    let submissions: Vec<_> = (0..6)
        .map(|i| {
            let gid = i % config.num_groups;
            make_trap_submission(
                gid,
                &setup.groups[gid].public_key,
                &setup.trustees.public_key,
                config.round,
                format!("sensitive message {i}").as_bytes(),
                config.message_len,
                &mut rng,
            )
            .unwrap()
            .0
        })
        .collect();
    let mut job = RoundJob::new(
        setup.clone(),
        RoundSubmissions::Trap(submissions.clone()),
        13,
    );
    job.adversary = Some(plan);
    match engine.run_round(job) {
        Err(AtomError::TrapCheckFailed(reason)) => {
            println!("[trap variant] round aborted as designed: {reason}");
            println!("[trap variant] trustees withheld the decryption key; no plaintext leaked");
        }
        other => panic!("[trap variant] unexpected outcome: {other:?}"),
    }
    // The users were honest, so the blame protocol clears them all.
    let blames = identify_malicious_users(&setup, &submissions).unwrap();
    println!(
        "[trap variant] blame protocol flags {} user(s) (expected 0)",
        blames.len()
    );

    // --- NIZK variant: the cheating server is identified on the spot. ---
    let mut config = AtomConfig::test_default();
    config.num_groups = 3;
    config.iterations = 3;
    config.defense = Defense::Nizk;
    let setup = derive_setup(&config).expect("setup");
    let submissions: Vec<_> = (0..6)
        .map(|i| {
            let gid = i % config.num_groups;
            make_nizk_submission(
                gid,
                &setup.groups[gid].public_key,
                format!("sensitive message {i}").as_bytes(),
                config.message_len,
                &mut rng,
            )
            .unwrap()
            .0
        })
        .collect();
    let mut job = RoundJob::new(setup, RoundSubmissions::Nizk(submissions), 14);
    job.adversary = Some(plan);
    match engine.run_round(job) {
        Err(AtomError::ProtocolViolation {
            group,
            member,
            reason,
        }) => {
            println!("[nizk variant] caught cheating server: group {group}, member {member:?}");
            println!("[nizk variant] reason: {reason}");
        }
        other => panic!("[nizk variant] unexpected outcome: {other:?}"),
    }
}
