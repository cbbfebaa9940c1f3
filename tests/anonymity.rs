//! Anonymity-oriented integration tests: the final output order must not
//! reveal which honest user sent which message, and users must be anonymous
//! among *all* honest users — not only those sharing their entry group (§2.2).

use std::collections::HashSet;

use rand::rngs::StdRng;
use rand::SeedableRng;

use atom::core::config::AtomConfig;
use atom::core::message::make_trap_submission;
use atom::core::round::RoundDriver;
use atom::derive_setup;
use atom::topology::mixing::{outcome_permutation, simulate_mixing};
use atom::topology::network::SquareNetwork;

fn run_round(seed: u64, users: usize) -> (Vec<String>, Vec<String>) {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut config = AtomConfig::test_default();
    config.num_groups = 4;
    config.iterations = 3;
    config.message_len = 32;
    let setup = derive_setup(&config).unwrap();
    let driver = RoundDriver::new(setup);

    let messages: Vec<String> = (0..users).map(|i| format!("user-{i:02}-message")).collect();
    let submissions: Vec<_> = messages
        .iter()
        .enumerate()
        .map(|(i, msg)| {
            let gid = i % config.num_groups;
            make_trap_submission(
                gid,
                &driver.setup().groups[gid].public_key,
                &driver.setup().trustees.public_key,
                config.round,
                msg.as_bytes(),
                config.message_len,
                &mut rng,
            )
            .unwrap()
            .0
        })
        .collect();
    let output = driver.run_trap_round(&submissions, &mut rng).unwrap();
    let recovered: Vec<String> = output
        .plaintexts
        .iter()
        .map(|p| String::from_utf8(p.iter().copied().take_while(|&b| b != 0).collect()).unwrap())
        .collect();
    (messages, recovered)
}

#[test]
fn output_is_a_permutation_and_not_submission_order() {
    let (submitted, recovered) = run_round(0xA0, 16);
    assert_eq!(recovered.len(), submitted.len());
    let submitted_set: HashSet<&String> = submitted.iter().collect();
    let recovered_set: HashSet<&String> = recovered.iter().collect();
    assert_eq!(submitted_set, recovered_set);
    // With 16 messages the probability the output order equals the input
    // order is 1/16! ≈ 5e-14; if that ever fires, the mix is not permuting.
    assert_ne!(submitted, recovered, "output order leaked submission order");
}

#[test]
fn different_rounds_produce_different_permutations() {
    let (submitted, first) = run_round(0xB0, 12);
    let (_, second) = run_round(0xB1, 12);
    assert_ne!(first, second);
    // Both are permutations of the same submitted set.
    let expected: HashSet<&String> = submitted.iter().collect();
    assert_eq!(first.iter().collect::<HashSet<_>>(), expected);
    assert_eq!(second.iter().collect::<HashSet<_>>(), expected);
}

#[test]
fn users_are_mixed_across_entry_groups() {
    // Users from entry group 0 must not cluster in one exit group: a user is
    // anonymous among all honest users, not just her entry group (§2.2).
    let mut rng = StdRng::seed_from_u64(0xC0);
    let mut config = AtomConfig::test_default();
    config.num_groups = 4;
    config.iterations = 3;
    config.message_len = 32;
    let setup = derive_setup(&config).unwrap();
    let driver = RoundDriver::new(setup);

    let users = 32usize;
    let submissions: Vec<_> = (0..users)
        .map(|i| {
            let gid = i % config.num_groups;
            make_trap_submission(
                gid,
                &driver.setup().groups[gid].public_key,
                &driver.setup().trustees.public_key,
                config.round,
                format!("g{gid}-user{i:02}").as_bytes(),
                config.message_len,
                &mut rng,
            )
            .unwrap()
            .0
        })
        .collect();
    let output = driver.run_trap_round(&submissions, &mut rng).unwrap();

    // Find where group-0 users' messages ended up (by holding group).
    let mut exit_groups = Vec::new();
    for (exit_group, messages) in output.per_group.iter().enumerate() {
        for message in messages {
            let text = String::from_utf8_lossy(message);
            if text.starts_with("g0-") {
                exit_groups.push(exit_group);
            }
        }
    }
    assert_eq!(exit_groups.len(), users / config.num_groups);
    let distinct: HashSet<usize> = exit_groups.iter().copied().collect();
    assert!(
        distinct.len() >= 2,
        "all of entry group 0's messages exited together: {exit_groups:?}"
    );
}

#[test]
fn permutation_network_mixes_statistically() {
    // Crypto-free statistical check on the square network itself: over many
    // runs, a fixed message should land in many different output positions.
    let topology = SquareNetwork::paper_default(8);
    let assignment: Vec<usize> = (0..160).map(|m| m % 8).collect();
    let mut positions = HashSet::new();
    for seed in 0..40u64 {
        let outcome = simulate_mixing(&topology, &assignment, seed);
        let perm = outcome_permutation(&outcome);
        positions.insert(perm[0]);
    }
    assert!(
        positions.len() > 20,
        "message 0 landed in only {} distinct positions over 40 runs",
        positions.len()
    );
}
