//! Attack-scenario integration tests: malicious servers and malicious users
//! against both defence variants, and recovery from server failures.

use rand::rngs::StdRng;
use rand::SeedableRng;

use atom::core::adversary::{AdversaryPlan, Misbehavior};
use atom::core::blame::{identify_malicious_users, BlameReason};
use atom::core::config::{AtomConfig, Defense};
use atom::core::error::AtomError;
use atom::core::message::{make_nizk_submission, make_trap_submission, TrapSubmission};
use atom::core::round::RoundDriver;
use atom::derive_setup;

fn config(defense: Defense) -> AtomConfig {
    let mut config = AtomConfig::test_default();
    config.defense = defense;
    config.num_groups = 3;
    config.iterations = 3;
    config.message_len = 32;
    config
}

fn trap_submissions(driver: &RoundDriver, count: usize, rng: &mut StdRng) -> Vec<TrapSubmission> {
    let config = &driver.setup().config;
    (0..count)
        .map(|i| {
            let gid = i % config.num_groups;
            make_trap_submission(
                gid,
                &driver.setup().groups[gid].public_key,
                &driver.setup().trustees.public_key,
                config.round,
                format!("attack-test {i}").as_bytes(),
                config.message_len,
                rng,
            )
            .unwrap()
            .0
        })
        .collect()
}

#[test]
fn every_misbehavior_aborts_a_trap_round_or_is_survived_detectably() {
    // Drops and duplications always trip the trap/count checks; replacements
    // trip them whenever the victim is a trap (the paper's 50% argument) —
    // with several replaced slots the abort probability is overwhelming.
    let actions = [
        Misbehavior::DropMessage { slot: 0 },
        Misbehavior::DuplicateMessage { slot: 0, source: 1 },
        Misbehavior::TamperCiphertext { slot: 1 },
        Misbehavior::MaulReencryption { slot: 0 },
    ];
    for (i, action) in actions.into_iter().enumerate() {
        let mut rng = StdRng::seed_from_u64(0xD00 + i as u64);
        let config = config(Defense::Trap);
        let setup = derive_setup(&config).unwrap();
        let plan = AdversaryPlan {
            group: 1,
            member: 1,
            iteration: 1,
            action,
        };
        let driver = RoundDriver::new(setup).with_adversary(plan);
        let submissions = trap_submissions(&driver, 9, &mut rng);
        let result = driver.run_trap_round(&submissions, &mut rng);
        assert!(
            matches!(result, Err(AtomError::TrapCheckFailed(_))),
            "action {action:?} was not detected: {result:?}"
        );
    }
}

#[test]
fn nizk_round_detects_every_misbehavior_and_names_the_server() {
    let actions = [
        Misbehavior::DropMessage { slot: 0 },
        Misbehavior::DuplicateMessage { slot: 0, source: 1 },
        Misbehavior::ReplaceMessage { slot: 1 },
        Misbehavior::TamperCiphertext { slot: 0 },
        Misbehavior::MaulReencryption { slot: 0 },
    ];
    for (i, action) in actions.into_iter().enumerate() {
        let mut rng = StdRng::seed_from_u64(0xE00 + i as u64);
        let config = config(Defense::Nizk);
        let setup = derive_setup(&config).unwrap();
        let plan = AdversaryPlan {
            group: 0,
            member: 2,
            iteration: 0,
            action,
        };
        let driver = RoundDriver::new(setup).with_adversary(plan);
        let submissions: Vec<_> = (0..6)
            .map(|j| {
                let gid = j % config.num_groups;
                make_nizk_submission(
                    gid,
                    &driver.setup().groups[gid].public_key,
                    format!("nizk {j}").as_bytes(),
                    config.message_len,
                    &mut rng,
                )
                .unwrap()
                .0
            })
            .collect();
        match driver.run_nizk_round(&submissions, &mut rng) {
            Err(AtomError::ProtocolViolation {
                group,
                member,
                reason,
            }) => {
                assert_eq!(group, 0);
                assert_eq!(member, Some(2));
                // The stage that caught it is the stage that was attacked.
                let stage = match action {
                    Misbehavior::MaulReencryption { .. } => "re-encryption proof rejected",
                    _ => "shuffle proof rejected",
                };
                assert!(reason.starts_with(stage), "{action:?}: {reason}");
            }
            other => panic!("action {action:?} not detected: {other:?}"),
        }
    }
}

#[test]
fn malicious_user_is_identified_after_disruption() {
    let mut rng = StdRng::seed_from_u64(0xF00);
    let config = config(Defense::Trap);
    let setup = derive_setup(&config).unwrap();
    let driver = RoundDriver::new(setup);
    let mut submissions = trap_submissions(&driver, 6, &mut rng);

    // User 4 submits a commitment that matches no trap (a disruption attempt).
    submissions[4].trap_commitment = atom::crypto::commit::commit(b"junk", b"junk");
    let result = driver.run_trap_round(&submissions, &mut rng);
    assert!(matches!(result, Err(AtomError::TrapCheckFailed(_))));

    // §4.6: after the abort, the entry groups decrypt the submissions in the
    // open and identify exactly the offending user.
    let blames = identify_malicious_users(driver.setup(), &submissions).unwrap();
    assert_eq!(blames.len(), 1);
    assert_eq!(blames[0].submission_index, 4);
    assert_eq!(blames[0].reason, BlameReason::TrapCommitmentMismatch);
}

#[test]
fn replayed_submission_is_rejected_at_the_entry_group() {
    // A malicious user replays another user's ciphertext+proof at a different
    // entry group; the group-id binding in EncProof rejects it (§3).
    let mut rng = StdRng::seed_from_u64(0xF10);
    let config = config(Defense::Trap);
    let setup = derive_setup(&config).unwrap();
    let driver = RoundDriver::new(setup);
    let mut submissions = trap_submissions(&driver, 4, &mut rng);
    let mut replayed = submissions[0].clone();
    replayed.entry_group = (replayed.entry_group + 1) % config.num_groups;
    submissions.push(replayed);
    assert!(matches!(
        driver.run_trap_round(&submissions, &mut rng),
        Err(AtomError::SubmissionRejected(_))
    ));
}

#[test]
fn round_survives_failures_up_to_the_provisioned_tolerance() {
    let mut rng = StdRng::seed_from_u64(0xF20);
    let mut config = config(Defense::Trap);
    config.required_honest = 2;
    config.group_size = 4;
    config.num_servers = 12;
    let setup = derive_setup(&config).unwrap();
    let failed = vec![setup.groups[1].members[2]];
    let driver = RoundDriver::new(setup).with_failures(failed);
    let submissions = trap_submissions(&driver, 6, &mut rng);
    let output = driver.run_trap_round(&submissions, &mut rng).unwrap();
    assert_eq!(output.plaintexts.len(), 6);
}
