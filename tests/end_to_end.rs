//! Cross-crate integration tests: full Atom rounds spanning the crypto,
//! topology, core, runtime and application layers.

use rand::rngs::StdRng;
use rand::SeedableRng;

use atom::apps::dialing::{make_dial_submission, make_dummy_submissions, DialIdentity, Mailboxes};
use atom::apps::microblog::{prepare_posts, BulletinBoard, MicroblogBatch};
use atom::core::config::{AtomConfig, Defense, TopologyKind};
use atom::core::directory::RoundSetup;
use atom::core::message::make_trap_submission;
use atom::core::round::{RoundDriver, RoundOutput};
use atom::derive_setup;
use atom::runtime::{Engine, RoundJob, RoundSubmissions};

fn base_config() -> AtomConfig {
    let mut config = AtomConfig::test_default();
    config.num_groups = 4;
    config.num_servers = 10;
    config.group_size = 3;
    config.iterations = 3;
    config.message_len = 64;
    config
}

#[test]
fn trap_round_with_many_users_delivers_every_message() {
    let mut rng = StdRng::seed_from_u64(100);
    let config = base_config();
    let setup = derive_setup(&config).unwrap();
    let driver = RoundDriver::new(setup);

    let messages: Vec<String> = (0..24)
        .map(|i| format!("integration message {i:02}"))
        .collect();
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
    assert_eq!(output.plaintexts.len(), messages.len());
    assert_eq!(output.routed_ciphertexts, 2 * messages.len());

    let mut recovered: Vec<String> = output
        .plaintexts
        .iter()
        .map(|p| String::from_utf8(p.iter().copied().take_while(|&b| b != 0).collect()).unwrap())
        .collect();
    recovered.sort();
    let mut expected = messages.clone();
    expected.sort();
    assert_eq!(recovered, expected);
}

/// The round job of a prepared microblog batch, in the configured variant.
fn microblog_job(setup: &RoundSetup, batch: MicroblogBatch, seed: u64) -> RoundJob {
    let submissions = match setup.config.defense {
        Defense::Nizk => RoundSubmissions::Nizk(batch.nizk),
        Defense::Trap => RoundSubmissions::Trap(batch.trap),
    };
    RoundJob::new(setup.clone(), submissions, seed)
}

#[test]
fn microblogging_app_works_over_both_defenses_and_topologies() {
    let engine = Engine::with_workers(2);
    for defense in [Defense::Trap, Defense::Nizk] {
        for topology in [TopologyKind::Square, TopologyKind::Butterfly] {
            let mut rng = StdRng::seed_from_u64(7);
            let mut config = base_config();
            config.defense = defense;
            config.topology = topology;
            let setup = derive_setup(&config).unwrap();
            let posts = [
                "post one",
                "post two",
                "post three",
                "post four",
                "post five",
            ];
            let batch = prepare_posts(&setup, &posts, &mut rng).unwrap();
            let report = engine.run_round(microblog_job(&setup, batch, 7)).unwrap();
            let board = BulletinBoard::publish(&report.output);
            assert_eq!(board.len(), posts.len(), "{defense:?}/{topology:?}");
            let mut texts: Vec<&str> = board.posts.iter().map(|p| p.text.as_str()).collect();
            texts.sort_unstable();
            let mut expected = posts.to_vec();
            expected.sort_unstable();
            assert_eq!(texts, expected);
        }
    }
}

/// The oracle's output for `job`: the sequential driver over the same
/// directory and submissions, seeded as the engine seeds the round.
fn oracle_output(job: &RoundJob) -> RoundOutput {
    let driver = RoundDriver::new(job.full_setup().unwrap().clone());
    let mut rng = StdRng::seed_from_u64(job.seed);
    match &job.submissions {
        RoundSubmissions::Nizk(subs) => driver.run_nizk_round(subs, &mut rng),
        RoundSubmissions::Trap(subs) => driver.run_trap_round(subs, &mut rng),
        RoundSubmissions::Stream(_) => unreachable!("the apps materialize their submissions"),
    }
    .unwrap()
}

fn assert_matches_oracle(label: &str, job: &RoundJob, output: &RoundOutput) {
    let oracle = oracle_output(job);
    assert_eq!(output.plaintexts, oracle.plaintexts, "{label}: plaintexts");
    assert_eq!(output.per_group, oracle.per_group, "{label}: per-group");
    assert_eq!(
        output.routed_ciphertexts, oracle.routed_ciphertexts,
        "{label}: routed"
    );
}

/// The apps build their submissions from a round's directory and read the
/// engine's output: every post is published and every dial lands in its
/// callee's mailbox, and each round's output is the oracle's byte for byte.
#[test]
fn apps_run_on_the_engine_and_match_the_oracle() {
    let engine = Engine::with_workers(3);
    let posts = [
        "engine post a",
        "engine post b",
        "engine post c",
        "engine post d",
    ];
    for (defense, seed) in [(Defense::Trap, 31), (Defense::Nizk, 32)] {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut config = base_config();
        config.defense = defense;
        let setup = derive_setup(&config).unwrap();
        let batch = prepare_posts(&setup, &posts, &mut rng).unwrap();
        let job = microblog_job(&setup, batch, seed);
        let report = engine.run_round(job.clone()).unwrap();
        let board = BulletinBoard::publish(&report.output);
        let mut texts: Vec<&str> = board.posts.iter().map(|p| p.text.as_str()).collect();
        texts.sort_unstable();
        assert_eq!(texts, posts, "{defense:?}: every post is published");
        assert_matches_oracle(&format!("microblog {defense:?}"), &job, &report.output);
    }

    let mut rng = StdRng::seed_from_u64(33);
    let mut config = base_config();
    config.message_len = atom::apps::PAPER_DIAL_LEN;
    let setup = derive_setup(&config).unwrap();
    let mailboxes = 8;
    let callers: Vec<_> = (0..3).map(|_| DialIdentity::generate(&mut rng)).collect();
    let callees: Vec<_> = (0..3).map(|_| DialIdentity::generate(&mut rng)).collect();
    let mut submissions: Vec<_> = callers
        .iter()
        .zip(&callees)
        .enumerate()
        .map(|(i, (caller, callee))| {
            let gid = i % config.num_groups;
            make_dial_submission(
                &setup,
                caller,
                &callee.keys.public,
                mailboxes,
                gid,
                &mut rng,
            )
            .unwrap()
        })
        .collect();
    submissions.extend(make_dummy_submissions(&setup, mailboxes, 4, &mut rng).unwrap());
    let job = RoundJob::new(setup, RoundSubmissions::Trap(submissions), 33);
    let report = engine.run_round(job.clone()).unwrap();
    let boxes = Mailboxes::from_round(&report.output, mailboxes);
    assert_eq!(boxes.total_requests(), 7, "three dials and four dummies");
    for (caller, callee) in callers.iter().zip(&callees) {
        assert!(
            boxes.check_mailbox(callee).contains(&caller.keys.public),
            "a dial missed its callee's mailbox"
        );
    }
    assert_matches_oracle("dialing", &job, &report.output);
}
