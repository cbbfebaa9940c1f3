//! Determinism and equivalence suite: for identical seeds, the parallel
//! runtime and the sequential `RoundDriver` must produce identical
//! `RoundOutput` plaintexts (byte-for-byte, including grouping) and
//! identical trap/NIZK verdicts — with and without an active adversary.

use atom::core::adversary::{AdversaryPlan, Misbehavior};
use atom::core::config::{AtomConfig, Defense};
use atom::core::error::AtomError;
use atom::core::message::{make_nizk_submission, make_trap_submission};
use atom::core::round::RoundDriver;
use atom::derive_setup;
use atom::runtime::{Engine, EngineOptions, RoundJob, RoundSubmissions};
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

fn trap_fixture(
    adversary: Option<AdversaryPlan>,
) -> (RoundDriver, Vec<atom::core::message::TrapSubmission>) {
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
                format!("equiv {i}").as_bytes(),
                setup.config.message_len,
                &mut rng,
            )
            .unwrap()
            .0
        })
        .collect();
    let mut driver = RoundDriver::new(setup);
    if let Some(plan) = adversary {
        driver = driver.with_adversary(plan);
    }
    (driver, submissions)
}

fn nizk_fixture(
    adversary: Option<AdversaryPlan>,
) -> (RoundDriver, Vec<atom::core::message::NizkSubmission>) {
    let mut rng = StdRng::seed_from_u64(43);
    let setup = derive_setup(&config(Defense::Nizk)).unwrap();
    let submissions: Vec<_> = (0..6)
        .map(|i| {
            let gid = i % setup.config.num_groups;
            make_nizk_submission(
                gid,
                &setup.groups[gid].public_key,
                format!("equiv {i}").as_bytes(),
                setup.config.message_len,
                &mut rng,
            )
            .unwrap()
            .0
        })
        .collect();
    let mut driver = RoundDriver::new(setup);
    if let Some(plan) = adversary {
        driver = driver.with_adversary(plan);
    }
    (driver, submissions)
}

#[test]
fn trap_round_outputs_are_byte_identical() {
    let (driver, submissions) = trap_fixture(None);
    let sequential = driver
        .run_trap_round(&submissions, &mut StdRng::seed_from_u64(SEED))
        .unwrap();

    for workers in [1, 4] {
        let engine = Engine::with_workers(workers);
        let mut job = RoundJob::new(
            driver.setup().clone(),
            RoundSubmissions::Trap(submissions.clone()),
            SEED,
        );
        job.adversary = None;
        let report = engine.run_round(job).unwrap();
        assert_eq!(
            report.output.plaintexts, sequential.plaintexts,
            "plaintext bytes must match at {workers} workers"
        );
        assert_eq!(report.output.per_group, sequential.per_group);
        assert_eq!(
            report.output.routed_ciphertexts,
            sequential.routed_ciphertexts
        );
    }
}

#[test]
fn nizk_round_outputs_are_byte_identical() {
    let (driver, submissions) = nizk_fixture(None);
    let sequential = driver
        .run_nizk_round(&submissions, &mut StdRng::seed_from_u64(SEED))
        .unwrap();

    // `intake_chunk` only moves where proof verification runs: one intake
    // task per submission, one for the whole round and the default split
    // (0) all say the same.
    for (workers, intake_chunk) in [(1, 0), (4, 0), (3, 1), (3, usize::MAX)] {
        let mut options = EngineOptions::with_workers(workers);
        options.intake_chunk = intake_chunk;
        let report = Engine::new(options)
            .run_round(RoundJob::new(
                driver.setup().clone(),
                RoundSubmissions::Nizk(submissions.clone()),
                SEED,
            ))
            .unwrap();
        assert_eq!(report.output.plaintexts, sequential.plaintexts);
        assert_eq!(report.output.per_group, sequential.per_group);
        assert_eq!(
            report.output.routed_ciphertexts,
            sequential.routed_ciphertexts
        );
    }
}

#[test]
fn parallel_runs_are_reproducible_across_schedules() {
    let (driver, submissions) = trap_fixture(None);
    let mut baseline = None;
    for workers in [1, 2, 8] {
        let report = Engine::with_workers(workers)
            .run_round(RoundJob::new(
                driver.setup().clone(),
                RoundSubmissions::Trap(submissions.clone()),
                SEED,
            ))
            .unwrap();
        match &baseline {
            None => baseline = Some(report.output.plaintexts),
            Some(expected) => assert_eq!(
                &report.output.plaintexts, expected,
                "scheduling must not influence output bytes"
            ),
        }
    }
}

#[test]
fn different_seeds_change_ciphertexts_not_delivery() {
    let (driver, submissions) = trap_fixture(None);
    let a = Engine::with_workers(2)
        .run_round(RoundJob::new(
            driver.setup().clone(),
            RoundSubmissions::Trap(submissions.clone()),
            SEED,
        ))
        .unwrap();
    let b = Engine::with_workers(2)
        .run_round(RoundJob::new(
            driver.setup().clone(),
            RoundSubmissions::Trap(submissions),
            SEED + 1,
        ))
        .unwrap();
    let sort = |mut v: Vec<Vec<u8>>| {
        v.sort();
        v
    };
    // Same delivered set, different permutation/randomness path is allowed.
    assert_eq!(sort(a.output.plaintexts), sort(b.output.plaintexts));
}

#[test]
fn trap_adversary_verdict_matches_sequential_driver() {
    let plan = AdversaryPlan {
        group: 1,
        member: 1,
        iteration: 1,
        action: Misbehavior::DropMessage { slot: 0 },
    };
    let (driver, submissions) = trap_fixture(Some(plan));
    let sequential = driver.run_trap_round(&submissions, &mut StdRng::seed_from_u64(SEED));
    assert!(matches!(sequential, Err(AtomError::TrapCheckFailed(_))));

    let mut job = RoundJob::new(
        driver.setup().clone(),
        RoundSubmissions::Trap(submissions),
        SEED,
    );
    job.adversary = Some(plan);
    let parallel = Engine::with_workers(4).run_round(job);
    assert!(
        matches!(parallel, Err(AtomError::TrapCheckFailed(_))),
        "parallel verdict diverged: {parallel:?}"
    );
}

#[test]
fn nizk_adversary_verdict_matches_sequential_driver() {
    let plan = AdversaryPlan {
        group: 2,
        member: 2,
        iteration: 1,
        action: Misbehavior::ReplaceMessage { slot: 0 },
    };
    let (driver, submissions) = nizk_fixture(Some(plan));
    let sequential = driver.run_nizk_round(&submissions, &mut StdRng::seed_from_u64(SEED));
    let Err(AtomError::ProtocolViolation {
        group: seq_group,
        member: seq_member,
        ..
    }) = sequential
    else {
        panic!("sequential driver must detect the violation");
    };

    let mut job = RoundJob::new(
        driver.setup().clone(),
        RoundSubmissions::Nizk(submissions),
        SEED,
    );
    job.adversary = Some(plan);
    let parallel = Engine::with_workers(4).run_round(job);
    let Err(AtomError::ProtocolViolation { group, member, .. }) = parallel else {
        panic!("parallel engine must detect the violation: {parallel:?}");
    };
    assert_eq!(group, seq_group);
    assert_eq!(member, seq_member);
}

#[test]
fn butterfly_topology_is_equivalent_too() {
    let mut rng = StdRng::seed_from_u64(44);
    let mut config = config(Defense::Trap);
    config.num_groups = 4;
    config.topology = atom::core::config::TopologyKind::Butterfly;
    let setup = derive_setup(&config).unwrap();
    let submissions: Vec<_> = (0..4)
        .map(|i| {
            let gid = i % config.num_groups;
            make_trap_submission(
                gid,
                &setup.groups[gid].public_key,
                &setup.trustees.public_key,
                config.round,
                format!("bfly {i}").as_bytes(),
                config.message_len,
                &mut rng,
            )
            .unwrap()
            .0
        })
        .collect();
    let driver = RoundDriver::new(setup);
    let sequential = driver
        .run_trap_round(&submissions, &mut StdRng::seed_from_u64(SEED))
        .unwrap();
    let report = Engine::with_workers(3)
        .run_round(RoundJob::new(
            driver.setup().clone(),
            RoundSubmissions::Trap(submissions),
            SEED,
        ))
        .unwrap();
    assert_eq!(report.output.plaintexts, sequential.plaintexts);
    assert_eq!(report.output.per_group, sequential.per_group);
}
