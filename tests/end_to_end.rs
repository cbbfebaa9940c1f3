//! Cross-crate integration tests: full Atom rounds spanning the crypto,
//! topology, core and application layers.

use rand::rngs::StdRng;
use rand::SeedableRng;

use atom::apps::microblog::run_microblog_round;
use atom::core::config::{AtomConfig, Defense, TopologyKind};
use atom::core::latency::LatencyModel;
use atom::core::message::make_trap_submission;
use atom::core::round::RoundDriver;
use atom::derive_setup;

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

#[test]
fn microblogging_app_works_over_both_defenses_and_topologies() {
    for defense in [Defense::Trap, Defense::Nizk] {
        for topology in [TopologyKind::Square, TopologyKind::Butterfly] {
            let mut rng = StdRng::seed_from_u64(7);
            let mut config = base_config();
            config.defense = defense;
            config.topology = topology;
            let setup = derive_setup(&config).unwrap();
            let driver = RoundDriver::new(setup);
            let posts = [
                "post one",
                "post two",
                "post three",
                "post four",
                "post five",
            ];
            let (board, _) = run_microblog_round(&driver, &posts, &mut rng).unwrap();
            assert_eq!(board.len(), posts.len(), "{defense:?}/{topology:?}");
            let mut texts: Vec<&str> = board.posts.iter().map(|p| p.text.as_str()).collect();
            texts.sort_unstable();
            let mut expected = posts.to_vec();
            expected.sort_unstable();
            assert_eq!(texts, expected);
        }
    }
}

#[test]
fn latency_model_contributes_to_end_to_end_estimate() {
    let mut rng = StdRng::seed_from_u64(9);
    let config = base_config();
    let setup = derive_setup(&config).unwrap();
    let driver = RoundDriver::new(setup).with_latency(LatencyModel::paper_wan(3));
    let submissions: Vec<_> = (0..4)
        .map(|i| {
            let gid = i % config.num_groups;
            make_trap_submission(
                gid,
                &driver.setup().groups[gid].public_key,
                &driver.setup().trustees.public_key,
                config.round,
                b"latency test",
                config.message_len,
                &mut rng,
            )
            .unwrap()
            .0
        })
        .collect();
    let output = driver.run_trap_round(&submissions, &mut rng).unwrap();
    // Two non-exit iterations of 40-160 ms hops each.
    let network = output.timings.network_critical_path;
    assert!(
        network >= std::time::Duration::from_millis(80),
        "{network:?}"
    );
    assert!(output.timings.end_to_end() > network);
}

#[test]
fn parallel_round_matches_sequential_results() {
    let mut rng = StdRng::seed_from_u64(11);
    let config = base_config();
    let setup = derive_setup(&config).unwrap();
    let driver = RoundDriver::new(setup).with_parallelism(4);
    let submissions: Vec<_> = (0..8)
        .map(|i| {
            let gid = i % config.num_groups;
            make_trap_submission(
                gid,
                &driver.setup().groups[gid].public_key,
                &driver.setup().trustees.public_key,
                config.round,
                format!("parallel {i}").as_bytes(),
                config.message_len,
                &mut rng,
            )
            .unwrap()
            .0
        })
        .collect();
    let output = driver.run_trap_round(&submissions, &mut rng).unwrap();
    assert_eq!(output.plaintexts.len(), 8);
}
