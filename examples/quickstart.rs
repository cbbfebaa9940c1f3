//! Quickstart: stand up a small Atom deployment in-process, send a handful of
//! anonymous messages through it with the trap-based defence on the engine's
//! worker pool, and print what the exit groups publish.
//!
//! Run with: `cargo run --release --example quickstart`

use rand::rngs::StdRng;
use rand::SeedableRng;

use atom::core::config::AtomConfig;
use atom::core::message::make_trap_submission;
use atom::derive_setup;
use atom::runtime::{Engine, RoundJob, RoundSubmissions};

fn main() {
    let mut rng = StdRng::seed_from_u64(1);

    // A laptop-sized deployment: 4 anytrust groups of 3 servers each,
    // 3 mixing iterations of the square network, 32-byte messages.
    let mut config = AtomConfig::test_default();
    config.message_len = 32;
    config.num_groups = 4;
    config.iterations = 3;
    println!(
        "setting up {} groups of {} servers ...",
        config.num_groups, config.group_size
    );
    let setup = derive_setup(&config).expect("round setup");

    // Eight users each submit one message to an entry group of their choice.
    let messages = [
        "meet at the fountain",
        "bring the documents",
        "the password is tulip",
        "stay off the main road",
        "call me on signal",
        "we publish tomorrow",
        "they are watching 5th st",
        "all clear tonight",
    ];
    let submissions: Vec<_> = messages
        .iter()
        .enumerate()
        .map(|(i, msg)| {
            let entry_group = i % config.num_groups;
            make_trap_submission(
                entry_group,
                &setup.groups[entry_group].public_key,
                &setup.trustees.public_key,
                config.round,
                msg.as_bytes(),
                config.message_len,
                &mut rng,
            )
            .expect("submission")
            .0
        })
        .collect();

    println!(
        "routing {} ciphertexts (messages + traps) ...",
        2 * submissions.len()
    );
    let job = RoundJob::new(setup, RoundSubmissions::Trap(submissions), 1);
    let output = Engine::with_workers(4)
        .run_round(job)
        .expect("round should complete")
        .output;

    println!(
        "\nanonymized output ({} messages):",
        output.plaintexts.len()
    );
    for (group, messages) in output.per_group.iter().enumerate() {
        for message in messages {
            let text: String = message
                .iter()
                .copied()
                .take_while(|&b| b != 0)
                .map(|b| b as char)
                .collect();
            println!("  [exit group {group}] {text}");
        }
    }
    println!(
        "\nend-to-end: {:.2?} compute across {} iterations",
        output.timings.total_compute,
        output.timings.iteration_critical_path.len()
    );
}
