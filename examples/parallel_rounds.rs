//! Parallel pipelined rounds: the `atom-runtime` engine running three
//! microblog rounds in flight at once on a worker pool, reporting each
//! round's barrier vs. pipelined latency.
//!
//! Run with: `cargo run --release --example parallel_rounds`

use atom::core::config::{AtomConfig, Defense};
use atom::core::message::make_trap_submission;
use atom::derive_setup;
use atom::runtime::{Engine, EngineOptions, RoundJob, RoundSubmissions};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn main() {
    let mut rng = StdRng::seed_from_u64(17);
    let rounds = 3;
    let posts_per_round = 6;

    let mut jobs = Vec::new();
    for round in 0..rounds {
        let mut config = AtomConfig::test_default();
        config.defense = Defense::Trap;
        config.num_groups = 4;
        config.iterations = 3;
        config.message_len = 48;
        config.round = round;
        let setup = derive_setup(&config).expect("setup");

        let submissions: Vec<_> = (0..posts_per_round)
            .map(|i| {
                let gid = i % config.num_groups;
                make_trap_submission(
                    gid,
                    &setup.groups[gid].public_key,
                    &setup.trustees.public_key,
                    config.round,
                    format!("round {round}, post {i}").as_bytes(),
                    config.message_len,
                    &mut rng,
                )
                .expect("submission")
                .0
            })
            .collect();
        jobs.push(RoundJob::new(
            setup,
            RoundSubmissions::Trap(submissions),
            round,
        ));
    }

    let engine = Engine::new(EngineOptions::with_workers(4));

    println!("running {rounds} trap rounds in flight on 4 workers...\n");
    let reports = engine.run_rounds(jobs);

    for (round, report) in reports.into_iter().enumerate() {
        let report = report.expect("round must succeed");
        println!(
            "round {round}: {} posts delivered | {} mix messages, {} bytes on the wire",
            report.output.plaintexts.len(),
            report.mix_messages,
            report.mix_bytes,
        );
        println!(
            "         barrier latency {:>9.2?} | pipelined latency {:>9.2?}",
            report.output.timings.end_to_end(),
            report.pipelined_latency,
        );
        for plaintext in report.output.plaintexts.iter().take(2) {
            let text: Vec<u8> = plaintext.iter().copied().take_while(|&b| b != 0).collect();
            println!("         e.g. {:?}", String::from_utf8_lossy(&text));
        }
    }
}
