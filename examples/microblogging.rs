//! Anonymous microblogging (§5 of the paper): users post tweet-length
//! messages, the exit groups publish them on a bulletin board, and nobody —
//! including a global eavesdropper colluding with most servers — can tell who
//! posted what.
//!
//! Run with: `cargo run --release --example microblogging`

use rand::rngs::StdRng;
use rand::SeedableRng;

use atom::apps::microblog::{prepare_posts, BulletinBoard};
use atom::core::config::AtomConfig;
use atom::derive_setup;
use atom::runtime::{Engine, RoundJob, RoundSubmissions};

fn main() {
    let mut rng = StdRng::seed_from_u64(42);

    // 160-byte posts like the paper's evaluation, 4 groups of 3 servers.
    let mut config = AtomConfig::test_default();
    config.message_len = 160;
    config.num_groups = 4;
    config.iterations = 4;
    let setup = derive_setup(&config).expect("setup");

    let posts = [
        "Protest at the central square, noon tomorrow. Bring water and friends.",
        "The ministry's internal memo contradicts yesterday's press release.",
        "Checkpoint moved to the river bridge; avoid the east entrance.",
        "Donations for legal aid accepted at the usual place.",
        "Live thread: counting irregularities at polling station 14.",
        "They cut the fiber on Elm street, use the mesh relay.",
        "Tomorrow we publish the full document set. Mirror everything.",
        "Medics needed near the old theatre after 18:00.",
    ];

    println!("submitting {} posts through Atom ...", posts.len());
    let batch = prepare_posts(&setup, &posts, &mut rng).expect("posts fit");
    let job = RoundJob::new(setup, RoundSubmissions::Trap(batch.trap), 42);
    let output = Engine::with_workers(4)
        .run_round(job)
        .expect("round")
        .output;
    let board = BulletinBoard::publish(&output);

    println!("\n--- bulletin board ({} posts) ---", board.len());
    for post in &board.posts {
        println!("[exit group {}] {}", post.published_by, post.text);
    }

    println!(
        "\nsearch for \"publish\": {} hit(s)",
        board.search("publish").len()
    );
    println!(
        "round stats: {} ciphertexts routed, compute {:.2?}, wall clock {:.2?}",
        output.routed_ciphertexts, output.timings.total_compute, output.timings.wall_clock
    );
}
