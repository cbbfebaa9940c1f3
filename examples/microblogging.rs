//! Anonymous microblogging (§5 of the paper): users post tweet-length
//! messages, the exit groups publish them on a bulletin board, and nobody —
//! including a global eavesdropper colluding with most servers — can tell who
//! posted what.
//!
//! Run with: `cargo run --release --example microblogging`

use rand::rngs::StdRng;
use rand::SeedableRng;

use atom::apps::microblog::run_microblog_round;
use atom::core::config::AtomConfig;
use atom::core::latency::LatencyModel;
use atom::core::round::RoundDriver;
use atom::derive_setup;

fn main() {
    let mut rng = StdRng::seed_from_u64(42);

    // 160-byte posts like the paper's evaluation, 4 groups of 3 servers,
    // with the paper's 40-160 ms WAN latency model charged to the network
    // critical path.
    let mut config = AtomConfig::test_default();
    config.message_len = 160;
    config.num_groups = 4;
    config.iterations = 4;
    let setup = derive_setup(&config).expect("setup");
    let driver = RoundDriver::new(setup).with_latency(LatencyModel::paper_wan(7));

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
    let (board, output) = run_microblog_round(&driver, &posts, &mut rng).expect("round");

    println!("\n--- bulletin board ({} posts) ---", board.len());
    for post in &board.posts {
        println!("[exit group {}] {}", post.published_by, post.text);
    }

    println!(
        "\nsearch for \"publish\": {} hit(s)",
        board.search("publish").len()
    );
    println!(
        "round stats: {} ciphertexts routed, compute {:.2?}, network (simulated) {:.2?}",
        output.routed_ciphertexts,
        output.timings.total_compute,
        output.timings.network_critical_path
    );
}
