//! Dialing (§5 of the paper): Alice and Carol anonymously "dial" Bob to
//! bootstrap a private conversation, Vuvuzela/Alpenhorn-style, with
//! differentially-private dummy calls hiding how many calls each mailbox
//! receives.
//!
//! Run with: `cargo run --release --example dialing`

use rand::rngs::StdRng;
use rand::SeedableRng;

use atom::apps::dialing::{
    dummy_count, make_dial_submission, make_dummy_submissions, DialIdentity, Mailboxes,
    PAPER_DIAL_LEN,
};
use atom::core::config::AtomConfig;
use atom::core::round::RoundDriver;
use atom::derive_setup;

fn main() {
    let mut rng = StdRng::seed_from_u64(2026);

    let mut config = AtomConfig::test_default();
    config.message_len = PAPER_DIAL_LEN;
    config.num_groups = 4;
    config.iterations = 3;
    let setup = derive_setup(&config).expect("setup");
    let driver = RoundDriver::new(setup);

    let mailboxes = 16;
    let alice = DialIdentity::generate(&mut rng);
    let carol = DialIdentity::generate(&mut rng);
    let bob = DialIdentity::generate(&mut rng);
    println!("Bob listens on mailbox {}", bob.mailbox(mailboxes));

    // Real dial requests.
    let mut submissions = vec![
        make_dial_submission(&driver, &alice, &bob.keys.public, mailboxes, 0, &mut rng)
            .expect("alice dials bob"),
        make_dial_submission(&driver, &carol, &bob.keys.public, mailboxes, 2, &mut rng)
            .expect("carol dials bob"),
        make_dial_submission(&driver, &bob, &alice.keys.public, mailboxes, 1, &mut rng)
            .expect("bob dials alice back"),
    ];

    // Differentially-private cover traffic added by an anytrust group
    // (the paper uses mu = 13,000 per trustee; scaled down here).
    let dummies = dummy_count(6.0, 2.0, &mut rng);
    println!("adding {dummies} dummy dial requests for cover");
    submissions
        .extend(make_dummy_submissions(&driver, mailboxes, dummies, &mut rng).expect("dummies"));

    let output = driver
        .run_trap_round(&submissions, &mut rng)
        .expect("round");
    let boxes = Mailboxes::from_round(&output, mailboxes);
    println!(
        "round complete: {} requests distributed over {} mailboxes",
        boxes.total_requests(),
        mailboxes
    );

    let callers = boxes.check_mailbox(&bob);
    println!(
        "Bob downloads his mailbox and recognizes {} caller(s):",
        callers.len()
    );
    for caller in &callers {
        let who = if *caller == alice.keys.public {
            "Alice"
        } else if *caller == carol.keys.public {
            "Carol"
        } else {
            "unknown"
        };
        println!("  - {who}");
    }
    let alices = boxes.check_mailbox(&alice);
    println!(
        "Alice recognizes {} caller(s) (Bob dialing back)",
        alices.len()
    );
}
