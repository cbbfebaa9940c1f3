//! Fault tolerance (§4.5): a many-trust deployment keeps running when a
//! server fails mid-round, and recovers from a catastrophic multi-server
//! failure using buddy-group escrow.
//!
//! Run with: `cargo run --release --example fault_tolerance`

use rand::rngs::StdRng;
use rand::SeedableRng;

use atom::core::config::AtomConfig;
use atom::core::faults::{escrow_group_shares, recover_group};
use atom::core::message::make_trap_submission;
use atom::core::round::RoundDriver;
use atom::derive_setup;
use atom::topology::groups::{required_group_size, GroupSecurityParams};

fn main() {
    let mut rng = StdRng::seed_from_u64(3);

    // Production sizing from Appendix B: how large must groups be?
    for h in [1usize, 2, 4] {
        let k = required_group_size(&GroupSecurityParams::paper_defaults(h)).unwrap();
        println!("h = {h} honest servers required  ->  group size k = {k}");
    }

    // A scaled-down many-trust deployment: groups of 4 with threshold 3,
    // i.e. each group tolerates one failure without any recovery protocol.
    let mut config = AtomConfig::test_default();
    config.num_servers = 12;
    config.group_size = 4;
    config.required_honest = 2;
    config.num_groups = 3;
    config.iterations = 3;
    let setup = derive_setup(&config).expect("setup");

    // Escrow every group's shares with its buddy group before the round.
    let escrows: Vec<_> = setup
        .groups
        .iter()
        .map(|group| {
            let buddy = &setup.groups[setup.buddies[group.id][0]];
            escrow_group_shares(group, buddy, &mut rng).expect("escrow")
        })
        .collect();

    // One server dies mid-round: the round still completes.
    let failed_server = setup.groups[0].members[3];
    println!("\nserver {failed_server} fails; groups fall back to threshold participation");
    let driver = RoundDriver::new(setup).with_failures(vec![failed_server]);
    let submissions: Vec<_> = (0..6)
        .map(|i| {
            let gid = i % config.num_groups;
            make_trap_submission(
                gid,
                &driver.setup().groups[gid].public_key,
                &driver.setup().trustees.public_key,
                config.round,
                format!("message {i}").as_bytes(),
                config.message_len,
                &mut rng,
            )
            .unwrap()
            .0
        })
        .collect();
    let output = driver
        .run_trap_round(&submissions, &mut rng)
        .expect("round survives");
    println!(
        "round completed despite the failure: {} messages delivered",
        output.plaintexts.len()
    );

    // Catastrophe: group 0 loses two servers (more than it tolerates).
    let group = &driver.setup().groups[0];
    let dead = vec![group.members[0], group.members[1]];
    println!("\ngroup 0 loses servers {dead:?} (more than h-1 = 1)");
    assert!(group.participating(&dead).is_err());

    // Recovery: replacements fetch the escrowed shares from the buddy group.
    let recovered = recover_group(group, &escrows[0], &[(0, 900), (1, 901)]).expect("recovery");
    println!(
        "buddy-group recovery installed replacement servers {:?}; group key unchanged: {}",
        &recovered.members[..2],
        recovered.public_key == group.public_key
    );
    println!(
        "recovered group can participate again: {:?}",
        recovered.participating(&[]).is_ok()
    );
}
