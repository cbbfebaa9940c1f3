//! Scenario-harness integration tests: diverse workloads through the
//! parallel engine.

use std::time::Duration;

use atom_core::config::Defense;
use atom_runtime::scenarios::{self, ScenarioOptions};

fn options(seed: u64) -> ScenarioOptions {
    ScenarioOptions { workers: 3, seed }
}

#[test]
fn microblog_rounds_pipeline_and_deliver() {
    let report = scenarios::microblog(3, 4, 3, &options(11)).unwrap();
    assert_eq!(report.rounds, 3);
    assert_eq!(report.submitted, 12);
    assert_eq!(report.delivered, 12);
    assert!(report.mix_messages > 0);
}

#[test]
fn dialing_requests_reach_their_mailboxes() {
    let report = scenarios::dialing(2, 4, &options(13)).unwrap();
    assert_eq!(report.rounds, 1);
    assert_eq!(report.delivered, 4);
}

#[test]
fn server_churn_mid_round_is_survivable() {
    let report = scenarios::server_churn(2, 4, &options(17)).unwrap();
    assert_eq!(report.delivered, 4);
}

#[test]
fn straggler_groups_do_not_stall_the_round() {
    // The drips are wall time, which the compute-only virtual clock never
    // sees: the scenario itself fails unless the round's wall clock holds
    // both 25 ms steps of the straggler.
    let report = scenarios::stragglers(3, 4, Duration::from_millis(25), &options(19)).unwrap();
    assert_eq!(report.delivered, 4);
}

#[test]
fn chunked_intake_matches_single_task_and_sequential_outputs() {
    let report = scenarios::batched_intake(3, 6, &options(29)).unwrap();
    assert_eq!(report.delivered, 6);
}

#[test]
fn tcp_loopback_matches_the_in_memory_run_byte_for_byte() {
    let report = scenarios::tcp_loopback(3, 4, 2, &options(31)).unwrap();
    assert_eq!(report.rounds, 2);
    assert_eq!(report.submitted, 8);
    assert_eq!(report.delivered, 8);
    assert!(report.mix_messages > 0);
}

#[test]
fn sharded_loopback_matches_the_monolithic_derivation_byte_for_byte() {
    let report = scenarios::sharded_loopback(3, 4, 2, &options(37)).unwrap();
    assert_eq!(report.rounds, 2);
    assert_eq!(report.submitted, 8);
    assert_eq!(report.delivered, 8);
    assert!(report.mix_messages > 0);
}

#[test]
fn submission_flood_fails_closed_and_control_traffic_flows() {
    let report = scenarios::submission_flood(3, 5_000, 6, &options(41)).unwrap();
    assert_eq!(report.scenario, "submission_flood");
    assert!(
        report.verdict.contains("submission flood"),
        "{}",
        report.verdict
    );
    assert_eq!(report.delivered, 6);
    // Liveness floor: the capped engine still clears legitimate traffic at
    // a usable rate (a deliberately conservative bar for loaded CI hosts).
    assert!(
        report.msgs_per_sec() >= 1.0,
        "control throughput collapsed: {:.2} msg/s",
        report.msgs_per_sec()
    );
}

#[test]
fn slow_loris_member_is_convicted_as_slow() {
    let report = scenarios::slow_loris(
        3,
        4,
        Duration::from_millis(600),
        Duration::from_millis(150),
        &options(43),
    )
    .unwrap();
    assert_eq!(report.scenario, "slow_loris");
    assert!(report.verdict.contains("deadline"), "{}", report.verdict);
    assert_eq!(report.delivered, 4);
    assert!(report.msgs_per_sec() >= 1.0);
}

#[test]
fn equivocating_setup_frames_kill_the_round() {
    let report = scenarios::equivocating_setup(3, 4, &options(47)).unwrap();
    assert_eq!(report.scenario, "equivocating_setup");
    assert!(
        report
            .verdict
            .contains("conflicting setup frames for group 1"),
        "{}",
        report.verdict
    );
    assert_eq!(report.delivered, 4);
    assert!(report.msgs_per_sec() >= 1.0);
}

#[test]
fn mauled_reencryption_is_blamed_on_its_member_or_trips_the_trap_check() {
    let nizk = scenarios::mauled_reencryption(3, 6, Defense::Nizk, &options(53)).unwrap();
    assert_eq!(nizk.scenario, "mauled_reencryption");
    assert!(
        nizk.verdict.contains("re-encryption proof rejected")
            && nizk.verdict.contains("group 0 by member 2"),
        "{}",
        nizk.verdict
    );
    assert_eq!(nizk.delivered, 6);

    let trap = scenarios::mauled_reencryption(3, 6, Defense::Trap, &options(53)).unwrap();
    assert!(trap.verdict.contains("trap"), "{}", trap.verdict);
    assert!(!trap.verdict.contains("proof rejected"), "{}", trap.verdict);
    assert_eq!(trap.delivered, 6);
}

#[test]
fn both_defense_variants_deliver_the_same_workload() {
    let (nizk, trap) = scenarios::defense_matrix(2, 3, &options(23)).unwrap();
    assert_eq!(nizk.delivered, 3);
    assert_eq!(trap.delivered, 3);
    // The trap variant routes two ciphertexts per message.
    assert!(trap.mix_bytes > nizk.mix_bytes / 2);
}
