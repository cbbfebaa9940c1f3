//! TCP loopback equivalence: the same rounds executed (a) in-process over
//! `InMemoryNetwork` and (b) split across two engine instances talking
//! `TcpTransport` must produce byte-identical `RoundOutput`s — the same
//! guarantee the PR-1/PR-2 suites established for pipelining and chunked
//! intake, now across a real socket. Runs both "processes" as threads of
//! one test process; the `atom-bench` suite covers the ≥2-OS-process case
//! with the `atom-node` binary.

use std::time::Duration;

use rand::rngs::StdRng;
use rand::SeedableRng;

use atom_core::adversary::{AdversaryPlan, Misbehavior};
use atom_core::config::{AtomConfig, Defense};
use atom_core::directory::derive_setup;
use atom_core::error::AtomError;
use atom_core::message::{make_nizk_submission, make_trap_submission};
use atom_net::{TcpOptions, TcpTransport};
use atom_runtime::{Engine, EngineRole, RoundJob, RoundSubmissions, SETUP_LABEL};

const GROUPS: usize = 3;

fn trap_jobs(rounds: usize, seed: u64) -> Vec<RoundJob> {
    let mut rng = StdRng::seed_from_u64(404);
    (0..rounds)
        .map(|round| {
            let mut config = AtomConfig::test_default();
            config.num_groups = GROUPS;
            config.iterations = 2;
            config.message_len = 24;
            config.round = round as u64;
            let setup = derive_setup(&config).unwrap();
            let submissions: Vec<_> = (0..5)
                .map(|i| {
                    let gid = i % GROUPS;
                    make_trap_submission(
                        gid,
                        &setup.groups[gid].public_key,
                        &setup.trustees.public_key,
                        config.round,
                        format!("tcp r{round} m{i}").as_bytes(),
                        config.message_len,
                        &mut rng,
                    )
                    .unwrap()
                    .0
                })
                .collect();
            RoundJob::new(
                setup,
                RoundSubmissions::Trap(submissions),
                seed + round as u64,
            )
        })
        .collect()
}

/// Sends, over `net`, the `setup` frames of groups 1 and 2 of `config`'s
/// round 0 to the coordinator's group-0 mailbox, as member process 1 does
/// before its groups mix.
fn send_member_setup_frames(net: &TcpTransport, config: &AtomConfig) {
    use atom_net::Transport;
    use atom_runtime::wire::{self, SetupFrame};
    let setup = derive_setup(config).unwrap();
    for gid in [1, 2] {
        let group = &setup.groups[gid];
        let frame = wire::encode_setup(&SetupFrame {
            round: 0,
            gid,
            members: group.members.clone(),
            threshold: group.threshold,
            public_key: group.public_key,
        });
        Transport::send(net, gid, 0, SETUP_LABEL.into(), frame).unwrap();
    }
}

/// Two `TcpTransport`s on loopback: process 0 is the coordinator hosting
/// group 0 (and the orchestrator node), process 1 hosts groups 1 and 2.
/// Listeners bind port 0 and exchange resolved addresses, so concurrent
/// tests cannot race on ports.
fn tcp_pair() -> (TcpTransport, TcpTransport) {
    // Nodes: group 0 → process 0, groups 1,2 → process 1, orchestrator →
    // process 0.
    let owner = vec![0, 1, 1, 0];
    let coordinator = TcpTransport::bind_any(2, owner.clone(), 0, TcpOptions::default()).unwrap();
    let member = TcpTransport::bind_any(2, owner, 1, TcpOptions::default()).unwrap();
    coordinator.set_peer_addr(1, member.local_addr().to_string());
    member.set_peer_addr(0, coordinator.local_addr().to_string());
    coordinator.connect_peers().unwrap();
    member.connect_peers().unwrap();
    (coordinator, member)
}

#[test]
fn tcp_split_round_output_is_byte_identical_to_in_memory() {
    let jobs = trap_jobs(2, 9100);

    let in_memory = Engine::with_workers(3).run_rounds(jobs.clone());

    let (coordinator_net, member_net) = tcp_pair();
    let member_jobs = jobs.clone();
    let member_thread = std::thread::spawn(move || {
        Engine::with_workers(2).run_rounds_on(
            member_jobs,
            &member_net,
            &EngineRole::member(vec![1, 2]),
        )
    });
    let tcp = Engine::with_workers(2).run_rounds_on(
        jobs,
        &coordinator_net,
        &EngineRole::coordinator(vec![0]),
    );
    let member_reports = member_thread.join().unwrap();

    assert_eq!(tcp.len(), 2);
    assert_eq!(tcp.len(), in_memory.len());
    for (round, (tcp_report, mem_report)) in tcp.iter().zip(&in_memory).enumerate() {
        let tcp_report = tcp_report.as_ref().unwrap();
        let mem_report = mem_report.as_ref().unwrap();
        assert_eq!(
            tcp_report.output.plaintexts.len(),
            5,
            "round {round} delivers all"
        );
        assert!(tcp_report.mix_messages > 0, "round {round} mixed over tcp");
        assert_eq!(
            tcp_report.output.plaintexts, mem_report.output.plaintexts,
            "round {round} plaintexts diverge"
        );
        assert_eq!(
            tcp_report.output.per_group, mem_report.output.per_group,
            "round {round} per-group outputs diverge"
        );
        assert_eq!(
            tcp_report.output.routed_ciphertexts, mem_report.output.routed_ciphertexts,
            "round {round} routed counts diverge"
        );
        // Whole-round traffic accounting also matches: the exit frames
        // carry each group's counters back to the coordinator.
        assert_eq!(tcp_report.mix_messages, mem_report.mix_messages);
        assert_eq!(tcp_report.mix_bytes, mem_report.mix_bytes);
    }
    for report in member_reports {
        let report = report.unwrap();
        assert!(report.output.plaintexts.is_empty(), "stub must be empty");
        assert!(report.mix_messages > 0, "member forwarded sub-batches");
    }
}

/// `rounds` rounds three ways: prebuilt from `derive_setup`, and sharded
/// for the coordinator (with the submissions) and for the member (with an
/// **empty** vector: members never run intake).
fn sharded_jobs(rounds: u64) -> (Vec<RoundJob>, Vec<RoundJob>, Vec<RoundJob>) {
    let mut rng = StdRng::seed_from_u64(808);
    let mut full_jobs = Vec::new();
    let mut coordinator_jobs = Vec::new();
    let mut member_jobs = Vec::new();
    for round in 0..rounds {
        let mut config = AtomConfig::test_default();
        config.num_groups = GROUPS;
        config.iterations = 2;
        config.message_len = 24;
        config.round = round;
        config.beacon_seed = 0x5AAD ^ round;
        let setup = derive_setup(&config).unwrap();
        let submissions: Vec<_> = (0..5)
            .map(|i| {
                let gid = i % GROUPS;
                make_trap_submission(
                    gid,
                    &setup.groups[gid].public_key,
                    &setup.trustees.public_key,
                    config.round,
                    format!("shard r{round} m{i}").as_bytes(),
                    config.message_len,
                    &mut rng,
                )
                .unwrap()
                .0
            })
            .collect();
        let seed = 7070 + round;
        full_jobs.push(RoundJob::new(
            setup,
            RoundSubmissions::Trap(submissions.clone()),
            seed,
        ));
        coordinator_jobs.push(RoundJob::sharded(
            config.clone(),
            RoundSubmissions::Trap(submissions),
            seed,
        ));
        member_jobs.push(RoundJob::sharded(
            config,
            RoundSubmissions::Trap(Vec::new()),
            seed,
        ));
    }
    (full_jobs, coordinator_jobs, member_jobs)
}

/// Sharded directories across OS-thread "processes": the coordinator's jobs
/// carry the submissions, the member's carry none, and each side derives
/// only its hosted groups' DKGs. The coordinator's outputs must match an
/// in-memory run whose directory was derived monolithically via
/// `derive_setup` — byte for byte.
#[test]
fn sharded_tcp_split_matches_the_monolithic_derivation() {
    let (full_jobs, coordinator_jobs, member_jobs) = sharded_jobs(2);
    let in_memory = Engine::with_workers(3).run_rounds(full_jobs);

    let (coordinator_net, member_net) = tcp_pair();
    let member_thread = std::thread::spawn(move || {
        Engine::with_workers(2).run_rounds_on(
            member_jobs,
            &member_net,
            &EngineRole::member(vec![1, 2]),
        )
    });
    let tcp = Engine::with_workers(2).run_rounds_on(
        coordinator_jobs,
        &coordinator_net,
        &EngineRole::coordinator(vec![0]),
    );
    let member_reports = member_thread.join().unwrap();

    assert_eq!(tcp.len(), 2);
    assert_eq!(tcp.len(), in_memory.len());
    for (round, (tcp_report, mem_report)) in tcp.iter().zip(&in_memory).enumerate() {
        let tcp_report = tcp_report.as_ref().unwrap();
        let mem_report = mem_report.as_ref().unwrap();
        assert_eq!(
            tcp_report.output.plaintexts.len(),
            5,
            "round {round} delivers all"
        );
        assert!(tcp_report.mix_messages > 0, "round {round} mixed over tcp");
        assert_eq!(
            tcp_report.output.plaintexts, mem_report.output.plaintexts,
            "round {round} plaintexts diverge"
        );
        assert_eq!(
            tcp_report.output.per_group, mem_report.output.per_group,
            "round {round} per-group outputs diverge"
        );
        assert_eq!(
            tcp_report.output.routed_ciphertexts, mem_report.output.routed_ciphertexts,
            "round {round} routed counts diverge"
        );
        assert_eq!(tcp_report.mix_messages, mem_report.mix_messages);
        assert_eq!(tcp_report.mix_bytes, mem_report.mix_bytes);
        assert!(
            tcp_report.setup_latency > Duration::ZERO,
            "sharded round {round} must report its directory cost"
        );
    }
    for report in member_reports {
        let report = report.unwrap();
        assert!(report.output.plaintexts.is_empty(), "stub must be empty");
        assert!(report.mix_messages > 0, "member forwarded sub-batches");
        assert!(report.setup_latency > Duration::ZERO);
    }
}

/// A hostile peer's setup frame claiming a membership or threshold that
/// contradicts the beacon derivation must fail the round, not silently
/// seed the directory — everything in the frame except the DKG public key
/// is locally recomputable, and the engine checks it.
#[test]
fn forged_setup_frame_membership_fails_the_round() {
    use atom_net::Transport;
    use atom_runtime::{wire, EngineOptions, SETUP_LABEL};

    let mut config = AtomConfig::test_default();
    config.num_groups = GROUPS;
    config.iterations = 2;
    config.message_len = 24;
    let job = RoundJob::sharded(config, RoundSubmissions::Trap(Vec::new()), 11);

    let (coordinator_net, member_net) = tcp_pair();
    // Instead of running an engine, the "member" forges group 1's directory
    // entry with a membership of its choosing.
    let forged = wire::SetupFrame {
        round: 0,
        gid: 1,
        members: vec![0, 1, 2], // not the beacon-derived assignment
        threshold: 3,
        public_key: atom_crypto::elgamal::KeyPair::generate(&mut rng_for(1)).public,
    };
    member_net
        .send(1, 0, SETUP_LABEL.into(), wire::encode_setup(&forged))
        .unwrap();

    let mut options = EngineOptions::with_workers(2);
    options.stall_timeout = Duration::from_secs(10);
    let err = Engine::new(options)
        .run_rounds_on(
            vec![job],
            &coordinator_net,
            &EngineRole::coordinator(vec![0]),
        )
        .pop()
        .unwrap()
        .unwrap_err();
    let reason = format!("{err:?}");
    assert!(
        reason.contains("membership") || reason.contains("threshold"),
        "want a directory-validation error, got {reason}"
    );
    coordinator_net.shutdown();
}

/// A peer streaming mix frames while withholding its setup frames must hit
/// the pre-ready buffer cap and fail the round instead of growing memory
/// without bound.
#[test]
fn mix_flood_before_setup_completion_fails_the_round() {
    use atom_net::Transport;
    use atom_runtime::{wire, EngineOptions, MIX_LABEL};

    let mut config = AtomConfig::test_default();
    config.num_groups = GROUPS;
    config.iterations = 2;
    config.message_len = 24;
    let job = RoundJob::sharded(config, RoundSubmissions::Trap(Vec::new()), 13);

    // Cap for 3 groups x 2 iterations: 3 * (1 + 3*2) = 21. Flood past it.
    let (coordinator_net, member_net) = tcp_pair();
    let payload = wire::encode_mix(0, 1, 1, Duration::ZERO, &[]);
    for _ in 0..64 {
        member_net
            .send(1, 0, MIX_LABEL.into(), payload.clone())
            .unwrap();
    }

    let mut options = EngineOptions::with_workers(2);
    options.stall_timeout = Duration::from_secs(10);
    let err = Engine::new(options)
        .run_rounds_on(
            vec![job],
            &coordinator_net,
            &EngineRole::coordinator(vec![0]),
        )
        .pop()
        .unwrap()
        .unwrap_err();
    assert!(
        format!("{err:?}").contains("buffered"),
        "want the buffer-cap error, got {err:?}"
    );
    coordinator_net.shutdown();
}

fn rng_for(seed: u64) -> StdRng {
    StdRng::seed_from_u64(seed)
}

#[test]
fn remote_actor_failure_aborts_the_round_on_both_sides() {
    let mut rng = StdRng::seed_from_u64(505);
    let mut config = AtomConfig::test_default();
    config.defense = Defense::Nizk;
    config.num_groups = GROUPS;
    config.iterations = 2;
    config.message_len = 24;
    let setup = derive_setup(&config).unwrap();
    let submissions: Vec<_> = (0..4)
        .map(|i| {
            let gid = i % GROUPS;
            make_nizk_submission(
                gid,
                &setup.groups[gid].public_key,
                format!("abort {i}").as_bytes(),
                config.message_len,
                &mut rng,
            )
            .unwrap()
            .0
        })
        .collect();
    // Group 2 (hosted by the member process) misbehaves mid-mix; its local
    // engine must blame it and the abort must reach the coordinator.
    let mut job = RoundJob::new(setup, RoundSubmissions::Nizk(submissions), 31);
    job.adversary = Some(AdversaryPlan {
        group: 2,
        member: 1,
        iteration: 1,
        action: Misbehavior::ReplaceMessage { slot: 0 },
    });

    let (coordinator_net, member_net) = tcp_pair();
    let member_job = job.clone();
    let member_thread = std::thread::spawn(move || {
        Engine::with_workers(2).run_rounds_on(
            vec![member_job],
            &member_net,
            &EngineRole::member(vec![1, 2]),
        )
    });
    let mut tcp = Engine::with_workers(2).run_rounds_on(
        vec![job],
        &coordinator_net,
        &EngineRole::coordinator(vec![0]),
    );
    let mut member_reports = member_thread.join().unwrap();

    // The member holds the authoritative blame verdict…
    let member_err = member_reports.pop().unwrap().unwrap_err();
    assert!(
        matches!(member_err, AtomError::ProtocolViolation { group: 2, .. }),
        "member must blame group 2, got {member_err:?}"
    );
    // …and the coordinator's round fails with the relayed reason instead
    // of hanging.
    let coordinator_err = tcp.pop().unwrap().unwrap_err();
    let reason = format!("{coordinator_err:?}");
    assert!(
        reason.contains("aborted by a peer") && reason.contains("ProtocolViolation"),
        "coordinator must relay the abort, got {reason}"
    );

    coordinator_net.shutdown();
}

/// The member transport exists (so connects and sends succeed) but no
/// engine ever runs on it — the moral equivalent of a member process dying
/// right after startup. TCP gives the coordinator no abort frame, only
/// silence; the stall detector must convert that into per-round errors that
/// name what the round waited on: a round whose member sent its `setup`
/// frames before it died stalls on the exit frames of the member's groups,
/// one whose member sent nothing in setup, on their directories. Either way
/// the verdict convicts the member, process 1.
#[test]
fn silent_peer_death_fails_the_round_instead_of_hanging() {
    use atom_core::error::EngineErrorKind;
    use atom_runtime::{EngineOptions, FaultKind, FaultVerdict};

    let (_, sharded, _) = sharded_jobs(1);
    let cases = [
        (
            trap_jobs(1, 9900),
            true,
            "waiting on exit frames from groups [0 (local), 1 (remote), 2 (remote)]",
        ),
        (
            sharded,
            false,
            "waiting on group directories [1 (remote), 2 (remote)]",
        ),
    ];
    for (jobs, member_sent_setup, waiting) in cases {
        let (coordinator_net, member_net) = tcp_pair();
        if member_sent_setup {
            send_member_setup_frames(&member_net, jobs[0].config());
        }
        let mut options = EngineOptions::with_workers(2);
        options.stall_timeout = Duration::from_millis(300);
        let reports = Engine::new(options).run_rounds_on(
            jobs,
            &coordinator_net,
            &EngineRole::coordinator(vec![0]),
        );
        let err = reports.into_iter().next().unwrap().unwrap_err();
        let AtomError::Engine {
            kind,
            reason,
            nodes,
        } = &err
        else {
            panic!("want a stall error, got {err:?}");
        };
        assert_eq!(*kind, EngineErrorKind::Stall, "{err:?}");
        assert!(
            reason.contains("stalled") && reason.contains(waiting),
            "want a stall {waiting}, got {reason}"
        );
        assert_eq!(nodes, &[1, 2], "the silent member's groups, exactly");
        let owners = [0, 1, 1, 0];
        let verdict = FaultVerdict::diagnose(0, &err, &owners, 0, |_| Vec::new());
        let verdict = verdict.expect("a stall naming one process yields a verdict");
        assert_eq!((verdict.process, verdict.kind), (1, FaultKind::Dead));
    }
}

#[test]
fn member_hosting_no_groups_of_a_small_round_resolves_immediately() {
    // Round has 1 group; the member hosts only ids 1 and 2 → stub result
    // without any traffic.
    let mut rng = StdRng::seed_from_u64(606);
    let mut config = AtomConfig::test_default();
    config.num_groups = 1;
    config.iterations = 1;
    config.message_len = 24;
    let setup = derive_setup(&config).unwrap();
    let submission = make_trap_submission(
        0,
        &setup.groups[0].public_key,
        &setup.trustees.public_key,
        config.round,
        b"solo",
        config.message_len,
        &mut rng,
    )
    .unwrap()
    .0;
    let job = RoundJob::new(setup, RoundSubmissions::Trap(vec![submission]), 77);

    // Nodes 0..=2 are groups (only 0 used this round), node 3 orchestrator.
    let (coordinator_net, member_net) = tcp_pair();

    let member_job = job.clone();
    let member_thread = std::thread::spawn(move || {
        Engine::with_workers(1).run_rounds_on(
            vec![member_job],
            &member_net,
            &EngineRole::member(vec![1, 2]),
        )
    });
    let report = Engine::with_workers(2)
        .run_rounds_on(
            vec![job],
            &coordinator_net,
            &EngineRole::coordinator(vec![0]),
        )
        .pop()
        .unwrap()
        .unwrap();
    assert_eq!(report.output.plaintexts.len(), 1);
    // The member had no group in this 1-group round: immediate empty stub.
    let stub = member_thread.join().unwrap().pop().unwrap().unwrap();
    assert_eq!(stub.mix_messages, 0);
    assert_eq!(stub.pipelined_latency, Duration::ZERO);
}

/// A one-group round: a member hosting groups 1 and 2 has no part in it.
fn one_group_job(seed: u64) -> RoundJob {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut config = AtomConfig::test_default();
    config.num_groups = 1;
    config.iterations = 1;
    config.message_len = 24;
    config.round = 1;
    let setup = derive_setup(&config).unwrap();
    let submission = make_trap_submission(
        0,
        &setup.groups[0].public_key,
        &setup.trustees.public_key,
        config.round,
        b"solo",
        config.message_len,
        &mut rng,
    )
    .unwrap()
    .0;
    RoundJob::new(setup, RoundSubmissions::Trap(vec![submission]), seed)
}

/// `on_round_complete` fires once for every round a process resolves: on
/// the coordinator, and on a member too — including the empty stub of a
/// round in which the member hosts no group.
#[test]
fn completion_hook_fires_once_per_resolved_round_on_both_processes() {
    use std::sync::{Arc, Mutex};

    use atom_runtime::EngineOptions;

    // Round 0 spans both processes; round 1 has a single group, which the
    // coordinator hosts.
    let mut jobs = trap_jobs(1, 9800);
    jobs.push(one_group_job(9801));
    let hooked = |seen: &Arc<Mutex<Vec<usize>>>| {
        let tap = Arc::clone(seen);
        let mut options = EngineOptions::with_workers(2);
        options.on_round_complete = Some(Arc::new(move |round| tap.lock().unwrap().push(round)));
        options
    };
    let member_seen = Arc::new(Mutex::new(Vec::new()));
    let coordinator_seen = Arc::new(Mutex::new(Vec::new()));

    let (coordinator_net, member_net) = tcp_pair();
    let (member_options, member_jobs) = (hooked(&member_seen), jobs.clone());
    let member_thread = std::thread::spawn(move || {
        Engine::new(member_options).run_rounds_on(
            member_jobs,
            &member_net,
            &EngineRole::member(vec![1, 2]),
        )
    });
    let reports = Engine::new(hooked(&coordinator_seen)).run_rounds_on(
        jobs,
        &coordinator_net,
        &EngineRole::coordinator(vec![0]),
    );
    let member_reports = member_thread.join().unwrap();
    coordinator_net.shutdown();

    for report in reports.iter().chain(&member_reports) {
        assert!(report.is_ok(), "{report:?}");
    }
    for seen in [member_seen, coordinator_seen] {
        let mut seen = seen.lock().unwrap().clone();
        seen.sort_unstable();
        assert_eq!(seen, vec![0, 1], "each resolved round fires the hook once");
    }
}

/// A control frame sent while the receiver's engine is mid-run waits in
/// the receiver's control inbox: no engine drains it, no node mailbox
/// holds it, and the run delivers exactly the bytes a run without it does.
#[test]
fn a_control_frame_sent_mid_run_reaches_only_the_control_inbox() {
    use std::sync::mpsc::channel;
    use std::sync::Arc;
    use std::time::Instant;

    use atom_net::{Dial, Transport};
    use atom_runtime::wire::{self, RejoinFrame};

    let (full_jobs, coordinator_jobs, member_jobs) = sharded_jobs(1);
    let in_memory = Engine::with_workers(3).run_rounds(full_jobs);

    let (coordinator_net, member_net) = tcp_pair();
    // The member's first setup frame shows its engine running; the engine
    // cannot finish before the coordinator's batches, which travel behind
    // the control frame on the same stream.
    let (arrived, setup_seen) = channel();
    coordinator_net.set_delivery_hook(Some(Arc::new(move |_| {
        let _ = arrived.send(());
    })));
    let control = wire::encode_rejoin(&RejoinFrame {
        round: 0,
        end: 1,
        process: 1,
        offset: 1,
        response: true,
        commit: false,
        dead: Vec::new(),
        evicted: vec![Vec::new()],
        failed: vec![Vec::new()],
    });
    let (tcp, member_reports) = std::thread::scope(|scope| {
        let member = scope.spawn(|| {
            let role = EngineRole::member(vec![1, 2]);
            Engine::with_workers(2).run_rounds_on(member_jobs, &member_net, &role)
        });
        let seen = setup_seen.recv_timeout(Duration::from_secs(30));
        seen.expect("the member engine sent nothing");
        coordinator_net
            .send_control(1, &control, Dial::IfNeeded)
            .unwrap();
        let role = EngineRole::coordinator(vec![0]);
        let tcp = Engine::with_workers(2).run_rounds_on(coordinator_jobs, &coordinator_net, &role);
        (tcp, member.join().unwrap())
    });

    assert!(member_reports[0].is_ok(), "{:?}", member_reports[0]);
    let (tcp, mem) = (tcp[0].as_ref().unwrap(), in_memory[0].as_ref().unwrap());
    assert_eq!(tcp.output.plaintexts, mem.output.plaintexts);
    assert_eq!(tcp.output.per_group, mem.output.per_group);
    assert_eq!(tcp.output.routed_ciphertexts, mem.output.routed_ciphertexts);
    assert_eq!(member_net.recv_control(Instant::now()), Some(control));
    assert_eq!(member_net.recv_control(Instant::now()), None);
    for node in 0..Transport::nodes(&member_net) {
        assert_eq!(member_net.pending(node), 0, "node {node} holds a frame");
    }
    coordinator_net.shutdown();
    member_net.shutdown();
}

/// A peer "process" that accepts its connection and never reads: the
/// coordinator's batches for the two groups it hosts, about 6.6 MB, fill
/// the loopback buffers, and the round ends in a `TransportLost` verdict
/// naming one of that process's nodes instead of parking an engine worker
/// for good. The engine runs behind a guard, so a hang fails this test
/// rather than the suite.
#[test]
fn a_peer_that_never_reads_ends_the_round_in_transport_lost() {
    use std::net::TcpListener;
    use std::sync::mpsc::channel;

    use atom_core::error::EngineErrorKind;

    let mut rng = StdRng::seed_from_u64(707);
    let mut config = AtomConfig::test_default();
    config.num_groups = GROUPS;
    config.iterations = 2;
    config.message_len = 16 << 10;
    let setup = derive_setup(&config).unwrap();
    // Every message enters at group 1 or 2, both on the wedged process.
    let submissions: Vec<_> = (0..96)
        .map(|i| {
            let gid = 1 + i % 2;
            make_trap_submission(
                gid,
                &setup.groups[gid].public_key,
                &setup.trustees.public_key,
                config.round,
                format!("wedged m{i}").as_bytes(),
                config.message_len,
                &mut rng,
            )
            .unwrap()
            .0
        })
        .collect();
    let job = RoundJob::new(setup, RoundSubmissions::Trap(submissions), 41);

    let options = TcpOptions {
        connect_timeout: Duration::from_millis(300),
    };
    let coordinator_net = TcpTransport::bind_any(2, vec![0, 1, 1, 0], 0, options).unwrap();
    let wedged = TcpListener::bind("127.0.0.1:0").unwrap();
    coordinator_net.set_peer_addr(1, wedged.local_addr().unwrap().to_string());
    coordinator_net.connect_peers().unwrap();
    let _peer = wedged.accept().unwrap();
    // The directory is complete without the peer: its groups' setup frames
    // are already queued, as if it had sent them before it wedged.
    send_member_setup_frames(&coordinator_net, job.config());

    let (done, outcome) = channel();
    let engine = std::thread::spawn(move || {
        let role = EngineRole::coordinator(vec![0]);
        let reports = Engine::with_workers(2).run_rounds_on(vec![job], &coordinator_net, &role);
        let _ = done.send(reports);
    });
    let reports = outcome.recv_timeout(Duration::from_secs(60));
    let mut reports = reports.expect("the engine call never returned");
    engine.join().unwrap();
    match reports.pop().unwrap() {
        Err(AtomError::Engine {
            kind: EngineErrorKind::TransportLost,
            reason,
            nodes,
        }) => assert!(
            !nodes.is_empty() && nodes.iter().all(|node| [1, 2].contains(node)),
            "{nodes:?}: {reason}"
        ),
        other => panic!("want a TransportLost verdict, got {other:?}"),
    }
}
