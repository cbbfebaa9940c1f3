//! Observability end-to-end: recording must never change round outputs,
//! member snapshots must reach the coordinator as telemetry frames, and a
//! duplicated frame must be a benign no-op.
//!
//! `atom-obs` recording is process-global state, so every test here takes
//! `OBS_LOCK` and leaves recording disabled — this file is its own test
//! binary precisely so toggling the recorder cannot race the other runtime
//! suites.

use std::collections::BTreeMap;
use std::sync::Mutex;

use rand::rngs::StdRng;
use rand::SeedableRng;

use atom_core::config::AtomConfig;
use atom_core::directory::derive_setup;
use atom_core::message::make_trap_submission;
use atom_net::{TcpOptions, TcpTransport, Transport};
use atom_runtime::{
    wire, Engine, EngineOptions, EngineRole, RoundJob, RoundReport, RoundSubmissions,
    TELEMETRY_LABEL,
};

static OBS_LOCK: Mutex<()> = Mutex::new(());

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
                        format!("obs r{round} m{i}").as_bytes(),
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

/// Two `TcpTransport`s on loopback: process 0 is the coordinator hosting
/// group 0 (and the orchestrator node), process 1 hosts groups 1 and 2.
fn tcp_pair() -> (TcpTransport, TcpTransport) {
    let owner = vec![0, 1, 1, 0];
    let coordinator = TcpTransport::bind_any(2, owner.clone(), 0, TcpOptions::default()).unwrap();
    let member = TcpTransport::bind_any(2, owner, 1, TcpOptions::default()).unwrap();
    coordinator.set_peer_addr(1, member.local_addr().to_string());
    member.set_peer_addr(0, coordinator.local_addr().to_string());
    coordinator.connect_peers().unwrap();
    member.connect_peers().unwrap();
    (coordinator, member)
}

/// The deterministic fields of two runs of the same jobs must match byte
/// for byte whether or not the recorder was on — tracing reads, it never
/// writes into the protocol.
#[test]
fn traced_run_is_byte_identical_to_untraced() {
    let _guard = OBS_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let jobs = trap_jobs(2, 2200);

    atom_obs::set_enabled(false);
    let untraced: Vec<_> = Engine::with_workers(3)
        .run_rounds(jobs.clone())
        .into_iter()
        .map(|r| r.unwrap())
        .collect();
    assert!(
        untraced.iter().all(|r| r.telemetry.is_empty()),
        "no snapshots may be collected while recording is off"
    );

    atom_obs::reset();
    atom_obs::set_enabled(true);
    let traced: Vec<_> = Engine::with_workers(3)
        .run_rounds(jobs)
        .into_iter()
        .map(|r| r.unwrap())
        .collect();
    atom_obs::set_enabled(false);

    for (round, (traced, untraced)) in traced.iter().zip(&untraced).enumerate() {
        assert_eq!(
            traced.output.plaintexts, untraced.output.plaintexts,
            "round {round} plaintexts diverge under tracing"
        );
        assert_eq!(
            traced.output.per_group, untraced.output.per_group,
            "round {round} per-group outputs diverge under tracing"
        );
        assert_eq!(
            traced.output.routed_ciphertexts, untraced.output.routed_ciphertexts,
            "round {round} routed counts diverge under tracing"
        );
        // The traced run's report carries the local snapshot with the
        // expected phases for its round.
        let spans: Vec<&atom_obs::SpanRecord> = traced
            .telemetry
            .iter()
            .flat_map(|snapshot| snapshot.spans.iter())
            .collect();
        for phase in ["intake", "mix", "exit"] {
            assert!(
                spans.iter().any(|span| span.phase == phase),
                "round {round}: no {phase} span recorded"
            );
        }
        assert!(
            spans.iter().all(|span| span.round == round as u32),
            "round {round} snapshot leaked spans of another round"
        );
    }
}

/// A healing fleet runs each batch as its own engine run on one recorder,
/// each at a higher `round_offset`. Spans carry the wire round, so a later
/// run's coordinator snapshot holds its own round's spans and none of an
/// earlier run's, which carried the same job index.
#[test]
fn spans_are_labelled_with_the_wire_round() {
    let _guard = OBS_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    atom_obs::reset();
    atom_obs::set_enabled(true);
    let first = Engine::with_workers(2)
        .run_round(trap_jobs(1, 5500).remove(0))
        .unwrap();
    let mut options = EngineOptions::with_workers(2);
    options.round_offset = 1;
    let second = Engine::new(options)
        .run_round(trap_jobs(1, 5500).remove(0))
        .unwrap();
    atom_obs::set_enabled(false);

    let coordinator_spans = |report: &RoundReport| -> Vec<atom_obs::SpanRecord> {
        let snapshot = report.telemetry.iter().find(|s| s.process == 0);
        snapshot.expect("coordinator snapshot").spans.clone()
    };
    let (first, second) = (coordinator_spans(&first), coordinator_spans(&second));
    assert!(
        !first.is_empty() && !second.is_empty(),
        "both runs record spans"
    );
    assert!(first.iter().all(|span| span.round == 0), "{first:?}");
    let labels: Vec<u32> = second.iter().map(|span| span.round).collect();
    assert!(labels.iter().all(|&round| round == 1), "{labels:?}");
    assert!(
        !second.iter().any(|span| first.contains(span)),
        "the second run's snapshot repeats spans of the first"
    );
}

/// Split across a TCP pair, the member's spans travel to the coordinator in
/// a telemetry wire frame: the coordinator's merged snapshots must cover
/// mix work on every group, including the two it does not host.
#[test]
fn member_telemetry_reaches_the_coordinator_over_tcp() {
    let _guard = OBS_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    atom_obs::reset();
    atom_obs::set_enabled(true);

    let jobs = trap_jobs(1, 3300);
    let (coordinator_net, member_net) = tcp_pair();
    let member_jobs = jobs.clone();
    let member_thread = std::thread::spawn(move || {
        Engine::with_workers(2).run_rounds_on(
            member_jobs,
            &member_net,
            &EngineRole::member(vec![1, 2]),
        )
    });
    let report = Engine::with_workers(2)
        .run_rounds_on(jobs, &coordinator_net, &EngineRole::coordinator(vec![0]))
        .pop()
        .unwrap()
        .unwrap();
    member_thread.join().unwrap().pop().unwrap().unwrap();
    atom_obs::set_enabled(false);

    // Both "processes" run in this test process, so the member's frame and
    // the coordinator's local snapshot both appear; what matters is that
    // the merged view covers mixing on all three groups — the coordinator
    // alone only ever sees group 0's.
    assert!(report.telemetry.len() >= 2, "local snapshot + member frame");
    for gid in 0..GROUPS as u32 {
        assert!(
            report
                .telemetry
                .iter()
                .flat_map(|snapshot| snapshot.spans.iter())
                .any(|span| span.phase == "mix" && span.gid == gid),
            "merged telemetry misses mix spans of group {gid}"
        );
    }
}

/// A duplicated telemetry frame (a retransmit, say) must be idempotent:
/// the round still completes and the duplicate's snapshot appears once.
#[test]
fn duplicate_telemetry_frame_is_idempotent() {
    let _guard = OBS_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    atom_obs::reset();
    atom_obs::set_enabled(true);

    let jobs = trap_jobs(1, 4400);
    let (coordinator_net, member_net) = tcp_pair();

    // A synthetic frame from a claimed process 7, delivered twice to the
    // orchestrator node (id 3). Decoding is exercised for real — the frame
    // travels the wire like any other.
    let synthetic = wire::TelemetryFrame {
        round: 0,
        process: 7,
        gids: vec![1, 2],
        counters: vec![("synthetic.counter".to_string(), 11)],
        spans: Vec::new(),
    };
    let payload = wire::encode_telemetry(&synthetic);
    member_net
        .send(1, 3, TELEMETRY_LABEL.into(), payload.clone())
        .unwrap();
    member_net
        .send(1, 3, TELEMETRY_LABEL.into(), payload)
        .unwrap();

    let member_jobs = jobs.clone();
    let member_thread = std::thread::spawn(move || {
        Engine::with_workers(2).run_rounds_on(
            member_jobs,
            &member_net,
            &EngineRole::member(vec![1, 2]),
        )
    });
    let report = Engine::with_workers(2)
        .run_rounds_on(jobs, &coordinator_net, &EngineRole::coordinator(vec![0]))
        .pop()
        .unwrap()
        .unwrap();
    member_thread.join().unwrap().pop().unwrap().unwrap();
    atom_obs::set_enabled(false);

    assert_eq!(report.output.plaintexts.len(), 5, "round must complete");
    let from_seven: Vec<_> = report
        .telemetry
        .iter()
        .filter(|snapshot| snapshot.process == 7)
        .collect();
    assert_eq!(
        from_seven.len(),
        1,
        "the duplicated frame must be merged exactly once"
    );
    assert_eq!(
        from_seven[0].counters,
        vec![("synthetic.counter".to_string(), 11)]
    );
}

/// A `mix` span measures a group step, not the wait for the group's lock:
/// it opens once the worker holds the actor lock and closes before the
/// lock is released. So over a multi-round run on three workers, where
/// several workers often deliver to one group at once, no two `mix` spans
/// of one `(round, gid)` overlap in time.
#[test]
fn mix_spans_of_one_group_never_overlap() {
    let _guard = OBS_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    atom_obs::reset();
    atom_obs::set_enabled(true);
    let reports: Vec<RoundReport> = Engine::with_workers(3)
        .run_rounds(trap_jobs(4, 6600))
        .into_iter()
        .map(|r| r.unwrap())
        .collect();
    atom_obs::set_enabled(false);

    let mut steps: BTreeMap<(u32, u32), Vec<(u64, u64)>> = BTreeMap::new();
    for span in reports
        .iter()
        .flat_map(|report| report.telemetry.iter())
        .flat_map(|snapshot| snapshot.spans.iter())
        .filter(|span| span.phase == "mix")
    {
        let end = span.start_us + span.dur_us;
        steps
            .entry((span.round, span.gid))
            .or_default()
            .push((span.start_us, end));
    }
    assert_eq!(steps.len(), 4 * GROUPS, "every group of every round mixed");
    for ((round, gid), mut spans) in steps {
        spans.sort_unstable();
        for pair in spans.windows(2) {
            assert!(
                pair[1].0 >= pair[0].1,
                "round {round} group {gid}: mix spans {:?} and {:?} overlap",
                pair[0],
                pair[1]
            );
        }
    }
}
