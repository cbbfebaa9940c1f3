//! Observability end-to-end: recording must never change round outputs or
//! when a round resolves, spans carry the wire round, and a `mix` span
//! measures one group step.
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
use atom_core::round::RoundOutput;
use atom_net::{FaultyTransport, SendFault, TcpOptions, TcpTransport};
use atom_runtime::{Engine, EngineOptions, EngineRole, RoundJob, RoundSubmissions};

static OBS_LOCK: Mutex<()> = Mutex::new(());

const GROUPS: usize = 3;
const ITERATIONS: usize = 2;

fn trap_jobs(rounds: usize, seed: u64) -> Vec<RoundJob> {
    let mut rng = StdRng::seed_from_u64(404);
    (0..rounds)
        .map(|round| {
            let mut config = AtomConfig::test_default();
            config.num_groups = GROUPS;
            config.iterations = ITERATIONS;
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

/// The deterministic fields of two runs of the same jobs must match byte
/// for byte whether or not the recorder was on — tracing reads, it never
/// writes into the protocol.
#[test]
fn traced_run_is_byte_identical_to_untraced() {
    let _guard = OBS_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let jobs = trap_jobs(2, 2200);

    atom_obs::reset();
    atom_obs::set_enabled(false);
    let untraced: Vec<_> = Engine::with_workers(3)
        .run_rounds(jobs.clone())
        .into_iter()
        .map(|r| r.unwrap())
        .collect();
    assert!(
        atom_obs::local_snapshot(None).spans.is_empty(),
        "no spans may be recorded while recording is off"
    );

    atom_obs::set_enabled(true);
    let traced: Vec<_> = Engine::with_workers(3)
        .run_rounds(jobs)
        .into_iter()
        .map(|r| r.unwrap())
        .collect();
    atom_obs::set_enabled(false);
    let recorded = atom_obs::local_snapshot(None).spans;

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
        // The traced run recorded the expected phases for its round.
        let spans: Vec<&atom_obs::SpanRecord> = (recorded.iter())
            .filter(|span| span.round == round as u32)
            .collect();
        for phase in ["intake", "mix", "exit"] {
            assert!(
                spans.iter().any(|span| span.phase == phase),
                "round {round}: no {phase} span recorded"
            );
        }
    }
    assert!(
        recorded
            .iter()
            .all(|span| (span.round as usize) < traced.len()),
        "a span is labelled with a round the run does not have"
    );
}

/// Recording changes nothing a round waits on. Two engines over TCP run
/// traced while every telemetry frame (kind `0x05`) the member sends is
/// unreachable: every round still resolves on both sides, with the output
/// of the same run untraced.
#[test]
fn unreachable_telemetry_fails_no_traced_round() {
    let _guard = OBS_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let run = |traced: bool| {
        let owner = vec![0, 1, 1, 0];
        let bind = |owner, me| TcpTransport::bind_any(2, owner, me, TcpOptions::default()).unwrap();
        let (coordinator, member) = (bind(owner.clone(), 0), bind(owner, 1));
        coordinator.set_peer_addr(1, member.local_addr().to_string());
        member.set_peer_addr(0, coordinator.local_addr().to_string());
        coordinator.connect_peers().unwrap();
        member.connect_peers().unwrap();
        let jobs = trap_jobs(2, 9900);
        let member_jobs = jobs.clone();
        atom_obs::set_enabled(traced);
        let (reports, member_reports) = std::thread::scope(|scope| {
            let member_run = scope.spawn(|| {
                let lossy =
                    FaultyTransport::new(&member, |_, _, payload: &[u8]| match payload.first() {
                        Some(5) => SendFault::Unreachable { process: 0 },
                        _ => SendFault::Deliver,
                    });
                let role = EngineRole::member(vec![1, 2]);
                Engine::with_workers(2).run_rounds_on(member_jobs, &lossy, &role)
            });
            let role = EngineRole::coordinator(vec![0]);
            let reports = Engine::with_workers(2).run_rounds_on(jobs, &coordinator, &role);
            (reports, member_run.join().unwrap())
        });
        atom_obs::set_enabled(false);
        coordinator.shutdown();
        member.shutdown();
        for report in &member_reports {
            assert!(
                report.is_ok(),
                "traced {traced}: member round failed: {report:?}"
            );
        }
        (reports.into_iter())
            .map(|report| report.unwrap_or_else(|e| panic!("traced {traced}: {e:?}")))
            .map(|report| report.output)
            .collect::<Vec<RoundOutput>>()
    };
    let (traced, untraced) = (run(true), run(false));
    for (traced, untraced) in traced.iter().zip(&untraced) {
        assert_eq!(traced.plaintexts, untraced.plaintexts);
        assert_eq!(traced.per_group, untraced.per_group);
        assert_eq!(traced.routed_ciphertexts, untraced.routed_ciphertexts);
    }
}

/// A healing fleet runs each batch as its own engine run on one recorder,
/// each at a higher `round_offset`. Spans carry the wire round, so the
/// spans a later run records are labelled with its own round, never with
/// an earlier run's, which carried the same job index.
#[test]
fn spans_are_labelled_with_the_wire_round() {
    let _guard = OBS_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    atom_obs::reset();
    atom_obs::set_enabled(true);
    Engine::with_workers(2)
        .run_round(trap_jobs(1, 5500).remove(0))
        .unwrap();
    let first = atom_obs::local_snapshot(None).spans;
    let mut options = EngineOptions::with_workers(2);
    options.round_offset = 1;
    Engine::new(options)
        .run_round(trap_jobs(1, 5500).remove(0))
        .unwrap();
    atom_obs::set_enabled(false);
    let second = atom_obs::local_snapshot(None).spans.split_off(first.len());

    assert!(
        !first.is_empty() && !second.is_empty(),
        "both runs record spans"
    );
    assert!(first.iter().all(|span| span.round == 0), "{first:?}");
    let labels: Vec<u32> = second.iter().map(|span| span.round).collect();
    assert!(labels.iter().all(|&round| round == 1), "{labels:?}");
    assert!(
        !second.iter().any(|span| first.contains(span)),
        "the second run repeats spans of the first"
    );
}

/// A `mix` span measures one group step and nothing else: it opens and
/// closes around the step, which the round's machine hands out once the
/// group's iteration is complete and only while no other step of the group
/// is out. So over a multi-round run on three workers, where several
/// workers often deliver to one group at once, every `(round, gid)` has
/// exactly one `mix` span per iteration, and no two of them overlap in
/// time.
#[test]
fn mix_spans_of_one_group_never_overlap() {
    let _guard = OBS_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    atom_obs::reset();
    atom_obs::set_enabled(true);
    for report in Engine::with_workers(3).run_rounds(trap_jobs(4, 6600)) {
        report.unwrap();
    }
    atom_obs::set_enabled(false);

    let mut steps: BTreeMap<(u32, u32), Vec<(u64, u64)>> = BTreeMap::new();
    for span in (atom_obs::local_snapshot(None).spans.iter()).filter(|span| span.phase == "mix") {
        let end = span.start_us + span.dur_us;
        steps
            .entry((span.round, span.gid))
            .or_default()
            .push((span.start_us, end));
    }
    assert_eq!(steps.len(), 4 * GROUPS, "every group of every round mixed");
    for ((round, gid), mut spans) in steps {
        assert_eq!(
            spans.len(),
            ITERATIONS,
            "round {round} group {gid}: one mix span per group step"
        );
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
