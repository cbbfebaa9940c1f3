//! The acceptance tests of the TCP transport: a scenario executed across
//! **two or three OS processes** on localhost must produce a `RoundOutput`
//! that is byte-identical to the same scenario run in-process over
//! `InMemoryNetwork`. Spawns the fleet processes (coordinator + members,
//! every one running the recovery loop; the `recovery` bin in its `node`
//! mode, which runs what `atom-node` runs), reads the coordinator's
//! canonical output serialization and diffs it against the in-memory run
//! of the same jobs (`fleet::fleet_jobs`) — whole bytes, not summaries. Also
//! the failure-path acceptance: a member SIGKILLed mid-deployment must be
//! *evicted*, the surviving fleet must keep delivering rounds without it,
//! and a restarted member must rejoin and contribute again — no hang, no
//! orphaned processes, no lost messages.

use std::process::ExitStatus;
use std::sync::{Arc, Mutex};
use std::time::Duration;

use atom_bench::json::{self, Value};
use atom_bench::netbench::{ProcessFleet, NODE_MODE};
use atom_runtime::fleet::{self, NetSpec, NodeArgs};
use atom_runtime::{Engine, FaultKind, RoundCompleteHook};

/// The fleet process as a [`ProcessFleet`] program: `recovery node`, the
/// program `atom-node` runs.
fn atom_node() -> Vec<std::ffi::OsString> {
    vec![env!("CARGO_BIN_EXE_recovery").into(), NODE_MODE.into()]
}

/// The flags of process `index` of `spec`'s deployment.
fn node(spec: &NetSpec, addrs: &[String], index: usize) -> NodeArgs {
    NodeArgs {
        spec: spec.clone(),
        addrs: addrs.to_vec(),
        index,
        ..NodeArgs::default()
    }
}

/// Runs every process of `spec`'s deployment as a fleet-process child — the
/// coordinator (process 0) writing its canonical outputs to a temporary
/// file — and returns those bytes. The whole fleet runs under one
/// [`ProcessFleet`], so a wedged run fails the test at the deadline
/// instead of hanging CI, and no child outlives it.
fn fleet_output(spec: &NetSpec, processes: usize, tag: &str) -> Vec<u8> {
    let addrs = fleet::free_addrs(processes);
    let out = std::env::temp_dir().join(format!("atom_{tag}_{}.bin", std::process::id()));
    let out_path = out.to_str().unwrap().to_string();
    let mut nodes: Vec<NodeArgs> = (0..processes).map(|i| node(spec, &addrs, i)).collect();
    nodes[0].out = Some(out_path.clone());
    let mut fleet = ProcessFleet::spawn(atom_node(), nodes).expect("spawn the fleet");
    fleet
        .await_ready(Duration::from_secs(120))
        .expect("fleet readiness");
    fleet
        .finish(Duration::from_secs(120))
        .expect("every fleet process exits cleanly");

    let got = std::fs::read(&out_path).expect("coordinator output file");
    let _ = std::fs::remove_file(&out_path);
    got
}

#[test]
fn two_process_tcp_run_is_byte_identical_to_in_memory() {
    let spec = NetSpec {
        groups: 4,
        rounds: 2,
        messages: 12,
        iterations: 2,
        seed: 0xEC_0FF,
        sharded: false,
        ..NetSpec::default()
    };

    // Reference: the same spec, single process, in-memory transport.
    let in_memory: Vec<_> = Engine::with_workers(3)
        .run_rounds(fleet::fleet_jobs(&spec))
        .into_iter()
        .collect::<Result<_, _>>()
        .expect("in-memory reference run");
    let want = fleet::serialize_reports(&in_memory);

    let got = fleet_output(&spec, 2, "tcp_equivalence");
    assert!(!want.is_empty());
    assert_eq!(
        got, want,
        "TCP two-process output differs from the in-memory run"
    );
}

/// The sharded-directory acceptance test: a 2-OS-process `--sharded` run —
/// where each `atom-node` derives only the DKGs of its hosted groups and
/// the rest of the directory travels as `setup` wire frames — must produce
/// round outputs byte-identical to a single-process in-memory run whose
/// directory was derived monolithically (`fleet::fleet_jobs` of the
/// unsharded spec, i.e. `atom_core::directory::derive_setup`) — the same
/// reference the prebuilt cases diff against.
#[test]
fn two_process_sharded_run_is_byte_identical_to_monolithic_derivation() {
    let spec = NetSpec {
        groups: 4,
        rounds: 2,
        messages: 12,
        iterations: 2,
        seed: 0x5AAD0,
        sharded: true,
        ..NetSpec::default()
    };

    // Reference: the same spec, single process, prebuilt monolithic
    // derivation over the identical per-group beacon streams.
    let in_memory: Vec<_> = Engine::with_workers(3)
        .run_rounds(fleet::fleet_jobs(&NetSpec {
            sharded: false,
            ..spec.clone()
        }))
        .into_iter()
        .collect::<Result<_, _>>()
        .expect("in-memory reference run");
    let want = fleet::serialize_reports(&in_memory);

    let got = fleet_output(&spec, 2, "sharded_equivalence");
    assert!(!want.is_empty());
    assert_eq!(
        got, want,
        "sharded two-process output differs from the monolithic derivation"
    );
}

/// The N-process acceptance test: a **three**-OS-process run (coordinator
/// plus two members, groups round-robin over all three) must still be
/// byte-identical to the single-process in-memory run — adding processes
/// must not change a single output byte.
#[test]
fn three_process_tcp_run_is_byte_identical_to_in_memory() {
    let spec = NetSpec {
        groups: 3,
        rounds: 2,
        messages: 9,
        iterations: 2,
        seed: 0x3EC_0FF,
        sharded: false,
        ..NetSpec::default()
    };

    let in_memory: Vec<_> = Engine::with_workers(3)
        .run_rounds(fleet::fleet_jobs(&spec))
        .into_iter()
        .collect::<Result<_, _>>()
        .expect("in-memory reference run");
    let want = fleet::serialize_reports(&in_memory);
    assert!(!want.is_empty());

    let got = fleet_output(&spec, 3, "tcp3_equivalence");
    assert_eq!(
        got, want,
        "TCP three-process output differs from the in-memory run"
    );
}

/// The sharded-directory variant at three processes: each of the three
/// `atom-node`s derives only the DKGs of its own group and the rest of the
/// directory travels as `setup` wire frames — still byte-identical to the
/// monolithic in-memory derivation.
#[test]
fn three_process_sharded_run_is_byte_identical_to_monolithic_derivation() {
    let spec = NetSpec {
        groups: 3,
        rounds: 2,
        messages: 9,
        iterations: 2,
        seed: 0x35AAD0,
        sharded: true,
        ..NetSpec::default()
    };

    let in_memory: Vec<_> = Engine::with_workers(3)
        .run_rounds(fleet::fleet_jobs(&NetSpec {
            sharded: false,
            ..spec.clone()
        }))
        .into_iter()
        .collect::<Result<_, _>>()
        .expect("in-memory reference run");
    let want = fleet::serialize_reports(&in_memory);
    assert!(!want.is_empty());

    let got = fleet_output(&spec, 3, "sharded3_equivalence");
    assert_eq!(
        got, want,
        "sharded three-process output differs from the monolithic derivation"
    );
}

/// The flags of process `index` of a deployment run in batches: the base
/// flags plus `--batch` and, for a restart, `--rejoin`.
fn heal_node(
    spec: &NetSpec,
    addrs: &[String],
    index: usize,
    batch: usize,
    rejoin: bool,
) -> NodeArgs {
    NodeArgs {
        rejoin,
        batch: Some(batch),
        ..node(spec, addrs, index)
    }
}

/// The chaos acceptance test — the failure path upgraded from "fails with
/// errors, not hangs" to "heals": a member of a three-OS-process healing
/// deployment is SIGKILLed mid-run. The coordinator (in-test, so the
/// outcome is directly observable) must diagnose the loss, evict exactly
/// that process, and keep completing rounds with the survivors; a fresh
/// `atom-node --rejoin` started on the killed member's address must be
/// readmitted and host its groups again; every message of every round is
/// delivered; and the final outputs are byte-identical to an in-memory
/// rebuild from the recorded eviction log. Both children — the survivor
/// and the restarted incarnation — exit cleanly.
#[test]
fn killed_member_is_evicted_fleet_heals_and_restart_rejoins() {
    let spec = NetSpec {
        groups: 3,
        rounds: 8,
        messages: 6,
        iterations: 2,
        seed: 0xC4A0_5EED,
        sharded: false,
        // A short stall budget keeps detection (and the test) fast.
        stall_timeout: Duration::from_secs(2),
        trace: false,
        honest: 2,
        ..NetSpec::default()
    };
    let batch = 1;
    let addrs = fleet::free_addrs(3);

    let members = vec![
        heal_node(&spec, &addrs, 1, batch, false),
        heal_node(&spec, &addrs, 2, batch, false),
    ];
    let fleet = ProcessFleet::spawn(atom_node(), members).expect("spawn the members");
    let fleet = Arc::new(Mutex::new(Some(fleet)));
    let killed_status: Arc<Mutex<Option<ExitStatus>>> = Arc::new(Mutex::new(None));

    // Kill process 2 right after it helped complete round 1 (the loss
    // surfaces inside round 2 or its handshake); restart it with
    // `--rejoin` two healed rounds later.
    let hook: RoundCompleteHook = {
        let fleet = fleet.clone();
        let killed_status = killed_status.clone();
        let (spec, addrs) = (spec.clone(), addrs.clone());
        Arc::new(move |round| {
            let mut guard = fleet.lock().unwrap();
            let fleet = guard.as_mut().expect("fleet alive during the run");
            if round == 1 {
                fleet.kill_member(2);
                *killed_status.lock().unwrap() = fleet.member_status(2);
            }
            if round == 3 {
                fleet
                    .restart_member(heal_node(&spec, &addrs, 2, batch, true))
                    .expect("restart the killed member");
            }
        })
    };

    let outcome =
        fleet::run_recovery_coordinator(&spec, batch, addrs.clone(), 2, Some(hook), || {})
            .expect("recovery completes every round despite the kill");

    // The mid-round SIGKILL was diagnosed and exactly process 2 evicted.
    let convicted: Vec<usize> = outcome.evictions.iter().map(|v| v.process).collect();
    assert_eq!(convicted, vec![2], "exactly the killed process is evicted");
    assert!(matches!(outcome.evictions[0].kind, FaultKind::Dead));
    // The next plan's send found the killed member's stream closed and its
    // address refusing: the verdict did not wait out the ack deadline.
    let reason = &outcome.evictions[0].reason;
    assert!(
        reason.starts_with("unreachable during handshake"),
        "{reason}"
    );
    #[cfg(unix)]
    {
        use std::os::unix::process::ExitStatusExt;
        let status = killed_status
            .lock()
            .unwrap()
            .expect("kill_member reaps and records the exit status");
        assert_eq!(status.signal(), Some(9), "the member died of SIGKILL");
    }

    // The restart was readmitted while rounds remained, so it hosted its
    // groups again for the tail of the run.
    assert_eq!(
        outcome.rejoins.len(),
        1,
        "restarted member readmitted once: {:?}",
        outcome.rejoins
    );
    let (process, round) = outcome.rejoins[0];
    assert_eq!(process, 2);
    assert!(
        round < spec.rounds,
        "readmitted while rounds remained (round {round})"
    );
    assert!(
        outcome.round_evicted[spec.rounds - 1].is_empty(),
        "the final round ran with full membership again"
    );

    // Churn lost nothing, and the recovery latency was measured.
    let delivered: usize = outcome
        .reports
        .iter()
        .map(|r| r.output.plaintexts.len())
        .sum();
    assert_eq!(delivered, spec.rounds * spec.messages, "no message lost");
    assert!(outcome.detected_at.is_some());
    assert!(outcome.healed_latency.is_some());

    // Byte-determinism given the eviction log: an in-memory rebuild from
    // the recorded per-round membership reproduces the fleet's outputs.
    let reference =
        fleet::build_healed_reference(&spec, &outcome.round_evicted, &outcome.round_failed);
    assert_eq!(
        fleet::serialize_reports(&outcome.reports),
        fleet::serialize_reports(&reference),
        "fleet outputs must be rebuildable from the eviction log alone"
    );

    // Both children — survivor and restarted incarnation — exit 0.
    let fleet = fleet
        .lock()
        .unwrap()
        .take()
        .expect("fleet still owned by the test");
    fleet
        .finish(Duration::from_secs(120))
        .expect("fleet members exit cleanly after the healed run");
}

/// `--trace` with batches: a 2-process `--batch 1 --trace` fleet with no
/// kill writes the fleet trace on the coordinator, holding a `mix` span of
/// every group on the process that hosts it, plus the `--metrics-out`
/// counters, one object per process. Those counters show a fault-free
/// fleet evicts no one: no process counts an eviction, and the coordinator
/// plans each one-round batch exactly once.
#[test]
fn healing_fleet_writes_its_trace() {
    let spec = NetSpec {
        groups: 2,
        rounds: 2,
        messages: 4,
        seed: 0x7EA1,
        stall_timeout: Duration::from_secs(2),
        trace: true,
        honest: 2,
        ..NetSpec::default()
    };
    let dir = std::env::temp_dir();
    let path = |name: &str| {
        let file = dir.join(format!("atom_heal_{name}_{}.json", std::process::id()));
        file.to_str().unwrap().to_string()
    };
    let (trace, metrics) = (path("trace"), path("metrics"));
    let addrs = fleet::free_addrs(2);
    let coordinator = NodeArgs {
        trace: Some(trace.clone()),
        metrics_out: Some(metrics.clone()),
        ..heal_node(&spec, &addrs, 0, 1, false)
    };
    let member = NodeArgs {
        trace: Some(path("ignored")),
        ..heal_node(&spec, &addrs, 1, 1, false)
    };
    ProcessFleet::spawn(atom_node(), vec![coordinator, member])
        .expect("spawn the fleet")
        .finish(Duration::from_secs(120))
        .expect("both processes exit cleanly");

    let written = std::fs::read_to_string(&trace).expect("coordinator trace file");
    let counters = std::fs::read_to_string(&metrics).expect("coordinator metrics file");
    let _ = (std::fs::remove_file(&trace), std::fs::remove_file(&metrics));
    for process in 0..2 {
        assert!(
            written.contains(&format!("\"atom process {process}\"")),
            "the trace holds no snapshot from process {process}"
        );
        assert!(counters.contains(&format!("\"process\":{process},")));
    }

    // Group g is hosted by process g mod 2, and its mix spans are there.
    let events: Vec<Value> = (json::parse(&written).expect("the trace is JSON"))
        .field("traceEvents")
        .unwrap();
    for gid in 0..spec.groups {
        let mixed_on_host = events.iter().any(|event| {
            let args = event.field::<Value>("args");
            event
                .field::<String>("name")
                .is_ok_and(|name| name == "mix")
                && event.field::<usize>("pid") == Ok(gid % 2)
                && args.and_then(|args| args.field::<usize>("gid")) == Ok(gid)
        });
        assert!(
            mixed_on_host,
            "no mix span of group {gid} on its host process"
        );
    }

    // One object per process, holding its final counters.
    let metrics = json::parse(&counters).expect("the metrics file is JSON");
    let snapshots: Vec<Value> = metrics.field("processes").unwrap();
    let processes: Vec<usize> = (snapshots.iter())
        .map(|snapshot| snapshot.field("process").unwrap())
        .collect();
    assert_eq!(processes, vec![0, 1], "one metrics object per process");
    let counter = |process: usize, name: &str| {
        let counters = snapshots[process].field::<Value>("counters").unwrap();
        counters.field::<f64>(name).unwrap_or(0.0)
    };
    for process in 0..2 {
        assert_eq!(
            counter(process, "fleet.evictions"),
            0.0,
            "process {process} counted an eviction in a fault-free fleet"
        );
    }
    assert_eq!(
        counter(0, "fleet.handshake.plans"),
        spec.rounds as f64,
        "one plan per one-round batch: no batch was retried"
    );
}

/// A traced fleet that cannot heal still writes its trace and metrics. In a
/// two-process `--groups 1` fleet, convicting member 1 would leave 2 of
/// the 3 servers, fewer than one group, so killing it once both processes
/// are ready ends the coordinator's run in an error: it exits 1, having
/// written both files with its own recording of the run. One-round batches
/// make every round wait on the member's ack, so the run cannot finish
/// before the kill.
#[test]
fn failed_fleet_run_still_writes_its_trace() {
    let spec = NetSpec {
        groups: 1,
        rounds: 256,
        messages: 4,
        seed: 0xFA11,
        stall_timeout: Duration::from_secs(2),
        trace: true,
        ..NetSpec::default()
    };
    let dir = std::env::temp_dir();
    let path = |name: &str| {
        let file = dir.join(format!("atom_failed_{name}_{}.json", std::process::id()));
        file.to_str().unwrap().to_string()
    };
    let (trace, metrics) = (path("trace"), path("metrics"));
    let _ = (std::fs::remove_file(&trace), std::fs::remove_file(&metrics));
    let addrs = fleet::free_addrs(2);
    let coordinator = NodeArgs {
        trace: Some(trace.clone()),
        metrics_out: Some(metrics.clone()),
        ..heal_node(&spec, &addrs, 0, 1, false)
    };
    let member = NodeArgs {
        trace: Some(path("ignored")),
        ..heal_node(&spec, &addrs, 1, 1, false)
    };
    let mut fleet = ProcessFleet::spawn(atom_node(), vec![coordinator, member]).expect("spawn");
    fleet
        .await_ready(Duration::from_secs(120))
        .expect("fleet readiness");
    fleet.kill_member(1);
    let error = fleet
        .finish(Duration::from_secs(120))
        .expect_err("the fleet cannot heal");
    assert!(
        error.contains("process 0 exited with exit code 1"),
        "the coordinator's run must fail: {error}"
    );

    let written = std::fs::read_to_string(&trace).expect("coordinator trace file");
    let counters = std::fs::read_to_string(&metrics).expect("coordinator metrics file");
    let _ = (std::fs::remove_file(&trace), std::fs::remove_file(&metrics));
    let events: Vec<Value> = (json::parse(&written).expect("the trace is JSON"))
        .field("traceEvents")
        .unwrap();
    let own_spans = (events.iter())
        .filter(|event| event.field::<String>("ph").is_ok_and(|ph| ph == "X"))
        .filter(|event| event.field::<usize>("pid") == Ok(0))
        .count();
    assert!(own_spans > 0, "the trace holds no span of process 0");
    let metrics = json::parse(&counters).expect("the metrics file is JSON");
    let snapshots: Vec<Value> = metrics.field("processes").unwrap();
    assert!(
        (snapshots.iter()).any(|snapshot| snapshot.field::<usize>("process") == Ok(0)),
        "the metrics file holds no object of process 0"
    );
}

/// The coordinator alone decides what each attempt runs. Its batches here
/// are two rounds long, member 1 was started with `--batch 1` and member 2
/// with no `--batch` at all; member 2 is SIGKILLed once round 1 completes.
/// The coordinator evicts exactly process 2 and never convicts the healthy
/// member 1, whatever batch its command line named, and the outputs are
/// byte-identical to the in-memory rebuild from the eviction log.
#[test]
fn members_run_the_coordinators_plans_whatever_their_batch_flag() {
    let spec = NetSpec {
        groups: 3,
        rounds: 6,
        messages: 6,
        iterations: 2,
        seed: 0x0BA7_C4ED,
        stall_timeout: Duration::from_secs(2),
        honest: 2,
        ..NetSpec::default()
    };
    let addrs = fleet::free_addrs(3);
    let members = vec![
        heal_node(&spec, &addrs, 1, 1, false),
        node(&spec, &addrs, 2),
    ];
    let fleet = ProcessFleet::spawn(atom_node(), members).expect("spawn the members");
    let fleet = Arc::new(Mutex::new(Some(fleet)));
    let hook: RoundCompleteHook = {
        let fleet = fleet.clone();
        Arc::new(move |round| {
            if round == 1 {
                let mut guard = fleet.lock().unwrap();
                guard.as_mut().expect("fleet alive").kill_member(2);
            }
        })
    };

    let outcome = fleet::run_recovery_coordinator(&spec, 2, addrs, 2, Some(hook), || {})
        .expect("recovery completes every round despite the kill");

    let convicted: Vec<usize> = outcome.evictions.iter().map(|v| v.process).collect();
    assert_eq!(
        convicted,
        vec![2],
        "exactly the killed process is evicted: {:?}",
        outcome.evictions
    );
    let delivered: usize = (outcome.reports.iter())
        .map(|r| r.output.plaintexts.len())
        .sum();
    assert_eq!(delivered, spec.rounds * spec.messages, "no message lost");
    let reference =
        fleet::build_healed_reference(&spec, &outcome.round_evicted, &outcome.round_failed);
    assert_eq!(
        fleet::serialize_reports(&outcome.reports),
        fleet::serialize_reports(&reference),
        "fleet outputs must be rebuildable from the eviction log alone"
    );

    // The survivor exits cleanly; only the killed member's status fails.
    let fleet = fleet.lock().unwrap().take().expect("fleet still owned");
    let error = fleet
        .finish(Duration::from_secs(120))
        .expect_err("member 2 died of SIGKILL");
    assert!(
        error.starts_with("fleet member process 2 exited") && !error.contains(';'),
        "{error}"
    );
}
