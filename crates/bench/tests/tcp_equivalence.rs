//! The acceptance tests of the TCP transport: a scenario executed across
//! **two or three OS processes** on localhost must produce a `RoundOutput`
//! that is byte-identical to the same scenario run in-process over
//! `InMemoryNetwork`. Spawns the `atom-node` binary (coordinator +
//! members), reads the coordinator's canonical output serialization and
//! diffs it against the in-memory run — whole bytes, not summaries. Also
//! the failure-path acceptance: a member SIGKILLed mid-deployment must be
//! *evicted*, the surviving fleet must keep delivering rounds without it,
//! and a restarted member must rejoin and contribute again — no hang, no
//! orphaned processes, no lost messages.

use std::process::{Child, Command, ExitStatus, Stdio};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use atom_bench::heal;
use atom_bench::netbench::{self, NetSpec, ProcessFleet};
use atom_runtime::{Engine, FaultKind, RoundCompleteHook};

/// The `atom-node` command hosting process `index` of `spec`'s deployment.
fn node_command(spec: &NetSpec, addrs: &[String], index: usize, out: Option<&str>) -> Command {
    let mut command = Command::new(env!("CARGO_BIN_EXE_atom-node"));
    command
        .arg("--index")
        .arg(index.to_string())
        .arg("--addrs")
        .arg(addrs.join(","))
        .arg("--groups")
        .arg(spec.groups.to_string())
        .arg("--rounds")
        .arg(spec.rounds.to_string())
        .arg("--messages")
        .arg(spec.messages.to_string())
        .arg("--iterations")
        .arg(spec.iterations.to_string())
        .arg("--seed")
        .arg(spec.seed.to_string())
        .arg("--stall-timeout-ms")
        .arg(spec.stall_timeout.as_millis().to_string())
        .arg("--workers")
        .arg("2");
    if spec.sharded {
        command.arg("--sharded");
    }
    if let Some(path) = out {
        command.arg("--out").arg(path);
    }
    command
}

fn spawn_node(spec: &NetSpec, addrs: &[String], index: usize, out: Option<&str>) -> Child {
    let mut command = node_command(spec, addrs, index, out);
    command
        .stdout(Stdio::inherit())
        .stderr(Stdio::inherit())
        .spawn()
        .expect("spawn atom-node")
}

/// Waits for `child` with a deadline so a wedged multi-process run fails
/// the test instead of hanging CI forever.
fn wait_with_deadline(mut child: Child, what: &str, deadline: Instant) {
    loop {
        match child.try_wait().expect("wait on atom-node") {
            Some(status) => {
                assert!(status.success(), "{what} exited with {status}");
                return;
            }
            None if Instant::now() > deadline => {
                let _ = child.kill();
                panic!("{what} did not finish before the deadline");
            }
            None => std::thread::sleep(Duration::from_millis(50)),
        }
    }
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
        .run_rounds(netbench::build_jobs(&spec))
        .into_iter()
        .collect::<Result<_, _>>()
        .expect("in-memory reference run");
    let want = netbench::serialize_reports(&in_memory);

    let addrs = netbench::free_addrs(2);
    let out = std::env::temp_dir().join(format!("atom_tcp_equivalence_{}.bin", std::process::id()));
    let out_path = out.to_str().unwrap().to_string();

    let member = spawn_node(&spec, &addrs, 1, None);
    let coordinator = spawn_node(&spec, &addrs, 0, Some(&out_path));
    let deadline = Instant::now() + Duration::from_secs(120);
    wait_with_deadline(coordinator, "coordinator", deadline);
    wait_with_deadline(member, "member", deadline);

    let got = std::fs::read(&out_path).expect("coordinator output file");
    let _ = std::fs::remove_file(&out_path);
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
/// directory was derived monolithically (`netbench::build_jobs`, i.e.
/// `atom_core::directory::derive_setup`) — the same reference the
/// prebuilt cases diff against.
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
        .run_rounds(netbench::build_jobs(&spec))
        .into_iter()
        .collect::<Result<_, _>>()
        .expect("in-memory reference run");
    let want = netbench::serialize_reports(&in_memory);

    let addrs = netbench::free_addrs(2);
    let out = std::env::temp_dir().join(format!(
        "atom_sharded_equivalence_{}.bin",
        std::process::id()
    ));
    let out_path = out.to_str().unwrap().to_string();

    let member = spawn_node(&spec, &addrs, 1, None);
    let coordinator = spawn_node(&spec, &addrs, 0, Some(&out_path));
    let deadline = Instant::now() + Duration::from_secs(120);
    wait_with_deadline(coordinator, "coordinator", deadline);
    wait_with_deadline(member, "member", deadline);

    let got = std::fs::read(&out_path).expect("coordinator output file");
    let _ = std::fs::remove_file(&out_path);
    assert!(!want.is_empty());
    assert_eq!(
        got, want,
        "sharded two-process output differs from the monolithic derivation"
    );
}

/// Runs `spec` as a **three-OS-process** deployment — two fleet members
/// plus a coordinator child — and returns the coordinator's canonical
/// output bytes. Members are orchestrated through [`ProcessFleet`], so
/// this also exercises the readiness handshake and teardown path the
/// scaling sweep uses.
fn three_process_output(spec: &NetSpec, tag: &str) -> Vec<u8> {
    let addrs = netbench::free_addrs(3);
    let out = std::env::temp_dir().join(format!("atom_{tag}_{}.bin", std::process::id()));
    let out_path = out.to_str().unwrap().to_string();

    let mut fleet = ProcessFleet::spawn(vec![
        node_command(spec, &addrs, 1, None),
        node_command(spec, &addrs, 2, None),
    ]);
    let coordinator = spawn_node(spec, &addrs, 0, Some(&out_path));
    fleet
        .await_ready(Duration::from_secs(120))
        .expect("fleet readiness");
    let deadline = Instant::now() + Duration::from_secs(120);
    wait_with_deadline(coordinator, "coordinator", deadline);
    fleet
        .finish(Duration::from_secs(120))
        .expect("fleet members");

    let got = std::fs::read(&out_path).expect("coordinator output file");
    let _ = std::fs::remove_file(&out_path);
    got
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
        .run_rounds(netbench::build_jobs(&spec))
        .into_iter()
        .collect::<Result<_, _>>()
        .expect("in-memory reference run");
    let want = netbench::serialize_reports(&in_memory);
    assert!(!want.is_empty());

    let got = three_process_output(&spec, "tcp3_equivalence");
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
        .run_rounds(netbench::build_jobs(&spec))
        .into_iter()
        .collect::<Result<_, _>>()
        .expect("in-memory reference run");
    let want = netbench::serialize_reports(&in_memory);
    assert!(!want.is_empty());

    let got = three_process_output(&spec, "sharded3_equivalence");
    assert_eq!(
        got, want,
        "sharded three-process output differs from the monolithic derivation"
    );
}

/// The `atom-node` command for process `index` of a **self-healing**
/// deployment: the base command plus the churn-facing flags (`--heal`,
/// `--batch`, `--honest`).
fn heal_node_command(
    spec: &NetSpec,
    addrs: &[String],
    index: usize,
    batch: usize,
    rejoin: bool,
) -> Command {
    let mut command = node_command(spec, addrs, index, None);
    command
        .arg("--honest")
        .arg(spec.honest.to_string())
        .arg("--heal")
        .arg("--batch")
        .arg(batch.to_string());
    if rejoin {
        command.arg("--rejoin");
    }
    command
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
    let addrs = netbench::free_addrs(3);

    let fleet = Arc::new(Mutex::new(Some(ProcessFleet::spawn(vec![
        heal_node_command(&spec, &addrs, 1, batch, false),
        heal_node_command(&spec, &addrs, 2, batch, false),
    ]))));
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
                    .restart_member(2, heal_node_command(&spec, &addrs, 2, batch, true))
                    .expect("restart the killed member");
            }
        })
    };

    let outcome = heal::run_recovery_coordinator(&spec, batch, addrs.clone(), 2, Some(hook))
        .expect("recovery completes every round despite the kill");

    // The mid-round SIGKILL was diagnosed and exactly process 2 evicted.
    let convicted: Vec<usize> = outcome.evictions.iter().map(|v| v.process).collect();
    assert_eq!(convicted, vec![2], "exactly the killed process is evicted");
    assert!(matches!(outcome.evictions[0].kind, FaultKind::Dead));
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
        heal::build_healed_reference(&spec, &outcome.round_evicted, &outcome.round_failed);
    assert_eq!(
        netbench::serialize_reports(&outcome.reports),
        netbench::serialize_reports(&reference),
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
