//! The recovery experiment: how fast a self-healing fleet gets back to
//! delivering rounds after losing a member. A three-process deployment
//! (coordinator here, members this binary re-executed as `recovery node
//! <atom-node flags>`) loses member 2 to a SIGKILL at `--kill-at`, restarts
//! it at `--restart-at`, and records kill → verdict, detection → first
//! healed round and the healed throughput; a run without an eviction and a
//! readmitted rejoin fails instead. `docs/benchmarks.md` describes the
//! recorded `BENCH_recovery.json` ([`atom_bench::recovery`]).
//!
//! Usage: `cargo run --release -p atom-bench --bin recovery --
//! [--rounds N] [--messages M] [--kill-at R] [--restart-at R]
//! [--batch B] [--honest H] [--out PATH]`

use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use atom_bench::netbench::{self, ProcessFleet};
use atom_bench::recovery::RecoveryBaseline;
use atom_runtime::fleet::{self, flag_number, flag_value, NetSpec, NodeArgs};
use atom_runtime::RoundCompleteHook;

const PROCESSES: usize = 3;
const GROUPS: usize = 3;

struct Args {
    spec: NetSpec,
    batch: usize,
    workers: usize,
    kill_at: usize,
    restart_at: usize,
    out: Option<String>,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        spec: NetSpec {
            groups: GROUPS,
            rounds: 8,
            messages: 12,
            iterations: 2,
            seed: 0x4EA1_BEAC,
            stall_timeout: Duration::from_secs(2),
            trace: false,
            honest: 2,
            ..NetSpec::default()
        },
        batch: 1,
        workers: 2,
        kill_at: 1,
        restart_at: 3,
        out: None,
    };
    let mut argv = std::env::args().skip(1);
    while let Some(flag) = argv.next() {
        let (spec, flag) = (&mut args.spec, flag.as_str());
        match flag {
            "--rounds" => spec.rounds = flag_number(flag, argv.next())?,
            "--messages" => spec.messages = flag_number(flag, argv.next())?,
            "--iterations" => spec.iterations = flag_number(flag, argv.next())?,
            "--seed" => spec.seed = flag_number(flag, argv.next())?,
            "--stall-timeout-ms" => {
                spec.stall_timeout = Duration::from_millis(flag_number(flag, argv.next())?)
            }
            "--honest" => spec.honest = flag_number(flag, argv.next())?,
            "--batch" => args.batch = flag_number(flag, argv.next())?,
            "--workers" => args.workers = flag_number(flag, argv.next())?,
            "--kill-at" => args.kill_at = flag_number(flag, argv.next())?,
            "--restart-at" => args.restart_at = flag_number(flag, argv.next())?,
            "--out" => args.out = Some(flag_value(flag, argv.next())?),
            other => return Err(format!("unknown flag {other}")),
        }
    }
    // The restart lands at or past `restart_at` in a batch after the kill's;
    // a later batch start's handshake reads its request and readmits it.
    let end = |round: usize| (round / args.batch + 1) * args.batch;
    if args.kill_at >= args.restart_at
        || end(args.restart_at.max(end(args.kill_at))) + args.batch >= args.spec.rounds
    {
        return Err("need kill-at < restart-at and a batch left after the readmission".into());
    }
    Ok(args)
}

fn main() {
    if let Some(status) = netbench::node_mode() {
        std::process::exit(status);
    }
    let args = parse_args().unwrap_or_else(|error| {
        eprintln!("recovery: {error}");
        std::process::exit(2)
    });
    let addrs = fleet::free_addrs(PROCESSES);
    // No `--batch`: each plan names a member's rounds and offset.
    let member = |index, rejoin| NodeArgs {
        spec: args.spec.clone(),
        addrs: addrs.clone(),
        index,
        workers: args.workers,
        rejoin,
        ..NodeArgs::default()
    };
    let fleet = ProcessFleet::spawn(
        netbench::this_exe_as_node(),
        vec![member(1, false), member(2, false)],
    )
    .unwrap_or_else(|error| panic!("spawn fleet: {error}"));
    let fleet = Arc::new(Mutex::new(Some(fleet)));
    println!(
        "recovery: {GROUPS}-group healing deployment over {PROCESSES} processes, \
         {} rounds x {} messages (batch {}, h = {}); killing process 2 after \
         round {}, restarting after round {}",
        args.spec.rounds,
        args.spec.messages,
        args.batch,
        args.spec.honest,
        args.kill_at,
        args.restart_at
    );

    // Rounds complete in any order: each action fires on the first completion
    // at or past its round, the restart only in a batch after the kill's (a
    // restart before the conviction could take over the address unseen), and
    // it waits for the member to join, so a later batch start reads it.
    let killed_at = Arc::new(Mutex::new(None));
    let hook: RoundCompleteHook = {
        let (fleet, killed_at) = (fleet.clone(), killed_at.clone());
        let restart = Arc::new(Mutex::new(Some(member(2, true))));
        let (kill_at, restart_at, batch) = (args.kill_at, args.restart_at, args.batch);
        Arc::new(move |round| {
            let mut guard = fleet.lock().unwrap();
            let fleet = guard.as_mut().expect("fleet alive during the run");
            let mut killed = killed_at.lock().unwrap();
            if killed.is_none() && round >= kill_at {
                *killed = Some(((round / batch + 1) * batch, Instant::now()));
                fleet.kill_member(2);
            } else if killed.is_some_and(|(kill_end, _)| round >= restart_at.max(kill_end)) {
                if let Some(node) = restart.lock().unwrap().take() {
                    (fleet.restart_member(node))
                        .and_then(|()| fleet.await_ready(Duration::from_secs(10)))
                        .expect("restart the killed member");
                }
            }
        })
    };

    let (spec, workers) = (&args.spec, args.workers);
    let start = Instant::now(); // an instant before the coordinator's own
    let outcome =
        fleet::run_recovery_coordinator(spec, args.batch, addrs, workers, Some(hook), || {})
            .unwrap_or_else(|(error, _)| {
                if let Some(fleet) = fleet.lock().unwrap().as_mut() {
                    fleet.kill_all();
                }
                panic!("recovery run failed: {error}");
            });
    fleet
        .lock()
        .unwrap()
        .take()
        .expect("fleet still owned")
        .finish(Duration::from_secs(120))
        .unwrap_or_else(|error| panic!("fleet teardown: {error}"));

    let delivered: usize = (outcome.reports.iter())
        .map(|r| r.output.plaintexts.len())
        .sum();
    assert_eq!(
        delivered,
        args.spec.rounds * args.spec.messages,
        "the healed run may not lose messages"
    );
    let detected_at = outcome
        .detected_at
        .expect("the kill must be detected for the experiment to mean anything");
    let healed_latency = outcome
        .healed_latency
        .expect("at least one round must complete after the detection");
    let (_, killed_at) = killed_at.lock().unwrap().expect("the member was killed");
    let healed_window = outcome.wall.saturating_sub(detected_at);
    let healed_delivered = outcome.healed_rounds.len() * args.spec.messages;

    let baseline = RecoveryBaseline {
        processes: PROCESSES,
        groups: GROUPS,
        rounds: args.spec.rounds,
        messages: args.spec.messages,
        iterations: args.spec.iterations,
        batch: args.batch,
        honest: args.spec.honest,
        evictions: outcome.evictions.len(),
        rejoins: outcome.rejoins.len(),
        epochs: outcome.epochs,
        kill_to_verdict_ms: (start + detected_at - killed_at).as_secs_f64() * 1e3,
        detection_to_healed_ms: healed_latency.as_secs_f64() * 1e3,
        msgs_per_sec: delivered as f64 / outcome.wall.as_secs_f64(),
        healed_msgs_per_sec: healed_delivered as f64 / healed_window.as_secs_f64(),
        wall_ms: outcome.wall.as_secs_f64() * 1e3,
    };
    println!(
        "recovery: {} eviction(s), {} rejoin(s) over {} epoch(s); kill -> verdict {:.1} ms; \
         detection -> first healed round {:.1} ms; {:.1} msgs/sec overall, {:.1} healed",
        baseline.evictions,
        baseline.rejoins,
        baseline.epochs,
        baseline.kill_to_verdict_ms,
        baseline.detection_to_healed_ms,
        baseline.msgs_per_sec,
        baseline.healed_msgs_per_sec
    );
    baseline
        .check()
        .unwrap_or_else(|error| panic!("the fleet did not heal: {error}"));
    if let Some(path) = &args.out {
        std::fs::write(path, baseline.to_json()).expect("write BENCH_recovery.json");
        println!("wrote {path}");
    }
}
