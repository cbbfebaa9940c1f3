//! Sustained-throughput benchmark of the parallel runtime.
//!
//! Runs an 8-group trap-variant deployment at 1/2/4/8 worker threads and
//! reports sustained messages/sec plus the speedup over the single-worker
//! configuration. Group compute is the real curve arithmetic on this host,
//! so the scaling tracks the machine's physical core count.
//!
//! Two transports:
//!
//! * **`--transport mem`** (default): every group in this process over
//!   `InMemoryNetwork`.
//! * **`--transport tcp`**: the same deployment split across **OS processes
//!   on loopback** (coordinator + a [`netbench::ProcessFleet`] of members,
//!   groups round-robin), exchanging frames through `TcpTransport`.
//!   Defaults to 2 processes. Each member is an `atom-node` process: this
//!   binary re-executed as `throughput node <atom-node flags>`, running
//!   `netbench::run_node` on flags written by `netbench::NodeArgs`. This
//!   process runs the coordinator's side of the same recovery loop
//!   (`heal::run_recovery_coordinator`), all rounds in one batch.
//!
//! With `--sharded`, round setup runs *inside* the engine as a distributed
//! phase — each process derives only the DKGs of the groups it hosts (see
//! `atom_runtime::RoundDirectory::Sharded`) — and the sweep reports a
//! per-round setup-latency column next to the throughput numbers.
//!
//! **`--processes 1,2,3,4`** switches to the horizontal-scaling sweep: for
//! every (processes, workers-per-process) cell it runs the TCP deployment
//! twice — prebuilt directory and `--sharded` — and reports msgs/sec for
//! both plus the sharded run's setup latency. With `--out PATH` the sweep
//! is recorded as `BENCH_scale.json` (schema: `docs/benchmarks.md`), which
//! the `fig_scale` bin renders as the throughput-vs-processes curve.
//!
//! `--out` without `--processes` is an error: the only file this bin
//! records is the sweep's. The in-memory vs. TCP ratio on real compute is
//! the frozen benchmark's `engine.tcp_over_mem`.
//!
//! **`--trace PATH`** enables `atom-obs` recording fleet-wide: every
//! process records spans and counters, members ship them to the
//! coordinator in telemetry frames at round end, and the merged fleet
//! trace is written to PATH as Chrome trace-event JSON (load it in
//! Perfetto / `chrome://tracing`, or render it with the `fig_trace` bin).
//! A human-readable span summary prints alongside, and `--metrics-out
//! PATH` additionally writes the merged counter snapshots as JSON.
//! Recording is observational: round outputs are byte-identical with and
//! without it (CI asserts this).
//!
//! Usage: `cargo run --release -p atom-bench --bin throughput --
//! [--rounds N] [--messages M] [--transport mem|tcp]
//! [--processes 1,2,..] [--sharded] [--stall-timeout-ms S] [--out PATH]
//! [--trace PATH] [--metrics-out PATH]`

use std::time::{Duration, Instant};

use atom_bench::heal;
use atom_bench::netbench::{self, flag_number, flag_value, NetSpec, NodeArgs, ProcessFleet};
use atom_bench::scale::{ScaleBaseline, ScaleCell};
use atom_runtime::{Engine, RoundReport};

const GROUPS: usize = 8;
const ITERATIONS: usize = 3;
const WORKER_SWEEP: [usize; 4] = [1, 2, 4, 8];
const JSON_SWEEP: [usize; 3] = [1, 2, 4];
/// How long to wait for fleet readiness / teardown before declaring a
/// member lost. Generous: members compile nothing, but CI machines crawl.
const FLEET_TIMEOUT: Duration = Duration::from_secs(120);

#[derive(Clone, Copy, PartialEq, Eq)]
enum TransportKind {
    Mem,
    Tcp,
}

struct Args {
    rounds: usize,
    messages: usize,
    transport: TransportKind,
    sharded: bool,
    stall_timeout: Duration,
    /// Process counts of the horizontal-scaling sweep (empty = no sweep).
    processes: Vec<usize>,
    out: Option<String>,
    /// Write the merged fleet Chrome trace (trace-event JSON) here and
    /// enable span/counter recording in every process of the deployment.
    trace: Option<String>,
    /// Write the merged counter snapshots as JSON here (requires tracing).
    metrics_out: Option<String>,
}

fn parse_args() -> Result<Args, String> {
    // 64 messages/round keeps submission-proof verification (the part the
    // batched crypto engine and chunked intake accelerate) a visible share
    // of the measured path.
    let mut args = Args {
        rounds: 2,
        messages: 64,
        transport: TransportKind::Mem,
        sharded: false,
        stall_timeout: Duration::from_secs(120),
        processes: Vec::new(),
        out: None,
        trace: None,
        metrics_out: None,
    };
    let mut argv = std::env::args().skip(1);
    while let Some(flag) = argv.next() {
        let flag = flag.as_str();
        match flag {
            "--rounds" => args.rounds = flag_number(flag, argv.next())?,
            "--messages" => args.messages = flag_number(flag, argv.next())?,
            "--transport" => {
                args.transport = match flag_value(flag, argv.next())?.as_str() {
                    "mem" => TransportKind::Mem,
                    "tcp" => TransportKind::Tcp,
                    other => return Err(format!("unknown transport {other} (mem or tcp)")),
                }
            }
            "--processes" => {
                args.processes = (flag_value(flag, argv.next())?.split(','))
                    .map(|count| flag_number(flag, Some(count.trim().to_string())))
                    .collect::<Result<_, _>>()?
            }
            "--sharded" => args.sharded = true,
            "--stall-timeout-ms" => {
                args.stall_timeout = Duration::from_millis(flag_number(flag, argv.next())?)
            }
            "--out" => args.out = Some(flag_value(flag, argv.next())?),
            "--trace" => args.trace = Some(flag_value(flag, argv.next())?),
            "--metrics-out" => args.metrics_out = Some(flag_value(flag, argv.next())?),
            other => return Err(format!("unknown flag {other}")),
        }
    }
    if args.processes.contains(&0) {
        return Err("--processes counts must be >= 1".into());
    }
    if !args.processes.is_empty() && args.transport != TransportKind::Tcp {
        return Err("--processes sweeps OS processes; add --transport tcp".into());
    }
    if args.out.is_some() && args.processes.is_empty() {
        return Err(
            "--out records the --processes sweep; add --transport tcp --processes 1,2,..".into(),
        );
    }
    if args.metrics_out.is_some() && args.trace.is_none() {
        return Err("--metrics-out needs --trace (recording is off otherwise)".into());
    }
    Ok(args)
}

fn spec(args: &Args) -> NetSpec {
    NetSpec {
        groups: GROUPS,
        rounds: args.rounds,
        messages: args.messages,
        iterations: ITERATIONS,
        seed: 0xBE_AC0,
        sharded: args.sharded,
        stall_timeout: args.stall_timeout,
        trace: args.trace.is_some(),
        honest: 1,
        ..NetSpec::default()
    }
}

/// One in-memory run; returns (wall, delivered, max per-round setup
/// latency). Under `NetSpec::sharded` the jobs derive their directory
/// inside the engine (single-process sharding: every group is hosted
/// here), so the setup column measures the same code path the TCP mode
/// distributes.
fn run_memory(spec: &NetSpec, workers: usize) -> (Duration, usize, Duration, Vec<RoundReport>) {
    use atom_runtime::EngineOptions;
    if spec.trace {
        // The harness process persists across sweep cells while round
        // numbers repeat, so each traced run starts from a clean recorder.
        atom_obs::reset();
        atom_obs::set_process(0);
        atom_obs::set_enabled(true);
    }
    let jobs = heal::fleet_jobs(spec);
    let engine = Engine::new(EngineOptions::with_workers(workers));
    let start = Instant::now();
    let reports = engine.run_rounds(jobs);
    let wall = start.elapsed();
    let reports: Vec<_> = reports.into_iter().map(|r| r.expect("round")).collect();
    let delivered: usize = reports.iter().map(|r| r.output.plaintexts.len()).sum();
    let setup = reports
        .iter()
        .map(|r| r.setup_latency)
        .max()
        .unwrap_or_default();
    (wall, delivered, setup, reports)
}

/// One TCP-loopback run split across `processes` OS processes: this
/// process coordinates, a [`ProcessFleet`] of freshly spawned children
/// hosts the rest of the groups (with `processes == 1`, nobody else).
/// Returns (wall, delivered, max setup latency). The timed region is the
/// coordinator's engine run ([`heal::RecoveryOutcome::engine`]) — binds,
/// the connect retry loop and job derivation happen before it on every
/// side (each process derives the batch from the plan, before the go) —
/// mirroring `run_memory`, which also derives jobs untimed. What remains
/// in the TCP column is the genuine transport cost: frame encode/decode,
/// socket hops, the process split.
///
/// A member that dies fails the run loudly — an unrecoverable fleet is an
/// error and a healed one an eviction, both fatal here, and the fleet
/// kills and reaps every child on all exit paths — never a hang, never an
/// orphan.
fn run_tcp(
    args: &Args,
    spec: &NetSpec,
    processes: usize,
    workers: usize,
) -> (Duration, usize, Duration, Vec<RoundReport>) {
    assert!(processes >= 1, "at least the coordinator process");
    if spec.trace {
        // Members are fresh processes, but this coordinator process runs
        // every cell of a sweep with repeating round numbers: reset so the
        // merged trace of each run covers only that run.
        atom_obs::reset();
    }
    let addrs = netbench::free_addrs(processes);
    let members = (1..processes)
        .map(|index| NodeArgs {
            spec: spec.clone(),
            addrs: addrs.clone(),
            index,
            workers,
            trace: args.trace.clone(),
            ..NodeArgs::default()
        })
        .collect();
    let mut fleet = ProcessFleet::spawn(netbench::this_exe_as_node(), members)
        .unwrap_or_else(|error| panic!("spawn fleet: {error}"));
    // Member listeners may come up after the coordinator's bind, but the
    // connects retry, so start order does not matter. The batch is the
    // members' default: every round at once.
    let ready = || {
        (fleet.await_ready(FLEET_TIMEOUT))
            .unwrap_or_else(|error| panic!("fleet readiness: {error}"))
    };
    // A panic here drops `fleet`, which kills and reaps every child.
    let outcome = heal::run_recovery_coordinator(spec, spec.rounds, addrs, workers, None, ready)
        .unwrap_or_else(|error| panic!("tcp run failed: {error}"));
    let evicted = &outcome.evictions;
    assert!(evicted.is_empty(), "tcp run evicted members: {evicted:?}");
    let (wall, reports) = (outcome.engine, outcome.reports);
    let delivered: usize = reports.iter().map(|r| r.output.plaintexts.len()).sum();
    let setup = reports
        .iter()
        .map(|r| r.setup_latency)
        .max()
        .unwrap_or_default();
    fleet
        .finish(FLEET_TIMEOUT)
        .unwrap_or_else(|error| panic!("fleet teardown: {error}"));
    (wall, delivered, setup, reports)
}

/// Appends every per-round fleet snapshot of `reports` to `sink` — the
/// accumulator behind `--trace` / `--metrics-out`.
fn collect_telemetry(reports: &[RoundReport], sink: &mut Vec<atom_obs::Snapshot>) {
    for report in reports {
        sink.extend(report.telemetry.iter().cloned());
    }
}

fn print_sweep(args: &Args, telemetry: &mut Vec<atom_obs::Snapshot>) {
    let spec = spec(args);
    let total_messages = args.rounds * args.messages;
    println!(
        "throughput: {GROUPS}-group trap deployment, {} rounds x {} messages, \
         real host compute, {} transport",
        args.rounds,
        args.messages,
        match args.transport {
            TransportKind::Mem => "in-memory".to_string(),
            TransportKind::Tcp => "tcp-loopback (2 processes)".to_string(),
        }
    );
    println!(
        "{:>8} {:>10} {:>12} {:>9} {:>11}",
        "workers", "wall", "msgs/sec", "speedup", "setup"
    );

    let mut baseline: Option<f64> = None;
    for workers in WORKER_SWEEP {
        let (wall, delivered, setup, reports) = match args.transport {
            TransportKind::Mem => run_memory(&spec, workers),
            TransportKind::Tcp => run_tcp(args, &spec, 2, workers),
        };
        collect_telemetry(&reports, telemetry);
        assert_eq!(delivered, total_messages, "no message may be lost");
        let rate = delivered as f64 / wall.as_secs_f64();
        let speedup = rate / *baseline.get_or_insert(rate);
        println!(
            "{workers:>8} {:>10.2?} {rate:>12.1} {speedup:>8.2}x {:>11.2?}",
            wall, setup
        );
    }
}

/// The horizontal-scaling sweep: every process count of `--processes`
/// crossed with 1/2/4 workers per process, each cell measured over TCP
/// loopback twice — prebuilt directory and `--sharded` — so the recorded
/// baseline carries both curves plus the sharded setup latency. This is
/// the measured form of the paper's throughput-vs-servers figure; real
/// multi-machine numbers are the same engine with `--addrs` pointed at
/// real NICs (see `docs/operations.md`).
fn run_scale_sweep(args: &Args, telemetry: &mut Vec<atom_obs::Snapshot>) -> ScaleBaseline {
    let total_messages = args.rounds * args.messages;
    println!(
        "scale sweep: {GROUPS}-group trap deployment, {} rounds x {} messages, \
         processes {:?} x workers {JSON_SWEEP:?}",
        args.rounds, args.messages, args.processes
    );
    println!(
        "{:>10} {:>9} {:>12} {:>14} {:>10}",
        "processes", "workers", "msgs/sec", "sharded msgs/s", "setup"
    );
    let mut cells = Vec::new();
    for &processes in &args.processes {
        for workers in JSON_SWEEP {
            let mut normal = spec(args);
            normal.sharded = false;
            let (wall, delivered, _, reports) = run_tcp(args, &normal, processes, workers);
            assert_eq!(delivered, total_messages, "no message may be lost");
            let rate = delivered as f64 / wall.as_secs_f64();
            collect_telemetry(&reports, telemetry);

            let mut sharded = spec(args);
            sharded.sharded = true;
            let (sharded_wall, sharded_delivered, setup, sharded_reports) =
                run_tcp(args, &sharded, processes, workers);
            assert_eq!(sharded_delivered, total_messages, "no message may be lost");
            let sharded_rate = sharded_delivered as f64 / sharded_wall.as_secs_f64();
            collect_telemetry(&sharded_reports, telemetry);

            // Per-phase medians come from both instrumented runs of this
            // cell — the sharded one is the only one that records `setup`
            // spans (all zeros when the sweep runs untraced).
            let cell_snaps: Vec<atom_obs::Snapshot> = reports
                .iter()
                .chain(sharded_reports.iter())
                .flat_map(|report| report.telemetry.iter().cloned())
                .collect();

            let setup_ms = setup.as_secs_f64() * 1e3;
            println!(
                "{processes:>10} {workers:>9} {rate:>12.1} {sharded_rate:>14.1} {setup_ms:>7.1} ms"
            );
            cells.push(ScaleCell {
                processes,
                workers_per_process: workers,
                msgs_per_sec: rate,
                sharded_msgs_per_sec: sharded_rate,
                setup_ms,
                setup_p50_ms: atom_obs::phase_median_ms(&cell_snaps, "setup"),
                intake_p50_ms: atom_obs::phase_median_ms(&cell_snaps, "intake"),
                mix_p50_ms: atom_obs::phase_median_ms(&cell_snaps, "mix"),
                verify_p50_ms: atom_obs::phase_median_ms(&cell_snaps, "verify"),
            });
        }
    }
    ScaleBaseline {
        groups: GROUPS,
        rounds: args.rounds,
        messages: args.messages,
        iterations: ITERATIONS,
        cells,
    }
}

fn main() {
    if let Some(status) = netbench::node_mode() {
        std::process::exit(status);
    }
    let args = parse_args().unwrap_or_else(|error| {
        eprintln!("throughput: {error}");
        std::process::exit(2)
    });
    let mut telemetry: Vec<atom_obs::Snapshot> = Vec::new();
    if args.processes.is_empty() {
        print_sweep(&args, &mut telemetry);
    } else {
        let baseline = run_scale_sweep(&args, &mut telemetry);
        if let Some(path) = &args.out {
            std::fs::write(path, baseline.to_json()).expect("write BENCH_scale.json");
            println!("wrote {path}");
        }
    }
    netbench::write_telemetry(
        args.trace.as_deref(),
        args.metrics_out.as_deref(),
        &telemetry,
    )
    .unwrap_or_else(|error| panic!("{error}"));
}
