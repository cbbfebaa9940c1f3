//! Shared pieces of the multi-process (TCP transport) harnesses.
//!
//! A multi-process run has no shared memory, so every process derives the
//! *same* rounds — setups, submissions, seeds — from a [`NetSpec`] it was
//! handed on the command line, and the node→process assignment is a pure
//! function of `(groups, processes)`. This module owns the spec, each
//! round's configuration and a canonical byte serialization of round
//! outputs, which is what the TCP loopback equivalence test compares
//! against a single-process run — byte-for-byte, not just set-equal. The
//! rounds' jobs are derived in one place, [`crate::heal`]'s ledger, over an
//! eviction log that a fault-free run leaves empty
//! ([`heal::fleet_jobs`]).
//!
//! It also owns the one fleet process: [`NodeArgs`] (its flags, parsed and
//! written by one codec) and [`run_node`] (its run: the recovery loop of
//! [`crate::heal`], the same on every process), which `atom-node` and every
//! harness-spawned member run, and [`ProcessFleet`], the one supervisor of
//! child processes.

use std::ffi::OsString;
use std::io::{BufRead, BufReader, Write};
use std::process::{Child, Command, ExitStatus, Stdio};
use std::sync::mpsc;
use std::time::{Duration, Instant};

use atom_core::config::{AtomConfig, Defense};
use atom_net::NodeId;
use atom_runtime::RoundReport;

use crate::heal;

/// Everything a process needs to derive a multi-process workload
/// deterministically.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct NetSpec {
    /// Anytrust groups in the deployment.
    pub groups: usize,
    /// Rounds. A fleet runs them in batches of `NodeArgs::batch`, by
    /// default one batch, so every round is in flight at once.
    pub rounds: usize,
    /// Submissions per round.
    pub messages: usize,
    /// Mixing iterations.
    pub iterations: usize,
    /// Deterministic seed for setup, submissions and mixing.
    pub seed: u64,
    /// Sharded directory mode: each engine process derives only the DKGs of
    /// its hosted groups inside the run (`RoundJob::sharded`) instead of
    /// every process re-deriving the full directory up front. Members skip
    /// submission generation entirely; the coordinator still derives the
    /// full directory *outside* the engine to play the users (submissions
    /// must encrypt to the entry groups' keys), mirroring a real
    /// deployment where clients read the published directory.
    pub sharded: bool,
    /// Engine stall detector (`EngineOptions::stall_timeout`): how long a
    /// process waits with no task progress before failing its unresolved
    /// rounds — the budget for declaring a silent peer dead. Operational,
    /// not part of the workload derivation, but carried here so every
    /// process of a deployment agrees on it like on every other knob.
    pub stall_timeout: Duration,
    /// Enables `atom-obs` span/counter recording in every process of the
    /// deployment. Members then ship telemetry frames to the coordinator at
    /// round end, so it must be on fleet-wide or not at all — which is why
    /// it lives in the spec rather than in a per-process flag. Recording is
    /// observational only: round outputs are byte-identical either way.
    pub trace: bool,
    /// Coordinator round clock (`EngineOptions::round_deadline`; zero =
    /// disabled): the wall-clock budget a round gets before the coordinator
    /// fails it even though progress keeps trickling in. The slow-loris
    /// countermeasure — a peer dripping one frame per stall window resets
    /// the stall detector forever, but cannot stop the round clock. Armed
    /// on the coordinator only: it owns the diagnosis, and a member that
    /// also deadlined would race its `abort` against the coordinator's
    /// verdict and turn a `Slow` conviction into a `Blamed` one.
    pub round_deadline: Duration,
    /// Slow-loris drip (zero = none): member process 1 sends through
    /// `atom_runtime::scenarios::slow_groups`, so each mixing step of its
    /// hosted groups costs this much wall time where its frames leave,
    /// while everyone else runs at full speed. Combined with
    /// `round_deadline` this is the chaos-drill knob: the drip defeats the
    /// stall detector, the round clock catches it anyway.
    pub loris: Duration,
    /// Honest members assumed per group (`h`): the DKG threshold becomes
    /// `k − (h − 1)`, so `h − 1` member losses per group heal by Lagrange
    /// reweighting alone and only deeper losses need the buddy escrow. The
    /// default (1) keeps the historical all-shares threshold; the recovery
    /// harness runs with 2 so evictions exercise both healing paths.
    pub honest: usize,
}

impl Default for NetSpec {
    fn default() -> Self {
        Self {
            groups: 4,
            rounds: 2,
            messages: 16,
            iterations: 2,
            seed: 0xA70,
            sharded: false,
            stall_timeout: Duration::from_secs(120),
            round_deadline: Duration::ZERO,
            loris: Duration::ZERO,
            trace: false,
            honest: 1,
        }
    }
}

/// The deployment configuration of round `round` under `spec`.
pub(crate) fn round_config(spec: &NetSpec, round: usize) -> AtomConfig {
    let mut config = AtomConfig::test_default();
    config.defense = Defense::Trap;
    config.num_groups = spec.groups;
    config.num_servers = (spec.groups * 3).max(config.group_size);
    config.required_honest = spec.honest;
    config.iterations = spec.iterations;
    config.message_len = 32;
    config.round = round as u64;
    config.beacon_seed = spec.seed ^ round as u64;
    config
}

/// The group ids process `index` hosts under an owner map
/// ([`heal::owner_map_excluding`]).
pub fn hosted_groups(owner: &[NodeId], index: usize) -> Vec<usize> {
    let groups = owner.len() - 1; // last node is the orchestrator
    (0..groups).filter(|&gid| owner[gid] == index).collect()
}

/// Canonical bytes of the deterministic fields of round outputs
/// (`plaintexts`, `per_group`, `routed_ciphertexts`). Two runs of the same
/// spec — whatever the transport, worker count or process layout — must
/// serialize identically; timings and traffic are excluded because wall
/// clocks are not reproducible.
pub fn serialize_reports(reports: &[RoundReport]) -> Vec<u8> {
    let mut out = Vec::new();
    let put_bytes = |out: &mut Vec<u8>, bytes: &[u8]| {
        out.extend_from_slice(&(bytes.len() as u32).to_le_bytes());
        out.extend_from_slice(bytes);
    };
    out.extend_from_slice(&(reports.len() as u32).to_le_bytes());
    for report in reports {
        let output = &report.output;
        out.extend_from_slice(&(output.routed_ciphertexts as u32).to_le_bytes());
        out.extend_from_slice(&(output.per_group.len() as u32).to_le_bytes());
        for group in &output.per_group {
            out.extend_from_slice(&(group.len() as u32).to_le_bytes());
            for payload in group {
                put_bytes(&mut out, payload);
            }
        }
        out.extend_from_slice(&(output.plaintexts.len() as u32).to_le_bytes());
        for payload in &output.plaintexts {
            put_bytes(&mut out, payload);
        }
    }
    out
}

/// Reserves `count` distinct loopback addresses by briefly binding port-0
/// listeners. Racy in principle — the listeners are dropped before the
/// processes rebind — but the window is milliseconds, a collision fails
/// loudly, and addresses must be known *before* the child processes spawn
/// (the race-free `TcpTransport::bind_any` + `set_peer_addr` dance only
/// works within one process).
pub fn free_addrs(count: usize) -> Vec<String> {
    let listeners: Vec<std::net::TcpListener> = (0..count)
        .map(|_| std::net::TcpListener::bind("127.0.0.1:0").expect("reserve loopback port"))
        .collect();
    listeners
        .iter()
        .map(|listener| listener.local_addr().expect("resolve port").to_string())
        .collect()
}

/// The command line of one fleet process: `atom-node`'s flags, read by
/// [`NodeArgs::parse`], written by [`NodeArgs::argv`] and run by
/// [`run_node`]. Every harness that spawns fleet processes goes through
/// this one codec, so the flag-agreement rules of `docs/operations.md`
/// live in one place.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct NodeArgs {
    /// The workload (`--groups`, `--rounds`, `--messages`, `--iterations`,
    /// `--seed`, `--sharded`, `--stall-timeout-ms`, `--honest`); every
    /// process of a deployment must get the same one.
    pub spec: NetSpec,
    /// One listen address per process, in process-index order (`--addrs`).
    pub addrs: Vec<String>,
    /// This process's index in `addrs`; 0 is the coordinator (`--index`).
    pub index: usize,
    /// Engine worker threads (`--workers`); free to differ per process.
    pub workers: usize,
    /// Members only (`--rejoin`): announce as a restarted process instead
    /// of expecting to be in the fleet from round 0.
    pub rejoin: bool,
    /// Rounds per batch (`--batch`), the re-formation and readmission
    /// boundary spacing; `None` runs every round in one batch
    /// ([`NodeArgs::rounds_per_batch`]).
    pub batch: Option<usize>,
    /// Coordinator: write the canonical round outputs here (`--out`).
    pub out: Option<String>,
    /// Coordinator: write the merged fleet Chrome trace here (`--trace`).
    /// Every process passes it to turn recording on; members ignore the
    /// path. Mirrors `spec.trace`.
    pub trace: Option<String>,
    /// Coordinator: write the merged counter snapshots here
    /// (`--metrics-out`, needs `--trace`).
    pub metrics_out: Option<String>,
}

impl Default for NodeArgs {
    fn default() -> Self {
        Self {
            spec: NetSpec::default(),
            addrs: Vec::new(),
            index: 0,
            workers: 2,
            rejoin: false,
            batch: None,
            out: None,
            trace: None,
            metrics_out: None,
        }
    }
}

/// What [`node_main`] prints after a flag error.
const NODE_USAGE: &str = "usage: atom-node --index I --addrs HOST:PORT,HOST:PORT[,..] \
     [--groups G] [--rounds R] [--messages M] [--iterations N] [--seed S] [--sharded] \
     [--stall-timeout-ms T] [--honest H] [--workers W] [--rejoin] [--batch B] \
     [--out PATH] [--trace PATH [--metrics-out PATH]]";

/// The value after `flag`, or the error that it is missing.
pub fn flag_value(flag: &str, value: Option<String>) -> Result<String, String> {
    value.ok_or_else(|| format!("{flag} needs an argument"))
}

/// The number after `flag`, or the error that it is missing or malformed.
pub fn flag_number<T: std::str::FromStr>(flag: &str, value: Option<String>) -> Result<T, String> {
    let value = flag_value(flag, value)?;
    value
        .parse()
        .map_err(|_| format!("{flag} needs a number, got {value:?}"))
}

impl NodeArgs {
    /// Reads a fleet process's flags (without the program name). Every
    /// check runs here, before the process binds anything, so a bad
    /// command line is an error on every process rather than a panic on
    /// one of them mid-run.
    pub fn parse(argv: impl IntoIterator<Item = String>) -> Result<Self, String> {
        let mut args = Self::default();
        let mut argv = argv.into_iter();
        while let Some(flag) = argv.next() {
            let (spec, flag) = (&mut args.spec, flag.as_str());
            match flag {
                "--index" => args.index = flag_number(flag, argv.next())?,
                "--addrs" => {
                    args.addrs = (flag_value(flag, argv.next())?.split(','))
                        .map(str::trim)
                        .filter(|addr| !addr.is_empty())
                        .map(String::from)
                        .collect()
                }
                "--groups" => spec.groups = flag_number(flag, argv.next())?,
                "--rounds" => spec.rounds = flag_number(flag, argv.next())?,
                "--messages" => spec.messages = flag_number(flag, argv.next())?,
                "--iterations" => spec.iterations = flag_number(flag, argv.next())?,
                "--seed" => spec.seed = flag_number(flag, argv.next())?,
                "--sharded" => spec.sharded = true,
                "--stall-timeout-ms" => {
                    spec.stall_timeout = Duration::from_millis(flag_number(flag, argv.next())?)
                }
                "--honest" => spec.honest = flag_number(flag, argv.next())?,
                "--workers" => args.workers = flag_number(flag, argv.next())?,
                "--rejoin" => args.rejoin = true,
                "--batch" => args.batch = Some(flag_number(flag, argv.next())?),
                "--out" => args.out = Some(flag_value(flag, argv.next())?),
                "--trace" => args.trace = Some(flag_value(flag, argv.next())?),
                "--metrics-out" => args.metrics_out = Some(flag_value(flag, argv.next())?),
                other => return Err(format!("unknown flag {other}")),
            }
        }
        args.spec.trace = args.trace.is_some();
        if args.addrs.len() < 2 {
            return Err(format!(
                "--addrs needs at least coordinator + one member (got {})",
                args.addrs.len()
            ));
        }
        if args.index >= args.addrs.len() {
            return Err(format!(
                "--index {} out of range for {} addresses",
                args.index,
                args.addrs.len()
            ));
        }
        if args.metrics_out.is_some() && args.trace.is_none() {
            return Err("--metrics-out needs --trace (recording is off otherwise)".into());
        }
        if let Err(error) = round_config(&args.spec, 0).validate() {
            return Err(format!("the workload flags name no deployment: {error:?}"));
        }
        if args.batch == Some(0) {
            return Err("--batch must be at least one round".into());
        }
        if args.rejoin && args.index == 0 {
            return Err("--rejoin is for a restarted member; the coordinator never rejoins".into());
        }
        Ok(args)
    }

    /// Rounds per batch: `--batch`, or all of `--rounds` in one batch. Every
    /// process resolves it the same way, so all agree on the epoch fence
    /// (`round_offset = epoch × batch`).
    pub fn rounds_per_batch(&self) -> usize {
        self.batch.unwrap_or(self.spec.rounds)
    }

    /// The flags [`NodeArgs::parse`] reads back as `self`. Refuses what no
    /// flag can carry rather than dropping it: the in-process drill knobs
    /// (`NetSpec::loris`, `NetSpec::round_deadline`), a stall timeout finer
    /// than a millisecond, and a `spec.trace` without a `--trace` path.
    pub fn argv(&self) -> Result<Vec<String>, String> {
        let spec = &self.spec;
        let stall_ms = spec.stall_timeout.as_millis() as u64;
        if !spec.loris.is_zero() || !spec.round_deadline.is_zero() {
            return Err(
                "loris and round_deadline are in-process drill knobs; no flag carries them".into(),
            );
        }
        if Duration::from_millis(stall_ms) != spec.stall_timeout {
            return Err("--stall-timeout-ms carries whole milliseconds only".into());
        }
        if spec.trace != self.trace.is_some() {
            return Err("spec.trace is set exactly when --trace has a path".into());
        }
        let paths = [
            ("--out", &self.out),
            ("--trace", &self.trace),
            ("--metrics-out", &self.metrics_out),
        ];
        let switches = [("--sharded", spec.sharded), ("--rejoin", self.rejoin)];
        let valued = [
            ("--index", self.index.to_string()),
            ("--addrs", self.addrs.join(",")),
            ("--groups", spec.groups.to_string()),
            ("--rounds", spec.rounds.to_string()),
            ("--messages", spec.messages.to_string()),
            ("--iterations", spec.iterations.to_string()),
            ("--seed", spec.seed.to_string()),
            ("--stall-timeout-ms", stall_ms.to_string()),
            ("--honest", spec.honest.to_string()),
            ("--workers", self.workers.to_string()),
        ]
        .into_iter()
        .chain(self.batch.map(|batch| ("--batch", batch.to_string())))
        .chain(
            paths
                .into_iter()
                .filter_map(|(flag, path)| Some((flag, path.clone()?))),
        );
        Ok(valued
            .flat_map(|(flag, value)| [flag.to_string(), value])
            .chain(
                switches
                    .into_iter()
                    .filter(|&(_, on)| on)
                    .map(|(flag, _)| flag.into()),
            )
            .collect())
    }
}

/// Prints [`READY_LINE`]: this process has joined the fleet.
fn announce_ready() {
    println!("{READY_LINE}");
    std::io::stdout().flush().expect("flush readiness signal");
}

/// One fleet process start to finish: join the mesh and run the recovery
/// loop of [`crate::heal`] — the handshake loop on a member, the
/// coordinator's loop on process 0, which then checks that no message was
/// lost and writes the `--out`, `--trace` and `--metrics-out` files from
/// its round reports. Member-side round failures during churn are not
/// fatal: the coordinator owns the diagnosis. A lost message or an
/// unrecoverable fleet is an `Err`.
pub fn run_node(args: &NodeArgs) -> Result<(), String> {
    let (spec, index, addrs) = (&args.spec, args.index, args.addrs.clone());
    let (batch, workers) = (args.rounds_per_batch(), args.workers);
    if index != 0 {
        heal::run_healing_member(
            spec,
            batch,
            addrs,
            index,
            workers,
            args.rejoin,
            announce_ready,
        )?;
        println!("atom-node member {index}: left the deployment cleanly");
        return Ok(());
    }
    let outcome = heal::run_recovery_coordinator(spec, batch, addrs, workers, None, announce_ready)
        .map_err(|error| format!("recovery failed: {error}"))?;
    let reports = outcome.reports;
    let delivered: usize = reports.iter().map(|r| r.output.plaintexts.len()).sum();
    if delivered != spec.rounds * spec.messages {
        return Err(format!(
            "{delivered} of {} messages delivered; no message may be lost",
            spec.rounds * spec.messages
        ));
    }
    println!(
        "atom-node coordinator: {} processes, {} groups, {} rounds x {} messages \
         -> {delivered} delivered, engine {:.2?} ({:.1} msgs/sec), {} epoch(s), \
         {} eviction(s), {} rejoin(s)",
        args.addrs.len(),
        spec.groups,
        spec.rounds,
        spec.messages,
        outcome.engine,
        delivered as f64 / outcome.engine.as_secs_f64(),
        outcome.epochs,
        outcome.evictions.len(),
        outcome.rejoins.len(),
    );
    if let Some(latency) = outcome.healed_latency {
        println!("atom-node coordinator: detection -> first healed round in {latency:.2?}");
    }
    if let Some(path) = &args.out {
        write_file(path, &serialize_reports(&reports))?;
    }
    let telemetry: Vec<atom_obs::Snapshot> = (reports.iter())
        .flat_map(|report| report.telemetry.iter().cloned())
        .collect();
    write_telemetry(
        args.trace.as_deref(),
        args.metrics_out.as_deref(),
        &telemetry,
    )
}

/// Writes `bytes` to `path` and says so on stdout.
fn write_file(path: &str, bytes: &[u8]) -> Result<(), String> {
    std::fs::write(path, bytes).map_err(|error| format!("write {path}: {error}"))?;
    println!("wrote {path}");
    Ok(())
}

/// Writes a fleet's merged snapshots as the `--trace` Chrome trace (plus
/// the span summary on stdout) and the `--metrics-out` counters.
pub fn write_telemetry(
    trace: Option<&str>,
    metrics_out: Option<&str>,
    telemetry: &[atom_obs::Snapshot],
) -> Result<(), String> {
    if let Some(path) = trace {
        write_file(path, atom_obs::chrome_trace_json(telemetry).as_bytes())?;
        print!("{}", atom_obs::text_summary(telemetry));
    }
    match metrics_out {
        Some(path) => write_file(path, atom_obs::metrics_json(telemetry).as_bytes()),
        None => Ok(()),
    }
}

/// `atom-node`'s program, also what `throughput` and `recovery` run when
/// re-executed in [`NODE_MODE`]: parse `argv` (the flags, without the
/// program name), [`run_node`] it, and return the exit status — 2 for a
/// flag error, 1 for a failed run.
pub fn node_main(argv: impl IntoIterator<Item = String>) -> i32 {
    let args = match NodeArgs::parse(argv) {
        Ok(args) => args,
        Err(error) => {
            eprintln!("atom-node: {error}\n{NODE_USAGE}");
            return 2;
        }
    };
    match run_node(&args) {
        Ok(()) => 0,
        Err(error) => {
            eprintln!("atom-node process {}: {error}", args.index);
            1
        }
    }
}

/// The leading argument that makes a harness binary run as one fleet
/// process ([`node_main`]) instead of as itself. `throughput` and
/// `recovery` re-execute themselves this way ([`this_exe_as_node`])
/// rather than spawn `atom-node`, which `cargo run --bin` would not build.
pub const NODE_MODE: &str = "node";

/// Runs this process as a fleet process if it was launched as one
/// (`<exe> node <flags>`) and returns its exit status; `None` for any
/// other invocation.
pub fn node_mode() -> Option<i32> {
    let mut argv = std::env::args().skip(1);
    (argv.next().as_deref() == Some(NODE_MODE)).then(|| node_main(argv))
}

/// The program that runs this executable in [`NODE_MODE`], for
/// [`ProcessFleet::spawn`].
pub fn this_exe_as_node() -> Vec<OsString> {
    let exe = std::env::current_exe().expect("own binary path");
    vec![exe.into(), NODE_MODE.into()]
}

/// The readiness line every fleet process prints on stdout once it has
/// joined the fleet (bound its address and connected to every peer).
/// [`ProcessFleet`] waits for it, so a child that dies during setup is
/// caught immediately.
pub const READY_LINE: &str = "atom-process-ready";

enum FleetEvent {
    /// The member printed [`READY_LINE`]. Carries the member's spawn
    /// generation so a restarted member's readiness is never confused with
    /// its predecessor's.
    Ready(usize, u64),
    /// The member's stdout hit EOF — it exited (or crashed).
    Eof(usize, u64),
}

struct FleetMember {
    /// Process index in the deployment (its `--index`).
    index: usize,
    child: Child,
    ready: bool,
    reaped: Option<ExitStatus>,
    reader: Option<std::thread::JoinHandle<()>>,
    /// Bumped by [`ProcessFleet::restart_member`]; events from a previous
    /// child of this slot carry an older generation and are ignored.
    generation: u64,
}

impl FleetMember {
    /// Reaps the child if it has exited — SIGKILLing it first and waiting
    /// when `kill` — and records how it died. Whether it is reaped.
    fn reap(&mut self, epoch: Instant, kill: bool) -> bool {
        if self.reaped.is_none() {
            let status = if kill {
                let _ = self.child.kill();
                self.child.wait().ok()
            } else {
                self.child.try_wait().ok().flatten()
            };
            if let Some(status) = status {
                record_exit(self.index, epoch, &status);
                self.reaped = Some(status);
            }
        }
        self.reaped.is_some()
    }
}

/// Human-readable exit description, including the fatal signal — a
/// SIGKILLed member reads `signal 9`, not an opaque failure.
fn describe_exit(status: &ExitStatus) -> String {
    use std::os::unix::process::ExitStatusExt;
    match (status.code(), status.signal()) {
        (Some(code), _) => format!("exit code {code}"),
        (None, Some(signal)) => {
            let core = if status.core_dumped() {
                " (core dumped)"
            } else {
                ""
            };
            format!("signal {signal}{core}")
        }
        _ => format!("{status}"),
    }
}

/// One timestamped, attributed line on stderr when a member is reaped, so
/// a churn post-mortem shows *how* each process died alongside its output.
fn record_exit(index: usize, epoch: Instant, status: &ExitStatus) {
    eprintln!(
        "[p{index} +{}ms] exited ({})",
        epoch.elapsed().as_millis(),
        describe_exit(status)
    );
}

fn spawn_reader(
    index: usize,
    generation: u64,
    stdout: std::process::ChildStdout,
    tx: mpsc::Sender<FleetEvent>,
    epoch: Instant,
) -> std::thread::JoinHandle<()> {
    std::thread::spawn(move || {
        let mut lines = BufReader::new(stdout).lines();
        while let Some(Ok(line)) = lines.next() {
            if line == READY_LINE {
                let _ = tx.send(FleetEvent::Ready(index, generation));
            } else {
                let ms = epoch.elapsed().as_millis();
                eprintln!("[p{index} +{ms}ms] {line}");
            }
        }
        let _ = tx.send(FleetEvent::Eof(index, generation));
    })
}

/// The child processes of one N-process deployment: spawned together,
/// readiness-handshaked, monitored, and — on **every** exit path, including
/// a panicking or early-returning caller — killed and reaped (`Drop`), so
/// no fleet ever leaks an orphan child.
///
/// Each child is `program` run with one [`NodeArgs`]'s flags, so it knows
/// its real process index: usually the members, with the caller as the
/// coordinator, but a coordinator child (index 0) is supervised the same
/// way. A child prints [`READY_LINE`] on stdout once it has joined.
pub struct ProcessFleet {
    /// The executable plus the arguments before the node flags.
    program: Vec<OsString>,
    members: Vec<FleetMember>,
    events: mpsc::Receiver<FleetEvent>,
    events_tx: mpsc::Sender<FleetEvent>,
    epoch: Instant,
}

impl ProcessFleet {
    /// Spawns one child per node: `program` (an executable plus any
    /// leading arguments, e.g. [`this_exe_as_node`]) followed by
    /// [`NodeArgs::argv`]. Each child's stdout is piped through a monitor
    /// thread that watches for [`READY_LINE`] and forwards every other line
    /// to this process's stderr, prefixed with the child's process index
    /// and the milliseconds elapsed since the fleet spawned — so an
    /// operator watching the coordinator sees the whole fleet's output,
    /// attributed and ordered in time (interleaving across members is
    /// otherwise unreadable during a stall post-mortem).
    pub fn spawn(program: Vec<OsString>, nodes: Vec<NodeArgs>) -> Result<Self, String> {
        let (events_tx, events) = mpsc::channel();
        let mut fleet = Self {
            program,
            members: Vec::new(),
            events,
            events_tx,
            epoch: Instant::now(),
        };
        for node in &nodes {
            let member = fleet.launch(node, 0)?;
            fleet.members.push(member);
        }
        Ok(fleet)
    }

    /// Starts one child for `node` and its stdout monitor.
    fn launch(&self, node: &NodeArgs, generation: u64) -> Result<FleetMember, String> {
        let index = node.index;
        let (exe, leading) = self.program.split_first().ok_or("an empty fleet program")?;
        let mut child = Command::new(exe)
            .args(leading)
            .args(node.argv()?)
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit())
            .spawn()
            .map_err(|error| format!("spawn fleet process {index}: {error}"))?;
        let stdout = child.stdout.take().expect("fleet member stdout piped");
        let tx = self.events_tx.clone();
        Ok(FleetMember {
            index,
            child,
            ready: false,
            reaped: None,
            reader: Some(spawn_reader(index, generation, stdout, tx, self.epoch)),
            generation,
        })
    }

    /// Blocks until every member signalled readiness. A member that exits
    /// first, or a deadline overrun, kills the whole fleet and reports
    /// which member failed — setup problems surface as errors, not hangs.
    pub fn await_ready(&mut self, timeout: Duration) -> Result<(), String> {
        let deadline = Instant::now() + timeout;
        while self.members.iter().any(|member| !member.ready) {
            let left = deadline.saturating_duration_since(Instant::now());
            match self.events.recv_timeout(left) {
                Ok(FleetEvent::Ready(index, generation)) => {
                    if let Some(member) = self
                        .members
                        .iter_mut()
                        .find(|m| m.index == index && m.generation == generation)
                    {
                        member.ready = true;
                    }
                }
                Ok(FleetEvent::Eof(index, generation)) => {
                    let premature = self
                        .members
                        .iter()
                        .any(|m| m.index == index && m.generation == generation && !m.ready);
                    if premature {
                        self.kill_all();
                        return Err(format!(
                            "fleet member process {index} exited before signalling readiness"
                        ));
                    }
                }
                Err(_) => {
                    let waiting: Vec<usize> = (self.members.iter())
                        .filter(|member| !member.ready)
                        .map(|member| member.index)
                        .collect();
                    self.kill_all();
                    return Err(format!(
                        "fleet members {waiting:?} not ready after {timeout:?}"
                    ));
                }
            }
        }
        Ok(())
    }

    /// Waits (bounded) for every child to exit, then checks the statuses.
    /// A child still running at the deadline is killed; any non-success
    /// status is reported. Either way every child is reaped before this
    /// returns.
    pub fn finish(mut self, timeout: Duration) -> Result<(), String> {
        let deadline = Instant::now() + timeout;
        loop {
            let epoch = self.epoch;
            let running: Vec<usize> = (self.members.iter_mut())
                .filter_map(|member| (!member.reap(epoch, false)).then_some(member.index))
                .collect();
            if running.is_empty() {
                break;
            }
            if Instant::now() > deadline {
                self.kill_all();
                return Err(format!(
                    "fleet processes {running:?} still running after {timeout:?}; killed"
                ));
            }
            std::thread::sleep(Duration::from_millis(20));
        }
        // Children are reaped; this only joins the monitor threads.
        self.kill_all();
        let failures: Vec<String> = self
            .members
            .iter()
            .filter_map(|member| match member.reaped {
                Some(status) if !status.success() => Some(format!(
                    "fleet member process {} exited with {}",
                    member.index,
                    describe_exit(&status)
                )),
                _ => None,
            })
            .collect();
        if failures.is_empty() {
            Ok(())
        } else {
            Err(failures.join("; "))
        }
    }

    /// Kills one member by its deployment process index (fault injection:
    /// the chaos tests kill a member mid-round and assert the coordinator
    /// evicts it and the surviving fleet heals).
    pub fn kill_member(&mut self, index: usize) {
        let epoch = self.epoch;
        if let Some(member) = self.members.iter_mut().find(|m| m.index == index) {
            member.reap(epoch, true);
        }
    }

    /// The exit status of member `index`, if it has been reaped — on Unix
    /// the status carries the fatal signal, so a chaos test can assert the
    /// member died of SIGKILL rather than of its own accord.
    pub fn member_status(&self, index: usize) -> Option<ExitStatus> {
        self.members
            .iter()
            .find(|m| m.index == index)
            .and_then(|m| m.reaped)
    }

    /// Restarts a dead member slot as `node` (same process index — rejoin
    /// drills restart the killed process on its old address). Errors if
    /// the old child is still running. The new child gets a fresh
    /// generation, so stale events from its predecessor are ignored; wait
    /// for it with [`ProcessFleet::await_ready`].
    pub fn restart_member(&mut self, node: NodeArgs) -> Result<(), String> {
        let (index, epoch) = (node.index, self.epoch);
        let slot = (self.members.iter())
            .position(|m| m.index == index)
            .ok_or_else(|| format!("no fleet member with process index {index}"))?;
        let member = &mut self.members[slot];
        if !member.reap(epoch, false) {
            return Err(format!("fleet member {index} is still running"));
        }
        if let Some(reader) = member.reader.take() {
            let _ = reader.join();
        }
        let generation = member.generation + 1;
        self.members[slot] = self.launch(&node, generation)?;
        eprintln!("[p{index} +{}ms] restarted", epoch.elapsed().as_millis());
        Ok(())
    }

    /// Kills and reaps every still-running member and joins the monitor
    /// threads. Idempotent; also what `Drop` runs, so no exit path —
    /// including a caller panic — orphans a child process.
    pub fn kill_all(&mut self) {
        for member in &mut self.members {
            member.reap(self.epoch, true);
            if let Some(reader) = member.reader.take() {
                let _ = reader.join();
            }
        }
    }
}

impl Drop for ProcessFleet {
    fn drop(&mut self) {
        self.kill_all();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::heal::{fleet_jobs, owner_map_excluding, RecoveryLedger};
    use atom_runtime::{Engine, RoundSubmissions};

    #[test]
    fn owner_map_round_robins_groups_and_pins_the_orchestrator() {
        let owner_map = |groups, processes| owner_map_excluding(groups, processes, &[]);
        assert_eq!(owner_map(4, 2), vec![0, 1, 0, 1, 0]);
        assert_eq!(owner_map(3, 1), vec![0, 0, 0, 0]);
        assert_eq!(hosted_groups(&owner_map(4, 2), 0), vec![0, 2]);
        assert_eq!(hosted_groups(&owner_map(4, 2), 1), vec![1, 3]);
        assert_eq!(hosted_groups(&owner_map(4, 3), 2), vec![2]);
    }

    #[test]
    fn job_derivation_is_deterministic() {
        let spec = NetSpec::default();
        let a = fleet_jobs(&spec);
        let b = fleet_jobs(&spec);
        assert_eq!(a.len(), b.len());
        for (ja, jb) in a.iter().zip(&b) {
            assert_eq!(ja.seed, jb.seed);
            assert_eq!(
                ja.full_setup().unwrap().groups[0].public_key.0,
                jb.full_setup().unwrap().groups[0].public_key.0
            );
        }
    }

    #[test]
    fn sharded_jobs_match_the_prebuilt_jobs_byte_for_byte() {
        let spec = NetSpec {
            groups: 2,
            rounds: 2,
            messages: 4,
            ..NetSpec::default()
        };
        let reference: Vec<_> = Engine::with_workers(2)
            .run_rounds(fleet_jobs(&spec))
            .into_iter()
            .collect::<Result<_, _>>()
            .unwrap();
        let sharded: Vec<_> = Engine::with_workers(2)
            .run_rounds(fleet_jobs(&NetSpec {
                sharded: true,
                ..spec.clone()
            }))
            .into_iter()
            .collect::<Result<_, _>>()
            .unwrap();
        assert_eq!(
            serialize_reports(&reference),
            serialize_reports(&sharded),
            "sharded derivation must not change a single output byte"
        );
        assert!(sharded
            .iter()
            .all(|r| r.setup_latency > Duration::from_nanos(0)));
    }

    #[test]
    fn memberless_sharded_jobs_skip_submission_generation() {
        let spec = NetSpec {
            sharded: true,
            ..NetSpec::default()
        };
        let ledger = RecoveryLedger::default();
        for job in ledger.batch_jobs(&spec, 0..spec.rounds, false).unwrap() {
            match &job.submissions {
                RoundSubmissions::Trap(subs) => assert!(subs.is_empty()),
                other => panic!("expected trap submissions, got {other:?}"),
            }
            assert!(job.full_setup().is_none(), "no prebuilt directory");
        }
    }

    #[test]
    fn serialization_covers_every_deterministic_field() {
        let spec = NetSpec {
            groups: 2,
            rounds: 1,
            messages: 4,
            ..NetSpec::default()
        };
        let reports: Vec<_> = Engine::with_workers(2)
            .run_rounds(fleet_jobs(&spec))
            .into_iter()
            .collect::<Result<_, _>>()
            .unwrap();
        let bytes = serialize_reports(&reports);
        let again = serialize_reports(&reports);
        assert_eq!(bytes, again);
        assert!(bytes.len() > 4, "serialization must not be empty");
    }

    fn parse(line: &str) -> Result<NodeArgs, String> {
        NodeArgs::parse(line.split_whitespace().map(String::from))
    }

    fn addrs(line: &str) -> Vec<String> {
        line.split(',').map(String::from).collect()
    }

    #[test]
    fn node_args_round_trip_through_their_command_line() {
        let plain = NodeArgs {
            spec: NetSpec {
                groups: 8,
                rounds: 3,
                messages: 20,
                iterations: 3,
                seed: 0xBE_AC0,
                stall_timeout: Duration::from_millis(1500),
                ..NetSpec::default()
            },
            addrs: addrs("127.0.0.1:1,127.0.0.1:2,127.0.0.1:3"),
            index: 2,
            workers: 4,
            ..NodeArgs::default()
        };
        let sharded = NodeArgs {
            spec: NetSpec {
                sharded: true,
                ..plain.spec.clone()
            },
            out: Some("/tmp/out.bin".into()),
            index: 0,
            ..plain.clone()
        };
        let batched = NodeArgs {
            spec: NetSpec {
                honest: 2,
                ..plain.spec.clone()
            },
            batch: Some(4),
            ..plain.clone()
        };
        let rejoin = NodeArgs {
            rejoin: true,
            ..batched.clone()
        };
        let traced = NodeArgs {
            spec: NetSpec {
                trace: true,
                ..plain.spec.clone()
            },
            index: 0,
            trace: Some("/tmp/trace.json".into()),
            metrics_out: Some("/tmp/metrics.json".into()),
            ..plain.clone()
        };
        // No `--batch`: one batch of every round, on every process.
        assert_eq!((plain.batch, plain.rounds_per_batch()), (None, 3));
        assert_eq!(batched.rounds_per_batch(), 4);
        for args in [plain, sharded, batched, rejoin, traced] {
            let argv = args.argv().expect("every flag carries");
            assert_eq!(NodeArgs::parse(argv.clone()), Ok(args), "{argv:?}");
        }
    }

    /// The literal `atom-node` command lines of `ci.yml`, the operator
    /// guide and `atom-node`'s module docs, each with the deployment it
    /// has always meant.
    #[test]
    fn documented_command_lines_parse_to_the_deployments_they_mean() {
        let cases = [
            (
                "--index 1 --addrs 127.0.0.1:7401,127.0.0.1:7402 --groups 4 --rounds 1 --messages 8",
                1,
                NetSpec {
                    rounds: 1,
                    messages: 8,
                    ..NetSpec::default()
                },
            ),
            (
                "--index 0 --sharded --addrs 127.0.0.1:7403,127.0.0.1:7404 --groups 4 --rounds 1 \
                 --messages 8",
                0,
                NetSpec {
                    rounds: 1,
                    messages: 8,
                    sharded: true,
                    ..NetSpec::default()
                },
            ),
            (
                "--index 1 --addrs 127.0.0.1:7421,127.0.0.1:7422 --groups 4 --rounds 2 \
                 --messages 12 --trace /tmp/member_trace_ignored.json",
                1,
                NetSpec {
                    messages: 12,
                    trace: true,
                    ..NetSpec::default()
                },
            ),
            (
                "--index 2 --addrs 127.0.0.1:7401,127.0.0.1:7402,127.0.0.1:7403 --groups 6 \
                 --rounds 2",
                2,
                NetSpec {
                    groups: 6,
                    ..NetSpec::default()
                },
            ),
            (
                "--index 2 --addrs HOST1:7401,HOST2:7401,HOST3:7401 --groups 3 --rounds 100 \
                 --honest 2 --batch 4 --stall-timeout-ms 2000",
                2,
                NetSpec {
                    groups: 3,
                    rounds: 100,
                    honest: 2,
                    stall_timeout: Duration::from_secs(2),
                    ..NetSpec::default()
                },
            ),
        ];
        for (line, index, spec) in &cases {
            let args = parse(line).expect(line);
            assert_eq!(
                (args.index, args.workers, &args.spec),
                (*index, 2, spec),
                "{line}"
            );
        }
        let heal = parse(cases[4].0).unwrap();
        assert!(!heal.rejoin && heal.batch == Some(4));
        let coordinator = parse(
            "--index 0 --addrs 127.0.0.1:7421,127.0.0.1:7422 --groups 4 --rounds 2 --messages 12 \
             --out /tmp/traced.bin --trace /tmp/ci_trace.json --metrics-out /tmp/ci_metrics.json",
        )
        .unwrap();
        assert_eq!(coordinator.out.as_deref(), Some("/tmp/traced.bin"));
        assert_eq!(coordinator.trace.as_deref(), Some("/tmp/ci_trace.json"));
        assert_eq!(
            coordinator.metrics_out.as_deref(),
            Some("/tmp/ci_metrics.json")
        );
        assert!(coordinator.spec.trace);
    }

    #[test]
    fn bad_command_lines_are_errors() {
        let base = "--index 0 --addrs 127.0.0.1:1,127.0.0.1:2";
        for line in [
            "--index 0 --addrs 127.0.0.1:1",
            "--index 2 --addrs 127.0.0.1:1,127.0.0.1:2",
            &format!("{base} --metrics-out /tmp/m.json"),
            &format!("{base} --rounds two"),
            &format!("{base} --rounds"),
            &format!("{base} --tcp-member"),
            &format!("{base} --heal"),
            &format!("{base} --honest 0"),
            &format!("{base} --groups 0"),
            &format!("{base} --batch 0"),
            &format!("{base} --rejoin"),
        ] {
            assert!(parse(line).is_err(), "{line}");
        }
        assert!(parse(base).is_ok());
    }

    #[test]
    fn the_writer_refuses_what_no_flag_carries() {
        let args = parse("--index 1 --addrs 127.0.0.1:1,127.0.0.1:2").unwrap();
        let with = |edit: fn(&mut NodeArgs)| {
            let mut args = args.clone();
            edit(&mut args);
            args.argv()
        };
        assert!(with(|a| a.spec.loris = Duration::from_millis(5)).is_err());
        assert!(with(|a| a.spec.round_deadline = Duration::from_secs(1)).is_err());
        assert!(with(|a| a.spec.stall_timeout = Duration::from_micros(1500)).is_err());
        assert!(with(|a| a.spec.trace = true).is_err());
        assert!(with(|_| ()).is_ok());
    }
}
