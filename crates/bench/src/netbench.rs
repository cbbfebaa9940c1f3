//! Shared pieces of the multi-process (TCP transport) harnesses.
//!
//! A multi-process run has no shared memory, so every process derives the
//! *same* rounds — setups, submissions, seeds — from a [`NetSpec`] it was
//! handed on the command line, and the node→process assignment is a pure
//! function of `(groups, processes)`. This module owns that derivation plus
//! a canonical byte serialization of round outputs, which is what the TCP
//! loopback equivalence test compares against a single-process run —
//! byte-for-byte, not just set-equal.

use std::io::{BufRead, BufReader};
use std::process::{Child, Command, ExitStatus, Stdio};
use std::sync::mpsc;
use std::time::{Duration, Instant};

use rand::rngs::StdRng;
use rand::SeedableRng;

use atom_core::config::{AtomConfig, Defense};
use atom_core::directory::{derive_setup, RoundSetup};
use atom_core::error::AtomResult;
use atom_core::message::{make_trap_submission, TrapSubmission};
use atom_net::{NodeId, TcpOptions, TcpTransport};
use atom_runtime::{Engine, EngineOptions, EngineRole, RoundJob, RoundReport, RoundSubmissions};

/// Everything a process needs to derive a multi-process workload
/// deterministically.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct NetSpec {
    /// Anytrust groups in the deployment.
    pub groups: usize,
    /// Rounds, all in flight at once.
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

/// The spec's submissions for one round, encrypted to the given directory.
pub(crate) fn round_submissions(
    spec: &NetSpec,
    round: usize,
    setup: &RoundSetup,
    rng: &mut StdRng,
) -> Vec<TrapSubmission> {
    (0..spec.messages)
        .map(|i| {
            let gid = i % spec.groups;
            make_trap_submission(
                gid,
                &setup.groups[gid].public_key,
                &setup.trustees.public_key,
                setup.config.round,
                format!("net r{round} m{i}").as_bytes(),
                setup.config.message_len,
                rng,
            )
            .expect("derive submission")
            .0
        })
        .collect()
}

/// Derives the spec's rounds: a trap-variant deployment with fixed-length
/// messages and a prebuilt directory ([`derive_setup`] of each round's
/// config), identical in every process for equal specs. This is also the
/// in-memory reference a sharded run is diffed against: [`build_sharded_jobs`]
/// over the same spec must produce byte-identical round outputs.
pub fn build_jobs(spec: &NetSpec) -> Vec<RoundJob> {
    let mut rng = StdRng::seed_from_u64(spec.seed);
    (0..spec.rounds)
        .map(|round| {
            let setup = derive_setup(&round_config(spec, round)).expect("derive round setup");
            let submissions = round_submissions(spec, round, &setup, &mut rng);
            RoundJob::new(
                setup,
                RoundSubmissions::Trap(submissions),
                spec.seed.wrapping_add(round as u64),
            )
        })
        .collect()
}

/// The spec's rounds as **sharded** jobs: the directory is derived inside
/// the engine run, split across the participating processes. Only the
/// coordinator needs submissions (`with_submissions`) — it takes them from
/// [`build_jobs`], deriving the full directory locally to play the users
/// exactly like clients reading the published directory — while members
/// pass an empty set and so never derive a non-hosted group's DKG at all.
pub fn build_sharded_jobs(spec: &NetSpec, with_submissions: bool) -> Vec<RoundJob> {
    if with_submissions {
        return build_jobs(spec)
            .into_iter()
            .map(|job| RoundJob::sharded(job.config().clone(), job.submissions, job.seed))
            .collect();
    }
    (0..spec.rounds)
        .map(|round| {
            RoundJob::sharded(
                round_config(spec, round),
                RoundSubmissions::Trap(Vec::new()),
                spec.seed.wrapping_add(round as u64),
            )
        })
        .collect()
}

/// The node→process assignment: groups round-robin over every process
/// (coordinator included), the orchestrator node (always last) on process
/// 0. Every process must compute the identical map.
pub fn owner_map(groups: usize, processes: usize) -> Vec<usize> {
    assert!(processes >= 1, "at least the coordinator process");
    let mut owner: Vec<usize> = (0..groups).map(|gid| gid % processes).collect();
    owner.push(0);
    owner
}

/// The group ids process `index` hosts under [`owner_map`].
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

/// One process's share of a multi-process run, split into an untimed setup
/// phase ([`Process::start`]: derive jobs, bind, connect) and the run
/// itself ([`Process::run`]) — so benchmarks can time the engine without
/// charging it for workload derivation or connection churn.
///
/// Panics on transport setup failure or if any round errors — the callers
/// are benchmarks and CLI harnesses where loud is right.
pub struct Process {
    transport: TcpTransport,
    role: EngineRole,
    options: EngineOptions,
    jobs: Vec<RoundJob>,
}

impl Process {
    /// Derives the spec's jobs, binds node `index` of `addrs` and connects
    /// to every peer (retrying while they start up). Under
    /// [`NetSpec::sharded`] the jobs carry only the configuration (plus, on
    /// the coordinator, the submissions): the DKGs themselves run inside
    /// [`Process::run`], sharded across the processes.
    pub fn start(spec: &NetSpec, addrs: Vec<String>, index: usize, workers: usize) -> Self {
        if spec.trace {
            atom_obs::set_process(index as u32);
            atom_obs::set_enabled(true);
        }
        let owner = owner_map(spec.groups, addrs.len());
        let hosted = hosted_groups(&owner, index);
        let transport = TcpTransport::bind(addrs, owner, index, TcpOptions::default())
            .expect("bind tcp transport");
        transport.connect_peers().expect("connect tcp peers");
        let role = if index == 0 {
            EngineRole::coordinator(hosted)
        } else {
            EngineRole::member(hosted)
        };
        let mut options = EngineOptions::with_workers(workers);
        options.stall_timeout = spec.stall_timeout;
        let jobs = if spec.sharded {
            build_sharded_jobs(spec, index == 0)
        } else {
            build_jobs(spec)
        };
        Self {
            transport,
            role,
            options,
            jobs,
        }
    }

    /// Plays the role to completion and returns one result per round
    /// (authoritative on process 0, stubs elsewhere). A vanished peer
    /// process surfaces here as per-round errors — a send error becomes
    /// `TransportLost`, silence trips the stall detector — never as a hang.
    pub fn try_run(self) -> Vec<AtomResult<RoundReport>> {
        let results =
            Engine::new(self.options).run_rounds_on(self.jobs, &self.transport, &self.role);
        self.transport.shutdown();
        results
    }

    /// [`Process::try_run`], panicking on the first round error — for
    /// harnesses where loud is right.
    pub fn run(self) -> Vec<RoundReport> {
        self.try_run()
            .into_iter()
            .collect::<Result<Vec<_>, _>>()
            .expect("multi-process round failed")
    }
}

/// [`Process::start`] + [`Process::run`] in one call, for harnesses that
/// do their own timing (or none).
pub fn run_process(
    spec: &NetSpec,
    addrs: Vec<String>,
    index: usize,
    workers: usize,
) -> Vec<RoundReport> {
    Process::start(spec, addrs, index, workers).run()
}

/// The readiness line a non-coordinator process of an orchestrated
/// deployment prints on stdout once its setup (job derivation, bind,
/// connect) is done and its engine is about to run. [`ProcessFleet`] waits
/// for it, so a benchmark's timed region starts with every engine ready —
/// and so a child that dies during setup is caught immediately.
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
    /// Process index in the deployment (the spawning process is 0, so
    /// members are indices `1..processes`).
    index: usize,
    child: Child,
    ready: bool,
    reaped: Option<ExitStatus>,
    reader: Option<std::thread::JoinHandle<()>>,
    /// Bumped by [`ProcessFleet::restart_member`]; events from a previous
    /// child of this slot carry an older generation and are ignored.
    generation: u64,
}

/// Human-readable exit description, including the fatal signal on Unix —
/// a SIGKILLed member reads `signal 9`, not an opaque failure.
#[cfg(unix)]
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

#[cfg(not(unix))]
fn describe_exit(status: &ExitStatus) -> String {
    format!("{status}")
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

/// The member processes of one N-process deployment: spawned together,
/// readiness-handshaked, monitored, and — on **every** exit path, including
/// a panicking or early-returning caller — killed and reaped (`Drop`), so
/// no fleet ever leaks an orphan child.
///
/// The coordinator (process 0) is the caller itself and never part of the
/// fleet; `commands[i]` must launch process index `i + 1` of the deployment
/// and print [`READY_LINE`] on stdout once its engine is ready.
pub struct ProcessFleet {
    members: Vec<FleetMember>,
    events: mpsc::Receiver<FleetEvent>,
    events_tx: mpsc::Sender<FleetEvent>,
    epoch: Instant,
}

impl ProcessFleet {
    /// Spawns one member per command. Each child's stdout is piped through
    /// a monitor thread that watches for [`READY_LINE`] and forwards every
    /// other line to this process's stderr, prefixed with the member's
    /// process index and the milliseconds elapsed since the fleet spawned —
    /// so an operator watching the coordinator sees the whole fleet's
    /// output, attributed and ordered in time (interleaving across members
    /// is otherwise unreadable during a stall post-mortem).
    pub fn spawn(commands: Vec<Command>) -> Self {
        let (events_tx, events) = mpsc::channel();
        let epoch = Instant::now();
        let members = commands
            .into_iter()
            .enumerate()
            .map(|(i, mut command)| {
                let index = i + 1;
                let mut child = command
                    .stdout(Stdio::piped())
                    .stderr(Stdio::inherit())
                    .spawn()
                    .expect("spawn fleet member process");
                let stdout = child.stdout.take().expect("fleet member stdout piped");
                let reader = spawn_reader(index, 0, stdout, events_tx.clone(), epoch);
                FleetMember {
                    index,
                    child,
                    ready: false,
                    reaped: None,
                    reader: Some(reader),
                    generation: 0,
                }
            })
            .collect();
        Self {
            members,
            events,
            events_tx,
            epoch,
        }
    }

    /// Number of member processes (the deployment has one more: the caller).
    pub fn len(&self) -> usize {
        self.members.len()
    }

    /// Whether the fleet has no members (a single-process deployment).
    pub fn is_empty(&self) -> bool {
        self.members.is_empty()
    }

    /// Blocks until every member signalled readiness. A member that exits
    /// first, or a deadline overrun, kills the whole fleet and reports
    /// which member failed — setup problems surface as errors, not hangs.
    pub fn await_ready(&mut self, timeout: Duration) -> Result<(), String> {
        let deadline = Instant::now() + timeout;
        while self.members.iter().any(|member| !member.ready) {
            let left = deadline.saturating_duration_since(Instant::now());
            if left.is_zero() {
                let waiting = self.not_ready();
                self.kill_all();
                return Err(format!(
                    "fleet members {waiting:?} not ready after {timeout:?}"
                ));
            }
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
                    let waiting = self.not_ready();
                    self.kill_all();
                    return Err(format!(
                        "fleet members {waiting:?} not ready after {timeout:?}"
                    ));
                }
            }
        }
        Ok(())
    }

    fn not_ready(&self) -> Vec<usize> {
        self.members
            .iter()
            .filter(|member| !member.ready)
            .map(|member| member.index)
            .collect()
    }

    /// Waits (bounded) for every member to exit, then checks the statuses.
    /// A member still running at the deadline is killed; any non-success
    /// status is reported. Either way every child is reaped before this
    /// returns.
    pub fn finish(mut self, timeout: Duration) -> Result<(), String> {
        let deadline = Instant::now() + timeout;
        loop {
            for member in &mut self.members {
                if member.reaped.is_none() {
                    if let Some(status) = member.child.try_wait().expect("wait on fleet member") {
                        record_exit(member.index, self.epoch, &status);
                        member.reaped = Some(status);
                    }
                }
            }
            if self.members.iter().all(|member| member.reaped.is_some()) {
                break;
            }
            if Instant::now() > deadline {
                let laggards: Vec<usize> = self
                    .members
                    .iter()
                    .filter(|member| member.reaped.is_none())
                    .map(|member| member.index)
                    .collect();
                self.kill_all();
                return Err(format!(
                    "fleet members {laggards:?} still running {timeout:?} after the \
                     coordinator finished; killed"
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
            if member.reaped.is_none() {
                let _ = member.child.kill();
                if let Ok(status) = member.child.wait() {
                    record_exit(index, epoch, &status);
                    member.reaped = Some(status);
                }
            }
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

    /// Restarts a dead member slot with a fresh command (same deployment
    /// index — rejoin drills restart the killed process on its old
    /// address). Errors if the old child is still running. The new child
    /// gets a fresh generation, so stale events from its predecessor are
    /// ignored; wait for it with [`ProcessFleet::await_ready`].
    pub fn restart_member(&mut self, index: usize, mut command: Command) -> Result<(), String> {
        let epoch = self.epoch;
        let tx = self.events_tx.clone();
        let member = self
            .members
            .iter_mut()
            .find(|m| m.index == index)
            .ok_or_else(|| format!("no fleet member with process index {index}"))?;
        if member.reaped.is_none() {
            match member.child.try_wait() {
                Ok(Some(status)) => {
                    record_exit(index, epoch, &status);
                    member.reaped = Some(status);
                }
                Ok(None) => return Err(format!("fleet member {index} is still running")),
                Err(error) => return Err(format!("wait on fleet member {index}: {error}")),
            }
        }
        if let Some(reader) = member.reader.take() {
            let _ = reader.join();
        }
        let mut child = command
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit())
            .spawn()
            .map_err(|error| format!("respawn fleet member {index}: {error}"))?;
        let stdout = child.stdout.take().expect("fleet member stdout piped");
        member.generation += 1;
        member.reader = Some(spawn_reader(index, member.generation, stdout, tx, epoch));
        member.child = child;
        member.ready = false;
        member.reaped = None;
        eprintln!("[p{index} +{}ms] restarted", epoch.elapsed().as_millis());
        Ok(())
    }

    /// Kills and reaps every still-running member and joins the monitor
    /// threads. Idempotent; also what `Drop` runs, so no exit path —
    /// including a caller panic — orphans a child process.
    pub fn kill_all(&mut self) {
        for member in &mut self.members {
            if member.reaped.is_none() {
                let _ = member.child.kill();
                if let Ok(status) = member.child.wait() {
                    member.reaped = Some(status);
                }
            }
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

    #[test]
    fn owner_map_round_robins_groups_and_pins_the_orchestrator() {
        assert_eq!(owner_map(4, 2), vec![0, 1, 0, 1, 0]);
        assert_eq!(owner_map(3, 1), vec![0, 0, 0, 0]);
        assert_eq!(hosted_groups(&owner_map(4, 2), 0), vec![0, 2]);
        assert_eq!(hosted_groups(&owner_map(4, 2), 1), vec![1, 3]);
        assert_eq!(hosted_groups(&owner_map(4, 3), 2), vec![2]);
    }

    #[test]
    fn job_derivation_is_deterministic() {
        let spec = NetSpec::default();
        let a = build_jobs(&spec);
        let b = build_jobs(&spec);
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
            .run_rounds(build_jobs(&spec))
            .into_iter()
            .collect::<Result<_, _>>()
            .unwrap();
        let sharded: Vec<_> = Engine::with_workers(2)
            .run_rounds(build_sharded_jobs(&spec, true))
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
        let spec = NetSpec::default();
        for job in build_sharded_jobs(&spec, false) {
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
            .run_rounds(build_jobs(&spec))
            .into_iter()
            .collect::<Result<_, _>>()
            .unwrap();
        let bytes = serialize_reports(&reports);
        let again = serialize_reports(&reports);
        assert_eq!(bytes, again);
        assert!(bytes.len() > 4, "serialization must not be empty");
    }
}
