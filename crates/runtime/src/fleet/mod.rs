//! The fleet process (`atom-node` is [`node_main`]): it derives its rounds
//! from a [`NetSpec`], joins the TCP mesh and drives a `crate::recovery`
//! machine (`CoordinatorState` on process 0, `MemberState` elsewhere) to its
//! finish through `step` over its `TcpCarrier` (`Carrier` states the contract).

mod node;

use std::collections::{BTreeMap, BTreeSet};
use std::ops::Range;
use std::sync::{Arc, Mutex, PoisonError};
use std::time::{Duration, Instant};

use atom_obs::Snapshot;

use rand::rngs::StdRng;
use rand::SeedableRng;

use atom_core::directory::derive_setup;
use atom_core::error::AtomError;
use atom_core::message::make_trap_submission;
use atom_net::{Dial, FaultyTransport, SendError, TcpTransport, Transport};

use crate::fault::{slow_groups, FaultVerdict};
use crate::fill_vec::FillVec;
use crate::recovery::{fleet_clocks, owner_map_excluding, Action, Attempt, Input, Machine};
use crate::recovery::{CoordinatorState, MemberState};
use crate::wire::{self, Frame, RejoinFrame, TelemetryFrame};
use crate::{Engine, EngineOptions, EngineRole, RoundCompleteHook};
use crate::{RoundJob, RoundReport, RoundSubmissions};

pub use node::{
    flag_number, flag_value, free_addrs, node_main, serialize_reports, NetSpec, NodeArgs,
    READY_LINE,
};
use node::{hosted_groups, round_config};

/// The jobs of `rounds`, the `i`-th built without the servers `evicted[i]`
/// and healing around those in `failed[i]`: the one round-job derivation.
/// Every job derives its directory inside the run (`RoundJob::sharded`):
/// each process derives only the DKGs of the groups it hosts, and the
/// coordinator the trustees' too. With `with_submissions` (the coordinator
/// and the in-memory references) the full directory is derived here as
/// well, but only to play the users, as clients read the published
/// directory; a member passes `false` and derives none. Submissions come
/// from a stream keyed on `(seed, round)` and encrypt to DKG keys that
/// derive from the beacon, not from membership, so they stay valid under
/// any eviction.
pub(crate) fn batch_jobs(
    spec: &NetSpec,
    rounds: Range<usize>,
    evicted: &[Vec<usize>],
    failed: &[Vec<usize>],
    with_submissions: bool,
) -> Vec<RoundJob> {
    let job = |(round, (evicted, failed)): (usize, (&Vec<usize>, &Vec<usize>))| {
        let mut config = round_config(spec, round);
        config.evicted_servers = evicted.clone();
        let mut submissions = Vec::new();
        if with_submissions {
            let setup = derive_setup(&config).expect("derive healed directory");
            let key = spec.seed ^ (round as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ 0x4845_414C;
            let mut rng = StdRng::seed_from_u64(key);
            let (trustees, length) = (&setup.trustees.public_key, config.message_len);
            for i in 0..spec.messages {
                let text = format!("net r{round} m{i}");
                let (gid, text, at) = (i % spec.groups, text.as_bytes(), config.round);
                let group = &setup.groups[gid].public_key;
                let made = make_trap_submission(gid, group, trustees, at, text, length, &mut rng);
                submissions.push(made.expect("derive submission").0);
            }
        }
        let submissions = RoundSubmissions::Trap(submissions);
        let mut job = RoundJob::sharded(config, submissions, spec.seed.wrapping_add(round as u64));
        job.failed_servers = failed.clone();
        job
    };
    rounds.zip(evicted.iter().zip(failed)).map(job).collect()
}

/// The spec's rounds under an empty eviction log, with submissions: what a
/// fault-free fleet runs, and the in-memory reference of its outputs.
pub fn fleet_jobs(spec: &NetSpec) -> Vec<RoundJob> {
    let none = vec![Vec::new(); spec.rounds];
    batch_jobs(spec, 0..spec.rounds, &none, &none, true)
}

/// The in-memory reference for a recovered run: every round rebuilt with
/// the membership and mid-flight failures the fleet settled on, run on one
/// engine. Its serialized reports must equal the fleet's.
pub fn build_healed_reference(
    spec: &NetSpec,
    round_evicted: &[Vec<usize>],
    round_failed: &[Vec<usize>],
) -> Vec<RoundReport> {
    let jobs = batch_jobs(spec, 0..spec.rounds, round_evicted, round_failed, true);
    let reports: Result<_, _> = Engine::with_workers(2)
        .run_rounds(jobs)
        .into_iter()
        .collect();
    reports.expect("healed reference run")
}

/// What a recovered fleet run produced, beyond the round outputs: the full
/// eviction/rejoin history and the latency of the healing path.
pub struct RecoveryOutcome {
    /// One authoritative report per round of the spec.
    pub reports: Vec<RoundReport>,
    /// Every conviction, in order, of processes that rejoined too.
    pub evictions: Vec<FaultVerdict>,
    /// `(process, first round of the batch it re-entered at)` per rejoin.
    pub rejoins: Vec<(usize, usize)>,
    /// Per round: the servers its directory excluded (for [`build_healed_reference`]).
    pub round_evicted: Vec<Vec<usize>>,
    /// Per round: the mid-flight failure set it finally healed around.
    pub round_failed: Vec<Vec<usize>>,
    /// Batch attempts (plan/ack/go handshakes) the run took.
    pub epochs: usize,
    /// Wall clock of the coordinator's engine runs alone, summed.
    pub engine: Duration,
    /// When the first fault was detected, relative to run start.
    pub detected_at: Option<Duration>,
    /// Detection → the first round completed after it: recovery latency.
    pub healed_latency: Option<Duration>,
    /// Global rounds completed after the first detection, ascending.
    pub healed_rounds: Vec<usize>,
    /// Wall clock of the whole recovered run.
    pub wall: Duration,
    /// Under [`NetSpec::trace`], one snapshot per process in process order:
    /// the coordinator's whole run and what each member shipped.
    pub telemetry: Vec<Snapshot>,
    /// Control frames the coordinator dropped, traced or not: neither
    /// `rejoin` nor telemetry (what `fleet.control.dropped` counts).
    pub control_dropped: usize,
}

/// The fleet's telemetry under `trace` (none otherwise), one snapshot per
/// process in process order: this process's whole-run recording, and per
/// member the spans of every frame it shipped and its latest counters.
fn fleet_telemetry(frames: Vec<TelemetryFrame>, trace: bool) -> Vec<Snapshot> {
    let own = trace.then(|| atom_obs::local_snapshot(None));
    let mut fleet: BTreeMap<u32, Snapshot> =
        own.map(|own| (own.process, own)).into_iter().collect();
    for frame in frames.into_iter().filter(|_| trace) {
        let snapshot = fleet.entry(frame.process).or_default();
        snapshot.process = frame.process;
        snapshot.spans.extend(frame.spans);
        snapshot.counters = frame.counters;
    }
    fleet.into_values().collect()
}

/// The engine options of one attempt on `process`, at wire-round `offset`.
/// The round clock is the coordinator's alone (`NetSpec::round_deadline`).
fn engine_options(spec: &NetSpec, workers: usize, offset: usize, process: usize) -> EngineOptions {
    let mut options = EngineOptions::with_workers(workers);
    options.stall_timeout = fleet_clocks(spec.stall_timeout).stall;
    if process == 0 {
        options.round_deadline = spec.round_deadline;
    }
    options.round_offset = offset;
    options
}

/// What a recovery machine's actions are carried out over: one method per
/// action, the clock, the inbox and a sink for the events. **The driver
/// contract:** the machine decides, and [`step`] carries out a step's
/// actions in order. A failed `Send` ends the list with `Unreachable`, and
/// `Run` ends it with `Ran`, the machine's next input. `Courtesy` ignores
/// errors, `Arm` sets the timer (`Arm(ZERO)`: once the inbox behind this is
/// read), `Finish` ends the run, and any other action is an event. Between
/// steps the machine takes each `rejoin` frame of the inbox, then `Timer`
/// once the armed time has passed; its first input is `Timer`. Jobs,
/// clocks, counters, log lines and telemetry are the carrier's. Two
/// carriers implement it: the fleet's `TcpCarrier`, which [`drive`] runs,
/// and the recovery tests' lockstep harness (FIFOs, a virtual clock and a
/// fake engine), which steps a whole fleet in one thread.
pub(crate) trait Carrier {
    /// The time since the machine started.
    fn now(&mut self) -> Duration;
    fn send(&mut self, to: usize, frame: &RejoinFrame) -> Result<(), SendError>;
    fn courtesy(&mut self, to: usize, frame: &RejoinFrame) -> Result<(), SendError>;
    fn purge(&mut self);
    fn prepare(&mut self, attempt: Attempt);
    fn run(&mut self) -> Vec<Result<(), AtomError>>;
    fn arm(&mut self, at: Duration);
    /// One read of the inbox until the armed time: a `rejoin` frame,
    /// `Timer` once the time passed, or nothing for a frame set aside.
    fn recv(&mut self) -> Option<Input>;
    fn event(&mut self, event: Action);
}

/// Steps `machine` with `input`, carrying out its actions over `carrier` under
/// the [`Carrier`] contract, and returns the run's result once one ends it.
pub(crate) fn step(
    machine: &mut dyn Machine,
    carrier: &mut impl Carrier,
    input: Input,
) -> Option<Result<(), String>> {
    let mut next = Some(input);
    while let Some(input) = next.take() {
        for action in machine.step(carrier.now(), input) {
            match action {
                Action::Send(to, frame) => {
                    let send = |p| carrier.send(p, &frame).err();
                    let failed: Vec<SendError> = to.into_iter().filter_map(send).collect();
                    if !failed.is_empty() {
                        next = Some(Input::Unreachable(failed));
                        break;
                    }
                }
                Action::Courtesy(to, frame) => drop(carrier.courtesy(to, &frame)),
                Action::Purge => carrier.purge(),
                Action::Prepare(attempt) => carrier.prepare(attempt),
                Action::Run => {
                    next = Some(Input::Ran(carrier.run()));
                    break;
                }
                Action::Arm(at) => carrier.arm(at),
                Action::Finish(result) => return Some(result),
                event => carrier.event(event),
            }
        }
    }
    None
}

/// Steps `machine` from its first `Timer` to its finish on what `carrier` reads.
fn drive(machine: &mut dyn Machine, carrier: &mut impl Carrier) -> Result<(), String> {
    let mut input = Some(Input::Timer);
    loop {
        if let Some(result) = input.and_then(|input| step(machine, carrier, input)) {
            return result;
        }
        input = carrier.recv();
    }
}

/// The fleet's [`Carrier`]: process `me`'s TCP mesh, control inbox, engine,
/// `fleet.*` counters and log lines. It keeps each round's first report,
/// the engine's wall clock, the first conviction's time, the telemetry
/// frames it set aside and a count of the other frames it dropped.
struct TcpCarrier<'a> {
    spec: &'a NetSpec,
    transport: Arc<TcpTransport>,
    me: usize,
    workers: usize,
    /// Fires with each global round an engine run completes.
    on_round: Option<RoundCompleteHook>,
    /// The process's start, the last clock read since, the armed timer.
    start: Instant,
    now: Duration,
    timer: Option<Instant>,
    /// The prepared attempt and its jobs.
    prepared: Option<(Attempt, Vec<RoundJob>)>,
    reports: FillVec<RoundReport>,
    engine: Duration,
    detected: Option<Duration>,
    aside: (Vec<TelemetryFrame>, usize),
}

impl<'a> TcpCarrier<'a> {
    /// Binds process `me`'s end of the mesh and connects it to every peer.
    /// Turns recording on under `NetSpec::trace`.
    fn join(
        spec: &'a NetSpec,
        addrs: Vec<String>,
        me: usize,
        workers: usize,
    ) -> Result<Self, String> {
        let start = Instant::now();
        if spec.trace {
            atom_obs::set_process(me as u32);
            atom_obs::set_enabled(true);
        }
        let owner = owner_map_excluding(spec.groups, addrs.len(), &[]);
        let role = if me == 0 { "coordinator" } else { "member" };
        let mesh = fleet_clocks(spec.stall_timeout).mesh;
        let transport = TcpTransport::bind(addrs, owner, me, mesh)
            .map_err(|error| format!("bind {role} transport: {error}"))?;
        let connected = transport.connect_peers();
        connected.map_err(|error| format!("connect to fleet: {error}"))?;
        Ok(Self {
            spec,
            transport: Arc::new(transport),
            me,
            workers,
            on_round: None,
            start,
            now: Duration::ZERO,
            timer: None,
            prepared: None,
            reports: FillVec::new(spec.rounds),
            engine: Duration::ZERO,
            detected: None,
            aside: Default::default(),
        })
    }
}

impl Carrier for TcpCarrier<'_> {
    fn now(&mut self) -> Duration {
        self.now = self.start.elapsed();
        self.now
    }

    fn send(&mut self, to: usize, frame: &RejoinFrame) -> Result<(), SendError> {
        (self.transport).send_control(to, &wire::encode_rejoin(frame), Dial::IfNeeded)
    }

    fn courtesy(&mut self, to: usize, frame: &RejoinFrame) -> Result<(), SendError> {
        (self.transport).send_control(to, &wire::encode_rejoin(frame), Dial::Never)
    }

    fn purge(&mut self) {
        (0..Transport::nodes(&*self.transport)).for_each(|node| drop(self.transport.drain(node)));
    }

    fn prepare(&mut self, attempt: Attempt) {
        let (rounds, _, owner, [evicted, failed]) = &attempt;
        (owner.iter().enumerate()).for_each(|(node, &p)| self.transport.set_owner(node, p));
        let jobs = batch_jobs(self.spec, rounds.clone(), evicted, failed, self.me == 0);
        self.prepared = Some((attempt, jobs));
    }

    /// Runs the attempt through the `NetSpec::loris` send rule. A member logs
    /// how many rounds resolved, their failures being the coordinator's.
    fn run(&mut self) -> Vec<Result<(), AtomError>> {
        let ((rounds, offset, owner, _), jobs) = self.prepared.take().expect("a go runs its plan");
        let (spec, me, total, base) = (self.spec, self.me, jobs.len(), rounds.start);
        let mut options = engine_options(spec, self.workers, offset, me);
        let global = |hook: RoundCompleteHook| Arc::new(move |i| hook(base + i)) as _;
        options.on_round_complete = self.on_round.clone().map(global);
        let groups = hosted_groups(&owner, me);
        let role = match me {
            0 => EngineRole::coordinator(groups),
            _ => EngineRole::member(groups),
        };
        let loris = me == 1 && !spec.loris.is_zero();
        let slow = slow_groups(move |_| loris, spec.groups, spec.loris);
        let transport = FaultyTransport::new(&*self.transport, slow);
        let began = Instant::now();
        let results = Engine::new(options).run_rounds_on(jobs, &transport, &role);
        self.engine += began.elapsed();
        if me > 0 {
            let resolved = results.iter().filter(|result| result.is_ok()).count();
            println!("fleet member {me}: offset {offset} rounds {rounds:?} → {resolved}/{total} resolved");
        }
        (rounds.zip(results))
            .map(|(round, result)| result.map(|report| drop(self.reports.set(round, report))))
            .collect()
    }

    fn arm(&mut self, at: Duration) {
        self.timer = Some(self.start + at);
    }

    /// Sets a telemetry frame aside, and drops and counts any other frame
    /// that is not a `rejoin` one, logging nothing a hostile peer could flood.
    fn recv(&mut self) -> Option<Input> {
        let deadline = self.timer.expect("a machine waits on an armed timer");
        let Some(payload) = self.transport.recv_control(deadline) else {
            self.timer = None;
            return Some(Input::Timer);
        };
        match wire::decode(&payload) {
            Ok(Frame::Rejoin(frame)) => return Some(Input::Frame(frame)),
            Ok(Frame::Telemetry(frame)) => self.aside.0.push(frame),
            _ => {
                self.aside.1 += 1;
                atom_obs::count("fleet.control.dropped", 1);
            }
        }
        None
    }

    fn event(&mut self, event: Action) {
        match event {
            Action::Planned => atom_obs::count("fleet.handshake.plans", 1),
            Action::Acked => atom_obs::count("fleet.handshake.acks", 1),
            Action::Requested => atom_obs::count("fleet.rejoin.handshakes", 1),
            Action::RequestRead(process, round) => {
                atom_obs::count("fleet.rejoin.requests", 1);
                println!("recovery: process {process} requests rejoin (last plan from round {round})");
            }
            Action::Convicted(FaultVerdict { process, kind, round, reason, .. }) => {
                self.detected.get_or_insert(self.now);
                atom_obs::count("fleet.evictions", 1);
                println!("recovery: evicting process {process} ({kind}) at round {round}: {reason}");
            }
            Action::Readmitted(process, round) => {
                atom_obs::count("fleet.rejoin.readmissions", 1);
                println!("recovery: process {process} readmitted from round {round}");
            }
            Action::Retrying(round, stuck, error) => println!(
                "recovery: round {round} failed without a verdict (attempt {stuck}), retrying: {error}"
            ),
            _ => {}
        }
    }
}

/// Runs the coordinator (process 0) of a fleet, rounds in batches of
/// `batch`, until every round has an authoritative report; a fleet of one
/// runs every group here. `on_ready` fires once the transport is connected,
/// `on_round` with each global round as it completes (the chaos tests
/// schedule kills there). A failed run still returns the fleet's telemetry.
pub fn run_recovery_coordinator(
    spec: &NetSpec,
    batch: usize,
    addrs: Vec<String>,
    workers: usize,
    on_round: Option<RoundCompleteHook>,
    on_ready: impl FnOnce(),
) -> Result<RecoveryOutcome, (String, Vec<Snapshot>)> {
    let (config, processes) = (round_config(spec, 0), addrs.len());
    let mut carrier = (TcpCarrier::join(spec, addrs, 0, workers)).map_err(|e| (e, Vec::new()))?;
    on_ready();
    let ack = fleet_clocks(spec.stall_timeout).ack;
    let mut machine = CoordinatorState::new(&config, (processes, spec.rounds, batch), ack);
    let completions: Arc<Mutex<Vec<(usize, Instant)>>> = Arc::default();
    let tap = Arc::clone(&completions);
    carrier.on_round = Some(Arc::new(move |round| {
        let mut completions = tap.lock().unwrap_or_else(PoisonError::into_inner);
        completions.push((round, Instant::now()));
        if let Some(hook) = &on_round {
            hook(round);
        }
    }));
    let run = drive(&mut machine, &mut carrier);
    if let Err(error) = &run {
        // Beside the last attempt's spans, labelled with its first wire
        // round: a run can fail before any engine ran.
        atom_obs::note("failed", (machine.epoch * batch) as u32, error);
    }
    // A traced run awaits, until the ack deadline, the final telemetry of
    // every admitted member the done sentinel reached.
    let start = carrier.start;
    carrier.timer = spec.trace.then_some(start + carrier.now + ack);
    let shipped = |t: &[TelemetryFrame], p| t.iter().any(|f| f.last && f.process as usize == p);
    while carrier.timer.is_some()
        && !(machine.reached.iter()).all(|&p| shipped(&carrier.aside.0, p))
    {
        carrier.recv();
    }
    carrier.transport.shutdown();
    let telemetry = fleet_telemetry(carrier.aside.0, spec.trace);
    let full = (carrier.reports.into_full()).ok_or("a round has no report".to_string());
    let reports = run.and(full).map_err(|error| (error, telemetry.clone()))?;
    let completions = completions.lock().unwrap_or_else(PoisonError::into_inner);
    let detected = carrier.detected.map(|at| start + at);
    let healed: Vec<(usize, Duration)> = (completions.iter())
        .filter_map(|&(round, at)| Some((round, at.checked_duration_since(detected?)?)))
        .filter(|&(_, latency)| !latency.is_zero())
        .collect();
    let healed_rounds: BTreeSet<usize> = healed.iter().map(|&(round, _)| round).collect();
    Ok(RecoveryOutcome {
        reports,
        evictions: machine.evictions,
        rejoins: machine.rejoins,
        round_evicted: machine.round_evicted,
        round_failed: machine.round_failed,
        epochs: machine.epoch,
        engine: carrier.engine,
        detected_at: carrier.detected,
        healed_latency: healed.iter().map(|&(_, latency)| latency).min(),
        healed_rounds: healed_rounds.into_iter().collect(),
        wall: start.elapsed(),
        telemetry,
        control_dropped: carrier.aside.1,
    })
}

/// Runs a member (process `index > 0`, with `rejoin` a restarted one) of a
/// fleet until the done sentinel. A traced member ships the spans recorded
/// since its last shipment (a shared recorder is never drained) after each
/// round and at the done sentinel; a failed shipment is dropped.
pub(crate) fn run_healing_member(
    spec: &NetSpec,
    addrs: Vec<String>,
    index: usize,
    workers: usize,
    rejoin: bool,
    on_ready: impl FnOnce(),
) -> Result<(), String> {
    let plan = fleet_clocks(spec.stall_timeout).plan;
    let shape = (index, addrs.len(), spec.rounds);
    let mut machine = MemberState::new(&round_config(spec, 0), shape, plan, rejoin);
    let mut carrier = TcpCarrier::join(spec, addrs, index, workers)?;
    on_ready();
    let (shipper, shipped) = (Arc::clone(&carrier.transport), Mutex::new(0));
    let ship = Arc::new(move |last: bool| {
        let mut shipped = shipped.lock().unwrap_or_else(PoisonError::into_inner);
        let spans = atom_obs::spans_since(*shipped);
        *shipped += spans.len();
        let (process, counters) = (atom_obs::process(), atom_obs::counter_snapshot());
        let frame = wire::encode_telemetry(&TelemetryFrame {
            process,
            last,
            counters,
            spans,
        });
        let _ = shipper.send_control(0, &frame, Dial::IfNeeded);
    });
    let shipper = Arc::clone(&ship);
    let hook = Arc::new(move |_| shipper(false)) as RoundCompleteHook;
    carrier.on_round = spec.trace.then_some(hook);
    let result = drive(&mut machine, &mut carrier);
    if result.is_ok() && spec.trace {
        ship(true);
    }
    carrier.transport.shutdown();
    result
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{FaultKind, OBS_LOCK};
    use std::sync::mpsc;

    /// A fleet member on its own thread. Its result comes back over a
    /// channel, so the test awaits it with a deadline: a member that hangs
    /// fails the test by name instead of parking a `join` forever.
    struct Member {
        name: &'static str,
        result: mpsc::Receiver<Result<(), String>>,
        /// Twice the member's plan deadline: a member gives up on a silent
        /// coordinator after one.
        deadline: Duration,
    }

    /// The servers process `process` hosts: server `s` lives on process
    /// `s mod processes`.
    fn process_servers(num_servers: usize, processes: usize, process: usize) -> Vec<usize> {
        (0..num_servers)
            .filter(|s| s % processes == process)
            .collect()
    }

    impl Member {
        /// Process `index`; with `rejoin`, a restarted one asking back in.
        fn spawn(
            name: &'static str,
            spec: &NetSpec,
            addrs: &[String],
            index: usize,
            rejoin: bool,
        ) -> Self {
            let (spec, addrs) = (spec.clone(), addrs.to_vec());
            let deadline = fleet_clocks(spec.stall_timeout).plan * 2;
            let (sender, result) = mpsc::channel();
            std::thread::spawn(move || {
                let _ = sender.send(run_healing_member(&spec, addrs, index, 2, rejoin, || {}));
            });
            Self {
                name,
                result,
                deadline,
            }
        }

        /// The member's result; panics, naming the member, if none arrives
        /// before the deadline or the thread died without one.
        fn result(self) -> Result<(), String> {
            let (name, deadline) = (self.name, self.deadline);
            (self.result.recv_timeout(deadline))
                .unwrap_or_else(|error| panic!("{name}: no result within {deadline:?}: {error}"))
        }
    }

    #[test]
    fn owner_map_excluding_reassigns_dead_owners_to_survivors() {
        let owner = owner_map_excluding(5, 3, &[1]);
        // gid % 3 == 1 groups move to a survivor; everyone else stays.
        assert_eq!(owner[0], 0);
        assert_ne!(owner[1], 1);
        assert_eq!(owner[2], 2);
        assert_eq!(owner[3], 0);
        assert_ne!(owner[4], 1);
        // Orchestrator pinned to the coordinator.
        assert_eq!(owner[5], 0);
        // No evictions reproduces the historical round-robin map.
        assert_eq!(owner_map_excluding(5, 3, &[]), vec![0, 1, 2, 0, 1, 0]);
    }

    /// A fleet of one — the coordinator hosting every group over its own
    /// TCP transport — delivers the bytes of its empty-log reference.
    #[test]
    fn coordinator_only_fleet_matches_its_reference() {
        let spec = NetSpec {
            groups: 3,
            rounds: 2,
            messages: 6,
            ..NetSpec::default()
        };
        let addrs = free_addrs(1);
        let outcome = run_recovery_coordinator(&spec, spec.rounds, addrs, 2, None, || {})
            .expect("a coordinator-only fleet completes every round");
        assert!(outcome.evictions.is_empty());
        assert_eq!(outcome.epochs, 1, "one handshake, one batch");
        let reference: Vec<RoundReport> = Engine::with_workers(2)
            .run_rounds(fleet_jobs(&spec))
            .into_iter()
            .collect::<Result<_, _>>()
            .unwrap();
        assert_eq!(
            serialize_reports(&outcome.reports),
            serialize_reports(&reference)
        );
    }

    /// A control frame that is neither a `rejoin` nor telemetry — here bytes
    /// no frame decodes from, sent by a peer outside the fleet before the
    /// first plan — is dropped and counted once in the run's outcome, with
    /// recording off or on (then also as `fleet.control.dropped`), and the
    /// fleet still delivers the bytes of its reference.
    #[test]
    fn a_garbage_control_frame_is_counted_and_changes_no_output() {
        let _guard = OBS_LOCK.lock().unwrap_or_else(PoisonError::into_inner);
        let spec = NetSpec {
            groups: 2,
            rounds: 2,
            messages: 4,
            stall_timeout: Duration::from_secs(2),
            ..NetSpec::default()
        };
        let dropped = || {
            let mut counters = atom_obs::counter_snapshot().into_iter();
            (counters.find(|(name, _)| name == "fleet.control.dropped")).map_or(0, |(_, n)| n)
        };
        for recording in [false, true] {
            atom_obs::set_enabled(recording);
            let (addrs, before) = (free_addrs(2), dropped());
            let member = Member::spawn("member 1", &spec, &addrs, 1, false);
            let coordinator = addrs[0].clone();
            let inject = move || {
                let owner = owner_map_excluding(spec.groups, 2, &[]);
                let hostile = TcpTransport::bind_any(2, owner, 1, Default::default()).unwrap();
                hostile.set_peer_addr(0, coordinator);
                let garbage = hostile.send_control(0, b"not a frame", Dial::IfNeeded);
                garbage.expect("reach the inbox");
                hostile.shutdown();
            };
            let outcome = run_recovery_coordinator(&spec, 1, addrs, 2, None, inject)
                .expect("a dropped frame fails no round");
            assert!(member.result().is_ok(), "the member exits cleanly");
            let counted = dropped() - before;
            atom_obs::set_enabled(false);
            assert_eq!(outcome.control_dropped, 1, "recording {recording}");
            assert_eq!(
                counted,
                u64::from(recording),
                "the counter records only when on"
            );
            assert!(outcome.evictions.is_empty());
            let reference =
                build_healed_reference(&spec, &outcome.round_evicted, &outcome.round_failed);
            assert_eq!(
                serialize_reports(&outcome.reports),
                serialize_reports(&reference)
            );
        }
    }

    /// The whole tentpole in one process: a three-"process" fleet (threads
    /// with real TCP transports) loses member 2 between batches, the
    /// coordinator convicts it on the handshake timeout and re-plans with the
    /// verdict, the survivors re-form its groups and keep delivering, a
    /// restarted member 2 rejoins on the same address mid-run — and the
    /// final outputs are byte-identical to an in-memory rebuild from the
    /// eviction log.
    #[test]
    fn fleet_evicts_dead_member_heals_and_readmits_rejoiner() {
        let spec = NetSpec {
            groups: 3,
            rounds: 6,
            messages: 6,
            iterations: 2,
            seed: 0x4EA1,
            stall_timeout: Duration::from_secs(1),
            honest: 2,
            ..NetSpec::default()
        };
        let addrs = free_addrs(3);
        let batch = 1;

        let m1 = Member::spawn("member 1", &spec, &addrs, 1, false);
        // Process 2's first incarnation believes the workload is one round
        // long: it completes round 0, then exits and shuts its transport
        // down when the round-1 plan arrives — an abrupt disappearance as
        // far as the rest of the fleet is concerned.
        let one_round = NetSpec {
            rounds: 1,
            ..spec.clone()
        };
        let m2a = Member::spawn("member 2, first incarnation", &one_round, &addrs, 2, false);
        // Its second incarnation restarts on the same address once the
        // fleet has demonstrably healed (first post-eviction round done)
        // and asks to rejoin.
        let restarted: Arc<Mutex<Option<Member>>> = Arc::new(Mutex::new(None));
        let hook: RoundCompleteHook = {
            let restarted = restarted.clone();
            let (spec, addrs) = (spec.clone(), addrs.clone());
            Arc::new(move |round| {
                if round == 1 {
                    let member = Member::spawn("member 2, rejoiner", &spec, &addrs, 2, true);
                    restarted
                        .lock()
                        .unwrap_or_else(|poison| poison.into_inner())
                        .replace(member);
                }
            })
        };

        let outcome = run_recovery_coordinator(&spec, batch, addrs, 2, Some(hook), || {})
            .expect("recovery completes every round");

        assert!(m2a.result().is_ok(), "first incarnation exits cleanly");
        assert!(m1.result().is_ok(), "surviving member exits cleanly");
        let m2b = restarted
            .lock()
            .unwrap_or_else(|poison| poison.into_inner())
            .take()
            .expect("restart scheduled at the first healed round");
        assert!(m2b.result().is_ok(), "rejoiner exits cleanly");

        // Exactly process 2 was convicted, as dead, and later readmitted.
        let convicted: Vec<usize> = outcome.evictions.iter().map(|v| v.process).collect();
        assert_eq!(convicted, vec![2]);
        assert!(matches!(outcome.evictions[0].kind, FaultKind::Dead));
        assert_eq!(outcome.rejoins.len(), 1);
        let (process, round) = outcome.rejoins[0];
        assert_eq!(process, 2);
        assert!(
            round > 1 && round < spec.rounds,
            "readmitted mid-run, not at the end (round {round})"
        );
        // The rejoined process hosts groups again from that round on.
        assert!(!hosted_groups(&owner_map_excluding(spec.groups, 3, &[]), 2).is_empty());

        // Every round delivered despite the churn, and the healing
        // latency was measured.
        let delivered: usize = outcome
            .reports
            .iter()
            .map(|r| r.output.plaintexts.len())
            .sum();
        assert_eq!(delivered, spec.rounds * spec.messages);
        assert!(outcome.detected_at.is_some());
        assert!(outcome.healed_latency.is_some());
        assert!(!outcome.healed_rounds.is_empty());

        // Byte-determinism given the eviction log: an in-memory rebuild
        // from the recorded per-round membership matches the fleet.
        let reference =
            build_healed_reference(&spec, &outcome.round_evicted, &outcome.round_failed);
        assert_eq!(
            serialize_reports(&outcome.reports),
            serialize_reports(&reference)
        );
        // Round 0 ran with full membership, the rounds after the death
        // re-formed without process 2's servers, and the rounds after
        // readmission include them again.
        assert!(outcome.round_evicted[0].is_empty());
        assert_eq!(outcome.round_evicted[1], process_servers(9, 3, 2));
        assert!(outcome.round_evicted[round].is_empty());
    }

    /// Slow-loris chaos drill: process 1 drips frames slowly enough to keep
    /// the stall detector happy forever, so only the coordinator's round
    /// clock can catch it. The drill asserts the full arc — `Slow`
    /// conviction, the courtesy plan reaching the evicted-but-alive member,
    /// its rejoin and readmission, a fresh conviction after every
    /// readmission — and that the healed rounds are byte-identical to an
    /// in-memory rebuild from the recorded per-round membership.
    #[test]
    fn fleet_convicts_slow_loris_member_and_heals() {
        let loris = Duration::from_secs(5);
        let spec = NetSpec {
            groups: 3,
            rounds: 3,
            messages: 6,
            iterations: 2,
            seed: 0x510E,
            // The drip (one 5 s straggle per step, at the transport) never
            // leaves a 20 s progress gap; the 5 s round clock fires long
            // before the member's ~10 s round could finish.
            stall_timeout: Duration::from_secs(20),
            round_deadline: Duration::from_secs(5),
            loris,
            honest: 2,
            ..NetSpec::default()
        };
        let addrs = free_addrs(3);
        let batch = 1;

        let m1 = Member::spawn("loris member 1", &spec, &addrs, 1, false);
        let m2 = Member::spawn("honest member 2", &spec, &addrs, 2, false);
        // Gate: hold the coordinator at the first healed round until the
        // convicted member has certainly woken from its drip and sent its
        // rejoin request (bounded by one residual drip plus slack), so at
        // least one readmission happens before the final batch boundary.
        // One residual drip holds because `slow_groups` delays one frame
        // per step (the group's frame to itself, or its exit frame), not
        // one per neighbour, and the group's next step waits on that frame.
        // WHICH boundary collects the request still races the member's
        // wake-up, so the assertions below are boundary-agnostic.
        let hook: RoundCompleteHook = Arc::new(move |round| {
            if round == 0 {
                std::thread::sleep(loris + Duration::from_secs(2));
            }
        });

        let outcome = run_recovery_coordinator(&spec, batch, addrs, 2, Some(hook), || {})
            .expect("recovery completes every round");
        assert!(
            m1.result().is_ok(),
            "loris member exits cleanly on the done sentinel"
        );
        assert!(m2.result().is_ok(), "honest member exits cleanly");

        // Convicted as slow (not dead, not blamed) every time it was
        // admitted: once in the original membership, once more after every
        // readmission — the drip always outlives the round clock.
        assert_eq!(
            outcome.evictions.len(),
            outcome.rejoins.len() + 1,
            "one conviction per admission: {:?} vs {:?}",
            outcome.evictions,
            outcome.rejoins
        );
        for verdict in &outcome.evictions {
            assert_eq!(verdict.process, 1);
            assert!(
                matches!(verdict.kind, FaultKind::Slow),
                "expected a Slow verdict: {verdict:?}"
            );
        }
        // The courtesy plan told the evicted-but-alive member about its
        // eviction; it asked back in and was readmitted at a later batch
        // boundary (which one depends on when its wake-up races the epoch
        // purge — any admitted round except the first qualifies).
        assert!(!outcome.rejoins.is_empty(), "never readmitted");
        for &(process, round) in &outcome.rejoins {
            assert_eq!(process, 1);
            assert!((1..spec.rounds).contains(&round), "rejoin at {round}");
        }

        // Liveness floor: every round delivered despite repeated evictions.
        let delivered: usize = outcome
            .reports
            .iter()
            .map(|r| r.output.plaintexts.len())
            .sum();
        assert_eq!(delivered, spec.rounds * spec.messages);
        assert!(outcome.detected_at.is_some());

        // Byte-determinism given the eviction log: an in-memory rebuild
        // from the recorded per-round membership matches the fleet.
        let reference =
            build_healed_reference(&spec, &outcome.round_evicted, &outcome.round_failed);
        assert_eq!(
            serialize_reports(&outcome.reports),
            serialize_reports(&reference)
        );
    }

    #[test]
    fn healed_reference_is_deterministic() {
        let spec = NetSpec {
            groups: 3,
            rounds: 2,
            messages: 6,
            iterations: 2,
            honest: 2,
            ..NetSpec::default()
        };
        let evicted = vec![Vec::new(), process_servers(9, 3, 2)];
        let failed = vec![Vec::new(), Vec::new()];
        let once = serialize_reports(&build_healed_reference(&spec, &evicted, &failed));
        let twice = serialize_reports(&build_healed_reference(&spec, &evicted, &failed));
        assert_eq!(once, twice);
        // And the eviction actually changes the mixed bytes' routing
        // history relative to the intact fleet: same plaintext count,
        // independently derivable either way.
        let intact = build_healed_reference(&spec, &[Vec::new(), Vec::new()], &failed);
        assert_eq!(
            intact
                .iter()
                .map(|r| r.output.plaintexts.len())
                .sum::<usize>(),
            spec.rounds * spec.messages
        );
    }

    /// The coordinator of a fleet of one, running the spec's rounds as one
    /// batch.
    fn lone_coordinator(spec: &NetSpec) -> CoordinatorState {
        let shape = (1, spec.rounds, spec.rounds);
        CoordinatorState::new(
            &round_config(spec, 0),
            shape,
            fleet_clocks(spec.stall_timeout).ack,
        )
    }

    /// The carrier of a fleet of one, its engine firing `hook` per global
    /// round.
    fn lone_carrier(spec: &NetSpec, hook: Option<RoundCompleteHook>) -> TcpCarrier<'_> {
        let mut carrier = TcpCarrier::join(spec, free_addrs(1), 0, 2).expect("a fleet of one");
        carrier.on_round = hook;
        carrier
    }

    /// One attempt of a [`lone_coordinator`] over `carrier`: the plan in
    /// `plan` is prepared and its jobs `tamper`ed, and the go (the inbox is
    /// empty) runs them on the carrier's engine. Returns the attempt's
    /// rounds, its job count and the machine's answer to its results.
    fn attempt(
        coordinator: &mut CoordinatorState,
        (carrier, plan): (&mut TcpCarrier, Vec<Action>),
        tamper: impl FnOnce(&mut [RoundJob]),
    ) -> (Range<usize>, usize, Vec<Action>) {
        let prepare = plan.into_iter().find_map(|action| match action {
            Action::Prepare(attempt) => Some(attempt),
            _ => None,
        });
        carrier.prepare(prepare.expect("a plan prepares its attempt"));
        let ((rounds, ..), jobs) = carrier.prepared.as_mut().expect("a prepared attempt");
        tamper(jobs);
        let (rounds, count) = (rounds.clone(), jobs.len());
        let go = coordinator.step(Duration::ZERO, Input::Timer);
        assert!(matches!(go.last(), Some(Action::Run)), "{go:?}");
        let results = carrier.run();
        (
            rounds,
            count,
            coordinator.step(Duration::ZERO, Input::Ran(results)),
        )
    }

    /// Where a machine's answer leaves the run: the first round of its next
    /// plan, or `rounds` once it finished well.
    fn next_round(answer: &[Action], rounds: usize) -> usize {
        (answer.iter())
            .find_map(|action| match action {
                Action::Prepare((rounds, ..)) => Some(rounds.start),
                Action::Finish(Ok(())) => Some(rounds),
                _ => None,
            })
            .unwrap_or_else(|| panic!("neither a plan nor a finish: {answer:?}"))
    }

    /// Rebinds submission 2 of round 1 to another entry group without a
    /// fresh proof, so round 1's intake check fails.
    fn rebind_a_round_1_submission(jobs: &mut [RoundJob], groups: usize) {
        let RoundSubmissions::Trap(submissions) = &mut jobs[1].submissions else {
            panic!("fleet rounds are trap rounds");
        };
        submissions[2].entry_group = (submissions[2].entry_group + 1) % groups;
    }

    /// A batch whose middle round alone fails while the later rounds
    /// succeed: round 1's job carries a hostile client submission (one
    /// rebound to another entry group without a fresh proof), so its intake
    /// check fails. Rounds 2 and 3 have their reports, so the retry plans
    /// round 1 alone: its engine run holds that one job, each round's
    /// report is its first success and each completion hook fires once.
    #[test]
    fn a_retried_batch_keeps_each_completed_rounds_first_success() {
        let spec = NetSpec {
            groups: 3,
            rounds: 4,
            messages: 6,
            ..NetSpec::default()
        };
        let fired = Arc::new(Mutex::new(vec![0usize; spec.rounds]));
        let hook: RoundCompleteHook = {
            let fired = Arc::clone(&fired);
            Arc::new(move |round| fired.lock().unwrap()[round] += 1)
        };
        let mut coordinator = lone_coordinator(&spec);
        let mut carrier = lone_carrier(&spec, Some(hook));
        let plan = coordinator.step(Duration::ZERO, Input::Timer);
        let tamper = |jobs: &mut [RoundJob]| rebind_a_round_1_submission(jobs, spec.groups);
        let (_, _, answer) = attempt(&mut coordinator, (&mut carrier, plan), tamper);
        assert_eq!(next_round(&answer, spec.rounds), 1, "round 1 alone failed");
        let first: Vec<Option<Duration>> = (0..spec.rounds)
            .map(|round| carrier.reports.get(round).map(|report| report.wall_clock))
            .collect();
        assert!(first[1].is_none() && first[2].is_some() && first[3].is_some());

        let (retried, retry, answer) = attempt(&mut coordinator, (&mut carrier, answer), |_| {});
        assert_eq!(retried, 1..2, "the retry plans round 1 alone");
        assert_eq!(retry, 1, "the retry's engine run holds one job");
        assert_eq!(
            next_round(&answer, spec.rounds),
            spec.rounds,
            "the retry completes round 1"
        );
        assert_eq!(
            *fired.lock().unwrap(),
            vec![1; spec.rounds],
            "each round's hook fires once"
        );
        carrier.transport.shutdown();
        let reports = carrier
            .reports
            .into_full()
            .expect("every round has its report");
        for round in [0, 2, 3] {
            assert_eq!(
                Some(reports[round].wall_clock),
                first[round],
                "round {round}'s report is its first success"
            );
        }
        let reference =
            build_healed_reference(&spec, &coordinator.round_evicted, &coordinator.round_failed);
        assert_eq!(serialize_reports(&reports), serialize_reports(&reference));
    }

    /// A failed attempt leaves its reason in the fleet's telemetry although
    /// its retry succeeds: round 1's intake rejects a rebound submission in
    /// epoch 1, so the coordinator's telemetry notes the rejection at that
    /// attempt's wire round, `epoch × batch + 1`.
    #[test]
    fn a_failed_attempt_leaves_its_reason_in_the_fleet_telemetry() {
        let _guard = OBS_LOCK.lock().unwrap_or_else(PoisonError::into_inner);
        let spec = NetSpec {
            groups: 3,
            rounds: 4,
            messages: 6,
            trace: true,
            ..NetSpec::default()
        };
        atom_obs::set_process(0);
        atom_obs::set_enabled(true);
        let mut coordinator = lone_coordinator(&spec);
        let mut carrier = lone_carrier(&spec, None);
        let plan = coordinator.step(Duration::ZERO, Input::Timer);
        let tamper = |jobs: &mut [RoundJob]| rebind_a_round_1_submission(jobs, spec.groups);
        let (_, _, answer) = attempt(&mut coordinator, (&mut carrier, plan), tamper);
        assert_eq!(next_round(&answer, spec.rounds), 1, "round 1 alone failed");
        let (_, _, answer) = attempt(&mut coordinator, (&mut carrier, answer), |_| {});
        assert_eq!(
            next_round(&answer, spec.rounds),
            spec.rounds,
            "the retry completes round 1"
        );
        carrier.transport.shutdown();
        let telemetry = fleet_telemetry(Vec::new(), spec.trace);
        atom_obs::set_enabled(false);

        let failed_attempt = (spec.rounds + 1) as u32;
        let notes: Vec<&atom_obs::SpanRecord> = (telemetry.iter())
            .filter(|snapshot| snapshot.process == 0)
            .flat_map(|snapshot| snapshot.spans.iter())
            .filter(|span| span.phase == "failed" && span.round == failed_attempt)
            .collect();
        assert!(
            notes
                .iter()
                .any(|span| span.note.contains("submission rejected")),
            "no note of the intake rejection at wire round {failed_attempt}: {notes:?}"
        );
    }

    /// A batch-1 run opens an epoch per round, so a long run reaches epoch
    /// 4,096 near round 4k: the fence the driver builds for it must still fit
    /// the frames' u32 round field and deliver.
    #[test]
    fn epoch_fence_fits_the_wire_past_epoch_4096() {
        let spec = NetSpec {
            groups: 3,
            rounds: 1,
            messages: 6,
            honest: 2,
            ..NetSpec::default()
        };
        let job = fleet_jobs(&spec).remove(0);
        // Epoch 4,096 of batch-1 attempts: offset 4,096 × 1.
        let options = engine_options(&spec, 2, 4_096, 0);
        let report = Engine::new(options).run_rounds(vec![job]).pop().unwrap();
        let report = report.expect("epoch 4,096 delivers");
        assert_eq!(report.output.plaintexts.len(), spec.messages);
    }
}
